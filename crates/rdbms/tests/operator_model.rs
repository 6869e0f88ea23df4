//! Model-based property tests for the executor's row-set operators. The
//! executor hands rows between operators in flat buffers and never as a
//! vector per row; here each operator's output is held, row for row and in
//! order, against the obvious `Vec<Vec<Value>>` program — with the
//! operators in memory and with every one of them forced to spill.
//!
//! Inside the engine a string is the id it was interned under, in the
//! order the engine first read it. Every engine here first reads each
//! string the fixtures can hold in *reverse* lexical order, so any place
//! that ordered strings by their ids instead of their bytes — a sort, a
//! range filter, a spilled merge — would reverse them and fail.

use proptest::prelude::*;
use rdbms::{ColType, Engine, SpillMode, Value};

/// Two relations over one schema of one to four columns, integer or
/// string, with values drawn from a handful so duplicates, join partners
/// and sort ties all turn up. Either relation may be empty.
#[derive(Debug, Clone)]
struct Fixture {
    types: Vec<ColType>,
    left: Vec<Vec<Value>>,
    right: Vec<Vec<Value>>,
}

fn arb_fixture() -> impl Strategy<Value = Fixture> {
    // Every cell is drawn as an (integer, string) pair; the column's type
    // picks which half it keeps.
    let cell = || {
        (
            prop_oneof![
                4 => -2i64..3,
                1 => prop_oneof![Just(i64::MIN), Just(i64::MAX)],
            ],
            "[ab]{0,2}",
        )
    };
    let rows = || prop::collection::vec(prop::collection::vec(cell(), 4), 0..24);
    (prop::collection::vec(any::<bool>(), 1..5), rows(), rows()).prop_map(
        |(is_int, left, right)| {
            let shape = |rows: Vec<Vec<(i64, String)>>| {
                rows.into_iter()
                    .map(|cells| {
                        cells
                            .into_iter()
                            .zip(&is_int)
                            .map(|((i, s), &int)| if int { Value::Int(i) } else { Value::Str(s) })
                            .collect()
                    })
                    .collect()
            };
            Fixture {
                types: is_int
                    .iter()
                    .map(|&i| if i { ColType::Int } else { ColType::Str })
                    .collect(),
                left: shape(left),
                right: shape(right),
            }
        },
    )
}

/// Every string `"[ab]{0,3}"` matches, in reverse lexical order.
fn strings_backwards() -> Vec<Vec<Value>> {
    let mut all = vec![String::new()];
    for len in 1..=3 {
        let mut words = vec![String::new()];
        for _ in 0..len {
            words = words
                .iter()
                .flat_map(|w| [format!("{w}a"), format!("{w}b")])
                .collect();
        }
        all.extend(words);
    }
    all.sort_unstable_by(|a, b| b.cmp(a));
    all.into_iter().map(|s| vec![Value::Str(s)]).collect()
}

fn load(f: &Fixture, spill: SpillMode) -> Engine {
    let mut e = Engine::new();
    e.set_spill_mode(spill);
    // Reading the strings interns them: "bbb" first, "" last.
    e.execute("CREATE TABLE seen (s char)").unwrap();
    e.insert_rows("seen", strings_backwards()).unwrap();
    assert_eq!(e.execute("SELECT * FROM seen").unwrap().rows.len(), 15);
    let cols: Vec<String> = f
        .types
        .iter()
        .enumerate()
        .map(|(i, t)| format!("c{i} {t}"))
        .collect();
    for (name, rows) in [("l", &f.left), ("r", &f.right)] {
        e.execute(&format!("CREATE TABLE {name} ({})", cols.join(", ")))
            .unwrap();
        e.insert_rows(name, rows.clone()).unwrap();
    }
    e
}

/// First occurrence of every row of `rows` not in `exclude`, in order.
fn first_occurrences(rows: &[Vec<Value>], exclude: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = Vec::new();
    for row in rows {
        if !exclude.contains(row) && !out.contains(row) {
            out.push(row.clone());
        }
    }
    out
}

fn project(rows: &[Vec<Value>], cols: &[usize]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn row_set_operators_match_the_vector_reference(
        f in arb_fixture(),
        picks in prop::collection::vec(0usize..4, 1..3),
        // Range bounds: strings the engine has read and ("c…") strings it
        // has never seen; and integers.
        lo in "[abc]{0,2}",
        hi in "[abc]{0,3}",
        int_bound in -3i64..4,
    ) {
        let arity = f.types.len();
        // Columns to project / sort on, possibly repeated or reordered.
        let cols: Vec<usize> = picks.iter().map(|p| p % arity).collect();
        let col_list = cols.iter().map(|c| format!("c{c}")).collect::<Vec<_>>().join(", ");
        let both: Vec<Vec<Value>> = f.left.iter().chain(&f.right).cloned().collect();

        for spill in [SpillMode::Enabled, SpillMode::Forced] {
            let mut e = load(&f, spill);
            let mut run = |sql: &str| e.execute(sql).unwrap().rows;

            // Scan: insertion order, whole rows and projections of them.
            prop_assert_eq!(run("SELECT * FROM l"), f.left.clone());
            prop_assert_eq!(run(&format!("SELECT {col_list} FROM l")), project(&f.left, &cols));
            prop_assert_eq!(
                run("SELECT COUNT(*) FROM l"),
                vec![vec![Value::Int(f.left.len() as i64)]],
                "rows of no columns are still counted"
            );

            // Sort: stable, so ties keep scan order.
            let mut sorted = f.left.clone();
            sorted.sort_by(|a, b| {
                cols.iter().map(|&c| a[c].cmp(&b[c])).find(|o| o.is_ne()).unwrap_or(std::cmp::Ordering::Equal)
            });
            prop_assert_eq!(run(&format!("SELECT * FROM l ORDER BY {col_list}")), sorted, "{:?}", spill);

            // Range filters order strings as strings, whether or not the
            // engine has read the bound.
            let filtered = |keep: &dyn Fn(&Value) -> bool, c: usize| -> Vec<Vec<Value>> {
                f.left.iter().filter(|r| keep(&r[c])).cloned().collect()
            };
            let (lo_v, hi_v) = (Value::from(lo.as_str()), Value::from(hi.as_str()));
            for (c, ty) in f.types.iter().enumerate() {
                let (lit, v) = match ty {
                    ColType::Str => (format!("'{lo}'"), lo_v.clone()),
                    ColType::Int => (format!("{int_bound}"), Value::Int(int_bound)),
                };
                prop_assert_eq!(
                    run(&format!("SELECT * FROM l WHERE c{c} < {lit}")),
                    filtered(&|x| x < &v, c),
                    "{:?}: c{} < {}", spill, c, lit
                );
                prop_assert_eq!(
                    run(&format!("SELECT * FROM l WHERE c{c} >= {lit}")),
                    filtered(&|x| x >= &v, c),
                    "{:?}: c{} >= {}", spill, c, lit
                );
                if *ty == ColType::Str {
                    prop_assert_eq!(
                        run(&format!("SELECT * FROM l WHERE c{c} BETWEEN '{lo}' AND '{hi}'")),
                        filtered(&|x| &lo_v <= x && x <= &hi_v, c),
                        "{:?}: c{} BETWEEN {} AND {}", spill, c, lo, hi
                    );
                }
            }

            // DISTINCT / UNION / EXCEPT: first occurrences, in input order.
            prop_assert_eq!(
                run(&format!("SELECT DISTINCT {col_list} FROM l")),
                first_occurrences(&project(&f.left, &cols), &[]),
                "{:?}", spill
            );
            prop_assert_eq!(
                run("SELECT * FROM l UNION SELECT * FROM r"),
                first_occurrences(&both, &[]),
                "{:?}", spill
            );
            prop_assert_eq!(run("SELECT * FROM l UNION ALL SELECT * FROM r"), both.clone());
            prop_assert_eq!(
                run("SELECT * FROM l EXCEPT SELECT * FROM r"),
                first_occurrences(&f.left, &f.right),
                "{:?}", spill
            );

            // Hash join on one, two and three key columns (as many as the
            // schema has; three key columns box the key where one or two
            // sit inline), mixing integer and string columns: probe-major
            // (the larger side probes), matches in build order, left
            // columns before right whichever side built.
            for width in 1..=arity.min(3) {
                let keys: Vec<usize> = (0..width).map(|i| (cols[0] + i) % arity).collect();
                let joined = |probe_left: bool| -> Vec<Vec<Value>> {
                    let (probe, build) = if probe_left { (&f.left, &f.right) } else { (&f.right, &f.left) };
                    let mut out = Vec::new();
                    for p in probe {
                        for b in build.iter().filter(|b| keys.iter().all(|&k| b[k] == p[k])) {
                            let (l, r) = if probe_left { (p, b) } else { (b, p) };
                            out.push(l.iter().chain(r).cloned().collect());
                        }
                    }
                    out
                };
                let on = keys
                    .iter()
                    .map(|k| format!("x.c{k} = y.c{k}"))
                    .collect::<Vec<_>>()
                    .join(" AND ");
                let sql = format!("SELECT * FROM l x, r y WHERE {on}");
                let plan = run(&format!("EXPLAIN {sql}"));
                prop_assert!(
                    format!("{plan:?}").contains(&format!("HashJoin on {keys:?}={keys:?}")),
                    "{:?}: {:?}", keys, plan
                );
                let got = run(&sql);
                if f.left.len() == f.right.len() {
                    // A tie builds on the planner's left input, either table.
                    prop_assert!(
                        got == joined(true) || got == joined(false),
                        "{:?} on {:?}: {:?}", spill, keys, got
                    );
                } else {
                    prop_assert_eq!(got, joined(f.left.len() > f.right.len()), "{:?} on {:?}", spill, keys);
                }
            }
        }
    }
}
