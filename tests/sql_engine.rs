//! Integration tests of the DBMS layer through its public SQL interface,
//! including property tests comparing query results against an in-memory
//! reference evaluation.

use proptest::prelude::*;
use rdbms::{DbError, Engine, Value};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use workload::graphs;

// ---------------------------------------------------------------------
// Scenario tests
// ---------------------------------------------------------------------

#[test]
fn long_in_list_probes_an_index_without_recursing() {
    // The lookup is one plan node however long the list, so planning,
    // running and dropping it fit the 2 MiB stack of a test thread.
    let mut e = Engine::new();
    e.execute("CREATE TABLE t (a char, b integer)").unwrap();
    let rows: Vec<Vec<Value>> = (0..6000)
        .map(|i| vec![Value::from(format!("p{i}")), Value::Int(i)])
        .collect();
    e.insert_rows("t", rows).unwrap();
    e.execute("CREATE INDEX t_a ON t (a)").unwrap();
    // 5 000 literals, descending, with one repeated and one absent.
    let mut list: Vec<String> = (0..4998).rev().map(|i| format!("'p{i}'")).collect();
    list.push("'p4997'".into());
    list.push("'absent'".into());
    let before = e.stats().exec;
    let rs = e
        .execute(&format!("SELECT b FROM t WHERE a IN ({})", list.join(", ")))
        .unwrap();
    let after = e.stats().exec;
    let expected: Vec<Vec<Value>> = (0..4998).rev().map(|i| vec![Value::Int(i)]).collect();
    assert_eq!(rs.rows, expected, "list order, first occurrence wins");
    assert_eq!(after.tuples_scanned, before.tuples_scanned, "no scan");
    assert_eq!(
        after.index_probes - before.index_probes,
        4999,
        "one probe per distinct list value"
    );
}

#[test]
fn except_needs_no_distinct_beneath_it() {
    // EXCEPT keeps first occurrences itself, so the planner drops a
    // DISTINCT sitting directly on its left input — the shape of every
    // `INSERT INTO d_p SELECT DISTINCT … EXCEPT SELECT * FROM d_p` the LFP
    // runtime issues. A DISTINCT on the right input is left alone.
    let mut e = Engine::new();
    e.execute("CREATE TABLE t (a integer, b integer)").unwrap();
    e.execute("CREATE TABLE d (a integer, b integer)").unwrap();
    let explain = |e: &mut Engine, sql: &str| -> Vec<String> {
        let rows = e.execute(&format!("EXPLAIN {sql}")).unwrap().rows;
        rows.iter().map(|r| r[0].to_string()).collect()
    };
    assert_eq!(
        explain(
            &mut e,
            "SELECT DISTINCT x.a, y.b FROM t x, t y WHERE x.b = y.a EXCEPT SELECT * FROM d"
        ),
        [
            "Except",
            "  Project [2 col(s)]",
            "    HashJoin on [1]=[0]",
            "      SeqScan t",
            "      SeqScan t",
            "  Project [2 col(s)]",
            "    SeqScan d",
        ]
    );
    assert_eq!(
        explain(
            &mut e,
            "SELECT a, b FROM d EXCEPT SELECT DISTINCT a, b FROM t"
        ),
        [
            "Except",
            "  Project [2 col(s)]",
            "    SeqScan d",
            "  Distinct",
            "    Project [2 col(s)]",
            "      SeqScan t",
        ]
    );
    // One operator fewer materializes its output, so the statement's
    // row-budget charge falls by what DISTINCT used to emit: scan 3 +
    // project 3 + EXCEPT 2 (the right side is empty) = 8, not 10.
    e.execute("INSERT INTO t VALUES (1, 1), (1, 1), (2, 2)")
        .unwrap();
    let sql = "SELECT DISTINCT a, b FROM t EXCEPT SELECT * FROM d";
    e.set_row_budget(Some(7));
    assert!(matches!(e.execute(sql), Err(DbError::Budget(_))));
    e.set_row_budget(Some(8));
    assert_eq!(e.execute(sql).unwrap().rows.len(), 2);
}

#[test]
fn bulk_load_survives_buffer_pressure() {
    // A pool of 4 frames (16 KiB) against ~100 KiB of data forces steady
    // eviction; results must be unaffected.
    let mut e = Engine::with_pool_size(4);
    e.execute("CREATE TABLE big (id integer, payload char)")
        .unwrap();
    let rows: Vec<Vec<Value>> = (0..2000)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::from(format!("row-{i:04}-{}", "x".repeat(30))),
            ]
        })
        .collect();
    e.insert_rows("big", rows).unwrap();
    assert_eq!(e.table_len("big").unwrap(), 2000);
    let rs = e
        .execute("SELECT COUNT(*) FROM big WHERE id >= 1000")
        .unwrap();
    assert_eq!(rs.scalar_int(), Some(1000));
    let stats = e.stats();
    assert!(
        stats.buffer.evictions > 0,
        "pool pressure actually occurred"
    );
    assert!(
        stats.disk.pages_written > 0,
        "dirty pages were written back"
    );
}

#[test]
fn join_pipeline_with_indexes_and_temp_tables() {
    let mut e = Engine::new();
    e.execute_script(
        "CREATE TABLE emp (name char, dept integer);\
         CREATE TABLE dept (id integer, title char);\
         CREATE INDEX dept_id ON dept (id);\
         INSERT INTO emp VALUES ('ann', 1), ('bob', 2), ('carol', 1);\
         INSERT INTO dept VALUES (1, 'eng'), (2, 'sales');",
    )
    .unwrap();
    let rs = e
        .execute(
            "SELECT e.name, d.title FROM emp e, dept d \
             WHERE e.dept = d.id AND d.title = 'eng' ORDER BY name",
        )
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::from("ann"), Value::from("eng")],
            vec![Value::from("carol"), Value::from("eng")],
        ]
    );

    // Materialize through a temp table, then set-subtract.
    e.execute("CREATE TEMP TABLE engineers (name char)")
        .unwrap();
    e.execute(
        "INSERT INTO engineers SELECT e.name FROM emp e, dept d \
         WHERE e.dept = d.id AND d.title = 'eng'",
    )
    .unwrap();
    let rs = e
        .execute("SELECT name FROM emp EXCEPT SELECT name FROM engineers")
        .unwrap();
    assert_eq!(rs.rows, vec![vec![Value::from("bob")]]);
    assert_eq!(e.drop_temp_tables(), 1);
}

#[test]
fn error_paths_do_not_corrupt_state() {
    let mut e = Engine::new();
    e.execute("CREATE TABLE t (a integer)").unwrap();
    e.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    // A failing statement...
    assert!(matches!(
        e.execute("INSERT INTO t VALUES ('wrong type')"),
        Err(DbError::TypeMismatch(_))
    ));
    assert!(e.execute("SELECT nope FROM t").is_err());
    assert!(e.execute("CREATE TABLE t (b integer)").is_err());
    // ...leaves the data intact and the engine usable.
    let rs = e.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rs.scalar_int(), Some(2));
}

#[test]
fn self_join_chain_of_four() {
    // Four-way self-join: paths of length 3 in a chain.
    let mut e = Engine::new();
    e.execute("CREATE TABLE g (s integer, t integer)").unwrap();
    e.insert_rows(
        "g",
        (0..6)
            .map(|i| vec![Value::Int(i), Value::Int(i + 1)])
            .collect(),
    )
    .unwrap();
    let rs = e
        .execute(
            "SELECT a.s, c.t FROM g a, g b, g c \
             WHERE a.t = b.s AND b.t = c.s ORDER BY s",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 4);
    assert_eq!(rs.rows[0], vec![Value::Int(0), Value::Int(3)]);
}

#[test]
fn index_maintenance_under_churn() {
    let mut e = Engine::new();
    e.execute("CREATE TABLE t (k integer, v char)").unwrap();
    e.execute("CREATE INDEX t_k ON t (k)").unwrap();
    for round in 0..5 {
        e.insert_rows(
            "t",
            (0..100)
                .map(|i| vec![Value::Int(i), Value::from(format!("r{round}"))])
                .collect(),
        )
        .unwrap();
        e.execute(&format!("DELETE FROM t WHERE v = 'r{round}' AND k >= 50"))
            .unwrap();
    }
    // 5 rounds x 50 surviving rows.
    assert_eq!(e.table_len("t").unwrap(), 250);
    let rs = e.execute("SELECT COUNT(*) FROM t WHERE k = 10").unwrap();
    assert_eq!(rs.scalar_int(), Some(5));
    let rs = e.execute("SELECT COUNT(*) FROM t WHERE k = 75").unwrap();
    assert_eq!(rs.scalar_int(), Some(0));
}

#[test]
fn transitive_closure_operator_matches_bfs_on_all_graph_families() {
    // Chains, a tree, a DAG and cyclic graphs: the statement's rows and its
    // affected count equal a BFS closure from every source node.
    for edges in [
        graphs::lists(2, 6),
        graphs::full_binary_tree(6),
        graphs::layered_dag(4, 5, 2, 3),
        graphs::cyclic_digraph(2, 4, 3, 8),
    ] {
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (a, b) in &edges {
            adj.entry(a).or_default().push(b);
        }
        let mut expected = Vec::new();
        for &start in adj.keys() {
            let mut seen = BTreeSet::new();
            let mut queue = VecDeque::from([start]);
            while let Some(n) = queue.pop_front() {
                for &next in adj.get(n).into_iter().flatten() {
                    if seen.insert(next) {
                        queue.push_back(next);
                    }
                }
            }
            expected.extend(
                seen.into_iter()
                    .map(|t| vec![Value::from(start), Value::from(t)]),
            );
        }
        let mut e = Engine::new();
        e.execute("CREATE TABLE g (s char, t char)").unwrap();
        e.execute("CREATE TABLE tc (s char, t char)").unwrap();
        e.insert_rows("g", workload::edges_to_rows(&edges)).unwrap();
        let rs = e.execute("INSERT INTO tc TRANSITIVE CLOSURE OF g").unwrap();
        assert_eq!(rs.affected, expected.len() as u64);
        let rs = e.execute("SELECT s, t FROM tc ORDER BY s, t").unwrap();
        assert_eq!(rs.rows, expected);
    }
}

// ---------------------------------------------------------------------
// Property tests against a reference evaluator
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Row {
    a: i64,
    b: i64,
    s: String,
}

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (0i64..20, 0i64..20, "[a-c]{1,2}").prop_map(|(a, b, s)| Row { a, b, s }),
        0..40,
    )
}

fn load(rows: &[Row]) -> Engine {
    let mut e = Engine::new();
    e.execute("CREATE TABLE t (a integer, b integer, s char)")
        .unwrap();
    e.insert_rows(
        "t",
        rows.iter()
            .map(|r| vec![Value::Int(r.a), Value::Int(r.b), Value::from(r.s.as_str())])
            .collect(),
    )
    .unwrap();
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conjunctive selection matches the reference filter, with and
    /// without an index on the equality column.
    #[test]
    fn selection_matches_reference(rows in arb_rows(), k in 0i64..20, lo in 0i64..20) {
        let expected = rows
            .iter()
            .filter(|r| r.a == k && r.b >= lo)
            .count() as i64;
        for indexed in [false, true] {
            let mut e = load(&rows);
            if indexed {
                e.execute("CREATE INDEX t_a ON t (a)").unwrap();
            }
            let rs = e
                .execute(&format!("SELECT COUNT(*) FROM t WHERE a = {k} AND b >= {lo}"))
                .unwrap();
            prop_assert_eq!(rs.scalar_int(), Some(expected), "indexed={}", indexed);
        }
    }

    /// Equi-join row counts match the reference nested loop.
    #[test]
    fn join_matches_reference(rows in arb_rows()) {
        let expected = rows
            .iter()
            .flat_map(|x| rows.iter().map(move |y| (x, y)))
            .filter(|(x, y)| x.b == y.a)
            .count();
        let mut e = load(&rows);
        let rs = e
            .execute("SELECT x.a, y.b FROM t x, t y WHERE x.b = y.a")
            .unwrap();
        prop_assert_eq!(rs.rows.len(), expected);
    }

    /// DISTINCT agrees with a reference set; ORDER BY yields sorted rows.
    #[test]
    fn distinct_and_order_match_reference(rows in arb_rows()) {
        let expected: std::collections::BTreeSet<i64> =
            rows.iter().map(|r| r.a).collect();
        let mut e = load(&rows);
        let rs = e.execute("SELECT DISTINCT a FROM t ORDER BY a").unwrap();
        let got: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        prop_assert_eq!(got.clone(), expected.into_iter().collect::<Vec<_>>());
        let mut sorted = got.clone();
        sorted.sort();
        prop_assert_eq!(got, sorted);
    }

    /// UNION / EXCEPT behave as set operations.
    #[test]
    fn set_operations_match_reference(rows in arb_rows(), pivot in 0i64..20) {
        use std::collections::BTreeSet;
        let low: BTreeSet<i64> = rows.iter().filter(|r| r.a < pivot).map(|r| r.a).collect();
        let high: BTreeSet<i64> = rows.iter().filter(|r| r.a >= pivot).map(|r| r.a).collect();
        let mut e = load(&rows);
        let rs = e
            .execute(&format!(
                "SELECT a FROM t WHERE a < {pivot} UNION SELECT a FROM t WHERE a >= {pivot}"
            ))
            .unwrap();
        prop_assert_eq!(rs.rows.len(), low.union(&high).count());
        let rs = e
            .execute(&format!(
                "SELECT a FROM t EXCEPT SELECT a FROM t WHERE a >= {pivot}"
            ))
            .unwrap();
        prop_assert_eq!(rs.rows.len(), low.difference(&high).count());
    }

    /// `SELECT DISTINCT … EXCEPT …` runs without a `Distinct` operator
    /// (see `except_needs_no_distinct_beneath_it`) and still returns what
    /// it always did: each left value not on the right, once, where it
    /// first turned up in the scan.
    #[test]
    fn distinct_under_except_keeps_first_occurrences_in_order(
        rows in arb_rows(),
        pivot in 0i64..20,
        forced in any::<bool>(),
    ) {
        let mut expected: Vec<(i64, String)> = Vec::new();
        for r in rows.iter().filter(|r| r.b < pivot) {
            let banned = rows.iter().any(|x| x.b >= pivot && x.a == r.a && x.s == r.s);
            if !banned && !expected.contains(&(r.a, r.s.clone())) {
                expected.push((r.a, r.s.clone()));
            }
        }
        let mut e = load(&rows);
        if forced {
            e.set_spill_mode(rdbms::SpillMode::Forced);
        }
        let rs = e
            .execute(&format!(
                "SELECT DISTINCT a, s FROM t WHERE b < {pivot} \
                 EXCEPT SELECT a, s FROM t WHERE b >= {pivot}"
            ))
            .unwrap();
        let got: Vec<(i64, String)> = rs
            .rows
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_str().unwrap().to_string()))
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// DELETE removes exactly the matching rows.
    #[test]
    fn delete_matches_reference(rows in arb_rows(), k in 0i64..20) {
        let expected_remaining =
            rows.iter().filter(|r| r.a != k).count() as u64;
        let mut e = load(&rows);
        let rs = e.execute(&format!("DELETE FROM t WHERE a = {k}")).unwrap();
        prop_assert_eq!(rs.affected as usize, rows.len() - expected_remaining as usize);
        prop_assert_eq!(e.table_len("t").unwrap(), expected_remaining);
    }
}
