//! What a `TEMP` table promises across transactions, forks and recovery,
//! and that its indexes answer what a scan of its rows would.
//!
//! A temporary is session scratch: it never reaches a snapshot file and
//! never outlives its engine. Inside a transaction it still behaves like
//! any table — rollback undoes what the transaction did to it, commit
//! keeps it — a fork sees its own copy, and crash recovery puts it back
//! where the interrupted transaction found it (DESIGN §8).

use rdbms::{Engine, FaultInjector, ResultSet, Value};
use std::collections::BTreeSet;

fn rows(e: &mut Engine, table: &str) -> Vec<i64> {
    e.execute(&format!("SELECT x FROM {table} ORDER BY x"))
        .unwrap()
        .rows
        .into_iter()
        .map(|r| r[0].as_int().unwrap())
        .collect()
}

/// A WAL-enabled engine holding temp table `t` with rows 1, 2, 3, an
/// index on it, and a base table `b` with one row.
fn engine() -> Engine {
    let mut e = Engine::new();
    e.enable_wal();
    e.execute_script(
        "CREATE TABLE b (x integer);
         INSERT INTO b VALUES (1);
         CREATE TEMP TABLE t (x integer);
         INSERT INTO t VALUES (1), (2), (3);
         CREATE INDEX t_x ON t (x);",
    )
    .unwrap();
    e
}

/// The statements every transaction below runs on `t`: an insert, a
/// delete, and (on `u`, a second temporary) a truncate.
fn write_temps(e: &mut Engine) {
    e.execute_script(
        "INSERT INTO t VALUES (4), (5);
         DELETE FROM t WHERE x = 2;
         TRUNCATE TABLE u;",
    )
    .unwrap();
}

fn with_second_temp(e: &mut Engine) {
    e.execute_script(
        "CREATE TEMP TABLE u (x integer);
         INSERT INTO u VALUES (7), (8);",
    )
    .unwrap();
}

#[test]
fn rollback_undoes_writes_to_temporaries() {
    let mut e = engine();
    with_second_temp(&mut e);
    e.begin().unwrap();
    write_temps(&mut e);
    assert_eq!(rows(&mut e, "t"), [1, 3, 4, 5]);
    assert_eq!(rows(&mut e, "u"), Vec::<i64>::new());
    e.rollback().unwrap();
    assert_eq!(rows(&mut e, "t"), [1, 2, 3]);
    assert_eq!(rows(&mut e, "u"), [7, 8]);
    assert_eq!(e.table_len("t").unwrap(), 3);
    // The index came back with the rows it filed.
    let hit = e.execute("SELECT x FROM t WHERE x = 2").unwrap();
    assert_eq!(hit.rows, vec![vec![Value::Int(2)]]);
    let gone = e.execute("SELECT x FROM t WHERE x = 4").unwrap();
    assert!(gone.rows.is_empty());
}

#[test]
fn rollback_removes_a_temporary_created_in_the_transaction() {
    let mut e = engine();
    e.begin().unwrap();
    with_second_temp(&mut e);
    e.execute("DROP TABLE t").unwrap();
    e.rollback().unwrap();
    assert!(!e.has_table("u"));
    assert_eq!(rows(&mut e, "t"), [1, 2, 3]);
}

/// What `begin` keeps is the whole table, its index definitions included.
#[test]
fn rollback_undoes_an_index_created_on_a_temporary() {
    let mut e = engine();
    with_second_temp(&mut e);
    e.begin().unwrap();
    e.execute("CREATE INDEX u_x ON u (x)").unwrap();
    e.rollback().unwrap();
    assert!(e.table_info("u").unwrap().2.is_empty());
    assert_eq!(rows(&mut e, "u"), [7, 8]);
    // The name is free again.
    e.execute("CREATE INDEX u_x ON u (x)").unwrap();
    let hit = e.execute("SELECT x FROM u WHERE x = 8").unwrap();
    assert_eq!(hit.rows, vec![vec![Value::Int(8)]]);
}

#[test]
fn commit_keeps_writes_to_temporaries() {
    let mut e = engine();
    with_second_temp(&mut e);
    e.begin().unwrap();
    write_temps(&mut e);
    e.commit().unwrap();
    assert_eq!(rows(&mut e, "t"), [1, 3, 4, 5]);
    assert_eq!(rows(&mut e, "u"), Vec::<i64>::new());
    let hit = e.execute("SELECT x FROM t WHERE x = 4").unwrap();
    assert_eq!(hit.rows, vec![vec![Value::Int(4)]]);
}

#[test]
fn a_fork_and_its_parent_do_not_see_each_others_temp_writes() {
    let mut parent = engine();
    let mut child = parent.fork().unwrap();
    parent.execute("INSERT INTO t VALUES (10)").unwrap();
    child.execute("DELETE FROM t WHERE x = 1").unwrap();
    child.execute("INSERT INTO t VALUES (20)").unwrap();
    assert_eq!(rows(&mut parent, "t"), [1, 2, 3, 10]);
    assert_eq!(rows(&mut child, "t"), [2, 3, 20]);
    child.execute("TRUNCATE TABLE t").unwrap();
    assert_eq!(rows(&mut parent, "t"), [1, 2, 3, 10]);
    parent.execute("DROP TABLE t").unwrap();
    assert!(child.has_table("t"));
    assert_eq!(child.table_len("t").unwrap(), 0);
}

/// Recovery keeps temporaries: it undoes what the interrupted transaction
/// did to them, as rollback would, and keeps everything before it.
#[test]
fn recovery_returns_temporaries_to_where_the_transaction_found_them() {
    let mut e = engine();
    with_second_temp(&mut e);
    e.begin().unwrap();
    write_temps(&mut e);
    e.execute("INSERT INTO b VALUES (2)").unwrap();
    e.set_fault_injector(FaultInjector::new().fail_after_writes(0));
    assert!(e.commit().is_err());
    assert!(e.crashed());
    e.recover().unwrap();
    e.clear_fault_injector();
    assert_eq!(rows(&mut e, "b"), [1]);
    assert_eq!(rows(&mut e, "t"), [1, 2, 3]);
    assert_eq!(rows(&mut e, "u"), [7, 8]);
    // Still a working table.
    e.execute("INSERT INTO t VALUES (9)").unwrap();
    assert_eq!(rows(&mut e, "t"), [1, 2, 3, 9]);
}

/// Every row of `table`, in storage order.
fn scan(e: &mut Engine, table: &str) -> Vec<Vec<Value>> {
    e.execute(&format!("SELECT * FROM {table}")).unwrap().rows
}

/// `sql` with `{T}` naming `table`, run on `e`.
fn run_on(e: &mut Engine, sql: &str, table: &str) -> ResultSet {
    e.execute(&sql.replace("{T}", table)).unwrap()
}

fn plan_of(e: &mut Engine, sql: &str) -> String {
    e.execute(&format!("EXPLAIN {}", sql.replace("{T}", "t")))
        .unwrap()
        .rows
        .iter()
        .flatten()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// `sql` run against `t` (indexed) and `r` (the same rows, unindexed):
/// both must answer the same rows in the same order. Returns `t`'s plan.
fn same_on_both(e: &mut Engine, sql: &str) -> String {
    let indexed = run_on(e, sql, "t").rows;
    let plain = run_on(e, sql, "r").rows;
    assert_eq!(indexed, plain, "{sql}");
    plan_of(e, sql)
}

/// Apply one write, which must touch some rows, to `t` and to `r` alike.
fn write_both(e: &mut Engine, sql: &str) {
    let a = run_on(e, sql, "t").affected;
    let b = run_on(e, sql, "r").affected;
    assert_eq!(a, b, "{sql}");
    assert!(a > 0, "{sql}");
}

/// The strings `src` holds, in the order the engine first meets them:
/// reverse lexical, so symbol ids and string order disagree.
fn names() -> Vec<String> {
    (0..40).rev().map(|i| format!("w{i:02}")).collect()
}

/// Temp table `t (k, s)` with a non-unique index on `s`; `r` the same
/// shape, unindexed; `src`, 3 000 rows to load both from; `probe`, a few
/// keys, some filed and some not. The full-key index on `t (k, s)` comes
/// later, so that it is backfilled.
fn indexed_pair() -> Engine {
    let mut e = Engine::new();
    e.enable_wal();
    e.execute("CREATE TABLE src (k integer, s char)").unwrap();
    let names = names();
    // Intern the names in `names()` order before any row uses them.
    let first: Vec<Vec<Value>> = names
        .iter()
        .map(|n| vec![Value::Int(-1), Value::from(n.as_str())])
        .collect();
    e.insert_rows("src", first).unwrap();
    e.execute("DELETE FROM src").unwrap();
    let rows: Vec<Vec<Value>> = (0..3_000i64)
        .map(|i| {
            vec![
                Value::Int(i * 7_919 % 211),
                Value::from(names[(i * 31 % 40) as usize].as_str()),
            ]
        })
        .collect();
    e.insert_rows("src", rows).unwrap();
    e.execute_script(
        "CREATE TABLE probe (k integer, s char);
         INSERT INTO probe VALUES (3, 'w05'), (150, 'w31'), (3, 'w06'),
           (7, 'zz'), (210, 'w00'), (42, 'w39'), (3, 'w05');
         CREATE TEMP TABLE t (k integer, s char);
         CREATE INDEX t_s ON t (s);
         CREATE TEMP TABLE r (k integer, s char);",
    )
    .unwrap();
    e
}

/// Every read the indexes serve, on `t` and on `r`, plus the directories'
/// counts, which must be exact: the planner's distinct counts read them
/// (`cost::col_distinct`).
fn check(e: &mut Engine) {
    for s in ["w05", "w00", "w39", "zz", "never-interned"] {
        let plan = same_on_both(e, &format!("SELECT * FROM {{T}} WHERE s = '{s}'"));
        assert!(plan.contains("IndexLookup t"), "{plan}");
    }
    let stored = scan(e, "r");
    // A multi-key lookup answers key by key, each key's rows in filing
    // order, which is the unindexed copy's storage order.
    let list = ["w31", "w06", "w05"];
    let in_list = "SELECT * FROM t WHERE s IN ('w31', 'w06', 'w05')";
    let expect: Vec<Vec<Value>> = list
        .iter()
        .flat_map(|s| stored.iter().filter(move |x| x[1] == Value::from(*s)))
        .cloned()
        .collect();
    assert_eq!(e.execute(in_list).unwrap().rows, expect);
    for (k, s) in [(3, "w05"), (150, "w31"), (7, "zz"), (3, "w39")] {
        same_on_both(
            e,
            &format!("SELECT * FROM {{T}} WHERE k = {k} AND s = '{s}'"),
        );
    }
    // Anti-join: the probe rows with no row of the table under their key.
    let plan = same_on_both(
        e,
        "SELECT * FROM probe p WHERE NOT EXISTS \
         (SELECT * FROM {T} x WHERE x.k = p.k AND x.s = p.s)",
    );
    let full_key = e.catalog().table("t").unwrap().indexes.len() == 2;
    if full_key {
        assert!(plan.contains("probe index"), "{plan}");
    }
    // Index nested-loop join: per probe row, the matches in filing order,
    // which is the unindexed copy's storage order.
    let join = "SELECT p.k, x.k, x.s FROM probe p, {T} x WHERE p.s = x.s";
    if !stored.is_empty() {
        let plan = plan_of(e, join);
        assert!(plan.contains("IndexNlJoin probe t"), "{plan}");
    }
    let expect: Vec<Vec<Value>> = scan(e, "probe")
        .iter()
        .flat_map(|p| {
            stored
                .iter()
                .filter(move |x| x[1] == p[1])
                .map(move |x| vec![p[0].clone(), x[0].clone(), x[1].clone()])
        })
        .collect();
    assert_eq!(run_on(e, join, "t").rows, expect);
    let mut hashed = run_on(e, join, "r").rows;
    let mut sorted = expect;
    hashed.sort();
    sorted.sort();
    assert_eq!(hashed, sorted);
    // Counts.
    let singles: BTreeSet<Value> = stored.iter().map(|x| x[1].clone()).collect();
    let pairs: BTreeSet<&Vec<Value>> = stored.iter().collect();
    let t = e.catalog().table("t").unwrap();
    for ix in &t.indexes {
        let distinct = if ix.key_cols() == [1] {
            singles.len()
        } else {
            pairs.len()
        };
        assert_eq!(ix.distinct_keys(), distinct, "{}", ix.name());
        assert_eq!(ix.entry_count(), stored.len(), "{}", ix.name());
    }
}

/// Relation indexes answer every lookup, index nested-loop join and
/// anti-join with the rows, and the order, that the same statement gets
/// from an unindexed copy — across directory growth, `CREATE INDEX`
/// backfill, `DELETE` (every row re-filed), `TRUNCATE`, rollback and a
/// fork — and keep their distinct and entry counts exact.
#[test]
fn relation_indexes_answer_as_an_unindexed_copy_does() {
    let mut e = indexed_pair();
    check(&mut e);
    write_both(&mut e, "INSERT INTO {T} SELECT * FROM src WHERE k < 20");
    check(&mut e);
    e.execute("CREATE INDEX t_ks ON t (k, s)").unwrap();
    check(&mut e);
    // Overlapping batches file duplicate keys, in both directories.
    write_both(
        &mut e,
        "INSERT INTO {T} SELECT * FROM src WHERE k >= 10 AND k < 120",
    );
    write_both(&mut e, "INSERT INTO {T} SELECT * FROM src");
    check(&mut e);
    // Deletes through the index probe, by scan, and by subquery.
    write_both(&mut e, "DELETE FROM {T} WHERE s = 'w07'");
    write_both(&mut e, "DELETE FROM {T} WHERE k = 15");
    write_both(
        &mut e,
        "DELETE FROM {T} WHERE k > 200 AND NOT EXISTS \
         (SELECT * FROM probe p WHERE p.k = {T}.k)",
    );
    check(&mut e);

    let before = scan(&mut e, "t");
    e.begin().unwrap();
    write_both(&mut e, "INSERT INTO {T} SELECT * FROM src WHERE k < 30");
    write_both(&mut e, "DELETE FROM {T} WHERE s = 'w11'");
    check(&mut e);
    e.rollback().unwrap();
    assert_eq!(scan(&mut e, "t"), before);
    check(&mut e);

    let mut child = e.fork().unwrap();
    write_both(&mut child, "DELETE FROM {T} WHERE s = 'w05'");
    write_both(&mut child, "INSERT INTO {T} SELECT * FROM src WHERE k = 3");
    check(&mut child);
    assert_eq!(scan(&mut e, "t"), before);
    check(&mut e);

    write_both(&mut e, "TRUNCATE TABLE {T}");
    check(&mut e);
    write_both(&mut e, "INSERT INTO {T} SELECT * FROM src WHERE k > 100");
    write_both(&mut e, "INSERT INTO {T} SELECT * FROM src WHERE k > 190");
    check(&mut e);
    check(&mut child);
}
