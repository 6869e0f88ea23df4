//! What a `TEMP` table promises across transactions, forks and recovery.
//!
//! A temporary is session scratch: it never reaches a snapshot file and
//! never outlives its engine. Inside a transaction it still behaves like
//! any table — rollback undoes what the transaction did to it, commit
//! keeps it — a fork sees its own copy, and crash recovery puts it back
//! where the interrupted transaction found it (DESIGN §8).

use rdbms::{Engine, FaultInjector, Value};

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
