//! A `char` value inside the engine is the id of a string interned in the
//! symbol table of its engine lineage, and ids never reach a page, the WAL
//! or a snapshot. These tests hold the places where a table's index
//! directories are rebuilt or shared — sessions of one shared engine, a
//! snapshot reloaded into a fresh engine, crash recovery — to answering
//! literal probes with exactly the committed rows.

use rdbms::{Engine, FaultInjector, SharedEngine, Value};

fn row(key: &str, n: i64) -> Vec<Value> {
    vec![Value::from(key), Value::Int(n)]
}

/// An engine with `t (c0 char, c1 int)` and a hash index on `c0`.
fn indexed_engine() -> Engine {
    indexed(Engine::new())
}

fn indexed(mut e: Engine) -> Engine {
    e.execute("CREATE TABLE t (c0 char, c1 int)").unwrap();
    e.execute("CREATE INDEX t_c0 ON t (c0)").unwrap();
    e
}

/// The rows of `t` under key `key`, sorted.
fn probe(run: &mut impl FnMut(&str) -> Vec<Vec<Value>>, key: &str) -> Vec<Vec<Value>> {
    let mut rows = run(&format!("SELECT * FROM t WHERE c0 = '{key}'"));
    rows.sort();
    rows
}

fn plan(run: &mut impl FnMut(&str) -> Vec<Vec<Value>>, key: &str) -> String {
    run(&format!("EXPLAIN SELECT * FROM t WHERE c0 = '{key}'"))
        .iter()
        .flatten()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn two_sessions_file_new_symbols_one_fresh_session_finds_both() {
    let shared = SharedEngine::new(indexed_engine());
    let mut a = shared.session();
    let mut b = shared.session();
    // Each session's snapshot predates the other's commit, and neither
    // string was ever read by the lineage before.
    a.begin().unwrap();
    b.begin().unwrap();
    a.insert_rows("t", vec![row("from-a", 1), row("from-a", 2)])
        .unwrap();
    b.execute("INSERT INTO t VALUES ('from-b', 3)").unwrap();
    a.commit().unwrap();
    b.commit().unwrap();

    let mut c = shared.session();
    let mut run = |sql: &str| c.execute(sql).unwrap().rows;
    assert_eq!(
        probe(&mut run, "from-a"),
        vec![row("from-a", 1), row("from-a", 2)]
    );
    assert_eq!(probe(&mut run, "from-b"), vec![row("from-b", 3)]);
    assert!(probe(&mut run, "from-c").is_empty());
    let explained = plan(&mut run, "from-b");
    assert!(explained.contains("IndexLookup"), "{explained}");
}

#[test]
fn a_reloaded_snapshot_answers_literal_probes_with_the_committed_rows() {
    let mut e = indexed_engine();
    e.insert_rows("t", vec![row("b", 1), row("a", 2), row("b", 3)])
        .unwrap();
    e.execute("INSERT INTO t VALUES ('c', 4)").unwrap();
    let bytes = e.snapshot_bytes().unwrap();

    // A fresh engine: a symbol table of its own, filled as it reloads.
    let mut loaded = Engine::from_snapshot_bytes(&bytes).unwrap();
    let mut run = |sql: &str| loaded.execute(sql).unwrap().rows;
    assert_eq!(probe(&mut run, "b"), vec![row("b", 1), row("b", 3)]);
    assert_eq!(probe(&mut run, "a"), vec![row("a", 2)]);
    assert_eq!(probe(&mut run, "c"), vec![row("c", 4)]);
    assert!(probe(&mut run, "d").is_empty());
    let explained = plan(&mut run, "a");
    assert!(explained.contains("IndexLookup"), "{explained}");
    assert_eq!(
        run("SELECT * FROM t ORDER BY c0, c1"),
        vec![row("a", 2), row("b", 1), row("b", 3), row("c", 4)]
    );
}

#[test]
fn recovery_after_a_fault_inside_insert_rows_keeps_only_committed_keys() {
    let batch: Vec<Vec<Value>> = (0..2_000).map(|i| row(&format!("new{i}"), i)).collect();
    let (mut crashes, mut inside_insert) = (0, 0);
    for k in 0..64 {
        // A pool of four frames: the batch overflows it, so pages are
        // written (and can fail) while `insert_rows` is still running.
        let mut e = indexed(Engine::with_pool_size(4));
        e.enable_wal();
        e.begin().unwrap();
        e.insert_rows("t", vec![row("kept", 1), row("kept", 2)])
            .unwrap();
        e.commit().unwrap();

        e.set_fault_injector(FaultInjector::new().fail_after_writes(k));
        e.begin().unwrap();
        let outcome = match e.insert_rows("t", batch.clone()) {
            Ok(_) => e.commit(),
            Err(err) => {
                inside_insert += 1;
                Err(err)
            }
        };
        if outcome.is_ok() {
            // Past the last write point of the transaction.
            assert!(crashes > 0, "no write point of the insert was reached");
            break;
        }
        assert!(
            e.crashed(),
            "failed without a crash at write {k}: {outcome:?}"
        );
        crashes += 1;
        e.recover().unwrap();
        e.clear_fault_injector();

        let mut run = |sql: &str| e.execute(sql).unwrap().rows;
        assert_eq!(
            probe(&mut run, "kept"),
            vec![row("kept", 1), row("kept", 2)],
            "crash at write {k}"
        );
        for key in ["new0", "new999", "new1999"] {
            assert!(probe(&mut run, key).is_empty(), "crash at write {k}: {key}");
        }
        assert_eq!(run("SELECT COUNT(*) FROM t"), vec![vec![Value::Int(2)]]);
        let explained = plan(&mut run, "kept");
        assert!(explained.contains("IndexLookup"), "{explained}");
    }
    assert!(
        inside_insert > 0,
        "{crashes} crash(es), none inside insert_rows"
    );
}
