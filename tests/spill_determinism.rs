//! Memory-bounded execution must be invisible in the results: Grace
//! hash joins, external merge-sorts, and spill-partitioned dedup must
//! produce byte-identical output (content *and* order) to the in-memory
//! operators, across randomized memory budgets and batch sizes. A disk
//! fault during a spill write must leave the engine recoverable with no
//! answer corruption.

use proptest::prelude::*;
use rdbms::{Engine, FaultInjector, SpillMode, Value};

/// The operator mix under test: hash join, external sort (ORDER BY),
/// dedup (DISTINCT), and the EXCEPT anti-set — every executor path with
/// a spill variant.
const QUERIES: &[&str] = &[
    "SELECT a.c0, b.c1 FROM edge a, edge b WHERE a.c1 = b.c0",
    "SELECT * FROM edge ORDER BY c1, c0",
    "SELECT DISTINCT c1 FROM edge",
    "SELECT c0 FROM edge EXCEPT SELECT c1 FROM edge",
];

fn engine_with(edges: &[(i64, i64)]) -> Engine {
    let mut db = Engine::new();
    db.execute("CREATE TABLE edge (c0 int, c1 int)").unwrap();
    let rows: Vec<Vec<Value>> = edges
        .iter()
        .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
        .collect();
    db.insert_rows("edge", rows).unwrap();
    db
}

fn arb_edges() -> impl Strategy<Value = Vec<(i64, i64)>> {
    // Small key domain so joins produce real multi-match groups and
    // DISTINCT/EXCEPT see genuine duplicates.
    prop::collection::vec((0i64..40, 0i64..40), 20..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Forced spilling (every join/sort/dedup goes through the disk
    /// paths) returns exactly what the in-memory engine returns, at any
    /// batch size.
    #[test]
    fn forced_spill_is_byte_identical(
        edges in arb_edges(),
        batch in 1usize..300,
    ) {
        let mut plain = engine_with(&edges);
        let mut spilly = engine_with(&edges);
        spilly.set_spill_mode(SpillMode::Forced);
        spilly.set_batch_rows(batch);
        for q in QUERIES {
            let expect = plain.execute(q).unwrap().rows;
            let got = spilly.execute(q).unwrap().rows;
            prop_assert_eq!(&got, &expect, "query {} diverged under forced spill", q);
        }
        // The forced engine really exercised the spill machinery.
        let s = spilly.stats().exec;
        prop_assert!(
            s.spill_partitions > 0 && s.sort_runs > 0,
            "forced mode must spill (partitions={}, sort_runs={})",
            s.spill_partitions,
            s.sort_runs
        );
    }

    /// Under an arbitrary small memory budget with spilling enabled, no
    /// statement ever fails with a budget breach — operators spill
    /// instead — and answers still match the unbounded engine.
    #[test]
    fn random_budgets_spill_instead_of_failing(
        edges in arb_edges(),
        budget in 512u64..16_384,
        batch in 1usize..300,
    ) {
        let mut plain = engine_with(&edges);
        let mut bounded = engine_with(&edges);
        bounded.set_memory_budget(Some(budget));
        bounded.set_batch_rows(batch);
        for q in QUERIES {
            let expect = plain.execute(q).unwrap().rows;
            let got = bounded.execute(q).unwrap().rows;
            prop_assert_eq!(&got, &expect, "query {} diverged under budget {}", q, budget);
        }
    }

    /// With spilling disabled, the PR-5 contract still holds: a budget
    /// smaller than a join's build side fails with the typed breach
    /// error rather than spilling silently.
    #[test]
    fn disabled_spill_keeps_budget_errors(edges in arb_edges()) {
        let mut db = engine_with(&edges);
        db.set_spill_mode(SpillMode::Disabled);
        db.set_memory_budget(Some(64));
        let err = db.execute(QUERIES[0]).unwrap_err();
        prop_assert!(
            matches!(err, rdbms::DbError::Budget(_)),
            "expected DbError::Budget, got {:?}",
            err
        );
    }
}

/// Satellite: governed exits must not leak spill files. Whatever aborts
/// a spilling statement — cooperative cancellation armed at a spill
/// write point, a rows-budget breach, or a disk fault plus recovery —
/// the disk's live file-slot count must return to its pre-statement
/// baseline: every spill partition, sort run, and dedup scratch file is
/// destroyed or abandoned on the way out.
#[test]
fn aborted_spilling_statements_leak_no_spill_files() {
    let edges: Vec<(i64, i64)> = (0..400).map(|i| (i % 37, (i * 7) % 37)).collect();
    let expect = engine_with(&edges).execute(QUERIES[0]).unwrap().rows;

    // Cooperative cancellation fired by a spill write.
    {
        let mut db = engine_with(&edges);
        db.set_spill_mode(SpillMode::Forced);
        db.flush().unwrap();
        let baseline = db.disk_live_files();
        let handle = db.cancel_handle();
        db.set_fault_injector(FaultInjector::new().cancel_at_write(3, handle));
        assert!(
            db.execute(QUERIES[0]).is_err(),
            "cancel armed mid-spill must abort the statement"
        );
        db.clear_fault_injector();
        db.reset_cancel();
        assert_eq!(
            db.disk_live_files(),
            baseline,
            "cancellation abort leaked spill files"
        );
        // The engine keeps serving, and a clean spilling run tears all
        // its scratch files back down too.
        assert_eq!(db.execute(QUERIES[0]).unwrap().rows, expect);
        assert_eq!(
            db.disk_live_files(),
            baseline,
            "successful spilling statement leaked spill files"
        );
    }

    // Rows-budget breach while sort runs are already on disk.
    {
        let mut db = engine_with(&edges);
        db.set_spill_mode(SpillMode::Forced);
        db.set_row_budget(Some(450));
        db.flush().unwrap();
        let baseline = db.disk_live_files();
        let err = db.execute(QUERIES[1]).unwrap_err();
        assert!(
            matches!(err, rdbms::DbError::Budget(_)),
            "expected a budget breach, got {err:?}"
        );
        assert_eq!(
            db.disk_live_files(),
            baseline,
            "budget-breach abort leaked spill files"
        );
    }

    // Disk fault mid-spill, then recovery.
    {
        let mut db = engine_with(&edges);
        db.set_spill_mode(SpillMode::Forced);
        db.flush().unwrap();
        let baseline = db.disk_live_files();
        db.set_fault_injector(FaultInjector::new().fail_after_writes(2));
        assert!(db.execute(QUERIES[0]).is_err());
        db.clear_fault_injector();
        db.recover().unwrap();
        assert_eq!(
            db.disk_live_files(),
            baseline,
            "crash plus recovery leaked spill file slots"
        );
        assert_eq!(db.execute(QUERIES[0]).unwrap().rows, expect);
    }
}

/// A disk fault that fires mid-spill must fail the statement, leave the
/// engine recoverable, and not corrupt any table: after recovery the
/// same query returns exactly the clean answer.
#[test]
fn spill_write_fault_recovers_cleanly() {
    let edges: Vec<(i64, i64)> = (0..400).map(|i| (i % 37, (i * 7) % 37)).collect();
    let expect = engine_with(&edges).execute(QUERIES[0]).unwrap().rows;

    for fail_after in [0u64, 1, 2, 5] {
        let mut db = engine_with(&edges);
        db.set_spill_mode(SpillMode::Forced);
        // Flush so the only writes left are the spill writes themselves.
        db.flush().unwrap();
        db.set_fault_injector(FaultInjector::new().fail_after_writes(fail_after));
        let err = db.execute(QUERIES[0]);
        assert!(
            err.is_err(),
            "fault after {fail_after} writes should fail the spilling join"
        );
        db.clear_fault_injector();
        db.recover().unwrap();
        let got = db.execute(QUERIES[0]).unwrap().rows;
        assert_eq!(
            got, expect,
            "post-recovery answer diverged (fault at write {fail_after})"
        );
    }
}
