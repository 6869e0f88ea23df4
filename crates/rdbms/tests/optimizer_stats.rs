//! Statistics subsystem invariants.
//!
//! Two angles on the optimizer's statistics: a property test that drives a
//! random interleaving of inserts, point deletes, truncates, and explicit
//! analyzes through the engine and checks that every installed estimate
//! stays inside its documented bounds; and a shared-engine test that a
//! session plans against the statistics of its own MVCC snapshot rather
//! than whatever a concurrent committer has since installed.

use proptest::prelude::*;
use rdbms::stats::RESERVOIR_CAP;
use rdbms::{Engine, SharedEngine, Value};

#[derive(Debug, Clone)]
enum StatsOp {
    /// Append a batch of rows with keys drawn from a small domain.
    Insert(Vec<i64>),
    /// Point delete of every row with the given key.
    DeleteEq(i64),
    /// Drop all content, keeping the schema.
    Truncate,
    /// Force a statistics refresh regardless of the churn threshold.
    Analyze,
}

fn arb_stats_op() -> impl Strategy<Value = StatsOp> {
    prop_oneof![
        4 => prop::collection::vec(0i64..64, 1..40).prop_map(StatsOp::Insert),
        2 => (0i64..64).prop_map(StatsOp::DeleteEq),
        1 => Just(StatsOp::Truncate),
        1 => Just(StatsOp::Analyze),
    ]
}

/// Every estimate the engine installs must stay inside its documented
/// bounds, no matter what the table has been through.
fn check_stats_bounds(e: &Engine, live: u64) -> Result<(), TestCaseError> {
    let stats = e.table_stats("t").expect("table exists");
    if stats.columns.is_empty() {
        return Ok(());
    }
    prop_assert_eq!(stats.columns.len(), 2, "estimates parallel the schema");
    prop_assert!(
        stats.analyzed_rows <= live || stats.mods_since_analyze > 0,
        "analyzed_rows {} can only exceed live {} after later deletes",
        stats.analyzed_rows,
        live
    );
    for col in &stats.columns {
        prop_assert!(
            col.n_distinct >= 1,
            "analyzed column saw at least one value"
        );
        prop_assert!(
            col.n_distinct <= stats.analyzed_rows,
            "n_distinct {} exceeds rows at analyze {}",
            col.n_distinct,
            stats.analyzed_rows
        );
        let sel = col.eq_selectivity();
        prop_assert!(sel > 0.0 && sel <= 1.0, "eq selectivity {sel} out of (0,1]");
        prop_assert!(col.min <= col.max);
        if let Some(h) = &col.histogram {
            prop_assert!(h.hi > h.lo, "degenerate domains carry no histogram");
            prop_assert!(h.sampled <= RESERVOIR_CAP as u64);
            prop_assert!(h.sampled <= stats.analyzed_rows);
            prop_assert_eq!(h.counts.iter().sum::<u64>(), h.sampled);
            let whole = h.range_fraction(None, None);
            prop_assert!(
                (whole - 1.0).abs() < 1e-9,
                "whole-domain fraction {whole} != 1"
            );
            let half = h.range_fraction(Some(h.lo), Some((h.lo + h.hi) / 2));
            prop_assert!((0.0..=1.0).contains(&half));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random insert/delete/truncate/analyze interleavings never push an
    /// estimate outside its bounds, and never corrupt query answers: the
    /// engine's row count and a point lookup always match a replayed
    /// in-memory model of the table.
    #[test]
    fn estimates_stay_bounded_under_churn(ops in prop::collection::vec(arb_stats_op(), 1..24)) {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (k int, v int)").unwrap();
        e.execute("CREATE INDEX t_k ON t (k)").unwrap();
        let mut model: Vec<(i64, i64)> = Vec::new();
        let mut next_v = 0i64;

        for op in &ops {
            match op {
                StatsOp::Insert(keys) => {
                    let rows: Vec<Vec<Value>> = keys
                        .iter()
                        .map(|&k| {
                            next_v += 1;
                            model.push((k, next_v));
                            vec![Value::Int(k), Value::Int(next_v)]
                        })
                        .collect();
                    e.insert_rows("t", rows).unwrap();
                }
                StatsOp::DeleteEq(k) => {
                    let rs = e.execute(&format!("DELETE FROM t WHERE k = {k}")).unwrap();
                    let expect = model.iter().filter(|(mk, _)| mk == k).count() as u64;
                    prop_assert_eq!(rs.affected, expect);
                    model.retain(|(mk, _)| mk != k);
                }
                StatsOp::Truncate => {
                    e.execute("TRUNCATE TABLE t").unwrap();
                    model.clear();
                    let stats = e.table_stats("t").unwrap();
                    prop_assert!(
                        stats.columns.is_empty(),
                        "truncate drops estimates that describe vanished rows"
                    );
                    prop_assert_eq!(stats.mods_since_analyze, 0);
                }
                StatsOp::Analyze => {
                    e.analyze_table("t").unwrap();
                    let stats = e.table_stats("t").unwrap();
                    prop_assert_eq!(stats.analyzed_rows, model.len() as u64);
                    prop_assert_eq!(stats.mods_since_analyze, 0);
                }
            }
            let live = e.table_len("t").unwrap();
            prop_assert_eq!(live, model.len() as u64);
            check_stats_bounds(&e, live)?;
        }

        // Stale or fresh, estimates never change answers.
        let probe = 3i64;
        let rs = e.execute(&format!("SELECT v FROM t WHERE k = {probe}")).unwrap();
        let expect = model.iter().filter(|(k, _)| *k == probe).count();
        prop_assert_eq!(rs.rows.len(), expect);
    }

    /// Analyzing twice with no interleaved churn is a fixpoint: sampling is
    /// seeded deterministically per version, but the estimates describe the
    /// same rows, so distinct counts and histograms stay within bounds and
    /// the row bookkeeping is identical.
    #[test]
    fn reanalyze_without_churn_keeps_bounds(keys in prop::collection::vec(0i64..16, 1..200)) {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (k int, v int)").unwrap();
        let rows: Vec<Vec<Value>> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| vec![Value::Int(k), Value::Int(i as i64)])
            .collect();
        e.insert_rows("t", rows).unwrap();
        e.analyze_table("t").unwrap();
        let first = e.table_stats("t").unwrap().clone();
        e.analyze_table("t").unwrap();
        let second = e.table_stats("t").unwrap();
        prop_assert_eq!(second.version, first.version + 1);
        prop_assert_eq!(second.analyzed_rows, first.analyzed_rows);
        let live = e.table_len("t").unwrap();
        check_stats_bounds(&e, live)?;
    }
}

/// A forked session keeps planning against its snapshot's statistics: a
/// concurrent committer's auto-analyze moves the live stats version, but
/// the open session neither sees the new rows nor the new estimates until
/// it refreshes.
#[test]
fn session_plans_use_snapshot_consistent_stats() {
    let mut e = Engine::new();
    e.execute("CREATE TABLE t (k int, v int)").unwrap();
    e.execute("CREATE INDEX t_k ON t (k)").unwrap();
    let rows: Vec<Vec<Value>> = (0..64)
        .map(|i| vec![Value::Int(i % 8), Value::Int(i)])
        .collect();
    e.insert_rows("t", rows).unwrap();
    e.analyze_table("t").unwrap();
    let shared = SharedEngine::new(e);

    let mut reader = shared.session();
    let before = reader.snapshot().table_stats("t").unwrap().clone();
    assert!(!before.columns.is_empty(), "seed table was analyzed");

    // A second session commits enough churn to trip the live auto-analyze.
    let mut writer = shared.session();
    let bulk: Vec<Vec<Value>> = (0..2048)
        .map(|i| vec![Value::Int(i % 512), Value::Int(1000 + i)])
        .collect();
    writer.insert_rows("t", bulk).unwrap();

    let (live_version, live_rows) = shared.with_live(|live| {
        (
            live.table_stats("t").unwrap().version,
            live.table_len("t").unwrap(),
        )
    });
    assert!(
        live_version > before.version,
        "bulk insert re-analyzed the live table ({live_version} vs {before_v})",
        before_v = before.version
    );
    assert_eq!(live_rows, 64 + 2048);

    // The open session still plans from its fork: same stats version, same
    // row count, and an EXPLAIN costed from the old world.
    let snap_stats = reader.snapshot().table_stats("t").unwrap();
    assert_eq!(snap_stats.version, before.version);
    assert_eq!(snap_stats.analyzed_rows, before.analyzed_rows);
    assert_eq!(reader.table_len("t").unwrap(), 64);
    let rs = reader.execute("SELECT v FROM t WHERE k = 3").unwrap();
    assert_eq!(
        rs.rows.len(),
        8,
        "snapshot answers ignore concurrent commits"
    );

    // Refreshing adopts the committed world and its statistics.
    reader.refresh().unwrap();
    let refreshed = reader.snapshot().table_stats("t").unwrap();
    assert_eq!(refreshed.version, live_version);
    assert_eq!(reader.table_len("t").unwrap(), 64 + 2048);
}

/// `TEMP` tables are volatile scratch space: however far one is filled (and
/// refilled after a truncate) past the auto-analyze floor, nothing samples
/// it and its statistics version — which cached plans are keyed on — never
/// moves. An explicit analyze still installs estimates, and the same fill
/// on an ordinary table still auto-analyzes.
#[test]
fn temp_tables_are_never_auto_analyzed() {
    let refreshes = |e: &Engine| e.metrics().counter_value("stats.refreshes");
    let fill = |e: &mut Engine, table: &str| {
        let rows: Vec<Vec<Value>> = (0..12_000)
            .map(|i| vec![Value::Int(i % 512), Value::Int(i)])
            .collect();
        e.insert_rows(table, rows).unwrap();
    };
    let mut e = Engine::new();
    e.execute("CREATE TEMP TABLE scratch (k int, v int)")
        .unwrap();
    e.execute("CREATE TABLE kept (k int, v int)").unwrap();

    fill(&mut e, "scratch");
    e.execute("DELETE FROM scratch WHERE k = 7").unwrap();
    e.execute("TRUNCATE TABLE scratch").unwrap();
    fill(&mut e, "scratch");
    let stats = e.table_stats("scratch").unwrap();
    assert_eq!(stats.version, 0);
    assert!(stats.columns.is_empty());
    assert_eq!(refreshes(&e), 0);

    e.analyze_table("scratch").unwrap();
    let stats = e.table_stats("scratch").unwrap();
    assert_eq!(stats.version, 1);
    assert_eq!(stats.analyzed_rows, 12_000);
    assert_eq!(stats.columns.len(), 2);
    assert_eq!(refreshes(&e), 1);

    fill(&mut e, "kept");
    let stats = e.table_stats("kept").unwrap();
    assert!(stats.version >= 1, "an ordinary table still auto-analyzes");
    assert!(!stats.columns.is_empty());
    assert!(refreshes(&e) >= 2);
}
