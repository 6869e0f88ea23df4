//! Crash-safety tests for durable stored-D/KB commits.
//!
//! The headline test sweeps every physical crash point of a workspace
//! commit: for each prefix length of page writes, a deterministic fault
//! injector "pulls the power cord" at that write, recovery runs, and the
//! database must be byte-equivalent to the pre-commit state with every
//! dictionary invariant intact. Because the commit record itself is a
//! write point, the sweep covers "crash during commit" too; the first
//! sweep index at which no fault fires demonstrates the post-state.

use km::session::{binary_sym, Session, SessionConfig};
use rdbms::{Engine, FaultInjector, Value};
use std::collections::BTreeMap;

/// Every table a commit can touch, dictionaries included.
const TABLES: &[&str] = &[
    "idb_relname",
    "idb_column",
    "edb_relname",
    "edb_column",
    "rulesource",
    "reachablepreds",
    "parent",
    "edge",
];

/// Logical content of the whole database, sorted so physical layout
/// differences (insert hints, slot order) cannot mask or fake a diff.
fn dump(db: &mut Engine) -> BTreeMap<String, Vec<Vec<Value>>> {
    let mut out = BTreeMap::new();
    for table in TABLES {
        if db.has_table(table) {
            let mut rows = db.scan_all(table).unwrap();
            rows.sort();
            out.insert(table.to_string(), rows);
        }
    }
    out
}

/// A durable session with stored base facts and an uncommitted workspace:
/// two rules (one recursive) plus facts for a brand-new predicate, so the
/// commit exercises dictionary inserts, rule storage, closure maintenance,
/// and base-relation creation inside one transaction.
fn durable_session() -> Session {
    let mut s = Session::new(SessionConfig {
        durability: true,
        ..SessionConfig::default()
    })
    .unwrap();
    s.define_base("parent", &binary_sym()).unwrap();
    s.load_facts("parent", workload::chain_facts(8)).unwrap();
    s.load_rules(
        "anc(X, Y) :- parent(X, Y).\n\
         anc(X, Y) :- parent(X, Z), anc(Z, Y).\n\
         edge(e0, e1).\n\
         edge(e1, e2).\n",
    )
    .unwrap();
    s
}

/// The state a successful commit must produce, measured on a fault-free
/// run (the builds are deterministic, so this is comparable across runs).
fn post_commit_state() -> BTreeMap<String, Vec<Vec<Value>>> {
    let mut s = durable_session();
    s.commit_workspace().unwrap();
    dump(s.engine_mut())
}

/// Sweep every crash point of a commit with injectors built by `mk`:
/// crash at write `k`, recover, require the exact pre-state and intact
/// invariants, then retry the commit and require the exact post-state.
/// Ends at the first `k` no fault reaches (the commit's total write count).
fn crash_point_sweep(mk: impl Fn(u64) -> FaultInjector) {
    let post = post_commit_state();
    let mut crash_points = 0u64;
    let mut k = 0u64;
    loop {
        let mut s = durable_session();
        // Flush so the pre-state is entirely on disk: the injector then
        // only ever fires inside the transaction it is aimed at.
        s.engine_mut().flush().unwrap();
        let pre = dump(s.engine_mut());
        s.engine_mut().set_fault_injector(mk(k));
        match s.commit_workspace() {
            Ok(_) => {
                s.engine_mut().clear_fault_injector();
                assert_eq!(dump(s.engine_mut()), post, "fault-free commit at k={k}");
                s.verify_integrity().unwrap();
                break;
            }
            Err(_) => {
                assert!(
                    s.engine().crashed(),
                    "commit failed without a crash at k={k}"
                );
                s.recover().unwrap();
                assert_eq!(
                    dump(s.engine_mut()),
                    pre,
                    "crash at write {k}: recovery must restore the pre-commit state"
                );
                s.verify_integrity().unwrap();
                // The recovered session is fully usable: the workspace kept
                // everything, so the same commit retried lands post-state.
                s.commit_workspace().unwrap();
                assert_eq!(
                    dump(s.engine_mut()),
                    post,
                    "retried commit after crash at {k}"
                );
                s.verify_integrity().unwrap();
                crash_points += 1;
            }
        }
        k += 1;
        assert!(k < 4096, "sweep did not terminate");
    }
    assert!(
        crash_points >= 3,
        "sweep must cover several crash points, got {crash_points}"
    );
}

#[test]
fn commit_crash_point_sweep_clean_failures() {
    crash_point_sweep(|k| FaultInjector::new().fail_after_writes(k));
}

#[test]
fn commit_crash_point_sweep_torn_pages() {
    crash_point_sweep(|k| FaultInjector::new().fail_after_writes(k).torn_writes(true));
}

#[test]
fn commit_crash_point_sweep_torn_wal_tail() {
    crash_point_sweep(|k| FaultInjector::new().fail_after_writes(k).tear_wal_tail(64));
}

#[test]
fn seeded_fault_plans_always_recover_consistently() {
    let post = post_commit_state();
    for seed in 0..32u64 {
        let mut s = durable_session();
        s.engine_mut().flush().unwrap();
        let pre = dump(s.engine_mut());
        s.engine_mut()
            .set_fault_injector(FaultInjector::from_seed(seed));
        match s.commit_workspace() {
            Ok(_) => {
                s.engine_mut().clear_fault_injector();
                assert_eq!(dump(s.engine_mut()), post, "seed {seed}");
            }
            Err(_) => {
                s.recover().unwrap();
                assert_eq!(dump(s.engine_mut()), pre, "seed {seed}");
            }
        }
        s.verify_integrity().unwrap();
    }
}

#[test]
fn transient_read_faults_are_retried_not_fatal() {
    let mut s = durable_session();
    s.engine_mut()
        .set_fault_injector(FaultInjector::new().transient_read_every(3));
    s.commit_workspace().unwrap();
    let stats = s.engine().stats().disk;
    assert!(stats.read_retries > 0, "the injector did fire");
    assert!(
        !s.engine().crashed(),
        "transient faults never crash the disk"
    );
    s.engine_mut().clear_fault_injector();
    s.verify_integrity().unwrap();
    let (_, r) = s.query("?- anc(a0, W).").unwrap();
    assert_eq!(r.rows.len(), 7);
}

#[test]
fn queries_work_after_crash_recovery() {
    let mut s = durable_session();
    s.prepare("anc_all", "?- anc(a0, W).").unwrap();
    s.engine_mut().flush().unwrap();
    s.engine_mut()
        .set_fault_injector(FaultInjector::new().fail_after_writes(2));
    assert!(s.commit_workspace().is_err());
    s.recover().unwrap();
    // Prepared plans were invalidated by recovery; re-execution recompiles
    // against the recovered state (plus the surviving workspace) and agrees
    // with a fresh ad-hoc query.
    let prepared = s.execute_prepared("anc_all").unwrap();
    let (_, adhoc) = s.query("?- anc(a0, W).").unwrap();
    assert_eq!(prepared.rows, adhoc.rows);
    assert_eq!(prepared.rows.len(), 7);
    assert!(s.recompilations() >= 1, "recovery forced a recompilation");
}

#[test]
fn durability_off_means_zero_wal_traffic_and_identical_results() {
    let mut plain = Session::with_defaults().unwrap();
    plain.define_base("parent", &binary_sym()).unwrap();
    plain
        .load_facts("parent", workload::chain_facts(8))
        .unwrap();
    plain
        .load_rules(
            "anc(X, Y) :- parent(X, Y).\n\
             anc(X, Y) :- parent(X, Z), anc(Z, Y).\n\
             edge(e0, e1).\n\
             edge(e1, e2).\n",
        )
        .unwrap();
    plain.commit_workspace().unwrap();

    // The default path never touches the WAL at all...
    assert!(!plain.engine().wal_enabled());
    let stats = plain.engine().stats().disk;
    assert_eq!(stats.wal_records, 0);
    assert_eq!(stats.wal_bytes, 0);
    assert_eq!(stats.injected_faults, 0);

    // ...and produces exactly the state the durable path produces.
    assert_eq!(dump(plain.engine_mut()), post_commit_state());
    let stored = plain.stored().clone();
    stored.verify_integrity(plain.engine_mut()).unwrap();
}

#[test]
fn metrics_collection_never_perturbs_recovery() {
    // Two identical sessions crash at the same write; one is polled for
    // stats and metrics at every step, the other is left alone. Observation
    // must be side-effect free: both recover to byte-identical states.
    let run = |observe: bool| -> BTreeMap<String, Vec<Vec<Value>>> {
        let mut s = durable_session();
        s.engine_mut().flush().unwrap();
        if observe {
            let _ = s.engine().stats();
            let _ = s.engine().metrics().to_json();
        }
        s.engine_mut()
            .set_fault_injector(FaultInjector::new().fail_after_writes(3));
        let res = s.commit_workspace();
        assert!(res.is_err(), "the injector fires inside the commit");
        if observe {
            let _ = s.engine().stats();
            let _ = s.engine().metrics().to_json();
        }
        s.recover().unwrap();
        if observe {
            let m = s.engine().metrics();
            assert!(m.counter_value("wal.records") > 0, "WAL activity recorded");
            let _ = m.to_json();
        }
        s.verify_integrity().unwrap();
        dump(s.engine_mut())
    };
    assert_eq!(
        run(true),
        run(false),
        "reading metrics must not change what recovery replays"
    );
}

#[test]
fn fault_during_evaluation_and_commit_recovers() {
    // The sweep arms the injector and runs a clique evaluation plus
    // commit inside the armed window, crashing at every write point the
    // episode reaches — the commit's WAL writes always, and the
    // evaluation's own spill-file writes when RDBMS_SPILL=force makes the
    // operators spill. Recovery must restore the exact pre-commit stored
    // D/KB, and evaluation must keep producing the reference answer
    // afterwards.
    let make = || {
        let mut s = Session::new(SessionConfig {
            durability: true,
            ..SessionConfig::default()
        })
        .unwrap();
        s.define_base("parent", &binary_sym()).unwrap();
        s.load_facts("parent", workload::chain_facts(8)).unwrap();
        s.load_rules(
            "anc(X, Y) :- parent(X, Y).\n\
             anc(X, Y) :- parent(X, Z), anc(Z, Y).\n\
             edge(e0, e1).\n\
             edge(e1, e2).\n",
        )
        .unwrap();
        s
    };
    let (post, expected) = {
        let mut s = make();
        s.commit_workspace().unwrap();
        let state = dump(s.engine_mut());
        let (_, r) = s.query("?- anc(a0, W).").unwrap();
        (state, r.rows)
    };
    assert_eq!(expected.len(), 7);

    let mut crash_points = 0u64;
    let mut k = 0u64;
    loop {
        let mut s = make();
        s.engine_mut().flush().unwrap();
        let pre = dump(s.engine_mut());
        s.engine_mut()
            .set_fault_injector(FaultInjector::new().fail_after_writes(k));
        // Under the default budget-driven spill mode the LFP is pure
        // read-path work (temp pages stay in the buffer pool), so
        // the armed fault only ever fires inside the commit. Under
        // RDBMS_SPILL=force the evaluation itself emits spill-file
        // writes: early write points then crash the disk mid-query, and
        // recovery must restore the exact pre-commit stored D/KB before
        // a clean re-run and commit land the post-state.
        match s.query("?- anc(a0, W).") {
            Ok((_, r)) => {
                assert_eq!(r.rows, expected, "armed-injector evaluation at k={k}");
                match s.commit_workspace() {
                    Ok(_) => {
                        s.engine_mut().clear_fault_injector();
                        assert_eq!(dump(s.engine_mut()), post, "fault-free commit at k={k}");
                        s.verify_integrity().unwrap();
                        break;
                    }
                    Err(_) => {
                        assert!(
                            s.engine().crashed(),
                            "commit failed without a crash at k={k}"
                        );
                        s.recover().unwrap();
                        assert_eq!(
                            dump(s.engine_mut()),
                            pre,
                            "crash at write {k}: recovery must restore the \
                             pre-commit stored D/KB"
                        );
                        s.verify_integrity().unwrap();
                        // The recovered session still evaluates correctly.
                        let (_, r) = s.query("?- anc(a0, W).").unwrap();
                        assert_eq!(r.rows, expected, "re-run after crash at {k}");
                        crash_points += 1;
                    }
                }
            }
            Err(_) => {
                // A spill-file write point inside the evaluation.
                assert!(
                    s.engine().crashed(),
                    "evaluation failed without a crash at k={k}"
                );
                s.recover().unwrap();
                assert_eq!(
                    dump(s.engine_mut()),
                    pre,
                    "crash at spill write {k}: recovery must leave the \
                     stored D/KB byte-identical to its pre-query state"
                );
                s.verify_integrity().unwrap();
                let (_, r) = s.query("?- anc(a0, W).").unwrap();
                assert_eq!(r.rows, expected, "re-run after eval crash at {k}");
                s.commit_workspace().unwrap();
                assert_eq!(dump(s.engine_mut()), post, "commit after eval crash at {k}");
                s.verify_integrity().unwrap();
                crash_points += 1;
            }
        }
        k += 1;
        assert!(k < 4096, "sweep did not terminate");
    }
    assert!(
        crash_points >= 3,
        "the sweep must cover several crash points, got {crash_points}"
    );
}

#[test]
fn commit_failure_keeps_workspace_for_retry() {
    let mut s = durable_session();
    let rules_before = s.workspace().rule_count();
    let facts_before = s.workspace().fact_count();
    s.engine_mut().flush().unwrap();
    s.engine_mut()
        .set_fault_injector(FaultInjector::new().fail_after_writes(0));
    assert!(s.commit_workspace().is_err());
    assert_eq!(s.workspace().rule_count(), rules_before);
    assert_eq!(s.workspace().fact_count(), facts_before);
    s.recover().unwrap();
    let t = s.commit_workspace().unwrap();
    assert_eq!(t.rules_stored, 2);
    // Materialized facts leave the workspace only on success.
    assert_eq!(s.workspace().fact_count(), 0);
}
