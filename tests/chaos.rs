//! Chaos harness: seeded schedules interleaving disk faults, cooperative
//! cancellation, and budget exhaustion at random points during evaluations
//! and commits. After every episode the engine must recover,
//! `verify_integrity` must pass, and a clean re-run must yield
//! byte-identical answers to a pristine reference session.
//!
//! `cargo test` runs a few dozen episodes; the 500-episode torture run of
//! the same schedule is the `#[ignore]`d test at the bottom
//! (`cargo test --release --test chaos -- --ignored`).

use km::session::{binary_sym, Session, SessionConfig};
use km::{EvalError, EvalResource, KmError};
use rdbms::{Engine, FaultInjector, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

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

/// Logical content of the whole database, keyed by table, rows sorted.
type DbState = BTreeMap<String, Vec<Vec<Value>>>;
/// Reference answer rows plus the post-commit database state.
type Reference = (Vec<Vec<Value>>, DbState);

fn dump(db: &mut Engine) -> DbState {
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

/// A durable session over a cyclic digraph base relation with the ancestor
/// rules plus facts for a new predicate in the workspace, so commits
/// exercise dictionary inserts, rule storage, and base-relation creation.
fn chaos_session(config: SessionConfig) -> Session {
    let mut s = Session::new(SessionConfig {
        durability: true,
        ..config
    })
    .unwrap();
    s.define_base("parent", &binary_sym()).unwrap();
    let edges = workload::cyclic_digraph(2, 6, 4, 11);
    s.load_facts("parent", workload::edges_to_rows(&edges))
        .unwrap();
    s.load_rules(
        "anc(X, Y) :- parent(X, Y).\n\
         anc(X, Y) :- parent(X, Z), anc(Z, Y).\n\
         edge(e0, e1).\n\
         edge(e1, e2).\n",
    )
    .unwrap();
    s
}

const QUERY: &str = "?- anc(A, B).";

/// Reference answer and post-commit state from a pristine session.
fn reference() -> Reference {
    let mut s = chaos_session(SessionConfig::default());
    let (_, r) = s.query(QUERY).unwrap();
    s.commit_workspace().unwrap();
    (r.rows, dump(s.engine_mut()))
}

/// Acceptance criterion: a fact-budget-exceeding run over the cyclic
/// closure terminates with `EvalError::Budget` well within its deadline,
/// partial traces intact, engine still serving. The second budget holds
/// the whole closure and trips on the answer rows instead — they count as
/// derived facts although no table receives them.
#[test]
fn divergent_closure_trips_budget_within_deadline() {
    let answer = reference().0;
    let closure = answer.len() as u64;
    let mut s = chaos_session(SessionConfig {
        deadline: Some(Duration::from_secs(30)),
        ..SessionConfig::default()
    });
    for budget in [20, closure + closure / 2] {
        s.config.max_derived_facts = Some(budget);
        let start = Instant::now();
        let err = s.query(QUERY).unwrap_err();
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "budget must fire long before the deadline"
        );
        match err {
            KmError::Eval(boxed) => {
                let EvalError::Budget {
                    resource,
                    used,
                    partial,
                    ..
                } = *boxed;
                assert_eq!(resource, EvalResource::DerivedFacts);
                assert!(used > budget);
                assert!(
                    !partial.clique_traces.is_empty() || partial.breakdown.tuples_produced > 0,
                    "partial progress is reported via the trace machinery"
                );
                if budget > closure {
                    assert_eq!(used, 2 * closure, "closure plus answer");
                }
            }
            other => panic!("expected budget error, got {other:?}"),
        }
        assert_eq!(
            s.engine().metrics().gauge_value("engine.prepared_open"),
            Some(0.0)
        );
    }
    // The engine is still serving: lift the budget, get the full answer.
    s.config.max_derived_facts = None;
    let (_, r) = s.query(QUERY).unwrap();
    assert_eq!(r.rows, answer);
}

/// Satellite: cancellation armed at every write point of an
/// evaluation-plus-commit never leaves an inconsistent stored D/KB.
///
/// The write points come in two flavours. Under the default spill mode
/// evaluation is write-free and every point lands in the commit; commits
/// are gated at entry, so once page flushing begins the commit runs to
/// completion and a flag raised mid-commit must yield the full
/// post-commit state, never a torn one. Under `RDBMS_SPILL=force` the
/// evaluation itself emits spill-page writes, so early points fire
/// mid-query: the governed exit must abort cooperatively, leave the
/// stored D/KB byte-identical to its pre-query state, and hand back a
/// session that can immediately re-run and commit.
#[test]
fn cancellation_sweep_at_every_write_point() {
    let (expected, post) = reference();
    let mut n = 0u64;
    let mut fired = 0u64;
    loop {
        let mut s = chaos_session(SessionConfig::default());
        s.engine_mut().flush().unwrap();
        let pre = dump(s.engine_mut());
        let handle = s.engine().cancel_handle();
        s.engine_mut()
            .set_fault_injector(FaultInjector::new().cancel_at_write(n, handle));
        let point_fired = match s.query(QUERY) {
            Ok((_, r)) => {
                assert_eq!(r.rows, expected, "evaluation at write point {n}");
                s.commit_workspace()
                    .expect("mid-commit cancellation must not abort the commit");
                assert!(!s.engine().crashed(), "cancellation never crashes the disk");
                let was_canceled = s.engine().cancel_requested();
                s.engine_mut().clear_fault_injector();
                s.engine_mut().reset_cancel();
                assert_eq!(dump(s.engine_mut()), post, "write point {n}");
                was_canceled
            }
            Err(err) => {
                // A spill-file write point inside the evaluation: the
                // governed exit acknowledged the cancellation and dropped
                // the run's temporaries.
                match err {
                    KmError::Eval(boxed) => {
                        let EvalError::Budget { resource, .. } = *boxed;
                        assert_eq!(
                            resource,
                            EvalResource::Canceled,
                            "eval abort at write point {n} must come from the armed cancel"
                        );
                    }
                    other => panic!("expected cancellation at write point {n}, got {other:?}"),
                }
                assert!(!s.engine().crashed(), "cancellation never crashes the disk");
                s.engine_mut().clear_fault_injector();
                s.engine_mut().reset_cancel();
                assert_eq!(
                    dump(s.engine_mut()),
                    pre,
                    "aborted evaluation must leave the stored D/KB untouched at write point {n}"
                );
                // The session keeps serving: clean re-run plus commit.
                let (_, r) = s.query(QUERY).unwrap();
                assert_eq!(r.rows, expected, "post-abort re-run at write point {n}");
                s.commit_workspace().unwrap();
                assert_eq!(
                    dump(s.engine_mut()),
                    post,
                    "post-abort commit at write point {n}"
                );
                true
            }
        };
        s.verify_integrity().unwrap();
        // Reopen from a snapshot: the on-disk form is consistent too.
        let (_, again) = s.query(QUERY).unwrap();
        assert_eq!(
            again.rows, expected,
            "post-cancel re-run at write point {n}"
        );
        if !point_fired {
            break; // n exceeded the episode's total write count
        }
        fired += 1;
        n += 1;
        assert!(n < 4096, "sweep did not terminate");
    }
    assert!(
        fired >= 3,
        "sweep must cover several write points, got {fired}"
    );
}

/// A tiny deterministic xorshift generator for episode schedules.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One seeded chaos episode: a perturbation is armed, an evaluation and a
/// commit run into it, the engine is put back in service, and the episode
/// must end with intact integrity and byte-identical clean-run answers.
/// Returns which perturbation ran (for coverage accounting).
fn episode(seed: u64, (expected, post): &Reference) -> &'static str {
    let mut rng = Rng::new(seed);
    // One draw the schedule no longer uses, still taken so every seed
    // keeps the perturbation it has always had.
    rng.next();

    let mut config = SessionConfig::default();
    let kind = rng.pick(6);
    let name = match kind {
        0 => "disk-fault",
        1 => "cancel-at-write",
        2 => "fact-budget",
        3 => "iteration-budget",
        4 => "row-budget",
        _ => "fault+budget",
    };
    if kind == 2 || kind == 5 {
        config.max_derived_facts = Some(1 + rng.pick(30));
    }
    if kind == 3 {
        config.max_iterations = Some(1 + rng.pick(3));
    }
    let mut s = chaos_session(config);
    s.engine_mut().flush().unwrap();
    let pre = dump(s.engine_mut());
    match kind {
        0 | 5 => s
            .engine_mut()
            .set_fault_injector(FaultInjector::from_seed(rng.next())),
        1 => {
            let handle = s.engine().cancel_handle();
            let at = rng.pick(24);
            s.engine_mut()
                .set_fault_injector(FaultInjector::new().cancel_at_write(at, handle));
        }
        4 => s.engine_mut().set_row_budget(Some(1 + rng.pick(200))),
        _ => {}
    }

    // Evaluate, then commit, into the armed perturbation. Either may fail
    // with a crash, a budget breach, or a cancellation; none may poison
    // the engine.
    let _ = s.query(QUERY);
    let commit = s.commit_workspace();

    // Put the engine back in service.
    if s.engine().crashed() {
        assert!(commit.is_err(), "a crashed episode cannot have committed");
        s.recover()
            .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
    }
    s.engine_mut().clear_fault_injector();
    s.engine_mut().set_row_budget(None);
    s.engine_mut().reset_cancel();
    s.config.max_derived_facts = None;
    s.config.max_iterations = None;

    // Integrity holds whatever happened.
    s.verify_integrity()
        .unwrap_or_else(|e| panic!("seed {seed}: integrity: {e}"));
    // The stored D/KB is fully pre- or fully post-commit.
    let state = dump(s.engine_mut());
    assert!(
        state == *post || state == pre,
        "seed {seed}: stored D/KB is neither pre- nor post-commit"
    );
    // A clean re-run yields byte-identical answers.
    if state == pre {
        s.commit_workspace()
            .unwrap_or_else(|e| panic!("seed {seed}: retried commit: {e}"));
        assert_eq!(dump(s.engine_mut()), *post, "seed {seed}: retried commit");
    }
    let (_, r) = s.query(QUERY).unwrap();
    assert_eq!(r.rows, *expected, "seed {seed}: clean re-run answers");
    // Neither the perturbed evaluation nor the clean one left a prepared
    // statement open in the engine.
    assert_eq!(
        s.engine().metrics().gauge_value("engine.prepared_open"),
        Some(0.0),
        "seed {seed}: prepared handles leaked"
    );
    name
}

/// Run episodes `0..episodes`; each asserts its own recovery, integrity,
/// pre-or-post state, identical re-run and closed prepared handles.
fn run_episodes(episodes: u64) {
    let reference = reference();
    let mut coverage: BTreeMap<&'static str, u64> = BTreeMap::new();
    for seed in 0..episodes {
        *coverage.entry(episode(seed, &reference)).or_insert(0) += 1;
    }
    // The schedule must actually have exercised every perturbation class.
    for kind in [
        "disk-fault",
        "cancel-at-write",
        "fact-budget",
        "iteration-budget",
        "row-budget",
        "fault+budget",
    ] {
        assert!(
            coverage.get(kind).copied().unwrap_or(0) > 0,
            "{kind} never ran"
        );
    }
}

#[test]
fn seeded_chaos_episodes_recover_and_rerun_identically() {
    run_episodes(48);
}

/// The torture run behind the governor/recovery robustness claims; CI's
/// `chaos` job runs it in release mode.
#[test]
#[ignore = "500 episodes; run with --release -- --ignored"]
fn five_hundred_chaos_episodes_recover_and_rerun_identically() {
    run_episodes(500);
}

/// Recovery always runs `verify_integrity` and the verdict lands on the `engine.recovery_verified` gauge.
#[test]
fn recovery_auto_verifies_and_sets_gauge() {
    let mut s = chaos_session(SessionConfig::default());
    s.engine_mut().flush().unwrap();
    assert_eq!(
        s.engine().metrics().gauge_value("engine.recovery_verified"),
        Some(-1.0),
        "unset before any recovery"
    );
    s.engine_mut()
        .set_fault_injector(FaultInjector::new().fail_after_writes(3));
    assert!(s.commit_workspace().is_err());
    s.recover().unwrap();
    assert_eq!(
        s.engine().metrics().gauge_value("engine.recovery_verified"),
        Some(1.0),
        "post-recovery verification passed and was recorded"
    );
}
