//! Knowledge-manager sessions over the shared MVCC engine: the
//! `Session::attach` path. N km sessions compile, evaluate LFPs, and
//! commit workspaces against one stored D/KB; answers must be
//! byte-identical to a single private session applying the same
//! operations serially, under every interleaving.

use km::session::{binary_sym, Session, SessionConfig};
use km::{EvalError, EvalResource, KmError};
use proptest::prelude::*;
use rdbms::{BudgetKind, DbError, Engine, FaultInjector, SharedEngine, SpillMode, Value};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::thread;
use std::time::Duration;

const ANC_RULES: &str = "anc(X, Y) :- parent(X, Y).\n\
                         anc(X, Y) :- parent(X, Z), anc(Z, Y).\n";

fn chain_rows(n: usize) -> Vec<Vec<Value>> {
    (0..n - 1)
        .map(|i| {
            vec![
                Value::from(format!("a{i}")),
                Value::from(format!("a{}", i + 1)),
            ]
        })
        .collect()
}

/// A shared engine bootstrapped with the ancestor D/KB: `parent` chain
/// plus the recursive rules, all committed through an attached session.
fn shared_ancestor_dkb(n: usize) -> SharedEngine {
    let shared = SharedEngine::new(Engine::new());
    let mut s = Session::attach(&shared, SessionConfig::default()).expect("attach");
    s.define_base("parent", &binary_sym()).expect("base");
    s.load_facts("parent", chain_rows(n)).expect("facts");
    s.load_rules(ANC_RULES).expect("rules");
    s.commit_workspace().expect("commit");
    shared
}

/// The serial reference: one private session, same setup.
fn private_ancestor_dkb(n: usize) -> Session {
    let mut s = Session::with_defaults().expect("session");
    s.define_base("parent", &binary_sym()).expect("base");
    s.load_facts("parent", chain_rows(n)).expect("facts");
    s.load_rules(ANC_RULES).expect("rules");
    s.commit_workspace().expect("commit");
    s
}

/// Acceptance: two attached sessions evaluate the recursive query
/// concurrently — semi-naive LFP with per-session temp namespaces on
/// snapshot forks of the same stored D/KB — and both answers are
/// byte-identical to the serial reference.
#[test]
fn two_shared_sessions_evaluate_lfp_concurrently_like_serial() {
    let mut reference = private_ancestor_dkb(8);
    let (_, expect) = reference.query("?- anc(a0, W).").expect("serial query");
    assert_eq!(expect.rows.len(), 7, "a0 has 7 descendants");

    let shared = shared_ancestor_dkb(8);
    let mut workers = Vec::new();
    for _ in 0..2 {
        let sh = shared.clone();
        let expect = expect.rows.clone();
        workers.push(thread::spawn(move || {
            let mut s = Session::attach(&sh, SessionConfig::default()).expect("attach");
            for _ in 0..3 {
                let (_, got) = s.query("?- anc(a0, W).").expect("shared query");
                assert_eq!(got.rows, expect, "shared LFP diverged from serial");
            }
        }));
    }
    for w in workers {
        w.join().expect("worker panicked");
    }
}

/// Attach is idempotent and race-safe: many sessions attaching to a
/// fresh engine all find (or one of them creates) the stored-D/KB
/// catalog, and every one of them is immediately serviceable.
#[test]
fn concurrent_attach_bootstraps_catalog_once() {
    let shared = SharedEngine::new(Engine::new());
    let mut workers = Vec::new();
    for _ in 0..4 {
        let sh = shared.clone();
        workers.push(thread::spawn(move || {
            let mut s = Session::attach(&sh, SessionConfig::default()).expect("attach");
            s.db_execute("SELECT * FROM rulesource").expect("catalog")
        }));
    }
    for w in workers {
        assert_eq!(w.join().expect("attacher panicked").rows.len(), 0);
    }
    // The catalog exists exactly once and a late attacher sees it.
    let mut late = Session::attach(&shared, SessionConfig::default()).expect("late attach");
    assert!(late.verify_integrity().is_ok());
}

/// Regression pinning key-granular validation at the km layer: two
/// sessions inserting *different* keys into the same stored relation in
/// overlapping transactions both commit (the inserts commute).
#[test]
fn commuting_same_table_inserts_no_longer_conflict() {
    let shared = shared_ancestor_dkb(4);
    let mut a = Session::attach(&shared, SessionConfig::default()).expect("attach a");
    let mut b = Session::attach(&shared, SessionConfig::default()).expect("attach b");

    // Overlapping transactions: both snapshots predate both commits.
    a.backend_mut().begin().expect("begin a");
    b.backend_mut().begin().expect("begin b");
    a.db_execute("INSERT INTO parent VALUES ('ka', 'va')")
        .expect("a insert");
    b.db_execute("INSERT INTO parent VALUES ('kb', 'vb')")
        .expect("b insert");
    a.backend_mut().commit().expect("a commits first");
    b.backend_mut()
        .commit()
        .expect("disjoint-key insert must not conflict");
    a.backend_mut().refresh().expect("refresh");
    let rows = a.db_execute("SELECT * FROM parent").expect("scan").rows;
    assert_eq!(rows.len(), 5, "both inserts landed");
}

/// Workspace fact commits store by key: two sessions each committing 500
/// rounds of disjoint facts into one base relation never conflict, since
/// the facts phase reads none of the relation it writes.
#[test]
fn disjoint_fact_commits_into_one_relation_never_conflict() {
    const ROUNDS: usize = 500;
    let shared = SharedEngine::new(Engine::new());
    let mut boot = Session::attach(&shared, SessionConfig::default()).expect("attach");
    boot.define_base("audit", &binary_sym()).expect("base");
    let workers: Vec<_> = (0..2)
        .map(|c| {
            let sh = shared.clone();
            thread::spawn(move || {
                let mut s = Session::attach(&sh, SessionConfig::default()).expect("attach");
                for i in 0..ROUNDS {
                    s.load_rules(&format!("audit(k{c}_{i}, v{i}).\n"))
                        .expect("stage");
                    let t = s.commit_workspace().expect("commit");
                    assert_eq!(t.facts_stored, 1, "client {c}, round {i}");
                }
                s.commit_counters()
            })
        })
        .collect();
    for w in workers {
        let (commits, conflicts) = w.join().expect("worker panicked");
        assert_eq!((commits, conflicts), (ROUNDS as u64, 0));
    }
    boot.backend_mut().refresh().expect("refresh");
    let rs = boot
        .db_execute("SELECT COUNT(*) FROM audit")
        .expect("count");
    assert_eq!(rs.scalar_int(), Some(2 * ROUNDS as i64));
}

/// Which resource a budget error tripped on, whichever layer raised it
/// (a statement of the compile phase, or the evaluation).
fn tripped(e: &KmError) -> Option<EvalResource> {
    match e {
        KmError::Db(DbError::Budget(b)) => Some(match b.kind {
            BudgetKind::Canceled => EvalResource::Canceled,
            BudgetKind::Deadline => EvalResource::Deadline,
            BudgetKind::Rows => EvalResource::Rows,
            BudgetKind::Memory => EvalResource::Memory,
        }),
        KmError::Eval(e) => {
            let EvalError::Budget { resource, .. } = **e;
            Some(resource)
        }
        _ => None,
    }
}

/// The cancel handle taken from an attached session's engine belongs to
/// the session: `query` re-snapshots before it compiles, and the flag set
/// beforehand must still stop it — as it does on a private session.
#[test]
fn cancel_handle_of_a_shared_session_survives_the_snapshot_refresh() {
    let shared = shared_ancestor_dkb(8);
    let mut s = Session::attach(&shared, SessionConfig::default()).expect("attach");
    let handle = s.engine().cancel_handle();
    handle.store(true, Ordering::Relaxed);
    let err = s
        .query("?- anc(a0, W).")
        .expect_err("canceled before it ran");
    assert_eq!(tripped(&err), Some(EvalResource::Canceled), "{err}");

    // Acknowledged, the session serves again — on the same handle.
    s.engine().reset_cancel();
    let (_, r) = s.query("?- anc(a0, W).").expect("serves after reset");
    assert_eq!(r.rows.len(), 7);
    handle.store(true, Ordering::Relaxed);
    assert!(
        s.engine().cancel_requested(),
        "the handle still reaches the session's current snapshot"
    );
}

/// A row budget set through `engine_mut()` stays in force across the
/// snapshot replacements of `compile` (refresh) and `commit_workspace`
/// (re-snapshot after the commit), and so does every other execution
/// setting of the session's engine.
#[test]
fn row_budget_of_a_shared_session_survives_refresh_and_commit() {
    let shared = shared_ancestor_dkb(300);
    let mut s = Session::attach(&shared, SessionConfig::default()).expect("attach");
    s.load_rules("hop(X, Y) :- parent(X, Y).\n").expect("rule");
    // Below the 299 `parent` rows the query's scan emits, above anything
    // one statement of the commit processes.
    s.engine_mut().set_row_budget(Some(200));
    let err = s.query("?- hop(X, Y).").expect_err("over the row budget");
    assert_eq!(tripped(&err), Some(EvalResource::Rows), "{err}");

    s.commit_workspace().expect("commit fits the budget");
    let err = s.query("?- hop(X, Y).").expect_err("still over the budget");
    assert_eq!(tripped(&err), Some(EvalResource::Rows), "{err}");

    s.engine_mut().set_row_budget(None);
    let (_, r) = s.query("?- hop(X, Y).").expect("budget lifted");
    assert_eq!(r.rows.len(), 299);

    // The refresh `query` starts with must not hand back the live
    // engine's settings: no statement fits a zero timeout.
    let e = s.engine_mut();
    e.set_statement_timeout(Some(Duration::ZERO));
    e.set_spill_mode(SpillMode::Disabled);
    e.set_batch_rows(7);
    let err = s.query("?- hop(X, Y).").expect_err("no time allowed");
    assert_eq!(tripped(&err), Some(EvalResource::Deadline), "{err}");
    assert_eq!(s.engine().spill_mode(), SpillMode::Disabled);
    assert_eq!(s.engine().batch_rows(), 7);

    // A one-byte memory budget with spilling disabled stops the first
    // hash build of the recursive query's join.
    let e = s.engine_mut();
    e.set_statement_timeout(None);
    e.set_memory_budget(Some(1));
    let err = s.query("?- anc(a0, W).").expect_err("no memory allowed");
    assert_eq!(tripped(&err), Some(EvalResource::Memory), "{err}");
}

/// Crash sweep over two users' interleaved workspace commits: inject a
/// disk fault at every write point of the schedule. After recovery each
/// acknowledged `commit_workspace` is durable and each unacknowledged
/// one left no trace — a workspace commit installs its facts atomically
/// or not at all.
#[test]
fn crash_sweep_over_two_user_workspace_commits() {
    let mut k = 0u64;
    let mut crash_points = 0u64;
    loop {
        let shared = shared_ancestor_dkb(3);
        let mut sessions = [
            Session::attach(&shared, SessionConfig::default()).expect("attach 0"),
            Session::attach(&shared, SessionConfig::default()).expect("attach 1"),
        ];
        shared.with_live(|eng| {
            eng.flush().unwrap();
            eng.set_fault_injector(FaultInjector::new().fail_after_writes(k));
        });
        // Each workspace commit installs two marker facts; atomicity
        // after a crash means both or neither survive.
        let mut acknowledged: Vec<(usize, i64)> = Vec::new();
        let mut crashed = false;
        'schedule: for j in 0..2i64 {
            for (si, s) in sessions.iter_mut().enumerate() {
                let r = (|| {
                    s.load_rules(&format!(
                        "parent(s{si}r{j}, h0).\n\
                         parent(s{si}r{j}, h1).\n"
                    ))?;
                    s.commit_workspace()
                })();
                match r {
                    Ok(_) => acknowledged.push((si, j)),
                    Err(_) => {
                        crashed = true;
                        break 'schedule;
                    }
                }
            }
        }
        if !crashed {
            // k exceeded the schedule's write count: sweep complete.
            shared.with_live(Engine::clear_fault_injector);
            break;
        }
        shared.with_live(Engine::clear_fault_injector);
        shared.recover().expect("recovery after injected crash");

        let mut reader = Session::attach(&shared, SessionConfig::default()).expect("re-attach");
        let rows = reader
            .db_execute("SELECT * FROM parent")
            .expect("scan")
            .rows;
        let mut halves: BTreeMap<String, u32> = BTreeMap::new();
        for row in &rows {
            let Value::Str(key) = &row[0] else {
                panic!("unexpected row shape {row:?}");
            };
            if key.starts_with('s') {
                *halves.entry(key.clone()).or_default() += 1;
            }
        }
        for (key, &n) in &halves {
            assert_eq!(n, 2, "torn workspace commit {key} after crash at write {k}");
        }
        for &(si, j) in &acknowledged {
            assert_eq!(
                halves.get(&format!("s{si}r{j}")).copied(),
                Some(2),
                "acknowledged workspace commit (s{si},r{j}) lost after crash at write {k}"
            );
        }
        // The recovered D/KB keeps serving knowledge-level work.
        let (_, res) = reader.query("?- anc(a0, W).").expect("post-crash query");
        assert_eq!(res.rows.len(), 2, "chain of 3 still answers");
        crash_points += 1;
        k += 1;
        assert!(k < 4096, "sweep did not terminate");
    }
    assert!(
        crash_points >= 3,
        "sweep must cover several crash points, got {crash_points}"
    );
}

/// Serial reference for the proptest: one private session applying the
/// same operation sequence in the same total order.
#[derive(Debug, Clone)]
enum Op {
    /// Autocommit-load two facts into the stored `parent` relation.
    LoadFacts(u8),
    /// Stage a fact in the workspace and commit it through the
    /// validated stored-update path.
    CommitFact(u8),
    /// Compile + evaluate the recursive query and record the answer.
    Query,
}

fn apply(s: &mut Session, op: &Op) -> Option<Vec<Vec<Value>>> {
    match op {
        Op::LoadFacts(v) => {
            s.load_facts(
                "parent",
                vec![
                    vec![Value::from(format!("l{v}")), Value::from(format!("m{v}"))],
                    vec![Value::from(format!("m{v}")), Value::from(format!("n{v}"))],
                ],
            )
            .expect("load_facts");
            None
        }
        Op::CommitFact(v) => {
            s.load_rules(&format!("parent(w{v}, x{v}).\n"))
                .expect("stage");
            s.commit_workspace().expect("commit_workspace");
            None
        }
        Op::Query => {
            let (_, r) = s.query("?- anc(a0, W).").expect("query");
            Some(r.rows)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole acceptance: a random interleaving of load_facts /
    /// commit_workspace / query across three attached sessions produces,
    /// at every query point, an answer byte-identical to one private
    /// session applying the same sequence serially.
    #[test]
    fn interleaved_km_sessions_match_serial_reference(
        ops in prop::collection::vec(
            (0usize..3, prop_oneof![
                (0u8..50).prop_map(Op::LoadFacts),
                (0u8..50).prop_map(Op::CommitFact),
                Just(Op::Query),
            ]),
            1..10,
        ),
    ) {
        let shared = shared_ancestor_dkb(5);
        let mut sessions: Vec<Session> = (0..3)
            .map(|_| Session::attach(&shared, SessionConfig::default()).expect("attach"))
            .collect();
        let mut reference = private_ancestor_dkb(5);
        for (si, op) in &ops {
            let got = apply(&mut sessions[*si], op);
            let want = apply(&mut reference, op);
            prop_assert_eq!(got, want, "session {} diverged on {:?}", si, op);
        }
        // Final state: every session, after its next refresh (implicit in
        // compile), answers the same closure as the serial reference.
        let want = apply(&mut reference, &Op::Query);
        for (si, s) in sessions.iter_mut().enumerate() {
            let got = apply(s, &Op::Query);
            prop_assert_eq!(got.clone(), want.clone(), "session {} diverged at the end", si);
        }
    }
}
