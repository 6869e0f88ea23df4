//! `sessions_mixed`: two sessions attached to one `SharedEngine`, each
//! committing a fact and then querying, side by side.
//!
//! Writes beside reads on `rdbms::concurrent` and `km::backend`:
//! snapshot fork and refresh, first-committer-wins validation, replay on
//! the live engine and the group-commit wait (the shared engine prices
//! an fsync at 200 µs here, and only here). The queried tree is never
//! written and the committed keys are disjoint between the clients, so
//! answers are fixed. (Commits still conflict, about 0.4 times per commit:
//! a workspace commit validates its dictionary reads at table
//! granularity; `with_txn` retries, and no op fails.) A cheaper fork helps
//! this workload and no other. Two clients because the sandbox has two
//! cores: never more threads than cores.
//!
//! One round (op): refresh the session's snapshot (timed on its own as
//! the cost of one fork), stage `audit(<key>, <val>).` and commit the
//! workspace, then compile and execute `?- anc(<node 4>, W).` on the
//! depth-8 tree.

use super::{err, ms, record_compile, record_execute, record_update, Tree, Workload};
use crate::check::{Digest, Rng};
use crate::trace::{sample, Tracer};
use km::session::{binary_sym, Session, SessionConfig};
use rdbms::{Engine, Registry, SharedEngine, Value};

const CLIENTS: usize = 2;
const QUERY_NODE: u32 = 4;

pub struct SessionsMixed {
    tree: Tree,
    answer: Digest,
    staged: Option<Vec<Vec<Value>>>,
}

pub struct Client {
    session: Session,
    shared: SharedEngine,
}

impl Workload for SessionsMixed {
    const NAME: &'static str = "sessions_mixed";
    const FSYNC_MICROS: u64 = 200;
    const COMMITS_PER_OP: f64 = 1.0;
    type Client = Client;

    fn new(seed: u64, quick: bool) -> Self {
        let tree = Tree::new(if quick { 6 } else { 8 }, &mut Rng::new(seed, 1));
        let answer = tree.descendants(QUERY_NODE);
        SessionsMixed {
            tree,
            answer,
            staged: None,
        }
    }

    fn warmup_ops(&self) -> u64 {
        40
    }

    fn stage(&mut self) {
        self.staged = Some(self.tree.rows());
    }

    fn setup(&mut self) -> Result<Vec<Client>, String> {
        let rows = self.staged.take().ok_or("setup without stage")?;
        // Group commit and key-granular validation are the shared
        // engine's defaults; the fsync price comes from the pinned
        // RDBMS_FSYNC_MICROS, read here.
        let shared = SharedEngine::new(Engine::new());
        let mut boot = Session::attach(&shared, SessionConfig::default()).map_err(err)?;
        boot.define_base("parent", &binary_sym()).map_err(err)?;
        boot.db_execute("CREATE INDEX parent_c0 ON parent (c0)")
            .map_err(err)?;
        boot.load_facts("parent", rows).map_err(err)?;
        boot.define_base("audit", &binary_sym()).map_err(err)?;
        boot.load_rules(&workload::ancestor_program("parent"))
            .map_err(err)?;
        boot.commit_workspace().map_err(err)?;
        drop(boot);
        (0..CLIENTS)
            .map(|_| {
                // Magic sets keep the query to the subtree it asks about,
                // so the round is not dominated by LFP evaluation.
                let config = SessionConfig {
                    optimize: true,
                    ..SessionConfig::default()
                };
                Ok(Client {
                    session: Session::attach(&shared, config).map_err(err)?,
                    shared: shared.clone(),
                })
            })
            .collect()
    }

    fn op(&self, cl: &mut Client, c: usize, i: u64, t: &mut Tracer) -> Result<Digest, String> {
        let s = &mut cl.session;
        t.call("rdbms.concurrent.refresh", || s.backend_mut().refresh())
            .map_err(err)?;

        let fact = format!("audit(k{c}_{i}, v{i}).\n");
        t.call("km.session.load_rules", || s.load_rules(&fact))
            .map_err(err)?;
        let u = t
            .call("km.session.commit_workspace", || s.commit_workspace())
            .map_err(err)?;
        // What the commit took beyond the update algorithm itself: the
        // transaction's begin (one more fork), the dictionary read, and
        // DbSession::commit (validate, replay, group-commit wait).
        t.note(
            "rdbms.concurrent.commit_us",
            (ms(t.last_call()) - ms(u.total)).max(0.0) * 1e3,
        );
        record_update(t, &u);
        if u.facts_stored != 1 {
            return Err(format!("round {i}: commit stored {} facts", u.facts_stored));
        }

        let query = format!("?- anc({}, W).", self.tree.label(QUERY_NODE));
        let compiled = t
            .call("km.session.compile", || s.compile(&query))
            .map_err(err)?;
        record_compile(t, &compiled.timings);
        // The snapshot engine is re-forked by every refresh, so its
        // counters are only comparable within one call: sample them
        // around the execution alone.
        let before = t.recording().then(|| sample(&s.engine().metrics()));
        let r = t
            .call("km.session.execute", || s.execute(&compiled))
            .map_err(err)?;
        record_execute(t, &r);
        if let Some(before) = before {
            let after = sample(&s.engine().metrics());
            t.op_delta(&before, &after);
        }
        self.answer.expect(Digest::of(&r.rows), &query)
    }

    /// The live engine: the durable side, where commits are replayed,
    /// logged and fsynced. The sessions' evaluation work runs on their
    /// snapshot forks and is sampled per execution in [`Workload::op`].
    fn phase_registry(&self, clients: &[Client]) -> Registry {
        clients[0].shared.metrics()
    }

    fn facts(&self, clients: &[Client]) -> Vec<(&'static str, f64)> {
        let (mut commits, mut conflicts) = (0, 0);
        for cl in clients {
            let (c, x) = cl.session.commit_counters();
            commits += c;
            conflicts += x;
        }
        vec![
            ("mvcc_commits", commits as f64),
            ("mvcc_conflicts", conflicts as f64),
        ]
    }

    fn finish(&self, clients: &mut [Client], ops: u64) -> Result<(), String> {
        let s = &mut clients[0].session;
        s.backend_mut().refresh().map_err(err)?;
        let audit = s
            .db_execute("SELECT COUNT(*) FROM audit")
            .map_err(err)?
            .scalar_int();
        if audit != Some(ops as i64) {
            return Err(format!(
                "audit holds {audit:?} facts after {ops} committed rounds"
            ));
        }
        Ok(())
    }
}
