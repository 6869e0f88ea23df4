//! `dkb_update`: one durable `Session::commit_workspace` per op into the
//! same 2 000-rule stored D/KB that `adhoc_query` reads.
//!
//! The write side of the layer `adhoc_query` exercises: compiled rule
//! storage (`reachablepreds`) keeps extraction flat but makes updates
//! dearer (paper Figure 15, Table 8). A change that speeds compilation
//! by doing more at update time shows here as a slower op and more WAL
//! bytes per commit.
//!
//! Each op stages one new rule `u<i>(X, Y) :- g<chain>_p<k>(X, Y).` (`k`
//! cycles 0, 5, 10, 15; the seed picks the chain), commits and clears
//! the workspace. Every tenth op hangs its rule on chain 0, stages eight
//! facts for the base relation `ledger` as well, and then re-runs the
//! prepared query over chain 0 that this commit has just invalidated
//! (recompile + execute), so the tail of the op latency is the
//! invalidation path.
//!
//! A commit scans `reachablepreds`, which every op lengthens, so op
//! latency grows with the ops already done: left alone, a run that
//! measures longer (or on a faster machine) would measure a bigger D/KB.
//! The stored D/KB is therefore rebuilt, untimed, every
//! [`REBUILD_EVERY`] ops, and stays between 2 000 and 2 250 rules however
//! long the run is. Engine counters carry over a rebuild, less the
//! rebuild's own work.

use super::adhoc_query::{store_chain_rules, CHAIN_LEN};
use super::{err, note_execute, record_update, Workload};
use crate::check::{sym, Digest, Rng};
use crate::trace::Tracer;
use hornlog::Clause;
use km::session::{binary_sym, Session, SessionConfig};
use rdbms::{Metric, Registry};
use std::collections::BTreeMap;

const FACTS_PER_TENTH_OP: u64 = 8;
const PREPARED: &str = "chain0";
const REBUILD_EVERY: u64 = 250;

pub struct DkbUpdate {
    seed: u64,
    chains: usize,
    rules: Vec<Clause>,
    answer: Digest,
    staged: Option<Vec<Clause>>,
}

pub struct Client {
    session: Session,
    /// Per counter: what rebuilt-away engines counted, less what the
    /// current engine had already counted when its build finished.
    carry: BTreeMap<String, i64>,
    recompilations: u64,
}

fn counters(s: &Session) -> Vec<(String, i64)> {
    s.engine()
        .metrics()
        .iter()
        .filter_map(|(name, m)| match m {
            Metric::Counter(v) => Some((name.to_string(), *v as i64)),
            _ => None,
        })
        .collect()
}

impl Client {
    /// The engine's counters as if the engine had never been rebuilt.
    fn registry(&self) -> Registry {
        let mut out = Registry::new();
        for (name, v) in counters(&self.session) {
            let carried = self.carry.get(&name).copied().unwrap_or(0);
            out.counter(&name, (v + carried).max(0) as u64);
        }
        out
    }
}

fn build(rules: Vec<Clause>) -> Result<Session, String> {
    let mut s = Session::new(SessionConfig {
        durability: true,
        ..SessionConfig::default()
    })
    .map_err(err)?;
    store_chain_rules(&mut s, rules)?;
    s.define_base("ledger", &binary_sym()).map_err(err)?;
    s.prepare(PREPARED, &workload::rules::chain_query(0, 0, "a"))
        .map_err(err)?;
    Ok(s)
}

impl Workload for DkbUpdate {
    const NAME: &'static str = "dkb_update";
    const COMMITS_PER_OP: f64 = 1.0;
    type Client = Client;

    fn new(seed: u64, quick: bool) -> Self {
        let chains = if quick { 10 } else { 100 };
        let mut answer = Digest::default();
        answer.add(&[sym("b")]);
        DkbUpdate {
            seed,
            chains,
            rules: workload::chain_rule_base(chains, CHAIN_LEN, "base").clauses,
            answer,
            staged: None,
        }
    }

    fn warmup_ops(&self) -> u64 {
        40
    }

    fn stage(&mut self) {
        self.staged = Some(self.rules.clone());
    }

    fn setup(&mut self) -> Result<Vec<Client>, String> {
        let rules = self.staged.take().ok_or("setup without stage")?;
        Ok(vec![Client {
            session: build(rules)?,
            carry: BTreeMap::new(),
            recompilations: 0,
        }])
    }

    fn op(&self, cl: &mut Client, _c: usize, i: u64, t: &mut Tracer) -> Result<Digest, String> {
        if i > 0 && i.is_multiple_of(REBUILD_EVERY) {
            let started = std::time::Instant::now();
            for (name, v) in counters(&cl.session) {
                *cl.carry.entry(name).or_default() += v;
            }
            cl.recompilations += cl.session.recompilations();
            cl.session = build(self.rules.clone())?;
            for (name, v) in counters(&cl.session) {
                *cl.carry.entry(name).or_default() -= v;
            }
            t.exclude(started.elapsed());
        }
        let s = &mut cl.session;
        let tenth = i % 10 == 9;
        let chain = if tenth {
            0
        } else {
            Rng::new(self.seed, 1000 + i).below(self.chains as u64) as usize
        };
        let k = (i % 4) as usize * 5;
        let mut staged = format!("u{i}(X, Y) :- g{chain}_p{k}(X, Y).\n");
        if tenth {
            for j in 0..FACTS_PER_TENTH_OP {
                staged.push_str(&format!("ledger(op{i}, f{j}).\n"));
            }
        }
        t.call("km.session.load_rules", || s.load_rules(&staged))
            .map_err(err)?;
        let u = t
            .call("km.session.commit_workspace", || s.commit_workspace())
            .map_err(err)?;
        record_update(t, &u);
        s.workspace_mut().clear();
        let facts = if tenth { FACTS_PER_TENTH_OP } else { 0 };
        if u.rules_stored != 1 || u.facts_stored != facts {
            return Err(format!(
                "op {i}: commit stored {} rule(s) and {} fact(s), expected 1 and {facts}",
                u.rules_stored, u.facts_stored
            ));
        }
        let mut digest = Digest {
            rows: 1 + facts,
            sum: i,
        };
        if tenth {
            if s.prepared_is_valid(PREPARED) != Some(false) {
                return Err(format!("op {i}: the commit left the prepared query valid"));
            }
            let r = t
                .call("km.session.execute_prepared", || {
                    s.execute_prepared(PREPARED)
                })
                .map_err(err)?;
            // The evaluation inside the call; what is left of the span
            // is the recompilation the invalidation forced.
            t.children(&[("km.session.execute", r.t_execute)]);
            note_execute(t, &r);
            digest.chain(
                self.answer
                    .expect(Digest::of(&r.rows), "prepared chain query")?,
            );
        }
        Ok(digest)
    }

    fn op_registry(&self, cl: &Client) -> Option<Registry> {
        Some(cl.registry())
    }

    fn phase_registry(&self, clients: &[Client]) -> Registry {
        clients[0].registry()
    }

    fn facts(&self, clients: &[Client]) -> Vec<(&'static str, f64)> {
        let cl = &clients[0];
        vec![(
            "recompilations",
            (cl.recompilations + cl.session.recompilations()) as f64,
        )]
    }

    fn finish(&self, clients: &mut [Client], ops: u64) -> Result<(), String> {
        let s = &mut clients[0].session;
        s.verify_integrity().map_err(err)?;
        let count = |s: &mut Session, table: &str| -> Result<u64, String> {
            s.db_execute(&format!("SELECT COUNT(*) FROM {table}"))
                .map_err(err)?
                .scalar_int()
                .map(|n| n as u64)
                .ok_or_else(|| format!("COUNT(*) on {table} returned no integer"))
        };
        // The ops since the last rebuild are the ones in this D/KB.
        let rebuilt_at = ops.saturating_sub(1) / REBUILD_EVERY * REBUILD_EVERY;
        let rules = count(s, "rulesource")?;
        let want_rules = (self.chains * CHAIN_LEN) as u64 + (ops - rebuilt_at);
        let ledger = count(s, "ledger")?;
        let want_ledger =
            (rebuilt_at..ops).filter(|i| i % 10 == 9).count() as u64 * FACTS_PER_TENTH_OP;
        if rules != want_rules || ledger != want_ledger {
            return Err(format!(
                "after {ops} ops: {rules} stored rules (expected {want_rules}), \
                 {ledger} ledger facts (expected {want_ledger})"
            ));
        }
        Ok(())
    }
}
