//! `adhoc_query`: one fresh `Session::query` (compile + execute) per op
//! against a magic-sets session holding the depth-11 tree, the ancestor
//! rules in its workspace and 2 000 stored chain rules.
//!
//! Query-at-a-time, a millisecond or two each: parsing, rule extraction,
//! dictionary reads, evaluation-order and SQL generation (paper Figures
//! 7-10, Table 4), the magic rewrite, and per-statement parse/plan cost
//! dominate; few rows are touched. A change to the row hot path should
//! leave it flat; a planner or compile change should move it.
//!
//! The mix is fixed per op index so every seed does the same amount of
//! work: even ops ask `?- anc(<node>, W).` with the node's level cycling
//! 4, 5, .. depth-1 (the seed picks the node within the level; subtrees
//! of one level are the same size), odd ops ask a chain query whose
//! start position cycles 0, 5, 10, 15 (20, 15, 10, 5 relevant rules; the
//! seed picks the chain).

use super::{err, record_compile, record_execute, Tree, Workload};
use crate::check::{sym, Digest, Rng};
use crate::trace::Tracer;
use hornlog::Clause;
use km::session::{binary_sym, Session, SessionConfig};
use rdbms::{Registry, Value};

pub const CHAIN_LEN: usize = 20;

/// The two-edge `base` relation under every chain rule: `a -> b -> c`.
pub fn base_rows() -> Vec<Vec<Value>> {
    vec![vec![sym("a"), sym("b")], vec![sym("b"), sym("c")]]
}

/// Define `base` and commit `clauses` (a chain rule base) into the
/// stored D/KB, leaving the workspace empty.
pub fn store_chain_rules(s: &mut Session, clauses: Vec<Clause>) -> Result<(), String> {
    s.define_base("base", &binary_sym()).map_err(err)?;
    s.load_facts("base", base_rows()).map_err(err)?;
    for clause in clauses {
        s.workspace_mut().add_clause(clause);
    }
    s.commit_workspace().map_err(err)?;
    s.workspace_mut().clear();
    Ok(())
}

pub struct AdhocQuery {
    seed: u64,
    tree: Tree,
    chains: usize,
    rules: Vec<Clause>,
    chain_answer: Digest,
    staged: Option<(Vec<Vec<Value>>, Vec<Clause>)>,
}

impl Workload for AdhocQuery {
    const NAME: &'static str = "adhoc_query";
    type Client = Session;

    fn new(seed: u64, quick: bool) -> Self {
        let (depth, chains) = if quick { (8, 10) } else { (11, 100) };
        let mut chain_answer = Digest::default();
        chain_answer.add(&[sym("b")]);
        AdhocQuery {
            seed,
            tree: Tree::new(depth, &mut Rng::new(seed, 1)),
            chains,
            rules: workload::chain_rule_base(chains, CHAIN_LEN, "base").clauses,
            chain_answer,
            staged: None,
        }
    }

    fn warmup_ops(&self) -> u64 {
        56
    }

    fn stage(&mut self) {
        self.staged = Some((self.tree.rows(), self.rules.clone()));
    }

    fn setup(&mut self) -> Result<Vec<Session>, String> {
        let (rows, rules) = self.staged.take().ok_or("setup without stage")?;
        let mut s = Session::new(SessionConfig {
            optimize: true,
            ..SessionConfig::default()
        })
        .map_err(err)?;
        store_chain_rules(&mut s, rules)?;
        s.define_base("parent", &binary_sym()).map_err(err)?;
        s.db_execute("CREATE INDEX parent_c0 ON parent (c0)")
            .map_err(err)?;
        s.load_facts("parent", rows).map_err(err)?;
        s.load_rules(&workload::ancestor_program("parent"))
            .map_err(err)?;
        Ok(vec![s])
    }

    fn op(&self, s: &mut Session, _c: usize, i: u64, t: &mut Tracer) -> Result<Digest, String> {
        let mut rng = Rng::new(self.seed, 1000 + i);
        let (query, expected) = if i.is_multiple_of(2) {
            let levels = u64::from(self.tree.depth) - 4;
            let level = 4 + ((i / 2) % levels) as u32;
            let span = self.tree.level(level);
            let node = span.start + rng.below(u64::from(span.end - span.start)) as u32;
            (
                format!("?- anc({}, W).", self.tree.label(node)),
                self.tree.descendants(node),
            )
        } else {
            let chain = rng.below(self.chains as u64) as usize;
            let start = ((i / 2) % 4) as usize * 5;
            (
                workload::rules::chain_query(chain, start, "a"),
                self.chain_answer,
            )
        };
        let compiled = t
            .call("km.session.compile", || s.compile(&query))
            .map_err(err)?;
        record_compile(t, &compiled.timings);
        let r = t
            .call("km.session.execute", || s.execute(&compiled))
            .map_err(err)?;
        record_execute(t, &r);
        expected.expect(Digest::of(&r.rows), &query)
    }

    fn op_registry(&self, s: &Session) -> Option<Registry> {
        Some(s.engine().metrics())
    }

    fn phase_registry(&self, clients: &[Session]) -> Registry {
        clients[0].engine().metrics()
    }
}
