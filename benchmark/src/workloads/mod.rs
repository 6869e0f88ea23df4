//! The six workloads. Each is a closed loop: a client issues its next op
//! only when the previous one has returned, as callers of an embedded
//! library do. Op `i` is a function of `(seed, i)` alone, so a run that
//! measures longer runs more ops, never different ones.

use crate::check::{sym, Digest, Rng};
use crate::trace::Tracer;
use km::session::{CompileTimings, CompiledQuery, QueryResult, Session};
use km::UpdateTimings;
use rdbms::{Registry, Value};

pub mod adhoc_query;
pub mod dkb_update;
pub mod lfp_scale;
pub mod lfp_tree;
pub mod sessions_mixed;
pub mod sql_engine;

pub const NAMES: [&str; 6] = [
    "lfp_tree",
    "lfp_scale",
    "adhoc_query",
    "dkb_update",
    "sql_engine",
    "sessions_mixed",
];

pub trait Workload: Sync + Sized {
    const NAME: &'static str;
    /// Simulated fsync latency the shared engine prices (µs); only
    /// `sessions_mixed` has a shared engine, so only it sets one.
    const FSYNC_MICROS: u64 = 0;
    /// `Session::commit_workspace` calls per op, for the per-commit ratios.
    const COMMITS_PER_OP: f64 = 0.0;

    /// One client's handle on the program; clients run on their own threads.
    type Client: Send;

    /// Generate the inputs and the reference answers from the seed. No
    /// call into the program happens here, and none of it is timed.
    fn new(seed: u64, quick: bool) -> Self;

    /// Ops run before measuring, checked like any other but never
    /// timed: they fill plan caches, and their chained digest is what
    /// the expected-answer files pin. A multiple of the client count.
    fn warmup_ops(&self) -> u64;

    /// Materialise the rows the next [`Workload::setup`] will hand to the
    /// program (harness work, kept out of `setup_s`).
    fn stage(&mut self);

    /// Build the database, rule base and sessions: everything before the
    /// first op. Timed as `setup_s`.
    fn setup(&mut self) -> Result<Vec<Self::Client>, String>;

    /// Run op `i` on `client` (number `c`), check its answer, and return
    /// the answer's digest. Calls into the program go through
    /// [`Tracer::call`]; everything else is the harness's own time.
    fn op(
        &self,
        client: &mut Self::Client,
        c: usize,
        i: u64,
        t: &mut Tracer,
    ) -> Result<Digest, String>;

    /// The registry whose delta across an op belongs to that op alone,
    /// where there is one (a private engine).
    fn op_registry(&self, _client: &Self::Client) -> Option<Registry> {
        None
    }

    /// The registry whose delta across the measured phase gives the
    /// workload's totals.
    fn phase_registry(&self, clients: &[Self::Client]) -> Registry;

    /// Named totals the registries do not hold (commit counters of the
    /// sessions, recompilations); deltas across the phase are reported.
    fn facts(&self, _clients: &[Self::Client]) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Checks of the final state, after `ops` ops in all (warm-up too).
    fn finish(&self, _clients: &mut [Self::Client], _ops: u64) -> Result<(), String> {
        Ok(())
    }
}

/// The client of the two LFP workloads: a session and the one query,
/// compiled in set-up, that every op executes again.
pub struct CompiledClient {
    pub session: Session,
    pub compiled: CompiledQuery,
}

impl CompiledClient {
    /// Execute the query once and hold its answer against `expected`.
    pub fn execute(&mut self, t: &mut Tracer, expected: Digest) -> Result<Digest, String> {
        let CompiledClient { session, compiled } = self;
        let r = t
            .call("km.session.execute", || session.execute(compiled))
            .map_err(err)?;
        record_execute(t, &r);
        expected.expect(Digest::of(&r.rows), "?- anc(X, Y).")
    }

    pub fn registry(&self) -> Registry {
        self.session.engine().metrics()
    }
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A full binary tree whose node labels come from the seed: heap index
/// `i` (root 1, children `2i` and `2i + 1`) carries the label `n<p(i)>`
/// for a seeded permutation `p`, zero-padded to one width.
///
/// Only the labels depend on the seed. Shape, insertion order (heap
/// order) and label length do not, so every seed asks the program for
/// the same amount of work and a difference between two runs is never
/// the input's. (With seeded insertion order and unpadded labels the
/// same commit differed by 5-15% from seed to seed, against 2% from run
/// to run on one seed.)
pub struct Tree {
    pub depth: u32,
    label: Vec<String>,
}

impl Tree {
    pub fn new(depth: u32, rng: &mut Rng) -> Tree {
        let nodes = (1u32 << depth) - 1;
        let width = nodes.to_string().len();
        let mut perm: Vec<u32> = (1..=nodes).collect();
        rng.shuffle(&mut perm);
        let mut label = vec![String::new()];
        label.extend(perm.iter().map(|p| format!("n{p:0width$}")));
        Tree { depth, label }
    }

    pub fn label(&self, node: u32) -> &str {
        &self.label[node as usize]
    }

    /// The `parent(par, child)` rows, in heap order.
    pub fn rows(&self) -> Vec<Vec<Value>> {
        (2..self.label.len() as u32)
            .map(|c| vec![sym(self.label(c / 2)), sym(self.label(c))])
            .collect()
    }

    /// Nodes on `level` (root = level 1): heap indices `2^(l-1) .. 2^l`.
    pub fn level(&self, level: u32) -> std::ops::Range<u32> {
        (1 << (level - 1))..(1 << level)
    }

    /// Digest of the whole `anc` relation: every (ancestor, node) pair,
    /// found by walking each node's parent chain. `Σ_l 2^(l-1)·(l-1)` rows.
    pub fn closure(&self) -> Digest {
        let mut d = Digest::default();
        for node in 2..self.label.len() as u32 {
            let mut up = node / 2;
            while up >= 1 {
                d.add(&[sym(self.label(up)), sym(self.label(node))]);
                up /= 2;
            }
        }
        d
    }

    /// Digest of `?- anc(<node>, W).`: one row per descendant.
    pub fn descendants(&self, node: u32) -> Digest {
        let mut d = Digest::default();
        let (mut lo, mut hi) = (2 * node, 2 * node + 1);
        while (lo as usize) < self.label.len() {
            for n in lo..=hi {
                d.add(&[sym(self.label(n))]);
            }
            lo *= 2;
            hi = 2 * hi + 1;
        }
        d
    }
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Children and notes of a `km.session.compile` span, from the timings
/// the call returned (paper Table 4's split of t_c).
pub fn record_compile(t: &mut Tracer, tm: &CompileTimings) {
    t.children(&[
        ("km.session.t_setup", tm.t_setup),
        ("km.session.t_extract", tm.t_extract),
        ("km.session.t_read", tm.t_read),
        ("km.session.t_eol", tm.t_eol),
        ("km.session.t_gen", tm.t_gen),
    ]);
}

/// Children and notes of a `km.session.execute` span (paper Table 5's
/// split of t_e).
pub fn record_execute(t: &mut Tracer, r: &QueryResult) {
    let bd = &r.outcome.breakdown;
    t.children(&[
        ("km.runtime.t_temp", bd.t_temp_tables),
        ("km.runtime.t_eval_rhs", bd.t_eval_rhs),
        ("km.runtime.t_term", bd.t_termination),
    ]);
    note_execute(t, r);
}

/// What an execution reports that is not an interval of its own: loop
/// counts, and Figure 14's magic/modified split (it covers the same
/// interval as Table 5's split, so only one of the two can be spans).
pub fn note_execute(t: &mut Tracer, r: &QueryResult) {
    let bd = &r.outcome.breakdown;
    t.note("km.magic.eval_ms", ms(r.magic_time()));
    t.note("km.runtime.modified_eval_ms", ms(r.modified_time()));
    t.note("km.runtime.iterations", bd.iterations as f64);
    t.note(
        "km.runtime.stmts",
        (bd.n_temp_ops + bd.n_eval_stmts + bd.n_term_checks) as f64,
    );
    t.note("km.runtime.tuples_produced", bd.tuples_produced as f64);
}

/// Children of a `km.session.commit_workspace` span (paper Table 8's
/// split of t_u).
pub fn record_update(t: &mut Tracer, u: &UpdateTimings) {
    t.children(&[
        ("km.update.t_extract", u.t_extract),
        ("km.update.t_tc", u.t_tc),
        ("km.update.t_compiled_store", u.t_compiled_store),
        ("km.update.t_source_store", u.t_source_store),
        ("km.update.t_facts", u.t_facts),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_reference_matches_closed_forms() {
        let t = Tree::new(5, &mut Rng::new(42, 1));
        // Σ_{l=1..5} 2^(l-1)·(l-1) = 0 + 2 + 8 + 24 + 64
        assert_eq!(t.closure().rows, 98);
        assert_eq!(t.rows().len(), 30);
        assert_eq!(t.descendants(1).rows, 30);
        assert_eq!(t.descendants(4).rows, 6);
        assert_eq!(t.descendants(16).rows, 0);
        assert_eq!(t.level(3), 4..8);
        // Labels are a permutation: all distinct.
        let mut labels: Vec<&str> = (1..32).map(|i| t.label(i)).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 31);
        // Another seed relabels, so checksums differ while counts agree.
        let u = Tree::new(5, &mut Rng::new(7, 1));
        assert_eq!(u.closure().rows, 98);
        assert_ne!(u.closure().sum, t.closure().sum);
    }
}
