//! Metric names and the per-layer numbers of a traced run.
//!
//! The module names of the program are the layers. Every number here is
//! taken from outside the program: span durations (wall time around a
//! public call, or a duration that call returned), and before/after
//! deltas of the public metrics registries. Times are medians over the
//! traced ops (nearest rank); counts are the measured phase's total
//! divided by its ops.

use crate::stats::{percentile, sorted};
use crate::trace::{tracked, Counters, Span, NO_PARENT};
use rdbms::Registry;

/// End-to-end metrics, printed by a run with tracing off. Every
/// workload reports every one of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by a traced run. A layer a workload never
/// enters reads 0 there; that is the "predicted flat" column made
/// visible.
pub const PER_LAYER: [(&str, &str); 76] = [
    // The op's tail over the whole phase. Not an end-to-end metric: two
    // workloads have too few ops for a p95 (it is their slowest op), and
    // on a shared host it spread by up to 10% between seeds.
    ("op_ms.p95", "ms"),
    // The paper's quantities: compile, execute, update.
    ("t_c_ms.p50", "ms"),
    ("t_e_ms.p50", "ms"),
    ("t_e_ms.p95", "ms"),
    ("t_u_ms.p50", "ms"),
    ("t_u_ms.p95", "ms"),
    ("derived_tuples_per_s", "1/s"),
    ("wal_bytes_per_update", "B"),
    // km::session — Table 4's split of t_c.
    ("km.session.t_setup_us", "us"),
    ("km.session.t_extract_us", "us"),
    ("km.session.t_read_us", "us"),
    ("km.session.t_eol_us", "us"),
    ("km.session.t_gen_us", "us"),
    ("km.session.compile_coverage", "ratio"),
    ("km.session.recompilations", "count"),
    // km::magic / km::runtime — Figure 14's and Table 5's splits of t_e.
    ("km.magic.eval_ms", "ms"),
    ("km.runtime.modified_eval_ms", "ms"),
    ("km.runtime.t_temp_ms", "ms"),
    ("km.runtime.t_eval_rhs_ms", "ms"),
    ("km.runtime.t_term_ms", "ms"),
    ("km.runtime.glue_ms", "ms"),
    ("km.runtime.breakdown_coverage", "ratio"),
    ("km.runtime.iterations", "count"),
    ("km.runtime.stmts_per_exec", "count"),
    ("km.runtime.tuples_produced", "count"),
    // km::update — Table 8's split of t_u.
    ("km.update.t_extract_us", "us"),
    ("km.update.t_tc_us", "us"),
    ("km.update.t_compiled_store_us", "us"),
    ("km.update.t_source_store_us", "us"),
    ("km.update.t_facts_us", "us"),
    ("km.update.coverage", "ratio"),
    // rdbms::sql / plan / engine — per-statement cost.
    ("rdbms.sql.parse_ms", "ms"),
    ("rdbms.plan.plan_ms", "ms"),
    ("rdbms.plan.cache_hit_rate", "ratio"),
    ("rdbms.plan.replans", "count"),
    ("rdbms.engine.statements", "count"),
    // rdbms::exec — row work.
    ("rdbms.exec.exec_ms", "ms"),
    ("rdbms.exec.tuples_scanned", "count"),
    ("rdbms.exec.tuples_fetched", "count"),
    ("rdbms.exec.index_probes", "count"),
    ("rdbms.exec.join_output", "count"),
    ("rdbms.exec.rows_output", "count"),
    ("rdbms.exec.rows_examined_per_result", "ratio"),
    ("rdbms.exec.batches", "count"),
    ("rdbms.exec.join_adaptive_flips", "count"),
    // Statement classes of `sql_engine`.
    ("rdbms.exec.hash_join_ms", "ms"),
    ("rdbms.spill.grace_join_ms", "ms"),
    ("rdbms.exec.sort_distinct_ms", "ms"),
    ("rdbms.heap.scan_filter_ms", "ms"),
    ("rdbms.index.point_lookup_us", "us"),
    ("rdbms.index.range_ms", "ms"),
    ("rdbms.heap.bulk_insert_ms", "ms"),
    ("rdbms.engine.delete_where_ms", "ms"),
    ("rdbms.engine.tc_operator_ms", "ms"),
    ("rdbms.exec.spill_partitions", "count"),
    ("rdbms.exec.spill_bytes", "B"),
    ("rdbms.exec.sort_runs", "count"),
    // rdbms::buffer / disk.
    ("rdbms.buffer.hit_rate", "ratio"),
    ("rdbms.buffer.misses", "count"),
    ("rdbms.buffer.evictions", "count"),
    ("rdbms.disk.pages_read", "count"),
    ("rdbms.disk.pages_written", "count"),
    // rdbms::wal.
    ("rdbms.wal.bytes", "B"),
    ("rdbms.wal.records", "count"),
    ("rdbms.wal.fsyncs", "count"),
    ("rdbms.wal.checkpoints", "count"),
    ("rdbms.wal.fsyncs_per_commit", "ratio"),
    // rdbms::concurrent.
    ("rdbms.concurrent.refresh_us", "us"),
    ("rdbms.concurrent.commit_us.p50", "us"),
    ("rdbms.concurrent.commit_us.p95", "us"),
    ("rdbms.concurrent.conflicts_per_commit", "ratio"),
    ("rdbms.concurrent.group_commit_batch", "ratio"),
    ("rdbms.concurrent.client_busy_share", "ratio"),
    // rdbms::stats.
    ("rdbms.stats.refreshes", "count"),
    ("rdbms.stats.sampled_rows", "count"),
    // The traced run's own cost: 1 - traced / untraced op rate.
    ("trace.overhead_share", "ratio"),
];

/// Everything a traced measured phase produced.
pub struct Phase<'a> {
    /// Spans of all clients, parents shifted ([`crate::trace::merged`]).
    pub spans: &'a [Span],
    pub notes: &'a [(u64, &'static str, f64)],
    pub op_counters: &'a [Counters],
    pub before: &'a Registry,
    pub after: &'a Registry,
    /// Deltas of the workload's [`crate::workloads::Workload::facts`].
    pub facts: &'a [(&'static str, f64)],
    /// Latency (ms) of every measured op, traced or not, ascending.
    pub op_latencies_ms: &'a [f64],
    /// Ops measured, traced or not, all clients.
    pub ops: u64,
    pub commits_per_op: f64,
    pub clients: usize,
    pub wall_s: f64,
    pub busy_s: f64,
    pub overhead_share: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Phase<'_> {
    fn durs_ns(&self, name: &str) -> Vec<f64> {
        sorted(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64)
                .collect(),
        )
    }

    /// Nearest-rank percentile of the spans called `name`, in `unit_ns`.
    fn span_p(&self, name: &str, p: f64, unit_ns: f64) -> f64 {
        percentile(&self.durs_ns(name), p) / unit_ns
    }

    fn note_values(&self, name: &str) -> Vec<f64> {
        sorted(
            self.notes
                .iter()
                .filter(|n| n.1 == name)
                .map(|n| n.2)
                .collect(),
        )
    }

    fn note_p(&self, name: &str, p: f64) -> f64 {
        percentile(&self.note_values(name), p)
    }

    /// Mean of a note over the calls that reported it.
    fn note_mean(&self, name: &str) -> f64 {
        let v = self.note_values(name);
        ratio(v.iter().sum(), v.len() as f64)
    }

    /// Per span: how much of it its children cover (ns).
    fn covered(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.dur_ns();
            }
        }
        covered
    }

    /// Per span called `parent` that has children: the share of it its
    /// children cover, and what they leave (ns). Both ascending.
    fn cover(&self, covered: &[u64], parent: &str) -> (Vec<f64>, Vec<f64>) {
        let (mut share, mut rest) = (Vec::new(), Vec::new());
        for (s, &c) in self.spans.iter().zip(covered) {
            if s.name == parent && c > 0 {
                share.push(ratio(c as f64, s.dur_ns() as f64));
                rest.push(s.dur_ns().saturating_sub(c) as f64);
            }
        }
        (sorted(share), sorted(rest))
    }

    /// Phase total of a registry counter.
    fn total(&self, name: &str) -> f64 {
        self.after
            .counter_value(name)
            .saturating_sub(self.before.counter_value(name)) as f64
    }

    fn per_op(&self, name: &str) -> f64 {
        ratio(self.total(name), self.ops as f64)
    }

    /// Median over the traced ops of one tracked counter's delta.
    fn op_median(&self, name: &str) -> f64 {
        let i = tracked(name);
        let v = sorted(self.op_counters.iter().map(|c| c[i] as f64).collect());
        percentile(&v, 50.0)
    }

    fn fact(&self, name: &str) -> f64 {
        self.facts.iter().find(|f| f.0 == name).map_or(0.0, |f| f.1)
    }

    /// One value per [`PER_LAYER`] entry, in that order.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let commits = self.ops as f64 * self.commits_per_op;
        let exec_s: f64 = self.durs_ns("km.session.execute").iter().sum::<f64>() / 1e9;
        let tuples: f64 = self.note_values("km.runtime.tuples_produced").iter().sum();
        let covered = self.covered();
        let (compile_cov, _) = self.cover(&covered, "km.session.compile");
        let (exec_cov, glue) = self.cover(&covered, "km.session.execute");
        let (update_cov, _) = self.cover(&covered, "km.session.commit_workspace");
        let hits = self.total("exec.plan_cache_hits");
        let misses = self.total("exec.plan_cache_misses");
        let buf_hits = self.total("buffer.hits");
        let buf_misses = self.total("buffer.misses");
        let values: [f64; PER_LAYER.len()] = [
            percentile(self.op_latencies_ms, 95.0),
            self.span_p("km.session.compile", 50.0, 1e6),
            self.span_p("km.session.execute", 50.0, 1e6),
            self.span_p("km.session.execute", 95.0, 1e6),
            self.span_p("km.session.commit_workspace", 50.0, 1e6),
            self.span_p("km.session.commit_workspace", 95.0, 1e6),
            ratio(tuples, exec_s),
            ratio(self.total("wal.bytes"), commits),
            self.span_p("km.session.t_setup", 50.0, 1e3),
            self.span_p("km.session.t_extract", 50.0, 1e3),
            self.span_p("km.session.t_read", 50.0, 1e3),
            self.span_p("km.session.t_eol", 50.0, 1e3),
            self.span_p("km.session.t_gen", 50.0, 1e3),
            percentile(&compile_cov, 50.0),
            ratio(self.fact("recompilations"), self.ops as f64),
            self.note_p("km.magic.eval_ms", 50.0),
            self.note_p("km.runtime.modified_eval_ms", 50.0),
            self.span_p("km.runtime.t_temp", 50.0, 1e6),
            self.span_p("km.runtime.t_eval_rhs", 50.0, 1e6),
            self.span_p("km.runtime.t_term", 50.0, 1e6),
            percentile(&glue, 50.0) / 1e6,
            percentile(&exec_cov, 50.0),
            self.note_mean("km.runtime.iterations"),
            self.note_mean("km.runtime.stmts"),
            self.note_mean("km.runtime.tuples_produced"),
            self.span_p("km.update.t_extract", 50.0, 1e3),
            self.span_p("km.update.t_tc", 50.0, 1e3),
            self.span_p("km.update.t_compiled_store", 50.0, 1e3),
            self.span_p("km.update.t_source_store", 50.0, 1e3),
            self.span_p("km.update.t_facts", 50.0, 1e3),
            percentile(&update_cov, 50.0),
            self.op_median("exec.parse_ns") / 1e6,
            self.op_median("exec.plan_ns") / 1e6,
            ratio(hits, hits + misses),
            self.per_op("exec.plan_replans"),
            self.per_op("engine.statements"),
            self.op_median("exec.exec_ns") / 1e6,
            self.per_op("exec.tuples_scanned"),
            self.per_op("exec.tuples_fetched"),
            self.per_op("exec.index_probes"),
            self.per_op("exec.join_output"),
            self.per_op("exec.rows_output"),
            ratio(
                self.total("exec.tuples_scanned") + self.total("exec.tuples_fetched"),
                self.total("exec.rows_output"),
            ),
            self.per_op("exec.batches"),
            self.per_op("exec.join_adaptive_flips"),
            self.span_p("rdbms.exec.hash_join", 50.0, 1e6),
            self.span_p("rdbms.spill.grace_join", 50.0, 1e6),
            self.span_p("rdbms.exec.sort_distinct", 50.0, 1e6),
            self.span_p("rdbms.heap.scan_filter", 50.0, 1e6),
            self.note_p("rdbms.index.point_lookup_us", 50.0),
            self.span_p("rdbms.index.range", 50.0, 1e6),
            self.span_p("rdbms.heap.bulk_insert", 50.0, 1e6),
            self.span_p("rdbms.engine.delete_where", 50.0, 1e6),
            self.span_p("rdbms.engine.tc_operator", 50.0, 1e6),
            self.per_op("exec.spill_partitions"),
            self.per_op("exec.spill_bytes"),
            self.per_op("exec.sort_runs"),
            ratio(buf_hits, buf_hits + buf_misses),
            self.per_op("buffer.misses"),
            self.per_op("buffer.evictions"),
            self.per_op("disk.pages_read"),
            self.per_op("disk.pages_written"),
            self.per_op("wal.bytes"),
            self.per_op("wal.records"),
            self.per_op("wal.fsyncs"),
            self.per_op("wal.checkpoints"),
            ratio(self.total("wal.fsyncs"), commits),
            self.span_p("rdbms.concurrent.refresh", 50.0, 1e3),
            self.note_p("rdbms.concurrent.commit_us", 50.0),
            self.note_p("rdbms.concurrent.commit_us", 95.0),
            ratio(self.fact("mvcc_conflicts"), self.fact("mvcc_commits")),
            ratio(
                self.total("wal.group_committed_txns"),
                self.total("wal.group_commits"),
            ),
            ratio(self.busy_s, self.wall_s * self.clients as f64),
            self.per_op("stats.refreshes"),
            self.per_op("stats.sampled_rows"),
            self.overhead_share,
        ];
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, _), v)| (name, v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit} on {name}"
            );
        }
        assert!(!valid("t e"));
        assert!(!valid(".p50"));
    }

    #[test]
    fn phase_reads_spans_notes_and_counters() {
        let span = |name, parent, start, end| Span {
            name,
            op: 0,
            parent,
            start_ns: start,
            end_ns: end,
        };
        let spans = vec![
            span("op", NO_PARENT, 0, 10_000_000),
            span("km.session.execute", 0, 0, 4_000_000),
            span("km.runtime.t_temp", 1, 0, 1_000_000),
            span("km.runtime.t_eval_rhs", 1, 1_000_000, 3_000_000),
            span("km.runtime.t_term", 1, 3_000_000, 3_800_000),
        ];
        let notes = [(0, "km.runtime.tuples_produced", 8_000.0)];
        let mut c: Counters = [0; crate::trace::TRACKED.len()];
        c[tracked("exec.exec_ns")] = 2_500_000;
        let mut before = Registry::new();
        before.counter("buffer.hits", 10);
        let mut after = Registry::new();
        after.counter("buffer.hits", 100);
        after.counter("buffer.misses", 10);
        after.counter("wal.bytes", 5_000);
        let phase = Phase {
            spans: &spans,
            notes: &notes,
            op_counters: &[c],
            before: &before,
            after: &after,
            facts: &[("mvcc_commits", 4.0), ("mvcc_conflicts", 1.0)],
            op_latencies_ms: &[4.0, 6.0],
            ops: 2,
            commits_per_op: 1.0,
            clients: 1,
            wall_s: 2.0,
            busy_s: 1.0,
            overhead_share: 0.02,
        };
        let m: std::collections::BTreeMap<_, _> = phase.metrics().into_iter().collect();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m["op_ms.p95"], 6.0);
        assert_eq!(m["t_e_ms.p50"], 4.0);
        assert_eq!(m["t_c_ms.p50"], 0.0);
        assert_eq!(m["km.runtime.t_eval_rhs_ms"], 2.0);
        assert!((m["km.runtime.glue_ms"] - 0.2).abs() < 1e-9);
        assert!((m["km.runtime.breakdown_coverage"] - 0.95).abs() < 1e-9);
        assert_eq!(m["derived_tuples_per_s"], 2_000_000.0);
        assert_eq!(m["rdbms.exec.exec_ms"], 2.5);
        assert_eq!(m["rdbms.buffer.hit_rate"], 0.9);
        assert_eq!(m["wal_bytes_per_update"], 2_500.0);
        assert_eq!(m["rdbms.wal.bytes"], 2_500.0);
        assert_eq!(m["rdbms.concurrent.conflicts_per_commit"], 0.25);
        assert_eq!(m["rdbms.concurrent.client_busy_share"], 0.5);
        assert_eq!(m["trace.overhead_share"], 0.02);
    }
}
