//! Live table and column statistics for the cost-based planner.
//!
//! Each catalog [`Table`](crate::catalog::Table) carries a [`TableStats`]:
//! staleness bookkeeping that is kept fresh on every insert/delete/truncate,
//! plus per-column distinct-count and equi-width histogram estimates that
//! are refreshed by a cheap reservoir-sampling scan (`ANALYZE`, run
//! automatically by the engine when a table's modification counter crosses
//! its churn threshold). Row counts themselves are *not* duplicated here —
//! the heap's live `tuple_count` is exact and already maintained on every
//! mutation — so the planner always reads fresh cardinalities and the
//! sampled estimates only cover what a counter cannot: value distributions.
//!
//! Statistics live inside the catalog's `Arc<Table>` entries, so an MVCC
//! fork ([`Engine::fork`](crate::engine::Engine::fork)) snapshots them for
//! free: a session plans against the statistics of its own snapshot and
//! never observes a concurrent committer's refresh mid-plan.
//!
//! Sampling is deterministic (a fixed xorshift stream seeded per analyze),
//! so two engines replaying the same statement sequence build identical
//! statistics and therefore identical plans — a property the concurrent
//! commit-replay protocol relies on.

use crate::schema::Tuple;
use crate::value::Value;
use std::collections::HashMap;
use std::ops::Bound;

/// Rows retained by the reservoir sampler during an analyze scan.
pub const RESERVOIR_CAP: usize = 256;
/// Buckets in an equi-width integer histogram.
pub const HIST_BUCKETS: usize = 16;
/// Minimum modifications before auto-analyze reconsiders a table; above
/// it, a table is re-analyzed once churn reaches a quarter of the rows it
/// was last analyzed at.
pub const ANALYZE_MIN_MODS: u64 = 256;
/// Tables below this row count are never auto-analyzed: with so few rows
/// every plan costs about the same, and an analyze would only bump the
/// statistics version and invalidate cached plans. (`TEMP` tables are not
/// auto-analyzed at any size.) An explicit [`Engine::analyze_table`](crate::engine::Engine::analyze_table)
/// still installs estimates at any size.
pub const ANALYZE_ROWS_FLOOR: u64 = 256;

/// Per-table statistics snapshot. `columns` is empty until the first
/// analyze; estimators fall back to flat defaults then.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    /// Bumped on every analyze; cached plans record the versions they were
    /// costed from and re-plan when one moves. Truncate does *not* bump it:
    /// the LFP runtime recycles its temp tables with TRUNCATE every
    /// iteration and relies on cached plans surviving, and the row-drift
    /// check already catches a truncated table whose refill changes scale.
    pub version: u64,
    /// Catalog epoch current when the last analyze ran. A later epoch means
    /// DDL happened since; estimates may describe stale index coverage.
    pub analyzed_epoch: u64,
    /// Live row count at the last analyze.
    pub analyzed_rows: u64,
    /// Inserts + deletes since the last analyze (truncate resets it).
    pub mods_since_analyze: u64,
    /// Per-column estimates, parallel to the table schema.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Record `n` row modifications (inserts or deletes).
    pub fn note_mods(&mut self, n: u64) {
        self.mods_since_analyze = self.mods_since_analyze.saturating_add(n);
    }

    /// Truncate discards all content: column estimates are dropped (they
    /// describe rows that no longer exist) and the churn bookkeeping
    /// resets. The version stays put — truncate-and-refill is the LFP
    /// runtime's temp-table recycling idiom, and invalidating every cached
    /// plan each iteration would defeat the plan cache. A refill at a
    /// different scale is caught by the replan drift check; a big refill
    /// re-analyzes (and bumps the version) through the ordinary churn
    /// threshold.
    pub fn on_truncate(&mut self) {
        self.analyzed_rows = 0;
        self.mods_since_analyze = 0;
        self.columns.clear();
    }

    /// Whether an auto-analyze is due given the live row count. Tables
    /// under [`ANALYZE_ROWS_FLOOR`] are never due — defaults estimate them
    /// well enough and their cached plans stay valid.
    pub fn is_stale(&self, live_rows: u64) -> bool {
        if live_rows < ANALYZE_ROWS_FLOOR {
            return false;
        }
        if self.columns.is_empty() {
            return true;
        }
        self.mods_since_analyze >= ANALYZE_MIN_MODS.max(self.analyzed_rows / 4)
    }

    /// Install a fresh set of column estimates built from a sample.
    pub fn install(&mut self, columns: Vec<ColumnStats>, live_rows: u64, epoch: u64) {
        self.version += 1;
        self.analyzed_epoch = epoch;
        self.analyzed_rows = live_rows;
        self.mods_since_analyze = 0;
        self.columns = columns;
    }

    /// Column estimates, if the column has been analyzed.
    pub fn column(&self, col: usize) -> Option<&ColumnStats> {
        self.columns.get(col)
    }
}

/// Estimates for one column, built from a reservoir sample.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Estimated distinct values in the whole table (Duj1 estimator,
    /// clamped to `[observed, row_count]`).
    pub n_distinct: u64,
    /// Smallest and largest sampled values.
    pub min: Option<Value>,
    pub max: Option<Value>,
    /// Equi-width histogram over the sampled integer domain; `None` for
    /// non-integer columns or degenerate samples.
    pub histogram: Option<Histogram>,
}

impl ColumnStats {
    /// Fraction of rows expected to satisfy `col = <some literal>`.
    pub fn eq_selectivity(&self) -> f64 {
        1.0 / self.n_distinct.max(1) as f64
    }

    /// Fraction of rows expected inside `(lo, hi)`. Histogram-driven for
    /// integer columns; flat 1/3 per bounded side otherwise.
    pub fn range_selectivity(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> f64 {
        if let Some(h) = &self.histogram {
            let lo_i = match lo {
                Bound::Included(Value::Int(v)) | Bound::Excluded(Value::Int(v)) => Some(*v),
                _ => None,
            };
            let hi_i = match hi {
                Bound::Included(Value::Int(v)) | Bound::Excluded(Value::Int(v)) => Some(*v),
                _ => None,
            };
            if lo_i.is_some() || hi_i.is_some() {
                return h.range_fraction(lo_i, hi_i);
            }
        }
        let mut sel = 1.0;
        if !matches!(lo, Bound::Unbounded) {
            sel /= 3.0;
        }
        if !matches!(hi, Bound::Unbounded) {
            sel /= 3.0;
        }
        sel
    }
}

/// Equi-width histogram over a sampled integer domain. Counts are sample
/// counts; fractions are relative to the sample size.
#[derive(Debug, Clone)]
pub struct Histogram {
    pub lo: i64,
    pub hi: i64,
    pub counts: Vec<u64>,
    pub sampled: u64,
}

impl Histogram {
    fn bucket_width(&self) -> f64 {
        ((self.hi - self.lo) as f64 + 1.0) / self.counts.len() as f64
    }

    /// Fraction of sampled rows with value in `[lo, hi]` (either bound may
    /// be open); linear interpolation inside partially covered buckets.
    pub fn range_fraction(&self, lo: Option<i64>, hi: Option<i64>) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let lo = lo.unwrap_or(self.lo).max(self.lo);
        let hi = hi.unwrap_or(self.hi).min(self.hi);
        if lo > hi {
            return 0.0;
        }
        let w = self.bucket_width();
        let mut covered = 0.0f64;
        for (i, &c) in self.counts.iter().enumerate() {
            let b_lo = self.lo as f64 + i as f64 * w;
            let b_hi = b_lo + w;
            let o_lo = (lo as f64).max(b_lo);
            let o_hi = ((hi as f64) + 1.0).min(b_hi);
            if o_hi > o_lo {
                covered += c as f64 * (o_hi - o_lo) / w;
            }
        }
        (covered / self.sampled as f64).clamp(0.0, 1.0)
    }
}

/// Deterministic reservoir sampler (Algorithm R with a fixed xorshift
/// stream). Deterministic sampling keeps replayed statement sequences
/// producing identical statistics and identical plans.
pub struct Reservoir {
    rows: Vec<Tuple>,
    seen: u64,
    cap: usize,
    rng: u64,
}

impl Reservoir {
    pub fn new(cap: usize, seed: u64) -> Reservoir {
        Reservoir {
            rows: Vec::with_capacity(cap.min(1024)),
            seen: 0,
            cap,
            // A zero state would freeze the xorshift stream.
            rng: seed | 1,
        }
    }

    fn next_rng(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Offer one row to the reservoir.
    pub fn offer(&mut self, row: Tuple) {
        let taken: Result<(), std::convert::Infallible> = self.offer_with(|| Ok(row));
        let Ok(()) = taken;
    }

    /// Offer one row that is only built if the reservoir takes it: an
    /// analyze scan offers every record of a table and keeps at most
    /// `cap`, so it decodes only those. The draw sequence is that of
    /// [`Reservoir::offer`].
    pub fn offer_with<E>(&mut self, row: impl FnOnce() -> Result<Tuple, E>) -> Result<(), E> {
        self.seen += 1;
        if self.rows.len() < self.cap {
            self.rows.push(row()?);
            return Ok(());
        }
        let j = self.next_rng() % self.seen;
        if (j as usize) < self.cap {
            self.rows[j as usize] = row()?;
        }
        Ok(())
    }

    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Build per-column estimates from the sampled rows. `total_rows` is
    /// the live row count of the scanned table (the scale-up target for
    /// distinct estimation).
    pub fn column_stats(&self, arity: usize) -> Vec<ColumnStats> {
        let total = self.seen;
        (0..arity)
            .map(|c| build_column(self.rows.iter().map(|r| &r[c]), total))
            .collect()
    }
}

/// Build one column's estimates from sampled values. `total_rows` is the
/// table's live row count; the sample is `values` (size `n <= total_rows`).
fn build_column<'a>(values: impl Iterator<Item = &'a Value>, total_rows: u64) -> ColumnStats {
    let mut counts: HashMap<&Value, u64> = HashMap::new();
    let mut min: Option<&Value> = None;
    let mut max: Option<&Value> = None;
    let mut n = 0u64;
    let mut ints: Vec<i64> = Vec::new();
    for v in values {
        n += 1;
        *counts.entry(v).or_default() += 1;
        if min.map(|m| v < m).unwrap_or(true) {
            min = Some(v);
        }
        if max.map(|m| v > m).unwrap_or(true) {
            max = Some(v);
        }
        if let Value::Int(i) = v {
            ints.push(*i);
        }
    }
    let d = counts.len() as u64;
    let f1 = counts.values().filter(|&&c| c == 1).count() as u64;
    let n_distinct = estimate_distinct(d, f1, n, total_rows);

    // Histogram only when every sampled value was an integer and the
    // domain is non-degenerate.
    let histogram = if !ints.is_empty() && ints.len() as u64 == n {
        let lo = *ints.iter().min().expect("non-empty");
        let hi = *ints.iter().max().expect("non-empty");
        if hi > lo {
            let buckets = HIST_BUCKETS.min((hi - lo + 1) as usize);
            let mut h = Histogram {
                lo,
                hi,
                counts: vec![0; buckets],
                sampled: n,
            };
            let w = ((hi - lo) as f64 + 1.0) / buckets as f64;
            for i in &ints {
                let b = (((i - lo) as f64 / w) as usize).min(buckets - 1);
                h.counts[b] += 1;
            }
            Some(h)
        } else {
            None
        }
    } else {
        None
    };
    ColumnStats {
        n_distinct,
        min: min.cloned(),
        max: max.cloned(),
        histogram,
    }
}

/// Duj1 distinct-count estimator: `n*d / (n - f1 + f1*n/N)` where `d`
/// distinct values were observed in a sample of `n` rows out of `N`, `f1`
/// of them exactly once. Degenerates to `d` for a full sample (`n == N`)
/// and is clamped to `[d, N]`.
pub fn estimate_distinct(d: u64, f1: u64, n: u64, total_rows: u64) -> u64 {
    if n == 0 || total_rows == 0 {
        return 0;
    }
    if n >= total_rows {
        return d; // full scan: exact
    }
    let (df, f1f, nf, big_n) = (d as f64, f1 as f64, n as f64, total_rows as f64);
    let denom = nf - f1f + f1f * nf / big_n;
    let est = if denom > 0.0 { nf * df / denom } else { big_n };
    (est.round() as u64).clamp(d, total_rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_rows(vals: &[i64]) -> Vec<Tuple> {
        vals.iter().map(|&v| vec![Value::Int(v)]).collect()
    }

    #[test]
    fn reservoir_keeps_all_when_under_cap() {
        let mut r = Reservoir::new(10, 42);
        for row in int_rows(&[1, 2, 3]) {
            r.offer(row);
        }
        assert_eq!(r.seen(), 3);
        assert_eq!(r.rows().len(), 3);
    }

    #[test]
    fn reservoir_caps_and_is_deterministic() {
        let run = || {
            let mut r = Reservoir::new(4, 7);
            for row in int_rows(&(0..100).collect::<Vec<_>>()) {
                r.offer(row);
            }
            r.rows().to_vec()
        };
        let a = run();
        assert_eq!(a.len(), 4);
        assert_eq!(a, run(), "same seed, same sample");
    }

    #[test]
    fn full_sample_distinct_is_exact() {
        assert_eq!(estimate_distinct(5, 2, 10, 10), 5);
        assert_eq!(estimate_distinct(5, 2, 12, 10), 5);
    }

    #[test]
    fn unique_sample_scales_to_table() {
        // Every sampled value distinct and seen once: the column looks
        // unique, so the estimate approaches the table size.
        let est = estimate_distinct(100, 100, 100, 10_000);
        assert!(est > 5_000, "unique-looking column scales up, got {est}");
        assert!(est <= 10_000);
    }

    #[test]
    fn low_cardinality_sample_stays_low() {
        // 3 distinct values, none seen once: the sample saw everything.
        let est = estimate_distinct(3, 0, 100, 10_000);
        assert_eq!(est, 3);
    }

    #[test]
    fn distinct_estimate_is_bounded() {
        for n in [1u64, 10, 100] {
            for d in 1..=n {
                for f1 in 0..=d {
                    let est = estimate_distinct(d, f1, n, 1000);
                    assert!(est >= d && est <= 1000, "d={d} f1={f1} n={n} -> {est}");
                }
            }
        }
    }

    #[test]
    fn histogram_fractions_cover_domain() {
        let mut r = Reservoir::new(1024, 1);
        for row in int_rows(&(0..512).collect::<Vec<_>>()) {
            r.offer(row);
        }
        let cols = r.column_stats(1);
        let h = cols[0].histogram.as_ref().expect("int histogram");
        assert!((h.range_fraction(None, None) - 1.0).abs() < 1e-9);
        let half = h.range_fraction(Some(0), Some(255));
        assert!((half - 0.5).abs() < 0.05, "half the domain ~ 0.5: {half}");
        assert_eq!(h.range_fraction(Some(600), Some(700)), 0.0);
    }

    #[test]
    fn staleness_thresholds() {
        let mut s = TableStats::default();
        assert!(s.is_stale(1000), "never analyzed");
        assert!(!s.is_stale(0), "empty tables have nothing to sample");
        assert!(
            !s.is_stale(ANALYZE_ROWS_FLOOR - 1),
            "tiny tables are never auto-analyzed"
        );
        s.install(
            vec![ColumnStats {
                n_distinct: 5,
                min: None,
                max: None,
                histogram: None,
            }],
            2000,
            0,
        );
        assert!(!s.is_stale(2000));
        s.note_mods(400);
        assert!(!s.is_stale(2000), "400 < 2000/4");
        s.note_mods(200);
        assert!(s.is_stale(2000), "600 >= 2000/4 >= 256");
        s.on_truncate();
        assert!(s.columns.is_empty());
        assert!(s.is_stale(1000), "content gone, estimates dropped");
    }
}
