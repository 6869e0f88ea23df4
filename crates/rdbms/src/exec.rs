//! Physical-plan executor.
//!
//! A materializing executor: each operator produces its full result before
//! the parent consumes it. This mirrors how the testbed's generated
//! embedded-SQL programs behaved (every LFP iteration materialized
//! temporaries, which here hold such results as they are), and keeps join
//! state simple. A result is one flat `RowBuf` of `Copy` datums, not a
//! vector per row: a row costs its producer a push and its consumer a
//! slice, and a `char` value is the 4-byte id of its interned string, so no
//! value owns heap memory of its own. Logical work is counted in [`ExecStats`] so experiments can report
//! machine-independent costs.

use crate::buffer::BufferPool;
use crate::catalog::{relation_row, Catalog, DbError, Rows, Table};
use crate::disk::Disk;
use crate::governor::{BudgetBreach, BudgetKind, QueryGovernor, GOVERNOR_CHECK_INTERVAL};
use crate::hash::{KeyMap, KeySet};
use crate::heap::RecordId;
use crate::index::{key_hash, locate, Key, PackedKey, Slot, VACANT, VACANT_SLOT};
use crate::plan::{ExecCond, KeyExpr, PhysPlan, ProjExpr};
use crate::rowbuf::RowBuf;
use crate::schema::{deserialize_tuple_into, Tuple};
use crate::spill::{partition_of, SpillFile, SpillReader, SpillWriter};
use crate::sql::ast::CmpOp;
use crate::sym::{decode_row, encode_datum, encode_row, Datum, SymReader, Symbols};
use crate::value::Value;
use std::ops::Range;

/// When memory-bounded operators may divert state to spill files
/// instead of failing the statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpillMode {
    /// Never spill: a memory-budget breach surfaces as the typed
    /// `DbError::Budget` error, exactly the PR-5 behaviour.
    Disabled,
    /// Spill when an operator's materialized state would exceed the
    /// governor's remaining memory budget (the default). Without a
    /// memory budget this is indistinguishable from `Disabled`.
    #[default]
    Enabled,
    /// Always take the spill path, budget or not — lets test suites and
    /// CI exercise the spill code on small data (`RDBMS_SPILL=force`).
    Forced,
}

/// Logical execution counters, cumulative across statements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Tuples read by sequential scans.
    pub tuples_scanned: u64,
    /// Tuples fetched through an index (lookups and index joins).
    pub tuples_fetched: u64,
    /// Index probes issued.
    pub index_probes: u64,
    /// Tuples emitted by join operators.
    pub join_output: u64,
    /// Rows returned to the caller.
    pub rows_output: u64,
    /// Prepared-statement executions that reused a cached physical plan.
    pub plan_cache_hits: u64,
    /// Prepared-statement executions that had to (re)plan, including the
    /// first execution after `prepare` and any catalog-epoch invalidation.
    pub plan_cache_misses: u64,
    /// Cached plans discarded because a base table's live cardinality
    /// drifted past the replan threshold since plan time (counted
    /// separately from hits and misses).
    pub plan_replans: u64,
    /// Wall time spent lexing/parsing SQL, in nanoseconds.
    pub parse_ns: u64,
    /// Wall time spent planning queries, in nanoseconds.
    pub plan_ns: u64,
    /// Wall time spent executing physical plans, in nanoseconds.
    pub exec_ns: u64,
    /// Spill partitions created by memory-bounded operators (Grace
    /// hash-join and hash-dedup partitions; one per partition per side
    /// pair, not per file).
    pub spill_partitions: u64,
    /// Bytes written to spill files (record payloads, before page
    /// padding), across joins, sorts, and dedup operators.
    pub spill_bytes: u64,
    /// Sorted runs produced by the external merge-sort.
    pub sort_runs: u64,
    /// Row batches moved between operators (scan pages gathered, probe
    /// chunks processed): the unit at which the governor is polled.
    pub batches: u64,
}

/// Per-operator runtime counters collected while executing under
/// `EXPLAIN ANALYZE`. Nodes are stored in pre-order; `depth` reconstructs
/// the tree shape (a node's children are the entries that follow it with
/// `depth + 1`, up to the next entry at its own depth or less).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpProfile {
    /// Operator description, identical to the EXPLAIN line (unindented).
    pub label: String,
    pub depth: usize,
    /// Rows this operator emitted to its parent.
    pub rows_out: u64,
    /// Inclusive wall time, children included.
    pub elapsed_ns: u64,
    /// Heap tuples scanned by this operator itself (children excluded).
    pub tuples_scanned: u64,
    /// Tuples fetched through an index by this operator itself.
    pub tuples_fetched: u64,
    /// Index probes issued by this operator itself.
    pub index_probes: u64,
    /// Rows on the build side of a hash join.
    pub build_rows: u64,
    /// Candidate rows dropped by this operator's residual / pushed-down
    /// filters (a scanned-but-filtered tuple, a joined row failing a
    /// residual condition, a filtered inner tuple of an index join).
    pub residual_dropped: u64,
    /// Spill partitions this operator created (0 = ran in memory).
    pub spill_partitions: u64,
    /// Bytes this operator wrote to spill files.
    pub spill_bytes: u64,
    /// Sorted runs this operator spilled (external sort only).
    pub sort_runs: u64,
    /// Row batches this operator processed.
    pub batches: u64,
    /// The planner's cardinality estimate for this operator, attached by
    /// EXPLAIN ANALYZE after execution (`None` outside that path).
    pub est_rows: Option<u64>,
}

/// Collects the [`OpProfile`] tree during execution. Installed in the
/// execution context only by EXPLAIN ANALYZE, so the ordinary execution
/// path pays a single `Option` test per plan node.
#[derive(Debug, Default)]
pub struct Profiler {
    nodes: Vec<OpProfile>,
    stack: Vec<usize>,
}

impl Profiler {
    fn enter(&mut self, plan: &PhysPlan) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(OpProfile {
            label: plan.label(),
            depth: self.stack.len(),
            ..OpProfile::default()
        });
        self.stack.push(idx);
        idx
    }

    fn exit(&mut self, idx: usize, elapsed_ns: u64, rows_out: u64) {
        self.stack.pop();
        let node = &mut self.nodes[idx];
        node.elapsed_ns = elapsed_ns;
        node.rows_out = rows_out;
    }

    fn current(&mut self) -> Option<&mut OpProfile> {
        self.stack.last().map(|&i| &mut self.nodes[i])
    }

    /// The collected pre-order profile.
    pub fn into_nodes(self) -> Vec<OpProfile> {
        self.nodes
    }
}

/// Everything an operator needs at runtime.
pub(crate) struct ExecCtx<'a> {
    pub catalog: &'a Catalog,
    pub disk: &'a mut Disk,
    pub pool: &'a mut BufferPool,
    pub stats: &'a mut ExecStats,
    /// Bind values for `?` placeholders; empty for unparameterized plans.
    /// Arity and ordinals are validated by the engine before execution.
    pub params: &'a [Value],
    /// When set, `execute_plan` records an [`OpProfile`] per plan node.
    pub profiler: Option<Profiler>,
    /// The statement's execution governor. Checked at operator entry and
    /// every [`GOVERNOR_CHECK_INTERVAL`] rows inside scan/join loops.
    /// `None` means ungoverned (internal maintenance statements).
    pub governor: Option<&'a QueryGovernor>,
    /// Whether memory-bounded operators may spill to disk instead of
    /// failing on a memory-budget breach.
    pub spill: SpillMode,
    /// Rows per batch exchanged at operator boundaries: sequential scans
    /// gather this many records per buffer-pool visit, probe/filter
    /// loops poll the governor once per batch. Answers are identical at
    /// any setting; only the check cadence and latch traffic change.
    pub batch_rows: usize,
}

impl<'a> ExecCtx<'a> {
    /// The engine lineage's symbol table.
    fn syms(&self) -> &'a Symbols {
        let catalog: &'a Catalog = self.catalog;
        catalog.syms()
    }

    /// Count an index-fetched tuple.
    #[inline]
    fn count_fetched(&mut self) {
        self.stats.tuples_fetched += 1;
        if let Some(p) = self.profiler.as_mut() {
            if let Some(op) = p.current() {
                op.tuples_fetched += 1;
            }
        }
    }

    /// Count an index probe.
    #[inline]
    fn count_probe(&mut self) {
        self.stats.index_probes += 1;
        if let Some(p) = self.profiler.as_mut() {
            if let Some(op) = p.current() {
                op.index_probes += 1;
            }
        }
    }

    /// Record a candidate row dropped by a residual or pushed-down filter.
    #[inline]
    fn prof_drop(&mut self) {
        if let Some(p) = self.profiler.as_mut() {
            if let Some(op) = p.current() {
                op.residual_dropped += 1;
            }
        }
    }

    /// Record the hash-join build-side size.
    #[inline]
    fn prof_build(&mut self, rows: u64) {
        if let Some(p) = self.profiler.as_mut() {
            if let Some(op) = p.current() {
                op.build_rows = rows;
            }
        }
    }

    /// Count one processed row batch.
    #[inline]
    fn count_batch(&mut self) {
        self.stats.batches += 1;
        if let Some(p) = self.profiler.as_mut() {
            if let Some(op) = p.current() {
                op.batches += 1;
            }
        }
    }

    /// Record a spill fan-out: `parts` partitions written, `bytes` of
    /// record payload spilled (both sides / all runs included).
    fn count_spill(&mut self, parts: u64, bytes: u64) {
        self.stats.spill_partitions += parts;
        self.stats.spill_bytes += bytes;
        if let Some(p) = self.profiler.as_mut() {
            if let Some(op) = p.current() {
                op.spill_partitions += parts;
                op.spill_bytes += bytes;
            }
        }
    }

    /// Record external-sort runs spilled.
    fn count_sort_runs(&mut self, runs: u64) {
        self.stats.sort_runs += runs;
        if let Some(p) = self.profiler.as_mut() {
            if let Some(op) = p.current() {
                op.sort_runs += runs;
            }
        }
    }

    /// Fold a row loop's locally accumulated counters into the global
    /// stats and the profiled operator.
    fn absorb(&mut self, c: RowCounts) {
        self.stats.tuples_scanned += c.scanned;
        self.stats.join_output += c.join_output;
        self.stats.batches += c.batches;
        if let Some(p) = self.profiler.as_mut() {
            if let Some(op) = p.current() {
                op.tuples_scanned += c.scanned;
                op.residual_dropped += c.dropped;
                op.batches += c.batches;
            }
        }
    }
}

/// Execution counters a row loop accumulates locally and folds into
/// [`ExecStats`] (and the profiler) with one [`ExecCtx::absorb`] per batch
/// or operator, keeping the profiler test off the per-row path.
#[derive(Debug, Clone, Copy, Default)]
struct RowCounts {
    scanned: u64,
    join_output: u64,
    dropped: u64,
    batches: u64,
}

/// Outer cardinality below which a full-key anti-join always probes the
/// index: at this scale a probe and a hash-set lookup cost the same, and
/// skipping the inner scan is a guaranteed win.
const ANTI_JOIN_PROBE_FLOOR: u64 = 256;

/// Periodic cooperative governor check for row loops: probes the
/// governor once every [`GOVERNOR_CHECK_INTERVAL`] iterations so the
/// atomic loads stay off the per-row fast path.
#[inline]
fn gov_tick(gov: Option<&QueryGovernor>, i: usize) -> Result<(), DbError> {
    if let Some(g) = gov {
        if i.is_multiple_of(GOVERNOR_CHECK_INTERVAL) {
            g.check()?;
        }
    }
    Ok(())
}

/// Approximate heap footprint of one materialized row, for charging
/// hash-join build sides against the memory budget. Deliberately a
/// cheap over-estimate (enum discriminant + payload, plus a per-row
/// header), not an exact allocator measurement. A symbol is charged what
/// its string cost when rows held one (24 bytes plus its length), so
/// spill decisions and budget breaches fall where they always did.
fn row_bytes(row: &[Datum], syms: &Symbols) -> u64 {
    row.iter()
        .map(|d| match *d {
            Datum::Int(_) => 16u64,
            Datum::Sym(id) => 24 + syms.resolve(id).len() as u64,
        })
        .sum::<u64>()
        + 24
}

/// [`row_bytes`] over a whole buffer: an operator's materialized state.
fn state_bytes(rows: &RowBuf, syms: &Symbols) -> u64 {
    rows.iter().map(|row| row_bytes(row, syms)).sum()
}

/// Default rows per operator batch. Matches [`GOVERNOR_CHECK_INTERVAL`]
/// so moving governor polls from "every 256 rows inside the loop" to
/// "once per batch" keeps the breach-detection latency unchanged.
pub const DEFAULT_BATCH_ROWS: usize = GOVERNOR_CHECK_INTERVAL;

/// Floor on the spill partition / sort-run byte target: below this the
/// per-file fixed costs (page padding, directory churn) dominate and
/// more partitions only slow things down.
const SPILL_MIN_PARTITION_BYTES: u64 = 64 * 1024;

/// Partition / run byte target when no memory budget constrains the
/// operator (i.e. `SpillMode::Forced` on an ungoverned statement).
const SPILL_DEFAULT_PARTITION_BYTES: u64 = 256 * 1024;

/// Cap on Grace partitions / sort runs, so the merge fan-in and the
/// number of live spill files stay bounded no matter the input size
/// (oversized inputs get proportionally larger partitions instead).
const SPILL_MAX_PARTITIONS: u64 = 64;

/// Should an operator whose materialized state needs `bytes` take the
/// spill path? `Enabled` spills only when the governor's remaining
/// memory budget cannot hold the state in full; `Forced` always does.
fn spill_engaged(ctx: &ExecCtx<'_>, bytes: u64) -> bool {
    match ctx.spill {
        SpillMode::Disabled => false,
        SpillMode::Forced => true,
        SpillMode::Enabled => ctx
            .governor
            .and_then(QueryGovernor::bytes_remaining)
            .is_some_and(|remaining| bytes > remaining),
    }
}

/// Byte target for one spill partition: what still fits in the memory
/// budget (each partition is re-loaded whole during its probe/merge
/// phase), floored so partitions stay page-efficient.
fn spill_partition_bytes(ctx: &ExecCtx<'_>) -> u64 {
    ctx.governor
        .and_then(QueryGovernor::bytes_remaining)
        .map_or(SPILL_DEFAULT_PARTITION_BYTES, |remaining| {
            remaining.max(SPILL_MIN_PARTITION_BYTES)
        })
}

/// Partition fan-out for `bytes` of state: enough partitions that each
/// fits the budget, at least 2 (a spill that cannot subdivide is not a
/// spill), at most [`SPILL_MAX_PARTITIONS`].
fn spill_partition_count(ctx: &ExecCtx<'_>, bytes: u64) -> usize {
    bytes
        .div_ceil(spill_partition_bytes(ctx).max(1))
        .clamp(2, SPILL_MAX_PARTITIONS) as usize
}

/// Hash-scatter `rows` into `parts` spill streams by FNV of the key
/// columns (`None` = the whole tuple, for dedup operators). When
/// `tag_seq` each record carries its input ordinal so downstream
/// merges can restore exact input order. Records hold the rows' on-page
/// bytes, so partitions and `spill_bytes` do not depend on symbol ids. On
/// error the partially written streams are dropped before returning.
fn scatter_partitions(
    disk: &mut Disk,
    gov: Option<&QueryGovernor>,
    syms: &Symbols,
    rows: &RowBuf,
    parts: usize,
    key_cols: Option<&[usize]>,
    tag_seq: bool,
) -> Result<Vec<SpillFile>, DbError> {
    let mut writers: Vec<SpillWriter> = (0..parts).map(|_| SpillWriter::new(disk)).collect();
    // Both byte buffers are reused across rows: a row is serialized once,
    // as tag + body, and an untagged stream stores the body alone.
    let mut record = Vec::new();
    let mut key = Vec::new();
    let mut failed = None;
    for (seq, row) in rows.iter().enumerate() {
        let step = gov_tick(gov, seq).and_then(|()| {
            record.clear();
            record.extend_from_slice(&(seq as u64).to_le_bytes());
            encode_row(row, syms, &mut record);
            let body = &record[8..];
            let part = match key_cols {
                Some(cols) => {
                    key.clear();
                    key.extend_from_slice(&(cols.len() as u16).to_le_bytes());
                    for &k in cols {
                        encode_datum(row[k], syms, &mut key);
                    }
                    partition_of(&key, parts)
                }
                None => partition_of(body, parts),
            };
            writers[part].push(disk, if tag_seq { &record } else { body })
        });
        if let Err(e) = step {
            failed = Some(e);
            break;
        }
    }
    if let Some(e) = failed {
        for w in writers {
            w.abandon(disk);
        }
        return Err(e);
    }
    let mut files = Vec::with_capacity(parts);
    let mut writers = writers.into_iter();
    for w in writers.by_ref() {
        match w.finish(disk) {
            Ok(f) => files.push(f),
            Err(e) => {
                for f in files {
                    f.destroy(disk);
                }
                for w in writers {
                    w.abandon(disk);
                }
                return Err(e);
            }
        }
    }
    Ok(files)
}

/// Read one spilled (untagged) tuple into the reused `row`, through the
/// reused `payload`; `false` past the last record.
fn read_spilled_row(
    r: &mut SpillReader,
    disk: &mut Disk,
    syms: &Symbols,
    payload: &mut Vec<u8>,
    row: &mut Vec<Datum>,
) -> Result<bool, DbError> {
    if !r.next(disk, payload)? {
        return Ok(false);
    }
    if !decode_row(payload, row, &mut syms.reader()) {
        return Err(DbError::Corruption(
            "spilled tuple does not deserialize".into(),
        ));
    }
    Ok(true)
}

/// Decode a record written with its input ordinal (`u64` LE tag, then the
/// tuple): the tuple into the reused `row`, the ordinal returned.
fn read_seq_row(buf: &[u8], row: &mut Vec<Datum>, syms: &Symbols) -> Result<u64, DbError> {
    let tag: [u8; 8] = buf
        .get(0..8)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| DbError::Corruption("spill record shorter than its seq tag".into()))?;
    if !decode_row(&buf[8..], row, &mut syms.reader()) {
        return Err(DbError::Corruption(
            "spill record tuple does not deserialize".into(),
        ));
    }
    Ok(u64::from_le_bytes(tag))
}

/// Compare two rows on the sort key columns, in [`Value`]'s order.
fn cmp_keys(a: &[Datum], b: &[Datum], keys: &[usize], syms: &Symbols) -> std::cmp::Ordering {
    keys.iter()
        .map(|&k| syms.cmp(a[k], b[k]))
        .find(|o| o.is_ne())
        .unwrap_or(std::cmp::Ordering::Equal)
}

/// The indexes of `rows[range]` in stable `keys` order.
fn sort_order(rows: &RowBuf, range: Range<usize>, keys: &[usize], syms: &Symbols) -> Vec<usize> {
    let mut order: Vec<usize> = range.collect();
    order.sort_by(|&a, &b| cmp_keys(rows.row(a), rows.row(b), keys, syms));
    order
}

/// Put `rows` in the order of their `seqs` tags (ties keep their place):
/// how the spilling operators restore input order after their partitions
/// were processed one by one.
fn restore_order(rows: RowBuf, seqs: &[u64]) -> RowBuf {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by_key(|&i| seqs[i]);
    rows.reordered(&order)
}

/// A row the conditions of a plan can be evaluated against: a flat tuple,
/// or the two sides of a join viewed as one without being copied together.
trait RowView {
    fn col(&self, i: usize) -> Datum;
}

impl RowView for [Datum] {
    #[inline]
    fn col(&self, i: usize) -> Datum {
        self[i]
    }
}

/// A joined row in the combined layout: left columns, then right columns.
struct Joined<'a>(&'a [Datum], &'a [Datum]);

impl RowView for Joined<'_> {
    #[inline]
    fn col(&self, i: usize) -> Datum {
        match i.checked_sub(self.0.len()) {
            None => self.0[i],
            Some(r) => self.1[r],
        }
    }
}

/// An [`ExecCond`] bound for one execution: its literal, or the value
/// bound to its `?` placeholder, as a datum — or, for a string the lineage
/// has not interned, as the string itself. Binding never interns: a
/// string on a page is interned only when a scan decodes it, so a string
/// not interned yet may still match, and one that never does must not
/// grow the table.
#[derive(Debug, Clone)]
pub(crate) enum Cond {
    Cols(usize, CmpOp, usize),
    Const(usize, CmpOp, Datum),
    Str(usize, CmpOp, Box<str>),
    /// The list's interned values, and the strings not interned.
    In(usize, Vec<Datum>, Vec<Box<str>>),
}

/// Bind `conds` for one execution against `params`.
pub(crate) fn bind_conds(conds: &[ExecCond], params: &[Value], syms: &Symbols) -> Vec<Cond> {
    let operand = |a: usize, op: CmpOp, v: &Value| match v {
        Value::Int(i) => Cond::Const(a, op, Datum::Int(*i)),
        Value::Str(s) => match syms.find(s) {
            Some(id) => Cond::Const(a, op, Datum::Sym(id)),
            None => Cond::Str(a, op, s.as_str().into()),
        },
    };
    conds
        .iter()
        .map(|c| match c {
            ExecCond::ColCmpCol(a, op, b) => Cond::Cols(*a, *op, *b),
            ExecCond::ColCmpLit(a, op, v) => operand(*a, *op, v),
            ExecCond::ColCmpParam(a, op, p) => operand(*a, *op, &params[*p]),
            ExecCond::InList(a, vs) => {
                let (mut known, mut strs) = (Vec::with_capacity(vs.len()), Vec::new());
                for v in vs {
                    match v {
                        Value::Int(i) => known.push(Datum::Int(*i)),
                        Value::Str(s) => match syms.find(s) {
                            Some(id) => known.push(Datum::Sym(id)),
                            None => strs.push(s.as_str().into()),
                        },
                    }
                }
                Cond::In(*a, known, strs)
            }
        })
        .collect()
}

/// `a op b` in [`Value`]'s order. Equality is equality of datums; only an
/// ordering comparison looks at the strings.
#[inline]
fn compare(op: CmpOp, a: Datum, b: Datum, syms: &Symbols) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        _ => op.eval(syms.cmp(a, b)),
    }
}

/// `a op s` in [`Value`]'s order, for a string `s` that is not interned.
fn compare_str(op: CmpOp, a: Datum, s: &str, syms: &Symbols) -> bool {
    op.eval(match a {
        Datum::Int(_) => std::cmp::Ordering::Less,
        Datum::Sym(id) => syms.resolve(id).cmp(s),
    })
}

/// Evaluate one bound condition against a row.
fn eval_cond<R: RowView + ?Sized>(cond: &Cond, row: &R, syms: &Symbols) -> bool {
    match cond {
        Cond::Cols(a, op, b) => compare(*op, row.col(*a), row.col(*b), syms),
        Cond::Const(a, op, v) => compare(*op, row.col(*a), *v, syms),
        Cond::Str(a, op, s) => compare_str(*op, row.col(*a), s, syms),
        Cond::In(a, known, strs) => {
            let d = row.col(*a);
            known.contains(&d) || strs.iter().any(|s| compare_str(CmpOp::Eq, d, s, syms))
        }
    }
}

fn eval_row<R: RowView + ?Sized>(conds: &[Cond], row: &R, syms: &Symbols) -> bool {
    conds.iter().all(|c| eval_cond(c, row, syms))
}

pub(crate) fn eval_all(conds: &[Cond], row: &[Datum], syms: &Symbols) -> bool {
    eval_row(conds, row, syms)
}

/// One column of an emitted row: a column of the operator's own row, or a
/// projected literal bound for this execution.
#[derive(Clone, Copy)]
enum OutCol {
    Col(usize),
    Lit(Datum),
}

fn bind_exprs(exprs: &[ProjExpr], syms: &Symbols) -> Vec<OutCol> {
    exprs
        .iter()
        .map(|e| match e {
            ProjExpr::Col(i) => OutCol::Col(*i),
            ProjExpr::Lit(v) => OutCol::Lit(syms.datum(v)),
        })
        .collect()
}

/// What the parent wants of each row an operator emits. A `Project` sitting
/// directly on a row source (a scan or a join) hands its columns down
/// here, so the source builds the projected row straight from the page or
/// from its two inputs; the wide intermediate row is never built.
#[derive(Clone, Copy)]
struct Emit<'p> {
    /// `None` emits the operator's natural row.
    exprs: Option<&'p [OutCol]>,
}

impl<'p> Emit<'p> {
    const NATURAL: Emit<'static> = Emit { exprs: None };

    fn project(exprs: &'p [OutCol]) -> Emit<'p> {
        Emit { exprs: Some(exprs) }
    }

    /// Columns of an emitted row, for an operator whose own rows have
    /// `natural` columns.
    fn arity(&self, natural: usize) -> usize {
        self.exprs.map_or(natural, <[OutCol]>::len)
    }

    fn build<R: RowView + ?Sized>(exprs: &[OutCol], row: &R, out: &mut RowBuf) {
        out.push(exprs.iter().map(|e| match *e {
            OutCol::Col(i) => row.col(i),
            OutCol::Lit(d) => d,
        }));
    }

    /// Emit one of the operator's own rows.
    fn row(&self, row: &[Datum], out: &mut RowBuf) {
        match self.exprs {
            None => out.push(row.iter().copied()),
            Some(exprs) => Self::build(exprs, row, out),
        }
    }

    /// Emit the join of `left` and `right`.
    fn joined(&self, left: &[Datum], right: &[Datum], out: &mut RowBuf) {
        match self.exprs {
            None => out.push_joined(left, right),
            Some(exprs) => Self::build(exprs, &Joined(left, right), out),
        }
    }
}

/// Operators that build each output row themselves and so can apply their
/// parent's projection while doing it (see [`Emit`]). Every other operator
/// passes its child's rows through.
fn builds_rows(plan: &PhysPlan) -> bool {
    matches!(
        plan,
        PhysPlan::SeqScan { .. }
            | PhysPlan::IndexLookup { .. }
            | PhysPlan::IndexRange { .. }
            | PhysPlan::HashJoin { .. }
            | PhysPlan::IndexNlJoin { .. }
            | PhysPlan::CrossJoin { .. }
    )
}

/// Materialize an index-lookup key, substituting bind values for params.
fn resolve_key(key: &[KeyExpr], params: &[Value]) -> Vec<Value> {
    key.iter()
        .map(|k| match k {
            KeyExpr::Lit(v) => v.clone(),
            KeyExpr::Param(p) => params[*p].clone(),
        })
        .collect()
}

/// Decode a stored payload, surfacing damage as [`DbError::Corruption`]
/// instead of panicking so callers can attempt recovery.
pub(crate) fn decode_tuple(table: &str, rid: RecordId, payload: &[u8]) -> Result<Tuple, DbError> {
    let mut row = Vec::new();
    decode_into(table, rid, payload, &mut row)?;
    Ok(row)
}

/// [`decode_tuple`] into a reused row.
pub(crate) fn decode_into(
    table: &str,
    rid: RecordId,
    payload: &[u8],
    row: &mut Vec<Value>,
) -> Result<(), DbError> {
    if deserialize_tuple_into(payload, row) {
        Ok(())
    } else {
        Err(undecodable(table, rid))
    }
}

fn undecodable(table: &str, rid: RecordId) -> DbError {
    DbError::Corruption(format!(
        "table {table}: stored tuple at {rid:?} does not deserialize"
    ))
}

/// [`decode_into`] for the executor: the record's strings are looked up
/// through `rd` instead of copied out of the page.
pub(crate) fn decode_datums(
    table: &str,
    rid: RecordId,
    payload: &[u8],
    row: &mut Vec<Datum>,
    rd: &mut SymReader<'_>,
) -> Result<(), DbError> {
    if decode_row(payload, row, rd) {
        Ok(())
    } else {
        Err(undecodable(table, rid))
    }
}

/// Decode one of `table`'s records for the executor. The flat buffers rows
/// go into are laid out by the schema's arity, so a record of any other
/// width is refused here rather than misaligning every row after it.
fn decode_stored(
    table: &Table,
    rid: RecordId,
    payload: &[u8],
    row: &mut Vec<Datum>,
    rd: &mut SymReader<'_>,
) -> Result<(), DbError> {
    decode_datums(&table.name, rid, payload, row, rd)?;
    if row.len() != table.schema.arity() {
        return Err(DbError::Corruption(format!(
            "table {}: stored tuple at {rid:?} has {} columns, schema has {}",
            table.name,
            row.len(),
            table.schema.arity()
        )));
    }
    Ok(())
}

/// The row an index entry points at: a temp table's own row, or a heap
/// record decoded into `buf` inside its page. A dangling entry means the
/// index and the rows have diverged, which is corruption, not a logic bug.
fn fetch_indexed<'r>(
    ctx: &mut ExecCtx<'_>,
    table: &'r Table,
    rid: RecordId,
    buf: &'r mut Vec<Datum>,
) -> Result<&'r [Datum], DbError> {
    let missing = || {
        DbError::Corruption(format!(
            "table {}: index entry points at missing record {rid:?}",
            table.name
        ))
    };
    let heap = match &table.rows {
        Rows::Heap(heap) => heap,
        Rows::Relation(rel) => {
            let i = relation_row(rid);
            return if i < rel.len() {
                Ok(rel.row(i))
            } else {
                Err(missing())
            };
        }
    };
    let syms = ctx.syms();
    heap.read(ctx.disk, ctx.pool, rid, |payload| {
        decode_stored(table, rid, payload, buf, &mut syms.reader())
    })?
    .unwrap_or_else(|| Err(missing()))?;
    Ok(buf)
}

/// Scan all of `table`, handing each live record's row to `on_row`, which
/// takes what it wants of it and reports whether it kept the row (a row
/// not kept counts as dropped by the scan's filters). Records are gathered
/// `batch_rows` at a time — the cadence of governor polls and of the
/// `batches` counter — with one buffer-pool visit per page touched.
///
/// A page's records are decoded inside its latch into one reused buffer,
/// so a scan allocates nothing per row; the symbol table's read lock is
/// held for that decoding alone. `on_row` runs after both are released,
/// so it may intern, and an intern on another session waits for one page
/// at most. A temp table's rows are handed out where they lie.
fn scan_rows(
    ctx: &mut ExecCtx<'_>,
    table: &Table,
    mut on_row: impl FnMut(&[Datum]) -> bool,
) -> Result<(), DbError> {
    let batch = ctx.batch_rows.max(1);
    let heap = match &table.rows {
        Rows::Heap(heap) => heap,
        Rows::Relation(rel) => {
            for start in (0..rel.len()).step_by(batch) {
                if let Some(g) = ctx.governor {
                    g.check()?;
                }
                let end = rel.len().min(start + batch);
                let dropped = (start..end).filter(|&i| !on_row(rel.row(i))).count();
                ctx.absorb(RowCounts {
                    scanned: (end - start) as u64,
                    dropped: dropped as u64,
                    batches: 1,
                    ..RowCounts::default()
                });
            }
            return Ok(());
        }
    };
    let syms = ctx.syms();
    let mut scan = heap.scan();
    let mut row = Vec::with_capacity(table.schema.arity());
    let mut page_rows = RowBuf::new(table.schema.arity());
    loop {
        if let Some(g) = ctx.governor {
            g.check()?;
        }
        let (mut scanned, mut dropped) = (0, 0);
        while scanned < batch {
            page_rows.clear();
            let mut rd = syms.reader();
            let visited =
                scan.for_each_on_page(ctx.disk, ctx.pool, batch - scanned, |rid, payload| {
                    decode_stored(table, rid, payload, &mut row, &mut rd)?;
                    page_rows.push(row.iter().copied());
                    Ok(())
                })?;
            drop(rd);
            let Some(visited) = visited else {
                break;
            };
            scanned += visited;
            for r in page_rows.iter() {
                if !on_row(r) {
                    dropped += 1;
                }
            }
        }
        if scanned == 0 {
            return Ok(());
        }
        ctx.absorb(RowCounts {
            scanned: scanned as u64,
            dropped,
            batches: 1,
            ..RowCounts::default()
        });
    }
}

/// The build side of a hash join: an open-addressed, linearly probed table
/// of 8-byte slots over the build rows themselves, each slot a row number
/// and 32 bits of that row's key hash. The key stays in the row; a probe
/// reads it there, and only after the hash bits matched. Rows sharing a key
/// chain through `next`. They are filed last row first, each becoming its
/// key's head, so a slot names its key's *first* build row and the chain
/// runs forward in build order: a hit starts at its first match.
struct BuildTable<'r> {
    rows: &'r RowBuf,
    key_cols: &'r [usize],
    /// A power of two long, at least twice the build rows (8 at least), so
    /// at most half occupied.
    slots: Vec<Slot>,
    /// `next[r]` is the build row after row `r` under the same key;
    /// [`VACANT`] ends the chain.
    next: Vec<u32>,
}

impl<'r> BuildTable<'r> {
    fn build(
        rows: &'r RowBuf,
        key_cols: &'r [usize],
        gov: Option<&QueryGovernor>,
    ) -> Result<BuildTable<'r>, DbError> {
        let n = rows.len();
        // Row numbers are `u32`s, and `VACANT` is none of them.
        if n >= VACANT as usize {
            return Err(DbError::Budget(BudgetBreach {
                kind: BudgetKind::Rows,
                limit: u64::from(VACANT - 1),
                used: n as u64,
            }));
        }
        let mut slots = vec![VACANT_SLOT; (2 * n).next_power_of_two().max(8)];
        let mut next = vec![VACANT; n];
        for (tick, r) in (0..n).rev().enumerate() {
            gov_tick(gov, tick)?;
            let row = rows.row(r);
            let hash = key_hash(key_cols.iter().map(|&c| row[c]));
            let i = locate(&slots, hash, |held| {
                let held = rows.row(held as usize);
                key_cols.iter().all(|&c| held[c] == row[c])
            });
            // A vacant slot's row is `VACANT`, which ends the new chain.
            next[r] = slots[i].row;
            slots[i] = Slot {
                row: r as u32,
                hash,
            };
        }
        Ok(BuildTable {
            rows,
            key_cols,
            slots,
            next,
        })
    }

    /// The build rows whose key equals `prow`'s columns at `probe_keys`,
    /// in build order.
    fn matches<'t>(
        &'t self,
        prow: &[Datum],
        probe_keys: &[usize],
    ) -> impl Iterator<Item = &'r [Datum]> + 't {
        let hash = key_hash(probe_keys.iter().map(|&c| prow[c]));
        let i = locate(&self.slots, hash, |held| {
            let held = self.rows.row(held as usize);
            self.key_cols
                .iter()
                .zip(probe_keys)
                .all(|(&b, &p)| held[b] == prow[p])
        });
        let mut at = self.slots[i].row;
        std::iter::from_fn(move || {
            (at != VACANT).then(|| {
                let r = at as usize;
                at = self.next[r];
                self.rows.row(r)
            })
        })
    }
}

/// A built hash join, ready to be probed.
struct HashProbe<'a> {
    table: &'a BuildTable<'a>,
    /// The build rows are the join's left side.
    build_left: bool,
    probe_keys: &'a [usize],
    residual: &'a [Cond],
    syms: &'a Symbols,
    emit: Emit<'a>,
}

impl HashProbe<'_> {
    /// Probe with `prow`, appending the joins that pass the residual to
    /// `out`.
    fn probe(&self, prow: &[Datum], c: &mut RowCounts, out: &mut RowBuf) {
        for brow in self.table.matches(prow, self.probe_keys) {
            let (lrow, rrow) = if self.build_left {
                (brow, prow)
            } else {
                (prow, brow)
            };
            if eval_row(self.residual, &Joined(lrow, rrow), self.syms) {
                c.join_output += 1;
                self.emit.joined(lrow, rrow, out);
            } else {
                c.dropped += 1;
            }
        }
    }
}

/// Keep the first occurrence of every row of `rows` that is not among
/// `exclude`, in input order — what `DISTINCT`, `UNION` and `EXCEPT` keep —
/// and return one flag per input row saying whether it stayed. Rows are
/// marked against a set that borrows each row where it lies in its buffer
/// (no key is built), then the gaps are closed in place.
fn keep_first_occurrences(rows: &mut RowBuf, exclude: Option<&RowBuf>) -> Vec<bool> {
    let excluded = exclude.map_or(0, RowBuf::len);
    let mut seen: KeySet<&[Datum]> =
        KeySet::with_capacity_and_hasher(rows.len() + excluded, Default::default());
    if let Some(exclude) = exclude {
        seen.extend(exclude.iter());
    }
    let keep: Vec<bool> = rows.iter().map(|row| seen.insert(row)).collect();
    drop(seen);
    rows.retain_marked(&keep);
    keep
}

/// Duplicate elimination, in memory or spilled: `rows` without repeats and
/// without the rows of `exclude`.
fn dedup(
    ctx: &mut ExecCtx<'_>,
    mut rows: RowBuf,
    exclude: Option<RowBuf>,
) -> Result<RowBuf, DbError> {
    let syms = ctx.syms();
    let state = state_bytes(&rows, syms) + exclude.as_ref().map_or(0, |ex| state_bytes(ex, syms));
    if spill_engaged(ctx, state) && !rows.is_empty() {
        return spill_dedup(ctx, rows, exclude, state);
    }
    keep_first_occurrences(&mut rows, exclude.as_ref());
    Ok(rows)
}

/// Execute `plan` to completion. When a [`Profiler`] is installed in the
/// context, each node's wall time, output cardinality, and operator-local
/// counters are recorded on the way.
pub(crate) fn execute_plan(plan: &PhysPlan, ctx: &mut ExecCtx<'_>) -> Result<RowBuf, DbError> {
    execute_emitting(plan, ctx, Emit::NATURAL)
}

/// [`execute_plan`] with the parent's projection handed down; only an
/// operator that [`builds_rows`] may be given one.
fn execute_emitting(
    plan: &PhysPlan,
    ctx: &mut ExecCtx<'_>,
    emit: Emit<'_>,
) -> Result<RowBuf, DbError> {
    let profiled = ctx
        .profiler
        .as_mut()
        .map(|p| (p.enter(plan), std::time::Instant::now()));
    let result = run_plan(plan, ctx, emit);
    if let Some((idx, start)) = profiled {
        let rows_out = result.as_ref().map_or(0, |r| r.len() as u64);
        ctx.profiler.as_mut().expect("profiler present").exit(
            idx,
            start.elapsed().as_nanos() as u64,
            rows_out,
        );
    }
    let rows = result?;
    // Every operator's materialized output counts against the row
    // budget: "rows processed", not "rows returned", so a blow-up in
    // an intermediate join trips the governor even if the final
    // projection is tiny.
    if let Some(g) = ctx.governor {
        g.charge_rows(rows.len() as u64)?;
    }
    Ok(rows)
}

fn run_plan(plan: &PhysPlan, ctx: &mut ExecCtx<'_>, emit: Emit<'_>) -> Result<RowBuf, DbError> {
    debug_assert!(emit.exprs.is_none() || builds_rows(plan));
    if let Some(g) = ctx.governor {
        g.check()?;
    }
    let syms = ctx.syms();
    match plan {
        PhysPlan::SeqScan { table, filters } => {
            // Decode and filter happen inside the page latch, on this
            // thread: the buffer pool is a single-writer resource, and a
            // row leaves its page only as the columns the parent asked for.
            let t = ctx.catalog.table(table)?;
            let filters = bind_conds(filters, ctx.params, syms);
            let mut out = RowBuf::new(emit.arity(t.schema.arity()));
            scan_rows(ctx, t, |row| {
                let keep = eval_all(&filters, row, syms);
                if keep {
                    emit.row(row, &mut out);
                }
                keep
            })?;
            Ok(out)
        }
        PhysPlan::IndexLookup {
            table,
            index_pos,
            keys,
            residual,
        } => {
            let t = ctx.catalog.table(table)?;
            let residual = bind_conds(residual, ctx.params, syms);
            let mut out = RowBuf::new(emit.arity(t.schema.arity()));
            let mut buf = Vec::new();
            for key in keys {
                let key = resolve_key(key, ctx.params);
                ctx.count_probe();
                for rid in t.indexes[*index_pos].lookup_values(&key, t.relation()) {
                    let row = fetch_indexed(ctx, t, rid, &mut buf)?;
                    ctx.count_fetched();
                    if eval_all(&residual, row, syms) {
                        emit.row(row, &mut out);
                    } else {
                        ctx.prof_drop();
                    }
                }
            }
            Ok(out)
        }
        PhysPlan::IndexRange {
            table,
            index_pos,
            lo,
            hi,
            residual,
        } => {
            let t = ctx.catalog.table(table)?;
            let to_key = |b: &std::ops::Bound<Value>| {
                b.as_ref()
                    .map(|v| PackedKey::from_values(std::slice::from_ref(v)))
            };
            let rids = t.indexes[*index_pos]
                .range(to_key(lo), to_key(hi))
                .expect("planner only ranges over ordered indexes");
            ctx.count_probe();
            let residual = bind_conds(residual, ctx.params, syms);
            let mut out = RowBuf::with_capacity(emit.arity(t.schema.arity()), rids.len());
            let mut buf = Vec::new();
            for rid in rids {
                let row = fetch_indexed(ctx, t, rid, &mut buf)?;
                ctx.count_fetched();
                if eval_all(&residual, row, syms) {
                    emit.row(row, &mut out);
                } else {
                    ctx.prof_drop();
                }
            }
            Ok(out)
        }
        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
        } => {
            let left_rows = execute_plan(left, ctx)?;
            let right_rows = execute_plan(right, ctx)?;
            let out_arity = emit.arity(left_rows.arity() + right_rows.arity());
            let residual = bind_conds(residual, ctx.params, syms);
            // Build the hash table on the smaller side; output rows are
            // always left-columns-then-right-columns regardless.
            let build_left = left_rows.len() <= right_rows.len();
            let (build, build_keys, probe, probe_keys) = if build_left {
                (left_rows, left_keys, right_rows, right_keys)
            } else {
                (right_rows, right_keys, left_rows, left_keys)
            };
            let build_bytes = state_bytes(&build, syms);
            if spill_engaged(ctx, build_bytes) && !build.is_empty() {
                return grace_hash_join(
                    ctx,
                    build,
                    build_keys,
                    probe,
                    probe_keys,
                    build_left,
                    &residual,
                    build_bytes,
                    emit,
                    out_arity,
                );
            }
            // The build side is the join's materialized state: charge it
            // against the memory budget before committing to building it.
            // With spilling off (or no budget set) a breach is fatal here,
            // exactly as before spilling existed.
            if let Some(g) = ctx.governor {
                g.charge_bytes(build_bytes)?;
            }
            let table = BuildTable::build(&build, build_keys, ctx.governor)?;
            ctx.prof_build(build.len() as u64);
            let join = HashProbe {
                table: &table,
                build_left,
                probe_keys,
                residual: &residual,
                syms,
                emit,
            };
            let mut out = RowBuf::new(out_arity);
            let batch = ctx.batch_rows.max(1);
            for start in (0..probe.len()).step_by(batch) {
                if let Some(g) = ctx.governor {
                    g.check()?;
                }
                let mut counts = RowCounts {
                    batches: 1,
                    ..RowCounts::default()
                };
                for i in start..probe.len().min(start + batch) {
                    join.probe(probe.row(i), &mut counts, &mut out);
                }
                ctx.absorb(counts);
            }
            Ok(out)
        }
        PhysPlan::IndexNlJoin {
            left,
            table,
            index_pos,
            left_keys,
            inner_filters,
            residual,
        } => {
            let left_rows = execute_plan(left, ctx)?;
            let t = ctx.catalog.table(table)?;
            let index = &t.indexes[*index_pos];
            let batch = ctx.batch_rows.max(1);
            let inner_filters = bind_conds(inner_filters, ctx.params, syms);
            let residual = bind_conds(residual, ctx.params, syms);
            let mut out = RowBuf::new(emit.arity(left_rows.arity() + t.schema.arity()));
            // Every fetched heap record decodes into this one row.
            let mut buf = Vec::new();
            for (li, lrow) in left_rows.iter().enumerate() {
                if li % batch == 0 {
                    if let Some(g) = ctx.governor {
                        g.check()?;
                    }
                    ctx.count_batch();
                }
                let key = Key::from_cols(lrow, left_keys);
                ctx.count_probe();
                for rid in index.lookup_key(&key, t.relation()) {
                    let inner = fetch_indexed(ctx, t, rid, &mut buf)?;
                    ctx.count_fetched();
                    if !eval_all(&inner_filters, inner, syms) {
                        ctx.prof_drop();
                        continue;
                    }
                    if eval_row(&residual, &Joined(lrow, inner), syms) {
                        ctx.stats.join_output += 1;
                        emit.joined(lrow, inner, &mut out);
                    } else {
                        ctx.prof_drop();
                    }
                }
            }
            Ok(out)
        }
        PhysPlan::AntiJoin {
            child,
            table,
            inner_filters,
            outer_keys,
            inner_keys,
            index_pos,
        } => {
            let mut rows = execute_plan(child, ctx)?;
            let t = ctx.catalog.table(table)?;
            // The planner records an index as a *capability*; whether
            // probing actually pays is decided here against live
            // cardinalities (a cached plan's estimates can be iterations
            // stale inside an LFP loop). Probing issues one lookup per
            // outer row, so it wins when the outer side is small relative
            // to the inner relation; when the probing side has grown to
            // the size of the accumulated relation itself — every naive
            // LFP termination check — one inner scan into a fresh hash
            // set is cheaper than hammering the persistent index.
            let probe_pays = (rows.len() as u64) < t.len().max(ANTI_JOIN_PROBE_FLOOR);
            let mut keep = Vec::with_capacity(rows.len());
            if let (Some(pos), true) = (*index_pos, probe_pays) {
                // The correlation keys are exactly the index key: a row of
                // the inner table matches iff the probe hits, so no scan
                // and no tuple fetch are needed.
                let index = &t.indexes[pos];
                for (ri, row) in rows.iter().enumerate() {
                    gov_tick(ctx.governor, ri)?;
                    ctx.count_probe();
                    let key = Key::from_cols(row, outer_keys);
                    keep.push(index.lookup_key(&key, t.relation()).next().is_none());
                }
                rows.retain_marked(&keep);
                return Ok(rows);
            }
            // Materialize the (filtered) inner side's keys once. When the
            // planner found a full-key index but probing lost the cost race
            // above, the (reordered) key pairs still correlate the two
            // sides, and `inner_filters` is empty — the scan fallback is
            // unchanged.
            let inner_filters = bind_conds(inner_filters, ctx.params, syms);
            let mut keys: KeySet<Key> = KeySet::default();
            let mut inner_nonempty = false;
            scan_rows(ctx, t, |row| {
                if eval_all(&inner_filters, row, syms) {
                    inner_nonempty = true;
                    if !inner_keys.is_empty() {
                        keys.insert(Key::from_cols(row, inner_keys));
                    }
                }
                true
            })?;
            if outer_keys.is_empty() {
                // Uncorrelated NOT EXISTS: all-or-nothing.
                return Ok(if inner_nonempty {
                    RowBuf::new(rows.arity())
                } else {
                    rows
                });
            }
            for (ri, row) in rows.iter().enumerate() {
                gov_tick(ctx.governor, ri)?;
                keep.push(!keys.contains(&Key::from_cols(row, outer_keys)));
            }
            rows.retain_marked(&keep);
            Ok(rows)
        }
        PhysPlan::CrossJoin {
            left,
            right,
            residual,
        } => {
            let left_rows = execute_plan(left, ctx)?;
            let right_rows = execute_plan(right, ctx)?;
            let residual = bind_conds(residual, ctx.params, syms);
            let mut out = RowBuf::new(emit.arity(left_rows.arity() + right_rows.arity()));
            let mut steps = 0usize;
            for lrow in left_rows.iter() {
                for rrow in right_rows.iter() {
                    gov_tick(ctx.governor, steps)?;
                    steps += 1;
                    if eval_row(&residual, &Joined(lrow, rrow), syms) {
                        ctx.stats.join_output += 1;
                        emit.joined(lrow, rrow, &mut out);
                    } else {
                        ctx.prof_drop();
                    }
                }
            }
            Ok(out)
        }
        PhysPlan::Filter { child, conds } => {
            let mut rows = execute_plan(child, ctx)?;
            let conds = bind_conds(conds, ctx.params, syms);
            let batch = ctx.batch_rows.max(1);
            let mut keep = Vec::with_capacity(rows.len());
            for (i, r) in rows.iter().enumerate() {
                if i % batch == 0 {
                    if let Some(g) = ctx.governor {
                        g.check()?;
                    }
                    ctx.count_batch();
                }
                let pass = eval_all(&conds, r, syms);
                if !pass {
                    ctx.prof_drop();
                }
                keep.push(pass);
            }
            rows.retain_marked(&keep);
            Ok(rows)
        }
        PhysPlan::Project { child, exprs } => {
            let bound = bind_exprs(exprs, syms);
            let emit = Emit::project(&bound);
            if builds_rows(child) {
                return execute_emitting(child, ctx, emit);
            }
            let rows = execute_plan(child, ctx)?;
            let identity = exprs.len() == rows.arity()
                && exprs
                    .iter()
                    .enumerate()
                    .all(|(i, e)| matches!(e, ProjExpr::Col(c) if *c == i));
            if identity {
                return Ok(rows);
            }
            let mut out = RowBuf::with_capacity(exprs.len(), rows.len());
            for row in rows.iter() {
                Emit::build(&bound, row, &mut out);
            }
            Ok(out)
        }
        PhysPlan::Distinct { child } => {
            let rows = execute_plan(child, ctx)?;
            dedup(ctx, rows, None)
        }
        PhysPlan::Sort { child, keys } => {
            let rows = execute_plan(child, ctx)?;
            let state = state_bytes(&rows, syms);
            if spill_engaged(ctx, state) && !rows.is_empty() {
                return external_sort(ctx, rows, keys, state);
            }
            let order = sort_order(&rows, 0..rows.len(), keys, syms);
            Ok(rows.reordered(&order))
        }
        PhysPlan::CountStar { child } => {
            // Only the number of rows matters: a row source is asked for
            // zero columns, so it copies no values out of its pages.
            let rows = if builds_rows(child) {
                execute_emitting(child, ctx, Emit::project(&[]))?
            } else {
                execute_plan(child, ctx)?
            };
            let mut out = RowBuf::new(1);
            out.push([Datum::Int(rows.len() as i64)]);
            Ok(out)
        }
        PhysPlan::GroupCount { child, keys } => {
            let rows = execute_plan(child, ctx)?;
            // Insertion-ordered grouping so output is deterministic.
            let mut groups: Vec<(Key, i64)> = Vec::new();
            let mut group_of: KeyMap<Key, usize> = KeyMap::default();
            for row in rows.iter() {
                let key = Key::from_cols(row, keys);
                match group_of.get(&key) {
                    Some(&g) => groups[g].1 += 1,
                    None => {
                        group_of.insert(key.clone(), groups.len());
                        groups.push((key, 1));
                    }
                }
            }
            let mut out = RowBuf::with_capacity(keys.len() + 1, groups.len());
            for (key, count) in groups {
                out.push(key.datums().chain([Datum::Int(count)]));
            }
            Ok(out)
        }
        PhysPlan::UnionAll { left, right } => {
            let mut rows = execute_plan(left, ctx)?;
            rows.append(execute_plan(right, ctx)?);
            Ok(rows)
        }
        PhysPlan::UnionDistinct { left, right } => {
            let mut rows = execute_plan(left, ctx)?;
            rows.append(execute_plan(right, ctx)?);
            dedup(ctx, rows, None)
        }
        PhysPlan::Except { left, right } => {
            let rows = execute_plan(left, ctx)?;
            let right_rows = execute_plan(right, ctx)?;
            dedup(ctx, rows, Some(right_rows))
        }
    }
}

/// Grace hash join: both sides are hash-scattered on the join key into
/// per-partition spill files, then each partition is joined on its own
/// with a build table that fits the remaining memory budget. Probe rows
/// carry their input ordinal through the scatter; since every row with
/// a given key lands in exactly one partition, a final stable sort on
/// the ordinal restores exact probe-major order — byte-identical to the
/// in-memory join at any partition count.
#[allow(clippy::too_many_arguments)]
fn grace_hash_join(
    ctx: &mut ExecCtx<'_>,
    build: RowBuf,
    build_keys: &[usize],
    probe: RowBuf,
    probe_keys: &[usize],
    build_left: bool,
    residual: &[Cond],
    build_bytes: u64,
    emit: Emit<'_>,
    out_arity: usize,
) -> Result<RowBuf, DbError> {
    let syms = ctx.syms();
    let parts = spill_partition_count(ctx, build_bytes);
    let build_arity = build.arity();
    ctx.prof_build(build.len() as u64);
    let build_files = scatter_partitions(
        ctx.disk,
        ctx.governor,
        syms,
        &build,
        parts,
        Some(build_keys),
        false,
    )?;
    drop(build);
    let probe_files = match scatter_partitions(
        ctx.disk,
        ctx.governor,
        syms,
        &probe,
        parts,
        Some(probe_keys),
        true,
    ) {
        Ok(files) => files,
        Err(e) => {
            for f in build_files {
                f.destroy(ctx.disk);
            }
            return Err(e);
        }
    };
    drop(probe);
    let spilled: u64 = build_files
        .iter()
        .chain(probe_files.iter())
        .map(SpillFile::bytes)
        .sum();
    ctx.count_spill(parts as u64, spilled);
    let mut counts = RowCounts::default();
    // Every joined row, and beside it the ordinal of the probe row it
    // came from.
    let mut out = RowBuf::new(out_arity);
    let mut seqs: Vec<u64> = Vec::new();
    let mut run = || -> Result<(), DbError> {
        let mut payload = Vec::new();
        let mut row = Vec::new();
        for (bf, pf) in build_files.iter().zip(probe_files.iter()) {
            // Load this partition's build side (its rows keep their
            // relative build order) and hash it; only now does the build
            // state become memory-resident, sized by the partition target.
            let mut part_build = RowBuf::with_capacity(build_arity, bf.records() as usize);
            let mut reader = bf.reader();
            while read_spilled_row(&mut reader, ctx.disk, syms, &mut payload, &mut row)? {
                part_build.push(row.iter().copied());
                gov_tick(ctx.governor, part_build.len())?;
            }
            let table = BuildTable::build(&part_build, build_keys, None)?;
            let join = HashProbe {
                table: &table,
                build_left,
                probe_keys,
                residual,
                syms,
                emit,
            };
            counts.batches += 1;
            let mut reader = pf.reader();
            let mut pi = 0usize;
            while reader.next(ctx.disk, &mut payload)? {
                gov_tick(ctx.governor, pi)?;
                pi += 1;
                let seq = read_seq_row(&payload, &mut row, syms)?;
                join.probe(&row, &mut counts, &mut out);
                seqs.resize(out.len(), seq);
            }
        }
        Ok(())
    };
    let outcome = run();
    for f in build_files.into_iter().chain(probe_files) {
        f.destroy(ctx.disk);
    }
    ctx.absorb(counts);
    outcome?;
    Ok(restore_order(out, &seqs))
}

/// The head of one sorted run during the merge: its reader and the row it
/// last read.
struct RunHead {
    reader: SpillReader,
    row: Vec<Datum>,
    live: bool,
}

impl RunHead {
    fn advance(
        &mut self,
        disk: &mut Disk,
        syms: &Symbols,
        payload: &mut Vec<u8>,
    ) -> Result<(), DbError> {
        self.live = read_spilled_row(&mut self.reader, disk, syms, payload, &mut self.row)?;
        Ok(())
    }
}

/// External merge sort: cut the input into consecutive runs sized to
/// the remaining memory budget, stable-sort and spill each, then merge
/// with ties broken by run index. Consecutive runs + stable run sort +
/// lowest-run-wins tie-breaking is exactly one big stable sort, so the
/// output is byte-identical to the in-memory path.
fn external_sort(
    ctx: &mut ExecCtx<'_>,
    rows: RowBuf,
    keys: &[usize],
    total_bytes: u64,
) -> Result<RowBuf, DbError> {
    let syms = ctx.syms();
    let (n, arity) = (rows.len(), rows.arity());
    let run_target = spill_partition_bytes(ctx).max(total_bytes.div_ceil(SPILL_MAX_PARTITIONS));
    let mut runs: Vec<SpillFile> = Vec::new();
    let mut payload = Vec::new();
    let mut spill_run = |range: Range<usize>, disk: &mut Disk| -> Result<SpillFile, DbError> {
        let mut w = SpillWriter::new(disk);
        for i in sort_order(&rows, range, keys, syms) {
            payload.clear();
            encode_row(rows.row(i), syms, &mut payload);
            if let Err(e) = w.push(disk, &payload) {
                w.abandon(disk);
                return Err(e);
            }
        }
        w.finish(disk)
    };
    let mut result = Ok(());
    let mut run_start = 0;
    let mut run_bytes = 0u64;
    for i in 0..n {
        if let Err(e) = gov_tick(ctx.governor, i) {
            result = Err(e);
            break;
        }
        run_bytes += row_bytes(rows.row(i), syms);
        if run_bytes >= run_target {
            match spill_run(run_start..i + 1, ctx.disk) {
                Ok(f) => runs.push(f),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
            run_start = i + 1;
            run_bytes = 0;
        }
    }
    if result.is_ok() && run_start < n {
        match spill_run(run_start..n, ctx.disk) {
            Ok(f) => runs.push(f),
            Err(e) => result = Err(e),
        }
    }
    drop(rows);
    if let Err(e) = result {
        for f in runs {
            f.destroy(ctx.disk);
        }
        return Err(e);
    }
    ctx.count_sort_runs(runs.len() as u64);
    ctx.count_spill(0, runs.iter().map(SpillFile::bytes).sum());
    // K-way merge: pick the smallest head, lowest run index on ties
    // (strict less-than never displaces an equal earlier run).
    let mut heads: Vec<RunHead> = runs
        .iter()
        .map(|f| RunHead {
            reader: f.reader(),
            row: Vec::new(),
            live: false,
        })
        .collect();
    let mut out = RowBuf::with_capacity(arity, n);
    let mut merge = || -> Result<(), DbError> {
        for h in &mut heads {
            h.advance(ctx.disk, syms, &mut payload)?;
        }
        loop {
            gov_tick(ctx.governor, out.len())?;
            let mut best: Option<usize> = None;
            for (i, h) in heads.iter().enumerate().filter(|(_, h)| h.live) {
                let wins = best.is_none_or(|b| {
                    cmp_keys(&h.row, &heads[b].row, keys, syms) == std::cmp::Ordering::Less
                });
                if wins {
                    best = Some(i);
                }
            }
            let Some(b) = best else { break };
            out.push(heads[b].row.iter().copied());
            heads[b].advance(ctx.disk, syms, &mut payload)?;
        }
        Ok(())
    };
    let merged = merge();
    for f in runs {
        f.destroy(ctx.disk);
    }
    merged?;
    Ok(out)
}

/// Spilled duplicate elimination (DISTINCT / UNION / EXCEPT): rows are
/// hash-scattered on the whole tuple with input ordinals, each
/// partition is deduplicated independently (every duplicate of a tuple
/// shares its partition), and survivors merge back in ordinal order —
/// first occurrence wins, exactly like the in-memory hash set. For
/// EXCEPT the right side scatters with the same hash so each partition
/// carries its own exclusion set.
fn spill_dedup(
    ctx: &mut ExecCtx<'_>,
    rows: RowBuf,
    exclude: Option<RowBuf>,
    state_bytes: u64,
) -> Result<RowBuf, DbError> {
    let syms = ctx.syms();
    let arity = rows.arity();
    let parts = spill_partition_count(ctx, state_bytes);
    let row_files = scatter_partitions(ctx.disk, ctx.governor, syms, &rows, parts, None, true)?;
    drop(rows);
    let ex_files = match &exclude {
        None => Vec::new(),
        Some(ex) => {
            match scatter_partitions(ctx.disk, ctx.governor, syms, ex, parts, None, false) {
                Ok(files) => files,
                Err(e) => {
                    for f in row_files {
                        f.destroy(ctx.disk);
                    }
                    return Err(e);
                }
            }
        }
    };
    drop(exclude);
    let spilled: u64 = row_files
        .iter()
        .chain(ex_files.iter())
        .map(SpillFile::bytes)
        .sum();
    ctx.count_spill(parts as u64, spilled);
    // The survivors of every partition, and beside them their ordinals.
    let mut out = RowBuf::new(arity);
    let mut seqs: Vec<u64> = Vec::new();
    let mut run = || -> Result<(), DbError> {
        let mut payload = Vec::new();
        let mut row = Vec::new();
        for (p, rf) in row_files.iter().enumerate() {
            let mut part_exclude = RowBuf::new(arity);
            if let Some(ef) = ex_files.get(p) {
                let mut reader = ef.reader();
                while read_spilled_row(&mut reader, ctx.disk, syms, &mut payload, &mut row)? {
                    gov_tick(ctx.governor, part_exclude.len())?;
                    part_exclude.push(row.iter().copied());
                }
            }
            let mut part = RowBuf::with_capacity(arity, rf.records() as usize);
            let mut part_seqs = Vec::with_capacity(rf.records() as usize);
            let mut reader = rf.reader();
            while reader.next(ctx.disk, &mut payload)? {
                gov_tick(ctx.governor, part.len())?;
                part_seqs.push(read_seq_row(&payload, &mut row, syms)?);
                part.push(row.iter().copied());
            }
            let keep = keep_first_occurrences(&mut part, Some(&part_exclude));
            seqs.extend(
                part_seqs
                    .iter()
                    .zip(&keep)
                    .filter_map(|(seq, keep)| keep.then_some(*seq)),
            );
            out.append(part);
        }
        Ok(())
    };
    let outcome = run();
    for f in row_files.into_iter().chain(ex_files) {
        f.destroy(ctx.disk);
    }
    outcome?;
    Ok(restore_order(out, &seqs))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-column buffer of `vals`, strings interned in the order given.
    fn column(syms: &Symbols, vals: &[Value]) -> RowBuf {
        let mut rows = RowBuf::new(1);
        for v in vals {
            rows.push([syms.datum(v)]);
        }
        rows
    }

    #[test]
    fn sort_orders_a_mixed_column_integers_first_then_strings() {
        let syms = Symbols::default();
        // "b" is interned before "a": id order and string order disagree.
        let vals = [
            Value::from("b"),
            Value::Int(3),
            Value::from("a"),
            Value::Int(-1),
            Value::from("ab"),
        ];
        let rows = column(&syms, &vals);
        let order = sort_order(&rows, 0..rows.len(), &[0], &syms);
        let sorted: Vec<Value> = rows
            .reordered(&order)
            .into_rows(&syms)
            .into_iter()
            .map(|mut r| r.remove(0))
            .collect();
        let mut expect = vals.to_vec();
        expect.sort();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn a_spilled_sort_merges_its_runs_in_value_order() {
        let catalog = Catalog::default();
        let syms = catalog.syms();
        const N: u32 = 20_000;
        // Strings interned in reverse lexical order, every fifth value an
        // integer; the rows arrive scrambled, enough of them for several
        // sorted runs that the merge has to interleave.
        for i in (0..N).rev() {
            syms.intern(&format!("s{i:05}"));
        }
        let vals: Vec<Value> = (0..N)
            .map(|i| i * 7919 % N)
            .map(|i| {
                if i % 5 == 0 {
                    Value::Int(i64::from(i))
                } else {
                    Value::from(format!("s{i:05}"))
                }
            })
            .collect();
        let rows = column(syms, &vals);
        let (mut disk, mut pool, mut stats) =
            (Disk::new(), BufferPool::new(8), ExecStats::default());
        let mut ctx = ExecCtx {
            catalog: &catalog,
            disk: &mut disk,
            pool: &mut pool,
            stats: &mut stats,
            params: &[],
            profiler: None,
            governor: None,
            spill: SpillMode::Forced,
            batch_rows: DEFAULT_BATCH_ROWS,
        };
        let total = state_bytes(&rows, syms);
        let sorted = external_sort(&mut ctx, rows, &[0], total).unwrap();
        assert!(stats.sort_runs > 1, "{} run(s)", stats.sort_runs);
        let mut expect: Vec<Vec<Value>> = vals.into_iter().map(|v| vec![v]).collect();
        expect.sort();
        assert_eq!(sorted.into_rows(syms), expect);
    }

    #[test]
    fn ordering_conditions_compare_strings_not_ids() {
        let syms = Symbols::default();
        let rows = column(
            &syms,
            &[Value::from("b"), Value::from("a"), Value::from("ab")],
        );
        // "ab" is interned (bound as an id), "aa" is not (bound as itself).
        for (bound, expect) in [("ab", [false, true, false]), ("aa", [false, true, false])] {
            let below = bind_conds(
                &[ExecCond::ColCmpLit(0, CmpOp::Lt, Value::from(bound))],
                &[],
                &syms,
            );
            let kept: Vec<bool> = rows.iter().map(|r| eval_all(&below, r, &syms)).collect();
            assert_eq!(kept, expect, "< '{bound}'");
        }
        assert_eq!(syms.find("aa"), None, "binding interns nothing");
        // Every integer sorts before every string.
        let above_ints = bind_conds(
            &[ExecCond::ColCmpLit(0, CmpOp::Gt, Value::Int(i64::MAX))],
            &[],
            &syms,
        );
        assert!(rows.iter().all(|r| eval_all(&above_ints, r, &syms)));
    }

    #[test]
    fn rows_charge_what_their_strings_cost() {
        let syms = Symbols::default();
        let row = [Datum::Int(1), syms.datum(&Value::from("abcd"))];
        assert_eq!(row_bytes(&row, &syms), 16 + (24 + 4) + 24);
    }

    /// Rows of (key, row number), one per key in `keys`.
    fn numbered(keys: &[Datum]) -> RowBuf {
        let mut rows = RowBuf::new(2);
        for (i, &k) in keys.iter().enumerate() {
            rows.push([k, Datum::Int(i as i64)]);
        }
        rows
    }

    /// The row numbers `table` holds under the key `key`, in the order a
    /// probe walks them.
    fn hits(table: &BuildTable<'_>, key: Datum) -> Vec<i64> {
        // The probe row puts its key in its second column.
        let probe = [Datum::Int(-1), key];
        table
            .matches(&probe, &[1])
            .map(|row| match row[1] {
                Datum::Int(i) => i,
                d => panic!("row number {d:?}"),
            })
            .collect()
    }

    fn occupied(table: &BuildTable<'_>) -> usize {
        table.slots.iter().filter(|s| s.row != VACANT).count()
    }

    #[test]
    fn build_table_of_no_rows_and_of_one() {
        let empty = numbered(&[]);
        let table = BuildTable::build(&empty, &[0], None).unwrap();
        assert_eq!((table.slots.len(), occupied(&table)), (8, 0));
        assert!(hits(&table, Datum::Int(0)).is_empty());

        let one = numbered(&[Datum::Int(7)]);
        let table = BuildTable::build(&one, &[0], None).unwrap();
        assert_eq!(hits(&table, Datum::Int(7)), [0]);
        assert!(hits(&table, Datum::Int(8)).is_empty());
        assert!(hits(&table, Datum::from_word(7, true)).is_empty());
    }

    #[test]
    fn build_table_chains_one_key_in_build_order() {
        let mut keys = vec![Datum::Int(5); 3_000];
        keys.push(Datum::Int(6));
        let rows = numbered(&keys);
        let table = BuildTable::build(&rows, &[0], None).unwrap();
        assert_eq!(occupied(&table), 2);
        assert_eq!(hits(&table, Datum::Int(5)), (0..3_000).collect::<Vec<_>>());
        assert_eq!(hits(&table, Datum::Int(6)), [3_000]);
    }

    #[test]
    fn build_table_keys_collide_and_wrap_past_the_end() {
        // Four rows get eight slots; find two integers whose hashes both
        // land on the last one.
        let last = |i: &i64| key_hash(std::iter::once(Datum::Int(*i))) & 7 == 7;
        let mut found = (0..).filter(last);
        let (a, b) = (found.next().unwrap(), found.next().unwrap());
        let a_sym = Datum::from_word(a as u64, true);
        // The integer `a` and the symbol numbered `a` hash alike, all 32
        // bits: only their keys, read from the rows, tell them apart.
        assert_eq!(
            key_hash(std::iter::once(Datum::Int(a))),
            key_hash(std::iter::once(a_sym))
        );
        let rows = numbered(&[Datum::Int(a), a_sym, Datum::Int(b), Datum::Int(a)]);
        let table = BuildTable::build(&rows, &[0], None).unwrap();
        assert_eq!(table.slots.len(), 8);
        // Filed last row first: `a` takes the last slot, then `b` and the
        // symbol wrap to the first two.
        let slot_rows: Vec<u32> = table.slots.iter().map(|s| s.row).collect();
        assert_eq!(slot_rows[7], 0, "the slot names its key's first row");
        assert_eq!(&slot_rows[..2], &[2, 1]);
        assert_eq!(occupied(&table), 3);
        assert_eq!(hits(&table, Datum::Int(a)), [0, 3]);
        assert_eq!(hits(&table, a_sym), [1]);
        assert_eq!(hits(&table, Datum::Int(b)), [2]);
        assert!(hits(&table, Datum::from_word(b as u64, true)).is_empty());
        let elsewhere = (0..).find(|i| !last(i)).unwrap();
        assert!(hits(&table, Datum::Int(elsewhere)).is_empty());
    }

    #[test]
    fn build_table_compares_every_key_column() {
        // An integer and the symbol with the same word hash alike, so these
        // keys share all 32 hash bits and differ only in their second
        // column's type.
        let (int, sym) = (Datum::Int(2), Datum::from_word(2, true));
        let mut rows = RowBuf::new(3);
        rows.push([Datum::Int(1), int, Datum::Int(0)]);
        rows.push([Datum::Int(1), sym, Datum::Int(1)]);
        let table = BuildTable::build(&rows, &[0, 1], None).unwrap();
        assert_eq!(occupied(&table), 2);
        let found = |probe: [Datum; 2]| -> Vec<Datum> {
            table.matches(&probe, &[0, 1]).map(|row| row[2]).collect()
        };
        assert_eq!(found([Datum::Int(1), int]), [Datum::Int(0)]);
        assert_eq!(found([Datum::Int(1), sym]), [Datum::Int(1)]);
        assert!(found([Datum::from_word(1, true), int]).is_empty());
    }

    #[test]
    fn build_side_past_the_row_numbers_is_a_typed_error() {
        let rows = RowBuf::columnless(VACANT as usize);
        match BuildTable::build(&rows, &[], None) {
            Err(DbError::Budget(b)) => {
                assert_eq!(b.kind, BudgetKind::Rows);
                assert_eq!(b.used, u64::from(VACANT));
            }
            other => panic!("{:?}", other.map(|t| t.slots.len())),
        }
    }
}
