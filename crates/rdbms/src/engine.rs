//! The engine facade: the "commercial relational DBMS with SQL interface"
//! of the testbed architecture. Everything above this layer (the Knowledge
//! Manager) talks to the database exclusively through [`Engine::execute`] —
//! the SQL boundary the paper identifies as both the architecture's clean
//! seam and its performance bottleneck — plus a small set of programmatic
//! bulk-loading fast paths used by workload generators.

use crate::buffer::{BufferPool, BufferStats, DEFAULT_POOL_FRAMES};
use crate::catalog::{Catalog, DbError, Table};
use crate::disk::{Disk, DiskStats, FaultInjector, RecoveryReport};
use crate::exec::{
    bind_conds, decode_datums, decode_into, decode_tuple, eval_all, execute_plan, ExecCtx,
    ExecStats, OpProfile, Profiler, SpillMode, DEFAULT_BATCH_ROWS,
};
use crate::governor::{BudgetKind, ExecLimits, QueryGovernor, GOVERNOR_CHECK_INTERVAL};
use crate::heap::RecordId;
use crate::index::TableIndex;
use crate::page::MAX_PAYLOAD;
use crate::plan::{output_types, plan_query, ExecCond, PlannedQuery};
use crate::rewrite::RewriteReport;
use crate::rowbuf::RowBuf;
use crate::schema::{serialize_tuple_into, serialized_len, Schema, Tuple};
use crate::sql::ast::{CmpOp, ColRef, Condition, Query, Scalar, SelectItem, Stmt};
use crate::sql::parser::{parse_script, parse_stmt, parse_stmt_params};
use crate::sym::{encode_row, Datum, Interner, Symbols};
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Tuple>,
    /// Rows affected by DML (inserts/deletes); 0 for queries and DDL.
    pub affected: u64,
}

impl ResultSet {
    fn empty() -> ResultSet {
        ResultSet {
            columns: Vec::new(),
            rows: Vec::new(),
            affected: 0,
        }
    }

    fn dml(affected: u64) -> ResultSet {
        ResultSet {
            columns: Vec::new(),
            rows: Vec::new(),
            affected,
        }
    }

    /// The single integer a `SELECT COUNT(*)` returns.
    pub fn scalar_int(&self) -> Option<i64> {
        match self.rows.as_slice() {
            [row] => match row.as_slice() {
                [Value::Int(i)] => Some(*i),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Aggregated engine statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    pub disk: DiskStats,
    pub buffer: BufferStats,
    pub exec: ExecStats,
    /// SQL statements executed through the `execute` entry points.
    pub statements: u64,
    /// Tables created / dropped (temp-table churn shows up here).
    pub tables_created: u64,
    pub tables_dropped: u64,
}

/// An index description: name, key column positions, ordered flag.
pub type IndexSpec = (String, Vec<usize>, bool);

/// One catalog-level action taken inside the active transaction. The
/// page-level effects are undone by the disk's WAL; these record the
/// in-memory catalog changes so rollback/recovery can reverse them in
/// reverse order (which handles create-then-drop interleavings exactly).
enum TxnOp {
    Created(String),
    Dropped(Table),
}

/// Catalog bookkeeping for the active engine-level transaction.
#[derive(Default)]
struct TxnState {
    ops: Vec<TxnOp>,
}

/// Handle to a statement compiled with [`Engine::prepare`]. The paper's Run
/// Time Library is an embedded-SQL program — statements compile once and
/// execute many times — and this is that seam: the LFP runtime prepares its
/// per-rule SQL once per fixpoint call and re-executes the handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StmtId(u64);

/// A prepared statement: the parsed AST plus, for query-bearing statements,
/// the physical plan cached under the catalog epoch it was built against.
/// Both are shared with each execution, not copied into it.
struct PreparedStmt {
    stmt: Arc<Stmt>,
    n_params: usize,
    plan: Option<(u64, Arc<PlannedQuery>)>,
}

/// Execution settings that belong to whoever drives an engine — a
/// session — rather than to the database it holds: set through the
/// `Engine::set_*` methods and the cancel handle, copied by
/// [`Engine::fork`] (all but the cancel flag and the evaluation deadline,
/// which a fork gets fresh), and moved whole onto each new snapshot of a
/// concurrent session by [`Engine::replace_snapshot`] so a refresh cannot
/// drop them.
#[derive(Clone)]
struct ExecConfig {
    /// Cooperative cancellation flag shared with every clone handed out by
    /// [`Engine::cancel_handle`]. Once set, every governed statement fails
    /// with [`DbError::Budget`] (kind `Canceled`) at its next batch
    /// boundary until [`Engine::reset_cancel`] acknowledges it — a
    /// canceled session stays canceled, it does not silently resume.
    cancel: Arc<AtomicBool>,
    /// Wall-clock allowance per statement; converted to an absolute
    /// deadline when each statement's governor is created.
    statement_timeout: Option<Duration>,
    /// Cumulative rows-processed budget per statement.
    max_rows: Option<u64>,
    /// Materialized-state byte budget per statement (hash-join builds).
    max_bytes: Option<u64>,
    /// Whether memory-bounded operators divert to spill files when the
    /// memory budget cannot hold their state. Initialized from
    /// `RDBMS_SPILL` (the "Environment" table further down this file).
    spill: SpillMode,
    /// Rows per operator batch; [`DEFAULT_BATCH_ROWS`] unless set.
    batch_rows: usize,
    /// Absolute deadline imposed by the layer above (the Knowledge
    /// Manager's per-evaluation deadline); combined with the per-statement
    /// timeout by taking whichever expires first.
    eval_deadline: Option<Instant>,
}

/// Event counts outside [`ExecStats`]; every engine, forks included,
/// starts them at zero.
#[derive(Default)]
struct Counters {
    /// SQL statements executed through the `execute` entry points.
    statements: u64,
    /// Tables created / dropped (temp-table churn shows up here).
    tables_created: u64,
    tables_dropped: u64,
    /// Governor breaches observed, by kind.
    gov_canceled: u64,
    gov_deadline: u64,
    gov_rows: u64,
    gov_memory: u64,
    /// Rewrite-rule activity accumulated at plan time.
    rewrites: RewriteReport,
}

/// The in-process relational engine.
pub struct Engine {
    disk: Disk,
    pool: BufferPool,
    catalog: Catalog,
    exec_stats: ExecStats,
    counters: Counters,
    txn: Option<TxnState>,
    /// Bumped on every catalog change (CREATE/DROP table or index, rollback,
    /// recovery); cached plans tagged with an older epoch are re-planned
    /// before use. TRUNCATE does not bump it: schemas and indexes survive.
    catalog_epoch: u64,
    prepared: BTreeMap<u64, PreparedStmt>,
    next_stmt_id: u64,
    /// Per-operator profile collected by the most recent EXPLAIN ANALYZE.
    last_profile: Vec<OpProfile>,
    /// The session-scoped execution settings (see [`ExecConfig`]).
    exec_cfg: ExecConfig,
    /// Result of the most recent post-recovery integrity verification
    /// reported via [`Engine::note_recovery_verified`]; `None` until a
    /// recovery has been verified (gauge reads -1).
    recovery_verified: Option<bool>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    pub fn new() -> Engine {
        Engine::with_pool_size(DEFAULT_POOL_FRAMES)
    }

    pub fn with_pool_size(frames: usize) -> Engine {
        let mut disk = Disk::new();
        if let Some(n) = env_fault_profile_transient() {
            disk.set_fault_injector(FaultInjector::new().transient_read_every(n));
        }
        let exec_cfg = ExecConfig {
            cancel: Arc::new(AtomicBool::new(false)),
            statement_timeout: None,
            max_rows: None,
            max_bytes: None,
            spill: env_spill_mode(),
            batch_rows: DEFAULT_BATCH_ROWS,
            eval_deadline: None,
        };
        Engine::assemble(disk, frames, Catalog::new(), 0, exec_cfg)
    }

    /// The one place an `Engine` is put together: what a fresh engine and
    /// a fork differ in is passed in, everything else — counters, prepared
    /// statements, transaction state, buffered pages — starts empty.
    fn assemble(
        disk: Disk,
        frames: usize,
        catalog: Catalog,
        catalog_epoch: u64,
        exec_cfg: ExecConfig,
    ) -> Engine {
        Engine {
            disk,
            pool: BufferPool::new(frames),
            catalog,
            exec_stats: ExecStats::default(),
            counters: Counters::default(),
            txn: None,
            catalog_epoch,
            prepared: BTreeMap::new(),
            next_stmt_id: 0,
            last_profile: Vec::new(),
            exec_cfg,
            recovery_verified: None,
        }
    }

    // ------------------------------------------------------------------
    // Execution governor
    // ------------------------------------------------------------------

    /// Set the per-statement wall-clock allowance (`None` = unlimited).
    pub fn set_statement_timeout(&mut self, timeout: Option<Duration>) {
        self.exec_cfg.statement_timeout = timeout;
    }

    /// Set the per-statement rows-processed budget (`None` = unlimited).
    /// Every operator's materialized output counts, so intermediate
    /// blow-ups trip it even when the final result is small.
    pub fn set_row_budget(&mut self, rows: Option<u64>) {
        self.exec_cfg.max_rows = rows;
    }

    /// Set the per-statement materialized-bytes budget (`None` =
    /// unlimited). Charged for hash-join build sides. With spilling
    /// enabled (the default) an operator whose state would not fit the
    /// remaining budget partitions to disk instead of failing; with
    /// [`SpillMode::Disabled`] a breach surfaces as [`DbError::Budget`].
    pub fn set_memory_budget(&mut self, bytes: Option<u64>) {
        self.exec_cfg.max_bytes = bytes;
    }

    /// Set whether memory-bounded operators may spill to disk.
    pub fn set_spill_mode(&mut self, mode: SpillMode) {
        self.exec_cfg.spill = mode;
    }

    pub fn spill_mode(&self) -> SpillMode {
        self.exec_cfg.spill
    }

    /// Set the operator batch size (rows gathered per buffer-pool visit
    /// in scans, rows per governor poll in probe/filter loops). Answers
    /// are identical at any setting ≥ 1.
    pub fn set_batch_rows(&mut self, rows: usize) {
        self.exec_cfg.batch_rows = rows.max(1);
    }

    pub fn batch_rows(&self) -> usize {
        self.exec_cfg.batch_rows
    }

    /// Impose (or clear) an absolute deadline that applies to every
    /// statement until cleared — the Knowledge Manager sets this around an
    /// LFP evaluation so the whole fixpoint, not each statement, races the
    /// clock.
    pub fn set_eval_deadline(&mut self, deadline: Option<Instant>) {
        self.exec_cfg.eval_deadline = deadline;
    }

    /// A clone of the cooperative cancellation flag. Store it anywhere
    /// (another thread, a fault injector) and set it to cancel whatever
    /// statement is running at its next batch boundary.
    pub fn cancel_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.exec_cfg.cancel)
    }

    /// Request cancellation of the running (and any subsequent) statement.
    pub fn cancel(&self) {
        self.exec_cfg.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested and not yet acknowledged.
    pub fn cancel_requested(&self) -> bool {
        self.exec_cfg.cancel.load(Ordering::Relaxed)
    }

    /// Acknowledge a cancellation, letting statements run again.
    pub fn reset_cancel(&self) {
        self.exec_cfg.cancel.store(false, Ordering::Relaxed);
    }

    /// Record the outcome of a post-recovery integrity verification (the
    /// knowledge layer runs the check; the engine owns the metric).
    pub fn note_recovery_verified(&mut self, ok: bool) {
        self.recovery_verified = Some(ok);
    }

    /// Build this statement's governor from the session limits. The
    /// per-statement timeout and the evaluation deadline combine by
    /// whichever expires first.
    fn governor(&self) -> QueryGovernor {
        let deadline = match (self.exec_cfg.statement_timeout, self.exec_cfg.eval_deadline) {
            (None, None) => None,
            (Some(t), None) => Some(Instant::now() + t),
            (None, Some(d)) => Some(d),
            (Some(t), Some(d)) => Some((Instant::now() + t).min(d)),
        };
        QueryGovernor::new(
            ExecLimits {
                deadline,
                max_rows: self.exec_cfg.max_rows,
                max_bytes: self.exec_cfg.max_bytes,
            },
            Arc::clone(&self.exec_cfg.cancel),
        )
    }

    /// Count a budget breach by kind on the way out, so the metrics
    /// registry can report why statements were cut short.
    fn note_budget<T>(&mut self, r: Result<T, DbError>) -> Result<T, DbError> {
        if let Err(DbError::Budget(b)) = &r {
            match b.kind {
                BudgetKind::Canceled => self.counters.gov_canceled += 1,
                BudgetKind::Deadline => self.counters.gov_deadline += 1,
                BudgetKind::Rows => self.counters.gov_rows += 1,
                BudgetKind::Memory => self.counters.gov_memory += 1,
            }
        }
        r
    }

    /// Resize the buffer pool to `frames` frames (dirty pages are
    /// flushed first, the cache restarts cold). Experiments use this to
    /// pit a working set against a deliberately undersized cache.
    pub fn set_pool_frames(&mut self, frames: usize) -> Result<(), DbError> {
        self.pool.resize(&mut self.disk, frames)
    }

    /// Current buffer-pool capacity in frames.
    pub fn pool_frames(&self) -> usize {
        self.pool.capacity()
    }

    // ------------------------------------------------------------------
    // MVCC snapshots
    // ------------------------------------------------------------------

    /// A copy-on-write snapshot of this engine. Disk pages and catalog
    /// entries are shared by `Arc`, so the fork costs O(#tables +
    /// #pages) pointer copies and the two engines are fully isolated
    /// afterwards: a write on either side copies only the page or
    /// catalog entry it touches (counted in `disk.pages_cow`). Dirty
    /// buffered pages are flushed first so the snapshot reflects every
    /// committed write this engine has performed.
    ///
    /// The fork starts with a fresh buffer pool, fresh statistics, its
    /// own cancellation flag, no WAL, no fault injector, and no prepared
    /// statements — it is the MVCC read surface of a concurrent session
    /// ([`crate::concurrent`]), never a durability domain. Execution
    /// knobs (spill mode, batch size, budgets) carry over.
    pub fn fork(&mut self) -> Result<Engine, DbError> {
        if self.txn.is_some() {
            return Err(DbError::Txn(
                "cannot fork during an active transaction".into(),
            ));
        }
        self.pool.flush_all(&mut self.disk)?;
        let exec_cfg = ExecConfig {
            cancel: Arc::new(AtomicBool::new(false)),
            eval_deadline: None,
            ..self.exec_cfg.clone()
        };
        Ok(Engine::assemble(
            self.disk.fork(),
            self.pool.capacity(),
            self.catalog.clone(),
            self.catalog_epoch,
            exec_cfg,
        ))
    }

    /// Replace this engine — a concurrent session's snapshot — with `fork`,
    /// a newer fork of the same live engine. The execution settings stay
    /// with the session: whatever was set on the outgoing snapshot (cancel
    /// handle, timeouts, budgets, spill mode, batch size) moves to the new
    /// one, instead of the copy `fork` took from the live engine — an
    /// evaluation deadline in force included.
    pub(crate) fn replace_snapshot(&mut self, fork: Engine) {
        let outgoing = std::mem::replace(self, fork);
        self.exec_cfg = outgoing.exec_cfg;
    }

    /// Defer per-commit durability flushes to an explicit
    /// [`Engine::fsync_wal`] (the group-commit path; see
    /// [`crate::concurrent`]).
    pub(crate) fn set_defer_fsync(&mut self, on: bool) {
        self.disk.set_defer_fsync(on);
    }

    /// Flush the WAL once on behalf of every deferred commit since the
    /// last flush; returns how many commits this fsync made durable.
    pub(crate) fn fsync_wal(&mut self) -> u64 {
        self.disk.fsync_wal()
    }

    /// Number of live files on the underlying disk (tables, indexes'
    /// heaps, spill files). Tests use this to assert spill files are
    /// reclaimed after aborted statements.
    pub fn disk_live_files(&self) -> usize {
        self.disk.live_files()
    }

    // ------------------------------------------------------------------
    // Durability and transactions
    // ------------------------------------------------------------------

    /// Turn on write-ahead logging (required before [`Engine::begin`]).
    pub fn enable_wal(&mut self) {
        self.disk.enable_wal();
    }

    pub fn wal_enabled(&self) -> bool {
        self.disk.wal_enabled()
    }

    /// Arm a deterministic fault injector on the underlying disk.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.disk.set_fault_injector(injector);
    }

    pub fn clear_fault_injector(&mut self) {
        self.disk.clear_fault_injector();
    }

    /// Whether an injected fault has "powered off" the disk; all I/O fails
    /// until [`Engine::recover`] runs.
    pub fn crashed(&self) -> bool {
        self.disk.crashed()
    }

    /// Whether an engine-level transaction is active.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Flush every dirty buffered page to the disk.
    pub fn flush(&mut self) -> Result<(), DbError> {
        self.pool.flush_all(&mut self.disk)
    }

    /// Begin a transaction. All buffered pages are flushed first so that
    /// every before-image logged during the transaction reflects true
    /// pre-transaction disk state — otherwise rollback could lose writes
    /// that predate the transaction but were still sitting in the pool.
    pub fn begin(&mut self) -> Result<(), DbError> {
        if self.txn.is_some() {
            return Err(DbError::Txn("a transaction is already active".into()));
        }
        self.pool.flush_all(&mut self.disk)?;
        self.disk.begin_txn()?;
        self.txn = Some(TxnState::default());
        Ok(())
    }

    /// Commit the active transaction: flush all buffered pages (each
    /// flush is WAL-logged), then write the commit record and checkpoint.
    /// On error the transaction stays open; if the error was an injected
    /// crash the engine must go through [`Engine::recover`].
    pub fn commit(&mut self) -> Result<(), DbError> {
        if self.txn.is_none() {
            return Err(DbError::Txn("commit without an active transaction".into()));
        }
        // The governor gates the *entry* to commit: a cancellation or
        // deadline observed here aborts before any commit work starts,
        // but once the flush begins the commit runs to completion — the
        // stored state is always fully pre- or fully post-commit, never
        // somewhere in between because a flag flipped mid-flush.
        let check = self.governor().check();
        self.note_budget(check)?;
        self.pool.flush_all(&mut self.disk)?;
        self.disk.commit_txn()?;
        self.txn = None;
        Ok(())
    }

    /// Roll back the active transaction on a healthy disk: discard all
    /// buffered pages, restore before-images from the WAL, and reverse
    /// the catalog changes. A crashed disk rejects this; use
    /// [`Engine::recover`].
    pub fn rollback(&mut self) -> Result<(), DbError> {
        let state = self
            .txn
            .take()
            .ok_or_else(|| DbError::Txn("rollback without an active transaction".into()))?;
        self.pool.discard_all();
        if let Err(e) = self.disk.rollback_txn() {
            // Keep the catalog bookkeeping so recover() can still undo it.
            self.txn = Some(state);
            return Err(e);
        }
        self.undo_catalog(state);
        self.rebuild_volatile_state()
    }

    /// Crash recovery: discard the (possibly stale) buffer pool, replay
    /// committed WAL records and undo uncommitted ones, reverse any
    /// catalog changes of an in-flight transaction, and rebuild all
    /// volatile state (heap counters, in-memory indexes) from the
    /// recovered pages.
    pub fn recover(&mut self) -> Result<RecoveryReport, DbError> {
        self.pool.discard_all();
        let report = self.disk.recover_wal()?;
        if let Some(state) = self.txn.take() {
            self.undo_catalog(state);
        }
        self.rebuild_volatile_state()?;
        Ok(report)
    }

    /// Reverse the catalog-level actions of a transaction, newest first.
    fn undo_catalog(&mut self, state: TxnState) {
        self.catalog_epoch += 1;
        for op in state.ops.into_iter().rev() {
            match op {
                TxnOp::Created(name) => {
                    // The heap file itself is removed by the WAL undo.
                    let _ = self.catalog.take_table(&name);
                }
                TxnOp::Dropped(table) => self.catalog.restore_table(table),
            }
        }
    }

    /// Rebuild everything that lives only in memory from on-disk pages:
    /// heap tuple counts / insert hints, and index directories.
    fn rebuild_volatile_state(&mut self) -> Result<(), DbError> {
        let disk = &mut self.disk;
        let pool = &mut self.pool;
        for table in self.catalog.tables_mut() {
            table.heap.rebuild_stats(disk, pool)?;
            if table.indexes.is_empty() {
                continue;
            }
            for index in &mut table.indexes {
                index.clear();
            }
            let Table {
                name,
                heap,
                indexes,
                ..
            } = table;
            let mut row = Vec::new();
            heap.scan().for_each(disk, pool, |rid, payload| {
                decode_into(name, rid, payload, &mut row)?;
                for index in indexes.iter_mut() {
                    index.insert(&row, rid);
                }
                Ok(())
            })?;
        }
        Ok(())
    }

    /// Execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<ResultSet, DbError> {
        let t0 = Instant::now();
        let stmt = parse_stmt(sql);
        self.exec_stats.parse_ns += t0.elapsed().as_nanos() as u64;
        self.run_stmt(&stmt?)
    }

    /// Execute a semicolon-separated script, returning the last result.
    pub fn execute_script(&mut self, sql: &str) -> Result<ResultSet, DbError> {
        let t0 = Instant::now();
        let stmts = parse_script(sql);
        self.exec_stats.parse_ns += t0.elapsed().as_nanos() as u64;
        let mut last = ResultSet::empty();
        for stmt in &stmts? {
            last = self.run_stmt(stmt)?;
        }
        Ok(last)
    }

    // ------------------------------------------------------------------
    // Prepared statements
    // ------------------------------------------------------------------

    /// Parse `sql` once and keep the AST for repeated execution. `?`
    /// placeholders become positional parameters bound at
    /// [`Engine::execute_prepared`] time; query-bearing statements also get
    /// their physical plan cached (per catalog epoch) on first execution.
    pub fn prepare(&mut self, sql: &str) -> Result<StmtId, DbError> {
        let t0 = Instant::now();
        let parsed = parse_stmt_params(sql);
        self.exec_stats.parse_ns += t0.elapsed().as_nanos() as u64;
        let (stmt, n_params) = parsed?;
        let id = self.next_stmt_id;
        self.next_stmt_id += 1;
        self.prepared.insert(
            id,
            PreparedStmt {
                stmt: Arc::new(stmt),
                n_params,
                plan: None,
            },
        );
        Ok(StmtId(id))
    }

    /// Drop a prepared statement and its cached plan.
    pub fn deallocate(&mut self, id: StmtId) -> Result<(), DbError> {
        self.prepared
            .remove(&id.0)
            .map(|_| ())
            .ok_or_else(|| DbError::Plan(format!("no such prepared statement: {id:?}")))
    }

    /// Execute a prepared statement with `params` bound to its `?`
    /// placeholders in parse order. Queries reuse the cached physical plan
    /// when the catalog epoch still matches; otherwise they re-plan (and
    /// re-cache) first — a DROP/CREATE of a referenced table can therefore
    /// never execute a stale plan.
    pub fn execute_prepared(&mut self, id: StmtId, params: &[Value]) -> Result<ResultSet, DbError> {
        let (stmt, n_params) = {
            let e = self
                .prepared
                .get(&id.0)
                .ok_or_else(|| DbError::Plan(format!("no such prepared statement: {id:?}")))?;
            (Arc::clone(&e.stmt), e.n_params)
        };
        if params.len() != n_params {
            return Err(DbError::Plan(format!(
                "prepared statement expects {n_params} parameter(s), got {}",
                params.len()
            )));
        }
        self.counters.statements += 1;
        match &*stmt {
            Stmt::Select(query) => {
                let planned = self.cached_plan(id, query, None)?;
                self.execute_planned(&planned, params)
            }
            Stmt::InsertSelect { table, query } => {
                let planned = self.cached_plan(id, query, Some(table))?;
                let rows = self.run_planned(&planned, params)?;
                let n = self.insert_slices(table, rows.len(), |i| rows.row(i))?;
                Ok(ResultSet::dml(n))
            }
            Stmt::InsertValues { table, rows } => {
                let rows = bind_rows(rows, params)?;
                let n = self.insert_rows(table, rows)?;
                Ok(ResultSet::dml(n))
            }
            Stmt::Delete { table, predicate } => {
                let bound = bind_conditions(predicate, params)?;
                let n = self.delete_where(table, &bound)?;
                Ok(ResultSet::dml(n))
            }
            Stmt::Explain(query) => {
                let planned = self.cached_plan(id, query, None)?;
                Ok(explain_result(&planned))
            }
            Stmt::ExplainAnalyze(query) => {
                let planned = self.cached_plan(id, query, None)?;
                self.explain_analyze(&planned, params)
            }
            other => self.dispatch_stmt(other),
        }
    }

    /// Fetch the plan cached for `id` if it was built under the current
    /// catalog epoch and the row counts it was costed from are still
    /// current; otherwise (re-)plan, type-check an INSERT SELECT target if
    /// given, and cache the result under the current epoch.
    fn cached_plan(
        &mut self,
        id: StmtId,
        query: &Query,
        insert_target: Option<&str>,
    ) -> Result<Arc<PlannedQuery>, DbError> {
        let epoch = self.catalog_epoch;
        let mut stale = false;
        if let Some((cached_epoch, planned)) =
            self.prepared.get(&id.0).and_then(|e| e.plan.as_ref())
        {
            if *cached_epoch == epoch {
                // The epoch only tracks schema changes; join orders and
                // join methods were costed from the row counts at plan
                // time. Re-plan when any base table's live row count
                // diverged past the drift threshold — the cached plan may
                // be inverted relative to what the planner picks today.
                if !stats_stale(&self.catalog, planned) {
                    self.exec_stats.plan_cache_hits += 1;
                    return Ok(Arc::clone(planned));
                }
                stale = true;
            }
        }
        if stale {
            self.exec_stats.plan_replans += 1;
        } else {
            self.exec_stats.plan_cache_misses += 1;
        }
        let planned = Arc::new(self.plan(query)?);
        if let Some(table) = insert_target {
            self.check_insert_select_types(table, query)?;
        }
        if let Some(e) = self.prepared.get_mut(&id.0) {
            e.plan = Some((epoch, Arc::clone(&planned)));
        }
        Ok(planned)
    }

    /// Plan a query, timing it and folding the rewrite report into the
    /// engine-wide rewrite counters.
    fn plan(&mut self, query: &Query) -> Result<PlannedQuery, DbError> {
        let t0 = Instant::now();
        let planned = plan_query(&self.catalog, query);
        self.exec_stats.plan_ns += t0.elapsed().as_nanos() as u64;
        let planned = planned?;
        self.counters.rewrites.absorb(planned.rewrites);
        Ok(planned)
    }

    /// Execute an already-parsed statement.
    pub fn run_stmt(&mut self, stmt: &Stmt) -> Result<ResultSet, DbError> {
        if stmt_has_param(stmt) {
            return Err(DbError::Plan(
                "statement contains `?` parameters; use prepare/execute_prepared".into(),
            ));
        }
        self.counters.statements += 1;
        self.dispatch_stmt(stmt)
    }

    fn dispatch_stmt(&mut self, stmt: &Stmt) -> Result<ResultSet, DbError> {
        match stmt {
            Stmt::CreateTable {
                name,
                columns,
                temp,
            } => {
                let schema = Schema::new(
                    columns
                        .iter()
                        .map(|(n, t)| crate::schema::Column::new(n.clone(), *t))
                        .collect(),
                );
                self.catalog
                    .create_table(&mut self.disk, name, schema, *temp)?;
                self.counters.tables_created += 1;
                self.catalog_epoch += 1;
                if let Some(txn) = self.txn.as_mut() {
                    txn.ops.push(TxnOp::Created(name.clone()));
                }
                Ok(ResultSet::empty())
            }
            Stmt::DropTable { name, if_exists } => {
                let result = if self.txn.is_some() {
                    self.drop_table_in_txn(name)
                } else {
                    self.catalog
                        .drop_table(&mut self.disk, &mut self.pool, name)
                };
                match result {
                    Ok(()) => {
                        self.counters.tables_dropped += 1;
                        self.catalog_epoch += 1;
                        Ok(ResultSet::empty())
                    }
                    Err(DbError::NoSuchTable(_)) if *if_exists => Ok(ResultSet::empty()),
                    Err(e) => Err(e),
                }
            }
            Stmt::CreateIndex {
                name,
                table,
                columns,
                ordered,
            } => {
                self.catalog.create_index(
                    &mut self.disk,
                    &mut self.pool,
                    name,
                    table,
                    columns,
                    *ordered,
                )?;
                self.catalog_epoch += 1;
                Ok(ResultSet::empty())
            }
            Stmt::DropIndex { name } => {
                self.catalog.drop_index(name)?;
                self.catalog_epoch += 1;
                Ok(ResultSet::empty())
            }
            Stmt::InsertValues { table, rows } => {
                // run_stmt's parameter guard ensures every scalar is a
                // literal here.
                let rows = bind_rows(rows, &[])?;
                let n = self.insert_rows(table, rows)?;
                Ok(ResultSet::dml(n))
            }
            Stmt::InsertSelect { table, query } => {
                // Type-check source against target, then run and load.
                self.check_insert_select_types(table, query)?;
                let planned = self.plan(query)?;
                let rows = self.run_planned(&planned, &[])?;
                let n = self.insert_slices(table, rows.len(), |i| rows.row(i))?;
                Ok(ResultSet::dml(n))
            }
            Stmt::InsertTransitiveClosure { table, source } => {
                let n = self.transitive_closure(source, table)?;
                Ok(ResultSet::dml(n))
            }
            Stmt::Delete { table, predicate } => {
                let n = self.delete_where(table, predicate)?;
                Ok(ResultSet::dml(n))
            }
            Stmt::Truncate { table } => {
                let n = self.clear_table(table)?;
                Ok(ResultSet::dml(n))
            }
            Stmt::Select(query) => self.run_query(query),
            Stmt::Explain(query) => Ok(explain_result(&self.plan(query)?)),
            Stmt::ExplainAnalyze(query) => {
                let planned = self.plan(query)?;
                self.explain_analyze(&planned, &[])
            }
        }
    }

    /// Check that `query`'s output column types match `table`'s schema.
    fn check_insert_select_types(&self, table: &str, query: &Query) -> Result<(), DbError> {
        let src_types = output_types(&self.catalog, query)?;
        let target = self.catalog.table(table)?;
        if src_types.len() != target.schema.arity() {
            return Err(DbError::Plan(format!(
                "INSERT SELECT arity mismatch: query yields {} columns, {} has {}",
                src_types.len(),
                table,
                target.schema.arity()
            )));
        }
        for (i, ty) in src_types.iter().enumerate() {
            let expected = target.schema.column(i).ty;
            if *ty != expected {
                return Err(DbError::TypeMismatch(format!(
                    "INSERT SELECT column {i}: query yields {ty}, {table} expects {expected}"
                )));
            }
        }
        Ok(())
    }

    /// `DROP TABLE` inside a transaction: keep the [`Table`] so rollback
    /// can resurrect it; the disk defers the file drop to commit. Cached
    /// frames are discarded, which is safe because `begin` flushed all
    /// pre-transaction state and in-transaction changes to a doomed table
    /// are dead either way (dropped at commit, undone at rollback).
    fn drop_table_in_txn(&mut self, name: &str) -> Result<(), DbError> {
        let table = self.catalog.take_table(name)?;
        self.pool.discard_file(table.heap.file_id());
        self.disk.drop_file(table.heap.file_id());
        self.txn
            .as_mut()
            .expect("checked by caller")
            .ops
            .push(TxnOp::Dropped(table));
        Ok(())
    }

    /// Plan and execute a query against the current catalog.
    fn run_query(&mut self, query: &Query) -> Result<ResultSet, DbError> {
        let planned = self.plan(query)?;
        self.execute_planned(&planned, &[])
    }

    /// Run a physical plan and hand its rows out of the engine — the one
    /// place a row buffer becomes a vector per row.
    fn execute_planned(
        &mut self,
        planned: &PlannedQuery,
        params: &[Value],
    ) -> Result<ResultSet, DbError> {
        let rows = self.run_planned(planned, params)?;
        Ok(ResultSet {
            columns: planned.columns.clone(),
            rows: rows.into_rows(self.catalog.syms()),
            affected: 0,
        })
    }

    /// Run a physical plan with the given parameter bindings.
    fn run_planned(&mut self, planned: &PlannedQuery, params: &[Value]) -> Result<RowBuf, DbError> {
        let t0 = Instant::now();
        let governor = self.governor();
        let rows = {
            let mut ctx = ExecCtx {
                catalog: &self.catalog,
                disk: &mut self.disk,
                pool: &mut self.pool,
                stats: &mut self.exec_stats,
                params,
                profiler: None,
                governor: Some(&governor),
                spill: self.exec_cfg.spill,
                batch_rows: self.exec_cfg.batch_rows,
            };
            execute_plan(&planned.plan, &mut ctx)
        };
        self.exec_stats.exec_ns += t0.elapsed().as_nanos() as u64;
        let rows = self.note_budget(rows)?;
        self.exec_stats.rows_output += rows.len() as u64;
        Ok(rows)
    }

    /// Execute `planned` with the per-operator profiler installed and
    /// render the plan tree annotated with runtime counters. The collected
    /// profile stays available through [`Engine::last_profile`].
    fn explain_analyze(
        &mut self,
        planned: &PlannedQuery,
        params: &[Value],
    ) -> Result<ResultSet, DbError> {
        let t0 = Instant::now();
        let governor = self.governor();
        let (rows, profile) = {
            let mut ctx = ExecCtx {
                catalog: &self.catalog,
                disk: &mut self.disk,
                pool: &mut self.pool,
                stats: &mut self.exec_stats,
                params,
                profiler: Some(Profiler::default()),
                governor: Some(&governor),
                spill: self.exec_cfg.spill,
                batch_rows: self.exec_cfg.batch_rows,
            };
            let rows = execute_plan(&planned.plan, &mut ctx);
            let profile = ctx.profiler.take().expect("installed above").into_nodes();
            (rows, profile)
        };
        self.exec_stats.exec_ns += t0.elapsed().as_nanos() as u64;
        let rows = self.note_budget(rows)?;
        self.exec_stats.rows_output += rows.len() as u64;
        // The profiler records operators in strict pre-order — the same
        // order `estimate_plan` walked the plan — so the planner's row
        // estimates zip onto the profile nodes by index.
        let mut profile = profile;
        for (op, est) in profile.iter_mut().zip(planned.est_rows.iter()) {
            op.est_rows = Some(*est);
        }
        let mut lines: Vec<Tuple> = profile
            .iter()
            .map(|op| vec![Value::Str(render_op_profile(op))])
            .collect();
        // Top-level misestimation summary: the worst estimated-vs-actual
        // ratio across operators, naming the offender.
        let worst = profile
            .iter()
            .filter_map(|op| {
                let est = op.est_rows?;
                let actual = op.rows_out;
                let ratio = (est.max(actual).max(1)) as f64 / (est.min(actual).max(1)) as f64;
                Some((ratio, op.label.clone()))
            })
            .max_by(|a, b| a.0.total_cmp(&b.0));
        if let Some((ratio, label)) = worst {
            lines.push(vec![Value::Str(format!(
                "max misestimate {ratio:.1}x at {label}"
            ))]);
        }
        self.last_profile = profile;
        Ok(ResultSet {
            columns: vec!["plan".to_string()],
            rows: lines,
            affected: 0,
        })
    }

    /// Per-operator profile of the most recent `EXPLAIN ANALYZE`, in
    /// pre-order (the same order as the rendered plan rows).
    pub fn last_profile(&self) -> &[OpProfile] {
        &self.last_profile
    }

    /// EXPLAIN lines of the physical plan currently cached for a prepared
    /// statement, if one has been built. Lets tests and tools observe the
    /// join order a prepared statement would actually execute.
    pub fn prepared_plan_text(&self, id: StmtId) -> Option<Vec<String>> {
        self.prepared
            .get(&id.0)
            .and_then(|e| e.plan.as_ref())
            .map(|(_, planned)| planned.plan.explain())
    }

    /// Bulk-insert rows (programmatic fast path; also used by SQL INSERT).
    /// The whole batch is type-checked against the table schema before any
    /// row touches the heap, so a mid-batch mismatch cannot leave a partial
    /// insert behind.
    pub fn insert_rows(&mut self, table: &str, rows: Vec<Tuple>) -> Result<u64, DbError> {
        self.insert_slices(table, rows.len(), |i| rows[i].as_slice())
    }

    /// [`Engine::insert_rows`] over `n` rows wherever they lie: `row(i)` is
    /// the `i`-th — a caller's values, or a row of a row buffer, which is
    /// how `INSERT … SELECT` loads without ever holding a vector per row.
    /// The page receives the same bytes either way.
    fn insert_slices<'r, R: LoadRow + ?Sized + 'r>(
        &mut self,
        table: &str,
        n: usize,
        row: impl Fn(usize) -> &'r R,
    ) -> Result<u64, DbError> {
        // Governor checks happen *before* the first row is written: a
        // budget breach (or a pending cancellation) rejects the whole
        // batch, so DML batches stay all-or-nothing under the governor
        // exactly as they are under type checking.
        let governor = self.governor();
        let admitted = governor
            .check()
            .and_then(|()| governor.charge_rows(n as u64));
        self.note_budget(admitted)?;
        let (t, syms) = self.catalog.table_mut_and_syms(table)?;
        for row in (0..n).map(&row) {
            if !row.admitted_by(&t.schema) {
                return Err(DbError::TypeMismatch(format!(
                    "row {row:?} does not match schema {} of {}",
                    t.schema, t.name
                )));
            }
            let bytes = row.encoded_len(syms);
            if bytes > MAX_PAYLOAD {
                return Err(DbError::RowTooLarge {
                    bytes,
                    max: MAX_PAYLOAD,
                });
            }
        }
        // One pass over the heap (every row serialized into the same
        // buffer, each page filled under one visit), then one pass per
        // index. If the disk fails part-way, the rows already placed are
        // still indexed and counted before the error is returned.
        let mut rids = Vec::with_capacity(n);
        let appended = t.heap.append(
            &mut self.disk,
            &mut self.pool,
            n,
            |i, buf| row(i).encode(syms, buf),
            &mut rids,
        );
        for index in &mut t.indexes {
            index.reserve(rids.len());
            let mut names = syms.interner();
            for (i, &rid) in rids.iter().enumerate() {
                row(i).file(index, rid, &mut names);
            }
        }
        appended?;
        Ok(rids.len() as u64)
    }

    /// Empty `table` in one step, keeping its schema and (emptied) indexes —
    /// the TRUNCATE fast path that lets the LFP runtime recycle its
    /// per-iteration candidate/delta tables instead of dropping and
    /// recreating them. Returns the number of rows discarded. Truncation is
    /// not WAL-logged, so inside a transaction this falls back to the
    /// logged per-row delete path.
    pub fn clear_table(&mut self, table: &str) -> Result<u64, DbError> {
        if self.txn.is_some() {
            return self.delete_where(table, &[]);
        }
        self.truncate_now(table)
    }

    /// Non-transactional truncate: discard every heap page and clear the
    /// in-memory indexes. The catalog epoch is untouched — schemas and
    /// index definitions survive, so cached plans stay valid.
    fn truncate_now(&mut self, table: &str) -> Result<u64, DbError> {
        let t = self.catalog.table_mut(table)?;
        let prior = t.heap.tuple_count();
        t.heap.clear(&mut self.disk, &mut self.pool)?;
        for index in &mut t.indexes {
            index.clear();
        }
        Ok(prior)
    }

    /// Delete rows matching a conjunction of conditions over one table.
    ///
    /// Three paths, cheapest first: an empty predicate outside a
    /// transaction truncates; a conjunction of simple per-column conditions
    /// is evaluated directly against the heap (via an index probe when an
    /// index key is fully covered by equality conditions, else one
    /// sequential scan); anything else — NOT EXISTS, type errors worth
    /// reporting — goes through the ordinary query pipeline, whose matching
    /// row *values* then drive a victim scan that is deliberately not
    /// counted as a second logical scan. Deletion removes every duplicate
    /// of a matched row, exactly as predicate semantics demand.
    fn delete_where(&mut self, table: &str, predicate: &[Condition]) -> Result<u64, DbError> {
        let governor = self.governor();
        let r = self.delete_where_governed(table, predicate, &governor);
        self.note_budget(r)
    }

    /// [`Engine::delete_where`] body, with the statement's governor in
    /// scope. The victim *search* is governed (entry check plus batch
    /// ticks in the scans); the victim *application* — removing already
    /// collected rids — runs to completion so a mid-delete breach can
    /// never leave half the matched duplicates behind.
    fn delete_where_governed(
        &mut self,
        table: &str,
        predicate: &[Condition],
        governor: &QueryGovernor,
    ) -> Result<u64, DbError> {
        governor.check()?;
        if predicate.is_empty() && self.txn.is_none() {
            return self.truncate_now(table);
        }

        let direct = if predicate.is_empty() {
            Some(Vec::new()) // in-txn delete-all: scan once, match everything
        } else {
            resolve_delete_conds(self.catalog.table(table)?, table, predicate)
        };

        let victims: Vec<(RecordId, Tuple)> = if let Some(conds) = direct {
            let t = self.catalog.table(table)?;
            let syms = self.catalog.syms();
            // Probe an index when equality conditions cover its whole key.
            let probe: Option<(usize, Vec<Value>)> =
                t.indexes.iter().enumerate().find_map(|(pos, index)| {
                    let key: Option<Vec<Value>> = index
                        .key_cols()
                        .iter()
                        .map(|kc| {
                            conds.iter().find_map(|c| match c {
                                ExecCond::ColCmpLit(col, CmpOp::Eq, v) if col == kc => {
                                    Some(v.clone())
                                }
                                _ => None,
                            })
                        })
                        .collect();
                    key.map(|k| (pos, k))
                });
            let conds = bind_conds(&conds, &[], syms);
            // A record's values, when it satisfies the conditions.
            let mut row = Vec::new();
            let mut matched = |rid: RecordId, payload: &[u8]| -> Result<Option<Tuple>, DbError> {
                decode_datums(table, rid, payload, &mut row, &mut syms.reader())?;
                Ok(eval_all(&conds, &row, syms)
                    .then(|| row.iter().map(|&d| syms.value(d)).collect()))
            };
            let mut victims = Vec::new();
            if let Some((pos, key)) = probe {
                self.exec_stats.index_probes += 1;
                for &rid in t.indexes[pos].lookup_values(&key) {
                    let fetched = t
                        .heap
                        .read(&mut self.disk, &mut self.pool, rid, |payload| {
                            matched(rid, payload)
                        })?;
                    let Some(found) = fetched.transpose()? else {
                        continue;
                    };
                    self.exec_stats.tuples_fetched += 1;
                    if let Some(tuple) = found {
                        victims.push((rid, tuple));
                    }
                }
            } else {
                let mut seen = 0usize;
                t.heap
                    .scan()
                    .for_each(&mut self.disk, &mut self.pool, |rid, payload| {
                        if seen.is_multiple_of(GOVERNOR_CHECK_INTERVAL) {
                            governor.check()?;
                        }
                        seen += 1;
                        self.exec_stats.tuples_scanned += 1;
                        if let Some(tuple) = matched(rid, payload)? {
                            victims.push((rid, tuple));
                        }
                        Ok(())
                    })?;
            }
            victims
        } else {
            // Complex predicate: let the query pipeline find the matching
            // values (it counts its own scan), then locate their rids
            // without counting the victim scan a second time.
            let query = Query::Select(crate::sql::ast::SelectBlock {
                distinct: false,
                projections: vec![SelectItem::Star],
                from: vec![crate::sql::ast::TableRef {
                    table: table.to_string(),
                    alias: None,
                }],
                where_clause: predicate.to_vec(),
                group_by: Vec::new(),
                order_by: Vec::new(),
            });
            let matching: std::collections::HashSet<Tuple> =
                self.run_query(&query)?.rows.into_iter().collect();
            let t = self.catalog.table(table)?;
            let mut victims = Vec::new();
            t.heap
                .scan()
                .for_each(&mut self.disk, &mut self.pool, |rid, payload| {
                    let tuple = decode_tuple(table, rid, payload)?;
                    if matching.contains(&tuple) {
                        victims.push((rid, tuple));
                    }
                    Ok(())
                })?;
            victims
        };

        let t = self.catalog.table_mut(table)?;
        let n = victims.len() as u64;
        for (rid, tuple) in victims {
            t.heap.delete(&mut self.disk, &mut self.pool, rid)?;
            for index in &mut t.indexes {
                index.remove(&tuple, rid);
            }
        }
        Ok(n)
    }

    /// The specialized LFP operator of the paper's conclusion #8: compute
    /// the transitive closure of binary relation `source` entirely inside
    /// the engine — one scan, an in-memory semi-naive expansion, one bulk
    /// load — avoiding the per-iteration temporary tables, full-table
    /// copies and set-difference termination checks of the SQL-level loop.
    /// Appends the closure (deduplicated against `target`'s contents) to
    /// `target` and returns the number of rows added.
    pub fn transitive_closure(&mut self, source: &str, target: &str) -> Result<u64, DbError> {
        let governor = self.governor();
        let fresh = {
            let r = self.tc_expand(source, target, &governor);
            self.note_budget(r)?
        };
        self.insert_rows(target, fresh)
    }

    /// The expansion phase of [`Engine::transitive_closure`]: scan the
    /// source, run the in-memory reachability search, and return the new
    /// (deduplicated, sorted) closure rows. Governed throughout — the
    /// in-memory search is exactly where a dense cyclic input blows up,
    /// so each emitted closure pair counts against the row budget and
    /// cancellation is observed every batch of expansions.
    fn tc_expand(
        &mut self,
        source: &str,
        target: &str,
        governor: &QueryGovernor,
    ) -> Result<Vec<Tuple>, DbError> {
        use std::collections::{HashMap, HashSet};

        governor.check()?;
        let src = self.catalog.table(source)?;
        if src.schema.arity() != 2 {
            return Err(DbError::Plan(format!(
                "TRANSITIVE CLOSURE requires a binary relation; {} has arity {}",
                source,
                src.schema.arity()
            )));
        }
        let tgt = self.catalog.table(target)?;
        if tgt.schema.arity() != 2 {
            return Err(DbError::Plan(format!(
                "TRANSITIVE CLOSURE target must be binary; {} has arity {}",
                target,
                tgt.schema.arity()
            )));
        }

        // One scan of the source builds the adjacency map.
        let mut adjacency: HashMap<Value, Vec<Value>> = HashMap::new();
        let mut seen_rows = 0usize;
        src.heap
            .scan()
            .for_each(&mut self.disk, &mut self.pool, |rid, payload| {
                if seen_rows.is_multiple_of(GOVERNOR_CHECK_INTERVAL) {
                    governor.check()?;
                }
                seen_rows += 1;
                self.exec_stats.tuples_scanned += 1;
                let mut tuple = decode_tuple(source, rid, payload)?;
                let b = tuple.pop().expect("binary");
                let a = tuple.pop().expect("binary");
                adjacency.entry(a).or_default().push(b);
                Ok(())
            })?;

        // Per-source BFS: closed[a] = everything reachable from a. The
        // iteration works on pointers into the adjacency map — the "buffer
        // pointer manipulation" the paper says the operator enables.
        let mut closure: HashSet<(Value, Value)> = HashSet::new();
        for start in adjacency.keys() {
            let mut seen: HashSet<&Value> = HashSet::new();
            let mut stack: Vec<&Value> = vec![start];
            while let Some(node) = stack.pop() {
                for next in adjacency.get(node).into_iter().flatten() {
                    if seen.insert(next) {
                        if closure.len().is_multiple_of(GOVERNOR_CHECK_INTERVAL) {
                            governor.check()?;
                        }
                        governor.charge_rows(1)?;
                        closure.insert((start.clone(), next.clone()));
                        stack.push(next);
                    }
                }
            }
        }

        // Deduplicate against existing target rows, then bulk-load.
        let existing: HashSet<(Value, Value)> = {
            let tgt = self.catalog.table(target)?;
            let mut out = HashSet::new();
            let mut seen_rows = 0usize;
            tgt.heap
                .scan()
                .for_each(&mut self.disk, &mut self.pool, |rid, payload| {
                    if seen_rows.is_multiple_of(GOVERNOR_CHECK_INTERVAL) {
                        governor.check()?;
                    }
                    seen_rows += 1;
                    self.exec_stats.tuples_scanned += 1;
                    let mut tuple = decode_tuple(target, rid, payload)?;
                    let b = tuple.pop().expect("binary");
                    let a = tuple.pop().expect("binary");
                    out.insert((a, b));
                    Ok(())
                })?;
            out
        };
        let mut fresh: Vec<Tuple> = closure
            .into_iter()
            .filter(|p| !existing.contains(p))
            .map(|(a, b)| vec![a, b])
            .collect();
        fresh.sort();
        Ok(fresh)
    }

    /// Number of live rows in `table`.
    pub fn table_len(&self, table: &str) -> Result<u64, DbError> {
        Ok(self.catalog.table(table)?.heap.tuple_count())
    }

    pub fn has_table(&self, table: &str) -> bool {
        self.catalog.has_table(table)
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog
            .table_names()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    /// Schema of `table`.
    pub fn table_schema(&self, table: &str) -> Result<Schema, DbError> {
        Ok(self.catalog.table(table)?.schema.clone())
    }

    /// Schema, temp flag, and index specs (name, key columns) of `table` —
    /// the metadata snapshots persist.
    pub fn table_info(&self, table: &str) -> Result<(Schema, bool, Vec<IndexSpec>), DbError> {
        let t = self.catalog.table(table)?;
        let indexes = t
            .indexes
            .iter()
            .map(|i| (i.name().to_string(), i.key_cols().to_vec(), i.is_ordered()))
            .collect();
        Ok((t.schema.clone(), t.is_temp, indexes))
    }

    /// Materialize every live row of `table` (used by snapshots; prefer
    /// SQL for queries).
    pub fn scan_all(&mut self, table: &str) -> Result<Vec<Tuple>, DbError> {
        let t = self.catalog.table(table)?;
        let mut out = Vec::with_capacity(t.heap.tuple_count() as usize);
        t.heap
            .scan()
            .for_each(&mut self.disk, &mut self.pool, |rid, payload| {
                out.push(decode_tuple(table, rid, payload)?);
                Ok(())
            })?;
        Ok(out)
    }

    /// Drop all temporary tables, returning how many were dropped.
    pub fn drop_temp_tables(&mut self) -> usize {
        let n = self
            .catalog
            .drop_temp_tables(&mut self.disk, &mut self.pool);
        self.counters.tables_dropped += n as u64;
        if n > 0 {
            self.catalog_epoch += 1;
        }
        n
    }

    /// A snapshot of all counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            disk: self.disk.stats(),
            buffer: self.pool.stats(),
            exec: self.exec_stats,
            statements: self.counters.statements,
            tables_created: self.counters.tables_created,
            tables_dropped: self.counters.tables_dropped,
        }
    }

    /// All engine counters as a [`metrics::Registry`](crate::metrics::Registry)
    /// snapshot, ready for JSON export. Names are `layer.counter`.
    pub fn metrics(&self) -> crate::metrics::Registry {
        let s = self.stats();
        let mut r = crate::metrics::Registry::new();
        r.counter("disk.pages_read", s.disk.pages_read);
        r.counter("disk.pages_written", s.disk.pages_written);
        r.counter("disk.pages_allocated", s.disk.pages_allocated);
        r.counter("disk.pages_cow", s.disk.pages_cow);
        r.counter("disk.read_retries", s.disk.read_retries);
        r.counter("disk.torn_writes", s.disk.torn_writes);
        r.counter("disk.injected_faults", s.disk.injected_faults);
        r.counter("wal.records", s.disk.wal_records);
        r.counter("wal.bytes", s.disk.wal_bytes);
        r.counter("wal.checkpoints", s.disk.wal_checkpoints);
        r.counter("wal.fsyncs", s.disk.fsyncs);
        r.counter("wal.group_commits", s.disk.group_commits);
        r.counter("wal.group_committed_txns", s.disk.group_committed_txns);
        r.gauge("wal.high_water_bytes", s.disk.wal_high_water_bytes as f64);
        r.counter("buffer.hits", s.buffer.hits);
        r.counter("buffer.misses", s.buffer.misses);
        r.counter("buffer.evictions", s.buffer.evictions);
        r.counter("buffer.dirty_writebacks", s.buffer.dirty_writebacks);
        r.gauge("buffer.hit_rate", s.buffer.hit_rate());
        r.counter("exec.tuples_scanned", s.exec.tuples_scanned);
        r.counter("exec.tuples_fetched", s.exec.tuples_fetched);
        r.counter("exec.index_probes", s.exec.index_probes);
        r.counter("exec.join_output", s.exec.join_output);
        r.counter("exec.rows_output", s.exec.rows_output);
        r.counter("exec.plan_cache_hits", s.exec.plan_cache_hits);
        r.counter("exec.plan_cache_misses", s.exec.plan_cache_misses);
        r.counter("exec.plan_replans", s.exec.plan_replans);
        r.counter("exec.parse_ns", s.exec.parse_ns);
        r.counter("exec.plan_ns", s.exec.plan_ns);
        r.counter("exec.exec_ns", s.exec.exec_ns);
        r.counter("exec.spill_partitions", s.exec.spill_partitions);
        r.counter("exec.spill_bytes", s.exec.spill_bytes);
        r.counter("exec.sort_runs", s.exec.sort_runs);
        r.counter("exec.batches", s.exec.batches);
        r.counter("governor.cancellations", self.counters.gov_canceled);
        r.counter("governor.deadline_breaches", self.counters.gov_deadline);
        r.counter("governor.row_budget_breaches", self.counters.gov_rows);
        r.counter("governor.memory_budget_breaches", self.counters.gov_memory);
        r.counter("engine.statements", s.statements);
        r.counter("engine.tables_created", s.tables_created);
        r.counter("engine.tables_dropped", s.tables_dropped);
        r.gauge("engine.prepared_open", self.prepared.len() as f64);
        let syms = self.catalog.syms();
        r.gauge("engine.symbols", syms.len() as f64);
        r.gauge("engine.symbol_bytes", syms.bytes() as f64);
        let rewrites = self.counters.rewrites;
        r.counter("plan.predicates_pushed", rewrites.predicates_pushed);
        r.counter("plan.projections_pruned", rewrites.projections_pruned);
        // -1 = no verified recovery yet, 1 = last recovery verified clean,
        // 0 = last recovery FAILED verification.
        r.gauge(
            "engine.recovery_verified",
            match self.recovery_verified {
                None => -1.0,
                Some(true) => 1.0,
                Some(false) => 0.0,
            },
        );
        r
    }
}

// ----------------------------------------------------------------------
// Environment
// ----------------------------------------------------------------------
//
// Every environment variable the engine reads, each once, when an engine
// (or a `SharedEngine`) is constructed. They exist so CI can run the
// unmodified test suite in another mode; programs use the setters.
//
// | variable              | values                     | effect |
// |-----------------------|----------------------------|--------|
// | `RDBMS_SPILL`         | `off`/`0`/`false`          | spilling disabled: a memory-budget breach stays fatal |
// |                       | `force`                    | every memory-bounded operator spills, so small data exercises the path |
// |                       | anything else, or unset    | budget-triggered spilling |
// | `RDBMS_FAULT_PROFILE` | `transient:<n>`, n >= 2    | every nth page read of a fresh engine fails once: the retry path stays hot |
// | `RDBMS_FSYNC_MICROS`  | integer, default 0         | simulated latency of each group-commit fsync, so batching shows in throughput |

fn env_spill_mode() -> SpillMode {
    match std::env::var("RDBMS_SPILL").ok().as_deref() {
        Some("off") | Some("0") | Some("false") => SpillMode::Disabled,
        Some("force") => SpillMode::Forced,
        _ => SpillMode::Enabled,
    }
}

/// Values below 2 are ignored: a faulted retry of a faulted read would
/// turn the transient profile into a permanent outage.
fn env_fault_profile_transient() -> Option<u64> {
    let profile = std::env::var("RDBMS_FAULT_PROFILE").ok()?;
    let n = profile.strip_prefix("transient:")?.parse::<u64>().ok()?;
    (n >= 2).then_some(n)
}

pub(crate) fn env_fsync_micros() -> u64 {
    std::env::var("RDBMS_FSYNC_MICROS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0)
}

fn scalar_is_param(s: &Scalar) -> bool {
    matches!(s, Scalar::Param(_))
}

fn cond_has_param(c: &Condition) -> bool {
    match c {
        Condition::Cmp { left, right, .. } => scalar_is_param(left) || scalar_is_param(right),
        Condition::InList { .. } => false,
        Condition::NotExists { conds, .. } => conds.iter().any(cond_has_param),
    }
}

fn query_has_param(q: &Query) -> bool {
    match q {
        Query::Select(b) => {
            b.where_clause.iter().any(cond_has_param)
                || b.projections.iter().any(
                    |item| matches!(item, SelectItem::Expr { expr, .. } if scalar_is_param(expr)),
                )
        }
        Query::Union { left, right, .. } | Query::Except { left, right } => {
            query_has_param(left) || query_has_param(right)
        }
    }
}

/// Whether a statement contains `?` placeholders anywhere — such statements
/// can only run through the prepare/execute_prepared path.
fn stmt_has_param(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::InsertValues { rows, .. } => rows.iter().flatten().any(scalar_is_param),
        Stmt::InsertSelect { query, .. }
        | Stmt::Select(query)
        | Stmt::Explain(query)
        | Stmt::ExplainAnalyze(query) => query_has_param(query),
        Stmt::Delete { predicate, .. } => predicate.iter().any(cond_has_param),
        _ => false,
    }
}

/// Bind `INSERT ... VALUES` scalar rows against the parameter vector.
fn bind_rows(rows: &[Vec<Scalar>], params: &[Value]) -> Result<Vec<Tuple>, DbError> {
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|s| match s {
                    Scalar::Lit(v) => Ok(v.clone()),
                    Scalar::Param(p) => params
                        .get(*p)
                        .cloned()
                        .ok_or_else(|| DbError::Plan(format!("parameter ?{p} is not bound"))),
                    Scalar::Col(c) => Err(DbError::Plan(format!(
                        "column reference {} is not allowed in VALUES",
                        c.column
                    ))),
                })
                .collect()
        })
        .collect()
}

fn bind_scalar(s: &Scalar, params: &[Value]) -> Result<Scalar, DbError> {
    match s {
        Scalar::Param(p) => params
            .get(*p)
            .cloned()
            .map(Scalar::Lit)
            .ok_or_else(|| DbError::Plan(format!("parameter ?{p} is not bound"))),
        other => Ok(other.clone()),
    }
}

/// Substitute bound parameter values into a DELETE predicate.
fn bind_conditions(conds: &[Condition], params: &[Value]) -> Result<Vec<Condition>, DbError> {
    conds
        .iter()
        .map(|c| match c {
            Condition::Cmp { left, op, right } => Ok(Condition::Cmp {
                left: bind_scalar(left, params)?,
                op: *op,
                right: bind_scalar(right, params)?,
            }),
            Condition::InList { .. } => Ok(c.clone()),
            Condition::NotExists { table, conds } => Ok(Condition::NotExists {
                table: table.clone(),
                conds: bind_conditions(conds, params)?,
            }),
        })
        .collect()
}

/// How far a live row count may drift from its plan-time snapshot (in
/// either direction) before a cached plan is considered stale.
const REPLAN_DRIFT_FACTOR: u64 = 2;

/// Row-count drift below this table size never triggers a replan: at a few
/// hundred rows every join order costs about the same, and the LFP runtime
/// churns its tiny delta tables through exactly this range every iteration
/// — re-costing there would forfeit plan-cache reuse for nothing.
const REPLAN_DRIFT_FLOOR: u64 = 256;

/// Whether a live row count recorded in a cached plan has moved a factor
/// of [`REPLAN_DRIFT_FACTOR`] away from the snapshot the plan was costed
/// from (once either side of the comparison clears [`REPLAN_DRIFT_FLOOR`]).
/// Counts clamp to 1 so growth from an empty table still registers. A
/// table dropped since plan time is the epoch's business, not drift's.
fn stats_stale(catalog: &Catalog, planned: &PlannedQuery) -> bool {
    planned.stat_deps.iter().any(|dep| {
        let Ok(t) = catalog.table(&dep.table) else {
            return false;
        };
        let live = t.heap.tuple_count().max(1);
        let at_plan = dep.rows.max(1);
        if live.max(at_plan) < REPLAN_DRIFT_FLOOR {
            return false;
        }
        live >= at_plan.saturating_mul(REPLAN_DRIFT_FACTOR)
            || at_plan >= live.saturating_mul(REPLAN_DRIFT_FACTOR)
    })
}

/// Render one profiled operator as an EXPLAIN ANALYZE output line.
fn render_op_profile(op: &OpProfile) -> String {
    let mut line = format!(
        "{}{} (rows={} time={:.3}ms",
        "  ".repeat(op.depth),
        op.label,
        op.rows_out,
        op.elapsed_ns as f64 / 1e6
    );
    if let Some(est) = op.est_rows {
        line.push_str(&format!(" est={est}"));
    }
    if op.tuples_scanned > 0 {
        line.push_str(&format!(" scanned={}", op.tuples_scanned));
    }
    if op.index_probes > 0 {
        line.push_str(&format!(" probes={}", op.index_probes));
    }
    if op.tuples_fetched > 0 {
        line.push_str(&format!(" fetched={}", op.tuples_fetched));
    }
    if op.build_rows > 0 {
        line.push_str(&format!(" build={}", op.build_rows));
    }
    if op.residual_dropped > 0 {
        line.push_str(&format!(" dropped={}", op.residual_dropped));
    }
    if op.spill_partitions > 0 {
        line.push_str(&format!(
            " spill_parts={} spill_bytes={}",
            op.spill_partitions, op.spill_bytes
        ));
    }
    if op.sort_runs > 0 {
        line.push_str(&format!(
            " sort_runs={} spill_bytes={}",
            op.sort_runs, op.spill_bytes
        ));
    }
    if op.batches > 0 {
        line.push_str(&format!(" batches={}", op.batches));
    }
    line.push(')');
    line
}

/// Render a physical plan as the EXPLAIN result set.
fn explain_result(planned: &PlannedQuery) -> ResultSet {
    let rows: Vec<Tuple> = planned
        .plan
        .explain()
        .into_iter()
        .map(|line| vec![Value::Str(line)])
        .collect();
    ResultSet {
        columns: vec!["plan".to_string()],
        rows,
        affected: 0,
    }
}

/// A row [`Engine::insert_slices`] loads: a caller's values, or a row of
/// the executor's datums.
trait LoadRow: std::fmt::Debug {
    fn admitted_by(&self, schema: &Schema) -> bool;
    fn encoded_len(&self, syms: &Symbols) -> usize;
    fn encode(&self, syms: &Symbols, out: &mut Vec<u8>);
    /// File the row under `rid` in `index`, interning through `names`.
    fn file(&self, index: &mut TableIndex, rid: RecordId, names: &mut Interner<'_>);
}

impl LoadRow for [Value] {
    fn admitted_by(&self, schema: &Schema) -> bool {
        schema.admits(self)
    }

    fn encoded_len(&self, _: &Symbols) -> usize {
        serialized_len(self)
    }

    fn encode(&self, _: &Symbols, out: &mut Vec<u8>) {
        serialize_tuple_into(self, out)
    }

    /// Interns only the key columns of a hash index, and only strings.
    fn file(&self, index: &mut TableIndex, rid: RecordId, names: &mut Interner<'_>) {
        index.insert_with(self, rid, names)
    }
}

impl LoadRow for [Datum] {
    fn admitted_by(&self, schema: &Schema) -> bool {
        self.len() == schema.arity()
            && self
                .iter()
                .zip(schema.columns())
                .all(|(d, c)| d.col_type() == c.ty)
    }

    fn encoded_len(&self, syms: &Symbols) -> usize {
        syms.encoded_len(self)
    }

    fn encode(&self, syms: &Symbols, out: &mut Vec<u8>) {
        encode_row(self, syms, out)
    }

    fn file(&self, index: &mut TableIndex, rid: RecordId, _: &mut Interner<'_>) {
        index.insert_row(self, rid)
    }
}

fn flip_op(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

/// Try to resolve a DELETE predicate into per-column conditions over
/// `table`'s schema. Returns `None` when the predicate needs the full query
/// pipeline — NOT EXISTS subqueries, parameters, or unresolvable/mistyped
/// columns (the pipeline then reports the proper error).
fn resolve_delete_conds(t: &Table, table: &str, predicate: &[Condition]) -> Option<Vec<ExecCond>> {
    let resolve = |c: &ColRef| -> Option<usize> {
        if let Some(q) = &c.table {
            if !q.eq_ignore_ascii_case(table) {
                return None;
            }
        }
        t.schema.index_of(&c.column)
    };
    let typed = |i: usize, v: &Value| v.col_type() == t.schema.column(i).ty;
    let mut out = Vec::new();
    for cond in predicate {
        match cond {
            Condition::Cmp { left, op, right } => match (left, right) {
                (Scalar::Col(a), Scalar::Col(b)) => {
                    let (i, j) = (resolve(a)?, resolve(b)?);
                    if t.schema.column(i).ty != t.schema.column(j).ty {
                        return None;
                    }
                    out.push(ExecCond::ColCmpCol(i, *op, j));
                }
                (Scalar::Col(c), Scalar::Lit(v)) => {
                    let i = resolve(c)?;
                    if !typed(i, v) {
                        return None;
                    }
                    out.push(ExecCond::ColCmpLit(i, *op, v.clone()));
                }
                (Scalar::Lit(v), Scalar::Col(c)) => {
                    let i = resolve(c)?;
                    if !typed(i, v) {
                        return None;
                    }
                    out.push(ExecCond::ColCmpLit(i, flip_op(*op), v.clone()));
                }
                _ => return None,
            },
            Condition::InList { col, values } => {
                let i = resolve(col)?;
                if !values.iter().all(|v| typed(i, v)) {
                    return None;
                }
                out.push(ExecCond::InList(i, values.clone()));
            }
            Condition::NotExists { .. } => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_with_parent() -> Engine {
        let mut e = Engine::new();
        e.execute("CREATE TABLE parent (par char, child char)")
            .unwrap();
        e.execute(
            "INSERT INTO parent VALUES ('adam','bob'), ('adam','carol'), \
             ('bob','dave'), ('carol','eve')",
        )
        .unwrap();
        e
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let mut e = engine_with_parent();
        let rs = e
            .execute("SELECT child FROM parent WHERE par = 'adam' ORDER BY child")
            .unwrap();
        assert_eq!(rs.columns, vec!["child"]);
        assert_eq!(
            rs.rows,
            vec![vec![Value::from("bob")], vec![Value::from("carol")]]
        );
    }

    #[test]
    fn select_star_preserves_column_order() {
        let mut e = engine_with_parent();
        let rs = e
            .execute("SELECT * FROM parent WHERE child = 'dave'")
            .unwrap();
        assert_eq!(rs.columns, vec!["par", "child"]);
        assert_eq!(rs.rows, vec![vec![Value::from("bob"), Value::from("dave")]]);
    }

    #[test]
    fn two_way_join() {
        let mut e = engine_with_parent();
        // Grandparents: parent joined with itself.
        let rs = e
            .execute(
                "SELECT a.par, b.child FROM parent a, parent b \
                 WHERE a.child = b.par ORDER BY par, child",
            )
            .unwrap();
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::from("adam"), Value::from("dave")],
                vec![Value::from("adam"), Value::from("eve")],
            ]
        );
    }

    #[test]
    fn join_uses_index_when_available() {
        let mut e = engine_with_parent();
        e.execute("CREATE INDEX parent_par ON parent (par)")
            .unwrap();
        let before = e.stats().exec.index_probes;
        let rs = e
            .execute("SELECT a.par, b.child FROM parent a, parent b WHERE a.child = b.par")
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert!(
            e.stats().exec.index_probes > before,
            "INL join probed the index"
        );
    }

    #[test]
    fn point_query_uses_index_lookup() {
        let mut e = engine_with_parent();
        e.execute("CREATE INDEX parent_par ON parent (par)")
            .unwrap();
        let scanned_before = e.stats().exec.tuples_scanned;
        let rs = e
            .execute("SELECT * FROM parent WHERE par = 'adam'")
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(
            e.stats().exec.tuples_scanned,
            scanned_before,
            "no sequential scan for an indexed point query"
        );
        assert_eq!(e.stats().exec.tuples_fetched, 2);
    }

    #[test]
    fn insert_select_and_count() {
        let mut e = engine_with_parent();
        e.execute("CREATE TABLE anc (x char, y char)").unwrap();
        let rs = e
            .execute("INSERT INTO anc SELECT par, child FROM parent")
            .unwrap();
        assert_eq!(rs.affected, 4);
        let rs = e.execute("SELECT COUNT(*) FROM anc").unwrap();
        assert_eq!(rs.scalar_int(), Some(4));
    }

    #[test]
    fn insert_select_type_mismatch_rejected() {
        let mut e = engine_with_parent();
        e.execute("CREATE TABLE nums (n integer, m integer)")
            .unwrap();
        let err = e.execute("INSERT INTO nums SELECT par, child FROM parent");
        assert!(matches!(err, Err(DbError::TypeMismatch(_))));
    }

    #[test]
    fn union_and_except() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE a (x integer)").unwrap();
        e.execute("CREATE TABLE b (x integer)").unwrap();
        e.execute("INSERT INTO a VALUES (1), (2), (2)").unwrap();
        e.execute("INSERT INTO b VALUES (2), (3)").unwrap();
        let rs = e
            .execute("SELECT x FROM a UNION SELECT x FROM b ORDER BY x")
            .unwrap();
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(3)]
            ]
        );
        let rs = e
            .execute("SELECT x FROM a UNION ALL SELECT x FROM b")
            .unwrap();
        assert_eq!(rs.rows.len(), 5);
        let rs = e.execute("SELECT x FROM a EXCEPT SELECT x FROM b").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn except_is_the_termination_check_shape() {
        // The semi-naive termination check: delta EXCEPT accumulated.
        let mut e = Engine::new();
        e.execute("CREATE TABLE delta (x integer, y integer)")
            .unwrap();
        e.execute("CREATE TABLE acc (x integer, y integer)")
            .unwrap();
        e.execute("INSERT INTO delta VALUES (1, 2), (3, 4)")
            .unwrap();
        e.execute("INSERT INTO acc VALUES (1, 2)").unwrap();
        let rs = e
            .execute("SELECT * FROM delta EXCEPT SELECT * FROM acc")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(3), Value::Int(4)]]);
    }

    #[test]
    fn delete_with_and_without_predicate() {
        let mut e = engine_with_parent();
        let rs = e.execute("DELETE FROM parent WHERE par = 'adam'").unwrap();
        assert_eq!(rs.affected, 2);
        assert_eq!(e.table_len("parent").unwrap(), 2);
        let rs = e.execute("DELETE FROM parent").unwrap();
        assert_eq!(rs.affected, 2);
        assert_eq!(e.table_len("parent").unwrap(), 0);
    }

    #[test]
    fn delete_with_not_exists_predicate() {
        let mut e = engine_with_parent();
        // Delete parents whose children are leaves (no children of their
        // own). The outer column must be qualified: unqualified names
        // resolve to the subquery's own table first, per SQL scoping.
        let rs = e
            .execute(
                "DELETE FROM parent WHERE NOT EXISTS \
                 (SELECT * FROM parent b WHERE b.par = parent.child)",
            )
            .unwrap();
        // bob->dave and carol->eve deleted (dave, eve childless).
        assert_eq!(rs.affected, 2);
        assert_eq!(e.table_len("parent").unwrap(), 2);
    }

    #[test]
    fn delete_with_in_list_predicate() {
        let mut e = engine_with_parent();
        let rs = e
            .execute("DELETE FROM parent WHERE child IN ('bob', 'eve')")
            .unwrap();
        assert_eq!(rs.affected, 2);
    }

    #[test]
    fn delete_maintains_indexes() {
        let mut e = engine_with_parent();
        e.execute("CREATE INDEX parent_par ON parent (par)")
            .unwrap();
        e.execute("DELETE FROM parent WHERE par = 'adam'").unwrap();
        let rs = e
            .execute("SELECT * FROM parent WHERE par = 'adam'")
            .unwrap();
        assert!(rs.rows.is_empty());
        let rs = e.execute("SELECT * FROM parent WHERE par = 'bob'").unwrap();
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn temp_tables_are_dropped_in_bulk() {
        let mut e = Engine::new();
        e.execute("CREATE TEMP TABLE t1 (x integer)").unwrap();
        e.execute("CREATE TEMP TABLE t2 (x integer)").unwrap();
        e.execute("CREATE TABLE base (x integer)").unwrap();
        assert_eq!(e.drop_temp_tables(), 2);
        assert!(e.has_table("base"));
        assert!(!e.has_table("t1"));
    }

    #[test]
    fn drop_table_if_exists() {
        let mut e = Engine::new();
        assert!(e.execute("DROP TABLE IF EXISTS nope").is_ok());
        assert!(e.execute("DROP TABLE nope").is_err());
    }

    #[test]
    fn errors_are_reported() {
        let mut e = Engine::new();
        assert!(matches!(
            e.execute("SELECT * FROM missing"),
            Err(DbError::NoSuchTable(_))
        ));
        e.execute("CREATE TABLE t (a integer)").unwrap();
        assert!(matches!(
            e.execute("SELECT zz FROM t"),
            Err(DbError::NoSuchColumn(_))
        ));
        assert!(matches!(
            e.execute("INSERT INTO t VALUES ('wrong')"),
            Err(DbError::TypeMismatch(_))
        ));
    }

    #[test]
    fn statement_counter_advances() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (a integer)").unwrap();
        e.execute("INSERT INTO t VALUES (1)").unwrap();
        e.execute("SELECT * FROM t").unwrap();
        assert_eq!(e.stats().statements, 3);
    }

    #[test]
    fn script_execution_returns_last_result() {
        let mut e = Engine::new();
        let rs = e
            .execute_script(
                "CREATE TABLE t (a integer); INSERT INTO t VALUES (1),(2); \
                 SELECT COUNT(*) FROM t;",
            )
            .unwrap();
        assert_eq!(rs.scalar_int(), Some(2));
    }

    #[test]
    fn in_list_filters() {
        let mut e = engine_with_parent();
        let rs = e
            .execute("SELECT child FROM parent WHERE par IN ('adam', 'bob') ORDER BY child")
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn in_list_uses_index_lookups() {
        let mut e = engine_with_parent();
        e.execute("CREATE INDEX parent_par ON parent (par)")
            .unwrap();
        let scanned_before = e.stats().exec.tuples_scanned;
        let rs = e
            .execute("SELECT child FROM parent WHERE par IN ('adam', 'bob', 'adam')")
            .unwrap();
        assert_eq!(
            rs.rows.len(),
            3,
            "duplicate IN values do not duplicate rows"
        );
        assert_eq!(
            e.stats().exec.tuples_scanned,
            scanned_before,
            "IN over an indexed column avoids the scan"
        );
    }

    #[test]
    fn distinct_dedupes() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (a integer)").unwrap();
        e.execute("INSERT INTO t VALUES (1), (1), (2)").unwrap();
        let rs = e.execute("SELECT DISTINCT a FROM t ORDER BY a").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    }

    #[test]
    fn cross_join_without_predicate() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE a (x integer)").unwrap();
        e.execute("CREATE TABLE b (y integer)").unwrap();
        e.execute("INSERT INTO a VALUES (1), (2)").unwrap();
        e.execute("INSERT INTO b VALUES (10)").unwrap();
        let rs = e.execute("SELECT x, y FROM a, b ORDER BY x").unwrap();
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(10)]
            ]
        );
    }

    #[test]
    fn three_way_join() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE e1 (a integer, b integer)").unwrap();
        e.execute("CREATE TABLE e2 (b integer, c integer)").unwrap();
        e.execute("CREATE TABLE e3 (c integer, d integer)").unwrap();
        e.execute("INSERT INTO e1 VALUES (1, 2)").unwrap();
        e.execute("INSERT INTO e2 VALUES (2, 3)").unwrap();
        e.execute("INSERT INTO e3 VALUES (3, 4)").unwrap();
        let rs = e
            .execute("SELECT e1.a, e3.d FROM e1, e2, e3 WHERE e1.b = e2.b AND e2.c = e3.c")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(1), Value::Int(4)]]);
    }

    #[test]
    fn ordered_index_serves_range_queries() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (k integer, v char)").unwrap();
        e.insert_rows(
            "t",
            (0..100)
                .map(|i| vec![Value::Int(i), Value::from(format!("v{i}"))])
                .collect(),
        )
        .unwrap();
        e.execute("CREATE ORDERED INDEX t_k ON t (k)").unwrap();
        let scanned_before = e.stats().exec.tuples_scanned;
        let rs = e
            .execute("SELECT COUNT(*) FROM t WHERE k >= 10 AND k < 20")
            .unwrap();
        assert_eq!(rs.scalar_int(), Some(10));
        assert_eq!(
            e.stats().exec.tuples_scanned,
            scanned_before,
            "range query avoided the scan"
        );
        // Fetched exactly the in-range rows.
        assert_eq!(e.stats().exec.tuples_fetched, 10);
        // Exact match works on the ordered index too.
        let rs = e.execute("SELECT v FROM t WHERE k = 42").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::from("v42")]]);
    }

    #[test]
    fn ordered_index_half_open_and_conflicting_bounds() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (k integer)").unwrap();
        e.insert_rows("t", (0..20).map(|i| vec![Value::Int(i)]).collect())
            .unwrap();
        e.execute("CREATE ORDERED INDEX t_k ON t (k)").unwrap();
        let rs = e.execute("SELECT COUNT(*) FROM t WHERE k > 15").unwrap();
        assert_eq!(rs.scalar_int(), Some(4));
        let rs = e.execute("SELECT COUNT(*) FROM t WHERE k <= 3").unwrap();
        assert_eq!(rs.scalar_int(), Some(4));
        // Multiple bounds tighten; empty ranges yield nothing.
        let rs = e
            .execute("SELECT COUNT(*) FROM t WHERE k > 5 AND k > 10 AND k <= 12")
            .unwrap();
        assert_eq!(rs.scalar_int(), Some(2));
        let rs = e
            .execute("SELECT COUNT(*) FROM t WHERE k > 10 AND k < 5")
            .unwrap();
        assert_eq!(rs.scalar_int(), Some(0));
    }

    #[test]
    fn ordered_index_survives_snapshot() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (k integer)").unwrap();
        e.insert_rows("t", (0..50).map(|i| vec![Value::Int(i)]).collect())
            .unwrap();
        e.execute("CREATE ORDERED INDEX t_k ON t (k)").unwrap();
        let bytes = e.snapshot_bytes().unwrap();
        let mut restored = Engine::from_snapshot_bytes(&bytes).unwrap();
        let scanned_before = restored.stats().exec.tuples_scanned;
        let rs = restored
            .execute("SELECT COUNT(*) FROM t WHERE k < 5")
            .unwrap();
        assert_eq!(rs.scalar_int(), Some(5));
        assert_eq!(restored.stats().exec.tuples_scanned, scanned_before);
    }

    #[test]
    fn hash_index_ignores_range_predicates() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (k integer)").unwrap();
        e.insert_rows("t", (0..10).map(|i| vec![Value::Int(i)]).collect())
            .unwrap();
        e.execute("CREATE INDEX t_k ON t (k)").unwrap();
        // Still answered correctly, via a scan.
        let rs = e.execute("SELECT COUNT(*) FROM t WHERE k < 5").unwrap();
        assert_eq!(rs.scalar_int(), Some(5));
        assert!(e.stats().exec.tuples_scanned > 0);
    }

    #[test]
    fn group_by_count() {
        let mut e = engine_with_parent();
        let rs = e
            .execute("SELECT par, COUNT(*) FROM parent GROUP BY par ORDER BY par")
            .unwrap();
        assert_eq!(rs.columns, vec!["par", "count"]);
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::from("adam"), Value::Int(2)],
                vec![Value::from("bob"), Value::Int(1)],
                vec![Value::from("carol"), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn group_by_over_join_with_filter() {
        let mut e = engine_with_parent();
        // Grandparent fan-out: how many grandchildren per grandparent.
        let rs = e
            .execute(
                "SELECT a.par, COUNT(*) FROM parent a, parent b                  WHERE a.child = b.par GROUP BY a.par ORDER BY par",
            )
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::from("adam"), Value::Int(2)]]);
    }

    #[test]
    fn group_by_validation_errors() {
        let mut e = engine_with_parent();
        // Projection missing COUNT(*).
        assert!(e.execute("SELECT par FROM parent GROUP BY par").is_err());
        // Projected column differs from the group column.
        assert!(e
            .execute("SELECT child, COUNT(*) FROM parent GROUP BY par")
            .is_err());
        // COUNT not last.
        assert!(e
            .execute("SELECT COUNT(*), par FROM parent GROUP BY par")
            .is_err());
    }

    #[test]
    fn group_by_on_empty_relation() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (a integer)").unwrap();
        let rs = e.execute("SELECT a, COUNT(*) FROM t GROUP BY a").unwrap();
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn explain_renders_the_plan_tree() {
        let mut e = engine_with_parent();
        e.execute("CREATE INDEX parent_par ON parent (par)")
            .unwrap();
        let rs = e
            .execute(
                "EXPLAIN SELECT a.par, b.child FROM parent a, parent b                  WHERE a.child = b.par AND a.par = 'adam'",
            )
            .unwrap();
        assert_eq!(rs.columns, vec!["plan"]);
        let text: Vec<&str> = rs.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
        assert!(text[0].starts_with("Project"));
        assert!(
            text.iter()
                .any(|l| l.contains("IndexNlJoin") || l.contains("HashJoin")),
            "join operator shown: {text:?}"
        );
        assert!(
            text.iter().any(|l| l.contains("IndexLookup")),
            "indexed access path shown: {text:?}"
        );
    }

    /// DESIGN §18's skewed three-way join: `big.flag = 7` keeps all 8 000
    /// rows, but no index covers `flag`, so the filter is costed at the
    /// flat 1/20 and the filtered scan of `big` drives index probes into
    /// `mid` and then `small`.
    #[test]
    fn explain_skewed_three_way_join() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE big (a int, b int, flag int)")
            .unwrap();
        e.execute("CREATE TABLE mid (b int, c int)").unwrap();
        e.execute("CREATE TABLE small (c int, d int)").unwrap();
        for ddl in [
            "CREATE INDEX big_b ON big (b)",
            "CREATE INDEX mid_b ON mid (b)",
            "CREATE INDEX mid_c ON mid (c)",
            "CREATE INDEX small_c ON small (c)",
        ] {
            e.execute(ddl).unwrap();
        }
        let ints = |n: i64, row: fn(i64) -> Vec<i64>| -> Vec<Vec<Value>> {
            (0..n)
                .map(|i| row(i).into_iter().map(Value::Int).collect())
                .collect()
        };
        e.insert_rows("big", ints(8000, |i| vec![i, i, 7])).unwrap();
        e.insert_rows("mid", ints(2000, |i| vec![i, i % 600]))
            .unwrap();
        e.insert_rows("small", ints(600, |i| vec![i, i])).unwrap();
        let sql = "SELECT big.a FROM big, mid, small \
                   WHERE big.flag = 7 AND big.b = mid.b AND mid.c = small.c";
        let rs = e.execute(&format!("EXPLAIN {sql}")).unwrap();
        let text: Vec<&str> = rs.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
        assert_eq!(
            text,
            [
                "Project [1 col(s)]",
                "  IndexNlJoin probe small keys=[3]",
                "    IndexNlJoin probe mid keys=[1]",
                "      Project [2 col(s)]",
                "        SeqScan big [1 cond(s)]",
            ]
        );
        assert_eq!(e.execute(sql).unwrap().rows.len(), 2000);
    }

    #[test]
    fn transitive_closure_operator() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE g (s char, t char)").unwrap();
        e.execute("CREATE TABLE tc (s char, t char)").unwrap();
        e.execute("INSERT INTO g VALUES ('a','b'), ('b','c'), ('c','a')")
            .unwrap();
        let rs = e.execute("INSERT INTO tc TRANSITIVE CLOSURE OF g").unwrap();
        assert_eq!(rs.affected, 9, "3-cycle closes to 3x3 pairs");
        // Idempotent: re-running adds nothing.
        let rs = e.execute("INSERT INTO tc TRANSITIVE CLOSURE OF g").unwrap();
        assert_eq!(rs.affected, 0);
        let rs = e
            .execute("SELECT t FROM tc WHERE s = 'a' ORDER BY t")
            .unwrap();
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::from("a")],
                vec![Value::from("b")],
                vec![Value::from("c")]
            ]
        );
    }

    #[test]
    fn transitive_closure_validates_arity() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE uno (x char)").unwrap();
        e.execute("CREATE TABLE duo (s char, t char)").unwrap();
        assert!(e
            .execute("INSERT INTO duo TRANSITIVE CLOSURE OF uno")
            .is_err());
        assert!(e
            .execute("INSERT INTO uno TRANSITIVE CLOSURE OF duo")
            .is_err());
    }

    #[test]
    fn transitive_closure_on_empty_and_chain() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE g (s char, t char)").unwrap();
        e.execute("CREATE TABLE tc (s char, t char)").unwrap();
        let rs = e.execute("INSERT INTO tc TRANSITIVE CLOSURE OF g").unwrap();
        assert_eq!(rs.affected, 0);
        e.execute("INSERT INTO g VALUES ('a','b'), ('b','c'), ('c','d')")
            .unwrap();
        let rs = e.execute("INSERT INTO tc TRANSITIVE CLOSURE OF g").unwrap();
        assert_eq!(rs.affected, 6, "chain of 4 nodes: C(4,2) = 6 pairs");
    }

    #[test]
    fn not_exists_correlated_anti_join() {
        let mut e = engine_with_parent();
        // People who are parents but whose children are not parents
        // themselves (i.e. grandchild-less parents).
        let rs = e
            .execute(
                "SELECT DISTINCT a.par FROM parent a WHERE NOT EXISTS \
                 (SELECT * FROM parent b WHERE b.par = a.child) ORDER BY par",
            )
            .unwrap();
        // adam->bob (bob is a parent: excluded), adam->carol (carol is a
        // parent: excluded), bob->dave (dave childless: bob kept),
        // carol->eve (eve childless: carol kept).
        assert_eq!(
            rs.rows,
            vec![vec![Value::from("bob")], vec![Value::from("carol")]]
        );
    }

    #[test]
    fn not_exists_with_inner_filters() {
        let mut e = engine_with_parent();
        // Parents with no child named 'dave'.
        let rs = e
            .execute(
                "SELECT DISTINCT a.par FROM parent a WHERE NOT EXISTS \
                 (SELECT * FROM parent b WHERE b.par = a.par AND b.child = 'dave') \
                 ORDER BY par",
            )
            .unwrap();
        assert_eq!(
            rs.rows,
            vec![vec![Value::from("adam")], vec![Value::from("carol")]]
        );
    }

    #[test]
    fn not_exists_probes_full_key_index() {
        let mut e = engine_with_parent();
        let sql = "SELECT DISTINCT a.par FROM parent a WHERE NOT EXISTS \
                   (SELECT * FROM parent b WHERE b.par = a.child) ORDER BY par";
        let by_scan = e.execute(sql).unwrap().rows;
        e.execute("CREATE INDEX parent_par ON parent (par)")
            .unwrap();
        let plan = e.execute(&format!("EXPLAIN {sql}")).unwrap();
        assert!(
            plan.rows
                .iter()
                .flatten()
                .any(|v| matches!(v, Value::Str(s) if s.contains("probe index"))),
            "full-key correlation should switch to the probing anti-join: {:?}",
            plan.rows
        );
        let before = e.stats().exec;
        let by_probe = e.execute(sql).unwrap().rows;
        let after = e.stats().exec;
        assert_eq!(by_scan, by_probe);
        assert!(after.index_probes > before.index_probes);
        // Only the outer scan touches the heap; the inner side is never
        // materialized (4 outer rows, 0 inner).
        assert_eq!(after.tuples_scanned - before.tuples_scanned, 4);
    }

    #[test]
    fn not_exists_with_filters_still_scans() {
        let mut e = engine_with_parent();
        e.execute("CREATE INDEX parent_par ON parent (par)")
            .unwrap();
        // The extra inner predicate disqualifies the pure index probe.
        let plan = e
            .execute(
                "EXPLAIN SELECT a.par FROM parent a WHERE NOT EXISTS \
                 (SELECT * FROM parent b WHERE b.par = a.par AND b.child = 'dave')",
            )
            .unwrap();
        assert!(
            !plan
                .rows
                .iter()
                .flatten()
                .any(|v| matches!(v, Value::Str(s) if s.contains("probe index"))),
            "inner filters must fall back to the materializing anti-join"
        );
    }

    #[test]
    fn not_exists_uncorrelated() {
        let mut e = engine_with_parent();
        e.execute("CREATE TABLE empty (x char)").unwrap();
        let rs = e
            .execute("SELECT par FROM parent WHERE NOT EXISTS (SELECT * FROM empty)")
            .unwrap();
        assert_eq!(rs.rows.len(), 4, "empty inner keeps everything");
        let rs = e
            .execute("SELECT par FROM parent WHERE NOT EXISTS (SELECT * FROM parent)")
            .unwrap();
        assert!(rs.rows.is_empty(), "non-empty inner drops everything");
    }

    #[test]
    fn not_exists_error_paths() {
        let mut e = engine_with_parent();
        // Non-equality correlation is rejected.
        assert!(e
            .execute(
                "SELECT par FROM parent a WHERE NOT EXISTS \
                 (SELECT * FROM parent b WHERE b.par < a.par)"
            )
            .is_err());
        // Nested NOT EXISTS is rejected at parse time.
        assert!(e
            .execute(
                "SELECT par FROM parent a WHERE NOT EXISTS \
                 (SELECT * FROM parent b WHERE NOT EXISTS (SELECT * FROM parent c))"
            )
            .is_err());
    }

    #[test]
    fn self_join_with_theta_residual() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (a integer, b integer)").unwrap();
        e.execute("INSERT INTO t VALUES (1, 5), (2, 5), (3, 6)")
            .unwrap();
        // Pairs sharing b with x.a < y.a.
        let rs = e
            .execute("SELECT x.a, y.a FROM t x, t y WHERE x.b = y.b AND x.a < y.a")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(1), Value::Int(2)]]);
    }

    // -- prepared statements and the plan cache ---------------------------

    #[test]
    fn prepared_select_with_params_matches_literal_query() {
        let mut e = engine_with_parent();
        let id = e
            .prepare("SELECT child FROM parent WHERE par = ? ORDER BY child")
            .unwrap();
        let by_param = e.execute_prepared(id, &[Value::from("adam")]).unwrap().rows;
        let by_literal = e
            .execute("SELECT child FROM parent WHERE par = 'adam' ORDER BY child")
            .unwrap()
            .rows;
        assert_eq!(by_param, by_literal);
        // Rebinding reuses the same plan with a different key.
        let bob = e.execute_prepared(id, &[Value::from("bob")]).unwrap().rows;
        assert_eq!(bob, vec![vec![Value::from("dave")]]);
    }

    #[test]
    fn prepared_select_uses_index_for_param_equality() {
        let mut e = engine_with_parent();
        e.execute("CREATE INDEX parent_par ON parent (par)")
            .unwrap();
        let id = e.prepare("SELECT child FROM parent WHERE par = ?").unwrap();
        let probes_before = e.stats().exec.index_probes;
        let rows = e
            .execute_prepared(id, &[Value::from("carol")])
            .unwrap()
            .rows;
        assert_eq!(rows, vec![vec![Value::from("eve")]]);
        assert!(
            e.stats().exec.index_probes > probes_before,
            "col = ? should keep the index access path"
        );
    }

    #[test]
    fn plan_cache_counts_hits_and_misses() {
        let mut e = engine_with_parent();
        let id = e.prepare("SELECT child FROM parent WHERE par = ?").unwrap();
        assert_eq!(e.stats().exec.plan_cache_misses, 0, "prepare is lazy");
        for name in ["adam", "bob", "carol"] {
            e.execute_prepared(id, &[Value::from(name)]).unwrap();
        }
        let s = e.stats().exec;
        assert_eq!(s.plan_cache_misses, 1, "planned once");
        assert_eq!(s.plan_cache_hits, 2, "then reused");
    }

    #[test]
    fn plan_cache_invalidated_by_catalog_change() {
        let mut e = engine_with_parent();
        let id = e.prepare("SELECT * FROM parent WHERE par = ?").unwrap();
        e.execute_prepared(id, &[Value::from("adam")]).unwrap();
        assert_eq!(e.stats().exec.plan_cache_misses, 1);
        // DROP then CREATE a same-named table with a different schema: the
        // cached plan must not survive.
        e.execute("DROP TABLE parent").unwrap();
        e.execute("CREATE TABLE parent (n integer)").unwrap();
        e.execute("INSERT INTO parent VALUES (7)").unwrap();
        // The stale plan is re-planned; `par` no longer exists, so this
        // errors cleanly instead of executing against the wrong layout.
        assert!(e.execute_prepared(id, &[Value::from("adam")]).is_err());
        assert_eq!(e.stats().exec.plan_cache_misses, 2, "re-planned");
        // A statement valid under the new schema re-plans and runs.
        let id2 = e.prepare("SELECT n FROM parent WHERE n = ?").unwrap();
        let rows = e.execute_prepared(id2, &[Value::Int(7)]).unwrap().rows;
        assert_eq!(rows, vec![vec![Value::Int(7)]]);
    }

    #[test]
    fn prepared_insert_values_and_delete_with_params() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (a integer, b char)").unwrap();
        let ins = e.prepare("INSERT INTO t VALUES (?, ?)").unwrap();
        for i in 0..4 {
            let rs = e
                .execute_prepared(ins, &[Value::Int(i), Value::from("x")])
                .unwrap();
            assert_eq!(rs.affected, 1);
        }
        let del = e.prepare("DELETE FROM t WHERE a = ?").unwrap();
        assert_eq!(
            e.execute_prepared(del, &[Value::Int(2)]).unwrap().affected,
            1
        );
        assert_eq!(e.table_len("t").unwrap(), 3);
    }

    #[test]
    fn prepared_param_arity_is_checked() {
        let mut e = engine_with_parent();
        let id = e.prepare("SELECT * FROM parent WHERE par = ?").unwrap();
        assert!(e.execute_prepared(id, &[]).is_err());
        assert!(e
            .execute_prepared(id, &[Value::from("a"), Value::from("b")])
            .is_err());
        e.deallocate(id).unwrap();
        assert!(e.execute_prepared(id, &[Value::from("a")]).is_err());
    }

    #[test]
    fn plain_execute_rejects_parameters() {
        let mut e = engine_with_parent();
        let err = e.execute("SELECT * FROM parent WHERE par = ?");
        assert!(err.is_err(), "unbound `?` must not reach execution");
        assert!(e.execute("INSERT INTO parent VALUES (?, 'x')").is_err());
        assert!(e.execute("DELETE FROM parent WHERE par = ?").is_err());
    }

    #[test]
    fn truncate_keeps_schema_and_indexes() {
        let mut e = engine_with_parent();
        e.execute("CREATE INDEX parent_par ON parent (par)")
            .unwrap();
        let rs = e.execute("TRUNCATE TABLE parent").unwrap();
        assert_eq!(rs.affected, 4);
        assert_eq!(e.table_len("parent").unwrap(), 0);
        // Schema and index definitions survive; the table is refillable and
        // the index still answers point queries.
        e.execute("INSERT INTO parent VALUES ('x','y')").unwrap();
        let rows = e
            .execute("SELECT child FROM parent WHERE par = 'x'")
            .unwrap()
            .rows;
        assert_eq!(rows, vec![vec![Value::from("y")]]);
        let (_, _, indexes) = e.table_info("parent").unwrap();
        assert_eq!(indexes.len(), 1);
    }

    #[test]
    fn truncate_does_not_invalidate_cached_plans() {
        let mut e = engine_with_parent();
        let id = e.prepare("SELECT * FROM parent WHERE par = ?").unwrap();
        e.execute_prepared(id, &[Value::from("adam")]).unwrap();
        e.clear_table("parent").unwrap();
        e.execute("INSERT INTO parent VALUES ('p','q')").unwrap();
        let rows = e.execute_prepared(id, &[Value::from("p")]).unwrap().rows;
        assert_eq!(rows, vec![vec![Value::from("p"), Value::from("q")]]);
        let s = e.stats().exec;
        // TRUNCATE keeps the catalog epoch (schema and indexes survive),
        // and a refill below the drift floor does not replan, so the LFP
        // runtime's truncate-and-refill temp-table recycling reuses its
        // cached plans: no replan, no cold miss.
        assert_eq!(s.plan_cache_misses, 1, "only the first execution is cold");
        assert_eq!(s.plan_replans, 0, "recycling keeps the cached plan");
        assert_eq!(s.plan_cache_hits, 1);
    }

    /// Relative order of two tables' scan lines in an EXPLAIN rendering:
    /// `true` when `first` is scanned before `second` (i.e. earlier in the
    /// greedy join order).
    fn scans_before(lines: &[String], first: &str, second: &str) -> bool {
        let pos = |t: &str| {
            lines
                .iter()
                .position(|l| l.contains(&format!("SeqScan {t}")))
                .unwrap_or_else(|| panic!("no SeqScan {t} in {lines:?}"))
        };
        pos(first) < pos(second)
    }

    #[test]
    fn cardinality_drift_replans_cached_join_order() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE small (k char)").unwrap();
        e.execute("CREATE TABLE big (k char)").unwrap();
        e.insert_rows(
            "small",
            vec![vec![Value::from("x")], vec![Value::from("y")]],
        )
        .unwrap();
        e.insert_rows(
            "big",
            (0..50)
                .map(|i| vec![Value::from(format!("b{i}"))])
                .collect(),
        )
        .unwrap();
        let id = e
            .prepare("SELECT * FROM small s, big b WHERE s.k = b.k")
            .unwrap();
        e.execute_prepared(id, &[]).unwrap();
        let plan_before = e.prepared_plan_text(id).unwrap();
        assert!(
            scans_before(&plan_before, "small", "big"),
            "2-row table drives the join at plan time: {plan_before:?}"
        );

        // The cached plan's assumption goes stale: `small` grows 1000x.
        e.insert_rows(
            "small",
            (0..2000)
                .map(|i| vec![Value::from(format!("s{i}"))])
                .collect(),
        )
        .unwrap();
        let rs = e.execute_prepared(id, &[]).unwrap();
        assert_eq!(rs.rows.len(), 0, "no shared keys");
        let plan_after = e.prepared_plan_text(id).unwrap();
        assert!(
            scans_before(&plan_after, "big", "small"),
            "after 1000x growth the join order flips: {plan_after:?}"
        );
        let s = e.stats().exec;
        assert_eq!(s.plan_replans, 1, "drift re-planned the statement");
        assert_eq!(
            s.plan_cache_misses, 1,
            "only the first execution planned cold"
        );

        // The fixpoint: re-executing against stable cardinalities is a
        // plain cache hit again.
        e.execute_prepared(id, &[]).unwrap();
        let s = e.stats().exec;
        assert_eq!(s.plan_replans, 1);
        assert_eq!(s.plan_cache_hits, 1);
    }

    #[test]
    fn duplicate_join_columns_still_use_single_column_index() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE l (a char, b char)").unwrap();
        e.execute("CREATE TABLE r (x char, v char)").unwrap();
        e.execute("CREATE INDEX r_x ON r (x)").unwrap();
        e.insert_rows(
            "l",
            vec![
                vec![Value::from("m"), Value::from("m")],
                vec![Value::from("q"), Value::from("z")],
            ],
        )
        .unwrap();
        e.insert_rows(
            "r",
            vec![
                vec![Value::from("m"), Value::from("r1")],
                vec![Value::from("q"), Value::from("r2")],
                vec![Value::from("z"), Value::from("r3")],
            ],
        )
        .unwrap();
        // Both equalities target r.x: the deduped key set is {x}, served by
        // the single-column index; the second equality stays as a residual.
        let sql = "SELECT l.a, r.v FROM l, r WHERE l.a = r.x AND l.b = r.x";
        let plan = e.execute(&format!("EXPLAIN {sql}")).unwrap();
        let text: Vec<String> = plan
            .rows
            .iter()
            .map(|r| match &r[0] {
                Value::Str(s) => s.clone(),
                v => panic!("unexpected {v:?}"),
            })
            .collect();
        assert!(
            text.iter().any(|l| l.contains("IndexNlJoin probe r")),
            "duplicate join columns must not disqualify the index: {text:?}"
        );
        let probes_before = e.stats().exec.index_probes;
        let rows = e.execute(sql).unwrap().rows;
        // Only ('m','m') satisfies both equalities; ('q','z') matches on
        // l.a but the residual l.b = r.x rejects it.
        assert_eq!(rows, vec![vec![Value::from("m"), Value::from("r1")]]);
        assert!(e.stats().exec.index_probes > probes_before);
    }

    #[test]
    fn in_list_estimate_scales_with_list_cardinality() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE wide (k char, v integer)").unwrap();
        e.execute("CREATE TABLE narrow (k char, v integer)")
            .unwrap();
        for t in ["wide", "narrow"] {
            e.insert_rows(
                t,
                (0..100)
                    .map(|i| vec![Value::from(format!("k{i}")), Value::Int(i)])
                    .collect(),
            )
            .unwrap();
        }
        // Same base cardinality, but `wide`'s IN list admits 40 values while
        // `narrow`'s admits one: the narrow relation must drive the join.
        let in40: Vec<String> = (0..40).map(|i| i.to_string()).collect();
        let sql = format!(
            "EXPLAIN SELECT * FROM wide w, narrow n WHERE w.k = n.k \
             AND w.v IN ({}) AND n.v IN (7)",
            in40.join(", ")
        );
        let text: Vec<String> = e
            .execute(&sql)
            .unwrap()
            .rows
            .iter()
            .map(|r| match &r[0] {
                Value::Str(s) => s.clone(),
                v => panic!("unexpected {v:?}"),
            })
            .collect();
        assert!(
            scans_before(&text, "narrow", "wide"),
            "a 40-value IN list is ~40x less selective than a 1-value one: {text:?}"
        );
    }

    // -- EXPLAIN ANALYZE ---------------------------------------------------

    #[test]
    fn explain_analyze_reports_per_operator_counters() {
        let mut e = engine_with_parent();
        e.execute("CREATE INDEX parent_par ON parent (par)")
            .unwrap();
        let sql = "SELECT a.par, b.child FROM parent a, parent b WHERE a.child = b.par";
        let expected = e.execute(sql).unwrap().rows.len() as u64;
        let rs = e.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        assert!(!rs.rows.is_empty());
        let profile = e.last_profile().to_vec();
        assert_eq!(
            rs.rows.len(),
            profile.len() + 1,
            "one line per operator plus the misestimation summary"
        );
        let last = match &rs.rows[profile.len()][0] {
            Value::Str(s) => s.clone(),
            v => panic!("unexpected {v:?}"),
        };
        assert!(
            last.starts_with("max misestimate "),
            "summary line closes the rendering: {last}"
        );
        // The root operator emits exactly the query's result cardinality.
        assert_eq!(profile[0].rows_out, expected);
        assert_eq!(profile[0].depth, 0);
        assert!(profile[0].label.starts_with("Project"));
        // Real work was attributed somewhere in the tree.
        assert!(profile.iter().any(|op| op.rows_out > 0));
        assert!(profile
            .iter()
            .any(|op| op.tuples_scanned > 0 || op.index_probes > 0));
        // Rendered lines carry the counters.
        let first = match &rs.rows[0][0] {
            Value::Str(s) => s.clone(),
            v => panic!("unexpected {v:?}"),
        };
        assert!(
            first.contains("rows=") && first.contains("time="),
            "{first}"
        );
    }

    #[test]
    fn explain_analyze_runs_prepared_with_params() {
        let mut e = engine_with_parent();
        e.execute("CREATE INDEX parent_par ON parent (par)")
            .unwrap();
        let id = e
            .prepare("EXPLAIN ANALYZE SELECT child FROM parent WHERE par = ?")
            .unwrap();
        e.execute_prepared(id, &[Value::from("carol")]).unwrap();
        let profile = e.last_profile();
        assert_eq!(profile[0].rows_out, 1, "carol has one child");
        assert!(
            profile.iter().any(|op| op.index_probes > 0),
            "param equality keeps the index path: {profile:?}"
        );
    }

    #[test]
    fn clear_table_in_transaction_rolls_back() {
        let mut e = engine_with_parent();
        e.enable_wal();
        e.begin().unwrap();
        assert_eq!(e.clear_table("parent").unwrap(), 4);
        assert_eq!(e.table_len("parent").unwrap(), 0);
        e.rollback().unwrap();
        assert_eq!(e.table_len("parent").unwrap(), 4, "logged path undoes");
    }

    #[test]
    fn insert_batch_is_atomic_on_type_mismatch() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (a integer)").unwrap();
        let err = e.insert_rows(
            "t",
            vec![
                vec![Value::Int(1)],
                vec![Value::from("oops")],
                vec![Value::Int(3)],
            ],
        );
        assert!(matches!(err, Err(DbError::TypeMismatch(_))));
        assert_eq!(e.table_len("t").unwrap(), 0, "no partial batch");
    }

    #[test]
    fn insert_batch_is_atomic_on_oversized_row() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (a integer, b char)").unwrap();
        e.execute("CREATE INDEX t_a ON t (a)").unwrap();
        let row = |a: i64, len: usize| vec![Value::Int(a), Value::Str("x".repeat(len))];
        // 2 (arity) + 9 (int) + 5 (string header) bytes ride with the text.
        let fits = MAX_PAYLOAD - 16;
        let err = e.insert_rows("t", vec![row(1, 10), row(2, fits + 1), row(3, 10)]);
        assert_eq!(
            err,
            Err(DbError::RowTooLarge {
                bytes: MAX_PAYLOAD + 1,
                max: MAX_PAYLOAD
            })
        );
        assert_eq!(e.table_len("t").unwrap(), 0, "no partial batch");
        assert!(e
            .execute("SELECT * FROM t WHERE a = 1")
            .unwrap()
            .rows
            .is_empty());
        // The SQL path reports it the same way, and the largest row that
        // fits a page still goes in.
        let sql = format!("INSERT INTO t VALUES (4, '{}')", "y".repeat(fits + 1));
        assert!(matches!(e.execute(&sql), Err(DbError::RowTooLarge { .. })));
        assert_eq!(e.insert_rows("t", vec![row(5, fits)]), Ok(1));
        assert_eq!(
            e.execute("SELECT * FROM t WHERE a = 5").unwrap().rows.len(),
            1
        );
    }

    #[test]
    fn corrupt_payload_is_an_error_on_every_read_path() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (a integer, b integer)").unwrap();
        e.execute("CREATE TABLE u (a integer, b integer)").unwrap();
        e.execute("CREATE INDEX t_a ON t (a)").unwrap();
        e.insert_rows("t", vec![vec![Value::Int(1), Value::Int(2)]])
            .unwrap();
        e.insert_rows("u", vec![vec![Value::Int(1), Value::Int(2)]])
            .unwrap();
        // A record whose column count promises more bytes than it has,
        // reachable both by scan and (filed under key 9) through the index.
        let t = e.catalog.table_mut("t").unwrap();
        let rid = t
            .heap
            .insert(&mut e.disk, &mut e.pool, &[2, 0, 0, 9, 9, 9])
            .unwrap();
        t.indexes[0].insert(&[Value::Int(9), Value::Int(9)], rid);
        let corrupt = |r: Result<ResultSet, DbError>| matches!(r, Err(DbError::Corruption(_)));
        // Scan, projected scan, count, index lookup, both join sides,
        // anti-join inner scan.
        assert!(corrupt(e.execute("SELECT * FROM t")));
        assert!(corrupt(e.execute("SELECT b FROM t WHERE b > 0")));
        assert!(corrupt(e.execute("SELECT COUNT(*) FROM t")));
        assert!(corrupt(e.execute("SELECT * FROM t WHERE a = 9")));
        assert!(corrupt(
            e.execute("SELECT u.a, t.b FROM u, t WHERE u.b = t.b")
        ));
        assert!(corrupt(e.execute(
            "SELECT * FROM u WHERE NOT EXISTS (SELECT * FROM t WHERE t.b = u.b)"
        )));
        assert!(corrupt(e.execute("DELETE FROM t WHERE b = 2")));
        assert!(matches!(e.scan_all("t"), Err(DbError::Corruption(_))));
        // The engine keeps serving what is intact.
        assert_eq!(e.execute("SELECT * FROM u").unwrap().rows.len(), 1);
        assert_eq!(
            e.execute("SELECT * FROM t WHERE a = 1").unwrap().rows.len(),
            1
        );
    }

    #[test]
    fn delete_scans_heap_once_for_simple_predicates() {
        let mut e = engine_with_parent();
        let before = e.stats().exec.tuples_scanned;
        let rs = e.execute("DELETE FROM parent WHERE par = 'adam'").unwrap();
        assert_eq!(rs.affected, 2);
        assert_eq!(
            e.stats().exec.tuples_scanned - before,
            4,
            "one pass over the 4-row heap"
        );
        assert_eq!(e.table_len("parent").unwrap(), 2);
    }

    #[test]
    fn delete_uses_index_when_key_is_covered() {
        let mut e = engine_with_parent();
        e.execute("CREATE INDEX parent_par ON parent (par)")
            .unwrap();
        let scanned_before = e.stats().exec.tuples_scanned;
        let probes_before = e.stats().exec.index_probes;
        let rs = e.execute("DELETE FROM parent WHERE par = 'adam'").unwrap();
        assert_eq!(rs.affected, 2);
        assert_eq!(
            e.stats().exec.tuples_scanned,
            scanned_before,
            "index path: no sequential scan"
        );
        assert!(e.stats().exec.index_probes > probes_before);
        let rows = e
            .execute("SELECT par FROM parent ORDER BY par")
            .unwrap()
            .rows;
        assert_eq!(
            rows,
            vec![vec![Value::from("bob")], vec![Value::from("carol")]]
        );
    }

    #[test]
    fn unconditional_delete_truncates_outside_txn() {
        let mut e = engine_with_parent();
        let before = e.stats().exec.tuples_scanned;
        let rs = e.execute("DELETE FROM parent").unwrap();
        assert_eq!(rs.affected, 4);
        assert_eq!(e.stats().exec.tuples_scanned, before, "no scan needed");
        assert_eq!(e.table_len("parent").unwrap(), 0);
    }

    #[test]
    fn delete_with_complex_predicate_still_works() {
        let mut e = engine_with_parent();
        // NOT EXISTS forces the query-pipeline path: delete leaves (people
        // with no children of their own).
        let rs = e
            .execute(
                "DELETE FROM parent WHERE NOT EXISTS \
                 (SELECT * FROM parent p WHERE p.par = parent.child)",
            )
            .unwrap();
        assert_eq!(rs.affected, 2, "dave and eve edges are leaves");
        let rows = e
            .execute("SELECT child FROM parent ORDER BY child")
            .unwrap()
            .rows;
        assert_eq!(
            rows,
            vec![vec![Value::from("bob")], vec![Value::from("carol")]]
        );
    }

    #[test]
    fn timing_counters_accumulate() {
        let mut e = engine_with_parent();
        e.execute("SELECT * FROM parent").unwrap();
        let s = e.stats().exec;
        assert!(s.parse_ns > 0);
        assert!(s.plan_ns > 0);
        assert!(s.exec_ns > 0);
    }

    #[test]
    fn prepared_insert_select_respects_epoch() {
        let mut e = engine_with_parent();
        e.execute("CREATE TABLE sink (par char, child char)")
            .unwrap();
        let id = e.prepare("INSERT INTO sink SELECT * FROM parent").unwrap();
        assert_eq!(e.execute_prepared(id, &[]).unwrap().affected, 4);
        assert_eq!(e.execute_prepared(id, &[]).unwrap().affected, 4);
        let s = e.stats().exec;
        assert_eq!(s.plan_cache_misses, 1);
        assert_eq!(s.plan_cache_hits, 1);
        // Shrinking the target's schema must invalidate the cached plan and
        // surface a type error rather than corrupt rows.
        e.execute("DROP TABLE sink").unwrap();
        e.execute("CREATE TABLE sink (n integer)").unwrap();
        assert!(e.execute_prepared(id, &[]).is_err());
    }

    /// A fork is a fresh engine over the same data: no event of the
    /// parent's life shows in its counters — whatever the registry lists,
    /// so a counter added later is covered — while every execution
    /// setting of the parent is in force on it.
    #[test]
    fn fork_zeroes_every_counter_and_keeps_every_setting() {
        let mut e = engine_with_parent();
        e.execute("CREATE INDEX parent_par ON parent (par)")
            .unwrap();
        e.execute(
            "SELECT a.par, b.child FROM parent a, parent b \
             WHERE a.child = b.par AND a.par = 'adam'",
        )
        .unwrap();
        e.execute("DELETE FROM parent WHERE child = 'eve'").unwrap();
        e.execute("CREATE TEMP TABLE scratch (n integer)").unwrap();
        e.drop_temp_tables();
        e.prepare("SELECT * FROM parent WHERE par = ?").unwrap();
        e.set_row_budget(Some(0));
        assert!(e.execute("SELECT * FROM parent").is_err());
        let worked = e.metrics();
        for name in [
            "engine.statements",
            "engine.tables_dropped",
            "plan.predicates_pushed",
            "governor.row_budget_breaches",
            "exec.index_probes",
            "buffer.hits",
        ] {
            assert!(worked.counter_value(name) > 0, "{name} saw no work");
        }
        assert_eq!(worked.gauge_value("engine.prepared_open"), Some(1.0));

        e.set_row_budget(Some(2));
        e.set_memory_budget(Some(1));
        e.set_spill_mode(SpillMode::Disabled);
        e.set_batch_rows(7);
        e.cancel();
        let mut fork = e.fork().unwrap();

        let fresh = fork.metrics();
        for (name, metric) in fresh.iter() {
            if let crate::metrics::Metric::Counter(v) = metric {
                assert_eq!(*v, 0, "{name} carried over into the fork");
            }
        }
        assert_eq!(fresh.gauge_value("engine.prepared_open"), Some(0.0));

        assert!(e.cancel_requested());
        assert!(!fork.cancel_requested(), "a fork gets its own cancel flag");
        assert_eq!(fork.batch_rows(), 7);
        assert_eq!(fork.spill_mode(), SpillMode::Disabled);
        let breach = |r: Result<ResultSet, DbError>| match r {
            Err(DbError::Budget(b)) => b.kind,
            other => panic!("expected a budget breach, got {other:?}"),
        };
        assert_eq!(
            breach(fork.execute("SELECT * FROM parent")),
            BudgetKind::Rows,
            "three rows against a budget of two"
        );
        fork.set_row_budget(None);
        fork.execute("DROP INDEX parent_par").unwrap();
        assert_eq!(
            breach(
                fork.execute("SELECT a.par, b.child FROM parent a, parent b WHERE a.child = b.par")
            ),
            BudgetKind::Memory,
            "a hash build against a one-byte budget, spilling disabled"
        );
    }
}
