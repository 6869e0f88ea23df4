//! Multi-session concurrency: MVCC snapshot reads and a group-commit WAL.
//!
//! The engine itself is single-threaded by design — one [`Engine`], one
//! buffer pool, one WAL. This module turns it into a concurrent,
//! multi-session system without giving up that simplicity:
//!
//! * **Snapshot reads.** Every [`DbSession`] owns a copy-on-write fork of
//!   the live engine ([`Engine::fork`]): disk pages and catalog entries
//!   are `Arc`-shared, so taking a snapshot is O(#tables + #pages)
//!   pointer copies and readers — including long LFP evaluations in the
//!   Knowledge Manager — run entirely on their fork. They never take the
//!   live-engine lock, never block a writer, and never observe a partial
//!   commit: their snapshot is immutable by construction.
//!
//! * **Deferred-apply writes with first-committer-wins validation.**
//!   Write statements execute against the session's private fork (so the
//!   session reads its own writes) *and* are recorded. At commit the
//!   recorded statements are replayed on the live engine inside a WAL
//!   transaction. Validation runs over the transaction's read ∪ write
//!   footprint: reads and state-dependent writes (DDL, `TRUNCATE`, every
//!   `DELETE`, `INSERT ... SELECT`, transitive closure) are validated at
//!   table granularity — any commit that touched the table after this
//!   transaction's snapshot kills it with [`DbError::WriteConflict`] and
//!   nothing is applied. Literal-row inserts (`INSERT ... VALUES`,
//!   [`DbSession::insert_rows`]) are validated at *key* granularity: the
//!   inserted rows are recorded as keys, and the commit fails only when a
//!   concurrent commit coarsely rewrote the table or inserted an
//!   overlapping key. Commuting inserts therefore take a conflict-free
//!   fast path; this is sound because a literal insert's replay is
//!   state-independent. An insert-if-absent batch
//!   ([`DbSession::insert_absent`], how workspace facts are stored) is
//!   key-granular too: the snapshot picks the absent rows, those replay
//!   as a literal batch, and every staged row is a key, with no table
//!   read. A row's presence changes only through an insert of that row
//!   (an overlapping key) or a coarse write, so the snapshot's choice
//!   still holds whenever validation passes. These are the only two
//!   write granularities: the Knowledge Manager's stored-D/KB traffic is
//!   DDL, literal inserts, row batches and insert-if-absent batches, so a
//!   finer `DELETE` would buy no concurrency anyone uses. Because
//!   validation covers the *read* set too, the replay runs against
//!   exactly the table states the fork execution saw — the committed
//!   history is serializable in commit order.
//!
//! * **Group commit.** Commits funnel through a queue: a committing
//!   session enqueues its transaction, then contends for the live-engine
//!   lock. Whoever acquires it becomes the *leader* and drains every
//!   queued transaction — its own and any that piled up behind the
//!   previous leader — applying each in arrival order with per-commit
//!   fsyncs deferred, then flushing the WAL **once** for the whole batch
//!   (`Engine::fsync_wal`). Followers find their result already
//!   recorded when they get the lock and return without applying
//!   anything. Under contention the fsyncs-per-commit ratio drops below
//!   1; the `wal.fsyncs` / `wal.group_commits` /
//!   `wal.group_committed_txns` counters prove it. The
//!   `RDBMS_FSYNC_MICROS` environment variable adds a simulated
//!   per-fsync latency so the batching also shows up in throughput, not
//!   only in counters.

use crate::catalog::DbError;
use crate::engine::{Engine, ResultSet};
use crate::metrics::{Metric, Registry};
use crate::schema::{Schema, Tuple};
use crate::sql::ast::{Condition, Query, Scalar, Stmt};
use crate::sql::parser::{parse_script, parse_stmt_params};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A statement recorded on a session's fork, to be replayed on the live
/// engine at commit.
#[derive(Debug, Clone)]
enum ReplayOp {
    Sql(String),
    /// A literal row batch ([`DbSession::insert_rows`], or the rows
    /// [`DbSession::insert_absent`] found absent) — the path the
    /// Knowledge Manager's stored-D/KB loads and fact commits go through.
    Rows {
        table: String,
        rows: Vec<Tuple>,
    },
    /// A multi-statement script ([`DbSession::execute_script`]), replayed
    /// as one unit; its footprint is the merge of its statements'.
    Script(String),
}

impl ReplayOp {
    /// Execute the op on `engine`: the session's snapshot when the
    /// statement runs, the live engine when the commit replays it.
    fn run(&self, engine: &mut Engine) -> Result<ResultSet, DbError> {
        match self {
            ReplayOp::Sql(sql) => engine.execute(sql),
            ReplayOp::Rows { table, rows } => Ok(ResultSet {
                columns: Vec::new(),
                rows: Vec::new(),
                affected: engine.insert_rows(table, rows.clone())?,
            }),
            ReplayOp::Script(sql) => engine.execute_script(sql),
        }
    }
}

/// How a transaction wrote one table, for validation purposes.
#[derive(Debug, Clone)]
enum TableWrite {
    /// A state-dependent write (DDL, `TRUNCATE`, `DELETE`,
    /// `INSERT ... SELECT`, transitive closure): conflicts with any
    /// concurrent write to the table, exactly as in pure table
    /// granularity.
    Coarse,
    /// Literal-row inserts and insert-if-absent batches (every staged
    /// row, inserted or skipped) only: replay is state-independent, so the
    /// write conflicts only with a concurrent coarse write or an
    /// overlapping inserted key (the key is the full row — the engine
    /// has no primary-key constraints, so equal rows are the only
    /// overlap that could distinguish commit orders to a key-level
    /// observer).
    Keys(BTreeSet<Tuple>),
}

/// Merge another statement's write of `table` into a transaction's
/// accumulated write set. `Coarse` absorbs keys in both directions.
fn merge_write(set: &mut BTreeMap<String, TableWrite>, table: String, write: TableWrite) {
    match set.entry(table) {
        std::collections::btree_map::Entry::Vacant(e) => {
            e.insert(write);
        }
        std::collections::btree_map::Entry::Occupied(mut e) => match (e.get_mut(), write) {
            (TableWrite::Keys(a), TableWrite::Keys(b)) => a.extend(b),
            (slot, _) => *slot = TableWrite::Coarse,
        },
    }
}

/// A transaction waiting in the commit queue.
struct Pending {
    ticket: u64,
    /// The global commit sequence number the session's snapshot was
    /// taken at; first-committer-wins validates against it.
    snapshot_seq: u64,
    ops: Vec<ReplayOp>,
    read_set: BTreeSet<String>,
    write_set: BTreeMap<String, TableWrite>,
}

/// Keys remembered per table before the FIFO history starts pruning.
/// Far above what the bench workloads insert between any two snapshots;
/// the `pruned_floor` fallback keeps validation sound past the cap.
const KEY_HISTORY_CAP: usize = 65_536;

/// Per-table commit history: the last-writer sequence numbers key-granular
/// validation checks against.
#[derive(Default)]
struct TableHistory {
    /// Seq of the last commit that wrote the table at all (reads and
    /// coarse writes validate against this — unchanged table semantics).
    last_seq: u64,
    /// Seq of the last *coarse* write; literal inserts conflict with it.
    coarse_seq: u64,
    /// Last-writer seq per inserted key, FIFO-capped at
    /// [`KEY_HISTORY_CAP`].
    keys: BTreeMap<Tuple, u64>,
    /// Insertion order of `keys` entries, for pruning.
    order: VecDeque<(Tuple, u64)>,
    /// Highest seq ever pruned from `keys`: an absent key may have been
    /// written at or below this, so validation treats "absent but floor
    /// past snapshot" as a conflict (conservative, never unsound).
    pruned_floor: u64,
}

impl TableHistory {
    /// Record a coarse write at `seq`. Key history before a coarse write
    /// is irrelevant: any snapshot that predates it already conflicts on
    /// `coarse_seq` alone.
    fn record_coarse(&mut self, seq: u64) {
        self.last_seq = seq;
        self.coarse_seq = seq;
        self.keys.clear();
        self.order.clear();
        self.pruned_floor = 0;
    }

    /// Record a literal-insert write of `keys` at `seq`.
    fn record_keys(&mut self, keys: &BTreeSet<Tuple>, seq: u64) {
        self.last_seq = seq;
        for k in keys {
            self.keys.insert(k.clone(), seq);
            self.order.push_back((k.clone(), seq));
        }
        while self.order.len() > KEY_HISTORY_CAP {
            let (k, s) = self.order.pop_front().expect("len checked");
            // Only drop the map entry if it still belongs to this
            // insertion; a re-inserted key owns a newer seq.
            if self.keys.get(&k) == Some(&s) {
                self.keys.remove(&k);
            }
            self.pruned_floor = self.pruned_floor.max(s);
        }
    }
}

/// The single mutable heart of the system: the live engine plus the
/// version bookkeeping the commit protocol needs.
struct Live {
    engine: Engine,
    /// Bumped once per applied transaction.
    commit_seq: u64,
    /// Per-table commit history (last write, last coarse write, recent
    /// insert keys).
    history: BTreeMap<String, TableHistory>,
    /// Outcomes of transactions a leader applied on behalf of other
    /// sessions, keyed by ticket; each owner removes its own entry.
    results: BTreeMap<u64, Result<(), DbError>>,
}

struct Shared {
    queue: Mutex<Vec<Pending>>,
    live: Mutex<Live>,
    /// Signaled after a leader drains a batch, so followers whose result
    /// is ready wake promptly even while the next leader holds `live`.
    batch_done: Condvar,
    next_session: AtomicU64,
    next_ticket: AtomicU64,
    /// Simulated fsync latency (µs), from `RDBMS_FSYNC_MICROS`.
    fsync_micros: u64,
}

/// A thread-safe, multi-session handle over one [`Engine`]. Cloning is
/// cheap (an `Arc` bump); every clone talks to the same live engine.
#[derive(Clone)]
pub struct SharedEngine {
    shared: Arc<Shared>,
}

impl SharedEngine {
    /// Wrap `engine` for concurrent use. WAL is enabled (commits replay
    /// through transactions) and the engine must not be mid-transaction.
    pub fn new(mut engine: Engine) -> SharedEngine {
        assert!(
            !engine.in_transaction(),
            "SharedEngine requires an engine with no open transaction"
        );
        engine.enable_wal();
        SharedEngine {
            shared: Arc::new(Shared {
                queue: Mutex::new(Vec::new()),
                live: Mutex::new(Live {
                    engine,
                    commit_seq: 0,
                    history: BTreeMap::new(),
                    results: BTreeMap::new(),
                }),
                batch_done: Condvar::new(),
                next_session: AtomicU64::new(0),
                next_ticket: AtomicU64::new(0),
                fsync_micros: crate::engine::env_fsync_micros(),
            }),
        }
    }

    /// Open a new session on the current committed state.
    pub fn session(&self) -> DbSession {
        let id = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
        let mut live = self.shared.live.lock().unwrap();
        let snap = live
            .engine
            .fork()
            .expect("live engine is never mid-transaction between commits");
        let snapshot_seq = live.commit_seq;
        drop(live);
        DbSession {
            shared: Arc::clone(&self.shared),
            id,
            snap,
            snapshot_seq,
            txn: None,
            commits: 0,
            conflicts: 0,
        }
    }

    /// Run `f` against the live engine under the commit lock. Tests use
    /// this to arm fault injectors, inspect durable state, and drive
    /// recovery; it is also the seam for maintenance (checkpointing).
    pub fn with_live<R>(&self, f: impl FnOnce(&mut Engine) -> R) -> R {
        let mut live = self.shared.live.lock().unwrap();
        f(&mut live.engine)
    }

    /// Crash recovery on the live engine. Every table's version is
    /// bumped past every open snapshot, so transactions that straddled
    /// the crash fail validation instead of committing over a recovered
    /// state, and queued-but-unapplied transactions are failed outright.
    pub fn recover(&self) -> Result<crate::disk::RecoveryReport, DbError> {
        let mut queued = std::mem::take(&mut *self.shared.queue.lock().unwrap());
        let mut live = self.shared.live.lock().unwrap();
        let report = live.engine.recover()?;
        live.commit_seq += 1;
        let seq = live.commit_seq;
        for name in live.engine.table_names() {
            live.history
                .entry(name.to_ascii_lowercase())
                .or_default()
                .record_coarse(seq);
        }
        for p in queued.drain(..) {
            live.results.insert(
                p.ticket,
                Err(DbError::Txn(
                    "transaction discarded: the engine crashed and recovered before it was applied"
                        .into(),
                )),
            );
        }
        self.shared.batch_done.notify_all();
        Ok(report)
    }

    /// Metrics of the live engine (the durable side; sessions report
    /// their fork-local metrics via [`DbSession::metrics`]).
    pub fn metrics(&self) -> Registry {
        let live = self.shared.live.lock().unwrap();
        live.engine.metrics()
    }
}

/// Recording state of an open session transaction.
#[derive(Default)]
struct TxnRecording {
    ops: Vec<ReplayOp>,
    read_set: BTreeSet<String>,
    write_set: BTreeMap<String, TableWrite>,
    /// A statement failed mid-transaction; only rollback is accepted
    /// (the fork may hold that statement's partial effects).
    poisoned: bool,
}

/// One session over a [`SharedEngine`]: a private MVCC snapshot plus the
/// recording/commit machinery. Sessions are `Send` — park one per thread.
pub struct DbSession {
    shared: Arc<Shared>,
    id: u64,
    /// The session's snapshot: a copy-on-write fork of the live engine.
    snap: Engine,
    snapshot_seq: u64,
    txn: Option<TxnRecording>,
    commits: u64,
    conflicts: u64,
}

impl DbSession {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Transactions this session successfully committed.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Commits this session lost to first-committer-wins validation.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// The session's snapshot engine. Reads run here without any lock;
    /// the per-session governor, budgets, and spill mode are configured
    /// through it ([`Engine::set_statement_timeout`] etc.) and stay with
    /// the session when a refresh or commit replaces the snapshot.
    pub fn engine(&mut self) -> &mut Engine {
        &mut self.snap
    }

    /// Immutable view of the session's snapshot engine.
    pub fn snapshot(&self) -> &Engine {
        &self.snap
    }

    /// A handle to the shared engine this session runs on — the way to
    /// open sibling sessions against the same live state.
    pub fn shared_engine(&self) -> SharedEngine {
        SharedEngine {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Discard the current snapshot (and any open transaction) and fork
    /// the latest committed state. Fails when the live engine cannot be
    /// forked — in practice only after a crash; run
    /// [`SharedEngine::recover`] and refresh again. On failure the old
    /// snapshot is kept, so reads keep working against the stale state.
    pub fn refresh(&mut self) -> Result<(), DbError> {
        self.txn = None;
        let mut live = self.shared.live.lock().unwrap();
        let fork = live.engine.fork()?;
        self.snap.replace_snapshot(fork);
        self.snapshot_seq = live.commit_seq;
        Ok(())
    }

    /// Begin an explicit transaction. The snapshot is refreshed first so
    /// the transaction validates against the freshest possible baseline.
    pub fn begin(&mut self) -> Result<(), DbError> {
        if self.txn.is_some() {
            return Err(DbError::Txn("a transaction is already active".into()));
        }
        self.refresh()?;
        self.txn = Some(TxnRecording::default());
        Ok(())
    }

    /// Abandon the open transaction and re-snapshot. The transaction is
    /// gone even if the re-snapshot fails (crashed live engine): the
    /// error then reports the stale snapshot, not a live transaction.
    pub fn rollback(&mut self) -> Result<(), DbError> {
        if self.txn.is_none() {
            return Err(DbError::Txn(
                "rollback without an active transaction".into(),
            ));
        }
        self.refresh()
    }

    /// Commit the open transaction through the group-commit queue. On
    /// [`DbError::WriteConflict`] nothing was applied; retry the whole
    /// transaction on the fresh snapshot this call leaves behind.
    pub fn commit(&mut self) -> Result<(), DbError> {
        let rec = self
            .txn
            .take()
            .ok_or_else(|| DbError::Txn("commit without an active transaction".into()))?;
        if rec.poisoned {
            let _ = self.refresh();
            return Err(DbError::Txn(
                "transaction aborted by an earlier statement error".into(),
            ));
        }
        if rec.ops.is_empty() {
            // Read-only: the snapshot is the transaction. Nothing to
            // validate or apply.
            return Ok(());
        }
        self.submit(rec.ops, rec.read_set, rec.write_set)
    }

    /// Execute one SQL statement. Reads run on the snapshot; writes run
    /// on the snapshot *and* are recorded for replay at commit (or, in
    /// autocommit, committed through the queue immediately).
    pub fn execute(&mut self, sql: &str) -> Result<ResultSet, DbError> {
        let (stmt, n_params) = parse_stmt_params(sql)?;
        if n_params > 0 {
            return Err(DbError::Plan(
                "statement contains `?` parameters; a session executes literal SQL only".into(),
            ));
        }
        let (reads, writes) = self.stmt_tables(&stmt);
        self.record_or_autocommit(ReplayOp::Sql(sql.to_string()), reads, writes)
    }

    /// Insert literal rows through the MVCC write path: executed on the
    /// snapshot (the session reads its own writes) and recorded for
    /// key-granular replay at commit — the bulk-load fast path of the
    /// Knowledge Manager's stored D/KB. In autocommit a write conflict is
    /// retried transparently, like [`DbSession::execute`].
    pub fn insert_rows(&mut self, table: &str, rows: Vec<Tuple>) -> Result<u64, DbError> {
        let keys = rows.iter().cloned().collect();
        let writes = BTreeMap::from([(norm(table), TableWrite::Keys(keys))]);
        let op = ReplayOp::Rows {
            table: table.to_string(),
            rows,
        };
        Ok(self
            .record_or_autocommit(op, BTreeSet::new(), writes)?
            .affected)
    }

    /// Execute a multi-statement script through the MVCC path. The script
    /// runs on the snapshot and is recorded as a single replay unit whose
    /// validation footprint is the merge of its statements' footprints —
    /// the stored-D/KB bootstrap DDL goes through here.
    pub fn execute_script(&mut self, sql: &str) -> Result<ResultSet, DbError> {
        let mut reads = BTreeSet::new();
        let mut writes = BTreeMap::new();
        for stmt in &parse_script(sql)? {
            let (r, w) = self.stmt_tables(stmt);
            reads.extend(r);
            for (table, write) in w {
                merge_write(&mut writes, table, write);
            }
        }
        self.record_or_autocommit(ReplayOp::Script(sql.to_string()), reads, writes)
    }

    /// Whether the snapshot has `table`.
    pub fn has_table(&self, table: &str) -> bool {
        self.snap.has_table(table)
    }

    /// Schema of `table` on the snapshot.
    pub fn table_schema(&self, table: &str) -> Result<Schema, DbError> {
        self.snap.table_schema(table)
    }

    /// Insert the rows of `rows` that the table does not hold yet, each
    /// one once, in first-occurrence order ([`Engine::insert_absent`]).
    /// The snapshot decides which rows are absent; those replay as a
    /// literal batch, and the footprint is every staged row as a key, with
    /// no read of the table. That is sound because a row's presence changes
    /// only through an insert of that row, which the key history catches,
    /// or a coarse write (a `DELETE` of a row that was present and skipped
    /// included), which `coarse_seq` catches. In autocommit each attempt is
    /// a transaction of its own, so a conflict recomputes the absent rows
    /// on the fresh snapshot.
    pub fn insert_absent(&mut self, table: &str, rows: Vec<Tuple>) -> Result<u64, DbError> {
        if self.txn.is_none() {
            loop {
                self.begin()?;
                let n = match self.insert_absent(table, rows.clone()) {
                    Ok(n) => n,
                    Err(e) => {
                        let _ = self.rollback();
                        return Err(e);
                    }
                };
                match self.commit() {
                    Err(DbError::WriteConflict(_)) => continue,
                    out => return out.map(|()| n),
                }
            }
        }
        let keys = rows.iter().cloned().collect();
        let fresh = self.snap.absent_rows(table, rows)?;
        let writes = BTreeMap::from([(norm(table), TableWrite::Keys(keys))]);
        let op = ReplayOp::Rows {
            table: table.to_string(),
            rows: fresh,
        };
        Ok(self
            .record_or_autocommit(op, BTreeSet::new(), writes)?
            .affected)
    }

    /// The one path every statement takes: `op` runs on the snapshot, and
    /// `reads` / `writes` are its validation footprint.
    ///
    /// * No writes: a pure read. Its footprint joins an open
    ///   transaction's read set (reads participate in validation).
    /// * Inside a transaction: the op and its footprint are recorded for
    ///   replay at commit, or — on error — the transaction is poisoned,
    ///   since the fork may hold the statement's partial effects.
    /// * Autocommit: a one-op transaction through the queue. A write
    ///   conflict is retried transparently — the op re-runs on the fresh
    ///   snapshot `submit` left behind, exactly as a new one-statement
    ///   transaction would. Progress is guaranteed: every conflict means
    ///   some other session's commit landed.
    fn record_or_autocommit(
        &mut self,
        op: ReplayOp,
        reads: BTreeSet<String>,
        writes: BTreeMap<String, TableWrite>,
    ) -> Result<ResultSet, DbError> {
        if self.txn.as_ref().is_some_and(|t| t.poisoned) {
            return Err(DbError::Txn(
                "transaction aborted by an earlier statement error; rollback first".into(),
            ));
        }
        if writes.is_empty() {
            let result = op.run(&mut self.snap);
            if let (Some(t), Ok(_)) = (self.txn.as_mut(), &result) {
                t.read_set.extend(reads);
            }
            return result;
        }
        if let Some(t) = self.txn.as_mut() {
            let result = op.run(&mut self.snap);
            match &result {
                Ok(_) => {
                    t.ops.push(op);
                    t.read_set.extend(reads);
                    for (table, w) in writes {
                        merge_write(&mut t.write_set, table, w);
                    }
                }
                Err(_) => t.poisoned = true,
            }
            return result;
        }
        loop {
            let out = match op.run(&mut self.snap) {
                Ok(out) => out,
                Err(e) => {
                    // The fork may hold the failed statement's partial
                    // effects; discard it (best-effort if the live
                    // engine is crashed).
                    let _ = self.refresh();
                    return Err(e);
                }
            };
            match self.submit(vec![op.clone()], reads.clone(), writes.clone()) {
                Ok(()) => return Ok(out),
                Err(DbError::WriteConflict(_)) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Enqueue a transaction and see it through the group-commit
    /// protocol. Always leaves the session on a fresh snapshot.
    fn submit(
        &mut self,
        ops: Vec<ReplayOp>,
        read_set: BTreeSet<String>,
        write_set: BTreeMap<String, TableWrite>,
    ) -> Result<(), DbError> {
        let ticket = self.shared.next_ticket.fetch_add(1, Ordering::Relaxed);
        self.shared.queue.lock().unwrap().push(Pending {
            ticket,
            snapshot_seq: self.snapshot_seq,
            ops,
            read_set,
            write_set,
        });
        let mut live = self.shared.live.lock().unwrap();
        let result = loop {
            if let Some(r) = live.results.remove(&ticket) {
                // A previous leader applied (or failed) this transaction.
                break r;
            }
            // Become the leader: drain everything queued right now and
            // apply it in arrival order with one fsync for the batch.
            let batch: Vec<Pending> = {
                let mut q = self.shared.queue.lock().unwrap();
                std::mem::take(&mut *q)
            };
            if batch.is_empty() {
                // Our entry is gone but no result yet: another leader is
                // mid-batch with it. Wait for that batch to land.
                live = self.shared.batch_done.wait(live).unwrap();
                continue;
            }
            live.engine.set_defer_fsync(true);
            let mut mine = None;
            for p in batch {
                let p_ticket = p.ticket;
                let r = apply_one(&mut live, p);
                if p_ticket == ticket {
                    mine = Some(r);
                } else {
                    live.results.insert(p_ticket, r);
                }
            }
            live.engine.set_defer_fsync(false);
            if live.engine.fsync_wal() > 0 && self.shared.fsync_micros > 0 {
                std::thread::sleep(Duration::from_micros(self.shared.fsync_micros));
            }
            self.shared.batch_done.notify_all();
            if let Some(r) = mine {
                break r;
            }
            // Keep looping: our entry must have been drained by someone
            // else (can't happen — we just drained it — but stay safe).
        };
        // Re-snapshot under the lock we already hold: the fresh fork is
        // consistent with whatever batch just committed.
        if !live.engine.crashed() {
            if let Ok(fork) = live.engine.fork() {
                self.snap.replace_snapshot(fork);
                self.snapshot_seq = live.commit_seq;
                self.txn = None;
            }
        }
        if result.is_ok() {
            self.commits += 1;
        } else if matches!(result, Err(DbError::WriteConflict(_))) {
            self.conflicts += 1;
        }
        result
    }

    /// Fork-local metrics, each name prefixed with `session<id>.` so
    /// several sessions' registries merge without colliding, plus the
    /// session-level commit/conflict counters.
    pub fn metrics(&self) -> Registry {
        let mut out = Registry::new();
        let prefix = format!("session{}.", self.id);
        for (name, m) in self.snap.metrics().iter() {
            let name = format!("{prefix}{name}");
            match m {
                Metric::Counter(v) => out.counter(&name, *v),
                Metric::Gauge(v) => out.gauge(&name, *v),
                Metric::Histogram(_) => {}
            }
        }
        out.counter(&format!("{prefix}txn.commits"), self.commits);
        out.counter(&format!("{prefix}txn.conflicts"), self.conflicts);
        out
    }

    /// Tables a statement reads / writes (lower-cased), the footprint
    /// first-committer-wins validation runs over.
    fn stmt_tables(&self, stmt: &Stmt) -> (BTreeSet<String>, BTreeMap<String, TableWrite>) {
        let mut reads = BTreeSet::new();
        let mut writes = BTreeMap::new();
        match stmt {
            Stmt::CreateTable { name, .. } | Stmt::DropTable { name, .. } => {
                writes.insert(norm(name), TableWrite::Coarse);
            }
            Stmt::CreateIndex { table, .. } => {
                writes.insert(norm(table), TableWrite::Coarse);
            }
            Stmt::DropIndex { name } => {
                // Resolve the owning table on the snapshot; if the index
                // is unknown the statement will fail there anyway.
                let key = name.to_ascii_lowercase();
                for t in self.snap.table_names() {
                    if let Ok((_, _, indexes)) = self.snap.table_info(&t) {
                        if indexes.iter().any(|(n, _, _)| *n == key) {
                            writes.insert(norm(&t), TableWrite::Coarse);
                        }
                    }
                }
            }
            Stmt::InsertValues { table, rows } => {
                writes.insert(norm(table), insert_keys(rows));
            }
            Stmt::Truncate { table } => {
                writes.insert(norm(table), TableWrite::Coarse);
            }
            Stmt::Delete { table, predicate } => {
                writes.insert(norm(table), TableWrite::Coarse);
                conds_tables(predicate, &mut reads);
            }
            Stmt::InsertSelect { table, query } => {
                writes.insert(norm(table), TableWrite::Coarse);
                query_tables(query, &mut reads);
            }
            Stmt::InsertTransitiveClosure { table, source } => {
                writes.insert(norm(table), TableWrite::Coarse);
                reads.insert(norm(source));
            }
            Stmt::Select(query) | Stmt::Explain(query) | Stmt::ExplainAnalyze(query) => {
                query_tables(query, &mut reads);
            }
        }
        (reads, writes)
    }
}

/// The write-set entry for an `INSERT ... VALUES` statement: the inserted
/// rows as keys. Any scalar that is not a literal (a column reference the
/// parser should have rejected) degrades the whole statement to a coarse
/// write — conservative, never unsound.
fn insert_keys(rows: &[Vec<Scalar>]) -> TableWrite {
    let mut keys = BTreeSet::new();
    for row in rows {
        let mut key = Vec::with_capacity(row.len());
        for scalar in row {
            match scalar {
                Scalar::Lit(v) => key.push(v.clone()),
                _ => return TableWrite::Coarse,
            }
        }
        keys.insert(key);
    }
    TableWrite::Keys(keys)
}

fn norm(name: &str) -> String {
    name.to_ascii_lowercase()
}

fn query_tables(query: &Query, out: &mut BTreeSet<String>) {
    match query {
        Query::Select(b) => {
            for t in &b.from {
                out.insert(norm(&t.table));
            }
            conds_tables(&b.where_clause, out);
        }
        Query::Union { left, right, .. } | Query::Except { left, right } => {
            query_tables(left, out);
            query_tables(right, out);
        }
    }
}

fn conds_tables(conds: &[Condition], out: &mut BTreeSet<String>) {
    for c in conds {
        if let Condition::NotExists { table, conds } = c {
            out.insert(norm(&table.table));
            conds_tables(conds, out);
        }
    }
}

/// Validate and apply one queued transaction on the live engine.
///
/// First-committer-wins over the read ∪ write footprint. Reads and coarse
/// writes conflict with *any* commit that wrote the table past this
/// transaction's snapshot; key-listed literal inserts conflict only with
/// a coarse write, an overlapping key, or a key history pruned past the
/// snapshot.
fn apply_one(live: &mut Live, p: Pending) -> Result<(), DbError> {
    let conflict = |table: &str, seq: u64, what: &str| {
        Err(DbError::WriteConflict(format!(
            "table '{table}' {what} by a concurrent commit \
             (snapshot at seq {}, table at seq {seq}); retry the transaction",
            p.snapshot_seq
        )))
    };
    for table in &p.read_set {
        if let Some(h) = live.history.get(table) {
            if h.last_seq > p.snapshot_seq {
                return conflict(table, h.last_seq, "was modified");
            }
        }
    }
    for (table, write) in &p.write_set {
        let Some(h) = live.history.get(table) else {
            continue;
        };
        match write {
            TableWrite::Keys(keys) => {
                if h.coarse_seq > p.snapshot_seq {
                    return conflict(table, h.coarse_seq, "was rewritten");
                }
                if h.pruned_floor > p.snapshot_seq {
                    return conflict(table, h.pruned_floor, "key history was pruned");
                }
                for key in keys {
                    let seq = h.keys.get(key).copied().unwrap_or(0);
                    if seq > p.snapshot_seq {
                        return conflict(table, seq, "had an overlapping key inserted");
                    }
                }
            }
            TableWrite::Coarse => {
                if h.last_seq > p.snapshot_seq {
                    return conflict(table, h.last_seq, "was modified");
                }
            }
        }
    }
    apply_ops(&mut live.engine, &p.ops)?;
    live.commit_seq += 1;
    let seq = live.commit_seq;
    for (table, write) in &p.write_set {
        let h = live.history.entry(table.clone()).or_default();
        match write {
            TableWrite::Keys(keys) => h.record_keys(keys, seq),
            TableWrite::Coarse => h.record_coarse(seq),
        }
    }
    Ok(())
}

/// Replay a transaction's statements inside a WAL transaction on the
/// live engine. On any statement error the transaction is rolled back
/// (best-effort on a crashed disk — recovery handles the rest).
fn apply_ops(engine: &mut Engine, ops: &[ReplayOp]) -> Result<(), DbError> {
    engine.begin()?;
    for op in ops {
        if let Err(e) = op.run(engine) {
            let _ = engine.rollback();
            return Err(e);
        }
    }
    engine.commit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn seeded() -> SharedEngine {
        let mut db = Engine::new();
        db.execute("CREATE TABLE kv (k int, v int)").unwrap();
        db.execute("INSERT INTO kv VALUES (1, 10), (2, 20)")
            .unwrap();
        SharedEngine::new(db)
    }

    fn dump(s: &mut DbSession) -> Vec<Vec<Value>> {
        s.execute("SELECT k, v FROM kv ORDER BY k").unwrap().rows
    }

    #[test]
    fn snapshot_reader_does_not_see_concurrent_commit() {
        let shared = seeded();
        let mut reader = shared.session();
        let mut writer = shared.session();
        let before = dump(&mut reader);
        writer.execute("INSERT INTO kv VALUES (3, 30)").unwrap();
        assert_eq!(
            dump(&mut reader),
            before,
            "snapshot must not see the new row"
        );
        assert_eq!(dump(&mut writer).len(), 3, "writer sees its own commit");
        reader.refresh().unwrap();
        assert_eq!(dump(&mut reader).len(), 3, "refresh picks up the commit");
    }

    /// A session plans and reads from its fork: a concurrent session's
    /// 2 048-row batch changes neither the live row count the reader's
    /// planner sees nor an indexed point query's answer until it
    /// refreshes.
    #[test]
    fn snapshot_row_counts_hold_until_refresh() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (k int, v int)").unwrap();
        e.execute("CREATE INDEX t_k ON t (k)").unwrap();
        let rows = (0..64).map(|i| vec![Value::Int(i % 8), Value::Int(i)]);
        e.insert_rows("t", rows.collect()).unwrap();
        let shared = SharedEngine::new(e);
        let mut reader = shared.session();
        let mut writer = shared.session();
        let bulk = (0..2048).map(|i| vec![Value::Int(i % 512), Value::Int(1000 + i)]);
        writer.insert_rows("t", bulk.collect()).unwrap();
        let live_rows = shared.with_live(|live| live.table_len("t").unwrap());
        assert_eq!(live_rows, 64 + 2048);

        assert_eq!(reader.snapshot().table_len("t").unwrap(), 64);
        let rs = reader.execute("SELECT v FROM t WHERE k = 3").unwrap();
        assert_eq!(rs.rows.len(), 8, "snapshot answers ignore the commit");

        reader.refresh().unwrap();
        assert_eq!(reader.snapshot().table_len("t").unwrap(), 64 + 2048);
    }

    #[test]
    fn first_committer_wins_on_the_same_table() {
        // A state-dependent write (every DELETE is coarse) races a
        // literal insert: the second committer must lose at table
        // granularity.
        let shared = seeded();
        let mut a = shared.session();
        let mut b = shared.session();
        a.begin().unwrap();
        b.begin().unwrap();
        a.execute("INSERT INTO kv VALUES (3, 30)").unwrap();
        b.execute("DELETE FROM kv WHERE k = 1 AND v = 10").unwrap();
        a.commit().unwrap();
        let err = b.commit().unwrap_err();
        assert!(
            matches!(err, DbError::WriteConflict(_)),
            "second committer must lose: {err}"
        );
        assert_eq!(b.conflicts(), 1);
        // Retry on the fresh snapshot succeeds.
        b.begin().unwrap();
        b.execute("DELETE FROM kv WHERE k = 1 AND v = 10").unwrap();
        b.commit().unwrap();
        assert_eq!(dump(&mut b).len(), 2);
    }

    /// Every `DELETE` is a coarse write, so even a point delete loses to a
    /// concurrent insert of an unrelated row; nothing of it is applied.
    #[test]
    fn point_delete_conflicts_with_disjoint_insert() {
        let shared = seeded();
        let mut a = shared.session();
        let mut b = shared.session();
        a.begin().unwrap();
        b.begin().unwrap();
        a.execute("INSERT INTO kv VALUES (3, 30)").unwrap();
        b.execute("DELETE FROM kv WHERE k = 1").unwrap();
        a.commit().unwrap();
        let err = b.commit().unwrap_err();
        assert!(matches!(err, DbError::WriteConflict(_)), "{err}");
        let mut check = shared.session();
        assert_eq!(dump(&mut check).len(), 3, "the delete must not land");
    }

    /// A point delete must lose to a concurrent insert of a matching row:
    /// replaying the delete would remove a row its fork never saw.
    #[test]
    fn point_delete_conflicts_with_matching_insert() {
        let shared = seeded();
        let mut a = shared.session();
        let mut b = shared.session();
        a.begin().unwrap();
        b.begin().unwrap();
        a.execute("INSERT INTO kv VALUES (1, 99)").unwrap();
        b.execute("DELETE FROM kv WHERE k = 1").unwrap();
        a.commit().unwrap();
        let err = b.commit().unwrap_err();
        assert!(matches!(err, DbError::WriteConflict(_)), "{err}");
    }

    /// Point deletes of disjoint rows still conflict at table granularity:
    /// the second committer loses, and retried on its fresh snapshot it
    /// goes through.
    #[test]
    fn point_deletes_on_distinct_values_conflict() {
        let shared = seeded();
        let mut a = shared.session();
        let mut b = shared.session();
        a.begin().unwrap();
        b.begin().unwrap();
        a.execute("DELETE FROM kv WHERE k = 1").unwrap();
        b.execute("DELETE FROM kv WHERE k = 2").unwrap();
        a.commit().unwrap();
        let err = b.commit().unwrap_err();
        assert!(matches!(err, DbError::WriteConflict(_)), "{err}");
        assert_eq!(dump(&mut b), vec![vec![Value::Int(2), Value::Int(20)]]);
        b.execute("DELETE FROM kv WHERE k = 2").unwrap();
        assert!(dump(&mut b).is_empty());
    }

    /// Point deletes on *different* columns may target the same row, so
    /// they cannot be proven disjoint and must conflict.
    #[test]
    fn point_deletes_on_different_columns_conflict() {
        let shared = seeded();
        let mut a = shared.session();
        let mut b = shared.session();
        a.begin().unwrap();
        b.begin().unwrap();
        a.execute("DELETE FROM kv WHERE k = 1").unwrap();
        b.execute("DELETE FROM kv WHERE v = 20").unwrap();
        a.commit().unwrap();
        let err = b.commit().unwrap_err();
        assert!(matches!(err, DbError::WriteConflict(_)), "{err}");
    }

    /// Regression (key-granular validation): commuting literal inserts
    /// into the same table no longer raise `WriteConflict`.
    #[test]
    fn commuting_inserts_into_same_table_do_not_conflict() {
        let shared = seeded();
        let mut a = shared.session();
        let mut b = shared.session();
        a.begin().unwrap();
        b.begin().unwrap();
        a.execute("INSERT INTO kv VALUES (3, 30)").unwrap();
        b.execute("INSERT INTO kv VALUES (4, 40)").unwrap();
        a.commit().unwrap();
        b.commit().expect("disjoint-key inserts commute");
        assert_eq!(a.conflicts() + b.conflicts(), 0);
        let mut check = shared.session();
        assert_eq!(dump(&mut check).len(), 4);
    }

    /// Overlapping keys still conflict: a key-level observer could
    /// otherwise distinguish commit orders.
    #[test]
    fn overlapping_keys_conflict() {
        let shared = seeded();
        let mut a = shared.session();
        let mut b = shared.session();
        a.begin().unwrap();
        b.begin().unwrap();
        a.execute("INSERT INTO kv VALUES (3, 30)").unwrap();
        b.execute("INSERT INTO kv VALUES (3, 30)").unwrap();
        a.commit().unwrap();
        let err = b.commit().unwrap_err();
        assert!(matches!(err, DbError::WriteConflict(_)), "{err}");
    }

    /// A coarse rewrite (TRUNCATE) since the snapshot kills a literal
    /// insert even under key granularity: replaying the insert after the
    /// rewrite is serial, but the coarse writer's own validation story
    /// depends on the table version, so inserts stay conservative here.
    #[test]
    fn coarse_write_conflicts_literal_insert() {
        let shared = seeded();
        let mut a = shared.session();
        let mut b = shared.session();
        b.begin().unwrap();
        b.execute("INSERT INTO kv VALUES (5, 50)").unwrap();
        a.execute("TRUNCATE TABLE kv").unwrap();
        let err = b.commit().unwrap_err();
        assert!(matches!(err, DbError::WriteConflict(_)), "{err}");
    }

    /// Reads stay table-granular: a snapshot read of a table invalidates
    /// against even a commuting insert into it (the replayed transaction
    /// must see exactly the table states its fork saw).
    #[test]
    fn reads_invalidate_against_commuting_inserts() {
        let shared = seeded();
        let mut a = shared.session();
        let mut b = shared.session();
        a.begin().unwrap();
        a.execute("SELECT k, v FROM kv").unwrap();
        a.execute("INSERT INTO kv VALUES (7, 70)").unwrap();
        b.execute("INSERT INTO kv VALUES (8, 80)").unwrap();
        let err = a.commit().unwrap_err();
        assert!(matches!(err, DbError::WriteConflict(_)), "{err}");
    }

    /// `insert_rows` batches ride the same key-granular path as SQL
    /// inserts, in transactions and in autocommit.
    #[test]
    fn insert_rows_batches_commute() {
        let shared = seeded();
        let mut a = shared.session();
        let mut b = shared.session();
        a.begin().unwrap();
        b.begin().unwrap();
        let rows_a: Vec<Tuple> = (0..10)
            .map(|i| vec![Value::Int(100 + i), Value::Int(i)])
            .collect();
        let rows_b: Vec<Tuple> = (0..10)
            .map(|i| vec![Value::Int(200 + i), Value::Int(i)])
            .collect();
        assert_eq!(a.insert_rows("kv", rows_a).unwrap(), 10);
        assert_eq!(b.insert_rows("kv", rows_b).unwrap(), 10);
        a.commit().unwrap();
        b.commit().expect("disjoint insert_rows batches commute");
        let mut check = shared.session();
        assert_eq!(dump(&mut check).len(), 22);
    }

    fn kv(k: i64, v: i64) -> Tuple {
        vec![Value::Int(k), Value::Int(v)]
    }

    /// `insert_absent` reads no table: two overlapping transactions
    /// staging disjoint rows into one table both commit.
    #[test]
    fn insert_absent_of_disjoint_rows_commutes() {
        let shared = seeded();
        let mut a = shared.session();
        let mut b = shared.session();
        a.begin().unwrap();
        b.begin().unwrap();
        assert_eq!(
            a.insert_absent("kv", vec![kv(3, 30), kv(1, 10)]).unwrap(),
            1
        );
        assert_eq!(
            b.insert_absent("kv", vec![kv(4, 40), kv(2, 20)]).unwrap(),
            1
        );
        a.commit().unwrap();
        b.commit().expect("disjoint staged rows commute");
        assert_eq!(a.conflicts() + b.conflicts(), 0);
        assert_eq!(dump(&mut shared.session()).len(), 4);
    }

    /// Staging a row another transaction inserted since the snapshot
    /// conflicts; the retry finds it present and stores nothing.
    #[test]
    fn insert_absent_of_the_same_row_conflicts_then_stores_nothing() {
        let shared = seeded();
        let mut a = shared.session();
        let mut b = shared.session();
        a.begin().unwrap();
        b.begin().unwrap();
        assert_eq!(a.insert_absent("kv", vec![kv(3, 30)]).unwrap(), 1);
        assert_eq!(b.insert_absent("kv", vec![kv(3, 30)]).unwrap(), 1);
        a.commit().unwrap();
        let err = b.commit().unwrap_err();
        assert!(
            matches!(&err, DbError::WriteConflict(m) if m.contains("overlapping key")),
            "{err}"
        );
        b.begin().unwrap();
        assert_eq!(b.insert_absent("kv", vec![kv(3, 30)]).unwrap(), 0);
        b.commit().unwrap();
        assert_eq!(dump(&mut b).len(), 3, "the row is stored once");
    }

    /// A row that was present at the snapshot is skipped; a concurrent
    /// `DELETE` of it makes the commit conflict (the skip would otherwise
    /// lose the row), and the retry stores it.
    #[test]
    fn a_concurrent_delete_of_a_skipped_row_conflicts() {
        let shared = seeded();
        let mut a = shared.session();
        let mut b = shared.session();
        b.begin().unwrap();
        assert_eq!(b.insert_absent("kv", vec![kv(1, 10)]).unwrap(), 0);
        a.execute("DELETE FROM kv WHERE k = 1").unwrap();
        let err = b.commit().unwrap_err();
        assert!(matches!(err, DbError::WriteConflict(_)), "{err}");
        b.begin().unwrap();
        assert_eq!(b.insert_absent("kv", vec![kv(1, 10)]).unwrap(), 1);
        b.commit().unwrap();
        assert_eq!(dump(&mut b), vec![kv(1, 10), kv(2, 20)]);
    }

    /// Past [`KEY_HISTORY_CAP`] keys the history prunes, and a staged row
    /// whose snapshot predates the pruned floor conflicts even though no
    /// one touched it; on the fresh snapshot it commits.
    #[test]
    fn insert_absent_behind_the_pruned_floor_conflicts_then_commits() {
        let shared = seeded();
        let mut a = shared.session();
        let mut rival = shared.session();
        a.begin().unwrap();
        assert_eq!(a.insert_absent("kv", vec![kv(-1, -1)]).unwrap(), 1);
        let bulk = (0..=KEY_HISTORY_CAP as i64).map(|i| kv(1000 + i, 0));
        rival.insert_rows("kv", bulk.collect()).unwrap();
        let err = a.commit().unwrap_err();
        assert!(
            matches!(&err, DbError::WriteConflict(m) if m.contains("key history was pruned")),
            "{err}"
        );
        a.begin().unwrap();
        assert_eq!(a.insert_absent("kv", vec![kv(-1, -1)]).unwrap(), 1);
        a.commit().unwrap();
        assert_eq!(dump(&mut a).len(), 2 + KEY_HISTORY_CAP + 1 + 1);
    }

    /// In autocommit each call is a transaction of its own.
    #[test]
    fn insert_absent_autocommits() {
        let shared = seeded();
        let mut s = shared.session();
        assert_eq!(
            s.insert_absent("kv", vec![kv(5, 50), kv(5, 50)]).unwrap(),
            1
        );
        assert_eq!(s.insert_absent("kv", vec![kv(5, 50)]).unwrap(), 0);
        assert!(matches!(
            s.insert_absent("nosuch", vec![kv(1, 1)]),
            Err(DbError::NoSuchTable(_))
        ));
        assert_eq!(dump(&mut shared.session()).len(), 3);
        assert_eq!(s.commits(), 2);
    }

    /// A pruned key history fails conservative, never unsound: after the
    /// FIFO cap evicts entries, an insert from a pre-pruning snapshot
    /// conflicts even with keys nobody touched.
    #[test]
    fn pruned_key_history_is_conservative() {
        let mut h = TableHistory::default();
        let keys: BTreeSet<Tuple> = (0..KEY_HISTORY_CAP as i64 + 10)
            .map(|i| vec![Value::Int(i)])
            .collect();
        h.record_keys(&keys, 5);
        assert!(h.pruned_floor >= 5, "cap exceeded, floor must rise");
        assert!(h.keys.len() <= KEY_HISTORY_CAP);
    }

    #[test]
    fn read_set_participates_in_validation() {
        let shared = seeded();
        let mut db = shared.session();
        db.execute("CREATE TABLE sums (total int)").unwrap();
        let mut a = shared.session();
        let mut b = shared.session();
        a.begin().unwrap();
        // a reads kv, then writes a derived value into sums.
        a.execute("SELECT k, v FROM kv").unwrap();
        a.execute("INSERT INTO sums VALUES (30)").unwrap();
        // b commits a change to kv first: a's read is now stale.
        b.execute("INSERT INTO kv VALUES (9, 90)").unwrap();
        let err = a.commit().unwrap_err();
        assert!(matches!(err, DbError::WriteConflict(_)));
    }

    #[test]
    fn disjoint_tables_commit_without_conflict() {
        let shared = seeded();
        let mut setup = shared.session();
        setup.execute("CREATE TABLE other (x int)").unwrap();
        let mut a = shared.session();
        let mut b = shared.session();
        a.begin().unwrap();
        b.begin().unwrap();
        a.execute("INSERT INTO kv VALUES (5, 50)").unwrap();
        b.execute("INSERT INTO other VALUES (1)").unwrap();
        a.commit().unwrap();
        b.commit().unwrap();
        assert_eq!(a.conflicts() + b.conflicts(), 0);
    }

    #[test]
    fn poisoned_transaction_requires_rollback() {
        let shared = seeded();
        let mut s = shared.session();
        s.begin().unwrap();
        assert!(s.execute("INSERT INTO nosuch VALUES (1)").is_err());
        assert!(matches!(
            s.execute("SELECT k FROM kv"),
            Err(DbError::Txn(_))
        ));
        assert!(matches!(s.commit(), Err(DbError::Txn(_))));
        // After the failed commit the session is usable again.
        assert_eq!(dump(&mut s).len(), 2);
    }

    #[test]
    fn group_commit_batches_fsyncs_under_contention() {
        let shared = seeded();
        const SESSIONS: usize = 4;
        const TXNS: usize = 25;
        std::thread::scope(|scope| {
            for t in 0..SESSIONS {
                let shared = shared.clone();
                scope.spawn(move || {
                    let mut s = shared.session();
                    for i in 0..TXNS {
                        let k = 1000 + (t * TXNS + i) as i64;
                        s.execute(&format!("INSERT INTO kv VALUES ({k}, 0)"))
                            .unwrap();
                    }
                });
            }
        });
        let m = shared.metrics();
        let commits = SESSIONS as u64 * TXNS as u64;
        let fsyncs = m.counter_value("wal.fsyncs");
        assert_eq!(m.counter_value("wal.group_committed_txns"), commits);
        assert!(
            fsyncs <= commits,
            "group commit must never fsync more than once per commit \
             ({fsyncs} fsyncs for {commits} commits)"
        );
        let mut check = shared.session();
        assert_eq!(dump(&mut check).len(), 2 + commits as usize);
    }

    #[test]
    fn session_metrics_are_labelled() {
        let shared = seeded();
        let mut s = shared.session();
        let id = s.id();
        dump(&mut s);
        let m = s.metrics();
        assert!(m.counter_value(&format!("session{id}.exec.tuples_scanned")) > 0);
    }
}
