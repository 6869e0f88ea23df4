//! The simulated disk.
//!
//! The paper's testbed ran against a disk-based commercial DBMS. We model
//! the disk as an in-memory collection of paged files with explicit read and
//! write accounting, so experiments can report deterministic "physical I/O"
//! counts alongside wall-clock time. Every transfer moves a whole
//! [`crate::page::PAGE_SIZE`] page, exactly as a buffer manager
//! over a real disk would.
//!
//! Two subsystems are layered directly on the physical I/O path:
//!
//! * a **write-ahead log** ([`crate::wal`]): while a transaction is active,
//!   every physical page write is preceded by a logged before/after image,
//!   and structural changes (page allocation, file create/drop) are logged
//!   too, so [`Disk::recover_wal`] can redo committed work and undo
//!   uncommitted work after a crash;
//! * a **fault injector**: a deterministic crash/error model (fail after N
//!   writes, torn half-page writes, torn WAL tails, transient read errors)
//!   used by the crash-point sweep tests. When a fault fires the disk
//!   enters a *crashed* state and refuses all further I/O until recovery,
//!   the moral equivalent of pulling the power cord.
//!
//! Both are strictly opt-in: with no WAL enabled and no injector armed,
//! the I/O path is byte-for-byte the original one.

use crate::catalog::DbError;
use crate::page::PAGE_SIZE;
use crate::wal::{TxnId, Wal, WalRecord};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Identifies a file on the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// Identifies a page within a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

/// Page buffer: pages are shared copy-on-write between a disk and its
/// [`Disk::fork`] snapshots, so a fork is O(pages) pointer copies and a
/// write to either side clones only the page it touches.
type PageBuf = Arc<Vec<u8>>;

/// Cumulative physical I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    pub pages_read: u64,
    pub pages_written: u64,
    pub pages_allocated: u64,
    /// Pages physically cloned because a write hit a page still shared
    /// with a snapshot fork (the copy-on-write cost of MVCC reads).
    pub pages_cow: u64,
    /// Durable WAL flushes. Without group commit every commit is one
    /// fsync; with it a single fsync can cover a whole commit batch.
    pub fsyncs: u64,
    /// Fsyncs that covered more than one committed transaction.
    pub group_commits: u64,
    /// Transactions whose commit was made durable by a shared fsync
    /// (every deferred-fsync commit, batched or not).
    pub group_committed_txns: u64,
    /// WAL records appended (0 unless a transaction ran with WAL on).
    pub wal_records: u64,
    /// Total bytes appended to the WAL.
    pub wal_bytes: u64,
    /// Checkpoints (whole-log truncations) taken by the WAL.
    pub wal_checkpoints: u64,
    /// Peak WAL size in bytes ever reached between checkpoints.
    pub wal_high_water_bytes: u64,
    /// Reads that hit a transient fault and were retried.
    pub read_retries: u64,
    /// Writes the injector tore in half before crashing the disk.
    pub torn_writes: u64,
    /// Total faults the injector fired.
    pub injected_faults: u64,
}

/// How many times a transient read error is retried before giving up.
const READ_RETRY_LIMIT: u32 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteFault {
    None,
    /// Crash before the page write takes effect.
    Fail,
    /// Write a prefix of the page, then crash.
    Torn,
}

/// Deterministic fault model for crash testing. All decisions derive from
/// the configuration and an internal xorshift stream, so a given seed or
/// explicit setting reproduces the identical fault sequence every run.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// Crash when this many page writes have been attempted (the N+1-th
    /// write fires the fault). Counts data-page writes and the commit
    /// record append, so a sweep over N covers every crash point of a
    /// transaction including "during commit".
    fail_after_writes: Option<u64>,
    /// When the crash fires on a data page, write a random-length prefix
    /// of it first (a torn page) instead of dropping the write entirely.
    torn_writes: bool,
    /// When the crash fires, also tear this many bytes off the WAL tail
    /// (simulates the crash landing mid-append of the log record).
    wal_tear_bytes: Option<usize>,
    /// Every Nth read fails transiently (succeeds when retried).
    transient_read_every: Option<u64>,
    /// When this many page writes have been attempted, set `cancel_flag`
    /// instead of crashing: models an operator hitting cancel while the
    /// engine is mid-write. Independent of `fail_after_writes` — a
    /// schedule can arm both.
    cancel_after_writes: Option<u64>,
    /// The cooperative cancellation flag to set (a clone of
    /// `Engine::cancel_handle`).
    cancel_flag: Option<Arc<AtomicBool>>,
    writes_seen: u64,
    reads_seen: u64,
    rng: u64,
}

impl FaultInjector {
    /// An injector with no faults armed; combine with the builder methods.
    pub fn new() -> FaultInjector {
        FaultInjector {
            fail_after_writes: None,
            torn_writes: false,
            wal_tear_bytes: None,
            transient_read_every: None,
            cancel_after_writes: None,
            cancel_flag: None,
            writes_seen: 0,
            reads_seen: 0,
            rng: 0x9E37_79B9_97F4_A7C1,
        }
    }

    /// Derive a full fault plan deterministically from a seed: a crash
    /// point in `[0, 64)`, torn or clean, with or without a WAL tear.
    pub fn from_seed(seed: u64) -> FaultInjector {
        let mut x = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x9E37_79B9_97F4_A7C1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let fail_after = next() % 64;
        let torn = next() & 1 == 1;
        let wal_tear = if next() & 1 == 1 {
            Some((next() % 512 + 1) as usize)
        } else {
            None
        };
        let mut inj = FaultInjector::new()
            .fail_after_writes(fail_after)
            .torn_writes(torn);
        if let Some(bytes) = wal_tear {
            inj = inj.tear_wal_tail(bytes);
        }
        inj.rng = seed | 1;
        inj
    }

    pub fn fail_after_writes(mut self, n: u64) -> FaultInjector {
        self.fail_after_writes = Some(n);
        self
    }

    pub fn torn_writes(mut self, on: bool) -> FaultInjector {
        self.torn_writes = on;
        self
    }

    pub fn tear_wal_tail(mut self, bytes: usize) -> FaultInjector {
        self.wal_tear_bytes = Some(bytes);
        self
    }

    pub fn transient_read_every(mut self, n: u64) -> FaultInjector {
        assert!(n > 0, "transient read period must be positive");
        self.transient_read_every = Some(n);
        self
    }

    /// Arm a cancellation at the `n`-th page-write attempt: when it
    /// fires, `flag` (a clone of the engine's cancel handle) is set and
    /// the write itself proceeds normally. Sweeping `n` over a
    /// transaction's write points exercises "the user hit cancel at
    /// every possible moment" without the disk ever crashing.
    pub fn cancel_at_write(mut self, n: u64, flag: Arc<AtomicBool>) -> FaultInjector {
        self.cancel_after_writes = Some(n);
        self.cancel_flag = Some(flag);
        self
    }

    fn next_rand(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    fn on_write(&mut self) -> WriteFault {
        let seen = self.writes_seen;
        self.writes_seen += 1;
        if let (Some(n), Some(flag)) = (self.cancel_after_writes, self.cancel_flag.as_ref()) {
            if seen >= n {
                flag.store(true, Ordering::Relaxed);
            }
        }
        match self.fail_after_writes {
            Some(n) if seen >= n => {
                if self.torn_writes {
                    WriteFault::Torn
                } else {
                    WriteFault::Fail
                }
            }
            _ => WriteFault::None,
        }
    }

    /// Whether this read fails transiently (a retry will re-roll).
    fn on_read(&mut self) -> bool {
        self.reads_seen += 1;
        match self.transient_read_every {
            Some(n) => self.reads_seen.is_multiple_of(n),
            None => false,
        }
    }

    /// Length of the prefix written for a torn page: at least 1 byte,
    /// strictly less than a full page, around half on average.
    fn torn_prefix_len(&mut self) -> usize {
        1 + (self.next_rand() as usize) % (PAGE_SIZE - 1)
    }
}

impl Default for FaultInjector {
    fn default() -> FaultInjector {
        FaultInjector::new()
    }
}

/// Summary of what [`Disk::recover_wal`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed transactions whose effects were replayed.
    pub committed_replayed: usize,
    /// Uncommitted transactions whose effects were undone.
    pub rolled_back: usize,
    pub pages_redone: u64,
    pub pages_undone: u64,
    /// A CRC-invalid or truncated log tail was discarded.
    pub torn_tail_discarded: bool,
}

/// An in-memory paged "disk". Files are append-only collections of pages;
/// dropping a file releases its pages immediately — except during a
/// transaction, where drops are deferred to commit so rollback can
/// resurrect the file.
#[derive(Default)]
pub struct Disk {
    files: Vec<Option<Vec<PageBuf>>>,
    stats: DiskStats,
    wal: Option<Wal>,
    active_txn: Option<TxnId>,
    next_txn: TxnId,
    deferred_drops: Vec<FileId>,
    injector: Option<FaultInjector>,
    crashed: bool,
    /// Commits whose durability fsync was deferred to the group-commit
    /// leader (see [`Disk::set_defer_fsync`] / [`Disk::fsync_wal`]).
    pending_fsync_commits: u64,
    /// When set, `commit_txn` does not count an fsync of its own; the
    /// session layer's commit leader calls [`Disk::fsync_wal`] once per
    /// drained batch instead.
    defer_fsync: bool,
    /// Clearing the WAL at commit (checkpointing) is what every engine
    /// does; this module's redo test turns it off to keep committed
    /// records around for replay.
    checkpoint_on_commit: bool,
}

impl Disk {
    pub fn new() -> Disk {
        Disk {
            checkpoint_on_commit: true,
            ..Disk::default()
        }
    }

    /// A copy-on-write snapshot of every live file. Pages are shared by
    /// `Arc`, so the fork costs O(#pages) pointer copies; the first write
    /// to a shared page — on either side — clones just that page
    /// (counted in [`DiskStats::pages_cow`]). The fork carries no WAL,
    /// no injector, and no transaction state: snapshots are read-mostly
    /// scratch space (MVCC readers), never a durability domain.
    ///
    /// Must not be called mid-transaction: the snapshot would see
    /// uncommitted page images.
    pub fn fork(&self) -> Disk {
        debug_assert!(
            self.active_txn.is_none(),
            "fork during an active transaction would snapshot uncommitted writes"
        );
        Disk {
            files: self.files.clone(),
            ..Disk::new()
        }
    }

    /// Number of live (non-dropped, non-deferred-dropped) file slots.
    /// Spill-file accounting: an aborted statement must return this to
    /// its pre-statement value once its spill streams are cleaned up.
    pub fn live_files(&self) -> usize {
        self.files.iter().filter(|f| f.is_some()).count()
    }

    // ------------------------------------------------------------------
    // Durability / fault-injection configuration
    // ------------------------------------------------------------------

    /// Turn on write-ahead logging. Idempotent; transactions require it.
    pub fn enable_wal(&mut self) {
        if self.wal.is_none() {
            self.wal = Some(Wal::new());
        }
    }

    pub fn wal_enabled(&self) -> bool {
        self.wal.is_some()
    }

    /// The current log, when WAL is enabled (tests inspect it).
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    pub fn clear_fault_injector(&mut self) {
        self.injector = None;
    }

    /// Whether a previously injected fault has "powered off" the disk.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Defer per-commit durability flushes to an explicit
    /// [`Disk::fsync_wal`] call (the group-commit path). Off by default:
    /// every commit then counts one fsync of its own.
    pub fn set_defer_fsync(&mut self, on: bool) {
        self.defer_fsync = on;
    }

    /// Flush the WAL once on behalf of every commit since the last
    /// flush. Returns the number of commits this fsync made durable.
    pub fn fsync_wal(&mut self) -> u64 {
        let n = self.pending_fsync_commits;
        if n > 0 {
            self.stats.fsyncs += 1;
            self.stats.group_committed_txns += n;
            if n > 1 {
                self.stats.group_commits += 1;
            }
            self.pending_fsync_commits = 0;
        }
        n
    }

    fn check_crashed(&self) -> Result<(), DbError> {
        if self.crashed {
            Err(DbError::Io(
                "disk is in crashed state after an injected fault; run recovery".into(),
            ))
        } else {
            Ok(())
        }
    }

    /// Enter the crashed state and report the fault as an I/O error.
    fn crash(&mut self, what: &str) -> DbError {
        self.crashed = true;
        self.stats.injected_faults += 1;
        DbError::Io(format!("injected fault: {what}"))
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin a transaction. Requires WAL; nested transactions are not
    /// supported.
    pub fn begin_txn(&mut self) -> Result<TxnId, DbError> {
        self.check_crashed()?;
        if self.wal.is_none() {
            return Err(DbError::Txn("begin_txn requires WAL to be enabled".into()));
        }
        if self.active_txn.is_some() {
            return Err(DbError::Txn("a transaction is already active".into()));
        }
        self.next_txn += 1;
        let txn = self.next_txn;
        self.active_txn = Some(txn);
        self.wal_append(WalRecord::Begin { txn });
        Ok(txn)
    }

    pub fn in_txn(&self) -> bool {
        self.active_txn.is_some()
    }

    /// Commit the active transaction: log the commit record (itself a
    /// crash point for the injector), apply deferred file drops, and
    /// checkpoint the log.
    pub fn commit_txn(&mut self) -> Result<(), DbError> {
        self.check_crashed()?;
        let txn = self
            .active_txn
            .ok_or_else(|| DbError::Txn("commit without an active transaction".into()))?;
        // The commit-record append is one more write point in the sweep:
        // a crash here must leave the transaction uncommitted.
        let commit_fault = self
            .injector
            .as_mut()
            .map(|inj| (inj.on_write(), inj.wal_tear_bytes.unwrap_or(1)));
        if let Some((fault, tear)) = commit_fault {
            if fault != WriteFault::None {
                self.wal_append(WalRecord::Commit { txn });
                if let Some(wal) = self.wal.as_mut() {
                    wal.tear_tail(tear);
                }
                return Err(self.crash("crash while appending commit record"));
            }
        }
        self.wal_append(WalRecord::Commit { txn });
        // The commit record is only durable once flushed; group commit
        // defers the flush so one fsync can cover a batch of commits.
        if self.defer_fsync {
            self.pending_fsync_commits += 1;
        } else {
            self.stats.fsyncs += 1;
        }
        let drops = std::mem::take(&mut self.deferred_drops);
        for file in drops {
            self.drop_file_now(file);
        }
        self.active_txn = None;
        if self.checkpoint_on_commit {
            if let Some(wal) = self.wal.as_mut() {
                wal.clear();
            }
        }
        Ok(())
    }

    /// Roll back the active transaction using WAL before-images. Only
    /// valid on a healthy disk; a crashed disk must go through
    /// [`Disk::recover_wal`] instead.
    pub fn rollback_txn(&mut self) -> Result<(), DbError> {
        self.check_crashed()?;
        let txn = self
            .active_txn
            .ok_or_else(|| DbError::Txn("rollback without an active transaction".into()))?;
        let records: Vec<WalRecord> = self
            .wal
            .as_ref()
            .map(|w| w.scan().records)
            .unwrap_or_default()
            .into_iter()
            .filter(|r| r.txn() == txn)
            .collect();
        self.undo_records(&records);
        self.deferred_drops.clear();
        self.active_txn = None;
        if let Some(wal) = self.wal.as_mut() {
            wal.clear();
        }
        Ok(())
    }

    /// Crash recovery: disarm the injector, scan the log (discarding any
    /// torn tail), redo every committed transaction's effects in order,
    /// undo every uncommitted transaction's effects in reverse, then
    /// checkpoint. The caller is responsible for discarding cached pages
    /// and rebuilding volatile (in-memory) state afterwards.
    pub fn recover_wal(&mut self) -> Result<RecoveryReport, DbError> {
        self.crashed = false;
        self.injector = None;
        let mut report = RecoveryReport::default();
        let Some(wal) = self.wal.as_ref() else {
            self.active_txn = None;
            self.deferred_drops.clear();
            return Ok(report);
        };
        let scan = wal.scan();
        report.torn_tail_discarded = scan.torn_tail;
        let committed: std::collections::BTreeSet<TxnId> = scan
            .records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Commit { txn } => Some(*txn),
                _ => None,
            })
            .collect();
        let begun: std::collections::BTreeSet<TxnId> = scan
            .records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Begin { txn } => Some(*txn),
                _ => None,
            })
            .collect();

        // Redo committed transactions in log order.
        let mut deferred: Vec<FileId> = Vec::new();
        for rec in scan.records.iter().filter(|r| committed.contains(&r.txn())) {
            match rec {
                WalRecord::CreateFile { file, .. } => {
                    self.ensure_file_slot(*file);
                }
                WalRecord::Alloc { file, .. } => {
                    self.ensure_file_slot(*file);
                    self.file_mut(*file).push(Arc::new(vec![0u8; PAGE_SIZE]));
                }
                WalRecord::Write {
                    file, page, after, ..
                } => {
                    self.ensure_file_slot(*file);
                    let pages = self.file_mut(*file);
                    while pages.len() <= page.0 as usize {
                        pages.push(Arc::new(vec![0u8; PAGE_SIZE]));
                    }
                    pages[page.0 as usize] = Arc::new(after.to_vec());
                    report.pages_redone += 1;
                }
                WalRecord::DropFile { file, .. } => deferred.push(*file),
                WalRecord::Begin { .. } | WalRecord::Commit { .. } => {}
            }
        }
        for file in deferred {
            self.drop_file_now(file);
        }
        report.committed_replayed = committed.len();

        // Undo uncommitted transactions in reverse log order.
        let uncommitted: Vec<WalRecord> = scan
            .records
            .iter()
            .filter(|r| !committed.contains(&r.txn()))
            .cloned()
            .collect();
        report.pages_undone = self.undo_records(&uncommitted);
        report.rolled_back = begun.iter().filter(|t| !committed.contains(t)).count();

        self.deferred_drops.clear();
        self.active_txn = None;
        if let Some(wal) = self.wal.as_mut() {
            wal.clear();
        }
        Ok(report)
    }

    /// Apply before-images / structural undos in reverse order. Returns
    /// the number of pages restored.
    fn undo_records(&mut self, records: &[WalRecord]) -> u64 {
        let mut pages_undone = 0;
        for rec in records.iter().rev() {
            match rec {
                WalRecord::Write {
                    file, page, before, ..
                } => {
                    if let Some(Some(pages)) = self.files.get_mut(file.0 as usize) {
                        if let Some(slot) = pages.get_mut(page.0 as usize) {
                            *slot = Arc::new(before.to_vec());
                            pages_undone += 1;
                        }
                    }
                }
                WalRecord::Alloc { file, .. } => {
                    // Reverse order guarantees the last allocation of each
                    // file is undone first, so popping is exact.
                    if let Some(Some(pages)) = self.files.get_mut(file.0 as usize) {
                        pages.pop();
                    }
                }
                WalRecord::CreateFile { file, .. } => {
                    self.drop_file_now(*file);
                }
                // Drops were deferred, so there is nothing to undo.
                WalRecord::DropFile { .. } | WalRecord::Begin { .. } | WalRecord::Commit { .. } => {
                }
            }
        }
        pages_undone
    }

    fn wal_append(&mut self, rec: WalRecord) {
        if let Some(wal) = self.wal.as_mut() {
            let before = wal.byte_len();
            wal.append(&rec);
            self.stats.wal_records += 1;
            self.stats.wal_bytes += (wal.byte_len() - before) as u64;
        }
    }

    fn ensure_file_slot(&mut self, file: FileId) {
        let idx = file.0 as usize;
        if self.files.len() <= idx {
            self.files.resize_with(idx + 1, || None);
        }
        if self.files[idx].is_none() {
            self.files[idx] = Some(Vec::new());
        }
    }

    // ------------------------------------------------------------------
    // Files and pages
    // ------------------------------------------------------------------

    /// Create a new empty file.
    pub fn create_file(&mut self) -> FileId {
        // Reuse the slot of a previously dropped file if any, so long
        // sessions do not grow the file table without bound. Slots with a
        // pending deferred drop are still live and must not be reused.
        let reusable = self
            .files
            .iter()
            .enumerate()
            .position(|(i, f)| f.is_none() && !self.deferred_drops.contains(&FileId(i as u32)));
        let id = if let Some(idx) = reusable {
            self.files[idx] = Some(Vec::new());
            FileId(idx as u32)
        } else {
            self.files.push(Some(Vec::new()));
            FileId((self.files.len() - 1) as u32)
        };
        if let Some(txn) = self.active_txn {
            self.wal_append(WalRecord::CreateFile { txn, file: id });
        }
        id
    }

    /// Drop a file and all its pages. Inside a transaction the drop is
    /// deferred to commit (and cancelled by rollback); outside one it is
    /// immediate.
    pub fn drop_file(&mut self, file: FileId) {
        if let Some(txn) = self.active_txn {
            self.wal_append(WalRecord::DropFile { txn, file });
            self.deferred_drops.push(file);
        } else {
            self.drop_file_now(file);
        }
    }

    fn drop_file_now(&mut self, file: FileId) {
        if let Some(slot) = self.files.get_mut(file.0 as usize) {
            *slot = None;
        }
    }

    /// Discard every page of `file` but keep the file itself alive (the
    /// TRUNCATE fast path). Truncation is not WAL-logged, so callers must
    /// not invoke this inside a transaction — the engine falls back to
    /// logged per-row deletes there.
    pub fn truncate_file(&mut self, file: FileId) -> Result<(), DbError> {
        self.check_crashed()?;
        debug_assert!(
            self.active_txn.is_none(),
            "truncate_file is not transactional"
        );
        self.file_mut(file).clear();
        Ok(())
    }

    fn file(&self, file: FileId) -> &Vec<PageBuf> {
        self.files[file.0 as usize]
            .as_ref()
            .expect("access to dropped file")
    }

    fn file_mut(&mut self, file: FileId) -> &mut Vec<PageBuf> {
        self.files[file.0 as usize]
            .as_mut()
            .expect("access to dropped file")
    }

    /// Mutable bytes of a page, cloning it first (copy-on-write) if it
    /// is still shared with a [`Disk::fork`] snapshot.
    fn page_mut(&mut self, file: FileId, page: PageId) -> &mut Vec<u8> {
        let slot = &mut self.files[file.0 as usize]
            .as_mut()
            .expect("access to dropped file")[page.0 as usize];
        if Arc::get_mut(slot).is_none() {
            self.stats.pages_cow += 1;
        }
        Arc::make_mut(slot)
    }

    /// Append a zeroed page to `file`.
    pub fn allocate_page(&mut self, file: FileId) -> Result<PageId, DbError> {
        self.check_crashed()?;
        if let Some(txn) = self.active_txn {
            self.wal_append(WalRecord::Alloc { txn, file });
        }
        self.stats.pages_allocated += 1;
        let pages = self.file_mut(file);
        pages.push(Arc::new(vec![0u8; PAGE_SIZE]));
        Ok(PageId((pages.len() - 1) as u32))
    }

    /// Number of pages currently allocated to `file`.
    pub fn page_count(&self, file: FileId) -> u32 {
        self.file(file).len() as u32
    }

    /// Read a page into `out`. Transient injected faults are retried up
    /// to `READ_RETRY_LIMIT` times before surfacing as an error.
    pub fn read_page(&mut self, file: FileId, page: PageId, out: &mut [u8]) -> Result<(), DbError> {
        self.check_crashed()?;
        let mut attempts = 0;
        while self.injector.as_mut().is_some_and(FaultInjector::on_read) {
            self.stats.read_retries += 1;
            attempts += 1;
            if attempts > READ_RETRY_LIMIT {
                return Err(DbError::Io(format!(
                    "read of file {} page {} failed after {} retries",
                    file.0, page.0, READ_RETRY_LIMIT
                )));
            }
        }
        self.stats.pages_read += 1;
        out.copy_from_slice(&self.file(file)[page.0 as usize]);
        Ok(())
    }

    /// Write a page from `data`. While a transaction is active the write
    /// is logged (before + after image) ahead of touching the page.
    pub fn write_page(&mut self, file: FileId, page: PageId, data: &[u8]) -> Result<(), DbError> {
        self.check_crashed()?;
        if self.wal.is_some() {
            if let Some(txn) = self.active_txn {
                let before: Box<[u8]> = self.file(file)[page.0 as usize].as_slice().into();
                self.wal_append(WalRecord::Write {
                    txn,
                    file,
                    page,
                    before,
                    after: data.into(),
                });
            }
        }
        let fault = match self.injector.as_mut() {
            None => None,
            Some(inj) => match inj.on_write() {
                WriteFault::None => None,
                WriteFault::Fail => Some((WriteFault::Fail, inj.wal_tear_bytes, 0)),
                WriteFault::Torn => {
                    let n = inj.torn_prefix_len();
                    Some((WriteFault::Torn, None, n))
                }
            },
        };
        match fault {
            None => {}
            Some((WriteFault::Fail, wal_tear, _)) => {
                // The crash may also land mid-append of the WAL record
                // for this very write: tear the tail so recovery sees
                // a CRC-invalid suffix. The page itself is untouched,
                // which is exactly what a torn log implies.
                if let Some(bytes) = wal_tear {
                    if self.active_txn.is_some() {
                        if let Some(wal) = self.wal.as_mut() {
                            wal.tear_tail(bytes);
                        }
                    }
                }
                return Err(self.crash("crash before page write"));
            }
            Some((_, _, n)) => {
                self.stats.torn_writes += 1;
                self.page_mut(file, page)[..n].copy_from_slice(&data[..n]);
                return Err(self.crash("torn page write"));
            }
        }
        self.stats.pages_written += 1;
        self.page_mut(file, page).copy_from_slice(data);
        Ok(())
    }

    pub fn stats(&self) -> DiskStats {
        let mut s = self.stats;
        if let Some(wal) = self.wal.as_ref() {
            s.wal_checkpoints = wal.checkpoint_count();
            s.wal_high_water_bytes = wal.high_water_bytes() as u64;
        }
        s
    }

    /// Whether `file` still exists.
    pub fn file_exists(&self, file: FileId) -> bool {
        matches!(self.files.get(file.0 as usize), Some(Some(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_of(fill: u8) -> Vec<u8> {
        vec![fill; PAGE_SIZE]
    }

    #[test]
    fn create_allocate_read_write() {
        let mut disk = Disk::new();
        let f = disk.create_file();
        let p = disk.allocate_page(f).unwrap();
        assert_eq!(disk.page_count(f), 1);

        let mut data = vec![0u8; PAGE_SIZE];
        data[0] = 0xAB;
        disk.write_page(f, p, &data).unwrap();

        let mut out = vec![0u8; PAGE_SIZE];
        disk.read_page(f, p, &mut out).unwrap();
        assert_eq!(out[0], 0xAB);

        let s = disk.stats();
        assert_eq!(s.pages_allocated, 1);
        assert_eq!(s.pages_read, 1);
        assert_eq!(s.pages_written, 1);
        assert_eq!(s.wal_records, 0, "no WAL traffic without a transaction");
    }

    #[test]
    fn file_ids_are_reused_after_drop() {
        let mut disk = Disk::new();
        let f0 = disk.create_file();
        let f1 = disk.create_file();
        assert_ne!(f0, f1);
        disk.drop_file(f0);
        assert!(!disk.file_exists(f0));
        assert!(disk.file_exists(f1));
        let f2 = disk.create_file();
        assert_eq!(f2, f0, "dropped slot is reused");
        assert_eq!(disk.page_count(f2), 0, "reused file starts empty");
    }

    #[test]
    #[should_panic(expected = "dropped file")]
    fn access_to_dropped_file_panics() {
        let mut disk = Disk::new();
        let f = disk.create_file();
        disk.drop_file(f);
        let _ = disk.allocate_page(f);
    }

    #[test]
    fn pages_are_zeroed_on_allocation() {
        let mut disk = Disk::new();
        let f = disk.create_file();
        let p = disk.allocate_page(f).unwrap();
        let mut out = vec![0xFFu8; PAGE_SIZE];
        disk.read_page(f, p, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn rollback_restores_before_images_and_structure() {
        let mut disk = Disk::new();
        disk.enable_wal();
        let f = disk.create_file();
        let p = disk.allocate_page(f).unwrap();
        disk.write_page(f, p, &page_of(1)).unwrap();

        disk.begin_txn().unwrap();
        disk.write_page(f, p, &page_of(2)).unwrap();
        let p2 = disk.allocate_page(f).unwrap();
        disk.write_page(f, p2, &page_of(3)).unwrap();
        let g = disk.create_file();
        disk.allocate_page(g).unwrap();
        disk.rollback_txn().unwrap();

        let mut out = page_of(0);
        disk.read_page(f, p, &mut out).unwrap();
        assert_eq!(out, page_of(1), "before-image restored");
        assert_eq!(disk.page_count(f), 1, "allocation undone");
        assert!(!disk.file_exists(g), "created file removed");
        assert!(!disk.in_txn());
        assert!(disk.wal().unwrap().is_empty());
    }

    #[test]
    fn commit_applies_deferred_drops_and_checkpoints() {
        let mut disk = Disk::new();
        disk.enable_wal();
        let doomed = disk.create_file();
        disk.begin_txn().unwrap();
        disk.drop_file(doomed);
        assert!(disk.file_exists(doomed), "drop deferred during txn");
        disk.commit_txn().unwrap();
        assert!(!disk.file_exists(doomed), "drop applied at commit");
        assert!(disk.wal().unwrap().is_empty(), "checkpoint cleared the log");
    }

    #[test]
    fn rollback_cancels_deferred_drop() {
        let mut disk = Disk::new();
        disk.enable_wal();
        let f = disk.create_file();
        let p = disk.allocate_page(f).unwrap();
        disk.write_page(f, p, &page_of(9)).unwrap();
        disk.begin_txn().unwrap();
        disk.drop_file(f);
        disk.rollback_txn().unwrap();
        assert!(disk.file_exists(f));
        let mut out = page_of(0);
        disk.read_page(f, p, &mut out).unwrap();
        assert_eq!(out, page_of(9));
    }

    #[test]
    fn redo_replays_committed_work_after_losing_data_writes() {
        let mut disk = Disk::new();
        disk.enable_wal();
        disk.checkpoint_on_commit = false;
        let f = disk.create_file();
        let p = disk.allocate_page(f).unwrap();
        disk.begin_txn().unwrap();
        disk.write_page(f, p, &page_of(7)).unwrap();
        disk.commit_txn().unwrap();

        // Simulate the media losing the data write after commit: smash
        // the page, then recover. Redo must restore the after-image.
        *Arc::make_mut(&mut disk.file_mut(f)[p.0 as usize]) = page_of(0);
        let report = disk.recover_wal().unwrap();
        assert_eq!(report.committed_replayed, 1);
        assert!(report.pages_redone >= 1);
        let mut out = page_of(0);
        disk.read_page(f, p, &mut out).unwrap();
        assert_eq!(out, page_of(7), "redo restored committed data");
    }

    #[test]
    fn crash_poisons_disk_until_recovery() {
        let mut disk = Disk::new();
        disk.enable_wal();
        let f = disk.create_file();
        let p = disk.allocate_page(f).unwrap();
        disk.write_page(f, p, &page_of(1)).unwrap();

        disk.set_fault_injector(FaultInjector::new().fail_after_writes(0));
        disk.begin_txn().unwrap();
        assert!(disk.write_page(f, p, &page_of(2)).is_err());
        assert!(disk.crashed());
        // Everything fails until recovery, including reads and rollback.
        let mut out = page_of(0);
        assert!(disk.read_page(f, p, &mut out).is_err());
        assert!(disk.rollback_txn().is_err());

        let report = disk.recover_wal().unwrap();
        assert_eq!(report.rolled_back, 1);
        assert!(!disk.crashed());
        disk.read_page(f, p, &mut out).unwrap();
        assert_eq!(out, page_of(1), "uncommitted write never became visible");
    }

    #[test]
    fn torn_page_write_is_undone_by_recovery() {
        let mut disk = Disk::new();
        disk.enable_wal();
        let f = disk.create_file();
        let p = disk.allocate_page(f).unwrap();
        disk.write_page(f, p, &page_of(1)).unwrap();

        disk.set_fault_injector(FaultInjector::new().fail_after_writes(0).torn_writes(true));
        disk.begin_txn().unwrap();
        assert!(disk.write_page(f, p, &page_of(2)).is_err());
        assert_eq!(disk.stats().torn_writes, 1);
        // The page now holds a mix of old and new bytes.
        disk.recover_wal().unwrap();
        let mut out = page_of(0);
        disk.read_page(f, p, &mut out).unwrap();
        assert_eq!(out, page_of(1), "torn write rolled back from before-image");
    }

    #[test]
    fn torn_wal_tail_is_discarded() {
        let mut disk = Disk::new();
        disk.enable_wal();
        let f = disk.create_file();
        let p = disk.allocate_page(f).unwrap();
        disk.write_page(f, p, &page_of(1)).unwrap();

        disk.set_fault_injector(FaultInjector::new().fail_after_writes(0).tear_wal_tail(100));
        disk.begin_txn().unwrap();
        assert!(disk.write_page(f, p, &page_of(2)).is_err());
        let report = disk.recover_wal().unwrap();
        assert!(report.torn_tail_discarded);
        let mut out = page_of(0);
        disk.read_page(f, p, &mut out).unwrap();
        assert_eq!(out, page_of(1));
    }

    #[test]
    fn transient_reads_retry_and_are_counted() {
        let mut disk = Disk::new();
        let f = disk.create_file();
        let p = disk.allocate_page(f).unwrap();
        disk.write_page(f, p, &page_of(5)).unwrap();
        disk.set_fault_injector(FaultInjector::new().transient_read_every(2));
        let mut out = page_of(0);
        for _ in 0..10 {
            disk.read_page(f, p, &mut out).unwrap();
            assert_eq!(out, page_of(5));
        }
        assert!(disk.stats().read_retries > 0);
        assert!(!disk.crashed(), "transient faults do not crash the disk");
    }

    #[test]
    fn seeded_injector_is_deterministic() {
        let a = FaultInjector::from_seed(1234);
        let b = FaultInjector::from_seed(1234);
        assert_eq!(a.fail_after_writes, b.fail_after_writes);
        assert_eq!(a.torn_writes, b.torn_writes);
        assert_eq!(a.wal_tear_bytes, b.wal_tear_bytes);
    }

    #[test]
    fn txn_misuse_is_reported() {
        let mut disk = Disk::new();
        assert!(
            matches!(disk.begin_txn(), Err(DbError::Txn(_))),
            "needs WAL"
        );
        disk.enable_wal();
        disk.begin_txn().unwrap();
        assert!(
            matches!(disk.begin_txn(), Err(DbError::Txn(_))),
            "no nesting"
        );
        disk.commit_txn().unwrap();
        assert!(matches!(disk.commit_txn(), Err(DbError::Txn(_))));
        assert!(matches!(disk.rollback_txn(), Err(DbError::Txn(_))));
    }

    #[test]
    fn cancel_at_write_sets_flag_without_crashing() {
        let flag = Arc::new(AtomicBool::new(false));
        let mut disk = Disk::new();
        let f = disk.create_file();
        let p = disk.allocate_page(f).unwrap();
        disk.set_fault_injector(FaultInjector::new().cancel_at_write(2, Arc::clone(&flag)));
        disk.write_page(f, p, &page_of(1)).unwrap();
        disk.write_page(f, p, &page_of(2)).unwrap();
        assert!(!flag.load(Ordering::Relaxed), "not yet at the write point");
        disk.write_page(f, p, &page_of(3)).unwrap();
        assert!(flag.load(Ordering::Relaxed), "third write set the flag");
        assert!(!disk.crashed(), "cancellation is not a crash");
        let mut out = page_of(0);
        disk.read_page(f, p, &mut out).unwrap();
        assert_eq!(out, page_of(3), "the cancelled-at write still landed");
    }
}
