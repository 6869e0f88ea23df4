//! The execution backend: where a session's database interactions run.
//!
//! The testbed paper couples one Knowledge Manager to one relational
//! engine. This module abstracts that coupling so a km [`Session`] can
//! run either on a *private* [`Engine`] (the paper's architecture — one
//! engine per experiment run, exact pre-backend behavior) or on a
//! [`DbSession`] over a *shared* MVCC engine (`SharedEngine`, DESIGN.md
//! §16/§17), letting N sessions compile, evaluate LFPs, and commit
//! workspaces against one live stored D/KB.
//!
//! Two channels make up the backend:
//!
//! * **The durable channel** (the [`Storage`] trait): every statement
//!   that reads or writes the stored D/KB — dictionary maintenance,
//!   rule storage, base-relation loads, the stored-update algorithm.
//!   On the private backend these hit the engine directly; on the
//!   shared backend they run on the session's MVCC snapshot *and* are
//!   recorded for validated replay at commit, so nothing bypasses
//!   first-committer-wins validation.
//!
//! * **The evaluation engine** ([`ExecBackend::eval_engine`]): where
//!   the embedded-SQL LFP loop runs. Evaluation only creates
//!   session-scratch temporaries (the namespaced `all_/new_/delta_`
//!   tables) and never writes durable state, so it runs on the private
//!   engine directly, or on the shared session's snapshot fork — an
//!   MVCC snapshot that never blocks and never observes other
//!   sessions' partial commits.
//!
//! [`Session`]: crate::session::Session

use crate::stored::KmError;
use rdbms::{DbError, DbSession, Engine, ResultSet, Schema, SharedEngine, Value};
use std::time::{Duration, Instant};

/// The durable-statement channel every stored-D/KB operation goes
/// through. Implemented by the raw [`Engine`] (the private backend, and
/// unit tests that drive [`crate::stored::StoredDkb`] directly) and by
/// [`ExecBackend`].
pub trait Storage {
    fn execute(&mut self, sql: &str) -> Result<ResultSet, DbError>;
    fn execute_script(&mut self, sql: &str) -> Result<ResultSet, DbError>;
    fn insert_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<u64, DbError>;
    fn has_table(&mut self, table: &str) -> bool;
    fn table_schema(&mut self, table: &str) -> Result<Schema, DbError>;
    /// Insert the rows the table does not hold yet, each one once, in
    /// first-occurrence order; returns how many went in.
    fn insert_absent(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<u64, DbError>;
}

impl Storage for Engine {
    fn execute(&mut self, sql: &str) -> Result<ResultSet, DbError> {
        Engine::execute(self, sql)
    }
    fn execute_script(&mut self, sql: &str) -> Result<ResultSet, DbError> {
        Engine::execute_script(self, sql)
    }
    fn insert_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<u64, DbError> {
        Engine::insert_rows(self, table, rows)
    }
    fn has_table(&mut self, table: &str) -> bool {
        Engine::has_table(self, table)
    }
    fn table_schema(&mut self, table: &str) -> Result<Schema, DbError> {
        Engine::table_schema(self, table)
    }
    fn insert_absent(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<u64, DbError> {
        Engine::insert_absent(self, table, rows)
    }
}

impl Storage for DbSession {
    fn execute(&mut self, sql: &str) -> Result<ResultSet, DbError> {
        DbSession::execute(self, sql)
    }
    fn execute_script(&mut self, sql: &str) -> Result<ResultSet, DbError> {
        DbSession::execute_script(self, sql)
    }
    fn insert_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<u64, DbError> {
        DbSession::insert_rows(self, table, rows)
    }
    fn has_table(&mut self, table: &str) -> bool {
        DbSession::has_table(self, table)
    }
    fn table_schema(&mut self, table: &str) -> Result<Schema, DbError> {
        DbSession::table_schema(self, table)
    }
    fn insert_absent(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<u64, DbError> {
        DbSession::insert_absent(self, table, rows)
    }
}

/// Where a km session executes: a private engine (default, byte-identical
/// to the pre-backend testbed) or a session on a shared MVCC engine.
pub enum ExecBackend {
    Private(Engine),
    Shared(DbSession),
}

impl ExecBackend {
    /// The engine LFP evaluation runs on. Evaluation is write-free with
    /// respect to the durable store — it only creates session-scratch
    /// `all_/new_/delta_` temporaries — so the shared backend hands out
    /// its MVCC snapshot fork and needs no validation for it.
    pub fn eval_engine(&mut self) -> &mut Engine {
        match self {
            ExecBackend::Private(e) => e,
            ExecBackend::Shared(s) => s.engine(),
        }
    }

    /// Immutable view of the evaluation engine (metrics, stats).
    pub fn eval_engine_ref(&self) -> &Engine {
        match self {
            ExecBackend::Private(e) => e,
            ExecBackend::Shared(s) => s.snapshot(),
        }
    }

    pub fn is_shared(&self) -> bool {
        matches!(self, ExecBackend::Shared(_))
    }

    /// Move a shared session onto the latest committed state. A no-op on
    /// the private backend, whose engine *is* the latest state.
    pub fn refresh(&mut self) -> Result<(), DbError> {
        match self {
            ExecBackend::Private(_) => Ok(()),
            ExecBackend::Shared(s) => s.refresh(),
        }
    }

    /// Begin a transaction on the durable channel: a WAL transaction on
    /// the private engine, a recording MVCC transaction on the shared
    /// session (which refreshes onto the freshest snapshot first).
    pub fn begin(&mut self) -> Result<(), DbError> {
        match self {
            ExecBackend::Private(e) => e.begin(),
            ExecBackend::Shared(s) => s.begin(),
        }
    }

    /// Commit the open transaction. On the shared backend this submits
    /// the recorded statements for first-committer-wins validation and
    /// replay; [`DbError::WriteConflict`] means nothing was applied and
    /// the whole transaction can be retried on the fresh snapshot.
    pub fn commit(&mut self) -> Result<(), DbError> {
        match self {
            ExecBackend::Private(e) => e.commit(),
            ExecBackend::Shared(s) => s.commit(),
        }
    }

    /// Abandon the open transaction.
    pub fn rollback(&mut self) -> Result<(), DbError> {
        match self {
            ExecBackend::Private(e) => e.rollback(),
            ExecBackend::Shared(s) => s.rollback(),
        }
    }

    /// The temporary-table namespace this backend's evaluation scratch
    /// tables carry: empty on a private engine (sole owner of its name
    /// space), `s<id>_` on a shared session — so two sessions' semi-naive
    /// `all_/new_/delta_` temporaries can never collide by name.
    pub fn temp_ns(&self) -> String {
        match self {
            ExecBackend::Private(_) => String::new(),
            ExecBackend::Shared(s) => format!("s{}_", s.id()),
        }
    }

    /// The shared engine behind this backend, if any.
    pub fn shared_engine(&self) -> Option<SharedEngine> {
        match self {
            ExecBackend::Private(_) => None,
            ExecBackend::Shared(s) => Some(s.shared_engine()),
        }
    }

    /// Transactions this backend committed / lost to validation (always
    /// zero on the private backend).
    pub fn commit_counters(&self) -> (u64, u64) {
        match self {
            ExecBackend::Private(_) => (0, 0),
            ExecBackend::Shared(s) => (s.commits(), s.conflicts()),
        }
    }
}

impl Storage for ExecBackend {
    fn execute(&mut self, sql: &str) -> Result<ResultSet, DbError> {
        match self {
            ExecBackend::Private(e) => Storage::execute(e, sql),
            ExecBackend::Shared(s) => Storage::execute(s, sql),
        }
    }
    fn execute_script(&mut self, sql: &str) -> Result<ResultSet, DbError> {
        match self {
            ExecBackend::Private(e) => Storage::execute_script(e, sql),
            ExecBackend::Shared(s) => Storage::execute_script(s, sql),
        }
    }
    fn insert_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<u64, DbError> {
        match self {
            ExecBackend::Private(e) => Storage::insert_rows(e, table, rows),
            ExecBackend::Shared(s) => Storage::insert_rows(s, table, rows),
        }
    }
    fn has_table(&mut self, table: &str) -> bool {
        match self {
            ExecBackend::Private(e) => Storage::has_table(e, table),
            ExecBackend::Shared(s) => Storage::has_table(s, table),
        }
    }
    fn table_schema(&mut self, table: &str) -> Result<Schema, DbError> {
        match self {
            ExecBackend::Private(e) => Storage::table_schema(e, table),
            ExecBackend::Shared(s) => Storage::table_schema(s, table),
        }
    }
    fn insert_absent(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<u64, DbError> {
        match self {
            ExecBackend::Private(e) => Storage::insert_absent(e, table, rows),
            ExecBackend::Shared(s) => Storage::insert_absent(s, table, rows),
        }
    }
}

/// Attempts [`with_txn`] makes at a transaction whose commit keeps losing
/// validation before it gives up with [`KmError::RetriesExhausted`].
pub const MAX_TXN_ATTEMPTS: usize = 64;

/// Run `f` as one transaction on the backend when `transactional`,
/// retrying the whole body when its commit fails validation with
/// [`DbError::WriteConflict`] (shared backend only — each retry re-runs
/// `f` on the fresh snapshot the failed commit left behind). Without
/// `transactional` the body runs bare, preserving the private backend's
/// non-durable fast path byte-for-byte.
///
/// Returns `f`'s output and all the time spent here outside the committed
/// attempt's `f`: its `begin` and `commit`, and every earlier attempt
/// that lost validation (zero without `transactional`). After
/// [`MAX_TXN_ATTEMPTS`] lost commits the error is
/// [`KmError::RetriesExhausted`], carrying the last conflict; an error of
/// the body itself — a `WriteConflict` included — is returned as it is,
/// after one rollback and no retry.
pub fn with_txn<T>(
    backend: &mut ExecBackend,
    transactional: bool,
    mut f: impl FnMut(&mut ExecBackend) -> Result<T, KmError>,
) -> Result<(T, Duration), KmError> {
    if !transactional {
        return Ok((f(backend)?, Duration::ZERO));
    }
    // First-committer-wins guarantees global progress: every conflict
    // means some other session committed. The cap only guards against a
    // pathological livelock of this one session.
    let entered = Instant::now();
    let mut last = None;
    for _ in 0..MAX_TXN_ATTEMPTS {
        backend.begin()?;
        let t = Instant::now();
        let out = match f(backend) {
            Ok(out) => out,
            Err(e) => {
                let _ = backend.rollback();
                return Err(e);
            }
        };
        let in_body = t.elapsed();
        match backend.commit() {
            Ok(()) => return Ok((out, entered.elapsed() - in_body)),
            Err(conflict @ DbError::WriteConflict(_)) if backend.is_shared() => {
                last = Some(conflict);
                continue;
            }
            Err(e) => {
                // On a crashed private disk the rollback itself fails;
                // the open transaction is then reconciled by recover().
                let _ = backend.rollback();
                return Err(e.into());
            }
        }
    }
    Err(KmError::RetriesExhausted {
        attempts: MAX_TXN_ATTEMPTS,
        last: last.expect("every attempt ended in a conflict"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{binary_sym, Session, SessionConfig};

    /// A shared session with base relation `t`, and a second session on
    /// the same engine.
    fn two_sessions() -> (Session, DbSession) {
        let shared = SharedEngine::new(Engine::new());
        let mut s = Session::attach(&shared, SessionConfig::default()).unwrap();
        s.define_base("t", &binary_sym()).unwrap();
        (s, shared.session())
    }

    #[test]
    fn a_commit_that_always_loses_gives_up_typed_after_64_attempts() {
        let (mut s, mut rival) = two_sessions();
        let mut attempts = 0;
        let err = with_txn(s.backend_mut(), true, |b| {
            attempts += 1;
            // A DELETE writes the whole table; the rival's insert, which
            // commits first, makes this attempt's commit lose.
            b.execute("DELETE FROM t WHERE c0 = 'nobody'")?;
            rival.execute(&format!("INSERT INTO t VALUES ('r{attempts}', 'x')"))?;
            Ok(())
        })
        .unwrap_err();
        assert_eq!(attempts, MAX_TXN_ATTEMPTS);
        match &err {
            KmError::RetriesExhausted {
                attempts: 64,
                last: DbError::WriteConflict(m),
            } => assert!(m.contains("table 't'"), "{m}"),
            other => panic!("expected retry exhaustion, got {other:?}"),
        }
        assert!(err.to_string().contains("64 attempts"), "{err}");
        // Every attempt was rolled back (a transaction left open would make
        // the next `begin` fail); the session commits as usual.
        s.load_rules("r(X, Y) :- t(X, Y).").unwrap();
        s.commit_workspace().unwrap();
        assert_eq!(s.db_execute("SELECT * FROM t").unwrap().rows.len(), 64);
    }

    /// The shared engine's per-table key history holds 65 536 keys; a
    /// rival batch one past that prunes it beyond a fact commit's
    /// snapshot. That commit conflicts, `with_txn`'s retry commits it, and
    /// the session keeps serving.
    #[test]
    fn a_fact_commit_behind_a_pruned_key_history_retries_and_commits() {
        const KEY_HISTORY_CAP: usize = 65_536;
        let (mut s, mut rival) = two_sessions();
        let (_, lost_before) = s.commit_counters();
        let row = |a: &str, b: &str| vec![Value::from(a), Value::from(b)];
        let mut attempts = 0;
        let (stored, _) = with_txn(s.backend_mut(), true, |b| {
            attempts += 1;
            let stored = b.insert_absent("t", vec![row("fact", "x")])?;
            if attempts == 1 {
                let bulk = (0..=KEY_HISTORY_CAP).map(|i| row(&format!("r{i}"), "y"));
                rival.insert_rows("t", bulk.collect())?;
            }
            Ok(stored)
        })
        .unwrap();
        assert_eq!((attempts, stored), (2, 1));
        assert_eq!(s.commit_counters().1, lost_before + 1);
        s.load_rules("t(late, z).").unwrap();
        assert_eq!(s.commit_workspace().unwrap().facts_stored, 1);
        let n = s.db_execute("SELECT COUNT(*) FROM t").unwrap().scalar_int();
        assert_eq!(n, Some(KEY_HISTORY_CAP as i64 + 3));
    }

    #[test]
    fn a_conflict_raised_by_the_body_is_returned_as_it_is() {
        let (mut s, _) = two_sessions();
        let mut attempts = 0;
        let err = with_txn(s.backend_mut(), true, |_| -> Result<(), KmError> {
            attempts += 1;
            Err(DbError::WriteConflict("raised inside the body".into()).into())
        })
        .unwrap_err();
        assert_eq!(attempts, 1, "a body error is not retried");
        assert!(
            matches!(&err, KmError::Db(DbError::WriteConflict(m)) if m == "raised inside the body"),
            "{err:?}"
        );
    }
}
