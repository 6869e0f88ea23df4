//! Per-statement execution governor: deadline, cooperative cancellation,
//! and row/memory budgets.
//!
//! A [`QueryGovernor`] is created by the engine for each statement it
//! executes and handed to the executor by reference. Operators call
//! [`QueryGovernor::check`] at batch boundaries (roughly every
//! [`GOVERNOR_CHECK_INTERVAL`] rows) and [`QueryGovernor::charge_rows`] /
//! [`QueryGovernor::charge_bytes`] as they materialize intermediate
//! results. The counters are atomics so operators charge through a
//! shared reference; statements run on the calling thread, and the first
//! check to observe a breach returns an error the statement unwinds with.
//!
//! Cancellation is the one cross-thread part: a plain `Arc<AtomicBool>`
//! flag. The engine hands out clones (see `Engine::cancel_handle`) so
//! another thread — or a fault-injection hook — can flip it while a
//! statement runs; it stays set until `Engine::reset_cancel`
//! acknowledges it.

use crate::catalog::DbError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How many rows an operator may process between governor checks.
/// Small enough that a breach is observed within microseconds, large
/// enough that the atomic loads never show up in a profile.
pub const GOVERNOR_CHECK_INTERVAL: usize = 256;

/// Which budget a statement ran over. Carried inside
/// [`DbError::Budget`] so callers can distinguish "the user hit ^C"
/// from "the optimizer picked a plan that materializes too much".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// The cooperative cancellation flag was set.
    Canceled,
    /// The wall-clock deadline passed.
    Deadline,
    /// More rows were produced/processed than the row budget allows.
    Rows,
    /// Materialized intermediate state exceeded the byte budget.
    Memory,
}

impl std::fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetKind::Canceled => write!(f, "canceled"),
            BudgetKind::Deadline => write!(f, "deadline"),
            BudgetKind::Rows => write!(f, "rows"),
            BudgetKind::Memory => write!(f, "memory"),
        }
    }
}

/// Details of a budget breach, embedded in [`DbError::Budget`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetBreach {
    pub kind: BudgetKind,
    /// The configured limit (0 for cancellation/deadline, where no
    /// numeric limit applies).
    pub limit: u64,
    /// How much was consumed when the breach was observed.
    pub used: u64,
}

impl std::fmt::Display for BudgetBreach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            BudgetKind::Canceled => write!(f, "statement canceled"),
            BudgetKind::Deadline => write!(f, "statement deadline exceeded"),
            BudgetKind::Rows => write!(
                f,
                "row budget exceeded: {} rows processed, limit {}",
                self.used, self.limit
            ),
            BudgetKind::Memory => write!(
                f,
                "memory budget exceeded: {} bytes materialized, limit {}",
                self.used, self.limit
            ),
        }
    }
}

/// Engine-level execution limits applied to every statement. All fields
/// default to "unlimited"; `statement_deadline` is an absolute instant
/// (the engine computes it from a per-statement duration or from the
/// knowledge layer's per-evaluation deadline, whichever is sooner).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecLimits {
    pub deadline: Option<Instant>,
    pub max_rows: Option<u64>,
    pub max_bytes: Option<u64>,
}

/// The per-statement governor. Created fresh for each statement so row
/// and byte counters start at zero; the cancellation flag is shared
/// with the engine (and through `Engine::cancel_handle` with the
/// outside world).
#[derive(Debug)]
pub struct QueryGovernor {
    deadline: Option<Instant>,
    cancel: Arc<AtomicBool>,
    max_rows: Option<u64>,
    max_bytes: Option<u64>,
    rows: AtomicU64,
    bytes: AtomicU64,
}

impl QueryGovernor {
    pub fn new(limits: ExecLimits, cancel: Arc<AtomicBool>) -> QueryGovernor {
        QueryGovernor {
            deadline: limits.deadline,
            cancel,
            max_rows: limits.max_rows,
            max_bytes: limits.max_bytes,
            rows: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// An unlimited governor with a private cancellation flag. Used by
    /// code paths that need a governor value but no policy (tests,
    /// internal maintenance statements).
    pub fn unlimited() -> QueryGovernor {
        QueryGovernor::new(ExecLimits::default(), Arc::new(AtomicBool::new(false)))
    }

    /// Cheap cooperative check: cancellation flag, then deadline, then
    /// accumulated budgets. Called at operator batch boundaries.
    pub fn check(&self) -> Result<(), DbError> {
        if self.cancel.load(Ordering::Relaxed) {
            return Err(DbError::Budget(BudgetBreach {
                kind: BudgetKind::Canceled,
                limit: 0,
                used: 0,
            }));
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(DbError::Budget(BudgetBreach {
                    kind: BudgetKind::Deadline,
                    limit: 0,
                    used: 0,
                }));
            }
        }
        if let Some(max) = self.max_rows {
            let used = self.rows.load(Ordering::Relaxed);
            if used > max {
                return Err(DbError::Budget(BudgetBreach {
                    kind: BudgetKind::Rows,
                    limit: max,
                    used,
                }));
            }
        }
        if let Some(max) = self.max_bytes {
            let used = self.bytes.load(Ordering::Relaxed);
            if used > max {
                return Err(DbError::Budget(BudgetBreach {
                    kind: BudgetKind::Memory,
                    limit: max,
                    used,
                }));
            }
        }
        Ok(())
    }

    /// Charge `n` processed/produced rows against the row budget and
    /// immediately check it. Returns the breach as an error so callers
    /// can `?` straight through.
    pub fn charge_rows(&self, n: u64) -> Result<(), DbError> {
        if n > 0 {
            self.rows.fetch_add(n, Ordering::Relaxed);
        }
        if let Some(max) = self.max_rows {
            let used = self.rows.load(Ordering::Relaxed);
            if used > max {
                return Err(DbError::Budget(BudgetBreach {
                    kind: BudgetKind::Rows,
                    limit: max,
                    used,
                }));
            }
        }
        Ok(())
    }

    /// Charge `n` bytes of materialized intermediate state (hash-join
    /// build sides, sort buffers) against the memory budget.
    pub fn charge_bytes(&self, n: u64) -> Result<(), DbError> {
        if n > 0 {
            self.bytes.fetch_add(n, Ordering::Relaxed);
        }
        if let Some(max) = self.max_bytes {
            let used = self.bytes.load(Ordering::Relaxed);
            if used > max {
                return Err(DbError::Budget(BudgetBreach {
                    kind: BudgetKind::Memory,
                    limit: max,
                    used,
                }));
            }
        }
        Ok(())
    }

    /// How many bytes of the memory budget remain unclaimed, or `None`
    /// when no byte budget is set. The spill machinery uses this to
    /// decide whether a hash build (or sort buffer) still fits in
    /// memory and, when it does not, how large each spill partition may
    /// be while staying under the budget.
    pub fn bytes_remaining(&self) -> Option<u64> {
        self.max_bytes
            .map(|max| max.saturating_sub(self.bytes.load(Ordering::Relaxed)))
    }

    /// Rows charged so far (for stats / partial-progress reporting).
    pub fn rows_used(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Bytes charged so far.
    pub fn bytes_used(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_never_breaches() {
        let g = QueryGovernor::unlimited();
        g.check().unwrap();
        g.charge_rows(1_000_000).unwrap();
        g.charge_bytes(1 << 30).unwrap();
        g.check().unwrap();
    }

    #[test]
    fn row_budget_breaches() {
        let g = QueryGovernor::new(
            ExecLimits {
                max_rows: Some(100),
                ..ExecLimits::default()
            },
            Arc::new(AtomicBool::new(false)),
        );
        g.charge_rows(100).unwrap();
        let err = g.charge_rows(1).unwrap_err();
        match err {
            DbError::Budget(b) => {
                assert_eq!(b.kind, BudgetKind::Rows);
                assert_eq!(b.limit, 100);
                assert_eq!(b.used, 101);
            }
            other => panic!("expected Budget, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_flag_observed() {
        let cancel = Arc::new(AtomicBool::new(false));
        let g = QueryGovernor::new(ExecLimits::default(), cancel.clone());
        g.check().unwrap();
        cancel.store(true, Ordering::Relaxed);
        match g.check().unwrap_err() {
            DbError::Budget(b) => assert_eq!(b.kind, BudgetKind::Canceled),
            other => panic!("expected Budget, got {other:?}"),
        }
    }

    #[test]
    fn deadline_breaches() {
        let g = QueryGovernor::new(
            ExecLimits {
                deadline: Some(Instant::now() - Duration::from_millis(1)),
                ..ExecLimits::default()
            },
            Arc::new(AtomicBool::new(false)),
        );
        match g.check().unwrap_err() {
            DbError::Budget(b) => assert_eq!(b.kind, BudgetKind::Deadline),
            other => panic!("expected Budget, got {other:?}"),
        }
    }

    #[test]
    fn memory_budget_breaches() {
        let g = QueryGovernor::new(
            ExecLimits {
                max_bytes: Some(1024),
                ..ExecLimits::default()
            },
            Arc::new(AtomicBool::new(false)),
        );
        g.charge_bytes(1024).unwrap();
        match g.charge_bytes(1).unwrap_err() {
            DbError::Budget(b) => assert_eq!(b.kind, BudgetKind::Memory),
            other => panic!("expected Budget, got {other:?}"),
        }
    }
}
