//! # dkbms-rdbms — the DBMS layer of the D/KBMS testbed
//!
//! An in-process relational engine playing the role of the "commercial
//! relational database management system with SQL and embedded-SQL
//! interfaces" in the two-layer testbed architecture of Ramnarayan & Lu
//! (SIGMOD 1988). The Knowledge Manager compiles Horn-clause queries into
//! programs whose every database interaction is a SQL statement executed
//! through [`Engine::execute`].
//!
//! The stack, bottom to top:
//!
//! * [`disk`] — a simulated paged disk with physical I/O accounting;
//! * [`page`] — slotted pages;
//! * [`buffer`] — a clock-replacement buffer pool;
//! * [`heap`] — heap files of variable-length records;
//! * [`index`] — multi-column hash indexes;
//! * [`wal`] — checksummed page-image write-ahead log for crash safety;
//! * [`catalog`] — table/index metadata, temp-table lifecycle;
//! * [`sql`] — lexer, parser and AST for the SQL subset;
//! * [`rewrite`] — logical rewrite rules (predicate/projection pushdown)
//!   run over the bound query block before physical planning;
//! * [`cost`] — the cost model: selectivity estimation and join-order /
//!   access-path / join-method costing;
//! * [`plan`] — binding, access-path selection (index lookups, index
//!   nested-loop joins, hash joins), cost-based join ordering;
//! * [`exec`] — the materializing executor with logical-work counters;
//! * [`governor`] — per-statement deadlines, cooperative cancellation,
//!   and row/memory budgets checked at operator batch boundaries;
//! * [`metrics`] — counters/gauges/histograms with JSON export, shared by
//!   the engine, the Knowledge Manager, and the bench harness;
//! * [`engine`] — the public facade.
//!
//! ## Example
//!
//! ```
//! use rdbms::Engine;
//!
//! let mut db = Engine::new();
//! db.execute("CREATE TABLE parent (par char, child char)").unwrap();
//! db.execute("INSERT INTO parent VALUES ('adam','bob'), ('bob','carol')").unwrap();
//! let rs = db
//!     .execute("SELECT a.par, b.child FROM parent a, parent b WHERE a.child = b.par")
//!     .unwrap();
//! assert_eq!(rs.rows.len(), 1); // adam is bob's parent, bob is carol's: one grandparent pair
//! ```

pub mod buffer;
pub mod catalog;
pub mod concurrent;
pub mod cost;
pub mod disk;
pub mod engine;
pub mod exec;
pub mod governor;
mod hash;
pub mod heap;
pub mod index;
pub mod metrics;
pub mod page;
pub mod plan;
pub mod rewrite;
mod rowbuf;
pub mod schema;
pub mod snapshot;
pub mod spill;
pub mod sql;
mod sym;
pub mod value;
pub mod wal;

pub use catalog::DbError;
pub use concurrent::{DbSession, SharedEngine};
pub use disk::{DiskStats, FaultInjector, RecoveryReport};
pub use engine::{Engine, EngineStats, ResultSet, StmtId};
pub use exec::{OpProfile, SpillMode, DEFAULT_BATCH_ROWS};
pub use governor::{BudgetBreach, BudgetKind, ExecLimits, QueryGovernor};
pub use metrics::{Metric, Registry};
pub use rewrite::RewriteReport;
pub use schema::{Column, Schema, Tuple};
pub use value::{ColType, Value};
