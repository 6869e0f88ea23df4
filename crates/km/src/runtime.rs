//! The Run Time Library: bottom-up LFP evaluation over the SQL interface.
//!
//! Two strategies, as in the testbed:
//!
//! * **Naive** — every iteration re-evaluates the full right-hand side of
//!   each recursive equation against the accumulated relations, then runs a
//!   set-difference termination check.
//! * **Semi-naive** — the differential method: each iteration evaluates,
//!   per recursive rule and per occurrence of a clique predicate, a variant
//!   reading that occurrence from the delta table; only genuinely new
//!   tuples feed the next delta.
//!
//! Both strategies run as "an application program against the DBMS", in
//! the paper's embedded-SQL style: one loop (`eval_clique`) re-executes
//! statements compiled once per clique, temporary tables are recycled each
//! iteration, and the termination check is a set difference — the three
//! cost categories of the paper's Table 5, which we time and count
//! separately in [`LfpBreakdown`]. A strategy is the list of SQL texts it
//! hands that loop (`naive_plan`, `seminaive_plan`).

use crate::codegen::{all_table, delta_table, new_table, EvalProgram, ProgNode, RuleSql};
use crate::stored::KmError;
use crate::util::attr_to_coltype;
use hornlog::types::AttrType;
use rdbms::{BudgetKind, DbError, Engine, StmtId, Value};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// LFP evaluation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LfpStrategy {
    Naive,
    SemiNaive,
}

/// Per-category cost breakdown of LFP evaluation (the paper's Table 5).
#[derive(Debug, Clone, Copy, Default)]
pub struct LfpBreakdown {
    /// Creating and dropping temporary tables.
    pub t_temp_tables: Duration,
    /// Evaluating rule right-hand sides (or their differentials) and
    /// installing new tuples. The result node's answer `SELECT` and the
    /// sort + de-duplication of its rows are charged here too.
    pub t_eval_rhs: Duration,
    /// Termination checks (set differences).
    pub t_termination: Duration,
    /// Temp-table DDL statements issued.
    pub n_temp_ops: u64,
    /// RHS evaluation statements issued.
    pub n_eval_stmts: u64,
    /// Termination-check statements issued.
    pub n_term_checks: u64,
    /// LFP iterations run (cliques only).
    pub iterations: u64,
    /// New tuples installed into derived tables, plus the distinct answer
    /// rows of the result node (which has no table to install them in).
    pub tuples_produced: u64,
}

impl LfpBreakdown {
    pub fn total_time(&self) -> Duration {
        self.t_temp_tables + self.t_eval_rhs + self.t_termination
    }

    fn absorb(&mut self, other: &LfpBreakdown) {
        self.t_temp_tables += other.t_temp_tables;
        self.t_eval_rhs += other.t_eval_rhs;
        self.t_termination += other.t_termination;
        self.n_temp_ops += other.n_temp_ops;
        self.n_eval_stmts += other.n_eval_stmts;
        self.n_term_checks += other.n_term_checks;
        self.iterations += other.iterations;
        self.tuples_produced += other.tuples_produced;
    }
}

/// One LFP iteration of one clique, as observed at the SQL boundary.
#[derive(Debug, Clone, Default)]
pub struct IterationTrace {
    /// 1-based iteration number within the clique.
    pub iteration: u64,
    /// Per-predicate cardinality of the genuinely new tuples this
    /// iteration produced (the delta), in clique-predicate order.
    pub delta_cards: Vec<(String, u64)>,
    /// Temp-table recycling (CREATE/DROP/TRUNCATE) time this iteration.
    pub t_temp: Duration,
    /// RHS (or differential) evaluation time this iteration.
    pub t_eval: Duration,
    /// Termination-check time this iteration.
    pub t_term: Duration,
    /// Wall time of the whole iteration — the three phases plus loop glue.
    pub t_total: Duration,
    /// Plan-cache hits observed at the engine during this iteration.
    pub plan_cache_hits: u64,
    /// Plan-cache (re)compilations observed during this iteration.
    pub plan_cache_misses: u64,
    /// Cardinality-drift replans observed during this iteration.
    pub plan_replans: u64,
    /// SQL statements executed during this iteration.
    pub statements: u64,
}

/// Per-clique LFP trace: setup cost plus one [`IterationTrace`] per round.
///
/// `t_setup + Σ iterations[i].t_total == total` by construction, so a
/// consumer can re-derive the clique's wall time from the parts.
#[derive(Debug, Clone, Default)]
pub struct CliqueTrace {
    pub predicates: Vec<String>,
    /// Whether this clique computes magic predicates (`m_` prefix) —
    /// Figure 14 attributes LFP time to the two computations this way.
    pub is_magic: bool,
    /// Wall time of the whole clique: setup, iterations, teardown.
    pub total: Duration,
    /// `total` minus the summed iteration wall times: table creation,
    /// statement preparation, exit rules, final drops.
    pub t_setup: Duration,
    pub iterations: Vec<IterationTrace>,
}

/// Timing of one evaluation-order node. Nodes run one after another
/// inside the evaluation, so `elapsed` summed over an outcome's nodes never
/// exceeds the outcome's `total`. The result node's `elapsed` is the answer
/// read: its `SELECT`s plus the sort + de-duplication of the rows.
#[derive(Debug, Clone)]
pub struct NodeTiming {
    pub predicates: Vec<String>,
    pub is_clique: bool,
    /// Whether this node evaluates magic predicates (name prefix `m_`) —
    /// Figure 14 separates the two LFP computations this way.
    pub is_magic: bool,
    pub elapsed: Duration,
    pub breakdown: LfpBreakdown,
}

/// The outcome of running a generated program.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// The query answer (distinct rows, sorted for determinism).
    pub rows: Vec<Vec<Value>>,
    /// Wall-clock time of the whole run.
    pub total: Duration,
    /// Per-node timings, in evaluation order.
    pub node_timings: Vec<NodeTiming>,
    /// Per-clique, per-iteration traces, in evaluation order (one entry
    /// per clique node; non-recursive nodes do not iterate).
    pub clique_traces: Vec<CliqueTrace>,
    /// Aggregated LFP breakdown over all nodes.
    pub breakdown: LfpBreakdown,
}

/// Per-evaluation resource limits, all off by default. The deadline is
/// relative to the start of the evaluation and is armed on the engine too
/// ([`Engine::set_eval_deadline`]), so long-running *statements* observe
/// the same clock as the LFP loop around them.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalLimits {
    /// Wall-clock budget for the whole evaluation.
    pub deadline: Option<Duration>,
    /// Maximum LFP iterations per clique.
    pub max_iterations: Option<u64>,
    /// Maximum derived tuples installed across the whole evaluation
    /// (seeds, exit rules, and every iteration's new tuples).
    pub max_derived_facts: Option<u64>,
}

/// Which resource an [`EvalError::Budget`] tripped on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalResource {
    /// Cooperative cancellation (the engine's cancel flag).
    Canceled,
    /// The wall-clock deadline passed.
    Deadline,
    /// Per-clique LFP iteration budget.
    Iterations,
    /// Whole-evaluation derived-fact budget.
    DerivedFacts,
    /// Engine-level row-processing budget.
    Rows,
    /// Engine-level operator memory budget.
    Memory,
}

impl std::fmt::Display for EvalResource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalResource::Canceled => write!(f, "cancellation"),
            EvalResource::Deadline => write!(f, "deadline"),
            EvalResource::Iterations => write!(f, "iteration budget"),
            EvalResource::DerivedFacts => write!(f, "derived-fact budget"),
            EvalResource::Rows => write!(f, "row budget"),
            EvalResource::Memory => write!(f, "memory budget"),
        }
    }
}

/// What the evaluation had produced when a budget tripped — the same trace
/// machinery a successful [`EvalOutcome`] carries, minus the answer rows.
/// Completed evaluation-order nodes appear in full; the clique that was
/// mid-fixpoint contributes its iterations so far as a final
/// [`CliqueTrace`] with zero `total`/`t_setup` (wall time is unknown at
/// the abort point).
#[derive(Debug, Clone, Default)]
pub struct PartialProgress {
    pub breakdown: LfpBreakdown,
    pub node_timings: Vec<NodeTiming>,
    pub clique_traces: Vec<CliqueTrace>,
}

/// A typed evaluation failure: the LFP run was abandoned cooperatively.
/// The engine itself stays healthy — the governed entry point
/// ([`run_program_governed`]) has already dropped the run's temporaries
/// and acknowledged any cancellation before this error reaches the caller.
#[derive(Debug, Clone)]
pub enum EvalError {
    Budget {
        resource: EvalResource,
        /// The configured limit (0 for cancellation/deadline breaches
        /// reported by the engine, where no count applies).
        limit: u64,
        /// Consumption observed at the breach.
        used: u64,
        partial: Box<PartialProgress>,
    },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Budget {
                resource,
                limit,
                used,
                ..
            } => write!(
                f,
                "evaluation exceeded {resource} (used {used}, limit {limit})"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// A breach observed by [`EvalCtl`], before partial progress is attached.
struct CtlBreach {
    resource: EvalResource,
    limit: u64,
    used: u64,
}

/// The km-level evaluation governor: an absolute deadline, a per-clique
/// iteration cap, and a cumulative derived-fact budget across every node
/// of the evaluation.
struct EvalCtl {
    started: Instant,
    deadline: Option<Instant>,
    max_iterations: Option<u64>,
    max_derived_facts: Option<u64>,
    derived: Cell<u64>,
}

impl EvalCtl {
    fn new(limits: &EvalLimits, deadline: Option<Instant>) -> EvalCtl {
        EvalCtl {
            started: Instant::now(),
            deadline,
            max_iterations: limits.max_iterations,
            max_derived_facts: limits.max_derived_facts,
            derived: Cell::new(0),
        }
    }

    fn check_deadline(&self) -> Result<(), CtlBreach> {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(CtlBreach {
                    resource: EvalResource::Deadline,
                    limit: d.saturating_duration_since(self.started).as_millis() as u64,
                    used: self.started.elapsed().as_millis() as u64,
                });
            }
        }
        Ok(())
    }

    /// Loop-top check: deadline plus the per-clique iteration cap.
    /// `iters` is the 1-based iteration about to run, so a cap of `n`
    /// admits exactly `n` iterations.
    fn check_iters(&self, iters: u64) -> Result<(), CtlBreach> {
        if let Some(m) = self.max_iterations {
            if iters > m {
                return Err(CtlBreach {
                    resource: EvalResource::Iterations,
                    limit: m,
                    used: iters,
                });
            }
        }
        self.check_deadline()
    }

    /// Charge `n` freshly installed derived tuples against the cumulative
    /// budget.
    fn charge_facts(&self, n: u64) -> Result<(), CtlBreach> {
        if n == 0 {
            return Ok(());
        }
        let used = self.derived.get() + n;
        self.derived.set(used);
        if let Some(m) = self.max_derived_facts {
            if used > m {
                return Err(CtlBreach {
                    resource: EvalResource::DerivedFacts,
                    limit: m,
                    used,
                });
            }
        }
        Ok(())
    }
}

/// Wrap a breach and the progress made so far into the typed error.
fn budget_err(br: CtlBreach, partial: PartialProgress) -> KmError {
    KmError::Eval(Box::new(EvalError::Budget {
        resource: br.resource,
        limit: br.limit,
        used: br.used,
        partial: Box::new(partial),
    }))
}

/// Partial progress of a node that has no traces to report yet.
fn breakdown_partial(breakdown: LfpBreakdown) -> PartialProgress {
    PartialProgress {
        breakdown,
        ..PartialProgress::default()
    }
}

/// Partial progress of a clique that was mid-fixpoint: its iterations so
/// far, packaged as the final clique trace.
fn clique_partial(
    preds: &[String],
    b: &LfpBreakdown,
    traces: &mut Vec<IterationTrace>,
) -> PartialProgress {
    PartialProgress {
        breakdown: *b,
        node_timings: Vec::new(),
        clique_traces: vec![CliqueTrace {
            predicates: preds.to_vec(),
            is_magic: !preds.is_empty() && preds.iter().all(|p| p.starts_with("m_")),
            total: Duration::ZERO,
            t_setup: Duration::ZERO,
            iterations: std::mem::take(traces),
        }],
    }
}

/// Promote an error leaving the evaluation into its governed form:
/// engine-level budget breaches ([`DbError::Budget`]) become
/// [`EvalError::Budget`] and clique-local partial progress is merged
/// behind the progress of the nodes that had already completed. Other
/// errors pass through untouched.
fn promote(e: KmError, mut done: PartialProgress) -> KmError {
    match e {
        KmError::Db(DbError::Budget(br)) => {
            let resource = match br.kind {
                BudgetKind::Canceled => EvalResource::Canceled,
                BudgetKind::Deadline => EvalResource::Deadline,
                BudgetKind::Rows => EvalResource::Rows,
                BudgetKind::Memory => EvalResource::Memory,
            };
            budget_err(
                CtlBreach {
                    resource,
                    limit: br.limit,
                    used: br.used,
                },
                done,
            )
        }
        KmError::Eval(mut boxed) => {
            let EvalError::Budget { partial, .. } = boxed.as_mut();
            done.breakdown.absorb(&partial.breakdown);
            done.node_timings.append(&mut partial.node_timings);
            done.clique_traces.append(&mut partial.clique_traces);
            **partial = done;
            KmError::Eval(boxed)
        }
        other => other,
    }
}

fn timed<R>(acc: &mut Duration, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    *acc += start.elapsed();
    r
}

fn create_table_sql(name: &str, types: &[AttrType]) -> String {
    let cols: Vec<String> = types
        .iter()
        .enumerate()
        .map(|(i, t)| format!("c{i} {}", attr_to_coltype(*t)))
        .collect();
    format!("CREATE TEMP TABLE {name} ({})", cols.join(", "))
}

/// Server-side "rows of `new` not yet in `all`, appended to `target`".
/// The `NOT EXISTS` form correlates on every column, so with the matching
/// full-key index (see [`term_index_sql`]) the engine probes the
/// accumulated table once per candidate row instead of re-scanning and
/// re-hashing all of it every iteration — the probe is what keeps the
/// termination check cheap as the fixpoint grows.
fn termination_sql(target: &str, new: &str, all: &str, arity: usize) -> String {
    if arity == 0 {
        return format!("INSERT INTO {target} SELECT * FROM {new} EXCEPT SELECT * FROM {all}");
    }
    let on: Vec<String> = (0..arity).map(|i| format!("a.c{i} = n.c{i}")).collect();
    format!(
        "INSERT INTO {target} SELECT DISTINCT * FROM {new} n \
         WHERE NOT EXISTS (SELECT * FROM {all} a WHERE {})",
        on.join(" AND ")
    )
}

/// Full-key index on an accumulated table, backing [`termination_sql`].
fn term_index_sql(all: &str, arity: usize) -> String {
    let cols: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
    format!("CREATE INDEX {all}_term ON {all} ({})", cols.join(", "))
}

fn dedup(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows.dedup();
    rows
}

/// What evaluating one evaluation-order node yields, before trace assembly.
struct NodeOut {
    breakdown: LfpBreakdown,
    iterations: Vec<IterationTrace>,
    /// Wall time of the node.
    elapsed: Duration,
    /// The query answer, if this was the result node (empty otherwise).
    answer: Vec<Vec<Value>>,
    /// The specialized TC operator ran: `elapsed` is the single
    /// statement's time and the clique trace gets zero setup.
    tc: bool,
}

/// Evaluate one node of the evaluation order.
fn eval_node(
    db: &mut Engine,
    prog: &EvalProgram,
    node: &ProgNode,
    strategy: LfpStrategy,
    special_tc: bool,
    ctl: &EvalCtl,
) -> Result<NodeOut, KmError> {
    let node_start = Instant::now();
    match node {
        ProgNode::Predicate { pred, rules } => {
            let (breakdown, answer) = if *pred == prog.result_pred {
                eval_answer(db, rules, ctl)?
            } else {
                (eval_predicate(db, &prog.ns, rules, ctl)?, Vec::new())
            };
            Ok(NodeOut {
                breakdown,
                iterations: Vec::new(),
                elapsed: node_start.elapsed(),
                answer,
                tc: false,
            })
        }
        ProgNode::Clique {
            preds,
            exit_rules,
            recursive_rules,
            tc_of,
        } => {
            // The specialized operator applies only when nothing was
            // seeded into the clique predicate (seeds would extend the
            // LFP beyond the plain closure).
            let seeded = prog.seeds.iter().any(|(p, _)| preds.contains(p));
            if special_tc && !seeded {
                if let Some(src) = tc_of {
                    return eval_tc(db, &prog.ns, &preds[0], src, ctl);
                }
            }
            let types: BTreeMap<&str, &[AttrType]> = preds
                .iter()
                .map(|p| (p.as_str(), prog.tables[p].as_slice()))
                .collect();
            let plan = match strategy {
                LfpStrategy::Naive => naive_plan(&prog.ns, &types, exit_rules, recursive_rules),
                LfpStrategy::SemiNaive => {
                    seminaive_plan(&prog.ns, &types, exit_rules, recursive_rules)
                }
            };
            let (b, iterations) = eval_clique(db, &plan, ctl)?;
            Ok(NodeOut {
                breakdown: b,
                iterations,
                elapsed: node_start.elapsed(),
                answer: Vec::new(),
                tc: false,
            })
        }
    }
}

/// Evaluate a clique the code generator recognized as the plain transitive
/// closure of `src` with the engine's specialized operator: one statement,
/// reported as a single iteration.
fn eval_tc(
    db: &mut Engine,
    ns: &str,
    pred: &str,
    src: &str,
    ctl: &EvalCtl,
) -> Result<NodeOut, KmError> {
    let preds = [pred.to_string()];
    let mut b = LfpBreakdown::default();
    let mut traces = Vec::new();
    ctl.check_deadline()
        .map_err(|br| budget_err(br, clique_partial(&preds, &b, &mut traces)))?;
    let snap = StatSnap::take(db);
    let t = Instant::now();
    let rs = db.execute(&format!(
        "INSERT INTO {} TRANSITIVE CLOSURE OF {src}",
        all_table(ns, pred)
    ))?;
    let elapsed = t.elapsed();
    b.t_eval_rhs = elapsed;
    b.n_eval_stmts = 1;
    b.iterations = 1;
    b.tuples_produced = rs.affected;
    let mut iter = snap.finish(db);
    iter.iteration = 1;
    iter.delta_cards = vec![(pred.to_string(), rs.affected)];
    iter.t_eval = elapsed;
    iter.t_total = elapsed;
    traces.push(iter);
    // The operator runs as one statement, so the fact budget is enforced
    // on its affected count after the fact — the engine-level row budget
    // is the in-flight bound for this path.
    ctl.charge_facts(rs.affected)
        .map_err(|br| budget_err(br, clique_partial(&preds, &b, &mut traces)))?;
    Ok(NodeOut {
        breakdown: b,
        iterations: traces,
        elapsed,
        answer: Vec::new(),
        tc: true,
    })
}

/// Fold one node's result into the outcome accumulators.
fn record_node(
    node: &ProgNode,
    out: NodeOut,
    breakdown: &mut LfpBreakdown,
    node_timings: &mut Vec<NodeTiming>,
    clique_traces: &mut Vec<CliqueTrace>,
) {
    let predicates: Vec<String> = node.predicates().iter().map(|s| s.to_string()).collect();
    let is_magic = predicates.iter().all(|p| p.starts_with("m_"));
    breakdown.absorb(&out.breakdown);
    if node.is_clique() {
        let iter_total: Duration = out.iterations.iter().map(|i| i.t_total).sum();
        clique_traces.push(CliqueTrace {
            predicates: predicates.clone(),
            is_magic,
            total: out.elapsed,
            t_setup: if out.tc {
                Duration::ZERO
            } else {
                out.elapsed.saturating_sub(iter_total)
            },
            iterations: out.iterations,
        });
    }
    node_timings.push(NodeTiming {
        predicates,
        is_clique: node.is_clique(),
        is_magic,
        elapsed: out.elapsed,
        breakdown: out.breakdown,
    });
}

/// Run a generated program to completion and read the answer, with no
/// resource limits and the generic SQL LFP loop for every clique.
pub fn run_program(
    db: &mut Engine,
    prog: &EvalProgram,
    strategy: LfpStrategy,
) -> Result<EvalOutcome, KmError> {
    run_program_governed(db, prog, strategy, false, &EvalLimits::default())
}

/// Run a generated program under an evaluation governor: a wall-clock
/// deadline (armed on the engine too, so individual statements observe
/// it), a per-clique iteration cap, and a cumulative derived-fact budget.
/// With `special_tc`, cliques the code generator recognized as plain TC
/// evaluate with one `INSERT ... TRANSITIVE CLOSURE OF ...` statement
/// instead of the generic SQL LFP loop (paper conclusion #8).
///
/// A breach — or an engine-level budget/cancellation breach surfacing from
/// a statement — aborts the run with [`EvalError::Budget`], carrying the
/// traces produced so far. Before the error is returned the engine is put
/// back in service: the evaluation deadline is cleared, a pending
/// cancellation is acknowledged, and the run's temporary tables are
/// dropped best-effort.
pub fn run_program_governed(
    db: &mut Engine,
    prog: &EvalProgram,
    strategy: LfpStrategy,
    special_tc: bool,
    limits: &EvalLimits,
) -> Result<EvalOutcome, KmError> {
    let deadline = limits.deadline.map(|d| Instant::now() + d);
    let ctl = EvalCtl::new(limits, deadline);
    db.set_eval_deadline(deadline);
    let r = run_program_inner(db, prog, strategy, special_tc, &ctl);
    db.set_eval_deadline(None);
    match r {
        Ok(out) => Ok(out),
        Err(e) => {
            // A breach during the final cleanup carries no trace state;
            // promote it with empty progress.
            let e = promote(e, PartialProgress::default());
            if matches!(e, KmError::Eval(_)) {
                db.reset_cancel();
                for pred in prog.tables.keys() {
                    let _ = db.execute(&format!(
                        "DROP TABLE IF EXISTS {}",
                        all_table(&prog.ns, pred)
                    ));
                    let _ = db.execute(&format!(
                        "DROP TABLE IF EXISTS {}",
                        new_table(&prog.ns, pred)
                    ));
                    let _ = db.execute(&format!(
                        "DROP TABLE IF EXISTS {}",
                        delta_table(&prog.ns, pred)
                    ));
                }
            }
            Err(e)
        }
    }
}

fn run_program_inner(
    db: &mut Engine,
    prog: &EvalProgram,
    strategy: LfpStrategy,
    special_tc: bool,
    ctl: &EvalCtl,
) -> Result<EvalOutcome, KmError> {
    let start = Instant::now();
    let mut breakdown = LfpBreakdown::default();

    // Create the accumulated tables and load seeds.
    timed(&mut breakdown.t_temp_tables, || -> Result<(), KmError> {
        for (pred, types) in &prog.tables {
            db.execute(&format!(
                "DROP TABLE IF EXISTS {}",
                all_table(&prog.ns, pred)
            ))?;
            db.execute(&create_table_sql(&all_table(&prog.ns, pred), types))?;
        }
        Ok(())
    })?;
    breakdown.n_temp_ops += 2 * prog.tables.len() as u64;
    let t = Instant::now();
    for (pred, rows) in &prog.seeds {
        let added = db.insert_rows(&all_table(&prog.ns, pred), dedup(rows.clone()))?;
        breakdown.tuples_produced += added;
        if let Err(br) = ctl.charge_facts(added) {
            return Err(budget_err(br, breakdown_partial(breakdown)));
        }
    }
    breakdown.t_eval_rhs += t.elapsed();

    // Evaluate the nodes, strictly in evaluation order.
    let mut node_timings = Vec::with_capacity(prog.nodes.len());
    let mut clique_traces = Vec::new();
    let mut rows = Vec::new();
    for node in &prog.nodes {
        match eval_node(db, prog, node, strategy, special_tc, ctl) {
            Ok(mut out) => {
                rows.append(&mut out.answer);
                record_node(
                    node,
                    out,
                    &mut breakdown,
                    &mut node_timings,
                    &mut clique_traces,
                )
            }
            // Attach what the completed nodes produced ahead of the
            // failing node's own partial state.
            Err(e) => {
                return Err(promote(
                    e,
                    PartialProgress {
                        breakdown,
                        node_timings,
                        clique_traces,
                    },
                ))
            }
        }
    }

    // Clean up exactly the temporaries this run created (user-created
    // temp tables in the same engine are not ours to drop).
    let t = Instant::now();
    for pred in prog.tables.keys() {
        db.execute(&format!(
            "DROP TABLE IF EXISTS {}",
            all_table(&prog.ns, pred)
        ))?;
        breakdown.n_temp_ops += 1;
    }
    breakdown.t_temp_tables += t.elapsed();

    Ok(EvalOutcome {
        rows,
        total: start.elapsed(),
        node_timings,
        clique_traces,
        breakdown,
    })
}

/// Engine counters sampled at an iteration boundary; `finish` turns a pair
/// of samples into the per-iteration deltas of an [`IterationTrace`].
struct StatSnap {
    plan_cache_hits: u64,
    plan_cache_misses: u64,
    plan_replans: u64,
    statements: u64,
}

impl StatSnap {
    fn take(db: &Engine) -> StatSnap {
        let s = db.stats();
        StatSnap {
            plan_cache_hits: s.exec.plan_cache_hits,
            plan_cache_misses: s.exec.plan_cache_misses,
            plan_replans: s.exec.plan_replans,
            statements: s.statements,
        }
    }

    fn finish(&self, db: &Engine) -> IterationTrace {
        let now = StatSnap::take(db);
        IterationTrace {
            plan_cache_hits: now.plan_cache_hits - self.plan_cache_hits,
            plan_cache_misses: now.plan_cache_misses - self.plan_cache_misses,
            plan_replans: now.plan_replans - self.plan_replans,
            statements: now.statements - self.statements,
            ..IterationTrace::default()
        }
    }
}

/// `INSERT` a SELECT's result into `target`, keeping set semantics via the
/// trailing `EXCEPT`; the affected count is the number of rows actually
/// added.
fn insert_new_sql(target: &str, select_sql: &str) -> String {
    format!("INSERT INTO {target} {select_sql} EXCEPT SELECT * FROM {target}")
}

/// Evaluate the result node. No rule reads the result predicate — its one
/// consumer is the caller — so its rows are never stored: each rule's
/// `full_sql` runs as a plain `SELECT` and the union is sorted and
/// de-duplicated here. The distinct rows are charged as derived tuples,
/// which is what `INSERT … EXCEPT` into a table would have counted.
fn eval_answer(
    db: &mut Engine,
    rules: &[RuleSql],
    ctl: &EvalCtl,
) -> Result<(LfpBreakdown, Vec<Vec<Value>>), KmError> {
    let mut b = LfpBreakdown::default();
    let t = Instant::now();
    let mut rows = Vec::new();
    for rule in rules {
        ctl.check_deadline()
            .map_err(|br| budget_err(br, breakdown_partial(b)))?;
        rows.append(&mut db.execute(&rule.full_sql)?.rows);
        b.n_eval_stmts += 1;
    }
    let rows = dedup(rows);
    b.t_eval_rhs = t.elapsed();
    b.tuples_produced = rows.len() as u64;
    ctl.charge_facts(b.tuples_produced)
        .map_err(|br| budget_err(br, breakdown_partial(b)))?;
    Ok((b, rows))
}

/// Evaluate a non-recursive predicate node: one pass over its rules.
fn eval_predicate(
    db: &mut Engine,
    ns: &str,
    rules: &[RuleSql],
    ctl: &EvalCtl,
) -> Result<LfpBreakdown, KmError> {
    let mut b = LfpBreakdown::default();
    for rule in rules {
        ctl.check_deadline()
            .map_err(|br| budget_err(br, breakdown_partial(b)))?;
        let sql = insert_new_sql(&all_table(ns, &rule.head_pred), &rule.full_sql);
        let added = timed(&mut b.t_eval_rhs, || db.execute(&sql))?.affected;
        b.n_eval_stmts += 1;
        b.tuples_produced += added;
        ctl.charge_facts(added)
            .map_err(|br| budget_err(br, breakdown_partial(b)))?;
    }
    Ok(b)
}

/// The SQL texts of one clique's fixpoint, in the order [`eval_clique`]
/// issues them. The two constructors ([`naive_plan`], [`seminaive_plan`])
/// are the whole difference between the strategies; each field is charged
/// to exactly one Table 5 category by the driver.
#[derive(Default)]
struct CliquePlan {
    /// The clique's predicates, aligned with `term`.
    preds: Vec<String>,
    /// Evaluation statements run once, first; their affected counts are
    /// new derived tuples.
    exit: Vec<String>,
    /// Temp-table DDL run once, after `exit`.
    setup: Vec<String>,
    /// Evaluation statements run once, after `setup`; they install nothing
    /// into the accumulated tables.
    init: Vec<String>,
    /// Prepared temp-table recycling at the top of every iteration.
    recycle_eval: Vec<String>,
    /// Prepared evaluation statements of every iteration.
    eval: Vec<String>,
    /// Prepared temp-table recycling between `eval` and `term`.
    recycle_term: Vec<String>,
    /// Prepared termination checks, one per predicate: the affected count
    /// is that predicate's genuinely new tuples, and the fixpoint is
    /// reached when all are zero.
    term: Vec<String>,
    /// Prepared evaluation statements run after `term` in every iteration
    /// that found something new.
    fold: Vec<String>,
    /// Temp-table DDL run once the loop is over, however it ended.
    teardown: Vec<String>,
}

/// Naive LFP: every iteration recomputes the full RHS of every rule of the
/// clique — exit rules included — into the candidate tables, and the
/// termination check folds the genuinely new tuples straight into the
/// accumulated tables. Novelty is decided by probing a full-key index on
/// the accumulated table ([`termination_sql`]), not by re-scanning it.
fn naive_plan(
    ns: &str,
    types: &BTreeMap<&str, &[AttrType]>,
    exit_rules: &[RuleSql],
    recursive_rules: &[RuleSql],
) -> CliquePlan {
    let mut plan = CliquePlan::default();
    for (p, tys) in types {
        let (all, new) = (all_table(ns, p), new_table(ns, p));
        plan.preds.push(p.to_string());
        plan.setup.push(format!("DROP TABLE IF EXISTS {new}"));
        plan.setup.push(create_table_sql(&new, tys));
        if !tys.is_empty() {
            plan.setup.push(term_index_sql(&all, tys.len()));
        }
        plan.recycle_eval.push(format!("TRUNCATE TABLE {new}"));
        plan.term.push(termination_sql(&all, &new, &all, tys.len()));
        plan.teardown.push(format!("DROP TABLE {new}"));
    }
    for rule in exit_rules.iter().chain(recursive_rules) {
        plan.eval.push(format!(
            "INSERT INTO {} {}",
            new_table(ns, &rule.head_pred),
            rule.full_sql
        ));
    }
    plan
}

/// Semi-naive LFP: the exit rules (and any seeds already present)
/// initialize the accumulated and delta tables, then every iteration
/// evaluates the differential variants against the previous delta. The
/// termination check ([`termination_sql`]) inserts the genuinely new
/// tuples straight into the next delta via an index-probing `NOT EXISTS`
/// anti-join — only their count crosses the SQL boundary — and the fold
/// appends that delta to the accumulated table.
fn seminaive_plan(
    ns: &str,
    types: &BTreeMap<&str, &[AttrType]>,
    exit_rules: &[RuleSql],
    recursive_rules: &[RuleSql],
) -> CliquePlan {
    let mut plan = CliquePlan::default();
    for rule in exit_rules {
        plan.exit.push(insert_new_sql(
            &all_table(ns, &rule.head_pred),
            &rule.full_sql,
        ));
    }
    for (p, tys) in types {
        let (all, new, delta) = (all_table(ns, p), new_table(ns, p), delta_table(ns, p));
        plan.preds.push(p.to_string());
        plan.setup.push(format!("DROP TABLE IF EXISTS {new}"));
        plan.setup.push(create_table_sql(&new, tys));
        plan.setup.push(format!("DROP TABLE IF EXISTS {delta}"));
        plan.setup.push(create_table_sql(&delta, tys));
        if !tys.is_empty() {
            plan.setup.push(term_index_sql(&all, tys.len()));
        }
        // delta := current accumulated contents (exit results + seeds).
        plan.init
            .push(format!("INSERT INTO {delta} SELECT * FROM {all}"));
        plan.recycle_eval.push(format!("TRUNCATE TABLE {new}"));
        plan.recycle_term.push(format!("TRUNCATE TABLE {delta}"));
        plan.term
            .push(termination_sql(&delta, &new, &all, tys.len()));
        plan.fold
            .push(format!("INSERT INTO {all} SELECT * FROM {delta}"));
        plan.teardown.push(format!("DROP TABLE {new}"));
        plan.teardown.push(format!("DROP TABLE {delta}"));
    }
    for rule in recursive_rules {
        for variant in &rule.delta_variants {
            plan.eval.push(format!(
                "INSERT INTO {} {variant}",
                new_table(ns, &rule.head_pred)
            ));
        }
    }
    plan
}

fn run_all(db: &mut Engine, sqls: &[String]) -> Result<(), KmError> {
    for sql in sqls {
        db.execute(sql)?;
    }
    Ok(())
}

fn run_prepared(db: &mut Engine, stmts: &[StmtId]) -> Result<(), KmError> {
    for id in stmts {
        db.execute_prepared(*id, &[])?;
    }
    Ok(())
}

/// Compile `sqls`, recording each handle in `open` the moment it exists so
/// the caller can release it even when a later statement fails to parse.
fn prepare_all(
    db: &mut Engine,
    sqls: &[String],
    open: &mut Vec<StmtId>,
) -> Result<Vec<StmtId>, KmError> {
    let from = open.len();
    for sql in sqls {
        open.push(db.prepare(sql)?);
    }
    Ok(open[from..].to_vec())
}

/// The embedded-SQL LFP loop: run `plan` to its fixpoint. Temp tables are
/// created once and recycled with TRUNCATE, and every per-iteration
/// statement is compiled once (parse + plan) before the loop — all DDL for
/// the clique is done by then, so the cached plans stay valid across it
/// (TRUNCATE does not invalidate them). Only affected counts cross the SQL
/// boundary.
fn eval_clique(
    db: &mut Engine,
    plan: &CliquePlan,
    ctl: &EvalCtl,
) -> Result<(LfpBreakdown, Vec<IterationTrace>), KmError> {
    let mut b = LfpBreakdown::default();
    let mut traces = Vec::new();
    let mut open = Vec::new();
    let fixpoint = (|| -> Result<(), KmError> {
        let t = Instant::now();
        let mut exit_added = 0;
        for sql in &plan.exit {
            exit_added += db.execute(sql)?.affected;
        }
        b.t_eval_rhs += t.elapsed();
        b.n_eval_stmts += plan.exit.len() as u64;
        b.tuples_produced += exit_added;
        ctl.charge_facts(exit_added)
            .map_err(|br| budget_err(br, clique_partial(&plan.preds, &b, &mut traces)))?;

        timed(&mut b.t_temp_tables, || run_all(db, &plan.setup))?;
        b.n_temp_ops += plan.setup.len() as u64;
        timed(&mut b.t_eval_rhs, || run_all(db, &plan.init))?;
        b.n_eval_stmts += plan.init.len() as u64;

        let eval = timed(&mut b.t_eval_rhs, || prepare_all(db, &plan.eval, &mut open))?;
        let t = Instant::now();
        let recycle_eval = prepare_all(db, &plan.recycle_eval, &mut open)?;
        let recycle_term = prepare_all(db, &plan.recycle_term, &mut open)?;
        b.t_temp_tables += t.elapsed();
        let t = Instant::now();
        let term = prepare_all(db, &plan.term, &mut open)?;
        let fold = prepare_all(db, &plan.fold, &mut open)?;
        b.t_termination += t.elapsed();

        loop {
            b.iterations += 1;
            ctl.check_iters(b.iterations)
                .map_err(|br| budget_err(br, clique_partial(&plan.preds, &b, &mut traces)))?;
            let iter_start = Instant::now();
            let snap = StatSnap::take(db);

            let mut d_temp = Duration::ZERO;
            let mut d_eval = Duration::ZERO;
            timed(&mut d_temp, || run_prepared(db, &recycle_eval))?;
            timed(&mut d_eval, || run_prepared(db, &eval))?;
            timed(&mut d_temp, || run_prepared(db, &recycle_term))?;

            let t = Instant::now();
            let mut delta_cards = Vec::with_capacity(term.len());
            let mut new_tuples = 0;
            for (p, id) in plan.preds.iter().zip(&term) {
                let n = db.execute_prepared(*id, &[])?.affected;
                delta_cards.push((p.clone(), n));
                new_tuples += n;
            }
            let d_term = t.elapsed();
            let done = new_tuples == 0;
            if !done {
                timed(&mut d_eval, || run_prepared(db, &fold))?;
                b.n_eval_stmts += fold.len() as u64;
            }

            b.n_temp_ops += (recycle_eval.len() + recycle_term.len()) as u64;
            b.n_eval_stmts += eval.len() as u64;
            b.n_term_checks += term.len() as u64;
            b.tuples_produced += new_tuples;
            b.t_temp_tables += d_temp;
            b.t_eval_rhs += d_eval;
            b.t_termination += d_term;
            let mut iter = snap.finish(db);
            iter.iteration = b.iterations;
            iter.delta_cards = delta_cards;
            iter.t_temp = d_temp;
            iter.t_eval = d_eval;
            iter.t_term = d_term;
            iter.t_total = iter_start.elapsed();
            traces.push(iter);
            ctl.charge_facts(new_tuples)
                .map_err(|br| budget_err(br, clique_partial(&plan.preds, &b, &mut traces)))?;
            if done {
                return Ok(());
            }
        }
    })();

    // Teardown runs however the fixpoint ended, so an aborted evaluation
    // strands neither temp tables nor prepared handles in the engine. An
    // abort may have struck before `setup` finished, so only a completed
    // fixpoint reports a teardown failure.
    let t = Instant::now();
    let mut closed = Ok(());
    for sql in &plan.teardown {
        closed = closed.and(db.execute(sql).map(drop));
    }
    b.t_temp_tables += t.elapsed();
    b.n_temp_ops += plan.teardown.len() as u64;
    for id in open {
        closed = closed.and(db.deallocate(id));
    }
    fixpoint?;
    closed?;
    Ok((b, traces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::{generate, CodegenEnv};
    use hornlog::evalgraph::evaluation_order;
    use hornlog::parser::{parse_program, parse_query};
    use hornlog::types::TypeMap;
    use std::collections::BTreeSet;

    /// Build an engine with a `parent` base relation forming a chain
    /// a0 -> a1 -> ... -> a{n-1}.
    fn chain_engine(n: usize) -> Engine {
        let mut db = Engine::new();
        db.execute("CREATE TABLE parent (c0 char, c1 char)")
            .unwrap();
        let rows: Vec<Vec<Value>> = (0..n - 1)
            .map(|i| {
                vec![
                    Value::from(format!("a{i}")),
                    Value::from(format!("a{}", i + 1)),
                ]
            })
            .collect();
        db.insert_rows("parent", rows).unwrap();
        db
    }

    fn ancestor_program(query: &str) -> (hornlog::Program, hornlog::Clause) {
        let mut program = parse_program(
            "anc(X, Y) :- parent(X, Y).\n\
             anc(X, Y) :- parent(X, Z), anc(Z, Y).\n",
        )
        .unwrap();
        let q = parse_query(query).unwrap();
        program.push(q.clone());
        (program, q)
    }

    fn compile(program: &hornlog::Program, db: &Engine) -> EvalProgram {
        compile_ns(program, db, "")
    }

    fn compile_ns(program: &hornlog::Program, db: &Engine, ns: &str) -> EvalProgram {
        let mut types = TypeMap::new();
        types.insert("parent".into(), vec![AttrType::Sym, AttrType::Sym]);
        types.insert("anc".into(), vec![AttrType::Sym, AttrType::Sym]);
        let arity = program
            .clauses
            .iter()
            .find(|c| c.head.predicate == "_query")
            .map(|c| c.head.arity())
            .unwrap_or(0);
        types.insert("_query".into(), vec![AttrType::Sym; arity]);
        let base: BTreeSet<String> = ["parent".to_string()].into();
        let cols: std::collections::BTreeMap<String, Vec<String>> = [(
            "parent".to_string(),
            db.table_schema("parent")
                .unwrap()
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect(),
        )]
        .into();
        let env = CodegenEnv {
            types: &types,
            base_preds: &base,
            base_columns: &cols,
            ns,
        };
        let order = evaluation_order(program).unwrap();
        generate(&order, &[], "_query", &env).unwrap()
    }

    #[test]
    fn namespaced_program_evaluates_and_cleans_up() {
        let mut db = chain_engine(6);
        let (program, _) = ancestor_program("?- anc(A, B).");
        let namespaced = compile_ns(&program, &db, "s42_");
        let before = db.table_names();
        let out = run_program(&mut db, &namespaced, LfpStrategy::SemiNaive).unwrap();
        assert_eq!(db.table_names(), before, "no leaked namespaced temporaries");
        let plain = compile(&program, &db);
        let base = run_program(&mut db, &plain, LfpStrategy::SemiNaive).unwrap();
        assert_eq!(out.rows, base.rows);
    }

    #[test]
    fn seminaive_computes_full_transitive_closure() {
        let mut db = chain_engine(6);
        let (program, _) = ancestor_program("?- anc(A, B).");
        let prog = compile(&program, &db);
        let out = run_program(&mut db, &prog, LfpStrategy::SemiNaive).unwrap();
        // Chain of 6 nodes: C(6,2) = 15 ancestor pairs.
        assert_eq!(out.rows.len(), 15);
        assert!(
            out.breakdown.iterations >= 5,
            "chain depth forces iterations"
        );
    }

    #[test]
    fn naive_and_seminaive_agree() {
        let (program, _) = ancestor_program("?- anc(a0, W).");
        let mut db1 = chain_engine(8);
        let prog = compile(&program, &db1);
        let naive = run_program(&mut db1, &prog, LfpStrategy::Naive).unwrap();
        let mut db2 = chain_engine(8);
        let semi = run_program(&mut db2, &prog, LfpStrategy::SemiNaive).unwrap();
        assert_eq!(naive.rows, semi.rows);
        assert_eq!(naive.rows.len(), 7, "a0 has 7 descendants");
    }

    #[test]
    fn query_with_constant_restricts_result() {
        let mut db = chain_engine(5);
        let (program, _) = ancestor_program("?- anc(a2, W).");
        let prog = compile(&program, &db);
        let out = run_program(&mut db, &prog, LfpStrategy::SemiNaive).unwrap();
        assert_eq!(
            out.rows,
            vec![vec![Value::from("a3")], vec![Value::from("a4")]]
        );
    }

    #[test]
    fn temp_tables_are_cleaned_up() {
        let mut db = chain_engine(4);
        let (program, _) = ancestor_program("?- anc(A, B).");
        let prog = compile(&program, &db);
        let before: Vec<String> = db.table_names();
        run_program(&mut db, &prog, LfpStrategy::SemiNaive).unwrap();
        assert_eq!(db.table_names(), before, "no leaked temporaries");
    }

    #[test]
    fn breakdown_counters_are_populated() {
        let mut db = chain_engine(6);
        let (program, _) = ancestor_program("?- anc(A, B).");
        let prog = compile(&program, &db);
        let out = run_program(&mut db, &prog, LfpStrategy::SemiNaive).unwrap();
        let b = &out.breakdown;
        assert!(b.n_temp_ops > 0);
        assert!(b.n_eval_stmts > 0);
        assert!(b.n_term_checks > 0);
        assert!(b.tuples_produced >= 15);
        assert!(b.total_time() > Duration::ZERO);
        assert_eq!(out.node_timings.len(), 2);
        assert!(out.node_timings[0].is_clique);
        assert!(!out.node_timings[0].is_magic);
    }

    #[test]
    fn cyclic_data_terminates() {
        // parent forms a cycle: a -> b -> c -> a.
        let mut db = Engine::new();
        db.execute("CREATE TABLE parent (c0 char, c1 char)")
            .unwrap();
        db.insert_rows(
            "parent",
            vec![
                vec![Value::from("a"), Value::from("b")],
                vec![Value::from("b"), Value::from("c")],
                vec![Value::from("c"), Value::from("a")],
            ],
        )
        .unwrap();
        let (program, _) = ancestor_program("?- anc(A, B).");
        let prog = compile(&program, &db);
        for strategy in [LfpStrategy::Naive, LfpStrategy::SemiNaive] {
            let out = run_program(&mut db, &prog, strategy).unwrap();
            assert_eq!(out.rows.len(), 9, "full 3x3 closure on a cycle");
        }
    }

    #[test]
    fn empty_base_relation_yields_empty_answer() {
        let mut db = Engine::new();
        db.execute("CREATE TABLE parent (c0 char, c1 char)")
            .unwrap();
        let (program, _) = ancestor_program("?- anc(A, B).");
        let prog = compile(&program, &db);
        let out = run_program(&mut db, &prog, LfpStrategy::SemiNaive).unwrap();
        assert!(out.rows.is_empty());
    }

    #[test]
    fn lfp_compiles_statements_once() {
        let mut db = chain_engine(8);
        let (program, _) = ancestor_program("?- anc(A, B).");
        let prog = compile(&program, &db);
        let out = run_program(&mut db, &prog, LfpStrategy::SemiNaive).unwrap();
        assert!(out.breakdown.iterations >= 6);
        let stats = db.stats().exec;
        // One clique over `anc` with one delta variant: the eval statement,
        // the termination INSERT…EXCEPT and the delta-fold each plan
        // exactly once; every later iteration is a cache hit.
        assert_eq!(
            stats.plan_cache_misses, 3,
            "statements compile once per LFP call"
        );
        // Eval and termination run every iteration, the fold on all but the
        // last: everything after the first round hits the cache.
        assert_eq!(
            stats.plan_cache_hits,
            2 * out.breakdown.iterations + (out.breakdown.iterations - 1) - 3,
            "every re-execution reuses its cached plan"
        );
    }

    #[test]
    fn clique_traces_account_for_wall_time() {
        let (program, _) = ancestor_program("?- anc(A, B).");
        for strategy in [LfpStrategy::Naive, LfpStrategy::SemiNaive] {
            let mut db = chain_engine(8);
            let prog = compile(&program, &db);
            let out = run_program(&mut db, &prog, strategy).unwrap();
            assert_eq!(out.clique_traces.len(), 1, "one clique over anc");
            let trace = &out.clique_traces[0];
            assert!(trace.predicates.contains(&"anc".to_string()));
            assert!(!trace.is_magic);
            assert_eq!(trace.iterations.len() as u64, out.breakdown.iterations);
            // Iteration wall times plus setup reconstruct the clique
            // total exactly (t_setup is defined as the remainder).
            let sum: Duration =
                trace.t_setup + trace.iterations.iter().map(|i| i.t_total).sum::<Duration>();
            assert!(sum <= trace.total);
            assert!(trace.total - sum < Duration::from_millis(1));
            // The last iteration finds nothing new; earlier ones do.
            let cards: Vec<u64> = trace
                .iterations
                .iter()
                .map(|i| i.delta_cards.iter().map(|(_, n)| n).sum())
                .collect();
            assert_eq!(*cards.last().unwrap(), 0, "final round is empty");
            assert!(cards[..cards.len() - 1].iter().all(|&n| n > 0));
            // Iteration numbers are 1-based and consecutive.
            for (i, iter) in trace.iterations.iter().enumerate() {
                assert_eq!(iter.iteration, i as u64 + 1);
                assert!(iter.statements > 0);
            }
            // After the first round every statement reuses its plan.
            assert!(trace.iterations[1..]
                .iter()
                .all(|i| i.plan_cache_misses == 0 && i.plan_cache_hits > 0));
        }
    }

    /// The Fig 11 tree at `depth` with the ancestor rules loaded.
    fn fig11_session(depth: u32, config: crate::session::SessionConfig) -> crate::session::Session {
        let mut s = crate::session::Session::new(config).unwrap();
        s.define_base("parent", &crate::session::binary_sym())
            .unwrap();
        s.db_execute("CREATE INDEX parent_c0 ON parent (c0)")
            .unwrap();
        s.load_facts(
            "parent",
            workload::edges_to_rows(&workload::full_binary_tree(depth)),
        )
        .unwrap();
        s.load_rules(&workload::ancestor_program("parent")).unwrap();
        s
    }

    /// The statement sequence of the Fig 11 tree at depth 6: counts per
    /// Table 5 category and per-iteration statement totals, as recorded
    /// from commit 4c4654c, less the three temp-table operations (DROP IF
    /// EXISTS, CREATE, DROP) the result predicate's table used to cost —
    /// it has none now, so the only tables an execution creates are the
    /// clique's. One statement more, fewer, or charged to another category
    /// changes a number here.
    #[test]
    fn statement_sequence_matches_recorded_counts() {
        use crate::session::SessionConfig;
        // (strategy, [iterations, n_temp_ops, n_eval_stmts, n_term_checks],
        // per-iteration statements, tables created: d_anc, new_anc and —
        // semi-naive only — delta_anc)
        let golden: [(LfpStrategy, [u64; 4], &[u64], u64); 2] = [
            (LfpStrategy::Naive, [6, 13, 13, 6], &[4, 4, 4, 4, 4, 4], 2),
            (LfpStrategy::SemiNaive, [5, 20, 12, 5], &[5, 5, 5, 5, 4], 3),
        ];
        for (strategy, counts, per_iteration, tables) in golden {
            let mut s = fig11_session(
                6,
                SessionConfig {
                    strategy,
                    ..SessionConfig::default()
                },
            );
            let created = s.engine().stats().tables_created;
            let (_, r) = s.query("?- anc(n1, W).").unwrap();
            assert_eq!(r.rows.len(), 62, "{strategy:?}");
            assert_eq!(
                s.engine().stats().tables_created - created,
                tables,
                "{strategy:?}: no table for the result predicate"
            );
            let b = r.outcome.breakdown;
            assert_eq!(
                [b.iterations, b.n_temp_ops, b.n_eval_stmts, b.n_term_checks],
                counts,
                "{strategy:?}"
            );
            assert_eq!(b.tuples_produced, 320, "{strategy:?}");
            assert_eq!(r.outcome.clique_traces.len(), 1);
            let statements: Vec<u64> = r.outcome.clique_traces[0]
                .iterations
                .iter()
                .map(|i| i.statements)
                .collect();
            assert_eq!(statements, per_iteration, "{strategy:?}");
        }
    }

    /// Evaluation-order nodes run one after another, so their wall times
    /// nest inside the evaluation's: with magic sets on the program has
    /// several nodes that do not read each other, and they still sum to no
    /// more than the total.
    #[test]
    fn node_times_sum_to_at_most_the_total() {
        use crate::session::SessionConfig;
        for strategy in [LfpStrategy::Naive, LfpStrategy::SemiNaive] {
            for optimize in [false, true] {
                let mut s = fig11_session(
                    6,
                    SessionConfig {
                        strategy,
                        optimize,
                        ..SessionConfig::default()
                    },
                );
                let (_, r) = s.query("?- anc(n1, W).").unwrap();
                assert_eq!(r.rows.len(), 62, "{strategy:?} optimize={optimize}");
                let nodes = &r.outcome.node_timings;
                assert!(nodes.len() >= if optimize { 3 } else { 2 });
                let sum: Duration = nodes.iter().map(|n| n.elapsed).sum();
                assert!(
                    sum <= r.outcome.total,
                    "{strategy:?} optimize={optimize}: nodes {sum:?} > total {:?}",
                    r.outcome.total
                );
            }
        }
    }

    #[test]
    fn lfp_recycles_temp_tables() {
        let mut db = chain_engine(6);
        let created_before = db.stats().tables_created;
        let (program, _) = ancestor_program("?- anc(A, B).");
        let prog = compile(&program, &db);
        let out = run_program(&mut db, &prog, LfpStrategy::SemiNaive).unwrap();
        let per_run = db.stats().tables_created - created_before;
        // d_anc, new_anc, delta_anc: one CREATE each, regardless of
        // iteration count.
        assert_eq!(per_run, 3, "temp tables are recycled, not recreated");
        assert!(out.breakdown.iterations >= 5);
    }

    /// Unwrap a governed failure into its budget fields.
    fn budget_parts(e: KmError) -> (EvalResource, u64, u64, PartialProgress) {
        match e {
            KmError::Eval(boxed) => {
                let EvalError::Budget {
                    resource,
                    limit,
                    used,
                    partial,
                } = *boxed;
                (resource, limit, used, *partial)
            }
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    /// Prepared statements currently held open in the engine.
    fn prepared_open(db: &Engine) -> f64 {
        db.metrics().gauge_value("engine.prepared_open").unwrap()
    }

    #[test]
    fn iteration_budget_trips_with_partial_traces() {
        for strategy in [LfpStrategy::Naive, LfpStrategy::SemiNaive] {
            let mut db = chain_engine(10);
            let (program, _) = ancestor_program("?- anc(A, B).");
            let prog = compile(&program, &db);
            let before = db.table_names();
            let limits = EvalLimits {
                max_iterations: Some(2),
                ..EvalLimits::default()
            };
            let err = run_program_governed(&mut db, &prog, strategy, false, &limits).unwrap_err();
            let (resource, limit, used, partial) = budget_parts(err);
            assert_eq!(resource, EvalResource::Iterations, "{strategy:?}");
            assert_eq!(limit, 2);
            assert_eq!(used, 3, "tripped entering iteration 3");
            // The two admitted iterations are reported via the trace
            // machinery, and they did real work.
            let clique = partial
                .clique_traces
                .last()
                .expect("failing clique contributes a trace");
            assert_eq!(clique.iterations.len(), 2);
            assert!(clique.iterations.iter().all(|i| i.statements > 0));
            assert!(partial.breakdown.tuples_produced > 0);
            // The engine keeps serving; neither temporaries nor prepared
            // handles leak.
            assert_eq!(db.table_names(), before, "temp tables dropped");
            assert_eq!(prepared_open(&db), 0.0, "{strategy:?}: handles released");
            assert!(db.execute("SELECT * FROM parent").is_ok());
        }
    }

    #[test]
    fn derived_fact_budget_trips() {
        for strategy in [LfpStrategy::Naive, LfpStrategy::SemiNaive] {
            let mut db = chain_engine(10);
            let (program, _) = ancestor_program("?- anc(A, B).");
            let prog = compile(&program, &db);
            let limits = EvalLimits {
                max_derived_facts: Some(12),
                ..EvalLimits::default()
            };
            let err = run_program_governed(&mut db, &prog, strategy, false, &limits).unwrap_err();
            let (resource, limit, used, partial) = budget_parts(err);
            assert_eq!(resource, EvalResource::DerivedFacts);
            assert_eq!(limit, 12);
            assert!(used > 12, "charge observed the overshoot");
            assert!(!partial.clique_traces.is_empty());
            assert_eq!(prepared_open(&db), 0.0, "{strategy:?}: handles released");
            assert!(db.execute("SELECT * FROM parent").is_ok());
        }
    }

    /// The answer rows count against the derived-fact budget although no
    /// table receives them: a budget the clique's 45 pairs fit in trips on
    /// the result node's 45 more.
    #[test]
    fn derived_fact_budget_trips_on_the_answer() {
        for strategy in [LfpStrategy::Naive, LfpStrategy::SemiNaive] {
            let mut db = chain_engine(10);
            let (program, _) = ancestor_program("?- anc(A, B).");
            let prog = compile(&program, &db);
            let before = db.table_names();
            let limits = EvalLimits {
                max_derived_facts: Some(60),
                ..EvalLimits::default()
            };
            let err = run_program_governed(&mut db, &prog, strategy, false, &limits).unwrap_err();
            let (resource, limit, used, partial) = budget_parts(err);
            assert_eq!(resource, EvalResource::DerivedFacts, "{strategy:?}");
            assert_eq!((limit, used), (60, 90));
            // The clique ran to its fixpoint; the result node's rows are in
            // the breakdown but the node did not complete.
            assert_eq!(partial.node_timings.len(), 1);
            assert!(partial.node_timings[0].is_clique);
            assert_eq!(partial.breakdown.tuples_produced, 90);
            assert_eq!(db.table_names(), before, "temp tables dropped");
            assert_eq!(prepared_open(&db), 0.0, "{strategy:?}: handles released");
            let out = run_program(&mut db, &prog, strategy).unwrap();
            assert_eq!(out.rows.len(), 45);
        }
    }

    #[test]
    fn zero_deadline_trips_before_divergence() {
        // A deadline of zero must abort on the very first check — whether
        // the km loop or an engine statement observes it first.
        let mut db = chain_engine(6);
        let (program, _) = ancestor_program("?- anc(A, B).");
        let prog = compile(&program, &db);
        let limits = EvalLimits {
            deadline: Some(Duration::ZERO),
            ..EvalLimits::default()
        };
        let err = run_program_governed(&mut db, &prog, LfpStrategy::SemiNaive, false, &limits)
            .unwrap_err();
        let (resource, _, _, _) = budget_parts(err);
        assert_eq!(resource, EvalResource::Deadline);
        // The eval deadline is cleared on exit: the engine serves again.
        assert!(db.execute("SELECT * FROM parent").is_ok());
    }

    #[test]
    fn governed_without_limits_matches_ungoverned() {
        let (program, _) = ancestor_program("?- anc(A, B).");
        let mut db1 = chain_engine(8);
        let prog = compile(&program, &db1);
        let plain = run_program(&mut db1, &prog, LfpStrategy::SemiNaive).unwrap();
        let mut db2 = chain_engine(8);
        let governed = run_program_governed(
            &mut db2,
            &prog,
            LfpStrategy::SemiNaive,
            false,
            &EvalLimits::default(),
        )
        .unwrap();
        assert_eq!(plain.rows, governed.rows);
    }

    #[test]
    fn engine_cancellation_surfaces_as_eval_budget() {
        // DDL and TRUNCATE do not poll the cancel flag, so the naive loop
        // is inside its first iteration, statements compiled, when the
        // breach surfaces; semi-naive trips on its first exit rule.
        for strategy in [LfpStrategy::Naive, LfpStrategy::SemiNaive] {
            let mut db = chain_engine(8);
            let (program, _) = ancestor_program("?- anc(A, B).");
            let prog = compile(&program, &db);
            db.cancel();
            let err = run_program_governed(&mut db, &prog, strategy, false, &EvalLimits::default())
                .unwrap_err();
            let (resource, _, _, _) = budget_parts(err);
            assert_eq!(resource, EvalResource::Canceled);
            assert_eq!(prepared_open(&db), 0.0, "{strategy:?}: handles released");
            // The governed exit acknowledged the cancellation: a clean
            // re-run succeeds and yields the full answer.
            let out = run_program(&mut db, &prog, strategy).unwrap();
            assert_eq!(out.rows.len(), 28);
        }
    }

    #[test]
    fn seeds_feed_evaluation() {
        let mut db = chain_engine(3);
        let (mut program, _) = ancestor_program("?- anc(A, B).");
        // Add a workspace fact for a derived-table predicate: an extra
        // parent edge cannot go into the stored base relation here, so
        // seed anc directly.
        program.push(hornlog::parse_clause("anc(zz, a0).").unwrap());
        let mut types = TypeMap::new();
        types.insert("parent".into(), vec![AttrType::Sym, AttrType::Sym]);
        types.insert("anc".into(), vec![AttrType::Sym, AttrType::Sym]);
        types.insert("_query".into(), vec![AttrType::Sym, AttrType::Sym]);
        let base: BTreeSet<String> = ["parent".to_string()].into();
        let cols: std::collections::BTreeMap<String, Vec<String>> = [(
            "parent".to_string(),
            vec!["c0".to_string(), "c1".to_string()],
        )]
        .into();
        let env = CodegenEnv {
            types: &types,
            base_preds: &base,
            base_columns: &cols,
            ns: "",
        };
        let rules_only = hornlog::Program::new(
            program
                .clauses
                .iter()
                .filter(|c| !c.is_fact())
                .cloned()
                .collect(),
        );
        let order = evaluation_order(&rules_only).unwrap();
        let seeds: Vec<hornlog::Clause> = program
            .clauses
            .iter()
            .filter(|c| c.is_fact())
            .cloned()
            .collect();
        let prog = generate(&order, &seeds, "_query", &env).unwrap();
        let out = run_program(&mut db, &prog, LfpStrategy::SemiNaive).unwrap();
        // The seeded tuple itself is part of the answer (the left-linear
        // rule cannot extend it leftward, since no parent edge leaves zz).
        assert!(out
            .rows
            .contains(&vec![Value::from("zz"), Value::from("a0")]));
        // And ordinary chain pairs are still derived.
        assert!(out
            .rows
            .contains(&vec![Value::from("a0"), Value::from("a2")]));
    }
}
