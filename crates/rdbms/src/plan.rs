//! Physical planner: consumes the bound, rewritten query block produced by
//! [`crate::rewrite`] and makes the physical decisions — join order, join
//! method, access path — from the cost model in [`crate::cost`].
//!
//! The planner implements the access-path and join decisions the paper's
//! experiments depend on:
//!
//! * **Index selection** — a relation restricted by constant equalities on
//!   all key columns of some index is read with an index lookup instead of a
//!   scan. This is why `t_extract` and `t_read` stay flat as the stored rule
//!   base / dictionary grows (Figures 7 and 9).
//! * **Index nested-loop vs hash joins** — when the relation being joined in
//!   has an index covering the join columns, the planner costs probing that
//!   index per outer row against building the inner side into a hash table,
//!   using live cardinality estimates (Figure 8's join-selectivity
//!   sensitivity; Figure 12's accumulated-relation joins).
//! * **Cost-based join ordering** — exhaustive for 2–3 way joins, greedy
//!   beyond, driven by live row counts and index directories' distinct
//!   counts; the flat `1/20` / `1/3` selectivities survive only as
//!   `cost.rs`'s fallback for a column no index covers.
//!
//! There is one pipeline (DESIGN §18 "Why there is one planner"): bind
//! (`rewrite::build_block`) → predicate pushdown → projection pruning →
//! `cost::join_order` → access path / join method.

use crate::catalog::{Catalog, DbError, Table};
use crate::cost;
use crate::rewrite::{
    self, resolve_col, Binding, LocalCond, Resolved, ResolvedCond, RewriteReport,
};
use crate::sql::ast::*;
use crate::value::{ColType, Value};
use std::collections::HashSet;

/// A resolved condition over a flat row layout (column positions are
/// absolute offsets into the combined row).
#[derive(Debug, Clone, PartialEq)]
pub enum ExecCond {
    ColCmpCol(usize, CmpOp, usize),
    ColCmpLit(usize, CmpOp, Value),
    /// Column compared against the `?` placeholder with the given ordinal;
    /// the value is taken from the parameter vector at execution time.
    ColCmpParam(usize, CmpOp, usize),
    InList(usize, Vec<Value>),
}

/// One component of an index-lookup key: a literal fixed at plan time, or a
/// parameter resolved against the bind vector at execution time. Keeping
/// parameters in keys lets `col = ?` predicates retain their index access
/// path across executions of a cached plan.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyExpr {
    Lit(Value),
    Param(usize),
}

impl std::fmt::Display for KeyExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyExpr::Lit(v) => write!(f, "{v}"),
            KeyExpr::Param(p) => write!(f, "?{p}"),
        }
    }
}

/// A resolved projection expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ProjExpr {
    Col(usize),
    Lit(Value),
}

/// Physical plan operators.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysPlan {
    /// Full scan of a base table with pushed-down filters (positions are
    /// local to the table's schema).
    SeqScan {
        table: String,
        filters: Vec<ExecCond>,
    },
    /// Exact-match index lookup: every key of `keys` is probed, in list
    /// order — one key for an equality, the distinct list values for an
    /// `IN`. `residual` filters run on fetched rows.
    IndexLookup {
        table: String,
        index_pos: usize,
        keys: Vec<Vec<KeyExpr>>,
        residual: Vec<ExecCond>,
    },
    /// Hash join on equi-key columns; `residual` runs on joined rows using
    /// combined-layout positions.
    HashJoin {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        residual: Vec<ExecCond>,
    },
    /// Index nested-loop join: rows from `left` probe `index_pos` on
    /// `table`; `left_keys` are positions in the left layout, aligned with
    /// the index key columns. `inner_filters` use the inner table's local
    /// positions; `residual` uses combined positions.
    IndexNlJoin {
        left: Box<PhysPlan>,
        table: String,
        index_pos: usize,
        left_keys: Vec<usize>,
        inner_filters: Vec<ExecCond>,
        residual: Vec<ExecCond>,
    },
    /// Cartesian product with post-filters (combined positions).
    CrossJoin {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
        residual: Vec<ExecCond>,
    },
    /// Range scan over an ordered index: record ids whose key is within
    /// the bounds, with residual filters on fetched rows (local positions).
    IndexRange {
        table: String,
        index_pos: usize,
        lo: std::ops::Bound<Value>,
        hi: std::ops::Bound<Value>,
        residual: Vec<ExecCond>,
    },
    /// Anti-join implementing `NOT EXISTS`: child rows survive iff no row
    /// of `table` (after `inner_filters`, local positions) matches them on
    /// `outer_keys` = `inner_keys`. With no correlation keys the semantics
    /// degenerate to "inner relation empty". When `index_pos` is set, the
    /// correlation keys cover exactly that index's key and there are no
    /// inner filters: the executor probes the index per outer row instead
    /// of materializing the inner side.
    AntiJoin {
        child: Box<PhysPlan>,
        table: String,
        inner_filters: Vec<ExecCond>,
        outer_keys: Vec<usize>,
        inner_keys: Vec<usize>,
        index_pos: Option<usize>,
    },
    /// Row filter over any child (combined positions) — the fallback for
    /// residual conditions whose child operator has no residual slot.
    Filter {
        child: Box<PhysPlan>,
        conds: Vec<ExecCond>,
    },
    Project {
        child: Box<PhysPlan>,
        exprs: Vec<ProjExpr>,
    },
    Distinct {
        child: Box<PhysPlan>,
    },
    Sort {
        child: Box<PhysPlan>,
        keys: Vec<usize>,
    },
    CountStar {
        child: Box<PhysPlan>,
    },
    /// Hash aggregation for `SELECT <cols>, COUNT(*) ... GROUP BY <cols>`:
    /// emits one row per distinct key (combined-layout positions) with the
    /// group count appended.
    GroupCount {
        child: Box<PhysPlan>,
        keys: Vec<usize>,
    },
    UnionAll {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
    },
    UnionDistinct {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
    },
    Except {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
    },
}

impl PhysPlan {
    /// Render the operator tree as an indented EXPLAIN listing.
    pub fn explain(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut Vec<String>) {
        out.push(format!("{}{}", "  ".repeat(depth), self.label()));
        for child in self.children() {
            child.explain_into(depth + 1, out);
        }
    }

    /// One-line operator description — the unindented EXPLAIN line, also
    /// used to label nodes in the EXPLAIN ANALYZE profile.
    pub fn label(&self) -> String {
        let fmt_conds = |conds: &[ExecCond]| -> String {
            if conds.is_empty() {
                String::new()
            } else {
                format!(" [{} cond(s)]", conds.len())
            }
        };
        match self {
            PhysPlan::SeqScan { table, filters } => {
                format!("SeqScan {table}{}", fmt_conds(filters))
            }
            PhysPlan::IndexLookup {
                table,
                keys,
                residual,
                ..
            } => match keys.as_slice() {
                [key] => {
                    let key_str: Vec<String> = key.iter().map(|v| v.to_string()).collect();
                    format!(
                        "IndexLookup {table} key=({}){}",
                        key_str.join(", "),
                        fmt_conds(residual)
                    )
                }
                _ => format!(
                    "IndexLookup {table} [{} key(s)]{}",
                    keys.len(),
                    fmt_conds(residual)
                ),
            },
            PhysPlan::IndexRange {
                table,
                lo,
                hi,
                residual,
                ..
            } => {
                format!("IndexRange {table} {lo:?}..{hi:?}{}", fmt_conds(residual))
            }
            PhysPlan::HashJoin {
                left_keys,
                right_keys,
                residual,
                ..
            } => {
                format!(
                    "HashJoin on {left_keys:?}={right_keys:?}{}",
                    fmt_conds(residual)
                )
            }
            PhysPlan::IndexNlJoin {
                table,
                left_keys,
                residual,
                ..
            } => {
                format!(
                    "IndexNlJoin probe {table} keys={left_keys:?}{}",
                    fmt_conds(residual)
                )
            }
            PhysPlan::CrossJoin { residual, .. } => format!("CrossJoin{}", fmt_conds(residual)),
            PhysPlan::AntiJoin {
                table,
                outer_keys,
                inner_keys,
                inner_filters,
                index_pos,
                ..
            } => {
                let via = match index_pos {
                    Some(i) => format!(" probe index #{i}"),
                    None => String::new(),
                };
                format!(
                    "AntiJoin {table} on {outer_keys:?}={inner_keys:?}{via}{}",
                    fmt_conds(inner_filters)
                )
            }
            PhysPlan::Filter { conds, .. } => format!("Filter{}", fmt_conds(conds)),
            PhysPlan::Project { exprs, .. } => format!("Project [{} col(s)]", exprs.len()),
            PhysPlan::Distinct { .. } => "Distinct".to_string(),
            PhysPlan::Sort { keys, .. } => format!("Sort by {keys:?}"),
            PhysPlan::CountStar { .. } => "CountStar".to_string(),
            PhysPlan::GroupCount { keys, .. } => format!("GroupCount by {keys:?}"),
            PhysPlan::UnionAll { .. } => "UnionAll".to_string(),
            PhysPlan::UnionDistinct { .. } => "UnionDistinct".to_string(),
            PhysPlan::Except { .. } => "Except".to_string(),
        }
    }

    /// The operator's direct inputs, in execution order.
    pub fn children(&self) -> Vec<&PhysPlan> {
        match self {
            PhysPlan::SeqScan { .. }
            | PhysPlan::IndexLookup { .. }
            | PhysPlan::IndexRange { .. } => Vec::new(),
            PhysPlan::HashJoin { left, right, .. }
            | PhysPlan::CrossJoin { left, right, .. }
            | PhysPlan::UnionAll { left, right }
            | PhysPlan::UnionDistinct { left, right }
            | PhysPlan::Except { left, right } => vec![left, right],
            PhysPlan::IndexNlJoin { left, .. } => vec![left],
            PhysPlan::AntiJoin { child, .. }
            | PhysPlan::Filter { child, .. }
            | PhysPlan::Project { child, .. }
            | PhysPlan::Distinct { child }
            | PhysPlan::Sort { child, .. }
            | PhysPlan::CountStar { child }
            | PhysPlan::GroupCount { child, .. } => vec![child],
        }
    }
}

/// One statistics dependency of a plan: the live row count of a
/// referenced table when the planner made its decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatDep {
    /// Canonical table name.
    pub table: String,
    /// Live tuple count at plan time.
    pub rows: u64,
}

/// A planned query: the operator tree plus output column names, the
/// statistics snapshot the plan was derived from, and per-operator row
/// estimates.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    pub plan: PhysPlan,
    pub columns: Vec<String>,
    /// One entry per referenced table (FROM relations and `NOT EXISTS`
    /// inner tables, deduplicated), snapshotted at plan time. The engine
    /// compares these against live state before reusing a cached plan and
    /// re-plans when the tuple count drifts ≥2× in either direction — the
    /// fix for join orders frozen while LFP temporaries were still empty.
    pub stat_deps: Vec<StatDep>,
    /// Estimated output rows per operator in pre-order — the order
    /// [`PhysPlan::explain`] lists operators and the EXPLAIN ANALYZE
    /// profiler records them, so estimate and measurement zip by index.
    pub est_rows: Vec<u64>,
    /// Rewrite-rule application counts for this plan (summed over the arms
    /// of compound queries).
    pub rewrites: RewriteReport,
}

impl PlannedQuery {
    fn new(plan: PhysPlan, columns: Vec<String>) -> Self {
        PlannedQuery {
            plan,
            columns,
            stat_deps: Vec::new(),
            est_rows: Vec::new(),
            rewrites: RewriteReport::default(),
        }
    }
}

/// Plan a (possibly compound) query.
pub fn plan_query(catalog: &Catalog, query: &Query) -> Result<PlannedQuery, DbError> {
    let mut planned = plan_query_inner(catalog, query)?;
    planned.est_rows = cost::estimate_plan(catalog, &planned.plan);
    Ok(planned)
}

fn plan_query_inner(catalog: &Catalog, query: &Query) -> Result<PlannedQuery, DbError> {
    match query {
        Query::Select(block) => plan_select(catalog, block),
        Query::Union { left, right, all } => {
            let l = plan_query_inner(catalog, left)?;
            let r = plan_query_inner(catalog, right)?;
            check_compatible(&l, &r, "UNION")?;
            let (lp, rp) = (l.plan.clone(), r.plan.clone());
            let plan = if *all {
                PhysPlan::UnionAll {
                    left: Box::new(lp),
                    right: Box::new(rp),
                }
            } else {
                PhysPlan::UnionDistinct {
                    left: Box::new(lp),
                    right: Box::new(rp),
                }
            };
            Ok(merge_compound(plan, l, r))
        }
        Query::Except { left, right } => {
            let l = plan_query_inner(catalog, left)?;
            let r = plan_query_inner(catalog, right)?;
            check_compatible(&l, &r, "EXCEPT")?;
            // EXCEPT keeps the first occurrence of each left row itself, so
            // a DISTINCT directly beneath it would only hash every
            // candidate a second time.
            let left = match &l.plan {
                PhysPlan::Distinct { child } => child.clone(),
                other => Box::new(other.clone()),
            };
            let plan = PhysPlan::Except {
                left,
                right: Box::new(r.plan.clone()),
            };
            Ok(merge_compound(plan, l, r))
        }
    }
}

/// Combine the planned arms of a compound query: union their statistics
/// dependencies (deduplicated by table) and sum their rewrite reports.
fn merge_compound(plan: PhysPlan, l: PlannedQuery, r: PlannedQuery) -> PlannedQuery {
    let mut out = PlannedQuery::new(plan, l.columns);
    out.stat_deps = l.stat_deps;
    for d in r.stat_deps {
        if !out.stat_deps.iter().any(|e| e.table == d.table) {
            out.stat_deps.push(d);
        }
    }
    out.rewrites = l.rewrites;
    out.rewrites.absorb(r.rewrites);
    out
}

fn check_compatible(l: &PlannedQuery, r: &PlannedQuery, op: &str) -> Result<(), DbError> {
    if l.columns.len() != r.columns.len() {
        return Err(DbError::Plan(format!(
            "{op} arms have different arities ({} vs {})",
            l.columns.len(),
            r.columns.len()
        )));
    }
    Ok(())
}

/// One relation's contribution to the combined row layout of the join
/// pipeline: which FROM relation, and which of its columns survive (in
/// order). Projection pruning narrows `cols`; without pruning it is the
/// full `0..arity` range.
struct LayoutEntry {
    rel: usize,
    cols: Vec<usize>,
}

/// Absolute position of a resolved column in the current join layout.
fn pos_of(layout: &[LayoutEntry], r: Resolved) -> usize {
    let mut offset = 0;
    for e in layout {
        if e.rel == r.rel {
            let within = e
                .cols
                .iter()
                .position(|&c| c == r.col)
                .expect("column preserved by projection pruning");
            return offset + within;
        }
        offset += e.cols.len();
    }
    unreachable!("column's relation not yet in layout")
}

fn plan_select(catalog: &Catalog, block: &SelectBlock) -> Result<PlannedQuery, DbError> {
    // 1/2. Bind the FROM list and run the rewrite rules (predicate
    // pushdown, projection pruning).
    let rewrite::QueryBlock {
        bindings,
        local,
        joins,
        cross,
        anti,
        needed,
        report,
    } = rewrite::build_block(catalog, block)?;

    // Statistics snapshot for every referenced table.
    let mut stat_deps: Vec<StatDep> = Vec::new();
    for b in &bindings {
        push_stat_dep(catalog, &mut stat_deps, &b.table)?;
    }
    for (tref, _) in &anti {
        let name = catalog.table(&tref.table)?.name.clone();
        push_stat_dep(catalog, &mut stat_deps, &name)?;
    }

    // 3. Join order.
    let local_exec: Vec<Vec<ExecCond>> = local
        .iter()
        .map(|v| v.iter().map(local_to_exec).collect())
        .collect();
    let order = cost::join_order(catalog, &bindings, &local_exec, &joins);

    // Columns each relation feeds into the join pipeline, as narrowed by
    // projection pruning.
    let kept_cols = |rel: usize| -> Vec<usize> {
        match &needed[rel] {
            Some(cols) => cols.clone(),
            None => (0..bindings[rel].schema.arity()).collect(),
        }
    };
    let prune_wrap = |rel: usize, p: PhysPlan| -> PhysPlan {
        match &needed[rel] {
            Some(cols) => PhysPlan::Project {
                child: Box::new(p),
                exprs: cols.iter().map(|&c| ProjExpr::Col(c)).collect(),
            },
            None => p,
        }
    };

    // 4/5/6. Build the join tree with access paths.
    let mut layout: Vec<LayoutEntry> = Vec::new();
    let mut plan: Option<PhysPlan> = None;
    let mut pending_joins = joins.clone();
    let mut pending_cross = cross;
    // Running cardinality estimate of the built side; drives the
    // index-NL-vs-hash choice.
    let mut cur_est: f64 = 0.0;

    for &rel in &order {
        let rel_est = cost::est_table_rows(catalog, &bindings[rel].table, &local_exec[rel]);
        let next = if let Some(current) = plan.take() {
            // Join predicates between the current layout and `rel`, as
            // (outer, inner) resolved pairs.
            let mut pairs: Vec<(Resolved, Resolved)> = Vec::new();
            pending_joins.retain(|(a, b)| {
                let (inner, outer) = if a.rel == rel && layout.iter().any(|e| e.rel == b.rel) {
                    (a, b)
                } else if b.rel == rel && layout.iter().any(|e| e.rel == a.rel) {
                    (b, a)
                } else {
                    return true;
                };
                pairs.push((*outer, *inner));
                false
            });
            let left_keys: Vec<usize> = pairs.iter().map(|&(o, _)| pos_of(&layout, o)).collect();
            let right_keys: Vec<usize> = pairs.iter().map(|&(_, i)| i.col).collect();

            if left_keys.is_empty() {
                let right = prune_wrap(rel, access_path(catalog, &bindings[rel], &local[rel])?);
                cur_est = cur_est.max(0.05) * rel_est.max(0.05);
                layout.push(LayoutEntry {
                    rel,
                    cols: kept_cols(rel),
                });
                PhysPlan::CrossJoin {
                    left: Box::new(current),
                    right: Box::new(right),
                    residual: Vec::new(),
                }
            } else {
                let join_sel: f64 = pairs
                    .iter()
                    .map(|&(o, i)| {
                        cost::join_selectivity(
                            catalog,
                            (&bindings[o.rel].table, o.col),
                            (&bindings[i.rel].table, i.col),
                        )
                    })
                    .product();
                let inner = catalog.table(&bindings[rel].table)?;
                let index_choice = usable_join_index(inner, &right_keys)
                    .filter(|&pos| cost::prefer_index_nl(inner, pos, cur_est, rel_est));
                cur_est = (cur_est.max(0.05) * rel_est.max(0.05) * join_sel).max(0.05);
                if let Some(index_pos) = index_choice {
                    // Reorder left keys to match the index key-column order,
                    // consuming one join pair per index key column.
                    let idx_cols = inner.indexes[index_pos].key_cols();
                    let mut used = vec![false; right_keys.len()];
                    let mut ordered_left = Vec::with_capacity(idx_cols.len());
                    for kc in idx_cols {
                        let at = right_keys
                            .iter()
                            .enumerate()
                            .position(|(i, c)| !used[i] && c == kc)
                            .expect("covered");
                        used[at] = true;
                        ordered_left.push(left_keys[at]);
                    }
                    // Duplicate join predicates on the same inner column are
                    // not part of the probe key; they must still hold on the
                    // joined row, so they survive as residual equalities over
                    // the combined layout.
                    let left_width: usize = layout.iter().map(|e| e.cols.len()).sum();
                    let residual: Vec<ExecCond> = used
                        .iter()
                        .enumerate()
                        .filter(|&(_, consumed)| !consumed)
                        .map(|(i, _)| {
                            ExecCond::ColCmpCol(left_keys[i], CmpOp::Eq, left_width + right_keys[i])
                        })
                        .collect();
                    // The executor emits full inner tuples on a probe, so the
                    // inner side of an index NL join is never pruned.
                    layout.push(LayoutEntry {
                        rel,
                        cols: (0..bindings[rel].schema.arity()).collect(),
                    });
                    PhysPlan::IndexNlJoin {
                        left: Box::new(current),
                        table: bindings[rel].table.clone(),
                        index_pos,
                        left_keys: ordered_left,
                        inner_filters: local[rel].iter().map(local_to_exec).collect(),
                        residual,
                    }
                } else {
                    let right = prune_wrap(rel, access_path(catalog, &bindings[rel], &local[rel])?);
                    let kept = kept_cols(rel);
                    // Probe keys are positions in the (possibly pruned) right
                    // layout; pruning always keeps join columns.
                    let right_keys: Vec<usize> = right_keys
                        .iter()
                        .map(|c| {
                            kept.iter()
                                .position(|k| k == c)
                                .expect("join key preserved by pruning")
                        })
                        .collect();
                    layout.push(LayoutEntry { rel, cols: kept });
                    PhysPlan::HashJoin {
                        left: Box::new(current),
                        right: Box::new(right),
                        left_keys,
                        right_keys,
                        residual: Vec::new(),
                    }
                }
            }
        } else {
            cur_est = rel_est;
            let base = prune_wrap(rel, access_path(catalog, &bindings[rel], &local[rel])?);
            layout.push(LayoutEntry {
                rel,
                cols: kept_cols(rel),
            });
            base
        };
        plan = Some(next);

        // Attach any cross-residual conditions that are now fully bound.
        let bound: Vec<ResolvedCond> = {
            let mut now = Vec::new();
            pending_cross.retain(|c| {
                let ResolvedCond::ColCmpCol(a, _, b) = c;
                if layout.iter().any(|e| e.rel == a.rel) && layout.iter().any(|e| e.rel == b.rel) {
                    now.push(c.clone());
                    false
                } else {
                    true
                }
            });
            now
        };
        if !bound.is_empty() {
            let conds: Vec<ExecCond> = bound
                .iter()
                .map(|ResolvedCond::ColCmpCol(a, op, b)| {
                    ExecCond::ColCmpCol(pos_of(&layout, *a), *op, pos_of(&layout, *b))
                })
                .collect();
            plan = Some(attach_residual(plan.take().expect("plan built"), conds));
        }
    }
    debug_assert!(pending_joins.is_empty(), "all equi-joins consumed");
    let mut plan = plan.expect("FROM list is non-empty");

    // Anti-joins for each NOT EXISTS conjunct.
    for (tref, conds) in anti {
        plan = plan_anti_join(catalog, &bindings, &layout, plan, tref, conds)?;
    }

    // 7/8. Grouped aggregation, or projection + DISTINCT + ORDER BY.
    let mut planned = if !block.group_by.is_empty() {
        plan_group_count(&bindings, &layout, block, plan)?
    } else {
        plan_select_output(&bindings, &layout, block, plan)?
    };
    planned.stat_deps = stat_deps;
    planned.rewrites = report;
    Ok(planned)
}

fn push_stat_dep(catalog: &Catalog, deps: &mut Vec<StatDep>, table: &str) -> Result<(), DbError> {
    if deps.iter().any(|d| d.table == table) {
        return Ok(());
    }
    let t = catalog.table(table)?;
    deps.push(StatDep {
        table: t.name.clone(),
        rows: t.len(),
    });
    Ok(())
}

/// Sections 7'/8 of `plan_select`: projection, DISTINCT, ORDER BY.
fn plan_select_output(
    bindings: &[Binding],
    layout: &[LayoutEntry],
    block: &SelectBlock,
    mut plan: PhysPlan,
) -> Result<PlannedQuery, DbError> {
    let (exprs, columns, count_star) = resolve_projection(bindings, layout, &block.projections)?;
    if count_star {
        plan = PhysPlan::CountStar {
            child: Box::new(plan),
        };
        return Ok(PlannedQuery::new(plan, columns));
    }
    plan = PhysPlan::Project {
        child: Box::new(plan),
        exprs,
    };

    if block.distinct {
        plan = PhysPlan::Distinct {
            child: Box::new(plan),
        };
    }
    if !block.order_by.is_empty() {
        let mut keys = Vec::with_capacity(block.order_by.len());
        for cref in &block.order_by {
            let pos = columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(&cref.column))
                .ok_or_else(|| {
                    DbError::Plan(format!("ORDER BY column not in output: {}", cref.column))
                })?;
            keys.push(pos);
        }
        plan = PhysPlan::Sort {
            child: Box::new(plan),
            keys,
        };
    }
    Ok(PlannedQuery::new(plan, columns))
}

fn local_to_exec(c: &LocalCond) -> ExecCond {
    match c {
        LocalCond::ColCmpCol(a, op, b) => ExecCond::ColCmpCol(*a, *op, *b),
        LocalCond::ColCmpLit(a, op, v) => ExecCond::ColCmpLit(*a, *op, v.clone()),
        LocalCond::ColCmpParam(a, op, p) => ExecCond::ColCmpParam(*a, *op, *p),
        LocalCond::InList(a, vs) => ExecCond::InList(*a, vs.clone()),
    }
}

fn attach_residual(plan: PhysPlan, mut conds: Vec<ExecCond>) -> PhysPlan {
    match plan {
        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            mut residual,
        } => {
            residual.append(&mut conds);
            PhysPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                residual,
            }
        }
        PhysPlan::IndexNlJoin {
            left,
            table,
            index_pos,
            left_keys,
            inner_filters,
            mut residual,
        } => {
            residual.append(&mut conds);
            PhysPlan::IndexNlJoin {
                left,
                table,
                index_pos,
                left_keys,
                inner_filters,
                residual,
            }
        }
        PhysPlan::CrossJoin {
            left,
            right,
            mut residual,
        } => {
            residual.append(&mut conds);
            PhysPlan::CrossJoin {
                left,
                right,
                residual,
            }
        }
        // Single-relation query with a same-relation residual: wrap in a
        // degenerate cross join is overkill; push into the scan instead.
        PhysPlan::SeqScan { table, mut filters } => {
            filters.append(&mut conds);
            PhysPlan::SeqScan { table, filters }
        }
        PhysPlan::IndexLookup {
            table,
            index_pos,
            keys,
            mut residual,
        } => {
            residual.append(&mut conds);
            PhysPlan::IndexLookup {
                table,
                index_pos,
                keys,
                residual,
            }
        }
        // Any other shape (e.g. a pruning Project) keeps its semantics
        // under a generic filter — never silently drop a condition.
        other => PhysPlan::Filter {
            child: Box::new(other),
            conds,
        },
    }
}

/// Pick the access path for one relation given its local filters.
fn access_path(catalog: &Catalog, b: &Binding, local: &[LocalCond]) -> Result<PhysPlan, DbError> {
    let table = catalog.table(&b.table)?;
    // Constant- or parameter-equality columns available for index keys.
    let mut eq_cols: Vec<(usize, KeyExpr)> = Vec::new();
    for c in local {
        match c {
            LocalCond::ColCmpLit(col, CmpOp::Eq, v) => {
                eq_cols.push((*col, KeyExpr::Lit(v.clone())));
            }
            LocalCond::ColCmpParam(col, CmpOp::Eq, p) => {
                eq_cols.push((*col, KeyExpr::Param(*p)));
            }
            _ => {}
        }
    }
    for (pos, index) in table.indexes.iter().enumerate() {
        let covered: Option<Vec<KeyExpr>> = index
            .key_cols()
            .iter()
            .map(|kc| {
                eq_cols
                    .iter()
                    .find(|(c, _)| c == kc)
                    .map(|(_, k)| k.clone())
            })
            .collect();
        if let Some(key) = covered {
            // Exactly the (column, key-expr) pairs consumed by the key; any
            // other filter — including a conflicting equality on the same
            // column — stays residual.
            let consumed: Vec<(usize, &KeyExpr)> =
                index.key_cols().iter().copied().zip(key.iter()).collect();
            let residual: Vec<ExecCond> = local
                .iter()
                .filter(|c| match c {
                    LocalCond::ColCmpLit(col, CmpOp::Eq, v) => {
                        !consumed.contains(&(*col, &KeyExpr::Lit(v.clone())))
                    }
                    LocalCond::ColCmpParam(col, CmpOp::Eq, p) => {
                        !consumed.contains(&(*col, &KeyExpr::Param(*p)))
                    }
                    _ => true,
                })
                .map(local_to_exec)
                .collect();
            return Ok(PhysPlan::IndexLookup {
                table: b.table.clone(),
                index_pos: pos,
                keys: vec![key],
                residual,
            });
        }
    }
    // An IN-list over a single-column index probes the index once per
    // list value — this is what keeps the Stored D/KB extraction query
    // flat in the total rule count (Figure 7).
    for (pos, index) in table.indexes.iter().enumerate() {
        let [key_col] = index.key_cols() else {
            continue;
        };
        let in_list = local.iter().find_map(|c| match c {
            LocalCond::InList(col, vs) if col == key_col => Some(vs),
            _ => None,
        });
        let Some(values) = in_list else { continue };
        let residual: Vec<ExecCond> = local
            .iter()
            .filter(|c| !matches!(c, LocalCond::InList(col, vs) if col == key_col && vs == values))
            .map(local_to_exec)
            .collect();
        // Dedupe list values so a row cannot match through two keys.
        let mut seen = HashSet::with_capacity(values.len());
        let keys = values
            .iter()
            .filter(|v| seen.insert(*v))
            .map(|v| vec![KeyExpr::Lit(v.clone())])
            .collect();
        return Ok(PhysPlan::IndexLookup {
            table: b.table.clone(),
            index_pos: pos,
            keys,
            residual,
        });
    }
    // Range predicates over a single-column ordered index.
    for (pos, index) in table.indexes.iter().enumerate() {
        if !index.is_ordered() {
            continue;
        }
        let [key_col] = index.key_cols() else {
            continue;
        };
        let mut lo: std::ops::Bound<Value> = std::ops::Bound::Unbounded;
        let mut hi: std::ops::Bound<Value> = std::ops::Bound::Unbounded;
        let mut used = 0usize;
        for c in local {
            if let LocalCond::ColCmpLit(col, op, v) = c {
                if col != key_col {
                    continue;
                }
                match op {
                    CmpOp::Gt => {
                        lo = tighten_lo(lo, std::ops::Bound::Excluded(v.clone()));
                        used += 1;
                    }
                    CmpOp::Ge => {
                        lo = tighten_lo(lo, std::ops::Bound::Included(v.clone()));
                        used += 1;
                    }
                    CmpOp::Lt => {
                        hi = tighten_hi(hi, std::ops::Bound::Excluded(v.clone()));
                        used += 1;
                    }
                    CmpOp::Le => {
                        hi = tighten_hi(hi, std::ops::Bound::Included(v.clone()));
                        used += 1;
                    }
                    _ => {}
                }
            }
        }
        // With no value distribution known, a bounded range is costed at
        // the flat 1/3 per side, below a full scan, so the index is taken.
        if used == 0 {
            continue;
        }
        // Everything stays as a residual check (bounds may overlap several
        // conjuncts); the index only narrows the scan.
        let residual: Vec<ExecCond> = local.iter().map(local_to_exec).collect();
        return Ok(PhysPlan::IndexRange {
            table: b.table.clone(),
            index_pos: pos,
            lo,
            hi,
            residual,
        });
    }
    Ok(PhysPlan::SeqScan {
        table: b.table.clone(),
        filters: local.iter().map(local_to_exec).collect(),
    })
}

/// Keep the tighter of two lower bounds.
fn tighten_lo(a: std::ops::Bound<Value>, b: std::ops::Bound<Value>) -> std::ops::Bound<Value> {
    use std::ops::Bound::*;
    match (&a, &b) {
        (Unbounded, _) => b,
        (_, Unbounded) => a,
        (Included(x) | Excluded(x), Included(y) | Excluded(y)) => {
            if y > x || (y == x && matches!(b, Excluded(_))) {
                b
            } else {
                a
            }
        }
    }
}

/// Keep the tighter of two upper bounds.
fn tighten_hi(a: std::ops::Bound<Value>, b: std::ops::Bound<Value>) -> std::ops::Bound<Value> {
    use std::ops::Bound::*;
    match (&a, &b) {
        (Unbounded, _) => b,
        (_, Unbounded) => a,
        (Included(x) | Excluded(x), Included(y) | Excluded(y)) => {
            if y < x || (y == x && matches!(b, Excluded(_))) {
                b
            } else {
                a
            }
        }
    }
}

/// An index on `table` whose key columns are exactly covered by the
/// available join columns.
fn usable_join_index(table: &Table, join_cols: &[usize]) -> Option<usize> {
    // Two join predicates on the *same* inner column (`join_cols = [0, 0]`)
    // must not disqualify a single-column index on it: match against the
    // distinct column set; the unconsumed pairs run as residual checks.
    let mut distinct: Vec<usize> = Vec::new();
    for &c in join_cols {
        if !distinct.contains(&c) {
            distinct.push(c);
        }
    }
    table.indexes.iter().position(|index| {
        index.key_cols().iter().all(|kc| distinct.contains(kc))
            && index.key_cols().len() == distinct.len()
    })
}

/// Plan `SELECT c1, .., cn, COUNT(*) FROM ... GROUP BY c1, .., cn`. The
/// projection must be exactly the group columns (in order) followed by one
/// `COUNT(*)`.
fn plan_group_count(
    bindings: &[Binding],
    layout: &[LayoutEntry],
    block: &SelectBlock,
    child: PhysPlan,
) -> Result<PlannedQuery, DbError> {
    let n = block.group_by.len();
    if block.projections.len() != n + 1 {
        return Err(DbError::Plan(
            "GROUP BY projection must be the group columns followed by COUNT(*)".into(),
        ));
    }
    let mut keys = Vec::with_capacity(n);
    let mut columns = Vec::with_capacity(n + 1);
    for (i, gcol) in block.group_by.iter().enumerate() {
        let SelectItem::Expr {
            expr: Scalar::Col(pcol),
            alias,
        } = &block.projections[i]
        else {
            return Err(DbError::Plan(
                "GROUP BY projection must be plain group columns".into(),
            ));
        };
        let rg = resolve_col(bindings, gcol)?;
        let rp = resolve_col(bindings, pcol)?;
        if rg != rp {
            return Err(DbError::Plan(format!(
                "projected column {} is not group column {}",
                pcol.column, gcol.column
            )));
        }
        keys.push(pos_of(layout, rg));
        columns.push(alias.clone().unwrap_or_else(|| pcol.column.clone()));
    }
    match &block.projections[n] {
        SelectItem::CountStar { alias } => {
            columns.push(alias.clone().unwrap_or_else(|| "count".to_string()));
        }
        _ => {
            return Err(DbError::Plan(
                "the last GROUP BY projection must be COUNT(*)".into(),
            ))
        }
    }
    let mut plan = PhysPlan::GroupCount {
        child: Box::new(child),
        keys,
    };
    if !block.order_by.is_empty() {
        let mut sort_keys = Vec::new();
        for cref in &block.order_by {
            let pos = columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(&cref.column))
                .ok_or_else(|| {
                    DbError::Plan(format!("ORDER BY column not in output: {}", cref.column))
                })?;
            sort_keys.push(pos);
        }
        plan = PhysPlan::Sort {
            child: Box::new(plan),
            keys: sort_keys,
        };
    }
    Ok(PlannedQuery::new(plan, columns))
}

/// Build an [`PhysPlan::AntiJoin`] for one `NOT EXISTS` subquery. Inner
/// column references resolve against the subquery's table first, then the
/// outer FROM bindings; correlation must be by equality.
fn plan_anti_join(
    catalog: &Catalog,
    bindings: &[Binding],
    layout: &[LayoutEntry],
    child: PhysPlan,
    tref: &TableRef,
    conds: &[Condition],
) -> Result<PhysPlan, DbError> {
    let table = catalog.table(&tref.table)?;
    let inner_binding = tref.binding().to_ascii_lowercase();
    let inner_schema = table.schema.clone();

    /// Where a column reference landed.
    enum Side {
        Inner(usize),
        Outer(Resolved),
    }
    let resolve = |c: &ColRef| -> Result<Side, DbError> {
        match &c.table {
            Some(qual) if qual.to_ascii_lowercase() == inner_binding => inner_schema
                .index_of(&c.column)
                .map(Side::Inner)
                .ok_or_else(|| DbError::NoSuchColumn(format!("{qual}.{}", c.column))),
            Some(_) => resolve_col(bindings, c).map(Side::Outer),
            None => {
                // Unqualified: inner table shadows the outer scope.
                if let Some(i) = inner_schema.index_of(&c.column) {
                    Ok(Side::Inner(i))
                } else {
                    resolve_col(bindings, c).map(Side::Outer)
                }
            }
        }
    };

    let mut inner_filters = Vec::new();
    let mut outer_keys = Vec::new();
    let mut inner_keys = Vec::new();
    for cond in conds {
        match cond {
            Condition::NotExists { .. } => {
                return Err(DbError::Plan("nested NOT EXISTS is not supported".into()))
            }
            Condition::InList { col, values } => match resolve(col)? {
                Side::Inner(i) => inner_filters.push(ExecCond::InList(i, values.clone())),
                Side::Outer(_) => {
                    return Err(DbError::Plan(
                        "NOT EXISTS: IN-list on an outer column is not supported".into(),
                    ))
                }
            },
            Condition::Cmp { left, op, right } => match (left, right) {
                (Scalar::Col(a), Scalar::Col(b)) => match (resolve(a)?, resolve(b)?) {
                    (Side::Inner(x), Side::Inner(y)) => {
                        inner_filters.push(ExecCond::ColCmpCol(x, *op, y))
                    }
                    (Side::Inner(i), Side::Outer(o)) | (Side::Outer(o), Side::Inner(i)) => {
                        if *op != CmpOp::Eq {
                            return Err(DbError::Plan(
                                "NOT EXISTS correlation must be by equality".into(),
                            ));
                        }
                        outer_keys.push(pos_of(layout, o));
                        inner_keys.push(i);
                    }
                    (Side::Outer(_), Side::Outer(_)) => {
                        return Err(DbError::Plan(
                            "NOT EXISTS condition references only outer columns".into(),
                        ))
                    }
                },
                (Scalar::Col(c), Scalar::Lit(v)) => match resolve(c)? {
                    Side::Inner(i) => inner_filters.push(ExecCond::ColCmpLit(i, *op, v.clone())),
                    Side::Outer(_) => {
                        return Err(DbError::Plan(
                            "NOT EXISTS literal condition must bind an inner column".into(),
                        ))
                    }
                },
                (Scalar::Lit(v), Scalar::Col(c)) => match resolve(c)? {
                    Side::Inner(i) => {
                        inner_filters.push(ExecCond::ColCmpLit(i, rewrite::flip(*op), v.clone()))
                    }
                    Side::Outer(_) => {
                        return Err(DbError::Plan(
                            "NOT EXISTS literal condition must bind an inner column".into(),
                        ))
                    }
                },
                (Scalar::Lit(_), Scalar::Lit(_)) => {
                    return Err(DbError::Plan(
                        "constant comparison not supported in NOT EXISTS".into(),
                    ))
                }
                (Scalar::Param(_), _) | (_, Scalar::Param(_)) => {
                    return Err(DbError::Plan(
                        "parameters are not supported inside NOT EXISTS".into(),
                    ))
                }
            },
        }
    }
    // Record an index as a *capability* when the correlation keys cover
    // exactly one index's key columns and no other inner predicate needs
    // evaluating: membership is then a pure key lookup, O(probes) instead
    // of O(|inner|) per execution. This is what makes a prepared
    // `NOT EXISTS` termination check cheap in the LFP loop — the
    // accumulated table is probed, never re-scanned.
    //
    // The executor makes the final probe-vs-scan call at run time against
    // live cardinalities (see `AntiJoin` in exec.rs): a cached prepared
    // plan outlives many LFP iterations, so a plan-time estimate of the
    // probing side goes stale — under naive evaluation it is the whole
    // accumulated relation, where one inner scan into a hash set beats
    // tens of thousands of probes. `index_pos` therefore means "a probe is
    // possible", not "a probe was chosen".
    let mut index_pos = None;
    let keys_distinct = (1..inner_keys.len()).all(|i| !inner_keys[..i].contains(&inner_keys[i]));
    if inner_filters.is_empty() && !inner_keys.is_empty() && keys_distinct {
        for (pos, index) in table.indexes.iter().enumerate() {
            let kc = index.key_cols();
            if kc.len() != inner_keys.len() {
                continue;
            }
            // Reorder the key pairs to the index's key-column order.
            let perm: Option<Vec<usize>> = kc
                .iter()
                .map(|c| inner_keys.iter().position(|i| i == c))
                .collect();
            if let Some(perm) = perm {
                outer_keys = perm.iter().map(|&j| outer_keys[j]).collect();
                inner_keys = kc.to_vec();
                index_pos = Some(pos);
                break;
            }
        }
    }
    Ok(PhysPlan::AntiJoin {
        child: Box::new(child),
        table: table.name.clone(),
        inner_filters,
        outer_keys,
        inner_keys,
        index_pos,
    })
}

/// Resolve the projection list against the join layout. Returns the
/// expressions, the output column names, and whether this is a COUNT(*).
fn resolve_projection(
    bindings: &[Binding],
    layout: &[LayoutEntry],
    items: &[SelectItem],
) -> Result<(Vec<ProjExpr>, Vec<String>, bool), DbError> {
    if items.len() == 1 {
        if let SelectItem::CountStar { alias } = &items[0] {
            let name = alias.clone().unwrap_or_else(|| "count".to_string());
            return Ok((Vec::new(), vec![name], true));
        }
    }
    let mut exprs = Vec::new();
    let mut names = Vec::new();
    for item in items {
        match item {
            SelectItem::Star => {
                // All columns in FROM order (not join order). Pruning never
                // fires for SELECT *, so every column is in the layout.
                for (rel, b) in bindings.iter().enumerate() {
                    for (col, c) in b.schema.columns().iter().enumerate() {
                        exprs.push(ProjExpr::Col(pos_of(layout, Resolved { rel, col })));
                        names.push(c.name.clone());
                    }
                }
            }
            SelectItem::CountStar { .. } => {
                return Err(DbError::Plan(
                    "COUNT(*) cannot be mixed with other projections".to_string(),
                ));
            }
            SelectItem::Expr { expr, alias } => match expr {
                Scalar::Col(c) => {
                    let r = resolve_col(bindings, c)?;
                    exprs.push(ProjExpr::Col(pos_of(layout, r)));
                    names.push(alias.clone().unwrap_or_else(|| c.column.clone()));
                }
                Scalar::Lit(v) => {
                    exprs.push(ProjExpr::Lit(v.clone()));
                    names.push(alias.clone().unwrap_or_else(|| "literal".to_string()));
                }
                Scalar::Param(_) => {
                    return Err(DbError::Plan(
                        "parameters are not supported in the projection list".into(),
                    ))
                }
            },
        }
    }
    Ok((exprs, names, false))
}

/// Infer the output column *types* of a planned query (needed for
/// INSERT ... SELECT type checking). Literal projections carry their own
/// type; column projections inherit from the base tables.
pub fn output_types(catalog: &Catalog, query: &Query) -> Result<Vec<ColType>, DbError> {
    match query {
        Query::Union { left, .. } | Query::Except { left, .. } => output_types(catalog, left),
        Query::Select(block) => {
            let mut bindings = Vec::new();
            for tref in &block.from {
                let table = catalog.table(&tref.table)?;
                bindings.push(Binding {
                    table: table.name.clone(),
                    binding: tref.binding().to_ascii_lowercase(),
                    schema: table.schema.clone(),
                });
            }
            let mut types = Vec::new();
            if !block.group_by.is_empty() {
                for item in &block.projections {
                    match item {
                        SelectItem::Expr {
                            expr: Scalar::Col(c),
                            ..
                        } => {
                            let r = resolve_col(&bindings, c)?;
                            types.push(bindings[r.rel].schema.column(r.col).ty);
                        }
                        SelectItem::CountStar { .. } => types.push(ColType::Int),
                        _ => return Err(DbError::Plan("unsupported GROUP BY projection".into())),
                    }
                }
                return Ok(types);
            }
            for item in &block.projections {
                match item {
                    SelectItem::Star => {
                        for b in &bindings {
                            types.extend(b.schema.columns().iter().map(|c| c.ty));
                        }
                    }
                    SelectItem::CountStar { .. } => types.push(ColType::Int),
                    SelectItem::Expr { expr, .. } => match expr {
                        Scalar::Col(c) => {
                            let r = resolve_col(&bindings, c)?;
                            types.push(bindings[r.rel].schema.column(r.col).ty);
                        }
                        Scalar::Lit(v) => types.push(v.col_type()),
                        Scalar::Param(_) => {
                            return Err(DbError::Plan(
                                "parameters are not supported in the projection list".into(),
                            ))
                        }
                    },
                }
            }
            Ok(types)
        }
    }
}
