//! Logical rewrite rules, run over a bound query block before physical
//! planning.
//!
//! The planner used to fold predicate placement into its join-tree loop;
//! this module makes each rewrite an explicit, named rule so the set is
//! auditable and extensible (the shape SNIPPETS' planner guidelines call
//! `optimize()` rules):
//!
//! * `rule_predicate_pushdown` — classify every WHERE conjunct to the
//!   lowest operator that can evaluate it: single-relation conjuncts
//!   become per-relation local filters (pushed into scans / index
//!   residuals), two-relation equalities become join keys, and the rest
//!   stay cross-relation residuals attached once both sides are joined.
//! * `rule_projection_pruning` — compute, per relation, the set of
//!   columns actually consumed above its scan (projection, GROUP BY, join
//!   keys, cross residuals). The physical planner narrows join inputs to
//!   those columns, shrinking intermediate tuples.
//!
//! The output is a `QueryBlock`: bindings plus classified conditions
//! plus pruning sets, consumed by `plan::plan_select`. A
//! [`RewriteReport`] counts rule applications; the engine surfaces the
//! totals as `plan.rewrite_*` metrics.

use crate::catalog::{Catalog, DbError};
use crate::schema::Schema;
use crate::sql::ast::*;
use crate::value::Value;
use std::collections::BTreeSet;

/// One relation appearing in the FROM list, after binding.
pub(crate) struct Binding {
    /// Canonical table name (as stored in the catalog entry).
    pub table: String,
    /// Name by which columns qualify this occurrence.
    pub binding: String,
    pub schema: Schema,
}

/// A column resolved to (relation index in FROM order, local column index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Resolved {
    pub rel: usize,
    pub col: usize,
}

/// A condition with relation-local column positions.
#[derive(Debug, Clone)]
pub(crate) enum LocalCond {
    ColCmpCol(usize, CmpOp, usize),
    ColCmpLit(usize, CmpOp, Value),
    ColCmpParam(usize, CmpOp, usize),
    InList(usize, Vec<Value>),
}

/// A fully resolved cross-relation condition.
#[derive(Debug, Clone)]
pub(crate) enum ResolvedCond {
    ColCmpCol(Resolved, CmpOp, Resolved),
}

/// A classified WHERE conjunct.
enum Classified {
    /// Touches exactly one relation.
    Local(usize, LocalCond),
    /// `a.x = b.y` with a != b.
    EquiJoin(Resolved, Resolved),
    /// Anything else touching two relations.
    CrossResidual(ResolvedCond),
}

/// Counts of rewrite-rule applications for one planned block (summed over
/// sub-blocks for compound queries). Surfaced as `plan.rewrite_*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteReport {
    /// WHERE conjuncts pushed below the join tree (local filters).
    pub predicates_pushed: u64,
    /// Columns dropped from join inputs by projection pruning.
    pub projections_pruned: u64,
}

impl RewriteReport {
    pub fn absorb(&mut self, other: RewriteReport) {
        self.predicates_pushed += other.predicates_pushed;
        self.projections_pruned += other.projections_pruned;
    }
}

/// The logical form of one SELECT block after binding and rewriting.
pub(crate) struct QueryBlock<'a> {
    pub bindings: Vec<Binding>,
    /// Per-relation pushed-down predicates (parallel to `bindings`).
    pub local: Vec<Vec<LocalCond>>,
    /// Equi-join predicates between distinct relations.
    pub joins: Vec<(Resolved, Resolved)>,
    /// Cross-relation residual predicates.
    pub cross: Vec<ResolvedCond>,
    /// `NOT EXISTS` conjuncts, planned as anti-joins after the positive
    /// join tree is complete.
    pub anti: Vec<(&'a TableRef, &'a [Condition])>,
    /// Per relation: `Some(cols)` when only those columns (sorted, local
    /// positions) are consumed above the relation's scan; `None` keeps the
    /// full tuple.
    pub needed: Vec<Option<Vec<usize>>>,
    pub report: RewriteReport,
}

/// Bind a SELECT block against the catalog and run the rewrite rules.
pub(crate) fn build_block<'a>(
    catalog: &Catalog,
    block: &'a SelectBlock,
) -> Result<QueryBlock<'a>, DbError> {
    let mut bindings = Vec::with_capacity(block.from.len());
    for tref in &block.from {
        let table = catalog.table(&tref.table)?;
        let binding = tref.binding().to_ascii_lowercase();
        if bindings.iter().any(|b: &Binding| b.binding == binding) {
            return Err(DbError::Plan(format!(
                "duplicate relation binding: {binding}"
            )));
        }
        bindings.push(Binding {
            table: table.name.clone(),
            binding,
            schema: table.schema.clone(),
        });
    }

    let mut report = RewriteReport::default();
    let (local, joins, cross, anti) =
        rule_predicate_pushdown(&bindings, &block.where_clause, &mut report)?;
    let needed = rule_projection_pruning(&bindings, block, &joins, &cross, &anti, &mut report);

    Ok(QueryBlock {
        bindings,
        local,
        joins,
        cross,
        anti,
        needed,
        report,
    })
}

type PushdownOut<'a> = (
    Vec<Vec<LocalCond>>,
    Vec<(Resolved, Resolved)>,
    Vec<ResolvedCond>,
    Vec<(&'a TableRef, &'a [Condition])>,
);

/// Rule: place every WHERE conjunct at the lowest operator that can
/// evaluate it. Single-relation conjuncts are *pushed down* to their
/// relation (they run inside the scan or as index residuals, before any
/// join multiplies rows); two-relation equalities become join keys;
/// everything else survives as a cross-relation residual. `NOT EXISTS`
/// conjuncts are split out for anti-join planning.
fn rule_predicate_pushdown<'a>(
    bindings: &[Binding],
    where_clause: &'a [Condition],
    report: &mut RewriteReport,
) -> Result<PushdownOut<'a>, DbError> {
    let mut local: Vec<Vec<LocalCond>> = vec![Vec::new(); bindings.len()];
    let mut joins: Vec<(Resolved, Resolved)> = Vec::new();
    let mut cross: Vec<ResolvedCond> = Vec::new();
    let mut anti: Vec<(&TableRef, &[Condition])> = Vec::new();
    for cond in where_clause {
        if let Condition::NotExists { table, conds } = cond {
            anti.push((table, conds.as_slice()));
            continue;
        }
        match classify(bindings, cond)? {
            Classified::Local(rel, c) => {
                report.predicates_pushed += 1;
                local[rel].push(c);
            }
            Classified::EquiJoin(a, b) => joins.push((a, b)),
            Classified::CrossResidual(c) => cross.push(c),
        }
    }
    Ok((local, joins, cross, anti))
}

/// Rule: per relation, the columns consumed above its scan — by the
/// projection list, GROUP BY, join keys, or cross residuals. Local
/// filters run inside the scan itself, so their columns do *not* pin a
/// column into the join pipeline. Returns `None` (keep all) for a
/// relation whose every column is consumed, for single-relation blocks
/// (nothing to narrow between operators), for `SELECT *`, and whenever a
/// `NOT EXISTS` conjunct is present (its correlation keys resolve during
/// anti-join planning, after this rule runs — keeping full tuples is the
/// conservative choice).
fn rule_projection_pruning(
    bindings: &[Binding],
    block: &SelectBlock,
    joins: &[(Resolved, Resolved)],
    cross: &[ResolvedCond],
    anti: &[(&TableRef, &[Condition])],
    report: &mut RewriteReport,
) -> Vec<Option<Vec<usize>>> {
    let n = bindings.len();
    let keep_all = vec![None; n];
    if n < 2 || !anti.is_empty() {
        return keep_all;
    }
    let mut used: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for item in &block.projections {
        match item {
            SelectItem::Star => return keep_all,
            SelectItem::CountStar { .. } => {}
            SelectItem::Expr { expr, .. } => match expr {
                Scalar::Col(c) => match resolve_col(bindings, c) {
                    Ok(r) => {
                        used[r.rel].insert(r.col);
                    }
                    // Leave unresolvable references for the planner's own
                    // resolution pass to report.
                    Err(_) => return keep_all,
                },
                Scalar::Lit(_) | Scalar::Param(_) => {}
            },
        }
    }
    for g in &block.group_by {
        match resolve_col(bindings, g) {
            Ok(r) => {
                used[r.rel].insert(r.col);
            }
            Err(_) => return keep_all,
        }
    }
    // ORDER BY resolves against output columns, which the projection pass
    // above already pinned.
    for (a, b) in joins {
        used[a.rel].insert(a.col);
        used[b.rel].insert(b.col);
    }
    for ResolvedCond::ColCmpCol(a, _, b) in cross {
        used[a.rel].insert(a.col);
        used[b.rel].insert(b.col);
    }
    bindings
        .iter()
        .enumerate()
        .map(|(rel, b)| {
            let arity = b.schema.arity();
            if used[rel].len() >= arity {
                None
            } else {
                report.projections_pruned += (arity - used[rel].len()) as u64;
                Some(used[rel].iter().copied().collect())
            }
        })
        .collect()
}

fn classify(bindings: &[Binding], cond: &Condition) -> Result<Classified, DbError> {
    match cond {
        Condition::NotExists { .. } => {
            unreachable!("NOT EXISTS conjuncts are handled before classification")
        }
        Condition::InList { col, values } => {
            let r = resolve_col(bindings, col)?;
            let expected = bindings[r.rel].schema.column(r.col).ty;
            for v in values {
                if v.col_type() != expected {
                    return Err(DbError::TypeMismatch(format!(
                        "IN list value {v} does not match column type {expected}"
                    )));
                }
            }
            Ok(Classified::Local(
                r.rel,
                LocalCond::InList(r.col, values.clone()),
            ))
        }
        Condition::Cmp { left, op, right } => match (left, right) {
            (Scalar::Lit(a), Scalar::Lit(b)) => Err(DbError::Plan(format!(
                "constant comparison not supported: {a} vs {b}"
            ))),
            (Scalar::Col(c), Scalar::Lit(v)) => {
                let r = resolve_col(bindings, c)?;
                check_lit_type(bindings, r, v)?;
                Ok(Classified::Local(
                    r.rel,
                    LocalCond::ColCmpLit(r.col, *op, v.clone()),
                ))
            }
            (Scalar::Lit(v), Scalar::Col(c)) => {
                let r = resolve_col(bindings, c)?;
                check_lit_type(bindings, r, v)?;
                Ok(Classified::Local(
                    r.rel,
                    LocalCond::ColCmpLit(r.col, flip(*op), v.clone()),
                ))
            }
            (Scalar::Col(a), Scalar::Col(b)) => {
                let ra = resolve_col(bindings, a)?;
                let rb = resolve_col(bindings, b)?;
                if ra.rel == rb.rel {
                    Ok(Classified::Local(
                        ra.rel,
                        LocalCond::ColCmpCol(ra.col, *op, rb.col),
                    ))
                } else if *op == CmpOp::Eq {
                    Ok(Classified::EquiJoin(ra, rb))
                } else {
                    Ok(Classified::CrossResidual(ResolvedCond::ColCmpCol(
                        ra, *op, rb,
                    )))
                }
            }
            (Scalar::Col(c), Scalar::Param(p)) => {
                let r = resolve_col(bindings, c)?;
                Ok(Classified::Local(
                    r.rel,
                    LocalCond::ColCmpParam(r.col, *op, *p),
                ))
            }
            (Scalar::Param(p), Scalar::Col(c)) => {
                let r = resolve_col(bindings, c)?;
                Ok(Classified::Local(
                    r.rel,
                    LocalCond::ColCmpParam(r.col, flip(*op), *p),
                ))
            }
            (Scalar::Param(_), Scalar::Param(_) | Scalar::Lit(_))
            | (Scalar::Lit(_), Scalar::Param(_)) => Err(DbError::Plan(
                "a parameter must be compared against a column".into(),
            )),
        },
    }
}

pub(crate) fn check_lit_type(bindings: &[Binding], r: Resolved, v: &Value) -> Result<(), DbError> {
    let expected = bindings[r.rel].schema.column(r.col).ty;
    if v.col_type() != expected {
        return Err(DbError::TypeMismatch(format!(
            "literal {v} does not match column type {expected}"
        )));
    }
    Ok(())
}

pub(crate) fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

pub(crate) fn resolve_col(bindings: &[Binding], c: &ColRef) -> Result<Resolved, DbError> {
    match &c.table {
        Some(qual) => {
            let qual = qual.to_ascii_lowercase();
            let rel = bindings
                .iter()
                .position(|b| b.binding == qual)
                .ok_or_else(|| DbError::Plan(format!("unknown relation: {qual}")))?;
            let col = bindings[rel]
                .schema
                .index_of(&c.column)
                .ok_or_else(|| DbError::NoSuchColumn(format!("{qual}.{}", c.column)))?;
            Ok(Resolved { rel, col })
        }
        None => {
            let mut found = None;
            for (rel, b) in bindings.iter().enumerate() {
                if let Some(col) = b.schema.index_of(&c.column) {
                    if found.is_some() {
                        return Err(DbError::Plan(format!("ambiguous column: {}", c.column)));
                    }
                    found = Some(Resolved { rel, col });
                }
            }
            found.ok_or_else(|| DbError::NoSuchColumn(c.column.clone()))
        }
    }
}
