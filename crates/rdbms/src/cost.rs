//! The cost model: selectivity estimation from exact live counts,
//! cost-based join ordering, and access-path / join-method choice.
//!
//! Cardinalities come from two sources, both exact:
//!
//! 1. live heap `tuple_count` — maintained on every mutation;
//! 2. live `distinct_keys()` of a single-column index on the column —
//!    free (the index already maintains the directory).
//!
//! Where neither applies, estimators fall back to flat constants (`1/20`
//! per equality, `1/3` per range side) — all that is left of the heuristic
//! planner. Nothing is sampled (DESIGN §18 records why).
//!
//! Cost units are abstract "tuple visits": a sequential scan pays 1 per
//! row, an index fetch pays `C_FETCH` (probe + heap fetch + decode), a
//! hash insert `C_BUILD`. The constants only need to rank alternatives,
//! not predict wall time.

use crate::catalog::{Catalog, Table};
use crate::plan::{ExecCond, PhysPlan, ProjExpr};
use crate::rewrite::{Binding, Resolved};
use crate::sql::ast::CmpOp;

/// Cost of reading one row in a sequential scan.
pub(crate) const C_SCAN: f64 = 1.0;
/// Cost of one index probe (hash/ordered directory lookup).
pub(crate) const C_PROBE: f64 = 1.0;
/// Cost of fetching one row through an index (probe result → buffer-pool
/// latch → decode); random access is costed at twice a sequential read.
pub(crate) const C_FETCH: f64 = 2.0;
/// Cost of inserting one row into a hash-join build table (allocate +
/// hash + copy; costed slightly above an index fetch so a probe strategy
/// wins ties on small inputs, where the build's fixed overhead dominates).
pub(crate) const C_BUILD: f64 = 2.0;
/// Fallback equality selectivity when no distinct count is known.
pub(crate) const DEFAULT_EQ_SEL: f64 = 1.0 / 20.0;
/// Fallback selectivity per bounded range side.
pub(crate) const DEFAULT_RANGE_SEL: f64 = 1.0 / 3.0;
/// Row-estimate floor used when compounding steps, so a zero-row estimate
/// cannot collapse every downstream cost to zero.
const EST_FLOOR: f64 = 0.05;

/// Distinct-value count for a column: exact from a single-column index
/// directory when one exists and is non-empty, else unknown.
pub(crate) fn col_distinct(t: &Table, col: usize) -> Option<u64> {
    for ix in &t.indexes {
        if ix.key_cols() == [col] {
            let d = ix.distinct_keys() as u64;
            if d > 0 {
                return Some(d);
            }
        }
    }
    None
}

/// Selectivity of one table-local condition (positions are local to the
/// table's schema).
pub(crate) fn local_selectivity(t: &Table, c: &ExecCond) -> f64 {
    match c {
        ExecCond::ColCmpLit(col, CmpOp::Eq, _) | ExecCond::ColCmpParam(col, CmpOp::Eq, _) => {
            col_distinct(t, *col)
                .map(|d| 1.0 / d as f64)
                .unwrap_or(DEFAULT_EQ_SEL)
        }
        // `!=` rarely filters much.
        ExecCond::ColCmpLit(_, CmpOp::Ne, _) | ExecCond::ColCmpParam(_, CmpOp::Ne, _) => 1.0,
        ExecCond::ColCmpLit(..) | ExecCond::ColCmpParam(..) => DEFAULT_RANGE_SEL,
        ExecCond::InList(col, vs) => {
            let per = col_distinct(t, *col)
                .map(|d| 1.0 / d as f64)
                .unwrap_or(DEFAULT_EQ_SEL);
            (per * vs.len() as f64).min(1.0)
        }
        ExecCond::ColCmpCol(a, op, b) => match op {
            CmpOp::Eq => col_distinct(t, *a)
                .or_else(|| col_distinct(t, *b))
                .map(|d| 1.0 / d.max(1) as f64)
                .unwrap_or(0.1),
            CmpOp::Ne => 1.0,
            _ => DEFAULT_RANGE_SEL,
        },
    }
}

/// Estimated row count of one relation after its pushed-down local
/// predicates.
pub(crate) fn est_table_rows(catalog: &Catalog, table: &str, conds: &[ExecCond]) -> f64 {
    let Ok(t) = catalog.table(table) else {
        return 0.0;
    };
    let mut e = t.heap.tuple_count() as f64;
    for c in conds {
        e *= local_selectivity(t, c);
    }
    e.max(0.0)
}

/// Selectivity of one equi-join predicate: `1 / max(d_left, d_right)`
/// over the joined columns' distinct counts, with the flat `1/20` when
/// neither side is known.
pub(crate) fn join_selectivity(catalog: &Catalog, l: (&str, usize), r: (&str, usize)) -> f64 {
    let d = |(name, col): (&str, usize)| -> Option<u64> {
        catalog.table(name).ok().and_then(|t| col_distinct(t, col))
    };
    let denom = match (d(l), d(r)) {
        (Some(a), Some(b)) => a.max(b),
        (Some(a), None) | (None, Some(a)) => a,
        (None, None) => 20,
    };
    1.0 / denom.max(1) as f64
}

/// Cost-based join order. For 2–3 relations every permutation is costed
/// exhaustively; beyond that a greedy smallest-next-intermediate
/// extension keeps planning linear. Returns FROM-relation indices in
/// build order.
pub(crate) fn join_order(
    catalog: &Catalog,
    bindings: &[Binding],
    local_exec: &[Vec<ExecCond>],
    joins: &[(Resolved, Resolved)],
) -> Vec<usize> {
    let n = bindings.len();
    if n == 1 {
        return vec![0];
    }
    let base: Vec<f64> = (0..n)
        .map(|r| est_table_rows(catalog, &bindings[r].table, &local_exec[r]))
        .collect();
    if n <= 3 {
        let mut best: Option<(f64, Vec<usize>)> = None;
        for perm in permutations(n) {
            let cost = order_cost(catalog, bindings, joins, &base, &perm);
            if best.as_ref().map(|(c, _)| cost < *c).unwrap_or(true) {
                best = Some((cost, perm));
            }
        }
        return best.expect("n >= 2 has permutations").1;
    }
    // Greedy: seed with the smallest estimated relation, then repeatedly
    // add the connected relation producing the smallest next intermediate.
    let mut remaining: Vec<usize> = (0..n).collect();
    let seed = remaining
        .iter()
        .copied()
        .min_by(|&a, &b| base[a].total_cmp(&base[b]))
        .expect("non-empty");
    remaining.retain(|&r| r != seed);
    let mut order = vec![seed];
    let mut cur = base[seed].max(EST_FLOOR);
    while !remaining.is_empty() {
        let mut pick: Option<(usize, f64)> = None; // (position in remaining, out rows)
        for (pos, &rel) in remaining.iter().enumerate() {
            let sel = step_selectivity(catalog, bindings, joins, &order, rel);
            let Some(sel) = sel else { continue }; // not connected
            let out = cur * base[rel].max(EST_FLOOR) * sel;
            if pick.map(|(_, o)| out < o).unwrap_or(true) {
                pick = Some((pos, out));
            }
        }
        // No connected relation left: fall back to the first remaining
        // (a cross join is unavoidable).
        let (pos, out) = pick.unwrap_or_else(|| {
            let rel = remaining[0];
            (0, cur * base[rel].max(EST_FLOOR))
        });
        order.push(remaining.remove(pos));
        cur = out.max(EST_FLOOR);
    }
    order
}

/// Combined selectivity of all join predicates connecting `rel` to the
/// already-placed relations; `None` when no predicate connects it.
fn step_selectivity(
    catalog: &Catalog,
    bindings: &[Binding],
    joins: &[(Resolved, Resolved)],
    placed: &[usize],
    rel: usize,
) -> Option<f64> {
    let mut sel = 1.0;
    let mut connected = false;
    for (a, b) in joins {
        let (this, other) = if a.rel == rel && placed.contains(&b.rel) {
            (a, b)
        } else if b.rel == rel && placed.contains(&a.rel) {
            (b, a)
        } else {
            continue;
        };
        connected = true;
        sel *= join_selectivity(
            catalog,
            (&bindings[other.rel].table, other.col),
            (&bindings[this.rel].table, this.col),
        );
    }
    connected.then_some(sel)
}

/// Total cost of building the join tree in `order`: each step pays for
/// reading the incoming relation, probing once per accumulated row (the
/// per-outer-row work every join method shares), and materializing the
/// step's output. The probe term is what breaks the two-relation tie —
/// reading both sides costs the same either way, but driving the join
/// from the smaller side probes fewer times.
fn order_cost(
    catalog: &Catalog,
    bindings: &[Binding],
    joins: &[(Resolved, Resolved)],
    base: &[f64],
    order: &[usize],
) -> f64 {
    let mut cur = base[order[0]].max(EST_FLOOR);
    let mut cost = cur;
    let mut placed = vec![order[0]];
    for &rel in &order[1..] {
        let rel_rows = base[rel].max(EST_FLOOR);
        let out = match step_selectivity(catalog, bindings, joins, &placed, rel) {
            Some(sel) => cur * rel_rows * sel,
            None => cur * rel_rows, // cross join: full product
        };
        cost += rel_rows * C_SCAN + cur * C_PROBE + out;
        cur = out.max(EST_FLOOR);
        placed.push(rel);
    }
    cost
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    match n {
        2 => vec![vec![0, 1], vec![1, 0]],
        3 => vec![
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ],
        _ => unreachable!("exhaustive enumeration is capped at 3 relations"),
    }
}

/// Whether probing `index_pos` on `t` per outer row beats materializing
/// the inner side into a hash table. `outer_rows` is the estimated size of
/// the already-built side, `inner_est` the inner side after its local
/// filters. A cached plan whose row counts have since drifted is
/// re-planned before it runs (`stats_stale` in `engine.rs`).
pub(crate) fn prefer_index_nl(
    t: &Table,
    index_pos: usize,
    outer_rows: f64,
    inner_est: f64,
) -> bool {
    let inner_rows = t.heap.tuple_count() as f64;
    let d = t.indexes[index_pos].distinct_keys().max(1) as f64;
    let matches = inner_rows / d;
    let nl = outer_rows * (C_PROBE + matches * C_FETCH);
    let hash = inner_rows * C_SCAN + inner_est.max(0.0) * C_BUILD + outer_rows * C_PROBE;
    nl <= hash
}

/// Per-operator row estimates for a physical plan, in pre-order (the
/// order `PhysPlan::explain()` lists operators and the EXPLAIN ANALYZE
/// profiler records them).
pub fn estimate_plan(catalog: &Catalog, plan: &PhysPlan) -> Vec<u64> {
    let mut out = Vec::new();
    est_walk(catalog, plan, &mut out);
    out
}

/// Column provenance of one operator's output layout: `(table, local
/// column)` when the slot still traces to a base-table column.
type Origins = Vec<Option<(String, usize)>>;

fn table_origins(t: &Table) -> Origins {
    (0..t.schema.arity())
        .map(|c| Some((t.name.clone(), c)))
        .collect()
}

/// Selectivity of a condition over a combined layout, using each slot's
/// provenance to reach per-column distinct counts.
fn origin_selectivity(catalog: &Catalog, origins: &Origins, c: &ExecCond) -> f64 {
    let distinct = |pos: usize| -> Option<u64> {
        origins
            .get(pos)
            .and_then(|o| o.as_ref())
            .and_then(|(t, col)| catalog.table(t).ok().and_then(|t| col_distinct(t, *col)))
    };
    match c {
        ExecCond::ColCmpLit(col, CmpOp::Eq, _) | ExecCond::ColCmpParam(col, CmpOp::Eq, _) => {
            distinct(*col)
                .map(|d| 1.0 / d as f64)
                .unwrap_or(DEFAULT_EQ_SEL)
        }
        ExecCond::ColCmpLit(_, CmpOp::Ne, _) | ExecCond::ColCmpParam(_, CmpOp::Ne, _) => 1.0,
        ExecCond::ColCmpLit(..) | ExecCond::ColCmpParam(..) => DEFAULT_RANGE_SEL,
        ExecCond::InList(col, vs) => {
            let per = distinct(*col)
                .map(|d| 1.0 / d as f64)
                .unwrap_or(DEFAULT_EQ_SEL);
            (per * vs.len() as f64).min(1.0)
        }
        ExecCond::ColCmpCol(a, op, b) => match op {
            CmpOp::Eq => distinct(*a)
                .into_iter()
                .chain(distinct(*b))
                .max()
                .map(|d| 1.0 / d.max(1) as f64)
                .unwrap_or(0.1),
            CmpOp::Ne => 1.0,
            _ => DEFAULT_RANGE_SEL,
        },
    }
}

fn conds_selectivity(catalog: &Catalog, origins: &Origins, conds: &[ExecCond]) -> f64 {
    conds
        .iter()
        .map(|c| origin_selectivity(catalog, origins, c))
        .product()
}

struct EstOut {
    rows: f64,
    origins: Origins,
}

/// Walk the plan in pre-order, pushing each node's estimate into `out`
/// (slot reserved before children so indices match the profiler) and
/// returning the node's estimated rows plus output-column provenance.
fn est_walk(catalog: &Catalog, plan: &PhysPlan, out: &mut Vec<u64>) -> EstOut {
    let idx = out.len();
    out.push(0);
    let est = match plan {
        PhysPlan::SeqScan { table, filters } => match catalog.table(table) {
            Ok(t) => EstOut {
                rows: t.heap.tuple_count() as f64
                    * conds_selectivity(catalog, &table_origins(t), filters),
                origins: table_origins(t),
            },
            Err(_) => EstOut {
                rows: 0.0,
                origins: Vec::new(),
            },
        },
        PhysPlan::IndexLookup {
            table,
            index_pos,
            keys,
            residual,
        } => match catalog.table(table) {
            Ok(t) => {
                let origins = table_origins(t);
                let n = t.heap.tuple_count() as f64;
                let key_sel: f64 = t.indexes[*index_pos]
                    .key_cols()
                    .iter()
                    .map(|&kc| {
                        col_distinct(t, kc)
                            .map(|d| 1.0 / d as f64)
                            .unwrap_or(DEFAULT_EQ_SEL)
                    })
                    .product();
                EstOut {
                    rows: keys.len() as f64
                        * n
                        * key_sel
                        * conds_selectivity(catalog, &origins, residual),
                    origins,
                }
            }
            Err(_) => EstOut {
                rows: 0.0,
                origins: Vec::new(),
            },
        },
        PhysPlan::IndexRange {
            table, residual, ..
        } => match catalog.table(table) {
            Ok(t) => {
                let origins = table_origins(t);
                // The residual repeats the range bounds, so estimating from
                // the residual alone avoids double-counting them.
                EstOut {
                    rows: t.heap.tuple_count() as f64
                        * conds_selectivity(catalog, &origins, residual),
                    origins,
                }
            }
            Err(_) => EstOut {
                rows: 0.0,
                origins: Vec::new(),
            },
        },
        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
        } => {
            let l = est_walk(catalog, left, out);
            let r = est_walk(catalog, right, out);
            let mut sel = 1.0;
            for (&lk, &rk) in left_keys.iter().zip(right_keys) {
                sel *= pair_selectivity(catalog, &l.origins, lk, &r.origins, rk);
            }
            let mut origins = l.origins;
            origins.extend(r.origins);
            let rows = l.rows * r.rows * sel * conds_selectivity(catalog, &origins, residual);
            EstOut { rows, origins }
        }
        PhysPlan::IndexNlJoin {
            left,
            table,
            index_pos,
            left_keys: _,
            inner_filters,
            residual,
        } => {
            let l = est_walk(catalog, left, out);
            match catalog.table(table) {
                Ok(t) => {
                    let inner_origins = table_origins(t);
                    let n = t.heap.tuple_count() as f64;
                    let d = t.indexes[*index_pos].distinct_keys().max(1) as f64;
                    let matches = n / d;
                    let inner_sel = conds_selectivity(catalog, &inner_origins, inner_filters);
                    let mut origins = l.origins;
                    origins.extend(inner_origins);
                    let rows = l.rows
                        * matches
                        * inner_sel
                        * conds_selectivity(catalog, &origins, residual);
                    EstOut { rows, origins }
                }
                Err(_) => EstOut {
                    rows: 0.0,
                    origins: l.origins,
                },
            }
        }
        PhysPlan::CrossJoin {
            left,
            right,
            residual,
        } => {
            let l = est_walk(catalog, left, out);
            let r = est_walk(catalog, right, out);
            let mut origins = l.origins;
            origins.extend(r.origins);
            let rows = l.rows * r.rows * conds_selectivity(catalog, &origins, residual);
            EstOut { rows, origins }
        }
        PhysPlan::AntiJoin { child, .. } => {
            let c = est_walk(catalog, child, out);
            // Coarse: without correlation-hit statistics, assume half the
            // outer rows survive.
            EstOut {
                rows: c.rows * 0.5,
                origins: c.origins,
            }
        }
        PhysPlan::Filter { child, conds } => {
            let c = est_walk(catalog, child, out);
            let rows = c.rows * conds_selectivity(catalog, &c.origins, conds);
            EstOut {
                rows,
                origins: c.origins,
            }
        }
        PhysPlan::Project { child, exprs } => {
            let c = est_walk(catalog, child, out);
            let origins = exprs
                .iter()
                .map(|e| match e {
                    ProjExpr::Col(i) => c.origins.get(*i).cloned().flatten(),
                    ProjExpr::Lit(_) => None,
                })
                .collect();
            EstOut {
                rows: c.rows,
                origins,
            }
        }
        PhysPlan::Distinct { child } | PhysPlan::Sort { child, .. } => {
            // Distinct's shrink is unknowable without multi-column stats;
            // pass the child's estimate through as an upper bound.
            est_walk(catalog, child, out)
        }
        PhysPlan::CountStar { child } => {
            est_walk(catalog, child, out);
            EstOut {
                rows: 1.0,
                origins: vec![None],
            }
        }
        PhysPlan::GroupCount { child, keys } => {
            let c = est_walk(catalog, child, out);
            let distincts: Option<f64> = keys
                .iter()
                .map(|&k| {
                    c.origins
                        .get(k)
                        .and_then(|o| o.as_ref())
                        .and_then(|(t, col)| {
                            catalog.table(t).ok().and_then(|t| col_distinct(t, *col))
                        })
                        .map(|d| d as f64)
                })
                .product();
            let rows = match distincts {
                Some(d) => c.rows.min(d),
                None => c.rows,
            };
            let mut origins: Origins = keys
                .iter()
                .map(|&k| c.origins.get(k).cloned().flatten())
                .collect();
            origins.push(None); // the count column
            EstOut { rows, origins }
        }
        PhysPlan::UnionAll { left, right } | PhysPlan::UnionDistinct { left, right } => {
            let l = est_walk(catalog, left, out);
            let r = est_walk(catalog, right, out);
            EstOut {
                rows: l.rows + r.rows,
                origins: l.origins,
            }
        }
        PhysPlan::Except { left, right } => {
            let l = est_walk(catalog, left, out);
            est_walk(catalog, right, out);
            EstOut {
                rows: l.rows,
                origins: l.origins,
            }
        }
    };
    out[idx] = est.rows.round().max(0.0) as u64;
    est
}

/// Join selectivity between two layout slots, via their provenance.
fn pair_selectivity(
    catalog: &Catalog,
    l_origins: &Origins,
    lk: usize,
    r_origins: &Origins,
    rk: usize,
) -> f64 {
    let d = |origins: &Origins, pos: usize| -> Option<u64> {
        origins
            .get(pos)
            .and_then(|o| o.as_ref())
            .and_then(|(t, col)| catalog.table(t).ok().and_then(|t| col_distinct(t, *col)))
    };
    let denom = match (d(l_origins, lk), d(r_origins, rk)) {
        (Some(a), Some(b)) => a.max(b),
        (Some(a), None) | (None, Some(a)) => a,
        (None, None) => 20,
    };
    1.0 / denom.max(1) as f64
}
