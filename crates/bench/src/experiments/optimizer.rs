//! Optimizer ablation — the cost-based planner (live statistics, pushdown
//! rewrites, cardinality-driven join ordering and join-method selection)
//! against the legacy heuristic planner it replaced.
//!
//! Re-runs the Figure 11/12/14 recursive traces under both planner modes
//! and adds a synthetic skewed three-way join where the FROM order is
//! adversarial. Hard assertions, so CI fails on a planner regression:
//! answers must be identical under both modes, the cost-based planner must
//! never lose a trace by more than 10% (plus a small absolute slack for
//! timer noise), and it must be measurably faster somewhere. Writes
//! `BENCH_optimizer.json`.

use crate::experiments::min_of;
use crate::{f3, ms, print_table, tree_session};
use km::LfpStrategy;
use rdbms::metrics::json_escape;
use rdbms::{Engine, PlannerMode, Value};
use std::fmt::Write as _;
use std::time::Duration;
use workload::graphs::tree_node_at_level;

/// A cost-based trace may be at most 10% slower than the heuristic one...
const TOLERANCE: f64 = 1.10;
/// ...plus this much, so sub-millisecond traces don't fail on timer noise.
const SLACK: Duration = Duration::from_millis(2);

struct Trace {
    name: &'static str,
    depth: u32,
    optimize: bool,
    strategy: LfpStrategy,
    level: u32,
}

/// The Figure 11/12/14 workloads the paper's query-processing evaluation
/// is built on: the flat-selectivity semi-naive closure, the naive
/// strategy that recomputes every iteration, and the magic-sets run.
const TRACES: &[Trace] = &[
    Trace {
        name: "fig11-tree-d10-semi_naive",
        depth: 10,
        optimize: false,
        strategy: LfpStrategy::SemiNaive,
        level: 3,
    },
    Trace {
        name: "fig12-tree-d9-naive",
        depth: 9,
        optimize: false,
        strategy: LfpStrategy::Naive,
        level: 1,
    },
    Trace {
        name: "fig14-magic-d10-level3",
        depth: 10,
        optimize: true,
        strategy: LfpStrategy::SemiNaive,
        level: 3,
    },
];

/// Run one trace under `mode`: best-of-N execution time plus the sorted
/// answer set for cross-mode comparison.
fn run_trace(t: &Trace, mode: PlannerMode) -> (Duration, Vec<Vec<Value>>) {
    let mut s = tree_session(t.depth, t.optimize, t.strategy).expect("session");
    s.engine_mut().set_planner_mode(mode);
    let query = format!("?- anc({}, W).", tree_node_at_level(t.level));
    let compiled = s.compile(&query).expect("compile");
    let mut rows = s.execute(&compiled).expect("run").rows;
    rows.sort();
    let t_e = min_of(5, || s.execute(&compiled).expect("run").t_execute);
    (t_e, rows)
}

/// A three-way join over a skewed column where the legacy planner's flat
/// selectivity constants are maximally wrong: `big.flag = 7` matches every
/// row, but the heuristic prices any equality filter at 1/20 and therefore
/// drives the join with 8000 rows. The cost-based planner's distinct count
/// knows the filter keeps everything and drives with the small relation
/// instead. Returns time, sorted rows, and EXPLAIN text.
fn run_synthetic(mode: PlannerMode) -> (Duration, Vec<Vec<Value>>, Vec<String>) {
    let mut e = Engine::new();
    e.set_planner_mode(mode);
    e.execute("CREATE TABLE big (a int, b int, flag int)")
        .expect("ddl");
    e.execute("CREATE TABLE mid (b int, c int)").expect("ddl");
    e.execute("CREATE TABLE small (c int, d int)").expect("ddl");
    e.execute("CREATE INDEX big_b ON big (b)").expect("ddl");
    e.execute("CREATE INDEX mid_b ON mid (b)").expect("ddl");
    e.execute("CREATE INDEX mid_c ON mid (c)").expect("ddl");
    e.execute("CREATE INDEX small_c ON small (c)").expect("ddl");
    // Skew: every big row carries flag = 7, so `flag = 7` keeps all 8000
    // rows; only a quarter of them join through mid, all of mid joins
    // through small.
    e.insert_rows(
        "big",
        (0..8000)
            .map(|i| vec![Value::Int(i), Value::Int(i), Value::Int(7)])
            .collect(),
    )
    .expect("load");
    e.insert_rows(
        "mid",
        (0..2000)
            .map(|i| vec![Value::Int(i), Value::Int(i % 600)])
            .collect(),
    )
    .expect("load");
    e.insert_rows(
        "small",
        (0..600)
            .map(|i| vec![Value::Int(i), Value::Int(i)])
            .collect(),
    )
    .expect("load");

    let sql = "SELECT big.a FROM big, mid, small \
               WHERE big.flag = 7 AND big.b = mid.b AND mid.c = small.c";
    let plan: Vec<String> = e
        .execute(&format!("EXPLAIN {sql}"))
        .expect("explain")
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.clone(),
            v => format!("{v:?}"),
        })
        .collect();
    let mut rows = e.execute(sql).expect("run").rows;
    rows.sort();
    let t = min_of(5, || {
        let start = std::time::Instant::now();
        e.execute(sql).expect("run");
        start.elapsed()
    });
    (t, rows, plan)
}

fn speedup(heur: Duration, cost: Duration) -> f64 {
    heur.as_secs_f64() / cost.as_secs_f64().max(1e-9)
}

fn check_budget(name: &str, heur: Duration, cost: Duration) {
    let budget = heur.mul_f64(TOLERANCE) + SLACK;
    assert!(
        cost <= budget,
        "{name}: cost-based planner regressed — {:.3}ms vs heuristic {:.3}ms \
         (budget {:.3}ms)",
        ms(cost),
        ms(heur),
        ms(budget)
    );
}

pub fn run() {
    let mut rows = Vec::new();
    let mut json = String::from("{\n  \"experiment\": \"optimizer\",\n");
    let _ = writeln!(json, "  \"tolerance\": {TOLERANCE},\n  \"traces\": [");
    let mut best = f64::MIN;

    for (i, t) in TRACES.iter().enumerate() {
        let (t_heur, rows_heur) = run_trace(t, PlannerMode::Heuristic);
        let (t_cost, rows_cost) = run_trace(t, PlannerMode::CostBased);
        assert_eq!(
            rows_heur, rows_cost,
            "{}: planner modes must agree on answers",
            t.name
        );
        check_budget(t.name, t_heur, t_cost);
        let s = speedup(t_heur, t_cost);
        best = best.max(s);
        rows.push(vec![
            t.name.to_string(),
            rows_cost.len().to_string(),
            f3(ms(t_heur)),
            f3(ms(t_cost)),
            format!("{s:.2}x"),
        ]);
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"answers\": {}, \"heuristic_ms\": {:.3}, \
             \"cost_ms\": {:.3}, \"speedup\": {:.3}, \"answers_match\": true}}{}",
            t.name,
            rows_cost.len(),
            ms(t_heur),
            ms(t_cost),
            s,
            if i + 1 < TRACES.len() { "," } else { "" }
        );
    }

    let (t_heur, rows_heur, plan_heur) = run_synthetic(PlannerMode::Heuristic);
    let (t_cost, rows_cost, plan_cost) = run_synthetic(PlannerMode::CostBased);
    assert_eq!(rows_heur, rows_cost, "synthetic: answers must agree");
    check_budget("synthetic-3way", t_heur, t_cost);
    assert_ne!(
        plan_heur, plan_cost,
        "synthetic: the adversarial FROM order must make the planners \
         choose different plans"
    );
    let s = speedup(t_heur, t_cost);
    best = best.max(s);
    rows.push(vec![
        "synthetic-3way-skew".to_string(),
        rows_cost.len().to_string(),
        f3(ms(t_heur)),
        f3(ms(t_cost)),
        format!("{s:.2}x"),
    ]);
    let plan_json = |plan: &[String]| {
        plan.iter()
            .map(|l| format!("\"{}\"", json_escape(l)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = write!(
        json,
        "  ],\n  \"synthetic\": {{\"heuristic_ms\": {:.3}, \"cost_ms\": {:.3}, \
         \"speedup\": {:.3}, \"plans_differ\": true,\n    \"heuristic_plan\": [{}],\n    \
         \"cost_plan\": [{}]}},\n  \"best_speedup\": {:.3}\n}}\n",
        ms(t_heur),
        ms(t_cost),
        s,
        plan_json(&plan_heur),
        plan_json(&plan_cost),
        best
    );

    print_table(
        "Optimizer ablation: heuristic vs cost-based planner, t_e (ms)",
        &["trace", "answers", "heuristic", "cost-based", "speedup"],
        &rows,
    );
    println!("Answers are identical under both modes; the cost-based planner");
    println!("must stay within 10% everywhere and win somewhere (asserted).");
    println!("\nSynthetic three-way join plans:");
    println!("  heuristic:  {}", plan_heur.join(" | "));
    println!("  cost-based: {}", plan_cost.join(" | "));

    match std::fs::write("BENCH_optimizer.json", &json) {
        Ok(()) => println!("Wrote BENCH_optimizer.json."),
        Err(e) => eprintln!("could not write BENCH_optimizer.json: {e}"),
    }

    assert!(
        best > 1.0,
        "cost-based planner must be measurably faster on at least one trace \
         (best speedup {best:.3}x)"
    );
}
