//! End-to-end observability trace — replays the Figure 11–14 recursive
//! workloads and writes `BENCH_trace.json`: for every clique of every
//! workload, the per-iteration delta cardinalities, per-phase statement
//! timings, plan-cache activity, and magic vs modified-rules attribution,
//! plus a final engine-metrics snapshot.
//!
//! The trace is self-consistent by construction: each clique's `setup_ms`
//! plus its summed per-iteration wall times reconstructs the clique's
//! measured wall time, so the per-iteration rows re-derive the Figure 11
//! and Figure 14 totals (EXPERIMENTS.md walks through the arithmetic).

use crate::{f3, ms, print_table, tree_session};
use km::session::QueryResult;
use km::{CliqueTrace, LfpStrategy};
use rdbms::metrics::json_escape;
use std::fmt::Write as _;
use std::time::Duration;
use workload::graphs::tree_node_at_level;

/// Wall time attributed to cliques: what the per-clique traces must
/// account for.
fn lfp_wall(r: &QueryResult) -> Duration {
    r.outcome
        .node_timings
        .iter()
        .filter(|n| n.is_clique)
        .map(|n| n.elapsed)
        .sum()
}

/// Sum of everything the trace records for one clique.
fn trace_sum(t: &CliqueTrace) -> Duration {
    t.t_setup + t.iterations.iter().map(|i| i.t_total).sum::<Duration>()
}

fn json_clique(out: &mut String, t: &CliqueTrace) {
    let preds: Vec<String> = t
        .predicates
        .iter()
        .map(|p| format!("\"{}\"", json_escape(p)))
        .collect();
    let _ = writeln!(
        out,
        "        {{\"predicates\": [{}], \"is_magic\": {}, \"total_ms\": {:.3}, \
         \"setup_ms\": {:.3}, \"iterations\": [",
        preds.join(", "),
        t.is_magic,
        ms(t.total),
        ms(t.t_setup)
    );
    for (i, it) in t.iterations.iter().enumerate() {
        let delta: Vec<String> = it
            .delta_cards
            .iter()
            .map(|(p, n)| format!("\"{}\": {n}", json_escape(p)))
            .collect();
        let _ = writeln!(
            out,
            "          {{\"iteration\": {}, \"t_total_ms\": {:.3}, \"t_temp_ms\": {:.3}, \
             \"t_eval_ms\": {:.3}, \"t_term_ms\": {:.3}, \"plan_cache_hits\": {}, \
             \"plan_cache_misses\": {}, \"plan_replans\": {}, \"statements\": {}, \
             \"delta\": {{{}}}}}{}",
            it.iteration,
            ms(it.t_total),
            ms(it.t_temp),
            ms(it.t_eval),
            ms(it.t_term),
            it.plan_cache_hits,
            it.plan_cache_misses,
            it.plan_replans,
            it.statements,
            delta.join(", "),
            if i + 1 < t.iterations.len() { "," } else { "" }
        );
    }
    out.push_str("        ]}");
}

pub fn run() {
    // The recursive workloads of §5: the Figure 11 tree closure under both
    // strategies, the larger Figure 12/13 tree, and the Figure 14 magic-sets
    // evaluation of a selective query (two cliques: magic then modified).
    struct Workload {
        name: &'static str,
        depth: u32,
        optimize: bool,
        strategy: LfpStrategy,
        query: String,
    }
    let workloads = [
        Workload {
            name: "fig11-tree-d8-naive",
            depth: 8,
            optimize: false,
            strategy: LfpStrategy::Naive,
            query: "?- anc(n1, W).".to_string(),
        },
        Workload {
            name: "fig11-tree-d8-semi_naive",
            depth: 8,
            optimize: false,
            strategy: LfpStrategy::SemiNaive,
            query: "?- anc(n1, W).".to_string(),
        },
        Workload {
            name: "fig12-tree-d10-semi_naive",
            depth: 10,
            optimize: false,
            strategy: LfpStrategy::SemiNaive,
            query: "?- anc(n1, W).".to_string(),
        },
        Workload {
            name: "fig14-magic-d8-level3",
            depth: 8,
            optimize: true,
            strategy: LfpStrategy::SemiNaive,
            query: format!("?- anc({}, W).", tree_node_at_level(3)),
        },
    ];

    let mut rows = Vec::new();
    let mut json = String::from("{\n  \"experiment\": \"trace\",\n  \"workloads\": [\n");
    let mut last_metrics = String::from("{}");
    for (w_idx, w) in workloads.iter().enumerate() {
        let mut session = tree_session(w.depth, w.optimize, w.strategy).expect("session");
        let compiled = session.compile(&w.query).expect("compile");
        let r = session.execute(&compiled).expect("execute");

        let wall = lfp_wall(&r);
        let sum: Duration = r.outcome.clique_traces.iter().map(trace_sum).sum();
        let coverage = if wall.is_zero() {
            1.0
        } else {
            sum.as_secs_f64() / wall.as_secs_f64()
        };
        assert!(
            (coverage - 1.0).abs() <= 0.05,
            "{}: trace accounts for {:.1}% of the measured LFP wall time",
            w.name,
            100.0 * coverage
        );
        let iterations: u64 = r
            .outcome
            .clique_traces
            .iter()
            .map(|t| t.iterations.len() as u64)
            .sum();
        let n_magic = r
            .outcome
            .clique_traces
            .iter()
            .filter(|t| t.is_magic)
            .count();
        if w.optimize {
            assert!(n_magic > 0, "{}: magic sets produce a magic clique", w.name);
        }
        rows.push(vec![
            w.name.to_string(),
            r.rows.len().to_string(),
            r.outcome.clique_traces.len().to_string(),
            iterations.to_string(),
            f3(ms(wall)),
            format!("{:.1}%", 100.0 * coverage),
            f3(ms(r.magic_time())),
            f3(ms(r.modified_time())),
        ]);

        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"depth\": {}, \"optimize\": {}, \
             \"strategy\": \"{}\", \"answers\": {},\n      \"total_ms\": {:.3}, \
             \"lfp_wall_ms\": {:.3}, \"trace_sum_ms\": {:.3}, \"coverage\": {:.4},\n      \
             \"magic_ms\": {:.3}, \"modified_ms\": {:.3},\n      \"cliques\": [\n",
            w.name,
            w.depth,
            w.optimize,
            match w.strategy {
                LfpStrategy::Naive => "naive",
                LfpStrategy::SemiNaive => "semi_naive",
            },
            r.rows.len(),
            ms(r.t_execute),
            ms(wall),
            ms(sum),
            coverage,
            ms(r.magic_time()),
            ms(r.modified_time()),
        );
        for (i, t) in r.outcome.clique_traces.iter().enumerate() {
            json_clique(&mut json, t);
            json.push_str(if i + 1 < r.outcome.clique_traces.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let _ = write!(
            json,
            "      ]\n    }}{}\n",
            if w_idx + 1 < workloads.len() { "," } else { "" }
        );
        last_metrics = session.engine().metrics().to_json();
    }
    let _ = writeln!(json, "  ],\n  \"engine_metrics\": {last_metrics}\n}}");

    print_table(
        "LFP execution trace: per-clique iteration accounting",
        &[
            "workload",
            "answers",
            "cliques",
            "iters",
            "lfp wall(ms)",
            "traced",
            "magic(ms)",
            "modified(ms)",
        ],
        &rows,
    );
    println!("`traced` is the share of LFP wall time the per-iteration trace");
    println!("accounts for (setup + iteration rows; must stay within 5%).");

    match std::fs::write("BENCH_trace.json", &json) {
        Ok(()) => println!("Wrote BENCH_trace.json."),
        Err(e) => eprintln!("could not write BENCH_trace.json: {e}"),
    }
}
