//! The fast self-test: every workload once, traced and untraced, at
//! `--quick` sizes, through the same command line the driver uses.

use dkbms_benchmark::json::Json;
use dkbms_benchmark::layers::{END_TO_END, PER_LAYER};
use dkbms_benchmark::workloads::NAMES;
use std::process::Command;

fn run(workload: &str, trace: bool, seed: u64) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--trace", if trace { "1" } else { "0" }])
        .arg("--quick")
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

fn check_shape(result: &Json, workload: &str, names: &[(&str, &str)]) {
    let keys: Vec<&str> = result
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{workload}");
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let got: Vec<(&str, &str)> = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics")
        .iter()
        .map(|(k, v)| (k.as_str(), v.get("unit").and_then(Json::as_str).unwrap()))
        .collect();
    assert_eq!(got, names, "{workload}: metric names and units");
}

#[test]
fn quick_runs_pass_and_report_every_metric() {
    for workload in NAMES {
        let e2e = run(workload, false, 42);
        check_shape(&e2e, workload, &END_TO_END);
        for (name, _) in END_TO_END {
            assert!(
                metric(&e2e, name) > 0.0,
                "{workload}: {name} must never be 0"
            );
        }
        let layers = run(workload, true, 7);
        check_shape(&layers, workload, &PER_LAYER);
    }
    // The coverage metrics are reported where their layer runs.
    let adhoc = run("adhoc_query", true, 42);
    assert!(metric(&adhoc, "km.session.compile_coverage") > 0.5);
    assert!(metric(&adhoc, "km.runtime.breakdown_coverage") > 0.5);
    let update = run("dkb_update", true, 42);
    assert!(metric(&update, "km.update.coverage") > 0.5);
    assert!(metric(&update, "wal_bytes_per_update") > 0.0);
    // A layer a workload never enters reads 0 there.
    let sql = run("sql_engine", true, 42);
    assert_eq!(metric(&sql, "t_e_ms.p50"), 0.0);
    assert!(metric(&sql, "rdbms.spill.grace_join_ms") > 0.0);
    assert!(metric(&sql, "rdbms.exec.spill_partitions") > 0.0);
}

#[test]
fn benchmark_json_names_what_the_harness_reports() {
    let path = dkbms_benchmark::bench_dir().join("../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let list = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("no {key}"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), owned(&END_TO_END));
    assert_eq!(list("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = list("workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, NAMES);
    assert_eq!(
        spec.get("paths").and_then(Json::as_arr).map(<[Json]>::len),
        Some(1)
    );
}

#[test]
fn a_debug_build_refuses_to_measure() {
    if !cfg!(debug_assertions) {
        return;
    }
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            "lfp_tree",
            "--seed",
            "1",
            "--seconds",
            "0.1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line from a refused run");
}
