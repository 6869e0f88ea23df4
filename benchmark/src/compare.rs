//! `compare`: hold result files against the bounds of `BENCHMARK.json`.
//!
//! The first file is the baseline; every other file is compared with
//! it. One row per (workload, end-to-end metric): both medians, both
//! interquartile ranges, the bound, and a verdict.

use crate::json::Json;
use crate::stats::{median, quartiles, spread};
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    /// The other side's median is worse by more than the bound.
    Regressed,
    /// Run-to-run spread on either side is wider than the bound, so a
    /// difference inside the bound cannot be told from noise.
    Unresolved,
}

/// `lower_is_better` and `bound` come from `BENCHMARK.json`.
pub fn judge(base: &[f64], other: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (a, b) = (median(base), median(other));
    let worse_by = if lower_is_better { b - a } else { a - b } / a.abs().max(f64::MIN_POSITIVE);
    if worse_by > bound {
        Verdict::Regressed
    } else if [base, other]
        .iter()
        .any(|v| spread(v).is_some_and(|s| s > bound))
    {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("metrics"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn cell(v: &[f64]) -> String {
    match quartiles(v) {
        Some((q1, q3)) => format!("{:.4} [{:.4} {:.4}]", median(v), q1, q3),
        None => format!("{:.4}", median(v)),
    }
}

pub fn compare(files: &[PathBuf]) -> Result<ExitCode, String> {
    let [base_path, others @ ..] = files else {
        return Err("compare needs a baseline file and at least one other".into());
    };
    if others.is_empty() {
        return Err("compare needs a baseline file and at least one other".into());
    }
    let spec = load(&crate::bench_dir().join("../BENCHMARK.json"))?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let base = load(base_path)?;
    let mut regressed = false;
    for other_path in others {
        let other = load(other_path)?;
        println!(
            "{} -> {}\n{:<16} {:<12} {:>30} {:>30} {:>7}  verdict",
            base_path.display(),
            other_path.display(),
            "workload",
            "metric",
            "baseline median [q1 q3]",
            "other median [q1 q3]",
            "bound"
        );
        for w in &workloads {
            for m in metrics {
                let name = m.get("name").and_then(Json::as_str).unwrap_or("");
                let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
                let lower = m.get("better").and_then(Json::as_str) != Some("higher");
                let (a, b) = (values(&base, w, name), values(&other, w, name));
                if a.is_empty() || b.is_empty() {
                    println!(
                        "{w:<16} {name:<12} {:>30} {:>30} {bound:>7}  missing",
                        "-", "-"
                    );
                    continue;
                }
                let verdict = judge(&a, &b, lower, bound);
                regressed |= verdict == Verdict::Regressed;
                println!(
                    "{w:<16} {name:<12} {:>30} {:>30} {bound:>7}  {}",
                    cell(&a),
                    cell(&b),
                    match verdict {
                        Verdict::Ok => "ok",
                        Verdict::Regressed => "regressed",
                        Verdict::Unresolved => "unresolved",
                    }
                );
            }
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0];
        // Lower is better: 10 -> 10.4 is inside a 5% bound, 10 -> 11 is not.
        assert_eq!(
            judge(&steady, &[10.4, 10.4, 10.5, 10.3], true, 0.05),
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[11.0, 11.1, 10.9, 11.0], true, 0.05),
            Verdict::Regressed
        );
        // Getting better is never a regression.
        assert_eq!(
            judge(&steady, &[5.0, 5.0, 5.0, 5.0], true, 0.05),
            Verdict::Ok
        );
        // Higher is better: a drop is the regression.
        assert_eq!(
            judge(&steady, &[9.0, 9.0, 9.1, 8.9], false, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady, &[11.0, 11.0, 11.0, 11.0], false, 0.05),
            Verdict::Ok
        );
        // Spread wider than the bound: not "unchanged", unresolved.
        assert_eq!(
            judge(&[8.0, 10.0, 12.0, 10.0], &steady, true, 0.05),
            Verdict::Unresolved
        );
        // Single runs have no spread; medians alone decide.
        assert_eq!(judge(&[10.0], &[10.2], true, 0.05), Verdict::Ok);
    }
}
