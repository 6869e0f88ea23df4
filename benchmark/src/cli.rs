//! The command line: one run in this process, the orchestrated `run` and
//! `trace` sets, `compare`, and `expected`.

use crate::json::Json;
use crate::run::{self, Opts, Outcome};
use crate::workloads::Workload as _;
use crate::{bench_dir, check, compare, stats, workloads};
use std::path::PathBuf;
use std::process::ExitCode;

fn dispatch(name: &str, o: &Opts) -> Option<Outcome> {
    use workloads::*;
    Some(match name {
        "lfp_tree" => run::run::<lfp_tree::LfpTree>(o),
        "lfp_scale" => run::run::<lfp_scale::LfpScale>(o),
        "adhoc_query" => run::run::<adhoc_query::AdhocQuery>(o),
        "dkb_update" => run::run::<dkb_update::DkbUpdate>(o),
        "sql_engine" => run::run::<sql_engine::SqlEngine>(o),
        "sessions_mixed" => run::run::<sessions_mixed::SessionsMixed>(o),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
    out: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        seed: 42,
        seconds: None,
        trace: false,
        quick: false,
        runs: 1,
        out: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value"))
                .cloned()
        };
        let bad = |v: String| format!("bad value for {arg}: {v}");
        match arg.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v.into())),
                }
            }
            "--runs" => a.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--out" => a.out = Some(value()?.into()),
            "--quick" => a.quick = true,
            f if !f.starts_with("--") => a.files.push(f.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

impl Args {
    fn opts(&self) -> Opts {
        Opts {
            seed: self.seed,
            seconds: self.seconds.unwrap_or(if self.quick { 0.25 } else { 15.0 }),
            trace: self.trace,
            quick: self.quick,
        }
    }

    fn workloads(&self) -> Result<Vec<&str>, String> {
        if self.workload == "all" {
            return Ok(workloads::NAMES.to_vec());
        }
        workloads::NAMES
            .iter()
            .find(|n| **n == self.workload)
            .map(|n| vec![*n])
            .ok_or_else(|| {
                format!(
                    "unknown workload {} (one of: all {})",
                    self.workload,
                    workloads::NAMES.join(" ")
                )
            })
    }
}

/// A debug build measures nothing worth keeping.
fn require_release(quick: bool) -> Result<(), String> {
    if cfg!(debug_assertions) && !quick {
        return Err(
            "this is a debug build: build with --release (or pass --quick to smoke-test)".into(),
        );
    }
    Ok(())
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(out: &Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "metrics",
            Json::obj(out.metrics.iter().map(|&(name, value, unit)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ])
    .render()
}

/// One workload, one run, in this process.
fn single(a: &Args) -> Result<ExitCode, String> {
    require_release(a.quick)?;
    let names = a.workloads()?;
    let [name] = names.as_slice() else {
        return Err("one run takes one --workload".into());
    };
    let out = dispatch(name, &a.opts()).expect("name was checked");
    for e in &out.errors {
        eprintln!("{name}: {e}");
    }
    println!("{}", result_line(&out));
    Ok(if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(bench_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn provenance(a: &Args, o: &Opts) -> Json {
    let knobs = |fsync| {
        Json::obj(
            run::pinned_env(fsync)
                .into_iter()
                .map(|(k, v)| (k, v.map_or(Json::Null, Json::Str))),
        )
    };
    Json::obj([
        (
            "git_sha",
            Json::Str(command_output("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(command_output("rustc", &["--version"]))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("runs", Json::Num(a.runs as f64)),
        ("quick", Json::Bool(o.quick)),
        ("knobs", knobs(0)),
        (
            "knobs_sessions_mixed",
            knobs(workloads::sessions_mixed::SessionsMixed::FSYNC_MICROS),
        ),
    ])
}

/// One metric of one workload over the runs of a set.
struct Series {
    metric: String,
    unit: String,
    values: Vec<f64>,
}

/// What the runs of one workload reported.
struct Collected<'a> {
    name: &'a str,
    attempted: Vec<f64>,
    failed: Vec<f64>,
    series: Vec<Series>,
    /// A child exited non-zero or reported failed ops.
    unclean: bool,
}

/// Run `name` in child processes of its own, `runs` times (so peak RSS,
/// allocator state and the pinned environment are per workload and run).
fn collect<'a>(name: &'a str, opts: &Opts, runs: usize) -> Result<Collected<'a>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut c = Collected {
        name,
        attempted: Vec::new(),
        failed: Vec::new(),
        series: Vec::new(),
        unclean: false,
    };
    for r in 0..runs {
        eprintln!("{name}: run {} of {runs} ..", r + 1);
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }]);
        if opts.quick {
            cmd.arg("--quick");
        }
        let output = cmd.output().map_err(|e| e.to_string())?;
        std::io::Write::write_all(&mut std::io::stderr(), &output.stderr).ok();
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("");
        let j = Json::parse(line).map_err(|e| format!("{name}: no result line ({e})"))?;
        let num = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        c.attempted.push(num("attempted"));
        c.failed.push(num("failed"));
        c.unclean |= num("failed") > 0.0 || !output.status.success();
        for (metric, v) in j.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            match c.series.iter_mut().find(|s| s.metric == *metric) {
                Some(s) => s.values.push(value),
                None => c.series.push(Series {
                    metric: metric.clone(),
                    unit: v.get("unit").and_then(Json::as_str).unwrap_or("").into(),
                    values: vec![value],
                }),
            }
        }
    }
    Ok(c)
}

/// Metrics down, workloads across, the median over the runs in each cell.
fn print_table(sets: &[Collected]) {
    let width = sets.iter().map(|c| c.name.len()).max().unwrap_or(0).max(12);
    print!("{:<40} {:<6}", "metric", "unit");
    for c in sets {
        print!(" {:>width$}", c.name);
    }
    println!();
    for row in &sets[0].series {
        print!("{:<40} {:<6}", row.metric, row.unit);
        for c in sets {
            let values = c.series.iter().find(|s| s.metric == row.metric);
            print!(
                " {:>width$.4}",
                values.map_or(0.0, |s| stats::median(&s.values))
            );
        }
        println!();
    }
    print!("{:<40} {:<6}", "failed_ops_share", "ratio");
    for c in sets {
        let (failed, attempted): (f64, f64) = (c.failed.iter().sum(), c.attempted.iter().sum());
        print!(" {:>width$.4}", failed / attempted.max(1.0));
    }
    println!();
}

/// `run` and `trace`: every selected workload `runs` times, a table of
/// medians on stdout, and a result file `compare` can read.
fn orchestrate(a: &Args, trace: bool) -> Result<ExitCode, String> {
    require_release(a.quick)?;
    let opts = Opts { trace, ..a.opts() };
    let sets = a
        .workloads()?
        .into_iter()
        .map(|name| collect(name, &opts, a.runs.max(1)))
        .collect::<Result<Vec<_>, _>>()?;
    print_table(&sets);

    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&n| Json::Num(n)).collect());
    let kind = if trace { "per_layer" } else { "end_to_end" };
    let file = Json::obj([
        ("kind", Json::str(kind)),
        ("provenance", provenance(a, &opts)),
        (
            "workloads",
            Json::obj(sets.iter().map(|c| {
                let metrics = Json::obj(c.series.iter().map(|s| {
                    let fields = [("unit", Json::str(&*s.unit)), ("values", nums(&s.values))];
                    (s.metric.as_str(), Json::obj(fields))
                }));
                let fields = [
                    ("attempted", nums(&c.attempted)),
                    ("failed", nums(&c.failed)),
                    ("metrics", metrics),
                ];
                (c.name, Json::obj(fields))
            })),
        ),
    ]);
    let path = a.out.clone().unwrap_or_else(|| {
        bench_dir()
            .join("out")
            .join(format!("{kind}_seed{}.json", opts.seed))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&path, file.render() + "\n").map_err(|e| e.to_string())?;
    eprintln!("wrote {}", path.display());
    Ok(if sets.iter().any(|c| c.unclean) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Regenerate the pinned expected-answer files of one seed. The digest
/// written is the program's, and only after every op matched the
/// harness's own reference answer, so it is the reference's as well.
fn write_expected(a: &Args) -> Result<ExitCode, String> {
    for name in a.workloads()? {
        let path = check::expected_path(name, a.seed);
        match std::fs::remove_file(&path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.to_string()),
            _ => {}
        }
        let out = dispatch(
            name,
            &Opts {
                seed: a.seed,
                seconds: 0.0,
                trace: false,
                quick: false,
            },
        )
        .expect("name was checked");
        if out.failed > 0 {
            return Err(format!("{name}: {}", out.errors.join("; ")));
        }
        let pinned = out.pinned.expect("a clean run pins its warm-up");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(&path, pinned.to_json(name, a.seed).render() + "\n")
            .map_err(|e| e.to_string())?;
        eprintln!("wrote {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match args.first().map(String::as_str) {
        Some(s) if !s.starts_with("--") => (s, &args[1..]),
        _ => ("", &args[..]),
    };
    let result = parse_args(rest).and_then(|a| match sub {
        "" => single(&a),
        "run" => orchestrate(&a, false),
        "trace" => orchestrate(&a, true),
        "compare" => compare::compare(&a.files),
        "expected" => write_expected(&a),
        other => Err(format!("unknown subcommand {other}")),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
