//! One run of one workload: set up, warm up, measure for a fixed time,
//! check the final state, and turn what was recorded into metrics.

use crate::check::{load_expected, Digest, Pinned};
use crate::layers::{Phase, END_TO_END};
use crate::stats::{median, percentile, sorted};
use crate::trace::{merged, sample, write_trace, Counters, Tracer};
use crate::workloads::Workload;
use std::sync::Barrier;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// How long the measured phase runs. Ops are never cut short: the
    /// clock is read between ops.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke sizes: small inputs, one set-up, results not comparable.
    pub quick: bool,
}

#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops run, warm-up included, plus one for the final-state check.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Ops inside the measured phase.
    pub measured_ops: u64,
    /// The warm-up ops' pinned digest, as computed from the program's
    /// own answers (each already checked against the reference).
    pub pinned: Option<Pinned>,
}

impl Outcome {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

/// The knobs the program reads from the environment, pinned so a stray
/// variable in the caller's shell cannot change what is measured. Must
/// run before the first engine is built and before any thread starts.
pub fn pinned_env(fsync_micros: u64) -> Vec<(&'static str, Option<String>)> {
    vec![
        ("RDBMS_PARALLELISM", Some("1".into())),
        ("RDBMS_SPILL", Some("on".into())),
        (
            "RDBMS_BATCH_SIZE",
            Some(rdbms::DEFAULT_BATCH_ROWS.to_string()),
        ),
        ("RDBMS_COST_PLANNER", Some("on".into())),
        ("RDBMS_FAULT_PROFILE", None),
        ("RDBMS_FSYNC_MICROS", Some(fsync_micros.to_string())),
    ]
}

fn pin_env(fsync_micros: u64) {
    for (key, _) in std::env::vars_os()
        .filter_map(|(k, v)| Some((k.into_string().ok()?, v)))
        .filter(|(k, _)| k.starts_with("RDBMS_"))
    {
        std::env::remove_var(key);
    }
    for (key, value) in pinned_env(fsync_micros) {
        if let Some(v) = value {
            std::env::set_var(key, v);
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one client brought back from a phase.
struct ClientRun {
    tracer: Tracer,
    /// Each op that passed its check: when it finished (seconds into
    /// the phase) and its latency (ms).
    latencies: Vec<(f64, f64)>,
    digest: Digest,
    failures: Vec<String>,
    ops: u64,
    busy: Duration,
    /// Ops and wall time (check included) by whether the op was traced.
    traced: (u64, Duration),
    untraced: (u64, Duration),
}

/// One op in five of a traced run goes untraced, so the same run
/// measures what tracing costs: `trace.overhead_share`. Which ones is a
/// hash of the op's position, so no workload's op cycle lines up with it.
const UNTRACED_ONE_IN: u64 = 5;

fn traced_op(position: u64) -> bool {
    crate::check::Rng::new(0x7ace, position).below(UNTRACED_ONE_IN) != 0
}

/// The measured phase is cut into this many equal time windows, and the
/// end-to-end throughput and latency are those of the quietest one.
///
/// The sandbox shares its host. Interference arrives in stretches of
/// several seconds, only ever adds time (the same commit, seed and binary
/// drifted by 8% for ten seconds at a time while this was written), and
/// is not the program's. The window with the highest throughput is the
/// closest thing to the program's own speed that can be observed, and
/// every commit is held to the same rule.
pub const WINDOWS: usize = 3;

/// Throughput and op latencies (ms, unsorted) of the quietest window.
/// `clients` holds, per client, each op's finish time (seconds into the
/// phase) and latency (ms). An op belongs to the window it finished in;
/// what finishes after `seconds` belongs to the last. A window counts
/// only if every client finished an op in it; with none that does, the
/// whole phase is the window.
pub fn quietest_window(clients: &[Vec<(f64, f64)>], seconds: f64) -> (f64, Vec<f64>) {
    let rate = |ops: &[&[(f64, f64)]]| -> Option<f64> {
        ops.iter()
            .map(|c| {
                let busy_s: f64 = c.iter().map(|op| op.1 / 1e3).sum();
                (!c.is_empty()).then(|| c.len() as f64 / busy_s.max(1e-9))
            })
            .sum()
    };
    let width = seconds / WINDOWS as f64;
    let window_of = |end_s: f64| {
        if width > 0.0 {
            ((end_s / width) as usize).min(WINDOWS - 1)
        } else {
            0
        }
    };
    let mut best: Option<(f64, Vec<f64>)> = None;
    for k in 0..WINDOWS {
        let in_window: Vec<Vec<(f64, f64)>> = clients
            .iter()
            .map(|c| {
                c.iter()
                    .copied()
                    .filter(|op| window_of(op.0) == k)
                    .collect()
            })
            .collect();
        let slices: Vec<&[(f64, f64)]> = in_window.iter().map(Vec::as_slice).collect();
        if let Some(r) = rate(&slices) {
            if best.as_ref().is_none_or(|b| r > b.0) {
                best = Some((
                    r,
                    slices
                        .iter()
                        .flat_map(|c| c.iter().map(|op| op.1))
                        .collect(),
                ));
            }
        }
    }
    best.unwrap_or_else(|| {
        let all: Vec<&[(f64, f64)]> = clients.iter().map(Vec::as_slice).collect();
        (
            rate(&all).unwrap_or(0.0),
            all.iter().flat_map(|c| c.iter().map(|op| op.1)).collect(),
        )
    })
}

/// Committing a 2 000-rule workspace recurses deeper than a spawned
/// thread's default 2 MiB stack holds (it fits the main thread's 8 MiB);
/// `dkb_update` rebuilds its D/KB on the client thread.
const CLIENT_STACK_BYTES: usize = 64 << 20;

/// A client stops early once this many of its ops have failed.
const MAX_FAILURES: usize = 20;

/// Run ops `first, first + C, first + 2C, ..` on every client until
/// `stop` says so (it sees the ops this client has done and the time
/// since the phase began).
fn phase<W: Workload>(
    w: &W,
    clients: &mut [W::Client],
    first: u64,
    trace: bool,
    epoch: Instant,
    stop: impl Fn(u64, Duration) -> bool + Sync,
) -> (Vec<ClientRun>, Duration) {
    let n = clients.len() as u64;
    let barrier = Barrier::new(clients.len());
    let started = Instant::now();
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (barrier, stop) = (&barrier, &stop);
                let thread = std::thread::Builder::new().stack_size(CLIENT_STACK_BYTES);
                let body = move || {
                    let mut run = ClientRun {
                        tracer: Tracer::new(epoch),
                        latencies: Vec::new(),
                        digest: Digest::default(),
                        failures: Vec::new(),
                        ops: 0,
                        busy: Duration::ZERO,
                        traced: (0, Duration::ZERO),
                        untraced: (0, Duration::ZERO),
                    };
                    barrier.wait();
                    let begun = Instant::now();
                    while !stop(run.ops, begun.elapsed()) && run.failures.len() < MAX_FAILURES {
                        let i = first + run.ops * n + c as u64;
                        let record = trace && traced_op(run.ops);
                        let op_start = Instant::now();
                        let before: Option<Counters> = record
                            .then(|| w.op_registry(client).map(|r| sample(&r)))
                            .flatten();
                        run.tracer.begin_op(i, record);
                        let result = w.op(client, c, i, &mut run.tracer);
                        if let Some(before) = before {
                            if let Some(after) = w.op_registry(client) {
                                run.tracer.op_delta(&before, &sample(&after));
                            }
                        }
                        let busy = run.tracer.end_op();
                        let wall = op_start.elapsed().saturating_sub(run.tracer.excluded());
                        let slot = if record {
                            &mut run.traced
                        } else {
                            &mut run.untraced
                        };
                        slot.0 += 1;
                        slot.1 += wall;
                        run.ops += 1;
                        run.busy += busy;
                        match result {
                            Ok(d) => {
                                run.digest.chain(d);
                                run.latencies.push((
                                    begun.elapsed().as_secs_f64(),
                                    busy.as_secs_f64() * 1e3,
                                ));
                            }
                            Err(e) => run.failures.push(format!("op {i}: {e}")),
                        }
                    }
                    run
                };
                thread
                    .spawn_scoped(scope, body)
                    .expect("a client thread starts")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect::<Vec<_>>()
    });
    (runs, started.elapsed())
}

fn fact_deltas(
    before: &[(&'static str, f64)],
    after: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    after
        .iter()
        .map(|&(name, v)| {
            let b = before.iter().find(|f| f.0 == name).map_or(0.0, |f| f.1);
            (name, v - b)
        })
        .collect()
}

pub fn run<W: Workload>(o: &Opts) -> Outcome {
    pin_env(W::FSYNC_MICROS);
    let mut out = Outcome::default();
    let mut w = W::new(o.seed, o.quick);

    // Set up several times and report the median: one set-up is a few
    // milliseconds on the small workloads, too short to time once.
    let mut setup_s = Vec::new();
    let mut clients: Vec<W::Client> = Vec::new();
    let mut reps = if o.quick { 1 } else { 3 };
    while setup_s.len() < reps {
        drop(std::mem::take(&mut clients));
        w.stage();
        let t = Instant::now();
        match w.setup() {
            Ok(c) => clients = c,
            Err(e) => {
                out.attempted = 1;
                out.fail(format!("setup: {e}"));
                return out;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if setup_s.len() == 1 && !o.quick {
            reps = ((0.5 / setup_s[0]).ceil() as usize).clamp(3, 200);
        }
    }
    let n = clients.len() as u64;

    // Warm-up: a fixed number of ops, checked, untimed, pinned.
    let warm = w.warmup_ops();
    let epoch = Instant::now();
    let (runs, _) = phase(&w, &mut clients, 0, false, epoch, |done, _| {
        done * n >= warm
    });
    let mut pinned = Digest::default();
    for r in runs {
        out.attempted += r.ops;
        for f in r.failures {
            out.fail(format!("warm-up {f}"));
        }
        pinned.chain(r.digest);
    }
    let pinned = Pinned {
        ops: warm,
        digest: pinned,
    };
    if !o.quick {
        match load_expected(W::NAME, o.seed) {
            Ok(Some(want)) if want != pinned => out.fail(format!(
                "warm-up answers differ from {}: expected {want}, got {pinned}",
                crate::check::expected_path(W::NAME, o.seed).display()
            )),
            Ok(_) => {}
            Err(e) => out.fail(e),
        }
    }
    out.pinned = Some(pinned);

    // The measured phase.
    let facts_before = w.facts(&clients);
    let reg_before = w.phase_registry(&clients);
    let limit = Duration::from_secs_f64(o.seconds);
    let (runs, wall) = phase(&w, &mut clients, warm, o.trace, epoch, |_, elapsed| {
        elapsed >= limit
    });
    let reg_after = w.phase_registry(&clients);
    let facts = fact_deltas(&facts_before, &w.facts(&clients));

    let mut latencies = Vec::new();
    let mut busy_s = 0.0;
    let (mut traced, mut untraced) = ((0u64, 0.0), (0u64, 0.0));
    let mut tracers = Vec::new();
    for r in runs {
        out.attempted += r.ops;
        out.measured_ops += r.ops;
        for f in r.failures {
            out.fail(f);
        }
        busy_s += r.busy.as_secs_f64();
        latencies.push(r.latencies);
        traced = (traced.0 + r.traced.0, traced.1 + r.traced.1.as_secs_f64());
        untraced = (
            untraced.0 + r.untraced.0,
            untraced.1 + r.untraced.1.as_secs_f64(),
        );
        tracers.push(r.tracer);
    }

    out.attempted += 1;
    if let Err(e) = w.finish(&mut clients, warm + out.measured_ops) {
        out.fail(format!("final state: {e}"));
    }
    drop(clients);

    if o.trace {
        let overhead_share = if traced.0 > 0 && untraced.0 > 0 {
            1.0 - (traced.0 as f64 / traced.1) / (untraced.0 as f64 / untraced.1)
        } else {
            0.0
        };
        let path = crate::bench_dir()
            .join("out")
            .join(format!("trace_{}.json", W::NAME));
        if let Err(e) = write_trace(&path, W::NAME, o.seed, &tracers) {
            out.fail(format!("{}: {e}", path.display()));
        }
        let spans = merged(&tracers);
        let notes: Vec<_> = tracers.iter().flat_map(|t| t.notes.clone()).collect();
        let op_counters: Vec<Counters> = tracers
            .iter()
            .flat_map(|t| t.op_counters.iter().map(|c| c.1))
            .collect();
        let all_latencies = sorted(
            latencies
                .iter()
                .flat_map(|c| c.iter().map(|op| op.1))
                .collect(),
        );
        let layers = Phase {
            spans: &spans,
            notes: &notes,
            op_counters: &op_counters,
            before: &reg_before,
            after: &reg_after,
            facts: &facts,
            op_latencies_ms: &all_latencies,
            ops: out.measured_ops,
            commits_per_op: W::COMMITS_PER_OP,
            clients: n as usize,
            wall_s: wall.as_secs_f64(),
            busy_s,
            overhead_share,
        }
        .metrics();
        out.metrics = layers
            .into_iter()
            .zip(crate::layers::PER_LAYER)
            .map(|((name, v), (_, unit))| (name, v, unit))
            .collect();
    } else {
        let (ops_per_s, lat) = quietest_window(&latencies, o.seconds);
        let lat = sorted(lat);
        let values: [f64; END_TO_END.len()] = [
            median(&setup_s),
            ops_per_s,
            percentile(&lat, 50.0),
            peak_rss_mb(),
        ];
        out.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quietest_window_is_the_fastest_one_every_client_worked_in() {
        // One client, 9 s: window 0 at 10 ms/op, window 1 at 20, window 2 at 5.
        let mut ops = Vec::new();
        for (k, lat) in [(0, 10.0), (1, 20.0), (2, 5.0)] {
            for j in 0..10 {
                ops.push((k as f64 * 3.0 + j as f64 * 0.1, lat));
            }
        }
        // An op that finishes after the limit belongs to the last window.
        ops.push((9.4, 5.0));
        let (rate, lat) = quietest_window(&[ops.clone()], 9.0);
        assert!((rate - 200.0).abs() < 1e-6);
        assert_eq!(lat.len(), 11);
        assert!(lat.iter().all(|&l| l == 5.0));

        // A second client idle in window 2 disqualifies it; rates add up.
        let other: Vec<(f64, f64)> = (0..5).map(|j| (j as f64, 10.0)).collect();
        let (rate, lat) = quietest_window(&[ops, other], 9.0);
        assert!((rate - 200.0).abs() < 1e-6, "100/s + 100/s in window 0");
        assert_eq!(lat.len(), 13);

        // Too few ops for any window to qualify: the whole phase.
        let (rate, lat) = quietest_window(&[vec![(0.5, 100.0)], vec![(8.0, 50.0)]], 9.0);
        assert!((rate - 30.0).abs() < 1e-6);
        assert_eq!(lat.len(), 2);
        assert_eq!(quietest_window(&[Vec::new()], 9.0), (0.0, Vec::new()));
        // A zero-length phase (`expected` runs one) has one window.
        assert_eq!(quietest_window(&[vec![(0.1, 4.0)]], 0.0).1, vec![4.0]);
    }

    #[test]
    fn tracing_skips_about_one_op_in_five() {
        let traced = (0..1000).filter(|&k| traced_op(k)).count();
        assert!((750..850).contains(&traced), "{traced}");
    }
}
