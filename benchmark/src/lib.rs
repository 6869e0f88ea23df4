//! The D/KBMS benchmark: six workloads, end-to-end metrics, per-layer
//! attribution measured from outside. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//!     one run in this process; the last line of stdout is the result
//! benchmark run   [--workload all|W] [--seed N] [--seconds S] [--runs R] [--quick] [--out F]
//! benchmark trace [same flags]
//!     every workload in a child process of its own, a table, a result file
//! benchmark compare BASE.json OTHER.json [..]
//!     apply the bounds of BENCHMARK.json
//! benchmark expected [--seed N]
//!     write expected/<workload>.<seed>.json
//! ```

pub mod check;
pub mod cli;
pub mod compare;
pub mod json;
pub mod layers;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;

/// The benchmark's own directory (`benchmark/` in the checkout the
/// binary was built from): expected answers in, traces and results out.
pub fn bench_dir() -> &'static std::path::Path {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
}
