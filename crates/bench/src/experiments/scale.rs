//! Scaled-workload benchmark: memory-bounded execution at 10^5–10^7
//! edges — three orders of magnitude past the paper's Table 1 sizes.
//!
//! Three measurements per tier, written to `BENCH_scale.json`:
//!
//! 1. **t_q** — a raw self-join (`edge ⋈ edge`) on the engine, run once
//!    unbounded and once under a memory budget far smaller than the build
//!    side. The bounded run must go through the Grace spill path
//!    (`exec.spill_partitions > 0`) and produce byte-identical output.
//! 2. **t_eval** — the full ancestor closure over the same relation
//!    through the Knowledge Manager's LFP loop, again unbounded vs.
//!    budgeted; answer sets must match.
//! 3. **Buffer pool** — scan pollution: indexed point lookups on a small
//!    hot table interleaved with full scans of the big heap. The hot
//!    lookups' hit rate must stay high even when the pool (32 frames) is
//!    a tiny fraction of the scanned relation — scans fault pages in
//!    cold and recycle their own frames instead of evicting the working
//!    set.
//!
//! The graph family is [`workload::scaled_chains`]: disjoint 5-edge
//! chains, so the closure is exactly 3× the edge count at any scale and
//! the sweep's cost stays linear. A skewed power-law join at the first
//! tier covers the hash-partition worst case (one hub-heavy partition).
//! `edge` deliberately carries **no index** on the join column: the point
//! is to force hash joins whose build side dwarfs the budget.
//!
//! Tiers above `SCALE_MAX_EDGES` (default 10^6; CI sets 10^5) are
//! skipped and listed in the output — 10^7 runs with
//! `SCALE_MAX_EDGES=10000000`. The closure evaluation is additionally
//! capped at 10^6 edges (3×10^7 answers would dominate the artifact
//! with no new information). Reproduce any row from the recorded
//! `seed` alone.

use crate::{f3, ms, print_table};
use hornlog::types::AttrType;
use km::session::{Session, SessionConfig};
use rdbms::schema::serialize_tuple;
use rdbms::spill::fnv1a;
use rdbms::{Engine, Value};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workload::scale::{int_edges_to_rows, scaled_chains, scaled_power_law, IntEdges};

/// Seed recorded in the artifact; every generator call derives from it.
const SEED: u64 = 42;

/// Memory budget for the bounded runs: far below the build side of even
/// the smallest tier (10^5 tuples ≈ several MiB serialized).
const SPILL_BUDGET: u64 = 1 << 20;

/// Rows per bulk-insert chunk while loading, so a 10^7-edge load never
/// materializes all its engine rows at once.
const INSERT_CHUNK: usize = 100_000;

/// Closure evaluation is skipped above this tier (see module docs).
const TC_MAX_EDGES: usize = 1_000_000;

const JOIN_SQL: &str = "SELECT a.c0, b.c1 FROM edge a, edge b WHERE a.c1 = b.c0";

fn max_edges() -> usize {
    std::env::var("SCALE_MAX_EDGES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000)
}

/// Order-sensitive fingerprint of a row stream: FNV of each serialized
/// tuple folded with the FNV prime. Two streams collide only if they are
/// (for all practical purposes) byte-identical in content and order.
fn fold_rows(rows: &[Vec<Value>]) -> u64 {
    let mut h = 0u64;
    for row in rows {
        h = (h ^ fnv1a(&serialize_tuple(row))).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn load_edges(db: &mut Engine, edges: &IntEdges) {
    db.execute("CREATE TABLE edge (c0 int, c1 int)")
        .expect("create");
    for chunk in edges.chunks(INSERT_CHUNK) {
        db.insert_rows("edge", int_edges_to_rows(chunk))
            .expect("load");
    }
}

struct JoinRun {
    wall: Duration,
    rows: usize,
    hash: u64,
    spill_partitions: u64,
    spill_bytes: u64,
    /// Full output, kept only at the smallest tier for the exact compare.
    data: Option<Vec<Vec<Value>>>,
}

/// Run the self-join once on a fresh engine, optionally budgeted.
fn run_join(edges: &IntEdges, budget: Option<u64>, keep_rows: bool) -> JoinRun {
    let mut db = Engine::new();
    load_edges(&mut db, edges);
    db.set_memory_budget(budget);
    let before = db.stats().exec;
    let t = Instant::now();
    let rs = db.execute(JOIN_SQL).expect("join");
    let wall = t.elapsed();
    let after = db.stats().exec;
    JoinRun {
        wall,
        rows: rs.rows.len(),
        hash: fold_rows(&rs.rows),
        spill_partitions: after.spill_partitions - before.spill_partitions,
        spill_bytes: after.spill_bytes - before.spill_bytes,
        data: keep_rows.then_some(rs.rows),
    }
}

struct TcRun {
    wall: Duration,
    answers: usize,
    hash: u64,
    spill_partitions: u64,
    sort_runs: u64,
}

/// Evaluate the full ancestor closure on a fresh session. Rows are
/// sorted before fingerprinting: only the *set* of answers is contracted
/// between the in-memory and the spilled run.
fn run_tc(edges: &IntEdges, budget: Option<u64>) -> TcRun {
    let mut s = Session::new(SessionConfig {
        memory_budget: budget,
        ..SessionConfig::default()
    })
    .expect("session");
    s.define_base("edge", &[AttrType::Int, AttrType::Int])
        .expect("base");
    for chunk in edges.chunks(INSERT_CHUNK) {
        s.load_facts("edge", int_edges_to_rows(chunk))
            .expect("facts");
    }
    s.load_rules(&workload::ancestor_program("edge"))
        .expect("rules");
    let compiled = s.compile("?- anc(X, Y).").expect("compile");
    let before = s.engine().stats().exec;
    let t = Instant::now();
    let r = s.execute(&compiled).expect("execute");
    let wall = t.elapsed();
    let after = s.engine().stats().exec;
    let mut rows = r.rows;
    rows.sort();
    TcRun {
        wall,
        answers: rows.len(),
        hash: fold_rows(&rows),
        spill_partitions: after.spill_partitions - before.spill_partitions,
        sort_runs: after.sort_runs - before.sort_runs,
    }
}

struct BufferProbe {
    /// Hit rate of the indexed point lookups alone.
    hot_hit_rate: f64,
    /// Hit rate over all traffic, scans included.
    overall_hit_rate: f64,
}

/// Scan-pollution probe: a small indexed lookup table (a few pages) is
/// kept hot while full scans of the `edge` heap — hundreds of pages,
/// dwarfing a 32-frame pool — stream through between lookup bursts.
/// The interesting number is the hit rate of the hot lookups alone: a
/// scan-susceptible replacement policy evicts the lookup pages on every
/// pass and collapses it, while cold insertion (scan frames enter the
/// pool unreferenced and recycle among themselves) keeps the working
/// set resident no matter how small the pool is.
fn buffer_probe(edges: &IntEdges, frames: usize) -> BufferProbe {
    let mut db = Engine::new();
    load_edges(&mut db, edges);
    db.execute("CREATE TABLE hot (k int, v int)").expect("hot");
    db.insert_rows(
        "hot",
        (0..256)
            .map(|i| vec![Value::Int(i), Value::Int(i * i)])
            .collect(),
    )
    .expect("hot rows");
    db.execute("CREATE INDEX hot_k ON hot (k)").expect("index");
    // Resizing drops every cached frame, so the probe starts cold either
    // way and the two pool sizes are compared fairly.
    db.set_pool_frames(frames).expect("resize");
    // Establish the working set before measuring.
    for k in 0..16 {
        db.execute(&format!("SELECT v FROM hot WHERE k = {k}"))
            .expect("warm lookup");
    }
    let before_all = db.stats().buffer;
    let (mut hot_hits, mut hot_misses) = (0u64, 0u64);
    for _ in 0..8 {
        // A full pass over the big heap (no index on c0, so this scans).
        db.execute("SELECT c1 FROM edge WHERE c0 = -1")
            .expect("scan");
        // The same point lookups again, between scans.
        let b = db.stats().buffer;
        for k in 0..16 {
            db.execute(&format!("SELECT v FROM hot WHERE k = {k}"))
                .expect("hot lookup");
        }
        let a = db.stats().buffer;
        hot_hits += a.hits - b.hits;
        hot_misses += a.misses - b.misses;
    }
    let after_all = db.stats().buffer;
    let (h, m) = (
        after_all.hits - before_all.hits,
        after_all.misses - before_all.misses,
    );
    BufferProbe {
        hot_hit_rate: hot_hits as f64 / (hot_hits + hot_misses).max(1) as f64,
        overall_hit_rate: h as f64 / (h + m).max(1) as f64,
    }
}

pub fn run() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cap = max_edges();
    let all_tiers: &[usize] = &[100_000, 1_000_000, 10_000_000];
    let (tiers, skipped): (Vec<usize>, Vec<usize>) = all_tiers.iter().partition(|&&e| e <= cap);

    let mut table = Vec::new();
    let mut json = format!(
        "{{\n  \"experiment\": \"scale\",\n  \"seed\": {SEED},\n  \"host_cores\": {cores},\n  \
         \"budget_bytes\": {SPILL_BUDGET},\n  \"family\": \"chains-5\",\n  \"tiers\": [\n"
    );

    for (i, &edges_n) in tiers.iter().enumerate() {
        let edges = scaled_chains(edges_n);
        let first_tier = i == 0;

        // -- t_q: raw join, unbounded vs. budgeted ------------------------
        let mem = run_join(&edges, None, first_tier);
        let spill = run_join(&edges, Some(SPILL_BUDGET), first_tier);
        assert!(
            spill.spill_partitions > 0,
            "{edges_n} edges: budgeted join must spill (budget {SPILL_BUDGET})"
        );
        assert_eq!(mem.rows, spill.rows, "{edges_n} edges: row counts differ");
        assert_eq!(
            mem.hash, spill.hash,
            "{edges_n} edges: spilled join output diverged from in-memory"
        );
        if let (Some(a), Some(b)) = (&mem.data, &spill.data) {
            assert_eq!(a, b, "{edges_n} edges: full row compare failed");
        }

        // -- t_eval: LFP closure, unbounded vs. budgeted ------------------
        let tc = (edges_n <= TC_MAX_EDGES).then(|| {
            let mem = run_tc(&edges, None);
            let spill = run_tc(&edges, Some(SPILL_BUDGET));
            assert!(
                spill.spill_partitions > 0,
                "{edges_n} edges: budgeted closure must spill"
            );
            assert_eq!(
                (mem.answers, mem.hash),
                (spill.answers, spill.hash),
                "{edges_n} edges: spilled closure diverged from in-memory"
            );
            (mem, spill)
        });

        // -- buffer-pool scan pollution (first tier only) -----------------
        // 32 frames = 128 KiB, far below the ~2.5 MiB heap of the 10^5
        // tier; 2048 frames = 8 MiB holds the whole working set. The hot
        // lookup set must survive the interleaved scans even at 32
        // frames — that is the scan-resistance claim, asserted here.
        let buf = first_tier.then(|| {
            let small = buffer_probe(&edges, 32);
            let large = buffer_probe(&edges, 2048);
            assert!(
                small.hot_hit_rate > 0.9,
                "scan pollution collapsed the 32-frame hot hit rate to {:.4}",
                small.hot_hit_rate
            );
            (small, large)
        });

        let (tc_mem_ms, tc_spill_ms, tc_answers) = match &tc {
            Some((m, s)) => (f3(ms(m.wall)), f3(ms(s.wall)), m.answers.to_string()),
            None => ("-".into(), "-".into(), "-".into()),
        };
        table.push(vec![
            edges_n.to_string(),
            mem.rows.to_string(),
            f3(ms(mem.wall)),
            f3(ms(spill.wall)),
            spill.spill_partitions.to_string(),
            tc_answers,
            tc_mem_ms,
            tc_spill_ms,
        ]);

        let _ = write!(
            json,
            "    {{\"edges\": {edges_n},\n      \"join\": {{\"rows\": {}, \
             \"t_q_mem_ms\": {:.3}, \"t_q_spill_ms\": {:.3}, \
             \"spill_partitions\": {}, \"spill_bytes\": {}, \"identical\": true}}",
            mem.rows,
            ms(mem.wall),
            ms(spill.wall),
            spill.spill_partitions,
            spill.spill_bytes,
        );
        if let Some((m, s)) = &tc {
            let _ = write!(
                json,
                ",\n      \"tc\": {{\"answers\": {}, \"t_eval_mem_ms\": {:.3}, \
                 \"t_eval_spill_ms\": {:.3}, \"spill_partitions\": {}, \
                 \"sort_runs\": {}, \"identical\": true}}",
                m.answers,
                ms(m.wall),
                ms(s.wall),
                s.spill_partitions,
                s.sort_runs,
            );
        }
        if let Some((small, large)) = &buf {
            let _ = write!(
                json,
                ",\n      \"buffer\": {{\"hot_hit_rate_32_frames\": {:.4}, \
                 \"overall_hit_rate_32_frames\": {:.4}, \
                 \"hot_hit_rate_2048_frames\": {:.4}, \
                 \"overall_hit_rate_2048_frames\": {:.4}}}",
                small.hot_hit_rate,
                small.overall_hit_rate,
                large.hot_hit_rate,
                large.overall_hit_rate
            );
        }
        let _ = write!(
            json,
            "\n    }}{}\n",
            if i + 1 < tiers.len() { "," } else { "" }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"skipped_tiers\": {:?}\n}}\n",
        skipped.as_slice()
    );

    print_table(
        &format!(
            "Scaled workload: join t_q and closure t_eval (ms), in-memory vs. \
             {} KiB budget ({cores} host cores)",
            SPILL_BUDGET >> 10
        ),
        &[
            "edges",
            "join rows",
            "t_q mem",
            "t_q spill",
            "parts",
            "answers",
            "t_eval mem",
            "t_eval spill",
        ],
        &table,
    );
    if !skipped.is_empty() {
        println!(
            "Skipped tiers {skipped:?}: above SCALE_MAX_EDGES={cap} \
             (set SCALE_MAX_EDGES=10000000 for the full sweep)."
        );
    }
    println!(
        "Every budgeted run is asserted to spill (exec.spill_partitions > 0) and \
         to produce output identical to the unbounded run."
    );

    // Skew check: a power-law self-join concentrates one hub-heavy
    // partition; the spilled result must still match in-memory exactly.
    // 2×10^4 edges keeps the hub-squared join output near 10^6 rows.
    let skew_edges = scaled_power_law(20_000, 1 << 20, SEED);
    let skew_mem = run_join(&skew_edges, None, false);
    // Smaller budget to match the smaller build side (~600 KiB).
    let skew_spill = run_join(&skew_edges, Some(128 << 10), false);
    assert!(skew_spill.spill_partitions > 0, "skewed join must spill");
    assert_eq!(
        (skew_mem.rows, skew_mem.hash),
        (skew_spill.rows, skew_spill.hash),
        "skewed spilled join diverged from in-memory"
    );
    println!(
        "Power-law skew check: {} join rows, {} spill partitions, identical output.",
        skew_mem.rows, skew_spill.spill_partitions
    );

    match std::fs::write("BENCH_scale.json", &json) {
        Ok(()) => println!("Wrote BENCH_scale.json."),
        Err(e) => eprintln!("could not write BENCH_scale.json: {e}"),
    }
}
