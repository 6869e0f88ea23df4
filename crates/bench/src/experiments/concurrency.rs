//! Concurrent multi-session sweep, written to `BENCH_concurrency.json`.
//!
//! Sessions (threads) × write mix × target-table contention, at the one
//! commit protocol the engine has (group commit, key-granular validation
//! of literal inserts; DESIGN §16–17). Each thread runs a fixed op count
//! against one [`SharedEngine`]: reads execute on the session's private
//! snapshot, writes are autocommit transactions funnelled through the
//! commit queue. Per cell we report throughput, fsyncs per commit, and
//! the first-committer-wins conflict rate.
//!
//! Under `private` contention (each session writes its own table) batches
//! commit wholesale and the fsyncs/commit ratio falls below 1 as sessions
//! are added. Under `shared` contention (all writers on one table) the
//! sweep's insert keys are disjoint, the commits commute, and the
//! conflict rate stays at zero. The per-commit-fsync and table-granular
//! baselines this sweep used to compare against left the engine with
//! their last numbers recorded (`BENCH_concurrency.json` at `c0f99bd`).
//! `RDBMS_FSYNC_MICROS` (default 200 here) prices each fsync so the
//! batching also shows up as throughput, the way it would on real
//! storage.
//!
//! A second sweep raises the same question one layer up: N knowledge
//! manager sessions attached to one shared stored D/KB
//! ([`Session::attach`]), each interleaving workspace commits of new
//! facts with recursive-query evaluations. Commits go through the
//! validated stored-update path; queries evaluate semi-naive LFPs on
//! the session's snapshot fork with namespaced temporaries.

use crate::{f3, print_table};
use km::session::{binary_sym, Session, SessionConfig};
use rdbms::{Engine, SharedEngine, Value};
use std::fmt::Write as _;
use std::time::Instant;

const SESSIONS: &[usize] = &[1, 2, 4, 8];
const WRITE_PCTS: &[u32] = &[100, 50];
const OPS_PER_SESSION: usize = 100;
const DEFAULT_FSYNC_MICROS: u64 = 200;

#[derive(Clone, Copy, PartialEq)]
enum Contention {
    /// Every writer inserts into the same table, each its own keys:
    /// validation has to tell them apart for a batch to commit whole.
    Shared,
    /// Each session writes its own table: commits commute, batches
    /// commit wholesale.
    Private,
}

impl Contention {
    fn name(self) -> &'static str {
        match self {
            Contention::Shared => "shared",
            Contention::Private => "private",
        }
    }
}

struct Cell {
    sessions: usize,
    write_pct: u32,
    contention: Contention,
    ops: u64,
    commits: u64,
    conflicts: u64,
    elapsed_ms: f64,
    ops_per_sec: f64,
    fsyncs: u64,
    group_commits: u64,
}

impl Cell {
    fn fsyncs_per_commit(&self) -> f64 {
        self.fsyncs as f64 / (self.commits as f64).max(1.0)
    }
    fn conflict_rate(&self) -> f64 {
        self.conflicts as f64 / (self.commits as f64).max(1.0)
    }
}

/// `kv` is the shared read/write target; `kv_s<t>` is session `t`'s
/// private write target in the low-contention mode.
fn seeded(sessions: usize) -> SharedEngine {
    let mut db = Engine::new();
    db.execute("CREATE TABLE kv (k int, v int)").unwrap();
    db.execute("INSERT INTO kv VALUES (1, 10), (2, 20)")
        .unwrap();
    for t in 0..sessions {
        db.execute(&format!("CREATE TABLE kv_s{t} (k int, v int)"))
            .unwrap();
    }
    SharedEngine::new(db)
}

/// Deterministic per-op coin: write iff the hash of (thread, op) lands
/// under `write_pct`. Keeps every run byte-reproducible without an RNG.
fn is_write(thread: usize, op: usize, write_pct: u32) -> bool {
    let h = (thread as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(op as u64)
        .wrapping_mul(0x2545_f491_4f6c_dd1d);
    (h % 100) < u64::from(write_pct)
}

fn run_cell(sessions: usize, write_pct: u32, contention: Contention) -> Cell {
    let shared = seeded(sessions);
    let t0 = Instant::now();
    let per_thread: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|t| {
                let shared = shared.clone();
                scope.spawn(move || {
                    let mut s = shared.session();
                    let table = match contention {
                        Contention::Shared => "kv".to_string(),
                        Contention::Private => format!("kv_s{t}"),
                    };
                    for op in 0..OPS_PER_SESSION {
                        if is_write(t, op, write_pct) {
                            let k = 1000 + (t * OPS_PER_SESSION + op) as i64;
                            // Autocommit: the session revalidates and
                            // retries on WriteConflict, bumping its
                            // conflict counter each time it loses.
                            s.execute(&format!("INSERT INTO {table} VALUES ({k}, {t})"))
                                .unwrap();
                        } else {
                            s.execute("SELECT k, v FROM kv WHERE k = 1").unwrap();
                        }
                    }
                    (s.commits(), s.conflicts())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = t0.elapsed();
    let m = shared.metrics();
    let ops = (sessions * OPS_PER_SESSION) as u64;
    Cell {
        sessions,
        write_pct,
        contention,
        ops,
        commits: per_thread.iter().map(|&(c, _)| c).sum(),
        conflicts: per_thread.iter().map(|&(_, c)| c).sum(),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        ops_per_sec: ops as f64 / elapsed.as_secs_f64().max(1e-9),
        fsyncs: m.counter_value("wal.fsyncs"),
        group_commits: m.counter_value("wal.group_commits"),
    }
}

const KM_SESSIONS: &[usize] = &[1, 2, 4];
const KM_ROUNDS: usize = 8;
const KM_CHAIN: usize = 8;

struct KmCell {
    sessions: usize,
    rounds: u64,
    queries: u64,
    workspace_commits: u64,
    /// MVCC transactions committed across all attached sessions
    /// (bootstrap, autocommit loads, workspace commits).
    mvcc_commits: u64,
    conflicts: u64,
    elapsed_ms: f64,
    rounds_per_sec: f64,
    /// Cardinality of the recursive answer every query returned.
    answer_rows: u64,
}

/// One shared stored D/KB, N attached knowledge-manager sessions. Each
/// session alternates a workspace commit (one new fact, validated
/// stored-update path) with a recursive-query evaluation (semi-naive
/// LFP on the session's snapshot fork, namespaced temporaries). The
/// committed facts are disconnected from the queried chain, so every
/// answer — under every interleaving — must be byte-identical to the
/// serial chain closure; the cell panics otherwise.
fn run_km_cell(sessions: usize, rounds: usize) -> KmCell {
    let shared = SharedEngine::new(Engine::new());
    {
        let mut s = Session::attach(&shared, SessionConfig::default()).expect("attach");
        s.define_base("parent", &binary_sym()).expect("base");
        let chain: Vec<Vec<Value>> = (0..KM_CHAIN - 1)
            .map(|i| {
                vec![
                    Value::Str(format!("a{i}")),
                    Value::Str(format!("a{}", i + 1)),
                ]
            })
            .collect();
        s.load_facts("parent", chain).expect("facts");
        s.load_rules(
            "anc(X, Y) :- parent(X, Y).\n\
             anc(X, Y) :- parent(X, Z), anc(Z, Y).\n",
        )
        .expect("rules");
        s.commit_workspace().expect("bootstrap commit");
    }
    let expect_rows = (KM_CHAIN - 1) as u64;
    let t0 = Instant::now();
    let per_thread: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|t| {
                let shared = shared.clone();
                scope.spawn(move || {
                    let mut s = Session::attach(&shared, SessionConfig::default()).expect("attach");
                    for r in 0..rounds {
                        s.load_rules(&format!("parent(b{t}r{r}, c{t}r{r}).\n"))
                            .expect("stage fact");
                        s.commit_workspace().expect("workspace commit");
                        let (_, res) = s.query("?- anc(a0, W).").expect("query");
                        assert_eq!(
                            res.rows.len() as u64,
                            expect_rows,
                            "shared-session answer diverged from the serial closure"
                        );
                    }
                    s.commit_counters()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = t0.elapsed();
    let total_rounds = (sessions * rounds) as u64;
    KmCell {
        sessions,
        rounds: total_rounds,
        queries: total_rounds,
        workspace_commits: total_rounds,
        mvcc_commits: per_thread.iter().map(|&(c, _)| c).sum(),
        conflicts: per_thread.iter().map(|&(_, c)| c).sum(),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        rounds_per_sec: total_rounds as f64 / elapsed.as_secs_f64().max(1e-9),
        answer_rows: expect_rows,
    }
}

pub fn run() {
    // Give fsyncs a visible cost unless the caller picked one; the
    // engine reads the variable at SharedEngine construction.
    if std::env::var("RDBMS_FSYNC_MICROS").is_err() {
        std::env::set_var("RDBMS_FSYNC_MICROS", DEFAULT_FSYNC_MICROS.to_string());
    }
    let fsync_micros = std::env::var("RDBMS_FSYNC_MICROS").unwrap();

    let mut cells = Vec::new();
    for &contention in &[Contention::Private, Contention::Shared] {
        for &write_pct in WRITE_PCTS {
            for &sessions in SESSIONS {
                cells.push(run_cell(sessions, write_pct, contention));
            }
        }
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.sessions.to_string(),
                format!("{}%", c.write_pct),
                c.contention.name().to_string(),
                format!("{:.0}", c.ops_per_sec),
                f3(c.fsyncs_per_commit()),
                f3(c.conflict_rate()),
                c.group_commits.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Concurrency sweep: {OPS_PER_SESSION} ops/session, fsync {fsync_micros}us"),
        &[
            "sessions",
            "writes",
            "contention",
            "ops/s",
            "fsyncs/commit",
            "conflicts/commit",
            "batches",
        ],
        &rows,
    );
    println!(
        "Reads never block: they run on per-session snapshots without touching \
         the commit queue. Private-table writers show group commit at work — \
         fsyncs/commit drops below 1 as sessions contend for the WAL. \
         Shared-table writers insert disjoint keys, which key-granular \
         validation lets commute: no conflicts."
    );

    let km_cells: Vec<KmCell> = KM_SESSIONS
        .iter()
        .map(|&n| run_km_cell(n, KM_ROUNDS))
        .collect();
    let km_rows: Vec<Vec<String>> = km_cells
        .iter()
        .map(|c| {
            vec![
                c.sessions.to_string(),
                c.rounds.to_string(),
                format!("{:.0}", c.rounds_per_sec),
                c.workspace_commits.to_string(),
                c.mvcc_commits.to_string(),
                f3(c.conflicts as f64 / (c.mvcc_commits as f64).max(1.0)),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Multi-user stored D/KB: {KM_ROUNDS} commit+query rounds/session, \
             chain of {KM_CHAIN}"
        ),
        &[
            "sessions",
            "rounds",
            "rounds/s",
            "ws commits",
            "mvcc commits",
            "conflicts/commit",
        ],
        &km_rows,
    );
    println!(
        "Every session's every recursive answer matched the serial closure — \
         workspace commits ride first-committer-wins validation while LFPs \
         evaluate on private snapshot forks with namespaced temporaries."
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"experiment\": \"concurrency\",\n  \"ops_per_session\": {OPS_PER_SESSION},\n  \
         \"fsync_micros\": {fsync_micros},\n  \"cells\": ["
    );
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "{}\n    {{\"sessions\": {}, \"write_pct\": {}, \"contention\": \"{}\", \
             \"ops\": {}, \"commits\": {}, \
             \"conflicts\": {}, \"elapsed_ms\": {:.3}, \"ops_per_sec\": {:.1}, \
             \"fsyncs\": {}, \"fsyncs_per_commit\": {:.4}, \"conflict_rate\": {:.4}, \
             \"group_commit_batches\": {}}}",
            if i == 0 { "" } else { "," },
            c.sessions,
            c.write_pct,
            c.contention.name(),
            c.ops,
            c.commits,
            c.conflicts,
            c.elapsed_ms,
            c.ops_per_sec,
            c.fsyncs,
            c.fsyncs_per_commit(),
            c.conflict_rate(),
            c.group_commits,
        );
    }
    let _ = write!(json, "\n  ],\n  \"km_cells\": [");
    for (i, c) in km_cells.iter().enumerate() {
        let _ = write!(
            json,
            "{}\n    {{\"sessions\": {}, \"rounds\": {}, \"queries\": {}, \
             \"workspace_commits\": {}, \"mvcc_commits\": {}, \"conflicts\": {}, \
             \"elapsed_ms\": {:.3}, \"rounds_per_sec\": {:.1}, \"answer_rows\": {}}}",
            if i == 0 { "" } else { "," },
            c.sessions,
            c.rounds,
            c.queries,
            c.workspace_commits,
            c.mvcc_commits,
            c.conflicts,
            c.elapsed_ms,
            c.rounds_per_sec,
            c.answer_rows,
        );
    }
    let _ = writeln!(json, "\n  ]\n}}");
    match std::fs::write("BENCH_concurrency.json", &json) {
        Ok(()) => println!("Wrote BENCH_concurrency.json."),
        Err(e) => eprintln!("could not write BENCH_concurrency.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autocommit_writers_never_surface_conflicts() {
        let cell = run_cell(4, 50, Contention::Shared);
        assert_eq!(cell.ops, 400);
        // Conflicts are retried inside the session; callers see none,
        // so every write op lands exactly one commit.
        let writes: u64 = (0..4)
            .flat_map(|t| (0..OPS_PER_SESSION).map(move |op| is_write(t, op, 50)))
            .filter(|&w| w)
            .count() as u64;
        assert_eq!(cell.commits, writes);
        assert_eq!(cell.conflicts, 0, "the sweep's insert keys are disjoint");
        assert!(cell.fsyncs <= cell.commits, "at most one fsync per commit");
    }

    /// The km sweep's invariant is enforced inside the cell (every
    /// answer equals the serial closure); here we pin the counters.
    #[test]
    fn km_shared_cell_commits_and_answers() {
        let cell = run_km_cell(2, 2);
        assert_eq!(cell.rounds, 4);
        assert_eq!(cell.workspace_commits, 4);
        assert!(cell.mvcc_commits >= cell.workspace_commits);
        assert_eq!(cell.answer_rows, (KM_CHAIN - 1) as u64);
    }

    #[test]
    fn write_mix_is_deterministic() {
        let picks: Vec<bool> = (0..32).map(|op| is_write(1, op, 50)).collect();
        let again: Vec<bool> = (0..32).map(|op| is_write(1, op, 50)).collect();
        assert_eq!(picks, again);
        let writes = picks.iter().filter(|&&w| w).count();
        assert!((8..=24).contains(&writes), "mix badly skewed: {writes}/32");
    }
}
