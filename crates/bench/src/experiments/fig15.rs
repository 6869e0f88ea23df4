//! Figure 15 — Test 8: stored-D/KB update time `t_u` versus the total
//! number of stored rules `R_s`, with and without the compiled rule
//! storage structure.
//!
//! Paper shape: updates are almost an order of magnitude faster without
//! compiled-form storage (only the source rows are written), and `t_u` is
//! relatively insensitive to `R_s` (the incremental transitive closure
//! touches only the affected portion).

use crate::{chain_session_configured, f3, ms, print_table};
use km::session::{Session, SessionConfig};
use std::time::Duration;
use workload::rules::chain_pred;

const CHAIN_LEN: usize = 9;
const CHAINS: &[usize] = &[1, 5, 10, 21, 222]; // R_s = 9, 45, 90, 189, 1 998

/// Build a session with `chains` stored chains, honoring the
/// compiled-storage switch.
fn session_with_chains(chains: usize, compiled: bool) -> Session {
    chain_session_configured(
        chains,
        CHAIN_LEN,
        SessionConfig {
            compiled_storage: compiled,
            ..SessionConfig::default()
        },
    )
    .expect("session")
}

/// Time one single-rule update against a fresh session, and count the
/// tuples it scanned.
fn one_update(chains: usize, compiled: bool) -> (Duration, u64) {
    let mut s = session_with_chains(chains, compiled);
    // The new rule hangs off the first stored chain, so extraction and the
    // incremental closure have real work to do.
    s.load_rules(&format!("newp(X, Y) :- {}(X, Y).\n", chain_pred(0, 0)))
        .expect("load");
    let before = s.engine().stats().exec.tuples_scanned;
    let t = s.commit_workspace().expect("update");
    (t.total, s.engine().stats().exec.tuples_scanned - before)
}

/// Best of three updates, and the (deterministic) tuples scanned.
fn best_update(chains: usize, compiled: bool) -> (Duration, u64) {
    let runs: Vec<(Duration, u64)> = (0..3).map(|_| one_update(chains, compiled)).collect();
    let scanned = runs[0].1;
    assert!(runs.iter().all(|r| r.1 == scanned), "scan counts differ");
    (runs.iter().map(|r| r.0).min().unwrap(), scanned)
}

pub fn run() {
    let mut rows = Vec::new();
    for &chains in CHAINS {
        let r_s = chains * CHAIN_LEN;
        let (with, with_scanned) = best_update(chains, true);
        let (without, without_scanned) = best_update(chains, false);
        rows.push(vec![
            r_s.to_string(),
            f3(ms(with)),
            f3(ms(without)),
            format!(
                "{:.1}x",
                with.as_secs_f64() / without.as_secs_f64().max(1e-9)
            ),
            with_scanned.to_string(),
            without_scanned.to_string(),
        ]);
    }
    print_table(
        "Figure 15: single-rule update time t_u (ms) vs R_s",
        &[
            "R_s",
            "compiled storage",
            "source only",
            "ratio",
            "scanned (compiled)",
            "scanned (source)",
        ],
        &rows,
    );
    println!(
        "Paper shape: ~an order of magnitude cheaper without compiled storage; \
         both curves flat in R_s. The scanned columns count the tuples one \
         update reads by sequential scan; tests/stored_dkb.rs holds the \
         compiled one flat."
    );
}
