//! Parallel evaluation must be invisible in the results: for randomized
//! graph workloads, both LFP strategies (naive, semi-naive) and the
//! specialized transitive-closure operator must produce byte-identical
//! answers and final relation contents at 2/4/8 workers as at
//! parallelism 1. Only wall time may differ.

use km::session::{binary_sym, Session, SessionConfig};
use km::LfpStrategy;
use proptest::prelude::*;
use rdbms::Value;
use std::collections::BTreeMap;

fn node_name(n: u8) -> String {
    format!("v{n}")
}

fn session_for(edges: &[(u8, u8)], config: SessionConfig) -> Session {
    let mut s = Session::new(config).unwrap();
    s.define_base("edge", &binary_sym()).unwrap();
    let rows: Vec<Vec<Value>> = edges
        .iter()
        .map(|&(a, b)| vec![Value::from(node_name(a)), Value::from(node_name(b))])
        .collect();
    s.load_facts("edge", rows).unwrap();
    s.load_rules(&workload::ancestor_program("edge")).unwrap();
    s
}

/// The logical content of every table left in the engine, each sorted:
/// parallel execution may permute physical row order inside a statement's
/// input, so logical (set) equality is the contract — and the answer rows
/// the runtime returns are sorted already, making those byte-comparable.
fn dump(s: &mut Session) -> BTreeMap<String, Vec<Vec<Value>>> {
    let db = s.engine_mut();
    let mut out = BTreeMap::new();
    for name in db.table_names() {
        let mut rows = db.execute(&format!("SELECT * FROM {name}")).unwrap().rows;
        rows.sort();
        out.insert(name, rows);
    }
    out
}

type RunResult = (Vec<Vec<Value>>, BTreeMap<String, Vec<Vec<Value>>>);

fn run_once(edges: &[(u8, u8)], config: SessionConfig, query: &str) -> RunResult {
    let mut s = session_for(edges, config);
    let (_, result) = s.query(query).unwrap();
    (result.rows, dump(&mut s))
}

/// The three evaluation configurations under test: the generic LFP loop
/// under each strategy plus the specialized transitive-closure operator.
fn configs() -> Vec<(&'static str, SessionConfig)> {
    vec![
        (
            "naive",
            SessionConfig {
                strategy: LfpStrategy::Naive,
                ..SessionConfig::default()
            },
        ),
        (
            "semi-naive",
            SessionConfig {
                strategy: LfpStrategy::SemiNaive,
                ..SessionConfig::default()
            },
        ),
        (
            "special-tc",
            SessionConfig {
                special_tc: true,
                ..SessionConfig::default()
            },
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Answers and final relation contents at 2/4/8 workers equal the
    /// serial run's, for every configuration, on random graphs.
    #[test]
    fn parallel_matches_serial(
        edges in prop::collection::vec((0u8..10, 0u8..10), 0..25),
        start in 0u8..10,
    ) {
        let query = format!("?- anc({}, W).", node_name(start));
        for (name, config) in configs() {
            let serial = run_once(&edges, SessionConfig { parallelism: 1, ..config }, &query);
            for workers in [2usize, 4, 8] {
                let par = run_once(
                    &edges,
                    SessionConfig { parallelism: workers, ..config },
                    &query,
                );
                prop_assert_eq!(
                    &par.0, &serial.0,
                    "{} answers diverge at {} workers", name, workers
                );
                prop_assert_eq!(
                    &par.1, &serial.1,
                    "{} relation contents diverge at {} workers", name, workers
                );
            }
        }
    }

    /// The all-free query (larger intermediate relations, more partition
    /// work) is deterministic too, with magic sets enabled as well.
    #[test]
    fn parallel_matches_serial_all_free(
        edges in prop::collection::vec((0u8..8, 0u8..8), 0..20),
    ) {
        for optimize in [false, true] {
            let config = SessionConfig { optimize, ..SessionConfig::default() };
            let serial = run_once(&edges, SessionConfig { parallelism: 1, ..config }, "?- anc(V, W).");
            for workers in [2usize, 4, 8] {
                let par = run_once(
                    &edges,
                    SessionConfig { parallelism: workers, ..config },
                    "?- anc(V, W).",
                );
                prop_assert_eq!(&par.0, &serial.0, "optimize={} workers={}", optimize, workers);
                prop_assert_eq!(&par.1, &serial.1, "optimize={} workers={}", optimize, workers);
            }
        }
    }
}
