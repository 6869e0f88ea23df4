//! Agreement of the optimizer configurations on the §2.5 workloads:
//! unoptimized evaluation, magic sets with semi-naive LFP, and magic sets
//! with naive LFP must return the same answers.

use km::session::{binary_sym, Session, SessionConfig};
use km::LfpStrategy;
use rdbms::Value;
use workload::edges_to_rows as rows;
use workload::graphs;

/// (optimize, strategy) of the three configurations compared.
const CONFIGS: [(bool, LfpStrategy); 3] = [
    (false, LfpStrategy::SemiNaive),
    (true, LfpStrategy::SemiNaive),
    (true, LfpStrategy::Naive),
];

fn run_config(
    edges: &[(String, String)],
    rules: &str,
    query: &str,
    (optimize, strategy): (bool, LfpStrategy),
) -> Vec<Vec<Value>> {
    let mut s = Session::new(SessionConfig {
        optimize,
        strategy,
        ..SessionConfig::default()
    })
    .unwrap();
    for rel in ["up", "down", "flat", "edge"] {
        s.define_base(rel, &binary_sym()).unwrap();
    }
    s.load_facts("edge", rows(edges)).unwrap();
    // up = reversed edges, down = edges, flat = self-pairs at roots.
    s.load_facts(
        "up",
        edges
            .iter()
            .map(|(a, b)| vec![Value::from(b.as_str()), Value::from(a.as_str())])
            .collect(),
    )
    .unwrap();
    s.load_facts("down", rows(edges)).unwrap();
    s.load_facts("flat", vec![vec![Value::from("n1"), Value::from("n1")]])
        .unwrap();
    s.load_rules(rules).unwrap();
    let (_, r) = s.query(query).unwrap();
    r.rows
}

#[test]
fn three_optimizer_configs_agree_on_same_generation() {
    let edges = graphs::full_binary_tree(6);
    let rules = workload::same_generation();
    let query = "?- sg(n32, W).";
    let [plain, magic, naive] = CONFIGS.map(|c| run_config(&edges, rules, query, c));
    assert_eq!(plain, magic);
    assert_eq!(plain, naive);
    // n32 is on level 6: 32 same-generation members.
    assert_eq!(plain.len(), 32);
}

#[test]
fn three_optimizer_configs_agree_on_ancestor() {
    let edges = graphs::full_binary_tree(6);
    let rules = workload::ancestor_program("edge");
    for query in ["?- anc(n2, W).", "?- anc(V, n33).", "?- anc(n1, n63)."] {
        let [plain, magic, naive] = CONFIGS.map(|c| run_config(&edges, &rules, query, c));
        assert_eq!(plain, magic, "{query}");
        assert_eq!(plain, naive, "{query}");
    }
}
