//! Cross-crate integration tests: the full Knowledge-Manager-over-DBMS
//! pipeline on each workload family, under every configuration.

use km::session::{binary_sym, Session, SessionConfig};
use km::LfpStrategy;
use rdbms::Value;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use workload::graphs;

use workload::edges_to_rows as rows;

/// Reference transitive closure by BFS.
fn reachable_from(edges: &[(String, String)], start: &str) -> BTreeSet<String> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges {
        adj.entry(a).or_default().push(b);
    }
    let mut seen = BTreeSet::new();
    let mut queue = VecDeque::from([start]);
    while let Some(n) = queue.pop_front() {
        for &next in adj.get(n).into_iter().flatten() {
            if seen.insert(next.to_string()) {
                queue.push_back(next);
            }
        }
    }
    seen
}

fn all_configs() -> Vec<SessionConfig> {
    let mut out = Vec::new();
    for optimize in [false, true] {
        for strategy in [LfpStrategy::Naive, LfpStrategy::SemiNaive] {
            out.push(SessionConfig {
                optimize,
                strategy,
                ..SessionConfig::default()
            });
        }
    }
    out
}

fn session_with_edges(config: SessionConfig, edges: &[(String, String)]) -> Session {
    let mut s = Session::new(config).unwrap();
    s.define_base("edge", &binary_sym()).unwrap();
    s.load_facts("edge", rows(edges)).unwrap();
    s.load_rules(&workload::ancestor_program("edge")).unwrap();
    s
}

fn check_closure_query(edges: &[(String, String)], start: &str) {
    let expected: Vec<Vec<Value>> = reachable_from(edges, start)
        .into_iter()
        .map(|n| vec![Value::from(n)])
        .collect();
    for config in all_configs() {
        let mut s = session_with_edges(config, edges);
        let (_, result) = s.query(&format!("?- anc(\"{start}\", W).")).unwrap();
        assert_eq!(
            result.rows, expected,
            "config optimize={} strategy={:?}",
            config.optimize, config.strategy
        );
    }
}

#[test]
fn ancestor_on_lists() {
    let edges = graphs::lists(3, 8);
    check_closure_query(&edges, "L1_0");
    check_closure_query(&edges, "L2_5");
}

#[test]
fn ancestor_on_full_binary_tree() {
    let edges = graphs::full_binary_tree(6);
    check_closure_query(&edges, "n1");
    check_closure_query(&edges, "n5");
    check_closure_query(&edges, "n63"); // leaf: empty answer
}

#[test]
fn ancestor_on_layered_dag() {
    let edges = graphs::layered_dag(4, 5, 2, 11);
    check_closure_query(&edges, "d0_0");
    check_closure_query(&edges, "d2_3");
}

#[test]
fn ancestor_on_cyclic_digraph() {
    let edges = graphs::cyclic_digraph(2, 5, 4, 3);
    check_closure_query(&edges, "c0_0");
    check_closure_query(&edges, "c1_2");
}

#[test]
fn all_free_query_computes_full_closure() {
    let edges = graphs::full_binary_tree(4);
    let mut expected = 0usize;
    let nodes: BTreeSet<&String> = edges.iter().flat_map(|(a, b)| [a, b]).collect();
    for n in &nodes {
        expected += reachable_from(&edges, n).len();
    }
    for config in all_configs() {
        let mut s = session_with_edges(config, &edges);
        let (_, result) = s.query("?- anc(V, W).").unwrap();
        assert_eq!(result.rows.len(), expected);
    }
}

#[test]
fn second_argument_bound() {
    let edges = graphs::full_binary_tree(5);
    // Who are the ancestors of leaf n31? Exactly the nodes on the path to
    // the root: n15, n7, n3, n1.
    for config in all_configs() {
        let mut s = session_with_edges(config, &edges);
        let (_, result) = s.query("?- anc(W, n31).").unwrap();
        let got: BTreeSet<String> = result
            .rows
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        let expected: BTreeSet<String> = ["n1", "n3", "n7", "n15"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(got, expected);
    }
}

/// Query shapes whose result node is all there is to evaluate, or nearly:
/// ground (boolean) queries answer with one `true` row or none, and a
/// query straight on a base relation has no derived predicate at all.
#[test]
fn boolean_and_base_relation_queries() {
    let edges = graphs::full_binary_tree(4);
    let row = |cells: &[&str]| -> Vec<Value> { cells.iter().map(|c| Value::from(*c)).collect() };
    for config in all_configs() {
        let mut s = session_with_edges(config, &edges);
        let (compiled, yes) = s.query("?- anc(n1, n15).").unwrap();
        assert_eq!(compiled.answer_vars, ["answer"]);
        assert_eq!(yes.rows, [row(&["true"])]);
        let (_, no) = s.query("?- anc(n15, n1).").unwrap();
        assert!(no.rows.is_empty());
        let (_, both) = s.query("?- edge(n1, n2), anc(n2, n9).").unwrap();
        assert_eq!(both.rows, [row(&["true"])]);

        let (compiled, children) = s.query("?- edge(n3, W).").unwrap();
        assert_eq!(compiled.relevant_rules, 0);
        assert_eq!(children.rows, [row(&["n6"]), row(&["n7"])]);
        assert_eq!(children.outcome.node_timings.len(), 1);
        assert_eq!(children.outcome.breakdown.tuples_produced, 2);
        let (_, all) = s.query("?- edge(V, W).").unwrap();
        let mut expected = rows(&edges);
        expected.sort();
        assert_eq!(all.rows, expected);
        let (_, grand) = s.query("?- edge(n1, M), edge(M, W).").unwrap();
        assert_eq!(
            grand.rows,
            [
                row(&["n2", "n4"]),
                row(&["n2", "n5"]),
                row(&["n3", "n6"]),
                row(&["n3", "n7"])
            ]
        );
    }
}

#[test]
fn nonlinear_ancestor_agrees_with_linear() {
    let edges = graphs::layered_dag(4, 4, 2, 5);
    let mut linear = session_with_edges(SessionConfig::default(), &edges);
    let mut s = Session::with_defaults().unwrap();
    s.define_base("edge", &binary_sym()).unwrap();
    s.load_facts("edge", rows(&edges)).unwrap();
    s.load_rules(&workload::rules::ancestor_nonlinear("edge"))
        .unwrap();
    let (_, r1) = linear.query("?- anc(d0_0, W).").unwrap();
    let (_, r2) = s.query("?- anc(d0_0, W).").unwrap();
    assert_eq!(r1.rows, r2.rows);
}

#[test]
fn same_generation_on_tree() {
    let edges = graphs::full_binary_tree(5);
    let mut s = Session::new(SessionConfig {
        optimize: true,
        ..SessionConfig::default()
    })
    .unwrap();
    // up = child-to-parent, down = parent-to-child, flat = sibling base.
    s.define_base("up", &binary_sym()).unwrap();
    s.define_base("down", &binary_sym()).unwrap();
    s.define_base("flat", &binary_sym()).unwrap();
    s.load_facts(
        "up",
        edges
            .iter()
            .map(|(p, c)| vec![Value::from(c.as_str()), Value::from(p.as_str())])
            .collect(),
    )
    .unwrap();
    s.load_facts("down", rows(&edges)).unwrap();
    // flat: each node is in the same generation as itself at the root.
    s.load_facts("flat", vec![vec![Value::from("n1"), Value::from("n1")]])
        .unwrap();
    s.load_rules(workload::same_generation()).unwrap();
    let (_, result) = s.query("?- sg(n16, W).").unwrap();
    // n16 is on level 5 (16 nodes); all level-5 nodes are same-generation.
    assert_eq!(result.rows.len(), 16);
    assert!(result.rows.contains(&vec![Value::from("n31")]));
}

#[test]
fn figure1_style_mutual_recursion_runs() {
    // Mutually recursive even/odd path-length predicates over a chain.
    let mut s = Session::with_defaults().unwrap();
    s.define_base("step", &binary_sym()).unwrap();
    let chain: Vec<(String, String)> = (0..10)
        .map(|i| (format!("v{i}"), format!("v{}", i + 1)))
        .collect();
    s.load_facts("step", rows(&chain)).unwrap();
    s.load_rules(
        "evenpath(X, Y) :- step(X, Z), oddpath(Z, Y).\n\
         oddpath(X, Y) :- step(X, Y).\n\
         oddpath(X, Y) :- step(X, Z), evenpath(Z, Y).\n",
    )
    .unwrap();
    for config in all_configs() {
        s.config = config;
        let (compiled, result) = s.query("?- evenpath(v0, W).").unwrap();
        // v0 reaches v2, v4, v6, v8, v10 by even-length paths.
        let got: BTreeSet<String> = result
            .rows
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        let expected: BTreeSet<String> = (1..=5).map(|i| format!("v{}", 2 * i)).collect();
        assert_eq!(got, expected, "config {:?}", config.strategy);
        assert_eq!(compiled.relevant_rules, 3);
    }
}

#[test]
fn query_through_nonrecursive_view_stack() {
    let mut s = Session::with_defaults().unwrap();
    s.define_base("edge", &binary_sym()).unwrap();
    s.load_facts("edge", rows(&graphs::lists(1, 5))).unwrap();
    s.load_rules(
        "hop(X, Y) :- edge(X, Y).\n\
         twohop(X, Y) :- hop(X, Z), hop(Z, Y).\n\
         fourhop(X, Y) :- twohop(X, Z), twohop(Z, Y).\n",
    )
    .unwrap();
    let (compiled, result) = s.query("?- fourhop(\"L0_0\", W).").unwrap();
    assert_eq!(compiled.relevant_rules, 3);
    assert_eq!(result.rows, vec![vec![Value::from("L0_4")]]);
}

#[test]
fn repeated_queries_are_deterministic() {
    let edges = graphs::cyclic_digraph(1, 6, 3, 9);
    let mut s = session_with_edges(SessionConfig::default(), &edges);
    let (_, first) = s.query("?- anc(c0_0, W).").unwrap();
    for _ in 0..3 {
        let (_, again) = s.query("?- anc(c0_0, W).").unwrap();
        assert_eq!(first.rows, again.rows);
    }
}

#[test]
fn constants_inside_rule_bodies() {
    let mut s = Session::with_defaults().unwrap();
    s.define_base("edge", &binary_sym()).unwrap();
    s.load_facts("edge", rows(&graphs::lists(2, 4))).unwrap();
    // Only paths that start from list 0's head.
    s.load_rules(
        "fromhead(Y) :- edge(\"L0_0\", Y).\n\
         fromhead(Y) :- edge(X, Y), fromhead(X).\n",
    )
    .unwrap();
    let (_, result) = s.query("?- fromhead(W).").unwrap();
    assert_eq!(result.rows.len(), 3, "L0_1, L0_2, L0_3");
}

/// A magic-sets ancestor query low in a big tree reads only the subtree
/// it asks about. The planner costs `parent` from its live row count and
/// the exact distinct-key count of the `c0` index, so the magic join
/// probes the index per seed instead of scanning the 2 046-row relation.
#[test]
fn magic_ancestor_reads_only_the_subtree() {
    let mut s = Session::new(SessionConfig {
        optimize: true,
        ..SessionConfig::default()
    })
    .unwrap();
    s.define_base("parent", &binary_sym()).unwrap();
    s.db_execute("CREATE INDEX parent_c0 ON parent (c0)")
        .unwrap();
    s.load_facts("parent", rows(&graphs::full_binary_tree(11)))
        .unwrap();
    s.load_rules(&workload::ancestor_program("parent")).unwrap();
    let start = graphs::tree_node_at_level(9);
    let compiled = s.compile(&format!("?- anc({start}, W).")).unwrap();
    let before = s.engine().stats().exec.tuples_scanned;
    let result = s.execute(&compiled).unwrap();
    let scanned = s.engine().stats().exec.tuples_scanned - before;
    assert_eq!(result.rows.len(), 6, "two children, four grandchildren");
    assert!(scanned <= 100, "execute scanned {scanned} tuples");
}
