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
    // Who are the ancestors of a node? Exactly the nodes on its path to
    // the root (fb, whose magic rules bind the inner occurrence bb).
    for (depth, query, path) in [
        (5, "?- anc(W, n31).", ["n1", "n3", "n7", "n15"].as_slice()),
        (
            6,
            "?- anc(W, n33).",
            ["n1", "n2", "n4", "n8", "n16"].as_slice(),
        ),
    ] {
        let edges = graphs::full_binary_tree(depth);
        for config in all_configs() {
            let mut s = session_with_edges(config, &edges);
            let (_, result) = s.query(query).unwrap();
            let got: BTreeSet<&str> = result.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
            assert_eq!(got, path.iter().copied().collect(), "{query}");
        }
    }
    // bb: the root reaches a leaf, a sibling subtree's node does not.
    let edges = graphs::full_binary_tree(6);
    for config in all_configs() {
        let mut s = session_with_edges(config, &edges);
        let (_, yes) = s.query("?- anc(n1, n63).").unwrap();
        assert_eq!(yes.rows, [[Value::from("true")]]);
        let (_, no) = s.query("?- anc(n2, n63).").unwrap();
        assert!(no.rows.is_empty());
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
    let (_, r1) = linear.query("?- anc(d0_0, W).").unwrap();
    for rules in [
        workload::rules::ancestor_nonlinear("edge"),
        workload::rules::ancestor_right_linear("edge"),
    ] {
        let mut s = Session::with_defaults().unwrap();
        s.define_base("edge", &binary_sym()).unwrap();
        s.load_facts("edge", rows(&edges)).unwrap();
        s.load_rules(&rules).unwrap();
        let (_, r2) = s.query("?- anc(d0_0, W).").unwrap();
        assert_eq!(r1.rows, r2.rows, "{rules}");
    }
}

#[test]
fn same_generation_on_tree() {
    // sg(n16) on a depth-5 tree and sg(n32) on a depth-6 one: every node of
    // the queried level is same-generation, with magic sets off and on.
    for (depth, node, last) in [(5, "n16", "n31"), (6, "n32", "n63")] {
        let edges = graphs::full_binary_tree(depth);
        let answers: Vec<Vec<Vec<Value>>> = [false, true]
            .into_iter()
            .map(|optimize| {
                let mut s = Session::new(SessionConfig {
                    optimize,
                    ..SessionConfig::default()
                })
                .unwrap();
                // up = child-to-parent, down = parent-to-child.
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
                // flat: the root is in its own generation.
                s.load_facts("flat", vec![vec![Value::from("n1"), Value::from("n1")]])
                    .unwrap();
                s.load_rules(workload::same_generation()).unwrap();
                s.query(&format!("?- sg({node}, W).")).unwrap().1.rows
            })
            .collect();
        assert_eq!(answers[0], answers[1], "sg({node}): magic off vs on");
        // The queried node's level holds 2^(depth-1) nodes.
        assert_eq!(answers[0].len(), 1 << (depth - 1));
        assert!(answers[0].contains(&vec![Value::from(last)]));
    }
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

/// The LFP loop's `new_` / `delta_` / `d_` temporaries are in-memory
/// relations: evaluating a closure allocates and writes no disk page. The
/// logical work is pinned beside it — rows scanned, statements issued,
/// tuples derived — so storing temporaries differently cannot change
/// what the loop does.
#[test]
fn lfp_temporaries_touch_no_pages() {
    use hornlog::types::AttrType;
    const EDGES: usize = 5_000;
    let mut s = Session::new(SessionConfig::default()).unwrap();
    s.engine_mut().set_spill_mode(rdbms::SpillMode::Enabled);
    s.define_base("edge", &[AttrType::Int, AttrType::Int])
        .unwrap();
    s.load_facts(
        "edge",
        workload::int_edges_to_rows(&workload::scaled_chains(EDGES)),
    )
    .unwrap();
    s.load_rules(&workload::ancestor_program("edge")).unwrap();
    let compiled = s.compile("?- anc(X, Y).").unwrap();
    s.engine_mut().flush().unwrap();
    for _ in 0..2 {
        let before = s.engine().stats();
        let result = s.execute(&compiled).unwrap();
        let after = s.engine().stats();
        assert_eq!(result.rows.len(), 3 * EDGES, "closure of 5-edge chains");
        let pages = (
            after.disk.pages_allocated - before.disk.pages_allocated,
            after.disk.pages_written - before.disk.pages_written,
        );
        assert_eq!(pages, (0, 0), "pages allocated, written");
        let work = (
            after.exec.tuples_scanned - before.exec.tuples_scanned,
            after.statements - before.statements,
            result.outcome.breakdown.tuples_produced,
        );
        assert_eq!(
            work,
            (85_000, 37, 30_000),
            "tuples scanned, statements, tuples produced"
        );
    }
}

/// Figure 12 as a count: per iteration, semi-naive's rule joins read the
/// base relation and the previous delta, naive's the base relation twice
/// (its exit rule runs again) and everything accumulated so far. On a chain
/// of `n` nodes the deltas shrink by one a round while the accumulated
/// relation grows, so naive's total join input pulls away from
/// semi-naive's as the chain doubles.
#[test]
fn fig12_join_input_tracks_the_delta_or_the_accumulated_relation() {
    let mut ratios = Vec::new();
    for n in [12u64, 24] {
        let edges = n - 1;
        let mut totals = Vec::new();
        for strategy in [LfpStrategy::SemiNaive, LfpStrategy::Naive] {
            let mut s = Session::new(SessionConfig {
                strategy,
                ..SessionConfig::default()
            })
            .unwrap();
            s.define_base("edge", &binary_sym()).unwrap();
            s.load_facts("edge", graphs::chain_facts(n as usize))
                .unwrap();
            s.load_rules(&workload::ancestor_program("edge")).unwrap();
            let (_, result) = s.query("?- anc(X, Y).").unwrap();
            assert_eq!(result.rows.len() as u64, n * (n - 1) / 2);
            let trace = &result.outcome.clique_traces[0];
            let delta = |i: usize| -> u64 { trace.iterations[i].delta_cards[0].1 };
            // Semi-naive's first delta is the exit rule's result (the
            // edges); naive accumulates from nothing.
            let mut previous = edges;
            let mut accumulated = 0;
            for (i, iter) in trace.iterations.iter().enumerate() {
                let input = match strategy {
                    LfpStrategy::SemiNaive => edges + previous,
                    LfpStrategy::Naive => 2 * edges + accumulated,
                };
                assert_eq!(
                    iter.eval_scanned, input,
                    "{strategy:?}, n = {n}, iteration {}",
                    iter.iteration
                );
                previous = delta(i);
                accumulated += delta(i);
            }
            let rounds = trace.iterations.len() as u64;
            assert_eq!(
                rounds,
                if strategy == LfpStrategy::Naive {
                    n
                } else {
                    n - 1
                }
            );
            totals.push(trace.iterations.iter().map(|i| i.eval_scanned).sum::<u64>());
        }
        ratios.push(totals[1] as f64 / totals[0] as f64);
    }
    assert!(
        ratios[1] > ratios[0],
        "naive / semi-naive join input {ratios:?}"
    );
}
