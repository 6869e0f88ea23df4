//! End-to-end tests of the stratified-negation extension: parsing,
//! stratification checks, code generation to `NOT EXISTS`, and evaluation
//! against reference semantics.

use km::session::{binary_sym, Session};
use km::{KmError, LfpStrategy};
use rdbms::Value;
use std::collections::BTreeSet;

fn graph_session() -> Session {
    let mut s = Session::with_defaults().unwrap();
    s.define_base("edge", &binary_sym()).unwrap();
    s.define_base("node", &[hornlog::types::AttrType::Sym])
        .unwrap();
    let edges = [("a", "b"), ("b", "c"), ("d", "d")];
    s.load_facts(
        "edge",
        edges
            .iter()
            .map(|(x, y)| vec![Value::from(*x), Value::from(*y)])
            .collect(),
    )
    .unwrap();
    for n in ["a", "b", "c", "d"] {
        s.load_facts("node", vec![vec![Value::from(n)]]).unwrap();
    }
    s
}

#[test]
fn unreachable_pairs_via_negated_closure() {
    let mut s = graph_session();
    s.load_rules(
        "reach(X, Y) :- edge(X, Y).\n\
         reach(X, Y) :- edge(X, Z), reach(Z, Y).\n\
         unreach(X, Y) :- node(X), node(Y), not reach(X, Y).\n",
    )
    .unwrap();
    let (compiled, result) = s.query("?- unreach(a, W).").unwrap();
    assert_eq!(compiled.relevant_rules, 3);
    // a reaches b, c. Unreachable from a: a itself and d.
    let got: BTreeSet<&str> = result.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
    assert_eq!(got, ["a", "d"].into_iter().collect());
}

#[test]
fn negation_agrees_between_strategies() {
    for strategy in [LfpStrategy::Naive, LfpStrategy::SemiNaive] {
        let mut s = graph_session();
        s.config.strategy = strategy;
        s.load_rules(
            "reach(X, Y) :- edge(X, Y).\n\
             reach(X, Y) :- edge(X, Z), reach(Z, Y).\n\
             sink(X) :- node(X), not hasout(X).\n\
             hasout(X) :- edge(X, Y).\n",
        )
        .unwrap();
        let (_, result) = s.query("?- sink(W).").unwrap();
        // Only c has no outgoing edge.
        assert_eq!(result.rows, vec![vec![Value::from("c")]], "{strategy:?}");
    }
}

#[test]
fn magic_is_skipped_for_negation_but_answers_match() {
    let mut plain = graph_session();
    let mut magic = graph_session();
    magic.config.optimize = true;
    let rules = "reach(X, Y) :- edge(X, Y).\n\
                 reach(X, Y) :- edge(X, Z), reach(Z, Y).\n\
                 unreach(X, Y) :- node(X), node(Y), not reach(X, Y).\n";
    plain.load_rules(rules).unwrap();
    magic.load_rules(rules).unwrap();
    let (c1, r1) = plain.query("?- unreach(a, W).").unwrap();
    let (c2, r2) = magic.query("?- unreach(a, W).").unwrap();
    assert_eq!(r1.rows, r2.rows);
    assert!(!c1.optimized);
    assert!(!c2.optimized, "optimizer declines rules with negation");
}

#[test]
fn unstratified_program_is_rejected() {
    let mut s = graph_session();
    s.load_rules("win(X) :- edge(X, Y), not win(Y).\n").unwrap();
    match s.query("?- win(W).") {
        Err(KmError::Semantic(msg)) => assert!(msg.contains("stratified"), "{msg}"),
        other => panic!("expected stratification error, got {other:?}"),
    }
}

#[test]
fn unsafe_negation_is_rejected() {
    let mut s = graph_session();
    // Y appears only under negation: not range-restricted.
    s.load_rules("weird(X, Y) :- node(X), not edge(X, Y).\n")
        .unwrap();
    assert!(matches!(
        s.query("?- weird(a, W)."),
        Err(KmError::Semantic(_))
    ));
}

#[test]
fn negation_with_constants_in_negated_atom() {
    let mut s = graph_session();
    s.load_rules("notowner(X) :- node(X), not edge(X, b).\n")
        .unwrap();
    let (_, result) = s.query("?- notowner(W).").unwrap();
    // Only a has an edge to b.
    let got: BTreeSet<&str> = result.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
    assert_eq!(got, ["b", "c", "d"].into_iter().collect());
}

#[test]
fn negated_query_atoms() {
    let mut s = graph_session();
    s.load_rules(
        "reach(X, Y) :- edge(X, Y).\n\
         reach(X, Y) :- edge(X, Z), reach(Z, Y).\n",
    )
    .unwrap();
    // Nodes with an outgoing edge that do NOT reach c.
    // The negated literal sits in the result node's own SELECT, which is
    // the answer: both answer variables come back, de-duplicated.
    for q in [
        "?- edge(W, V), not reach(W, c).",
        "?- edge(W, V), edge(W, V), not reach(W, c).",
    ] {
        let (_, result) = s.query(q).unwrap();
        assert_eq!(result.rows, [[Value::from("d"), Value::from("d")]], "{q}");
    }
    let (_, result) = s.query("?- node(W), not reach(a, W).").unwrap();
    assert_eq!(result.rows, [[Value::from("a")], [Value::from("d")]]);
}

#[test]
fn three_strata_pipeline() {
    let mut s = graph_session();
    s.load_rules(
        "hasout(X) :- edge(X, Y).\n\
         sink(X) :- node(X), not hasout(X).\n\
         nonsink(X) :- node(X), not sink(X).\n",
    )
    .unwrap();
    let (_, result) = s.query("?- nonsink(W).").unwrap();
    let got: BTreeSet<&str> = result.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
    assert_eq!(got, ["a", "b", "d"].into_iter().collect());
}

#[test]
fn negation_commits_to_stored_dkb() {
    let mut s = graph_session();
    s.load_rules(
        "hasout(X) :- edge(X, Y).\n\
         sink(X) :- node(X), not hasout(X).\n",
    )
    .unwrap();
    let t = s.commit_workspace().unwrap();
    assert_eq!(t.rules_stored, 2);
    s.workspace_mut().clear();
    // Round-trips through rulesource text and still evaluates.
    let (compiled, result) = s.query("?- sink(W).").unwrap();
    assert_eq!(compiled.relevant_rules, 2);
    assert_eq!(result.rows, vec![vec![Value::from("c")]]);
}

#[test]
fn negation_inside_recursive_rule_on_lower_stratum() {
    // Paths that avoid blocked nodes: recursion negating a lower-stratum
    // predicate inside the recursive rule.
    let mut s = Session::with_defaults().unwrap();
    s.define_base("edge", &binary_sym()).unwrap();
    s.define_base("blocked", &[hornlog::types::AttrType::Sym])
        .unwrap();
    let chain = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")];
    s.load_facts(
        "edge",
        chain
            .iter()
            .map(|(x, y)| vec![Value::from(*x), Value::from(*y)])
            .collect(),
    )
    .unwrap();
    s.load_facts("blocked", vec![vec![Value::from("c")]])
        .unwrap();
    s.load_rules(
        "clear(X, Y) :- edge(X, Y), not blocked(Y).\n\
         clear(X, Y) :- clear(X, Z), edge(Z, Y), not blocked(Y).\n",
    )
    .unwrap();
    let (_, result) = s.query("?- clear(a, W).").unwrap();
    // a->b ok; b->c blocked, so nothing beyond b.
    assert_eq!(result.rows, vec![vec![Value::from("b")]]);
}
