//! Knowledge-Manager scenario tests: the paper's Figure 1 rule base end to
//! end, explain output, multi-clique evaluation orders, and configuration
//! permutations over non-trivial programs.

use km::session::{binary_sym, Session, SessionConfig};
use km::LfpStrategy;
use rdbms::Value;
use std::collections::BTreeSet;

/// The paper's Figure 1 shape: p and q mutually recursive, p1 and p2
/// independently recursive, b1 and b2 base.
fn figure1_session() -> Session {
    let mut s = Session::with_defaults().unwrap();
    s.define_base("b1", &binary_sym()).unwrap();
    s.define_base("b2", &binary_sym()).unwrap();
    // b1: chain x0 -> x1 -> x2 -> x3; b2: same nodes, reversed edges.
    let chain: Vec<Vec<Value>> = (0..3)
        .map(|i| {
            vec![
                Value::from(format!("x{i}")),
                Value::from(format!("x{}", i + 1)),
            ]
        })
        .collect();
    let reversed: Vec<Vec<Value>> = (0..3)
        .map(|i| {
            vec![
                Value::from(format!("x{}", i + 1)),
                Value::from(format!("x{i}")),
            ]
        })
        .collect();
    s.load_facts("b1", chain).unwrap();
    s.load_facts("b2", reversed).unwrap();
    s.load_rules(
        "p(X, Y) :- p1(X, Z), q(Z, Y).\n\
         q(X, Y) :- p2(X, Y).\n\
         q(X, Y) :- p(X, Y), p2(X, Y).\n\
         p1(X, Y) :- b1(X, Y).\n\
         p1(X, Y) :- b1(X, Z), p1(Z, Y).\n\
         p2(X, Y) :- b2(X, Y).\n\
         p2(X, Y) :- b2(X, Z), p2(Z, Y).\n",
    )
    .unwrap();
    s
}

#[test]
fn figure1_multi_clique_program_evaluates() {
    let mut s = figure1_session();
    let (compiled, result) = s.query("?- p(x0, W).").unwrap();
    assert_eq!(compiled.relevant_rules, 7);
    assert_eq!(compiled.relevant_derived, 4);
    // p(x0, W): p1 from x0 reaches x1..x3; q(Z, Y) via p2 (reverse chain)
    // reaches anything below Z. Just assert consistency across strategies.
    assert!(!result.rows.is_empty());
    let mut naive = figure1_session();
    naive.config.strategy = LfpStrategy::Naive;
    let (_, r2) = naive.query("?- p(x0, W).").unwrap();
    assert_eq!(result.rows, r2.rows);
}

#[test]
fn figure1_evaluation_order_respects_dependencies() {
    let mut s = figure1_session();
    let listing = s.explain("?- p(x0, W).").unwrap();
    let text = listing.join("\n");
    // p1 and p2 cliques precede the p/q clique in the listing.
    let pos = |needle: &str| text.find(needle).unwrap_or(usize::MAX);
    let pq = pos("clique {p, q}");
    assert!(pq != usize::MAX, "p/q clique present:\n{text}");
    assert!(pos("clique {p1}") < pq, "p1 before p/q:\n{text}");
    assert!(pos("clique {p2}") < pq, "p2 before p/q:\n{text}");
    assert!(pos("predicate _query") > pq, "query node last:\n{text}");
}

#[test]
fn explain_lists_sql_and_delta_variants() {
    let mut s = Session::with_defaults().unwrap();
    s.define_base("parent", &binary_sym()).unwrap();
    s.load_rules(
        "anc(X, Y) :- parent(X, Y).\n\
         anc(X, Y) :- parent(X, Z), anc(Z, Y).\n",
    )
    .unwrap();
    let listing = s.explain("?- anc(a, W).").unwrap();
    let text = listing.join("\n");
    assert!(text.contains("SELECT DISTINCT"), "SQL shown:\n{text}");
    assert!(text.contains("Δ:"), "delta variant shown:\n{text}");
    assert!(text.contains("exit:"), "exit rule labeled:\n{text}");
}

#[test]
fn magic_program_visible_in_explain() {
    let mut s = Session::new(SessionConfig {
        optimize: true,
        ..SessionConfig::default()
    })
    .unwrap();
    s.define_base("parent", &binary_sym()).unwrap();
    s.load_rules(
        "anc(X, Y) :- parent(X, Y).\n\
         anc(X, Y) :- parent(X, Z), anc(Z, Y).\n",
    )
    .unwrap();
    let listing = s.explain("?- anc(a, W).").unwrap();
    let text = listing.join("\n");
    assert!(text.contains("magic sets: true"));
    assert!(text.contains("m_anc__bf"), "magic predicate shown:\n{text}");
    assert!(
        text.contains("seed m_anc__bf: 1 fact(s)"),
        "seed shown:\n{text}"
    );
}

#[test]
fn deep_view_stack_compiles_and_runs() {
    // 30 stacked non-recursive views over one base relation.
    let mut s = Session::with_defaults().unwrap();
    s.define_base("base", &binary_sym()).unwrap();
    s.load_facts("base", vec![vec![Value::from("a"), Value::from("b")]])
        .unwrap();
    let mut rules = String::from("v0(X, Y) :- base(X, Y).\n");
    for i in 1..30 {
        rules.push_str(&format!("v{i}(X, Y) :- v{}(X, Y).\n", i - 1));
    }
    s.load_rules(&rules).unwrap();
    let (compiled, result) = s.query("?- v29(a, W).").unwrap();
    assert_eq!(compiled.relevant_rules, 30);
    assert_eq!(result.rows, vec![vec![Value::from("b")]]);
}

#[test]
fn wide_union_of_rules_for_one_predicate() {
    // One predicate defined by 20 rules over 20 base relations.
    let mut s = Session::with_defaults().unwrap();
    let mut rules = String::new();
    for i in 0..20 {
        s.define_base(&format!("src{i}"), &binary_sym()).unwrap();
        s.load_facts(
            &format!("src{i}"),
            vec![vec![Value::from("k"), Value::from(format!("v{i}"))]],
        )
        .unwrap();
        rules.push_str(&format!("merged(X, Y) :- src{i}(X, Y).\n"));
    }
    s.load_rules(&rules).unwrap();
    let (_, result) = s.query("?- merged(k, W).").unwrap();
    assert_eq!(result.rows.len(), 20);
}

#[test]
fn mutual_recursion_through_three_predicates() {
    let mut s = Session::with_defaults().unwrap();
    s.define_base("step", &binary_sym()).unwrap();
    s.load_facts(
        "step",
        (0..9)
            .map(|i| {
                vec![
                    Value::from(format!("s{i}")),
                    Value::from(format!("s{}", i + 1)),
                ]
            })
            .collect(),
    )
    .unwrap();
    // Path length ≡ 0, 1, 2 (mod 3).
    s.load_rules(
        "mod1(X, Y) :- step(X, Y).\n\
         mod1(X, Y) :- mod0(X, Z), step(Z, Y).\n\
         mod2(X, Y) :- mod1(X, Z), step(Z, Y).\n\
         mod0(X, Y) :- mod2(X, Z), step(Z, Y).\n",
    )
    .unwrap();
    for strategy in [LfpStrategy::Naive, LfpStrategy::SemiNaive] {
        s.config.strategy = strategy;
        let (compiled, result) = s.query("?- mod0(s0, W).").unwrap();
        assert_eq!(compiled.relevant_derived, 3);
        // Distances divisible by 3 from s0: s3, s6, s9.
        let got: BTreeSet<&str> = result.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
        assert_eq!(
            got,
            ["s3", "s6", "s9"].into_iter().collect(),
            "{strategy:?}"
        );
    }
}

#[test]
fn integers_flow_through_the_pipeline() {
    let mut s = Session::with_defaults().unwrap();
    s.define_base(
        "succ",
        &[hornlog::types::AttrType::Int, hornlog::types::AttrType::Int],
    )
    .unwrap();
    s.load_facts(
        "succ",
        (0..10)
            .map(|i| vec![Value::Int(i), Value::Int(i + 1)])
            .collect(),
    )
    .unwrap();
    s.load_rules(
        "lt(X, Y) :- succ(X, Y).\n\
         lt(X, Y) :- succ(X, Z), lt(Z, Y).\n",
    )
    .unwrap();
    let (_, result) = s.query("?- lt(3, W).").unwrap();
    assert_eq!(result.rows.len(), 7, "4..10");
    assert_eq!(result.rows[0], vec![Value::Int(4)]);
    // Boolean integer query.
    let (_, yes) = s.query("?- lt(0, 9).").unwrap();
    assert!(!yes.rows.is_empty());
}

#[test]
fn mixed_type_predicates() {
    let mut s = Session::with_defaults().unwrap();
    s.define_base(
        "aged",
        &[hornlog::types::AttrType::Sym, hornlog::types::AttrType::Int],
    )
    .unwrap();
    s.load_facts(
        "aged",
        vec![
            vec![Value::from("ann"), Value::Int(30)],
            vec![Value::from("bob"), Value::Int(30)],
            vec![Value::from("cay"), Value::Int(41)],
        ],
    )
    .unwrap();
    s.load_rules("samesage(X, Y) :- aged(X, A), aged(Y, A).\n")
        .unwrap();
    let (_, result) = s.query("?- samesage(ann, W).").unwrap();
    assert_eq!(result.rows.len(), 2, "ann and bob (incl. ann herself)");
}

#[test]
fn user_temp_tables_survive_query_runs() {
    // The runtime must clean up exactly its own temporaries.
    let mut s = Session::with_defaults().unwrap();
    s.define_base("parent", &binary_sym()).unwrap();
    s.load_facts("parent", vec![vec![Value::from("a"), Value::from("b")]])
        .unwrap();
    s.engine_mut()
        .execute("CREATE TEMP TABLE user_scratch (x integer)")
        .unwrap();
    s.engine_mut()
        .execute("INSERT INTO user_scratch VALUES (7)")
        .unwrap();
    s.load_rules(
        "anc(X, Y) :- parent(X, Y).\n\
         anc(X, Y) :- parent(X, Z), anc(Z, Y).\n",
    )
    .unwrap();
    s.query("?- anc(a, W).").unwrap();
    let rs = s
        .engine_mut()
        .execute("SELECT COUNT(*) FROM user_scratch")
        .unwrap();
    assert_eq!(rs.scalar_int(), Some(1), "user temp table untouched");
}
