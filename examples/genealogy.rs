//! Genealogy: the paper's motivating workload at a realistic size.
//!
//! Builds a multi-generation family tree (a full binary "parent" tree),
//! defines ancestor, descendant and same-generation predicates, and
//! contrasts unoptimized evaluation with the generalized magic-sets
//! rewrite on a selective query — the heart of the paper's Test 7.
//!
//! ```text
//! cargo run --release --example genealogy
//! ```

use km::session::{binary_sym, Session, SessionConfig};
use rdbms::Value;
use workload::graphs::{full_binary_tree, subtree_edges, tree_node_at_level};

fn build_session(optimize: bool) -> Result<Session, Box<dyn std::error::Error>> {
    let mut s = Session::new(SessionConfig {
        optimize,
        ..SessionConfig::default()
    })?;
    s.define_base("parent", &binary_sym())?;
    let rows = full_binary_tree(10)
        .into_iter()
        .map(|(a, b)| vec![Value::from(a), Value::from(b)])
        .collect();
    s.load_facts("parent", rows)?;
    s.load_rules(
        "ancestor(X, Y) :- parent(X, Y).\n\
         ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).\n\
         sibling(X, Y) :- parent(P, X), parent(P, Y).\n\
         samegen(X, Y) :- sibling(X, Y).\n\
         samegen(X, Y) :- parent(A, X), parent(B, Y), samegen(A, B).\n",
    )?;
    Ok(s)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let family_size = subtree_edges(10, 1) + 1;
    println!("family tree: {family_size} people across 10 generations\n");

    // A selective ancestor query, with and without magic sets.
    let patriarch = tree_node_at_level(7); // small subtree: low selectivity
    let query = format!("?- ancestor({patriarch}, W).");
    for optimize in [false, true] {
        let mut s = build_session(optimize)?;
        let (compiled, result) = s.query(&query)?;
        println!(
            "{:<12} {:>3} descendants of {patriarch}: t_e = {:>9.2?} \
             ({} tuples derived, {} LFP iterations)",
            if optimize {
                "magic sets"
            } else {
                "unoptimized"
            },
            result.rows.len(),
            result.t_execute,
            result.outcome.breakdown.tuples_produced,
            result.outcome.breakdown.iterations,
        );
        assert_eq!(compiled.relevant_rules, 2);
        assert_eq!(result.rows.len(), subtree_edges(10, 7) as usize);
    }

    // Same-generation: a mutually joined recursion (the sg clique).
    let mut s = build_session(true)?;
    let cousin_query = format!("?- samegen({}, W).", tree_node_at_level(4));
    let (compiled, result) = s.query(&cousin_query)?;
    println!(
        "\nsame-generation of {}: {} people (compiled {} rules, t_e = {:.2?})",
        tree_node_at_level(4),
        result.rows.len(),
        compiled.relevant_rules,
        result.t_execute
    );
    // Level 4 of a binary tree holds 8 nodes, all in the same generation.
    assert_eq!(result.rows.len(), 8);

    // A boolean kinship check.
    let (_, related) = s.query(&format!("?- ancestor(n1, {}).", tree_node_at_level(10)))?;
    println!(
        "is n1 an ancestor of {}? {}",
        tree_node_at_level(10),
        !related.rows.is_empty()
    );
    Ok(())
}
