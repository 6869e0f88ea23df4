//! Bill of materials: the classic industrial D/KB workload (part
//! explosion and where-used analysis over a manufacturing assembly graph).
//!
//! The `subpart` base relation is a layered DAG — assemblies at the top,
//! raw parts at the bottom — and two recursive predicates answer the
//! questions a manufacturing system asks constantly:
//!
//! * `contains(A, P)` — every part transitively needed to build `A`;
//! * `whereused(P, A)` — every assembly transitively affected by `P`.
//!
//! ```text
//! cargo run --release --example bill_of_materials
//! ```

use km::session::{binary_sym, Session, SessionConfig};
use rdbms::Value;
use workload::graphs::layered_dag;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut s = Session::new(SessionConfig {
        optimize: true,
        ..SessionConfig::default()
    })?;

    // Assembly graph: 5 levels (finished goods -> raw materials), 8 items
    // per level, each item built from 3 items of the next level.
    let edges = layered_dag(5, 8, 3, 2026);
    println!(
        "assembly graph: {} direct-composition tuples across 5 levels",
        edges.len()
    );
    s.define_base("subpart", &binary_sym())?;
    s.load_facts(
        "subpart",
        edges
            .into_iter()
            .map(|(a, b)| vec![Value::from(a), Value::from(b)])
            .collect(),
    )?;
    // Index the part-explosion join column.
    s.db_execute("CREATE INDEX subpart_c0 ON subpart (c0)")?;

    s.load_rules(
        "contains(A, P) :- subpart(A, P).\n\
         contains(A, P) :- subpart(A, X), contains(X, P).\n\
         whereused(P, A) :- subpart(A, P).\n\
         whereused(P, A) :- subpart(X, P), whereused(X, A).\n\
         rawmaterial(A, P) :- contains(A, P), leaf(P).\n",
    )?;
    // Leaves: bottom-layer items, loaded as workspace facts.
    for i in 0..8 {
        s.load_rules(&format!("leaf(d4_{i}).\n"))?;
    }

    // Part explosion for one finished good.
    let (compiled, explosion) = s.query("?- contains(d0_0, P).")?;
    println!(
        "\npart explosion of d0_0: {} parts (compiled {} rules, t_e = {:.2?})",
        explosion.rows.len(),
        compiled.relevant_rules,
        explosion.t_execute
    );

    // Raw materials only (joins the recursion with the leaf facts).
    let (_, raw) = s.query("?- rawmaterial(d0_0, P).")?;
    println!("raw materials of d0_0: {} distinct items", raw.rows.len());
    for row in raw.rows.iter().take(5) {
        println!("  needs {}", row[0]);
    }
    assert!(raw
        .rows
        .iter()
        .all(|r| { r[0].as_str().expect("symbol").starts_with("d4_") }));

    // Where-used: which finished goods does a raw material affect?
    let (_, used) = s.query("?- whereused(d4_0, A).")?;
    println!(
        "\nwhere-used of raw material d4_0: {} assemblies affected",
        used.rows.len()
    );

    // Change-impact as a boolean check: does d4_0 end up in d0_7?
    let (_, hit) = s.query("?- whereused(d4_0, d0_7).")?;
    println!(
        "does d4_0 affect finished good d0_7? {}",
        !hit.rows.is_empty()
    );
    Ok(())
}
