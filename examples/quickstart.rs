//! Quickstart: define a base relation, load facts, add Horn rules, and ask
//! a recursive query — the testbed's whole pipeline in thirty lines.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use km::session::{binary_sym, Session, SessionConfig};
use rdbms::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A session = relational engine + stored D/KB + workspace.
    let mut session = Session::new(SessionConfig {
        optimize: true, // generalized magic sets
        ..SessionConfig::default()
    })?;

    // The extensional database: a parent relation.
    session.define_base("parent", &binary_sym())?;
    session.load_facts(
        "parent",
        [
            ("adam", "bob"),
            ("adam", "carol"),
            ("bob", "dave"),
            ("carol", "eve"),
            ("dave", "fred"),
        ]
        .iter()
        .map(|(a, b)| vec![Value::from(*a), Value::from(*b)])
        .collect(),
    )?;

    // The intensional database: ancestor as the least fixed point.
    session.load_rules(
        "ancestor(X, Y) :- parent(X, Y).\n\
         ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).\n",
    )?;

    // Compile + execute a query with a bound argument.
    let (compiled, result) = session.query("?- ancestor(adam, W).")?;
    println!(
        "compiled {} relevant rules in {:.2?} (magic sets: {})",
        compiled.relevant_rules, compiled.timings.total, compiled.optimized
    );
    println!("executed in {:.2?}:", result.t_execute);
    for row in &result.rows {
        println!("  ancestor(adam, {})", row[0]);
    }
    assert_eq!(result.rows.len(), 5);

    // A boolean (fully ground) query.
    let (_, yes) = session.query("?- ancestor(adam, fred).")?;
    println!("ancestor(adam, fred)? {}", !yes.rows.is_empty());
    Ok(())
}
