//! Access control: a policy engine exercising the extensions together —
//! stratified negation (deny rules), a recursive role hierarchy, and
//! precompiled queries with update invalidation (the hot access-check
//! path).
//!
//! ```text
//! cargo run --example access_control
//! ```

use km::session::{binary_sym, Session, SessionConfig};
use rdbms::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut s = Session::new(SessionConfig {
        optimize: false, // negation rules: the optimizer would decline anyway
        ..SessionConfig::default()
    })?;

    // Extensional data: role inheritance, grants, denials, memberships.
    s.define_base("subrole", &binary_sym())?; // (role, parent role)
    s.define_base("grants", &binary_sym())?; // (role, resource)
    s.define_base("denied", &binary_sym())?; // (user, resource)
    s.define_base("member", &binary_sym())?; // (user, role)
    s.load_facts(
        "subrole",
        [
            ("intern", "engineer"),
            ("engineer", "staff"),
            ("staff", "employee"),
            ("contractor", "employee"),
            ("lead", "engineer"),
        ]
        .iter()
        .map(|(a, b)| vec![Value::from(*a), Value::from(*b)])
        .collect(),
    )?;
    s.load_facts(
        "grants",
        [
            ("employee", "cafeteria"),
            ("staff", "wiki"),
            ("engineer", "repo"),
            ("lead", "deploys"),
        ]
        .iter()
        .map(|(a, b)| vec![Value::from(*a), Value::from(*b)])
        .collect(),
    )?;
    s.load_facts(
        "member",
        [("ann", "lead"), ("bob", "intern"), ("cay", "contractor")]
            .iter()
            .map(|(a, b)| vec![Value::from(*a), Value::from(*b)])
            .collect(),
    )?;
    s.load_facts(
        "denied",
        vec![vec![Value::from("bob"), Value::from("repo")]],
    )?;

    // Policy: role inheritance is transitive (a recursive clique);
    // access = membership + inherited grant, minus explicit denials
    // (stratified negation).
    s.load_rules(
        "inherits(R, P) :- subrole(R, P).\n\
         inherits(R, P) :- subrole(R, Q), inherits(Q, P).\n\
         roleof(U, R) :- member(U, R).\n\
         roleof(U, P) :- member(U, R), inherits(R, P).\n\
         entitled(U, X) :- roleof(U, R), grants(R, X).\n\
         access(U, X) :- entitled(U, X), not denied(U, X).\n",
    )?;

    // The hot path is precompiled once per user.
    for user in ["ann", "bob", "cay"] {
        s.prepare(user, &format!("?- access({user}, X)."))?;
    }
    for user in ["ann", "bob", "cay"] {
        let r = s.execute_prepared(user)?;
        let resources: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
        println!("{user:<4} can access: {}", resources.join(", "));
    }

    // bob is an intern (engineer -> staff -> employee) but denied the repo.
    let bob = s.execute_prepared("bob")?;
    assert!(!bob.rows.contains(&vec![Value::from("repo")]), "deny wins");
    assert!(bob.rows.contains(&vec![Value::from("wiki")]));

    // Policy change: interns lose staff inheritance. Committing the new
    // rule base invalidates every prepared query that depends on it.
    println!("\npolicy update: contractors gain wiki access");
    s.load_rules("entitled(U, wiki) :- roleof(U, contractor).\n")?;
    s.commit_workspace()?;
    assert_eq!(s.prepared_is_valid("cay"), Some(false), "plan invalidated");
    let cay = s.execute_prepared("cay")?; // transparently recompiled
    println!(
        "cay  can access: {}",
        cay.rows
            .iter()
            .map(|r| r[0].to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    assert!(cay.rows.contains(&vec![Value::from("wiki")]));
    println!("(recompilations forced by updates: {})", s.recompilations());
    Ok(())
}
