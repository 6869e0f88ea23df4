//! Extra experiment (beyond the paper): plain evaluation vs generalized
//! magic sets on the two classic recursive programs, queried at three
//! levels of the same tree.

use crate::experiments::min_of;
use crate::{edges_to_rows, f3, ms, print_table};
use km::session::{binary_sym, Session, SessionConfig};
use rdbms::Value;
use std::time::Duration;
use workload::graphs::{full_binary_tree, tree_node_at_level};

fn sg_session(depth: u32, optimize: bool) -> Session {
    let mut s = Session::new(SessionConfig {
        optimize,
        ..SessionConfig::default()
    })
    .expect("session");
    let edges = full_binary_tree(depth);
    for rel in ["up", "down", "flat"] {
        s.define_base(rel, &binary_sym()).expect("base");
    }
    s.load_facts(
        "up",
        edges
            .iter()
            .map(|(a, b)| vec![Value::from(b.as_str()), Value::from(a.as_str())])
            .collect(),
    )
    .expect("facts");
    s.load_facts("down", edges_to_rows(&edges)).expect("facts");
    s.load_facts("flat", vec![vec![Value::from("n1"), Value::from("n1")]])
        .expect("facts");
    s.load_rules(workload::same_generation()).expect("rules");
    s
}

fn anc_session(depth: u32, optimize: bool) -> Session {
    let mut s = Session::new(SessionConfig {
        optimize,
        ..SessionConfig::default()
    })
    .expect("session");
    s.define_base("parent", &binary_sym()).expect("base");
    s.load_facts("parent", edges_to_rows(&full_binary_tree(depth)))
        .expect("facts");
    s.load_rules(&workload::ancestor_program("parent"))
        .expect("rules");
    s
}

fn t_e(s: &mut Session, query: &str) -> Duration {
    let compiled = s.compile(query).expect("compile");
    min_of(3, || s.execute(&compiled).expect("run").t_execute)
}

pub fn run() {
    let depth = 9;
    let mut rows = Vec::new();
    for level in [5u32, 7, 9] {
        let node = tree_node_at_level(level);
        let sg_q = format!("?- sg({node}, W).");
        let anc_q = format!("?- anc({node}, W).");
        rows.push(vec![
            format!("sg({node})"),
            f3(ms(t_e(&mut sg_session(depth, false), &sg_q))),
            f3(ms(t_e(&mut sg_session(depth, true), &sg_q))),
        ]);
        rows.push(vec![
            format!("anc({node})"),
            f3(ms(t_e(&mut anc_session(depth, false), &anc_q))),
            f3(ms(t_e(&mut anc_session(depth, true), &anc_q))),
        ]);
    }
    print_table(
        &format!("Extra: optimizer strategies, t_e (ms), depth-{depth} tree"),
        &["query", "plain", "magic"],
        &rows,
    );
    println!(
        "Beyond the paper: magic sets restrict evaluation to the bindings \
         the query constants reach. Both programs gain at every level: anc \
         more as the queried subtree shrinks, sg less as the queried \
         generation widens."
    );
}
