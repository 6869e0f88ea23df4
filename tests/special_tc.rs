//! The engine's transitive-closure operator (paper conclusion #8) as the
//! reference answer for the ancestor variants the Knowledge Manager
//! evaluates with its generic LFP loop.

use km::session::{binary_sym, Session};
use rdbms::{Engine, Value};
use workload::edges_to_rows as rows;
use workload::graphs;

#[test]
fn tc_operator_applies_to_right_linear_and_nonlinear_variants() {
    let edges = graphs::lists(1, 8);
    let mut e = Engine::new();
    e.execute("CREATE TABLE g (s char, t char)").unwrap();
    e.execute("CREATE TABLE tc (s char, t char)").unwrap();
    e.insert_rows("g", rows(&edges)).unwrap();
    e.execute("INSERT INTO tc TRANSITIVE CLOSURE OF g").unwrap();
    let closure = e.execute("SELECT s, t FROM tc ORDER BY s, t").unwrap().rows;
    assert_eq!(closure.len(), 7 * 8 / 2, "C(8,2) chain pairs");
    for rules in [
        workload::rules::ancestor_right_linear("edge"),
        workload::rules::ancestor_nonlinear("edge"),
    ] {
        let mut s = Session::with_defaults().unwrap();
        s.define_base("edge", &binary_sym()).unwrap();
        s.load_facts("edge", rows(&edges)).unwrap();
        s.load_rules(&rules).unwrap();
        let (_, r) = s.query("?- anc(V, W).").unwrap();
        let mut got: Vec<Vec<Value>> = r.rows;
        got.sort();
        assert_eq!(got, closure, "{rules}");
        assert!(r.outcome.breakdown.iterations > 1, "generic LFP loop ran");
    }
}
