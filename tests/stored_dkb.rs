//! Integration tests of the Stored D/KB lifecycle: staged commits, the
//! compiled-versus-source storage configurations, workspace/stored rule
//! interplay, and the invariants the update algorithm must maintain.

use km::session::{binary_sym, Session, SessionConfig};
use km::{KmError, LfpStrategy};
use rdbms::Value;

use workload::chain_facts as chain_rows;

fn base_session(config: SessionConfig) -> Session {
    let mut s = Session::new(config).unwrap();
    s.define_base("parent", &binary_sym()).unwrap();
    s.load_facts("parent", chain_rows(10)).unwrap();
    s
}

#[test]
fn staged_commits_compose() {
    let mut s = base_session(SessionConfig::default());
    // Stage 1.
    s.load_rules(
        "anc(X, Y) :- parent(X, Y).\n\
         anc(X, Y) :- parent(X, Z), anc(Z, Y).\n",
    )
    .unwrap();
    s.commit_workspace().unwrap();
    s.workspace_mut().clear();
    // Stage 2 builds on stage 1.
    s.load_rules("kin(X, Y) :- anc(X, Y).\nkin(X, Y) :- anc(Y, X).\n")
        .unwrap();
    s.commit_workspace().unwrap();
    s.workspace_mut().clear();
    // Stage 3 builds on stage 2.
    s.load_rules("related(X) :- kin(a0, X).\n").unwrap();
    s.commit_workspace().unwrap();
    s.workspace_mut().clear();

    let (compiled, result) = s.query("?- related(W).").unwrap();
    assert_eq!(compiled.relevant_rules, 5, "all three stages extracted");
    assert_eq!(
        result.rows.len(),
        9,
        "a0 is kin to everyone else on the chain"
    );
}

#[test]
fn closure_growth_is_monotone_across_commits() {
    let mut s = base_session(SessionConfig::default());
    let mut previous = 0;
    for stage in 0..4 {
        let body = if stage == 0 {
            "parent".to_string()
        } else {
            format!("lvl{}", stage - 1)
        };
        s.load_rules(&format!("lvl{stage}(X, Y) :- {body}(X, Y).\n"))
            .unwrap();
        s.commit_workspace().unwrap();
        s.workspace_mut().clear();
        let stored = s.stored().clone();
        let count = stored.reachable_count(s.engine_mut()).unwrap();
        assert!(count > previous, "closure grows on stage {stage}");
        previous = count;
    }
    // lvl3 must transitively reach parent.
    let stored = s.stored().clone();
    let reach = stored
        .reachable_from(s.engine_mut(), &["lvl3".to_string()].into())
        .unwrap();
    assert!(reach.contains("parent"));
    assert!(reach.contains("lvl0"));
}

#[test]
fn source_only_configuration_still_answers_queries() {
    let mut s = base_session(SessionConfig {
        compiled_storage: false,
        ..SessionConfig::default()
    });
    s.load_rules(
        "anc(X, Y) :- parent(X, Y).\n\
         anc(X, Y) :- parent(X, Z), anc(Z, Y).\n",
    )
    .unwrap();
    s.commit_workspace().unwrap();
    s.workspace_mut().clear();
    let (compiled, result) = s.query("?- anc(a0, W).").unwrap();
    assert_eq!(
        compiled.relevant_rules, 2,
        "iterative extraction finds the rules"
    );
    assert_eq!(result.rows.len(), 9);
}

#[test]
fn compiled_and_source_configurations_agree() {
    for compiled in [true, false] {
        let mut s = base_session(SessionConfig {
            compiled_storage: compiled,
            ..SessionConfig::default()
        });
        s.load_rules(
            "anc(X, Y) :- parent(X, Y).\n\
             anc(X, Y) :- parent(X, Z), anc(Z, Y).\n\
             tip(X) :- anc(a0, X).\n",
        )
        .unwrap();
        s.commit_workspace().unwrap();
        s.workspace_mut().clear();
        let (_, result) = s.query("?- tip(W).").unwrap();
        assert_eq!(result.rows.len(), 9, "compiled_storage={compiled}");
    }
}

#[test]
fn workspace_shadows_nothing_stored_rules_accumulate() {
    let mut s = base_session(SessionConfig::default());
    s.load_rules("anc(X, Y) :- parent(X, Y).\n").unwrap();
    s.commit_workspace().unwrap();
    s.workspace_mut().clear();
    // The recursive rule lives only in the workspace: both must be used.
    s.load_rules("anc(X, Y) :- parent(X, Z), anc(Z, Y).\n")
        .unwrap();
    let (compiled, result) = s.query("?- anc(a0, W).").unwrap();
    assert_eq!(
        compiled.relevant_rules, 2,
        "one stored + one workspace rule"
    );
    assert_eq!(result.rows.len(), 9);
}

#[test]
fn duplicate_commit_does_not_duplicate_extraction() {
    let mut s = base_session(SessionConfig::default());
    s.load_rules("anc(X, Y) :- parent(X, Y).\n").unwrap();
    s.commit_workspace().unwrap();
    // Workspace still holds the rule; commit again, then query.
    let t = s.commit_workspace().unwrap();
    assert_eq!(t.rules_stored, 0);
    s.workspace_mut().clear();
    let (compiled, _) = s.query("?- anc(a0, W).").unwrap();
    assert_eq!(compiled.relevant_rules, 1, "rule stored exactly once");
}

#[test]
fn update_timings_report_phases() {
    let mut s = base_session(SessionConfig::default());
    s.load_rules(
        "anc(X, Y) :- parent(X, Y).\n\
         anc(X, Y) :- parent(X, Z), anc(Z, Y).\n",
    )
    .unwrap();
    let t = s.commit_workspace().unwrap();
    assert_eq!(t.rules_stored, 2);
    assert!(t.tc_edges >= 2);
    assert!(t.total >= t.t_extract);
    assert!(t.total >= t.t_source_store);
}

#[test]
fn naive_strategy_works_against_stored_rules() {
    let mut s = base_session(SessionConfig {
        strategy: LfpStrategy::Naive,
        ..SessionConfig::default()
    });
    s.load_rules(
        "anc(X, Y) :- parent(X, Y).\n\
         anc(X, Y) :- parent(X, Z), anc(Z, Y).\n",
    )
    .unwrap();
    s.commit_workspace().unwrap();
    s.workspace_mut().clear();
    let (_, result) = s.query("?- anc(a3, W).").unwrap();
    assert_eq!(result.rows.len(), 6);
}

#[test]
fn type_conflicting_commit_is_rejected_whole() {
    let mut s = base_session(SessionConfig::default());
    s.load_rules(
        "ok(X, Y) :- parent(X, Y).\n\
         bad(X) :- parent(X, 42).\n",
    )
    .unwrap();
    assert!(matches!(s.commit_workspace(), Err(KmError::Type(_))));
    // Nothing was stored — the update aborted before the write phase.
    let stored = s.stored().clone();
    assert_eq!(stored.rule_count(s.engine_mut()).unwrap(), 0);
}

#[test]
fn query_sees_base_data_loaded_after_commit() {
    let mut s = base_session(SessionConfig::default());
    s.load_rules(
        "anc(X, Y) :- parent(X, Y).\n\
         anc(X, Y) :- parent(X, Z), anc(Z, Y).\n",
    )
    .unwrap();
    s.commit_workspace().unwrap();
    s.workspace_mut().clear();
    let (_, before) = s.query("?- anc(a0, W).").unwrap();
    // New facts arrive later; compiled queries against the same session
    // re-read the base relation at execution time.
    s.load_facts("parent", vec![vec![Value::from("a9"), Value::from("a10")]])
        .unwrap();
    let (_, after) = s.query("?- anc(a0, W).").unwrap();
    assert_eq!(after.rows.len(), before.rows.len() + 1);
}

#[test]
fn two_thousand_rule_commit_fits_a_test_thread_stack() {
    // The commit reads the dictionaries back with one IN-list per
    // relation over every predicate it touches — 2 000 literals here.
    let mut s = Session::new(SessionConfig::default()).unwrap();
    s.define_base("base", &binary_sym()).unwrap();
    let program = workload::chain_rule_base(100, 20, "base");
    assert_eq!(program.clauses.len(), 2000);
    for clause in &program.clauses {
        s.workspace_mut().add_clause(clause.clone());
    }
    s.commit_workspace().unwrap();
    s.workspace_mut().clear();
    let (compiled, _) = s.query(&workload::rules::chain_query(7, 0, "a")).unwrap();
    assert_eq!(compiled.relevant_rules, 20, "one whole chain is extracted");
}

/// Figure 7's claim as a count: what one `compile` reads from the Stored
/// D/KB depends on the relevant rules (R_rs), not on how many rules are
/// stored (R_s) — the planner looks the bound predicates up through the
/// indexes and never seeds a join from the unrestricted `rulesource`.
#[test]
fn compile_reads_are_flat_in_the_stored_rule_count() {
    let reads_at = |chains: usize| -> [u64; 3] {
        let mut s = Session::new(SessionConfig::default()).unwrap();
        s.define_base("base", &binary_sym()).unwrap();
        for clause in &workload::chain_rule_base(chains, 20, "base").clauses {
            s.workspace_mut().add_clause(clause.clone());
        }
        s.commit_workspace().unwrap();
        s.workspace_mut().clear();
        let query = workload::rules::chain_query(0, 13, "a");
        // Once to warm up, once measured.
        s.compile(&query).unwrap();
        let before = s.engine().stats().exec;
        let compiled = s.compile(&query).unwrap();
        let after = s.engine().stats().exec;
        assert_eq!(compiled.relevant_rules, 7);
        [
            after.tuples_scanned - before.tuples_scanned,
            after.tuples_fetched - before.tuples_fetched,
            after.index_probes - before.index_probes,
        ]
    };
    let small = reads_at(20);
    assert_eq!(small, reads_at(100), "R_s = 400 vs 2 000");
    assert!(small[2] > 0, "extraction goes through the indexes");
}
