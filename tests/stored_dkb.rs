//! Integration tests of the Stored D/KB lifecycle: staged commits, the
//! compiled-versus-source storage configurations, workspace/stored rule
//! interplay, and the invariants the update algorithm must maintain.

use km::session::{binary_sym, Session, SessionConfig};
use km::{KmError, LfpStrategy};
use proptest::prelude::*;
use rdbms::Value;
use std::collections::BTreeSet;

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

/// Table 8 accounts for the whole commit: on a durable session the five
/// update phases and the transaction's begin + commit cover the call.
#[test]
fn update_phases_cover_the_durable_commit() {
    let mut s = Session::new(SessionConfig {
        durability: true,
        ..SessionConfig::default()
    })
    .unwrap();
    s.define_base("base", &binary_sym()).unwrap();
    for clause in &workload::chain_rule_base(10, 20, "base").clauses {
        s.workspace_mut().add_clause(clause.clone());
    }
    s.load_rules("ledger(a, b).\nledger(b, c).\n").unwrap();
    let t = s.commit_workspace().unwrap();
    assert_eq!(t.rules_stored, 200);
    assert_eq!(t.facts_stored, 2);
    assert!(t.t_commit > std::time::Duration::ZERO, "{t:?}");
    let phases =
        t.t_extract + t.t_tc + t.t_compiled_store + t.t_source_store + t.t_facts + t.t_commit;
    assert!(phases <= t.total, "{t:?}");
    assert!(
        phases.as_secs_f64() >= 0.95 * t.total.as_secs_f64(),
        "phases {phases:?} of {:?}: {t:?}",
        t.total
    );
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

/// Figure 8's claim as a count, on the source-only form (no
/// `reachablepreds`): extraction walks `rulesource` one level at a time
/// through its head-predicate index, so what one `compile` reads grows
/// linearly with the relevant rules R_rs and not with the stored rules R_s.
#[test]
fn source_only_compile_reads_grow_with_relevant_rules_only() {
    let store = |chains: usize| -> Session {
        let mut s = Session::new(SessionConfig {
            compiled_storage: false,
            ..SessionConfig::default()
        })
        .unwrap();
        s.define_base("base", &binary_sym()).unwrap();
        for clause in &workload::chain_rule_base(chains, 20, "base").clauses {
            s.workspace_mut().add_clause(clause.clone());
        }
        s.commit_workspace().unwrap();
        s.workspace_mut().clear();
        s
    };
    // Tuples read (scanned + fetched) by one compile of a query whose
    // predicate heads the last `r_rs` rules of chain 0.
    let reads = |s: &mut Session, r_rs: usize| -> u64 {
        let query = workload::rules::chain_query(0, 20 - r_rs, "a");
        // Once to warm up, once measured.
        s.compile(&query).unwrap();
        let before = s.engine().stats().exec;
        let compiled = s.compile(&query).unwrap();
        let after = s.engine().stats().exec;
        assert_eq!(compiled.relevant_rules, r_rs);
        (after.tuples_scanned - before.tuples_scanned)
            + (after.tuples_fetched - before.tuples_fetched)
    };
    let mut small = store(20);
    let by_stored = [
        reads(&mut small, 7),
        reads(&mut store(60), 7),
        reads(&mut store(100), 7),
    ];
    assert_eq!(
        by_stored, [46; 3],
        "R_rs = 7 at R_s = 400 / 1 200 / 2 000: 1 scanned + 45 fetched each"
    );
    let by_relevant = [5, 10, 15].map(|r_rs| reads(&mut small, r_rs));
    assert!(
        by_relevant[0] < by_relevant[1]
            && by_relevant[1] - by_relevant[0] == by_relevant[2] - by_relevant[1],
        "R_rs = 5 / 10 / 15 at R_s = 400 read 34 / 64 / 94 (4 + 6 R_rs): {by_relevant:?}"
    );
}

/// A session whose Stored D/KB holds `chains` 20-rule chains over `base`,
/// plus an empty base relation `other` for commits to hang rules on.
fn chain_store(chains: usize) -> Session {
    let mut s = Session::new(SessionConfig {
        durability: true,
        ..SessionConfig::default()
    })
    .unwrap();
    s.define_base("base", &binary_sym()).unwrap();
    s.define_base("other", &binary_sym()).unwrap();
    for clause in &workload::chain_rule_base(chains, 20, "base").clauses {
        s.workspace_mut().add_clause(clause.clone());
    }
    s.commit_workspace().unwrap();
    s.workspace_mut().clear();
    s
}

/// Figure 15's claim as a count: what one single-rule commit reads from
/// the Stored D/KB does not depend on how many rules are stored (R_s). The
/// incremental closure looks the new rule's ancestors up through
/// `reachablepreds (topredname)`, as extraction looks its descendants up
/// through `reachablepreds (frompredname)`.
#[test]
fn update_reads_are_flat_in_the_stored_rule_count() {
    // (rule, `reachablepreds` rows it adds): a new head over a stored
    // chain (the benchmark's `dkb_update` op), and a rule added to a
    // stored head whose ten stored ancestors must be extended.
    let shapes = [
        ("u0(X, Y) :- g1_p5(X, Y).\n", 16),
        ("g1_p10(X, Y) :- other(X, Y).\n", 11),
    ];
    let reads_at = |chains: usize, rule: &str, added: u64| -> [u64; 4] {
        let mut s = chain_store(chains);
        s.load_rules(rule).unwrap();
        let before = s.engine().stats();
        let t = s.commit_workspace().unwrap();
        let after = s.engine().stats();
        assert_eq!((t.rules_stored, t.reachable_added), (1, added), "{rule}");
        s.verify_integrity().unwrap();
        [
            after.exec.tuples_scanned - before.exec.tuples_scanned,
            after.exec.tuples_fetched - before.exec.tuples_fetched,
            after.exec.index_probes - before.exec.index_probes,
            after.statements - before.statements,
        ]
    };
    for (rule, added) in shapes {
        let small = reads_at(20, rule, added);
        assert_eq!(
            small,
            reads_at(100, rule, added),
            "R_s = 400 vs 2 000: {rule}"
        );
    }

    // The ancestor lookup is an index probe, not a scan. This is the
    // statement `StoredDkb::reaching_to` issues.
    let mut s = chain_store(20);
    let plan = s
        .db_execute("EXPLAIN SELECT frompredname, topredname FROM reachablepreds WHERE topredname IN ('g1_p10')")
        .unwrap();
    let plan: Vec<String> = plan.rows.iter().map(|r| format!("{}", r[0])).collect();
    assert_eq!(
        plan,
        [
            "Project [2 col(s)]",
            "  IndexLookup reachablepreds key=(g1_p10)"
        ],
        "{plan:?}"
    );
}

/// A binary rule `head :- body...` over the predicates `p0..p7` and the
/// base relation `e`.
fn rule_text(head: u8, body: &[String]) -> String {
    let atoms: Vec<String> = match body {
        [one] => vec![format!("{one}(X, Y)")],
        [a, b] => vec![format!("{a}(X, Z)"), format!("{b}(Z, Y)")],
        _ => unreachable!("one or two body atoms"),
    };
    format!("p{head}(X, Y) :- {}.\n", atoms.join(", "))
}

/// The stored closure, as `(from, to)` pairs.
fn reachable_pairs(s: &mut Session) -> BTreeSet<(String, String)> {
    s.db_execute("SELECT frompredname, topredname FROM reachablepreds")
        .unwrap()
        .rows
        .iter()
        .map(|r| (r[0].to_string(), r[1].to_string()))
        .collect()
}

fn closure_session() -> Session {
    let mut s = Session::with_defaults().unwrap();
    s.define_base("e", &binary_sym()).unwrap();
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The incremental closure update (§4.3) against a from-scratch one:
    /// committing rules batch by batch — adding rules to heads that
    /// already have stored ancestors, closing cycles — stores the same
    /// `reachablepreds` as one commit of every rule.
    #[test]
    fn batched_commits_store_the_closure_of_one_commit(
        batches in prop::collection::vec(
            prop::collection::vec((0u8..8, 0u8..16, 0u8..16, any::<bool>()), 1..5),
            2..6,
        ),
    ) {
        let mut s = closure_session();
        let mut all = String::new();
        let mut typed: BTreeSet<String> = ["e".to_string()].into();
        for batch in &batches {
            // A body atom names the base relation or a predicate defined
            // by the end of this batch, so every commit's rules are safe;
            // a head's first rule uses only already typed predicates, so
            // every predicate's type can be inferred.
            let defined: Vec<String> = typed
                .iter()
                .cloned()
                .chain(batch.iter().map(|(h, ..)| format!("p{h}")))
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            let mut text = String::new();
            for &(head, a, b, two) in batch {
                let head_pred = format!("p{head}");
                let typed_list: Vec<String> = typed.iter().cloned().collect();
                let pool = if typed.contains(&head_pred) {
                    &defined
                } else {
                    &typed_list
                };
                let mut body = vec![pool[a as usize % pool.len()].clone()];
                if two {
                    body.push(pool[b as usize % pool.len()].clone());
                }
                text.push_str(&rule_text(head, &body));
                typed.insert(head_pred);
            }
            s.load_rules(&text).unwrap();
            s.commit_workspace().unwrap();
            s.workspace_mut().clear();
            prop_assert!(s.verify_integrity().is_ok(), "{:?}", s.verify_integrity());
            all.push_str(&text);
        }
        let mut fresh = closure_session();
        fresh.load_rules(&all).unwrap();
        fresh.commit_workspace().unwrap();
        prop_assert_eq!(reachable_pairs(&mut s), reachable_pairs(&mut fresh), "{}", all);
    }
}
