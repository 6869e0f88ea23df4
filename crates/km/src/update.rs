//! The Stored D/KB update algorithm (§4.3).
//!
//! Updating the stored rule base with the workspace rules recomputes the
//! transitive closure *incrementally*: only the composite of the workspace
//! rules and the stored rules relevant to them is re-closed, never the
//! whole stored rule base. The paper's Test 8/9 measure exactly the three
//! phases broken out in [`UpdateTimings`].

use crate::backend::Storage;
use crate::semantics;
use crate::stored::{KmError, StoredDkb};
use crate::workspace::Workspace;
use hornlog::pcg::Pcg;
use hornlog::types::TypeMap;
use hornlog::Program;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Phase timings and counters of one stored-D/KB update.
#[derive(Debug, Clone, Default)]
pub struct UpdateTimings {
    /// Extracting the relevant rules from the Stored D/KB.
    pub t_extract: Duration,
    /// Computing the (incremental) transitive closure of the composite PCG
    /// and running the type check.
    pub t_tc: Duration,
    /// Updating the compiled structures: the intensional dictionary and
    /// `reachablepreds` (the paper's t_u2).
    pub t_compiled_store: Duration,
    /// Storing the source form of the rules (the paper's t_u3).
    pub t_source_store: Duration,
    /// Materializing workspace facts into stored base relations (§3.1's
    /// "updates the stored D/KB with these rules and facts"; not part of
    /// the paper's t_u breakdown, which §4.3 limits to intensional
    /// structures).
    pub t_facts: Duration,
    /// Everything [`crate::Session::commit_workspace`] spends around the
    /// update: beginning and committing its transaction (the buffer-pool
    /// flush and WAL commit record on a durable session; validation,
    /// replay, the group-commit wait and any attempt that lost validation
    /// on a shared one), then draining materialized facts from the
    /// workspace and invalidating the cached queries the update touched.
    pub t_commit: Duration,
    /// The whole update. [`update_stored`] measures its own span;
    /// [`crate::Session::commit_workspace`] widens it to the whole call,
    /// transaction included. The phases tile it: each starts where the one
    /// before it ended, and whatever a phase built is dropped inside it.
    pub total: Duration,
    /// Workspace rules newly stored.
    pub rules_stored: usize,
    /// Workspace facts materialized into base relations.
    pub facts_stored: u64,
    /// Edges in the composite transitive closure.
    pub tc_edges: usize,
    /// `reachablepreds` rows actually added.
    pub reachable_added: u64,
    /// Pure fact predicates materialized into base relations this commit.
    pub fact_predicates: BTreeSet<String>,
}

/// Update the Stored D/KB with the workspace rules. The type check reads
/// both dictionaries once, for every predicate the commit touches. Only
/// intensional structures are written, as in the testbed.
pub fn update_stored(
    db: &mut impl Storage,
    stored: &StoredDkb,
    workspace: &Workspace,
) -> Result<UpdateTimings, KmError> {
    let start = Instant::now();
    let mut laps = Laps(start);
    let mut timings = UpdateTimings::default();

    // Step 1: extract the stored rules relevant to the workspace rules.
    // In the source-only configuration the paper stores just the source
    // form — no extraction and no closure maintenance happen at all.
    let mut mentioned: BTreeSet<String> = BTreeSet::new();
    for rule in workspace.rules().rules() {
        mentioned.insert(rule.head.predicate.clone());
        for atom in rule.all_body_atoms() {
            mentioned.insert(atom.predicate.clone());
        }
    }
    let extracted = if stored.compiled_storage {
        stored.extract_relevant_rules(db, &mentioned)?
    } else {
        Program::default()
    };
    drop(mentioned);
    timings.t_extract = laps.lap();

    // Step 2/3: composite PCG and its transitive closure.
    let mut composite = Program::new(workspace.rules().clauses.to_vec());
    composite.extend(extracted);
    let closure = if stored.compiled_storage {
        Pcg::build(&composite).transitive_closure()
    } else {
        Vec::new()
    };
    timings.tc_edges = closure.len();

    // Step 4: type check the composite against the dictionaries. Workspace
    // facts participate so fact-defined predicates type-check.
    let mut check_program = composite.clone();
    for fact in workspace.facts().clauses.iter() {
        check_program.push(fact.clone());
    }
    let referenced: BTreeSet<String> = composite
        .clauses
        .iter()
        .flat_map(|c| {
            std::iter::once(c.head.predicate.clone())
                .chain(c.all_body_atoms().map(|a| a.predicate.clone()))
        })
        // Workspace fact predicates participate too: a fact conflicting
        // with an existing base relation's schema must fail the semantic
        // check here, before anything is written.
        .chain(
            workspace
                .facts()
                .clauses
                .iter()
                .map(|c| c.head.predicate.clone()),
        )
        .collect();
    // Each dictionary is read once per commit: the facts phase below
    // reuses both maps.
    let edb = stored.read_edb_dictionary(db, &referenced)?;
    // Previously registered derived predicates type-check through the
    // intensional dictionary (essential in source-only mode, where no
    // stored rules are extracted to define them).
    let idb = stored.read_idb_dictionary(db, &referenced)?;
    // Where both dictionaries name a predicate, the extensional entry wins.
    let dict: TypeMap = idb
        .iter()
        .chain(&edb)
        .map(|(pred, types)| (pred.clone(), types.clone()))
        .collect();
    let info = semantics::check(&check_program, &dict)?;
    drop((check_program, referenced, dict));
    timings.t_tc = laps.lap();

    // Steps 5-6: update the dictionary and compiled structures.
    let derived: BTreeSet<String> = composite
        .derived_predicates()
        .into_iter()
        .map(str::to_string)
        .collect();
    drop(composite);
    let entries: Vec<(String, Vec<hornlog::types::AttrType>)> = derived
        .iter()
        .map(|p| (p.clone(), info.types[p].clone()))
        .collect();
    stored.register_derived_bulk(db, &entries)?;
    drop(entries);
    // Only closure edges rooted at a derived predicate are stored (base
    // predicates reach nothing).
    let mut pairs: Vec<(String, String)> = closure
        .into_iter()
        .filter(|(from, _)| derived.contains(from))
        .collect();
    // The composite closure covers everything reachable *from* the
    // workspace rules, but extraction only looks down from them: a stored
    // predicate that already reached one of their heads now transitively
    // reaches the new targets too. Pull those ancestors from the compiled
    // form and extend their rows, or the stored closure drifts from the
    // true one whenever a commit adds a rule to an existing head.
    if stored.compiled_storage {
        let heads: BTreeSet<String> = workspace
            .rules()
            .rules()
            .map(|r| r.head.predicate.clone())
            .collect();
        let ancestors = stored.reaching_to(db, &heads)?;
        if !ancestors.is_empty() {
            let mut downstream: std::collections::BTreeMap<&str, Vec<&str>> =
                std::collections::BTreeMap::new();
            for (from, to) in &pairs {
                if heads.contains(from) {
                    downstream
                        .entry(from.as_str())
                        .or_default()
                        .push(to.as_str());
                }
            }
            let mut extended = Vec::new();
            for (from, head) in &ancestors {
                for to in downstream.get(head.as_str()).into_iter().flatten() {
                    extended.push((from.clone(), (*to).to_string()));
                }
            }
            pairs.extend(extended);
        }
    }
    timings.reachable_added = stored.insert_reachable(db, &pairs)?;
    drop(pairs);
    timings.t_compiled_store = laps.lap();

    // Step 7: store the source form of the new rules.
    let heads: BTreeSet<String> = workspace
        .rules()
        .rules()
        .map(|r| r.head.predicate.clone())
        .collect();
    let already = stored.stored_rule_texts(db, &heads)?;
    for rule in workspace.rules().rules() {
        if !already.contains(&rule.to_string()) {
            stored.store_rule_source(db, rule)?;
            timings.rules_stored += 1;
        }
    }
    drop((heads, already));
    timings.t_source_store = laps.lap();

    // Extensional phase (§3.1): facts for *pure* fact predicates — not
    // defined by any rule here or in the stored dictionary — become rows
    // of stored base relations, created on first commit.
    let mut fact_preds: BTreeSet<String> = workspace
        .facts()
        .clauses
        .iter()
        .map(|c| c.head.predicate.clone())
        .collect();
    // Step 4 read both dictionaries for every workspace fact predicate.
    fact_preds.retain(|p| !derived.contains(p) && !idb.contains_key(p));
    for pred in &fact_preds {
        let rows: Vec<Vec<rdbms::Value>> = workspace
            .facts()
            .clauses
            .iter()
            .filter(|c| &c.head.predicate == pred)
            .map(|c| crate::util::fact_row(&c.head))
            .collect();
        if !edb.contains_key(pred) {
            stored.create_base_relation(db, pred, &info.types[pred])?;
        }
        // Set semantics: only facts the relation does not hold yet go in,
        // found without reading the relation into memory (and, on the
        // shared backend, without a table read in the footprint).
        timings.facts_stored += db.insert_absent(pred, rows)?;
    }
    // Report which predicates were materialized so the caller can drain
    // them from the workspace.
    timings.fact_predicates = fact_preds;
    drop((edb, idb, info, derived));
    timings.t_facts = laps.lap();

    timings.total = start.elapsed();
    Ok(timings)
}

/// One span cut into back-to-back phases: each [`Laps::lap`] ends the
/// phase running since the previous one and starts the next, so no time
/// falls between two phases.
struct Laps(Instant);

impl Laps {
    fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let phase = now - self.0;
        self.0 = now;
        phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hornlog::types::AttrType;
    use rdbms::Engine;

    fn setup(compiled: bool) -> (Engine, StoredDkb) {
        let mut db = Engine::new();
        let stored = StoredDkb::new(compiled);
        stored.init(&mut db).unwrap();
        stored
            .create_base_relation(&mut db, "parent", &[AttrType::Sym, AttrType::Sym])
            .unwrap();
        (db, stored)
    }

    #[test]
    fn first_update_stores_rules_and_closure() {
        let (mut db, stored) = setup(true);
        let mut ws = Workspace::new();
        ws.load(
            "anc(X, Y) :- parent(X, Y).\n\
             anc(X, Y) :- parent(X, Z), anc(Z, Y).\n",
        )
        .unwrap();
        let t = update_stored(&mut db, &stored, &ws).unwrap();
        assert_eq!(t.rules_stored, 2);
        assert_eq!(stored.rule_count(&mut db).unwrap(), 2);
        // anc reaches parent and anc (self-recursive): 2 edges.
        assert_eq!(t.reachable_added, 2);
        assert_eq!(stored.derived_count(&mut db).unwrap(), 1);
    }

    #[test]
    fn repeated_update_is_idempotent() {
        let (mut db, stored) = setup(true);
        let mut ws = Workspace::new();
        ws.load("anc(X, Y) :- parent(X, Y).\n").unwrap();
        update_stored(&mut db, &stored, &ws).unwrap();
        let t2 = update_stored(&mut db, &stored, &ws).unwrap();
        assert_eq!(t2.rules_stored, 0);
        assert_eq!(t2.reachable_added, 0);
        assert_eq!(stored.rule_count(&mut db).unwrap(), 1);
    }

    #[test]
    fn incremental_closure_spans_old_and_new_rules() {
        let (mut db, stored) = setup(true);
        // First commit: b depends on parent.
        let mut ws = Workspace::new();
        ws.load("b(X, Y) :- parent(X, Y).\n").unwrap();
        update_stored(&mut db, &stored, &ws).unwrap();
        // Second commit: a depends on b — the closure must record
        // a -> b, a -> parent through the extracted stored rule.
        let mut ws2 = Workspace::new();
        ws2.load("a(X, Y) :- b(X, Y).\n").unwrap();
        update_stored(&mut db, &stored, &ws2).unwrap();
        let reach = stored
            .reachable_from(&mut db, &["a".to_string()].into())
            .unwrap();
        assert!(reach.contains("b"));
        assert!(
            reach.contains("parent"),
            "closure goes through stored rules"
        );
    }

    #[test]
    fn closure_propagates_to_ancestors_of_updated_heads() {
        let (mut db, stored) = setup(true);
        stored
            .create_base_relation(&mut db, "other", &[AttrType::Sym, AttrType::Sym])
            .unwrap();
        let mut ws = Workspace::new();
        ws.load("b(X, Y) :- parent(X, Y).\n").unwrap();
        update_stored(&mut db, &stored, &ws).unwrap();
        let mut ws2 = Workspace::new();
        ws2.load("a(X, Y) :- b(X, Y).\n").unwrap();
        update_stored(&mut db, &stored, &ws2).unwrap();
        // Third commit adds a rule to the *existing* head b. a already
        // reached b, so a must now also reach b's new target.
        let mut ws3 = Workspace::new();
        ws3.load("b(X, Y) :- other(X, Y).\n").unwrap();
        update_stored(&mut db, &stored, &ws3).unwrap();
        let reach = stored
            .reachable_from(&mut db, &["a".to_string()].into())
            .unwrap();
        assert!(reach.contains("other"), "ancestor rows extended: {reach:?}");
        stored.verify_integrity(&mut db).unwrap();
    }

    #[test]
    fn update_without_compiled_storage_skips_closure() {
        let (mut db, stored) = setup(false);
        let mut ws = Workspace::new();
        ws.load("anc(X, Y) :- parent(X, Y).\n").unwrap();
        let t = update_stored(&mut db, &stored, &ws).unwrap();
        assert_eq!(t.rules_stored, 1);
        assert_eq!(t.reachable_added, 0);
        assert!(!db.has_table("reachablepreds"));
    }

    #[test]
    fn type_error_aborts_before_store() {
        let (mut db, stored) = setup(true);
        let mut ws = Workspace::new();
        // parent columns are char; 42 is integer.
        ws.load("bad(X) :- parent(X, 42).\n").unwrap();
        assert!(update_stored(&mut db, &stored, &ws).is_err());
        assert_eq!(stored.rule_count(&mut db).unwrap(), 0, "nothing stored");
    }

    #[test]
    fn undefined_body_predicate_aborts() {
        let (mut db, stored) = setup(true);
        let mut ws = Workspace::new();
        ws.load("bad(X) :- nosuch(X).\n").unwrap();
        assert!(update_stored(&mut db, &stored, &ws).is_err());
    }

    #[test]
    fn fact_defined_predicates_type_check() {
        let (mut db, stored) = setup(true);
        let mut ws = Workspace::new();
        ws.load(
            "likes(X, Y) :- knows(X, Y).\n\
             knows(ann, bob).\n",
        )
        .unwrap();
        let t = update_stored(&mut db, &stored, &ws).unwrap();
        assert_eq!(t.rules_stored, 1);
    }
}
