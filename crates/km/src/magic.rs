//! The Optimizer: generalized magic sets rewriting (Beeri & Ramakrishnan),
//! as used by the testbed to restrict LFP evaluation to the facts relevant
//! to the query constants.
//!
//! Given the relevant rules and a query, the rewrite produces three rule
//! groups in the workspace — exactly the paper's description of the
//! optimizer output: *adorned* rules (computed by [`hornlog::adorn`]),
//! *magic* rules (deriving the set of relevant bindings), and *modified*
//! rules (the adorned rules guarded by their magic predicates).

use hornlog::adorn::{adorn_program, Adornment};
use hornlog::types::TypeMap;
use hornlog::{Atom, Clause, Program, Term};
use std::collections::{BTreeMap, BTreeSet};

/// Name of the magic predicate guarding the adorned predicate `adorned`.
pub fn magic_name(adorned: &str) -> String {
    format!("m_{adorned}")
}

/// Result of the magic-sets rewrite.
#[derive(Debug, Clone)]
pub struct MagicRewrite {
    /// Magic rules, seed facts, and modified rules.
    pub program: Program,
    /// The query, with derived body atoms renamed to adorned predicates.
    pub query: Clause,
    /// Adorned predicate name → (original predicate, adornment).
    pub origin: BTreeMap<String, (String, Adornment)>,
    /// Magic predicate names introduced by the rewrite.
    pub magic_preds: BTreeSet<String>,
    /// How many of the rewritten rules are magic rules (for reporting).
    pub magic_rule_count: usize,
}

impl MagicRewrite {
    /// Extend `original` (types of base and original derived predicates)
    /// with entries for the adorned and magic predicates: an adorned
    /// predicate inherits the original's types; its magic predicate keeps
    /// the bound positions only.
    pub fn rewritten_types(&self, original: &TypeMap) -> TypeMap {
        let mut out = original.clone();
        for (adorned, (orig, adornment)) in &self.origin {
            let Some(types) = original.get(orig) else {
                continue;
            };
            out.insert(adorned.clone(), types.clone());
            let magic = magic_name(adorned);
            if self.magic_preds.contains(&magic) {
                let bound: Vec<_> = adornment
                    .bound_positions()
                    .into_iter()
                    .map(|i| types[i])
                    .collect();
                out.insert(magic, bound);
            }
        }
        out
    }
}

/// The magic atom for an adorned occurrence: `m_p__α(args at bound
/// positions)`.
fn magic_atom(atom: &Atom, adornment: &Adornment) -> Atom {
    let args: Vec<Term> = adornment
        .bound_positions()
        .into_iter()
        .map(|i| atom.args[i].clone())
        .collect();
    Atom::new(magic_name(&atom.predicate), args)
}

/// Emit the magic rules a rule body's derived occurrences induce
/// (`m_Bi(bound) :- [head magic,] B1 .. B_{i-1}`), plus the guarded
/// modified rule. Shared by the rules and the query body (passed as a rule
/// with no head magic whose modified output is skipped).
#[allow(clippy::too_many_arguments)]
fn emit_rule(
    body: &[Atom],
    head: Option<&Atom>,
    head_magic: Option<&Atom>,
    negative_body: &[Atom],
    adornment_of: &dyn Fn(&Atom) -> Option<Adornment>,
    rewritten: &mut Program,
    magic_preds: &mut BTreeSet<String>,
    magic_rule_count: &mut usize,
) {
    for (i, atom) in body.iter().enumerate() {
        let Some(adn) = adornment_of(atom) else {
            continue;
        };
        if adn.is_all_free() {
            continue;
        }
        let m_head = magic_atom(atom, &adn);
        magic_preds.insert(m_head.predicate.clone());
        let mut m_body = Vec::with_capacity(i + 1);
        if let Some(m) = head_magic {
            m_body.push(m.clone());
        }
        m_body.extend_from_slice(&body[..i]);
        rewritten.push(Clause {
            head: m_head,
            body: m_body,
            negative_body: Vec::new(),
        });
        *magic_rule_count += 1;
    }
    if let Some(h) = head {
        let mut m_body = Vec::with_capacity(body.len() + 1);
        if let Some(m) = head_magic {
            m_body.push(m.clone());
        }
        m_body.extend_from_slice(body);
        rewritten.push(Clause {
            head: h.clone(),
            body: m_body,
            negative_body: negative_body.to_vec(),
        });
    }
}

/// Perform the generalized magic-sets rewrite of `program` for `query`.
/// `derived` lists the derived predicates (everything else is base).
pub fn magic_rewrite(
    program: &Program,
    query: &Clause,
    derived: &BTreeSet<String>,
) -> MagicRewrite {
    let adorned = adorn_program(program, query, derived);
    let mut rewritten = Program::default();
    let mut magic_preds = BTreeSet::new();
    let mut magic_rule_count = 0;

    // Look up an atom's adornment (it is an adorned derived predicate) —
    // `None` for base predicates.
    let adornment_of = |atom: &Atom| -> Option<Adornment> {
        adorned.origin.get(&atom.predicate).map(|(_, a)| a.clone())
    };

    // Magic rules from the query body: m_q(bound args) :- B1 .. B_{i-1}.
    // For the first derived atom the prefix is empty and the magic rule
    // degenerates to the seed fact m_q(constants).
    emit_rule(
        &adorned.query.body,
        None,
        None,
        &[],
        &adornment_of,
        &mut rewritten,
        &mut magic_preds,
        &mut magic_rule_count,
    );

    for rule in &adorned.rules {
        let head_adornment = adorned
            .origin
            .get(&rule.head.predicate)
            .map(|(_, a)| a.clone())
            .expect("adorned rules have adorned heads");
        let head_magic = if head_adornment.is_all_free() {
            None
        } else {
            let m = magic_atom(&rule.head, &head_adornment);
            magic_preds.insert(m.predicate.clone());
            Some(m)
        };
        emit_rule(
            &rule.body,
            Some(&rule.head),
            head_magic.as_ref(),
            &rule.negative_body,
            &adornment_of,
            &mut rewritten,
            &mut magic_preds,
            &mut magic_rule_count,
        );
    }

    MagicRewrite {
        program: rewritten,
        query: adorned.query,
        origin: adorned.origin,
        magic_preds,
        magic_rule_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hornlog::parser::{parse_program, parse_query};
    use hornlog::types::AttrType;

    fn derived(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn ancestor() -> Program {
        parse_program(
            "anc(X, Y) :- parent(X, Y).\n\
             anc(X, Y) :- parent(X, Z), anc(Z, Y).\n",
        )
        .unwrap()
    }

    #[test]
    fn ancestor_bf_rewrite_matches_textbook() {
        let q = parse_query("?- anc(adam, W).").unwrap();
        let rw = magic_rewrite(&ancestor(), &q, &derived(&["anc"]));

        let texts: Vec<String> = rw.program.clauses.iter().map(|c| c.to_string()).collect();
        assert!(
            texts.contains(&"m_anc__bf(adam).".to_string()),
            "seed: {texts:?}"
        );
        assert!(texts.contains(&"anc__bf(X, Y) :- m_anc__bf(X), parent(X, Y).".to_string()));
        assert!(texts
            .contains(&"anc__bf(X, Y) :- m_anc__bf(X), parent(X, Z), anc__bf(Z, Y).".to_string()));
        assert!(texts.contains(&"m_anc__bf(Z) :- m_anc__bf(X), parent(X, Z).".to_string()));
        assert_eq!(rw.program.len(), 4);
        assert_eq!(rw.magic_rule_count, 2);
        assert_eq!(rw.query.body[0].predicate, "anc__bf");
        assert_eq!(rw.magic_preds.iter().collect::<Vec<_>>(), vec!["m_anc__bf"]);
    }

    #[test]
    fn all_free_query_guards_only_inner_occurrences() {
        // With an all-free query there is no restriction to propagate into
        // anc__ff itself, but the full left-to-right SIP still binds Z in
        // the recursive call, producing a (useless but correct) anc__bf
        // sub-computation — the overhead regime of Figure 13's crossover.
        let q = parse_query("?- anc(A, B).").unwrap();
        let rw = magic_rewrite(&ancestor(), &q, &derived(&["anc"]));
        let texts: Vec<String> = rw.program.clauses.iter().map(|c| c.to_string()).collect();
        // The ff rules themselves are unguarded (no m_anc__ff exists).
        assert!(texts.contains(&"anc__ff(X, Y) :- parent(X, Y).".to_string()));
        assert!(texts.contains(&"anc__ff(X, Y) :- parent(X, Z), anc__bf(Z, Y).".to_string()));
        assert!(!rw.magic_preds.contains("m_anc__ff"));
        // The inner bf occurrence is magic-guarded as usual.
        assert!(rw.magic_preds.contains("m_anc__bf"));
        assert!(texts.contains(&"m_anc__bf(Z) :- parent(X, Z).".to_string()));
    }

    #[test]
    fn second_argument_bound_gives_fb_then_bb() {
        let q = parse_query("?- anc(X, eve).").unwrap();
        let rw = magic_rewrite(&ancestor(), &q, &derived(&["anc"]));
        let texts: Vec<String> = rw.program.clauses.iter().map(|c| c.to_string()).collect();
        assert!(texts.contains(&"m_anc__fb(eve).".to_string()));
        // Left-to-right SIP binds Z through parent(X, Z) before the
        // recursive call, so the inner occurrence is fully bound (bb).
        assert!(texts
            .contains(&"anc__fb(X, Y) :- m_anc__fb(Y), parent(X, Z), anc__bb(Z, Y).".to_string()));
        assert!(texts.contains(&"m_anc__bb(Z, Y) :- m_anc__fb(Y), parent(X, Z).".to_string()));
        assert!(rw.magic_preds.contains("m_anc__bb"));
    }

    #[test]
    fn multi_atom_query_chains_magic_through_prefix() {
        let p = parse_program(
            "p(X, Y) :- e(X, Y).\n\
             q(X, Y) :- f(X, Y).\n",
        )
        .unwrap();
        let q = parse_query("?- p(a, X), q(X, Y).").unwrap();
        let rw = magic_rewrite(&p, &q, &derived(&["p", "q"]));
        let texts: Vec<String> = rw.program.clauses.iter().map(|c| c.to_string()).collect();
        assert!(texts.contains(&"m_p__bf(a).".to_string()));
        assert!(texts.contains(&"m_q__bf(X) :- p__bf(a, X).".to_string()));
    }

    #[test]
    fn rewritten_types_cover_adorned_and_magic() {
        let q = parse_query("?- anc(adam, W).").unwrap();
        let rw = magic_rewrite(&ancestor(), &q, &derived(&["anc"]));
        let mut base = TypeMap::new();
        base.insert("parent".into(), vec![AttrType::Sym, AttrType::Sym]);
        base.insert("anc".into(), vec![AttrType::Sym, AttrType::Sym]);
        let types = rw.rewritten_types(&base);
        assert_eq!(types["anc__bf"], vec![AttrType::Sym, AttrType::Sym]);
        assert_eq!(types["m_anc__bf"], vec![AttrType::Sym]);
    }

    #[test]
    fn seed_is_a_fact() {
        let q = parse_query("?- anc(adam, W).").unwrap();
        let rw = magic_rewrite(&ancestor(), &q, &derived(&["anc"]));
        let seeds: Vec<&Clause> = rw.program.clauses.iter().filter(|c| c.is_fact()).collect();
        assert_eq!(seeds.len(), 1);
        assert_eq!(seeds[0].head.predicate, "m_anc__bf");
    }

    #[test]
    fn same_generation_rewrite_is_well_formed() {
        // The classic same-generation program: sg's recursive rule
        // references sg once, flanked by base atoms.
        let p = parse_program(
            "sg(X, Y) :- flat(X, Y).\n\
             sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n",
        )
        .unwrap();
        let q = parse_query("?- sg(john, W).").unwrap();
        let rw = magic_rewrite(&p, &q, &derived(&["sg"]));
        let texts: Vec<String> = rw.program.clauses.iter().map(|c| c.to_string()).collect();
        assert!(texts.contains(&"m_sg__bf(john).".to_string()));
        assert!(texts.contains(&"m_sg__bf(U) :- m_sg__bf(X), up(X, U).".to_string()));
        assert!(texts.contains(
            &"sg__bf(X, Y) :- m_sg__bf(X), up(X, U), sg__bf(U, V), down(V, Y).".to_string()
        ));
    }
}
