//! The Code Generator.
//!
//! The paper's code generator emits a C program segment that loads
//! query-specific data structures: per evaluation-order node, the predicate
//! schemas and the SQL query evaluating each rule body. We generate the
//! same thing as a plain data structure, [`EvalProgram`], which the Run
//! Time Library interprets. For each recursive rule we additionally
//! generate the *differential* SQL variants semi-naive evaluation needs
//! (one per occurrence of a clique predicate in the body, reading that
//! occurrence from the delta table).

use crate::stored::KmError;
use crate::util::sql_const;
use hornlog::evalgraph::EvalNode;
use hornlog::types::{AttrType, TypeMap};
use hornlog::{Clause, Term};
use rdbms::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Table holding the accumulated extension of derived predicate `pred`.
///
/// `ns` is the session's temporary namespace (empty on a private
/// backend). Namespacing the scratch tables is what lets two sessions
/// of a shared engine run semi-naive LFPs concurrently: their
/// `all_/new_/delta_` temporaries never collide by name.
pub fn all_table(ns: &str, pred: &str) -> String {
    format!("d_{ns}{pred}")
}

/// Per-iteration delta table of a clique predicate.
pub fn delta_table(ns: &str, pred: &str) -> String {
    format!("delta_{ns}{pred}")
}

/// Scratch table collecting one iteration's new tuples.
pub fn new_table(ns: &str, pred: &str) -> String {
    format!("new_{ns}{pred}")
}

/// The SQL generated for one rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSql {
    /// Head predicate (table `d_<head>` receives the rows; the result
    /// predicate's go to the caller instead).
    pub head_pred: String,
    /// The rule's source text (for tracing / EXPLAIN-style output).
    pub source: String,
    /// SQL evaluating the body against the accumulated tables.
    pub full_sql: String,
    /// Differential variants for semi-naive evaluation: one per body
    /// occurrence of a clique predicate, that occurrence reading the delta
    /// table. Empty for non-recursive rules.
    pub delta_variants: Vec<String>,
}

/// One entry of the evaluation order list, compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgNode {
    /// Non-recursive derived predicate: evaluate each rule once.
    Predicate { pred: String, rules: Vec<RuleSql> },
    /// Clique: LFP evaluation of the recursive rules, seeded by the exit
    /// rules.
    Clique {
        preds: Vec<String>,
        exit_rules: Vec<RuleSql>,
        recursive_rules: Vec<RuleSql>,
    },
}

impl ProgNode {
    pub fn is_clique(&self) -> bool {
        matches!(self, ProgNode::Clique { .. })
    }

    pub fn predicates(&self) -> Vec<&str> {
        match self {
            ProgNode::Predicate { pred, .. } => vec![pred.as_str()],
            ProgNode::Clique { preds, .. } => preds.iter().map(String::as_str).collect(),
        }
    }
}

/// The generated program: what the paper's code fragment loads before the
/// run-time library takes over.
#[derive(Debug, Clone)]
pub struct EvalProgram {
    /// Temporary-table namespace every scratch-table name carries (the
    /// [`CodegenEnv::ns`] the program was generated under). The runtime
    /// must create/drop the program's temporaries through this.
    pub ns: String,
    /// Derived tables to create: predicate → column types. The result
    /// predicate is not among them — nothing reads it but the caller, so
    /// the runtime answers from its rules' SELECTs and never stores it.
    pub tables: BTreeMap<String, Vec<AttrType>>,
    /// Ground facts to seed, grouped by predicate (magic seeds and
    /// workspace facts for predicates without a stored base relation).
    pub seeds: Vec<(String, Vec<Vec<Value>>)>,
    /// Evaluation-order nodes.
    pub nodes: Vec<ProgNode>,
    /// Predicate whose rules compute the query answer.
    pub result_pred: String,
    /// Column types of the answer.
    pub result_types: Vec<AttrType>,
}

impl EvalProgram {
    /// Total number of generated SQL statements (a size metric for t_gen).
    pub fn sql_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n {
                ProgNode::Predicate { rules, .. } => rules.len(),
                ProgNode::Clique {
                    exit_rules,
                    recursive_rules,
                    ..
                } => {
                    exit_rules.len()
                        + recursive_rules
                            .iter()
                            .map(|r| 1 + r.delta_variants.len())
                            .sum::<usize>()
                }
            })
            .sum()
    }
}

/// Everything codegen needs to know about where predicates live.
pub struct CodegenEnv<'a> {
    /// Types of every predicate (base, derived, adorned, magic).
    pub types: &'a TypeMap,
    /// Predicates backed by stored base relations (table name = predicate).
    pub base_preds: &'a BTreeSet<String>,
    /// Column names of the base relations.
    pub base_columns: &'a BTreeMap<String, Vec<String>>,
    /// Temporary-table namespace baked into every generated scratch-table
    /// name (empty for a private session, `s<id>_` for shared sessions).
    pub ns: &'a str,
}

impl<'a> CodegenEnv<'a> {
    fn table_of(&self, pred: &str) -> String {
        if self.base_preds.contains(pred) {
            pred.to_string()
        } else {
            all_table(self.ns, pred)
        }
    }

    fn columns_of(&self, pred: &str) -> Result<Vec<String>, KmError> {
        if self.base_preds.contains(pred) {
            self.base_columns
                .get(pred)
                .cloned()
                .ok_or_else(|| KmError::Internal(format!("no columns for base {pred}")))
        } else {
            let arity = self
                .types
                .get(pred)
                .map(Vec::len)
                .ok_or_else(|| KmError::Internal(format!("no types for {pred}")))?;
            Ok((0..arity).map(|i| format!("c{i}")).collect())
        }
    }
}

/// Whether `rule` merely re-arranges the columns of one derived relation:
/// its body is a single positive atom over a derived predicate, every
/// argument of that atom is a different variable, and the head carries all
/// of them. An injective projection of a set is a set, and derived tables
/// are sets by construction (seeds are de-duplicated, every other insert
/// is `EXCEPT` or `NOT EXISTS` against the table itself), so such a rule's
/// rows are already distinct. A base relation is a bag, so it does not
/// qualify.
fn rearranges_a_derived_relation(rule: &Clause, env: &CodegenEnv<'_>) -> bool {
    let [atom] = rule.body.as_slice() else {
        return false;
    };
    if !rule.negative_body.is_empty() || env.base_preds.contains(&atom.predicate) {
        return false;
    }
    let mut seen = BTreeSet::new();
    atom.args.iter().all(|arg| match arg {
        Term::Var(v) => seen.insert(v) && rule.head.args.contains(arg),
        Term::Const(_) => false,
    })
}

/// Generate the SQL for one rule body. `table_override` substitutes the
/// table read by one body occurrence (index into `rule.body`) — this is how
/// delta variants are produced.
pub fn rule_to_sql(
    rule: &Clause,
    env: &CodegenEnv<'_>,
    table_override: Option<(usize, String)>,
) -> Result<String, KmError> {
    rule_sql(rule, env, table_override, true)
}

/// [`rule_to_sql`], with `SELECT DISTINCT` or — for a rule whose rows the
/// caller knows to be distinct already — plain `SELECT`.
fn rule_sql(
    rule: &Clause,
    env: &CodegenEnv<'_>,
    table_override: Option<(usize, String)>,
    distinct: bool,
) -> Result<String, KmError> {
    if rule.body.is_empty() {
        return Err(KmError::Internal(format!(
            "cannot generate SQL for bodyless clause: {rule}"
        )));
    }
    if rule.head.arity() == 0 {
        return Err(KmError::Semantic(format!(
            "nullary derived predicates are not supported: {rule}"
        )));
    }
    if !rule.is_range_restricted() {
        return Err(KmError::Semantic(format!(
            "rule is not range-restricted (unsafe): {rule}"
        )));
    }
    // Negated atoms cannot read a delta table: stratification guarantees
    // they refer to lower (already complete) strata.
    if let Some((idx, _)) = &table_override {
        debug_assert!(*idx < rule.body.len(), "override targets a positive atom");
    }

    // FROM list with one alias per occurrence.
    let mut from = Vec::with_capacity(rule.body.len());
    let mut occurrence_cols = Vec::with_capacity(rule.body.len());
    for (i, atom) in rule.body.iter().enumerate() {
        let table = match &table_override {
            Some((idx, t)) if *idx == i => t.clone(),
            _ => env.table_of(&atom.predicate),
        };
        from.push(format!("{table} t{i}"));
        occurrence_cols.push(env.columns_of(&atom.predicate)?);
    }

    // WHERE: constants and variable-equality chains.
    let mut conds = Vec::new();
    let mut first_occurrence: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (i, atom) in rule.body.iter().enumerate() {
        for (j, term) in atom.args.iter().enumerate() {
            let col = &occurrence_cols[i][j];
            match term {
                Term::Const(c) => conds.push(format!("t{i}.{col} = {}", sql_const(c))),
                Term::Var(v) => match first_occurrence.get(v.as_str()) {
                    None => {
                        first_occurrence.insert(v, (i, j));
                    }
                    Some(&(fi, fj)) => {
                        let fcol = &occurrence_cols[fi][fj];
                        conds.push(format!("t{fi}.{fcol} = t{i}.{col}"));
                    }
                },
            }
        }
    }

    // SELECT: head arguments.
    let mut select = Vec::with_capacity(rule.head.arity());
    for term in &rule.head.args {
        match term {
            Term::Const(c) => select.push(sql_const(c)),
            Term::Var(v) => {
                let (i, j) = first_occurrence[v.as_str()];
                let col = &occurrence_cols[i][j];
                select.push(format!("t{i}.{col}"));
            }
        }
    }

    // Negated atoms become correlated NOT EXISTS subqueries (the
    // stratified-negation extension). Safety guarantees every variable of
    // a negated atom already has a positive first occurrence.
    for (k, atom) in rule.negative_body.iter().enumerate() {
        let table = env.table_of(&atom.predicate);
        let cols = env.columns_of(&atom.predicate)?;
        let alias = format!("n{k}");
        let mut inner = Vec::with_capacity(atom.arity());
        for (j, term) in atom.args.iter().enumerate() {
            let col = &cols[j];
            match term {
                Term::Const(c) => inner.push(format!("{alias}.{col} = {}", sql_const(c))),
                Term::Var(v) => {
                    let (fi, fj) = first_occurrence[v.as_str()];
                    let fcol = &occurrence_cols[fi][fj];
                    inner.push(format!("{alias}.{col} = t{fi}.{fcol}"));
                }
            }
        }
        let mut sub = format!("NOT EXISTS (SELECT * FROM {table} {alias}");
        if !inner.is_empty() {
            sub.push_str(" WHERE ");
            sub.push_str(&inner.join(" AND "));
        }
        sub.push(')');
        conds.push(sub);
    }

    let mut sql = format!(
        "SELECT {}{} FROM {}",
        if distinct { "DISTINCT " } else { "" },
        select.join(", "),
        from.join(", ")
    );
    if !conds.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&conds.join(" AND "));
    }
    Ok(sql)
}

/// Compile one rule into [`RuleSql`], generating delta variants for each
/// occurrence of a predicate in `clique_preds`. A rule of the result node
/// (`answers`) is read by the caller, which sorts and de-duplicates the
/// answer anyway; when its rows cannot repeat it runs without `DISTINCT`,
/// sparing the engine a hash pass over the whole answer.
fn compile_rule(
    rule: &Clause,
    env: &CodegenEnv<'_>,
    clique_preds: &BTreeSet<String>,
    answers: bool,
) -> Result<RuleSql, KmError> {
    let distinct = !(answers && rearranges_a_derived_relation(rule, env));
    let full_sql = rule_sql(rule, env, None, distinct)?;
    let mut delta_variants = Vec::new();
    for (i, atom) in rule.body.iter().enumerate() {
        if clique_preds.contains(&atom.predicate) {
            delta_variants.push(rule_to_sql(
                rule,
                env,
                Some((i, delta_table(env.ns, &atom.predicate))),
            )?);
        }
    }
    Ok(RuleSql {
        head_pred: rule.head.predicate.clone(),
        source: rule.to_string(),
        full_sql,
        delta_variants,
    })
}

/// Generate the full evaluation program from an evaluation order list.
///
/// `facts` are the ground clauses to seed (workspace facts and magic seed
/// facts); `result_pred` names the predicate whose rules are the answer.
/// No rule reads it, so it gets no table.
pub fn generate(
    order: &[EvalNode],
    facts: &[Clause],
    result_pred: &str,
    env: &CodegenEnv<'_>,
) -> Result<EvalProgram, KmError> {
    // Tables: every derived predicate appearing in the order list plus
    // every fact-seeded predicate that is not a stored base relation —
    // except the result predicate.
    let mut tables: BTreeMap<String, Vec<AttrType>> = BTreeMap::new();
    let mut want_table = |pred: &str| -> Result<(), KmError> {
        if pred == result_pred || env.base_preds.contains(pred) || tables.contains_key(pred) {
            return Ok(());
        }
        let types = env
            .types
            .get(pred)
            .ok_or_else(|| KmError::Internal(format!("no types for {pred}")))?;
        tables.insert(pred.to_string(), types.clone());
        Ok(())
    };

    let mut seeds: BTreeMap<String, Vec<Vec<Value>>> = BTreeMap::new();
    for fact in facts {
        if !fact.is_fact() {
            return Err(KmError::Internal(format!("non-ground seed: {fact}")));
        }
        want_table(&fact.head.predicate)?;
        seeds
            .entry(fact.head.predicate.clone())
            .or_default()
            .push(crate::util::fact_row(&fact.head));
    }

    let mut nodes = Vec::with_capacity(order.len());
    for node in order {
        // Every body predicate that is derived (fact-defined predicates
        // included) needs a table before its SQL can run.
        for rule in node.rules() {
            want_table(&rule.head.predicate)?;
            for atom in rule.all_body_atoms() {
                want_table(&atom.predicate)?;
            }
        }
        match node {
            EvalNode::Pred { name, rules } => {
                let compiled: Result<Vec<RuleSql>, KmError> = rules
                    .iter()
                    .filter(|r| !r.body.is_empty())
                    .map(|r| compile_rule(r, env, &BTreeSet::new(), name == result_pred))
                    .collect();
                nodes.push(ProgNode::Predicate {
                    pred: name.clone(),
                    rules: compiled?,
                });
            }
            EvalNode::Clique(clique) => {
                let clique_preds: BTreeSet<String> = clique.predicates.clone();
                let exit: Result<Vec<RuleSql>, KmError> = clique
                    .exit_rules
                    .iter()
                    .filter(|r| !r.body.is_empty())
                    .map(|r| compile_rule(r, env, &BTreeSet::new(), false))
                    .collect();
                let rec: Result<Vec<RuleSql>, KmError> = clique
                    .recursive_rules
                    .iter()
                    .map(|r| compile_rule(r, env, &clique_preds, false))
                    .collect();
                nodes.push(ProgNode::Clique {
                    preds: clique.predicates.iter().cloned().collect(),
                    exit_rules: exit?,
                    recursive_rules: rec?,
                });
            }
        }
    }

    let result_types = env
        .types
        .get(result_pred)
        .cloned()
        .ok_or_else(|| KmError::Internal(format!("no types for result {result_pred}")))?;

    Ok(EvalProgram {
        ns: env.ns.to_string(),
        tables,
        seeds: seeds.into_iter().collect(),
        nodes,
        result_pred: result_pred.to_string(),
        result_types,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hornlog::parse_clause;

    fn env_fixture() -> (TypeMap, BTreeSet<String>, BTreeMap<String, Vec<String>>) {
        let mut types = TypeMap::new();
        types.insert("parent".into(), vec![AttrType::Sym, AttrType::Sym]);
        types.insert("anc".into(), vec![AttrType::Sym, AttrType::Sym]);
        types.insert("m_anc".into(), vec![AttrType::Sym]);
        let base: BTreeSet<String> = ["parent".to_string()].into();
        let mut cols = BTreeMap::new();
        cols.insert(
            "parent".to_string(),
            vec!["par".to_string(), "child".to_string()],
        );
        (types, base, cols)
    }

    #[test]
    fn simple_rule_sql() {
        let (types, base, cols) = env_fixture();
        let env = CodegenEnv {
            types: &types,
            base_preds: &base,
            base_columns: &cols,
            ns: "",
        };
        let rule = parse_clause("anc(X, Y) :- parent(X, Y).").unwrap();
        let sql = rule_to_sql(&rule, &env, None).unwrap();
        assert_eq!(sql, "SELECT DISTINCT t0.par, t0.child FROM parent t0");
    }

    #[test]
    fn join_rule_sql_chains_variables() {
        let (types, base, cols) = env_fixture();
        let env = CodegenEnv {
            types: &types,
            base_preds: &base,
            base_columns: &cols,
            ns: "",
        };
        let rule = parse_clause("anc(X, Y) :- parent(X, Z), anc(Z, Y).").unwrap();
        let sql = rule_to_sql(&rule, &env, None).unwrap();
        assert_eq!(
            sql,
            "SELECT DISTINCT t0.par, t1.c1 FROM parent t0, d_anc t1 \
             WHERE t0.child = t1.c0"
        );
    }

    #[test]
    fn constants_become_equality_filters_and_literals() {
        let (types, base, cols) = env_fixture();
        let env = CodegenEnv {
            types: &types,
            base_preds: &base,
            base_columns: &cols,
            ns: "",
        };
        let rule = parse_clause("anc(adam, Y) :- parent(adam, Y).").unwrap();
        let sql = rule_to_sql(&rule, &env, None).unwrap();
        assert_eq!(
            sql,
            "SELECT DISTINCT 'adam', t0.child FROM parent t0 WHERE t0.par = 'adam'"
        );
    }

    #[test]
    fn repeated_variable_within_one_atom() {
        let (types, base, cols) = env_fixture();
        let env = CodegenEnv {
            types: &types,
            base_preds: &base,
            base_columns: &cols,
            ns: "",
        };
        let rule = parse_clause("anc(X, X) :- parent(X, X).").unwrap();
        let sql = rule_to_sql(&rule, &env, None).unwrap();
        assert!(sql.contains("t0.par = t0.child"));
    }

    #[test]
    fn delta_override_replaces_one_occurrence() {
        let (types, base, cols) = env_fixture();
        let env = CodegenEnv {
            types: &types,
            base_preds: &base,
            base_columns: &cols,
            ns: "",
        };
        let rule = parse_clause("anc(X, Y) :- anc(X, Z), anc(Z, Y).").unwrap();
        let v0 = rule_to_sql(&rule, &env, Some((0, delta_table("", "anc")))).unwrap();
        let v1 = rule_to_sql(&rule, &env, Some((1, delta_table("", "anc")))).unwrap();
        assert!(v0.contains("FROM delta_anc t0, d_anc t1"));
        assert!(v1.contains("FROM d_anc t0, delta_anc t1"));
    }

    #[test]
    fn unsafe_rule_rejected() {
        let (types, base, cols) = env_fixture();
        let env = CodegenEnv {
            types: &types,
            base_preds: &base,
            base_columns: &cols,
            ns: "",
        };
        let rule = parse_clause("anc(X, Y) :- parent(X, X).").unwrap();
        assert!(matches!(
            rule_to_sql(&rule, &env, None),
            Err(KmError::Semantic(_))
        ));
    }

    #[test]
    fn generate_ancestor_program() {
        use hornlog::evalgraph::evaluation_order;
        use hornlog::parser::{parse_program, parse_query};

        let mut program = parse_program(
            "anc(X, Y) :- parent(X, Y).\n\
             anc(X, Y) :- parent(X, Z), anc(Z, Y).\n",
        )
        .unwrap();
        let query = parse_query("?- anc(adam, W).").unwrap();
        program.push(query.clone());

        let (mut types, base, cols) = env_fixture();
        types.insert("_query".into(), vec![AttrType::Sym]);
        let env = CodegenEnv {
            types: &types,
            base_preds: &base,
            base_columns: &cols,
            ns: "",
        };
        let order = evaluation_order(&program).unwrap();
        let prog = generate(&order, &[], "_query", &env).unwrap();

        assert_eq!(prog.nodes.len(), 2);
        assert!(prog.nodes[0].is_clique());
        assert_eq!(prog.result_pred, "_query");
        assert_eq!(prog.result_types, vec![AttrType::Sym]);
        assert!(prog.tables.contains_key("anc"));
        assert!(
            !prog.tables.contains_key("_query"),
            "the result predicate is answered, not stored"
        );
        assert!(
            !prog.tables.contains_key("parent"),
            "base tables not recreated"
        );

        let ProgNode::Clique {
            exit_rules,
            recursive_rules,
            ..
        } = &prog.nodes[0]
        else {
            panic!("expected clique");
        };
        assert_eq!(exit_rules.len(), 1);
        assert!(exit_rules[0].delta_variants.is_empty());
        assert_eq!(recursive_rules.len(), 1);
        assert_eq!(recursive_rules[0].delta_variants.len(), 1);
        assert!(recursive_rules[0].delta_variants[0].contains("delta_anc"));
        assert!(prog.sql_count() >= 3);
    }

    /// The result node's SQL for `query` over the ancestor program.
    fn answer_sql(query: &str) -> Vec<String> {
        use hornlog::evalgraph::evaluation_order;
        use hornlog::parser::{parse_program, parse_query};

        let mut program = parse_program(
            "anc(X, Y) :- parent(X, Y).\n\
             anc(X, Y) :- parent(X, Z), anc(Z, Y).\n",
        )
        .unwrap();
        let query = parse_query(query).unwrap();
        let arity = query.head.arity();
        program.push(query);
        let (mut types, base, cols) = env_fixture();
        types.insert("_query".into(), vec![AttrType::Sym; arity]);
        let env = CodegenEnv {
            types: &types,
            base_preds: &base,
            base_columns: &cols,
            ns: "",
        };
        let order = evaluation_order(&program).unwrap();
        let prog = generate(&order, &[], "_query", &env).unwrap();
        let Some(ProgNode::Predicate { pred, rules }) = prog.nodes.last() else {
            panic!("the result node comes last");
        };
        assert_eq!(pred, "_query");
        rules.iter().map(|r| r.full_sql.clone()).collect()
    }

    #[test]
    fn answer_read_of_a_whole_derived_relation_skips_distinct() {
        // Every column of the one derived atom reaches the head under its
        // own variable: the rows are distinct already.
        assert_eq!(
            answer_sql("?- anc(X, Y)."),
            ["SELECT t0.c0, t0.c1 FROM d_anc t0"]
        );
    }

    #[test]
    fn answer_read_keeps_distinct_when_rows_could_repeat() {
        // A constant drops a column from the head.
        assert_eq!(
            answer_sql("?- anc(adam, W)."),
            ["SELECT DISTINCT t0.c1 FROM d_anc t0 WHERE t0.c0 = 'adam'"]
        );
        // A repeated variable does too.
        assert_eq!(
            answer_sql("?- anc(X, X)."),
            ["SELECT DISTINCT t0.c0 FROM d_anc t0 WHERE t0.c0 = t0.c1"]
        );
        // A base relation is a bag.
        assert_eq!(
            answer_sql("?- parent(X, Y)."),
            ["SELECT DISTINCT t0.par, t0.child FROM parent t0"]
        );
        // A join can produce the same pair twice.
        assert_eq!(
            answer_sql("?- anc(X, Z), anc(Z, Y)."),
            ["SELECT DISTINCT t0.c0, t0.c1, t1.c1 FROM d_anc t0, d_anc t1 WHERE t0.c1 = t1.c0"]
        );
    }

    #[test]
    fn only_the_result_node_drops_distinct() {
        // The same shape anywhere else keeps its SQL text: under
        // `INSERT … EXCEPT` the planner already elides the operator.
        let (mut types, base, cols) = env_fixture();
        types.insert("copy".into(), vec![AttrType::Sym, AttrType::Sym]);
        let env = CodegenEnv {
            types: &types,
            base_preds: &base,
            base_columns: &cols,
            ns: "",
        };
        let rule = parse_clause("copy(X, Y) :- anc(X, Y).").unwrap();
        assert!(rearranges_a_derived_relation(&rule, &env));
        let compiled = compile_rule(&rule, &env, &BTreeSet::new(), false).unwrap();
        assert_eq!(
            compiled.full_sql,
            "SELECT DISTINCT t0.c0, t0.c1 FROM d_anc t0"
        );
    }

    #[test]
    fn seeds_are_grouped_by_predicate() {
        let (mut types, base, cols) = env_fixture();
        types.insert("m_anc".into(), vec![AttrType::Sym]);
        let env = CodegenEnv {
            types: &types,
            base_preds: &base,
            base_columns: &cols,
            ns: "",
        };
        let seeds = vec![
            parse_clause("m_anc(adam).").unwrap(),
            parse_clause("m_anc(bob).").unwrap(),
        ];
        let prog = generate(&[], &seeds, "anc", &env).unwrap();
        assert_eq!(prog.seeds.len(), 1);
        assert_eq!(prog.seeds[0].0, "m_anc");
        assert_eq!(prog.seeds[0].1.len(), 2);
        assert!(prog.tables.contains_key("m_anc"));
    }

    #[test]
    fn namespace_prefixes_every_scratch_table() {
        let (types, base, cols) = env_fixture();
        let env = CodegenEnv {
            types: &types,
            base_preds: &base,
            base_columns: &cols,
            ns: "s7_",
        };
        let rule = parse_clause("anc(X, Y) :- parent(X, Z), anc(Z, Y).").unwrap();
        let sql = rule_to_sql(&rule, &env, None).unwrap();
        assert_eq!(
            sql,
            "SELECT DISTINCT t0.par, t1.c1 FROM parent t0, d_s7_anc t1 \
             WHERE t0.child = t1.c0"
        );
        let v = rule_to_sql(&rule, &env, Some((1, delta_table(env.ns, "anc")))).unwrap();
        assert!(v.contains("FROM parent t0, delta_s7_anc t1"));
        assert_eq!(new_table("s7_", "anc"), "new_s7_anc");
    }

    #[test]
    fn generated_program_records_its_namespace() {
        use hornlog::evalgraph::evaluation_order;
        use hornlog::parser::{parse_program, parse_query};

        let mut program = parse_program(
            "anc(X, Y) :- parent(X, Y).\n\
             anc(X, Y) :- parent(X, Z), anc(Z, Y).\n",
        )
        .unwrap();
        let query = parse_query("?- anc(adam, W).").unwrap();
        program.push(query.clone());

        let (mut types, base, cols) = env_fixture();
        types.insert("_query".into(), vec![AttrType::Sym]);
        let env = CodegenEnv {
            types: &types,
            base_preds: &base,
            base_columns: &cols,
            ns: "s3_",
        };
        let order = evaluation_order(&program).unwrap();
        let prog = generate(&order, &[], "_query", &env).unwrap();
        assert_eq!(prog.ns, "s3_");
        // Table keys stay un-namespaced predicates; only the generated
        // SQL carries the prefix.
        assert!(prog.tables.contains_key("anc"));
        let ProgNode::Clique {
            recursive_rules, ..
        } = &prog.nodes[0]
        else {
            panic!("expected clique");
        };
        assert!(recursive_rules[0].full_sql.contains("d_s3_anc"));
        assert!(recursive_rules[0].delta_variants[0].contains("delta_s3_anc"));
    }

    #[test]
    fn nullary_head_rejected() {
        let (types, base, cols) = env_fixture();
        let env = CodegenEnv {
            types: &types,
            base_preds: &base,
            base_columns: &cols,
            ns: "",
        };
        let rule = parse_clause("halt :- parent(X, Y).").unwrap();
        assert!(matches!(
            rule_to_sql(&rule, &env, None),
            Err(KmError::Semantic(_))
        ));
    }
}
