//! The Stored D/KB manager.
//!
//! The intensional database lives inside the DBMS as four relations
//! (§4.1 of the paper):
//!
//! * `idb_relname(predname, arity)` and `idb_column(predname, colno,
//!   coltype)` — the intensional data dictionary (column types of derived
//!   predicates);
//! * `rulesource(headpredname, ruletext)` — the source form of every rule,
//!   keyed by head predicate;
//! * `reachablepreds(frompredname, topredname)` — the transitive closure of
//!   the rule base's PCG: the *compiled form* that makes relevant-rule
//!   extraction independent of the total number of stored rules.
//!
//! The extensional dictionary (`edb_relname`, `edb_column`) describes base
//! relations, which are stored as ordinary tables.
//!
//! All access goes through SQL, exactly as in the testbed. `rulesource` and
//! `reachablepreds` are indexed on their lookup columns; the experiments of
//! Figures 7–10 measure the effect.

use crate::backend::Storage;
use crate::util::{attr_to_coltype, sql_in_list, sql_quote};
use hornlog::parser::parse_clause;
use hornlog::pcg::Pcg;
use hornlog::types::{AttrType, TypeMap};
use hornlog::{Clause, Program};
use rdbms::{ColType, DbError, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Errors raised by the Knowledge Manager.
#[derive(Debug)]
pub enum KmError {
    Db(DbError),
    Parse(hornlog::ParseError),
    Type(hornlog::types::TypeError),
    Semantic(String),
    Internal(String),
    /// The stored D/KB's structures contradict each other (see
    /// [`StoredDkb::verify_integrity`]).
    Integrity(String),
    /// An evaluation budget tripped (deadline, cancellation, iteration or
    /// derived-fact cap): the run was abandoned cooperatively with partial
    /// progress attached (see [`crate::runtime::EvalError`]). Boxed: the
    /// partial traces make it much larger than the other variants.
    Eval(Box<crate::runtime::EvalError>),
}

impl std::fmt::Display for KmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KmError::Db(e) => write!(f, "database error: {e}"),
            KmError::Parse(e) => write!(f, "rule parse error: {e}"),
            KmError::Type(e) => write!(f, "type error: {e}"),
            KmError::Semantic(m) => write!(f, "semantic error: {m}"),
            KmError::Internal(m) => write!(f, "internal error: {m}"),
            KmError::Integrity(m) => write!(f, "integrity violation: {m}"),
            KmError::Eval(e) => write!(f, "evaluation aborted: {e}"),
        }
    }
}

impl std::error::Error for KmError {}

impl From<DbError> for KmError {
    fn from(e: DbError) -> Self {
        KmError::Db(e)
    }
}

impl From<hornlog::ParseError> for KmError {
    fn from(e: hornlog::ParseError) -> Self {
        KmError::Parse(e)
    }
}

impl From<hornlog::types::TypeError> for KmError {
    fn from(e: hornlog::types::TypeError) -> Self {
        KmError::Type(e)
    }
}

/// Handle on the intensional/extensional storage structures. Carries only
/// configuration; the relations live in the [`rdbms::Engine`] passed to each call.
#[derive(Debug, Clone)]
pub struct StoredDkb {
    /// Whether the compiled form (`reachablepreds`) is maintained. Turning
    /// this off reproduces the paper's "without compiled rule storage"
    /// configuration (Figure 15): updates get cheap, extraction gets slow.
    pub compiled_storage: bool,
}

impl Default for StoredDkb {
    fn default() -> Self {
        StoredDkb {
            compiled_storage: true,
        }
    }
}

impl StoredDkb {
    pub fn new(compiled_storage: bool) -> StoredDkb {
        StoredDkb { compiled_storage }
    }

    /// Create the storage structures and their indexes.
    pub fn init(&self, db: &mut impl Storage) -> Result<(), KmError> {
        db.execute_script(
            "CREATE TABLE idb_relname (predname char, arity integer);\
             CREATE TABLE idb_column (predname char, colno integer, coltype char);\
             CREATE TABLE edb_relname (relname char, arity integer);\
             CREATE TABLE edb_column (relname char, colno integer, coltype char);\
             CREATE TABLE rulesource (headpredname char, ruletext char);\
             CREATE INDEX idb_relname_pred ON idb_relname (predname);\
             CREATE INDEX idb_column_pred ON idb_column (predname);\
             CREATE INDEX edb_relname_rel ON edb_relname (relname);\
             CREATE INDEX edb_column_rel ON edb_column (relname);\
             CREATE INDEX rulesource_head ON rulesource (headpredname);",
        )?;
        if self.compiled_storage {
            db.execute_script(
                "CREATE TABLE reachablepreds (frompredname char, topredname char);\
                 CREATE INDEX reachablepreds_from ON reachablepreds (frompredname);",
            )?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Extensional database
    // ------------------------------------------------------------------

    /// Create a base relation with columns `c0..cn` of the given types and
    /// register it in the extensional dictionary.
    pub fn create_base_relation(
        &self,
        db: &mut impl Storage,
        name: &str,
        types: &[AttrType],
    ) -> Result<(), KmError> {
        let cols: Vec<String> = types
            .iter()
            .enumerate()
            .map(|(i, t)| format!("c{i} {}", attr_to_coltype(*t)))
            .collect();
        db.execute(&format!("CREATE TABLE {name} ({})", cols.join(", ")))?;
        db.execute(&format!(
            "INSERT INTO edb_relname VALUES ({}, {})",
            sql_quote(name),
            types.len()
        ))?;
        for (i, t) in types.iter().enumerate() {
            db.execute(&format!(
                "INSERT INTO edb_column VALUES ({}, {}, {})",
                sql_quote(name),
                i,
                sql_quote(&attr_to_coltype(*t).to_string())
            ))?;
        }
        Ok(())
    }

    /// Bulk-load facts (tuples) into a base relation.
    pub fn load_facts(
        &self,
        db: &mut impl Storage,
        name: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<u64, KmError> {
        Ok(db.insert_rows(name, rows)?)
    }

    /// Base relations known to the extensional dictionary.
    pub fn base_relations(&self, db: &mut impl Storage) -> Result<BTreeSet<String>, KmError> {
        let rs = db.execute("SELECT relname FROM edb_relname")?;
        Ok(rs
            .rows
            .into_iter()
            .map(|r| r[0].as_str().expect("relname is char").to_string())
            .collect())
    }

    /// Read the extensional dictionary for the given relations.
    pub fn read_edb_dictionary(
        &self,
        db: &mut impl Storage,
        rels: &BTreeSet<String>,
    ) -> Result<TypeMap, KmError> {
        if rels.is_empty() {
            return Ok(TypeMap::new());
        }
        let sql = format!(
            "SELECT v.relname, c.colno, c.coltype FROM edb_relname v, edb_column c \
             WHERE v.relname = c.relname AND v.relname IN ({})",
            sql_in_list(rels.iter().map(String::as_str))
        );
        let rs = db.execute(&sql)?;
        Ok(assemble_dictionary(rs.rows))
    }

    // ------------------------------------------------------------------
    // Intensional database
    // ------------------------------------------------------------------

    /// Register a derived predicate's inferred types in the intensional
    /// dictionary, if not already present.
    pub fn register_derived(
        &self,
        db: &mut impl Storage,
        pred: &str,
        types: &[AttrType],
    ) -> Result<bool, KmError> {
        let rs = db.execute(&format!(
            "SELECT COUNT(*) FROM idb_relname WHERE predname = {}",
            sql_quote(pred)
        ))?;
        if rs.scalar_int() != Some(0) {
            return Ok(false);
        }
        db.execute(&format!(
            "INSERT INTO idb_relname VALUES ({}, {})",
            sql_quote(pred),
            types.len()
        ))?;
        for (i, t) in types.iter().enumerate() {
            db.execute(&format!(
                "INSERT INTO idb_column VALUES ({}, {}, {})",
                sql_quote(pred),
                i,
                sql_quote(&attr_to_coltype(*t).to_string())
            ))?;
        }
        Ok(true)
    }

    /// Register many derived predicates at once: one indexed read to find
    /// the already-registered ones, then chunked bulk inserts for the rest.
    /// Returns how many were new.
    pub fn register_derived_bulk(
        &self,
        db: &mut impl Storage,
        entries: &[(String, Vec<AttrType>)],
    ) -> Result<u64, KmError> {
        if entries.is_empty() {
            return Ok(0);
        }
        let rs = db.execute(&format!(
            "SELECT predname FROM idb_relname WHERE predname IN ({})",
            sql_in_list(entries.iter().map(|(p, _)| p.as_str()))
        ))?;
        let existing: BTreeSet<String> = rs
            .rows
            .into_iter()
            .map(|r| r[0].as_str().expect("predname is char").to_string())
            .collect();
        let fresh: Vec<&(String, Vec<AttrType>)> = entries
            .iter()
            .filter(|(p, _)| !existing.contains(p))
            .collect();
        if fresh.is_empty() {
            return Ok(0);
        }
        for chunk in fresh.chunks(128) {
            let names: Vec<String> = chunk
                .iter()
                .map(|(p, t)| format!("({}, {})", sql_quote(p), t.len()))
                .collect();
            db.execute(&format!(
                "INSERT INTO idb_relname VALUES {}",
                names.join(", ")
            ))?;
            let cols: Vec<String> = chunk
                .iter()
                .flat_map(|(p, types)| {
                    types.iter().enumerate().map(move |(i, t)| {
                        format!(
                            "({}, {}, {})",
                            sql_quote(p),
                            i,
                            sql_quote(&attr_to_coltype(*t).to_string())
                        )
                    })
                })
                .collect();
            for col_chunk in cols.chunks(128) {
                db.execute(&format!(
                    "INSERT INTO idb_column VALUES {}",
                    col_chunk.join(", ")
                ))?;
            }
        }
        Ok(fresh.len() as u64)
    }

    /// The stored source texts of rules whose head is among `heads` — used
    /// to deduplicate bulk rule stores with one indexed read.
    pub fn stored_rule_texts(
        &self,
        db: &mut impl Storage,
        heads: &BTreeSet<String>,
    ) -> Result<BTreeSet<String>, KmError> {
        if heads.is_empty() {
            return Ok(BTreeSet::new());
        }
        let rs = db.execute(&format!(
            "SELECT ruletext FROM rulesource WHERE headpredname IN ({})",
            sql_in_list(heads.iter().map(String::as_str))
        ))?;
        Ok(rs
            .rows
            .into_iter()
            .map(|r| r[0].as_str().expect("ruletext is char").to_string())
            .collect())
    }

    /// Read the intensional dictionary for the given predicates — the
    /// `t_read` operation of Test 2 (Figures 9 and 10).
    pub fn read_idb_dictionary(
        &self,
        db: &mut impl Storage,
        preds: &BTreeSet<String>,
    ) -> Result<TypeMap, KmError> {
        if preds.is_empty() {
            return Ok(TypeMap::new());
        }
        let sql = format!(
            "SELECT v.predname, c.colno, c.coltype FROM idb_relname v, idb_column c \
             WHERE v.predname = c.predname AND v.predname IN ({})",
            sql_in_list(preds.iter().map(String::as_str))
        );
        let rs = db.execute(&sql)?;
        Ok(assemble_dictionary(rs.rows))
    }

    /// Store one rule's source form.
    pub fn store_rule_source(&self, db: &mut impl Storage, rule: &Clause) -> Result<(), KmError> {
        db.execute(&format!(
            "INSERT INTO rulesource VALUES ({}, {})",
            sql_quote(&rule.head.predicate),
            sql_quote(&rule.to_string())
        ))?;
        Ok(())
    }

    /// Whether the exact rule text is already stored under its head.
    pub fn has_rule(&self, db: &mut impl Storage, rule: &Clause) -> Result<bool, KmError> {
        let rs = db.execute(&format!(
            "SELECT COUNT(*) FROM rulesource WHERE headpredname = {} AND ruletext = {}",
            sql_quote(&rule.head.predicate),
            sql_quote(&rule.to_string())
        ))?;
        Ok(rs.scalar_int() != Some(0))
    }

    /// Insert `(from, to)` pairs into `reachablepreds`, skipping pairs
    /// already present. One indexed read of the affected `from` rows plus
    /// one bulk insert, rather than a statement per pair. No-op when
    /// compiled storage is off.
    pub fn insert_reachable(
        &self,
        db: &mut impl Storage,
        pairs: &[(String, String)],
    ) -> Result<u64, KmError> {
        if !self.compiled_storage || pairs.is_empty() {
            return Ok(0);
        }
        let froms: BTreeSet<&str> = pairs.iter().map(|(f, _)| f.as_str()).collect();
        let rs = db.execute(&format!(
            "SELECT frompredname, topredname FROM reachablepreds WHERE frompredname IN ({})",
            sql_in_list(froms.into_iter())
        ))?;
        let existing: BTreeSet<(String, String)> = rs
            .rows
            .into_iter()
            .map(|r| {
                (
                    r[0].as_str().expect("frompredname is char").to_string(),
                    r[1].as_str().expect("topredname is char").to_string(),
                )
            })
            .collect();
        let fresh: BTreeSet<&(String, String)> =
            pairs.iter().filter(|p| !existing.contains(*p)).collect();
        let mut added = 0;
        // Chunked multi-row inserts keep statements bounded.
        let fresh: Vec<_> = fresh.into_iter().collect();
        for chunk in fresh.chunks(128) {
            let values: Vec<String> = chunk
                .iter()
                .map(|(f, t)| format!("({}, {})", sql_quote(f), sql_quote(t)))
                .collect();
            let rs = db.execute(&format!(
                "INSERT INTO reachablepreds VALUES {}",
                values.join(", ")
            ))?;
            added += rs.affected;
        }
        Ok(added)
    }

    /// Predicates reachable (per the compiled form) from any of `preds`.
    pub fn reachable_from(
        &self,
        db: &mut impl Storage,
        preds: &BTreeSet<String>,
    ) -> Result<BTreeSet<String>, KmError> {
        if !self.compiled_storage {
            return Err(KmError::Internal(
                "reachable_from requires compiled storage".to_string(),
            ));
        }
        if preds.is_empty() {
            return Ok(BTreeSet::new());
        }
        let sql = format!(
            "SELECT topredname FROM reachablepreds WHERE frompredname IN ({})",
            sql_in_list(preds.iter().map(String::as_str))
        );
        let rs = db.execute(&sql)?;
        Ok(rs
            .rows
            .into_iter()
            .map(|r| r[0].as_str().expect("topredname is char").to_string())
            .collect())
    }

    /// Predicates recorded as reaching any of `preds`, as `(from, to)`
    /// pairs with `to` in `preds` — the reverse lookup over the compiled
    /// form (a scan: the index covers the forward direction only). The
    /// incremental closure update uses this to extend the rows of
    /// predicates that already reached an updated rule head.
    pub fn reaching_to(
        &self,
        db: &mut impl Storage,
        preds: &BTreeSet<String>,
    ) -> Result<Vec<(String, String)>, KmError> {
        if !self.compiled_storage || preds.is_empty() {
            return Ok(Vec::new());
        }
        let rs = db.execute(&format!(
            "SELECT frompredname, topredname FROM reachablepreds WHERE topredname IN ({})",
            sql_in_list(preds.iter().map(String::as_str))
        ))?;
        Ok(rs
            .rows
            .into_iter()
            .map(|r| {
                (
                    r[0].as_str().expect("frompredname is char").to_string(),
                    r[1].as_str().expect("topredname is char").to_string(),
                )
            })
            .collect())
    }

    /// Extract from the Stored D/KB all rules needed to solve predicates
    /// `preds`: rules whose head is in `preds` or reachable from `preds`
    /// — the paper's §4.1 extraction query. Falls back to iterative
    /// frontier expansion when compiled storage is off.
    pub fn extract_relevant_rules(
        &self,
        db: &mut impl Storage,
        preds: &BTreeSet<String>,
    ) -> Result<Program, KmError> {
        if preds.is_empty() {
            return Ok(Program::default());
        }
        if self.compiled_storage {
            let list = sql_in_list(preds.iter().map(String::as_str));
            let sql = format!(
                "SELECT r.ruletext FROM rulesource r, reachablepreds t \
                 WHERE t.topredname = r.headpredname AND t.frompredname IN ({list}) \
                 UNION \
                 SELECT r.ruletext FROM rulesource r WHERE r.headpredname IN ({list})"
            );
            let rs = db.execute(&sql)?;
            parse_rule_rows(rs.rows)
        } else {
            // Source-only storage: expand the frontier one head at a time,
            // re-querying rulesource (this is the expensive regime the
            // paper warns about).
            let mut program = Program::default();
            let mut seen_rules: BTreeSet<String> = BTreeSet::new();
            let mut visited: BTreeSet<String> = BTreeSet::new();
            let mut frontier: Vec<String> = preds.iter().cloned().collect();
            while let Some(pred) = frontier.pop() {
                if !visited.insert(pred.clone()) {
                    continue;
                }
                let rs = db.execute(&format!(
                    "SELECT ruletext FROM rulesource WHERE headpredname = {}",
                    sql_quote(&pred)
                ))?;
                for row in rs.rows {
                    let text = row[0].as_str().expect("ruletext is char");
                    if !seen_rules.insert(text.to_string()) {
                        continue;
                    }
                    let clause = parse_clause(text)?;
                    for atom in &clause.body {
                        if !visited.contains(&atom.predicate) {
                            frontier.push(atom.predicate.clone());
                        }
                    }
                    program.push(clause);
                }
            }
            Ok(program)
        }
    }

    /// Total number of stored rules (the paper's `R_s`).
    pub fn rule_count(&self, db: &mut impl Storage) -> Result<u64, KmError> {
        let rs = db.execute("SELECT COUNT(*) FROM rulesource")?;
        Ok(rs.scalar_int().unwrap_or(0) as u64)
    }

    /// Number of derived predicates in the dictionary (the paper's `P_s`).
    pub fn derived_count(&self, db: &mut impl Storage) -> Result<u64, KmError> {
        let rs = db.execute("SELECT COUNT(*) FROM idb_relname")?;
        Ok(rs.scalar_int().unwrap_or(0) as u64)
    }

    /// Number of edges in the stored transitive closure.
    pub fn reachable_count(&self, db: &mut impl Storage) -> Result<u64, KmError> {
        if !self.compiled_storage {
            return Ok(0);
        }
        let rs = db.execute("SELECT COUNT(*) FROM reachablepreds")?;
        Ok(rs.scalar_int().unwrap_or(0) as u64)
    }

    // ------------------------------------------------------------------
    // Integrity checking
    // ------------------------------------------------------------------

    /// Cross-check every Stored D/KB structure against the others:
    ///
    /// * each `idb_relname`/`edb_relname` entry has exactly `arity` column
    ///   rows, numbered `0..arity` with valid types, and no column row is
    ///   orphaned or duplicated;
    /// * every extensional dictionary entry names an existing table whose
    ///   schema has the declared arity;
    /// * every `rulesource` row parses and is filed under its actual head
    ///   predicate, which is registered in the intensional dictionary;
    /// * `reachablepreds` (when maintained) is exactly the transitive
    ///   closure of the stored rule base's predicate connection graph,
    ///   rooted at the stored rule heads.
    ///
    /// Returns [`KmError::Integrity`] naming the first violation. The
    /// crash-recovery tests run this after every injected crash point.
    pub fn verify_integrity(&self, db: &mut impl Storage) -> Result<(), KmError> {
        self.check_dictionary(db, "idb_relname", "idb_column", "predname")?;
        self.check_dictionary(db, "edb_relname", "edb_column", "relname")?;

        // Extensional entries describe real tables of the declared arity.
        let rs = db.execute("SELECT relname, arity FROM edb_relname")?;
        for row in rs.rows {
            let name = str_cell("edb_relname.relname", &row[0])?;
            let arity = int_cell("edb_relname.arity", &row[1])?;
            if !db.has_table(name) {
                return violation(format!(
                    "edb_relname lists {name}, but no such table exists"
                ));
            }
            let cols = db.table_schema(name)?.columns().len();
            if cols as i64 != arity {
                return violation(format!(
                    "edb_relname declares {name} with arity {arity}, \
                     but the table has {cols} column(s)"
                ));
            }
        }

        // Rule source: parseable, filed under its head, head registered.
        let rs = db.execute("SELECT predname FROM idb_relname")?;
        let mut registered: BTreeSet<String> = BTreeSet::new();
        for row in rs.rows {
            registered.insert(str_cell("idb_relname.predname", &row[0])?.to_string());
        }
        let rs = db.execute("SELECT headpredname, ruletext FROM rulesource")?;
        let mut rules = Program::default();
        for row in rs.rows {
            let head = str_cell("rulesource.headpredname", &row[0])?;
            let text = str_cell("rulesource.ruletext", &row[1])?;
            let clause = parse_clause(text).map_err(|e| {
                KmError::Integrity(format!("stored rule {text:?} does not parse: {e}"))
            })?;
            if clause.head.predicate != head {
                return violation(format!(
                    "rule {text:?} is filed under head {head}, \
                     but its head predicate is {}",
                    clause.head.predicate
                ));
            }
            if !registered.contains(head) {
                return violation(format!("rule head {head} is not registered in idb_relname"));
            }
            rules.push(clause);
        }

        // Compiled form: exactly the recomputed closure of the rule base.
        if self.compiled_storage {
            let heads: BTreeSet<&str> = rules
                .clauses
                .iter()
                .map(|c| c.head.predicate.as_str())
                .collect();
            let expected: BTreeSet<(String, String)> = Pcg::build(&rules)
                .transitive_closure()
                .into_iter()
                .filter(|(from, _)| heads.contains(from.as_str()))
                .collect();
            let rs = db.execute("SELECT frompredname, topredname FROM reachablepreds")?;
            let mut actual: BTreeSet<(String, String)> = BTreeSet::new();
            for row in rs.rows {
                actual.insert((
                    str_cell("reachablepreds.frompredname", &row[0])?.to_string(),
                    str_cell("reachablepreds.topredname", &row[1])?.to_string(),
                ));
            }
            if actual != expected {
                let missing: Vec<_> = expected.difference(&actual).take(3).collect();
                let extra: Vec<_> = actual.difference(&expected).take(3).collect();
                return violation(format!(
                    "reachablepreds disagrees with the recomputed closure \
                     (missing {missing:?}, extra {extra:?})"
                ));
            }
        }
        Ok(())
    }

    /// Check one relname/column dictionary pair for cross-consistency.
    fn check_dictionary(
        &self,
        db: &mut impl Storage,
        rel_table: &str,
        col_table: &str,
        key: &str,
    ) -> Result<(), KmError> {
        let rs = db.execute(&format!("SELECT {key}, arity FROM {rel_table}"))?;
        let mut arities: BTreeMap<String, i64> = BTreeMap::new();
        for row in rs.rows {
            let name = str_cell(key, &row[0])?.to_string();
            let arity = int_cell("arity", &row[1])?;
            if arity < 0 {
                return violation(format!("{rel_table} declares {name} with arity {arity}"));
            }
            if arities.insert(name.clone(), arity).is_some() {
                return violation(format!("{rel_table} has duplicate entries for {name}"));
            }
        }
        let valid_types = [ColType::Int.to_string(), ColType::Str.to_string()];
        let rs = db.execute(&format!("SELECT {key}, colno, coltype FROM {col_table}"))?;
        let mut cols: BTreeMap<String, BTreeSet<i64>> = BTreeMap::new();
        for row in rs.rows {
            let name = str_cell(key, &row[0])?;
            let colno = int_cell("colno", &row[1])?;
            let coltype = str_cell("coltype", &row[2])?;
            let Some(&arity) = arities.get(name) else {
                return violation(format!(
                    "{col_table} has a row for {name}, which {rel_table} does not list"
                ));
            };
            if colno < 0 || colno >= arity {
                return violation(format!(
                    "{col_table} column {colno} of {name} is outside arity {arity}"
                ));
            }
            if !valid_types.iter().any(|t| t == coltype) {
                return violation(format!(
                    "{col_table} column {colno} of {name} has unknown type {coltype:?}"
                ));
            }
            if !cols.entry(name.to_string()).or_default().insert(colno) {
                return violation(format!("{col_table} lists column {colno} of {name} twice"));
            }
        }
        for (name, arity) in arities {
            let have = cols.get(&name).map_or(0, BTreeSet::len);
            if have as i64 != arity {
                return violation(format!(
                    "{rel_table} declares {name} with arity {arity}, \
                     but {col_table} has {have} column row(s)"
                ));
            }
        }
        Ok(())
    }
}

fn violation(msg: String) -> Result<(), KmError> {
    Err(KmError::Integrity(msg))
}

fn str_cell<'a>(what: &str, v: &'a Value) -> Result<&'a str, KmError> {
    v.as_str()
        .ok_or_else(|| KmError::Integrity(format!("{what} holds a non-string value {v:?}")))
}

fn int_cell(what: &str, v: &Value) -> Result<i64, KmError> {
    v.as_int()
        .ok_or_else(|| KmError::Integrity(format!("{what} holds a non-integer value {v:?}")))
}

/// Group dictionary rows `(name, colno, coltype)` into a [`TypeMap`].
fn assemble_dictionary(rows: Vec<Vec<Value>>) -> TypeMap {
    let mut grouped: std::collections::BTreeMap<String, Vec<(i64, AttrType)>> =
        std::collections::BTreeMap::new();
    for row in rows {
        let name = row[0].as_str().expect("name is char").to_string();
        let colno = row[1].as_int().expect("colno is integer");
        let ty = match row[2].as_str().expect("coltype is char") {
            "integer" => AttrType::Int,
            _ => AttrType::Sym,
        };
        grouped.entry(name).or_default().push((colno, ty));
    }
    grouped
        .into_iter()
        .map(|(name, mut cols)| {
            cols.sort_by_key(|(n, _)| *n);
            (name, cols.into_iter().map(|(_, t)| t).collect())
        })
        .collect()
}

fn parse_rule_rows(rows: Vec<Vec<Value>>) -> Result<Program, KmError> {
    let mut program = Program::default();
    for row in rows {
        let text = row[0].as_str().expect("ruletext is char");
        program.push(parse_clause(text)?);
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hornlog::parse_clause;
    use rdbms::Engine;

    fn setup(compiled: bool) -> (Engine, StoredDkb) {
        let mut db = Engine::new();
        let stored = StoredDkb::new(compiled);
        stored.init(&mut db).unwrap();
        (db, stored)
    }

    fn preds(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn init_creates_storage_structures() {
        let (db, _) = setup(true);
        for t in [
            "idb_relname",
            "idb_column",
            "edb_relname",
            "edb_column",
            "rulesource",
            "reachablepreds",
        ] {
            assert!(db.has_table(t), "{t} exists");
        }
        let (db, _) = setup(false);
        assert!(!db.has_table("reachablepreds"));
    }

    #[test]
    fn base_relation_roundtrip() {
        let (mut db, stored) = setup(true);
        stored
            .create_base_relation(&mut db, "parent", &[AttrType::Sym, AttrType::Sym])
            .unwrap();
        stored
            .load_facts(
                &mut db,
                "parent",
                vec![vec![Value::from("adam"), Value::from("bob")]],
            )
            .unwrap();
        assert_eq!(db.table_len("parent").unwrap(), 1);
        assert_eq!(stored.base_relations(&mut db).unwrap(), preds(&["parent"]));
        let dict = stored
            .read_edb_dictionary(&mut db, &preds(&["parent"]))
            .unwrap();
        assert_eq!(dict["parent"], vec![AttrType::Sym, AttrType::Sym]);
    }

    #[test]
    fn idb_dictionary_roundtrip() {
        let (mut db, stored) = setup(true);
        assert!(stored
            .register_derived(&mut db, "anc", &[AttrType::Sym, AttrType::Sym])
            .unwrap());
        // Second registration is a no-op.
        assert!(!stored
            .register_derived(&mut db, "anc", &[AttrType::Sym, AttrType::Sym])
            .unwrap());
        let dict = stored
            .read_idb_dictionary(&mut db, &preds(&["anc"]))
            .unwrap();
        assert_eq!(dict["anc"], vec![AttrType::Sym, AttrType::Sym]);
        assert_eq!(stored.derived_count(&mut db).unwrap(), 1);
    }

    #[test]
    fn dictionary_column_order_is_by_colno() {
        let (mut db, stored) = setup(true);
        stored
            .register_derived(
                &mut db,
                "mix",
                &[AttrType::Int, AttrType::Sym, AttrType::Int],
            )
            .unwrap();
        let dict = stored
            .read_idb_dictionary(&mut db, &preds(&["mix"]))
            .unwrap();
        assert_eq!(
            dict["mix"],
            vec![AttrType::Int, AttrType::Sym, AttrType::Int]
        );
    }

    #[test]
    fn rule_source_storage_and_lookup() {
        let (mut db, stored) = setup(true);
        let rule = parse_clause("anc(X, Y) :- parent(X, Y).").unwrap();
        assert!(!stored.has_rule(&mut db, &rule).unwrap());
        stored.store_rule_source(&mut db, &rule).unwrap();
        assert!(stored.has_rule(&mut db, &rule).unwrap());
        assert_eq!(stored.rule_count(&mut db).unwrap(), 1);
    }

    #[test]
    fn extraction_with_compiled_storage() {
        let (mut db, stored) = setup(true);
        for text in [
            "a(X) :- b(X).",
            "b(X) :- c(X).",
            "c(X) :- base(X).",
            "unrelated(X) :- other(X).",
        ] {
            stored
                .store_rule_source(&mut db, &parse_clause(text).unwrap())
                .unwrap();
        }
        stored
            .insert_reachable(
                &mut db,
                &[
                    ("a".into(), "b".into()),
                    ("a".into(), "c".into()),
                    ("a".into(), "base".into()),
                    ("b".into(), "c".into()),
                    ("b".into(), "base".into()),
                    ("c".into(), "base".into()),
                    ("unrelated".into(), "other".into()),
                ],
            )
            .unwrap();
        let program = stored
            .extract_relevant_rules(&mut db, &preds(&["a"]))
            .unwrap();
        assert_eq!(program.len(), 3, "unrelated rule not extracted");
        let heads: BTreeSet<&str> = program
            .clauses
            .iter()
            .map(|c| c.head.predicate.as_str())
            .collect();
        assert_eq!(heads, ["a", "b", "c"].into_iter().collect());
    }

    #[test]
    fn extraction_without_compiled_storage_expands_frontier() {
        let (mut db, stored) = setup(false);
        for text in [
            "a(X) :- b(X).",
            "b(X) :- c(X).",
            "unrelated(X) :- other(X).",
        ] {
            stored
                .store_rule_source(&mut db, &parse_clause(text).unwrap())
                .unwrap();
        }
        let program = stored
            .extract_relevant_rules(&mut db, &preds(&["a"]))
            .unwrap();
        assert_eq!(program.len(), 2);
    }

    #[test]
    fn reachable_from_uses_compiled_form() {
        let (mut db, stored) = setup(true);
        stored
            .insert_reachable(
                &mut db,
                &[("a".into(), "b".into()), ("a".into(), "c".into())],
            )
            .unwrap();
        // Duplicate insert is skipped.
        let added = stored
            .insert_reachable(&mut db, &[("a".into(), "b".into())])
            .unwrap();
        assert_eq!(added, 0);
        assert_eq!(stored.reachable_count(&mut db).unwrap(), 2);
        assert_eq!(
            stored.reachable_from(&mut db, &preds(&["a"])).unwrap(),
            preds(&["b", "c"])
        );
    }

    #[test]
    fn rules_with_quotes_in_constants_roundtrip() {
        let (mut db, stored) = setup(true);
        let rule = parse_clause("label(X, \"it's\") :- item(X).").unwrap();
        stored.store_rule_source(&mut db, &rule).unwrap();
        let program = stored
            .extract_relevant_rules(&mut db, &preds(&["label"]))
            .unwrap();
        assert_eq!(program.clauses[0], rule);
    }

    #[test]
    fn integrity_passes_on_healthy_store() {
        let (mut db, stored) = setup(true);
        stored
            .create_base_relation(&mut db, "parent", &[AttrType::Sym, AttrType::Sym])
            .unwrap();
        stored
            .register_derived(&mut db, "anc", &[AttrType::Sym, AttrType::Sym])
            .unwrap();
        stored
            .store_rule_source(
                &mut db,
                &parse_clause("anc(X, Y) :- parent(X, Y).").unwrap(),
            )
            .unwrap();
        stored
            .insert_reachable(&mut db, &[("anc".into(), "parent".into())])
            .unwrap();
        stored.verify_integrity(&mut db).unwrap();
    }

    #[test]
    fn integrity_catches_orphaned_column_row() {
        let (mut db, stored) = setup(true);
        db.execute("INSERT INTO idb_column VALUES ('ghost', 0, 'char')")
            .unwrap();
        assert!(matches!(
            stored.verify_integrity(&mut db),
            Err(KmError::Integrity(_))
        ));
    }

    #[test]
    fn integrity_catches_missing_column_rows() {
        let (mut db, stored) = setup(true);
        db.execute("INSERT INTO idb_relname VALUES ('half', 2)")
            .unwrap();
        db.execute("INSERT INTO idb_column VALUES ('half', 0, 'char')")
            .unwrap();
        assert!(matches!(
            stored.verify_integrity(&mut db),
            Err(KmError::Integrity(_))
        ));
    }

    #[test]
    fn integrity_catches_stray_reachability_edge() {
        let (mut db, stored) = setup(true);
        db.execute("INSERT INTO reachablepreds VALUES ('ghost', 'x')")
            .unwrap();
        assert!(matches!(
            stored.verify_integrity(&mut db),
            Err(KmError::Integrity(_))
        ));
    }

    #[test]
    fn integrity_catches_unregistered_rule_head() {
        let (mut db, stored) = setup(true);
        stored
            .create_base_relation(&mut db, "parent", &[AttrType::Sym, AttrType::Sym])
            .unwrap();
        // Rule stored without registering its head in idb_relname.
        stored
            .store_rule_source(
                &mut db,
                &parse_clause("anc(X, Y) :- parent(X, Y).").unwrap(),
            )
            .unwrap();
        stored
            .insert_reachable(&mut db, &[("anc".into(), "parent".into())])
            .unwrap();
        assert!(matches!(
            stored.verify_integrity(&mut db),
            Err(KmError::Integrity(_))
        ));
    }

    #[test]
    fn empty_extraction_is_empty() {
        let (mut db, stored) = setup(true);
        let program = stored
            .extract_relevant_rules(&mut db, &BTreeSet::new())
            .unwrap();
        assert!(program.is_empty());
    }
}
