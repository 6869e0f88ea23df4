//! # dkbms-bench — experiment harness
//!
//! Shared scaffolding for regenerating every table and figure of the
//! paper's evaluation section (§5). Each experiment lives in
//! [`experiments`] and is driven by the `experiments` binary.

pub mod experiments;

use km::session::{binary_sym, Session, SessionConfig};
use km::{KmError, LfpStrategy};
use rdbms::Value;
use std::time::Duration;

pub use workload::edges_to_rows;

/// A session holding a `parent` base relation shaped as a full binary tree
/// of `depth` levels, with the ancestor rules in the workspace and an index
/// on `parent.c0` (the join column every rule uses).
pub fn tree_session(depth: u32, optimize: bool, strategy: LfpStrategy) -> Result<Session, KmError> {
    let mut s = Session::new(SessionConfig {
        optimize,
        strategy,
        ..SessionConfig::default()
    })?;
    s.define_base("parent", &binary_sym())?;
    s.db_execute("CREATE INDEX parent_c0 ON parent (c0)")?;
    s.load_facts("parent", edges_to_rows(&workload::full_binary_tree(depth)))?;
    s.load_rules(&workload::ancestor_program("parent"))?;
    Ok(s)
}

/// A session whose Stored D/KB holds a [`workload::chain_rule_base`] of
/// `chains` × `chain_len` rules over a small `base` relation.
pub fn chain_session(chains: usize, chain_len: usize) -> Result<Session, KmError> {
    chain_session_configured(chains, chain_len, SessionConfig::default())
}

/// [`chain_session`] with an explicit configuration (the update
/// experiments vary `compiled_storage`).
pub fn chain_session_configured(
    chains: usize,
    chain_len: usize,
    config: SessionConfig,
) -> Result<Session, KmError> {
    let mut s = Session::new(config)?;
    s.define_base("base", &binary_sym())?;
    s.load_facts(
        "base",
        vec![
            vec![Value::from("a"), Value::from("b")],
            vec![Value::from("b"), Value::from("c")],
        ],
    )?;
    let program = workload::chain_rule_base(chains, chain_len, "base");
    for clause in &program.clauses {
        s.workspace_mut().add_clause(clause.clone());
    }
    s.commit_workspace()?;
    s.workspace_mut().clear();
    Ok(s)
}

/// Milliseconds as a float, for compact table output.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Render an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a percentage of `whole`.
pub fn pct(part: Duration, whole: Duration) -> String {
    if whole.is_zero() {
        return "-".to_string();
    }
    format!("{:.0}%", 100.0 * part.as_secs_f64() / whole.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_session_answers_ancestor() {
        let mut s = tree_session(4, false, LfpStrategy::SemiNaive).unwrap();
        let (_, r) = s.query("?- anc(n1, W).").unwrap();
        // Root of a depth-4 tree has 14 descendants.
        assert_eq!(r.rows.len(), 14);
    }

    #[test]
    fn chain_session_stores_rules() {
        let mut s = chain_session(3, 4).unwrap();
        let compiled = s.compile(&workload::rules::chain_query(0, 0, "a")).unwrap();
        assert_eq!(compiled.relevant_rules, 4);
    }

    #[test]
    fn helpers_format() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(
            pct(Duration::from_millis(25), Duration::from_millis(100)),
            "25%"
        );
        assert_eq!(pct(Duration::ZERO, Duration::ZERO), "-");
    }
}
