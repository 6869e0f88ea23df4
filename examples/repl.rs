//! The testbed User Interface: an interactive session against the
//! D/KBMS, mirroring the workflow of §3.1 — enter rules and facts into the
//! workspace, query them, and commit the workspace to the Stored D/KB.
//!
//! ```text
//! cargo run --example repl
//! dkb> ancestor(X, Y) :- parent(X, Y).
//! dkb> ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
//! dkb> parent(adam, bob).
//! dkb> parent(bob, carol).
//! dkb> ?- ancestor(adam, W).
//! dkb> :commit
//! dkb> :help
//! ```

use km::session::{Session, SessionConfig};
use km::LfpStrategy;
use std::io::{self, BufRead, Write};

const HELP: &str = "\
Enter Horn clauses (terminated by '.') to add them to the workspace,
or a query starting with '?-'. Commands:
  :help            show this help
  :list            show workspace rules and facts
  :commit          commit workspace rules to the stored D/KB
  :clear           clear the workspace
  :magic on|off    toggle the optimizer (generalized magic sets)
  :strategy naive|seminaive   choose the LFP strategy
  :explain <query> show the compiled program for a query
  :save <path>     snapshot the stored D/KB to a file
  :open <path>     replace the session with a saved snapshot
  :prepare <name> <query>     precompile a query under a name
  :run <name>      execute a prepared query (recompiles if invalidated)
  :stats           engine statistics
  :quit            exit";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut session = Session::new(SessionConfig::default())?;
    println!("D/KBMS testbed. Type :help for commands.");
    let stdin = io::stdin();
    let mut line = String::new();
    loop {
        print!("dkb> ");
        io::stdout().flush()?;
        line.clear();
        if stdin.lock().read_line(&mut line)? == 0 {
            break;
        }
        let input = line.trim();
        if input.is_empty() {
            continue;
        }
        if let Some(cmd) = input.strip_prefix(':') {
            match handle_command(&mut session, cmd) {
                Ok(true) => break,
                Ok(false) => {}
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if input.starts_with("?-") {
            match session.query(input) {
                Ok((compiled, result)) => {
                    println!(
                        "-- {} rules relevant, compiled in {:.2?}, executed in {:.2?}",
                        compiled.relevant_rules, compiled.timings.total, result.t_execute
                    );
                    if result.rows.is_empty() {
                        println!("no");
                    }
                    for row in result.rows.iter().take(50) {
                        let cells: Vec<String> = compiled
                            .answer_vars
                            .iter()
                            .zip(row)
                            .map(|(v, val)| format!("{v} = {val}"))
                            .collect();
                        println!("{}", cells.join(", "));
                    }
                    if result.rows.len() > 50 {
                        println!("... ({} rows total)", result.rows.len());
                    }
                }
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        match session.load_rules(input) {
            Ok(()) => println!("ok"),
            Err(e) => println!("error: {e}"),
        }
    }
    Ok(())
}

/// Returns Ok(true) to quit.
fn handle_command(session: &mut Session, cmd: &str) -> Result<bool, Box<dyn std::error::Error>> {
    let mut parts = cmd.split_whitespace();
    match (parts.next().unwrap_or(""), parts.next()) {
        ("help", _) => println!("{HELP}"),
        ("quit", _) | ("exit", _) => return Ok(true),
        ("list", _) => {
            print!("{}", session.workspace().rules());
            print!("{}", session.workspace().facts());
            println!(
                "-- {} rules, {} facts in the workspace",
                session.workspace().rule_count(),
                session.workspace().fact_count()
            );
        }
        ("commit", _) => {
            let t = session.commit_workspace()?;
            println!(
                "stored {} rules ({} closure edges added) in {:.2?}",
                t.rules_stored, t.reachable_added, t.total
            );
        }
        ("clear", _) => {
            session.workspace_mut().clear();
            println!("workspace cleared");
        }
        ("explain", _) => {
            let query = cmd.trim_start_matches("explain").trim();
            if query.is_empty() {
                println!("usage: :explain ?- p(a, W).");
            } else {
                for line in session.explain(query)? {
                    println!("{line}");
                }
            }
        }
        ("magic", Some("on")) => {
            session.config.optimize = true;
            println!("magic sets: on");
        }
        ("magic", Some("off")) => {
            session.config.optimize = false;
            println!("magic sets: off");
        }
        ("strategy", Some("naive")) => {
            session.config.strategy = LfpStrategy::Naive;
            println!("strategy: naive");
        }
        ("strategy", Some("seminaive")) => {
            session.config.strategy = LfpStrategy::SemiNaive;
            println!("strategy: semi-naive");
        }
        ("prepare", Some(name)) => {
            let rest = cmd
                .trim_start_matches("prepare")
                .trim_start()
                .trim_start_matches(name)
                .trim();
            if rest.is_empty() {
                println!("usage: :prepare myq ?- p(a, W).");
            } else {
                session.prepare(name, rest)?;
                println!("prepared '{name}'");
            }
        }
        ("run", Some(name)) => {
            let was_valid = session.prepared_is_valid(name);
            let r = session.execute_prepared(name)?;
            if was_valid == Some(false) {
                println!("-- plan was invalidated by an update; recompiled");
            }
            println!("-- {} row(s) in {:.2?}", r.rows.len(), r.t_execute);
            for row in r.rows.iter().take(50) {
                let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                println!("{}", cells.join(", "));
            }
        }
        ("save", Some(_)) => {
            let path = cmd.trim_start_matches("save").trim();
            session.save(path)?;
            println!("saved to {path}");
        }
        ("open", Some(_)) => {
            let path = cmd.trim_start_matches("open").trim();
            let config = session.config;
            *session = Session::open(path, config)?;
            println!("opened {path}");
        }
        ("stats", _) => {
            let st = session.engine().stats();
            println!(
                "statements: {}  tables +{}/-{}  scans: {} tuples  \
                 index probes: {}  buffer hits/misses: {}/{}  pages r/w: {}/{}",
                st.statements,
                st.tables_created,
                st.tables_dropped,
                st.exec.tuples_scanned,
                st.exec.index_probes,
                st.buffer.hits,
                st.buffer.misses,
                st.disk.pages_read,
                st.disk.pages_written,
            );
        }
        (other, _) => println!("unknown command :{other} (try :help)"),
    }
    Ok(false)
}
