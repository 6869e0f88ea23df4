//! The testbed session: the control flow of §3.4 and the D/KB query
//! processing algorithm of §4.2, with the per-phase timings the paper's
//! compilation experiments report (`t_setup`, `t_extract`, `t_read`,
//! `t_eol`, `t_gen`).

use crate::backend::{with_txn, ExecBackend, Storage};
use crate::codegen::{generate, CodegenEnv, EvalProgram};
use crate::magic::magic_rewrite;
use crate::runtime::{run_program_governed, EvalLimits, EvalOutcome, LfpStrategy};
use crate::semantics;
use crate::stored::{KmError, StoredDkb};
use crate::update::{update_stored, UpdateTimings};
use crate::workspace::Workspace;
use hornlog::evalgraph::evaluation_order;
use hornlog::pcg::Pcg;
use hornlog::types::AttrType;
use hornlog::{parse_query, Atom, Clause, Program, Term, QUERY_PREDICATE};
use rdbms::{DbError, Engine, ResultSet, SharedEngine, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Session configuration: the testbed's architectural switches.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Apply the generalized magic-sets rewrite during compilation.
    pub optimize: bool,
    /// LFP evaluation strategy for cliques.
    pub strategy: LfpStrategy,
    /// Maintain the compiled rule storage form (`reachablepreds`).
    pub compiled_storage: bool,
    /// Run every [`Session::commit_workspace`] as one write-ahead-logged
    /// engine transaction, so a crash mid-update leaves the Stored D/KB
    /// either fully pre- or fully post-update. Off by default: without it
    /// the engine's I/O path is byte-for-byte the original one.
    pub durability: bool,
    /// Wall-clock budget per evaluation. Armed on the engine too, so
    /// long-running individual statements observe the same clock. A breach
    /// surfaces as [`KmError::Eval`] with partial traces attached; the
    /// session stays serviceable.
    pub deadline: Option<Duration>,
    /// Maximum LFP iterations per clique per evaluation.
    pub max_iterations: Option<u64>,
    /// Maximum derived tuples installed per evaluation, cumulative across
    /// all cliques and non-recursive nodes.
    pub max_derived_facts: Option<u64>,
    /// Byte budget for per-statement operator state inside the engine.
    /// With spilling enabled (the default) joins and sorts whose state
    /// exceeds the budget go through the Grace-partitioned / external-sort
    /// paths instead of failing; answers are identical either way.
    pub memory_budget: Option<u64>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            optimize: false,
            strategy: LfpStrategy::SemiNaive,
            compiled_storage: true,
            durability: false,
            deadline: None,
            max_iterations: None,
            max_derived_facts: None,
            memory_budget: None,
        }
    }
}

/// Compilation phase timings (the components of the paper's `t_c`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileTimings {
    /// Setting up query-related data structures: parsing, reachability,
    /// clique analysis bookkeeping, and the optimizer rewrite.
    pub t_setup: Duration,
    /// Extracting the relevant rules from the Stored D/KB.
    pub t_extract: Duration,
    /// Reading the D/KB data dictionaries.
    pub t_read: Duration,
    /// Generating the evaluation order list.
    pub t_eol: Duration,
    /// Generating and validating the SQL program (the paper's compile/link
    /// step analog).
    pub t_gen: Duration,
    pub total: Duration,
}

/// A compiled D/KB query, ready for (repeated) execution.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    pub program: EvalProgram,
    pub timings: CompileTimings,
    /// Number of relevant rules (workspace + extracted), the paper's R_r.
    pub relevant_rules: usize,
    /// Number of relevant derived predicates, the paper's P_dr.
    pub relevant_derived: usize,
    /// Whether the magic rewrite was applied.
    pub optimized: bool,
    /// Variable names of the query head (answer column labels).
    pub answer_vars: Vec<String>,
    /// Every predicate the compiled program depends on — recorded so
    /// precompiled queries can be invalidated by updates (conclusion #3).
    pub relevant_preds: BTreeSet<String>,
}

/// The result of executing a compiled query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub rows: Vec<Vec<Value>>,
    /// Query execution time (the paper's `t_e`).
    pub t_execute: Duration,
    /// Evaluation details (timings, per-node breakdowns). Its `rows` are
    /// moved into [`QueryResult::rows`] rather than stored twice.
    pub outcome: EvalOutcome,
}

impl QueryResult {
    /// Time spent evaluating magic-predicate nodes (Figure 14's "magic
    /// rules evaluation").
    pub fn magic_time(&self) -> Duration {
        self.outcome
            .node_timings
            .iter()
            .filter(|n| n.is_magic)
            .map(|n| n.elapsed)
            .sum()
    }

    /// Time spent evaluating everything else (Figure 14's "modified rules
    /// evaluation").
    pub fn modified_time(&self) -> Duration {
        self.outcome
            .node_timings
            .iter()
            .filter(|n| !n.is_magic)
            .map(|n| n.elapsed)
            .sum()
    }
}

/// A D/KBMS testbed session: an execution backend holding the stored
/// D/KB and base relations, plus the memory-resident workspace.
///
/// The backend is either a private [`Engine`] (the paper's one-user
/// architecture, via [`Session::new`]) or a [`rdbms::DbSession`] on a
/// [`SharedEngine`] (via [`Session::attach`]), which lets N sessions
/// share one live stored D/KB under MVCC snapshot isolation. A shared
/// session reads committed state as of its last snapshot refresh —
/// taken at the start of each compile, each prepared execution, and
/// each commit — and its durable writes (fact loads, base-relation
/// definitions, workspace commits) are validated first-committer-wins
/// and retried transparently on `WriteConflict`.
pub struct Session {
    backend: ExecBackend,
    stored: StoredDkb,
    workspace: Workspace,
    pub config: SessionConfig,
    /// Precompiled queries by name (conclusion #3): each records the
    /// predicates it depends on; stored-D/KB updates touching those
    /// predicates invalidate the entry, forcing recompilation on next use.
    prepared: BTreeMap<String, Prepared>,
    /// How many prepared executions had to recompile first.
    recompilations: u64,
    /// Bumped on every workspace mutation; prepared plans compiled against
    /// an older generation recompile before running (uncommitted rules
    /// must be visible to prepared queries too).
    workspace_gen: u64,
}

struct Prepared {
    source: String,
    compiled: CompiledQuery,
    valid: bool,
    /// Workspace generation the plan was compiled against; any workspace
    /// edit since then makes the plan potentially stale.
    workspace_gen: u64,
}

/// Set the engine-level parts of `config` on a session's evaluation
/// engine. Once per constructor is enough: the settings stay with the
/// session's engine, across snapshot refreshes on a shared backend too.
fn apply_engine_config(db: &mut Engine, config: &SessionConfig) {
    if config.memory_budget.is_some() {
        db.set_memory_budget(config.memory_budget);
    }
}

impl Session {
    /// Create a session with freshly initialized storage structures.
    pub fn new(config: SessionConfig) -> Result<Session, KmError> {
        let mut db = Engine::new();
        if config.durability {
            db.enable_wal();
        }
        apply_engine_config(&mut db, &config);
        let stored = StoredDkb::new(config.compiled_storage);
        stored.init(&mut db)?;
        Ok(Session {
            backend: ExecBackend::Private(db),
            stored,
            workspace: Workspace::new(),
            config,
            prepared: BTreeMap::new(),
            recompilations: 0,
            workspace_gen: 0,
        })
    }

    pub fn with_defaults() -> Result<Session, KmError> {
        Session::new(SessionConfig::default())
    }

    /// Attach a session to a [`SharedEngine`], so this user's fact loads,
    /// LFP evaluations, and workspace commits run against the same live
    /// stored D/KB as every other attached session.
    ///
    /// The first session to attach bootstraps the D/KB catalog; the
    /// bootstrap itself is a validated transaction, so concurrent
    /// attachers race safely — exactly one creates the tables and the
    /// rest observe them after a refresh. `durability` is forced on
    /// conceptually (every shared commit goes through the engine's WAL
    /// group-commit path); `compiled_storage` is clamped to what the
    /// shared catalog actually maintains, mirroring [`Session::open`].
    pub fn attach(shared: &SharedEngine, config: SessionConfig) -> Result<Session, KmError> {
        let mut backend = ExecBackend::Shared(shared.session());
        apply_engine_config(backend.eval_engine(), &config);
        let stored = StoredDkb::new(config.compiled_storage);
        loop {
            backend.refresh()?;
            if backend.has_table("rulesource") {
                break;
            }
            backend.begin()?;
            if backend.has_table("rulesource") {
                // A racing attacher committed the catalog between our
                // check and begin's re-snapshot.
                let _ = backend.rollback();
                break;
            }
            match stored.init(&mut backend) {
                Ok(()) => match backend.commit() {
                    Ok(()) => break,
                    Err(DbError::WriteConflict(_)) => continue,
                    Err(e) => return Err(e.into()),
                },
                Err(e) => {
                    let _ = backend.rollback();
                    return Err(e);
                }
            }
        }
        let mut config = config;
        config.compiled_storage = config.compiled_storage && backend.has_table("reachablepreds");
        Ok(Session {
            backend,
            stored: StoredDkb::new(config.compiled_storage),
            workspace: Workspace::new(),
            config,
            prepared: BTreeMap::new(),
            recompilations: 0,
            workspace_gen: 0,
        })
    }

    // -- plumbing ----------------------------------------------------------

    /// The engine evaluation runs on: the private engine, or the shared
    /// session's snapshot. Use it for inspection (stats, metrics,
    /// profiles) and evaluation-scoped knobs (budgets, fault injectors,
    /// cancellation); on a shared backend its durable state is a
    /// snapshot, and writes made here are *not* validated or committed —
    /// route those through [`Session::db_execute`].
    pub fn engine(&self) -> &Engine {
        self.backend.eval_engine_ref()
    }

    /// Mutable access to the evaluation engine (see [`Session::engine`]).
    pub fn engine_mut(&mut self) -> &mut Engine {
        self.backend.eval_engine()
    }

    /// The execution backend itself, for callers that need transaction
    /// control or shared-engine introspection.
    pub fn backend_mut(&mut self) -> &mut ExecBackend {
        &mut self.backend
    }

    /// Execute one SQL statement through the durable channel: directly on
    /// the private engine, or via the shared session's validated MVCC
    /// write path. This is the supported route for out-of-band DDL (e.g.
    /// the bench harness's secondary indexes) that must be visible to —
    /// and conflict-checked against — other attached sessions.
    pub fn db_execute(&mut self, sql: &str) -> Result<ResultSet, KmError> {
        Ok(self.backend.execute(sql)?)
    }

    /// Commits and validation conflicts on the shared backend (both zero
    /// on a private backend).
    pub fn commit_counters(&self) -> (u64, u64) {
        self.backend.commit_counters()
    }

    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    pub fn workspace_mut(&mut self) -> &mut Workspace {
        self.workspace_gen += 1;
        &mut self.workspace
    }

    pub fn stored(&self) -> &StoredDkb {
        &self.stored
    }

    /// Create a base relation (`c0..cn` columns) and register it in the
    /// extensional dictionary. On a shared backend the multi-statement
    /// registration runs as one validated transaction, so other sessions
    /// never observe a table without its dictionary entries.
    pub fn define_base(&mut self, name: &str, types: &[AttrType]) -> Result<(), KmError> {
        let stored = &self.stored;
        let shared = self.backend.is_shared();
        with_txn(&mut self.backend, shared, |b| {
            stored.create_base_relation(b, name, types)
        })
        .map(|(out, _)| out)
    }

    /// Bulk-load tuples into a base relation. On a shared backend this is
    /// the key-granular MVCC write path: concurrent loads into the same
    /// relation commute conflict-free unless they insert identical rows.
    pub fn load_facts(&mut self, name: &str, rows: Vec<Vec<Value>>) -> Result<u64, KmError> {
        self.stored.load_facts(&mut self.backend, name, rows)
    }

    /// Add rules/facts to the workspace from source text.
    pub fn load_rules(&mut self, src: &str) -> Result<(), KmError> {
        self.workspace_gen += 1;
        Ok(self.workspace.load(src)?)
    }

    /// Commit the workspace rules to the Stored D/KB (§4.3), returning the
    /// phase timings of Test 8/9. The workspace is left intact.
    ///
    /// With [`SessionConfig::durability`] on, the whole update runs as one
    /// engine transaction: on any error the stored D/KB is rolled back to
    /// its pre-commit state and the workspace keeps everything, so the
    /// commit can simply be retried. If the error was an injected crash,
    /// call [`Session::recover`] first.
    pub fn commit_workspace(&mut self) -> Result<UpdateTimings, KmError> {
        let start = Instant::now();
        // Transactional: when durable (one WAL transaction on the private
        // engine) and always on the shared backend, where the update must
        // be one validated unit — including its dictionary *reads*, so a
        // commit that raced another session's update fails validation and
        // retries the whole algorithm on a fresh snapshot rather than
        // committing decisions made against stale dictionaries.
        let transactional = self.config.durability || self.backend.is_shared();
        let stored = &self.stored;
        let workspace = &self.workspace;
        let (mut timings, t_txn) = with_txn(&mut self.backend, transactional, |b| {
            update_stored(b, stored, workspace)
        })?;
        let after = Instant::now();
        self.after_update(&timings);
        timings.t_commit = t_txn + after.elapsed();
        timings.total = start.elapsed();
        Ok(timings)
    }

    /// What a stored-D/KB update leaves the session to do once it has
    /// committed.
    fn after_update(&mut self, timings: &UpdateTimings) {
        // Facts that became stored base relations leave the workspace —
        // they would otherwise shadow the base relation on the next query.
        if !timings.fact_predicates.is_empty() {
            self.workspace.drain_facts_for(&timings.fact_predicates);
        }

        // Invalidate precompiled queries touched by the update: any entry
        // depending on a predicate the workspace rules define or mention,
        // or whose facts were materialized into base relations (a cached
        // program may still read them from compile-time seeds).
        let mut touched: BTreeSet<String> = self
            .workspace
            .rules()
            .rules()
            .flat_map(|r| {
                std::iter::once(r.head.predicate.clone())
                    .chain(r.all_body_atoms().map(|a| a.predicate.clone()))
            })
            .collect();
        touched.extend(timings.fact_predicates.iter().cloned());
        for entry in self.prepared.values_mut() {
            if entry.valid
                && entry
                    .compiled
                    .relevant_preds
                    .intersection(&touched)
                    .next()
                    .is_some()
            {
                entry.valid = false;
            }
        }
    }

    /// Recover the engine after an injected crash: replay committed
    /// transactions from the WAL, undo uncommitted ones, and rebuild the
    /// volatile state (buffer pool, indexes, tuple counts). Every prepared
    /// query is invalidated, since its plan may reference rolled-back
    /// state; the memory-resident workspace survives untouched.
    pub fn recover(&mut self) -> Result<rdbms::RecoveryReport, KmError> {
        let report = match &mut self.backend {
            ExecBackend::Private(e) => e.recover()?,
            ExecBackend::Shared(s) => {
                // Recovery runs once on the live engine (it invalidates
                // every open snapshot's validation baseline); this
                // session then re-snapshots the recovered state.
                let report = s.shared_engine().recover()?;
                s.refresh()?;
                report
            }
        };
        for entry in self.prepared.values_mut() {
            entry.valid = false;
        }
        // Cross-check the recovered dictionary structures; the engine
        // gauge records the verdict either way so an operator can see it
        // in the metrics export.
        let verified = self.stored.verify_integrity(&mut self.backend);
        match self.backend.shared_engine() {
            Some(sh) => sh.with_live(|e| e.note_recovery_verified(verified.is_ok())),
            None => self
                .backend
                .eval_engine()
                .note_recovery_verified(verified.is_ok()),
        }
        verified?;
        Ok(report)
    }

    /// Cross-check the stored D/KB's dictionary structures against each
    /// other (see [`StoredDkb::verify_integrity`]). On a shared backend
    /// this checks the session's snapshot.
    pub fn verify_integrity(&mut self) -> Result<(), KmError> {
        self.stored.verify_integrity(&mut self.backend)
    }

    /// Persist the whole D/KB — base relations, dictionaries, rule storage
    /// — to a snapshot file. The memory-resident workspace is not saved
    /// (it is scratch space by design). On a shared backend the snapshot
    /// is taken from the live committed state under the commit lock.
    pub fn save(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), KmError> {
        match &mut self.backend {
            ExecBackend::Private(e) => Ok(e.save_snapshot(path)?),
            ExecBackend::Shared(s) => {
                Ok(s.shared_engine().with_live(|e| e.save_snapshot(&path))?)
            }
        }
    }

    /// Open a session over a previously saved D/KB snapshot.
    pub fn open(
        path: impl AsRef<std::path::Path>,
        config: SessionConfig,
    ) -> Result<Session, KmError> {
        let mut db = Engine::load_snapshot(path)?;
        if config.durability {
            db.enable_wal();
        }
        apply_engine_config(&mut db, &config);
        for required in ["rulesource", "idb_relname", "idb_column", "edb_relname"] {
            if !db.has_table(required) {
                return Err(KmError::Semantic(format!(
                    "snapshot is not a D/KB session (missing {required}); \
                     it may be a raw engine snapshot"
                )));
            }
        }
        // The snapshot dictates whether the compiled form exists; keep the
        // session config consistent with reality rather than silently
        // running a different architecture than the caller asked for.
        let mut config = config;
        config.compiled_storage = config.compiled_storage && db.has_table("reachablepreds");
        let stored = StoredDkb::new(config.compiled_storage);
        Ok(Session {
            backend: ExecBackend::Private(db),
            stored,
            workspace: Workspace::new(),
            config,
            prepared: BTreeMap::new(),
            recompilations: 0,
            workspace_gen: 0,
        })
    }

    // -- precompiled queries (conclusion #3) ---------------------------------

    /// Compile `query_src` and cache it under `name`. Re-preparing a name
    /// replaces the entry.
    pub fn prepare(&mut self, name: &str, query_src: &str) -> Result<(), KmError> {
        let compiled = self.compile(query_src)?;
        let workspace_gen = self.workspace_gen;
        self.prepared.insert(
            name.to_string(),
            Prepared {
                source: query_src.to_string(),
                compiled,
                valid: true,
                workspace_gen,
            },
        );
        Ok(())
    }

    /// Execute a prepared query, recompiling first if a stored-D/KB update
    /// invalidated it or the workspace changed since compilation.
    pub fn execute_prepared(&mut self, name: &str) -> Result<QueryResult, KmError> {
        // A shared session answers from the latest committed state.
        self.backend.refresh()?;
        let entry = self
            .prepared
            .get(name)
            .ok_or_else(|| KmError::Internal(format!("no prepared query named {name}")))?;
        if !entry.valid || entry.workspace_gen != self.workspace_gen {
            let source = entry.source.clone();
            let compiled = self.compile(&source)?;
            self.recompilations += 1;
            let workspace_gen = self.workspace_gen;
            let entry = self.prepared.get_mut(name).expect("entry exists");
            entry.compiled = compiled;
            entry.valid = true;
            entry.workspace_gen = workspace_gen;
        }
        // Run without cloning the program: the prepared map and the engine
        // are disjoint fields.
        let limits = self.eval_limits();
        let entry = &self.prepared[name];
        let mut outcome = run_program_governed(
            self.backend.eval_engine(),
            &entry.compiled.program,
            self.config.strategy,
            &limits,
        )?;
        let rows = std::mem::take(&mut outcome.rows);
        Ok(QueryResult {
            rows,
            t_execute: outcome.total,
            outcome,
        })
    }

    /// Whether the named prepared plan is current against both the stored
    /// D/KB and the workspace.
    fn prepared_current(&self, p: &Prepared) -> bool {
        p.valid && p.workspace_gen == self.workspace_gen
    }

    /// Whether the named prepared query is still valid (no recompilation
    /// pending).
    pub fn prepared_is_valid(&self, name: &str) -> Option<bool> {
        self.prepared.get(name).map(|p| self.prepared_current(p))
    }

    /// Total recompilations forced by update invalidation.
    pub fn recompilations(&self) -> u64 {
        self.recompilations
    }

    // -- query processing (§4.2) -------------------------------------------

    /// Compile a query against the workspace and stored D/KBs. A shared
    /// session refreshes onto the latest committed state first; the
    /// compiled program then evaluates against that same snapshot, so a
    /// compile-execute pair is one consistent read.
    pub fn compile(&mut self, query_src: &str) -> Result<CompiledQuery, KmError> {
        self.backend.refresh()?;
        let total_start = Instant::now();
        let mut tm = CompileTimings::default();

        // Parse; ground (boolean) queries answer with the synthetic column
        // 'true'.
        let t = Instant::now();
        let mut query = parse_query(query_src)?;
        if query.head.args.is_empty() {
            query.head = Atom::new(QUERY_PREDICATE, vec![Term::sym("true")]);
        }
        let answer_vars: Vec<String> = query
            .head
            .args
            .iter()
            .map(|a| a.as_var().unwrap_or("answer").to_string())
            .collect();
        tm.t_setup += t.elapsed();

        // Step 1: find the reachable predicate set and relevant rule set,
        // iterating between workspace reachability and stored extraction.
        let mut relevant = Program::default();
        let mut seen_rules: std::collections::HashSet<Clause> = std::collections::HashSet::new();
        let mut preds: BTreeSet<String> = query
            .all_body_atoms()
            .map(|a| a.predicate.clone())
            .collect();
        loop {
            let mut changed = false;

            let t = Instant::now();
            // Workspace rules whose heads are relevant.
            for rule in self.workspace.rules().rules() {
                if preds.contains(&rule.head.predicate) && !seen_rules.contains(rule) {
                    seen_rules.insert(rule.clone());
                    relevant.push(rule.clone());
                    changed = true;
                }
            }
            // Expand reachability over everything gathered so far.
            let pcg = Pcg::build(&relevant);
            for p in pcg.reachable_from_all(preds.iter().map(String::as_str)) {
                if preds.insert(p) {
                    changed = true;
                }
            }
            tm.t_setup += t.elapsed();

            // Extract from the Stored D/KB.
            let t = Instant::now();
            let extracted = self
                .stored
                .extract_relevant_rules(&mut self.backend, &preds)?;
            tm.t_extract += t.elapsed();
            let t = Instant::now();
            for rule in extracted.clauses {
                if !seen_rules.contains(&rule) {
                    seen_rules.insert(rule.clone());
                    preds.insert(rule.head.predicate.clone());
                    relevant.push(rule);
                    changed = true;
                }
            }
            tm.t_setup += t.elapsed();

            if !changed {
                break;
            }
        }

        // Step 4 (dictionaries + semantic checks). Read the extensional
        // dictionary for referenced base relations and the intensional
        // dictionary for relevant derived predicates.
        let t = Instant::now();
        let base_rels = self.stored.base_relations(&mut self.backend)?;
        let referenced_base: BTreeSet<String> = preds.intersection(&base_rels).cloned().collect();
        let mut dict = self
            .stored
            .read_edb_dictionary(&mut self.backend, &referenced_base)?;
        let derived_set: BTreeSet<String> = relevant
            .derived_predicates()
            .into_iter()
            .map(str::to_string)
            .collect();
        for (pred, types) in self
            .stored
            .read_idb_dictionary(&mut self.backend, &derived_set)?
        {
            dict.entry(pred).or_insert(types);
        }
        tm.t_read += t.elapsed();

        let t = Instant::now();
        // Workspace facts for relevant predicates become seeds.
        let seed_facts: Vec<Clause> = self
            .workspace
            .facts()
            .clauses
            .iter()
            .filter(|f| preds.contains(&f.head.predicate))
            .cloned()
            .collect();
        for f in &seed_facts {
            if base_rels.contains(&f.head.predicate) {
                return Err(KmError::Semantic(format!(
                    "workspace fact {} targets stored base relation {}; \
                     commit the workspace (which appends it to the stored \
                     relation) or load it with load_facts instead",
                    f, f.head.predicate
                )));
            }
        }
        let mut check_program = relevant.clone();
        for f in &seed_facts {
            check_program.push(f.clone());
        }
        check_program.push(query.clone());
        let info = semantics::check(&check_program, &dict)?;
        let mut types = info.types;

        // Optimizer (optional): generalized magic sets. Rules using
        // negation are evaluated unoptimized — magic sets over stratified
        // negation needs care the testbed does not implement (the paper
        // leaves negation as future work altogether).
        let uses_negation =
            query.has_negation() || relevant.clauses.iter().any(Clause::has_negation);
        let optimized = self.config.optimize && !uses_negation;
        let (rules_for_eval, eval_query, extra_seeds) = if optimized {
            let rw = magic_rewrite(&relevant, &query, &derived_set);
            types = rw.rewritten_types(&types);
            let mut rules = Program::default();
            let mut seeds = Vec::new();
            for clause in rw.program.clauses {
                if clause.is_fact() {
                    seeds.push(clause);
                } else {
                    rules.push(clause);
                }
            }
            (rules, rw.query, seeds)
        } else {
            (relevant.clone(), query.clone(), Vec::new())
        };
        tm.t_setup += t.elapsed();

        // Steps 2-3: cliques, evaluation graph, evaluation order list.
        let t = Instant::now();
        let mut order_program = rules_for_eval.clone();
        order_program.push(eval_query.clone());
        let order =
            evaluation_order(&order_program).map_err(|e| KmError::Internal(e.to_string()))?;
        tm.t_eol += t.elapsed();

        // Step 5 precompute: code generation + SQL validation.
        let t = Instant::now();
        let mut base_columns: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for rel in &referenced_base {
            let schema = self.backend.table_schema(rel)?;
            base_columns.insert(
                rel.clone(),
                schema.columns().iter().map(|c| c.name.clone()).collect(),
            );
        }
        let mut all_seeds = seed_facts;
        all_seeds.extend(extra_seeds);
        let ns = self.backend.temp_ns();
        let env = CodegenEnv {
            types: &types,
            base_preds: &referenced_base,
            base_columns: &base_columns,
            ns: &ns,
        };
        let program = generate(&order, &all_seeds, QUERY_PREDICATE, &env)?;
        validate_program(&program)?;
        tm.t_gen += t.elapsed();

        tm.total = total_start.elapsed();
        Ok(CompiledQuery {
            program,
            timings: tm,
            relevant_rules: seen_rules.len(),
            relevant_derived: derived_set.len(),
            optimized,
            answer_vars,
            relevant_preds: preds,
        })
    }

    /// The evaluation limits this session's config implies.
    fn eval_limits(&self) -> EvalLimits {
        EvalLimits {
            deadline: self.config.deadline,
            max_iterations: self.config.max_iterations,
            max_derived_facts: self.config.max_derived_facts,
        }
    }

    /// Execute a compiled query on the evaluation engine — the snapshot
    /// the query was compiled against, for a shared session.
    pub fn execute(&mut self, compiled: &CompiledQuery) -> Result<QueryResult, KmError> {
        let limits = self.eval_limits();
        let mut outcome = run_program_governed(
            self.backend.eval_engine(),
            &compiled.program,
            self.config.strategy,
            &limits,
        )?;
        let rows = std::mem::take(&mut outcome.rows);
        Ok(QueryResult {
            rows,
            t_execute: outcome.total,
            outcome,
        })
    }

    /// Compile and execute in one step.
    pub fn query(&mut self, query_src: &str) -> Result<(CompiledQuery, QueryResult), KmError> {
        let compiled = self.compile(query_src)?;
        let result = self.execute(&compiled)?;
        Ok((compiled, result))
    }

    /// Compile a query and render the generated program — the evaluation
    /// order list with every SQL statement the runtime will execute. This
    /// is the testbed's demonstration-platform view of compilation.
    pub fn explain(&mut self, query_src: &str) -> Result<Vec<String>, KmError> {
        let compiled = self.compile(query_src)?;
        let mut out = Vec::new();
        out.push(format!(
            "-- {} relevant rule(s), {} derived predicate(s), magic sets: {}",
            compiled.relevant_rules, compiled.relevant_derived, compiled.optimized
        ));
        for (pred, rows) in &compiled.program.seeds {
            out.push(format!("-- seed {pred}: {} fact(s)", rows.len()));
        }
        for (i, node) in compiled.program.nodes.iter().enumerate() {
            match node {
                crate::codegen::ProgNode::Predicate { pred, rules } => {
                    out.push(format!("[{i}] predicate {pred}"));
                    for r in rules {
                        out.push(format!("      {}", r.full_sql));
                    }
                }
                crate::codegen::ProgNode::Clique {
                    preds,
                    exit_rules,
                    recursive_rules,
                } => {
                    out.push(format!("[{i}] clique {{{}}}", preds.join(", ")));
                    for r in exit_rules {
                        out.push(format!("      exit: {}", r.full_sql));
                    }
                    for r in recursive_rules {
                        out.push(format!("      rec:  {}", r.full_sql));
                        for v in &r.delta_variants {
                            out.push(format!("      Δ:    {v}"));
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

/// A km session attached to a [`SharedEngine`] (built with
/// [`Session::attach`]). Same type as [`Session`] — every session runs
/// on an [`ExecBackend`]; the alias names the multi-user configuration.
pub type SharedSession = Session;

/// "Link step": parse every generated SQL statement once so malformed
/// codegen output fails at compile time, not mid-evaluation.
fn validate_program(program: &EvalProgram) -> Result<(), KmError> {
    let check = |sql: &str| -> Result<(), KmError> {
        rdbms::sql::parser::parse_stmt(sql)
            .map(|_| ())
            .map_err(|e| KmError::Internal(format!("generated SQL failed to parse: {e}: {sql}")))
    };
    for node in &program.nodes {
        match node {
            crate::codegen::ProgNode::Predicate { rules, .. } => {
                for r in rules {
                    check(&r.full_sql)?;
                }
            }
            crate::codegen::ProgNode::Clique {
                exit_rules,
                recursive_rules,
                ..
            } => {
                for r in exit_rules {
                    check(&r.full_sql)?;
                }
                for r in recursive_rules {
                    check(&r.full_sql)?;
                    for v in &r.delta_variants {
                        check(v)?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Convenience: attribute types for an all-`char` binary relation (the
/// shape of every graph workload in the paper).
pub fn binary_sym() -> Vec<AttrType> {
    vec![AttrType::Sym, AttrType::Sym]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_rows(n: usize) -> Vec<Vec<Value>> {
        (0..n - 1)
            .map(|i| {
                vec![
                    Value::from(format!("a{i}")),
                    Value::from(format!("a{}", i + 1)),
                ]
            })
            .collect()
    }

    fn ancestor_session(optimize: bool) -> Session {
        let mut s = Session::new(SessionConfig {
            optimize,
            ..SessionConfig::default()
        })
        .unwrap();
        s.define_base("parent", &binary_sym()).unwrap();
        s.load_facts("parent", chain_rows(8)).unwrap();
        s.load_rules(
            "anc(X, Y) :- parent(X, Y).\n\
             anc(X, Y) :- parent(X, Z), anc(Z, Y).\n",
        )
        .unwrap();
        s
    }

    #[test]
    fn end_to_end_ancestor_unoptimized() {
        let mut s = ancestor_session(false);
        let (compiled, result) = s.query("?- anc(a2, W).").unwrap();
        assert_eq!(compiled.relevant_rules, 2);
        assert_eq!(compiled.relevant_derived, 1);
        assert!(!compiled.optimized);
        assert_eq!(compiled.answer_vars, vec!["W"]);
        let expected: Vec<Vec<Value>> =
            (3..8).map(|i| vec![Value::from(format!("a{i}"))]).collect();
        assert_eq!(result.rows, expected);
    }

    #[test]
    fn end_to_end_ancestor_with_magic() {
        let mut s = ancestor_session(true);
        let (compiled, result) = s.query("?- anc(a2, W).").unwrap();
        assert!(compiled.optimized);
        let expected: Vec<Vec<Value>> =
            (3..8).map(|i| vec![Value::from(format!("a{i}"))]).collect();
        assert_eq!(result.rows, expected);
        // Magic restricted the computation: strictly fewer tuples than the
        // full closure (C(8,2) = 28) plus query.
        assert!(result.outcome.breakdown.tuples_produced < 28);
        // Figure 14's two LFP computations are visible.
        assert!(result.magic_time() > Duration::ZERO);
        assert!(result.modified_time() > Duration::ZERO);
    }

    #[test]
    fn optimized_and_unoptimized_agree() {
        for query in ["?- anc(a0, W).", "?- anc(V, W).", "?- anc(V, a7)."] {
            let mut plain = ancestor_session(false);
            let mut magic = ancestor_session(true);
            let (_, r1) = plain.query(query).unwrap();
            let (_, r2) = magic.query(query).unwrap();
            assert_eq!(r1.rows, r2.rows, "query {query}");
        }
    }

    #[test]
    fn naive_strategy_matches_seminaive() {
        let mut naive = ancestor_session(false);
        naive.config.strategy = LfpStrategy::Naive;
        let mut semi = ancestor_session(false);
        let (_, r1) = naive.query("?- anc(a0, W).").unwrap();
        let (_, r2) = semi.query("?- anc(a0, W).").unwrap();
        assert_eq!(r1.rows, r2.rows);
    }

    #[test]
    fn ground_query_returns_boolean_row() {
        let mut s = ancestor_session(false);
        let (_, yes) = s.query("?- anc(a0, a5).").unwrap();
        assert_eq!(yes.rows, vec![vec![Value::from("true")]]);
        let (_, no) = s.query("?- anc(a5, a0).").unwrap();
        assert!(no.rows.is_empty());
    }

    #[test]
    fn stored_rules_participate_after_commit() {
        let mut s = ancestor_session(false);
        s.commit_workspace().unwrap();
        s.workspace_mut().clear();
        // The workspace is empty; the rules come from the Stored D/KB.
        let (compiled, result) = s.query("?- anc(a0, W).").unwrap();
        assert_eq!(compiled.relevant_rules, 2);
        assert_eq!(result.rows.len(), 7);
    }

    #[test]
    fn workspace_rules_can_reference_stored_rules() {
        let mut s = ancestor_session(false);
        s.commit_workspace().unwrap();
        s.workspace_mut().clear();
        s.load_rules("far(X, Y) :- anc(X, Y).\n").unwrap();
        let (compiled, result) = s.query("?- far(a0, W).").unwrap();
        assert_eq!(compiled.relevant_rules, 3, "stored anc rules extracted");
        assert_eq!(result.rows.len(), 7);
    }

    #[test]
    fn compile_timings_are_populated() {
        let mut s = ancestor_session(false);
        s.commit_workspace().unwrap();
        s.workspace_mut().clear();
        let compiled = s.compile("?- anc(a0, W).").unwrap();
        let tm = &compiled.timings;
        assert!(tm.total >= tm.t_extract);
        assert!(tm.t_extract > Duration::ZERO, "stored extraction happened");
        assert!(tm.t_read > Duration::ZERO);
        assert!(tm.t_gen > Duration::ZERO);
    }

    #[test]
    fn query_on_missing_predicate_errors() {
        let mut s = ancestor_session(false);
        assert!(matches!(
            s.query("?- nosuch(X, Y)."),
            Err(KmError::Semantic(_))
        ));
    }

    #[test]
    fn workspace_facts_seed_queries() {
        let mut s = Session::with_defaults().unwrap();
        s.load_rules(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).\n\
             edge(a, b).\n\
             edge(b, c).\n",
        )
        .unwrap();
        let (_, result) = s.query("?- path(a, W).").unwrap();
        assert_eq!(
            result.rows,
            vec![vec![Value::from("b")], vec![Value::from("c")]]
        );
    }

    #[test]
    fn workspace_fact_on_base_relation_rejected() {
        let mut s = ancestor_session(false);
        s.load_rules("parent(zz, a0).").unwrap();
        assert!(matches!(
            s.query("?- anc(zz, W)."),
            Err(KmError::Semantic(_))
        ));
    }

    #[test]
    fn compiled_query_is_reusable() {
        let mut s = ancestor_session(false);
        let compiled = s.compile("?- anc(a0, W).").unwrap();
        let r1 = s.execute(&compiled).unwrap();
        let r2 = s.execute(&compiled).unwrap();
        assert_eq!(r1.rows, r2.rows);
    }

    #[test]
    fn session_budget_trips_and_session_survives() {
        let mut s = Session::new(SessionConfig {
            max_derived_facts: Some(5),
            ..SessionConfig::default()
        })
        .unwrap();
        s.define_base("parent", &binary_sym()).unwrap();
        s.load_facts("parent", chain_rows(8)).unwrap();
        s.load_rules(
            "anc(X, Y) :- parent(X, Y).\n\
             anc(X, Y) :- parent(X, Z), anc(Z, Y).\n",
        )
        .unwrap();
        let err = s.query("?- anc(A, B).").unwrap_err();
        assert!(matches!(err, KmError::Eval(_)), "got {err:?}");
        // Lifting the budget on the same session yields the full answer:
        // the governed abort left the engine serviceable.
        s.config.max_derived_facts = None;
        let (_, r) = s.query("?- anc(A, B).").unwrap();
        assert_eq!(r.rows.len(), 28);
    }

    #[test]
    fn multi_atom_query() {
        let mut s = ancestor_session(false);
        // Pairs (X, Y) where X reaches a4 and a4 reaches Y.
        let (_, result) = s.query("?- anc(X, a4), anc(a4, Y).").unwrap();
        // X in a0..a3 (4 options), Y in a5..a7 (3 options) = 12 rows.
        assert_eq!(result.rows.len(), 12);
        assert_eq!(result.rows[0].len(), 2);
    }
}
