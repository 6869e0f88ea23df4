//! Allocation budgets for the LFP row path.
//!
//! Evaluating the closure of a relation moves every derived tuple page →
//! scan → join → distinct → projection → page several times. With a
//! `Vec<Value>` per row each of those moves once cost a handful of heap
//! allocations (a payload copy, the tuple, a key vector per hash table
//! touched, a serialization buffer, an index posting list): about 23 per
//! derived tuple. The row path now decodes inside the page into flat row
//! buffers, keys its hash tables with inline packed keys or the buffered
//! row itself, and bulk-appends through one buffer: an integer row costs no
//! allocation of its own anywhere in the engine. These tests pin that, and
//! the price symbol rows still pay, so neither can silently rot — and pin
//! the load path by count too, so that a copy or conversion per loaded row
//! fails here instead of showing up as set-up time noise.
//! `cargo test --release --test alloc_budget -- --nocapture` prints every
//! measured value.

use hornlog::types::AttrType;
use km::session::{Session, SessionConfig};
use rdbms::{SpillMode, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations (the test harness's own threads do not
/// count against the budget).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System` unchanged; the only addition
// is bumping a const-initialized, destructor-free thread-local counter,
// which neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run the whole-closure query twice on `s` — once to warm up, once
/// measured, reported as `what` — and return
/// this thread's allocations (reallocations included) per derived tuple of
/// the measured run, with the result for the caller's own assertions.
fn allocations_per_tuple(s: &mut Session, what: &str) -> (f64, km::session::QueryResult) {
    let compiled = s.compile("?- anc(X, Y).").unwrap();
    // The budget is for the default in-memory configuration, whatever
    // the environment the suite runs under says.
    s.engine_mut().set_spill_mode(SpillMode::Enabled);
    s.execute(&compiled).unwrap();
    let before = ALLOCS.with(Cell::get);
    let result = s.execute(&compiled).unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;
    let produced = result.outcome.breakdown.tuples_produced;
    let per_tuple = allocs as f64 / produced as f64;
    println!(
        "alloc_budget: {what}: {allocs} allocations / {produced} derived tuples = {per_tuple:.2} per tuple"
    );
    (per_tuple, result)
}

const EDGES: usize = 5_000;

/// Integer rows. Measured: 0.56 (22.9 before the row path decoded in the
/// page, 4.4 while the answer was still copied through a table of its own,
/// 3.41 while every operator handed on a vector per row, 0.59 while the
/// loop's temporaries were paged). Half an allocation per tuple is the
/// answer itself — a `Vec<Vec<Value>>`, the public result type, holds
/// 15 000 of the 30 000 tuples — and the rest is buffers and hash tables
/// growing, a cost per doubling, not per row. The ceiling is that plus a
/// tenth.
const INT_CEILING_PER_TUPLE: f64 = 0.62;

#[test]
fn chain_closure_stays_within_its_allocation_budget() {
    let mut s = Session::new(SessionConfig::default()).unwrap();
    s.define_base("edge", &[AttrType::Int, AttrType::Int])
        .unwrap();
    s.load_facts(
        "edge",
        workload::int_edges_to_rows(&workload::scaled_chains(EDGES)),
    )
    .unwrap();
    s.load_rules(&workload::ancestor_program("edge")).unwrap();
    let (per_tuple, result) = allocations_per_tuple(&mut s, "integer chain");

    assert_eq!(result.rows.len(), 3 * EDGES, "closure of 5-edge chains");
    let produced = result.outcome.breakdown.tuples_produced;
    assert_eq!(produced, 6 * EDGES as u64);
    assert!(
        per_tuple <= INT_CEILING_PER_TUPLE,
        "{per_tuple:.2} allocations per derived tuple, over the ceiling of {INT_CEILING_PER_TUPLE}"
    );
}

const TREE_DEPTH: u32 = 10;

/// Symbol rows: a `char` value is a 4-byte id into the engine's symbol
/// table, so a scan, join output, key or page write of a tuple allocates
/// nothing for its strings; what is left is mostly the answer itself, a
/// `Vec<Vec<Value>>` holding a `String` per value (1.5 per derived tuple).
/// Measured: 1.61 (11.69 while every `Str` was a heap string of its own,
/// 18.76 with a vector per row, 1.78 while the loop's temporaries were
/// paged); the ceiling is that plus a tenth.
const STR_CEILING_PER_TUPLE: f64 = 1.78;

#[test]
fn tree_closure_stays_within_its_allocation_budget() {
    let mut s = Session::new(SessionConfig::default()).unwrap();
    s.define_base("parent", &km::session::binary_sym()).unwrap();
    s.db_execute("CREATE INDEX parent_c0 ON parent (c0)")
        .unwrap();
    s.load_facts(
        "parent",
        workload::edges_to_rows(&workload::full_binary_tree(TREE_DEPTH)),
    )
    .unwrap();
    s.load_rules(&workload::ancestor_program("parent")).unwrap();
    let (per_tuple, result) = allocations_per_tuple(&mut s, "Str tree");

    // A node at level l (root = 1) has l - 1 ancestors.
    let closure: u64 = (1..=TREE_DEPTH as u64).map(|l| (l - 1) << (l - 1)).sum();
    assert_eq!(result.rows.len() as u64, closure);
    assert!(
        per_tuple <= STR_CEILING_PER_TUPLE,
        "{per_tuple:.2} allocations per derived tuple, over the ceiling of {STR_CEILING_PER_TUPLE}"
    );
}

/// This thread's allocations per loaded row while `define_base` creates
/// `name` with `types`, `index` (a `CREATE INDEX`, if any) indexes it and
/// `load_facts` loads `chunks` one after the other. The rows themselves
/// are built before counting starts.
fn allocations_per_loaded_row(
    what: &str,
    name: &str,
    types: &[AttrType],
    index: Option<&str>,
    chunks: Vec<Vec<Vec<Value>>>,
) -> f64 {
    let mut s = Session::new(SessionConfig::default()).unwrap();
    let rows: usize = chunks.iter().map(Vec::len).sum();
    let before = ALLOCS.with(Cell::get);
    s.define_base(name, types).unwrap();
    if let Some(sql) = index {
        s.db_execute(sql).unwrap();
    }
    for chunk in chunks {
        s.load_facts(name, chunk).unwrap();
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    let per_row = allocs as f64 / rows as f64;
    println!(
        "alloc_budget: {what}: {allocs} allocations / {rows} loaded rows = {per_row:.3} per row"
    );
    per_row
}

/// Loading `lfp_scale`'s 50 000 integer edges in 10 000-row chunks.
/// Measured: 0.015 per row — pages and the heap's growth, no allocation of
/// a row's own (0.164 when the first ceiling was set). The ceiling is that
/// plus a tenth.
const INT_LOAD_CEILING_PER_ROW: f64 = 0.017;

/// Loading the depth-11 symbol tree of `lfp_tree` into a table with a hash
/// index on its first column. Measured: 1.092 per row (3.735 while each
/// filed key was a boxed copy of its string, 2.238 when the first ceiling
/// was set): a key string is copied once, when it is first interned, and
/// every row files an inline id. The ceiling is that plus a tenth.
const STR_LOAD_CEILING_PER_ROW: f64 = 1.21;

#[test]
fn loading_stays_within_its_allocation_budget() {
    let edges = workload::scaled_chains(50_000);
    let chunks = edges
        .chunks(10_000)
        .map(workload::int_edges_to_rows)
        .collect();
    let int = allocations_per_loaded_row(
        "integer edges, loaded",
        "edge",
        &[AttrType::Int, AttrType::Int],
        None,
        chunks,
    );
    let tree = workload::edges_to_rows(&workload::full_binary_tree(11));
    let sym = allocations_per_loaded_row(
        "Str tree, loaded with its index",
        "parent",
        &km::session::binary_sym(),
        Some("CREATE INDEX parent_c0 ON parent (c0)"),
        vec![tree],
    );
    assert!(
        int <= INT_LOAD_CEILING_PER_ROW,
        "{int:.3} allocations per loaded integer row, over the ceiling of {INT_LOAD_CEILING_PER_ROW}"
    );
    assert!(
        sym <= STR_LOAD_CEILING_PER_ROW,
        "{sym:.3} allocations per loaded symbol row, over the ceiling of {STR_LOAD_CEILING_PER_ROW}"
    );
}
