//! Allocation budget for the LFP row path.
//!
//! Evaluating the closure of an integer-keyed relation moves every derived
//! tuple page → scan → join → distinct → projection → page several times.
//! With `Tuple = Vec<Value>` each of those moves once cost a handful of
//! heap allocations (a payload copy, the tuple, a key vector per hash table
//! touched, a serialization buffer, an index posting list): about 23 per
//! derived tuple. The row path now decodes inside the page, keys its hash
//! tables with inline packed keys and bulk-appends through one buffer; what
//! is left is essentially one allocation per decoded row. This test pins
//! that, so the gain cannot silently rot.

use hornlog::types::AttrType;
use km::session::{Session, SessionConfig};
use rdbms::SpillMode;
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

const EDGES: usize = 5_000;

/// Allocations (reallocations included) per `tuples_produced`. Measured:
/// 3.4 (102 449 for 30 000 tuples; 22.9 before the row path decoded in
/// the page, 4.4 while the answer was still copied through a table of its
/// own). The ceiling leaves a quarter of that as headroom.
const CEILING_PER_TUPLE: f64 = 4.3;

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
    let compiled = s.compile("?- anc(X, Y).").unwrap();
    // The budget is for the default in-memory configuration, whatever
    // the environment the suite runs under says.
    s.engine_mut().set_spill_mode(SpillMode::Enabled);

    // Once to warm up, once measured.
    s.execute(&compiled).unwrap();
    let before = ALLOCS.with(Cell::get);
    let result = s.execute(&compiled).unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;

    assert_eq!(result.rows.len(), 3 * EDGES, "closure of 5-edge chains");
    let produced = result.outcome.breakdown.tuples_produced;
    assert_eq!(produced, 6 * EDGES as u64);
    let per_tuple = allocs as f64 / produced as f64;
    assert!(
        per_tuple <= CEILING_PER_TUPLE,
        "{allocs} allocations for {produced} derived tuples = {per_tuple:.2} per tuple, \
         over the ceiling of {CEILING_PER_TUPLE}"
    );
}
