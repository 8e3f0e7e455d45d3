//! How many heap allocations one static analysis makes, counted by the
//! global allocator.
//!
//! The analyzer compiles every gate polynomial and lookup input once and
//! evaluates the compiled programs into reused buffers, so a row costs no
//! allocation per expression node. This binary analyzes MNIST at the layout
//! the optimizer picks under the fixture calibration and pins the number of
//! allocations `CompiledCircuit::analyze` makes. An engine that builds one
//! symbolic form per node on the heap makes about 210 000 here.
//!
//! It is its own test binary because the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use zkml_testkit::fixture_circuit;

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter is only bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A twentieth of what the per-node engine made on this circuit (210 114).
const MAX_ALLOCATIONS: usize = 210_114 / 20;

#[test]
fn mnist_analysis_allocates_little() {
    let g = zkml_model::zoo::by_name("mnist").expect("model exists");
    let compiled = fixture_circuit(&g);
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = compiled.analyze();
    let allocations = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(report.is_clean(), "{report}");
    println!("MNIST analysis: {allocations} allocations (bound {MAX_ALLOCATIONS})");
    assert!(
        allocations <= MAX_ALLOCATIONS,
        "the analysis made {allocations} allocations, over the bound {MAX_ALLOCATIONS}"
    );
}
