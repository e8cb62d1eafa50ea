//! The compiler's allocation ledger: heap allocations per
//! `compile_source`, counted by a counting global allocator — a count,
//! not a time, so it reads the same on a loaded host. The budgets hold
//! what sharing names, term lists and triples bought (a `SymExpr` clone
//! is a reference count, a triple is built once and moved), and the
//! ratio pins the whole of `compile`, not only `analyze_program`, as
//! linear in program size.

mod common;

use common::programs::seq_loops_source;
use orchestra_apps::psirrfan;
use orchestra_core::compile_source;
use orchestra_lang::builder::figure1_program;
use orchestra_lang::pretty_print;
use orchestra_split::SplitOptions;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    /// Allocations made by this thread (the harness runs the tests of a
    /// binary on several).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count() {
        // `try_with`: a thread that is shutting down still frees.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a `const`-initialized
// thread-local `Cell` without a destructor, so touching it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        // SAFETY: the caller's `layout` is passed through as it came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations (and reallocations) of one `compile_source`, the result
/// dropped outside the count.
fn allocs_of(src: &str) -> u64 {
    let opts = SplitOptions::default();
    let before = ALLOCS.with(Cell::get);
    let compiled = compile_source(black_box(src), &opts);
    let after = ALLOCS.with(Cell::get);
    black_box(compiled).expect("the source compiles");
    after - before
}

#[test]
fn allocations_per_compile_stay_in_budget() {
    // Budgets ≈ 20 % above the reading. For scale, the reading while a
    // `SymExpr` was a `BTreeMap<String, i64>` and every nesting level
    // cloned its triples (the kernel has Figure 1's shape, hence its
    // count):
    //                      then     now   budget
    //   seq_loops(30)    56 898  19 391   23 300
    //   figure 1          9 097   2 492    3 000
    //   psirrfan kernel   9 097   2 492    3 000
    let cases = [
        ("seq_loops(30)", seq_loops_source(30), 23_300),
        ("figure 1", pretty_print(&figure1_program(24)), 3_000),
        ("psirrfan kernel", pretty_print(&psirrfan::kernel()), 3_000),
    ];
    for (name, src, budget) in cases {
        let n = allocs_of(&src);
        println!("{name}: {n} allocations");
        assert_eq!(n, allocs_of(&src), "{name}: the count repeats");
        assert!(n <= budget, "{name}: {n} allocations per compile_source, budget {budget}");
    }
}

#[test]
fn four_times_the_loops_allocate_at_most_four_and_a_half_times_as_much() {
    let (small, large) = (allocs_of(&seq_loops_source(30)), allocs_of(&seq_loops_source(120)));
    println!("30 loops: {small} allocations, 120 loops: {large}");
    assert!(
        2 * large <= 9 * small,
        "compile_source: 30 loops {small} allocations, 120 loops {large} ({:.2}x, linear is 4x)",
        large as f64 / small as f64
    );
}
