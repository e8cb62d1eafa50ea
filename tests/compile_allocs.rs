//! The compiler's allocation ledger: heap allocations per
//! `compile_source`, counted by a counting global allocator — a count,
//! not a time, so it reads the same on a loaded host. The budgets hold
//! what sharing names, term lists and triples bought (a `Name` or
//! `SymExpr` clone is a reference count, a triple is built once and
//! moved), and the ratio pins the whole of `compile`, not only
//! `analyze_program`, as linear in program size.
//!
//! Spellings — `String`s, the only allocations aligned to one byte —
//! are counted apart: an identifier is spelled once, by the lexer, and
//! what is left are the names the compiler makes (SSA versions, labels,
//! replicas) and printed keys.

mod common;

use common::programs::seq_loops_source;
use orchestra_apps::psirrfan;
use orchestra_core::compile_source;
use orchestra_lang::builder::figure1_program;
use orchestra_lang::{pretty_print, Name};
use orchestra_split::SplitOptions;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    /// Allocations made by this thread (the harness runs the tests of a
    /// binary on several), and how many of them were 1-byte aligned.
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

impl Counting {
    fn count(layout: Layout) {
        let spelling = u64::from(layout.align() == 1);
        // `try_with`: a thread that is shutting down still frees.
        let _ = ALLOCS.try_with(|n| n.set((n.get().0 + 1, n.get().1 + spelling)));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a `const`-initialized
// thread-local `Cell` without a destructor, so touching it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count(layout);
        // SAFETY: the caller's `layout` is passed through as it came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count(layout);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `(allocations, of which spellings)` made by `f`, its result dropped
/// outside the count.
fn counted<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = ALLOCS.with(Cell::get);
    let out = black_box(f());
    let after = ALLOCS.with(Cell::get);
    ((after.0 - before.0, after.1 - before.1), out)
}

/// Allocations (and reallocations) of one `compile_source`, and how many
/// of them were spellings.
fn allocs_of(src: &str) -> (u64, u64) {
    let opts = SplitOptions::default();
    let (n, compiled) = counted(|| compile_source(black_box(src), &opts));
    compiled.expect("the source compiles");
    n
}

#[test]
fn allocations_per_compile_stay_in_budget() {
    // Budgets ≈ 20 % above the reading. For scale, the readings while a
    // `SymExpr` was a `BTreeMap<String, i64>` and every nesting level
    // cloned its triples ("then"), and while every pass copied each
    // identifier into a fresh `String` that an interner shared again
    // ("strings"); the kernel has Figure 1's shape, hence its count:
    //                      then  strings    now   budget
    //   seq_loops(30)    56 898   19 391  12 009   14 400
    //   figure 1          9 097    2 492   1 636    2 000
    //   psirrfan kernel   9 097    2 492   1 636    2 000
    // of which spellings:
    //   seq_loops(30)              8 898     808      970
    //   figure 1                   1 019      89      107
    //   psirrfan kernel            1 019      89      107
    let cases = [
        ("seq_loops(30)", seq_loops_source(30), 14_400, 970),
        ("figure 1", pretty_print(&figure1_program(24)), 2_000, 107),
        ("psirrfan kernel", pretty_print(&psirrfan::kernel()), 2_000, 107),
    ];
    for (name, src, budget, spelling_budget) in cases {
        let (n, spellings) = allocs_of(&src);
        println!("{name}: {n} allocations, {spellings} spellings");
        assert_eq!((n, spellings), allocs_of(&src), "{name}: the count repeats");
        assert!(n <= budget, "{name}: {n} allocations per compile_source, budget {budget}");
        assert!(
            spellings <= spelling_budget,
            "{name}: {spellings} spellings per compile_source, budget {spelling_budget}"
        );
    }
}

#[test]
fn a_name_is_shared_not_copied() {
    let name = Name::from("col");
    let (n, copy) = counted(|| name.clone());
    assert_eq!(n, (0, 0), "cloning a `Name` allocates nothing");
    assert!(std::ptr::eq(copy.as_str(), name.as_str()));
}

#[test]
fn four_times_the_loops_allocate_at_most_four_and_a_half_times_as_much() {
    let (small, large) = (allocs_of(&seq_loops_source(30)).0, allocs_of(&seq_loops_source(120)).0);
    println!("30 loops: {small} allocations, 120 loops: {large}");
    assert!(
        2 * large <= 9 * small,
        "compile_source: 30 loops {small} allocations, 120 loops {large} ({:.2}x, linear is 4x)",
        large as f64 / small as f64
    );
}
