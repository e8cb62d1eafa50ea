//! The compiler's allocation ledger: heap allocations per
//! `compile_source`, counted by a counting global allocator — a count,
//! not a time, so it reads the same on a loaded host. The budgets hold
//! what sharing names, term lists and triples bought (a `Name` or
//! `SymExpr` clone is a reference count, a triple is built once and
//! moved), and the ratios pin the whole of `compile`, and the analysis
//! it defers to its first read, as linear in program size.
//!
//! Spellings — `String`s, the only allocations aligned to one byte —
//! are counted apart: an identifier is spelled once, by the lexer, and
//! what is left are the names the compiler makes (SSA versions, labels,
//! replicas) and printed keys.

mod common;

use common::programs::seq_loops_source;
use orchestra_analysis::analyze_program;
use orchestra_apps::{climate, emu, psirrfan, vortex};
use orchestra_core::{compile_source, graph_of_compiled};
use orchestra_lang::ast::Program;
use orchestra_lang::builder::figure1_program;
use orchestra_lang::{parse_program, pretty_print, Name};
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
    // Budgets ≈ 10 % above the reading. For scale, the readings while a
    // `SymExpr` was a `BTreeMap<String, i64>` and every nesting level
    // cloned its triples ("then"), while every pass copied each
    // identifier into a fresh `String` that an interner shared again
    // ("strings"), while every descriptor walk copied its context, SSA
    // renaming kept its tables in maps keyed by name, a lone-term
    // expression held its term behind its own allocation and a fresh
    // name was probed once per counter ("copies"), and while `compile`
    // ran the analysis it stores though nothing read it ("eager"); the
    // four paper kernels and Figure 1 share a shape, hence their counts:
    //                      then  strings  copies  eager    now  budget
    //   seq_loops(30)    56 898   19 391  12 009  6 452  4 202   4 620
    //   figure 1          9 097    2 492   1 636    980    729     800
    //   psirrfan kernel   9 097    2 492   1 636    980    729     800
    //   climate kernel        —        —   1 643    986    733     805
    //   emu kernel            —        —   1 634    980    729     800
    //   vortex kernel         —        —   1 630    978    729     800
    // of which spellings:
    //   seq_loops(30)              8 898     808    228    165     180
    //   figure 1                   1 019      89     31     18      20
    //   psirrfan kernel            1 019      89     31     18      20
    //   climate kernel                 —      95     34     21      23
    //   emu kernel                     —      89     31     18      20
    //   vortex kernel                  —      87     31     18      20
    let kernel = |p: Program| pretty_print(&p);
    let cases = [
        ("seq_loops(30)", seq_loops_source(30), 4_620, 180),
        ("figure 1", kernel(figure1_program(24)), 800, 20),
        ("psirrfan kernel", kernel(psirrfan::kernel()), 800, 20),
        ("climate kernel", kernel(climate::kernel()), 805, 23),
        ("emu kernel", kernel(emu::kernel()), 800, 20),
        ("vortex kernel", kernel(vortex::kernel()), 800, 20),
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

/// What the Delirium text of a compiled graph costs to print and to
/// parse back and validate: 167 allocations for seq_loops(30)'s graph,
/// 1 409 while each parsed line built a map of owned keys and values,
/// and each printed one a `String` of its own.
#[test]
fn a_compiled_graphs_delirium_text_prints_and_parses_in_budget() {
    let compiled = compile_source(&seq_loops_source(30), &SplitOptions::default())
        .expect("the source compiles");
    let (graph, _) = graph_of_compiled(&compiled);
    let round_trip = || {
        let text = orchestra_delirium::print(&graph, "g");
        let (_, parsed) = orchestra_delirium::parse(&text).expect("the text parses");
        parsed.validate().expect("the graph is valid");
        parsed
    };
    let ((n, _), parsed) = counted(round_trip);
    println!("print + parse: {n} allocations");
    assert_eq!(parsed.nodes.len(), graph.nodes.len());
    assert_eq!(n, counted(round_trip).0 .0, "the count repeats");
    assert!(n <= 185, "{n} allocations per print + parse, budget 185");
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

/// Allocations of one analysis of `src`, forced by a read.
fn analysis_allocs_of(src: &str) -> u64 {
    let prog = parse_program(src).expect("the source parses");
    let (n, _) = counted(|| {
        let analysis = analyze_program(&prog);
        analysis.prop();
        analysis
    });
    n.0
}

#[test]
fn four_times_the_loops_cost_a_forced_analysis_at_most_four_and_a_half_times_as_much() {
    let (small, large) =
        (analysis_allocs_of(&seq_loops_source(30)), analysis_allocs_of(&seq_loops_source(120)));
    println!("forced analysis: 30 loops {small} allocations, 120 loops {large}");
    assert!(
        2 * large <= 9 * small,
        "analysis: 30 loops {small} allocations, 120 loops {large} ({:.2}x, linear is 4x)",
        large as f64 / small as f64
    );
}

#[test]
fn the_analysis_allocates_a_copy_until_it_is_read() {
    let prog = parse_program(&seq_loops_source(30)).expect("the source parses");
    let (copy, _) = counted(|| prog.clone());
    let (deferred, analysis) = counted(|| analyze_program(&prog));
    assert_eq!(deferred, copy, "analyze_program allocates what a copy of the program does");
    let (first, prop) = counted(|| analysis.prop() as *const _);
    assert!(first.0 > 0, "the first read runs the analysis");
    println!("analyze_program {deferred:?}, a copy {copy:?}, the first read {first:?}");
    let (second, again) = counted(|| analysis.prop() as *const _);
    assert_eq!(second, (0, 0), "a second read allocates nothing");
    assert!(std::ptr::eq(prop, again), "a second read returns the same result");
}
