//! The run core's allocation ledger: heap bytes and allocations of one
//! fresh `execute_threaded` run, counted by a counting global allocator
//! over every thread of the process — a count, not a time, so it reads
//! the same on a loaded host.
//!
//! Per task a run allocates its output cell (8 B) and its cost hint
//! (8 B), and nothing else: how often each task ran is folded from the
//! workers' chunk logs only when a caller asks
//! (`RunReport::exec_counts`), and an op the snapshot holds nothing of
//! has no restored mask. What the rest of a run allocates — plan, pool,
//! queues, logs, report — is per op, per worker or per chunk, and the
//! tiny graph's budget pins it.
//!
//! One test, so that no other test of this binary allocates while a
//! run is counted.

use orchestra_delirium::{DataAnno, DelirGraph, NodeKind};
use orchestra_runtime::{execute_threaded, ExecutorOptions, PolicyKind, SpinKernel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations (reallocations included) and the bytes they asked for,
/// by every thread; a reallocation counts only what it grew by.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

impl Counting {
    fn count(bytes: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are atomics, so touching
// them neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count(layout.size());
        // SAFETY: the caller's `layout` is passed through as it came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count(new_size.saturating_sub(layout.size()));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `depth` one-step data-parallel ops of `tasks` tasks each, every one
/// feeding the next element-wise (one op: the flat shape).
fn chain(depth: usize, tasks: usize) -> DelirGraph {
    let mut g = DelirGraph::new();
    let mut prev = None;
    for k in 0..depth {
        let node = NodeKind::DataParallel { tasks, mean_cost: 1.0, cv: 0.1 };
        let id = g.add_node(format!("C{k}"), node, None);
        if let Some(p) = prev {
            g.add_edge(p, id, DataAnno::array("x", tasks as u64));
        }
        prev = Some(id);
    }
    g
}

/// `(allocations, bytes)` of a fresh two-worker run of `g`, its report
/// dropped outside the count: the least of five runs, each read alone.
/// How the two workers race for chunks decides how often they visit an
/// op and how far their logs grow, so on a large graph one run may read
/// a few allocations more than the next; the least is what the run
/// itself needs. A first run, uncounted, takes the process-wide
/// one-time costs (the host calibration).
fn run_allocs(g: &DelirGraph) -> (u64, u64) {
    let opts = ExecutorOptions { threads: 2, policy: PolicyKind::Taper, ..Default::default() };
    let kernel = SpinKernel::with_scale(1.0);
    let run = || execute_threaded(black_box(g), &opts, &kernel).expect("the graph runs");
    drop(run());
    let once = || {
        let (allocs, bytes) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
        let report = black_box(run());
        let counted =
            (ALLOCS.load(Ordering::SeqCst) - allocs, BYTES.load(Ordering::SeqCst) - bytes);
        drop(report);
        counted
    };
    let runs: Vec<(u64, u64)> = (0..5).map(|_| once()).collect();
    (runs.iter().map(|r| r.0).min().unwrap(), runs.iter().map(|r| r.1).min().unwrap())
}

/// Allocations of spawning and joining `n` threads that do nothing: the
/// least of five. The test harness's output capture costs each spawned
/// thread allocations of its own, so a run's count less this one does
/// not depend on whether output is captured.
fn spawn_allocs(n: usize) -> u64 {
    let once = || {
        let allocs = ALLOCS.load(Ordering::SeqCst);
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| black_box(0));
            }
        });
        ALLOCS.load(Ordering::SeqCst) - allocs
    };
    (0..5).map(|_| once()).min().expect("five spawns")
}

#[test]
fn a_fresh_run_allocates_per_task_only_its_output_and_cost_hint() {
    // Bytes per task: the output cell and the cost hint are 16; the
    // rest, per op, worker and chunk, spread over the tasks — flat reads
    // 16.02, chain 16.28–16.35. While every run also built per-task
    // execution counts (4 B) and restored masks (1 B), they read 21.02
    // and 21.43.
    for (name, depth, tasks) in [("flat", 1, 262_144), ("chain", 32, 8_192)] {
        let (allocs, bytes) = run_allocs(&chain(depth, tasks));
        let per_task = bytes as f64 / (depth * tasks) as f64;
        println!("{name}: {allocs} allocations, {bytes} B, {per_task:.2} B/task");
        assert!(per_task <= 16.5, "{name}: {per_task:.2} B per task, budget 16.5");
    }
    // The tiny 2 × 32 chain, where the per-run costs are all there is.
    // Nothing it allocates depends on how its workers race — an op's
    // inputs are resolved once, a worker's feedback buffer, deque and
    // chunk log are made up front, and so is room for a streamed
    // producer's out-of-order commits — so it reads one count in every
    // process, debug and release alike: 69 allocations beyond spawning
    // its workers (80 in all and 7 440 B with the harness capturing
    // output, 76 and 7 296 B without). While a visit allocated its own
    // inputs and feedback buffer it read 74–81 allocations in all and
    // 7 236–7 540 B, and 82–83 and 8 308–8 340 B while the per-task
    // counters were built.
    let (allocs, bytes) = run_allocs(&chain(2, 32));
    let own = allocs - spawn_allocs(2);
    println!("tiny: {allocs} allocations ({own} beyond spawning its two workers), {bytes} B");
    assert_eq!(own, 69, "tiny: {own} allocations per run beyond its spawns, pinned at 69");
    assert!(bytes <= 7_900, "tiny: {bytes} B per run, budget 7 900");
}
