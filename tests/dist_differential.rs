//! Differential tests pinning the threaded distributed-TAPER backend
//! against the invariants the simulator's
//! [`DistResult`](orchestra_runtime::DistResult) establishes:
//! exactly-once execution, locality ∈ [0,1], zero re-assignments on
//! uniform-cost workloads (the cv gate), forced migration on
//! concentrated ones, and monotone epoch times. Outputs are compared
//! bitwise against the independent sequential reference on every graph
//! shape, exactly like the shared-queue differential suite.
//!
//! Graph shapes come from the shared builders in `common::shapes`,
//! parameterized for the dist backend: the flat shape uses uniform
//! costs (cv = 0) to pin the cv gate shut, and the skewed shape
//! interleaves 400× heavier tasks into worker 0's home block to force
//! it open.

mod common;

use common::shapes;
use orchestra_delirium::DelirGraph;
use orchestra_runtime::executor::ExecutorOptions;
use orchestra_runtime::threaded::{
    execute_sequential, execute_threaded, ExecutorBackend, SpinKernel,
};
use orchestra_runtime::{AccessPattern, RunReport, TaskCtx, TaskKernel};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

fn dist_opts(threads: usize) -> ExecutorOptions {
    ExecutorOptions {
        backend: ExecutorBackend::ThreadedDist,
        threads,
        ..ExecutorOptions::default()
    }
}

/// Runs the graph under threaded dist-TAPER and checks every invariant
/// that must hold regardless of workload shape; returns the run for
/// shape-specific assertions.
fn run_and_check(g: &DelirGraph, opts: &ExecutorOptions, label: &str) -> RunReport {
    run_and_check_with(g, opts, label, &SpinKernel::with_scale(2.0))
}

/// [`run_and_check`] with the dist-TAPER run on `kernel`, which must
/// compute what `SpinKernel::with_scale(2.0)` computes (the sequential
/// reference always runs on that).
fn run_and_check_with(
    g: &DelirGraph,
    opts: &ExecutorOptions,
    label: &str,
    kernel: &(dyn TaskKernel + Sync),
) -> RunReport {
    let seq =
        execute_sequential(g, opts, &SpinKernel::with_scale(2.0)).expect("sequential reference");
    let thr = execute_threaded(g, opts, kernel).expect("dist-TAPER run");
    for (op, counts) in thr.ops.iter().zip(&thr.exec_counts()) {
        assert!(
            counts.iter().all(|&c| c == 1),
            "{label}: op {} has a task executed != once under migration",
            op.name
        );
    }
    assert_eq!(seq.outputs.len(), thr.outputs.len(), "{label}: op count");
    for (i, (a, b)) in seq.outputs.iter().zip(&thr.outputs).enumerate() {
        assert_eq!(a, b, "{label}: op {} buffers diverge", seq.ops[i].name);
    }
    assert!(
        (0.0..=1.0).contains(&thr.locality),
        "{label}: locality {} outside [0,1]",
        thr.locality
    );
    for op in &thr.ops {
        assert!(
            op.epoch_times_us.windows(2).all(|w| w[0] <= w[1]),
            "{label}: op {} epoch times not monotone: {:?}",
            op.name,
            op.epoch_times_us
        );
        assert_eq!(op.epochs, op.epoch_times_us.len(), "{label}: epoch count mismatch");
    }
    thr
}

/// One wide uniform op: cv = 0, so the gate must stay shut.
fn flat_graph(tasks: usize) -> DelirGraph {
    shapes::flat(tasks, 3.0, 0.0)
}

/// Task → two parallel ops → merge: dist ops behind dependencies, so
/// enabling must token every worker (the migration-aware wakeup path).
fn dag_graph() -> DelirGraph {
    shapes::diamond(2.0, (96, 2.0, 0.6), (64, 3.0, 0.3), 1.0)
}

/// A pipeline group with a carried edge, unrolled over 4 iterations:
/// many small dist-op instances racing through the enable path.
fn pipeline_graph() -> (DelirGraph, ExecutorOptions) {
    let (g, pipeline_iters) = shapes::pipeline((24, 2.0, 0.4), (8, 2.0, 0.4), 4, None);
    let mut opts = dist_opts(2);
    opts.pipeline_iters = pipeline_iters;
    (g, opts)
}

/// A two-population mixture whose heavy tasks interleave into the low
/// indices — i.e. into worker 0's home block — while the cost mixture
/// drives cv far above the gate. Worker 1 races through its light home
/// and must force the coordinator to re-assign worker 0's unstarted
/// work.
fn skewed_graph() -> DelirGraph {
    shapes::mixture(&[(32, 400.0, 0.0), (224, 1.0, 0.0)], false)
}

#[test]
fn uniform_costs_zero_migration_all_thread_counts() {
    for threads in [1, 2, 4] {
        let g = flat_graph(400);
        let opts = dist_opts(threads);
        let thr = run_and_check(&g, &opts, &format!("uniform/{threads}t"));
        // The cv gate: uniform costs show no imbalance, so the root
        // must never re-assign and every task stays home.
        assert_eq!(thr.reassignments, 0, "{threads}t: re-assigned uniform work");
        assert_eq!(thr.migrated_tasks, 0, "{threads}t: migrated uniform work");
        assert!((thr.locality - 1.0).abs() < 1e-12, "{threads}t: locality {}", thr.locality);
    }
}

#[test]
fn dag_shape_exactly_once() {
    for threads in [2, 4] {
        let g = dag_graph();
        let thr = run_and_check(&g, &dist_opts(threads), &format!("dag/{threads}t"));
        assert_eq!(thr.stats.total_tasks(), 96 + 64 + 2);
    }
}

#[test]
fn pipeline_shape_exactly_once() {
    let (g, opts) = pipeline_graph();
    run_and_check(&g, &opts, "pipeline");
}

/// Forces the interleaving [`skewed_graph`] is built for, on a
/// two-worker run of it (home blocks 0..128 and 128..256): task 0 —
/// the head of worker 0's first chunk — does not return before worker
/// 1's whole home block has run, and no task of that block starts
/// before task 0 has. So worker 0 has claimed (its heavy cost hints
/// open the cv gate) and still sits in its first chunk, home
/// unstarted, while worker 1 drains its light home and comes back for
/// more — however late either thread was scheduled.
struct HoldWorker0 {
    inner: SpinKernel,
    started: AtomicBool,
    light_done: AtomicUsize,
}

impl TaskKernel for HoldWorker0 {
    fn run_task(&self, ctx: &TaskCtx<'_>) -> f64 {
        let light = ctx.task >= 128;
        if ctx.task == 0 {
            self.started.store(true, Ordering::Release);
            while self.light_done.load(Ordering::Acquire) < 128 {
                std::thread::yield_now();
            }
        } else if light {
            while !self.started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }
        let value = self.inner.run_task(ctx);
        if light {
            self.light_done.fetch_add(1, Ordering::Release);
        }
        value
    }

    fn access(&self) -> AccessPattern {
        self.inner.access()
    }
}

#[test]
fn forced_migration_reassigns_and_stays_exactly_once() {
    let g = skewed_graph();
    let kernel = HoldWorker0 {
        inner: SpinKernel::with_scale(2.0),
        started: AtomicBool::new(false),
        light_done: AtomicUsize::new(0),
    };
    let thr = run_and_check_with(&g, &dist_opts(2), "skewed/2t", &kernel);
    assert!(
        thr.reassignments >= 1,
        "concentrated costs must trigger re-assignment, got {}",
        thr.reassignments
    );
    assert!(thr.migrated_tasks > 0, "re-assignment without migrated tasks");
    assert!(thr.locality < 1.0, "migration must show in locality, got {}", thr.locality);
    assert!(thr.locality >= 0.0);
    // The metrics surface per op too.
    let op = &thr.ops[0];
    assert_eq!(op.reassignments, thr.reassignments);
    assert_eq!(op.migrated, thr.migrated_tasks);
}

#[test]
fn skewed_graph_repeated_runs_stay_sound() {
    // Migration timing varies run to run; exactly-once and bitwise
    // equality must not.
    let g = skewed_graph();
    for round in 0..3 {
        run_and_check(&g, &dist_opts(2), &format!("skewed round {round}"));
    }
}

/// Pinning {off, on} over both the uniform and the skewed workload.
/// Pinning must never affect correctness — exactly-once, bitwise
/// equality, and the cv gate hold whether workers are pinned or
/// floating. Every pin targets a CPU the caller may use, so on Linux
/// every worker's pin sticks.
#[test]
fn pinning_and_topology_modes_preserve_invariants() {
    for pin_workers in [false, true] {
        let opts = ExecutorOptions { pin_workers, ..dist_opts(4) };
        let label = format!("affinity/pin={pin_workers}");
        let pinned = if pin_workers && cfg!(target_os = "linux") { 4 } else { 0 };

        let uniform = run_and_check(&flat_graph(400), &opts, &format!("{label}/uniform"));
        assert_eq!(uniform.reassignments, 0, "{label}: re-assigned uniform work");
        assert_eq!(uniform.migrated_tasks, 0, "{label}: migrated uniform work");

        let skewed = run_and_check(&skewed_graph(), &opts, &format!("{label}/skewed"));
        for thr in [&uniform, &skewed] {
            assert_eq!(thr.pinned_workers, pinned, "{label}: pinned workers");
        }
    }
}

#[test]
fn shared_backend_reports_no_dist_metrics() {
    let g = flat_graph(200);
    let opts = ExecutorOptions {
        backend: ExecutorBackend::Threaded,
        threads: 2,
        ..ExecutorOptions::default()
    };
    let kernel = SpinKernel::with_scale(2.0);
    let thr = execute_threaded(&g, &opts, &kernel).expect("shared run");
    assert_eq!(thr.reassignments, 0);
    assert_eq!(thr.migrated_tasks, 0);
    assert!((thr.locality - 1.0).abs() < 1e-12);
    assert!(thr.ops.iter().all(|o| o.epochs == 0 && o.epoch_times_us.is_empty()));
}
