//! Differential tests: the threaded backend against an independent
//! sequential reference.
//!
//! For every chunk policy × sample graph, real-thread execution must
//! (a) run every task exactly once — no chunk lost or duplicated by
//! the concurrent claim queue — and (b) produce bit-identical output
//! buffers to a single-threaded in-order execution. Kernels are pure
//! in `(node, iter, task)`, so any divergence is a scheduling bug, not
//! floating-point noise.
//!
//! Graph shapes come from the shared builders in `common::shapes`;
//! worker counts are capped at 2 so results don't depend on how many
//! cores CI happens to give us.

mod common;

use common::shapes;
use orchestra_apps::{climate, emu, psirrfan, vortex, Scale};
use orchestra_delirium::DelirGraph;
use orchestra_runtime::chunking::PolicyKind;
use orchestra_runtime::executor::ExecutorOptions;
use orchestra_runtime::threaded::{
    execute_sequential, execute_threaded, ExecutorBackend, SpinKernel, TaskKernel,
};
use orchestra_runtime::{execute_async, Crew, ReduceKernel};
use proptest::prelude::*;

const POLICIES: [PolicyKind; 4] =
    [PolicyKind::Static, PolicyKind::SelfSched, PolicyKind::Taper, PolicyKind::TaperCostFn];

/// A flat shape: one wide data-parallel node, nothing else.
fn flat_graph() -> (DelirGraph, ExecutorOptions) {
    (shapes::flat(256, 1.5, 0.6), ExecutorOptions { threads: 2, ..ExecutorOptions::default() })
}

/// A plain DAG: task → data-parallel fan-out → merge.
fn dag_graph() -> (DelirGraph, ExecutorOptions) {
    let g = shapes::diamond(4.0, (160, 2.0, 0.9), (96, 1.5, 0.2), 2.0);
    (g, ExecutorOptions { threads: 2, ..ExecutorOptions::default() })
}

/// A pipeline group with a carried edge, plus a downstream consumer.
fn pipeline_graph() -> (DelirGraph, ExecutorOptions) {
    let (g, pipeline_iters) = shapes::pipeline((48, 2.0, 0.5), (12, 2.0, 0.5), 4, Some(64));
    (g, ExecutorOptions { threads: 2, pipeline_iters, ..ExecutorOptions::default() })
}

/// A mixture node (two cost populations) feeding a merge.
fn mixture_graph() -> (DelirGraph, ExecutorOptions) {
    let g = shapes::mixture(&[(90, 1.0, 0.1), (30, 6.0, 0.8)], true);
    (g, ExecutorOptions { threads: 2, ..ExecutorOptions::default() })
}

/// A deep equal-width chain: every edge streams through watermarks on
/// the real backends (chunk-granularity pipelining on by default).
fn chain_graph() -> (DelirGraph, ExecutorOptions) {
    (shapes::chain(10, 24, 1.0, 0.4), ExecutorOptions { threads: 2, ..ExecutorOptions::default() })
}

fn graphs() -> Vec<(&'static str, DelirGraph, ExecutorOptions)> {
    let (g0, o0) = flat_graph();
    let (g1, o1) = dag_graph();
    let (g2, o2) = pipeline_graph();
    let (g3, o3) = mixture_graph();
    let (g4, o4) = chain_graph();
    vec![
        ("flat", g0, o0),
        ("dag", g1, o1),
        ("pipeline", g2, o2),
        ("mixture", g3, o3),
        ("chain", g4, o4),
    ]
}

/// The paper's four applications at n = 64: each one's split
/// (pipelined) graph and its barrier-per-phase baseline.
fn app_graphs() -> Vec<(String, DelirGraph, ExecutorOptions)> {
    let scale = Scale { n: 64, seed: 1 };
    [psirrfan::workload, climate::workload, emu::workload, vortex::workload]
        .into_iter()
        .flat_map(|workload| {
            let w = workload(&scale);
            let opts = ExecutorOptions {
                threads: 2,
                drivers: 2,
                pipeline_iters: w.pipeline_iters,
                ..ExecutorOptions::default()
            };
            [
                (format!("{}/split", w.name), w.split, opts.clone()),
                (format!("{}/baseline", w.name), w.baseline, opts),
            ]
        })
        .collect()
}

/// Runs `g` on the sequential reference and on every real backend —
/// Threaded, ThreadedDist and Async — under the same `opts`, and
/// asserts that each real run executes every task exactly once and
/// that its output buffers are bit-identical to the reference's.
fn assert_every_backend_bitwise(
    label: &str,
    g: &DelirGraph,
    opts: &ExecutorOptions,
    kernel: &(dyn TaskKernel + Sync),
) {
    let seq = execute_sequential(g, opts, kernel).unwrap();
    let dist_opts = ExecutorOptions { backend: ExecutorBackend::ThreadedDist, ..opts.clone() };
    let runs = [
        ("threaded", execute_threaded(g, opts, kernel).unwrap()),
        ("threaded-dist", execute_threaded(g, &dist_opts, kernel).unwrap()),
        ("async", execute_async(g, opts, kernel).unwrap()),
    ];
    for (backend, run) in &runs {
        for (op, counts) in run.ops.iter().zip(&run.exec_counts()) {
            assert!(
                counts.iter().all(|&c| c == 1),
                "{label}: {backend}: op {} task exec counts {counts:?}",
                op.name
            );
        }
        assert_eq!(seq.outputs, run.outputs, "{label}: {backend}: buffers diverge");
    }
}

#[test]
fn every_policy_executes_each_task_exactly_once() {
    let kernel = SpinKernel::with_scale(2.0);
    for (name, g, opts) in graphs() {
        for policy in POLICIES {
            let opts = ExecutorOptions { policy, ..opts.clone() };
            let run = execute_threaded(&g, &opts, &kernel).unwrap();
            for (op, counts) in run.ops.iter().zip(&run.exec_counts()) {
                assert!(
                    counts.iter().all(|&c| c == 1),
                    "{name}/{}: op {} task exec counts {counts:?}",
                    policy.name(),
                    op.name,
                );
            }
            let total: u64 = run.exec_counts().iter().map(|c| c.len() as u64).sum();
            assert_eq!(
                run.stats.total_tasks(),
                total,
                "{name}/{}: worker task accounting mismatch",
                policy.name()
            );
        }
    }
}

#[test]
fn threaded_results_bit_identical_to_sequential() {
    let kernel = SpinKernel::with_scale(2.0);
    for (name, g, opts) in graphs() {
        let seq = execute_sequential(&g, &opts, &kernel).unwrap();
        for policy in POLICIES {
            let opts = ExecutorOptions { policy, ..opts.clone() };
            let thr = execute_threaded(&g, &opts, &kernel).unwrap();
            assert_eq!(seq.outputs.len(), thr.outputs.len(), "{name}: op count");
            for (i, (s, t)) in seq.outputs.iter().zip(&thr.outputs).enumerate() {
                for (j, (a, b)) in s.iter().zip(t).enumerate() {
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "{name}/{}: op {} task {j}: sequential {a:?} != threaded {b:?}",
                        policy.name(),
                        seq.ops[i].name,
                    );
                }
            }
        }
    }
}

/// Pinning must be invisible to results: bit-identical outputs and
/// exactly-once execution on every sample graph and every real
/// backend, whether workers float (pin off) or pin to the caller's
/// CPUs.
#[test]
fn affinity_and_topology_do_not_change_results() {
    let kernel = SpinKernel::with_scale(2.0);
    for (name, g, opts) in graphs() {
        for pin_workers in [false, true] {
            let opts = ExecutorOptions { policy: PolicyKind::Taper, pin_workers, ..opts.clone() };
            assert_every_backend_bitwise(&format!("{name}/pin={pin_workers}"), &g, &opts, &kernel);
        }
    }
}

#[test]
fn barrier_mode_matches_too() {
    // pipeline_overlap=false changes the dependency structure (more
    // serialization), never the results.
    let kernel = SpinKernel::with_scale(2.0);
    let (g, opts) = pipeline_graph();
    let opts = ExecutorOptions { pipeline_overlap: false, ..opts };
    let seq = execute_sequential(&g, &opts, &kernel).unwrap();
    let thr = execute_threaded(&g, &opts, &kernel).unwrap();
    assert_eq!(seq.outputs, thr.outputs);
}

/// The streamed data plane engages, and `pipeline_overlap = false`
/// really disables it on the real backends: with overlap on (the
/// default) every chain edge streams through watermarks on threaded,
/// dist, and async runs; with overlap off all three fall back to
/// whole-op gating (zero streamed edges, zero publications), and both
/// modes stay bitwise equal to the sequential reference.
#[test]
fn streaming_engages_on_chains_and_pipeline_overlap_gates_it() {
    let kernel = SpinKernel::with_scale(2.0);
    let (g, base) = chain_graph();
    let edges = 9; // depth 10 chain
    let seq = execute_sequential(&g, &base, &kernel).unwrap();
    for pipeline_overlap in [true, false] {
        let opts = ExecutorOptions { pipeline_overlap, ..base.clone() };
        let thr = execute_threaded(&g, &opts, &kernel).unwrap();
        let dist_opts = ExecutorOptions { backend: ExecutorBackend::ThreadedDist, ..opts.clone() };
        let dist = execute_threaded(&g, &dist_opts, &kernel).unwrap();
        let asy = execute_async(&g, &opts, &kernel).unwrap();
        assert_eq!(seq.outputs, thr.outputs, "overlap={pipeline_overlap}: threaded");
        assert_eq!(seq.outputs, dist.outputs, "overlap={pipeline_overlap}: dist");
        assert_eq!(seq.outputs, asy.outputs, "overlap={pipeline_overlap}: async");
        let expect = if pipeline_overlap { edges } else { 0 };
        assert_eq!(thr.streamed_edges, expect, "overlap={pipeline_overlap}: threaded edges");
        assert_eq!(dist.streamed_edges, expect, "overlap={pipeline_overlap}: dist edges");
        assert_eq!(asy.streamed_edges, expect, "overlap={pipeline_overlap}: async edges");
        if pipeline_overlap {
            // Each of the 9 producers publishes its watermark at least
            // once (the completion flush at minimum).
            assert!(thr.watermark_pubs >= edges as u64, "threaded pubs {}", thr.watermark_pubs);
            assert!(asy.watermark_pubs >= edges as u64, "async pubs {}", asy.watermark_pubs);
        } else {
            assert_eq!(thr.watermark_pubs, 0, "barrier mode must not publish");
            assert_eq!(asy.watermark_pubs, 0, "barrier mode must not publish");
        }
    }
}

/// The headline cross-backend invariant: threaded, threaded-dist, and
/// async execution all produce buffers bit-identical to the sequential
/// reference on every shape (flat / DAG / pipeline / skewed mixture).
/// Kernels are pure in `(node, iter, task)`, so this holds regardless
/// of which thread, home queue, or driver ran each task — the run's
/// own scoped threads, or those of one [`Crew`] lent to every run of
/// the test, which then never needs more than the two a run uses.
#[test]
fn all_backends_bit_identical_on_all_shapes() {
    let kernel = SpinKernel::with_scale(2.0);
    let crew = Crew::new();
    for (name, g, opts) in graphs() {
        for policy in [PolicyKind::SelfSched, PolicyKind::Taper] {
            for lent in [None, Some(crew.clone())] {
                let on = if lent.is_some() { "crew" } else { "scoped" };
                let opts = ExecutorOptions { policy, crew: lent, ..opts.clone() };
                assert_every_backend_bitwise(
                    &format!("{name}/{}/{on}", policy.name()),
                    &g,
                    &opts,
                    &kernel,
                );
            }
        }
    }
    assert_eq!(crew.threads(), 2, "thirty lent runs of two workers each");
}

/// A run that pins its workers hands a lent thread back with the
/// affinity mask it came with: the pin is the run's, the thread is the
/// crew's.
#[cfg(target_os = "linux")]
#[test]
fn a_pinned_run_leaves_lent_threads_their_affinity() {
    use orchestra_runtime::Affinity;
    let masks = |crew: &Crew| -> std::collections::HashMap<_, _> {
        crew.run(2, |_| (std::thread::current().id(), Affinity::current())).into_iter().collect()
    };
    let crew = Crew::new();
    let before = masks(&crew);
    assert_eq!(before.len(), 2, "two calls at once run on two threads");
    assert!(before.values().all(Option::is_some), "sched_getaffinity works on Linux");
    let (g, opts) = flat_graph();
    let opts = ExecutorOptions { pin_workers: true, crew: Some(crew.clone()), ..opts };
    let kernel = SpinKernel::with_scale(2.0);
    let seq = execute_sequential(&g, &opts, &kernel).unwrap();
    let run = execute_threaded(&g, &opts, &kernel).unwrap();
    assert_eq!(seq.outputs, run.outputs);
    assert!(run.pinned_workers > 0, "no worker could pin itself: the check would be vacuous");
    assert_eq!(masks(&crew), before, "same threads, same masks");
}

/// A caller confined to one CPU confines its pinned pool too: every
/// task of a pinned 2-worker run executes under the caller's own mask,
/// never on a CPU the caller was kept off.
#[cfg(target_os = "linux")]
#[test]
fn pinned_workers_stay_inside_the_callers_cpus() {
    use orchestra_runtime::threaded::TaskCtx;
    use orchestra_runtime::{pin_current_thread, Affinity};
    use std::sync::Mutex;

    /// Records the mask each task ran under.
    struct RecordsMasks(SpinKernel, Mutex<Vec<Option<Affinity>>>);
    impl TaskKernel for RecordsMasks {
        fn run_task(&self, ctx: &TaskCtx<'_>) -> f64 {
            self.1.lock().expect("mask log poisoned").push(Affinity::current());
            self.0.run_task(ctx)
        }
    }

    let before = Affinity::current().expect("sched_getaffinity works on Linux");
    let Some(&cpu) = before.cpus().get(1) else {
        println!("skipped: needs 2 CPUs, this thread may use {:?}", before.cpus());
        return;
    };
    assert!(pin_current_thread(cpu), "the test thread confines itself to CPU {cpu}");
    let caller = Affinity::current();
    let (g, opts) = flat_graph();
    let opts = ExecutorOptions { pin_workers: true, ..opts };
    let kernel = RecordsMasks(SpinKernel::with_scale(2.0), Mutex::new(Vec::new()));
    let run = execute_threaded(&g, &opts, &kernel);
    assert!(before.apply(), "the test thread gets its mask back");
    let run = run.unwrap();
    assert_eq!(run.pinned_workers, 2, "both workers pinned");
    let masks = kernel.1.into_inner().expect("mask log poisoned");
    assert_eq!(masks.len(), 256, "one mask per task");
    for mask in masks {
        assert_eq!(mask, caller, "a worker ran outside the caller's CPU {cpu}");
    }
}

/// A kernel's panic on one server must reach the caller: the other
/// server has nothing left to claim from the op the panicking one left
/// unfinished, nor from its dependent, and would otherwise park for
/// good — with it the caller, joined to both. On the pool and on the
/// async drivers, each on scoped threads and on a lent crew; the
/// watchdog turns a hang into a failure.
#[test]
fn a_panicking_kernel_aborts_the_run_instead_of_hanging_it() {
    use orchestra_runtime::threaded::TaskCtx;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;

    struct PanicsOnTask17(SpinKernel);
    impl TaskKernel for PanicsOnTask17 {
        fn run_task(&self, ctx: &TaskCtx<'_>) -> f64 {
            assert!(ctx.node.name != "c0" || ctx.task != 17, "kernel bug");
            self.0.run_task(ctx)
        }
    }

    type Engine = fn(
        &DelirGraph,
        &ExecutorOptions,
        &(dyn TaskKernel + Sync),
    ) -> Result<orchestra_runtime::RunReport, orchestra_runtime::RunError>;
    let engines: [(&str, Engine); 2] = [("pool", execute_threaded), ("async", execute_async)];
    for (engine, execute) in engines {
        for crew in [None, Some(Crew::new())] {
            let arm = format!("{engine}/{}", if crew.is_some() { "crew" } else { "scoped" });
            let (tx, rx) = mpsc::channel();
            let runner = std::thread::spawn(move || {
                let g = shapes::chain(2, 64, 1.0, 0.4);
                let opts = ExecutorOptions { threads: 2, crew, ..ExecutorOptions::default() };
                let kernel = PanicsOnTask17(SpinKernel::with_scale(2.0));
                let run = catch_unwind(AssertUnwindSafe(|| execute(&g, &opts, &kernel)));
                let _ = tx.send(run.map(|r| r.map(|_| ())));
            });
            let run = rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{arm}: the run hung on the panicked server's op"));
            runner.join().expect("the runner caught the run's panic");
            let panic = run.expect_err("the kernel's panic must reach the caller");
            assert_eq!(panic.downcast_ref::<&str>().copied(), Some("kernel bug"), "{arm}");
        }
    }
}

/// The zero-copy data plane made observable: [`ReduceKernel`] folds a
/// value read from every upstream input slice into each task, so a
/// stale, truncated, or mis-offset arena hand-off changes output bits
/// on DAG-shaped graphs. All four backends must still match the
/// sequential owned-buffer reference exactly.
#[test]
fn reduce_kernel_dataplane_bitwise_across_backends() {
    let kernel = ReduceKernel::with_scale(2.0);
    for (name, g, opts) in graphs() {
        for policy in POLICIES {
            let opts = ExecutorOptions { policy, ..opts.clone() };
            assert_every_backend_bitwise(&format!("{name}/{}", policy.name()), &g, &opts, &kernel);
        }
    }
}

/// The paper's applications on every real backend, as the benchmark's
/// `exec_apps` runs them: TAPER at 2 workers on Threaded (pinned and
/// not), ThreadedDist and Async, each bitwise equal to the sequential
/// reference under the *same* `pipeline_overlap`. (A barriered plan
/// chains barrier edges into the kernel's inputs, so its outputs are
/// not the overlapped plan's.) Both kernels: [`SpinKernel`], which the
/// benchmark runs, and [`ReduceKernel`], which reads every input slice,
/// so a stale or torn hand-off between pieces changes output bits.
#[test]
fn paper_apps_bitwise_on_every_real_backend() {
    let spin = SpinKernel::with_scale(0.05);
    let reduce = ReduceKernel::with_scale(0.05);
    let kernels: [(&str, &(dyn TaskKernel + Sync)); 2] = [("spin", &spin), ("reduce", &reduce)];
    for (name, g, opts) in app_graphs() {
        for (kname, kernel) in kernels {
            for pipeline_overlap in [true, false] {
                for pin_workers in [false, true] {
                    let opts = ExecutorOptions {
                        policy: PolicyKind::Taper,
                        pipeline_overlap,
                        pin_workers,
                        ..opts.clone()
                    };
                    let label =
                        format!("{name}/{kname}/overlap={pipeline_overlap}/pin={pin_workers}");
                    assert_every_backend_bitwise(&label, &g, &opts, kernel);
                }
            }
        }
    }
}

/// A concurrent level with two *asymmetric* data-parallel ops: `B`
/// carries 8× the tasks of `C` at 4× the per-task cost, so the §4.1.2
/// equalizer must give them very different processor partitions and
/// the light op's workers migrate to the heavy op mid-level.
fn asymmetric_concurrent_graph() -> DelirGraph {
    shapes::diamond(2.0, (256, 4.0, 0.8), (32, 1.0, 0.2), 1.0)
}

/// The tentpole invariant: partitioning the worker pool between
/// concurrent ops — including the re-equalization that migrates a
/// fast op's freed workers into the laggard's partition — moves
/// *where* a task runs, never what it computes. Every backend must
/// stay bitwise equal to the sequential reference with the equalizer
/// on and off, at a worker count (4) that forces a real partition.
#[test]
fn concurrent_level_bitwise_equal_with_and_without_allocation() {
    let kernel = SpinKernel::with_scale(2.0);
    let g = asymmetric_concurrent_graph();
    for use_allocation in [true, false] {
        for policy in [PolicyKind::SelfSched, PolicyKind::Taper] {
            let opts = ExecutorOptions {
                policy,
                threads: 4,
                use_allocation,
                ..ExecutorOptions::default()
            };
            let label = format!("alloc={use_allocation}/{}", policy.name());
            let seq = execute_sequential(&g, &opts, &kernel).unwrap();
            let thr = execute_threaded(&g, &opts, &kernel).unwrap();
            let dist_opts =
                ExecutorOptions { backend: ExecutorBackend::ThreadedDist, ..opts.clone() };
            let dist = execute_threaded(&g, &dist_opts, &kernel).unwrap();
            let asy = execute_async(&g, &opts, &kernel).unwrap();
            for (op, counts) in thr.ops.iter().zip(&thr.exec_counts()) {
                assert!(
                    counts.iter().all(|&c| c == 1),
                    "{label}: op {} task exec counts {counts:?}",
                    op.name,
                );
            }
            assert_eq!(seq.outputs, thr.outputs, "{label}: threaded");
            assert_eq!(seq.outputs, dist.outputs, "{label}: threaded-dist");
            assert_eq!(seq.outputs, asy.outputs, "{label}: async");
        }
    }
}

/// With allocation on, reported per-op processor counts must be the
/// equalizer's actual decision, not the pool size: the two concurrent
/// ops' `procs` sum to the pool, the 8×-heavier op gets the larger
/// share, and single-op levels keep the whole pool. Checked on all
/// three real backends.
#[test]
fn equalizer_procs_sum_to_pool_size_per_concurrent_level() {
    let kernel = SpinKernel::with_scale(2.0);
    let g = asymmetric_concurrent_graph();
    let opts = ExecutorOptions {
        policy: PolicyKind::Taper,
        threads: 4,
        use_allocation: true,
        ..ExecutorOptions::default()
    };

    let check = |procs_of: &dyn Fn(&str) -> usize, pool: usize, label: &str| {
        let (b, c) = (procs_of("B"), procs_of("C"));
        assert_eq!(b + c, pool, "{label}: concurrent level must sum to the pool");
        assert!(b >= 1 && c >= 1, "{label}: every op keeps at least one processor");
        assert!(b > c, "{label}: the 8x-heavier op must get the larger share (B={b}, C={c})");
        assert_eq!(procs_of("A"), pool, "{label}: single-op level keeps the pool");
        assert_eq!(procs_of("D"), pool, "{label}: single-op level keeps the pool");
    };

    let thr = execute_threaded(&g, &opts, &kernel).unwrap();
    check(&|name| thr.ops.iter().find(|o| o.name == name).unwrap().procs, thr.workers, "threaded");

    let dist_opts = ExecutorOptions { backend: ExecutorBackend::ThreadedDist, ..opts.clone() };
    let dist = execute_threaded(&g, &dist_opts, &kernel).unwrap();
    check(
        &|name| dist.ops.iter().find(|o| o.name == name).unwrap().procs,
        dist.workers,
        "threaded-dist",
    );

    let asy = execute_async(&g, &opts, &kernel).unwrap();
    check(&|name| asy.ops.iter().find(|o| o.name == name).unwrap().procs, asy.workers, "async");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arena aliasing/bounds fuzz: random fan-out DAGs give the output
    /// arena ragged spans (op `i` has `base + i·step` tasks) and give
    /// every sink real multi-input reads. If any backend's chunk views
    /// overlapped, scattered writes crossed a span, or an input slice
    /// came from the wrong span, the [`ReduceKernel`] fold would
    /// diverge from the sequential owned-buffer reference bitwise (or
    /// the arena's bounds checks would panic the run outright).
    #[test]
    fn arena_dataplane_matches_owned_buffers_on_random_fanouts(
        ops in 1usize..5,
        tasks_base in 1usize..64,
        tasks_step in 0usize..32,
        mean_cost in 0.5f64..4.0,
        cv in 0.0f64..1.2,
        sink in proptest::bool::ANY,
    ) {
        let g = shapes::fanout(ops, tasks_base, tasks_step, mean_cost, cv, sink);
        let kernel = ReduceKernel::with_scale(1.0);
        for policy in [PolicyKind::SelfSched, PolicyKind::Taper] {
            let opts = ExecutorOptions { policy, threads: 2, ..ExecutorOptions::default() };
            let seq = execute_sequential(&g, &opts, &kernel).unwrap();
            let thr = execute_threaded(&g, &opts, &kernel).unwrap();
            let dist_opts =
                ExecutorOptions { backend: ExecutorBackend::ThreadedDist, ..opts.clone() };
            let dist = execute_threaded(&g, &dist_opts, &kernel).unwrap();
            let asy = execute_async(&g, &opts, &kernel).unwrap();
            prop_assert_eq!(&seq.outputs, &thr.outputs);
            prop_assert_eq!(&seq.outputs, &dist.outputs);
            prop_assert_eq!(&seq.outputs, &asy.outputs);
        }
    }

    /// Watermark-safety fuzz for the streamed data plane. On a random
    /// chain, [`ReduceKernel`] task `t` of op `i` reads cell `t` of op
    /// `i-1` — exactly the cell the watermark protocol must have
    /// published before the claim that handed out `t`. A consumer
    /// claiming at or above a producer's watermark would read an
    /// unwritten (zero) cell, and the wrong value would propagate down
    /// the chain into a bitwise mismatch against the sequential
    /// reference. `forced_batch` sweeps the publication granularity
    /// (including `Some(1)`, the publication-per-task hammer); high
    /// `cv` skews costs so dist-TAPER migrates tasks between home
    /// queues and the shared queues steal, stressing watermark
    /// monotonicity under reordered commits (out-of-order commits park
    /// in the frontier's pending list and can only *raise* the
    /// published prefix — bounded by one publication per task).
    #[test]
    fn streamed_chain_reads_stay_below_watermarks(
        depth in 2usize..7,
        tasks in 2usize..48,
        mean_cost in 0.5f64..3.0,
        cv in 0.0f64..1.5,
        forced_batch in 0usize..9,
        threads in 2usize..4,
    ) {
        let g = shapes::chain(depth, tasks, mean_cost, cv);
        let kernel = ReduceKernel::with_scale(1.0);
        for policy in [PolicyKind::SelfSched, PolicyKind::Taper] {
            // 0 means "let HostCalibration choose b*".
            let opts = ExecutorOptions {
                policy,
                threads,
                stream_batch: (forced_batch > 0).then_some(forced_batch),
                ..ExecutorOptions::default()
            };
            let seq = execute_sequential(&g, &opts, &kernel).unwrap();
            let thr = execute_threaded(&g, &opts, &kernel).unwrap();
            let dist_opts =
                ExecutorOptions { backend: ExecutorBackend::ThreadedDist, ..opts.clone() };
            let dist = execute_threaded(&g, &dist_opts, &kernel).unwrap();
            let asy = execute_async(&g, &opts, &kernel).unwrap();
            prop_assert_eq!(&seq.outputs, &thr.outputs);
            prop_assert_eq!(&seq.outputs, &dist.outputs);
            prop_assert_eq!(&seq.outputs, &asy.outputs);
            for run in [&thr, &dist] {
                prop_assert!(
                    run.exec_counts().iter().flatten().all(|&c| c == 1),
                    "exactly-once violated"
                );
                // Non-vacuousness: every chain edge actually streamed.
                prop_assert_eq!(run.streamed_edges, depth - 1);
                for op in &run.ops {
                    // Monotone watermarks publish a strictly larger
                    // prefix each time: at most one publication per
                    // task, and producers publish at least once.
                    prop_assert!(
                        op.watermark_pubs <= tasks as u64,
                        "op {} published {} times for {} tasks",
                        &op.name, op.watermark_pubs, tasks
                    );
                }
                prop_assert!(
                    run.watermark_pubs >= (depth - 1) as u64,
                    "every producer must publish at least once"
                );
            }
        }
    }
}
