//! Chaos differential suite: randomized worker-kill schedules against
//! every real backend × graph shape, checked bitwise against the
//! sequential reference.
//!
//! Kernels are pure in `(node, iter, task, cost_hint)`, so crash
//! recovery is *bitwise-verifiable by construction*: whichever worker's
//! planned kill fires first, whenever it fires, the restored and
//! replayed run must produce exactly the buffers an uninterrupted
//! sequential run produces. The proptest-driven tests below throw
//! ≥ 100 randomized kill schedules per backend (1–3 kills: victim ×
//! trigger × shape) at that invariant:
//!
//! * **crash + resume** — the first kill that fires aborts the whole
//!   run (a simulated process death); [`execute_graph_resumable`]
//!   restores from the latest on-disk snapshot and replays the rest
//!   once. Restored tasks show execution count 0 in the final attempt,
//!   replayed ones 1, and snapshot versions stay strictly monotone.
//! * **torn writes** — a truncated newest snapshot must be skipped in
//!   favor of the next older valid version, and the resume must still
//!   be bitwise-exact.
//!
//! The directed tests show the matrix is not vacuous: each trigger
//! fires, on each backend where it can, and forces the replay.
//!
//! The kill-schedule RNG derives from the proptest shim's fixed
//! per-test seed (`PROPTEST_SEED` reseeds it); task costs derive from
//! `ORCHESTRA_TEST_SEED` like the stress suite. The default case
//! counts stay debug-mode fast; `ORCHESTRA_CHAOS_FULL=1` multiplies
//! them for the scheduled long matrix.

mod common;

use common::shapes;
use orchestra_delirium::{DelirGraph, NodeKind};
use orchestra_runtime::executor::ExecutorOptions;
use orchestra_runtime::threaded::{execute_sequential, execute_threaded, ExecutorBackend};
use orchestra_runtime::{
    execute_graph_resumable, load_latest, snapshot_versions, AccessPattern, CheckpointSpec, Crew,
    FaultPlan, FaultTrigger, KillSpec, PolicyKind, RunReport, SpinKernel, TaskCtx, TaskKernel,
};
use proptest::collection;
use proptest::prelude::*;
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Kill schedules per backend. The default meets the suite's floor of
/// 100 schedules per backend while staying debug-mode fast; the full
/// matrix triples it.
fn kill_cases() -> u32 {
    if common::chaos_full() {
        300
    } else {
        100
    }
}

/// Single-kill crash + resume cases per backend (each case runs a
/// crashed attempt plus a restore-and-replay attempt and touches the
/// filesystem).
fn crash_cases() -> u32 {
    if common::chaos_full() {
        150
    } else {
        50
    }
}

const SHAPES: usize = 5;

/// Small instances of the five structural families — hundreds of
/// chaos replays must stay fast with debug-mode codegen. The chain
/// runs with a forced tiny stream batch so kills interleave with live
/// watermark publications on every edge.
fn chaos_graph(shape: usize) -> (&'static str, DelirGraph, ExecutorOptions) {
    let seed = common::test_seed();
    let opts = ExecutorOptions { seed, ..ExecutorOptions::default() };
    match shape {
        0 => ("flat", shapes::flat(96, 1.0, 0.6), opts),
        1 => ("dag", shapes::diamond(1.0, (48, 1.0, 0.8), (32, 1.5, 0.3), 1.0), opts),
        2 => {
            let (g, pipeline_iters) = shapes::pipeline((16, 1.0, 0.5), (6, 1.0, 0.5), 3, None);
            ("pipeline", g, ExecutorOptions { pipeline_iters, ..opts })
        }
        3 => ("mixture", shapes::mixture(&[(16, 40.0, 0.0), (48, 1.0, 0.0)], true), opts),
        _ => (
            "chain",
            shapes::chain(4, 24, 1.0, 0.5),
            ExecutorOptions { stream_batch: Some(2), ..opts },
        ),
    }
}

fn kernel() -> SpinKernel {
    SpinKernel::with_scale(0.5)
}

/// A random kill trigger. `steals` includes `OnSteal` (threaded
/// backends only — the async backend never steals).
fn trigger(steals: bool) -> BoxedStrategy<FaultTrigger> {
    let base = prop_oneof![
        (1..8u64).prop_map(FaultTrigger::AfterClaims),
        (0..4u64).prop_map(FaultTrigger::AtEpoch),
    ];
    if steals {
        prop_oneof![base, Just(FaultTrigger::OnSteal)].boxed()
    } else {
        base.boxed()
    }
}

/// 1–3 planned kills over victims `0..victims` (some may target ids
/// the run never spawns — out-of-range victims are valid no-op
/// schedule entries).
fn kills(victims: usize, steals: bool) -> impl Strategy<Value = Vec<KillSpec>> {
    collection::vec(
        (0..victims, trigger(steals)).prop_map(|(worker, trigger)| KillSpec { worker, trigger }),
        1..4usize,
    )
}

/// A plan under which whichever of the first `victims` workers (or
/// claimers) first reaches its `n`-th claim takes the run down — at
/// `n = 1` before anything executes or any snapshot is cut. A plan that
/// names one victim only crashes if that worker gets to claim often
/// enough — on a loaded host the others can drain a small graph first.
fn crash_at_claim(n: u64, victims: usize) -> FaultPlan {
    FaultPlan {
        kills: (0..victims)
            .map(|worker| KillSpec { worker, trigger: FaultTrigger::AfterClaims(n) })
            .collect(),
    }
}

/// Bitwise comparison against the independent sequential reference.
fn assert_bitwise(
    seq: &[Vec<f64>],
    got: &[Vec<f64>],
    names: &[String],
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(seq.len(), got.len(), "{}: op count", label);
    for (i, (s, t)) in seq.iter().zip(got).enumerate() {
        for (j, (a, b)) in s.iter().zip(t).enumerate() {
            prop_assert!(
                a.to_bits() == b.to_bits(),
                "{}: op {} task {j}: sequential {a:?} != chaotic {b:?}",
                label,
                names[i]
            );
        }
    }
    Ok(())
}

/// A fresh, unique snapshot directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("orchestra-chaos-{}-{tag}-{n}", std::process::id()))
}

/// Shared checks for one crash + resume case on any backend: `kill_list`
/// crashes the first attempt wherever one of its kills fires first (or
/// never, and the run is clean), and the resume must land on the
/// sequential bits.
fn check_crash_resume(
    backend: ExecutorBackend,
    shape: usize,
    kill_list: Vec<KillSpec>,
) -> Result<(), TestCaseError> {
    let (name, g, opts) = chaos_graph(shape);
    let dir = scratch_dir("resume");
    let opts = ExecutorOptions {
        backend,
        threads: 3,
        drivers: 2,
        faults: Some(FaultPlan { kills: kill_list.clone() }),
        checkpoint: Some(CheckpointSpec { dir: dir.clone(), every_claims: 2, keep: 4 }),
        ..opts
    };
    let label = format!("{backend:?}/{name}/seed={:#x}/kills={kill_list:?}", opts.seed);
    let k = kernel();
    let seq = execute_sequential(&g, &opts, &k).expect("sequential reference");
    let run = execute_graph_resumable(&g, &opts, &k).expect("resumable run");
    let result = check_resumable(&seq.outputs, &seq.op_names(), &run, &dir, &label);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The resume invariants: bitwise outputs, restored tasks not
/// re-executed, replayed tasks executed once, monotone snapshot
/// versions, and a coherent recovery story.
fn check_resumable(
    seq_outputs: &[Vec<f64>],
    names: &[String],
    run: &RunReport,
    dir: &std::path::Path,
    label: &str,
) -> Result<(), TestCaseError> {
    assert_bitwise(seq_outputs, &run.outputs, names, label)?;
    let mut restored_total = 0usize;
    let masks = run.restored();
    for (i, counts) in run.exec_counts().iter().enumerate() {
        for (t, &c) in counts.iter().enumerate() {
            let restored = masks[i][t];
            restored_total += usize::from(restored);
            prop_assert_eq!(
                c,
                u32::from(!restored),
                "{}: op {} task {}: restored={} but final-attempt count={}",
                label,
                names[i],
                t,
                restored,
                c
            );
        }
    }
    prop_assert_eq!(run.resumed_tasks, restored_total, "{}: resumed_tasks tally", label);
    prop_assert!(
        run.attempts >= 1 && run.attempts <= 2,
        "{}: {} attempts — a crash is followed by one clean replay",
        label,
        run.attempts
    );
    if run.attempts == 1 {
        // The kill never fired (out-of-range victim or trigger beyond
        // the schedule): a clean run restores nothing.
        prop_assert_eq!(run.resumed_tasks, 0, "{}: clean run restored tasks", label);
        prop_assert!(run.recovery_us == 0.0, "{}: clean run booked recovery time", label);
    }
    let versions = snapshot_versions(dir);
    prop_assert!(
        versions.windows(2).all(|w| w[0] < w[1]),
        "{}: snapshot versions not strictly monotone: {:?}",
        label,
        versions
    );
    Ok(())
}

// The `*_lease_kills_stay_exact` names predate the single fault mode,
// when a fired kill could also remove one worker and let the survivors
// finish its chunk. Every fired kill now crashes the run, so the same
// random schedules run as crash + resume.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(kill_cases()))]

    /// Shared-queue threaded backend: random kill schedules, steals
    /// included, crash the run and the resume stays exact.
    #[test]
    fn threaded_lease_kills_stay_exact(
        shape in 0..SHAPES,
        kill_list in kills(5, true),
    ) {
        check_crash_resume(ExecutorBackend::Threaded, shape, kill_list)?;
    }

    /// Distributed-TAPER backend: the epoch trigger fires on real epoch
    /// tokens here, and snapshots also cut at the §4.1.1 epoch barriers.
    #[test]
    fn dist_lease_kills_stay_exact(
        shape in 0..SHAPES,
        kill_list in kills(5, true),
    ) {
        check_crash_resume(ExecutorBackend::ThreadedDist, shape, kill_list)?;
    }

    /// Async cooperative backend: victims are claimer futures.
    #[test]
    fn async_lease_kills_stay_exact(
        shape in 0..SHAPES,
        kill_list in kills(8, false),
    ) {
        check_crash_resume(ExecutorBackend::Async, shape, kill_list)?;
    }
}

/// Two-kill plans per backend — each runs a faulted attempt plus a
/// restore-and-replay attempt.
fn combined_cases() -> u32 {
    if common::chaos_full() {
        100
    } else {
        35
    }
}

/// One plan with an early kill (claim 1–3) and a later one (claim 4–9)
/// on possibly different victims: whichever fires first crashes the run,
/// the other must not fire again in the replay, and the resume lands on
/// the sequential bits.
fn check_combined(
    backend: ExecutorBackend,
    shape: usize,
    early: (usize, u64),
    late: (usize, u64),
) -> Result<(), TestCaseError> {
    let kill =
        |(worker, n): (usize, u64)| KillSpec { worker, trigger: FaultTrigger::AfterClaims(n) };
    check_crash_resume(backend, shape, vec![kill(early), kill(late)])
}

// The `*_combined_lease_and_crash_bitwise` names come from the same
// time: the early kill was once a lease, the late one a crash.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(combined_cases()))]

    /// Threaded backend: two kills in one plan.
    #[test]
    fn threaded_combined_lease_and_crash_bitwise(
        shape in 0..SHAPES,
        early in (0..3usize, 1..4u64),
        late in (0..3usize, 4..10u64),
    ) {
        check_combined(ExecutorBackend::Threaded, shape, early, late)?;
    }

    /// Dist-TAPER backend: two kills in one plan, cut at epoch-tagged
    /// claims.
    #[test]
    fn dist_combined_lease_and_crash_bitwise(
        shape in 0..SHAPES,
        early in (0..3usize, 1..4u64),
        late in (0..3usize, 4..10u64),
    ) {
        check_combined(ExecutorBackend::ThreadedDist, shape, early, late)?;
    }

    /// Async backend: two kills on claimer futures in one plan.
    #[test]
    fn async_combined_lease_and_crash_bitwise(
        shape in 0..SHAPES,
        early in (0..6usize, 1..4u64),
        late in (0..6usize, 4..10u64),
    ) {
        check_combined(ExecutorBackend::Async, shape, early, late)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(crash_cases()))]

    /// Threaded backend crash + snapshot resume.
    #[test]
    fn threaded_crash_resume_bitwise(
        shape in 0..SHAPES,
        victim in 0..4usize,
        trig in trigger(false),
    ) {
        check_crash_resume(ExecutorBackend::Threaded, shape, vec![KillSpec { worker: victim, trigger: trig }])?;
    }

    /// Dist-TAPER backend crash + snapshot resume.
    #[test]
    fn dist_crash_resume_bitwise(
        shape in 0..SHAPES,
        victim in 0..4usize,
        trig in trigger(false),
    ) {
        check_crash_resume(ExecutorBackend::ThreadedDist, shape, vec![KillSpec { worker: victim, trigger: trig }])?;
    }

    /// Async backend crash (driver abort) + snapshot resume.
    #[test]
    fn async_crash_resume_bitwise(
        shape in 0..SHAPES,
        victim in 0..6usize,
        trig in trigger(false),
    ) {
        check_crash_resume(ExecutorBackend::Async, shape, vec![KillSpec { worker: victim, trigger: trig }])?;
    }
}

/// One directed crash + resume under `faults`: the plan must fire, so
/// the run takes exactly two attempts, and the resume must hold every
/// invariant of the randomized matrix. `k` computes what [`kernel`]`()`
/// does, which is the sequential reference's.
fn crashes_and_resumes(
    label: &str,
    g: &DelirGraph,
    opts: ExecutorOptions,
    faults: FaultPlan,
    k: &(dyn TaskKernel + Sync),
) {
    let dir = scratch_dir("directed");
    let opts = ExecutorOptions {
        faults: Some(faults),
        checkpoint: Some(CheckpointSpec { dir: dir.clone(), every_claims: 1, keep: 8 }),
        ..opts
    };
    let seq = execute_sequential(g, &opts, &kernel()).unwrap();
    let run = execute_graph_resumable(g, &opts, k).unwrap();
    assert_eq!(run.attempts, 2, "{label}: the kill must fire and force one replay");
    let checked = check_resumable(&seq.outputs, &seq.op_names(), &run, &dir, label);
    let _ = std::fs::remove_dir_all(&dir);
    checked.expect(label);
}

/// `AfterClaims` on the shared queue: 96 one-task claims over three
/// workers, so some worker reaches its third whatever the interleaving.
#[test]
fn after_claims_kill_crashes_and_resumes_threaded() {
    let (_, g, opts) = chaos_graph(0);
    let opts = ExecutorOptions {
        backend: ExecutorBackend::Threaded,
        policy: PolicyKind::SelfSched,
        threads: 3,
        ..opts
    };
    crashes_and_resumes("threaded/AfterClaims", &g, opts, crash_at_claim(3, 3), &kernel());
}

/// `AfterClaims` on the home queues: whichever worker claims first.
/// (A later claim count is not forced here — a laggard's home can be
/// re-assigned away before it claims again.)
#[test]
fn after_claims_kill_crashes_and_resumes_dist() {
    let (_, g, opts) = chaos_graph(0);
    let opts = ExecutorOptions { backend: ExecutorBackend::ThreadedDist, threads: 3, ..opts };
    crashes_and_resumes("dist/AfterClaims", &g, opts, crash_at_claim(1, 3), &kernel());
}

/// `AfterClaims` on the async claimers: 96 one-task claims over four
/// claimer futures, so some claimer reaches its third.
#[test]
fn after_claims_kill_crashes_and_resumes_async() {
    let (_, g, opts) = chaos_graph(0);
    let opts = ExecutorOptions {
        backend: ExecutorBackend::Async,
        policy: PolicyKind::SelfSched,
        drivers: 2,
        ..opts
    };
    crashes_and_resumes("async/AfterClaims", &g, opts, crash_at_claim(3, 64), &kernel());
}

/// Parks the calling task until `released` holds — a failure, not a
/// hang, when it never does.
fn hold_until(released: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !released() {
        assert!(t0.elapsed() < Duration::from_secs(60), "the hold was never released");
        std::thread::yield_now();
    }
}

/// [`kernel`]`()` with task 0 held, once, until task 48 has started.
struct HoldsTask0ForTask48 {
    inner: SpinKernel,
    started_48: AtomicBool,
    armed: AtomicBool,
}

impl TaskKernel for HoldsTask0ForTask48 {
    fn run_task(&self, ctx: &TaskCtx<'_>) -> f64 {
        if ctx.task == 48 {
            self.started_48.store(true, Ordering::SeqCst);
        }
        if ctx.task == 0 && self.armed.swap(false, Ordering::SeqCst) {
            hold_until(|| self.started_48.load(Ordering::SeqCst));
        }
        self.inner.run_task(ctx)
    }

    fn access(&self) -> AccessPattern {
        self.inner.access()
    }
}

/// `AtEpoch` on real dist epochs. Two workers own tasks 0..48 and
/// 48..96 of a uniform op (nothing is re-assigned), and worker 0 holds
/// task 0 until worker 1 has started on 48: both have tokened epoch 0,
/// so worker 0's next claim — its first chunk is at most 36 of its 48
/// tasks — is tagged epoch 1.
#[test]
fn at_epoch_kill_crashes_and_resumes_dist() {
    let g = shapes::flat(96, 1.0, 0.0);
    let opts = ExecutorOptions {
        backend: ExecutorBackend::ThreadedDist,
        threads: 2,
        seed: common::test_seed(),
        ..ExecutorOptions::default()
    };
    let k = HoldsTask0ForTask48 {
        inner: kernel(),
        started_48: AtomicBool::new(false),
        armed: AtomicBool::new(true),
    };
    let faults = FaultPlan::crash(0, FaultTrigger::AtEpoch(1));
    crashes_and_resumes("dist/AtEpoch", &g, opts, faults, &k);
}

/// Sets its flag when dropped: at the exit of the thread whose local
/// it is.
struct SetsOnExit(Arc<AtomicBool>);

impl Drop for SetsOnExit {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

thread_local! {
    static ON_EXIT: RefCell<Option<SetsOnExit>> = const { RefCell::new(None) };
}

/// [`kernel`]`()` with op B's task 0 held, once, until a thread that ran
/// op A's tasks has exited.
struct HoldsBUntilARunnerLeaves {
    inner: SpinKernel,
    a_runner_left: Arc<AtomicBool>,
    armed: AtomicBool,
}

impl TaskKernel for HoldsBUntilARunnerLeaves {
    fn run_task(&self, ctx: &TaskCtx<'_>) -> f64 {
        if ctx.node.name == "A" {
            ON_EXIT.with(|guard| {
                guard
                    .borrow_mut()
                    .get_or_insert_with(|| SetsOnExit(Arc::clone(&self.a_runner_left)));
            });
        } else if ctx.task == 0 && self.armed.swap(false, Ordering::SeqCst) {
            hold_until(|| self.a_runner_left.load(Ordering::SeqCst));
        }
        self.inner.run_task(ctx)
    }

    fn access(&self) -> AccessPattern {
        self.inner.access()
    }
}

/// `OnSteal` on the shared queues, forced. Two independent ops on two
/// workers with the pool unsplit: A's token starts on one worker, B's
/// on the other. B's runner claims B's first task — re-advertising B
/// on its own deque — and holds it until A's runner has left the run.
/// A's runner drains A, finds its own deque empty and steals B's token,
/// and its planned steal kill crashes the run. Nothing else lets it
/// leave: the run cannot finish while B's task is held.
#[test]
fn on_steal_kill_crashes_and_resumes_threaded() {
    let mut g = DelirGraph::new();
    for name in ["A", "B"] {
        g.add_node(name, NodeKind::DataParallel { tasks: 32, mean_cost: 1.0, cv: 0.0 }, None);
    }
    let opts = ExecutorOptions {
        backend: ExecutorBackend::Threaded,
        policy: PolicyKind::SelfSched,
        threads: 2,
        use_allocation: false,
        seed: common::test_seed(),
        ..ExecutorOptions::default()
    };
    let k = HoldsBUntilARunnerLeaves {
        inner: kernel(),
        a_runner_left: Arc::default(),
        armed: AtomicBool::new(true),
    };
    let steals = FaultPlan {
        kills: (0..2).map(|worker| KillSpec { worker, trigger: FaultTrigger::OnSteal }).collect(),
    };
    crashes_and_resumes("threaded/OnSteal", &g, opts, steals, &k);
}

/// The commit/publish gap under fire: with the stream batch forced to
/// the whole op, producer chunks *commit* to the frontier on every
/// claim boundary but the watermark can only *publish* when the
/// frontier completes. A clean run must publish each streamed
/// producer's watermark exactly once — the completion path's
/// `publish_all` and the last commit between them, never both. Then a
/// kill at some worker's second claim lands squarely between a
/// chunk's commit and its deferred publication: the crashed attempt
/// never publishes it, and the resumed attempt still publishes each
/// producer at most once and lands on the sequential bits.
#[test]
fn kill_between_commit_and_publish_never_double_publishes() {
    let g = shapes::chain(4, 24, 1.0, 0.5);
    for backend in [ExecutorBackend::Threaded, ExecutorBackend::ThreadedDist] {
        let opts = ExecutorOptions {
            backend,
            threads: 3,
            seed: common::test_seed(),
            stream_batch: Some(usize::MAX),
            ..ExecutorOptions::default()
        };
        let k = kernel();
        let seq = execute_sequential(&g, &opts, &k).unwrap();
        let clean = execute_threaded(&g, &opts, &k).unwrap();
        assert_eq!(seq.outputs, clean.outputs, "{backend:?}: bitwise");
        assert_eq!(clean.streamed_edges, 3, "{backend:?}: streaming must engage on the chain");
        for op in &clean.ops {
            assert!(
                op.watermark_pubs <= 1,
                "{backend:?}: op {} published {} times with a whole-op batch",
                op.name,
                op.watermark_pubs
            );
        }
        let pubs: u64 = clean.ops.iter().map(|o| o.watermark_pubs).sum();
        assert_eq!(pubs, 3, "{backend:?}: each streamed producer publishes exactly once");

        let dir = scratch_dir("publish");
        let faulted = ExecutorOptions {
            faults: Some(crash_at_claim(2, 3)),
            checkpoint: Some(CheckpointSpec { dir: dir.clone(), every_claims: 1, keep: 8 }),
            ..opts
        };
        let run = execute_graph_resumable(&g, &faulted, &k).unwrap();
        let label = format!("{backend:?}: kill between commit and publish");
        let checked = check_resumable(&seq.outputs, &seq.op_names(), &run, &dir, &label);
        let _ = std::fs::remove_dir_all(&dir);
        checked.expect(&label);
        assert!(run.ops.iter().all(|op| op.watermark_pubs <= 1), "{label}: a double publication");
    }
}

/// Crash + resume across the streamed data plane: the first attempt
/// dies mid-stream (watermarks partially published), and the resumed
/// attempt's remapped ops must fall back to whole-op gating without
/// re-publishing restored prefixes — bitwise-exact, restored tasks
/// never re-executed.
#[test]
fn crash_resume_mid_stream_stays_exact() {
    let g = shapes::chain(4, 16, 1.0, 0.3);
    let dir = scratch_dir("stream");
    let opts = ExecutorOptions {
        backend: ExecutorBackend::Threaded,
        threads: 3,
        seed: common::test_seed(),
        stream_batch: Some(2),
        faults: Some(FaultPlan::crash(0, FaultTrigger::AfterClaims(3))),
        checkpoint: Some(CheckpointSpec { dir: dir.clone(), every_claims: 1, keep: 8 }),
        ..ExecutorOptions::default()
    };
    let k = kernel();
    let seq = execute_sequential(&g, &opts, &k).unwrap();
    let run = execute_graph_resumable(&g, &opts, &k).unwrap();
    assert_eq!(seq.outputs, run.outputs, "mid-stream resume diverged from sequential");
    let restored = run.restored();
    for (i, counts) in run.exec_counts().iter().enumerate() {
        for (t, &c) in counts.iter().enumerate() {
            assert_eq!(
                c,
                u32::from(!restored[i][t]),
                "op {i} task {t}: restored tasks must not re-execute"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash + resume on a lent [`Crew`]: the aborted attempt's workers go
/// back to the crew and the resumed attempt runs on the same three
/// threads — still bitwise-exact, restored tasks never re-executed.
#[test]
fn crash_resume_on_a_lent_crew_reuses_the_aborted_attempts_threads() {
    let (_, g, opts) = chaos_graph(0);
    let dir = scratch_dir("crew");
    let crew = Crew::new();
    // One claim per task, and whichever worker first makes three
    // crashes the run: 96 claims over 3 workers cannot avoid it.
    let opts = ExecutorOptions {
        backend: ExecutorBackend::Threaded,
        policy: PolicyKind::SelfSched,
        threads: 3,
        faults: Some(crash_at_claim(3, 3)),
        checkpoint: Some(CheckpointSpec { dir: dir.clone(), every_claims: 1, keep: 4 }),
        crew: Some(crew.clone()),
        ..opts
    };
    let k = kernel();
    let seq = execute_sequential(&g, &opts, &k).unwrap();
    let run = execute_graph_resumable(&g, &opts, &k).unwrap();
    assert_eq!(run.attempts, 2, "the first attempt must crash, the second finish");
    let checked = check_resumable(&seq.outputs, &seq.op_names(), &run, &dir, "lent crew");
    let _ = std::fs::remove_dir_all(&dir);
    checked.expect("the resume invariants hold on a lent crew");
    assert_eq!(crew.threads(), 3, "both attempts ran on the same three threads");
}

/// A crash with no checkpoint spec must still converge: the resumable
/// driver simply restarts from scratch, restoring nothing.
#[test]
fn crash_without_checkpoint_restarts_from_scratch() {
    let (_, g, opts) = chaos_graph(0);
    let opts = ExecutorOptions {
        backend: ExecutorBackend::Threaded,
        threads: 3,
        faults: Some(crash_at_claim(1, 3)),
        ..opts
    };
    let k = kernel();
    let seq = execute_sequential(&g, &opts, &k).unwrap();
    let run = execute_graph_resumable(&g, &opts, &k).unwrap();
    assert_eq!(run.attempts, 2, "first attempt must crash, second must finish");
    assert_eq!(run.resumed_tasks, 0, "no snapshots to restore from");
    assert_eq!(seq.outputs, run.outputs);
    assert!(run.exec_counts().iter().flatten().all(|&c| c == 1));
    assert!(run.recovery_us > 0.0);
}

/// Torn-write recovery: truncate the newest snapshot mid-record and
/// the loader must fall back to the next older valid version; a
/// crash + resume against the torn directory stays bitwise-exact.
#[test]
fn torn_snapshot_falls_back_to_older_version() {
    let (_, g, opts) = chaos_graph(0);
    let dir = scratch_dir("torn");
    let k = kernel();
    let fingerprint = orchestra_runtime::graph_fingerprint(&g, &opts).unwrap();

    // Stage 1: a clean checkpointed run fills the directory with
    // several snapshot versions.
    let seed_opts = ExecutorOptions {
        backend: ExecutorBackend::Threaded,
        threads: 2,
        checkpoint: Some(CheckpointSpec { dir: dir.clone(), every_claims: 1, keep: 64 }),
        ..opts.clone()
    };
    let seq = execute_sequential(&g, &seed_opts, &k).unwrap();
    execute_threaded(&g, &seed_opts, &k).unwrap();
    let versions = snapshot_versions(&dir);
    assert!(versions.len() >= 2, "need ≥ 2 snapshots to test fallback, got {versions:?}");

    // Stage 2: tear the newest snapshot — chop off its crc tail. The
    // loader must skip it and serve the next older version.
    let newest = versions[versions.len() - 1];
    let fallback = versions[versions.len() - 2];
    let newest_path = dir.join(format!("ckpt-{newest:016x}.bin"));
    let bytes = std::fs::read(&newest_path).unwrap();
    assert!(bytes.len() > 8);
    std::fs::write(&newest_path, &bytes[..bytes.len() - 7]).unwrap();
    let loaded = load_latest(&dir, fingerprint).expect("an older valid snapshot");
    assert_eq!(loaded.version(), fallback, "loader did not fall back past the torn file");

    // Stage 3: crash + resume with the claim cadence off, so the torn
    // file stays the newest on disk and recovery must go through the
    // fallback path. The resumed run is still bitwise-exact.
    let crash_opts = ExecutorOptions {
        threads: 3,
        faults: Some(crash_at_claim(1, 3)),
        checkpoint: Some(CheckpointSpec { dir: dir.clone(), every_claims: 0, keep: 64 }),
        ..seed_opts.clone()
    };
    let run = execute_graph_resumable(&g, &crash_opts, &k).unwrap();
    assert_eq!(run.attempts, 2);
    assert_eq!(
        run.resumed_tasks,
        loaded.completed_tasks(),
        "resume did not restore the fallback snapshot's frontier"
    );
    assert_eq!(seq.outputs, run.outputs, "torn-write resume diverged from sequential");
    let restored = run.restored();
    for (i, counts) in run.exec_counts().iter().enumerate() {
        for (t, &c) in counts.iter().enumerate() {
            assert_eq!(c, u32::from(!restored[i][t]), "op {i} task {t}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One snapshot, three backends. Restore is the run core's job, not
/// a driver's: resumed from the *same* on-disk image, the threaded,
/// dist-TAPER and async backends must restore the same tasks, stream
/// the same edges, give every op the same equalizer share, and land
/// on the sequential bits.
///
/// Staging: a clean checkpointed run leaves one snapshot per claim; a
/// middle version (partial by construction) is copied alone into a
/// fresh directory per backend. Every worker and claimer is then
/// planned to crash at its *first* claim (`crash_at_claim`), so
/// each backend's second attempt restores exactly the staged image.
#[test]
fn one_snapshot_resumes_identically_on_every_backend() {
    let k = kernel();
    for shape in [1, 4] {
        let (name, g, opts) = chaos_graph(shape);
        let fingerprint = orchestra_runtime::graph_fingerprint(&g, &opts).unwrap();
        let seq = execute_sequential(&g, &opts, &k).unwrap();
        let total: usize = seq.outputs.iter().map(Vec::len).sum();

        let staged = scratch_dir("staged");
        let stage_opts = ExecutorOptions {
            threads: 2,
            checkpoint: Some(CheckpointSpec { dir: staged.clone(), every_claims: 1, keep: 64 }),
            ..opts.clone()
        };
        execute_threaded(&g, &stage_opts, &k).unwrap();
        let versions = snapshot_versions(&staged);
        let file = format!("ckpt-{:016x}.bin", versions[versions.len() / 2]);

        let mut runs = Vec::new();
        for backend in
            [ExecutorBackend::Threaded, ExecutorBackend::ThreadedDist, ExecutorBackend::Async]
        {
            let dir = scratch_dir("shared-image");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::copy(staged.join(&file), dir.join(&file)).unwrap();
            let image = load_latest(&dir, fingerprint).expect("the staged snapshot loads");
            assert!(
                image.completed_tasks() > 0 && image.completed_tasks() < total,
                "{name}: staged image must be partial, holds {} of {total}",
                image.completed_tasks()
            );
            let run_opts = ExecutorOptions {
                backend,
                threads: 3,
                drivers: 3,
                faults: Some(crash_at_claim(1, 64)),
                checkpoint: Some(CheckpointSpec { dir: dir.clone(), every_claims: 0, keep: 64 }),
                ..opts.clone()
            };
            let run = execute_graph_resumable(&g, &run_opts, &k).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(run.attempts, 2, "{name}/{backend:?}: crash, then one clean replay");
            assert_eq!(run.resumed_tasks, image.completed_tasks(), "{name}/{backend:?}");
            assert_eq!(seq.outputs, run.outputs, "{name}/{backend:?}: diverged from sequential");
            let restored = run.restored();
            for (i, counts) in run.exec_counts().iter().enumerate() {
                for (t, &c) in counts.iter().enumerate() {
                    assert_eq!(
                        c,
                        u32::from(!restored[i][t]),
                        "{name}/{backend:?}: op {i} task {t}"
                    );
                }
            }
            runs.push((backend, run));
        }
        let _ = std::fs::remove_dir_all(&staged);
        let (_, first) = &runs[0];
        let procs = |r: &RunReport| -> Vec<usize> { r.ops.iter().map(|o| o.procs).collect() };
        for (backend, run) in &runs[1..] {
            assert_eq!(first.restored(), run.restored(), "{name}/{backend:?}: restored masks");
            assert_eq!(
                first.streamed_edges, run.streamed_edges,
                "{name}/{backend:?}: streamed edges"
            );
            assert_eq!(procs(first), procs(run), "{name}/{backend:?}: equalizer shares");
            assert_eq!(first.outputs, run.outputs, "{name}/{backend:?}: outputs");
        }
    }
}

/// Checkpointing alone (no faults) must not perturb results, and a
/// completed run's snapshots must be strictly monotone and loadable.
#[test]
fn checkpointing_clean_run_is_invisible_and_monotone() {
    for shape in 0..SHAPES {
        let (name, g, opts) = chaos_graph(shape);
        let dir = scratch_dir("clean");
        let run_opts = ExecutorOptions {
            backend: ExecutorBackend::ThreadedDist,
            threads: 3,
            checkpoint: Some(CheckpointSpec { dir: dir.clone(), every_claims: 2, keep: 4 }),
            ..opts
        };
        let k = kernel();
        let seq = execute_sequential(&g, &run_opts, &k).unwrap();
        let thr = execute_threaded(&g, &run_opts, &k).unwrap();
        assert!(!thr.crashed);
        assert_eq!(seq.outputs, thr.outputs, "{name}: checkpointing changed results");
        let versions = snapshot_versions(&dir);
        assert!(versions.windows(2).all(|w| w[0] < w[1]), "{name}: versions {versions:?}");
        assert!(versions.len() <= 4, "{name}: pruning kept {} versions", versions.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
