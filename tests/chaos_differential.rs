//! Chaos differential suite: randomized worker-kill schedules against
//! every real backend × graph shape, checked bitwise against the
//! sequential reference.
//!
//! Kernels are pure in `(node, iter, task, cost_hint)`, so fault
//! recovery is *bitwise-verifiable by construction*: whatever workers
//! die, whenever they die, the surviving schedule must produce exactly
//! the buffers an uninterrupted sequential run produces, with every
//! task executed exactly once. The proptest-driven tests below throw
//! ≥ 100 randomized kill schedules per backend (victim × trigger ×
//! schedule length × shape) at that invariant:
//!
//! * **lease mode** — killed workers orphan their freshly claimed
//!   chunk as a lease; survivors adopt it. The run completes
//!   in-process, `crashed` stays false.
//! * **crash mode** — the first kill aborts the whole run (a simulated
//!   process death); [`execute_graph_resumable`] restores from the
//!   latest on-disk snapshot and replays the rest. Restored tasks show
//!   execution count 0 in the final attempt, replayed ones 1, and
//!   snapshot versions stay strictly monotone.
//! * **torn writes** — a truncated newest snapshot must be skipped in
//!   favor of the next older valid version, and the resume must still
//!   be bitwise-exact.
//!
//! The kill-schedule RNG derives from the proptest shim's fixed
//! per-test seed (`PROPTEST_SEED` reseeds it); task costs derive from
//! `ORCHESTRA_TEST_SEED` like the stress suite. The default case
//! counts stay debug-mode fast; `ORCHESTRA_CHAOS_FULL=1` multiplies
//! them for the scheduled long matrix.

mod common;

use common::shapes;
use orchestra_delirium::DelirGraph;
use orchestra_runtime::executor::ExecutorOptions;
use orchestra_runtime::threaded::{execute_sequential, execute_threaded, ExecutorBackend};
use orchestra_runtime::{
    execute_async, execute_graph_resumable, load_latest, snapshot_versions, CheckpointSpec, Crew,
    FaultPlan, FaultTrigger, KillSpec, PolicyKind, RunReport, SpinKernel,
};
use proptest::collection;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Kill schedules per proptest target. The default meets the suite's
/// floor of 100 schedules per backend while staying debug-mode fast;
/// the full matrix triples it.
fn lease_cases() -> u32 {
    if common::chaos_full() {
        300
    } else {
        100
    }
}

/// Crash + resume cases per backend (each case runs a crashed attempt
/// plus a restore-and-replay attempt and touches the filesystem).
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

/// A crash-mode plan under which whichever of the first `victims`
/// workers (or claimers) claims first takes the run down, before
/// anything executes or any snapshot is cut. A plan that names one
/// victim only crashes if that worker gets to claim at all — on a
/// loaded host the others can drain a small graph first.
fn crash_at_first_claim(victims: usize) -> FaultPlan {
    FaultPlan {
        kills: (0..victims)
            .map(|worker| KillSpec { worker, trigger: FaultTrigger::AfterClaims(1) })
            .collect(),
        crash_run: true,
        crash_kills: Vec::new(),
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

/// Shared checks for one lease-mode threaded/dist case.
fn check_threaded_lease(
    backend: ExecutorBackend,
    shape: usize,
    kill_list: Vec<KillSpec>,
) -> Result<(), TestCaseError> {
    let (name, g, opts) = chaos_graph(shape);
    let opts = ExecutorOptions {
        backend,
        threads: 3,
        faults: Some(FaultPlan { kills: kill_list.clone(), ..FaultPlan::default() }),
        ..opts
    };
    let label = format!("{backend:?}/{name}/seed={:#x}/kills={kill_list:?}", opts.seed);
    let k = kernel();
    let seq = execute_sequential(&g, &opts, &k).expect("sequential reference");
    let thr = execute_threaded(&g, &opts, &k).expect("chaotic run");
    prop_assert!(!thr.crashed, "{}: lease-mode run reported crashed", label);
    for (op, counts) in thr.ops.iter().zip(&thr.exec_counts) {
        prop_assert!(
            counts.iter().all(|&c| c == 1),
            "{}: op {} exec counts {:?} not exactly-once",
            label,
            op.name,
            counts
        );
    }
    assert_bitwise(&seq.outputs, &thr.outputs, &seq.op_names(), &label)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(lease_cases()))]

    /// Shared-queue threaded backend: random kill schedules leave the
    /// run exactly-once and bitwise-exact.
    #[test]
    fn threaded_lease_kills_stay_exact(
        shape in 0..SHAPES,
        kill_list in kills(5, true),
    ) {
        check_threaded_lease(ExecutorBackend::Threaded, shape, kill_list)?;
    }

    /// Distributed-TAPER backend: kills land mid-epoch (the epoch
    /// trigger fires on real epoch tokens here), orphaned home queues
    /// are adopted, and epoch completion excuses the dead.
    #[test]
    fn dist_lease_kills_stay_exact(
        shape in 0..SHAPES,
        kill_list in kills(5, true),
    ) {
        check_threaded_lease(ExecutorBackend::ThreadedDist, shape, kill_list)?;
    }

    /// Async cooperative backend: victims are claimer futures; a
    /// killed claimer's chunk goes through the per-op orphan board.
    #[test]
    fn async_lease_kills_stay_exact(
        shape in 0..SHAPES,
        kill_list in kills(8, false),
    ) {
        let (name, g, opts) = chaos_graph(shape);
        let opts = ExecutorOptions {
            drivers: 2,
            faults: Some(FaultPlan { kills: kill_list.clone(), ..FaultPlan::default() }),
            ..opts
        };
        let label = format!("async/{name}/seed={:#x}/kills={kill_list:?}", opts.seed);
        let k = kernel();
        let seq = execute_sequential(&g, &opts, &k).expect("sequential reference");
        let run = execute_async(&g, &opts, &k).expect("chaotic run");
        prop_assert!(!run.crashed, "{}: lease-mode run reported crashed", label);
        for (op, counts) in run.ops.iter().zip(&run.exec_counts) {
            prop_assert!(
                counts.iter().all(|&c| c == 1),
                "{}: op {} exec counts {:?} not exactly-once",
                label, op.name, counts
            );
        }
        assert_bitwise(&seq.outputs, &run.outputs, &seq.op_names(), &label)?;
    }
}

/// Shared checks for one crash-mode resume case on any backend.
fn check_crash_resume(
    backend: ExecutorBackend,
    shape: usize,
    victim: usize,
    trig: FaultTrigger,
) -> Result<(), TestCaseError> {
    let (name, g, opts) = chaos_graph(shape);
    let dir = scratch_dir("resume");
    let opts = ExecutorOptions {
        backend,
        threads: 3,
        drivers: 2,
        faults: Some(FaultPlan::crash(victim, trig)),
        checkpoint: Some(CheckpointSpec { dir: dir.clone(), every_claims: 2, keep: 4 }),
        ..opts
    };
    let label = format!("{backend:?}/{name}/seed={:#x}/kill={victim}@{trig:?}", opts.seed);
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
    for (i, counts) in run.exec_counts.iter().enumerate() {
        for (t, &c) in counts.iter().enumerate() {
            let restored = run.restored[i][t];
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
        run.attempts >= 1 && run.attempts <= 3,
        "{}: {} attempts for a single planned crash",
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(crash_cases()))]

    /// Threaded backend crash + snapshot resume.
    #[test]
    fn threaded_crash_resume_bitwise(
        shape in 0..SHAPES,
        victim in 0..4usize,
        trig in trigger(false),
    ) {
        check_crash_resume(ExecutorBackend::Threaded, shape, victim, trig)?;
    }

    /// Dist-TAPER backend crash + snapshot resume: snapshots also cut
    /// at the §4.1.1 epoch barriers, and `AtEpoch` triggers fire on
    /// real epoch tokens.
    #[test]
    fn dist_crash_resume_bitwise(
        shape in 0..SHAPES,
        victim in 0..4usize,
        trig in trigger(false),
    ) {
        check_crash_resume(ExecutorBackend::ThreadedDist, shape, victim, trig)?;
    }

    /// Async backend crash (driver abort) + snapshot resume.
    #[test]
    fn async_crash_resume_bitwise(
        shape in 0..SHAPES,
        victim in 0..6usize,
        trig in trigger(false),
    ) {
        check_crash_resume(ExecutorBackend::Async, shape, victim, trig)?;
    }
}

/// The non-vacuousness guard for the randomized matrix: a kill at the
/// victim's *first* claim really removes it. The victim dies at the
/// claim boundary before executing anything, so its measured task
/// count is 0 and the survivor replays the whole op — including the
/// orphaned lease — exactly once.
#[test]
fn lease_kill_really_removes_the_victim() {
    let (_, g, opts) = chaos_graph(0);
    let opts = ExecutorOptions {
        backend: ExecutorBackend::Threaded,
        threads: 2,
        policy: orchestra_runtime::chunking::PolicyKind::SelfSched,
        faults: Some(FaultPlan::kill(0, FaultTrigger::AfterClaims(1))),
        ..opts
    };
    let k = kernel();
    let seq = execute_sequential(&g, &opts, &k).unwrap();
    let thr = execute_threaded(&g, &opts, &k).unwrap();
    assert!(!thr.crashed);
    assert!(thr.exec_counts.iter().flatten().all(|&c| c == 1));
    assert_eq!(seq.outputs, thr.outputs);
    assert_eq!(
        thr.worker_timing[0].count(),
        0,
        "the victim executed tasks after its first-claim kill"
    );
    assert_eq!(
        thr.worker_timing[1].count(),
        96,
        "the survivor must replay every task, including the orphaned lease"
    );
}

/// The commit/publish gap under fire: with the stream batch forced to
/// the whole op, producer chunks *commit* to the frontier on every
/// claim boundary but the watermark can only *publish* when the
/// frontier completes — so lease kills land squarely between a chunk's
/// commit and its (deferred) publication. The lease replay, scattered
/// orphan writes, and the completion-path `publish_all` must between
/// them publish each producer's watermark exactly once: a lost
/// publication would deadlock blocked consumers (the run would hang),
/// a double publication would show up in the per-op counter.
#[test]
fn kill_between_commit_and_publish_never_double_publishes() {
    let g = shapes::chain(4, 24, 1.0, 0.5);
    for backend in [ExecutorBackend::Threaded, ExecutorBackend::ThreadedDist] {
        let opts = ExecutorOptions {
            backend,
            threads: 3,
            seed: common::test_seed(),
            stream_batch: Some(usize::MAX),
            faults: Some(FaultPlan {
                kills: vec![
                    KillSpec { worker: 0, trigger: FaultTrigger::AfterClaims(1) },
                    KillSpec { worker: 1, trigger: FaultTrigger::AfterClaims(3) },
                ],
                ..FaultPlan::default()
            }),
            ..ExecutorOptions::default()
        };
        let k = kernel();
        let seq = execute_sequential(&g, &opts, &k).unwrap();
        let thr = execute_threaded(&g, &opts, &k).unwrap();
        assert!(!thr.crashed, "{backend:?}: lease-mode run reported crashed");
        assert!(thr.exec_counts.iter().flatten().all(|&c| c == 1), "{backend:?}: exactly-once");
        assert_eq!(seq.outputs, thr.outputs, "{backend:?}: bitwise");
        assert_eq!(thr.streamed_edges, 3, "{backend:?}: streaming must engage on the chain");
        for op in &thr.ops {
            assert!(
                op.watermark_pubs <= 1,
                "{backend:?}: op {} published {} times with a whole-op batch",
                op.name,
                op.watermark_pubs
            );
        }
        let pubs: u64 = thr.ops.iter().map(|o| o.watermark_pubs).sum();
        assert_eq!(pubs, 3, "{backend:?}: each streamed producer publishes exactly once");
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
    for (i, counts) in run.exec_counts.iter().enumerate() {
        for (t, &c) in counts.iter().enumerate() {
            assert_eq!(
                c,
                u32::from(!run.restored[i][t]),
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
    let crash = FaultPlan {
        kills: (0..3)
            .map(|worker| KillSpec { worker, trigger: FaultTrigger::AfterClaims(3) })
            .collect(),
        crash_run: true,
        crash_kills: Vec::new(),
    };
    let opts = ExecutorOptions {
        backend: ExecutorBackend::Threaded,
        policy: PolicyKind::SelfSched,
        threads: 3,
        faults: Some(crash),
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
        faults: Some(crash_at_first_claim(3)),
        ..opts
    };
    let k = kernel();
    let seq = execute_sequential(&g, &opts, &k).unwrap();
    let run = execute_graph_resumable(&g, &opts, &k).unwrap();
    assert_eq!(run.attempts, 2, "first attempt must crash, second must finish");
    assert_eq!(run.resumed_tasks, 0, "no snapshots to restore from");
    assert_eq!(seq.outputs, run.outputs);
    assert!(run.exec_counts.iter().flatten().all(|&c| c == 1));
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
        faults: Some(crash_at_first_claim(3)),
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
    for (i, counts) in run.exec_counts.iter().enumerate() {
        for (t, &c) in counts.iter().enumerate() {
            assert_eq!(c, u32::from(!run.restored[i][t]), "op {i} task {t}");
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
/// planned to crash at its *first* claim (`crash_at_first_claim`), so
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
                faults: Some(crash_at_first_claim(64)),
                checkpoint: Some(CheckpointSpec { dir: dir.clone(), every_claims: 0, keep: 64 }),
                ..opts.clone()
            };
            let run = execute_graph_resumable(&g, &run_opts, &k).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(run.attempts, 2, "{name}/{backend:?}: crash, then one clean replay");
            assert_eq!(run.resumed_tasks, image.completed_tasks(), "{name}/{backend:?}");
            assert_eq!(seq.outputs, run.outputs, "{name}/{backend:?}: diverged from sequential");
            for (i, counts) in run.exec_counts.iter().enumerate() {
                for (t, &c) in counts.iter().enumerate() {
                    assert_eq!(
                        c,
                        u32::from(!run.restored[i][t]),
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
            assert_eq!(first.restored, run.restored, "{name}/{backend:?}: restored masks");
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

/// Shared checks for one *combined*-failure case: a lease-mode kill
/// recovers in-process, and a crash-mode kill aborts the same run —
/// the way real incidents compound (a worker dies, the survivors
/// absorb its lease, then the whole process goes down). Resume must
/// still replay to the bitwise sequential result.
fn check_combined_failure(
    backend: ExecutorBackend,
    shape: usize,
    lease_victim: usize,
    lease_claims: u64,
    crash_victim: usize,
    crash_claims: u64,
) -> Result<(), TestCaseError> {
    let (name, g, opts) = chaos_graph(shape);
    let dir = scratch_dir("combined");
    let opts = ExecutorOptions {
        backend,
        threads: 3,
        drivers: 2,
        faults: Some(FaultPlan::combined(
            vec![KillSpec {
                worker: lease_victim,
                trigger: FaultTrigger::AfterClaims(lease_claims),
            }],
            KillSpec { worker: crash_victim, trigger: FaultTrigger::AfterClaims(crash_claims) },
        )),
        checkpoint: Some(CheckpointSpec { dir: dir.clone(), every_claims: 2, keep: 4 }),
        ..opts
    };
    let label = format!(
        "{backend:?}/{name}/seed={:#x}/lease={lease_victim}@{lease_claims}/crash={crash_victim}@{crash_claims}",
        opts.seed
    );
    let k = kernel();
    let seq = execute_sequential(&g, &opts, &k).expect("sequential reference");
    let run = execute_graph_resumable(&g, &opts, &k).expect("combined resumable run");
    // The generic resume invariants (bitwise outputs, restored tasks
    // never re-executed, monotone snapshot versions) carry over
    // wholesale; the combined plan has exactly one crash kill, so the
    // attempt bound of `check_resumable` still holds.
    let result = check_resumable(&seq.outputs, &seq.op_names(), &run, &dir, &label);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Combined cases per backend — each runs a doubly-faulted attempt
/// plus a restore-and-replay attempt.
fn combined_cases() -> u32 {
    if common::chaos_full() {
        100
    } else {
        35
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(combined_cases()))]

    /// Threaded backend: lease kill + later crash in one run.
    #[test]
    fn threaded_combined_lease_and_crash_bitwise(
        shape in 0..SHAPES,
        lease_victim in 0..3usize,
        lease_claims in 1..4u64,
        crash_victim in 0..3usize,
        crash_claims in 4..10u64,
    ) {
        check_combined_failure(
            ExecutorBackend::Threaded, shape, lease_victim, lease_claims, crash_victim, crash_claims,
        )?;
    }

    /// Dist-TAPER backend: the lease recovery adopts the dead home
    /// queue, then the crash cuts the run at an epoch-tagged claim.
    #[test]
    fn dist_combined_lease_and_crash_bitwise(
        shape in 0..SHAPES,
        lease_victim in 0..3usize,
        lease_claims in 1..4u64,
        crash_victim in 0..3usize,
        crash_claims in 4..10u64,
    ) {
        check_combined_failure(
            ExecutorBackend::ThreadedDist, shape, lease_victim, lease_claims, crash_victim, crash_claims,
        )?;
    }

    /// Async backend: a claimer's orphaned chunk is adopted by a
    /// sibling, then a crash kill aborts the scheduler.
    #[test]
    fn async_combined_lease_and_crash_bitwise(
        shape in 0..SHAPES,
        lease_victim in 0..6usize,
        lease_claims in 1..4u64,
        crash_victim in 0..6usize,
        crash_claims in 4..10u64,
    ) {
        check_combined_failure(
            ExecutorBackend::Async, shape, lease_victim, lease_claims, crash_victim, crash_claims,
        )?;
    }
}

/// The non-vacuousness guard for the combined matrix: with both kills
/// on fixed early triggers, the first attempt really does absorb a
/// lease *and* crash, and the resume still lands bitwise.
#[test]
fn combined_failure_really_fires_both_kills() {
    let (_, g, opts) = chaos_graph(0);
    let dir = scratch_dir("combined-pinned");
    let opts = ExecutorOptions {
        backend: ExecutorBackend::Threaded,
        // Two workers make the schedule deterministic: worker 0 dies on
        // its first claim, so worker 1 is the *only* surviving claimer
        // and its per-worker claim counter must reach 4. (With a third
        // worker the one that wins the every-claim snapshot slot blocks
        // in the fsync while the other drains the queue, and the victim
        // may never reach its trigger.)
        threads: 2,
        policy: orchestra_runtime::PolicyKind::SelfSched,
        faults: Some(FaultPlan::combined(
            vec![KillSpec { worker: 0, trigger: FaultTrigger::AfterClaims(1) }],
            KillSpec { worker: 1, trigger: FaultTrigger::AfterClaims(4) },
        )),
        checkpoint: Some(CheckpointSpec { dir: dir.clone(), every_claims: 1, keep: 8 }),
        ..opts
    };
    let k = kernel();
    let seq = execute_sequential(&g, &opts, &k).unwrap();
    let run = execute_graph_resumable(&g, &opts, &k).unwrap();
    assert_eq!(run.attempts, 2, "the crash kill must fire and force a resume");
    assert!(run.resumed_tasks > 0, "the resume must restore from a snapshot");
    assert_eq!(seq.outputs, run.outputs, "combined failure diverged from sequential");
    let _ = std::fs::remove_dir_all(&dir);
}
