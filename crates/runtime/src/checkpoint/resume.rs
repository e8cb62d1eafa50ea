//! Crash recovery: restore from the latest valid snapshot and replay
//! to completion.

use super::snapshot::{load_latest, plan_fingerprint, OpSnapshot, Snapshot};
use crate::cancel::RunError;
use crate::executor::ExecutorOptions;
use crate::run::RunReport;
use crate::threaded::{build_plan, ExecutorBackend, Plan, TaskKernel};
use orchestra_delirium::DelirGraph;
use std::time::{Duration, Instant};

/// The restore image handed to a backend: the per-op state of one
/// snapshot — completed-task masks, the completed tasks' outputs, and
/// the cost statistics that warm-start the chunk policies — accepted
/// only after validating it against the plan. The empty image (no ops)
/// is a fresh run.
pub(crate) struct ResumeState {
    pub(crate) ops: Vec<OpSnapshot>,
}

impl ResumeState {
    /// The image of a fresh run: nothing restored.
    pub(crate) fn empty() -> Self {
        ResumeState { ops: Vec::new() }
    }

    /// Validates a snapshot against the plan (op count and per-op task
    /// counts must match — the fingerprint should already guarantee
    /// this, but a hash collision must degrade to a fresh start, not
    /// an out-of-bounds restore).
    pub(crate) fn from_snapshot(snap: Snapshot, plan: &Plan) -> Option<Self> {
        let fits = snap.ops.len() == plan.ops.len()
            && snap.ops.iter().zip(&plan.ops).all(|(s, p)| s.completed.len() == p.tasks);
        fits.then_some(ResumeState { ops: snap.ops })
    }
}

/// Executes a graph with crash recovery: run, and if a planned kill
/// crashes the attempt, restore from the latest valid snapshot in
/// `opts.checkpoint.dir` (falling back past torn or corrupt files) and
/// replay the remaining tasks. The injected faults apply only to the
/// first attempt — a simulated process crash happens once — so the one
/// replay runs clean.
///
/// The report is the final attempt's, with the recovery story folded
/// in: `attempts` counts the crashed execution too, `wall_us` sums
/// both attempts, `recovery_us` is the replay's, and `restored()` /
/// `resumed_tasks` / `exec_counts()` say which tasks came out of the
/// snapshot (count 0) instead of being replayed (count 1).
///
/// Backends: [`Threaded`](ExecutorBackend::Threaded) /
/// [`ThreadedDist`](ExecutorBackend::ThreadedDist) /
/// [`Async`](ExecutorBackend::Async); the default
/// [`Simulated`](ExecutorBackend::Simulated) backend executes on the
/// threaded engine (simulation has no real state to checkpoint).
/// Without a checkpoint spec a crash simply restarts from scratch.
///
/// # Errors
///
/// Returns the graph's validation error when it is malformed, or the
/// cancellation/deadline error when the caller aborted the run —
/// cancellation is never retried: an evicted tenant's graph must not
/// resurrect itself from its own snapshots. The deadline is the whole
/// call's: the replay runs under what the crashed attempt left of it,
/// and is not started when nothing is left.
pub fn execute_graph_resumable(
    g: &DelirGraph,
    opts: &ExecutorOptions,
    kernel: &(dyn TaskKernel + Sync),
) -> Result<RunReport, RunError> {
    let expires = opts.deadline.map(|d| Instant::now() + d);
    let plan = build_plan(g, opts)?;
    let attempt = |opts: &ExecutorOptions, resume: &ResumeState| {
        if opts.backend == ExecutorBackend::Async {
            crate::asynch::run_async(g, &plan, opts, kernel, resume)
        } else {
            crate::threaded::run_threaded(g, &plan, opts, kernel, resume)
        }
    };
    let first = attempt(opts, &ResumeState::empty())?;
    if !first.crashed {
        return Ok(first);
    }
    let fingerprint = plan_fingerprint(&plan, opts.seed);
    let resume = opts
        .checkpoint
        .as_ref()
        .and_then(|spec| load_latest(&spec.dir, fingerprint))
        .and_then(|snap| ResumeState::from_snapshot(snap, &plan))
        .unwrap_or_else(ResumeState::empty);
    let deadline = expires.map(|t| t.saturating_duration_since(Instant::now()));
    if deadline == Some(Duration::ZERO) {
        return Err(RunError::DeadlineExceeded);
    }
    let replay = attempt(&ExecutorOptions { faults: None, deadline, ..opts.clone() }, &resume)?;
    let wall_us = first.wall_us + replay.wall_us;
    Ok(RunReport { attempts: 2, wall_us, recovery_us: replay.wall_us, ..replay })
}
