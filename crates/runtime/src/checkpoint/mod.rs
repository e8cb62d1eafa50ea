//! Checkpointing, fault injection, and deterministic replay for the
//! real execution backends.
//!
//! The paper's kernels are pure functions of `(node, iter, task,
//! cost_hint)`, so recovery after a fault is *bitwise-verifiable by
//! construction*: any claimed-but-unfinished chunk can be replayed
//! from scratch (the split-annotation view of ops as restartable pure
//! splits) and the result compared bit-for-bit against the sequential
//! reference. This module adds the three pieces that turn that
//! property into fault tolerance:
//!
//! * **Snapshots** (`snapshot`) — versioned, crc-checked, fsync'd
//!   on-disk images of the claim frontier: each op's completed-task
//!   bitmap, the completed tasks' output values, and the per-op
//!   [`OnlineStats`](crate::stats::OnlineStats) that warm-start the
//!   adaptive chunk policies on resume. Under distributed TAPER the
//!   snapshot cadence piggybacks on the epoch tokens of §4.1.1: every
//!   global-epoch increment is a ready-made consistent-cut barrier.
//! * **Fault plans** ([`FaultPlan`]) — injectable, deterministic
//!   worker kills (at epoch `e` / after `n` claims / on a steal)
//!   threaded through
//!   [`ExecutorOptions`](crate::executor::ExecutorOptions). A kill
//!   crashes the whole run, simulating a process death: a worker thread
//!   of this process stops only by unwinding, and that aborts the run.
//! * **Resume** ([`execute_graph_resumable`]) — runs a graph, and on a
//!   crash restores from the latest valid snapshot (falling back past
//!   torn or corrupt files) and replays to completion.

mod fault;
mod resume;
mod snapshot;

pub(crate) use fault::FaultState;
pub use fault::{FaultPlan, FaultTrigger, KillSpec};
pub use resume::execute_graph_resumable;
pub(crate) use resume::ResumeState;
pub use snapshot::{graph_fingerprint, load_latest, snapshot_versions, Snapshot};
pub(crate) use snapshot::{op_snapshot, plan_fingerprint, OpSnapshot};

use crate::parking::Parking;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Where and how often a run persists snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Snapshot directory (created on first write if missing).
    pub dir: PathBuf,
    /// Claim-count cadence: a snapshot is attempted every
    /// `every_claims` chunk claims, in addition to every distributed
    /// TAPER global-epoch boundary. `0` disables the claim cadence
    /// (epoch barriers still snapshot).
    pub every_claims: u64,
    /// Snapshot versions retained on disk; older ones are pruned after
    /// each successful write.
    pub keep: usize,
}

impl CheckpointSpec {
    /// A spec with the default cadence: snapshot every 16 claims (and
    /// at every dist-TAPER epoch), keep the last 4 versions.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointSpec { dir: dir.into(), every_claims: 16, keep: 4 }
    }
}

/// Runtime checkpoint state for one execution: cadence tracking and
/// the single-writer slot. Version numbers continue from whatever is
/// already on disk, so snapshots stay monotone across resume attempts.
pub(crate) struct CheckpointCtl {
    spec: CheckpointSpec,
    fingerprint: u64,
    next_version: AtomicU64,
    claims: AtomicU64,
    last_epoch: AtomicU64,
    writing: AtomicBool,
}

impl CheckpointCtl {
    pub(crate) fn new(spec: CheckpointSpec, fingerprint: u64) -> Self {
        let next = snapshot::snapshot_versions(&spec.dir).last().map_or(1, |v| v + 1);
        CheckpointCtl {
            spec,
            fingerprint,
            next_version: AtomicU64::new(next),
            claims: AtomicU64::new(0),
            last_epoch: AtomicU64::new(0),
            writing: AtomicBool::new(false),
        }
    }

    /// Notes one chunk claim (tagged with the dist-TAPER global epoch
    /// when the claim came from a [`DistQueue`](crate::threaded::dist::DistQueue)).
    /// Returns `true` when this caller won the single-writer slot and
    /// must follow up with [`commit`](Self::commit).
    pub(crate) fn note_claim(&self, epoch: Option<u64>) -> bool {
        let mut due = false;
        if let Some(e) = epoch {
            // The first claim that observes a new global epoch crossed
            // a consistent-cut barrier: every worker holding older
            // work has tokened in. Snapshot there.
            let last = self.last_epoch.load(Ordering::Relaxed);
            if e > last
                && self
                    .last_epoch
                    .compare_exchange(last, e, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            {
                due = true;
            }
        }
        let c = self.claims.fetch_add(1, Ordering::Relaxed) + 1;
        if self.spec.every_claims > 0 && c.is_multiple_of(self.spec.every_claims) {
            due = true;
        }
        due && self
            .writing
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Persists a snapshot (write-ahead to a temp file, fsync, rename),
    /// prunes old versions, and releases the writer slot taken by
    /// [`note_claim`](Self::note_claim). Disk errors are swallowed:
    /// checkpointing is best-effort and must never fail a run.
    pub(crate) fn commit(&self, ops: Vec<OpSnapshot>) {
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        let snap = Snapshot { fingerprint: self.fingerprint, version, ops };
        let _ = snapshot::write_snapshot(&self.spec.dir, &snap);
        snapshot::prune(&self.spec.dir, self.spec.keep);
        self.writing.store(false, Ordering::Release);
    }
}

/// Cooperative cancellation state for one run: the caller's token,
/// the resolved wall-clock deadline, and a latch recording whether a
/// claim-boundary check actually observed the request (so a deadline
/// that technically passes during result assembly does not fail a run
/// that already finished its work).
pub(crate) struct CancelCtl {
    token: Option<crate::cancel::CancelToken>,
    deadline: Option<std::time::Instant>,
    /// 0 = not fired, 1 = token, 2 = deadline.
    fired: std::sync::atomic::AtomicU8,
}

impl CancelCtl {
    /// Builds the per-run state from the caller's options; `None`
    /// when neither a token nor a deadline was configured. The
    /// deadline clock starts here — at run setup — which is what the
    /// daemon's submission-time semantics want.
    pub(crate) fn from_opts(opts: &crate::executor::ExecutorOptions) -> Option<Self> {
        if opts.cancel.is_none() && opts.deadline.is_none() {
            return None;
        }
        Some(CancelCtl {
            token: opts.cancel.clone(),
            deadline: opts.deadline.map(|d| std::time::Instant::now() + d),
            fired: std::sync::atomic::AtomicU8::new(0),
        })
    }

    /// The claim-boundary check: whether the run must abort. Latches
    /// the first observation so post-run reporting sees a stable
    /// verdict.
    pub(crate) fn requested(&self) -> bool {
        if self.fired.load(Ordering::Relaxed) != 0 {
            return true;
        }
        if self.token.as_ref().is_some_and(crate::cancel::CancelToken::is_cancelled) {
            let _ = self.fired.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst);
            return true;
        }
        if self.deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            let _ = self.fired.compare_exchange(0, 2, Ordering::SeqCst, Ordering::SeqCst);
            return true;
        }
        false
    }

    /// What a fired cancellation aborts the run with, `None` when no
    /// claim boundary ever observed one.
    pub(crate) fn error(&self) -> Option<crate::cancel::RunError> {
        match self.fired.load(Ordering::SeqCst) {
            1 => Some(crate::cancel::RunError::Cancelled),
            2 => Some(crate::cancel::RunError::DeadlineExceeded),
            _ => None,
        }
    }
}

/// Per-run fault-injection, checkpoint, and cancellation state
/// threaded through the threaded pool and the async driver. With no
/// fault plan, checkpoint spec, or cancel token configured (the
/// default) every hook is `None`, keeping the claim hot path at one
/// `Option` check. A stop is one flag, [`stopping`](Self::stopping),
/// and one rule: whoever raises or first sees it broadcasts on `parking`.
pub(crate) struct RunCtl {
    /// Fault-injection state, `None` when no plan was configured.
    pub(crate) faults: Option<FaultState>,
    /// Snapshot cadence + writer slot, `None` when checkpointing is
    /// off.
    pub(crate) ckpt: Option<CheckpointCtl>,
    /// Cooperative cancellation, `None` when neither a token nor a
    /// deadline was configured.
    pub(crate) cancel: Option<CancelCtl>,
    /// Raised when a worker unwound out of its loop (a kernel
    /// panicked): the chunk it held will never finish, so everyone else
    /// must stop waiting for it.
    aborted: AtomicBool,
    /// Where both engines' idle servers sleep (shared with the async
    /// scheduler's `'static` wakers).
    pub(crate) parking: Arc<Parking>,
}

impl RunCtl {
    /// The hooks `opts` configures for one run of `plan` on `workers`
    /// workers (or async claimers) — fault victims are numbered below
    /// `workers`, snapshots carry the plan's fingerprint.
    pub(crate) fn new(
        opts: &crate::executor::ExecutorOptions,
        plan: &crate::threaded::Plan,
        workers: usize,
    ) -> Self {
        RunCtl {
            faults: opts.faults.as_ref().map(|p| FaultState::new(p, workers)),
            ckpt: opts
                .checkpoint
                .as_ref()
                .map(|s| CheckpointCtl::new(s.clone(), plan_fingerprint(plan, opts.seed))),
            cancel: CancelCtl::from_opts(opts),
            aborted: AtomicBool::new(false),
            parking: Arc::default(),
        }
    }

    /// The unwind boundary of every engine's server threads: a kernel's
    /// panic leaves its chunk unfinished for good, so the run stops
    /// before the panic goes on to the caller.
    pub(crate) fn guard<T>(&self, server: impl FnOnce() -> T) -> T {
        catch_unwind(AssertUnwindSafe(server)).unwrap_or_else(|panic| {
            self.aborted.store(true, Ordering::SeqCst);
            self.parking.broadcast();
            resume_unwind(panic)
        })
    }

    /// Whether any fault/checkpoint/cancel hook is active (claim loops
    /// take the hook path only when this is true).
    pub(crate) fn hooked(&self) -> bool {
        self.faults.is_some() || self.ckpt.is_some() || self.cancel.is_some()
    }

    /// Whether a planned kill has fired: the run is aborting and every
    /// worker exits at its next claim boundary.
    pub(crate) fn crashed(&self) -> bool {
        self.faults.as_ref().is_some_and(FaultState::crashed)
    }

    /// Whether the run is stopping for *any* reason — a planned kill,
    /// cancellation, or a server's unwind — and both engines' servers
    /// must leave their loops (broadcasting: a cancel has no other witness).
    pub(crate) fn stopping(&self) -> bool {
        self.crashed()
            || self.cancel.as_ref().is_some_and(CancelCtl::requested)
            || self.aborted.load(Ordering::SeqCst)
    }

    /// A chunk was claimed: the one post-claim sequence of every engine,
    /// run (when [`hooked`](Self::hooked)) after each successful claim
    /// by `claimant` — a pool worker, or an async claimer's spawn index
    /// — with the dist-TAPER `epoch` the claim was tokened in, if any.
    /// `true` means the claimant stops here without executing the chunk.
    ///
    /// The order is the contract. A kill lands exactly at this boundary
    /// because the chunk is claimed but unexecuted, so the crashed
    /// attempt leaves no half-run chunk behind. Cancellation and a crash
    /// already under way come first: the whole run is being discarded,
    /// so the chunk is simply dropped and no planned kill is consumed.
    /// Then the claim is counted against the fault plan, and a kill that
    /// fires crashes the run. A claimant that stops, for any of these,
    /// wakes everyone: the parked must see the stop. The checkpoint
    /// cadence comes last, so a claimant that stops here never holds
    /// the snapshot writer slot.
    #[inline]
    pub(crate) fn after_claim(
        &self,
        claimant: usize,
        epoch: Option<u64>,
        snapshot: impl FnOnce() -> Vec<OpSnapshot>,
    ) -> bool {
        let stops = self.cancel.as_ref().is_some_and(CancelCtl::requested)
            || self.faults.as_ref().is_some_and(|f| f.crashed() || f.on_claim(claimant, epoch));
        if stops {
            self.parking.broadcast();
            return true;
        }
        if let Some(ck) = &self.ckpt {
            if ck.note_claim(epoch) {
                ck.commit(snapshot());
            }
        }
        false
    }

    /// The cancellation error to abort with, if one fired.
    pub(crate) fn cancel_error(&self) -> Option<crate::cancel::RunError> {
        self.cancel.as_ref().and_then(CancelCtl::error)
    }
}
