//! Deterministic fault injection: planned worker kills and the
//! runtime state that arbitrates them.
//!
//! A kill fires only at a *claim boundary* — right after a queue hands
//! a worker a chunk, before any of its tasks execute — so a dying
//! worker never leaves a half-executed chunk behind. In lease mode the
//! freshly claimed tasks become an orphaned [`Lease`] that exactly one
//! survivor re-executes; in crash mode ([`FaultPlan::crash_run`]) the
//! first kill aborts the whole run, simulating a process death that
//! [`execute_graph_resumable`](super::execute_graph_resumable)
//! recovers from via snapshots.

use crate::threaded::queue::Chunk;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// When a planned kill fires. All triggers are evaluated at claim
/// boundaries (or, for [`OnSteal`](FaultTrigger::OnSteal), right after
/// a successful steal), making kill points deterministic functions of
/// the victim's own scheduling history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Kill when the victim claims a distributed-TAPER chunk tagged
    /// with global epoch ≥ `e`. On backends without epochs (shared
    /// queues, async) this degrades to "after `e + 1` claims".
    AtEpoch(u64),
    /// Kill at the victim's `n`-th chunk claim (1-based; `0` behaves
    /// like `1`), counted across all ops.
    AfterClaims(u64),
    /// Kill at the victim's next successful token steal. Threaded
    /// backends only — the async backend never steals, so this
    /// trigger can never fire there.
    OnSteal,
}

/// One planned kill: a victim and its trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// The victim: a worker id in the threaded backends, a claimer
    /// spawn index in the async backend. Out-of-range victims never
    /// fire (randomized schedules need not know the exact worker
    /// count).
    pub worker: usize,
    /// When the kill fires.
    pub trigger: FaultTrigger,
}

/// A deterministic fault-injection schedule, threaded through
/// [`ExecutorOptions::faults`](crate::executor::ExecutorOptions::faults).
///
/// Each [`KillSpec`] fires at most once. In lease mode (the default) a
/// kill takes down a single worker and the pool recovers in-process;
/// the last live worker refuses to die (the kill is suppressed) so a
/// plan can never wedge a run. With [`crash_run`](Self::crash_run) the
/// first kill aborts the entire execution instead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The planned kills.
    pub kills: Vec<KillSpec>,
    /// When set, every kill in `kills` fires in crash mode: the first
    /// one that fires marks the whole run crashed, every worker exits
    /// at its next claim boundary, and the partial result is returned
    /// with `crashed = true`.
    pub crash_run: bool,
    /// Kills that fire in crash mode regardless of `crash_run` — a
    /// combined plan stages in-process lease recoveries (`kills` with
    /// `crash_run = false`) *and* a later process death in the same
    /// run, the way real incidents compound.
    pub crash_kills: Vec<KillSpec>,
}

impl FaultPlan {
    /// A single-kill lease-mode plan.
    pub fn kill(worker: usize, trigger: FaultTrigger) -> Self {
        FaultPlan {
            kills: vec![KillSpec { worker, trigger }],
            crash_run: false,
            crash_kills: Vec::new(),
        }
    }

    /// A single-kill crash-mode plan.
    pub fn crash(worker: usize, trigger: FaultTrigger) -> Self {
        FaultPlan {
            kills: vec![KillSpec { worker, trigger }],
            crash_run: true,
            crash_kills: Vec::new(),
        }
    }

    /// A combined plan: `lease` kills recover in-process, and the
    /// `crash` kill aborts the run when it fires (typically later —
    /// triggers are per-victim, so stagger the claim counts).
    pub fn combined(lease: Vec<KillSpec>, crash: KillSpec) -> Self {
        FaultPlan { kills: lease, crash_run: false, crash_kills: vec![crash] }
    }
}

/// How a fired kill takes its victim down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KillMode {
    /// The victim dies alone; its claimed chunk becomes a lease a
    /// survivor replays.
    Lease,
    /// The whole run crashes; every worker exits at its next boundary.
    Crash,
}

/// An orphaned claim: tasks a dead worker had claimed but not started
/// executing. Survivors drain the lease list exactly once (take-all
/// under the lock) and replay each task — kernels are pure, so the
/// replayed values are bitwise those the victim would have produced.
pub(crate) struct Lease {
    /// Plan index of the op the tasks belong to.
    pub(crate) op_idx: usize,
    /// What the victim had claimed, in the op's queue-index space.
    pub(crate) chunk: Chunk,
}

/// Runtime arbitration for one run's [`FaultPlan`]: which kills have
/// fired, which workers are dead, and whether the run crashed.
pub(crate) struct FaultState {
    /// Every planned kill with its resolved mode (`kills` under the
    /// plan-level `crash_run` flag, then `crash_kills`).
    specs: Vec<(KillSpec, KillMode)>,
    /// One-shot latch per planned kill.
    fired: Vec<AtomicBool>,
    /// Per-worker death flag (set in lease *and* crash mode).
    dead: Vec<AtomicBool>,
    /// Per-worker claim counter driving the claim-count triggers.
    claims: Vec<AtomicU64>,
    /// Workers not yet dead in lease mode; [`try_die`](Self::try_die)
    /// refuses to drop this below 1.
    live: AtomicUsize,
    crashed: AtomicBool,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, workers: usize) -> Self {
        let base = if plan.crash_run { KillMode::Crash } else { KillMode::Lease };
        let specs: Vec<(KillSpec, KillMode)> = plan
            .kills
            .iter()
            .map(|&k| (k, base))
            .chain(plan.crash_kills.iter().map(|&k| (k, KillMode::Crash)))
            .collect();
        let kills = specs.len();
        FaultState {
            specs,
            fired: (0..kills).map(|_| AtomicBool::new(false)).collect(),
            dead: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            claims: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            live: AtomicUsize::new(workers),
            crashed: AtomicBool::new(false),
        }
    }

    pub(crate) fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Whether any worker died in lease mode (crash-mode deaths abort
    /// the run instead of triggering in-process recovery).
    pub(crate) fn any_dead(&self) -> bool {
        self.live.load(Ordering::SeqCst) < self.dead.len()
    }

    pub(crate) fn dead_workers(&self) -> Vec<usize> {
        (0..self.dead.len()).filter(|&w| self.dead[w].load(Ordering::SeqCst)).collect()
    }

    fn check(&self, worker: usize, hit: impl Fn(FaultTrigger) -> bool) -> Option<KillMode> {
        for (k, (spec, mode)) in self.specs.iter().enumerate() {
            if spec.worker != worker || !hit(spec.trigger) {
                continue;
            }
            if self.fired[k]
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Some(*mode);
            }
        }
        None
    }

    /// Notes one chunk claim by `worker` (`epoch` tags dist-TAPER
    /// claims with their global epoch) and reports the mode of the
    /// planned kill that fires here, if any. Firing consumes the spec;
    /// the caller must still win [`try_die`](Self::try_die) for the
    /// death to happen.
    pub(crate) fn on_claim(&self, worker: usize, epoch: Option<u64>) -> Option<KillMode> {
        if worker >= self.claims.len() {
            return None;
        }
        let c = self.claims[worker].fetch_add(1, Ordering::Relaxed) + 1;
        self.check(worker, |t| match t {
            FaultTrigger::AfterClaims(n) => c >= n.max(1),
            FaultTrigger::AtEpoch(e) => match epoch {
                Some(ep) => ep >= e,
                None => c > e,
            },
            FaultTrigger::OnSteal => false,
        })
    }

    /// Reports the mode of the `OnSteal` kill firing for `worker`'s
    /// just-completed steal, if any.
    pub(crate) fn on_steal(&self, worker: usize) -> Option<KillMode> {
        if worker >= self.dead.len() {
            return None;
        }
        self.check(worker, |t| matches!(t, FaultTrigger::OnSteal))
    }

    /// Commits a fired kill. In crash mode this always succeeds and
    /// marks the whole run crashed. In lease mode it atomically takes
    /// one live slot — refusing (and suppressing the kill) when
    /// `worker` is the last live worker, so a fault plan can never
    /// wedge the pool.
    pub(crate) fn try_die(&self, worker: usize, mode: KillMode) -> bool {
        if mode == KillMode::Crash {
            self.dead[worker].store(true, Ordering::SeqCst);
            self.crashed.store(true, Ordering::SeqCst);
            return true;
        }
        loop {
            let live = self.live.load(Ordering::SeqCst);
            if live <= 1 {
                return false;
            }
            if self
                .live
                .compare_exchange(live, live - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.dead[worker].store(true, Ordering::SeqCst);
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn after_claims_fires_once_at_the_right_count() {
        let f = FaultState::new(FaultPlan::kill(1, FaultTrigger::AfterClaims(3)), 4);
        assert!(f.on_claim(1, None).is_none());
        assert!(f.on_claim(1, None).is_none());
        assert!(f.on_claim(0, None).is_none(), "wrong worker");
        assert_eq!(f.on_claim(1, None), Some(KillMode::Lease), "third claim fires");
        assert!(f.on_claim(1, None).is_none(), "spec consumed");
    }

    #[test]
    fn at_epoch_matches_dist_epochs_and_degrades_to_claims() {
        let f = FaultState::new(FaultPlan::kill(0, FaultTrigger::AtEpoch(2)), 2);
        assert!(f.on_claim(0, Some(0)).is_none());
        assert!(f.on_claim(0, Some(1)).is_none());
        assert!(f.on_claim(0, Some(2)).is_some());
        let g = FaultState::new(FaultPlan::kill(0, FaultTrigger::AtEpoch(2)), 2);
        assert!(g.on_claim(0, None).is_none());
        assert!(g.on_claim(0, None).is_none());
        assert!(g.on_claim(0, None).is_some(), "claim 3 > epoch 2");
    }

    #[test]
    fn last_live_worker_refuses_to_die() {
        let f = FaultState::new(
            FaultPlan {
                kills: vec![
                    KillSpec { worker: 0, trigger: FaultTrigger::AfterClaims(1) },
                    KillSpec { worker: 1, trigger: FaultTrigger::AfterClaims(1) },
                ],
                crash_run: false,
                crash_kills: Vec::new(),
            },
            2,
        );
        assert!(f.try_die(0, KillMode::Lease));
        assert!(f.any_dead());
        assert!(!f.try_die(1, KillMode::Lease), "last live worker must survive");
        assert_eq!(f.dead_workers(), vec![0]);
        assert!(!f.crashed());
    }

    #[test]
    fn crash_mode_always_dies_and_marks_crashed() {
        let f = FaultState::new(FaultPlan::crash(0, FaultTrigger::AfterClaims(1)), 1);
        assert!(f.try_die(0, KillMode::Crash));
        assert!(f.crashed());
        assert!(!f.any_dead(), "crash deaths don't trigger lease recovery");
    }

    #[test]
    fn out_of_range_victims_never_fire() {
        let f = FaultState::new(FaultPlan::kill(7, FaultTrigger::AfterClaims(1)), 2);
        for _ in 0..10 {
            assert!(f.on_claim(0, None).is_none());
            assert!(f.on_claim(1, None).is_none());
        }
        assert!(f.on_steal(7).is_none());
    }

    #[test]
    fn combined_plans_keep_lease_and_crash_modes_apart() {
        let plan = FaultPlan::combined(
            vec![KillSpec { worker: 0, trigger: FaultTrigger::AfterClaims(1) }],
            KillSpec { worker: 1, trigger: FaultTrigger::AfterClaims(2) },
        );
        let f = FaultState::new(plan, 3);
        assert_eq!(f.on_claim(0, None), Some(KillMode::Lease));
        assert!(f.try_die(0, KillMode::Lease));
        assert!(f.any_dead(), "the lease death recovers in-process");
        assert!(!f.crashed());
        assert!(f.on_claim(1, None).is_none(), "crash trigger not yet reached");
        assert_eq!(f.on_claim(1, None), Some(KillMode::Crash));
        assert!(f.try_die(1, KillMode::Crash));
        assert!(f.crashed(), "the crash kill aborts the run");
    }
}
