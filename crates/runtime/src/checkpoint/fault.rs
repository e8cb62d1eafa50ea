//! Deterministic fault injection: planned worker kills and the
//! runtime state that arbitrates them.
//!
//! A kill fires only at a *claim boundary* — right after a queue hands
//! a worker a chunk, before any of its tasks execute — or right after a
//! steal, and it always crashes the whole run: the first kill that
//! fires marks the run crashed, every worker exits at its next claim
//! boundary, and [`execute_graph_resumable`](super::execute_graph_resumable)
//! recovers from the latest snapshot. That is the only failure a worker
//! thread of this process can have: it stops only by unwinding, and an
//! unwind aborts the run (`RunCtl::guard`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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
/// Each [`KillSpec`] fires at most once, and the first one that fires
/// crashes the run: the partial result comes back with
/// `crashed = true`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The planned kills.
    pub kills: Vec<KillSpec>,
}

impl FaultPlan {
    /// A single-kill plan.
    pub fn crash(worker: usize, trigger: FaultTrigger) -> Self {
        FaultPlan { kills: vec![KillSpec { worker, trigger }] }
    }
}

/// Runtime arbitration for one run's [`FaultPlan`]: which kills have
/// fired, and whether the run crashed.
pub(crate) struct FaultState {
    kills: Vec<KillSpec>,
    /// One-shot latch per planned kill.
    fired: Vec<AtomicBool>,
    /// Per-worker claim counter driving the claim-count triggers.
    claims: Vec<AtomicU64>,
    crashed: AtomicBool,
}

impl FaultState {
    pub(crate) fn new(plan: &FaultPlan, workers: usize) -> Self {
        FaultState {
            kills: plan.kills.clone(),
            fired: plan.kills.iter().map(|_| AtomicBool::new(false)).collect(),
            claims: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            crashed: AtomicBool::new(false),
        }
    }

    pub(crate) fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Fires the first unfired kill of `worker` whose trigger `hit`s,
    /// crashing the run. `true` when one fired.
    fn fire(&self, worker: usize, hit: impl Fn(FaultTrigger) -> bool) -> bool {
        let fires = self.kills.iter().zip(&self.fired).any(|(spec, fired)| {
            spec.worker == worker
                && hit(spec.trigger)
                && fired.compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst).is_ok()
        });
        if fires {
            self.crashed.store(true, Ordering::SeqCst);
        }
        fires
    }

    /// Notes one chunk claim by `worker` (`epoch` tags dist-TAPER
    /// claims with their global epoch); `true` when a planned kill
    /// fires here and crashes the run.
    pub(crate) fn on_claim(&self, worker: usize, epoch: Option<u64>) -> bool {
        if worker >= self.claims.len() {
            return false;
        }
        let c = self.claims[worker].fetch_add(1, Ordering::Relaxed) + 1;
        self.fire(worker, |t| match t {
            FaultTrigger::AfterClaims(n) => c >= n.max(1),
            FaultTrigger::AtEpoch(e) => match epoch {
                Some(ep) => ep >= e,
                None => c > e,
            },
            FaultTrigger::OnSteal => false,
        })
    }

    /// `true` when an `OnSteal` kill fires for `worker`'s
    /// just-completed steal and crashes the run.
    pub(crate) fn on_steal(&self, worker: usize) -> bool {
        worker < self.claims.len() && self.fire(worker, |t| matches!(t, FaultTrigger::OnSteal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn after_claims_fires_once_at_the_right_count() {
        let f = FaultState::new(&FaultPlan::crash(1, FaultTrigger::AfterClaims(3)), 4);
        assert!(!f.on_claim(1, None));
        assert!(!f.on_claim(1, None));
        assert!(!f.on_claim(0, None), "wrong worker");
        assert!(!f.crashed());
        assert!(f.on_claim(1, None), "third claim fires");
        assert!(f.crashed(), "a fired kill crashes the run");
        assert!(!f.on_claim(1, None), "spec consumed");
    }

    #[test]
    fn at_epoch_matches_dist_epochs_and_degrades_to_claims() {
        let f = FaultState::new(&FaultPlan::crash(0, FaultTrigger::AtEpoch(2)), 2);
        assert!(!f.on_claim(0, Some(0)));
        assert!(!f.on_claim(0, Some(1)));
        assert!(f.on_claim(0, Some(2)));
        let g = FaultState::new(&FaultPlan::crash(0, FaultTrigger::AtEpoch(2)), 2);
        assert!(!g.on_claim(0, None));
        assert!(!g.on_claim(0, None));
        assert!(g.on_claim(0, None), "claim 3 > epoch 2");
    }

    #[test]
    fn on_steal_fires_only_its_own_trigger() {
        let plan = FaultPlan {
            kills: vec![
                KillSpec { worker: 0, trigger: FaultTrigger::AfterClaims(1) },
                KillSpec { worker: 1, trigger: FaultTrigger::OnSteal },
            ],
        };
        let f = FaultState::new(&plan, 2);
        assert!(!f.on_steal(0), "worker 0 plans no steal kill");
        assert!(!f.on_claim(1, None), "worker 1 plans no claim kill");
        assert!(f.on_steal(1));
        assert!(f.crashed());
        assert!(!f.on_steal(1), "spec consumed");
    }

    #[test]
    fn out_of_range_victims_never_fire() {
        let f = FaultState::new(&FaultPlan::crash(7, FaultTrigger::AfterClaims(1)), 2);
        for _ in 0..10 {
            assert!(!f.on_claim(0, None));
            assert!(!f.on_claim(1, None));
        }
        assert!(!f.on_steal(7));
        assert!(!f.crashed());
    }
}
