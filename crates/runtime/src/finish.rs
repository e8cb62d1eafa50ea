//! Finishing-time estimation (§4.1.2, equation 1).
//!
//! ```text
//! finish = setup + compute + lag + comm + sched
//! ```
//!
//! * `setup` — the maximum of the time to contract one operation's data
//!   onto its partition and expand the other's (modeled as a
//!   logarithmic redistribution of the operation's input bytes);
//! * `compute` — expected mean time `N·µ/p`;
//! * `lag` — expected *maximum* finishing time in excess of the mean,
//!   driven by the task-time distribution `(µ, σ)` \[11, 14\]: the
//!   expected maximum of `min(p, N)` samples, `σ·√(2·ln m)`;
//! * `comm` — the runtime communication estimate (Sarkar–Hennessy
//!   weighted crossing edges, evaluated with runtime values of `N`
//!   and `p`);
//! * `sched` — predicted scheduling events × per-event overhead,
//!   divided across processors.

use crate::chunking::{predicted_chunks, predicted_claims, PolicyKind};
use crate::stats::OnlineStats;
use orchestra_delirium::NodeKind;
use orchestra_machine::MachineConfig;
use std::sync::OnceLock;

/// The runtime profile of one parallel operation, as known when the
/// allocation decision is made.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSpec {
    /// Number of tasks `N`.
    pub tasks: usize,
    /// Sampled mean task time µ (µs).
    pub mean: f64,
    /// Sampled task-time standard deviation σ (µs).
    pub std_dev: f64,
    /// Input bytes that must be contracted/expanded onto the partition.
    pub bytes_in: u64,
    /// Output bytes produced.
    pub bytes_out: u64,
    /// The chunk policy scheduling this operation.
    pub policy: PolicyKind,
}

impl OpSpec {
    /// The spec of an operation with no tasks: every field zero. It
    /// is the identity for aggregation and [`finish_estimate`] maps it
    /// to an all-zero estimate, so degenerate ops never skew an
    /// allocation decision.
    pub const fn empty(policy: PolicyKind) -> Self {
        OpSpec { tasks: 0, mean: 0.0, std_dev: 0.0, bytes_in: 0, bytes_out: 0, policy }
    }

    /// The spec a graph node declares before anything ran: its task
    /// count, the `(µ, σ = µ·cv)` of its cost model (a mixture's
    /// populations pooled), and `bytes_per_task` in and out per task —
    /// what the simulator moves between partitions; a shared-memory
    /// caller passes 0, the shape [`from_live`](Self::from_live) has.
    pub fn of_node(kind: &NodeKind, bytes_per_task: u64, policy: PolicyKind) -> Self {
        let tasks = kind.task_count();
        let (mean, cv) = kind.aggregate_stats();
        let bytes = tasks as u64 * bytes_per_task;
        OpSpec { tasks, mean, std_dev: mean * cv, bytes_in: bytes, bytes_out: bytes, policy }
    }

    /// One spec for the union of `parts`' tasks (bytes summed), as the
    /// allocator sees several operations it schedules as one. The
    /// task-time variance pools by the law of total variance —
    /// within-part σᵢ² *plus* the dispersion of the part means around
    /// the pooled mean:
    ///
    /// ```text
    /// σ² = Σ nᵢ·(σᵢ² + (µᵢ − µ̄)²) / Σ nᵢ
    /// ```
    ///
    /// Dropping the second term (as a naive σ²·n sum does)
    /// underestimates `lag` for heterogeneous parts: two internally
    /// regular operations with very different means still look
    /// irregular to a scheduler drawing tasks from their union.
    /// No tasks at all pool to [`OpSpec::empty`].
    pub fn pooled(parts: &[OpSpec], policy: PolicyKind) -> Self {
        let tasks: usize = parts.iter().map(|s| s.tasks).sum();
        if tasks == 0 {
            return OpSpec::empty(policy);
        }
        let work: f64 = parts.iter().map(|s| s.total_work()).sum();
        let mean = work / tasks as f64;
        let var = parts
            .iter()
            .map(|s| s.tasks as f64 * (s.std_dev * s.std_dev + (s.mean - mean).powi(2)))
            .sum::<f64>()
            / tasks as f64;
        OpSpec {
            tasks,
            mean,
            std_dev: var.sqrt(),
            bytes_in: parts.iter().map(|s| s.bytes_in).sum(),
            bytes_out: parts.iter().map(|s| s.bytes_out).sum(),
            policy,
        }
    }

    /// A spec from a *live* operation: `remaining` unclaimed tasks and
    /// the µ/σ sampled by its chunk queue so far. Before any samples
    /// exist the spec falls back to unit-cost tasks (`µ = 1, σ = 0`),
    /// so an equalizer over warm-up ops splits processors by task
    /// count — the only signal available — instead of by zeros.
    pub fn from_live(remaining: usize, stats: Option<&OnlineStats>, policy: PolicyKind) -> Self {
        let (mean, std_dev) = match stats {
            Some(s) if s.count() > 0 => (s.mean(), s.std_dev()),
            _ => (1.0, 0.0),
        };
        OpSpec { tasks: remaining, mean, std_dev, bytes_in: 0, bytes_out: 0, policy }
    }

    /// Coefficient of variation.
    pub fn cv(&self) -> f64 {
        if self.mean <= 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }

    /// Total sequential work (µs).
    pub fn total_work(&self) -> f64 {
        self.tasks as f64 * self.mean
    }
}

/// The terms of the finishing-time estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinishEstimate {
    /// Data contraction/expansion.
    pub setup: f64,
    /// `N·µ/p`.
    pub compute: f64,
    /// Expected straggler excess.
    pub lag: f64,
    /// Communication overhead.
    pub comm: f64,
    /// Scheduling overhead.
    pub sched: f64,
}

impl FinishEstimate {
    /// The total estimate.
    pub fn total(&self) -> f64 {
        self.setup + self.compute + self.lag + self.comm + self.sched
    }
}

/// Fraction of an operation's data assumed to actually move during
/// contraction/expansion and result communication. Owner-computes
/// placement keeps most task data on its home processor; only
/// partition-boundary and re-balanced data travels.
const MIGRATED_FRACTION: f64 = 0.1;

/// Estimates the finishing time of `op` on `p` processors of `cfg`.
/// An op with no tasks finishes instantly: every term is zero.
///
/// # Panics
///
/// Panics if `p` is zero.
pub fn finish_estimate(op: &OpSpec, p: usize, cfg: &MachineConfig) -> FinishEstimate {
    assert!(p > 0, "estimate needs at least one processor");
    estimate(op, p, cfg, predicted_chunks)
}

/// Equation 1 with the scheduling-event count drawn from `chunks`
/// (policy, tasks, processors, cv): the simulator's count for
/// [`finish_estimate`], the claim queue's for [`finish_estimate_live`].
fn estimate(
    op: &OpSpec,
    p: usize,
    cfg: &MachineConfig,
    chunks: fn(PolicyKind, usize, usize, f64) -> f64,
) -> FinishEstimate {
    if op.tasks == 0 {
        return FinishEstimate { setup: 0.0, compute: 0.0, lag: 0.0, comm: 0.0, sched: 0.0 };
    }
    let p_f = p as f64;
    let n_f = op.tasks as f64;

    // setup: contract/expand the migrated share of the input onto the
    // partition along a binomial tree.
    let setup = if p == 1 {
        0.0
    } else {
        let rounds = p_f.log2().ceil();
        rounds * cfg.alpha + cfg.beta * MIGRATED_FRACTION * op.bytes_in as f64 / p_f
    };

    let compute = n_f * op.mean / p_f;

    // lag: expected max of m ≈ min(p, N) per-processor deviations.
    let m = p.min(op.tasks.max(1)) as f64;
    let lag = if m <= 1.0 { 0.0 } else { op.std_dev * (2.0 * m.ln()).sqrt() };

    // comm: per-processor share of migrated output plus latency.
    let comm = if p == 1 {
        0.0
    } else {
        2.0 * cfg.alpha
            + cfg.beta * MIGRATED_FRACTION * (op.bytes_out as f64) / p_f
            + cfg.hop * cfg.diameter() as f64
    };

    // sched: predicted chunk count × overhead, shared across processors.
    let sched = chunks(op.policy, op.tasks, p, op.cv()) * cfg.sched_overhead / p_f;

    FinishEstimate { setup, compute, lag, comm, sched }
}

/// Overhead constants measured on *this* host, replacing the nCUBE-2
/// [`MachineConfig`] numbers when the estimate steers real threads.
/// The synthetic config models a 1024-node hypercube; a shared-memory
/// worker pool has no message latency and its per-claim cost is
/// whatever one `fetch_add` on a contended queue actually takes here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostCalibration {
    /// Measured cost of one scheduling event — one chunk claim on a
    /// [`ChunkQueue`](crate::threaded::queue::ChunkQueue) — in µs.
    pub sched_overhead_us: f64,
    /// Measured cost of one watermark publication — one
    /// `commit_range` that
    /// advances the frontier — in µs. The α fed to
    /// [`choose_batch`](crate::choose_batch) on the real
    /// backends.
    pub publish_alpha_us: f64,
    /// Measured per-byte arena read/copy cost in µs/B. The β fed to
    /// [`choose_batch`](crate::choose_batch) on the real
    /// backends.
    pub copy_beta_us: f64,
}

/// Clamp band for the measured per-publish cost α (µs) — the same
/// band `finish_estimate_live` uses for per-claim overhead.
const ALPHA_CLAMP: (f64, f64) = (0.001, 10.0);
/// Clamp band for the measured per-byte cost β (µs/B). A modern core
/// streams ≥ 10 GB/s (1e-4 µs/B); the band leaves two orders of
/// headroom either side so one descheduled rep cannot poison b*.
const BETA_CLAMP: (f64, f64) = (1e-5, 0.1);

impl HostCalibration {
    /// A calibration with a fixed claim overhead and nominal α/β (for
    /// tests and replay, where measuring would be nondeterministic).
    pub const fn with_overhead(sched_overhead_us: f64) -> Self {
        HostCalibration { sched_overhead_us, publish_alpha_us: 0.05, copy_beta_us: 1e-4 }
    }

    /// Measures the per-claim cost by draining a throwaway one-worker
    /// self-scheduling queue (one task per claim, so elapsed/tasks is
    /// the pure scheduling hot path). At one worker every chunk is its
    /// own epoch, so the claim timed is the full one — cursor
    /// `fetch_add`, `try_lock`, one policy call and the descriptor
    /// republish — which at more workers only about one claim in
    /// `workers` pays. It measures the per-publish cost by driving
    /// a throwaway arena watermark one commit at a time, and the
    /// per-byte cost by summing a cold slab. All three are clamped to
    /// sane bands so a descheduled measurement on a loaded host cannot
    /// poison every later allocation or batching decision.
    pub fn measure() -> Self {
        use crate::threaded::queue::ChunkQueue;
        const TASKS: usize = 8192;
        let q = ChunkQueue::new(PolicyKind::SelfSched.instantiate(TASKS), TASKS, 1);
        let t0 = std::time::Instant::now();
        while q.claim().is_some() {}
        let per_claim_us = t0.elapsed().as_secs_f64() * 1e6 / TASKS as f64;

        // α: one-task commits with batch 1, so every commit publishes —
        // lock, frontier bump, Release store, counter.
        const PUBS: usize = 4096;
        let arena = crate::alloc::OutputArena::for_ops([PUBS]);
        let t0 = std::time::Instant::now();
        for i in 0..PUBS {
            arena.commit_range(0, i, 1, 1);
        }
        let per_publish_us = t0.elapsed().as_secs_f64() * 1e6 / PUBS as f64;

        // β: stream the slab once; reading is what consumers pay.
        // Safety: the arena is local to this function and no writer
        // holds a view.
        let slab = unsafe { arena.op_slice(0) };
        let t0 = std::time::Instant::now();
        let sum: f64 = std::hint::black_box(slab).iter().sum();
        let bytes = (PUBS * std::mem::size_of::<f64>()) as f64;
        let per_byte_us = t0.elapsed().as_secs_f64() * 1e6 / bytes;
        std::hint::black_box(sum);

        HostCalibration {
            sched_overhead_us: per_claim_us.clamp(0.001, 10.0),
            publish_alpha_us: per_publish_us.clamp(ALPHA_CLAMP.0, ALPHA_CLAMP.1),
            copy_beta_us: per_byte_us.clamp(BETA_CLAMP.0, BETA_CLAMP.1),
        }
    }

    /// The process-wide calibration, measured once on first use.
    pub fn get() -> HostCalibration {
        static CAL: OnceLock<HostCalibration> = OnceLock::new();
        *CAL.get_or_init(HostCalibration::measure)
    }

    /// b\* for a streamed edge of `tasks` items of `item_bytes` each,
    /// priced at this host's measured α/β.
    pub fn stream_batch(&self, tasks: usize, item_bytes: u64) -> usize {
        crate::choose_batch(tasks, item_bytes, self.publish_alpha_us, self.copy_beta_us)
    }
}

/// Estimates the finishing time of a live operation on `p` workers of
/// a shared-memory pool: [`finish_estimate`] on a machine whose
/// messages are free (`setup = comm = 0` — no data is contracted onto a
/// partition; workers share one address space) and whose scheduling
/// event costs the host's measured claim instead of the nCUBE-2
/// constant. Its scheduling events are the claims the op's
/// [`ChunkQueue`](crate::threaded::queue::ChunkQueue) hands out
/// (`predicted_claims`): a `Static` op goes out there in halving
/// blocks, not in the simulator's one block per processor.
/// `op` should come from [`OpSpec::from_live`] so `N`, µ, and σ are
/// the queue's current remaining count and sampled statistics.
///
/// # Panics
///
/// Panics if `p` is zero.
pub fn finish_estimate_live(op: &OpSpec, p: usize, cal: &HostCalibration) -> FinishEstimate {
    assert!(p > 0, "estimate needs at least one processor");
    let host = MachineConfig { sched_overhead: cal.sched_overhead_us, ..MachineConfig::ideal(p) };
    estimate(op, p, &host, predicted_claims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par_op::{simulate_policy, OpOptions};
    use orchestra_machine::CostDistribution;

    fn spec(n: usize, mean: f64, cv: f64, policy: PolicyKind) -> OpSpec {
        OpSpec {
            tasks: n,
            mean,
            std_dev: mean * cv,
            bytes_in: (n as u64) * 256,
            bytes_out: (n as u64) * 256,
            policy,
        }
    }

    #[test]
    fn compute_dominates_at_small_p() {
        let s = spec(4096, 100.0, 0.1, PolicyKind::Taper);
        let e = finish_estimate(&s, 4, &MachineConfig::ncube2(4));
        assert!(e.compute > e.setup + e.lag + e.comm + e.sched);
    }

    #[test]
    fn estimate_decreases_then_flattens_with_p() {
        let s = spec(4096, 100.0, 0.5, PolicyKind::Taper);
        let e64 = finish_estimate(&s, 64, &MachineConfig::ncube2(64)).total();
        let e512 = finish_estimate(&s, 512, &MachineConfig::ncube2(512)).total();
        assert!(e512 < e64);
        // Diminishing returns: the ratio is far from linear.
        let speedup = e64 / e512;
        assert!(speedup < 8.0, "speedup {speedup} should be sublinear");
    }

    #[test]
    fn lag_grows_with_variance() {
        let regular = spec(1024, 50.0, 0.05, PolicyKind::Taper);
        let irregular = spec(1024, 50.0, 2.0, PolicyKind::Taper);
        let cfg = MachineConfig::ncube2(128);
        let el = finish_estimate(&regular, 128, &cfg);
        let eh = finish_estimate(&irregular, 128, &cfg);
        assert!(eh.lag > 10.0 * el.lag);
        assert!(eh.total() > el.total());
    }

    #[test]
    fn single_processor_is_pure_compute_plus_sched() {
        let s = spec(100, 10.0, 0.3, PolicyKind::Static);
        let e = finish_estimate(&s, 1, &MachineConfig::ncube2(1));
        assert_eq!(e.setup, 0.0);
        assert_eq!(e.comm, 0.0);
        assert!((e.compute - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn self_sched_pays_most_sched_overhead() {
        let cfg = MachineConfig::ncube2(64);
        let ss = finish_estimate(&spec(4096, 10.0, 0.1, PolicyKind::SelfSched), 64, &cfg);
        let tp = finish_estimate(&spec(4096, 10.0, 0.1, PolicyKind::Taper), 64, &cfg);
        assert!(ss.sched > tp.sched);
    }

    #[test]
    fn estimate_tracks_simulation_within_factor_two() {
        // The estimate guides allocation; it should be in the right
        // ballpark of the simulator on a plain TAPER run.
        let costs = CostDistribution::Bimodal { mean: 50.0, heavy_frac: 0.2, heavy_mult: 5.0 }
            .sample(2048, 33);
        let cfg = MachineConfig::ncube2(64);
        let sum = orchestra_machine::summarize(&costs);
        let s = spec(costs.len(), sum.mean, sum.std_dev / sum.mean, PolicyKind::Taper);
        let est = finish_estimate(&s, 64, &cfg).total();
        let sim =
            simulate_policy(&cfg, 64, &costs, PolicyKind::Taper, &OpOptions::default()).finish;
        let ratio = est / sim;
        assert!((0.5..2.0).contains(&ratio), "estimate {est} vs simulated {sim} (ratio {ratio})");
    }

    #[test]
    fn empty_costs_yield_the_explicit_empty_spec() {
        let s = OpSpec::empty(PolicyKind::Taper);
        assert_eq!(s.tasks, 0);
        assert_eq!(s.total_work(), 0.0);
        // The estimator maps it to a zero estimate instead of folding a
        // zero mean into a nonzero sched/setup term.
        let e = finish_estimate(&s, 8, &MachineConfig::ncube2(8));
        assert_eq!(e.total(), 0.0);
        let el = finish_estimate_live(&s, 8, &HostCalibration::with_overhead(0.5));
        assert_eq!(el.total(), 0.0);
    }

    #[test]
    fn live_spec_falls_back_to_task_counts_before_samples() {
        let cold = OpSpec::from_live(100, None, PolicyKind::Taper);
        assert_eq!((cold.tasks, cold.mean, cold.std_dev), (100, 1.0, 0.0));
        let empty = crate::stats::OnlineStats::new();
        let still_cold = OpSpec::from_live(100, Some(&empty), PolicyKind::Taper);
        assert_eq!(still_cold.mean, 1.0);
        let mut warm = crate::stats::OnlineStats::new();
        for c in [2.0, 4.0, 6.0] {
            warm.observe(c);
        }
        let live = OpSpec::from_live(50, Some(&warm), PolicyKind::Taper);
        assert_eq!(live.tasks, 50);
        assert!((live.mean - 4.0).abs() < 1e-12);
        assert!(live.std_dev > 0.0);
    }

    #[test]
    fn live_estimate_drops_message_passing_terms() {
        let s = spec(4096, 100.0, 0.5, PolicyKind::Taper);
        let e = finish_estimate_live(&s, 8, &HostCalibration::with_overhead(0.2));
        assert_eq!(e.setup, 0.0);
        assert_eq!(e.comm, 0.0);
        assert!(e.compute > 0.0 && e.lag > 0.0 && e.sched > 0.0);
        // More workers, less compute share; lag persists.
        let e16 = finish_estimate_live(&s, 16, &HostCalibration::with_overhead(0.2));
        assert!(e16.compute < e.compute);
    }

    /// Equation 1 is written once: the live estimate is
    /// `N·µ/p + σ·√(2·ln m) + claims·o/p` to the bit, whatever bytes the
    /// spec carries, because every message-passing term of
    /// [`finish_estimate`] multiplies a zero of the free machine.
    #[test]
    fn live_estimate_is_equation_one_on_a_free_machine() {
        let cal = HostCalibration::with_overhead(0.37);
        for policy in [PolicyKind::Static, PolicyKind::SelfSched, PolicyKind::Taper] {
            for (n, mean, cv) in [(1, 3.0, 0.0), (7, 0.5, 1.5), (4096, 100.0, 0.5), (100, 1.0, 0.0)]
            {
                for p in [1usize, 2, 3, 8, 64, 5000] {
                    let s = spec(n, mean, cv, policy);
                    let (p_f, m) = (p as f64, p.min(n) as f64);
                    let lag = if m <= 1.0 { 0.0 } else { s.std_dev * (2.0 * m.ln()).sqrt() };
                    let sched = predicted_claims(policy, n, p, s.cv()) * 0.37 / p_f;
                    let e = finish_estimate_live(&s, p, &cal);
                    assert_eq!((e.setup, e.comm), (0.0, 0.0));
                    assert_eq!(
                        e.total().to_bits(),
                        (n as f64 * mean / p_f + lag + sched).to_bits(),
                        "n={n} µ={mean} cv={cv} p={p} {policy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn host_calibration_measures_within_the_clamp_band() {
        let cal = HostCalibration::measure();
        assert!(
            (0.001..=10.0).contains(&cal.sched_overhead_us),
            "claim cost {} µs outside clamp",
            cal.sched_overhead_us
        );
        assert!(
            (0.001..=10.0).contains(&cal.publish_alpha_us),
            "publish cost {} µs outside clamp",
            cal.publish_alpha_us
        );
        assert!(
            (1e-5..=0.1).contains(&cal.copy_beta_us),
            "copy cost {} µs/B outside clamp",
            cal.copy_beta_us
        );
        // The process-wide instance is stable across calls.
        assert_eq!(HostCalibration::get(), HostCalibration::get());
    }

    #[test]
    fn stream_batch_uses_measured_costs() {
        // Latency-heavy host: batch aggressively. Bandwidth-heavy:
        // stream nearly item by item.
        let slow_pub =
            HostCalibration { sched_overhead_us: 0.1, publish_alpha_us: 10.0, copy_beta_us: 1e-5 };
        let slow_copy =
            HostCalibration { sched_overhead_us: 0.1, publish_alpha_us: 0.001, copy_beta_us: 0.1 };
        assert!(slow_pub.stream_batch(1024, 8) > slow_copy.stream_batch(1024, 8));
        assert!(slow_copy.stream_batch(1024, 8) <= 4);
    }
}
