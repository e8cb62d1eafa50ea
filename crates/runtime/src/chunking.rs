//! Chunk-size (grain-size) selection policies.
//!
//! The paper's runtime uses **TAPER** \[14\]: "large chunks at the
//! beginning of a parallel operation and successively smaller chunks as
//! the computation proceeds", with chunk sizes shrunk in proportion to
//! the sampled task-time variability and scaled by the positional cost
//! function. Static block decomposition is the no-runtime-decisions
//! baseline the paper's figures compare it with; chunk
//! self-scheduling (one task at a time) is kept as the one-task-claim
//! policy the runtime and its tests need.
//!
//! The simulator ([`crate::par_op`]) asks a policy once per claim, the
//! threaded [`ChunkQueue`](crate::threaded::queue::ChunkQueue) once per
//! epoch of about one chunk per worker ([`ChunkPolicy::next_chunk`]).

use crate::stats::{CostFn, OnlineStats};

/// A chunk-size policy: asked for the next chunk size at a frontier of
/// the iteration space, given the remaining task count and processor
/// count. The simulator asks when a processor goes idle; the threaded
/// queue asks when a claim crosses the published epoch end, and hands
/// the answer to every claim until the next one.
pub trait ChunkPolicy {
    /// Chooses the size of the next chunk starting at task index
    /// `next_index`, with `remaining` tasks left and `p` processors.
    /// Must return `1..=remaining` when `remaining > 0`. Callers may ask
    /// once per chunk or once per several, so any state a policy keeps
    /// between calls must follow `next_index`, not the call count.
    fn next_chunk(&mut self, next_index: usize, remaining: usize, p: usize) -> usize;

    /// Observes a completed task's execution time (for adaptive
    /// policies).
    fn observe(&mut self, index: usize, cost: f64) {
        let _ = (index, cost);
    }

    /// Observes a whole completed chunk at once: `stats` holds the
    /// µ/σ accumulated over the chunk's task times by the worker that
    /// executed it. This is the threaded backend's batched feedback
    /// path — one policy update per chunk instead of one lock per
    /// task. The default approximates per-task feeding by replaying
    /// the chunk mean at each index; adaptive policies override it
    /// with an exact merge.
    fn observe_chunk(&mut self, start: usize, len: usize, stats: &OnlineStats) {
        for i in start..start + len {
            self.observe(i, stats.mean());
        }
    }

    /// A snapshot of the task-time statistics the policy has sampled
    /// so far, for policies that keep them (TAPER). The allocation
    /// equalizer reads this to build live [`finish
    /// estimates`](crate::finish::finish_estimate_live) from the chunk
    /// queues instead of the synthetic cost model, and the queue reads
    /// it once to decide whether the policy wants timing feedback at
    /// all; schedule-only policies return `None`.
    fn live_stats(&self) -> Option<OnlineStats> {
        None
    }

    /// Display name of the policy.
    fn name(&self) -> &'static str;
}

/// One task per scheduling event (pure self-scheduling). No figure
/// runs it; it is kept for the readers that need a claim to be one
/// task: [`HostCalibration::measure`](crate::HostCalibration::measure)
/// times one claim on a one-worker self-scheduling queue, and the
/// crash-at-claim-N tests (`chaos_differential`'s `AfterClaims`,
/// threaded and async; `cancel`; `daemon_smoke`;
/// `sched_stress::repeated_self_sched_churn`) count claims as tasks.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SelfSched;

impl ChunkPolicy for SelfSched {
    fn next_chunk(&mut self, _next: usize, remaining: usize, _p: usize) -> usize {
        remaining.min(1)
    }

    fn name(&self) -> &'static str {
        "self-scheduling"
    }
}

/// Static scheduling on the real backends: `K = ⌈R/p⌉`, a block per
/// processor of what remains. The claim queue asks once per epoch, and
/// an epoch spans at most half the remaining tasks, so the op goes out
/// in `⌈R/p⌉` blocks whose size halves from epoch to epoch. (The
/// simulator schedules [`PolicyKind::Static`] by its own block path and
/// never asks this.)
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Static;

impl ChunkPolicy for Static {
    fn next_chunk(&mut self, _next: usize, remaining: usize, p: usize) -> usize {
        remaining.min(remaining.div_ceil(p).max(1))
    }

    fn name(&self) -> &'static str {
        "static"
    }
}

/// The coefficient-of-variation threshold above which distributed
/// TAPER's root re-assigns work from laggards (§4.1.1). Below it there
/// is no load imbalance to repair, and an ungated root would steal on
/// mere token-latency asymmetry, defeating the locality the scheme
/// exists to preserve. Shared by the event-driven simulator and the
/// threaded backend so both make the same migration decisions.
pub(crate) const REASSIGN_CV_GATE: f64 = 0.05;

/// TAPER: variance-adaptive decreasing chunks with cost-function
/// scaling.
///
/// At each scheduling event with `R` tasks remaining the base chunk is
///
/// ```text
/// K = ⌈ R / (p · (1 + cv·√(2·ln p))) ⌉
/// ```
///
/// where `cv = σ/µ` is the sampled coefficient of variation — regular
/// operations (`cv ≈ 0`) get large `⌈R/p⌉` chunks, irregular ones get
/// proportionally smaller chunks so the expected chunk-time spread
/// stays bounded (this is the quantitative µ/σ relationship of \[14\]).
/// The chunk is then scaled by `s = µg/µc` from the positional cost
/// function, shrinking chunks in expensive regions of the iteration
/// space.
#[derive(Debug, Clone)]
pub(crate) struct Taper {
    stats: OnlineStats,
    cost_fn: Option<CostFn>,
    min_chunk: usize,
}

impl Taper {
    /// TAPER without a positional cost function.
    pub fn new() -> Self {
        Taper { stats: OnlineStats::new(), cost_fn: None, min_chunk: 1 }
    }

    /// TAPER with a positional cost function over `total_tasks`.
    pub(crate) fn with_cost_fn(total_tasks: usize) -> Self {
        Taper {
            stats: OnlineStats::new(),
            cost_fn: Some(CostFn::new(16, total_tasks)),
            min_chunk: 1,
        }
    }

    /// Number of task-time samples observed so far.
    pub fn samples(&self) -> u64 {
        self.stats.count()
    }

    /// The epoch-chunk size for *distributed* TAPER (§4.1.1): the
    /// global TAPER sequence ([`next_chunk`](ChunkPolicy::next_chunk)
    /// over the whole iteration space, so every processor's epoch-`e`
    /// chunk has comparable size and token frequency is a speed
    /// signal) clamped to the processor's local home queue. During the
    /// initial sampling phase (fewer than `2p` samples, i.e. no
    /// trustworthy µ/σ yet) the chunk is additionally capped at half
    /// the local queue, so a mis-sized first draw cannot swallow an
    /// entire home block of expensive tasks.
    ///
    /// `done` is the number of tasks already handed out globally,
    /// `remaining_global` the number not yet handed out, `local_len`
    /// the caller's home-queue length (must be nonzero).
    pub(crate) fn epoch_chunk(
        &mut self,
        done: usize,
        remaining_global: usize,
        p: usize,
        local_len: usize,
    ) -> usize {
        let cap = if self.samples() < 2 * p as u64 { local_len.div_ceil(2) } else { local_len };
        self.next_chunk(done, remaining_global.max(1), p).clamp(1, cap.max(1))
    }

    /// Whether the sampled variability justifies re-assigning work
    /// from a laggard: cv above [`REASSIGN_CV_GATE`] once at least
    /// `2p` samples exist (the same sampling threshold that ends
    /// [`epoch_chunk`](Self::epoch_chunk)'s conservative phase).
    pub(crate) fn reassign_signal(&self, p: usize) -> bool {
        self.stats.cv_if_sampled(2 * p as u64).is_some_and(|cv| cv > REASSIGN_CV_GATE)
    }
}

impl Default for Taper {
    fn default() -> Self {
        Taper::new()
    }
}

impl ChunkPolicy for Taper {
    fn next_chunk(&mut self, next_index: usize, remaining: usize, p: usize) -> usize {
        if remaining == 0 {
            return 0;
        }
        let cv = self.stats.cv();
        let spread = 1.0 + cv * (2.0 * (p.max(2) as f64).ln()).sqrt();
        let mut k = (remaining as f64 / (p as f64 * spread)).ceil();
        if let Some(f) = &self.cost_fn {
            let s = f.chunk_scale(next_index, k.max(1.0) as usize);
            k = (k * s.clamp(0.1, 10.0)).ceil();
        }
        (k as usize).clamp(self.min_chunk, remaining)
    }

    fn observe(&mut self, index: usize, cost: f64) {
        self.stats.observe(cost);
        if let Some(f) = &mut self.cost_fn {
            f.observe(index, cost);
        }
    }

    fn observe_chunk(&mut self, start: usize, len: usize, stats: &OnlineStats) {
        // Exact Welford merge: the global µ/σ end up identical (up to
        // fp rounding) to per-task observation of the same samples.
        self.stats.merge(stats);
        if let Some(f) = &mut self.cost_fn {
            f.observe_span(start, len, stats.mean());
        }
    }

    fn live_stats(&self) -> Option<OnlineStats> {
        Some(self.stats)
    }

    fn name(&self) -> &'static str {
        "TAPER"
    }
}

/// The set of built-in policies, for sweeps and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Static block decomposition (no dynamic scheduling).
    Static,
    /// One task per event.
    SelfSched,
    /// TAPER without cost function.
    Taper,
    /// TAPER with positional cost function.
    TaperCostFn,
}

impl PolicyKind {
    /// Instantiates the policy a claim queue asks. `Static` yields the
    /// `⌈R/p⌉` rule, which the real backends run; the simulator
    /// schedules `Static` by its own block path. The box is `Send` so
    /// real-thread backends can move it into a shared chunk queue.
    pub fn instantiate(&self, total_tasks: usize) -> Box<dyn ChunkPolicy + Send> {
        match self {
            PolicyKind::SelfSched => Box::new(SelfSched),
            PolicyKind::Static => Box::new(Static),
            PolicyKind::Taper => Box::new(Taper::new()),
            PolicyKind::TaperCostFn => Box::new(Taper::with_cost_fn(total_tasks)),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Static => "static",
            PolicyKind::SelfSched => "self-scheduling",
            PolicyKind::Taper => "TAPER",
            PolicyKind::TaperCostFn => "TAPER+costfn",
        }
    }
}

/// Expected number of scheduling events (chunks) for an operation of
/// `n` tasks on `p` processors under each policy — the paper predicts
/// this count at runtime to estimate scheduling overhead (`sched` in
/// the finishing-time expression).
pub(crate) fn predicted_chunks(kind: PolicyKind, n: usize, p: usize, cv: f64) -> f64 {
    let n_f = n as f64;
    let p_f = p as f64;
    match kind {
        PolicyKind::Static => p_f.min(n_f),
        PolicyKind::SelfSched => n_f,
        PolicyKind::Taper | PolicyKind::TaperCostFn => {
            let spread = 1.0 + cv * (2.0 * p_f.max(2.0).ln()).sqrt();
            (spread * p_f * (n_f / p_f).max(1.0).ln()).max(p_f.min(n_f))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_sched_always_one() {
        let mut s = SelfSched;
        assert_eq!(s.next_chunk(0, 100, 8), 1);
        assert_eq!(s.next_chunk(99, 1, 8), 1);
        assert_eq!(s.next_chunk(100, 0, 8), 0);
    }

    #[test]
    fn static_hands_a_block_per_processor() {
        let mut s = Static;
        assert_eq!(s.next_chunk(0, 64, 4), 16);
        assert_eq!(s.next_chunk(0, 63, 4), 16);
        assert_eq!(s.next_chunk(60, 3, 4), 1);
        assert_eq!(s.next_chunk(64, 0, 4), 0);
    }

    #[test]
    fn taper_matches_static_for_regular_work() {
        let mut t = Taper::new();
        for _ in 0..50 {
            t.observe(0, 5.0); // constant costs → cv = 0
        }
        let k = t.next_chunk(0, 64, 4);
        assert_eq!(k, Static.next_chunk(0, 64, 4), "cv=0 behaves like static");
    }

    #[test]
    fn taper_shrinks_chunks_under_variance() {
        let mut t = Taper::new();
        for i in 0..60 {
            t.observe(0, if i % 10 == 0 { 50.0 } else { 1.0 });
        }
        assert!(t.stats.cv() > 1.0);
        let k = t.next_chunk(0, 64, 4);
        assert!(k < 16, "irregular work gets smaller chunks, got {k}");
        assert!(k >= 1);
    }

    #[test]
    fn taper_cost_fn_shrinks_in_expensive_region() {
        let mut t = Taper::with_cost_fn(100);
        for i in 0..50 {
            t.observe(i, 1.0);
        }
        for i in 50..100 {
            t.observe(i, 9.0);
        }
        let cheap = t.next_chunk(5, 40, 4);
        let pricey = t.next_chunk(90, 40, 4);
        assert!(pricey < cheap, "expensive region chunk {pricey} !< cheap {cheap}");
    }

    #[test]
    fn epoch_chunk_halves_local_queue_while_sampling() {
        let mut t = Taper::new();
        // No samples yet: the global sequence says 256/4 = 64, but the
        // sampling-phase cap holds it to half the local queue.
        assert_eq!(t.epoch_chunk(0, 256, 4, 64), 32);
        // Past the sampling phase the full local queue is available.
        for _ in 0..8 {
            t.observe(0, 5.0);
        }
        assert_eq!(t.epoch_chunk(0, 256, 4, 64), 64);
        // Always at least one task, even from a length-1 queue.
        assert_eq!(Taper::new().epoch_chunk(100, 1, 4, 1), 1);
    }

    #[test]
    fn reassign_signal_needs_samples_and_variance() {
        let mut t = Taper::new();
        assert!(!t.reassign_signal(2), "no samples: no signal");
        for i in 0..3 {
            t.observe(i, if i == 0 { 50.0 } else { 1.0 });
        }
        assert!(!t.reassign_signal(2), "3 < 2p samples: no signal");
        t.observe(3, 1.0);
        assert!(t.reassign_signal(2), "high cv past the sampling phase");
        let mut u = Taper::new();
        for i in 0..8 {
            u.observe(i, 7.0);
        }
        assert!(!u.reassign_signal(2), "uniform costs never signal");
    }

    #[test]
    fn chunks_always_within_bounds() {
        let mut policies: Vec<Box<dyn ChunkPolicy>> =
            vec![Box::new(SelfSched), Box::new(Static), Box::new(Taper::new())];
        for pol in &mut policies {
            let mut remaining = 1000usize;
            while remaining > 0 {
                let k = pol.next_chunk(1000 - remaining, remaining, 16);
                assert!(k >= 1 && k <= remaining, "{}: k={k}", pol.name());
                remaining -= k;
            }
        }
    }

    #[test]
    fn batched_observe_chunk_matches_per_task_observe() {
        // Drive two TAPERs through the same schedule: one fed each
        // task time individually (the simulator's path), one fed a
        // single merged accumulator per chunk (the threaded backend's
        // path). The Welford merge is exact, so both must pick the
        // identical chunk-size sequence.
        let total = 500usize;
        let p = 4;
        let cost = |i: usize| 1.0 + (i % 7) as f64 * 0.5;
        let mut per_task = Taper::new();
        let mut batched = Taper::new();
        let mut sizes = Vec::new();
        let (mut next, mut remaining) = (0usize, total);
        while remaining > 0 {
            let ka = per_task.next_chunk(next, remaining, p).clamp(1, remaining);
            let kb = batched.next_chunk(next, remaining, p).clamp(1, remaining);
            assert_eq!(ka, kb, "chunk size diverged at index {next}");
            let mut stats = OnlineStats::new();
            for i in next..next + ka {
                per_task.observe(i, cost(i));
                stats.observe(cost(i));
            }
            batched.observe_chunk(next, ka, &stats);
            sizes.push(ka);
            next += ka;
            remaining -= ka;
        }
        assert_eq!(sizes.iter().sum::<usize>(), total);
        assert!(sizes.len() > 2, "irregular costs must yield several chunks");
        assert_eq!(per_task.samples(), batched.samples());
        assert!((per_task.stats.cv() - batched.stats.cv()).abs() < 1e-9);
    }

    #[test]
    fn predicted_chunks_ordering() {
        // static ≤ taper(regular) ≤ taper(irregular) ≤ self-sched
        let n = 4096;
        let p = 64;
        let st = predicted_chunks(PolicyKind::Static, n, p, 0.0);
        let regular = predicted_chunks(PolicyKind::Taper, n, p, 0.0);
        let tp = predicted_chunks(PolicyKind::Taper, n, p, 1.5);
        let ss = predicted_chunks(PolicyKind::SelfSched, n, p, 0.0);
        assert!(st <= regular && regular <= tp && tp <= ss);
    }
}
