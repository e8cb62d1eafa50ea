//! Online task-time statistics and cost functions (§4.1.1).
//!
//! "The runtime system samples task execution times to compute their
//! statistical mean (µ) and variance (σ²)." A further sampling pass
//! builds a *cost function* estimating task time as a function of
//! iteration number; TAPER scales chunk sizes by `s = µg/µc`, the ratio
//! of the global mean to the mean of the tasks in the current chunk.

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats::default()
    }

    /// Observes one sample.
    pub fn observe(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 before any observation).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation σ/µ (0 when the mean is 0).
    pub fn cv(&self) -> f64 {
        if self.mean.abs() < f64::EPSILON {
            0.0
        } else {
            self.std_dev() / self.mean
        }
    }

    /// Merges another accumulator into this one (Chan et al.'s
    /// parallel Welford combine): the result is mathematically
    /// identical to having observed both sample streams in sequence.
    /// This is what lets workers accumulate task times locally and
    /// fold them into a shared policy once per chunk instead of
    /// taking a lock per task.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let (n1, n2) = (self.n as f64, other.n as f64);
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
    }

    /// Observes the same value `k` times (a weighted observation):
    /// shifts the mean exactly as `k` calls to [`observe`](Self::observe)
    /// would, with zero within-group spread.
    pub fn observe_n(&mut self, x: f64, k: u64) {
        self.merge(&OnlineStats { n: k, mean: x, m2: 0.0 });
    }

    /// The coefficient of variation, or `None` until at least `min`
    /// samples have been observed. Adaptive gates (distributed TAPER's
    /// re-assignment rule) need "no signal yet" to be distinguishable
    /// from "measured ≈ 0": acting on a cv estimated from one or two
    /// samples would steal work on noise.
    pub fn cv_if_sampled(&self, min: u64) -> Option<f64> {
        if self.n >= min.max(1) {
            Some(self.cv())
        } else {
            None
        }
    }

    /// The second central moment Σ(x−µ)² — the third number (besides
    /// `count` and `mean`) a checkpoint must persist to reconstruct
    /// the accumulator exactly.
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Rebuilds an accumulator from persisted moments: the inverse of
    /// reading [`count`](Self::count) / [`mean`](Self::mean) /
    /// [`m2`](Self::m2). `merge`-ing the result behaves exactly like
    /// the original accumulator (checkpoint restore path).
    pub fn from_parts(count: u64, mean: f64, m2: f64) -> Self {
        if count == 0 {
            return OnlineStats::new();
        }
        OnlineStats { n: count, mean, m2: m2.max(0.0) }
    }
}

/// A positional cost function: mean task cost per bucket of the
/// iteration space, built from samples.
#[derive(Debug, Clone)]
pub struct CostFn {
    buckets: Vec<OnlineStats>,
    total_tasks: usize,
}

impl CostFn {
    /// A cost function with `buckets` buckets over `total_tasks`
    /// iterations.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn new(buckets: usize, total_tasks: usize) -> Self {
        assert!(buckets > 0, "cost function needs at least one bucket");
        CostFn { buckets: vec![OnlineStats::new(); buckets], total_tasks: total_tasks.max(1) }
    }

    fn bucket_of(&self, index: usize) -> usize {
        (index * self.buckets.len() / self.total_tasks).min(self.buckets.len() - 1)
    }

    /// Records a sampled task time at the given iteration index.
    pub fn observe(&mut self, index: usize, cost: f64) {
        let b = self.bucket_of(index);
        self.buckets[b].observe(cost);
    }

    /// Records a completed chunk's mean task time over the index span
    /// `[start, start+len)`: each overlapped bucket receives the mean
    /// weighted by how many of the chunk's indices fall in it. Bucket
    /// means — all the cost function reads — match per-task feeding of
    /// the same mean; only within-chunk spread is dropped.
    pub fn observe_span(&mut self, start: usize, len: usize, mean_cost: f64) {
        let mut i = start;
        let end = start + len;
        while i < end {
            let b = self.bucket_of(i);
            // Last index belonging to bucket `b` (bucket_of is
            // monotone in the index).
            let bucket_end = ((b + 1) * self.total_tasks).div_ceil(self.buckets.len());
            let span = end.min(bucket_end.max(i + 1)) - i;
            self.buckets[b].observe_n(mean_cost, span as u64);
            i += span;
        }
    }

    /// Estimated cost of the task at `index`: its bucket's mean, the
    /// global mean when the bucket is unsampled, or 0 with no samples.
    pub fn estimate(&self, index: usize) -> f64 {
        let b = &self.buckets[self.bucket_of(index)];
        if b.count() > 0 {
            b.mean()
        } else {
            self.global_mean()
        }
    }

    /// Mean over all samples.
    pub fn global_mean(&self) -> f64 {
        let (mut total, mut n) = (0.0, 0u64);
        for b in &self.buckets {
            total += b.mean() * b.count() as f64;
            n += b.count();
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }

    /// The chunk scaling factor `s = µg/µc` for a chunk covering
    /// `[start, start+len)` (1.0 with no data).
    pub fn chunk_scale(&self, start: usize, len: usize) -> f64 {
        let g = self.global_mean();
        if g <= 0.0 || len == 0 {
            return 1.0;
        }
        let mut c = 0.0;
        for i in start..start + len {
            c += self.estimate(i.min(self.total_tasks - 1));
        }
        c /= len as f64;
        if c <= 0.0 {
            1.0
        } else {
            g / c
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.observe(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert!((s.cv() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn merge_matches_sequential_observation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0, 1.5, 12.25];
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.observe(x);
        }
        // Split at every point, including the empty prefix/suffix.
        for split in 0..=xs.len() {
            let (mut a, mut b) = (OnlineStats::new(), OnlineStats::new());
            for &x in &xs[..split] {
                a.observe(x);
            }
            for &x in &xs[split..] {
                b.observe(x);
            }
            a.merge(&b);
            assert_eq!(a.count(), whole.count(), "split {split}");
            assert!((a.mean() - whole.mean()).abs() < 1e-12, "split {split}");
            assert!((a.variance() - whole.variance()).abs() < 1e-12, "split {split}");
        }
    }

    #[test]
    fn cv_if_sampled_gates_on_count() {
        let mut s = OnlineStats::new();
        assert_eq!(s.cv_if_sampled(4), None);
        for x in [2.0, 4.0, 4.0] {
            s.observe(x);
        }
        assert_eq!(s.cv_if_sampled(4), None, "3 < 4 samples");
        s.observe(6.0);
        let cv = s.cv_if_sampled(4).expect("4 samples reached");
        assert!((cv - s.cv()).abs() < 1e-15);
        // min of 0 behaves like min of 1 (an empty accumulator never
        // reports a cv).
        assert_eq!(OnlineStats::new().cv_if_sampled(0), None);
    }

    #[test]
    fn observe_n_matches_repeated_observe() {
        let mut repeated = OnlineStats::new();
        let mut weighted = OnlineStats::new();
        repeated.observe(2.0);
        weighted.observe(2.0);
        for _ in 0..5 {
            repeated.observe(7.5);
        }
        weighted.observe_n(7.5, 5);
        assert_eq!(repeated.count(), weighted.count());
        assert!((repeated.mean() - weighted.mean()).abs() < 1e-12);
        assert!((repeated.variance() - weighted.variance()).abs() < 1e-12);
    }

    #[test]
    fn observe_span_matches_per_index_means() {
        // Feeding a chunk mean across a bucket-straddling span must
        // leave every bucket mean identical to feeding that mean at
        // each index individually.
        let mut by_span = CostFn::new(4, 100);
        let mut by_index = CostFn::new(4, 100);
        by_span.observe_span(20, 40, 3.0); // straddles buckets 0..=2
        for i in 20..60 {
            by_index.observe(i, 3.0);
        }
        for probe in [0, 26, 49, 51, 99] {
            assert!(
                (by_span.estimate(probe) - by_index.estimate(probe)).abs() < 1e-12,
                "estimate diverges at {probe}"
            );
        }
        assert!((by_span.global_mean() - by_index.global_mean()).abs() < 1e-12);
    }

    #[test]
    fn cost_fn_buckets_positionally() {
        let mut f = CostFn::new(4, 100);
        // First half cheap, second half expensive.
        for i in 0..50 {
            f.observe(i, 1.0);
        }
        for i in 50..100 {
            f.observe(i, 9.0);
        }
        assert!((f.estimate(10) - 1.0).abs() < 1e-9);
        assert!((f.estimate(90) - 9.0).abs() < 1e-9);
        assert!((f.global_mean() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn chunk_scale_shrinks_expensive_regions() {
        let mut f = CostFn::new(4, 100);
        for i in 0..50 {
            f.observe(i, 1.0);
        }
        for i in 50..100 {
            f.observe(i, 9.0);
        }
        // Expensive region: scale < 1 (schedule smaller chunks).
        assert!(f.chunk_scale(75, 10) < 1.0);
        // Cheap region: scale > 1.
        assert!(f.chunk_scale(10, 10) > 1.0);
    }

    #[test]
    fn unsampled_bucket_falls_back_to_global() {
        let mut f = CostFn::new(10, 100);
        f.observe(0, 4.0);
        assert!((f.estimate(95) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn no_samples_scale_is_one() {
        let f = CostFn::new(4, 100);
        assert_eq!(f.chunk_scale(0, 10), 1.0);
    }
}
