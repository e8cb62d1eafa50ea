//! Synthetic task-cost generators.
//!
//! The runtime's behaviour depends on the *distribution* of task
//! execution times: regular operations have low variance, irregular
//! ones (the climate model's cloud physics, Psirrfan's masked columns)
//! have high variance and heavy tails. These generators draw
//! deterministic cost vectors from seeded RNGs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A task-cost distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostDistribution {
    /// Every task costs exactly `mean`.
    Constant {
        /// The fixed cost (µs).
        mean: f64,
    },
    /// Uniform in `[mean·(1−spread), mean·(1+spread)]`.
    Uniform {
        /// Mean cost (µs).
        mean: f64,
        /// Half-width as a fraction of the mean (0‥1).
        spread: f64,
    },
    /// A two-population mixture: a fraction `heavy_frac` of tasks cost
    /// `heavy_mult`× the base mean — the shape of masked/conditional
    /// irregularity (cloud physics, `mask[col] <> 0` columns).
    Bimodal {
        /// Base mean cost (µs).
        mean: f64,
        /// Fraction of heavy tasks (0‥1).
        heavy_frac: f64,
        /// Cost multiplier of heavy tasks.
        heavy_mult: f64,
    },
    /// Log-normal-like heavy tail: `mean · exp(σ·Z − σ²/2)`.
    HeavyTail {
        /// Mean cost (µs).
        mean: f64,
        /// Log-space standard deviation.
        sigma: f64,
    },
    /// A bimodal mixture whose heavy tasks appear in contiguous *runs*
    /// of ~`cluster` tasks — the spatial shape of real irregularity
    /// (dense image regions, convectively active grid cells). Static
    /// block decompositions land whole clusters on single processors;
    /// dynamic schedulers re-balance them.
    ClusteredBimodal {
        /// Mean of the light population (µs).
        mean: f64,
        /// Fraction of heavy tasks (0‥1).
        heavy_frac: f64,
        /// Cost multiplier of heavy tasks.
        heavy_mult: f64,
        /// Expected run length of heavy clusters.
        cluster: usize,
    },
}

impl CostDistribution {
    /// Draws `n` task costs deterministically from `seed`. Every variant
    /// but `ClusteredBimodal` yields bitwise the costs of `n` successive
    /// [`draw`](Self::draw)s from `StdRng::seed_from_u64(seed)`; the
    /// variant is matched once, not once per task.
    pub fn sample(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        match *self {
            CostDistribution::Constant { mean } => vec![mean; n],
            CostDistribution::Uniform { mean, spread } => {
                let (lo, hi) = (mean * (1.0 - spread), mean * (1.0 + spread));
                (0..n).map(|_| rng.gen_range(lo..=hi)).collect()
            }
            CostDistribution::Bimodal { mean, heavy_frac, heavy_mult } => {
                (0..n).map(|_| two_point(&mut rng, mean, heavy_frac, heavy_mult)).collect()
            }
            CostDistribution::HeavyTail { mean, sigma } => {
                (0..n).map(|_| heavy_tail(&mut rng, mean, sigma)).collect()
            }
            CostDistribution::ClusteredBimodal { mean, heavy_frac, heavy_mult, cluster } => {
                // Markov run model: switch into a heavy run with the rate
                // that makes the long-run heavy fraction come out right.
                let cluster = cluster.max(1) as f64;
                let p_exit = 1.0 / cluster;
                let p_enter = p_exit * heavy_frac / (1.0 - heavy_frac).max(1e-9);
                let mut heavy = rng.gen::<f64>() < heavy_frac;
                let mut out = Vec::with_capacity(n);
                for _ in 0..n {
                    out.push(if heavy { mean * heavy_mult } else { mean });
                    let flip: f64 = rng.gen();
                    heavy = if heavy { flip >= p_exit } else { flip < p_enter };
                }
                out
            }
        }
    }

    /// Draws one cost.
    pub fn draw(&self, rng: &mut StdRng) -> f64 {
        match *self {
            CostDistribution::Constant { mean } => mean,
            CostDistribution::Uniform { mean, spread } => {
                let lo = mean * (1.0 - spread);
                let hi = mean * (1.0 + spread);
                rng.gen_range(lo..=hi)
            }
            // `draw` cannot carry cluster state: a clustered mixture
            // draws as the uncorrelated one (sample() handles clustering).
            CostDistribution::Bimodal { mean, heavy_frac, heavy_mult }
            | CostDistribution::ClusteredBimodal { mean, heavy_frac, heavy_mult, .. } => {
                two_point(rng, mean, heavy_frac, heavy_mult)
            }
            CostDistribution::HeavyTail { mean, sigma } => heavy_tail(rng, mean, sigma),
        }
    }

    /// The distribution's analytic mean (µs).
    pub fn mean(&self) -> f64 {
        match *self {
            CostDistribution::Constant { mean } | CostDistribution::Uniform { mean, .. } => mean,
            CostDistribution::Bimodal { mean, heavy_frac, heavy_mult } => {
                mean * (1.0 - heavy_frac) + mean * heavy_mult * heavy_frac
            }
            CostDistribution::HeavyTail { mean, .. } => mean,
            CostDistribution::ClusteredBimodal { mean, heavy_frac, heavy_mult, .. } => {
                mean * (1.0 - heavy_frac) + mean * heavy_mult * heavy_frac
            }
        }
    }
}

/// One draw of the two-point mixture: `mean · heavy_mult` with
/// probability `heavy_frac`, `mean` otherwise.
#[inline]
fn two_point(rng: &mut StdRng, mean: f64, heavy_frac: f64, heavy_mult: f64) -> f64 {
    if rng.gen::<f64>() < heavy_frac {
        mean * heavy_mult
    } else {
        mean
    }
}

/// One log-normal draw with mean `mean` through a Box–Muller normal.
#[inline]
fn heavy_tail(rng: &mut StdRng, mean: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen::<f64>();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean * (sigma * z - sigma * sigma / 2.0).exp()
}

/// Summary statistics of a cost vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSummary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Coefficient of variation σ/µ.
    pub cv: f64,
    /// Total work.
    pub total: f64,
}

impl CostSummary {
    /// The summary of an empty cost vector: every statistic is zero.
    /// Callers in this crate that must distinguish "no tasks" from
    /// "all tasks free" use `try_summarize` instead.
    pub(crate) const EMPTY: CostSummary =
        CostSummary { mean: 0.0, std_dev: 0.0, cv: 0.0, total: 0.0 };
}

/// Computes summary statistics. An empty slice yields all zeros —
/// explicitly, not as an artifact of division guards.
pub fn summarize(costs: &[f64]) -> CostSummary {
    try_summarize(costs).unwrap_or(CostSummary::EMPTY)
}

/// Computes summary statistics, or `None` for an empty slice.
pub(crate) fn try_summarize(costs: &[f64]) -> Option<CostSummary> {
    if costs.is_empty() {
        return None;
    }
    let n = costs.len() as f64;
    let total: f64 = costs.iter().sum();
    let mean = total / n;
    let var = costs.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / n;
    let std_dev = var.sqrt();
    Some(CostSummary { mean, std_dev, cv: if mean > 0.0 { std_dev / mean } else { 0.0 }, total })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `sample` is `n` successive `draw`s from one seeded generator,
        /// bit for bit, on every variant whose `draw` is the same
        /// distribution (a clustered mixture's is not).
        #[test]
        fn sample_is_successive_draws(
            seed in any::<u64>(),
            n in proptest::sample::select(vec![0usize, 1, 2, 1000]),
            mean in 0.01..100.0f64,
            shape in 0.0..1.0f64,
        ) {
            for d in [
                CostDistribution::Constant { mean },
                CostDistribution::Uniform { mean, spread: shape },
                CostDistribution::Bimodal { mean, heavy_frac: shape, heavy_mult: 1.0 + 9.0 * shape },
                CostDistribution::HeavyTail { mean, sigma: 2.0 * shape },
            ] {
                let mut rng = StdRng::seed_from_u64(seed);
                let drawn: Vec<u64> = (0..n).map(|_| d.draw(&mut rng).to_bits()).collect();
                let sampled: Vec<u64> = d.sample(n, seed).iter().map(|c| c.to_bits()).collect();
                prop_assert_eq!(sampled, drawn, "{:?}", d);
            }
        }
    }

    #[test]
    fn constant_has_zero_cv() {
        let c = CostDistribution::Constant { mean: 5.0 }.sample(100, 1);
        let s = summarize(&c);
        assert_eq!(s.cv, 0.0);
        assert_eq!(s.total, 500.0);
    }

    #[test]
    fn empty_costs_are_an_explicit_zero_summary() {
        assert_eq!(try_summarize(&[]), None);
        let s = summarize(&[]);
        assert_eq!(s, CostSummary::EMPTY);
        assert_eq!((s.mean, s.std_dev, s.cv, s.total), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn sampling_is_deterministic() {
        let d = CostDistribution::HeavyTail { mean: 10.0, sigma: 1.0 };
        assert_eq!(d.sample(50, 42), d.sample(50, 42));
        assert_ne!(d.sample(50, 42), d.sample(50, 43));
    }

    #[test]
    fn bimodal_mean_matches_analytic() {
        let d = CostDistribution::Bimodal { mean: 10.0, heavy_frac: 0.3, heavy_mult: 5.0 };
        let s = summarize(&d.sample(200_000, 7));
        assert!((s.mean - d.mean()).abs() / d.mean() < 0.02, "{} vs {}", s.mean, d.mean());
        assert!(s.cv > 0.5, "bimodal should be irregular");
    }

    #[test]
    fn heavy_tail_mean_approx_preserved() {
        let d = CostDistribution::HeavyTail { mean: 20.0, sigma: 0.8 };
        let s = summarize(&d.sample(400_000, 11));
        assert!((s.mean - 20.0).abs() / 20.0 < 0.05, "sample mean {}", s.mean);
        assert!(s.cv > 0.5);
    }

    #[test]
    fn uniform_bounds_respected() {
        let d = CostDistribution::Uniform { mean: 10.0, spread: 0.5 };
        let c = d.sample(10_000, 3);
        assert!(c.iter().all(|&x| (5.0..=15.0).contains(&x)));
    }

    #[test]
    fn all_costs_positive() {
        for d in [
            CostDistribution::Constant { mean: 1.0 },
            CostDistribution::Uniform { mean: 1.0, spread: 0.9 },
            CostDistribution::Bimodal { mean: 1.0, heavy_frac: 0.5, heavy_mult: 10.0 },
            CostDistribution::HeavyTail { mean: 1.0, sigma: 1.5 },
        ] {
            assert!(d.sample(10_000, 5).iter().all(|&c| c > 0.0), "{d:?}");
        }
    }
}
