//! Simulation of a single parallel operation under a chunk policy.
//!
//! Tasks execute under the owner-computes rule \[9\]: an initial block
//! decomposition assigns each task a home processor; a processor
//! executing a chunk of non-owned tasks pays the data-transfer message
//! cost. Every chunk dispatch costs the machine's scheduling overhead.
//! Static block scheduling (the no-runtime baseline) has its own path
//! with no dynamic events at all.

use crate::chunking::{ChunkPolicy, PolicyKind};
use orchestra_machine::{EventQueue, MachineConfig, RunStats};
use std::ops::Range;

/// Options for one parallel-operation simulation.
#[derive(Debug, Clone, Copy)]
pub struct OpOptions {
    /// Bytes of task data that move when a task runs off its home
    /// processor.
    pub bytes_per_task: u64,
    /// Simulation start time (µs) — operations later in a dataflow
    /// schedule start when their inputs are ready.
    pub start_time: f64,
    /// First processor of the partition executing this op.
    pub proc_offset: usize,
}

impl Default for OpOptions {
    fn default() -> Self {
        OpOptions { bytes_per_task: 256, start_time: 0.0, proc_offset: 0 }
    }
}

/// Result of simulating one parallel operation.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Completion time (µs, absolute).
    pub finish: f64,
    /// Per-processor stats.
    pub stats: RunStats,
    /// Chunks dispatched.
    pub chunks: u64,
    /// Tasks that ran off their home processor.
    pub migrated_tasks: u64,
}

impl OpResult {
    /// Efficiency relative to perfect speedup of the total task work.
    pub fn efficiency(&self, total_work: f64, p: usize, start: f64) -> f64 {
        let span = self.finish - start;
        if span <= 0.0 {
            return 1.0;
        }
        total_work / (p as f64 * span)
    }
}

/// The home processor of task `i` under block decomposition of `n`
/// tasks over `p` processors.
pub fn owner_of(i: usize, n: usize, p: usize) -> usize {
    if n == 0 {
        return 0;
    }
    (i * p / n).min(p - 1)
}

/// The tasks [`owner_of`] places on processor `q`: one contiguous block.
pub(crate) fn block_of(q: usize, n: usize, p: usize) -> Range<usize> {
    // ⌊i·p/n⌋ = q exactly when q·n ≤ i·p < (q+1)·n.
    (q * n).div_ceil(p)..((q + 1) * n).div_ceil(p)
}

/// Simulates static block scheduling: processor `q` executes its block
/// of the iteration space with a single scheduling event and no
/// transfers.
pub fn simulate_static(cfg: &MachineConfig, p: usize, costs: &[f64], opts: &OpOptions) -> OpResult {
    let p = p.max(1);
    let n = costs.len();
    let mut stats = RunStats::new(p);
    let mut finish = opts.start_time;
    for q in 0..p {
        let lo = q * n / p;
        let hi = (q + 1) * n / p;
        if lo >= hi {
            continue;
        }
        let work: f64 = costs[lo..hi].iter().sum();
        let end = opts.start_time + cfg.sched_overhead + work;
        stats.record_chunk(q, (hi - lo) as u64, work, end);
        finish = finish.max(end);
    }
    OpResult { finish, stats, chunks: p.min(n) as u64, migrated_tasks: 0 }
}

/// Simulates a dynamically scheduled parallel operation.
///
/// Tasks start block-decomposed onto their home processors
/// (owner-computes). An idle processor draws its next chunk from its
/// *own* block first — no data movement; once its block is exhausted it
/// takes work from the most-loaded processor, paying the transfer
/// message cost ("as the runtime system gains information about the
/// work distribution, it refines the data decomposition"). Sampled task
/// times feed back into the policy.
pub fn simulate_dynamic(
    cfg: &MachineConfig,
    p: usize,
    costs: &[f64],
    policy: &mut dyn ChunkPolicy,
    opts: &OpOptions,
) -> OpResult {
    let p = p.max(1);
    let n = costs.len();
    let mut stats = RunStats::new(p);
    let mut queue: EventQueue<usize> = EventQueue::new();
    // Per-processor pending ranges: what is left of each owned block.
    let mut local: Vec<Range<usize>> = (0..p).map(|q| block_of(q, n, p)).collect();
    let mut remaining = n;
    let mut chunks = 0u64;
    let mut migrated = 0u64;
    let mut finish = opts.start_time;

    // All processors request work at the start.
    for q in 0..p {
        queue.push(opts.start_time, q);
    }
    while let Some((t, q)) = queue.pop() {
        if remaining == 0 {
            continue;
        }
        let next_hint = n - remaining;
        let k = policy.next_chunk(next_hint, remaining, p).clamp(1, remaining);
        let mut transfer = 0.0;
        // The chunk, and whether it was stolen (taken from the back of
        // the victim's block, last task first).
        let (span, stolen) = if !local[q].is_empty() {
            let take = k.min(local[q].len());
            let span = local[q].start..local[q].start + take;
            local[q].start += take;
            (span, false)
        } else {
            // Steal from the most-loaded processor (at most half its
            // remaining block, never more than the chunk).
            let victim = (0..p).max_by_key(|&v| local[v].len()).expect("p >= 1");
            if local[victim].is_empty() {
                continue;
            }
            let take = k.min(local[victim].len().div_ceil(2));
            let span = local[victim].end - take..local[victim].end;
            local[victim].end -= take;
            let bytes = take as u64 * opts.bytes_per_task;
            transfer = cfg.msg_time(opts.proc_offset + victim, opts.proc_offset + q, bytes);
            migrated += take as u64;
            (span, true)
        };
        remaining -= span.len();
        chunks += 1;
        let mut work = 0.0;
        for j in 0..span.len() {
            let i = if stolen { span.end - 1 - j } else { span.start + j };
            work += costs[i];
            policy.observe(i, costs[i]);
        }
        let end = t + cfg.sched_overhead + transfer + work;
        stats.record_chunk(q, span.len() as u64, work, end);
        finish = finish.max(end);
        queue.push(end, q);
    }
    OpResult { finish, stats, chunks, migrated_tasks: migrated }
}

/// Simulates under a [`PolicyKind`], dispatching to the static or
/// dynamic path.
pub fn simulate_policy(
    cfg: &MachineConfig,
    p: usize,
    costs: &[f64],
    kind: PolicyKind,
    opts: &OpOptions,
) -> OpResult {
    match kind {
        PolicyKind::Static => simulate_static(cfg, p, costs, opts),
        other => {
            let mut policy = other.instantiate(costs.len());
            simulate_dynamic(cfg, p, costs, policy.as_mut(), opts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_machine::CostDistribution;

    fn ideal(p: usize) -> MachineConfig {
        MachineConfig::ideal(p)
    }

    #[test]
    fn owner_blocks_are_contiguous_and_balanced() {
        let owners: Vec<usize> = (0..100).map(|i| owner_of(i, 100, 4)).collect();
        assert_eq!(owners[0], 0);
        assert_eq!(owners[99], 3);
        assert!(owners.windows(2).all(|w| w[1] >= w[0]));
        for q in 0..4 {
            assert_eq!(owners.iter().filter(|&&o| o == q).count(), 25);
        }
        // `block_of` is the same placement read the other way round,
        // uneven and empty blocks included.
        for (n, p) in (0..40).flat_map(|n| (1..9).map(move |p| (n, p))) {
            for q in 0..p {
                let block: Vec<usize> = (0..n).filter(|&i| owner_of(i, n, p) == q).collect();
                assert_eq!(block_of(q, n, p).collect::<Vec<_>>(), block, "n={n} p={p} q={q}");
            }
        }
    }

    #[test]
    fn static_on_uniform_work_is_perfect() {
        let costs = vec![10.0; 64];
        let r = simulate_static(&ideal(8), 8, &costs, &OpOptions::default());
        assert!((r.finish - 80.0).abs() < 1e-9);
        assert!((r.stats.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let costs = CostDistribution::HeavyTail { mean: 5.0, sigma: 1.0 }.sample(500, 3);
        for kind in [
            PolicyKind::Static,
            PolicyKind::SelfSched,
            PolicyKind::Gss,
            PolicyKind::Factoring,
            PolicyKind::Taper,
            PolicyKind::TaperCostFn,
        ] {
            let r = simulate_policy(
                &MachineConfig::ncube2(16),
                16,
                &costs,
                kind,
                &OpOptions::default(),
            );
            assert_eq!(r.stats.total_tasks(), 500, "{}", kind.name());
            let total: f64 = costs.iter().sum();
            assert!((r.stats.total_busy() - total).abs() < 1e-6, "{}", kind.name());
        }
    }

    #[test]
    fn makespan_at_least_critical_path() {
        let mut costs = vec![1.0; 100];
        costs[0] = 500.0; // one giant task
        let r =
            simulate_policy(&ideal(10), 10, &costs, PolicyKind::SelfSched, &OpOptions::default());
        assert!(r.finish >= 500.0);
    }

    #[test]
    fn dynamic_beats_static_on_irregular_work() {
        // Coarse-grained tasks (the paper's scheduling units) so that
        // dynamic scheduling can amortize the machine's message costs.
        let costs = CostDistribution::Bimodal { mean: 500.0, heavy_frac: 0.1, heavy_mult: 30.0 }
            .sample(1000, 7);
        let cfg = MachineConfig::ncube2(64);
        let st = simulate_static(&cfg, 64, &costs, &OpOptions::default());
        let mut taper = crate::chunking::Taper::new();
        let dy = simulate_dynamic(&cfg, 64, &costs, &mut taper, &OpOptions::default());
        assert!(dy.finish < st.finish, "TAPER {} should beat static {}", dy.finish, st.finish);
    }

    #[test]
    fn static_beats_self_sched_on_regular_work_with_overhead() {
        let costs = vec![5.0; 4096];
        let cfg = MachineConfig::ncube2(64);
        let st = simulate_static(&cfg, 64, &costs, &OpOptions::default());
        let ss = simulate_policy(&cfg, 64, &costs, PolicyKind::SelfSched, &OpOptions::default());
        assert!(
            st.finish < ss.finish,
            "static {} should beat self-sched {} on regular work",
            st.finish,
            ss.finish
        );
    }

    #[test]
    fn taper_uses_fewer_chunks_than_self_sched() {
        let costs = CostDistribution::Uniform { mean: 5.0, spread: 0.3 }.sample(2000, 9);
        let cfg = MachineConfig::ncube2(32);
        let ss = simulate_policy(&cfg, 32, &costs, PolicyKind::SelfSched, &OpOptions::default());
        let tp = simulate_policy(&cfg, 32, &costs, PolicyKind::Taper, &OpOptions::default());
        assert!(tp.chunks < ss.chunks / 4);
    }

    #[test]
    fn start_time_offsets_everything() {
        let costs = vec![2.0; 64];
        let opts = OpOptions { start_time: 1000.0, ..OpOptions::default() };
        let r = simulate_policy(&ideal(8), 8, &costs, PolicyKind::Gss, &opts);
        assert!(r.finish >= 1016.0);
    }

    #[test]
    fn migration_counted_only_off_home() {
        // 1 processor: everything is home.
        let costs = vec![1.0; 50];
        let r = simulate_policy(
            &MachineConfig::ncube2(1),
            1,
            &costs,
            PolicyKind::Gss,
            &OpOptions::default(),
        );
        assert_eq!(r.migrated_tasks, 0);
    }

    #[test]
    fn more_processors_never_slower_ideal_machine() {
        let costs = CostDistribution::Uniform { mean: 10.0, spread: 0.5 }.sample(512, 13);
        let t8 = simulate_policy(&ideal(8), 8, &costs, PolicyKind::Gss, &OpOptions::default());
        let t64 = simulate_policy(&ideal(64), 64, &costs, PolicyKind::Gss, &OpOptions::default());
        assert!(t64.finish <= t8.finish + 1e-9);
    }
}
