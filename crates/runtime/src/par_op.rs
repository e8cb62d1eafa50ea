//! The simulated machine's scheduling loop.
//!
//! `simulate` runs a DAG of parallel operations on `p` processors,
//! one event each time a processor becomes free or an operation
//! becomes ready. Every operation is scheduled the same way:
//!
//! * **Placement.** Its tasks start block-decomposed over its *share*,
//!   a range of processors (owner-computes \[9\]).
//! * **Readiness.** It is ready once every producer has finished and
//!   that producer's transfer has arrived.
//! * **Serving.** A free processor serves the ready operation of lowest
//!   rank that its shares allow, ties in operation order. It draws its
//!   next chunk from its *own* block first, with no data movement; once
//!   that block is exhausted it steals at most half of the most-loaded
//!   block, from the back, and pays the transfer message ("as the
//!   runtime system gains information about the work distribution, it
//!   refines the data decomposition"). Every chunk dispatch costs the
//!   machine's scheduling overhead, and sampled task times feed back
//!   into the operation's own chunk policy. Static block scheduling
//!   runs each block as one chunk and never steals.
//! * **Re-equalization.** A processor with nothing to serve is
//!   admitted, widen-only, to the ready operation whose finishing-time
//!   estimate of its remaining tasks on its current processors is the
//!   largest: the real pool's `reequalize` rule (§4.1.2), over the
//!   caller's estimator. Static scheduling admits no one.
//!
//! [`simulate_policy`] is the one-operation case.

use crate::chunking::{ChunkPolicy, PolicyKind};
use orchestra_machine::{EventQueue, MachineConfig, RunStats};
use std::ops::Range;

/// Options for a simulation.
#[derive(Debug, Clone, Copy)]
pub struct OpOptions {
    /// Bytes of task data that move when a task runs off its home
    /// processor.
    pub bytes_per_task: u64,
}

impl Default for OpOptions {
    fn default() -> Self {
        OpOptions { bytes_per_task: 256 }
    }
}

/// Result of simulating one parallel operation on its own.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Completion time (µs).
    pub finish: f64,
    /// Per-processor stats.
    pub stats: RunStats,
    /// Chunks dispatched.
    pub chunks: u64,
    /// Tasks that ran off their home processor.
    pub migrated_tasks: u64,
}

/// One operation of a [`simulate`] run.
#[derive(Debug, Clone)]
pub(crate) struct SimOp<'a> {
    /// Task costs (µs).
    pub costs: &'a [f64],
    /// The processors whose blocks the tasks start in (nonempty).
    pub share: Range<usize>,
    /// Producers, by index into the run's operations, each with the
    /// time (µs) its data takes to arrive after it finishes.
    pub deps: Vec<(usize, f64)>,
    /// Serving order: a free processor serves the lowest rank first.
    pub rank: usize,
}

/// What one operation did in a [`simulate`] run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OpRun {
    /// When its first chunk was dispatched (µs); its ready time if it
    /// has no tasks.
    pub start: f64,
    /// When its last task finished (µs).
    pub finish: f64,
    /// Chunks dispatched.
    pub chunks: u64,
    /// Tasks that ran off their home processor.
    pub migrated_tasks: u64,
}

/// The home processor of task `i` under block decomposition of `n`
/// tasks over `p` processors: the spec [`block_of`] is tested against.
#[cfg(test)]
pub(crate) fn owner_of(i: usize, n: usize, p: usize) -> usize {
    if n == 0 {
        return 0;
    }
    (i * p / n).min(p - 1)
}

/// The tasks block decomposition of `n` tasks over `p` processors
/// places on processor `q` — task `i` lives on `⌊i·p/n⌋` — as one
/// contiguous block.
pub(crate) fn block_of(q: usize, n: usize, p: usize) -> Range<usize> {
    // ⌊i·p/n⌋ = q exactly when q·n ≤ i·p < (q+1)·n.
    (q * n).div_ceil(p)..((q + 1) * n).div_ceil(p)
}

/// One operation's state during a run.
struct Live {
    /// What is left of each share member's block.
    local: Vec<Range<usize>>,
    /// Tasks not yet dispatched.
    remaining: usize,
    /// Which processors serve it: its share plus admissions.
    allowed: Vec<bool>,
    /// How many do.
    procs: usize,
    /// Its chunk policy; `None` under static scheduling.
    policy: Option<Box<dyn ChunkPolicy + Send>>,
    /// Producers that have not finished.
    waiting: usize,
    /// When the data of the producers that have finished has arrived.
    ready_at: f64,
    run: OpRun,
}

enum Ev {
    /// A processor is free to take its next chunk.
    Free(usize),
    /// An operation's inputs have all arrived.
    Ready(usize),
}

/// Simulates `ops` on `p` processors of `cfg`, every operation under a
/// fresh `kind` policy; returns what each did and the per-processor
/// stats. `estimate(op, remaining, procs)` scores an operation for
/// re-equalization: its finishing time with `remaining` tasks left on
/// `procs` processors.
///
/// # Panics
///
/// Panics if an operation's share is empty or reaches past `p`, or a
/// dependence names no operation.
pub(crate) fn simulate(
    cfg: &MachineConfig,
    p: usize,
    ops: &[SimOp<'_>],
    kind: PolicyKind,
    opts: &OpOptions,
    estimate: impl Fn(usize, usize, usize) -> f64,
) -> (Vec<OpRun>, RunStats) {
    let p = p.max(1);
    let mut dependents: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ops.len()];
    for (c, op) in ops.iter().enumerate() {
        assert!(!op.share.is_empty() && op.share.end <= p, "share {:?} of {p}", op.share);
        for &(d, transfer) in &op.deps {
            dependents[d].push((c, transfer));
        }
    }
    let mut live: Vec<Live> = ops
        .iter()
        .map(|op| {
            let (n, w) = (op.costs.len(), op.share.len());
            Live {
                local: (0..w).map(|v| block_of(v, n, w)).collect(),
                remaining: n,
                allowed: (0..p).map(|q| op.share.contains(&q)).collect(),
                procs: w,
                policy: (kind != PolicyKind::Static).then(|| kind.instantiate(n)),
                waiting: op.deps.len(),
                ready_at: 0.0,
                run: OpRun::default(),
            }
        })
        .collect();
    let mut stats = RunStats::new(p);
    let mut queue: EventQueue<Ev> = EventQueue::new();
    for (i, op) in ops.iter().enumerate() {
        if op.deps.is_empty() {
            queue.push(0.0, Ev::Ready(i));
        }
    }
    // Processors with no event pending, and the ready operations with
    // tasks left, in serving order.
    let mut idle = vec![true; p];
    let mut ready: Vec<usize> = Vec::new();

    while let Some((t, ev)) = queue.pop() {
        let q = match ev {
            Ev::Free(q) => q,
            Ev::Ready(i) if live[i].remaining == 0 => {
                live[i].run.start = t;
                live[i].run.finish = t;
                finished(i, &dependents, &mut live, &mut queue);
                continue;
            }
            Ev::Ready(i) => {
                let key = |j: usize| (ops[j].rank, j);
                let at = ready.partition_point(|&j| key(j) < key(i));
                ready.insert(at, i);
                for (q, idle) in idle.iter_mut().enumerate().filter(|(_, idle)| **idle) {
                    *idle = false;
                    queue.push(t, Ev::Free(q));
                }
                continue;
            }
        };
        let own = |i: usize| ops[i].share.contains(&q).then(|| q - ops[i].share.start);
        let mut served = ready.iter().copied().find(|&i| {
            let runs_own = |v: usize| !live[i].local[v].is_empty();
            live[i].allowed[q] && (live[i].policy.is_some() || own(i).is_some_and(runs_own))
        });
        if served.is_none() && kind != PolicyKind::Static {
            let laggard = ready
                .iter()
                .copied()
                .filter(|&i| !live[i].allowed[q])
                .map(|i| (estimate(i, live[i].remaining, live[i].procs), i))
                .max_by(|a, b| a.0.total_cmp(&b.0));
            if let Some((_, i)) = laggard {
                live[i].allowed[q] = true;
                live[i].procs += 1;
                served = Some(i);
            }
        }
        let Some(i) = served else {
            idle[q] = true;
            continue;
        };

        let (costs, share) = (ops[i].costs, &ops[i].share);
        let own = own(i);
        let op = &mut live[i];
        // The chunk, whether it was stolen (taken from the back of the
        // victim's block, last task first), and its transfer time.
        let (span, stolen, transfer) = match (&mut op.policy, own) {
            (None, Some(v)) => (std::mem::take(&mut op.local[v]), false, 0.0),
            (None, None) => unreachable!("static scheduling serves only its own block"),
            (Some(policy), own) => {
                let n = costs.len();
                let k = policy.next_chunk(n - op.remaining, op.remaining, op.procs);
                let k = k.clamp(1, op.remaining);
                match own.filter(|&v| !op.local[v].is_empty()) {
                    Some(v) => {
                        let take = k.min(op.local[v].len());
                        let span = op.local[v].start..op.local[v].start + take;
                        op.local[v].start += take;
                        (span, false, 0.0)
                    }
                    None => {
                        let w = op.local.len();
                        let victim = (0..w).max_by_key(|&v| op.local[v].len()).expect("share");
                        let take = k.min(op.local[victim].len().div_ceil(2));
                        let span = op.local[victim].end - take..op.local[victim].end;
                        op.local[victim].end -= take;
                        let bytes = take as u64 * opts.bytes_per_task;
                        op.run.migrated_tasks += take as u64;
                        (span, true, cfg.msg_time(share.start + victim, q, bytes))
                    }
                }
            }
        };
        op.remaining -= span.len();
        op.run.chunks += 1;
        let mut work = 0.0;
        for j in 0..span.len() {
            let task = if stolen { span.end - 1 - j } else { span.start + j };
            work += costs[task];
            if let Some(policy) = &mut op.policy {
                policy.observe(task, costs[task]);
            }
        }
        let end = t + cfg.sched_overhead + transfer + work;
        stats.record_chunk(q, span.len() as u64, work, end);
        if op.run.chunks == 1 {
            op.run.start = t;
        }
        op.run.finish = op.run.finish.max(end);
        queue.push(end, Ev::Free(q));
        // Its last chunk is out, so its finish is known.
        if op.remaining == 0 {
            ready.retain(|&j| j != i);
            finished(i, &dependents, &mut live, &mut queue);
        }
    }
    (live.into_iter().map(|op| op.run).collect(), stats)
}

/// Operation `i` has finished: each dependent counts it off, and one
/// whose producers have all finished is ready once the last data lands.
fn finished(
    i: usize,
    dependents: &[Vec<(usize, f64)>],
    live: &mut [Live],
    queue: &mut EventQueue<Ev>,
) {
    let finish = live[i].run.finish;
    for &(c, transfer) in &dependents[i] {
        let op = &mut live[c];
        op.ready_at = op.ready_at.max(finish + transfer);
        op.waiting -= 1;
        if op.waiting == 0 {
            queue.push(op.ready_at, Ev::Ready(c));
        }
    }
}

/// Simulates one parallel operation on `p` processors under `kind`:
/// `simulate`'s one-operation case, its share the whole machine.
pub fn simulate_policy(
    cfg: &MachineConfig,
    p: usize,
    costs: &[f64],
    kind: PolicyKind,
    opts: &OpOptions,
) -> OpResult {
    let p = p.max(1);
    let op = SimOp { costs, share: 0..p, deps: Vec::new(), rank: 0 };
    let (runs, stats) = simulate(cfg, p, &[op], kind, opts, |_, _, _| 0.0);
    let run = runs[0];
    OpResult { finish: run.finish, stats, chunks: run.chunks, migrated_tasks: run.migrated_tasks }
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
        let r = simulate_policy(&ideal(8), 8, &costs, PolicyKind::Static, &OpOptions::default());
        assert!((r.finish - 80.0).abs() < 1e-9);
        assert!((r.stats.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let costs = CostDistribution::HeavyTail { mean: 5.0, sigma: 1.0 }.sample(500, 3);
        for kind in
            [PolicyKind::Static, PolicyKind::SelfSched, PolicyKind::Taper, PolicyKind::TaperCostFn]
        {
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
        let st = simulate_policy(&cfg, 64, &costs, PolicyKind::Static, &OpOptions::default());
        let dy = simulate_policy(&cfg, 64, &costs, PolicyKind::Taper, &OpOptions::default());
        assert!(dy.finish < st.finish, "TAPER {} should beat static {}", dy.finish, st.finish);
    }

    #[test]
    fn static_beats_self_sched_on_regular_work_with_overhead() {
        let costs = vec![5.0; 4096];
        let cfg = MachineConfig::ncube2(64);
        let st = simulate_policy(&cfg, 64, &costs, PolicyKind::Static, &OpOptions::default());
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
    fn migration_counted_only_off_home() {
        // 1 processor: everything is home.
        let costs = vec![1.0; 50];
        let r = simulate_policy(
            &MachineConfig::ncube2(1),
            1,
            &costs,
            PolicyKind::Taper,
            &OpOptions::default(),
        );
        assert_eq!(r.migrated_tasks, 0);
    }

    #[test]
    fn more_processors_never_slower_ideal_machine() {
        let costs = CostDistribution::Uniform { mean: 10.0, spread: 0.5 }.sample(512, 13);
        let t8 = simulate_policy(&ideal(8), 8, &costs, PolicyKind::Static, &OpOptions::default());
        let t64 =
            simulate_policy(&ideal(64), 64, &costs, PolicyKind::Static, &OpOptions::default());
        assert!(t64.finish <= t8.finish + 1e-9);
    }

    /// The one-op schedule is pinned: every dynamic policy's finish,
    /// chunk count and migrated tasks on three cost distributions hash,
    /// bit for bit, to values recorded before the op loop served graphs.
    #[test]
    fn one_op_schedules_are_pinned() {
        let dists = [
            CostDistribution::Uniform { mean: 5.0, spread: 0.5 },
            CostDistribution::Bimodal { mean: 40.0, heavy_frac: 0.1, heavy_mult: 12.0 },
            CostDistribution::HeavyTail { mean: 20.0, sigma: 1.2 },
        ];
        let cfg = MachineConfig::ncube2(64);
        let hashes: Vec<(&str, u64)> =
            [PolicyKind::SelfSched, PolicyKind::Taper, PolicyKind::TaperCostFn]
                .into_iter()
                .map(|kind| {
                    let mut h = 0xcbf2_9ce4_8422_2325u64;
                    for (seed, dist) in (11..).zip(&dists) {
                        let costs = dist.sample(3000, seed);
                        let r = simulate_policy(&cfg, 64, &costs, kind, &OpOptions::default());
                        for word in [r.finish.to_bits(), r.chunks, r.migrated_tasks] {
                            for b in word.to_le_bytes() {
                                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                            }
                        }
                    }
                    (kind.name(), h)
                })
                .collect();
        let pinned = [
            ("self-scheduling", 0x522d_c15a_3c03_4e07),
            ("TAPER", 0x8e5d_893a_c673_f602),
            ("TAPER+costfn", 0xbb35_014c_14fe_9d0a),
        ];
        assert_eq!(hashes, pinned);
    }

    /// A consumer waits for its producer's last task plus the transfer,
    /// and a processor with nothing left to serve in its own share is
    /// admitted to the op that still has work.
    #[test]
    fn consumers_wait_and_idle_processors_widen() {
        let cfg = ideal(4);
        let (a, b) = (vec![10.0; 8], vec![4.0; 64]);
        let ops = [
            SimOp { costs: &a, share: 0..2, deps: Vec::new(), rank: 0 },
            SimOp { costs: &b, share: 2..4, deps: Vec::new(), rank: 0 },
            SimOp { costs: &a, share: 0..4, deps: vec![(0, 5.0)], rank: 0 },
        ];
        let (runs, stats) =
            simulate(&cfg, 4, &ops, PolicyKind::SelfSched, &OpOptions::default(), |_, n, p| {
                n as f64 / p as f64
            });
        assert!(runs[2].start >= runs[0].finish + 5.0, "{runs:?}");
        // Op 0's two processors finish its 80 µs of work at 40 µs and
        // then help op 1, which would take 128 µs on its own two.
        assert!(runs[1].migrated_tasks > 0 && runs[1].finish < 128.0, "{runs:?}");
        assert_eq!(stats.total_tasks(), 80);
        // Static scheduling never widens a share.
        let (runs, _) =
            simulate(&cfg, 4, &ops, PolicyKind::Static, &OpOptions::default(), |_, _, _| 0.0);
        assert_eq!(runs[1].migrated_tasks, 0);
        assert!((runs[1].finish - 128.0).abs() < 1e-9, "{runs:?}");
    }
}
