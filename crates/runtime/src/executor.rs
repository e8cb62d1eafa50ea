//! Executing a Delirium dataflow graph on the simulated machine.
//!
//! The simulator runs the plan the real engines run:
//! [`build_plan`] unrolls each pipeline group into one operation per
//! iteration, with carried edges as real dependences, and every
//! operation instance goes through the one scheduling loop of
//! [`par_op`](crate::par_op). There an operation
//! waits only for its producers and their transfers, as a runtime
//! would, so the independent piece of iteration `i` fills in behind the
//! dependent chain of iteration `i−1` (§3.3.2) because the oldest
//! iteration is served first. Each operation is scheduled by a chunk
//! policy (§4.1.1) on a share of the machine that the
//! processor-allocation equalizer (§4.1.2) gives its graph level's
//! concurrent units, and idle processors widen the share of the op
//! whose estimate lags most.
//!
//! With `pipeline_overlap` off the plan chains every piece of a group
//! behind the one before it — the "processor synchronization barrier
//! between sub-computations" the paper's baseline imposes — so running
//! a non-split graph reproduces the traditional compiler, and a split
//! graph reproduces the orchestrated one.

use crate::alloc::allocate_many;
use crate::chunking::PolicyKind;
use crate::finish::{finish_estimate, OpSpec};
use crate::par_op::{simulate, OpOptions, SimOp};
use crate::threaded::{build_plan, ExecutorBackend};
use orchestra_delirium::{DelirGraph, GraphError, NodeId, NodeKind};
use orchestra_machine::{CostDistribution, MachineConfig};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// Bytes per task for owner-computes transfers on the simulated machine.
const BYTES_PER_TASK: u64 = 32;

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutorOptions {
    /// Chunk policy for data-parallel nodes.
    pub policy: PolicyKind,
    /// Use the finishing-time equalizer to split each level's
    /// concurrent operations' processors (false = an even split). The
    /// simulator then widens shares only by admitting idle processors,
    /// either way.
    pub use_allocation: bool,
    /// Overlap pipeline groups (false = barrier between every piece,
    /// i.e. the unpipelined baseline).
    pub pipeline_overlap: bool,
    /// Iteration counts per pipeline group name.
    pub pipeline_iters: HashMap<String, usize>,
    /// RNG seed for task-cost sampling.
    pub seed: u64,
    /// Execution engine, for the callers that choose one from the
    /// options: [`execute_threaded`](crate::threaded::execute_threaded)
    /// (shared queues or distributed TAPER),
    /// [`execute_graph_resumable`](crate::checkpoint::execute_graph_resumable)
    /// and the serving daemon. [`execute_graph`] is the simulator
    /// whatever this says and reads nothing from it; the simulated
    /// distributed TAPER is a per-operation scheduler,
    /// [`simulate_dist_taper`](crate::dist_taper::simulate_dist_taper).
    pub backend: ExecutorBackend,
    /// Worker threads for the threaded backend (0 = the machine's
    /// available parallelism). Ignored by the simulator, which sizes
    /// itself from [`MachineConfig::processors`].
    pub threads: usize,
    /// Driver threads for the async cooperative backend (0 = fall back
    /// to `threads`, then to a small pool — available parallelism
    /// capped at 4). Ignored by every other backend.
    pub drivers: usize,
    /// Pin each worker thread of the threaded pool to one CPU
    /// (`sched_setaffinity`; best-effort, off by default): worker `w`
    /// takes the `w mod n`-th of the `n` CPUs in the calling thread's
    /// affinity mask, so a pinned pool never leaves the CPUs its caller
    /// was confined to. Ignored by the simulator and by the async
    /// drivers, whose [`RunReport::pinned_workers`](crate::RunReport)
    /// stays 0.
    pub pin_workers: bool,
    /// Deterministic fault-injection schedule for the real backends
    /// (threaded / threaded-dist / async): planned worker kills at
    /// claim boundaries, each crashing the run for
    /// [`execute_graph_resumable`](crate::checkpoint::execute_graph_resumable)
    /// to recover from snapshots. `None` (the default) injects
    /// nothing; the simulator ignores this.
    pub faults: Option<crate::checkpoint::FaultPlan>,
    /// On-disk checkpointing for the real backends: where snapshots go
    /// and how often they are cut (every dist-TAPER epoch barrier plus
    /// a claim-count cadence). `None` (the default) disables
    /// checkpointing; the simulator ignores this.
    pub checkpoint: Option<crate::checkpoint::CheckpointSpec>,
    /// Forces the watermark publication batch (in producer tasks) on
    /// the real backends' streamed producer→consumer edges. `None`
    /// (the default) lets each producer choose b\* from the measured
    /// [`HostCalibration`](crate::finish::HostCalibration) α/β via
    /// [`choose_batch`](crate::granularity::choose_batch).
    /// The simulator ignores this.
    pub stream_batch: Option<usize>,
    /// Cooperative cancellation token. When set, every real backend
    /// checks it at chunk-claim boundaries and aborts the run with
    /// [`RunError::Cancelled`](crate::cancel::RunError::Cancelled)
    /// once it fires, freeing the workers within one chunk. `None`
    /// (the default) adds no per-claim overhead; the simulator
    /// ignores this.
    pub cancel: Option<crate::cancel::CancelToken>,
    /// Execution deadline, measured from the start of the run. A run
    /// that outlives it is aborted at the next claim boundary with
    /// [`RunError::DeadlineExceeded`](crate::cancel::RunError::DeadlineExceeded).
    /// `None` (the default) never expires; the simulator ignores this.
    pub deadline: Option<std::time::Duration>,
    /// Threads lent to the run. A real backend given a
    /// [`Crew`](crate::threaded::crew::Crew) runs its workers (or
    /// drivers) on the crew's parked threads instead of creating and
    /// joining its own; `None` (the default) is the one-shot path. A
    /// resource handle like `cancel`, not a tunable: results are bitwise
    /// the same either way. The simulator ignores this.
    pub crew: Option<crate::threaded::crew::Crew>,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        ExecutorOptions {
            policy: PolicyKind::Taper,
            use_allocation: true,
            pipeline_overlap: true,
            pipeline_iters: HashMap::new(),
            seed: 0x5eed,
            backend: ExecutorBackend::Simulated,
            threads: 0,
            drivers: 0,
            pin_workers: false,
            faults: None,
            checkpoint: None,
            stream_batch: None,
            cancel: None,
            deadline: None,
            crew: None,
        }
    }
}

/// The execution record of one plan operation: a node, or one
/// iteration of a pipelined node.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Operation name (`B_I`, or `A_D@3` for pipeline iteration 3).
    pub name: String,
    /// When its first chunk was dispatched (µs).
    pub start: f64,
    /// Finish time (µs).
    pub finish: f64,
    /// Its share: the processors its tasks start on.
    pub procs: usize,
}

/// The result of executing a graph.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Simulated completion time (µs).
    pub finish: f64,
    /// One record per plan operation, in plan order.
    pub nodes: Vec<NodeReport>,
    /// Total sequential work (µs), including pipeline iterations.
    pub serial_work: f64,
    /// Processor count used.
    pub processors: usize,
}

impl ExecutionReport {
    /// Speedup over one processor executing the serial work.
    pub fn speedup(&self) -> f64 {
        if self.finish <= 0.0 {
            return 1.0;
        }
        self.serial_work / self.finish
    }

    /// Efficiency: speedup / p.
    pub fn efficiency(&self) -> f64 {
        self.speedup() / self.processors as f64
    }
}

/// Samples a deterministic cost vector for a data-parallel node.
///
/// Small cv → uniform jitter; moderate cv → a bounded two-population
/// mixture (the shape of masked/conditional irregularity, whose maximum
/// task is a few× the mean); very high cv → log-normal heavy tail.
fn node_costs(tasks: usize, mean: f64, cv: f64, seed: u64) -> Vec<f64> {
    if cv <= 1e-9 {
        return vec![mean; tasks];
    }
    if cv <= 0.3 {
        let spread = (cv * 3.0f64.sqrt()).min(0.95);
        return CostDistribution::Uniform { mean, spread }.sample(tasks, seed);
    }
    if cv < 1.6 {
        // Two-point mixture with heavy fraction 1/4: solve the heavy
        // multiplier m from cv² = f(1−f)(m−1)²/(1+f(m−1))². Heavy tasks
        // cluster spatially (≈ tasks/32-long runs), as real masked
        // irregularity does.
        let f: f64 = 0.25;
        let s = (f * (1.0 - f)).sqrt(); // ≈ 0.433
        let m = 1.0 + cv / (s - f * cv).max(0.05);
        let base = mean / (1.0 + f * (m - 1.0));
        return CostDistribution::ClusteredBimodal {
            mean: base,
            heavy_frac: f,
            heavy_mult: m,
            cluster: (tasks / 64).max(4),
        }
        .sample(tasks, seed);
    }
    let sigma = (1.0 + cv * cv).ln().sqrt();
    CostDistribution::HeavyTail { mean, sigma }.sample(tasks, seed)
}

/// The aggregate spec the allocator sees for a pipeline group: the
/// pieces pooled into one operation ([`OpSpec::pooled`]) × the group's
/// iteration count.
fn pipeline_group_spec(pieces: &[OpSpec], iters: usize, policy: PolicyKind) -> OpSpec {
    let iters = iters.max(1);
    let per_iter = OpSpec::pooled(pieces, policy);
    OpSpec {
        tasks: per_iter.tasks * iters,
        bytes_in: per_iter.bytes_in * iters as u64,
        bytes_out: per_iter.bytes_out * iters as u64,
        ..per_iter
    }
}

/// Samples the cost vector for any node kind. Mixture populations are
/// sampled separately (with per-population sub-seeds) and interleaved
/// round-robin, matching a masked loop's distribution of heavy
/// iterations across the index space.
pub fn costs_of_node(node: &orchestra_delirium::Node, seed: u64) -> Vec<f64> {
    match &node.kind {
        NodeKind::Task { cost } | NodeKind::Merge { cost } => vec![*cost],
        NodeKind::DataParallel { tasks, mean_cost, cv } => {
            node_costs(*tasks, *mean_cost, *cv, seed ^ node.id as u64)
        }
        NodeKind::Mixture { populations } => {
            let pools: Vec<Vec<f64>> = populations
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    node_costs(p.tasks, p.mean_cost, p.cv, seed ^ node.id as u64 ^ (i as u64) << 17)
                })
                .collect();
            let total: usize = pools.iter().map(Vec::len).sum();
            let mut iters: Vec<std::vec::IntoIter<f64>> =
                pools.into_iter().map(Vec::into_iter).collect();
            let mut out = Vec::with_capacity(total);
            let k = iters.len();
            let mut i = 0;
            while out.len() < total {
                if let Some(c) = iters[i % k].next() {
                    out.push(c);
                }
                i += 1;
            }
            out
        }
    }
}

/// Each node's share of the machine. A graph level holds units: its
/// single nodes, plus each pipeline group at its earliest member's
/// level. A level with `2 ≤ k ≤ p` units is split among them by the
/// equalizer over their specs, or evenly when `use_allocation` is off;
/// every other unit gets the whole machine. Every node of a unit, and
/// every instance of those nodes, gets the unit's share.
fn unit_shares(
    g: &DelirGraph,
    cfg: &MachineConfig,
    opts: &ExecutorOptions,
) -> Result<Vec<Range<usize>>, GraphError> {
    let p = cfg.processors;
    let mut level_of = vec![0usize; g.nodes.len()];
    for (li, level) in g.levels()?.iter().enumerate() {
        for &v in level {
            level_of[v] = li;
        }
    }
    // (level, group, members): singles before groups, each in node
    // order.
    let mut groups: BTreeMap<&str, Vec<NodeId>> = BTreeMap::new();
    let mut units: Vec<(usize, Option<&str>, Vec<NodeId>)> = Vec::new();
    for n in &g.nodes {
        match &n.group {
            Some(gr) => groups.entry(gr).or_default().push(n.id),
            None => units.push((level_of[n.id], None, vec![n.id])),
        }
    }
    for (name, vs) in groups {
        let home = vs.iter().map(|&v| level_of[v]).min().expect("nonempty group");
        units.push((home, Some(name), vs));
    }
    units.sort_by_key(|(level, group, vs)| (*level, group.is_some(), vs[0]));

    let spec_of = |v: NodeId| OpSpec::of_node(&g.nodes[v].kind, BYTES_PER_TASK, opts.policy);
    let mut shares = vec![0..p; g.nodes.len()];
    for level in units.chunk_by(|a, b| a.0 == b.0) {
        let k = level.len();
        if k < 2 || k > p {
            continue;
        }
        let alloc = if opts.use_allocation {
            let specs: Vec<OpSpec> = level
                .iter()
                .map(|(_, group, vs)| match group {
                    None => spec_of(vs[0]),
                    Some(name) => {
                        let iters = opts.pipeline_iters.get(*name).copied().unwrap_or(1);
                        let pieces: Vec<OpSpec> = vs.iter().map(|&v| spec_of(v)).collect();
                        pipeline_group_spec(&pieces, iters, opts.policy)
                    }
                })
                .collect();
            allocate_many(&specs, p, |s, q| finish_estimate(s, q, cfg).total())
        } else {
            let mut even = vec![p / k; k];
            even[0] += p % k;
            even
        };
        let mut offset = 0usize;
        for ((_, _, vs), a) in level.iter().zip(alloc) {
            for &v in vs {
                shares[v] = offset..offset + a;
            }
            offset += a;
        }
    }
    Ok(shares)
}

/// Simulates a graph on the machine `cfg` describes: every instance of
/// [`build_plan`]'s plan, one report row each. This is the simulator
/// and nothing else: the real engines are
/// [`execute_threaded`](crate::threaded::execute_threaded) (which reads
/// `opts.backend`), [`execute_async`](crate::asynch::execute_async) and
/// [`execute_sequential`](crate::threaded::execute_sequential), which
/// take the kernel to run and return a
/// [`RunReport`](crate::run::RunReport).
///
/// # Errors
///
/// Returns the graph's validation error when it is malformed (the
/// simulator never cancels).
pub fn execute_graph(
    g: &DelirGraph,
    cfg: &MachineConfig,
    opts: &ExecutorOptions,
) -> Result<ExecutionReport, crate::cancel::RunError> {
    let plan = build_plan(g, opts)?;
    let shares = unit_shares(g, cfg, opts)?;
    let costs: Vec<Vec<f64>> = g.nodes.iter().map(|n| costs_of_node(n, opts.seed)).collect();
    // A dependence d→c costs its largest graph edge node(d)→node(c):
    // each of c's processors receives its share of the data, and the
    // message rounds pipeline with it, so one latency plus the routed
    // volume. A barrier with no edge behind it costs nothing.
    let transfer = |from: NodeId, to: NodeId| {
        let procs = shares[to].len() as f64;
        g.edges
            .iter()
            .filter(|e| e.from == from && e.to == to)
            .map(|e| {
                cfg.alpha
                    + cfg.beta * e.data.bytes() as f64 / procs
                    + cfg.hop * cfg.diameter() as f64
            })
            .fold(0.0, f64::max)
    };
    let ops: Vec<SimOp<'_>> = plan
        .ops
        .iter()
        .map(|op| SimOp {
            costs: &costs[op.node],
            share: shares[op.node].clone(),
            deps: op.deps.iter().map(|&d| (d, transfer(plan.ops[d].node, op.node))).collect(),
            rank: op.iter,
        })
        .collect();
    // Re-equalization scores an op by its node's spec, cut to the
    // tasks it has left.
    let estimate = |i: usize, remaining: usize, procs: usize| {
        let node = &g.nodes[plan.ops[i].node];
        let bytes = remaining as u64 * BYTES_PER_TASK;
        let spec = OpSpec::of_node(&node.kind, BYTES_PER_TASK, opts.policy);
        let spec = OpSpec { tasks: remaining, bytes_in: bytes, bytes_out: bytes, ..spec };
        finish_estimate(&spec, procs, cfg).total()
    };
    let op_opts = OpOptions { bytes_per_task: BYTES_PER_TASK };
    let (runs, _) = simulate(cfg, cfg.processors, &ops, opts.policy, &op_opts, estimate);

    let nodes: Vec<NodeReport> = plan
        .ops
        .iter()
        .zip(&runs)
        .map(|(op, run)| NodeReport {
            name: op.name.clone(),
            start: run.start,
            finish: run.finish,
            procs: shares[op.node].len(),
        })
        .collect();
    Ok(ExecutionReport {
        finish: runs.iter().map(|r| r.finish).fold(0.0, f64::max),
        serial_work: plan.ops.iter().map(|op| g.nodes[op.node].kind.total_work()).sum(),
        nodes,
        processors: cfg.processors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_delirium::DataAnno;

    fn irregular_then_regular(split: bool) -> (DelirGraph, ExecutorOptions) {
        // The paper's running scenario: irregular A, then regular B.
        // Split version exposes B_I concurrent with A.
        let mut g = DelirGraph::new();
        let a =
            g.add_node("A", NodeKind::DataParallel { tasks: 512, mean_cost: 80.0, cv: 1.6 }, None);
        if split {
            let bi = g.add_node(
                "B_I",
                NodeKind::DataParallel { tasks: 12288, mean_cost: 20.0, cv: 0.1 },
                None,
            );
            let bd = g.add_node(
                "B_D",
                NodeKind::DataParallel { tasks: 4096, mean_cost: 20.0, cv: 0.1 },
                None,
            );
            let bm = g.add_node("B_M", NodeKind::Merge { cost: 50.0 }, None);
            g.add_edge(a, bd, DataAnno::array("q", 512));
            g.add_edge(bi, bm, DataAnno::array("out1", 12288));
            g.add_edge(bd, bm, DataAnno::array("out2", 4096));
        } else {
            let b = g.add_node(
                "B",
                NodeKind::DataParallel { tasks: 16384, mean_cost: 20.0, cv: 0.1 },
                None,
            );
            g.add_edge(a, b, DataAnno::array("q", 16384));
        }
        (g, ExecutorOptions::default())
    }

    /// The cost-hint stream is pinned: the figures, the snapshot
    /// fingerprints' meaning and every differential suite's reference
    /// draw from it. One node per `node_costs` regime (constant,
    /// uniform, clustered mixture, heavy tail) and one `Mixture` node
    /// hash, bit for bit, to recorded values.
    #[test]
    fn cost_streams_are_pinned() {
        use orchestra_delirium::Population;
        let mut g = DelirGraph::new();
        for (name, cv) in [("C", 0.0), ("U", 0.2), ("B", 0.9), ("H", 2.5)] {
            g.add_node(name, NodeKind::DataParallel { tasks: 1000, mean_cost: 5.0, cv }, None);
        }
        let populations = vec![
            Population { tasks: 300, mean_cost: 10.0, cv: 0.0 },
            Population { tasks: 100, mean_cost: 40.0, cv: 1.2 },
            Population { tasks: 50, mean_cost: 2.0, cv: 0.25 },
        ];
        g.add_node("M", NodeKind::Mixture { populations }, None);
        let fnv = |costs: &[f64]| {
            let bytes = costs.iter().flat_map(|c| c.to_bits().to_le_bytes());
            bytes.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
        };
        let hashes: Vec<(usize, u64)> = g
            .nodes
            .iter()
            .map(|node| {
                let costs = costs_of_node(node, 42);
                (costs.len(), fnv(&costs))
            })
            .collect();
        let pinned = [
            (1000, 0x252a_f687_79d9_6225),
            (1000, 0xad91_8aff_7381_755d),
            (1000, 0x43ff_60e4_2413_0db9),
            (1000, 0x317e_c9a0_16ff_994c),
            (450, 0x8abe_500b_3123_13cf),
        ];
        assert_eq!(hashes, pinned);
    }

    #[test]
    fn report_accounts_all_nodes() {
        let (g, opts) = irregular_then_regular(false);
        let cfg = MachineConfig::ncube2(64);
        let r = execute_graph(&g, &cfg, &opts).unwrap();
        assert_eq!(r.nodes.len(), 2);
        assert!(r.finish > 0.0);
        assert!((r.serial_work - g.total_work()).abs() < 1e-9);
    }

    #[test]
    fn split_graph_beats_barrier_graph_at_scale() {
        let cfg = MachineConfig::ncube2(512);
        let (g0, opts) = irregular_then_regular(false);
        let (g1, _) = irregular_then_regular(true);
        let r0 = execute_graph(&g0, &cfg, &opts).unwrap();
        let r1 = execute_graph(&g1, &cfg, &opts).unwrap();
        assert!(r1.finish < r0.finish, "split {} should beat barrier {}", r1.finish, r0.finish);
    }

    #[test]
    fn efficiency_degrades_with_more_processors() {
        let (g, opts) = irregular_then_regular(false);
        let e64 = execute_graph(&g, &MachineConfig::ncube2(64), &opts).unwrap().efficiency();
        let e1024 = execute_graph(&g, &MachineConfig::ncube2(1024), &opts).unwrap().efficiency();
        assert!(e64 > e1024, "e64={e64} e1024={e1024}");
    }

    #[test]
    fn allocation_beats_even_split_for_unequal_ops() {
        let mut g = DelirGraph::new();
        g.add_node("big", NodeKind::DataParallel { tasks: 4096, mean_cost: 50.0, cv: 0.3 }, None);
        g.add_node("small", NodeKind::DataParallel { tasks: 128, mean_cost: 10.0, cv: 0.3 }, None);
        let cfg = MachineConfig::ncube2(256);
        let with = execute_graph(
            &g,
            &cfg,
            &ExecutorOptions { use_allocation: true, ..ExecutorOptions::default() },
        )
        .unwrap();
        let without = execute_graph(
            &g,
            &cfg,
            &ExecutorOptions { use_allocation: false, ..ExecutorOptions::default() },
        )
        .unwrap();
        assert!(
            with.finish <= without.finish,
            "equalizer {} should not lose to even split {}",
            with.finish,
            without.finish
        );
    }

    /// A level with more units than processors cannot be split: every
    /// unit's share is the whole machine, and the units share it. No
    /// row holds a processor the machine does not have, and the run
    /// takes at least its serial work over `p`.
    #[test]
    fn more_units_than_processors_share_the_machine() {
        let mut g = DelirGraph::new();
        for name in ["X", "Y", "Z"] {
            g.add_node(name, NodeKind::DataParallel { tasks: 64, mean_cost: 1.0, cv: 0.0 }, None);
        }
        for p in [1, 2] {
            let cfg = MachineConfig::ncube2(p);
            for use_allocation in [true, false] {
                let opts = ExecutorOptions { use_allocation, ..ExecutorOptions::default() };
                let r = execute_graph(&g, &cfg, &opts).unwrap();
                assert!(
                    r.finish >= r.serial_work / p as f64,
                    "p={p} allocation={use_allocation}: finish {} before {} of serial work",
                    r.finish,
                    r.serial_work
                );
                assert!(r.nodes.iter().all(|n| n.procs <= p), "{:?}", r.nodes);
            }
        }
    }

    #[test]
    fn pipeline_overlap_beats_barrier() {
        let mut g = DelirGraph::new();
        let ai = g.add_node(
            "A_I",
            NodeKind::DataParallel { tasks: 256, mean_cost: 30.0, cv: 0.2 },
            Some("A".into()),
        );
        let ad = g.add_node(
            "A_D",
            NodeKind::DataParallel { tasks: 32, mean_cost: 30.0, cv: 0.2 },
            Some("A".into()),
        );
        let am = g.add_node("A_M", NodeKind::Merge { cost: 20.0 }, Some("A".into()));
        g.add_edge(ai, am, DataAnno::array("r1", 256));
        g.add_edge(ad, am, DataAnno::array("r2", 32));
        g.add_carried_edge(am, ad, DataAnno::array("q", 256));
        let cfg = MachineConfig::ncube2(128);
        let mut opts = ExecutorOptions::default();
        opts.pipeline_iters.insert("A".into(), 64);
        let over = execute_graph(&g, &cfg, &opts).unwrap();
        let barrier =
            execute_graph(&g, &cfg, &ExecutorOptions { pipeline_overlap: false, ..opts.clone() })
                .unwrap();
        assert!(
            over.finish < barrier.finish,
            "overlap {} should beat barrier {}",
            over.finish,
            barrier.finish
        );
    }

    #[test]
    fn speedup_and_efficiency_consistent() {
        let (g, opts) = irregular_then_regular(true);
        let cfg = MachineConfig::ncube2(128);
        let r = execute_graph(&g, &cfg, &opts).unwrap();
        assert!((r.speedup() / 128.0 - r.efficiency()).abs() < 1e-12);
        assert!(r.efficiency() <= 1.0 + 1e-9);
    }

    #[test]
    fn invalid_graph_rejected() {
        let mut g = DelirGraph::new();
        let a = g.add_node("A", NodeKind::Task { cost: 1.0 }, None);
        g.add_edge(a, a, DataAnno::scalar("self"));
        assert!(execute_graph(&g, &MachineConfig::ncube2(4), &ExecutorOptions::default()).is_err());
    }

    #[test]
    fn pipeline_variance_pools_between_piece_mean_dispersion() {
        // Two pieces with the *same* within-piece σ but very different
        // means: a scheduler drawing from their union sees task times
        // spread across the two populations, so the pooled σ must be
        // dominated by the mean gap, not the tiny within-piece jitter.
        let sigma = 2.0;
        let pieces = [
            OpSpec {
                tasks: 100,
                mean: 1.0,
                std_dev: sigma,
                bytes_in: 0,
                bytes_out: 0,
                policy: PolicyKind::Taper,
            },
            OpSpec {
                tasks: 100,
                mean: 101.0,
                std_dev: sigma,
                bytes_in: 0,
                bytes_out: 0,
                policy: PolicyKind::Taper,
            },
        ];
        let agg = pipeline_group_spec(&pieces, 3, PolicyKind::Taper);
        assert_eq!(agg.tasks, 600);
        assert!((agg.mean - 51.0).abs() < 1e-12);
        // Law of total variance: σ² = avg σᵢ² + avg (µᵢ−µ̄)²
        //                          = 4 + 50² = 2504.
        let expect = (sigma * sigma + 50.0 * 50.0).sqrt();
        assert!(
            (agg.std_dev - expect).abs() < 1e-9,
            "pooled σ {} should equal {expect}",
            agg.std_dev
        );
        // The old σ²·n-only pooling would have reported σ = 2 here;
        // heterogeneous groups must look irregular.
        assert!(agg.std_dev > 10.0 * sigma);
        // Homogeneous groups are unchanged by the new term.
        let same = [pieces[0], pieces[0]];
        let h = pipeline_group_spec(&same, 1, PolicyKind::Taper);
        assert!((h.std_dev - sigma).abs() < 1e-12);
        // Empty groups collapse to the explicit empty spec.
        assert_eq!(
            pipeline_group_spec(&[], 4, PolicyKind::Taper),
            OpSpec::empty(PolicyKind::Taper)
        );
    }

    #[test]
    fn simulator_policy_state_is_per_op() {
        // DESIGN §12's sampling contract, simulator side: every op
        // instance gets a fresh policy, so swapping the upstream
        // node's variance must shift only B's *start* (via A's
        // finish), never B's duration — if TAPER's µ/σ leaked across
        // ops, B would inherit A's high cv and carve different chunks.
        let graph_with_upstream_cv = |cv: f64| {
            let mut g = DelirGraph::new();
            let a =
                g.add_node("A", NodeKind::DataParallel { tasks: 256, mean_cost: 4.0, cv }, None);
            let b = g.add_node(
                "B",
                NodeKind::DataParallel { tasks: 1024, mean_cost: 2.0, cv: 0.3 },
                None,
            );
            g.add_edge(a, b, DataAnno::array("x", 1024));
            g
        };
        let cfg = MachineConfig::ncube2(64);
        let opts = ExecutorOptions::default(); // policy = Taper
        let b_times = |g: &DelirGraph| {
            let r = execute_graph(g, &cfg, &opts).unwrap();
            let b = r.nodes.iter().find(|n| n.name == "B").unwrap();
            (b.start, b.finish - b.start)
        };
        let (skewed_start, skewed_dur) = b_times(&graph_with_upstream_cv(1.2));
        let (uniform_start, uniform_dur) = b_times(&graph_with_upstream_cv(0.0));
        assert!(
            (skewed_dur - uniform_dur).abs() <= 1e-9 * skewed_dur.max(1.0),
            "B's duration depends on A's variance: {skewed_dur} vs {uniform_dur}"
        );
        // Sanity: A's variance did change the timeline (B starts later
        // after the skewed A), so the invariance above is not vacuous.
        assert!(
            (skewed_start - uniform_start).abs() > 1e-6,
            "upstream cv never reached the schedule"
        );
    }
}
