//! Executing a Delirium dataflow graph on the simulated machine.
//!
//! The executor realizes the paper's runtime scenario: the graph's
//! concurrency levels determine which parallel operations execute
//! simultaneously; the processor-allocation equalizer (§4.1.2) rations
//! processors among them; each operation is scheduled by a chunk policy
//! (§4.1.1); pipeline groups overlap the independent piece of iteration
//! `i` with the dependent piece of iteration `i−1` (§3.3.2) using the
//! communication-granularity model (§4.1).
//!
//! Sequentially dependent levels synchronize — exactly the "processor
//! synchronization barrier between sub-computations" the paper's
//! baseline imposes — so running a non-split graph reproduces the
//! traditional compiler, and a split graph reproduces the orchestrated
//! one.

use crate::alloc::allocate_many;
use crate::chunking::PolicyKind;
use crate::finish::{finish_estimate, OpSpec};
use crate::granularity::{choose_batch, pipelined_stage_time};
use crate::par_op::{simulate_policy, OpOptions};
use crate::threaded::ExecutorBackend;
use orchestra_delirium::{DelirGraph, NodeId, NodeKind};
use orchestra_machine::{CostDistribution, MachineConfig};
use std::collections::HashMap;

/// Bytes per task for owner-computes transfers on the simulated machine.
const BYTES_PER_TASK: u64 = 32;

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutorOptions {
    /// Chunk policy for data-parallel nodes.
    pub policy: PolicyKind,
    /// Use the finishing-time equalizer for concurrent operations
    /// (false = naive even split).
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
    /// whatever this says, and reads one thing from it: under
    /// [`ThreadedDist`](ExecutorBackend::ThreadedDist) it schedules
    /// data-parallel nodes with the simulated *distributed* TAPER
    /// epoch/token tree (§4.1.1) instead of a centralized chunk policy.
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

/// Per-node execution record.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Node name.
    pub name: String,
    /// Start time (µs).
    pub start: f64,
    /// Finish time (µs).
    pub finish: f64,
    /// Processors assigned.
    pub procs: usize,
}

/// The result of executing a graph.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Simulated completion time (µs).
    pub finish: f64,
    /// Per-node records.
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

/// Simulates one node on `p` processors starting at `start`; returns
/// its finish time.
fn run_node(
    node: &orchestra_delirium::Node,
    p: usize,
    start: f64,
    proc_offset: usize,
    cfg: &MachineConfig,
    opts: &ExecutorOptions,
) -> f64 {
    match &node.kind {
        NodeKind::Task { cost } | NodeKind::Merge { cost } => start + cost,
        _ => {
            let costs = costs_of_node(node, opts.seed);
            if opts.backend == ExecutorBackend::ThreadedDist {
                return crate::dist_taper::simulate_dist_taper(
                    cfg,
                    p.max(1),
                    &costs,
                    BYTES_PER_TASK,
                    start,
                )
                .finish;
            }
            let op_opts =
                OpOptions { bytes_per_task: BYTES_PER_TASK, start_time: start, proc_offset };
            simulate_policy(cfg, p.max(1), &costs, opts.policy, &op_opts).finish
        }
    }
}

/// Simulates a graph on the machine `cfg` describes. This is the
/// simulator and nothing else: the real engines are
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
    g.validate()?;
    let levels = g.levels()?;
    let p_total = cfg.processors;
    let mut node_finish: Vec<f64> = vec![0.0; g.nodes.len()];
    let mut reports: Vec<NodeReport> = Vec::new();
    let mut serial_work = 0.0;
    let mut clock = 0.0f64;

    // Pipeline groups span levels (A_I/A_D at one level, A_M below):
    // gather members globally and schedule each group as one unit at the
    // level of its earliest member.
    let mut group_members: HashMap<String, Vec<NodeId>> = HashMap::new();
    for n in &g.nodes {
        if let Some(gr) = &n.group {
            group_members.entry(gr.clone()).or_default().push(n.id);
        }
    }
    let mut node_level = vec![0usize; g.nodes.len()];
    for (li, lv) in levels.iter().enumerate() {
        for &v in lv {
            node_level[v] = li;
        }
    }
    let group_home: HashMap<String, usize> = group_members
        .iter()
        .map(|(k, vs)| {
            let home = vs.iter().map(|&v| node_level[v]).min().expect("nonempty group");
            (k.clone(), home)
        })
        .collect();

    for (li, level) in levels.iter().enumerate() {
        // This level's singles, plus every pipeline group homed here.
        let mut singles: Vec<NodeId> = Vec::new();
        let mut groups: HashMap<String, Vec<NodeId>> = HashMap::new();
        for &v in level {
            match &g.nodes[v].group {
                Some(gr) => {
                    if group_home[gr] == li && !groups.contains_key(gr) {
                        groups.insert(gr.clone(), group_members[gr].clone());
                    }
                    // Members homed at earlier levels were already run.
                }
                None => singles.push(v),
            }
        }

        // Each single node and each pipeline group (with its iteration
        // count) is one allocation unit.
        #[derive(Debug)]
        enum Unit {
            Single(NodeId),
            Pipeline(String, Vec<NodeId>, usize),
        }
        let mut units: Vec<Unit> = singles.into_iter().map(Unit::Single).collect();
        for (name, nodes) in groups {
            let iters = opts.pipeline_iters.get(&name).copied().unwrap_or(1);
            units.push(Unit::Pipeline(name, nodes, iters));
        }
        // Deterministic order.
        units.sort_by_key(|u| match u {
            Unit::Single(v) => (0, *v),
            Unit::Pipeline(_, vs, _) => (1, vs[0]),
        });
        if units.is_empty() {
            continue; // level held only already-run pipeline members
        }

        // Ready time of each unit: preds' finishes plus edge transfer.
        // `procs` is the *consuming unit's* allocation — the transfer
        // is expanded onto the partition that will run the unit, not
        // onto the whole machine, so a 4-proc unit receives its input
        // at 4-way parallelism rather than `cfg.processors`-way.
        fn unit_ready(
            vs: &[NodeId],
            clock: f64,
            g: &DelirGraph,
            cfg: &MachineConfig,
            node_finish: &[f64],
            procs: usize,
        ) -> f64 {
            let mut t = clock;
            for &v in vs {
                for e in g.edges.iter().filter(|e| e.to == v && !e.carried) {
                    if vs.contains(&e.from) {
                        continue;
                    }
                    // Distributed transfer: each receiving processor
                    // moves its 1/p share; the message rounds pipeline
                    // with the data, so one latency plus the routed
                    // volume.
                    let p = procs.max(1) as f64;
                    let comm = cfg.alpha
                        + cfg.beta * e.data.bytes() as f64 / p
                        + cfg.hop * cfg.diameter() as f64;
                    t = t.max(node_finish[e.from] + comm);
                }
            }
            t
        }

        // Allocate processors across units: from the equalizer's
        // estimates, or evenly. A level with more units than processors
        // cannot be split; its units run one after another, each on the
        // whole machine.
        let k = units.len();
        let serial = k > p_total;
        let alloc: Vec<usize> = if serial {
            vec![p_total; k]
        } else if opts.use_allocation {
            let spec_of =
                |v: NodeId| OpSpec::of_node(&g.nodes[v].kind, BYTES_PER_TASK, opts.policy);
            let specs: Vec<OpSpec> = units
                .iter()
                .map(|u| match u {
                    Unit::Single(v) => spec_of(*v),
                    Unit::Pipeline(_, vs, iters) => {
                        let pieces: Vec<OpSpec> = vs.iter().map(|&v| spec_of(v)).collect();
                        pipeline_group_spec(&pieces, *iters, opts.policy)
                    }
                })
                .collect();
            allocate_many(&specs, p_total, |s, p| finish_estimate(s, p, cfg).total())
        } else {
            let mut even = vec![p_total / k; k];
            even[0] += p_total % k;
            even
        };

        let mut level_end = clock;
        let mut offset = 0usize;
        for (u, &p_u) in units.iter().zip(&alloc) {
            // A serial level's unit waits for the one before it.
            let floor = if serial { level_end } else { clock };
            let (name, vs, start, end) = match u {
                Unit::Single(v) => {
                    let vs = std::slice::from_ref(v);
                    let start = unit_ready(vs, floor, g, cfg, &node_finish, p_u);
                    let end = run_node(&g.nodes[*v], p_u, start, offset, cfg, opts);
                    serial_work += g.nodes[*v].kind.total_work();
                    (g.nodes[*v].name.clone(), vs, start, end)
                }
                Unit::Pipeline(name, vs, iters) => {
                    let start = unit_ready(vs, floor, g, cfg, &node_finish, p_u);
                    let end = run_pipeline(g, vs, *iters, p_u, start, offset, cfg, opts);
                    for &v in vs {
                        serial_work += g.nodes[v].kind.total_work() * *iters as f64;
                    }
                    (format!("pipeline:{name}"), vs.as_slice(), start, end)
                }
            };
            for &v in vs {
                node_finish[v] = end;
            }
            reports.push(NodeReport { name, start, finish: end, procs: p_u });
            level_end = level_end.max(end);
            if !serial {
                offset += p_u;
            }
        }
        clock = level_end;
    }

    Ok(ExecutionReport { finish: clock, nodes: reports, serial_work, processors: p_total })
}

/// Simulates a pipelined loop: nodes with carried edges (plus merges)
/// form the dependent stage; the rest is the independent stage. With
/// overlap enabled, the two stages share the unit's `p` processors
/// (see the steady-state comment below); otherwise every piece
/// synchronizes, reproducing the unpipelined baseline.
#[allow(clippy::too_many_arguments)]
fn run_pipeline(
    g: &DelirGraph,
    vs: &[NodeId],
    iters: usize,
    p: usize,
    start: f64,
    offset: usize,
    cfg: &MachineConfig,
    opts: &ExecutorOptions,
) -> f64 {
    let iters = iters.max(1);
    // Dependent pieces: targets or sources of carried edges, and merges.
    let carried: Vec<&orchestra_delirium::Edge> =
        g.edges.iter().filter(|e| e.carried && vs.contains(&e.from)).collect();
    let seed_dependent = |v: NodeId| -> bool {
        carried.iter().any(|e| e.from == v || e.to == v)
            || matches!(g.nodes[v].kind, NodeKind::Merge { .. })
    };
    // Close the dependent set under in-group dataflow successors: a
    // piece reading a merge's output belongs to the dependent chain.
    let mut dep_set: Vec<NodeId> = vs.iter().copied().filter(|&v| seed_dependent(v)).collect();
    loop {
        let mut grew = false;
        for e in g.edges.iter().filter(|e| !e.carried) {
            if dep_set.contains(&e.from) && vs.contains(&e.to) && !dep_set.contains(&e.to) {
                dep_set.push(e.to);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    let dep: Vec<NodeId> = vs.iter().copied().filter(|&v| dep_set.contains(&v)).collect();
    let ind: Vec<NodeId> = vs.iter().copied().filter(|&v| !dep_set.contains(&v)).collect();

    let stage_time = |nodes: &[NodeId], p_stage: usize, t0: f64| -> f64 {
        let mut t = t0;
        for &v in nodes {
            t = run_node(&g.nodes[v], p_stage.max(1), t, offset, cfg, opts);
        }
        t - t0
    };

    // The carried data crosses iterations either way. Under
    // owner-computes placement it stays distributed: each processor
    // exchanges only its 1/p share, so the per-iteration volume divides
    // by the partition size.
    let carried_bytes: u64 =
        (carried.iter().map(|e| e.data.bytes()).sum::<u64>() / p.max(1) as u64).max(8);

    if !opts.pipeline_overlap || dep.is_empty() || ind.is_empty() || p < 2 {
        // Barrier per iteration over all pieces in order.
        let per_iter = stage_time(vs, p, start) + cfg.alpha + carried_bytes as f64 * cfg.beta;
        return start + per_iter * iters as f64;
    }

    // Steady state: iteration i's independent pieces overlap iteration
    // i−1's dependent chain, and the whole pool of processors serves
    // both — "the runtime scheduler can use the additional parallelism
    // of one sub-computation to compensate for … load imbalance in the
    // other" (§1). Adjacent iterations' independent work absorbs each
    // iteration's straggler tail, so the pipeline's completion time is
    // the *joint* schedule of every iteration's tasks on all p
    // processors, bounded below by the dependent chain's serial latency
    // (one chain traversal per iteration) and by the carried-data
    // stream, plus the first iteration's fill.
    let mut iter_costs: Vec<f64> = Vec::new();
    for &v in ind.iter().chain(&dep) {
        iter_costs.extend(costs_of_node(&g.nodes[v], opts.seed));
    }
    // All iterations' tasks in one pool (each iteration re-draws the
    // same populations; replicating the vector models that).
    let mut joint_costs = Vec::with_capacity(iter_costs.len() * iters);
    for k in 0..iters {
        // Rotate so heavy tasks land at different pool positions.
        let rot = (k * 131) % iter_costs.len().max(1);
        joint_costs.extend_from_slice(&iter_costs[rot..]);
        joint_costs.extend_from_slice(&iter_costs[..rot]);
    }
    let mut policy = opts.policy.instantiate(joint_costs.len());
    let op_opts =
        OpOptions { bytes_per_task: BYTES_PER_TASK, start_time: start, proc_offset: offset };
    let joint_all =
        crate::par_op::simulate_dynamic(cfg, p, &joint_costs, policy.as_mut(), &op_opts).finish
            - start;
    let dep_chain = stage_time(&dep, p, start);

    let items = carried.len().max(1) * 16;
    let item_bytes = (carried_bytes / items as u64).max(1);
    let b = choose_batch(items, item_bytes, cfg.alpha, cfg.beta);
    let per_iter_floor =
        pipelined_stage_time(0.0, dep_chain, items, item_bytes, b, cfg.alpha, cfg.beta);
    let fill = stage_time(&ind, p, start);
    start + fill + joint_all.max(per_iter_floor * iters as f64)
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

    /// A level with more units than processors cannot be split: its
    /// units run one after another on the whole machine, so the level
    /// takes at least its serial work over `p`, and no unit is given a
    /// processor the machine does not have.
    #[test]
    fn more_units_than_processors_run_one_after_another() {
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
                assert!(r.nodes.iter().all(|n| n.procs == p), "{:?}", r.nodes);
                for w in r.nodes.windows(2) {
                    assert!(w[1].start >= w[0].finish, "units overlap: {:?}", r.nodes);
                }
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
    fn distributed_scheduling_runs_and_stays_close() {
        let (g, opts) = irregular_then_regular(true);
        let cfg = MachineConfig::ncube2(128);
        let central = execute_graph(&g, &cfg, &opts).unwrap();
        let dist_opts = ExecutorOptions { backend: ExecutorBackend::ThreadedDist, ..opts };
        let dist = execute_graph(&g, &cfg, &dist_opts).unwrap();
        assert!(dist.finish > 0.0);
        // The decentralized scheme pays token latency but must stay in
        // the same regime (within 2× either way).
        let ratio = dist.finish / central.finish;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
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
        // DESIGN §12's sampling contract, simulator side: every node's
        // scheduling loop instantiates a fresh policy, so swapping the
        // upstream node's variance must shift only B's *start* (via
        // A's finish), never B's duration — if TAPER's µ/σ leaked
        // across ops, B would inherit A's high cv and carve different
        // chunks. (The only joint pool is an overlapped pipeline
        // group, which is modelled as a single fused operation.)
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
