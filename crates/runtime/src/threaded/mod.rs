//! Real-thread execution backend for Delirium graphs.
//!
//! Everything else in this crate *simulates* the paper's nCUBE-2; this
//! module executes the same graphs on actual `std::thread` workers
//! over real buffers, so the simulator's predictions can be
//! differential-tested against, and demonstrated on, the hardware at
//! hand (the split-and-pipeline idea paying off on modern multicores,
//! as in Palkar & Zaharia's *Split Annotations*).
//!
//! Structure:
//! * [`queue`] — the shared claim-next-chunk queue, driven by the same
//!   [`ChunkPolicy`](crate::chunking::ChunkPolicy) objects the
//!   simulator uses (TAPER / static / self-scheduling);
//! * [`pool`] — the worker pool executing a dependency-counted DAG of
//!   operation instances, timing every task like
//!   [`stats`](crate::stats) does in simulation;
//! * this file — pipeline expansion (graph → op-instance DAG), the
//!   [`TaskKernel`] compute interface, and the backend entry points
//!   [`execute_threaded`] / [`execute_sequential`]. Everything between
//!   the plan and the pool that is not specific to this backend is the
//!   shared run core, [`crate::run`].

pub mod affinity;
pub mod crew;
pub mod dist;
pub mod pool;
pub mod queue;

use crate::cancel::RunError;
use crate::checkpoint::{CancelCtl, ResumeState, RunCtl};
use crate::executor::{costs_of_node, ExecutorOptions};
use crate::run::{set_up, OpRecord, RunReport, Setup};
use dist::DistQueue;
use orchestra_delirium::{DelirGraph, GraphError, Node};
use orchestra_machine::ProcStats;
use pool::{OpQueue, PoolOp};
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

/// Which execution engine runs a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorBackend {
    /// Discrete-event simulation of the paper's nCUBE-2 (the default).
    #[default]
    Simulated,
    /// Real `std::thread` workers over real buffers on this machine.
    Threaded,
    /// Real threads under distributed TAPER (§4.1.1): per-worker home
    /// queues with epoch-token migration instead of a shared claim
    /// queue — see `dist::DistQueue`.
    ThreadedDist,
    /// Cooperative futures executor: ops await their DAG predecessors
    /// and yield at chunk boundaries, a few driver threads multiplexing
    /// many in-flight ops — see [`crate::asynch`].
    Async,
}

/// Everything a kernel needs to compute one task.
pub struct TaskCtx<'a> {
    /// The graph node being executed.
    pub node: &'a Node,
    /// Pipeline iteration (0 for ungrouped nodes).
    pub iter: usize,
    /// Task index within the node's iteration space.
    pub task: usize,
    /// The cost (µs) the simulator would charge this task — kernels
    /// emulating a workload scale their arithmetic by this.
    pub cost_hint: f64,
    /// Finished output buffers of this op's upstream dependencies, in
    /// the plan's dependency order — slice references straight into
    /// the shared [`OutputArena`](crate::alloc::OutputArena), no copy.
    /// Empty for source ops.
    pub inputs: &'a [&'a [f64]],
}

/// How a kernel's task `t` addresses its input slices — the contract
/// the streamed data plane's per-edge watermark gates rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessPattern {
    /// Task `t` may read any cell of any input: consumers can only be
    /// released when the producer op has completed entirely (whole-op
    /// gating — always sound, never streamed). The default.
    #[default]
    WholeInput,
    /// On an equal-length input, task `t` reads only cells with index
    /// `≤ t` (element-wise / prefix access). Such edges can be
    /// *streamed*: consumer task `t` is sound to run as soon as the
    /// producer's committed-prefix watermark exceeds `t`.
    ElementWise,
}

/// A real compute kernel: the function the threaded backend runs per
/// task. Implementations MUST be pure in `(node, iter, task, inputs)` —
/// the differential test suite asserts threaded and sequential
/// execution produce bit-identical buffers. (`inputs` are themselves
/// deterministic, so consuming them preserves purity.)
pub trait TaskKernel: Sync {
    /// Computes task `ctx.task`, returning the value stored in the
    /// operation's output buffer at that index.
    fn run_task(&self, ctx: &TaskCtx<'_>) -> f64;

    /// The input-access contract of [`Self::run_task`] (see
    /// [`AccessPattern`]). Returning [`AccessPattern::ElementWise`]
    /// when the kernel reads past cell `ctx.task` of an equal-length
    /// input is undefined behaviour on the real backends — when in
    /// doubt keep the default.
    fn access(&self) -> AccessPattern {
        AccessPattern::WholeInput
    }
}

/// The default kernel: a deterministic floating-point recurrence whose
/// length is proportional to the task's simulated cost, so measured
/// task times have the same *shape* (mean, variance, spatial clusters)
/// the simulator draws.
#[derive(Debug, Clone, Copy)]
pub struct SpinKernel {
    /// Arithmetic steps per simulated µs of cost. Lower values shrink
    /// wall-clock time proportionally (tests use small scales).
    pub steps_per_us: f64,
}

impl Default for SpinKernel {
    fn default() -> Self {
        SpinKernel { steps_per_us: 60.0 }
    }
}

impl SpinKernel {
    /// A kernel doing `steps_per_us` arithmetic steps per simulated µs.
    pub fn with_scale(steps_per_us: f64) -> Self {
        SpinKernel { steps_per_us }
    }
}

impl TaskKernel for SpinKernel {
    fn run_task(&self, ctx: &TaskCtx<'_>) -> f64 {
        let steps = (ctx.cost_hint * self.steps_per_us).max(1.0) as u64;
        let mut x = (ctx.task as f64 + 1.0) * 1e-3 + ctx.iter as f64;
        for _ in 0..steps {
            x = x * 0.999_999_7 + 1e-9;
        }
        std::hint::black_box(x)
    }

    fn access(&self) -> AccessPattern {
        // Reads no input cells at all — trivially prefix-bounded.
        AccessPattern::ElementWise
    }
}

/// A kernel that actually consumes its upstream data: the spin
/// recurrence of [`SpinKernel`] folded with one sampled cell from each
/// input slice. Exercises the zero-copy input path — the value depends
/// on upstream *outputs*, so a backend that mis-plumbed, reordered, or
/// torn-read the arena slices diverges bitwise from the sequential
/// reference instead of passing vacuously.
#[derive(Debug, Clone, Copy)]
pub struct ReduceKernel {
    /// Arithmetic steps per simulated µs of cost (see [`SpinKernel`]).
    pub steps_per_us: f64,
}

impl ReduceKernel {
    /// A data-consuming kernel doing `steps_per_us` steps per µs.
    pub fn with_scale(steps_per_us: f64) -> Self {
        ReduceKernel { steps_per_us }
    }
}

impl TaskKernel for ReduceKernel {
    fn run_task(&self, ctx: &TaskCtx<'_>) -> f64 {
        let steps = (ctx.cost_hint * self.steps_per_us).max(1.0) as u64;
        let mut x = (ctx.task as f64 + 1.0) * 1e-3 + ctx.iter as f64;
        for _ in 0..steps {
            x = x * 0.999_999_7 + 1e-9;
        }
        // Deterministic sample of each input: one cell chosen by the
        // task index, so every task reads upstream data but the
        // access stays O(#inputs) per task.
        for input in ctx.inputs {
            if let Some(&v) = input.get(ctx.task % input.len().max(1)) {
                x = x * 0.5 + v * 0.5;
            }
        }
        std::hint::black_box(x)
    }

    fn access(&self) -> AccessPattern {
        // Task t reads cell `t % len` of each input, and `t % len ≤ t`
        // for every length, so the read is always prefix-bounded.
        AccessPattern::ElementWise
    }
}

/// One operation instance in the expanded plan.
#[derive(Debug, Clone)]
pub struct PlannedOp {
    /// Display name (`B_I`, or `A_D@3` for pipeline iteration 3).
    pub name: String,
    /// Underlying graph node.
    pub node: usize,
    /// Pipeline iteration.
    pub iter: usize,
    /// Task count.
    pub tasks: usize,
    /// Plan-indexed dependencies (deduplicated).
    pub deps: Vec<usize>,
}

/// The execution plan: pipeline groups unrolled into per-iteration
/// operation instances forming a plain DAG.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Ops in an order where every dependency precedes its dependents.
    pub ops: Vec<PlannedOp>,
}

/// Expands a graph (plus pipeline iteration counts) into the op DAG
/// both real backends execute.
///
/// Non-carried edges inside a pipeline group connect pieces of the
/// same iteration; carried edges connect iteration `k-1` to `k`. With
/// `pipeline_overlap` disabled every piece of iteration `k` waits for
/// all of iteration `k-1` *and* for the previous piece of its own
/// iteration — the barrier-per-piece baseline of the paper's §1.
///
/// # Errors
///
/// Returns the graph's validation error when it is malformed.
pub fn build_plan(g: &DelirGraph, opts: &ExecutorOptions) -> Result<Plan, GraphError> {
    g.validate()?;
    let order = g.topo_order()?;
    let iters_of = |n: &Node| -> usize {
        n.group.as_ref().and_then(|gr| opts.pipeline_iters.get(gr)).copied().unwrap_or(1).max(1)
    };

    // Instances laid out node-major first; a topological re-sort below
    // restores "deps precede dependents" (carried edges point from a
    // later node's iteration k-1 to an earlier node's iteration k, so
    // no single static layout is topological).
    let mut index_of: HashMap<(usize, usize), usize> = HashMap::new();
    let mut ops: Vec<PlannedOp> = Vec::new();
    for &v in &order {
        let node = &g.nodes[v];
        let iters = iters_of(node);
        for k in 0..iters {
            let name = if iters > 1 { format!("{}@{}", node.name, k) } else { node.name.clone() };
            index_of.insert((v, k), ops.len());
            ops.push(PlannedOp {
                name,
                node: v,
                iter: k,
                tasks: node.kind.task_count(),
                deps: Vec::new(),
            });
        }
    }

    let mut deps: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); ops.len()];
    let last = |v: usize| index_of[&(v, iters_of(&g.nodes[v]) - 1)];
    for e in &g.edges {
        let (gu, gv) = (&g.nodes[e.from].group, &g.nodes[e.to].group);
        let same_group = gu.is_some() && gu == gv;
        if e.carried {
            // Loop-carried: iteration k-1 → k within the group.
            if same_group {
                for k in 1..iters_of(&g.nodes[e.to]) {
                    deps[index_of[&(e.to, k)]].insert(index_of[&(e.from, k - 1)]);
                }
            }
            continue;
        }
        if same_group {
            for k in 0..iters_of(&g.nodes[e.to]) {
                deps[index_of[&(e.to, k)]].insert(index_of[&(e.from, k)]);
            }
        } else {
            // Entering or leaving a group: every iteration of the
            // consumer needs the producer fully finished.
            for k in 0..iters_of(&g.nodes[e.to]) {
                deps[index_of[&(e.to, k)]].insert(last(e.from));
            }
        }
    }

    if !opts.pipeline_overlap {
        // Barrier baseline: collect each group's members in topo order.
        let mut groups: HashMap<&str, Vec<usize>> = HashMap::new();
        for &v in &order {
            if let Some(gr) = &g.nodes[v].group {
                groups.entry(gr.as_str()).or_default().push(v);
            }
        }
        for members in groups.values() {
            let iters = iters_of(&g.nodes[members[0]]);
            for k in 0..iters {
                for (i, &v) in members.iter().enumerate() {
                    let me = index_of[&(v, k)];
                    if i > 0 {
                        // Barrier between pieces of one iteration.
                        deps[me].insert(index_of[&(members[i - 1], k)]);
                    } else if k > 0 {
                        // Barrier between iterations.
                        deps[me].insert(index_of[&(members[members.len() - 1], k - 1)]);
                    }
                }
            }
        }
    }

    for (op, d) in ops.iter_mut().zip(&deps) {
        op.deps = d.iter().copied().collect();
    }

    // Kahn's algorithm with a deterministic (smallest-index-first)
    // ready set; then remap every index to the new order.
    let mut indegree: Vec<usize> = ops.iter().map(|o| o.deps.len()).collect();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); ops.len()];
    for (i, op) in ops.iter().enumerate() {
        for &d in &op.deps {
            dependents[d].push(i);
        }
    }
    let mut ready: BTreeSet<usize> = (0..ops.len()).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(ops.len());
    while let Some(&i) = ready.iter().next() {
        ready.remove(&i);
        order.push(i);
        for &d in &dependents[i] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                ready.insert(d);
            }
        }
    }
    debug_assert_eq!(order.len(), ops.len(), "expanded DAG has a cycle");
    let mut new_index = vec![0usize; ops.len()];
    for (pos, &old) in order.iter().enumerate() {
        new_index[old] = pos;
    }
    let mut sorted: Vec<PlannedOp> = order
        .iter()
        .map(|&old| {
            let mut op = ops[old].clone();
            op.deps = op.deps.iter().map(|&d| new_index[d]).collect();
            op.deps.sort_unstable();
            op
        })
        .collect();
    sorted.shrink_to_fit();
    Ok(Plan { ops: sorted })
}

/// Worker-count resolution: `opts.threads`, or the machine's available
/// parallelism (capped at 16) when zero.
pub(crate) fn resolve_workers(opts: &ExecutorOptions) -> usize {
    if opts.threads > 0 {
        return opts.threads;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).min(16)
}

/// Executes a graph on real threads.
///
/// # Errors
///
/// Returns the graph's validation error when it is malformed, or a
/// cancellation/deadline error when the caller aborted the run.
pub fn execute_threaded(
    g: &DelirGraph,
    opts: &ExecutorOptions,
    kernel: &(dyn TaskKernel + Sync),
) -> Result<RunReport, RunError> {
    run_threaded(g, &build_plan(g, opts)?, opts, kernel, &ResumeState::empty())
}

/// Runs an already expanded plan on the worker pool from a restore
/// image (empty for a fresh run): the shared [`set_up`], then this
/// backend's own part — one claim queue per op (shared, or
/// distributed TAPER's home queues under
/// [`ExecutorBackend::ThreadedDist`]) and the pool itself.
pub(crate) fn run_threaded(
    g: &DelirGraph,
    plan: &Plan,
    opts: &ExecutorOptions,
    kernel: &(dyn TaskKernel + Sync),
    resume: &ResumeState,
) -> Result<RunReport, RunError> {
    let workers = resolve_workers(opts);
    let Setup { arena, ops } = set_up(plan, &g.nodes, opts, kernel.access(), workers, resume);
    let ops: Vec<PoolOp> = ops
        .into_iter()
        .map(|state| {
            let pending = state.pending();
            // Distributed TAPER only pays off (and only makes sense) for
            // genuinely parallel ops: single-task ops keep a shared queue
            // so a lone Task/Merge node doesn't token every worker.
            let (queue, queue_costs) =
                if opts.backend == ExecutorBackend::ThreadedDist && pending > 1 {
                    // Block-decompose over the op's share: the other
                    // shares' workers start with no home here.
                    let members: Vec<usize> = state.share.clone().collect();
                    let q = DistQueue::new(pending, workers, &members);
                    if let Some(stats) = &state.warm {
                        q.warm(stats);
                    }
                    // Home queues draw on the cost hints in *queue* index
                    // space, which a remapped op packs.
                    let costs =
                        state.remap.as_ref().map(|r| r.iter().map(|&t| state.costs[t]).collect());
                    (OpQueue::Dist(q), costs)
                } else {
                    (OpQueue::Shared(state.chunk_queue(opts.policy)), None)
                };
            PoolOp { queue, queue_costs, state }
        })
        .collect();
    let ctl = RunCtl::new(opts, plan, workers);

    let t0 = Instant::now();
    let records = pool::run_pool(&ops, &g.nodes, &arena, workers, opts, kernel, &ctl);
    let wall_us = t0.elapsed().as_secs_f64() * 1e6;

    let (mut steals, mut pinned_workers) = (0u64, 0usize);
    let (mut procs, mut logs) = (Vec::new(), Vec::new());
    for r in records {
        steals += r.steals;
        pinned_workers += usize::from(r.pinned);
        procs.push(r.proc);
        logs.push(r.log);
    }
    let mut dist_tasks = 0usize;
    let op_records: Vec<OpRecord> = ops
        .iter()
        .map(|op| {
            let base = op.state.record(&arena, op.queue.chunks_claimed());
            let Some(d) = op.queue.as_dist() else { return base };
            dist_tasks += base.tasks;
            OpRecord {
                reassignments: d.reassignments(),
                migrated: d.migrated_tasks(),
                epochs: d.epochs(),
                epoch_times_us: d.epoch_times_us(),
                ..base
            }
        })
        .collect();
    let states = ops.into_iter().map(|op| op.state);
    let report = RunReport::from_run(wall_us, procs, op_records, states, logs, arena, &ctl)?;
    let locality =
        if dist_tasks == 0 { 1.0 } else { 1.0 - report.migrated_tasks as f64 / dist_tasks as f64 };
    Ok(RunReport { locality, steals, pinned_workers, ..report })
}

/// Executes the same plan on the calling thread in dependency order —
/// a deliberately independent reference implementation (no queue, no
/// pool, none of the run core's set-up or task body) the differential
/// tests compare every real backend against.
///
/// # Errors
///
/// Returns the graph's validation error when it is malformed.
pub fn execute_sequential(
    g: &DelirGraph,
    opts: &ExecutorOptions,
    kernel: &(dyn TaskKernel + Sync),
) -> Result<RunReport, RunError> {
    let plan = build_plan(g, opts)?;
    let cancel = CancelCtl::from_opts(opts);
    let t0 = Instant::now();
    let us = |t: Instant| t.duration_since(t0).as_secs_f64() * 1e6;
    let mut outputs: Vec<Vec<f64>> = Vec::with_capacity(plan.ops.len());
    let mut records: Vec<OpRecord> = Vec::with_capacity(plan.ops.len());
    for op in &plan.ops {
        // The sequential backend has no chunk claims; op boundaries
        // are its claim boundaries. Ops are small enough (the longest
        // is one node's task loop) that this keeps cancellation
        // prompt without clocking every task.
        if let Some(c) = &cancel {
            if c.requested() {
                return Err(c.error().unwrap_or(RunError::Cancelled));
            }
        }
        let node = &g.nodes[op.node];
        let costs = costs_of_node(node, opts.seed);
        let start = Instant::now();
        let mut out = Vec::with_capacity(op.tasks);
        {
            // The owned-buffer reference path: inputs are slices of
            // the already-finished upstream vectors (the plan is in
            // dependency order), mirroring the arena hand-off.
            let inputs: Vec<&[f64]> = op.deps.iter().map(|&d| outputs[d].as_slice()).collect();
            for (task, &cost) in costs.iter().enumerate().take(op.tasks) {
                let ctx = TaskCtx { node, iter: op.iter, task, cost_hint: cost, inputs: &inputs };
                out.push(kernel.run_task(&ctx));
            }
        }
        outputs.push(out);
        records.push(OpRecord {
            name: op.name.clone(),
            start_us: us(start),
            finish_us: us(Instant::now()),
            tasks: op.tasks,
            procs: 1,
            ..OpRecord::default()
        });
    }
    let wall_us = us(Instant::now());
    let tasks: u64 = plan.ops.iter().map(|o| o.tasks as u64).sum();
    let me = ProcStats { busy: wall_us, tasks, chunks: 0, free_at: wall_us };
    // The reference keeps no chunk logs, and prices nothing: its
    // `exec_counts()` and `restored()` read empty, its counters zero.
    Ok(RunReport::new(wall_us, vec![me], records, outputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_delirium::{DataAnno, NodeKind};

    fn small_graph() -> DelirGraph {
        let mut g = DelirGraph::new();
        let a = g.add_node("A", NodeKind::Task { cost: 5.0 }, None);
        let b =
            g.add_node("B", NodeKind::DataParallel { tasks: 100, mean_cost: 3.0, cv: 0.8 }, None);
        let c = g.add_node("C", NodeKind::Merge { cost: 2.0 }, None);
        g.add_edge(a, b, DataAnno::array("x", 100));
        g.add_edge(b, c, DataAnno::array("y", 100));
        g
    }

    fn pipeline_graph() -> (DelirGraph, ExecutorOptions) {
        let mut g = DelirGraph::new();
        let ai = g.add_node(
            "A_I",
            NodeKind::DataParallel { tasks: 24, mean_cost: 2.0, cv: 0.3 },
            Some("A".into()),
        );
        let ad = g.add_node(
            "A_D",
            NodeKind::DataParallel { tasks: 8, mean_cost: 2.0, cv: 0.3 },
            Some("A".into()),
        );
        let am = g.add_node("A_M", NodeKind::Merge { cost: 1.0 }, Some("A".into()));
        g.add_edge(ai, am, DataAnno::array("r1", 24));
        g.add_edge(ad, am, DataAnno::array("r2", 8));
        g.add_carried_edge(am, ad, DataAnno::array("q", 8));
        let b =
            g.add_node("B", NodeKind::DataParallel { tasks: 40, mean_cost: 1.0, cv: 0.1 }, None);
        g.add_edge(am, b, DataAnno::array("out", 40));
        let mut opts = ExecutorOptions { threads: 2, ..ExecutorOptions::default() };
        opts.pipeline_iters.insert("A".into(), 5);
        (g, opts)
    }

    #[test]
    fn plan_expands_pipeline_iterations() {
        let (g, opts) = pipeline_graph();
        let plan = build_plan(&g, &opts).unwrap();
        // 3 group nodes × 5 iterations + B.
        assert_eq!(plan.ops.len(), 16);
        // Dependencies always point backwards.
        for (i, op) in plan.ops.iter().enumerate() {
            for &d in &op.deps {
                assert!(d < i, "op {i} depends on later op {d}");
            }
        }
        // B waits for the last merge.
        let b = plan.ops.iter().position(|o| o.name == "B").unwrap();
        let last_merge = plan.ops.iter().position(|o| o.name == "A_M@4").unwrap();
        assert!(plan.ops[b].deps.contains(&last_merge));
        // Carried edge: A_D@1 depends on A_M@0.
        let ad1 = plan.ops.iter().position(|o| o.name == "A_D@1").unwrap();
        let am0 = plan.ops.iter().position(|o| o.name == "A_M@0").unwrap();
        assert!(plan.ops[ad1].deps.contains(&am0));
    }

    #[test]
    fn barrier_plan_serializes_iterations() {
        let (g, opts) = pipeline_graph();
        let barrier = ExecutorOptions { pipeline_overlap: false, ..opts.clone() };
        let plan = build_plan(&g, &barrier).unwrap();
        // A_I@1 must wait (possibly transitively) for iteration 0's
        // merge under barriers; with overlap it depends on nothing.
        fn reaches(plan: &Plan, from: usize, to: usize) -> bool {
            from == to || plan.ops[from].deps.iter().any(|&d| reaches(plan, d, to))
        }
        let ai1 = plan.ops.iter().position(|o| o.name == "A_I@1").unwrap();
        let am0 = plan.ops.iter().position(|o| o.name == "A_M@0").unwrap();
        assert!(reaches(&plan, ai1, am0));
        let overlap_plan = build_plan(&g, &opts).unwrap();
        let ai1 = overlap_plan.ops.iter().position(|o| o.name == "A_I@1").unwrap();
        assert!(overlap_plan.ops[ai1].deps.is_empty());
    }

    #[test]
    fn threaded_executes_every_task_once() {
        let g = small_graph();
        let opts = ExecutorOptions { threads: 3, ..ExecutorOptions::default() };
        let kernel = SpinKernel::with_scale(4.0);
        let r = execute_threaded(&g, &opts, &kernel).unwrap();
        assert_eq!(r.stats.total_tasks(), 102);
        for counts in &r.exec_counts() {
            assert!(counts.iter().all(|&c| c == 1));
        }
        assert!(r.wall_us > 0.0);
        assert!(r.measured_speedup() <= r.workers as f64 + 1e-9);
    }

    #[test]
    fn threaded_matches_sequential_bitwise() {
        let (g, opts) = pipeline_graph();
        let kernel = SpinKernel::with_scale(4.0);
        let seq = execute_sequential(&g, &opts, &kernel).unwrap();
        let thr = execute_threaded(&g, &opts, &kernel).unwrap();
        assert_eq!(seq.outputs.len(), thr.outputs.len());
        for (i, (a, b)) in seq.outputs.iter().zip(&thr.outputs).enumerate() {
            assert_eq!(a, b, "op {} differs", seq.ops[i].name);
        }
    }

    #[test]
    fn invalid_graph_rejected() {
        let mut g = DelirGraph::new();
        let a = g.add_node("A", NodeKind::Task { cost: 1.0 }, None);
        g.add_edge(a, a, DataAnno::scalar("self"));
        let kernel = SpinKernel::default();
        assert!(execute_threaded(&g, &ExecutorOptions::default(), &kernel).is_err());
    }
}
