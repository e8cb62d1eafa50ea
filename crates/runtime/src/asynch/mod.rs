//! Async cooperative executor backend: the expanded op DAG as futures.
//!
//! The third and fourth backends bracket the orchestration layer from
//! opposite sides: [`threaded`](crate::threaded) gives every worker a
//! preemptive OS thread; this module multiplexes *many in-flight
//! operations* over a small pool of driver threads running hand-rolled
//! futures (see `driver` — no tokio, in the spirit of the in-tree
//! shims). Ops become futures that park on their op's wake list until
//! the run core's readiness protocol ([`crate::run`]) says the op is
//! enabled, and chunk claims reuse
//! the existing [`ChunkQueue`] machinery — the one lock-free
//! epoch-descriptor claim every policy uses — but **yield at chunk boundaries**
//! instead of blocking, so a driver interleaves chunks of every ready
//! op and the exactly-once claim invariants get stressed by
//! interleavings real threads rarely produce (each op gets *more
//! claimer futures than drivers*, deliberately oversubscribed).
//!
//! What stays with this engine, beside the run core it shares with the
//! pool (set-up, `OpState`, the task body, and the readiness protocol
//! that decides what a completion, a publication or a claim makes
//! ready or stop): the drivers and their run queues (`driver`), the
//! claimer future, and one wake list per op — draining it is this
//! engine's `ready(op)`.
//!
//! Two properties the differential suites pin down:
//!
//! * **Exactly-once**: a task index is executed once no matter how
//!   claimer futures interleave — the claim is the serialization
//!   point (`ChunkQueue::claim`), and a claimed chunk is executed to
//!   completion between two yield points by a single future.
//! * **Determinism at one driver**: with `drivers = 1` there is a
//!   single run queue, every yield requeues FIFO at its back, wake-list
//!   wakes route through the driver's LIFO slot in a fixed order, and
//!   the adaptive policies are fed *deterministic cost hints* (like
//!   the dist backend's control plane), so the whole schedule — chunk
//!   sizes, claim order, yield counts — replays identically run over
//!   run. At several drivers the run queues are per-driver with
//!   LIFO-slot wakes and steal-half balancing (see `driver`).

pub(crate) mod driver;

use crate::alloc::OutputArena;
use crate::cancel::RunError;
use crate::checkpoint::{ResumeState, RunCtl};
use crate::executor::ExecutorOptions;
use crate::run::{self, set_up, snapshot_ops, ExecLog, OpRecord, OpState, RunReport, Setup};
use crate::stats::OnlineStats;
use crate::threaded::crew::run_on_threads;
use crate::threaded::queue::{BoundedClaim, Chunk, ChunkQueue};
use crate::threaded::{build_plan, Plan, TaskKernel};
use driver::{DriverRecord, Sched, TaskFuture, TaskSlot};
use orchestra_delirium::{DelirGraph, Node};
use orchestra_machine::ProcStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::Waker;
use std::time::Instant;

/// What the cooperative executor itself keeps per operation, beside
/// the shared [`OpState`]: the claim queue its claimer futures share,
/// and everything they park on.
struct AsyncOp<'p> {
    /// The run core's per-op state.
    state: OpState<'p>,
    queue: ChunkQueue,
    /// The op's one wake list — this engine's `ready(op)` drains it.
    /// Its claimers park here while the op is not enabled and, later,
    /// while their next chunk sits at or above a streamed producer's
    /// watermark; either way the parked claimer re-checks what it
    /// waits for after registering (see [`driver::park_until`]).
    wakers: Mutex<Vec<Waker>>,
    /// Chunk-boundary yields taken by this op's claimers.
    yields: AtomicU64,
}

impl<'p> AsRef<OpState<'p>> for AsyncOp<'p> {
    fn as_ref(&self) -> &OpState<'p> {
        &self.state
    }
}

/// Everything the claimer futures borrow for the duration of the run.
struct AsyncShared<'p, 'g> {
    ops: Vec<AsyncOp<'p>>,
    nodes: &'g [Node],
    /// Shared output buffers: every op's tasks write disjoint cells, and
    /// finished ops hand their slices downstream by reference.
    arena: &'g OutputArena,
    /// One executed-chunk log per driver, filled by the claimer futures
    /// via [`driver::current_driver`]: while the run is live only the
    /// driver's own thread takes its lock, once per chunk. The drivers'
    /// task/chunk counts are these logs' totals (busy time is measured
    /// by the driver loop itself).
    logs: Vec<Mutex<ExecLog>>,
    epoch: Instant,
    /// Fault-injection, checkpoint and stop control, and the parking
    /// the drivers sleep on.
    ctl: RunCtl,
}

/// Driver-count resolution: `opts.drivers`, else `opts.threads`, else
/// a small pool (available parallelism capped at 4 — the point of the
/// backend is a handful of drivers multiplexing many ops).
pub fn resolve_drivers(opts: &ExecutorOptions) -> usize {
    if opts.drivers > 0 {
        return opts.drivers;
    }
    if opts.threads > 0 {
        return opts.threads;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).min(4)
}

/// Claimer futures spawned per op: deliberately more than the driver
/// count (oversubscription stresses the exactly-once claim invariant
/// with interleavings preemptive threads rarely produce), but never
/// more than the op has tasks.
fn claimers_for(tasks: usize, drivers: usize) -> usize {
    (drivers * 2).min(tasks).max(1)
}

fn us_since(epoch: Instant) -> f64 {
    epoch.elapsed().as_secs_f64() * 1e6
}

impl AsyncShared<'_, '_> {
    /// Books one executed chunk of op `op_idx` to the polling driver,
    /// after its tasks ran.
    fn book_chunk(&self, op_idx: usize, chunk: Chunk) {
        let d = driver::current_driver().expect("claimer futures are only polled by drivers");
        self.logs[d].lock().expect("driver log poisoned").push(op_idx, chunk);
    }

    /// This engine's `ready(op)`: wakes the claimers parked on the
    /// op's list.
    fn ready(&self, op_idx: usize) {
        driver::wake_all(&self.ops[op_idx].wakers);
    }

    /// Op `op_idx`'s last task ran: the run core decides which
    /// dependents that readies.
    fn complete(&self, op_idx: usize) {
        run::completed(&self.ops, self.arena, op_idx, us_since(self.epoch), |d| self.ready(d));
    }
}

/// One claimer's life: park until the op is enabled, then loop
/// claim → execute chunk → yield until the queue is drained. The
/// yield between chunks is the backend's entire scheduling story:
/// between any two chunks the driver is free to run *any* ready op.
/// Under a hook (faults, checkpoints, cancellation) the claimer runs
/// the run core's post-claim sequence after every claim, and leaves
/// when it says the run stops.
async fn run_claimer(
    shared: &AsyncShared<'_, '_>,
    op_idx: usize,
    cid: usize,
    kernel: &(dyn TaskKernel + Sync),
) {
    let aop = &shared.ops[op_idx];
    let op = &aop.state;
    let arena = shared.arena;
    driver::park_until(&aop.wakers, || op.enabled()).await;
    if op.plan.tasks == 0 {
        // Degenerate op: its single claimer (see `claimers_for`)
        // completes it directly.
        op.stamp_start(us_since(shared.epoch));
        shared.complete(op_idx);
        return;
    }
    let hooked = shared.ctl.hooked();
    let adaptive = aop.queue.is_adaptive();
    // The op is enabled: whole-op predecessors are complete, and
    // streamed ones are read only below their watermark.
    let node = &shared.nodes[op.plan.node];
    let inputs = op.inputs(arena);
    let mut done = 0usize;
    loop {
        // Streamed consumers re-read the producers' watermarks at
        // every claim; whole-op consumers get `usize::MAX` and the
        // plain claim path.
        let limit = op.stream_limit(arena);
        let chunk = match aop.queue.claim_bounded(limit) {
            BoundedClaim::Chunk(c) => c,
            BoundedClaim::Blocked => {
                // Tasks remain but the producer has not committed
                // their inputs yet: park until a publication raises
                // the watermark past the limit that blocked us, then
                // retry the claim. Busy-yield-and-retry would also be
                // correct here but burns the driver repolling a future
                // that cannot progress. The park is deliberately *not*
                // counted in `yields` — that counter is pinned
                // one-per-chunk by the differential suites. If the run
                // stops, the drivers leave and this future is simply
                // never polled again, so the wait cannot hang it.
                driver::park_until(&aop.wakers, || op.stream_limit(arena) > limit).await;
                continue;
            }
            BoundedClaim::Exhausted => break,
        };
        if hooked && shared.ctl.after_claim(cid, None, || snapshot_ops(&shared.ops, arena)) {
            // Stopping mid-loop: the batch executed so far still counts.
            // (The run is `stopping`: the drivers leave and parked
            // futures are never waited for.)
            break;
        }
        op.stamp_start(us_since(shared.epoch));
        let mut chunk_stats = OnlineStats::new();
        // SAFETY: the claim handed queue indices `[start, start+len)`
        // to this claimer exactly once.
        unsafe {
            op.run_span(kernel, node, &inputs, arena, chunk.range(), |t| {
                if adaptive {
                    chunk_stats.observe(op.costs[t]);
                }
            });
        }
        if adaptive {
            // Feed TAPER the deterministic cost *hints*, not wall
            // clock — the same choice the dist backend's control plane
            // makes, so chunk sequences are reproducible (and, at one
            // driver, the whole schedule is).
            aop.queue.observe_chunk(chunk.start, chunk.len, &chunk_stats);
        }
        shared.book_chunk(op_idx, chunk);
        if op.streams_output() {
            // Commit the chunk's span before yielding: once the b*
            // batch fills (or the op finishes) the watermark publishes
            // and downstream claimers may start on the prefix.
            if let Some(p) = arena.commit_range(op_idx, chunk.start, chunk.len, op.stream_batch) {
                run::published(&shared.ops, op_idx, p, |d| shared.ready(d));
            }
        }
        done += chunk.len;
        aop.yields.fetch_add(1, Ordering::Relaxed);
        driver::yield_now().await;
    }
    // Account this claimer's work in one batched decrement; whoever
    // zeroes the counter has proof every task ran and completes the op
    // (same protocol as the threaded pool).
    if op.account(done) {
        shared.complete(op_idx);
    }
}

/// Executes a graph on the cooperative futures executor.
///
/// # Errors
///
/// Returns the graph's validation error when it is malformed, or a
/// cancellation/deadline error when the caller cancelled the run.
pub fn execute_async(
    g: &DelirGraph,
    opts: &ExecutorOptions,
    kernel: &(dyn TaskKernel + Sync),
) -> Result<RunReport, RunError> {
    run_async(g, &build_plan(g, opts)?, opts, kernel, &ResumeState::empty())
}

/// Runs an already expanded plan on the cooperative executor from a
/// restore image (empty for a fresh run): the shared [`set_up`], then
/// this backend's own part — per op a claim queue, a wake list and an
/// oversubscribed set of claimer futures (none for ops the snapshot
/// finished: the run core never counted them as dependencies),
/// multiplexed over the driver threads.
pub(crate) fn run_async(
    g: &DelirGraph,
    plan: &Plan,
    opts: &ExecutorOptions,
    kernel: &(dyn TaskKernel + Sync),
    resume: &ResumeState,
) -> Result<RunReport, RunError> {
    let drivers = resolve_drivers(opts);
    let Setup { arena, ops } = set_up(plan, &g.nodes, opts, kernel.access(), drivers, resume);
    // Claimers, like the chunk schedule, size for the op's equalizer
    // share of the driver pool.
    let n_claimers: Vec<usize> = ops
        .iter()
        .map(|op| if op.pre_done() { 0 } else { claimers_for(op.pending(), op.share.len()) })
        .collect();
    let ops: Vec<AsyncOp> = ops
        .into_iter()
        .map(|state| AsyncOp {
            queue: state.chunk_queue(opts.policy),
            wakers: Mutex::new(Vec::new()),
            yields: AtomicU64::new(0),
            state,
        })
        .collect();
    let spawned: usize = n_claimers.iter().sum();
    let shared = AsyncShared {
        ops,
        nodes: &g.nodes,
        arena: &arena,
        logs: (0..drivers).map(|_| Mutex::default()).collect(),
        epoch: Instant::now(),
        ctl: RunCtl::new(opts, plan, spawned),
    };
    // Spawn claimer futures op-major: ready ops start interleaved at
    // the front of the FIFO run queue; blocked ones park on their
    // op's wake list on first poll. Each claimer's spawn index is its fault-
    // injection identity.
    let mut futures: Vec<TaskFuture<'_>> = Vec::new();
    for (i, &n) in n_claimers.iter().enumerate() {
        for _ in 0..n {
            let cid = futures.len();
            futures.push(Box::pin(run_claimer(&shared, i, cid, kernel)));
        }
    }
    debug_assert_eq!(futures.len(), spawned);
    let ctl = &shared.ctl;
    let sched = Sched::new(spawned, drivers, Arc::clone(&ctl.parking));
    let records: Vec<DriverRecord> = {
        let slots: Vec<TaskSlot<'_>> = futures.into_iter().map(TaskSlot::new).collect();
        let epoch = shared.epoch;
        run_on_threads(opts.crew.as_ref(), drivers, |id| {
            ctl.guard(|| driver::drive(id, &sched, &slots, epoch, || ctl.stopping()))
        })
    };
    let wall_us = us_since(shared.epoch);

    let polls: u64 = records.iter().map(|r| r.polls).sum();
    let steals: u64 = records.iter().map(|r| r.steals).sum();
    // End the arena borrow (the drivers have joined) so its buffers
    // can be handed out as the run's outputs.
    let AsyncShared { ops, ctl, logs, .. } = shared;
    let logs: Vec<ExecLog> =
        logs.into_iter().map(|l| l.into_inner().expect("driver log poisoned")).collect();
    let procs: Vec<ProcStats> =
        records.into_iter().zip(&logs).map(|(rec, log)| rec.into_proc(log.totals())).collect();
    let op_records: Vec<OpRecord> = ops
        .iter()
        .map(|op| OpRecord {
            yields: op.yields.load(Ordering::Relaxed),
            ..op.state.record(&arena, op.queue.chunks_claimed())
        })
        .collect();
    let states = ops.into_iter().map(|op| op.state);
    let report = RunReport::from_run(wall_us, procs, op_records, states, logs, arena, &ctl)?;
    Ok(RunReport { polls, spawned, steals, ..report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::{execute_sequential, SpinKernel};
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

    #[test]
    fn async_executes_every_task_once() {
        let g = small_graph();
        let opts = ExecutorOptions { drivers: 3, ..ExecutorOptions::default() };
        let kernel = SpinKernel::with_scale(4.0);
        let r = execute_async(&g, &opts, &kernel).unwrap();
        assert_eq!(r.stats.total_tasks(), 102);
        for counts in &r.exec_counts() {
            assert!(counts.iter().all(|&c| c == 1));
        }
        assert!(r.wall_us > 0.0);
        assert!(r.yields > 0, "chunk boundaries must yield");
        assert_eq!(r.claims, r.yields, "one yield per executed chunk");
        assert!(r.polls >= r.claims + r.spawned as u64);
        assert!(r.measured_speedup() <= r.workers as f64 + 1e-9);
        assert!(r.driver_utilization() <= 1.0 + 1e-9);
    }

    #[test]
    fn async_matches_sequential_bitwise() {
        let g = small_graph();
        let opts = ExecutorOptions { drivers: 2, ..ExecutorOptions::default() };
        let kernel = SpinKernel::with_scale(4.0);
        let seq = execute_sequential(&g, &opts, &kernel).unwrap();
        let run = execute_async(&g, &opts, &kernel).unwrap();
        assert_eq!(seq.outputs, run.outputs);
    }

    #[test]
    fn oversubscribed_claimers_spawned() {
        let g = small_graph();
        let opts = ExecutorOptions { drivers: 2, ..ExecutorOptions::default() };
        let r = execute_async(&g, &opts, &SpinKernel::with_scale(2.0)).unwrap();
        // B (100 tasks) gets 2×drivers claimers; A and C one each.
        assert_eq!(r.spawned, 4 + 1 + 1);
    }

    #[test]
    fn driver_resolution_prefers_explicit_knob() {
        let mut opts = ExecutorOptions::default();
        assert!(resolve_drivers(&opts) >= 1);
        opts.threads = 7;
        assert_eq!(resolve_drivers(&opts), 7);
        opts.drivers = 3;
        assert_eq!(resolve_drivers(&opts), 3);
    }

    #[test]
    fn invalid_graph_rejected() {
        let mut g = DelirGraph::new();
        let a = g.add_node("A", NodeKind::Task { cost: 1.0 }, None);
        g.add_edge(a, a, DataAnno::scalar("self"));
        assert!(execute_async(&g, &ExecutorOptions::default(), &SpinKernel::default()).is_err());
    }
}
