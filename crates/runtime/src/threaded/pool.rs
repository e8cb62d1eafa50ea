//! The worker pool: N OS threads executing a dependency-counted DAG of
//! parallel operations, each operation scheduled through a shared
//! [`ChunkQueue`](super::queue::ChunkQueue) or, under distributed
//! TAPER, through per-worker home queues
//! ([`DistQueue`](super::dist::DistQueue)).
//!
//! The scheduling hot path is built to stay off the data path:
//!
//! * **Per-worker ready deques** — each worker owns a deque of *op
//!   tokens* (indices of operations with unclaimed chunks). A worker
//!   pops from its own front and, when empty, steals from another
//!   worker's back. Tokens are hints: exactly-once execution is
//!   guaranteed by the chunk queue's claim path, so a stale token
//!   (op already drained) just fails its claim and is dropped.
//! * **One claim loop** — every claim, from either kind of queue, is a
//!   contiguous [`Chunk`]. After claiming its first chunk from an op a
//!   worker loops claim→execute directly against the queue until the
//!   op is drained or blocked at a watermark: no deque traffic per
//!   chunk. A shared op is re-advertised once per visit (one token
//!   push + at most one targeted wakeup).
//! * **Targeted wakeups** — idle workers park on the run's one
//!   [`Parking`](crate::parking::Parking): a token push wakes one
//!   sleeper only when one is registered, so the all-busy steady state
//!   does zero wake syscalls; completion of the last op, a death and a
//!   stop broadcast once.
//! * **Batched sampling** — workers time only a bounded prefix of
//!   tasks per op visit (48, chained clock reads so N samples cost
//!   N+1 `Instant::now` calls), bulk-time the rest one read per
//!   chunk, accumulate µ/σ into a stack-local [`OnlineStats`], and
//!   merge buffered per-chunk feedback into the chunk policy only
//!   when its lock is free
//!   ([`ChunkQueue::try_observe_pending`]) — the claim loop never
//!   blocks on feedback.
//! * **Cache-line padding** — per-worker shared state is 64-byte
//!   aligned so one worker's deque lock never false-shares with its
//!   neighbour's.
//! * **Private dist tokens** — a distributed-TAPER op's token goes to
//!   *every* worker's private, non-stealable `dist_ready` list when the
//!   op becomes ready (each worker owns a home queue it alone can
//!   drain, so each must visit the op). Keeping these tokens out of the
//!   stealable deques is a liveness requirement, not an optimisation:
//!   a stolen dist token would be dropped by a thief whose own home
//!   queue is empty, stranding the owner's tasks forever. A worker that
//!   exhausts its home queue can drop its token for good —
//!   [`DistQueue`](super::dist::DistQueue) re-assigns work only into
//!   the claiming worker's own queue, so an abandoned home can never
//!   refill behind its owner's back.

use super::crew::run_on_threads;
use super::dist::DistQueue;
use super::queue::{BoundedClaim, Chunk, ChunkQueue};
use super::topology::{pin_current_thread, Affinity, StealDistance, WorkerTopo};
use super::TaskKernel;
use crate::alloc::OutputArena;
use crate::checkpoint::{FaultState, KillMode, Lease, RunCtl};
use crate::chunking::PolicyKind;
use crate::executor::ExecutorOptions;
use crate::finish::{finish_estimate_live, HostCalibration, OpSpec};
use crate::granularity::pipelined_stage_time;
use crate::run::{self, snapshot_ops, ExecLog, OpState};
use crate::stats::{OnlineStats, StealStats};
use orchestra_delirium::Node;
use orchestra_machine::ProcStats;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How one operation's chunks are handed out: a shared claim queue
/// (work-stealing over one cursor/policy) or distributed TAPER's
/// per-worker home queues with epoch-token migration.
pub(crate) enum OpQueue {
    /// All workers claim from one shared queue.
    Shared(ChunkQueue),
    /// Each worker drains its own home queue; the coordinator migrates
    /// work from laggards.
    Dist(DistQueue),
}

impl OpQueue {
    pub(crate) fn chunks_claimed(&self) -> u64 {
        match self {
            OpQueue::Shared(q) => q.chunks_claimed(),
            OpQueue::Dist(q) => q.chunks_claimed(),
        }
    }

    pub(crate) fn is_dist(&self) -> bool {
        matches!(self, OpQueue::Dist(_))
    }

    pub(crate) fn as_dist(&self) -> Option<&DistQueue> {
        match self {
            OpQueue::Shared(_) => None,
            OpQueue::Dist(q) => Some(q),
        }
    }
}

/// What the pool itself keeps per operation, beside the shared
/// [`OpState`]: its claim queue.
pub(crate) struct PoolOp<'p> {
    /// The run core's per-op state.
    pub state: OpState<'p>,
    /// The claim-next-chunk queue (shared or distributed).
    pub queue: OpQueue,
    /// Cost hints over a distributed queue's *index* space when the op
    /// is remapped (`None` = use the state's `costs` directly).
    pub queue_costs: Option<Vec<f64>>,
}

impl<'p> AsRef<OpState<'p>> for PoolOp<'p> {
    fn as_ref(&self) -> &OpState<'p> {
        &self.state
    }
}

impl PoolOp<'_> {
    /// One claim for `worker` among the queue indices below `limit`:
    /// the chunk and, from a dist queue, the epoch it was tokened in
    /// (stamped `now_us()` if the claim completes one). `None` ends the
    /// visit either way: the queue (this worker's home, for a dist op)
    /// is drained, or everything claimable sits at or above the
    /// producers' watermark — the next publication re-tokens the op, so
    /// a worker never spins on the watermark.
    fn claim(
        &self,
        worker: usize,
        limit: usize,
        now_us: impl FnOnce() -> f64,
    ) -> Option<(Chunk, Option<u64>)> {
        match &self.queue {
            OpQueue::Shared(q) => match q.claim_bounded(limit) {
                BoundedClaim::Chunk(c) => Some((c, None)),
                BoundedClaim::Blocked | BoundedClaim::Exhausted => None,
            },
            OpQueue::Dist(q) => {
                // Cost hints in the queue's index space.
                let costs = self.queue_costs.as_deref().unwrap_or(&self.state.costs);
                q.claim_bounded(worker, costs, now_us(), limit).map(|c| (c.chunk, Some(c.epoch)))
            }
        }
    }
}

/// The §4.1.2 processor partition over the worker pool: bit `w` of
/// `masks[op]` set means worker `w` may serve operation `op`.
///
/// When a graph level holds several concurrent operations the
/// finishing-time equalizer splits the pool between them; the masks
/// then restrict token routing and steal schedules to each op's
/// partition. Masks only ever *widen* — re-equalization admits a fast
/// op's freed workers into the laggard's partition, never evicts a
/// worker mid-claim — so exactly-once execution and bitwise
/// determinism are untouched: partitioning moves *where* a task runs,
/// never *what* it computes.
///
/// Disabled (all-ones masks, no balancing) when allocation is off,
/// the pool has a single worker, or more than 64 workers (one `u64`
/// mask per op keeps the hot-path check a single atomic load).
pub(crate) struct Partition {
    masks: Vec<AtomicU64>,
    /// Serializes re-equalization decisions; contended triggers skip
    /// rather than queue (the next trigger re-evaluates anyway).
    balance: Mutex<()>,
    enabled: bool,
}

impl Partition {
    /// The partition the run core's equalizer shares describe: live
    /// when some level was split (then some op's share is smaller than
    /// the pool), every worker serving every op otherwise.
    fn from_shares(ops: &[PoolOp], workers: usize) -> Self {
        let enabled = ops.iter().any(|op| op.state.share.len() < workers);
        let mask = |op: &PoolOp| {
            let share = &op.state.share;
            assert!(!share.is_empty(), "every op needs at least one worker");
            if enabled {
                (((1u128 << share.len()) - 1) << share.start) as u64
            } else {
                u64::MAX
            }
        };
        Partition {
            masks: ops.iter().map(|op| AtomicU64::new(mask(op))).collect(),
            balance: Mutex::new(()),
            enabled,
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// May worker `w` claim from op `op`?
    #[inline]
    fn allows(&self, op: usize, w: usize) -> bool {
        !self.enabled || self.masks[op].load(Ordering::Acquire) & (1u64 << w) != 0
    }

    /// Workers currently assigned to `op` (the live allocation size).
    fn procs(&self, op: usize, workers: usize) -> usize {
        if !self.enabled {
            return workers;
        }
        let live = if workers >= 64 { u64::MAX } else { (1u64 << workers) - 1 };
        (self.masks[op].load(Ordering::Acquire) & live).count_ones() as usize
    }

    /// Current members of `op`'s partition.
    fn members(&self, op: usize, workers: usize) -> Vec<usize> {
        (0..workers).filter(|&w| self.allows(op, w)).collect()
    }

    /// Adds `w` to `op`'s partition; `true` if the bit was newly set
    /// (never, when partitioning is disabled: everyone already serves
    /// every op).
    fn admit(&self, op: usize, w: usize) -> bool {
        self.enabled && self.masks[op].fetch_or(1u64 << w, Ordering::AcqRel) & (1u64 << w) == 0
    }
}

/// Per-worker measurements from one pool run.
pub struct WorkerRecord {
    /// Busy time / task count / chunk count, as the simulator records
    /// them per processor.
    pub proc: ProcStats,
    /// Online µ/σ over this worker's task times (µs).
    pub timing: OnlineStats,
    /// Steal counters bucketed by hierarchy distance.
    pub steal: StealStats,
    /// Whether the kernel accepted this worker's CPU pin (always
    /// `false` when pinning is disabled).
    pub pinned: bool,
    /// Every chunk this worker ran, for the exactly-once fold.
    pub(crate) log: ExecLog,
}

/// Pads per-worker shared state to a cache line so adjacent workers'
/// deque locks don't false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

/// The shared half of one worker's state: its stealable ready-op deque
/// and its private distributed-op token list. Everything hot and
/// worker-private (ProcStats, timing accumulators, the per-chunk
/// OnlineStats) lives on the worker's own stack instead.
struct WorkerState {
    ready: Mutex<VecDeque<usize>>,
    /// Distributed-op tokens for THIS worker only — never stolen
    /// (every worker must visit a dist op to drain its own home
    /// queue); producers push here, only the owner pops.
    dist_ready: Mutex<Vec<usize>>,
}

struct Shared<'a> {
    ops: &'a [PoolOp<'a>],
    nodes: &'a [Node],
    /// The zero-copy output slab every op writes into and reads its
    /// inputs from; spans are indexed by op.
    arena: &'a OutputArena,
    /// Worker→CPU placement and precomputed steal schedules.
    topo: &'a WorkerTopo,
    /// Pin each worker to its assigned CPU at startup.
    pin: bool,
    /// Fault-injection and checkpoint control (inert on normal runs).
    ctl: &'a RunCtl,
    /// The §4.1.2 worker partition (all-ones when allocation is off).
    partition: Partition,
    /// One padded deque per worker.
    workers: Vec<CachePadded<WorkerState>>,
    completed: AtomicUsize,
    epoch: Instant,
}

impl<'a> Shared<'a> {
    /// The pool state for one run on `topo`'s workers: the partition
    /// the ops' shares describe, and the initially ready ops' tokens
    /// scattered over the deques. Ops a restored snapshot already
    /// finished count as completed from the start.
    fn new(
        ops: &'a [PoolOp<'a>],
        nodes: &'a [Node],
        arena: &'a OutputArena,
        topo: &'a WorkerTopo,
        pin: bool,
        ctl: &'a RunCtl,
    ) -> Self {
        let workers = topo.workers().max(1);
        let partition = Partition::from_shares(ops, workers);
        let mut deques: Vec<CachePadded<WorkerState>> = (0..workers)
            .map(|_| {
                CachePadded(WorkerState {
                    ready: Mutex::new(VecDeque::new()),
                    dist_ready: Mutex::new(Vec::new()),
                })
            })
            .collect();
        // Scatter the initially ready ops round-robin so workers start
        // on distinct ops instead of brawling over one deque;
        // distributed ops are tokened to every worker in their
        // partition (each member owns a home queue of the op), shared
        // ops to one member each.
        let mut next = 0usize;
        for (i, op) in ops.iter().enumerate() {
            if op.state.pre_done() || !op.state.enabled() {
                continue;
            }
            if op.queue.is_dist() {
                for (w, d) in deques.iter_mut().enumerate() {
                    if partition.allows(i, w) {
                        d.0.dist_ready.get_mut().expect("fresh lock").push(i);
                    }
                }
            } else {
                let members = partition.members(i, workers);
                let w = members[next % members.len()];
                deques[w].0.ready.get_mut().expect("fresh lock").push_back(i);
                next += 1;
            }
        }
        Shared {
            ops,
            nodes,
            arena,
            topo,
            pin,
            ctl,
            partition,
            workers: deques,
            completed: AtomicUsize::new(ops.iter().filter(|op| op.state.pre_done()).count()),
            epoch: Instant::now(),
        }
    }

    fn all_done(&self) -> bool {
        self.completed.load(Ordering::SeqCst) == self.ops.len()
    }
}

fn us_since(epoch: Instant, t: Instant) -> f64 {
    t.duration_since(epoch).as_secs_f64() * 1e6
}

/// Executes the op DAG on one thread per worker of `topo` — the
/// threads of `opts.crew` when one is lent, scoped threads of this
/// call's own otherwise — which supplies the per-worker steal schedules
/// (and pin targets under `opts.pin_workers`). `ctl` carries the fault
/// plan and checkpoint state (inert on normal runs). Ops a restored
/// snapshot already finished count as completed from the start; ops
/// with no live dependency start ready.
pub(crate) fn run_pool(
    ops: &[PoolOp],
    nodes: &[Node],
    arena: &OutputArena,
    topo: &WorkerTopo,
    opts: &ExecutorOptions,
    kernel: &(dyn TaskKernel + Sync),
    ctl: &RunCtl,
) -> Vec<WorkerRecord> {
    let pin = opts.pin_workers;
    let crew = opts.crew.as_ref();
    let shared = Shared::new(ops, nodes, arena, topo, pin, ctl);
    run_on_threads(crew, shared.workers.len(), |id| {
        let _entered =
            RestoreAffinity(if pin && crew.is_some() { Affinity::current() } else { None });
        ctl.guard(|| worker_loop(&shared, id, kernel))
    })
}

/// A lent thread outlives the run: if the run pins it, it goes back
/// with the affinity mask it came with, unwinding or not.
struct RestoreAffinity(Option<Affinity>);

impl Drop for RestoreAffinity {
    fn drop(&mut self) {
        if let Some(mask) = self.0 {
            mask.apply();
        }
    }
}

/// Pops a token: own private dist list first (only this worker can
/// drain those home queues), then own deque front, then the other
/// workers' backs in this worker's precomputed steal schedule — SMT
/// sibling, same node, then remote. A *remote* steal takes half the
/// victim's deque in one visit (the extra tokens move to the thief's
/// own deque after the victim's lock is released), amortizing the
/// cross-node trip; nearby steals stay single-token so hot work keeps
/// spreading.
fn find_token(shared: &Shared<'_>, id: usize, steal: &mut StealStats) -> Option<usize> {
    if let Some(i) = shared.workers[id].0.dist_ready.lock().expect("dist list poisoned").pop() {
        return Some(i);
    }
    if let Some(i) = shared.workers[id].0.ready.lock().expect("deque poisoned").pop_front() {
        // Own-deque tokens are always serveable: every push path
        // (scatter, re-advertise, completion routing, admission)
        // targets a partition member, and masks never shrink.
        debug_assert!(shared.partition.allows(i, id), "non-member token in own deque");
        return Some(i);
    }
    let part = &shared.partition;
    for target in shared.topo.steal_schedule(id) {
        let mut extras: Vec<usize> = Vec::new();
        let first = {
            let mut victim = shared.workers[target.victim].0.ready.lock().expect("deque poisoned");
            let len = victim.len();
            // Steal schedules are restricted to the thief's partitions:
            // a token for an op this worker may not serve stays put.
            let Some(first) = pop_allowed_back(&mut victim, part, id) else {
                continue;
            };
            if target.distance == StealDistance::Remote {
                // Batch: take ceil(len/2) tokens total, counting the
                // one already popped.
                for _ in 1..len.div_ceil(2) {
                    match pop_allowed_back(&mut victim, part, id) {
                        Some(t) => extras.push(t),
                        None => break,
                    }
                }
            }
            first
        };
        steal.record(target.distance.class(), extras.len() as u64);
        if !extras.is_empty() {
            // Victim lock is released; taking our own deque lock here
            // keeps lock holds disjoint (no nested deque locks).
            let mut own = shared.workers[id].0.ready.lock().expect("deque poisoned");
            for t in extras {
                own.push_back(t);
            }
        }
        return Some(first);
    }
    None
}

/// Pops the rearmost token the thief's partition masks allow, leaving
/// other ops' tokens in place. Falls back to a plain `pop_back` when
/// partitioning is disabled (the common case stays O(1)).
fn pop_allowed_back(dq: &mut VecDeque<usize>, part: &Partition, id: usize) -> Option<usize> {
    if !part.enabled() {
        return dq.pop_back();
    }
    let i = (0..dq.len()).rev().find(|&i| part.allows(dq[i], id))?;
    dq.remove(i)
}

/// What a claim-loop visit did to the calling worker.
enum Flow {
    /// Keep scheduling.
    Continue,
    /// The worker hit an injected fault and must exit its loop.
    Died,
}

/// What a recovery sweep accomplished.
enum Recover {
    /// Nothing to recover — safe to park.
    Idle,
    /// Recovered leases or queues; rescan for tokens before parking.
    Progress,
    /// The recovering worker itself hit an injected fault.
    Died,
}

fn worker_loop(shared: &Shared<'_>, id: usize, kernel: &(dyn TaskKernel + Sync)) -> WorkerRecord {
    // Pinning is best-effort: a failed pin (CPU offline, synthetic
    // topology wider than the host, restrictive cgroup mask) leaves
    // the worker floating and the run proceeds unaffected.
    let mut me = WorkerRecord {
        proc: ProcStats::default(),
        timing: OnlineStats::new(),
        steal: StealStats::new(),
        pinned: shared.pin && pin_current_thread(shared.topo.cpu_of_worker[id]),
        log: ExecLog::default(),
    };
    let ctl = shared.ctl;
    let hooked = ctl.hooked();
    loop {
        if ctl.stopping() {
            ctl.parking.broadcast();
            break;
        }
        let steals0 = me.steal.steals;
        let Some(op_idx) = find_token(shared, id, &mut me.steal) else {
            match recover(shared, id, kernel, &mut me) {
                Recover::Progress => continue,
                Recover::Died => break,
                Recover::Idle => {
                    if shared.all_done() {
                        break;
                    }
                    // A drained partition frees this worker: offer it
                    // to the laggard op before sleeping on it.
                    if reequalize(shared, &[id]) {
                        continue;
                    }
                    let done = || shared.all_done() || ctl.stopping();
                    ctl.parking.park(|| visible_work(shared, id), done);
                    continue;
                }
            }
        };
        // An `OnSteal` kill fires the instant the theft lands, before
        // the stolen token is honoured. The dropped token is always a
        // shared-queue op (dist tokens are never stealable), whose
        // remaining chunks survivors reach through the recovery sweep's
        // direct `has_more` claims.
        if hooked && me.steal.steals > steals0 {
            if let Some(f) = &ctl.faults {
                if let Some(mode) = f.on_steal(id) {
                    if f.try_die(id, mode) {
                        ctl.parking.broadcast();
                        break;
                    }
                }
            }
        }
        match run_op(shared, id, op_idx, kernel, &mut me) {
            Flow::Continue => {}
            Flow::Died => break,
        }
    }
    me
}

/// What a parking worker rescans after registering (see
/// [`Parking::park`](crate::parking::Parking::park)): its private dist
/// tokens, any token its partitions allow — another partition's backlog
/// must not busy-wake it — and recovery work, which a death leaves
/// without a token (the death broadcasts).
fn visible_work(shared: &Shared<'_>, id: usize) -> bool {
    !shared.workers[id].0.dist_ready.lock().expect("dist list poisoned").is_empty()
        || shared.workers.iter().any(|w| {
            w.0.ready
                .lock()
                .expect("deque poisoned")
                .iter()
                .any(|&t| shared.partition.allows(t, id))
        })
        || recovery_visible(shared, id)
}

/// Whether any fault-recovery work is reachable from this worker:
/// orphaned leases, a stranded shared queue with unclaimed chunks, or
/// a dist home queue (this worker's own, or a dead worker's awaiting
/// adoption). Restricted to homes this worker may touch so an idle
/// pool doesn't busy-wake on another live worker's backlog.
fn recovery_visible(shared: &Shared<'_>, id: usize) -> bool {
    let ctl = shared.ctl;
    let Some(f) = &ctl.faults else {
        return false;
    };
    if !f.any_dead() {
        return false;
    }
    if !ctl.leases.lock().expect("lease lock poisoned").is_empty() {
        return true;
    }
    let dead = f.dead_workers();
    shared.ops.iter().any(|op| {
        if !op.state.runnable() {
            return false;
        }
        // Work blocked on a streamed producer's watermark is not
        // *reachable* yet: counting it here would busy-wake this
        // worker in a park loop. The producer's next publication
        // notifies, so ignoring blocked work loses no wakeups.
        let limit = op.state.stream_limit(shared.arena);
        match &op.queue {
            OpQueue::Shared(q) => q.has_more_below(limit),
            OpQueue::Dist(q) => {
                q.home_ready_below(id, limit) || dead.iter().any(|&d| q.home_len(d) > 0)
            }
        }
    })
}

/// The pool's side of [`RunCtl::after_claim`] for `chunk` of `op_idx`,
/// claimed in dist epoch `epoch`: how a worker dies. It takes its live
/// slot (refused for the last live worker) and in lease mode leaves the
/// claimed-but-unexecuted chunk as an orphaned [`Lease`] for survivors
/// to replay — the hook then wakes everyone to it. `true` means the
/// calling worker must exit.
fn stops_at_claim(
    shared: &Shared<'_>,
    id: usize,
    op_idx: usize,
    chunk: Chunk,
    epoch: Option<u64>,
) -> bool {
    let ctl = shared.ctl;
    let die = |f: &FaultState, mode| {
        let dies = f.try_die(id, mode);
        if dies && mode == KillMode::Lease {
            ctl.leases.lock().expect("lease lock poisoned").push(Lease { op_idx, chunk });
        }
        dies
    };
    ctl.after_claim(id, epoch, die, || snapshot_ops(shared.ops, shared.arena))
}

/// Replays one orphaned lease: the chunk a killed worker claimed but
/// never executed. Kernels are pure functions of (node, iter, task,
/// cost_hint), so replaying from scratch is bitwise-identical to what
/// the dead worker would have produced.
fn execute_lease(
    shared: &Shared<'_>,
    id: usize,
    lease: Lease,
    kernel: &(dyn TaskKernel + Sync),
    me: &mut WorkerRecord,
) {
    let op = &shared.ops[lease.op_idx].state;
    let arena = shared.arena;
    let node = &shared.nodes[op.plan.node];
    let inputs = op.inputs(arena);
    let t0 = Instant::now();
    op.stamp_start(us_since(shared.epoch, t0));
    // SAFETY: a lease's tasks were claimed exactly once by the dead
    // worker and are replayed exactly once here (take-all drain).
    unsafe { op.run_span(kernel, node, &inputs, arena, lease.chunk.range(), |_| {}) };
    let now = Instant::now();
    let n = lease.chunk.len;
    let span_us = now.duration_since(t0).as_secs_f64() * 1e6;
    me.timing.observe_n(span_us / n as f64, n as u64);
    me.proc.tasks += n as u64;
    me.proc.chunks += 1;
    me.proc.busy += span_us;
    me.log.push(lease.op_idx, lease.chunk);
    leave_op(shared, id, lease.op_idx, n, now, &mut me.proc);
}

/// The recovery sweep, run by an idle worker before parking: drains
/// orphaned leases (take-all under the mutex, so each is replayed
/// exactly once), retires dead workers from epoch accounting, adopts
/// their dist home queues, and claims directly into any enabled op
/// with unclaimed work — the paths a dropped token would have covered —
/// joining the op's partition first when the survivor is not in it.
fn recover(
    shared: &Shared<'_>,
    id: usize,
    kernel: &(dyn TaskKernel + Sync),
    me: &mut WorkerRecord,
) -> Recover {
    let ctl = shared.ctl;
    let Some(f) = &ctl.faults else {
        return Recover::Idle;
    };
    if !f.any_dead() {
        return Recover::Idle;
    }
    let mut progress = false;
    let leases: Vec<Lease> = std::mem::take(&mut *ctl.leases.lock().expect("lease lock poisoned"));
    for lease in leases {
        execute_lease(shared, id, lease, kernel, me);
        progress = true;
    }
    let dead = f.dead_workers();
    for (op_idx, op) in shared.ops.iter().enumerate() {
        // Only enabled (deps == 0), unfinished ops: claiming from an
        // op whose dependencies are still running would break the
        // dependency order the DAG promises.
        if !op.state.runnable() {
            continue;
        }
        // Skip work blocked at a streamed producer's watermark: a
        // direct claim would come back `Blocked` anyway, and reporting
        // it as progress would spin this worker against the watermark.
        let limit = op.state.stream_limit(shared.arena);
        match &op.queue {
            OpQueue::Dist(q) => {
                for &d in &dead {
                    // Excuse the dead worker from epoch completion and
                    // take over its home queue. Adoption is
                    // unconditional — unlike the coordinator's
                    // cv-gated reassignment — because under uniform
                    // costs the gate never opens and a dead worker's
                    // home would otherwise strand forever.
                    q.retire_worker(d);
                    if q.adopt_home(d, id) > 0 {
                        progress = true;
                    }
                }
                if q.home_ready_below(id, limit) {
                    // Joins like the shared arm below; a new member's
                    // tokens count toward epoch completion again.
                    if shared.partition.admit(op_idx, id) {
                        q.admit_worker(id);
                    }
                    if let Flow::Died = run_op(shared, id, op_idx, kernel, me) {
                        return Recover::Died;
                    }
                    progress = true;
                }
            }
            OpQueue::Shared(q) => {
                if q.has_more_below(limit) {
                    // The stranded queue may belong to a partition this
                    // survivor is not in: it joins first (masks only
                    // widen), so the token its visit re-advertises on
                    // its own deque is a member's token like any other.
                    shared.partition.admit(op_idx, id);
                    if let Flow::Died = run_op(shared, id, op_idx, kernel, me) {
                        return Recover::Died;
                    }
                    progress = true;
                }
            }
        }
    }
    if progress {
        Recover::Progress
    } else {
        Recover::Idle
    }
}

/// Ends one visit to an op: books the worker free at `at` and folds
/// the `done` tasks the visit executed into `outstanding` — one
/// batched decrement per visit, not one RMW per chunk. Whichever
/// worker's batch reaches zero completes the op, once: the run core
/// says which dependents that enables, the pool tokens them, counts the
/// op as completed — broadcasting only when it was the last one — and
/// re-equalizes.
fn leave_op(
    shared: &Shared<'_>,
    id: usize,
    op_idx: usize,
    done: usize,
    at: Instant,
    proc: &mut ProcStats,
) {
    let t_end = us_since(shared.epoch, at);
    proc.free_at = proc.free_at.max(t_end);
    if !shared.ops[op_idx].state.account(done) {
        return;
    }
    let (mut woke, mut all) = (0usize, false);
    run::completed(shared.ops, shared.arena, op_idx, t_end, |d| {
        woke += 1;
        all |= push_token(shared, id, d);
    });
    if woke > 0 {
        shared.ctl.parking.notify(all || woke > 1);
    }
    if shared.completed.fetch_add(1, Ordering::SeqCst) + 1 == shared.ops.len() {
        // Last op: the pool can exit.
        shared.ctl.parking.broadcast();
    } else if shared.partition.enabled() {
        // This op's workers are (as far as it is concerned) free:
        // migrate them to the laggard's partition instead of letting
        // them idle or thrash another partition's queue.
        let freed = shared.partition.members(op_idx, shared.workers.len());
        reequalize(shared, &freed);
    }
}

/// Per-task clock reads a worker spends on one adaptive op before
/// switching to chunk-level timing. TAPER's µ/σ (and so its chunk
/// sizes) come from this sampled prefix — the paper's runtime likewise
/// *samples* task times rather than metering every task — after which
/// each chunk contributes its mean at full weight.
const SAMPLE_BUDGET: usize = 48;

/// Claims and executes chunks of one op until this worker can get no
/// more from it (or an injected fault kills it mid-claim-loop): the
/// queue — for a dist op, this worker's home queue plus anything the
/// coordinator migrates into it — is drained, or blocked at a streamed
/// producer's watermark. Either way the token is dropped: a publication
/// re-tokens a blocked op, and a dist home can never refill behind its
/// owner's back.
///
/// What the two kinds of queue do differently is three per-chunk
/// decisions. A shared op is re-advertised so idle workers can steal
/// into it (every member of a dist op got its own token when the op
/// became ready). An adaptive shared queue is fed sampled wall-clock
/// task times; a dist queue's control plane feeds on the tasks'
/// deterministic cost hints inside [`DistQueue::claim_bounded`], so the
/// clock there only stamps epoch times and the worker's measured µ/σ
/// and scheduling decisions stay reproducible across runs. And a dist
/// claim that crosses an epoch boundary re-equalizes.
fn run_op(
    shared: &Shared<'_>,
    id: usize,
    op_idx: usize,
    kernel: &(dyn TaskKernel + Sync),
    me: &mut WorkerRecord,
) -> Flow {
    let pool_op = &shared.ops[op_idx];
    let op = &pool_op.state;
    let arena = shared.arena;
    let hooked = shared.ctl.hooked();
    // One fresh clock read per op visit; every later timestamp chains
    // off the previous one, so N tasks under per-task sampling cost
    // N+1 reads (not 2N) and a whole chunk outside the sampling
    // prefix costs a single read.
    let t0 = Instant::now();
    let start_us = us_since(shared.epoch, t0);
    let Some((first, mut epoch)) = pool_op.claim(id, op.stream_limit(arena), || start_us) else {
        // Stale token: the op (or this worker's home) drained while the
        // token circulated, or is blocked.
        return Flow::Continue;
    };
    // Kills land at the claim boundary: the chunk is claimed (so no
    // other worker can reach it through the queue) but not executed —
    // exactly the window where work would be lost without leases. Dist
    // claims carry their epoch token: `AtEpoch` faults key off it, and
    // checkpoints use the epoch boundary as their barrier.
    if hooked && stops_at_claim(shared, id, op_idx, first, epoch) {
        return Flow::Died;
    }
    // The adaptive shared queue this visit's sampled task times feed.
    let feedback = match &pool_op.queue {
        OpQueue::Shared(queue) => {
            // Re-advertise the op before executing so idle workers can
            // steal into its remaining chunks; one push per op visit,
            // not per chunk.
            if queue.has_more() {
                shared.workers[id].0.ready.lock().expect("deque poisoned").push_back(op_idx);
                shared.ctl.parking.notify(false);
            }
            queue.is_adaptive().then_some(queue)
        }
        OpQueue::Dist(_) => None,
    };
    op.stamp_start(start_us);
    let node = &shared.nodes[op.plan.node];
    let inputs = op.inputs(arena);
    let mut chunk = first;
    let mut done = 0usize;
    let mut sampled = 0usize;
    // Per-chunk feedback buffered locally and merged only when the
    // policy lock is free — a blocking lock per chunk stalls the whole
    // claim loop whenever the lock holder is descheduled.
    let mut pending: Vec<(usize, usize, OnlineStats)> = Vec::new();
    let mut prev = t0;
    loop {
        let chunk_t0 = prev;
        let mut chunk_stats = OnlineStats::new();
        // Per-task timing is budgeted *across* chunks, and the budget
        // caps the prefix *within* a chunk too: a large first chunk
        // must not clock every task — two clock reads around a tiny
        // task cost more than the task, and the budget's worth of
        // samples pins µ/σ well enough. Tasks past the prefix are
        // timed in bulk, one clock read per chunk.
        let sample_n = if feedback.is_some() {
            SAMPLE_BUDGET.saturating_sub(sampled).min(chunk.len)
        } else {
            0
        };
        let (mid, end) = (chunk.start + sample_n, chunk.start + chunk.len);
        // SAFETY (both spans): the claim handed queue indices
        // `[start, end)` to this worker exactly once — dist home queues
        // too: migrated runs move queues, never duplicate.
        if sample_n > 0 {
            unsafe {
                op.run_span(kernel, node, &inputs, arena, chunk.start..mid, |_| {
                    let now = Instant::now();
                    chunk_stats.observe(now.duration_since(prev).as_secs_f64() * 1e6);
                    prev = now;
                });
            }
        }
        sampled += sample_n;
        let rest = chunk.len - sample_n;
        if rest > 0 {
            unsafe { op.run_span(kernel, node, &inputs, arena, mid..end, |_| {}) };
            let now = Instant::now();
            let span_us = now.duration_since(prev).as_secs_f64() * 1e6;
            prev = now;
            chunk_stats.observe_n(span_us / rest as f64, rest as u64);
        }
        if op.streams_output() {
            // Commit this chunk's task interval and, when a full b\*
            // batch (or the op's tail) extends the contiguous frontier,
            // publish the watermark. This happens BEFORE the next claim
            // — whose fault hook may kill this worker — so a committed
            // interval is never lost to a lease.
            if let Some(p) = arena.commit_range(op_idx, chunk.start, chunk.len, op.stream_batch) {
                let (mut woke, mut all) = (0usize, false);
                run::published(shared.ops, op_idx, p, |d| {
                    woke += 1;
                    all |= push_token(shared, id, d);
                });
                if woke > 0 {
                    shared.ctl.parking.notify(all || woke > 1);
                }
            }
        }
        if let Some(queue) = feedback {
            pending.push((chunk.start, chunk.len, chunk_stats));
            queue.try_observe_pending(&mut pending);
        }
        me.timing.merge(&chunk_stats);
        me.proc.tasks += chunk.len as u64;
        me.proc.chunks += 1;
        me.proc.busy += prev.duration_since(chunk_t0).as_secs_f64() * 1e6;
        me.log.push(op_idx, chunk);
        done += chunk.len;
        let now_us = || us_since(shared.epoch, prev);
        let Some((next, next_epoch)) = pool_op.claim(id, op.stream_limit(arena), now_us) else {
            // Drained, or the streamable prefix is exhausted while the
            // producer is still running. (`outstanding` cannot reach
            // zero on a blocked visit: blocked means unclaimed — hence
            // unfinished — tasks remain.)
            break;
        };
        if hooked && stops_at_claim(shared, id, op_idx, next, next_epoch) {
            // Dying mid-loop: the batch executed so far still counts.
            leave_op(shared, id, op_idx, done, prev, &mut me.proc);
            return Flow::Died;
        }
        // Epoch boundary: the allocator's iterative re-equalization
        // point. The TAPER stats are a full epoch warmer, so re-score
        // the concurrent ops and offer this worker to the laggard (a
        // no-op when this op *is* the laggard — its mask bit is already
        // set).
        if next_epoch > epoch {
            epoch = next_epoch;
            reequalize(shared, &[id]);
        }
        chunk = next;
    }
    leave_op(shared, id, op_idx, done, prev, &mut me.proc);
    Flow::Continue
}

/// The serial (non-overlapped) live finishing-time estimate of one
/// unfinished op under its current allocation: remaining tasks ×
/// sampled µ/σ out of the chunk queues (task-count equalization before
/// any samples land), scored by [`finish_estimate_live`] with
/// host-calibrated overheads.
fn base_estimate(shared: &Shared<'_>, op_idx: usize, cal: &HostCalibration) -> Option<f64> {
    let op = &shared.ops[op_idx];
    if !op.state.runnable() {
        return None;
    }
    let (remaining, stats, kind) = match &op.queue {
        OpQueue::Shared(q) => {
            let kind = if q.is_adaptive() { PolicyKind::Taper } else { PolicyKind::Gss };
            (q.remaining(), q.sampled_stats(), kind)
        }
        OpQueue::Dist(q) => (q.remaining(), q.sampled_stats(), PolicyKind::Taper),
    };
    if remaining == 0 {
        return None;
    }
    let spec = OpSpec::from_live(remaining, stats.as_ref(), kind);
    let p = shared.partition.procs(op_idx, shared.workers.len()).max(1);
    Some(finish_estimate_live(&spec, p, cal).total())
}

/// [`base_estimate`], made overlap-aware for streamed consumers: when
/// one of the op's streamed producers is still running, the pair forms
/// a pipeline, and the §4.1.2 equalizer must score the consumer by the
/// pair's *overlapped* stage time (§4.1's [`pipelined_stage_time`]
/// over the measured per-publish α / per-byte β and the producer's b\*)
/// rather than pretend the stages serialize. This is where the
/// allocator and the granularity model compose at runtime: the laggard
/// pick in [`reequalize`] sees a streamed pair as one overlapped unit.
fn live_estimate(shared: &Shared<'_>, op_idx: usize, cal: &HostCalibration) -> Option<f64> {
    let base = base_estimate(shared, op_idx, cal)?;
    let op = &shared.ops[op_idx].state;
    let mut est = base;
    for &p in &op.stream_inputs {
        let producer = &shared.ops[p].state;
        if producer.outstanding.load(Ordering::Acquire) == 0 {
            continue;
        }
        if let Some(pe) = base_estimate(shared, p, cal) {
            est = est.max(pipelined_stage_time(
                pe,
                base,
                op.plan.tasks,
                std::mem::size_of::<f64>() as u64,
                producer.stream_batch,
                cal.publish_alpha_us,
                cal.copy_beta_us,
            ));
        }
    }
    Some(est)
}

/// One §4.1.2 re-equalization step: admit each of `freed` into the
/// partition of the op with the largest live finishing-time estimate
/// (re-evaluated after every admission, so consecutive workers can
/// land on different laggards as the estimates equalize), seed dist
/// home queues, push tokens, and wake sleepers. Returns whether any
/// admission happened. Contended triggers skip — the next epoch
/// boundary or completion re-evaluates from fresher state anyway.
fn reequalize(shared: &Shared<'_>, freed: &[usize]) -> bool {
    let part = &shared.partition;
    if !part.enabled() || freed.is_empty() {
        return false;
    }
    let Ok(_guard) = part.balance.try_lock() else {
        return false;
    };
    let cal = HostCalibration::get();
    let mut progress = false;
    for &w in freed {
        let laggard = (0..shared.ops.len())
            .filter(|&i| !part.allows(i, w))
            .filter_map(|i| live_estimate(shared, i, &cal).map(|e| (e, i)))
            .max_by(|a, b| a.0.total_cmp(&b.0));
        let Some((_, laggard)) = laggard else { continue };
        if !part.admit(laggard, w) {
            continue;
        }
        match &shared.ops[laggard].queue {
            OpQueue::Dist(q) => {
                // Seed the admitted home unconditionally — the
                // equalizer already decided this migration, so the
                // cv gate must not veto it.
                q.admit_worker(w);
                shared.workers[w].0.dist_ready.lock().expect("dist list poisoned").push(laggard);
            }
            OpQueue::Shared(_) => {
                shared.workers[w].0.ready.lock().expect("deque poisoned").push_back(laggard);
            }
        }
        progress = true;
    }
    if progress {
        shared.ctl.parking.notify(true);
    }
    progress
}

/// The pool's `ready(op)`: makes the enabled op `d` visible to the
/// workers that may serve it, taking one lock at a time (token lists
/// and deques never nest, so concurrent completers cannot form a
/// lock-order cycle). A dist op needs every partition member at its own
/// home queue, so all of them are tokened (duplicate tokens are hints —
/// a stale one fails its claim and is dropped) and every sleeper must
/// rise: returns `true`. A shared op's token goes to the front of the
/// caller's own deque when it is a member — the data `d` waited for is
/// hottest in its cache — and to the back of the op's first member
/// otherwise.
fn push_token(shared: &Shared<'_>, id: usize, d: usize) -> bool {
    if shared.ops[d].queue.is_dist() {
        for (w, wk) in shared.workers.iter().enumerate() {
            if shared.partition.allows(d, w) {
                wk.0.dist_ready.lock().expect("dist list poisoned").push(d);
            }
        }
        return true;
    }
    if shared.partition.allows(d, id) {
        shared.workers[id].0.ready.lock().expect("deque poisoned").push_front(d);
    } else {
        let w = shared.partition.members(d, shared.workers.len())[0];
        shared.workers[w].0.ready.lock().expect("deque poisoned").push_back(d);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{FaultPlan, FaultTrigger, ResumeState};
    use crate::run::{set_up, Setup};
    use crate::threaded::topology::CpuTopology;
    use crate::threaded::{build_plan, SpinKernel};
    use orchestra_delirium::{DelirGraph, NodeKind};

    /// Two concurrent ops on two workers: the equalizer gives each op
    /// one worker. The first op's worker dies before claiming
    /// anything, so the survivor's recovery sweep reaches that op's
    /// stranded queue — in plan order *before* completing its own op
    /// could have re-equalized it in — and must join the partition
    /// before it claims: the visit re-advertises the op on the
    /// survivor's own deque, where only members' tokens may sit.
    #[test]
    fn survivor_joins_a_stranded_partition_before_claiming() {
        for dist in [false, true] {
            let mut g = DelirGraph::new();
            for name in ["stranded", "own"] {
                let kind = NodeKind::DataParallel { tasks: 64, mean_cost: 1.0, cv: 0.0 };
                g.add_node(name, kind, None);
            }
            let opts = ExecutorOptions {
                policy: PolicyKind::SelfSched,
                threads: 2,
                faults: Some(FaultPlan::kill(0, FaultTrigger::AfterClaims(1))),
                ..ExecutorOptions::default()
            };
            let plan = build_plan(&g, &opts).expect("valid graph");
            let kernel = SpinKernel::with_scale(1.0);
            let Setup { arena, ops, .. } =
                set_up(&plan, &g.nodes, &opts, kernel.access(), 2, &ResumeState::empty());
            let ops: Vec<PoolOp> = ops
                .into_iter()
                .map(|state| {
                    let queue = if dist {
                        let members: Vec<usize> = state.share.clone().collect();
                        OpQueue::Dist(DistQueue::with_partition(64, 2, vec![0; 2], &members))
                    } else {
                        OpQueue::Shared(state.chunk_queue(opts.policy))
                    };
                    PoolOp { queue, queue_costs: None, state }
                })
                .collect();
            assert_eq!((ops[0].state.share.clone(), ops[1].state.share.clone()), (0..1, 1..2));
            let topo = WorkerTopo::new(&CpuTopology::synthetic(1, 2, 1), 2);
            let ctl = RunCtl::new(&opts, &plan, 2);
            let shared = Shared::new(&ops, &g.nodes, &arena, &topo, false, &ctl);
            assert!(!shared.partition.allows(0, 1), "dist={dist}: the level was not split");
            assert!(ctl.faults.as_ref().expect("plan set").try_die(0, KillMode::Lease));

            let mut me = WorkerRecord {
                proc: ProcStats::default(),
                timing: OnlineStats::new(),
                steal: StealStats::new(),
                pinned: false,
                log: ExecLog::default(),
            };
            assert!(matches!(recover(&shared, 1, &kernel, &mut me), Recover::Progress));
            assert!(shared.partition.allows(0, 1), "dist={dist}: claimed without joining");
            // `find_token` debug-asserts the same of every token in the
            // survivor's own deque.
            while let Some(t) = find_token(&shared, 1, &mut me.steal) {
                assert!(shared.partition.allows(t, 1), "dist={dist}: non-member token {t}");
            }
            assert!(shared.all_done(), "dist={dist}: recovery left work behind");
            assert_eq!(me.proc.tasks, 128, "dist={dist}");
        }
    }

    /// Holds task 0 until released, and says when it has it.
    #[derive(Default)]
    struct HoldsTaskZero {
        holding: std::sync::atomic::AtomicBool,
        release: std::sync::atomic::AtomicBool,
    }

    impl TaskKernel for HoldsTaskZero {
        fn run_task(&self, ctx: &crate::threaded::TaskCtx<'_>) -> f64 {
            if ctx.task == 0 {
                self.holding.store(true, Ordering::SeqCst);
                while !self.release.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
            SpinKernel::with_scale(1.0).run_task(ctx)
        }
    }

    /// A cancel fired while one worker is parked and the other runs a
    /// chunk. Uniform costs: no dist home migrates, so the parked worker
    /// has drained its own and has no work coming; nothing polls, so
    /// only the worker whose next claim sees the cancel can wake it. The
    /// run ends `Cancelled` with both workers returned; a worker nobody
    /// woke is a failure, not a hang (the test wakes it itself, then
    /// fails).
    #[test]
    fn a_cancel_wakes_the_parked_worker() {
        let mut g = DelirGraph::new();
        g.add_node("F", NodeKind::DataParallel { tasks: 256, mean_cost: 1.0, cv: 0.0 }, None);
        let token = crate::cancel::CancelToken::new();
        let opts = ExecutorOptions {
            threads: 2,
            cancel: Some(token.clone()),
            ..ExecutorOptions::default()
        };
        let plan = build_plan(&g, &opts).expect("valid graph");
        let kernel = HoldsTaskZero::default();
        let Setup { arena, ops, .. } =
            set_up(&plan, &g.nodes, &opts, kernel.access(), 2, &ResumeState::empty());
        let ops: Vec<PoolOp> = ops
            .into_iter()
            .map(|state| {
                let queue = OpQueue::Dist(DistQueue::with_nodes(state.pending(), 2, vec![0; 2]));
                PoolOp { queue, queue_costs: None, state }
            })
            .collect();
        let topo = WorkerTopo::new(&CpuTopology::synthetic(1, 2, 1), 2);
        let ctl = RunCtl::new(&opts, &plan, 2);
        let records = std::thread::scope(|s| {
            let run = s.spawn(|| run_pool(&ops, &g.nodes, &arena, &topo, &opts, &kernel, &ctl));
            let t0 = Instant::now();
            let watchdog = |what: &str| {
                if t0.elapsed() > std::time::Duration::from_secs(60) {
                    ctl.parking.broadcast();
                    panic!("{what}");
                }
                std::thread::yield_now();
            };
            while !(kernel.holding.load(Ordering::SeqCst) && ctl.parking.sleepers() == 1) {
                watchdog("never one worker holding task 0 and the other parked");
            }
            token.cancel();
            kernel.release.store(true, Ordering::SeqCst);
            while !run.is_finished() {
                watchdog("the parked worker was never woken");
            }
            run.join().expect("no worker panicked")
        });
        assert_eq!(records.len(), 2, "both workers returned");
        assert_eq!(ctl.cancel_error(), Some(crate::cancel::RunError::Cancelled));
    }
}
