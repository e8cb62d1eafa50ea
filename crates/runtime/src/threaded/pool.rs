//! The worker pool: N OS threads executing a dependency-counted DAG of
//! parallel operations, each operation scheduled through a shared
//! [`ChunkQueue`] or, under distributed
//! TAPER, through per-worker home queues
//! (`DistQueue`).
//!
//! The scheduling hot path is built to stay off the data path:
//!
//! * **Per-worker ready deques** — each worker owns a deque of *op
//!   tokens* (indices of operations with unclaimed chunks). A worker
//!   pops from its own front and, when empty, steals one token from
//!   the back of the next worker round a ring. Tokens are hints:
//!   exactly-once execution is guaranteed by the chunk queue's claim
//!   path, so a stale token (op already drained) just fails its claim
//!   and is dropped.
//! * **One claim loop** — every claim, from either kind of queue, is a
//!   contiguous [`Chunk`]. After claiming its first chunk from an op a
//!   worker loops claim→execute directly against the queue until the
//!   op is drained or blocked at a watermark: no deque traffic per
//!   chunk. A shared op is re-advertised once per visit (one token
//!   push + at most one targeted wakeup).
//! * **Targeted wakeups** — idle workers park on the run's one
//!   `Parking`: a token push wakes one
//!   sleeper only when one is registered, so the all-busy steady state
//!   does zero wake syscalls; completion of the last op and a stop
//!   broadcast once.
//! * **Batched sampling** — workers time only a bounded prefix of
//!   tasks per op visit (48, chained clock reads so N samples cost
//!   N+1 `Instant::now` calls), bulk-time the rest one read per
//!   chunk, accumulate µ/σ into a stack-local [`OnlineStats`], and
//!   merge buffered per-chunk feedback into the chunk policy only
//!   when its lock is free
//!   (`ChunkQueue::try_observe_pending`) — the claim loop never
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
//!   `DistQueue` re-assigns work only into
//!   the claiming worker's own queue, so an abandoned home can never
//!   refill behind its owner's back.

use super::affinity::{pin_current_thread, Affinity};
use super::crew::run_on_threads;
use super::dist::DistQueue;
use super::queue::{BoundedClaim, Chunk, ChunkQueue};
use super::TaskKernel;
use crate::alloc::OutputArena;
use crate::checkpoint::RunCtl;
use crate::chunking::PolicyKind;
use crate::executor::ExecutorOptions;
use crate::finish::{finish_estimate_live, HostCalibration, OpSpec};
use crate::granularity::pipelined_stage_time;
use crate::run::{self, snapshot_ops, ExecLog, OpInputs, OpState};
use crate::stats::OnlineStats;
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
/// then restrict token routing and steals to each op's partition.
/// Masks only ever *widen* — re-equalization admits a fast
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
pub(crate) struct WorkerRecord {
    /// Busy time / task count / chunk count, as the simulator records
    /// them per processor.
    pub proc: ProcStats,
    /// Tokens this worker stole from another's deque.
    pub steals: u64,
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
    /// The zero-copy output buffers every op writes into and reads its
    /// inputs from, indexed by op.
    arena: &'a OutputArena,
    /// Every op's input slices, resolved at its first visit.
    inputs: OpInputs<'a>,
    /// Fault-injection and checkpoint control (inert on normal runs).
    ctl: &'a RunCtl,
    /// The §4.1.2 worker partition (all-ones when allocation is off).
    partition: Partition,
    /// The run's chunk policy, which the live estimate of a shared
    /// queue's op predicts scheduling events for.
    policy: PolicyKind,
    /// One padded deque per worker.
    workers: Vec<CachePadded<WorkerState>>,
    completed: AtomicUsize,
    epoch: Instant,
}

impl<'a> Shared<'a> {
    /// The pool state for one run on `workers` workers: the partition
    /// the ops' shares describe, and the initially ready ops' tokens
    /// scattered over the deques. Ops a restored snapshot already
    /// finished count as completed from the start.
    fn new(
        ops: &'a [PoolOp<'a>],
        nodes: &'a [Node],
        arena: &'a OutputArena,
        workers: usize,
        ctl: &'a RunCtl,
        policy: PolicyKind,
    ) -> Self {
        let partition = Partition::from_shares(ops, workers);
        let mut deques: Vec<CachePadded<WorkerState>> = (0..workers)
            .map(|_| {
                CachePadded(WorkerState {
                    ready: Mutex::new(VecDeque::with_capacity(READY_TOKENS)),
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
            inputs: OpInputs::new(arena, ops.len()),
            ctl,
            partition,
            policy,
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

/// Executes the op DAG on `workers` threads — the threads of
/// `opts.crew` when one is lent, scoped threads of this call's own
/// otherwise. Under `opts.pin_workers` worker `w` pins itself to the
/// `w mod n`-th of the `n` CPUs the calling thread may run on, so the
/// pool stays inside its caller's mask. `ctl` carries the fault plan
/// and checkpoint state (inert on normal runs). Ops a restored
/// snapshot already finished count as completed from the start; ops
/// with no live dependency start ready.
pub(crate) fn run_pool(
    ops: &[PoolOp],
    nodes: &[Node],
    arena: &OutputArena,
    workers: usize,
    opts: &ExecutorOptions,
    kernel: &(dyn TaskKernel + Sync),
    ctl: &RunCtl,
) -> Vec<WorkerRecord> {
    // Empty when pinning is off or the caller's mask cannot be read.
    let cpus = match opts.pin_workers.then(Affinity::current).flatten() {
        Some(mask) => mask.cpus(),
        None => Vec::new(),
    };
    let pin = !cpus.is_empty();
    let crew = opts.crew.as_ref();
    let shared = Shared::new(ops, nodes, arena, workers, ctl, opts.policy);
    run_on_threads(crew, workers, |id| {
        let _entered =
            RestoreAffinity(if pin && crew.is_some() { Affinity::current() } else { None });
        // Best-effort: a refused pin leaves the worker floating and the
        // run proceeds unaffected.
        let pinned = pin && pin_current_thread(cpus[id % cpus.len()]);
        ctl.guard(|| worker_loop(&shared, id, kernel, pinned))
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
/// drain those home queues), then own deque front, then one token from
/// the back of each other worker's deque in ring order — `id + 1`,
/// `id + 2`, … (mod the pool size) — counting a success in `steals`.
fn find_token(shared: &Shared<'_>, id: usize, steals: &mut u64) -> Option<usize> {
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
    let n = shared.workers.len();
    for victim in (1..n).map(|k| (id + k) % n) {
        let mut deque = shared.workers[victim].0.ready.lock().expect("deque poisoned");
        // Steals are restricted to the thief's partitions: a token for
        // an op this worker may not serve stays put.
        if let Some(t) = pop_allowed_back(&mut deque, &shared.partition, id) {
            *steals += 1;
            return Some(t);
        }
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

fn worker_loop(
    shared: &Shared<'_>,
    id: usize,
    kernel: &(dyn TaskKernel + Sync),
    pinned: bool,
) -> WorkerRecord {
    let mut me = WorkerRecord {
        proc: ProcStats::default(),
        steals: 0,
        pinned,
        log: ExecLog::with_capacity(LOG_SPANS),
    };
    // The worker's one feedback buffer, reused by every op visit: its
    // capacity bounds it (see `ChunkQueue::try_observe_pending`), so a
    // run allocates it once per worker however the workers race.
    let mut pending = Vec::with_capacity(PENDING_FEEDBACK);
    let ctl = shared.ctl;
    let hooked = ctl.hooked();
    loop {
        if ctl.stopping() {
            ctl.parking.broadcast();
            break;
        }
        let steals0 = me.steals;
        let Some(op_idx) = find_token(shared, id, &mut me.steals) else {
            if shared.all_done() {
                break;
            }
            // A drained partition frees this worker: offer it to the
            // laggard op before sleeping on it.
            if reequalize(shared, &[id]) {
                continue;
            }
            let done = || shared.all_done() || ctl.stopping();
            ctl.parking.park(|| visible_work(shared, id), done);
            continue;
        };
        // An `OnSteal` kill fires the instant the theft lands, before
        // the stolen token is honoured: the run crashes, and the loop's
        // stop check sends this worker out.
        if hooked && me.steals > steals0 && ctl.faults.as_ref().is_some_and(|f| f.on_steal(id)) {
            continue;
        }
        // A claim that stops the run returns here too; the stop check
        // above then sends this worker out.
        run_op(shared, id, op_idx, kernel, &mut me, &mut pending);
    }
    me
}

/// What a parking worker rescans after registering (see
/// [`Parking::park`](crate::parking::Parking::park)): its private dist
/// tokens, and any token its partitions allow — another partition's
/// backlog must not busy-wake it.
fn visible_work(shared: &Shared<'_>, id: usize) -> bool {
    !shared.workers[id].0.dist_ready.lock().expect("dist list poisoned").is_empty()
        || shared.workers.iter().any(|w| {
            w.0.ready
                .lock()
                .expect("deque poisoned")
                .iter()
                .any(|&t| shared.partition.allows(t, id))
        })
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

/// Chunks of feedback a worker buffers while the policy lock is taken;
/// a full buffer waits for the lock instead of growing.
const PENDING_FEEDBACK: usize = 4;

/// What a worker's deque and chunk log start with room for, so that
/// on a small graph neither grows, nor allocates at all only if the
/// worker happens to win a claim: a small run's allocations then do not
/// depend on how its workers race.
const READY_TOKENS: usize = 4;
const LOG_SPANS: usize = 4;

/// Claims and executes chunks of one op until this worker can get no
/// more from it (or a claim stops the run): the queue — for a dist op,
/// this worker's home queue plus anything the coordinator migrates into
/// it — is drained, or blocked at a streamed producer's watermark. Either way the token is dropped: a publication
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
    pending: &mut Vec<(usize, usize, OnlineStats)>,
) {
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
        return;
    };
    // Dist claims carry their epoch token: `AtEpoch` faults key off it,
    // and checkpoints use the epoch boundary as their barrier.
    let snapshot = || snapshot_ops(shared.ops, arena);
    if hooked && shared.ctl.after_claim(id, epoch, snapshot) {
        return;
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
    let inputs = shared.inputs.of(op);
    let mut chunk = first;
    let mut done = 0usize;
    let mut sampled = 0usize;
    // Per-chunk feedback is buffered in the worker's `pending` and
    // merged only when the policy lock is free — a blocking lock per
    // chunk stalls the whole claim loop whenever the lock holder is
    // descheduled. What a visit could not merge is dropped with it.
    pending.clear();
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
                op.run_span(kernel, node, inputs, arena, chunk.start..mid, |_| {
                    let now = Instant::now();
                    chunk_stats.observe(now.duration_since(prev).as_secs_f64() * 1e6);
                    prev = now;
                });
            }
        }
        sampled += sample_n;
        let rest = chunk.len - sample_n;
        if rest > 0 {
            unsafe { op.run_span(kernel, node, inputs, arena, mid..end, |_| {}) };
            let now = Instant::now();
            let span_us = now.duration_since(prev).as_secs_f64() * 1e6;
            prev = now;
            chunk_stats.observe_n(span_us / rest as f64, rest as u64);
        }
        if op.streams_output() {
            // Commit this chunk's task interval and, when a full b\*
            // batch (or the op's tail) extends the contiguous frontier,
            // publish the watermark. This happens BEFORE the next claim,
            // whose hook may stop the run.
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
            queue.try_observe_pending(pending);
        }
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
        if hooked && shared.ctl.after_claim(id, next_epoch, snapshot) {
            // Stopping mid-loop: the batch executed so far still counts.
            break;
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
        OpQueue::Shared(q) => (q.remaining(), q.sampled_stats(), shared.policy),
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
    use crate::checkpoint::ResumeState;
    use crate::run::{set_up, Setup};
    use crate::threaded::{build_plan, SpinKernel};
    use orchestra_delirium::{DelirGraph, NodeKind};

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
                let queue = OpQueue::Dist(DistQueue::new(state.pending(), 2, &[0, 1]));
                PoolOp { queue, queue_costs: None, state }
            })
            .collect();
        let ctl = RunCtl::new(&opts, &plan, 2);
        let records = std::thread::scope(|s| {
            let run = s.spawn(|| run_pool(&ops, &g.nodes, &arena, 2, &opts, &kernel, &ctl));
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
