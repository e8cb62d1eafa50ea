//! The run core shared by the real backends.
//!
//! The paper's §4 runtime is *one* mechanism — TAPER chunks, the
//! §4.1.2 finishing-time equalizer and the §4.1 batch size applied to
//! every parallel operation of the graph — so everything the threaded,
//! distributed-TAPER and async drivers have in common lives here, once:
//!
//! * `set_up` — from an expanded [`Plan`] and a restore image to the
//!   prefilled [`OutputArena`] plus one `OpState` per op: which ops
//!   the snapshot already finished, which are remapped onto their
//!   pending tasks, which edges stream through watermarks, each op's
//!   equalizer share of the pool and its publication batch b\*. A fresh
//!   run is a resume from the empty image.
//! * `OpState` — the per-op state every driver schedules against,
//!   with the one task loop (`OpState::run_span`: kernel → store, then
//!   the checkpoint scanner's `done` flags) all claim loops call, one
//!   claimed chunk at a time.
//! * The readiness protocol — *what* becomes ready or stops, in three
//!   functions every engine calls: `completed` (an op's last task
//!   ran), `published` (a streamed producer's watermark moved) and
//!   `RunCtl::after_claim` (a chunk was claimed; a cancellation or a
//!   planned kill stops the run there). The live dependency counter
//!   they count down is `OpState::deps`; an engine supplies only *how*
//!   its servers are made to look again — a `ready(op)` closure.
//! * `ExecLog` — what one worker or driver ran, kept privately while it
//!   runs and handed to the [`RunReport`], which folds the logs into
//!   [`RunReport::exec_counts`] only when asked: the exactly-once oracle
//!   costs at most one entry per chunk and nothing per task.
//! * Parking and stopping — one `Parking` in `RunCtl` for both engines'
//!   idle servers, and `RunCtl::guard`, their threads' unwind boundary.
//! * [`RunReport`] / [`OpRecord`] — the one result shape of every
//!   engine, the sequential reference and the resumable driver included.
//!
//! What stays with a driver is only what is genuinely its own: worker
//! masks, claim queues and tokens in `threaded::pool`; claimer futures
//! and one wake list per op in [`asynch`](crate::asynch).

use crate::alloc::{allocate_many, OutputArena, Publication};
use crate::cancel::RunError;
use crate::checkpoint::{op_snapshot, OpSnapshot, ResumeState, RunCtl};
use crate::chunking::PolicyKind;
use crate::executor::{costs_of_node, ExecutorOptions};
use crate::finish::{finish_estimate_live, HostCalibration, OpSpec};
use crate::stats::OnlineStats;
use crate::threaded::queue::{Chunk, ChunkQueue};
use crate::threaded::{AccessPattern, Plan, PlannedOp, TaskCtx, TaskKernel};
use orchestra_delirium::Node;
use orchestra_machine::{ProcStats, RunStats};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// One schedulable operation instance — a graph node at one pipeline
/// iteration — as every real driver sees it.
pub(crate) struct OpState<'p> {
    /// Plan index: this op's buffer in the arena.
    pub idx: usize,
    /// The planned op: name, node, iteration, task count, and the
    /// dependencies whose output slices are the kernel's inputs.
    pub plan: &'p PlannedOp,
    /// Per-task simulated cost hints (µs), sampled exactly as the
    /// simulator samples them.
    pub costs: Vec<f64>,
    /// Dependencies that have not arrived yet, counted down by
    /// `completed` and `published`; the op is enabled at 0. Starts
    /// at the dependencies the snapshot did not already finish.
    pub deps: AtomicUsize,
    /// Whole-op-gated consumers, notified when this op completes.
    pub dependents: Vec<usize>,
    /// The dependencies consumed *streamed*: claims are bounded by the
    /// minimum of these producers' committed-prefix watermarks instead
    /// of waiting for whole-op completion.
    pub stream_inputs: Vec<usize>,
    /// Streamed consumers of this op's output (disjoint from
    /// `dependents`): their dependency arrival for this edge is this
    /// op's *first* watermark publication.
    pub stream_dependents: Vec<usize>,
    /// Watermark publication batch b\* (producer tasks coalesced per
    /// publication) — the task count for unstreamed producers.
    pub stream_batch: usize,
    /// The workers the §4.1.2 equalizer allotted this op — a contiguous
    /// range of the pool, all of it when the op had its level to itself
    /// or allocation was off. Concurrent ops' shares are disjoint and
    /// cover the pool.
    pub share: Range<usize>,
    /// The snapshot's cost-hint µ/σ over this op's restored tasks, for
    /// warm-starting its adaptive chunk policy.
    pub warm: Option<OnlineStats>,
    /// Tasks not yet executed; the op is complete at 0.
    pub outstanding: AtomicUsize,
    /// Per-task completion flags for the snapshot scanner, their only
    /// reader — `None` unless the run checkpoints. Set with `Release`
    /// after the span's output stores, read with `Acquire`. (How often
    /// a task ran is not kept here — that is the [`ExecLog`]s'.)
    pub done: Option<Vec<AtomicBool>>,
    /// First-claim time, µs since run start (f64 bits; MAX = never).
    pub started_bits: AtomicU64,
    /// Completion time, µs since run start (f64 bits; MAX = never).
    pub finished_bits: AtomicU64,
    /// Per-task restored-from-snapshot flags — `None` for an op the
    /// snapshot holds nothing of: restored tasks have their outputs
    /// prefilled and are excluded from the queue's index space.
    pub restored: Option<Vec<bool>>,
    /// Queue-index → task-index translation for ops with restored
    /// tasks (`None` = identity): the queue schedules only the pending
    /// tasks, packed.
    pub remap: Option<Vec<usize>>,
}

impl OpState<'_> {
    /// Tasks left to schedule: the size of the queue's index space.
    pub(crate) fn pending(&self) -> usize {
        self.remap.as_ref().map_or(self.plan.tasks, Vec::len)
    }

    /// Whether the snapshot finished this op whole: it is never
    /// scheduled and counts as completed from the start.
    pub(crate) fn pre_done(&self) -> bool {
        self.plan.tasks > 0 && self.pending() == 0
    }

    /// Whether every dependency has arrived: whole-op producers at
    /// completion, streamed ones at their first publication.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.deps.load(Ordering::Acquire) == 0
    }

    /// Enabled and unfinished: the only ops a server may claim from
    /// without having been told to look.
    #[inline]
    pub(crate) fn runnable(&self) -> bool {
        self.enabled() && self.outstanding.load(Ordering::Acquire) != 0
    }

    /// One dependency arrived — the only decrement of the counter.
    /// `true` for the arrival that enables the op, which happens once.
    fn arrive(&self) -> bool {
        self.deps.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Accounts `done` executed tasks in one batched decrement. `true`
    /// means this batch finished the op: the caller completes it — the
    /// decrement reaches zero for exactly one caller. An empty batch
    /// never completes anything (`fetch_sub(0) == 0` would re-complete
    /// a finished op).
    #[inline]
    pub(crate) fn account(&self, done: usize) -> bool {
        done > 0 && self.outstanding.fetch_sub(done, Ordering::AcqRel) == done
    }

    /// How far this op's claims may advance right now: the minimum of
    /// its streamed producers' committed-prefix watermarks (`Acquire`
    /// loads, re-read fresh at every claim), or unbounded when nothing
    /// is streamed. Streamed consumers are never remapped, so the
    /// queue's index space IS task space and the bound applies directly.
    #[inline]
    pub(crate) fn stream_limit(&self, arena: &OutputArena) -> usize {
        self.stream_inputs.iter().map(|&p| arena.watermark(p)).min().unwrap_or(usize::MAX)
    }

    /// Whether this op publishes progress watermarks as a producer.
    /// (Streamed producers are never remapped — classification excludes
    /// ops with restored tasks — so chunk spans are contiguous task
    /// intervals.)
    #[inline]
    pub(crate) fn streams_output(&self) -> bool {
        !self.stream_dependents.is_empty() && self.remap.is_none()
    }

    /// Records a first-claim time. `started_bits` is shared and hot:
    /// the RMW is skipped unless this visit actually is the earliest.
    #[inline]
    pub(crate) fn stamp_start(&self, t_us: f64) {
        let bits = t_us.to_bits();
        if self.started_bits.load(Ordering::Relaxed) > bits {
            self.started_bits.fetch_min(bits, Ordering::AcqRel);
        }
    }

    /// The upstream output slices handed to this op's kernel as
    /// [`TaskCtx::inputs`] — zero-copy references into the arena, in
    /// the plan's dependency order.
    ///
    /// Whole-op-gated inputs are finished: the op only runs after every
    /// such producer's completion was observed with `Acquire` ordering
    /// (the dependency counter), which happens-after every upstream
    /// write.
    ///
    /// *Streamed* inputs may still be running. The slice then spans
    /// cells the producer has not written yet, and soundness rests on
    /// the watermark protocol: (1) every claim of this op is bounded by
    /// the producers' committed-prefix watermarks, whose `Release`
    /// publication happens-after the covered cells' stores and pairs
    /// with the claim's `Acquire` load; (2) the kernel's declared
    /// [`AccessPattern::ElementWise`] contract means task `t`
    /// dereferences only cells `≤ t <` watermark — cells at or above
    /// the watermark are *in* the slice but never read through it;
    /// (3) producers write their cells through raw stores (never a
    /// `&mut` view, see [`Self::run_span`]), so no exclusive reference
    /// ever overlaps this shared slice.
    pub(crate) fn inputs<'a>(&self, arena: &'a OutputArena) -> Vec<&'a [f64]> {
        // SAFETY: see above — whole-op inputs are quiescent; streamed
        // inputs are only read below their watermark.
        self.plan.deps.iter().map(|&d| unsafe { arena.op_slice(d) }).collect()
    }

    /// The task loop of every claim loop: runs the tasks at queue
    /// indices `span`, storing each
    /// value into its arena cell and calling `each(task)` after every
    /// one (the pool's per-task clock sampling; `|_| {}` elsewhere).
    /// `node` is this op's graph node and `inputs` its
    /// [`inputs`](Self::inputs), both resolved by the caller once per
    /// visit.
    ///
    /// For unremapped ops the queue span IS the task span: the values go
    /// through one raw window of the arena, bounds-checked once, and the
    /// cost hints are the matching sub-slice. Remapped ops scatter, one
    /// checked cell at a time. Either way a store never forms a `&mut`,
    /// so it is sound while a streamed consumer holds a shared slice over
    /// this op's buffer (see [`inputs`](Self::inputs)).
    ///
    /// When the run checkpoints, the span's `done` flags are set once
    /// its stores are made: each `Release` pairs with the snapshot
    /// scanner's `Acquire`, so a task seen done has its output visible.
    /// Nothing here counts executions — the caller logs the chunk in its
    /// [`ExecLog`] once the span has run.
    ///
    /// # Safety
    ///
    /// The caller must be the exactly-once claimant of every queue index
    /// of `span` — a claimed chunk or part of one — so no other thread
    /// writes these cells, and `inputs` must have been taken after the
    /// op became ready (only then are the slices sound to read).
    #[inline]
    pub(crate) unsafe fn run_span(
        &self,
        kernel: &(dyn TaskKernel + Sync),
        node: &Node,
        inputs: &[&[f64]],
        arena: &OutputArena,
        span: Range<usize>,
        mut each: impl FnMut(usize),
    ) {
        let iter = self.plan.iter;
        match &self.remap {
            None => {
                let out = arena.cells(self.idx, span.clone());
                for (k, &cost_hint) in self.costs[span.clone()].iter().enumerate() {
                    let task = span.start + k;
                    let ctx = TaskCtx { node, iter, task, cost_hint, inputs };
                    // SAFETY: `k < span.len()`, the window `cells` checked;
                    // the caller is the cell's only writer.
                    unsafe { out.add(k).write(kernel.run_task(&ctx)) };
                    each(task);
                }
            }
            Some(remap) => {
                for &task in &remap[span.clone()] {
                    let ctx = TaskCtx { node, iter, task, cost_hint: self.costs[task], inputs };
                    let out = arena.cells(self.idx, task..task + 1);
                    // SAFETY: a one-cell window `cells` checked; the
                    // caller is the cell's only writer.
                    unsafe { out.write(kernel.run_task(&ctx)) };
                    each(task);
                }
            }
        }
        if let Some(done) = &self.done {
            let flag = |t: usize| done[t].store(true, Ordering::Release);
            match &self.remap {
                None => span.for_each(flag),
                Some(remap) => remap[span].iter().copied().for_each(flag),
            }
        }
    }

    /// The shared claim queue over this op's pending tasks: chunk
    /// schedules are sized for the op's equalizer share, not the whole
    /// pool, and the policy warm-starts from the snapshot's µ/σ — before
    /// the queue publishes its first decision — so a resumed run sizes
    /// chunks as if it had kept sampling. (`Static` has no dynamic
    /// queue on real threads; it instantiates as GSS.)
    pub(crate) fn chunk_queue(&self, policy: PolicyKind) -> ChunkQueue {
        let pending = self.pending();
        let mut policy = policy.instantiate(pending);
        if let Some(stats) = &self.warm {
            policy.observe_chunk(0, 0, stats);
        }
        ChunkQueue::new(policy, pending, self.share.len())
    }

    /// This op's report row; drivers add the counters of their own
    /// queues. Must run before the arena is consumed.
    pub(crate) fn record(&self, arena: &OutputArena, chunks: u64) -> OpRecord {
        OpRecord {
            name: self.plan.name.clone(),
            start_us: f64::from_bits(self.started_bits.load(Ordering::Acquire)),
            finish_us: f64::from_bits(self.finished_bits.load(Ordering::Acquire)),
            tasks: self.plan.tasks,
            chunks,
            procs: self.share.len(),
            streamed_inputs: self.stream_inputs.len(),
            watermark_pubs: arena.watermark_pubs(self.idx),
            ..OpRecord::default()
        }
    }
}

/// What one worker (or async driver) ran, chunk by chunk. Private to
/// its owner while the run is live and handed back with the owner's
/// record — also when the run stops at a claim boundary — so no update
/// can be lost; the [`RunReport`] keeps the logs once everyone has
/// joined and [`RunReport::exec_counts`] folds them.
/// A chunk is logged *after* its tasks ran: a chunk claimed when the
/// run stopped is never logged. Chunks are in the op's queue-index
/// space — what a claim hands out; the op's `remap` translates to
/// tasks, in [`OpState::run_span`] and in the fold. A chunk that
/// continues the owner's last logged span of the same op extends it, so
/// an entry is a run of adjacent chunks: the fold counts the same
/// tasks, and a task claimed twice never extends a span it is in.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExecLog {
    spans: Vec<(usize, Chunk)>,
    chunks: u64,
}

impl ExecLog {
    /// Records that the owner ran all of `chunk` of op `op`.
    #[inline]
    pub(crate) fn push(&mut self, op: usize, chunk: Chunk) {
        self.chunks += 1;
        match self.spans.last_mut() {
            Some((last, span)) if *last == op && span.start + span.len == chunk.start => {
                span.len += chunk.len;
            }
            _ => self.spans.push((op, chunk)),
        }
    }

    /// Chunks run, and the tasks in them.
    pub(crate) fn totals(&self) -> (u64, u64) {
        (self.chunks, self.spans.iter().map(|(_, c)| c.len as u64).sum())
    }
}

/// One op's task space as a finished run's report keeps it: its task
/// count and, for an op resumed from a snapshot, the queue-index → task
/// translation its chunks were claimed through.
#[derive(Debug, Clone)]
pub(crate) struct TaskSpace {
    tasks: usize,
    remap: Option<Vec<usize>>,
}

/// A producer published: reacts to one watermark publication of op
/// `producer`, calling `ready(d)` for every streamed dependent `d` the
/// publication gives something to claim.
///
/// The *first* publication is the producer's dependency arrival on each
/// streamed edge (exactly once — the arena's frontier mutex serializes
/// publications, so `is_first()` holds for one of them only). Every
/// non-empty publication, first or later, readies the dependents that
/// are enabled and unfinished: a server that found such an op blocked
/// at the watermark stopped looking at it, and this is what brings one
/// back onto the newly streamable prefix.
///
/// No wakeup is lost, whatever the engine's `ready` is, as long as a
/// server stops looking only *after* re-reading the watermark behind
/// whatever `ready` synchronizes on (the pool's token survives in a
/// deque for the parking scan; an async claimer registers its waker
/// under the wake list's lock and then re-checks): the publisher's
/// `Release` watermark store precedes its `ready` call.
pub(crate) fn published<'p, O: AsRef<OpState<'p>>>(
    ops: &[O],
    producer: usize,
    publication: Publication,
    mut ready: impl FnMut(usize),
) {
    if publication.current <= publication.previous {
        return;
    }
    for &d in &ops[producer].as_ref().stream_dependents {
        let dep = ops[d].as_ref();
        let enabled = if publication.is_first() { dep.arrive() } else { dep.enabled() };
        if enabled && dep.outstanding.load(Ordering::Acquire) != 0 {
            ready(d);
        }
    }
}

/// An op completed: runs exactly once per op, by whoever's
/// [`account`](OpState::account) reached zero. Stamps the finish,
/// arrives at every whole-op dependent and calls `ready(d)` for those
/// this was the last arrival of.
///
/// A streamed producer first drives its watermark to the full op and
/// runs the publication protocol once more — for an op whose tasks
/// never commit a range (an empty one) and for any sub-batch tail.
/// Idempotent: when the last commit already published the total, the
/// publication is empty and readies nobody.
pub(crate) fn completed<'p, O: AsRef<OpState<'p>>>(
    ops: &[O],
    arena: &OutputArena,
    op_idx: usize,
    t_end: f64,
    mut ready: impl FnMut(usize),
) {
    let op = ops[op_idx].as_ref();
    op.finished_bits.fetch_min(t_end.to_bits(), Ordering::AcqRel);
    if !op.stream_dependents.is_empty() {
        published(ops, op_idx, arena.publish_all(op_idx), &mut ready);
    }
    for &d in &op.dependents {
        if ops[d].as_ref().arrive() {
            ready(d);
        }
    }
}

/// What [`set_up`] hands a driver.
pub(crate) struct Setup<'p> {
    /// One buffer per op's outputs, restored cells prefilled: workers
    /// store their chunks in place, dependents read slices by
    /// reference, and the buffers are the run's outputs at the end.
    pub arena: OutputArena,
    /// Per-op state, aligned with the plan's op order.
    pub ops: Vec<OpState<'p>>,
}

/// Everything between plan expansion and "spawn the drivers", for a
/// pool of `pool` workers running a kernel with input contract
/// `access`. `resume` is the restore image — empty for a fresh run:
/// restored tasks keep their snapshot outputs and are excluded from the
/// queues' index spaces, and fully restored ops are never scheduled.
pub(crate) fn set_up<'p>(
    plan: &'p Plan,
    nodes: &[Node],
    opts: &ExecutorOptions,
    access: AccessPattern,
    pool: usize,
    resume: &ResumeState,
) -> Setup<'p> {
    let n = plan.ops.len();
    // An op's restore image, when the snapshot holds any of its tasks.
    let images: Vec<Option<&OpSnapshot>> =
        (0..n).map(|i| resume.ops.get(i).filter(|o| o.completed.iter().any(|&c| c))).collect();
    let image = |i: usize| images[i];
    let pending: Vec<usize> = (0..n)
        .map(|i| {
            let restored = image(i).map_or(0, |o| o.completed.iter().filter(|&&c| c).count());
            plan.ops[i].tasks.saturating_sub(restored)
        })
        .collect();
    // Finished whole by the snapshot: excluded from scheduling
    // entirely — no queue entries, no dependency edges.
    let pre_done = |i: usize| plan.ops[i].tasks > 0 && pending[i] == 0;

    // ---- §4.1.2 processor allocation --------------------------------
    // When a graph level holds several concurrent ops and allocation is
    // on, split the pool between them with the finishing-time equalizer
    // (over live specs: task counts, no samples exist yet — so the
    // split is a pure function of the plan) instead of letting every
    // worker thrash every queue. Levels are depths in the expanded
    // instance DAG, so overlapping pipeline iterations that can run
    // concurrently land in the same group. Shares are contiguous worker
    // ranges; a pool past 64 workers is never split (one `u64` mask per
    // op is how the threaded pool represents a share).
    let mut shares: Vec<Range<usize>> = vec![0..pool; n];
    if opts.use_allocation && pool > 1 && pool <= 64 {
        let cal = HostCalibration::get();
        let kind = match opts.policy {
            PolicyKind::Static => PolicyKind::Gss,
            p => p,
        };
        let mut depth = vec![0usize; n];
        let mut by_depth: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, op) in plan.ops.iter().enumerate() {
            depth[i] = op.deps.iter().map(|&d| depth[d] + 1).max().unwrap_or(0);
            if pending[i] > 0 {
                by_depth.entry(depth[i]).or_default().push(i);
            }
        }
        for group in by_depth.values() {
            if group.len() < 2 || pool < group.len() {
                continue;
            }
            let specs: Vec<OpSpec> =
                group.iter().map(|&i| OpSpec::from_live(pending[i], None, kind)).collect();
            let alloc =
                allocate_many(&specs, pool, |s, p| finish_estimate_live(s, p, &cal).total());
            let mut offset = 0usize;
            for (&i, &a) in group.iter().zip(&alloc) {
                shares[i] = offset..offset + a;
                offset += a;
            }
        }
    }

    // ---- §4.1 streamed data plane ----------------------------------
    // An edge d→c is *streamed* when consumer task t provably reads
    // only cells ≤ t of d's output (element-wise kernel on equal task
    // counts): c's tasks may then start as soon as d's committed-prefix
    // watermark covers them, instead of waiting for all of d. Whole-op
    // gating remains for reductions (unequal counts), ops with restored
    // tasks (their queue indices no longer align with task space; a
    // fully restored op is a fortiori one of them), and under the
    // `pipeline_overlap = false` barrier baseline.
    let stream_on = opts.pipeline_overlap && access == AccessPattern::ElementWise;
    let streamed_edge = |d: usize, c: usize| -> bool {
        stream_on
            && image(d).is_none()
            && image(c).is_none()
            && plan.ops[d].tasks == plan.ops[c].tasks
            && plan.ops[d].tasks > 1
    };
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut stream_dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, op) in plan.ops.iter().enumerate() {
        if pre_done(i) {
            continue; // Never scheduled, so never needs enabling.
        }
        for &d in &op.deps {
            if streamed_edge(d, i) {
                stream_dependents[d].push(i);
            } else {
                dependents[d].push(i);
            }
        }
    }

    let mut arena = OutputArena::for_ops(plan.ops.iter().map(|o| o.tasks));
    let mut ops: Vec<OpState<'p>> = Vec::with_capacity(n);
    for (i, op) in plan.ops.iter().enumerate() {
        let costs = costs_of_node(&nodes[op.node], opts.seed);
        let restored: Option<Vec<bool>> = image(i).map(|o| o.completed.clone());
        let remap: Option<Vec<usize>> =
            restored.as_ref().map(|r| (0..op.tasks).filter(|&t| !r[t]).collect());
        // Prefill restored outputs while the arena is still exclusive
        // — workers and the snapshot scanner only ever see them as
        // quiescent completed cells.
        if let (Some(o), Some(r)) = (image(i), &restored) {
            for t in (0..op.tasks).filter(|&t| r[t]) {
                arena.set(i, t, o.outputs[t]);
            }
        }
        let stream_dependents = std::mem::take(&mut stream_dependents[i]);
        // b\*: how many completed producer tasks coalesce per watermark
        // publication, from the host's measured per-publish α and
        // per-byte β (§4.1's batch-granularity model over the arena's
        // 8-byte items) — unless the caller forced a batch.
        let stream_batch = if stream_dependents.is_empty() {
            op.tasks.max(1)
        } else {
            opts.stream_batch
                .unwrap_or_else(|| {
                    HostCalibration::get().stream_batch(op.tasks, std::mem::size_of::<f64>() as u64)
                })
                .clamp(1, op.tasks.max(1))
        };
        let stamp = if pre_done(i) { 0u64 } else { u64::MAX };
        ops.push(OpState {
            idx: i,
            plan: op,
            costs,
            deps: AtomicUsize::new(op.deps.iter().filter(|&&d| !pre_done(d)).count()),
            dependents: std::mem::take(&mut dependents[i]),
            stream_inputs: op.deps.iter().copied().filter(|&d| streamed_edge(d, i)).collect(),
            stream_dependents,
            stream_batch,
            share: shares[i].clone(),
            warm: image(i).map(|o| o.stats).filter(|s| s.count() > 0),
            outstanding: AtomicUsize::new(pending[i]),
            done: opts
                .checkpoint
                .as_ref()
                .map(|_| (0..op.tasks).map(|_| AtomicBool::new(false)).collect()),
            started_bits: AtomicU64::new(stamp),
            finished_bits: AtomicU64::new(stamp),
            restored,
            remap,
        });
    }
    Setup { arena, ops }
}

/// Captures every op's completed-task bitmap, outputs, and cost stats
/// for a checkpoint commit. The snapshot copies arena cells into its
/// own buffers — checkpoints keep owned data, the arena keeps none.
///
/// # Panics
///
/// Panics if the run was set up without a checkpoint spec: only then
/// are there `done` flags to scan.
pub(crate) fn snapshot_ops<'p, O: AsRef<OpState<'p>>>(
    ops: &[O],
    arena: &OutputArena,
) -> Vec<OpSnapshot> {
    ops.iter()
        .map(|op| {
            let op = op.as_ref();
            let done = op.done.as_deref().expect("snapshots are taken by checkpointed runs only");
            // SAFETY: `op_snapshot` reads a cell only after observing
            // the task's `done` flag with `Acquire`, pairing with the
            // writer's post-store `Release` — the cell is quiescent by
            // then.
            let restored = op.restored.as_deref();
            op_snapshot(&op.costs, restored, done, |t| unsafe { arena.read(op.idx, t) })
        })
        .collect()
}

/// Per-op record of a run, aligned with the plan's op order.
#[derive(Debug, Clone, Default)]
pub struct OpRecord {
    /// Instance name (`B_I`, or `A_D@3` for pipeline iteration 3).
    pub name: String,
    /// First chunk claim, µs after run start.
    pub start_us: f64,
    /// Completion, µs after run start.
    pub finish_us: f64,
    /// Task count.
    pub tasks: usize,
    /// Chunks dispatched by the queue.
    pub chunks: u64,
    /// Cooperative yields taken at this op's chunk boundaries (async
    /// backend; one per executed chunk there, 0 elsewhere).
    pub yields: u64,
    /// Chunk re-assignments performed by the dist-TAPER coordinator
    /// (0 for shared-queue ops).
    pub reassignments: u64,
    /// Tasks executed away from their home worker (0 for shared-queue
    /// ops, which have no home placement).
    pub migrated: u64,
    /// Completed global epochs (0 for shared-queue ops).
    pub epochs: usize,
    /// Run-relative times (µs) of each global-epoch increment (empty
    /// for shared-queue ops); monotone non-decreasing.
    pub epoch_times_us: Vec<f64>,
    /// Workers the §4.1.2 equalizer initially allocated to this op —
    /// the whole pool when the op had its level to itself (or
    /// allocation was off), a share of it when concurrent ops split the
    /// pool: its chunk schedule (and, on the async backend, its claimer
    /// count) is sized for this share. Re-equalization can later widen
    /// a threaded partition; this records the allocator's decision, so
    /// concurrent ops' procs sum to the pool size.
    pub procs: usize,
    /// Input edges gated by the producer's progress watermark instead
    /// of whole-op completion — this op's tasks could start while
    /// those producers were still running.
    pub streamed_inputs: usize,
    /// Watermark publications this op performed as a *producer* (0 for
    /// ops with no streamed dependents).
    pub watermark_pubs: u64,
}

/// The result of executing a graph on any real engine: the threaded
/// pool, distributed TAPER, the async executor, the sequential
/// reference, or any of them under
/// [`execute_graph_resumable`](crate::checkpoint::execute_graph_resumable).
/// Counters an engine has no notion of read zero (empty, `1.0` for
/// `locality`).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Measured wall-clock time, µs (summed over all attempts of a
    /// resumable run).
    pub wall_us: f64,
    /// Worker (or async driver) threads used.
    pub workers: usize,
    /// Per-worker busy/tasks/chunks, assembled with
    /// [`RunStats::from_procs`] exactly as the simulator reports runs.
    pub stats: RunStats,
    /// Per-op records, aligned with the plan's op order.
    pub ops: Vec<OpRecord>,
    /// Output buffers, aligned with the plan's op order — bitwise what
    /// the sequential reference produces (kernels are pure).
    pub outputs: Vec<Vec<f64>>,
    /// What every worker (or async driver) of the final attempt ran,
    /// chunk by chunk: the whole of what
    /// [`exec_counts`](Self::exec_counts) is folded from.
    pub(crate) logs: Vec<ExecLog>,
    /// Per op, aligned with the plan: the task space the logs' chunks
    /// index. Empty from the sequential reference, which keeps no logs.
    pub(crate) spaces: Vec<TaskSpace>,
    /// Chunk claims across all ops (scheduling events).
    pub claims: u64,
    /// Cooperative yields across all ops (async: one per executed
    /// chunk, so `claims == yields`).
    pub yields: u64,
    /// Future polls across all async drivers. A poll executes at most
    /// one chunk and every claimer's last poll claims nothing, so this
    /// is at least `claims + spawned`; the excess is dependency-gate
    /// registrations and stale-claimer wakeups.
    pub polls: u64,
    /// Async claimer futures spawned (every op is oversubscribed: more
    /// claimers than drivers).
    pub spawned: usize,
    /// Tasks executed away from their home worker, summed over all
    /// dist-TAPER ops.
    pub migrated_tasks: u64,
    /// Coordinator re-assignments, summed over all dist-TAPER ops.
    pub reassignments: u64,
    /// Fraction of dist-TAPER tasks that ran on their home worker
    /// (1.0 when nothing migrated, and for runs with no dist ops),
    /// matching the simulator's
    /// [`DistResult::locality`](crate::dist_taper::DistResult).
    pub locality: f64,
    /// Successful steals, summed over all workers: one op token each on
    /// the threaded pool, half a victim's run queue each on the async
    /// drivers.
    pub steals: u64,
    /// Streamed (watermark-gated) producer→consumer edges in the plan,
    /// summed over all ops (0 with `pipeline_overlap` off, under a
    /// `WholeInput` kernel, and for ops with restored tasks).
    pub streamed_edges: usize,
    /// Watermark publications performed across all producer ops.
    pub watermark_pubs: u64,
    /// Workers whose CPU pin the kernel accepted (0 when pinning was
    /// off or every pin failed, and on every engine but the threaded
    /// pool).
    pub pinned_workers: usize,
    /// Whether a planned kill crashed the run (the
    /// outputs are then partial; see
    /// [`execute_graph_resumable`](crate::checkpoint::execute_graph_resumable)).
    pub crashed: bool,
    /// Executions launched, including crashed ones (1 on a plain run).
    pub attempts: usize,
    /// Tasks restored from a snapshot instead of executed (0 on a
    /// plain run).
    pub resumed_tasks: usize,
    /// Wall-clock time spent in post-crash attempts (restore +
    /// replay), µs; 0.0 when nothing crashed.
    pub recovery_us: f64,
}

impl RunReport {
    /// A plain single-attempt report over what every engine produces;
    /// the per-op sums are derived here, engine-specific counters start
    /// at their "no notion of it" values.
    pub(crate) fn new(
        wall_us: f64,
        procs: Vec<ProcStats>,
        ops: Vec<OpRecord>,
        outputs: Vec<Vec<f64>>,
    ) -> Self {
        RunReport {
            wall_us,
            workers: procs.len(),
            stats: RunStats::from_procs(procs, wall_us),
            claims: ops.iter().map(|o| o.chunks).sum(),
            yields: ops.iter().map(|o| o.yields).sum(),
            polls: 0,
            spawned: 0,
            migrated_tasks: ops.iter().map(|o| o.migrated).sum(),
            reassignments: ops.iter().map(|o| o.reassignments).sum(),
            locality: 1.0,
            steals: 0,
            streamed_edges: ops.iter().map(|o| o.streamed_inputs).sum(),
            watermark_pubs: ops.iter().map(|o| o.watermark_pubs).sum(),
            pinned_workers: 0,
            crashed: false,
            attempts: 1,
            resumed_tasks: 0,
            recovery_us: 0.0,
            ops,
            outputs,
            logs: Vec::new(),
            spaces: Vec::new(),
        }
    }

    /// The common tail of the real engines, once their threads have
    /// joined: the arena's cells are quiescent, so the consuming
    /// conversion hands back one owned buffer per op. `records` must
    /// have been taken (they read the arena) before this consumes it.
    /// The logs are kept as they are, with each op's task count and
    /// remap: nothing per task is counted here.
    ///
    /// # Errors
    ///
    /// A fired cancellation aborts the whole run: partial outputs are
    /// discarded and the caller gets the clean error, so a cancelled
    /// run never masquerades as a short successful one.
    pub(crate) fn from_run<'p>(
        wall_us: f64,
        procs: Vec<ProcStats>,
        records: Vec<OpRecord>,
        ops: impl IntoIterator<Item = OpState<'p>>,
        logs: Vec<ExecLog>,
        arena: OutputArena,
        ctl: &RunCtl,
    ) -> Result<Self, RunError> {
        if let Some(e) = ctl.cancel_error() {
            return Err(e);
        }
        let mut resumed_tasks = 0;
        let spaces = ops
            .into_iter()
            .map(|op| {
                resumed_tasks += op.plan.tasks - op.pending();
                TaskSpace { tasks: op.plan.tasks, remap: op.remap }
            })
            .collect();
        Ok(RunReport {
            crashed: ctl.crashed(),
            resumed_tasks,
            logs,
            spaces,
            ..RunReport::new(wall_us, procs, records, arena.into_outputs())
        })
    }

    /// The exactly-once oracle: per-task execution counts of this (the
    /// final) attempt, aligned with the plan's op order — 1 for every
    /// executed task, 0 for tasks restored from a snapshot. Folded on
    /// each call from every worker's chunk log through each op's
    /// queue-index → task translation. The logs are complete and
    /// private, so the fold is exact: a task two claims covered reads
    /// 2, a task nobody ran (restored from a snapshot, or lost) reads 0.
    /// (Empty from the sequential reference, which keeps no logs.)
    pub fn exec_counts(&self) -> Vec<Vec<u32>> {
        let mut counts: Vec<Vec<u32>> = self.spaces.iter().map(|s| vec![0; s.tasks]).collect();
        for (op, chunk) in self.logs.iter().flat_map(|log| &log.spans) {
            let counts = &mut counts[*op];
            match &self.spaces[*op].remap {
                None => counts[chunk.range()].iter_mut().for_each(|n| *n += 1),
                Some(remap) => remap[chunk.range()].iter().for_each(|&t| counts[t] += 1),
            }
        }
        counts
    }

    /// Per-task restored-from-snapshot masks, aligned like
    /// [`exec_counts`](Self::exec_counts): all-false unless the final
    /// attempt of a resumable run started from a snapshot, derived on
    /// each call from the resumed ops' remaps — a task is restored when
    /// no queue index maps to it. (Empty from the sequential reference.)
    pub fn restored(&self) -> Vec<Vec<bool>> {
        let mask = |s: &TaskSpace| {
            let mut mask = vec![s.remap.is_some(); s.tasks];
            s.remap.iter().flatten().for_each(|&t| mask[t] = false);
            mask
        };
        self.spaces.iter().map(mask).collect()
    }

    /// Op names, aligned with the plan's op order.
    pub fn op_names(&self) -> Vec<String> {
        self.ops.iter().map(|o| o.name.clone()).collect()
    }

    /// Measured speedup: total busy time across workers over wall
    /// time. 1.0 means no overlap at all; `workers` is the ceiling.
    pub fn measured_speedup(&self) -> f64 {
        if self.wall_us <= 0.0 {
            return 1.0;
        }
        self.stats.total_busy() / self.wall_us
    }

    /// Fraction of worker-seconds spent busy (busy / (workers × wall))
    /// — on the async backend, how well the cooperative pool was fed.
    pub fn driver_utilization(&self) -> f64 {
        if self.wall_us <= 0.0 {
            return 0.0;
        }
        self.stats.total_busy() / (self.workers as f64 * self.wall_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::checkpoint::{CheckpointSpec, FaultPlan, FaultTrigger};
    use crate::threaded::build_plan;
    use orchestra_delirium::{DataAnno, DelirGraph, NodeKind};

    /// The protocol functions index any engine's per-op table; here the
    /// table is the bare states.
    impl<'p> AsRef<OpState<'p>> for OpState<'p> {
        fn as_ref(&self) -> &Self {
            self
        }
    }

    /// Two independent chains side by side: P0→P1→P2 of 8 tasks and
    /// Q0→Q1 of 24/8, so every level holds two concurrent ops.
    fn two_chains() -> DelirGraph {
        let par = |tasks| NodeKind::DataParallel { tasks, mean_cost: 1.0, cv: 0.0 };
        let mut g = DelirGraph::new();
        let p0 = g.add_node("P0", par(8), None);
        let p1 = g.add_node("P1", par(8), None);
        let p2 = g.add_node("P2", par(8), None);
        let q0 = g.add_node("Q0", par(24), None);
        let q1 = g.add_node("Q1", par(8), None);
        g.add_edge(p0, p1, DataAnno::array("a", 8));
        g.add_edge(p1, p2, DataAnno::array("b", 8));
        g.add_edge(q0, q1, DataAnno::array("c", 8));
        g
    }

    fn image(completed: Vec<bool>) -> OpSnapshot {
        let mut stats = OnlineStats::new();
        let outputs = completed.iter().enumerate().map(|(t, &c)| f64::from(c) * t as f64).collect();
        completed.iter().filter(|&&c| c).for_each(|_| stats.observe(1.0));
        OpSnapshot { completed, outputs, stats }
    }

    /// Whether two non-empty shares are disjoint and cover `0..pool`.
    fn tile(a: &Range<usize>, b: &Range<usize>, pool: usize) -> bool {
        let (lo, hi) = if a.start <= b.start { (a, b) } else { (b, a) };
        !lo.is_empty() && !hi.is_empty() && (lo.start, lo.end, hi.end) == (0, hi.start, pool)
    }

    /// One plan, one partial restore image: the classification every
    /// driver used to re-derive for itself.
    #[test]
    fn set_up_classifies_one_partial_image() {
        let g = two_chains();
        let opts = ExecutorOptions { stream_batch: Some(3), ..ExecutorOptions::default() };
        let plan = build_plan(&g, &opts).unwrap();
        let at = |name: &str| plan.ops.iter().position(|o| o.name == name).unwrap();
        let (p0, p1, p2, q0, q1) = (at("P0"), at("P1"), at("P2"), at("Q0"), at("Q1"));
        // P0 finished whole, P1 half done, everything else untouched.
        let mut images: Vec<OpSnapshot> =
            plan.ops.iter().map(|o| image(vec![false; o.tasks])).collect();
        images[p0] = image(vec![true; 8]);
        images[p1] = image((0..8).map(|t| t % 2 == 0).collect());
        let resume = ResumeState { ops: images };
        let s = set_up(&plan, &g.nodes, &opts, AccessPattern::ElementWise, 4, &resume);

        let pre_done: Vec<usize> = s.ops.iter().filter(|o| o.pre_done()).map(|o| o.idx).collect();
        assert_eq!(pre_done, [p0]);
        assert_eq!(s.ops[p0].remap.as_deref(), Some(&[][..]));
        assert_eq!(s.ops[p1].remap.as_deref(), Some(&[1, 3, 5, 7][..]));
        assert!(s.ops[p2].remap.is_none() && s.ops[q0].remap.is_none());
        assert_eq!(s.ops[p1].pending(), 4);
        assert!(s.ops[p1].enabled(), "a pre-done producer is no dependency");
        assert_eq!(s.ops[p1].warm.map(|w| w.count()), Some(4));
        assert!(s.ops[q0].warm.is_none());
        // Restored cells are prefilled; restored masks are full-length,
        // and only an op the image holds tasks of has one.
        let out = s.arena.into_outputs();
        assert_eq!(out[p1], [0.0, 0.0, 2.0, 0.0, 4.0, 0.0, 6.0, 0.0]);
        assert_eq!(s.ops[p1].restored.as_ref().map(Vec::len), Some(8));
        assert!(s.ops[q0].restored.is_none() && s.ops[p2].restored.is_none());

        // Streamed edges: only fresh, equal-cardinality pairs. P1→P2 is
        // equal-cardinality but P1 is remapped; Q0→Q1 is 24→8.
        assert!(s.ops.iter().all(|o| o.stream_inputs.is_empty() && o.stream_dependents.is_empty()));
        assert_eq!(s.ops[p1].dependents, [p2]);
        assert_eq!(s.ops[p0].dependents, [p1], "recorded, though P0 never completes again");
        assert!(s.ops.iter().all(|o| o.stream_batch == o.plan.tasks));

        // Equalizer shares: P0 is out of its level, so Q0 keeps the
        // pool; P1 (4 pending) and Q1 (8) split the next level into
        // disjoint ranges covering it; P2 has its level to itself.
        assert_eq!(s.ops[q0].share, 0..4);
        let (small, big) = (s.ops[p1].share.clone(), s.ops[q1].share.clone());
        assert!(tile(&small, &big, 4));
        assert!(small.len() <= big.len(), "fewer pending tasks, no larger share");
        assert_eq!(s.ops[p2].share, 0..4);
    }

    /// The same plan from the empty image: the chain streams, b\* is
    /// the forced batch on producers only, and nothing is remapped.
    #[test]
    fn set_up_from_the_empty_image_is_a_fresh_run() {
        let g = two_chains();
        let opts = ExecutorOptions { stream_batch: Some(3), ..ExecutorOptions::default() };
        let plan = build_plan(&g, &opts).unwrap();
        let at = |name: &str| plan.ops.iter().position(|o| o.name == name).unwrap();
        let (p0, p1, p2, q0) = (at("P0"), at("P1"), at("P2"), at("Q0"));
        let s =
            set_up(&plan, &g.nodes, &opts, AccessPattern::ElementWise, 4, &ResumeState::empty());
        assert!(s.ops.iter().all(|o| o.remap.is_none() && !o.pre_done() && o.warm.is_none()));
        assert_eq!(s.ops[p1].stream_inputs, [p0]);
        assert_eq!(s.ops[p1].stream_dependents, [p2]);
        assert!(s.ops[p0].dependents.is_empty(), "a streamed edge is not whole-op gated");
        assert_eq!(s.ops[q0].dependents.len(), 1);
        assert_eq!((s.ops[p0].stream_batch, s.ops[p1].stream_batch), (3, 3));
        assert_eq!((s.ops[p2].stream_batch, s.ops[q0].stream_batch), (8, 24));
        assert!(tile(&s.ops[p0].share, &s.ops[q0].share, 4));
        // A whole-input kernel, or the barrier baseline, streams nothing.
        for (access, overlap) in
            [(AccessPattern::WholeInput, true), (AccessPattern::ElementWise, false)]
        {
            let opts = ExecutorOptions { pipeline_overlap: overlap, ..opts.clone() };
            let s = set_up(&plan, &g.nodes, &opts, access, 4, &ResumeState::empty());
            assert!(s.ops.iter().all(|o| o.stream_inputs.is_empty()));
        }
    }

    /// `two_chains` set up on 4 workers from `images` (empty = fresh).
    fn chains_set_up<'p>(plan: &'p Plan, g: &DelirGraph, images: Vec<OpSnapshot>) -> Setup<'p> {
        let opts = ExecutorOptions::default();
        let resume = ResumeState { ops: images };
        set_up(plan, &g.nodes, &opts, AccessPattern::ElementWise, 4, &resume)
    }

    fn log(entries: &[(usize, Chunk)]) -> ExecLog {
        let mut log = ExecLog::default();
        entries.iter().for_each(|&(op, c)| log.push(op, c));
        log
    }

    fn span(start: usize, len: usize) -> Chunk {
        Chunk { start, len }
    }

    /// A kernel whose value names its task.
    struct TaskIndex;

    impl TaskKernel for TaskIndex {
        fn run_task(&self, ctx: &TaskCtx<'_>) -> f64 {
            ctx.task as f64 + 0.5
        }
    }

    /// The `done` flags are the snapshot scanner's alone: a run without
    /// a checkpoint spec sets none up, and in a checkpointed run a
    /// snapshot taken after one chunk marks exactly that chunk's tasks
    /// (through the remap, for a resumed op) besides the restored ones.
    #[test]
    fn completion_flags_exist_for_checkpoints_only() {
        let g = two_chains();
        let plan = build_plan(&g, &ExecutorOptions::default()).unwrap();
        let at = |name: &str| plan.ops.iter().position(|o| o.name == name).unwrap();
        let (p1, q0) = (at("P1"), at("Q0"));
        let plain = chains_set_up(&plan, &g, Vec::new());
        assert!(plain.ops.iter().all(|o| o.done.is_none()));

        // P1 resumes with its even tasks restored: queue 0..4 = tasks 1, 3, 5, 7.
        let mut images: Vec<OpSnapshot> =
            plan.ops.iter().map(|o| image(vec![false; o.tasks])).collect();
        images[p1] = image((0..8).map(|t| t % 2 == 0).collect());
        // Nothing is written under the directory: no snapshot is committed.
        let spec = CheckpointSpec::new(std::env::temp_dir().join("orchestra-done-flags"));
        let opts = ExecutorOptions { checkpoint: Some(spec), ..ExecutorOptions::default() };
        let resume = ResumeState { ops: images };
        let Setup { arena, ops } =
            set_up(&plan, &g.nodes, &opts, AccessPattern::ElementWise, 4, &resume);
        for (op, span) in [(q0, 5..9), (p1, 1..3)] {
            let op = &ops[op];
            let node = &g.nodes[op.plan.node];
            // SAFETY: single-threaded, so this is each chunk's only
            // claimant, and neither op's producers are read.
            unsafe { op.run_span(&TaskIndex, node, &[], &arena, span, |_| {}) };
        }
        let snaps = snapshot_ops(&ops, &arena);
        let completed = |i: usize| -> Vec<usize> {
            (0..plan.ops[i].tasks).filter(|&t| snaps[i].completed[t]).collect()
        };
        assert_eq!(completed(q0), [5, 6, 7, 8]);
        assert_eq!(snaps[q0].outputs[5..9], [5.5, 6.5, 7.5, 8.5]);
        assert_eq!(completed(p1), [0, 2, 3, 4, 5, 6]);
        assert_eq!((snaps[p1].outputs[3], snaps[p1].outputs[5]), (3.5, 5.5));
        assert!((0..plan.ops.len())
            .filter(|&i| i != q0 && i != p1)
            .all(|i| completed(i).is_empty()));
    }

    /// The report of a run of `plan`, set up as `s`, whose two workers
    /// logged `logs`.
    fn report_of(plan: &Plan, s: Setup<'_>, logs: Vec<ExecLog>) -> RunReport {
        let ctl = RunCtl::new(&ExecutorOptions::default(), plan, 2);
        let procs = vec![ProcStats::default(); 2];
        RunReport::from_run(1.0, procs, Vec::new(), s.ops, logs, s.arena, &ctl).unwrap()
    }

    /// The oracle itself: disjoint logs read 1 everywhere, an overlap
    /// reads 2 exactly where two claims met, a remapped op counts in
    /// task space and leaves its restored tasks at 0, a whole op in one
    /// entry counts once, and an op nobody ran stays 0.
    #[test]
    fn fold_counts_exactly_what_the_logs_say() {
        let g = two_chains();
        let plan = build_plan(&g, &ExecutorOptions::default()).unwrap();
        let at = |name: &str| plan.ops.iter().position(|o| o.name == name).unwrap();
        let (p0, p1, p2, q0, q1) = (at("P0"), at("P1"), at("P2"), at("Q0"), at("Q1"));
        // P1 resumes with its even tasks restored: queue 0..4 = tasks 1, 3, 5, 7.
        let mut images: Vec<OpSnapshot> =
            plan.ops.iter().map(|o| image(vec![false; o.tasks])).collect();
        images[p1] = image((0..8).map(|t| t % 2 == 0).collect());
        let s = chains_set_up(&plan, &g, images);

        let logs = vec![
            // Worker 0: half of P0, Q0's head, and P1's first two
            // pending tasks.
            log(&[(p0, span(0, 4)), (q0, span(0, 16)), (p1, span(0, 2))]),
            // Worker 1: the other half of P0, a Q0 chunk overlapping
            // worker 0's on [12, 16), P1's tail, and P2 whole in one
            // chunk.
            log(&[(p0, span(4, 4)), (q0, span(12, 12)), (p1, span(2, 2)), (p2, span(0, 8))]),
            ExecLog::default(),
        ];
        let report = report_of(&plan, s, logs);
        let counts = report.exec_counts();
        assert_eq!(counts[p0], [1; 8], "disjoint ranges");
        let q0_expected: Vec<u32> = (0..24).map(|t| 1 + u32::from((12..16).contains(&t))).collect();
        assert_eq!(counts[q0], q0_expected, "2 exactly on the overlap");
        assert_eq!(counts[p1], [0, 1, 0, 1, 0, 1, 0, 1], "queue indices go through the remap");
        assert_eq!(report.restored()[p1], [true, false, true, false, true, false, true, false]);
        assert_eq!(counts[p2], [1; 8], "one whole-op chunk counts once");
        assert_eq!(counts[q1], [0; 8], "an op nobody ran");
        assert!(report.restored()[q0].iter().all(|&r| !r), "no image, nothing restored");
        assert_eq!(report.resumed_tasks, 4);
    }

    /// Adjacent chunks of one op share a log entry; a chunk of another
    /// op, a gap, or a chunk run again starts a new one. The totals
    /// still count every chunk, and the fold every task run.
    #[test]
    fn a_log_entry_spans_adjacent_chunks() {
        let log = log(&[(0, span(0, 4)), (0, span(4, 2)), (1, span(6, 2)), (0, span(6, 2))]);
        assert_eq!(log.spans, [(0, span(0, 6)), (1, span(6, 2)), (0, span(6, 2))]);
        assert_eq!(log.totals(), (4, 10));
        let again = self::log(&[(0, span(0, 4)), (0, span(0, 4)), (0, span(8, 1))]);
        assert_eq!(again.spans.len(), 3, "a repeated or a disjoint chunk is its own entry");
    }

    /// The oracle can fire: a forced double claim (two workers' logs
    /// both holding P0's tasks 2..6) and a lost chunk (nobody holds
    /// Q1's 4..8) come out of `RunReport::from_run` as 2s and 0s.
    #[test]
    fn a_double_claim_shows_in_the_report() {
        let g = two_chains();
        let opts = ExecutorOptions::default();
        let plan = build_plan(&g, &opts).unwrap();
        let s = chains_set_up(&plan, &g, Vec::new());
        let whole = |skip: &str| -> Vec<(usize, Chunk)> {
            let ops = s.ops.iter().filter(|o| o.plan.name != skip);
            ops.map(|o| (o.idx, span(0, o.plan.tasks))).collect()
        };
        let at = |name: &str| plan.ops.iter().position(|o| o.name == name).unwrap();
        let (p0, q1) = (at("P0"), at("Q1"));
        let logs = vec![log(&whole("Q1")), log(&[(p0, span(2, 4)), (q1, span(0, 4))])];
        let report = report_of(&plan, s, logs);
        assert_eq!(report.exec_counts()[p0], [1, 1, 2, 2, 2, 2, 1, 1]);
        assert_eq!(report.exec_counts()[q1], [1, 1, 1, 1, 0, 0, 0, 0]);
        let clean = |i: &usize| *i != p0 && *i != q1;
        assert!((0..plan.ops.len())
            .filter(clean)
            .all(|i| report.exec_counts()[i].iter().all(|&c| c == 1)));
        assert_eq!(report.resumed_tasks, 0);
    }

    /// A diamond A→{B, C}→D in which A→B streams (8 = 8 tasks) and
    /// A→C, B→D, C→D are whole-op (8→4, →1); B has a second, whole-op
    /// producer E (3→8); and A's own producer R is finished whole by
    /// the snapshot.
    fn diamond() -> DelirGraph {
        let par = |tasks| NodeKind::DataParallel { tasks, mean_cost: 1.0, cv: 0.0 };
        let mut g = DelirGraph::new();
        let r = g.add_node("R", par(8), None);
        let e = g.add_node("E", par(3), None);
        let a = g.add_node("A", par(8), None);
        let b = g.add_node("B", par(8), None);
        let c = g.add_node("C", par(4), None);
        let d = g.add_node("D", NodeKind::Merge { cost: 1.0 }, None);
        for (from, to, n) in [(r, a, 8), (a, b, 8), (e, b, 3), (a, c, 8), (b, d, 8), (c, d, 4)] {
            g.add_edge(from, to, DataAnno::array("x", n));
        }
        g
    }

    /// [`diamond`] set up on 2 workers with R restored whole.
    fn diamond_set_up<'p>(plan: &'p Plan, g: &DelirGraph) -> Setup<'p> {
        let mut images: Vec<OpSnapshot> =
            plan.ops.iter().map(|o| image(vec![false; o.tasks])).collect();
        let r = plan.ops.iter().position(|o| o.name == "R").unwrap();
        images[r] = image(vec![true; 8]);
        let resume = ResumeState { ops: images };
        set_up(plan, &g.nodes, &ExecutorOptions::default(), AccessPattern::ElementWise, 2, &resume)
    }

    /// The readiness protocol, single-threaded, with a recording
    /// `ready`: which arrival readies whom, and how often.
    #[test]
    fn readiness_is_decided_once_by_the_arrival_that_counts() {
        let g = diamond();
        let plan = build_plan(&g, &ExecutorOptions::default()).unwrap();
        let at = |name: &str| plan.ops.iter().position(|o| o.name == name).unwrap();
        let (e, a, b, c, d) = (at("E"), at("A"), at("B"), at("C"), at("D"));
        let Setup { ops, arena, .. } = diamond_set_up(&plan, &g);
        let deps = |i: usize| ops[i].deps.load(Ordering::Acquire);
        let publish =
            |start, len| arena.commit_range(a, start, len, len).expect("extends the prefix");
        let on_publication = |p: Publication| {
            let mut readied = Vec::new();
            published(&ops, a, p, |i| readied.push(i));
            readied
        };
        let on_completion = |i: usize, t_us: f64| {
            let mut readied = Vec::new();
            completed(&ops, &arena, i, t_us, |i| readied.push(i));
            readied
        };

        assert_eq!(
            (ops[a].stream_dependents.clone(), ops[a].dependents.clone()),
            (vec![b], vec![c])
        );
        assert!(ops[a].enabled() && ops[e].enabled(), "the snapshot's R is no dependency of A");
        assert_eq!((deps(b), deps(c), deps(d)), (2, 1, 2));
        assert!(ops[a].runnable() && !ops[b].runnable());

        // A's first publication is its arrival at B, whose other
        // producer is still out: counted, nobody readied. Later ones
        // leave the counter alone.
        let first = publish(0, 4);
        assert!(first.is_first());
        assert_eq!(on_publication(first), []);
        assert_eq!(deps(b), 1);
        assert_eq!(on_publication(publish(4, 2)), []);
        assert_eq!(deps(b), 1, "only the first publication is an arrival");
        // E's completion zeroes B's counter: readied, by that arrival.
        assert_eq!(on_completion(e, 1.0), [b]);
        assert_eq!(f64::from_bits(ops[e].finished_bits.load(Ordering::Acquire)), 1.0);
        // Every later non-empty publication readies B again.
        assert_eq!(on_publication(publish(6, 1)), [b]);
        // A completes: its tail publishes (7 → 8), then the whole-op
        // dependent C gets its one arrival. D has had none yet.
        assert_eq!(on_completion(a, 2.0), [b, c]);
        assert_eq!(arena.watermark(a), 8);
        assert_eq!(deps(d), 2);
        // An empty publication readies nobody.
        let again = arena.publish_all(a);
        assert_eq!((again.previous, again.current), (8, 8));
        assert_eq!(on_publication(again), []);
        // Once B has finished, no publication readies it again.
        assert!(ops[b].account(8) && !ops[b].runnable());
        assert_eq!(on_publication(Publication { previous: 4, current: 6 }), []);
        // D is readied once, by the second of its two arrivals.
        assert_eq!(on_completion(b, 3.0), []);
        assert_eq!(on_completion(c, 4.0), [d]);
        assert_eq!(on_completion(d, 5.0), []);
        assert!((0..plan.ops.len()).all(|i| deps(i) == 0));

        // The other order: with E already in, A's first publication is
        // the arrival that enables B.
        let Setup { ops, arena, .. } = diamond_set_up(&plan, &g);
        let mut readied = Vec::new();
        completed(&ops, &arena, e, 1.0, |i| readied.push(i));
        assert_eq!(readied, [], "B still waits for A's first watermark");
        let first = arena.commit_range(a, 0, 2, 2).unwrap();
        published(&ops, a, first, |i| readied.push(i));
        assert_eq!(readied, [b]);
    }

    /// The claim hook's order: cancellation and a crash under way stop
    /// the claimant before the fault plan sees the claim; a planned kill
    /// that fires crashes the run before the checkpoint cadence, which
    /// every claim that runs on reaches.
    #[test]
    fn the_claim_hook_crashes_a_fired_kill_before_the_cadence() {
        let g = two_chains();
        let dir = std::env::temp_dir().join(format!("orchestra-claim-hook-{}", std::process::id()));
        let token = CancelToken::new();
        let opts = ExecutorOptions {
            faults: Some(FaultPlan::crash(0, FaultTrigger::AfterClaims(2))),
            checkpoint: Some(CheckpointSpec { every_claims: 1, ..CheckpointSpec::new(&dir) }),
            cancel: Some(token.clone()),
            ..ExecutorOptions::default()
        };
        let plan = build_plan(&g, &opts).unwrap();
        // One claim by `claimant`: (stopped, snapshots taken).
        let claim = |ctl: &RunCtl, claimant: usize| {
            let mut snapshots = 0;
            let stopped = ctl.after_claim(claimant, None, || {
                snapshots += 1;
                Vec::new()
            });
            (stopped, snapshots)
        };

        let ctl = RunCtl::new(&opts, &plan, 2);
        assert_eq!(claim(&ctl, 0), (false, 1), "no kill planned for the first claim");
        assert_eq!(claim(&ctl, 1), (false, 1), "nor for another claimant");
        assert!(!ctl.crashed() && !ctl.stopping());
        assert_eq!(claim(&ctl, 0), (true, 0), "the kill fires before the cadence");
        assert!(ctl.crashed() && ctl.stopping());
        // A crash under way stops every claimant, without a snapshot.
        assert_eq!(claim(&ctl, 1), (true, 0));
        // So does a cancellation, before the plan counts the claim.
        let ctl = RunCtl::new(&opts, &plan, 2);
        token.cancel();
        assert_eq!(claim(&ctl, 0), (true, 0));
        assert_eq!(claim(&ctl, 0), (true, 0));
        assert!(!ctl.crashed(), "a cancelled run's kill never fired");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A resumed op's queue publishes its first decision from the
    /// snapshot's µ/σ: warmed after construction, the queue would hand
    /// out half the pending tasks as if nothing had been sampled.
    #[test]
    fn a_resumed_queue_sizes_its_first_chunks_from_the_snapshot() {
        use crate::chunking::{ChunkPolicy, Taper};
        let mut g = DelirGraph::new();
        g.add_node("F", NodeKind::DataParallel { tasks: 2000, mean_cost: 1.0, cv: 0.0 }, None);
        let opts = ExecutorOptions::default();
        let plan = build_plan(&g, &opts).unwrap();
        // The first half restored, from irregular samples.
        let mut stats = OnlineStats::new();
        (0..1000).for_each(|t| stats.observe(if t % 10 == 0 { 50.0 } else { 1.0 }));
        let completed = (0..2000).map(|t| t < 1000).collect();
        let image = OpSnapshot { completed, outputs: vec![0.0; 2000], stats };
        let resume = ResumeState { ops: vec![image] };
        let s = set_up(&plan, &g.nodes, &opts, AccessPattern::ElementWise, 2, &resume);
        assert_eq!((s.ops[0].pending(), s.ops[0].share.len()), (1000, 2));

        let q = s.ops[0].chunk_queue(PolicyKind::Taper);
        let mut warm = Taper::new();
        warm.observe_chunk(0, 0, &stats);
        let k = warm.next_chunk(0, 1000, 2);
        assert!(k < 500, "irregular samples shrink the first chunk below the cold 500, got {k}");
        assert_eq!(q.claim(), Some(Chunk { start: 0, len: k }));
        assert_eq!(q.claim(), Some(Chunk { start: k, len: k }), "one decision per epoch");
    }
}
