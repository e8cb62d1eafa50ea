//! Runtime processor allocation (§4.1.2).
//!
//! When two parallel operations execute concurrently, the runtime
//! rations processors between them by iteratively equalizing their
//! finishing-time estimates — the paper's pseudocode verbatim:
//!
//! ```text
//! epsilon = 5%
//! p1 = p/2, p2 = p − p1, count = 0
//! eA = finish_estimate(A, p1), eB = finish_estimate(B, p2)
//! while (count < max_count) and (|eA − eB| > epsilon):
//!     if eA > eB:  p1 = p1 + p2/2;  p2 = p − p1
//!     else:        p2 = p2 + p1/2;  p1 = p − p2
//!     eA = finish_estimate(A, p1);  eB = finish_estimate(B, p2)
//!     count = count + 1
//! ```
//!
//! "In practice, using a max_count of four has been sufficient."
//!
//! This module also owns the runtime's other allocation concern: the
//! [`OutputArena`], a single slab holding every operation's output
//! buffer. Workers write task results in place through disjoint
//! `&mut [f64]` chunk views (one per claimed chunk) instead of going
//! through per-task atomic stores, and downstream operations read
//! their inputs by slice reference out of the same slab — the
//! zero-copy data plane described in DESIGN §14.

use crate::finish::{finish_estimate, OpSpec};
use orchestra_machine::MachineConfig;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Parameters of the iterative equalizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocParams {
    /// Relative imbalance tolerance (the paper's 5%).
    pub epsilon: f64,
    /// Maximum iterations (the paper's 4).
    pub max_count: u32,
}

impl Default for AllocParams {
    fn default() -> Self {
        AllocParams { epsilon: 0.05, max_count: 4 }
    }
}

/// The chosen allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Allocation {
    /// Processors given to operation A.
    pub p1: usize,
    /// Processors given to operation B.
    pub p2: usize,
    /// Final finishing-time estimate for A.
    pub est_a: f64,
    /// Final finishing-time estimate for B.
    pub est_b: f64,
    /// Iterations used.
    pub iterations: u32,
}

/// Rations `p` processors between two concurrently executing parallel
/// operations, equalizing their estimated finishing times.
///
/// # Panics
///
/// Panics if `p < 2` (each operation needs at least one processor).
pub fn allocate_pair(
    a: &OpSpec,
    b: &OpSpec,
    p: usize,
    cfg: &MachineConfig,
    params: &AllocParams,
) -> Allocation {
    assert!(p >= 2, "allocation needs at least two processors");
    let mut p1 = p / 2;
    let mut p2 = p - p1;
    let mut count = 0;
    let mut ea = finish_estimate(a, p1, cfg).total();
    let mut eb = finish_estimate(b, p2, cfg).total();
    while count < params.max_count
        && (ea - eb).abs() > params.epsilon * ea.max(eb).max(f64::EPSILON)
    {
        if ea > eb {
            p1 = (p1 + p2 / 2).min(p - 1);
        } else {
            let p2_grown = (p2 + p1 / 2).min(p - 1);
            p1 = p - p2_grown;
        }
        p1 = p1.clamp(1, p - 1);
        p2 = p - p1;
        ea = finish_estimate(a, p1, cfg).total();
        eb = finish_estimate(b, p2, cfg).total();
        count += 1;
    }
    Allocation { p1, p2, est_a: ea, est_b: eb, iterations: count }
}

/// Generalization to `k ≥ 1` concurrent operations: start from an even
/// split and repeatedly move processors from the earliest-finishing
/// operation to the latest-finishing one (pairwise equalization steps),
/// bounded by `max_count · k` moves.
pub fn allocate_many(
    ops: &[OpSpec],
    p: usize,
    cfg: &MachineConfig,
    params: &AllocParams,
) -> Vec<usize> {
    allocate_many_with(ops, p, params, |op, procs| finish_estimate(op, procs, cfg).total())
}

/// [`allocate_many`] with a caller-supplied finishing-time estimator.
///
/// The simulator calls it with the modeled machine's
/// [`finish_estimate`]; the real backends call it with
/// [`finish_estimate_live`](crate::finish::finish_estimate_live) over
/// live sampled statistics and host-calibrated overheads, where no
/// `MachineConfig` exists.
pub fn allocate_many_with(
    ops: &[OpSpec],
    p: usize,
    params: &AllocParams,
    est: impl Fn(&OpSpec, usize) -> f64,
) -> Vec<usize> {
    let k = ops.len();
    assert!(k >= 1, "need at least one operation");
    assert!(p >= k, "need at least one processor per operation");
    if k == 1 {
        return vec![p];
    }
    let mut alloc = vec![p / k; k];
    let mut extra = p - p / k * k;
    for a in alloc.iter_mut() {
        if extra == 0 {
            break;
        }
        *a += 1;
        extra -= 1;
    }
    for _ in 0..params.max_count * k as u32 {
        let (mut hi, mut lo) = (0, 0);
        let (mut hi_e, mut lo_e) = (f64::MIN, f64::MAX);
        for i in 0..k {
            let e = est(&ops[i], alloc[i].max(1));
            if e > hi_e {
                hi_e = e;
                hi = i;
            }
            if e < lo_e {
                lo_e = e;
                lo = i;
            }
        }
        if hi == lo || (hi_e - lo_e) <= params.epsilon * hi_e || alloc[lo] <= 1 {
            break;
        }
        // Move half of the donor's surplus (at least one processor).
        let transfer = (alloc[lo] / 4).max(1).min(alloc[lo] - 1);
        alloc[lo] -= transfer;
        alloc[hi] += transfer;
    }
    alloc
}

/// One output cell: a plain `f64` the runtime coordinates access to.
///
/// `Sync` is sound because every access pattern the runtime uses is
/// race-free by construction: concurrent *writers* hold disjoint cell
/// ranges (the chunk queue hands each task index out exactly once),
/// and *readers* only touch a cell after observing, with `Acquire`
/// ordering, the `Release` store of the task's `done` flag that the
/// writer performs after its plain store — or after the pool has
/// joined, when no writer exists at all.
#[repr(transparent)]
struct OutputCell(UnsafeCell<f64>);

// SAFETY: see the type-level comment — all concurrent access is
// coordinated externally (disjoint claims for writers, done-flag
// Release/Acquire for readers).
unsafe impl Sync for OutputCell {}

/// A single slab backing every operation's output buffer: the
/// zero-copy data plane.
///
/// Built once from the expanded plan's op sizes, then shared by
/// reference across the worker pool (or the async drivers). Writers
/// obtain per-chunk [`chunk_view`](Self::chunk_view)s, the checkpoint
/// scanner reads completed cells via [`read`](Self::read), downstream
/// ops see a whole finished op through [`op_slice`](Self::op_slice),
/// and the run's final owned buffers come out of
/// [`into_outputs`](Self::into_outputs) once the pool has joined.
pub struct OutputArena {
    cells: Box<[OutputCell]>,
    spans: Vec<Range<usize>>,
    marks: Vec<Watermark>,
}

/// One watermark publication: the published prefix moved from
/// `previous` to `current` (both in completed-task units).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Publication {
    /// Published prefix before this publication.
    pub previous: usize,
    /// Published prefix after it.
    pub current: usize,
}

impl Publication {
    /// True iff this publication was the op's first (the streamed-edge
    /// enable event).
    pub fn is_first(&self) -> bool {
        self.previous == 0 && self.current > 0
    }
}

/// Out-of-order completion bookkeeping behind one op's watermark: the
/// contiguous committed prefix plus the disjoint sorted intervals
/// completed ahead of it.
struct Frontier {
    frontier: usize,
    pending: Vec<(usize, usize)>,
}

/// Per-op progress watermark: the `Release`-published length of the
/// completed contiguous output prefix. Readers `Acquire`-load
/// [`OutputArena::watermark`] and may then read any cell below it —
/// before the op as a whole completes. The frontier mutex serializes
/// interval merging, and its unlock/lock edges chain every committing
/// worker's plain cell stores into happens-before with the `Release`
/// store of the advanced watermark, whichever worker performs it.
struct Watermark {
    published: AtomicUsize,
    pubs: AtomicU64,
    state: Mutex<Frontier>,
}

impl OutputArena {
    /// An arena with one zero-initialized span of `sizes[i]` cells per
    /// operation.
    pub fn for_ops<I: IntoIterator<Item = usize>>(sizes: I) -> Self {
        let mut spans = Vec::new();
        let mut acc = 0usize;
        for n in sizes {
            spans.push(acc..acc + n);
            acc += n;
        }
        let cells: Box<[OutputCell]> = (0..acc).map(|_| OutputCell(UnsafeCell::new(0.0))).collect();
        let marks = spans
            .iter()
            .map(|_| Watermark {
                published: AtomicUsize::new(0),
                pubs: AtomicU64::new(0),
                state: Mutex::new(Frontier { frontier: 0, pending: Vec::new() }),
            })
            .collect();
        OutputArena { cells, spans, marks }
    }

    /// Number of operations the arena was sized for.
    pub fn ops(&self) -> usize {
        self.spans.len()
    }

    /// Task count of operation `op`.
    pub fn op_len(&self, op: usize) -> usize {
        self.spans[op].len()
    }

    /// Writes one cell through exclusive access — used to pre-fill
    /// restored outputs before the arena is shared with any worker.
    pub fn set(&mut self, op: usize, task: usize, value: f64) {
        let span = self.spans[op].clone();
        assert!(task < span.len(), "task {task} out of op {op} bounds {}", span.len());
        *self.cells[span.start + task].0.get_mut() = value;
    }

    /// A mutable view of operation `op`'s cells `[start, start+len)`,
    /// the per-chunk write window of the data plane.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the operation's span.
    ///
    /// # Safety
    ///
    /// The caller must hold exclusive write access to exactly these
    /// cells for the view's lifetime: in the runtime that is the claim
    /// queue's exactly-once chunk hand-out. No [`op_slice`] of the same
    /// op may be created while the view is live.
    // The `&self → &mut` shape is the point of the interior-mutability
    // arena: disjointness comes from the claim protocol, not the borrow
    // checker, which is why the method is `unsafe`.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn chunk_view(&self, op: usize, start: usize, len: usize) -> &mut [f64] {
        let span = &self.spans[op];
        assert!(
            start.checked_add(len).is_some_and(|end| end <= span.len()),
            "chunk [{start}, {start}+{len}) out of op {op} bounds {}",
            span.len()
        );
        let base = self.cells[span.start + start].0.get();
        // SAFETY: range checked above; exclusivity is the caller's
        // contract. Cells are `repr(transparent)` over `UnsafeCell<f64>`,
        // which has the layout of `f64`, so consecutive cells form a
        // valid `[f64]`.
        unsafe { std::slice::from_raw_parts_mut(base, len) }
    }

    /// Writes a single task's output — the scattered-write fallback
    /// for resumed ops whose queue indices are remapped non-contiguously.
    ///
    /// # Safety
    ///
    /// Same contract as [`chunk_view`](Self::chunk_view) for the one
    /// cell: the caller must be the task's exactly-once claimant.
    pub unsafe fn write(&self, op: usize, task: usize, value: f64) {
        let span = &self.spans[op];
        assert!(task < span.len(), "task {task} out of op {op} bounds {}", span.len());
        // SAFETY: in-bounds; exclusivity is the caller's contract.
        unsafe { *self.cells[span.start + task].0.get() = value };
    }

    /// Reads a single task's output.
    ///
    /// # Safety
    ///
    /// The cell must be quiescent: the caller must have observed the
    /// task's completion through an `Acquire` load of its `done` flag
    /// (pairing with the writer's post-store `Release`), or otherwise
    /// know no writer can touch it.
    pub unsafe fn read(&self, op: usize, task: usize) -> f64 {
        let span = &self.spans[op];
        assert!(task < span.len(), "task {task} out of op {op} bounds {}", span.len());
        // SAFETY: in-bounds; quiescence is the caller's contract.
        unsafe { *self.cells[span.start + task].0.get() }
    }

    /// The whole output slice of a *finished* operation, handed to
    /// downstream ops as their input — no copy.
    ///
    /// # Safety
    ///
    /// Every task of `op` must have completed, and that completion must
    /// have been observed with `Acquire` ordering (in the runtime:
    /// dependency counters reach zero before any dependent runs). No
    /// [`chunk_view`](Self::chunk_view) of this op may be live.
    pub unsafe fn op_slice(&self, op: usize) -> &[f64] {
        let span = &self.spans[op];
        if span.is_empty() {
            return &[];
        }
        let base = self.cells[span.start].0.get() as *const f64;
        // SAFETY: in-bounds by construction; quiescence is the
        // caller's contract.
        unsafe { std::slice::from_raw_parts(base, span.len()) }
    }

    /// Consumes the arena into one owned `Vec<f64>` per operation.
    /// Safe: ownership proves no view or writer can still exist.
    pub fn into_outputs(mut self) -> Vec<Vec<f64>> {
        let spans = std::mem::take(&mut self.spans);
        spans.into_iter().map(|span| span.map(|i| *self.cells[i].0.get_mut()).collect()).collect()
    }

    /// The op's published watermark: every cell below it holds its
    /// final value and may be read concurrently with the op still
    /// executing above it. `Acquire`: pairs with the `Release` store in
    /// [`commit_range`](Self::commit_range) / [`publish_all`](Self::publish_all).
    pub fn watermark(&self, op: usize) -> usize {
        self.marks[op].published.load(Ordering::Acquire)
    }

    /// How many times the op's watermark has been published (the
    /// cross-core store + wakeup events `choose_batch` amortizes).
    pub fn watermark_pubs(&self, op: usize) -> u64 {
        self.marks[op].pubs.load(Ordering::Relaxed)
    }

    /// Records that tasks `[start, start+len)` of `op` committed their
    /// outputs, and publishes the watermark when the unpublished
    /// contiguous prefix has grown by at least `batch` tasks (or the op
    /// just finished). Completion order across workers is arbitrary;
    /// intervals ahead of the frontier are held back until the gap
    /// fills. Returns the publication when one happened.
    ///
    /// Memory ordering: the caller's plain cell stores for this
    /// interval happen-before its frontier-mutex unlock; any later
    /// publisher locks the same mutex before `Release`-storing the
    /// advanced watermark, so a reader's `Acquire` load of the
    /// watermark makes every covered cell's final value visible.
    pub fn commit_range(
        &self,
        op: usize,
        start: usize,
        len: usize,
        batch: usize,
    ) -> Option<Publication> {
        if len == 0 {
            return None;
        }
        let total = self.spans[op].len();
        assert!(
            start.checked_add(len).is_some_and(|end| end <= total),
            "commit [{start}, {start}+{len}) out of op {op} bounds {total}"
        );
        let mark = &self.marks[op];
        let mut st = mark.state.lock().expect("watermark state poisoned");
        let (mut s, mut e) = (start, start + len);
        if s == st.frontier {
            // Fast path: the interval extends the frontier directly.
            st.frontier = e;
        } else {
            debug_assert!(s > st.frontier, "interval below the committed frontier");
            // Insert sorted, coalescing with touching neighbours.
            let at = st.pending.partition_point(|&(ps, _)| ps < s);
            if at < st.pending.len() && st.pending[at].0 == e {
                e = st.pending[at].1;
                st.pending.remove(at);
            }
            if at > 0 && st.pending[at - 1].1 == s {
                s = st.pending[at - 1].0;
                st.pending[at - 1] = (s, e);
            } else {
                let at = at.min(st.pending.len());
                st.pending.insert(at, (s, e));
            }
        }
        // Drain pending intervals that now touch the frontier.
        while let Some(&(ps, pe)) = st.pending.first() {
            if ps != st.frontier {
                break;
            }
            st.frontier = pe;
            st.pending.remove(0);
        }
        let frontier = st.frontier;
        let previous = mark.published.load(Ordering::Relaxed);
        if frontier > previous && (frontier - previous >= batch.max(1) || frontier == total) {
            mark.published.store(frontier, Ordering::Release);
            mark.pubs.fetch_add(1, Ordering::Relaxed);
            drop(st);
            return Some(Publication { previous, current: frontier });
        }
        None
    }

    /// Force-publishes the whole op — the completion path, which also
    /// covers producers whose chunks never went through
    /// [`commit_range`](Self::commit_range) (scattered writers, empty
    /// ops). Takes the frontier lock so it serializes with in-flight
    /// commits; idempotent once fully published.
    pub fn publish_all(&self, op: usize) -> Publication {
        let total = self.spans[op].len();
        let mark = &self.marks[op];
        let mut st = mark.state.lock().expect("watermark state poisoned");
        st.frontier = total;
        st.pending.clear();
        let previous = mark.published.load(Ordering::Relaxed);
        if previous < total {
            mark.published.store(total, Ordering::Release);
            mark.pubs.fetch_add(1, Ordering::Relaxed);
        }
        Publication { previous, current: total }
    }
}

#[cfg(test)]
mod arena_tests {
    use super::OutputArena;

    #[test]
    fn spans_are_disjoint_and_sized() {
        let arena = OutputArena::for_ops([3, 0, 5]);
        assert_eq!(arena.ops(), 3);
        assert_eq!(arena.op_len(0), 3);
        assert_eq!(arena.op_len(1), 0);
        assert_eq!(arena.op_len(2), 5);
        // SAFETY: single-threaded test, views dropped before reads.
        unsafe {
            arena.chunk_view(0, 0, 3).copy_from_slice(&[1.0, 2.0, 3.0]);
            arena.chunk_view(2, 1, 2).copy_from_slice(&[9.0, 8.0]);
        }
        let out = arena.into_outputs();
        assert_eq!(out, vec![vec![1.0, 2.0, 3.0], vec![], vec![0.0, 9.0, 8.0, 0.0, 0.0]]);
    }

    #[test]
    fn restored_fill_then_slice_reference() {
        let mut arena = OutputArena::for_ops([4, 2]);
        arena.set(0, 2, 7.5);
        // SAFETY: no concurrent writers in this test.
        let s = unsafe { arena.op_slice(0) };
        assert_eq!(s, &[0.0, 0.0, 7.5, 0.0]);
        assert_eq!(unsafe { arena.read(0, 2) }, 7.5);
    }

    #[test]
    #[should_panic(expected = "out of op 0 bounds")]
    fn chunk_view_bounds_checked() {
        let arena = OutputArena::for_ops([4]);
        // SAFETY: panics before any aliasing could occur.
        let _ = unsafe { arena.chunk_view(0, 2, 3) };
    }

    #[test]
    #[should_panic(expected = "out of op 1 bounds")]
    fn write_bounds_checked() {
        let arena = OutputArena::for_ops([4, 1]);
        // SAFETY: panics before the store.
        unsafe { arena.write(1, 1, 0.0) };
    }

    #[test]
    fn empty_ops_yield_empty_slices() {
        let arena = OutputArena::for_ops([0, 0]);
        assert_eq!(unsafe { arena.op_slice(0) }, &[] as &[f64]);
        assert_eq!(arena.into_outputs(), vec![Vec::<f64>::new(), Vec::new()]);
    }

    #[test]
    fn watermark_advances_only_over_the_contiguous_prefix() {
        let arena = OutputArena::for_ops([10]);
        assert_eq!(arena.watermark(0), 0);
        // An out-of-order interval is held back entirely.
        assert_eq!(arena.commit_range(0, 4, 2, 1), None);
        assert_eq!(arena.watermark(0), 0);
        // The prefix arrives: frontier jumps over the merged pending
        // interval in one publication.
        let p = arena.commit_range(0, 0, 4, 1).expect("prefix publishes");
        assert!(p.is_first());
        assert_eq!(p, super::Publication { previous: 0, current: 6 });
        assert_eq!(arena.watermark(0), 6);
        // Filling the tail completes the op.
        let p = arena.commit_range(0, 6, 4, 1).expect("tail publishes");
        assert_eq!(p.current, 10);
        assert_eq!(arena.watermark(0), 10);
        assert_eq!(arena.watermark_pubs(0), 2);
    }

    #[test]
    fn batching_coalesces_publications_and_completion_flushes() {
        let arena = OutputArena::for_ops([8]);
        // batch=4: three 1-task commits stay unpublished…
        for t in 0..3 {
            assert_eq!(arena.commit_range(0, t, 1, 4), None);
        }
        assert_eq!(arena.watermark(0), 0);
        // …the fourth crosses the batch threshold.
        let p = arena.commit_range(0, 3, 1, 4).expect("batch boundary publishes");
        assert_eq!((p.previous, p.current), (0, 4));
        // The final task always flushes, batch or not.
        for t in 4..7 {
            assert_eq!(arena.commit_range(0, t, 1, 4), None);
        }
        let p = arena.commit_range(0, 7, 1, 4).expect("completion publishes");
        assert_eq!(p.current, 8);
        assert_eq!(arena.watermark_pubs(0), 2);
    }

    #[test]
    fn publish_all_is_idempotent_and_covers_uncommitted_ops() {
        let arena = OutputArena::for_ops([5, 0]);
        let p = arena.publish_all(0);
        assert!(p.is_first());
        assert_eq!(arena.watermark(0), 5);
        let p = arena.publish_all(0);
        assert_eq!((p.previous, p.current), (5, 5));
        assert_eq!(arena.watermark_pubs(0), 1, "re-publish must not count");
        // Empty op: watermark trivially complete, never "first".
        assert!(!arena.publish_all(1).is_first());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunking::PolicyKind;

    fn spec(n: usize, mean: f64, cv: f64) -> OpSpec {
        OpSpec {
            tasks: n,
            mean,
            std_dev: mean * cv,
            bytes_in: n as u64 * 128,
            bytes_out: n as u64 * 128,
            policy: PolicyKind::Taper,
        }
    }

    #[test]
    fn equal_ops_get_equal_processors() {
        let a = spec(2048, 50.0, 0.3);
        let cfg = MachineConfig::ncube2(64);
        let r = allocate_pair(&a, &a.clone(), 64, &cfg, &AllocParams::default());
        assert_eq!(r.p1, 32);
        assert_eq!(r.p2, 32);
        assert_eq!(r.iterations, 0, "already balanced");
    }

    #[test]
    fn bigger_op_gets_more_processors() {
        let big = spec(8192, 100.0, 0.3);
        let small = spec(512, 20.0, 0.3);
        let cfg = MachineConfig::ncube2(128);
        let r = allocate_pair(&big, &small, 128, &cfg, &AllocParams::default());
        assert!(r.p1 > r.p2, "A has 80× the work: p1={} p2={}", r.p1, r.p2);
        assert_eq!(r.p1 + r.p2, 128);
    }

    #[test]
    fn allocation_reduces_imbalance() {
        let big = spec(8192, 100.0, 0.5);
        let small = spec(1024, 10.0, 0.1);
        let cfg = MachineConfig::ncube2(256);
        let even_a = finish_estimate(&big, 128, &cfg).total();
        let even_b = finish_estimate(&small, 128, &cfg).total();
        let r = allocate_pair(&big, &small, 256, &cfg, &AllocParams::default());
        let before = (even_a - even_b).abs();
        let after = (r.est_a - r.est_b).abs();
        assert!(after < before, "imbalance must shrink: {before} → {after}");
    }

    #[test]
    fn iterations_bounded_by_max_count() {
        let big = spec(1_000_000, 100.0, 0.0);
        let small = spec(1, 1.0, 0.0);
        let cfg = MachineConfig::ncube2(1024);
        let r = allocate_pair(&big, &small, 1024, &cfg, &AllocParams::default());
        assert!(r.iterations <= 4);
        assert!(r.p1 >= 1 && r.p2 >= 1);
    }

    #[test]
    fn many_degenerates_to_all_for_single_op() {
        let cfg = MachineConfig::ncube2(64);
        let alloc = allocate_many(&[spec(100, 1.0, 0.0)], 64, &cfg, &AllocParams::default());
        assert_eq!(alloc, vec![64]);
    }

    #[test]
    fn many_allocates_all_processors() {
        let cfg = MachineConfig::ncube2(96);
        let ops = vec![spec(4096, 50.0, 0.2), spec(1024, 10.0, 1.0), spec(2048, 30.0, 0.5)];
        let alloc = allocate_many(&ops, 96, &cfg, &AllocParams::default());
        assert_eq!(alloc.iter().sum::<usize>(), 96);
        assert!(alloc.iter().all(|&a| a >= 1));
        // The heaviest op receives the most processors.
        assert!(alloc[0] >= alloc[1] && alloc[0] >= alloc[2]);
    }

    #[test]
    fn pair_and_many_agree_roughly() {
        let a = spec(8192, 100.0, 0.3);
        let b = spec(512, 20.0, 0.3);
        let cfg = MachineConfig::ncube2(128);
        let pair = allocate_pair(&a, &b, 128, &cfg, &AllocParams::default());
        let many = allocate_many(&[a, b], 128, &cfg, &AllocParams::default());
        // Same direction of skew.
        assert!(many[0] > many[1]);
        assert!(pair.p1 > pair.p2);
    }

    #[test]
    fn many_with_uses_the_supplied_estimator() {
        // A trivial work/p estimator must still skew toward the op
        // with more total work, without any MachineConfig in sight.
        let ops = vec![spec(8000, 1.0, 0.0), spec(1000, 1.0, 0.0)];
        let alloc = allocate_many_with(&ops, 8, &AllocParams::default(), |op, p| {
            op.total_work() / p as f64
        });
        assert_eq!(alloc.iter().sum::<usize>(), 8);
        assert!(alloc[0] > alloc[1], "8× work must earn more processors: {alloc:?}");
    }

    #[test]
    #[should_panic(expected = "at least two processors")]
    fn pair_rejects_single_processor() {
        let cfg = MachineConfig::ncube2(1);
        allocate_pair(&spec(1, 1.0, 0.0), &spec(1, 1.0, 0.0), 1, &cfg, &AllocParams::default());
    }
}
