//! Runtime processor allocation (§4.1.2).
//!
//! When parallel operations execute concurrently, the runtime rations
//! processors between them by equalizing their finishing-time
//! estimates: the paper's min–max, each of `k` operations holding at
//! least one of `p` processors and the latest estimate as early as it
//! can be. [`allocate_many`] solves it exactly over the caller's
//! estimator (the simulator's `finish_estimate`, the pool's and the
//! daemon's `finish_estimate_live`) by a dynamic program over the ops:
//!
//! ```text
//! latest[0][s] = est(op 0, s)
//! latest[j][s] = min over q of max(latest[j−1][s−q], est(op j, q));  held[j][s] = that q
//! ```
//!
//! read back from `s = p`, the last op first. **Ties:** `q` is scanned
//! upward and replaced only by a strictly smaller value, so among equal
//! optima each later op takes the fewest processors and op 0 holds the
//! rest. **Cost:** `k·(p−k+1)` estimates; each middle op costs `O(p²)`
//! compares and the first and last `O(p)`, so a two-op level is `O(p)`.
//!
//! There is no ε or iteration budget: `figures ablate-iters` measures
//! the paper's listing, a heuristic for the same problem, against this
//! answer. Nor are demands read off the monotone envelope
//! `min_{r≤q} est(r)`: the estimate is not monotone in `p` (`setup`
//! grows with `log p`, `lag` with `√ln p`), so spare processors an
//! envelope rule hands to an op can raise its raw estimate past the
//! optimum.
//!
//! This module also owns the runtime's other allocation concern: the
//! [`OutputArena`], one zero-allocated buffer per operation. Workers
//! write task results in place through raw stores into the cells of
//! the chunks they claimed instead of going through per-task atomic
//! stores, downstream operations read their inputs by slice reference
//! out of the same buffers, and the run hands the buffers out as its
//! outputs — the zero-copy data plane described in DESIGN §14.

use crate::finish::OpSpec;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Rations `p` processors among `k ≥ 1` concurrently executing
/// operations: the allocation of all `p`, each op holding at least
/// one, whose largest `est(op, procs)` is the least possible (ties as
/// the module doc states).
///
/// # Panics
///
/// Panics if `ops` is empty or `p < ops.len()` (each operation needs at
/// least one processor).
pub fn allocate_many(ops: &[OpSpec], p: usize, est: impl Fn(&OpSpec, usize) -> f64) -> Vec<usize> {
    let k = ops.len();
    assert!(k >= 1, "need at least one operation");
    assert!(p >= k, "need at least one processor per operation");
    if k == 1 {
        return vec![p];
    }
    // The most processors one op can hold: the others keep one each.
    let most = p - k + 1;
    // `latest[s]`: the least latest estimate ops 0..=j reach on exactly
    // `s` processors; for op 0 alone, its own estimate.
    let mut latest: Vec<f64> =
        std::iter::once(f64::INFINITY).chain((1..=most).map(|q| est(&ops[0], q))).collect();
    let mut held: Vec<Vec<usize>> = Vec::with_capacity(k - 1);
    for (j, op) in ops.iter().enumerate().skip(1) {
        let e: Vec<f64> = (1..=most).map(|q| est(op, q)).collect();
        // Ops 0..=j hold s ∈ j+1 ..= p−(k−1−j); the last op needs only s = p.
        let first = if j + 1 == k { p } else { j + 1 };
        let mut next = vec![f64::INFINITY; p - (k - 1 - j) + 1];
        let mut took = vec![0usize; next.len()];
        for s in first..next.len() {
            let (mut best, mut arg) = (latest[s - 1].max(e[0]), 1);
            for q in 2..=s - j {
                let v = latest[s - q].max(e[q - 1]);
                if v < best {
                    (best, arg) = (v, q);
                }
            }
            (next[s], took[s]) = (best, arg);
        }
        latest = next;
        held.push(took);
    }
    let mut alloc = vec![0; k];
    let mut s = p;
    for (j, took) in held.iter().enumerate().rev() {
        alloc[j + 1] = took[s];
        s -= took[s];
    }
    alloc[0] = s;
    alloc
}

/// One output cell: a plain `f64` the runtime coordinates access to.
///
/// `Sync` is sound because every access pattern the runtime uses is
/// race-free by construction: concurrent *writers* hold disjoint cell
/// ranges (the chunk queue hands each task index out exactly once),
/// and *readers* only touch a cell after observing, with `Acquire`
/// ordering, a `Release` store the writer made after its plain store
/// (a watermark, a dependency counter, a checkpoint's `done` flag) —
/// or after the pool has joined, when no writer exists at all.
#[repr(transparent)]
struct OutputCell(UnsafeCell<f64>);

// SAFETY: see the type-level comment — all concurrent access is
// coordinated externally (disjoint claims for writers, Release/Acquire
// publication for readers).
unsafe impl Sync for OutputCell {}

/// One zero-allocated buffer per operation: the zero-copy data plane.
///
/// Built once from the expanded plan's op sizes, then shared by
/// reference across the worker pool (or the async drivers). Writers
/// store through the raw pointer [`cells`](Self::cells) hands out for
/// the chunk they claimed, the checkpoint scanner reads completed cells
/// via [`read`](Self::read), downstream ops see a whole op through
/// [`op_slice`](Self::op_slice), and once the pool has joined
/// [`into_outputs`](Self::into_outputs) hands every buffer out as the
/// run's owned output, where the workers wrote it.
pub struct OutputArena {
    bufs: Vec<Box<[OutputCell]>>,
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
    /// An arena with one zero-allocated buffer of `sizes[i]` cells per
    /// operation. A large buffer comes from the allocator already
    /// zeroed, so nothing here touches its cells.
    pub fn for_ops<I: IntoIterator<Item = usize>>(sizes: I) -> Self {
        let bufs: Vec<Box<[OutputCell]>> = sizes
            .into_iter()
            .map(|n| {
                let buf = Box::into_raw(vec![0.0f64; n].into_boxed_slice());
                // SAFETY: `OutputCell` is `repr(transparent)` over
                // `UnsafeCell<f64>`, which has the layout of `f64`, so the
                // allocation is a valid `[OutputCell]` of the same length;
                // the new box owns it alone.
                unsafe { Box::from_raw(buf as *mut [OutputCell]) }
            })
            .collect();
        let marks = bufs
            .iter()
            .map(|_| Watermark {
                published: AtomicUsize::new(0),
                pubs: AtomicU64::new(0),
                state: Mutex::new(Frontier { frontier: 0, pending: Vec::new() }),
            })
            .collect();
        OutputArena { bufs, marks }
    }

    /// Number of operations the arena was sized for.
    pub fn ops(&self) -> usize {
        self.bufs.len()
    }

    /// Task count of operation `op`.
    pub fn op_len(&self, op: usize) -> usize {
        self.bufs[op].len()
    }

    /// Writes one cell through exclusive access — used to pre-fill
    /// restored outputs before the arena is shared with any worker.
    pub fn set(&mut self, op: usize, task: usize, value: f64) {
        *self.bufs[op][task].0.get_mut() = value;
    }

    /// The write window of operation `op`'s cells `span`: a raw pointer
    /// to the first, bounds-checked once for the whole span, through
    /// which the span's claimant stores cell `span.start + k` at offset
    /// `k`. The stores never form a `&mut`, so they may overlap a
    /// consumer's [`op_slice`](Self::op_slice) of the same op (a
    /// streamed edge) — writing is sound only for the claimant of
    /// exactly these cells, and a reader may read a cell only after an
    /// `Acquire` that pairs with a `Release` made after its store.
    ///
    /// # Panics
    ///
    /// Panics if `span` exceeds the operation's buffer.
    pub fn cells(&self, op: usize, span: Range<usize>) -> *mut f64 {
        let buf = &self.bufs[op];
        assert!(
            span.start <= span.end && span.end <= buf.len(),
            "cells {span:?} out of op {op} bounds {}",
            buf.len()
        );
        // `wrapping_add` keeps this safe; `span.start ≤ len` was just
        // checked, so the offset stays inside (or one past) the buffer.
        UnsafeCell::raw_get(buf.as_ptr().wrapping_add(span.start).cast())
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
        // SAFETY: indexing is bounds-checked; quiescence is the
        // caller's contract.
        unsafe { *self.bufs[op][task].0.get() }
    }

    /// The whole output slice of operation `op`, handed to downstream
    /// ops as their input — no copy.
    ///
    /// # Safety
    ///
    /// The caller reads only cells whose stores it has observed: every
    /// task of `op` completed and that completion seen with `Acquire`
    /// ordering (in the runtime: dependency counters reach zero before
    /// any dependent runs), or — a streamed edge — only cells below the
    /// `Acquire`-loaded [`watermark`](Self::watermark).
    pub unsafe fn op_slice(&self, op: usize) -> &[f64] {
        let buf = &self.bufs[op];
        // SAFETY: the buffer's own pointer and length (dangling but
        // aligned when empty); `OutputCell` has the layout of `f64`;
        // what is read is the caller's contract.
        unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<f64>(), buf.len()) }
    }

    /// Consumes the arena into one owned `Vec<f64>` per operation: the
    /// buffers the workers wrote, handed out without a copy. Safe:
    /// ownership proves no writer or reader can still exist.
    pub fn into_outputs(self) -> Vec<Vec<f64>> {
        self.bufs
            .into_iter()
            .map(|buf| {
                let buf = Box::into_raw(buf);
                // SAFETY: the reverse of `for_ops`' cast — the same
                // allocation, layout and length, owned by the new box alone.
                unsafe { Box::from_raw(buf as *mut [f64]) }.into_vec()
            })
            .collect()
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
        let total = self.bufs[op].len();
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
        let total = self.bufs[op].len();
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
    fn buffers_are_disjoint_and_sized() {
        let arena = OutputArena::for_ops([3, 0, 5]);
        assert_eq!(arena.ops(), 3);
        assert_eq!(arena.op_len(0), 3);
        assert_eq!(arena.op_len(1), 0);
        assert_eq!(arena.op_len(2), 5);
        let (a, b) = (arena.cells(0, 0..3), arena.cells(2, 1..3));
        // SAFETY: single-threaded test, every store in bounds of its
        // window and no slice of either op alive.
        unsafe {
            for (k, v) in [1.0, 2.0, 3.0].into_iter().enumerate() {
                a.add(k).write(v);
            }
            b.write(9.0);
            b.add(1).write(8.0);
        }
        let out = arena.into_outputs();
        assert_eq!(out, vec![vec![1.0, 2.0, 3.0], vec![], vec![0.0, 9.0, 8.0, 0.0, 0.0]]);
    }

    /// The run's outputs are the buffers downstream ops read: each comes
    /// out at the address its `op_slice` had, a zero-task op included.
    #[test]
    fn outputs_are_handed_out_where_they_were_written() {
        let arena = OutputArena::for_ops([1 << 16, 0, 3]);
        // SAFETY: no writers in this test.
        let seen: Vec<*const f64> =
            (0..arena.ops()).map(|op| unsafe { arena.op_slice(op) }.as_ptr()).collect();
        let out = arena.into_outputs();
        assert_eq!(out.iter().map(|o| o.as_ptr()).collect::<Vec<_>>(), seen);
        assert_eq!(out.iter().map(Vec::len).collect::<Vec<_>>(), [1 << 16, 0, 3]);
        assert!(out.iter().flatten().all(|&v| v.to_bits() == 0), "zero-allocated");
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
    fn cells_are_bounds_checked() {
        let arena = OutputArena::for_ops([4, 1]);
        assert!(!arena.cells(1, 1..1).is_null(), "an empty window one past the end");
        let _ = arena.cells(0, 2..5);
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
    use crate::finish::{finish_estimate, finish_estimate_live, HostCalibration};
    use orchestra_machine::MachineConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// `ops`' allocation on the modeled machine `ncube2(p)`.
    fn modeled(ops: &[OpSpec], p: usize) -> Vec<usize> {
        let cfg = MachineConfig::ncube2(p);
        allocate_many(ops, p, |op, q| finish_estimate(op, q, &cfg).total())
    }

    #[test]
    fn equal_ops_get_equal_processors() {
        let a = spec(2048, 50.0, 0.3);
        assert_eq!(modeled(&[a, a], 64), [32, 32], "already balanced");
    }

    #[test]
    fn bigger_op_gets_more_processors() {
        let big = spec(8192, 100.0, 0.3);
        let small = spec(512, 20.0, 0.3);
        let alloc = modeled(&[big, small], 128);
        assert!(alloc[0] > alloc[1], "A has 80× the work: {alloc:?}");
        assert_eq!(alloc[0] + alloc[1], 128);
    }

    #[test]
    fn allocation_reduces_imbalance() {
        let big = spec(8192, 100.0, 0.5);
        let small = spec(1024, 10.0, 0.1);
        let cfg = MachineConfig::ncube2(256);
        let imbalance = |p1: usize, p2: usize| {
            (finish_estimate(&big, p1, &cfg).total() - finish_estimate(&small, p2, &cfg).total())
                .abs()
        };
        let alloc = modeled(&[big, small], 256);
        let (before, after) = (imbalance(128, 128), imbalance(alloc[0], alloc[1]));
        assert!(after < before, "imbalance must shrink: {before} → {after}");
    }

    /// An op whose estimate is negligible at one processor keeps just
    /// that one: the rest shortens the heavy op.
    #[test]
    fn a_negligible_op_keeps_one_processor() {
        let big = spec(1_000_000, 100.0, 0.0);
        let small = spec(1, 1.0, 0.0);
        assert_eq!(modeled(&[big, small], 1024), [1023, 1]);
        assert_eq!(modeled(&[big, small, small], 1024), [1022, 1, 1]);
    }

    /// Two equal ops whose estimate stops falling at `n` processors:
    /// every split that gives each at least `n` is optimal, and the
    /// later op takes the fewest, so op 0 holds the rest.
    #[test]
    fn among_equal_optima_the_later_ops_take_the_fewest() {
        let op = spec(4, 1.0, 0.0);
        let est = |op: &OpSpec, q: usize| op.tasks as f64 * op.mean / q.min(op.tasks) as f64;
        assert_eq!(allocate_many(&[op, op], 16, est), [12, 4]);
        assert_eq!(allocate_many(&[op, op, op], 16, est), [8, 4, 4]);
    }

    #[test]
    fn many_degenerates_to_all_for_single_op() {
        assert_eq!(modeled(&[spec(100, 1.0, 0.0)], 64), vec![64]);
    }

    #[test]
    fn many_allocates_all_processors() {
        let ops = vec![spec(4096, 50.0, 0.2), spec(1024, 10.0, 1.0), spec(2048, 30.0, 0.5)];
        let alloc = modeled(&ops, 96);
        assert_eq!(alloc.iter().sum::<usize>(), 96);
        assert!(alloc.iter().all(|&a| a >= 1));
        // The heaviest op receives the most processors.
        assert!(alloc[0] >= alloc[1] && alloc[0] >= alloc[2]);
    }

    #[test]
    fn uses_the_supplied_estimator() {
        // A trivial work/p estimator must still skew toward the op
        // with more total work, without any MachineConfig in sight.
        let ops = vec![spec(8000, 1.0, 0.0), spec(1000, 1.0, 0.0)];
        let alloc = allocate_many(&ops, 8, |op, p| op.total_work() / p as f64);
        assert_eq!(alloc, [7, 1], "8× work must earn more processors");
    }

    #[test]
    #[should_panic(expected = "at least one processor per operation")]
    fn fewer_processors_than_ops_is_refused() {
        let op = spec(1, 1.0, 0.0);
        modeled(&[op, op, op], 2);
    }

    /// The least largest estimate over every allocation of all `p`
    /// processors to `table.len()` ops (each ≥ 1), where `table[j][q−1]`
    /// is op `j`'s estimate on `q`.
    fn brute_force(table: &[Vec<f64>], p: usize) -> f64 {
        fn go(table: &[Vec<f64>], left: usize, worst: f64) -> f64 {
            match table {
                [last] => worst.max(last[left - 1]),
                [op, rest @ ..] => (1..=left - rest.len())
                    .map(|q| go(rest, left - q, worst.max(op[q - 1])))
                    .fold(f64::INFINITY, f64::min),
                [] => unreachable!("at least one op"),
            }
        }
        go(table, p, f64::NEG_INFINITY)
    }

    /// The allocation is exact on the raw estimate: no allocation of all
    /// `p` processors has a smaller largest estimate. Brute-forced over
    /// k ≤ 3 and p ≤ 24 for the modeled machine's estimate (bytes up to
    /// 4 KiB per task, so `setup` grows with `p` and the estimate is not
    /// monotone), the live estimate on the same specs, and arbitrary
    /// tables with ties.
    #[test]
    fn the_allocation_is_the_exact_min_max() {
        let policies = [
            PolicyKind::Static,
            PolicyKind::SelfSched,
            PolicyKind::Gss,
            PolicyKind::Factoring,
            PolicyKind::Taper,
            PolicyKind::TaperCostFn,
        ];
        let cal = HostCalibration::with_overhead(0.5);
        let mut rng = StdRng::seed_from_u64(18);
        for case in 0..10_000 {
            let k = rng.gen_range(1..=3usize);
            let p = rng.gen_range(k..=24usize);
            let ops: Vec<OpSpec> = (0..k)
                .map(|_| {
                    let tasks = rng.gen_range(1..=4096usize);
                    let mean = rng.gen_range(0.5..500.0);
                    let bytes = rng.gen_range(0..=4096u64);
                    OpSpec {
                        tasks,
                        mean,
                        std_dev: mean * rng.gen_range(0.0..2.0),
                        bytes_in: tasks as u64 * bytes,
                        bytes_out: tasks as u64 * rng.gen_range(0..=bytes),
                        policy: policies[rng.gen_range(0..policies.len())],
                    }
                })
                .collect();
            let cfg = MachineConfig::ncube2(p);
            let tabulate = |est: &dyn Fn(&OpSpec, usize) -> f64| -> Vec<Vec<f64>> {
                ops.iter().map(|op| (1..=p).map(|q| est(op, q)).collect()).collect()
            };
            let tables = [
                ("modeled", tabulate(&|op, q| finish_estimate(op, q, &cfg).total())),
                ("live", tabulate(&|op, q| finish_estimate_live(op, q, &cal).total())),
                (
                    "table",
                    (0..k).map(|_| (0..p).map(|_| rng.gen_range(0..40) as f64).collect()).collect(),
                ),
            ];
            for (name, table) in tables {
                // Equal specs are told apart by address.
                let index = |op: &OpSpec| ops.iter().position(|o| std::ptr::eq(o, op)).unwrap();
                let alloc = allocate_many(&ops, p, |op, q| table[index(op)][q - 1]);
                let ctx = format!("case {case} ({name}, k={k}, p={p}): {alloc:?} for {ops:?}");
                assert_eq!(alloc.iter().sum::<usize>(), p, "{ctx}");
                assert!(alloc.iter().all(|&a| a >= 1), "{ctx}");
                let got = alloc
                    .iter()
                    .enumerate()
                    .map(|(j, &q)| table[j][q - 1])
                    .fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(got, brute_force(&table, p), "{ctx}");
            }
        }
    }
}
