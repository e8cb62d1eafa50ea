//! The shared claim-next-chunk queue driving one parallel operation on
//! real threads.
//!
//! This is the concurrent counterpart of the simulator's scheduling
//! loop in [`crate::par_op`]: idle workers claim the next chunk whose
//! size the [`ChunkPolicy`] chooses, so TAPER, GSS, factoring, and
//! self-scheduling all drive real execution through the exact same
//! policy objects the simulator uses.
//!
//! Two claim paths, chosen at construction:
//!
//! * **Fixed** — policies whose chunk sequence never depends on
//!   observed task times (self-scheduling, GSS, factoring) declare it
//!   up front via [`ChunkPolicy::fixed_schedule`]. The queue
//!   precomputes the chunk boundaries and a claim is one
//!   check-then-claim `compare_exchange` on an atomic cursor: no lock
//!   anywhere on the per-task or per-chunk hot path, task-time
//!   feedback is a no-op, and a claim on an exhausted queue is a pure
//!   load (stale steal attempts never write the contended line).
//! * **Adaptive** — TAPER resizes chunks from live µ/σ samples, but its
//!   claim path is lock-free too: the policy's latest chunk-size
//!   decision is published in a padded atomic *epoch descriptor*
//!   (`epoch_end << 32 | chunk_len`), and a claim is one `fetch_add`
//!   on a task cursor plus a bounds check. Only when a claim crosses
//!   the published epoch end does the claiming worker `try_lock` the
//!   policy, recompute the chunk size at the new frontier, and publish
//!   the next descriptor — losers of that race keep claiming at the
//!   (one epoch stale) size and never block. Batched
//!   [`observe_chunk`](ChunkPolicy::observe_chunk) feedback — one merge
//!   per *completed chunk*, from a worker-local [`OnlineStats`] — is
//!   the only other place the policy mutex is taken, and it is never
//!   on the claim path.

use crate::chunking::ChunkPolicy;
use crate::stats::OnlineStats;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A contiguous block of task indices claimed by one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First task index.
    pub start: usize,
    /// Number of tasks.
    pub len: usize,
}

impl Chunk {
    /// The claimed indices, `start..start + len`.
    #[inline]
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// Outcome of a watermark-bounded claim ([`ChunkQueue::claim_bounded`]).
///
/// Distinguishes "nothing left, ever" from "more tasks exist but the
/// producer has not published them yet" — a consumer must *park* on the
/// latter (the producer re-tokens it at the next watermark publication)
/// and *finish* on the former.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundedClaim {
    /// A chunk entirely below the watermark limit was claimed.
    Chunk(Chunk),
    /// Unclaimed tasks remain, but the next one sits at or above the
    /// watermark limit: the producer has not committed its input yet.
    Blocked,
    /// The iteration space is exhausted; no claim will ever succeed.
    Exhausted,
}

/// Pads a hot atomic onto its own cache line so the claim cursor and
/// the epoch descriptor never false-share with each other or with the
/// policy mutex.
#[repr(align(64))]
struct Padded<T>(T);

/// State of an observation-driven (TAPER) queue: a lock-free claim
/// cursor over the task space, the published epoch descriptor, and the
/// policy object behind a mutex that the claim path only ever
/// `try_lock`s (on epoch rollover).
struct AdaptiveMode {
    /// Next unclaimed task index; a claim is one `fetch_add` of the
    /// published chunk length.
    cursor: Padded<AtomicUsize>,
    /// The published decision: `(epoch_end << 32) | chunk_len`, where
    /// `epoch_end` is the task index at which the size should be
    /// recomputed (one decision serves ~`workers` chunks).
    plan: Padded<AtomicU64>,
    /// Locked to publish the next epoch's decision (`try_lock`; the
    /// loser keeps claiming at the stale size) and by `observe_chunk`
    /// feedback — never blocking on the claim path.
    policy: Mutex<Box<dyn ChunkPolicy + Send>>,
}

/// Packs an epoch descriptor. Task indices are asserted to fit 32 bits
/// at construction.
fn pack_plan(epoch_end: usize, chunk_len: usize) -> u64 {
    debug_assert!(epoch_end <= u32::MAX as usize && chunk_len <= u32::MAX as usize);
    ((epoch_end as u64) << 32) | chunk_len as u64
}

/// How far one published decision is allowed to reach: about one chunk
/// per worker, but never more than half the remaining space — TAPER's
/// early no-feedback decision is `remaining/p`, and letting p such
/// chunks stand would freeze the size for the whole operation. The
/// half-space cap keeps the decreasing-chunk shape (size recomputed at
/// a geometrically shrinking frontier) while still amortizing one
/// policy call over many claims. With one worker every chunk is its
/// own epoch, which reproduces per-claim decisions exactly.
fn epoch_span(chunk_len: usize, remaining: usize, workers: usize) -> usize {
    (chunk_len * workers).min((remaining / 2).max(chunk_len))
}

fn unpack_plan(d: u64) -> (usize, usize) {
    ((d >> 32) as usize, (d & u64::from(u32::MAX)) as usize)
}

enum Mode {
    /// Precomputed schedule: chunk `i` spans `bounds[i]..bounds[i+1]`;
    /// claiming is a lock-free cursor increment.
    Fixed { bounds: Vec<usize>, cursor: AtomicUsize },
    /// Observation-driven schedule claimed through the epoch
    /// descriptor.
    Adaptive(AdaptiveMode),
}

/// Claim-next-chunk queue over one operation's iteration space.
pub struct ChunkQueue {
    mode: Mode,
    chunks: AtomicU64,
    total: usize,
    workers: usize,
}

impl ChunkQueue {
    /// A queue over `total` tasks scheduled for `workers` workers.
    ///
    /// Policies that can precompute their whole chunk sequence get the
    /// lock-free fixed path; the rest stay adaptive.
    pub fn new(policy: Box<dyn ChunkPolicy + Send>, total: usize, workers: usize) -> Self {
        let workers = workers.max(1);
        let mode = match policy.fixed_schedule(total, workers) {
            Some(sizes) => {
                let mut bounds = Vec::with_capacity(sizes.len() + 1);
                bounds.push(0usize);
                let mut acc = 0usize;
                for k in sizes {
                    acc += k;
                    bounds.push(acc);
                }
                debug_assert_eq!(acc, total, "fixed schedule must cover the iteration space");
                Mode::Fixed { bounds, cursor: AtomicUsize::new(0) }
            }
            None => {
                let mut policy = policy;
                assert!(
                    total < u32::MAX as usize,
                    "adaptive epoch descriptor packs task indices into 32 bits"
                );
                // Publish the first decision up front so claim never
                // needs the lock to get started.
                let plan = if total == 0 {
                    pack_plan(0, 0)
                } else {
                    let k = policy.next_chunk(0, total, workers).clamp(1, total);
                    pack_plan(epoch_span(k, total, workers).min(total), k)
                };
                Mode::Adaptive(AdaptiveMode {
                    cursor: Padded(AtomicUsize::new(0)),
                    plan: Padded(AtomicU64::new(plan)),
                    policy: Mutex::new(policy),
                })
            }
        };
        ChunkQueue { mode, chunks: AtomicU64::new(0), total, workers }
    }

    /// Claims the next chunk, or `None` when the iteration space is
    /// exhausted. Each task index is handed out exactly once across
    /// all claimants.
    pub fn claim(&self) -> Option<Chunk> {
        let chunk = match &self.mode {
            Mode::Fixed { bounds, cursor } => {
                // Check-then-claim: the cursor never advances past the
                // chunk count, so a post-exhaustion claim (a stale
                // steal attempt) is a single load — no `fetch_add`
                // hammering the contended cache line, and no unbounded
                // cursor growth.
                let n_chunks = bounds.len() - 1;
                let mut i = cursor.load(Ordering::Relaxed);
                loop {
                    if i >= n_chunks {
                        return None;
                    }
                    match cursor.compare_exchange_weak(
                        i,
                        i + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(seen) => i = seen,
                    }
                }
                Chunk { start: bounds[i], len: bounds[i + 1] - bounds[i] }
            }
            Mode::Adaptive(ad) => {
                // Pure-load precheck: a claim on an exhausted queue (a
                // stale steal attempt, or a claim storm after the run)
                // never writes the contended cursor line.
                if ad.cursor.0.load(Ordering::Relaxed) >= self.total {
                    return None;
                }
                let (end, k) = unpack_plan(ad.plan.0.load(Ordering::Acquire));
                let start = ad.cursor.0.fetch_add(k, Ordering::Relaxed);
                if start >= self.total {
                    // Lost the exhaustion race by a whisker; the
                    // precheck stops any further RMWs from this point.
                    return None;
                }
                let len = k.min(self.total - start);
                // Crossing the published epoch end is the one place a
                // critical section exists — and it is a `try_lock`:
                // the winner recomputes the size at the new frontier,
                // everyone else claims on at the stale size.
                if start + len >= end {
                    self.advance_epoch(ad);
                }
                Chunk { start, len }
            }
        };
        self.chunks.fetch_add(1, Ordering::Relaxed);
        Some(chunk)
    }

    /// Claims the next chunk whose task indices all lie strictly below
    /// `limit` — the streamed-edge consumer path, where `limit` is the
    /// minimum producer watermark read fresh at every claim.
    ///
    /// * **Fixed** queues never split a precomputed chunk: the claim
    ///   blocks until the watermark covers the whole next chunk, which
    ///   keeps the handed-out chunk sequence identical to the unbounded
    ///   path (the differential suites replay it bitwise).
    /// * **Adaptive** queues truncate the claimed length at the limit —
    ///   the descriptor's size decision is a target, not a contract, so
    ///   a shorter chunk is indistinguishable from a policy decision.
    ///
    /// `limit >= total` delegates to [`Self::claim`], so whole-op
    /// (non-streamed) consumers pay nothing for the shared call site.
    pub fn claim_bounded(&self, limit: usize) -> BoundedClaim {
        if limit >= self.total {
            return match self.claim() {
                Some(c) => BoundedClaim::Chunk(c),
                None => BoundedClaim::Exhausted,
            };
        }
        let chunk = match &self.mode {
            Mode::Fixed { bounds, cursor } => {
                let n_chunks = bounds.len() - 1;
                let mut i = cursor.load(Ordering::Relaxed);
                loop {
                    if i >= n_chunks {
                        return BoundedClaim::Exhausted;
                    }
                    if bounds[i + 1] > limit {
                        // The next precomputed chunk reaches past the
                        // watermark; claiming it would read cells the
                        // producer has not committed.
                        return BoundedClaim::Blocked;
                    }
                    match cursor.compare_exchange_weak(
                        i,
                        i + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(seen) => i = seen,
                    }
                }
                Chunk { start: bounds[i], len: bounds[i + 1] - bounds[i] }
            }
            Mode::Adaptive(ad) => {
                // The unbounded path's `fetch_add` would overshoot the
                // limit, handing out tasks above the watermark — so the
                // bounded path claims by CAS with the length truncated
                // at the limit. Slightly more contention than
                // `fetch_add`, paid only by streamed consumers whose
                // producer is still running.
                let (end, k) = unpack_plan(ad.plan.0.load(Ordering::Acquire));
                let mut start = ad.cursor.0.load(Ordering::Relaxed);
                let len = loop {
                    if start >= self.total {
                        return BoundedClaim::Exhausted;
                    }
                    if start >= limit {
                        return BoundedClaim::Blocked;
                    }
                    let len = k.min(self.total - start).min(limit - start).max(1);
                    match ad.cursor.0.compare_exchange_weak(
                        start,
                        start + len,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break len,
                        Err(seen) => start = seen,
                    }
                };
                if start + len >= end {
                    self.advance_epoch(ad);
                }
                Chunk { start, len }
            }
        };
        self.chunks.fetch_add(1, Ordering::Relaxed);
        BoundedClaim::Chunk(chunk)
    }

    /// Publishes the next epoch descriptor: chunk size recomputed by
    /// the policy at the current claim frontier, valid for roughly one
    /// chunk per worker. Non-blocking — if another worker is already
    /// publishing (or a feedback merge holds the lock), this claimant
    /// simply keeps the stale size for one more chunk.
    fn advance_epoch(&self, ad: &AdaptiveMode) {
        let Ok(mut policy) = ad.policy.try_lock() else {
            return;
        };
        let next = ad.cursor.0.load(Ordering::Relaxed);
        if next >= self.total {
            return;
        }
        // Another claimant may have published past the frontier while
        // we raced for the lock; never move the descriptor backwards.
        let (end, _) = unpack_plan(ad.plan.0.load(Ordering::Relaxed));
        if end > next {
            return;
        }
        let remaining = self.total - next;
        let k = policy.next_chunk(next, remaining, self.workers).clamp(1, remaining);
        let new_end = next.saturating_add(epoch_span(k, remaining, self.workers)).min(self.total);
        ad.plan.0.store(pack_plan(new_end, k), Ordering::Release);
    }

    /// Feeds one completed chunk's task-time statistics back to the
    /// adaptive policy — the worker's locally accumulated µ/σ merged
    /// in one short critical section. No-op (and no lock) for fixed
    /// schedules.
    pub fn observe_chunk(&self, start: usize, len: usize, stats: &OnlineStats) {
        if let Mode::Adaptive(ad) = &self.mode {
            let mut policy = ad.policy.lock().expect("chunk queue poisoned");
            policy.observe_chunk(start, len, stats);
        }
    }

    /// Non-blocking feedback for the claim hot path: drains a worker's
    /// locally buffered per-chunk statistics into the policy only if
    /// the lock is free right now. On an oversubscribed host a
    /// blocking `lock()` per chunk means a futex sleep whenever the
    /// holder is descheduled — worth microseconds per chunk, which
    /// dwarfs tiny tasks. Buffering keeps the feedback *exact* (the
    /// same `observe_chunk` calls, merely time-shifted); feedback that
    /// never wins the lock before the queue drains is dropped, which
    /// is sound because the policy only uses it to size this op's
    /// remaining chunks. Clears the buffer without locking for fixed
    /// schedules (which ignore feedback entirely).
    pub fn try_observe_pending(&self, pending: &mut Vec<(usize, usize, OnlineStats)>) {
        if pending.is_empty() {
            return;
        }
        match &self.mode {
            Mode::Adaptive(ad) => {
                if let Ok(mut policy) = ad.policy.try_lock() {
                    for (start, len, stats) in pending.drain(..) {
                        policy.observe_chunk(start, len, &stats);
                    }
                }
            }
            Mode::Fixed { .. } => pending.clear(),
        }
    }

    /// Whether unclaimed chunks probably remain (a racy hint: workers
    /// use it to decide if an operation is worth advertising to
    /// thieves; exactness is guaranteed by [`Self::claim`], not here).
    /// One direction *is* exact: once the final chunk has been handed
    /// out, this never reports `true` again — both paths derive the
    /// hint from the same atomic cursor a claim advances, so the hint
    /// flips in the very `fetch_add`/CAS that hands the final chunk
    /// out, with no window for a stale `true`.
    pub fn has_more(&self) -> bool {
        match &self.mode {
            Mode::Fixed { bounds, cursor } => cursor.load(Ordering::Relaxed) + 1 < bounds.len(),
            Mode::Adaptive(ad) => ad.cursor.0.load(Ordering::Relaxed) < self.total,
        }
    }

    /// The fixed-mode claim cursor (number of claims that advanced
    /// it), or `None` for adaptive queues. Exposed so stress tests can
    /// assert that post-exhaustion claim storms do not grow the
    /// cursor beyond the chunk count.
    pub fn fixed_cursor(&self) -> Option<usize> {
        match &self.mode {
            Mode::Fixed { cursor, .. } => Some(cursor.load(Ordering::Relaxed)),
            Mode::Adaptive(_) => None,
        }
    }

    /// Whether this queue resizes chunks from live observations
    /// (TAPER). Adaptive queues want per-chunk timing feedback through
    /// [`Self::observe_chunk`]; fixed-schedule queues ignore it. Both
    /// kinds claim lock-free — the distinction is about feedback, not
    /// about locking.
    pub fn is_adaptive(&self) -> bool {
        matches!(self.mode, Mode::Adaptive(_))
    }

    /// Chunks handed out so far.
    pub fn chunks_claimed(&self) -> u64 {
        self.chunks.load(Ordering::Relaxed)
    }

    /// Tasks not yet handed out (racy snapshot: claims in flight may
    /// already cover some of them). The allocation equalizer uses it
    /// as the live `N` of a finish estimate.
    pub fn remaining(&self) -> usize {
        match &self.mode {
            Mode::Fixed { bounds, cursor } => {
                let i = cursor.load(Ordering::Relaxed).min(bounds.len() - 1);
                self.total - bounds[i]
            }
            Mode::Adaptive(ad) => self.total.saturating_sub(ad.cursor.0.load(Ordering::Relaxed)),
        }
    }

    /// A snapshot of the µ/σ the adaptive policy has sampled so far —
    /// the *live* statistics the §4.1.2 equalizer estimates finishing
    /// times from. Non-blocking (`try_lock`): returns `None` when the
    /// policy is mid-update or keeps no statistics (fixed schedules),
    /// in which case the caller falls back to task counts.
    pub fn sampled_stats(&self) -> Option<OnlineStats> {
        match &self.mode {
            Mode::Adaptive(ad) => ad.policy.try_lock().ok().and_then(|p| p.live_stats()),
            Mode::Fixed { .. } => None,
        }
    }

    /// Total tasks in the operation.
    pub fn total(&self) -> usize {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunking::PolicyKind;
    use std::sync::Arc;

    fn drain_concurrently(kind: PolicyKind, total: usize, workers: usize) -> Vec<usize> {
        let q = Arc::new(ChunkQueue::new(kind.instantiate(total), total, workers));
        let mut handles = Vec::new();
        for _ in 0..workers {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(c) = q.claim() {
                    let mut stats = OnlineStats::new();
                    for i in c.start..c.start + c.len {
                        seen.push(i);
                        stats.observe(1.0);
                    }
                    q.observe_chunk(c.start, c.len, &stats);
                }
                seen
            }));
        }
        let mut all: Vec<usize> =
            handles.into_iter().flat_map(|h| h.join().expect("worker panicked")).collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn every_task_claimed_exactly_once() {
        for kind in [
            PolicyKind::SelfSched,
            PolicyKind::Gss,
            PolicyKind::Factoring,
            PolicyKind::Taper,
            PolicyKind::TaperCostFn,
        ] {
            let claimed = drain_concurrently(kind, 1000, 4);
            assert_eq!(claimed, (0..1000).collect::<Vec<_>>(), "{}", kind.name());
        }
    }

    #[test]
    fn empty_queue_yields_nothing() {
        let q = ChunkQueue::new(PolicyKind::Taper.instantiate(0), 0, 2);
        assert_eq!(q.claim(), None);
        assert_eq!(q.chunks_claimed(), 0);
        assert!(!q.has_more());
    }

    #[test]
    fn chunk_count_bounded_by_tasks() {
        let q = ChunkQueue::new(PolicyKind::Gss.instantiate(64), 64, 4);
        let mut n = 0;
        while q.claim().is_some() {
            n += 1;
        }
        assert!(n <= 64);
        assert_eq!(q.chunks_claimed(), n);
    }

    #[test]
    fn adaptive_detection_per_policy() {
        for kind in [PolicyKind::SelfSched, PolicyKind::Gss, PolicyKind::Factoring] {
            let q = ChunkQueue::new(kind.instantiate(100), 100, 4);
            assert!(!q.is_adaptive(), "{}", kind.name());
        }
        for kind in [PolicyKind::Taper, PolicyKind::TaperCostFn] {
            let q = ChunkQueue::new(kind.instantiate(100), 100, 4);
            assert!(q.is_adaptive(), "{}", kind.name());
        }
    }

    #[test]
    fn adaptive_epochs_span_one_chunk_per_worker() {
        // Single claimant, 4 workers: the descriptor's decision serves
        // ~4 chunks, so runs of equal chunk sizes appear in groups and
        // the whole space is still covered tightly.
        let q = ChunkQueue::new(PolicyKind::Taper.instantiate(1000), 1000, 4);
        let mut next = 0usize;
        let mut sizes = Vec::new();
        while let Some(c) = q.claim() {
            assert_eq!(c.start, next, "claims must be contiguous");
            next += c.len;
            sizes.push(c.len);
        }
        assert_eq!(next, 1000);
        assert!(sizes.len() > 4, "1000 tasks over 4 workers must take many chunks");
        // TAPER with no feedback decays like GSS: sizes never grow
        // within the drain (each epoch recomputes at a smaller
        // remaining count).
        assert!(sizes.windows(2).all(|w| w[1] <= w[0]), "sizes grew: {sizes:?}");
    }

    #[test]
    fn adaptive_rollover_republish_is_monotone() {
        // Force many rollovers with tiny chunks (self-sched-like TAPER
        // tail) and verify the descriptor never hands out overlapping
        // or out-of-range chunks even when every claim crosses an
        // epoch boundary (workers = 1 makes every chunk its own epoch).
        let q = ChunkQueue::new(PolicyKind::TaperCostFn.instantiate(257), 257, 1);
        let mut covered = vec![false; 257];
        while let Some(c) = q.claim() {
            assert!(c.start + c.len <= 257, "chunk out of range: {c:?}");
            for slot in &mut covered[c.start..c.start + c.len] {
                assert!(!*slot, "task handed out twice");
                *slot = true;
            }
            let mut stats = OnlineStats::new();
            for i in 0..c.len {
                stats.observe(1.0 + (i % 3) as f64);
            }
            q.observe_chunk(c.start, c.len, &stats);
        }
        assert!(covered.iter().all(|&b| b), "iteration space not covered");
    }

    #[test]
    fn fixed_path_replays_the_policy_chunk_sequence() {
        // The lock-free cursor must hand out exactly the chunks the
        // policy would have chosen one scheduling event at a time.
        for kind in [PolicyKind::SelfSched, PolicyKind::Gss, PolicyKind::Factoring] {
            let q = ChunkQueue::new(kind.instantiate(500), 500, 8);
            let mut reference = kind.instantiate(500);
            let mut remaining = 500usize;
            let mut next = 0usize;
            while let Some(c) = q.claim() {
                let k = reference.next_chunk(next, remaining, 8).clamp(1, remaining);
                assert_eq!(c, Chunk { start: next, len: k }, "{}", kind.name());
                next += k;
                remaining -= k;
            }
            assert_eq!(remaining, 0, "{}", kind.name());
        }
    }

    #[test]
    fn exhausted_has_more_is_false_and_claims_stay_none() {
        let q = ChunkQueue::new(PolicyKind::SelfSched.instantiate(3), 3, 2);
        while q.claim().is_some() {}
        assert!(!q.has_more());
        // Extra claims after exhaustion (stale steal attempts) are
        // harmless.
        for _ in 0..10 {
            assert_eq!(q.claim(), None);
        }
    }

    #[test]
    fn fixed_cursor_capped_at_chunk_count() {
        let q = ChunkQueue::new(PolicyKind::SelfSched.instantiate(5), 5, 2);
        let mut n = 0usize;
        while q.claim().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
        assert_eq!(q.fixed_cursor(), Some(5));
        // Post-exhaustion claims must not advance the cursor at all.
        for _ in 0..1000 {
            assert_eq!(q.claim(), None);
        }
        assert_eq!(q.fixed_cursor(), Some(5), "stale claims grew the cursor");
        // Adaptive queues have no fixed cursor.
        assert_eq!(ChunkQueue::new(PolicyKind::Taper.instantiate(5), 5, 2).fixed_cursor(), None);
    }

    #[test]
    fn bounded_claims_respect_limit_fixed() {
        // Self-scheduling precomputes unit chunks, so the bounded path
        // must hand out exactly `limit` tasks and then report Blocked
        // (not Exhausted) until the limit rises.
        let q = ChunkQueue::new(PolicyKind::SelfSched.instantiate(8), 8, 2);
        assert_eq!(q.claim_bounded(0), BoundedClaim::Blocked);
        let mut covered = 0usize;
        loop {
            match q.claim_bounded(4) {
                BoundedClaim::Chunk(c) => {
                    assert!(c.start + c.len <= 4, "chunk past limit: {c:?}");
                    covered += c.len;
                }
                BoundedClaim::Blocked => break,
                BoundedClaim::Exhausted => panic!("exhausted with tasks above the limit"),
            }
        }
        assert_eq!(covered, 4);
        loop {
            match q.claim_bounded(usize::MAX) {
                BoundedClaim::Chunk(c) => covered += c.len,
                BoundedClaim::Exhausted => break,
                BoundedClaim::Blocked => panic!("blocked with the limit fully raised"),
            }
        }
        assert_eq!(covered, 8);
        assert_eq!(q.claim_bounded(usize::MAX), BoundedClaim::Exhausted);
    }

    #[test]
    fn bounded_claims_truncate_adaptive() {
        // TAPER with one worker wants `remaining/p = 100` up front; the
        // bounded path must truncate every claim at the watermark
        // instead of overshooting it.
        let q = ChunkQueue::new(PolicyKind::Taper.instantiate(100), 100, 1);
        let mut covered = 0usize;
        loop {
            match q.claim_bounded(10) {
                BoundedClaim::Chunk(c) => {
                    assert!(c.start + c.len <= 10, "chunk past limit: {c:?}");
                    covered += c.len;
                }
                BoundedClaim::Blocked => break,
                BoundedClaim::Exhausted => panic!("exhausted with tasks above the limit"),
            }
        }
        assert_eq!(covered, 10, "everything below the watermark must be claimable");
        assert_eq!(q.remaining(), 90);
        loop {
            match q.claim_bounded(usize::MAX) {
                BoundedClaim::Chunk(c) => covered += c.len,
                BoundedClaim::Exhausted => break,
                BoundedClaim::Blocked => panic!("blocked with the limit fully raised"),
            }
        }
        assert_eq!(covered, 100);
    }

    #[test]
    fn adaptive_has_more_false_once_final_chunk_handed_out() {
        // Single-threaded version of the invariant (the concurrent
        // storm lives in tests/sched_stress.rs): after each claim,
        // `has_more` must agree with whether the claim drained the
        // queue — the hint is derived from the same cursor the claim's
        // `fetch_add` advances, so there is no window where the final
        // chunk is out but the hint still says more work exists.
        let q = ChunkQueue::new(PolicyKind::Taper.instantiate(100), 100, 4);
        let mut handed = 0usize;
        while let Some(c) = q.claim() {
            handed += c.len;
            assert_eq!(q.has_more(), handed < 100, "hint diverges at {handed}/100");
        }
        assert!(!q.has_more());
    }
}
