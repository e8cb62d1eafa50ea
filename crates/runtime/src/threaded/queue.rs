//! The shared claim-next-chunk queue driving one parallel operation on
//! real threads.
//!
//! This is the concurrent counterpart of the simulator's scheduling
//! loop in [`crate::par_op`]: idle workers claim the next chunk whose
//! size the [`ChunkPolicy`] chooses, so TAPER, GSS, factoring, and
//! self-scheduling all drive real execution through the exact same
//! policy objects the simulator uses.
//!
//! Every policy claims the same way, lock-free. The policy's latest
//! chunk-size decision is published in a padded atomic *epoch
//! descriptor* (`epoch_end << 32 | chunk_len`), and a claim is one
//! `fetch_add` on a task cursor plus a bounds check. Only when a claim
//! crosses the published epoch end does the claiming worker `try_lock`
//! the policy, ask it for the size at the new frontier, and publish the
//! next descriptor — losers of that race keep claiming at the (one
//! epoch stale) size and never block. One decision serves about one
//! chunk per worker, so the policies differ only in what
//! [`next_chunk`](ChunkPolicy::next_chunk) returns once per epoch.
//! Batched [`observe_chunk`](ChunkPolicy::observe_chunk) feedback — one
//! merge per *completed chunk*, from a worker-local [`OnlineStats`], and
//! only for policies that sample task times (TAPER) — is the only other
//! place the policy mutex is taken, and it is never on the claim path.

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

/// Claim-next-chunk queue over one operation's iteration space: a
/// lock-free claim cursor, the published epoch descriptor, and the
/// policy behind a mutex that the claim path only ever `try_lock`s (on
/// epoch rollover).
pub struct ChunkQueue {
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
    /// Whether the policy samples task times, read once at
    /// construction.
    adaptive: bool,
    chunks: AtomicU64,
    total: usize,
    workers: usize,
}

impl ChunkQueue {
    /// A queue over `total` tasks scheduled for `workers` workers.
    ///
    /// The policy's first decision is published here, so a claim never
    /// needs the lock to get started — a policy that should start warm
    /// (a resumed op's snapshot statistics) must be warmed before it is
    /// handed in.
    pub fn new(mut policy: Box<dyn ChunkPolicy + Send>, total: usize, workers: usize) -> Self {
        let workers = workers.max(1);
        assert!(total < u32::MAX as usize, "the epoch descriptor packs task indices into 32 bits");
        let plan = if total == 0 {
            pack_plan(0, 0)
        } else {
            let k = policy.next_chunk(0, total, workers).clamp(1, total);
            pack_plan(epoch_span(k, total, workers).min(total), k)
        };
        ChunkQueue {
            cursor: Padded(AtomicUsize::new(0)),
            plan: Padded(AtomicU64::new(plan)),
            adaptive: policy.live_stats().is_some(),
            policy: Mutex::new(policy),
            chunks: AtomicU64::new(0),
            total,
            workers,
        }
    }

    /// Claims the next chunk, or `None` when the iteration space is
    /// exhausted. Each task index is handed out exactly once across
    /// all claimants.
    pub fn claim(&self) -> Option<Chunk> {
        // Pure-load precheck: a claim on an exhausted queue (a stale
        // steal attempt, or a claim storm after the run) never writes
        // the contended cursor line.
        if self.cursor.0.load(Ordering::Relaxed) >= self.total {
            return None;
        }
        let (end, k) = unpack_plan(self.plan.0.load(Ordering::Acquire));
        let start = self.cursor.0.fetch_add(k, Ordering::Relaxed);
        if start >= self.total {
            // Lost the exhaustion race by a whisker; the precheck stops
            // any further RMWs from this point.
            return None;
        }
        let len = k.min(self.total - start);
        // Crossing the published epoch end is the one place a critical
        // section exists — and it is a `try_lock`: the winner
        // recomputes the size at the new frontier, everyone else claims
        // on at the stale size.
        if start + len >= end {
            self.advance_epoch();
        }
        self.chunks.fetch_add(1, Ordering::Relaxed);
        Some(Chunk { start, len })
    }

    /// Claims the next chunk whose task indices all lie strictly below
    /// `limit` — the streamed-edge consumer path, where `limit` is the
    /// minimum producer watermark read fresh at every claim. The
    /// claimed length is truncated at the limit: the descriptor's size
    /// decision is a target, not a contract, so a shorter chunk is
    /// indistinguishable from a policy decision.
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
        // The unbounded path's `fetch_add` would overshoot the limit,
        // handing out tasks above the watermark — so the bounded path
        // claims by CAS with the length truncated at the limit. Slightly
        // more contention than `fetch_add`, paid only by streamed
        // consumers whose producer is still running.
        let (end, k) = unpack_plan(self.plan.0.load(Ordering::Acquire));
        let mut start = self.cursor.0.load(Ordering::Relaxed);
        let len = loop {
            if start >= self.total {
                return BoundedClaim::Exhausted;
            }
            if start >= limit {
                return BoundedClaim::Blocked;
            }
            let len = k.min(self.total - start).min(limit - start).max(1);
            match self.cursor.0.compare_exchange_weak(
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
            self.advance_epoch();
        }
        self.chunks.fetch_add(1, Ordering::Relaxed);
        BoundedClaim::Chunk(Chunk { start, len })
    }

    /// Publishes the next epoch descriptor: chunk size recomputed by
    /// the policy at the current claim frontier, valid for roughly one
    /// chunk per worker. Non-blocking — if another worker is already
    /// publishing (or a feedback merge holds the lock), this claimant
    /// simply keeps the stale size for one more chunk.
    fn advance_epoch(&self) {
        let Ok(mut policy) = self.policy.try_lock() else {
            return;
        };
        let next = self.cursor.0.load(Ordering::Relaxed);
        if next >= self.total {
            return;
        }
        // Another claimant may have published past the frontier while
        // we raced for the lock; never move the descriptor backwards.
        let (end, _) = unpack_plan(self.plan.0.load(Ordering::Relaxed));
        if end > next {
            return;
        }
        let remaining = self.total - next;
        let k = policy.next_chunk(next, remaining, self.workers).clamp(1, remaining);
        let new_end = next.saturating_add(epoch_span(k, remaining, self.workers)).min(self.total);
        self.plan.0.store(pack_plan(new_end, k), Ordering::Release);
    }

    /// Feeds one completed chunk's task-time statistics back to the
    /// policy — the worker's locally accumulated µ/σ merged in one
    /// short critical section. Policies that sample nothing ignore it.
    pub fn observe_chunk(&self, start: usize, len: usize, stats: &OnlineStats) {
        let mut policy = self.policy.lock().expect("chunk queue poisoned");
        policy.observe_chunk(start, len, stats);
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
    /// remaining chunks.
    pub fn try_observe_pending(&self, pending: &mut Vec<(usize, usize, OnlineStats)>) {
        if pending.is_empty() {
            return;
        }
        if let Ok(mut policy) = self.policy.try_lock() {
            for (start, len, stats) in pending.drain(..) {
                policy.observe_chunk(start, len, &stats);
            }
        }
    }

    /// Whether unclaimed chunks probably remain (a racy hint: workers
    /// use it to decide if an operation is worth advertising to
    /// thieves; exactness is guaranteed by [`Self::claim`], not here).
    /// One direction *is* exact: once the final chunk has been handed
    /// out, this never reports `true` again — the hint is derived from
    /// the same atomic cursor a claim advances, so it flips in the very
    /// `fetch_add`/CAS that hands the final chunk out, with no window
    /// for a stale `true`.
    pub fn has_more(&self) -> bool {
        self.cursor.0.load(Ordering::Relaxed) < self.total
    }

    /// Whether the policy resizes chunks from live observations
    /// (TAPER), and so wants per-chunk timing feedback through
    /// [`Self::observe_chunk`]. Every policy claims the same way — the
    /// distinction is about feedback, not about claiming.
    pub fn is_adaptive(&self) -> bool {
        self.adaptive
    }

    /// Chunks handed out so far.
    pub fn chunks_claimed(&self) -> u64 {
        self.chunks.load(Ordering::Relaxed)
    }

    /// Tasks not yet handed out (racy snapshot: claims in flight may
    /// already cover some of them). The allocation equalizer uses it
    /// as the live `N` of a finish estimate.
    pub fn remaining(&self) -> usize {
        self.total.saturating_sub(self.cursor.0.load(Ordering::Relaxed))
    }

    /// A snapshot of the µ/σ the policy has sampled so far — the *live*
    /// statistics the §4.1.2 equalizer estimates finishing times from.
    /// Non-blocking (`try_lock`): returns `None` when the policy is
    /// mid-update or keeps no statistics (everything but TAPER), in
    /// which case the caller falls back to task counts.
    pub fn sampled_stats(&self) -> Option<OnlineStats> {
        self.policy.try_lock().ok().and_then(|p| p.live_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunking::PolicyKind;
    use std::sync::Arc;

    const KINDS: [PolicyKind; 5] = [
        PolicyKind::SelfSched,
        PolicyKind::Gss,
        PolicyKind::Factoring,
        PolicyKind::Taper,
        PolicyKind::TaperCostFn,
    ];

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

    /// Synthetic task times: a sawtooth with a heavy task every 97.
    fn cost(i: usize) -> f64 {
        1.0 + (i % 7) as f64 + if i % 97 < 5 { 40.0 } else { 0.0 }
    }

    /// The chunks one claimant draws from `q`, feeding each chunk's
    /// task times back before the next claim.
    fn one_claimant(q: &ChunkQueue) -> Vec<Chunk> {
        let mut chunks = Vec::new();
        while let Some(c) = q.claim() {
            let mut stats = OnlineStats::new();
            c.range().for_each(|i| stats.observe(cost(i)));
            q.observe_chunk(c.start, c.len, &stats);
            chunks.push(c);
        }
        chunks
    }

    #[test]
    fn every_task_claimed_exactly_once() {
        for kind in KINDS {
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
        for kind in KINDS {
            let q = ChunkQueue::new(kind.instantiate(100), 100, 4);
            let taper = matches!(kind, PolicyKind::Taper | PolicyKind::TaperCostFn);
            assert_eq!(q.is_adaptive(), taper, "{}", kind.name());
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

    /// The chunks `policy` answers when asked once per chunk over
    /// `total` tasks, as the simulator asks.
    fn per_claim(mut policy: Box<dyn ChunkPolicy + Send>, total: usize, p: usize) -> Vec<Chunk> {
        let mut chunks = Vec::new();
        let (mut next, mut remaining) = (0usize, total);
        while remaining > 0 {
            let len = policy.next_chunk(next, remaining, p).clamp(1, remaining);
            chunks.push(Chunk { start: next, len });
            next += len;
            remaining -= len;
        }
        chunks
    }

    #[test]
    fn one_claimant_at_one_worker_draws_the_per_claim_sequence() {
        // At one worker every chunk is its own epoch, so the descriptor
        // asks the policy once per claim — exactly the simulator's
        // one-decision-per-event sequence. Both policies start warm
        // from high-variance samples, so TAPER's first chunk is not the
        // whole space.
        let mut warm = OnlineStats::new();
        (0..64).for_each(|i| warm.observe(cost(i * 13)));
        let warmed = |kind: PolicyKind| {
            let mut policy = kind.instantiate(500);
            policy.observe_chunk(0, 0, &warm);
            policy
        };
        for kind in KINDS {
            let q = ChunkQueue::new(warmed(kind), 500, 1);
            let expected = per_claim(warmed(kind), 500, 1);
            assert!(
                !q.is_adaptive() || expected.len() > 1,
                "{}: a one-chunk sequence pins nothing",
                kind.name()
            );
            assert_eq!(
                std::iter::from_fn(|| q.claim()).collect::<Vec<_>>(),
                expected,
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn decisions_are_per_epoch_and_factoring_keeps_its_batches() {
        // One claimant sized for 8 workers over 1 000 tasks: GSS decides
        // once per epoch (half the remaining space here), while
        // factoring keys its batches on the task index, so the batches
        // of p equal chunks the simulator sees survive one decision per
        // epoch. (Near the tail an epoch that starts mid-batch may reach
        // past the batch end; the space is still covered exactly once.)
        let lens = |kind: PolicyKind| -> Vec<usize> {
            let q = ChunkQueue::new(kind.instantiate(1000), 1000, 8);
            std::iter::from_fn(|| q.claim()).map(|c| c.len).collect()
        };
        let gss = lens(PolicyKind::Gss);
        assert_eq!(gss[..12], [[125; 4], [63; 4], [31; 4]].concat()[..]);
        let batches = [[63; 8], [31; 8], [16; 8], [8; 8]].concat();
        let factoring = lens(PolicyKind::Factoring);
        assert_eq!(factoring[..32], batches[..]);
        let simulated = per_claim(PolicyKind::Factoring.instantiate(1000), 1000, 8);
        assert_eq!(simulated.iter().map(|c| c.len).take(32).collect::<Vec<_>>(), batches);
        assert_eq!(factoring.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn taper_one_claimant_sequences_are_pinned() {
        // TAPER's one-claimant sequences, as the epoch-descriptor claim
        // drew them when it served TAPER alone: FNV-1a of every
        // (start, len), 1 000 tasks, feedback after every chunk.
        let fnv = |chunks: &[Chunk]| {
            let words = chunks.iter().flat_map(|c| [c.start as u64, c.len as u64]);
            words.flat_map(u64::to_le_bytes).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
        };
        let pinned = [
            (PolicyKind::Taper, 1, 1, 0xd342_7fbb_ed6f_e83c),
            (PolicyKind::Taper, 2, 22, 0x4302_f329_4c6c_77bb),
            (PolicyKind::Taper, 4, 50, 0xbb5c_a0c9_ecab_a09a),
            (PolicyKind::Taper, 8, 96, 0x24e5_aacf_1596_3410),
            (PolicyKind::TaperCostFn, 1, 1, 0xd342_7fbb_ed6f_e83c),
            (PolicyKind::TaperCostFn, 2, 20, 0x52dc_c32d_79af_0e85),
            (PolicyKind::TaperCostFn, 4, 50, 0xa454_889b_9120_d726),
            (PolicyKind::TaperCostFn, 8, 76, 0xc703_4725_2ad0_c532),
        ];
        for (kind, workers, n, hash) in pinned {
            let chunks = one_claimant(&ChunkQueue::new(kind.instantiate(1000), 1000, workers));
            assert_eq!((chunks.len(), fnv(&chunks)), (n, hash), "{} at {workers}", kind.name());
        }
    }

    #[test]
    fn exhausted_claims_write_nothing() {
        let q = ChunkQueue::new(PolicyKind::SelfSched.instantiate(5), 5, 2);
        let mut n = 0usize;
        while q.claim().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
        assert!(!q.has_more());
        let cursor = q.cursor.0.load(Ordering::Relaxed);
        // Extra claims after exhaustion (stale steal attempts) are
        // harmless, and pure loads: neither the cursor nor the chunk
        // counter moves.
        for _ in 0..1000 {
            assert_eq!(q.claim(), None);
            assert_eq!(q.claim_bounded(3), BoundedClaim::Exhausted);
        }
        assert_eq!(q.cursor.0.load(Ordering::Relaxed), cursor, "stale claims grew the cursor");
        assert_eq!((q.chunks_claimed(), q.remaining()), (5, 0));
    }

    #[test]
    fn bounded_claims_respect_limit_self_sched() {
        // Self-scheduling hands out unit chunks, so the bounded path
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
