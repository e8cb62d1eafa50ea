//! Distributed TAPER on real threads (§4.1.1).
//!
//! The threaded counterpart of [`crate::dist_taper`]: each worker owns
//! a *home queue* of tasks (block-decomposed over the op's members,
//! exactly as the simulator places them), draws decreasing-size epoch
//! chunks from it, and sends an epoch *token* to a logical binary tree
//! whenever it claims. The decisions — token counts, the cv-gated
//! re-assignment of half a laggard's home, epoch completion, chunk
//! sizes — are the coordinator's, the same clock-free state machine the
//! simulator drives.
//!
//! On shared memory the token tree and the root collapse into that
//! coordinator behind one short mutex: a claim tokens the *global*
//! epoch and delivers any re-assigned work at once, straight into the
//! claiming worker's home queue (the fast tokener is, by construction,
//! the worker currently claiming). The critical section stays one
//! `epoch_chunk` call plus counter updates per chunk — the same order
//! as the shared [`ChunkQueue`](super::queue::ChunkQueue)'s adaptive
//! path.
//!
//! Two invariants carry over from the shared queue:
//!
//! * **Exactly-once** — a task index lives in exactly one home queue at
//!   any instant (re-assignment takes before it delivers, all under the
//!   coordinator lock), and a claim takes it exactly once.
//! * **Self-delivery** — tasks only ever move into the home queue of
//!   the worker performing the claim. A worker whose claim fails
//!   (empty home, nothing stealable) can therefore drop its op token
//!   for good: its queue can never refill behind its back, so no
//!   wakeup can be lost.
//!
//! The control plane observes the tasks' *cost hints* (the same
//! deterministic per-task costs the simulator samples), not measured
//! wall time: chunk sizing and the migration gate are then a pure
//! function of the workload, so the differential suite can pin
//! sim-equivalent decisions (zero reassignments on uniform costs,
//! forced migration on concentrated ones) without timing flake.
//! Measured task times still flow into the per-worker
//! [`OnlineStats`](crate::stats::OnlineStats) records, so the
//! locality/migration trade-off is *evaluated* against wall clocks.

use super::queue::Chunk;
use crate::dist_taper::coord::Coord;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One claimed epoch chunk: a contiguous span taken off the front of
/// the claiming worker's home queue, and the epoch it was tokened in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DistChunk {
    /// The claimed task indices.
    pub chunk: Chunk,
    /// Global epoch at claim time.
    pub epoch: u64,
}

/// The per-worker home-queue claim path for one parallel operation
/// under distributed TAPER.
pub(crate) struct DistQueue {
    coord: Mutex<Coord>,
    /// Tasks not yet handed out; updated inside the claim's critical
    /// section so an exhausted queue is detectable with a single load.
    remaining: AtomicUsize,
}

impl DistQueue {
    /// A distributed queue over `total` tasks for `workers` workers,
    /// block-decomposed onto the home queues of `members` —
    /// the §4.1.2 allocator's partition of the pool for this operation.
    /// Non-members start retired (their tokens are not required for
    /// epoch completion and their homes are empty);
    /// [`admit_worker`](Self::admit_worker) later widens the partition
    /// when the equalizer migrates freed processors here.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or any member index is out of range.
    pub fn new(total: usize, workers: usize, members: &[usize]) -> Self {
        DistQueue {
            coord: Mutex::new(Coord::new(total, workers, members)),
            remaining: AtomicUsize::new(total),
        }
    }

    fn coord(&self) -> MutexGuard<'_, Coord> {
        self.coord.lock().expect("dist coordinator poisoned")
    }

    /// Claims the next epoch chunk for `worker` among the tasks whose
    /// index lies strictly below `limit` — the minimum producer
    /// watermark at claim time for a streamed-edge consumer,
    /// `usize::MAX` otherwise — or `None` when the worker's home queue
    /// is empty and nothing could be re-assigned to it. Sends one epoch
    /// token (and runs the root's reassignment and epoch-completion
    /// rules) per call, exactly as the simulator does per chunk start
    /// or work request.
    ///
    /// The chunk is a prefix of the home queue's front run, so a visit
    /// whose front run starts at or above the limit draws nothing (runs
    /// start sorted per owner block; after migration the front-peek is
    /// merely conservative, which is safe — the producer's final
    /// `publish_all` always raises the limit to the whole space). Such
    /// a visit returns `None` exactly like a starving one; the epoch
    /// token it sent is harmless, and the worker's wakeup is owed to
    /// the producer's next watermark publication rather than the queue
    /// itself.
    ///
    /// `costs` are the operation's per-task cost hints (the control
    /// plane's observation stream); `now_us` is the caller's clock,
    /// used only to stamp epoch increments.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range or `costs` is shorter than
    /// the iteration space.
    pub(crate) fn claim_bounded(
        &self,
        worker: usize,
        costs: &[f64],
        now_us: f64,
        limit: usize,
    ) -> Option<DistChunk> {
        if self.remaining.load(Ordering::Acquire) == 0 {
            // Exhausted fast path: stale claims are a single load.
            return None;
        }
        let mut c = self.coord();
        let epoch = c.epoch();
        if let Some(m) = c.token(worker, epoch, now_us) {
            c.deliver(m);
        }
        let chunk = c.draw(worker, limit, costs)?;
        self.remaining.store(c.remaining(), Ordering::Release);
        Some(DistChunk { chunk, epoch: epoch as u64 })
    }

    /// Unclaimed tasks remaining across all home queues (exact, not a
    /// hint: the counter is updated inside the claim's critical
    /// section).
    pub fn remaining(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }

    /// A snapshot of the TAPER policy's sampled cost statistics, or
    /// `None` when the coordinator lock is contended — the §4.1.2
    /// equalizer's live µ/σ feed, best-effort by design.
    pub(crate) fn sampled_stats(&self) -> Option<crate::stats::OnlineStats> {
        self.coord.try_lock().ok().and_then(|c| c.live_stats())
    }

    /// Chunks handed out so far.
    pub fn chunks_claimed(&self) -> u64 {
        self.coord().chunks
    }

    /// Chunk re-assignments performed by the root.
    pub fn reassignments(&self) -> u64 {
        self.coord().reassignments
    }

    /// Tasks claimed outside the claiming member's own block (every
    /// task a non-member claims).
    pub fn migrated_tasks(&self) -> u64 {
        self.coord().migrated
    }

    /// Completed global epochs.
    pub fn epochs(&self) -> usize {
        self.coord().epoch()
    }

    /// Caller-clock times of each global-epoch increment, in the order
    /// the increments happened. Monotone non-decreasing: increments
    /// are serialized by the coordinator lock and each stamp is
    /// clamped to its predecessor.
    pub fn epoch_times_us(&self) -> Vec<f64> {
        self.coord().epoch_times.clone()
    }

    /// Unclaimed tasks currently in `worker`'s home queue.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    #[cfg(test)]
    pub(crate) fn home_len(&self, worker: usize) -> usize {
        self.coord().home_len(worker)
    }

    /// Admits `worker` into the operation's partition: its tokens count
    /// toward epoch completion, and an empty home is seeded with the
    /// back half of the fullest home — unconditionally, since the
    /// §4.1.2 equalizer has already decided the migration. Returns how
    /// many tasks moved.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub(crate) fn admit_worker(&self, worker: usize) -> usize {
        self.coord().admit(worker).map_or(0, |(_, moved)| moved)
    }

    /// Merges previously persisted cost statistics into the TAPER
    /// policy so a resumed operation restarts with the µ/σ (and so the
    /// chunk-size schedule) it had already learned before the crash.
    pub fn warm(&self, stats: &crate::stats::OnlineStats) {
        self.coord().warm(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par_op::owner_of;
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use std::sync::Arc;

    /// A queue whose every worker is a member.
    fn everyone(total: usize, workers: usize) -> DistQueue {
        DistQueue::new(total, workers, &(0..workers).collect::<Vec<_>>())
    }

    /// Drives a DistQueue with real threads; each worker spins a
    /// busy-loop proportional to the task's cost so laggards are
    /// laggards in wall time too. Returns per-worker claimed indices.
    fn drain_with_threads(costs: Arc<Vec<f64>>, workers: usize, spin: f64) -> Vec<Vec<usize>> {
        let q = Arc::new(everyone(costs.len(), workers));
        let t0 = std::time::Instant::now();
        let mut handles = Vec::new();
        for w in 0..workers {
            let q = Arc::clone(&q);
            let costs = Arc::clone(&costs);
            handles.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                while let Some(chunk) = claim(&q, w, &costs, t0.elapsed().as_secs_f64() * 1e6) {
                    for t in chunk.chunk.range() {
                        let steps = (costs[t] * spin).max(1.0) as u64;
                        let mut x = t as f64;
                        for _ in 0..steps {
                            x = x * 0.999_999 + 1e-9;
                        }
                        std::hint::black_box(x);
                        mine.push(t);
                    }
                }
                mine
            }));
        }
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    }

    /// A claim with no watermark to respect.
    fn claim(q: &DistQueue, worker: usize, costs: &[f64], now_us: f64) -> Option<DistChunk> {
        q.claim_bounded(worker, costs, now_us, usize::MAX)
    }

    fn assert_exactly_once(per_worker: &[Vec<usize>], n: usize) {
        let mut all: Vec<usize> = per_worker.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>(), "tasks lost or duplicated");
    }

    #[test]
    fn uniform_costs_claim_exactly_once_with_full_locality() {
        let costs = Arc::new(vec![5.0; 600]);
        let q = Arc::new(everyone(costs.len(), 4));
        // Same protocol, checked through the public accessors after a
        // threaded drain.
        drop(q);
        let claimed = drain_with_threads(Arc::clone(&costs), 4, 10.0);
        assert_exactly_once(&claimed, 600);
        // Locality on uniform costs: every worker claimed exactly its
        // own block (the cv gate never opens).
        for (w, mine) in claimed.iter().enumerate() {
            assert!(
                mine.iter().all(|&t| owner_of(t, 600, 4) == w),
                "worker {w} executed a non-home task on uniform costs"
            );
        }
    }

    #[test]
    fn uniform_costs_never_reassign() {
        let costs = Arc::new(vec![5.0; 600]);
        let q = Arc::new(everyone(costs.len(), 4));
        let t0 = std::time::Instant::now();
        let mut handles = Vec::new();
        for w in 0..4 {
            let q = Arc::clone(&q);
            let costs = Arc::clone(&costs);
            handles.push(std::thread::spawn(move || {
                while claim(&q, w, &costs, t0.elapsed().as_secs_f64() * 1e6).is_some() {}
            }));
        }
        for h in handles {
            h.join().expect("worker panicked");
        }
        assert_eq!(q.reassignments(), 0);
        assert_eq!(q.migrated_tasks(), 0);
        assert_eq!(q.remaining(), 0);
    }

    #[test]
    fn concentrated_costs_force_reassignment_exactly_once() {
        // All the heavy work sits on worker 0's home block: the fast
        // workers' tokens race ahead and the root must migrate work,
        // while every task still executes exactly once. The race is
        // forced, not hoped for: everyone claims a first chunk (epoch 0
        // closes, and worker 0's heavy hints open the cv gate), then
        // worker 0 stays inside that chunk until the root has
        // re-assigned — any fast worker's second epoch-1 token does it —
        // or, were the rule broken, until the others are done.
        let p = 4;
        let n = 400;
        let mut costs = vec![1.0; n];
        for c in costs.iter_mut().take(n / p) {
            *c = 500.0;
        }
        let costs = Arc::new(costs);
        let q = Arc::new(everyone(n, p));
        let first_claims = Arc::new(std::sync::Barrier::new(p));
        let fast_done = Arc::new(AtomicUsize::new(0));
        let t0 = std::time::Instant::now();
        let mut handles = Vec::new();
        for w in 0..p {
            let (q, costs) = (Arc::clone(&q), Arc::clone(&costs));
            let (first_claims, fast_done) = (Arc::clone(&first_claims), Arc::clone(&fast_done));
            handles.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                let mut first = true;
                while let Some(chunk) = claim(&q, w, &costs, t0.elapsed().as_secs_f64() * 1e6) {
                    mine.extend(chunk.chunk.range());
                    if std::mem::take(&mut first) {
                        first_claims.wait();
                        while w == 0
                            && q.reassignments() == 0
                            && fast_done.load(Ordering::Acquire) < p - 1
                        {
                            std::thread::yield_now();
                        }
                    }
                }
                fast_done.fetch_add(1, Ordering::Release);
                mine
            }));
        }
        let claimed: Vec<Vec<usize>> =
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect();
        assert_exactly_once(&claimed, n);
        assert!(q.reassignments() > 0, "laggard's work must be re-assigned");
        assert!(q.migrated_tasks() > 0);
        assert!(q.migrated_tasks() <= n as u64);
        let times = q.epoch_times_us();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "epoch increments out of order");
    }

    #[test]
    fn single_worker_degenerates() {
        let costs = Arc::new(vec![3.0; 64]);
        let claimed = drain_with_threads(Arc::clone(&costs), 1, 1.0);
        assert_exactly_once(&claimed, 64);
        let q = everyone(64, 1);
        let mut n = 0usize;
        while let Some(c) = claim(&q, 0, &costs, n as f64) {
            n += c.chunk.len;
        }
        assert_eq!(n, 64);
        assert_eq!(q.reassignments(), 0);
        assert_eq!(q.migrated_tasks(), 0);
        // With one worker every token completes its epoch.
        assert!(q.epochs() >= 1);
    }

    #[test]
    fn empty_queue_yields_nothing() {
        let q = everyone(0, 4);
        assert_eq!(claim(&q, 0, &[], 0.0), None);
        assert_eq!(q.remaining(), 0);
        assert_eq!(q.chunks_claimed(), 0);
        assert_eq!(q.migrated_tasks(), 0);
    }

    #[test]
    fn post_exhaustion_claims_stay_none() {
        let costs = vec![1.0; 32];
        let q = everyone(32, 2);
        let mut got = 0usize;
        for w in [0usize, 1] {
            while let Some(c) = claim(&q, w, &costs, 0.0) {
                got += c.chunk.len;
            }
        }
        assert_eq!(got, 32);
        let chunks = q.chunks_claimed();
        for _ in 0..1000 {
            assert_eq!(claim(&q, 0, &costs, 0.0), None);
            assert_eq!(claim(&q, 1, &costs, 0.0), None);
        }
        assert_eq!(q.chunks_claimed(), chunks, "stale claims counted as chunks");
        assert_eq!(q.remaining(), 0);
    }

    #[test]
    fn partition_decomposes_over_members_only() {
        // 4 workers, but the allocator gave this op only {1, 3}: every
        // task must start in a member's home queue, the op must drain
        // through members alone, and epochs must close without tokens
        // from the non-members.
        let n = 200;
        let costs = vec![2.0; n];
        let q = DistQueue::new(n, 4, &[1, 3]);
        assert_eq!(q.home_len(0), 0);
        assert_eq!(q.home_len(2), 0);
        assert_eq!(q.home_len(1) + q.home_len(3), n);
        let mut got = 0usize;
        let mut active = true;
        while active {
            active = false;
            for w in [1usize, 3] {
                if let Some(c) = claim(&q, w, &costs, got as f64) {
                    got += c.chunk.len;
                    active = true;
                }
            }
        }
        assert_eq!(got, n);
        assert!(q.epochs() >= 1, "epochs must close without non-member tokens");
    }

    #[test]
    fn partitioned_members_claim_their_own_blocks_unmigrated() {
        // Members {2, 3} of 4 workers each own half the space. Uniform
        // costs re-assign nothing, so nothing migrates: a member's home
        // is its block of the two-way split, not of a four-way one.
        let n = 200;
        let costs = vec![1.0; n];
        let q = DistQueue::new(n, 4, &[2, 3]);
        let mut active = true;
        while active {
            active = false;
            for w in [2usize, 3] {
                active |= claim(&q, w, &costs, 0.0).is_some();
            }
        }
        assert_eq!(q.remaining(), 0);
        assert_eq!(q.reassignments(), 0);
        assert_eq!(q.migrated_tasks(), 0);
    }

    #[test]
    fn admitted_worker_inherits_half_the_fullest_home() {
        let n = 128;
        let costs = vec![1.0; n];
        let q = DistQueue::new(n, 4, &[0]);
        assert_eq!(q.home_len(0), n);
        let moved = q.admit_worker(2);
        assert_eq!(moved, n / 2);
        assert_eq!(q.home_len(2), n / 2);
        // The admitted worker can now claim and the op still drains
        // exactly once.
        let mut got = Vec::new();
        let mut active = true;
        while active {
            active = false;
            for w in [0usize, 2] {
                if let Some(c) = claim(&q, w, &costs, got.len() as f64) {
                    got.extend(c.chunk.range());
                    active = true;
                }
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
        // Idempotent once the home is non-empty.
        let q2 = DistQueue::new(n, 2, &[0, 1]);
        assert_eq!(q2.admit_worker(1), 0, "member with work must not re-seed");
    }

    #[test]
    fn bounded_claims_stop_at_the_watermark() {
        // One worker owns all 64 tasks (sorted home queue). With the
        // limit at 10, claims must drain exactly tasks 0..10 and then
        // report None while remaining() stays nonzero — blocked, not
        // exhausted. Raising the limit drains the rest.
        let n = 64;
        let costs = vec![1.0; n];
        let q = everyone(n, 1);
        let mut got = Vec::new();
        while let Some(c) = q.claim_bounded(0, &costs, 0.0, 10) {
            got.extend(c.chunk.range());
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert!(q.remaining() > 0, "blocked must not read as exhausted");
        assert_eq!(q.home_len(0), n - 10);
        while let Some(c) = q.claim_bounded(0, &costs, 0.0, usize::MAX) {
            got.extend(c.chunk.range());
        }
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
        assert_eq!(q.remaining(), 0);
    }

    #[test]
    fn epoch_chunks_follow_global_sequence() {
        // A single-threaded drain alternating workers reproduces the
        // simulator's chunk-size law: sizes follow the global TAPER
        // sequence clamped per home queue, so they never grow.
        let n = 512;
        let p = 4;
        let costs = vec![2.0; n];
        let q = everyone(n, p);
        let mut sizes = Vec::new();
        let mut active = true;
        while active {
            active = false;
            for w in 0..p {
                if let Some(c) = claim(&q, w, &costs, sizes.len() as f64) {
                    sizes.push(c.chunk.len);
                    active = true;
                }
            }
        }
        assert_eq!(sizes.iter().sum::<usize>(), n);
        assert!(sizes.len() >= p, "at least one chunk per home");
    }

    /// The home queues as they were before they held runs: one entry
    /// per task index, moved one by one. What the span queue must agree
    /// with, kept as its model.
    struct IndexModel {
        homes: Vec<VecDeque<usize>>,
        migrated: u64,
    }

    impl IndexModel {
        fn new(total: usize, workers: usize, members: &[usize]) -> Self {
            let mut homes = vec![VecDeque::new(); workers];
            for i in 0..total {
                homes[members[owner_of(i, total, members.len())]].push_back(i);
            }
            IndexModel { homes, migrated: 0 }
        }

        /// The last `n` indices of `from`, in order, to the back of `to`.
        fn move_tail(&mut self, from: usize, to: usize, n: usize) {
            let at = self.homes[from].len() - n;
            let tail = self.homes[from].split_off(at);
            self.homes[to].extend(tail);
        }

        /// What [`DistQueue::admit_worker`] moves: half of the fullest
        /// other home, into an empty home only.
        fn admit(&mut self, worker: usize) -> usize {
            if !self.homes[worker].is_empty() {
                return 0;
            }
            let donor = (0..self.homes.len())
                .filter(|&b| b != worker)
                .max_by_key(|&b| self.homes[b].len())
                .filter(|&b| self.homes[b].len() > 1);
            let Some(b) = donor else { return 0 };
            let steal = self.homes[b].len() / 2;
            self.move_tail(b, worker, steal);
            steal
        }
    }

    proptest! {
        /// Interleaved bounded claims (the limit only rises), admissions
        /// and — on the concentrated cost shapes — forced
        /// re-assignments: every span handed out is the front of the
        /// model's home for that worker, so spans are non-empty,
        /// pairwise disjoint and tile `0..total`; none crosses the
        /// limit; and the counters agree with the model after every step.
        #[test]
        fn spans_agree_with_the_index_model(
            total in 0..200usize,
            workers in 1..7usize,
            member_bits in 1..64usize,
            shape in 0..3usize,
            steps in proptest::collection::vec((0..8usize, 0..6usize, 0..40usize), 0..160),
        ) {
            let mut members: Vec<usize> =
                (0..workers).filter(|w| member_bits >> w & 1 == 1).collect();
            if members.is_empty() {
                members.push(0);
            }
            // Uniform costs never open the cv gate; a heavy first block
            // or heavy every fourth task does.
            let costs: Vec<f64> = (0..total)
                .map(|t| match shape {
                    1 if t < total / 4 => 500.0,
                    2 if t % 4 == 0 => 500.0,
                    _ => 1.0,
                })
                .collect();
            let q = DistQueue::new(total, workers, &members);
            let mut model = IndexModel::new(total, workers, &members);
            let mut seen = vec![false; total];
            let mut limit = 0usize;
            let mut step = |kind: usize, a: usize, rise: usize| {
                let a = a % workers;
                match kind {
                    6 => prop_assert_eq!(q.admit_worker(a), model.admit(a)),
                    _ => {
                        limit = limit.saturating_add(rise);
                        let reassigned = q.reassignments();
                        let got = q.claim_bounded(a, &costs, 0.0, limit);
                        if q.reassignments() > reassigned {
                            // The root moved the back half (rounded up)
                            // of one laggard's home to the claimant.
                            let laggards: Vec<usize> = (0..workers)
                                .filter(|&w| w != a && q.home_len(w) != model.homes[w].len())
                                .collect();
                            prop_assert_eq!(laggards.len(), 1);
                            let steal = model.homes[laggards[0]].len().div_ceil(2);
                            model.move_tail(laggards[0], a, steal);
                        }
                        if let Some(DistChunk { chunk, .. }) = got {
                            prop_assert!(chunk.len > 0, "empty span");
                            prop_assert!(chunk.range().end <= limit, "{chunk:?} crosses {limit}");
                            for t in chunk.range() {
                                prop_assert_eq!(model.homes[a].pop_front(), Some(t));
                                prop_assert!(!std::mem::replace(&mut seen[t], true), "{t} twice");
                                model.migrated += u64::from(members[owner_of(t, total, members.len())] != a);
                            }
                        }
                    }
                }
                for w in 0..workers {
                    prop_assert_eq!(q.home_len(w), model.homes[w].len(), "home {}", w);
                }
                prop_assert_eq!(q.remaining(), model.homes.iter().map(VecDeque::len).sum::<usize>());
                prop_assert_eq!(q.migrated_tasks(), model.migrated);
                Ok(())
            };
            for (kind, a, rise) in steps {
                step(kind, a, rise)?;
            }
            // The whole space becomes claimable: every round, every
            // worker with a non-empty home draws at least one task.
            for _ in 0..total {
                for w in 0..workers {
                    step(0, w, usize::MAX)?;
                }
            }
            prop_assert_eq!(q.remaining(), 0);
            prop_assert!(seen.iter().all(|&s| s), "a task was never handed out");
        }
    }
}
