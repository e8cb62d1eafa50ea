//! The distributed-TAPER coordinator (§4.1.1) as a state machine: the
//! home queues, the root's token counts, the cv-gated re-assignment and
//! epoch completion — and no clock, lock or atomic of its own.
//!
//! Both engines drive this one copy of the protocol. The simulator
//! ([`simulate_dist_taper`](super::simulate_dist_taper)) supplies the
//! clocks: a token reaches the root after its tree latency, a [`Move`]
//! lands after a message flight. The threaded home queues
//! ([`DistQueue`](crate::threaded::dist::DistQueue)) hold it behind one
//! mutex, token the global epoch and deliver each `Move` at once.
//!
//! A home is what it is: the runs of consecutive task indices a worker
//! still owns, in claim order. It starts as the worker's block — one
//! run — and gains a run whenever work is delivered or admitted into
//! it. A task is always in exactly one place: a home, an
//! undelivered `Move`, or a claimed chunk.

use crate::chunking::{ChunkPolicy, Taper};
use crate::par_op::block_of;
use crate::stats::OnlineStats;
use crate::threaded::queue::Chunk;
use std::collections::VecDeque;
use std::ops::Range;

type Home = VecDeque<Range<usize>>;

/// Unclaimed tasks in a list of runs.
fn tasks_in(runs: &Home) -> usize {
    runs.iter().map(Range::len).sum()
}

/// Work the root re-assigned: the back of a laggard's home, in transit
/// to the worker whose token triggered it.
#[derive(Debug, Clone)]
pub(crate) struct Move {
    /// The laggard the runs were taken from.
    pub from: usize,
    /// The tokener they are delivered to.
    pub to: usize,
    runs: Home,
}

impl Move {
    /// Tasks in transit.
    pub fn tasks(&self) -> usize {
        tasks_in(&self.runs)
    }
}

/// One parallel operation's coordinator: the collapsed token tree, the
/// root's counters and the shared TAPER policy.
#[derive(Debug, Clone)]
pub(crate) struct Coord {
    homes: Vec<Home>,
    /// Each worker's own block, where its home started (empty for a
    /// non-member): a task claimed outside it has migrated.
    own: Vec<Range<usize>>,
    /// Workers excused from epoch completion: the non-members, until
    /// admitted.
    retired: Vec<bool>,
    policy: Taper,
    total: usize,
    /// Tasks handed out so far (the global TAPER sequence's position).
    claimed: usize,
    /// counts[e][worker]: epoch-e tokens seen by the root.
    counts: Vec<Vec<u32>>,
    /// Caller-clock time of each global-epoch increment, in order; the
    /// global epoch is their number.
    pub epoch_times: Vec<f64>,
    /// Chunks drawn.
    pub chunks: u64,
    /// Re-assignments, by the root or by admission.
    pub reassignments: u64,
    /// Tasks drawn outside the drawing worker's own block.
    pub migrated: u64,
}

impl Coord {
    /// A coordinator over `total` tasks for `workers` workers,
    /// block-decomposing the iteration space over `members` only
    /// (owner-computes placement). Non-members start retired with empty
    /// homes; [`admit`](Self::admit) widens the partition.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or names a worker past `workers`.
    pub fn new(total: usize, workers: usize, members: &[usize]) -> Self {
        assert!(!members.is_empty(), "partition needs at least one member");
        assert!(members.iter().all(|&m| m < workers), "member out of range");
        let mut homes = vec![Home::new(); workers];
        let mut own = vec![0..0; workers];
        let mut retired = vec![true; workers];
        for (j, &m) in members.iter().enumerate() {
            own[m] = block_of(j, total, members.len());
            if !own[m].is_empty() {
                homes[m].push_back(own[m].clone());
            }
            retired[m] = false;
        }
        Coord {
            homes,
            own,
            retired,
            policy: Taper::new(),
            total,
            claimed: 0,
            counts: Vec::new(),
            epoch_times: Vec::new(),
            chunks: 0,
            reassignments: 0,
            migrated: 0,
        }
    }

    /// The global epoch: how many epochs have closed.
    pub fn epoch(&self) -> usize {
        self.epoch_times.len()
    }

    /// Tasks not yet drawn, in homes or in transit.
    pub fn remaining(&self) -> usize {
        self.total - self.claimed
    }

    /// Fraction of the tasks that stayed on their home worker (1.0 for
    /// an empty operation).
    pub fn locality(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            1.0 - self.migrated as f64 / self.total as f64
        }
    }

    /// Unclaimed tasks in `worker`'s home.
    pub fn home_len(&self, worker: usize) -> usize {
        tasks_in(&self.homes[worker])
    }

    /// The TAPER policy's sampled cost statistics.
    pub fn live_stats(&self) -> Option<OnlineStats> {
        self.policy.live_stats()
    }

    /// Counts `worker`'s token for `epoch` at the root.
    ///
    /// A second epoch token from `worker` before some laggard's first
    /// re-assigns the back half (rounded up) of that laggard's home to
    /// `worker`, if the sampled cv clears [`Taper::reassign_signal`]:
    /// with (near-)uniform costs there is no imbalance to repair, and an
    /// ungated root would steal on mere token-latency asymmetry. Among
    /// eligible laggards the root takes the fullest (the last on a
    /// tie). The runs come back in transit, in order, for the caller to
    /// [`deliver`](Self::deliver).
    ///
    /// Once every non-retired worker has tokened the current epoch, the
    /// epoch closes, stamped `now` clamped to the previous stamp —
    /// threaded callers read their clock before taking the lock.
    pub fn token(&mut self, worker: usize, epoch: usize, now: f64) -> Option<Move> {
        let workers = self.homes.len();
        if self.counts.len() <= epoch {
            self.counts.resize(epoch + 1, vec![0; workers]);
        }
        self.counts[epoch][worker] += 1;
        let counts = &self.counts[epoch];
        let laggard = if counts[worker] >= 2 && self.policy.reassign_signal(workers) {
            (0..workers)
                .filter(|&b| b != worker && counts[b] == 0 && !self.homes[b].is_empty())
                .max_by_key(|&b| self.home_len(b))
        } else {
            None
        };
        if epoch == self.epoch() && counts.iter().zip(&self.retired).all(|(&c, &r)| c > 0 || r) {
            let t = self.epoch_times.last().map_or(now, |&last| now.max(last));
            self.epoch_times.push(t);
        }
        let from = laggard?;
        Some(self.take(from, worker, self.home_len(from).div_ceil(2)))
    }

    /// Lands re-assigned work at the back of its claimant's home.
    pub fn deliver(&mut self, m: Move) {
        self.homes[m.to].extend(m.runs);
    }

    /// Draws `worker`'s next epoch chunk among the tasks below `limit`:
    /// the global TAPER sequence ([`Taper::epoch_chunk`], so every
    /// worker's epoch-`e` chunk has comparable size and token frequency
    /// is a speed signal) clamped to the home, to its front run and to
    /// the limit. `None` when the home is empty or its front run starts
    /// at or above the limit. The policy observes the chunk's cost
    /// hints; its tasks outside `worker`'s own block count as migrated.
    pub fn draw(&mut self, worker: usize, limit: usize, costs: &[f64]) -> Option<Chunk> {
        let front = self.homes[worker].front().filter(|run| run.start < limit)?.clone();
        let local = self.home_len(worker);
        let k = self.policy.epoch_chunk(self.claimed, self.remaining(), self.homes.len(), local);
        let chunk = Chunk { start: front.start, len: k.min(front.len()).min(limit - front.start) };
        if chunk.len == front.len() {
            self.homes[worker].pop_front();
        } else {
            self.homes[worker][0].start += chunk.len;
        }
        for t in chunk.range() {
            self.policy.observe(t, costs[t]);
        }
        self.claimed += chunk.len;
        self.chunks += 1;
        let (own, span) = (&self.own[worker], chunk.range());
        let at_home = own.end.min(span.end).saturating_sub(own.start.max(span.start));
        self.migrated += (chunk.len - at_home) as u64;
        Some(chunk)
    }

    /// Admits `worker` into the partition: its tokens count toward epoch
    /// completion again, and an empty home is seeded with the back half
    /// of the fullest other home (the last on a tie) if that holds at
    /// least two tasks. Returns how many tasks moved. Unconditional —
    /// the §4.1.2 equalizer has already decided the migration.
    pub fn admit(&mut self, worker: usize) -> usize {
        self.retired[worker] = false;
        if !self.homes[worker].is_empty() {
            return 0;
        }
        let donor = (0..self.homes.len())
            .filter(|&b| b != worker)
            .map(|b| (self.home_len(b), b))
            .max_by_key(|&(len, _)| len)
            .filter(|&(len, _)| len > 1);
        let Some((len, b)) = donor else { return 0 };
        let m = self.take(b, worker, len / 2);
        self.deliver(m);
        len / 2
    }

    /// Merges persisted cost statistics into the policy, so a resumed
    /// operation restarts with the µ/σ it had already learned.
    pub fn warm(&mut self, stats: &OnlineStats) {
        self.policy.observe_chunk(0, 0, stats);
    }

    /// Takes the last `n` tasks of `from`'s home, in order — every run
    /// behind the cut whole, and the tail of the run the cut falls in —
    /// as a re-assignment to `to`.
    fn take(&mut self, from: usize, to: usize, n: usize) -> Move {
        let src = &mut self.homes[from];
        let (mut at, mut behind) = (src.len(), 0usize);
        while behind < n {
            at -= 1;
            behind += src[at].len();
        }
        let mut runs: Home = src.drain(at..).collect();
        // Runs `at..` hold `behind >= n` tasks: the surplus is the head
        // of the first, which stays.
        let keep = behind - n;
        if keep > 0 {
            src.push_back(runs[0].start..runs[0].start + keep);
            runs[0].start += keep;
        }
        self.reassignments += 1;
        Move { from, to, runs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// One path through the protocol: the coordinator plus what the
    /// engines keep beside it — tokens still climbing the tree,
    /// re-assigned work still in flight, the chunks claimed so far.
    #[derive(Clone)]
    struct World {
        coord: Coord,
        /// Per worker, the epochs of its chunk starts whose tokens have
        /// not reached the root yet, oldest first.
        owed: Vec<VecDeque<usize>>,
        /// Per worker, whether its one work request (a token from an
        /// empty home) is spent.
        asked: Vec<bool>,
        /// Workers that claim and token: members, and the one admitted.
        live: Vec<bool>,
        flight: Vec<Move>,
        spans: Vec<Chunk>,
        /// tokened[e][w]: worker w's token for epoch e reached the root.
        tokened: Vec<Vec<bool>>,
        /// Whether the path's one admission is spent (from the start on
        /// a path over the whole pool).
        admitted: bool,
    }

    #[derive(Clone, Copy, Debug)]
    enum Step {
        Draw(usize),
        Token(usize),
        Request(usize),
        Deliver(usize),
        Admit(usize),
    }

    impl World {
        fn new(n: usize, p: usize, members: &[usize]) -> Self {
            let live: Vec<bool> = (0..p).map(|w| members.contains(&w)).collect();
            World {
                coord: Coord::new(n, p, members),
                owed: vec![VecDeque::new(); p],
                asked: vec![false; p],
                admitted: live.iter().all(|&l| l),
                live,
                flight: Vec::new(),
                spans: Vec::new(),
                tokened: Vec::new(),
            }
        }

        fn steps(&self) -> Vec<Step> {
            let c = &self.coord;
            let p = self.live.len();
            let mut out = Vec::new();
            for w in (0..p).filter(|&w| self.live[w]) {
                if c.home_len(w) > 0 {
                    out.push(Step::Draw(w));
                }
                if !self.owed[w].is_empty() {
                    out.push(Step::Token(w));
                } else if !self.asked[w] && c.home_len(w) == 0 && c.remaining() > 0 {
                    out.push(Step::Request(w));
                }
            }
            out.extend((0..self.flight.len()).map(Step::Deliver));
            if !self.admitted {
                out.extend((0..p).filter(|&w| !self.live[w]).map(Step::Admit));
            }
            out
        }

        /// Takes `step`, returning which home may have grown by it.
        fn apply(&mut self, step: Step, costs: &[f64]) -> Option<usize> {
            // Stamps out of order, as racing threaded claims do.
            let now = (self.coord.claimed % 2) as f64;
            let token = |world: &mut World, w: usize, e: usize| {
                let before = world.coord.epoch();
                if world.tokened.len() <= e {
                    world.tokened.resize(e + 1, vec![false; world.live.len()]);
                }
                world.tokened[e][w] = true;
                if let Some(m) = world.coord.token(w, e, now) {
                    assert_eq!(m.to, w, "work re-assigned past its tokener");
                    assert!(m.from != w && m.tasks() > 0, "{m:?}");
                    world.flight.push(m);
                }
                if world.coord.epoch() > before {
                    assert_eq!(world.coord.epoch(), before + 1);
                    let live = &world.live;
                    let all = (0..live.len()).all(|x| !live[x] || world.tokened[before][x]);
                    assert!(all, "epoch {before} closed before every live worker tokened it");
                }
            };
            match step {
                Step::Draw(w) => {
                    let chunk = self.coord.draw(w, usize::MAX, costs).expect("home not empty");
                    assert!(chunk.len > 0);
                    self.spans.push(chunk);
                    self.owed[w].push_back(self.coord.epoch());
                    None
                }
                Step::Token(w) => {
                    let e = self.owed[w].pop_front().expect("owed");
                    token(self, w, e);
                    None
                }
                Step::Request(w) => {
                    self.asked[w] = true;
                    let e = self.coord.epoch();
                    token(self, w, e);
                    None
                }
                Step::Deliver(i) => {
                    let m = self.flight.swap_remove(i);
                    let to = m.to;
                    self.coord.deliver(m);
                    Some(to)
                }
                Step::Admit(w) => {
                    self.admitted = true;
                    self.live[w] = true;
                    self.coord.admit(w);
                    Some(w)
                }
            }
        }

        /// Every task is in exactly one home, undelivered move or
        /// claimed span; the counters agree; epochs stamp monotonically.
        fn check(&self, n: usize) {
            let c = &self.coord;
            let mut seen = vec![0u8; n];
            let runs = c.homes.iter().chain(self.flight.iter().map(|m| &m.runs)).flatten();
            for t in runs.cloned().flatten().chain(self.spans.iter().flat_map(Chunk::range)) {
                seen[t] += 1;
            }
            assert!(seen.iter().all(|&s| s == 1), "tasks lost or doubled: {seen:?}");
            let claimed: usize = self.spans.iter().map(|s| s.len).sum();
            assert_eq!(c.remaining(), n - claimed);
            assert!(c.epoch_times.windows(2).all(|w| w[0] <= w[1]), "{:?}", c.epoch_times);
        }

        /// What the rest of the path depends on: the memo key.
        fn key(&self) -> Vec<u64> {
            let c = &self.coord;
            let mut k = vec![c.claimed as u64, c.policy.samples(), c.policy.cv().to_bits()];
            k.push(c.epoch_times.last().map_or(u64::MAX, |t| t.to_bits()));
            for runs in c.homes.iter().chain(self.flight.iter().map(|m| &m.runs)) {
                k.push(u64::MAX);
                k.extend(runs.iter().flat_map(|r| [r.start as u64, r.end as u64]));
            }
            k.extend(self.flight.iter().map(|m| m.to as u64));
            // The rules read a count only as 0, 1 or at least 2.
            for e in &c.counts {
                k.extend(e.iter().map(|&x| u64::from(x.min(2))));
            }
            for w in 0..self.live.len() {
                k.extend([u64::MAX, u64::from(self.asked[w]), u64::from(self.live[w])]);
                k.push(u64::from(c.retired[w]));
                k.extend(self.owed[w].iter().map(|&e| e as u64));
            }
            k.push(u64::from(self.admitted));
            k
        }
    }

    /// Explores every order of steps from `world`, once per distinct
    /// state; returns the re-assignments seen.
    fn explore(world: World, costs: &[f64], seen: &mut HashSet<Vec<u64>>, uniform: bool) -> u64 {
        let n = costs.len();
        if !seen.insert(world.key()) {
            return 0;
        }
        world.check(n);
        let steps = world.steps();
        if steps.is_empty() {
            // A finished path: the claimed spans tile 0..n.
            let mut spans = world.spans.clone();
            spans.sort_by_key(|s| s.start);
            let end = spans.iter().try_fold(0, |at, s| (s.start == at).then_some(at + s.len));
            assert_eq!(end, Some(n), "spans do not tile 0..{n}: {spans:?}");
            assert!(world.flight.is_empty());
            return 0;
        }
        let mut moves = 0;
        for step in steps {
            let mut next = world.clone();
            let before: Vec<usize> =
                (0..world.live.len()).map(|w| world.coord.home_len(w)).collect();
            let may_grow = next.apply(step, costs);
            for (w, &was) in before.iter().enumerate() {
                let grew = next.coord.home_len(w) > was;
                assert!(!grew || may_grow == Some(w), "home {w} grew by {step:?}");
            }
            let sent = next.flight.len() > world.flight.len();
            assert!(!(uniform && sent), "uniform costs re-assigned work by {step:?}");
            moves += u64::from(sent) + explore(next, costs, seen, uniform);
        }
        moves
    }

    #[test]
    fn every_order_of_tokens_draws_and_deliveries_keeps_the_protocol() {
        let mut states = 0;
        let mut concentrated_moves = 0;
        for p in 1..=3usize {
            for n in 0..=9usize {
                let owner_block = block_of(0, n, p);
                let uniform = vec![1.0; n];
                let concentrated: Vec<f64> =
                    (0..n).map(|t| if owner_block.contains(&t) { 500.0 } else { 1.0 }).collect();
                let all: Vec<usize> = (0..p).collect();
                // Everyone a member, or the last worker outside the
                // partition until it is admitted.
                let partitions: &[&[usize]] = if p > 1 { &[&all, &all[..p - 1]] } else { &[&all] };
                for members in partitions {
                    for (costs, uniform) in [(&uniform, true), (&concentrated, false)] {
                        let mut seen = HashSet::new();
                        let world = World::new(n, p, members);
                        let moves = explore(world, costs, &mut seen, uniform);
                        if !uniform {
                            concentrated_moves += moves;
                        }
                        states += seen.len();
                    }
                }
            }
        }
        println!("explored {states} coordinator states");
        assert!(concentrated_moves > 0, "no path re-assigned work on concentrated costs");
    }
}
