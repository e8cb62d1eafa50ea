//! Distributed TAPER (§4.1.1).
//!
//! "In the distributed TAPER algorithm the p processors are logically
//! connected as a binary tree with p leaves. All processors start in
//! epoch 0. When a processor begins executing a chunk it sends its
//! current epoch value (called a token) to its parent … When the root
//! receives p tokens from the same epoch, it increments the global
//! epoch value and broadcasts … Processors compete for the p chunks of
//! each epoch. If processor a can get two tokens of value i to the root
//! before processor b can send one token of value i, then the root will
//! re-assign processor b's chunk of size K_i to processor a. … If task
//! costs are independent then we expect most tasks to remain on the
//! processor owning them at the beginning of the parallel operation;
//! thus, the algorithm reduces task transfer costs and maintains
//! communication locality."
//!
//! The protocol is written once, in [`coord`]: a clock-free state
//! machine that this module's discrete-event simulation and the
//! threaded home queues ([`DistQueue`](crate::threaded::dist::DistQueue))
//! both drive. The simulator adds the clocks.
//!
//! The epoch tokens earn a second job in the real threaded backend:
//! every global-epoch increment is a consistent-cut barrier (all p
//! workers have tokened in for the previous epoch), so the
//! [`checkpoint`](crate::checkpoint) layer snapshots at each epoch
//! boundary in addition to its claim-count cadence.

pub(crate) mod coord;

use coord::{Coord, Move};
use orchestra_machine::{EventQueue, MachineConfig, RunStats};

/// Result of a distributed-TAPER run.
#[derive(Debug, Clone)]
pub struct DistResult {
    /// Completion time (µs).
    pub finish: f64,
    /// Per-processor stats.
    pub stats: RunStats,
    /// Tasks that executed away from their home processor.
    pub migrated_tasks: u64,
    /// Chunk re-assignments performed by the root.
    pub reassignments: u64,
    /// Fraction of tasks that stayed on their home processor.
    pub locality: f64,
    /// Simulated time of each global-epoch increment at the root, in
    /// the order the increments happened (so the protocol's epoch
    /// progression is observable and testable).
    pub epoch_times: Vec<f64>,
}

impl DistResult {
    /// Number of completed global epochs.
    pub fn epochs(&self) -> usize {
        self.epoch_times.len()
    }
}

#[derive(Debug)]
enum Ev {
    /// Processor became idle and looks for its next chunk.
    Idle(usize),
    /// A token (proc, epoch) reached the root.
    Token(usize, usize),
    /// Re-assigned work arrives at its claimant.
    Delivery(Move),
    /// The root's epoch-increment broadcast reached a processor.
    Broadcast(usize, usize),
}

/// Per-hop cost of a control message. Tokens are 8-byte values that the
/// tree nodes *combine* ("possibly combining messages from both
/// children"), piggybacked on the regular traffic — far cheaper than a
/// full software-latency data message.
fn token_hop_cost(cfg: &MachineConfig) -> f64 {
    cfg.alpha * 0.1 + cfg.hop
}

/// Latency for a token to climb the binary tree from leaf `q` to the
/// root: one combined control hop per tree level traversed.
fn token_latency(cfg: &MachineConfig, q: usize) -> f64 {
    let mut lat = 0.0;
    let mut node = q;
    while node != 0 {
        node /= 2;
        lat += token_hop_cost(cfg);
    }
    lat
}

/// Root-to-leaves epoch broadcast: one combined control hop per level.
fn broadcast_latency(cfg: &MachineConfig, p: usize) -> f64 {
    (p.max(2) as f64).log2().ceil() * token_hop_cost(cfg)
}

/// Simulates one parallel operation under distributed TAPER.
///
/// Tasks start block-decomposed onto their home processors
/// (owner-computes); each processor draws decreasing-size chunks from
/// its *local* queue; the root re-assigns work from laggards to fast
/// processors when their epoch tokens race ahead. Every decision is
/// [`Coord`]'s, the coordinator the threaded home queues run too; this
/// function keeps the clocks. A chunk start sends a token carrying the
/// processor's epoch, which reaches the root after its tree latency;
/// re-assigned work lands after a message flight; an epoch increment
/// reaches the leaves after a broadcast.
pub fn simulate_dist_taper(
    cfg: &MachineConfig,
    p: usize,
    costs: &[f64],
    bytes_per_task: u64,
) -> DistResult {
    let p = p.max(1);
    let members: Vec<usize> = (0..p).collect();
    let mut coord = Coord::new(costs.len(), p, &members);
    let mut stats = RunStats::new(p);
    // What each processor knows: the last epoch broadcast to reach it,
    // whether its work request is out, whether it is running a chunk.
    let mut local_epoch: Vec<usize> = vec![0; p];
    let mut starving: Vec<bool> = vec![false; p];
    let mut busy: Vec<bool> = vec![false; p];
    let mut finish: f64 = 0.0;

    let mut q: EventQueue<Ev> = EventQueue::new();
    for proc in 0..p {
        q.push(0.0, Ev::Idle(proc));
    }

    while let Some((t, ev)) = q.pop() {
        match ev {
            Ev::Idle(me) => {
                busy[me] = false;
                let Some(chunk) = coord.draw(me, usize::MAX, costs) else {
                    // Work request: token the current epoch so the root
                    // can feed us (but only while work exists).
                    if coord.remaining() > 0 && !starving[me] {
                        starving[me] = true;
                        q.push(t + token_latency(cfg, me), Ev::Token(me, local_epoch[me]));
                    }
                    continue;
                };
                starving[me] = false;
                busy[me] = true;
                q.push(t + token_latency(cfg, me), Ev::Token(me, local_epoch[me]));
                let work: f64 = costs[chunk.range()].iter().sum();
                let end = t + cfg.sched_overhead + work;
                stats.record_chunk(me, chunk.len as u64, work, end);
                finish = finish.max(end);
                q.push(end, Ev::Idle(me));
            }
            Ev::Token(from, epoch) => {
                let before = coord.epoch();
                if let Some(m) = coord.token(from, epoch, t) {
                    let bytes = m.tasks() as u64 * bytes_per_task;
                    q.push(t + cfg.msg_time(m.from, m.to, bytes), Ev::Delivery(m));
                }
                if coord.epoch() > before {
                    let at = t + broadcast_latency(cfg, p);
                    for proc in 0..p {
                        q.push(at, Ev::Broadcast(proc, coord.epoch()));
                    }
                }
            }
            Ev::Broadcast(proc, e) => {
                if e > local_epoch[proc] {
                    local_epoch[proc] = e;
                    // Starving processors renew their work request in
                    // the new epoch.
                    if starving[proc] && !busy[proc] && coord.remaining() > 0 {
                        q.push(q.now() + token_latency(cfg, proc), Ev::Token(proc, e));
                    }
                }
            }
            Ev::Delivery(m) => {
                let to = m.to;
                coord.deliver(m);
                if !busy[to] {
                    starving[to] = false;
                    q.push_after(0.0, Ev::Idle(to));
                }
            }
        }
    }

    DistResult {
        finish,
        stats,
        migrated_tasks: coord.migrated,
        reassignments: coord.reassignments,
        locality: coord.locality(),
        epoch_times: coord.epoch_times,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_machine::CostDistribution;

    #[test]
    fn all_tasks_execute_exactly_once() {
        let costs = CostDistribution::HeavyTail { mean: 10.0, sigma: 1.2 }.sample(800, 5);
        let r = simulate_dist_taper(&MachineConfig::ncube2(16), 16, &costs, 128);
        assert_eq!(r.stats.total_tasks(), 800);
        let total: f64 = costs.iter().sum();
        assert!((r.stats.total_busy() - total).abs() < 1e-6);
    }

    #[test]
    fn independent_costs_keep_locality() {
        // "If task costs are independent then we expect most tasks to
        // remain on the processor owning them."
        let costs = CostDistribution::Uniform { mean: 20.0, spread: 0.2 }.sample(2048, 9);
        let r = simulate_dist_taper(&MachineConfig::ncube2(32), 32, &costs, 128);
        assert!(r.locality > 0.8, "locality {} too low for near-uniform costs", r.locality);
    }

    #[test]
    fn concentrated_cost_triggers_reassignment() {
        // All the cost sits on processor 0's block: the scheme must
        // move work (degenerating toward centralized TAPER).
        let p = 8;
        let n = 512;
        let mut costs = vec![1.0; n];
        for c in costs.iter_mut().take(n / p) {
            *c = 200.0;
        }
        let cfg = MachineConfig::ncube2(p);
        let r = simulate_dist_taper(&cfg, p, &costs, 64);
        assert!(r.reassignments > 0, "laggard's chunks must be re-assigned");
        // Compare with no-stealing: proc 0 alone does 64×200.
        let local_only: f64 = 64.0 * 200.0;
        assert!(
            r.finish < local_only,
            "stealing must beat local-only ({} !< {local_only})",
            r.finish
        );
    }

    #[test]
    fn deterministic() {
        let costs = CostDistribution::Bimodal { mean: 5.0, heavy_frac: 0.2, heavy_mult: 10.0 }
            .sample(300, 21);
        let a = simulate_dist_taper(&MachineConfig::ncube2(8), 8, &costs, 64);
        let b = simulate_dist_taper(&MachineConfig::ncube2(8), 8, &costs, 64);
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.reassignments, b.reassignments);
    }

    #[test]
    fn single_processor_degenerates() {
        let costs = vec![3.0; 30];
        let r = simulate_dist_taper(&MachineConfig::ncube2(1), 1, &costs, 64);
        assert_eq!(r.migrated_tasks, 0);
        assert_eq!(r.reassignments, 0);
        assert!((r.stats.total_busy() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_costs_never_migrate() {
        // Zero-variance work gives the root no imbalance signal, so
        // every task must execute on its home processor.
        for p in [2usize, 4, 8, 16, 32] {
            for n in [64usize, 256, 1024] {
                let costs = vec![10.0; n];
                let r = simulate_dist_taper(&MachineConfig::ncube2(p), p, &costs, 64);
                assert_eq!(r.migrated_tasks, 0, "p={p} n={n} migrated");
                assert_eq!(r.reassignments, 0, "p={p} n={n} reassigned");
                assert!((r.locality - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn epochs_advance_monotonically() {
        let costs = CostDistribution::HeavyTail { mean: 10.0, sigma: 1.2 }.sample(800, 5);
        let r = simulate_dist_taper(&MachineConfig::ncube2(16), 16, &costs, 128);
        assert!(r.epochs() >= 1, "an 800-task run must complete at least one epoch");
        assert!(
            r.epoch_times.windows(2).all(|w| w[0] <= w[1]),
            "epoch increments out of order: {:?}",
            r.epoch_times
        );
        // The last epoch's tokens climb the tree after the final chunk
        // completes, so increments may trail `finish` by control
        // latency — but never by more than one token round trip.
        let slack = token_latency(&MachineConfig::ncube2(16), 15)
            + broadcast_latency(&MachineConfig::ncube2(16), 16);
        assert!(
            r.epoch_times.iter().all(|&t| t >= 0.0 && t <= r.finish + slack),
            "epoch increments must happen within the run (+control tail)"
        );
    }

    #[test]
    fn token_latency_grows_with_depth() {
        let cfg = MachineConfig::ncube2(64);
        assert_eq!(token_latency(&cfg, 0), 0.0, "root pays nothing");
        assert!(token_latency(&cfg, 63) > token_latency(&cfg, 1));
    }
}
