//! Differential tests for the async cooperative backend.
//!
//! Beyond the cross-backend bitwise identity (see
//! `backend_differential.rs`), the cooperative executor has properties
//! of its own worth pinning:
//!
//! * exactly-once execution under *oversubscribed* claimer futures
//!   (every op spawns more claimers than drivers, so claim
//!   interleavings are denser than preemptive threads produce);
//! * nonzero yields — every executed chunk is followed by a
//!   cooperative yield, the backend's defining scheduling event;
//! * full determinism at one driver: FIFO run queue + cost-hint-fed
//!   TAPER means the entire schedule (chunk counts, yield counts)
//!   replays identically;
//! * per-op policy state: TAPER's µ/σ sampling starts fresh for every
//!   operation (DESIGN §12), so an upstream op's variance cannot leak
//!   into a downstream op's chunk sizes.
//!
//! Graph shapes come from the shared builders in `common::shapes`.

mod common;

use common::shapes;
use orchestra_delirium::DelirGraph;
use orchestra_runtime::chunking::PolicyKind;
use orchestra_runtime::executor::ExecutorOptions;
use orchestra_runtime::threaded::{execute_sequential, SpinKernel};
use orchestra_runtime::{execute_async, RunReport};

const POLICIES: [PolicyKind; 4] =
    [PolicyKind::Static, PolicyKind::SelfSched, PolicyKind::Taper, PolicyKind::TaperCostFn];

fn flat_graph() -> (DelirGraph, ExecutorOptions) {
    (shapes::flat(256, 1.5, 0.6), ExecutorOptions { drivers: 2, ..ExecutorOptions::default() })
}

fn dag_graph() -> (DelirGraph, ExecutorOptions) {
    let g = shapes::diamond(4.0, (160, 2.0, 0.9), (96, 1.5, 0.2), 2.0);
    (g, ExecutorOptions { drivers: 2, ..ExecutorOptions::default() })
}

fn pipeline_graph() -> (DelirGraph, ExecutorOptions) {
    let (g, pipeline_iters) = shapes::pipeline((48, 2.0, 0.5), (12, 2.0, 0.5), 4, Some(64));
    (g, ExecutorOptions { drivers: 2, pipeline_iters, ..ExecutorOptions::default() })
}

/// The skewed shape: a two-population mixture (many cheap tasks, a few
/// 6× heavier ones).
fn mixture_graph() -> (DelirGraph, ExecutorOptions) {
    let g = shapes::mixture(&[(90, 1.0, 0.1), (30, 6.0, 0.8)], true);
    (g, ExecutorOptions { drivers: 2, ..ExecutorOptions::default() })
}

fn graphs() -> Vec<(&'static str, DelirGraph, ExecutorOptions)> {
    let (g0, o0) = flat_graph();
    let (g1, o1) = dag_graph();
    let (g2, o2) = pipeline_graph();
    let (g3, o3) = mixture_graph();
    vec![("flat", g0, o0), ("dag", g1, o1), ("pipeline", g2, o2), ("mixture", g3, o3)]
}

#[test]
fn every_policy_executes_each_task_exactly_once() {
    let kernel = SpinKernel::with_scale(2.0);
    for (name, g, opts) in graphs() {
        for policy in POLICIES {
            let opts = ExecutorOptions { policy, ..opts.clone() };
            let run = execute_async(&g, &opts, &kernel).unwrap();
            for (op, counts) in run.ops.iter().zip(&run.exec_counts()) {
                assert!(
                    counts.iter().all(|&c| c == 1),
                    "{name}/{}: op {} task exec counts {counts:?}",
                    policy.name(),
                    op.name,
                );
            }
            let total: u64 = run.exec_counts().iter().map(|c| c.len() as u64).sum();
            assert_eq!(
                run.stats.total_tasks(),
                total,
                "{name}/{}: driver task accounting mismatch",
                policy.name()
            );
        }
    }
}

#[test]
fn async_results_bit_identical_to_sequential() {
    let kernel = SpinKernel::with_scale(2.0);
    for (name, g, opts) in graphs() {
        let seq = execute_sequential(&g, &opts, &kernel).unwrap();
        for policy in POLICIES {
            let opts = ExecutorOptions { policy, ..opts.clone() };
            let run = execute_async(&g, &opts, &kernel).unwrap();
            assert_eq!(seq.outputs.len(), run.outputs.len(), "{name}: op count");
            for (i, (s, t)) in seq.outputs.iter().zip(&run.outputs).enumerate() {
                for (j, (a, b)) in s.iter().zip(t).enumerate() {
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "{name}/{}: op {} task {j}: sequential {a:?} != async {b:?}",
                        policy.name(),
                        seq.ops[i].name,
                    );
                }
            }
        }
    }
}

#[test]
fn skewed_workload_yields_at_chunk_boundaries() {
    // The acceptance shape: on the skewed mixture every executed chunk
    // is followed by a cooperative yield, so yields are nonzero and
    // exactly one per claim.
    let (g, opts) = mixture_graph();
    let run = execute_async(&g, &opts, &SpinKernel::with_scale(2.0)).unwrap();
    assert!(run.yields > 0, "skewed workload produced no yields");
    assert_eq!(run.claims, run.yields, "one yield per executed chunk");
    let m = run.ops.iter().find(|o| o.name == "M").unwrap();
    assert!(m.yields > 0 && m.chunks == m.yields, "op M: {} chunks, {} yields", m.chunks, m.yields);
    assert!(run.polls >= run.claims + run.spawned as u64);
}

#[test]
fn single_driver_schedule_is_deterministic() {
    // One driver = FIFO run queue + cost-hint-fed TAPER: the whole
    // schedule must replay exactly, not just the results.
    let kernel = SpinKernel::with_scale(2.0);
    for (name, g, opts) in graphs() {
        let opts = ExecutorOptions { drivers: 1, policy: PolicyKind::Taper, ..opts };
        let a = execute_async(&g, &opts, &kernel).unwrap();
        let b = execute_async(&g, &opts, &kernel).unwrap();
        let sched_of = |r: &RunReport| -> Vec<(String, u64, u64)> {
            r.ops.iter().map(|o| (o.name.clone(), o.chunks, o.yields)).collect()
        };
        assert_eq!(sched_of(&a), sched_of(&b), "{name}: schedule not deterministic");
        assert_eq!(a.claims, b.claims, "{name}");
        assert_eq!(a.yields, b.yields, "{name}");
    }
}

/// DESIGN §12's per-op sampling contract, asserted at the layer every
/// backend shares: each operation wraps a *fresh*
/// `PolicyKind::instantiate` in its own `ChunkQueue`, so draining a
/// high-variance op A first must leave op B's chunk sequence exactly
/// what it is when B runs alone. The counterfactual is also pinned: a
/// policy that *did* inherit A's skewed µ/σ samples carves B
/// differently, so the equality above is evidence of isolation, not
/// of insensitivity.
#[test]
fn taper_sampling_state_is_per_op() {
    use orchestra_runtime::threaded::queue::ChunkQueue;
    use orchestra_runtime::OnlineStats;
    // Deterministic single-claimant drain, feeding the policy each
    // chunk's costs exactly like the async backend's control plane.
    let drain = |queue: &ChunkQueue, costs: &[f64]| -> Vec<(usize, usize)> {
        let mut seq = Vec::new();
        while let Some(c) = queue.claim() {
            let mut stats = OnlineStats::new();
            for cost in &costs[c.start..c.start + c.len] {
                stats.observe(*cost);
            }
            queue.observe_chunk(c.start, c.len, &stats);
            seq.push((c.start, c.len));
        }
        seq
    };
    // A: heavily skewed costs. B: mildly varying costs.
    let a_costs: Vec<f64> = (0..64).map(|i| if i % 4 == 0 { 12.0 } else { 0.1 }).collect();
    let b_costs: Vec<f64> = (0..200).map(|i| if i % 3 == 0 { 1.3 } else { 1.0 }).collect();

    // What every backend does: op A and op B each get a fresh policy.
    let qa = ChunkQueue::new(PolicyKind::Taper.instantiate(64), 64, 4);
    let a_seq = drain(&qa, &a_costs);
    let qb = ChunkQueue::new(PolicyKind::Taper.instantiate(200), 200, 4);
    let b_after_a = drain(&qb, &b_costs);

    let qb_alone = ChunkQueue::new(PolicyKind::Taper.instantiate(200), 200, 4);
    let b_alone = drain(&qb_alone, &b_costs);
    assert_eq!(b_after_a, b_alone, "per-op policy state leaked across operations");

    // Counterfactual: a policy pre-loaded with A's skewed samples
    // (what carrying state across ops would mean) schedules B
    // differently — TAPER starts from a high cv and carves smaller
    // early chunks.
    let mut leaked = PolicyKind::Taper.instantiate(200);
    for (i, &c) in a_costs.iter().enumerate() {
        leaked.observe(i, c);
    }
    let qb_leaked = ChunkQueue::new(leaked, 200, 4);
    let b_leaked = drain(&qb_leaked, &b_costs);
    assert_ne!(b_leaked, b_alone, "carried-over state had no effect; test is vacuous");
    // Sanity: A really was scheduled adaptively (multiple chunks).
    assert!(a_seq.len() > 1, "A drained in one chunk; skew never observed");
}

#[test]
fn barrier_mode_matches_too() {
    let kernel = SpinKernel::with_scale(2.0);
    let (g, opts) = pipeline_graph();
    let opts = ExecutorOptions { pipeline_overlap: false, ..opts };
    let seq = execute_sequential(&g, &opts, &kernel).unwrap();
    let run = execute_async(&g, &opts, &kernel).unwrap();
    assert_eq!(seq.outputs, run.outputs);
}

/// A wide fan-out (16 independent ops) over 2 drivers: the point of
/// the backend — many in-flight ops multiplexed over few threads —
/// must hold up (all complete exactly once, utilization is sane).
#[test]
fn many_inflight_ops_multiplex_over_two_drivers() {
    let g = shapes::fanout(16, 24, 0, 1.0, 0.5, false);
    let opts = ExecutorOptions { drivers: 2, ..ExecutorOptions::default() };
    let kernel = SpinKernel::with_scale(2.0);
    let run = execute_async(&g, &opts, &kernel).unwrap();
    assert_eq!(run.stats.total_tasks(), 1 + 16 * 24);
    for counts in &run.exec_counts() {
        assert!(counts.iter().all(|&c| c == 1));
    }
    assert!(run.driver_utilization() <= 1.0 + 1e-9);
    assert!(run.measured_speedup() <= 2.0 + 1e-9);
    let seq = execute_sequential(&g, &opts, &kernel).unwrap();
    assert_eq!(seq.outputs, run.outputs);
}
