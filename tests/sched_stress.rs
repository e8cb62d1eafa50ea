//! Contention stress tests for the threaded backend's scheduling hot
//! path.
//!
//! Many workers × tiny tasks is the adversarial regime for the claim
//! queue and the ready deques: scheduling events outnumber useful
//! work, so any lost wakeup, duplicated chunk, or dropped token shows
//! up as a hang, a wrong execution count, or a diverging buffer.
//! Unlike the differential suite (capped at 2 workers), these tests
//! deliberately oversubscribe the machine with 8 workers.
//!
//! The task-cost RNG seed comes from `ORCHESTRA_TEST_SEED` (decimal or
//! `0x` hex; default fixed) and is printed in every failure message,
//! so a seed that exposes an interleaving bug can be replayed with
//! `ORCHESTRA_TEST_SEED=<seed> cargo test --test sched_stress`.

mod common;

use common::shapes;
use orchestra_delirium::DelirGraph;
use orchestra_runtime::chunking::PolicyKind;
use orchestra_runtime::executor::ExecutorOptions;
use orchestra_runtime::threaded::{execute_sequential, execute_threaded, SpinKernel};
use orchestra_runtime::RunReport;

const POLICIES: [PolicyKind; 4] =
    [PolicyKind::Static, PolicyKind::SelfSched, PolicyKind::Taper, PolicyKind::TaperCostFn];

const WORKERS: usize = 8;

/// Stress options: `WORKERS` threads and the suite's replayable seed.
fn stress_opts(policy: PolicyKind) -> ExecutorOptions {
    ExecutorOptions {
        policy,
        threads: WORKERS,
        seed: common::test_seed(),
        ..ExecutorOptions::default()
    }
}

/// One wide op of tiny tasks: every worker hammers one chunk queue.
fn flat_tiny_graph() -> DelirGraph {
    shapes::flat(12_000, 1.0, 1.2)
}

/// A task fanning out into many small independent ops: every worker
/// hammers the ready deques and the park/wake path instead.
fn wide_dag_graph() -> DelirGraph {
    shapes::fanout(12, 160, 16, 1.0, 0.8, true)
}

fn assert_exactly_once_and_bitwise(
    g: &DelirGraph,
    opts: &ExecutorOptions,
    label: &str,
) -> RunReport {
    let label = format!("{label}/seed={:#x}", opts.seed);
    let kernel = SpinKernel::with_scale(1.0);
    let seq = execute_sequential(g, opts, &kernel).expect("sequential reference");
    let thr = execute_threaded(g, opts, &kernel).expect("threaded run");
    for (op, counts) in thr.ops.iter().zip(&thr.exec_counts()) {
        assert!(
            counts.iter().all(|&c| c == 1),
            "{label}: op {} has a task executed != once",
            op.name
        );
    }
    assert_eq!(seq.outputs.len(), thr.outputs.len(), "{label}: op count");
    for (i, (a, b)) in seq.outputs.iter().zip(&thr.outputs).enumerate() {
        assert_eq!(a, b, "{label}: op {} buffers diverge", seq.ops[i].name);
    }
    thr
}

#[test]
fn contended_flat_op_every_policy() {
    let g = flat_tiny_graph();
    for policy in POLICIES {
        let opts = stress_opts(policy);
        assert_exactly_once_and_bitwise(&g, &opts, policy.name());
    }
}

#[test]
fn contended_wide_dag_every_policy() {
    let g = wide_dag_graph();
    for policy in POLICIES {
        let opts = stress_opts(policy);
        assert_exactly_once_and_bitwise(&g, &opts, policy.name());
    }
}

/// A claim storm against an already-exhausted queue: stale tokens keep
/// circulating after an op drains, so `claim()` on an empty queue is a
/// real hot path, not an error path. N thief threads spin `claim()`
/// thousands of times on a drained queue — every call must return
/// `None`, `has_more()` must never flip back to `true`, nothing may
/// read as unclaimed, and the chunk counter must not grow.
#[test]
fn post_exhaustion_claim_storm() {
    use orchestra_runtime::threaded::queue::ChunkQueue;
    use std::sync::Arc;
    const TASKS: usize = 512;
    const SPINS: usize = 5_000;
    // One claim path for both: static asks its policy for nothing but
    // a size, TAPER also takes feedback.
    for policy in [PolicyKind::Static, PolicyKind::Taper] {
        let q = Arc::new(ChunkQueue::new(policy.instantiate(TASKS), TASKS, WORKERS));
        let mut drained = 0usize;
        while let Some(c) = q.claim() {
            drained += c.len;
        }
        assert_eq!(drained, TASKS, "{}: queue drained exactly once", policy.name());
        assert!(!q.has_more(), "{}: exhausted queue advertises work", policy.name());
        let chunks0 = q.chunks_claimed();
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for _ in 0..SPINS {
                        assert!(q.claim().is_none(), "claim on an exhausted queue");
                        assert!(!q.has_more(), "has_more true after the final chunk");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("thief thread panicked");
        }
        assert_eq!(q.remaining(), 0, "{}: stale claims left work behind", policy.name());
        assert_eq!(q.chunks_claimed(), chunks0, "{}: chunk counter grew", policy.name());
        assert!(!q.has_more());
    }
}

/// A live claim storm against the lock-free adaptive path: 8 threads
/// hammer one adaptive queue over a tiny-task space, feeding Welford
/// stats back after every chunk so the winner keeps republishing new
/// epoch descriptors under fire, while the `fetch_add` fast path races
/// it from every other thread. Every task index must be handed out
/// exactly once across all threads, whatever the interleaving.
///
/// That the republish path runs at all is not left to the scheduler:
/// with no feedback yet TAPER's construction-time decision is
/// `total / workers` per chunk, so eight claimers that all load it
/// before the fourth claim crosses the epoch end cover the op in eight
/// chunks (legitimately — it is the policy's no-sample answer). So the
/// claimers take their *first* chunk one at a time, each feeding it
/// back before the next claims, and hold it until all have: the fourth
/// claim republishes with three chunks of samples in hand, and the
/// fifth must come out smaller. The storm proper starts after that.
#[test]
fn adaptive_live_claim_storm_exactly_once() {
    use orchestra_runtime::stats::OnlineStats;
    use orchestra_runtime::threaded::queue::{Chunk, ChunkQueue};
    use std::sync::{Arc, Barrier, Mutex};
    const TASKS: usize = 12_000;
    for policy in [PolicyKind::Taper, PolicyKind::TaperCostFn] {
        let q = Arc::new(ChunkQueue::new(policy.instantiate(TASKS), TASKS, WORKERS));
        assert!(q.is_adaptive(), "{}: expected a policy that takes feedback", policy.name());
        // The first claims in the order they were made; the lock is the
        // turnstile that makes them one at a time.
        let firsts: Arc<Mutex<Vec<Chunk>>> = Arc::default();
        let all_observed = Arc::new(Barrier::new(WORKERS));
        let handles: Vec<_> = (0..WORKERS)
            .map(|t| {
                let (q, firsts, all_observed) =
                    (Arc::clone(&q), Arc::clone(&firsts), Arc::clone(&all_observed));
                std::thread::spawn(move || {
                    let mut claimed: Vec<(usize, usize)> = Vec::new();
                    let mut run = |c: Chunk| {
                        // Tiny synthetic task costs, varied per thread
                        // so concurrent feedback pushes the policy
                        // state around while descriptors republish.
                        let mut stats = OnlineStats::new();
                        for i in c.start..c.start + c.len {
                            stats.observe(1.0 + ((i + t) % 5) as f64);
                        }
                        q.observe_chunk(c.start, c.len, &stats);
                        claimed.push((c.start, c.len));
                    };
                    {
                        let mut order = firsts.lock().expect("no claimer panics in its turn");
                        let first = q.claim().expect("a first chunk for every claimer");
                        run(first);
                        order.push(first);
                    }
                    all_observed.wait();
                    while let Some(c) = q.claim() {
                        run(c);
                    }
                    claimed
                })
            })
            .collect();
        let mut seen = vec![0u32; TASKS];
        let mut chunks = 0u64;
        for h in handles {
            for (start, len) in h.join().expect("claimer thread panicked") {
                chunks += 1;
                for slot in &mut seen[start..start + len] {
                    *slot += 1;
                }
            }
        }
        let dupes = seen.iter().filter(|&&c| c > 1).count();
        let missed = seen.iter().filter(|&&c| c == 0).count();
        assert_eq!(
            (dupes, missed),
            (0, 0),
            "{}: {dupes} duplicated / {missed} missed tasks under the claim storm",
            policy.name()
        );
        assert_eq!(q.chunks_claimed(), chunks, "{}: chunk counter drifted", policy.name());
        assert!(!q.has_more(), "{}: drained queue advertises work", policy.name());
        assert!(q.claim().is_none(), "{}: claim after drain", policy.name());
        // The construction-time epoch is half the op in `total / workers`
        // chunks; the claim that ends it republishes, so the next one is
        // sized from samples. A queue that never republished would hand
        // out `total / workers` again.
        let firsts = firsts.lock().expect("claimers joined");
        let no_sample = TASKS / WORKERS;
        for (n, c) in firsts[..WORKERS / 2].iter().enumerate() {
            assert_eq!(
                (c.start, c.len),
                (n * no_sample, no_sample),
                "{}: claim {n}",
                policy.name()
            );
        }
        assert!(
            firsts[WORKERS / 2].len < no_sample,
            "{}: the claim after the first epoch is {} tasks, as before any sample",
            policy.name(),
            firsts[WORKERS / 2].len
        );
    }
}

/// A steal storm against one loaded victim: completing `src` enables
/// all 12 fan-out ops at once, and the completer pushes every token
/// onto its OWN deque — so seven empty thieves walking the steal ring
/// all end on a single worker's deque. Steal *counts* depend on host
/// timing — on one core the victim often drains its deque before a
/// thief gets a window — so the test checks exactly-once execution and
/// bitwise results only, never `steals > 0`.
#[test]
fn steal_storm_single_loaded_victim() {
    let g = wide_dag_graph();
    for round in 0..3 {
        assert_exactly_once_and_bitwise(
            &g,
            &stress_opts(PolicyKind::Taper),
            &format!("storm/{round}"),
        );
    }
}

/// Repeated runs of the highest-churn configuration: self-scheduling
/// hands out 12k size-1 chunks to 8 workers, so any rare interleaving
/// bug (lost wakeup, double claim at the exhaustion boundary) gets
/// many chances to fire.
#[test]
fn repeated_self_sched_churn() {
    let g = flat_tiny_graph();
    let opts = stress_opts(PolicyKind::SelfSched);
    let kernel = SpinKernel::with_scale(1.0);
    for round in 0..5 {
        let thr = execute_threaded(&g, &opts, &kernel).expect("threaded run");
        let counts = &thr.exec_counts()[0];
        assert!(
            counts.iter().all(|&c| c == 1),
            "round {round}/seed={:#x}: lost or duplicated task",
            opts.seed
        );
        assert_eq!(thr.ops[0].chunks, 12_000, "round {round}: self-scheduling chunk count");
    }
}
