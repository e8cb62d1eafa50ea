//! A hand-rolled rayon-equivalent scheduler baseline: join-style lazy
//! binary splitting with per-worker range stacks and steal-the-oldest
//! work stealing.
//!
//! The point of the row this module feeds is a head-to-head the paper's
//! policies never get in-tree otherwise: how does TAPER's
//! variance-adaptive *chunk sizing* compare against the scheduler the
//! broader ecosystem reaches for (`rayon`'s `par_iter` recursive
//! splitter)? Since the build is offline, the splitter is rebuilt on
//! `std` primitives alone, but it follows the same playbook:
//!
//! * the iteration space starts as one range on worker 0's stack;
//! * a worker pops the **top** of its own stack (LIFO — depth-first,
//!   cache-friendly), splits the range in half while it is longer than
//!   the grain, pushing right halves back, and executes the leftmost
//!   grain-sized piece;
//! * an idle worker steals the **oldest** (bottom-of-stack — largest)
//!   range of the first non-empty victim, so one steal moves half the
//!   victim's remaining subtree, just like a `join` thief;
//! * task values are stored straight into a shared
//!   [`OutputArena`] through the raw
//!   window of each range — ranges partition the index space, so no cell
//!   has two writers — the same zero-copy data plane the real backends
//!   use.
//!
//! What this baseline deliberately lacks is everything the paper adds:
//! no cost feedback, no variance awareness, no decreasing chunk series
//! — the grain is fixed up front. The gap between this row and the
//! TAPER rows *is* the measured value of adaptive chunking.

use orchestra_delirium::Node;
use orchestra_runtime::{OutputArena, TaskCtx, TaskKernel};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One measured splitter execution.
#[derive(Debug)]
pub struct SplitRun {
    /// Wall-clock time, µs.
    pub wall_us: f64,
    /// Range splits performed (each pushes one right half).
    pub splits: u64,
    /// Ranges obtained by raiding another worker's stack.
    pub steals: u64,
    /// Grain-sized pieces executed.
    pub chunks: u64,
    /// The op's output buffer, one value per task.
    pub outputs: Vec<f64>,
}

/// The fixed grain rayon's `with_min_len` idiom would pick for a flat
/// loop: enough pieces for `workers × 8`-way load balancing, never
/// below one task.
pub fn default_grain(tasks: usize, workers: usize) -> usize {
    (tasks / (workers.max(1) * 8)).max(1)
}

/// Worker-shared splitter state: per-worker stacks of `(start, len)`
/// ranges plus the counters. Stacks are mutex-wrapped (uncontended in
/// the common LIFO case; thieves take the lock briefly) — the
/// comparison targets scheduling *policy*, and the real backends pay a
/// claim-path synchronization cost too.
struct SplitState {
    stacks: Vec<Mutex<Vec<(usize, usize)>>>,
    remaining: AtomicUsize,
    splits: AtomicU64,
    steals: AtomicU64,
    chunks: AtomicU64,
}

/// Executes `kernel` over `costs.len()` tasks of `node` with `workers`
/// threads using lazy binary splitting at `grain`. Deterministic in
/// its outputs (each task index computes the same value regardless of
/// which worker ran it), nondeterministic in its steal/split counts —
/// exactly like the thing it models.
pub fn run_join_split(
    node: &Node,
    costs: &[f64],
    kernel: &(dyn TaskKernel + Sync),
    workers: usize,
    grain: usize,
) -> SplitRun {
    let n = costs.len();
    let workers = workers.max(1);
    let grain = grain.max(1);
    let arena = OutputArena::for_ops([n]);
    let state = SplitState {
        stacks: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
        remaining: AtomicUsize::new(n),
        splits: AtomicU64::new(0),
        steals: AtomicU64::new(0),
        chunks: AtomicU64::new(0),
    };
    if n > 0 {
        state.stacks[0].lock().expect("splitter stack poisoned").push((0, n));
    }
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for w in 0..workers {
            let state = &state;
            let arena = &arena;
            s.spawn(move || split_worker(w, state, arena, node, costs, kernel, grain));
        }
    });
    let wall_us = t0.elapsed().as_secs_f64() * 1e6;
    let mut outputs = arena.into_outputs();
    SplitRun {
        wall_us,
        splits: state.splits.load(Ordering::Relaxed),
        steals: state.steals.load(Ordering::Relaxed),
        chunks: state.chunks.load(Ordering::Relaxed),
        outputs: outputs.pop().expect("one op"),
    }
}

/// One worker's loop: own stack top → steal oldest → spin-wait until
/// the space is drained.
fn split_worker(
    w: usize,
    state: &SplitState,
    arena: &OutputArena,
    node: &Node,
    costs: &[f64],
    kernel: &(dyn TaskKernel + Sync),
    grain: usize,
) {
    let workers = state.stacks.len();
    loop {
        let popped = state.stacks[w].lock().expect("splitter stack poisoned").pop();
        let job = match popped {
            Some(j) => Some(j),
            None => {
                let mut found = None;
                for off in 1..workers {
                    let mut victim =
                        state.stacks[(w + off) % workers].lock().expect("splitter stack poisoned");
                    if !victim.is_empty() {
                        // Bottom of the stack: the oldest and largest
                        // range — one steal moves half the victim's
                        // remaining subtree.
                        found = Some(victim.remove(0));
                        break;
                    }
                }
                if found.is_some() {
                    state.steals.fetch_add(1, Ordering::Relaxed);
                }
                found
            }
        };
        let Some((start, mut len)) = job else {
            if state.remaining.load(Ordering::Acquire) == 0 {
                return;
            }
            std::thread::yield_now();
            continue;
        };
        // Lazy binary split: halve until at most a grain remains,
        // parking right halves on the own stack for later (or for a
        // thief).
        while len > grain {
            let half = len / 2;
            state.stacks[w]
                .lock()
                .expect("splitter stack poisoned")
                .push((start + half, len - half));
            state.splits.fetch_add(1, Ordering::Relaxed);
            len = half;
        }
        let out = arena.cells(0, start..start + len);
        for (k, &cost_hint) in costs[start..start + len].iter().enumerate() {
            let ctx = TaskCtx { node, iter: 0, task: start + k, cost_hint, inputs: &[] };
            // SAFETY: `k < len`, inside the window `cells` checked, and
            // ranges partition the index space, so this worker is the
            // cell's only writer.
            unsafe { out.add(k).write(kernel.run_task(&ctx)) };
        }
        state.chunks.fetch_add(1, Ordering::Relaxed);
        state.remaining.fetch_sub(len, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_delirium::{DelirGraph, NodeKind};
    use orchestra_runtime::{costs_of_node, SpinKernel};

    fn flat_node(tasks: usize) -> DelirGraph {
        let mut g = DelirGraph::new();
        g.add_node("flat", NodeKind::DataParallel { tasks, mean_cost: 2.0, cv: 0.7 }, None);
        g
    }

    /// Reference: run every task sequentially through the same kernel.
    fn sequential(node: &Node, costs: &[f64], kernel: &SpinKernel) -> Vec<f64> {
        costs
            .iter()
            .enumerate()
            .map(|(task, &c)| {
                kernel.run_task(&TaskCtx { node, iter: 0, task, cost_hint: c, inputs: &[] })
            })
            .collect()
    }

    #[test]
    fn splitter_matches_sequential_bitwise() {
        let g = flat_node(777);
        let node = &g.nodes[0];
        let costs = costs_of_node(node, 42);
        let kernel = SpinKernel::with_scale(2.0);
        let expect = sequential(node, &costs, &kernel);
        for workers in [1, 2, 4] {
            let run =
                run_join_split(node, &costs, &kernel, workers, default_grain(costs.len(), workers));
            assert_eq!(run.outputs, expect, "workers={workers}");
            assert_eq!(run.outputs.len(), 777);
            assert!(run.chunks >= 1);
        }
    }

    #[test]
    fn splits_cover_the_space_at_fine_grain() {
        let g = flat_node(64);
        let node = &g.nodes[0];
        let costs = costs_of_node(node, 7);
        let kernel = SpinKernel::with_scale(1.0);
        let run = run_join_split(node, &costs, &kernel, 2, 1);
        // Grain 1 over 64 tasks: a full binary split tree has 63
        // internal nodes, every leaf is its own chunk.
        assert_eq!(run.chunks, 64);
        assert_eq!(run.splits, 63);
    }

    #[test]
    fn empty_space_and_single_task_complete() {
        let g = flat_node(1);
        let node = &g.nodes[0];
        let kernel = SpinKernel::with_scale(1.0);
        let run = run_join_split(node, &[], &kernel, 3, 4);
        assert!(run.outputs.is_empty());
        assert_eq!(run.chunks, 0);
        let costs = costs_of_node(node, 1);
        let run = run_join_split(node, &costs, &kernel, 3, 4);
        assert_eq!(run.outputs.len(), 1);
        assert_eq!(run.chunks, 1);
    }
}
