//! Compares the grain-size policies (§4.1.1) on an irregular parallel
//! operation, demonstrates distributed TAPER's locality behaviour,
//! runs the same graph on the simulated machine *and* on real threads,
//! printing predicted vs measured speedup, and times TAPER on the
//! worker pool against a rayon-style splitter on a flat one-step op.
//!
//! ```sh
//! cargo run --release --example scheduler_comparison
//! ```

use orchestra_bench::splitter::{default_grain, run_join_split};
use orchestra_delirium::{DataAnno, DelirGraph, NodeKind};
use orchestra_machine::{CostDistribution, MachineConfig};
use orchestra_runtime::executor::{execute_graph, ExecutorOptions};
use orchestra_runtime::threaded::{execute_threaded, ExecutorBackend, SpinKernel};
use orchestra_runtime::{
    costs_of_node, execute_async, simulate_dist_taper, simulate_policy, OpOptions, PolicyKind,
};

fn main() {
    let p = 128;
    let cfg = MachineConfig::ncube2(p);

    // An irregular operation: clustered heavy tasks, as produced by a
    // data-dependent mask.
    let costs = CostDistribution::ClusteredBimodal {
        mean: 100.0,
        heavy_frac: 0.2,
        heavy_mult: 6.0,
        cluster: 64,
    }
    .sample(4096, 17);
    let total: f64 = costs.iter().sum();
    let ideal = total / p as f64;

    println!("irregular operation: 4096 tasks, {p} processors, ideal {ideal:.0} µs\n");
    println!("{:<22} {:>10} {:>6} {:>8} {:>9}", "policy", "finish µs", "eff", "chunks", "migrated");
    for kind in
        [PolicyKind::Static, PolicyKind::SelfSched, PolicyKind::Taper, PolicyKind::TaperCostFn]
    {
        let r = simulate_policy(&cfg, p, &costs, kind, &OpOptions::default());
        println!(
            "{:<22} {:>10.0} {:>5.0}% {:>8} {:>9}",
            kind.name(),
            r.finish,
            ideal / r.finish * 100.0,
            r.chunks,
            r.migrated_tasks
        );
    }

    // Distributed TAPER: epoch tokens through the binary tree, chunk
    // re-assignment from laggards.
    println!("\ndistributed TAPER (epoch/token tree):");
    let d = simulate_dist_taper(&cfg, p, &costs, 64);
    println!(
        "  finish {:.0} µs (eff {:.0}%), locality {:.0}%, re-assignments {}",
        d.finish,
        ideal / d.finish * 100.0,
        d.locality * 100.0,
        d.reassignments
    );

    // A regular operation keeps near-perfect locality.
    let regular = CostDistribution::Uniform { mean: 100.0, spread: 0.1 }.sample(4096, 18);
    let dr = simulate_dist_taper(&cfg, p, &regular, 64);
    println!(
        "  on regular work: locality {:.0}%, re-assignments {} — \"most tasks\n   remain on the processor owning them\" (§4.1.1)",
        dr.locality * 100.0,
        dr.reassignments
    );

    simulated_vs_measured();
    flat_head_to_head();
}

/// Runs one graph through both backends: the nCUBE-2 simulator
/// (speedup predicted by the cost model) and real `std::thread`
/// workers (speedup measured with wall clocks), for each chunk policy.
fn simulated_vs_measured() {
    let mut g = DelirGraph::new();
    let a = g.add_node("A", NodeKind::DataParallel { tasks: 512, mean_cost: 120.0, cv: 1.2 }, None);
    let b = g.add_node("B", NodeKind::DataParallel { tasks: 1024, mean_cost: 60.0, cv: 0.1 }, None);
    let m = g.add_node("M", NodeKind::Merge { cost: 40.0 }, None);
    g.add_edge(a, m, DataAnno::array("ra", 512));
    g.add_edge(b, m, DataAnno::array("rb", 1024));

    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).clamp(2, 8);
    println!(
        "\nsimulated (nCUBE-2, {threads} procs) vs measured (real threads, {threads} workers):"
    );
    println!("{:<22} {:>13} {:>13} {:>12}", "policy", "sim speedup", "real speedup", "wall ms");
    let kernel = SpinKernel::default();
    for policy in
        [PolicyKind::Static, PolicyKind::SelfSched, PolicyKind::Taper, PolicyKind::TaperCostFn]
    {
        let opts = ExecutorOptions { policy, threads, ..ExecutorOptions::default() };
        let sim = execute_graph(&g, &MachineConfig::ncube2(threads), &opts).expect("valid graph");
        let real = execute_threaded(&g, &opts, &kernel).expect("valid graph");
        println!(
            "{:<22} {:>12.2}x {:>12.2}x {:>12.1}",
            policy.name(),
            sim.speedup(),
            real.measured_speedup(),
            real.wall_us / 1000.0,
        );
    }
    // Distributed TAPER on real threads: per-worker home queues with
    // epoch-token migration instead of a shared claim queue.
    let opts = ExecutorOptions {
        backend: ExecutorBackend::ThreadedDist,
        threads,
        ..ExecutorOptions::default()
    };
    let real = execute_threaded(&g, &opts, &kernel).expect("valid graph");
    println!(
        "{:<22} {:>13} {:>12.2}x {:>12.1}   locality {:.0}%, re-assignments {}",
        "dist-TAPER (threads)",
        "-",
        real.measured_speedup(),
        real.wall_us / 1000.0,
        real.locality * 100.0,
        real.reassignments,
    );
    // Cooperative futures backend: the same graph multiplexed as async
    // tasks over a small driver pool, yielding once per claimed chunk.
    let opts = ExecutorOptions {
        policy: PolicyKind::Taper,
        drivers: threads,
        ..ExecutorOptions::default()
    };
    let asy = execute_async(&g, &opts, &kernel).expect("valid graph");
    println!(
        "{:<22} {:>13} {:>12.2}x {:>12.1}   {} claims / {} yields, driver util {:.0}%",
        "async (futures)",
        "-",
        asy.measured_speedup(),
        asy.wall_us / 1000.0,
        asy.claims,
        asy.yields,
        asy.driver_utilization() * 100.0,
    );
    // Rayon-equivalent baseline: node A's irregular population under a
    // hand-rolled join splitter (lazy binary splitting, fixed grain,
    // steal-oldest) — no cost feedback, no adaptive chunking.
    let node_a = &g.nodes[0];
    let costs_a = costs_of_node(node_a, ExecutorOptions::default().seed);
    let grain = default_grain(costs_a.len(), threads);
    let ray = run_join_split(node_a, &costs_a, &kernel, threads, grain);
    println!(
        "{:<22} {:>13} {:>12} {:>12.1}   {} chunks / {} splits / {} steals (op A only)",
        "rayon-like (splitter)",
        "-",
        "-",
        ray.wall_us / 1000.0,
        ray.chunks,
        ray.splits,
        ray.steals,
    );
    println!(
        "  (measured speedup = Σ worker busy time / wall time; all runs\n   \
         schedule the same cost populations through the same policies)"
    );
}

/// The flat one-step op — 262 144 tasks of about one arithmetic step,
/// so nearly all the time is scheduling — under TAPER on the worker
/// pool (`RunReport::wall_us`, the pool phase alone) and under the
/// join splitter, on the same node, costs and kernel.
fn flat_head_to_head() {
    const TASKS: usize = 262_144;
    let mut g = DelirGraph::new();
    g.add_node("flat", NodeKind::DataParallel { tasks: TASKS, mean_cost: 1.0, cv: 0.1 }, None);
    let node = &g.nodes[0];
    let kernel = SpinKernel::with_scale(1.0);
    let costs = costs_of_node(node, ExecutorOptions::default().seed);
    let best_ns_per_task = |wall_us: &dyn Fn() -> f64| {
        (0..5).map(|_| wall_us()).fold(f64::INFINITY, f64::min) * 1e3 / TASKS as f64
    };
    println!("\nflat op, {TASKS} one-step tasks, ns/task (best of 5):");
    println!("{:<10} {:>12} {:>12}", "", "TAPER pool", "splitter");
    for w in [1, 2] {
        let opts =
            ExecutorOptions { policy: PolicyKind::Taper, threads: w, ..ExecutorOptions::default() };
        let pool = best_ns_per_task(&|| {
            execute_threaded(&g, &opts, &kernel).expect("valid graph").wall_us
        });
        let split = best_ns_per_task(&|| {
            run_join_split(node, &costs, &kernel, w, default_grain(TASKS, w)).wall_us
        });
        println!("{:<10} {pool:>12.1} {split:>12.1}", format!("flat w={w}"));
    }
}
