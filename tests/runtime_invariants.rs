//! Property tests on the runtime's scheduling invariants: every policy
//! executes every task exactly once, conserves work, and respects the
//! trivial lower bounds; distributed TAPER additionally preserves
//! locality on regular work.

use orchestra_delirium::{DataAnno, DelirGraph, NodeKind};
use orchestra_machine::{CostDistribution, MachineConfig};
use orchestra_runtime::{
    execute_graph, simulate_dist_taper, simulate_policy, ExecutorOptions, OpOptions, PolicyKind,
};
use proptest::prelude::*;

fn any_policy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Static),
        Just(PolicyKind::SelfSched),
        Just(PolicyKind::Gss),
        Just(PolicyKind::Factoring),
        Just(PolicyKind::Taper),
        Just(PolicyKind::TaperCostFn),
    ]
}

fn any_distribution() -> impl Strategy<Value = CostDistribution> {
    prop_oneof![
        (1.0f64..100.0).prop_map(|mean| CostDistribution::Constant { mean }),
        (1.0f64..100.0, 0.0f64..0.9)
            .prop_map(|(mean, spread)| CostDistribution::Uniform { mean, spread }),
        (1.0f64..50.0, 0.05f64..0.5, 2.0f64..10.0).prop_map(|(mean, f, m)| {
            CostDistribution::Bimodal { mean, heavy_frac: f, heavy_mult: m }
        }),
        (1.0f64..50.0, 0.05f64..0.4, 2.0f64..8.0, 4usize..64).prop_map(|(mean, f, m, cl)| {
            CostDistribution::ClusteredBimodal { mean, heavy_frac: f, heavy_mult: m, cluster: cl }
        }),
    ]
}

/// Builds a random-but-valid DAG from a flat spec list: node `i > 0`
/// gets an edge from node `pred_sel % i`, so edges always point
/// backwards.
fn build_graph(specs: &[(u8, usize, f64, usize)], cv: f64) -> (DelirGraph, usize) {
    let mut g = DelirGraph::new();
    let mut ids = Vec::new();
    for (i, &(kind_sel, tasks, mean, pred_sel)) in specs.iter().enumerate() {
        let kind = match kind_sel {
            0 => NodeKind::Task { cost: mean },
            1 => NodeKind::Merge { cost: mean },
            _ => NodeKind::DataParallel { tasks, mean_cost: mean, cv },
        };
        let id = g.add_node(format!("n{i}"), kind, None);
        if i > 0 {
            let from = ids[pred_sel % i];
            g.add_edge(from, id, DataAnno::array(format!("e{i}"), tasks as u64));
        }
        ids.push(id);
    }
    let count = ids.len();
    (g, count)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_policy_conserves_tasks_and_work(
        kind in any_policy(),
        dist in any_distribution(),
        n in 1usize..600,
        p_exp in 0u32..8,
        seed in 0u64..1000,
    ) {
        let p = 1usize << p_exp;
        let costs = dist.sample(n, seed);
        let total: f64 = costs.iter().sum();
        let cfg = MachineConfig::ncube2(p);
        let r = simulate_policy(&cfg, p, &costs, kind, &OpOptions::default());

        // Every task ran exactly once; busy time is conserved.
        prop_assert_eq!(r.stats.total_tasks(), n as u64);
        prop_assert!((r.stats.total_busy() - total).abs() < 1e-6 * total.max(1.0));

        // Trivial lower bounds.
        let max_task = costs.iter().fold(0.0f64, |a, &b| a.max(b));
        prop_assert!(r.finish + 1e-9 >= total / p as f64);
        prop_assert!(r.finish + 1e-9 >= max_task);

        // Upper bound: even serial execution plus all overheads cannot
        // exceed total + per-chunk overhead + transfers, generously.
        let bound = total
            + r.chunks as f64 * cfg.sched_overhead
            + r.migrated_tasks as f64 * cfg.msg_time(0, p - 1, 10_000)
            + 1.0;
        prop_assert!(r.finish <= bound, "finish {} > bound {}", r.finish, bound);
    }

    #[test]
    fn simulation_is_deterministic(
        kind in any_policy(),
        n in 1usize..300,
        seed in 0u64..100,
    ) {
        let costs =
            CostDistribution::HeavyTail { mean: 20.0, sigma: 1.0 }.sample(n, seed);
        let cfg = MachineConfig::ncube2(32);
        let a = simulate_policy(&cfg, 32, &costs, kind, &OpOptions::default());
        let b = simulate_policy(&cfg, 32, &costs, kind, &OpOptions::default());
        prop_assert_eq!(a.finish, b.finish);
        prop_assert_eq!(a.chunks, b.chunks);
    }

    #[test]
    fn dist_taper_conserves_and_bounds(
        dist in any_distribution(),
        n in 1usize..600,
        p_exp in 0u32..7,
        seed in 0u64..500,
    ) {
        let p = 1usize << p_exp;
        let costs = dist.sample(n, seed);
        let total: f64 = costs.iter().sum();
        let cfg = MachineConfig::ncube2(p);
        let r = simulate_dist_taper(&cfg, p, &costs, 64, 0.0);
        prop_assert_eq!(r.stats.total_tasks(), n as u64);
        prop_assert!((r.stats.total_busy() - total).abs() < 1e-6 * total.max(1.0));
        prop_assert!(r.finish + 1e-9 >= total / p as f64);
        prop_assert!((0.0..=1.0).contains(&r.locality));
    }

    #[test]
    fn graph_finish_within_critical_path_and_serial_bounds(
        kind in any_policy(),
        specs in proptest::collection::vec(
            (0u8..3, 1usize..150, 1.0f64..40.0, 0usize..100),
            1..7,
        ),
        p_exp in 0u32..7,
    ) {
        // Regular work (cv = 0) makes both bounds exact: every task
        // costs exactly its nominal mean, so the graph's critical path
        // (mean per data-parallel node, full cost per task node) is a
        // true lower bound and serial work plus per-task/per-edge
        // overhead a true upper bound.
        let p = 1usize << p_exp;
        let (g, _) = build_graph(&specs, 0.0);
        // The allocator needs one processor per concurrent operation.
        let width = g.levels().unwrap().iter().map(Vec::len).max().unwrap_or(1);
        prop_assume!(p >= width);
        let cfg = MachineConfig::ncube2(p);
        let opts = ExecutorOptions { policy: kind, ..ExecutorOptions::default() };
        let r = execute_graph(&g, &cfg, &opts).unwrap();

        let critical = g.critical_path().unwrap();
        prop_assert!(
            r.finish + 1e-6 >= critical,
            "finish {} below critical path {critical}", r.finish
        );
        prop_assert!(
            r.finish + 1e-6 >= g.total_work() / p as f64,
            "finish {} below work bound {}", r.finish, g.total_work() / p as f64
        );

        let tasks: usize = g.nodes.iter().map(|n| n.kind.task_count()).sum();
        let per_event = cfg.sched_overhead
            + cfg.alpha
            + cfg.hop * cfg.diameter() as f64
            + cfg.beta * 4096.0;
        let bound = g.total_work()
            + 2.0 * (tasks + g.edges.len() + g.nodes.len()) as f64 * per_event
            + 10_000.0;
        prop_assert!(
            r.finish <= bound,
            "finish {} above generous serial bound {bound}", r.finish
        );
    }

    #[test]
    fn graph_execution_is_deterministic(
        kind in any_policy(),
        specs in proptest::collection::vec(
            (0u8..3, 1usize..150, 1.0f64..40.0, 0usize..100),
            1..7,
        ),
        cv in 0.0f64..1.8,
        p_exp in 0u32..7,
        seed in 0u64..1000,
    ) {
        // Same graph + same seed must reproduce the run bit-for-bit:
        // every start/finish, allocation, and the aggregate work.
        let p = 1usize << p_exp;
        let (g, _) = build_graph(&specs, cv);
        let width = g.levels().unwrap().iter().map(Vec::len).max().unwrap_or(1);
        prop_assume!(p >= width);
        let cfg = MachineConfig::ncube2(p);
        let opts = ExecutorOptions { policy: kind, seed, ..ExecutorOptions::default() };
        let a = execute_graph(&g, &cfg, &opts).unwrap();
        let b = execute_graph(&g, &cfg, &opts).unwrap();
        prop_assert_eq!(a.finish.to_bits(), b.finish.to_bits());
        prop_assert_eq!(a.serial_work.to_bits(), b.serial_work.to_bits());
        prop_assert_eq!(a.processors, b.processors);
        prop_assert_eq!(a.nodes.len(), b.nodes.len());
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            prop_assert_eq!(&x.name, &y.name);
            prop_assert_eq!(x.start.to_bits(), y.start.to_bits());
            prop_assert_eq!(x.finish.to_bits(), y.finish.to_bits());
            prop_assert_eq!(x.procs, y.procs);
        }
    }

    #[test]
    fn constant_work_stays_local_in_dist_taper(
        n in 64usize..400,
        p_exp in 2u32..6,
    ) {
        let p = 1usize << p_exp;
        let costs = vec![10.0; n];
        let cfg = MachineConfig::ncube2(p);
        let r = simulate_dist_taper(&cfg, p, &costs, 64, 0.0);
        prop_assert!(
            r.locality >= 0.95,
            "uniform work must stay on its owners, locality {}",
            r.locality
        );
    }
}
