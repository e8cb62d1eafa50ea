//! Property tests on the runtime's scheduling invariants: every policy
//! executes every task exactly once, conserves work, and respects the
//! trivial lower bounds; the graph simulator starts no operation before
//! its producers finish; distributed TAPER additionally preserves
//! locality on regular work.

use orchestra_apps::psirrfan;
use orchestra_delirium::{DataAnno, DelirGraph, NodeKind};
use orchestra_machine::{CostDistribution, MachineConfig};
use orchestra_runtime::threaded::build_plan;
use orchestra_runtime::{
    execute_graph, simulate_dist_taper, simulate_policy, ExecutionReport, ExecutorOptions,
    OpOptions, PolicyKind,
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

/// [`build_graph`]'s DAG plus a pipeline group `P` of `iters`
/// iterations: `P_I ∥ P_D → P_M`, `P_M` carried into the next
/// iteration's `P_D`, entered from node `from % n` and left into a
/// final task.
fn with_pipeline(
    specs: &[(u8, usize, f64, usize)],
    cv: f64,
    from: usize,
    iters: usize,
) -> (DelirGraph, ExecutorOptions) {
    let (mut g, n) = build_graph(specs, cv);
    let group = Some("P".to_string());
    let kind = |tasks| NodeKind::DataParallel { tasks, mean_cost: 6.0, cv };
    let pi = g.add_node("P_I", kind(40), group.clone());
    let pd = g.add_node("P_D", kind(12), group.clone());
    let pm = g.add_node("P_M", NodeKind::Merge { cost: 9.0 }, group);
    g.add_edge(from % n, pd, DataAnno::array("in", 12));
    g.add_edge(pi, pm, DataAnno::array("res_i", 40));
    g.add_edge(pd, pm, DataAnno::array("res_d", 12));
    g.add_carried_edge(pm, pd, DataAnno::array("carried", 12));
    let out = g.add_node("out", NodeKind::Task { cost: 3.0 }, None);
    g.add_edge(pm, out, DataAnno::array("q", 12));
    let mut opts = ExecutorOptions::default();
    opts.pipeline_iters.insert("P".into(), iters);
    (g, opts)
}

/// Each row that starts before one of its producers has finished,
/// described with that producer. The report holds one row per plan
/// op, in plan order.
fn early_starts(g: &DelirGraph, opts: &ExecutorOptions, r: &ExecutionReport) -> Vec<String> {
    let plan = build_plan(g, opts).expect("valid graph");
    assert_eq!(plan.ops.len(), r.nodes.len());
    let mut early = Vec::new();
    for (op, row) in plan.ops.iter().zip(&r.nodes) {
        assert_eq!(op.name, row.name);
        for &d in &op.deps {
            if row.start < r.nodes[d].finish {
                early.push(format!(
                    "{} starts at {} before {} finishes at {}",
                    row.name, row.start, r.nodes[d].name, r.nodes[d].finish
                ));
            }
        }
    }
    early
}

/// On Psirrfan at 1024 processors, each phase's dependent piece waits
/// for the previous phase's merge: the carried edge is a real
/// dependence.
#[test]
fn psirrfan_dependent_pieces_wait_for_the_previous_merge() {
    let w = psirrfan::workload(&psirrfan::paper_scale());
    let mut opts =
        ExecutorOptions { policy: PolicyKind::TaperCostFn, ..ExecutorOptions::default() };
    opts.pipeline_iters.extend(w.pipeline_iters.clone());
    let r = execute_graph(&w.split, &MachineConfig::ncube2(1024), &opts).expect("valid graph");
    let row = |name: String| r.nodes.iter().find(|n| n.name == name).expect("row exists");
    for k in 1..w.pipeline_iters["phase"] {
        let (dep, merge) = (row(format!("A_D@{k}")), row(format!("A_M@{}", k - 1)));
        assert!(dep.start > merge.finish, "{dep:?} starts before {merge:?} finishes");
    }
    assert!(early_starts(&w.split, &opts, &r).is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn no_op_starts_before_its_producers_finish(
        kind in any_policy(),
        specs in proptest::collection::vec(
            (0u8..3, 1usize..150, 1.0f64..40.0, 0usize..100),
            1..6,
        ),
        cv in 0.0f64..1.8,
        from in 0usize..100,
        iters in 1usize..5,
        overlap in any::<bool>(),
        p_exp in 0u32..7,
    ) {
        let (g, opts) = with_pipeline(&specs, cv, from, iters);
        let opts = ExecutorOptions { policy: kind, pipeline_overlap: overlap, ..opts };
        let r = execute_graph(&g, &MachineConfig::ncube2(1 << p_exp), &opts).unwrap();
        let early = early_starts(&g, &opts, &r);
        prop_assert!(early.is_empty(), "{}", early.join("\n"));
    }

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
        let r = simulate_dist_taper(&cfg, p, &costs, 64);
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
        let r = simulate_dist_taper(&cfg, p, &costs, 64);
        prop_assert!(
            r.locality >= 0.95,
            "uniform work must stay on its owners, locality {}",
            r.locality
        );
    }
}
