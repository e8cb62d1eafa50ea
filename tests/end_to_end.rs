//! End-to-end integration: every application kernel flows through the
//! whole pipeline (parse → analyze → split/pipeline → Delirium graph →
//! simulated execution), and the evaluation-level orderings hold.

use orchestra_apps::{all_paper_workloads, psirrfan, Scale};
use orchestra_bench::{measure, Config};
use orchestra_core::{graph_of_compiled, Orchestrator};
use orchestra_machine::MachineConfig;
use orchestra_runtime::{
    allocate_many, execute_graph, finish_estimate, ExecutorOptions, OpSpec, PolicyKind,
};

#[test]
fn every_app_kernel_compiles_and_runs() {
    let orch = Orchestrator::ncube2(128);
    for kernel in [
        orchestra_apps::psirrfan::kernel(),
        orchestra_apps::climate::kernel(),
        orchestra_apps::emu::kernel(),
        orchestra_apps::vortex::kernel(),
    ] {
        let name = kernel.name.clone();
        let compiled = orch.compile(kernel);
        assert!(compiled.exposed_concurrency(), "{name}: no concurrency exposed");
        let (g, iters) = graph_of_compiled(&compiled);
        g.validate().unwrap_or_else(|e| panic!("{name}: invalid graph: {e}"));
        assert!(!iters.is_empty(), "{name}: no pipeline");
        let report = orch.run(&compiled);
        assert!(report.finish > 0.0, "{name}");
        let baseline = orch.run_baseline(&compiled.original);
        assert!(baseline.finish > 0.0, "{name}");
    }
}

#[test]
fn split_beats_taper_on_every_app_at_scale() {
    // The paper's headline: the orchestrated configuration outperforms
    // the barriered TAPER configuration at high processor counts.
    for w in all_paper_workloads() {
        let tp = measure(&w, Config::Taper, 1024);
        let sp = measure(&w, Config::TaperSplit, 1024);
        assert!(
            sp.speedup > tp.speedup,
            "{}: split {} must beat TAPER {} at 1024 procs",
            w.name,
            sp.speedup,
            tp.speedup
        );
    }
}

/// The simulator allocates a level from estimates alone: on Psirrfan's
/// split graph, level 0's two units (`B_I` and the pipelined phases)
/// get exactly what the equalizer gives their specs. That is 36/988,
/// the split whose later estimate is least. The move loop the exact
/// solver replaced stopped at 52/972: eight quarter-moves from the
/// even split, its budget, not its estimates, decided where. A row's
/// `procs` is its op's share, and every instance of the phases has
/// the group's.
#[test]
fn simulator_keeps_the_equalizers_allocation() {
    const BYTES_PER_TASK: u64 = 32;
    let w = psirrfan::workload(&psirrfan::paper_scale());
    let policy = PolicyKind::TaperCostFn;
    let mut opts = ExecutorOptions { policy, ..ExecutorOptions::default() };
    opts.pipeline_iters.extend(w.pipeline_iters.clone());
    let cfg = MachineConfig::ncube2(1024);
    let report = execute_graph(&w.split, &cfg, &opts).expect("split graph valid");

    let spec = |name: &str| {
        let node = w.split.nodes.iter().find(|n| n.name == name).expect("node exists");
        OpSpec::of_node(&node.kind, BYTES_PER_TASK, policy)
    };
    let phase = OpSpec::pooled(&[spec("A_I"), spec("A_D"), spec("A_M")], policy);
    let iters = w.pipeline_iters["phase"];
    let phases = OpSpec {
        tasks: phase.tasks * iters,
        bytes_in: phase.bytes_in * iters as u64,
        bytes_out: phase.bytes_out * iters as u64,
        ..phase
    };
    let want =
        allocate_many(&[spec("B_I"), phases], 1024, |s, p| finish_estimate(s, p, &cfg).total());
    assert_eq!(want, [36, 988]);
    let procs = |name: &str| report.nodes.iter().find(|n| n.name == name).map(|n| n.procs);
    assert_eq!(procs("B_I"), Some(want[0]));
    for k in 0..iters {
        for piece in ["A_I", "A_D", "A_M"] {
            assert_eq!(procs(&format!("{piece}@{k}")), Some(want[1]), "{piece}@{k}");
        }
    }
}

#[test]
fn taper_beats_static_at_scale() {
    for w in all_paper_workloads() {
        let st = measure(&w, Config::Static, 512);
        let tp = measure(&w, Config::Taper, 512);
        assert!(
            tp.speedup >= st.speedup * 0.95,
            "{}: TAPER {} should not lose to static {} at 512 procs",
            w.name,
            tp.speedup,
            st.speedup
        );
    }
}

#[test]
fn fig6_divergence_grows_with_processors() {
    // The gap between split and TAPER-only widens from 128 to 1024
    // processors (the shape of Figure 6).
    let w = psirrfan::workload(&psirrfan::paper_scale());
    let gap = |p: usize| {
        measure(&w, Config::TaperSplit, p).speedup / measure(&w, Config::Taper, p).speedup
    };
    let g128 = gap(128);
    let g1024 = gap(1024);
    assert!(
        g1024 >= g128 * 0.9,
        "divergence must not collapse: {g128:.2} at 128 vs {g1024:.2} at 1024"
    );
    assert!(g1024 > 1.1, "split must clearly win at 1024 ({g1024:.2}×)");
}

#[test]
fn split_efficiency_sustained_through_1024() {
    // "…sustained efficiency … using up to 1024 processors": doubling
    // 512 → 1024 with split loses far less than half the efficiency.
    let w = psirrfan::workload(&psirrfan::paper_scale());
    let e512 = measure(&w, Config::TaperSplit, 512).efficiency;
    let e1024 = measure(&w, Config::TaperSplit, 1024).efficiency;
    assert!(e1024 > 0.6 * e512, "efficiency collapse: {e512:.2} → {e1024:.2}");
    assert!(e1024 > 0.4, "absolute efficiency too low: {e1024:.2}");
}

#[test]
fn small_scale_apps_still_ordered() {
    // The orderings also hold away from the calibrated paper scale.
    let w = psirrfan::workload(&Scale { n: 1024, seed: 3 });
    let tp = measure(&w, Config::Taper, 512);
    let sp = measure(&w, Config::TaperSplit, 512);
    assert!(sp.speedup > tp.speedup);
}

#[test]
fn delirium_text_round_trips_app_graphs() {
    for w in all_paper_workloads() {
        for (label, g) in [("baseline", &w.baseline), ("split", &w.split)] {
            let text = orchestra_delirium::print(g, w.name);
            let (name, parsed) = orchestra_delirium::parse(&text)
                .unwrap_or_else(|e| panic!("{} {label}: {e}\n{text}", w.name));
            assert_eq!(name, w.name);
            assert_eq!(&parsed, g, "{} {label}", w.name);
        }
    }
}

/// `examples/scheduler_comparison.rs` times TAPER on the worker pool
/// against the join splitter on the flat one-step op. The two are only
/// comparable if they do equal work: built the way the example builds
/// them, both must produce the sequential reference's output bitwise.
#[test]
fn flat_head_to_head_sides_do_equal_work() {
    use orchestra_bench::splitter::{default_grain, run_join_split};
    use orchestra_delirium::{DelirGraph, NodeKind};
    use orchestra_runtime::{
        costs_of_node, execute_sequential, execute_threaded, ExecutorOptions, PolicyKind,
        SpinKernel,
    };
    const TASKS: usize = 262_144;
    let mut g = DelirGraph::new();
    g.add_node("flat", NodeKind::DataParallel { tasks: TASKS, mean_cost: 1.0, cv: 0.1 }, None);
    let node = &g.nodes[0];
    let kernel = SpinKernel::with_scale(1.0);
    let costs = costs_of_node(node, ExecutorOptions::default().seed);
    let seq = execute_sequential(&g, &ExecutorOptions::default(), &kernel).unwrap();
    assert_eq!(seq.outputs[0].len(), TASKS);
    for w in [1, 2] {
        let opts =
            ExecutorOptions { policy: PolicyKind::Taper, threads: w, ..ExecutorOptions::default() };
        let pool = execute_threaded(&g, &opts, &kernel).unwrap();
        assert_eq!(pool.outputs, seq.outputs, "TAPER pool, w={w}");
        let split = run_join_split(node, &costs, &kernel, w, default_grain(TASKS, w));
        assert_eq!(split.outputs, seq.outputs[0], "splitter, w={w}");
    }
}
