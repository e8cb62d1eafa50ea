//! Regenerates every table and figure of the paper's evaluation (§5).
//!
//! ```text
//! figures fig6           Figure 6: Psirrfan speedup vs processors
//! figures r1             climate-model efficiencies (512/1024, ±split)
//! figures r2             doubling processors with split, all four apps
//! figures ablate-alloc   allocation equalizer vs even split
//! figures ablate-costfn  TAPER cost-function scaling on/off
//! figures ablate-pipeline  pipeline overlap on/off
//! figures ablate-iters   the paper's equalizer listing vs the exact allocation
//! figures ablate-batch   pipelined communication batch-size curve
//! figures ablate-dist    centralized vs distributed TAPER, per operation
//! figures intro-fusion   loop fusion vs split (§1's motivating example)
//! figures all            everything above
//! ```

use orchestra_apps::{all_paper_workloads, climate, psirrfan};
use orchestra_bench::{fig6_processor_counts, measure, Config, Measurement};
use orchestra_machine::MachineConfig;
use orchestra_runtime::{
    allocate_many, costs_of_node, execute_graph, finish_estimate, simulate_dist_taper,
    simulate_policy, ExecutorOptions, OpOptions, OpSpec, PolicyKind,
};

/// Bytes each task moves when it runs off its home processor: the
/// simulator's figure for graph operations.
const BYTES_PER_TASK: u64 = 32;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match arg.as_str() {
        "fig6" => fig6(),
        "r1" => r1(),
        "r2" => r2(),
        "ablate-alloc" => ablate_alloc(),
        "ablate-costfn" => ablate_costfn(),
        "ablate-pipeline" => ablate_pipeline(),
        "ablate-iters" => ablate_iters(),
        "intro-fusion" => intro_fusion(),
        "ablate-batch" => ablate_batch(),
        "ablate-dist" => ablate_dist(),
        "all" => {
            fig6();
            r1();
            r2();
            ablate_alloc();
            ablate_costfn();
            ablate_pipeline();
            ablate_iters();
            intro_fusion();
            ablate_batch();
            ablate_dist();
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            std::process::exit(2);
        }
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Figure 6: Psirrfan speedup vs number of processors for the three
/// configurations. Paper shape: static worst; TAPER efficient to ~512
/// then flattening; TAPER-with-split sustaining > 80% efficiency
/// through 1024 processors.
fn fig6() {
    header("Figure 6 — Psirrfan performance (speedup vs processors)");
    let w = psirrfan::workload(&psirrfan::paper_scale());
    println!(
        "{:>6} {:>10} {:>8} {:>10} {:>8} {:>16} {:>8}",
        "procs", "static", "eff", "TAPER", "eff", "TAPER w/ split", "eff"
    );
    for p in fig6_processor_counts() {
        let st = measure(&w, Config::Static, p);
        let tp = measure(&w, Config::Taper, p);
        let sp = measure(&w, Config::TaperSplit, p);
        println!(
            "{:>6} {:>10.0} {:>7.0}% {:>10.0} {:>7.0}% {:>16.0} {:>7.0}%",
            p,
            st.speedup,
            st.efficiency * 100.0,
            tp.speedup,
            tp.efficiency * 100.0,
            sp.speedup,
            sp.efficiency * 100.0
        );
    }
}

/// R1: the climate-model numbers from §5's text. Paper: TAPER-only on
/// 512 → 87% efficiency (speedup 445); with split on 1024 → 83%
/// (speedup 850); without split on 1024 → 57% (speedup 581).
fn r1() {
    header("R1 — UCLA climate model (§5 text)");
    let w = climate::workload(&climate::paper_scale());
    let rows: [(&str, Measurement, f64, f64); 3] = [
        ("TAPER only, 512 procs", measure(&w, Config::Taper, 512), 445.0, 0.87),
        ("split, 1024 procs", measure(&w, Config::TaperSplit, 1024), 850.0, 0.83),
        ("no split, 1024 procs", measure(&w, Config::Taper, 1024), 581.0, 0.57),
    ];
    println!(
        "{:<24} {:>9} {:>6}   {:>12} {:>9}",
        "configuration", "speedup", "eff", "paper speedup", "paper eff"
    );
    for (name, m, paper_speedup, paper_eff) in rows {
        println!(
            "{:<24} {:>9.0} {:>5.0}%   {:>12.0} {:>8.0}%",
            name,
            m.speedup,
            m.efficiency * 100.0,
            paper_speedup,
            paper_eff * 100.0
        );
    }
}

/// R2: "we were able to double the number of processors used for each
/// application, with a loss of only five to fifteen percent in
/// efficiency" — split configuration, 512 → 1024 processors.
fn r2() {
    header("R2 — doubling processors with split (all four applications)");
    println!(
        "{:<10} {:>10} {:>10} {:>12}  paper: 5–15% loss",
        "app", "eff@512", "eff@1024", "loss"
    );
    for w in all_paper_workloads() {
        let e512 = measure(&w, Config::TaperSplit, 512).efficiency;
        let e1024 = measure(&w, Config::TaperSplit, 1024).efficiency;
        let loss = (e512 - e1024) / e512 * 100.0;
        println!("{:<10} {:>9.0}% {:>9.0}% {:>11.1}%", w.name, e512 * 100.0, e1024 * 100.0, loss);
    }
}

/// The introduction's motivating comparison: "One possible remedy is to
/// use loop fusion … However, the resulting parallelization is
/// incomplete, since fusion discards information about the more regular
/// component of the new loop." Fusing a phase's regular and irregular
/// loops yields one mixed operation — better than the barrier between
/// them, but without the split structure the runtime can neither
/// pipeline the phases nor overlap the post-pass.
fn intro_fusion() {
    use orchestra_delirium::{DataAnno, DelirGraph, NodeKind, Population};
    header("Intro — loop fusion vs split (Psirrfan)");
    let scale = psirrfan::paper_scale();
    let params = psirrfan::params(&scale);
    let w = psirrfan::workload(&scale);

    // The fused graph: one mixed operation per phase.
    let mut fused = DelirGraph::new();
    let a = fused.add_node(
        "A_fused",
        NodeKind::Mixture {
            populations: vec![
                Population {
                    tasks: params.ind_tasks,
                    mean_cost: params.ind_mean,
                    cv: params.ind_cv,
                },
                Population {
                    tasks: params.dep_tasks,
                    mean_cost: params.dep_mean,
                    cv: params.dep_cv,
                },
            ],
        },
        Some("phase".into()),
    );
    fused.add_carried_edge(a, a, DataAnno::array("carried", params.carried_elems));
    let b = fused.add_node(
        "B",
        NodeKind::DataParallel {
            tasks: params.post_tasks,
            mean_cost: params.post_mean,
            cv: params.post_cv,
        },
        None,
    );
    fused.add_edge(a, b, DataAnno::array("q", params.carried_elems));

    println!("{:>6} {:>12} {:>12} {:>12}", "procs", "barriers", "fused", "split");
    for p in [256usize, 512, 1024] {
        let cfg = MachineConfig::ncube2(p);
        let serial = w.serial_work();
        let mut opts = ExecutorOptions {
            policy: PolicyKind::TaperCostFn,
            pipeline_overlap: false,
            use_allocation: false,
            ..ExecutorOptions::default()
        };
        opts.pipeline_iters.extend(w.pipeline_iters.clone());
        let t_base = execute_graph(&w.baseline, &cfg, &opts).expect("valid").finish;
        let t_fused = execute_graph(&fused, &cfg, &opts).expect("valid").finish;
        let sp = measure(&w, Config::TaperSplit, p);
        println!(
            "{:>6} {:>12.0} {:>12.0} {:>12.0}   (speedups)",
            p,
            serial / t_base,
            serial / t_fused,
            sp.speedup
        );
    }
    println!("fusion removes the intra-phase barrier but cannot pipeline phases");
    println!("or overlap the post-pass: the resulting parallelization is");
    println!("incomplete (§1).");
}

/// Ablation: the §4.1.2 finishing-time equalizer vs a naive even split
/// of processors among concurrent operations.
fn ablate_alloc() {
    header("Ablation — processor allocation (equalizer vs even split)");
    let w = psirrfan::workload(&psirrfan::paper_scale());
    println!("{:>6} {:>14} {:>14} {:>8}", "procs", "equalizer", "even split", "gain");
    for p in [256, 512, 1024] {
        let cfg = MachineConfig::ncube2(p);
        let mut with =
            ExecutorOptions { policy: PolicyKind::TaperCostFn, ..ExecutorOptions::default() };
        with.pipeline_iters.extend(w.pipeline_iters.clone());
        let mut without = with.clone();
        without.use_allocation = false;
        let t_with = execute_graph(&w.split, &cfg, &with).expect("valid").finish;
        let t_without = execute_graph(&w.split, &cfg, &without).expect("valid").finish;
        println!("{:>6} {:>14.0} {:>14.0} {:>7.2}x", p, t_with, t_without, t_without / t_with);
    }
}

/// Ablation: TAPER's positional cost-function scaling on/off on the
/// baseline graph.
fn ablate_costfn() {
    header("Ablation — TAPER cost-function scaling");
    let w = psirrfan::workload(&psirrfan::paper_scale());
    println!("{:>6} {:>14} {:>14}", "procs", "TAPER+costfn", "TAPER");
    for p in [256, 512, 1024] {
        let cfg = MachineConfig::ncube2(p);
        let mut a = ExecutorOptions {
            policy: PolicyKind::TaperCostFn,
            pipeline_overlap: false,
            ..ExecutorOptions::default()
        };
        a.pipeline_iters.extend(w.pipeline_iters.clone());
        let mut b = a.clone();
        b.policy = PolicyKind::Taper;
        let ta = execute_graph(&w.baseline, &cfg, &a).expect("valid").finish;
        let tb = execute_graph(&w.baseline, &cfg, &b).expect("valid").finish;
        println!("{:>6} {:>14.0} {:>14.0}", p, ta, tb);
    }
}

/// Ablation: pipeline overlap on/off on the split graph.
fn ablate_pipeline() {
    header("Ablation — pipeline overlap (split graph)");
    let w = psirrfan::workload(&psirrfan::paper_scale());
    println!("{:>6} {:>12} {:>12} {:>8}", "procs", "overlap", "barrier", "gain");
    for p in [256, 512, 1024] {
        let cfg = MachineConfig::ncube2(p);
        let mut over =
            ExecutorOptions { policy: PolicyKind::TaperCostFn, ..ExecutorOptions::default() };
        over.pipeline_iters.extend(w.pipeline_iters.clone());
        let mut barrier = over.clone();
        barrier.pipeline_overlap = false;
        let t_over = execute_graph(&w.split, &cfg, &over).expect("valid").finish;
        let t_barrier = execute_graph(&w.split, &cfg, &barrier).expect("valid").finish;
        println!("{:>6} {:>12.0} {:>12.0} {:>7.2}x", p, t_over, t_barrier, t_barrier / t_over);
    }
}

/// Ablation: the distributed TAPER epoch/token scheme (§4.1.1) vs the
/// centralized chunk queue, one operation at a time on the whole
/// machine — both are per-operation schedulers. The decentralization
/// trades scheduling-bottleneck freedom for token latency, and is
/// designed to preserve owner-computes locality.
fn ablate_dist() {
    header("Ablation — centralized vs distributed TAPER (Psirrfan ops, µs)");
    let w = psirrfan::workload(&psirrfan::paper_scale());
    let seed = ExecutorOptions::default().seed;
    println!("{:>6} {:>6} {:>14} {:>14}", "procs", "op", "centralized", "distributed");
    for p in [256usize, 512, 1024] {
        let cfg = MachineConfig::ncube2(p);
        for name in ["A_I", "A_D", "B_I"] {
            let node = w.split.nodes.iter().find(|n| n.name == name).expect("Psirrfan op");
            let costs = costs_of_node(node, seed);
            let opts = OpOptions { bytes_per_task: BYTES_PER_TASK };
            let tc = simulate_policy(&cfg, p, &costs, PolicyKind::TaperCostFn, &opts).finish;
            let td = simulate_dist_taper(&cfg, p, &costs, BYTES_PER_TASK).finish;
            println!("{:>6} {:>6} {:>14.0} {:>14.0}", p, name, tc, td);
        }
    }
}

/// Ablation: communication granularity for a pipelined pair (§4.1) —
/// the batch-size cost curve and the size the runtime picks, first on
/// the simulator's nCUBE-2 α/β, then for real on the threaded backend
/// by forcing the streamed data plane's publication batch across a
/// sweep and comparing the measured walls against the b\* the host
/// calibration picks.
fn ablate_batch() {
    use orchestra_runtime::{batch_cost, choose_batch};
    header("Ablation — pipelined communication granularity");
    let cfg = MachineConfig::ncube2(512);
    let n = 1024; // items streamed per iteration
    let item_bytes = 64;
    let chosen = choose_batch(n, item_bytes, cfg.alpha, cfg.beta);
    println!("streaming {n} items of {item_bytes} B (α={} µs, β={} µs/B):", cfg.alpha, cfg.beta);
    println!("{:>8} {:>14}", "batch", "latency+fill µs");
    for b in [1usize, 4, 16, 64, 256, 1024] {
        let marker = if b == chosen { "  ← chosen" } else { "" };
        println!("{:>8} {:>14.0}{marker}", b, batch_cost(n, item_bytes, b, cfg.alpha, cfg.beta));
    }
    if ![1usize, 4, 16, 64, 256, 1024].contains(&chosen) {
        println!(
            "{:>8} {:>14.0}  ← chosen",
            chosen,
            batch_cost(n, item_bytes, chosen, cfg.alpha, cfg.beta)
        );
    }

    // The same trade measured on the real threaded backend: a deep
    // chain of small element-wise ops, publication batch forced per
    // row. The b* row re-runs the sweep at the batch the calibrated
    // α/β picks; its rank in the measured ordering is the check that
    // the model's optimum is the machine's.
    use orchestra_delirium::{DataAnno, DelirGraph, NodeKind};
    use orchestra_runtime::threaded::{execute_threaded, SpinKernel};
    use orchestra_runtime::HostCalibration;
    let (depth, width, threads, reps) = (12usize, 256usize, 4usize, 25usize);
    let mut g = DelirGraph::new();
    let mut prev = None;
    for i in 0..depth {
        let node = g.add_node(
            format!("c{i}"),
            NodeKind::DataParallel { tasks: width, mean_cost: 1.0, cv: 0.3 },
            None,
        );
        if let Some(p) = prev {
            g.add_edge(p, node, DataAnno::array(format!("s{i}"), width as u64));
        }
        prev = Some(node);
    }
    let kernel = SpinKernel::with_scale(1.0);
    let bstar = HostCalibration::get()
        .stream_batch(width, std::mem::size_of::<f64>() as u64)
        .clamp(1, width);
    println!("\nthreaded backend, chain {depth}×{width} @ {threads} workers (b* = {bstar}):");
    // Best-of-reps, round-robin across batch sizes: the minimum wall
    // is the run the host did not deschedule, and interleaving the
    // sweep keeps slow phases of a shared host from polluting one
    // batch size's column wholesale.
    let sweep = [1usize, 4, 16, 64, 128, 256];
    let mut best = [f64::INFINITY; 6];
    for _ in 0..reps {
        for (slot, &forced) in sweep.iter().enumerate() {
            let opts = ExecutorOptions {
                threads,
                stream_batch: Some(forced),
                ..ExecutorOptions::default()
            };
            let wall = execute_threaded(&g, &opts, &kernel).expect("valid").wall_us;
            best[slot] = best[slot].min(wall);
        }
    }
    let rows: Vec<(usize, f64)> = sweep.iter().copied().zip(best).collect();
    let mut ranked = rows.clone();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    let rank_of = |batch: usize| ranked.iter().position(|&(b, _)| b == batch).map(|i| i + 1);
    println!("{:>8} {:>14} {:>6}", "batch", "best wall µs", "rank");
    for &(b, wall) in &rows {
        let marker = if b == bstar { "  ← b*" } else { "" };
        println!("{:>8} {:>14.0} {:>6}{marker}", b, wall, rank_of(b).unwrap_or(0));
    }
    if let Some(r) = rank_of(bstar) {
        println!("b* = {bstar} ranks #{r} of {} measured batches", rows.len());
    } else {
        println!("b* = {bstar} (between sweep points; nearest ranks decide)");
    }
}

/// Ablation: the paper's two-op equalizer listing (§4.1.2) at a growing
/// iteration budget, against the exact allocation `allocate_many`
/// returns, by the estimate imbalance and the latest estimate each
/// leaves behind.
fn ablate_iters() {
    header("Ablation — the paper's equalizer listing vs the exact allocation");
    let p = 1024;
    let cfg = MachineConfig::ncube2(p);
    let big = OpSpec {
        tasks: 8192,
        mean: 400.0,
        std_dev: 200.0,
        bytes_in: 8192 * 256,
        bytes_out: 8192 * 256,
        policy: PolicyKind::Taper,
    };
    let small = OpSpec {
        tasks: 1024,
        mean: 80.0,
        std_dev: 20.0,
        bytes_in: 1024 * 256,
        bytes_out: 1024 * 256,
        policy: PolicyKind::Taper,
    };
    let est = |op: &OpSpec, q: usize| finish_estimate(op, q, &cfg).total();
    // The paper's listing, verbatim: p1 = p/2, and while the estimates
    // differ by more than ε = 5 % of the later one, for at most
    // max_count steps, the later op gains half the other's processors.
    let listing = |max_count: u32| {
        let mut p1 = p / 2;
        for _ in 0..max_count {
            let (ea, eb) = (est(&big, p1), est(&small, p - p1));
            if (ea - eb).abs() <= 0.05 * ea.max(eb) {
                break;
            }
            let p2 = p - p1;
            p1 = if ea > eb { p1 + p2 / 2 } else { p - (p2 + p1 / 2) }.clamp(1, p - 1);
        }
        p1
    };
    println!("{:>9} {:>6} {:>6} {:>12} {:>12}", "max_count", "p1", "p2", "imbalance", "latest µs");
    let row = |label: &str, p1: usize| {
        let (ea, eb) = (est(&big, p1), est(&small, p - p1));
        let imb = (ea - eb).abs() / ea.max(eb);
        println!("{label:>9} {p1:>6} {:>6} {:>11.1}% {:>12.0}", p - p1, imb * 100.0, ea.max(eb));
    };
    for max_count in [0, 1, 2, 4, 8] {
        row(&max_count.to_string(), listing(max_count));
    }
    row("exact", allocate_many(&[big, small], p, est)[0]);
}
