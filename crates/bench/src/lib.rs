#![warn(missing_docs)]
//! # orchestra-bench
//!
//! The measurement harness reproducing the paper's evaluation (§5):
//! Figure 6 (Psirrfan speedup vs processors under static / TAPER /
//! TAPER-with-split scheduling) and the textual results R1 (climate
//! model efficiencies) and R2 (processor doubling at 5–15% efficiency
//! loss across all four applications), plus the ablations listed in
//! `DESIGN.md` §5.
//!
//! The `figures` binary prints each table. [`splitter`] is an in-tree
//! rayon-style work-splitting baseline that
//! `examples/scheduler_comparison.rs` runs head-to-head against the
//! real-thread backend. Speed on the host is judged by the repo's
//! benchmark (`BENCHMARK.json` + `benchmark/`), not here.

pub mod splitter;

use orchestra_apps::AppWorkload;
use orchestra_machine::MachineConfig;
use orchestra_runtime::{execute_graph, ExecutorOptions, PolicyKind};

/// The three scheduling configurations of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Static block scheduling of the baseline graph.
    Static,
    /// TAPER (with cost functions) on the baseline graph.
    Taper,
    /// TAPER on the split graph with pipelining and processor
    /// allocation — the paper's full system.
    TaperSplit,
}

impl Config {
    /// Display name matching the paper's Figure 6 legend.
    pub fn name(&self) -> &'static str {
        match self {
            Config::Static => "static",
            Config::Taper => "TAPER",
            Config::TaperSplit => "TAPER with split",
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Processor count.
    pub processors: usize,
    /// Simulated completion time (µs).
    pub time: f64,
    /// Speedup relative to the workload's serial work.
    pub speedup: f64,
    /// Efficiency (speedup / p).
    pub efficiency: f64,
}

/// Runs one workload under one configuration on `p` processors.
///
/// Speedup and efficiency are computed against the *baseline* graph's
/// serial work for every configuration, so the split version is not
/// credited for its own merge overhead.
pub fn measure(w: &AppWorkload, config: Config, p: usize) -> Measurement {
    let cfg = MachineConfig::ncube2(p);
    let serial = w.serial_work();
    // Average over several irregularity draws (the paper's measurements
    // are steady-state averages of production runs).
    const SEEDS: [u64; 3] = [0x5eed, 0xbeef, 0xcafe];
    let mut total_time = 0.0;
    for seed in SEEDS {
        let mut opts = ExecutorOptions { seed, ..ExecutorOptions::default() };
        opts.pipeline_iters.extend(w.pipeline_iters.clone());
        let report = match config {
            Config::Static => {
                opts.policy = PolicyKind::Static;
                opts.pipeline_overlap = false;
                opts.use_allocation = false;
                execute_graph(&w.baseline, &cfg, &opts).expect("baseline graph valid")
            }
            Config::Taper => {
                opts.policy = PolicyKind::TaperCostFn;
                opts.pipeline_overlap = false;
                opts.use_allocation = false;
                execute_graph(&w.baseline, &cfg, &opts).expect("baseline graph valid")
            }
            Config::TaperSplit => {
                opts.policy = PolicyKind::TaperCostFn;
                opts.pipeline_overlap = true;
                opts.use_allocation = true;
                execute_graph(&w.split, &cfg, &opts).expect("split graph valid")
            }
        };
        total_time += report.finish;
    }
    let time = total_time / SEEDS.len() as f64;
    let speedup = serial / time;
    Measurement { processors: p, time, speedup, efficiency: speedup / p as f64 }
}

/// The Figure 6 processor sweep.
pub fn fig6_processor_counts() -> Vec<usize> {
    vec![128, 256, 384, 512, 640, 768, 896, 1024, 1152]
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_apps::{psirrfan, Scale};

    #[test]
    fn measurements_are_consistent() {
        let w = psirrfan::workload(&Scale { n: 512, seed: 7 });
        let m = measure(&w, Config::Taper, 64);
        assert!(m.time > 0.0);
        assert!((m.speedup / 64.0 - m.efficiency).abs() < 1e-12);
        assert!(m.efficiency <= 1.05, "efficiency near-bounded, got {}", m.efficiency);
    }

    #[test]
    fn taper_beats_static_on_irregular_apps() {
        let w = psirrfan::workload(&Scale { n: 512, seed: 7 });
        let st = measure(&w, Config::Static, 256);
        let tp = measure(&w, Config::Taper, 256);
        assert!(tp.speedup > st.speedup, "TAPER {} must beat static {}", tp.speedup, st.speedup);
    }
}
