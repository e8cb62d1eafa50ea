//! The one-stop orchestration API: compile → graph → execute.

use crate::compile::{compile, compile_source, CompileError, Compiled};
use crate::graph::{baseline_graph, graph_of_compiled};
use orchestra_lang::ast::Program;
use orchestra_machine::MachineConfig;
use orchestra_runtime::{execute_graph, ExecutionReport, ExecutorOptions};
use orchestra_split::SplitOptions;

/// Compiles MF programs and executes them on the simulated machine.
#[derive(Debug, Clone)]
pub struct Orchestrator {
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Split/pipelining heuristics.
    pub split_options: SplitOptions,
    /// Runtime scheduling options.
    pub executor_options: ExecutorOptions,
}

/// The paired outcome of running a program both ways.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Barrier-structured execution of the original program.
    pub baseline: ExecutionReport,
    /// Orchestrated execution of the transformed program.
    pub orchestrated: ExecutionReport,
}

impl Orchestrator {
    /// An orchestrator for an nCUBE-2-like machine with `p` processors.
    pub fn ncube2(p: usize) -> Self {
        Orchestrator {
            machine: MachineConfig::ncube2(p),
            split_options: SplitOptions::default(),
            executor_options: ExecutorOptions::default(),
        }
    }

    /// Compiles source text.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] on parse failure.
    pub fn compile_source(&self, src: &str) -> Result<Compiled, CompileError> {
        compile_source(src, &self.split_options)
    }

    /// Compiles a parsed program.
    pub fn compile(&self, prog: Program) -> Compiled {
        compile(prog, &self.split_options)
    }

    /// Executes the compiled (orchestrated) form.
    ///
    /// # Panics
    ///
    /// Panics if graph construction produced an invalid graph — a bug,
    /// not an input condition.
    pub fn run(&self, c: &Compiled) -> ExecutionReport {
        let (g, iters) = graph_of_compiled(c);
        let mut opts = self.executor_options.clone();
        opts.pipeline_iters.extend(iters);
        execute_graph(&g, &self.machine, &opts).expect("compiled graph is valid")
    }

    /// Executes the original program in barrier style.
    ///
    /// # Panics
    ///
    /// Panics if the baseline graph is invalid (a bug).
    pub fn run_baseline(&self, prog: &Program) -> ExecutionReport {
        let (g, iters) = baseline_graph(prog);
        let mut opts = self.executor_options.clone();
        // The baseline's phase groups synchronize every iteration.
        opts.pipeline_overlap = false;
        opts.pipeline_iters.extend(iters);
        execute_graph(&g, &self.machine, &opts).expect("baseline graph is valid")
    }

    /// Compiles and runs a program both ways.
    pub fn compare(&self, prog: Program) -> (Compiled, Comparison) {
        let baseline = self.run_baseline(&prog);
        let c = self.compile(prog);
        let orchestrated = self.run(&c);
        (c, Comparison { baseline, orchestrated })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_lang::builder::figure1_program;

    #[test]
    fn figure1_runs_both_ways() {
        let orch = Orchestrator::ncube2(64);
        let (c, cmp) = orch.compare(figure1_program(64));
        assert!(c.exposed_concurrency());
        assert!(cmp.baseline.finish > 0.0);
        assert!(cmp.orchestrated.finish > 0.0);
    }

    #[test]
    fn orchestration_exposes_concurrency_at_bounded_cost() {
        // The Figure 1 kernel is tiny (microseconds of work per
        // element), so at 256 processors the merge overhead of the
        // transformation is not recouped — the paper's wins come from
        // the production applications (see orchestra-apps and the
        // benches). What the compiler path must guarantee here is
        // structural: the transformed graph really overlaps B_I with
        // the pipelined A, and the overhead stays bounded.
        let mut orch = Orchestrator::ncube2(256);
        orch.machine = orchestra_machine::MachineConfig::ideal(256);
        let (c, cmp) = orch.compare(figure1_program(96));
        let (g, _) = crate::graph::graph_of_compiled(&c);
        let levels = g.levels().unwrap();
        let level0_names: Vec<&str> = levels[0].iter().map(|&v| g.nodes[v].name.as_str()).collect();
        assert!(level0_names.contains(&"B_I"), "B_I concurrent with the pipeline");
        assert!(
            level0_names.iter().any(|n| n.contains("_I") && n.contains("::")),
            "pipelined A_I at level 0: {level0_names:?}"
        );
        assert!(
            cmp.orchestrated.finish < 2.5 * cmp.baseline.finish,
            "transformation overhead bounded: baseline {} vs orchestrated {}",
            cmp.baseline.finish,
            cmp.orchestrated.finish
        );
    }

    #[test]
    fn coarse_kernel_overlaps_heavy_postpass() {
        // A kernel with an 8×-heavier post-pass: B_I must actually run
        // in A's shadow (overlap in simulated time), and the end-to-end
        // overhead stays bounded. (At micro-kernel scale the dependent
        // piece's single-wave floor and the merge keep the total from
        // beating the barrier baseline — the quantitative wins are the
        // application-scale benches' job, as in the paper, which
        // hand-transformed the production codes.)
        let src = r#"
program coarse
  integer n = 64
  integer mask[1..n]
  float result[1..n], q[1..n, 1..n], output[1..n, 1..n]
  A: do col = 1, n where (mask[col] <> 0) {
    do i = 1, n {
      result[i] = q[col, i] * 0.5 + q[i, i]
    }
    do i = 1, n {
      q[i, col] = result[i]
    }
  }
  B: do i = 1, n {
    do j = 1, n {
      output[j, i] = f(g(h(f(g(h(f(g(q[j, i]))))))))
    }
  }
end
"#;
        let mut orch = Orchestrator::ncube2(64);
        orch.machine = orchestra_machine::MachineConfig::ideal(64);
        let p = orchestra_lang::parse_program(src).unwrap();
        let (c, cmp) = orch.compare(p);
        assert!(c.exposed_concurrency());
        // B_I overlaps the span of the pipelined phase's instances.
        let report = &cmp.orchestrated;
        let bi = report.nodes.iter().find(|n| n.name == "B_I").expect("B_I ran");
        let (g, _) = crate::graph::graph_of_compiled(&c);
        let in_phase = |row: &str| {
            let node = row.split('@').next().unwrap_or(row);
            g.nodes.iter().any(|v| v.group.is_some() && v.name == node)
        };
        let phase: Vec<_> = report.nodes.iter().filter(|n| in_phase(&n.name)).collect();
        assert!(!phase.is_empty(), "no phase instance ran: {:?}", report.nodes);
        let start = phase.iter().map(|n| n.start).fold(f64::INFINITY, f64::min);
        let finish = phase.iter().map(|n| n.finish).fold(0.0, f64::max);
        assert!(
            bi.start < finish && start < bi.finish,
            "B_I [{}, {}] must overlap the phase instances [{start}, {finish}]",
            bi.start,
            bi.finish,
        );
        assert!(
            cmp.orchestrated.finish < 2.5 * cmp.baseline.finish,
            "bounded overhead: baseline {} vs orchestrated {}",
            cmp.baseline.finish,
            cmp.orchestrated.finish
        );
    }

    #[test]
    fn source_round_trip() {
        let orch = Orchestrator::ncube2(16);
        let src = orchestra_lang::pretty::pretty_print(&figure1_program(16));
        let c = orch.compile_source(&src).unwrap();
        let report = orch.run(&c);
        assert!(report.finish > 0.0);
        assert!(report.efficiency() > 0.0);
    }

    #[test]
    fn bad_source_is_an_error() {
        let orch = Orchestrator::ncube2(4);
        assert!(orch.compile_source("program ???").is_err());
    }
}
