//! Shared application-workload plumbing.
//!
//! Each application provides two Delirium graphs for the same
//! computation: the **baseline** (barrier between sub-computations —
//! the traditional compilation the paper's §1 describes) and the
//! **split** version (concurrency and pipelining exposed by the split
//! transformation). Reproducing the paper's measurements means running
//! both through the same runtime and comparing.

use orchestra_delirium::DelirGraph;
use orchestra_lang::ast::Program;
use std::collections::HashMap;

/// Size/seed parameters of a workload instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Problem size (app-specific meaning: columns, grid cells, gates,
    /// particles).
    pub n: usize,
    /// RNG seed for irregularity draws.
    pub seed: u64,
}

impl Scale {
    /// A small scale for unit tests.
    pub fn test() -> Self {
        Scale { n: 256, seed: 42 }
    }
}

/// A complete application workload.
#[derive(Debug, Clone)]
pub struct AppWorkload {
    /// Application name.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Barrier-structured graph (traditional compilation).
    pub baseline: DelirGraph,
    /// Orchestrated graph (split + pipelining applied).
    pub split: DelirGraph,
    /// Iteration counts for the split graph's pipeline groups.
    pub pipeline_iters: HashMap<String, usize>,
    /// An MF kernel capturing the app's interacting-loop structure,
    /// used to exercise the compiler path end-to-end.
    pub kernel: Program,
}

impl AppWorkload {
    /// Sequential work of a graph including pipeline-group iterations.
    pub(crate) fn graph_serial_work(&self, g: &DelirGraph) -> f64 {
        g.nodes
            .iter()
            .map(|n| {
                let iters = n
                    .group
                    .as_ref()
                    .and_then(|gr| self.pipeline_iters.get(gr))
                    .copied()
                    .unwrap_or(1);
                n.kind.total_work() * iters as f64
            })
            .sum()
    }

    /// Total sequential work of the baseline graph (µs), including the
    /// phase-loop iterations.
    pub fn serial_work(&self) -> f64 {
        self.graph_serial_work(&self.baseline)
    }

    /// Sanity-checks both graphs.
    ///
    /// # Panics
    ///
    /// Panics if either graph fails validation — workload constructors
    /// must produce well-formed graphs.
    pub fn validate(&self) {
        self.baseline.validate().expect("baseline graph valid");
        self.split.validate().expect("split graph valid");
    }
}

/// Parameters of the phase-structured application template.
///
/// All four applications share one structure (the one the paper's §2
/// example motivates): a loop of phases, each containing an
/// *independent-splittable* part and a *dependent* part (irregular,
/// carried into the next phase), followed by a regular post-pass.
/// The baseline graph runs each phase to a barrier; the split graph
/// pipelines the phases and overlaps the post-pass's independent piece.
#[derive(Debug, Clone, Copy)]
pub struct PhasedParams {
    /// Number of phases (pipeline iterations).
    pub iters: usize,
    /// Tasks in the independent piece of one phase.
    pub ind_tasks: usize,
    /// Mean cost of independent tasks (µs).
    pub ind_mean: f64,
    /// Cost cv of independent tasks.
    pub ind_cv: f64,
    /// Tasks in the dependent piece of one phase.
    pub dep_tasks: usize,
    /// Mean cost of dependent tasks (µs).
    pub dep_mean: f64,
    /// Cost cv of dependent tasks.
    pub dep_cv: f64,
    /// Cost of the per-phase merge (µs).
    pub merge_cost: f64,
    /// Tasks in the regular post-pass.
    pub post_tasks: usize,
    /// Mean cost of post-pass tasks (µs).
    pub post_mean: f64,
    /// Cost cv of post-pass tasks.
    pub post_cv: f64,
    /// Elements carried between phases (for communication sizing).
    pub carried_elems: u64,
}

/// Builds an [`AppWorkload`] from the phase template.
pub(crate) fn phased_app(
    name: &'static str,
    description: &'static str,
    params: &PhasedParams,
    kernel: Program,
) -> AppWorkload {
    use orchestra_delirium::{DataAnno, NodeKind};
    let group = "phase".to_string();

    // Baseline: each phase runs its two loop nests as *sequential*
    // parallel operations with a barrier between phases — the
    // traditional compilation. The task populations are exactly the
    // ones the split graph's pieces draw.
    let mut base = DelirGraph::new();
    let a1 = base.add_node(
        "A_reg",
        NodeKind::DataParallel {
            tasks: params.ind_tasks,
            mean_cost: params.ind_mean,
            cv: params.ind_cv,
        },
        Some(group.clone()),
    );
    let a2 = base.add_node(
        "A_irr",
        NodeKind::DataParallel {
            tasks: params.dep_tasks,
            mean_cost: params.dep_mean,
            cv: params.dep_cv,
        },
        Some(group.clone()),
    );
    base.add_edge(a1, a2, DataAnno::array("res", params.carried_elems));
    base.add_carried_edge(a2, a1, DataAnno::array("carried", params.carried_elems));
    let b = base.add_node(
        "B",
        NodeKind::DataParallel {
            tasks: params.post_tasks,
            mean_cost: params.post_mean,
            cv: params.post_cv,
        },
        None,
    );
    base.add_edge(a2, b, DataAnno::array("q", params.carried_elems * params.iters as u64));

    // Split: pipelined phases, post-pass split into B_I ∥ pipeline,
    // then B_D and B_M.
    let mut split = DelirGraph::new();
    let ai = split.add_node(
        "A_I",
        NodeKind::DataParallel {
            tasks: params.ind_tasks,
            mean_cost: params.ind_mean,
            cv: params.ind_cv,
        },
        Some(group.clone()),
    );
    let ad = split.add_node(
        "A_D",
        NodeKind::DataParallel {
            tasks: params.dep_tasks,
            mean_cost: params.dep_mean,
            cv: params.dep_cv,
        },
        Some(group.clone()),
    );
    let am =
        split.add_node("A_M", NodeKind::Merge { cost: params.merge_cost }, Some(group.clone()));
    split.add_edge(ai, am, DataAnno::array("res_i", params.carried_elems));
    split.add_edge(ad, am, DataAnno::array("res_d", params.carried_elems / 4));
    split.add_carried_edge(am, ad, DataAnno::array("carried", params.carried_elems));
    // Post-pass split: ~1/6 of the post-pass depends on the phases.
    let bd_tasks = (params.post_tasks / 6).max(1);
    let bi_tasks = params.post_tasks - bd_tasks;
    let bi = split.add_node(
        "B_I",
        NodeKind::DataParallel { tasks: bi_tasks, mean_cost: params.post_mean, cv: params.post_cv },
        None,
    );
    let bd = split.add_node(
        "B_D",
        NodeKind::DataParallel { tasks: bd_tasks, mean_cost: params.post_mean, cv: params.post_cv },
        None,
    );
    let bm = split.add_node("B_M", NodeKind::Merge { cost: params.merge_cost }, None);
    split.add_edge(am, bd, DataAnno::array("q", params.carried_elems));
    split.add_edge(bi, bm, DataAnno::array("out1", params.carried_elems));
    split.add_edge(bd, bm, DataAnno::array("out2", params.carried_elems / 4));

    let mut pipeline_iters = HashMap::new();
    pipeline_iters.insert(group, params.iters);

    AppWorkload { name, description, baseline: base, split, pipeline_iters, kernel }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_delirium::NodeKind;

    #[test]
    fn serial_work_sums_nodes() {
        let mut g = DelirGraph::new();
        g.add_node("a", NodeKind::Task { cost: 5.0 }, None);
        g.add_node("b", NodeKind::DataParallel { tasks: 10, mean_cost: 2.0, cv: 0.0 }, None);
        let w = AppWorkload {
            name: "t",
            description: "",
            baseline: g.clone(),
            split: g,
            pipeline_iters: HashMap::new(),
            kernel: Program::new("t"),
        };
        assert_eq!(w.serial_work(), 25.0);
        w.validate();
    }

    #[test]
    fn pipeline_iters_multiply_split_work() {
        let mut g = DelirGraph::new();
        g.add_node("a", NodeKind::Task { cost: 5.0 }, Some("P".into()));
        let mut iters = HashMap::new();
        iters.insert("P".to_string(), 10usize);
        let w = AppWorkload {
            name: "t",
            description: "",
            baseline: g.clone(),
            split: g,
            pipeline_iters: iters,
            kernel: Program::new("t"),
        };
        assert_eq!(w.graph_serial_work(&w.split), 50.0);
    }
}
