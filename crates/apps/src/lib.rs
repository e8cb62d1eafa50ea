#![warn(missing_docs)]
//! # orchestra-apps
//!
//! The four production applications of the paper's evaluation (§5),
//! rebuilt as synthetic workload generators (see `DESIGN.md` for the
//! substitution argument):
//!
//! * [`psirrfan`] — x-ray tomography image reconstruction (Figure 6);
//! * [`climate`] — the UCLA general circulation model (~3200 grid
//!   cells, irregular cloud physics);
//! * [`emu`] — the EMU parallel circuit simulator;
//! * [`vortex`] — an adaptive vortex method for turbulent flow.
//!
//! Each application yields (a) a *baseline* Delirium graph with
//! barriers between sub-computations, (b) a *split* graph with the
//! concurrency and pipelining the transformation exposes, and (c) an MF
//! kernel with the same interaction structure, which the compiler path
//! (`orchestra-analysis` → `orchestra-descriptors` → `orchestra-split`)
//! transforms end-to-end — tying the measured runtime behaviour back to
//! the compile-time story.

pub mod climate;
pub mod common;
pub mod emu;
pub mod psirrfan;
pub mod vortex;

pub use common::{AppWorkload, PhasedParams, Scale};

/// All four applications at their paper scales.
pub fn all_paper_workloads() -> Vec<AppWorkload> {
    vec![
        psirrfan::workload(&psirrfan::paper_scale()),
        climate::workload(&climate::paper_scale()),
        emu::workload(&emu::paper_scale()),
        vortex::workload(&vortex::paper_scale()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_validate() {
        for w in all_paper_workloads() {
            w.validate();
            assert!(w.serial_work() > 0.0, "{}", w.name);
            assert!(!w.pipeline_iters.is_empty(), "{}", w.name);
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<&str> = all_paper_workloads().iter().map(|w| w.name).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names.len(), 4);
        assert_eq!(dedup.len(), 4);
    }
}
