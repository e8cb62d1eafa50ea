#![warn(missing_docs)]
//! # orchestra-core
//!
//! The end-to-end pipeline of the PLDI '93 *Orchestrating Interactions
//! Among Parallel Computations* reproduction: parse MF source, run the
//! six-step symbolic analysis, apply split and pipelining, emit the
//! Delirium dataflow graph, and execute it with the adaptive runtime on
//! the simulated machine.
//!
//! ```
//! use orchestra_core::Orchestrator;
//! use orchestra_lang::builder::figure1_program;
//!
//! let orch = Orchestrator::ncube2(64);
//! let (compiled, comparison) = orch.compare(figure1_program(64));
//! assert!(compiled.exposed_concurrency());
//! assert!(comparison.baseline.finish > 0.0);
//! ```

pub mod compile;
pub mod graph;
pub mod orchestrate;

pub use compile::{compile, compile_source, summarize_pieces, CompileError, Compiled};
pub use graph::graph_of_compiled;
pub use orchestrate::{Comparison, Orchestrator};
