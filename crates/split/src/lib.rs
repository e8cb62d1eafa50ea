#![warn(missing_docs)]
//! # orchestra-split
//!
//! The **split** transformation (§3.3 of *Orchestrating Interactions
//! Among Parallel Computations*, PLDI 1993) and its application to
//! loop pipelining.
//!
//! Split takes a computation `C` and a descriptor `D` of another
//! computation and divides `C` into the dependent computation `C_D`,
//! the independent computation `C_I`, and the merging computation
//! `C_M`:
//!
//! * [`prim`] — subdividing `C` into primitive computations (basic
//!   blocks, calls, loops);
//! * [`mod@categorize`] — Bound / Linked / Free via `transitive_interfere`,
//!   and the Linked refinement NeedsBound / GenerateLinked / ReadLinked
//!   via transitive *flow* interference;
//! * [`loop_split`] — splitting the iterations of a Bound loop by
//!   placing a conditional on the induction variable, with reduction
//!   replication and merge synthesis (Figures 2 and 4);
//! * [`split`] — the driver, including the ReadLinked move heuristic
//!   (replicating supplier computations below an operation-count
//!   threshold when profile data justifies it);
//! * [`pipeline`] — pipelining a loop by splitting its body against the
//!   descriptor of the previous iteration(s) (Figure 3).
//!
//! Loop fusion, the remedy §1 finds incomplete next to split, is not a
//! pass here: `figures intro-fusion` draws the fused graph by hand.
//!
//! The transformed source is order-preserving (sequentially equivalent
//! to the input — property-tested against the MF interpreter); exposed
//! concurrency is recorded in piece classes for the Delirium graph.

pub mod categorize;
pub mod loop_split;
pub mod pipeline;
pub mod prim;
pub mod split;

pub use categorize::{categorize, Categories};
pub use loop_split::symexpr_to_ast;
pub use pipeline::{pipeline_iterations, pipeline_loop, PipelineResult};
pub use prim::{primitives_of, Prim, PrimKind};
pub use split::{
    split_computation, split_in, static_op_count, Piece, PieceClass, SplitOptions, SplitResult,
};
