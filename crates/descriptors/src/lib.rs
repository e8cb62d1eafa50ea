#![warn(missing_docs)]
//! # orchestra-descriptors
//!
//! Symbolic data descriptors (§3.2 of *Orchestrating Interactions Among
//! Parallel Computations*, PLDI 1993).
//!
//! A descriptor summarizes the memory behaviour of a sub-computation as
//! two sets of guarded access triples `<G> B[P]`:
//!
//! * [`guard`] — guards: conjunctions of mask tests over array elements
//!   (`mask[col] <> 0`) and linear inequalities;
//! * [`triple`] — triples with per-dimension patterns (symbolic ranges,
//!   optionally masked: `q[1..10/(miss[*] <> 1), 1..10]`);
//! * [`descriptor`] — read/write sets with the paper's *interference*
//!   relation (output/flow/anti dependences, computed conservatively);
//! * [`build`] — constructing descriptors from MF statements, including
//!   iteration descriptors and induction-variable *promotion*.
//!
//! Unlike regular sections or Data Access Descriptors, these summaries
//! retain unresolved symbols anywhere in the pattern — the property the
//! split transformation depends on.
//!
//! ```
//! use orchestra_lang::parse_program;
//! use orchestra_descriptors::{SymCtx, descriptor_of_stmt};
//!
//! let p = parse_program(
//!     "program t\n integer n = 8\n float x[1..n]\n do i = 1, n { x[i] = 1.0 }\nend",
//! ).unwrap();
//! let ctx = SymCtx::from_program(&p);
//! let d = descriptor_of_stmt(&p.body[0], &ctx);
//! assert_eq!(d.writes.len(), 1);
//! ```

pub mod build;
pub mod descriptor;
pub mod guard;
pub mod triple;

pub use build::{
    descriptor_of_stmt, descriptor_of_stmts, loop_iteration_descriptor, LoopIteration, SymCtx,
};
pub use descriptor::Descriptor;
pub use guard::{Guard, GuardAtom, MaskRel, MaskTest};
pub use triple::{DimPattern, Triple};
