#![warn(missing_docs)]
//! # orchestra-lang
//!
//! The **MF** ("Mini-Fortran") source language for the PLDI '93
//! *Orchestrating Interactions Among Parallel Computations* reproduction.
//!
//! The paper's compiler consumes extended FORTRAN; this crate provides a
//! from-scratch equivalent able to express every construct the paper's
//! analyses and examples (Figures 1–5) rely on:
//!
//! * multi-dimensional arrays with declared index ranges,
//! * `do` loops with *discontinuous ranges* (`do i = 1, a-1 and a+1, n`),
//! * `where` masks on loops (`do col = 1, n where (mask[col] <> 0)`),
//! * conditionals, reductions, and calls to pure intrinsic functions.
//!
//! The crate contains a lexer, a recursive-descent parser, a
//! pretty-printer, a reference interpreter (used by the test suite to
//! prove that the `split` transformation is semantics-preserving), and a
//! programmatic [`builder`] API used by later passes to synthesize code.
//!
//! ## Example
//!
//! ```
//! use orchestra_lang::parse_program;
//!
//! let src = r#"
//! program demo
//!   integer n = 4
//!   float x[1..n]
//!   do i = 1, n {
//!     x[i] = i * 2.0
//!   }
//! end
//! "#;
//! let prog = parse_program(src).unwrap();
//! assert_eq!(prog.name, "demo");
//! ```

pub mod ast;
pub mod builder;
pub mod check;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod token;

pub use ast::{BinOp, Decl, Expr, LValue, Name, Program, Range, Stmt, Type, UnOp};
pub use check::{check_program, CheckError};
pub use error::LangError;
pub use interp::{Env, Interp, Value};
pub use parser::parse_program;
pub use pretty::pretty_print;
