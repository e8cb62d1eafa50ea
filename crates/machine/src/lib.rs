#![warn(missing_docs)]
//! # orchestra-machine
//!
//! A deterministic discrete-event simulator of a distributed-memory
//! multiprocessor, standing in for the paper's nCUBE-2 testbed.
//!
//! The paper's evaluation (§5) measures *scheduling efficiency vs
//! processor count*; what matters for reproducing it is the decision
//! environment the runtime sees — message latency/bandwidth/hops,
//! scheduling overhead, and task-time distributions — all of which this
//! crate models:
//!
//! * [`config`] — machine parameters (hypercube topology, α/β/hop
//!   message costs, scheduling overhead);
//! * [`event`] — a deterministic discrete-event queue;
//! * [`procs`] — per-processor accounting (busy time, utilization,
//!   imbalance);
//! * [`workload`] — seeded task-cost distributions (constant, uniform,
//!   bimodal "masked-irregularity", heavy-tail).
//!
//! Substitution note (see `DESIGN.md`): simulated time replaces
//! wall-clock time; the runtime algorithms in `orchestra-runtime`
//! execute unchanged against this model.

pub mod config;
pub mod event;
pub mod procs;
pub mod workload;

pub use config::{MachineConfig, Topology};
pub use event::EventQueue;
pub use procs::{ProcStats, RunStats};
pub use workload::{summarize, CostDistribution, CostSummary};
