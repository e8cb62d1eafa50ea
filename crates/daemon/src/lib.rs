//! `orchestra-daemon`: a multi-tenant graph-serving daemon over the
//! PLDI'93 orchestration runtime.
//!
//! The paper orchestrates interactions *among* parallel computations;
//! within one graph the runtime already rations processors between
//! concurrent ops with the §4.1.2 finishing-time equalizer. This
//! crate closes the remaining gap to a serving system: one long-lived
//! `orchestrad` process owns a shared worker pool and serves many
//! tenants' graphs at once, applying the *same* equalizer across
//! graphs ([`sched`]), admission control and weighted quotas ahead of
//! it ([`session`]), cooperative cancellation and deadlines through
//! the runtime's claim-boundary hooks, and crash recovery for
//! checkpointed jobs via
//! [`execute_graph_resumable`](orchestra_runtime::execute_graph_resumable).
//!
//! The pieces:
//!
//! * [`wire`] — the length-prefixed unix-socket protocol (text
//!   frames, Delirium graphs in their [`text`](orchestra_delirium::text)
//!   form, `f64` outputs as bit patterns).
//! * [`session`] — tenant identity and admission control.
//! * [`sched`] — the cross-graph processor allocator.
//! * [`server`] — the daemon itself ([`Daemon::start`]).
//! * [`client`] — a small blocking client
//!   ([`Client::connect`] → `submit`/`wait`/`cancel`).

pub mod client;
pub mod sched;
pub mod server;
pub mod session;
pub mod wire;

pub use client::{Client, ClientError};
pub use sched::{graph_load_specs, GraphLoad, PoolScheduler};
pub use server::{Daemon, DaemonConfig};
pub use session::{Admission, AdmissionPolicy, Tenant};
pub use wire::{JobOptions, JobRow, Request, Response, WireOutput, WireResult};
