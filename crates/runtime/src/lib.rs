#![warn(missing_docs)]
//! # orchestra-runtime
//!
//! The adaptive runtime system (§4 of *Orchestrating Interactions Among
//! Parallel Computations*, PLDI 1993), executing Delirium dataflow
//! graphs on the simulated machine:
//!
//! * [`stats`] — online µ/σ sampling and positional cost functions;
//! * [`chunking`] — grain-size policies: **TAPER** (variance-adaptive
//!   decreasing chunks with `s = µg/µc` cost-function scaling) and the
//!   baselines it is compared against (static block, self-scheduling,
//!   guided self-scheduling, factoring);
//! * [`par_op`] — the simulated machine's one scheduling loop: a DAG
//!   of parallel operations under owner-computes data placement, each
//!   served by its chunk policy, a single operation its simplest case;
//! * [`dist_taper`] — distributed TAPER: one clock-free coordinator
//!   (home queues, epoch tokens, root-driven chunk re-assignment) that
//!   its binary-tree simulation and the threaded home queues both drive;
//! * [`finish`] — the finishing-time estimate
//!   `finish = setup + compute + lag + comm + sched` (equation 1);
//! * [`alloc`] — the processor-allocation equalizer, which solves the
//!   paper's min–max over finishing-time estimates exactly, and the
//!   zero-copy [`OutputArena`] backing every operation's output buffer;
//! * [`granularity`] — communication batch-size choice for pipelined
//!   operation pairs;
//! * [`executor`] — the simulator: the real engines' plan, every
//!   operation instance through [`par_op`]'s loop on shares the
//!   equalizer allocates;
//! * [`run`] — the run core the real backends share: one set-up from
//!   plan + restore image to per-op state, one per-task body, and the
//!   one [`RunReport`] every engine returns;
//! * [`threaded`] — the real-thread execution backend: the same graphs
//!   and chunk policies driving actual `std::thread` workers over real
//!   buffers, for differential testing against the simulator;
//! * [`asynch`] — the cooperative futures backend: a dependency-free
//!   hand-rolled executor multiplexing the op DAG over a few driver
//!   threads, ops awaiting predecessors and yielding at chunk
//!   boundaries;
//! * [`checkpoint`] — fault tolerance for the real backends: versioned
//!   crc-checked snapshots piggybacked on dist-TAPER epoch barriers,
//!   deterministic fault injection ([`FaultPlan`], whose every kill
//!   crashes the run), and crash recovery — restore the latest snapshot,
//!   replay the rest — via [`execute_graph_resumable`].

pub mod alloc;
pub mod asynch;
pub mod cancel;
pub mod checkpoint;
pub mod chunking;
pub mod dist_taper;
pub mod executor;
pub mod finish;
pub mod granularity;
pub mod par_op;
mod parking;
pub mod run;
pub mod stats;
pub mod threaded;

pub use alloc::{allocate_many, OutputArena, Publication};
pub use asynch::{execute_async, resolve_drivers};
pub use cancel::{CancelToken, RunError};
pub use checkpoint::{
    execute_graph_resumable, graph_fingerprint, load_latest, plan_fingerprint, snapshot_versions,
    CheckpointSpec, FaultPlan, FaultTrigger, KillSpec, Snapshot,
};
pub use chunking::{ChunkPolicy, Factoring, Gss, PolicyKind, SelfSched, Taper, REASSIGN_CV_GATE};
pub use dist_taper::{simulate_dist_taper, DistResult};
pub use executor::{costs_of_node, execute_graph, ExecutionReport, ExecutorOptions, NodeReport};
pub use finish::{finish_estimate, finish_estimate_live, FinishEstimate, HostCalibration, OpSpec};
pub use granularity::{batch_cost, choose_batch, pipelined_stage_time};
pub use par_op::{owner_of, simulate_policy, OpOptions, OpResult};
pub use run::{OpRecord, RunReport};
pub use stats::{CostFn, OnlineStats};
pub use threaded::affinity::{pin_current_thread, Affinity};
pub use threaded::crew::Crew;
pub use threaded::dist::{DistChunk, DistQueue};
pub use threaded::{
    execute_sequential, execute_threaded, AccessPattern, ExecutorBackend, ReduceKernel, SpinKernel,
    TaskCtx, TaskKernel,
};
