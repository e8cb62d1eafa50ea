//! Every size the benchmark runs at, frozen.
//!
//! A run is set-up, then `ROUNDS` identical rounds; a round executes
//! the workload's fixed op list once. Nothing here is derived from a
//! measurement at run time, so two commits do the same work and
//! collect the same number of samples. The sizes were tuned once, on
//! the 2-vCPU dev host, until a round took 20–60 ms, the validity
//! guards below held mid-band, and the rounds of a run took 9–15 s
//! while the host was quiet and at most 20 s while a neighbour kept it
//! at its slowest — well inside the 30 s `--seconds` caps a run at. Changing any of
//! them starts a new baseline: do it in a change that touches nothing
//! but the benchmark.

/// Worker threads wherever the program runs concurrently, and tenant
/// connections in `serve_mix` — on any host, however many cores it has.
pub const WORKERS: usize = 2;

/// The `--seconds` the round counts below leave headroom under, and
/// the default.
pub const CAP_SECONDS: u64 = 30;

/// Complete set-ups per run, one before the rounds and the others
/// spread through them; `setup_s` is the fastest.
pub const SETUP_REPEATS: usize = 5;

/// Untimed rounds at the end of every set-up.
pub const WARMUP_ROUNDS: usize = 10;

/// Rounds of a `--trace 1` run; every fourth runs untraced, for
/// `trace.overhead`.
pub const TRACE_ROUNDS: usize = 200;

/// Steps of the reference spin run before every round (≈ 1 ms).
pub const HOST_SPIN_STEPS: u64 = 400_000;

/// Repetitions of each per-layer probe of a traced run.
pub const PROBE_REPS: usize = 15;

/// `compile`: one thread, 17 MF sources per round.
pub mod compile {
    /// Measured rounds of a run.
    pub const ROUNDS: usize = 240;
    /// Generated programs per size class: `(count, labelled loops)`.
    /// With the five fixed sources that is an odd number of ops, so the
    /// median op latency falls on one program, not between two.
    pub const CLASSES: [(usize, usize); 3] = [(6, 3), (4, 10), (2, 30)];
    /// Array extent `n` of the generated programs (sets the oracle's
    /// interpreter time, not the compile time).
    pub const EXTENT: usize = 8;
}

/// `exec_fine`: the runtime's own overhead, three shapes per round.
pub mod exec_fine {
    /// Times the three shapes run in a round.
    pub const REPEATS: usize = 2;
    /// Measured rounds of a run.
    pub const ROUNDS: usize = 300;
    /// Tasks of the flat op.
    pub const FLAT_TASKS: usize = 262_144;
    /// Ops of the element-wise chain.
    pub const CHAIN_DEPTH: usize = 32;
    /// Tasks of every op of the chain.
    pub const CHAIN_TASKS: usize = 8_192;
    /// Tiny graphs per repeat.
    pub const TINY_GRAPHS: usize = 72;
    /// Ops of a tiny graph.
    pub const TINY_DEPTH: usize = 2;
    /// Tasks of every op of a tiny graph.
    pub const TINY_TASKS: usize = 32;
    /// `SpinKernel` scale: every task costs one arithmetic step.
    pub const STEPS_PER_US: f64 = 1.0;
    /// A shape's share of the round must stay in this band.
    pub const SHAPE_SHARE: (f64, f64) = (0.20, 0.45);
    /// The kernels' steps × the reference spin's step time may be at
    /// most this share of the threaded CPU time.
    pub const MAX_KERNEL_SHARE: f64 = 0.5;
}

/// `exec_apps`: the four paper applications' split graphs.
pub mod exec_apps {
    /// Measured rounds of a run.
    pub const ROUNDS: usize = 280;
    /// Application size `n`.
    pub const SCALE_N: usize = 256;
    /// `SpinKernel` steps of one application, whatever costs the seed
    /// draws for its tasks.
    pub const APP_STEPS: f64 = 8.0e6;
    /// Sequential wall ÷ one-worker threaded CPU must be at least this.
    pub const MIN_KERNEL_SHARE: f64 = 0.8;
}

/// `serve_mix`: two tenants against an in-process daemon.
pub mod serve_mix {
    /// Measured rounds of a run.
    pub const ROUNDS: usize = 380;
    /// Small jobs per tenant per round.
    pub const SMALL_JOBS: usize = 24;
    /// Tasks of a small job's one op.
    pub const SMALL_TASKS: usize = 256;
    /// Size `n` of the DAG job (psirrfan's split graph).
    pub const DAG_N: usize = 64;
    /// Tasks of the wide job's one op (16 hex bytes per task on the wire).
    pub const WIDE_TASKS: usize = 28_672;
    /// The daemon's `kernel_scale`.
    pub const KERNEL_SCALE: f64 = 0.05;
    /// Wide jobs' share of the round must stay in this band.
    pub const WIDE_SHARE: (f64, f64) = (0.35, 0.70);
}
