//! The run shape every workload shares: set-up, then a frozen number of
//! identical rounds with wall time, process CPU time and per-op latency
//! recorded for each, and more set-ups in between. The timings reported
//! are those of the fastest round and the fastest set-up.

use crate::host;
use crate::metrics::{Layers, Report, END_TO_END};
use crate::spec;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use std::time::{Duration, Instant};

/// What the command line asks of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Cap on the measured window, seconds.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// Latencies and failures of one round, one slot per op of the round.
#[derive(Debug, Default)]
pub struct RoundRec {
    /// Latency of op `i` in ns; `None` when the op failed, was refused
    /// or returned wrong bits — it then counts as missing any latency.
    pub ops: Vec<Option<u64>>,
}

impl RoundRec {
    /// Records op `i`: its latency when `ok`, a failure otherwise.
    pub fn record(&mut self, i: usize, ok: bool, started: Instant) {
        self.ops[i] = ok.then(|| started.elapsed().as_nanos() as u64);
    }
}

/// One workload: a fixed op list the harness runs round after round.
pub trait Workload: Sized {
    /// Measured rounds of a run.
    const ROUNDS: usize;

    /// Puts the calling thread on the CPUs the workload runs on, builds
    /// inputs from `seed`, computes the reference outputs, checks the
    /// validity guards, starts whatever serves the ops and runs the
    /// warm-up rounds. Span times are measured from `epoch`. The harness
    /// also calls this while an earlier instance is live.
    fn setup(seed: u64, epoch: Instant) -> Result<Self, String>;

    /// Ops per round.
    fn ops_per_round(&self) -> usize;

    /// What the validity guards read at set-up, for the log.
    fn guards(&self) -> &str;

    /// Executes the op list once. `round` numbers the op ids; with
    /// `traced` the calls into the program are wrapped in spans. Only
    /// calls into the program and clock reads belong here.
    fn round(&mut self, round: u64, traced: bool, rec: &mut RoundRec);

    /// Checks outputs the round left for later, outside the round's
    /// clock; a mismatch clears the op's latency.
    fn verify(&mut self, rec: &mut RoundRec);

    /// Stops what `setup` started and hands over the recorded spans.
    fn teardown(self) -> Tracer;

    /// Per-layer metrics of a traced run: from `spans`, and from probes
    /// run here. Returns the number of probe ops that failed.
    fn layers(seed: u64, spans: &[Span], out: &mut Layers) -> Result<u64, String>;
}

/// One complete set-up. A guard that fails is read again, twice: a
/// reading takes a fraction of a second, which a neighbour of the host
/// can spoil (one in a hundred `exec_apps` readings did), while a
/// workload that really stopped stressing what it claims fails every
/// time.
fn set_up<W: Workload>(seed: u64, epoch: Instant) -> Result<W, String> {
    let mut again = 2;
    loop {
        match W::setup(seed, epoch) {
            Err(e) if e.starts_with("guard:") && again > 0 => {
                println!("# {e}; reading again");
                again -= 1;
            }
            done => return done,
        }
    }
}

/// Runs workload `W` as `args` ask and returns the report to print.
pub fn run<W: Workload>(args: &RunArgs, started: Instant) -> Result<Report, String> {
    let cores = host::nproc();
    let cpus = host::claim_cpus()?;
    println!("# running on cpus {cpus:?} of {cores}");
    // ---- set-up ----------------------------------------------------
    let mut wl = set_up::<W>(args.seed, started)?;
    // The first set-up also pays process start.
    let mut setups = vec![started.elapsed().as_secs_f64()];
    println!("# guards: {}", wl.guards());

    // ---- the measured window ---------------------------------------
    let ops = wl.ops_per_round();
    let rounds = if args.trace { spec::TRACE_ROUNDS } else { W::ROUNDS };
    // More set-ups, each complete and torn down at once, at even
    // distances through the rounds: the fastest of them meets a quiet
    // moment of the host if the run has one. Their time is not the
    // window's.
    let setup_every = rounds / spec::SETUP_REPEATS;
    let mut in_setups = Duration::ZERO;
    let window = Duration::from_secs(args.seconds);
    let mut log: Vec<Round> = Vec::with_capacity(rounds);
    let mut spin_ms = Vec::with_capacity(rounds);
    let mut rec = RoundRec { ops: vec![None; ops] };
    let opened = Instant::now();
    while log.len() < rounds && opened.elapsed() - in_setups < window {
        let r = log.len();
        if r > 0 && r.is_multiple_of(setup_every) && setups.len() < spec::SETUP_REPEATS {
            let t0 = Instant::now();
            drop(set_up::<W>(args.seed, started)?.teardown());
            let took = t0.elapsed();
            setups.push(took.as_secs_f64());
            in_setups += took;
        }
        let traced = args.trace && r % 4 != 3;
        spin_ms.push(host::reference_spin_ms());
        rec.ops.iter_mut().for_each(|o| *o = None);
        let cpu0 = host::process_cpu_seconds();
        let t0 = Instant::now();
        wl.round(r as u64, traced, &mut rec);
        let wall = t0.elapsed();
        let cpu = host::process_cpu_seconds() - cpu0;
        wl.verify(&mut rec);
        log.push(Round {
            traced,
            wall_ms: wall.as_secs_f64() * 1e3,
            cpu_ms: cpu * 1e3,
            op_ms: rec.ops.iter().map(|o| o.map(|ns| ns as f64 * 1e-6)).collect(),
        });
    }
    let window_s = (opened.elapsed() - in_setups).as_secs_f64();
    let setup_s = stats::fastest(&setups);
    let peak_rss_mb = host::peak_rss_mb()?;
    let tracer = wl.teardown();

    // The frozen round count is the run; `--seconds` only caps it, so a
    // run the cap cut short did less work than every other and counts
    // as failed rather than as a faster or slimmer one.
    let cut_short = log.len() < rounds;
    if cut_short {
        println!(
            "# INCOMPLETE: {} of {rounds} rounds fit in --seconds {}: this host is slower than \
             the sizes in src/spec.rs allow for",
            log.len(),
            args.seconds
        );
    }
    let attempted = (log.len() * ops) as u64;
    let completed = log.iter().flat_map(|r| &r.op_ms).flatten().count() as u64;
    let mut failed = attempted - completed;
    let walls: Vec<f64> = log.iter().map(|r| r.wall_ms).collect();
    println!(
        "# {} seed {}: {} rounds x {ops} ops in {window_s:.2} s, {failed} failed; set-ups {setups:?} s",
        args.workload,
        args.seed,
        log.len(),
    );
    println!(
        "# all rounds: round_ms fastest {:.4} p50 {:.4} iqr {:.4}, mean ops/s {:.2}; host.spin_ms p50 {:.4}",
        stats::fastest(&walls),
        stats::median(&walls),
        stats::iqr(&walls),
        completed as f64 / window_s,
        stats::median(&spin_ms),
    );

    if !args.trace {
        let timing = Timing::of(log.iter()).ok_or("an op of the list never completed")?;
        // In the order of `END_TO_END`, which names them and their units.
        let values = [
            ops as f64 / (timing.round_ms * 1e-3),
            timing.op_ms_p50,
            timing.cpu_ms / ops as f64,
            peak_rss_mb,
            setup_s,
        ];
        let metrics =
            END_TO_END.iter().zip(values).map(|(&(name, unit, ..), v)| (name, v, unit)).collect();
        return Ok(Report { correct: failed == 0 && !cut_short, attempted, failed, metrics });
    }

    // ---- the traced run: per-layer metrics only --------------------
    let spans = tracer.spans();
    let path = crate::out_dir().join(format!("trace-{}.jsonl", args.workload));
    trace::write_jsonl(spans, &path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# {} spans written to {}", spans.len(), path.display());

    let traced = Timing::of(log.iter().filter(|r| r.traced))
        .ok_or("an op of the list never completed traced")?;
    let mut layers = Layers::default();
    layers.set("run.rounds", log.len() as f64);
    layers.set("run.ops", completed as f64);
    layers.set("run.round_ms", traced.round_ms);
    layers.set("run.round_ms_p50", stats::median(&walls));
    layers.set("run.round_ms_iqr", stats::iqr(&walls));
    layers.set("run.ops_per_s_mean", completed as f64 / window_s);
    layers.set("host.spin_ms_p50", stats::median(&spin_ms));
    layers.set("host.nproc", cores as f64);
    if let Some(plain) = Timing::of(log.iter().filter(|r| !r.traced)) {
        layers.set("trace.overhead", traced.round_ms / plain.round_ms);
    }
    let all_ops: Vec<f64> = log.iter().flat_map(|r| &r.op_ms).flatten().copied().collect();
    if let Some((_, p)) = stats::tail(&all_ops) {
        layers.set("client.op_ms_p99", p);
    }
    let probe_failed = W::layers(args.seed, spans, &mut layers)?;
    failed += probe_failed;
    Ok(Report {
        correct: failed == 0 && !cut_short,
        attempted: attempted + probe_failed,
        failed,
        metrics: layers.all(),
    })
}

/// What one round of the measured window recorded.
struct Round {
    traced: bool,
    wall_ms: f64,
    cpu_ms: f64,
    /// One slot per op; `None` for a failed op.
    op_ms: Vec<Option<f64>>,
}

/// The timings a set of identical rounds gives: the fastest round, the
/// round that took the least CPU, and each op of the list at its
/// fastest.
struct Timing {
    round_ms: f64,
    cpu_ms: f64,
    /// Median, over the ops of the list, of the op's fastest latency.
    op_ms_p50: f64,
}

impl Timing {
    /// `None` when some op of the list never completed in these rounds.
    fn of<'a>(rounds: impl Iterator<Item = &'a Round>) -> Option<Timing> {
        let rounds: Vec<&Round> = rounds.collect();
        let ops = rounds.first()?.op_ms.len();
        let fastest_of_op =
            |i: usize| rounds.iter().filter_map(|r| r.op_ms[i]).min_by(f64::total_cmp);
        let per_op: Vec<f64> = (0..ops).map(fastest_of_op).collect::<Option<_>>()?;
        Some(Timing {
            round_ms: stats::fastest(&rounds.iter().map(|r| r.wall_ms).collect::<Vec<_>>()),
            cpu_ms: stats::fastest(&rounds.iter().map(|r| r.cpu_ms).collect::<Vec<_>>()),
            op_ms_p50: stats::median(&per_op),
        })
    }
}

/// Wall time in ms of the fastest of `reps` calls of `f`; `Err` from
/// any call is returned at once.
pub fn try_probe_ms(reps: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f()?;
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(stats::fastest(&samples))
}

/// [`try_probe_ms`] for a call that cannot fail.
pub fn probe_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let never_fails = try_probe_ms(reps, || {
        f();
        Ok(())
    });
    never_fails.expect("the probed call returns nothing that could be an error")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(wall_ms: f64, cpu_ms: f64, op_ms: &[Option<f64>]) -> Round {
        Round { traced: false, wall_ms, cpu_ms, op_ms: op_ms.to_vec() }
    }

    #[test]
    fn timings_are_those_of_the_fastest_round_and_of_each_op_at_its_fastest() {
        let rounds = [
            round(30.0, 50.0, &[Some(1.0), Some(9.0), Some(20.0)]),
            round(20.0, 45.0, &[Some(2.0), Some(7.0), None]),
            round(25.0, 40.0, &[Some(3.0), Some(8.0), Some(10.0)]),
        ];
        let t = Timing::of(rounds.iter()).unwrap();
        assert_eq!((t.round_ms, t.cpu_ms), (20.0, 40.0));
        // Fastest per op: 1, 7 and 10 (the failed op has no latency).
        assert_eq!(t.op_ms_p50, 7.0);
    }

    #[test]
    fn an_op_that_never_completed_leaves_no_timing() {
        let rounds = [round(1.0, 1.0, &[Some(1.0), None]), round(1.0, 1.0, &[Some(1.0), None])];
        assert!(Timing::of(rounds.iter()).is_none());
        assert!(Timing::of([].iter()).is_none());
    }
}
