//! `exec_fine` and `exec_apps`: graphs executed in-process on two
//! workers under TAPER.
//!
//! `exec_fine` runs one-step tasks, so the runtime's per-task and
//! per-call overhead is nearly all the CPU; `exec_apps` runs the four
//! paper applications with irregular task costs, where chunking, the
//! equalizer and pipelining decide the time and per-task overhead does
//! not. A change to the claim path, the arena or pool spin-up should
//! move the first and leave the second alone. The first keeps both
//! workers on one CPU and the second gives each its own (README.md,
//! "Where the threads run").

use crate::gen::{fnv1a, Rng};
use crate::harness::{try_probe_ms, RoundRec, Workload};
use crate::host::{self, process_cpu_seconds, reference_spin_ms};
use crate::metrics::Layers;
use crate::spec::{self, exec_apps, exec_fine, PROBE_REPS, WORKERS};
use crate::stats::fastest;
use crate::sut::{self, bitwise_eq, Engine, Exec, Graph, Outputs};
use crate::trace::{durations_ns, per_round_ns, Span, Tracer, NO_SPAN};
use std::time::Instant;

/// One distinct (graph, execution) pair and the outputs an independent
/// single-thread execution produced for it at set-up.
struct Case {
    /// Root span name of ops running this case.
    span: &'static str,
    graph: Graph,
    /// The barrier graph of the same computation, where there is one.
    baseline: Option<Graph>,
    exec: Exec,
    reference: Outputs,
}

impl Case {
    fn new(
        span: &'static str,
        graph: Graph,
        baseline: Option<Graph>,
        exec: Exec,
    ) -> Result<(Case, f64), String> {
        let t0 = Instant::now();
        let reference = exec.run(&graph, Engine::Sequential)?;
        let seq_ms = t0.elapsed().as_secs_f64() * 1e3;
        Ok((Case { span, graph, baseline, exec, reference }, seq_ms))
    }
}

/// What both workloads share: cases, the round's op list as indices
/// into them, and the outputs a round leaves for `verify`.
struct Core {
    cases: Vec<Case>,
    op_list: Vec<usize>,
    pending: Vec<Option<Outputs>>,
    tracer: Tracer,
    /// Single-thread wall time of one round's op list, ms.
    seq_round_ms: f64,
    /// What the validity guards read at set-up.
    guards: String,
}

impl Core {
    fn new(cases: Vec<(Case, f64)>, op_list: Vec<usize>, epoch: Instant) -> Core {
        let seq_round_ms = op_list.iter().map(|&c| cases[c].1).sum();
        Core {
            cases: cases.into_iter().map(|c| c.0).collect(),
            pending: op_list.iter().map(|_| None).collect(),
            op_list,
            tracer: Tracer::new(epoch),
            seq_round_ms,
            guards: String::new(),
        }
    }

    /// Hash of everything the program is handed in one round: the order
    /// of the ops and, for each, its graph and how it is executed.
    fn input_hash(&self) -> u64 {
        let mut bytes = Vec::new();
        for &c in &self.op_list {
            let case = &self.cases[c];
            for word in [case.graph.hash(), case.exec.seed, case.exec.steps_per_us.to_bits()] {
                bytes.extend(word.to_le_bytes());
            }
        }
        fnv1a(&bytes)
    }

    fn round(&mut self, round: u64, traced: bool, rec: &mut RoundRec) {
        self.tracer.set_on(traced);
        let n = self.op_list.len() as u64;
        for (i, &c) in self.op_list.iter().enumerate() {
            let case = &self.cases[c];
            let t0 = Instant::now();
            let span = self.tracer.begin(case.span, NO_SPAN, round * n + i as u64);
            let out = case.exec.run(&case.graph, Engine::Threaded);
            self.tracer.end(span);
            rec.record(i, out.is_ok(), t0);
            self.pending[i] = out.ok();
        }
        self.tracer.set_on(false);
    }

    fn verify(&mut self, rec: &mut RoundRec) {
        for (i, &c) in self.op_list.iter().enumerate() {
            let same =
                self.pending[i].take().is_some_and(|o| bitwise_eq(&o, &self.cases[c].reference));
            if !same {
                rec.ops[i] = None;
            }
        }
    }

    /// Warm-up rounds; returns each case's share of the op time of a
    /// round, every op taken at its fastest, and the least process CPU
    /// time a round took (ms).
    fn warm_up(&mut self) -> Result<(Vec<f64>, f64), String> {
        let mut rec = RoundRec { ops: vec![None; self.op_list.len()] };
        let mut fastest = vec![f64::INFINITY; self.op_list.len()];
        let mut cpu_ms = f64::INFINITY;
        for _ in 0..spec::WARMUP_ROUNDS {
            let cpu0 = process_cpu_seconds();
            self.round(0, false, &mut rec);
            cpu_ms = cpu_ms.min((process_cpu_seconds() - cpu0) * 1e3);
            self.verify(&mut rec);
            for (best, ns) in fastest.iter_mut().zip(&rec.ops) {
                let ns = ns.ok_or("an op failed or returned wrong bits during warm-up")?;
                *best = best.min(ns as f64);
            }
        }
        let mut per_case = vec![0.0; self.cases.len()];
        for (&c, ns) in self.op_list.iter().zip(&fastest) {
            per_case[c] += ns;
        }
        let total: f64 = per_case.iter().sum();
        Ok((per_case.iter().map(|t| t / total).collect(), cpu_ms))
    }

    /// Bytes of output slab one round allocates: 8 per task of every op.
    fn arena_bytes(&self) -> Result<f64, String> {
        let mut tasks = 0;
        for &c in &self.op_list {
            tasks += self.cases[c].graph.plan_tasks()?;
        }
        Ok(tasks as f64 * 8.0)
    }

    /// Metrics both workloads derive the same way: the sequential
    /// floor, the threaded round, their ratios, plan expansion and slab
    /// bytes.
    fn shared_layers(&self, spans: &[Span], out: &mut Layers) -> Result<(), String> {
        let n = self.op_list.len() as u64;
        let thr_ms = self
            .cases
            .iter()
            .map(|c| c.span)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|name| fastest(&per_round_ns(spans, name, n)) * 1e-6)
            .sum::<f64>();
        let run_all = |engine: Engine| {
            self.op_list
                .iter()
                .try_for_each(|&c| self.cases[c].exec.run(&self.cases[c].graph, engine).map(drop))
        };
        let mut cpu = Vec::new();
        for _ in 0..PROBE_REPS {
            let cpu0 = process_cpu_seconds();
            run_all(Engine::Threaded)?;
            cpu.push((process_cpu_seconds() - cpu0) * 1e3);
        }
        let seq_ms = try_probe_ms(PROBE_REPS, || run_all(Engine::Sequential))?;
        let plan_ms = try_probe_ms(PROBE_REPS, || {
            self.op_list.iter().try_for_each(|&c| self.cases[c].exec.plan(&self.cases[c].graph))
        })?;
        out.set("runtime.seq_ms", seq_ms);
        out.set("runtime.thr_ms", thr_ms);
        out.set("runtime.kernel_share", seq_ms / fastest(&cpu));
        out.set("runtime.parallel_eff", seq_ms / (WORKERS as f64 * thr_ms));
        out.set("runtime.plan_ms", plan_ms);
        out.set("runtime.arena_bytes", self.arena_bytes()?);
        Ok(())
    }
}

/// The guards every set-up checks, whatever the workload: the seed
/// determines the input, and another seed gives another.
fn seed_guard(build: impl Fn(u64) -> Result<Core, String>, seed: u64) -> Result<Core, String> {
    let core = build(seed)?;
    if core.input_hash() != build(seed)?.input_hash()
        || core.input_hash() == build(seed ^ 1)?.input_hash()
    {
        return Err("guard: the seed does not determine the input".to_string());
    }
    Ok(core)
}

/// `Ok(reading)` when `holds`, the guard failure otherwise.
fn guard_verdict(holds: bool, reading: String) -> Result<String, String> {
    if holds {
        Ok(reading)
    } else {
        Err(format!("guard: the workload no longer stresses what it claims: {reading}"))
    }
}

// ---------------------------------------------------------------- exec_fine

/// The `exec_fine` workload.
pub struct Fine(Core);

impl Fine {
    /// Cases, references and op list for `seed`, which draws the task
    /// costs. The ops keep one order on every seed: another order has
    /// the allocator meet the slabs differently, which moves a round's
    /// time by more than the host does.
    fn core(seed: u64, epoch: Instant) -> Result<Core, String> {
        let exec =
            Exec { workers: WORKERS, seed, steps_per_us: exec_fine::STEPS_PER_US, own_cpus: false };
        let chain = sut::chain_graph(exec_fine::CHAIN_DEPTH, exec_fine::CHAIN_TASKS);
        let tiny = sut::chain_graph(exec_fine::TINY_DEPTH, exec_fine::TINY_TASKS);
        let cases = vec![
            Case::new("op.flat", sut::flat_graph(exec_fine::FLAT_TASKS), None, exec)?,
            Case::new("op.chain", chain, None, exec)?,
            Case::new("op.tiny", tiny, None, exec)?,
        ];
        let mut op_list = vec![0, 1];
        op_list.extend(std::iter::repeat_n(2, exec_fine::TINY_GRAPHS));
        let op_list = op_list.repeat(exec_fine::REPEATS);
        Ok(Core::new(cases, op_list, epoch))
    }
}

impl Workload for Fine {
    const ROUNDS: usize = exec_fine::ROUNDS;

    fn setup(seed: u64, epoch: Instant) -> Result<Self, String> {
        host::pin(Some(1))?;
        let mut core = seed_guard(|s| Fine::core(s, epoch), seed)?;
        let (shares, cpu_ms) = core.warm_up()?;
        // Every task is one step of the recurrence the reference spin
        // times, so the kernels' share of the CPU follows from counts.
        // (The sequential executor's wall time would not do: at one
        // step a task it is mostly that executor's own overhead.)
        let step_ms = reference_spin_ms() / spec::HOST_SPIN_STEPS as f64;
        let kernel_share = core.arena_bytes()? / 8.0 * step_ms / cpu_ms;
        let (lo, hi) = exec_fine::SHAPE_SHARE;
        core.guards = guard_verdict(
            shares.iter().all(|s| (lo..=hi).contains(s))
                && kernel_share <= exec_fine::MAX_KERNEL_SHARE,
            format!(
                "shape shares flat {:.2} chain {:.2} tiny {:.2} (each within {lo}–{hi}); \
                 kernel share {kernel_share:.3} (at most {})",
                shares[0],
                shares[1],
                shares[2],
                exec_fine::MAX_KERNEL_SHARE
            ),
        )?;
        Ok(Fine(core))
    }

    fn ops_per_round(&self) -> usize {
        self.0.op_list.len()
    }

    fn guards(&self) -> &str {
        &self.0.guards
    }

    fn round(&mut self, round: u64, traced: bool, rec: &mut RoundRec) {
        self.0.round(round, traced, rec);
    }

    fn verify(&mut self, rec: &mut RoundRec) {
        self.0.verify(rec);
    }

    fn teardown(self) -> Tracer {
        self.0.tracer
    }

    fn layers(seed: u64, spans: &[Span], out: &mut Layers) -> Result<u64, String> {
        let core = Fine::core(seed, Instant::now())?;
        core.shared_layers(spans, out)?;
        let chain_tasks = (exec_fine::CHAIN_DEPTH * exec_fine::CHAIN_TASKS) as f64;
        out.set(
            "runtime.flat.ns_per_task",
            fastest(&durations_ns(spans, "op.flat")) / exec_fine::FLAT_TASKS as f64,
        );
        out.set(
            "runtime.chain.ns_per_task",
            fastest(&durations_ns(spans, "op.chain")) / chain_tasks,
        );
        out.set("runtime.tiny.us_per_graph", fastest(&durations_ns(spans, "op.tiny")) * 1e-3);

        let mut failed = 0;
        let flat = &core.cases[0];
        let one_worker = Exec { workers: 1, ..flat.exec };
        let w1_ms = try_probe_ms(PROBE_REPS, || {
            let o = one_worker.run(&flat.graph, Engine::Threaded)?;
            failed += u64::from(!bitwise_eq(&o, &flat.reference));
            Ok(())
        })?;
        out.set("runtime.flat_w1.ns_per_task", w1_ms * 1e6 / exec_fine::FLAT_TASKS as f64);
        let single = sut::flat_graph(1);
        let spinup_ms =
            try_probe_ms(PROBE_REPS * 8, || flat.exec.run(&single, Engine::Threaded).map(drop))?;
        out.set("runtime.spinup_us", spinup_ms * 1e3);
        Ok(failed)
    }
}

// ---------------------------------------------------------------- exec_apps

/// The `exec_apps` workload.
pub struct Apps(Core);

/// Root span of each op of the round, in case order. Psirrfan, the
/// paper's headline application, runs twice on two cost draws: five
/// ops put the median op latency on one application, where four would
/// put it between two.
const APP_SPANS: [&str; 5] = ["op.psirrfan", "op.climate", "op.emu", "op.vortex", "op.psirrfan2"];

impl Apps {
    /// Cases, references and op list for `seed`, which draws every
    /// application's task costs and the order of the ops.
    fn core(seed: u64, epoch: Instant) -> Result<Core, String> {
        let mut apps = sut::paper_apps(exec_apps::SCALE_N, seed);
        apps.push(sut::psirrfan_app(exec_apps::SCALE_N, seed));
        let mut cases = Vec::new();
        for (i, app) in apps.into_iter().enumerate() {
            // One draw decides a whole application's irregular work, and
            // draws differ by a sixth. The kernel scale evens that out:
            // every draw hands an application the same number of steps,
            // spread over its tasks as the draw has it.
            let seed = seed.wrapping_add(i as u64);
            let steps_per_us = exec_apps::APP_STEPS / sut::drawn_cost_us(&app.split, seed)?;
            let exec = Exec { workers: WORKERS, seed, steps_per_us, own_cpus: true };
            cases.push(Case::new(APP_SPANS[i], app.split, Some(app.baseline), exec)?);
        }
        let mut op_list: Vec<usize> = (0..APP_SPANS.len()).collect();
        Rng::new(seed).shuffle(&mut op_list);
        Ok(Core::new(cases, op_list, epoch))
    }
}

impl Workload for Apps {
    const ROUNDS: usize = exec_apps::ROUNDS;

    fn setup(seed: u64, epoch: Instant) -> Result<Self, String> {
        host::pin(None)?;
        let mut core = seed_guard(|s| Apps::core(s, epoch), seed)?;
        core.warm_up()?;
        // The guard reads one worker's CPU time, not two workers': a
        // worker waiting for the other spins, and how long it waits is
        // as much the host's doing (a neighbour on one of the two
        // vCPUs) as the program's — two-worker readings of the same
        // input ranged from 0.76 to 1.05.
        let cpu0 = process_cpu_seconds();
        for &c in &core.op_list {
            let case = &core.cases[c];
            Exec { workers: 1, ..case.exec }.run(&case.graph, Engine::Threaded)?;
        }
        let kernel_share = core.seq_round_ms / ((process_cpu_seconds() - cpu0) * 1e3);
        core.guards = guard_verdict(
            kernel_share >= exec_apps::MIN_KERNEL_SHARE,
            format!(
                "kernel share {kernel_share:.3} with one worker (at least {})",
                exec_apps::MIN_KERNEL_SHARE
            ),
        )?;
        Ok(Apps(core))
    }

    fn ops_per_round(&self) -> usize {
        self.0.op_list.len()
    }

    fn guards(&self) -> &str {
        &self.0.guards
    }

    fn round(&mut self, round: u64, traced: bool, rec: &mut RoundRec) {
        self.0.round(round, traced, rec);
    }

    fn verify(&mut self, rec: &mut RoundRec) {
        self.0.verify(rec);
    }

    fn teardown(self) -> Tracer {
        self.0.tracer
    }

    fn layers(seed: u64, spans: &[Span], out: &mut Layers) -> Result<u64, String> {
        let core = Apps::core(seed, Instant::now())?;
        core.shared_layers(spans, out)?;
        let mut failed = 0u64;

        // The whole round on each other engine, outputs checked.
        let mut engine_ms = |engine: Engine| {
            try_probe_ms(PROBE_REPS, || {
                for case in &core.cases {
                    let o = case.exec.run(&case.graph, engine)?;
                    failed += u64::from(!bitwise_eq(&o, &case.reference));
                }
                Ok(())
            })
        };
        let split_ms = engine_ms(Engine::Threaded)?;
        out.set("runtime.dist_ms", engine_ms(Engine::Dist)?);
        out.set("runtime.async_ms", engine_ms(Engine::Async)?);
        let barrier_ms = try_probe_ms(PROBE_REPS, || {
            core.cases.iter().try_for_each(|case| {
                let barrier = case.baseline.as_ref().ok_or("an application has a barrier graph")?;
                case.exec.run(barrier, Engine::ThreadedBarrier).map(drop)
            })
        })?;
        out.set("runtime.split_over_baseline", barrier_ms / split_ms);
        let sim_ms = try_probe_ms(PROBE_REPS, || {
            core.cases.iter().try_for_each(|case| case.exec.simulate(&case.graph).map(drop))
        })?;
        out.set("machine.sim_ms", sim_ms);

        // Checkpointing, on psirrfan: snapshots on and no crash, then
        // one crash and the resume.
        let case = &core.cases[0];
        let plain_ms =
            try_probe_ms(PROBE_REPS, || case.exec.run(&case.graph, Engine::Threaded).map(drop))?;
        let dir = crate::out_dir().join(format!("ckpt-{}", std::process::id()));
        let mut snapshots = (0.0, 0.0);
        let mut checkpointed = |crash: bool| {
            try_probe_ms(3, || {
                // A stale snapshot would turn the run into a resume.
                let _ = std::fs::remove_dir_all(&dir);
                let o = case.exec.run_checkpointed(&case.graph, &dir, crash)?;
                failed += u64::from(!bitwise_eq(&o, &case.reference));
                if !crash {
                    snapshots = dir_census(&dir)?;
                }
                Ok(())
            })
        };
        let clean_ms = checkpointed(false)?;
        let crash_ms = checkpointed(true)?;
        let _ = std::fs::remove_dir_all(&dir);
        out.set("checkpoint.clean_over_plain", clean_ms / plain_ms);
        out.set("checkpoint.recovery_ms", crash_ms - plain_ms);
        out.set("checkpoint.snapshots", snapshots.0);
        out.set("checkpoint.snapshot_bytes", snapshots.1);
        Ok(failed)
    }
}

/// Files in `dir` and their total size in bytes.
fn dir_census(dir: &std::path::Path) -> Result<(f64, f64), String> {
    let mut census = (0.0, 0.0);
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry.and_then(|e| e.metadata()).map_err(|e| e.to_string())?;
        census = (census.0 + 1.0, census.1 + meta.len() as f64);
    }
    Ok(census)
}
