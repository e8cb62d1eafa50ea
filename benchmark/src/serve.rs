//! `serve_mix`: two tenants, each on its own connection and thread,
//! submit graphs to an in-process daemon over a unix socket and wait
//! for the results. Wire, session, cross-graph scheduling, per-job
//! spin-up and the socket are on the critical path here and in no
//! other workload. Small jobs set the median op latency (the fixed
//! cost of a job); wide jobs set throughput and memory (frame encode
//! and decode, bytes), so the two costs read separately.

use crate::gen::fnv1a;
use crate::harness::{probe_ms, try_probe_ms, RoundRec, Workload};
use crate::host;
use crate::metrics::Layers;
use crate::spec::{self, serve_mix as sm, PROBE_REPS, WORKERS};
use crate::stats::{fastest, median};
use crate::sut::{self, bitwise_eq, Conn, Engine, Exec, Frames, Graph, Outputs, Server};
use crate::trace::{durations_ns, Span, Tracer, NO_SPAN};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The three job kinds: root span, submit span, wait span.
const KINDS: [[&str; 3]; 3] = [
    ["op.small", "small.submit", "small.wait"],
    ["op.dag", "dag.submit", "dag.wait"],
    ["op.wide", "wide.submit", "wide.wait"],
];
const SMALL: usize = 0;
const DAG: usize = 1;
const WIDE: usize = 2;

/// Ops one tenant runs per round.
const TENANT_OPS: usize = sm::SMALL_JOBS + 2;

/// A job kind's graph and the outputs an independent single-thread
/// execution produced for it at set-up.
struct Job {
    graph: Graph,
    reference: Outputs,
}

/// The graphs of the mix, indexed by kind.
fn job_graphs(seed: u64) -> [Graph; 3] {
    [
        sut::flat_graph(sm::SMALL_TASKS),
        // The wire carries no iteration counts: the daemon runs a
        // pipeline group once.
        sut::as_served(&sut::psirrfan_app(sm::DAG_N, seed).split),
        sut::flat_graph(sm::WIDE_TASKS),
    ]
}

fn reference_exec(seed: u64) -> Exec {
    Exec { workers: WORKERS, seed, steps_per_us: sm::KERNEL_SCALE, own_cpus: false }
}

/// One tenant's op list: tenant 0 runs its wide job first and tenant 1
/// last, so a large and a small graph always share the pool.
fn tenant_ops(tenant: usize) -> Vec<usize> {
    let small = std::iter::repeat_n(SMALL, sm::SMALL_JOBS);
    if tenant == 0 {
        [WIDE, DAG].into_iter().chain(small).collect()
    } else {
        small.chain([DAG, WIDE]).collect()
    }
}

/// One tenant: its connection, its recorder, and what it submits.
struct Tenant {
    id: usize,
    conn: Conn,
    jobs: Arc<[Job; 3]>,
    seed: u64,
    tracer: Tracer,
}

impl Tenant {
    /// Runs this tenant's ops of one round: submit → wait → bitwise
    /// check, one at a time. `out[i]` gets op `i`'s latency.
    fn run_round(&mut self, round: u64, traced: bool, out: &mut [Option<u64>]) {
        self.tracer.set_on(traced);
        for (i, kind) in tenant_ops(self.id).into_iter().enumerate() {
            let op = round * (WORKERS * TENANT_OPS) as u64 + (self.id * TENANT_OPS + i) as u64;
            let [root, submit, wait] = KINDS[kind];
            let job = &self.jobs[kind];
            let t0 = Instant::now();
            let root = self.tracer.begin(root, NO_SPAN, op);
            let s = self.tracer.begin(submit, root, op);
            let id = self.conn.submit(&job.graph, self.seed);
            self.tracer.end(s);
            let s = self.tracer.begin(wait, root, op);
            let result = id.and_then(|id| self.conn.wait(id));
            self.tracer.end(s);
            let ok = result.is_ok_and(|o| bitwise_eq(&o, &job.reference));
            self.tracer.end(root);
            out[i] = ok.then(|| t0.elapsed().as_nanos() as u64);
        }
        self.tracer.set_on(false);
    }
}

/// What the main thread and the second tenant's thread share.
struct Shared {
    /// Both tenants start a round together …
    start: Barrier,
    /// … and the round ends when both are done.
    done: Barrier,
    /// `round << 2 | traced << 1 | quit`, set before `start`.
    command: AtomicU64,
    /// The second tenant's latencies of the round just run.
    latencies: Mutex<Vec<Option<u64>>>,
}

/// The `serve_mix` workload.
pub struct ServeMix {
    server: Server,
    first: Tenant,
    second: Option<JoinHandle<Tracer>>,
    shared: Arc<Shared>,
    guards: String,
}

static SOCKETS: AtomicU64 = AtomicU64::new(0);

/// A fresh socket path, relative to the working directory (`out/`): a
/// unix socket address holds only about 100 bytes.
fn socket_path() -> PathBuf {
    let n = SOCKETS.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(format!("d{}-{n}.sock", std::process::id()))
}

/// Hash of what the tenants submit for `seed`: the three graphs and the
/// cost-sampling seed every job carries.
fn input_hash(seed: u64) -> u64 {
    let words = job_graphs(seed).map(|g| g.hash());
    fnv1a(&[&words[..], &[seed]].concat().iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>())
}

fn jobs_for(seed: u64) -> Result<[Job; 3], String> {
    let exec = reference_exec(seed);
    let mut jobs = Vec::new();
    for graph in job_graphs(seed) {
        let reference = exec.run(&graph, Engine::Sequential)?;
        jobs.push(Job { graph, reference });
    }
    jobs.try_into().map_err(|_| "three job kinds".to_string())
}

fn start(seed: u64, epoch: Instant, socket: &Path) -> Result<ServeMix, String> {
    let jobs = Arc::new(jobs_for(seed)?);
    // The daemon, its workers and both tenants share one CPU: on two,
    // where the scheduler puts the threads a job crosses (tenant,
    // connection, workers) decides more of a round's time than anything
    // the program does (README.md, "The host").
    host::pin(Some(1))?;
    let server = Server::start(socket, WORKERS, sm::KERNEL_SCALE)?;
    let tenant = |id: usize| -> Result<Tenant, String> {
        let conn = Conn::open(socket, &format!("tenant{id}"))?;
        Ok(Tenant { id, conn, jobs: Arc::clone(&jobs), seed, tracer: Tracer::new(epoch) })
    };
    let first = tenant(0)?;
    let mut other = tenant(1)?;
    let shared = Arc::new(Shared {
        start: Barrier::new(WORKERS),
        done: Barrier::new(WORKERS),
        command: AtomicU64::new(0),
        latencies: Mutex::new(vec![None; TENANT_OPS]),
    });
    let theirs = Arc::clone(&shared);
    let second = std::thread::spawn(move || {
        let mut out = vec![None; TENANT_OPS];
        loop {
            theirs.start.wait();
            // The barrier orders this load after the main thread's store.
            let command = theirs.command.load(Ordering::SeqCst);
            if command & 1 == 1 {
                return other.tracer;
            }
            other.run_round(command >> 2, command & 2 == 2, &mut out);
            theirs.latencies.lock().expect("no holder of this lock can panic").clone_from(&out);
            theirs.done.wait();
        }
    });
    Ok(ServeMix { server, first, second: Some(second), shared, guards: String::new() })
}

impl ServeMix {
    /// Warm-up rounds and the wide-share guard.
    fn warm_up(&mut self) -> Result<(), String> {
        let mut rec = RoundRec { ops: vec![None; self.ops_per_round()] };
        let mut fastest = vec![f64::INFINITY; rec.ops.len()];
        for _ in 0..spec::WARMUP_ROUNDS {
            self.round(0, false, &mut rec);
            for (best, ns) in fastest.iter_mut().zip(&rec.ops) {
                let ns = ns.ok_or("a job failed or returned wrong bits during warm-up")?;
                *best = best.min(ns as f64);
            }
        }
        // Every job at its fastest, summed by kind.
        let mut by_kind = [0.0; 3];
        for tenant in 0..WORKERS {
            for (i, kind) in tenant_ops(tenant).into_iter().enumerate() {
                by_kind[kind] += fastest[tenant * TENANT_OPS + i];
            }
        }
        let share = by_kind[WIDE] / by_kind.iter().sum::<f64>();
        self.guards =
            format!("wide jobs take {share:.2} of the ops' time (within {:?})", sm::WIDE_SHARE);
        if !(sm::WIDE_SHARE.0..=sm::WIDE_SHARE.1).contains(&share) {
            return Err(format!(
                "guard: the workload no longer stresses what it claims: {}",
                self.guards
            ));
        }
        Ok(())
    }
}

impl Workload for ServeMix {
    const ROUNDS: usize = sm::ROUNDS;

    fn setup(seed: u64, epoch: Instant) -> Result<Self, String> {
        if input_hash(seed) != input_hash(seed) || input_hash(seed) == input_hash(seed ^ 1) {
            return Err("guard: the seed does not determine the input".to_string());
        }
        let mut wl = start(seed, epoch, &socket_path())?;
        match wl.warm_up() {
            Ok(()) => Ok(wl),
            Err(e) => {
                drop(wl.teardown());
                Err(e)
            }
        }
    }

    fn ops_per_round(&self) -> usize {
        WORKERS * TENANT_OPS
    }

    fn guards(&self) -> &str {
        &self.guards
    }

    fn round(&mut self, round: u64, traced: bool, rec: &mut RoundRec) {
        self.shared.command.store(round << 2 | u64::from(traced) << 1, Ordering::SeqCst);
        self.shared.start.wait();
        let (mine, theirs) = rec.ops.split_at_mut(TENANT_OPS);
        self.first.run_round(round, traced, mine);
        self.shared.done.wait();
        theirs.clone_from_slice(
            &self.shared.latencies.lock().expect("no holder of this lock can panic"),
        );
    }

    fn verify(&mut self, _rec: &mut RoundRec) {}

    fn teardown(mut self) -> Tracer {
        self.shared.command.store(1, Ordering::SeqCst);
        self.shared.start.wait();
        let second = self.second.take().expect("teardown runs once");
        let theirs = second.join().expect("the second tenant's thread does not panic");
        let ServeMix { server, first, .. } = self;
        let Tenant { conn, mut tracer, .. } = first;
        tracer.absorb(theirs);
        drop(conn);
        server.stop();
        tracer
    }

    fn layers(seed: u64, spans: &[Span], out: &mut Layers) -> Result<u64, String> {
        for (kind, metric) in
            [(SMALL, "serve.small.ms_p50"), (DAG, "serve.dag.ms_p50"), (WIDE, "serve.wide.ms_p50")]
        {
            out.set(metric, median(&durations_ns(spans, KINDS[kind][0])) * 1e-6);
        }
        for (span, metric) in [
            ("small.submit", "serve.small.submit_us"),
            ("small.wait", "serve.small.wait_us"),
            ("wide.submit", "serve.wide.submit_us"),
            ("wide.wait", "serve.wide.wait_us"),
        ] {
            out.set(metric, fastest(&durations_ns(spans, span)) * 1e-3);
        }

        // The codec on one round's own payloads, outside the socket.
        let jobs = jobs_for(seed)?;
        let round_kinds: Vec<usize> = (0..WORKERS).flat_map(tenant_ops).collect();
        let frames: Vec<Frames> =
            jobs.iter().map(|j| Frames::of_job(&j.graph, seed, &j.reference)).collect();
        let (mut req_bytes, mut resp_bytes) = (0, 0);
        for &k in &round_kinds {
            req_bytes += frames[k].bytes().0;
            resp_bytes += frames[k].bytes().1;
        }
        out.set("wire.req_bytes", req_bytes as f64);
        out.set("wire.resp_bytes", resp_bytes as f64);
        let encode_us = |f: &dyn Fn(&Frames)| {
            probe_ms(PROBE_REPS, || round_kinds.iter().for_each(|&k| f(&frames[k]))) * 1e3
        };
        let decode_us = |f: &dyn Fn(&Frames) -> Result<(), String>| {
            try_probe_ms(PROBE_REPS, || round_kinds.iter().try_for_each(|&k| f(&frames[k])))
                .map(|ms| ms * 1e3)
        };
        out.set("wire.req_encode_us", encode_us(&Frames::encode_request));
        out.set("wire.req_decode_us", decode_us(&Frames::decode_request)?);
        out.set("wire.resp_encode_us", encode_us(&Frames::encode_response));
        out.set("wire.resp_decode_us", decode_us(&Frames::decode_response)?);

        // The round's graphs straight through the executor, no daemon.
        let exec = reference_exec(seed);
        let mut failed = 0u64;
        let direct_ms = try_probe_ms(PROBE_REPS, || {
            for &k in &round_kinds {
                let o = exec.run(&jobs[k].graph, Engine::Threaded)?;
                failed += u64::from(!bitwise_eq(&o, &jobs[k].reference));
            }
            Ok(())
        })?;
        out.set("serve.direct_ms", direct_ms);
        if let Some(served_ms) = out.get("run.round_ms").filter(|ms| *ms > 0.0) {
            out.set("daemon.overhead_share", 1.0 - direct_ms / served_ms);
        }

        // Fixed per-job costs, each on its own.
        out.set("runtime.calibrate_ms", probe_ms(PROBE_REPS, sut::calibrate));
        let admits = 10_000;
        let admit_ms = probe_ms(PROBE_REPS, || (0..admits).for_each(sut::session_admit));
        out.set("session.admit_ns", admit_ms * 1e6 / admits as f64);
        let pair_ms = probe_ms(PROBE_REPS * 8, || {
            sut::sched_admit_pair(&jobs[SMALL].graph, &jobs[WIDE].graph, WORKERS);
        });
        out.set("sched.admit_us", pair_ms * 1e3);

        let socket = socket_path();
        let server = Server::start(&socket, WORKERS, sm::KERNEL_SCALE)?;
        let connect_ms = try_probe_ms(PROBE_REPS * 8, || Conn::open(&socket, "probe").map(drop));
        let rtt_ms = Conn::open(&socket, "probe")
            .and_then(|mut conn| try_probe_ms(PROBE_REPS * 40, || conn.ping()));
        server.stop();
        out.set("client.connect_us", connect_ms? * 1e3);
        out.set("wire.frame_rtt_us", rtt_ms? * 1e3);
        Ok(failed)
    }
}
