//! The adapter to the system under test — the **only** file of the
//! benchmark that names a type of the program.
//!
//! It calls the public entry points of the `orchestra-*` crates and
//! nothing else, builds every option struct with
//! `..Default::default()`, and reads only `.outputs` and wire results
//! from what comes back. The rest of the benchmark sees sources as
//! text, graphs as an opaque [`Graph`], and outputs as `Vec<Vec<f64>>`,
//! so a change to the program's report or option types is absorbed
//! here.

use crate::gen::{fnv1a, Rng};
use crate::trace::{SpanId, Tracer};
use orchestra_analysis::analyze_program;
use orchestra_apps::{climate, emu, psirrfan, vortex, AppWorkload, Scale};
use orchestra_core::{compile_source, graph_of_compiled, Compiled};
use orchestra_daemon::{
    graph_load_specs, AdmissionPolicy, Client, Daemon, DaemonConfig, GraphLoad, JobOptions,
    PoolScheduler, Request, Response, WireOutput, WireResult,
};
use orchestra_delirium::{DataAnno, DelirGraph, NodeKind};
use orchestra_descriptors::{descriptor_of_stmt, SymCtx};
use orchestra_lang::ast::{Program, Stmt};
use orchestra_lang::interp::{Env, Interp, Value};
use orchestra_lang::{check_program, parse_program, pretty_print};
use orchestra_machine::MachineConfig;
use orchestra_runtime::threaded::build_plan;
use orchestra_runtime::{
    execute_async, execute_graph, execute_graph_resumable, execute_sequential, execute_threaded,
    CheckpointSpec, ExecutorBackend, ExecutorOptions, FaultPlan, FaultTrigger, HostCalibration,
    PolicyKind, SpinKernel, TaskCtx, TaskKernel,
};
use orchestra_split::{pipeline_loop, split_computation, SplitOptions};
use std::collections::HashMap;
use std::path::Path;

/// Output buffers of one executed graph, in plan order.
pub type Outputs = Vec<Vec<f64>>;

/// Bitwise equality of two output sets (`==` on `f64` would call
/// `-0.0 == 0.0` and never match a NaN).
pub fn bitwise_eq(a: &Outputs, b: &Outputs) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

// ---------------------------------------------------------------- compile

/// The five fixed sources of the `compile` workload: the MF kernels of
/// the four paper applications and the paper's Figure 1, as text.
pub fn fixed_sources() -> Vec<String> {
    [psirrfan::kernel(), climate::kernel(), emu::kernel(), vortex::kernel()]
        .iter()
        .chain([&orchestra_lang::builder::figure1_program(24)])
        .map(pretty_print)
        .collect()
}

/// What one compile op produced, as far as the benchmark looks.
#[derive(Debug)]
pub struct CompileOut {
    /// The Delirium graph in its text form.
    pub delirium: String,
    /// Nodes of the Delirium graph.
    pub nodes: usize,
    /// Pieces the split and the pipelining produced.
    pub pieces: usize,
}

fn emit(c: &Compiled, tr: &mut Tracer, parent: SpanId, op: u64) -> Result<CompileOut, String> {
    let s = tr.begin("core.graph", parent, op);
    let (graph, _) = graph_of_compiled(c);
    tr.end(s);
    let s = tr.begin("delirium.print", parent, op);
    let delirium = orchestra_delirium::print(&graph, "g");
    tr.end(s);
    let s = tr.begin("delirium.parse", parent, op);
    let parsed = orchestra_delirium::parse(&delirium)
        .map_err(|e| format!("delirium parse: {e}"))
        .and_then(|(_, g)| g.validate().map_err(|e| format!("delirium validate: {e}")).map(|()| g));
    tr.end(s);
    let parsed = parsed?;
    if parsed.nodes.len() != graph.nodes.len() {
        return Err("delirium text lost nodes".to_string());
    }
    Ok(CompileOut { delirium, nodes: graph.nodes.len(), pieces: c.piece_names().len() })
}

/// One compile op as a user runs it: MF source → `compile_source` →
/// `graph_of_compiled` → Delirium text → parsed back and validated.
pub fn compile_op(
    src: &str,
    tr: &mut Tracer,
    parent: SpanId,
    op: u64,
) -> Result<CompileOut, String> {
    let s = tr.begin("core.compile", parent, op);
    let compiled = compile_source(src, &SplitOptions::default());
    tr.end(s);
    emit(&compiled.map_err(|e| e.to_string())?, tr, parent, op)
}

/// The same op with every pass called separately, in the composition
/// `orchestra_core::compile` uses, so each gets its own span. The
/// caller checks the Delirium text against [`compile_op`]'s.
pub fn compile_op_by_pass(
    src: &str,
    tr: &mut Tracer,
    parent: SpanId,
    op: u64,
) -> Result<CompileOut, String> {
    let opts = SplitOptions::default();
    let whole = tr.begin("core.compile", parent, op);

    let s = tr.begin("lang.parse", whole, op);
    let parsed = parse_program(src);
    tr.end(s);
    let original = parsed.map_err(|e| e.to_string())?;

    let s = tr.begin("lang.check", whole, op);
    let errors = check_program(&original);
    tr.end(s);
    if !errors.is_empty() {
        return Err(format!("semantic errors: {errors:?}"));
    }

    let s = tr.begin("analysis.analyze", whole, op);
    let analysis = analyze_program(&original);
    tr.end(s);

    let ref_idx = original.body.iter().position(|s| matches!(s, Stmt::Do { label: Some(_), .. }));
    let (mut pipeline, mut split) = (None, None);
    if let Some(ref_idx) = ref_idx {
        let ref_stmt = &original.body[ref_idx];
        let s = tr.begin("descriptors.build", whole, op);
        let ctx = SymCtx::from_program(&original);
        let d_ref = descriptor_of_stmt(ref_stmt, &ctx);
        tr.end(s);

        let s = tr.begin("split.pipeline", whole, op);
        pipeline = pipeline_loop(&original, ref_stmt, 1, &opts).filter(|p| p.exposed_concurrency());
        tr.end(s);

        let tail = &original.body[ref_idx + 1..];
        if !tail.is_empty() {
            let s = tr.begin("split.split", whole, op);
            split = Some(split_computation(&original, tail, &d_ref, &opts));
            tr.end(s);
        }
    }
    let mut transformed = original.clone();
    if let (Some(p), Some(i)) = (&pipeline, ref_idx) {
        transformed.decls.extend(p.new_decls.iter().cloned());
        transformed.body[i] = p.transformed.clone();
    }
    if let (Some(s), Some(i)) = (&split, ref_idx) {
        transformed.decls.extend(s.new_decls.iter().cloned());
        transformed.body.truncate(i + 1);
        transformed.body.extend(s.stmts());
    }
    let compiled = Compiled { original, transformed, pipeline, split, analysis };
    tr.end(whole);
    emit(&compiled, tr, parent, op)
}

/// Seeded inputs for every array `prog` declares: 0/1 for integer
/// arrays (they are masks), multiples of 0.25 in [-4, 4] for floats.
fn seeded_inputs(prog: &Program, rng: &mut Rng) -> Result<Env, String> {
    // One run on empty inputs yields every declared array at its shape.
    let shapes = Interp::new().run(prog, &Env::new()).map_err(|e| e.to_string())?;
    let declared: Vec<&str> =
        prog.decls.iter().filter(|d| d.is_array()).map(|d| d.name.as_str()).collect();
    let mut inputs = Env::new();
    for name in declared {
        let filled = match &shapes[name] {
            Value::IntArray { dims, data } => Value::IntArray {
                dims: dims.clone(),
                data: data.iter().map(|_| rng.below(2) as i64).collect(),
            },
            Value::FloatArray { dims, data } => Value::FloatArray {
                dims: dims.clone(),
                data: data.iter().map(|_| rng.below(33) as f64 * 0.25 - 4.0).collect(),
            },
            scalar => scalar.clone(),
        };
        inputs.insert(name.to_string(), filled);
    }
    Ok(inputs)
}

/// The independent oracle of the `compile` workload: the original and
/// the transformed program must leave every array of the original in
/// the same state under the reference interpreter, on seeded inputs.
/// (Replicated reductions may reassociate a sum, hence the tolerance.)
pub fn transformation_preserves_semantics(src: &str, seed: u64) -> Result<(), String> {
    let compiled = compile_source(src, &SplitOptions::default()).map_err(|e| e.to_string())?;
    let inputs = seeded_inputs(&compiled.original, &mut Rng::new(seed))?;
    let before = Interp::new().run(&compiled.original, &inputs).map_err(|e| e.to_string())?;
    let after = Interp::new()
        .run(&compiled.transformed, &inputs)
        .map_err(|e| format!("transformed program: {e}"))?;
    for (name, want) in before.iter().filter(|(_, v)| !matches!(v, Value::Int(_) | Value::Float(_)))
    {
        let same = match (want, after.get(name)) {
            (Value::FloatArray { data: a, .. }, Some(Value::FloatArray { data: b, .. })) => {
                a.len() == b.len()
                    && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= 1e-9 * (1.0 + x.abs()))
            }
            (a, Some(b)) => a == b,
            (_, None) => false,
        };
        if !same {
            return Err(format!("array `{name}` differs after transformation"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- graphs

/// A dataflow graph with the pipeline iteration counts it runs under.
#[derive(Debug, Clone)]
pub struct Graph {
    graph: DelirGraph,
    iters: HashMap<String, usize>,
}

impl Graph {
    fn plain(graph: DelirGraph) -> Self {
        Graph { graph, iters: HashMap::new() }
    }

    /// Hash of the graph's text form and its iteration counts.
    pub fn hash(&self) -> u64 {
        let mut iters: Vec<_> = self.iters.iter().collect();
        iters.sort();
        fnv1a(format!("{}{iters:?}", orchestra_delirium::print(&self.graph, "g")).as_bytes())
    }

    /// Tasks of the expanded plan, over all op instances.
    pub fn plan_tasks(&self) -> Result<usize, String> {
        let opts = ExecutorOptions { pipeline_iters: self.iters.clone(), ..Default::default() };
        let plan = build_plan(&self.graph, &opts).map_err(|e| e.to_string())?;
        Ok(plan.ops.iter().map(|o| o.tasks).sum())
    }
}

/// One data-parallel op of `tasks` near-uniform unit-cost tasks.
pub fn flat_graph(tasks: usize) -> Graph {
    let mut g = DelirGraph::new();
    g.add_node("F", NodeKind::DataParallel { tasks, mean_cost: 1.0, cv: 0.1 }, None);
    Graph::plain(g)
}

/// `depth` data-parallel ops of `tasks` tasks each, every one feeding
/// the next element-wise: the shape the streamed data plane serves.
pub fn chain_graph(depth: usize, tasks: usize) -> Graph {
    let mut g = DelirGraph::new();
    let mut prev = None;
    for k in 0..depth {
        let id = g.add_node(
            format!("C{k}"),
            NodeKind::DataParallel { tasks, mean_cost: 1.0, cv: 0.1 },
            None,
        );
        if let Some(p) = prev {
            g.add_edge(p, id, DataAnno::array("x", tasks as u64));
        }
        prev = Some(id);
    }
    Graph::plain(g)
}

/// One paper application: its orchestrated (split) graph and the
/// barrier graph a traditional compiler would emit.
#[derive(Debug, Clone)]
pub struct App {
    /// Split + pipelined graph.
    pub split: Graph,
    /// Barrier-per-phase graph.
    pub baseline: Graph,
}

fn app_of(w: AppWorkload) -> App {
    App {
        split: Graph { graph: w.split, iters: w.pipeline_iters.clone() },
        baseline: Graph { graph: w.baseline, iters: w.pipeline_iters },
    }
}

/// Psirrfan, the paper's headline application, at size `n`.
pub fn psirrfan_app(n: usize, seed: u64) -> App {
    app_of(psirrfan::workload(&Scale { n, seed }))
}

/// The four paper applications at size `n`.
pub fn paper_apps(n: usize, seed: u64) -> Vec<App> {
    let scale = Scale { n, seed };
    vec![
        app_of(psirrfan::workload(&scale)),
        app_of(climate::workload(&scale)),
        app_of(emu::workload(&scale)),
        app_of(vortex::workload(&scale)),
    ]
}

// ---------------------------------------------------------------- execution

/// Which executor runs a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Shared-queue worker pool (`execute_threaded`).
    Threaded,
    /// The same graph with a barrier after every piece.
    ThreadedBarrier,
    /// Distributed TAPER home queues.
    Dist,
    /// Cooperative futures executor.
    Async,
    /// Single-thread reference (`execute_sequential`).
    Sequential,
}

/// How a graph is executed: everything the benchmark chooses.
#[derive(Debug, Clone, Copy)]
pub struct Exec {
    /// Worker (or driver) threads.
    pub workers: usize,
    /// Cost-sampling seed.
    pub seed: u64,
    /// `SpinKernel` arithmetic steps per simulated µs.
    pub steps_per_us: f64,
    /// Pin each worker to a CPU of its own. Without it workers run
    /// wherever the calling thread may.
    pub own_cpus: bool,
}

impl Exec {
    fn options(&self, g: &Graph, engine: Engine) -> ExecutorOptions {
        ExecutorOptions {
            policy: PolicyKind::Taper,
            pin_workers: self.own_cpus,
            pipeline_iters: g.iters.clone(),
            seed: self.seed,
            threads: self.workers,
            drivers: self.workers,
            pipeline_overlap: engine != Engine::ThreadedBarrier,
            backend: match engine {
                Engine::Dist => ExecutorBackend::ThreadedDist,
                Engine::Async => ExecutorBackend::Async,
                _ => ExecutorBackend::Threaded,
            },
            ..Default::default()
        }
    }

    /// Runs `g` on `engine` and returns its output buffers.
    pub fn run(&self, g: &Graph, engine: Engine) -> Result<Outputs, String> {
        let opts = self.options(g, engine);
        let kernel = SpinKernel::with_scale(self.steps_per_us);
        match engine {
            Engine::Sequential => execute_sequential(&g.graph, &opts, &kernel)
                .map(|r| r.outputs)
                .map_err(|e| e.to_string()),
            Engine::Async => execute_async(&g.graph, &opts, &kernel)
                .map(|r| r.outputs)
                .map_err(|e| e.to_string()),
            _ => execute_threaded(&g.graph, &opts, &kernel)
                .map(|r| r.outputs)
                .map_err(|e| e.to_string()),
        }
    }

    /// Expands `g` into its op-instance plan and drops it.
    pub fn plan(&self, g: &Graph) -> Result<(), String> {
        build_plan(&g.graph, &self.options(g, Engine::Threaded))
            .map(drop)
            .map_err(|e| e.to_string())
    }

    /// Runs `g` on the simulated nCUBE-2 with as many processors as
    /// workers; returns the simulated finish time (µs).
    pub fn simulate(&self, g: &Graph) -> Result<f64, String> {
        let opts = ExecutorOptions {
            backend: ExecutorBackend::Simulated,
            ..self.options(g, Engine::Threaded)
        };
        execute_graph(&g.graph, &MachineConfig::ncube2(self.workers), &opts)
            .map(|r| r.finish)
            .map_err(|e| e.to_string())
    }

    /// Runs `g` with snapshots written under `dir`. With `crash`, one
    /// worker is killed in crash mode after its 40th claim and the run
    /// resumes from the newest snapshot.
    pub fn run_checkpointed(&self, g: &Graph, dir: &Path, crash: bool) -> Result<Outputs, String> {
        let opts = ExecutorOptions {
            checkpoint: Some(CheckpointSpec::new(dir)),
            faults: crash.then(|| FaultPlan::crash(0, FaultTrigger::AfterClaims(40))),
            ..self.options(g, Engine::Threaded)
        };
        let kernel = SpinKernel::with_scale(self.steps_per_us);
        execute_graph_resumable(&g.graph, &opts, &kernel)
            .map(|r| r.outputs)
            .map_err(|e| e.to_string())
    }
}

/// A kernel that returns the cost drawn for a task instead of spending it.
struct DrawnCost;

impl TaskKernel for DrawnCost {
    fn run_task(&self, ctx: &TaskCtx<'_>) -> f64 {
        ctx.cost_hint
    }
}

/// The simulated µs the executor draws for all tasks of `g` under
/// cost-sampling seed `seed`: a count, not a measurement.
pub fn drawn_cost_us(g: &Graph, seed: u64) -> Result<f64, String> {
    let opts = ExecutorOptions { pipeline_iters: g.iters.clone(), seed, ..Default::default() };
    execute_sequential(&g.graph, &opts, &DrawnCost)
        .map(|r| r.outputs.iter().flatten().sum())
        .map_err(|e| e.to_string())
}

/// Measures the host calibration the daemon measures at start-up.
pub fn calibrate() {
    std::hint::black_box(HostCalibration::measure());
}

// ---------------------------------------------------------------- serving

/// An in-process `orchestrad` on a unix socket.
pub struct Server(Daemon);

impl Server {
    /// Starts a daemon with `workers` pool workers, a measured host
    /// calibration and the given kernel scale.
    pub fn start(socket: &Path, workers: usize, kernel_scale: f64) -> Result<Server, String> {
        Daemon::start(DaemonConfig {
            socket: socket.to_path_buf(),
            workers,
            kernel_scale,
            measure_calibration: true,
            ..Default::default()
        })
        .map(Server)
        .map_err(|e| format!("daemon start: {e}"))
    }

    /// Drains and stops the daemon, joining its accept thread.
    pub fn stop(mut self) {
        self.0.shutdown();
    }
}

/// One tenant connection.
pub struct Conn(Client);

impl Conn {
    /// Connects as `tenant` with weight 1.
    pub fn open(socket: &Path, tenant: &str) -> Result<Conn, String> {
        Client::connect(socket, tenant, 1.0).map(Conn).map_err(|e| e.to_string())
    }

    /// Submits `g`; returns the job id.
    pub fn submit(&mut self, g: &Graph, seed: u64) -> Result<u64, String> {
        self.0.submit(&g.graph, "g", &job_options(seed)).map_err(|e| e.to_string())
    }

    /// Waits for a job and returns its output buffers.
    pub fn wait(&mut self, job: u64) -> Result<Outputs, String> {
        self.0
            .wait(job)
            .map(|r| r.outputs.into_iter().map(|o| o.values).collect())
            .map_err(|e| e.to_string())
    }

    /// One `stats` request and its reply: the smallest frame round trip.
    pub fn ping(&mut self) -> Result<(), String> {
        self.0.stats().map(drop).map_err(|e| e.to_string())
    }
}

fn job_options(seed: u64) -> JobOptions {
    JobOptions { seed, ..Default::default() }
}

/// The daemon serves pipeline groups at one iteration: the wire carries
/// the graph text only. The reference for a served graph is therefore
/// the graph without its iteration counts.
pub fn as_served(g: &Graph) -> Graph {
    Graph::plain(g.graph.clone())
}

/// The frames one job moves, for timing the codec outside the socket.
pub struct Frames {
    request: Request,
    request_text: String,
    response: Response,
    response_text: String,
}

impl Frames {
    /// The submit frame for `g` and the result frame carrying `outputs`.
    pub fn of_job(g: &Graph, seed: u64, outputs: &Outputs) -> Frames {
        let request = Request::Submit {
            opts: job_options(seed),
            graph: orchestra_delirium::print(&g.graph, "g"),
        };
        let response = Response::Result(WireResult {
            job: 1,
            wall_us: 1.0,
            attempts: 1,
            resumed_tasks: 0,
            outputs: outputs
                .iter()
                .enumerate()
                .map(|(i, values)| WireOutput { name: format!("op{i}"), values: values.clone() })
                .collect(),
        });
        Frames {
            request_text: request.encode(),
            response_text: response.encode(),
            request,
            response,
        }
    }

    /// Bytes of the request and the response payload.
    pub fn bytes(&self) -> (usize, usize) {
        (self.request_text.len(), self.response_text.len())
    }

    /// Encodes the request once.
    pub fn encode_request(&self) {
        std::hint::black_box(self.request.encode());
    }

    /// Decodes the request once.
    pub fn decode_request(&self) -> Result<(), String> {
        Request::decode(&self.request_text).map(|r| drop(std::hint::black_box(r)))
    }

    /// Encodes the response once.
    pub fn encode_response(&self) {
        std::hint::black_box(self.response.encode());
    }

    /// Decodes the response once.
    pub fn decode_response(&self) -> Result<(), String> {
        Response::decode(&self.response_text).map(|r| drop(std::hint::black_box(r)))
    }
}

/// One admission decision under the default policy.
pub fn session_admit(tasks: usize) {
    std::hint::black_box(AdmissionPolicy::default().admit(tasks, 1, tasks));
}

/// Admits `a` then `b` to a fresh two-worker pool scheduler and
/// completes both: the cross-graph equalizer's work per job pair.
pub fn sched_admit_pair(a: &Graph, b: &Graph, workers: usize) {
    let mut sched = PoolScheduler::new(workers);
    for (job, g) in [(1u64, a), (2, b)] {
        let specs = graph_load_specs(&g.graph, PolicyKind::Taper);
        std::hint::black_box(sched.admit(GraphLoad { job, weight: 1.0, specs }));
    }
    sched.complete(1);
    sched.complete(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwise_equality_tells_zero_signs_apart_and_matches_nan() {
        let a: Outputs = vec![vec![0.0, f64::NAN]];
        assert!(bitwise_eq(&a, &vec![vec![0.0, f64::NAN]]));
        assert!(!bitwise_eq(&a, &vec![vec![-0.0, f64::NAN]]));
        assert!(!bitwise_eq(&a, &vec![vec![0.0]]));
        assert!(!bitwise_eq(&a, &vec![]));
    }

    #[test]
    fn threaded_and_sequential_runs_agree_on_every_shape() {
        let exec = Exec { workers: 2, seed: 5, steps_per_us: 1.0, own_cpus: false };
        let graphs = [flat_graph(1000), chain_graph(4, 300), as_served(&psirrfan_app(64, 5).split)];
        for g in graphs.iter().chain([&psirrfan_app(64, 5).split]) {
            let reference = exec.run(g, Engine::Sequential).unwrap();
            for engine in [Engine::Threaded, Engine::Dist, Engine::Async] {
                assert!(bitwise_eq(&exec.run(g, engine).unwrap(), &reference), "{engine:?}");
            }
        }
    }
}
