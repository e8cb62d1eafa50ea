//! `orchestrad`: the long-lived graph-serving daemon.
//!
//! One process owns one shared worker pool and serves many tenants
//! over a unix-domain socket. Each connection is a session (`hello`
//! names the tenant and its scheduling weight); each `submit` carries
//! a Delirium graph that passes admission control, receives a worker
//! grant from the cross-graph equalizer
//! ([`PoolScheduler`]), and executes on
//! a real backend under a per-job
//! [`CancelToken`]. The pool's threads
//! are the daemon's own [`Crew`]: they persist across jobs, parked,
//! and each job is lent its runner and as many workers as its grant —
//! a job costs wake-ups, not thread creation. Jobs submitted
//! with a checkpoint directory run under
//! [`execute_graph_resumable`],
//! so a worker-pool crash mid-job restores from the latest snapshot
//! instead of losing the tenant's work.
//!
//! Shutdown is a *drain*: new submissions are refused, admitted work
//! (running and queued) finishes, and only then does the listener
//! close. A tenant that cancels — or whose deadline expires — frees
//! its worker partition at the next chunk-claim boundary, and the
//! scheduler immediately re-equalizes the freed workers to the
//! surviving graphs.

use crate::sched::{graph_load_specs, graph_tasks, GraphLoad, PoolScheduler};
use crate::session::{Admission, AdmissionPolicy, Tenant};
use crate::wire::{
    read_frame, write_frame, JobOptions, JobRow, Request, Response, WireOutput, WireResult,
};
use orchestra_runtime::executor::ExecutorOptions;
use orchestra_runtime::threaded::ExecutorBackend;
use orchestra_runtime::{
    execute_graph_resumable, CancelToken, CheckpointSpec, Crew, FaultPlan, HostCalibration,
    RunError, SpinKernel, TaskKernel,
};
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufReader};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// The kernel every served graph's tasks run.
type ServedKernel = Box<dyn TaskKernel + Send + Sync>;

/// How the daemon is sized and where it listens.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix-domain socket path. A stale file from a dead daemon is
    /// removed on startup.
    pub socket: PathBuf,
    /// Shared worker pool size partitioned across graphs
    /// (0 = the host's available parallelism): the number of workers
    /// the grants of all running jobs are meant to add up to. The
    /// daemon's threads persist and are lent to jobs — one per granted
    /// worker plus one runner per running job — but are created as
    /// jobs first need them, not `workers` of them at start-up.
    pub workers: usize,
    /// Admission limits.
    pub admission: AdmissionPolicy,
    /// Spin-kernel scale for served graphs (1.0 = cost hints are µs).
    pub kernel_scale: f64,
    /// Measure the host calibration at startup instead of using the
    /// nominal constants (slower start, sharper estimates).
    pub measure_calibration: bool,
    /// Test hook: a fault plan injected into the *next* submitted job,
    /// consumed once. This is how the recovery tests crash the worker
    /// pool under a checkpointed tenant graph without reaching into
    /// the daemon's internals.
    pub chaos: Option<FaultPlan>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            socket: std::env::temp_dir().join("orchestrad.sock"),
            workers: 0,
            admission: AdmissionPolicy::default(),
            kernel_scale: 1.0,
            measure_calibration: false,
            chaos: None,
        }
    }
}

/// Where a live job is.
#[derive(Clone, Copy, PartialEq)]
enum Live {
    Queued,
    Running,
}

/// A live job's full record.
struct Job {
    /// Its session's tenant, one `Arc` per session.
    tenant: Arc<Tenant>,
    /// The parsed graph, until the job's runner takes it.
    graph: Option<orchestra_delirium::DelirGraph>,
    opts: JobOptions,
    tasks: usize,
    submitted: Instant,
    token: CancelToken,
    state: Live,
}

/// How a job ended: what `wait` needs, and the result only until the
/// first `wait` takes it.
#[derive(Debug)]
enum End {
    Done(Box<WireResult>),
    /// Done, and a `wait` holds the result while it writes its
    /// response; other waiters block until that delivery settles.
    Delivering,
    /// Done, and the result delivered.
    Delivered,
    Failed(String),
    Cancelled,
}

/// An ended job as the table keeps it for good: its session's tenant,
/// shared with every other job of the session, and how it ended — 32
/// bytes, where the live record's options, token and emptied graph slot
/// are gone with it.
struct Ended {
    tenant: Arc<Tenant>,
    end: End,
}

#[derive(Default)]
struct State {
    /// Queued and running jobs.
    jobs: BTreeMap<u64, Job>,
    /// Ended jobs, indexed by id: ids are handed out one after the
    /// other, so the slots are dense; a job still in `jobs` has none
    /// filled.
    ended: Vec<Option<Ended>>,
    queue: VecDeque<u64>,
    running: usize,
    staged_tasks: usize,
    draining: bool,
}

impl State {
    /// The entry of `job` once it has ended.
    fn ended(&mut self, job: u64) -> Option<&mut Ended> {
        let slot = usize::try_from(job).ok().and_then(|i| self.ended.get_mut(i))?;
        slot.as_mut()
    }

    /// Moves the live `job` to its ended entry — its full record is
    /// dropped — and returns the tasks it had staged.
    ///
    /// # Panics
    ///
    /// Panics, before any write, if `job` is not live.
    fn retire(&mut self, job: u64, end: End) -> usize {
        let i = usize::try_from(job).expect("job ids are counted in memory");
        let Job { tenant, tasks, .. } = self.jobs.remove(&job).expect("a live job ends once");
        if self.ended.len() <= i {
            self.ended.resize_with(i + 1, || None);
        }
        self.ended[i] = Some(Ended { tenant, end });
        tasks
    }
}

struct Inner {
    socket: PathBuf,
    admission: AdmissionPolicy,
    workers: usize,
    kernel: ServedKernel,
    /// The daemon's threads: job runners and the workers lent to runs.
    crew: Crew,
    state: Mutex<State>,
    changed: Condvar,
    sched: Mutex<PoolScheduler>,
    chaos: Mutex<Option<FaultPlan>>,
    next_job: AtomicU64,
    next_session: AtomicU64,
    stop: AtomicBool,
}

/// A running daemon: hold it to keep serving, [`shutdown`] it (or send
/// the wire `shutdown` request) to drain and exit.
///
/// [`shutdown`]: Daemon::shutdown
pub struct Daemon {
    inner: Arc<Inner>,
    accept: Option<thread::JoinHandle<()>>,
}

impl Daemon {
    /// Binds the socket and starts serving in background threads.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn start(cfg: DaemonConfig) -> io::Result<Daemon> {
        let kernel = SpinKernel::with_scale(cfg.kernel_scale);
        Daemon::start_serving(cfg, Box::new(kernel))
    }

    /// [`start`](Daemon::start) with the kernel served graphs run, so a
    /// test can serve one that misbehaves.
    fn start_serving(cfg: DaemonConfig, kernel: ServedKernel) -> io::Result<Daemon> {
        let workers = if cfg.workers == 0 {
            thread::available_parallelism().map_or(4, std::num::NonZero::get)
        } else {
            cfg.workers
        };
        let cal = if cfg.measure_calibration {
            HostCalibration::measure()
        } else {
            HostCalibration::with_overhead(0.05)
        };
        let _ = std::fs::remove_file(&cfg.socket);
        let listener = UnixListener::bind(&cfg.socket)?;
        let inner = Arc::new(Inner {
            socket: cfg.socket,
            admission: cfg.admission,
            workers,
            kernel,
            crew: Crew::new(),
            state: Mutex::new(State::default()),
            changed: Condvar::new(),
            sched: Mutex::new(PoolScheduler::with_calibration(workers, cal)),
            chaos: Mutex::new(cfg.chaos),
            next_job: AtomicU64::new(1),
            next_session: AtomicU64::new(1),
            stop: AtomicBool::new(false),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = thread::spawn(move || accept_loop(&listener, &accept_inner));
        Ok(Daemon { inner, accept: Some(accept) })
    }

    /// The socket path clients connect to.
    pub fn socket(&self) -> &std::path::Path {
        &self.inner.socket
    }

    /// Size of the shared worker pool: the worker count the scheduler
    /// partitions into grants, not a count of OS threads (those are
    /// lent from a crew that grows on demand and never shrinks).
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Blocks until a client's wire `shutdown` request drains the
    /// daemon, then removes the socket. The server-CLI main loop.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.inner.socket);
    }

    /// Drains and stops: refuses new submissions, waits for admitted
    /// work to finish, closes the listener. Idempotent.
    pub fn shutdown(&mut self) {
        drain(&self.inner);
        if let Some(h) = self.accept.take() {
            stop_accepting(&self.inner);
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.inner.socket);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The guard of a `lock()` or a `Condvar::wait`, whether or not a
/// thread unwound while it held the lock. Poison only says that one
/// did; whether the data can still be used is for the code to know, and
/// here it can. Every write under `state`, `sched` and `chaos` is one
/// field assignment or one call into a std collection, and none of
/// those unwinds half done. What can unwind with a guard held is: the
/// `expect`s at the head of `run_job` and of `finish`'s `retire`, which
/// come before their section's first write; and an
/// overflow check on the counters in a debug build, which fires instead
/// of the write. (Runner threads are created after the lock is
/// released, and a refused one fails its job.) At each of them every job
/// is either live or ended and `queue` names live jobs only, so
/// the next request reads a table it can answer from. What such an
/// unwind costs is the accounting of the one job whose section it cut
/// short — a `running` slot or staged tasks stay booked, so admission
/// queues sooner — where passing the poison on costs every session:
/// each connection thread would panic at its next request.
fn held<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Blocks until every admitted (running or queued) job is terminal.
fn drain(inner: &Inner) {
    let mut st = held(inner.state.lock());
    st.draining = true;
    while st.running > 0 || !st.queue.is_empty() {
        st = held(inner.changed.wait(st));
    }
}

/// Sets `stop` and makes the accept loop look at it: the loop blocks
/// in `accept`, so it is woken by one connection to the daemon's own
/// socket (refused, harmlessly, if the loop has already gone).
fn stop_accepting(inner: &Inner) {
    inner.stop.store(true, Ordering::SeqCst);
    let _ = UnixStream::connect(&inner.socket);
}

/// How long the accept loop waits before it calls `accept` again after
/// an error of `kind`. An interrupted call or a connection that went
/// away in the backlog says nothing about the next one; anything else
/// (no descriptor left, no memory) holds until some connection closes,
/// and retrying at once would spin.
fn accept_backoff(kind: io::ErrorKind) -> Duration {
    match kind {
        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted => Duration::ZERO,
        _ => Duration::from_millis(10),
    }
}

fn accept_loop(listener: &UnixListener, inner: &Arc<Inner>) {
    loop {
        let accepted = listener.accept();
        // Checked after the accept, not before: the connection that
        // arrives once `stop` is set is the wake-up call (or a client
        // too late to be served), and is dropped.
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let conn_inner = Arc::clone(inner);
                let spawned = thread::Builder::new().spawn(move || {
                    let _ = serve_connection(stream, &conn_inner);
                });
                // `thread::spawn` would panic here and end the loop.
                // A thread the OS refuses (EAGAIN under a thread limit)
                // costs this connection — the stream is dropped with
                // the closure — and, like a descriptor limit, holds
                // until something exits.
                if let Err(e) = spawned {
                    thread::sleep(accept_backoff(e.kind()));
                }
            }
            // Only `stop` ends the loop: a daemon that cannot take this
            // connection can still take the next.
            Err(e) => thread::sleep(accept_backoff(e.kind())),
        }
    }
}

/// One client connection: the stream, buffered for reading, and the
/// request and the response frame, one buffer each, reused from request
/// to request.
struct Connection {
    reader: BufReader<UnixStream>,
    inbox: Vec<u8>,
    outbox: Vec<u8>,
}

/// The most capacity a connection's frame buffer keeps between
/// requests: above every frame `serve_mix` sends (a wide job's result
/// is 1.2 MB), far below the 2 × 16 MiB one rare frame could pin for
/// the connection's life.
const KEPT_FRAME_BYTES: usize = 4 << 20;

impl Connection {
    /// The next request, `None` once the peer has hung up. A frame that
    /// does not decode is the `Err` the peer is answered with.
    fn receive(&mut self) -> io::Result<Option<Result<Request, String>>> {
        Ok(read_frame(&mut self.reader, &mut self.inbox)?.map(Request::decode_bytes))
    }

    /// Answers the request last received — after which neither buffer
    /// holds anything, and a larger one than [`KEPT_FRAME_BYTES`] is
    /// given back.
    fn send(&mut self, resp: &Response) -> io::Result<()> {
        resp.encode_into(&mut self.outbox);
        let written = write_frame(self.reader.get_mut(), &self.outbox);
        for buf in [&mut self.inbox, &mut self.outbox] {
            if buf.capacity() > KEPT_FRAME_BYTES {
                *buf = Vec::new();
            }
        }
        written
    }
}

/// Handles one client connection: a `hello` handshake, then a request
/// loop until the peer hangs up (or a `shutdown` drains the daemon).
fn serve_connection(stream: UnixStream, inner: &Arc<Inner>) -> io::Result<()> {
    let mut conn =
        Connection { reader: BufReader::new(stream), inbox: Vec::new(), outbox: Vec::new() };
    let tenant = match handshake(&mut conn, inner)? {
        Some(t) => t,
        None => return Ok(()),
    };
    while let Some(request) = conn.receive()? {
        let resp = match request {
            Err(msg) => Response::Err { msg },
            Ok(Request::Hello { .. }) => {
                Response::Err { msg: "session already established".to_string() }
            }
            Ok(Request::Submit { opts, graph }) => submit(inner, &tenant, opts, &graph),
            Ok(Request::Wait { job }) => {
                // A result is delivered at most once, and only by a
                // response that was written whole: if the peer is gone
                // the result goes back to the table for a retry.
                let resp = wait(inner, job);
                let written = conn.send(&resp);
                if let Response::Result(result) = resp {
                    settle(inner, job, written.is_err().then_some(result));
                }
                written?;
                continue;
            }
            Ok(Request::Cancel { job }) => cancel(inner, job),
            Ok(Request::Stats) => stats(inner),
            Ok(Request::Shutdown) => {
                drain(inner);
                let written = conn.send(&Response::Drained);
                stop_accepting(inner);
                return written;
            }
        };
        conn.send(&resp)?;
    }
    Ok(())
}

fn handshake(conn: &mut Connection, inner: &Inner) -> io::Result<Option<Arc<Tenant>>> {
    let Some(request) = conn.receive()? else {
        return Ok(None);
    };
    match request {
        Ok(Request::Hello { tenant, weight }) => {
            let session = inner.next_session.fetch_add(1, Ordering::Relaxed);
            let t = Tenant { session, name: tenant, weight };
            conn.send(&Response::Hello { session, workers: inner.workers })?;
            Ok(Some(Arc::new(t)))
        }
        Ok(_) => {
            conn.send(&Response::Err { msg: "first request must be hello".to_string() })?;
            Ok(None)
        }
        Err(msg) => {
            conn.send(&Response::Err { msg })?;
            Ok(None)
        }
    }
}

fn submit(
    inner: &Arc<Inner>,
    tenant: &Arc<Tenant>,
    opts: JobOptions,
    graph_text: &str,
) -> Response {
    if opts.backend == ExecutorBackend::Simulated {
        return Response::Err {
            msg: "the simulator backend is not served; use threaded, dist, or async".to_string(),
        };
    }
    let (_, graph) = match orchestra_delirium::text::parse(graph_text) {
        Ok(g) => g,
        Err(e) => return Response::Err { msg: format!("graph parse error: {e}") },
    };
    if let Err(e) = graph.validate() {
        return Response::Err { msg: format!("invalid graph: {e}") };
    }
    let tasks = graph_tasks(&graph);
    let mut st = held(inner.state.lock());
    if st.draining {
        return Response::Err { msg: "daemon is draining".to_string() };
    }
    let verdict = inner.admission.admit(tasks, st.running, st.staged_tasks);
    let state = match verdict {
        Admission::Reject(msg) => return Response::Err { msg },
        Admission::Run => Live::Running,
        Admission::Queue => Live::Queued,
    };
    let id = inner.next_job.fetch_add(1, Ordering::Relaxed);
    let run_now = state == Live::Running;
    st.staged_tasks += tasks;
    if run_now {
        st.running += 1;
    } else {
        st.queue.push_back(id);
    }
    st.jobs.insert(
        id,
        Job {
            tenant: Arc::clone(tenant),
            graph: Some(graph),
            opts,
            tasks,
            submitted: Instant::now(),
            token: CancelToken::new(),
            state,
        },
    );
    drop(st);
    if run_now {
        start_runner(inner, id);
    }
    Response::Submitted { job: id }
}

fn wait(inner: &Inner, job: u64) -> Response {
    let mut st = held(inner.state.lock());
    loop {
        if st.jobs.contains_key(&job) {
            st = held(inner.changed.wait(st));
            continue;
        }
        let Some(ended) = st.ended(job) else {
            return Response::Err { msg: format!("no such job {job}") };
        };
        let msg = match &ended.end {
            // Looked at again once the delivery settles: the result is
            // then either delivered or back for this waiter to take.
            End::Delivering => {
                st = held(inner.changed.wait(st));
                continue;
            }
            End::Done(_) => {
                // Moved out, not cloned: the state lock is held for a
                // swap, not for a copy of a wide job's values. The
                // caller `settle`s the delivery once it has written.
                let End::Done(result) = std::mem::replace(&mut ended.end, End::Delivering) else {
                    unreachable!("matched Done above");
                };
                return Response::Result(*result);
            }
            End::Delivered => format!("job {job}: result already delivered"),
            End::Failed(msg) => msg.clone(),
            End::Cancelled => RunError::Cancelled.to_string(),
        };
        return Response::Err { msg };
    }
}

/// Ends the delivery a `wait` began: the job keeps only that it was
/// delivered, or gets its `undelivered` result back when the response
/// could not be written. Either way blocked waiters look again.
fn settle(inner: &Inner, job: u64, undelivered: Option<WireResult>) {
    let mut st = held(inner.state.lock());
    if let Some(ended) = st.ended(job) {
        ended.end = undelivered.map_or(End::Delivered, |r| End::Done(Box::new(r)));
    }
    drop(st);
    inner.changed.notify_all();
}

fn cancel(inner: &Inner, job: u64) -> Response {
    let mut st = held(inner.state.lock());
    let Some(j) = st.jobs.get_mut(&job) else {
        // An ended job has nothing left to cancel.
        return match st.ended(job) {
            Some(_) => Response::Cancelled { job },
            None => Response::Err { msg: format!("no such job {job}") },
        };
    };
    j.token.cancel();
    if j.state == Live::Queued {
        // Never started: retire it here — there is no runner to do it.
        let tasks = st.retire(job, End::Cancelled);
        st.queue.retain(|&q| q != job);
        st.staged_tasks -= tasks;
        inner.changed.notify_all();
    }
    Response::Cancelled { job }
}

fn stats(inner: &Inner) -> Response {
    let st = held(inner.state.lock());
    let sched = held(inner.sched.lock());
    let row = |job: u64, tenant: &Tenant, state: &str| JobRow {
        job,
        tenant: tenant.name.clone(),
        state: state.to_string(),
        grant: sched.grant(job).unwrap_or(0),
    };
    let ended = (0u64..).zip(&st.ended).filter_map(|(id, e)| {
        let Ended { tenant, end } = e.as_ref()?;
        let state = match end {
            End::Done(_) | End::Delivering | End::Delivered => "done",
            End::Failed(_) => "failed",
            End::Cancelled => "cancelled",
        };
        Some(row(id, tenant, state))
    });
    let live = st.jobs.iter().map(|(&id, j)| {
        row(id, &j.tenant, if j.state == Live::Queued { "queued" } else { "running" })
    });
    let mut jobs: Vec<JobRow> = ended.chain(live).collect();
    // Two runs already in id order: the stable sort merges them.
    jobs.sort_by_key(|r| r.job);
    Response::Stats { workers: inner.workers, jobs }
}

/// Starts the runner of a job already booked `Running`, outside the
/// job-table lock.
fn start_runner(inner: &Arc<Inner>, job: u64) {
    let runner = Arc::clone(inner);
    started(inner, job, inner.crew.spawn(move || run_job(&runner, job)));
}

/// A runner the OS refused a thread (`EAGAIN` under a thread limit) will
/// never end its job, so the job ends here, `Failed` with the error.
fn started(inner: &Arc<Inner>, job: u64, spawned: io::Result<()>) {
    if let Err(e) = spawned {
        finish(inner, job, End::Failed(format!("job could not start: {e}")));
    }
}

/// What a caught panic said, for the job's `Failed` state.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(no message)")
}

/// Executes one admitted job end to end: grant from the cross-graph
/// equalizer, run (resumable when checkpointed) on threads lent from
/// the daemon's crew, record the terminal state, release the grant,
/// and pull the next queued job in. A panic inside the execution ends
/// the job as `Failed`, not the thread or the bookkeeping after it.
fn run_job(inner: &Arc<Inner>, job: u64) {
    let (graph, opts, token, weight, submitted) = {
        let mut st = held(inner.state.lock());
        let j = st.jobs.get_mut(&job).expect("runner spawned for a tabled job");
        let graph = j.graph.take().expect("a job runs once");
        (graph, j.opts.clone(), j.token.clone(), j.tenant.weight, j.submitted)
    };
    let grant = {
        let mut sched = held(inner.sched.lock());
        let specs = graph_load_specs(&graph, opts.policy);
        sched.admit(GraphLoad { job, weight, specs })
    };
    let deadline = opts.deadline.map(|d| d.saturating_sub(submitted.elapsed()));
    let outcome = if deadline == Some(Duration::ZERO) {
        Ok(Err(RunError::DeadlineExceeded))
    } else {
        let exec_opts = ExecutorOptions {
            backend: opts.backend,
            policy: opts.policy,
            seed: opts.seed,
            threads: grant,
            drivers: grant,
            cancel: Some(token),
            deadline,
            checkpoint: opts.checkpoint_dir.as_ref().map(CheckpointSpec::new),
            faults: held(inner.chaos.lock()).take(),
            crew: Some(inner.crew.clone()),
            ..ExecutorOptions::default()
        };
        // Unwind safety: a panicking run's partial state lives in the
        // run's own frame, which the unwind drops; the job table is
        // not touched in here.
        catch_unwind(AssertUnwindSafe(|| {
            execute_graph_resumable(&graph, &exec_opts, inner.kernel.as_ref())
        }))
    };
    let end = match outcome {
        Err(panic) => End::Failed(format!("job panicked: {}", panic_message(&*panic))),
        Ok(Err(RunError::Cancelled)) => End::Cancelled,
        Ok(Err(e)) => End::Failed(e.to_string()),
        Ok(Ok(run)) => End::Done(Box::new(WireResult {
            job,
            wall_us: run.wall_us,
            attempts: run.attempts,
            resumed_tasks: run.resumed_tasks,
            outputs: run
                .ops
                .into_iter()
                .zip(run.outputs)
                .map(|(op, values)| WireOutput { name: op.name, values })
                .collect(),
        })),
    };
    held(inner.sched.lock()).complete(job);
    finish(inner, job, end);
}

/// Ends a running job as `end`: moves it to its ended entry, releases
/// its `running` slot and staged tasks, wakes its waiters, and starts
/// the oldest queued jobs the freed capacity admits — booked under the
/// lock, their runners created after it is released.
fn finish(inner: &Arc<Inner>, job: u64, end: End) {
    let mut starting = Vec::new();
    {
        let mut st = held(inner.state.lock());
        let tasks = st.retire(job, end);
        st.running -= 1;
        st.staged_tasks -= tasks;
        while st.running < inner.admission.max_inflight {
            let Some(next) = st.queue.pop_front() else { break };
            if let Some(j) = st.jobs.get_mut(&next) {
                j.state = Live::Running;
                st.running += 1;
                starting.push(next);
            }
        }
    }
    inner.changed.notify_all();
    for next in starting {
        start_runner(inner, next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientError};
    use orchestra_delirium::{DelirGraph, NodeKind};
    use orchestra_runtime::TaskCtx;

    /// Panics in the first task it is given, then is the spin kernel.
    struct PanicsOnce {
        armed: AtomicBool,
        spin: SpinKernel,
    }

    impl TaskKernel for PanicsOnce {
        fn run_task(&self, ctx: &TaskCtx<'_>) -> f64 {
            assert!(!self.armed.swap(false, Ordering::SeqCst), "kernel bug");
            self.spin.run_task(ctx)
        }
    }

    /// An `accept` that failed for one connection is retried at once,
    /// one that failed for the process after a pause — and nothing but
    /// `stop` ends the loop.
    #[test]
    fn a_failed_accept_is_retried() {
        use io::ErrorKind::*;
        for kind in [Interrupted, ConnectionAborted] {
            assert_eq!(accept_backoff(kind), Duration::ZERO, "{kind:?}");
        }
        // EMFILE and ENFILE have no kind of their own on this toolchain;
        // EAGAIN is what a refused connection thread reports.
        let emfile = io::Error::from_raw_os_error(24).kind();
        let eagain = io::Error::from_raw_os_error(11).kind();
        for kind in [emfile, eagain, OutOfMemory, WouldBlock, PermissionDenied, Other] {
            assert!(accept_backoff(kind) > Duration::ZERO, "{kind:?}");
        }
    }

    /// Frames that arrive together are answered one by one — what the
    /// handshake's read pulled off the socket beyond `hello` is not lost
    /// to the request loop — and a frame that is not text is answered
    /// with `err`, after which the session goes on.
    #[test]
    fn pipelined_and_non_text_frames_are_answered_in_order() {
        let socket = std::env::temp_dir().join(format!("orchestrad-pipe-{}", std::process::id()));
        let cfg = DaemonConfig { socket: socket.clone(), workers: 1, ..DaemonConfig::default() };
        let mut daemon = Daemon::start(cfg).expect("daemon starts");

        let mut frame = Vec::new();
        let mut sent = Vec::new();
        Request::Hello { tenant: "t".to_string(), weight: 1.0 }.encode_into(&mut frame);
        sent.extend_from_slice(&frame);
        sent.extend_from_slice(&[2, 0, 0, 0, 0xff, 0xfe]);
        Request::Stats.encode_into(&mut frame);
        sent.extend_from_slice(&frame);
        let mut stream = UnixStream::connect(&socket).expect("connect");
        io::Write::write_all(&mut stream, &sent).expect("three frames in one write");

        let mut reader = BufReader::new(stream);
        let mut answers = Vec::new();
        for _ in 0..3 {
            let payload = read_frame(&mut reader, &mut frame).expect("read").expect("an answer");
            answers.push(Response::decode_bytes(payload).expect("a response"));
        }
        assert!(matches!(answers[0], Response::Hello { workers: 1, .. }), "{answers:?}");
        assert_eq!(answers[1], Response::Err { msg: "frame is not UTF-8".to_string() });
        assert_eq!(answers[2], Response::Stats { workers: 1, jobs: vec![] });
        daemon.shutdown();
    }

    fn eight_tasks() -> DelirGraph {
        let mut graph = DelirGraph::new();
        graph.add_node("A", NodeKind::DataParallel { tasks: 8, mean_cost: 1.0, cv: 0.0 }, None);
        graph
    }

    /// A panicking job ends as `Failed` with the panic's message; its
    /// grant, its `running` slot and its staged tasks are released, so
    /// the job queued behind it runs; the daemon keeps serving. Two
    /// workers: the one that panics stops the run, its survivor is woken
    /// to leave — on the pool and on the async drivers.
    #[test]
    fn a_panicking_job_fails_alone() {
        for backend in [ExecutorBackend::Threaded, ExecutorBackend::Async] {
            let socket = std::env::temp_dir()
                .join(format!("orchestrad-panic-{backend:?}-{}", std::process::id()));
            let cfg = DaemonConfig {
                socket: socket.clone(),
                workers: 2,
                admission: AdmissionPolicy { max_inflight: 1, ..AdmissionPolicy::default() },
                ..DaemonConfig::default()
            };
            let kernel =
                PanicsOnce { armed: AtomicBool::new(true), spin: SpinKernel::with_scale(0.1) };
            let mut daemon = Daemon::start_serving(cfg, Box::new(kernel)).expect("daemon starts");

            let graph = eight_tasks();
            let opts = JobOptions { backend, ..JobOptions::default() };
            let mut client = Client::connect(&socket, "t", 1.0).expect("connect");
            let first = client.submit(&graph, "g", &opts).expect("submit");
            let second = client.submit(&graph, "g", &opts).expect("submit");

            match client.wait(first) {
                Err(ClientError::Remote(msg)) => assert_eq!(msg, "job panicked: kernel bug"),
                other => panic!("{backend:?}: the first job must fail, got {other:?}"),
            }
            let result = client.wait(second).expect("the job behind it runs");
            assert_eq!(result.outputs[0].values.len(), 8);

            let (_, rows) = client.stats().expect("the daemon still answers");
            let states: Vec<&str> = rows.iter().map(|r| r.state.as_str()).collect();
            assert_eq!(states, ["failed", "done"]);
            assert!(rows.iter().all(|r| r.grant == 0), "grants released: {rows:?}");
            assert!(!daemon.inner.state.is_poisoned(), "a job's panic is caught outside the lock");
            let st = held(daemon.inner.state.lock());
            assert_eq!((st.running, st.staged_tasks, st.queue.len()), (0, 0, 0));
            drop(st);
            daemon.shutdown();
        }
    }

    /// A runner the OS refuses a thread fails its job instead of leaving
    /// it `running` with nobody to run it: its waiter gets the error, its
    /// slot and staged tasks are released, and the job queued behind it
    /// starts in its place.
    #[test]
    fn a_refused_runner_fails_its_job() {
        let socket =
            std::env::temp_dir().join(format!("orchestrad-refused-{}", std::process::id()));
        let cfg = DaemonConfig {
            socket: socket.clone(),
            workers: 1,
            admission: AdmissionPolicy { max_inflight: 1, ..AdmissionPolicy::default() },
            ..DaemonConfig::default()
        };
        let mut daemon = Daemon::start(cfg).expect("daemon starts");
        let inner = &daemon.inner;
        let job = |state| Job {
            tenant: Arc::new(Tenant { session: 0, name: "t".to_string(), weight: 1.0 }),
            graph: Some(eight_tasks()),
            opts: JobOptions::default(),
            tasks: 8,
            submitted: Instant::now(),
            token: CancelToken::new(),
            state,
        };
        // What `submit` books for a job it runs now and one it queues.
        {
            let mut st = held(inner.state.lock());
            st.jobs.insert(1, job(Live::Running));
            st.jobs.insert(2, job(Live::Queued));
            st.queue.push_back(2);
            (st.running, st.staged_tasks) = (1, 16);
        }
        let eagain = io::Error::from_raw_os_error(11);
        started(inner, 1, Err(eagain));

        let mut client = Client::connect(&socket, "t", 1.0).expect("connect");
        match client.wait(1) {
            Err(ClientError::Remote(msg)) => {
                assert!(msg.starts_with("job could not start: "), "{msg}")
            }
            other => panic!("the refused job must fail, got {other:?}"),
        }
        let result = client.wait(2).expect("the queued job starts in its place");
        assert_eq!(result.outputs[0].values.len(), 8);
        let st = held(inner.state.lock());
        assert_eq!((st.running, st.staged_tasks, st.queue.len()), (0, 0, 0));
        assert!(st.jobs.is_empty(), "an ended job keeps no full record");
        assert!(matches!(st.ended[1].as_ref().map(|e| &e.end), Some(End::Failed(_))));
        drop(st);
        daemon.shutdown();
    }

    /// One task: the smallest job the daemon admits.
    fn one_task() -> DelirGraph {
        let mut graph = DelirGraph::new();
        graph.add_node("A", NodeKind::DataParallel { tasks: 1, mean_cost: 1.0, cv: 0.0 }, None);
        graph
    }

    /// The answer a client got, as the text of its error.
    fn refusal<T: std::fmt::Debug>(answer: Result<T, ClientError>) -> String {
        match answer {
            Err(ClientError::Remote(msg)) => msg,
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    /// After 1 000 delivered jobs the table holds no full record of
    /// any of them, only ended entries that share the session's tenant,
    /// and each job still answers as before. `stats` lists it `done`, in
    /// id order. `wait` says its result was delivered. `cancel` is
    /// answered. An id never handed out is still unknown to both.
    #[test]
    fn a_delivered_job_leaves_only_a_compact_entry() {
        assert!(std::mem::size_of::<Option<Ended>>() <= 32, "an ended entry's slot");
        let socket = std::env::temp_dir().join(format!("orchestrad-ended-{}", std::process::id()));
        let cfg = DaemonConfig { socket: socket.clone(), workers: 1, ..DaemonConfig::default() };
        let mut daemon = Daemon::start(cfg).expect("daemon starts");
        let mut client = Client::connect(&socket, "t", 1.0).expect("connect");
        let (graph, opts) = (one_task(), JobOptions::default());
        let ids: Vec<u64> = (0..1000)
            .map(|_| {
                let id = client.submit(&graph, "g", &opts).expect("submit");
                client.wait(id).expect("delivered");
                id
            })
            .collect();
        // Answered after the last delivery settled: one connection's
        // requests are served in turn.
        let (_, rows) = client.stats().expect("stats");
        {
            let st = held(daemon.inner.state.lock());
            assert_eq!(st.jobs.len(), 0, "full records of delivered jobs");
            let ended: Vec<&Ended> = st.ended.iter().flatten().collect();
            assert_eq!(ended.len(), 1000);
            assert!(ended.iter().all(|e| matches!(e.end, End::Delivered)));
            let tenant = &ended[0].tenant;
            assert!(ended.iter().all(|e| Arc::ptr_eq(&e.tenant, tenant)), "one tenant per session");
        }
        assert_eq!(rows.iter().map(|r| r.job).collect::<Vec<_>>(), ids, "listed in id order");
        assert!(rows
            .iter()
            .all(|r| (r.tenant.as_str(), r.state.as_str(), r.grant) == ("t", "done", 0)));
        for id in [ids[0], ids[999]] {
            let msg = refusal(client.wait(id));
            assert_eq!(msg, format!("job {id}: result already delivered"));
            client.cancel(id).expect("an ended job's cancel is answered");
        }
        let unknown = ids[999] + 1;
        assert_eq!(refusal(client.wait(unknown)), format!("no such job {unknown}"));
        assert_eq!(refusal(client.cancel(unknown)), format!("no such job {unknown}"));
        daemon.shutdown();
    }

    /// A second `wait` that blocks while the first delivers the result
    /// learns, when that delivery settles, that the result was
    /// delivered — the job's ended entry outlives its delivery.
    #[test]
    fn a_waiter_blocked_on_a_delivery_learns_it_was_delivered() {
        let socket = std::env::temp_dir().join(format!("orchestrad-settle-{}", std::process::id()));
        let cfg = DaemonConfig { socket: socket.clone(), workers: 1, ..DaemonConfig::default() };
        let mut daemon = Daemon::start(cfg).expect("daemon starts");
        let mut client = Client::connect(&socket, "t", 1.0).expect("connect");
        let job = client.submit(&one_task(), "g", &JobOptions::default()).expect("submit");
        let t0 = Instant::now();
        while client.stats().expect("stats").1[0].state != "done" {
            assert!(t0.elapsed() < Duration::from_secs(10), "the job never ended");
            thread::sleep(Duration::from_millis(1));
        }
        let inner = Arc::clone(&daemon.inner);
        let first = wait(&inner, job);
        assert!(matches!(first, Response::Result(_)), "{first:?}");
        let second = thread::spawn(move || wait(&inner, job));
        // Long enough for the second waiter to block on the delivery;
        // if it has not yet, it reads the settled entry instead.
        thread::sleep(Duration::from_millis(50));
        settle(&daemon.inner, job, None);
        let answer = second.join().expect("the waiter returns");
        assert_eq!(answer, Response::Err { msg: format!("job {job}: result already delivered") });
        daemon.shutdown();
    }

    /// A connection gives a frame's buffers back once they grew past
    /// [`KEPT_FRAME_BYTES`] — an 8 MiB request answered by an 8 MiB
    /// response leaves neither behind — and keeps them for a frame the
    /// size of a wide job's result.
    #[test]
    fn a_connection_gives_back_a_large_frames_buffers() {
        for (len, kept) in [(8 << 20, false), (1_200_000, true)] {
            let (server, mut peer) = UnixStream::pair().expect("socket pair");
            let mut conn = Connection {
                reader: BufReader::new(server),
                inbox: Vec::new(),
                outbox: Vec::new(),
            };
            let client = thread::spawn(move || {
                let mut frame = u32::try_from(len).expect("under the cap").to_le_bytes().to_vec();
                frame.resize(4 + len, b'x');
                write_frame(&mut peer, &frame).expect("request written");
                read_frame(&mut peer, &mut frame).expect("read").expect("an answer").len()
            });
            let request = conn.receive().expect("read").expect("a frame");
            assert!(request.is_err(), "not a request");
            conn.send(&Response::Err { msg: "x".repeat(len) }).expect("answer written");
            assert!(client.join().expect("the peer reads") > len);
            for (name, buf) in [("inbox", &conn.inbox), ("outbox", &conn.outbox)] {
                let cap = buf.capacity();
                if kept {
                    assert!(cap >= len, "{len}-byte frame: {name} gave back its {cap} bytes");
                } else {
                    assert!(cap <= KEPT_FRAME_BYTES, "{len}-byte frame: {name} keeps {cap} bytes");
                }
            }
        }
    }

    /// A thread that unwinds while it holds the job table poisons the
    /// lock, not the daemon: `stats` still answers, and a job submitted
    /// afterwards is admitted, run and delivered.
    #[test]
    fn a_poisoned_lock_is_recovered() {
        let socket = std::env::temp_dir().join(format!("orchestrad-poison-{}", std::process::id()));
        let cfg = DaemonConfig { socket: socket.clone(), workers: 1, ..DaemonConfig::default() };
        let mut daemon = Daemon::start(cfg).expect("daemon starts");
        let inner = Arc::clone(&daemon.inner);
        let holder = thread::spawn(move || {
            let _st = inner.state.lock().expect("first holder");
            panic!("unwinds with the job table locked");
        });
        assert!(holder.join().is_err());
        assert!(daemon.inner.state.is_poisoned());

        let mut client = Client::connect(&socket, "t", 1.0).expect("connect");
        assert_eq!(client.stats().expect("stats answers").1.len(), 0);
        let job = client.submit(&eight_tasks(), "g", &JobOptions::default()).expect("submit");
        let result = client.wait(job).expect("the job runs and is delivered");
        assert_eq!(result.outputs[0].values.len(), 8);
        daemon.shutdown();
    }
}
