//! End-to-end smoke tests for `orchestrad`: real unix sockets, real
//! concurrent tenants, bitwise-checked results.
//!
//! The daemon's whole promise is that sharing one worker pool with
//! other tenants changes *when* a graph finishes, never *what* it
//! computes — so every test here compares wire results against a
//! locally executed sequential reference, bit for bit.

mod common;

use common::shapes;
use orchestra_daemon::wire::{read_frame, write_frame};
use orchestra_daemon::{
    AdmissionPolicy, Client, ClientError, Daemon, DaemonConfig, JobOptions, Request,
};
use orchestra_delirium::DelirGraph;
use orchestra_runtime::executor::ExecutorOptions;
use orchestra_runtime::threaded::{execute_sequential, ExecutorBackend, SpinKernel};
use orchestra_runtime::{FaultPlan, FaultTrigger, PolicyKind};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Wall-clock scale served by test daemons (small: CI time, not
/// fidelity, is the constraint here).
const SCALE: f64 = 0.5;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orchestrad-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn daemon(tag: &str, workers: usize, admission: AdmissionPolicy) -> (Daemon, PathBuf) {
    let dir = scratch(tag);
    let cfg = DaemonConfig {
        socket: dir.join("orchestrad.sock"),
        workers,
        admission,
        kernel_scale: SCALE,
        measure_calibration: false,
        chaos: None,
    };
    let d = Daemon::start(cfg).expect("daemon starts");
    (d, dir)
}

/// The sequential reference for a job as the daemon would run it:
/// same graph, seed, policy, and kernel scale.
fn reference(g: &DelirGraph, opts: &JobOptions) -> Vec<Vec<f64>> {
    let exec = ExecutorOptions {
        backend: ExecutorBackend::Threaded,
        policy: opts.policy,
        seed: opts.seed,
        threads: 1,
        ..ExecutorOptions::default()
    };
    execute_sequential(g, &exec, &SpinKernel::with_scale(SCALE)).expect("reference run").outputs
}

/// Two tenants submit different graphs concurrently over the socket;
/// both must get results bitwise-identical to their sequential
/// references, through all the pool sharing and re-equalization.
#[test]
fn two_concurrent_tenants_get_bitwise_sequential_results() {
    let (mut d, dir) = daemon("two-tenants", 4, AdmissionPolicy::default());
    let socket = d.socket().to_path_buf();
    let tenants: Vec<(&str, DelirGraph, u64)> = vec![
        ("alice", shapes::flat(192, 40.0, 0.6), common::test_seed()),
        ("bob", shapes::diamond(4.0, (96, 30.0, 0.4), (64, 50.0, 0.2), 2.0), 0x0b0b),
    ];
    let handles: Vec<_> = tenants
        .into_iter()
        .map(|(name, graph, seed)| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let opts = JobOptions { seed, ..JobOptions::default() };
                let mut c = Client::connect(&socket, name, 1.0).expect("connect");
                let job = c.submit(&graph, name, &opts).expect("submit");
                let result = c.wait(job).expect("job completes");
                let expect = reference(&graph, &opts);
                assert_eq!(result.outputs.len(), expect.len(), "{name}: op count");
                for (out, exp) in result.outputs.iter().zip(&expect) {
                    assert_eq!(
                        &out.values, exp,
                        "{name}: op {} diverged from the sequential reference",
                        out.name
                    );
                }
                assert_eq!(result.attempts, 1, "{name}: clean run");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("tenant thread");
    }
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cancelling one tenant's long-running graph frees its worker
/// partition: the cross-graph equalizer widens the surviving tenant's
/// grant to the whole pool, observable through `stats`.
#[test]
fn cancelled_tenant_frees_its_partition_to_the_survivor() {
    let (mut d, dir) = daemon(
        "cancel-frees",
        4,
        AdmissionPolicy { max_inflight: 2, ..AdmissionPolicy::default() },
    );
    let socket = d.socket().to_path_buf();
    // Long enough that cancellation lands mid-run: a few hundred ms
    // of wall-clock even split across the whole pool.
    let long = shapes::flat(2048, 500_000.0, 0.1);
    let opts = JobOptions { seed: 7, ..JobOptions::default() };

    let mut alice = Client::connect(&socket, "alice", 1.0).expect("connect alice");
    let job_a = alice.submit(&long, "long-a", &opts).expect("submit a");
    wait_for(&mut alice, |rows| rows.iter().any(|r| r.job == job_a && r.state == "running"));

    let mut bob = Client::connect(&socket, "bob", 1.0).expect("connect bob");
    let job_b = bob.submit(&long, "long-b", &opts).expect("submit b");
    wait_for(&mut bob, |rows| rows.iter().any(|r| r.job == job_b && r.state == "running"));

    // Alice ran alone first, so she holds the full pool (widen-only);
    // Bob entered a busy pool and got the equalized share of it.
    let rows = bob.stats().expect("stats").1;
    let grant_b = rows.iter().find(|r| r.job == job_b).expect("bob's row").grant;
    assert!(grant_b < 4, "bob entered a shared pool and must not own all of it, got {grant_b}");

    // Cancel alice: her workers must flow to bob via re-equalization.
    alice.cancel(job_a).expect("cancel delivered");
    let err = alice.wait(job_a).expect_err("cancelled job yields no result");
    assert!(
        matches!(&err, ClientError::Remote(m) if m == "execution cancelled"),
        "unexpected wait outcome: {err}"
    );
    wait_for(&mut bob, |rows| rows.iter().any(|r| r.job == job_b && r.grant == 4));

    bob.cancel(job_b).expect("cleanup cancel");
    let _ = bob.wait(job_b);
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Polls `stats` until the predicate holds (10 s cap — generous for
/// loaded CI hosts, instant in the common case).
fn wait_for(c: &mut Client, pred: impl Fn(&[orchestra_daemon::JobRow]) -> bool) {
    let t0 = Instant::now();
    loop {
        let rows = c.stats().expect("stats").1;
        if pred(&rows) {
            return;
        }
        assert!(t0.elapsed() < Duration::from_secs(10), "stats predicate never held: {rows:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A checkpointed tenant graph survives a worker-pool crash: the
/// daemon's resumable execution restores from the latest snapshot and
/// the final outputs stay bitwise-correct.
#[test]
fn checkpointed_job_survives_a_worker_pool_crash() {
    let dir = scratch("crash-resume");
    let cfg = DaemonConfig {
        socket: dir.join("orchestrad.sock"),
        workers: 2,
        admission: AdmissionPolicy::default(),
        kernel_scale: SCALE,
        measure_calibration: false,
        // Kill the pool after worker 0's 24th claim — mid-graph, past
        // the first claim-cadence snapshot.
        chaos: Some(FaultPlan::crash(0, FaultTrigger::AfterClaims(24))),
    };
    let mut d = Daemon::start(cfg).expect("daemon starts");
    // Tasks must dwarf a snapshot commit's fsync, or the worker that
    // wins the writer slot starves while its sibling drains the queue
    // and the claim-24 trigger never fires (see the pinned chaos
    // guard test for the same trap).
    let graph = shapes::flat(256, 2_000_000.0, 0.3);
    let opts = JobOptions {
        seed: common::test_seed(),
        policy: PolicyKind::SelfSched,
        checkpoint_dir: Some(dir.join("snapshots").to_string_lossy().into_owned()),
        ..JobOptions::default()
    };
    let mut c = Client::connect(d.socket(), "carol", 1.0).expect("connect");
    let job = c.submit(&graph, "resumable", &opts).expect("submit");
    let result = c.wait(job).expect("job survives the crash");
    assert_eq!(result.attempts, 2, "the injected crash must force exactly one resume");
    assert!(result.resumed_tasks > 0, "the resume must restore work from a snapshot");
    let expect = reference(&graph, &opts);
    for (out, exp) in result.outputs.iter().zip(&expect) {
        assert_eq!(&out.values, exp, "op {} diverged after recovery", out.name);
    }
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control: oversized graphs are rejected outright, the
/// in-flight cap queues submissions, and queued jobs run (and answer
/// their `wait`s — each exactly once) once capacity frees up.
#[test]
fn admission_rejects_queues_and_pumps() {
    let (mut d, dir) = daemon(
        "admission",
        2,
        AdmissionPolicy { max_inflight: 1, max_total_tasks: 4096, max_graph_tasks: 512 },
    );
    let mut c = Client::connect(d.socket(), "dave", 1.0).expect("connect");

    let huge = shapes::flat(1024, 1.0, 0.0);
    let err = c.submit(&huge, "huge", &JobOptions::default()).expect_err("over the limit");
    assert!(matches!(&err, ClientError::Remote(m) if m.contains("per-graph limit")), "{err}");

    let opts = JobOptions { seed: 11, ..JobOptions::default() };
    let g = shapes::flat(256, 200_000.0, 0.2);
    let first = c.submit(&g, "first", &opts).expect("first admitted");
    let second = c.submit(&g, "second", &opts).expect("second admitted");
    // With max_inflight = 1 the second job must queue behind the first.
    let rows = c.stats().expect("stats").1;
    let row = rows.iter().find(|r| r.job == second).expect("second's row");
    assert!(
        row.state == "queued" || row.state == "running" || row.state == "done",
        "unexpected state {}",
        row.state
    );
    let expect = reference(&g, &opts);
    for job in [first, second] {
        let result = c.wait(job).expect("both jobs complete");
        for (out, exp) in result.outputs.iter().zip(&expect) {
            assert_eq!(&out.values, exp, "job {job} op {} diverged", out.name);
        }
    }
    // A result is delivered once: the table keeps a tombstone, not the
    // payload. `stats` still lists the job as done, a second `wait`
    // says why it has nothing to hand out, and that is a different
    // answer from the one an unknown id gets.
    let rows = c.stats().expect("stats").1;
    for job in [first, second] {
        let row = rows.iter().find(|r| r.job == job).expect("delivered jobs stay listed");
        assert_eq!(row.state, "done", "job {job}");
    }
    let err = c.wait(first).expect_err("a result is handed out once");
    assert!(matches!(&err, ClientError::Remote(m) if m.contains("already delivered")), "{err}");
    let err = c.wait(second + 1000).expect_err("unknown job");
    assert!(matches!(&err, ClientError::Remote(m) if m.contains("no such job")), "{err}");
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `wait` whose connection drops before the daemon could write its
/// response must not take the result with it: the daemon hands the
/// result back to the table, and a retry on a live connection gets it
/// — once.
#[test]
fn a_dropped_wait_leaves_the_result_for_a_retry() {
    let (mut d, dir) = daemon(
        "dropped-wait",
        2,
        AdmissionPolicy { max_inflight: 1, ..AdmissionPolicy::default() },
    );
    let mut c = Client::connect(d.socket(), "erin", 1.0).expect("connect");
    let opts = JobOptions { seed: 13, ..JobOptions::default() };
    // The job under test queues behind a long one, so it cannot finish
    // before the ghost below has asked for it and hung up.
    let blocker = c.submit(&shapes::flat(2048, 500_000.0, 0.1), "blocker", &opts).expect("submit");
    let g = shapes::flat(64, 2_000.0, 0.2);
    let job = c.submit(&g, "wanted", &opts).expect("submit");
    {
        let mut ghost = UnixStream::connect(d.socket()).expect("connect ghost");
        let mut frame = Vec::new();
        Request::Hello { tenant: "ghost".to_string(), weight: 1.0 }.encode_into(&mut frame);
        write_frame(&mut ghost, &frame).expect("hello");
        read_frame(&mut ghost, &mut Vec::new()).expect("hello answered");
        Request::Wait { job }.encode_into(&mut frame);
        write_frame(&mut ghost, &frame).expect("wait sent");
    }
    // Let the daemon park the ghost's wait first (either order is
    // correct; this one exercises the hand-back).
    std::thread::sleep(Duration::from_millis(50));
    c.cancel(blocker).expect("cancel delivered");
    // The ghost is the only waiter when the job completes: it takes the
    // result, fails to write it, and must put it back.
    wait_for(&mut c, |rows| rows.iter().any(|r| r.job == job && r.state == "done"));

    let result = c.wait(job).expect("the dropped wait must not consume the result");
    for (out, exp) in result.outputs.iter().zip(&reference(&g, &opts)) {
        assert_eq!(&out.values, exp, "op {} diverged", out.name);
    }
    let err = c.wait(job).expect_err("delivered now");
    assert!(matches!(&err, ClientError::Remote(m) if m.contains("already delivered")), "{err}");
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An expired deadline aborts the job with the runtime's
/// `DeadlineExceeded` message instead of hanging the tenant.
#[test]
fn expired_deadline_aborts_the_job() {
    let (mut d, dir) = daemon("deadline", 2, AdmissionPolicy::default());
    let mut c = Client::connect(d.socket(), "erin", 1.0).expect("connect");
    let g = shapes::flat(2048, 500_000.0, 0.1);
    let opts = JobOptions { deadline: Some(Duration::from_millis(1)), ..JobOptions::default() };
    let job = c.submit(&g, "doomed", &opts).expect("submit");
    let err = c.wait(job).expect_err("deadline must fire");
    assert!(
        matches!(&err, ClientError::Remote(m) if m == "execution deadline exceeded"),
        "unexpected outcome: {err}"
    );
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `shutdown` drains: running work finishes first, new connections are
/// refused after, and the whole sequence completes promptly.
#[test]
fn shutdown_drains_admitted_work_then_refuses_connections() {
    let (d, dir) = daemon("drain", 2, AdmissionPolicy::default());
    let socket = d.socket().to_path_buf();
    let opts = JobOptions { seed: 23, ..JobOptions::default() };
    let g = shapes::flat(128, 300.0, 0.2);
    let mut c = Client::connect(&socket, "frank", 1.0).expect("connect");
    let job = c.submit(&g, "draining", &opts).expect("submit");

    let t0 = Instant::now();
    let mut closer = Client::connect(&socket, "ops", 1.0).expect("connect closer");
    closer.shutdown().expect("drain completes");
    assert!(t0.elapsed() < Duration::from_secs(30), "drain took {:?}", t0.elapsed());

    // The drained daemon finished the admitted job before exiting —
    // the result is still served to the already-open session.
    let result = c.wait(job).expect("admitted work survives the drain");
    let expect = reference(&g, &opts);
    for (out, exp) in result.outputs.iter().zip(&expect) {
        assert_eq!(&out.values, exp, "op {} diverged", out.name);
    }

    // New connections are refused once the listener is gone.
    let t0 = Instant::now();
    let refused = loop {
        match Client::connect(&socket, "late", 1.0) {
            Err(_) => break true,
            Ok(_) if t0.elapsed() > Duration::from_secs(10) => break false,
            Ok(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    assert!(refused, "the drained daemon must stop accepting connections");
    drop(d);
    let _ = std::fs::remove_dir_all(&dir);
}
