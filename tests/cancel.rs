//! Cooperative cancellation: an aborted graph returns a clean
//! [`RunError::Cancelled`] / [`RunError::DeadlineExceeded`] on every
//! backend, frees its workers promptly, and leaves the process
//! perfectly reusable — the next run on the same thread pool size
//! must still be bitwise-identical to the sequential reference.

mod common;

use common::shapes;
use orchestra_delirium::DelirGraph;
use orchestra_runtime::asynch::execute_async;
use orchestra_runtime::cancel::{CancelToken, RunError};
use orchestra_runtime::executor::ExecutorOptions;
use orchestra_runtime::threaded::{
    execute_sequential, execute_threaded, ExecutorBackend, SpinKernel,
};
use orchestra_runtime::{
    execute_graph_resumable, FaultPlan, FaultTrigger, PolicyKind, TaskCtx, TaskKernel,
};
use std::time::{Duration, Instant};

fn kernel() -> SpinKernel {
    SpinKernel::with_scale(8.0)
}

/// A graph long enough that a mid-run cancel lands while work remains.
fn long_graph() -> DelirGraph {
    shapes::chain(6, 256, 30.0, 0.3)
}

fn opts(backend: ExecutorBackend) -> ExecutorOptions {
    ExecutorOptions { threads: 2, drivers: 2, backend, ..ExecutorOptions::default() }
}

/// A token cancelled before submission aborts the run on its first
/// claim without executing to completion.
#[test]
fn pre_cancelled_token_aborts_threaded_run() {
    let token = CancelToken::new();
    token.cancel();
    let o = ExecutorOptions { cancel: Some(token), ..opts(ExecutorBackend::Threaded) };
    let err = execute_threaded(&long_graph(), &o, &kernel()).unwrap_err();
    assert_eq!(err, RunError::Cancelled);
}

#[test]
fn pre_cancelled_token_aborts_dist_run() {
    let token = CancelToken::new();
    token.cancel();
    let o = ExecutorOptions { cancel: Some(token), ..opts(ExecutorBackend::ThreadedDist) };
    let err = execute_threaded(&long_graph(), &o, &kernel()).unwrap_err();
    assert_eq!(err, RunError::Cancelled);
}

#[test]
fn pre_cancelled_token_aborts_async_run() {
    let token = CancelToken::new();
    token.cancel();
    let o = ExecutorOptions { cancel: Some(token), ..opts(ExecutorBackend::Async) };
    let err = execute_async(&long_graph(), &o, &kernel()).unwrap_err();
    assert_eq!(err, RunError::Cancelled);
}

#[test]
fn pre_cancelled_token_aborts_sequential_run() {
    let token = CancelToken::new();
    token.cancel();
    let o = ExecutorOptions { cancel: Some(token), ..opts(ExecutorBackend::Threaded) };
    let err = execute_sequential(&long_graph(), &o, &kernel()).unwrap_err();
    assert_eq!(err, RunError::Cancelled);
}

/// Cancelling from another thread mid-run aborts promptly (bounded by
/// the test's own generous timeout rather than the graph's runtime)
/// and the pool is immediately reusable for a bitwise-correct run.
#[test]
fn mid_run_cancel_frees_the_pool_for_a_clean_rerun() {
    for backend in [ExecutorBackend::Threaded, ExecutorBackend::ThreadedDist] {
        let token = CancelToken::new();
        let o = ExecutorOptions { cancel: Some(token.clone()), ..opts(backend) };
        // Sized to run for tens of milliseconds at the default kernel
        // scale, so a 5 ms cancel always lands mid-run.
        let g = shapes::chain(8, 512, 300.0, 0.2);
        let k = SpinKernel::default();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                token.cancel();
            })
        };
        let t0 = std::time::Instant::now();
        let res = execute_threaded(&g, &o, &k);
        let aborted_after = t0.elapsed();
        canceller.join().unwrap();
        assert_eq!(res.unwrap_err(), RunError::Cancelled, "backend {backend:?}");
        // Promptness: the abort must not take anywhere near the
        // graph's full runtime. Generous bound for loaded CI hosts.
        assert!(
            aborted_after < Duration::from_secs(10),
            "cancel took {aborted_after:?} on {backend:?}"
        );
        // Rerun with no token on a smaller shape: must be bitwise the
        // sequential result, every task exactly once.
        let g2 = long_graph();
        let k2 = kernel();
        let o2 = opts(backend);
        let run = execute_threaded(&g2, &o2, &k2).expect("pool reusable after cancel");
        let seq = execute_sequential(&g2, &o2, &k2).unwrap();
        assert_eq!(run.outputs, seq.outputs, "backend {backend:?}");
        for counts in &run.exec_counts() {
            assert!(counts.iter().all(|&c| c == 1), "exactly-once after cancel");
        }
    }
}

/// Mid-run cancel on the async backend: the scheduler aborts, the
/// error is clean, and a follow-up run succeeds bitwise.
#[test]
fn mid_run_cancel_async_then_clean_rerun() {
    let token = CancelToken::new();
    let o = ExecutorOptions { cancel: Some(token.clone()), ..opts(ExecutorBackend::Async) };
    let g = shapes::chain(8, 512, 300.0, 0.2);
    let k = SpinKernel::default();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            token.cancel();
        })
    };
    let res = execute_async(&g, &o, &k);
    canceller.join().unwrap();
    assert_eq!(res.unwrap_err(), RunError::Cancelled);
    let g2 = long_graph();
    let k2 = kernel();
    let o2 = opts(ExecutorBackend::Async);
    let run = execute_async(&g2, &o2, &k2).expect("drivers reusable after cancel");
    let seq = execute_sequential(&g2, &o2, &k2).unwrap();
    assert_eq!(run.outputs, seq.outputs);
}

/// An already-expired deadline aborts with `DeadlineExceeded`, and the
/// two abort reasons are distinguishable.
#[test]
fn expired_deadline_aborts_with_its_own_error() {
    let o = ExecutorOptions { deadline: Some(Duration::ZERO), ..opts(ExecutorBackend::Threaded) };
    let err = execute_threaded(&long_graph(), &o, &kernel()).unwrap_err();
    assert_eq!(err, RunError::DeadlineExceeded);

    let o = ExecutorOptions { deadline: Some(Duration::ZERO), ..opts(ExecutorBackend::Async) };
    let err = execute_async(&long_graph(), &o, &kernel()).unwrap_err();
    assert_eq!(err, RunError::DeadlineExceeded);
}

/// A deadline far in the future never fires: the run completes and
/// stays bitwise-identical to the sequential reference (the cancel
/// hook must not perturb scheduling results).
#[test]
fn generous_deadline_never_perturbs_results() {
    for backend in [ExecutorBackend::Threaded, ExecutorBackend::ThreadedDist] {
        let g = shapes::diamond(4.0, (96, 2.0, 0.6), (64, 1.5, 0.3), 2.0);
        let k = kernel();
        let o = ExecutorOptions {
            cancel: Some(CancelToken::new()),
            deadline: Some(Duration::from_secs(3600)),
            ..opts(backend)
        };
        let run = execute_threaded(&g, &o, &k).expect("deadline must not fire");
        let seq = execute_sequential(&g, &opts(backend), &k).unwrap();
        assert_eq!(run.outputs, seq.outputs, "backend {backend:?}");
    }
}

/// A resumed run's deadline is the call's, not each attempt's: 40 tasks
/// that sleep 5 ms each on one worker, a crash at claim 30 and a 250 ms
/// deadline. The crashed attempt spends at least 145 ms, and the replay
/// (no checkpoint, so from scratch) at least 200 ms more — a replay
/// granted a fresh deadline finishes, one held to what is left cannot.
/// The sleeps bound the run time from below, so nothing lets this pass
/// early.
#[test]
fn a_replay_runs_under_what_is_left_of_the_deadline() {
    struct Sleep;
    impl TaskKernel for Sleep {
        fn run_task(&self, ctx: &TaskCtx<'_>) -> f64 {
            std::thread::sleep(Duration::from_millis(5));
            ctx.task as f64
        }
    }
    let o = ExecutorOptions {
        policy: PolicyKind::SelfSched,
        threads: 1,
        faults: Some(FaultPlan::crash(0, FaultTrigger::AfterClaims(30))),
        deadline: Some(Duration::from_millis(250)),
        ..opts(ExecutorBackend::Threaded)
    };
    let t0 = Instant::now();
    let res = execute_graph_resumable(&shapes::flat(40, 1.0, 0.0), &o, &Sleep);
    let took = t0.elapsed();
    assert_eq!(res.map(|r| r.attempts).unwrap_err(), RunError::DeadlineExceeded, "after {took:?}");
}
