//! The result path's allocation ledger: heap bytes allocated while one
//! `wait` carries a finished job's result from an in-process daemon to
//! its client, counted by a counting global allocator over every thread
//! of the process — a count, not a time, so it reads the same on a
//! loaded host.
//!
//! Of a result of N values the client must allocate the values
//! themselves, 8·N bytes; the rest is the output's name and the list
//! that holds it. The daemon writes the frame in pieces of at most
//! 64 KiB through a buffer its connection keeps, and the client decodes
//! it from a read buffer of 64 KiB it keeps, so neither end allocates
//! anything in proportion to N. While each end built or read a frame
//! whole, in a buffer that kept its capacity, a wider result than the
//! connection had seen grew both buffers by 25–28 bytes a value.
//!
//! One test, so that no other test of this binary allocates while a
//! `wait` is counted.

use orchestra_daemon::{AdmissionPolicy, Client, Daemon, DaemonConfig, JobOptions};
use orchestra_delirium::{DelirGraph, NodeKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Bytes asked for by every thread; a reallocation counts only what it
/// grew by.
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is an atomic, so touching it
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as it came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// A wide job's result in `serve_mix`: 28 672 values.
const WIDE: usize = 28_672;

/// One op of `tasks` one-step tasks: a result of `tasks` values.
fn one_op(tasks: usize) -> DelirGraph {
    let mut g = DelirGraph::new();
    g.add_node("A", NodeKind::DataParallel { tasks, mean_cost: 1.0, cv: 0.0 }, None);
    g
}

/// Submits a job of `n` values and waits, outside the count, until it
/// has ended.
fn finished_job(client: &mut Client, n: usize) -> u64 {
    let job = client.submit(&one_op(n), "g", &JobOptions::default()).expect("submit");
    let t0 = Instant::now();
    while client.stats().expect("stats").1.iter().any(|r| r.job == job && r.state != "done") {
        assert!(t0.elapsed() < Duration::from_secs(30), "job {job} never ended");
        std::thread::sleep(Duration::from_millis(1));
    }
    job
}

/// Bytes allocated during the `wait` that delivers a finished job of `n`
/// values, beyond its 8·`n` bytes of values; the result is dropped
/// outside the count.
fn wait_bytes(client: &mut Client, n: usize) -> u64 {
    let job = finished_job(client, n);
    let before = BYTES.load(Ordering::SeqCst);
    let result = client.wait(job).expect("delivered");
    let bytes = BYTES.load(Ordering::SeqCst) - before;
    assert_eq!(result.outputs[0].values.len(), n);
    drop(result);
    bytes - 8 * n as u64
}

#[test]
fn a_results_path_allocates_only_the_values() {
    let socket = std::env::temp_dir().join(format!("orchestrad-allocs-{}", std::process::id()));
    let cfg = DaemonConfig {
        socket: socket.clone(),
        workers: 1,
        admission: AdmissionPolicy::default(),
        kernel_scale: 0.001,
        measure_calibration: false,
        chaos: None,
    };
    let mut daemon = Daemon::start(cfg).expect("daemon starts");
    let mut client = Client::connect(&socket, "t", 1.0).expect("connect");

    // The first result on a connection sizes the daemon's outbox to
    // 64 KiB, once: a result of 4 096 values, 69 KiB of frame, passes it
    // in two pieces. While each end held the frame whole this read
    // 192 575 bytes.
    let first = wait_bytes(&mut client, 4096);
    println!("first result, 4 096 values: {first} B beyond its values");
    assert!(first <= (64 << 10) + 256, "first result: {first} B beyond its values");

    // After it, a result of N values costs the N values and a constant,
    // whatever N, also the first time the connection carries one so
    // wide: 193 bytes at N = 28 672 and at 4 × 28 672, where whole
    // frames read 786 626 and 2 937 026.
    let wide = wait_bytes(&mut client, WIDE);
    let wider = wait_bytes(&mut client, 4 * WIDE);
    println!("N = {WIDE}: {wide} B beyond the values; N = {}: {wider} B", 4 * WIDE);
    assert_eq!(wide, wider, "bytes beyond the values grow with N");
    // The output list's room for four outputs (4 × 48 B) and the name.
    assert_eq!(wide, 193, "{wide} B beyond the values, pinned at 193");
    daemon.shutdown();
}
