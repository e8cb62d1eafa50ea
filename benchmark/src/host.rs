//! What the benchmark reads from the host: clocks, peak memory, core
//! count, and a fixed reference spin that separates host drift from a
//! change in the program.

use std::sync::OnceLock;
use std::time::Instant;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of a CPU mask: room for 1024 CPUs, the kernel's default limit.
const MASK_WORDS: usize = 16;

/// The two CPUs of the run, fixed by [`claim_cpus`].
static CPUS: OnceLock<[usize; 2]> = OnceLock::new();

fn set_affinity(cpus: &[usize]) -> Result<(), String> {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is valid for reads of the size passed; pid 0 names
    // the calling thread.
    if unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity to {cpus:?} failed"));
    }
    Ok(())
}

/// Confines the process to two of the CPUs it is allowed on — the first
/// two, on any host, so a bigger host runs the same benchmark — and
/// returns them. Refuses a host that offers fewer: two workers taking
/// turns on one CPU measure no parallel execution.
pub fn claim_cpus() -> Result<[usize; 2], String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is valid for writes of the `MASK_WORDS * 8` bytes
    // passed as its size; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".to_string());
    }
    let mut allowed = (0..MASK_WORDS * 64).filter(|c| mask[c / 64] >> (c % 64) & 1 == 1);
    let (Some(a), Some(b)) = (allowed.next(), allowed.next()) else {
        return Err("the benchmark needs 2 CPUs and this process may run on fewer".to_string());
    };
    set_affinity(&[a, b])?;
    Ok(*CPUS.get_or_init(|| [a, b]))
}

/// Pins the calling thread to CPU `slot` (0 or 1) of the run's two, or
/// with `None` lets it run on both again. Threads spawned afterwards
/// inherit the choice.
pub fn pin(slot: Option<usize>) -> Result<(), String> {
    let cpus = CPUS.get().ok_or("claim_cpus has not run")?;
    set_affinity(slot.map_or(&cpus[..], |s| &cpus[s..=s]))
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process so far, in seconds.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, exclusively borrowed `timespec` for the
    // duration of the call, and the clock id is a constant the kernel
    // defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process: `VmHWM`, kB ÷ 1024.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The reference spin: a fixed dependent floating-point recurrence
/// (about 1 ms on the dev host) that touches no memory and calls
/// nothing. Returns its wall time in milliseconds. When this moves, the
/// host moved; when only the workload's numbers move, the program did.
pub fn reference_spin_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = std::hint::black_box(1.0e-3f64);
    for _ in 0..crate::spec::HOST_SPIN_STEPS {
        x = x * 0.999_999_7 + 1e-9;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}
