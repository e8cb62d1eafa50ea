//! CPU affinity for the worker pool.
//!
//! Under [`pin_workers`](crate::executor::ExecutorOptions::pin_workers)
//! worker `w` of an `n`-CPU caller pins itself to the `w mod n`-th CPU
//! of the calling thread's [`Affinity`] mask, so a pinned pool never
//! leaves the CPUs its caller was confined to. The pool reads no
//! machine hierarchy: the paper's distributed TAPER knows no NUMA
//! preference, and workers steal round a flat ring.
//!
//! The libc symbols are declared directly (std already links libc on
//! Linux), so this adds no dependency. Pinning failures are reported,
//! never fatal: a worker whose pin the kernel refuses runs floating.

/// Words of an [`Affinity`] mask: 1024 bits, the size of glibc's
/// `cpu_set_t`.
const AFFINITY_WORDS: usize = 1024 / 64;

/// The set of CPUs a thread may run on, bit `c` of the mask for CPU
/// `c`. On other platforms than Linux nothing can be read or applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Affinity([u64; AFFINITY_WORDS]);

impl Affinity {
    /// The calling thread's mask (`sched_getaffinity`), or `None` where
    /// it cannot be read.
    pub fn current() -> Option<Affinity> {
        #[cfg(target_os = "linux")]
        {
            extern "C" {
                fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
            }
            let mut mask = [0u64; AFFINITY_WORDS];
            // SAFETY: pid 0 is the calling thread; the kernel writes at
            // most `cpusetsize` bytes, which is the size of `mask`.
            let ok = unsafe { sched_getaffinity(0, AFFINITY_WORDS * 8, mask.as_mut_ptr()) == 0 };
            ok.then_some(Affinity(mask))
        }
        #[cfg(not(target_os = "linux"))]
        None
    }

    /// Confines the calling thread to this mask (`sched_setaffinity`),
    /// returning whether the kernel accepted it.
    pub fn apply(&self) -> bool {
        #[cfg(target_os = "linux")]
        {
            extern "C" {
                fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
            }
            // SAFETY: pid 0 is the calling thread; the kernel reads
            // `cpusetsize` bytes, which is the size of the mask.
            unsafe { sched_setaffinity(0, AFFINITY_WORDS * 8, self.0.as_ptr()) == 0 }
        }
        #[cfg(not(target_os = "linux"))]
        false
    }

    /// The CPUs in the mask, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..AFFINITY_WORDS * 64).filter(|&c| self.0[c / 64] & (1u64 << (c % 64)) != 0).collect()
    }
}

/// Pins the calling thread to one logical CPU, returning whether the
/// kernel accepted it; on other platforms than Linux, or for CPU ids
/// past the mask width, it returns `false` and the caller runs
/// unpinned.
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= AFFINITY_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; AFFINITY_WORDS];
    mask[cpu / 64] |= 1u64 << (cpu % 64);
    Affinity(mask).apply()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_to_the_first_allowed_cpu_succeeds_on_linux() {
        // Elsewhere no mask can be read and the pool runs unpinned.
        let Some(before) = Affinity::current() else {
            if cfg!(target_os = "linux") {
                panic!("sched_getaffinity works on Linux");
            }
            return;
        };
        assert!(pin_current_thread(before.cpus()[0]));
        // An absurd CPU id must fail gracefully, not crash.
        assert!(!pin_current_thread(1 << 20));
        assert!(before.apply(), "the test thread gets its mask back");
    }

    #[test]
    fn a_pin_reads_back_as_its_one_cpu() {
        let Some(before) = Affinity::current() else { return };
        let cpu = *before.cpus().last().expect("a thread runs on some CPU");
        assert!(pin_current_thread(cpu));
        assert_eq!(Affinity::current().map(|m| m.cpus()), Some(vec![cpu]));
        assert!(before.apply(), "the test thread gets its mask back");
    }
}
