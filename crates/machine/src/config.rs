//! Machine model configuration.
//!
//! The paper's testbed is an nCUBE-2: a distributed-memory hypercube
//! with up to 1024 processors. The simulator reproduces the decision
//! environment of the runtime system: per-message latency, per-byte
//! bandwidth cost, per-hop routing delay, and per-scheduling-event
//! overhead. All times are microseconds.

use std::fmt;

/// Interconnect topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Hypercube: distance = Hamming distance of processor ids (the
    /// nCUBE-2 interconnect).
    Hypercube,
    /// Uniform distance 1 between distinct processors.
    FullyConnected,
}

/// Simulated machine parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of processors (`p`).
    pub processors: usize,
    /// Interconnect topology.
    pub topology: Topology,
    /// Per-message software latency (µs). The nCUBE-2's was ≈ 100 µs.
    pub alpha: f64,
    /// Per-byte transfer time (µs/byte). ≈ 0.45 µs/byte on the nCUBE-2.
    pub beta: f64,
    /// Per-hop routing delay (µs).
    pub hop: f64,
    /// Overhead charged per scheduling event (chunk dispatch), µs.
    pub sched_overhead: f64,
}

impl MachineConfig {
    /// An nCUBE-2-like configuration with `p` processors.
    ///
    /// # Panics
    ///
    /// Panics if `p` is zero.
    pub fn ncube2(p: usize) -> Self {
        assert!(p > 0, "machine needs at least one processor");
        MachineConfig {
            processors: p,
            topology: Topology::Hypercube,
            alpha: 100.0,
            beta: 0.45,
            hop: 5.0,
            sched_overhead: 20.0,
        }
    }

    /// An idealized machine with negligible communication (useful for
    /// isolating scheduling behaviour in tests).
    pub fn ideal(p: usize) -> Self {
        assert!(p > 0, "machine needs at least one processor");
        MachineConfig {
            processors: p,
            topology: Topology::FullyConnected,
            alpha: 0.0,
            beta: 0.0,
            hop: 0.0,
            sched_overhead: 0.0,
        }
    }

    /// Hop distance between two processors.
    pub(crate) fn distance(&self, a: usize, b: usize) -> u32 {
        if a == b {
            return 0;
        }
        match self.topology {
            Topology::Hypercube => (a ^ b).count_ones(),
            Topology::FullyConnected => 1,
        }
    }

    /// Time (µs) for a message of `bytes` from `a` to `b`.
    pub fn msg_time(&self, a: usize, b: usize, bytes: u64) -> f64 {
        if a == b {
            return 0.0;
        }
        self.alpha + self.beta * bytes as f64 + self.hop * self.distance(a, b) as f64
    }

    /// Diameter of the network in hops.
    pub fn diameter(&self) -> u32 {
        match self.topology {
            Topology::Hypercube => (usize::BITS
                - self.processors.next_power_of_two().leading_zeros())
            .saturating_sub(1),
            Topology::FullyConnected => 1,
        }
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}×{:?} (α={}µs β={}µs/B hop={}µs sched={}µs)",
            self.processors, self.topology, self.alpha, self.beta, self.hop, self.sched_overhead
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercube_distance_is_hamming() {
        let m = MachineConfig::ncube2(16);
        assert_eq!(m.distance(0b0000, 0b1111), 4);
        assert_eq!(m.distance(0b0101, 0b0100), 1);
        assert_eq!(m.distance(3, 3), 0);
    }

    #[test]
    fn msg_time_zero_for_self() {
        let m = MachineConfig::ncube2(8);
        assert_eq!(m.msg_time(2, 2, 1000), 0.0);
        assert!(m.msg_time(0, 1, 0) >= m.alpha);
    }

    #[test]
    fn msg_time_grows_with_bytes_and_distance() {
        let m = MachineConfig::ncube2(16);
        assert!(m.msg_time(0, 1, 100) < m.msg_time(0, 1, 10_000));
        assert!(m.msg_time(0, 1, 100) < m.msg_time(0, 15, 100));
    }

    #[test]
    fn diameter_of_hypercube() {
        assert_eq!(MachineConfig::ncube2(1024).diameter(), 10);
        assert_eq!(MachineConfig::ncube2(2).diameter(), 1);
        assert_eq!(MachineConfig::ideal(64).diameter(), 1);
    }

    #[test]
    fn ideal_machine_communicates_free() {
        let m = MachineConfig::ideal(4);
        assert_eq!(m.msg_time(0, 3, 1_000_000), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_panics() {
        MachineConfig::ncube2(0);
    }
}
