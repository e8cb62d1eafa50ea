//! Communication granularity for pipelined operation pairs (§4.1).
//!
//! "Finally, we combined finishing time estimates with runtime
//! communication cost estimates to choose communication granularity for
//! pairs of pipelined parallel operations."
//!
//! A producer streams `n` items of `item_bytes` each to a consumer.
//! Batching `b` items per message trades per-message latency `α`
//! against pipeline fill delay (the consumer waits for whole batches):
//!
//! ```text
//! cost(b) = (n/b)·α  +  b·item_bytes·β  +  transfer(n)
//! ```
//!
//! The first term is total message latency, the second the fill delay
//! of one batch (the steady-state transfer of all bytes is paid
//! regardless). The optimum is `b* = √(n·α / (β·item_bytes))`, clamped
//! to `[1, n]`.
//!
//! Every function takes the per-message latency `alpha` (µs) and the
//! per-byte cost `beta` (µs/B) explicitly: the simulator passes its
//! `MachineConfig`'s, the real backends the host's measured
//! [`HostCalibration`](crate::finish::HostCalibration) — one decision
//! procedure, so the two cannot silently diverge in *how* they pick
//! b\*, only in the costs they feed it.

/// The latency-vs-fill cost of streaming `n` items batched `b` at a
/// time (µs): total per-message latency plus the fill delay of one
/// batch. The steady-state byte-transfer time `n·item_bytes·β` is paid
/// regardless of batching and is accounted separately by
/// `pipelined_stage_time`.
pub fn batch_cost(n: usize, item_bytes: u64, b: usize, alpha: f64, beta: f64) -> f64 {
    let b = b.clamp(1, n.max(1));
    let msgs = (n as f64 / b as f64).ceil();
    let fill = b as f64 * item_bytes as f64 * beta;
    msgs * alpha + fill
}

/// Chooses the batch size minimizing [`batch_cost`].
///
/// Evaluates the analytic optimum and its neighbours (the cost is
/// unimodal in `b`, but integer rounding matters near the minimum).
pub fn choose_batch(n: usize, item_bytes: u64, alpha: f64, beta: f64) -> usize {
    if n <= 1 {
        return n.max(1);
    }
    if beta <= 0.0 || item_bytes == 0 {
        return n; // latency-only: one big message
    }
    if alpha <= 0.0 {
        return 1; // bandwidth-only: stream item by item
    }
    let ideal = (n as f64 * alpha / (beta * item_bytes as f64)).sqrt();
    let mut best = 1usize;
    let mut best_cost = f64::INFINITY;
    // The even-divisor batch near the ideal avoids a ragged final
    // message (⌈n/b⌉ jumps at divisor boundaries).
    let msgs = (n as f64 / ideal.max(1.0)).ceil().max(1.0) as usize;
    let even = n.div_ceil(msgs);
    let even_fewer = n.div_ceil(msgs.saturating_sub(1).max(1));
    let candidates = [
        1,
        ideal.floor().max(1.0) as usize,
        ideal.ceil() as usize,
        even,
        even_fewer,
        (ideal * 2.0) as usize,
        (ideal / 2.0).max(1.0) as usize,
        n,
    ];
    for &b in &candidates {
        let b = b.clamp(1, n);
        let c = batch_cost(n, item_bytes, b, alpha, beta);
        if c < best_cost {
            best_cost = c;
            best = b;
        }
    }
    best
}

/// The pipeline-throughput estimate for a producer/consumer pair
/// exchanging `n` items at batch size `b`: per-iteration overlap-aware
/// latency added to the slower stage — also the overlapped-stage
/// estimate the real backends' finishing-time equalizer uses for
/// streamed producer→consumer pairs.
pub(crate) fn pipelined_stage_time(
    producer_time: f64,
    consumer_time: f64,
    n: usize,
    item_bytes: u64,
    b: usize,
    alpha: f64,
    beta: f64,
) -> f64 {
    // Steady state: compute of both stages and the byte stream overlap;
    // the slowest of the three paces the pipeline.
    let stream = n as f64 * item_bytes as f64 * beta;
    // The fill of one batch (latency + its bytes) cannot overlap.
    let fill = b.clamp(1, n.max(1)) as f64 * item_bytes as f64 * beta + alpha;
    producer_time.max(consumer_time).max(stream) + fill
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_machine::MachineConfig;

    #[test]
    fn latency_dominant_favors_big_batches() {
        let mut cfg = MachineConfig::ncube2(2);
        cfg.alpha = 10_000.0;
        cfg.beta = 0.001;
        let b = choose_batch(1024, 8, cfg.alpha, cfg.beta);
        assert!(b > 256, "huge α should batch aggressively, got {b}");
    }

    #[test]
    fn bandwidth_dominant_favors_small_batches() {
        let mut cfg = MachineConfig::ncube2(2);
        cfg.alpha = 1.0;
        cfg.beta = 50.0;
        let b = choose_batch(1024, 1024, cfg.alpha, cfg.beta);
        assert!(b <= 2, "huge β should stream, got {b}");
    }

    #[test]
    fn chosen_batch_is_no_worse_than_endpoints() {
        let cfg = MachineConfig::ncube2(2);
        for n in [16, 256, 4096] {
            let (a, b) = (cfg.alpha, cfg.beta);
            let best = choose_batch(n, 64, a, b);
            let c = batch_cost(n, 64, best, a, b);
            assert!(c <= batch_cost(n, 64, 1, a, b) + 1e-9);
            assert!(c <= batch_cost(n, 64, n, a, b) + 1e-9);
        }
    }

    #[test]
    fn degenerate_inputs() {
        let cfg = MachineConfig::ncube2(2);
        assert_eq!(choose_batch(0, 64, cfg.alpha, cfg.beta), 1);
        assert_eq!(choose_batch(1, 64, cfg.alpha, cfg.beta), 1);
        let ideal = MachineConfig::ideal(2);
        assert_eq!(choose_batch(100, 64, ideal.alpha, ideal.beta), 100, "free comm → one message");
    }

    #[test]
    fn pipelined_time_bounded_below_by_slowest_stage() {
        let cfg = MachineConfig::ncube2(2);
        let t = pipelined_stage_time(5_000.0, 3_000.0, 256, 64, 16, cfg.alpha, cfg.beta);
        assert!(t >= 5_000.0);
        // And not absurdly larger when comm is cheap relative to compute.
        assert!(t < 5_000.0 + 10_000.0);
    }
}
