//! `compile`: MF source → compiled program → Delirium graph → text →
//! parsed back, on one thread. The compiler crates do all the work and
//! the runtime and daemon none, so this workload is the control for
//! every runtime or daemon change, and its three program sizes expose
//! how the pairwise descriptor-interference tests scale.

use crate::gen::{fnv1a, mf_program, Rng};
use crate::harness::{RoundRec, Workload};
use crate::metrics::Layers;
use crate::spec::compile as spec;
use crate::stats::fastest;
use crate::sut;
use crate::trace::{durations_ns, per_round_ns, Span, Tracer, NO_SPAN};
use std::time::Instant;

/// Root span names, one per size class, fixed sources first.
const CLASS_SPANS: [&str; 4] = ["op.fixed", "op.small", "op.medium", "op.large"];

struct Source {
    text: String,
    /// Index into [`CLASS_SPANS`].
    class: usize,
    /// Hash of the Delirium text the op must produce: that of the
    /// set-up compile the interpreter oracle vouched for.
    expect_hash: u64,
}

/// The `compile` workload.
pub struct Compile {
    sources: Vec<Source>,
    tracer: Tracer,
}

/// The round's sources for `seed`: the five fixed ones, then the
/// generated ones class by class.
fn source_texts(seed: u64) -> Vec<(usize, String)> {
    let mut rng = Rng::new(seed);
    let mut out: Vec<(usize, String)> =
        sut::fixed_sources().into_iter().map(|text| (0, text)).collect();
    for (class, &(count, loops)) in spec::CLASSES.iter().enumerate() {
        for k in 0..count {
            let name = format!("gen_{loops}_{k}");
            out.push((class + 1, mf_program(&name, loops, spec::EXTENT, &mut rng)));
        }
    }
    out
}

/// Hash of a seed's whole input, for the reproducibility guard.
fn input_hash(seed: u64) -> u64 {
    let all: String = source_texts(seed).into_iter().map(|(_, t)| t).collect();
    fnv1a(all.as_bytes())
}

impl Workload for Compile {
    const ROUNDS: usize = spec::ROUNDS;

    fn setup(seed: u64, epoch: Instant) -> Result<Self, String> {
        if input_hash(seed) != input_hash(seed) || input_hash(seed) == input_hash(seed ^ 1) {
            return Err("guard: the seed does not determine the input".to_string());
        }
        // One thread: it stays on one CPU.
        crate::host::pin(Some(1))?;
        let mut tracer = Tracer::new(epoch);
        let mut sources = Vec::new();
        for (i, (class, text)) in source_texts(seed).into_iter().enumerate() {
            sut::transformation_preserves_semantics(&text, seed.wrapping_add(i as u64))
                .map_err(|e| format!("oracle, source {i}: {e}"))?;
            let expect = sut::compile_op(&text, &mut tracer, NO_SPAN, 0)
                .map_err(|e| format!("source {i} does not compile: {e}"))?;
            if class > 0 && expect.pieces < 3 {
                return Err(format!("guard: generated source {i} gives split nothing to do"));
            }
            let expect_hash = fnv1a(expect.delirium.as_bytes());
            sources.push(Source { text, class, expect_hash });
        }
        let mut wl = Compile { sources, tracer };
        let mut rec = RoundRec { ops: vec![None; wl.ops_per_round()] };
        for _ in 0..crate::spec::WARMUP_ROUNDS {
            wl.round(0, false, &mut rec);
        }
        if rec.ops.iter().any(Option::is_none) {
            return Err("an op failed during warm-up".to_string());
        }
        Ok(wl)
    }

    fn ops_per_round(&self) -> usize {
        self.sources.len()
    }

    fn guards(&self) -> &str {
        "the seed determines the input; every generated source splits into 3 or more pieces"
    }

    fn round(&mut self, round: u64, traced: bool, rec: &mut RoundRec) {
        self.tracer.set_on(traced);
        let n = self.sources.len() as u64;
        for (i, src) in self.sources.iter().enumerate() {
            let op = round * n + i as u64;
            let t0 = Instant::now();
            let root = self.tracer.begin(CLASS_SPANS[src.class], NO_SPAN, op);
            let out = if traced {
                sut::compile_op_by_pass(&src.text, &mut self.tracer, root, op)
            } else {
                sut::compile_op(&src.text, &mut self.tracer, root, op)
            };
            self.tracer.end(root);
            let ok = out.is_ok_and(|o| fnv1a(o.delirium.as_bytes()) == src.expect_hash);
            rec.record(i, ok, t0);
        }
        self.tracer.set_on(false);
    }

    fn verify(&mut self, _rec: &mut RoundRec) {}

    fn teardown(self) -> Tracer {
        self.tracer
    }

    fn layers(seed: u64, spans: &[Span], out: &mut Layers) -> Result<u64, String> {
        let texts = source_texts(seed);
        let ops = texts.len() as u64;
        for (metric, span) in [
            ("lang.parse_ms", "lang.parse"),
            ("lang.check_ms", "lang.check"),
            ("analysis.analyze_ms", "analysis.analyze"),
            ("descriptors.build_ms", "descriptors.build"),
            ("split.pipeline_ms", "split.pipeline"),
            ("split.split_ms", "split.split"),
            ("core.compile_ms", "core.compile"),
            ("core.graph_ms", "core.graph"),
            ("delirium.print_ms", "delirium.print"),
            ("delirium.parse_ms", "delirium.parse"),
        ] {
            out.set(metric, fastest(&per_round_ns(spans, span, ops)) * 1e-6);
        }
        out.set(
            "core.large_over_small",
            fastest(&durations_ns(spans, "op.large")) / fastest(&durations_ns(spans, "op.small")),
        );
        // Exact counts: what one round reads and writes.
        let mut tracer = Tracer::new(Instant::now());
        let (mut nodes, mut pieces, mut text_bytes) = (0, 0, 0);
        for (_, text) in &texts {
            let o = sut::compile_op(text, &mut tracer, NO_SPAN, 0)?;
            nodes += o.nodes;
            pieces += o.pieces;
            text_bytes += o.delirium.len();
        }
        out.set("lang.source_bytes", texts.iter().map(|(_, t)| t.len()).sum::<usize>() as f64);
        out.set("core.graph_nodes", nodes as f64);
        out.set("split.pieces", pieces as f64);
        out.set("delirium.text_bytes", text_bytes as f64);
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_source_passes_the_oracle_and_compiles_the_same_both_ways() {
        for seed in [0, 1, 7] {
            let mut tracer = Tracer::new(Instant::now());
            for (i, (_, text)) in source_texts(seed).into_iter().enumerate() {
                sut::transformation_preserves_semantics(&text, seed + i as u64)
                    .unwrap_or_else(|e| panic!("seed {seed}, source {i}: {e}\n{text}"));
                let whole = sut::compile_op(&text, &mut tracer, NO_SPAN, 0).unwrap();
                let by_pass = sut::compile_op_by_pass(&text, &mut tracer, NO_SPAN, 0).unwrap();
                assert_eq!(whole.delirium, by_pass.delirium, "seed {seed}, source {i}");
            }
        }
    }

    #[test]
    fn the_seed_determines_the_input() {
        assert_eq!(input_hash(3), input_hash(3));
        assert_ne!(input_hash(3), input_hash(4));
    }
}
