//! Pipelining loop iterations with split (§3.3.2, Figure 3).
//!
//! "To pipeline a loop with split, first the descriptor for one
//! iteration of the loop is computed. If the induction variable is `i`,
//! `D_{i-1}`, the descriptor for iteration `i-1`, is computed. Then the
//! loop body is split using `D_{i-1}`; the resulting independent
//! computation does not interfere with iteration `i-1`. … If deeper
//! pipelining is desired, the descriptor for iteration `i-2` can be
//! computed, etc."
//!
//! The transformed loop keeps sequential semantics (body =
//! `A_I; A_D; A_M; …` in order-preserving piece order); the exposed
//! pipelining — iteration `i`'s `A_I` may overlap iteration `i-1` — is
//! recorded in the result and consumed by the Delirium graph builder.

use crate::split::{split_in, SplitOptions, SplitResult};
use orchestra_descriptors::{loop_iteration_descriptor, Descriptor, LoopIteration, SymCtx};
use orchestra_lang::ast::{Decl, Name, Program, Stmt};

/// The result of pipelining one loop.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The loop's label (or a synthesized name).
    pub loop_name: String,
    /// Induction variable.
    pub var: Name,
    /// Pipeline depth used (number of previous iterations split
    /// against).
    pub depth: usize,
    /// The transformed loop, semantically equivalent to the original.
    pub transformed: Stmt,
    /// Replicated declarations to add to the program.
    pub new_decls: Vec<Decl>,
    /// The split of the body against the previous iteration(s).
    pub split: SplitResult,
}

impl PipelineResult {
    /// True when pipelining exposed concurrency (an independent piece
    /// exists and at least one loop was split).
    pub fn exposed_concurrency(&self) -> bool {
        self.split.has_independent_work()
            && (!self.split.loop_splits.is_empty() || !self.split.moved_read_linked.is_empty())
    }
}

/// Pipelines a loop to the given depth (≥ 1).
///
/// Returns `None` when `loop_stmt` is not a loop, its bounds are not
/// linearizable, or the body split exposes nothing (no independent
/// piece).
pub fn pipeline_loop(
    prog: &Program,
    loop_stmt: &Stmt,
    depth: usize,
    opts: &SplitOptions,
) -> Option<PipelineResult> {
    let ctx = SymCtx::from_program(prog);
    let iter = loop_iteration_descriptor(loop_stmt, &ctx)?;
    pipeline_iterations(prog, &ctx, loop_stmt, &iter, depth, opts)
}

/// [`pipeline_loop`] given `ctx`, the context of `prog`'s declarations
/// ([`SymCtx::from_program`]), and the loop's iteration descriptor in
/// it, for a caller that already holds them.
pub fn pipeline_iterations(
    prog: &Program,
    ctx: &SymCtx,
    loop_stmt: &Stmt,
    iter: &LoopIteration,
    depth: usize,
    opts: &SplitOptions,
) -> Option<PipelineResult> {
    let Stmt::Do { label, var, ranges, mask, body } = loop_stmt else { return None };
    let depth = depth.max(1);

    // D_{i-1} ∪ … ∪ D_{i-depth}.
    let mut d_prev = Descriptor::new();
    for k in 1..=depth {
        let shifted = iter.descriptor.subst(
            var,
            &orchestra_analysis::symbolic::SymExpr::name(iter.var.clone()).offset(-(k as i64)),
        );
        d_prev.union(shifted);
    }

    let split = split_in(prog, ctx, body, &d_prev, opts);
    if !split.has_independent_work() {
        return None;
    }

    let transformed = Stmt::Do {
        label: label.clone(),
        var: var.clone(),
        ranges: ranges.clone(),
        mask: mask.clone(),
        body: split.stmts(),
    };
    Some(PipelineResult {
        loop_name: label.as_deref().unwrap_or("loop").to_string(),
        var: var.clone(),
        depth,
        transformed,
        new_decls: split.new_decls.clone(),
        split,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::PieceClass;
    use orchestra_lang::builder::figure1_program;
    use orchestra_lang::interp::{Env, Interp, Value};
    use orchestra_lang::pretty::stmt_to_string;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pipelined_figure1(n: i64) -> (orchestra_lang::ast::Program, PipelineResult) {
        let p = figure1_program(n);
        let r = pipeline_loop(&p, &p.body[0], 1, &SplitOptions::default())
            .expect("figure 1's A pipelines");
        (p, r)
    }

    #[test]
    fn figure3_shape_discontinuous_range() {
        let (_, r) = pipelined_figure1(8);
        assert!(r.exposed_concurrency());
        // The independent piece contains the Figure 3 discontinuous
        // range do i = 1, col-2 and col, n.
        let ind = r.split.pieces.iter().filter(|p| p.class == PieceClass::Independent);
        let printed: String = ind.flat_map(|p| &p.stmts).map(stmt_to_string).collect();
        assert!(
            printed.contains("do i = 1, col - 1 - 1 and col - 1 + 1, n")
                || printed.contains("do i = 1, col - 2 and col, n"),
            "independent piece must iterate 1..col-2 and col..n:\n{printed}"
        );
    }

    #[test]
    fn figure3_pieces_named_after_inner_loop() {
        let (_, r) = pipelined_figure1(8);
        let names: Vec<&str> = r.split.pieces.iter().map(|p| p.name.as_str()).collect();
        // The body's first inner loop splits into I/D/M; the q-write
        // loop is dependent (NeedsBound on the merged result).
        assert!(names.iter().any(|n| n.ends_with("_I")));
        assert!(names.iter().any(|n| n.ends_with("_D")));
        assert!(names.iter().any(|n| n.ends_with("_M")));
    }

    #[test]
    fn pipelined_loop_is_semantics_preserving() {
        for n in [4, 8] {
            let (p, r) = pipelined_figure1(n);
            let mut p2 = p.clone();
            p2.decls.extend(r.new_decls.iter().cloned());
            p2.body[0] = r.transformed.clone();

            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut inputs = Env::new();
            let nn = n;
            inputs.insert(
                "mask".into(),
                Value::IntArray {
                    dims: vec![(1, nn)],
                    data: (0..nn).map(|_| rng.gen_range(0..2)).collect(),
                },
            );
            inputs.insert(
                "q".into(),
                Value::FloatArray {
                    dims: vec![(1, nn), (1, nn)],
                    data: (0..nn * nn).map(|_| rng.gen_range(-8..8) as f64 * 0.5).collect(),
                },
            );
            let e1 = Interp::new().run(&p, &inputs).unwrap();
            let e2 = Interp::new().run(&p2, &inputs).unwrap();
            for key in ["q", "output", "result"] {
                let (Value::FloatArray { data: a, .. }, Value::FloatArray { data: b, .. }) =
                    (&e1[key], &e2[key])
                else {
                    panic!()
                };
                for (x, y) in a.iter().zip(b) {
                    assert!((x - y).abs() < 1e-9, "{key}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn depth_two_excludes_both_points() {
        // Depth 2 splits against D_{i-1} ∪ D_{i-2}: the independent
        // piece must skip both col-1 and col-2 (multi-point exclusion).
        let p = figure1_program(8);
        let r = pipeline_loop(&p, &p.body[0], 2, &SplitOptions::default())
            .expect("depth-2 pipelining applies");
        assert_eq!(r.depth, 2);
        assert!(r.exposed_concurrency());
        let text = stmt_to_string(&r.transformed);
        assert!(
            text.contains("i <> col - 1") && text.contains("i <> col - 2"),
            "independent piece must exclude both previous iterations:\n{text}"
        );
    }

    #[test]
    fn depth_two_preserves_semantics() {
        for n in [5, 8] {
            let p = figure1_program(n);
            let r = pipeline_loop(&p, &p.body[0], 2, &SplitOptions::default())
                .expect("depth-2 pipelining applies");
            let mut p2 = p.clone();
            p2.decls.extend(r.new_decls.iter().cloned());
            p2.body[0] = r.transformed.clone();

            let mut rng = StdRng::seed_from_u64(n as u64 * 31);
            let mut inputs = Env::new();
            inputs.insert(
                "mask".into(),
                Value::IntArray {
                    dims: vec![(1, n)],
                    data: (0..n).map(|_| rng.gen_range(0..2)).collect(),
                },
            );
            inputs.insert(
                "q".into(),
                Value::FloatArray {
                    dims: vec![(1, n), (1, n)],
                    data: (0..n * n).map(|_| rng.gen_range(-8..8) as f64 * 0.5).collect(),
                },
            );
            let e1 = Interp::new().run(&p, &inputs).unwrap();
            let e2 = Interp::new().run(&p2, &inputs).unwrap();
            assert_eq!(e1.get("output"), e2.get("output"));
            assert_eq!(e1.get("q"), e2.get("q"));
        }
    }

    #[test]
    fn non_loop_returns_none() {
        let p = figure1_program(4);
        let s = orchestra_lang::builder::set("z", orchestra_lang::builder::int(1));
        assert!(pipeline_loop(&p, &s, 1, &SplitOptions::default()).is_none());
    }

    #[test]
    fn loop_without_carried_dependence_pipelines_trivially() {
        // Every iteration writes its own column; D_{i-1} never
        // conflicts, so the whole body is independent (Free) — the
        // runtime can run iterations fully concurrently.
        let p = orchestra_lang::parse_program(
            r#"
program p
  integer n = 4
  float w[1..n, 1..n]
  L: do c = 1, n {
    do i = 1, n {
      w[i, c] = 1.0
    }
  }
end
"#,
        )
        .unwrap();
        let r = pipeline_loop(&p, &p.body[0], 1, &SplitOptions::default()).unwrap();
        assert!(r.split.pieces.iter().all(|pc| pc.class == PieceClass::Independent));
        assert!(!r.exposed_concurrency(), "nothing needed splitting");
    }
}
