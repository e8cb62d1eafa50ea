//! The end-to-end compilation pipeline.
//!
//! Mirrors the paper's §3.4 compiler outputs for an MF program:
//!
//! 1. the **transformed source** — split and pipelining applied,
//!    sequentially equivalent to the input;
//! 2. a **Delirium dataflow graph** summarizing the exposed
//!    parallelism;
//! 3. **annotations** — symbolic loop bounds and data sizes the runtime
//!    uses for its scheduling estimates.
//!
//! The driver walks the top-level labeled loops: the first labeled loop
//! is treated as the *reference computation* `A` (pipelined against its
//! own previous iteration), and the remaining statements are split with
//! respect to `A`'s descriptor — exactly the transformation sequence of
//! the paper's §2 example.

use orchestra_analysis::{analyze_program, AnalyzedProgram};
use orchestra_descriptors::{loop_iteration_descriptor, SymCtx};
use orchestra_lang::ast::{Program, Stmt};
use orchestra_lang::{parse_program, LangError};
use orchestra_split::{
    pipeline_iterations, split_in, PieceClass, PipelineResult, SplitOptions, SplitResult,
};

/// Everything the compiler produces for one program.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The original program.
    pub original: Program,
    /// The transformed program (split + pipelining applied),
    /// semantically equivalent to the original.
    pub transformed: Program,
    /// The pipelining of the reference loop, when one was found and
    /// pipelining exposed concurrency.
    pub pipeline: Option<PipelineResult>,
    /// The split of the trailing computation against the reference
    /// loop's descriptor.
    pub split: Option<SplitResult>,
    /// The full symbolic analysis (SSA, values, assertions, call
    /// groups) of the original program. Compiling only copies the
    /// program into it; the analysis runs when an accessor is first
    /// read, since the descriptors and the split build their own
    /// context and read none of it.
    pub analysis: AnalyzedProgram,
}

impl Compiled {
    /// Names of the split pieces in execution order.
    pub fn piece_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(p) = &self.pipeline {
            out.extend(p.split.pieces.iter().map(|x| x.name.clone()));
        }
        if let Some(s) = &self.split {
            out.extend(s.pieces.iter().map(|x| x.name.clone()));
        }
        out
    }

    /// True when any concurrency was exposed.
    pub fn exposed_concurrency(&self) -> bool {
        self.pipeline.as_ref().is_some_and(|p| p.exposed_concurrency())
            || self.split.as_ref().is_some_and(|s| {
                s.has_independent_work()
                    && (!s.loop_splits.is_empty() || !s.moved_read_linked.is_empty())
            })
    }
}

/// Errors from compilation.
#[derive(Debug)]
pub enum CompileError {
    /// The source failed to parse.
    Lang(LangError),
    /// The program failed semantic checking.
    Semantic(Vec<orchestra_lang::CheckError>),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Lang(e) => write!(f, "{e}"),
            CompileError::Semantic(errs) => {
                write!(f, "semantic errors:")?;
                for e in errs {
                    write!(f, " {e};")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<LangError> for CompileError {
    fn from(e: LangError) -> Self {
        CompileError::Lang(e)
    }
}

/// Compiles MF source text, running the semantic checker first.
///
/// # Errors
///
/// Returns [`CompileError::Lang`] on parse errors and
/// [`CompileError::Semantic`] when the program fails static checking.
pub fn compile_source(src: &str, opts: &SplitOptions) -> Result<Compiled, CompileError> {
    let prog = parse_program(src)?;
    let errors = orchestra_lang::check_program(&prog);
    if !errors.is_empty() {
        return Err(CompileError::Semantic(errors));
    }
    Ok(compile(prog, opts))
}

/// Compiles a parsed program.
pub fn compile(original: Program, opts: &SplitOptions) -> Compiled {
    let analysis = analyze_program(&original);

    // Find the reference computation: the first labeled top-level loop.
    let ref_idx = original.body.iter().position(|s| matches!(s, Stmt::Do { label: Some(_), .. }));

    let Some(ref_idx) = ref_idx else {
        return Compiled {
            transformed: original.clone(),
            original,
            pipeline: None,
            split: None,
            analysis,
        };
    };

    // The reference loop's iteration descriptor, in the declarations'
    // context, serves both its pipelining and its whole-loop descriptor.
    let ref_stmt = &original.body[ref_idx];
    let ctx = SymCtx::from_program(&original);
    let ref_iter =
        loop_iteration_descriptor(ref_stmt, &ctx).expect("the reference computation is a loop");
    let d_ref = ref_iter.whole_loop();

    // Pipeline the reference loop against its own previous iteration.
    let pipeline = pipeline_iterations(&original, &ctx, ref_stmt, &ref_iter, 1, opts)
        .filter(|p| p.exposed_concurrency());

    // Split everything after the reference loop against its descriptor.
    let tail = &original.body[ref_idx + 1..];
    let split = (!tail.is_empty()).then(|| split_in(&original, &ctx, tail, &d_ref, opts));

    // Assemble the transformed program, copying only what it keeps of
    // the original.
    let mut decls = original.decls.clone();
    let mut body = original.body[..ref_idx].to_vec();
    match &pipeline {
        Some(p) => {
            decls.extend(p.new_decls.iter().cloned());
            body.push(p.transformed.clone());
        }
        None => body.push(ref_stmt.clone()),
    }
    match &split {
        Some(s) => {
            decls.extend(s.new_decls.iter().cloned());
            body.extend(s.pieces.iter().flat_map(|p| p.stmts.iter().cloned()));
        }
        None => body.extend(tail.iter().cloned()),
    }
    let transformed =
        Program { name: original.name.clone(), decls, procs: original.procs.clone(), body };

    Compiled { original, transformed, pipeline, split, analysis }
}

/// The classes of a compiled program's pieces, convenient for reports.
pub fn summarize_pieces(c: &Compiled) -> Vec<(String, &'static str)> {
    let class_name = |cl: PieceClass| match cl {
        PieceClass::Independent => "independent",
        PieceClass::Dependent => "dependent",
        PieceClass::Merge => "merge",
    };
    let mut out = Vec::new();
    if let Some(p) = &c.pipeline {
        for piece in &p.split.pieces {
            out.push((format!("{}::{}", p.loop_name, piece.name), class_name(piece.class)));
        }
    }
    if let Some(s) = &c.split {
        for piece in &s.pieces {
            out.push((piece.name.clone(), class_name(piece.class)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_lang::builder::figure1_program;
    use orchestra_lang::interp::{Env, Interp, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn compiles_figure1_end_to_end() {
        let c = compile(figure1_program(8), &SplitOptions::default());
        assert!(c.exposed_concurrency());
        assert!(c.pipeline.is_some(), "A pipelines");
        let s = c.split.as_ref().unwrap();
        assert_eq!(s.loop_splits, vec!["B"]);
        let names = c.piece_names();
        assert!(names.iter().any(|n| n == "B_I"));
        assert!(names.iter().any(|n| n.ends_with("_M")));
    }

    #[test]
    fn transformed_program_is_equivalent() {
        let orig = figure1_program(8);
        let c = compile(orig.clone(), &SplitOptions::default());
        let mut rng = StdRng::seed_from_u64(77);
        let mut inputs = Env::new();
        inputs.insert(
            "mask".into(),
            Value::IntArray {
                dims: vec![(1, 8)],
                data: (0..8).map(|_| rng.gen_range(0..2)).collect(),
            },
        );
        inputs.insert(
            "q".into(),
            Value::FloatArray {
                dims: vec![(1, 8), (1, 8)],
                data: (0..64).map(|_| rng.gen_range(-10..10) as f64 * 0.5).collect(),
            },
        );
        let e1 = Interp::new().run(&orig, &inputs).unwrap();
        let e2 = Interp::new().run(&c.transformed, &inputs).unwrap();
        for key in ["q", "output", "result"] {
            assert_eq!(e1[key], e2[key], "{key} differs");
        }
    }

    #[test]
    fn program_without_labeled_loop_passes_through() {
        let src = "program p\n integer a\n a = 1\nend";
        let c = compile_source(src, &SplitOptions::default()).unwrap();
        assert!(c.pipeline.is_none());
        assert!(c.split.is_none());
        assert_eq!(c.original, c.transformed);
    }

    #[test]
    fn parse_error_propagates() {
        assert!(compile_source("program p\n integer = 1\nend", &SplitOptions::default()).is_err());
    }

    #[test]
    fn semantic_error_propagates() {
        let err = compile_source("program p\n integer a\n a = b\nend", &SplitOptions::default())
            .unwrap_err();
        assert!(matches!(err, CompileError::Semantic(_)));
        assert!(err.to_string().contains("not declared"));
    }

    #[test]
    fn transformed_output_passes_the_checker() {
        // Split/pipelining must emit well-formed programs: every
        // replicated array/accumulator declared, ranks correct.
        let c = compile(figure1_program(8), &SplitOptions::default());
        assert_eq!(orchestra_lang::check_program(&c.transformed), vec![]);
    }

    #[test]
    fn summary_lists_classes() {
        let c = compile(figure1_program(6), &SplitOptions::default());
        let summary = summarize_pieces(&c);
        assert!(summary.iter().any(|(n, cl)| n == "B_I" && *cl == "independent"));
        assert!(summary.iter().any(|(n, cl)| n == "B_D" && *cl == "dependent"));
        assert!(summary.iter().any(|(n, cl)| n == "B_M" && *cl == "merge"));
    }

    /// `A` counts down by a step held in a scalar and writes all of `x`,
    /// which `B` reads: `B` depends on `A` exactly as with the literal
    /// step (taken for +1, the step made `A` write nothing and `B`
    /// independent).
    #[test]
    fn a_loop_reading_what_a_scalar_stepped_loop_writes_depends_on_it() {
        for step in ["-1", "s"] {
            let src = format!(
                "program t\n integer n = 8, s = -1\n float x[1..n], q[1..n], y[1..n]\n A: do i = n, 1, {step} {{ x[i] = q[i] + 1.0 }}\n B: do j = 1, n {{ y[j] = x[j] * 2.0 }}\nend"
            );
            let c = compile_source(&src, &SplitOptions::default()).unwrap();
            let summary = summarize_pieces(&c);
            assert!(summary.contains(&("B".to_string(), "dependent")), "step {step}: {summary:?}");
        }
    }

    /// A serving daemon holds one `Compiled` per cached plan, reached
    /// from every connection's thread.
    #[test]
    fn compiled_is_send_and_sync() {
        fn shared_across_threads<T: Send + Sync>() {}
        shared_across_threads::<Compiled>();
    }

    #[test]
    fn analysis_is_included() {
        let c = compile(figure1_program(4), &SplitOptions::default());
        assert!(!c.analysis.ssa().cfg.loops.is_empty());
        assert!(c.analysis.aliases().is_clean());
    }
}
