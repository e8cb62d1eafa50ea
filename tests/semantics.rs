//! Property tests: the split and pipelining transformations are
//! semantics-preserving. The MF interpreter runs the original and
//! transformed programs on random inputs and the final stores must
//! agree.

use orchestra_core::{compile, Compiled};
use orchestra_lang::ast::Program;
use orchestra_lang::builder::{figure1_program, figure4_program};
use orchestra_lang::interp::{Env, Interp, Value};
use orchestra_lang::parse_program;
use orchestra_split::SplitOptions;
use proptest::prelude::*;

/// Runs `prog` and its compiled transformation on the given inputs and
/// compares every declared variable. An undeclared loop variable is loop
/// machinery; its exit value is not preserved (nor by the paper's
/// transformation). Returns the compilation.
fn assert_equivalent(prog: &Program, inputs: &Env) -> Compiled {
    let compiled = compile(prog.clone(), &SplitOptions::default());
    let e1 = Interp::new().run(prog, inputs).expect("original runs");
    let e2 = Interp::new().run(&compiled.transformed, inputs).expect("transformed runs");
    for d in &prog.decls {
        let name = &d.name;
        let (v, got) = (&e1[name.as_str()], &e2[name.as_str()]);
        match (v, got) {
            (Value::FloatArray { data: a, .. }, Value::FloatArray { data: b, .. }) => {
                for (i, (x, y)) in a.iter().zip(b).enumerate() {
                    prop_assert_close(name, i, *x, *y);
                }
            }
            (Value::Float(a), Value::Float(b)) => prop_assert_close(name, 0, *a, *b),
            _ => assert_eq!(v, got, "{name}"),
        }
    }
    compiled
}

fn prop_assert_close(name: &str, i: usize, x: f64, y: f64) {
    assert!((x - y).abs() <= 1e-9 * (1.0 + x.abs()), "{name}[{i}]: {x} vs {y}");
}

fn float_array(n: usize, seedish: &[f64]) -> Value {
    Value::FloatArray { dims: vec![(1, n as i64)], data: seedish.to_vec() }
}

/// `A` writes `x` under a mask and `B` reads it, so `B` is split by the
/// mask unless a reduction accumulator in its body is used elsewhere.
fn accumulator_program(s_body: &str) -> Program {
    parse_program(&format!(
        "program t
  integer n = 6, s = 1
  integer mask[1..n]
  float x[1..n], q[1..n], y[1..n]
  A: do i = 1, n where (mask[i] <> 0) {{ x[i] = q[i] + 1.0 }}
  B: do j = 1, n {{
    {s_body}
  }}
end"
    ))
    .expect("parses")
}

fn accumulator_inputs() -> Env {
    let mut inputs = Env::new();
    inputs.insert(
        "mask".into(),
        Value::IntArray { dims: vec![(1, 6)], data: vec![1, 0, 1, 0, 0, 1] },
    );
    inputs.insert("q".into(), float_array(6, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]));
    inputs
}

/// A reduction accumulator read by an inner loop's step was not seen as
/// read: `B` split into `B_I`/`B_D`/`B_M`, each piece stepping by its own
/// partial product, and `y` read `[9,7,11,5,1,13]` against `[9,5,7,1,1,13]`.
#[test]
fn an_accumulator_used_as_a_step_keeps_its_loop_whole() {
    for inner in ["do k = 1, 8, s", "do k = s, 8"] {
        let prog = accumulator_program(&format!("s = s * 2\n {inner} {{ y[j] = x[j] * 2.0 + k }}"));
        let compiled = assert_equivalent(&prog, &accumulator_inputs());
        let split = compiled.split.expect("B is split against A");
        assert!(split.loop_splits.is_empty(), "{inner}: {:?}", split.loop_splits);
    }
    // The same body with a literal step is a reduction, and it splits.
    let prog = accumulator_program("s = s * 2\n do k = 1, 8, 2 { y[j] = x[j] * 2.0 + k }");
    let compiled = assert_equivalent(&prog, &accumulator_inputs());
    assert_eq!(compiled.split.expect("B is split against A").loop_splits, ["B"]);
}

/// A loop over a reduction accumulator was not seen at all: `B` split,
/// the inner loop kept writing the original `s`, and the merge then added
/// both partial sums to it, so `s` ended at 32 instead of 2.
#[test]
fn an_accumulator_reused_as_a_loop_variable_keeps_its_loop_whole() {
    let prog = accumulator_program("s = s + 5\n do s = 1, 2 { y[j] = x[j] * 2.0 }");
    let compiled = assert_equivalent(&prog, &accumulator_inputs());
    assert!(compiled.split.expect("B is split against A").loop_splits.is_empty());
    let e = Interp::new().run(&compiled.transformed, &accumulator_inputs()).unwrap();
    assert_eq!(e["s"], Value::Int(2));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Figure 1 (split of B + pipeline of A) over random sizes, masks,
    /// and data.
    #[test]
    fn figure1_transformation_preserves_semantics(
        n in 3usize..10,
        mask_bits in proptest::collection::vec(0i64..2, 10),
        data in proptest::collection::vec(-8.0f64..8.0, 100),
    ) {
        let prog = figure1_program(n as i64);
        let mut inputs = Env::new();
        inputs.insert(
            "mask".into(),
            Value::IntArray {
                dims: vec![(1, n as i64)],
                data: mask_bits[..n].to_vec(),
            },
        );
        inputs.insert(
            "q".into(),
            Value::FloatArray {
                dims: vec![(1, n as i64), (1, n as i64)],
                data: data[..n * n].to_vec(),
            },
        );
        assert_equivalent(&prog, &inputs);
    }

    /// Figure 4 (split of the reduction loop H) over random sizes,
    /// split rows, and data.
    #[test]
    fn figure4_transformation_preserves_semantics(
        n in 3usize..9,
        a_frac in 0.0f64..1.0,
        x in proptest::collection::vec(-4.0f64..4.0, 81),
        y in proptest::collection::vec(-4.0f64..4.0, 9),
    ) {
        let a = 1 + ((n - 1) as f64 * a_frac) as i64;
        let prog = figure4_program(n as i64, a);
        let mut inputs = Env::new();
        inputs.insert(
            "x".into(),
            Value::FloatArray {
                dims: vec![(1, n as i64), (1, n as i64)],
                data: x[..n * n].to_vec(),
            },
        );
        inputs.insert("y".into(), float_array(n, &y[..n]));
        assert_equivalent(&prog, &inputs);
    }

    /// The app kernels (all four share the Figure 1 interaction shape
    /// at different names) also transform correctly. Sizes are fixed by
    /// the kernels; the data is random.
    #[test]
    fn app_kernels_preserve_semantics(which in 0usize..4, seed in 0u64..50) {
        use rand::{Rng, SeedableRng};
        let kernel = match which {
            0 => orchestra_apps::psirrfan::kernel(),
            1 => orchestra_apps::climate::kernel(),
            2 => orchestra_apps::emu::kernel(),
            _ => orchestra_apps::vortex::kernel(),
        };
        // Find the mask array (integer array) and the main 2-D array.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut inputs = Env::new();
        let probe = Interp::new().run(&kernel, &Env::new()).expect("kernel runs");
        for (name, v) in &probe {
            match v {
                Value::IntArray { dims, data } => {
                    inputs.insert(
                        name.clone(),
                        Value::IntArray {
                            dims: dims.clone(),
                            data: data.iter().map(|_| rng.gen_range(0..2)).collect(),
                        },
                    );
                }
                Value::FloatArray { dims, data } => {
                    inputs.insert(
                        name.clone(),
                        Value::FloatArray {
                            dims: dims.clone(),
                            data: data.iter().map(|_| rng.gen_range(-4.0..4.0)).collect(),
                        },
                    );
                }
                _ => {}
            }
        }
        assert_equivalent(&kernel, &inputs);
    }
}
