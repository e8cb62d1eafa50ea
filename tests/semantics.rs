//! Property tests: the split and pipelining transformations are
//! semantics-preserving. The MF interpreter runs the original and
//! transformed programs on random inputs and the final stores must
//! agree.

use orchestra_core::compile;
use orchestra_lang::ast::{Name, Program};
use orchestra_lang::builder::{figure1_program, figure4_program};
use orchestra_lang::interp::{Env, Interp, Value};
use orchestra_split::SplitOptions;
use proptest::prelude::*;

/// Runs `prog` and its compiled transformation on the given inputs and
/// compares every non-induction variable.
fn assert_equivalent(prog: &Program, inputs: &Env) {
    let compiled = compile(prog.clone(), &SplitOptions::default());
    let e1 = Interp::new().run(prog, inputs).expect("original runs");
    let e2 = Interp::new().run(&compiled.transformed, inputs).expect("transformed runs");
    let mut ivs = std::collections::BTreeSet::new();
    collect_ivs(&prog.body, &mut ivs);
    collect_ivs(&compiled.transformed.body, &mut ivs);
    for (name, v) in &e1 {
        if ivs.contains(name.as_str()) {
            continue;
        }
        let got = e2.get(name).unwrap_or_else(|| panic!("missing {name}"));
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
}

fn prop_assert_close(name: &str, i: usize, x: f64, y: f64) {
    assert!((x - y).abs() <= 1e-9 * (1.0 + x.abs()), "{name}[{i}]: {x} vs {y}");
}

fn collect_ivs(stmts: &[orchestra_lang::ast::Stmt], out: &mut std::collections::BTreeSet<Name>) {
    use orchestra_lang::ast::Stmt;
    for s in stmts {
        match s {
            Stmt::Do { var, body, .. } => {
                out.insert(var.clone());
                collect_ivs(body, out);
            }
            Stmt::If { then_body, else_body, .. } => {
                collect_ivs(then_body, out);
                collect_ivs(else_body, out);
            }
            _ => {}
        }
    }
}

fn float_array(n: usize, seedish: &[f64]) -> Value {
    Value::FloatArray { dims: vec![(1, n as i64)], data: seedish.to_vec() }
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
