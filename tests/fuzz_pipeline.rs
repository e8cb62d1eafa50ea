//! Whole-pipeline fuzzing: randomly generated (but well-formed by
//! construction) MF programs are pushed through every stage —
//! pretty-print round-trip, analysis (with SSA verification), dead code
//! elimination, descriptors, and the full split/pipeline compilation —
//! asserting the invariants each stage promises.

use orchestra_analysis::{analyze_program, collect_scalars, dce::eliminate_dead_code};
use orchestra_core::compile;
use orchestra_descriptors::{descriptor_of_stmts, SymCtx};
use orchestra_lang::ast::{BinOp, Decl, Expr, LValue, Name, Program, Range, Stmt, Type};
use orchestra_lang::interp::{Env, Interp, Value};
use orchestra_lang::{parse_program, pretty::pretty_print};
use orchestra_split::SplitOptions;
use proptest::prelude::*;

const N: i64 = 6; // every array is [1..N]; indices stay in range by construction

/// Expressions that always evaluate safely (no division, indices by the
/// loop variable only).
fn gen_value_expr(arrays: Vec<String>, ivar: String) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (-4i64..5).prop_map(Expr::IntLit),
        (-40i64..41).prop_map(|v| Expr::FloatLit(v as f64 * 0.25)),
        Just(Expr::var(ivar.clone())),
        proptest::sample::select(arrays.clone())
            .prop_map(move |a| Expr::index(a, vec![Expr::var(ivar.clone())])),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (
                inner.clone(),
                inner.clone(),
                prop_oneof![Just(BinOp::Add), Just(BinOp::Sub), Just(BinOp::Mul)]
            )
                .prop_map(|(l, r, op)| Expr::bin(op, l, r)),
            inner.prop_map(|e| Expr::Call("f".into(), vec![e])),
        ]
    })
    .boxed()
}

/// One random loop writing a designated output array.
fn gen_loop(arrays: Vec<String>, out: String, label: String, masked: bool) -> BoxedStrategy<Stmt> {
    let iv = format!("i_{label}");
    gen_value_expr(arrays, iv.clone())
        .prop_map(move |value| {
            let body = vec![Stmt::Assign {
                target: LValue::Index(out.clone().into(), vec![Expr::var(iv.clone())]),
                value,
            }];
            let mask = masked.then(|| {
                Expr::bin(
                    BinOp::Ne,
                    Expr::index("mask", vec![Expr::var(iv.clone())]),
                    Expr::IntLit(0),
                )
            });
            Stmt::Do {
                label: Some(label.clone().into()),
                var: iv.clone().into(),
                ranges: vec![Range::new(Expr::IntLit(1), Expr::var("n"))],
                mask,
                body,
            }
        })
        .boxed()
}

/// A random well-formed program: declarations, then 2–4 loops chained
/// through arrays (loop k may read arrays written by earlier loops).
fn gen_program() -> impl Strategy<Value = Program> {
    (2usize..5, any::<bool>(), any::<bool>()).prop_flat_map(|(nloops, mask_first, _)| {
        let mut loops: Vec<BoxedStrategy<Stmt>> = Vec::new();
        for k in 0..nloops {
            let readable: Vec<String> = (0..=k).map(|j| format!("a{j}")).collect(); // may read own output (reduction-ish is fine elementwise)
            let out = format!("a{}", k + 1);
            let label = format!("L{k}");
            loops.push(gen_loop(readable, out, label, k == 0 && mask_first));
        }
        loops.prop_map(move |body| {
            let mut p = Program::new("fuzz");
            p.decls.push(Decl::scalar_init("n", Type::Int, Expr::IntLit(N)));
            p.decls.push(Decl::array(
                "mask",
                Type::Int,
                vec![Range::new(Expr::IntLit(1), Expr::var("n"))],
            ));
            for j in 0..=nloops {
                p.decls.push(Decl::array(
                    format!("a{j}"),
                    Type::Float,
                    vec![Range::new(Expr::IntLit(1), Expr::var("n"))],
                ));
            }
            p.body = body;
            p
        })
    })
}

fn random_inputs(seed: u64) -> Env {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut env = Env::new();
    env.insert(
        "mask".into(),
        Value::IntArray { dims: vec![(1, N)], data: (0..N).map(|_| rng.gen_range(0..2)).collect() },
    );
    env.insert(
        "a0".into(),
        Value::FloatArray {
            dims: vec![(1, N)],
            data: (0..N).map(|_| rng.gen_range(-4.0..4.0)).collect(),
        },
    );
    env
}

fn stores_match(e1: &Env, e2: &Env, skip: &std::collections::BTreeSet<Name>) {
    for (name, v) in e1 {
        if skip.contains(name.as_str()) {
            continue;
        }
        let got = e2.get(name).unwrap_or_else(|| panic!("missing {name}"));
        match (v, got) {
            (Value::FloatArray { data: a, .. }, Value::FloatArray { data: b, .. }) => {
                for (x, y) in a.iter().zip(b) {
                    assert!((x - y).abs() <= 1e-6 * (1.0 + x.abs()), "{name}: {x} vs {y}");
                }
            }
            _ => assert_eq!(v, got, "{name}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn printer_round_trips(p in gen_program()) {
        let printed = pretty_print(&p);
        let reparsed = parse_program(&printed).expect("printed source parses");
        prop_assert_eq!(p, reparsed);
    }

    #[test]
    fn analysis_produces_valid_ssa(p in gen_program()) {
        let a = analyze_program(&p);
        let violations = orchestra_analysis::verify::verify_ssa(&a.ssa);
        prop_assert!(violations.is_empty(), "{violations:?}");
        // Every block got an assertion slot and values don't panic.
        prop_assert_eq!(a.prop.assertions.len(), a.ssa.cfg.len());
    }

    #[test]
    fn descriptors_do_not_panic_and_self_interfere_consistently(p in gen_program()) {
        let ctx = SymCtx::from_program(&p);
        let d = descriptor_of_stmts(&p.body, &ctx);
        // Writing anything ⇒ self-interference (output dependence).
        if !d.writes.is_empty() {
            prop_assert!(d.interferes(&d));
        }
    }

    #[test]
    fn dce_preserves_semantics(p in gen_program(), seed in 0u64..100) {
        let (cleaned, _) = eliminate_dead_code(&p);
        let inputs = random_inputs(seed);
        let e1 = Interp::new().run(&p, &inputs).expect("original runs");
        let e2 = Interp::new().run(&cleaned, &inputs).expect("cleaned runs");
        let skip = collect_scalars(&p);
        stores_match(&e1, &e2, &skip);
    }

    #[test]
    fn transformed_programs_pass_semantic_checking(p in gen_program()) {
        let compiled = compile(p, &SplitOptions::default());
        let errs = orchestra_lang::check_program(&compiled.transformed);
        prop_assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn compile_preserves_semantics(p in gen_program(), seed in 0u64..100) {
        let compiled = compile(p.clone(), &SplitOptions::default());
        let inputs = random_inputs(seed);
        let e1 = Interp::new().run(&p, &inputs).expect("original runs");
        let e2 = Interp::new()
            .run(&compiled.transformed, &inputs)
            .expect("transformed runs");
        let mut skip = collect_scalars(&p);
        skip.extend(collect_scalars(&compiled.transformed));
        stores_match(&e1, &e2, &skip);
    }
}
