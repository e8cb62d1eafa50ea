//! Whole-pipeline fuzzing: randomly generated (but well-formed by
//! construction) MF programs are pushed through every stage —
//! pretty-print round-trip, analysis (with SSA verification), dead code
//! elimination, descriptors, the full split/pipeline compilation
//! (reduction replication included) and a bijective rename — asserting
//! the invariants each stage promises.

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

/// What wraps a loop's output assignment.
#[derive(Debug, Clone)]
enum Inner {
    /// Nothing.
    None,
    /// `do k = 1, 8, step`, with `k` added to the value so that the last
    /// `k` reached shows in the output. The step is a literal, the
    /// declared scalar `st` or the accumulator `acc`: each is positive.
    Stepped(Expr),
    /// `do acc = 1, 2`.
    OverAcc,
}

fn gen_inner() -> impl Strategy<Value = Inner> {
    prop_oneof![
        Just(Inner::None),
        Just(Inner::None),
        (1i64..4).prop_map(|s| Inner::Stepped(Expr::IntLit(s))),
        Just(Inner::Stepped(Expr::var("st"))),
        Just(Inner::Stepped(Expr::var("acc"))),
        Just(Inner::OverAcc),
    ]
}

/// An `acc = acc + 3` or `acc = acc * 2` reduction, or none. The integer
/// accumulator starts at 1 and only grows, or is reset to 2 by a loop
/// over it, so it is always a valid step.
fn gen_reduction() -> impl Strategy<Value = Option<Stmt>> {
    let acc = |op, c| {
        Some(Stmt::assign(
            LValue::Var("acc".into()),
            Expr::bin(op, Expr::var("acc"), Expr::IntLit(c)),
        ))
    };
    prop_oneof![Just(None), Just(acc(BinOp::Add, 3)), Just(acc(BinOp::Mul, 2))]
}

/// One random loop writing a designated output array, sometimes led by
/// a reduction and sometimes from inside an inner loop.
fn gen_loop(arrays: Vec<String>, out: String, label: String, masked: bool) -> BoxedStrategy<Stmt> {
    let iv = format!("i_{label}");
    (gen_value_expr(arrays, iv.clone()), gen_reduction(), gen_inner())
        .prop_map(move |(value, reduction, inner)| {
            let target = LValue::Index(out.clone().into(), vec![Expr::var(iv.clone())]);
            let inner_loop = |var: Name, hi, step, value| Stmt::Do {
                label: None,
                var,
                ranges: vec![Range { lo: Expr::IntLit(1), hi: Expr::IntLit(hi), step }],
                mask: None,
                body: vec![Stmt::assign(target.clone(), value)],
            };
            let k = Name::from(format!("k_{label}"));
            let write = match inner {
                Inner::None => Stmt::assign(target.clone(), value),
                Inner::Stepped(step) => {
                    let value = Expr::bin(BinOp::Add, value, Expr::Var(k.clone()));
                    inner_loop(k, 8, Some(step), value)
                }
                Inner::OverAcc => inner_loop("acc".into(), 2, None, value),
            };
            let body = reduction.into_iter().chain([write]).collect();
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
            p.decls.push(Decl::scalar_init("st", Type::Int, Expr::IntLit(2)));
            p.decls.push(Decl::scalar_init("acc", Type::Int, Expr::IntLit(1)));
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
        let violations = orchestra_analysis::verify::verify_ssa(a.ssa());
        prop_assert!(violations.is_empty(), "{violations:?}");
        // Every block got an assertion slot and values don't panic.
        prop_assert_eq!(a.prop().assertions.len(), a.ssa().cfg.len());
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

    /// Renaming every declared name and loop variable by a bijection
    /// shows only in the names: printed, re-parsed and run, the renamed
    /// program leaves the same store under the renamed keys. The
    /// identity rename rebuilds an equal program.
    #[test]
    fn renaming_moves_the_store_to_the_new_names(p in gen_program(), seed in 0u64..100) {
        prop_assert_eq!(&renamed(&p, &|_| None), &p);
        let q = renamed(&p, &|n| Some(suffixed(n).into()));
        let q = parse_program(&pretty_print(&q)).expect("printed source parses");
        let inputs = random_inputs(seed);
        let moved: Env = inputs.iter().map(|(k, v)| (suffixed(k), v.clone())).collect();
        let e1 = Interp::new().run(&p, &inputs).expect("original runs");
        let e2 = Interp::new().run(&q, &moved).expect("renamed runs");
        let e1: Env = e1.into_iter().map(|(k, v)| (suffixed(&k), v)).collect();
        prop_assert_eq!(e1, e2);
    }
}

proptest! {
    // Reduction replication is reached by a few cases in a hundred; at
    // 128 the stream includes `FOUND_ACCUMULATOR_CASE`.
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compile_preserves_semantics(p in gen_program(), seed in 0u64..100) {
        assert_compiles_faithfully(&p, seed);
    }
}

/// A case `compile_preserves_semantics` found while an accumulator could
/// still be an inner loop's step: `L1` was split, each piece stepped by
/// its own partial sum, and `a2` came out wrong by up to 6.
const FOUND_ACCUMULATOR_CASE: &str = "program fuzz
  integer n = 6
  integer st = 2
  integer acc = 1
  integer mask[1..n]
  float a0[1..n], a1[1..n], a2[1..n], a3[1..n], a4[1..n]
  L0: do i_L0 = 1, n where (mask[i_L0] <> 0) {
    do k_L0 = 1, 8, st { a1[i_L0] = a0[i_L0] + k_L0 }
  }
  L1: do i_L1 = 1, n {
    acc = acc + 3
    do k_L1 = 1, 8, acc { a2[i_L1] = -8.5 + a1[i_L1] + a0[i_L1] + k_L1 }
  }
  L2: do i_L2 = 1, n {
    acc = acc + 3
    do k_L2 = 1, 8, st { a3[i_L2] = -2 + k_L2 }
  }
  L3: do i_L3 = 1, n {
    acc = acc + 3
    do acc = 1, 2 { a4[i_L3] = f(i_L3 - a0[i_L3]) }
  }
end";

#[test]
fn found_accumulator_case_compiles_faithfully() {
    let p = parse_program(FOUND_ACCUMULATOR_CASE).expect("parses");
    for seed in 0..100 {
        assert_compiles_faithfully(&p, seed);
    }
}

/// Compiles `p` and checks that the transformed program leaves every
/// declared variable as the original does on the inputs of `seed`. An
/// undeclared loop variable is loop machinery: its exit value may move.
fn assert_compiles_faithfully(p: &Program, seed: u64) {
    let compiled = compile(p.clone(), &SplitOptions::default());
    let inputs = random_inputs(seed);
    let e1 = Interp::new().run(p, &inputs).expect("original runs");
    let e2 = Interp::new().run(&compiled.transformed, &inputs).expect("transformed runs");
    let mut skip = collect_scalars(p);
    skip.extend(collect_scalars(&compiled.transformed));
    for d in &p.decls {
        skip.remove(&d.name);
    }
    stores_match(&e1, &e2, &skip);
}

fn suffixed(name: &str) -> String {
    format!("{name}_r")
}

/// `p` with every declared name and loop variable renamed by `f`.
fn renamed(p: &Program, f: &impl Fn(&Name) -> Option<Name>) -> Program {
    let mut q = p.clone();
    for d in &mut q.decls {
        d.name = f(&d.name).unwrap_or_else(|| d.name.clone());
        for r in &mut d.dims {
            *r = Range {
                lo: r.lo.rename(f),
                hi: r.hi.rename(f),
                step: r.step.as_ref().map(|e| e.rename(f)),
            };
        }
        d.init = d.init.as_ref().map(|e| e.rename(f));
    }
    q.body = p.body.iter().map(|s| s.rename(f)).collect();
    q
}
