//! Property test: descriptor interference is *conservative* with
//! respect to a brute-force concrete-access oracle.
//!
//! For randomly generated pairs of single-loop computations with affine
//! index expressions, we enumerate the concrete cells each loop reads
//! and writes, decide dependence exactly, and require that whenever the
//! concrete sets conflict, the symbolic descriptors report interference.
//! (The converse may fail — descriptors are allowed to over-approximate
//! — so only the soundness direction is asserted.) Loops step by ±1 or
//! ±2, counting down when negative, and the step is written either as a
//! literal or as a declared scalar, which the descriptors must resolve
//! as they resolve the bounds.

use orchestra_descriptors::{descriptor_of_stmt, SymCtx};
use orchestra_lang::ast::{Program, Range, Stmt};
use orchestra_lang::builder as b;
use orchestra_lang::interp::{Env, Interp};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One generated loop: `do i = lo, hi, step { arr[c*i + d] = src[i] }`
/// (from `hi` down to `lo` when `step` is negative) or a read-only
/// variant.
#[derive(Debug, Clone)]
struct GenLoop {
    lo: i64,
    hi: i64,
    /// One of −2, −1, 1, 2.
    step: i64,
    /// The step is read from a declared `integer` instead of written.
    step_in_scalar: bool,
    coeff: i64,
    offset: i64,
    writes: bool,
}

impl GenLoop {
    /// A unit-step literal loop over `lo..=hi`.
    fn unit(lo: i64, hi: i64, writes: bool) -> GenLoop {
        GenLoop { lo, hi, step: 1, step_in_scalar: false, coeff: 1, offset: 0, writes }
    }

    /// The bounds as written: the first value, then the last.
    fn header(&self) -> (i64, i64) {
        if self.step > 0 {
            (self.lo, self.hi)
        } else {
            (self.hi, self.lo)
        }
    }

    /// The induction values in the order the interpreter takes them.
    fn iterations(&self) -> Vec<i64> {
        let (first, last) = self.header();
        let (mut i, mut out) = (first, Vec::new());
        while (self.step > 0 && i <= last) || (self.step < 0 && i >= last) {
            out.push(i);
            i += self.step;
        }
        out
    }

    /// The concrete cells of the shared array this loop touches.
    fn cells(&self) -> BTreeSet<i64> {
        self.iterations().into_iter().map(|i| self.coeff * i + self.offset).collect()
    }

    /// The loop, its step read from `step_var` when held in a scalar.
    fn to_stmt(&self, target: &str, other: &str, step_var: &str) -> Stmt {
        // index expression c*i + d
        let idx = b::add(b::mul(b::int(self.coeff), b::v("i")), b::int(self.offset));
        let body = if self.writes {
            b::set_elem(target, vec![idx], b::elem(other, vec![b::v("i")]))
        } else {
            b::set_elem(other, vec![b::v("i")], b::elem(target, vec![idx]))
        };
        let (first, last) = self.header();
        let step = if self.step_in_scalar { b::v(step_var) } else { b::int(self.step) };
        Stmt::Do {
            label: Some("L".into()),
            var: "i".into(),
            ranges: vec![Range { lo: b::int(first), hi: b::int(last), step: Some(step) }],
            mask: None,
            body: vec![body],
        }
    }
}

fn gen_loop() -> impl Strategy<Value = GenLoop> {
    let step = (proptest::sample::select(vec![-2i64, -1, 1, 2]), any::<bool>());
    ((1i64..6, 0i64..6, 1i64..3, -4i64..8, any::<bool>()), step).prop_map(
        |((lo, len, coeff, offset, writes), (step, step_in_scalar))| GenLoop {
            lo,
            hi: lo + len,
            step,
            step_in_scalar,
            coeff,
            offset,
            writes,
        },
    )
}

/// Builds a program declaring a shared array big enough for all cells,
/// disjoint scratch arrays for each loop, and each loop's step as a
/// scalar (`t1`, `t2`).
fn program_for(l1: &GenLoop, l2: &GenLoop) -> Program {
    let max_cell =
        l1.cells().into_iter().chain(l2.cells()).max().unwrap_or(1).max(l1.hi.max(l2.hi));
    let mut pb = b::ProgramBuilder::new("oracle");
    pb.int_scalar("n", max_cell.max(1) + 8);
    pb.int_scalar("t1", l1.step);
    pb.int_scalar("t2", l2.step);
    pb.array("shared", orchestra_lang::ast::Type::Float, vec![b::v("n")]);
    pb.array("s1", orchestra_lang::ast::Type::Float, vec![b::v("n")]);
    pb.array("s2", orchestra_lang::ast::Type::Float, vec![b::v("n")]);
    pb.stmt(l1.to_stmt("shared", "s1", "t1"));
    pb.stmt(l2.to_stmt("shared", "s2", "t2"));
    pb.build()
}

/// Loop iterations the interpreter takes running `prog`.
fn interpreted_iterations(prog: &Program) -> usize {
    let mut interp = Interp::new();
    interp.run(prog, &Env::new()).expect("the program runs");
    interp.stats.iterations as usize
}

/// Exact dependence: some shared cell is written by one loop and
/// touched by the other (flow/anti/output).
fn concrete_conflict(l1: &GenLoop, l2: &GenLoop) -> bool {
    let (c1, c2) = (l1.cells(), l2.cells());
    let overlap = c1.intersection(&c2).next().is_some();
    overlap && (l1.writes || l2.writes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interference_is_conservative(l1 in gen_loop(), l2 in gen_loop()) {
        // Negative-index programs are rejected by the interpreter but
        // fine for the descriptor layer; restrict to valid cells so the
        // program is also executable in principle.
        prop_assume!(l1.cells().iter().all(|&c| c >= 1));
        prop_assume!(l2.cells().iter().all(|&c| c >= 1));

        let prog = program_for(&l1, &l2);
        // The enumeration walks the loops as the interpreter does.
        prop_assert_eq!(
            interpreted_iterations(&prog),
            l1.iterations().len() + l2.iterations().len()
        );
        let ctx = SymCtx::from_program(&prog);
        let d1 = descriptor_of_stmt(&prog.body[0], &ctx);
        let d2 = descriptor_of_stmt(&prog.body[1], &ctx);

        if concrete_conflict(&l1, &l2) {
            prop_assert!(
                d1.interferes(&d2),
                "concrete conflict missed:\n{l1:?}\n{l2:?}\nd1: {d1}\nd2: {d2}"
            );
        }
        // Symmetry of the interference relation.
        prop_assert_eq!(d1.interferes(&d2), d2.interferes(&d1));
    }

    /// Flow interference soundness: when loop 1 writes cells loop 2
    /// reads, `flow_interferes_from` must see it.
    #[test]
    fn flow_interference_is_conservative(mut l1 in gen_loop(), mut l2 in gen_loop()) {
        l1.writes = true;
        l2.writes = false;
        prop_assume!(l1.cells().iter().all(|&c| c >= 1));
        prop_assume!(l2.cells().iter().all(|&c| c >= 1));

        let prog = program_for(&l1, &l2);
        let ctx = SymCtx::from_program(&prog);
        let d1 = descriptor_of_stmt(&prog.body[0], &ctx);
        let d2 = descriptor_of_stmt(&prog.body[1], &ctx);

        let concrete_flow =
            l1.cells().intersection(&l2.cells()).next().is_some();
        if concrete_flow {
            prop_assert!(d2.flow_interferes_from(&d1));
        }
    }

    /// Precision spot-check: loops over provably disjoint constant
    /// ranges of the same array must NOT interfere.
    #[test]
    fn disjoint_constant_ranges_do_not_interfere(
        lo1 in 1i64..5, len1 in 0i64..4, gap in 1i64..4, len2 in 0i64..4
    ) {
        let l1 = GenLoop::unit(lo1, lo1 + len1, true);
        let lo2 = l1.hi + gap;
        let l2 = GenLoop::unit(lo2, lo2 + len2, true);
        let prog = program_for(&l1, &l2);
        let ctx = SymCtx::from_program(&prog);
        let d1 = descriptor_of_stmt(&prog.body[0], &ctx);
        let d2 = descriptor_of_stmt(&prog.body[1], &ctx);
        prop_assert!(!d1.interferes(&d2), "d1: {d1}\nd2: {d2}");
    }
}
