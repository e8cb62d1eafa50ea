//! Value and assertion propagation (step 6 of the paper's analysis).
//!
//! Annotates every SSA name with a [`SymValue`]: either a linear symbolic
//! expression over other SSA names, a range (for loop induction
//! variables), or Unknown. Branch conditions are converted into
//! [`Assertion`]s and propagated along the CFG edges they control, so
//! each block carries the strongest disjunction of path conditions the
//! analysis can prove.

use crate::cfg::{LoopShape, SimpleStmt, Terminator};
use crate::ssa::SsaProgram;
use crate::symbolic::{ordered::OrderedF64, Assertion, Ineq, SymExpr, SymRange, SymValue};
use orchestra_lang::ast::{BinOp, Expr, LValue, Name, UnOp};
use std::collections::HashMap;

/// Results of propagation over one SSA program.
#[derive(Debug, Clone)]
pub struct Propagation {
    /// Symbolic value per SSA name.
    pub values: HashMap<Name, SymValue>,
    /// Path assertion per block (over SSA names).
    pub assertions: Vec<Assertion>,
    /// Induction ranges: header-φ SSA name → iteration range.
    pub loop_ranges: HashMap<Name, SymRange>,
}

/// What [`phi_value`] looks up, indexed once per run.
struct Lookup<'a> {
    /// Loops by `(header block, induction variable)`.
    loops: HashMap<(usize, &'a str), &'a LoopShape>,
    /// The right-hand side assigned to each SSA scalar.
    defs: HashMap<&'a str, &'a Expr>,
}

impl<'a> Lookup<'a> {
    fn new(ssa: &'a SsaProgram) -> Self {
        let loops = ssa.cfg.loops.iter().map(|l| ((l.header, l.var.as_str()), l)).collect();
        let stmts = ssa.cfg.blocks.iter().flat_map(|b| &b.stmts);
        let defs = stmts
            .filter_map(|s| match s {
                SimpleStmt::Assign { target: LValue::Var(name), value } => {
                    Some((name.as_str(), value))
                }
                _ => None,
            })
            .collect();
        Lookup { loops, defs }
    }
}

/// Runs value and assertion propagation.
pub fn propagate(ssa: &SsaProgram) -> Propagation {
    let mut values: HashMap<Name, SymValue> = HashMap::new();
    let mut loop_ranges = HashMap::new();
    let lookup = Lookup::new(ssa);

    // Two passes in RPO: the first resolves straight-line values, the
    // second lets header φs see the back-edge increment definitions.
    let rpo = ssa.cfg.reverse_postorder();
    for pass in 0..2 {
        for &b in &rpo {
            for phi in &ssa.phis[b] {
                if values.contains_key(&phi.dest) {
                    continue;
                }
                if let Some(v) = phi_value(ssa, b, phi, &values, &lookup) {
                    if let SymValue::Range(r) = &v {
                        loop_ranges.insert(phi.dest.clone(), r.clone());
                    }
                    values.insert(phi.dest.clone(), v);
                } else if pass == 1 {
                    values.insert(phi.dest.clone(), SymValue::Unknown);
                }
            }
            for s in &ssa.cfg.blocks[b].stmts {
                if let SimpleStmt::Assign { target: LValue::Var(name), value } = s {
                    if values.contains_key(name) {
                        continue;
                    }
                    let v = eval_value(value, &values);
                    values.insert(name.clone(), v);
                }
            }
        }
    }

    // Assertion propagation in RPO; back edges contribute `true`
    // (conservative) so a single forward pass suffices. A successor's
    // clause extends its predecessor's and shares its atoms with it.
    let n = ssa.cfg.len();
    let mut assertions = vec![Assertion::falsity(); n];
    assertions[ssa.cfg.entry] = Assertion::truth();
    let mut rpo_index = vec![usize::MAX; n];
    for (i, &b) in rpo.iter().enumerate() {
        rpo_index[b] = i;
    }
    for &b in &rpo {
        match &ssa.cfg.blocks[b].term {
            Terminator::Jump(t) => {
                let base = assertions[b].clone();
                merge_edge(&mut assertions, b, *t, &rpo_index, base);
            }
            Terminator::Branch { cond, then_b, else_b } => {
                let pos = assertions[b].and(&to_assertion(cond, true, &values));
                let neg = assertions[b].and(&to_assertion(cond, false, &values));
                merge_edge(&mut assertions, b, *then_b, &rpo_index, pos);
                merge_edge(&mut assertions, b, *else_b, &rpo_index, neg);
            }
            Terminator::Exit => {}
        }
    }

    Propagation { values, assertions, loop_ranges }
}

fn merge_edge(
    assertions: &mut [Assertion],
    from: usize,
    to: usize,
    rpo_index: &[usize],
    incoming: Assertion,
) {
    // A back edge (target not later in RPO) contributes `true` so the
    // merged assertion stays conservative without a fixpoint iteration.
    let contrib = if rpo_index[to] <= rpo_index[from] { Assertion::truth() } else { incoming };
    assertions[to] = assertions[to].or(&contrib);
}

/// Recognizes a loop-header φ as an induction variable and returns its
/// range; falls back to equal-argument simplification.
fn phi_value(
    ssa: &SsaProgram,
    block: usize,
    phi: &crate::ssa::Phi,
    values: &HashMap<Name, SymValue>,
    lookup: &Lookup,
) -> Option<SymValue> {
    // Induction recognition only applies to loop headers.
    let Some(shape) = lookup.loops.get(&(block, phi.var.as_str())) else {
        return equal_args_value(phi, values);
    };
    let (init_arg, step_arg) = match &phi.args[..] {
        [(pred, init), (_, step)] if *pred == shape.preheader => (init, step),
        [(_, step), (pred, init)] if *pred == shape.preheader => (init, step),
        _ => return equal_args_value(phi, values),
    };
    // The back-edge def must be `phi + k`, k non-zero.
    let step = lookup.defs.get(step_arg.as_str()).and_then(|def| lin_expr(def, values));
    let k = step
        .filter(|se| se.coeff(&phi.dest) == 1)
        .and_then(|se| se.subst(&phi.dest, &SymExpr::constant(0)).as_constant());
    let Some(k) = k.filter(|k| *k != 0) else {
        return Some(SymValue::Unknown);
    };
    let init = resolve_expr(init_arg, values)?;
    // The loop bound comes from the renamed header test `phi <= hi`
    // (or `>=`), so it is already in SSA names.
    let Terminator::Branch { cond: Expr::Bin(BinOp::Le | BinOp::Ge, lhs, rhs), .. } =
        &ssa.cfg.blocks[shape.header].term
    else {
        return Some(SymValue::Unknown);
    };
    if !matches!(&**lhs, Expr::Var(v) if *v == phi.dest) {
        return Some(SymValue::Unknown);
    }
    let hi = lin_expr(rhs, values)?;
    let (start, end) = if k > 0 { (init, hi) } else { (hi, init) };
    Some(SymValue::Range(SymRange { start, end, skip: k.abs() }))
}

fn equal_args_value(phi: &crate::ssa::Phi, values: &HashMap<Name, SymValue>) -> Option<SymValue> {
    let mut resolved: Vec<SymExpr> = Vec::new();
    for (_, arg) in &phi.args {
        resolved.push(resolve_expr(arg, values)?);
    }
    let first = resolved.first()?;
    if resolved.iter().all(|e| e == first) {
        Some(SymValue::Expr(first.clone()))
    } else {
        // Widen constants to a range when possible.
        let consts: Option<Vec<i64>> = resolved.iter().map(|e| e.as_constant()).collect();
        if let Some(cs) = consts {
            let lo = *cs.iter().min().expect("nonempty");
            let hi = *cs.iter().max().expect("nonempty");
            return Some(SymValue::Range(SymRange::constant(lo, hi)));
        }
        Some(SymValue::Unknown)
    }
}

/// Resolves a name to a symbolic expression: its known value, or
/// itself as an opaque term sharing the caller's spelling.
pub fn resolve_expr(name: &Name, values: &HashMap<Name, SymValue>) -> Option<SymExpr> {
    match values.get(name) {
        Some(SymValue::Expr(e)) => Some(e.clone()),
        Some(SymValue::Range(_)) | Some(SymValue::Unknown) | None => {
            Some(SymExpr::name(name.clone()))
        }
        Some(SymValue::FloatConst(_)) => None,
    }
}

/// Linearizes an expression over names, substituting known values.
///
/// Returns `None` when the expression is non-linear or reads memory.
pub fn lin_expr(e: &Expr, values: &HashMap<Name, SymValue>) -> Option<SymExpr> {
    match e {
        Expr::IntLit(v) => Some(SymExpr::constant(*v)),
        Expr::FloatLit(_) => None,
        Expr::Var(name) => resolve_expr(name, values),
        Expr::Index(_, _) | Expr::Call(_, _) => None,
        Expr::Un(UnOp::Neg, inner) => Some(lin_expr(inner, values)?.scale(-1)),
        Expr::Un(UnOp::Not, _) => None,
        Expr::Bin(op, l, r) => {
            let a = lin_expr(l, values)?;
            let b = lin_expr(r, values)?;
            match op {
                BinOp::Add => Some(a.add(&b)),
                BinOp::Sub => Some(a.sub(&b)),
                BinOp::Mul => a.mul(&b),
                BinOp::Div => {
                    // Exact constant division only.
                    let (x, y) = (a.as_constant()?, b.as_constant()?);
                    if y != 0 && x % y == 0 {
                        Some(SymExpr::constant(x / y))
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
    }
}

/// Evaluates an expression to a symbolic value.
pub fn eval_value(e: &Expr, values: &HashMap<Name, SymValue>) -> SymValue {
    if let Some(le) = lin_expr(e, values) {
        return SymValue::Expr(le);
    }
    if let Expr::FloatLit(v) = e {
        return SymValue::FloatConst(OrderedF64(*v));
    }
    SymValue::Unknown
}

/// Converts a branch condition into an assertion.
///
/// `positive` selects the taken (`true`) or fall-through (`false`)
/// direction. Conditions the analysis cannot express (array reads,
/// calls, non-linear arithmetic) become the trivially-true assertion.
pub fn to_assertion(cond: &Expr, positive: bool, values: &HashMap<Name, SymValue>) -> Assertion {
    match cond {
        Expr::Bin(op, l, r) if op.is_comparison() => {
            let (Some(a), Some(b)) = (lin_expr(l, values), lin_expr(r, values)) else {
                return Assertion::truth();
            };
            let eff_op = if positive { *op } else { op.negate().expect("comparisons negate") };
            Assertion::atom(match eff_op {
                BinOp::Eq => Ineq::eq(&a, &b),
                BinOp::Ne => Ineq::ne(&a, &b),
                BinOp::Lt => Ineq::lt(&a, &b),
                BinOp::Le => Ineq::le(&a, &b),
                BinOp::Gt => Ineq::lt(&b, &a),
                BinOp::Ge => Ineq::le(&b, &a),
                _ => unreachable!("comparison expected"),
            })
        }
        Expr::Bin(BinOp::And, l, r) => {
            if positive {
                to_assertion(l, true, values).and(&to_assertion(r, true, values))
            } else {
                // ¬(l ∧ r) = ¬l ∨ ¬r — but each ¬ may be weakened to true,
                // which would make the whole disjunction true (sound).
                to_assertion(l, false, values).or(&to_assertion(r, false, values))
            }
        }
        Expr::Bin(BinOp::Or, l, r) => {
            if positive {
                to_assertion(l, true, values).or(&to_assertion(r, true, values))
            } else {
                to_assertion(l, false, values).and(&to_assertion(r, false, values))
            }
        }
        Expr::Un(UnOp::Not, inner) => to_assertion(inner, !positive, values),
        // A bare scalar `if (x)` means `x <> 0`.
        Expr::Var(_) | Expr::IntLit(_) => {
            let Some(a) = lin_expr(cond, values) else {
                return Assertion::truth();
            };
            let zero = SymExpr::constant(0);
            Assertion::atom(if positive { Ineq::ne(&a, &zero) } else { Ineq::eq(&a, &zero) })
        }
        _ => Assertion::truth(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{BlockRole, Cfg};
    use crate::ssa::to_ssa;
    use orchestra_lang::parse_program;

    fn analyzed(src: &str) -> (SsaProgram, Propagation) {
        let p = parse_program(src).unwrap();
        let ssa = to_ssa(Cfg::from_program(&p), &crate::collect_scalars(&p));
        let prop = propagate(&ssa);
        (ssa, prop)
    }

    #[test]
    fn constants_fold_through_chains() {
        let (_, prop) =
            analyzed("program p\n integer a, b, c\n a = 2\n b = a + 3\n c = b * 2\nend");
        assert_eq!(prop.values["a#1"], SymValue::int(2));
        assert_eq!(prop.values["b#1"], SymValue::int(5));
        assert_eq!(prop.values["c#1"], SymValue::int(10));
    }

    #[test]
    fn induction_variable_gets_range() {
        let (ssa, prop) = analyzed(
            "program p\n integer n = 10\n integer x[1..n]\n do i = 1, n { x[i] = i }\nend",
        );
        let header = ssa.cfg.loops[0].header;
        let phi = ssa.phis[header].iter().find(|p| p.var == "i").unwrap();
        let SymValue::Range(r) = &prop.values[&phi.dest] else {
            panic!("expected range, got {:?}", prop.values[&phi.dest])
        };
        assert_eq!(r.start, SymExpr::constant(1));
        assert_eq!(r.end, SymExpr::constant(10), "n folds to 10");
        assert_eq!(r.skip, 1);
        assert!(prop.loop_ranges.contains_key(&phi.dest));
    }

    #[test]
    fn symbolic_upper_bound_stays_symbolic() {
        let (ssa, prop) =
            analyzed("program p\n integer n\n integer x[1..100]\n do i = 1, n { x[i] = i }\nend");
        let header = ssa.cfg.loops[0].header;
        let phi = ssa.phis[header].iter().find(|p| p.var == "i").unwrap();
        let SymValue::Range(r) = &prop.values[&phi.dest] else { panic!() };
        assert_eq!(r.end, SymExpr::name("n#0"), "uninitialized n stays opaque");
    }

    #[test]
    fn stepped_loop_records_skip() {
        let (ssa, prop) = analyzed(
            "program p\n integer n = 9\n integer x[1..n]\n do i = 1, n, 2 { x[i] = i }\nend",
        );
        let header = ssa.cfg.loops[0].header;
        let phi = ssa.phis[header].iter().find(|p| p.var == "i").unwrap();
        let SymValue::Range(r) = &prop.values[&phi.dest] else { panic!() };
        assert_eq!(r.skip, 2);
    }

    #[test]
    fn branch_assertions_flow_to_arms() {
        let (ssa, prop) =
            analyzed("program p\n integer a, b\n if (a = 0) { b = 1 } else { b = 2 }\nend");
        let Terminator::Branch { then_b, else_b, .. } = ssa.cfg.blocks[0].term.clone() else {
            panic!()
        };
        let then_assert = &prop.assertions[then_b];
        let else_assert = &prop.assertions[else_b];
        assert!(!then_assert.is_truth());
        assert!(!else_assert.is_truth());
        // The two are mutually exclusive.
        assert!(then_assert.and(else_assert).contradictory());
    }

    #[test]
    fn mask_branch_over_array_becomes_truth() {
        let (ssa, prop) = analyzed(
            "program p\n integer n = 4\n integer m[1..n], x[1..n]\n do i = 1, n where (m[i] <> 0) { x[i] = 1 }\nend",
        );
        // The mask-test block's outgoing assertions are `true` (the
        // analysis cannot express array-element predicates; those are
        // handled structurally by the descriptor layer).
        let mask_block = ssa.cfg.blocks.iter().position(|b| b.role == BlockRole::MaskTest).unwrap();
        let Terminator::Branch { then_b, .. } = ssa.cfg.blocks[mask_block].term.clone() else {
            panic!()
        };
        // Body assertion includes the loop bound test from the header but
        // nothing about m[i].
        assert!(!prop.assertions[then_b].is_falsity());
    }

    #[test]
    fn loop_body_knows_bounds() {
        let (ssa, prop) = analyzed(
            "program p\n integer n = 10\n integer x[1..n]\n do i = 1, n { x[i] = i }\nend",
        );
        let header = ssa.cfg.loops[0].header;
        let Terminator::Branch { then_b, .. } = ssa.cfg.blocks[header].term.clone() else {
            panic!()
        };
        // body assertion: i#phi <= 10 (i.e. i - 10 <= 0)
        let a = &prop.assertions[then_b];
        assert!(!a.is_truth());
        assert!(!a.is_falsity());
    }

    #[test]
    fn unknown_for_nonlinear() {
        let (_, prop) = analyzed("program p\n integer a, b\n b = a * a\nend");
        assert_eq!(prop.values["b#1"], SymValue::Unknown);
    }

    #[test]
    fn float_constants_tracked() {
        let (_, prop) = analyzed("program p\n float x\n x = 2.5\nend");
        assert_eq!(prop.values["x#1"], SymValue::FloatConst(OrderedF64(2.5)));
    }

    #[test]
    fn to_assertion_negates_correctly() {
        let values = HashMap::new();
        let cond = Expr::bin(BinOp::Lt, Expr::var("x"), Expr::IntLit(5));
        let pos = to_assertion(&cond, true, &values);
        let neg = to_assertion(&cond, false, &values);
        assert!(pos.and(&neg).contradictory());
    }
}
