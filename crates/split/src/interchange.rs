//! Loop interchange (§3, citing Allen & Kennedy \[2\]).
//!
//! Swaps the two loops of a perfect 2-deep nest. Legality is decided
//! with symbolic data descriptors: interchange is illegal exactly when
//! some dependence has direction `(<, >)` — carried forward by the
//! outer loop and backward by the inner — because swapping reverses its
//! execution order. The probe substitutes `(i, j) → (i+1, j−1)` into
//! the body's descriptor, which for linear access patterns represents
//! that direction class.

use orchestra_analysis::symbolic::SymExpr;
use orchestra_descriptors::{descriptor_of_stmts, SymCtx};
use orchestra_lang::ast::{Name, Range, Stmt};

/// Why a nest cannot be interchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterchangeObstacle {
    /// Not a `do` loop whose body is exactly one `do` loop.
    NotAPerfectNest,
    /// The inner bounds depend on the outer induction variable
    /// (a triangular nest).
    TriangularBounds,
    /// Masks on either loop (interchange under masks is not attempted).
    Masked,
    /// A `(<, >)`-direction dependence.
    DirectionConflict,
}

impl std::fmt::Display for InterchangeObstacle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            InterchangeObstacle::NotAPerfectNest => "not a perfect 2-deep nest",
            InterchangeObstacle::TriangularBounds => "inner bounds depend on outer variable",
            InterchangeObstacle::Masked => "masked loops are not interchanged",
            InterchangeObstacle::DirectionConflict => "(<, >)-direction dependence",
        };
        write!(f, "{s}")
    }
}

fn nest_parts(s: &Stmt) -> Option<(&Name, &Vec<Range>, &Stmt)> {
    let Stmt::Do { var, ranges, mask, body, .. } = s else { return None };
    if mask.is_some() || ranges.len() != 1 || body.len() != 1 {
        return None;
    }
    let inner = &body[0];
    matches!(inner, Stmt::Do { .. }).then_some((var, ranges, inner))
}

/// Checks interchange legality for a perfect 2-deep nest.
///
/// # Errors
///
/// Returns the first [`InterchangeObstacle`] found.
pub fn can_interchange(nest: &Stmt, ctx: &SymCtx) -> Result<(), InterchangeObstacle> {
    let (outer_var, _, inner) = nest_parts(nest).ok_or(InterchangeObstacle::NotAPerfectNest)?;
    let Stmt::Do { var: inner_var, ranges: inner_ranges, mask, body, .. } = inner else {
        return Err(InterchangeObstacle::NotAPerfectNest);
    };
    if mask.is_some() {
        return Err(InterchangeObstacle::Masked);
    }
    if inner_ranges.len() != 1 {
        return Err(InterchangeObstacle::NotAPerfectNest);
    }
    // Triangular nests change their iteration space under interchange.
    let mut triangular = false;
    inner.exprs(&mut |e| triangular |= e.reads(outer_var));
    if triangular {
        return Err(InterchangeObstacle::TriangularBounds);
    }

    // Direction probe: body at (i, j) vs body at (i+1, j−1).
    let mut body_ctx = ctx.clone();
    body_ctx.killed.remove(outer_var);
    body_ctx.values.remove(outer_var);
    body_ctx.killed.remove(inner_var);
    body_ctx.values.remove(inner_var);
    let d = descriptor_of_stmts(body, &body_ctx).without_block(outer_var).without_block(inner_var);
    let probe = d
        .subst(outer_var, &SymExpr::name(outer_var).offset(1))
        .subst(inner_var, &SymExpr::name(inner_var).offset(-1));
    if d.interferes(&probe) {
        return Err(InterchangeObstacle::DirectionConflict);
    }
    Ok(())
}

/// Interchanges a perfect 2-deep nest, or returns `None` when
/// [`can_interchange`] rejects it.
pub fn interchange(nest: &Stmt, ctx: &SymCtx) -> Option<Stmt> {
    can_interchange(nest, ctx).ok()?;
    let Stmt::Do { label, var: ov, ranges: orng, body, .. } = nest else { return None };
    let Stmt::Do { var: iv, ranges: irng, body: inner_body, .. } = &body[0] else {
        return None;
    };
    Some(Stmt::Do {
        label: label.clone(),
        var: iv.clone(),
        ranges: irng.clone(),
        mask: None,
        body: vec![Stmt::Do {
            label: None,
            var: ov.clone(),
            ranges: orng.clone(),
            mask: None,
            body: inner_body.clone(),
        }],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_lang::interp::{Env, Interp};
    use orchestra_lang::parse_program;

    fn setup(src: &str) -> (orchestra_lang::ast::Program, SymCtx) {
        let p = parse_program(src).unwrap();
        let ctx = SymCtx::from_program(&p);
        (p, ctx)
    }

    #[test]
    fn interchanges_elementwise_nest() {
        let (p, ctx) = setup(
            "program t\n integer n = 4\n float a[1..n, 1..n]\n do i = 1, n { do j = 1, n { a[i, j] = 1.0 } }\nend",
        );
        assert_eq!(can_interchange(&p.body[0], &ctx), Ok(()));
        let sw = interchange(&p.body[0], &ctx).unwrap();
        let Stmt::Do { var, body, .. } = &sw else { panic!() };
        assert_eq!(var, "j");
        let Stmt::Do { var: inner, .. } = &body[0] else { panic!() };
        assert_eq!(inner, "i");
    }

    #[test]
    fn interchange_preserves_semantics() {
        let src = "program t\n integer n = 5\n float a[1..n, 1..n]\n L: do i = 1, n { do j = 1, n { a[i, j] = i * 10.0 + j } }\nend";
        let (p, ctx) = setup(src);
        let mut swapped = p.clone();
        swapped.body[0] = interchange(&p.body[0], &ctx).unwrap();
        let e1 = Interp::new().run(&p, &Env::new()).unwrap();
        let e2 = Interp::new().run(&swapped, &Env::new()).unwrap();
        assert_eq!(e1["a"], e2["a"]);
    }

    #[test]
    fn rejects_direction_conflict() {
        // a[i, j] = a[i-1, j+1]: dependence with direction (<, >).
        let (p, ctx) = setup(
            "program t\n integer n = 5\n float a[0..n, 0..n + 1]\n do i = 1, n { do j = 1, n { a[i, j] = a[i - 1, j + 1] } }\nend",
        );
        assert_eq!(can_interchange(&p.body[0], &ctx), Err(InterchangeObstacle::DirectionConflict));
    }

    #[test]
    fn accepts_same_direction_dependence() {
        // a[i, j] = a[i-1, j-1]: direction (<, <) — interchange legal.
        let (p, ctx) = setup(
            "program t\n integer n = 5\n float a[0..n, 0..n]\n L: do i = 1, n { do j = 1, n { a[i, j] = a[i - 1, j - 1] } }\nend",
        );
        assert_eq!(can_interchange(&p.body[0], &ctx), Ok(()));
        let mut swapped = p.clone();
        swapped.body[0] = interchange(&p.body[0], &ctx).unwrap();
        let e1 = Interp::new().run(&p, &Env::new()).unwrap();
        let e2 = Interp::new().run(&swapped, &Env::new()).unwrap();
        assert_eq!(e1["a"], e2["a"]);
    }

    #[test]
    fn rejects_triangular_nest() {
        let (p, ctx) = setup(
            "program t\n integer n = 5\n float a[1..n, 1..n]\n do i = 1, n { do j = 1, i { a[i, j] = 1.0 } }\nend",
        );
        assert_eq!(can_interchange(&p.body[0], &ctx), Err(InterchangeObstacle::TriangularBounds));
    }

    #[test]
    fn rejects_imperfect_nest() {
        let (p, ctx) = setup(
            "program t\n integer n = 5, s\n float a[1..n, 1..n]\n do i = 1, n { s = i\n do j = 1, n { a[i, j] = 1.0 } }\nend",
        );
        assert_eq!(can_interchange(&p.body[0], &ctx), Err(InterchangeObstacle::NotAPerfectNest));
    }

    #[test]
    fn rejects_masked_nest() {
        let (p, ctx) = setup(
            "program t\n integer n = 5\n integer m[1..n]\n float a[1..n, 1..n]\n do i = 1, n { do j = 1, n where (m[j] <> 0) { a[i, j] = 1.0 } }\nend",
        );
        assert_eq!(can_interchange(&p.body[0], &ctx), Err(InterchangeObstacle::Masked));
    }

    #[test]
    fn reduction_nest_interchanges() {
        // sum += a[i][j] commutes in any order; the descriptor probe
        // sees sum as scalar write+read on both sides, which interferes…
        // so the conservative answer is a rejection. Verify we are at
        // least *sound*: if accepted, semantics must hold; if rejected,
        // that's the conservative path.
        let (p, ctx) = setup(
            "program t\n integer n = 4\n float s, a[1..n, 1..n]\n do i = 1, n { do j = 1, n { s = s + a[i, j] } }\nend",
        );
        match can_interchange(&p.body[0], &ctx) {
            Ok(()) => {
                let mut swapped = p.clone();
                swapped.body[0] = interchange(&p.body[0], &ctx).unwrap();
                let e1 = Interp::new().run(&p, &Env::new()).unwrap();
                let e2 = Interp::new().run(&swapped, &Env::new()).unwrap();
                assert_eq!(e1["s"], e2["s"]);
            }
            Err(e) => assert_eq!(e, InterchangeObstacle::DirectionConflict),
        }
    }
}
