//! Programmatic construction of MF ASTs.
//!
//! The split transformation and the workload generators synthesize code;
//! this module gives them a compact, readable vocabulary, e.g.:
//!
//! ```
//! use orchestra_lang::builder::*;
//!
//! // do i = 1, n { x[i] = x[i] + y[i] }
//! let body = vec![set_elem("x", vec![v("i")], add(elem("x", vec![v("i")]), elem("y", vec![v("i")])))];
//! let loop_ = do_loop("i", int(1), v("n"), body);
//! ```

use crate::ast::{BinOp, Decl, Expr, LValue, Program, Range, Stmt, Type, UnOp};

/// Integer literal.
pub fn int(v: i64) -> Expr {
    Expr::IntLit(v)
}

/// Float literal.
pub fn float(v: f64) -> Expr {
    Expr::FloatLit(v)
}

/// Scalar variable reference.
pub fn v(name: &str) -> Expr {
    Expr::Var(name.into())
}

/// Array element reference.
pub fn elem(name: &str, idx: Vec<Expr>) -> Expr {
    Expr::Index(name.into(), idx)
}

/// Intrinsic call.
pub fn call(name: &str, args: Vec<Expr>) -> Expr {
    Expr::Call(name.into(), args)
}

/// `a + b`
pub fn add(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::Add, a, b)
}

/// `a - b`
pub fn sub(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::Sub, a, b)
}

/// `a * b`
pub fn mul(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::Mul, a, b)
}

/// `a / b`
pub fn div(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::Div, a, b)
}

/// `a = b` (comparison)
pub fn eq(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::Eq, a, b)
}

/// `a <> b`
pub fn ne(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::Ne, a, b)
}

/// `a < b`
pub fn lt(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::Lt, a, b)
}

/// `a <= b`
pub fn le(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::Le, a, b)
}

/// `a > b`
pub fn gt(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::Gt, a, b)
}

/// `a >= b`
pub fn ge(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::Ge, a, b)
}

/// `a and b`
pub fn and(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::And, a, b)
}

/// `a or b`
pub fn or(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::Or, a, b)
}

/// `not a`
pub fn not(a: Expr) -> Expr {
    Expr::Un(UnOp::Not, Box::new(a))
}

/// `-a`
pub fn neg(a: Expr) -> Expr {
    Expr::Un(UnOp::Neg, Box::new(a))
}

/// Scalar assignment statement.
pub fn set(name: &str, value: Expr) -> Stmt {
    Stmt::Assign { target: LValue::Var(name.into()), value }
}

/// Array element assignment statement.
pub fn set_elem(name: &str, idx: Vec<Expr>, value: Expr) -> Stmt {
    Stmt::Assign { target: LValue::Index(name.into(), idx), value }
}

/// Unmasked single-range `do` loop.
pub fn do_loop(var: &str, lo: Expr, hi: Expr, body: Vec<Stmt>) -> Stmt {
    Stmt::simple_do(var, lo, hi, body)
}

/// Labeled unmasked single-range `do` loop.
pub fn labeled_do(label: &str, var: &str, lo: Expr, hi: Expr, body: Vec<Stmt>) -> Stmt {
    Stmt::Do {
        label: Some(label.into()),
        var: var.into(),
        ranges: vec![Range::new(lo, hi)],
        mask: None,
        body,
    }
}

/// Masked `do` loop (`do v = lo, hi where (mask) { ... }`).
pub fn masked_do(var: &str, lo: Expr, hi: Expr, mask: Expr, body: Vec<Stmt>) -> Stmt {
    Stmt::Do {
        label: None,
        var: var.into(),
        ranges: vec![Range::new(lo, hi)],
        mask: Some(mask),
        body,
    }
}

/// `do` loop over a discontinuous pair of ranges (`do v = r1 and r2`).
pub fn split_range_do(var: &str, r1: Range, r2: Range, body: Vec<Stmt>) -> Stmt {
    Stmt::Do { label: None, var: var.into(), ranges: vec![r1, r2], mask: None, body }
}

/// `if` without `else`.
pub fn if_then(cond: Expr, then_body: Vec<Stmt>) -> Stmt {
    Stmt::If { cond, then_body, else_body: Vec::new() }
}

/// `if`/`else`.
pub fn if_else(cond: Expr, then_body: Vec<Stmt>, else_body: Vec<Stmt>) -> Stmt {
    Stmt::If { cond, then_body, else_body }
}

/// A builder for whole programs.
#[derive(Debug)]
pub struct ProgramBuilder {
    prog: Program,
}

impl ProgramBuilder {
    /// Starts a program with the given name.
    pub fn new(name: &str) -> Self {
        ProgramBuilder { prog: Program::new(name) }
    }

    /// Declares an integer scalar with an initial value.
    pub fn int_scalar(&mut self, name: &str, init: i64) -> &mut Self {
        self.prog.decls.push(Decl::scalar_init(name, Type::Int, Expr::IntLit(init)));
        self
    }

    /// Declares an uninitialized scalar.
    pub fn scalar(&mut self, name: &str, ty: Type) -> &mut Self {
        self.prog.decls.push(Decl::scalar(name, ty));
        self
    }

    /// Declares an array with `1..bound` ranges per dimension, where each
    /// bound is an expression (commonly `v("n")`).
    pub fn array(&mut self, name: &str, ty: Type, bounds: Vec<Expr>) -> &mut Self {
        let dims = bounds.into_iter().map(|hi| Range::new(Expr::IntLit(1), hi)).collect();
        self.prog.decls.push(Decl::array(name, ty, dims));
        self
    }

    /// Appends a statement to the body.
    pub fn stmt(&mut self, s: Stmt) -> &mut Self {
        self.prog.body.push(s);
        self
    }

    /// Finishes and returns the program.
    pub fn build(&self) -> Program {
        self.prog.clone()
    }
}

/// Constructs the paper's Figure 1 program with size `n`.
///
/// ```text
/// A: do col = 1, n where (mask[col] <> 0) {
///      do i = 1, n { result[i] = q[col, i] * 0.5 + q[i, i] }
///      do i = 1, n { q[i, col] = result[i] }
///    }
/// B: do i = 1, n { do j = 1, n { output[j, i] = f(q[j, i]) } }
/// ```
///
/// Computation `A` computes `result[i]` from the *i-th column* of `q`
/// (represented here by the elements `q[col, i]` and `q[i, i]`, which is
/// what the descriptors see: reads of column `i`) and then modifies
/// column `col` when `mask[col]` is non-zero; `B` post-processes `q`
/// into `output`. This is the running example for split and pipelining.
pub fn figure1_program(n: i64) -> Program {
    let mut b = ProgramBuilder::new("figure1");
    b.int_scalar("n", n)
        .array("mask", Type::Int, vec![v("n")])
        .array("result", Type::Float, vec![v("n")])
        .array("q", Type::Float, vec![v("n"), v("n")])
        .array("output", Type::Float, vec![v("n"), v("n")]);
    let a_inner1 = do_loop(
        "i",
        int(1),
        v("n"),
        vec![set_elem(
            "result",
            vec![v("i")],
            add(
                mul(elem("q", vec![v("col"), v("i")]), float(0.5)),
                elem("q", vec![v("i"), v("i")]),
            ),
        )],
    );
    let a_inner2 = do_loop(
        "i",
        int(1),
        v("n"),
        vec![set_elem("q", vec![v("i"), v("col")], elem("result", vec![v("i")]))],
    );
    let a = Stmt::Do {
        label: Some("A".into()),
        var: "col".into(),
        ranges: vec![Range::new(int(1), v("n"))],
        mask: Some(ne(elem("mask", vec![v("col")]), int(0))),
        body: vec![a_inner1, a_inner2],
    };
    let b_loop = Stmt::Do {
        label: Some("B".into()),
        var: "i".into(),
        ranges: vec![Range::new(int(1), v("n"))],
        mask: None,
        body: vec![do_loop(
            "j",
            int(1),
            v("n"),
            vec![set_elem(
                "output",
                vec![v("j"), v("i")],
                call("f", vec![elem("q", vec![v("j"), v("i")])]),
            )],
        )],
    };
    b.stmt(a).stmt(b_loop);
    b.build()
}

/// Constructs the paper's Figure 4 program with size `n` and split column `a`.
///
/// ```text
/// G: do i = 1, n { x[a, i] = x[a, i] + y[i] }
/// H: do i = 1, n { do j = 1, n { sum = sum + x[i, j] } }
/// ```
///
/// `H` is flow-dependent on `G` only through row `a` of `x`.
pub fn figure4_program(n: i64, a: i64) -> Program {
    let mut b = ProgramBuilder::new("figure4");
    b.int_scalar("n", n)
        .int_scalar("a", a)
        .scalar("sum", Type::Float)
        .array("x", Type::Float, vec![v("n"), v("n")])
        .array("y", Type::Float, vec![v("n")]);
    let g = labeled_do(
        "G",
        "i",
        int(1),
        v("n"),
        vec![set_elem(
            "x",
            vec![v("a"), v("i")],
            add(elem("x", vec![v("a"), v("i")]), elem("y", vec![v("i")])),
        )],
    );
    let h = labeled_do(
        "H",
        "i",
        int(1),
        v("n"),
        vec![do_loop(
            "j",
            int(1),
            v("n"),
            vec![set("sum", add(v("sum"), elem("x", vec![v("i"), v("j")])))],
        )],
    );
    b.stmt(g).stmt(h);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Env, Interp, Value};
    use crate::parse_program;
    use crate::pretty::pretty_print;

    #[test]
    fn figure1_round_trips_through_printer() {
        let p = figure1_program(6);
        let printed = pretty_print(&p);
        let reparsed = parse_program(&printed).unwrap();
        assert_eq!(p, reparsed);
    }

    #[test]
    fn figure1_executes() {
        let p = figure1_program(4);
        let mut inputs = Env::new();
        inputs
            .insert("mask".into(), Value::IntArray { dims: vec![(1, 4)], data: vec![1, 0, 1, 0] });
        inputs.insert(
            "q".into(),
            Value::FloatArray {
                dims: vec![(1, 4), (1, 4)],
                data: (0..16).map(|i| i as f64).collect(),
            },
        );
        let env = Interp::new().run(&p, &inputs).unwrap();
        let Value::FloatArray { data, .. } = &env["output"] else { panic!() };
        assert!(data.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn figure4_sum_matches_manual() {
        let p = figure4_program(3, 2);
        let mut inputs = Env::new();
        inputs.insert(
            "x".into(),
            Value::FloatArray { dims: vec![(1, 3), (1, 3)], data: vec![1.0; 9] },
        );
        inputs.insert("y".into(), Value::FloatArray { dims: vec![(1, 3)], data: vec![2.0; 3] });
        let env = Interp::new().run(&p, &inputs).unwrap();
        // Row 2 of x becomes 3.0 each; sum = 3*1 + 3*3 + 3*1 = 15.
        assert_eq!(env["sum"], Value::Float(15.0));
    }

    #[test]
    fn builder_produces_expected_shapes() {
        let mut b = ProgramBuilder::new("t");
        b.int_scalar("n", 3).array("x", Type::Float, vec![v("n")]);
        let p = b.build();
        assert_eq!(p.decls.len(), 2);
        assert!(p.decl("x").unwrap().is_array());
    }
}
