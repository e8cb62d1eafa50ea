//! Pretty-printer for MF programs.
//!
//! The output of [`pretty_print`] parses back to an equal AST
//! (round-trip property, tested in the crate's proptest suite), which the
//! split transformation relies on when emitting transformed source.

use crate::ast::{BinOp, Decl, Expr, LValue, ProcDef, Program, Range, Stmt, UnOp};
use std::fmt::Write;

/// Renders a program as MF source text.
pub fn pretty_print(p: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {}", p.name);
    for d in &p.decls {
        let _ = writeln!(out, "  {}", decl_to_string(d));
    }
    for proc in &p.procs {
        print_proc(&mut out, proc);
    }
    for s in &p.body {
        print_stmt(&mut out, s, 1);
    }
    out.push_str("end\n");
    out
}

/// Renders a single declaration, e.g. `float q[1..n, 1..n]`.
pub fn decl_to_string(d: &Decl) -> String {
    let mut s = format!("{} {}", d.ty, d.name);
    if !d.dims.is_empty() {
        s.push('[');
        for (i, r) in d.dims.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}..{}", expr_to_string(&r.lo), expr_to_string(&r.hi));
        }
        s.push(']');
    }
    if let Some(init) = &d.init {
        let _ = write!(s, " = {}", expr_to_string(init));
    }
    s
}

fn print_proc(out: &mut String, p: &ProcDef) {
    let params: Vec<String> = p.params.iter().map(decl_to_string).collect();
    let _ = writeln!(out, "  proc {}({}) {{", p.name, params.join(", "));
    for d in &p.locals {
        let _ = writeln!(out, "    {}", decl_to_string(d));
    }
    for s in &p.body {
        print_stmt(out, s, 2);
    }
    out.push_str("  }\n");
}

/// Renders a statement (and its children) at the given indent level.
pub fn stmt_to_string(s: &Stmt) -> String {
    let mut out = String::new();
    print_stmt(&mut out, s, 0);
    out
}

fn print_stmt(out: &mut String, s: &Stmt, indent: usize) {
    let pad = "  ".repeat(indent);
    match s {
        Stmt::Assign { target, value } => {
            let t = match target {
                LValue::Var(v) => v.to_string(),
                LValue::Index(a, idx) => {
                    let parts: Vec<String> = idx.iter().map(expr_to_string).collect();
                    format!("{a}[{}]", parts.join(", "))
                }
            };
            let _ = writeln!(out, "{pad}{t} = {}", expr_to_string(value));
        }
        Stmt::Do { label, var, ranges, mask, body } => {
            let mut head = String::new();
            if let Some(l) = label {
                let _ = write!(head, "{l}: ");
            }
            let _ = write!(head, "do {var} = ");
            for (i, r) in ranges.iter().enumerate() {
                if i > 0 {
                    head.push_str(" and ");
                }
                let _ = write!(head, "{}, {}", expr_to_string(&r.lo), expr_to_string(&r.hi));
                if let Some(st) = &r.step {
                    let _ = write!(head, ", {}", expr_to_string(st));
                }
            }
            if let Some(m) = mask {
                let _ = write!(head, " where ({})", expr_to_string(m));
            }
            let _ = writeln!(out, "{pad}{head} {{");
            for b in body {
                print_stmt(out, b, indent + 1);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::If { cond, then_body, else_body } => {
            let _ = writeln!(out, "{pad}if ({}) {{", expr_to_string(cond));
            for b in then_body {
                print_stmt(out, b, indent + 1);
            }
            if else_body.is_empty() {
                let _ = writeln!(out, "{pad}}}");
            } else {
                let _ = writeln!(out, "{pad}}} else {{");
                for b in else_body {
                    print_stmt(out, b, indent + 1);
                }
                let _ = writeln!(out, "{pad}}}");
            }
        }
        Stmt::Call { name, args } => {
            let parts: Vec<String> = args.iter().map(expr_to_string).collect();
            let _ = writeln!(out, "{pad}call {name}({})", parts.join(", "));
        }
    }
}

/// Renders an expression with minimal necessary parentheses.
pub fn expr_to_string(e: &Expr) -> String {
    expr_prec(e, 0)
}

/// Precedence levels: or=1, and=2, cmp=3, add=4, mul=5, unary=6.
fn prec_of(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
        BinOp::Add | BinOp::Sub => 4,
        BinOp::Mul | BinOp::Div | BinOp::Mod => 5,
    }
}

fn expr_prec(e: &Expr, min: u8) -> String {
    match e {
        Expr::IntLit(v) => v.to_string(),
        Expr::FloatLit(v) => {
            // Always keep a decimal point so the literal re-lexes as a float.
            let s = v.to_string();
            if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                s
            } else {
                format!("{s}.0")
            }
        }
        Expr::Var(v) => v.to_string(),
        Expr::Index(a, idx) => {
            let parts: Vec<String> = idx.iter().map(|e| expr_prec(e, 0)).collect();
            format!("{a}[{}]", parts.join(", "))
        }
        Expr::Bin(op, l, r) => {
            let p = prec_of(*op);
            // Left-associative: left child may print at p, right child needs p+1.
            let s = format!("{} {} {}", expr_prec(l, p), op, expr_prec(r, p + 1));
            if p < min {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::Un(op, inner) => {
            let sym = match op {
                UnOp::Neg => "-",
                UnOp::Not => "not ",
            };
            let s = format!("{sym}{}", expr_prec(inner, 6));
            if min > 6 {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::Call(f, args) => {
            let parts: Vec<String> = args.iter().map(|e| expr_prec(e, 0)).collect();
            format!("{f}({})", parts.join(", "))
        }
    }
}

#[allow(dead_code)]
fn range_to_string(r: &Range) -> String {
    format!("{}..{}", expr_to_string(&r.lo), expr_to_string(&r.hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn round_trips_figure1() {
        let src = r#"
program figure1
  integer n = 8
  integer mask[1..n]
  float result[1..n], q[1..n, 1..n], output[1..n, 1..n]
  A: do col = 1, n where (mask[col] <> 0) {
    do i = 1, n {
      result[i] = result[i] + q[i, col]
    }
    do i = 1, n {
      q[i, col] = result[i]
    }
  }
  B: do i = 1, n {
    do j = 1, n {
      output[j, i] = f(q[j, i])
    }
  }
end
"#;
        let p1 = parse_program(src).unwrap();
        let printed = pretty_print(&p1);
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(p1, p2, "pretty output must re-parse to the same AST:\n{printed}");
    }

    #[test]
    fn parenthesizes_by_precedence() {
        // (1 + 2) * 3 must keep its parens.
        let e = Expr::bin(
            BinOp::Mul,
            Expr::bin(BinOp::Add, Expr::IntLit(1), Expr::IntLit(2)),
            Expr::IntLit(3),
        );
        assert_eq!(expr_to_string(&e), "(1 + 2) * 3");
        // 1 + 2 * 3 stays unparenthesized.
        let e = Expr::bin(
            BinOp::Add,
            Expr::IntLit(1),
            Expr::bin(BinOp::Mul, Expr::IntLit(2), Expr::IntLit(3)),
        );
        assert_eq!(expr_to_string(&e), "1 + 2 * 3");
    }

    #[test]
    fn subtraction_right_operand_parenthesized() {
        // 1 - (2 - 3) must keep parens because `-` is left-associative.
        let e = Expr::bin(
            BinOp::Sub,
            Expr::IntLit(1),
            Expr::bin(BinOp::Sub, Expr::IntLit(2), Expr::IntLit(3)),
        );
        assert_eq!(expr_to_string(&e), "1 - (2 - 3)");
    }

    #[test]
    fn float_literals_keep_decimal_point() {
        assert_eq!(expr_to_string(&Expr::FloatLit(2.0)), "2.0");
        assert_eq!(expr_to_string(&Expr::FloatLit(0.5)), "0.5");
    }

    #[test]
    fn discontinuous_range_round_trip() {
        let src = "program p\n  integer n = 9, a = 4\n  float x[1..n]\n  do i = 1, a - 1 and a + 1, n {\n    x[i] = 1.0\n  }\nend\n";
        let p1 = parse_program(src).unwrap();
        let p2 = parse_program(&pretty_print(&p1)).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn if_else_round_trip() {
        let src = "program p\n  integer a, b\n  if (a = 0) {\n    b = 1\n  } else {\n    b = 2\n  }\nend\n";
        let p1 = parse_program(src).unwrap();
        let p2 = parse_program(&pretty_print(&p1)).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn proc_round_trip() {
        let src = "program p\n  integer n = 2\n  float x[1..n]\n  proc zero(float x[1..n], integer n) {\n    do i = 1, n {\n      x[i] = 0.0\n    }\n  }\n  call zero(x, n)\nend\n";
        let p1 = parse_program(src).unwrap();
        let p2 = parse_program(&pretty_print(&p1)).unwrap();
        assert_eq!(p1, p2);
    }
}
