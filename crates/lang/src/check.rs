//! Static semantic checking for MF programs.
//!
//! Catches at compile time what the interpreter would otherwise fault
//! on at run time: undeclared variables, indexing scalars (or not
//! indexing arrays), rank mismatches, duplicate declarations, unknown
//! procedures and intrinsics, and arity errors.

use crate::ast::{Expr, LValue, Name, ProcDef, Program, Range, Stmt};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A semantic error found by [`check_program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// A name declared more than once in the same scope.
    DuplicateDeclaration(Name),
    /// A variable used without a declaration.
    Undeclared(Name),
    /// An array used without indices (outside call arguments).
    ArrayUsedAsScalar(Name),
    /// A scalar (or induction variable) indexed like an array.
    ScalarIndexed(Name),
    /// Wrong number of indices for an array.
    RankMismatch {
        /// The array.
        name: Name,
        /// Declared rank.
        expected: usize,
        /// Indices supplied.
        got: usize,
    },
    /// Call to an unknown procedure.
    UnknownProcedure(Name),
    /// Call to an unknown intrinsic function.
    UnknownIntrinsic(Name),
    /// Wrong number of arguments to a procedure.
    ProcedureArity {
        /// The procedure.
        name: Name,
        /// Declared parameter count.
        expected: usize,
        /// Arguments supplied.
        got: usize,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::DuplicateDeclaration(n) => write!(f, "`{n}` declared twice"),
            CheckError::Undeclared(n) => write!(f, "`{n}` is not declared"),
            CheckError::ArrayUsedAsScalar(n) => write!(f, "array `{n}` used without indices"),
            CheckError::ScalarIndexed(n) => write!(f, "scalar `{n}` indexed like an array"),
            CheckError::RankMismatch { name, expected, got } => {
                write!(f, "array `{name}` has rank {expected}, indexed with {got}")
            }
            CheckError::UnknownProcedure(n) => write!(f, "unknown procedure `{n}`"),
            CheckError::UnknownIntrinsic(n) => write!(f, "unknown intrinsic `{n}`"),
            CheckError::ProcedureArity { name, expected, got } => {
                write!(f, "procedure `{name}` takes {expected} arguments, got {got}")
            }
        }
    }
}

const INTRINSICS: &[(&str, usize)] = &[
    ("f", 1),
    ("g", 1),
    ("h", 1),
    ("sqrt", 1),
    ("sin", 1),
    ("cos", 1),
    ("exp", 1),
    ("abs", 1),
    ("min", 2),
    ("max", 2),
];

/// Name → rank (0 for scalars) in one scope.
type Scope = BTreeMap<Name, usize>;

struct Checker<'a> {
    prog: &'a Program,
    errors: Vec<CheckError>,
}

/// Checks a whole program; returns every semantic error found.
pub fn check_program(prog: &Program) -> Vec<CheckError> {
    let mut c = Checker { prog, errors: Vec::new() };
    let mut scope = Scope::new();
    for d in &prog.decls {
        if scope.insert(d.name.clone(), d.dims.len()).is_some() {
            c.errors.push(CheckError::DuplicateDeclaration(d.name.clone()));
        }
        for r in &d.dims {
            c.check_range(r, &scope);
        }
        if let Some(init) = &d.init {
            c.check_expr(init, &scope);
        }
    }
    let mut proc_names = BTreeSet::new();
    for p in &prog.procs {
        if !proc_names.insert(p.name.as_str()) {
            c.errors.push(CheckError::DuplicateDeclaration(p.name.clone()));
        }
        c.check_proc(p);
    }
    c.check_stmts(&prog.body, &mut scope.clone());
    c.errors
}

impl Checker<'_> {
    fn check_proc(&mut self, p: &ProcDef) {
        let mut scope = Scope::new();
        for d in p.params.iter().chain(&p.locals) {
            if scope.insert(d.name.clone(), d.dims.len()).is_some() {
                self.errors.push(CheckError::DuplicateDeclaration(d.name.clone()));
            }
        }
        self.check_stmts(&p.body, &mut scope);
    }

    fn check_stmts(&mut self, stmts: &[Stmt], scope: &mut Scope) {
        for s in stmts {
            match s {
                Stmt::Assign { target, value } => {
                    match target {
                        LValue::Var(name) => match scope.get(name) {
                            None => self.errors.push(CheckError::Undeclared(name.clone())),
                            Some(&rank) if rank > 0 => {
                                self.errors.push(CheckError::ArrayUsedAsScalar(name.clone()))
                            }
                            _ => {}
                        },
                        LValue::Index(name, idx) => {
                            self.check_indexing(name, idx.len(), scope);
                            for e in idx {
                                self.check_expr(e, scope);
                            }
                        }
                    }
                    self.check_expr(value, scope);
                }
                Stmt::Do { var, ranges, mask, body, .. } => {
                    for r in ranges {
                        self.check_range_loop(r, scope);
                    }
                    // The induction variable is implicitly a scalar for
                    // the loop's extent (and stays visible after, as in
                    // FORTRAN).
                    let shadowed = scope.insert(var.clone(), 0);
                    if let Some(m) = mask {
                        self.check_expr(m, scope);
                    }
                    self.check_stmts(body, scope);
                    if let Some(old) = shadowed {
                        scope.insert(var.clone(), old);
                    }
                }
                Stmt::If { cond, then_body, else_body } => {
                    self.check_expr(cond, scope);
                    self.check_stmts(then_body, scope);
                    self.check_stmts(else_body, scope);
                }
                Stmt::Call { name, args } => {
                    match self.prog.proc(name) {
                        None => self.errors.push(CheckError::UnknownProcedure(name.clone())),
                        Some(p) if p.params.len() != args.len() => {
                            self.errors.push(CheckError::ProcedureArity {
                                name: name.clone(),
                                expected: p.params.len(),
                                got: args.len(),
                            })
                        }
                        Some(_) => {}
                    }
                    for a in args {
                        // Whole-array arguments are allowed in calls.
                        if let Expr::Var(n) = a {
                            if !scope.contains_key(n) {
                                self.errors.push(CheckError::Undeclared(n.clone()));
                            }
                        } else {
                            self.check_expr(a, scope);
                        }
                    }
                }
            }
        }
    }

    fn check_range(&mut self, r: &Range, scope: &Scope) {
        self.check_expr(&r.lo, scope);
        self.check_expr(&r.hi, scope);
        if let Some(s) = &r.step {
            self.check_expr(s, scope);
        }
    }

    fn check_range_loop(&mut self, r: &Range, scope: &Scope) {
        self.check_range(r, scope);
    }

    fn check_indexing(&mut self, name: &Name, got: usize, scope: &Scope) {
        match scope.get(name) {
            None => self.errors.push(CheckError::Undeclared(name.clone())),
            Some(0) => self.errors.push(CheckError::ScalarIndexed(name.clone())),
            Some(&rank) if rank != got => self.errors.push(CheckError::RankMismatch {
                name: name.clone(),
                expected: rank,
                got,
            }),
            Some(_) => {}
        }
    }

    fn check_expr(&mut self, e: &Expr, scope: &Scope) {
        match e {
            Expr::IntLit(_) | Expr::FloatLit(_) => {}
            Expr::Var(name) => match scope.get(name) {
                None => self.errors.push(CheckError::Undeclared(name.clone())),
                Some(&rank) if rank > 0 => {
                    self.errors.push(CheckError::ArrayUsedAsScalar(name.clone()))
                }
                _ => {}
            },
            Expr::Index(name, idx) => {
                self.check_indexing(name, idx.len(), scope);
                for i in idx {
                    self.check_expr(i, scope);
                }
            }
            Expr::Bin(_, l, r) => {
                self.check_expr(l, scope);
                self.check_expr(r, scope);
            }
            Expr::Un(_, i) => self.check_expr(i, scope),
            Expr::Call(name, args) => {
                match INTRINSICS.iter().find(|(n, _)| *n == name.as_str()) {
                    None => self.errors.push(CheckError::UnknownIntrinsic(name.clone())),
                    Some((_, arity)) if *arity != args.len() => {
                        self.errors.push(CheckError::ProcedureArity {
                            name: name.clone(),
                            expected: *arity,
                            got: args.len(),
                        })
                    }
                    Some(_) => {}
                }
                for a in args {
                    self.check_expr(a, scope);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn errors(src: &str) -> Vec<CheckError> {
        check_program(&parse_program(src).unwrap())
    }

    #[test]
    fn clean_program_has_no_errors() {
        let e = errors(
            "program t\n integer n = 4\n float x[1..n]\n do i = 1, n { x[i] = f(1.0) + i }\nend",
        );
        assert_eq!(e, vec![]);
    }

    #[test]
    fn figure1_is_clean() {
        assert_eq!(check_program(&crate::builder::figure1_program(8)), vec![]);
    }

    #[test]
    fn undeclared_variable() {
        let e = errors("program t\n integer a\n a = b\nend");
        assert_eq!(e, vec![CheckError::Undeclared("b".into())]);
    }

    #[test]
    fn duplicate_declaration() {
        let e = errors("program t\n integer a, a\nend");
        assert_eq!(e, vec![CheckError::DuplicateDeclaration("a".into())]);
    }

    #[test]
    fn scalar_indexed() {
        let e = errors("program t\n integer a\n a[1] = 2\nend");
        assert_eq!(e, vec![CheckError::ScalarIndexed("a".into())]);
    }

    #[test]
    fn array_used_as_scalar() {
        let e = errors("program t\n integer n = 2, s\n integer x[1..n]\n s = x\nend");
        assert_eq!(e, vec![CheckError::ArrayUsedAsScalar("x".into())]);
    }

    #[test]
    fn rank_mismatch() {
        let e = errors("program t\n integer n = 2\n integer x[1..n, 1..n]\n x[1] = 2\nend");
        assert_eq!(e, vec![CheckError::RankMismatch { name: "x".into(), expected: 2, got: 1 }]);
    }

    #[test]
    fn unknown_procedure_and_arity() {
        let e = errors(
            "program t\n integer n = 2\n float x[1..n]\n proc p(float x[1..n]) { x[1] = 0.0 }\n call p(x, x)\n call q(x)\nend",
        );
        assert!(e.contains(&CheckError::ProcedureArity { name: "p".into(), expected: 1, got: 2 }));
        assert!(e.contains(&CheckError::UnknownProcedure("q".into())));
    }

    #[test]
    fn unknown_intrinsic_and_arity() {
        let e = errors("program t\n float y\n y = zeta(1.0) + min(1.0)\nend");
        assert!(e.contains(&CheckError::UnknownIntrinsic("zeta".into())));
        assert!(e.contains(&CheckError::ProcedureArity {
            name: "min".into(),
            expected: 2,
            got: 1
        }));
    }

    #[test]
    fn induction_variable_in_scope_only_logically() {
        // Using the loop variable after the loop is FORTRAN-legal here.
        let e = errors(
            "program t\n integer n = 3, s\n integer x[1..n]\n do i = 1, n { x[i] = i }\n s = 1\nend",
        );
        assert_eq!(e, vec![]);
    }

    #[test]
    fn whole_array_call_argument_allowed() {
        let e = errors(
            "program t\n integer n = 2\n float x[1..n]\n proc z(float a[1..n], integer n) { a[1] = 0.0 }\n call z(x, n)\nend",
        );
        assert_eq!(e, vec![]);
    }

    #[test]
    fn errors_display() {
        let e = CheckError::RankMismatch { name: "q".into(), expected: 2, got: 3 };
        assert!(e.to_string().contains("rank 2"));
    }

    #[test]
    fn transformed_programs_stay_clean() {
        // The split transformation's output must also type-check.
        use crate::builder::figure1_program;
        let p = figure1_program(8);
        assert_eq!(check_program(&p), vec![]);
    }
}
