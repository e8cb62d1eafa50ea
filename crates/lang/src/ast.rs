//! Abstract syntax of the MF language.
//!
//! The AST mirrors the loop-nest-level subset of FORTRAN the paper's
//! examples use, plus the two extensions the paper introduces in its
//! notation: masked loops (`do i = lo, hi where (e)`) and discontinuous
//! ranges (`do i = 1, a-1 and a+1, n`).

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An identifier, spelled once and shared: the lexer makes one `Name`
/// per distinct spelling of a source, and every token, AST node, SSA
/// table, symbolic term and descriptor triple that mentions it holds a
/// reference count, not a copy.
///
/// Equality, order and hashing are those of the spelling, so a `Name`
/// sorts, compares and hashes exactly as its `str` does, and maps keyed
/// by `Name` are looked up by `&str`.
#[derive(Clone)]
pub struct Name(Arc<str>);

impl Name {
    /// The spelling.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            Ordering::Equal
        } else {
            self.0.cmp(&other.0)
        }
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name(s.into())
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name(s.into())
    }
}

impl From<&Name> for Name {
    fn from(n: &Name) -> Name {
        n.clone()
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// Scalar element types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "integer"),
            Type::Float => write!(f, "float"),
        }
    }
}

/// A complete MF program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The program name from the `program` header.
    pub name: Name,
    /// Variable declarations (scalars and arrays).
    pub decls: Vec<Decl>,
    /// Procedure definitions.
    pub procs: Vec<ProcDef>,
    /// Top-level statements.
    pub body: Vec<Stmt>,
}

impl Program {
    /// Creates an empty program with the given name.
    pub fn new(name: impl Into<Name>) -> Self {
        Program { name: name.into(), decls: Vec::new(), procs: Vec::new(), body: Vec::new() }
    }

    /// Looks up a declaration by variable name.
    pub fn decl(&self, name: &str) -> Option<&Decl> {
        self.decls.iter().find(|d| d.name == name)
    }

    /// Looks up a procedure definition by name.
    pub fn proc(&self, name: &str) -> Option<&ProcDef> {
        self.procs.iter().find(|p| p.name == name)
    }
}

/// A variable declaration. `dims` is empty for scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    /// Variable name.
    pub name: Name,
    /// Element type.
    pub ty: Type,
    /// Declared index range per dimension; empty for a scalar.
    pub dims: Vec<Range>,
    /// Optional scalar initializer (evaluated at program start).
    pub init: Option<Expr>,
}

impl Decl {
    /// Creates a scalar declaration without initializer.
    pub fn scalar(name: impl Into<Name>, ty: Type) -> Self {
        Decl { name: name.into(), ty, dims: Vec::new(), init: None }
    }

    /// Creates a scalar declaration with an initializer.
    pub fn scalar_init(name: impl Into<Name>, ty: Type, init: Expr) -> Self {
        Decl { name: name.into(), ty, dims: Vec::new(), init: Some(init) }
    }

    /// Creates an array declaration.
    pub fn array(name: impl Into<Name>, ty: Type, dims: Vec<Range>) -> Self {
        Decl { name: name.into(), ty, dims, init: None }
    }

    /// Returns true if this declares an array.
    pub fn is_array(&self) -> bool {
        !self.dims.is_empty()
    }
}

/// A procedure definition. Procedures are call-by-reference, like
/// FORTRAN subroutines.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcDef {
    /// Procedure name.
    pub name: Name,
    /// Formal parameters (declarations without initializers).
    pub params: Vec<Decl>,
    /// Local declarations.
    pub locals: Vec<Decl>,
    /// Procedure body.
    pub body: Vec<Stmt>,
}

/// An index range `lo .. hi` with an optional skip (stride), default 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Range {
    /// First value (inclusive).
    pub lo: Expr,
    /// Last value (inclusive).
    pub hi: Expr,
    /// Stride; `None` means 1.
    pub step: Option<Expr>,
}

impl Range {
    /// A unit-stride range.
    pub fn new(lo: Expr, hi: Expr) -> Self {
        Range { lo, hi, step: None }
    }

    /// A constant unit-stride range.
    pub fn constant(lo: i64, hi: i64) -> Self {
        Range::new(Expr::IntLit(lo), Expr::IntLit(hi))
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=` (comparison in expression position)
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and`
    And,
    /// `or`
    Or,
}

impl BinOp {
    /// Whether this operator yields a boolean (0/1) result.
    pub fn is_comparison(&self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }

    /// The comparison with swapped operands (`a < b` ⇔ `b > a`), if any.
    pub fn swap(&self) -> Option<BinOp> {
        Some(match self {
            BinOp::Eq => BinOp::Eq,
            BinOp::Ne => BinOp::Ne,
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            _ => return None,
        })
    }

    /// The logical negation of a comparison (`<` ⇔ `>=`), if any.
    pub fn negate(&self) -> Option<BinOp> {
        Some(match self {
            BinOp::Eq => BinOp::Ne,
            BinOp::Ne => BinOp::Eq,
            BinOp::Lt => BinOp::Ge,
            BinOp::Le => BinOp::Gt,
            BinOp::Gt => BinOp::Le,
            BinOp::Ge => BinOp::Lt,
            _ => return None,
        })
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical negation.
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// Scalar variable reference.
    Var(Name),
    /// Array element reference `a[i, j]`.
    Index(Name, Vec<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Call to a pure intrinsic function.
    Call(Name, Vec<Expr>),
}

impl Expr {
    /// Shorthand for a variable reference.
    pub fn var(name: impl Into<Name>) -> Self {
        Expr::Var(name.into())
    }

    /// Shorthand for a binary operation.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Self {
        Expr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// Shorthand for an array index expression.
    pub fn index(name: impl Into<Name>, idx: Vec<Expr>) -> Self {
        Expr::Index(name.into(), idx)
    }

    /// Visits this node, then every subexpression, outermost first.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Var(_) => {}
            Expr::Index(_, es) | Expr::Call(_, es) => es.iter().for_each(|e| e.walk(f)),
            Expr::Bin(_, l, r) => {
                l.walk(f);
                r.walk(f);
            }
            Expr::Un(_, e) => e.walk(f),
        }
    }

    /// Rebuilds this expression bottom-up: every subexpression is mapped
    /// first, then `f` maps the node built from the results.
    pub fn map(&self, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
        let node = match self {
            Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Var(_) => self.clone(),
            Expr::Index(a, es) => Expr::Index(a.clone(), es.iter().map(|e| e.map(f)).collect()),
            Expr::Call(g, es) => Expr::Call(g.clone(), es.iter().map(|e| e.map(f)).collect()),
            Expr::Bin(op, l, r) => Expr::bin(*op, l.map(f), r.map(f)),
            Expr::Un(op, e) => Expr::Un(*op, Box::new(e.map(f))),
        };
        f(node)
    }

    /// Renames every variable and array this expression reads by `f`
    /// (`None` keeps a name); intrinsic names are left alone.
    pub fn rename(&self, f: &impl Fn(&Name) -> Option<Name>) -> Expr {
        self.map(&mut |e| match e {
            Expr::Var(v) => Expr::Var(f(&v).unwrap_or(v)),
            Expr::Index(a, idx) => Expr::Index(f(&a).unwrap_or(a), idx),
            e => e,
        })
    }

    /// True when this expression reads scalar variable `name`.
    pub fn reads(&self, name: &str) -> bool {
        let mut found = false;
        self.walk(&mut |e| found |= matches!(e, Expr::Var(v) if v == name));
        found
    }

    /// Collects the names of all scalar variables read by this expression
    /// (array index variables included; array names excluded).
    pub fn scalar_reads(&self, out: &mut BTreeSet<Name>) {
        self.walk(&mut |e| {
            if let Expr::Var(v) = e {
                out.insert(v.clone());
            }
        });
    }

    /// Collects the names of all arrays referenced by this expression.
    pub fn array_reads(&self, out: &mut BTreeSet<Name>) {
        self.walk(&mut |e| {
            if let Expr::Index(a, _) = e {
                out.insert(a.clone());
            }
        });
    }

    /// Substitutes every occurrence of scalar variable `name` with `repl`.
    pub fn subst(&self, name: &str, repl: &Expr) -> Expr {
        self.map(&mut |e| match e {
            Expr::Var(v) if v == name => repl.clone(),
            e => e,
        })
    }

    /// Returns the constant integer value of this expression if it is a
    /// literal (possibly negated).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Expr::IntLit(v) => Some(*v),
            Expr::Un(UnOp::Neg, e) => e.as_int().map(|v| -v),
            _ => None,
        }
    }
}

/// The target of an assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Scalar variable.
    Var(Name),
    /// Array element.
    Index(Name, Vec<Expr>),
}

impl LValue {
    /// The name of the variable or array being written.
    pub fn name(&self) -> &Name {
        match self {
            LValue::Var(n) => n,
            LValue::Index(n, _) => n,
        }
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `target = value`
    Assign {
        /// The location written.
        target: LValue,
        /// The value expression.
        value: Expr,
    },
    /// A `do` loop, possibly masked, possibly over a discontinuous range.
    Do {
        /// Optional label (used by split to name generated pieces).
        label: Option<Name>,
        /// Induction variable name.
        var: Name,
        /// One or more ranges, iterated in order (`do i = r1 and r2`).
        ranges: Vec<Range>,
        /// Optional `where` mask; iterations with a false mask are skipped.
        mask: Option<Expr>,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `if (cond) { ... } else { ... }`
    If {
        /// Branch condition.
        cond: Expr,
        /// Taken when `cond` is non-zero.
        then_body: Vec<Stmt>,
        /// Taken when `cond` is zero. May be empty.
        else_body: Vec<Stmt>,
    },
    /// `call p(args)` — procedure invocation (by-reference).
    Call {
        /// Procedure name.
        name: Name,
        /// Actual arguments.
        args: Vec<Expr>,
    },
}

impl Stmt {
    /// Creates a simple (unlabeled, unmasked, single-range) `do` loop.
    pub fn simple_do(var: impl Into<Name>, lo: Expr, hi: Expr, body: Vec<Stmt>) -> Self {
        Stmt::Do {
            label: None,
            var: var.into(),
            ranges: vec![Range::new(lo, hi)],
            mask: None,
            body,
        }
    }

    /// Creates an assignment statement.
    pub fn assign(target: LValue, value: Expr) -> Self {
        Stmt::Assign { target, value }
    }

    /// The label of this statement, if it is a labeled loop.
    pub fn label(&self) -> Option<&str> {
        match self {
            Stmt::Do { label, .. } => label.as_deref(),
            _ => None,
        }
    }

    /// Visits this statement, then every nested statement, in program
    /// order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        match self {
            Stmt::Assign { .. } | Stmt::Call { .. } => {}
            Stmt::Do { body, .. } => body.iter().for_each(|s| s.walk(f)),
            Stmt::If { then_body, else_body, .. } => {
                then_body.iter().chain(else_body).for_each(|s| s.walk(f))
            }
        }
    }

    /// Visits the expressions this statement holds itself, not those of
    /// nested statements: an assignment's target indices and value; each
    /// range's `lo`, `hi` and `step`, then the mask; the condition; the
    /// call arguments.
    pub fn exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match self {
            Stmt::Assign { target, value } => {
                if let LValue::Index(_, idx) = target {
                    idx.iter().for_each(&mut *f);
                }
                f(value);
            }
            Stmt::Do { ranges, mask, .. } => {
                for r in ranges {
                    f(&r.lo);
                    f(&r.hi);
                    r.step.iter().for_each(&mut *f);
                }
                mask.iter().for_each(f);
            }
            Stmt::If { cond, .. } => f(cond),
            Stmt::Call { args, .. } => args.iter().for_each(f),
        }
    }

    /// Renames every variable and array by `f` (`None` keeps a name):
    /// reads, assignment targets and loop variables. Labels, procedure
    /// names and intrinsic names are left alone.
    pub fn rename(&self, f: &impl Fn(&Name) -> Option<Name>) -> Stmt {
        let name = |n: &Name| f(n).unwrap_or_else(|| n.clone());
        let exprs = |es: &[Expr]| es.iter().map(|e| e.rename(f)).collect();
        let stmts = |ss: &[Stmt]| ss.iter().map(|s| s.rename(f)).collect();
        match self {
            Stmt::Assign { target, value } => Stmt::Assign {
                target: match target {
                    LValue::Var(v) => LValue::Var(name(v)),
                    LValue::Index(a, idx) => LValue::Index(name(a), exprs(idx)),
                },
                value: value.rename(f),
            },
            Stmt::Do { label, var, ranges, mask, body } => Stmt::Do {
                label: label.clone(),
                var: name(var),
                ranges: ranges
                    .iter()
                    .map(|r| Range {
                        lo: r.lo.rename(f),
                        hi: r.hi.rename(f),
                        step: r.step.as_ref().map(|e| e.rename(f)),
                    })
                    .collect(),
                mask: mask.as_ref().map(|m| m.rename(f)),
                body: stmts(body),
            },
            Stmt::If { cond, then_body, else_body } => Stmt::If {
                cond: cond.rename(f),
                then_body: stmts(then_body),
                else_body: stmts(else_body),
            },
            Stmt::Call { name: p, args } => Stmt::Call { name: p.clone(), args: exprs(args) },
        }
    }

    /// Collects scalar variables written by this statement (transitively).
    pub fn scalar_writes(&self, out: &mut BTreeSet<Name>) {
        self.walk(&mut |s| match s {
            Stmt::Assign { target: LValue::Var(v), .. } | Stmt::Do { var: v, .. } => {
                out.insert(v.clone());
            }
            _ => {}
        });
    }

    /// Collects array names written by this statement (transitively;
    /// calls are treated as writing every array argument, conservatively).
    pub fn array_writes(&self, out: &mut BTreeSet<Name>) {
        self.walk(&mut |s| match s {
            Stmt::Assign { target: LValue::Index(a, _), .. } => {
                out.insert(a.clone());
            }
            Stmt::Call { args, .. } => out.extend(args.iter().filter_map(|a| match a {
                Expr::Var(name) => Some(name.clone()),
                _ => None,
            })),
            _ => {}
        });
    }

    /// Visits every expression in this statement, outermost first.
    pub fn visit_exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        self.walk(&mut |s| s.exprs(f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;

    /// A spelling over a small alphabet (a non-ASCII letter included),
    /// so that pairs are often equal or share a prefix.
    fn spelling() -> impl Strategy<Value = String> {
        let letter = proptest::sample::select(vec!['a', 'b', 'z', '_', '#', '1', 'é']);
        proptest::collection::vec(letter, 0..5).prop_map(|cs| cs.into_iter().collect())
    }

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    proptest! {
        /// Everything ordered, keyed or printed by `Name` reads as it did
        /// by `String`: term lists, sets, maps and the goldens.
        #[test]
        fn a_name_is_its_spelling(a in spelling(), b in spelling()) {
            let (x, y) = (Name::from(a.as_str()), Name::from(b.clone()));
            prop_assert_eq!(x == y, a == b);
            prop_assert_eq!(x.cmp(&y), a.cmp(&b));
            prop_assert_eq!(x.partial_cmp(&y), a.partial_cmp(&b));
            prop_assert_eq!(hash_of(&x), hash_of(a.as_str()));
            prop_assert_eq!(hash_of(&x) == hash_of(&y), hash_of(a.as_str()) == hash_of(b.as_str()));
            prop_assert!(x == x.clone() && x.cmp(&x.clone()) == Ordering::Equal);
            prop_assert!(x == a.as_str() && x.as_str() == a && &*x == a.as_str());
            prop_assert_eq!(format!("{x} {x:?} {x:>6}"), format!("{a} {a:?} {a:>6}"));

            let map = HashMap::from([(x.clone(), 1)]);
            prop_assert_eq!(map.get(a.as_str()), Some(&1));
            prop_assert_eq!(map.contains_key(b.as_str()), a == b);
            let set = BTreeSet::from([x.clone(), y.clone()]);
            prop_assert!(set.contains(a.as_str()) && set.contains(b.as_str()));
            let mut spelled = vec![a.as_str(), b.as_str()];
            spelled.sort();
            spelled.dedup();
            prop_assert_eq!(set.iter().map(Name::as_str).collect::<Vec<_>>(), spelled);
        }
    }

    fn sample_loop() -> Stmt {
        // do i = 1, n { q[i, col] = result[i] }
        Stmt::simple_do(
            "i",
            Expr::IntLit(1),
            Expr::var("n"),
            vec![Stmt::assign(
                LValue::Index("q".into(), vec![Expr::var("i"), Expr::var("col")]),
                Expr::index("result", vec![Expr::var("i")]),
            )],
        )
    }

    #[test]
    fn scalar_reads_collects_index_vars() {
        let e = Expr::index("q", vec![Expr::var("i"), Expr::var("col")]);
        let mut s = BTreeSet::new();
        e.scalar_reads(&mut s);
        assert!(s.contains("i") && s.contains("col"));
        assert!(!s.contains("q"), "array names are not scalar reads");
    }

    #[test]
    fn array_reads_collects_names() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::index("q", vec![Expr::var("i")]),
            Expr::index("x", vec![Expr::IntLit(3)]),
        );
        let mut s = BTreeSet::new();
        e.array_reads(&mut s);
        assert_eq!(s.into_iter().collect::<Vec<_>>(), vec!["q", "x"]);
    }

    #[test]
    fn stmt_array_writes() {
        let mut s = BTreeSet::new();
        sample_loop().array_writes(&mut s);
        assert_eq!(s.into_iter().collect::<Vec<_>>(), vec!["q"]);
    }

    #[test]
    fn stmt_scalar_writes_include_induction_var() {
        let mut s = BTreeSet::new();
        sample_loop().scalar_writes(&mut s);
        assert!(s.contains("i"));
    }

    #[test]
    fn subst_replaces_only_target() {
        let e = Expr::bin(BinOp::Add, Expr::var("i"), Expr::var("j"));
        let r = e.subst("i", &Expr::IntLit(5));
        assert_eq!(r, Expr::bin(BinOp::Add, Expr::IntLit(5), Expr::var("j")));
    }

    #[test]
    fn subst_reaches_into_indices() {
        let e = Expr::index("q", vec![Expr::var("i")]);
        let r = e.subst("i", &Expr::bin(BinOp::Sub, Expr::var("i"), Expr::IntLit(1)));
        assert_eq!(
            r,
            Expr::index("q", vec![Expr::bin(BinOp::Sub, Expr::var("i"), Expr::IntLit(1))])
        );
    }

    #[test]
    fn negate_comparison() {
        assert_eq!(BinOp::Lt.negate(), Some(BinOp::Ge));
        assert_eq!(BinOp::Eq.negate(), Some(BinOp::Ne));
        assert_eq!(BinOp::Add.negate(), None);
    }

    #[test]
    fn as_int_handles_negation() {
        let e = Expr::Un(UnOp::Neg, Box::new(Expr::IntLit(7)));
        assert_eq!(e.as_int(), Some(-7));
    }

    #[test]
    fn program_lookup() {
        let mut p = Program::new("t");
        p.decls.push(Decl::scalar("n", Type::Int));
        assert!(p.decl("n").is_some());
        assert!(p.decl("m").is_none());
    }

    #[test]
    fn visit_exprs_sees_mask_and_bounds() {
        let s = Stmt::Do {
            label: None,
            var: "i".into(),
            ranges: vec![Range::new(Expr::IntLit(1), Expr::var("n"))],
            mask: Some(Expr::bin(
                BinOp::Ne,
                Expr::index("mask", vec![Expr::var("i")]),
                Expr::IntLit(0),
            )),
            body: vec![],
        };
        let mut count = 0;
        s.visit_exprs(&mut |_| count += 1);
        assert_eq!(count, 3, "lo, hi, mask");
    }

    #[test]
    fn walk_is_outermost_first() {
        let e = Expr::bin(BinOp::Add, Expr::index("q", vec![Expr::var("i")]), Expr::IntLit(1));
        let mut seen = Vec::new();
        e.walk(&mut |x| seen.push(x));
        let q_i = Expr::index("q", vec![Expr::var("i")]);
        assert_eq!(seen, [&e, &q_i, &Expr::var("i"), &Expr::IntLit(1)]);
    }

    /// A statement's own expressions include every range's step and stop
    /// at its body; the walk reaches the nested statements.
    #[test]
    fn exprs_hold_the_step_and_not_the_body() {
        let p = crate::parse_program(
            "program p\n integer n = 4, s = 2\n float y[1..n]\n do k = 1, n, s where (k > 0) { y[k] = 1.0 }\nend",
        )
        .unwrap();
        let mut own = Vec::new();
        p.body[0].exprs(&mut |e| own.push(crate::pretty::expr_to_string(e)));
        assert_eq!(own, ["1", "n", "s", "k > 0"]);
        let mut stmts = 0;
        p.body[0].walk(&mut |_| stmts += 1);
        assert_eq!(stmts, 2);
    }

    #[test]
    fn reads_sees_scalars_not_array_names() {
        let e = Expr::bin(BinOp::Mul, Expr::index("q", vec![Expr::var("i")]), Expr::var("s"));
        assert!(e.reads("i") && e.reads("s"));
        assert!(!e.reads("q") && !e.reads("n"));
    }

    /// Every name a program binds is renamed, wherever it occurs; the
    /// identity rename rebuilds an equal tree.
    #[test]
    fn rename_reaches_targets_and_loop_variables() {
        let src = "program p\n integer n = 4, s\n float y[1..n]\n L: do k = 1, n, s where (y[k] <> 0) { s = s + 1\n y[k] = f(y[k]) }\n call r(y)\nend";
        let p = crate::parse_program(src).unwrap();
        let suffixed = |n: &Name| Some(Name::from(format!("{n}_")));
        let printed: String =
            p.body.iter().map(|s| crate::pretty::stmt_to_string(&s.rename(&suffixed))).collect();
        assert!(printed.contains("L: do k_ = 1, n_, s_ where (y_[k_] <> 0)"), "{printed}");
        assert!(
            printed.contains("s_ = s_ + 1") && printed.contains("y_[k_] = f(y_[k_])"),
            "{printed}"
        );
        assert!(printed.contains("call r(y_)"), "{printed}");
        for s in &p.body {
            assert_eq!(s.rename(&|_| None), *s);
        }
    }
}
