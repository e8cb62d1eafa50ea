//! Symbolic expressions, values, and assertions.
//!
//! Following §3.1 of the paper: a *symbolic expression* is a sum of named
//! terms, each with an integer coefficient, plus a constant. A *symbolic
//! value* is either an expression or a *range* (start/end expressions and
//! an integer skip). An *assertion* is a disjunction of conjunctions of
//! inequalities; branch conditions are converted to assertions and
//! propagated through the control-flow graph.
//!
//! Term names are the program's own [`Name`]s, shared with the AST: the
//! analysis pipeline uses SSA-name spellings (`"n#1"`); the descriptor
//! layer uses source variable names of unresolved constants (`"n"`,
//! `"a"`, induction variables).

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

pub use orchestra_lang::ast::Name;

/// A linear integer symbolic expression: `Σ coeffᵢ·nameᵢ + constant`.
///
/// The order of two expressions is that of their term lists, then
/// constants — `Display`, `symexpr_to_ast` and the shape of an
/// [`Assertion`] all follow the lexicographic order of the names.
#[derive(Debug, Clone, Default)]
pub struct SymExpr {
    terms: Terms,
    konst: i64,
}

/// `(name, coefficient)` pairs sorted by name, no name twice, no zero
/// coefficient. A lone term is held inline, so a name's own expression
/// (`n`, `i#2 - 1`) costs a reference count; two or more are immutable
/// and shared, so a clone is a reference count too. Each list has one
/// representation: no term is `None`, one is `One`.
#[derive(Debug, Clone, Default)]
enum Terms {
    #[default]
    None,
    One([(Name, i64); 1]),
    Many(Arc<[(Name, i64)]>),
}

impl Terms {
    fn as_slice(&self) -> &[(Name, i64)] {
        match self {
            Terms::None => &[],
            Terms::One(t) => t,
            Terms::Many(ts) => ts,
        }
    }
}

impl PartialEq for Terms {
    fn eq(&self, other: &Terms) -> bool {
        match (self, other) {
            (Terms::Many(a), Terms::Many(b)) if Arc::ptr_eq(a, b) => true,
            _ => self.as_slice() == other.as_slice(),
        }
    }
}

impl Eq for Terms {}

impl PartialEq for SymExpr {
    fn eq(&self, other: &SymExpr) -> bool {
        self.konst == other.konst && self.terms == other.terms
    }
}

impl Eq for SymExpr {}

impl PartialOrd for SymExpr {
    fn partial_cmp(&self, other: &SymExpr) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SymExpr {
    fn cmp(&self, other: &SymExpr) -> Ordering {
        let terms = self.term_list().cmp(other.term_list());
        terms.then(self.konst.cmp(&other.konst))
    }
}

impl Hash for SymExpr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.term_list().hash(state);
        self.konst.hash(state);
    }
}

/// A term list as an expression holds it: only a list of two or more
/// terms allocates.
fn shared(mut terms: Vec<(Name, i64)>) -> Terms {
    match terms.len() {
        0 => Terms::None,
        1 => Terms::One([terms.pop().expect("one term")]),
        _ => Terms::Many(terms.into()),
    }
}

/// `a + k·b` over sorted term lists, in one merge pass; `k` is non-zero.
/// The first term waits aside, so a result of fewer than two terms is
/// never collected.
fn merge<'a>(a: impl IntoIterator<Item = &'a (Name, i64)>, b: &[(Name, i64)], k: i64) -> Terms {
    let mut a = a.into_iter().peekable();
    let mut b = b.iter().map(|(n, c)| (n, k * c)).peekable();
    let mut first = None;
    let mut rest = Vec::new();
    loop {
        let side = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => x.0.cmp(y.0),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => break,
        };
        let (n, c) = match side {
            Ordering::Less => a.next().map(|(n, c)| (n, *c)),
            Ordering::Greater => b.next(),
            Ordering::Equal => a.next().zip(b.next()).map(|((n, c), (_, d))| (n, c + d)),
        }
        .expect("peeked");
        if c == 0 {
            continue;
        }
        match first.take() {
            None if rest.is_empty() => first = Some((n.clone(), c)),
            held => rest.extend(held.into_iter().chain([(n.clone(), c)])),
        }
    }
    match first {
        Some(t) => Terms::One([t]),
        None => shared(rest),
    }
}

impl SymExpr {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> Self {
        SymExpr { terms: Terms::None, konst: c }
    }

    /// The expression consisting of a single name with coefficient 1.
    /// Pass a [`Name`] already held to share it.
    pub fn name(n: impl Into<Name>) -> Self {
        SymExpr { terms: Terms::One([(n.into(), 1)]), konst: 0 }
    }

    /// Builds an expression from term pairs (in any order, a name may
    /// repeat) and a constant.
    pub fn from_terms(pairs: impl IntoIterator<Item = (Name, i64)>, konst: i64) -> Self {
        let mut pairs: Vec<(Name, i64)> = pairs.into_iter().collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let mut terms: Vec<(Name, i64)> = Vec::with_capacity(pairs.len());
        for (n, c) in pairs {
            match terms.last_mut() {
                Some(last) if last.0 == n => last.1 += c,
                _ => terms.push((n, c)),
            }
        }
        terms.retain(|(_, c)| *c != 0);
        SymExpr { terms: shared(terms), konst }
    }

    fn term_list(&self) -> &[(Name, i64)] {
        self.terms.as_slice()
    }

    /// The constant part.
    pub fn constant_part(&self) -> i64 {
        self.konst
    }

    /// Iterates over `(name, coefficient)` term pairs, in name order.
    pub fn terms(&self) -> impl Iterator<Item = (&Name, i64)> {
        self.term_list().iter().map(|(n, c)| (n, *c))
    }

    /// True if the expression is a plain constant.
    pub(crate) fn is_constant(&self) -> bool {
        matches!(self.terms, Terms::None)
    }

    /// Returns the constant value if this expression has no terms.
    pub fn as_constant(&self) -> Option<i64> {
        if self.is_constant() {
            Some(self.konst)
        } else {
            None
        }
    }

    /// Returns `Some(name)` if the expression is exactly `1·name + 0`.
    pub fn as_name(&self) -> Option<&str> {
        match self.term_list() {
            [(n, 1)] if self.konst == 0 => Some(n),
            _ => None,
        }
    }

    /// Whether the expression mentions `name`.
    pub fn mentions(&self, name: &str) -> bool {
        self.coeff(name) != 0
    }

    /// The coefficient of `name` (zero if absent).
    pub fn coeff(&self, name: &str) -> i64 {
        self.term_list().iter().find(|(n, _)| &**n == name).map_or(0, |(_, c)| *c)
    }

    /// Sum of two expressions.
    pub fn add(&self, other: &SymExpr) -> SymExpr {
        self.plus_scaled(other, 1)
    }

    /// Difference of two expressions.
    pub fn sub(&self, other: &SymExpr) -> SymExpr {
        self.plus_scaled(other, -1)
    }

    /// `self + k·other`; a side without terms lends the other's list.
    fn plus_scaled(&self, other: &SymExpr, k: i64) -> SymExpr {
        let konst = self.konst + k * other.konst;
        let terms = match (&self.terms, &other.terms) {
            (mine, Terms::None) => mine.clone(),
            (Terms::None, theirs) if k == 1 => theirs.clone(),
            (_, theirs) => merge(self.term_list(), theirs.as_slice(), k),
        };
        SymExpr { terms, konst }
    }

    /// Adds a constant.
    pub fn offset(&self, c: i64) -> SymExpr {
        SymExpr { terms: self.terms.clone(), konst: self.konst + c }
    }

    /// Multiplies by an integer constant.
    pub fn scale(&self, k: i64) -> SymExpr {
        match k {
            0 => SymExpr::constant(0),
            1 => self.clone(),
            _ => SymExpr { terms: merge([], self.term_list(), k), konst: self.konst * k },
        }
    }

    /// Product, defined only when at least one side is constant.
    pub fn mul(&self, other: &SymExpr) -> Option<SymExpr> {
        if let Some(k) = other.as_constant() {
            Some(self.scale(k))
        } else {
            self.as_constant().map(|k| other.scale(k))
        }
    }

    /// Substitutes `name := repl` throughout.
    pub fn subst(&self, name: &str, repl: &SymExpr) -> SymExpr {
        let c = self.coeff(name);
        if c == 0 {
            return self.clone();
        }
        if self.term_list().len() == 1 {
            // `c·name + k`: the replacement's own list, scaled.
            return SymExpr::constant(self.konst).plus_scaled(repl, c);
        }
        let rest = self.term_list().iter().filter(|(n, _)| &**n != name);
        SymExpr { terms: merge(rest, repl.term_list(), c), konst: self.konst + c * repl.konst }
    }

    /// Compares two expressions when their difference is constant, which
    /// it is exactly when their term lists are equal.
    ///
    /// Returns `Some(ordering of self vs other)` only when provable.
    pub fn compare(&self, other: &SymExpr) -> Option<Ordering> {
        (self.terms == other.terms).then(|| self.konst.cmp(&other.konst))
    }

    /// Proves `self <= other` (conservatively: `None` means unknown).
    pub fn le(&self, other: &SymExpr) -> Option<bool> {
        self.compare(other).map(|o| o != Ordering::Greater)
    }

    /// Proves `self < other`.
    pub fn lt(&self, other: &SymExpr) -> Option<bool> {
        self.compare(other).map(|o| o == Ordering::Less)
    }

    /// Proves syntactic/arithmetic equality.
    pub fn eq_expr(&self, other: &SymExpr) -> Option<bool> {
        self.compare(other).map(|o| o == Ordering::Equal)
    }
}

impl fmt::Display for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (n, c) in self.term_list() {
            if first {
                match *c {
                    1 => write!(f, "{n}")?,
                    -1 => write!(f, "-{n}")?,
                    c => write!(f, "{c}*{n}")?,
                }
                first = false;
            } else if *c < 0 {
                if *c == -1 {
                    write!(f, " - {n}")?;
                } else {
                    write!(f, " - {}*{n}", -c)?;
                }
            } else if *c == 1 {
                write!(f, " + {n}")?;
            } else {
                write!(f, " + {c}*{n}")?;
            }
        }
        if first {
            write!(f, "{}", self.konst)?;
        } else if self.konst > 0 {
            write!(f, " + {}", self.konst)?;
        } else if self.konst < 0 {
            write!(f, " - {}", -self.konst)?;
        }
        Ok(())
    }
}

/// A symbolic iteration/index range `start..end` with an integer skip.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SymRange {
    /// First value (inclusive).
    pub start: SymExpr,
    /// Last value (inclusive).
    pub end: SymExpr,
    /// Stride (non-zero; 1 for dense ranges).
    pub skip: i64,
}

impl SymRange {
    /// Unit-skip range.
    pub fn new(start: SymExpr, end: SymExpr) -> Self {
        SymRange { start, end, skip: 1 }
    }

    /// Constant unit range.
    pub fn constant(lo: i64, hi: i64) -> Self {
        SymRange::new(SymExpr::constant(lo), SymExpr::constant(hi))
    }

    /// A range holding the single value of `e`.
    pub fn point(e: SymExpr) -> Self {
        SymRange { start: e.clone(), end: e, skip: 1 }
    }

    /// True when this range is provably a single point.
    pub fn is_point(&self) -> bool {
        self.start.eq_expr(&self.end) == Some(true)
    }

    /// Proves the range empty (`end < start`).
    pub fn is_empty(&self) -> Option<bool> {
        self.end.lt(&self.start)
    }

    /// Proves two ranges disjoint. `None`/`false` both mean "may overlap";
    /// callers must treat unknown as overlapping (conservative).
    pub fn disjoint(&self, other: &SymRange) -> bool {
        // Provably empty ranges are disjoint from everything.
        if self.is_empty() == Some(true) || other.is_empty() == Some(true) {
            return true;
        }
        if self.end.lt(&other.start) == Some(true) || other.end.lt(&self.start) == Some(true) {
            return true;
        }
        // Same stride, both points reduced: unequal constants on
        // congruence classes (e.g. skip 2 starting at 0 vs 1).
        if self.skip == other.skip && self.skip > 1 {
            if let (Some(a), Some(b)) = (self.start.as_constant(), other.start.as_constant()) {
                if (a - b).rem_euclid(self.skip) != 0 {
                    // Only sound if both ranges stay on their lattice:
                    // true by construction of skip-ranges.
                    return true;
                }
            }
        }
        // Two points with provably different values.
        if self.is_point() && other.is_point() {
            if let Some(ord) = self.start.compare(&other.start) {
                return ord != Ordering::Equal;
            }
        }
        false
    }

    /// Substitutes a name in both bounds.
    pub fn subst(&self, name: &str, repl: &SymExpr) -> SymRange {
        SymRange {
            start: self.start.subst(name, repl),
            end: self.end.subst(name, repl),
            skip: self.skip,
        }
    }

    /// Whether either bound mentions `name`.
    pub fn mentions(&self, name: &str) -> bool {
        self.start.mentions(name) || self.end.mentions(name)
    }

    /// Proves this range contains `other` (start ≤ other.start and
    /// other.end ≤ end). Unknown ⇒ `false`.
    pub fn contains_range(&self, other: &SymRange) -> bool {
        self.start.le(&other.start) == Some(true) && other.end.le(&self.end) == Some(true)
    }
}

impl fmt::Display for SymRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)?;
        if self.skip != 1 {
            write!(f, " by {}", self.skip)?;
        }
        Ok(())
    }
}

/// A symbolic value: a single expression or a range of values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SymValue {
    /// A single (possibly symbolic) integer value.
    Expr(SymExpr),
    /// A range of values.
    Range(SymRange),
    /// A floating-point constant (the paper permits float constants in
    /// symbolic values; they never appear in index arithmetic).
    FloatConst(ordered::OrderedF64),
    /// Nothing provable.
    Unknown,
}

impl SymValue {
    /// Convenience constructor for a constant integer value.
    pub fn int(v: i64) -> Self {
        SymValue::Expr(SymExpr::constant(v))
    }
}

impl fmt::Display for SymValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymValue::Expr(e) => write!(f, "{e}"),
            SymValue::Range(r) => write!(f, "[{r}]"),
            SymValue::FloatConst(v) => write!(f, "{}", v.0),
            SymValue::Unknown => write!(f, "?"),
        }
    }
}

/// Total-ordered `f64` wrapper so symbolic values can be hashed.
pub mod ordered {
    /// An `f64` with `Eq`/`Ord`/`Hash` via total ordering.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct OrderedF64(pub f64);

    impl Eq for OrderedF64 {}
    impl std::hash::Hash for OrderedF64 {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            self.0.to_bits().hash(state);
        }
    }
    impl PartialOrd for OrderedF64 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for OrderedF64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }
}

/// Relational operators in normalized inequalities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rel {
    /// `expr = 0`
    EqZero,
    /// `expr <> 0`
    NeZero,
    /// `expr <= 0`
    LeZero,
}

/// A normalized inequality `expr REL 0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ineq {
    /// Left-hand side.
    pub expr: SymExpr,
    /// Relation to zero.
    pub rel: Rel,
}

impl Ineq {
    /// `a = b` as `a-b = 0`.
    pub fn eq(a: &SymExpr, b: &SymExpr) -> Self {
        Ineq { expr: a.sub(b), rel: Rel::EqZero }
    }

    /// `a <> b` as `a-b <> 0`.
    pub fn ne(a: &SymExpr, b: &SymExpr) -> Self {
        Ineq { expr: a.sub(b), rel: Rel::NeZero }
    }

    /// `a <= b` as `a-b <= 0`.
    pub fn le(a: &SymExpr, b: &SymExpr) -> Self {
        Ineq { expr: a.sub(b), rel: Rel::LeZero }
    }

    /// `a < b` as `a-b+1 <= 0`.
    pub fn lt(a: &SymExpr, b: &SymExpr) -> Self {
        Ineq { expr: a.sub(b).offset(1), rel: Rel::LeZero }
    }

    /// Evaluates the inequality when the expression is constant.
    pub(crate) fn eval_const(&self) -> Option<bool> {
        let c = self.expr.as_constant()?;
        Some(match self.rel {
            Rel::EqZero => c == 0,
            Rel::NeZero => c != 0,
            Rel::LeZero => c <= 0,
        })
    }

    /// The logical negation. `LeZero` negates to `expr-1 >= 0`, i.e.
    /// `-(expr)+1 <= 0`.
    pub fn negate(&self) -> Ineq {
        match self.rel {
            Rel::EqZero => Ineq { expr: self.expr.clone(), rel: Rel::NeZero },
            Rel::NeZero => Ineq { expr: self.expr.clone(), rel: Rel::EqZero },
            Rel::LeZero => Ineq { expr: self.expr.scale(-1).offset(1), rel: Rel::LeZero },
        }
    }

    /// Substitutes a name.
    pub fn subst(&self, name: &str, repl: &SymExpr) -> Ineq {
        Ineq { expr: self.expr.subst(name, repl), rel: self.rel }
    }
}

impl fmt::Display for Ineq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.rel {
            Rel::EqZero => "=",
            Rel::NeZero => "<>",
            Rel::LeZero => "<=",
        };
        write!(f, "{} {op} 0", self.expr)
    }
}

/// A conjunction of inequalities, always *simplified and consistent*:
/// no atom is constant, none is held twice, and no two contradict by
/// [`pair_contradictory`]. [`Conj::with`] is the only way to add an
/// atom, so nothing ever re-validates a whole clause.
///
/// The atoms sit in a persistent trie over [`linear_key`], two bits a
/// level: one leaf per linear part, so conjoining looks at the one or
/// two atoms the rules can relate it to, and a clause shares all but
/// one root path with the clause it extends. Each key set has one trie
/// shape and leaves are sorted, so `==` is set equality.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
enum Conj {
    #[default]
    Empty,
    /// The atoms whose linear parts hash to `key`, sorted.
    Leaf(u64, Arc<[Ineq]>),
    /// Children by the key's two bits at level `depth`, the lower bit
    /// first, so the leaves lie in the order of the bit-reversed keys.
    Fork(Arc<[Conj; 4]>),
}

/// Hash of an expression's terms up to an overall sign. Every rule of
/// [`pair_contradictory`] needs term lists that are equal or negated,
/// so atoms it can relate share a key.
fn linear_key(e: &SymExpr) -> u64 {
    let flip = e.term_list().first().is_some_and(|(_, c)| *c < 0);
    let mut h = DefaultHasher::new();
    for (n, c) in e.term_list() {
        (n, if flip { -c } else { *c }).hash(&mut h);
    }
    h.finish()
}

impl Conj {
    /// `self ∧ atom`, or `None` when that is contradictory.
    fn with(&self, atom: &Ineq) -> Option<Conj> {
        match atom.eval_const() {
            Some(true) => Some(self.clone()),
            Some(false) => None,
            None => self.insert(linear_key(&atom.expr), 0, atom),
        }
    }

    fn insert(&self, key: u64, depth: u32, atom: &Ineq) -> Option<Conj> {
        let side = |k: u64| {
            let bits = (k >> (2 * depth)) as usize;
            (bits & 1) << 1 | (bits >> 1) & 1
        };
        match self {
            Conj::Empty => Some(Conj::Leaf(key, Arc::from([atom.clone()]))),
            Conj::Leaf(k, atoms) if *k == key => {
                if atoms.iter().any(|held| pair_contradictory(held, atom)) {
                    return None;
                }
                let Err(at) = atoms.binary_search(atom) else { return Some(self.clone()) };
                let (below, above) = atoms.split_at(at);
                let atoms = below.iter().chain([atom]).chain(above).cloned().collect();
                Some(Conj::Leaf(key, atoms))
            }
            Conj::Leaf(k, _) => {
                let mut kids = [Conj::Empty, Conj::Empty, Conj::Empty, Conj::Empty];
                kids[side(*k)] = self.clone();
                kids[side(key)] = kids[side(key)].insert(key, depth + 1, atom)?;
                Some(Conj::Fork(Arc::new(kids)))
            }
            Conj::Fork(kids) => {
                let mut kids = (**kids).clone();
                kids[side(key)] = kids[side(key)].insert(key, depth + 1, atom)?;
                Some(Conj::Fork(Arc::new(kids)))
            }
        }
    }

    /// `self ∧ other`, or `None` when that is contradictory: `other`'s
    /// atoms conjoined one by one, in key order.
    fn and(&self, other: &Conj) -> Option<Conj> {
        match other {
            Conj::Empty => Some(self.clone()),
            Conj::Leaf(_, atoms) => atoms.iter().try_fold(self.clone(), |acc, atom| acc.with(atom)),
            Conj::Fork(kids) => kids.iter().try_fold(self.clone(), |acc, kid| acc.and(kid)),
        }
    }

    /// The atoms, in key order.
    fn atoms(&self) -> Vec<&Ineq> {
        fn walk<'a>(c: &'a Conj, out: &mut Vec<&'a Ineq>) {
            match c {
                Conj::Empty => {}
                Conj::Leaf(_, atoms) => out.extend(atoms.iter()),
                Conj::Fork(kids) => kids.iter().for_each(|k| walk(k, out)),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }
}

/// An assertion: a disjunction of conjunctions of inequalities (§3.1).
///
/// The empty disjunction is *false*; the disjunction of the one empty
/// conjunction is *true*. No clause is held twice, and a clause the
/// pairwise contradiction rules refute is never held, so an assertion
/// they refute *is* the empty disjunction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Assertion {
    clauses: Vec<Conj>,
}

impl Assertion {
    /// The trivially true assertion.
    pub fn truth() -> Self {
        Assertion { clauses: vec![Conj::Empty] }
    }

    /// The trivially false assertion.
    pub fn falsity() -> Self {
        Assertion { clauses: Vec::new() }
    }

    /// A single-inequality assertion.
    pub fn atom(i: Ineq) -> Self {
        Assertion { clauses: Conj::Empty.with(&i).into_iter().collect() }
    }

    /// True when this assertion is the constant *true*.
    pub fn is_truth(&self) -> bool {
        self.clauses.first() == Some(&Conj::Empty)
    }

    /// True when this assertion is the constant *false*.
    pub(crate) fn is_falsity(&self) -> bool {
        self.clauses.is_empty()
    }

    /// `self ∨ clause`: *true* absorbs everything, a clause already
    /// held is dropped.
    fn push(&mut self, clause: Conj) {
        if clause == Conj::Empty {
            *self = Assertion::truth();
        } else if !self.is_truth() && !self.clauses.contains(&clause) {
            self.clauses.push(clause);
        }
    }

    /// Conjunction (distributes over the DNF clauses).
    pub fn and(&self, other: &Assertion) -> Assertion {
        let mut out = Assertion::falsity();
        for a in &self.clauses {
            for b in &other.clauses {
                if let Some(c) = a.and(b) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// Disjunction.
    pub fn or(&self, other: &Assertion) -> Assertion {
        let mut out = self.clone();
        out.or_in(other.clone());
        out
    }

    /// `self ∨ other` in place: *false* takes `other` as it is.
    pub(crate) fn or_in(&mut self, other: Assertion) {
        if self.is_falsity() {
            *self = other;
        } else {
            other.clauses.into_iter().for_each(|c| self.push(c));
        }
    }

    /// Negation. Exact for single-clause assertions; conservative
    /// (weaker, i.e. *true*) when the DNF negation would explode.
    pub fn negate(&self) -> Assertion {
        // ¬(C1 ∨ C2 ∨ …) = ¬C1 ∧ ¬C2 ∧ …; ¬(i1 ∧ i2 …) = ¬i1 ∨ ¬i2 ∨ …
        let mut acc = Assertion::truth();
        for clause in &self.clauses {
            let atoms = clause.atoms();
            if atoms.len() > 4 {
                return Assertion::truth(); // conservative give-up
            }
            let mut neg = Assertion::falsity();
            for ineq in atoms {
                neg = neg.or(&Assertion::atom(ineq.negate()));
            }
            acc = acc.and(&neg);
            if acc.clauses.len() > 16 {
                return Assertion::truth();
            }
        }
        acc
    }

    /// Proves this assertion unsatisfiable (conservative): a clause the
    /// pairwise rules refute is never held, so only *false* is.
    pub fn contradictory(&self) -> bool {
        self.is_falsity()
    }

    /// Substitutes a name throughout.
    pub fn subst(&self, name: &str, repl: &SymExpr) -> Assertion {
        let mut out = Assertion::falsity();
        for clause in &self.clauses {
            let atoms = clause.atoms().into_iter();
            let new = atoms.map(|i| i.subst(name, repl)).try_fold(Conj::Empty, |c, i| c.with(&i));
            if let Some(c) = new {
                out.push(c);
            }
        }
        out
    }
}

impl fmt::Display for Assertion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_truth() {
            return write!(f, "true");
        }
        if self.is_falsity() {
            return write!(f, "false");
        }
        for (i, clause) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " or ")?;
            }
            write!(f, "(")?;
            for (j, ineq) in clause.atoms().into_iter().enumerate() {
                if j > 0 {
                    write!(f, " and ")?;
                }
                write!(f, "{ineq}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Conservative contradiction test for two atoms of a conjunction. The
/// sum or difference of two expressions is constant iff their term
/// lists negate or equal each other, so no expression is built.
fn pair_contradictory(i: &Ineq, j: &Ineq) -> bool {
    let (a, b) = (&i.expr, &j.expr);
    let equal = a.terms == b.terms;
    let (ta, tb) = (a.term_list(), b.term_list());
    let negated =
        ta.len() == tb.len() && ta.iter().zip(tb).all(|((n, c), (m, d))| n == m && *c == -*d);
    match (i.rel, j.rel) {
        // e = 0 together with e <> 0.
        (Rel::EqZero, Rel::NeZero) | (Rel::NeZero, Rel::EqZero) => equal && a.konst == b.konst,
        // a = 0 and b = 0 with a - b a non-zero constant.
        (Rel::EqZero, Rel::EqZero) => equal && a.konst != b.konst,
        // a <= 0 and b <= 0 with a + b a positive constant.
        (Rel::LeZero, Rel::LeZero) => negated && a.konst + b.konst > 0,
        // e = 0 and f <= 0 with f - e or f + e a positive constant.
        (Rel::EqZero, Rel::LeZero) => {
            (equal && b.konst - a.konst > 0) || (negated && b.konst + a.konst > 0)
        }
        (Rel::LeZero, Rel::EqZero) => {
            (equal && a.konst - b.konst > 0) || (negated && a.konst + b.konst > 0)
        }
        (Rel::NeZero, _) | (_, Rel::NeZero) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn n() -> SymExpr {
        SymExpr::name("n")
    }

    #[test]
    fn add_and_cancel() {
        let e = n().add(&n().scale(-1));
        assert_eq!(e, SymExpr::constant(0));
    }

    #[test]
    fn display_formats() {
        let e = SymExpr::from_terms([("a".into(), 2), ("b".into(), -1)], 3);
        assert_eq!(e.to_string(), "2*a - b + 3");
        assert_eq!(SymExpr::constant(0).to_string(), "0");
    }

    #[test]
    fn subst_linear() {
        // 2*i + 1 with i := n - 1  →  2*n - 1
        let e = SymExpr::name("i").scale(2).offset(1);
        let r = e.subst("i", &n().offset(-1));
        assert_eq!(r, n().scale(2).offset(-1));
    }

    #[test]
    fn compare_constant_difference() {
        let a = n().offset(1);
        let b = n().offset(3);
        assert_eq!(a.lt(&b), Some(true));
        assert_eq!(b.le(&a), Some(false));
        // n vs m: unknown.
        assert_eq!(n().lt(&SymExpr::name("m")), None);
    }

    #[test]
    fn mul_requires_constant_side() {
        assert_eq!(n().mul(&SymExpr::constant(3)), Some(n().scale(3)));
        assert_eq!(n().mul(&SymExpr::name("m")), None);
    }

    #[test]
    fn range_disjointness_constant() {
        let a = SymRange::constant(1, 5);
        let b = SymRange::constant(6, 9);
        assert!(a.disjoint(&b));
        let c = SymRange::constant(5, 7);
        assert!(!a.disjoint(&c));
    }

    #[test]
    fn range_disjointness_symbolic() {
        // 1..a-1 vs a..a (point) are disjoint.
        let a_expr = SymExpr::name("a");
        let r1 = SymRange::new(SymExpr::constant(1), a_expr.offset(-1));
        let point = SymRange::point(a_expr.clone());
        assert!(r1.disjoint(&point));
        // a+1..n vs a..a disjoint.
        let r2 = SymRange::new(a_expr.offset(1), SymExpr::name("n"));
        assert!(r2.disjoint(&point));
        // 1..n vs a..a unknown → not disjoint.
        let whole = SymRange::new(SymExpr::constant(1), SymExpr::name("n"));
        assert!(!whole.disjoint(&point));
    }

    #[test]
    fn point_ranges_with_known_difference() {
        let p1 = SymRange::point(SymExpr::name("i"));
        let p2 = SymRange::point(SymExpr::name("i").offset(-1));
        assert!(p1.disjoint(&p2), "iteration i vs i-1 write sets");
        let p3 = SymRange::point(SymExpr::name("i"));
        assert!(!p1.disjoint(&p3));
    }

    #[test]
    fn empty_range_disjoint_from_all() {
        let empty = SymRange::constant(5, 2);
        assert_eq!(empty.is_empty(), Some(true));
        assert!(empty.disjoint(&SymRange::constant(1, 10)));
    }

    #[test]
    fn contains_range_symbolic() {
        let whole = SymRange::new(SymExpr::constant(1), n());
        let sub = SymRange::new(SymExpr::constant(2), n().offset(-1));
        assert!(whole.contains_range(&sub));
        assert!(!sub.contains_range(&whole));
    }

    #[test]
    fn skip_congruence_disjoint() {
        let evens = SymRange { start: SymExpr::constant(0), end: SymExpr::constant(100), skip: 2 };
        let odds = SymRange { start: SymExpr::constant(1), end: SymExpr::constant(101), skip: 2 };
        assert!(evens.disjoint(&odds));
    }

    #[test]
    fn ineq_negation() {
        let i = Ineq::le(&n(), &SymExpr::constant(5)); // n - 5 <= 0
        let neg = i.negate(); // 5 - n + 1 <= 0  ⇔  n >= 6
        assert_eq!(neg.rel, Rel::LeZero);
        assert_eq!(neg.expr, n().scale(-1).offset(6));
    }

    #[test]
    fn assertion_and_or() {
        let a = Assertion::atom(Ineq::eq(&n(), &SymExpr::constant(1)));
        let b = Assertion::atom(Ineq::eq(&n(), &SymExpr::constant(2)));
        let both = a.and(&b);
        assert!(both.contradictory(), "n=1 and n=2 is unsatisfiable");
        let either = a.or(&b);
        assert_eq!(either.clauses.len(), 2);
        assert!(!either.contradictory());
    }

    #[test]
    fn a_repeated_atom_or_clause_is_held_once() {
        let le =
            |name: &str| Assertion::atom(Ineq::le(&SymExpr::name(name), &SymExpr::constant(0)));
        let (a, b) = (le("a"), le("b"));
        // `Vec::dedup` only dropped adjacent repeats: these two grew.
        assert_eq!(a.and(&b).and(&a), a.and(&b), "a and b and a");
        assert_eq!(a.and(&b).and(&a).clauses[0].atoms().len(), 2);
        assert_eq!(a.or(&b).or(&a), a.or(&b), "C1 or C2 or C1");
        assert_eq!(a.or(&b).or(&a).clauses.len(), 2);
        // Held as sets: the order of conjoining does not show.
        assert_eq!(a.and(&b), b.and(&a));
    }

    #[test]
    fn assertion_negation_roundtrip() {
        let a = Assertion::atom(Ineq::ne(&SymExpr::name("m"), &SymExpr::constant(0)));
        let na = a.negate();
        assert!(a.and(&na).contradictory());
    }

    #[test]
    fn truth_falsity_laws() {
        let t = Assertion::truth();
        let f = Assertion::falsity();
        let a = Assertion::atom(Ineq::le(&n(), &SymExpr::constant(0)));
        assert_eq!(t.and(&a), a);
        assert!(f.and(&a).is_falsity());
        assert!(t.or(&a).is_truth());
        assert_eq!(f.or(&a), a);
    }

    #[test]
    fn contradiction_via_le_pair() {
        // n <= 0 and n >= 1 (as -n+1 <= 0).
        let le = Ineq::le(&n(), &SymExpr::constant(0));
        let ge = Ineq { expr: n().scale(-1).offset(1), rel: Rel::LeZero };
        assert!(pair_contradictory(&le, &ge));
        assert!(Assertion::atom(le).and(&Assertion::atom(ge)).is_falsity());
    }

    #[test]
    fn eq_and_le_contradiction() {
        // i - a = 0  together with  a - i + 1 <= 0 (i.e. i >= a + 1).
        let i = SymExpr::name("i");
        let a = SymExpr::name("a");
        // lt(a, i): a - i + 1 <= 0; double negation is identity here.
        let (eq, lt) = (Ineq::eq(&i, &a), Ineq::lt(&a, &i).negate().negate());
        assert!(pair_contradictory(&eq, &lt) && pair_contradictory(&lt, &eq));
    }

    #[test]
    fn display_assertion() {
        let a = Assertion::atom(Ineq::ne(&SymExpr::name("mask"), &SymExpr::constant(0)));
        assert_eq!(a.to_string(), "(mask <> 0)");
        assert_eq!(Assertion::truth().to_string(), "true");
    }

    // ---- the term lists against the representation they replaced ----

    /// `SymExpr` as it was — a `BTreeMap` from an owned name to its
    /// coefficient, every operation through `clone`, `entry` and
    /// `retain` — kept as the model the shared term lists are checked
    /// against.
    mod model {
        use std::collections::BTreeMap;
        use std::fmt;

        #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
        pub(crate) struct MapExpr {
            pub terms: BTreeMap<String, i64>,
            pub konst: i64,
        }

        impl MapExpr {
            pub fn from_terms(pairs: impl IntoIterator<Item = (String, i64)>, konst: i64) -> Self {
                let mut e = MapExpr { terms: BTreeMap::new(), konst };
                for (n, c) in pairs {
                    if c != 0 {
                        *e.terms.entry(n).or_insert(0) += c;
                    }
                }
                e.terms.retain(|_, c| *c != 0);
                e
            }

            pub fn as_constant(&self) -> Option<i64> {
                self.terms.is_empty().then_some(self.konst)
            }

            pub fn as_name(&self) -> Option<&str> {
                if self.konst == 0 && self.terms.len() == 1 {
                    let (n, c) = self.terms.iter().next().unwrap();
                    if *c == 1 {
                        return Some(n);
                    }
                }
                None
            }

            pub fn coeff(&self, name: &str) -> i64 {
                self.terms.get(name).copied().unwrap_or(0)
            }

            pub fn add(&self, other: &MapExpr) -> MapExpr {
                let mut out = self.clone();
                out.konst += other.konst;
                for (n, c) in &other.terms {
                    *out.terms.entry(n.clone()).or_insert(0) += c;
                }
                out.terms.retain(|_, c| *c != 0);
                out
            }

            pub fn sub(&self, other: &MapExpr) -> MapExpr {
                self.add(&other.scale(-1))
            }

            pub fn offset(&self, c: i64) -> MapExpr {
                let mut out = self.clone();
                out.konst += c;
                out
            }

            pub fn scale(&self, k: i64) -> MapExpr {
                if k == 0 {
                    return MapExpr::default();
                }
                let mut out = self.clone();
                out.konst *= k;
                for c in out.terms.values_mut() {
                    *c *= k;
                }
                out
            }

            pub fn mul(&self, other: &MapExpr) -> Option<MapExpr> {
                if let Some(k) = other.as_constant() {
                    Some(self.scale(k))
                } else {
                    self.as_constant().map(|k| other.scale(k))
                }
            }

            pub fn subst(&self, name: &str, repl: &MapExpr) -> MapExpr {
                let c = self.coeff(name);
                if c == 0 {
                    return self.clone();
                }
                let mut base = self.clone();
                base.terms.remove(name);
                base.add(&repl.scale(c))
            }

            pub fn compare(&self, other: &MapExpr) -> Option<std::cmp::Ordering> {
                self.sub(other).as_constant().map(|d| d.cmp(&0))
            }
        }

        impl fmt::Display for MapExpr {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let mut first = true;
                for (n, c) in &self.terms {
                    if first {
                        match *c {
                            1 => write!(f, "{n}")?,
                            -1 => write!(f, "-{n}")?,
                            c => write!(f, "{c}*{n}")?,
                        }
                        first = false;
                    } else if *c < 0 {
                        if *c == -1 {
                            write!(f, " - {n}")?;
                        } else {
                            write!(f, " - {}*{n}", -c)?;
                        }
                    } else if *c == 1 {
                        write!(f, " + {n}")?;
                    } else {
                        write!(f, " + {c}*{n}")?;
                    }
                }
                if first {
                    write!(f, "{}", self.konst)?;
                } else if self.konst > 0 {
                    write!(f, " + {}", self.konst)?;
                } else if self.konst < 0 {
                    write!(f, " - {}", -self.konst)?;
                }
                Ok(())
            }
        }
    }

    use model::MapExpr;

    /// Few enough names that terms of two expressions often meet, and
    /// sometimes cancel; `"n"` sorts between `"b"` and `"n#1"`.
    const POOL: [&str; 5] = ["a", "b", "n", "n#1", "z"];

    /// Term pairs in any order, a name possibly more than once or with
    /// coefficient zero, and a constant.
    type RawExpr = (Vec<(usize, i64)>, i64);

    fn raw_expr() -> impl Strategy<Value = RawExpr> {
        (proptest::collection::vec((0usize..POOL.len(), -3i64..4), 0..6), -5i64..6)
    }

    fn both((pairs, konst): &RawExpr) -> (SymExpr, MapExpr) {
        let named = |(i, c): &(usize, i64)| (POOL[*i], *c);
        (
            SymExpr::from_terms(pairs.iter().map(named).map(|(n, c)| (n.into(), c)), *konst),
            MapExpr::from_terms(pairs.iter().map(named).map(|(n, c)| (n.into(), c)), *konst),
        )
    }

    fn hash_of(e: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        e.hash(&mut h);
        h.finish()
    }

    /// Everything an expression shows of itself, against the model's.
    fn assert_same(e: &SymExpr, m: &MapExpr, what: &str) {
        let listed: Vec<(&str, i64)> = e.terms().map(|(n, c)| (n.as_str(), c)).collect();
        let wanted: Vec<(&str, i64)> = m.terms.iter().map(|(n, c)| (n.as_str(), *c)).collect();
        assert_eq!(listed, wanted, "{what}: terms, in order");
        assert_eq!(e.is_constant(), listed.is_empty(), "{what}: an empty list is `None`");
        assert_eq!(matches!(e.terms, Terms::One(_)), listed.len() == 1, "{what}: one term inline");
        assert_eq!(e.constant_part(), m.konst, "{what}: constant");
        assert_eq!(e.to_string(), m.to_string(), "{what}: Display");
        assert_eq!(e.as_constant(), m.as_constant(), "{what}: as_constant");
        assert_eq!(e.as_name(), m.as_name(), "{what}: as_name");
        for name in POOL.iter().chain(&["", "m", "zz"]) {
            assert_eq!(e.coeff(name), m.coeff(name), "{what}: coeff of {name}");
            assert_eq!(e.mentions(name), m.coeff(name) != 0, "{what}: mentions {name}");
        }
        assert_eq!(linear_key(e), linear_key(&e.scale(-1)), "{what}: key up to sign");
    }

    proptest! {
        #[test]
        fn term_lists_agree_with_the_map_model(
            p in raw_expr(),
            q in raw_expr(),
            k in -3i64..4,
            at in 0usize..POOL.len(),
        ) {
            let ((a, ma), (b, mb)) = (both(&p), both(&q));
            assert_same(&a, &ma, "from_terms");
            assert_same(&b, &mb, "from_terms");
            assert_same(&a.add(&b), &ma.add(&mb), "add");
            assert_same(&a.sub(&b), &ma.sub(&mb), "sub");
            assert_same(&a.scale(k), &ma.scale(k), "scale");
            assert_same(&a.offset(k), &ma.offset(k), "offset");
            assert_same(&a.subst(POOL[at], &b), &ma.subst(POOL[at], &mb), "subst");
            match (a.mul(&b), ma.mul(&mb)) {
                (Some(e), Some(m)) => assert_same(&e, &m, "mul"),
                (e, m) => prop_assert_eq!(e.is_none(), m.is_none(), "mul of {} and {}", a, b),
            }
            prop_assert_eq!(a.compare(&b), ma.compare(&mb), "{} against {}", a, b);
            prop_assert_eq!(a.compare(&b), a.sub(&b).as_constant().map(|d| d.cmp(&0)));
            prop_assert_eq!(a.compare(&a.offset(k)), Some(0.cmp(&k)));
            prop_assert_eq!(a.cmp(&b), ma.cmp(&mb), "Ord of {} and {}", a, b);
            prop_assert_eq!(a == b, ma == mb, "Eq of {} and {}", a, b);
            // Equal however they were reached, and then hashed alike.
            let round = a.add(&b).sub(&b);
            prop_assert_eq!(&round, &a);
            prop_assert_eq!(hash_of(&round), hash_of(&a));
            prop_assert_eq!(hash_of(&a) == hash_of(&b) || a != b, true);
        }
    }

    // ---- the Boolean meaning, by brute force over small valuations ----

    use proptest::prelude::*;

    type Valuation = BTreeMap<String, i64>;

    impl SymExpr {
        fn eval(&self, v: &Valuation) -> i64 {
            self.terms().map(|(n, c)| c * v[n.as_str()]).sum::<i64>() + self.konst
        }
    }

    impl Ineq {
        fn eval(&self, v: &Valuation) -> bool {
            let value = SymExpr::constant(self.expr.eval(v));
            Ineq { expr: value, rel: self.rel }.eval_const().expect("constant")
        }
    }

    impl Assertion {
        /// The Boolean meaning under an integer valuation of every name.
        fn eval(&self, v: &Valuation) -> bool {
            self.clauses.iter().any(|c| c.atoms().into_iter().all(|i| i.eval(v)))
        }
    }

    /// A DNF as plain nested lists, whose meaning needs no `Assertion`.
    type RawDnf = Vec<Vec<Ineq>>;

    /// Atoms over `x` and `y` from a pool small enough that a clause
    /// often repeats an atom or holds two that exclude each other.
    fn raw_dnf() -> impl Strategy<Value = RawDnf> {
        let rel = proptest::sample::select(vec![Rel::EqZero, Rel::NeZero, Rel::LeZero]);
        let atom = (-1i64..2, -1i64..2, -2i64..3, rel).prop_map(|(a, b, k, rel)| Ineq {
            expr: SymExpr::from_terms([("x".into(), a), ("y".into(), b)], k),
            rel,
        });
        proptest::collection::vec(proptest::collection::vec(atom, 0..5), 0..4)
    }

    fn build(raw: &RawDnf) -> Assertion {
        raw.iter().fold(Assertion::falsity(), |dnf, clause| {
            let conj = clause
                .iter()
                .fold(Assertion::truth(), |conj, atom| conj.and(&Assertion::atom(atom.clone())));
            dnf.or(&conj)
        })
    }

    fn raw_eval(raw: &RawDnf, v: &Valuation) -> bool {
        raw.iter().any(|clause| clause.iter().all(|atom| atom.eval(v)))
    }

    fn valuations() -> impl Iterator<Item = Valuation> {
        (-4..=4).flat_map(|x| {
            (-4..=4).map(move |y| BTreeMap::from([("x".to_string(), x), ("y".to_string(), y)]))
        })
    }

    /// The invariant of [`Conj`] and [`Assertion`], checked the slow way.
    fn assert_simplified(a: &Assertion) {
        for (k, clause) in a.clauses.iter().enumerate() {
            assert!(!a.clauses[..k].contains(clause), "repeated clause in {a}");
            assert!(*clause != Conj::Empty || a.clauses.len() == 1, "true beside a clause in {a}");
            let atoms = clause.atoms();
            for (n, i) in atoms.iter().enumerate() {
                assert_eq!(i.eval_const(), None, "constant atom in {a}");
                for j in &atoms[..n] {
                    assert!(i != j && !pair_contradictory(i, j), "{i} against {j} in {a}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn operations_agree_with_the_boolean_meaning(
            p in raw_dnf(),
            q in raw_dnf(),
            shift in -2i64..3,
            onto_y in proptest::bool::ANY,
        ) {
            let (a, b) = (build(&p), build(&q));
            // x := y + shift, or x := shift.
            let repl = if onto_y { SymExpr::name("y").offset(shift) } else { SymExpr::constant(shift) };
            let (and, or, not, subst) = (a.and(&b), a.or(&b), a.negate(), a.subst("x", &repl));
            for r in [&a, &b, &and, &or, &not, &subst] {
                assert_simplified(r);
            }
            for v in valuations() {
                let (pv, qv) = (raw_eval(&p, &v), raw_eval(&q, &v));
                prop_assert_eq!(a.eval(&v), pv, "building {:?} gave {} at {:?}", p, a, v);
                prop_assert_eq!(and.eval(&v), pv && qv, "{} and {} at {:?}", a, b, v);
                prop_assert_eq!(or.eval(&v), pv || qv, "{} or {} at {:?}", a, b, v);
                // Giving up answers `true`, which is weaker, never wrong.
                prop_assert!(not.is_truth() || not.eval(&v) != pv, "not {} at {:?}", a, v);
                let mut moved = v.clone();
                moved.insert("x".to_string(), repl.eval(&v));
                prop_assert_eq!(subst.eval(&v), raw_eval(&p, &moved), "{} [x := {}] at {:?}", a, repl, v);
                // Sound: what is refuted holds nowhere.
                prop_assert!(!(a.contradictory() && pv), "{} refuted but holds at {:?}", a, v);
            }
        }
    }
}
