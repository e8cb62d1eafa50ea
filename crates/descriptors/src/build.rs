//! Building descriptors from MF syntax.
//!
//! The builder walks structured statements with a symbolic context
//! ([`SymCtx`]): known scalar values (seeded from constant declaration
//! initializers only — the `analysis` crate's propagated values are not
//! consulted; values and kills are re-derived here, syntactically) and
//! the set of array names. Scalars
//! assigned *within* the walked code are *killed* — index expressions
//! mentioning them can no longer be linearized and fall back to
//! whole-array patterns, which keeps the summary conservative.
//!
//! Loop descriptors are assembled exactly as §3.2 describes: first the
//! descriptor of a single iteration with the induction variable as an
//! unresolved symbol, then *promotion* of the variable to its range
//! (converting guards indexed by the variable into dimension masks).

use crate::descriptor::Descriptor;
use crate::guard::{Guard, MaskRel, MaskTest};
use crate::triple::{DimPattern, Triple};
use orchestra_analysis::propagate::lin_expr;
use orchestra_analysis::symbolic::{Ineq, Name, SymExpr, SymRange, SymValue};
use orchestra_lang::ast::{BinOp, Expr, LValue, Program, Range, Stmt};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Symbolic context for descriptor construction.
#[derive(Debug, Clone, Default)]
pub struct SymCtx {
    /// Known symbolic values of scalars, keyed by source name.
    pub values: HashMap<Name, SymValue>,
    /// Names of arrays (anything else in an index is a scalar). Fixed
    /// per program and shared: a context is cloned at every statement
    /// list and loop nest, and the array names are most of it.
    pub arrays: Arc<BTreeSet<Name>>,
    /// Scalars whose values were changed by walked code; mentions of
    /// these can no longer be trusted in symbolic expressions.
    pub killed: BTreeSet<Name>,
}

impl SymCtx {
    /// Builds a context from a program's declarations: constant scalar
    /// initializers become known values; array names are recorded.
    pub fn from_program(prog: &Program) -> SymCtx {
        let mut ctx = SymCtx::default();
        let mut arrays = BTreeSet::new();
        for d in &prog.decls {
            if d.is_array() {
                arrays.insert(d.name.clone());
            } else if let Some(init) = &d.init {
                if let Some(c) = init.as_int() {
                    ctx.values.insert(d.name.clone(), SymValue::int(c));
                }
            }
        }
        ctx.arrays = Arc::new(arrays);
        ctx
    }

    /// Linearizes an expression over source names, refusing killed names.
    pub fn lin(&self, e: &Expr) -> Option<SymExpr> {
        let le = lin_expr(e, &self.values)?;
        if le.terms().any(|(n, _)| self.killed.contains(n)) {
            None
        } else {
            Some(le)
        }
    }

    /// The number of iterations a `do` over `ranges` runs, counted as
    /// the interpreter runs them; `None` when a bound or step is not a
    /// known constant, a step is zero, or the count overflows.
    pub fn trips(&self, ranges: &[Range]) -> Option<i64> {
        ranges.iter().try_fold(0i64, |total, r| {
            let lo = self.lin(&r.lo)?.as_constant()?;
            let hi = self.lin(&r.hi)?.as_constant()?;
            let step = match &r.step {
                Some(e) => self.lin(e)?.as_constant()?,
                None => 1,
            };
            let span = match step.signum() {
                1 => hi.checked_sub(lo)?,
                -1 => lo.checked_sub(hi)?,
                _ => return None,
            };
            let count = if span < 0 { 0 } else { (span / step.checked_abs()?).checked_add(1)? };
            total.checked_add(count)
        })
    }

    /// The declared-range pattern is unknown here, so a failed
    /// linearization yields a whole-block triple.
    fn access_triple(&self, array: &Name, idx: &[Expr]) -> Triple {
        let mut dims = Vec::with_capacity(idx.len());
        for e in idx {
            match self.lin(e) {
                Some(le) => dims.push(DimPattern::point(le)),
                None => return Triple::whole(array.clone()),
            }
        }
        Triple::patterned(array.clone(), dims)
    }
}

/// Parses a condition of the form `m[idx] REL const` (either side) into
/// a mask test; returns `None` for anything else.
pub(crate) fn parse_mask_test(cond: &Expr, ctx: &SymCtx) -> Option<MaskTest> {
    let Expr::Bin(op, l, r) = cond else { return None };
    let (arr_side, const_side, op) = match (&**l, &**r) {
        (Expr::Index(_, _), _) => (l, r, *op),
        (_, Expr::Index(_, _)) => (r, l, op.swap()?),
        _ => return None,
    };
    let Expr::Index(array, idx) = &**arr_side else { return None };
    if idx.len() != 1 || !ctx.arrays.contains(array) {
        return None;
    }
    let c = const_side.as_int()?;
    let index = ctx.lin(&idx[0])?;
    let rel = match op {
        BinOp::Eq => MaskRel::EqConst(c),
        BinOp::Ne => MaskRel::NeConst(c),
        _ => return None,
    };
    Some(MaskTest { array: array.clone(), index, rel })
}

/// Converts a branch condition into a guard (best-effort): a mask test,
/// a linear inequality, a conjunction of those, or truth.
pub(crate) fn guard_of_cond(cond: &Expr, positive: bool, ctx: &SymCtx) -> Guard {
    if let Some(mut m) = parse_mask_test(cond, ctx) {
        if !positive {
            m.rel = m.rel.negate();
        }
        return Guard::mask(m);
    }
    match cond {
        Expr::Bin(BinOp::And, l, r) if positive => {
            guard_of_cond(l, true, ctx).and(&guard_of_cond(r, true, ctx))
        }
        Expr::Bin(BinOp::Or, l, r) if !positive => {
            guard_of_cond(l, false, ctx).and(&guard_of_cond(r, false, ctx))
        }
        Expr::Bin(op, l, r) if op.is_comparison() => {
            let (Some(a), Some(b)) = (ctx.lin(l), ctx.lin(r)) else {
                return Guard::truth();
            };
            let eff = if positive { *op } else { op.negate().expect("comparison") };
            let ineq = match eff {
                BinOp::Eq => Ineq::eq(&a, &b),
                BinOp::Ne => Ineq::ne(&a, &b),
                BinOp::Lt => Ineq::lt(&a, &b),
                BinOp::Le => Ineq::le(&a, &b),
                BinOp::Gt => Ineq::lt(&b, &a),
                BinOp::Ge => Ineq::le(&b, &a),
                _ => return Guard::truth(),
            };
            Guard::linear(ineq)
        }
        _ => Guard::truth(),
    }
}

/// Adds read triples for every memory location an expression touches.
fn expr_reads(e: &Expr, ctx: &SymCtx, d: &mut Descriptor) {
    match e {
        Expr::IntLit(_) | Expr::FloatLit(_) => {}
        // An array by name is its whole block; a scalar is one too.
        Expr::Var(v) => d.add_read(Triple::whole(v.clone())),
        Expr::Index(a, idx) => {
            d.add_read(ctx.access_triple(a, idx));
            for i in idx {
                expr_reads(i, ctx, d);
            }
        }
        Expr::Bin(_, l, r) => {
            expr_reads(l, ctx, d);
            expr_reads(r, ctx, d);
        }
        Expr::Un(_, i) => expr_reads(i, ctx, d),
        Expr::Call(_, args) => {
            for a in args {
                expr_reads(a, ctx, d);
            }
        }
    }
}

/// Summarizes a statement sequence.
pub fn descriptor_of_stmts(stmts: &[Stmt], ctx: &SymCtx) -> Descriptor {
    let mut d = Descriptor::new();
    Walk::new(ctx).stmts_into(stmts, &mut d);
    d
}

/// Summarizes one statement.
pub fn descriptor_of_stmt(s: &Stmt, ctx: &SymCtx) -> Descriptor {
    let mut d = Descriptor::new();
    Walk::new(ctx).stmt_into(s, &mut d);
    d
}

/// The iteration-level summary of a loop: induction variable, its
/// symbolic ranges, and the body descriptor with the variable unresolved
/// (mask guard applied).
#[derive(Debug, Clone)]
pub struct LoopIteration {
    /// Induction variable name.
    pub var: Name,
    /// The loop's (possibly discontinuous) iteration ranges; empty when
    /// a bound could not be linearized.
    pub ranges: Vec<SymRange>,
    /// Descriptor of one iteration with `var` as an unresolved symbol.
    pub descriptor: Descriptor,
}

/// Computes the iteration descriptor of a `do` loop (§3.2): the body
/// summary with the induction variable unresolved and the `where` mask
/// attached as a guard on every triple.
///
/// Returns `None` if `s` is not a loop.
pub fn loop_iteration_descriptor(s: &Stmt, ctx: &SymCtx) -> Option<LoopIteration> {
    Walk::new(ctx).iteration(s)
}

impl LoopIteration {
    /// The descriptor of the whole loop: the iteration descriptor with
    /// the induction variable promoted to each of its ranges.
    pub fn whole_loop(&self) -> Descriptor {
        self.clone().into_whole_loop()
    }

    /// [`whole_loop`](Self::whole_loop) of an iteration summary the
    /// caller gives up: a loop of one range promotes its triples in
    /// place.
    pub(crate) fn into_whole_loop(self) -> Descriptor {
        let mut acc = Descriptor::new();
        match &self.ranges[..] {
            // Bounds not linearizable: widen every triple mentioning
            // the induction variable to the whole block.
            [] => return widen_var(&self.descriptor, &self.var),
            [r] => acc.union(self.descriptor.into_promoted(&self.var, r)),
            ranges => {
                for r in ranges {
                    acc.union(self.descriptor.promote(&self.var, r));
                }
            }
        }
        acc
    }
}

/// What a walk changed of one context entry: its state before.
#[derive(Debug)]
enum Undo {
    Value(Name, Option<SymValue>),
    Killed(Name, bool),
}

/// One descriptor walk: the caller's context, copied once and changed
/// in place as walked code assigns scalars. A scope (a loop body, an
/// `if` arm) logs what it changes and is undone on leaving, instead of
/// walking a copy of the context.
struct Walk {
    ctx: SymCtx,
    /// The earlier state of every change, oldest first.
    undo: Vec<Undo>,
}

impl Walk {
    fn new(ctx: &SymCtx) -> Self {
        Walk { ctx: ctx.clone(), undo: Vec::new() }
    }

    fn set_value(&mut self, v: &Name, value: SymValue) {
        let old = self.ctx.values.insert(v.clone(), value);
        self.undo.push(Undo::Value(v.clone(), old));
    }

    fn remove_value(&mut self, v: &str) {
        if let Some((name, old)) = self.ctx.values.remove_entry(v) {
            self.undo.push(Undo::Value(name, Some(old)));
        }
    }

    /// Kills `v` and drops its value with it: a killed scalar never
    /// holds a value, which [`SymCtx::lin`] would substitute before it
    /// looks at the kills.
    fn kill(&mut self, v: &Name) {
        self.remove_value(v);
        if self.ctx.killed.insert(v.clone()) {
            self.undo.push(Undo::Killed(v.clone(), false));
        }
    }

    fn unkill(&mut self, v: &str) {
        if let Some(name) = self.ctx.killed.take(v) {
            self.undo.push(Undo::Killed(name, true));
        }
    }

    /// Restores the context as it was when the log was `mark` long.
    fn undo_to(&mut self, mark: usize) {
        while self.undo.len() > mark {
            match self.undo.pop().expect("longer than the mark") {
                Undo::Value(v, Some(old)) => {
                    self.ctx.values.insert(v, old);
                }
                Undo::Value(v, None) => {
                    self.ctx.values.remove(&v);
                }
                Undo::Killed(v, true) => {
                    self.ctx.killed.insert(v);
                }
                Undo::Killed(v, false) => {
                    self.ctx.killed.remove(&v);
                }
            }
        }
    }

    /// What the scope opened at `mark` leaves for the join of an `if`:
    /// the scalars it left killed, and those it left holding a value
    /// other than the one they held at `mark`.
    fn arm_effects(&self, mark: usize) -> Vec<(Name, bool)> {
        let log = &self.undo[mark..];
        let mut out = Vec::new();
        for (at, entry) in log.iter().enumerate() {
            match entry {
                Undo::Killed(v, _) if self.ctx.killed.contains(v) => out.push((v.clone(), true)),
                Undo::Value(v, before) => {
                    let first = !log[..at].iter().any(|e| matches!(e, Undo::Value(w, _) if w == v));
                    let after = self.ctx.values.get(v);
                    if first && after.is_some() && after != before.as_ref() {
                        out.push((v.clone(), false));
                    }
                }
                Undo::Killed(..) => {}
            }
        }
        out
    }

    fn stmts_into(&mut self, stmts: &[Stmt], d: &mut Descriptor) {
        for s in stmts {
            self.stmt_into(s, d);
        }
    }

    /// Sequences `s`'s summary after what `d` holds.
    fn stmt_into(&mut self, s: &Stmt, d: &mut Descriptor) {
        match s {
            Stmt::Assign { target, value } => {
                expr_reads(value, &self.ctx, d);
                match target {
                    LValue::Var(v) => {
                        d.add_write(Triple::scalar(v.clone()));
                        // Track simple re-derivable values; otherwise kill.
                        match self.ctx.lin(value) {
                            Some(le) if !le.mentions(v) => {
                                self.set_value(v, SymValue::Expr(le));
                                self.unkill(v);
                            }
                            _ => self.kill(v),
                        }
                    }
                    LValue::Index(a, idx) => {
                        for i in idx {
                            expr_reads(i, &self.ctx, d);
                        }
                        d.add_write(self.ctx.access_triple(a, idx));
                    }
                }
            }
            Stmt::If { cond, then_body, else_body } => {
                let mut arms = Descriptor::new();
                expr_reads(cond, &self.ctx, &mut arms);
                let mut guarded = Descriptor::new();
                let mut effects = Vec::new();
                let mark = self.undo.len();
                for (positive, body) in [(true, then_body), (false, else_body)] {
                    let guard = guard_of_cond(cond, positive, &self.ctx);
                    let mut arm = Descriptor::new();
                    self.stmts_into(body, &mut arm);
                    guarded.reads.extend(arm.reads.into_iter().map(|t| t.guarded(&guard)));
                    guarded.writes.extend(arm.writes.into_iter().map(|t| t.guarded(&guard)));
                    effects.extend(self.arm_effects(mark));
                    self.undo_to(mark);
                }
                arms.union(guarded);
                d.then(arms);
                // Kills merge from both arms; a value assigned in either
                // is unreliable afterwards.
                for (v, killed) in effects {
                    if killed {
                        self.kill(&v);
                    } else {
                        self.remove_value(&v);
                    }
                }
            }
            Stmt::Do { var, body, .. } => {
                let iter =
                    self.iteration(s).expect("Stmt::Do always yields an iteration descriptor");
                d.then(iter.into_whole_loop());
                // After the loop: the induction variable and body-assigned
                // scalars are killed in the surrounding context.
                self.kill(var);
                let mut writes = BTreeSet::new();
                for b in body {
                    b.scalar_writes(&mut writes);
                }
                for w in &writes {
                    self.kill(w);
                }
            }
            Stmt::Call { args, .. } => {
                for a in args {
                    if let Expr::Var(name) = a {
                        if self.ctx.arrays.contains(name) {
                            // By-reference array argument: may read and
                            // write the whole block.
                            d.add_read(Triple::whole(name.clone()));
                            d.add_write(Triple::whole(name.clone()));
                            continue;
                        }
                    }
                    expr_reads(a, &self.ctx, d);
                }
            }
        }
    }

    /// [`loop_iteration_descriptor`] in the walk's context, which it
    /// leaves as it found it.
    fn iteration(&mut self, s: &Stmt) -> Option<LoopIteration> {
        let Stmt::Do { var, ranges, mask, body, .. } = s else { return None };
        let ctx = &self.ctx;
        let mut sym_ranges = Vec::new();
        for r in ranges {
            // The step resolves like the bounds do; a step that is not a
            // known non-zero constant leaves the range unknown.
            let step = match &r.step {
                Some(e) => ctx.lin(e).and_then(|s| s.as_constant()).filter(|s| *s != 0),
                None => Some(1),
            };
            let (Some(lo), Some(hi), Some(step)) = (ctx.lin(&r.lo), ctx.lin(&r.hi), step) else {
                sym_ranges.clear();
                break;
            };
            // Counting down, the values sit on `lo`'s lattice, not on the
            // new start `hi`'s: such a range keeps its bounds only.
            let (start, end, skip) = if step < 0 { (hi, lo, 1) } else { (lo, hi, step) };
            sym_ranges.push(SymRange { start, end, skip });
        }

        // Within the body the induction variable is a valid unresolved
        // symbol, shadowing any outer kill or value.
        let mark = self.undo.len();
        self.unkill(var);
        self.remove_value(var);
        let mut d = Descriptor::new();
        match mask {
            None => self.stmts_into(body, &mut d),
            Some(m) => {
                let guard = guard_of_cond(m, true, &self.ctx);
                // The mask itself is read by every iteration, and guards
                // the body's triples only.
                expr_reads(m, &self.ctx, &mut d);
                let mut body_d = Descriptor::new();
                self.stmts_into(body, &mut body_d);
                for t in body_d.reads {
                    d.add_read(t.guarded(&guard));
                }
                for t in body_d.writes {
                    d.add_write(t.guarded(&guard));
                }
            }
        }
        self.undo_to(mark);
        // Induction-variable traffic is loop machinery, not data (§3.2
        // "ignoring scalar variables" in the example): drop it.
        let descriptor = d.without_block(var);
        Some(LoopIteration { var: var.clone(), ranges: sym_ranges, descriptor })
    }
}

/// Replaces every triple that mentions `var` with a whole-block triple
/// (sound widening when the variable's range is unknown).
fn widen_var(d: &Descriptor, var: &str) -> Descriptor {
    let widen = |t: &Triple| -> Triple {
        if t.mentions(var) {
            Triple { guard: t.guard.drop_mentions(var), block: t.block.clone(), pattern: None }
        } else {
            t.clone()
        }
    };
    let mut out = Descriptor::new();
    for t in &d.reads {
        out.add_read(widen(t));
    }
    for t in &d.writes {
        out.add_write(widen(t));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_lang::parse_program;

    fn setup(src: &str) -> (Program, SymCtx) {
        let p = parse_program(src).unwrap();
        let ctx = SymCtx::from_program(&p);
        (p, ctx)
    }

    /// The paper's §3.2 running example:
    /// ```text
    /// do i = 1, 10
    ///   if (miss(i) <> 1) then
    ///     do j = 1, 10
    ///       q[i, j] = q[i, j] + x[j]
    /// ```
    const PAPER_EXAMPLE: &str = r#"
program ex
  integer miss[1..10]
  float q[1..10, 1..10], x[1..10]
  do i = 1, 10 {
    if (miss[i] <> 1) {
      do j = 1, 10 {
        q[i, j] = q[i, j] + x[j]
      }
    }
  }
end
"#;

    #[test]
    fn paper_example_iteration_descriptor() {
        let (p, ctx) = setup(PAPER_EXAMPLE);
        let iter = loop_iteration_descriptor(&p.body[0], &ctx).unwrap();
        assert_eq!(&*iter.var, "i");
        assert_eq!(iter.ranges, vec![SymRange::constant(1, 10)]);
        // write: <miss[i] <> 1> q[i, 1..10]
        assert_eq!(iter.descriptor.writes.len(), 1);
        let w = &iter.descriptor.writes[0];
        assert_eq!(&*w.block, "q");
        assert_eq!(w.to_string(), "<miss[i] <> 1> q[i, 1..10]");
        // reads include q (guarded), x (guarded), miss (mask).
        let read_blocks: BTreeSet<&str> = iter.descriptor.reads.iter().map(|t| &*t.block).collect();
        assert!(read_blocks.contains("q"));
        assert!(read_blocks.contains("x"));
        assert!(read_blocks.contains("miss"));
    }

    #[test]
    fn paper_example_iterations_independent() {
        let (p, ctx) = setup(PAPER_EXAMPLE);
        let iter = loop_iteration_descriptor(&p.body[0], &ctx).unwrap();
        // "The iterations are independent if a change to the induction
        // variable yields a descriptor that intersects the original only
        // in their read sets."
        let shifted = iter.descriptor.subst("i", &SymExpr::name("i").offset(1));
        assert!(!iter.descriptor.interferes(&shifted));
    }

    #[test]
    fn paper_example_whole_loop_descriptor() {
        let (p, ctx) = setup(PAPER_EXAMPLE);
        let d = descriptor_of_stmt(&p.body[0], &ctx);
        // write: q[1..10/(miss[*] <> 1), 1..10]
        assert_eq!(d.writes.len(), 1);
        assert_eq!(d.writes[0].to_string(), "q[1..10/(miss[*] <> 1), 1..10]");
    }

    #[test]
    fn figure1_a_descriptor() {
        let p = orchestra_lang::builder::figure1_program(8);
        let ctx = SymCtx::from_program(&p);
        let d = descriptor_of_stmt(&p.body[0], &ctx);
        // A writes q's masked columns and result; reads q, result, mask.
        let w_q = d.writes.iter().find(|t| &*t.block == "q").expect("write of q");
        let dims = w_q.pattern.as_ref().unwrap();
        assert_eq!(dims[1].mask, Some(("mask".into(), MaskRel::NeConst(0))));
        assert!(d.reads.iter().any(|t| &*t.block == "mask"));
    }

    #[test]
    fn figure1_interference_a_b() {
        let p = orchestra_lang::builder::figure1_program(8);
        let ctx = SymCtx::from_program(&p);
        let da = descriptor_of_stmt(&p.body[0], &ctx);
        let db = descriptor_of_stmt(&p.body[1], &ctx);
        assert!(da.interferes(&db), "B reads q which A writes");
        assert!(db.flow_interferes_from(&da));
    }

    #[test]
    fn guard_of_cond_parses_mask_forms() {
        let (_, ctx) = setup(PAPER_EXAMPLE);
        let cond = orchestra_lang::builder::ne(
            orchestra_lang::builder::elem("miss", vec![orchestra_lang::builder::v("i")]),
            orchestra_lang::builder::int(1),
        );
        let g = guard_of_cond(&cond, true, &ctx);
        assert_eq!(g.to_string(), "miss[i] <> 1");
        let neg = guard_of_cond(&cond, false, &ctx);
        assert_eq!(neg.to_string(), "miss[i] = 1");
        assert!(g.contradicts(&neg));
    }

    #[test]
    fn killed_scalar_widens_access() {
        let (p, ctx) = setup(
            "program t\n integer n = 4, k\n integer m[1..n]\n float x[1..n]\n k = m[1]\n x[k] = 0.0\nend",
        );
        let d = descriptor_of_stmts(&p.body, &ctx);
        // k's value comes from memory; the write to x[k] must widen.
        let w = d.writes.iter().find(|t| &*t.block == "x").unwrap();
        assert_eq!(w.pattern, None, "killed index ⇒ whole-array write");
    }

    #[test]
    fn a_scalar_one_if_arm_kills_loses_its_value_at_the_join() {
        // `v` is 3 unless the arm ran, and then it is 1: after the join
        // the write to `a` may be to either element.
        let (p, ctx) = setup(
            "program t\n integer n = 4, v = 3\n float x[1..n], a[1..n]\n x[1] = 1.0\n if (x[1] < 0.0) { v = v / 2 }\n a[v] = 1.0\nend",
        );
        let d = descriptor_of_stmts(&p.body, &ctx);
        let w = d.writes.iter().find(|t| &*t.block == "a").unwrap();
        assert_eq!(w.pattern, None, "a killed index ⇒ whole-array write, got {w}");
    }

    #[test]
    fn constant_chain_stays_precise() {
        // k = 1; k = k + 1 folds to 2 — the context tracks it exactly.
        let (p, ctx) = setup(
            "program t\n integer n = 4, k\n float x[1..n]\n k = 1\n k = k + 1\n x[k] = 0.0\nend",
        );
        let d = descriptor_of_stmts(&p.body, &ctx);
        let w = d.writes.iter().find(|t| &*t.block == "x").unwrap();
        assert_eq!(w.pattern.as_ref().unwrap()[0].range.start, SymExpr::constant(2));
    }

    #[test]
    fn tracked_scalar_keeps_precision() {
        let (p, ctx) =
            setup("program t\n integer n = 4, k\n float x[1..n]\n k = 2\n x[k] = 0.0\nend");
        let d = descriptor_of_stmts(&p.body, &ctx);
        let w = d.writes.iter().find(|t| &*t.block == "x").unwrap();
        let dims = w.pattern.as_ref().unwrap();
        assert_eq!(dims[0].range.start, SymExpr::constant(2));
    }

    #[test]
    fn if_branches_get_guards() {
        let (p, ctx) = setup(
            "program t\n integer n = 4\n integer m[1..n]\n float a[1..n], b[1..n]\n do i = 1, n {\n if (m[i] = 0) { a[i] = 1.0 } else { b[i] = 2.0 }\n }\nend",
        );
        let d = descriptor_of_stmt(&p.body[0], &ctx);
        let wa = d.writes.iter().find(|t| &*t.block == "a").unwrap();
        let wb = d.writes.iter().find(|t| &*t.block == "b").unwrap();
        // After promotion the guards become dimension masks.
        assert_eq!(wa.pattern.as_ref().unwrap()[0].mask, Some(("m".into(), MaskRel::EqConst(0))));
        assert_eq!(wb.pattern.as_ref().unwrap()[0].mask, Some(("m".into(), MaskRel::NeConst(0))));
        // The two writes are provably disjoint.
        assert!(!wa.overlaps(wb));
    }

    #[test]
    fn call_is_whole_array_read_write() {
        let (p, ctx) = setup(
            "program t\n integer n = 2\n float x[1..n]\n proc z(float x[1..n], integer n) { x[1] = 0.0 }\n call z(x, n)\nend",
        );
        let d = descriptor_of_stmts(&p.body, &ctx);
        assert!(d.writes.iter().any(|t| &*t.block == "x" && t.pattern.is_none()));
        assert!(d.reads.iter().any(|t| &*t.block == "n"));
    }

    #[test]
    fn reduction_reads_and_writes_scalar() {
        let (p, ctx) = setup(
            "program t\n integer n = 4\n float s, x[1..n]\n do i = 1, n { s = s + x[i] }\nend",
        );
        let d = descriptor_of_stmt(&p.body[0], &ctx);
        assert!(d.writes.iter().any(|t| &*t.block == "s"));
        assert!(d.reads.iter().any(|t| &*t.block == "s"));
        let rx = d.reads.iter().find(|t| &*t.block == "x").unwrap();
        assert_eq!(rx.pattern.as_ref().unwrap()[0].range, SymRange::constant(1, 4));
    }

    #[test]
    fn symbolic_bounds_stay_symbolic() {
        let (p, ctx) =
            setup("program t\n integer n\n float x[1..100]\n do i = 1, n { x[i] = 0.0 }\nend");
        let d = descriptor_of_stmt(&p.body[0], &ctx);
        let w = d.writes.iter().find(|t| &*t.block == "x").unwrap();
        let dims = w.pattern.as_ref().unwrap();
        assert_eq!(dims[0].range.end, SymExpr::name("n"));
    }

    /// A step held in a scalar resolves through the context like the
    /// bounds; read as a literal it was taken for +1, and the loop below
    /// was summarized as writing `x[8..1]`, an empty range.
    #[test]
    fn scalar_step_resolves_like_a_literal() {
        for step in ["-1", "s"] {
            let (p, ctx) = setup(&format!(
                "program t\n integer n = 8, s = -1\n float x[1..n], q[1..n]\n A: do i = n, 1, {step} {{ x[i] = q[i] + 1.0 }}\nend"
            ));
            let d = descriptor_of_stmt(&p.body[0], &ctx);
            assert_eq!(d.writes[0].to_string(), "x[1..8]", "step {step}");
        }
        // A step that is no known constant leaves the whole block.
        let (p, ctx) = setup(
            "program t\n integer n = 8, s\n float x[1..n]\n do i = n, 1, s { x[i] = 0.0 }\nend",
        );
        let d = descriptor_of_stmt(&p.body[0], &ctx);
        assert_eq!(d.writes[0].to_string(), "x");
    }

    #[test]
    fn trips_count_as_the_interpreter_runs() {
        let (p, ctx) = setup(
            "program t\n integer n = 9, s = -2\n do i = 1, n { }\n do i = 1, n, 4 { }\n do i = n, 1, s { }\n do i = 1, 3 and 7, n { }\nend",
        );
        let trips: Vec<_> = p
            .body
            .iter()
            .map(|s| match s {
                Stmt::Do { ranges, .. } => ctx.trips(ranges),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(trips, [Some(9), Some(3), Some(5), Some(6)]);
    }

    /// An empty range runs nothing whichever way it steps; a zero step, an
    /// unknown bound and a count past `i64` are no count at all.
    #[test]
    fn trips_of_empty_zero_unknown_and_overflowing_ranges() {
        let ctx = SymCtx::default();
        let range = |lo: i64, hi: i64, step: i64| Range {
            lo: Expr::IntLit(lo),
            hi: Expr::IntLit(hi),
            step: Some(Expr::IntLit(step)),
        };
        for (lo, hi, step) in [(2, 1, 2), (5, 3, 2), (3, 5, -2), (1, 0, 1), (0, 1, -1)] {
            assert_eq!(ctx.trips(&[range(lo, hi, step)]), Some(0), "{lo}, {hi}, {step}");
        }
        assert_eq!(ctx.trips(&[range(1, 5, 0)]), None);
        assert_eq!(ctx.trips(&[Range::new(Expr::IntLit(1), Expr::var("m"))]), None);
        assert_eq!(ctx.trips(&[range(i64::MIN, i64::MAX, 1)]), None, "span overflows");
        assert_eq!(ctx.trips(&[range(0, i64::MAX, 1)]), None, "count overflows");
        assert_eq!(ctx.trips(&[range(1, i64::MAX, 1), range(1, 1, 1)]), None, "sum overflows");
        assert_eq!(ctx.trips(&[range(0, -5, i64::MIN)]), None, "|step| overflows");
    }

    #[test]
    fn discontinuous_loop_unions_ranges() {
        let (p, ctx) = setup(
            "program t\n integer n = 9, a = 4\n float x[1..n]\n do i = 1, a - 1 and a + 1, n { x[i] = 0.0 }\nend",
        );
        let d = descriptor_of_stmt(&p.body[0], &ctx);
        assert_eq!(d.writes.len(), 2, "one triple per range");
        // Neither overlaps the excluded point a=4.
        let point = Triple::patterned("x", vec![DimPattern::point(SymExpr::constant(4))]);
        for w in &d.writes {
            assert!(!w.overlaps(&point));
        }
    }
}
