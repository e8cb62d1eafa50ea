//! Splitting the iterations of a Bound loop (§3.3.1).
//!
//! "It is often possible to split the iterations of a loop in Bound into
//! two sets, one of which interferes with D and one of which does not.
//! It is legal to split iterations when we have nests of loops that are
//! either independent or computing a reduction; they can be split by
//! placing a conditional on the induction variable."
//!
//! Two restriction shapes cover the paper's examples:
//!
//! * [`Restriction::ExcludePoint`] — the conflict is confined to one
//!   induction value (Figure 4: row `a`; Figure 3: column `col-1`);
//!   the independent piece iterates the discontinuous range
//!   `lo..e-1 and e+1..hi`.
//! * [`Restriction::MaskCond`] — the conflict occurs exactly when a mask
//!   element test holds (Figures 1–2: `mask[i] <> 0`); the pieces get
//!   complementary `where` clauses.
//!
//! Replicated outputs (arrays and reduction scalars) and the merging
//! computation `C_M` are generated exactly as in Figures 2–4.

use orchestra_analysis::symbolic::{Ineq, Name, SymExpr, SymRange};
use orchestra_descriptors::{Descriptor, Guard, LoopIteration, MaskRel, MaskTest, Triple};
use orchestra_lang::ast::{BinOp, Decl, Expr, LValue, Program, Range, Stmt};
use std::collections::{BTreeMap, BTreeSet};

/// How the dependent iterations of a loop are characterized.
#[derive(Debug, Clone, PartialEq)]
pub enum Restriction {
    /// Iterations with `var = e` are dependent; all others independent.
    ExcludePoint(SymExpr),
    /// Iterations hitting any of several pairwise-distinct points are
    /// dependent (deeper pipelining: splitting against the union of
    /// iterations `i−1 … i−k` yields one excluded point per depth).
    ExcludePoints(Vec<SymExpr>),
    /// Iterations with `array[var] REL` are dependent; the complement is
    /// independent.
    MaskCond {
        /// Mask array.
        array: Name,
        /// Relation selecting the *dependent* iterations.
        rel: MaskRel,
    },
}

/// A recognized reduction accumulator in a loop body.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionVar {
    /// Scalar name.
    pub name: Name,
    /// The associative operation (`Add` or `Mul`).
    pub op: BinOp,
}

impl ReductionVar {
    /// The identity element of the reduction.
    pub fn identity(&self) -> Expr {
        match self.op {
            BinOp::Add => Expr::FloatLit(0.0),
            BinOp::Mul => Expr::FloatLit(1.0),
            _ => unreachable!("only Add/Mul reductions are recognized"),
        }
    }
}

/// Fresh-name generation avoiding a taken set.
#[derive(Debug, Clone, Default)]
pub struct FreshNames {
    taken: BTreeSet<Name>,
}

impl FreshNames {
    /// Seeds the taken set from a program's declarations.
    pub fn from_program(prog: &Program) -> Self {
        let mut taken: BTreeSet<Name> = prog.decls.iter().map(|d| d.name.clone()).collect();
        taken.extend(prog.procs.iter().map(|p| p.name.clone()));
        FreshNames { taken }
    }

    /// Returns `base` + `suffix`, disambiguated if already taken.
    pub fn fresh(&mut self, base: &str, suffix: &str) -> Name {
        let mut candidate = format!("{base}{suffix}");
        let mut k = 2;
        while self.taken.contains(candidate.as_str()) {
            candidate = format!("{base}{suffix}{k}");
            k += 1;
        }
        let name = Name::from(candidate);
        self.taken.insert(name.clone());
        name
    }
}

/// Converts a linear symbolic expression back to MF syntax.
pub fn symexpr_to_ast(e: &SymExpr) -> Expr {
    let mut acc: Option<Expr> = None;
    for (name, coeff) in e.terms() {
        let term = match coeff.abs() {
            1 => Expr::var(name),
            c => Expr::bin(BinOp::Mul, Expr::IntLit(c), Expr::var(name)),
        };
        acc = Some(match acc {
            None => {
                if coeff < 0 {
                    Expr::Un(orchestra_lang::ast::UnOp::Neg, Box::new(term))
                } else {
                    term
                }
            }
            Some(prev) => {
                let op = if coeff < 0 { BinOp::Sub } else { BinOp::Add };
                Expr::bin(op, prev, term)
            }
        });
    }
    let k = e.constant_part();
    match acc {
        None => Expr::IntLit(k),
        Some(prev) if k > 0 => Expr::bin(BinOp::Add, prev, Expr::IntLit(k)),
        Some(prev) if k < 0 => Expr::bin(BinOp::Sub, prev, Expr::IntLit(-k)),
        Some(prev) => prev,
    }
}

/// Finds a restriction on the induction variable that isolates the
/// interference between one loop iteration and descriptor `d`.
///
/// `privatized` names the blocks that iteration splitting will
/// *replicate* (the body's written arrays and reduction accumulators);
/// their output and anti dependences against `d` vanish under renaming,
/// so triples on those blocks are excluded from the analysis. This is
/// what lets Figure 3's `A_I` write the replicated `result1` without the
/// scratch vector's self-dependence blocking the pipeline.
///
/// Every remaining overlapping triple pair must be explained by the same
/// restriction; the result is then verified by re-promoting the
/// restricted descriptor and checking non-interference, so a loose match
/// here can never produce an unsound split.
pub fn detect_restriction(
    iter: &LoopIteration,
    d: &Descriptor,
    privatized: &BTreeSet<Name>,
) -> Option<Restriction> {
    let mut stripped = iter.descriptor.clone();
    for b in privatized {
        stripped = stripped.without_block(b);
    }
    let stripped_iter =
        LoopIteration { var: iter.var.clone(), ranges: iter.ranges.clone(), descriptor: stripped };
    let pairs: Vec<(&Triple, &Triple)> = interference_pairs(&stripped_iter.descriptor, d);
    if pairs.is_empty() {
        return None;
    }
    // Collect explanations: either one mask condition shared by every
    // pair, or a set of excluded points (one per conflicting iteration
    // of the reference computation — deeper pipelining yields several).
    let mut mask_cond: Option<Restriction> = None;
    let mut points: Vec<SymExpr> = Vec::new();
    for (t, u) in pairs {
        match explain_pair(t, u, &iter.var)? {
            m @ Restriction::MaskCond { .. } => match &mask_cond {
                None if points.is_empty() => mask_cond = Some(m),
                Some(c) if *c == m => {}
                _ => return None, // mixed or conflicting explanations
            },
            Restriction::ExcludePoint(e) => {
                if mask_cond.is_some() {
                    return None;
                }
                if !points.iter().any(|p| p.eq_expr(&e) == Some(true)) {
                    points.push(e);
                }
            }
            Restriction::ExcludePoints(_) => unreachable!("explain_pair yields single points"),
        }
    }
    let candidate = if let Some(m) = mask_cond {
        m
    } else if points.len() == 1 {
        Restriction::ExcludePoint(points.pop().expect("len checked"))
    } else {
        // Multi-point exclusion requires pairwise provably-distinct
        // points (otherwise the dependent piece could run an iteration
        // twice).
        for i in 0..points.len() {
            for j in i + 1..points.len() {
                if points[i].eq_expr(&points[j]) != Some(false) {
                    return None;
                }
            }
        }
        Restriction::ExcludePoints(points)
    };
    if verify_restriction(&stripped_iter, d, &candidate) {
        Some(candidate)
    } else {
        None
    }
}

/// The set of blocks privatized by splitting this loop body: its written
/// arrays plus the given reduction accumulators.
pub fn privatized_blocks(body: &[Stmt], reductions: &[ReductionVar]) -> BTreeSet<Name> {
    let mut out = BTreeSet::new();
    for s in body {
        s.array_writes(&mut out);
    }
    out.extend(reductions.iter().map(|r| r.name.clone()));
    out
}

/// The (write/write, write/read, read/write) triple pairs that overlap.
fn interference_pairs<'a>(a: &'a Descriptor, b: &'a Descriptor) -> Vec<(&'a Triple, &'a Triple)> {
    let mut out = Vec::new();
    for t in &a.writes {
        for u in b.writes.iter().chain(&b.reads) {
            if t.overlaps(u) {
                out.push((t, u));
            }
        }
    }
    for t in &a.reads {
        for u in &b.writes {
            if t.overlaps(u) {
                out.push((t, u));
            }
        }
    }
    out
}

/// Explains one overlapping pair as a restriction on `var`, if possible.
fn explain_pair(t: &Triple, u: &Triple, var: &str) -> Option<Restriction> {
    let (p_t, p_u) = (t.pattern.as_ref()?, u.pattern.as_ref()?);
    if p_t.len() != p_u.len() {
        return None;
    }
    for (dt, du) in p_t.iter().zip(p_u) {
        // The iteration side must index this dimension by exactly `var`.
        if !(dt.range.is_point() && dt.range.start.as_name() == Some(var)) {
            continue;
        }
        if let Some((arr, rel)) = &du.mask {
            return Some(Restriction::MaskCond { array: arr.clone(), rel: *rel });
        }
        if du.range.is_point() && !du.range.start.mentions(var) {
            return Some(Restriction::ExcludePoint(du.range.start.clone()));
        }
    }
    None
}

/// Re-promotes the iteration descriptor over the *independent* side of
/// the restriction and checks that it no longer interferes with `d`.
fn verify_restriction(iter: &LoopIteration, d: &Descriptor, r: &Restriction) -> bool {
    match r {
        Restriction::ExcludePoint(e) => {
            if iter.ranges.len() != 1 || iter.ranges[0].skip != 1 {
                return false;
            }
            let whole = &iter.ranges[0];
            let below = SymRange::new(whole.start.clone(), e.offset(-1));
            let above = SymRange::new(e.offset(1), whole.end.clone());
            let promoted_below = iter.descriptor.promote(&iter.var, &below);
            let promoted_above = iter.descriptor.promote(&iter.var, &above);
            !promoted_below.interferes(d) && !promoted_above.interferes(d)
        }
        Restriction::ExcludePoints(points) => {
            if iter.ranges.len() != 1 || iter.ranges[0].skip != 1 {
                return false;
            }
            // Guard every triple with `var ≠ e_k` for all excluded
            // points; the point-point separation rule then proves the
            // remaining iterations clear of `d` (iteration-level check,
            // valid for every value of the symbolic variable).
            let mut guard = Guard::truth();
            let v = SymExpr::name(iter.var.clone());
            for e in points {
                guard = guard.and(&Guard::linear(Ineq::ne(&v, e)));
            }
            !guarded_by(&iter.descriptor, &guard).interferes(d)
        }
        Restriction::MaskCond { array, rel } => {
            if iter.ranges.len() != 1 {
                return false;
            }
            // Guard every triple with the complementary mask test on the
            // induction variable, then promote: the guard becomes a
            // dimension mask where applicable.
            let test = MaskTest::new(array.clone(), SymExpr::name(iter.var.clone()), rel.negate());
            let guarded = guarded_by(&iter.descriptor, &Guard::mask(test));
            !guarded.promote(&iter.var, &iter.ranges[0]).interferes(d)
        }
    }
}

/// `d` with `guard` conjoined to every triple.
fn guarded_by(d: &Descriptor, guard: &Guard) -> Descriptor {
    Descriptor {
        reads: d.reads.iter().map(|t| t.clone().guarded(guard)).collect(),
        writes: d.writes.iter().map(|t| t.clone().guarded(guard)).collect(),
    }
}

/// Checks that the loop's iterations commute (independent except through
/// reductions) and that each written array is not also read, returning
/// the recognized reduction accumulators.
///
/// Returns `None` when splitting the iterations would be illegal.
pub fn check_iterations_commute(iter: &LoopIteration, body: &[Stmt]) -> Option<Vec<ReductionVar>> {
    // 1–2. No calls, every scalar the body assigns is a reduction
    // accumulator, and no accumulator is the variable of this loop (the
    // body's own loops are checked with the body).
    let reductions = collect_reductions(body)?;
    if reductions.contains_key(&iter.var) {
        return None;
    }
    let reductions: Vec<ReductionVar> =
        reductions.into_iter().map(|(name, op)| ReductionVar { name, op }).collect();
    // 3. Written arrays must not be read.
    let mut written = BTreeSet::new();
    let mut read = BTreeSet::new();
    for s in body {
        s.array_writes(&mut written);
        s.visit_exprs(&mut |e| e.array_reads(&mut read));
    }
    if written.intersection(&read).next().is_some() {
        return None;
    }
    // 4. Distinct iterations must not interfere (ignoring reductions):
    // substitute var := var + 1 — sound for the linear patterns the
    // descriptors contain.
    let mut stripped = iter.descriptor.clone();
    for r in &reductions {
        stripped = stripped.without_block(&r.name);
    }
    let shifted = stripped.subst(&iter.var, &SymExpr::name(iter.var.clone()).offset(1));
    if stripped.interferes(&shifted) {
        return None;
    }
    // 5. Guarded writes cannot be merged reliably; require plain ones.
    if stripped.writes.iter().any(|t| !t.guard.is_truth() || t.pattern.is_none()) {
        return None;
    }
    Some(reductions)
}

/// The reduction accumulators of a loop body, with their operators.
///
/// Every scalar the body assigns must be an accumulator: assigned only
/// as `s = s ⊕ e`, with one associative ⊕ throughout and `e` reading no
/// accumulator. An accumulator may occur only as the accumulator of its
/// own assignments: any other read (an index, a value, a condition, a
/// loop's bounds, step or mask) and any loop over it refuse the split,
/// as does a call. `None` when the body breaks the rule.
fn collect_reductions(body: &[Stmt]) -> Option<BTreeMap<Name, BinOp>> {
    let mut accs = BTreeMap::new();
    let mut ok = true;
    for s in body {
        s.walk(&mut |s| match s {
            Stmt::Assign { target: LValue::Var(v), value } => match reduction(v, value) {
                Some((op, _)) if *accs.entry(v.clone()).or_insert(op) == op => {}
                _ => ok = false,
            },
            Stmt::Call { .. } => ok = false,
            _ => {}
        });
    }
    if !ok || accs.is_empty() {
        return ok.then_some(accs);
    }
    let reads_acc = |e: &Expr| {
        let mut hit = false;
        e.walk(&mut |e| hit |= matches!(e, Expr::Var(v) if accs.contains_key(v)));
        hit
    };
    for s in body {
        s.walk(&mut |s| match s {
            Stmt::Assign { target: LValue::Var(v), value } => {
                ok &= reduction(v, value).is_some_and(|(_, rest)| !reads_acc(rest))
            }
            Stmt::Do { var, .. } if accs.contains_key(var) => ok = false,
            _ => s.exprs(&mut |e| ok &= !reads_acc(e)),
        });
    }
    ok.then_some(accs)
}

/// Of `name = name ⊕ rest` (either operand order, ⊕ `+` or `*`, `rest`
/// not reading `name`): the operator and `rest`.
fn reduction<'a>(name: &str, value: &'a Expr) -> Option<(BinOp, &'a Expr)> {
    let Expr::Bin(op @ (BinOp::Add | BinOp::Mul), l, r) = value else { return None };
    let is_acc = |e: &Expr| matches!(e, Expr::Var(v) if v == name);
    let rest = if is_acc(l) {
        r
    } else if is_acc(r) {
        l
    } else {
        return None;
    };
    (!rest.reads(name)).then_some((*op, rest))
}

/// The generated pieces of a split loop.
#[derive(Debug, Clone)]
pub struct LoopSplitPieces {
    /// `C_I`: statements executing the independent iterations (with
    /// replicated outputs), including accumulator initializations.
    pub independent: Vec<Stmt>,
    /// `C_D`: statements executing the dependent iterations.
    pub dependent: Vec<Stmt>,
    /// `C_M`: the merge.
    pub merge: Vec<Stmt>,
    /// Declarations for replicated arrays and accumulators.
    pub new_decls: Vec<Decl>,
    /// `(original, independent copy, dependent copy)` renames.
    pub renames: Vec<(Name, Name, Name)>,
}

/// Performs the iteration split of one loop. `iter` must come from
/// [`orchestra_descriptors::loop_iteration_descriptor`] on `loop_stmt`,
/// `restriction` from [`detect_restriction`], and `reductions` from
/// [`check_iterations_commute`].
///
/// Returns `None` when the loop shape is unsupported (multiple ranges,
/// non-unit step for `ExcludePoint`, or a bound that failed to
/// linearize).
pub fn split_loop(
    prog: &Program,
    loop_stmt: &Stmt,
    restriction: &Restriction,
    reductions: &[ReductionVar],
    iter: &LoopIteration,
    fresh: &mut FreshNames,
) -> Option<LoopSplitPieces> {
    let Stmt::Do { label, var, ranges, mask, body } = loop_stmt else { return None };
    if ranges.len() != 1 {
        return None;
    }
    let range = &ranges[0];
    if matches!(restriction, Restriction::ExcludePoint(_) | Restriction::ExcludePoints(_))
        && range.step.is_some()
    {
        return None;
    }

    // Replicate outputs.
    let mut written_arrays = BTreeSet::new();
    for s in body {
        s.array_writes(&mut written_arrays);
    }
    let mut renames = Vec::new();
    let mut new_decls = Vec::new();
    let mut ind_map: BTreeMap<Name, Name> = BTreeMap::new();
    let mut dep_map: BTreeMap<Name, Name> = BTreeMap::new();
    for a in &written_arrays {
        let decl = prog.decl(a)?;
        let ind = fresh.fresh(a, "__i");
        let dep = fresh.fresh(a, "__d");
        for n in [&ind, &dep] {
            let mut d2 = decl.clone();
            d2.name = n.clone();
            new_decls.push(d2);
        }
        ind_map.insert(a.clone(), ind.clone());
        dep_map.insert(a.clone(), dep.clone());
        renames.push((a.clone(), ind, dep));
    }
    for r in reductions {
        let decl = prog.decl(&r.name)?;
        let ind = fresh.fresh(&r.name, "__i");
        let dep = fresh.fresh(&r.name, "__d");
        for n in [&ind, &dep] {
            let mut d2 = decl.clone();
            d2.name = n.clone();
            d2.init = None;
            new_decls.push(d2);
        }
        ind_map.insert(r.name.clone(), ind.clone());
        dep_map.insert(r.name.clone(), dep.clone());
        renames.push((r.name.clone(), ind, dep));
    }

    // Loop headers for the two pieces.
    let bounds_ok = |e: &Expr| -> Expr { e.clone() };
    let (ind_ranges, ind_mask, dep_ranges, dep_mask) = match restriction {
        Restriction::ExcludePoint(e) => {
            let e_ast = symexpr_to_ast(e);
            let in_bounds = Expr::bin(
                BinOp::And,
                Expr::bin(BinOp::Ge, Expr::var(var), bounds_ok(&range.lo)),
                Expr::bin(BinOp::Le, Expr::var(var), bounds_ok(&range.hi)),
            );
            // Folding the ±1 into the symbolic expression prints the
            // paper's `do i = 1, col-2 and col, n` form directly.
            let r1 = Range::new(range.lo.clone(), symexpr_to_ast(&e.offset(-1)));
            let r2 = Range::new(symexpr_to_ast(&e.offset(1)), range.hi.clone());
            // The discontinuous ranges may stick out past [lo, hi] when
            // the excluded point lies outside; the bounds mask clips.
            let ind_mask = conjoin(mask.clone(), Some(in_bounds.clone()));
            let dep_mask = conjoin(mask.clone(), Some(in_bounds));
            (vec![r1, r2], ind_mask, vec![Range::new(e_ast.clone(), e_ast)], dep_mask)
        }
        Restriction::ExcludePoints(points) => {
            // Independent: the full range masked by `i ≠ e_k` for all k;
            // dependent: one point range per excluded value, clipped.
            let in_bounds = Expr::bin(
                BinOp::And,
                Expr::bin(BinOp::Ge, Expr::var(var), bounds_ok(&range.lo)),
                Expr::bin(BinOp::Le, Expr::var(var), bounds_ok(&range.hi)),
            );
            let mut ne_all: Option<Expr> = None;
            let mut dep_ranges = Vec::with_capacity(points.len());
            for e in points {
                let e_ast = symexpr_to_ast(e);
                let ne = Expr::bin(BinOp::Ne, Expr::var(var), e_ast.clone());
                ne_all = Some(match ne_all {
                    None => ne,
                    Some(prev) => Expr::bin(BinOp::And, prev, ne),
                });
                dep_ranges.push(Range::new(e_ast.clone(), e_ast));
            }
            let ind_mask = conjoin(mask.clone(), ne_all);
            let dep_mask = conjoin(mask.clone(), Some(in_bounds));
            (vec![range.clone()], ind_mask, dep_ranges, dep_mask)
        }
        Restriction::MaskCond { array, rel } => {
            let test = |rel: MaskRel| -> Expr {
                let (op, c) = match rel {
                    MaskRel::EqConst(c) => (BinOp::Eq, c),
                    MaskRel::NeConst(c) => (BinOp::Ne, c),
                };
                Expr::bin(op, Expr::index(&**array, vec![Expr::var(var)]), Expr::IntLit(c))
            };
            let ind_mask = conjoin(mask.clone(), Some(test(rel.negate())));
            let dep_mask = conjoin(mask.clone(), Some(test(*rel)));
            (vec![range.clone()], ind_mask, vec![range.clone()], dep_mask)
        }
    };

    // Piece bodies with renamed outputs. The maps hold only written
    // arrays and accumulators, which occur nowhere but as themselves.
    let renamed = |map: &BTreeMap<Name, Name>| -> Vec<Stmt> {
        body.iter().map(|s| s.rename(&|n| map.get(n).cloned())).collect()
    };
    let (ind_body, dep_body) = (renamed(&ind_map), renamed(&dep_map));

    let mut independent = Vec::new();
    let mut dependent = Vec::new();
    for r in reductions {
        independent.push(Stmt::Assign {
            target: LValue::Var(ind_map[&r.name].clone()),
            value: r.identity(),
        });
        dependent.push(Stmt::Assign {
            target: LValue::Var(dep_map[&r.name].clone()),
            value: r.identity(),
        });
    }
    let base = label.as_deref().unwrap_or("C");
    independent.push(Stmt::Do {
        label: Some(format!("{base}_I").into()),
        var: var.clone(),
        ranges: ind_ranges,
        mask: ind_mask,
        body: ind_body,
    });
    dependent.push(Stmt::Do {
        label: Some(format!("{base}_D").into()),
        var: var.clone(),
        ranges: dep_ranges,
        mask: dep_mask,
        body: dep_body,
    });

    // The merge.
    let merge = build_merge(
        base,
        var,
        range,
        mask,
        restriction,
        iter,
        &written_arrays,
        &ind_map,
        &dep_map,
        reductions,
        fresh,
    )?;

    Some(LoopSplitPieces { independent, dependent, merge, new_decls, renames })
}

fn conjoin(a: Option<Expr>, b: Option<Expr>) -> Option<Expr> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(a), Some(b)) => Some(Expr::bin(BinOp::And, a, b)),
    }
}

/// Builds `C_M`: a loop over the original iteration space copying each
/// iteration's written elements from the appropriate replica, plus the
/// final reduction combining step (Figure 2's `B_M`, Figure 4's merge).
#[allow(clippy::too_many_arguments)]
fn build_merge(
    base: &str,
    var: &Name,
    range: &Range,
    mask: &Option<Expr>,
    restriction: &Restriction,
    iter: &LoopIteration,
    written_arrays: &BTreeSet<Name>,
    ind_map: &BTreeMap<Name, Name>,
    dep_map: &BTreeMap<Name, Name>,
    reductions: &[ReductionVar],
    fresh: &mut FreshNames,
) -> Option<Vec<Stmt>> {
    let mut merge = Vec::new();
    if !written_arrays.is_empty() {
        // Copy statements per array from the iteration write triples.
        let mut from_ind = Vec::new();
        let mut from_dep = Vec::new();
        for t in &iter.descriptor.writes {
            if !written_arrays.contains(&*t.block) {
                continue;
            }
            from_ind.push(copy_stmt(t, &ind_map[&*t.block], fresh)?);
            from_dep.push(copy_stmt(t, &dep_map[&*t.block], fresh)?);
        }
        let dep_cond = match restriction {
            Restriction::ExcludePoint(e) => Expr::bin(BinOp::Eq, Expr::var(var), symexpr_to_ast(e)),
            Restriction::ExcludePoints(points) => {
                let mut cond: Option<Expr> = None;
                for e in points {
                    let eq = Expr::bin(BinOp::Eq, Expr::var(var), symexpr_to_ast(e));
                    cond = Some(match cond {
                        None => eq,
                        Some(prev) => Expr::bin(BinOp::Or, prev, eq),
                    });
                }
                cond.expect("at least one point")
            }
            Restriction::MaskCond { array, rel } => {
                let (op, c) = match rel {
                    MaskRel::EqConst(c) => (BinOp::Eq, *c),
                    MaskRel::NeConst(c) => (BinOp::Ne, *c),
                };
                Expr::bin(op, Expr::index(&**array, vec![Expr::var(var)]), Expr::IntLit(c))
            }
        };
        merge.push(Stmt::Do {
            label: Some(format!("{base}_M").into()),
            var: var.clone(),
            ranges: vec![range.clone()],
            mask: mask.clone(),
            body: vec![Stmt::If { cond: dep_cond, then_body: from_dep, else_body: from_ind }],
        });
    }
    for r in reductions {
        // s = (s ⊕ s__i) ⊕ s__d
        let inner = Expr::bin(r.op, Expr::var(&r.name), Expr::var(&ind_map[&r.name]));
        let outer = Expr::bin(r.op, inner, Expr::var(&dep_map[&r.name]));
        merge.push(Stmt::Assign { target: LValue::Var(r.name.clone()), value: outer });
    }
    Some(merge)
}

/// Generates the copy of one iteration's writes described by a triple:
/// nested loops over the range dimensions assigning
/// `block[idx…] = replica[idx…]`.
fn copy_stmt(t: &Triple, replica: &Name, fresh: &mut FreshNames) -> Option<Stmt> {
    let dims = t.pattern.as_ref()?;
    let mut idx_exprs: Vec<Expr> = Vec::with_capacity(dims.len());
    let mut loops: Vec<(Name, Expr, Expr, i64)> = Vec::new();
    for d in dims {
        if d.mask.is_some() {
            return None;
        }
        if d.range.is_point() {
            idx_exprs.push(symexpr_to_ast(&d.range.start));
        } else {
            let v = fresh.fresh("m", "v");
            idx_exprs.push(Expr::var(&v));
            loops.push((
                v,
                symexpr_to_ast(&d.range.start),
                symexpr_to_ast(&d.range.end),
                d.range.skip,
            ));
        }
    }
    let mut stmt = Stmt::Assign {
        target: LValue::Index(t.block.clone(), idx_exprs.clone()),
        value: Expr::Index(replica.clone(), idx_exprs),
    };
    for (v, lo, hi, skip) in loops.into_iter().rev() {
        stmt = Stmt::Do {
            label: None,
            var: v,
            ranges: vec![Range {
                lo,
                hi,
                step: if skip == 1 { None } else { Some(Expr::IntLit(skip)) },
            }],
            mask: None,
            body: vec![stmt],
        };
    }
    Some(stmt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_descriptors::{descriptor_of_stmt, loop_iteration_descriptor, SymCtx};
    use orchestra_lang::parse_program;

    #[test]
    fn symexpr_round_trip() {
        let e = SymExpr::from_terms([("col".into(), 1)], -1);
        let ast = symexpr_to_ast(&e);
        assert_eq!(orchestra_lang::pretty::expr_to_string(&ast), "col - 1");
        let e2 = SymExpr::from_terms([("a".into(), -2), ("b".into(), 3)], 4);
        let ast2 = symexpr_to_ast(&e2);
        assert_eq!(orchestra_lang::pretty::expr_to_string(&ast2), "-(2 * a) + 3 * b + 4");
        assert_eq!(
            orchestra_lang::pretty::expr_to_string(&symexpr_to_ast(&SymExpr::constant(7))),
            "7"
        );
    }

    fn figure4_like() -> (Program, LoopIteration, Descriptor) {
        let p = parse_program(
            r#"
program p
  integer n = 6, a = 3
  float x[1..n, 1..n], y[1..n], sum
  G: do i = 1, n {
    x[a, i] = x[a, i] + y[i]
  }
  H: do i = 1, n {
    do j = 1, n {
      sum = sum + x[i, j]
    }
  }
end
"#,
        )
        .unwrap();
        let ctx = SymCtx::from_program(&p);
        let dg = descriptor_of_stmt(&p.body[0], &ctx);
        let iter = loop_iteration_descriptor(&p.body[1], &ctx).unwrap();
        (p, iter, dg)
    }

    #[test]
    fn figure4_restriction_is_exclude_a() {
        let (_, iter, dg) = figure4_like();
        let r = detect_restriction(&iter, &dg, &BTreeSet::from(["sum".into()]))
            .expect("restriction found");
        assert_eq!(r, Restriction::ExcludePoint(SymExpr::constant(3)), "a folds to 3");
    }

    #[test]
    fn figure4_reduction_recognized() {
        let (p, iter, _) = figure4_like();
        let Stmt::Do { body, .. } = &p.body[1] else { panic!() };
        let reds = check_iterations_commute(&iter, body).expect("legal split");
        assert_eq!(reds, vec![ReductionVar { name: "sum".into(), op: BinOp::Add }]);
    }

    #[test]
    fn figure4_split_produces_three_pieces() {
        let (p, iter, dg) = figure4_like();
        let r = detect_restriction(&iter, &dg, &BTreeSet::from(["sum".into()])).unwrap();
        let Stmt::Do { body, .. } = &p.body[1] else { panic!() };
        let reds = check_iterations_commute(&iter, body).unwrap();
        let mut fresh = FreshNames::from_program(&p);
        let pieces = split_loop(&p, &p.body[1], &r, &reds, &iter, &mut fresh).expect("split");
        // C_I: init + discontinuous loop; C_D: init + point loop; C_M:
        // reduction combine (no arrays written).
        assert_eq!(pieces.independent.len(), 2);
        let Stmt::Do { ranges, .. } = &pieces.independent[1] else { panic!() };
        assert_eq!(ranges.len(), 2, "1..a-1 and a+1..n");
        let Stmt::Do { ranges: dep_r, .. } = &pieces.dependent[1] else { panic!() };
        assert_eq!(dep_r.len(), 1);
        assert_eq!(pieces.merge.len(), 1, "just the reduction combine");
        assert!(pieces.new_decls.iter().any(|d| d.name == "sum__i"));
    }

    fn masked_b_like() -> (Program, LoopIteration, Descriptor) {
        // Figure 1's A and B shapes.
        let p = orchestra_lang::builder::figure1_program(6);
        let ctx = SymCtx::from_program(&p);
        let da = descriptor_of_stmt(&p.body[0], &ctx);
        let iter = loop_iteration_descriptor(&p.body[1], &ctx).unwrap();
        (p, iter, da)
    }

    #[test]
    fn figure1_restriction_is_mask_cond() {
        let (_, iter, da) = masked_b_like();
        let r = detect_restriction(&iter, &da, &BTreeSet::from(["output".into()]))
            .expect("mask restriction");
        assert_eq!(r, Restriction::MaskCond { array: "mask".into(), rel: MaskRel::NeConst(0) });
    }

    #[test]
    fn figure1_split_matches_figure2_shape() {
        let (p, iter, da) = masked_b_like();
        let r = detect_restriction(&iter, &da, &BTreeSet::from(["output".into()])).unwrap();
        let Stmt::Do { body, .. } = &p.body[1] else { panic!() };
        let reds = check_iterations_commute(&iter, body).unwrap();
        assert!(reds.is_empty());
        let mut fresh = FreshNames::from_program(&p);
        let pieces = split_loop(&p, &p.body[1], &r, &reds, &iter, &mut fresh).unwrap();
        // B_I: do i where (mask[i] = 0); B_D: where (mask[i] <> 0).
        let Stmt::Do { mask: im, label, .. } = &pieces.independent[0] else { panic!() };
        assert_eq!(label.as_deref(), Some("B_I"));
        assert_eq!(orchestra_lang::pretty::expr_to_string(im.as_ref().unwrap()), "mask[i] = 0");
        let Stmt::Do { mask: dm, .. } = &pieces.dependent[0] else { panic!() };
        assert_eq!(orchestra_lang::pretty::expr_to_string(dm.as_ref().unwrap()), "mask[i] <> 0");
        // Output replicated; merge loop selects by the mask.
        assert!(pieces.new_decls.iter().any(|d| d.name == "output__i"));
        assert_eq!(pieces.merge.len(), 1);
        let Stmt::Do { body: mb, label: ml, .. } = &pieces.merge[0] else { panic!() };
        assert_eq!(ml.as_deref(), Some("B_M"));
        assert!(matches!(mb[0], Stmt::If { .. }));
    }

    #[test]
    fn non_commuting_loop_rejected() {
        // Writes x[i] and reads x[i-1]: iterations do not commute.
        let p = parse_program(
            "program p\n integer n = 5\n float x[1..n]\n L: do i = 2, n { x[i] = x[i - 1] }\nend",
        )
        .unwrap();
        let ctx = SymCtx::from_program(&p);
        let iter = loop_iteration_descriptor(&p.body[0], &ctx).unwrap();
        let Stmt::Do { body, .. } = &p.body[0] else { panic!() };
        assert!(check_iterations_commute(&iter, body).is_none());
    }

    #[test]
    fn non_reduction_scalar_rejected() {
        let p = parse_program(
            "program p\n integer n = 5, last\n float x[1..n]\n L: do i = 1, n { last = i\n x[i] = 1.0 }\nend",
        )
        .unwrap();
        let ctx = SymCtx::from_program(&p);
        let iter = loop_iteration_descriptor(&p.body[0], &ctx).unwrap();
        let Stmt::Do { body, .. } = &p.body[0] else { panic!() };
        assert!(check_iterations_commute(&iter, body).is_none(), "last = i is not a reduction");
    }

    /// An accumulator occurs only as the accumulator of its own
    /// assignments: read by an inner loop's step or bound, looped over by
    /// an inner loop or by the loop itself, it refuses the split.
    #[test]
    fn accumulator_used_elsewhere_is_rejected() {
        let commutes = |body: &str| {
            let src = format!(
                "program p\n integer n = 5, s = 1\n float y[1..n]\n L: do j = 1, n {{ {body} }}\nend"
            );
            let p = parse_program(&src).unwrap();
            let iter = loop_iteration_descriptor(&p.body[0], &SymCtx::from_program(&p)).unwrap();
            let Stmt::Do { body, .. } = &p.body[0] else { panic!() };
            check_iterations_commute(&iter, body).map(|reds| reds.len())
        };
        assert_eq!(commutes("s = s * 2\n do k = 1, 8 { y[j] = 1.0 }"), Some(1));
        for body in [
            "s = s * 2\n do k = 1, 8, s { y[j] = 1.0 }",
            "s = s * 2\n do k = s, 8 { y[j] = 1.0 }",
            "s = s + 5\n do s = 1, 2 { y[j] = 1.0 }",
            "s = s + 5\n if (s > 2) { y[j] = 1.0 }",
            "j = j + 1",
        ] {
            assert_eq!(commutes(body), None, "{body}");
        }
    }

    #[test]
    fn no_restriction_when_conflict_not_isolable() {
        // D writes all of x; every iteration of L reads x[i] → no
        // restriction isolates the conflict.
        let p = parse_program(
            r#"
program p
  integer n = 5
  float x[1..n], y[1..n], z[1..n]
  W: do i = 1, n { x[i] = 1.0 }
  L: do i = 1, n { y[i] = x[i] }
end
"#,
        )
        .unwrap();
        let ctx = SymCtx::from_program(&p);
        let dw = descriptor_of_stmt(&p.body[0], &ctx);
        let iter = loop_iteration_descriptor(&p.body[1], &ctx).unwrap();
        assert!(detect_restriction(&iter, &dw, &BTreeSet::from(["y".into()])).is_none());
    }

    #[test]
    fn fresh_names_avoid_collisions() {
        let p = parse_program("program p\n integer sum__i, sum\nend").unwrap();
        let mut f = FreshNames::from_program(&p);
        assert_eq!(f.fresh("sum", "__i"), "sum__i2");
        assert_eq!(f.fresh("sum", "__i"), "sum__i3");
    }
}
