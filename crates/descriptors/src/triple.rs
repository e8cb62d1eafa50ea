//! Access triples `<G> B[P]` (§3.2).
//!
//! Each triple describes the access to one memory block `B`. The
//! optional guard `G` says when the access can occur; the optional
//! pattern `P` gives one [`DimPattern`] per dimension — a symbolic range
//! plus an optional *mask* limiting the range to elements whose mask
//! array entry satisfies a relation, written `1..n/(mask[*] <> 0)` in the
//! paper's notation (`*` is the current element of the range).

use crate::guard::{Guard, MaskRel};
use orchestra_analysis::symbolic::{Name, SymExpr, SymRange};
use std::fmt;

/// A per-dimension access pattern: a range, optionally masked.
#[derive(Debug, Clone, PartialEq)]
pub struct DimPattern {
    /// The symbolic index range touched in this dimension.
    pub range: SymRange,
    /// Optional mask: only elements `e` of `range` with
    /// `mask_array[e] REL` are touched.
    pub mask: Option<(Name, MaskRel)>,
}

impl DimPattern {
    /// An unmasked dimension pattern.
    pub fn range(r: SymRange) -> Self {
        DimPattern { range: r, mask: None }
    }

    /// A single-point dimension pattern.
    pub fn point(e: SymExpr) -> Self {
        DimPattern { range: SymRange::point(e), mask: None }
    }

    /// A masked dimension pattern.
    pub fn masked(r: SymRange, array: impl Into<Name>, rel: MaskRel) -> Self {
        DimPattern { range: r, mask: Some((array.into(), rel)) }
    }

    /// Proves two dimension patterns disjoint: disjoint ranges, or
    /// complementary masks over the same mask array.
    pub fn disjoint(&self, other: &DimPattern) -> bool {
        if self.range.disjoint(&other.range) {
            return true;
        }
        if let (Some((a1, r1)), Some((a2, r2))) = (&self.mask, &other.mask) {
            if a1 == a2 && r1.complementary(*r2) {
                return true;
            }
        }
        false
    }

    /// Proves `self` covers `other` (used to drop reads dominated by
    /// writes). Conservative: masked patterns never cover.
    pub fn covers(&self, other: &DimPattern) -> bool {
        self.mask.is_none() && self.range.contains_range(&other.range)
    }

    /// Substitutes a symbol in the range bounds.
    pub fn subst(&self, name: &str, repl: &SymExpr) -> DimPattern {
        DimPattern { range: self.range.subst(name, repl), mask: self.mask.clone() }
    }
}

impl fmt::Display for DimPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.range.is_point() {
            write!(f, "{}", self.range.start)?;
        } else {
            write!(f, "{}", self.range)?;
        }
        if let Some((a, rel)) = &self.mask {
            write!(f, "/({a}[*] {rel})")?;
        }
        Ok(())
    }
}

/// An access triple `<G> B[P]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Triple {
    /// The guard; [`Guard::truth`] when always-on.
    pub guard: Guard,
    /// The accessed memory block (array or scalar name).
    pub block: Name,
    /// Per-dimension patterns; `None` means the whole block.
    pub pattern: Option<Vec<DimPattern>>,
}

impl Triple {
    /// A triple covering an entire block.
    pub fn whole(block: impl Into<Name>) -> Self {
        Triple { guard: Guard::truth(), block: block.into(), pattern: None }
    }

    /// A scalar access (a block with no dimensions).
    pub fn scalar(name: impl Into<Name>) -> Self {
        Triple::whole(name)
    }

    /// A patterned access.
    pub(crate) fn patterned(block: impl Into<Name>, dims: Vec<DimPattern>) -> Self {
        Triple { guard: Guard::truth(), block: block.into(), pattern: Some(dims) }
    }

    /// Returns this triple with an extra guard conjoined.
    pub fn guarded(mut self, g: &Guard) -> Self {
        self.guard = self.guard.and(g);
        self
    }

    /// Conservative overlap test: `false` only when the two accesses are
    /// *provably* disjoint.
    pub fn overlaps(&self, other: &Triple) -> bool {
        if self.block != other.block {
            return false;
        }
        if self.guard.contradicts(&other.guard) {
            return false;
        }
        let (Some(p1), Some(p2)) = (&self.pattern, &other.pattern) else {
            return true; // whole-block access overlaps anything
        };
        if p1.len() != p2.len() {
            return true; // rank confusion: stay conservative
        }
        // Disjoint in any one dimension ⇒ disjoint accesses.
        for (d1, d2) in p1.iter().zip(p2) {
            if d1.disjoint(d2) {
                return false;
            }
            // Cross check: one side's dimension mask vs the other side's
            // point guard, e.g. A writes q[…, col/(mask[*] <> 0)] while B
            // reads q[…, k] under guard mask[k] = 0.
            if let Some((arr, rel)) = &d1.mask {
                if point_guard_contradicts(&d2.range, &other.guard, arr, *rel) {
                    return false;
                }
            }
            if let Some((arr, rel)) = &d2.mask {
                if point_guard_contradicts(&d1.range, &self.guard, arr, *rel) {
                    return false;
                }
            }
            // Point-point dims made distinct by a linear `≠` guard
            // (`<i <> e> q[i]` vs `q[e]` — the multi-point exclusion
            // form of iteration splitting).
            if d1.range.is_point()
                && d2.range.is_point()
                && (ne_guard_separates(&self.guard, &d1.range.start, &d2.range.start)
                    || ne_guard_separates(&other.guard, &d1.range.start, &d2.range.start))
            {
                return false;
            }
        }
        true
    }

    /// Proves `self` (a write) covers `other` (a read): used to exclude
    /// reads dominated by writes when assembling descriptors.
    pub fn covers(&self, other: &Triple) -> bool {
        if self.block != other.block || !self.guard.is_truth() {
            return false;
        }
        match (&self.pattern, &other.pattern) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(p1), Some(p2)) => {
                p1.len() == p2.len() && p1.iter().zip(p2).all(|(a, b)| a.covers(b))
            }
        }
    }

    /// Substitutes a symbol throughout pattern and guard.
    pub fn subst(&self, name: &str, repl: &SymExpr) -> Triple {
        Triple {
            guard: self.guard.subst(name, repl),
            block: self.block.clone(),
            pattern: self
                .pattern
                .as_ref()
                .map(|dims| dims.iter().map(|d| d.subst(name, repl)).collect()),
        }
    }

    /// Whether the pattern or guard mentions `name`.
    pub fn mentions(&self, name: &str) -> bool {
        let in_pattern =
            self.pattern.as_ref().is_some_and(|dims| dims.iter().any(|d| d.range.mentions(name)));
        in_pattern || self.guard.mentions(name)
    }

    /// Promotes the unresolved symbol `var` (an induction variable) to
    /// its `range`: pattern dimensions indexed by `var` widen to the
    /// corresponding range of values, and guard mask tests indexed
    /// exactly by `var` become dimension masks on dimensions whose index
    /// was exactly `var` (§3.2's guard-to-mask conversion).
    pub fn promote(&self, var: &str, range: &SymRange) -> Triple {
        let mut t = self.clone();
        t.promote_in_place(var, range);
        t
    }

    /// [`promote`](Self::promote), in place.
    pub(crate) fn promote_in_place(&mut self, var: &str, range: &SymRange) {
        if !self.mentions(var) {
            return;
        }
        let mask_test = self.guard.mask_tests_on(var).next().map(|m| (m.array.clone(), m.rel));
        for d in self.pattern.iter_mut().flatten() {
            if !d.range.mentions(var) {
                continue;
            }
            // Attach guard masks when the dimension's index was
            // exactly the promoted variable.
            let was_exactly_var = d.range.is_point() && d.range.start.as_name() == Some(var);
            d.range = promote_range(&d.range, var, range);
            if was_exactly_var && d.mask.is_none() {
                d.mask.clone_from(&mask_test);
            }
        }
        // Guard atoms mentioning the variable no longer make sense after
        // promotion; drop them (widening, hence sound).
        self.guard.atoms.retain(|a| !a.mentions(var));
    }
}

/// Widens a range whose endpoints mention `var` over all values of
/// `range`. Sound for affine indices: substitute the extreme values,
/// ordering by the sign of the coefficient.
fn promote_range(r: &SymRange, var: &str, var_range: &SymRange) -> SymRange {
    let promote_end = |e: &SymExpr, want_max: bool| -> SymExpr {
        let c = e.coeff(var);
        if c == 0 {
            return e.clone();
        }
        let take_end = (c > 0) == want_max;
        let repl = if take_end { &var_range.end } else { &var_range.start };
        e.subst(var, repl)
    };
    SymRange { start: promote_end(&r.start, false), end: promote_end(&r.end, true), skip: r.skip }
}

/// True when `guard` contains a linear `a − b ≠ 0` (either sign) for
/// the two point expressions — proving the points never coincide.
fn ne_guard_separates(guard: &Guard, a: &SymExpr, b: &SymExpr) -> bool {
    use orchestra_analysis::symbolic::Rel;
    let mut unequal = guard
        .atoms
        .iter()
        .filter_map(|atom| match atom {
            crate::guard::GuardAtom::Linear(i) if i.rel == Rel::NeZero => Some(&i.expr),
            _ => None,
        })
        .peekable();
    if unequal.peek().is_none() {
        return false;
    }
    let (diff, neg) = (a.sub(b), b.sub(a));
    unequal.any(|e| *e == diff || *e == neg)
}

/// Does `range` (a point) under `guard` contradict a dimension mask
/// `(arr, rel)`? True when the guard contains `arr[p] REL'` with `p`
/// provably equal to the point and `REL'` complementary to `rel`.
fn point_guard_contradicts(range: &SymRange, guard: &Guard, arr: &str, rel: MaskRel) -> bool {
    if !range.is_point() {
        return false;
    }
    guard.atoms.iter().any(|a| match a {
        crate::guard::GuardAtom::Mask(m) => {
            &*m.array == arr
                && m.index.eq_expr(&range.start) == Some(true)
                && m.rel.complementary(rel)
        }
        _ => false,
    })
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.guard.is_truth() {
            write!(f, "<{}> ", self.guard)?;
        }
        write!(f, "{}", self.block)?;
        if let Some(dims) = &self.pattern {
            write!(f, "[")?;
            for (i, d) in dims.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{d}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_analysis::symbolic::SymExpr;

    fn nm(s: &str) -> SymExpr {
        SymExpr::name(s)
    }

    fn whole_range() -> SymRange {
        SymRange::new(SymExpr::constant(1), nm("n"))
    }

    #[test]
    fn different_blocks_never_overlap() {
        let a = Triple::whole("x");
        let b = Triple::whole("y");
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn whole_block_overlaps_everything_same_block() {
        let a = Triple::whole("x");
        let b = Triple::patterned("x", vec![DimPattern::point(nm("i"))]);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
    }

    #[test]
    fn disjoint_rows_do_not_overlap() {
        // x[1..a-1, 1..n] vs x[a, 1..n]
        let a = Triple::patterned(
            "x",
            vec![
                DimPattern::range(SymRange::new(SymExpr::constant(1), nm("a").offset(-1))),
                DimPattern::range(whole_range()),
            ],
        );
        let b = Triple::patterned(
            "x",
            vec![DimPattern::point(nm("a")), DimPattern::range(whole_range())],
        );
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn complementary_masks_disjoint() {
        // q[1..n/(mask[*] <> 0)] vs q[1..n/(mask[*] = 0)]
        let a = Triple::patterned(
            "q",
            vec![DimPattern::masked(whole_range(), "mask", MaskRel::NeConst(0))],
        );
        let b = Triple::patterned(
            "q",
            vec![DimPattern::masked(whole_range(), "mask", MaskRel::EqConst(0))],
        );
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn same_mask_rel_overlaps() {
        let a = Triple::patterned(
            "q",
            vec![DimPattern::masked(whole_range(), "mask", MaskRel::NeConst(0))],
        );
        assert!(a.overlaps(&a.clone()));
    }

    #[test]
    fn guard_contradiction_blocks_overlap() {
        use crate::guard::MaskTest;
        let g1 = Guard::mask(MaskTest::new("m", nm("i"), MaskRel::NeConst(0)));
        let g2 = Guard::mask(MaskTest::new("m", nm("i"), MaskRel::EqConst(0)));
        let a = Triple::whole("x").guarded(&g1);
        let b = Triple::whole("x").guarded(&g2);
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn masked_dim_vs_contradicting_point_guard() {
        use crate::guard::MaskTest;
        // A: q[1..n/(mask[*] <> 0)]; B: <mask[k] = 0> q[k].
        let a = Triple::patterned(
            "q",
            vec![DimPattern::masked(whole_range(), "mask", MaskRel::NeConst(0))],
        );
        let b = Triple::patterned("q", vec![DimPattern::point(nm("k"))])
            .guarded(&Guard::mask(MaskTest::new("mask", nm("k"), MaskRel::EqConst(0))));
        assert!(!a.overlaps(&b));
        assert!(!b.overlaps(&a));
    }

    #[test]
    fn covers_excludes_dominated_read() {
        let w = Triple::patterned("x", vec![DimPattern::range(whole_range())]);
        let r = Triple::patterned(
            "x",
            vec![DimPattern::range(SymRange::new(SymExpr::constant(2), nm("n").offset(-1)))],
        );
        assert!(w.covers(&r));
        assert!(!r.covers(&w));
    }

    #[test]
    fn guarded_write_never_covers() {
        use crate::guard::MaskTest;
        let w = Triple::patterned("x", vec![DimPattern::range(whole_range())])
            .guarded(&Guard::mask(MaskTest::new("m", nm("i"), MaskRel::NeConst(0))));
        let r = Triple::patterned("x", vec![DimPattern::range(whole_range())]);
        assert!(!w.covers(&r));
    }

    #[test]
    fn promote_point_dim_to_range_with_mask() {
        use crate::guard::MaskTest;
        // <mask[col] <> 0> q[i0, col] promoted over col = 1..n
        // → q[i0, 1..n/(mask[*] <> 0)]
        let t =
            Triple::patterned("q", vec![DimPattern::point(nm("i0")), DimPattern::point(nm("col"))])
                .guarded(&Guard::mask(MaskTest::new("mask", nm("col"), MaskRel::NeConst(0))));
        let p = t.promote("col", &whole_range());
        let dims = p.pattern.as_ref().unwrap();
        assert_eq!(dims[0], DimPattern::point(nm("i0")), "unrelated dim untouched");
        assert_eq!(dims[1].range, whole_range());
        assert_eq!(dims[1].mask, Some(("mask".into(), MaskRel::NeConst(0))));
        assert!(p.guard.is_truth(), "guard converted to dim mask");
    }

    #[test]
    fn promote_affine_index() {
        // x[col - 1] over col = 1..n → x[0..n-1]
        let t = Triple::patterned("x", vec![DimPattern::point(nm("col").offset(-1))]);
        let p = t.promote("col", &whole_range());
        let dims = p.pattern.as_ref().unwrap();
        assert_eq!(dims[0].range.start, SymExpr::constant(0));
        assert_eq!(dims[0].range.end, nm("n").offset(-1));
    }

    #[test]
    fn promote_negative_coefficient_swaps_bounds() {
        // x[10 - col] over col = 1..n → x[10-n .. 9]
        let t = Triple::patterned("x", vec![DimPattern::point(nm("col").scale(-1).offset(10))]);
        let p = t.promote("col", &whole_range());
        let dims = p.pattern.as_ref().unwrap();
        assert_eq!(dims[0].range.start, nm("n").scale(-1).offset(10));
        assert_eq!(dims[0].range.end, SymExpr::constant(9));
    }

    #[test]
    fn display_matches_paper_notation() {
        let t = Triple::patterned(
            "q",
            vec![
                DimPattern::masked(SymRange::constant(1, 10), "miss", MaskRel::NeConst(1)),
                DimPattern::range(SymRange::constant(1, 10)),
            ],
        );
        assert_eq!(t.to_string(), "q[1..10/(miss[*] <> 1), 1..10]");
    }

    #[test]
    fn subst_shifts_iteration() {
        let t = Triple::patterned("q", vec![DimPattern::point(nm("i"))]);
        let s = t.subst("i", &nm("i").offset(-1));
        let dims = s.pattern.as_ref().unwrap();
        assert_eq!(dims[0].range.start, nm("i").offset(-1));
        // i vs i-1 are provably different points → no overlap.
        assert!(!t.overlaps(&s));
    }
}
