//! Symbolic data descriptors and interference (§3.2).
//!
//! A descriptor is two sets of triples: locations read (live on entry —
//! reads dominated by writes are excluded) and locations written.
//! Descriptor `A` *interferes* with `B` when
//!
//! ```text
//! (A.write ∩ B.write ≠ ∅)  — output dependence
//! (A.write ∩ B.read  ≠ ∅)  — flow dependence (A before B)
//! (A.read  ∩ B.write ≠ ∅)  — anti dependence
//! ```
//!
//! Interference is computed conservatively: descriptors interfere unless
//! disjointness can be proven.

use crate::triple::Triple;
use orchestra_analysis::symbolic::{SymExpr, SymRange};
use std::fmt;

/// A symbolic data descriptor: read and write triple sets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Descriptor {
    /// Locations read (live on entry).
    pub reads: Vec<Triple>,
    /// Locations written.
    pub writes: Vec<Triple>,
}

impl Descriptor {
    /// An empty descriptor (touches nothing).
    pub fn new() -> Self {
        Descriptor::default()
    }

    /// Adds a read triple unless it is covered by an existing write
    /// (reads dominated by writes are not live on entry) or is a
    /// duplicate.
    pub(crate) fn add_read(&mut self, t: Triple) {
        if self.writes.iter().any(|w| w.covers(&t)) {
            return;
        }
        if !self.reads.contains(&t) {
            self.reads.push(t);
        }
    }

    /// Adds a write triple (deduplicated).
    pub(crate) fn add_write(&mut self, t: Triple) {
        if !self.writes.contains(&t) {
            self.writes.push(t);
        }
    }

    /// Merges another descriptor into this one, sequencing `other`
    /// *after* `self`: reads of `other` that are covered by writes of
    /// `self` are not live on entry to the combination.
    pub fn then(&mut self, other: Descriptor) {
        if self.is_empty() {
            return self.take_deduped(other);
        }
        for r in other.reads {
            self.add_read(r);
        }
        for w in other.writes {
            self.add_write(w);
        }
    }

    /// Set-union without domination filtering (used when combining
    /// branches of a conditional, where neither side dominates).
    pub fn union(&mut self, other: Descriptor) {
        if self.is_empty() {
            return self.take_deduped(other);
        }
        for r in other.reads {
            if !self.reads.contains(&r) {
                self.reads.push(r);
            }
        }
        for w in other.writes {
            self.add_write(w);
        }
    }

    /// What [`then`](Self::then) and [`union`](Self::union) make of
    /// `other` on an empty descriptor — its triples, each once, in order
    /// — keeping `other`'s vectors.
    fn take_deduped(&mut self, other: Descriptor) {
        *self = other;
        dedup_in_order(&mut self.reads);
        dedup_in_order(&mut self.writes);
    }

    /// True when any triple of `a` may overlap any triple of `b`.
    fn sets_overlap(a: &[Triple], b: &[Triple]) -> bool {
        a.iter().any(|x| b.iter().any(|y| x.overlaps(y)))
    }

    /// Conservative interference test (output-, flow-, or
    /// anti-dependence).
    pub fn interferes(&self, other: &Descriptor) -> bool {
        Descriptor::sets_overlap(&self.writes, &other.writes)
            || Descriptor::sets_overlap(&self.writes, &other.reads)
            || Descriptor::sets_overlap(&self.reads, &other.writes)
    }

    /// Flow interference *from* `pred` *to* `self`: `pred.write ∩
    /// self.read ≠ ∅`. Unlike [`Descriptor::interferes`] this relation is
    /// not symmetric (§3.3.1's `flow_interfere`).
    pub fn flow_interferes_from(&self, pred: &Descriptor) -> bool {
        Descriptor::sets_overlap(&pred.writes, &self.reads)
    }

    /// Substitutes a symbol in every triple (e.g. shifting a loop-body
    /// descriptor from iteration `i` to `i-1` for pipelining).
    pub fn subst(&self, name: &str, repl: &SymExpr) -> Descriptor {
        Descriptor {
            reads: self.reads.iter().map(|t| t.subst(name, repl)).collect(),
            writes: self.writes.iter().map(|t| t.subst(name, repl)).collect(),
        }
    }

    /// Promotes an induction variable to its range in every triple
    /// (computing the whole-loop descriptor from the iteration
    /// descriptor).
    pub fn promote(&self, var: &str, range: &SymRange) -> Descriptor {
        self.clone().into_promoted(var, range)
    }

    /// [`promote`](Self::promote) of a descriptor the caller gives up.
    pub(crate) fn into_promoted(mut self, var: &str, range: &SymRange) -> Descriptor {
        for t in self.reads.iter_mut().chain(&mut self.writes) {
            t.promote_in_place(var, range);
        }
        self
    }

    /// Removes triples for the given block (used to ignore a
    /// computation's own induction variable or replicated temporaries).
    pub(crate) fn without_block(mut self, block: &str) -> Descriptor {
        self.reads.retain(|t| &*t.block != block);
        self.writes.retain(|t| &*t.block != block);
        self
    }

    /// All block names touched.
    pub fn blocks(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.reads.iter().chain(&self.writes).map(|t| &*t.block).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// True when the descriptor touches nothing.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }
}

/// Drops every triple equal to an earlier one, in place.
fn dedup_in_order(v: &mut Vec<Triple>) {
    let mut kept = 0;
    for i in 0..v.len() {
        if !v[..kept].contains(&v[i]) {
            v.swap(kept, i);
            kept += 1;
        }
    }
    v.truncate(kept);
}

impl fmt::Display for Descriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "write:")?;
        for t in &self.writes {
            write!(f, " {t}")?;
        }
        write!(f, "\nread:")?;
        for t in &self.reads {
            write!(f, " {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::DimPattern;
    use orchestra_analysis::symbolic::SymExpr;

    fn nm(s: &str) -> SymExpr {
        SymExpr::name(s)
    }

    fn whole() -> SymRange {
        SymRange::new(SymExpr::constant(1), nm("n"))
    }

    /// The paper's Figure 4 descriptors:
    /// DG: write {X[a,1..n]}, read {X[a,1..n], Y[1..n]}
    /// DH: write {sum}, read {X[1..n,1..n], sum}
    fn figure4() -> (Descriptor, Descriptor) {
        let mut dg = Descriptor::new();
        dg.add_write(Triple::patterned(
            "X",
            vec![DimPattern::point(nm("a")), DimPattern::range(whole())],
        ));
        dg.add_read(Triple::patterned(
            "X",
            vec![DimPattern::point(nm("a")), DimPattern::range(whole())],
        ));
        dg.add_read(Triple::patterned("Y", vec![DimPattern::range(whole())]));

        let mut dh = Descriptor::new();
        dh.add_write(Triple::scalar("sum"));
        dh.add_read(Triple::patterned(
            "X",
            vec![DimPattern::range(whole()), DimPattern::range(whole())],
        ));
        dh.add_read(Triple::scalar("sum"));
        (dg, dh)
    }

    #[test]
    fn figure4_interference() {
        let (dg, dh) = figure4();
        assert!(dg.interferes(&dh), "G writes X[a,*] which H reads");
        assert!(dh.flow_interferes_from(&dg));
        assert!(!dg.flow_interferes_from(&dh), "H writes only sum, G does not read sum");
    }

    #[test]
    fn figure4_restricted_iterations_independent() {
        let (dg, _dh) = figure4();
        // Restrict H's row index to 1..a-1: substitute the read pattern.
        let mut dh_restricted = Descriptor::new();
        dh_restricted.add_write(Triple::scalar("sum2"));
        dh_restricted.add_read(Triple::patterned(
            "X",
            vec![
                DimPattern::range(SymRange::new(SymExpr::constant(1), nm("a").offset(-1))),
                DimPattern::range(whole()),
            ],
        ));
        assert!(!dg.interferes(&dh_restricted), "rows 1..a-1 miss row a");
    }

    #[test]
    fn read_dominated_by_write_excluded() {
        let mut d = Descriptor::new();
        d.add_write(Triple::patterned("x", vec![DimPattern::range(SymRange::constant(1, 10))]));
        d.add_read(Triple::patterned("x", vec![DimPattern::point(SymExpr::constant(3))]));
        assert!(d.reads.is_empty(), "read of x[3] is covered by write of x[1..10]");
        // A symbolic point is NOT provably inside the write range.
        d.add_read(Triple::patterned("x", vec![DimPattern::point(nm("k"))]));
        assert_eq!(d.reads.len(), 1, "x[k] stays live: containment unprovable");
    }

    #[test]
    fn then_respects_sequencing() {
        let mut first = Descriptor::new();
        first.add_write(Triple::whole("t"));
        let mut second = Descriptor::new();
        second.add_read(Triple::whole("t"));
        second.add_read(Triple::whole("u"));
        first.then(second);
        assert_eq!(first.reads.len(), 1, "read of t killed by earlier write");
        assert_eq!(&*first.reads[0].block, "u");
    }

    #[test]
    fn union_keeps_both_branch_reads() {
        let mut a = Descriptor::new();
        a.add_write(Triple::whole("t"));
        let mut b = Descriptor::new();
        b.add_read(Triple::whole("t"));
        a.union(b);
        assert_eq!(a.reads.len(), 1, "union does not filter by domination");
    }

    #[test]
    fn promote_produces_whole_loop_descriptor() {
        // Iteration descriptor: write q[i0, col] under guard mask[col]<>0.
        use crate::guard::{Guard, MaskRel, MaskTest};
        let mut iter_d = Descriptor::new();
        iter_d.add_write(
            Triple::patterned("q", vec![DimPattern::range(whole()), DimPattern::point(nm("col"))])
                .guarded(&Guard::mask(MaskTest::new("mask", nm("col"), MaskRel::NeConst(0)))),
        );
        let loop_d = iter_d.promote("col", &whole());
        let w = &loop_d.writes[0];
        let dims = w.pattern.as_ref().unwrap();
        assert_eq!(dims[1].mask, Some(("mask".into(), MaskRel::NeConst(0))));
        assert!(w.guard.is_truth());
    }

    #[test]
    fn independence_of_loop_iterations_via_subst() {
        // write q[i, 1..10]; the descriptor with i := i' (different
        // symbol) must still appear to overlap (conservative), but with
        // i := i+1 the write rows are provably different points.
        let d = Descriptor {
            reads: vec![],
            writes: vec![Triple::patterned(
                "q",
                vec![DimPattern::point(nm("i")), DimPattern::range(whole())],
            )],
        };
        let shifted = d.subst("i", &nm("i").offset(1));
        assert!(!d.interferes(&shifted), "rows i and i+1 are distinct");
        let other_sym = d.subst("i", &nm("j"));
        assert!(d.interferes(&other_sym), "i vs j may coincide");
    }

    #[test]
    fn without_block_drops_scalar() {
        let mut d = Descriptor::new();
        d.add_write(Triple::scalar("i"));
        d.add_write(Triple::whole("x"));
        let d2 = d.without_block("i");
        assert_eq!(d2.writes.len(), 1);
        assert_eq!(d2.blocks(), vec!["x"]);
    }

    #[test]
    fn empty_descriptors_never_interfere() {
        let e = Descriptor::new();
        let (dg, _) = figure4();
        assert!(!e.interferes(&dg));
        assert!(e.is_empty());
    }
}
