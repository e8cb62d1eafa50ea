//! Guard expressions for symbolic data descriptors.
//!
//! Each access triple `<G> B[P]` carries an optional guard `G`: "the
//! access represented by the triple is known not to occur if the guard is
//! proven false" (§3.2). Guards are conjunctions of two kinds of atoms:
//!
//! * **mask tests** over array elements with symbolic indices, e.g.
//!   `mask[col] <> 0` — the form the paper's Figure 1/2/3 examples use;
//! * **linear inequalities** over unresolved scalars, e.g. `i <= a - 1`.
//!
//! The key operation is `Guard::contradicts`: two guards that provably
//! cannot hold together make their triples disjoint.

use orchestra_analysis::symbolic::{Assertion, Ineq, Name, SymExpr};
use std::fmt;

/// The relation of a mask test: comparison of an array element against
/// an integer constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaskRel {
    /// `array[idx] = c`
    EqConst(i64),
    /// `array[idx] <> c`
    NeConst(i64),
}

impl MaskRel {
    /// The logical negation.
    pub fn negate(self) -> MaskRel {
        match self {
            MaskRel::EqConst(c) => MaskRel::NeConst(c),
            MaskRel::NeConst(c) => MaskRel::EqConst(c),
        }
    }

    /// True when `self` and `other` can never hold of the same element.
    pub fn complementary(self, other: MaskRel) -> bool {
        match (self, other) {
            (MaskRel::EqConst(a), MaskRel::NeConst(b))
            | (MaskRel::NeConst(a), MaskRel::EqConst(b)) => a == b,
            (MaskRel::EqConst(a), MaskRel::EqConst(b)) => a != b,
            (MaskRel::NeConst(_), MaskRel::NeConst(_)) => false,
        }
    }
}

impl fmt::Display for MaskRel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaskRel::EqConst(c) => write!(f, "= {c}"),
            MaskRel::NeConst(c) => write!(f, "<> {c}"),
        }
    }
}

/// A test of one element of a mask array: `array[index] REL`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MaskTest {
    /// The mask array name.
    pub array: Name,
    /// Symbolic index of the tested element.
    pub index: SymExpr,
    /// The relation.
    pub rel: MaskRel,
}

impl MaskTest {
    /// Creates a mask test.
    pub fn new(array: impl Into<Name>, index: SymExpr, rel: MaskRel) -> Self {
        MaskTest { array: array.into(), index, rel }
    }

    /// True when the two tests provably contradict: same array, provably
    /// equal index, complementary relations.
    pub(crate) fn contradicts(&self, other: &MaskTest) -> bool {
        self.array == other.array
            && self.index.eq_expr(&other.index) == Some(true)
            && self.rel.complementary(other.rel)
    }
}

impl fmt::Display for MaskTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] {}", self.array, self.index, self.rel)
    }
}

/// One atom of a guard conjunction.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardAtom {
    /// An array-element mask test.
    Mask(MaskTest),
    /// A linear inequality over unresolved scalars.
    Linear(Ineq),
}

impl GuardAtom {
    pub(crate) fn mentions(&self, name: &str) -> bool {
        match self {
            GuardAtom::Mask(m) => m.index.mentions(name),
            GuardAtom::Linear(i) => i.expr.mentions(name),
        }
    }
}

impl fmt::Display for GuardAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardAtom::Mask(m) => write!(f, "{m}"),
            GuardAtom::Linear(i) => write!(f, "{i}"),
        }
    }
}

/// A conjunction of guard atoms; empty means *true* (unguarded).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Guard {
    /// The conjuncts.
    pub atoms: Vec<GuardAtom>,
}

impl Guard {
    /// The trivially-true guard.
    pub fn truth() -> Self {
        Guard::default()
    }

    /// A single mask-test guard.
    pub fn mask(test: MaskTest) -> Self {
        Guard { atoms: vec![GuardAtom::Mask(test)] }
    }

    /// A single linear-inequality guard.
    pub fn linear(ineq: Ineq) -> Self {
        Guard { atoms: vec![GuardAtom::Linear(ineq)] }
    }

    /// True when the guard has no atoms.
    pub fn is_truth(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Conjunction of two guards.
    pub fn and(mut self, other: &Guard) -> Guard {
        for a in &other.atoms {
            if !self.atoms.contains(a) {
                self.atoms.push(a.clone());
            }
        }
        self
    }

    /// Substitutes a symbol in every atom (used when shifting a loop
    /// descriptor from iteration `i` to `i-1` for pipelining).
    pub fn subst(&self, name: &str, repl: &SymExpr) -> Guard {
        Guard {
            atoms: self
                .atoms
                .iter()
                .map(|a| match a {
                    GuardAtom::Mask(m) => GuardAtom::Mask(MaskTest {
                        array: m.array.clone(),
                        index: m.index.subst(name, repl),
                        rel: m.rel,
                    }),
                    GuardAtom::Linear(i) => GuardAtom::Linear(i.subst(name, repl)),
                })
                .collect(),
        }
    }

    /// True when any atom of `self` provably contradicts an atom of
    /// `other` (or an atom set is internally contradictory), meaning the
    /// two guarded accesses can never both occur.
    pub(crate) fn contradicts(&self, other: &Guard) -> bool {
        // Mask-test contradictions.
        for a in &self.atoms {
            for b in &other.atoms {
                if let (GuardAtom::Mask(m1), GuardAtom::Mask(m2)) = (a, b) {
                    if m1.contradicts(m2) {
                        return true;
                    }
                }
            }
        }
        // Linear contradictions via assertion machinery; without a
        // linear atom on either side there is nothing to refute.
        let linear = |a: &GuardAtom| matches!(a, GuardAtom::Linear(_));
        if !self.atoms.iter().chain(&other.atoms).any(linear) {
            return false;
        }
        let lin = |g: &Guard| -> Assertion {
            let mut acc = Assertion::truth();
            for a in &g.atoms {
                if let GuardAtom::Linear(i) = a {
                    acc = acc.and(&Assertion::atom(i.clone()));
                }
            }
            acc
        };
        lin(self).and(&lin(other)).contradictory()
    }

    /// The mask tests whose index is exactly the given symbol — used by
    /// induction-variable promotion to turn a guard into a dimension mask.
    pub(crate) fn mask_tests_on<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a MaskTest> {
        self.atoms.iter().filter_map(move |a| match a {
            GuardAtom::Mask(m) if m.index.as_name() == Some(name) => Some(m),
            _ => None,
        })
    }

    /// Whether any atom mentions `name`.
    pub fn mentions(&self, name: &str) -> bool {
        self.atoms.iter().any(|a| a.mentions(name))
    }

    /// Removes atoms that mention `name` (widening; sound for guards).
    pub(crate) fn drop_mentions(&self, name: &str) -> Guard {
        Guard { atoms: self.atoms.iter().filter(|a| !a.mentions(name)).cloned().collect() }
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_truth() {
            return write!(f, "true");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(name: &str) -> SymExpr {
        SymExpr::name(name)
    }

    #[test]
    fn mask_rel_complementarity() {
        assert!(MaskRel::EqConst(0).complementary(MaskRel::NeConst(0)));
        assert!(MaskRel::EqConst(0).complementary(MaskRel::EqConst(1)));
        assert!(!MaskRel::NeConst(0).complementary(MaskRel::NeConst(1)));
        assert!(!MaskRel::EqConst(0).complementary(MaskRel::NeConst(1)));
    }

    #[test]
    fn mask_test_contradiction_requires_equal_index() {
        let a = MaskTest::new("mask", idx("col"), MaskRel::NeConst(0));
        let b = MaskTest::new("mask", idx("col"), MaskRel::EqConst(0));
        assert!(a.contradicts(&b));
        let c = MaskTest::new("mask", idx("row"), MaskRel::EqConst(0));
        assert!(!a.contradicts(&c), "indices not provably equal");
        let d = MaskTest::new("miss", idx("col"), MaskRel::EqConst(0));
        assert!(!a.contradicts(&d), "different arrays");
    }

    #[test]
    fn guard_contradiction_via_masks() {
        let g1 = Guard::mask(MaskTest::new("m", idx("i"), MaskRel::NeConst(0)));
        let g2 = Guard::mask(MaskTest::new("m", idx("i"), MaskRel::EqConst(0)));
        assert!(g1.contradicts(&g2));
        assert!(!g1.contradicts(&Guard::truth()));
    }

    #[test]
    fn guard_contradiction_via_linear() {
        // i = a  vs  i <= a - 1
        let i = idx("i");
        let a = idx("a");
        let g1 = Guard::linear(Ineq::eq(&i, &a));
        let g2 = Guard::linear(Ineq::le(&i, &a.offset(-1)));
        assert!(g1.contradicts(&g2));
    }

    #[test]
    fn subst_shifts_mask_index() {
        let g = Guard::mask(MaskTest::new("m", idx("i"), MaskRel::NeConst(0)));
        let shifted = g.subst("i", &idx("i").offset(-1));
        let GuardAtom::Mask(m) = &shifted.atoms[0] else { panic!() };
        assert_eq!(m.index, idx("i").offset(-1));
    }

    #[test]
    fn and_dedups() {
        let g = Guard::mask(MaskTest::new("m", idx("i"), MaskRel::NeConst(0)));
        let both = g.clone().and(&g);
        assert_eq!(both.atoms.len(), 1);
    }

    #[test]
    fn mask_tests_on_picks_exact_symbol() {
        let g = Guard {
            atoms: vec![
                GuardAtom::Mask(MaskTest::new("m", idx("i"), MaskRel::NeConst(0))),
                GuardAtom::Mask(MaskTest::new("m", idx("i").offset(1), MaskRel::NeConst(0))),
            ],
        };
        assert_eq!(g.mask_tests_on("i").count(), 1);
    }

    #[test]
    fn drop_mentions_removes_dependent_atoms() {
        let g = Guard {
            atoms: vec![
                GuardAtom::Mask(MaskTest::new("m", idx("i"), MaskRel::NeConst(0))),
                GuardAtom::Linear(Ineq::le(&idx("a"), &SymExpr::constant(5))),
            ],
        };
        let d = g.drop_mentions("i");
        assert_eq!(d.atoms.len(), 1);
        assert!(matches!(d.atoms[0], GuardAtom::Linear(_)));
    }

    #[test]
    fn display_forms() {
        let g = Guard::mask(MaskTest::new("mask", idx("col"), MaskRel::NeConst(0)));
        assert_eq!(g.to_string(), "mask[col] <> 0");
        assert_eq!(Guard::truth().to_string(), "true");
    }
}
