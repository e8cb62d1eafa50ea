//! Interference categorization (§3.3.1).
//!
//! Split assigns each primitive computation of `C` to a memory-usage
//! category with respect to a descriptor `D`:
//!
//! * **Bound** — interferes with `D` directly;
//! * **Linked** — interferes with `D` only transitively;
//! * **Free** — interferes neither directly nor transitively.
//!
//! Linked computations are refined using (asymmetric) *flow*
//! interference:
//!
//! * **NeedsBound** — has a transitive flow interference *from* Bound;
//! * **GenerateLinked** — Bound ∪ NeedsBound has a transitive flow
//!   interference *from* it;
//! * **ReadLinked** — the rest.

use crate::prim::Prim;
use orchestra_descriptors::Descriptor;

/// The categorization of a computation's primitives against a
/// descriptor, as index sets into the primitive list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Categories {
    /// Primitives interfering with `D` directly.
    pub bound: Vec<usize>,
    /// Linked primitives needing values Bound computes.
    pub needs_bound: Vec<usize>,
    /// Linked primitives producing values Bound/NeedsBound consume.
    pub generate_linked: Vec<usize>,
    /// Linked primitives that only read shared state.
    pub read_linked: Vec<usize>,
    /// Primitives free of any interference with `D`.
    pub free: Vec<usize>,
}

impl Categories {
    /// All Linked members (union of the three refinements).
    pub fn linked(&self) -> Vec<usize> {
        let mut v = self.needs_bound.clone();
        v.extend(&self.generate_linked);
        v.extend(&self.read_linked);
        v.sort_unstable();
        v
    }

    /// The category name of a primitive, for reports.
    pub fn category_of(&self, id: usize) -> &'static str {
        if self.bound.contains(&id) {
            "Bound"
        } else if self.needs_bound.contains(&id) {
            "NeedsBound"
        } else if self.generate_linked.contains(&id) {
            "GenerateLinked"
        } else if self.read_linked.contains(&id) {
            "ReadLinked"
        } else if self.free.contains(&id) {
            "Free"
        } else {
            "Unknown"
        }
    }
}

/// Computes the transitive-interference closure (the paper's
/// `transitive_interfere`): returns the members of `initial` that
/// transitively interfere with `target`, removing them from `initial`.
///
/// The fixpoint iterates at most `n` times; each round either moves a
/// primitive into the result or terminates, giving the paper's `O(n²)`
/// bound on interference tests.
pub fn transitive_interfere(
    initial: &mut Vec<usize>,
    target: &[usize],
    prims: &[Prim],
) -> Vec<usize> {
    closure(initial, target, prims, |a, b| a.interferes(b))
}

/// Transitive *flow* closure upward: members of `initial` that
/// transitively have a flow interference **from** `target` (they consume
/// values `target` produces, possibly through other members of
/// `initial`).
pub fn transitive_flow_up(
    initial: &mut Vec<usize>,
    target: &[usize],
    prims: &[Prim],
) -> Vec<usize> {
    // member m is reached if m reads what t writes: m.flow_from(t)
    closure(initial, target, prims, |member, t| member.flow_interferes_from(t))
}

/// Transitive flow closure downward: members of `initial` from which
/// `target` transitively has a flow interference (they produce values
/// `target` consumes).
pub fn transitive_flow_down(
    initial: &mut Vec<usize>,
    target: &[usize],
    prims: &[Prim],
) -> Vec<usize> {
    closure(initial, target, prims, |member, t| t.flow_interferes_from(member))
}

/// Generic fixpoint: moves members of `initial` related (by `related`) to
/// the growing test set into the result.
fn closure(
    initial: &mut Vec<usize>,
    target: &[usize],
    prims: &[Prim],
    related: impl Fn(&Descriptor, &Descriptor) -> bool,
) -> Vec<usize> {
    let mut result = Vec::new();
    let mut test_set: Vec<usize> = target.to_vec();
    while !test_set.is_empty() {
        let mut new_found = Vec::new();
        initial.retain(|&c| {
            let hit = test_set.iter().any(|&t| related(&prims[c].descriptor, &prims[t].descriptor));
            if hit {
                result.push(c);
                new_found.push(c);
            }
            !hit
        });
        test_set = new_found;
    }
    result
}

/// Categorizes `C`'s primitives with respect to descriptor `d`,
/// following the paper's two algorithms verbatim.
pub fn categorize(prims: &[Prim], d: &Descriptor) -> Categories {
    let mut bound = Vec::new();
    let mut maybe_free = Vec::new();
    for p in prims {
        if p.descriptor.interferes(d) {
            bound.push(p.id);
        } else {
            maybe_free.push(p.id);
        }
    }
    let linked = transitive_interfere(&mut maybe_free, &bound, prims);
    let free = maybe_free;

    // Refinement of Linked.
    let mut unrestricted = linked;
    let needs_bound = transitive_flow_up(&mut unrestricted, &bound, prims);
    let mut down_targets = bound.clone();
    down_targets.extend(&needs_bound);
    let generate_linked = transitive_flow_down(&mut unrestricted, &down_targets, prims);
    let read_linked = unrestricted;

    Categories { bound, needs_bound, generate_linked, read_linked, free }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prim::primitives_of;
    use orchestra_descriptors::{descriptor_of_stmt, SymCtx};
    use orchestra_lang::parse_program;

    /// The paper's Figure 5 example, expressed in MF. Named
    /// computations (as loops so every one is a primitive):
    ///
    /// * `W` writes array X (the splitting reference descriptor)
    /// * `B` reads X, writes sum       → Bound
    /// * `A` writes Y (B reads Y)      → GenerateLinked
    /// * `C` reads Y, writes Z         → ReadLinked
    /// * `D` reads sum, writes R       → NeedsBound
    /// * `E` touches only V            → Free
    const FIGURE5: &str = r#"
program figure5
  integer n = 4
  float x[1..n], y[1..n], z[1..n], r[1..n], v[1..n], sum
  W: do i = 1, n { x[i] = 1.0 }
  A: do i = 1, n { y[i] = 2.0 }
  B: do i = 1, n { sum = sum + x[i] * y[i] }
  C: do i = 1, n { z[i] = y[i] }
  D: do i = 1, n { r[i] = sum }
  E: do i = 1, n { v[i] = 3.0 }
end
"#;

    /// Primitives borrow their statements: the program is leaked.
    fn figure5_setup() -> (Vec<Prim<'static>>, orchestra_descriptors::Descriptor) {
        let p = Box::leak(Box::new(parse_program(FIGURE5).unwrap()));
        let ctx = SymCtx::from_program(p);
        // Split T = {A..E} with respect to W's descriptor.
        let d_w = descriptor_of_stmt(&p.body[0], &ctx);
        let prims = primitives_of(&p.body[1..], &ctx);
        (prims, d_w)
    }

    fn names(prims: &[Prim], ids: &[usize]) -> Vec<String> {
        ids.iter().map(|&i| prims[i].name.clone()).collect()
    }

    #[test]
    fn figure5_categories_match_paper() {
        let (prims, d_w) = figure5_setup();
        let cats = categorize(&prims, &d_w);
        assert_eq!(names(&prims, &cats.bound), vec!["B"], "B reads X written by W");
        assert_eq!(names(&prims, &cats.generate_linked), vec!["A"], "A feeds B");
        assert_eq!(names(&prims, &cats.read_linked), vec!["C"], "C reads A's Y");
        assert_eq!(names(&prims, &cats.needs_bound), vec!["D"], "D reads B's sum");
        assert_eq!(names(&prims, &cats.free), vec!["E"]);
    }

    #[test]
    fn category_of_reports_names() {
        let (prims, d_w) = figure5_setup();
        let cats = categorize(&prims, &d_w);
        let by_name: std::collections::BTreeMap<String, &'static str> =
            prims.iter().map(|p| (p.name.clone(), cats.category_of(p.id))).collect();
        assert_eq!(by_name["B"], "Bound");
        assert_eq!(by_name["E"], "Free");
        assert_eq!(by_name["A"], "GenerateLinked");
        assert_eq!(by_name["C"], "ReadLinked");
        assert_eq!(by_name["D"], "NeedsBound");
    }

    #[test]
    fn everything_free_when_no_interference() {
        let p = parse_program(
            "program p\n integer n = 3\n float x[1..n], y[1..n]\n X: do i = 1, n { x[i] = 1.0 }\n Y: do i = 1, n { y[i] = 2.0 }\nend",
        )
        .unwrap();
        let ctx = SymCtx::from_program(&p);
        let d_x = descriptor_of_stmt(&p.body[0], &ctx);
        let prims = primitives_of(&p.body[1..], &ctx);
        let cats = categorize(&prims, &d_x);
        assert_eq!(cats.free.len(), 1);
        assert!(cats.bound.is_empty());
    }

    #[test]
    fn chain_of_linked_through_intermediates() {
        // W writes x; B reads x (Bound); M reads b-output, writes m;
        // N reads m → transitively linked through M.
        let p = parse_program(
            r#"
program p
  integer n = 3
  float x[1..n], bo[1..n], m[1..n], nn[1..n]
  W: do i = 1, n { x[i] = 1.0 }
  B: do i = 1, n { bo[i] = x[i] }
  M: do i = 1, n { m[i] = bo[i] }
  N: do i = 1, n { nn[i] = m[i] }
end
"#,
        )
        .unwrap();
        let ctx = SymCtx::from_program(&p);
        let d_w = descriptor_of_stmt(&p.body[0], &ctx);
        let prims = primitives_of(&p.body[1..], &ctx);
        let cats = categorize(&prims, &d_w);
        assert_eq!(names(&prims, &cats.bound), vec!["B"]);
        // M and N are NeedsBound: transitive flow from Bound via M.
        let mut nb = names(&prims, &cats.needs_bound);
        nb.sort();
        assert_eq!(nb, vec!["M", "N"]);
        assert!(cats.free.is_empty());
    }

    #[test]
    fn transitive_interfere_moves_and_removes() {
        let (prims, d_w) = figure5_setup();
        // Initial = everything except B; target = {B}.
        let b_id = prims.iter().find(|p| p.name == "B").unwrap().id;
        let mut initial: Vec<usize> = prims.iter().map(|p| p.id).filter(|&i| i != b_id).collect();
        let result = transitive_interfere(&mut initial, &[b_id], &prims);
        let mut got = names(&prims, &result);
        got.sort();
        // A (writes y read by B), C (reads y → interferes with A… via A),
        // D (reads sum written by B) — E stays out.
        assert_eq!(got, vec!["A", "C", "D"]);
        assert_eq!(names(&prims, &initial), vec!["E"]);
        let _ = d_w;
    }
}
