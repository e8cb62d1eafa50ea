//! Static single-assignment construction (step 3 of the paper's
//! analysis), after Cytron, Ferrante, Rosen, Wegman & Zadeck.
//!
//! Only *scalar* variables are renamed; arrays are memory and are handled
//! by descriptors and the aggregate-propagation pass. SSA names are
//! spelled `base#version` and stored back into the expression trees, so
//! every later pass can keep using the `orchestra-lang` `Expr` type.

use crate::cfg::{Cfg, SimpleStmt, Terminator};
use crate::dom::{DomTree, UNREACHABLE};
use orchestra_lang::ast::{Expr, LValue, Name};
use std::collections::{BTreeSet, HashMap};

/// A φ node placed at a block head.
#[derive(Debug, Clone, PartialEq)]
pub struct Phi {
    /// Source variable name.
    pub var: Name,
    /// SSA name defined by this φ.
    pub dest: Name,
    /// One `(predecessor block, SSA name)` pair per incoming edge.
    pub args: Vec<(usize, Name)>,
}

/// The result of SSA conversion.
#[derive(Debug, Clone)]
pub struct SsaProgram {
    /// The CFG with every scalar reference renamed to `base#version`.
    pub cfg: Cfg,
    /// φ nodes per block.
    pub phis: Vec<Vec<Phi>>,
    /// Dominator tree used during construction.
    pub dom: DomTree,
    /// Defining block of each SSA name (φ or assignment).
    pub def_block: HashMap<Name, usize>,
    /// The scalar variables that were renamed.
    pub scalars: BTreeSet<Name>,
}

/// Splits an SSA name into `(base, version)`.
///
/// Returns `None` for names that are not in SSA form.
pub(crate) fn split_ssa_name(name: &str) -> Option<(&str, u32)> {
    let (base, ver) = name.rsplit_once('#')?;
    ver.parse().ok().map(|v| (base, v))
}

/// Builds the SSA name for `(base, version)`.
pub(crate) fn ssa_name(base: &str, version: u32) -> Name {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    let mut v = version;
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let digits = std::str::from_utf8(&digits[at..]).expect("ASCII digits");
    Name::concat(&[base, "#", digits])
}

/// Converts a CFG to SSA form, renaming the given scalar variables.
///
/// Any scalar used before being assigned refers to `base#0`, the
/// implicit entry definition.
pub(crate) fn to_ssa(mut cfg: Cfg, scalar_names: &BTreeSet<Name>) -> SsaProgram {
    cfg.compute_preds();
    let dom = DomTree::compute(&cfg);
    let n = cfg.len();
    // Scalars by index, in name order; every table below is indexed so.
    let scalars: Vec<&Name> = scalar_names.iter().collect();
    let index = |v: &str| scalars.binary_search_by(|s| s.as_str().cmp(v)).ok();

    // Blocks assigning each variable, ascending; the entry holds the
    // implicit initial definition (version 0).
    let mut def_sites: Vec<Vec<usize>> = vec![vec![cfg.entry]; scalars.len()];
    for (bi, b) in cfg.blocks.iter().enumerate() {
        for s in &b.stmts {
            if let SimpleStmt::Assign { target: LValue::Var(v), .. } = s {
                if let Some(k) = index(v) {
                    if def_sites[k].last() != Some(&bi) {
                        def_sites[k].push(bi);
                    }
                }
            }
        }
    }

    // φ insertion via iterated dominance frontiers.
    let mut phis: Vec<Vec<Phi>> = vec![Vec::new(); n];
    let (mut has_phi, mut ever) = (vec![false; n], vec![false; n]);
    for (var, sites) in scalars.iter().zip(def_sites) {
        has_phi.fill(false);
        ever.fill(false);
        sites.iter().for_each(|&b| ever[b] = true);
        let mut work = sites;
        while let Some(b) = work.pop() {
            if dom.idom[b] == UNREACHABLE {
                continue;
            }
            for &f in dom.frontier(b) {
                if !has_phi[f] {
                    has_phi[f] = true;
                    // `dest` is named when renaming reaches block `f`.
                    let var = (*var).clone();
                    phis[f].push(Phi { var: var.clone(), dest: var, args: Vec::new() });
                    if !ever[f] {
                        ever[f] = true;
                        work.push(f);
                    }
                }
            }
        }
    }

    // Renaming. Version 0 is the implicit entry definition; every
    // assignment and φ defines one more name.
    let defs = phis.iter().map(Vec::len).sum::<usize>()
        + cfg.blocks.iter().map(|b| b.stmts.len()).sum::<usize>();
    let mut def_block = HashMap::with_capacity(scalars.len() + defs);
    let stacks = scalars
        .iter()
        .map(|v| {
            let entry_def = ssa_name(v, 0);
            def_block.insert(entry_def.clone(), cfg.entry);
            let mut stack = Vec::with_capacity(4);
            stack.push(entry_def);
            stack
        })
        .collect();
    let mut renamer = Renamer {
        scalars: &scalars,
        counters: vec![0; scalars.len()],
        stacks,
        pushed: Vec::new(),
        def_block,
    };
    rename_block(cfg.entry, &mut cfg, &mut phis, &dom, &mut renamer);

    SsaProgram { cfg, phis, dom, def_block: renamer.def_block, scalars: scalar_names.clone() }
}

/// Renaming state, indexed by scalar.
struct Renamer<'a> {
    /// The renamed scalars, in name order.
    scalars: &'a [&'a Name],
    /// The last version given out.
    counters: Vec<u32>,
    /// The versions in scope, innermost last.
    stacks: Vec<Vec<Name>>,
    /// The scalars whose stacks the blocks on the dominator path pushed,
    /// in push order.
    pushed: Vec<usize>,
    def_block: HashMap<Name, usize>,
}

impl Renamer<'_> {
    /// The index of `var` when it is renamed.
    fn index(&self, var: &str) -> Option<usize> {
        self.scalars.binary_search_by(|s| s.as_str().cmp(var)).ok()
    }

    /// A new version of scalar `k`, pushed on its stack.
    fn fresh(&mut self, k: usize, block: usize) -> Name {
        self.counters[k] += 1;
        let name = ssa_name(self.scalars[k], self.counters[k]);
        self.stacks[k].push(name.clone());
        self.pushed.push(k);
        self.def_block.insert(name.clone(), block);
        name
    }

    fn top(&self, k: usize) -> Name {
        self.stacks[k].last().cloned().unwrap_or_else(|| ssa_name(self.scalars[k], 0))
    }

    /// Renames every scalar use in `e` to the version on top of its stack.
    fn rename_expr(&self, e: &mut Expr) {
        match e {
            Expr::IntLit(_) | Expr::FloatLit(_) => {}
            Expr::Var(v) => {
                if let Some(k) = self.index(v) {
                    *v = self.top(k);
                }
            }
            Expr::Index(_, args) | Expr::Call(_, args) => {
                args.iter_mut().for_each(|a| self.rename_expr(a));
            }
            Expr::Bin(_, l, rr) => {
                self.rename_expr(l);
                self.rename_expr(rr);
            }
            Expr::Un(_, inner) => self.rename_expr(inner),
        }
    }
}

fn rename_block(b: usize, cfg: &mut Cfg, phis: &mut [Vec<Phi>], dom: &DomTree, r: &mut Renamer) {
    let mark = r.pushed.len();

    // φ destinations first.
    for phi in &mut phis[b] {
        let k = r.index(&phi.var).expect("a φ is placed for a renamed scalar");
        phi.dest = r.fresh(k, b);
    }

    // Statements: uses are renamed with the stacks as of that point,
    // then the definition pushes a fresh version.
    for s in &mut cfg.blocks[b].stmts {
        match s {
            SimpleStmt::Assign { target, value } => {
                r.rename_expr(value);
                match target {
                    LValue::Var(v) => {
                        if let Some(k) = r.index(v) {
                            *v = r.fresh(k, b);
                        }
                    }
                    LValue::Index(_, idx) => idx.iter_mut().for_each(|i| r.rename_expr(i)),
                }
            }
            SimpleStmt::Call { args, .. } => args.iter_mut().for_each(|a| r.rename_expr(a)),
        }
    }

    if let Terminator::Branch { cond, .. } = &mut cfg.blocks[b].term {
        r.rename_expr(cond);
    }

    // Fill φ arguments in successors.
    for s in cfg.blocks[b].term.successors() {
        for phi in &mut phis[s] {
            let k = r.index(&phi.var).expect("a φ is placed for a renamed scalar");
            phi.args.push((b, r.top(k)));
        }
    }

    // Recurse into dominator-tree children.
    for &c in dom.children(b) {
        rename_block(c, cfg, phis, dom, r);
    }

    // Pop what this block pushed.
    for k in r.pushed.drain(mark..) {
        r.stacks[k].pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_lang::parse_program;

    fn ssa_of(src: &str) -> SsaProgram {
        let p = parse_program(src).unwrap();
        to_ssa(Cfg::from_stmts(&p.body), &crate::collect_scalars(&p))
    }

    #[test]
    fn straight_line_versions_increment() {
        let ssa = ssa_of("program p\n integer a\n a = 1\n a = 2\nend");
        let b0 = &ssa.cfg.blocks[0];
        let SimpleStmt::Assign { target: LValue::Var(n1), .. } = &b0.stmts[0] else { panic!() };
        let SimpleStmt::Assign { target: LValue::Var(n2), .. } = &b0.stmts[1] else { panic!() };
        assert_eq!(split_ssa_name(n1), Some(("a", 1)));
        assert_eq!(split_ssa_name(n2), Some(("a", 2)));
    }

    #[test]
    fn use_sees_most_recent_def() {
        let ssa = ssa_of("program p\n integer a, b\n a = 1\n b = a + 1\n a = b\nend");
        let b0 = &ssa.cfg.blocks[0];
        let SimpleStmt::Assign { value, .. } = &b0.stmts[1] else { panic!() };
        let Expr::Bin(_, l, _) = value else { panic!() };
        assert_eq!(**l, Expr::Var("a#1".into()));
    }

    #[test]
    fn if_join_gets_phi() {
        let ssa =
            ssa_of("program p\n integer a, b\n if (a = 0) { b = 1 } else { b = 2 }\n a = b\nend");
        let join = ssa
            .phis
            .iter()
            .enumerate()
            .find(|(_, p)| p.iter().any(|phi| phi.var == "b"))
            .map(|(i, _)| i)
            .expect("phi for b");
        let phi = ssa.phis[join].iter().find(|p| p.var == "b").unwrap();
        assert_eq!(phi.args.len(), 2);
        let mut versions: Vec<_> =
            phi.args.iter().map(|(_, n)| split_ssa_name(n).unwrap().1).collect();
        versions.sort();
        assert_eq!(versions, vec![1, 2]);
    }

    #[test]
    fn loop_header_phi_for_induction_var() {
        let ssa =
            ssa_of("program p\n integer n = 3\n integer x[1..n]\n do i = 1, n { x[i] = i }\nend");
        let header = ssa.cfg.loops[0].header;
        let phi = ssa.phis[header].iter().find(|p| p.var == "i").expect("phi for i");
        assert_eq!(phi.args.len(), 2, "preheader + back edge");
        // One arg is the preheader's i#1 (= lo), the other the increment's def.
        let pre = ssa.cfg.loops[0].preheader;
        let inc = ssa.cfg.loops[0].increment;
        assert!(phi.args.iter().any(|(b, _)| *b == pre));
        assert!(phi.args.iter().any(|(b, _)| *b == inc));
    }

    #[test]
    fn reduction_gets_phi_in_header() {
        let ssa = ssa_of("program p\n integer n = 3, s\n do i = 1, n { s = s + i }\nend");
        let header = ssa.cfg.loops[0].header;
        assert!(ssa.phis[header].iter().any(|p| p.var == "s"));
    }

    #[test]
    fn arrays_are_not_renamed() {
        let ssa =
            ssa_of("program p\n integer n = 3\n integer x[1..n]\n do i = 1, n { x[i] = i }\nend");
        for b in &ssa.cfg.blocks {
            for s in &b.stmts {
                if let SimpleStmt::Assign { target: LValue::Index(a, _), .. } = s {
                    assert_eq!(a, "x", "array names must stay untouched");
                }
            }
        }
    }

    #[test]
    fn def_block_recorded() {
        let ssa = ssa_of("program p\n integer a\n a = 1\nend");
        assert_eq!(ssa.def_block.get("a#1"), Some(&0));
        assert_eq!(ssa.def_block.get("a#0"), Some(&ssa.cfg.entry));
    }

    #[test]
    fn uninitialized_use_is_version_zero() {
        let ssa = ssa_of("program p\n integer a, b\n b = a\nend");
        let SimpleStmt::Assign { value, .. } = &ssa.cfg.blocks[0].stmts[0] else { panic!() };
        assert_eq!(*value, Expr::Var("a#0".into()));
    }

    #[test]
    fn nested_loops_rename_consistently() {
        let ssa = ssa_of(
            "program p\n integer n = 2\n integer a[1..n, 1..n]\n do i = 1, n { do j = 1, n { a[i, j] = i + j } }\nend",
        );
        // Every use of i inside the inner loop must refer to the outer
        // header φ (the only live def at that point).
        let outer_header = ssa.cfg.loops.iter().find(|l| l.var == "i").unwrap().header;
        let phi_i = ssa.phis[outer_header].iter().find(|p| p.var == "i").unwrap();
        let mut seen = false;
        for b in &ssa.cfg.blocks {
            for s in &b.stmts {
                if let SimpleStmt::Assign { target: LValue::Index(_, idx), .. } = s {
                    if let Expr::Var(n) = &idx[0] {
                        assert_eq!(n, &phi_i.dest);
                        seen = true;
                    }
                }
            }
        }
        assert!(seen);
    }

    #[test]
    fn ssa_name_round_trip() {
        assert_eq!(split_ssa_name(&ssa_name("col", 7)), Some(("col", 7)));
        assert_eq!(split_ssa_name("plain"), None);
    }
}
