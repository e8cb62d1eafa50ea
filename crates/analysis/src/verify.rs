//! SSA well-formedness verification.
//!
//! Checks the invariants the rest of the pipeline relies on:
//!
//! 1. **single assignment** — every SSA name is defined exactly once
//!    (by a φ or an assignment);
//! 2. **dominance** — every use of a name is dominated by its
//!    definition (uses in φ arguments are checked against the
//!    corresponding predecessor block);
//! 3. **φ shape** — each φ has exactly one argument per predecessor of
//!    its block.
//!
//! Used by tests and available as a debugging aid for pass authors.

use crate::cfg::{SimpleStmt, Terminator};
use crate::ssa::{split_ssa_name, SsaProgram};
use orchestra_lang::ast::{Expr, LValue, Name};
use std::collections::{BTreeSet, HashMap};

/// A violation of the SSA invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SsaViolation {
    /// A name is assigned more than once.
    MultipleDefinitions {
        /// The offending SSA name.
        name: Name,
    },
    /// A use is not dominated by its definition.
    UseNotDominated {
        /// The offending SSA name.
        name: Name,
        /// The block containing the use.
        use_block: usize,
    },
    /// A φ's argument count differs from its block's predecessor count.
    PhiArityMismatch {
        /// The φ's destination name.
        dest: Name,
        /// Block holding the φ.
        block: usize,
    },
    /// A φ argument names a block that is not a predecessor.
    PhiBadPredecessor {
        /// The φ's destination name.
        dest: Name,
        /// The claimed predecessor.
        pred: usize,
    },
}

impl std::fmt::Display for SsaViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SsaViolation::MultipleDefinitions { name } => {
                write!(f, "`{name}` defined more than once")
            }
            SsaViolation::UseNotDominated { name, use_block } => {
                write!(f, "use of `{name}` in B{use_block} not dominated by its definition")
            }
            SsaViolation::PhiArityMismatch { dest, block } => {
                write!(f, "φ `{dest}` in B{block} has wrong arity")
            }
            SsaViolation::PhiBadPredecessor { dest, pred } => {
                write!(f, "φ `{dest}` names non-predecessor B{pred}")
            }
        }
    }
}

/// Verifies all SSA invariants; returns every violation found.
pub fn verify_ssa(ssa: &SsaProgram) -> Vec<SsaViolation> {
    let mut violations = Vec::new();
    let mut def_block: HashMap<&str, usize> = HashMap::new();
    let mut seen: BTreeSet<&str> = BTreeSet::new();

    // Pass 1: collect definitions, flag duplicates. (Version-0 names
    // are implicit entry definitions and handled in the dominance
    // check directly.)
    for (bi, block) in ssa.cfg.blocks.iter().enumerate() {
        for phi in &ssa.phis[bi] {
            if !seen.insert(&phi.dest) {
                violations.push(SsaViolation::MultipleDefinitions { name: phi.dest.clone() });
            }
            def_block.insert(&phi.dest, bi);
        }
        for s in &block.stmts {
            if let SimpleStmt::Assign { target: LValue::Var(name), .. } = s {
                if split_ssa_name(name).is_some() {
                    if !seen.insert(name) {
                        violations.push(SsaViolation::MultipleDefinitions { name: name.clone() });
                    }
                    def_block.insert(name, bi);
                }
            }
        }
    }

    // Pass 2: φ shape.
    for (bi, phis) in ssa.phis.iter().enumerate() {
        let preds = &ssa.cfg.blocks[bi].preds;
        for phi in phis {
            if phi.args.len() != preds.len() {
                violations
                    .push(SsaViolation::PhiArityMismatch { dest: phi.dest.clone(), block: bi });
            }
            for (pred, _) in &phi.args {
                if !preds.contains(pred) {
                    violations.push(SsaViolation::PhiBadPredecessor {
                        dest: phi.dest.clone(),
                        pred: *pred,
                    });
                }
            }
        }
    }

    // Pass 3: dominance of uses. Version-0 names are entry-defined.
    let dominated = |name: &str, use_block: usize| -> bool {
        if let Some((_, 0)) = split_ssa_name(name) {
            return true; // implicit entry definition dominates everything
        }
        match def_block.get(name) {
            Some(&db) => ssa.dom.dominates(db, use_block),
            None => false,
        }
    };
    let check_expr = |e: &Expr, bi: usize, violations: &mut Vec<SsaViolation>| {
        e.walk(&mut |e| match e {
            Expr::Var(name) if split_ssa_name(name).is_some() && !dominated(name, bi) => {
                violations.push(SsaViolation::UseNotDominated { name: name.clone(), use_block: bi })
            }
            _ => {}
        });
    };
    for (bi, block) in ssa.cfg.blocks.iter().enumerate() {
        for s in &block.stmts {
            match s {
                SimpleStmt::Assign { target, value } => {
                    if let LValue::Index(_, idx) = target {
                        for e in idx {
                            check_expr(e, bi, &mut violations);
                        }
                    }
                    check_expr(value, bi, &mut violations);
                }
                SimpleStmt::Call { args, .. } => {
                    for a in args {
                        check_expr(a, bi, &mut violations);
                    }
                }
            }
        }
        if let Terminator::Branch { cond, .. } = &block.term {
            check_expr(cond, bi, &mut violations);
        }
        // φ arguments must be dominated at the *predecessor* end.
        for s in ssa.cfg.blocks[bi].term.successors() {
            for phi in &ssa.phis[s] {
                for (pred, arg) in &phi.args {
                    if *pred == bi && !dominated(arg, bi) {
                        violations.push(SsaViolation::UseNotDominated {
                            name: arg.clone(),
                            use_block: bi,
                        });
                    }
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::collect_scalars;
    use crate::ssa::to_ssa;
    use orchestra_lang::parse_program;

    fn ssa_of(src: &str) -> SsaProgram {
        let p = parse_program(src).unwrap();
        let scalars = collect_scalars(&p);
        to_ssa(Cfg::from_program(&p), &scalars)
    }

    #[test]
    fn straight_line_is_well_formed() {
        let ssa = ssa_of("program t\n integer a, b\n a = 1\n b = a + 1\nend");
        assert!(verify_ssa(&ssa).is_empty());
    }

    #[test]
    fn loops_and_branches_are_well_formed() {
        let ssa = ssa_of(
            "program t\n integer n = 6, s\n integer x[1..n]\n do i = 1, n { if (i = 3) { s = s + 1 } else { s = s + 2 }\n x[i] = s }\nend",
        );
        assert_eq!(verify_ssa(&ssa), vec![]);
    }

    #[test]
    fn figure1_is_well_formed() {
        let p = orchestra_lang::builder::figure1_program(8);
        let scalars = collect_scalars(&p);
        let ssa = to_ssa(Cfg::from_program(&p), &scalars);
        assert_eq!(verify_ssa(&ssa), vec![]);
    }

    #[test]
    fn detects_duplicate_definition() {
        let mut ssa = ssa_of("program t\n integer a\n a = 1\nend");
        // Corrupt: duplicate the defining statement.
        let stmt = ssa.cfg.blocks[0]
            .stmts
            .iter()
            .find(|s| matches!(s, SimpleStmt::Assign { target: LValue::Var(_), .. }))
            .cloned()
            .expect("assignment exists");
        ssa.cfg.blocks[0].stmts.push(stmt);
        let v = verify_ssa(&ssa);
        assert!(v.iter().any(|x| matches!(x, SsaViolation::MultipleDefinitions { .. })));
    }

    #[test]
    fn detects_phi_arity_mismatch() {
        let mut ssa =
            ssa_of("program t\n integer a, b\n if (a = 0) { b = 1 } else { b = 2 }\n a = b\nend");
        // Corrupt: drop one φ argument.
        for phis in ssa.phis.iter_mut() {
            for phi in phis.iter_mut() {
                if phi.var == "b" {
                    phi.args.pop();
                }
            }
        }
        let v = verify_ssa(&ssa);
        assert!(v.iter().any(|x| matches!(x, SsaViolation::PhiArityMismatch { .. })));
    }

    #[test]
    fn detects_use_not_dominated() {
        let mut ssa = ssa_of(
            "program t\n integer a, b, c\n if (a = 0) { b = 1 } else { b = 2 }\n c = b\nend",
        );
        // Corrupt: replace a use in the entry with a name defined in a branch.
        let branch_def = ssa
            .def_block
            .iter()
            .find(|(n, &b)| {
                b != ssa.cfg.entry && split_ssa_name(n).is_some_and(|(base, _)| base == "b")
            })
            .map(|(n, _)| n.clone())
            .expect("branch def of b exists");
        if let Terminator::Branch { cond, .. } = &mut ssa.cfg.blocks[0].term {
            *cond = Expr::Var(branch_def);
        }
        let v = verify_ssa(&ssa);
        assert!(v.iter().any(|x| matches!(x, SsaViolation::UseNotDominated { .. })));
    }

    #[test]
    fn violation_display_is_informative() {
        let v = SsaViolation::MultipleDefinitions { name: "x#3".into() };
        assert!(v.to_string().contains("x#3"));
    }
}
