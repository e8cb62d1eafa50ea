//! Dead code elimination driven by the symbolic analysis.
//!
//! §3 of the paper notes the symbolic analysis "is also used to identify
//! independence and improve traditional optimizations like dead code
//! elimination". This pass removes:
//!
//! * assignments to scalars that are never subsequently read (backward
//!   liveness over the structured AST);
//! * loops and conditionals whose bodies become empty;
//! * conditional branches whose condition is decided by propagated
//!   symbolic values (`if (1 < 2)` after constant folding).
//!
//! Writes to arrays are always considered live (arrays are the
//! program's observable output in MF).

use crate::propagate::lin_expr;
use crate::symbolic::SymValue;
use orchestra_lang::ast::{Expr, LValue, Name, Program, Stmt};
use std::collections::{BTreeSet, HashMap};

/// Statistics from one DCE run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DceStats {
    /// Scalar assignments removed.
    pub assignments_removed: usize,
    /// Empty loops removed.
    pub loops_removed: usize,
    /// Conditionals folded to one branch.
    pub branches_folded: usize,
}

impl DceStats {
    /// Total number of eliminations.
    pub fn total(&self) -> usize {
        self.assignments_removed + self.loops_removed + self.branches_folded
    }
}

/// Runs dead code elimination on a program, returning the cleaned
/// program and what was removed. Iterates to a fixpoint.
pub fn eliminate_dead_code(prog: &Program) -> (Program, DceStats) {
    let mut out = prog.clone();
    let mut stats = DceStats::default();
    loop {
        let mut round = DceStats::default();
        // Constant-fold decidable branches first: this can make code
        // dead that liveness then removes.
        let values: HashMap<Name, SymValue> = out
            .decls
            .iter()
            .filter(|d| !d.is_array())
            .filter_map(|d| {
                d.init.as_ref().and_then(|e| e.as_int()).map(|v| (d.name.clone(), SymValue::int(v)))
            })
            .collect();
        out.body = fold_branches(&out.body, &values, &mut round);

        // Backward liveness: array writes and mask/bound reads keep
        // scalars alive.
        let mut live: BTreeSet<Name> = BTreeSet::new();
        out.body = sweep_stmts(&out.body, &mut live, &mut round);

        stats.assignments_removed += round.assignments_removed;
        stats.loops_removed += round.loops_removed;
        stats.branches_folded += round.branches_folded;
        if round.total() == 0 {
            return (out, stats);
        }
    }
}

/// Replaces decidable conditionals with the taken branch.
fn fold_branches(
    stmts: &[Stmt],
    values: &HashMap<Name, SymValue>,
    stats: &mut DceStats,
) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::If { cond, then_body, else_body } => {
                let decided = decide(cond, values);
                match decided {
                    Some(true) => {
                        stats.branches_folded += 1;
                        out.extend(fold_branches(then_body, values, stats));
                    }
                    Some(false) => {
                        stats.branches_folded += 1;
                        out.extend(fold_branches(else_body, values, stats));
                    }
                    None => out.push(Stmt::If {
                        cond: cond.clone(),
                        then_body: fold_branches(then_body, values, stats),
                        else_body: fold_branches(else_body, values, stats),
                    }),
                }
            }
            Stmt::Do { label, var, ranges, mask, body } => out.push(Stmt::Do {
                label: label.clone(),
                var: var.clone(),
                ranges: ranges.clone(),
                mask: mask.clone(),
                body: fold_branches(body, values, stats),
            }),
            other => out.push(other.clone()),
        }
    }
    out
}

/// Decides a branch condition from known symbolic values, when possible.
fn decide(cond: &Expr, values: &HashMap<Name, SymValue>) -> Option<bool> {
    use orchestra_lang::ast::BinOp;
    if let Expr::Bin(op, l, r) = cond {
        if op.is_comparison() {
            let (a, b) = (lin_expr(l, values)?, lin_expr(r, values)?);
            let d = a.sub(&b).as_constant()?;
            return Some(match op {
                BinOp::Eq => d == 0,
                BinOp::Ne => d != 0,
                BinOp::Lt => d < 0,
                BinOp::Le => d <= 0,
                BinOp::Gt => d > 0,
                BinOp::Ge => d >= 0,
                _ => return None,
            });
        }
    }
    None
}

/// Backward sweep removing dead scalar assignments and empty control
/// structure. `live` is the set of scalars live *after* the statements.
fn sweep_stmts(stmts: &[Stmt], live: &mut BTreeSet<Name>, stats: &mut DceStats) -> Vec<Stmt> {
    let mut kept_rev: Vec<Stmt> = Vec::with_capacity(stmts.len());
    for s in stmts.iter().rev() {
        match s {
            Stmt::Assign { target: LValue::Var(name), value } => {
                if live.contains(name) {
                    // The assignment redefines `name`: earlier defs are
                    // dead unless `value` itself reads the name.
                    live.remove(name);
                    value.scalar_reads(live);
                    kept_rev.push(s.clone());
                } else {
                    stats.assignments_removed += 1;
                }
            }
            Stmt::Assign { target: LValue::Index(_, idx), value } => {
                for e in idx {
                    e.scalar_reads(live);
                }
                value.scalar_reads(live);
                kept_rev.push(s.clone());
            }
            Stmt::Call { args, .. } => {
                for a in args {
                    a.scalar_reads(live);
                }
                kept_rev.push(s.clone());
            }
            Stmt::Do { label, var, ranges, mask, body } => {
                // Loop bodies execute repeatedly: a scalar read anywhere
                // in the body keeps defs from prior iterations alive, so
                // seed the body sweep with its own upward-exposed reads
                // (two-pass approximation, conservative).
                let mut body_live = live.clone();
                let mut reads = BTreeSet::new();
                for b in body {
                    b.visit_exprs(&mut |e| e.scalar_reads(&mut reads));
                }
                body_live.extend(reads);
                body_live.remove(var);
                let mut throwaway = DceStats::default();
                let new_body = sweep_stmts(body, &mut body_live, &mut throwaway);
                // Only count removals if the body sweep is sound here:
                // keep the conservative version (original body) unless
                // statements were provably dead even with the seeded
                // live set.
                stats.assignments_removed += throwaway.assignments_removed;
                if new_body.is_empty() {
                    stats.loops_removed += 1;
                    // Bounds and mask may still read scalars — but a
                    // removed loop no longer evaluates them.
                    continue;
                }
                live.extend(body_live);
                for r in ranges {
                    r.lo.scalar_reads(live);
                    r.hi.scalar_reads(live);
                    if let Some(st) = &r.step {
                        st.scalar_reads(live);
                    }
                }
                if let Some(m) = mask {
                    m.scalar_reads(live);
                }
                kept_rev.push(Stmt::Do {
                    label: label.clone(),
                    var: var.clone(),
                    ranges: ranges.clone(),
                    mask: mask.clone(),
                    body: new_body,
                });
            }
            Stmt::If { cond, then_body, else_body } => {
                let mut then_live = live.clone();
                let mut else_live = live.clone();
                let new_then = sweep_stmts(then_body, &mut then_live, stats);
                let new_else = sweep_stmts(else_body, &mut else_live, stats);
                if new_then.is_empty() && new_else.is_empty() {
                    stats.branches_folded += 1;
                    continue;
                }
                *live = then_live.union(&else_live).cloned().collect();
                cond.scalar_reads(live);
                kept_rev.push(Stmt::If {
                    cond: cond.clone(),
                    then_body: new_then,
                    else_body: new_else,
                });
            }
        }
    }
    kept_rev.reverse();
    kept_rev
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_lang::interp::{Env, Interp};
    use orchestra_lang::parse_program;

    fn dce(src: &str) -> (Program, DceStats) {
        eliminate_dead_code(&parse_program(src).unwrap())
    }

    #[test]
    fn removes_unused_scalar_assignment() {
        let (p, stats) = dce("program t\n integer a, b\n a = 1\n b = 2\nend");
        assert_eq!(stats.assignments_removed, 2, "nothing reads a or b");
        assert!(p.body.is_empty());
    }

    #[test]
    fn keeps_scalars_feeding_array_writes() {
        let (p, stats) =
            dce("program t\n integer n = 2, a\n integer x[1..n]\n a = 7\n x[1] = a\nend");
        assert_eq!(stats.assignments_removed, 0);
        assert_eq!(p.body.len(), 2);
    }

    #[test]
    fn removes_overwritten_def() {
        let (p, stats) =
            dce("program t\n integer n = 2, a\n integer x[1..n]\n a = 1\n a = 2\n x[1] = a\nend");
        assert_eq!(stats.assignments_removed, 1, "a = 1 is dead");
        assert_eq!(p.body.len(), 2);
    }

    #[test]
    fn folds_decided_branch() {
        let (p, stats) = dce(
            "program t\n integer n = 4, m\n integer x[1..n]\n if (n > 2) { x[1] = 1 } else { x[2] = 2 }\nend",
        );
        assert_eq!(stats.branches_folded, 1);
        assert!(matches!(p.body[0], Stmt::Assign { .. }));
        let _ = p.decl("m");
    }

    #[test]
    fn removes_empty_loop() {
        let (p, stats) = dce("program t\n integer n = 4, dead\n do i = 1, n { dead = i }\nend");
        assert!(stats.loops_removed >= 1);
        assert!(p.body.is_empty());
    }

    #[test]
    fn keeps_reduction_feeding_output() {
        let src = "program t\n integer n = 4\n float s, x[1..n]\n do i = 1, n { s = s + x[i] }\n x[1] = s\nend";
        let (p, stats) = dce(src);
        assert_eq!(stats.total(), 0, "everything is live");
        assert_eq!(p.body.len(), 2);
    }

    #[test]
    fn dce_preserves_semantics() {
        // Random-ish program with mixed dead and live code.
        let src = r#"
program t
  integer n = 6, dead1, live1
  float x[1..n], y[1..n]
  dead1 = 42
  live1 = 3
  do i = 1, n {
    x[i] = i * 1.0
  }
  if (n > 10) {
    do i = 1, n { y[i] = 99.0 }
  } else {
    do i = 1, n { y[i] = x[i] + live1 }
  }
end
"#;
        let orig = parse_program(src).unwrap();
        let (cleaned, stats) = eliminate_dead_code(&orig);
        assert!(stats.total() > 0);
        let e1 = Interp::new().run(&orig, &Env::new()).unwrap();
        let e2 = Interp::new().run(&cleaned, &Env::new()).unwrap();
        assert_eq!(e1["x"], e2["x"]);
        assert_eq!(e1["y"], e2["y"]);
    }

    #[test]
    fn fixpoint_cascades() {
        // b depends only on a; both die once the branch folds away.
        let src = "program t\n integer n = 1, a, b\n if (n > 5) { a = 1\n b = a\n }\nend";
        let (p, stats) = dce(src);
        assert!(p.body.is_empty());
        assert!(stats.branches_folded >= 1);
    }
}
