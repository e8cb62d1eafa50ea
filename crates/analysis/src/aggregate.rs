//! Aggregate propagation (step 4 of the paper's analysis).
//!
//! "The compiler generates temporary SSA names for values that are
//! assigned through aggregates. For example, if a value V is assigned to
//! `A[i]` and then `A[i]` is assigned to a scalar, the compiler creates an
//! SSA name for V."
//!
//! Here that means forwarding: within a block (and along unconditional
//! fall-through), a read of `A[e]` that provably matches the most recent
//! write `A[e] = V` is replaced by `V`'s value, eliminating the memory
//! round-trip so value propagation can see through the aggregate. Writes
//! to the same array at a *different or unprovable* index, and any call,
//! invalidate the remembered element.

use crate::cfg::{Cfg, SimpleStmt};
use orchestra_lang::ast::{Expr, LValue, Name};
use orchestra_lang::pretty::expr_to_string;
use std::collections::HashMap;

/// Runs aggregate forwarding over every block of a CFG.
///
/// Returns the number of forwarded reads. The rewrite is purely local to
/// basic blocks, which keeps it trivially sound in the presence of loops.
pub(crate) fn forward_aggregates(cfg: &mut Cfg) -> usize {
    let mut total = 0;
    for b in &mut cfg.blocks {
        total += forward_block(&mut b.stmts);
    }
    total
}

/// Key identifying an array element by the printed form of its indices.
/// Printing gives structural equality for the SSA-renamed index
/// expressions (same SSA names ⇒ same value).
fn elem_key(array: &str, idx: &[Expr]) -> String {
    let parts: Vec<String> = idx.iter().map(expr_to_string).collect();
    format!("{array}[{}]", parts.join(","))
}

fn forward_block(stmts: &mut [SimpleStmt]) -> usize {
    // Map element key → forwarded value expression.
    let mut known: HashMap<String, Expr> = HashMap::new();
    // Which array each key belongs to, for invalidation.
    let mut by_array: HashMap<Name, Vec<String>> = HashMap::new();
    let mut forwarded = 0;

    for s in stmts.iter_mut() {
        match s {
            SimpleStmt::Assign { target, value } => {
                // Rewrite reads in the value first.
                forwarded += rewrite_reads(value, &known);
                match target {
                    LValue::Var(name) => {
                        // A scalar def invalidates keys whose index
                        // expressions mention it — but in SSA form scalar
                        // names are single-assignment, so nothing to do
                        // unless the name is reused (non-SSA input).
                        let name = name.as_str();
                        known.retain(|k, val| !k.contains(name) && !val.reads(name));
                    }
                    LValue::Index(array, idx) => {
                        for e in idx.iter_mut() {
                            forwarded += rewrite_reads(e, &known);
                        }
                        // Invalidate every remembered element of this
                        // array (a write may touch any of them), then
                        // remember this one.
                        if let Some(keys) = by_array.remove(array.as_str()) {
                            for k in keys {
                                known.remove(&k);
                            }
                        }
                        // Only forward side-effect-free values.
                        if is_pure(value) {
                            let key = elem_key(array, idx);
                            known.insert(key.clone(), value.clone());
                            by_array.entry(array.clone()).or_default().push(key);
                        }
                    }
                }
            }
            SimpleStmt::Call { args, .. } => {
                for a in args.iter_mut() {
                    forwarded += rewrite_reads(a, &known);
                }
                // Calls may write any array argument.
                known.clear();
                by_array.clear();
            }
        }
    }
    forwarded
}

/// Intrinsics are pure in MF, but forwarding a call would duplicate its
/// cost: a value is forwarded only when it calls nothing.
fn is_pure(e: &Expr) -> bool {
    let mut calls = false;
    e.walk(&mut |e| calls |= matches!(e, Expr::Call(..)));
    !calls
}

fn rewrite_reads(e: &mut Expr, known: &HashMap<String, Expr>) -> usize {
    match e {
        Expr::Index(array, idx) => {
            let mut n = 0;
            for i in idx.iter_mut() {
                n += rewrite_reads(i, known);
            }
            // With nothing remembered, no key is spelled.
            if known.is_empty() {
                return n;
            }
            if let Some(v) = known.get(&elem_key(array, idx)) {
                *e = v.clone();
                n + 1
            } else {
                n
            }
        }
        Expr::Bin(_, l, r) => rewrite_reads(l, known) + rewrite_reads(r, known),
        Expr::Un(_, i) => rewrite_reads(i, known),
        Expr::Call(_, args) => args.iter_mut().map(|a| rewrite_reads(a, known)).sum(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_lang::parse_program;

    fn cfg_of(src: &str) -> Cfg {
        let p = parse_program(src).unwrap();
        Cfg::from_stmts(&p.body)
    }

    #[test]
    fn forwards_matching_read() {
        let mut cfg = cfg_of(
            "program p\n integer n = 4, v, w\n integer a[1..n]\n a[2] = v + 1\n w = a[2]\nend",
        );
        let n = forward_aggregates(&mut cfg);
        assert_eq!(n, 1);
        let SimpleStmt::Assign { value, .. } = &cfg.blocks[0].stmts[1] else { panic!() };
        assert_eq!(expr_to_string(value), "v + 1");
    }

    #[test]
    fn different_index_not_forwarded() {
        let mut cfg =
            cfg_of("program p\n integer n = 4, v, w\n integer a[1..n]\n a[2] = v\n w = a[3]\nend");
        assert_eq!(forward_aggregates(&mut cfg), 0);
    }

    #[test]
    fn intervening_write_invalidates() {
        let mut cfg = cfg_of(
            "program p\n integer n = 4, v, w, k\n integer a[1..n]\n a[2] = v\n a[k] = 9\n w = a[2]\nend",
        );
        assert_eq!(forward_aggregates(&mut cfg), 0, "a[k] may overwrite a[2]");
    }

    #[test]
    fn call_invalidates_everything() {
        let mut cfg = cfg_of(
            "program p\n integer n = 4, v, w\n integer a[1..n]\n proc q(integer a[1..n], integer n) { a[2] = 0 }\n a[2] = v\n call q(a, n)\n w = a[2]\nend",
        );
        assert_eq!(forward_aggregates(&mut cfg), 0);
    }

    #[test]
    fn same_array_reread_chain() {
        let mut cfg = cfg_of(
            "program p\n integer n = 4, v, w, u\n integer a[1..n]\n a[1] = v\n w = a[1]\n u = a[1]\nend",
        );
        assert_eq!(forward_aggregates(&mut cfg), 2);
    }

    #[test]
    fn scalar_redefinition_invalidates_dependent_keys() {
        // Non-SSA input: i changes between the write and the read.
        let mut cfg = cfg_of(
            "program p\n integer n = 4, i, w\n integer a[1..n]\n i = 1\n a[i] = 5\n i = 2\n w = a[i]\nend",
        );
        assert_eq!(forward_aggregates(&mut cfg), 0);
    }

    #[test]
    fn call_values_not_forwarded() {
        let mut cfg =
            cfg_of("program p\n integer n = 4\n float a[1..n], w\n a[1] = f(1.0)\n w = a[1]\nend");
        assert_eq!(forward_aggregates(&mut cfg), 0, "call results are not duplicated");
    }
}
