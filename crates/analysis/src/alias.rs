//! Alias elimination (step 5 of the paper's analysis).
//!
//! "When aliases may cause an assignment to overwrite uses of other SSA
//! names, the uses that may be affected are marked invalid. Potential
//! aliases are detected in a top-down traversal of the CFG, using the
//! description of each node's memory behavior to determine which SSA
//! names it may invalidate."
//!
//! In MF, aliases arise only from procedure calls: passing the same
//! array to two by-reference parameters, or passing overlapping arrays.
//! This pass finds the arrays involved in any aliasing call and marks as
//! *invalid* every SSA name whose defining expression reads such an
//! array at or after the aliasing call (in CFG order) — those values can
//! no longer be trusted by value propagation or descriptors.

use crate::cfg::{Cfg, SimpleStmt};
use crate::propagate::Propagation;
use crate::symbolic::SymValue;
use orchestra_lang::ast::{Expr, LValue, Name};
use std::collections::BTreeSet;

/// The result of alias detection.
#[derive(Debug, Clone, Default)]
pub struct AliasInfo {
    /// Arrays that participate in at least one aliasing call.
    pub aliased_arrays: BTreeSet<Name>,
    /// SSA names whose symbolic values must be discarded.
    pub invalidated: BTreeSet<Name>,
}

impl AliasInfo {
    /// True when the program is alias-free.
    pub fn is_clean(&self) -> bool {
        self.aliased_arrays.is_empty()
    }
}

/// Detects aliasing calls and the SSA names they invalidate.
///
/// Once an array becomes aliased it stays aliased for every block (a
/// sound over-approximation of the paper's per-path marking), so the
/// sweeps may visit the blocks in any order.
pub(crate) fn detect_aliases(cfg: &Cfg) -> AliasInfo {
    let mut info = AliasInfo::default();

    // First sweep: find aliasing calls.
    for block in &cfg.blocks {
        for s in &block.stmts {
            if let SimpleStmt::Call { args, .. } = s {
                let mut seen: BTreeSet<&str> = BTreeSet::new();
                for a in args {
                    if let Expr::Var(name) = a {
                        if !seen.insert(name.as_str()) {
                            // Same variable appears twice: alias.
                            info.aliased_arrays.insert(name.clone());
                        }
                    }
                }
            }
        }
    }
    if info.aliased_arrays.is_empty() {
        return info;
    }

    // Second sweep: any SSA def whose RHS reads an aliased array is
    // invalid (the write through one alias may have changed the value
    // observed through the other).
    for block in &cfg.blocks {
        for s in &block.stmts {
            if let SimpleStmt::Assign { target: LValue::Var(def), value } = s {
                let mut arrays = BTreeSet::new();
                value.array_reads(&mut arrays);
                if arrays.iter().any(|a| info.aliased_arrays.contains(a)) {
                    info.invalidated.insert(def.clone());
                }
            }
        }
    }
    info
}

/// Applies invalidations to a propagation result, downgrading the
/// affected SSA names to [`SymValue::Unknown`].
pub(crate) fn apply_invalidations(prop: &mut Propagation, info: &AliasInfo) {
    for name in &info.invalidated {
        if let Some(v) = prop.values.get_mut(name) {
            *v = SymValue::Unknown;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use orchestra_lang::parse_program;

    fn cfg_of(src: &str) -> Cfg {
        let p = parse_program(src).unwrap();
        Cfg::from_stmts(&p.body)
    }

    #[test]
    fn clean_program_has_no_aliases() {
        let cfg = cfg_of(
            "program p\n integer n = 2\n float x[1..n], y[1..n]\n proc w(float a[1..n], float b[1..n]) { a[1] = b[1] }\n call w(x, y)\nend",
        );
        let info = detect_aliases(&cfg);
        assert!(info.is_clean());
    }

    #[test]
    fn duplicate_argument_is_alias() {
        let cfg = cfg_of(
            "program p\n integer n = 2\n float x[1..n]\n proc w(float a[1..n], float b[1..n]) { a[1] = b[1] }\n call w(x, x)\nend",
        );
        let info = detect_aliases(&cfg);
        assert!(info.aliased_arrays.contains("x"));
    }

    #[test]
    fn reads_of_aliased_array_invalidated() {
        let cfg = cfg_of(
            "program p\n integer n = 2\n float x[1..n], s\n proc w(float a[1..n], float b[1..n]) { a[1] = b[1] }\n call w(x, x)\n s = x[1]\nend",
        );
        let info = detect_aliases(&cfg);
        assert!(info.invalidated.contains("s"));
    }

    #[test]
    fn reads_of_other_arrays_kept() {
        let cfg = cfg_of(
            "program p\n integer n = 2\n float x[1..n], y[1..n], s, t\n proc w(float a[1..n], float b[1..n]) { a[1] = b[1] }\n call w(x, x)\n s = x[1]\n t = y[1]\nend",
        );
        let info = detect_aliases(&cfg);
        assert!(info.invalidated.contains("s"));
        assert!(!info.invalidated.contains("t"));
    }
}
