#![warn(missing_docs)]
//! # orchestra-analysis
//!
//! Symbolic program analysis for the PLDI '93 *Orchestrating
//! Interactions Among Parallel Computations* reproduction.
//!
//! Implements the six analysis steps of §3.1 of the paper:
//!
//! 1. **Call-site analysis** ([`callsites`]) — groups call sites by
//!    profile weight, aliasing pattern and constant arguments.
//! 2. **Memory-usage analysis** ([`mod@cfg`]) — a control-flow graph whose
//!    nodes carry scalar/array read-write annotations.
//! 3. **SSA conversion** ([`ssa`]) — Cytron et al. φ placement using
//!    dominance frontiers ([`dom`]).
//! 4. **Aggregate propagation** ([`aggregate`]) — temporary names for
//!    values that round-trip through array elements.
//! 5. **Alias elimination** ([`alias`]) — invalidates SSA values that
//!    aliased writes may have changed.
//! 6. **Value propagation** ([`propagate`]) — annotates SSA names with
//!    [`symbolic::SymValue`]s (linear expressions and ranges) and blocks
//!    with path [`symbolic::Assertion`]s.
//!
//! The one-call entry point is [`analyze_program`].
//!
//! ```
//! use orchestra_lang::parse_program;
//! use orchestra_analysis::analyze_program;
//!
//! let p = parse_program(
//!     "program t\n integer n = 4\n integer x[1..n]\n do i = 1, n { x[i] = i }\nend",
//! ).unwrap();
//! let a = analyze_program(&p);
//! assert_eq!(a.ssa.cfg.loops.len(), 1);
//! ```

pub mod aggregate;
pub mod alias;
pub mod callsites;
pub mod cfg;
pub mod dce;
pub mod dom;
pub mod propagate;
pub mod ssa;
pub mod symbolic;
pub mod verify;

use orchestra_lang::ast::{Name, Program, Stmt};
use std::collections::{BTreeMap, BTreeSet};

pub use propagate::Propagation;
pub use symbolic::{Assertion, Ineq, SymExpr, SymRange, SymValue};

/// The complete analysis result for one program.
#[derive(Debug, Clone)]
pub struct AnalyzedProgram {
    /// SSA-form CFG with φ nodes and dominator tree.
    pub ssa: ssa::SsaProgram,
    /// Symbolic values, block assertions, loop ranges.
    pub prop: propagate::Propagation,
    /// Call-site groups.
    pub call_groups: Vec<callsites::CallGroup>,
    /// Alias findings.
    pub aliases: alias::AliasInfo,
    /// Number of aggregate reads forwarded.
    pub aggregate_forwards: usize,
}

/// Collects the scalar variable names of a program: declared scalars
/// plus every loop induction variable.
pub fn collect_scalars(prog: &Program) -> BTreeSet<Name> {
    let mut out: BTreeSet<Name> =
        prog.decls.iter().filter(|d| !d.is_array()).map(|d| d.name.clone()).collect();
    for s in &prog.body {
        s.walk(&mut |s| {
            if let Stmt::Do { var, .. } = s {
                out.insert(var.clone());
            }
        });
    }
    out
}

/// Runs the full analysis pipeline on a program body.
pub fn analyze_program(prog: &Program) -> AnalyzedProgram {
    analyze_with_profile(prog, &BTreeMap::new())
}

/// Like [`analyze_program`], with measured profile weights for call
/// sites (pre-order call index → weight).
pub fn analyze_with_profile(prog: &Program, profile: &BTreeMap<usize, f64>) -> AnalyzedProgram {
    let scalars = collect_scalars(prog);
    let mut base_cfg = cfg::Cfg::from_program(prog);
    // Step 4 runs before SSA so forwarded scalars participate in
    // renaming and value propagation.
    let aggregate_forwards = aggregate::forward_aggregates(&mut base_cfg);
    let ssa_prog = ssa::to_ssa(base_cfg, &scalars);
    let mut prop = propagate::propagate(&ssa_prog);
    let aliases = alias::detect_aliases(&ssa_prog.cfg);
    alias::apply_invalidations(&mut prop, &aliases);
    let sites = callsites::collect_call_sites(prog, profile);
    let call_groups = callsites::classify(&sites, &callsites::ClassifyConfig::default());
    AnalyzedProgram { ssa: ssa_prog, prop, call_groups, aliases, aggregate_forwards }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_lang::parse_program;

    #[test]
    fn pipeline_runs_on_figure1() {
        let p = orchestra_lang::builder::figure1_program(8);
        let a = analyze_program(&p);
        assert_eq!(a.ssa.cfg.loops.len(), 5, "col, two inner i loops, B nest i and j");
        assert!(a.aliases.is_clean());
    }

    #[test]
    fn scalars_include_induction_vars() {
        let p = parse_program(
            "program t\n integer n = 4\n integer x[1..n]\n do k = 1, n { x[k] = k }\nend",
        )
        .unwrap();
        let s = collect_scalars(&p);
        assert!(s.contains("k"));
        assert!(s.contains("n"));
        assert!(!s.contains("x"));
    }

    #[test]
    fn aggregate_forwarding_feeds_value_prop() {
        let p = parse_program(
            "program t\n integer n = 4, v, w\n integer a[1..n]\n v = 7\n a[1] = v\n w = a[1]\nend",
        )
        .unwrap();
        let a = analyze_program(&p);
        assert_eq!(a.aggregate_forwards, 1);
        // w's value folds to 7 through the array round-trip.
        assert_eq!(a.prop.values.get("w#1"), Some(&SymValue::int(7)));
    }

    #[test]
    fn alias_invalidation_applied() {
        let p = parse_program(
            "program t\n integer n = 2\n float x[1..n], s\n proc w(float a[1..n], float b[1..n]) { a[1] = b[1] }\n call w(x, x)\n s = x[1]\nend",
        )
        .unwrap();
        let a = analyze_program(&p);
        assert_eq!(a.prop.values.get("s#1"), Some(&SymValue::Unknown));
    }
}
