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
//! The one-call entry point is [`analyze_program`]. It only copies the
//! program: the six steps run when an accessor of the
//! [`AnalyzedProgram`] it returns is first read, and once.
//!
//! ```
//! use orchestra_lang::parse_program;
//! use orchestra_analysis::analyze_program;
//!
//! let p = parse_program(
//!     "program t\n integer n = 4\n integer x[1..n]\n do i = 1, n { x[i] = i }\nend",
//! ).unwrap();
//! let a = analyze_program(&p); // a copy of `p`, nothing analyzed yet
//! assert_eq!(a.ssa().cfg.loops.len(), 1); // the first read runs the steps
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
use std::collections::BTreeSet;
use std::sync::OnceLock;

pub use propagate::Propagation;
pub use symbolic::{Assertion, Ineq, SymExpr, SymRange, SymValue};

/// The complete analysis of one program. It owns a copy of the program
/// and runs the six steps the first time an accessor is read, once:
/// a clone taken before that read runs its own, and threads reading
/// one value share one run.
#[derive(Debug, Clone)]
pub struct AnalyzedProgram {
    program: Program,
    result: OnceLock<Analysis>,
}

/// What the six steps produce.
#[derive(Debug, Clone)]
struct Analysis {
    ssa: ssa::SsaProgram,
    prop: Propagation,
    call_groups: Vec<callsites::CallGroup>,
    aliases: alias::AliasInfo,
    aggregate_forwards: usize,
}

impl AnalyzedProgram {
    fn analysis(&self) -> &Analysis {
        self.result.get_or_init(|| analyze(&self.program))
    }

    /// SSA-form CFG with φ nodes and dominator tree.
    pub fn ssa(&self) -> &ssa::SsaProgram {
        &self.analysis().ssa
    }

    /// Symbolic values, block assertions, loop ranges.
    pub fn prop(&self) -> &Propagation {
        &self.analysis().prop
    }

    /// Call-site groups.
    pub fn call_groups(&self) -> &[callsites::CallGroup] {
        &self.analysis().call_groups
    }

    /// Alias findings.
    pub fn aliases(&self) -> &alias::AliasInfo {
        &self.analysis().aliases
    }

    /// Number of aggregate reads forwarded.
    pub fn aggregate_forwards(&self) -> usize {
        self.analysis().aggregate_forwards
    }
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

/// The analysis of a program, run when it is first read: this call
/// only copies the program.
pub fn analyze_program(prog: &Program) -> AnalyzedProgram {
    AnalyzedProgram { program: prog.clone(), result: OnceLock::new() }
}

/// The six steps, in the order each needs the last.
fn analyze(prog: &Program) -> Analysis {
    let scalars = collect_scalars(prog);
    let mut base_cfg = cfg::Cfg::from_program(prog);
    // Step 4 runs before SSA so forwarded scalars participate in
    // renaming and value propagation.
    let aggregate_forwards = aggregate::forward_aggregates(&mut base_cfg);
    let ssa_prog = ssa::to_ssa(base_cfg, &scalars);
    let mut prop = propagate::propagate(&ssa_prog);
    let aliases = alias::detect_aliases(&ssa_prog.cfg);
    alias::apply_invalidations(&mut prop, &aliases);
    let call_groups = callsites::classify(&callsites::collect_call_sites(prog));
    Analysis { ssa: ssa_prog, prop, call_groups, aliases, aggregate_forwards }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_lang::parse_program;

    #[test]
    fn pipeline_runs_on_figure1() {
        let p = orchestra_lang::builder::figure1_program(8);
        let a = analyze_program(&p);
        assert_eq!(a.ssa().cfg.loops.len(), 5, "col, two inner i loops, B nest i and j");
        assert!(a.aliases().is_clean());
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
        assert_eq!(a.aggregate_forwards(), 1);
        // w's value folds to 7 through the array round-trip.
        assert_eq!(a.prop().values.get("w#1"), Some(&SymValue::int(7)));
    }

    #[test]
    fn the_first_read_runs_the_analysis_once() {
        let a = analyze_program(&orchestra_lang::builder::figure1_program(8));
        assert!(a.result.get().is_none(), "building the value runs nothing");
        let first = a.prop();
        assert!(a.result.get().is_some(), "the first read ran it");
        assert!(std::ptr::eq(first, a.prop()), "a second read returns the same result");
    }

    #[test]
    fn a_clone_taken_before_the_first_read_reads_the_same() {
        let a = analyze_program(&orchestra_lang::builder::figure1_program(8));
        let b = a.clone();
        assert!(b.result.get().is_none());
        let (pa, pb) = (a.prop(), b.prop());
        assert!(!std::ptr::eq(pa, pb), "the clone ran its own analysis");
        assert_eq!(pa.values, pb.values);
        assert_eq!(pa.loop_ranges, pb.loop_ranges);
        assert_eq!(pa.assertions, pb.assertions);
        assert_eq!(a.call_groups(), b.call_groups());
        assert_eq!(a.aggregate_forwards(), b.aggregate_forwards());
    }

    #[test]
    fn threads_reading_one_value_share_one_run() {
        let a = analyze_program(&orchestra_lang::builder::figure1_program(8));
        let start = std::sync::Barrier::new(2);
        let (x, y) = std::thread::scope(|s| {
            let read = || {
                start.wait();
                a.prop()
            };
            let (x, y) = (s.spawn(read), s.spawn(read));
            (x.join().expect("the reader finishes"), y.join().expect("the reader finishes"))
        });
        assert!(std::ptr::eq(x, y), "both threads read the one result");
    }

    #[test]
    fn alias_invalidation_applied() {
        let p = parse_program(
            "program t\n integer n = 2\n float x[1..n], s\n proc w(float a[1..n], float b[1..n]) { a[1] = b[1] }\n call w(x, x)\n s = x[1]\nend",
        )
        .unwrap();
        let a = analyze_program(&p);
        assert_eq!(a.prop().values.get("s#1"), Some(&SymValue::Unknown));
    }
}
