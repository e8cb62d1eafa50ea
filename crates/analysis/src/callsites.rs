//! Call-site analysis (step 1 of the paper's analysis).
//!
//! Rather than summarizing each procedure once, the compiler classifies
//! call sites into groups by profile weight and argument characteristics.
//! Sites representing significant computation are only grouped with
//! others sharing the same *aliasing pattern* and *constant values*;
//! lighter sites are grouped more coarsely under a tunable heuristic.

use orchestra_lang::ast::{Expr, Name, Program, Stmt};
use std::collections::BTreeMap;

/// One syntactic call site discovered in a program.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CallSite {
    /// Sequential id in discovery (pre-order) order.
    pub id: usize,
    /// Procedure name.
    pub proc: Name,
    /// Actual argument expressions.
    pub args: Vec<Expr>,
    /// Profile weight (estimated or measured executions × cost).
    pub weight: f64,
    /// For each argument: `Some(j)` if it names the same variable as the
    /// earlier argument `j` (an aliasing pair), else `None`.
    pub alias_pattern: Vec<Option<usize>>,
    /// For each argument: its constant value if it is a literal.
    pub const_args: Vec<Option<i64>>,
}

impl CallSite {
    fn from_call(id: usize, name: &Name, args: &[Expr], weight: f64) -> CallSite {
        let mut alias_pattern = vec![None; args.len()];
        for i in 0..args.len() {
            if let Expr::Var(vi) = &args[i] {
                alias_pattern[i] =
                    args[..i].iter().position(|a| matches!(a, Expr::Var(vj) if vj == vi));
            }
        }
        let const_args = args.iter().map(|a| a.as_int()).collect();
        CallSite { id, proc: name.clone(), args: args.to_vec(), weight, alias_pattern, const_args }
    }
}

/// A group of call sites that will share one procedure summary.
#[derive(Debug, Clone, PartialEq)]
pub struct CallGroup {
    /// Procedure name.
    pub proc: Name,
    /// Ids of member call sites.
    pub sites: Vec<usize>,
    /// Whether the members are "hot" (analyzed with full precision).
    pub hot: bool,
}

/// Tunables for the grouping heuristic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClassifyConfig {
    /// Sites at or above this weight are summarized per
    /// (alias-pattern, constant-values) signature.
    pub hot_threshold: f64,
    /// When true, cold sites are still separated by aliasing pattern;
    /// when false they merge per procedure.
    pub separate_cold_aliases: bool,
}

impl Default for ClassifyConfig {
    fn default() -> Self {
        ClassifyConfig { hot_threshold: 1000.0, separate_cold_aliases: false }
    }
}

/// Collects the call sites of a program in pre-order.
///
/// `profile` maps a pre-order call index to a measured weight; sites
/// without an entry get weight 1. Loop nesting multiplies the default
/// weight by a per-level factor of 100 as a static estimate.
pub(crate) fn collect_call_sites(prog: &Program, profile: &BTreeMap<usize, f64>) -> Vec<CallSite> {
    let mut sites = Vec::new();
    fn walk(stmts: &[Stmt], depth: u32, sites: &mut Vec<CallSite>, profile: &BTreeMap<usize, f64>) {
        for s in stmts {
            match s {
                Stmt::Call { name, args } => {
                    let id = sites.len();
                    let weight =
                        profile.get(&id).copied().unwrap_or_else(|| 100f64.powi(depth as i32));
                    sites.push(CallSite::from_call(id, name, args, weight));
                }
                Stmt::Do { body, .. } => walk(body, depth + 1, sites, profile),
                Stmt::If { then_body, else_body, .. } => {
                    walk(then_body, depth, sites, profile);
                    walk(else_body, depth, sites, profile);
                }
                Stmt::Assign { .. } => {}
            }
        }
    }
    walk(&prog.body, 0, &mut sites, profile);
    sites
}

/// Groups call sites per the paper's heuristic.
pub(crate) fn classify(sites: &[CallSite], config: &ClassifyConfig) -> Vec<CallGroup> {
    // Group key: hot sites use (proc, alias pattern, constant values);
    // cold sites use (proc [, alias pattern]).
    let mut groups: BTreeMap<String, CallGroup> = BTreeMap::new();
    for s in sites {
        let hot = s.weight >= config.hot_threshold;
        let key = if hot {
            format!("hot|{}|{:?}|{:?}", s.proc, s.alias_pattern, s.const_args)
        } else if config.separate_cold_aliases {
            format!("cold|{}|{:?}", s.proc, s.alias_pattern)
        } else {
            format!("cold|{}", s.proc)
        };
        groups
            .entry(key)
            .or_insert_with(|| CallGroup { proc: s.proc.clone(), sites: Vec::new(), hot })
            .sites
            .push(s.id);
    }
    groups.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_lang::parse_program;

    fn prog(src: &str) -> Program {
        parse_program(src).unwrap()
    }

    const SRC: &str = r#"
program p
  integer n = 8
  float x[1..n], y[1..n]
  proc work(float a[1..n], float b[1..n], integer k) { a[1] = b[1] }
  call work(x, y, 1)
  do i = 1, n {
    call work(x, y, 1)
    call work(x, x, 2)
  }
end
"#;

    #[test]
    fn collects_sites_with_nesting_weights() {
        let p = prog(SRC);
        let sites = collect_call_sites(&p, &BTreeMap::new());
        assert_eq!(sites.len(), 3);
        assert_eq!(sites[0].weight, 1.0);
        assert_eq!(sites[1].weight, 100.0);
        assert_eq!(sites[2].weight, 100.0);
    }

    #[test]
    fn detects_alias_pattern() {
        let p = prog(SRC);
        let sites = collect_call_sites(&p, &BTreeMap::new());
        assert!(sites[1].alias_pattern.iter().all(Option::is_none));
        assert_eq!(sites[2].alias_pattern[1], Some(0));
    }

    #[test]
    fn constant_args_recorded() {
        let p = prog(SRC);
        let sites = collect_call_sites(&p, &BTreeMap::new());
        assert_eq!(sites[1].const_args[2], Some(1));
        assert_eq!(sites[1].const_args[0], None);
    }

    #[test]
    fn hot_sites_split_by_signature() {
        let p = prog(SRC);
        let mut profile = BTreeMap::new();
        profile.insert(1usize, 10_000.0);
        profile.insert(2usize, 10_000.0);
        let sites = collect_call_sites(&p, &profile);
        let groups = classify(&sites, &ClassifyConfig::default());
        // Sites 1 and 2 are hot with different alias/const signatures →
        // separate groups; site 0 is cold → its own group.
        assert_eq!(groups.len(), 3);
        let hot_groups: Vec<_> = groups.iter().filter(|g| g.hot).collect();
        assert_eq!(hot_groups.len(), 2);
    }

    #[test]
    fn cold_sites_merge_per_proc() {
        let p = prog(SRC);
        let sites = collect_call_sites(&p, &BTreeMap::new());
        let groups =
            classify(&sites, &ClassifyConfig { hot_threshold: 1e9, separate_cold_aliases: false });
        assert_eq!(groups.len(), 1, "all cold sites of `work` merge");
        assert_eq!(groups[0].sites.len(), 3);
    }

    #[test]
    fn cold_alias_separation_heuristic() {
        let p = prog(SRC);
        let sites = collect_call_sites(&p, &BTreeMap::new());
        let groups =
            classify(&sites, &ClassifyConfig { hot_threshold: 1e9, separate_cold_aliases: true });
        assert_eq!(groups.len(), 2, "aliased and non-aliased patterns separate");
    }

    #[test]
    fn profile_overrides_static_weight() {
        let p = prog(SRC);
        let mut profile = BTreeMap::new();
        profile.insert(0usize, 5_000.0);
        let sites = collect_call_sites(&p, &profile);
        assert_eq!(sites[0].weight, 5_000.0);
    }
}
