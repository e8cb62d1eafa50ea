//! Cross-graph processor allocation: the §4.1.2 finishing-time
//! equalizer applied *between tenants' graphs* instead of between ops
//! inside one graph.
//!
//! Each running graph is summarized as one live
//! [`OpSpec`] — its unfinished ops reduced
//! to remaining tasks and pooled µ/σ, exactly the shape
//! [`OpSpec::from_live`] produces mid-run — and
//! [`allocate_many`] partitions the
//! shared worker pool so that the latest of the graphs'
//! [`finish_estimate_live`] totals is as early as it can be. A
//! tenant's scheduling weight scales its graph's apparent work (µ and
//! σ multiplied by the weight), so the equalizer hands a weight-2
//! tenant the share it would hand a graph with twice the remaining
//! work: weighted quotas fall out of the paper's own algorithm rather
//! than a separate quota system.
//!
//! Grants are **widen-only** for the lifetime of a run, mirroring how
//! the in-run partition masks of the threaded pool only ever widen: a
//! graph's thread count is fixed when its executor starts, so the
//! scheduler never pretends it can shrink a live run. Re-equalization
//! happens on every admission, completion, and cancellation — when a
//! graph leaves the pool its workers flow to the survivors, which is
//! precisely the observable a cancelled tenant's eviction leaves
//! behind.

use orchestra_delirium::DelirGraph;
use orchestra_runtime::{allocate_many, finish_estimate_live, HostCalibration, OpSpec, PolicyKind};
use std::collections::BTreeMap;

/// One running graph's contribution to the shared pool's load.
#[derive(Debug, Clone)]
pub struct GraphLoad {
    /// Daemon-wide job id.
    pub job: u64,
    /// Owning tenant's scheduling weight (> 0).
    pub weight: f64,
    /// Live specs of the graph's unfinished ops.
    pub specs: Vec<OpSpec>,
}

/// Summarizes a graph's ops as live [`OpSpec`]s at admission time:
/// every op is still unstarted, so "remaining" is its full task count
/// and the cost statistics are the graph's declared cost model — the
/// same warm-start a live queue's sampled µ/σ would provide mid-run.
/// Shared memory moves no bytes; ops without tasks are left out.
pub fn graph_load_specs(g: &DelirGraph, policy: PolicyKind) -> Vec<OpSpec> {
    g.nodes.iter().map(|n| OpSpec::of_node(&n.kind, 0, policy)).filter(|s| s.tasks > 0).collect()
}

/// Total declared tasks of a graph — the admission-control currency.
pub(crate) fn graph_tasks(g: &DelirGraph) -> usize {
    g.nodes.iter().map(|n| n.kind.task_count()).sum()
}

/// Pools a graph's live op specs into the single spec the cross-graph
/// equalizer compares, with the tenant weight folded into µ/σ.
fn combined_spec(load: &GraphLoad) -> OpSpec {
    let policy = load.specs.first().map_or(PolicyKind::Taper, |s| s.policy);
    let pooled = OpSpec::pooled(&load.specs, policy);
    OpSpec { mean: pooled.mean * load.weight, std_dev: pooled.std_dev * load.weight, ..pooled }
}

/// The daemon's shared-pool partitioner.
#[derive(Debug)]
pub struct PoolScheduler {
    workers: usize,
    cal: HostCalibration,
    running: Vec<GraphLoad>,
    grants: BTreeMap<u64, usize>,
}

impl PoolScheduler {
    /// A scheduler over `workers` shared workers with a fixed nominal
    /// calibration (deterministic; tests and replay).
    pub fn new(workers: usize) -> Self {
        Self::with_calibration(workers, HostCalibration::with_overhead(0.05))
    }

    /// A scheduler using a caller-supplied (typically measured) host
    /// calibration for its finishing-time estimates.
    pub(crate) fn with_calibration(workers: usize, cal: HostCalibration) -> Self {
        PoolScheduler { workers: workers.max(1), cal, running: Vec::new(), grants: BTreeMap::new() }
    }

    /// Size of the pool being partitioned.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Admits a graph and returns its worker grant. Existing grants
    /// are floored at their current value (widen-only); the newcomer
    /// receives its equalized share of the pool.
    pub fn admit(&mut self, load: GraphLoad) -> usize {
        let job = load.job;
        self.running.push(load);
        self.rebalance();
        self.grants[&job]
    }

    /// Removes a finished (or cancelled) graph and re-equalizes: its
    /// workers flow to the surviving graphs, whose grants only widen.
    pub fn complete(&mut self, job: u64) {
        self.running.retain(|l| l.job != job);
        self.grants.remove(&job);
        self.rebalance();
    }

    /// The current grant of a running job.
    pub fn grant(&self, job: u64) -> Option<usize> {
        self.grants.get(&job).copied()
    }

    /// Re-runs the equalizer over the running graphs. Each job's new
    /// grant is `max(old, equalized share)`: a live run's thread count
    /// cannot shrink, so shares only ratchet up — the transient
    /// over-commit this allows is bounded by one pool's worth per
    /// graph and decays as graphs complete.
    fn rebalance(&mut self) {
        if self.running.is_empty() {
            return;
        }
        let specs: Vec<OpSpec> = self.running.iter().map(combined_spec).collect();
        let shares = if specs.len() <= self.workers {
            allocate_many(&specs, self.workers, |s, p| {
                finish_estimate_live(s, p, &self.cal).total()
            })
        } else {
            // More graphs than workers: the equalizer needs one worker
            // per op, so degrade to one worker each (admission control
            // is expected to keep the pool out of this regime).
            vec![1; specs.len()]
        };
        for (load, share) in self.running.iter().zip(shares) {
            let g = self.grants.entry(load.job).or_insert(0);
            *g = (*g).max(share.max(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_delirium::{NodeKind, Population};
    use orchestra_runtime::OnlineStats;

    fn load(job: u64, weight: f64, tasks: usize, mean: f64) -> GraphLoad {
        let mut stats = OnlineStats::new();
        stats.observe(mean);
        GraphLoad {
            job,
            weight,
            specs: vec![OpSpec::from_live(tasks, Some(&stats), PolicyKind::Taper)],
        }
    }

    #[test]
    fn a_lone_graph_gets_the_whole_pool() {
        let mut s = PoolScheduler::new(8);
        assert_eq!(s.admit(load(1, 1.0, 256, 50.0)), 8);
    }

    #[test]
    fn equal_loads_split_evenly_and_weights_tilt_the_split() {
        let mut s = PoolScheduler::new(8);
        // Admitted together (neither ran yet), so neither grant is
        // pre-widened: seed both before reading the shares.
        s.running.push(load(1, 1.0, 512, 50.0));
        s.running.push(load(2, 1.0, 512, 50.0));
        s.rebalance();
        assert_eq!(s.grant(1), Some(4));
        assert_eq!(s.grant(2), Some(4));

        let mut s = PoolScheduler::new(8);
        s.running.push(load(1, 3.0, 512, 50.0));
        s.running.push(load(2, 1.0, 512, 50.0));
        s.rebalance();
        assert!(
            s.grant(1).unwrap() > s.grant(2).unwrap(),
            "the weight-3 tenant must out-rank the weight-1 tenant: {:?}",
            (s.grant(1), s.grant(2))
        );
    }

    #[test]
    fn completion_widens_the_survivor_to_the_full_pool() {
        let mut s = PoolScheduler::new(8);
        s.running.push(load(1, 1.0, 512, 50.0));
        s.running.push(load(2, 1.0, 512, 50.0));
        s.rebalance();
        assert_eq!(s.grant(2), Some(4));
        s.complete(1);
        assert_eq!(s.grant(1), None, "finished jobs drop out of the table");
        assert_eq!(s.grant(2), Some(8), "the survivor inherits the freed workers");
    }

    #[test]
    fn grants_are_widen_only_across_admissions() {
        let mut s = PoolScheduler::new(8);
        assert_eq!(s.admit(load(1, 1.0, 512, 50.0)), 8, "alone: everything");
        let g2 = s.admit(load(2, 1.0, 512, 50.0));
        assert_eq!(s.grant(1), Some(8), "a live run never shrinks");
        assert!((1..=8).contains(&g2), "newcomer gets an equalized share, got {g2}");
    }

    #[test]
    fn more_graphs_than_workers_degrades_to_one_each() {
        let mut s = PoolScheduler::new(2);
        for j in 0..4 {
            s.running.push(load(j, 1.0, 16, 10.0));
        }
        s.rebalance();
        for j in 0..4 {
            assert_eq!(s.grant(j), Some(1));
        }
    }

    #[test]
    fn graph_specs_reflect_the_declared_cost_model() {
        let mut g = DelirGraph::new();
        g.add_node("A", NodeKind::DataParallel { tasks: 100, mean_cost: 8.0, cv: 0.5 }, None);
        g.add_node("T", NodeKind::Task { cost: 3.0 }, None);
        let pop = |mean_cost| Population { tasks: 50, mean_cost, cv: 0.0 };
        g.add_node("M", NodeKind::Mixture { populations: vec![pop(1.0), pop(101.0)] }, None);
        g.add_node("E", NodeKind::DataParallel { tasks: 0, mean_cost: 1.0, cv: 0.0 }, None);
        let specs = graph_load_specs(&g, PolicyKind::Taper);
        assert_eq!(specs.len(), 3, "one spec per op that has tasks");
        assert_eq!(specs[0].tasks, 100);
        assert!((specs[0].mean - 8.0).abs() < 1e-9);
        assert!((specs[0].std_dev - 4.0).abs() < 1e-9, "σ = µ·cv");
        // A mixture is one op: its populations pool, and two regular
        // populations 100 apart are an irregular op.
        assert_eq!((specs[2].tasks, specs[2].mean), (100, 51.0));
        assert!((specs[2].std_dev - 50.0).abs() < 1e-9);
        assert_eq!(graph_tasks(&g), 201);
        // The graph's one pooled spec is the same union, however the
        // ops divide it.
        let all = combined_spec(&GraphLoad { job: 1, weight: 2.0, specs });
        assert_eq!(all.tasks, 201);
        assert!((all.mean - 2.0 * (800.0 + 3.0 + 5100.0) / 201.0).abs() < 1e-9);
    }
}
