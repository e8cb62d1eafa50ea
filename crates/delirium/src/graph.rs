//! The coarse-grained dataflow graph (§3.4).
//!
//! The compiler's third output is "a coarse-grained dataflow graph
//! summarizing the exposed parallelism", expressed in the coordination
//! language Delirium. Nodes are *tasks* (the indivisible scheduling
//! units fixed by the front end) or *data-parallel operations*; edges
//! carry data with size/type annotations the runtime uses to estimate
//! communication costs.

use std::collections::BTreeSet;
use std::fmt;

/// Node identifier within a graph.
pub type NodeId = usize;

/// One task population of a [`NodeKind::Mixture`] node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Population {
    /// Number of tasks.
    pub tasks: usize,
    /// Mean task cost (µs).
    pub mean_cost: f64,
    /// Coefficient of variation of task costs.
    pub cv: f64,
}

/// What a node computes.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A sequential task with an estimated cost (µs).
    Task {
        /// Estimated execution time, microseconds.
        cost: f64,
    },
    /// A data-parallel operation of `tasks` independent tasks.
    DataParallel {
        /// Number of constituent tasks.
        tasks: usize,
        /// Mean task cost (µs).
        mean_cost: f64,
        /// Coefficient of variation of task costs (σ/µ) — the runtime's
        /// scheduling decisions key off this irregularity measure.
        cv: f64,
    },
    /// A merge node combining replicated results (cheap, bandwidth
    /// bound).
    Merge {
        /// Estimated execution time, microseconds.
        cost: f64,
    },
    /// A data-parallel operation whose tasks come from several distinct
    /// populations (e.g. regular dynamics cells plus irregular cloud
    /// physics cells scheduled as one operation). Keeping the
    /// populations explicit lets a transformed graph's pieces sample
    /// *exactly* the same costs as the untransformed operation.
    Mixture {
        /// The constituent populations.
        populations: Vec<Population>,
    },
}

impl NodeKind {
    /// Total sequential work of the node, microseconds.
    pub fn total_work(&self) -> f64 {
        match self {
            NodeKind::Task { cost } | NodeKind::Merge { cost } => *cost,
            NodeKind::DataParallel { tasks, mean_cost, .. } => *tasks as f64 * mean_cost,
            NodeKind::Mixture { populations } => {
                populations.iter().map(|p| p.tasks as f64 * p.mean_cost).sum()
            }
        }
    }

    /// Number of schedulable tasks.
    pub fn task_count(&self) -> usize {
        match self {
            NodeKind::DataParallel { tasks, .. } => *tasks,
            NodeKind::Mixture { populations } => populations.iter().map(|p| p.tasks).sum(),
            _ => 1,
        }
    }

    /// Aggregate `(mean, cv)` over all tasks of the node.
    pub fn aggregate_stats(&self) -> (f64, f64) {
        match self {
            NodeKind::Task { cost } | NodeKind::Merge { cost } => (*cost, 0.0),
            NodeKind::DataParallel { mean_cost, cv, .. } => (*mean_cost, *cv),
            NodeKind::Mixture { populations } => {
                let n: f64 = populations.iter().map(|p| p.tasks as f64).sum::<f64>().max(1.0);
                let mean = self.total_work() / n;
                let second: f64 = populations
                    .iter()
                    .map(|p| {
                        let s = p.mean_cost * p.cv;
                        p.tasks as f64 * (s * s + p.mean_cost * p.mean_cost)
                    })
                    .sum::<f64>()
                    / n;
                let var = (second - mean * mean).max(0.0);
                (mean, if mean > 0.0 { var.sqrt() / mean } else { 0.0 })
            }
        }
    }
}

/// A dataflow node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Identifier (index into the node vector).
    pub id: NodeId,
    /// Human-readable name (piece name from split, e.g. `B_I`).
    pub name: String,
    /// Kind and cost parameters.
    pub kind: NodeKind,
    /// Pipeline group: nodes with the same `Some(group)` belong to one
    /// pipelined loop; the `carried` flag on edges distinguishes
    /// loop-carried dependences.
    pub group: Option<String>,
}

/// The data annotation on an edge (§3.4's "data size and type
/// information" translated into "runtime code for estimating
/// communication costs").
#[derive(Debug, Clone, PartialEq)]
pub struct DataAnno {
    /// The value's name (usually an array).
    pub name: String,
    /// Element size, bytes.
    pub elem_bytes: u64,
    /// Number of elements transferred.
    pub count: u64,
}

impl DataAnno {
    /// A named scalar (8 bytes).
    pub fn scalar(name: impl Into<String>) -> Self {
        DataAnno { name: name.into(), elem_bytes: 8, count: 1 }
    }

    /// A named array of `count` 8-byte elements.
    pub fn array(name: impl Into<String>, count: u64) -> Self {
        DataAnno { name: name.into(), elem_bytes: 8, count }
    }

    /// Transfer volume in bytes.
    pub fn bytes(&self) -> u64 {
        self.elem_bytes * self.count
    }
}

/// A dataflow edge.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Producer node.
    pub from: NodeId,
    /// Consumer node.
    pub to: NodeId,
    /// The value carried.
    pub data: DataAnno,
    /// True for loop-carried edges inside a pipeline group (iteration
    /// `i` → iteration `i+1`); these do not make the graph cyclic — the
    /// graph summarizes one iteration, the flag marks the carried
    /// dependence.
    pub carried: bool,
}

/// Errors from graph validation.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge references a node id that does not exist.
    DanglingEdge {
        /// Offending edge index.
        edge: usize,
    },
    /// The non-carried edges contain a cycle through the named node.
    Cycle {
        /// A node on the cycle.
        node: NodeId,
    },
    /// Two nodes share a name.
    DuplicateName {
        /// The duplicated name.
        name: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DanglingEdge { edge } => write!(f, "edge {edge} references missing node"),
            GraphError::Cycle { node } => write!(f, "cycle through node {node}"),
            GraphError::DuplicateName { name } => write!(f, "duplicate node name `{name}`"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A coarse-grained dataflow graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DelirGraph {
    /// Nodes, indexed by id.
    pub nodes: Vec<Node>,
    /// Edges.
    pub edges: Vec<Edge>,
}

impl DelirGraph {
    /// An empty graph.
    pub fn new() -> Self {
        DelirGraph::default()
    }

    /// Adds a node, returning its id.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        kind: NodeKind,
        group: Option<String>,
    ) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node { id, name: name.into(), kind, group });
        id
    }

    /// Adds a dataflow edge.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, data: DataAnno) {
        self.edges.push(Edge { from, to, data, carried: false });
    }

    /// Adds a loop-carried edge within a pipeline group.
    pub fn add_carried_edge(&mut self, from: NodeId, to: NodeId, data: DataAnno) {
        self.edges.push(Edge { from, to, data, carried: true });
    }

    /// Finds a node id by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Direct predecessors via non-carried edges.
    pub fn preds(&self, id: NodeId) -> Vec<NodeId> {
        self.edges.iter().filter(|e| e.to == id && !e.carried).map(|e| e.from).collect()
    }

    /// Validates structure: edges reference live nodes, names unique,
    /// and the non-carried edges form a DAG.
    pub fn validate(&self) -> Result<(), GraphError> {
        for (i, e) in self.edges.iter().enumerate() {
            if e.from >= self.nodes.len() || e.to >= self.nodes.len() {
                return Err(GraphError::DanglingEdge { edge: i });
            }
        }
        let mut seen = BTreeSet::new();
        for n in &self.nodes {
            if !seen.insert(n.name.as_str()) {
                return Err(GraphError::DuplicateName { name: n.name.clone() });
            }
        }
        self.topo_order().map(|_| ())
    }

    /// Topological order over non-carried edges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] when no such order exists.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, GraphError> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            if !e.carried {
                indeg[e.to] += 1;
            }
        }
        let mut ready: Vec<NodeId> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut out = Vec::with_capacity(n);
        while let Some(v) = ready.pop() {
            out.push(v);
            for e in &self.edges {
                if !e.carried && e.from == v {
                    indeg[e.to] -= 1;
                    if indeg[e.to] == 0 {
                        ready.push(e.to);
                    }
                }
            }
        }
        if out.len() != n {
            let node = (0..n).find(|&i| indeg[i] > 0).unwrap_or(0);
            return Err(GraphError::Cycle { node });
        }
        Ok(out)
    }

    /// Groups the topological order into *levels*: each level's nodes
    /// have all predecessors in earlier levels and may run concurrently.
    pub fn levels(&self) -> Result<Vec<Vec<NodeId>>, GraphError> {
        let order = self.topo_order()?;
        let mut level = vec![0usize; self.nodes.len()];
        for &v in &order {
            for p in self.preds(v) {
                level[v] = level[v].max(level[p] + 1);
            }
        }
        let max = level.iter().copied().max().unwrap_or(0);
        let mut out = vec![Vec::new(); max + 1];
        for (v, &l) in level.iter().enumerate() {
            out[l].push(v);
        }
        Ok(out)
    }

    /// The critical path length in sequential-work terms (µs): longest
    /// path weighting each node by `total_work / available parallelism`
    /// at infinite processors (i.e. a data-parallel node contributes its
    /// mean task cost, a task its full cost).
    pub fn critical_path(&self) -> Result<f64, GraphError> {
        let order = self.topo_order()?;
        let mut dist = vec![0.0f64; self.nodes.len()];
        let weight = |n: &Node| match &n.kind {
            NodeKind::Task { cost } | NodeKind::Merge { cost } => *cost,
            NodeKind::DataParallel { mean_cost, .. } => *mean_cost,
            NodeKind::Mixture { .. } => n.kind.aggregate_stats().0,
        };
        let mut best: f64 = 0.0;
        for &v in &order {
            let mut start: f64 = 0.0;
            for p in self.preds(v) {
                start = start.max(dist[p]);
            }
            dist[v] = start + weight(&self.nodes[v]);
            best = best.max(dist[v]);
        }
        Ok(best)
    }

    /// Total sequential work of the whole graph (µs).
    pub fn total_work(&self) -> f64 {
        self.nodes.iter().map(|n| n.kind.total_work()).sum()
    }

    /// The Sarkar–Hennessy style communication estimate: the weighted
    /// sum of dataflow edges crossing processor boundaries under the
    /// given node→processor assignment, at `beta` µs/byte plus `alpha`
    /// µs/message.
    ///
    /// The paper performs this computation *at runtime* from generated
    /// code blocks; here it is a method evaluated with runtime
    /// parameters.
    pub fn comm_cost(&self, assignment: &[usize], alpha: f64, beta: f64) -> f64 {
        let mut total = 0.0;
        for e in &self.edges {
            if assignment.get(e.from) != assignment.get(e.to) {
                total += alpha + beta * e.data.bytes() as f64;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DelirGraph {
        let mut g = DelirGraph::new();
        let a = g.add_node("A", NodeKind::Task { cost: 10.0 }, None);
        let b =
            g.add_node("B", NodeKind::DataParallel { tasks: 100, mean_cost: 5.0, cv: 0.2 }, None);
        let c =
            g.add_node("C", NodeKind::DataParallel { tasks: 50, mean_cost: 2.0, cv: 1.5 }, None);
        let d = g.add_node("D", NodeKind::Merge { cost: 3.0 }, None);
        g.add_edge(a, b, DataAnno::array("x", 100));
        g.add_edge(a, c, DataAnno::array("y", 50));
        g.add_edge(b, d, DataAnno::array("bx", 100));
        g.add_edge(c, d, DataAnno::array("cy", 50));
        g
    }

    #[test]
    fn validates_and_orders() {
        let g = diamond();
        g.validate().unwrap();
        let order = g.topo_order().unwrap();
        assert_eq!(order.len(), 4);
        let pos = |n: &str| order.iter().position(|&i| g.nodes[i].name == n).unwrap();
        assert!(pos("A") < pos("B"));
        assert!(pos("B") < pos("D"));
        assert!(pos("C") < pos("D"));
    }

    #[test]
    fn levels_expose_concurrency() {
        let g = diamond();
        let levels = g.levels().unwrap();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[1].len(), 2, "B and C run concurrently");
    }

    #[test]
    fn cycle_detected() {
        let mut g = diamond();
        let d = g.node_by_name("D").unwrap();
        let a = g.node_by_name("A").unwrap();
        g.add_edge(d, a, DataAnno::scalar("back"));
        assert!(matches!(g.validate(), Err(GraphError::Cycle { .. })));
    }

    #[test]
    fn carried_edges_do_not_cycle() {
        let mut g = diamond();
        let d = g.node_by_name("D").unwrap();
        let a = g.node_by_name("A").unwrap();
        g.add_carried_edge(d, a, DataAnno::scalar("loop"));
        g.validate().unwrap();
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut g = DelirGraph::new();
        g.add_node("X", NodeKind::Task { cost: 1.0 }, None);
        g.add_node("X", NodeKind::Task { cost: 1.0 }, None);
        assert!(matches!(g.validate(), Err(GraphError::DuplicateName { .. })));
    }

    #[test]
    fn dangling_edge_rejected() {
        let mut g = DelirGraph::new();
        let a = g.add_node("A", NodeKind::Task { cost: 1.0 }, None);
        g.edges.push(Edge { from: a, to: 99, data: DataAnno::scalar("x"), carried: false });
        assert!(matches!(g.validate(), Err(GraphError::DanglingEdge { .. })));
    }

    #[test]
    fn work_and_critical_path() {
        let g = diamond();
        assert_eq!(g.total_work(), 10.0 + 500.0 + 100.0 + 3.0);
        // A(10) + max(B mean 5, C mean 2) + D(3) = 18.
        assert!((g.critical_path().unwrap() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn mixture_aggregates_populations() {
        let m = NodeKind::Mixture {
            populations: vec![
                Population { tasks: 300, mean_cost: 10.0, cv: 0.0 },
                Population { tasks: 100, mean_cost: 50.0, cv: 0.5 },
            ],
        };
        assert_eq!(m.task_count(), 400);
        assert!((m.total_work() - 8000.0).abs() < 1e-9);
        let (mean, cv) = m.aggregate_stats();
        assert!((mean - 20.0).abs() < 1e-9);
        // σ² = E[x²] − µ²; E[x²] = (300·100 + 100·(625+2500))/400 = 856.25…
        let second = (300.0 * 100.0 + 100.0 * (625.0 + 2500.0)) / 400.0;
        let expect_cv = (second - 400.0f64).sqrt() / 20.0;
        assert!((cv - expect_cv).abs() < 1e-9, "{cv} vs {expect_cv}");
    }

    #[test]
    fn comm_cost_counts_cross_edges() {
        let g = diamond();
        // A,B on proc 0; C,D on proc 1: crossing edges A→C, B→D.
        let cost = g.comm_cost(&[0, 0, 1, 1], 10.0, 0.1);
        let expected = (10.0 + 0.1 * 50.0 * 8.0) + (10.0 + 0.1 * 100.0 * 8.0);
        assert!((cost - expected).abs() < 1e-9);
        // Everything on one processor: zero.
        assert_eq!(g.comm_cost(&[0, 0, 0, 0], 10.0, 0.1), 0.0);
    }
}
