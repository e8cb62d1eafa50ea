//! Bridging compiled programs to Delirium graphs.
//!
//! The minimum scheduling grain is fixed by the front end (§4): each
//! piece of the split becomes a graph node whose task count is the
//! piece's loop trip count and whose per-task cost is estimated from
//! static operation counts (scaled by a per-operation time). Dataflow
//! edges come from flow interference between piece descriptors, with
//! data sizes taken from the declared array bounds — the §3.4 "data
//! size and type annotations".
//!
//! Pieces inside a pipelined loop mention the pipeline variable in
//! their bounds (`do i = 1, col-2 and col, n`); their shapes are
//! estimated with the variable bound to its range midpoint.

use crate::compile::Compiled;
use orchestra_analysis::symbolic::{SymExpr, SymValue};
use orchestra_delirium::{DataAnno, DelirGraph, NodeKind};
use orchestra_descriptors::{loop_iteration_descriptor, Descriptor, SymCtx};
use orchestra_lang::ast::{Expr, Program, Stmt};
use orchestra_split::{static_op_count, Piece, PieceClass};
use std::collections::HashMap;

/// Simulated time per abstract MF operation (µs). Calibrated to the
/// nCUBE-2's ≈ 7.5 MFLOPS node processors (≈ 0.13 µs per flop).
pub const OP_MICROSECONDS: f64 = 0.13;

/// Fallback cost for pieces whose operation count is not statically
/// calculable (µs).
const DEFAULT_PIECE_COST: f64 = 500.0;

/// Assumed fraction of a masked loop's iterations that actually execute
/// (the paper's compiler reads this from profile data; 50% is the
/// neutral prior). A data mask *selects* iterations — so it scales the
/// task count, not the per-task cost — and complementary-mask pieces
/// (`B_I`/`B_D`) together cover what the original loop covered.
const MASK_DENSITY: f64 = 0.5;

/// Cost variation assumed across the selected iterations of a masked
/// loop (mask clustering makes them mildly irregular).
const MASKED_CV: f64 = 0.25;

/// Factor applied to merge-piece costs: "merging can often be handled
/// implicitly by the runtime system during data communication" (§2), so
/// only a small residue of the merge's nominal copy cost is charged.
const IMPLICIT_MERGE_FACTOR: f64 = 0.05;

/// Estimates a node kind for a piece: the trip count of its first loop
/// and the per-iteration operation cost. `density` scales the cost for
/// pieces living inside a data-masked (pipelined) loop.
fn piece_shape(piece: &Piece, ctx: &SymCtx, density: f64) -> NodeKind {
    // Find the piece's main loop (skipping accumulator inits).
    let main_loop = piece.stmts.iter().find(|s| matches!(s, Stmt::Do { .. }));
    let total_ops = static_op_count(&piece.stmts, ctx);
    // A merge runs implicitly during data communication: its nominal
    // copy cost shrinks to the residual factor, and it distributes like
    // any other data-parallel operation when it has a loop.
    let merge_factor = if piece.class == PieceClass::Merge { IMPLICIT_MERGE_FACTOR } else { 1.0 };
    if let (Some(Stmt::Do { ranges, .. }), Some(ops)) = (main_loop, total_ops) {
        if let Some(trips) = ctx.trips(ranges) {
            if trips > 0 {
                let mean = ops as f64 * OP_MICROSECONDS * density * merge_factor / trips as f64;
                // A data-dependent mask selects a fraction of the
                // iterations (fewer tasks, same per-task cost, mildly
                // irregular); bounds-clipping masks select all of them.
                let (tasks, cv) = if piece_has_data_mask(piece) {
                    ((((trips as f64) * MASK_DENSITY) as usize).max(1), MASKED_CV)
                } else {
                    (trips as usize, 0.1)
                };
                return NodeKind::DataParallel { tasks, mean_cost: mean, cv };
            }
        }
    }
    let cost = total_ops.map(|o| o as f64 * OP_MICROSECONDS).unwrap_or(DEFAULT_PIECE_COST)
        * density
        * merge_factor;
    if piece.class == PieceClass::Merge {
        NodeKind::Merge { cost }
    } else {
        NodeKind::Task { cost }
    }
}

/// True when a `where` mask reads memory (a data-dependent mask like
/// `mask[i] <> 0`), as opposed to the pure scalar bounds tests iteration
/// splitting inserts for range clipping.
fn is_data_mask(mask: &Expr) -> bool {
    let mut reads_memory = false;
    mask.walk(&mut |e| reads_memory |= matches!(e, Expr::Index(..)));
    reads_memory
}

/// True when the piece contains a loop with a data-dependent mask.
fn piece_has_data_mask(piece: &Piece) -> bool {
    let mut found = false;
    for s in &piece.stmts {
        s.walk(&mut |s| found |= matches!(s, Stmt::Do { mask: Some(m), .. } if is_data_mask(m)));
    }
    found
}

/// Bytes estimate for the data flowing between two pieces: the first
/// block written by `from` and read by `to`, sized from its declaration
/// (8-byte elements), 64 elements when unknown.
fn edge_anno(from: &Descriptor, to: &Descriptor, prog: &Program, ctx: &SymCtx) -> DataAnno {
    for w in &from.writes {
        if to.reads.iter().any(|r| r.block == w.block) {
            let count = decl_elems(&w.block, prog, ctx);
            return DataAnno::array(&*w.block, count);
        }
    }
    DataAnno::scalar("sync")
}

/// Element count of a declared array (product of constant dims).
fn decl_elems(name: &str, prog: &Program, ctx: &SymCtx) -> u64 {
    prog.decl(name)
        .map(|d| {
            d.dims
                .iter()
                .map(|r| {
                    let lo = ctx.lin(&r.lo).and_then(|e| e.as_constant()).unwrap_or(1);
                    let hi = ctx.lin(&r.hi).and_then(|e| e.as_constant()).unwrap_or(8);
                    (hi - lo + 1).max(1) as u64
                })
                .product::<u64>()
                .max(1)
        })
        .unwrap_or(64)
}

/// A context with the pipeline variable bound to its range midpoint,
/// so per-iteration trip counts like `1..col-2 and col..n` fold.
fn midpoint_ctx(base: &SymCtx, loop_stmt: &Stmt) -> SymCtx {
    let mut ctx = base.clone();
    if let Stmt::Do { var, ranges, .. } = loop_stmt {
        if let Some(r) = ranges.first() {
            if let (Some(lo), Some(hi)) = (
                ctx.lin(&r.lo).and_then(|e| e.as_constant()),
                ctx.lin(&r.hi).and_then(|e| e.as_constant()),
            ) {
                let mid = (lo + hi) / 2;
                ctx.values.insert(var.clone(), SymValue::Expr(SymExpr::constant(mid)));
                ctx.killed.remove(var);
            }
        }
    }
    ctx
}

/// Estimate of the data volume (elements) carried between pipeline
/// iterations: the declared size of the first array the dependent
/// pieces read, divided by the iteration count (one column per
/// iteration in the Figure 1 shape), floor 16 elements.
fn carried_elems(pieces: &[&Piece], prog: &Program, ctx: &SymCtx, iters: usize) -> u64 {
    for piece in pieces {
        for t in &piece.descriptor.reads {
            if prog.decl(&t.block).is_some_and(|d| d.is_array()) {
                return (decl_elems(&t.block, prog, ctx) / iters.max(1) as u64).max(16);
            }
        }
    }
    64
}

/// Builds the Delirium graph for a compiled program.
///
/// Returns the graph and the pipeline iteration counts (group name →
/// trip count of the pipelined loop).
pub fn graph_of_compiled(c: &Compiled) -> (DelirGraph, HashMap<String, usize>) {
    let ctx = SymCtx::from_program(&c.transformed);
    let mut g = DelirGraph::new();
    let mut iters = HashMap::new();
    let mut last_pipeline_merge: Option<usize> = None;
    let mut pipeline_pieces: Vec<(usize, &Piece)> = Vec::new();

    if let Some(p) = &c.pipeline {
        let group = format!("pipe_{}", p.loop_name);
        let trips = if let Stmt::Do { ranges, .. } = &p.transformed {
            ctx.trips(ranges).unwrap_or(1).max(1) as usize
        } else {
            1
        };
        // A data-masked pipelined loop executes only a fraction of its
        // iterations: the mask scales the pipeline's iteration count.
        let loop_density = match &p.transformed {
            Stmt::Do { mask: Some(m), .. } if is_data_mask(m) => MASK_DENSITY,
            _ => 1.0,
        };
        let effective_iters = ((trips as f64 * loop_density) as usize).max(1);
        iters.insert(group.clone(), effective_iters);
        let pipe_ctx = midpoint_ctx(&ctx, &p.transformed);
        for piece in &p.split.pieces {
            let kind = piece_shape(piece, &pipe_ctx, 1.0);
            let id =
                g.add_node(format!("{}::{}", p.loop_name, piece.name), kind, Some(group.clone()));
            pipeline_pieces.push((id, piece));
        }
        // Edges inside the group: flow interference in program order.
        for (i, (id_i, piece_i)) in pipeline_pieces.iter().enumerate() {
            for (id_j, piece_j) in pipeline_pieces.iter().skip(i + 1) {
                if piece_j.descriptor.flow_interferes_from(&piece_i.descriptor) {
                    g.add_edge(
                        *id_i,
                        *id_j,
                        edge_anno(&piece_i.descriptor, &piece_j.descriptor, &c.transformed, &ctx),
                    );
                }
            }
        }
        // Carried dependence: each merge feeds the dependent pieces of
        // the next iteration, carrying roughly one iteration's data.
        let merges: Vec<usize> = pipeline_pieces
            .iter()
            .filter(|(_, pc)| pc.class == PieceClass::Merge)
            .map(|(id, _)| *id)
            .collect();
        let dep_pieces: Vec<&Piece> = pipeline_pieces
            .iter()
            .filter(|(_, pc)| pc.class == PieceClass::Dependent)
            .map(|(_, pc)| *pc)
            .collect();
        let deps: Vec<usize> = pipeline_pieces
            .iter()
            .filter(|(_, pc)| pc.class == PieceClass::Dependent)
            .map(|(id, _)| *id)
            .collect();
        let carried = carried_elems(&dep_pieces, &c.transformed, &ctx, trips);
        for &m in &merges {
            for &d in &deps {
                g.add_carried_edge(m, d, DataAnno::array("carried", carried));
            }
            last_pipeline_merge = Some(m);
        }
        if last_pipeline_merge.is_none() {
            last_pipeline_merge = pipeline_pieces.last().map(|(id, _)| *id);
        }
    }

    if let Some(s) = &c.split {
        let mut tail_ids: Vec<(usize, &Piece)> = Vec::new();
        for piece in &s.pieces {
            let kind = piece_shape(piece, &ctx, 1.0);
            let id = g.add_node(piece.name.clone(), kind, None);
            // Dependent/merge pieces wait on the reference computation.
            if piece.class != PieceClass::Independent {
                if let Some(m) = last_pipeline_merge {
                    g.add_edge(m, id, DataAnno::array("ref_out", 1024));
                }
            }
            for (prev_id, prev_piece) in &tail_ids {
                if piece.descriptor.flow_interferes_from(&prev_piece.descriptor) {
                    g.add_edge(
                        *prev_id,
                        id,
                        edge_anno(&prev_piece.descriptor, &piece.descriptor, &c.transformed, &ctx),
                    );
                }
            }
            tail_ids.push((id, piece));
        }
    }

    (g, iters)
}

/// Builds the *baseline* graph of the original program: one node per
/// top-level computation, chained sequentially — the traditional
/// barrier-between-sub-computations compilation.
///
/// A loop whose iterations carry dependences becomes a *sequential
/// phase group* (a self-carried pipeline node executed `trips` times,
/// each iteration exposing only the inner loop's parallelism); an
/// independent loop becomes one data-parallel operation.
///
/// Returns the graph and the phase-group iteration counts.
pub fn baseline_graph(prog: &Program) -> (DelirGraph, HashMap<String, usize>) {
    let ctx = SymCtx::from_program(prog);
    let mut g = DelirGraph::new();
    let mut iters = HashMap::new();
    let mut prev: Option<usize> = None;
    for (i, s) in prog.body.iter().enumerate() {
        let name = match s {
            Stmt::Do { label: Some(l), .. } => l.to_string(),
            _ => format!("stmt{i}"),
        };
        let id = if let Stmt::Do { var, ranges, body, .. } = s {
            let dependent_iterations = loop_iteration_descriptor(s, &ctx)
                .map(|iter| {
                    let shifted =
                        iter.descriptor.subst(var, &SymExpr::name(iter.var.clone()).offset(1));
                    iter.descriptor.interferes(&shifted)
                })
                .unwrap_or(true);
            let outer_trips = ctx.trips(ranges).unwrap_or(1).max(1);
            if dependent_iterations {
                // Sequential phases: per-iteration inner parallelism.
                let pipe_ctx = midpoint_ctx(&ctx, s);
                let inner_tasks = body
                    .iter()
                    .find_map(|b| match b {
                        Stmt::Do { ranges, .. } => pipe_ctx.trips(ranges),
                        _ => None,
                    })
                    .unwrap_or(1)
                    .max(1);
                let per_iter_ops = static_op_count(body, &pipe_ctx).unwrap_or(1000);
                let mean = per_iter_ops as f64 * OP_MICROSECONDS / inner_tasks as f64;
                let masked = matches!(s, Stmt::Do { mask: Some(_), .. });
                let cv = if masked { MASKED_CV } else { 0.1 };
                let effective_iters = if masked {
                    ((outer_trips as f64 * MASK_DENSITY) as usize).max(1)
                } else {
                    outer_trips as usize
                };
                let group = format!("seq_{name}");
                let id = g.add_node(
                    name,
                    NodeKind::DataParallel { tasks: inner_tasks as usize, mean_cost: mean, cv },
                    Some(group.clone()),
                );
                let carried = (inner_tasks as u64).max(16);
                g.add_carried_edge(id, id, DataAnno::array("carried", carried));
                iters.insert(group, effective_iters);
                id
            } else {
                let ops = static_op_count(std::slice::from_ref(s), &ctx).unwrap_or(1000);
                let mean = ops as f64 * OP_MICROSECONDS / outer_trips as f64;
                let masked = matches!(s, Stmt::Do { mask: Some(_), .. });
                let tasks = if masked {
                    ((outer_trips as f64 * MASK_DENSITY) as usize).max(1)
                } else {
                    outer_trips as usize
                };
                let cv = if masked { MASKED_CV } else { 0.1 };
                g.add_node(name, NodeKind::DataParallel { tasks, mean_cost: mean, cv }, None)
            }
        } else {
            let ops = static_op_count(std::slice::from_ref(s), &ctx).unwrap_or(100);
            g.add_node(name, NodeKind::Task { cost: ops as f64 * OP_MICROSECONDS }, None)
        };
        if let Some(p) = prev {
            g.add_edge(p, id, DataAnno::array("seq", 1024));
        }
        prev = Some(id);
    }
    (g, iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use orchestra_lang::builder::figure1_program;
    use orchestra_split::SplitOptions;

    #[test]
    fn figure1_graph_validates() {
        let c = compile(figure1_program(16), &SplitOptions::default());
        let (g, iters) = graph_of_compiled(&c);
        g.validate().unwrap();
        assert!(!g.nodes.is_empty());
        assert_eq!(
            iters.values().copied().max(),
            Some(8),
            "A executes ≈ density·n = 8 masked iterations"
        );
    }

    #[test]
    fn figure1_graph_has_expected_structure() {
        let c = compile(figure1_program(12), &SplitOptions::default());
        let (g, _) = graph_of_compiled(&c);
        // B_I exists and has no non-carried predecessors (independent).
        let bi = g.node_by_name("B_I").expect("B_I node");
        assert!(g.preds(bi).is_empty(), "B_I runs concurrently with the pipeline");
        // B_D waits on the pipeline's merge.
        let bd = g.node_by_name("B_D").expect("B_D node");
        assert!(!g.preds(bd).is_empty());
        // A pipeline group exists with a carried edge.
        assert!(g.edges.iter().any(|e| e.carried));
        assert!(g.nodes.iter().any(|n| n.group.is_some()));
    }

    #[test]
    fn pipeline_pieces_get_real_costs() {
        let c = compile(figure1_program(32), &SplitOptions::default());
        let (g, _) = graph_of_compiled(&c);
        // The pipelined A_I piece must be a data-parallel op with a
        // sensible trip count, not a default-cost task.
        let ai = g
            .nodes
            .iter()
            .find(|n| n.group.is_some() && n.name.ends_with("_I"))
            .expect("pipelined A_I");
        let NodeKind::DataParallel { tasks, mean_cost, .. } = ai.kind else {
            panic!("A_I should be data-parallel, got {:?}", ai.kind)
        };
        assert!((28..=32).contains(&tasks), "≈ n-1 iterations, got {tasks}");
        assert!(mean_cost > 0.0 && mean_cost < 50.0, "per-element cost, got {mean_cost}");
    }

    #[test]
    fn data_parallel_nodes_have_trip_counts() {
        let c = compile(figure1_program(12), &SplitOptions::default());
        let (g, _) = graph_of_compiled(&c);
        let bi = g.node_by_name("B_I").unwrap();
        let NodeKind::DataParallel { tasks, mean_cost, .. } = g.nodes[bi].kind else {
            panic!("B_I should be data-parallel, got {:?}", g.nodes[bi].kind)
        };
        assert_eq!(tasks, 6, "B_I covers the mask-density share of the i loop");
        assert!(mean_cost > 0.0);
    }

    #[test]
    fn baseline_models_sequential_phases() {
        let p = figure1_program(8);
        let (g, iters) = baseline_graph(&p);
        g.validate().unwrap();
        assert_eq!(g.nodes.len(), 2);
        // A's iterations carry dependences (via result/q): phase group.
        let a = g.node_by_name("A").unwrap();
        assert!(g.nodes[a].group.is_some(), "A is a sequential phase group");
        assert_eq!(iters.get("seq_A"), Some(&4), "density · 8 iterations");
        // B's iterations are independent: plain data-parallel node.
        let b = g.node_by_name("B").unwrap();
        assert!(g.nodes[b].group.is_none());
        let NodeKind::DataParallel { tasks, .. } = g.nodes[b].kind else { panic!() };
        assert_eq!(tasks, 8);
    }

    #[test]
    fn masked_loops_are_thinned_and_mildly_irregular() {
        let p = figure1_program(8);
        let (g, iters) = baseline_graph(&p);
        let a = g.node_by_name("A").unwrap();
        let NodeKind::DataParallel { cv, .. } = g.nodes[a].kind else { panic!() };
        assert!(cv > 0.2, "masked phases carry extra irregularity");
        assert_eq!(iters.get("seq_A"), Some(&4), "half the iterations execute");
        let b = g.node_by_name("B").unwrap();
        let NodeKind::DataParallel { cv, tasks, .. } = g.nodes[b].kind else { panic!() };
        assert!(cv <= 0.2, "unmasked loop is regular");
        assert_eq!(tasks, 8, "unmasked loop keeps all iterations");
    }
}
