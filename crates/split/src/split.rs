//! The split transformation driver (§3.3.1).
//!
//! `split` takes a computation `C` (a statement list) and a descriptor
//! `D` of another computation and converts `C` into three computations:
//! the dependent `C_D`, the independent `C_I`, and the merging `C_M`.
//!
//! The transformed output is **order-preserving**: the returned pieces
//! concatenated in order execute exactly like the original `C` (each
//! split Bound loop is expanded in place into `C_I; C_D; C_M`). The
//! independence structure — which pieces may run concurrently with the
//! computation `D` describes — is recorded in the piece classes and is
//! consumed by the Delirium graph builder. This keeps the source-level
//! semantics trivially checkable (the test suites run original and
//! transformed programs and compare stores) while exposing exactly the
//! concurrency the paper's Figures 2–4 expose.

use crate::categorize::{categorize, transitive_flow_down, Categories};
use crate::loop_split::{check_iterations_commute, detect_restriction, split_loop, FreshNames};
use crate::prim::{primitives_of, Prim, PrimKind};
use orchestra_descriptors::{descriptor_of_stmts, Descriptor, SymCtx};
use orchestra_lang::ast::{Decl, Expr, LValue, Name, Program, Stmt};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Options controlling the split heuristics.
#[derive(Debug, Clone)]
pub struct SplitOptions {
    /// Attempt iteration splitting of Bound loops.
    pub enable_loop_split: bool,
    /// Attempt to move ReadLinked computations into the independent set.
    pub move_read_linked: bool,
    /// Maximum operation count of replicated supplier code (the paper's
    /// "below a threshold" test).
    pub replication_threshold: u64,
    /// Minimum profile weight of a ReadLinked computation for the move
    /// to be "expensive enough to justify".
    pub min_move_weight: f64,
    /// Profile weights by primitive name.
    pub profile: HashMap<String, f64>,
}

impl Default for SplitOptions {
    fn default() -> Self {
        SplitOptions {
            enable_loop_split: true,
            move_read_linked: true,
            replication_threshold: 64,
            min_move_weight: 1000.0,
            profile: HashMap::new(),
        }
    }
}

/// Classification of an output piece.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PieceClass {
    /// May execute concurrently with the computation described by `D`.
    Independent,
    /// Must respect the dependence on `D` (or on other pieces).
    Dependent,
    /// Merges replicated results (runs after its I/D siblings).
    Merge,
}

/// One output piece of the split.
#[derive(Debug, Clone)]
pub struct Piece {
    /// Name, derived from the primitive (e.g. `B_I`, `B_D`, `B_M`).
    pub name: String,
    /// Class.
    pub class: PieceClass,
    /// The piece's statements.
    pub stmts: Vec<Stmt>,
    /// Memory summary (recomputed after transformation).
    pub descriptor: Descriptor,
}

/// The result of splitting a computation.
#[derive(Debug, Clone)]
pub struct SplitResult {
    /// Pieces in sequential execution order.
    pub pieces: Vec<Piece>,
    /// Declarations for replicated arrays/accumulators.
    pub new_decls: Vec<Decl>,
    /// The categorization that drove the split.
    pub categories: Categories,
    /// Names of the primitives, indexed like the categories.
    pub prim_names: Vec<String>,
    /// Labels of loops whose iterations were split.
    pub loop_splits: Vec<String>,
    /// Names of ReadLinked primitives moved to the independent set.
    pub moved_read_linked: Vec<String>,
}

impl SplitResult {
    /// The transformed statement list (pieces concatenated in order) —
    /// semantically equivalent to the original computation.
    pub fn stmts(&self) -> Vec<Stmt> {
        self.pieces.iter().flat_map(|p| p.stmts.iter().cloned()).collect()
    }

    /// Statements of all pieces with the given class.
    pub fn stmts_of(&self, class: PieceClass) -> Vec<Stmt> {
        self.pieces
            .iter()
            .filter(|p| p.class == class)
            .flat_map(|p| p.stmts.iter().cloned())
            .collect()
    }

    /// True when the split exposed any concurrency.
    pub fn has_independent_work(&self) -> bool {
        self.pieces.iter().any(|p| p.class == PieceClass::Independent)
    }
}

/// Splits computation `c` (a statement list from `prog`) with respect to
/// descriptor `d`.
pub fn split_computation(
    prog: &Program,
    c: &[Stmt],
    d: &Descriptor,
    opts: &SplitOptions,
) -> SplitResult {
    let ctx = SymCtx::from_program(prog);
    let prims = primitives_of(c, &ctx);
    let categories = categorize(&prims, d);
    let prim_names: Vec<String> = prims.iter().map(|p| p.name.clone()).collect();
    let mut fresh = FreshNames::from_program(prog);

    let mut pieces: Vec<Piece> = Vec::new();
    let mut new_decls: Vec<Decl> = Vec::new();
    let mut loop_splits = Vec::new();
    let mut moved_read_linked = Vec::new();

    // Decide ReadLinked moves up front (they need supplier replication).
    let moves: BTreeMap<usize, Vec<usize>> = if opts.move_read_linked {
        plan_read_linked_moves(&prims, &categories, opts, &ctx)
    } else {
        BTreeMap::new()
    };

    for prim in &prims {
        let id = prim.id;
        if categories.free.contains(&id) {
            pieces.push(piece_from_prim(prim, PieceClass::Independent));
            continue;
        }
        if categories.bound.contains(&id) {
            if opts.enable_loop_split && prim.kind == PrimKind::Loop {
                if let Some(done) =
                    try_loop_split(prog, prim, d, &ctx, &mut fresh, &mut pieces, &mut new_decls)
                {
                    loop_splits.push(done);
                    continue;
                }
            }
            pieces.push(piece_from_prim(prim, PieceClass::Dependent));
            continue;
        }
        // Linked.
        if let Some(suppliers) = moves.get(&id) {
            // Replicate the suppliers with renamed outputs, placing the
            // copies (plus the rewritten ReadLinked code) in an
            // independent piece at this position.
            let (stmts, decls) = replicate_suppliers(prog, &prims, prim, suppliers, &mut fresh);
            if let Some((stmts, decls)) = stmts.map(|s| (s, decls)) {
                let descriptor = descriptor_of_stmts(&stmts, &ctx);
                pieces.push(Piece {
                    name: format!("{}_I", prim.name),
                    class: PieceClass::Independent,
                    stmts,
                    descriptor,
                });
                new_decls.extend(decls);
                moved_read_linked.push(prim.name.clone());
                continue;
            }
        }
        pieces.push(piece_from_prim(prim, PieceClass::Dependent));
    }

    SplitResult { pieces, new_decls, categories, prim_names, loop_splits, moved_read_linked }
}

fn piece_from_prim(prim: &Prim, class: PieceClass) -> Piece {
    Piece {
        name: prim.name.clone(),
        class,
        stmts: prim.stmts.to_vec(),
        descriptor: prim.descriptor.clone(),
    }
}

/// Attempts the iteration split of one Bound loop; on success pushes the
/// three pieces and returns the loop's name.
fn try_loop_split(
    prog: &Program,
    prim: &Prim,
    d: &Descriptor,
    ctx: &SymCtx,
    fresh: &mut FreshNames,
    pieces: &mut Vec<Piece>,
    new_decls: &mut Vec<Decl>,
) -> Option<String> {
    let loop_stmt = &prim.stmts[0];
    let iter = prim.iteration.as_ref()?;
    if iter.ranges.is_empty() {
        return None;
    }
    let Stmt::Do { body, .. } = loop_stmt else { return None };
    let reductions = check_iterations_commute(iter, body)?;
    let privatized = crate::loop_split::privatized_blocks(body, &reductions);
    let restriction = detect_restriction(iter, d, &privatized)?;
    let split = split_loop(prog, loop_stmt, &restriction, &reductions, iter, fresh)?;
    let name = prim.name.clone();
    let ind_d = descriptor_of_stmts(&split.independent, ctx);
    let dep_d = descriptor_of_stmts(&split.dependent, ctx);
    let mer_d = descriptor_of_stmts(&split.merge, ctx);
    pieces.push(Piece {
        name: format!("{name}_I"),
        class: PieceClass::Independent,
        stmts: split.independent,
        descriptor: ind_d,
    });
    pieces.push(Piece {
        name: format!("{name}_D"),
        class: PieceClass::Dependent,
        stmts: split.dependent,
        descriptor: dep_d,
    });
    pieces.push(Piece {
        name: format!("{name}_M"),
        class: PieceClass::Merge,
        stmts: split.merge,
        descriptor: mer_d,
    });
    new_decls.extend(split.new_decls);
    Some(name)
}

/// Plans which ReadLinked primitives to move, per the paper's heuristic:
/// the replicated supplier code's operation count must be calculable and
/// below the threshold, and the computation must be profiled expensive
/// enough. Returns `prim id → supplier ids` for approved moves.
fn plan_read_linked_moves(
    prims: &[Prim],
    cats: &Categories,
    opts: &SplitOptions,
    ctx: &SymCtx,
) -> BTreeMap<usize, Vec<usize>> {
    let mut out = BTreeMap::new();
    for &r in &cats.read_linked {
        let weight = opts.profile.get(&prims[r].name).copied().unwrap_or(0.0);
        if weight < opts.min_move_weight {
            continue;
        }
        // Suppliers: GenerateLinked members from which r transitively
        // flow-depends.
        let mut candidates = cats.generate_linked.clone();
        let suppliers = transitive_flow_down(&mut candidates, &[r], prims);
        let cost: Option<u64> =
            suppliers.iter().map(|&s| static_op_count(prims[s].stmts, ctx)).sum();
        match cost {
            Some(c) if c <= opts.replication_threshold => {
                out.insert(r, suppliers);
            }
            _ => {}
        }
    }
    out
}

/// Statically counts the arithmetic operations a statement list
/// executes; `None` when a loop trip count is not a compile-time
/// constant ("the number of … computations can be calculated"). Known
/// scalar values from `ctx` (e.g. declaration initializers) fold into
/// the trip counts.
pub fn static_op_count(stmts: &[Stmt], ctx: &SymCtx) -> Option<u64> {
    let ops = |e: &Expr| {
        let mut n = 0;
        e.walk(&mut |e| n += u64::from(matches!(e, Expr::Bin(..) | Expr::Un(..) | Expr::Call(..))));
        n
    };
    let mut total: u64 = 0;
    for s in stmts {
        let ops = match s {
            Stmt::Assign { .. } => {
                let mut n = 0;
                s.exprs(&mut |e| n += ops(e));
                n
            }
            Stmt::If { cond, then_body, else_body } => {
                // Conservative: both arms counted.
                ops(cond)
                    .checked_add(static_op_count(then_body, ctx)?)?
                    .checked_add(static_op_count(else_body, ctx)?)?
            }
            Stmt::Do { ranges, mask, body, .. } => {
                let trips = u64::try_from(ctx.trips(ranges)?).ok()?;
                let per_iter = static_op_count(body, ctx)?
                    .checked_add(mask.as_ref().map(ops).unwrap_or(0) + 1)?;
                trips.checked_mul(per_iter)?
            }
            Stmt::Call { .. } => return None,
        };
        // A count past `u64` "cannot be calculated" either.
        total = total.checked_add(ops)?;
    }
    Some(total)
}

/// Replicates supplier primitives with renamed outputs and rewrites the
/// moved ReadLinked primitive to read the copies.
///
/// Returns `(Some(stmts), decls)` on success.
fn replicate_suppliers(
    prog: &Program,
    prims: &[Prim],
    moved: &Prim,
    suppliers: &[usize],
    fresh: &mut FreshNames,
) -> (Option<Vec<Stmt>>, Vec<Decl>) {
    let mut rename: BTreeMap<Name, Name> = BTreeMap::new();
    let mut decls = Vec::new();
    let mut stmts = Vec::new();
    // Process suppliers in program order so chained copies read the
    // right replicas.
    let mut ordered: Vec<usize> = suppliers.to_vec();
    ordered.sort_unstable();
    for &sid in &ordered {
        let sup = &prims[sid];
        // Rename everything the supplier writes.
        let mut written = BTreeSet::new();
        let mut scalars = BTreeSet::new();
        for s in sup.stmts {
            s.array_writes(&mut written);
            s.walk(&mut |s| {
                if let Stmt::Assign { target: LValue::Var(v), .. } = s {
                    scalars.insert(v.clone());
                }
            });
        }
        for name in written.iter().chain(&scalars) {
            let Some(decl) = prog.decl(name) else { return (None, Vec::new()) };
            let copy = fresh.fresh(name, "__r");
            let mut d2 = decl.clone();
            d2.name = copy.clone();
            decls.push(d2);
            rename.insert(name.clone(), copy);
        }
        // A full α-rename: the replicas start fresh.
        stmts.extend(sup.stmts.iter().map(|s| s.rename(&|n| rename.get(n).cloned())));
    }
    stmts.extend(moved.stmts.iter().map(|s| s.rename(&|n| rename.get(n).cloned())));
    (Some(stmts), decls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_descriptors::descriptor_of_stmt;
    use orchestra_lang::interp::{Env, Interp, Value};
    use orchestra_lang::parse_program;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Runs a program and its transformed version on identical random
    /// inputs; the final stores (projected to the original variables)
    /// must be equal.
    fn assert_equivalent(orig: &Program, transformed: &Program, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inputs = Env::new();
        // Randomize every declared array of the original program.
        let probe = Interp::new().run(orig, &Env::new()).unwrap();
        for (name, v) in &probe {
            match v {
                Value::IntArray { dims, data } => {
                    inputs.insert(
                        name.clone(),
                        Value::IntArray {
                            dims: dims.clone(),
                            data: data.iter().map(|_| rng.gen_range(0..3)).collect(),
                        },
                    );
                }
                Value::FloatArray { dims, data } => {
                    inputs.insert(
                        name.clone(),
                        Value::FloatArray {
                            dims: dims.clone(),
                            data: data
                                .iter()
                                .map(|_| (rng.gen_range(-100..100) as f64) * 0.25)
                                .collect(),
                        },
                    );
                }
                _ => {}
            }
        }
        let e1 = Interp::new().run(orig, &inputs).unwrap();
        let e2 = Interp::new().run(transformed, &inputs).unwrap();
        // Every declared variable: an undeclared loop variable is loop
        // machinery, and its exit value is not preserved by the
        // transformation (nor by the paper's).
        for d in &orig.decls {
            let name = &d.name;
            let (v, got) = (&e1[name.as_str()], &e2[name.as_str()]);
            match (v, got) {
                (Value::Float(a), Value::Float(b)) => {
                    assert!((a - b).abs() < 1e-9, "{name}: {a} vs {b}")
                }
                (Value::FloatArray { data: a, .. }, Value::FloatArray { data: b, .. }) => {
                    for (x, y) in a.iter().zip(b) {
                        assert!((x - y).abs() < 1e-9, "{name}: {x} vs {y}");
                    }
                }
                _ => assert_eq!(v, got, "variable {name}"),
            }
        }
    }

    /// Builds the transformed program: original decls + new decls, with
    /// the body = prefix ++ split(C) ++ suffix.
    fn transformed_program(
        prog: &Program,
        before: &[Stmt],
        result: &SplitResult,
        after: &[Stmt],
    ) -> Program {
        let mut p2 = prog.clone();
        p2.decls.extend(result.new_decls.iter().cloned());
        p2.body = before.to_vec();
        p2.body.extend(result.stmts());
        p2.body.extend(after.to_vec());
        p2
    }

    #[test]
    fn figure1_split_of_b_is_semantics_preserving() {
        let p = orchestra_lang::builder::figure1_program(8);
        let ctx = SymCtx::from_program(&p);
        let da = descriptor_of_stmt(&p.body[0], &ctx);
        let result = split_computation(&p, &p.body[1..], &da, &SplitOptions::default());
        assert_eq!(result.loop_splits, vec!["B"]);
        assert!(result.has_independent_work());
        let p2 = transformed_program(&p, &p.body[..1], &result, &[]);
        for seed in 0..5 {
            assert_equivalent(&p, &p2, seed);
        }
    }

    #[test]
    fn figure1_piece_names_follow_paper() {
        let p = orchestra_lang::builder::figure1_program(6);
        let ctx = SymCtx::from_program(&p);
        let da = descriptor_of_stmt(&p.body[0], &ctx);
        let result = split_computation(&p, &p.body[1..], &da, &SplitOptions::default());
        let names: Vec<&str> = result.pieces.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["B_I", "B_D", "B_M"]);
        let classes: Vec<PieceClass> = result.pieces.iter().map(|p| p.class).collect();
        assert_eq!(
            classes,
            vec![PieceClass::Independent, PieceClass::Dependent, PieceClass::Merge]
        );
    }

    #[test]
    fn figure4_split_is_semantics_preserving() {
        let p = orchestra_lang::builder::figure4_program(7, 4);
        let ctx = SymCtx::from_program(&p);
        let dg = descriptor_of_stmt(&p.body[0], &ctx);
        let result = split_computation(&p, &p.body[1..], &dg, &SplitOptions::default());
        assert_eq!(result.loop_splits, vec!["H"]);
        let p2 = transformed_program(&p, &p.body[..1], &result, &[]);
        for seed in 0..5 {
            assert_equivalent(&p, &p2, seed);
        }
    }

    #[test]
    fn independent_piece_really_independent() {
        let p = orchestra_lang::builder::figure1_program(6);
        let ctx = SymCtx::from_program(&p);
        let da = descriptor_of_stmt(&p.body[0], &ctx);
        let result = split_computation(&p, &p.body[1..], &da, &SplitOptions::default());
        let ind = &result.pieces[0];
        assert_eq!(ind.class, PieceClass::Independent);
        assert!(
            !ind.descriptor.interferes(&da),
            "B_I must not interfere with A:\n{}",
            ind.descriptor
        );
    }

    #[test]
    fn unsplittable_bound_loop_stays_dependent() {
        let p = parse_program(
            r#"
program p
  integer n = 5
  float x[1..n], y[1..n]
  W: do i = 1, n { x[i] = 1.0 }
  L: do i = 1, n { y[i] = x[i] }
end
"#,
        )
        .unwrap();
        let ctx = SymCtx::from_program(&p);
        let dw = descriptor_of_stmt(&p.body[0], &ctx);
        let result = split_computation(&p, &p.body[1..], &dw, &SplitOptions::default());
        assert!(result.loop_splits.is_empty());
        assert_eq!(result.pieces.len(), 1);
        assert_eq!(result.pieces[0].class, PieceClass::Dependent);
    }

    #[test]
    fn free_computation_becomes_independent_piece() {
        let p = parse_program(
            r#"
program p
  integer n = 5
  float x[1..n], z[1..n]
  W: do i = 1, n { x[i] = 1.0 }
  F: do i = 1, n { z[i] = 2.0 }
end
"#,
        )
        .unwrap();
        let ctx = SymCtx::from_program(&p);
        let dw = descriptor_of_stmt(&p.body[0], &ctx);
        let result = split_computation(&p, &p.body[1..], &dw, &SplitOptions::default());
        assert_eq!(result.pieces[0].class, PieceClass::Independent);
        assert_eq!(result.pieces[0].name, "F");
    }

    #[test]
    fn read_linked_move_replicates_supplier() {
        // W writes x; B reads x (Bound); A generates y for B; C reads y
        // (ReadLinked). With a high profile weight on C, it moves.
        let src = r#"
program p
  integer n = 4
  float x[1..n], y[1..n], bo[1..n], z[1..n], sum
  W: do i = 1, n { x[i] = 1.0 }
  A: do i = 1, n { y[i] = 2.0 }
  B: do i = 1, n { bo[i] = x[i] + y[i] }
  C: do i = 1, n { z[i] = y[i] * 3.0 }
end
"#;
        let p = parse_program(src).unwrap();
        let ctx = SymCtx::from_program(&p);
        let dw = descriptor_of_stmt(&p.body[0], &ctx);
        let mut opts = SplitOptions::default();
        opts.profile.insert("C".into(), 1e6);
        let result = split_computation(&p, &p.body[1..], &dw, &opts);
        assert_eq!(result.moved_read_linked, vec!["C"]);
        // The moved piece contains the replicated A plus rewritten C.
        let moved = result.pieces.iter().find(|pc| pc.name == "C_I").unwrap();
        assert_eq!(moved.class, PieceClass::Independent);
        assert_eq!(moved.stmts.len(), 2, "copy of A + rewritten C");
        assert!(result.new_decls.iter().any(|d| d.name == "y__r"));
        // Semantics preserved.
        let p2 = transformed_program(&p, &p.body[..1], &result, &[]);
        for seed in 0..3 {
            assert_equivalent(&p, &p2, seed);
        }
    }

    #[test]
    fn read_linked_not_moved_when_cheap_profile() {
        let src = r#"
program p
  integer n = 4
  float x[1..n], y[1..n], bo[1..n], z[1..n]
  W: do i = 1, n { x[i] = 1.0 }
  A: do i = 1, n { y[i] = 2.0 }
  B: do i = 1, n { bo[i] = x[i] + y[i] }
  C: do i = 1, n { z[i] = y[i] * 3.0 }
end
"#;
        let p = parse_program(src).unwrap();
        let ctx = SymCtx::from_program(&p);
        let dw = descriptor_of_stmt(&p.body[0], &ctx);
        let result = split_computation(&p, &p.body[1..], &dw, &SplitOptions::default());
        assert!(result.moved_read_linked.is_empty(), "no profile weight → no move");
    }

    #[test]
    fn read_linked_not_moved_when_supplier_too_big() {
        let src = r#"
program p
  integer n = 100
  float x[1..n], y[1..n], bo[1..n], z[1..n]
  W: do i = 1, n { x[i] = 1.0 }
  A: do i = 1, n { y[i] = 2.0 }
  B: do i = 1, n { bo[i] = x[i] + y[i] }
  C: do i = 1, n { z[i] = y[i] * 3.0 }
end
"#;
        let p = parse_program(src).unwrap();
        let ctx = SymCtx::from_program(&p);
        let dw = descriptor_of_stmt(&p.body[0], &ctx);
        let mut opts = SplitOptions::default();
        opts.profile.insert("C".into(), 1e6);
        opts.replication_threshold = 50; // A costs ~200 ops at n=100
        let result = split_computation(&p, &p.body[1..], &dw, &opts);
        assert!(result.moved_read_linked.is_empty());
    }

    #[test]
    fn static_op_count_basics() {
        let p = parse_program(
            "program p\n integer n = 10\n float x[1..n]\n do i = 1, n { x[i] = x[i] + 1.0 }\nend",
        )
        .unwrap();
        // 10 iterations × (1 add + 1 loop overhead op) = 20.
        let ctx = SymCtx::from_program(&p);
        assert_eq!(static_op_count(&p.body, &ctx), Some(20));
        let q = parse_program(
            "program p\n integer n\n float x[1..100]\n do i = 1, n { x[i] = 1.0 }\nend",
        )
        .unwrap();
        let qctx = SymCtx::from_program(&q);
        assert_eq!(static_op_count(&q.body, &qctx), None, "symbolic trip count");
    }

    /// An empty strided range runs no iteration, whichever way it steps;
    /// each of these was counted as one.
    #[test]
    fn static_op_count_of_an_empty_strided_range_is_zero() {
        for range in ["2, 1, 2", "5, 3, 2", "3, 5, -2"] {
            let src = format!("program p\n integer z\n do i = {range} {{ z = z + 1 }}\nend");
            let p = parse_program(&src).unwrap();
            assert_eq!(static_op_count(&p.body, &SymCtx::from_program(&p)), Some(0), "{range}");
        }
    }

    #[test]
    fn static_op_count_past_u64_is_not_a_count() {
        // 100000^4 iterations of one add and one loop op: 2e20 > u64::MAX.
        // Unchecked, release builds returned Some(15533559272904583840)
        // and a deeper nest can wrap below `replication_threshold`.
        let nest = |depth: usize| {
            let vars = ["i", "j", "k", "l", "m"];
            let open: String =
                vars[..depth].iter().map(|v| format!("do {v} = 1, 100000 {{ ")).collect();
            let src = format!("program p\n float s\n {open}s = s + 1.0{}\nend", " }".repeat(depth));
            let p = parse_program(&src).unwrap();
            static_op_count(&p.body, &SymCtx::from_program(&p))
        };
        assert_eq!(nest(3), Some(2_000_010_000_100_000), "fits: counted exactly");
        assert_eq!(nest(4), None);
        assert_eq!(nest(5), None);
    }

    #[test]
    fn split_against_empty_descriptor_yields_all_free() {
        let p = orchestra_lang::builder::figure1_program(4);
        let result =
            split_computation(&p, &p.body[1..], &Descriptor::new(), &SplitOptions::default());
        assert!(result.pieces.iter().all(|pc| pc.class == PieceClass::Independent));
    }
}
