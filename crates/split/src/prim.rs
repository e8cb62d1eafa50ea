//! Primitive computations (§3.3.1).
//!
//! "The split algorithm begins by subdividing C into primitive
//! computations … the blocks of code that are managed by the
//! transformation; the choice of primitive computation determines the
//! granularity of the split. We have chosen to consider basic blocks,
//! function calls, and loops as primitive computations."

use orchestra_descriptors::{
    descriptor_of_stmt, descriptor_of_stmts, loop_iteration_descriptor, Descriptor, LoopIteration,
    SymCtx,
};
use orchestra_lang::ast::Stmt;
use std::fmt;

/// The kind of a primitive computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimKind {
    /// A `do` loop (possibly nested inside).
    Loop,
    /// A procedure call.
    Call,
    /// A maximal run of straight-line assignments and conditionals.
    Block,
}

/// One primitive computation: a slice of the original statement list
/// plus its symbolic data descriptor.
#[derive(Debug, Clone)]
pub struct Prim<'a> {
    /// Position among the computation's primitives (program order).
    pub id: usize,
    /// Display name: the loop label when present, else `kind#id`.
    pub name: String,
    /// Kind.
    pub kind: PrimKind,
    /// The statements making up this primitive.
    pub stmts: &'a [Stmt],
    /// Memory summary of the statements.
    pub descriptor: Descriptor,
    /// Of a loop, the one-iteration summary `descriptor` was promoted
    /// from, in the context as of the loop's position.
    pub iteration: Option<LoopIteration>,
}

impl fmt::Display for Prim<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:?})", self.name, self.kind)
    }
}

/// Subdivides a statement list into primitive computations, computing
/// each one's descriptor with the symbolic context as of its position
/// (scalar kills accumulate left to right, exactly as in
/// [`descriptor_of_stmts`]).
pub fn primitives_of<'a>(stmts: &'a [Stmt], ctx: &SymCtx) -> Vec<Prim<'a>> {
    let mut prims: Vec<Prim> = Vec::new();
    let mut running = ctx.clone();
    // Where the open run of straight-line statements starts.
    let mut run_start = 0;

    let flush = |run: &'a [Stmt], prims: &mut Vec<Prim<'a>>, running: &SymCtx| {
        if run.is_empty() {
            return;
        }
        let id = prims.len();
        prims.push(Prim {
            id,
            name: format!("block#{id}"),
            kind: PrimKind::Block,
            stmts: run,
            descriptor: descriptor_of_stmts(run, running),
            iteration: None,
        });
    };

    for (at, s) in stmts.iter().enumerate() {
        if matches!(s, Stmt::Assign { .. } | Stmt::If { .. }) {
            advance_ctx(s, &mut running);
            continue;
        }
        flush(&stmts[run_start..at], &mut prims, &running);
        run_start = at + 1;
        let id = prims.len();
        let (name, kind, descriptor, iteration) = match s {
            Stmt::Call { name, .. } => {
                (format!("call:{name}#{id}"), PrimKind::Call, descriptor_of_stmt(s, &running), None)
            }
            Stmt::Do { label, .. } => {
                let name = label.as_deref().map_or_else(|| format!("loop#{id}"), str::to_string);
                let iter = loop_iteration_descriptor(s, &running).expect("a loop");
                (name, PrimKind::Loop, iter.whole_loop(), Some(iter))
            }
            Stmt::Assign { .. } | Stmt::If { .. } => unreachable!("they form the runs"),
        };
        prims.push(Prim { id, name, kind, stmts: std::slice::from_ref(s), descriptor, iteration });
        if kind == PrimKind::Loop {
            advance_ctx(s, &mut running);
        }
    }
    flush(&stmts[run_start..], &mut prims, &running);
    prims
}

/// Applies a statement's scalar kills to the running context, mirroring
/// `descriptor_of_stmts`' conservative bookkeeping.
fn advance_ctx(s: &Stmt, ctx: &mut SymCtx) {
    let mut writes = std::collections::BTreeSet::new();
    s.scalar_writes(&mut writes);
    for w in writes {
        ctx.values.remove(&w);
        ctx.killed.insert(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_lang::parse_program;

    /// Primitives borrow their statements: the program is leaked.
    fn prims_of(src: &str) -> Vec<Prim<'static>> {
        let p = Box::leak(Box::new(parse_program(src).unwrap()));
        let ctx = SymCtx::from_program(p);
        primitives_of(&p.body, &ctx)
    }

    #[test]
    fn figure4_has_expected_primitives() {
        // G is a loop + a basic block; H is a loop + a block.
        let ps = prims_of(
            r#"
program p
  integer n = 4, a = 2
  float x[1..n, 1..n], y[1..n], sum, sum0
  G: do i = 1, n {
    x[a, i] = x[a, i] + y[i]
  }
  sum0 = 0.0
  H: do i = 1, n {
    do j = 1, n {
      sum = sum + x[i, j]
    }
  }
  sum = sum + sum0
end
"#,
        );
        assert_eq!(ps.len(), 4);
        assert_eq!(ps[0].kind, PrimKind::Loop);
        assert_eq!(ps[0].name, "G");
        assert_eq!(ps[1].kind, PrimKind::Block);
        assert_eq!(ps[2].name, "H");
        assert_eq!(ps[3].kind, PrimKind::Block);
    }

    #[test]
    fn consecutive_assigns_form_one_block() {
        let ps = prims_of("program p\n integer a, b, c\n a = 1\n b = 2\n c = 3\nend");
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].stmts.len(), 3);
    }

    #[test]
    fn call_is_its_own_primitive() {
        let ps = prims_of(
            "program p\n integer n = 2, a\n float x[1..n]\n proc z(float x[1..n]) { x[1] = 0.0 }\n a = 1\n call z(x)\n a = 2\nend",
        );
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[1].kind, PrimKind::Call);
    }

    #[test]
    fn descriptors_attached() {
        let ps =
            prims_of("program p\n integer n = 3\n float x[1..n]\n do i = 1, n { x[i] = 1.0 }\nend");
        assert_eq!(ps[0].descriptor.writes.len(), 1);
        assert_eq!(&*ps[0].descriptor.writes[0].block, "x");
    }

    #[test]
    fn later_prims_see_kills() {
        // k is read from memory before the second loop; its use as an
        // index must widen there.
        let ps = prims_of(
            "program p\n integer n = 4, k\n integer m[1..n]\n float x[1..n], y[1..n]\n do i = 1, n { x[i] = 1.0 }\n k = m[1]\n y[k] = 2.0\nend",
        );
        let block = ps.last().unwrap();
        let w = block.descriptor.writes.iter().find(|t| &*t.block == "y").unwrap();
        assert_eq!(w.pattern, None, "k is killed; write widens to whole array");
    }
}
