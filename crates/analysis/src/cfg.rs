//! Control-flow graph construction (step 2 of the paper's analysis).
//!
//! Structured MF statements are lowered into a graph of basic blocks with
//! explicit branch/jump terminators. `do` loops become the classic
//! preheader / header / body / increment / exit diamond; masked loops
//! gain a mask-test block between the header and the body.
//!
//! Each block records the scalars it reads and writes and the arrays it
//! touches — the "memory usage" annotation the paper attaches to CFG
//! nodes before descriptor construction.

use orchestra_lang::ast::{BinOp, Expr, LValue, Name, Stmt};
use std::collections::BTreeSet;
use std::fmt;

/// Index of a basic block within a [`Cfg`].
pub type BlockId = usize;

/// A non-branching statement placed inside a basic block.
#[derive(Debug, Clone, PartialEq)]
pub enum SimpleStmt {
    /// Assignment to a scalar or array element.
    Assign {
        /// Destination.
        target: LValue,
        /// Source expression.
        value: Expr,
    },
    /// Procedure call.
    Call {
        /// Procedure name.
        name: Name,
        /// Actual arguments.
        args: Vec<Expr>,
    },
}

/// A basic-block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch.
    Branch {
        /// Branch condition (non-zero means taken).
        cond: Expr,
        /// Successor when the condition holds.
        then_b: BlockId,
        /// Successor when the condition fails.
        else_b: BlockId,
    },
    /// Program (or fragment) exit.
    Exit,
}

impl Terminator {
    /// Successor block ids, in order.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        let (first, second) = match self {
            Terminator::Jump(b) => (Some(*b), None),
            Terminator::Branch { then_b, else_b, .. } => (Some(*then_b), Some(*else_b)),
            Terminator::Exit => (None, None),
        };
        first.into_iter().chain(second)
    }
}

/// The role a block plays in the loop structure (used by the induction
/// variable recognizer and by tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockRole {
    /// Ordinary straight-line code.
    Plain,
    /// Loop preheader (initializes the induction variable).
    Preheader,
    /// Loop header (bounds test).
    Header,
    /// Mask-test block of a masked loop.
    MaskTest,
    /// Loop increment block.
    Increment,
    /// Loop exit landing block.
    Exit,
}

/// A basic block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Straight-line statements.
    pub stmts: Vec<SimpleStmt>,
    /// Terminator.
    pub term: Terminator,
    /// Predecessor blocks (filled by [`Cfg::compute_preds`]).
    pub preds: Vec<BlockId>,
    /// Structural role.
    pub role: BlockRole,
}

impl Block {
    fn new(role: BlockRole) -> Self {
        Block { stmts: Vec::new(), term: Terminator::Exit, preds: Vec::new(), role }
    }

    /// Scalar variables read by statements or the terminator.
    pub fn scalar_uses(&self) -> BTreeSet<Name> {
        let mut out = BTreeSet::new();
        for s in &self.stmts {
            match s {
                SimpleStmt::Assign { target, value } => {
                    if let LValue::Index(_, idx) = target {
                        for e in idx {
                            e.scalar_reads(&mut out);
                        }
                    }
                    value.scalar_reads(&mut out);
                }
                SimpleStmt::Call { args, .. } => {
                    for a in args {
                        a.scalar_reads(&mut out);
                    }
                }
            }
        }
        if let Terminator::Branch { cond, .. } = &self.term {
            cond.scalar_reads(&mut out);
        }
        out
    }

    /// Arrays written by statements in this block.
    pub fn array_defs(&self) -> BTreeSet<Name> {
        let mut out = BTreeSet::new();
        for s in &self.stmts {
            match s {
                SimpleStmt::Assign { target: LValue::Index(a, _), .. } => {
                    out.insert(a.clone());
                }
                SimpleStmt::Call { args, .. } => {
                    // Conservative: a call may write any array argument.
                    for a in args {
                        if let Expr::Var(n) = a {
                            out.insert(n.clone());
                        }
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Arrays read by statements or the terminator.
    pub fn array_uses(&self) -> BTreeSet<Name> {
        let mut out = BTreeSet::new();
        for s in &self.stmts {
            match s {
                SimpleStmt::Assign { target, value } => {
                    if let LValue::Index(_, idx) = target {
                        for e in idx {
                            e.array_reads(&mut out);
                        }
                    }
                    value.array_reads(&mut out);
                }
                SimpleStmt::Call { args, .. } => {
                    for a in args {
                        a.array_reads(&mut out);
                    }
                }
            }
        }
        if let Terminator::Branch { cond, .. } = &self.term {
            cond.array_reads(&mut out);
        }
        out
    }
}

/// Metadata about one lowered `do` loop.
#[derive(Debug, Clone)]
pub struct LoopShape {
    /// Induction variable name.
    pub var: Name,
    /// Preheader block.
    pub preheader: BlockId,
    /// Header (bounds-test) block.
    pub header: BlockId,
    /// Increment block.
    pub increment: BlockId,
    /// Exit block.
    pub exit: BlockId,
    /// Lower bound expression.
    pub lo: Expr,
    /// Upper bound expression.
    pub hi: Expr,
    /// Step expression (None = 1).
    pub step: Option<Expr>,
}

/// A control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// All blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Entry block id (always 0).
    pub entry: BlockId,
    /// Loops discovered during lowering, outermost first.
    pub loops: Vec<LoopShape>,
}

impl Cfg {
    /// Lowers a whole program: scalar declaration initializers become
    /// assignments in the entry block, followed by the body.
    pub fn from_program(prog: &orchestra_lang::ast::Program) -> Cfg {
        let mut stmts: Vec<Stmt> = prog
            .decls
            .iter()
            .filter(|d| !d.is_array())
            .filter_map(|d| {
                d.init.as_ref().map(|init| Stmt::Assign {
                    target: LValue::Var(d.name.clone()),
                    value: init.clone(),
                })
            })
            .collect();
        stmts.extend(prog.body.iter().cloned());
        Cfg::from_stmts(&stmts)
    }

    /// Lowers a statement list into a CFG.
    pub fn from_stmts(stmts: &[Stmt]) -> Cfg {
        let mut b = Builder { blocks: Vec::new(), loops: Vec::new() };
        let entry = b.new_block(BlockRole::Plain);
        let last = b.lower_seq(stmts, entry);
        b.blocks[last].term = Terminator::Exit;
        let mut cfg = Cfg { blocks: b.blocks, entry, loops: b.loops };
        cfg.compute_preds();
        cfg
    }

    /// Recomputes predecessor lists from terminators.
    pub fn compute_preds(&mut self) {
        for bl in &mut self.blocks {
            bl.preds.clear();
        }
        for i in 0..self.blocks.len() {
            for s in self.blocks[i].term.successors() {
                self.blocks[s].preds.push(i);
            }
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if the graph has no blocks (never happens for `from_stmts`).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Reverse postorder over reachable blocks.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::new();
        // Iterative DFS to avoid recursion depth limits on long programs.
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry, 0)];
        visited[self.entry] = true;
        while let Some(&(b, next)) = stack.last() {
            if let Some(s) = self.blocks[b].term.successors().nth(next) {
                stack.last_mut().expect("nonempty").1 += 1;
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }
}

impl fmt::Display for Cfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, b) in self.blocks.iter().enumerate() {
            writeln!(f, "B{i} ({:?}):", b.role)?;
            for s in &b.stmts {
                match s {
                    SimpleStmt::Assign { target, value } => {
                        let t = match target {
                            LValue::Var(v) => v.to_string(),
                            LValue::Index(a, _) => format!("{a}[…]"),
                        };
                        writeln!(f, "  {t} = {}", orchestra_lang::pretty::expr_to_string(value))?;
                    }
                    SimpleStmt::Call { name, .. } => writeln!(f, "  call {name}(…)")?,
                }
            }
            match &b.term {
                Terminator::Jump(t) => writeln!(f, "  jump B{t}")?,
                Terminator::Branch { cond, then_b, else_b } => writeln!(
                    f,
                    "  branch ({}) B{then_b} B{else_b}",
                    orchestra_lang::pretty::expr_to_string(cond)
                )?,
                Terminator::Exit => writeln!(f, "  exit")?,
            }
        }
        Ok(())
    }
}

struct Builder {
    blocks: Vec<Block>,
    loops: Vec<LoopShape>,
}

impl Builder {
    fn new_block(&mut self, role: BlockRole) -> BlockId {
        self.blocks.push(Block::new(role));
        self.blocks.len() - 1
    }

    /// Lowers a sequence into blocks starting at `cur`; returns the block
    /// where control ends up afterwards.
    fn lower_seq(&mut self, stmts: &[Stmt], mut cur: BlockId) -> BlockId {
        for s in stmts {
            cur = self.lower_stmt(s, cur);
        }
        cur
    }

    fn lower_stmt(&mut self, s: &Stmt, cur: BlockId) -> BlockId {
        match s {
            Stmt::Assign { target, value } => {
                self.blocks[cur]
                    .stmts
                    .push(SimpleStmt::Assign { target: target.clone(), value: value.clone() });
                cur
            }
            Stmt::Call { name, args } => {
                self.blocks[cur]
                    .stmts
                    .push(SimpleStmt::Call { name: name.clone(), args: args.clone() });
                cur
            }
            Stmt::If { cond, then_body, else_body } => {
                let then_entry = self.new_block(BlockRole::Plain);
                let else_entry = self.new_block(BlockRole::Plain);
                let join = self.new_block(BlockRole::Plain);
                self.blocks[cur].term = Terminator::Branch {
                    cond: cond.clone(),
                    then_b: then_entry,
                    else_b: else_entry,
                };
                let then_end = self.lower_seq(then_body, then_entry);
                self.blocks[then_end].term = Terminator::Jump(join);
                let else_end = self.lower_seq(else_body, else_entry);
                self.blocks[else_end].term = Terminator::Jump(join);
                join
            }
            Stmt::Do { var, ranges, mask, body, .. } => {
                let mut cur = cur;
                for r in ranges {
                    cur = self.lower_loop(var, r, mask.as_ref(), body, cur);
                }
                cur
            }
        }
    }

    fn lower_loop(
        &mut self,
        var: &Name,
        r: &orchestra_lang::ast::Range,
        mask: Option<&Expr>,
        body: &[Stmt],
        cur: BlockId,
    ) -> BlockId {
        let preheader = cur;
        let header = self.new_block(BlockRole::Header);
        let increment = self.new_block(BlockRole::Increment);
        let exit = self.new_block(BlockRole::Exit);

        // preheader: var = lo
        self.blocks[preheader]
            .stmts
            .push(SimpleStmt::Assign { target: LValue::Var(var.clone()), value: r.lo.clone() });
        self.blocks[preheader].term = Terminator::Jump(header);
        if self.blocks[preheader].role == BlockRole::Plain {
            self.blocks[preheader].role = BlockRole::Preheader;
        }

        // Loop test: positive step uses `var <= hi`; a provably negative
        // constant step uses `var >= hi`.
        let descending = r.step.as_ref().and_then(|e| e.as_int()).is_some_and(|v| v < 0);
        let cmp = if descending { BinOp::Ge } else { BinOp::Le };
        let cond = Expr::bin(cmp, Expr::Var(var.clone()), r.hi.clone());

        // Body entry (behind the mask test if masked).
        let body_entry = if let Some(m) = mask {
            let mask_block = self.new_block(BlockRole::MaskTest);
            let body_head = self.new_block(BlockRole::Plain);
            self.blocks[header].term =
                Terminator::Branch { cond, then_b: mask_block, else_b: exit };
            self.blocks[mask_block].term =
                Terminator::Branch { cond: m.clone(), then_b: body_head, else_b: increment };
            body_head
        } else {
            let body_head = self.new_block(BlockRole::Plain);
            self.blocks[header].term = Terminator::Branch { cond, then_b: body_head, else_b: exit };
            body_head
        };

        let body_end = self.lower_seq(body, body_entry);
        self.blocks[body_end].term = Terminator::Jump(increment);

        // increment: var = var + step
        let step = r.step.clone().unwrap_or(Expr::IntLit(1));
        self.blocks[increment].stmts.push(SimpleStmt::Assign {
            target: LValue::Var(var.clone()),
            value: Expr::bin(BinOp::Add, Expr::Var(var.clone()), step),
        });
        self.blocks[increment].term = Terminator::Jump(header);

        self.loops.push(LoopShape {
            var: var.clone(),
            preheader,
            header,
            increment,
            exit,
            lo: r.lo.clone(),
            hi: r.hi.clone(),
            step: r.step.clone(),
        });
        exit
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
    fn straight_line_is_one_block() {
        let cfg = cfg_of("program p\n integer a, b\n a = 1\n b = 2\nend");
        assert_eq!(cfg.len(), 1);
        assert_eq!(cfg.blocks[0].stmts.len(), 2);
        assert_eq!(cfg.blocks[0].term, Terminator::Exit);
    }

    #[test]
    fn if_produces_diamond() {
        let cfg = cfg_of("program p\n integer a, b\n if (a = 0) { b = 1 } else { b = 2 }\nend");
        // entry, then, else, join
        assert_eq!(cfg.len(), 4);
        let Terminator::Branch { then_b, else_b, .. } = &cfg.blocks[0].term else { panic!() };
        assert_ne!(then_b, else_b);
        // Both arms join.
        assert_eq!(cfg.blocks[*then_b].term, cfg.blocks[*else_b].term);
    }

    #[test]
    fn loop_produces_back_edge() {
        let cfg =
            cfg_of("program p\n integer n = 3\n integer x[1..n]\n do i = 1, n { x[i] = i }\nend");
        assert_eq!(cfg.loops.len(), 1);
        let l = &cfg.loops[0];
        // The increment jumps back to the header.
        assert_eq!(cfg.blocks[l.increment].term, Terminator::Jump(l.header));
        // The header has two predecessors: preheader and increment.
        assert_eq!(cfg.blocks[l.header].preds.len(), 2);
    }

    #[test]
    fn masked_loop_has_mask_block() {
        let cfg = cfg_of(
            "program p\n integer n = 3\n integer m[1..n], x[1..n]\n do i = 1, n where (m[i] <> 0) { x[i] = 1 }\nend",
        );
        assert!(cfg.blocks.iter().any(|b| b.role == BlockRole::MaskTest));
    }

    #[test]
    fn discontinuous_range_generates_two_loops() {
        let cfg = cfg_of(
            "program p\n integer n = 9, a = 4\n integer x[1..n]\n do i = 1, a - 1 and a + 1, n { x[i] = 1 }\nend",
        );
        assert_eq!(cfg.loops.len(), 2);
        assert_eq!(cfg.loops[0].var, cfg.loops[1].var);
    }

    #[test]
    fn rpo_starts_at_entry_and_visits_all() {
        let cfg =
            cfg_of("program p\n integer n = 3\n integer x[1..n]\n do i = 1, n { x[i] = i }\nend");
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], cfg.entry);
        assert_eq!(rpo.len(), cfg.len(), "all blocks reachable");
    }

    #[test]
    fn block_memory_annotations() {
        let cfg = cfg_of(
            "program p\n integer n = 2, s\n integer x[1..n], y[1..n]\n do i = 1, n { x[i] = y[i] + s }\nend",
        );
        let body = cfg
            .blocks
            .iter()
            .find(|b| {
                b.role == BlockRole::Plain
                    && b.stmts.iter().any(|s| {
                        matches!(s, SimpleStmt::Assign { target: LValue::Index(_, _), .. })
                    })
            })
            .expect("body block");
        assert!(body.array_defs().contains("x"));
        assert!(body.array_uses().contains("y"));
        assert!(body.scalar_uses().contains("s"));
        assert!(body.scalar_uses().contains("i"));
    }

    #[test]
    fn descending_loop_uses_ge_test() {
        let cfg = cfg_of(
            "program p\n integer n = 3\n integer x[1..n]\n do i = n, 1, -1 { x[i] = i }\nend",
        );
        let header = &cfg.blocks[cfg.loops[0].header];
        let Terminator::Branch { cond, .. } = &header.term else { panic!() };
        let Expr::Bin(op, _, _) = cond else { panic!() };
        assert_eq!(*op, BinOp::Ge);
    }

    #[test]
    fn call_is_simple_stmt() {
        let cfg = cfg_of(
            "program p\n integer n = 1\n float x[1..n]\n proc z(float x[1..n], integer n) { x[1] = 0.0 }\n call z(x, n)\nend",
        );
        assert!(matches!(cfg.blocks[0].stmts[0], SimpleStmt::Call { .. }));
        assert!(cfg.blocks[0].array_defs().contains("x"));
    }
}
