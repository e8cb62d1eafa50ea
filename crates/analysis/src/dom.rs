//! Dominator tree and dominance frontiers.
//!
//! Implements Cooper, Harvey & Kennedy's "A Simple, Fast Dominance
//! Algorithm". Dominance frontiers drive φ-placement in the SSA pass
//! (the paper cites Cytron et al. \[6\] for SSA construction).

use crate::cfg::{BlockId, Cfg};

/// Dominator information for a CFG.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator per block; `idom[entry] == entry`.
    /// Unreachable blocks carry `usize::MAX`.
    pub idom: Vec<BlockId>,
    /// Dominance frontier per block.
    pub frontier: Vec<Vec<BlockId>>,
    /// Children in the dominator tree.
    pub children: Vec<Vec<BlockId>>,
    rpo_index: Vec<usize>,
}

/// Sentinel for unreachable blocks.
pub const UNREACHABLE: usize = usize::MAX;

impl DomTree {
    /// Computes dominators and frontiers for `cfg`.
    pub fn compute(cfg: &Cfg) -> DomTree {
        let n = cfg.len();
        let rpo = cfg.reverse_postorder();
        let mut rpo_index = vec![UNREACHABLE; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b] = i;
        }

        let mut idom = vec![UNREACHABLE; n];
        idom[cfg.entry] = cfg.entry;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                // First processed predecessor.
                let mut new_idom = UNREACHABLE;
                for &p in &cfg.blocks[b].preds {
                    if idom[p] == UNREACHABLE {
                        continue;
                    }
                    new_idom = if new_idom == UNREACHABLE {
                        p
                    } else {
                        intersect(&idom, &rpo_index, p, new_idom)
                    };
                }
                if new_idom != UNREACHABLE && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }

        // Dominance frontiers (Cooper et al. §4).
        let mut frontier = vec![Vec::new(); n];
        for b in 0..n {
            if cfg.blocks[b].preds.len() >= 2 {
                for &p in &cfg.blocks[b].preds {
                    if idom[p] == UNREACHABLE || idom[b] == UNREACHABLE {
                        continue;
                    }
                    let mut runner = p;
                    while runner != idom[b] {
                        if !frontier[runner].contains(&b) {
                            frontier[runner].push(b);
                        }
                        if runner == idom[runner] {
                            break; // reached entry
                        }
                        runner = idom[runner];
                    }
                }
            }
        }

        let mut children = vec![Vec::new(); n];
        for b in 0..n {
            if b != cfg.entry && idom[b] != UNREACHABLE {
                children[idom[b]].push(b);
            }
        }

        DomTree { idom, frontier, children, rpo_index }
    }

    /// True if `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.idom[b] == UNREACHABLE {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            let up = self.idom[cur];
            if up == cur {
                return false;
            }
            cur = up;
        }
    }

    /// Pre-order walk of the dominator tree starting at `root`.
    pub fn preorder(&self, root: BlockId) -> Vec<BlockId> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(b) = stack.pop() {
            out.push(b);
            for &c in self.children[b].iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// RPO index of a block (`UNREACHABLE` for unreachable blocks).
    pub fn rpo_index(&self, b: BlockId) -> usize {
        self.rpo_index[b]
    }
}

fn intersect(idom: &[BlockId], rpo_index: &[usize], mut a: BlockId, mut b: BlockId) -> BlockId {
    while a != b {
        while rpo_index[a] > rpo_index[b] {
            a = idom[a];
        }
        while rpo_index[b] > rpo_index[a] {
            b = idom[b];
        }
    }
    a
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
    fn diamond_dominators() {
        let cfg =
            cfg_of("program p\n integer a, b\n if (a = 0) { b = 1 } else { b = 2 }\n a = 3\nend");
        let dom = DomTree::compute(&cfg);
        // Entry dominates everything.
        for b in 0..cfg.len() {
            assert!(dom.dominates(cfg.entry, b), "entry must dominate B{b}");
        }
        // Join block's idom is the entry (branch block).
        let crate::cfg::Terminator::Branch { then_b, else_b, .. } = &cfg.blocks[0].term else {
            panic!()
        };
        let join = cfg.blocks[*then_b].term.successors().next().unwrap();
        assert_eq!(dom.idom[join], cfg.entry);
        // Arms do not dominate the join.
        assert!(!dom.dominates(*then_b, join));
        assert!(!dom.dominates(*else_b, join));
    }

    #[test]
    fn join_in_frontier_of_both_arms() {
        let cfg =
            cfg_of("program p\n integer a, b\n if (a = 0) { b = 1 } else { b = 2 }\n a = 3\nend");
        let dom = DomTree::compute(&cfg);
        let crate::cfg::Terminator::Branch { then_b, else_b, .. } = &cfg.blocks[0].term else {
            panic!()
        };
        let join = cfg.blocks[*then_b].term.successors().next().unwrap();
        assert!(dom.frontier[*then_b].contains(&join));
        assert!(dom.frontier[*else_b].contains(&join));
        assert!(!dom.frontier[cfg.entry].contains(&join));
    }

    #[test]
    fn loop_header_in_own_frontier() {
        let cfg =
            cfg_of("program p\n integer n = 3\n integer x[1..n]\n do i = 1, n { x[i] = i }\nend");
        let dom = DomTree::compute(&cfg);
        let header = cfg.loops[0].header;
        // The header has a back edge into itself, so it appears in its
        // own dominance frontier — the classic reason loop-carried scalars
        // need φ nodes in the header.
        assert!(dom.frontier[header].contains(&header));
    }

    #[test]
    fn header_dominates_body_and_exit() {
        let cfg =
            cfg_of("program p\n integer n = 3\n integer x[1..n]\n do i = 1, n { x[i] = i }\nend");
        let dom = DomTree::compute(&cfg);
        let l = &cfg.loops[0];
        assert!(dom.dominates(l.header, l.increment));
        assert!(dom.dominates(l.header, l.exit));
        assert!(!dom.dominates(l.increment, l.exit));
    }

    #[test]
    fn preorder_covers_tree() {
        let cfg = cfg_of(
            "program p\n integer n = 3, s\n do i = 1, n { if (i = 2) { s = s + 1 } else { s = s + 2 } }\nend",
        );
        let dom = DomTree::compute(&cfg);
        let order = dom.preorder(cfg.entry);
        assert_eq!(order.len(), cfg.len());
        assert_eq!(order[0], cfg.entry);
    }
}
