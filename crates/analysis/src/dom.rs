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
    /// Dominance frontiers, block by block (see [`DomTree::frontier`]).
    frontier: Lists,
    /// Dominator-tree children, block by block (see
    /// [`DomTree::children`]).
    children: Lists,
    /// The reachable blocks in reverse postorder.
    rpo: Vec<BlockId>,
}

/// One list of blocks per block, all in one vector: block `b`'s list is
/// `items[starts[b]..starts[b + 1]]`.
#[derive(Debug, Clone)]
struct Lists {
    starts: Vec<usize>,
    items: Vec<BlockId>,
}

impl Lists {
    /// The lists `pairs` spell as `(owner, item)`: each owner's items in
    /// the order they first occur, once.
    fn from_pairs(n: usize, pairs: Vec<(BlockId, BlockId)>) -> Lists {
        // Bucket by owner, keeping each owner's order.
        let mut starts = vec![0; n + 1];
        for &(owner, _) in &pairs {
            starts[owner + 1] += 1;
        }
        for b in 0..n {
            starts[b + 1] += starts[b];
        }
        let mut fill = starts.clone();
        let mut items = vec![0; pairs.len()];
        for (owner, item) in pairs {
            items[fill[owner]] = item;
            fill[owner] += 1;
        }
        // Drop repeats within a list, closing the gaps.
        let mut kept = 0;
        for b in 0..n {
            let (from, to) = (starts[b], starts[b + 1]);
            starts[b] = kept;
            for at in from..to {
                if !items[starts[b]..kept].contains(&items[at]) {
                    items[kept] = items[at];
                    kept += 1;
                }
            }
        }
        starts[n] = kept;
        items.truncate(kept);
        Lists { starts, items }
    }

    fn of(&self, b: BlockId) -> &[BlockId] {
        &self.items[self.starts[b]..self.starts[b + 1]]
    }
}

/// Sentinel for unreachable blocks.
pub(crate) const UNREACHABLE: usize = usize::MAX;

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
        let mut frontier = Vec::new();
        for b in 0..n {
            if cfg.blocks[b].preds.len() >= 2 {
                for &p in &cfg.blocks[b].preds {
                    if idom[p] == UNREACHABLE || idom[b] == UNREACHABLE {
                        continue;
                    }
                    let mut runner = p;
                    while runner != idom[b] {
                        frontier.push((runner, b));
                        if runner == idom[runner] {
                            break; // reached entry
                        }
                        runner = idom[runner];
                    }
                }
            }
        }

        let children = (0..n)
            .filter(|&b| b != cfg.entry && idom[b] != UNREACHABLE)
            .map(|b| (idom[b], b))
            .collect();

        DomTree {
            idom,
            frontier: Lists::from_pairs(n, frontier),
            children: Lists::from_pairs(n, children),
            rpo,
        }
    }

    /// The dominance frontier of block `b`.
    pub fn frontier(&self, b: BlockId) -> &[BlockId] {
        self.frontier.of(b)
    }

    /// The children of block `b` in the dominator tree, ascending.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        self.children.of(b)
    }

    /// The reachable blocks in reverse postorder.
    pub(crate) fn rpo(&self) -> &[BlockId] {
        &self.rpo
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
        assert!(dom.frontier(*then_b).contains(&join));
        assert!(dom.frontier(*else_b).contains(&join));
        assert!(!dom.frontier(cfg.entry).contains(&join));
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
        assert!(dom.frontier(header).contains(&header));
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
}
