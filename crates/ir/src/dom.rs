//! Dominator tree and dominance frontiers.
//!
//! Implements the Cooper–Harvey–Kennedy "engineered" dominance algorithm on
//! reverse postorder, plus the standard dominance-frontier computation used
//! by the SSA construction pass and by SPEX's control-dependency inference.

use crate::cfg::Cfg;
use crate::module::{BlockId, Function};

/// Immediate-dominator tree and dominance frontiers for one function.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator of each block (`None` for the entry and for
    /// unreachable blocks).
    pub idom: Vec<Option<BlockId>>,
    /// Dominance frontier of each block.
    pub frontier: Vec<Vec<BlockId>>,
    /// Children in the dominator tree.
    pub children: Vec<Vec<BlockId>>,
    /// Each block's preorder number in the dominator tree and the last
    /// number inside its subtree (`UNNUMBERED` for unreachable blocks):
    /// `a` dominates `b` iff `b`'s number falls in `a`'s interval.
    interval: Vec<(u32, u32)>,
}

const UNNUMBERED: (u32, u32) = (u32::MAX, 0);

impl DomTree {
    /// Computes dominators and frontiers for `f` using its CFG.
    pub fn build(f: &Function, cfg: &Cfg) -> DomTree {
        let n = f.blocks.len();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        if !cfg.rpo.is_empty() {
            idom[cfg.rpo[0].index()] = Some(cfg.rpo[0]);
            let mut changed = true;
            while changed {
                changed = false;
                for &b in cfg.rpo.iter().skip(1) {
                    let mut new_idom: Option<BlockId> = None;
                    for &p in &cfg.preds[b.index()] {
                        if idom[p.index()].is_none() {
                            continue; // Unprocessed or unreachable.
                        }
                        new_idom = Some(match new_idom {
                            None => p,
                            Some(cur) => intersect(p, cur, &idom, &cfg.rpo_index),
                        });
                    }
                    if let Some(ni) = new_idom {
                        if idom[b.index()] != Some(ni) {
                            idom[b.index()] = Some(ni);
                            changed = true;
                        }
                    }
                }
            }
            // By convention the entry has no immediate dominator.
            idom[cfg.rpo[0].index()] = None;
        }

        // Dominance frontiers (Cooper et al.): for each join point, walk up
        // from each predecessor to the idom of the join.
        let mut frontier = vec![Vec::new(); n];
        for b in 0..n {
            let bid = BlockId(b as u32);
            if !cfg.is_reachable(bid) || cfg.preds[b].len() < 2 {
                continue;
            }
            let b_idom = idom[b];
            for &p in &cfg.preds[b] {
                if !cfg.is_reachable(p) {
                    continue;
                }
                let mut runner = Some(p);
                while let Some(r) = runner {
                    if Some(r) == b_idom {
                        break;
                    }
                    if !frontier[r.index()].contains(&bid) {
                        frontier[r.index()].push(bid);
                    }
                    runner = idom[r.index()];
                    if runner == Some(r) {
                        break;
                    }
                }
            }
        }

        let mut children = vec![Vec::new(); n];
        for (b, d) in idom.iter().enumerate() {
            if let Some(d) = d {
                children[d.index()].push(BlockId(b as u32));
            }
        }
        let interval = number(cfg.rpo.first().copied(), &children);
        DomTree {
            idom,
            frontier,
            children,
            interval,
        }
    }

    /// Whether `a` dominates `b` (reflexive). Constant time; an
    /// unreachable block dominates, and is dominated by, only itself.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let (first, last) = self.interval[a.index()];
        let (at, _) = self.interval[b.index()];
        a == b || (first <= at && at <= last)
    }

    /// Blocks dominating `b`, from `b` up to the entry (inclusive of `b`).
    pub fn dominators_of(&self, b: BlockId) -> Vec<BlockId> {
        let mut out = vec![b];
        let mut cur = self.idom[b.index()];
        while let Some(c) = cur {
            out.push(c);
            cur = self.idom[c.index()];
        }
        out
    }
}

/// Numbers the dominator tree under `root` in preorder with an explicit
/// stack (a function of sequential `if`s makes the tree a chain as deep
/// as the function is long): each block gets its own number and the last
/// number of its subtree.
fn number(root: Option<BlockId>, children: &[Vec<BlockId>]) -> Vec<(u32, u32)> {
    let mut interval = vec![UNNUMBERED; children.len()];
    let Some(root) = root else {
        return interval;
    };
    let mut next = 0u32;
    // (block, how many of its children have been entered)
    let mut stack = vec![(root, 0usize)];
    interval[root.index()].0 = next;
    while let Some((b, entered)) = stack.last_mut() {
        match children[b.index()].get(*entered) {
            Some(&child) => {
                *entered += 1;
                next += 1;
                interval[child.index()].0 = next;
                stack.push((child, 0));
            }
            None => {
                interval[b.index()].1 = next;
                stack.pop();
            }
        }
    }
    interval
}

fn intersect(
    mut a: BlockId,
    mut b: BlockId,
    idom: &[Option<BlockId>],
    rpo_index: &[usize],
) -> BlockId {
    while a != b {
        while rpo_index[a.index()] > rpo_index[b.index()] {
            a = idom[a.index()].expect("processed block has idom");
        }
        while rpo_index[b.index()] > rpo_index[a.index()] {
            b = idom[b.index()].expect("processed block has idom");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_program;

    fn dom_of(src: &str, func: &str) -> (std::sync::Arc<crate::module::Function>, Cfg, DomTree) {
        let p = spex_lang::parse_program(src).unwrap();
        let m = lower_program(&p).unwrap();
        let id = m.function_by_name(func).unwrap();
        let f = m.functions[id.index()].clone();
        let cfg = Cfg::build(&f);
        let dom = DomTree::build(&f, &cfg);
        (f, cfg, dom)
    }

    #[test]
    fn entry_dominates_everything_reachable() {
        let (_, cfg, dom) = dom_of(
            "int f(int x) { if (x > 0) { x = 1; } while (x < 9) { x += 1; } return x; }",
            "f",
        );
        for &b in &cfg.rpo {
            assert!(dom.dominates(BlockId(0), b), "entry must dominate {b}");
        }
    }

    #[test]
    fn branch_arms_do_not_dominate_join() {
        let (_, cfg, dom) = dom_of(
            "int f(int x) { if (x > 0) { x = 1; } else { x = 2; } return x; }",
            "f",
        );
        let then_bb = cfg.succs[0][0];
        let join = cfg.succs[then_bb.index()][0];
        assert!(!dom.dominates(then_bb, join));
        assert!(dom.dominates(BlockId(0), join));
        // The join is in the frontier of both arms.
        assert!(dom.frontier[then_bb.index()].contains(&join));
    }

    #[test]
    fn idom_of_entry_is_none() {
        let (_, _, dom) = dom_of("int f() { return 0; }", "f");
        assert_eq!(dom.idom[0], None);
    }

    #[test]
    fn loop_header_dominates_body() {
        let (_, cfg, dom) = dom_of("int f(int x) { while (x > 0) { x -= 1; } return x; }", "f");
        // Find the header: a reachable block with two predecessors.
        let header = (0..cfg.preds.len())
            .map(|i| BlockId(i as u32))
            .find(|b| cfg.is_reachable(*b) && cfg.preds[b.index()].len() == 2)
            .expect("loop has a header");
        let body = cfg.succs[header.index()][0];
        assert!(dom.dominates(header, body));
        // The header is its own frontier (back edge).
        assert!(dom.frontier[body.index()].contains(&header));
    }

    #[test]
    fn dominators_of_walks_to_entry() {
        let (_, cfg, dom) = dom_of("int f(int x) { if (x > 0) { x = 1; } return x; }", "f");
        let join = *cfg.rpo.last().unwrap();
        let doms = dom.dominators_of(join);
        assert_eq!(doms[0], join);
        assert_eq!(*doms.last().unwrap(), BlockId(0));
    }
}
