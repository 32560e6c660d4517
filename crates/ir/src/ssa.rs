//! `mem2reg`-style SSA construction.
//!
//! Promotes eligible stack slots (scalar type, address never taken, never
//! accessed through a projection) to SSA values, inserting phi nodes at
//! iterated dominance frontiers and renaming uses along the dominator tree —
//! the same pipeline LLVM applies before SPEX's analyses run (§2.3 of the
//! paper).

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::instr::{ConstVal, Instr, PlaceBase, Terminator};
use crate::module::{BlockId, Function, SlotId, ValueId};
use spex_lang::diag::Span;
use std::collections::{HashMap, HashSet};

/// Returns a copy of `f` in SSA form.
///
/// The original function is left untouched (the interpreter executes the
/// pre-SSA form); analyses use the returned function.
pub fn promote_to_ssa(f: &Function) -> Function {
    let mut f = f.body_copy();
    let cfg = Cfg::build(&f);
    let dom = DomTree::build(&f, &cfg);

    let promotable = find_promotable_slots(&f);
    if promotable.is_empty() {
        f.is_ssa = true;
        return f;
    }

    // Blocks containing a store to each promotable slot.
    let mut def_blocks: HashMap<SlotId, HashSet<BlockId>> = HashMap::new();
    for (b, _, instr, _) in f.iter_instrs() {
        if let Instr::Store { place, .. } = instr {
            if let Some(s) = place.as_plain_slot() {
                if promotable.contains(&s) {
                    def_blocks.entry(s).or_default().insert(b);
                }
            }
        }
    }

    // Phi placement at iterated dominance frontiers.
    let mut phi_sites: HashMap<BlockId, Vec<(SlotId, ValueId)>> = HashMap::new();
    for &slot in &promotable {
        let mut work: Vec<BlockId> = def_blocks
            .get(&slot)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let mut placed: HashSet<BlockId> = HashSet::new();
        while let Some(b) = work.pop() {
            for &df in &dom.frontier[b.index()] {
                if placed.insert(df) {
                    let ty = f.slots[slot.index()].ty.clone();
                    f.value_types.push(ty);
                    let phi = ValueId((f.value_types.len() - 1) as u32);
                    phi_sites.entry(df).or_default().push((slot, phi));
                    if !def_blocks
                        .get(&slot)
                        .map(|s| s.contains(&df))
                        .unwrap_or(false)
                    {
                        work.push(df);
                    }
                }
            }
        }
    }

    let mut renamer = Renamer {
        f: &mut f,
        promotable: &promotable,
        phi_sites: &phi_sites,
        cfg: &cfg,
        replace: HashMap::new(),
        phi_edges: HashMap::new(),
        undef_cache: HashMap::new(),
    };
    renamer.rename(&dom);
    let replace = std::mem::take(&mut renamer.replace);
    let phi_edges = std::mem::take(&mut renamer.phi_edges);

    apply_rewrites(&mut f, &phi_sites, &replace, &phi_edges, &promotable);
    f.is_ssa = true;
    f
}

/// Slots that can be promoted: scalar type and never address-taken.
fn find_promotable_slots(f: &Function) -> HashSet<SlotId> {
    let mut promotable: HashSet<SlotId> = (0..f.slots.len())
        .map(|i| SlotId(i as u32))
        .filter(|s| f.slots[s.index()].ty.is_scalar())
        .collect();
    for (_, _, instr, _) in f.iter_instrs() {
        match instr {
            Instr::AddrOf { place, .. } => {
                if let PlaceBase::Slot(s) = place.base {
                    promotable.remove(&s);
                }
            }
            Instr::Load { place, .. } | Instr::Store { place, .. } => {
                // Projected access (array element of a local, etc.) blocks
                // promotion of the base slot.
                if let PlaceBase::Slot(s) = place.base {
                    if !place.elems.is_empty() {
                        promotable.remove(&s);
                    }
                }
            }
            _ => {}
        }
    }
    promotable
}

struct Renamer<'a> {
    f: &'a mut Function,
    promotable: &'a HashSet<SlotId>,
    phi_sites: &'a HashMap<BlockId, Vec<(SlotId, ValueId)>>,
    cfg: &'a Cfg,
    /// Value substitution accumulated from removed loads.
    replace: HashMap<ValueId, ValueId>,
    /// Incoming edges collected for each phi value.
    phi_edges: HashMap<ValueId, Vec<(BlockId, ValueId)>>,
    /// Lazily created zero constants per slot (reads before writes).
    undef_cache: HashMap<SlotId, ValueId>,
}

/// One step of the renaming walk over the dominator tree.
enum Visit {
    /// Rename a block, then walk its dominator-tree children.
    Enter(BlockId),
    /// All of a block's children are done: pop the slots it pushed.
    Exit(Vec<SlotId>),
}

impl Renamer<'_> {
    /// Renames every block in dominator-tree preorder. The walk keeps an
    /// explicit stack, so a chain-shaped dominator tree (a function of
    /// many sequential `if`s) costs heap, not native stack.
    fn rename(&mut self, dom: &DomTree) {
        let mut stacks: HashMap<SlotId, Vec<ValueId>> = HashMap::new();
        let mut walk = vec![Visit::Enter(BlockId(0))];
        while let Some(visit) = walk.pop() {
            match visit {
                Visit::Enter(b) => {
                    walk.push(Visit::Exit(self.rename_block(b, &mut stacks)));
                    // Reversed, so the children pop in tree order.
                    walk.extend(
                        dom.children[b.index()]
                            .iter()
                            .rev()
                            .map(|&c| Visit::Enter(c)),
                    );
                }
                Visit::Exit(pushed) => {
                    for s in pushed {
                        stacks.get_mut(&s).expect("pushed slot has stack").pop();
                    }
                }
            }
        }
    }

    /// Renames one block's loads and stores and fills its successors' phi
    /// operands; returns the slots whose definition stack it pushed.
    fn rename_block(
        &mut self,
        b: BlockId,
        stacks: &mut HashMap<SlotId, Vec<ValueId>>,
    ) -> Vec<SlotId> {
        let mut pushed: Vec<SlotId> = Vec::new();

        // Phis defined in this block become the current definition.
        if let Some(phis) = self.phi_sites.get(&b) {
            for &(slot, phi) in phis {
                stacks.entry(slot).or_default().push(phi);
                pushed.push(slot);
            }
        }

        for i in 0..self.f.blocks[b.index()].instrs.len() {
            let (instr, _) = self.f.blocks[b.index()].instrs[i].clone();
            match instr {
                Instr::Load { dst, place } => {
                    if let Some(s) = place.as_plain_slot() {
                        if self.promotable.contains(&s) {
                            let cur = self.current_def(s, stacks);
                            self.replace.insert(dst, cur);
                        }
                    }
                }
                Instr::Store { place, value } => {
                    if let Some(s) = place.as_plain_slot() {
                        if self.promotable.contains(&s) {
                            let v = self.resolve(value);
                            stacks.entry(s).or_default().push(v);
                            pushed.push(s);
                        }
                    }
                }
                _ => {}
            }
        }

        // Fill phi operands of CFG successors.
        for si in 0..self.cfg.succs[b.index()].len() {
            let succ = self.cfg.succs[b.index()][si];
            if let Some(phis) = self.phi_sites.get(&succ) {
                let pairs: Vec<(SlotId, ValueId)> = phis.clone();
                for (slot, phi) in pairs {
                    let cur = self.current_def(slot, stacks);
                    self.phi_edges.entry(phi).or_default().push((b, cur));
                }
            }
        }

        pushed
    }

    fn resolve(&self, v: ValueId) -> ValueId {
        let mut cur = v;
        let mut guard = 0usize;
        while let Some(&next) = self.replace.get(&cur) {
            if next == cur || guard > self.replace.len() {
                break;
            }
            cur = next;
            guard += 1;
        }
        cur
    }

    fn current_def(&mut self, slot: SlotId, stacks: &HashMap<SlotId, Vec<ValueId>>) -> ValueId {
        if let Some(v) = stacks.get(&slot).and_then(|s| s.last()) {
            return self.resolve(*v);
        }
        // Read before any write: synthesize a zero constant in the entry
        // block.
        if let Some(&v) = self.undef_cache.get(&slot) {
            return v;
        }
        let ty = self.f.slots[slot.index()].ty.clone();
        self.f.value_types.push(ty);
        let v = ValueId((self.f.value_types.len() - 1) as u32);
        self.f.blocks[0].instrs.insert(
            0,
            (
                Instr::Const {
                    dst: v,
                    val: ConstVal::Int(0),
                },
                Span::unknown(),
            ),
        );
        self.undef_cache.insert(slot, v);
        v
    }
}

fn apply_rewrites(
    f: &mut Function,
    phi_sites: &HashMap<BlockId, Vec<(SlotId, ValueId)>>,
    replace: &HashMap<ValueId, ValueId>,
    phi_edges: &HashMap<ValueId, Vec<(BlockId, ValueId)>>,
    promotable: &HashSet<SlotId>,
) {
    let resolve = |v: ValueId| {
        let mut cur = v;
        let mut guard = 0usize;
        while let Some(&next) = replace.get(&cur) {
            if next == cur || guard > replace.len() {
                break;
            }
            cur = next;
            guard += 1;
        }
        cur
    };

    for blk in &mut f.blocks {
        blk.instrs.retain(|(instr, _)| match instr {
            Instr::Load { place, .. } | Instr::Store { place, .. } => place
                .as_plain_slot()
                .map(|s| !promotable.contains(&s))
                .unwrap_or(true),
            _ => true,
        });
        for (instr, _) in &mut blk.instrs {
            instr.map_uses(&mut |v| resolve(v));
        }
        blk.term.0.map_uses(&mut |v| resolve(v));
        let _ = &blk.term.0 as &Terminator;
    }
    for (&b, phis) in phi_sites {
        for &(_, phi) in phis {
            let incomings: Vec<(BlockId, ValueId)> = phi_edges
                .get(&phi)
                .map(|edges| edges.iter().map(|&(b, v)| (b, resolve(v))).collect())
                .unwrap_or_default();
            f.blocks[b.index()].instrs.insert(
                0,
                (
                    Instr::Phi {
                        dst: phi,
                        incomings,
                    },
                    Span::unknown(),
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_program;

    fn ssa_of(src: &str, func: &str) -> Function {
        let p = spex_lang::parse_program(src).unwrap();
        let m = lower_program(&p).unwrap();
        let id = m.function_by_name(func).unwrap();
        promote_to_ssa(&m.functions[id.index()])
    }

    fn count_phis(f: &Function) -> usize {
        f.iter_instrs()
            .filter(|(_, _, i, _)| matches!(i, Instr::Phi { .. }))
            .count()
    }

    fn count_slot_memops(f: &Function) -> usize {
        f.iter_instrs()
            .filter(|(_, _, i, _)| match i {
                Instr::Load { place, .. } | Instr::Store { place, .. } => {
                    matches!(place.base, PlaceBase::Slot(_))
                }
                _ => false,
            })
            .count()
    }

    #[test]
    fn straight_line_promotes_without_phis() {
        let f = ssa_of("int f(int x) { int y = x + 1; return y; }", "f");
        assert!(f.is_ssa);
        assert_eq!(count_phis(&f), 0);
        assert_eq!(count_slot_memops(&f), 0);
    }

    #[test]
    fn diamond_inserts_phi_at_join() {
        let f = ssa_of(
            "int f(int x) { int y = 0; if (x > 0) { y = 1; } else { y = 2; } return y; }",
            "f",
        );
        assert!(count_phis(&f) >= 1);
        assert_eq!(count_slot_memops(&f), 0);
        // Every phi has exactly two incoming edges here.
        for (_, _, i, _) in f.iter_instrs() {
            if let Instr::Phi { incomings, .. } = i {
                assert_eq!(incomings.len(), 2, "phi has two incomings");
            }
        }
    }

    #[test]
    fn loop_variable_gets_header_phi() {
        let f = ssa_of(
            "int f(int n) { int i = 0; while (i < n) { i += 1; } return i; }",
            "f",
        );
        assert!(count_phis(&f) >= 1);
        assert_eq!(count_slot_memops(&f), 0);
    }

    #[test]
    fn address_taken_slot_is_not_promoted() {
        let f = ssa_of(
            "void g(int* p) { }
             int f() { int x = 3; g(&x); return x; }",
            "f",
        );
        // x stays in memory: at least one load/store remains.
        assert!(count_slot_memops(&f) > 0);
    }

    #[test]
    fn array_local_is_not_promoted() {
        let f = ssa_of("int f() { int a[4]; a[0] = 1; return a[0]; }", "f");
        assert!(count_slot_memops(&f) > 0);
    }

    #[test]
    fn ssa_single_assignment_invariant() {
        let f = ssa_of(
            "int f(int x) { int y = 0; if (x > 0) { y = x; } else { y = -x; } \
             while (y > 10) { y -= 1; } return y; }",
            "f",
        );
        let mut defs = HashSet::new();
        for (_, _, i, _) in f.iter_instrs() {
            if let Some(d) = i.def() {
                assert!(defs.insert(d), "value {d} defined twice");
            }
        }
    }

    #[test]
    fn uses_are_defined_values() {
        let f = ssa_of(
            "int f(int x) { int y = x; if (x > 2) { y = y * 2; } return y + 1; }",
            "f",
        );
        let defs: HashSet<ValueId> = f.iter_instrs().filter_map(|(_, _, i, _)| i.def()).collect();
        for (_, _, i, _) in f.iter_instrs() {
            for u in i.uses() {
                assert!(defs.contains(&u), "use of undefined value {u}");
            }
        }
    }

    #[test]
    fn ternary_becomes_phi() {
        let f = ssa_of("int f(int a) { return a > 0 ? a : -a; }", "f");
        assert!(count_phis(&f) >= 1);
        assert_eq!(count_slot_memops(&f), 0);
    }

    #[test]
    fn logical_and_value_becomes_phi() {
        let f = ssa_of("int f(int a, int b) { int ok = a && b; return ok; }", "f");
        assert!(count_phis(&f) >= 1);
    }

    #[test]
    fn chain_shaped_dominator_tree_renames_on_a_2_mib_stack() {
        // Sequential `if`s make the dominator tree a chain as long as the
        // function: renaming must not take a native frame per level.
        let ifs: String = (0..20_000)
            .map(|i| format!("if (x > {i}) {{ y = {i}; }}\n"))
            .collect();
        let src = format!("int f(int x) {{ int y = 0;\n{ifs} return y; }}");
        let f = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || ssa_of(&src, "f"))
            .expect("spawn a 2 MiB thread")
            .join()
            .expect("promotion fits a 2 MiB stack");
        assert_eq!(count_slot_memops(&f), 0);
        assert_eq!(count_phis(&f), 20_000);
    }
}
