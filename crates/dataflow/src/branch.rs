//! Branch helpers shared by the summary layer and the inference passes:
//! resolving a value to a constant, locating the two sides of the
//! conditional branch a condition feeds, and the straight-line region an
//! arm classifier inspects.

use crate::{AnalyzedModule, UseSite};
use spex_ir::{BlockId, ConstVal, FuncId, Instr, Terminator, ValueId};
use spex_lang::ast::{BinOp, UnOp};

/// The integer constant a value is defined as, if any (follows casts and
/// negation).
pub fn const_int(am: &AnalyzedModule, fid: FuncId, v: ValueId) -> Option<i64> {
    let func = am.module.func(fid);
    let mut cur = v;
    for _ in 0..8 {
        match am.usedefs[fid.index()].def_instr(func, cur) {
            Some(Instr::Const { val, .. }) => return val.as_int(),
            Some(Instr::Cast { operand, .. }) => cur = *operand,
            Some(Instr::Un {
                op: UnOp::Neg,
                operand,
                ..
            }) => return const_int(am, fid, *operand).map(|x| -x),
            _ => return None,
        }
    }
    None
}

/// Whether a value is defined as the null constant.
pub fn is_const_null(am: &AnalyzedModule, fid: FuncId, v: ValueId) -> bool {
    matches!(
        am.usedefs[fid.index()].def_instr(am.module.func(fid), v),
        Some(Instr::Const {
            val: ConstVal::Null,
            ..
        })
    )
}

/// The two targets of the conditional branch fed by `cond_value`, normalised
/// so that `.0` is taken when the condition is **true**. Follows `!x` and
/// `x == 0` / `x != 0` wrappers.
pub fn branch_sides(
    am: &AnalyzedModule,
    fid: FuncId,
    cond_value: ValueId,
) -> Option<(BlockId, BlockId)> {
    let func = am.module.func(fid);
    for site in am.usedefs[fid.index()].uses_of(cond_value) {
        match site {
            UseSite::Term(b) => {
                if let Terminator::CondBr {
                    then_bb, else_bb, ..
                } = &func.blocks[b.index()].term.0
                {
                    return Some((*then_bb, *else_bb));
                }
            }
            UseSite::Instr(b, i) => match &func.blocks[b.index()].instrs[*i].0 {
                Instr::Un {
                    dst, op: UnOp::Not, ..
                } => {
                    if let Some((t, e)) = branch_sides(am, fid, *dst) {
                        return Some((e, t));
                    }
                }
                Instr::Bin {
                    dst,
                    op: op @ (BinOp::Eq | BinOp::Ne),
                    lhs,
                    rhs,
                } => {
                    let other = if *lhs == cond_value { *rhs } else { *lhs };
                    if const_int(am, fid, other) == Some(0) {
                        if let Some((t, e)) = branch_sides(am, fid, *dst) {
                            return Some(if *op == BinOp::Eq { (e, t) } else { (t, e) });
                        }
                    }
                }
                _ => {}
            },
        }
    }
    None
}

/// Blocks of the straight-line region starting at `head`: follow
/// unconditional branches into blocks still dominated by `head`, stopping
/// at nested conditional branches (the paper classifies "the corresponding
/// branch blocks", not everything the branch eventually reaches).
pub fn straight_line_region(am: &AnalyzedModule, fid: FuncId, head: BlockId) -> Vec<BlockId> {
    let func = am.module.func(fid);
    let dom = &am.doms[fid.index()];
    let mut region = vec![head];
    let mut cur = head;
    while let Terminator::Br(next) = &func.blocks[cur.index()].term.0 {
        if *next == head || !dom.dominates(head, *next) {
            break;
        }
        region.push(*next);
        cur = *next;
    }
    region
}
