//! Branch classification: the behaviour of a branch's region (§2.2.3). The
//! branch sides and regions come from `spex_dataflow::branch`.
//!
//! "If in the branch block, the program exits, aborts, returns error code,
//! or resets the parameter, SPEX treats the range as invalid."

use spex_dataflow::{const_int, is_const_null, straight_line_region};
use spex_dataflow::{AnalyzedModule, MemLoc, TaintResult};
use spex_ir::{BlockId, Callee, FuncId, Instr, Place, Terminator};
use spex_lang::diag::Span;

/// What a guarded region does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BranchBehavior {
    /// Calls `exit`/`abort` (directly or through a no-return helper).
    Exit,
    /// Returns a negative constant (error code).
    ErrorReturn,
    /// Overwrites the parameter's storage. `logged` records whether a log
    /// call accompanies the reset (silent resets are the "silent violation"
    /// vulnerability class).
    Reset {
        /// Where the overwrite happens.
        span: Span,
        /// Whether a logging call appears in the same region.
        logged: bool,
    },
    /// Anything else.
    Normal,
}

impl BranchBehavior {
    /// Whether this behaviour marks the guarded value range as invalid.
    pub fn is_invalid(&self) -> bool {
        !matches!(self, BranchBehavior::Normal)
    }
}

/// Classifies the straight-line region starting at `head` for parameter
/// `taint`.
pub fn classify_region(
    am: &AnalyzedModule,
    fid: FuncId,
    head: BlockId,
    taint: &TaintResult,
) -> BranchBehavior {
    let func = am.module.func(fid);

    // The load places of the parameter within this function, used to detect
    // resets through pointer-based places that have no abstract MemLoc.
    // Skipped entirely for empty taints (callers probing only for
    // exit/error behaviour) — the scan over the whole function would
    // otherwise dominate hot paths.
    let tainted_load_places: Vec<&Place> = if taint.values.is_empty() {
        Vec::new()
    } else {
        func.iter_instrs()
            .filter_map(|(_, _, i, _)| match i {
                Instr::Load { dst, place } if taint.is_tainted(fid, *dst) => Some(place),
                _ => None,
            })
            .collect()
    };

    let mut reset: Option<(Span, bool)> = None;
    let mut has_log = false;
    let mut error_return = false;
    let mut exits = false;

    for b in straight_line_region(am, fid, head) {
        let blk = &func.blocks[b.index()];
        for (instr, span) in &blk.instrs {
            match instr {
                Instr::Call { callee, .. } => match callee {
                    Callee::Builtin(bi) if bi.is_noreturn() => exits = true,
                    Callee::Builtin(bi) if bi.is_logging() => has_log = true,
                    Callee::Func(g) if function_never_returns(am, *g) => {
                        exits = true;
                    }
                    _ => {}
                },
                Instr::Store { place, .. } => {
                    let hits_param_mem = MemLoc::from_place(fid, place)
                        .map(|loc| taint.mem.keys().any(|l| l.may_alias(&loc)))
                        .unwrap_or(false);
                    let hits_param_place = tainted_load_places.contains(&place);
                    if (hits_param_mem || hits_param_place) && reset.is_none() {
                        reset = Some((*span, false));
                    }
                }
                _ => {}
            }
        }
        if let Terminator::Ret(Some(v)) = &blk.term.0 {
            if const_int(am, fid, *v).is_some_and(|c| c < 0) || is_const_null(am, fid, *v) {
                error_return = true;
            }
        }
    }

    if exits {
        return BranchBehavior::Exit;
    }
    if error_return {
        return BranchBehavior::ErrorReturn;
    }
    if let Some((span, _)) = reset {
        return BranchBehavior::Reset {
            span,
            logged: has_log,
        };
    }
    BranchBehavior::Normal
}

/// Whether a function has no reachable `ret` (a `die()`-style helper that
/// always exits).
pub fn function_never_returns(am: &AnalyzedModule, f: FuncId) -> bool {
    let func = am.module.func(f);
    let cfg = &am.cfgs[f.index()];
    let has_exit_call = func.iter_instrs().any(|(_, _, i, _)| {
        matches!(
            i,
            Instr::Call {
                callee: Callee::Builtin(b),
                ..
            } if b.is_noreturn()
        )
    });
    if !has_exit_call {
        return false;
    }
    !func.blocks.iter().enumerate().any(|(bi, blk)| {
        cfg.is_reachable(BlockId(bi as u32)) && matches!(blk.term.0, Terminator::Ret(_))
    })
}

/// Whether a logging builtin is called in the straight-line region starting
/// at `head` (used by the silent-overruling detector).
pub fn region_logs(am: &AnalyzedModule, fid: FuncId, head: BlockId) -> bool {
    let func = am.module.func(fid);
    straight_line_region(am, fid, head).into_iter().any(|b| {
        func.blocks[b.index()].instrs.iter().any(|(i, _)| {
            matches!(
                i,
                Instr::Call {
                    callee: Callee::Builtin(bi),
                    ..
                } if bi.is_logging()
            )
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spex_dataflow::{branch_sides, AnalyzedModule, TaintEngine, TaintRoot};

    fn setup(src: &str) -> AnalyzedModule {
        let p = spex_lang::parse_program(src).unwrap();
        let m = spex_ir::lower_program(&p).unwrap();
        AnalyzedModule::build(m)
    }

    #[test]
    fn detects_noreturn_helper() {
        let am = setup(
            "void die(char* m) { fprintf(stderr, \"%s\", m); exit(1); }
             void ok() { printf(\"fine\"); }",
        );
        let die = am.module.function_by_name("die").unwrap();
        let ok = am.module.function_by_name("ok").unwrap();
        assert!(function_never_returns(&am, die));
        assert!(!function_never_returns(&am, ok));
    }

    #[test]
    fn classifies_exit_region() {
        let am = setup(
            "int knob = 1;
             void f() { if (knob > 5) { exit(1); } }",
        );
        let g = am.module.global_by_name("knob").unwrap();
        let t = TaintEngine::new(&am).run(&[TaintRoot::global(g)]);
        let fid = am.module.function_by_name("f").unwrap();
        // The comparison's branch.
        let func = am.module.func(fid);
        let cmp = func
            .iter_instrs()
            .find_map(|(_, _, i, _)| match i {
                Instr::Bin { dst, op, .. } if op.is_comparison() => Some(*dst),
                _ => None,
            })
            .unwrap();
        let (t_bb, e_bb) = branch_sides(&am, fid, cmp).unwrap();
        assert_eq!(classify_region(&am, fid, t_bb, &t), BranchBehavior::Exit);
        assert_eq!(classify_region(&am, fid, e_bb, &t), BranchBehavior::Normal);
    }

    #[test]
    fn classifies_reset_region() {
        let am = setup(
            "int intlen = 8;
             void f() { if (intlen > 255) { intlen = 255; } }",
        );
        let g = am.module.global_by_name("intlen").unwrap();
        let t = TaintEngine::new(&am).run(&[TaintRoot::global(g)]);
        let fid = am.module.function_by_name("f").unwrap();
        let func = am.module.func(fid);
        let cmp = func
            .iter_instrs()
            .find_map(|(_, _, i, _)| match i {
                Instr::Bin { dst, op, .. } if op.is_comparison() => Some(*dst),
                _ => None,
            })
            .unwrap();
        let (t_bb, _) = branch_sides(&am, fid, cmp).unwrap();
        match classify_region(&am, fid, t_bb, &t) {
            BranchBehavior::Reset { logged, .. } => assert!(!logged),
            other => panic!("expected reset, got {other:?}"),
        }
    }

    #[test]
    fn negated_condition_flips_sides() {
        let am = setup(
            "int on = 1;
             void f() { if (!on) { exit(1); } }",
        );
        let g = am.module.global_by_name("on").unwrap();
        let t = TaintEngine::new(&am).run(&[TaintRoot::global(g)]);
        let fid = am.module.function_by_name("f").unwrap();
        let func = am.module.func(fid);
        // The load of `on` feeds a Not; branch_sides on the load should give
        // (else-of-not, then-of-not) — i.e. true side is the non-exit one.
        let load = func
            .iter_instrs()
            .find_map(|(_, _, i, _)| match i {
                Instr::Load { dst, .. } => Some(*dst),
                _ => None,
            })
            .unwrap();
        let (true_side, false_side) = branch_sides(&am, fid, load).unwrap();
        assert_eq!(
            classify_region(&am, fid, true_side, &t),
            BranchBehavior::Normal
        );
        assert_eq!(
            classify_region(&am, fid, false_side, &t),
            BranchBehavior::Exit
        );
    }

    #[test]
    fn error_return_is_invalid() {
        let am = setup(
            "int n = 1;
             int f() { if (n > 9) { return -1; } return 0; }",
        );
        let g = am.module.global_by_name("n").unwrap();
        let t = TaintEngine::new(&am).run(&[TaintRoot::global(g)]);
        let fid = am.module.function_by_name("f").unwrap();
        let func = am.module.func(fid);
        let cmp = func
            .iter_instrs()
            .find_map(|(_, _, i, _)| match i {
                Instr::Bin { dst, op, .. } if op.is_comparison() => Some(*dst),
                _ => None,
            })
            .unwrap();
        let (t_bb, _) = branch_sides(&am, fid, cmp).unwrap();
        assert_eq!(
            classify_region(&am, fid, t_bb, &t),
            BranchBehavior::ErrorReturn
        );
        assert!(BranchBehavior::ErrorReturn.is_invalid());
    }
}
