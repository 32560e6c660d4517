//! Data-range inference (§2.2.3, Figure 3d).
//!
//! Three patterns yield range constraints:
//!
//! * numeric comparisons of the parameter with constants partition the
//!   number line; branch-behaviour classification marks subranges
//!   valid/invalid;
//! * `switch` on the parameter gives an enumerative integer range (the
//!   `default` arm is treated as invalid);
//! * `strcmp`-family chains against string literals give an enumerative
//!   word range (the final `else` is the unmatched behaviour).
//!
//! Constants read from annotated option-table rows (PostgreSQL-style `min`/
//! `max` columns) are resolved through the parameter's table row.

use crate::constraint::{
    Constraint, ConstraintKind, EnumAlternative, EnumRange, EnumValue, NumericRange, RangeSegment,
};
use crate::infer::branch::{classify_region, BranchBehavior};
use crate::mapping::{const_str, MappedParam};
use spex_dataflow::{branch_sides, const_int, straight_line_region};
use spex_dataflow::{AnalyzedModule, ModuleSummaries, ReturnTransfer, TaintResult};
use spex_ir::{Callee, ConstVal, FuncId, Instr, PlaceBase, PlaceElem, Terminator, ValueId};
use spex_lang::diag::Span;

/// One normalised comparison `param ⋄ V` whose truth makes the guarded
/// region behave as classified.
#[derive(Debug, Clone)]
struct CondFact {
    op: crate::constraint::CmpOp,
    value: i64,
    invalid_when_true: bool,
    span: Span,
    func: FuncId,
}

/// Infers range constraints (numeric and enumerative) for one parameter.
pub fn infer(
    am: &AnalyzedModule,
    summaries: &ModuleSummaries,
    param: &MappedParam,
    taint: &TaintResult,
) -> Vec<Constraint> {
    let mut out = Vec::new();
    if let Some(c) = infer_numeric(am, summaries, param, taint) {
        out.push(c);
    }
    out.extend(infer_switch(am, param, taint));
    out.extend(infer_strcmp_chain(am, param, taint));
    out
}

// --- Numeric ranges -----------------------------------------------------------

fn infer_numeric(
    am: &AnalyzedModule,
    summaries: &ModuleSummaries,
    param: &MappedParam,
    taint: &TaintResult,
) -> Option<Constraint> {
    let mut facts: Vec<CondFact> = Vec::new();
    for fid in taint.touched_functions() {
        let func = am.module.func(fid);
        for (_, _, instr, span) in func.iter_instrs() {
            let Instr::Bin { dst, op, lhs, rhs } = instr else {
                continue;
            };
            let Some(cmp) = crate::constraint::CmpOp::from_binop(*op) else {
                continue;
            };
            // Exactly one side tainted, the other a resolvable constant.
            let tainted = (taint.is_tainted(fid, *lhs), taint.is_tainted(fid, *rhs));
            let (other, oriented) = match tainted {
                (true, false) => (*rhs, cmp),
                (false, true) => (*lhs, cmp.flipped()),
                _ => continue,
            };
            let Some(v) = resolve_constant(am, fid, other, param) else {
                continue;
            };
            let Some((true_bb, false_bb)) = branch_sides(am, fid, *dst) else {
                continue;
            };
            let t_inv = classify_region(am, fid, true_bb, taint).is_invalid();
            let f_inv = classify_region(am, fid, false_bb, taint).is_invalid();
            if t_inv {
                facts.push(CondFact {
                    op: oriented,
                    value: v,
                    invalid_when_true: true,
                    span,
                    func: fid,
                });
            }
            if f_inv {
                facts.push(CondFact {
                    op: oriented.negated(),
                    value: v,
                    invalid_when_true: true,
                    span,
                    func: fid,
                });
            }
            if !t_inv && !f_inv {
                // Informational threshold: contributes a cutpoint only.
                facts.push(CondFact {
                    op: oriented,
                    value: v,
                    invalid_when_true: false,
                    span,
                    func: fid,
                });
            }
        }
    }
    // Interprocedural facts from callee summaries: a call passing the
    // tainted value to a summarised check or predicate helper contributes
    // the callee's comparisons as if they happened at the call site. These
    // are appended *after* the intra-procedural facts so the anchoring
    // (first invalid fact) of purely intra-procedural fixtures is stable.
    collect_summary_facts(am, summaries, taint, &mut facts);
    if facts.is_empty() || !facts.iter().any(|f| f.invalid_when_true) {
        return None;
    }
    let range = build_segments(&facts);
    let first = facts
        .iter()
        .find(|f| f.invalid_when_true)
        .expect("checked above");
    Some(Constraint {
        param: param.name.clone(),
        kind: ConstraintKind::Range(range),
        in_function: am.module.func(first.func).name.clone(),
        span: first.span,
    })
}

/// Collects range facts implied by calls into summarised helpers: check
/// summaries fire directly ("if `argᵢ ⋄ V` the callee errors out"), and
/// predicate return-transfers are combined with the classification of the
/// caller's branch on the returned truth value.
fn collect_summary_facts(
    am: &AnalyzedModule,
    summaries: &ModuleSummaries,
    taint: &TaintResult,
    facts: &mut Vec<CondFact>,
) {
    for fid in taint.touched_functions() {
        let func = am.module.func(fid);
        for (_, _, instr, span) in func.iter_instrs() {
            let Instr::Call {
                dst,
                callee: Callee::Func(g),
                args,
            } = instr
            else {
                continue;
            };
            let sum = summaries.get(*g);
            for cs in &sum.checks {
                let Some(&arg) = args.get(cs.param as usize) else {
                    continue;
                };
                if !taint.is_tainted(fid, arg) {
                    continue;
                }
                let Some(op) = crate::constraint::CmpOp::from_binop(cs.op) else {
                    continue;
                };
                facts.push(CondFact {
                    op,
                    value: cs.value,
                    invalid_when_true: true,
                    span,
                    func: fid,
                });
            }
            let Some(ReturnTransfer::Predicate { param: pi, conds }) = &sum.ret else {
                continue;
            };
            let Some(&arg) = args.get(*pi as usize) else {
                continue;
            };
            if !taint.is_tainted(fid, arg) {
                continue;
            }
            let Some(dst) = dst else {
                continue;
            };
            let Some((true_bb, false_bb)) = branch_sides(am, fid, *dst) else {
                continue;
            };
            let t_inv = classify_region(am, fid, true_bb, taint).is_invalid();
            let f_inv = classify_region(am, fid, false_bb, taint).is_invalid();
            let cmp_conds: Vec<(crate::constraint::CmpOp, i64)> = conds
                .iter()
                .filter_map(|&(op, v)| crate::constraint::CmpOp::from_binop(op).map(|c| (c, v)))
                .collect();
            if cmp_conds.len() != conds.len() {
                continue;
            }
            if f_inv {
                // Predicate false ⇒ invalid. The predicate holds when the
                // conjunction of its conditions holds, so the invalid set is
                // the union of the negations (De Morgan); facts are OR-ed
                // during segment sampling, which models exactly that union.
                for &(op, v) in &cmp_conds {
                    facts.push(CondFact {
                        op: op.negated(),
                        value: v,
                        invalid_when_true: true,
                        span,
                        func: fid,
                    });
                }
            }
            if t_inv && cmp_conds.len() == 1 {
                // Predicate true ⇒ invalid; only expressible as a fact
                // union for a single-condition predicate.
                let (op, v) = cmp_conds[0];
                facts.push(CondFact {
                    op,
                    value: v,
                    invalid_when_true: true,
                    span,
                    func: fid,
                });
            }
            if !t_inv && !f_inv {
                for &(op, v) in &cmp_conds {
                    facts.push(CondFact {
                        op,
                        value: v,
                        invalid_when_true: false,
                        span,
                        func: fid,
                    });
                }
            }
        }
    }
}

/// Resolves a comparison operand to a constant: a literal, or a constant
/// field of the parameter's option-table row (PostgreSQL min/max columns).
fn resolve_constant(
    am: &AnalyzedModule,
    fid: FuncId,
    v: ValueId,
    param: &MappedParam,
) -> Option<i64> {
    if let Some(c) = const_int(am, fid, v) {
        return Some(c);
    }
    // Table-row constant: `Load options[i].min` where `options` is the
    // parameter's annotated table.
    let (table, row) = param.table_row?;
    let func = am.module.func(fid);
    let Some(Instr::Load { place, .. }) = am.usedefs[fid.index()].def_instr(func, v) else {
        return None;
    };
    if place.base != PlaceBase::Global(table) {
        return None;
    }
    let [.., PlaceElem::Field(field)] = place.elems.as_slice() else {
        return None;
    };
    match &am.module.global(table).init {
        ConstVal::Aggregate(rows) => match rows.get(row)? {
            ConstVal::Aggregate(fields) => fields.get(*field as usize)?.as_int(),
            _ => None,
        },
        _ => None,
    }
}

/// Builds the valid/invalid partition of the number line from the facts by
/// sampling each elementary segment against the invalid conditions.
fn build_segments(facts: &[CondFact]) -> NumericRange {
    let mut cutpoints: Vec<i64> = facts.iter().map(|f| f.value).collect();
    cutpoints.sort_unstable();
    cutpoints.dedup();

    let is_invalid = |x: i64| {
        facts
            .iter()
            .filter(|f| f.invalid_when_true)
            .any(|f| f.op.eval(x, f.value))
    };

    // Elementary segments: (-inf, v0-1], [v0, v0], [v0+1, v1-1], ...
    let mut segments: Vec<RangeSegment> = Vec::new();
    let mut push = |lo: Option<i64>, hi: Option<i64>| {
        if let (Some(l), Some(h)) = (lo, hi) {
            if l > h {
                return;
            }
        }
        let sample = RangeSegment {
            lo,
            hi,
            valid: true,
        }
        .sample();
        segments.push(RangeSegment {
            lo,
            hi,
            valid: !is_invalid(sample),
        });
    };
    match cutpoints.as_slice() {
        [] => push(None, None),
        cps => {
            push(None, Some(cps[0] - 1));
            for (i, &c) in cps.iter().enumerate() {
                push(Some(c), Some(c));
                match cps.get(i + 1) {
                    Some(&next) => push(Some(c + 1), Some(next - 1)),
                    None => push(Some(c + 1), None),
                }
            }
        }
    }
    // Merge adjacent segments with equal validity.
    let mut merged: Vec<RangeSegment> = Vec::new();
    for seg in segments {
        match merged.last_mut() {
            Some(last) if last.valid == seg.valid => last.hi = seg.hi,
            _ => merged.push(seg),
        }
    }
    NumericRange {
        cutpoints,
        segments: merged,
    }
}

// --- Switch (enumerative integers) ---------------------------------------------

fn infer_switch(am: &AnalyzedModule, param: &MappedParam, taint: &TaintResult) -> Vec<Constraint> {
    let mut out = Vec::new();
    for fid in taint.touched_functions() {
        let func = am.module.func(fid);
        for blk in &func.blocks {
            let Terminator::Switch {
                value,
                cases,
                default,
            } = &blk.term.0
            else {
                continue;
            };
            if !taint.is_tainted(fid, *value) {
                continue;
            }
            let alternatives: Vec<EnumAlternative> = cases
                .iter()
                .map(|(c, target)| EnumAlternative {
                    value: EnumValue::Int(*c),
                    valid: !classify_region(am, fid, *target, taint).is_invalid(),
                })
                .collect();
            // The paper treats `default` as invalid; distinguish loud
            // (error-path) defaults from silent ones.
            let unmatched_is_error =
                classify_region(am, fid, *default, taint) != BranchBehavior::Normal;
            let arm_heads: Vec<spex_ir::BlockId> = cases.iter().map(|(_, t)| *t).collect();
            let unmatched_overwrites =
                region_overwrites_shared_store(am, fid, *default, &arm_heads);
            out.push(Constraint {
                param: param.name.clone(),
                kind: ConstraintKind::EnumRange(EnumRange {
                    alternatives,
                    unmatched_is_error,
                    unmatched_overwrites,
                    case_insensitive: false,
                }),
                in_function: func.name.clone(),
                span: blk.term.1,
            });
        }
    }
    out
}

// --- strcmp chains (enumerative words) -------------------------------------------

fn infer_strcmp_chain(
    am: &AnalyzedModule,
    param: &MappedParam,
    taint: &TaintResult,
) -> Vec<Constraint> {
    let mut out = Vec::new();
    for fid in taint.touched_functions() {
        let func = am.module.func(fid);
        // Collect the chain: string comparisons of a tainted value against
        // literals.
        struct Link {
            literal: String,
            case_insensitive: bool,
            true_bb: spex_ir::BlockId,
            false_bb: spex_ir::BlockId,
            span: Span,
        }
        let mut links: Vec<Link> = Vec::new();
        for (_, _, instr, span) in func.iter_instrs() {
            let Instr::Call {
                dst: Some(dst),
                callee: Callee::Builtin(b),
                args,
            } = instr
            else {
                continue;
            };
            if !b.is_string_comparison() || args.len() < 2 {
                continue;
            }
            let tainted = args.iter().any(|a| taint.is_tainted(fid, *a));
            let lit = args.iter().find_map(|a| const_str(am, fid, *a));
            let (true, Some(literal)) = (tainted, lit) else {
                continue;
            };
            // A string comparison "matches" when it returns zero, so the
            // match block is the *false* side of the raw truth value; the
            // Eq-0/Not wrappers are already normalised by `branch_sides`,
            // which returns sides for "call result is nonzero". Flip here.
            let Some((nonzero_bb, zero_bb)) = branch_sides(am, fid, *dst) else {
                continue;
            };
            links.push(Link {
                literal,
                case_insensitive: b.is_case_insensitive(),
                true_bb: zero_bb,
                false_bb: nonzero_bb,
                span,
            });
        }
        if links.is_empty() {
            continue;
        }
        let dom = &am.doms[fid.index()];
        // Final else: a false-side whose region contains no further chain
        // comparison. Its behaviour decides how unmatched input is treated:
        // a loud error path (exit / error return / logged reset) versus a
        // silent coercion (the silent-overruling pattern).
        let mut unmatched_is_error = false;
        let mut unmatched_overwrites = false;
        for l in &links {
            let contains_next = links.iter().any(|other| {
                !std::ptr::eq(l, other)
                    && dom.dominates(l.false_bb, find_cmp_block(func, other.span))
            });
            if !contains_next {
                unmatched_is_error = match classify_region(am, fid, l.false_bb, taint) {
                    BranchBehavior::Exit | BranchBehavior::ErrorReturn => true,
                    BranchBehavior::Reset { logged, .. } => logged,
                    BranchBehavior::Normal => false,
                };
                // The parameter's variable is whatever the match arms
                // assign; the else assigning the same place is the
                // overruling signature (Figure 6c).
                let arm_heads: Vec<spex_ir::BlockId> = links.iter().map(|l2| l2.true_bb).collect();
                unmatched_overwrites =
                    region_overwrites_shared_store(am, fid, l.false_bb, &arm_heads);
                if unmatched_overwrites && crate::infer::branch::region_logs(am, fid, l.false_bb) {
                    unmatched_is_error = true;
                }
                break;
            }
        }
        let alternatives: Vec<EnumAlternative> = links
            .iter()
            .map(|l| EnumAlternative {
                value: EnumValue::Str(l.literal.clone()),
                valid: !classify_region(am, fid, l.true_bb, taint).is_invalid(),
            })
            .collect();
        let case_insensitive = links.iter().all(|l| l.case_insensitive);
        out.push(Constraint {
            param: param.name.clone(),
            kind: ConstraintKind::EnumRange(EnumRange {
                alternatives,
                unmatched_is_error,
                unmatched_overwrites,
                case_insensitive,
            }),
            in_function: func.name.clone(),
            span: links[0].span,
        });
    }
    out
}

/// Whether the straight-line region at `head` stores to a place also
/// stored by one of the `arm_heads` regions — the "same variable assigned
/// in both the match arm and the fall-through" overruling signature.
fn region_overwrites_shared_store(
    am: &AnalyzedModule,
    fid: FuncId,
    head: spex_ir::BlockId,
    arm_heads: &[spex_ir::BlockId],
) -> bool {
    let else_stores = store_places_in(am, fid, head);
    if else_stores.is_empty() {
        return false;
    }
    arm_heads.iter().any(|&arm| {
        store_places_in(am, fid, arm)
            .iter()
            .any(|p| else_stores.contains(p))
    })
}

fn store_places_in(
    am: &AnalyzedModule,
    fid: FuncId,
    head: spex_ir::BlockId,
) -> Vec<spex_ir::Place> {
    let func = am.module.func(fid);
    straight_line_region(am, fid, head)
        .into_iter()
        .flat_map(|b| func.blocks[b.index()].instrs.iter())
        .filter_map(|(i, _)| match i {
            Instr::Store { place, .. } => Some(place.clone()),
            _ => None,
        })
        .collect()
}

/// Block containing the instruction at `span` (helper for chain ordering).
fn find_cmp_block(func: &spex_ir::Function, span: Span) -> spex_ir::BlockId {
    for (b, _, _, s) in func.iter_instrs() {
        if s == span {
            return b;
        }
    }
    func.entry()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::Annotation;
    use crate::infer::Spex;

    const TABLE_ANN: &str = "{ @STRUCT = options\n @PAR = [opt, 1]\n @VAR = [opt, 2] }";

    fn constraints_of(src: &str, ann: &str, param: &str) -> Vec<ConstraintKind> {
        let p = spex_lang::parse_program(src).unwrap();
        let m = spex_ir::lower_program(&p).unwrap();
        let anns = Annotation::parse(ann).unwrap();
        let a = Spex::analyze(m, &anns);
        a.param(param)
            .unwrap()
            .constraints
            .iter()
            .map(|c| c.kind.clone())
            .collect()
    }

    #[test]
    fn openldap_index_intlen_range() {
        // Figure 3(d): clamp to [4, 255] by silent reset.
        let kinds = constraints_of(
            r#"
            int index_intlen = 4;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "index_intlen", &index_intlen } };
            void config_generic() {
                if (index_intlen < 4) { index_intlen = 4; }
                else if (index_intlen > 255) { index_intlen = 255; }
            }
            "#,
            TABLE_ANN,
            "index_intlen",
        );
        let range = kinds
            .iter()
            .find_map(|k| match k {
                ConstraintKind::Range(r) => Some(r),
                _ => None,
            })
            .expect("numeric range inferred");
        assert_eq!(range.valid_interval(), Some((Some(4), Some(255))));
        assert!(!range.is_valid(3));
        assert!(!range.is_valid(300));
        assert!(range.is_valid(100));
    }

    #[test]
    fn exit_guard_gives_invalid_high_range() {
        let kinds = constraints_of(
            r#"
            int threads = 4;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "threads", &threads } };
            void startup() {
                if (threads > 16) { fprintf(stderr, "too many"); exit(1); }
                listen(0, threads);
            }
            "#,
            TABLE_ANN,
            "threads",
        );
        let range = kinds
            .iter()
            .find_map(|k| match k {
                ConstraintKind::Range(r) => Some(r),
                _ => None,
            })
            .expect("range inferred");
        assert!(!range.is_valid(100));
        assert!(range.is_valid(8));
    }

    #[test]
    fn table_row_min_max_resolution() {
        // PostgreSQL-style generic validation through table columns.
        let kinds = constraints_of(
            r#"
            int deadlock_timeout = 1000;
            struct opt { char* name; int* var; int min; int max; };
            struct opt options[] = { { "deadlock_timeout", &deadlock_timeout, 1, 600000 } };
            int validate(int i) {
                int v = deadlock_timeout;
                if (v < options[i].min) { return -1; }
                if (v > options[i].max) { return -1; }
                return 0;
            }
            "#,
            TABLE_ANN,
            "deadlock_timeout",
        );
        let range = kinds
            .iter()
            .find_map(|k| match k {
                ConstraintKind::Range(r) => Some(r),
                _ => None,
            })
            .expect("range inferred from table columns");
        assert_eq!(range.valid_interval(), Some((Some(1), Some(600000))));
    }

    #[test]
    fn switch_gives_enum_range_with_invalid_default() {
        let kinds = constraints_of(
            r#"
            int log_mode = 0;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "log_mode", &log_mode } };
            void apply() {
                switch (log_mode) {
                    case 0: printf("off"); break;
                    case 1: printf("basic"); break;
                    case 2: printf("full"); break;
                    default: fprintf(stderr, "bad mode"); exit(1);
                }
            }
            "#,
            TABLE_ANN,
            "log_mode",
        );
        let e = kinds
            .iter()
            .find_map(|k| match k {
                ConstraintKind::EnumRange(e) => Some(e),
                _ => None,
            })
            .expect("enum range inferred");
        assert_eq!(e.alternatives.len(), 3);
        assert!(e.unmatched_is_error);
        assert!(e.alternatives.iter().all(|a| a.valid));
    }

    #[test]
    fn strcmp_chain_with_silent_overrule() {
        // Figure 6(c): Squid treats anything but "on" as off, silently.
        let kinds = constraints_of(
            r#"
            int use_icmp = 0;
            struct cmd { char* name; fnptr handler; };
            int parse_onoff(char* token) {
                if (strcasecmp(token, "on") == 0) { use_icmp = 1; }
                else { use_icmp = 0; }
                return 0;
            }
            struct cmd cmds[] = { { "icmp", parse_onoff } };
            void net() { listen(0, use_icmp); }
            "#,
            "{ @STRUCT = cmds\n @PAR = [cmd, 1]\n @VAR = ([cmd, 2], $token) }",
            "icmp",
        );
        let e = kinds
            .iter()
            .find_map(|k| match k {
                ConstraintKind::EnumRange(e) => Some(e),
                _ => None,
            })
            .expect("enum range inferred");
        assert_eq!(e.alternatives.len(), 1);
        assert!(matches!(&e.alternatives[0].value, EnumValue::Str(s) if s == "on"));
        assert!(e.case_insensitive);
        assert!(!e.unmatched_is_error, "silent overruling, not an error");
    }

    #[test]
    fn no_range_without_invalid_behavior() {
        let kinds = constraints_of(
            r#"
            int verbosity = 1;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "verbosity", &verbosity } };
            void log_it() {
                if (verbosity > 2) { printf("debug"); }
            }
            "#,
            TABLE_ANN,
            "verbosity",
        );
        assert!(
            !kinds.iter().any(|k| matches!(k, ConstraintKind::Range(_))),
            "benign threshold must not produce a range constraint"
        );
    }
}
