//! Value-relationship inference (§2.2.5, Figure 3f).
//!
//! SPEX looks for comparison statements between values on different
//! parameters' data-flow paths. A direct comparison `P ⋄ Q` yields the
//! relation immediately; relations also *transit through one intermediate
//! variable*: from `length >= ft_min_word_len && length < ft_max_word_len`
//! (both comparing the same local `length`), SPEX derives
//! `ft_min_word_len < ft_max_word_len`.
//!
//! Whether the relation indicates a valid setting is decided like range
//! inference: if the region where the relation holds is an error path, the
//! constraint is the negated relation.

use crate::constraint::{CmpOp, Constraint, ConstraintKind, ValueRel};
use crate::infer::branch::classify_region;
use spex_dataflow::{branch_sides, AnalyzedModule, ModuleSummaries, ReturnTransfer, TaintResult};
use spex_ir::{Callee, FuncId, Instr, ValueId};
use spex_lang::diag::Span;
use std::collections::HashMap;

/// One observed comparison touching parameters.
struct Observation {
    func: FuncId,
    /// `X ⋄ P`-style fact: untainted (or differently-tainted) left value.
    left: Side,
    op: CmpOp,
    right: Side,
    span: Span,
    /// Whether the relation as written guards an error region when true.
    true_side_invalid: bool,
}

#[derive(Clone, PartialEq, Eq)]
enum Side {
    /// A value on a parameter's data-flow path.
    Param(usize),
    /// Any other value, identified by SSA id (the potential intermediate).
    Other(ValueId),
}

/// Infers value relationships across the parameter set.
pub fn infer(
    am: &AnalyzedModule,
    summaries: &ModuleSummaries,
    names: &[String],
    vindex: &HashMap<(FuncId, ValueId), Vec<usize>>,
) -> Vec<Constraint> {
    // Collect observations per function.
    let mut obs: Vec<Observation> = Vec::new();
    for (fi, func) in am.module.functions.iter().enumerate() {
        let f = FuncId(fi as u32);
        for (_, _, instr, span) in func.iter_instrs() {
            // A call into a summarised param-vs-param predicate helper is a
            // comparison of its arguments performed one frame down; surface
            // it here as an ordinary observation on the caller's values.
            if let Instr::Call {
                dst,
                callee: Callee::Func(g),
                args,
            } = instr
            {
                let Some(ReturnTransfer::ParamPredicate { left, op, right }) =
                    &summaries.get(*g).ret
                else {
                    continue;
                };
                let Some(cmp) = CmpOp::from_binop(*op) else {
                    continue;
                };
                let (Some(&la), Some(&ra)) = (args.get(*left as usize), args.get(*right as usize))
                else {
                    continue;
                };
                let lp = vindex.get(&(f, la));
                let rp = vindex.get(&(f, ra));
                if lp.is_none() && rp.is_none() {
                    continue;
                }
                let true_side_invalid = dst
                    .and_then(|d| branch_sides(am, f, d))
                    .map(|(t, _)| classify_region(am, f, t, &TaintResult::default()).is_invalid())
                    .unwrap_or(false);
                let side = |v: ValueId, params: Option<&Vec<usize>>| match params {
                    Some(ps) if !ps.is_empty() => Side::Param(ps[0]),
                    _ => Side::Other(v),
                };
                obs.push(Observation {
                    func: f,
                    left: side(la, lp),
                    op: cmp,
                    right: side(ra, rp),
                    span,
                    true_side_invalid,
                });
                continue;
            }
            let Instr::Bin { dst, op, lhs, rhs } = instr else {
                continue;
            };
            let Some(cmp) = CmpOp::from_binop(*op) else {
                continue;
            };
            let lp = vindex.get(&(f, *lhs));
            let rp = vindex.get(&(f, *rhs));
            if lp.is_none() && rp.is_none() {
                continue;
            }
            let true_side_invalid = branch_sides(am, f, *dst)
                .map(|(t, _)| classify_region(am, f, t, &TaintResult::default()).is_invalid())
                .unwrap_or(false);
            let side = |v: ValueId, params: Option<&Vec<usize>>| match params {
                Some(ps) if !ps.is_empty() => Side::Param(ps[0]),
                _ => Side::Other(v),
            };
            obs.push(Observation {
                func: f,
                left: side(*lhs, lp),
                op: cmp,
                right: side(*rhs, rp),
                span,
                true_side_invalid,
            });
        }
    }

    let mut out: Vec<(usize, CmpOp, usize, Span)> = Vec::new();
    // Direct comparisons.
    for o in &obs {
        if let (Side::Param(p), Side::Param(q)) = (&o.left, &o.right) {
            if p != q {
                let rel = if o.true_side_invalid {
                    o.op.negated()
                } else {
                    o.op
                };
                out.push((*p, rel, *q, o.span));
            }
        }
    }
    // Transitive through one shared intermediate value.
    for (i, a) in obs.iter().enumerate() {
        for b in obs.iter().skip(i + 1) {
            if a.func != b.func {
                continue;
            }
            // Normalise both to `X ⋄ P` form with X on the left.
            let (xa, oa, pa) = match (&a.left, &a.right) {
                (Side::Other(x), Side::Param(p)) => (*x, a.op, *p),
                (Side::Param(p), Side::Other(x)) => (*x, a.op.flipped(), *p),
                _ => continue,
            };
            let (xb, ob, pb) = match (&b.left, &b.right) {
                (Side::Other(x), Side::Param(p)) => (*x, b.op, *p),
                (Side::Param(p), Side::Other(x)) => (*x, b.op.flipped(), *p),
                _ => continue,
            };
            if xa != xb || pa == pb {
                continue;
            }
            // From X ⋄a Pa and X ⋄b Pb derive Pa rel Pb:
            // Pa ⋄a' X (flip a), then chain with X ⋄b Pb.
            if let Some(rel) = chain(oa.flipped(), ob) {
                out.push((pa, rel, pb, a.span));
            }
        }
    }

    // Deduplicate with normalised orientation.
    let mut seen = std::collections::HashSet::new();
    let mut constraints = Vec::new();
    for (p, rel, q, span) in out {
        let (p, rel, q) = if names[p] <= names[q] {
            (p, rel, q)
        } else {
            (q, rel.flipped(), p)
        };
        if !seen.insert((p, rel, q)) {
            continue;
        }
        constraints.push(Constraint {
            param: names[p].clone(),
            kind: ConstraintKind::ValueRel(ValueRel {
                lhs: names[p].clone(),
                op: rel,
                rhs: names[q].clone(),
            }),
            in_function: String::new(),
            span,
        });
    }
    constraints
}

/// Chains `P ⋄1 X` and `X ⋄2 Q` into `P rel Q`, when the composition is
/// definite.
fn chain(o1: CmpOp, o2: CmpOp) -> Option<CmpOp> {
    use CmpOp::*;
    Some(match (o1, o2) {
        // Strictness wins: P < X ≤ Q, P ≤ X < Q, P < X < Q all give P < Q.
        (Lt, Lt) | (Lt, Le) | (Le, Lt) => Lt,
        (Le, Le) => Le,
        (Gt, Gt) | (Gt, Ge) | (Ge, Gt) => Gt,
        (Ge, Ge) => Ge,
        // Equality relays the other side.
        (Eq, other) => other,
        (other, Eq) => other,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::Annotation;
    use crate::infer::Spex;

    const TABLE_ANN: &str = "{ @STRUCT = options\n @PAR = [opt, 1]\n @VAR = [opt, 2] }";

    fn rels_of(src: &str) -> Vec<String> {
        let p = spex_lang::parse_program(src).unwrap();
        let m = spex_ir::lower_program(&p).unwrap();
        let anns = Annotation::parse(TABLE_ANN).unwrap();
        let a = Spex::analyze(m, &anns);
        a.all_constraints()
            .filter_map(|c| match &c.kind {
                ConstraintKind::ValueRel(v) => Some(v.to_string()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn chain_composition_table() {
        assert_eq!(chain(CmpOp::Le, CmpOp::Lt), Some(CmpOp::Lt));
        assert_eq!(chain(CmpOp::Lt, CmpOp::Le), Some(CmpOp::Lt));
        assert_eq!(chain(CmpOp::Le, CmpOp::Le), Some(CmpOp::Le));
        assert_eq!(chain(CmpOp::Ge, CmpOp::Gt), Some(CmpOp::Gt));
        assert_eq!(chain(CmpOp::Eq, CmpOp::Lt), Some(CmpOp::Lt));
        assert_eq!(chain(CmpOp::Lt, CmpOp::Gt), None);
        assert_eq!(chain(CmpOp::Ne, CmpOp::Lt), None);
    }

    #[test]
    fn direct_comparison_of_two_params() {
        let rels = rels_of(
            r#"
            int min_spare = 5;
            int max_spare = 10;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "min_spare", &min_spare }, { "max_spare", &max_spare } };
            void check() {
                if (min_spare > max_spare) { fprintf(stderr, "bad"); exit(1); }
            }
            "#,
        );
        assert_eq!(rels.len(), 1, "got {rels:?}");
        // min > max guards an exit: the constraint is min <= max, reported
        // in either orientation after normalisation.
        let ok = rels[0] == "\"min_spare\" <= \"max_spare\""
            || rels[0] == "\"max_spare\" >= \"min_spare\"";
        assert!(ok, "got {}", rels[0]);
    }

    #[test]
    fn transitive_through_intermediate() {
        // Figure 3(f): min/max word length related through `length`.
        let rels = rels_of(
            r#"
            int ft_min_word_len = 4;
            int ft_max_word_len = 84;
            struct opt { char* name; int* var; };
            struct opt options[] = {
                { "ft_min_word_len", &ft_min_word_len },
                { "ft_max_word_len", &ft_max_word_len }
            };
            void ft_get_word(int length) {
                if (length >= ft_min_word_len && length < ft_max_word_len) {
                    listen(0, length);
                }
            }
            "#,
        );
        assert!(!rels.is_empty(), "relation must be inferred");
        let r = &rels[0];
        assert!(
            (r.contains("ft_min_word_len") && r.contains("ft_max_word_len")),
            "got {r}"
        );
    }

    #[test]
    fn unrelated_params_produce_no_relation() {
        let rels = rels_of(
            r#"
            int a = 1;
            int b = 2;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "a", &a }, { "b", &b } };
            void f() { sleep(a); sleep(b); }
            "#,
        );
        assert!(rels.is_empty());
    }

    #[test]
    fn duplicate_relations_are_deduped() {
        let rels = rels_of(
            r#"
            int lo = 1;
            int hi = 9;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "lo", &lo }, { "hi", &hi } };
            void f() {
                if (lo > hi) { exit(1); }
            }
            void g() {
                if (lo > hi) { exit(1); }
            }
            "#,
        );
        assert_eq!(rels.len(), 1, "got {rels:?}");
    }
}
