//! Control-dependency inference (§2.2.4, Figure 3e).
//!
//! For each parameter Q, SPEX starts from Q's *usage statements* (uses in
//! branches, arithmetic operations and system/library-call arguments —
//! passing to a function or storing is not usage) and walks dominating
//! conditional branches. If a dominating condition involves another
//! parameter P compared with a constant V, the candidate dependency
//! `(P, V, ⋄) → Q` is recorded.
//!
//! Blindly reporting every such occurrence yields false constraints (the
//! VSFTP `listen`/`listen_ipv6` example), so candidates are aggregated over
//! all of Q's usage sites and reported only when the MAY-belief confidence
//! — the fraction of usage sites guarded by the check — reaches the
//! threshold (0.75, as in the paper).
//!
//! Guards are propagated across calls: when *every* call site of a function
//! is guarded by the same check, usages inside the function inherit it
//! (that is how the PostgreSQL `fsync → commit_siblings` dependency is
//! found: all of `commit_siblings`' usages sit in a callee invoked under
//! `if (fsync && ...)`).

use crate::constraint::{CmpOp, Constraint, ConstraintKind, ControlDep};
use crate::mapping::const_int;
use spex_dataflow::{AnalyzedModule, ModuleSummaries, ReturnTransfer, TaintResult, UseSite};
use spex_ir::{BlockId, Callee, FuncId, Instr, Terminator, ValueId};
use spex_lang::diag::Span;
use std::collections::{HashMap, HashSet};

/// The MAY-belief confidence threshold (the paper uses 0.75).
pub const CONFIDENCE_THRESHOLD: f64 = 0.75;

/// A candidate guard: parameter index, constant, operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Guard {
    param: usize,
    value: i64,
    op: CmpOp,
}

/// Infers all control dependencies across the parameter set.
pub fn infer(
    am: &AnalyzedModule,
    summaries: &ModuleSummaries,
    names: &[String],
    taints: &[std::sync::Arc<TaintResult>],
    vindex: &HashMap<(FuncId, ValueId), Vec<usize>>,
) -> Vec<Constraint> {
    let mut intra = IntraGuards::compute(am, summaries, vindex);
    let inherited = compute_inherited_guards(am, &mut intra);

    let mut out = Vec::new();
    for (qi, taint) in taints.iter().enumerate() {
        let sites = usage_sites(am, taint);
        if sites.is_empty() {
            continue;
        }
        // Tally guards over all usage sites. A guard is reported at its
        // earliest site: the sites come in hash order, which differs
        // between two slices of the same flow.
        let mut tally: HashMap<Guard, (usize, Span)> = HashMap::new();
        for &(f, b, span) in &sites {
            let mut guards: HashSet<Guard> = intra.guards_at(am, f, b).clone();
            if let Some(inh) = inherited.get(&f) {
                guards.extend(inh.iter().copied());
            }
            for g in guards {
                if g.param == qi {
                    continue;
                }
                let e = tally.entry(g).or_insert((0, span));
                e.0 += 1;
                e.1 = e.1.min(span);
            }
        }
        for (g, (count, span)) in tally {
            let confidence = count as f64 / sites.len() as f64;
            if confidence + 1e-9 >= CONFIDENCE_THRESHOLD {
                out.push(Constraint {
                    param: names[qi].clone(),
                    kind: ConstraintKind::ControlDep(ControlDep {
                        controller: names[g.param].clone(),
                        value: g.value,
                        op: g.op,
                        dependent: names[qi].clone(),
                        confidence,
                    }),
                    in_function: String::new(),
                    span,
                });
            }
        }
    }
    out
}

/// Q's usage sites: `(function, block, span)` per usage instruction.
fn usage_sites(am: &AnalyzedModule, taint: &TaintResult) -> Vec<(FuncId, BlockId, Span)> {
    let mut sites = Vec::new();
    for &(f, v) in taint.values.keys() {
        let func = am.module.func(f);
        let ud = &am.usedefs[f.index()];
        for site in ud.uses_of(v) {
            match site {
                UseSite::Term(b) => {
                    let span = func.blocks[b.index()].term.1;
                    match &func.blocks[b.index()].term.0 {
                        Terminator::CondBr { .. } | Terminator::Switch { .. } => {
                            sites.push((f, *b, span));
                        }
                        _ => {}
                    }
                }
                UseSite::Instr(b, i) => {
                    let (instr, span) = &func.blocks[b.index()].instrs[*i];
                    match instr {
                        Instr::Bin { .. } | Instr::Un { .. } => sites.push((f, *b, *span)),
                        Instr::Call {
                            callee: Callee::Builtin(bi),
                            ..
                        } if bi.is_behavioral_use() => sites.push((f, *b, *span)),
                        // Stores, casts, phis, loads, calls to defined
                        // functions: not usage (§2.2.4 and [29]).
                        _ => {}
                    }
                }
            }
        }
    }
    sites
}

/// Per-function guard extraction from dominating conditional branches,
/// memoised per block (guards are parameter-independent, and large startup
/// functions have thousands of usage sites sharing dominator chains).
struct IntraGuards<'a> {
    summaries: &'a ModuleSummaries,
    vindex: &'a HashMap<(FuncId, ValueId), Vec<usize>>,
    cache: HashMap<(FuncId, BlockId), HashSet<Guard>>,
}

impl<'a> IntraGuards<'a> {
    fn compute(
        _am: &AnalyzedModule,
        summaries: &'a ModuleSummaries,
        vindex: &'a HashMap<(FuncId, ValueId), Vec<usize>>,
    ) -> IntraGuards<'a> {
        IntraGuards {
            summaries,
            vindex,
            cache: HashMap::new(),
        }
    }

    /// Guards protecting block `b` of function `f`: for every dominator `d`
    /// ending in a conditional branch on a parameter, the implied
    /// `(param, V, ⋄)` with the side taken into account.
    ///
    /// Branches whose other side is an error path (`exit`, error return)
    /// are *validation checks* on the tested parameter, not feature gates:
    /// everything after `if (p out of range) exit(1);` trivially "depends"
    /// on p, but that is not the §2.2.4 notion of a control dependency, so
    /// such guards are skipped.
    fn guards_at(&mut self, am: &AnalyzedModule, f: FuncId, b: BlockId) -> &HashSet<Guard> {
        use crate::infer::branch::{classify_region, BranchBehavior};
        if self.cache.contains_key(&(f, b)) {
            return &self.cache[&(f, b)];
        }
        let func = am.module.func(f);
        let dom = &am.doms[f.index()];
        let empty_taint = spex_dataflow::TaintResult::default();
        let mut out = HashSet::new();
        for d in dom.dominators_of(b) {
            if d == b {
                continue;
            }
            let Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } = &func.blocks[d.index()].term.0
            else {
                continue;
            };
            // Which side leads to b?
            let (side, other) = if dom.dominates(*then_bb, b) {
                (true, *else_bb)
            } else if dom.dominates(*else_bb, b) {
                (false, *then_bb)
            } else {
                continue;
            };
            let other_behavior = classify_region(am, f, other, &empty_taint);
            if matches!(
                other_behavior,
                BranchBehavior::Exit | BranchBehavior::ErrorReturn
            ) {
                continue;
            }
            for g in self.guards_from_condition(am, f, *cond, side) {
                out.insert(g);
            }
        }
        self.cache.entry((f, b)).or_insert(out)
    }

    /// Decodes a branch condition into guards.
    fn guards_from_condition(
        &self,
        am: &AnalyzedModule,
        f: FuncId,
        cond: ValueId,
        side: bool,
    ) -> Vec<Guard> {
        let func = am.module.func(f);
        let ud = &am.usedefs[f.index()];
        let mut out = Vec::new();
        match ud.def_instr(func, cond) {
            Some(Instr::Bin { op, lhs, rhs, .. }) => {
                if let Some(cmp) = CmpOp::from_binop(*op) {
                    for (tainted, other, oriented) in [(lhs, rhs, cmp), (rhs, lhs, cmp.flipped())] {
                        let params = self.vindex.get(&(f, *tainted));
                        let Some(params) = params else { continue };
                        let Some(v) = const_int(am, f, *other) else {
                            continue;
                        };
                        let op = if side { oriented } else { oriented.negated() };
                        for &p in params {
                            out.push(Guard {
                                param: p,
                                value: v,
                                op,
                            });
                        }
                    }
                    return out;
                }
            }
            Some(Instr::Un {
                op: spex_lang::ast::UnOp::Not,
                operand,
                ..
            }) => {
                return self.guards_from_condition(am, f, *operand, !side);
            }
            // A branch on the result of a summarised predicate helper is a
            // guard on the argument passed to it: the predicate holds on the
            // taken side iff its conjunction of conditions holds.
            Some(Instr::Call {
                callee: Callee::Func(g),
                args,
                ..
            }) => {
                if let Some(ReturnTransfer::Predicate { param, conds }) =
                    &self.summaries.get(*g).ret
                {
                    let arg = args.get(*param as usize);
                    let params = arg.and_then(|a| self.vindex.get(&(f, *a)));
                    if let Some(params) = params {
                        // On the false side the negation of a multi-condition
                        // conjunction is a disjunction, which a Guard cannot
                        // express; only single-condition predicates negate.
                        if side || conds.len() == 1 {
                            for &(op, v) in conds {
                                let Some(cmp) = CmpOp::from_binop(op) else {
                                    continue;
                                };
                                let op = if side { cmp } else { cmp.negated() };
                                for &p in params {
                                    out.push(Guard {
                                        param: p,
                                        value: v,
                                        op,
                                    });
                                }
                            }
                        }
                    }
                    return out;
                }
            }
            _ => {}
        }
        // Truthiness test of a parameter value: `if (p)`.
        if let Some(params) = self.vindex.get(&(f, cond)) {
            let op = if side { CmpOp::Ne } else { CmpOp::Eq };
            for &p in params {
                out.push(Guard {
                    param: p,
                    value: 0,
                    op,
                });
            }
        }
        out
    }
}

/// Guards inherited through the call graph: a function called *only* from
/// sites protected by guard g is itself protected by g.
fn compute_inherited_guards(
    am: &AnalyzedModule,
    intra: &mut IntraGuards<'_>,
) -> HashMap<FuncId, HashSet<Guard>> {
    let mut inherited: HashMap<FuncId, HashSet<Guard>> = HashMap::new();
    // Fixpoint with a small iteration cap (call chains in config code are
    // shallow).
    for _ in 0..3 {
        let mut changed = false;
        for (fi, _) in am.module.functions.iter().enumerate() {
            let f = FuncId(fi as u32);
            let callers = am.callgraph.callers(f);
            if callers.is_empty() {
                continue;
            }
            let mut common: Option<HashSet<Guard>> = None;
            for cs in callers {
                let mut site_guards = intra.guards_at(am, cs.caller, cs.block).clone();
                if let Some(up) = inherited.get(&cs.caller) {
                    site_guards.extend(up.iter().copied());
                }
                common = Some(match common {
                    None => site_guards,
                    Some(prev) => prev.intersection(&site_guards).copied().collect(),
                });
            }
            let common = common.unwrap_or_default();
            if inherited.get(&f).map(|g| g != &common).unwrap_or(true) {
                inherited.insert(f, common);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    inherited
}

#[cfg(test)]
mod tests {
    use crate::annotations::Annotation;
    use crate::constraint::{CmpOp, ConstraintKind};
    use crate::infer::Spex;

    const TABLE_ANN: &str = "{ @STRUCT = options\n @PAR = [opt, 1]\n @VAR = [opt, 2] }";

    fn deps_of(src: &str, param: &str) -> Vec<(String, i64, CmpOp, f64)> {
        let p = spex_lang::parse_program(src).unwrap();
        let m = spex_ir::lower_program(&p).unwrap();
        let anns = Annotation::parse(TABLE_ANN).unwrap();
        let a = Spex::analyze(m, &anns);
        a.param(param)
            .map(|r| {
                r.constraints
                    .iter()
                    .filter_map(|c| match &c.kind {
                        ConstraintKind::ControlDep(d) => {
                            Some((d.controller.clone(), d.value, d.op, d.confidence))
                        }
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    #[test]
    fn direct_guard_inferred() {
        let deps = deps_of(
            r#"
            int use_ipv6 = 0;
            int listen_port = 21;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "use_ipv6", &use_ipv6 }, { "listen_port", &listen_port } };
            void startup() {
                if (use_ipv6) {
                    bind(0, listen_port);
                }
            }
            "#,
            "listen_port",
        );
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].0, "use_ipv6");
        assert_eq!(deps[0].1, 0);
        assert_eq!(deps[0].2, CmpOp::Ne);
        assert!(deps[0].3 >= 0.99);
    }

    #[test]
    fn interprocedural_guard_inferred() {
        // Figure 3(e): commit_siblings used inside a call guarded by fsync.
        let deps = deps_of(
            r#"
            int fsync_on = 1;
            int commit_siblings = 5;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "fsync", &fsync_on }, { "commit_siblings", &commit_siblings } };
            int MinimumActiveBackends() {
                int s = commit_siblings;
                return s * 2;
            }
            void RecordTransactionCommit() {
                if (fsync_on) {
                    MinimumActiveBackends();
                }
            }
            "#,
            "commit_siblings",
        );
        assert_eq!(deps.len(), 1, "got {deps:?}");
        assert_eq!(deps[0].0, "fsync");
        assert_eq!(deps[0].2, CmpOp::Ne);
    }

    #[test]
    fn vsftp_style_split_usage_is_filtered() {
        // listen_port used once under `listen` and once under
        // `listen_ipv6`: each candidate has confidence 0.5 < 0.75 and must
        // be filtered (§2.2.4).
        let deps = deps_of(
            r#"
            int listen_v4 = 1;
            int listen_v6 = 0;
            int listen_port = 21;
            struct opt { char* name; int* var; };
            struct opt options[] = {
                { "listen", &listen_v4 },
                { "listen_ipv6", &listen_v6 },
                { "listen_port", &listen_port }
            };
            void startup() {
                if (listen_v4 == 1) {
                    bind(0, listen_port);
                }
                if (listen_v6 == 1) {
                    bind(1, listen_port);
                }
            }
            "#,
            "listen_port",
        );
        assert!(
            deps.is_empty(),
            "both 0.5-confidence deps filtered: {deps:?}"
        );
    }

    #[test]
    fn comparison_guard_with_constant() {
        let deps = deps_of(
            r#"
            int mode = 2;
            int cache_size = 64;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "mode", &mode }, { "cache_size", &cache_size } };
            void setup() {
                if (mode > 1) {
                    malloc(cache_size);
                }
            }
            "#,
            "cache_size",
        );
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].0, "mode");
        assert_eq!(deps[0].1, 1);
        assert_eq!(deps[0].2, CmpOp::Gt);
    }

    #[test]
    fn no_self_dependency() {
        let deps = deps_of(
            r#"
            int burst = 10;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "burst", &burst } };
            void f() {
                if (burst > 0) { sleep(burst); }
            }
            "#,
            "burst",
        );
        assert!(deps.is_empty());
    }
}
