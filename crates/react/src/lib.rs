//! `spex-react` — static reaction analysis.
//!
//! SPEX-INJ (§3.1 of the paper) finds misconfiguration *vulnerabilities* —
//! silent ignores, late crashes, missing messages — by actually executing
//! corrupted configurations. That is the accuracy gold standard, but every
//! verdict costs a VM run. This crate predicts the same taxonomy statically:
//! for each configuration parameter it walks the taint slice computed by
//! `spex-dataflow`, finds the validation branches guarding the value, finds
//! the dangerous sinks the value flows into, and classifies the *reaction
//! path* the system would take on an invalid value — in microseconds, with
//! no injection run at all.
//!
//! The four verdicts map onto the stable `SPEX-V` diagnostic-code family:
//!
//! | Code | [`ReactionClass`] | Meaning |
//! |------|-------------------|---------|
//! | `SPEX-V001` | [`CheckedWithMessage`](ReactionClass::CheckedWithMessage) | a validation branch dominates the uses and its failure arm exits, returns an error, or logs before falling back |
//! | `SPEX-V002` | [`SilentFallback`](ReactionClass::SilentFallback) | the failure arm overwrites the value with a default and emits nothing |
//! | `SPEX-V003` | [`LateDetection`](ReactionClass::LateDetection) | the value reaches a dangerous sink (unsafe parse API, divisor, allocation size, sleep duration, array index, loop bound) before any dominating check |
//! | `SPEX-V004` | [`ReactUnchecked`](ReactionClass::Unchecked) | no validation branch guards the parameter at all |
//!
//! Predictions are cross-validated against observed SPEX-INJ outcomes in
//! the repository's `tests/cross_validation.rs` snapshot.
//!
//! # Example
//!
//! ```
//! use spex_core::{annotations::Annotation, Spex};
//! use spex_react::{classify_analysis, ReactionClass};
//!
//! let src = r#"
//!     int threads = 4;
//!     struct opt { char* name; int* var; };
//!     struct opt options[] = { { "threads", &threads } };
//!     void startup() {
//!         if (threads > 16) { fprintf(stderr, "bad threads"); exit(1); }
//!         listen(0, threads);
//!     }
//! "#;
//! let program = spex_lang::parse_program(src).unwrap();
//! let module = spex_ir::lower_program(&program).unwrap();
//! let anns =
//!     Annotation::parse("{ @STRUCT = options\n @PAR = [opt, 1]\n @VAR = [opt, 2] }").unwrap();
//! let analysis = Spex::analyze(module, &anns);
//! let findings = classify_analysis(&analysis);
//! assert_eq!(findings[0].class, ReactionClass::CheckedWithMessage);
//! ```

#![deny(missing_docs)]

use spex_core::constraint::DiagCode;
use spex_core::infer::branch::{classify_region, BranchBehavior};
use spex_core::infer::{ParamReport, SpexAnalysis};
use spex_dataflow::{branch_sides, AnalyzedModule, ModuleSummaries, ReturnTransfer, TaintResult};
use spex_ir::{BlockId, Callee, FuncId, Instr, PlaceElem, Terminator, ValueId};
use spex_lang::ast::BinOp;
use spex_lang::builtins::Builtin;
use spex_lang::diag::Span;
use std::fmt;

/// The predicted reaction path for an invalid value of one parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReactionClass {
    /// A validation branch guards the value and its failure arm reaches a
    /// message-emitting or aborting call (or propagates an error return):
    /// the desired reaction, pinpointed and early.
    CheckedWithMessage,
    /// The failure arm of the validation branch overwrites the value with
    /// a default and emits nothing — the configured value is silently
    /// overruled (the paper's "silent violation").
    SilentFallback,
    /// The value flows into a dangerous sink — unsafe parse API, divisor,
    /// allocation size, sleep duration, array index, loop bound — before
    /// any dominating check: an invalid value surfaces late, as a crash,
    /// hang or corruption, if it surfaces at all.
    LateDetection,
    /// No validation branch guards the parameter at all; an invalid value
    /// silently changes behaviour.
    Unchecked,
}

impl ReactionClass {
    /// Every class, in code order (`SPEX-V001..V004`).
    pub const ALL: [ReactionClass; 4] = [
        ReactionClass::CheckedWithMessage,
        ReactionClass::SilentFallback,
        ReactionClass::LateDetection,
        ReactionClass::Unchecked,
    ];

    /// The stable diagnostic code of this verdict.
    pub fn code(self) -> DiagCode {
        match self {
            ReactionClass::CheckedWithMessage => DiagCode::ReactChecked,
            ReactionClass::SilentFallback => DiagCode::ReactSilentFallback,
            ReactionClass::LateDetection => DiagCode::ReactLateDetection,
            ReactionClass::Unchecked => DiagCode::ReactUnchecked,
        }
    }

    /// Stable kebab-case name (the vocabulary of the paper's §3.1 table).
    pub fn as_str(self) -> &'static str {
        match self {
            ReactionClass::CheckedWithMessage => "checked-with-message",
            ReactionClass::SilentFallback => "silent-fallback",
            ReactionClass::LateDetection => "late-detection",
            ReactionClass::Unchecked => "unchecked",
        }
    }

    /// Whether this prediction marks the parameter as a misconfiguration
    /// vulnerability (everything but a checked-with-message reaction).
    pub fn is_vulnerability(self) -> bool {
        self != ReactionClass::CheckedWithMessage
    }
}

impl fmt::Display for ReactionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A kind of dangerous sink (§3.2's error-prone uses, plus the classic
/// crash sites).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SinkKind {
    /// An unsafe transformation API (`atoi`, `sscanf`, ...) that cannot
    /// report a malformed value.
    UnsafeParse,
    /// The right-hand side of a division or modulo.
    Divisor,
    /// The size argument of an allocation call.
    AllocationSize,
    /// The duration argument of `sleep`/`usleep`/`alarm`.
    SleepDuration,
    /// A dynamic array index.
    ArrayIndex,
    /// The bound of a loop (a tainted comparison deciding a back edge).
    LoopBound,
}

impl SinkKind {
    /// Stable kebab-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            SinkKind::UnsafeParse => "unsafe-parse",
            SinkKind::Divisor => "divisor",
            SinkKind::AllocationSize => "allocation-size",
            SinkKind::SleepDuration => "sleep-duration",
            SinkKind::ArrayIndex => "array-index",
            SinkKind::LoopBound => "loop-bound",
        }
    }
}

impl fmt::Display for SinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One dangerous sink the parameter's value reaches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sink {
    /// What kind of sink.
    pub kind: SinkKind,
    /// Containing function.
    pub in_function: String,
    /// Source location of the sink.
    pub span: Span,
    fid: FuncId,
    block: BlockId,
}

/// One validation branch guarding the parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Check {
    /// What the failure arm does.
    behavior: BranchBehavior,
    in_function: String,
    span: Span,
    fid: FuncId,
    block: BlockId,
}

/// Strength order for picking the decisive check: exits beat error
/// returns beat logged resets beat silent resets.
fn behavior_rank(b: &BranchBehavior) -> u8 {
    match b {
        BranchBehavior::Exit => 4,
        BranchBehavior::ErrorReturn => 3,
        BranchBehavior::Reset { logged: true, .. } => 2,
        BranchBehavior::Reset { logged: false, .. } => 1,
        BranchBehavior::Normal => 0,
    }
}

/// The static verdict for one parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReactionFinding {
    /// The parameter.
    pub param: String,
    /// The predicted reaction class.
    pub class: ReactionClass,
    /// Function holding the decisive evidence (the strongest check, the
    /// first undominated sink, or empty for unchecked parameters with no
    /// anchor).
    pub in_function: String,
    /// Source location of the decisive evidence (the parameter's
    /// declaration for unchecked parameters).
    pub span: Span,
    /// Human explanation of the verdict.
    pub detail: String,
    /// Every dangerous sink the value reaches (dominated ones included).
    pub sinks: Vec<Sink>,
    /// How many validation branches guard the value.
    pub checks: usize,
}

impl ReactionFinding {
    /// The stable diagnostic code of this finding.
    pub fn code(&self) -> DiagCode {
        self.class.code()
    }
}

impl fmt::Display for ReactionFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] \"{}\": {}", self.code(), self.param, self.detail)
    }
}

/// Finds every validation branch guarding the parameter: a comparison (or
/// string-comparison call) on the value's flow that feeds a conditional
/// branch with at least one invalid arm, plus `switch` dispatches on the
/// value whose default arm is invalid.
fn find_checks(am: &AnalyzedModule, taint: &TaintResult) -> Vec<Check> {
    let mut checks = Vec::new();
    for fid in taint.touched_functions() {
        let func = am.module.func(fid);
        for (b, _, instr, span) in func.iter_instrs() {
            let cond: Option<ValueId> = match instr {
                Instr::Bin { dst, op, lhs, rhs }
                    if op.is_comparison()
                        && (taint.is_tainted(fid, *lhs) || taint.is_tainted(fid, *rhs)) =>
                {
                    Some(*dst)
                }
                // String validation goes through comparison builtins whose
                // result is not itself tainted (`strcmp(value, "on")`);
                // `branch_sides` follows the `== 0` wrapper and flips.
                Instr::Call {
                    callee: Callee::Builtin(bi),
                    args,
                    dst: Some(d),
                } if bi.is_string_comparison()
                    && args.iter().any(|a| taint.is_tainted(fid, *a)) =>
                {
                    Some(*d)
                }
                _ => None,
            };
            if let Some(cond) = cond {
                push_branch_check(&mut checks, am, taint, (fid, b, span), cond);
            }
        }
        // A `switch` on the value is a dispatch-style validation when its
        // default arm rejects or resets.
        for (bi, blk) in func.blocks.iter().enumerate() {
            if let Terminator::Switch { value, default, .. } = &blk.term.0 {
                if taint.is_tainted(fid, *value) {
                    let behavior = classify_region(am, fid, *default, taint);
                    if behavior.is_invalid() {
                        checks.push(Check {
                            behavior,
                            in_function: func.name.clone(),
                            span: blk.term.1,
                            fid,
                            block: BlockId(bi as u32),
                        });
                    }
                }
            }
        }
    }
    checks
}

/// Finds the validation branches whose comparison lives in a *callee*: the
/// caller branches on the result of a summarised predicate helper
/// (`if (!valid_port(port)) exit(1);`). The helper's own comparisons feed
/// its return value, not a branch, so intraprocedural [`find_checks`] sees
/// nothing there — the check summary is what turns such parameters from
/// unchecked (`SPEX-V004`) into checked (`SPEX-V001`).
fn find_summary_checks(
    am: &AnalyzedModule,
    summaries: &ModuleSummaries,
    taint: &TaintResult,
) -> Vec<Check> {
    let mut checks = Vec::new();
    for fid in taint.touched_functions() {
        let func = am.module.func(fid);
        for (b, _, instr, span) in func.iter_instrs() {
            let Instr::Call {
                dst: Some(dst),
                callee: Callee::Func(g),
                args,
            } = instr
            else {
                continue;
            };
            let Some(ReturnTransfer::Predicate { param, .. }) = &summaries.get(*g).ret else {
                continue;
            };
            let Some(&arg) = args.get(*param as usize) else {
                continue;
            };
            if taint.is_tainted(fid, arg) {
                push_branch_check(&mut checks, am, taint, (fid, b, span), *dst);
            }
        }
    }
    checks
}

/// Records the conditional branch fed by `cond` at `(fid, block, span)` as
/// a check when the stronger of its two arms is invalid (the true arm wins
/// a tie).
fn push_branch_check(
    checks: &mut Vec<Check>,
    am: &AnalyzedModule,
    taint: &TaintResult,
    (fid, block, span): (FuncId, BlockId, Span),
    cond: ValueId,
) {
    let Some((t_bb, e_bb)) = branch_sides(am, fid, cond) else {
        return;
    };
    let t_beh = classify_region(am, fid, t_bb, taint);
    let e_beh = classify_region(am, fid, e_bb, taint);
    let behavior = if behavior_rank(&t_beh) >= behavior_rank(&e_beh) {
        t_beh
    } else {
        e_beh
    };
    if behavior.is_invalid() {
        checks.push(Check {
            behavior,
            in_function: am.module.func(fid).name.clone(),
            span,
            fid,
            block,
        });
    }
}

/// Finds every dangerous sink the parameter's value reaches.
fn find_sinks(am: &AnalyzedModule, report: &ParamReport) -> Vec<Sink> {
    let taint = &report.taint;
    let mut sinks = Vec::new();
    for (_, in_function, span) in &report.evidence.unsafe_apis {
        // The raw string must be parsed before any numeric check can
        // exist, so unsafe-parse sinks are recorded without a block: they
        // are never dominated.
        sinks.push(Sink {
            kind: SinkKind::UnsafeParse,
            in_function: in_function.clone(),
            span: *span,
            fid: FuncId(u32::MAX),
            block: BlockId(u32::MAX),
        });
    }
    for fid in taint.touched_functions() {
        let func = am.module.func(fid);
        for (b, _, instr, span) in func.iter_instrs() {
            let kind = match instr {
                Instr::Bin {
                    op: BinOp::Div | BinOp::Rem,
                    rhs,
                    ..
                } if taint.is_tainted(fid, *rhs) => Some(SinkKind::Divisor),
                Instr::Call {
                    callee: Callee::Builtin(Builtin::Malloc | Builtin::Calloc),
                    args,
                    ..
                } if args.iter().any(|a| taint.is_tainted(fid, *a)) => {
                    Some(SinkKind::AllocationSize)
                }
                Instr::Call {
                    callee: Callee::Builtin(Builtin::Sleep | Builtin::Usleep | Builtin::Alarm),
                    args,
                    ..
                } if args.iter().any(|a| taint.is_tainted(fid, *a)) => {
                    Some(SinkKind::SleepDuration)
                }
                Instr::Load { place, .. } | Instr::Store { place, .. }
                    if place.elems.iter().any(
                        |e| matches!(e, PlaceElem::IndexValue(v) if taint.is_tainted(fid, *v)),
                    ) =>
                {
                    Some(SinkKind::ArrayIndex)
                }
                _ => None,
            };
            if let Some(kind) = kind {
                sinks.push(Sink {
                    kind,
                    in_function: func.name.clone(),
                    span,
                    fid,
                    block: b,
                });
            }
        }
        // Loop bounds: a tainted comparison deciding a conditional branch
        // one of whose targets is a loop header (the target dominates the
        // branching block — a back edge).
        let dom = &am.doms[fid.index()];
        for (bi, blk) in func.blocks.iter().enumerate() {
            let b = BlockId(bi as u32);
            if let Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } = &blk.term.0
            {
                if taint.is_tainted(fid, *cond)
                    && [*then_bb, *else_bb]
                        .iter()
                        .any(|t| *t != b && dom.dominates(*t, b))
                {
                    sinks.push(Sink {
                        kind: SinkKind::LoopBound,
                        in_function: func.name.clone(),
                        span: blk.term.1,
                        fid,
                        block: b,
                    });
                }
            }
        }
    }
    sinks
}

/// Whether any check dominates the sink. Within one function this is
/// dominator-tree dominance of the check's block over the sink's (a sink
/// sharing the check's own block runs before the branch takes effect, so
/// it does not count). Across functions the check is credited: the
/// subject systems validate in their config-dispatch path, which runs
/// before any startup use.
fn sink_dominated(am: &AnalyzedModule, checks: &[Check], sink: &Sink) -> bool {
    if sink.kind == SinkKind::UnsafeParse {
        return false;
    }
    checks.iter().any(|c| {
        if c.fid != sink.fid {
            return true;
        }
        c.block != sink.block && am.doms[c.fid.index()].dominates(c.block, sink.block)
    })
}

/// Classifies the reaction path of one parameter.
///
/// The verdict, in priority order: a dangerous sink no check dominates is
/// [`LateDetection`](ReactionClass::LateDetection); otherwise the
/// strongest validation branch decides between
/// [`CheckedWithMessage`](ReactionClass::CheckedWithMessage) (exit, error
/// return, or a logged fallback) and
/// [`SilentFallback`](ReactionClass::SilentFallback) (an unlogged reset);
/// a parameter whose slice only parses through an unsafe API is
/// [`LateDetection`](ReactionClass::LateDetection); everything else is
/// [`Unchecked`](ReactionClass::Unchecked).
pub fn classify(am: &AnalyzedModule, report: &ParamReport) -> ReactionFinding {
    let (summaries, _) = ModuleSummaries::compute(am);
    classify_with_summaries(am, &summaries, report)
}

/// Like [`classify`], but consuming precomputed interprocedural function
/// summaries instead of deriving them on the spot — the form the cached
/// analysis pipeline uses ([`SpexAnalysis`] carries the summaries it
/// computed during inference).
pub fn classify_with_summaries(
    am: &AnalyzedModule,
    summaries: &ModuleSummaries,
    report: &ParamReport,
) -> ReactionFinding {
    let _span = spex_obs::span!("react.classify", param = report.param.name);
    let mut checks = find_checks(am, &report.taint);
    checks.extend(find_summary_checks(am, summaries, &report.taint));
    let sinks = find_sinks(am, report);
    spex_obs::counter("react.checks.found", checks.len() as u64);
    spex_obs::counter("react.sinks.found", sinks.len() as u64);

    let undominated = sinks
        .iter()
        .find(|s| !sink_dominated(am, &checks, s))
        // Unsafe parses only decide the verdict when nothing checks the
        // parsed value at all — a dominating-style check after the parse
        // still catches the bad *number*, just not a malformed string.
        .filter(|s| s.kind != SinkKind::UnsafeParse || checks.is_empty());

    let (class, in_function, span, detail) = if let Some(sink) = undominated {
        (
            ReactionClass::LateDetection,
            sink.in_function.clone(),
            sink.span,
            format!(
                "value reaches a {} sink in \"{}\" with no dominating check",
                sink.kind, sink.in_function
            ),
        )
    } else if let Some(best) = checks.iter().max_by_key(|c| behavior_rank(&c.behavior)) {
        match &best.behavior {
            BranchBehavior::Exit => (
                ReactionClass::CheckedWithMessage,
                best.in_function.clone(),
                best.span,
                format!(
                    "validation branch in \"{}\" aborts on failure",
                    best.in_function
                ),
            ),
            BranchBehavior::ErrorReturn => (
                ReactionClass::CheckedWithMessage,
                best.in_function.clone(),
                best.span,
                format!(
                    "validation branch in \"{}\" propagates an error return on failure",
                    best.in_function
                ),
            ),
            BranchBehavior::Reset { logged: true, .. } => (
                ReactionClass::CheckedWithMessage,
                best.in_function.clone(),
                best.span,
                format!(
                    "failure arm in \"{}\" falls back to a default, with a message",
                    best.in_function
                ),
            ),
            BranchBehavior::Reset { logged: false, .. } => (
                ReactionClass::SilentFallback,
                best.in_function.clone(),
                best.span,
                format!(
                    "failure arm in \"{}\" silently overwrites the value with a default",
                    best.in_function
                ),
            ),
            BranchBehavior::Normal => unreachable!("checks hold invalid behaviors only"),
        }
    } else {
        (
            ReactionClass::Unchecked,
            String::new(),
            report.param.decl_span,
            "no validation branch guards this parameter".to_string(),
        )
    };
    ReactionFinding {
        param: report.param.name.clone(),
        class,
        in_function,
        span,
        detail,
        sinks,
        checks: checks.len(),
    }
}

/// Classifies every non-stale parameter of an analysis, in report order.
///
/// Stale reports (parameters a scoped re-analysis skipped) carry no
/// evidence, so their previous findings remain authoritative — the
/// workspace layer caches and reuses them.
pub fn classify_analysis(analysis: &SpexAnalysis) -> Vec<ReactionFinding> {
    let _span = spex_obs::span("react.analysis");
    let findings: Vec<ReactionFinding> = analysis
        .reports
        .iter()
        .filter(|r| !r.stale)
        .map(|r| classify_with_summaries(&analysis.am, &analysis.summaries, r))
        .collect();
    spex_obs::counter("react.params.classified", findings.len() as u64);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use spex_core::annotations::Annotation;
    use spex_core::Spex;

    const ANN: &str = "{ @STRUCT = options\n @PAR = [opt, 1]\n @VAR = [opt, 2] }";

    fn analyze(src: &str) -> SpexAnalysis {
        let p = spex_lang::parse_program(src).unwrap();
        let m = spex_ir::lower_program(&p).unwrap();
        let anns = Annotation::parse(ANN).unwrap();
        Spex::analyze(m, &anns)
    }

    fn class_of(src: &str, param: &str) -> ReactionClass {
        let a = analyze(src);
        let r = a.param(param).unwrap();
        classify(&a.am, r).class
    }

    #[test]
    fn exit_guard_is_checked_with_message() {
        let class = class_of(
            r#"
            int threads = 4;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "threads", &threads } };
            void startup() {
                if (threads > 16) { fprintf(stderr, "bad"); exit(1); }
                listen(0, threads);
            }
            "#,
            "threads",
        );
        assert_eq!(class, ReactionClass::CheckedWithMessage);
    }

    #[test]
    fn silent_clamp_is_silent_fallback() {
        let class = class_of(
            r#"
            int intlen = 8;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "intlen", &intlen } };
            void clamp() {
                if (intlen > 255) { intlen = 255; }
                listen(0, intlen);
            }
            "#,
            "intlen",
        );
        assert_eq!(class, ReactionClass::SilentFallback);
    }

    #[test]
    fn logged_clamp_is_checked() {
        let class = class_of(
            r#"
            int intlen = 8;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "intlen", &intlen } };
            void clamp() {
                if (intlen > 255) {
                    fprintf(stderr, "intlen too large, using 255");
                    intlen = 255;
                }
                listen(0, intlen);
            }
            "#,
            "intlen",
        );
        assert_eq!(class, ReactionClass::CheckedWithMessage);
    }

    #[test]
    fn unguarded_sleep_is_late_detection() {
        let a = analyze(
            r#"
            int nap = 30;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "nap", &nap } };
            void napper() { sleep(nap); }
            "#,
        );
        let f = classify(&a.am, a.param("nap").unwrap());
        assert_eq!(f.class, ReactionClass::LateDetection);
        assert_eq!(f.sinks.len(), 1);
        assert_eq!(f.sinks[0].kind, SinkKind::SleepDuration);
    }

    #[test]
    fn unguarded_dynamic_index_is_late_detection() {
        let a = analyze(
            r#"
            int slot = 0;
            int table[16];
            struct opt { char* name; int* var; };
            struct opt options[] = { { "slot", &slot } };
            void place() { table[slot] = 1; }
            "#,
        );
        let f = classify(&a.am, a.param("slot").unwrap());
        assert_eq!(f.class, ReactionClass::LateDetection);
        assert!(f.sinks.iter().any(|s| s.kind == SinkKind::ArrayIndex));
    }

    #[test]
    fn dominating_check_neutralises_the_sink() {
        let class = class_of(
            r#"
            int nap = 30;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "nap", &nap } };
            void napper() {
                if (nap > 600) { fprintf(stderr, "bad nap"); exit(1); }
                sleep(nap);
            }
            "#,
            "nap",
        );
        assert_eq!(class, ReactionClass::CheckedWithMessage);
    }

    #[test]
    fn cross_function_check_is_credited() {
        // The subject systems validate in the config-dispatch path, which
        // runs before any startup use of the stored value.
        let class = class_of(
            r#"
            int nap = 30;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "nap", &nap } };
            int dispatch() {
                if (nap > 600) { fprintf(stderr, "bad nap"); return -1; }
                return 0;
            }
            void napper() { sleep(nap); }
            "#,
            "nap",
        );
        assert_eq!(class, ReactionClass::CheckedWithMessage);
    }

    #[test]
    fn plain_use_is_unchecked() {
        let a = analyze(
            r#"
            int margin = 2;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "margin", &margin } };
            void apply() { int m = margin + 1; listen(0, m); }
            "#,
        );
        let f = classify(&a.am, a.param("margin").unwrap());
        assert_eq!(f.class, ReactionClass::Unchecked);
        assert!(f.sinks.is_empty());
        assert_eq!(f.checks, 0);
    }

    #[test]
    fn string_comparison_guard_counts_as_check() {
        let class = class_of(
            r#"
            char* mode = "fast";
            struct opt { char* name; char* var; };
            struct opt options[] = { { "mode", &mode } };
            void pick() {
                if (strcmp(mode, "fast") != 0) {
                    fprintf(stderr, "unknown mode");
                    exit(1);
                }
                printf("ok");
            }
            "#,
            "mode",
        );
        assert_eq!(class, ReactionClass::CheckedWithMessage);
    }

    #[test]
    fn codes_round_trip_and_flag_vulnerabilities() {
        for class in ReactionClass::ALL {
            assert_eq!(DiagCode::parse(class.code().as_str()), Some(class.code()));
            assert_eq!(class.code().category(), "reaction");
        }
        assert!(!ReactionClass::CheckedWithMessage.is_vulnerability());
        assert!(ReactionClass::SilentFallback.is_vulnerability());
        assert!(ReactionClass::LateDetection.is_vulnerability());
        assert!(ReactionClass::Unchecked.is_vulnerability());
    }

    #[test]
    fn classify_analysis_skips_stale_reports() {
        let a = analyze(
            r#"
            int a_knob = 1;
            int b_knob = 2;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "a_knob", &a_knob }, { "b_knob", &b_knob } };
            void go() { sleep(a_knob); sleep(b_knob); }
            "#,
        );
        assert_eq!(classify_analysis(&a).len(), 2);
    }
}
