//! Summary-based interprocedural analysis (§2.2's "all data-flow paths",
//! extended across call boundaries).
//!
//! A [`FunctionSummary`] captures, context-free, what a function does with
//! its parameters and return value:
//!
//! * **check summaries** ([`CheckSummary`]) — comparisons of a parameter
//!   against a constant whose guarded arm exits or returns an error code,
//!   i.e. the validation checks a caller gets for free by calling this
//!   function;
//! * **return transfers** ([`ReturnTransfer`]) — the function's return
//!   value as a function of its parameters: single-parameter predicates
//!   (`return p >= 1 && p <= 65535;`), parameter-vs-parameter predicates
//!   (`return lo <= hi;`), builtin wrappers (`return atoi(s);`) and
//!   identity wrappers (`return p;`);
//! * **never-returns** — no reachable `ret`, counting callees already
//!   summarized as never-returning.
//!
//! Summaries are evaluated bottom-up over the SCC condensation of the call
//! graph ([`crate::scc::Condensation`], read off [`crate::CallGraph`]): a
//! function's summary may consult its callees' summaries, so components are
//! processed callees-first. Arms are located and bounded with the shared
//! helpers of [`crate::branch`], and classified here without taint: an arm
//! exits (counting summarized callees) or returns an error.
//! Cyclic components (recursion) iterate to a fixpoint bounded by
//! [`WIDEN_ITERATIONS`]; a component that fails to converge is *widened*
//! to the empty summary — deterministic, terminating, and sound, since an
//! empty summary merely contributes no interprocedural facts.
//!
//! Everything is deterministic by construction (fixed component order,
//! fixed in-function scan order), so consumers folding summary-derived
//! facts stay byte-identical at every thread count.

use crate::branch::{branch_sides, const_int, is_const_null, straight_line_region};
use crate::scc::Condensation;
use crate::AnalyzedModule;
use spex_ir::cfg::Cfg;
use spex_ir::dom::DomTree;
use spex_ir::{BlockId, Callee, FuncId, Function, Instr, Terminator, ValueId};
use spex_lang::ast::{BinOp, UnOp};
use spex_lang::builtins::Builtin;
use spex_lang::diag::Span;

use crate::usedef::UseDefs;

/// Fixpoint bound for cyclic components: after this many rounds without
/// convergence every member widens to the empty summary.
pub const WIDEN_ITERATIONS: usize = 4;

/// Recursion bound when resolving a returned value through phi nodes.
const PHI_DEPTH: usize = 8;

/// Cap on distinct return-value leaves considered for one function.
const MAX_LEAVES: usize = 16;

/// What a guarded arm does when a check summary fires. Mirrors the
/// intraprocedural branch classifier's exit/error cases; resets are
/// parameter-dependent (they need the caller's taint) and are therefore
/// not summarizable context-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummaryBehavior {
    /// The arm calls a no-return routine (directly or transitively).
    Exit,
    /// The arm returns a negative constant or null.
    ErrorReturn,
}

/// "When `param <op> value` holds, the function takes an invalid arm."
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckSummary {
    /// Parameter index (0-based) the comparison guards.
    pub param: u32,
    /// Comparison operator, normalized with the parameter on the left.
    pub op: BinOp,
    /// The constant compared against.
    pub value: i64,
    /// What the guarded arm does.
    pub behavior: SummaryBehavior,
    /// The comparison's source location inside the callee.
    pub span: Span,
}

/// The function's return value as a transfer function of its parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReturnTransfer {
    /// Returns nonzero iff the conjunction of `conds` holds on parameter
    /// `param` — the shape of a validation predicate
    /// (`return p >= 1 && p <= 65535;`).
    Predicate {
        /// Parameter index (0-based) the predicate constrains.
        param: u32,
        /// Conjunction of `(op, constant)` conditions, parameter on the
        /// left, in deterministic extraction order.
        conds: Vec<(BinOp, i64)>,
    },
    /// Returns nonzero iff `left <op> right` over two parameters
    /// (`return lo <= hi;`).
    ParamPredicate {
        /// Left parameter index.
        left: u32,
        /// Comparison operator.
        op: BinOp,
        /// Right parameter index.
        right: u32,
    },
    /// Returns the (possibly cast) result of a builtin call — a wrapper
    /// like `return atoi(s);`, possibly through further wrappers.
    Builtin(Builtin),
    /// Returns parameter `0`-based index unchanged (identity wrapper).
    Param(u32),
}

/// Everything summarized about one function.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FunctionSummary {
    /// Validation checks on parameters whose failure arm exits or errors.
    pub checks: Vec<CheckSummary>,
    /// Return-value transfer function, when one of the recognized shapes
    /// applies.
    pub ret: Option<ReturnTransfer>,
    /// The function has no reachable `ret` (a `die()`-style helper).
    pub never_returns: bool,
    /// The function's component failed to converge and was widened to the
    /// empty summary.
    pub widened: bool,
}

impl FunctionSummary {
    /// Whether the summary carries no interprocedural facts.
    pub fn is_empty(&self) -> bool {
        self.checks.is_empty() && self.ret.is_none() && !self.never_returns
    }
}

/// Recompute accounting for one [`ModuleSummaries`] evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SummaryStats {
    /// Functions whose summary was (re)computed this evaluation.
    pub runs: usize,
    /// Functions whose summary was reused from the previous evaluation.
    pub hits: usize,
    /// Per-function recompute flags (indexed by function id).
    pub recomputed: Vec<bool>,
}

/// All per-function summaries of a module.
#[derive(Debug, Clone)]
pub struct ModuleSummaries {
    fns: Vec<FunctionSummary>,
}

impl ModuleSummaries {
    /// Computes every summary from scratch.
    pub fn compute(am: &AnalyzedModule) -> (ModuleSummaries, SummaryStats) {
        ModuleSummaries::compute_incremental(am, None)
    }

    /// Computes summaries, reusing `prev` for every component with no
    /// dirty member and no recomputed callee component.
    ///
    /// `dirty` is indexed by the *new* module's function ids; the caller
    /// guarantees (unchanged item keys plus stable ids) that a non-dirty
    /// function's body is identical to its previous generation. A dirty
    /// component invalidates exactly itself plus its transitive dependents
    /// (callers), matching the bottom-up evaluation order.
    pub fn compute_incremental(
        am: &AnalyzedModule,
        prev: Option<(&ModuleSummaries, &[bool])>,
    ) -> (ModuleSummaries, SummaryStats) {
        let n = am.module.functions.len();
        let scc = Condensation::build(&am.callgraph);
        let mut fns: Vec<FunctionSummary> = vec![FunctionSummary::default(); n];
        let mut stats = SummaryStats {
            recomputed: vec![false; n],
            ..SummaryStats::default()
        };
        let mut comp_ran = vec![false; scc.components.len()];
        for (c, members) in scc.components.iter().enumerate() {
            let must_run = match prev {
                None => true,
                Some((p, dirty)) => {
                    members
                        .iter()
                        .any(|f| f.index() >= p.fns.len() || dirty.get(f.index()) == Some(&true))
                        || scc.callee_components[c].iter().any(|&cc| comp_ran[cc])
                }
            };
            if !must_run {
                let (p, _) = prev.expect("must_run is false only with a previous generation");
                for f in members {
                    fns[f.index()] = p.fns[f.index()].clone();
                }
                stats.hits += members.len();
                continue;
            }
            comp_ran[c] = true;
            stats.runs += members.len();
            for f in members {
                stats.recomputed[f.index()] = true;
            }
            if !scc.cyclic[c] {
                let f = members[0];
                fns[f.index()] = summarize(am, f, &fns);
            } else {
                let mut converged = false;
                for _ in 0..WIDEN_ITERATIONS {
                    let mut changed = false;
                    for f in members {
                        let next = summarize(am, *f, &fns);
                        if next != fns[f.index()] {
                            fns[f.index()] = next;
                            changed = true;
                        }
                    }
                    if !changed {
                        converged = true;
                        break;
                    }
                }
                if !converged {
                    for f in members {
                        fns[f.index()] = FunctionSummary {
                            widened: true,
                            ..FunctionSummary::default()
                        };
                    }
                }
            }
        }
        (ModuleSummaries { fns }, stats)
    }

    /// The summary of one function.
    pub fn get(&self, f: FuncId) -> &FunctionSummary {
        &self.fns[f.index()]
    }

    /// Number of summarized functions.
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// Whether the module has no functions.
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }
}

/// Per-function analysis context, bundled to keep signatures short.
struct FnCtx<'a> {
    am: &'a AnalyzedModule,
    fid: FuncId,
    func: &'a Function,
    cfg: &'a Cfg,
    dom: &'a DomTree,
    ud: &'a UseDefs,
}

fn summarize(am: &AnalyzedModule, fid: FuncId, fns: &[FunctionSummary]) -> FunctionSummary {
    let func = am.module.func(fid);
    if func.blocks.is_empty() {
        return FunctionSummary::default();
    }
    let cx = FnCtx {
        am,
        fid,
        func,
        cfg: &am.cfgs[fid.index()],
        dom: &am.doms[fid.index()],
        ud: &am.usedefs[fid.index()],
    };
    let never_returns = never_returns(&cx, fns);
    let checks = extract_checks(&cx, fns);
    let ret = if never_returns {
        None
    } else {
        return_transfer(&cx, fns)
    };
    FunctionSummary {
        checks,
        ret,
        never_returns,
        widened: false,
    }
}

// --- Local value resolution --------------------------------------------------

/// The parameter index a value resolves to (follows casts).
fn param_of(cx: &FnCtx, v: ValueId) -> Option<u32> {
    let mut cur = v;
    for _ in 0..8 {
        match cx.ud.def_instr(cx.func, cur) {
            Some(Instr::Param { index, .. }) => return Some(*index),
            Some(Instr::Cast { operand, .. }) => cur = *operand,
            _ => return None,
        }
    }
    None
}

fn negate_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Ge => BinOp::Lt,
        BinOp::Gt => BinOp::Le,
        BinOp::Le => BinOp::Gt,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        other => other,
    }
}

fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Gt => BinOp::Lt,
        BinOp::Le => BinOp::Ge,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// A comparison atom over parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Atom {
    /// `param <op> value`.
    ParamConst { param: u32, op: BinOp, value: i64 },
    /// `left <op> right` over two parameters.
    ParamParam { left: u32, op: BinOp, right: u32 },
}

impl Atom {
    fn negated(self) -> Atom {
        match self {
            Atom::ParamConst { param, op, value } => Atom::ParamConst {
                param,
                op: negate_cmp(op),
                value,
            },
            Atom::ParamParam { left, op, right } => Atom::ParamParam {
                left,
                op: negate_cmp(op),
                right,
            },
        }
    }
}

/// Resolves a condition value to a comparison atom: a `Bin` comparison
/// with one side a parameter, a `!` of one, or a bare parameter
/// truthiness test.
fn resolve_atom(cx: &FnCtx, v: ValueId, depth: usize) -> Option<Atom> {
    if depth == 0 {
        return None;
    }
    match cx.ud.def_instr(cx.func, v)? {
        Instr::Bin { op, lhs, rhs, .. } if op.is_comparison() => {
            match (param_of(cx, *lhs), param_of(cx, *rhs)) {
                (Some(l), Some(r)) => Some(Atom::ParamParam {
                    left: l,
                    op: *op,
                    right: r,
                }),
                (Some(p), None) => const_int(cx.am, cx.fid, *rhs).map(|c| Atom::ParamConst {
                    param: p,
                    op: *op,
                    value: c,
                }),
                (None, Some(p)) => const_int(cx.am, cx.fid, *lhs).map(|c| Atom::ParamConst {
                    param: p,
                    op: flip_cmp(*op),
                    value: c,
                }),
                (None, None) => None,
            }
        }
        Instr::Un {
            op: UnOp::Not,
            operand,
            ..
        } => resolve_atom(cx, *operand, depth - 1).map(Atom::negated),
        Instr::Cast { operand, .. } => resolve_atom(cx, *operand, depth - 1),
        Instr::Param { index, .. } => Some(Atom::ParamConst {
            param: *index,
            op: BinOp::Ne,
            value: 0,
        }),
        _ => None,
    }
}

// --- Arm classification ----------------------------------------------------

/// Classifies the arm starting at `head` without any taint context:
/// exit (no-return call, counting summarized callees) or error return
/// (negative constant / null).
fn classify_arm(cx: &FnCtx, head: BlockId, fns: &[FunctionSummary]) -> Option<SummaryBehavior> {
    let mut error_return = false;
    for b in straight_line_region(cx.am, cx.fid, head) {
        let blk = &cx.func.blocks[b.index()];
        for (instr, _) in &blk.instrs {
            if let Instr::Call { callee, .. } = instr {
                match callee {
                    Callee::Builtin(bi) if bi.is_noreturn() => return Some(SummaryBehavior::Exit),
                    Callee::Func(g) if fns.get(g.index()).is_some_and(|s| s.never_returns) => {
                        return Some(SummaryBehavior::Exit)
                    }
                    _ => {}
                }
            }
        }
        if let Terminator::Ret(Some(v)) = &blk.term.0 {
            if const_int(cx.am, cx.fid, *v).is_some_and(|c| c < 0)
                || is_const_null(cx.am, cx.fid, *v)
            {
                error_return = true;
            }
        }
    }
    error_return.then_some(SummaryBehavior::ErrorReturn)
}

/// No reachable `ret`, with at least one (possibly summarized) exit call.
fn never_returns(cx: &FnCtx, fns: &[FunctionSummary]) -> bool {
    let has_exit_call = cx.func.iter_instrs().any(|(_, _, i, _)| {
        matches!(i, Instr::Call { callee: Callee::Builtin(b), .. } if b.is_noreturn())
            || matches!(i, Instr::Call { callee: Callee::Func(g), .. }
                if fns.get(g.index()).is_some_and(|s| s.never_returns))
    });
    if !has_exit_call {
        return false;
    }
    !cx.func.blocks.iter().enumerate().any(|(bi, blk)| {
        cx.cfg.is_reachable(BlockId(bi as u32)) && matches!(blk.term.0, Terminator::Ret(_))
    })
}

// --- Check summaries ---------------------------------------------------------

fn extract_checks(cx: &FnCtx, fns: &[FunctionSummary]) -> Vec<CheckSummary> {
    let mut out = Vec::new();
    for (_, _, instr, span) in cx.func.iter_instrs() {
        let Instr::Bin { dst, op, lhs, rhs } = instr else {
            continue;
        };
        if !op.is_comparison() {
            continue;
        }
        let Some(Atom::ParamConst {
            param,
            op: norm,
            value,
        }) = resolve_atom_of_cmp(cx, *op, *lhs, *rhs)
        else {
            continue;
        };
        let Some((t_bb, e_bb)) = branch_sides(cx.am, cx.fid, *dst) else {
            continue;
        };
        if let Some(behavior) = classify_arm(cx, t_bb, fns) {
            out.push(CheckSummary {
                param,
                op: norm,
                value,
                behavior,
                span,
            });
        } else if let Some(behavior) = classify_arm(cx, e_bb, fns) {
            out.push(CheckSummary {
                param,
                op: negate_cmp(norm),
                value,
                behavior,
                span,
            });
        }
    }
    out
}

/// The param-vs-const atom of one comparison instruction, if it has one.
fn resolve_atom_of_cmp(cx: &FnCtx, op: BinOp, lhs: ValueId, rhs: ValueId) -> Option<Atom> {
    match (param_of(cx, lhs), param_of(cx, rhs)) {
        (Some(p), None) => const_int(cx.am, cx.fid, rhs).map(|c| Atom::ParamConst {
            param: p,
            op,
            value: c,
        }),
        (None, Some(p)) => const_int(cx.am, cx.fid, lhs).map(|c| Atom::ParamConst {
            param: p,
            op: flip_cmp(op),
            value: c,
        }),
        _ => None,
    }
}

// --- Return transfers --------------------------------------------------------

fn return_transfer(cx: &FnCtx, fns: &[FunctionSummary]) -> Option<ReturnTransfer> {
    let rets: Vec<(BlockId, ValueId)> = cx
        .func
        .blocks
        .iter()
        .enumerate()
        .filter_map(|(bi, blk)| {
            let b = BlockId(bi as u32);
            match blk.term.0 {
                Terminator::Ret(Some(v)) if cx.cfg.is_reachable(b) => Some((b, v)),
                _ => None,
            }
        })
        .collect();
    if rets.is_empty() {
        return None;
    }
    if rets.len() == 1 {
        if let Some(t) = wrapper_transfer(cx, rets[0].1, fns) {
            return Some(t);
        }
    }
    predicate_transfer(cx, &rets)
}

/// `return atoi(s);` / `return helper(s);` / `return p;` shapes.
fn wrapper_transfer(cx: &FnCtx, v: ValueId, fns: &[FunctionSummary]) -> Option<ReturnTransfer> {
    let mut cur = v;
    for _ in 0..8 {
        match cx.ud.def_instr(cx.func, cur)? {
            Instr::Cast { operand, .. } => cur = *operand,
            Instr::Call {
                callee: Callee::Builtin(b),
                ..
            } => return Some(ReturnTransfer::Builtin(*b)),
            Instr::Call {
                callee: Callee::Func(g),
                ..
            } => {
                return match fns.get(g.index()).and_then(|s| s.ret.as_ref()) {
                    Some(ReturnTransfer::Builtin(b)) => Some(ReturnTransfer::Builtin(*b)),
                    _ => None,
                }
            }
            Instr::Param { index, .. } => return Some(ReturnTransfer::Param(*index)),
            _ => return None,
        }
    }
    None
}

/// A return-value leaf: one concrete value the function can return, with
/// the block it is produced in (phi incomings resolve to their
/// predecessor block).
#[derive(Debug, Clone, Copy)]
struct Leaf {
    block: BlockId,
    kind: LeafKind,
}

#[derive(Debug, Clone, Copy)]
enum LeafKind {
    Const(i64),
    Atom(Atom),
    Unknown,
}

fn collect_leaves(cx: &FnCtx, v: ValueId, block: BlockId, depth: usize, out: &mut Vec<Leaf>) {
    if out.len() > MAX_LEAVES {
        return;
    }
    if depth == 0 {
        out.push(Leaf {
            block,
            kind: LeafKind::Unknown,
        });
        return;
    }
    match cx.ud.def_instr(cx.func, v) {
        Some(Instr::Const { val, .. }) => out.push(Leaf {
            block,
            kind: match val.as_int() {
                Some(k) => LeafKind::Const(k),
                None => LeafKind::Unknown,
            },
        }),
        Some(Instr::Cast { operand, .. }) => collect_leaves(cx, *operand, block, depth - 1, out),
        Some(Instr::Phi { incomings, .. }) => {
            for (pred, val) in incomings {
                collect_leaves(cx, *val, *pred, depth - 1, out);
            }
        }
        _ => out.push(Leaf {
            block,
            kind: match resolve_atom(cx, v, 4) {
                Some(a) => LeafKind::Atom(a),
                None => LeafKind::Unknown,
            },
        }),
    }
}

/// The param-vs-const conditions established on every path into `block`
/// by dominating two-way branches. Returns `None` when a dominating
/// branch condition cannot be expressed as a parameter atom (the path
/// condition would be incomplete — unsafe to build a predicate from).
fn path_conds(cx: &FnCtx, block: BlockId) -> Option<Vec<Atom>> {
    let mut conds = Vec::new();
    for (bi, blk) in cx.func.blocks.iter().enumerate() {
        let b = BlockId(bi as u32);
        if !cx.cfg.is_reachable(b) {
            continue;
        }
        let Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        } = &blk.term.0
        else {
            continue;
        };
        if then_bb == else_bb {
            continue;
        }
        let taken_true =
            cx.cfg.preds[then_bb.index()].as_slice() == [b] && cx.dom.dominates(*then_bb, block);
        let taken_false =
            cx.cfg.preds[else_bb.index()].as_slice() == [b] && cx.dom.dominates(*else_bb, block);
        if !taken_true && !taken_false {
            continue;
        }
        let atom = resolve_atom(cx, *cond, 4)?;
        if taken_true {
            conds.push(atom);
        } else {
            conds.push(atom.negated());
        }
    }
    Some(conds)
}

/// Whether a conjunction of param-vs-const conditions is satisfiable over
/// the integers (per-parameter interval check; `Ne` never restricts).
fn satisfiable(conds: &[(u32, BinOp, i64)]) -> bool {
    let mut params: Vec<u32> = conds.iter().map(|&(p, _, _)| p).collect();
    params.sort_unstable();
    params.dedup();
    for p in params {
        let (mut lo, mut hi) = (i64::MIN, i64::MAX);
        for &(q, op, c) in conds {
            if q != p {
                continue;
            }
            match op {
                BinOp::Ge => lo = lo.max(c),
                BinOp::Gt => lo = lo.max(c.saturating_add(1)),
                BinOp::Le => hi = hi.min(c),
                BinOp::Lt => hi = hi.min(c.saturating_sub(1)),
                BinOp::Eq => {
                    lo = lo.max(c);
                    hi = hi.min(c);
                }
                _ => {}
            }
        }
        if lo > hi {
            return false;
        }
    }
    true
}

fn predicate_transfer(cx: &FnCtx, rets: &[(BlockId, ValueId)]) -> Option<ReturnTransfer> {
    let mut leaves = Vec::new();
    for &(b, v) in rets {
        collect_leaves(cx, v, b, PHI_DEPTH, &mut leaves);
    }
    if leaves.is_empty() || leaves.len() > MAX_LEAVES {
        return None;
    }
    // Classify each leaf as definitely-zero or a nonzero candidate with
    // its full path condition.
    let mut nonzero: Vec<Vec<Atom>> = Vec::new();
    for leaf in &leaves {
        let conds = path_conds(cx, leaf.block)?;
        match leaf.kind {
            LeafKind::Unknown => return None,
            LeafKind::Const(0) => continue,
            LeafKind::Const(_) => nonzero.push(conds),
            LeafKind::Atom(a) => {
                let mut full = conds;
                full.push(a);
                // A comparison leaf contradicted by its own path
                // conditions always evaluates to zero.
                let flat: Option<Vec<(u32, BinOp, i64)>> = full
                    .iter()
                    .map(|atom| match *atom {
                        Atom::ParamConst { param, op, value } => Some((param, op, value)),
                        Atom::ParamParam { .. } => None,
                    })
                    .collect();
                match flat {
                    Some(fl) if !satisfiable(&fl) => continue,
                    _ => nonzero.push(full),
                }
            }
        }
    }
    if nonzero.len() != 1 {
        return None;
    }
    let conds = nonzero.pop().expect("one nonzero leaf");
    if conds.is_empty() {
        return None;
    }
    // Single param-vs-param comparison with no other conditions.
    if let [Atom::ParamParam { left, op, right }] = conds.as_slice() {
        return Some(ReturnTransfer::ParamPredicate {
            left: *left,
            op: *op,
            right: *right,
        });
    }
    // Otherwise every condition must constrain the same single parameter.
    let mut param = None;
    let mut flat = Vec::new();
    for atom in &conds {
        let Atom::ParamConst {
            param: p,
            op,
            value,
        } = *atom
        else {
            return None;
        };
        match param {
            None => param = Some(p),
            Some(q) if q == p => {}
            Some(_) => return None,
        }
        if !flat.contains(&(op, value)) {
            flat.push((op, value));
        }
    }
    Some(ReturnTransfer::Predicate {
        param: param?,
        conds: flat,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(src: &str) -> AnalyzedModule {
        let p = spex_lang::parse_program(src).unwrap();
        let m = spex_ir::lower_program(&p).unwrap();
        AnalyzedModule::build(m)
    }

    fn summary_of(am: &AnalyzedModule, name: &str) -> FunctionSummary {
        let (s, _) = ModuleSummaries::compute(am);
        s.get(am.module.function_by_name(name).unwrap()).clone()
    }

    #[test]
    fn a_chain_of_20000_ifs_summarizes_in_linear_time() {
        // Sequential `if`s make the dominator tree a chain as deep as the
        // function. Each arm's straight-line region asks whether its head
        // dominates the join: a walk up the idom chain answers in
        // O(depth), so the function took quadratic time (70 s in a debug
        // build, 19 s in release); preorder intervals answer in O(1)
        // (0.15 s in debug). The bound sits far from both.
        let ifs: String = (0..20_000)
            .map(|i| format!("if (a > {i}) {{ y = {i}; }}\n"))
            .collect();
        let am = setup(&format!("int f(int a) {{ int y = 0;\n{ifs} return y; }}"));
        let started = std::time::Instant::now();
        let (summaries, stats) = ModuleSummaries::compute(&am);
        let took = started.elapsed();
        assert_eq!(stats.runs, 1);
        assert!(!summaries.get(FuncId(0)).never_returns);
        let bound = if cfg!(debug_assertions) { 5.0 } else { 1.0 };
        assert!(
            took.as_secs_f64() < bound,
            "summarizing 20,000 sequential ifs took {took:?}"
        );
    }

    #[test]
    fn predicate_from_short_circuit_conjunction() {
        let am = setup("int valid_port(int p) { return p >= 1 && p <= 65535; }");
        let s = summary_of(&am, "valid_port");
        match s.ret {
            Some(ReturnTransfer::Predicate { param, conds }) => {
                assert_eq!(param, 0);
                assert!(conds.contains(&(BinOp::Ge, 1)), "conds: {conds:?}");
                assert!(conds.contains(&(BinOp::Le, 65535)), "conds: {conds:?}");
            }
            other => panic!("expected predicate, got {other:?}"),
        }
    }

    #[test]
    fn predicate_from_early_return_chain() {
        let am = setup(
            "int in_range(int v) {
                 if (v < 8) { return 0; }
                 if (v > 128) { return 0; }
                 return 1;
             }",
        );
        let s = summary_of(&am, "in_range");
        match s.ret {
            Some(ReturnTransfer::Predicate { param, conds }) => {
                assert_eq!(param, 0);
                assert!(conds.contains(&(BinOp::Ge, 8)), "conds: {conds:?}");
                assert!(conds.contains(&(BinOp::Le, 128)), "conds: {conds:?}");
            }
            other => panic!("expected predicate, got {other:?}"),
        }
    }

    #[test]
    fn single_comparison_predicate() {
        let am = setup("int positive(int x) { return x > 0; }");
        let s = summary_of(&am, "positive");
        assert_eq!(
            s.ret,
            Some(ReturnTransfer::Predicate {
                param: 0,
                conds: vec![(BinOp::Gt, 0)],
            })
        );
    }

    #[test]
    fn param_vs_param_predicate() {
        let am = setup("int ordered(int lo, int hi) { return lo <= hi; }");
        let s = summary_of(&am, "ordered");
        assert_eq!(
            s.ret,
            Some(ReturnTransfer::ParamPredicate {
                left: 0,
                op: BinOp::Le,
                right: 1,
            })
        );
    }

    #[test]
    fn builtin_wrapper_and_nested_wrapper() {
        let am = setup(
            "long parse_num(char* s) { return strtol(s, 0, 10); }
             long parse_num2(char* s) { return parse_num(s); }",
        );
        assert_eq!(
            summary_of(&am, "parse_num").ret,
            Some(ReturnTransfer::Builtin(Builtin::Strtol))
        );
        assert_eq!(
            summary_of(&am, "parse_num2").ret,
            Some(ReturnTransfer::Builtin(Builtin::Strtol))
        );
    }

    #[test]
    fn check_summary_records_exit_guard() {
        let am = setup(
            "void check_port(int p) {
                 if (p > 65535) { fprintf(stderr, \"bad\"); exit(1); }
             }",
        );
        let s = summary_of(&am, "check_port");
        assert_eq!(s.checks.len(), 1);
        let c = &s.checks[0];
        assert_eq!(c.param, 0);
        assert_eq!(c.op, BinOp::Gt);
        assert_eq!(c.value, 65535);
        assert_eq!(c.behavior, SummaryBehavior::Exit);
    }

    #[test]
    fn check_summary_through_never_returning_helper() {
        let am = setup(
            "void die(char* m) { fprintf(stderr, \"%s\", m); exit(1); }
             void check(int n) { if (n < 0) { die(\"negative\"); } }",
        );
        let s = summary_of(&am, "check");
        assert_eq!(s.checks.len(), 1);
        assert_eq!(s.checks[0].behavior, SummaryBehavior::Exit);
        assert!(summary_of(&am, "die").never_returns);
    }

    #[test]
    fn error_return_check() {
        let am = setup("int set(int v) { if (v > 9) { return -1; } return 0; }");
        let s = summary_of(&am, "set");
        assert_eq!(s.checks.len(), 1);
        assert_eq!(s.checks[0].behavior, SummaryBehavior::ErrorReturn);
        assert_eq!(s.checks[0].op, BinOp::Gt);
        assert_eq!(s.checks[0].value, 9);
    }

    #[test]
    fn plain_helper_is_empty() {
        let am = setup("int add(int a, int b) { return a + b; }");
        let s = summary_of(&am, "add");
        assert!(s.ret.is_none());
        assert!(s.checks.is_empty());
        assert!(!s.never_returns);
        assert!(s.is_empty());
    }

    #[test]
    fn recursion_converges_deterministically() {
        let am = setup("int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }");
        let (s1, st1) = ModuleSummaries::compute(&am);
        let (s2, _) = ModuleSummaries::compute(&am);
        let f = am.module.function_by_name("fact").unwrap();
        assert_eq!(s1.get(f), s2.get(f));
        assert!(!s1.get(f).widened);
        assert_eq!(st1.runs, 1);
    }

    #[test]
    fn incremental_reuses_clean_components() {
        let am = setup(
            "int leaf(int x) { return x > 0; }
             int mid(int x) { return leaf(x); }
             int top(int x) { return mid(x); }
             int other(int x) { return x + 1; }",
        );
        let (prev, _) = ModuleSummaries::compute(&am);
        let n = am.module.functions.len();
        let leaf = am.module.function_by_name("leaf").unwrap();
        let mut dirty = vec![false; n];
        dirty[leaf.index()] = true;
        let (next, stats) = ModuleSummaries::compute_incremental(&am, Some((&prev, &dirty)));
        // leaf + its transitive callers re-ran; `other` was reused.
        assert_eq!(stats.runs, 3);
        assert_eq!(stats.hits, 1);
        let other = am.module.function_by_name("other").unwrap();
        assert!(!stats.recomputed[other.index()]);
        for fi in 0..n {
            assert_eq!(prev.get(FuncId(fi as u32)), next.get(FuncId(fi as u32)));
        }
    }

    #[test]
    fn no_dirt_means_all_hits() {
        let am = setup("int f(int x) { return x > 3; } int g(int x) { return f(x); }");
        let (prev, _) = ModuleSummaries::compute(&am);
        let dirty = vec![false; am.module.functions.len()];
        let (_, stats) = ModuleSummaries::compute_incremental(&am, Some((&prev, &dirty)));
        assert_eq!(stats.runs, 0);
        assert_eq!(stats.hits, 2);
    }
}
