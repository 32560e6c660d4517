//! The three parameter-to-variable mapping toolkits (§2.2.1, Figure 4).
//!
//! Starting from the annotations, SPEX extracts `(parameter name, program
//! variable)` pairs:
//!
//! * **structure-based**: read the global option table's initializer; each
//!   row names a parameter and points at its backing global (PostgreSQL,
//!   MySQL, Storage-A style) or at a handler function (Apache style);
//! * **comparison-based**: inside the annotated parsing function, find
//!   string comparisons of the name input against literals; the value input
//!   *within the matched branch* is the parameter's variable (Redis, Squid
//!   style);
//! * **container-based**: every call of the annotated getter with a literal
//!   name yields that call's result as the parameter's variable (Hypertable
//!   style).

use crate::annotations::{Annotation, VarRef};
use spex_dataflow::{AnalyzedModule, MemLoc, TaintRoot, UseSite};
use spex_ir::{
    Callee, ConstVal, FuncId, GlobalId, Instr, Place, PlaceBase, PlaceElem, Terminator, ValueId,
};
use spex_lang::builtins::Builtin;
use spex_lang::diag::Span;
use spex_lang::types::CType;
use std::collections::HashMap;

/// A parameter with its extracted data-flow roots.
#[derive(Debug, Clone)]
pub struct MappedParam {
    /// The configuration parameter's name as it appears in config files.
    pub name: String,
    /// Taint seeds for the parameter's data flow.
    pub roots: Vec<TaintRoot>,
    /// Declared type of the backing variable, when the mapping reveals one.
    pub decl_ty: Option<CType>,
    /// Declaration/usage site used for reporting.
    pub decl_span: Span,
    /// When mapped through an option table: the table global and row index,
    /// used to resolve per-row constant fields (e.g. PostgreSQL's
    /// min/max columns).
    pub table_row: Option<(GlobalId, usize)>,
    /// The backing global, when the mapping is a direct variable pointer.
    pub backing_global: Option<GlobalId>,
}

/// Extraction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingError(pub String);

impl std::fmt::Display for MappingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mapping extraction: {}", self.0)
    }
}

impl std::error::Error for MappingError {}

/// Runs all annotations against the module and merges the results by
/// parameter name.
pub fn extract_mappings(
    am: &AnalyzedModule,
    anns: &[Annotation],
) -> Result<Vec<MappedParam>, MappingError> {
    let mut per_ann = Vec::with_capacity(anns.len());
    for ann in anns {
        per_ann.push(extract_annotation(am, ann)?);
    }
    Ok(merge_mappings(per_ann))
}

/// Runs one annotation against the module.
fn extract_annotation(
    am: &AnalyzedModule,
    ann: &Annotation,
) -> Result<Vec<MappedParam>, MappingError> {
    match ann {
        Annotation::StructDirect {
            table,
            par_field,
            var_field,
            ..
        } => extract_struct_direct(am, table, *par_field, *var_field),
        Annotation::StructFunction {
            table,
            par_field,
            handler_field,
            value_arg,
            ..
        } => extract_struct_function(am, table, *par_field, *handler_field, value_arg),
        Annotation::Parser { function, par, var } => extract_parser(am, function, par, var),
        Annotation::Getter { function, par_arg } => extract_getter(am, function, *par_arg - 1),
    }
}

/// Merges per-annotation extraction results by parameter name, first
/// occurrence winning the slot and later occurrences contributing extra
/// roots (and a declared type when the first had none).
fn merge_mappings(per_ann: Vec<Vec<MappedParam>>) -> Vec<MappedParam> {
    let mut by_name: HashMap<String, MappedParam> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    for found in per_ann {
        for p in found {
            match by_name.get_mut(&p.name) {
                Some(existing) => {
                    existing.roots.extend(p.roots);
                    if existing.decl_ty.is_none() {
                        existing.decl_ty = p.decl_ty;
                    }
                }
                None => {
                    order.push(p.name.clone());
                    by_name.insert(p.name.clone(), p);
                }
            }
        }
    }
    order
        .into_iter()
        .map(|n| by_name.remove(&n).expect("ordered name exists"))
        .collect()
}

// --- Structure-based (direct pointer) --------------------------------------

fn extract_struct_direct(
    am: &AnalyzedModule,
    table: &str,
    par_field: u32,
    var_field: u32,
) -> Result<Vec<MappedParam>, MappingError> {
    let (gid, rows) = table_rows(am, table)?;
    // Generic-dispatcher values: in PostgreSQL-style code the parse loop
    // assigns `*(table[i].var) = v` through a runtime pointer. The assigned
    // value `v` (and hence the validation code around it) belongs to every
    // parameter of the table; per-row constants (min/max columns) are later
    // resolved through `table_row`.
    let shared_roots = dispatcher_value_roots(am, gid, var_field);
    let mut out = Vec::new();
    for (row_idx, row) in rows.iter().enumerate() {
        let ConstVal::Aggregate(fields) = row else {
            continue;
        };
        let Some(ConstVal::Str(name)) = fields.get((par_field - 1) as usize) else {
            continue;
        };
        let Some(ConstVal::GlobalRef(backing)) = fields.get((var_field - 1) as usize) else {
            continue;
        };
        let g = am.module.global(*backing);
        let mut roots = vec![TaintRoot::Mem(MemLoc::Global(*backing, Vec::new()))];
        roots.extend(shared_roots.iter().cloned());
        out.push(MappedParam {
            name: name.clone(),
            roots,
            decl_ty: Some(g.ty.clone()),
            decl_span: g.span,
            table_row: Some((gid, row_idx)),
            backing_global: Some(*backing),
        });
    }
    Ok(out)
}

/// Values stored through pointers loaded from the table's `var` field —
/// the right-hand sides of `*(table[i].var) = v` in a generic dispatcher.
fn dispatcher_value_roots(am: &AnalyzedModule, table: GlobalId, var_field: u32) -> Vec<TaintRoot> {
    let mut roots = Vec::new();
    for (fi, func) in am.module.functions.iter().enumerate() {
        let fid = FuncId(fi as u32);
        let ud = &am.usedefs[fid.index()];
        for (_, _, instr, _) in func.iter_instrs() {
            let Instr::Store { place, value } = instr else {
                continue;
            };
            let PlaceBase::ValuePtr(pv) = place.base else {
                continue;
            };
            let Some(Instr::Load { place: src, .. }) = ud.def_instr(func, pv) else {
                continue;
            };
            if src.base != PlaceBase::Global(table) {
                continue;
            }
            let is_var_field = matches!(
                src.elems.as_slice(),
                [_, PlaceElem::Field(f)] if *f == var_field - 1
            );
            if is_var_field {
                roots.push(TaintRoot::Value(fid, *value));
            }
        }
    }
    roots
}

// --- Structure-based (handler function) -------------------------------------

fn extract_struct_function(
    am: &AnalyzedModule,
    table: &str,
    par_field: u32,
    handler_field: u32,
    value_arg: &str,
) -> Result<Vec<MappedParam>, MappingError> {
    let (gid, rows) = table_rows(am, table)?;
    let mut out = Vec::new();
    for (row_idx, row) in rows.iter().enumerate() {
        let ConstVal::Aggregate(fields) = row else {
            continue;
        };
        let Some(ConstVal::Str(name)) = fields.get((par_field - 1) as usize) else {
            continue;
        };
        let Some(ConstVal::FuncRef(handler)) = fields.get((handler_field - 1) as usize) else {
            continue;
        };
        let func = am.module.func(*handler);
        let Some(arg_idx) = func.params.iter().position(|(n, _, _)| n == value_arg) else {
            return Err(MappingError(format!(
                "handler `{}` has no parameter `{}`",
                func.name, value_arg
            )));
        };
        let mut roots = vec![TaintRoot::FuncParam(*handler, arg_idx as u32)];
        roots.extend(handler_out_params(am, *handler, arg_idx as u32));
        out.push(MappedParam {
            name: name.clone(),
            roots,
            decl_ty: func.params.get(arg_idx).map(|(_, t, _)| t.clone()),
            decl_span: func.span,
            table_row: Some((gid, row_idx)),
            backing_global: None,
        });
    }
    Ok(out)
}

/// Locations a handler parses into through helper calls: inside the
/// handler, a call passing the value parameter together with `&location`
/// follows the parse-helper convention (`parse_onoff(arg, &flag)`), so the
/// location is part of the parameter's variable set.
fn handler_out_params(am: &AnalyzedModule, handler: FuncId, value_arg: u32) -> Vec<TaintRoot> {
    let func = am.module.func(handler);
    let ud = &am.usedefs[handler.index()];
    let Some(value_param) = func.iter_instrs().find_map(|(_, _, i, _)| match i {
        Instr::Param { dst, index } if *index == value_arg => Some(*dst),
        _ => None,
    }) else {
        return Vec::new();
    };
    let mut roots = Vec::new();
    for (_, _, instr, _) in func.iter_instrs() {
        let Instr::Call {
            callee: Callee::Func(_),
            args,
            ..
        } = instr
        else {
            continue;
        };
        if !args.contains(&value_param) {
            continue;
        }
        for a in args {
            if let Some(Instr::AddrOf { place, .. }) = ud.def_instr(func, *a) {
                if let Some(loc) = MemLoc::from_place(handler, place) {
                    roots.push(TaintRoot::Mem(loc));
                }
            }
        }
    }
    roots
}

fn table_rows<'a>(
    am: &'a AnalyzedModule,
    table: &str,
) -> Result<(GlobalId, &'a [ConstVal]), MappingError> {
    let gid = am
        .module
        .global_by_name(table)
        .ok_or_else(|| MappingError(format!("no global named `{table}`")))?;
    match &am.module.global(gid).init {
        ConstVal::Aggregate(rows) => Ok((gid, rows)),
        _ => Err(MappingError(format!(
            "global `{table}` is not an aggregate table"
        ))),
    }
}

// --- Comparison-based --------------------------------------------------------

fn extract_parser(
    am: &AnalyzedModule,
    function: &str,
    par: &VarRef,
    var: &VarRef,
) -> Result<Vec<MappedParam>, MappingError> {
    let fid = am
        .module
        .function_by_name(function)
        .ok_or_else(|| MappingError(format!("no function named `{function}`")))?;
    let func = am.module.func(fid);
    let dom = &am.doms[fid.index()];

    let name_values = varref_values(am, fid, par)?;
    let mut out = Vec::new();

    // Find `strcmp`-family calls comparing a name value with a literal.
    for (_, _, instr, span) in func.iter_instrs() {
        let Instr::Call {
            dst: Some(dst),
            callee: Callee::Builtin(bi),
            args,
        } = instr
        else {
            continue;
        };
        if !bi.is_string_comparison() || args.len() < 2 {
            continue;
        }
        let lit = [args[0], args[1]]
            .into_iter()
            .find_map(|a| const_str(am, fid, a));
        let involves_name = args.iter().any(|a| name_values.contains(a));
        let (Some(lit), true) = (lit, involves_name) else {
            continue;
        };
        // Locate the match branch of this comparison.
        let Some(match_block) = match_branch_target(am, fid, *dst) else {
            continue;
        };
        // Collect value roots within the region dominated by the match
        // block.
        let roots = value_roots_in_region(am, fid, var, match_block, dom);
        if !roots.is_empty() {
            out.push(MappedParam {
                name: lit,
                roots,
                decl_ty: None,
                decl_span: span,
                table_row: None,
                backing_global: None,
            });
        }
    }
    Ok(out)
}

/// SSA values that represent the annotated `$name` / `$name[i]` input.
fn varref_values(
    am: &AnalyzedModule,
    fid: FuncId,
    r: &VarRef,
) -> Result<Vec<ValueId>, MappingError> {
    let func = am.module.func(fid);
    let param_idx = func
        .params
        .iter()
        .position(|(n, _, _)| n == &r.name)
        .ok_or_else(|| {
            MappingError(format!(
                "function `{}` has no parameter `{}`",
                func.name, r.name
            ))
        })?;
    let param_value = func
        .iter_instrs()
        .find_map(|(_, _, i, _)| match i {
            Instr::Param { dst, index } if *index as usize == param_idx => Some(*dst),
            _ => None,
        })
        .ok_or_else(|| MappingError(format!("parameter `{}` is unused", r.name)))?;
    match r.index {
        None => Ok(vec![param_value]),
        Some(idx) => {
            // Loads of `param[idx]`.
            let mut out = Vec::new();
            for (_, _, instr, _) in func.iter_instrs() {
                if let Instr::Load { dst, place } = instr {
                    if is_indexed_load_of(am, fid, place, param_value, idx) {
                        out.push(*dst);
                    }
                }
            }
            Ok(out)
        }
    }
}

fn is_indexed_load_of(
    am: &AnalyzedModule,
    fid: FuncId,
    place: &Place,
    base: ValueId,
    idx: u32,
) -> bool {
    if place.base != PlaceBase::ValuePtr(base) || place.elems.len() != 1 {
        return false;
    }
    match place.elems[0] {
        PlaceElem::IndexConst(i) => i == idx,
        PlaceElem::IndexValue(v) => const_int(am, fid, v) == Some(idx as i64),
        _ => false,
    }
}

/// Resolves the block executed when the string comparison *matches*.
///
/// Handles `strcmp(..) == 0`, `!strcmp(..)`, and a bare `strcmp(..)`
/// condition (where the *else* side is the match).
fn match_branch_target(
    am: &AnalyzedModule,
    fid: FuncId,
    cmp_dst: ValueId,
) -> Option<spex_ir::BlockId> {
    let func = am.module.func(fid);
    let ud = &am.usedefs[fid.index()];
    for site in ud.uses_of(cmp_dst) {
        match site {
            UseSite::Instr(b, i) => match &func.blocks[b.index()].instrs[*i].0 {
                Instr::Bin {
                    dst,
                    op: spex_lang::ast::BinOp::Eq,
                    lhs,
                    rhs,
                } => {
                    let other = if *lhs == cmp_dst { *rhs } else { *lhs };
                    if const_int(am, fid, other) == Some(0) {
                        if let Some((t, _)) = condbr_targets(func, *dst) {
                            return Some(t);
                        }
                    }
                }
                Instr::Bin {
                    dst,
                    op: spex_lang::ast::BinOp::Ne,
                    lhs,
                    rhs,
                } => {
                    let other = if *lhs == cmp_dst { *rhs } else { *lhs };
                    if const_int(am, fid, other) == Some(0) {
                        if let Some((_, e)) = condbr_targets(func, *dst) {
                            return Some(e);
                        }
                    }
                }
                Instr::Un {
                    dst,
                    op: spex_lang::ast::UnOp::Not,
                    ..
                } => {
                    if let Some((t, _)) = condbr_targets(func, *dst) {
                        return Some(t);
                    }
                }
                _ => {}
            },
            UseSite::Term(b) => {
                // `if (strcmp(a, b))`: nonzero means mismatch, so the match
                // is the else side.
                if let Terminator::CondBr { else_bb, .. } = &func.blocks[b.index()].term.0 {
                    return Some(*else_bb);
                }
            }
        }
    }
    None
}

fn condbr_targets(
    func: &spex_ir::Function,
    cond: ValueId,
) -> Option<(spex_ir::BlockId, spex_ir::BlockId)> {
    for blk in &func.blocks {
        if let Terminator::CondBr {
            cond: c,
            then_bb,
            else_bb,
        } = &blk.term.0
        {
            if *c == cond {
                return Some((*then_bb, *else_bb));
            }
        }
    }
    None
}

/// Roots for the `$value` input inside the matched branch: results of
/// conversions, stored-to locations, and callee parameters fed from it.
fn value_roots_in_region(
    am: &AnalyzedModule,
    fid: FuncId,
    var: &VarRef,
    region_head: spex_ir::BlockId,
    dom: &spex_ir::dom::DomTree,
) -> Vec<TaintRoot> {
    let func = am.module.func(fid);
    let Ok(value_values) = varref_values(am, fid, var) else {
        return Vec::new();
    };
    let mut roots = Vec::new();
    for (b, _, instr, _) in func.iter_instrs() {
        if !dom.dominates(region_head, b) {
            continue;
        }
        match instr {
            // `$argv[1]`-style: the indexed load inside the branch *is*
            // the parameter's value.
            Instr::Load { dst, .. } if value_values.contains(dst) => {
                roots.push(TaintRoot::Value(fid, *dst));
            }
            Instr::Call { dst, callee, args } => {
                for (pos, a) in args.iter().enumerate() {
                    if !value_values.contains(a) {
                        continue;
                    }
                    match callee {
                        Callee::Builtin(bi)
                            if bi.is_numeric_conversion() || *bi == Builtin::Strdup =>
                        {
                            if let Some(d) = dst {
                                roots.push(TaintRoot::Value(fid, *d));
                            }
                        }
                        // `sscanf(value, fmt, &out)`: the out-parameters
                        // become the parameter's storage; the call result
                        // is rooted too so the unsafe-API evidence sees the
                        // call on this parameter's flow.
                        Callee::Builtin(Builtin::Sscanf) if pos == 0 => {
                            if let Some(d) = dst {
                                roots.push(TaintRoot::Value(fid, *d));
                            }
                            for out_arg in args.iter().skip(2) {
                                if let Some(Instr::AddrOf { place, .. }) =
                                    am.usedefs[fid.index()].def_instr(func, *out_arg)
                                {
                                    if let Some(loc) = MemLoc::from_place(fid, place) {
                                        roots.push(TaintRoot::Mem(loc));
                                    }
                                }
                            }
                        }
                        Callee::Func(g) => {
                            roots.push(TaintRoot::FuncParam(*g, pos as u32));
                            // Out-parameters of parse helpers
                            // (`parse_onoff(value, &g_flag)`) are the
                            // parameter's storage.
                            for out_arg in args {
                                if let Some(Instr::AddrOf { place, .. }) =
                                    am.usedefs[fid.index()].def_instr(func, *out_arg)
                                {
                                    if let Some(loc) = MemLoc::from_place(fid, place) {
                                        roots.push(TaintRoot::Mem(loc));
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
            Instr::Store { place, value } if value_values.contains(value) => {
                if let Some(loc) = MemLoc::from_place(fid, place) {
                    roots.push(TaintRoot::Mem(loc));
                }
            }
            Instr::Cast { dst, operand, .. } if value_values.contains(operand) => {
                roots.push(TaintRoot::Value(fid, *dst));
            }
            _ => {}
        }
    }
    roots
}

// --- Container-based ---------------------------------------------------------

fn extract_getter(
    am: &AnalyzedModule,
    function: &str,
    par_arg: u32,
) -> Result<Vec<MappedParam>, MappingError> {
    let target = am.module.function_by_name(function);
    let mut out = Vec::new();
    for (fi, func) in am.module.functions.iter().enumerate() {
        let fid = FuncId(fi as u32);
        for (_, _, instr, span) in func.iter_instrs() {
            let Instr::Call {
                dst: Some(dst),
                callee,
                args,
            } = instr
            else {
                continue;
            };
            let is_target = match callee {
                Callee::Func(f) => Some(*f) == target,
                Callee::Builtin(b) => b.name() == function,
                Callee::Indirect(_) => false,
            };
            if !is_target {
                continue;
            }
            let Some(name) = args
                .get(par_arg as usize)
                .and_then(|a| const_str(am, fid, *a))
            else {
                continue;
            };
            out.push(MappedParam {
                name,
                roots: vec![TaintRoot::Value(fid, *dst)],
                decl_ty: Some(func.value_type(*dst).clone()),
                decl_span: span,
                table_row: None,
                backing_global: None,
            });
        }
    }
    Ok(out)
}

// --- Incremental invalidation -------------------------------------------------

/// Whether an edit to function `fid` could change the result of
/// [`extract_mappings`] (conservative, for the pass-level cache).
///
/// Mapping extraction reads the module header (option tables, globals,
/// struct layouts) — callers invalidate wholesale on header changes — plus
/// a small set of function-body patterns. A function matters to extraction
/// only when it:
///
/// * is named by a `@PARSER` or `@GETTER` annotation (its body is scanned
///   directly);
/// * may be a `@STRUCT`-table handler, i.e. its address is taken anywhere
///   (handler bodies are scanned for out-parameter parse helpers);
/// * contains a store through a runtime pointer while a direct-pointer
///   table is annotated (the PostgreSQL-style generic dispatcher pattern);
/// * calls an annotated getter (each literal-name call site is a mapping).
///
/// Anything else — arithmetic, guards, plain builtin calls — cannot alter
/// what [`extract_mappings`] returns, so cached mappings stay valid.
pub fn mapping_relevant(am: &AnalyzedModule, fid: FuncId, anns: &[Annotation]) -> bool {
    let f = am.module.func(fid);
    let mut has_struct_direct = false;
    let mut has_struct_function = false;
    let mut getters: Vec<&str> = Vec::new();
    for ann in anns {
        match ann {
            Annotation::StructDirect { .. } => has_struct_direct = true,
            Annotation::StructFunction { .. } => has_struct_function = true,
            Annotation::Parser { function, .. } => {
                if function == &f.name {
                    return true;
                }
            }
            Annotation::Getter { function, .. } => getters.push(function),
        }
    }
    if has_struct_function
        && am
            .callgraph
            .address_taken
            .iter()
            .any(|(taken, _)| *taken == fid)
    {
        return true;
    }
    for (_, _, instr, _) in f.iter_instrs() {
        match instr {
            Instr::Store { place, .. }
                if has_struct_direct && matches!(place.base, PlaceBase::ValuePtr(_)) =>
            {
                return true;
            }
            Instr::Call { callee, .. } if !getters.is_empty() => {
                let name = match callee {
                    Callee::Func(t) => Some(am.module.func(*t).name.as_str()),
                    Callee::Builtin(b) => Some(b.name()),
                    Callee::Indirect(_) => None,
                };
                if name.is_some_and(|n| getters.contains(&n)) {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

// --- Constant resolution helpers ----------------------------------------------

/// The string literal a value is defined as, if any.
pub fn const_str(am: &AnalyzedModule, fid: FuncId, v: ValueId) -> Option<String> {
    let func = am.module.func(fid);
    match am.usedefs[fid.index()].def_instr(func, v) {
        Some(Instr::Const {
            val: ConstVal::Str(s),
            ..
        }) => Some(s.clone()),
        _ => None,
    }
}

/// The integer constant a value is defined as, if any (follows casts).
pub fn const_int(am: &AnalyzedModule, fid: FuncId, v: ValueId) -> Option<i64> {
    let func = am.module.func(fid);
    let mut cur = v;
    for _ in 0..8 {
        match am.usedefs[fid.index()].def_instr(func, cur) {
            Some(Instr::Const { val, .. }) => return val.as_int(),
            Some(Instr::Cast { operand, .. }) => cur = *operand,
            Some(Instr::Un {
                op: spex_lang::ast::UnOp::Neg,
                operand,
                ..
            }) => {
                return const_int(am, fid, *operand).map(|x| -x);
            }
            _ => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::Annotation;
    use spex_dataflow::AnalyzedModule;

    fn setup(src: &str) -> AnalyzedModule {
        let p = spex_lang::parse_program(src).unwrap();
        let m = spex_ir::lower_program(&p).unwrap();
        AnalyzedModule::build(m)
    }

    #[test]
    fn struct_direct_mapping_postgresql_style() {
        let am = setup(
            r#"
            int deadlock_timeout = 1000;
            int max_connections = 100;
            struct config_int { char* name; int* var; int min; int max; };
            struct config_int ConfigureNamesInt[] = {
                { "deadlock_timeout", &deadlock_timeout, 1, 600000 },
                { "max_connections", &max_connections, 1, 8192 },
            };
            "#,
        );
        let anns = Annotation::parse(
            "{ @STRUCT = ConfigureNamesInt\n @PAR = [config_int, 1]\n @VAR = [config_int, 2] }",
        )
        .unwrap();
        let params = extract_mappings(&am, &anns).unwrap();
        assert_eq!(params.len(), 2);
        assert_eq!(params[0].name, "deadlock_timeout");
        assert!(params[0].backing_global.is_some());
        assert_eq!(params[0].table_row.map(|(_, r)| r), Some(0));
        assert_eq!(params[1].name, "max_connections");
        assert_eq!(params[1].decl_ty, Some(CType::int()));
    }

    #[test]
    fn struct_function_mapping_apache_style() {
        let am = setup(
            r#"
            struct command_rec { char* name; fnptr handler; };
            int set_document_root(char* arg) { return open(arg, 0); }
            struct command_rec core_cmds[] = {
                { "DocumentRoot", set_document_root },
            };
            "#,
        );
        let anns = Annotation::parse(
            "{ @STRUCT = core_cmds\n @PAR = [command_rec, 1]\n @VAR = ([command_rec, 2], $arg) }",
        )
        .unwrap();
        let params = extract_mappings(&am, &anns).unwrap();
        assert_eq!(params.len(), 1);
        assert_eq!(params[0].name, "DocumentRoot");
        let fid = am.module.function_by_name("set_document_root").unwrap();
        assert_eq!(params[0].roots, vec![TaintRoot::FuncParam(fid, 0)]);
    }

    #[test]
    fn comparison_mapping_redis_style() {
        let am = setup(
            r#"
            int maxidletime = 0;
            char* logfile = "";
            void loadServerConfig(char** argv) {
                if (strcasecmp(argv[0], "timeout") == 0) {
                    maxidletime = atoi(argv[1]);
                } else if (strcasecmp(argv[0], "logfile") == 0) {
                    logfile = strdup(argv[1]);
                }
            }
            "#,
        );
        let anns =
            Annotation::parse("{ @PARSER = loadServerConfig\n @PAR = $argv[0]\n @VAR = $argv[1] }")
                .unwrap();
        let params = extract_mappings(&am, &anns).unwrap();
        let names: Vec<&str> = params.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"timeout"), "found params: {names:?}");
        assert!(names.contains(&"logfile"), "found params: {names:?}");
        // The timeout parameter's roots must include the atoi result or the
        // store into maxidletime.
        let timeout = params.iter().find(|p| p.name == "timeout").unwrap();
        assert!(!timeout.roots.is_empty());
    }

    #[test]
    fn getter_mapping_hypertable_style() {
        let am = setup(
            r#"
            int props[16];
            int get_i32(char* key) { return props[0]; }
            void setup() {
                int retry = get_i32("Connection.Retry.Interval");
                sleep(retry);
            }
            "#,
        );
        let anns = Annotation::parse("{ @GETTER = get_i32\n @PAR = 1\n @VAR = $RET }").unwrap();
        let params = extract_mappings(&am, &anns).unwrap();
        assert_eq!(params.len(), 1);
        assert_eq!(params[0].name, "Connection.Retry.Interval");
        assert!(matches!(params[0].roots[0], TaintRoot::Value(..)));
    }

    #[test]
    fn missing_table_is_an_error() {
        let am = setup("int x = 1;");
        let anns = Annotation::parse("{ @STRUCT = nope\n @PAR = [s, 1]\n @VAR = [s, 2] }").unwrap();
        assert!(extract_mappings(&am, &anns).is_err());
    }

    #[test]
    fn duplicate_names_merge_roots() {
        let am = setup(
            r#"
            int a_var = 0;
            int b_var = 0;
            struct opt { char* name; int* var; };
            struct opt t1[] = { { "shared", &a_var } };
            struct opt t2[] = { { "shared", &b_var } };
            "#,
        );
        let anns = Annotation::parse(
            "{ @STRUCT = t1\n @PAR = [opt, 1]\n @VAR = [opt, 2] }\n\
             { @STRUCT = t2\n @PAR = [opt, 1]\n @VAR = [opt, 2] }",
        )
        .unwrap();
        let params = extract_mappings(&am, &anns).unwrap();
        assert_eq!(params.len(), 1);
        assert_eq!(params[0].roots.len(), 2);
    }
}
