//! Lowering from the mini-C AST to the CFG IR.
//!
//! Condition expressions of `if`/`while`/`for` are lowered with
//! short-circuit *branch* lowering (`a && b` becomes nested conditional
//! branches), mirroring Clang's `-O0` output. This matters for SPEX: range
//! inference (§2.2.3) and control-dependency inference (§2.2.4) look for
//! individual comparisons that dominate branch blocks.

use crate::instr::{Callee, ConstVal, Instr, Place, PlaceBase, PlaceElem, Terminator};
use crate::module::{
    Block, BlockId, FuncId, Function, GlobalId, GlobalVar, Module, SlotId, SlotInfo, StructLayout,
    ValueId,
};
use spex_lang::ast::{
    BinOp, Expr, ExprKind, FunctionDef, GlobalDef, Initializer, Program, Stmt, UnOp,
};
use spex_lang::builtins::Builtin;
use spex_lang::diag::{Diagnostic, Span};
use spex_lang::types::CType;
use std::collections::HashMap;
use std::sync::Arc;

/// Lowers a parsed program to an IR module: every global, then every
/// function, each on its own through one [`LowerCtx`].
pub fn lower_program(program: &Program) -> Result<Module, Diagnostic> {
    let structs: Vec<StructLayout> = program
        .structs
        .iter()
        .map(|s| StructLayout {
            name: s.name.clone(),
            fields: s
                .fields
                .iter()
                .map(|f| (f.name.clone(), f.ty.clone()))
                .collect(),
        })
        .collect();
    let enum_consts: HashMap<String, i64> = program
        .enums
        .iter()
        .flat_map(|e| e.variants.iter().cloned())
        .collect();
    let ctx = LowerCtx::new(
        &structs,
        &enum_consts,
        program.globals.iter().map(|g| (g.name.as_str(), &g.ty)),
        program.functions.iter().map(|f| (f.name.as_str(), &f.ret)),
    );
    let globals = program
        .globals
        .iter()
        .map(|g| ctx.lower_global(g))
        .collect::<Result<Vec<_>, _>>()?;
    let functions = program
        .functions
        .iter()
        .map(|f| ctx.lower_function(f).map(Arc::new))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Module::from_parts(structs, globals, functions, enum_consts))
}

/// What lowering one item needs from the rest of its module: the struct
/// layouts, the enum constants, and the id and type of every global and
/// function by name. Built once per module, it lowers any of the module's
/// items on its own, so an edit re-lowers only the items it changed.
pub struct LowerCtx<'m> {
    structs: &'m [StructLayout],
    enum_consts: &'m HashMap<String, i64>,
    globals: HashMap<&'m str, (GlobalId, &'m CType)>,
    /// Each function's id and return type.
    funcs: HashMap<&'m str, (FuncId, &'m CType)>,
}

impl<'m> LowerCtx<'m> {
    /// The context of an already lowered module, to lower an item of a
    /// new generation of it whose globals, types and functions are the
    /// same, in the same order, but for the `appended` functions (name and
    /// return type), which follow the last one.
    pub fn of_module(
        module: &'m Module,
        appended: impl Iterator<Item = (&'m str, &'m CType)>,
    ) -> LowerCtx<'m> {
        LowerCtx::new(
            &module.structs,
            &module.enum_consts,
            module.globals.iter().map(|g| (g.name.as_str(), &g.ty)),
            (module.functions.iter().map(|f| (f.name.as_str(), &f.ret))).chain(appended),
        )
    }

    /// Ids follow input order; a repeated name resolves to its last
    /// definition.
    fn new(
        structs: &'m [StructLayout],
        enum_consts: &'m HashMap<String, i64>,
        globals: impl Iterator<Item = (&'m str, &'m CType)>,
        funcs: impl Iterator<Item = (&'m str, &'m CType)>,
    ) -> LowerCtx<'m> {
        LowerCtx {
            structs,
            enum_consts,
            globals: globals
                .enumerate()
                .map(|(i, (name, ty))| (name, (GlobalId(i as u32), ty)))
                .collect(),
            funcs: funcs
                .enumerate()
                .map(|(i, (name, ret))| (name, (FuncId(i as u32), ret)))
                .collect(),
        }
    }

    /// Lowers one global: its type and its constant initializer.
    pub fn lower_global(&self, g: &GlobalDef) -> Result<GlobalVar, Diagnostic> {
        let init = match &g.init {
            Some(init) => self.const_eval_init(init, &g.ty)?,
            None => ConstVal::zero_of(&g.ty, self.structs),
        };
        Ok(GlobalVar {
            name: g.name.clone(),
            ty: g.ty.clone(),
            init,
            span: g.span,
        })
    }

    /// Lowers one function body.
    pub fn lower_function(&self, f: &FunctionDef) -> Result<Function, Diagnostic> {
        FuncLowerer::new(self, f).lower()
    }

    fn struct_layout(&self, name: &str) -> Option<&'m StructLayout> {
        self.structs.iter().find(|s| s.name == name)
    }
}

// --- Constant evaluation of global initializers ---------------------------

impl LowerCtx<'_> {
    fn const_eval_init(&self, init: &Initializer, ty: &CType) -> Result<ConstVal, Diagnostic> {
        match init {
            Initializer::Expr(e) => self.const_eval_expr(e),
            Initializer::List(items) => {
                let elem_tys: Vec<CType> = match ty {
                    CType::Array(elem, n) => vec![(**elem).clone(); (*n).max(items.len())],
                    CType::Struct(name) => {
                        let layout = self.struct_layout(name).ok_or_else(|| {
                            Diagnostic::new(Span::unknown(), format!("unknown struct `{name}`"))
                        })?;
                        layout.fields.iter().map(|(_, t)| t.clone()).collect()
                    }
                    other => {
                        return Err(Diagnostic::new(
                            Span::unknown(),
                            format!("brace initializer for non-aggregate type {other}"),
                        ))
                    }
                };
                let mut out = Vec::new();
                for (i, ety) in elem_tys.iter().enumerate() {
                    match items.get(i) {
                        Some(item) => out.push(self.const_eval_init(item, ety)?),
                        None => out.push(ConstVal::zero_of(ety, self.structs)),
                    }
                }
                Ok(ConstVal::Aggregate(out))
            }
        }
    }

    fn const_eval_expr(&self, e: &Expr) -> Result<ConstVal, Diagnostic> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(ConstVal::Int(*v)),
            ExprKind::FloatLit(v) => Ok(ConstVal::Float(*v)),
            ExprKind::StrLit(s) => Ok(ConstVal::Str(s.clone())),
            ExprKind::CharLit(c) => Ok(ConstVal::Int(*c as i64)),
            ExprKind::BoolLit(b) => Ok(ConstVal::Bool(*b)),
            ExprKind::Null => Ok(ConstVal::Null),
            ExprKind::Unary(UnOp::Neg, inner) => match self.const_eval_expr(inner)? {
                ConstVal::Int(v) => Ok(ConstVal::Int(-v)),
                ConstVal::Float(v) => Ok(ConstVal::Float(-v)),
                _ => Err(Diagnostic::new(e.span, "cannot negate this constant")),
            },
            ExprKind::Binary(op, l, r) => {
                let lv = self.const_eval_expr(l)?;
                let rv = self.const_eval_expr(r)?;
                match (lv.as_int(), rv.as_int()) {
                    (Some(a), Some(b)) => {
                        let v = match op {
                            BinOp::Add => a + b,
                            BinOp::Sub => a - b,
                            BinOp::Mul => a * b,
                            BinOp::Div if b != 0 => a / b,
                            BinOp::Shl => a << (b & 63),
                            BinOp::Shr => a >> (b & 63),
                            BinOp::Or => a | b,
                            BinOp::And => a & b,
                            BinOp::Xor => a ^ b,
                            _ => {
                                return Err(Diagnostic::new(
                                    e.span,
                                    "unsupported constant binary operator",
                                ))
                            }
                        };
                        Ok(ConstVal::Int(v))
                    }
                    _ => Err(Diagnostic::new(e.span, "non-integer constant arithmetic")),
                }
            }
            ExprKind::Ident(name) => {
                if let Some(v) = self.enum_consts.get(name) {
                    Ok(ConstVal::Int(*v))
                } else if let Some((f, _)) = self.funcs.get(name.as_str()) {
                    Ok(ConstVal::FuncRef(*f))
                } else {
                    Err(Diagnostic::new(
                        e.span,
                        format!("`{name}` is not a constant; use `&{name}` for a global's address"),
                    ))
                }
            }
            ExprKind::AddrOf(inner) => match &inner.kind {
                ExprKind::Ident(name) => self
                    .globals
                    .get(name.as_str())
                    .map(|(g, _)| ConstVal::GlobalRef(*g))
                    .ok_or_else(|| Diagnostic::new(e.span, format!("`&{name}`: unknown global"))),
                _ => Err(Diagnostic::new(
                    e.span,
                    "only addresses of globals are constant",
                )),
            },
            ExprKind::Sizeof(ty) => Ok(ConstVal::Int(type_size(ty, self.structs) as i64)),
            _ => Err(Diagnostic::new(e.span, "expression is not a constant")),
        }
    }
}

/// Byte size of a type under the IR's data model, given the module's
/// struct layouts.
pub fn type_size(ty: &CType, structs: &[StructLayout]) -> usize {
    match ty {
        CType::Void => 0,
        CType::Bool => 1,
        CType::Int { bits, .. } => (*bits as usize) / 8,
        CType::Float { bits } => (*bits as usize) / 8,
        CType::Ptr(_) | CType::FuncPtr => 8,
        CType::Enum(_) => 4,
        CType::Array(elem, n) => type_size(elem, structs) * n,
        CType::Struct(name) => structs
            .iter()
            .find(|s| &s.name == name)
            .map(|l| l.fields.iter().map(|(_, t)| type_size(t, structs)).sum())
            .unwrap_or(0),
    }
}

// --- Function lowering -----------------------------------------------------

struct LoopCtx {
    break_to: BlockId,
    continue_to: BlockId,
}

struct FuncLowerer<'c, 'm> {
    ctx: &'c LowerCtx<'m>,
    ast: &'c FunctionDef,
    blocks: Vec<Block>,
    cur: BlockId,
    value_types: Vec<CType>,
    slots: Vec<SlotInfo>,
    scopes: Vec<HashMap<String, SlotId>>,
    params: Vec<(String, CType, SlotId)>,
    loops: Vec<LoopCtx>,
}

impl<'c, 'm> FuncLowerer<'c, 'm> {
    fn new(ctx: &'c LowerCtx<'m>, ast: &'c FunctionDef) -> Self {
        FuncLowerer {
            ctx,
            ast,
            blocks: vec![Block::new()],
            cur: BlockId(0),
            value_types: Vec::new(),
            slots: Vec::new(),
            scopes: vec![HashMap::new()],
            params: Vec::new(),
            loops: Vec::new(),
        }
    }

    fn lower(mut self) -> Result<Function, Diagnostic> {
        for (i, p) in self.ast.params.iter().enumerate() {
            let slot = self.new_slot(&p.name, p.ty.clone());
            self.scopes[0].insert(p.name.clone(), slot);
            self.params.push((p.name.clone(), p.ty.clone(), slot));
            let v = self.new_value(p.ty.clone());
            self.emit(
                Instr::Param {
                    dst: v,
                    index: i as u32,
                },
                self.ast.span,
            );
            self.emit(
                Instr::Store {
                    place: Place::slot(slot),
                    value: v,
                },
                self.ast.span,
            );
        }
        let ast = self.ast;
        self.lower_stmts(&ast.body)?;
        // Fall-off-the-end: return 0 / void.
        if matches!(
            self.blocks[self.cur.index()].term.0,
            Terminator::Unreachable
        ) {
            let term = if self.ast.ret == CType::Void {
                Terminator::Ret(None)
            } else {
                let z = self.const_value(ConstVal::Int(0), self.ast.ret.clone(), self.ast.span);
                Terminator::Ret(Some(z))
            };
            self.set_term(term, self.ast.span);
        }
        Ok(Function {
            name: self.ast.name.clone(),
            ret: self.ast.ret.clone(),
            params: self.params,
            slots: self.slots,
            blocks: self.blocks,
            value_types: self.value_types,
            is_ssa: false,
            span: self.ast.span,
            clones: Default::default(),
        })
    }

    // -- Builders --

    fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block::new());
        BlockId((self.blocks.len() - 1) as u32)
    }

    fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    fn new_value(&mut self, ty: CType) -> ValueId {
        self.value_types.push(ty);
        ValueId((self.value_types.len() - 1) as u32)
    }

    fn new_slot(&mut self, name: &str, ty: CType) -> SlotId {
        self.slots.push(SlotInfo {
            name: name.to_string(),
            ty,
        });
        SlotId((self.slots.len() - 1) as u32)
    }

    fn emit(&mut self, instr: Instr, span: Span) {
        // Emitting into a terminated block would lose code: route to a fresh
        // dead block instead (statements after `return`/`break`).
        if !matches!(
            self.blocks[self.cur.index()].term.0,
            Terminator::Unreachable
        ) {
            let dead = self.new_block();
            self.switch_to(dead);
        }
        self.blocks[self.cur.index()].instrs.push((instr, span));
    }

    fn set_term(&mut self, term: Terminator, span: Span) {
        let blk = &mut self.blocks[self.cur.index()];
        if matches!(blk.term.0, Terminator::Unreachable) {
            blk.term = (term, span);
        }
    }

    fn const_value(&mut self, val: ConstVal, ty: CType, span: Span) -> ValueId {
        let v = self.new_value(ty);
        self.emit(Instr::Const { dst: v, val }, span);
        v
    }

    fn lookup_slot(&self, name: &str) -> Option<SlotId> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    // -- Statements --

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<(), Diagnostic> {
        for s in stmts {
            self.lower_stmt(s)?;
        }
        Ok(())
    }

    fn lower_block_scoped(&mut self, stmts: &[Stmt]) -> Result<(), Diagnostic> {
        self.scopes.push(HashMap::new());
        let r = self.lower_stmts(stmts);
        self.scopes.pop();
        r
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), Diagnostic> {
        match stmt {
            Stmt::Expr(e) => {
                self.lower_expr(e)?;
                Ok(())
            }
            Stmt::VarDecl {
                name,
                ty,
                init,
                span,
            } => {
                let slot = self.new_slot(name, ty.clone());
                self.scopes
                    .last_mut()
                    .expect("scope stack never empty")
                    .insert(name.clone(), slot);
                if let Some(init) = init {
                    let (v, _) = self.lower_expr(init)?;
                    self.emit(
                        Instr::Store {
                            place: Place::slot(slot),
                            value: v,
                        },
                        *span,
                    );
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                span,
            } => {
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join = self.new_block();
                self.lower_cond(cond, then_bb, else_bb)?;
                self.switch_to(then_bb);
                self.lower_block_scoped(then_body)?;
                self.set_term(Terminator::Br(join), *span);
                self.switch_to(else_bb);
                self.lower_block_scoped(else_body)?;
                self.set_term(Terminator::Br(join), *span);
                self.switch_to(join);
                Ok(())
            }
            Stmt::While { cond, body, span } => {
                let header = self.new_block();
                let body_bb = self.new_block();
                let exit = self.new_block();
                self.set_term(Terminator::Br(header), *span);
                self.switch_to(header);
                self.lower_cond(cond, body_bb, exit)?;
                self.switch_to(body_bb);
                self.loops.push(LoopCtx {
                    break_to: exit,
                    continue_to: header,
                });
                self.lower_block_scoped(body)?;
                self.loops.pop();
                self.set_term(Terminator::Br(header), *span);
                self.switch_to(exit);
                Ok(())
            }
            Stmt::DoWhile { body, cond, span } => {
                let body_bb = self.new_block();
                let cond_bb = self.new_block();
                let exit = self.new_block();
                self.set_term(Terminator::Br(body_bb), *span);
                self.switch_to(body_bb);
                self.loops.push(LoopCtx {
                    break_to: exit,
                    continue_to: cond_bb,
                });
                self.lower_block_scoped(body)?;
                self.loops.pop();
                self.set_term(Terminator::Br(cond_bb), *span);
                self.switch_to(cond_bb);
                self.lower_cond(cond, body_bb, exit)?;
                self.switch_to(exit);
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                span,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.lower_stmt(init)?;
                }
                let header = self.new_block();
                let body_bb = self.new_block();
                let step_bb = self.new_block();
                let exit = self.new_block();
                self.set_term(Terminator::Br(header), *span);
                self.switch_to(header);
                match cond {
                    Some(c) => self.lower_cond(c, body_bb, exit)?,
                    None => self.set_term(Terminator::Br(body_bb), *span),
                }
                self.switch_to(body_bb);
                self.loops.push(LoopCtx {
                    break_to: exit,
                    continue_to: step_bb,
                });
                self.lower_block_scoped(body)?;
                self.loops.pop();
                self.set_term(Terminator::Br(step_bb), *span);
                self.switch_to(step_bb);
                if let Some(step) = step {
                    self.lower_expr(step)?;
                }
                self.set_term(Terminator::Br(header), *span);
                self.switch_to(exit);
                self.scopes.pop();
                Ok(())
            }
            Stmt::Switch {
                scrutinee,
                cases,
                default,
                span,
            } => {
                let (scrut, _) = self.lower_expr(scrutinee)?;
                let join = self.new_block();
                let mut arms = Vec::new();
                for case in cases {
                    let bb = self.new_block();
                    for label in &case.labels {
                        let val = self.case_label_value(label)?;
                        arms.push((val, bb));
                    }
                }
                let default_bb = if default.is_some() {
                    self.new_block()
                } else {
                    join
                };
                self.set_term(
                    Terminator::Switch {
                        value: scrut,
                        cases: arms.clone(),
                        default: default_bb,
                    },
                    *span,
                );
                // Arm bodies: block ids in `arms` are unique per case arm in
                // declaration order (dedup consecutive duplicates for
                // multi-label arms).
                let mut seen = std::collections::HashSet::new();
                let mut arm_blocks = Vec::new();
                for (_, bb) in &arms {
                    if seen.insert(*bb) {
                        arm_blocks.push(*bb);
                    }
                }
                for (case, bb) in cases.iter().zip(arm_blocks) {
                    self.switch_to(bb);
                    self.lower_block_scoped(&case.body)?;
                    self.set_term(Terminator::Br(join), *span);
                }
                if let Some(body) = default {
                    self.switch_to(default_bb);
                    self.lower_block_scoped(body)?;
                    self.set_term(Terminator::Br(join), *span);
                }
                self.switch_to(join);
                Ok(())
            }
            Stmt::Break(span) => {
                let target = self
                    .loops
                    .last()
                    .ok_or_else(|| Diagnostic::new(*span, "`break` outside loop"))?
                    .break_to;
                self.set_term(Terminator::Br(target), *span);
                let dead = self.new_block();
                self.switch_to(dead);
                Ok(())
            }
            Stmt::Continue(span) => {
                let target = self
                    .loops
                    .last()
                    .ok_or_else(|| Diagnostic::new(*span, "`continue` outside loop"))?
                    .continue_to;
                self.set_term(Terminator::Br(target), *span);
                let dead = self.new_block();
                self.switch_to(dead);
                Ok(())
            }
            Stmt::Return(value, span) => {
                let v = match value {
                    Some(e) => Some(self.lower_expr(e)?.0),
                    None => None,
                };
                self.set_term(Terminator::Ret(v), *span);
                let dead = self.new_block();
                self.switch_to(dead);
                Ok(())
            }
            Stmt::Block(stmts) => self.lower_block_scoped(stmts),
        }
    }

    fn case_label_value(&self, label: &Expr) -> Result<i64, Diagnostic> {
        match &label.kind {
            ExprKind::IntLit(v) => Ok(*v),
            ExprKind::CharLit(c) => Ok(*c as i64),
            ExprKind::BoolLit(b) => Ok(*b as i64),
            ExprKind::Unary(UnOp::Neg, inner) => Ok(-self.case_label_value(inner)?),
            ExprKind::Ident(name) => {
                self.ctx.enum_consts.get(name).copied().ok_or_else(|| {
                    Diagnostic::new(label.span, format!("`{name}` is not a constant"))
                })
            }
            _ => Err(Diagnostic::new(label.span, "case label must be constant")),
        }
    }

    // -- Condition lowering (short-circuit to branches) --

    fn lower_cond(
        &mut self,
        cond: &Expr,
        then_bb: BlockId,
        else_bb: BlockId,
    ) -> Result<(), Diagnostic> {
        match &cond.kind {
            ExprKind::Binary(BinOp::LogicalAnd, a, b) => {
                let mid = self.new_block();
                self.lower_cond(a, mid, else_bb)?;
                self.switch_to(mid);
                self.lower_cond(b, then_bb, else_bb)
            }
            ExprKind::Binary(BinOp::LogicalOr, a, b) => {
                let mid = self.new_block();
                self.lower_cond(a, then_bb, mid)?;
                self.switch_to(mid);
                self.lower_cond(b, then_bb, else_bb)
            }
            ExprKind::Unary(UnOp::Not, inner) => self.lower_cond(inner, else_bb, then_bb),
            _ => {
                let (v, _) = self.lower_expr(cond)?;
                self.set_term(
                    Terminator::CondBr {
                        cond: v,
                        then_bb,
                        else_bb,
                    },
                    cond.span,
                );
                Ok(())
            }
        }
    }

    // -- Expressions --

    fn lower_expr(&mut self, e: &Expr) -> Result<(ValueId, CType), Diagnostic> {
        match &e.kind {
            ExprKind::IntLit(v) => {
                let ty = if *v > i32::MAX as i64 || *v < i32::MIN as i64 {
                    CType::long()
                } else {
                    CType::int()
                };
                Ok((self.const_value(ConstVal::Int(*v), ty.clone(), e.span), ty))
            }
            ExprKind::FloatLit(v) => {
                let ty = CType::double();
                Ok((
                    self.const_value(ConstVal::Float(*v), ty.clone(), e.span),
                    ty,
                ))
            }
            ExprKind::StrLit(s) => {
                let ty = CType::string();
                Ok((
                    self.const_value(ConstVal::Str(s.clone()), ty.clone(), e.span),
                    ty,
                ))
            }
            ExprKind::CharLit(c) => {
                let ty = CType::char_ty();
                Ok((
                    self.const_value(ConstVal::Int(*c as i64), ty.clone(), e.span),
                    ty,
                ))
            }
            ExprKind::BoolLit(b) => {
                let ty = CType::Bool;
                Ok((self.const_value(ConstVal::Bool(*b), ty.clone(), e.span), ty))
            }
            ExprKind::Null => {
                let ty = CType::Ptr(Box::new(CType::Void));
                Ok((self.const_value(ConstVal::Null, ty.clone(), e.span), ty))
            }
            ExprKind::Ident(name) => {
                // Resolution order: locals, globals, enum constants,
                // functions, stdio streams.
                if let Some(slot) = self.lookup_slot(name) {
                    let ty = self.slots[slot.index()].ty.clone();
                    let v = self.new_value(ty.clone());
                    self.emit(
                        Instr::Load {
                            dst: v,
                            place: Place::slot(slot),
                        },
                        e.span,
                    );
                    return Ok((v, ty));
                }
                if let Some(&(g, ty)) = self.ctx.globals.get(name.as_str()) {
                    let ty = ty.clone();
                    let v = self.new_value(ty.clone());
                    self.emit(
                        Instr::Load {
                            dst: v,
                            place: Place::global(g),
                        },
                        e.span,
                    );
                    return Ok((v, ty));
                }
                if let Some(&val) = self.ctx.enum_consts.get(name) {
                    let ty = CType::int();
                    return Ok((self.const_value(ConstVal::Int(val), ty.clone(), e.span), ty));
                }
                if let Some(&(f, _)) = self.ctx.funcs.get(name.as_str()) {
                    let ty = CType::FuncPtr;
                    return Ok((
                        self.const_value(ConstVal::FuncRef(f), ty.clone(), e.span),
                        ty,
                    ));
                }
                match name.as_str() {
                    "stdout" => {
                        let ty = CType::int();
                        Ok((self.const_value(ConstVal::Int(1), ty.clone(), e.span), ty))
                    }
                    "stderr" => {
                        let ty = CType::int();
                        Ok((self.const_value(ConstVal::Int(2), ty.clone(), e.span), ty))
                    }
                    _ => Err(Diagnostic::new(
                        e.span,
                        format!("unknown identifier `{name}`"),
                    )),
                }
            }
            ExprKind::Unary(op, inner) => {
                let (v, ty) = self.lower_expr(inner)?;
                let out_ty = if *op == UnOp::Not { CType::Bool } else { ty };
                let dst = self.new_value(out_ty.clone());
                self.emit(
                    Instr::Un {
                        dst,
                        op: *op,
                        operand: v,
                    },
                    e.span,
                );
                Ok((dst, out_ty))
            }
            ExprKind::Binary(op @ (BinOp::LogicalAnd | BinOp::LogicalOr), ..) => {
                // Value-position short circuit: materialise 0/1 through a
                // temporary slot; mem2reg turns it into a phi.
                let slot = self.new_slot("$logic", CType::Bool);
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join = self.new_block();
                let _ = op;
                self.lower_cond(e, then_bb, else_bb)?;
                self.switch_to(then_bb);
                let one = self.const_value(ConstVal::Bool(true), CType::Bool, e.span);
                self.emit(
                    Instr::Store {
                        place: Place::slot(slot),
                        value: one,
                    },
                    e.span,
                );
                self.set_term(Terminator::Br(join), e.span);
                self.switch_to(else_bb);
                let zero = self.const_value(ConstVal::Bool(false), CType::Bool, e.span);
                self.emit(
                    Instr::Store {
                        place: Place::slot(slot),
                        value: zero,
                    },
                    e.span,
                );
                self.set_term(Terminator::Br(join), e.span);
                self.switch_to(join);
                let v = self.new_value(CType::Bool);
                self.emit(
                    Instr::Load {
                        dst: v,
                        place: Place::slot(slot),
                    },
                    e.span,
                );
                Ok((v, CType::Bool))
            }
            ExprKind::Binary(op, l, r) => {
                let (lv, lty) = self.lower_expr(l)?;
                let (rv, _) = self.lower_expr(r)?;
                let out_ty = if op.is_comparison() { CType::Bool } else { lty };
                let dst = self.new_value(out_ty.clone());
                self.emit(
                    Instr::Bin {
                        dst,
                        op: *op,
                        lhs: lv,
                        rhs: rv,
                    },
                    e.span,
                );
                Ok((dst, out_ty))
            }
            ExprKind::Assign { target, op, value } => {
                let (place, pty) = self.lower_lvalue(target)?;
                let (rv, _) = self.lower_expr(value)?;
                let stored = match op {
                    None => rv,
                    Some(op) => {
                        let cur = self.new_value(pty.clone());
                        self.emit(
                            Instr::Load {
                                dst: cur,
                                place: place.clone(),
                            },
                            e.span,
                        );
                        let dst = self.new_value(pty.clone());
                        self.emit(
                            Instr::Bin {
                                dst,
                                op: *op,
                                lhs: cur,
                                rhs: rv,
                            },
                            e.span,
                        );
                        dst
                    }
                };
                self.emit(
                    Instr::Store {
                        place,
                        value: stored,
                    },
                    e.span,
                );
                Ok((stored, pty))
            }
            ExprKind::Call { callee, args } => self.lower_call(e, callee, args),
            ExprKind::Index(..) | ExprKind::Member { .. } | ExprKind::Deref(_) => {
                let (place, ty) = self.lower_lvalue(e)?;
                let v = self.new_value(ty.clone());
                self.emit(Instr::Load { dst: v, place }, e.span);
                Ok((v, ty))
            }
            ExprKind::Cast(ty, inner) => {
                let (v, _) = self.lower_expr(inner)?;
                let dst = self.new_value(ty.clone());
                self.emit(
                    Instr::Cast {
                        dst,
                        ty: ty.clone(),
                        operand: v,
                    },
                    e.span,
                );
                Ok((dst, ty.clone()))
            }
            ExprKind::Ternary(cond, t, f) => {
                // Diamond through a temporary slot.
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join = self.new_block();
                self.lower_cond(cond, then_bb, else_bb)?;
                self.switch_to(then_bb);
                let (tv, tty) = self.lower_expr(t)?;
                let slot = self.new_slot("$ternary", tty.clone());
                self.emit(
                    Instr::Store {
                        place: Place::slot(slot),
                        value: tv,
                    },
                    e.span,
                );
                self.set_term(Terminator::Br(join), e.span);
                self.switch_to(else_bb);
                let (fv, _) = self.lower_expr(f)?;
                self.emit(
                    Instr::Store {
                        place: Place::slot(slot),
                        value: fv,
                    },
                    e.span,
                );
                self.set_term(Terminator::Br(join), e.span);
                self.switch_to(join);
                let v = self.new_value(tty.clone());
                self.emit(
                    Instr::Load {
                        dst: v,
                        place: Place::slot(slot),
                    },
                    e.span,
                );
                Ok((v, tty))
            }
            ExprKind::AddrOf(inner) => {
                let (place, pty) = self.lower_lvalue(inner)?;
                let ty = CType::Ptr(Box::new(pty));
                let v = self.new_value(ty.clone());
                self.emit(Instr::AddrOf { dst: v, place }, e.span);
                Ok((v, ty))
            }
            ExprKind::PostIncDec { target, inc } => {
                let (place, pty) = self.lower_lvalue(target)?;
                let old = self.new_value(pty.clone());
                self.emit(
                    Instr::Load {
                        dst: old,
                        place: place.clone(),
                    },
                    e.span,
                );
                let one = self.const_value(ConstVal::Int(1), pty.clone(), e.span);
                let new = self.new_value(pty.clone());
                self.emit(
                    Instr::Bin {
                        dst: new,
                        op: if *inc { BinOp::Add } else { BinOp::Sub },
                        lhs: old,
                        rhs: one,
                    },
                    e.span,
                );
                self.emit(Instr::Store { place, value: new }, e.span);
                Ok((old, pty))
            }
            ExprKind::Sizeof(ty) => {
                let out = CType::long();
                let size = type_size(ty, self.ctx.structs) as i64;
                Ok((
                    self.const_value(ConstVal::Int(size), out.clone(), e.span),
                    out,
                ))
            }
        }
    }

    fn lower_call(
        &mut self,
        e: &Expr,
        callee: &Expr,
        args: &[Expr],
    ) -> Result<(ValueId, CType), Diagnostic> {
        let mut arg_vals = Vec::new();
        for a in args {
            arg_vals.push(self.lower_expr(a)?.0);
        }
        let (target, ret_ty) = match &callee.kind {
            ExprKind::Ident(name) if self.lookup_slot(name).is_none() => {
                if let Some(&(f, ret)) = self.ctx.funcs.get(name.as_str()) {
                    (Callee::Func(f), ret.clone())
                } else if let Some(b) = Builtin::from_name(name) {
                    (Callee::Builtin(b), b.ret_type())
                } else {
                    return Err(Diagnostic::new(
                        callee.span,
                        format!("call to unknown function `{name}`"),
                    ));
                }
            }
            _ => {
                let (fv, _) = self.lower_expr(callee)?;
                (Callee::Indirect(fv), CType::int())
            }
        };
        let dst = if ret_ty == CType::Void {
            None
        } else {
            Some(self.new_value(ret_ty.clone()))
        };
        let noreturn = matches!(target, Callee::Builtin(b) if b.is_noreturn());
        self.emit(
            Instr::Call {
                dst,
                callee: target,
                args: arg_vals,
            },
            e.span,
        );
        if noreturn {
            // Control never passes `exit`/`abort`: leave the block with its
            // `Unreachable` terminator and divert following statements to a
            // dead block.
            let dead = self.new_block();
            self.switch_to(dead);
        }
        let result = match dst {
            Some(v) => v,
            None => self.const_value(ConstVal::Int(0), CType::int(), e.span),
        };
        Ok((result, ret_ty))
    }

    // -- Lvalues --

    fn lower_lvalue(&mut self, e: &Expr) -> Result<(Place, CType), Diagnostic> {
        match &e.kind {
            ExprKind::Ident(name) => {
                if let Some(slot) = self.lookup_slot(name) {
                    let ty = self.slots[slot.index()].ty.clone();
                    return Ok((Place::slot(slot), ty));
                }
                if let Some(&(g, ty)) = self.ctx.globals.get(name.as_str()) {
                    return Ok((Place::global(g), ty.clone()));
                }
                Err(Diagnostic::new(
                    e.span,
                    format!("`{name}` is not an assignable location"),
                ))
            }
            ExprKind::Member { base, field, arrow } => {
                if *arrow {
                    let (bv, bty) = self.lower_expr(base)?;
                    let sty = self.pointee_struct(&bty, e.span)?;
                    let (idx, fty) = self.field_of(&sty, field, e.span)?;
                    Ok((
                        Place {
                            base: PlaceBase::ValuePtr(bv),
                            elems: vec![PlaceElem::Field(idx)],
                        },
                        fty,
                    ))
                } else {
                    let (mut place, bty) = self.lower_lvalue(base)?;
                    let sname = match &bty {
                        CType::Struct(n) => n.clone(),
                        other => {
                            return Err(Diagnostic::new(
                                e.span,
                                format!("member access on non-struct type {other}"),
                            ))
                        }
                    };
                    let (idx, fty) = self.field_of(&sname, field, e.span)?;
                    place.elems.push(PlaceElem::Field(idx));
                    Ok((place, fty))
                }
            }
            ExprKind::Index(base, idx) => {
                let (iv, _) = self.lower_expr(idx)?;
                // Base may itself be a place (array variable) or a pointer
                // value.
                match self.try_lower_lvalue(base)? {
                    Some((mut place, bty)) => match bty {
                        CType::Array(elem, _) => {
                            place.elems.push(self.index_elem(iv));
                            Ok((place, *elem))
                        }
                        CType::Ptr(elem) => {
                            // Load the pointer then index through it.
                            let pv = self.new_value(CType::Ptr(elem.clone()));
                            self.emit(Instr::Load { dst: pv, place }, e.span);
                            Ok((
                                Place {
                                    base: PlaceBase::ValuePtr(pv),
                                    elems: vec![self.index_elem(iv)],
                                },
                                *elem,
                            ))
                        }
                        other => Err(Diagnostic::new(
                            e.span,
                            format!("cannot index into type {other}"),
                        )),
                    },
                    None => {
                        let (bv, bty) = self.lower_expr(base)?;
                        let elem = match bty {
                            CType::Ptr(elem) => *elem,
                            CType::Array(elem, _) => *elem,
                            other => {
                                return Err(Diagnostic::new(
                                    e.span,
                                    format!("cannot index into type {other}"),
                                ))
                            }
                        };
                        Ok((
                            Place {
                                base: PlaceBase::ValuePtr(bv),
                                elems: vec![self.index_elem(iv)],
                            },
                            elem,
                        ))
                    }
                }
            }
            ExprKind::Deref(inner) => {
                let (v, ty) = self.lower_expr(inner)?;
                let pointee = match ty {
                    CType::Ptr(p) => *p,
                    other => {
                        return Err(Diagnostic::new(
                            e.span,
                            format!("cannot dereference type {other}"),
                        ))
                    }
                };
                Ok((Place::deref_value(v), pointee))
            }
            _ => Err(Diagnostic::new(e.span, "expression is not an lvalue")),
        }
    }

    /// Lvalue lowering that returns `None` instead of erroring when the
    /// expression is not an lvalue (used to disambiguate `p[i]` bases).
    fn try_lower_lvalue(&mut self, e: &Expr) -> Result<Option<(Place, CType)>, Diagnostic> {
        match &e.kind {
            ExprKind::Ident(_)
            | ExprKind::Member { .. }
            | ExprKind::Index(..)
            | ExprKind::Deref(_) => self.lower_lvalue(e).map(Some),
            _ => Ok(None),
        }
    }

    fn index_elem(&mut self, iv: ValueId) -> PlaceElem {
        PlaceElem::IndexValue(iv)
    }

    fn pointee_struct(&self, ty: &CType, span: Span) -> Result<String, Diagnostic> {
        match ty {
            CType::Ptr(inner) => match &**inner {
                CType::Struct(name) => Ok(name.clone()),
                other => Err(Diagnostic::new(
                    span,
                    format!("`->` on pointer to non-struct type {other}"),
                )),
            },
            other => Err(Diagnostic::new(
                span,
                format!("`->` on non-pointer type {other}"),
            )),
        }
    }

    fn field_of(
        &self,
        struct_name: &str,
        field: &str,
        span: Span,
    ) -> Result<(u32, CType), Diagnostic> {
        let layout = self
            .ctx
            .struct_layout(struct_name)
            .ok_or_else(|| Diagnostic::new(span, format!("unknown struct `{struct_name}`")))?;
        let idx = layout.field_index(field).ok_or_else(|| {
            Diagnostic::new(
                span,
                format!("struct `{struct_name}` has no field `{field}`"),
            )
        })?;
        Ok((idx as u32, layout.fields[idx].1.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spex_lang::parse_program;
    use spex_lang::parser::MAX_NESTING;

    /// Source nested `n` levels deep.
    type Shape = fn(usize) -> String;

    /// Every way mini-C nests.
    fn nesting_shapes() -> Vec<(&'static str, Shape)> {
        fn body(stmts: String) -> String {
            format!("int g; int f(int x) {{ {stmts} return x; }}")
        }
        vec![
            ("blocks", |n| {
                body(format!("{}{}", "{".repeat(n), "}".repeat(n)))
            }),
            ("ifs", |n| body(format!("{}x = 1;", "if (x) ".repeat(n)))),
            ("else-ifs", |n| {
                body(format!(
                    "{}{{ x = 2; }}",
                    "if (x) { x = 1; } else ".repeat(n)
                ))
            }),
            ("loops", |n| {
                body(format!("{}x = 1;", "while (x) ".repeat(n)))
            }),
            ("qualifiers", |n| {
                body(format!("{}int y = 1;", "static ".repeat(n)))
            }),
            ("parens", |n| {
                body(format!("x = {}x{};", "(".repeat(n), ")".repeat(n)))
            }),
            ("unary", |n| body(format!("x = {}x;", "- ".repeat(n)))),
            ("casts", |n| body(format!("x = {}x;", "(int) ".repeat(n)))),
            ("sum", |n| body(format!("x = x{};", " + x".repeat(n)))),
            ("conjunction", |n| {
                body(format!("if (x{}) {{ x = 1; }}", " && x".repeat(n)))
            }),
            ("ternary", |n| {
                body(format!("x = {}0;", "x ? 1 : ".repeat(n)))
            }),
            ("assignment", |n| body(format!("{}1;", "x = ".repeat(n)))),
            ("calls", |n| {
                let calls = format!("x = {}x{};", "id(".repeat(n), ")".repeat(n));
                format!("int id(int v) {{ return v; }} {}", body(calls))
            }),
            ("pointers", |n| {
                let stars = "*".repeat(n);
                format!("int {stars}p; int f() {{ return p{}; }}", "[0]".repeat(n))
            }),
            ("initializer", |n| {
                let structs: String = (1..n)
                    .map(|i| format!("struct s{i} {{ struct s{} v; }};", i - 1))
                    .collect();
                let (open, close) = ("{".repeat(n), "}".repeat(n));
                format!(
                    "struct s0 {{ int v; }}; {structs} struct s{} g = {open}1{close};",
                    n - 1
                )
            }),
        ]
    }

    #[test]
    fn nesting_to_the_parser_limit_parses_and_lowers_on_a_2_mib_stack() {
        let run = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                for (name, shape) in nesting_shapes() {
                    let deepest = (1..=2 * MAX_NESTING)
                        .rev()
                        .find(|&n| parse_program(&shape(n)).is_ok())
                        .unwrap_or_else(|| panic!("{name}: shallow nesting must parse"));
                    let program = parse_program(&shape(deepest)).expect("found above");
                    if let Err(e) = lower_program(&program) {
                        panic!("{name} at {deepest}: {e}");
                    }
                    for past in [deepest + 1, 50_000] {
                        let err = parse_program(&shape(past)).unwrap_err();
                        assert!(
                            err.message.starts_with("nesting deeper than") && err.span.line > 0,
                            "{name} at {past}: {err}"
                        );
                    }
                }
            })
            .expect("spawn a 2 MiB thread");
        assert!(
            run.join().is_ok(),
            "nesting at the limit fits a 2 MiB stack"
        );
    }
}
