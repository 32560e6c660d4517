//! Recursive-descent parser for the mini-C language.
//!
//! Grammar summary (C subset, plus the `fnptr` type for function pointers):
//!
//! ```text
//! program   := item*
//! item      := struct_def | enum_def | global | function
//! struct_def:= "struct" IDENT "{" (type IDENT ("[" INT "]")? ";")* "}" ";"
//! enum_def  := "enum" IDENT "{" IDENT ("=" INT)? ("," ...)* "}" ";"
//! global    := quals type IDENT ("[" INT? "]")? ("=" initializer)? ";"
//! function  := quals type IDENT "(" params ")" block
//! ```
//!
//! Expressions follow C precedence. Assignment and the ternary operator are
//! right-associative; all binary operators are left-associative.
//!
//! A program is parsed one top-level item at a time ([`Parser::parse_item`]).
//! The parse of a well-formed item reads only its own tokens: nothing
//! before its first token, nothing after its last. So an item parses the
//! same wherever it sits, which is what lets an edit re-parse only the
//! items it changed (see [`crate::items`]).

use crate::ast::*;
use crate::diag::{Diagnostic, Span};
use crate::token::{unescape, Token, TokenKind};
use crate::types::CType;

/// The deepest nesting the parser builds. Nested statements, expressions
/// and initializers each count a level, and so does each link of a chain
/// the parser builds in a loop but lowering walks recursively: the
/// operands of `a + b + c`, the postfixes of `a[i].f`, the stars of
/// `int **`. Input nested deeper is a diagnostic, not a native stack
/// overflow here, in lowering, or when the tree is dropped.
pub const MAX_NESTING: usize = 128;

/// Recursive-descent parser state over a borrowed token stream.
pub struct Parser<'t, 'a> {
    tokens: &'t [Token<'a>],
    pos: usize,
    /// Nesting levels open at `pos` (see [`MAX_NESTING`]).
    depth: usize,
}

impl<'t, 'a> Parser<'t, 'a> {
    /// Creates a parser at token `pos` of a token stream (which must end
    /// with `Eof`).
    pub fn new(tokens: &'t [Token<'a>], pos: usize) -> Self {
        Parser {
            tokens,
            pos,
            depth: 0,
        }
    }

    /// Parses a whole translation unit: every item up to `Eof`.
    pub fn parse_program(mut self) -> Result<Program, Diagnostic> {
        let mut program = Program::default();
        while !self.at_end() {
            program.push(self.parse_item()?);
        }
        Ok(program)
    }

    /// Whether the cursor has reached `Eof`.
    pub fn at_end(&self) -> bool {
        self.check(&TokenKind::Eof)
    }

    /// The index of the next token to parse.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Parses the top-level item at the cursor, leaving the cursor just
    /// past its last token.
    pub fn parse_item(&mut self) -> Result<Item, Diagnostic> {
        self.skip_qualifiers();
        if self.check(&TokenKind::KwStruct) && self.peek_is_struct_def() {
            Ok(Item::Struct(self.parse_struct_def()?))
        } else if self.check(&TokenKind::KwEnum) && self.peek_is_enum_def() {
            Ok(Item::Enum(self.parse_enum_def()?))
        } else {
            self.parse_global_or_function()
        }
    }

    /// The span [`parse_item`](Parser::parse_item) gives the global or
    /// function item at the cursor — its name's — reading only the item's
    /// qualifiers, type and name.
    pub fn item_name_span(&mut self) -> Result<Span, Diagnostic> {
        self.skip_qualifiers();
        Ok(self.parse_type_and_name()?.2)
    }

    /// Leading qualifiers are accepted and ignored.
    fn skip_qualifiers(&mut self) {
        while matches!(
            self.peek(),
            TokenKind::KwStatic | TokenKind::KwConst | TokenKind::KwExtern
        ) {
            self.bump();
        }
    }

    // --- Token helpers -----------------------------------------------------

    fn peek(&self) -> &TokenKind<'a> {
        &self.tokens[self.pos].kind
    }

    fn peek_n(&self, n: usize) -> &TokenKind<'a> {
        &self
            .tokens
            .get(self.pos + n)
            .unwrap_or(&self.tokens[self.tokens.len() - 1])
            .kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Token<'a> {
        let t = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn check(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.check(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token<'a>, Diagnostic> {
        if self.check(kind) {
            Ok(self.bump())
        } else {
            Err(Diagnostic::new(
                self.span(),
                format!("expected `{kind}`, found `{}`", self.peek()),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), Diagnostic> {
        let span = self.span();
        match *self.peek() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok((name.to_string(), span))
            }
            other => Err(Diagnostic::new(
                span,
                format!("expected identifier, found `{other}`"),
            )),
        }
    }

    /// Opens one more nesting level, or fails at [`MAX_NESTING`].
    fn descend(&mut self) -> Result<(), Diagnostic> {
        if self.depth == MAX_NESTING {
            return Err(Diagnostic::new(
                self.span(),
                format!("nesting deeper than {MAX_NESTING} levels"),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs one recursive production a nesting level deeper.
    fn nested<T>(
        &mut self,
        parse: fn(&mut Self) -> Result<T, Diagnostic>,
    ) -> Result<T, Diagnostic> {
        let outer = self.depth;
        self.descend()?;
        let parsed = parse(self);
        self.depth = outer;
        parsed
    }

    // --- Types -------------------------------------------------------------

    fn at_type_start(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::KwInt
                | TokenKind::KwLong
                | TokenKind::KwShort
                | TokenKind::KwChar
                | TokenKind::KwBool
                | TokenKind::KwFloat
                | TokenKind::KwDouble
                | TokenKind::KwVoid
                | TokenKind::KwUnsigned
                | TokenKind::KwSigned
                | TokenKind::KwStruct
                | TokenKind::KwEnum
        ) || matches!(self.peek(), TokenKind::Ident("fnptr"))
    }

    fn parse_type(&mut self) -> Result<CType, Diagnostic> {
        let mut signed = true;
        let mut saw_sign = false;
        while matches!(self.peek(), TokenKind::KwUnsigned | TokenKind::KwSigned) {
            signed = self.check(&TokenKind::KwSigned);
            saw_sign = true;
            self.bump();
        }
        let base = match *self.peek() {
            TokenKind::KwVoid => {
                self.bump();
                CType::Void
            }
            TokenKind::KwBool => {
                self.bump();
                CType::Bool
            }
            TokenKind::KwChar => {
                self.bump();
                CType::Int { bits: 8, signed }
            }
            TokenKind::KwShort => {
                self.bump();
                self.eat(&TokenKind::KwInt);
                CType::Int { bits: 16, signed }
            }
            TokenKind::KwInt => {
                self.bump();
                CType::Int { bits: 32, signed }
            }
            TokenKind::KwLong => {
                self.bump();
                self.eat(&TokenKind::KwLong);
                self.eat(&TokenKind::KwInt);
                CType::Int { bits: 64, signed }
            }
            TokenKind::KwFloat => {
                self.bump();
                CType::Float { bits: 32 }
            }
            TokenKind::KwDouble => {
                self.bump();
                CType::Float { bits: 64 }
            }
            TokenKind::KwStruct => {
                self.bump();
                let (name, _) = self.expect_ident()?;
                CType::Struct(name)
            }
            TokenKind::KwEnum => {
                self.bump();
                let (name, _) = self.expect_ident()?;
                CType::Enum(name)
            }
            TokenKind::Ident("fnptr") => {
                self.bump();
                CType::FuncPtr
            }
            other => {
                return Err(Diagnostic::new(
                    self.span(),
                    format!("expected type, found `{other}`"),
                ))
            }
        };
        if saw_sign && !matches!(base, CType::Int { .. }) {
            return Err(Diagnostic::new(
                self.span(),
                "signedness qualifier on non-integer type",
            ));
        }
        let outer = self.depth;
        let mut ty = base;
        while self.eat(&TokenKind::Star) {
            self.descend()?;
            ty = CType::Ptr(Box::new(ty));
        }
        self.depth = outer;
        Ok(ty)
    }

    // --- Declarations ------------------------------------------------------

    fn peek_is_struct_def(&self) -> bool {
        // `struct X {` is a definition; `struct X ident` is a variable.
        matches!(self.peek_n(1), TokenKind::Ident(_)) && matches!(self.peek_n(2), TokenKind::LBrace)
    }

    fn peek_is_enum_def(&self) -> bool {
        matches!(self.peek_n(1), TokenKind::Ident(_)) && matches!(self.peek_n(2), TokenKind::LBrace)
    }

    fn parse_struct_def(&mut self) -> Result<StructDef, Diagnostic> {
        let span = self.span();
        self.expect(&TokenKind::KwStruct)?;
        let (name, _) = self.expect_ident()?;
        self.expect(&TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while !self.check(&TokenKind::RBrace) {
            let mut ty = self.parse_type()?;
            let (fname, _) = self.expect_ident()?;
            if self.eat(&TokenKind::LBracket) {
                let size = self.parse_const_int()?;
                self.expect(&TokenKind::RBracket)?;
                ty = CType::Array(Box::new(ty), size as usize);
            }
            self.expect(&TokenKind::Semi)?;
            fields.push(FieldDef { name: fname, ty });
        }
        self.expect(&TokenKind::RBrace)?;
        self.expect(&TokenKind::Semi)?;
        Ok(StructDef { name, fields, span })
    }

    fn parse_enum_def(&mut self) -> Result<EnumDef, Diagnostic> {
        let span = self.span();
        self.expect(&TokenKind::KwEnum)?;
        let (name, _) = self.expect_ident()?;
        self.expect(&TokenKind::LBrace)?;
        let mut variants = Vec::new();
        let mut next = 0i64;
        while !self.check(&TokenKind::RBrace) {
            let (vname, _) = self.expect_ident()?;
            if self.eat(&TokenKind::Eq) {
                next = self.parse_const_int()?;
            }
            variants.push((vname, next));
            next += 1;
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RBrace)?;
        self.expect(&TokenKind::Semi)?;
        Ok(EnumDef {
            name,
            variants,
            span,
        })
    }

    fn parse_const_int(&mut self) -> Result<i64, Diagnostic> {
        let neg = self.eat(&TokenKind::Minus);
        match *self.peek() {
            TokenKind::Int(v, _) => {
                self.bump();
                Ok(if neg { -v } else { v })
            }
            other => Err(Diagnostic::new(
                self.span(),
                format!("expected integer constant, found `{other}`"),
            )),
        }
    }

    fn parse_global_or_function(&mut self) -> Result<Item, Diagnostic> {
        let (ty, name, span) = self.parse_type_and_name()?;
        if self.check(&TokenKind::LParen) {
            Ok(Item::Function(self.parse_function_rest(ty, name, span)?))
        } else {
            Ok(Item::Global(self.parse_global_rest(ty, name, span)?))
        }
    }

    /// A global's or function's type and name, and the name's span (the
    /// item's span).
    fn parse_type_and_name(&mut self) -> Result<(CType, String, Span), Diagnostic> {
        let ty = self.parse_type()?;
        let (name, span) = self.expect_ident()?;
        Ok((ty, name, span))
    }

    fn parse_global_rest(
        &mut self,
        mut ty: CType,
        name: String,
        span: Span,
    ) -> Result<GlobalDef, Diagnostic> {
        if self.eat(&TokenKind::LBracket) {
            if self.check(&TokenKind::RBracket) {
                // `T name[] = {...}` — size from the initializer, patched
                // below after parsing it.
                self.bump();
                self.expect(&TokenKind::Eq)?;
                let init = self.parse_initializer()?;
                let n = match &init {
                    Initializer::List(items) => items.len(),
                    Initializer::Expr(_) => 1,
                };
                self.expect(&TokenKind::Semi)?;
                return Ok(GlobalDef {
                    name,
                    ty: CType::Array(Box::new(ty), n),
                    init: Some(init),
                    span,
                });
            }
            let size = self.parse_const_int()?;
            self.expect(&TokenKind::RBracket)?;
            ty = CType::Array(Box::new(ty), size as usize);
        }
        let init = if self.eat(&TokenKind::Eq) {
            Some(self.parse_initializer()?)
        } else {
            None
        };
        self.expect(&TokenKind::Semi)?;
        Ok(GlobalDef {
            name,
            ty,
            init,
            span,
        })
    }

    fn parse_initializer(&mut self) -> Result<Initializer, Diagnostic> {
        self.nested(Self::initializer)
    }

    fn initializer(&mut self) -> Result<Initializer, Diagnostic> {
        if self.eat(&TokenKind::LBrace) {
            let mut items = Vec::new();
            while !self.check(&TokenKind::RBrace) {
                items.push(self.parse_initializer()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RBrace)?;
            Ok(Initializer::List(items))
        } else {
            Ok(Initializer::Expr(self.parse_ternary()?))
        }
    }

    fn parse_function_rest(
        &mut self,
        ret: CType,
        name: String,
        span: Span,
    ) -> Result<FunctionDef, Diagnostic> {
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.check(&TokenKind::RParen) {
            if self.check(&TokenKind::KwVoid) && matches!(self.peek_n(1), TokenKind::RParen) {
                self.bump(); // `(void)`
            } else {
                loop {
                    let pty = self.parse_type()?;
                    let (pname, _) = self.expect_ident()?;
                    params.push(ParamDef {
                        name: pname,
                        ty: pty,
                    });
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        let body = self.parse_block()?;
        Ok(FunctionDef {
            name,
            ret,
            params,
            body,
            span,
        })
    }

    // --- Statements ----------------------------------------------------------

    fn parse_block(&mut self) -> Result<Vec<Stmt>, Diagnostic> {
        self.expect(&TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.check(&TokenKind::RBrace) {
            stmts.push(self.parse_stmt()?);
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(stmts)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        self.nested(Self::stmt)
    }

    fn stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let span = self.span();
        match *self.peek() {
            TokenKind::LBrace => Ok(Stmt::Block(self.parse_block()?)),
            TokenKind::KwIf => self.parse_if(),
            TokenKind::KwWhile => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                let body = self.parse_stmt_as_block()?;
                Ok(Stmt::While { cond, body, span })
            }
            TokenKind::KwDo => {
                self.bump();
                let body = self.parse_stmt_as_block()?;
                self.expect(&TokenKind::KwWhile)?;
                self.expect(&TokenKind::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::DoWhile { body, cond, span })
            }
            TokenKind::KwFor => self.parse_for(),
            TokenKind::KwSwitch => self.parse_switch(),
            TokenKind::KwBreak => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Break(span))
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Continue(span))
            }
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.check(&TokenKind::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Return(value, span))
            }
            TokenKind::KwStatic | TokenKind::KwConst => {
                self.bump();
                self.parse_stmt()
            }
            _ if self.at_type_start() => self.parse_var_decl(),
            _ => {
                let expr = self.parse_expr()?;
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Expr(expr))
            }
        }
    }

    fn parse_stmt_as_block(&mut self) -> Result<Vec<Stmt>, Diagnostic> {
        if self.check(&TokenKind::LBrace) {
            self.parse_block()
        } else {
            Ok(vec![self.parse_stmt()?])
        }
    }

    fn parse_if(&mut self) -> Result<Stmt, Diagnostic> {
        let span = self.span();
        self.expect(&TokenKind::KwIf)?;
        self.expect(&TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::RParen)?;
        let then_body = self.parse_stmt_as_block()?;
        let else_body = if self.eat(&TokenKind::KwElse) {
            self.parse_stmt_as_block()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
            span,
        })
    }

    fn parse_for(&mut self) -> Result<Stmt, Diagnostic> {
        let span = self.span();
        self.expect(&TokenKind::KwFor)?;
        self.expect(&TokenKind::LParen)?;
        let init = if self.check(&TokenKind::Semi) {
            self.bump();
            None
        } else if self.at_type_start() {
            Some(Box::new(self.parse_var_decl()?))
        } else {
            let e = self.parse_expr()?;
            self.expect(&TokenKind::Semi)?;
            Some(Box::new(Stmt::Expr(e)))
        };
        let cond = if self.check(&TokenKind::Semi) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect(&TokenKind::Semi)?;
        let step = if self.check(&TokenKind::RParen) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect(&TokenKind::RParen)?;
        let body = self.parse_stmt_as_block()?;
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
            span,
        })
    }

    fn parse_switch(&mut self) -> Result<Stmt, Diagnostic> {
        let span = self.span();
        self.expect(&TokenKind::KwSwitch)?;
        self.expect(&TokenKind::LParen)?;
        let scrutinee = self.parse_expr()?;
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::LBrace)?;
        let mut cases: Vec<SwitchCase> = Vec::new();
        let mut default = None;
        while !self.check(&TokenKind::RBrace) {
            if self.eat(&TokenKind::KwCase) {
                let label = self.parse_ternary()?;
                self.expect(&TokenKind::Colon)?;
                // Accumulate consecutive labels into one arm (fallthrough of
                // empty arms).
                let mut labels = vec![label];
                while self.eat(&TokenKind::KwCase) {
                    labels.push(self.parse_ternary()?);
                    self.expect(&TokenKind::Colon)?;
                }
                let body = self.parse_case_body()?;
                cases.push(SwitchCase { labels, body });
            } else if self.eat(&TokenKind::KwDefault) {
                self.expect(&TokenKind::Colon)?;
                default = Some(self.parse_case_body()?);
            } else {
                return Err(Diagnostic::new(
                    self.span(),
                    format!("expected `case` or `default`, found `{}`", self.peek()),
                ));
            }
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(Stmt::Switch {
            scrutinee,
            cases,
            default,
            span,
        })
    }

    fn parse_case_body(&mut self) -> Result<Vec<Stmt>, Diagnostic> {
        let mut body = Vec::new();
        while !matches!(
            self.peek(),
            TokenKind::KwCase | TokenKind::KwDefault | TokenKind::RBrace
        ) {
            // A trailing `break;` ends the arm (fallthrough between
            // non-empty arms is not modelled).
            if self.check(&TokenKind::KwBreak) {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                break;
            }
            body.push(self.parse_stmt()?);
        }
        Ok(body)
    }

    fn parse_var_decl(&mut self) -> Result<Stmt, Diagnostic> {
        let span = self.span();
        let mut ty = self.parse_type()?;
        let (name, _) = self.expect_ident()?;
        if self.eat(&TokenKind::LBracket) {
            let size = self.parse_const_int()?;
            self.expect(&TokenKind::RBracket)?;
            ty = CType::Array(Box::new(ty), size as usize);
        }
        let init = if self.eat(&TokenKind::Eq) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        self.expect(&TokenKind::Semi)?;
        Ok(Stmt::VarDecl {
            name,
            ty,
            init,
            span,
        })
    }

    // --- Expressions ---------------------------------------------------------

    /// Parses a full expression (assignment level).
    pub fn parse_expr(&mut self) -> Result<Expr, Diagnostic> {
        self.nested(Self::assignment)
    }

    fn assignment(&mut self) -> Result<Expr, Diagnostic> {
        let lhs = self.parse_ternary()?;
        let op = match self.peek() {
            TokenKind::Eq => Some(None),
            TokenKind::PlusEq => Some(Some(BinOp::Add)),
            TokenKind::MinusEq => Some(Some(BinOp::Sub)),
            TokenKind::StarEq => Some(Some(BinOp::Mul)),
            TokenKind::SlashEq => Some(Some(BinOp::Div)),
            TokenKind::PercentEq => Some(Some(BinOp::Rem)),
            TokenKind::AmpEq => Some(Some(BinOp::And)),
            TokenKind::PipeEq => Some(Some(BinOp::Or)),
            TokenKind::CaretEq => Some(Some(BinOp::Xor)),
            TokenKind::ShlEq => Some(Some(BinOp::Shl)),
            TokenKind::ShrEq => Some(Some(BinOp::Shr)),
            _ => None,
        };
        if let Some(op) = op {
            let span = self.span();
            self.bump();
            let value = self.parse_expr()?; // Right-associative.
            return Ok(Expr::new(
                ExprKind::Assign {
                    target: Box::new(lhs),
                    op,
                    value: Box::new(value),
                },
                span,
            ));
        }
        Ok(lhs)
    }

    fn parse_ternary(&mut self) -> Result<Expr, Diagnostic> {
        let cond = self.parse_binary(0)?;
        if self.check(&TokenKind::Question) {
            let span = self.span();
            self.bump();
            let t = self.parse_expr()?;
            self.expect(&TokenKind::Colon)?;
            let f = self.nested(Self::parse_ternary)?;
            return Ok(Expr::new(
                ExprKind::Ternary(Box::new(cond), Box::new(t), Box::new(f)),
                span,
            ));
        }
        Ok(cond)
    }

    fn binop_at(&self, level: u8) -> Option<BinOp> {
        use BinOp::*;
        use TokenKind as T;
        let op = match (level, self.peek()) {
            (0, T::PipePipe) => LogicalOr,
            (1, T::AmpAmp) => LogicalAnd,
            (2, T::Pipe) => Or,
            (3, T::Caret) => Xor,
            (4, T::Amp) => And,
            (5, T::EqEq) => Eq,
            (5, T::Ne) => Ne,
            (6, T::Lt) => Lt,
            (6, T::Gt) => Gt,
            (6, T::Le) => Le,
            (6, T::Ge) => Ge,
            (7, T::Shl) => Shl,
            (7, T::Shr) => Shr,
            (8, T::Plus) => Add,
            (8, T::Minus) => Sub,
            (9, T::Star) => Mul,
            (9, T::Slash) => Div,
            (9, T::Percent) => Rem,
            _ => return None,
        };
        Some(op)
    }

    fn parse_binary(&mut self, level: u8) -> Result<Expr, Diagnostic> {
        if level > 9 {
            return self.parse_unary();
        }
        let outer = self.depth;
        let mut lhs = self.parse_binary(level + 1)?;
        while let Some(op) = self.binop_at(level) {
            self.descend()?;
            let span = self.span();
            self.bump();
            let rhs = self.parse_binary(level + 1)?;
            lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span);
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, Diagnostic> {
        self.nested(Self::unary)
    }

    fn unary(&mut self) -> Result<Expr, Diagnostic> {
        let span = self.span();
        match *self.peek() {
            TokenKind::Minus => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::new(ExprKind::Unary(UnOp::Neg, Box::new(e)), span))
            }
            TokenKind::Bang => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::new(ExprKind::Unary(UnOp::Not, Box::new(e)), span))
            }
            TokenKind::Tilde => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::new(ExprKind::Unary(UnOp::BitNot, Box::new(e)), span))
            }
            TokenKind::Amp => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::new(ExprKind::AddrOf(Box::new(e)), span))
            }
            TokenKind::Star => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::new(ExprKind::Deref(Box::new(e)), span))
            }
            TokenKind::PlusPlus | TokenKind::MinusMinus => {
                // Pre-inc/dec is desugared to `x += 1` (value unused in
                // statement position, which is how it appears in practice).
                let inc = self.check(&TokenKind::PlusPlus);
                self.bump();
                let target = self.parse_unary()?;
                Ok(Expr::new(
                    ExprKind::Assign {
                        target: Box::new(target),
                        op: Some(if inc { BinOp::Add } else { BinOp::Sub }),
                        value: Box::new(Expr::int(1)),
                    },
                    span,
                ))
            }
            TokenKind::KwSizeof => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let ty = self.parse_type()?;
                self.expect(&TokenKind::RParen)?;
                Ok(Expr::new(ExprKind::Sizeof(ty), span))
            }
            TokenKind::LParen if self.peek_n(1).is_type_start_token() => {
                // Cast: `(type) expr`.
                self.bump();
                let ty = self.parse_type()?;
                self.expect(&TokenKind::RParen)?;
                let e = self.parse_unary()?;
                Ok(Expr::new(ExprKind::Cast(ty, Box::new(e)), span))
            }
            _ => self.parse_postfix(),
        }
    }

    fn parse_postfix(&mut self) -> Result<Expr, Diagnostic> {
        let outer = self.depth;
        let mut e = self.parse_primary()?;
        loop {
            let span = self.span();
            match *self.peek() {
                TokenKind::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.check(&TokenKind::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    e = Expr::new(
                        ExprKind::Call {
                            callee: Box::new(e),
                            args,
                        },
                        span,
                    );
                }
                TokenKind::LBracket => {
                    self.bump();
                    let idx = self.parse_expr()?;
                    self.expect(&TokenKind::RBracket)?;
                    e = Expr::new(ExprKind::Index(Box::new(e), Box::new(idx)), span);
                }
                TokenKind::Dot => {
                    self.bump();
                    let (field, _) = self.expect_ident()?;
                    e = Expr::new(
                        ExprKind::Member {
                            base: Box::new(e),
                            field,
                            arrow: false,
                        },
                        span,
                    );
                }
                TokenKind::Arrow => {
                    self.bump();
                    let (field, _) = self.expect_ident()?;
                    e = Expr::new(
                        ExprKind::Member {
                            base: Box::new(e),
                            field,
                            arrow: true,
                        },
                        span,
                    );
                }
                TokenKind::PlusPlus | TokenKind::MinusMinus => {
                    let inc = self.check(&TokenKind::PlusPlus);
                    self.bump();
                    e = Expr::new(
                        ExprKind::PostIncDec {
                            target: Box::new(e),
                            inc,
                        },
                        span,
                    );
                }
                _ => {
                    self.depth = outer;
                    return Ok(e);
                }
            }
            self.descend()?;
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, Diagnostic> {
        let span = self.span();
        match *self.peek() {
            TokenKind::Int(v, _) => {
                self.bump();
                Ok(Expr::new(ExprKind::IntLit(v), span))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(Expr::new(ExprKind::FloatLit(v), span))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::new(ExprKind::StrLit(unescape(s)), span))
            }
            TokenKind::Char(c) => {
                self.bump();
                Ok(Expr::new(ExprKind::CharLit(c), span))
            }
            TokenKind::KwNull => {
                self.bump();
                Ok(Expr::new(ExprKind::Null, span))
            }
            TokenKind::KwTrue => {
                self.bump();
                Ok(Expr::new(ExprKind::BoolLit(true), span))
            }
            TokenKind::KwFalse => {
                self.bump();
                Ok(Expr::new(ExprKind::BoolLit(false), span))
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok(Expr::new(ExprKind::Ident(name.to_string()), span))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            other => Err(Diagnostic::new(
                span,
                format!("expected expression, found `{other}`"),
            )),
        }
    }
}

impl TokenKind<'_> {
    /// Whether this token can begin a type (used to disambiguate casts).
    fn is_type_start_token(&self) -> bool {
        matches!(
            self,
            TokenKind::KwInt
                | TokenKind::KwLong
                | TokenKind::KwShort
                | TokenKind::KwChar
                | TokenKind::KwBool
                | TokenKind::KwFloat
                | TokenKind::KwDouble
                | TokenKind::KwVoid
                | TokenKind::KwUnsigned
                | TokenKind::KwSigned
                | TokenKind::KwStruct
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn parses_global_with_init() {
        let p = parse_program("int max_conn = 100;").unwrap();
        assert_eq!(p.globals.len(), 1);
        assert_eq!(p.globals[0].name, "max_conn");
        assert!(matches!(
            p.globals[0].init,
            Some(Initializer::Expr(Expr {
                kind: ExprKind::IntLit(100),
                ..
            }))
        ));
    }

    #[test]
    fn parses_struct_and_array_global() {
        let src = r#"
            struct config_int { char* name; int* var; int min; int max; };
            int deadlock_timeout = 1000;
            struct config_int options[] = {
                { "deadlock_timeout", &deadlock_timeout, 1, 600000 },
            };
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].fields.len(), 4);
        let g = p.global("options").unwrap();
        assert!(matches!(g.ty, CType::Array(_, 1)));
    }

    #[test]
    fn parses_function_with_control_flow() {
        let src = r#"
            int clamp(int v) {
                if (v < 4) { v = 4; }
                else if (v > 255) { v = 255; }
                return v;
            }
        "#;
        let p = parse_program(src).unwrap();
        let f = p.function("clamp").unwrap();
        assert_eq!(f.params.len(), 1);
        assert!(matches!(f.body[0], Stmt::If { .. }));
    }

    #[test]
    fn parses_for_and_while() {
        let src = r#"
            void scan(int n) {
                for (int i = 0; i < n; i++) { process(i); }
                while (n > 0) { n -= 1; }
                do { n += 1; } while (n < 3);
            }
        "#;
        let p = parse_program(src).unwrap();
        let f = p.function("scan").unwrap();
        assert_eq!(f.body.len(), 3);
    }

    #[test]
    fn parses_switch() {
        let src = r#"
            int dispatch(int mode) {
                switch (mode) {
                    case 0: return 10; break;
                    case 1:
                    case 2: return 20; break;
                    default: return -1;
                }
            }
        "#;
        let p = parse_program(src).unwrap();
        let f = p.function("dispatch").unwrap();
        match &f.body[0] {
            Stmt::Switch { cases, default, .. } => {
                assert_eq!(cases.len(), 2);
                assert_eq!(cases[1].labels.len(), 2);
                assert!(default.is_some());
            }
            other => panic!("expected switch, got {other:?}"),
        }
    }

    #[test]
    fn parses_member_and_pointer_exprs() {
        let src = r#"
            struct opt { char* name; int* var; };
            void apply(struct opt* o, char* value) {
                *(o->var) = atoi(value);
            }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.functions.len(), 1);
    }

    #[test]
    fn parses_cast() {
        let src = "long widen(int x) { return (long) x; }";
        let p = parse_program(src).unwrap();
        let f = p.function("widen").unwrap();
        match &f.body[0] {
            Stmt::Return(Some(e), _) => assert!(matches!(e.kind, ExprKind::Cast(..))),
            other => panic!("expected return, got {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let src = "int f() { return 1 + 2 * 3; }";
        let p = parse_program(src).unwrap();
        match &p.functions[0].body[0] {
            Stmt::Return(Some(e), _) => match &e.kind {
                ExprKind::Binary(BinOp::Add, _, rhs) => {
                    assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, ..)));
                }
                other => panic!("expected add at top, got {other:?}"),
            },
            _ => unreachable!(),
        }
    }

    #[test]
    fn precedence_logical_ops() {
        let src = "int f(int a, int b, int c) { return a || b && c; }";
        let p = parse_program(src).unwrap();
        match &p.functions[0].body[0] {
            Stmt::Return(Some(e), _) => {
                assert!(matches!(e.kind, ExprKind::Binary(BinOp::LogicalOr, ..)));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn parses_ternary() {
        let src = "int f(int a) { return a > 0 ? a : -a; }";
        let p = parse_program(src).unwrap();
        match &p.functions[0].body[0] {
            Stmt::Return(Some(e), _) => assert!(matches!(e.kind, ExprKind::Ternary(..))),
            _ => unreachable!(),
        }
    }

    #[test]
    fn parses_function_pointer_field_and_call() {
        let src = r#"
            struct command_rec { char* name; fnptr handler; };
            int set_root(char* arg) { return 0; }
            struct command_rec cmds[] = { { "DocumentRoot", set_root } };
            void run(char* v) {
                cmds[0].handler(v);
            }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.structs[0].fields[1].ty, CType::FuncPtr);
        assert_eq!(p.functions.len(), 2);
    }

    #[test]
    fn rejects_bad_syntax() {
        assert!(parse_program("int = 3;").is_err());
        assert!(parse_program("void f( { }").is_err());
        assert!(parse_program("int f() { return }").is_err());
    }

    #[test]
    fn parses_enum_def() {
        let p = parse_program("enum mode { OFF, ON = 5, AUTO };").unwrap();
        assert_eq!(
            p.enums[0].variants,
            vec![("OFF".into(), 0), ("ON".into(), 5), ("AUTO".into(), 6)]
        );
    }

    #[test]
    fn ignores_qualifiers() {
        let p = parse_program("static const int x = 1; extern int y;").unwrap();
        assert_eq!(p.globals.len(), 2);
    }

    #[test]
    fn parses_negative_global_init() {
        let p = parse_program("int x = -1;").unwrap();
        match p.globals[0].init.as_ref().unwrap() {
            Initializer::Expr(e) => assert!(matches!(e.kind, ExprKind::Unary(UnOp::Neg, _))),
            _ => panic!("expected expr init"),
        }
    }

    #[test]
    fn unsized_array_infers_length() {
        let p = parse_program(r#"char* names[] = { "a", "b", "c" };"#).unwrap();
        assert!(matches!(p.globals[0].ty, CType::Array(_, 3)));
    }

    #[test]
    fn nesting_stops_at_the_limit_with_its_position() {
        // Each nested block statement is one level.
        let blocks = |n: usize| format!("int f() {{ {}{} }}", "{".repeat(n), "}".repeat(n));
        assert!(parse_program(&blocks(MAX_NESTING)).is_ok());
        let err = parse_program(&blocks(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(
            err.message,
            format!("nesting deeper than {MAX_NESTING} levels")
        );
        // The brace that opens the level past the limit.
        assert_eq!(err.span, Span::new(1, 11 + MAX_NESTING as u32));
    }
}
