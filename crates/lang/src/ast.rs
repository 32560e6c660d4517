//! Abstract syntax tree for the mini-C language.

use crate::diag::Span;
use crate::types::CType;

/// A complete translation unit.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Struct type definitions, in declaration order.
    pub structs: Vec<StructDef>,
    /// Enum definitions (each variant has an explicit or implicit value).
    pub enums: Vec<EnumDef>,
    /// Global variable definitions.
    pub globals: Vec<GlobalDef>,
    /// Function definitions.
    pub functions: Vec<FunctionDef>,
}

/// One top-level item of a program.
#[derive(Debug, Clone)]
pub enum Item {
    /// A struct definition.
    Struct(StructDef),
    /// An enum definition.
    Enum(EnumDef),
    /// A global variable.
    Global(GlobalDef),
    /// A function definition.
    Function(FunctionDef),
}

impl Program {
    /// Appends an item to the list of its kind.
    pub fn push(&mut self, item: Item) {
        match item {
            Item::Struct(s) => self.structs.push(s),
            Item::Enum(e) => self.enums.push(e),
            Item::Global(g) => self.globals.push(g),
            Item::Function(f) => self.functions.push(f),
        }
    }

    /// Looks up a struct definition by name.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// Looks up a function definition by name.
    pub fn function(&self, name: &str) -> Option<&FunctionDef> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Looks up a global definition by name.
    pub fn global(&self, name: &str) -> Option<&GlobalDef> {
        self.globals.iter().find(|g| g.name == name)
    }
}

/// `struct name { fields };`
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Struct tag name.
    pub name: String,
    /// Ordered fields.
    pub fields: Vec<FieldDef>,
    /// Declaration site.
    pub span: Span,
}

impl StructDef {
    /// Index of the field called `name`.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

/// One field of a struct.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: CType,
}

/// `enum name { A, B = 3, ... };`
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// Enum tag name.
    pub name: String,
    /// Variant names with resolved integer values.
    pub variants: Vec<(String, i64)>,
    /// Declaration site.
    pub span: Span,
}

/// A global variable definition, possibly with an initializer.
#[derive(Debug, Clone)]
pub struct GlobalDef {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: CType,
    /// Optional initializer (constant expression or aggregate).
    pub init: Option<Initializer>,
    /// Declaration site.
    pub span: Span,
}

/// A global initializer: either a single constant expression or a brace-
/// enclosed aggregate (for arrays and structs).
#[derive(Debug, Clone)]
pub enum Initializer {
    /// Scalar initializer expression.
    Expr(Expr),
    /// `{ a, b, ... }` aggregate, possibly nested.
    List(Vec<Initializer>),
}

/// A function definition.
#[derive(Debug, Clone)]
pub struct FunctionDef {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: CType,
    /// Parameters in order.
    pub params: Vec<ParamDef>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Definition site.
    pub span: Span,
}

/// One function parameter.
#[derive(Debug, Clone)]
pub struct ParamDef {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: CType,
}

/// A statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// Expression evaluated for effect.
    Expr(Expr),
    /// Local variable declaration with optional initializer.
    VarDecl {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: CType,
        /// Optional initializer.
        init: Option<Expr>,
        /// Declaration site.
        span: Span,
    },
    /// `if (cond) then else otherwise`.
    If {
        /// Branch condition.
        cond: Expr,
        /// Then-arm.
        then_body: Vec<Stmt>,
        /// Else-arm (empty when absent).
        else_body: Vec<Stmt>,
        /// Site of the `if` keyword.
        span: Span,
    },
    /// `while (cond) body`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// Site of the `while` keyword.
        span: Span,
    },
    /// `do body while (cond);`
    DoWhile {
        /// Loop body.
        body: Vec<Stmt>,
        /// Loop condition.
        cond: Expr,
        /// Site of the `do` keyword.
        span: Span,
    },
    /// `for (init; cond; step) body`.
    For {
        /// Optional init statement.
        init: Option<Box<Stmt>>,
        /// Optional condition (true when absent).
        cond: Option<Expr>,
        /// Optional step expression.
        step: Option<Expr>,
        /// Loop body.
        body: Vec<Stmt>,
        /// Site of the `for` keyword.
        span: Span,
    },
    /// `switch (scrutinee) { cases }`.
    Switch {
        /// Switched-on expression.
        scrutinee: Expr,
        /// Case arms; each may carry several labels.
        cases: Vec<SwitchCase>,
        /// Statements of the `default:` arm, if present.
        default: Option<Vec<Stmt>>,
        /// Site of the `switch` keyword.
        span: Span,
    },
    /// `break;`
    Break(Span),
    /// `continue;`
    Continue(Span),
    /// `return expr?;`
    Return(Option<Expr>, Span),
    /// `{ ... }` block.
    Block(Vec<Stmt>),
}

/// One `case` arm of a switch.
#[derive(Debug, Clone)]
pub struct SwitchCase {
    /// Constant labels that fall into this arm.
    pub labels: Vec<Expr>,
    /// Statements of the arm (fallthrough is not modelled; each arm is
    /// implicitly terminated).
    pub body: Vec<Stmt>,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    LogicalAnd,
    LogicalOr,
}

impl BinOp {
    /// Whether this is a comparison producing a boolean.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
    /// Bitwise complement.
    BitNot,
}

/// An expression, carrying its source location.
#[derive(Debug, Clone)]
pub struct Expr {
    /// Expression kind.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

impl Expr {
    /// Creates an expression node.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// Convenience constructor for integer literals in synthesized code.
    pub fn int(v: i64) -> Self {
        Expr::new(ExprKind::IntLit(v), Span::unknown())
    }
}

/// Expression kinds.
#[derive(Debug, Clone)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Floating-point literal.
    FloatLit(f64),
    /// String literal.
    StrLit(String),
    /// Character literal.
    CharLit(char),
    /// `NULL`.
    Null,
    /// `true` / `false`.
    BoolLit(bool),
    /// Variable reference (local, parameter, global, enum constant, or
    /// function name when used as a function pointer).
    Ident(String),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Assignment; `op` is `None` for plain `=`, or the compound operator.
    Assign {
        /// Assignment target (lvalue).
        target: Box<Expr>,
        /// Compound operator, if any (`+=` carries [`BinOp::Add`]).
        op: Option<BinOp>,
        /// Right-hand side.
        value: Box<Expr>,
    },
    /// Function call; the callee is an expression to allow calls through
    /// function pointers stored in struct fields.
    Call {
        /// Callee expression (usually an identifier).
        callee: Box<Expr>,
        /// Arguments in order.
        args: Vec<Expr>,
    },
    /// Array indexing `base[idx]`.
    Index(Box<Expr>, Box<Expr>),
    /// Member access `base.field` or `base->field`.
    Member {
        /// Base expression.
        base: Box<Expr>,
        /// Field name.
        field: String,
        /// Whether `->` was used.
        arrow: bool,
    },
    /// C-style cast `(type) expr`.
    Cast(CType, Box<Expr>),
    /// Ternary conditional.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Address-of `&expr`.
    AddrOf(Box<Expr>),
    /// Dereference `*expr`.
    Deref(Box<Expr>),
    /// Post-increment/decrement; `inc` selects `++`.
    PostIncDec {
        /// Target lvalue.
        target: Box<Expr>,
        /// True for `++`.
        inc: bool,
    },
    /// `sizeof(type)` — evaluated to a constant size in bytes.
    Sizeof(CType),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_comparison_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(BinOp::Ne.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(!BinOp::LogicalAnd.is_comparison());
    }

    #[test]
    fn program_lookup_helpers() {
        let mut p = Program::default();
        p.structs.push(StructDef {
            name: "opt".into(),
            fields: vec![FieldDef {
                name: "name".into(),
                ty: CType::string(),
            }],
            span: Span::unknown(),
        });
        assert!(p.struct_def("opt").is_some());
        assert_eq!(p.struct_def("opt").unwrap().field_index("name"), Some(0));
        assert!(p.struct_def("missing").is_none());
        assert!(p.function("f").is_none());
    }
}
