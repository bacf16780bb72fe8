//! Abstract syntax tree for MiniHPC.
//!
//! One AST covers all four execution-model dialects; dialect-specific
//! constructs (CUDA kernel launches, OpenMP pragmas, Kokkos views/lambdas)
//! are ordinary nodes that semantic analysis accepts or rejects depending on
//! the programming model a translation unit is compiled for.

use crate::pragma::OmpDirective;
use crate::span::Span;

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

/// Builtin scalar types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarType {
    Void,
    Bool,
    Char,
    Int,
    Long,
    SizeT,
    Float,
    Double,
}

impl ScalarType {
    pub fn is_integer(self) -> bool {
        matches!(
            self,
            ScalarType::Bool
                | ScalarType::Char
                | ScalarType::Int
                | ScalarType::Long
                | ScalarType::SizeT
        )
    }

    pub fn is_float(self) -> bool {
        matches!(self, ScalarType::Float | ScalarType::Double)
    }

    pub fn keyword(self) -> &'static str {
        match self {
            ScalarType::Void => "void",
            ScalarType::Bool => "bool",
            ScalarType::Char => "char",
            ScalarType::Int => "int",
            ScalarType::Long => "long",
            ScalarType::SizeT => "size_t",
            ScalarType::Float => "float",
            ScalarType::Double => "double",
        }
    }

    pub fn from_keyword(kw: &str) -> Option<Self> {
        Some(match kw {
            "void" => ScalarType::Void,
            "bool" => ScalarType::Bool,
            "char" => ScalarType::Char,
            "int" => ScalarType::Int,
            "long" => ScalarType::Long,
            "size_t" => ScalarType::SizeT,
            "float" => ScalarType::Float,
            "double" => ScalarType::Double,
            _ => return None,
        })
    }
}

/// A MiniHPC type.
#[derive(Debug, Clone, PartialEq)]
pub enum Type {
    Scalar(ScalarType),
    /// Pointer to a type: `T*`.
    Ptr(Box<Type>),
    /// `const`-qualified type.
    Const(Box<Type>),
    /// A named (struct/typedef) type.
    Named(String),
    /// CUDA `dim3`.
    Dim3,
    /// Kokkos `View<elem (*s)>`: element type plus rank (number of `*`s).
    View {
        elem: ScalarType,
        rank: u8,
    },
}

impl Type {
    pub const INT: Type = Type::Scalar(ScalarType::Int);
    pub const DOUBLE: Type = Type::Scalar(ScalarType::Double);
    pub const VOID: Type = Type::Scalar(ScalarType::Void);

    pub fn ptr(inner: Type) -> Type {
        Type::Ptr(Box::new(inner))
    }

    /// Strip `const` qualifiers at the top level.
    pub fn unqualified(&self) -> &Type {
        match self {
            Type::Const(inner) => inner.unqualified(),
            other => other,
        }
    }

    pub fn is_pointer(&self) -> bool {
        matches!(self.unqualified(), Type::Ptr(_))
    }

    pub fn is_view(&self) -> bool {
        matches!(self.unqualified(), Type::View { .. })
    }

    pub fn is_numeric(&self) -> bool {
        match self.unqualified() {
            Type::Scalar(s) => *s != ScalarType::Void,
            _ => false,
        }
    }

    /// Element type of a pointer or view, if any.
    pub fn pointee(&self) -> Option<&Type> {
        match self.unqualified() {
            Type::Ptr(inner) => Some(inner),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
    BitNot,
    /// `*p`
    Deref,
    /// `&x`
    AddrOf,
    PreInc,
    PreDec,
    PostInc,
    PostDec,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    BitAnd,
    BitOr,
    BitXor,
    And,
    Or,
}

impl BinOp {
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

/// Lambda capture mode (`[=]`, `[&]`, or the `KOKKOS_LAMBDA` macro which is
/// by-value capture plus host/device annotation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureMode {
    ByValue,
    ByRef,
    KokkosLambda,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
}

impl Expr {
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// Convenience constructor used heavily by the transpilers.
    pub fn synth(kind: ExprKind) -> Self {
        Expr {
            kind,
            span: Span::DUMMY,
        }
    }

    pub fn ident(name: impl Into<String>) -> Self {
        Expr::synth(ExprKind::Ident(name.into()))
    }

    pub fn int(v: i64) -> Self {
        Expr::synth(ExprKind::IntLit(v))
    }

    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Self {
        Expr::synth(ExprKind::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    pub fn call(callee: Expr, args: Vec<Expr>) -> Self {
        Expr::synth(ExprKind::Call {
            callee: Box::new(callee),
            args,
        })
    }

    pub fn path(segments: &[&str]) -> Self {
        Expr::synth(ExprKind::Path(
            segments.iter().map(|s| s.to_string()).collect(),
        ))
    }

    pub fn index(base: Expr, idx: Expr) -> Self {
        Expr::synth(ExprKind::Index {
            base: Box::new(base),
            index: Box::new(idx),
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    IntLit(i64),
    FloatLit(f64),
    StrLit(String),
    CharLit(char),
    BoolLit(bool),
    Ident(String),
    /// A `::`-separated path such as `Kokkos::parallel_for`.
    Path(Vec<String>),
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `lhs = rhs` or compound `lhs op= rhs`.
    Assign {
        op: Option<BinOp>,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Ternary {
        cond: Box<Expr>,
        then: Box<Expr>,
        els: Box<Expr>,
    },
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
    },
    /// CUDA kernel launch: `name<<<grid, block>>>(args)`.
    KernelLaunch {
        kernel: String,
        grid: Box<Expr>,
        block: Box<Expr>,
        args: Vec<Expr>,
    },
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
    },
    Member {
        base: Box<Expr>,
        member: String,
        arrow: bool,
    },
    Cast {
        ty: Type,
        expr: Box<Expr>,
    },
    SizeOfType(Type),
    SizeOfExpr(Box<Expr>),
    /// C++/Kokkos lambda.
    Lambda {
        capture: CaptureMode,
        params: Vec<Param>,
        body: Block,
    },
    /// Parenthesised sub-expression (kept so the printer round-trips and the
    /// injectors can target user-visible structure).
    Paren(Box<Expr>),
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub span: Span,
}

impl Block {
    pub fn new(stmts: Vec<Stmt>) -> Self {
        Block {
            stmts,
            span: Span::DUMMY,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub kind: StmtKind,
    pub span: Span,
}

impl Stmt {
    pub fn new(kind: StmtKind, span: Span) -> Self {
        Stmt { kind, span }
    }

    pub fn synth(kind: StmtKind) -> Self {
        Stmt {
            kind,
            span: Span::DUMMY,
        }
    }

    pub fn expr(e: Expr) -> Self {
        Stmt::synth(StmtKind::Expr(e))
    }
}

/// Variable initialiser.
#[derive(Debug, Clone, PartialEq)]
pub enum Init {
    /// `= expr`
    Expr(Expr),
    /// `= { e, e, ... }`
    List(Vec<Expr>),
    /// C++ constructor syntax: `dim3 grid(gx, gy);`, `View<double*> a("a", n);`
    Ctor(Vec<Expr>),
}

#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    pub name: String,
    pub ty: Type,
    /// Fixed array dimensions, e.g. `double a[N][M]` (dimension expressions).
    pub array_dims: Vec<Expr>,
    pub init: Option<Init>,
    pub is_static: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    Decl(VarDecl),
    Expr(Expr),
    If {
        cond: Expr,
        then: Box<Stmt>,
        els: Option<Box<Stmt>>,
    },
    While {
        cond: Expr,
        body: Box<Stmt>,
    },
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Box<Stmt>,
    },
    Return(Option<Expr>),
    Break,
    Continue,
    Block(Block),
    /// An OpenMP directive, possibly attached to the statement it governs
    /// (loop constructs) or standalone (`barrier`) or opening a structured
    /// block (`target data { ... }`).
    Omp {
        directive: OmpDirective,
        body: Option<Box<Stmt>>,
    },
    /// A non-OpenMP pragma kept verbatim.
    RawPragma(String),
    Empty,
}

// ---------------------------------------------------------------------------
// Items
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    pub ty: Type,
    pub name: String,
}

impl Param {
    pub fn new(ty: Type, name: impl Into<String>) -> Self {
        Param {
            ty,
            name: name.into(),
        }
    }
}

/// Function qualifiers across dialects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FnQuals {
    /// CUDA `__global__` (kernel entry point).
    pub cuda_global: bool,
    /// CUDA `__device__`.
    pub cuda_device: bool,
    /// CUDA `__host__`.
    pub cuda_host: bool,
    pub is_static: bool,
    pub is_inline: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    pub quals: FnQuals,
    pub ret: Type,
    pub name: String,
    pub params: Vec<Param>,
    /// `None` for a forward declaration / extern prototype.
    pub body: Option<Block>,
    pub span: Span,
}

impl Function {
    pub fn is_definition(&self) -> bool {
        self.body.is_some()
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    pub ty: Type,
    pub name: String,
    pub array_dims: Vec<Expr>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    pub name: String,
    pub fields: Vec<Field>,
    /// True when declared `typedef struct {...} Name;`.
    pub is_typedef: bool,
    pub span: Span,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    pub kind: ItemKind,
    pub span: Span,
}

impl Item {
    pub fn synth(kind: ItemKind) -> Self {
        Item {
            kind,
            span: Span::DUMMY,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum ItemKind {
    Include {
        path: String,
        system: bool,
    },
    /// Preserved object-like macro: name and original body text.
    Define {
        name: String,
        body_text: String,
    },
    /// Preserved unknown preprocessor directive.
    OtherDirective(String),
    Struct(StructDef),
    Global(VarDecl),
    Function(Function),
}

/// A parsed source file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SourceFile {
    pub items: Vec<Item>,
}

impl SourceFile {
    /// Iterate over function definitions in the file.
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.items.iter().filter_map(|i| match &i.kind {
            ItemKind::Function(f) => Some(f),
            _ => None,
        })
    }

    /// Local (quoted) include paths referenced by this file.
    pub fn local_includes(&self) -> Vec<&str> {
        self.items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Include {
                    path,
                    system: false,
                } => Some(path.as_str()),
                _ => None,
            })
            .collect()
    }

    pub fn find_function(&self, name: &str) -> Option<&Function> {
        self.functions().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_helpers() {
        let t = Type::Const(Box::new(Type::ptr(Type::INT)));
        assert!(t.is_pointer());
        assert_eq!(t.unqualified(), &Type::ptr(Type::INT));
        assert_eq!(t.pointee(), Some(&Type::INT));
        assert!(!Type::VOID.is_numeric());
        assert!(Type::DOUBLE.is_numeric());
    }

    #[test]
    fn scalar_keywords_roundtrip() {
        for s in [
            ScalarType::Void,
            ScalarType::Bool,
            ScalarType::Char,
            ScalarType::Int,
            ScalarType::Long,
            ScalarType::SizeT,
            ScalarType::Float,
            ScalarType::Double,
        ] {
            assert_eq!(ScalarType::from_keyword(s.keyword()), Some(s));
        }
        assert_eq!(ScalarType::from_keyword("quux"), None);
    }

    #[test]
    fn expr_builders() {
        let e = Expr::binary(BinOp::Add, Expr::int(1), Expr::ident("x"));
        match e.kind {
            ExprKind::Binary { op, .. } => assert_eq!(op, BinOp::Add),
            _ => panic!(),
        }
    }

    #[test]
    fn source_file_queries() {
        let f = Function {
            quals: FnQuals::default(),
            ret: Type::VOID,
            name: "main".into(),
            params: vec![],
            body: Some(Block::new(vec![])),
            span: Span::DUMMY,
        };
        let sf = SourceFile {
            items: vec![
                Item::synth(ItemKind::Include {
                    path: "kernel.h".into(),
                    system: false,
                }),
                Item::synth(ItemKind::Include {
                    path: "stdio.h".into(),
                    system: true,
                }),
                Item::synth(ItemKind::Function(f)),
            ],
        };
        assert_eq!(sf.local_includes(), vec!["kernel.h"]);
        assert!(sf.find_function("main").is_some());
        assert!(sf.find_function("missing").is_none());
    }

    #[test]
    fn binop_symbols_unique() {
        use std::collections::HashSet;
        let ops = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::Shl,
            BinOp::Shr,
            BinOp::Lt,
            BinOp::Gt,
            BinOp::Le,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::BitAnd,
            BinOp::BitOr,
            BinOp::BitXor,
            BinOp::And,
            BinOp::Or,
        ];
        let syms: HashSet<_> = ops.iter().map(|o| o.symbol()).collect();
        assert_eq!(syms.len(), ops.len());
    }
}
