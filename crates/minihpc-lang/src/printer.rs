//! Pretty-printer: regenerates MiniHPC source text from the AST.
//!
//! The printer is the other half of the translation pipeline — transpilers
//! and error injectors operate on ASTs and then print the result back to
//! text, which is what gets "submitted" to the build system, exactly like an
//! LLM emitting a code block. `print ∘ parse` is the identity on canonical
//! output (property-tested in this crate).

use crate::ast::*;
use crate::pragma::*;

const INDENT: &str = "    ";

/// Print a whole source file.
pub fn print_file(file: &SourceFile) -> String {
    let mut p = Printer::new();
    for (i, item) in file.items.iter().enumerate() {
        if i > 0 {
            p.out.push('\n');
        }
        p.item(item);
    }
    p.out
}

/// Print a single statement at indent level zero.
pub fn print_stmt(s: &Stmt) -> String {
    let mut p = Printer::new();
    p.stmt(s);
    p.out
}

/// Print a single expression.
pub fn print_expr(e: &Expr) -> String {
    let mut p = Printer::new();
    p.expr(e);
    p.out
}

pub fn type_to_string(t: &Type) -> String {
    match t {
        Type::Scalar(s) => s.keyword().to_string(),
        Type::Ptr(inner) => format!("{}*", type_to_string(inner)),
        Type::Const(inner) => format!("const {}", type_to_string(inner)),
        Type::Named(n) => n.clone(),
        Type::Dim3 => "dim3".to_string(),
        Type::View { elem, rank } => {
            format!(
                "Kokkos::View<{}{}>",
                elem.keyword(),
                "*".repeat(*rank as usize)
            )
        }
    }
}

/// Render an OpenMP clause back to directive text.
pub fn clause_to_string(c: &OmpClause) -> String {
    match c {
        OmpClause::NumThreads(e) => format!("num_threads({})", print_expr(e)),
        OmpClause::NumTeams(e) => format!("num_teams({})", print_expr(e)),
        OmpClause::ThreadLimit(e) => format!("thread_limit({})", print_expr(e)),
        OmpClause::Collapse(n) => format!("collapse({n})"),
        OmpClause::Reduction { op, vars } => {
            format!("reduction({}: {})", op.symbol(), vars.join(", "))
        }
        OmpClause::Map { kind, sections } => {
            let secs: Vec<String> = sections.iter().map(section_to_string).collect();
            format!("map({}: {})", kind.keyword(), secs.join(", "))
        }
        OmpClause::Private(vars) => format!("private({})", vars.join(", ")),
        OmpClause::FirstPrivate(vars) => format!("firstprivate({})", vars.join(", ")),
        OmpClause::Shared(vars) => format!("shared({})", vars.join(", ")),
        OmpClause::Schedule { kind, chunk } => match chunk {
            Some(c) => format!("schedule({kind}, {})", print_expr(c)),
            None => format!("schedule({kind})"),
        },
        OmpClause::Default(mode) => format!("default({mode})"),
        OmpClause::If(e) => format!("if({})", print_expr(e)),
        OmpClause::Device(e) => format!("device({})", print_expr(e)),
        OmpClause::Unknown { name, text } => format!("{name}{text}"),
    }
}

fn section_to_string(s: &ArraySection) -> String {
    let mut out = s.var.clone();
    for (lo, len) in &s.ranges {
        out.push_str(&format!("[{}:{}]", print_expr(lo), print_expr(len)));
    }
    out
}

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn new() -> Self {
        Printer {
            out: String::new(),
            indent: 0,
        }
    }

    fn line_start(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str(INDENT);
        }
    }

    fn push(&mut self, s: &str) {
        self.out.push_str(s);
    }

    fn item(&mut self, item: &Item) {
        match &item.kind {
            ItemKind::Include { path, system } => {
                if *system {
                    self.push(&format!("#include <{path}>\n"));
                } else {
                    self.push(&format!("#include \"{path}\"\n"));
                }
            }
            ItemKind::Define { name, body_text } => {
                self.push(&format!("#define {name} {body_text}\n"));
            }
            ItemKind::OtherDirective(d) => {
                self.push(&format!("#{d}\n"));
            }
            ItemKind::Struct(s) => self.struct_def(s),
            ItemKind::Global(d) => {
                self.line_start();
                self.var_decl(d);
                self.push(";\n");
            }
            ItemKind::Function(f) => self.function(f),
        }
    }

    fn struct_def(&mut self, s: &StructDef) {
        if s.is_typedef {
            self.push("typedef struct {\n");
        } else {
            self.push(&format!("struct {} {{\n", s.name));
        }
        self.indent += 1;
        for f in &s.fields {
            self.line_start();
            self.push(&format!("{} {}", type_to_string(&f.ty), f.name));
            for d in &f.array_dims {
                self.push(&format!("[{}]", print_expr(d)));
            }
            self.push(";\n");
        }
        self.indent -= 1;
        if s.is_typedef {
            self.push(&format!("}} {};\n", s.name));
        } else {
            self.push("};\n");
        }
    }

    fn function(&mut self, f: &Function) {
        let mut quals = String::new();
        if f.quals.cuda_global {
            quals.push_str("__global__ ");
        }
        if f.quals.cuda_device {
            quals.push_str("__device__ ");
        }
        if f.quals.cuda_host {
            quals.push_str("__host__ ");
        }
        if f.quals.is_static {
            quals.push_str("static ");
        }
        if f.quals.is_inline {
            quals.push_str("inline ");
        }
        let params: Vec<String> = f
            .params
            .iter()
            .map(|p| {
                if p.name.is_empty() {
                    type_to_string(&p.ty)
                } else {
                    format!("{} {}", type_to_string(&p.ty), p.name)
                }
            })
            .collect();
        self.push(&format!(
            "{}{} {}({})",
            quals,
            type_to_string(&f.ret),
            f.name,
            params.join(", ")
        ));
        match &f.body {
            Some(body) => {
                self.push(" ");
                self.block(body);
                self.push("\n");
            }
            None => self.push(";\n"),
        }
    }

    fn block(&mut self, b: &Block) {
        self.push("{\n");
        self.indent += 1;
        for s in &b.stmts {
            self.stmt(s);
        }
        self.indent -= 1;
        self.line_start();
        self.push("}");
    }

    fn var_decl(&mut self, d: &VarDecl) {
        if d.is_static {
            self.push("static ");
        }
        self.push(&format!("{} {}", type_to_string(&d.ty), d.name));
        for dim in &d.array_dims {
            self.push(&format!("[{}]", print_expr(dim)));
        }
        match &d.init {
            Some(Init::Expr(e)) => {
                self.push(" = ");
                self.expr(e);
            }
            Some(Init::List(elems)) => {
                self.push(" = { ");
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        self.push(", ");
                    }
                    self.expr(e);
                }
                self.push(" }");
            }
            Some(Init::Ctor(args)) => {
                self.push("(");
                for (i, e) in args.iter().enumerate() {
                    if i > 0 {
                        self.push(", ");
                    }
                    self.expr(e);
                }
                self.push(")");
            }
            None => {}
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Decl(d) => {
                self.line_start();
                self.var_decl(d);
                self.push(";\n");
            }
            StmtKind::Expr(e) => {
                self.line_start();
                self.expr(e);
                self.push(";\n");
            }
            StmtKind::If { cond, then, els } => {
                self.line_start();
                self.push("if (");
                self.expr(cond);
                self.push(")");
                self.stmt_as_body(then);
                if let Some(els) = els {
                    self.line_start();
                    self.push("else");
                    self.stmt_as_body(els);
                }
            }
            StmtKind::While { cond, body } => {
                self.line_start();
                self.push("while (");
                self.expr(cond);
                self.push(")");
                self.stmt_as_body(body);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.line_start();
                self.push("for (");
                match init {
                    Some(s) => match &s.kind {
                        StmtKind::Decl(d) => {
                            self.var_decl(d);
                            self.push("; ");
                        }
                        StmtKind::Expr(e) => {
                            self.expr(e);
                            self.push("; ");
                        }
                        _ => self.push("; "),
                    },
                    None => self.push("; "),
                }
                if let Some(c) = cond {
                    self.expr(c);
                }
                self.push("; ");
                if let Some(st) = step {
                    self.expr(st);
                }
                self.push(")");
                self.stmt_as_body(body);
            }
            StmtKind::Return(v) => {
                self.line_start();
                match v {
                    Some(e) => {
                        self.push("return ");
                        self.expr(e);
                        self.push(";\n");
                    }
                    None => self.push("return;\n"),
                }
            }
            StmtKind::Break => {
                self.line_start();
                self.push("break;\n");
            }
            StmtKind::Continue => {
                self.line_start();
                self.push("continue;\n");
            }
            StmtKind::Block(b) => {
                self.line_start();
                self.block(b);
                self.push("\n");
            }
            StmtKind::Omp { directive, body } => {
                self.line_start();
                self.push(&format!("#pragma {}\n", directive.text()));
                if let Some(b) = body {
                    self.stmt(b);
                }
            }
            StmtKind::RawPragma(text) => {
                self.line_start();
                self.push(&format!("#pragma {text}\n"));
            }
            StmtKind::Empty => {
                self.line_start();
                self.push(";\n");
            }
        }
    }

    /// Print the body of an `if`/`for`/`while`: blocks inline after the
    /// header, other statements indented on the next line.
    fn stmt_as_body(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Block(b) => {
                self.push(" ");
                self.block(b);
                self.push("\n");
            }
            _ => {
                self.push("\n");
                self.indent += 1;
                self.stmt(s);
                self.indent -= 1;
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::IntLit(v) => self.push(&v.to_string()),
            ExprKind::FloatLit(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    self.push(&format!("{v:.1}"));
                } else {
                    self.push(&format!("{v}"));
                }
            }
            ExprKind::StrLit(s) => {
                self.push("\"");
                for c in s.chars() {
                    match c {
                        '\n' => self.push("\\n"),
                        '\t' => self.push("\\t"),
                        '\r' => self.push("\\r"),
                        '\0' => self.push("\\0"),
                        '"' => self.push("\\\""),
                        '\\' => self.push("\\\\"),
                        other => self.out.push(other),
                    }
                }
                self.push("\"");
            }
            ExprKind::CharLit(c) => {
                self.push("'");
                match c {
                    '\n' => self.push("\\n"),
                    '\t' => self.push("\\t"),
                    '\'' => self.push("\\'"),
                    '\\' => self.push("\\\\"),
                    '\0' => self.push("\\0"),
                    other => self.out.push(*other),
                }
                self.push("'");
            }
            ExprKind::BoolLit(b) => self.push(if *b { "true" } else { "false" }),
            ExprKind::Ident(name) => self.push(name),
            ExprKind::Path(segments) => self.push(&segments.join("::")),
            ExprKind::Unary { op, expr } => match op {
                UnaryOp::PostInc => {
                    self.expr(expr);
                    self.push("++");
                }
                UnaryOp::PostDec => {
                    self.expr(expr);
                    self.push("--");
                }
                _ => {
                    let sym = match op {
                        UnaryOp::Neg => "-",
                        UnaryOp::Not => "!",
                        UnaryOp::BitNot => "~",
                        UnaryOp::Deref => "*",
                        UnaryOp::AddrOf => "&",
                        UnaryOp::PreInc => "++",
                        UnaryOp::PreDec => "--",
                        _ => unreachable!(),
                    };
                    self.push(sym);
                    // Parenthesise non-primary operands for re-parseability.
                    if needs_parens_unary(expr) {
                        self.push("(");
                        self.expr(expr);
                        self.push(")");
                    } else {
                        self.expr(expr);
                    }
                }
            },
            ExprKind::Binary { op, lhs, rhs } => {
                self.print_operand(lhs, precedence_of(*op), true);
                self.push(&format!(" {} ", op.symbol()));
                self.print_operand(rhs, precedence_of(*op), false);
            }
            ExprKind::Assign { op, lhs, rhs } => {
                self.expr(lhs);
                match op {
                    Some(o) => self.push(&format!(" {}= ", o.symbol())),
                    None => self.push(" = "),
                }
                self.expr(rhs);
            }
            ExprKind::Ternary { cond, then, els } => {
                self.print_operand(cond, 1, true);
                self.push(" ? ");
                self.expr(then);
                self.push(" : ");
                self.expr(els);
            }
            ExprKind::Call { callee, args } => {
                self.expr(callee);
                self.push("(");
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.push(", ");
                    }
                    self.expr(a);
                }
                self.push(")");
            }
            ExprKind::KernelLaunch {
                kernel,
                grid,
                block,
                args,
            } => {
                self.push(kernel);
                self.push("<<<");
                self.expr(grid);
                self.push(", ");
                self.expr(block);
                self.push(">>>(");
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.push(", ");
                    }
                    self.expr(a);
                }
                self.push(")");
            }
            ExprKind::Index { base, index } => {
                self.print_operand(base, 14, true);
                self.push("[");
                self.expr(index);
                self.push("]");
            }
            ExprKind::Member {
                base,
                member,
                arrow,
            } => {
                self.print_operand(base, 14, true);
                self.push(if *arrow { "->" } else { "." });
                self.push(member);
            }
            ExprKind::Cast { ty, expr } => {
                self.push(&format!("({})", type_to_string(ty)));
                if needs_parens_unary(expr) {
                    self.push("(");
                    self.expr(expr);
                    self.push(")");
                } else {
                    self.expr(expr);
                }
            }
            ExprKind::SizeOfType(ty) => {
                self.push(&format!("sizeof({})", type_to_string(ty)));
            }
            ExprKind::SizeOfExpr(e) => {
                self.push("sizeof(");
                self.expr(e);
                self.push(")");
            }
            ExprKind::Lambda {
                capture,
                params,
                body,
            } => {
                match capture {
                    CaptureMode::ByValue => self.push("[=]"),
                    CaptureMode::ByRef => self.push("[&]"),
                    CaptureMode::KokkosLambda => self.push("KOKKOS_LAMBDA"),
                }
                self.push("(");
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        self.push(", ");
                    }
                    self.push(&format!("{} {}", type_to_string(&p.ty), p.name));
                }
                self.push(") ");
                self.block(body);
            }
            ExprKind::Paren(inner) => {
                self.push("(");
                self.expr(inner);
                self.push(")");
            }
        }
    }

    /// Print a binary operand, adding parentheses when its precedence is
    /// lower than (or equal on the non-associative side to) the parent's.
    fn print_operand(&mut self, e: &Expr, parent_prec: u8, is_left: bool) {
        let child_prec = expr_precedence(e);
        let needs = child_prec < parent_prec || (child_prec == parent_prec && !is_left);
        if needs && !matches!(e.kind, ExprKind::Paren(_)) {
            self.push("(");
            self.expr(e);
            self.push(")");
        } else {
            self.expr(e);
        }
    }
}

fn precedence_of(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::BitOr => 3,
        BinOp::BitXor => 4,
        BinOp::BitAnd => 5,
        BinOp::Eq | BinOp::Ne => 6,
        BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => 7,
        BinOp::Shl | BinOp::Shr => 8,
        BinOp::Add | BinOp::Sub => 9,
        BinOp::Mul | BinOp::Div | BinOp::Rem => 10,
    }
}

fn expr_precedence(e: &Expr) -> u8 {
    match &e.kind {
        ExprKind::Assign { .. } => 0,
        ExprKind::Ternary { .. } => 1,
        ExprKind::Binary { op, .. } => precedence_of(*op),
        ExprKind::Cast { .. } | ExprKind::Unary { .. } => 12,
        _ => 15,
    }
}

fn needs_parens_unary(e: &Expr) -> bool {
    expr_precedence(e) < 12
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr_str, parse_file, parse_stmt_str};

    fn roundtrip_expr(src: &str) {
        let e1 = parse_expr_str(src).unwrap();
        let printed = print_expr(&e1);
        let e2 = parse_expr_str(&printed)
            .unwrap_or_else(|err| panic!("reparse of `{printed}` failed: {err}"));
        let printed2 = print_expr(&e2);
        assert_eq!(printed, printed2, "printer not idempotent for `{src}`");
    }

    #[test]
    fn expr_roundtrips() {
        for src in [
            "1 + 2 * 3",
            "(1 + 2) * 3",
            "a ? b : c",
            "x = y += 2",
            "-x * !y",
            "a[i * n + j]",
            "p->field.sub[3]",
            "f(a, b + 1, g())",
            "(double*)malloc(n * sizeof(double))",
            "k<<<grid, block>>>(a, b, n)",
            "i < n && j < n || k == 0",
            "count == 1 ? 1 : 0",
            "a << 2 >> b",
            "x % 4 ^ y & z | w",
        ] {
            roundtrip_expr(src);
        }
    }

    #[test]
    fn stmt_print_parse_roundtrip() {
        let srcs = [
            "for (int i = 0; i < n; i++) { a[i] = 0; }",
            "if (x > 0) { y = 1; } else { y = 2; }",
            "while (running) { step(); }",
            "#pragma omp target teams distribute parallel for collapse(2)\nfor (int i = 0; i < n; i++) { }",
            "double a[10][20];",
            "return x + 1;",
        ];
        for src in srcs {
            let s1 = parse_stmt_str(src).unwrap();
            let p1 = print_stmt(&s1);
            let s2 = parse_stmt_str(&p1)
                .unwrap_or_else(|e| panic!("reparse failed for:\n{p1}\nerror: {e}"));
            assert_eq!(p1, print_stmt(&s2));
        }
    }

    #[test]
    fn file_roundtrip_cuda() {
        let src = r#"
#include "kernel.h"
#include <stdio.h>
#define N 16

__global__ void cellsXOR(const int* input, int* output, size_t n) {
    int i = blockIdx.y * blockDim.y + threadIdx.y;
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n && j < n) {
        int count = 0;
        if (i > 0 && input[(i - 1) * n + j] == 1) count++;
        output[i * n + j] = (count == 1) ? 1 : 0;
    }
}

int main(int argc, char** argv) {
    int* d_in;
    cudaMalloc(&d_in, N * N * sizeof(int));
    dim3 block(16, 16);
    cellsXOR<<<4, block>>>(d_in, d_in, N);
    cudaDeviceSynchronize();
    return 0;
}
"#;
        let f1 = parse_file(src).unwrap();
        let p1 = print_file(&f1);
        let f2 = parse_file(&p1).unwrap_or_else(|e| panic!("reparse failed:\n{p1}\n{e}"));
        assert_eq!(p1, print_file(&f2), "printer must be idempotent");
    }

    #[test]
    fn pragma_text_reconstruction() {
        let s = parse_stmt_str(
            "#pragma omp target teams distribute parallel for map(to: in[0:n]) map(from: out[0:n]) collapse(2)\nfor (int i = 0; i < n; i++) { }",
        )
        .unwrap();
        let printed = print_stmt(&s);
        assert!(printed.contains("#pragma omp target teams distribute parallel for"));
        assert!(printed.contains("map(to: in[0:n])"));
        assert!(printed.contains("map(from: out[0:n])"));
        assert!(printed.contains("collapse(2)"));
    }

    #[test]
    fn kokkos_roundtrip() {
        let src = r#"
int main() {
    Kokkos::View<double*> d("d", 100);
    Kokkos::parallel_for(100, KOKKOS_LAMBDA(int i) { d(i) = 2.0 * i; });
    return 0;
}
"#;
        let f1 = parse_file(src).unwrap();
        let p1 = print_file(&f1);
        let f2 = parse_file(&p1).unwrap_or_else(|e| panic!("reparse failed:\n{p1}\n{e}"));
        assert_eq!(p1, print_file(&f2));
        assert!(p1.contains("Kokkos::View<double*>"));
        assert!(p1.contains("KOKKOS_LAMBDA"));
    }

    #[test]
    fn negative_float_prints() {
        let e = parse_expr_str("-1.5").unwrap();
        assert_eq!(print_expr(&e), "-1.5");
        let e = parse_expr_str("2.0").unwrap();
        assert_eq!(print_expr(&e), "2.0");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let e = parse_expr_str(r#"printf("a\tb\n")"#).unwrap();
        let p = print_expr(&e);
        assert_eq!(p, r#"printf("a\tb\n")"#);
    }
}
