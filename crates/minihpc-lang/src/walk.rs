//! The one read-only traversal of statement and expression trees.
//!
//! [`walk`] visits a node, then its children in field order (preorder).
//! It enters array dimensions, every initializer form, lambda bodies and
//! OpenMP region bodies, but not OpenMP clause expressions
//! (`num_threads(n)`, `map` section bounds): a caller that needs those
//! reads the directive of the [`Node::Stmt`] it is handed. Model-usage
//! detection, cyclomatic complexity, the analyzer's identifier and call
//! scans and the transpilers' read-only scans all go through it: the
//! CUDA→Kokkos view-parameter map, device allocations and pointer aliases,
//! each file's declared-type table, and the identifiers a threads→offload
//! loop references. The transpilers' in-place edits (directive upgrades,
//! cuRAND renames, view indexing, host API rewrites) go through their
//! rewriter, `pareval-translate`'s `transpile/rw.rs`, the one mutable
//! traversal.

use crate::ast::{Expr, ExprKind, Init, Stmt, StmtKind};

/// A statement or an expression, as [`walk`] reports it.
#[derive(Debug, Clone, Copy)]
pub enum Node<'a> {
    Stmt(&'a Stmt),
    Expr(&'a Expr),
}

/// Call `f` on `node` and on every statement and expression under it, in
/// preorder.
pub fn walk<'a>(node: Node<'a>, f: &mut impl FnMut(Node<'a>)) {
    match node {
        Node::Stmt(s) => walk_stmt(s, f),
        Node::Expr(e) => walk_expr(e, f),
    }
}

/// [`walk`] each statement of a block (or function body) in order.
pub fn walk_stmts<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(Node<'a>)) {
    for s in stmts {
        walk_stmt(s, f);
    }
}

fn walk_stmt<'a>(s: &'a Stmt, f: &mut impl FnMut(Node<'a>)) {
    f(Node::Stmt(s));
    match &s.kind {
        StmtKind::Decl(d) => {
            walk_exprs(&d.array_dims, f);
            match &d.init {
                Some(Init::Expr(e)) => walk_expr(e, f),
                Some(Init::List(es)) | Some(Init::Ctor(es)) => walk_exprs(es, f),
                None => {}
            }
        }
        StmtKind::Expr(e) | StmtKind::Return(Some(e)) => walk_expr(e, f),
        StmtKind::If { cond, then, els } => {
            walk_expr(cond, f);
            walk_stmt(then, f);
            if let Some(e) = els {
                walk_stmt(e, f);
            }
        }
        StmtKind::While { cond, body } => {
            walk_expr(cond, f);
            walk_stmt(body, f);
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(i) = init {
                walk_stmt(i, f);
            }
            if let Some(c) = cond {
                walk_expr(c, f);
            }
            if let Some(st) = step {
                walk_expr(st, f);
            }
            walk_stmt(body, f);
        }
        StmtKind::Block(b) => walk_stmts(&b.stmts, f),
        StmtKind::Omp { body, .. } => {
            if let Some(b) = body {
                walk_stmt(b, f);
            }
        }
        StmtKind::Return(None)
        | StmtKind::Break
        | StmtKind::Continue
        | StmtKind::RawPragma(_)
        | StmtKind::Empty => {}
    }
}

fn walk_expr<'a>(e: &'a Expr, f: &mut impl FnMut(Node<'a>)) {
    f(Node::Expr(e));
    match &e.kind {
        ExprKind::Unary { expr, .. }
        | ExprKind::Cast { expr, .. }
        | ExprKind::SizeOfExpr(expr)
        | ExprKind::Paren(expr) => walk_expr(expr, f),
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        ExprKind::Ternary { cond, then, els } => {
            walk_expr(cond, f);
            walk_expr(then, f);
            walk_expr(els, f);
        }
        ExprKind::Call { callee, args } => {
            walk_expr(callee, f);
            walk_exprs(args, f);
        }
        ExprKind::KernelLaunch {
            grid, block, args, ..
        } => {
            walk_expr(grid, f);
            walk_expr(block, f);
            walk_exprs(args, f);
        }
        ExprKind::Index { base, index } => {
            walk_expr(base, f);
            walk_expr(index, f);
        }
        ExprKind::Member { base, .. } => walk_expr(base, f),
        ExprKind::Lambda { body, .. } => walk_stmts(&body.stmts, f),
        ExprKind::IntLit(_)
        | ExprKind::FloatLit(_)
        | ExprKind::StrLit(_)
        | ExprKind::CharLit(_)
        | ExprKind::BoolLit(_)
        | ExprKind::Ident(_)
        | ExprKind::Path(_)
        | ExprKind::SizeOfType(_) => {}
    }
}

fn walk_exprs<'a>(es: &'a [Expr], f: &mut impl FnMut(Node<'a>)) {
    for e in es {
        walk_expr(e, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    /// Every identifier the walk reports in `src`'s function `f`, in order.
    fn idents(src: &str) -> Vec<String> {
        let file = parse_file(src).expect("parse");
        let body = &file.find_function("f").expect("f").body;
        let mut out = Vec::new();
        walk_stmts(&body.as_ref().expect("a body").stmts, &mut |n| {
            if let Node::Expr(Expr {
                kind: ExprKind::Ident(name),
                ..
            }) = n
            {
                out.push(name.clone());
            }
        });
        out
    }

    #[test]
    fn preorder_covers_every_child_position() {
        let src = r#"
void f() {
    int a[d0];
    int b = i0;
    int c[2] = { l0, l1 };
    dim3 g(c0, c1);
    if (if0) t0; else e0;
    while (w0) w1;
    for (int i = f0; f1; f2) f3;
    call(a0, a1);
    k<<<g0, b0>>>(k0);
    x0 = (y0 ? y1 : y2) + s0[s1] + m0.m + (int)ca0 - -u0;
    Kokkos::parallel_for(n0, KOKKOS_LAMBDA(int i) { lam0; });
    #pragma omp parallel for num_threads(nt) map(to: arr[0:len])
    for (int i = 0; o0; i++) o1;
    return r0;
}
"#;
        assert_eq!(
            idents(src),
            [
                "d0", "i0", "l0", "l1", "c0", "c1", "if0", "t0", "e0", "w0", "w1", "f0", "f1",
                "f2", "f3", "call", "a0", "a1", "g0", "b0", "k0", "x0", "y0", "y1", "y2", "s0",
                "s1", "m0", "ca0", "u0", "n0", "lam0", "o0", "i", "o1", "r0",
            ]
        );
    }

    #[test]
    fn statements_come_before_their_expressions() {
        let file = parse_file("void f() { if (c) { x = 1; } }").expect("parse");
        let body = file.find_function("f").and_then(|f| f.body.as_ref());
        let mut kinds = Vec::new();
        walk_stmts(&body.expect("a body").stmts, &mut |n| {
            kinds.push(match n {
                Node::Stmt(s) => match &s.kind {
                    StmtKind::If { .. } => "if",
                    StmtKind::Block(_) => "block",
                    StmtKind::Expr(_) => "expr-stmt",
                    _ => "stmt",
                },
                Node::Expr(e) => match &e.kind {
                    ExprKind::Ident(_) => "ident",
                    ExprKind::Assign { .. } => "assign",
                    ExprKind::IntLit(_) => "int",
                    _ => "expr",
                },
            });
        });
        assert_eq!(
            kinds,
            [
                "if",
                "ident",
                "block",
                "expr-stmt",
                "assign",
                "ident",
                "int"
            ]
        );
    }
}
