//! The transpilers' mutable traversals of statement and expression trees.
//!
//! [`for_each_stmt`] is the one statement recursion for in-place edits:
//! it hands every statement to its callback in preorder. [`map_exprs_stmt`]
//! runs [`map_exprs`] over each of those statements' own expressions, and
//! [`rewrite_stmts`] replaces statements by lists of statements. Read-only
//! scans use `minihpc_lang::walk` instead.

use minihpc_lang::ast::*;
use minihpc_lang::pragma::OmpClause;

/// Call `f` on `s` and, unless it returns `false`, then on every statement
/// nested in what `f` left, in preorder: `if` branches, loop bodies, a
/// `for` initializer, block statements and OpenMP region bodies. Lambda
/// bodies are expressions, so only [`map_exprs`] enters them.
pub fn for_each_stmt(s: &mut Stmt, f: &mut impl FnMut(&mut Stmt) -> bool) {
    if !f(s) {
        return;
    }
    match &mut s.kind {
        StmtKind::If { then, els, .. } => {
            for_each_stmt(then, f);
            if let Some(e) = els {
                for_each_stmt(e, f);
            }
        }
        StmtKind::For { init, body, .. } => {
            if let Some(i) = init {
                for_each_stmt(i, f);
            }
            for_each_stmt(body, f);
        }
        StmtKind::While { body, .. }
        | StmtKind::Omp {
            body: Some(body), ..
        } => for_each_stmt(body, f),
        StmtKind::Block(b) => {
            for s in &mut b.stmts {
                for_each_stmt(s, f);
            }
        }
        _ => {}
    }
}

/// Rewrite every expression in a statement tree, OpenMP clause expressions
/// included, each one bottom-up. Statements are visited in preorder, so
/// `f` must not depend on the order in which statements are visited.
pub fn map_exprs_stmt(s: &mut Stmt, f: &mut impl FnMut(&mut Expr)) {
    for_each_stmt(s, &mut |s| {
        match &mut s.kind {
            StmtKind::Decl(d) => {
                let init = match &mut d.init {
                    Some(Init::Expr(e)) => std::slice::from_mut(e),
                    Some(Init::List(es)) | Some(Init::Ctor(es)) => es,
                    None => &mut [],
                };
                for e in d.array_dims.iter_mut().chain(init) {
                    map_exprs(e, f);
                }
            }
            StmtKind::Expr(e)
            | StmtKind::Return(Some(e))
            | StmtKind::If { cond: e, .. }
            | StmtKind::While { cond: e, .. } => map_exprs(e, f),
            StmtKind::For { cond, step, .. } => {
                for e in cond.iter_mut().chain(step) {
                    map_exprs(e, f);
                }
            }
            StmtKind::Omp { directive, .. } => {
                for clause in &mut directive.clauses {
                    match clause {
                        OmpClause::NumThreads(e)
                        | OmpClause::NumTeams(e)
                        | OmpClause::ThreadLimit(e)
                        | OmpClause::If(e)
                        | OmpClause::Device(e) => map_exprs(e, f),
                        OmpClause::Map { sections, .. } => {
                            for (lo, len) in sections.iter_mut().flat_map(|s| &mut s.ranges) {
                                map_exprs(lo, f);
                                map_exprs(len, f);
                            }
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
        true
    });
}

/// Rewrite an expression tree bottom-up (children first, then the node).
pub fn map_exprs(e: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    match &mut e.kind {
        ExprKind::Unary { expr, .. } => map_exprs(expr, f),
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            map_exprs(lhs, f);
            map_exprs(rhs, f);
        }
        ExprKind::Ternary { cond, then, els } => {
            map_exprs(cond, f);
            map_exprs(then, f);
            map_exprs(els, f);
        }
        ExprKind::Call { callee, args } => {
            map_exprs(callee, f);
            for a in args {
                map_exprs(a, f);
            }
        }
        ExprKind::KernelLaunch {
            grid, block, args, ..
        } => {
            map_exprs(grid, f);
            map_exprs(block, f);
            for a in args {
                map_exprs(a, f);
            }
        }
        ExprKind::Index { base, index } => {
            map_exprs(base, f);
            map_exprs(index, f);
        }
        ExprKind::Member { base, .. } => map_exprs(base, f),
        ExprKind::Cast { expr, .. } => map_exprs(expr, f),
        ExprKind::SizeOfExpr(inner) => map_exprs(inner, f),
        ExprKind::Lambda { body, .. } => {
            for s in &mut body.stmts {
                map_exprs_stmt(s, f);
            }
        }
        ExprKind::Paren(inner) => map_exprs(inner, f),
        _ => {}
    }
    f(e);
}

/// Rewrite the statements of every (nested) block: the callback receives one
/// statement and returns its replacement statements (empty = delete).
pub fn rewrite_stmts(block: &mut Block, f: &mut impl FnMut(Stmt) -> Vec<Stmt>) {
    let old = std::mem::take(&mut block.stmts);
    let mut new = Vec::with_capacity(old.len());
    for mut s in old {
        // Recurse into nested bodies first.
        match &mut s.kind {
            StmtKind::Block(b) => rewrite_stmts(b, f),
            StmtKind::If { then, els, .. } => {
                rewrite_nested(then, f);
                if let Some(e) = els {
                    rewrite_nested(e, f);
                }
            }
            StmtKind::While { body, .. } => rewrite_nested(body, f),
            StmtKind::For { body, .. } => rewrite_nested(body, f),
            StmtKind::Omp { body: Some(b), .. } => rewrite_nested(b, f),
            _ => {}
        }
        new.extend(f(s));
    }
    block.stmts = new;
}

fn rewrite_nested(s: &mut Stmt, f: &mut impl FnMut(Stmt) -> Vec<Stmt>) {
    if let StmtKind::Block(b) = &mut s.kind {
        rewrite_stmts(b, f);
    } else {
        // Single-statement body: apply the rewrite; wrap multi-statement
        // replacements in a block.
        let old = std::mem::replace(s, Stmt::synth(StmtKind::Empty));
        let mut replaced = f(old);
        *s = match replaced.len() {
            0 => Stmt::synth(StmtKind::Empty),
            1 => replaced.pop().unwrap(),
            _ => Stmt::synth(StmtKind::Block(Block::new(replaced))),
        };
    }
}

/// Rewrite a type in place (recursively through pointers/const).
pub fn map_type(t: &mut Type, f: &mut impl FnMut(&mut Type)) {
    match t {
        Type::Ptr(inner) | Type::Const(inner) => map_type(inner, f),
        _ => {}
    }
    f(t);
}

/// The callee name and arguments of a plain `name(args)` call expression.
pub fn call(e: &Expr) -> Option<(&str, &[Expr])> {
    match &e.kind {
        ExprKind::Call { callee, args } => match &callee.kind {
            ExprKind::Ident(n) => Some((n, args)),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minihpc_lang::parser::{parse_expr_str, parse_stmt_str};
    use minihpc_lang::printer::{print_expr, print_stmt};

    #[test]
    fn map_exprs_renames_idents() {
        let mut e = parse_expr_str("a + b * a").unwrap();
        map_exprs(&mut e, &mut |e| {
            if let ExprKind::Ident(n) = &mut e.kind {
                if n == "a" {
                    *n = "x".into();
                }
            }
        });
        assert_eq!(print_expr(&e), "x + b * x");
    }

    #[test]
    fn map_exprs_stmt_reaches_every_expression() {
        let src = r#"
void f() {
    int a[d0];
    int b = i0;
    int c[2] = { l0, l1 };
    dim3 g(c0, c1);
    if (if0) t0; else { e0; }
    while (w0) w1;
    for (int i = f0; f1; f2) f3;
    k<<<g0, b0>>>(k0);
    Kokkos::parallel_for(n0, KOKKOS_LAMBDA(int i) { int v = lam0; });
    #pragma omp parallel for num_threads(nt) map(to: arr[lo:len])
    for (int i = 0; o0; i++) o1;
    return r0;
}
"#;
        let mut file = minihpc_lang::parser::parse_file(src).unwrap();
        let ItemKind::Function(f) = &mut file.items[0].kind else {
            panic!()
        };
        let mut seen = Vec::new();
        for s in &mut f.body.as_mut().unwrap().stmts {
            map_exprs_stmt(s, &mut |e| {
                if let ExprKind::Ident(n) = &e.kind {
                    seen.push(n.clone());
                }
            });
        }
        seen.sort();
        seen.dedup();
        let mut want = [
            "d0", "i0", "l0", "l1", "c0", "c1", "if0", "t0", "e0", "w0", "w1", "f0", "f1", "f2",
            "f3", "g0", "b0", "k0", "n0", "lam0", "nt", "lo", "len", "o0", "i", "o1", "r0",
        ];
        want.sort();
        assert_eq!(seen, want);
    }

    #[test]
    fn rewrite_stmts_deletes_and_replaces() {
        let mut s = parse_stmt_str("{ cudaFree(p); x = 1; }").unwrap();
        let StmtKind::Block(ref mut b) = s.kind else {
            panic!()
        };
        rewrite_stmts(b, &mut |s| {
            if let StmtKind::Expr(e) = &s.kind {
                if matches!(call(e), Some(("cudaFree", _))) {
                    return vec![];
                }
            }
            vec![s]
        });
        let printed = print_stmt(&s);
        assert!(!printed.contains("cudaFree"));
        assert!(printed.contains("x = 1"));
    }

    #[test]
    fn rewrite_single_stmt_bodies() {
        let mut s = parse_stmt_str("if (x) cudaDeviceSynchronize();").unwrap();
        let mut wrapper = Block::new(vec![s.clone()]);
        rewrite_stmts(&mut wrapper, &mut |s| {
            if let StmtKind::Expr(e) = &s.kind {
                if matches!(call(e), Some(("cudaDeviceSynchronize", _))) {
                    return vec![];
                }
            }
            vec![s]
        });
        s = wrapper.stmts[0].clone();
        let printed = print_stmt(&s);
        assert!(!printed.contains("cudaDeviceSynchronize"), "{printed}");
    }
}
