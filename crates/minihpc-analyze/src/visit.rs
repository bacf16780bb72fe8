//! Small expression classifiers used by every pass (rules, CFG
//! construction, call-graph summaries). Tree walks go through
//! [`minihpc_lang::walk`].

use minihpc_lang::ast::{BinOp, Expr, ExprKind, Stmt, Type, UnaryOp};
use minihpc_lang::pragma::ReductionOp;
use minihpc_lang::walk::{walk, Node};

/// Pointer rank of a type (0 = scalar): levels of indirection for raw
/// pointers, the declared rank for Kokkos-style views.
pub(crate) fn rank_of(ty: &Type) -> u8 {
    match ty.unqualified() {
        Type::Ptr(inner) => 1 + rank_of(inner),
        Type::View { rank, .. } => *rank,
        _ => 0,
    }
}

/// Collect every identifier occurrence (with span start) in a statement tree.
pub(crate) fn collect_idents(s: &Stmt, out: &mut Vec<(String, u32)>) {
    walk(Node::Stmt(s), &mut |n| {
        if let Node::Expr(Expr {
            kind: ExprKind::Ident(name),
            span,
        }) = n
        {
            out.push((name.clone(), span.start));
        }
    });
}

/// The root identifier of a (possibly nested) indexing base.
pub(crate) fn index_root(base: &Expr) -> Option<&str> {
    match &base.kind {
        ExprKind::Ident(name) => Some(name),
        ExprKind::Index { base, .. } | ExprKind::Paren(base) => index_root(base),
        ExprKind::Member { base, .. } => index_root(base),
        ExprKind::Unary {
            op: UnaryOp::Deref,
            expr,
        } => index_root(expr),
        _ => None,
    }
}

/// Does `e` reference identifier `name` anywhere?
pub(crate) fn expr_references(e: &Expr, name: &str) -> bool {
    let mut found = false;
    walk(Node::Expr(e), &mut |n| {
        if matches!(n, Node::Expr(Expr { kind: ExprKind::Ident(id), .. }) if id == name) {
            found = true;
        }
    });
    found
}

/// `Some(var)` when the index expression is exactly a bare identifier.
pub(crate) fn plain_index_var(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Ident(n) => Some(n),
        ExprKind::Paren(inner) => plain_index_var(inner),
        _ => None,
    }
}

/// `Some(c)` when the expression is `var + c`, `c + var`, or `var - c`.
pub(crate) fn shifted_index_offset(e: &Expr, var: &str) -> Option<i64> {
    match &e.kind {
        ExprKind::Paren(inner) => shifted_index_offset(inner, var),
        ExprKind::Ident(n) if n == var => Some(0),
        ExprKind::Binary { op, lhs, rhs } => {
            let (ident, lit, negate) = match (&lhs.kind, &rhs.kind, op) {
                (ExprKind::Ident(n), ExprKind::IntLit(c), BinOp::Add) => (n, *c, false),
                (ExprKind::IntLit(c), ExprKind::Ident(n), BinOp::Add) => (n, *c, false),
                (ExprKind::Ident(n), ExprKind::IntLit(c), BinOp::Sub) => (n, *c, true),
                _ => return None,
            };
            if ident == var {
                Some(if negate { -lit } else { lit })
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The OpenMP reduction operator matching a self-update's binary operator,
/// when one exists (`x -= e` and shift updates have no reduction form the
/// fix-it synthesizer can emit).
pub(crate) fn reduction_op_of(op: BinOp) -> Option<ReductionOp> {
    Some(match op {
        BinOp::Add => ReductionOp::Add,
        BinOp::Mul => ReductionOp::Mul,
        BinOp::BitAnd => ReductionOp::BitAnd,
        BinOp::BitOr => ReductionOp::BitOr,
        BinOp::BitXor => ReductionOp::BitXor,
        _ => return None,
    })
}
