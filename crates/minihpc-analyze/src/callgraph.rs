//! Call-graph summaries: which of a function's pointer parameters it
//! writes through, and how.
//!
//! This is what lets the region rules see through helper calls — v1
//! treated `accumulate(&sum, x)` inside a `parallel for` as a pure read of
//! `sum` (a false negative the regression tests pin). A [`FnSummary`]
//! records each write a definition performs through one of its parameters;
//! [`Summaries::build`] computes them for every definition in the repo with
//! a bounded fixpoint so effects propagate through helper-calls-helper
//! chains. The region analyzer then expands call sites against these
//! summaries into the same `ScalarWrite`/`ArrayAccess` facts it derives
//! from direct statements.
//!
//! The pass is deliberately *under*-approximate: an argument shape it
//! cannot map (arbitrary expressions, aliased pointers) contributes no
//! effect. Zero false positives is the contract — the differential harness
//! checks false negatives against the dynamic recorder instead.

use std::collections::HashMap;

use crate::visit::{expr_references, reduction_op_of};
use minihpc_lang::ast::{Block, Expr, ExprKind, Function, SourceFile, Stmt, StmtKind, UnaryOp};
use minihpc_lang::pragma::{OmpConstruct, ReductionOp};
use minihpc_lang::walk::{walk, Node};

/// How a scalar write updates its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteKind {
    /// `v = e` with `e` not referencing `v`.
    Plain,
    /// `v op= e`, `v = v op e`, `v++` — a reduction-shaped self-update.
    SelfUpdate,
}

/// What the index of a summarized array write depends on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum IndexDep {
    /// Loop-invariant from the callee's perspective (constants, globals).
    Fixed,
    /// Depends on these callee parameters (by position).
    Params(Vec<usize>),
}

/// One write effect through a pointer parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ParamEffect {
    /// `*p = e` / `*p op= e`: a write to the single location `p` points at.
    Scalar {
        kind: WriteKind,
        /// The reduction operator when the update is reduction-shaped and
        /// has an OpenMP spelling (`*p += e` ⇒ `+`).
        op: Option<ReductionOp>,
    },
    /// `p[idx] = e`: an element write whose index has the given dependency.
    Element { index: IndexDep },
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ParamWrite {
    /// Position of the written-through parameter.
    pub param: usize,
    pub effect: ParamEffect,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct FnSummary {
    pub writes: Vec<ParamWrite>,
}

/// Summaries for every function *definition* in the analyzed repo, keyed by
/// name. Declaration-only functions have no entry: calling them contributes
/// no effects (the conservative-for-false-positives choice).
#[derive(Debug, Default)]
pub(crate) struct Summaries {
    map: HashMap<String, FnSummary>,
}

impl Summaries {
    pub fn get(&self, name: &str) -> Option<&FnSummary> {
        self.map.get(name)
    }

    /// Build summaries over all parsed files, iterating to a bounded
    /// fixpoint so `f -> g -> *p += x` chains converge. The bound (10) is
    /// far deeper than any realistic helper chain; hitting it merely loses
    /// the deepest effects (under-approximation, never a false positive).
    pub fn build<'a>(files: impl Iterator<Item = &'a SourceFile> + Clone) -> Summaries {
        let mut this = Summaries::default();
        for _ in 0..10 {
            let mut changed = false;
            for file in files.clone() {
                for f in file.functions() {
                    if f.body.is_none() {
                        continue;
                    }
                    let summary = summarize_fn(f, &this);
                    match this.map.get(&f.name) {
                        Some(prev) if *prev == summary => {}
                        _ => {
                            this.map.insert(f.name.clone(), summary);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        this
    }
}

fn summarize_fn(f: &Function, known: &Summaries) -> FnSummary {
    let params: HashMap<&str, usize> = f
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.as_str(), i))
        .collect();
    let mut w = SummaryWalker {
        params: &params,
        param_names: f.params.iter().map(|p| p.name.clone()).collect(),
        known,
        protected: 0,
        writes: Vec::new(),
    };
    if let Some(body) = &f.body {
        w.walk_block(body);
    }
    let mut writes = w.writes;
    writes.dedup();
    FnSummary { writes }
}

struct SummaryWalker<'a> {
    params: &'a HashMap<&'a str, usize>,
    param_names: Vec<String>,
    known: &'a Summaries,
    /// Depth of enclosing `atomic`/`critical`: protected writes are not
    /// conflicts at any call site, so they contribute no effect.
    protected: u32,
    writes: Vec<ParamWrite>,
}

impl SummaryWalker<'_> {
    fn walk_block(&mut self, b: &Block) {
        for s in &b.stmts {
            self.walk_stmt(s);
        }
    }

    fn walk_stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr(e) => self.walk_expr(e),
            StmtKind::Decl(_) => {}
            StmtKind::If { then, els, .. } => {
                self.walk_stmt(then);
                if let Some(e) = els {
                    self.walk_stmt(e);
                }
            }
            StmtKind::While { body, .. } => self.walk_stmt(body),
            StmtKind::For { init, body, .. } => {
                if let Some(i) = init {
                    self.walk_stmt(i);
                }
                self.walk_stmt(body);
            }
            StmtKind::Block(b) => self.walk_block(b),
            StmtKind::Omp { directive, body } => {
                let Some(body) = body else { return };
                let protecting =
                    directive.has(OmpConstruct::Atomic) || directive.has(OmpConstruct::Critical);
                if protecting {
                    self.protected += 1;
                }
                self.walk_stmt(body);
                if protecting {
                    self.protected -= 1;
                }
            }
            StmtKind::Return(_)
            | StmtKind::Break
            | StmtKind::Continue
            | StmtKind::RawPragma(_)
            | StmtKind::Empty => {}
        }
    }

    fn walk_expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Assign { op, lhs, rhs } => {
                let op_hint = (*op).and_then(reduction_op_of);
                self.record_write(lhs, op.is_some(), op_hint, Some(rhs));
                self.find_calls(rhs);
            }
            ExprKind::Unary {
                op: op @ (UnaryOp::PreInc | UnaryOp::PreDec | UnaryOp::PostInc | UnaryOp::PostDec),
                expr,
            } => {
                let op_hint = match op {
                    UnaryOp::PreInc | UnaryOp::PostInc => Some(ReductionOp::Add),
                    _ => None,
                };
                self.record_write(expr, true, op_hint, None);
            }
            ExprKind::Paren(inner) => self.walk_expr(inner),
            _ => self.find_calls(e),
        }
    }

    /// Propagate effects of direct calls appearing anywhere in `e`.
    fn find_calls(&mut self, e: &Expr) {
        let mut calls = Vec::new();
        walk(Node::Expr(e), &mut |n| {
            if let Node::Expr(Expr {
                kind: ExprKind::Call { callee, args },
                ..
            }) = n
            {
                if let ExprKind::Ident(name) = &callee.kind {
                    calls.push((name.as_str(), args.as_slice()));
                }
            }
        });
        for (name, args) in calls {
            self.apply_call(name, args);
        }
    }

    /// Remap a callee's effects through this call's arguments onto our own
    /// parameters. Unmappable argument shapes are skipped.
    fn apply_call(&mut self, name: &str, args: &[Expr]) {
        if self.protected > 0 {
            return;
        }
        let Some(summary) = self.known.get(name) else {
            return;
        };
        let effects: Vec<ParamWrite> = summary.writes.clone();
        for pw in effects {
            let Some(arg) = args.get(pw.param) else {
                continue;
            };
            // The written-through pointer must be one of *our* pointer
            // parameters, passed directly by name.
            let ExprKind::Ident(base) = &arg.kind else {
                continue;
            };
            let Some(&our_param) = self.params.get(base.as_str()) else {
                continue;
            };
            let effect = match pw.effect {
                ParamEffect::Scalar { kind, op } => ParamEffect::Scalar { kind, op },
                ParamEffect::Element { index } => {
                    let deps = match index {
                        IndexDep::Fixed => Some(Vec::new()),
                        IndexDep::Params(ps) => self.map_index_params(&ps, args),
                    };
                    let Some(deps) = deps else { continue };
                    if deps.is_empty() {
                        ParamEffect::Element {
                            index: IndexDep::Fixed,
                        }
                    } else {
                        ParamEffect::Element {
                            index: IndexDep::Params(deps),
                        }
                    }
                }
            };
            let pw = ParamWrite {
                param: our_param,
                effect,
            };
            if !self.writes.contains(&pw) {
                self.writes.push(pw);
            }
        }
    }

    /// Map the callee's index-parameter positions through the call's
    /// arguments onto our own parameter positions. `None` when an argument
    /// shape is unmappable (skip the effect rather than guess).
    fn map_index_params(&self, ps: &[usize], args: &[Expr]) -> Option<Vec<usize>> {
        let mut deps = Vec::new();
        for &p in ps {
            let ix_arg = args.get(p)?;
            let mut any = false;
            let mut ours: Vec<usize> = Vec::new();
            for (i, pname) in self.param_names.iter().enumerate() {
                if expr_references(ix_arg, pname) {
                    ours.push(i);
                    any = true;
                }
            }
            for i in ours {
                if !deps.contains(&i) {
                    deps.push(i);
                }
            }
            // An index argument referencing none of our params stays
            // loop-invariant only when it is a literal; locals could vary
            // per call — skip the whole effect.
            if !any && !matches!(ix_arg.kind, ExprKind::IntLit(_)) {
                return None;
            }
        }
        deps.sort_unstable();
        Some(deps)
    }

    fn record_write(
        &mut self,
        lhs: &Expr,
        compound: bool,
        op_hint: Option<ReductionOp>,
        rhs: Option<&Expr>,
    ) {
        if self.protected > 0 {
            if let Some(r) = rhs {
                self.find_calls(r);
            }
            return;
        }
        match &lhs.kind {
            // `*p = e` / `*p op= e` / `(*p)++`
            ExprKind::Unary {
                op: UnaryOp::Deref,
                expr,
            } => {
                let ExprKind::Ident(name) = &expr.kind else {
                    return;
                };
                let Some(&param) = self.params.get(name.as_str()) else {
                    return;
                };
                let self_ref = rhs.is_some_and(|r| expr_references(r, name));
                let (kind, op) = if compound || self_ref {
                    (
                        WriteKind::SelfUpdate,
                        op_hint.or_else(|| spelled_out_op(rhs, name)),
                    )
                } else {
                    (WriteKind::Plain, None)
                };
                self.push(ParamWrite {
                    param,
                    effect: ParamEffect::Scalar { kind, op },
                });
            }
            // `p[idx] = e`
            ExprKind::Index { base, index } => {
                let ExprKind::Ident(name) = &base.kind else {
                    return;
                };
                let Some(&param) = self.params.get(name.as_str()) else {
                    return;
                };
                let mut deps = Vec::new();
                for (i, pname) in self.param_names.iter().enumerate() {
                    if expr_references(index, pname) && !deps.contains(&i) {
                        deps.push(i);
                    }
                }
                let index = if deps.is_empty() {
                    IndexDep::Fixed
                } else {
                    IndexDep::Params(deps)
                };
                self.push(ParamWrite {
                    param,
                    effect: ParamEffect::Element { index },
                });
            }
            ExprKind::Paren(inner) => self.record_write(inner, compound, op_hint, rhs),
            _ => {}
        }
    }

    fn push(&mut self, pw: ParamWrite) {
        if !self.writes.contains(&pw) {
            self.writes.push(pw);
        }
    }
}

/// The operator of a spelled-out self-update `*p = *p op e` / `*p = e op *p`.
fn spelled_out_op(rhs: Option<&Expr>, name: &str) -> Option<ReductionOp> {
    let rhs = rhs?;
    let ExprKind::Binary { op, lhs: l, rhs: r } = &rhs.kind else {
        return None;
    };
    let is_self = |e: &Expr| {
        matches!(
            &e.kind,
            ExprKind::Unary { op: UnaryOp::Deref, expr }
                if matches!(&expr.kind, ExprKind::Ident(n) if n == name)
        )
    };
    if is_self(l) || is_self(r) {
        reduction_op_of(*op)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minihpc_lang::parse_file;

    fn summaries(src: &str) -> Summaries {
        let file = parse_file(src).expect("parse");
        let files = [file];
        Summaries::build(files.iter())
    }

    #[test]
    fn deref_compound_update_is_a_scalar_reduction_effect() {
        let s = summaries(
            "void accumulate(double* acc, double x) { *acc += x; }\n\
             int main() { return 0; }\n",
        );
        let sum = s.get("accumulate").expect("summary");
        assert_eq!(sum.writes.len(), 1);
        assert_eq!(sum.writes[0].param, 0);
        assert_eq!(
            sum.writes[0].effect,
            ParamEffect::Scalar {
                kind: WriteKind::SelfUpdate,
                op: Some(ReductionOp::Add),
            }
        );
    }

    #[test]
    fn spelled_out_self_update_recovers_the_operator() {
        let s = summaries("void scale(double* acc, double x) { *acc = *acc * x; }\n");
        assert_eq!(
            s.get("scale").unwrap().writes[0].effect,
            ParamEffect::Scalar {
                kind: WriteKind::SelfUpdate,
                op: Some(ReductionOp::Mul),
            }
        );
    }

    #[test]
    fn plain_deref_store_is_a_plain_scalar_effect() {
        let s = summaries("void set(double* out, double v) { *out = v; }\n");
        assert_eq!(
            s.get("set").unwrap().writes[0].effect,
            ParamEffect::Scalar {
                kind: WriteKind::Plain,
                op: None,
            }
        );
    }

    #[test]
    fn element_write_index_dependency_is_tracked() {
        let s = summaries("void put(double* a, int i, double v) { a[i] = v; }\n");
        let sum = s.get("put").expect("summary");
        assert_eq!(sum.writes.len(), 1);
        assert_eq!(sum.writes[0].param, 0);
        assert_eq!(
            sum.writes[0].effect,
            ParamEffect::Element {
                index: IndexDep::Params(vec![1])
            }
        );
    }

    #[test]
    fn fixed_index_write_is_fixed() {
        let s = summaries("void zero(double* a) { a[0] = 0.0; }\n");
        assert_eq!(
            s.get("zero").unwrap().writes[0].effect,
            ParamEffect::Element {
                index: IndexDep::Fixed
            }
        );
    }

    #[test]
    fn effects_propagate_through_helper_chains() {
        let s = summaries(
            "void inner(double* a, int i) { a[i] = 1.0; }\n\
             void outer(double* b, int j) { inner(b, j); }\n",
        );
        let outer = s.get("outer").expect("summary");
        assert_eq!(outer.writes.len(), 1);
        assert_eq!(outer.writes[0].param, 0);
        assert_eq!(
            outer.writes[0].effect,
            ParamEffect::Element {
                index: IndexDep::Params(vec![1])
            }
        );
    }

    #[test]
    fn atomic_protected_writes_contribute_no_effect() {
        let s = summaries(
            "void bump(int* n) {\n\
             #pragma omp atomic\n\
             *n += 1;\n\
             }\n",
        );
        assert!(s.get("bump").unwrap().writes.is_empty());
    }

    #[test]
    fn declaration_only_functions_have_no_summary() {
        let s = summaries("double lookup(double* g, int i);\nint main() { return 0; }\n");
        assert!(s.get("lookup").is_none());
    }
}
