//! Worksharing-region analysis: classify every variable access inside a
//! parallel region (shared / private / reduction / loop-index), expand
//! helper-call sites against the interprocedural summaries, and emit the
//! race rules with liveness-gated fix-its.

use std::collections::HashSet;

use crate::callgraph::{IndexDep, ParamEffect, WriteKind};
use crate::fixit::{FixIt, FixItEdit};
use crate::report::{Confidence, Rule};
use crate::rules::FnAnalyzer;
use crate::visit::{
    expr_references, index_root, plain_index_var, reduction_op_of, shifted_index_offset,
};
use minihpc_lang::ast::{Expr, ExprKind, Stmt, StmtKind, UnaryOp};
use minihpc_lang::pragma::{OmpClause, OmpConstruct, OmpDirective, ReductionOp};
use minihpc_lang::walk::{walk, Node};

#[derive(Debug)]
struct ScalarWrite {
    name: String,
    kind: WriteKind,
    /// The reduction operator of a self-update, when it has one
    /// (`sum += x` ⇒ `+`); drives the `reduction(...)` fix-it.
    op: Option<ReductionOp>,
    span_start: u32,
    /// Derived from a helper-call summary rather than a direct statement.
    via_call: bool,
}

#[derive(Debug)]
struct ArrayAccess {
    base: String,
    index: Expr,
    span_start: u32,
    via_call: bool,
}

pub(crate) struct RegionAnalyzer<'f, 'a> {
    cx: &'f mut FnAnalyzer<'a>,
    directive: OmpDirective,
    loop_indices: HashSet<String>,
    private: HashSet<String>,
    reduction: HashSet<String>,
    /// Names declared inside the region body (thread-private storage).
    declared: HashSet<String>,
    scalar_writes: Vec<ScalarWrite>,
    array_writes: Vec<ArrayAccess>,
    array_reads: Vec<ArrayAccess>,
    /// Scalars read anywhere in the region (fix-it: firstprivate vs private).
    scalar_reads: HashSet<String>,
    /// Depth of enclosing `atomic`/`critical` protection while walking.
    protected: u32,
    /// Depth of enclosing `critical`/`master` (for barrier placement).
    serial_section: u32,
}

impl<'f, 'a> RegionAnalyzer<'f, 'a> {
    pub fn analyze(cx: &'f mut FnAnalyzer<'a>, d: &OmpDirective, body: &Stmt) {
        let mut private = HashSet::new();
        let mut reduction = HashSet::new();
        for clause in &d.clauses {
            match clause {
                OmpClause::Private(vars) | OmpClause::FirstPrivate(vars) => {
                    private.extend(vars.iter().cloned());
                }
                OmpClause::Reduction { vars, .. } => {
                    reduction.extend(vars.iter().cloned());
                }
                _ => {}
            }
        }

        let mut this = RegionAnalyzer {
            cx,
            directive: d.clone(),
            loop_indices: HashSet::new(),
            private,
            reduction,
            declared: HashSet::new(),
            scalar_writes: Vec::new(),
            array_writes: Vec::new(),
            array_reads: Vec::new(),
            scalar_reads: HashSet::new(),
            protected: 0,
            serial_section: 0,
        };
        this.collect_loop_indices(body);

        if d.targets_device() {
            this.cx.check_map_arity(d);
            this.cx.check_missing_maps(d, body);
        }

        this.walk(body, /* in_loop_body: */ d.is_loop_directive());
        this.emit();
    }

    /// Loop-index variables of the canonical nest, up to `collapse` depth.
    fn collect_loop_indices(&mut self, body: &Stmt) {
        let depth = self.directive.collapse().max(1) as usize;
        let mut current = body;
        for _ in 0..depth {
            let StmtKind::For { init, body, .. } = &current.kind else {
                return;
            };
            match init.as_deref().map(|s| &s.kind) {
                Some(StmtKind::Decl(d)) => {
                    self.loop_indices.insert(d.name.clone());
                }
                Some(StmtKind::Expr(e)) => {
                    if let ExprKind::Assign { lhs, .. } = &e.kind {
                        if let ExprKind::Ident(n) = &lhs.kind {
                            self.loop_indices.insert(n.clone());
                        }
                    }
                }
                _ => return,
            }
            current = match &body.kind {
                StmtKind::Block(b) if b.stmts.len() == 1 => &b.stmts[0],
                _ => body,
            };
        }
    }

    fn walk(&mut self, s: &Stmt, in_loop_body: bool) {
        match &s.kind {
            StmtKind::Decl(d) => {
                self.declared.insert(d.name.clone());
                match &d.init {
                    Some(minihpc_lang::ast::Init::Expr(e)) => self.collect_reads(e),
                    Some(minihpc_lang::ast::Init::List(es))
                    | Some(minihpc_lang::ast::Init::Ctor(es)) => {
                        for e in es {
                            self.collect_reads(e);
                        }
                    }
                    None => {}
                }
            }
            StmtKind::Expr(e) => self.walk_expr(e),
            StmtKind::If { cond, then, els } => {
                self.collect_reads(cond);
                self.walk(then, in_loop_body);
                if let Some(e) = els {
                    self.walk(e, in_loop_body);
                }
            }
            StmtKind::While { cond, body } => {
                self.collect_reads(cond);
                self.walk(body, in_loop_body);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    // A nested sequential loop's index is thread-private.
                    if let StmtKind::Decl(d) = &i.kind {
                        self.declared.insert(d.name.clone());
                    }
                    self.walk(i, in_loop_body);
                }
                if let Some(c) = cond {
                    self.collect_reads(c);
                }
                if let Some(st) = step {
                    self.walk_expr(st);
                }
                self.walk(body, in_loop_body);
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    self.collect_reads(e);
                }
            }
            StmtKind::Block(b) => {
                for s in &b.stmts {
                    self.walk(s, in_loop_body);
                }
            }
            StmtKind::Omp { directive, body } => {
                self.walk_nested_omp(directive, body.as_deref(), in_loop_body);
            }
            StmtKind::Break | StmtKind::Continue | StmtKind::RawPragma(_) | StmtKind::Empty => {}
        }
    }

    fn walk_nested_omp(&mut self, d: &OmpDirective, body: Option<&Stmt>, in_loop_body: bool) {
        if d.has(OmpConstruct::Barrier) {
            if in_loop_body || self.serial_section > 0 {
                let place = if self.serial_section > 0 {
                    "a critical/master section"
                } else {
                    "a worksharing loop body"
                };
                let fixit = self.cx.line_of(d.span.start).map(|line| FixIt {
                    file: self.cx.file.to_string(),
                    line,
                    title: "remove misplaced barrier".to_string(),
                    edit: FixItEdit::RemoveLine,
                });
                self.cx.report_with(
                    Rule::BarrierMisuse,
                    "<barrier>",
                    d.span.start,
                    format!("barrier inside {place}"),
                    Confidence::High,
                    fixit,
                );
            }
            return;
        }
        let Some(body) = body else { return };
        if d.has(OmpConstruct::Atomic) {
            self.cx.check_atomic(d, body);
            self.protected += 1;
            self.walk(body, in_loop_body);
            self.protected -= 1;
            return;
        }
        if d.has(OmpConstruct::Critical) {
            self.protected += 1;
            self.serial_section += 1;
            self.walk(body, in_loop_body);
            self.serial_section -= 1;
            self.protected -= 1;
            return;
        }
        if d.has(OmpConstruct::Master) || d.has(OmpConstruct::Single) {
            self.serial_section += 1;
            self.walk(body, in_loop_body);
            self.serial_section -= 1;
            return;
        }
        // A nested worksharing/loop directive: fold its clause privatisation
        // and its loop indices into this region's sets and keep walking — a
        // conservative merge that avoids double-reporting.
        for clause in &d.clauses {
            match clause {
                OmpClause::Private(vars) | OmpClause::FirstPrivate(vars) => {
                    self.declared.extend(vars.iter().cloned());
                }
                OmpClause::Reduction { vars, .. } => {
                    self.reduction.extend(vars.iter().cloned());
                }
                _ => {}
            }
        }
        if d.is_loop_directive() {
            if let StmtKind::For {
                init: Some(init), ..
            } = &body.kind
            {
                if let StmtKind::Decl(decl) = &init.kind {
                    self.loop_indices.insert(decl.name.clone());
                }
            }
        }
        self.walk(body, in_loop_body || d.is_loop_directive());
    }

    /// Walk an expression statement, classifying writes and reads.
    fn walk_expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Assign { op, lhs, rhs } => {
                self.collect_reads(rhs);
                self.record_write(lhs, *op, Some(rhs), e.span.start);
            }
            ExprKind::Unary {
                op: op @ (UnaryOp::PreInc | UnaryOp::PreDec | UnaryOp::PostInc | UnaryOp::PostDec),
                expr,
            } => {
                let red = match op {
                    UnaryOp::PreInc | UnaryOp::PostInc => Some(ReductionOp::Add),
                    _ => None,
                };
                self.record_increment(expr, red, e.span.start);
            }
            ExprKind::Paren(inner) => self.walk_expr(inner),
            _ => self.collect_reads(e),
        }
    }

    fn record_increment(&mut self, lhs: &Expr, red: Option<ReductionOp>, span_start: u32) {
        // `x++` is `x += 1`: route through record_write with a synthetic
        // compound op so classification matches, then patch the operator
        // (Dec has no OpenMP reduction spelling).
        let before = self.scalar_writes.len();
        self.record_write(lhs, Some(minihpc_lang::ast::BinOp::Add), None, span_start);
        for w in &mut self.scalar_writes[before..] {
            w.op = red;
        }
    }

    fn record_write(
        &mut self,
        lhs: &Expr,
        op: Option<minihpc_lang::ast::BinOp>,
        rhs: Option<&Expr>,
        span_start: u32,
    ) {
        let compound = op.is_some();
        if self.protected > 0 || self.serial_section > 0 {
            // Atomic/critical-protected and single/master writes do not
            // conflict (master/single still read-shares; good enough here).
            if let Some(r) = rhs {
                self.collect_reads(r);
            }
            return;
        }
        match &lhs.kind {
            ExprKind::Ident(name) => {
                let self_ref = rhs.is_some_and(|r| expr_references(r, name));
                let (kind, red) = if compound {
                    (WriteKind::SelfUpdate, op.and_then(reduction_op_of))
                } else if self_ref {
                    (
                        WriteKind::SelfUpdate,
                        rhs.and_then(|r| spelled_out_op(r, name)),
                    )
                } else {
                    (WriteKind::Plain, None)
                };
                self.scalar_writes.push(ScalarWrite {
                    name: name.clone(),
                    kind,
                    op: red,
                    span_start,
                    via_call: false,
                });
            }
            ExprKind::Index { base, index } => {
                self.collect_reads(index);
                if let Some(root) = index_root(base) {
                    self.array_writes.push(ArrayAccess {
                        base: root.to_string(),
                        index: (**index).clone(),
                        span_start,
                        via_call: false,
                    });
                }
            }
            ExprKind::Unary {
                op: UnaryOp::Deref,
                expr,
            } => {
                // `*p = e`: a fixed location, same as indexing with a
                // loop-invariant index.
                if let ExprKind::Ident(name) = &expr.kind {
                    self.array_writes.push(ArrayAccess {
                        base: name.clone(),
                        index: Expr::int(0),
                        span_start,
                        via_call: false,
                    });
                }
            }
            ExprKind::Member { base, .. } => {
                if let Some(root) = index_root(base) {
                    self.scalar_writes.push(ScalarWrite {
                        name: root.to_string(),
                        kind: if compound {
                            WriteKind::SelfUpdate
                        } else {
                            WriteKind::Plain
                        },
                        op: op.and_then(reduction_op_of),
                        span_start,
                        via_call: false,
                    });
                }
            }
            ExprKind::Paren(inner) => self.record_write(inner, op, rhs, span_start),
            _ => {}
        }
    }

    /// Record array reads, scalar reads, and helper-call write effects
    /// appearing anywhere in an expression.
    fn collect_reads(&mut self, e: &Expr) {
        let mut array_reads = Vec::new();
        let mut scalar_reads = Vec::new();
        let mut calls = Vec::new();
        walk(Node::Expr(e), &mut |n| {
            let Node::Expr(sub) = n else { return };
            match &sub.kind {
                ExprKind::Index { base, index } => {
                    if let Some(root) = index_root(base) {
                        array_reads.push(ArrayAccess {
                            base: root.to_string(),
                            index: (**index).clone(),
                            span_start: sub.span.start,
                            via_call: false,
                        });
                    }
                }
                ExprKind::Ident(name) => scalar_reads.push(name.clone()),
                ExprKind::Call { callee, args } => {
                    if let ExprKind::Ident(name) = &callee.kind {
                        calls.push((name.as_str(), args.as_slice(), sub.span.start));
                    }
                }
                _ => {}
            }
        });
        self.array_reads.extend(array_reads);
        self.scalar_reads.extend(scalar_reads);
        for (name, args, span) in calls {
            self.apply_call_effects(name, args, span);
        }
    }

    /// Expand a helper call against its interprocedural summary into the
    /// same write facts direct statements produce. Unmappable argument
    /// shapes contribute nothing (no false positives).
    fn apply_call_effects(&mut self, name: &str, args: &[Expr], span_start: u32) {
        if self.protected > 0 || self.serial_section > 0 {
            return;
        }
        let Some(summary) = self.cx.summaries.get(name) else {
            return;
        };
        for pw in summary.writes.clone() {
            let Some(arg) = args.get(pw.param) else {
                continue;
            };
            match pw.effect {
                ParamEffect::Scalar { kind, op } => match &arg.kind {
                    // `helper(&x, ...)`: a write to the local scalar `x`.
                    ExprKind::Unary {
                        op: UnaryOp::AddrOf,
                        expr,
                    } => {
                        if let ExprKind::Ident(var) = &expr.kind {
                            self.scalar_writes.push(ScalarWrite {
                                name: var.clone(),
                                kind,
                                op,
                                span_start,
                                via_call: true,
                            });
                        }
                    }
                    // `helper(p, ...)` with `*param = e` in the callee: a
                    // write through `p` at a loop-invariant location.
                    ExprKind::Ident(ptr) => {
                        self.array_writes.push(ArrayAccess {
                            base: ptr.clone(),
                            index: Expr::int(0),
                            span_start,
                            via_call: true,
                        });
                    }
                    _ => {}
                },
                ParamEffect::Element { index } => {
                    let ExprKind::Ident(base) = &arg.kind else {
                        continue;
                    };
                    let index_expr = match &index {
                        IndexDep::Fixed => Expr::int(0),
                        IndexDep::Params(ps) => {
                            // Proxy index: the first index-argument that
                            // references a parallel loop index (so the
                            // emit() logic sees the dependency), else the
                            // first index-argument.
                            let arg_of = |p: &usize| args.get(*p);
                            let chosen = ps
                                .iter()
                                .filter_map(arg_of)
                                .find(|a| self.loop_indices.iter().any(|ix| expr_references(a, ix)))
                                .or_else(|| ps.iter().filter_map(arg_of).next());
                            match chosen {
                                Some(a) => a.clone(),
                                None => continue,
                            }
                        }
                    };
                    self.array_writes.push(ArrayAccess {
                        base: base.clone(),
                        index: index_expr,
                        span_start,
                        via_call: true,
                    });
                }
            }
        }
    }

    fn is_thread_private(&self, name: &str) -> bool {
        self.loop_indices.contains(name)
            || self.private.contains(name)
            || self.declared.contains(name)
    }

    /// The privatization fix-it for a conflicting shared scalar — only when
    /// liveness proves the variable dead after the region (otherwise the
    /// edit would drop the region's last write). `firstprivate` when the
    /// region also reads the variable and a definition reaches the region.
    fn privatize_fixit(&self, var: &str) -> Option<FixIt> {
        let span = self.directive.span.start;
        if self.cx.df.live_after_region(&self.cx.cfg, span, var) {
            return None;
        }
        let clause = if self.scalar_reads.contains(var)
            && self.cx.df.defined_before_region(&self.cx.cfg, span, var)
        {
            format!("firstprivate({var})")
        } else {
            format!("private({var})")
        };
        self.cx.add_clause_fixit(&self.directive, clause)
    }

    fn emit(mut self) {
        let has_parallel_semantics = self.directive.has(OmpConstruct::Parallel)
            || self.directive.has(OmpConstruct::Teams)
            || self.directive.has(OmpConstruct::For)
            || self.directive.has(OmpConstruct::Distribute);
        if !has_parallel_semantics {
            return;
        }

        // Direct evidence first so it wins the per-(variable, rule) dedup
        // over summary-derived (lower-confidence) facts.
        let mut scalar_writes = std::mem::take(&mut self.scalar_writes);
        scalar_writes.sort_by_key(|w| w.via_call);
        let mut array_writes = std::mem::take(&mut self.array_writes);
        array_writes.sort_by_key(|w| w.via_call);
        let array_reads = std::mem::take(&mut self.array_reads);

        // Scalar writes: raw reductions take precedence over plain
        // conflicting writes so the fix suggestion is actionable.
        let mut reported: HashSet<(String, u8)> = HashSet::new();
        for w in scalar_writes {
            if self.is_thread_private(&w.name) || self.reduction.contains(&w.name) {
                continue;
            }
            let confidence = if w.via_call {
                Confidence::Medium
            } else {
                Confidence::High
            };
            let (rule, message, fixit) = match w.kind {
                WriteKind::SelfUpdate => {
                    let fixit = w.op.and_then(|op| {
                        self.cx.add_clause_fixit(
                            &self.directive,
                            format!("reduction({}: {})", op.symbol(), w.name),
                        )
                    });
                    (
                        Rule::RawReduction,
                        format!(
                            "shared variable '{}' is updated as a raw reduction without a \
                             reduction clause",
                            w.name
                        ),
                        fixit,
                    )
                }
                WriteKind::Plain => (
                    Rule::SharedWriteConflict,
                    format!(
                        "shared variable '{}' is written by every iteration without \
                         privatization or atomics",
                        w.name
                    ),
                    self.privatize_fixit(&w.name),
                ),
            };
            if reported.insert((w.name.clone(), rule.code())) {
                self.cx
                    .report_with(rule, &w.name, w.span_start, message, confidence, fixit);
            }
        }

        // Array writes: conflicting when the index does not involve any
        // parallel loop index; loop-carried when written at `i` and read at
        // `i +/- c`.
        for w in &array_writes {
            if self.is_thread_private(&w.base) {
                continue;
            }
            let confidence = if w.via_call {
                Confidence::Medium
            } else {
                Confidence::High
            };
            let uses_index = self
                .loop_indices
                .iter()
                .any(|ix| expr_references(&w.index, ix));
            if !uses_index {
                if reported.insert((w.base.clone(), Rule::SharedWriteConflict.code())) {
                    self.cx.report_with(
                        Rule::SharedWriteConflict,
                        &w.base,
                        w.span_start,
                        format!(
                            "array '{}' is written at an index that does not depend on \
                             the parallel loop index",
                            w.base
                        ),
                        confidence,
                        None,
                    );
                }
                continue;
            }
            // Loop-carried: write exactly at `i`, read at `i +/- c` (c != 0).
            let Some(write_ix) = plain_index_var(&w.index) else {
                continue;
            };
            if !self.loop_indices.contains(write_ix) {
                continue;
            }
            for r in &array_reads {
                if r.base != w.base {
                    continue;
                }
                if let Some(offset) = shifted_index_offset(&r.index, write_ix) {
                    if offset != 0
                        && reported.insert((w.base.clone(), Rule::LoopCarriedDependency.code()))
                    {
                        self.cx.report_with(
                            Rule::LoopCarriedDependency,
                            &w.base,
                            w.span_start,
                            format!(
                                "array '{}' is written at {write_ix} and read at \
                                 {write_ix}{offset:+}: loop-carried dependency across \
                                 parallel iterations",
                                w.base
                            ),
                            confidence,
                            None,
                        );
                    }
                }
            }
        }
    }
}

/// The operator of a spelled-out self-update `x = x op e` / `x = e op x`.
fn spelled_out_op(rhs: &Expr, name: &str) -> Option<ReductionOp> {
    let ExprKind::Binary { op, lhs, rhs: r } = &rhs.kind else {
        return None;
    };
    let is_self = |e: &Expr| matches!(&e.kind, ExprKind::Ident(n) if n == name);
    if is_self(lhs) || is_self(r) {
        reduction_op_of(*op)
    } else {
        None
    }
}
