//! Per-function control-flow graphs over the parsed AST.
//!
//! The CFG is the substrate the dataflow passes (liveness, reaching
//! definitions — see [`crate::dataflow`]) run on. It tracks *scalar*
//! variables only, at statement granularity: each basic block holds a list
//! of [`Step`]s with use/def sets over interned variable ids, and every
//! worksharing OpenMP region is condensed into a single conservative step
//! plus a [`RegionMark`] recording the program points around it — exactly
//! what the fix-it synthesizer needs to answer "is this variable live
//! after the region?" and "does any definition reach the region entry?".
//!
//! Conservatism is directional: a variable the CFG cannot track precisely
//! must come out *live* (suppressing a privatization fix-it) rather than
//! dead (emitting one that changes semantics). Region steps therefore use
//! every identifier they mention and kill nothing.

use std::collections::HashMap;

use minihpc_lang::ast::{Block, Expr, ExprKind, Function, Stmt, StmtKind, UnaryOp};
use minihpc_lang::pragma::{OmpConstruct, OmpDirective};
use minihpc_lang::walk::{walk, Node};

/// Interned scalar variable names (ids are indices).
#[derive(Debug, Default)]
pub struct VarTable {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl VarTable {
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    pub fn get(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// One program step: the variables it reads and the variables it
/// (re)defines, in evaluation order within the step.
#[derive(Debug, Default)]
pub struct Step {
    pub uses: Vec<u32>,
    pub defs: Vec<u32>,
}

#[derive(Debug, Default)]
pub struct BasicBlock {
    pub steps: Vec<Step>,
    pub succs: Vec<usize>,
}

/// The program points around one worksharing OpenMP region: the block and
/// step index of its condensed step, and the empty block that immediately
/// follows it (whose live-in set is "live after the region").
#[derive(Debug)]
pub struct RegionMark {
    /// `span.start` of the region's directive — the key the rules use.
    pub span_start: u32,
    /// Block containing the region's condensed step.
    pub block: usize,
    /// Index of the condensed step within [`RegionMark::block`].
    pub step: usize,
    /// The empty successor block entered right after the region completes.
    pub after: usize,
}

#[derive(Debug)]
pub struct Cfg {
    pub blocks: Vec<BasicBlock>,
    pub vars: VarTable,
    pub regions: Vec<RegionMark>,
    /// Entry block (holds the parameter-definition step).
    pub entry: usize,
}

impl Cfg {
    pub fn region(&self, span_start: u32) -> Option<&RegionMark> {
        self.regions.iter().find(|r| r.span_start == span_start)
    }
}

/// Build the CFG of one function definition. Declaration-only functions
/// yield an empty graph.
pub fn build_fn_cfg(f: &Function) -> Cfg {
    let mut b = Builder {
        cfg: Cfg {
            blocks: vec![BasicBlock::default()],
            vars: VarTable::default(),
            regions: Vec::new(),
            entry: 0,
        },
        current: 0,
        loops: Vec::new(),
    };
    // Parameters are defined at entry (reaching defs: a parameter counts
    // as "defined before" every region).
    let mut entry_step = Step::default();
    for p in &f.params {
        let id = b.cfg.vars.intern(&p.name);
        entry_step.defs.push(id);
    }
    b.cfg.blocks[0].steps.push(entry_step);
    if let Some(body) = &f.body {
        b.walk_block(body);
    }
    b.cfg
}

struct Builder {
    cfg: Cfg,
    current: usize,
    /// (continue target, break target) per enclosing loop.
    loops: Vec<(usize, usize)>,
}

impl Builder {
    fn new_block(&mut self) -> usize {
        self.cfg.blocks.push(BasicBlock::default());
        self.cfg.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.cfg.blocks[from].succs.contains(&to) {
            self.cfg.blocks[from].succs.push(to);
        }
    }

    fn push_step(&mut self, step: Step) {
        self.cfg.blocks[self.current].steps.push(step);
    }

    fn walk_block(&mut self, b: &Block) {
        for s in &b.stmts {
            self.walk_stmt(s);
        }
    }

    /// A step using every identifier of `e` and defining nothing — the
    /// conservative shape for conditions and opaque statements.
    fn use_step(&mut self, e: &Expr) -> Step {
        let mut step = Step::default();
        collect_uses(Node::Expr(e), &mut self.cfg.vars, &mut step.uses);
        step
    }

    fn walk_stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Decl(d) => {
                // Array dimensions, then the initializer.
                let mut step = Step::default();
                collect_uses(Node::Stmt(s), &mut self.cfg.vars, &mut step.uses);
                let id = self.cfg.vars.intern(&d.name);
                step.defs.push(id);
                self.push_step(step);
            }
            StmtKind::Expr(e) => {
                let step = expr_step(e, &mut self.cfg.vars);
                self.push_step(step);
            }
            StmtKind::If { cond, then, els } => {
                let step = self.use_step(cond);
                self.push_step(step);
                let head = self.current;
                let then_b = self.new_block();
                let join = self.new_block();
                self.edge(head, then_b);
                self.current = then_b;
                self.walk_stmt(then);
                let then_end = self.current;
                self.edge(then_end, join);
                match els {
                    Some(e) => {
                        let els_b = self.new_block();
                        self.edge(head, els_b);
                        self.current = els_b;
                        self.walk_stmt(e);
                        let els_end = self.current;
                        self.edge(els_end, join);
                    }
                    None => self.edge(head, join),
                }
                self.current = join;
            }
            StmtKind::While { cond, body } => {
                let header = self.new_block();
                let body_b = self.new_block();
                let exit = self.new_block();
                self.edge(self.current, header);
                self.current = header;
                let step = self.use_step(cond);
                self.push_step(step);
                self.edge(header, body_b);
                self.edge(header, exit);
                self.loops.push((header, exit));
                self.current = body_b;
                self.walk_stmt(body);
                let body_end = self.current;
                self.edge(body_end, header);
                self.loops.pop();
                self.current = exit;
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.walk_stmt(i);
                }
                let header = self.new_block();
                let body_b = self.new_block();
                let latch = self.new_block();
                let exit = self.new_block();
                self.edge(self.current, header);
                self.current = header;
                if let Some(c) = cond {
                    let s = self.use_step(c);
                    self.push_step(s);
                }
                self.edge(header, body_b);
                self.edge(header, exit);
                self.loops.push((latch, exit));
                self.current = body_b;
                self.walk_stmt(body);
                let body_end = self.current;
                self.edge(body_end, latch);
                self.current = latch;
                if let Some(st) = step {
                    let s = expr_step(st, &mut self.cfg.vars);
                    self.push_step(s);
                }
                self.edge(latch, header);
                self.loops.pop();
                self.current = exit;
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    let step = self.use_step(e);
                    self.push_step(step);
                }
                // No successor: nothing after a return is reached from it,
                // so region-liveness queries see returns precisely. The
                // builder continues into a fresh unreachable block.
                self.current = self.new_block();
            }
            StmtKind::Break => {
                if let Some(&(_, exit)) = self.loops.last() {
                    let cur = self.current;
                    self.edge(cur, exit);
                }
                self.current = self.new_block();
            }
            StmtKind::Continue => {
                if let Some(&(latch, _)) = self.loops.last() {
                    let cur = self.current;
                    self.edge(cur, latch);
                }
                self.current = self.new_block();
            }
            StmtKind::Block(b) => self.walk_block(b),
            StmtKind::Omp { directive, body } => self.walk_omp(directive, body.as_deref()),
            StmtKind::RawPragma(_) | StmtKind::Empty => {}
        }
    }

    fn walk_omp(&mut self, d: &OmpDirective, body: Option<&Stmt>) {
        let Some(body) = body else { return };
        let worksharing = d.has(OmpConstruct::Parallel)
            || d.has(OmpConstruct::Teams)
            || d.has(OmpConstruct::For)
            || d.has(OmpConstruct::Distribute);
        if !worksharing {
            // `target data` / `critical` / `single` / sequential `target`:
            // control flow passes straight through.
            self.walk_stmt(body);
            return;
        }
        // Condense the whole region into one conservative step: every
        // identifier it mentions is a use, nothing is killed. The rules
        // analyze the region's interior themselves; the CFG only needs the
        // surrounding program points to be right.
        let mut step = Step::default();
        collect_uses(Node::Stmt(body), &mut self.cfg.vars, &mut step.uses);
        let block = self.current;
        let step_idx = self.cfg.blocks[block].steps.len();
        self.cfg.blocks[block].steps.push(step);
        let after = self.new_block();
        self.edge(block, after);
        self.current = after;
        self.cfg.regions.push(RegionMark {
            span_start: d.span.start,
            block,
            step: step_idx,
            after,
        });
    }
}

/// Use/def extraction for one expression statement. Top-level scalar
/// assignments define their target; everything else (array stores, deref
/// stores, member stores, compound updates) both uses and defines
/// conservatively.
fn expr_step(e: &Expr, vars: &mut VarTable) -> Step {
    let mut step = Step::default();
    match &e.kind {
        ExprKind::Assign { op, lhs, rhs } => {
            collect_uses(Node::Expr(rhs), vars, &mut step.uses);
            match &lhs.kind {
                ExprKind::Ident(name) => {
                    let id = vars.intern(name);
                    if op.is_some() {
                        step.uses.push(id);
                    }
                    step.defs.push(id);
                }
                _ => {
                    // Array/deref/member store: the base is read (address
                    // computation) and the scalar itself is not killed.
                    collect_uses(Node::Expr(lhs), vars, &mut step.uses);
                }
            }
        }
        ExprKind::Unary {
            op: UnaryOp::PreInc | UnaryOp::PreDec | UnaryOp::PostInc | UnaryOp::PostDec,
            expr,
        } => {
            collect_uses(Node::Expr(expr), vars, &mut step.uses);
            if let ExprKind::Ident(name) = &expr.kind {
                let id = vars.intern(name);
                step.defs.push(id);
            }
        }
        ExprKind::Paren(inner) => return expr_step(inner, vars),
        _ => collect_uses(Node::Expr(e), vars, &mut step.uses),
    }
    step
}

/// Intern every identifier under `node` and add it to `out` once, in walk
/// order.
fn collect_uses(node: Node, vars: &mut VarTable, out: &mut Vec<u32>) {
    walk(node, &mut |n| {
        if let Node::Expr(Expr {
            kind: ExprKind::Ident(name),
            ..
        }) = n
        {
            let id = vars.intern(name);
            if !out.contains(&id) {
                out.push(id);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use minihpc_lang::parse_file;

    fn cfg_of(src: &str) -> Cfg {
        let file = parse_file(src).expect("parse");
        let f = file
            .functions()
            .find(|f| f.body.is_some())
            .expect("a definition");
        build_fn_cfg(f)
    }

    #[test]
    fn straight_line_single_block() {
        let cfg = cfg_of("int main() { int a = 1; int b = a + 2; return b; }\n");
        assert!(cfg.regions.is_empty());
        assert!(cfg.vars.get("a").is_some());
        assert!(cfg.vars.get("b").is_some());
        // Entry block carries the decls; the return splits off one
        // unreachable continuation block.
        assert!(cfg.blocks[cfg.entry].steps.len() >= 3);
    }

    #[test]
    fn region_gets_a_mark_with_an_after_block() {
        let cfg = cfg_of(
            "int main() {\n\
             double s = 0.0;\n\
             #pragma omp parallel for\n\
             for (int i = 0; i < 4; i++) { s += i; }\n\
             return 0;\n\
             }\n",
        );
        assert_eq!(cfg.regions.len(), 1);
        let mark = &cfg.regions[0];
        assert!(cfg.blocks[mark.block].succs.contains(&mark.after));
        let s = cfg.vars.get("s").expect("s interned");
        assert!(cfg.blocks[mark.block].steps[mark.step].uses.contains(&s));
    }

    #[test]
    fn loops_have_back_edges() {
        let cfg = cfg_of("int main() { int n = 0; while (n < 3) { n++; } return n; }\n");
        let has_cycle = cfg
            .blocks
            .iter()
            .enumerate()
            .any(|(i, b)| b.succs.iter().any(|&s| s <= i));
        assert!(has_cycle, "while loop must produce a back edge");
    }
}
