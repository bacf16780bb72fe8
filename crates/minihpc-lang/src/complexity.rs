//! Source-code statistics: source lines of code (SLoC) and cyclomatic
//! complexity (CC), reproducing the `pmccabe`-style numbers of paper Table 1.

use crate::ast::*;
use crate::walk::{walk_stmts, Node};

/// Statistics for one source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FileStats {
    /// Non-blank, non-comment source lines.
    pub sloc: usize,
    /// Sum of per-function cyclomatic complexity (pmccabe's "modified"
    /// count: decision points + 1 per function).
    pub cyclomatic: usize,
    /// Number of function definitions.
    pub functions: usize,
}

impl FileStats {
    pub fn merge(&mut self, other: FileStats) {
        self.sloc += other.sloc;
        self.cyclomatic += other.cyclomatic;
        self.functions += other.functions;
    }
}

/// Count non-blank, non-comment lines in raw source text.
pub fn sloc(text: &str) -> usize {
    let mut count = 0;
    let mut in_block_comment = false;
    for line in text.lines() {
        let mut content = false;
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if in_block_comment {
                if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    in_block_comment = false;
                    i += 2;
                    continue;
                }
                i += 1;
                continue;
            }
            match bytes[i] {
                b' ' | b'\t' | b'\r' => i += 1,
                b'/' if bytes.get(i + 1) == Some(&b'/') => break,
                b'/' if bytes.get(i + 1) == Some(&b'*') => {
                    in_block_comment = true;
                    i += 2;
                }
                _ => {
                    content = true;
                    i += 1;
                }
            }
        }
        if content {
            count += 1;
        }
    }
    count
}

/// Cyclomatic complexity of a single function: 1 + number of decision points
/// (`if`, `for`, `while`, ternary, `&&`, `||`).
pub fn function_complexity(f: &Function) -> usize {
    let mut cc = 1;
    if let Some(body) = &f.body {
        walk_stmts(&body.stmts, &mut |n| cc += usize::from(is_decision(n)));
    }
    cc
}

/// Full statistics for a file, combining text-level SLoC with AST-level CC.
pub fn file_stats(text: &str, file: &SourceFile) -> FileStats {
    let mut stats = FileStats {
        sloc: sloc(text),
        ..FileStats::default()
    };
    for f in file.functions() {
        if f.is_definition() {
            stats.functions += 1;
            stats.cyclomatic += function_complexity(f);
        }
    }
    stats
}

fn is_decision(n: Node) -> bool {
    match n {
        Node::Stmt(s) => matches!(
            s.kind,
            StmtKind::If { .. } | StmtKind::While { .. } | StmtKind::For { .. }
        ),
        Node::Expr(e) => match &e.kind {
            ExprKind::Binary { op, .. } => op.is_logical(),
            ExprKind::Ternary { .. } => true,
            _ => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    #[test]
    fn sloc_ignores_comments_and_blanks() {
        let text = "int x;\n\n// comment only\n/* block\n   comment */\nint y; // trailing\n";
        assert_eq!(sloc(text), 2);
    }

    #[test]
    fn sloc_code_before_block_comment_counts() {
        assert_eq!(sloc("int x; /* c */\n"), 1);
        assert_eq!(sloc("/* c */ int x;\n"), 1);
    }

    #[test]
    fn straight_line_function_has_cc_1() {
        let sf = parse_file("int f() { return 1; }").unwrap();
        assert_eq!(function_complexity(sf.find_function("f").unwrap()), 1);
    }

    #[test]
    fn branches_and_logicals_count() {
        let src = r#"
int f(int i, int j, int n) {
    int count = 0;
    if (i < n && j < n) {
        if (i > 0) count++;
        if (j > 0) count++;
    }
    return (count == 1) ? 1 : 0;
}
"#;
        let sf = parse_file(src).unwrap();
        // 1 (base) + if + && + if + if + ternary = 6
        assert_eq!(function_complexity(sf.find_function("f").unwrap()), 6);
    }

    #[test]
    fn loops_count() {
        let src = "void f(int n) { for (int i = 0; i < n; i++) { while (n > 0) { n--; } } }";
        let sf = parse_file(src).unwrap();
        assert_eq!(function_complexity(sf.find_function("f").unwrap()), 3);
    }

    #[test]
    fn file_stats_sums_functions() {
        let src = "int a() { return 1; }\nint b(int x) { if (x) return 1; return 0; }\n";
        let sf = parse_file(src).unwrap();
        let stats = file_stats(src, &sf);
        assert_eq!(stats.functions, 2);
        assert_eq!(stats.cyclomatic, 1 + 2);
        assert_eq!(stats.sloc, 2);
    }

    #[test]
    fn omp_body_counted() {
        let src = r#"
void f(int* a, int n) {
    #pragma omp parallel for
    for (int i = 0; i < n; i++) { if (a[i] > 0) a[i] = 0; }
}
"#;
        let sf = parse_file(src).unwrap();
        assert_eq!(function_complexity(sf.find_function("f").unwrap()), 3);
    }
}
