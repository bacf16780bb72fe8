//! # minihpc-analyze
//!
//! Static data-race and directive-correctness analysis for MiniHPC parallel
//! regions.
//!
//! The build pipeline (`minihpc-build`) only rejects *syntactically* invalid
//! directives; a `parallel for` that writes a shared scalar with no
//! `reduction`/`atomic`/`private` clause builds and — on small inputs under a
//! sequential interpreter schedule — often even passes its tests. This crate
//! closes that gap: [`analyze_repo`] parses every code file, classifies each
//! variable access inside every parallel region
//! (shared / private / firstprivate / reduction / loop-index), and emits
//! structured [`AnalysisFinding`]s for the rule taxonomy in [`Rule`].
//!
//! ## Architecture (v2)
//!
//! The crate is a small multi-pass dataflow framework:
//!
//! - [`mod@cfg`] builds a per-function control-flow graph with use/def steps
//!   and a [`cfg::RegionMark`] per worksharing region.
//! - [`dataflow`] runs backward liveness and forward reaching definitions
//!   over the CFG; the results gate privatization fix-its (only privatize
//!   what is provably dead after the region).
//! - `callgraph` summarizes which pointer parameters each function
//!   definition writes through, to a bounded fixpoint, so the rules see
//!   races hidden one or more helper calls deep.
//! - `rules` drives the rule set per function and region, expanding call
//!   sites against the summaries.
//! - [`fixit`] and `report` define the finding/fix-it data model and the
//!   deterministic renderings.
//!
//! Findings carry a [`Confidence`] tier (direct evidence vs interprocedural
//! summary) and, when a safe deterministic edit is known, a [`FixIt`] that
//! [`fixit::apply_all`] can apply to the source text — the analyzer-guided
//! repair path in the eval pipeline.
//!
//! The analysis is *pure*: it depends only on repository content, never on
//! execution, which lets the eval pipeline cache findings content-addressed
//! alongside build objects and keep journaled runs byte-identical. It reads
//! the same ASTs the build does: [`analyze_repo_with`] takes the build's
//! unit cache, so the pipeline's parse memo, keyed by each body's content
//! hash, serves both and a file the build already parsed is not parsed
//! again.

mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod fixit;
mod report;
mod rules;
mod visit;

pub use fixit::{FixIt, FixItEdit};
pub use report::{render_findings, render_findings_with_fixits, AnalysisFinding, Confidence, Rule};

use callgraph::Summaries;
use minihpc_build::preprocess;
use minihpc_build::UnitCache;
use minihpc_lang::{FileKind, SourceRepo};
use rules::FnAnalyzer;

/// Analyze every parseable code file of a repository, parsing each fresh.
/// Unparseable files are skipped (the build pipeline owns syntax errors).
/// Findings are returned in a deterministic order:
/// (file, line, rule, variable, message).
pub fn analyze_repo(repo: &SourceRepo) -> Vec<AnalysisFinding> {
    analyze_repo_with(repo, None)
}

/// [`analyze_repo`], obtaining each file's AST through `cache`'s parse
/// memo when there is one — the memo the build assembles through (see
/// [`minihpc_build::preprocess::parse_body`]).
pub fn analyze_repo_with(repo: &SourceRepo, cache: Option<&dyn UnitCache>) -> Vec<AnalysisFinding> {
    // Parse everything once: the same ASTs feed the summary pass and the
    // per-function rules.
    let parsed: Vec<_> = repo
        .iter()
        .filter(|(path, _)| FileKind::of(path).is_code())
        .filter_map(|(path, text)| {
            let file = preprocess::parse_body(repo, path, text, cache).ok()?;
            Some((path, text, file))
        })
        .collect();

    let summaries = Summaries::build(parsed.iter().map(|(_, _, f)| &**f));

    let mut findings = Vec::new();
    for (path, text, file) in &parsed {
        for f in file.functions() {
            if f.body.is_some() {
                FnAnalyzer::analyze(path, text, &summaries, &mut findings, f);
            }
        }
    }
    findings.sort_by(|a, b| {
        (
            a.file.as_str(),
            a.line.unwrap_or(0),
            a.rule.code(),
            a.variable.as_str(),
            a.message.as_str(),
        )
            .cmp(&(
                b.file.as_str(),
                b.line.unwrap_or(0),
                b.rule.code(),
                b.variable.as_str(),
                b.message.as_str(),
            ))
    });
    findings.dedup();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use minihpc_build::ErrorCategory;

    fn analyze_src(src: &str) -> Vec<AnalysisFinding> {
        let repo = SourceRepo::new().with_file("src/main.cpp", src);
        analyze_repo(&repo)
    }

    fn rules(findings: &[AnalysisFinding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn raw_reduction_without_clause_is_flagged() {
        let f = analyze_src(
            "int main() {\n\
             double sum = 0.0;\n\
             #pragma omp parallel for\n\
             for (int i = 0; i < 100; i++) {\n\
             sum += i;\n\
             }\n\
             return 0;\n\
             }\n",
        );
        assert_eq!(rules(&f), vec![Rule::RawReduction], "{f:#?}");
        assert_eq!(f[0].variable, "sum");
        assert_eq!(f[0].line, Some(5));
        assert!(f[0].is_error());
        assert_eq!(f[0].confidence, Confidence::High);
    }

    #[test]
    fn raw_reduction_carries_an_applicable_fixit() {
        let src = "int main() {\n\
                   double sum = 0.0;\n\
                   #pragma omp parallel for\n\
                   for (int i = 0; i < 100; i++) {\n\
                   sum += i;\n\
                   }\n\
                   return 0;\n\
                   }\n";
        let f = analyze_src(src);
        let fx = f[0].fixit.as_ref().expect("reduction fix-it");
        assert_eq!(fx.line, 3);
        assert_eq!(
            fx.edit,
            FixItEdit::AddClause {
                clause: "reduction(+: sum)".to_string()
            }
        );
        let fixed = fx.apply(src).expect("applies");
        assert!(fixed.contains("#pragma omp parallel for reduction(+: sum)"));
        // The fixed source is clean.
        let repo = SourceRepo::new().with_file("src/main.cpp", &*fixed);
        assert!(analyze_repo(&repo).is_empty());
    }

    #[test]
    fn reduction_clause_suppresses_raw_reduction() {
        let f = analyze_src(
            "int main() {\n\
             double sum = 0.0;\n\
             #pragma omp parallel for reduction(+: sum)\n\
             for (int i = 0; i < 100; i++) {\n\
             sum += i;\n\
             }\n\
             return 0;\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn plain_shared_scalar_write_conflicts() {
        let f = analyze_src(
            "int main() {\n\
             int last = 0;\n\
             #pragma omp parallel for\n\
             for (int i = 0; i < 100; i++) {\n\
             last = i;\n\
             }\n\
             return last;\n\
             }\n",
        );
        assert_eq!(rules(&f), vec![Rule::SharedWriteConflict], "{f:#?}");
        // `last` is read after the region: privatizing would change the
        // result, so no fix-it may be offered.
        assert!(f[0].fixit.is_none(), "{f:#?}");
    }

    #[test]
    fn dead_scalar_conflict_gets_a_privatization_fixit() {
        let src = "int main() {\n\
                   int tmp = 0;\n\
                   #pragma omp parallel for\n\
                   for (int i = 0; i < 100; i++) {\n\
                   tmp = i;\n\
                   }\n\
                   return 0;\n\
                   }\n";
        let f = analyze_src(src);
        assert_eq!(rules(&f), vec![Rule::SharedWriteConflict], "{f:#?}");
        let fx = f[0].fixit.as_ref().expect("privatization fix-it");
        assert_eq!(
            fx.edit,
            FixItEdit::AddClause {
                clause: "private(tmp)".to_string()
            }
        );
        let fixed = fx.apply(src).expect("applies");
        let repo = SourceRepo::new().with_file("src/main.cpp", &*fixed);
        assert!(analyze_repo(&repo).is_empty());
    }

    #[test]
    fn read_before_write_dead_scalar_gets_firstprivate() {
        // `scale` is read (initialized before the region) and overwritten
        // per iteration; dead after. firstprivate preserves the initial
        // read, private would not.
        let f = analyze_src(
            "int main() {\n\
             int scale = 3;\n\
             int out = 0;\n\
             #pragma omp parallel for\n\
             for (int i = 0; i < 100; i++) {\n\
             int y = scale * i;\n\
             scale = y - i;\n\
             }\n\
             return out;\n\
             }\n",
        );
        let conflict = f
            .iter()
            .find(|x| x.rule == Rule::SharedWriteConflict && x.variable == "scale")
            .expect("conflict on scale");
        let fx = conflict.fixit.as_ref().expect("fix-it");
        assert_eq!(
            fx.edit,
            FixItEdit::AddClause {
                clause: "firstprivate(scale)".to_string()
            }
        );
    }

    #[test]
    fn region_locals_and_loop_index_are_private() {
        let f = analyze_src(
            "void k(int* out) {\n\
             #pragma omp parallel for collapse(2)\n\
             for (int i = 0; i < 8; i++) {\n\
             for (int j = 0; j < 8; j++) {\n\
             int count = 0;\n\
             count += i + j;\n\
             out[i * 8 + j] = count;\n\
             }\n\
             }\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn private_clause_respected() {
        let f = analyze_src(
            "int main() {\n\
             int tmp = 0;\n\
             #pragma omp parallel for private(tmp)\n\
             for (int i = 0; i < 8; i++) {\n\
             tmp = i;\n\
             }\n\
             return 0;\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn array_write_not_using_loop_index_conflicts() {
        let f = analyze_src(
            "void k(double* out) {\n\
             #pragma omp parallel for\n\
             for (int i = 0; i < 100; i++) {\n\
             out[0] = i;\n\
             }\n\
             }\n",
        );
        assert_eq!(rules(&f), vec![Rule::SharedWriteConflict], "{f:#?}");
        assert_eq!(f[0].variable, "out");
    }

    #[test]
    fn loop_carried_dependency_is_warned() {
        let f = analyze_src(
            "void k(double* a) {\n\
             #pragma omp parallel for\n\
             for (int i = 1; i < 100; i++) {\n\
             a[i] = a[i - 1] + 1.0;\n\
             }\n\
             }\n",
        );
        assert_eq!(rules(&f), vec![Rule::LoopCarriedDependency], "{f:#?}");
        assert!(!f[0].is_error());
    }

    #[test]
    fn atomic_protects_shared_update_and_misuse_is_flagged() {
        let clean = analyze_src(
            "int main() {\n\
             int n = 0;\n\
             #pragma omp parallel for\n\
             for (int i = 0; i < 8; i++) {\n\
             #pragma omp atomic\n\
             n += 1;\n\
             }\n\
             return n;\n\
             }\n",
        );
        assert!(clean.is_empty(), "{clean:#?}");

        let misuse = analyze_src(
            "int main() {\n\
             int n = 0;\n\
             #pragma omp parallel for\n\
             for (int i = 0; i < 8; i++) {\n\
             #pragma omp atomic\n\
             { n += 1; n += 2; }\n\
             }\n\
             return n;\n\
             }\n",
        );
        assert!(rules(&misuse).contains(&Rule::AtomicMisuse), "{misuse:#?}");
    }

    #[test]
    fn critical_protects_shared_update() {
        let f = analyze_src(
            "int main() {\n\
             int n = 0;\n\
             #pragma omp parallel for\n\
             for (int i = 0; i < 8; i++) {\n\
             #pragma omp critical\n\
             { n += 1; }\n\
             }\n\
             return n;\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn barrier_in_worksharing_loop_is_flagged_with_removal_fixit() {
        let src = "void k(double* a) {\n\
                   #pragma omp parallel for\n\
                   for (int i = 0; i < 8; i++) {\n\
                   a[i] = 0.0;\n\
                   #pragma omp barrier\n\
                   }\n\
                   }\n";
        let f = analyze_src(src);
        assert_eq!(rules(&f), vec![Rule::BarrierMisuse], "{f:#?}");
        let fx = f[0].fixit.as_ref().expect("removal fix-it");
        assert_eq!(fx.edit, FixItEdit::RemoveLine);
        let fixed = fx.apply(src).expect("applies");
        assert!(!fixed.contains("barrier"));
        let repo = SourceRepo::new().with_file("src/main.cpp", &*fixed);
        assert!(analyze_repo(&repo).is_empty());
    }

    #[test]
    fn missing_map_on_target_region_is_warned() {
        let f = analyze_src(
            "void k(double* a, double* b) {\n\
             #pragma omp target teams distribute parallel for map(tofrom: a)\n\
             for (int i = 0; i < 8; i++) {\n\
             a[i] = b[i];\n\
             }\n\
             }\n",
        );
        assert_eq!(rules(&f), vec![Rule::MissingMap], "{f:#?}");
        assert_eq!(f[0].variable, "b");
        assert_eq!(f[0].confidence, Confidence::Medium);
        let fx = f[0].fixit.as_ref().expect("map fix-it");
        assert_eq!(
            fx.edit,
            FixItEdit::AddClause {
                clause: "map(tofrom: b)".to_string()
            }
        );
    }

    #[test]
    fn enclosing_target_data_satisfies_map() {
        let f = analyze_src(
            "void k(double* a, double* b) {\n\
             #pragma omp target data map(to: b) map(tofrom: a)\n\
             {\n\
             #pragma omp target teams distribute parallel for\n\
             for (int i = 0; i < 8; i++) {\n\
             a[i] = b[i];\n\
             }\n\
             }\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn map_arity_mismatch_is_flagged() {
        let src = "void k(double* a) {\n\
                   #pragma omp target teams distribute parallel for map(tofrom: a[0:4][0:4])\n\
                   for (int i = 0; i < 4; i++) {\n\
                   a[i] = 1.0;\n\
                   }\n\
                   }\n";
        let f = analyze_src(src);
        let arity = f
            .iter()
            .find(|x| x.rule == Rule::MapArity)
            .expect("map-arity finding");
        let fx = arity.fixit.as_ref().expect("replace-line fix-it");
        let fixed = fx.apply(src).expect("applies");
        // The truncated directive keeps one range and is itself clean.
        assert!(fixed.contains("a[0:4]"), "{fixed}");
        assert!(!fixed.contains("[0:4][0:4]"), "{fixed}");
        let repo = SourceRepo::new().with_file("src/main.cpp", &*fixed);
        assert!(
            analyze_repo(&repo).iter().all(|x| x.rule != Rule::MapArity),
            "{fixed}"
        );
    }

    #[test]
    fn oracle_offload_shape_is_clean() {
        // The shape the oracle transpiler emits: full construct chain,
        // collapse, reduction, and maps for every referenced pointer.
        let f = analyze_src(
            "double lookup(double* g, int i);\n\
             double run(double* grid, int n) {\n\
             double verification = 0.0;\n\
             #pragma omp target teams distribute parallel for \
             reduction(+: verification) map(to: grid) map(tofrom: verification)\n\
             for (int i = 0; i < n; i++) {\n\
             verification += lookup(grid, i);\n\
             }\n\
             return verification;\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn interprocedural_raw_reduction_was_a_v1_false_negative() {
        // A race hidden one call deep: the region calls `accumulate(&sum, x)`
        // and the helper does `*acc += x`. The region itself only reads
        // `sum`; the summary pass catches the write with Medium confidence
        // and the same reduction fix-it.
        let src = "void accumulate(double* acc, double x) { *acc += x; }\n\
                   double run(int n) {\n\
                   double sum = 0.0;\n\
                   #pragma omp parallel for\n\
                   for (int i = 0; i < n; i++) {\n\
                   accumulate(&sum, i * 0.5);\n\
                   }\n\
                   return sum;\n\
                   }\n";
        let v2 = analyze_src(src);
        assert_eq!(rules(&v2), vec![Rule::RawReduction], "{v2:#?}");
        assert_eq!(v2[0].variable, "sum");
        assert_eq!(v2[0].confidence, Confidence::Medium);
        let fx = v2[0].fixit.as_ref().expect("reduction fix-it");
        assert_eq!(
            fx.edit,
            FixItEdit::AddClause {
                clause: "reduction(+: sum)".to_string()
            }
        );
    }

    #[test]
    fn interprocedural_fixed_index_write_is_flagged() {
        let src = "void bump_first(double* a) { a[0] = a[0] + 1.0; }\n\
                   void run(double* data, int n) {\n\
                   #pragma omp parallel for\n\
                   for (int i = 0; i < n; i++) {\n\
                   bump_first(data);\n\
                   }\n\
                   }\n";
        let v2 = analyze_src(src);
        assert_eq!(rules(&v2), vec![Rule::SharedWriteConflict], "{v2:#?}");
        assert_eq!(v2[0].variable, "data");
    }

    #[test]
    fn interprocedural_indexed_write_through_loop_index_is_clean() {
        // The helper writes `a[i]` and the region passes the parallel index
        // through: every iteration touches a distinct element. The summary
        // expansion must not turn this into a false positive.
        let f = analyze_src(
            "void put(double* a, int i, double v) { a[i] = v; }\n\
             void run(double* data, int n) {\n\
             #pragma omp parallel for\n\
             for (int i = 0; i < n; i++) {\n\
             put(data, i, 1.0);\n\
             }\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn interprocedural_atomic_helper_is_clean() {
        let f = analyze_src(
            "void bump(int* n) {\n\
             #pragma omp atomic\n\
             *n += 1;\n\
             }\n\
             int run(int m) {\n\
             int count = 0;\n\
             #pragma omp parallel for\n\
             for (int i = 0; i < m; i++) {\n\
             bump(&count);\n\
             }\n\
             return count;\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn unparseable_files_are_skipped() {
        let repo = SourceRepo::new()
            .with_file("src/bad.cpp", "int main( {{{ this is not minihpc")
            .with_file("src/ok.cpp", "int main() { return 0; }\n");
        assert!(analyze_repo(&repo).is_empty());
    }

    #[test]
    fn findings_are_deterministic_and_sorted() {
        let src = "int main() {\n\
                   int a = 0; int b = 0;\n\
                   #pragma omp parallel for\n\
                   for (int i = 0; i < 8; i++) {\n\
                   b += 1;\n\
                   a += 1;\n\
                   }\n\
                   return a + b;\n\
                   }\n";
        let f1 = analyze_src(src);
        let f2 = analyze_src(src);
        assert_eq!(f1, f2);
        assert_eq!(f1.len(), 2);
        let vars: Vec<_> = f1.iter().map(|f| f.variable.as_str()).collect();
        assert_eq!(vars, vec!["b", "a"], "sorted by line, not name");
    }

    #[test]
    fn rule_codes_roundtrip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_code(r.code()), Some(r));
        }
        assert_eq!(Rule::from_code(200), None);
        for c in [Confidence::Low, Confidence::Medium, Confidence::High] {
            assert_eq!(Confidence::from_code(c.code()), Some(c));
        }
        assert_eq!(Confidence::from_code(9), None);
    }

    #[test]
    fn diagnostic_conversion_and_render() {
        let f = analyze_src(
            "int main() {\n\
             double s = 0.0;\n\
             #pragma omp parallel for\n\
             for (int i = 0; i < 4; i++) { s += i; }\n\
             return 0;\n\
             }\n",
        );
        assert_eq!(f.len(), 1);
        let d = f[0].diagnostic();
        assert_eq!(d.category, ErrorCategory::OmpInvalidDirective);
        assert!(d.is_error());
        assert!(d.message.contains("[raw-reduction]"));
        let rendered = render_findings(&f);
        assert!(rendered.contains("src/main.cpp:4"), "{rendered}");
        assert_eq!(render_findings(&[]), "analyze: clean (no findings)\n");
        let rich = render_findings_with_fixits(&f);
        assert!(
            rich.contains("fix-it (high confidence): add `reduction(+: s)`"),
            "{rich}"
        );
    }
}
