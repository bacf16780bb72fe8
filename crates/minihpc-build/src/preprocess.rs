//! Translation-unit assembly: resolves `#include` directives against the
//! repository and the simulated system header set, producing the include
//! closure of one compiled source as shared per-file ASTs.
//!
//! Missing headers are the paper's "Missing Header File" category — in the
//! paper this is a dominant failure for XSBench, whose many cross-file
//! includes LLMs frequently break.

use crate::diag::{Diagnostic, ErrorCategory};
use crate::toolchain::CompileFeatures;
use crate::unit::UnitCache;
use minihpc_lang::ast::{Item, ItemKind, SourceFile};
use minihpc_lang::memo::OnceMap;
use minihpc_lang::parser::{self, ParseError};
use minihpc_lang::repo::SourceRepo;
use minihpc_lang::span;
use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

/// System headers that always exist (libc/libm and friends).
const ALWAYS_HEADERS: [&str; 12] = [
    "stdio.h",
    "stdlib.h",
    "string.h",
    "math.h",
    "assert.h",
    "stdbool.h",
    "stddef.h",
    "stdint.h",
    "time.h",
    "float.h",
    "limits.h",
    "omp.h",
];

/// Headers available only with certain toolchain features.
fn header_available(path: &str, features: &CompileFeatures) -> bool {
    if ALWAYS_HEADERS.contains(&path) {
        return true;
    }
    match path {
        "cuda_runtime.h" | "cuda.h" => features.cuda,
        "curand_kernel.h" | "curand.h" => features.cuda && features.curand,
        "Kokkos_Core.hpp" | "Kokkos_Random.hpp" => features.kokkos,
        _ => false,
    }
}

/// The result of assembling a translation unit: its include closure as
/// shared per-file ASTs. Nothing is copied out of them; [`items`] splices
/// their items on the fly.
///
/// [`items`]: TranslationUnit::items
#[derive(Debug, Clone)]
pub struct TranslationUnit {
    /// Paths of all repository files that went into this unit, in splice
    /// order (each file at most once).
    pub files: Vec<String>,
    /// The merged item order: runs of one file's items between its include
    /// directives, each with that file's AST.
    runs: Vec<(Arc<SourceFile>, Range<usize>)>,
}

impl TranslationUnit {
    /// The merged unit: the items of all transitively included local
    /// headers spliced in include order, include directives dropped.
    pub fn items(&self) -> impl Iterator<Item = &Item> {
        self.runs
            .iter()
            .flat_map(|(ast, run)| &ast.items[run.clone()])
    }
}

/// The outcome of parsing one file — what [`UnitCache::parse_file`]
/// returns, letting a cache memoize parses by file content and share each
/// AST by pointer.
pub type ParsedFile = Result<Arc<SourceFile>, ParseError>;

/// Parse `text` fresh, unmemoized.
pub fn parse(text: &str) -> ParsedFile {
    parser::parse_file(text).map(Arc::new)
}

/// Parse `text`, `repo`'s body at `path`: through `cache`'s memo, keyed by
/// the body's kept content hash ([`SourceRepo::hash_of`]), when there is
/// a cache, and fresh otherwise.
pub fn parse_body(
    repo: &SourceRepo,
    path: &str,
    text: &str,
    cache: Option<&dyn UnitCache>,
) -> ParsedFile {
    match cache {
        Some(cache) => cache.parse_hashed(repo.hash_of(path, text), text),
        None => parse(text),
    }
}

/// Where one build gets its ASTs: through the unit cache's memo when the
/// build has a cache (see [`parse_body`]), and otherwise through a memo of
/// its own, so a header that several units include is parsed once per
/// build. Both memos key a body by its content hash. The build's own memo
/// lives as long as this value, one build, so no AST outlives the build.
pub(crate) struct Parses<'a> {
    cache: Option<&'a dyn UnitCache>,
    build: OnceMap<u128, ParsedFile>,
}

impl<'a> Parses<'a> {
    pub(crate) fn new(cache: Option<&'a dyn UnitCache>) -> Self {
        Parses {
            cache,
            build: OnceMap::default(),
        }
    }

    /// The unit cache the build compiles through, if any.
    pub(crate) fn cache(&self) -> Option<&'a dyn UnitCache> {
        self.cache
    }

    /// Parse `text`, `repo`'s body at `path`, through the build's memo.
    fn parse(&self, repo: &SourceRepo, path: &str, text: &str) -> ParsedFile {
        let hash = repo.hash_of(path, text);
        match self.cache {
            Some(cache) => cache.parse_hashed(hash, text),
            None => self.build.get_or_init(hash, || parse(text)),
        }
    }

    /// Files the build's own memo has parsed; 0 with a cache.
    #[cfg(test)]
    pub(crate) fn own_parses(&self) -> usize {
        self.build.derivations()
    }
}

/// Assemble the translation unit rooted at `main_path`, as a build without
/// a cache would.
pub fn assemble(
    repo: &SourceRepo,
    main_path: &str,
    features: &CompileFeatures,
) -> Result<TranslationUnit, Vec<Diagnostic>> {
    assemble_with(repo, main_path, features, &Parses::new(None))
}

/// Assemble the translation unit rooted at `main_path`, obtaining each
/// file's AST through `parses`, so a header shared by many units (or, with
/// a cache, unchanged across re-evaluations) is parsed once.
pub(crate) fn assemble_with(
    repo: &SourceRepo,
    main_path: &str,
    features: &CompileFeatures,
    parses: &Parses<'_>,
) -> Result<TranslationUnit, Vec<Diagnostic>> {
    let mut tu = TranslationUnit {
        files: Vec::new(),
        runs: Vec::new(),
    };
    let mut included: HashSet<String> = HashSet::new();
    let mut diags = Vec::new();
    expand_file(
        repo,
        main_path,
        features,
        parses,
        &mut included,
        &mut tu,
        &mut diags,
    );
    if diags.iter().any(Diagnostic::is_error) {
        return Err(diags);
    }
    Ok(tu)
}

fn expand_file(
    repo: &SourceRepo,
    path: &str,
    features: &CompileFeatures,
    parses: &Parses<'_>,
    included: &mut HashSet<String>,
    tu: &mut TranslationUnit,
    diags: &mut Vec<Diagnostic>,
) {
    if !included.insert(path.to_string()) {
        return; // include guard: each file spliced once
    }
    let Some(text) = repo.get(path) else {
        diags.push(Diagnostic::error(
            ErrorCategory::MissingFile,
            path,
            format!("no such file or directory: '{path}'"),
        ));
        return;
    };
    tu.files.push(path.to_string());
    let parsed = match parses.parse(repo, path, text) {
        Ok(p) => p,
        Err(e) => {
            let line = span::line_col(text, e.span.start).line;
            let category = if e.in_omp_directive {
                ErrorCategory::OmpInvalidDirective
            } else {
                ErrorCategory::CodeSyntax
            };
            diags.push(Diagnostic::error(category, path, e.message).at_line(line));
            return;
        }
    };
    let mut start = 0;
    for (i, item) in parsed.items.iter().enumerate() {
        let ItemKind::Include { path: inc, system } = &item.kind else {
            continue;
        };
        if start < i {
            tu.runs.push((Arc::clone(&parsed), start..i));
        }
        start = i + 1;
        let found = if *system {
            // Available system headers contribute builtins via sema, not items.
            header_available(inc, features)
        } else if let Some(resolved) = repo.resolve_include(path, inc) {
            expand_file(repo, resolved, features, parses, included, tu, diags);
            true
        } else {
            false
        };
        if !found {
            let line = span::line_col(text, item.span.start).line;
            diags.push(
                Diagnostic::error(
                    ErrorCategory::MissingHeader,
                    path,
                    format!("'{inc}' file not found"),
                )
                .at_line(line),
            );
        }
    }
    if start < parsed.items.len() {
        let end = parsed.items.len();
        tu.runs.push((parsed, start..end));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features_cuda() -> CompileFeatures {
        CompileFeatures {
            cuda: true,
            curand: true,
            ..CompileFeatures::default()
        }
    }

    #[test]
    fn local_include_spliced() {
        let repo = SourceRepo::new()
            .with_file("src/kernel.h", "void k(int* a, int n);\n")
            .with_file(
                "src/main.cpp",
                "#include \"kernel.h\"\nint main() { return 0; }\n",
            );
        let tu = assemble(&repo, "src/main.cpp", &CompileFeatures::default()).unwrap();
        assert_eq!(tu.files, vec!["src/main.cpp", "src/kernel.h"]);
        assert_eq!(function_names(&tu), vec!["k", "main"]);
    }

    fn function_names(tu: &TranslationUnit) -> Vec<&str> {
        tu.items()
            .filter_map(|i| match &i.kind {
                ItemKind::Function(f) => Some(f.name.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn items_splice_at_each_include_and_share_the_parsed_asts() {
        let repo = SourceRepo::new()
            .with_file("a.h", "int in_a(void);\n")
            .with_file(
                "main.cpp",
                "int before(void);\n#include \"a.h\"\nint after(void);\n",
            );
        /// Serves one memoized AST for `a.h`'s body, by its content hash.
        struct Memo(u128, Arc<SourceFile>);
        impl UnitCache for Memo {
            fn parse_file(&self, text: &str) -> ParsedFile {
                parse(text)
            }
            fn parse_hashed(&self, hash: u128, text: &str) -> ParsedFile {
                if hash == self.0 {
                    Ok(Arc::clone(&self.1))
                } else {
                    parse(text)
                }
            }
            fn lookup_unit(&self, _: u128) -> Option<crate::unit::CompiledUnit> {
                None
            }
            fn store_unit(&self, _: u128, _: &crate::unit::CompiledUnit) {}
        }
        let memo = Memo(
            repo.body_hash("a.h").unwrap(),
            parse("int in_a(void);\n").unwrap(),
        );
        let features = CompileFeatures::default();
        let tu = assemble_with(&repo, "main.cpp", &features, &Parses::new(Some(&memo))).unwrap();
        assert_eq!(function_names(&tu), vec!["before", "in_a", "after"]);
        assert!(
            std::ptr::eq(tu.items().nth(1).unwrap(), &memo.1.items[0]),
            "the unit must read the memo's AST in place, not a copy"
        );
    }

    #[test]
    fn missing_local_header_reported() {
        let repo = SourceRepo::new().with_file(
            "main.cpp",
            "#include \"nonexistent.h\"\nint main() { return 0; }\n",
        );
        let errs = assemble(&repo, "main.cpp", &CompileFeatures::default()).unwrap_err();
        assert_eq!(errs[0].category, ErrorCategory::MissingHeader);
        assert_eq!(errs[0].line, Some(1));
    }

    #[test]
    fn cuda_header_requires_cuda_feature() {
        let repo = SourceRepo::new().with_file(
            "main.cpp",
            "#include <cuda_runtime.h>\nint main() { return 0; }\n",
        );
        let errs = assemble(&repo, "main.cpp", &CompileFeatures::default()).unwrap_err();
        assert_eq!(errs[0].category, ErrorCategory::MissingHeader);
        assert!(assemble(&repo, "main.cpp", &features_cuda()).is_ok());
    }

    #[test]
    fn kokkos_header_requires_kokkos_feature() {
        let repo = SourceRepo::new().with_file(
            "main.cpp",
            "#include <Kokkos_Core.hpp>\nint main() { return 0; }\n",
        );
        assert!(assemble(&repo, "main.cpp", &CompileFeatures::default()).is_err());
        let f = CompileFeatures {
            kokkos: true,
            ..CompileFeatures::default()
        };
        assert!(assemble(&repo, "main.cpp", &f).is_ok());
    }

    #[test]
    fn include_guard_behaviour() {
        // Two files both include the same header: each TU includes it once.
        let repo = SourceRepo::new()
            .with_file("a.h", "int shared(void);\n")
            .with_file(
                "main.cpp",
                "#include \"a.h\"\n#include \"b.h\"\nint main() { return 0; }\n",
            )
            .with_file("b.h", "#include \"a.h\"\nint other(void);\n");
        let tu = assemble(&repo, "main.cpp", &CompileFeatures::default()).unwrap();
        assert_eq!(function_names(&tu), vec!["shared", "other", "main"]);
    }

    #[test]
    fn syntax_error_in_header_attributed_to_header() {
        let repo = SourceRepo::new()
            .with_file("bad.h", "int broken( { ;\n")
            .with_file("main.cpp", "#include \"bad.h\"\nint main() { return 0; }\n");
        let errs = assemble(&repo, "main.cpp", &CompileFeatures::default()).unwrap_err();
        assert_eq!(errs[0].category, ErrorCategory::CodeSyntax);
        assert_eq!(errs[0].file, "bad.h");
    }

    #[test]
    fn missing_main_file() {
        let repo = SourceRepo::new();
        let errs = assemble(&repo, "ghost.cpp", &CompileFeatures::default()).unwrap_err();
        assert_eq!(errs[0].category, ErrorCategory::MissingFile);
    }
}
