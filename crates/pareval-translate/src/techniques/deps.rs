//! The dependency agent (paper Sec. 3.2): determines a translation order for
//! the repository's files from `#include` relationships, translating files
//! with no dependencies first. MiniHPC's structured include tokens play the
//! role of clang's dependency analysis; circular includes cannot occur.

use minihpc_lang::fnv::Fnv128;
use minihpc_lang::parser;
use minihpc_lang::repo::{FileKind, SourceRepo};
use std::collections::BTreeMap;

/// Topological order: dependencies (included headers) before dependents,
/// build files last, with deterministic (path-ordered) tie-breaking.
///
/// A pure function of `repo`'s files, so it is memoised on `repo` (one
/// include scan per repository, counted there as a cold derivation of a
/// `Vec<String>`); any mutation of `repo` drops the memo.
pub fn dependency_order(repo: &SourceRepo) -> Vec<String> {
    // The order has no input besides the repository: its key hashes none.
    repo.memoized(Fnv128::new().finish(), || dependency_order_cold(repo))
}

fn dependency_order_cold(repo: &SourceRepo) -> Vec<String> {
    // Edges: file → its resolved local includes.
    let mut deps: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut code_files: Vec<String> = Vec::new();
    for (path, text) in repo.iter() {
        if !FileKind::of(path).is_code() {
            continue;
        }
        code_files.push(path.to_string());
        let includes = match parser::parse_file(text) {
            Ok(file) => file
                .local_includes()
                .iter()
                .filter_map(|inc| repo.resolve_include(path, inc))
                .map(str::to_string)
                .collect(),
            // "For non-C/C++ files or C/C++ files where clang fails, we use
            // an LLM to analyze the file contents": the deterministic
            // fallback scans for include-like lines textually.
            Err(_) => scan_includes_textually(repo, path, text),
        };
        deps.insert(path.to_string(), includes);
    }

    let mut order: Vec<String> = Vec::new();
    let mut done: BTreeMap<&str, bool> = BTreeMap::new();
    // Kahn-ish: repeatedly take the first file whose deps are all done.
    while order.len() < code_files.len() {
        let mut progressed = false;
        for f in &code_files {
            if done.get(f.as_str()).copied().unwrap_or(false) {
                continue;
            }
            let ready = deps[f]
                .iter()
                .all(|d| done.get(d.as_str()).copied().unwrap_or(false) || !deps.contains_key(d));
            if ready {
                done.insert(f, true);
                order.push(f.clone());
                progressed = true;
            }
        }
        if !progressed {
            // Defensive: a cycle (impossible with include guards) — append
            // the remainder in path order.
            for f in &code_files {
                if !done.get(f.as_str()).copied().unwrap_or(false) {
                    order.push(f.clone());
                }
            }
            break;
        }
    }
    // Build files last (they need the translated source list).
    for (path, _) in repo.iter() {
        if FileKind::of(path).is_build_file() {
            order.push(path.to_string());
        }
    }
    order
}

fn scan_includes_textually(repo: &SourceRepo, path: &str, text: &str) -> Vec<String> {
    text.lines()
        .filter_map(|l| {
            let l = l.trim();
            let rest = l.strip_prefix("#include")?.trim();
            let inner = rest.strip_prefix('"')?.split('"').next()?;
            repo.resolve_include(path, inner).map(str::to_string)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_chain() {
        let repo = SourceRepo::new()
            .with_file("Makefile", "app: a.cpp\n\tg++ -o app a.cpp\n")
            .with_file("a.cpp", "#include \"b.h\"\nint main() { return 0; }\n")
            .with_file("b.h", "#include \"c.h\"\nvoid b(void);\n")
            .with_file("c.h", "void c(void);\n");
        let order = dependency_order(&repo);
        let pos = |p: &str| order.iter().position(|x| x == p).unwrap();
        assert!(pos("c.h") < pos("b.h"));
        assert!(pos("b.h") < pos("a.cpp"));
        assert_eq!(order.last().unwrap(), "Makefile");
    }

    #[test]
    fn unparseable_file_falls_back_to_text_scan() {
        let repo = SourceRepo::new()
            .with_file("broken.cpp", "#include \"util.h\"\nint main( {{{\n")
            .with_file("util.h", "void u(void);\n");
        let order = dependency_order(&repo);
        let pos = |p: &str| order.iter().position(|x| x == p).unwrap();
        assert!(pos("util.h") < pos("broken.cpp"));
    }

    #[test]
    fn an_added_include_reorders() {
        let mut repo = SourceRepo::new()
            .with_file("a.h", "void a(void);\n")
            .with_file("b.h", "void b(void);\n");
        assert_eq!(dependency_order(&repo), vec!["a.h", "b.h"]);
        repo.add("a.h", "#include \"b.h\"\nvoid a(void);\n");
        assert_eq!(dependency_order(&repo), vec!["b.h", "a.h"]);
        assert_eq!(repo.cold_derivations::<Vec<String>>(), 1);
    }

    #[test]
    fn independent_files_in_path_order() {
        let repo = SourceRepo::new()
            .with_file("z.cpp", "int z() { return 0; }\n")
            .with_file("a.cpp", "int a() { return 0; }\n");
        let order = dependency_order(&repo);
        assert_eq!(order, vec!["a.cpp", "z.cpp"]);
    }
}
