//! The linker: merges object files into an [`Executable`], reporting the
//! paper's "Linker Error" category for undefined references, duplicate
//! definitions, and a missing `main`. A linked program carries a content
//! key built from its objects' unit keys, so a harness can run each
//! distinct program once. Each piece of merged content is named by its
//! class: the smallest unit key among the linked objects that carry equal
//! content. So objects that carry a header's globals or struct definitions
//! alike link to one key in any order.

use crate::diag::{Diagnostic, ErrorCategory};
use crate::object::{Executable, ObjectCode};
use crate::toolchain::{CompileFeatures, CompilerKind};
use crate::unit::features_bits;
use minihpc_lang::ast::StructDef;
use minihpc_lang::fnv::Fnv128;
use minihpc_lang::model::ModelUsage;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Bumped whenever the executable key's inputs or their encoding change.
const EXE_KEY_SALT: &str = "minihpc-exe-v2";

/// Link objects into an executable named `output`.
///
/// `compiler` is the driver doing the link (nvcc bundles libm and the CUDA
/// runtime; gcc/clang need `-lm` for math usage, which is the classic
/// missing-flag linker failure).
pub fn link<B: Borrow<ObjectCode>>(
    objects: &[B],
    output: &str,
    compiler: CompilerKind,
    link_features: &CompileFeatures,
) -> Result<Executable, Vec<Diagnostic>> {
    let mut diags = Vec::new();
    let mut functions = BTreeMap::new();
    let mut structs = BTreeMap::new();
    let mut globals = Vec::new();
    let mut features = *link_features;
    let mut usage = ModelUsage::default();
    let mut uses_libm = false;

    for obj in objects {
        let obj = obj.borrow();
        for (name, f) in &obj.functions {
            if f.quals.is_static {
                // Internal linkage: visible only within its own unit; the
                // runtime resolves calls within the merged table, so a
                // static name collision is still reported (a MiniHPC
                // simplification documented in DESIGN.md).
            }
            if functions.insert(name.clone(), Arc::clone(f)).is_some() {
                diags.push(Diagnostic::error(
                    ErrorCategory::LinkerError,
                    output,
                    format!("multiple definition of `{name}'"),
                ));
            }
        }
        for (name, s) in &obj.structs {
            structs.entry(name.clone()).or_insert_with(|| s.clone());
        }
        globals.extend(obj.globals.iter().cloned());
        features.cuda |= obj.features.cuda;
        features.openmp |= obj.features.openmp;
        features.offload |= obj.features.offload;
        features.kokkos |= obj.features.kokkos;
        features.curand |= obj.features.curand;
        features.libm |= obj.features.libm;
        usage.merge(&obj.usage);
        uses_libm |= obj.uses_libm;
    }

    // Resolve undefined symbols across units.
    for obj in objects {
        let obj = obj.borrow();
        for sym in &obj.undefined {
            if !functions.contains_key(sym) {
                diags.push(Diagnostic::error(
                    ErrorCategory::LinkerError,
                    output,
                    format!("{}: undefined reference to `{sym}'", obj.name),
                ));
            }
        }
    }

    if uses_libm && !features.libm && compiler != CompilerKind::Nvcc {
        diags.push(Diagnostic::error(
            ErrorCategory::LinkerError,
            output,
            "undefined reference to `sqrt' (math functions require -lm)",
        ));
    }

    if !functions.contains_key("main") {
        diags.push(Diagnostic::error(
            ErrorCategory::LinkerError,
            output,
            "in function `_start': undefined reference to `main'",
        ));
    }

    if diags.iter().any(Diagnostic::is_error) {
        return Err(diags);
    }
    Ok(Executable {
        name: output.to_string(),
        key: executable_key(objects, output, &features),
        functions,
        structs,
        globals,
        features,
        usage,
    })
}

/// The content key of the program [`link`] merged from `objects`, or `None`
/// when any object has no unit key.
///
/// It covers everything the runtime reads of an [`Executable`]: the output
/// name (argv\[0\]), the merged features, each function, the struct
/// definitions and the globals. A function is named by the unit key of the
/// object that defines it, which fixes its body, so the key hashes no AST.
/// Functions are keyed by name. Struct definitions and globals are named
/// by their [`content_class`]: each struct by the class of its first
/// definer's definition, which `link` keeps, and the globals by the class
/// of each carrying object's list, in the link order `link` concatenates
/// them in. Equal classes name equal content, so the key stays exact, and
/// objects that carry equal content link to one key in any order.
fn executable_key<B: Borrow<ObjectCode>>(
    objects: &[B],
    output: &str,
    features: &CompileFeatures,
) -> Option<u128> {
    let keyed: Vec<(&ObjectCode, u128)> = objects
        .iter()
        .map(|o| {
            let o = o.borrow();
            Some((o, o.key?))
        })
        .collect::<Option<_>>()?;
    let mut h = Fnv128::new();
    h.field(EXE_KEY_SALT.as_bytes());
    h.field(output.as_bytes());
    h.field(&[features_bits(features)]);

    // A successful link defines each function name once.
    let mut functions: Vec<(&str, u128)> = keyed
        .iter()
        .flat_map(|&(o, key)| o.functions.keys().map(move |name| (name.as_str(), key)))
        .collect();
    functions.sort_unstable();
    h.field(&(functions.len() as u64).to_le_bytes());
    for (name, key) in functions {
        h.field(name.as_bytes());
        h.field(&key.to_le_bytes());
    }

    let mut structs: BTreeMap<&str, (&StructDef, u128)> = BTreeMap::new();
    for &(o, key) in &keyed {
        for (name, s) in &o.structs {
            structs.entry(name).or_insert((s, key));
        }
    }
    h.field(&(structs.len() as u64).to_le_bytes());
    for (name, (s, key)) in structs {
        h.field(name.as_bytes());
        let class = content_class(&keyed, key, s, |o| o.structs.get(name));
        h.field(&class.to_le_bytes());
    }

    for &(o, key) in keyed.iter().filter(|(o, _)| !o.globals.is_empty()) {
        let class = content_class(&keyed, key, &o.globals, |o| Some(&o.globals));
        h.field(&class.to_le_bytes());
    }
    Some(h.finish())
}

/// The class of `content`, which the object keyed `key` carries: the
/// smallest unit key among that object and the `keyed` objects whose
/// `part` equals `content`. A unit key fixes its object's content, so the
/// class names the content exactly, and every object in the link that
/// carries equal content names it alike.
fn content_class<'o, T: PartialEq + 'o>(
    keyed: &[(&'o ObjectCode, u128)],
    key: u128,
    content: &T,
    part: impl Fn(&'o ObjectCode) -> Option<&'o T>,
) -> u128 {
    keyed
        .iter()
        .filter(|&&(o, _)| part(o) == Some(content))
        .map(|&(_, k)| k)
        .fold(key, u128::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::assemble;
    use crate::sema;
    use minihpc_lang::repo::SourceRepo;

    fn object_of(path: &str, src: &str, features: CompileFeatures) -> ObjectCode {
        let repo = SourceRepo::new().with_file(path, src);
        let tu = assemble(&repo, path, &features).unwrap();
        let r = sema::check(&tu, path, &format!("{path}.o"), &features);
        assert!(
            r.object.is_some(),
            "sema failed: {:?}",
            r.diagnostics
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
        );
        r.object.unwrap()
    }

    #[test]
    fn two_unit_link_resolves_prototypes() {
        let f = CompileFeatures::default();
        let main_o = object_of(
            "main.cpp",
            "void helper(int x);\nint main() { helper(1); return 0; }",
            f,
        );
        let helper_o = object_of("helper.cpp", "void helper(int x) { }", f);
        let exe = link(&[main_o, helper_o], "app", CompilerKind::Gcc, &f).unwrap();
        assert!(exe.main().is_some());
        assert!(exe.functions.contains_key("helper"));
    }

    #[test]
    fn undefined_reference_reported() {
        let f = CompileFeatures::default();
        let main_o = object_of(
            "main.cpp",
            "void helper(int x);\nint main() { helper(1); return 0; }",
            f,
        );
        let errs = link(&[main_o], "app", CompilerKind::Gcc, &f).unwrap_err();
        assert_eq!(errs[0].category, ErrorCategory::LinkerError);
        assert!(errs[0].message.contains("helper"));
    }

    #[test]
    fn duplicate_definition_reported() {
        let f = CompileFeatures::default();
        let a = object_of(
            "a.cpp",
            "int compute() { return 1; }\nint main() { return compute(); }",
            f,
        );
        let b = object_of("b.cpp", "int compute() { return 2; }", f);
        let errs = link(&[a, b], "app", CompilerKind::Gcc, &f).unwrap_err();
        assert!(errs[0].message.contains("multiple definition"));
    }

    #[test]
    fn missing_main_reported() {
        let f = CompileFeatures::default();
        let a = object_of("a.cpp", "int compute() { return 1; }", f);
        let errs = link(&[a], "app", CompilerKind::Gcc, &f).unwrap_err();
        assert!(errs[0].message.contains("main"));
    }

    #[test]
    fn libm_required_for_gcc_but_not_nvcc() {
        let f = CompileFeatures::default();
        let src = "int main() { double x = sqrt(2.0); return (int)x; }";
        let a = object_of("a.cpp", src, f);
        let errs = link(std::slice::from_ref(&a), "app", CompilerKind::Gcc, &f).unwrap_err();
        assert!(errs[0].message.contains("-lm"));

        // With -lm.
        let with_m = CompileFeatures {
            libm: true,
            ..CompileFeatures::default()
        };
        assert!(link(std::slice::from_ref(&a), "app", CompilerKind::Gcc, &with_m).is_ok());

        // nvcc links libm implicitly.
        assert!(link(&[a], "app", CompilerKind::Nvcc, &f).is_ok());
    }

    #[test]
    fn features_unioned() {
        let cuda = CompileFeatures {
            cuda: true,
            ..CompileFeatures::default()
        };
        let omp = CompileFeatures {
            openmp: true,
            ..CompileFeatures::default()
        };
        let a = object_of("a.cpp", "int main() { return 0; }", cuda);
        let b = object_of("b.cpp", "void side(void) { }", omp);
        let exe = link(
            &[a, b],
            "app",
            CompilerKind::Nvcc,
            &CompileFeatures::default(),
        )
        .unwrap();
        assert!(exe.features.cuda);
        assert!(exe.features.openmp);
    }

    /// An object as a unit cache would compile it: stamped with its unit
    /// key.
    fn keyed_object(path: &str, src: &str) -> ObjectCode {
        let f = CompileFeatures::default();
        let name = format!("{path}.o");
        let mut obj = object_of(path, src, f);
        let body_hash = minihpc_lang::fnv::fnv128(src.as_bytes());
        obj.key = Some(crate::unit::unit_key(path, &name, &f, [(path, body_hash)]));
        obj
    }

    const MAIN: &str = "struct P { int x; };\nint scale(int v);\n\
                        int main() { struct P p; p.x = scale(2); return p.x - 4; }";
    const HELPER: &str = "struct P { int x; };\nint bias = 1;\n\
                          int scale(int v) { return 2 * v + bias - 1; }";

    /// The key of `main.cpp` + `helper.cpp` linked in the given order.
    fn exe_key(main: &str, helper: &str, helper_first: bool, output: &str, libm: bool) -> u128 {
        let (m, h) = (
            keyed_object("main.cpp", main),
            keyed_object("helper.cpp", helper),
        );
        let objects = if helper_first { [h, m] } else { [m, h] };
        let features = CompileFeatures {
            libm,
            ..CompileFeatures::default()
        };
        let exe = link(&objects, output, CompilerKind::Gcc, &features).unwrap();
        exe.key.expect("every object is keyed")
    }

    #[test]
    fn executable_key_value_is_pinned() {
        // Executable keys are FNV-128 over salted fields; this value must
        // not move unless `EXE_KEY_SALT` is bumped or the unit keys it
        // hashes change (last with `minihpc-unit-v2`, whose keys hash each
        // closure body by its content hash). Under `minihpc-exe-v1`, which
        // hashed unit keys where v2 hashes content classes, it was
        // 0xc2cb0484428c576b5ab816f3e93f6ea6.
        assert_eq!(
            exe_key(MAIN, HELPER, false, "app", false),
            0x099dfa3c1a5a7348875b242da4b3e72b
        );
    }

    #[test]
    fn executable_key_ignores_the_link_order_of_disjoint_objects() {
        // Both objects define `struct P` alike; functions and the one global
        // are disjoint, so the merged program does not depend on the order.
        assert_eq!(
            exe_key(MAIN, HELPER, false, "app", false),
            exe_key(MAIN, HELPER, true, "app", false)
        );
    }

    #[test]
    fn executable_key_covers_what_the_runtime_reads() {
        let base = exe_key(MAIN, HELPER, false, "app", false);
        let changed = [
            (
                "a function body",
                exe_key(MAIN, &HELPER.replace("2 * v", "3 * v"), false, "app", false),
            ),
            (
                "a struct field",
                exe_key(
                    &MAIN.replace("int x;", "long x;"),
                    HELPER,
                    false,
                    "app",
                    false,
                ),
            ),
            (
                "a global initializer",
                exe_key(
                    MAIN,
                    &HELPER.replace("bias = 1", "bias = 2"),
                    false,
                    "app",
                    false,
                ),
            ),
            (
                "the output name",
                exe_key(MAIN, HELPER, false, "app2", false),
            ),
            ("a feature flag", exe_key(MAIN, HELPER, false, "app", true)),
        ];
        for (what, key) in changed {
            assert_ne!(key, base, "changing {what} must change the key");
        }
        // The definitions of `struct P` now differ, so the first one linked
        // wins and the link order is part of the key.
        let long_main = MAIN.replace("int x;", "long x;");
        assert_ne!(
            exe_key(&long_main, HELPER, false, "app", false),
            exe_key(&long_main, HELPER, true, "app", false)
        );
    }

    /// The key of the keyed objects `(path, source)` linked in this order.
    fn linked_key(sources: &[(&str, &str)]) -> u128 {
        let f = CompileFeatures::default();
        let objects: Vec<ObjectCode> = sources
            .iter()
            .map(|&(path, src)| keyed_object(path, src))
            .collect();
        let exe = link(&objects, "app", CompilerKind::Gcc, &f).unwrap();
        exe.key.expect("every object is keyed")
    }

    #[test]
    fn objects_that_carry_one_globals_list_link_to_one_key_in_either_order() {
        // Both units define the globals of one header, so their lists are
        // equal and the concatenation `link` builds is the same in either
        // order.
        let globals = "int bias = 1;\ndouble scale_by = 2.0;\n";
        let main = format!("{globals}{MAIN}");
        let helper = format!("{globals}int scale(int v) {{ return 2 * v + bias - 1; }}");
        let forward = [("main.cpp", main.as_str()), ("helper.cpp", helper.as_str())];
        let backward = [forward[1], forward[0]];
        assert_eq!(linked_key(&forward), linked_key(&backward));
    }

    #[test]
    fn objects_whose_globals_differ_link_to_order_dependent_keys() {
        let main = format!("int offset = 0;\n{MAIN}");
        let forward = [("main.cpp", main.as_str()), ("helper.cpp", HELPER)];
        let backward = [forward[1], forward[0]];
        assert_ne!(linked_key(&forward), linked_key(&backward));
    }

    #[test]
    fn a_struct_defined_differently_is_keyed_by_its_first_definer() {
        let main = "struct P { int x; };\nint main() { struct P p; p.x = 0; return p.x; }";
        let a = "struct P { long x; };\nvoid a(void) { }";
        let b = "struct P { double x; };\nvoid b(void) { }";
        let key = |order: [usize; 3]| {
            let units = [("main.cpp", main), ("a.cpp", a), ("b.cpp", b)];
            linked_key(&order.map(|i| units[i]))
        };
        // Which definition comes first decides the merged `struct P`.
        assert_ne!(key([0, 1, 2]), key([1, 0, 2]));
        assert_ne!(key([1, 0, 2]), key([2, 0, 1]));
        // The later definitions are dropped, so their order does not count.
        assert_eq!(key([0, 1, 2]), key([0, 2, 1]));
        assert_eq!(key([1, 0, 2]), key([1, 2, 0]));
    }

    #[test]
    fn executable_key_is_none_when_an_object_was_compiled_uncached() {
        let f = CompileFeatures::default();
        let objects = [
            keyed_object("main.cpp", MAIN),
            object_of("helper.cpp", HELPER, f),
        ];
        let exe = link(&objects, "app", CompilerKind::Gcc, &f).unwrap();
        assert_eq!(exe.key, None);
    }
}
