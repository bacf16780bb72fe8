//! The linker: merges object files into an [`Executable`], reporting the
//! paper's "Linker Error" category for undefined references, duplicate
//! definitions, and a missing `main`.

use crate::diag::{Diagnostic, ErrorCategory};
use crate::object::{Executable, ObjectCode};
use crate::toolchain::{CompileFeatures, CompilerKind};
use minihpc_lang::model::ModelUsage;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Link objects into an executable named `output`.
///
/// `compiler` is the driver doing the link (nvcc bundles libm and the CUDA
/// runtime; gcc/clang need `-lm` for math usage, which is the classic
/// missing-flag linker failure).
pub fn link<B: std::borrow::Borrow<ObjectCode>>(
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
        functions,
        structs,
        globals,
        features,
        usage,
    })
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
}
