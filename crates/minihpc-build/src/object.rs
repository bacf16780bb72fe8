//! Object files and linked executables.
//!
//! A MiniHPC "object" keeps the semantically-checked AST of its translation
//! unit plus the symbol information the linker needs. A linked [`Executable`]
//! is what the simulated runtime (`minihpc-runtime`) interprets. Functions
//! are `Arc`-shared, so linking copies pointers, not function bodies.

use crate::toolchain::CompileFeatures;
use minihpc_lang::ast::{Function, StructDef, VarDecl};
use minihpc_lang::model::ModelUsage;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A compiled translation unit.
#[derive(Debug, Clone)]
pub struct ObjectCode {
    /// The source path this object was compiled from.
    pub source: String,
    /// The (logical) object file name, e.g. `main.o`.
    pub name: String,
    /// Function definitions, by name.
    pub functions: BTreeMap<String, Arc<Function>>,
    /// Struct definitions visible in this unit.
    pub structs: BTreeMap<String, StructDef>,
    /// Global variable definitions.
    pub globals: Vec<VarDecl>,
    /// Names of functions declared (prototype) and referenced but not
    /// defined in this unit — resolved at link time.
    pub undefined: Vec<String>,
    /// Whether any libm math function is referenced (link-time `-lm` check).
    pub uses_libm: bool,
    pub features: CompileFeatures,
    pub usage: ModelUsage,
    /// The unit key this object was compiled under (see
    /// [`unit_key`](crate::unit::unit_key)); `None` when it was compiled
    /// without a unit cache.
    pub key: Option<u128>,
}

/// A fully linked program, ready for the simulated runtime.
#[derive(Debug, Clone)]
pub struct Executable {
    /// Program name (the `-o` output).
    pub name: String,
    pub functions: BTreeMap<String, Arc<Function>>,
    pub structs: BTreeMap<String, StructDef>,
    pub globals: Vec<VarDecl>,
    /// Union of the features of all linked objects.
    pub features: CompileFeatures,
    /// Merged model-usage evidence (for the harness's target-model check).
    pub usage: ModelUsage,
    /// The program's content key: equal keys mean the runtime sees the
    /// same program (see [`link`](crate::linker::link)). `None` when any
    /// linked object has no unit key.
    pub key: Option<u128>,
}

impl Executable {
    pub fn main(&self) -> Option<&Function> {
        self.functions.get("main").map(Arc::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executable_main_lookup() {
        let exe = Executable {
            name: "app".into(),
            functions: BTreeMap::new(),
            structs: BTreeMap::new(),
            globals: vec![],
            features: CompileFeatures::default(),
            usage: ModelUsage::default(),
            key: None,
        };
        assert!(exe.main().is_none());
    }
}
