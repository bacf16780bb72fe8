//! Per-file compile units: the file-granular caching seam of the build
//! driver.
//!
//! A *unit* is the result of `preprocess → parse → sema` for one compiler
//! input: the object code (when sema succeeded) plus every diagnostic the
//! front end emitted. Builds that differ in a single file re-run assemble
//! to rediscover each input's include closure, then replay every unit whose
//! closure is byte-identical from the cache — only changed units pay for
//! sema, and only the link + run stages execute unconditionally. Assembly
//! is cheap on a warm cache: [`UnitCache::parse_file`] hands out one shared
//! AST per file content, and the unit refers to those ASTs instead of
//! copying their items, so a unit-key hit costs the key and nothing more.
//!
//! # Key discipline
//!
//! [`unit_key`] must cover every input `sema::check` sees. The translation
//! unit handed to sema is a pure function of the include closure — the
//! resolved file paths and their byte contents, in splice order — so the
//! key hashes exactly that, each body by its content hash
//! ([`SourceRepo::body_hash`](minihpc_lang::repo::SourceRepo::body_hash),
//! computed once per body), plus the input path, the object name, the
//! [`CompileFeatures`], and a format-version salt. Anything else (other
//! repo files, build-system text, link flags) cannot reach a unit's
//! output and is deliberately excluded; keying on whole-repo content is
//! precisely the bug this module exists to fix.

use crate::diag::Diagnostic;
use crate::object::ObjectCode;
use crate::preprocess::ParsedFile;
use crate::toolchain::CompileFeatures;
use minihpc_lang::fnv::Fnv128;
use std::sync::Arc;

/// Bumped whenever the sema output format changes, so units compiled
/// under the old format stop matching.
const UNIT_KEY_SALT: &str = "minihpc-unit-v2";

/// The cached result of compiling one translation unit.
///
/// The object is `Arc`-shared so a memory-tier hit costs a pointer clone,
/// not an AST deep copy. Failed sema runs are cached too (object `None`,
/// diagnostics replayed verbatim) — repair loops re-evaluate failing repos
/// repeatedly, and a deterministic failure is as cacheable as a success.
#[derive(Debug, Clone)]
pub struct CompiledUnit {
    pub object: Option<Arc<ObjectCode>>,
    pub diagnostics: Vec<Diagnostic>,
}

/// A cache the build driver consults per compile unit.
///
/// Implementations live above this crate (the eval pipeline's `BuildCache`
/// keeps units in memory and counts hits); the driver only needs lookup,
/// store, and a memoized parse.
pub trait UnitCache: Sync {
    /// Parse `text`, memoizing by content so unchanged files across
    /// repeated builds (and headers shared between units within one
    /// build) are parsed once. A memo hit returns the memoized AST itself,
    /// an `Arc` clone: nothing is deep-copied.
    fn parse_file(&self, text: &str) -> ParsedFile;

    /// [`parse_file`](Self::parse_file) of a body whose content hash is
    /// already known: `hash` must be
    /// [`fnv128`](minihpc_lang::fnv::fnv128) of `text`, as
    /// [`SourceRepo::body_hash`](minihpc_lang::repo::SourceRepo::body_hash)
    /// returns it. A memo keyed by that hash finds its entry without
    /// reading `text`; `parse_file` and this entry must reach the same
    /// entry. The default ignores `hash`.
    fn parse_hashed(&self, hash: u128, text: &str) -> ParsedFile {
        let _ = hash;
        self.parse_file(text)
    }

    /// Fetch the unit stored under `key`, if any.
    fn lookup_unit(&self, key: u128) -> Option<CompiledUnit>;

    /// Store a freshly compiled unit under `key`.
    fn store_unit(&self, key: u128, unit: &CompiledUnit);
}

/// The compile features as one byte, for content keys.
pub(crate) fn features_bits(f: &CompileFeatures) -> u8 {
    let CompileFeatures {
        cuda,
        openmp,
        offload,
        kokkos,
        curand,
        libm,
    } = *f;
    (cuda as u8)
        | (openmp as u8) << 1
        | (offload as u8) << 2
        | (kokkos as u8) << 3
        | (curand as u8) << 4
        | (libm as u8) << 5
}

/// The content key of one compile unit.
///
/// `closure` is the unit's include closure in splice order — resolved
/// paths *and* the content hashes of their bodies, exactly as
/// `preprocess::assemble` discovered it. Hashing resolved paths (not just
/// contents) prevents aliasing between repos whose include resolution
/// differs but whose file bodies happen to match. No file text is read.
pub fn unit_key<'a>(
    input: &str,
    obj_name: &str,
    features: &CompileFeatures,
    closure: impl IntoIterator<Item = (&'a str, u128)>,
) -> u128 {
    let mut h = Fnv128::new();
    h.field(UNIT_KEY_SALT.as_bytes());
    h.field(input.as_bytes());
    h.field(obj_name.as_bytes());
    h.field(&[features_bits(features)]);
    for (path, body_hash) in closure {
        h.field(path.as_bytes());
        h.field(&body_hash.to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use minihpc_lang::fnv::fnv128;

    /// `unit_key` over `(path, body)` pairs, each body by its content hash.
    fn key_of<'a>(
        input: &str,
        obj_name: &str,
        features: &CompileFeatures,
        closure: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> u128 {
        let closure = closure
            .into_iter()
            .map(|(path, body)| (path, fnv128(body.as_bytes())));
        unit_key(input, obj_name, features, closure)
    }

    #[test]
    fn key_value_is_pinned() {
        // Unit keys are FNV-128 over salted fields, each closure body by
        // its content hash (`minihpc-unit-v2`); this value must not move
        // when the hash implementation is refactored.
        let features = CompileFeatures {
            openmp: true,
            ..CompileFeatures::default()
        };
        let key = key_of(
            "src/main.cpp",
            "main.o",
            &features,
            [
                ("src/main.cpp", "int main() { return 0; }"),
                ("src/a.h", "int f();"),
            ],
        );
        assert_eq!(key, 0xcf388902157bdd1fe1b8068115e306d7);
    }

    #[test]
    fn key_covers_closure_paths_and_contents() {
        let features = CompileFeatures::default();
        let base = key_of(
            "src/main.cpp",
            "main.o",
            &features,
            [
                ("src/main.cpp", "int main() { return 0; }"),
                ("src/a.h", "int f();"),
            ],
        );
        // Changing any header byte changes the key.
        let edited = key_of(
            "src/main.cpp",
            "main.o",
            &features,
            [
                ("src/main.cpp", "int main() { return 0; }"),
                ("src/a.h", "int g();"),
            ],
        );
        assert_ne!(base, edited);
        // Same bytes resolved from a different path changes the key.
        let moved = key_of(
            "src/main.cpp",
            "main.o",
            &features,
            [
                ("src/main.cpp", "int main() { return 0; }"),
                ("a.h", "int f();"),
            ],
        );
        assert_ne!(base, moved);
        // Features and object name are part of the key.
        let cuda = CompileFeatures {
            cuda: true,
            ..features
        };
        assert_ne!(
            base,
            key_of(
                "src/main.cpp",
                "main.o",
                &cuda,
                [
                    ("src/main.cpp", "int main() { return 0; }"),
                    ("src/a.h", "int f();")
                ],
            )
        );
        // Field separation: shifting a byte across the path/content
        // boundary must not collide.
        let a = key_of("m", "o", &features, [("ab", "c")]);
        let b = key_of("m", "o", &features, [("a", "bc")]);
        assert_ne!(a, b);
    }
}
