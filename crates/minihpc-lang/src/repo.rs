//! In-memory model of a source repository: the unit of translation in
//! ParEval-Repo. A repository is a set of named files — sources, headers,
//! build files, documentation — exactly what gets shown to (and rewritten by)
//! a translation technique.

use crate::fnv::fnv128;
use crate::memo::OnceMap;
use std::any::{Any, TypeId};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Classification of a repository file, used by prompt construction, the
//  dependency agent, and the build driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileKind {
    /// A compilable source file (`.c`, `.cpp`, `.cu`).
    Source,
    /// A header (`.h`, `.hpp`, `.cuh`).
    Header,
    /// `Makefile`.
    Makefile,
    /// `CMakeLists.txt`.
    CMakeLists,
    /// Documentation or anything else (`README.md`, data files).
    Other,
}

impl FileKind {
    /// Classify by file name.
    pub fn of(path: &str) -> FileKind {
        let name = path.rsplit('/').next().unwrap_or(path);
        if name == "Makefile" || name == "makefile" {
            return FileKind::Makefile;
        }
        if name == "CMakeLists.txt" {
            return FileKind::CMakeLists;
        }
        match name.rsplit('.').next() {
            Some("c") | Some("cpp") | Some("cc") | Some("cu") | Some("cxx") => FileKind::Source,
            Some("h") | Some("hpp") | Some("cuh") | Some("hh") => FileKind::Header,
            _ => FileKind::Other,
        }
    }

    pub fn is_code(self) -> bool {
        matches!(self, FileKind::Source | FileKind::Header)
    }

    pub fn is_build_file(self) -> bool {
        matches!(self, FileKind::Makefile | FileKind::CMakeLists)
    }
}

/// A single repository file.
#[derive(Debug, Clone, PartialEq)]
pub struct RepoFile {
    pub path: String,
    pub contents: String,
}

impl RepoFile {
    pub fn kind(&self) -> FileKind {
        FileKind::of(&self.path)
    }
}

/// An in-memory source repository.
///
/// Files are kept in a `BTreeMap` keyed by path so iteration order (and thus
/// prompts, dependency resolution, and error logs) is deterministic. File
/// bodies are [`Body`] handles: cloning a repository (or overlaying a few
/// files on a clone, as repair rounds and Code-only scoring do) shares the
/// unchanged bodies instead of deep-copying every source, and a body
/// derived once elsewhere is added by handle.
///
/// Each file body also has one content hash, its [`fnv128`], which every
/// content key (build outcomes, compile units, parses, transpiles) hashes
/// in place of the body's text ([`SourceRepo::body_hash`]). It is computed
/// on first use, never when text is added, and kept with the body: a
/// clone carries every hash computed so far, a body added by handle
/// brings its own, and [`add`](Self::add) resets only the entry it
/// replaces.
///
/// A repository also memoises results derived from its files alone, such as
/// the oracle transpile of one of its files ([`SourceRepo::memoized`]). The
/// memo is invisible in the repository's value: it fills on first use,
/// every `&mut self` mutator ([`add`](Self::add),
/// [`remove`](Self::remove), and so [`with_file`](Self::with_file)) drops
/// it, a clone starts without one, and `PartialEq` and `Debug` see only
/// the files.
#[derive(Default)]
pub struct SourceRepo {
    files: BTreeMap<String, Body>,
    /// One `OnceMap<u128, T>` per result type `T`.
    memo: OnceMap<TypeId, Arc<dyn Any + Send + Sync>>,
}

/// One file body and its content hash: the text behind a shared
/// `Arc<str>` handle, and its [`fnv128`], filled on first use.
///
/// Cloning a body shares its text and carries its hash as far as it was
/// computed, so a body hashed once where it is derived (an oracle
/// transpile, a build file) is hashed for every repository it is later
/// added to. A clone taken before the first hash hashes on its own. [`push_str`](Body::push_str) is the one
/// mutator: it copies the text and resets the hash. A body reads as its
/// text (`Deref<Target = str>`), and two bodies are equal when their texts
/// are.
#[derive(Clone)]
pub struct Body {
    text: Arc<str>,
    /// [`fnv128`] of `text`, filled on first use.
    hash: OnceLock<u128>,
}

impl Body {
    /// [`fnv128`] of the text: hashed on the first call, and kept with
    /// this handle and every clone taken after it.
    pub fn hash(&self) -> u128 {
        *self.hash.get_or_init(|| fnv128(self.text.as_bytes()))
    }

    /// Do `a` and `b` share one text allocation (rather than equal texts)?
    pub fn ptr_eq(a: &Body, b: &Body) -> bool {
        Arc::ptr_eq(&a.text, &b.text)
    }

    /// Append `text`: copies the body into a new allocation, and drops the
    /// hash, which no longer describes it.
    pub fn push_str(&mut self, text: &str) {
        let mut joined = String::with_capacity(self.text.len() + text.len());
        joined.push_str(&self.text);
        joined.push_str(text);
        *self = Body::from(joined);
    }
}

impl std::ops::Deref for Body {
    type Target = str;

    fn deref(&self) -> &str {
        &self.text
    }
}

impl From<Arc<str>> for Body {
    fn from(text: Arc<str>) -> Self {
        Body {
            text,
            hash: OnceLock::new(),
        }
    }
}

impl From<String> for Body {
    fn from(text: String) -> Self {
        Body::from(Arc::<str>::from(text))
    }
}

impl From<&str> for Body {
    fn from(text: &str) -> Self {
        Body::from(Arc::<str>::from(text))
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text
    }
}

impl Eq for Body {}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.text, f)
    }
}

impl Clone for SourceRepo {
    fn clone(&self) -> Self {
        SourceRepo {
            files: self.files.clone(),
            memo: OnceMap::default(),
        }
    }
}

impl PartialEq for SourceRepo {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for SourceRepo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Files<'a>(&'a SourceRepo);
        impl fmt::Debug for Files<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.files.iter().map(|(p, b)| (p, &b.text)))
                    .finish()
            }
        }
        f.debug_struct("SourceRepo")
            .field("files", &Files(self))
            .finish()
    }
}

impl SourceRepo {
    pub fn new() -> Self {
        SourceRepo::default()
    }

    pub fn with_file(mut self, path: impl Into<String>, contents: impl Into<Body>) -> Self {
        self.add(path, contents);
        self
    }

    /// Add or replace a file. A [`Body`] is added by handle, with its hash
    /// if it has one; text becomes a new, unhashed body. Drops the memo;
    /// the other files keep their content hashes.
    pub fn add(&mut self, path: impl Into<String>, contents: impl Into<Body>) {
        self.memo = OnceMap::default();
        self.files.insert(path.into(), contents.into());
    }

    /// Remove a file. Drops the memo.
    pub fn remove(&mut self, path: &str) -> Option<Arc<str>> {
        self.memo = OnceMap::default();
        self.files.remove(path).map(|body| body.text)
    }

    /// The value of `derive` memoised under `key`: the first call with a
    /// given result type `T` and `key` runs `derive`, and later calls on
    /// this repository return a clone of its result until a mutator drops
    /// the memo.
    ///
    /// `derive` must be a pure function of this repository's files and of
    /// the inputs `key` was hashed from, which should be their
    /// [`Fnv128`](crate::fnv::Fnv128) field hash. Each key has its own
    /// once-cell in an [`OnceMap`]: derivations of different keys proceed
    /// in parallel, `derive` may use the memo for other keys (but not its
    /// own), a concurrent call with the same key waits for the running
    /// derivation, and a derivation that panics leaves its cell empty.
    pub fn memoized<T>(&self, key: u128, derive: impl FnOnce() -> T) -> T
    where
        T: Clone + Send + Sync + 'static,
    {
        let ty = TypeId::of::<T>();
        let results = self
            .memo
            .get_or_init(ty, || Arc::new(OnceMap::<u128, T>::default()));
        results
            .downcast_ref::<OnceMap<u128, T>>()
            .expect("memo maps are keyed by their result type")
            .get_or_init(key, derive)
    }

    /// How many times [`memoized`](Self::memoized) has begun a cold
    /// derivation of a `T` on this repository since its last mutation. A
    /// clone starts at 0.
    pub fn cold_derivations<T: 'static>(&self) -> usize {
        self.memo.get(&TypeId::of::<T>()).map_or(0, |results| {
            results
                .downcast_ref::<OnceMap<u128, T>>()
                .expect("memo maps are keyed by their result type")
                .derivations()
        })
    }

    pub fn get(&self, path: &str) -> Option<&str> {
        self.files.get(path).map(|b| &*b.text)
    }

    /// The body at `path`, to clone into another repository by handle.
    pub fn get_body(&self, path: &str) -> Option<&Body> {
        self.files.get(path)
    }

    /// The content hash of the body at `path`: [`fnv128`] of its bytes,
    /// hashed on the first call and kept with the body.
    pub fn body_hash(&self, path: &str) -> Option<u128> {
        self.files.get(path).map(Body::hash)
    }

    /// [`fnv128`] of `text`, taken from the body at `path` when `text` is
    /// that body (borrowed from this repo, or equal byte for byte: a
    /// comparison is far cheaper than a hash), and hashed afresh
    /// otherwise.
    pub fn hash_of(&self, path: &str, text: &str) -> u128 {
        match self.files.get(path) {
            Some(body) if std::ptr::eq(&*body.text, text) || *body.text == *text => body.hash(),
            _ => fnv128(text.as_bytes()),
        }
    }

    pub fn contains(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    pub fn len(&self) -> usize {
        self.files.len()
    }

    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Iterate `(path, contents)` in deterministic path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.files.iter().map(|(p, b)| (p.as_str(), &*b.text))
    }

    /// Iterate `(path, body)` in path order.
    pub fn iter_bodies(&self) -> impl Iterator<Item = (&str, &Body)> {
        self.files.iter().map(|(p, b)| (p.as_str(), b))
    }

    /// Iterate `(path, body hash)` in path order (see
    /// [`body_hash`](Self::body_hash)).
    pub fn iter_hashed(&self) -> impl Iterator<Item = (&str, u128)> {
        self.files.iter().map(|(p, b)| (p.as_str(), b.hash()))
    }

    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }

    /// All code files (sources + headers).
    pub fn code_files(&self) -> Vec<&str> {
        self.paths().filter(|p| FileKind::of(p).is_code()).collect()
    }

    /// The build file (Makefile or CMakeLists.txt) if present.
    pub fn build_file(&self) -> Option<(&str, &str)> {
        self.iter().find(|(p, _)| FileKind::of(p).is_build_file())
    }

    /// Resolve a local `#include "path"` relative to the including file, the
    /// repository root, and `src/` (mirroring `-I. -Isrc` include paths).
    pub fn resolve_include(&self, from: &str, include: &str) -> Option<&str> {
        // Relative to the including file's directory.
        if let Some(dir) = from.rfind('/').map(|i| &from[..i]) {
            let candidate = format!("{dir}/{include}");
            if let Some((p, _)) = self.files.get_key_value(&candidate) {
                return Some(p.as_str());
            }
        }
        if let Some((p, _)) = self.files.get_key_value(include) {
            return Some(p.as_str());
        }
        let candidate = format!("src/{include}");
        if let Some((p, _)) = self.files.get_key_value(&candidate) {
            return Some(p.as_str());
        }
        None
    }

    /// Render the file tree in the format used by the paper's prompts
    /// (Listing 1): a `|--`/`+--` tree with `src/` subdirectories. The
    /// [`Display`](fmt::Display) impl writes the same tree without
    /// building it.
    pub fn file_tree(&self) -> String {
        self.to_string()
    }

    /// Total size of all file contents in bytes (used for context-window
    /// accounting in the token model).
    pub fn total_bytes(&self) -> usize {
        self.files.values().map(|b| b.text.len()).sum()
    }
}

/// The file tree of [`SourceRepo::file_tree`]: top-level files in path
/// order, then each directory in name order with its files below it.
impl fmt::Display for SourceRepo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let branch = |last: bool| if last { "+-- " } else { "|-- " };
        let in_dirs = || self.paths().filter_map(|p| p.split_once('/'));
        // Name order is not path order when one directory's name is a
        // prefix of another's (`src` sorts before `src-gpu`, but
        // `src-gpu/a` before `src/a`), so each next directory is looked up
        // by name rather than taken from the path iteration.
        let next_dir = |after: Option<&str>| {
            in_dirs()
                .map(|(dir, _)| dir)
                .filter(|dir| after.is_none_or(|a| *dir > a))
                .min()
        };
        let mut dir = next_dir(None);
        let mut top = self.paths().filter(|p| !p.contains('/')).peekable();
        while let Some(file) = top.next() {
            let last = top.peek().is_none() && dir.is_none();
            writeln!(f, "{}{file}", branch(last))?;
        }
        while let Some(name) = dir {
            dir = next_dir(Some(name));
            writeln!(f, "{}{name}/", branch(dir.is_none()))?;
            for (_, file) in in_dirs().filter(|(d, _)| *d == name) {
                writeln!(f, "    +-- {file}")?;
            }
        }
        Ok(())
    }
}

impl FromIterator<(String, String)> for SourceRepo {
    fn from_iter<T: IntoIterator<Item = (String, String)>>(iter: T) -> Self {
        iter.into_iter().map(|(p, c)| (p, Arc::from(c))).collect()
    }
}

impl FromIterator<(String, Arc<str>)> for SourceRepo {
    fn from_iter<T: IntoIterator<Item = (String, Arc<str>)>>(iter: T) -> Self {
        SourceRepo {
            files: iter.into_iter().map(|(p, c)| (p, Body::from(c))).collect(),
            memo: OnceMap::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SourceRepo {
        SourceRepo::new()
            .with_file("Makefile", "all:\n\techo hi\n")
            .with_file("README.md", "# app\n")
            .with_file("src/main.cpp", "int main() { return 0; }\n")
            .with_file("src/kernel.h", "void k();\n")
    }

    #[test]
    fn classify_kinds() {
        assert_eq!(FileKind::of("Makefile"), FileKind::Makefile);
        assert_eq!(FileKind::of("CMakeLists.txt"), FileKind::CMakeLists);
        assert_eq!(FileKind::of("src/main.cu"), FileKind::Source);
        assert_eq!(FileKind::of("src/kernel.cuh"), FileKind::Header);
        assert_eq!(FileKind::of("README.md"), FileKind::Other);
    }

    #[test]
    fn file_tree_format() {
        let tree = sample().file_tree();
        assert!(tree.contains("|-- Makefile"), "{tree}");
        assert!(tree.contains("+-- src/"), "{tree}");
        assert!(tree.contains("    +-- main.cpp"), "{tree}");
        // Directories in name order, even where path order differs.
        let repo = sample()
            .with_file("src-gpu/k.cu", "")
            .with_file("zeta.txt", "");
        assert_eq!(
            repo.file_tree(),
            "|-- Makefile\n|-- README.md\n|-- zeta.txt\n|-- src/\n    +-- kernel.h\n    \
             +-- main.cpp\n+-- src-gpu/\n    +-- k.cu\n"
        );
        let flat = SourceRepo::new().with_file("a", "").with_file("b", "");
        assert_eq!(flat.file_tree(), "|-- a\n+-- b\n");
    }

    #[test]
    fn resolve_include_same_dir() {
        let repo = sample();
        assert_eq!(
            repo.resolve_include("src/main.cpp", "kernel.h"),
            Some("src/kernel.h")
        );
        assert_eq!(repo.resolve_include("src/main.cpp", "missing.h"), None);
    }

    #[test]
    fn resolve_include_from_root() {
        let repo = SourceRepo::new()
            .with_file("main.cpp", "")
            .with_file("src/util.h", "");
        assert_eq!(
            repo.resolve_include("main.cpp", "util.h"),
            Some("src/util.h")
        );
    }

    #[test]
    fn build_file_lookup() {
        assert_eq!(sample().build_file().map(|(p, _)| p), Some("Makefile"));
        let repo = SourceRepo::new().with_file("CMakeLists.txt", "project(x)");
        assert_eq!(repo.build_file().map(|(p, _)| p), Some("CMakeLists.txt"));
    }

    #[test]
    fn deterministic_iteration() {
        let r1 = sample();
        let mut r2 = SourceRepo::new();
        // Insert in a different order.
        r2.add("src/kernel.h", "void k();\n");
        r2.add("README.md", "# app\n");
        r2.add("src/main.cpp", "int main() { return 0; }\n");
        r2.add("Makefile", "all:\n\techo hi\n");
        let p1: Vec<_> = r1.paths().collect();
        let p2: Vec<_> = r2.paths().collect();
        assert_eq!(p1, p2);
    }

    #[test]
    fn clones_share_file_bodies() {
        let a = sample();
        let b = a.clone();
        let pa = a.get_body("src/main.cpp").unwrap();
        let pb = b.get_body("src/main.cpp").unwrap();
        assert!(Body::ptr_eq(pa, pb), "clone must not deep-copy bodies");

        // Overlaying one file leaves the other handles shared.
        let mut c = a.clone();
        c.add("src/main.cpp", "int main() { return 1; }\n");
        assert!(!Body::ptr_eq(pa, c.get_body("src/main.cpp").unwrap()));
        assert!(Body::ptr_eq(
            a.get_body("src/kernel.h").unwrap(),
            c.get_body("src/kernel.h").unwrap()
        ));
    }

    fn memo_is_empty(repo: &SourceRepo) -> bool {
        repo.memo.is_empty()
    }

    #[test]
    fn mutators_drop_the_memo() {
        let mut repo = sample();
        assert!(memo_is_empty(&repo), "building a repo must not fill it");
        repo.memoized(1, || 1_u32);
        // The result type is part of the key.
        assert_eq!(repo.memoized(1, || "other".to_string()), "other");
        assert_eq!(repo.cold_derivations::<String>(), 1);
        repo.add("src/extra.h", "void e();\n");
        assert!(memo_is_empty(&repo));
        assert_eq!(repo.memoized(1, || 2_u32), 2);
        repo.remove("src/extra.h");
        assert!(memo_is_empty(&repo));
        assert_eq!(repo.memoized(1, || 3_u32), 3);
        assert_eq!(repo.cold_derivations::<u32>(), 1);
        let repo = repo.with_file("src/extra.h", "void e();\n");
        assert!(memo_is_empty(&repo));
        assert_eq!(repo.cold_derivations::<u32>(), 0);
    }

    #[test]
    fn memo_is_invisible_in_the_value() {
        let warm = sample();
        warm.memoized(1, || 1_u32);
        let clone = warm.clone();
        assert!(memo_is_empty(&clone), "a clone starts cold");
        assert_eq!(clone.cold_derivations::<u32>(), 0);
        assert_eq!(warm, sample());
        assert_eq!(format!("{warm:?}"), format!("{:?}", sample()));
        assert!(format!("{warm:?}").starts_with("SourceRepo { files: {"));
    }

    fn hashed_paths(repo: &SourceRepo) -> Vec<&str> {
        repo.files
            .iter()
            .filter(|(_, b)| b.hash.get().is_some())
            .map(|(p, _)| p.as_str())
            .collect()
    }

    #[test]
    fn body_hashes_are_lazy_and_kept_with_the_body() {
        let mut repo = sample();
        assert!(hashed_paths(&repo).is_empty(), "adding a file hashed it");
        let collected: SourceRepo = repo
            .iter()
            .map(|(p, c)| (p.to_string(), c.to_string()))
            .collect();
        assert!(hashed_paths(&collected).is_empty());

        let hashes: Vec<(String, u128)> = repo
            .iter_hashed()
            .map(|(p, h)| (p.to_string(), h))
            .collect();
        for ((path, hash), (_, text)) in hashes.iter().zip(repo.iter()) {
            assert_eq!(*hash, fnv128(text.as_bytes()), "{path}");
        }
        assert_eq!(hashed_paths(&repo).len(), repo.len());

        // A clone carries every computed hash.
        let clone = repo.clone();
        assert_eq!(hashed_paths(&clone).len(), clone.len());

        // `add` resets only the entry it replaces; `remove` drops its own.
        repo.add("src/main.cpp", "int main() { return 1; }\n");
        repo.remove("README.md");
        assert_eq!(hashed_paths(&repo), vec!["Makefile", "src/kernel.h"]);
        assert_eq!(
            repo.body_hash("src/main.cpp"),
            Some(fnv128(b"int main() { return 1; }\n"))
        );
        assert_eq!(repo.body_hash("README.md"), None);
    }

    #[test]
    fn hash_of_reuses_the_body_hash_only_for_equal_text() {
        let repo = sample();
        let body = "void k();\n";
        assert_eq!(repo.hash_of("src/kernel.h", body), fnv128(body.as_bytes()));
        assert_eq!(hashed_paths(&repo), vec!["src/kernel.h"]);
        // A chunk, or a body the repo does not hold, is hashed afresh.
        assert_eq!(repo.hash_of("src/kernel.h", "void"), fnv128(b"void"));
        assert_eq!(repo.hash_of("src/other.h", body), fnv128(body.as_bytes()));
        assert_eq!(hashed_paths(&repo), vec!["src/kernel.h"]);
    }

    #[test]
    fn bodies_are_added_by_handle_with_their_hash() {
        let repo = sample();
        let body = repo.get_body("src/main.cpp").unwrap();
        let hash = body.hash();
        let mut other = SourceRepo::new();
        other.add("main.cpp", body.clone());
        assert!(Body::ptr_eq(body, other.get_body("main.cpp").unwrap()));
        assert_eq!(hashed_paths(&other), vec!["main.cpp"]);
        assert_eq!(other.body_hash("main.cpp"), Some(hash));
        // Text is a new, unhashed body.
        other.add("b.h", String::from("void b();\n"));
        other.add("c.h", "void c();\n");
        other.add("d.h", Arc::<str>::from("void d();\n"));
        assert_eq!(hashed_paths(&other), vec!["main.cpp"]);
    }

    #[test]
    fn push_str_rehashes_the_new_text() {
        let mut body = Body::from("int x;\n");
        let shared = body.clone();
        assert_eq!(body.hash(), fnv128(b"int x;\n"));
        body.push_str("int y;\n");
        assert_eq!(&*body, "int x;\nint y;\n");
        assert!(body.hash.get().is_none(), "push_str kept a stale hash");
        assert_eq!(body.hash(), fnv128(b"int x;\nint y;\n"));
        // The text is copied: other handles keep the old text and hash.
        assert_eq!(&*shared, "int x;\n");
        assert_eq!(shared.hash(), fnv128(b"int x;\n"));
        assert_eq!(body, Body::from("int x;\nint y;\n"));
        assert_ne!(body, shared);
    }

    #[test]
    fn code_files_excludes_build_and_docs() {
        let files = sample();
        let code = files.code_files();
        assert_eq!(code, vec!["src/kernel.h", "src/main.cpp"]);
    }
}
