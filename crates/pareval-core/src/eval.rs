//! The evaluation pipeline: backend attempt → technique → build → run →
//! score — plus bounded repair rounds on failed builds — with a
//! content-addressed build cache shared across runner workers.
//!
//! When [`EvalConfig::repair_budget`] > 0 and the Overall build fails, the
//! pipeline summarizes the categorized diagnostics into a
//! [`pareval_llm::RepairContext`], calls [`pareval_llm::Attempt::repair`],
//! overlays the revised files, and re-evaluates (both scorings) — looping
//! until the build succeeds, the attempt gives up, or the budget is spent.
//! Every round's evaluation goes through the same build cache, and every
//! round's outcome and cumulative token cost is retained in
//! [`SampleResult::rounds`](crate::task::SampleResult::rounds) so reports
//! can plot quality as a function of repair round.
//!
//! [`EvalPipeline`] replaces the free `run_sample`/`evaluate` functions of
//! the pre-backend harness. It owns the [`EvalConfig`] knobs plus a
//! [`BuildCache`] keyed by the content hash of the evaluated repository
//! (and everything else that determines the outcome: binary, app, target
//! model, eval knobs), so:
//!
//! - the Code-only scoring reuses the Overall build whenever the translated
//!   build file already matches ground truth (the two repos are then
//!   identical, hence the same key), and
//! - [`ScheduledRunner`](crate::sched::ScheduledRunner) workers share hits
//!   across threads — the cache sits behind a `parking_lot` lock and one
//!   pipeline serves the whole run.
//!
//! A cache hit returns a clone of the stored [`EvalOutcome`]; since the
//! build + run substrate is deterministic, a hit is byte-identical to the
//! cold evaluation it replaced (`tests/backends.rs` proves this by
//! property test, `tests/determinism.rs` end to end).

use crate::journal::codec;
use crate::plan::{ExperimentPlan, SampleSpec};
use crate::runner::SampleRecord;
use crate::task::{EvalConfig, EvalOutcome, RepairRound, SampleResult, Task};
use minihpc_analyze::{AnalysisFinding, Confidence};
use minihpc_build::preprocess::ParsedFile;
use minihpc_build::{build_repo_with, BuildRequest, CompiledUnit, ErrorCategory, UnitCache};
use minihpc_lang::fnv::{fnv64, Fnv128};
use minihpc_lang::repo::{FileKind, SourceRepo};
use minihpc_runtime::{run, RunConfig};
use pareval_llm::{AttemptSpec, ModelProfile, RepairContext, RepairOutcome, TranslationBackend};
use pareval_translate::techniques::{translate_with, TranslationJob};
use pareval_translate::Technique;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Hit/miss/evict counters of a [`BuildCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Outcome lookups served from the in-memory tier.
    pub hits: u64,
    /// Outcome lookups served from neither tier (a cold evaluation ran).
    pub misses: u64,
    /// Outcome lookups that missed in memory but were served by the disk
    /// tier (the entry is promoted to memory on the way out).
    pub disk_hits: u64,
    /// Disk-tier outcome entries evicted to keep the tier under its byte
    /// budget.
    pub evictions: u64,
    /// Per-file compile units replayed from the in-memory unit tier
    /// instead of re-running sema. Counted only on outcome misses — an
    /// outcome hit never reaches the unit tier.
    pub file_hits: u64,
    /// Per-file compile units that had to be compiled cold.
    pub file_misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from either cache tier (0 when none
    /// happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.disk_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.disk_hits) as f64 / total as f64
        }
    }
}

/// The persistent tier of a [`BuildCache`]: one `.entry` file per outcome
/// in a shared directory, named by the hex content key, each payload
/// checksummed. Because the file *name* is
/// the full 128-bit key — which hashes every input that can change the
/// stored value — a harness whose key computation changes (a new knob, a
/// new hash input, a codec bump) simply stops matching old entries; it can
/// never be served a stale value computed under different semantics.
///
/// Durability is best-effort by design: a read that fails its checksum (a
/// torn write, bit rot) deletes the entry and reports a miss — a corrupted
/// entry can cost a rebuild, never a wrong result. Store errors (disk
/// full, permissions) are swallowed; the run continues on the memory tier.
///
/// Eviction is least-recently-used by byte budget: the in-process index
/// orders entries by last touch (seeded from file mtimes at open, so LRU
/// order survives across processes), and inserts evict from the cold end
/// until the tier fits the budget again.
///
/// Only outcomes persist. Compile units stay in memory: decoding an AST
/// from disk cost more than re-running sema. `.unit` files left in the
/// directory by older harness versions are ignored by [`DiskCache::open`]
/// and can be deleted.
#[derive(Debug)]
struct DiskCache {
    dir: PathBuf,
    budget: u64,
    index: Mutex<DiskIndex>,
}

/// One indexed disk entry: its position in the LRU order and its on-disk
/// size.
#[derive(Debug, Clone, Copy)]
struct IndexSlot {
    touch: u64,
    size: u64,
}

/// LRU bookkeeping of a [`DiskCache`].
///
/// Invariant (held under the [`DiskCache::index`] lock, which every file
/// delete also holds): `total_bytes` equals the sum of the on-disk sizes
/// of exactly the indexed entries. `slots` maps each key to its slot;
/// `order` mirrors the slots keyed by touch counter, so the coldest entry
/// is `order`'s first value and both touch and eviction are O(log n) —
/// the previous `Vec` + `position()` index was O(n) per operation,
/// quadratic over a directory of thousands of entries.
///
/// `visited` is the work counter the regression test pins: **contract —
/// every index operation (`touch`/`remove`/`coldest`) increments it by
/// exactly 1**, i.e. examines one slot, never a scan. A reintroduced
/// linear scan has nowhere to hide: it would have to bump `visited` per
/// element examined (as the dbscan fix's counter does) and the test's
/// equality assertion fails.
#[derive(Debug, Default)]
struct DiskIndex {
    slots: HashMap<u128, IndexSlot>,
    order: BTreeMap<u64, u128>,
    next_touch: u64,
    total_bytes: u64,
    visited: u64,
}

impl DiskIndex {
    /// Move `key` to the hot end (or insert it), updating the byte total.
    fn touch(&mut self, key: u128, size: u64) {
        self.visited += 1;
        let t = self.next_touch;
        self.next_touch += 1;
        match self.slots.get_mut(&key) {
            Some(slot) => {
                self.order.remove(&slot.touch);
                self.total_bytes -= slot.size;
                slot.touch = t;
                slot.size = size;
            }
            None => {
                self.slots.insert(key, IndexSlot { touch: t, size });
            }
        }
        self.order.insert(t, key);
        self.total_bytes += size;
    }

    fn remove(&mut self, key: u128) {
        self.visited += 1;
        if let Some(slot) = self.slots.remove(&key) {
            self.order.remove(&slot.touch);
            self.total_bytes -= slot.size;
        }
    }

    fn contains(&self, key: u128) -> bool {
        self.slots.contains_key(&key)
    }

    /// The least-recently-used entry, if any.
    fn coldest(&mut self) -> Option<u128> {
        self.visited += 1;
        self.order.values().next().copied()
    }

    fn len(&self) -> usize {
        self.slots.len()
    }
}

impl DiskCache {
    /// Frame magic of an outcome entry.
    const MAGIC: &'static [u8; 8] = b"PEBC0001";

    /// Open (creating if needed) the cache directory and rebuild the LRU
    /// index from the `.entry` files already on disk, coldest mtime first.
    fn open(dir: &Path, budget: u64) -> std::io::Result<DiskCache> {
        std::fs::create_dir_all(dir)?;
        let mut found: Vec<(u128, u64, std::time::SystemTime)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(key) = name
                .to_str()
                .and_then(|n| n.strip_suffix(".entry"))
                .and_then(|hex| u128::from_str_radix(hex, 16).ok())
            else {
                continue;
            };
            let Ok(meta) = entry.metadata() else { continue };
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            found.push((key, meta.len(), mtime));
        }
        found.sort_by_key(|&(key, _, mtime)| (mtime, key));
        let mut index = DiskIndex::default();
        for (key, size, _) in found {
            index.touch(key, size);
        }
        Ok(DiskCache {
            dir: dir.to_path_buf(),
            budget,
            index: Mutex::new(index),
        })
    }

    fn path_of(&self, key: u128) -> PathBuf {
        self.dir.join(format!("{key:032x}.entry"))
    }

    /// Read-through lookup of a verified outcome. Any failure — missing
    /// file, bad magic, bad checksum, undecodable payload — deletes the
    /// entry and reports a miss; a corrupted entry can never surface as a
    /// wrong value.
    fn load(&self, key: u128) -> Option<EvalOutcome> {
        let path = self.path_of(key);
        let bytes = std::fs::read(&path).ok();
        // Account the entry at the length actually read: re-statting the
        // file here would race a concurrent eviction's delete and record
        // the entry at size 0, permanently desyncing `total_bytes` from
        // real disk usage.
        let file_len = bytes.as_ref().map(|b| b.len() as u64).unwrap_or(0);
        let value = bytes.and_then(|bytes| {
            let payload = bytes.strip_prefix(Self::MAGIC)?;
            let (sum, payload) = payload.split_first_chunk::<8>()?;
            if u64::from_le_bytes(*sum) != fnv64(payload) {
                return None;
            }
            codec::decode_outcome(payload)
        });
        match value {
            Some(value) => {
                // Touch under the same lock eviction deletes files under,
                // and only while the entry still exists — an entry evicted
                // between our read and this lock must not be resurrected
                // into the index as a ghost.
                let mut index = self.index.lock();
                if index.contains(key) || path.exists() {
                    index.touch(key, file_len);
                }
                Some(value)
            }
            None => {
                let mut index = self.index.lock();
                let _ = std::fs::remove_file(&path);
                index.remove(key);
                None
            }
        }
    }

    /// Write-through insert: encode and frame the outcome (magic +
    /// checksum), write to a temp file, rename into place (atomic on
    /// POSIX), then evict cold entries until the tier is back under budget.
    /// Returns how many entries were evicted.
    fn store(&self, key: u128, outcome: &EvalOutcome) -> u64 {
        let payload = codec::encode_outcome(outcome);
        let mut bytes = Vec::with_capacity(Self::MAGIC.len() + 8 + payload.len());
        bytes.extend_from_slice(Self::MAGIC);
        bytes.extend_from_slice(&fnv64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let path = self.path_of(key);
        let tmp = self.dir.join(format!("{key:032x}.entry.tmp"));
        if std::fs::write(&tmp, &bytes).is_err() || std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return 0;
        }
        let mut index = self.index.lock();
        index.touch(key, bytes.len() as u64);
        // Evict coldest-first until under budget. The entry just written is
        // at the hot end and is never evicted on its own insert (a single
        // over-budget entry is still worth keeping until something newer
        // displaces it).
        let mut evicted = 0;
        while index.total_bytes > self.budget && index.len() > 1 {
            let Some(cold) = index.coldest() else {
                break;
            };
            let _ = std::fs::remove_file(self.path_of(cold));
            index.remove(cold);
            evicted += 1;
        }
        evicted
    }
}

/// A content-addressed memo of build + run outcomes: an in-memory map,
/// optionally backed by a persistent disk tier shared across
/// processes (see [`EvalConfig::disk_cache_dir`]). Lookups read through —
/// memory first, then disk (promoting the entry to memory) — and inserts
/// write through to both tiers. Beneath the outcomes sit two in-memory
/// memos the cold build compiles through: parsed files and per-file
/// compile units.
///
/// Thread-safe: lookups take a read lock, inserts a write lock, so workers
/// of a parallel runner serve each other's hits. Two threads racing on the
/// same cold key may both evaluate; the substrate is deterministic, so
/// whichever insert lands last stores the same outcome.
#[derive(Debug, Default)]
pub struct BuildCache {
    map: RwLock<HashMap<u128, EvalOutcome>>,
    /// The file-granular tier: per-file compile units (parse + sema +
    /// object) keyed by include-closure content (see
    /// [`minihpc_build::unit::unit_key`]), in memory only. Outcome hits
    /// never reach this tier; it pays off on outcome *misses* whose repos
    /// share files with earlier builds — a repair round that touched one
    /// file re-compiles one unit and re-runs only link + test.
    units: RwLock<HashMap<u128, CompiledUnit>>,
    /// Parse memo backing the unit tier: `SourceFile` ASTs keyed by file
    /// content. Unit lookup needs the include closure, which needs every
    /// file parsed — this memo makes that discovery pass reparse only
    /// changed files.
    parses: RwLock<HashMap<u128, ParsedFile>>,
    /// Analyzer findings memoized by the same content key as build
    /// outcomes: the analysis is pure over repo content, so a repeated
    /// evaluation (Code-only reuse, repair rounds that re-emit unchanged
    /// files) reuses its findings alongside the cached objects.
    analysis: RwLock<HashMap<u128, Vec<AnalysisFinding>>>,
    disk: Option<DiskCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    file_hits: AtomicU64,
    file_misses: AtomicU64,
    evictions: AtomicU64,
}

impl BuildCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache with a persistent disk tier rooted at `dir` (created if
    /// missing), evicting least-recently-used entries beyond `budget`
    /// bytes. Fails only if the directory cannot be created or scanned.
    pub fn with_disk(dir: &Path, budget: u64) -> std::io::Result<Self> {
        Ok(BuildCache {
            disk: Some(DiskCache::open(dir, budget)?),
            ..BuildCache::default()
        })
    }

    /// The full outcome key: repo content plus every input that changes
    /// what `evaluate` returns for it.
    fn key(task: &Task, repo: &SourceRepo, eval: &EvalConfig) -> u128 {
        // Destructure exhaustively: adding an `EvalConfig` field refuses to
        // compile until it is hashed below or explicitly exempted, so a new
        // knob can never silently alias cache entries.
        let EvalConfig {
            max_cases,
            max_steps,
            // Gates whether a cache exists at all; it cannot alias entries.
            build_cache: _,
            repair_budget,
            repair_diag_lines,
            // Where the persistent tier lives and how big it may grow
            // cannot change what `evaluate` returns, only how fast.
            disk_cache_dir: _,
            disk_cache_budget: _,
            analyze,
            analyze_max_findings,
            repair_guided,
        } = eval;
        let mut h = Fnv128::new();
        h.field(task.app.binary.as_bytes());
        h.field(task.app.name.as_bytes());
        h.field(task.pair.id().as_bytes());
        h.field(&max_cases.to_le_bytes());
        h.field(&max_steps.to_le_bytes());
        h.field(&repair_budget.to_le_bytes());
        h.field(&repair_diag_lines.to_le_bytes());
        // Hashed only when the analyzer is on, so analyzer-off keys (and
        // the disk entries named by them) stay identical to the
        // pre-analyzer format.
        if *analyze {
            h.field(b"analyze");
            h.field(&analyze_max_findings.to_le_bytes());
        }
        // Same append-only discipline: guided repair changes what repair
        // rounds produce, but default-config (blind) keys keep the old
        // byte format.
        if *repair_guided {
            h.field(b"repair-guided");
        }
        for (path, contents) in repo.iter() {
            h.field(path.as_bytes());
            h.field(contents.as_bytes());
        }
        h.finish()
    }

    fn lookup(&self, key: u128) -> Option<EvalOutcome> {
        if let Some(hit) = self.map.read().get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(hit);
        }
        // Read through to the disk tier, promoting the entry to memory so
        // repeat lookups in this process are pure memory hits.
        if let Some(hit) = self.disk.as_ref().and_then(|d| d.load(key)) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            self.map.write().insert(key, hit.clone());
            return Some(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    fn insert(&self, key: u128, outcome: EvalOutcome) {
        if let Some(disk) = &self.disk {
            let evicted = disk.store(key, &outcome);
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        self.map.write().insert(key, outcome);
    }

    /// Entries in the in-memory tiers: whole-repo outcomes plus per-file
    /// compile units. (`len()` used to report only the outcome map, which
    /// under-reported occupancy once the disk tier existed — size
    /// accounting now reports each tier explicitly; see [`len_disk`].)
    ///
    /// [`len_disk`]: BuildCache::len_disk
    pub fn len_memory(&self) -> usize {
        self.map.read().len() + self.units.read().len()
    }

    /// Outcome entries currently indexed in the persistent disk tier (0
    /// when no disk tier is configured). Compile units never reach disk.
    pub fn len_disk(&self) -> usize {
        self.disk
            .as_ref()
            .map(|d| d.index.lock().len())
            .unwrap_or(0)
    }

    /// No entries in any tier, memory or disk.
    pub fn is_empty(&self) -> bool {
        self.len_memory() == 0 && self.len_disk() == 0
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            file_hits: self.file_hits.load(Ordering::Relaxed),
            file_misses: self.file_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// The file-granular cache seam the build driver compiles through (see
/// [`minihpc_build::driver::build_repo_with`]): parses memoized by file
/// content, compile units by include-closure key, both in memory.
impl UnitCache for BuildCache {
    fn parse_file(&self, text: &str) -> ParsedFile {
        let mut h = Fnv128::new();
        h.field(b"parse-v1");
        h.field(text.as_bytes());
        let key = h.finish();
        if let Some(hit) = self.parses.read().get(&key) {
            return hit.clone();
        }
        let parsed = minihpc_lang::parser::parse_file(text);
        self.parses.write().insert(key, parsed.clone());
        parsed
    }

    fn lookup_unit(&self, key: u128) -> Option<CompiledUnit> {
        if let Some(hit) = self.units.read().get(&key).cloned() {
            self.file_hits.fetch_add(1, Ordering::Relaxed);
            return Some(hit);
        }
        self.file_misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    fn store_unit(&self, key: u128, unit: &CompiledUnit) {
        self.units.write().insert(key, unit.clone());
    }
}

/// The sample-evaluation pipeline: owns the eval knobs and the build cache.
///
/// One pipeline serves a whole experiment run — runners construct one per
/// [`Runner::run`](crate::runner::Runner::run) call and share it across
/// workers (or accept a caller-provided one via
/// [`Runner::run_with`](crate::runner::Runner::run_with), e.g. to read
/// [`EvalPipeline::cache_stats`] afterwards).
#[derive(Debug)]
pub struct EvalPipeline {
    eval: EvalConfig,
    cache: Option<BuildCache>,
}

impl Default for EvalPipeline {
    fn default() -> Self {
        Self::new(EvalConfig::default())
    }
}

impl EvalPipeline {
    /// A pipeline with the given knobs; the cache is enabled per
    /// [`EvalConfig::build_cache`], and gains a persistent disk tier when
    /// [`EvalConfig::disk_cache_dir`] is set. An unusable cache directory
    /// (cannot be created or scanned) degrades to the in-memory tier only —
    /// the persistent cache is a wall-clock optimization and must never
    /// stop a run; [`EvalPipeline::disk_cache_active`] reports whether the
    /// tier actually engaged.
    pub fn new(eval: EvalConfig) -> Self {
        let cache = eval.build_cache.then(|| match &eval.disk_cache_dir {
            Some(dir) => BuildCache::with_disk(dir, eval.disk_cache_budget)
                .unwrap_or_else(|_| BuildCache::new()),
            None => BuildCache::new(),
        });
        EvalPipeline { eval, cache }
    }

    /// Did the persistent disk tier requested by
    /// [`EvalConfig::disk_cache_dir`] actually open? (False when no dir was
    /// configured, the cache is disabled, or the directory was unusable.)
    pub fn disk_cache_active(&self) -> bool {
        self.cache.as_ref().is_some_and(|c| c.disk.is_some())
    }

    pub fn eval(&self) -> &EvalConfig {
        &self.eval
    }

    /// Cache counters (all-zero when the cache is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
            .as_ref()
            .map(BuildCache::stats)
            .unwrap_or_default()
    }

    /// Run one sample: start an attempt on `backend`, translate with the
    /// technique, then evaluate both scorings through the (cached) build +
    /// run pipeline.
    pub fn run_sample(
        &self,
        task: &Task,
        technique: Technique,
        model: &ModelProfile,
        backend: &dyn TranslationBackend,
        seed: u64,
        sample: u32,
    ) -> SampleResult {
        // The registry serves the repo as a shared handle — no per-sample
        // deep clone — and a task whose source model the app does not
        // implement becomes a typed infeasible result, not a panic.
        let source_repo = match task.app.repo_arc(task.pair.from) {
            Ok(repo) => repo,
            Err(err) => {
                return SampleResult {
                    feasible: false,
                    failure_reason: Some(err.to_string()),
                    code_only: None,
                    overall: None,
                    tokens: pareval_llm::TokenUsage::default(),
                    rounds: Vec::new(),
                    analysis: Vec::new(),
                }
            }
        };
        let spec = AttemptSpec {
            model,
            technique,
            pair: task.pair,
            app_name: &task.app.name,
            source_repo: Arc::clone(&source_repo),
            seed,
            sample,
        };
        let mut attempt = backend.start_attempt(&spec);
        let job = TranslationJob {
            app_name: &task.app.name,
            binary: &task.app.binary,
            source_repo: &source_repo,
            pair: task.pair,
            cli_spec: &task.app.cli_spec,
            build_spec: &task.app.build_spec,
        };
        let run_result = translate_with(technique, &job, &mut attempt);
        let Some(mut repo) = run_result.repo else {
            return SampleResult {
                feasible: false,
                failure_reason: run_result.failure,
                code_only: None,
                overall: None,
                tokens: attempt.usage(),
                rounds: Vec::new(),
                analysis: Vec::new(),
            };
        };

        let mut overall = self.evaluate(task, &repo);
        let mut code_only = self.code_only_outcome(task, &repo, &overall);
        // The post-build verdict stage: static race/directive analysis of
        // the translated repository (always empty with the analyzer off).
        let mut analysis = self.analyze(task, &repo);

        // A sample needs repair while the Overall build is broken, or —
        // with the analyzer on — while it builds but carries race errors.
        // With the analyzer off the second arm is vacuous and the loop
        // behaves exactly as before.
        fn needs_repair(overall: &EvalOutcome, analysis: &[AnalysisFinding]) -> bool {
            !overall.built || analysis.iter().any(|f| f.is_error())
        }

        // The repair loop: while budget remains and the sample needs
        // repair, summarize the failure into a RepairContext, re-invoke the
        // attempt, overlay its revised files, and re-evaluate — every round
        // through the same build cache (a round that re-emits unchanged
        // files is a pure cache hit). Rounds snapshot both scorings and the
        // cumulative token usage, so collectors can report build@1/pass@1
        // and token cost as a function of repair round.
        let mut rounds = Vec::new();
        if self.eval.repair_budget > 0 && needs_repair(&overall, &analysis) {
            rounds.push(RepairRound {
                round: 0,
                gave_up: false,
                code_only: code_only.clone(),
                overall: overall.clone(),
                tokens: attempt.usage(),
            });
            for round in 1..=self.eval.repair_budget {
                let mut ctx = repair_context(&overall, round, self.eval.repair_diag_lines);
                let race: Vec<String> = analysis
                    .iter()
                    .filter(|f| f.is_error())
                    .map(AnalysisFinding::render)
                    .collect();
                if !race.is_empty() && !ctx.categories.contains(&ErrorCategory::OmpInvalidDirective)
                {
                    ctx.categories.push(ErrorCategory::OmpInvalidDirective);
                }
                ctx.race_findings = race;
                // Guided repair: hand the backend the analyzer's
                // high-confidence error fix-its plus the current text of
                // every file they target, so it can apply them
                // deterministically instead of regenerating.
                if self.eval.repair_guided {
                    ctx.fixits = analysis
                        .iter()
                        .filter(|f| f.is_error() && f.confidence == Confidence::High)
                        .filter_map(|f| f.fixit.clone())
                        .collect();
                    let mut targets: Vec<&str> =
                        ctx.fixits.iter().map(|fx| fx.file.as_str()).collect();
                    targets.sort_unstable();
                    targets.dedup();
                    ctx.fixit_sources = targets
                        .into_iter()
                        .filter_map(|p| repo.get(p).map(|t| (p.to_string(), t.to_string())))
                        .collect();
                }
                match attempt.repair(&ctx) {
                    RepairOutcome::GaveUp => {
                        rounds.push(RepairRound {
                            round,
                            gave_up: true,
                            code_only: code_only.clone(),
                            overall: overall.clone(),
                            tokens: attempt.usage(),
                        });
                        break;
                    }
                    RepairOutcome::Revised(files) => {
                        // An empty revision (every fix attempt discarded)
                        // leaves the repo byte-identical, so re-evaluating
                        // would rebuild the same outcome; reuse it.
                        if !files.is_empty() {
                            for (p, c) in files {
                                repo.add(p, c);
                            }
                            overall = self.evaluate(task, &repo);
                            code_only = self.code_only_outcome(task, &repo, &overall);
                            analysis = self.analyze(task, &repo);
                        }
                        rounds.push(RepairRound {
                            round,
                            gave_up: false,
                            code_only: code_only.clone(),
                            overall: overall.clone(),
                            tokens: attempt.usage(),
                        });
                    }
                }
                if !needs_repair(&overall, &analysis) {
                    break;
                }
            }
        }

        SampleResult {
            feasible: true,
            failure_reason: None,
            code_only: Some(code_only),
            overall: Some(overall),
            tokens: attempt.usage(),
            rounds,
            analysis,
        }
    }

    /// The analyzer verdict for `repo`, memoized by the same content key as
    /// build outcomes when a cache is enabled. Always empty with
    /// [`EvalConfig::analyze`] off; otherwise sorted findings, truncated to
    /// [`EvalConfig::analyze_max_findings`].
    fn analyze(&self, task: &Task, repo: &SourceRepo) -> Vec<AnalysisFinding> {
        if !self.eval.analyze {
            return Vec::new();
        }
        let cached_key = self
            .cache
            .is_some()
            .then(|| BuildCache::key(task, repo, &self.eval));
        if let (Some(cache), Some(key)) = (&self.cache, cached_key) {
            if let Some(hit) = cache.analysis.read().get(&key).cloned() {
                return hit;
            }
        }
        let mut findings = minihpc_analyze::analyze_repo(repo);
        findings.truncate(self.eval.analyze_max_findings);
        if let (Some(cache), Some(key)) = (&self.cache, cached_key) {
            cache.analysis.write().insert(key, findings.clone());
        }
        findings
    }

    /// Code-only scoring of `translated`: swap in the ground-truth build
    /// file. When the translated build file already matches it, the rebuilt
    /// repo hashes to the same key and the Overall evaluation is reused
    /// wholesale.
    ///
    /// The overlay repo is a clone of `translated` — which shares file
    /// bodies by handle ([`SourceRepo`] stores `Arc<str>`), so swapping the
    /// build file costs two map edits, not a deep copy of every source.
    /// The unchanged sources also keep their content, so the file tier
    /// serves their compile units straight from the Overall build.
    fn code_only_outcome(
        &self,
        task: &Task,
        translated: &SourceRepo,
        overall: &EvalOutcome,
    ) -> EvalOutcome {
        match task.app.ground_truth_build.get(&task.pair.to) {
            Some((gt_path, gt_text)) => {
                let mut repo = translated.clone();
                let build_files: Vec<String> = repo
                    .iter()
                    .filter(|(p, _)| FileKind::of(p).is_build_file())
                    .map(|(p, _)| p.to_string())
                    .collect();
                for p in build_files {
                    repo.remove(&p);
                }
                repo.add(gt_path.clone(), gt_text.clone());
                self.evaluate(task, &repo)
            }
            None => overall.clone(),
        }
    }

    /// Build + run the app's tests + enforce the paper's correctness
    /// criteria, through the cache when one is enabled. On an outcome miss
    /// the cold build compiles through the cache's file-granular unit tier,
    /// so repos sharing files with earlier builds recompile only what
    /// changed.
    pub fn evaluate(&self, task: &Task, repo: &SourceRepo) -> EvalOutcome {
        let Some(cache) = &self.cache else {
            return evaluate_uncached(task, repo, &self.eval, None);
        };
        let key = BuildCache::key(task, repo, &self.eval);
        if let Some(hit) = cache.lookup(key) {
            return hit;
        }
        let outcome = evaluate_uncached(task, repo, &self.eval, Some(cache));
        cache.insert(key, outcome.clone());
        outcome
    }

    /// Execute one sample spec of `plan` through this pipeline, with the
    /// backend the plan resolved for the spec's cell.
    ///
    /// A panic inside the sample (a buggy backend, a substrate assertion)
    /// is re-raised with the offending [`CellKey`](crate::plan::CellKey)
    /// and sample index attached, so a crashed grid run names the one
    /// configuration to replay instead of "a worker panicked somewhere".
    /// The run still aborts — every runner propagates the panic out of its
    /// thread scope.
    pub fn execute(&self, plan: &ExperimentPlan, spec: &SampleSpec) -> SampleRecord {
        let cell = &plan.cells()[spec.cell];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_sample(
                plan.task_of(cell),
                cell.key.technique,
                plan.model_of(cell),
                plan.backend_of(cell),
                plan.seed(),
                spec.sample_index,
            )
        }));
        let result = match result {
            Ok(result) => result,
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                // panic_any (not resume_unwind) so the panic hook runs and
                // the enriched message reaches stderr in real runs, not
                // just #[should_panic] payload matching.
                std::panic::panic_any(format!(
                    "sample {} of cell {:?} panicked: {msg}",
                    spec.sample_index, cell.key
                ));
            }
        };
        SampleRecord {
            key: cell.key,
            sample_index: spec.sample_index,
            result,
        }
    }
}

/// Best-effort rendering of a caught panic payload (`panic!` produces a
/// `&str` or a `String`; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

/// Summarize a failed build's categorized diagnostics into the structured
/// feedback one repair round receives: distinct categories and files in
/// first-occurrence order, plus the first `max_lines` rendered lines.
fn repair_context(outcome: &EvalOutcome, round: u32, max_lines: usize) -> RepairContext {
    let mut categories = Vec::new();
    let mut files = Vec::new();
    for d in &outcome.error_diagnostics {
        if !categories.contains(&d.category) {
            categories.push(d.category);
        }
        if !files.contains(&d.file) {
            files.push(d.file.clone());
        }
    }
    let diagnostics = outcome
        .error_diagnostics
        .iter()
        .take(max_lines)
        .map(|d| d.to_string())
        .collect();
    RepairContext {
        round,
        categories,
        files,
        diagnostics,
        race_findings: Vec::new(),
        fixits: Vec::new(),
        fixit_sources: Vec::new(),
    }
}

/// The cold path: build, enforce the target-model rule, run the developer
/// tests (right answers, on the specified hardware). `units` is the
/// optional file-granular compile cache the build reads and writes
/// per-file results through.
fn evaluate_uncached(
    task: &Task,
    repo: &SourceRepo,
    eval: &EvalConfig,
    units: Option<&dyn UnitCache>,
) -> EvalOutcome {
    let outcome = build_repo_with(repo, &BuildRequest::new(&*task.app.binary), units);
    let build_log = outcome.log.text();
    let Some(exe) = outcome.executable else {
        return EvalOutcome {
            built: false,
            passed: false,
            error_category: outcome.log.first_error_category(),
            build_log,
            error_diagnostics: outcome.log.errors().cloned().collect(),
        };
    };
    // Target-model check: the translation must actually use the requested
    // programming model.
    if !exe.usage.conforms_to(task.pair.to) {
        return EvalOutcome {
            built: true,
            passed: false,
            error_category: None,
            build_log,
            error_diagnostics: Vec::new(),
        };
    }
    let mut passed = true;
    for case in task.app.tests.iter().take(eval.max_cases) {
        let mut cfg = RunConfig::with_args(case.args.iter().cloned());
        cfg.max_steps = eval.max_steps;
        let r = run(&exe, cfg);
        // The reference is fetched only for a candidate that ran cleanly.
        let ok = r.error.is_none()
            && r.exit_code == 0
            && r.stdout == task.app.expected_output(case)
            && (!task.pair.to.is_gpu() || r.telemetry.ran_on_device());
        if !ok {
            passed = false;
            break;
        }
    }
    EvalOutcome {
        built: true,
        passed,
        error_category: None,
        build_log,
        error_diagnostics: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::all_tasks;
    use minihpc_lang::model::TranslationPair;
    use pareval_llm::{model_by_name, OracleBackend, SimulatedBackend};

    fn eval_config() -> EvalConfig {
        EvalConfig {
            max_cases: 1,
            ..EvalConfig::default()
        }
    }

    fn task_named(app: &str, pair: TranslationPair) -> Task {
        all_tasks()
            .into_iter()
            .find(|t| t.app.name == app && t.pair == pair)
            .unwrap()
    }

    #[test]
    fn o4_mini_sample_round_trips() {
        let task = task_named("nanoXOR", TranslationPair::CUDA_TO_OMP_OFFLOAD);
        let pipeline = EvalPipeline::new(eval_config());
        let model = model_by_name("o4-mini").unwrap();
        let mut any_pass = false;
        for s in 0..6 {
            let r = pipeline.run_sample(
                &task,
                Technique::NonAgentic,
                &model,
                &SimulatedBackend,
                7,
                s,
            );
            assert!(r.feasible);
            let code = r.code_only.unwrap();
            // Code-only pass implies code-only build.
            assert!(!code.passed || code.built);
            any_pass |= code.passed;
        }
        assert!(any_pass, "o4-mini should pass nanoXOR sometimes (0.84)");
    }

    #[test]
    fn infeasible_cell_reports_reason() {
        let task = task_named("XSBench", TranslationPair::CUDA_TO_OMP_OFFLOAD);
        let model = model_by_name("gemini-1.5-flash").unwrap();
        let pipeline = EvalPipeline::new(EvalConfig::default());
        let r = pipeline.run_sample(
            &task,
            Technique::NonAgentic,
            &model,
            &SimulatedBackend,
            7,
            0,
        );
        assert!(!r.feasible);
        assert!(r.failure_reason.unwrap().contains("context"));
    }

    #[test]
    fn cache_hit_is_identical_to_cold_evaluation() {
        let task = task_named("nanoXOR", TranslationPair::CUDA_TO_OMP_OFFLOAD);
        let model = model_by_name("o4-mini").unwrap();
        let cached = EvalPipeline::new(eval_config());
        let uncached = EvalPipeline::new(EvalConfig {
            build_cache: false,
            ..eval_config()
        });
        let cold = uncached.run_sample(
            &task,
            Technique::NonAgentic,
            &model,
            &SimulatedBackend,
            7,
            0,
        );
        let warm = cached.run_sample(
            &task,
            Technique::NonAgentic,
            &model,
            &SimulatedBackend,
            7,
            0,
        );
        let hot = cached.run_sample(
            &task,
            Technique::NonAgentic,
            &model,
            &SimulatedBackend,
            7,
            0,
        );
        assert_eq!(cold, warm);
        assert_eq!(cold, hot);
        let stats = cached.cache_stats();
        assert!(stats.hits >= 2, "second run must hit: {stats:?}");
        assert_eq!(uncached.cache_stats(), CacheStats::default());
    }

    #[test]
    fn oracle_samples_are_served_from_cache_after_the_first() {
        // Oracle output is sample-independent, so the second sample's two
        // scorings both hash to repos the first already evaluated: every
        // lookup after the first sample is a hit.
        let task = task_named("nanoXOR", TranslationPair::CUDA_TO_OMP_OFFLOAD);
        let model = model_by_name("o4-mini").unwrap();
        let pipeline = EvalPipeline::new(eval_config());
        let a = pipeline.run_sample(&task, Technique::NonAgentic, &model, &OracleBackend, 7, 0);
        let b = pipeline.run_sample(&task, Technique::NonAgentic, &model, &OracleBackend, 7, 1);
        assert!(a.code_only.as_ref().unwrap().passed);
        assert!(a.overall.as_ref().unwrap().passed);
        assert_eq!(a.code_only, b.code_only);
        assert_eq!(a.overall, b.overall);
        let stats = pipeline.cache_stats();
        // Sample 0's two scorings are the only outcome misses; sample 1 is
        // pure hits. Within sample 0's misses, the file tier engages: the
        // Overall build compiles its unit cold, and the Code-only build —
        // same sources, different build file — replays it.
        assert_eq!(
            stats,
            CacheStats {
                hits: 2,
                misses: 2,
                file_hits: 1,
                file_misses: 1,
                ..CacheStats::default()
            },
            "sample 1 must be pure hits; code-only must replay the unit"
        );
    }

    /// A unique scratch dir under the system temp dir (no `tempfile`
    /// crate in the workspace), removed by the test that made it.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "pareval-eval-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).unwrap();
        path
    }

    #[test]
    fn concurrent_load_and_evict_keep_byte_accounting_in_sync() {
        // Regression pin for the load-path accounting bug: `load` used to
        // re-stat the entry file *after* reading it, so an eviction racing
        // between the read and the stat recorded the entry at size 0 and
        // resurrected evicted keys as ghost index entries. The fix accounts
        // the bytes actually read and re-touches under the eviction lock
        // only while the entry still exists.
        let dir = scratch_dir("load-evict");
        let outcome = EvalOutcome {
            built: true,
            passed: true,
            error_category: None,
            build_log: "x".repeat(64),
            error_diagnostics: Vec::new(),
        };
        // Budget fits only a handful of entries, so the storer thread
        // evicts on nearly every insert while loaders hammer a hot key.
        let entry_len = (codec::encode_outcome(&outcome).len() + 16) as u64;
        let cache = DiskCache::open(&dir, entry_len * 4).unwrap();
        cache.store(0, &outcome);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..300 {
                        let _ = cache.load(0);
                    }
                });
            }
            s.spawn(|| {
                for k in 1..300u128 {
                    cache.store(k, &outcome);
                }
            });
        });
        // Quiesced invariant: the index tracks exactly the on-disk entry
        // files, and `total_bytes` is the sum of their real sizes.
        let index = cache.index.lock();
        let mut on_disk = std::collections::BTreeMap::new();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            let hex = name.strip_suffix(".entry").expect("only .entry files");
            let key = u128::from_str_radix(hex, 16).unwrap();
            on_disk.insert(key, entry.metadata().unwrap().len());
        }
        let indexed: std::collections::BTreeMap<u128, u64> = index
            .slots
            .iter()
            .map(|(&key, slot)| (key, slot.size))
            .collect();
        assert_eq!(indexed, on_disk, "index and directory disagree");
        assert_eq!(
            index.total_bytes,
            on_disk.values().sum::<u64>(),
            "total_bytes desynced from real disk usage"
        );
        drop(index);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_index_operations_examine_one_slot_each() {
        // Work-counter pin for the O(n)-scan fix: every index operation
        // examines exactly one slot, so a workload of K operations over N
        // entries costs K visits — the old `Vec::position` index cost
        // O(N) per touch/remove (~N·K/2 visits on this workload).
        const N: u128 = 512;
        let mut index = DiskIndex::default();
        let mut ops = 0u64;
        for k in 0..N {
            index.touch(k, 10);
            ops += 1;
        }
        assert_eq!(index.total_bytes, 10 * N as u64);
        // Re-touch every entry in insertion order (the worst case for the
        // old index: each re-touch scanned to the cold end).
        for k in 0..N {
            index.touch(k, 12);
            ops += 1;
        }
        assert_eq!(index.total_bytes, 12 * N as u64);
        // A key beyond the range is a new slot.
        index.touch(N, 100);
        ops += 1;
        assert_eq!(index.len(), N as usize + 1);
        assert_eq!(index.total_bytes, 12 * N as u64 + 100);
        for k in 0..N / 2 {
            index.remove(k);
            ops += 1;
        }
        // Drain the rest the way eviction does: coldest probe + remove.
        while let Some(k) = index.coldest() {
            ops += 1;
            index.remove(k);
            ops += 1;
        }
        ops += 1; // the final coldest() that found the index empty
        assert_eq!(index.total_bytes, 0);
        assert_eq!(index.len(), 0);
        assert_eq!(
            index.visited, ops,
            "an index operation examined more than one slot"
        );
    }

    #[test]
    fn per_tier_lengths_count_every_tier() {
        // `len()` used to report only the in-memory outcome map; the
        // per-tier counts must see unit entries and disk entries too.
        // Units stay in memory, so the disk tier holds exactly the
        // outcome entries.
        let task = task_named("nanoXOR", TranslationPair::CUDA_TO_OMP_OFFLOAD);
        let model = model_by_name("o4-mini").unwrap();
        let dir = scratch_dir("tier-len");
        let cache = BuildCache::with_disk(&dir, 64 << 20).unwrap();
        assert!(cache.is_empty());
        let pipeline = EvalPipeline {
            eval: eval_config(),
            cache: Some(cache),
        };
        pipeline.run_sample(&task, Technique::NonAgentic, &model, &OracleBackend, 7, 0);
        let cache = pipeline.cache.as_ref().unwrap();
        assert!(
            cache.len_memory() > cache.map.read().len(),
            "unit entries must count toward the memory tier"
        );
        assert_eq!(
            cache.len_disk(),
            cache.map.read().len(),
            "every outcome entry was written through to disk"
        );
        assert!(!cache.is_empty());
        // A fresh cache over the same dir is not empty: the disk tier
        // counts even though the memory tier starts cold.
        let reopened = BuildCache::with_disk(&dir, 64 << 20).unwrap();
        assert_eq!(reopened.len_memory(), 0);
        assert!(!reopened.is_empty());
        assert_eq!(reopened.len_disk(), cache.len_disk());
        drop(pipeline);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn distinct_repos_do_not_collide() {
        let task = task_named("nanoXOR", TranslationPair::CUDA_TO_OMP_OFFLOAD);
        let a = task.app.repo(task.pair.from).unwrap().clone();
        let mut b = a.clone();
        let main = b.iter().map(|(p, _)| p.to_string()).next().unwrap();
        let text = format!("{}\n", b.get(&main).unwrap());
        b.add(main, text);
        let eval = eval_config();
        assert_ne!(
            BuildCache::key(&task, &a, &eval),
            BuildCache::key(&task, &b, &eval)
        );
    }
}
