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
//! [`EvalPipeline`] owns the [`EvalConfig`] knobs plus a [`BuildCache`]
//! keyed by the content hash of the evaluated repository (and everything
//! else that determines the outcome: binary, app, target model, eval
//! knobs), so:
//!
//! - the Code-only scoring reuses the Overall build whenever the translated
//!   build file already matches ground truth (the two repos are then
//!   identical, hence the same key), and the Overall build's test runs
//!   whenever the two builds link the same program, and
//! - [`ScheduledRunner`](crate::sched::ScheduledRunner) workers share hits
//!   across threads — one pipeline serves the whole run, and each outcome
//!   is evaluated once however the workers interleave (a worker that asks
//!   for an outcome another is evaluating waits for it).
//!
//! A cache hit returns a clone of the stored [`EvalOutcome`]; since the
//! build + run substrate is deterministic, a hit is byte-identical to the
//! cold evaluation it replaced (`tests/backends.rs` proves this by
//! property test, `tests/determinism.rs` end to end).

use crate::journal::{codec, read_frame, write_frame, FRAME_HEADER};
use crate::plan::{ExperimentPlan, SampleSpec};
use crate::runner::SampleRecord;
use crate::task::{EvalConfig, EvalOutcome, RepairRound, SampleResult, Task};
use minihpc_analyze::{AnalysisFinding, Confidence};
use minihpc_build::preprocess::ParsedFile;
use minihpc_build::{build_repo_with, BuildRequest, CompiledUnit, ErrorCategory, UnitCache};
use minihpc_lang::fnv::{fnv128, Fnv128};
use minihpc_lang::memo::OnceMap;
use minihpc_lang::repo::{FileKind, SourceRepo};
use minihpc_runtime::{run, RunConfig};
use pareval_llm::{AttemptSpec, ModelProfile, RepairContext, RepairOutcome, TranslationBackend};
use pareval_translate::techniques::{translate_with, TranslationJob};
use pareval_translate::Technique;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
    /// Distinct file contents parsed cold, by build assembly and the
    /// analyzer together: both parse through one memo.
    pub parses: u64,
    /// Test-case runs of a linked program made cold: one per distinct
    /// (executable key, step budget, case arguments). Outcome misses that
    /// link the same program, such as a sample's Overall and Code-only
    /// builds, share its runs.
    pub runs: u64,
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

/// The persistent tier of a [`BuildCache`]: one append-only log,
/// `outcomes.log`, in a directory that processes may share. Each record is
/// a journal frame ([`write_frame`]) whose payload is the 16-byte outcome
/// key followed by the encoded outcome. The key hashes every input that
/// can change the stored value, so a harness whose key computation changes
/// (a new knob, a new hash input, a codec bump) simply stops matching old
/// records; it can never be served a stale value computed under different
/// semantics.
///
/// Processes coordinate through locks on the log file: a load holds a
/// shared lock, a store an exclusive one. Under either, a process first
/// reopens the log if another process's compaction renamed a new one into
/// place, then indexes the frames appended since its last known offset. So
/// live processes see each other's entries and hold one byte budget.
///
/// Durability is best-effort by design. A frame that fails its checksum (a
/// torn write, bit rot) ends the readable log, as in journal replay, and
/// the next store truncates it away before appending. A frame whose
/// payload does not decode is a miss. A corrupted entry can cost a rebuild,
/// never a wrong result. I/O errors (disk full, permissions) are
/// swallowed; the run continues on the memory tier.
///
/// The log keeps write order, and eviction follows it: when a store takes
/// the log past the budget, the storing process copies the newest frames
/// that fit half the budget (at least the one just stored) into a new log
/// and renames it into place. So one rewrite pays for many appends, and
/// frames a key's later store superseded drop off with the cold end.
/// Loads do not reorder entries: the cold end is the oldest write, as the
/// per-file tier's mtimes were (its loads never touched them).
///
/// Only outcomes persist. Compile units stay in memory: decoding an AST
/// from disk cost more than re-running sema. `.unit` and `.entry` files
/// left in the directory by older harness versions are ignored and can be
/// deleted.
#[derive(Debug)]
struct DiskCache {
    path: PathBuf,
    budget: u64,
    log: Mutex<DiskLog>,
}

/// One indexed frame of the log: its offset and its size with the frame
/// header.
#[derive(Debug, Clone, Copy)]
struct IndexSlot {
    offset: u64,
    size: u64,
}

/// A process's index of the log: each key's live frame, the last one
/// written for it.
///
/// Invariant (held under the [`DiskCache::log`] lock): `end` is the offset
/// just past the last frame indexed.
///
/// `visited` is the work counter the regression test pins: **contract —
/// every index operation (`push`/`remove`) increments it by exactly 1**,
/// i.e. examines one slot, never a scan. A reintroduced linear scan has
/// nowhere to hide: it would have to bump `visited` per element examined
/// (as the dbscan fix's counter does) and the test's equality assertion
/// fails.
#[derive(Debug, Default)]
struct DiskIndex {
    slots: HashMap<u128, IndexSlot>,
    end: u64,
    visited: u64,
}

impl DiskIndex {
    /// Index the frame of `size` bytes at `end` as `key`'s live frame.
    fn push(&mut self, key: u128, size: u64) {
        self.visited += 1;
        let offset = self.end;
        self.slots.insert(key, IndexSlot { offset, size });
        self.end += size;
    }

    fn remove(&mut self, key: u128) {
        self.visited += 1;
        self.slots.remove(&key);
    }
}

/// The log file a process has open, and its index.
#[derive(Debug)]
struct DiskLog {
    file: File,
    index: DiskIndex,
}

/// How an operation locks the log: [`File::lock_shared`] or [`File::lock`].
type Lock = fn(&File) -> std::io::Result<()>;

/// The identity of a file (device and inode), which a rename into its path
/// changes. Unix only: elsewhere the disk tier does not open.
#[cfg(unix)]
fn file_id(meta: &std::fs::Metadata) -> std::io::Result<(u64, u64)> {
    use std::os::unix::fs::MetadataExt;
    Ok((meta.dev(), meta.ino()))
}

#[cfg(not(unix))]
fn file_id(_: &std::fs::Metadata) -> std::io::Result<(u64, u64)> {
    Err(std::io::ErrorKind::Unsupported.into())
}

impl DiskLog {
    fn open(path: &Path) -> std::io::Result<DiskLog> {
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let index = DiskIndex::default();
        Ok(DiskLog { file, index })
    }

    /// Lock the log at `path` with `lock` and index the frames appended past the
    /// index's end, up to the first that does not validate. A log that
    /// another process's compaction replaced, or that was cut below the
    /// index's end, is reopened and indexed from the start.
    fn refresh(&mut self, path: &Path, lock: Lock) -> std::io::Result<()> {
        loop {
            lock(&self.file)?;
            let meta = self.file.metadata()?;
            let id = file_id(&meta)?;
            let current = std::fs::metadata(path).is_ok_and(|m| file_id(&m).ok() == Some(id));
            if current && meta.len() >= self.index.end {
                break;
            }
            // Dropping the old file releases its lock.
            *self = DiskLog::open(path)?;
        }
        let mut reader = BufReader::new(&self.file);
        reader.seek(SeekFrom::Start(self.index.end))?;
        while let Some(payload) = read_frame(&mut reader) {
            let Some(key) = payload.first_chunk::<16>() else {
                break;
            };
            let size = FRAME_HEADER + payload.len() as u64;
            self.index.push(u128::from_le_bytes(*key), size);
        }
        Ok(())
    }

    /// The validated payload of the frame at `slot`.
    fn payload(&self, slot: IndexSlot) -> Option<Vec<u8>> {
        let mut file = &self.file;
        file.seek(SeekFrom::Start(slot.offset)).ok()?;
        read_frame(&mut file.take(slot.size))
    }

    /// Append `key`'s frame at the index's end, first truncating a torn
    /// tail past it.
    fn append(&mut self, key: u128, payload: &[u8]) -> std::io::Result<()> {
        let mut frame = Vec::new();
        write_frame(&mut frame, payload)?;
        self.file.set_len(self.index.end)?;
        let mut file = &self.file;
        file.seek(SeekFrom::Start(self.index.end))?;
        file.write_all(&frame)?;
        self.index.push(key, frame.len() as u64);
        Ok(())
    }

    /// Keep the log's newest frames that fit `keep` bytes, and at least
    /// the one at `newest`: copy them to a new log, rename it onto `path`,
    /// and lock and index it. Returns how many entries were evicted.
    fn compact(&mut self, path: &Path, keep: u64, newest: u64) -> std::io::Result<u64> {
        let end = self.index.end;
        let offsets = self.index.slots.values().map(|slot| slot.offset);
        let fits = offsets.clone().filter(|&at| end - at <= keep);
        let cut = fits.chain([newest]).min().unwrap_or(newest);
        let evicted = offsets.filter(|&at| at < cut).count() as u64;
        let tmp = path.with_extension("log.tmp");
        let mut file = &self.file;
        file.seek(SeekFrom::Start(cut))?;
        std::io::copy(&mut file, &mut File::create(&tmp)?)?;
        std::fs::rename(&tmp, path)?;
        *self = DiskLog::open(path)?;
        self.refresh(path, File::lock).map(|()| evicted)
    }
}

impl DiskCache {
    /// Open (creating if needed) the cache directory and its log, and index
    /// the log. Fails if the directory or the log cannot be opened or
    /// locked.
    fn open(dir: &Path, budget: u64) -> std::io::Result<DiskCache> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("outcomes.log");
        let mut log = DiskLog::open(&path)?;
        log.refresh(&path, File::lock_shared)?;
        log.file.unlock()?;
        let log = Mutex::new(log);
        Ok(DiskCache { path, budget, log })
    }

    /// Run `op` on the log refreshed under `lock` (see
    /// [`DiskLog::refresh`]), then unlock; `None` when the log cannot be
    /// locked or read.
    fn locked<R>(&self, lock: Lock, op: impl FnOnce(&mut DiskLog) -> Option<R>) -> Option<R> {
        let mut log = self.log.lock().expect("cache lock poisoned");
        let result = log
            .refresh(&self.path, lock)
            .ok()
            .and_then(|()| op(&mut log));
        let _ = log.file.unlock();
        result
    }

    /// Read-through lookup of a verified outcome. A frame that fails to
    /// read, carries another key or does not decode is a miss and leaves
    /// the index, so the key's next store appends it afresh; it can never
    /// surface as a wrong value.
    fn load(&self, key: u128) -> Option<EvalOutcome> {
        self.locked(File::lock_shared, |log| {
            let slot = *log.index.slots.get(&key)?;
            let value = log.payload(slot).and_then(|payload| {
                codec::decode_outcome(payload.strip_prefix(&key.to_le_bytes())?)
            });
            if value.is_none() {
                log.index.remove(key);
            }
            value
        })
    }

    /// Write-through insert: append the outcome's frame, unless another
    /// process stored the key first, and compact the log once it exceeds
    /// the budget. Returns how many entries were evicted.
    fn store(&self, key: u128, outcome: &EvalOutcome) -> u64 {
        let mut payload = key.to_le_bytes().to_vec();
        payload.extend(codec::encode_outcome(outcome));
        let evicted = self.locked(File::lock, |log| {
            if log.index.slots.contains_key(&key) {
                return Some(0);
            }
            log.append(key, &payload).ok()?;
            if log.index.end <= self.budget {
                return Some(0);
            }
            let newest = log.index.slots[&key].offset;
            log.compact(&self.path, self.budget / 2, newest).ok()
        });
        evicted.unwrap_or(0)
    }
}

/// A content-addressed memo of build + run outcomes: an in-memory
/// [`OnceMap`], optionally backed by a persistent disk tier shared across
/// processes (see [`EvalConfig::disk_cache_dir`]). An outcome missing from
/// memory is loaded from disk, or else evaluated cold and written to disk.
/// Beneath the outcomes sit three in-memory memos a cold evaluation goes
/// through: parsed files and per-file compile units for the build, and
/// test runs keyed by the linked program's content for the tests.
///
/// Thread-safe, and each outcome, analysis, parse and run is derived once:
/// a worker that asks for one another worker is deriving waits for it, so
/// the cold work and the counters do not depend on how workers interleave.
/// The unit tier is the exception (see [`UnitCache`]).
#[derive(Debug, Default)]
pub struct BuildCache {
    outcomes: OnceMap<u128, EvalOutcome>,
    /// The file-granular tier: per-file compile units (parse + sema +
    /// object) keyed by include-closure content (see
    /// [`minihpc_build::unit::unit_key`]), in memory only. Outcome hits
    /// never reach this tier; it pays off on outcome *misses* whose repos
    /// share files with earlier builds — a repair round that touched one
    /// file re-compiles one unit and re-runs only link + test.
    units: OnceMap<u128, CompiledUnit>,
    /// The one parse memo: `Arc`-shared ASTs keyed by each file body's
    /// content hash ([`SourceRepo::body_hash`]). Unit lookup needs the
    /// include closure, which needs every file parsed — this memo makes
    /// that discovery pass reparse only changed files, and the analyzer
    /// reads the same ASTs. A hit is a pointer clone, and no
    /// unit copies the items out of the ASTs it shares.
    parses: OnceMap<u128, ParsedFile>,
    /// Analyzer findings memoized by the same content key as build
    /// outcomes: the analysis is pure over repo content, so a repeated
    /// evaluation (Code-only reuse, repair rounds that re-emit unchanged
    /// files) reuses its findings alongside the cached objects.
    analysis: OnceMap<u128, Vec<AnalysisFinding>>,
    /// Test runs keyed by (executable key, step budget, case arguments),
    /// holding only what a verdict reads. Outcome misses that link the
    /// same program, such as a sample's Overall and Code-only builds, run
    /// each case once, whatever order their build files link the objects
    /// in. The verdict (expected output, GPU rule) is still judged per
    /// evaluation.
    runs: OnceMap<u128, CaseRun>,
    disk: Option<DiskCache>,
    hits: AtomicU64,
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

    /// Names the outcome key's format. Disk entries written under another
    /// format (v1 hashed every file's text) are simply never looked up.
    const KEY_VERSION: &'static [u8] = b"outcome-v2";

    /// The full outcome key: repo content plus every input that changes
    /// what `evaluate` returns for it. Each file enters as its path and its
    /// body's content hash ([`SourceRepo::iter_hashed`]), hashed once per
    /// body and carried by the repo's clones, so re-keying a repo that
    /// shares bodies with a keyed one (the Code-only overlay, a repair
    /// round) hashes only the new bodies.
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
        h.field(Self::KEY_VERSION);
        h.field(task.app.binary.as_bytes());
        h.field(task.app.name.as_bytes());
        h.field(task.pair.id().as_bytes());
        h.field(&max_cases.to_le_bytes());
        h.field(&max_steps.to_le_bytes());
        h.field(&repair_budget.to_le_bytes());
        h.field(&repair_diag_lines.to_le_bytes());
        // Hashed only when the analyzer is on, so analyzer-off keys (and
        // the disk entries named by them) do not depend on the analyzer's
        // knobs.
        if *analyze {
            h.field(b"analyze");
            h.field(&analyze_max_findings.to_le_bytes());
        }
        // Same discipline: guided repair changes what repair rounds
        // produce, and default-config (blind) keys leave it out.
        if *repair_guided {
            h.field(b"repair-guided");
        }
        for (path, body_hash) in repo.iter_hashed() {
            h.field(path.as_bytes());
            h.field(&body_hash.to_le_bytes());
        }
        h.finish()
    }

    /// Entries in the in-memory tiers: whole-repo outcomes plus per-file
    /// compile units. The disk tier is counted separately by [`len_disk`].
    ///
    /// [`len_disk`]: BuildCache::len_disk
    pub fn len_memory(&self) -> usize {
        self.outcomes.len() + self.units.len()
    }

    /// Outcome entries currently indexed in the persistent disk tier (0
    /// when no disk tier is configured). Compile units never reach disk.
    pub fn len_disk(&self) -> usize {
        self.disk
            .as_ref()
            .and_then(|d| d.locked(File::lock_shared, |log| Some(log.index.slots.len())))
            .unwrap_or(0)
    }

    /// No entries in any tier, memory or disk.
    pub fn is_empty(&self) -> bool {
        self.len_memory() == 0 && self.len_disk() == 0
    }

    pub fn stats(&self) -> CacheStats {
        let disk_hits = self.disk_hits.load(Ordering::Relaxed);
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            // Every outcome derivation the disk tier did not serve ran cold.
            misses: (self.outcomes.derivations() as u64).saturating_sub(disk_hits),
            disk_hits,
            file_hits: self.file_hits.load(Ordering::Relaxed),
            file_misses: self.file_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            parses: self.parses.derivations() as u64,
            runs: self.runs.derivations() as u64,
        }
    }
}

/// The file-granular cache seam the build driver compiles through (see
/// [`minihpc_build::driver::build_repo_with`]): parses memoized by each
/// body's content hash, compile units by include-closure key, both in
/// memory.
///
/// Parses are derived once, like outcomes, and shared by `Arc`. Units go
/// through the trait's split lookup and store, so two workers that miss the
/// same unit at once both compile it, and at two or more workers
/// `file_hits`/`file_misses` depend on timing (ROADMAP item 5, "Subtract,
/// round 2: close the tier trials", decides whether the tier stays).
impl UnitCache for BuildCache {
    fn parse_file(&self, text: &str) -> ParsedFile {
        self.parse_hashed(fnv128(text.as_bytes()), text)
    }

    /// The parse memo is keyed by the body hash alone: a hit reads no text.
    fn parse_hashed(&self, hash: u128, text: &str) -> ParsedFile {
        // The memo keeps a compact clone: the parser's own vectors carry
        // growth slack, and the memo holds every AST for the whole run.
        let parse = || minihpc_lang::parser::parse_file(text).map(|f| Arc::new(f.clone()));
        self.parses.get_or_init(hash, parse)
    }

    fn lookup_unit(&self, key: u128) -> Option<CompiledUnit> {
        let hit = self.units.get(&key);
        let counter = if hit.is_some() {
            &self.file_hits
        } else {
            &self.file_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    fn store_unit(&self, key: u128, unit: &CompiledUnit) {
        self.units.get_or_init(key, || unit.clone());
    }
}

/// What a test verdict reads of one run of a program.
#[derive(Debug, Clone)]
struct CaseRun {
    /// No runtime error and exit code 0.
    clean: bool,
    /// Boxed, so the memo holds no growth slack.
    stdout: Box<str>,
    ran_on_device: bool,
}

/// A pipeline's cache with one repo's outcome key, hashed once per (repo,
/// round); `None` when the cache is off.
type Keyed<'a> = Option<(&'a BuildCache, u128)>;

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

        // The Overall outcome key is hashed once per (repo, round): the
        // build and the analyzer are both memoized under it.
        let keyed = self.keyed(task, &repo);
        let mut overall = self.evaluate_keyed(task, &repo, keyed);
        let mut code_only = self.code_only_outcome(task, &repo, &overall);
        // The post-build verdict stage: static race/directive analysis of
        // the translated repository (always empty with the analyzer off).
        let mut analysis = self.analyze(&repo, keyed);

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
                            let keyed = self.keyed(task, &repo);
                            overall = self.evaluate_keyed(task, &repo, keyed);
                            code_only = self.code_only_outcome(task, &repo, &overall);
                            analysis = self.analyze(&repo, keyed);
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

    /// The cache and `repo`'s outcome key under it, when a cache is
    /// enabled. [`evaluate`](Self::evaluate) and the analyzer memoize under
    /// the same key.
    fn keyed(&self, task: &Task, repo: &SourceRepo) -> Keyed<'_> {
        let cache = self.cache.as_ref()?;
        Some((cache, BuildCache::key(task, repo, &self.eval)))
    }

    /// The analyzer verdict for `repo`, memoized under its outcome key when
    /// a cache is enabled, and parsing through the cache's parse memo, so a
    /// file the build just parsed is not parsed again. Always empty with
    /// [`EvalConfig::analyze`] off; otherwise sorted findings, truncated to
    /// [`EvalConfig::analyze_max_findings`].
    fn analyze(&self, repo: &SourceRepo, keyed: Keyed) -> Vec<AnalysisFinding> {
        if !self.eval.analyze {
            return Vec::new();
        }
        let analyze = |cache: Option<&dyn UnitCache>| {
            let mut findings = minihpc_analyze::analyze_repo_with(repo, cache);
            findings.truncate(self.eval.analyze_max_findings);
            findings
        };
        match keyed {
            Some((cache, key)) => cache.analysis.get_or_init(key, || analyze(Some(cache))),
            None => analyze(None),
        }
    }

    /// Code-only scoring of `translated`: swap in the ground-truth build
    /// file. When the translated build file already matches it, the rebuilt
    /// repo hashes to the same key and the Overall evaluation is reused
    /// wholesale.
    ///
    /// The overlay repo is a clone of `translated` — which shares file
    /// bodies by handle ([`SourceRepo`] stores
    /// [`Body`](minihpc_lang::repo::Body) handles), so swapping the build
    /// file costs two map edits, not a deep copy of every source.
    /// The unchanged sources also keep their content, so the file tier
    /// serves their compile units straight from the Overall build. The
    /// ground-truth build file is added by handle too: the task's copy is
    /// hashed on its first overlay, not when the suite is built, and every
    /// later overlay carries that hash.
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
                gt_text.hash();
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
        self.evaluate_keyed(task, repo, self.keyed(task, repo))
    }

    /// [`evaluate`](Self::evaluate) with the outcome key already hashed.
    fn evaluate_keyed(&self, task: &Task, repo: &SourceRepo, keyed: Keyed) -> EvalOutcome {
        let Some((cache, key)) = keyed else {
            return evaluate_uncached(task, repo, &self.eval, None);
        };
        let mut derived = false;
        let outcome = cache.outcomes.get_or_init(key, || {
            derived = true;
            // Not in memory: load it from disk, or else evaluate it cold
            // and store it there.
            if let Some(hit) = cache.disk.as_ref().and_then(|d| d.load(key)) {
                cache.disk_hits.fetch_add(1, Ordering::Relaxed);
                return hit;
            }
            let outcome = evaluate_uncached(task, repo, &self.eval, Some(cache));
            if let Some(disk) = &cache.disk {
                let evicted = disk.store(key, &outcome);
                cache.evictions.fetch_add(evicted, Ordering::Relaxed);
            }
            outcome
        });
        if !derived {
            cache.hits.fetch_add(1, Ordering::Relaxed);
        }
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
/// tests (right answers, on the specified hardware). With a `cache`, the
/// build compiles through its file-granular tiers and each test run is
/// memoized by the linked program's content key.
fn evaluate_uncached(
    task: &Task,
    repo: &SourceRepo,
    eval: &EvalConfig,
    cache: Option<&BuildCache>,
) -> EvalOutcome {
    let units = cache.map(|c| c as &dyn UnitCache);
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
        let run_case = || {
            let mut cfg = RunConfig::with_args(case.args.iter().cloned());
            cfg.max_steps = eval.max_steps;
            let r = run(&exe, cfg);
            CaseRun {
                clean: r.error.is_none() && r.exit_code == 0,
                stdout: r.stdout.into_boxed_str(),
                ran_on_device: r.telemetry.ran_on_device(),
            }
        };
        let r = match (cache, exe.key) {
            (Some(cache), Some(exe_key)) => {
                let mut h = Fnv128::new();
                h.field(&exe_key.to_le_bytes());
                h.field(&eval.max_steps.to_le_bytes());
                for arg in &case.args {
                    h.field(arg.as_bytes());
                }
                cache.runs.get_or_init(h.finish(), run_case)
            }
            _ => run_case(),
        };
        // The reference is fetched only for a candidate that ran cleanly.
        let ok = r.clean
            && *r.stdout == task.app.expected_output(case)
            && (!task.pair.to.is_gpu() || r.ran_on_device);
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
    use minihpc_build::Executable;
    use minihpc_lang::model::TranslationPair;
    use pareval_llm::{model_by_name, OracleBackend, SimulatedBackend};
    use std::collections::BTreeMap;

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
        // same sources, different build file — replays it, links the same
        // program and so shares its one test run.
        assert_eq!(
            stats,
            CacheStats {
                hits: 2,
                misses: 2,
                file_hits: 1,
                file_misses: 1,
                parses: 1,
                runs: 1,
                ..CacheStats::default()
            },
            "sample 1 must be pure hits; code-only must replay the unit and the run"
        );
    }

    /// `task`'s ground-truth build file with its source list reversed.
    fn reversed_ground_truth(task: &Task) -> (String, String) {
        let (gt_path, gt_text) = &task.app.ground_truth_build[&task.pair.to];
        let binary = &task.app.binary;
        let (make_rule, cmake_rule) = (format!("{binary}: "), format!("add_executable({binary} "));
        let sources = gt_text
            .lines()
            .find_map(|line| {
                line.strip_prefix(&make_rule)
                    .or_else(|| line.strip_prefix(&cmake_rule)?.strip_suffix(')'))
            })
            .expect("the ground-truth build file lists the binary's sources");
        let reversed: Vec<&str> = sources.split(' ').rev().collect();
        (
            gt_path.clone(),
            gt_text.replace(sources, &reversed.join(" ")),
        )
    }

    /// The oracle's translation of `task`, with its ground-truth Makefile
    /// reversed. So the Overall and Code-only scorings are distinct
    /// outcomes, each built cold, that link the same program.
    fn oracle_with_reversed_makefile(task: &Task) -> SourceRepo {
        let model = model_by_name("o4-mini").unwrap();
        let source_repo = task.app.repo_arc(task.pair.from).unwrap();
        let spec = AttemptSpec {
            model: &model,
            technique: Technique::NonAgentic,
            pair: task.pair,
            app_name: &task.app.name,
            source_repo: Arc::clone(&source_repo),
            seed: 7,
            sample: 0,
        };
        let job = TranslationJob {
            app_name: &task.app.name,
            binary: &task.app.binary,
            source_repo: &source_repo,
            pair: task.pair,
            cli_spec: &task.app.cli_spec,
            build_spec: &task.app.build_spec,
        };
        let mut attempt = OracleBackend.start_attempt(&spec);
        let mut repo = translate_with(Technique::NonAgentic, &job, &mut attempt)
            .repo
            .unwrap();
        let (gt_path, reordered) = reversed_ground_truth(task);
        assert_ne!(reordered, *task.app.ground_truth_build[&task.pair.to].1);
        repo.add(gt_path, reordered);
        repo
    }

    /// Both scorings of `app`'s reversed-Makefile translation pass, and
    /// the run memo runs its first test case once, as the uncached
    /// pipeline scores them.
    fn assert_both_scorings_share_one_run(app: &str) {
        let task = task_named(app, TranslationPair::CUDA_TO_OMP_OFFLOAD);
        let repo = oracle_with_reversed_makefile(&task);
        let pipeline = EvalPipeline::new(eval_config());
        let overall = pipeline.evaluate(&task, &repo);
        let code_only = pipeline.code_only_outcome(&task, &repo, &overall);
        assert!(overall.passed && code_only.passed);
        let stats = pipeline.cache_stats();
        assert_eq!(
            (stats.misses, stats.runs),
            (2, 1),
            "two cold outcomes, one cold run: {stats:?}"
        );
        let uncached = EvalPipeline::new(EvalConfig {
            build_cache: false,
            ..eval_config()
        });
        let cold = uncached.evaluate(&task, &repo);
        assert_eq!(cold, overall);
        assert_eq!(uncached.code_only_outcome(&task, &repo, &cold), code_only);
    }

    #[test]
    fn overall_and_code_only_builds_of_one_program_share_its_runs() {
        assert_both_scorings_share_one_run("microXOR");
    }

    #[test]
    fn builds_whose_objects_share_a_headers_globals_share_their_runs() {
        // Every llm.c object defines the macros of `src/llmc.h` as globals,
        // every XSBench object `N_CHANNELS`, and only its `materials.o`
        // `MAX_NUCS`. The linker keeps one copy of each, so both orders
        // link one program, which runs once.
        assert_both_scorings_share_one_run("llm.c");
        assert_both_scorings_share_one_run("XSBench");
    }

    /// The oracle translation of `task` built with its ground-truth build
    /// file as given and with its source list reversed, through one cache,
    /// or `None` when it does not build.
    fn ground_truth_and_reversed_builds(task: &Task) -> Option<[Executable; 2]> {
        let mut translated = pareval_translate::transpile_repo(
            &task.app.repo_arc(task.pair.from).unwrap(),
            task.pair,
            &task.app.binary,
        );
        let build_files: Vec<String> = translated
            .iter()
            .filter(|(p, _)| FileKind::of(p).is_build_file())
            .map(|(p, _)| p.to_string())
            .collect();
        for p in build_files {
            translated.remove(&p);
        }
        let (gt_path, gt_text) = &task.app.ground_truth_build[&task.pair.to];
        let cache = BuildCache::new();
        let reversed = reversed_ground_truth(task);
        let [a, b] = [(gt_path.clone(), gt_text.to_string()), reversed].map(|(path, text)| {
            let mut repo = translated.clone();
            repo.add(path, text);
            build_repo_with(&repo, &BuildRequest::new(&*task.app.binary), Some(&cache)).executable
        });
        Some([a?, b?])
    }

    #[test]
    fn reversing_a_ground_truth_makefile_moves_no_apps_key() {
        // Each offload ground-truth Makefile, with its source list
        // reversed, links the oracle translation of its app to one key.
        // Every XSBench object defines the header's `N_CHANNELS` macro as a
        // global, and `materials.o` adds its own `MAX_NUCS`; the linker
        // keeps one copy of each, so both orders link one program.
        let (mut checked, mut moved, mut globals) = (0, Vec::new(), Vec::new());
        for task in all_tasks() {
            if task.pair != TranslationPair::CUDA_TO_OMP_OFFLOAD {
                continue;
            }
            checked += 1;
            let [ground_truth, reversed] =
                ground_truth_and_reversed_builds(&task).expect("the oracle translation builds");
            let key = |exe: &Executable| {
                exe.key
                    .expect("every object compiled through the unit tier")
            };
            if key(&ground_truth) != key(&reversed) {
                moved.push(task.app.name.to_string());
            }
            if !ground_truth.globals.is_empty() {
                globals.push((task.app.name.to_string(), ground_truth.globals.len()));
            }
        }
        assert_eq!((checked, moved), (6, Vec::<String>::new()));
        // One global per macro: 8 and 20 when each object kept its copies.
        assert_eq!(
            globals,
            [("XSBench".to_string(), 2), ("llm.c".to_string(), 4)]
        );
    }

    #[test]
    fn builds_that_link_to_one_key_run_alike() {
        // Every task with a ground-truth build file, linked in its order and
        // in reversed source order: wherever the keys agree, the run memo
        // would share one run, so both programs must run alike.
        let mut compared = Vec::new();
        for task in all_tasks() {
            if !task.app.ground_truth_build.contains_key(&task.pair.to) {
                continue;
            }
            let Some([ground_truth, reversed]) = ground_truth_and_reversed_builds(&task) else {
                continue;
            };
            if ground_truth.key != reversed.key {
                continue;
            }
            let case = &task.app.tests[0];
            let [a, b] = [&ground_truth, &reversed]
                .map(|exe| run(exe, RunConfig::with_args(case.args.iter().cloned())));
            let what = format!("{} {:?}", task.app.name, task.pair);
            assert_eq!(a.stdout, b.stdout, "{what}");
            assert_eq!(a.exit_code, b.exit_code, "{what}");
            assert_eq!(a.error, b.error, "{what}");
            assert_eq!(a.steps, b.steps, "{what}");
            assert_eq!(a.telemetry, b.telemetry, "{what}");
            assert_eq!(a.races, b.races, "{what}");
            compared.push(what);
        }
        // Every task whose oracle translation builds: all but the two
        // Kokkos translations the oracle transpiler cannot solve
        // (SimpleMOC-kernel and XSBench).
        assert_eq!(compared.len(), 14, "{compared:?}");
    }

    #[test]
    fn a_parse_memo_hit_shares_the_memoized_ast() {
        let cache = BuildCache::new();
        let text = "int main() { return 0; }\n";
        let first = cache.parse_file(text).unwrap();
        let second = cache.parse_file(text).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "a memo hit must hand out the memoized AST, not a copy"
        );
        assert_eq!(cache.stats().parses, 1);
    }

    #[test]
    fn analyzing_a_repo_the_build_just_parsed_parses_nothing_new() {
        // microXOR's three code files (two sources and the header both
        // include) are all reached by its build, so the analyzer finds
        // every AST it needs in the parse memo.
        let task = task_named("microXOR", TranslationPair::CUDA_TO_OMP_OFFLOAD);
        let repo = task.app.repo(task.pair.from).unwrap();
        let pipeline = EvalPipeline::new(EvalConfig {
            analyze: true,
            ..eval_config()
        });
        let keyed = pipeline.keyed(&task, repo);
        pipeline.evaluate_keyed(&task, repo, keyed);
        let parsed = pipeline.cache_stats().parses;
        let code_files = repo.iter().filter(|(p, _)| FileKind::of(p).is_code());
        assert_eq!(parsed, code_files.count() as u64);
        let findings = pipeline.analyze(repo, keyed);
        assert_eq!(
            pipeline.cache_stats().parses,
            parsed,
            "the analyzer must parse through the build's memo"
        );
        assert_eq!(findings, minihpc_analyze::analyze_repo(repo));
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

    /// Every frame of the log at `path`, read independently of any index:
    /// each key's last frame, as (key, (offset, size)).
    fn log_frames(path: &Path) -> BTreeMap<u128, (u64, u64)> {
        let bytes = std::fs::read(path).unwrap();
        let mut reader = bytes.as_slice();
        let mut frames = BTreeMap::new();
        let mut offset = 0;
        while let Some(payload) = read_frame(&mut reader) {
            let key = u128::from_le_bytes(payload[..16].try_into().unwrap());
            let size = FRAME_HEADER + payload.len() as u64;
            frames.insert(key, (offset, size));
            offset += size;
        }
        assert_eq!(offset, bytes.len() as u64, "the log has a torn tail");
        frames
    }

    #[test]
    fn concurrent_load_and_evict_keep_byte_accounting_in_sync() {
        // Loaders hammer a hot key while a storer appends and compacts on
        // nearly every insert. Afterwards the index must describe exactly
        // the log's live frames, offsets and sizes included.
        let dir = scratch_dir("load-evict");
        let outcome = EvalOutcome {
            built: true,
            passed: true,
            error_category: None,
            build_log: "x".repeat(64),
            error_diagnostics: Vec::new(),
        };
        // Budget fits only a handful of entries.
        let entry_len = FRAME_HEADER + 16 + codec::encode_outcome(&outcome).len() as u64;
        let cache = DiskCache::open(&dir, entry_len * 4).unwrap();
        cache.store(0, &outcome);
        let evicted = std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..300 {
                        // Evicted or not, never a wrong value.
                        assert!(cache.load(0).is_none_or(|hit| hit == outcome));
                    }
                });
            }
            s.spawn(|| (1..300u128).map(|k| cache.store(k, &outcome)).sum::<u64>())
                .join()
                .unwrap()
        });
        assert!(evicted > 0, "the budget never forced an eviction");
        let log = cache.log.lock().expect("cache lock poisoned");
        let on_disk = log_frames(&cache.path);
        let indexed: BTreeMap<u128, (u64, u64)> = log
            .index
            .slots
            .iter()
            .map(|(&key, slot)| (key, (slot.offset, slot.size)))
            .collect();
        assert_eq!(indexed, on_disk, "index and log disagree");
        assert!(log.index.end <= entry_len * 4, "the log exceeds its budget");
        drop(log);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_oversized_frame_length_ends_the_log_and_the_next_store_cuts_it() {
        // A frame whose length field exceeds the reader's bound is garbage:
        // the log ends at the frame before it, and a store truncates it
        // away before appending.
        let dir = scratch_dir("oversized");
        let outcome = EvalOutcome {
            built: false,
            passed: false,
            error_category: Some(ErrorCategory::CodeSyntax),
            build_log: "error".into(),
            error_diagnostics: Vec::new(),
        };
        let cache = DiskCache::open(&dir, 64 << 20).unwrap();
        cache.store(1, &outcome);
        cache.store(2, &outcome);
        let intact = std::fs::metadata(&cache.path).unwrap().len();
        let mut log = File::options().append(true).open(&cache.path).unwrap();
        let mut header = u32::MAX.to_le_bytes().to_vec();
        header.extend([0; 8 + 32]);
        log.write_all(&header).unwrap();
        drop(log);
        let cache = DiskCache::open(&dir, 64 << 20).unwrap();
        assert_eq!(cache.log.lock().unwrap().index.end, intact);
        assert_eq!(cache.load(2), Some(outcome.clone()));
        cache.store(3, &outcome);
        let frames = log_frames(&cache.path);
        assert_eq!(frames.keys().copied().collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(frames[&3].0, intact, "the store did not cut the tail");
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
        let live = |index: &DiskIndex| index.slots.values().map(|s| s.size).sum::<u64>();
        let mut ops = 0u64;
        for k in 0..N {
            index.push(k, 10);
            ops += 1;
        }
        assert_eq!(live(&index), 10 * N as u64);
        // Re-store every entry in insertion order (the worst case for the
        // old index: each re-touch scanned to the cold end).
        for k in 0..N {
            index.push(k, 12);
            ops += 1;
        }
        assert_eq!(live(&index), 12 * N as u64);
        assert_eq!(index.end, 22 * N as u64);
        // A key beyond the range is a new slot.
        index.push(N, 100);
        ops += 1;
        assert_eq!(index.slots.len(), N as usize + 1);
        assert_eq!(live(&index), 12 * N as u64 + 100);
        for k in 0..=N {
            index.remove(k);
            ops += 1;
        }
        assert_eq!(live(&index), 0);
        assert_eq!(index.slots.len(), 0);
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
            cache.len_memory() > cache.outcomes.len(),
            "unit entries must count toward the memory tier"
        );
        assert_eq!(
            cache.len_disk(),
            cache.outcomes.len(),
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

    /// Property tests of the outcome key.
    mod key_props {
        use super::*;
        use proptest::prelude::*;

        /// Two to five files with distinct paths and short ASCII bodies.
        fn files() -> impl Strategy<Value = Vec<(String, String)>> {
            let file = (0u8..8, proptest::collection::vec(32u8..127, 0..24));
            proptest::collection::vec(file, 2..6).prop_map(|raw| {
                let files: BTreeMap<String, String> = raw
                    .into_iter()
                    .map(|(p, body)| (format!("src/f{p}.c"), String::from_utf8(body).unwrap()))
                    .collect();
                files.into_iter().collect()
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// One content has one outcome key, however the repo was built:
            /// by `add` in either order, by `FromIterator`, by clone + remove
            /// + re-add of a keyed repo, or as a clone carrying its hashes.
            #[test]
            fn outcome_key_is_a_function_of_content(files in files(), pick in 0usize..5) {
                let task = task_named("nanoXOR", TranslationPair::CUDA_TO_OMP_OFFLOAD);
                let eval = eval_config();
                let key = |repo: &SourceRepo| BuildCache::key(&task, repo, &eval);
                let mut forward = SourceRepo::new();
                for (p, c) in &files {
                    forward.add(p.clone(), c.clone());
                }
                let mut backward = SourceRepo::new();
                for (p, c) in files.iter().rev() {
                    backward.add(p.clone(), c.clone());
                }
                let collected: SourceRepo = files.iter().cloned().collect();
                let base = key(&forward);
                prop_assert_eq!(key(&backward), base);
                prop_assert_eq!(key(&collected), base);
                prop_assert_eq!(key(&forward.clone()), base);
                let (p, c) = &files[pick % files.len()];
                let mut readded = forward.clone();
                readded.remove(p);
                prop_assert_ne!(key(&readded), base);
                readded.add(p.clone(), c.clone());
                prop_assert_eq!(key(&readded), base);
            }

            /// Any one-byte edit of any file, and moving a body to a new path,
            /// change the key.
            #[test]
            fn outcome_key_covers_every_byte_and_path(
                files in files(),
                pick in 0usize..5,
                at in 0usize..24,
                byte in 32u8..127,
            ) {
                let task = task_named("nanoXOR", TranslationPair::CUDA_TO_OMP_OFFLOAD);
                let eval = eval_config();
                let key = |repo: &SourceRepo| BuildCache::key(&task, repo, &eval);
                let repo: SourceRepo = files.iter().cloned().collect();
                let base = key(&repo);
                let (p, c) = &files[pick % files.len()];
                let mut bytes = c.clone().into_bytes();
                if !bytes.is_empty() {
                    let at = at % bytes.len();
                    bytes[at] = if bytes[at] == byte { b'\n' } else { byte };
                    let mut edited = repo.clone();
                    edited.add(p.clone(), String::from_utf8(bytes).unwrap());
                    prop_assert_ne!(key(&edited), base);
                }
                let mut moved = repo.clone();
                let body = moved.remove(p).unwrap();
                moved.add(format!("{p}.moved"), body);
                prop_assert_ne!(key(&moved), base);
            }
        }
    }

    #[test]
    fn outcome_key_separates_path_from_body() {
        let task = task_named("nanoXOR", TranslationPair::CUDA_TO_OMP_OFFLOAD);
        let eval = eval_config();
        let a = SourceRepo::new().with_file("src/ab", "c");
        let b = SourceRepo::new().with_file("src/a", "bc");
        assert_ne!(
            BuildCache::key(&task, &a, &eval),
            BuildCache::key(&task, &b, &eval)
        );
    }

    #[test]
    fn both_parse_entries_reach_one_memo_entry() {
        let repo = SourceRepo::new().with_file("main.c", "int main() { return 0; }\n");
        let text = repo.get("main.c").unwrap();
        let cache = BuildCache::new();
        let by_text = cache.parse_file(text).unwrap();
        let by_hash = cache
            .parse_hashed(repo.body_hash("main.c").unwrap(), text)
            .unwrap();
        assert!(Arc::ptr_eq(&by_text, &by_hash));
        assert_eq!(cache.stats().parses, 1);
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
