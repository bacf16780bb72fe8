//! The durability layer: an append-only, checksummed on-disk journal of
//! completed [`SampleRecord`]s, written as a [`ProgressSink`] and replayed
//! by [`Runner::resume`](crate::runner::Runner::resume).
//!
//! A grid run is the paper's heavy-tailed, long-running workload: a panic
//! or OOM late in the run would throw away hours of completed samples.
//! With a [`JournalSink`] attached, every completed sample — including its
//! per-round repair trajectory and usage snapshots — is on disk the moment
//! it finishes, and a resumed run re-executes only the remainder.
//!
//! # File format
//!
//! ```text
//! header   := magic "PEJR0001" (8 bytes) | plan fingerprint (u128 LE)
//! record   := len (u32 LE) | checksum (u64 LE, FNV-1a over payload) | payload
//! journal  := header record*
//! ```
//!
//! The payload is a versioned self-contained encoding of one
//! [`SampleRecord`] (cell key as strings, full
//! [`SampleResult`](crate::task::SampleResult) including
//! repair rounds). The format is *torn-write-tolerant by construction*: a
//! crash mid-append leaves a trailing partial record whose length or
//! checksum cannot validate, and replay simply stops at the last intact
//! record — every fully-written sample before the tear is recovered.
//!
//! # Plan fingerprint
//!
//! The header pins [`ExperimentPlan::fingerprint`] — a content hash of the
//! seed, the result-affecting eval knobs, and every cell (key, feasibility,
//! sample count, backend name). [`JournalReader::open`] refuses a journal
//! whose fingerprint does not match the resuming plan with
//! [`JournalError::PlanMismatch`], so a journal can never silently resume
//! the wrong grid.

use crate::plan::{CellKey, ExperimentPlan};
use crate::runner::{ProgressSink, SampleRecord};
use minihpc_lang::fnv::fnv64;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Magic + version tag opening every journal file.
const MAGIC: &[u8; 8] = b"PEJR0001";
/// Header length: magic + u128 plan fingerprint.
const HEADER_LEN: u64 = 8 + 16;
/// Upper bound on a single record payload; a frame length beyond this is
/// certainly garbage (a torn write inside the length field itself) and
/// stops replay rather than attempting a multi-gigabyte allocation.
const MAX_RECORD_LEN: u32 = 64 << 20;

/// Why a journal could not be opened or matched to a plan. I/O errors and
/// structural problems are fatal (the caller is pointing at the wrong
/// file); *record-level* corruption is not an error at all — replay
/// recovers the intact prefix and the rest is simply re-run.
#[derive(Debug)]
pub enum JournalError {
    Io(std::io::Error),
    /// The file exists but does not start with a journal header.
    NotAJournal {
        path: PathBuf,
    },
    /// The journal was written by a different plan: resuming would silently
    /// mix incompatible grids, so it is refused up front.
    PlanMismatch {
        journal: u128,
        plan: u128,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::NotAJournal { path } => {
                write!(f, "{} is not a sample journal", path.display())
            }
            JournalError::PlanMismatch { journal, plan } => write!(
                f,
                "journal fingerprint {journal:032x} does not match plan fingerprint {plan:032x} \
                 (refusing to resume a different grid)"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Byte codec shared by the journal and the disk build cache: explicit
/// little-endian, length-prefixed encoding of the record types, framed by
/// callers with a [`fnv64`] checksum. Decoders are total — any malformed
/// input yields `None`, never a panic — because their input is untrusted
/// bytes from a possibly torn or corrupted file.
pub(crate) mod codec {
    use crate::runner::SampleRecord;
    use crate::task::{EvalOutcome, RepairRound, SampleResult};
    use minihpc_analyze::{AnalysisFinding, Confidence, FixIt, FixItEdit, Rule};
    use minihpc_build::{Diagnostic, ErrorCategory, Severity};
    use pareval_llm::TokenUsage;

    /// Append-only byte encoder.
    #[derive(Default)]
    pub(crate) struct Enc {
        buf: Vec<u8>,
    }

    impl Enc {
        pub(crate) fn into_bytes(self) -> Vec<u8> {
            self.buf
        }

        fn u8(&mut self, v: u8) {
            self.buf.push(v);
        }

        fn boolean(&mut self, v: bool) {
            self.u8(v as u8);
        }

        fn u32(&mut self, v: u32) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        fn u64(&mut self, v: u64) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        fn str(&mut self, s: &str) {
            self.u32(s.len() as u32);
            self.buf.extend_from_slice(s.as_bytes());
        }

        fn outcome(&mut self, o: &EvalOutcome) {
            self.boolean(o.built);
            self.boolean(o.passed);
            match o.error_category {
                Some(c) => {
                    self.u8(1);
                    self.u8(c.code());
                }
                None => self.u8(0),
            }
            self.str(&o.build_log);
            self.u32(o.error_diagnostics.len() as u32);
            for d in &o.error_diagnostics {
                self.boolean(d.severity == Severity::Error);
                self.u8(d.category.code());
                self.str(&d.message);
                self.str(&d.file);
                match d.line {
                    Some(line) => {
                        self.u8(1);
                        self.u32(line);
                    }
                    None => self.u8(0),
                }
            }
        }

        fn opt_outcome(&mut self, o: &Option<EvalOutcome>) {
            match o {
                Some(o) => {
                    self.u8(1);
                    self.outcome(o);
                }
                None => self.u8(0),
            }
        }

        fn tokens(&mut self, t: TokenUsage) {
            self.u64(t.input);
            self.u64(t.output);
        }

        fn finding(&mut self, f: &AnalysisFinding) {
            self.u8(f.rule.code());
            self.boolean(f.severity == Severity::Error);
            self.str(&f.variable);
            self.str(&f.file);
            match f.line {
                Some(line) => {
                    self.u8(1);
                    self.u32(line);
                }
                None => self.u8(0),
            }
            self.str(&f.message);
            self.u8(f.confidence.code());
            match &f.fixit {
                Some(fx) => {
                    self.u8(1);
                    self.str(&fx.file);
                    self.u32(fx.line);
                    self.str(&fx.title);
                    self.u8(fx.edit.code());
                    self.str(fx.edit.payload());
                }
                None => self.u8(0),
            }
        }
    }

    /// Bounds-checked byte decoder over untrusted input.
    pub(crate) struct Dec<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Dec<'a> {
        fn new(buf: &'a [u8]) -> Self {
            Dec { buf, pos: 0 }
        }

        fn take(&mut self, n: usize) -> Option<&'a [u8]> {
            let end = self.pos.checked_add(n)?;
            let slice = self.buf.get(self.pos..end)?;
            self.pos = end;
            Some(slice)
        }

        fn u8(&mut self) -> Option<u8> {
            self.take(1).map(|b| b[0])
        }

        fn boolean(&mut self) -> Option<bool> {
            match self.u8()? {
                0 => Some(false),
                1 => Some(true),
                _ => None,
            }
        }

        fn u32(&mut self) -> Option<u32> {
            self.take(4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        }

        fn u64(&mut self) -> Option<u64> {
            self.take(8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        }

        fn str(&mut self) -> Option<String> {
            let len = self.u32()? as usize;
            let bytes = self.take(len)?;
            String::from_utf8(bytes.to_vec()).ok()
        }

        fn outcome(&mut self) -> Option<EvalOutcome> {
            let built = self.boolean()?;
            let passed = self.boolean()?;
            let error_category = match self.u8()? {
                0 => None,
                1 => Some(ErrorCategory::from_code(self.u8()?)?),
                _ => return None,
            };
            let build_log = self.str()?;
            let ndiags = self.u32()? as usize;
            let mut error_diagnostics = Vec::with_capacity(ndiags.min(1024));
            for _ in 0..ndiags {
                let severity = if self.boolean()? {
                    Severity::Error
                } else {
                    Severity::Warning
                };
                let category = ErrorCategory::from_code(self.u8()?)?;
                let message = self.str()?;
                let file = self.str()?;
                let line = match self.u8()? {
                    0 => None,
                    1 => Some(self.u32()?),
                    _ => return None,
                };
                error_diagnostics.push(Diagnostic {
                    severity,
                    category,
                    message,
                    file,
                    line,
                });
            }
            Some(EvalOutcome {
                built,
                passed,
                error_category,
                build_log,
                error_diagnostics,
            })
        }

        fn opt_outcome(&mut self) -> Option<Option<EvalOutcome>> {
            match self.u8()? {
                0 => Some(None),
                1 => Some(Some(self.outcome()?)),
                _ => None,
            }
        }

        fn tokens(&mut self) -> Option<TokenUsage> {
            Some(TokenUsage {
                input: self.u64()?,
                output: self.u64()?,
            })
        }

        fn finding(&mut self) -> Option<AnalysisFinding> {
            let rule = Rule::from_code(self.u8()?)?;
            let severity = if self.boolean()? {
                Severity::Error
            } else {
                Severity::Warning
            };
            let variable = self.str()?;
            let file = self.str()?;
            let line = match self.u8()? {
                0 => None,
                1 => Some(self.u32()?),
                _ => return None,
            };
            let message = self.str()?;
            let confidence = Confidence::from_code(self.u8()?)?;
            let fixit = match self.u8()? {
                0 => None,
                1 => {
                    let file = self.str()?;
                    let line = self.u32()?;
                    let title = self.str()?;
                    let code = self.u8()?;
                    let payload = self.str()?;
                    Some(FixIt {
                        file,
                        line,
                        title,
                        edit: FixItEdit::from_parts(code, payload)?,
                    })
                }
                _ => return None,
            };
            Some(AnalysisFinding {
                rule,
                severity,
                variable,
                file,
                line,
                message,
                confidence,
                fixit,
            })
        }

        /// Everything consumed, nothing left over?
        fn finished(&self) -> bool {
            self.pos == self.buf.len()
        }
    }

    /// A decoded record before its cell key strings are resolved against a
    /// plan's interned [`CellKey`](crate::plan::CellKey)s.
    pub(crate) struct RawRecord {
        pub(crate) pair_id: String,
        pub(crate) technique: String,
        pub(crate) model: String,
        pub(crate) app: String,
        pub(crate) sample_index: u32,
        pub(crate) result: SampleResult,
    }

    pub(crate) fn encode_record(record: &SampleRecord) -> Vec<u8> {
        let mut e = Enc::default();
        e.str(&record.key.pair.id());
        e.str(record.key.technique.name());
        e.str(record.key.model);
        e.str(record.key.app);
        e.u32(record.sample_index);
        let r = &record.result;
        e.boolean(r.feasible);
        match &r.failure_reason {
            Some(reason) => {
                e.u8(1);
                e.str(reason);
            }
            None => e.u8(0),
        }
        e.opt_outcome(&r.code_only);
        e.opt_outcome(&r.overall);
        e.tokens(r.tokens);
        e.u32(r.rounds.len() as u32);
        for round in &r.rounds {
            e.u32(round.round);
            e.boolean(round.gave_up);
            e.outcome(&round.code_only);
            e.outcome(&round.overall);
            e.tokens(round.tokens);
        }
        // Analyzer findings are a *trailing optional* section: emitted only
        // when non-empty, so analyzer-off journals are byte-identical to the
        // pre-analyzer format (and readable by pre-analyzer decoders).
        if !r.analysis.is_empty() {
            e.u32(r.analysis.len() as u32);
            for f in &r.analysis {
                e.finding(f);
            }
        }
        e.into_bytes()
    }

    pub(crate) fn decode_record(payload: &[u8]) -> Option<RawRecord> {
        let mut d = Dec::new(payload);
        let pair_id = d.str()?;
        let technique = d.str()?;
        let model = d.str()?;
        let app = d.str()?;
        let sample_index = d.u32()?;
        let feasible = d.boolean()?;
        let failure_reason = match d.u8()? {
            0 => None,
            1 => Some(d.str()?),
            _ => return None,
        };
        let code_only = d.opt_outcome()?;
        let overall = d.opt_outcome()?;
        let tokens = d.tokens()?;
        let nrounds = d.u32()? as usize;
        let mut rounds = Vec::with_capacity(nrounds.min(1024));
        for _ in 0..nrounds {
            rounds.push(RepairRound {
                round: d.u32()?,
                gave_up: d.boolean()?,
                code_only: d.outcome()?,
                overall: d.outcome()?,
                tokens: d.tokens()?,
            });
        }
        // Trailing optional analyzer section: absent in analyzer-off (and
        // pre-analyzer) records. When present it must decode fully and be
        // non-empty (an empty list is encoded by omission).
        let analysis = if d.finished() {
            Vec::new()
        } else {
            let nfindings = d.u32()? as usize;
            if nfindings == 0 {
                return None;
            }
            let mut findings = Vec::with_capacity(nfindings.min(1024));
            for _ in 0..nfindings {
                findings.push(d.finding()?);
            }
            findings
        };
        if !d.finished() {
            return None;
        }
        Some(RawRecord {
            pair_id,
            technique,
            model,
            app,
            sample_index,
            result: SampleResult {
                feasible,
                failure_reason,
                code_only,
                overall,
                tokens,
                rounds,
                analysis,
            },
        })
    }

    /// Encode one [`EvalOutcome`] (the disk build-cache entry payload).
    pub(crate) fn encode_outcome(outcome: &EvalOutcome) -> Vec<u8> {
        let mut e = Enc::default();
        e.outcome(outcome);
        e.into_bytes()
    }

    /// Decode a disk build-cache entry payload; `None` on any malformation.
    pub(crate) fn decode_outcome(payload: &[u8]) -> Option<EvalOutcome> {
        let mut d = Dec::new(payload);
        let outcome = d.outcome()?;
        if !d.finished() {
            return None;
        }
        Some(outcome)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn category_codes_round_trip_every_variant() {
            let all = [
                ErrorCategory::BuildFileSyntax,
                ErrorCategory::MakefileMissingTarget,
                ErrorCategory::CMakeConfig,
                ErrorCategory::InvalidCompilerFlag,
                ErrorCategory::MissingHeader,
                ErrorCategory::CodeSyntax,
                ErrorCategory::UndeclaredIdentifier,
                ErrorCategory::ArgTypeMismatch,
                ErrorCategory::OmpInvalidDirective,
                ErrorCategory::LinkerError,
                ErrorCategory::MissingFile,
                ErrorCategory::Other,
            ];
            for c in all {
                assert_eq!(ErrorCategory::from_code(c.code()), Some(c));
            }
            assert_eq!(ErrorCategory::from_code(200), None);
        }

        #[test]
        fn outcome_round_trips() {
            let outcome = EvalOutcome {
                built: false,
                passed: false,
                error_category: Some(ErrorCategory::MissingHeader),
                build_log: "clang++ -c main.cpp\nmain.cpp:3: error: missing header".into(),
                error_diagnostics: vec![
                    Diagnostic::error(ErrorCategory::MissingHeader, "main.cpp", "missing header")
                        .at_line(3),
                    Diagnostic::warning(ErrorCategory::Other, "util.cpp", "unused"),
                ],
            };
            let bytes = encode_outcome(&outcome);
            assert_eq!(decode_outcome(&bytes), Some(outcome));
            // Trailing garbage and truncation both fail cleanly.
            let mut extended = bytes.clone();
            extended.push(0);
            assert_eq!(decode_outcome(&extended), None);
            assert_eq!(decode_outcome(&bytes[..bytes.len() - 1]), None);
        }
    }
}

/// Interior state of a [`JournalSink`]: the buffered file plus the count of
/// records written since the last fsync.
struct SinkState {
    file: BufWriter<File>,
    unsynced: u64,
    written: u64,
}

/// A [`ProgressSink`] that appends every completed sample to an on-disk
/// journal, making a crashed grid run resumable from its last completed
/// sample (see [`Runner::resume`](crate::runner::Runner::resume)).
///
/// Thread-safe: workers of a parallel runner serialize through an internal
/// lock, so records are framed atomically in whatever order workers
/// finish. Durability is tunable via [`JournalSink::with_sync_every`]: with
/// batching `n`, the file is fsynced every `n` records (default 1, maximum
/// durability — a crash loses at most the in-flight sample). The sink
/// flushes and syncs on drop regardless.
pub struct JournalSink {
    state: Mutex<SinkState>,
    sync_every: u64,
}

impl fmt::Debug for JournalSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JournalSink")
            .field("records_written", &self.records_written())
            .field("sync_every", &self.sync_every)
            .finish()
    }
}

impl JournalSink {
    /// Create (truncating) a fresh journal for `plan` at `path` and write
    /// its header.
    pub fn create(path: &Path, plan: &ExperimentPlan) -> Result<JournalSink, JournalError> {
        let mut file = File::create(path)?;
        file.write_all(MAGIC)?;
        file.write_all(&plan.fingerprint().to_le_bytes())?;
        file.sync_data()?;
        Ok(JournalSink {
            state: Mutex::new(SinkState {
                file: BufWriter::new(file),
                unsynced: 0,
                written: 0,
            }),
            sync_every: 1,
        })
    }

    /// Reopen an existing journal for appending — the sink a *resumed* run
    /// streams to, so the journal stays authoritative across any number of
    /// crash/resume cycles. Verifies the header against `plan` (same typed
    /// errors as [`JournalReader::open`]) and truncates any torn trailing
    /// record so the next append starts on a clean frame boundary.
    pub fn append(path: &Path, plan: &ExperimentPlan) -> Result<JournalSink, JournalError> {
        // Walk the intact prefix with a reader, tracking the byte offset of
        // the last frame that validated.
        let mut reader = JournalReader::open(path, plan)?;
        while reader.next().is_some() {}
        let end = reader.intact_bytes;
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(end)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok(JournalSink {
            state: Mutex::new(SinkState {
                file: BufWriter::new(file),
                unsynced: 0,
                written: 0,
            }),
            sync_every: 1,
        })
    }

    /// Set the fsync batching interval: the file is flushed and fsynced
    /// after every `n` records. `0` disables periodic fsync entirely (the
    /// OS decides; flush + sync still happen on drop) — the fastest and
    /// least durable setting.
    pub fn with_sync_every(mut self, n: u64) -> Self {
        self.sync_every = n;
        self
    }

    /// The sink's state. A poisoned lock is taken as is: the only panic
    /// under it is a failed append, and the reader already stops at a torn
    /// frame.
    fn state(&self) -> MutexGuard<'_, SinkState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records appended through this sink (not counting any the journal
    /// already held when opened with [`JournalSink::append`]).
    pub fn records_written(&self) -> u64 {
        self.state().written
    }

    /// Flush buffered records and fsync to disk now.
    pub fn sync(&self) -> std::io::Result<()> {
        let mut state = self.state();
        state.file.flush()?;
        state.file.get_ref().sync_data()?;
        state.unsynced = 0;
        Ok(())
    }
}

impl ProgressSink for JournalSink {
    /// Append one framed record. I/O errors panic: a journaling run that
    /// can no longer journal has lost its durability guarantee, and
    /// continuing silently would let the caller believe every completed
    /// sample is recoverable when it is not.
    fn on_sample(&self, record: &SampleRecord) {
        let payload = codec::encode_record(record);
        let mut state = self.state();
        let frame_err = "journal append failed (durability lost)";
        state
            .file
            .write_all(&(payload.len() as u32).to_le_bytes())
            .expect(frame_err);
        state
            .file
            .write_all(&fnv64(&payload).to_le_bytes())
            .expect(frame_err);
        state.file.write_all(&payload).expect(frame_err);
        state.written += 1;
        state.unsynced += 1;
        if self.sync_every > 0 && state.unsynced >= self.sync_every {
            state.file.flush().expect(frame_err);
            state.file.get_ref().sync_data().expect(frame_err);
            state.unsynced = 0;
        }
    }
}

impl Drop for JournalSink {
    fn drop(&mut self) {
        // Best-effort final flush, also after a failed append poisoned the
        // lock; errors here cannot be reported and the periodic fsync
        // already bounded the loss window.
        let state = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        let _ = state.file.flush();
        let _ = state.file.get_ref().sync_data();
    }
}

/// Streaming reader over a journal's intact record prefix.
///
/// Iteration yields each recovered [`SampleRecord`] *lazily* — one record
/// is materialized at a time, so replaying a journal never buffers the
/// whole run twice (the collector's iterator-based
/// [`ExperimentResults::from_records`](crate::collect::ExperimentResults::from_records)
/// moves each record straight into its cell). Iteration stops at the first
/// frame that fails to validate: a truncated length, a short payload, a
/// checksum mismatch, an undecodable payload, or a cell key the plan does
/// not contain. Everything before that point is recovered; corruption is
/// recoverable state, not an error.
pub struct JournalReader {
    file: BufReader<File>,
    /// Cell keys of the plan, addressed by their journal string form.
    cells: HashMap<(String, String, String, String), CellKey>,
    /// Byte offset of the end of the last intact frame (starts past the
    /// header) — what [`JournalSink::append`] truncates to.
    intact_bytes: u64,
    /// Intact records yielded so far.
    records: u64,
    done: bool,
}

impl JournalReader {
    /// Open `path` and validate its header against `plan`.
    ///
    /// # Errors
    ///
    /// [`JournalError::NotAJournal`] when the file is shorter than a header
    /// or carries the wrong magic; [`JournalError::PlanMismatch`] when the
    /// header fingerprint is not `plan.fingerprint()`; I/O errors verbatim.
    pub fn open(path: &Path, plan: &ExperimentPlan) -> Result<JournalReader, JournalError> {
        let mut file = BufReader::new(File::open(path)?);
        let mut header = [0u8; HEADER_LEN as usize];
        if file.read_exact(&mut header).is_err() || &header[..8] != MAGIC {
            return Err(JournalError::NotAJournal {
                path: path.to_path_buf(),
            });
        }
        let journal = u128::from_le_bytes(header[8..24].try_into().unwrap());
        let fingerprint = plan.fingerprint();
        if journal != fingerprint {
            return Err(JournalError::PlanMismatch {
                journal,
                plan: fingerprint,
            });
        }
        let cells = plan
            .cells()
            .iter()
            .map(|cell| {
                let key = cell.key;
                (
                    (
                        key.pair.id(),
                        key.technique.name().to_string(),
                        key.model.to_string(),
                        key.app.to_string(),
                    ),
                    key,
                )
            })
            .collect();
        Ok(JournalReader {
            file,
            cells,
            intact_bytes: HEADER_LEN,
            records: 0,
            done: false,
        })
    }

    /// Intact records yielded so far (the full prefix count once the
    /// iterator is exhausted).
    pub fn records_read(&self) -> u64 {
        self.records
    }

    /// Try to read and validate the next frame; `None` ends iteration for
    /// good (EOF or first corruption).
    fn next_frame(&mut self) -> Option<SampleRecord> {
        let mut len_buf = [0u8; 4];
        self.file.read_exact(&mut len_buf).ok()?;
        let len = u32::from_le_bytes(len_buf);
        if len > MAX_RECORD_LEN {
            return None;
        }
        let mut sum_buf = [0u8; 8];
        self.file.read_exact(&mut sum_buf).ok()?;
        let mut payload = vec![0u8; len as usize];
        self.file.read_exact(&mut payload).ok()?;
        if fnv64(&payload) != u64::from_le_bytes(sum_buf) {
            return None;
        }
        let raw = codec::decode_record(&payload)?;
        let key = *self
            .cells
            .get(&(raw.pair_id, raw.technique, raw.model, raw.app))?;
        self.intact_bytes += 4 + 8 + u64::from(len);
        self.records += 1;
        Some(SampleRecord {
            key,
            sample_index: raw.sample_index,
            result: raw.result,
        })
    }
}

impl Iterator for JournalReader {
    type Item = SampleRecord;

    fn next(&mut self) -> Option<SampleRecord> {
        if self.done {
            return None;
        }
        match self.next_frame() {
            Some(record) => Some(record),
            None => {
                self.done = true;
                None
            }
        }
    }
}

/// What a first streaming pass over a journal recovered: the completed
/// `(cell, sample)` set a resume skips, and the intact record count a
/// second pass replays (via `JournalReader::take`, so records appended
/// *during* the resumed run are never read back).
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Completed `(CellKey, sample_index)` pairs recovered from the intact
    /// prefix.
    pub completed: BTreeSet<(CellKey, u32)>,
    /// Intact prefix records, *including* any duplicates (a resume that
    /// crashed mid-append can journal a sample twice; replay dedups).
    pub records: u64,
}

/// First pass of a resume: stream the journal once, retaining only the
/// completed-set and record count — no record buffering at all.
pub fn scan(path: &Path, plan: &ExperimentPlan) -> Result<Replay, JournalError> {
    let mut reader = JournalReader::open(path, plan)?;
    let mut completed = BTreeSet::new();
    for record in reader.by_ref() {
        completed.insert((record.key, record.sample_index));
    }
    Ok(Replay {
        completed,
        records: reader.records_read(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvalPipeline, Runner, ScheduledRunner};
    use minihpc_lang::model::TranslationPair;

    /// A failed append panics while it holds the sink's lock. Dropping the
    /// sink afterwards must still flush the records it buffered, and must
    /// not panic.
    #[test]
    fn drop_flushes_through_a_poisoned_lock() {
        let plan = ExperimentPlan::builder()
            .samples(1)
            .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
            .apps(["nanoXOR"])
            .build();
        let path = std::env::temp_dir().join(format!("poisoned-{}.journal", std::process::id()));
        let sink = JournalSink::create(&path, &plan)
            .unwrap()
            .with_sync_every(0);
        ScheduledRunner::new(1).run_with(&plan, &EvalPipeline::new(plan.eval().clone()), &sink);
        let written = sink.records_written();
        assert!(
            scan(&path, &plan).unwrap().records < written,
            "some records must still sit in the write buffer"
        );
        std::thread::scope(|s| {
            let failed_append = s.spawn(|| {
                let _held = sink.state.lock();
                panic!("journal append failed");
            });
            assert!(failed_append.join().is_err());
        });
        assert!(sink.state.is_poisoned());
        drop(sink);
        let recovered = scan(&path, &plan).unwrap().records;
        std::fs::remove_file(&path).unwrap();
        assert_eq!(recovered, written);
    }
}
