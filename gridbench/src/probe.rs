//! Instrumentation of the untraced run: per-sample service time from the
//! sample's `start_attempt` to its record reaching the `ProgressSink`,
//! with one clock read at each end.
//!
//! A sample runs on one worker thread from its attempt to its sink
//! delivery, so the start time travels in a thread-local and the
//! measurement works at any worker count.

use crate::digest::record_digest;
use pareval_core::{CellKey, ProgressSink, SampleRecord};
use pareval_llm::{
    Attempt, AttemptSpec, RepairContext, RepairOutcome, TokenUsage, TranslationBackend,
};
use pareval_translate::techniques::{Backend, BackendError, BackendOutput, FileJob};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

thread_local! {
    static STARTED: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Wraps the plan's backend to stamp each attempt's start. It keeps the
/// inner backend's name and feasibility, so the plan and its fingerprint
/// are the same as without the wrapper.
pub struct TimedBackend {
    inner: Arc<dyn TranslationBackend>,
    corrupt: Arc<AtomicBool>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn TranslationBackend>) -> Self {
        TimedBackend {
            inner,
            corrupt: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Make the next attempt that translates a file emit a broken file:
    /// the self-test's deliberately wrong result.
    pub fn corrupt_next(&self) {
        self.corrupt.store(true, Ordering::SeqCst);
    }
}

impl TranslationBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn start_attempt(&self, spec: &AttemptSpec<'_>) -> Box<dyn Attempt> {
        STARTED.with(|s| s.set(Some(Instant::now())));
        let attempt = self.inner.start_attempt(spec);
        if self.corrupt.load(Ordering::SeqCst) {
            return Box::new(Corrupting {
                inner: attempt,
                armed: Arc::clone(&self.corrupt),
            });
        }
        attempt
    }

    fn cell_feasible(
        &self,
        pair: minihpc_lang::model::TranslationPair,
        technique: pareval_translate::Technique,
        model: &str,
        app: &str,
    ) -> bool {
        self.inner.cell_feasible(pair, technique, model, app)
    }
}

/// An attempt whose first successful translation gets a stray closing
/// brace appended to every file it emits.
struct Corrupting {
    inner: Box<dyn Attempt>,
    armed: Arc<AtomicBool>,
}

impl Backend for Corrupting {
    fn translate(&mut self, job: &FileJob) -> Result<BackendOutput, BackendError> {
        let mut out = self.inner.translate(job)?;
        if self.armed.swap(false, Ordering::SeqCst) {
            for (_, text) in &mut out.files {
                text.push_str("\n}\n");
            }
        }
        Ok(out)
    }

    fn context_limit(&self) -> u64 {
        self.inner.context_limit()
    }

    fn count_tokens(&self, text: &str) -> u64 {
        self.inner.count_tokens(text)
    }

    fn verbose_context(&self) -> bool {
        self.inner.verbose_context()
    }
}

impl Attempt for Corrupting {
    fn feasible(&self) -> bool {
        self.inner.feasible()
    }

    fn usage(&self) -> TokenUsage {
        self.inner.usage()
    }

    fn repair(&mut self, ctx: &RepairContext) -> RepairOutcome {
        self.inner.repair(ctx)
    }
}

/// One delivered sample: its identity, service time and result digest.
#[derive(Debug, Clone, Copy)]
pub struct Delivered {
    pub key: CellKey,
    pub index: u32,
    /// `None` when the sample never started an attempt.
    pub nanos: Option<u64>,
    pub digest: u64,
}

/// The run's `ProgressSink`: takes the end clock read, forwards the record
/// (to the journal on durable grids), then digests it.
pub struct LatencySink<'a> {
    forward: Option<&'a dyn ProgressSink>,
    delivered: Mutex<Vec<Delivered>>,
}

impl<'a> LatencySink<'a> {
    pub fn new(forward: Option<&'a dyn ProgressSink>, capacity: usize) -> Self {
        LatencySink {
            forward,
            delivered: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    pub fn into_delivered(self) -> Vec<Delivered> {
        self.delivered.into_inner().expect("sink lock poisoned")
    }
}

impl ProgressSink for LatencySink<'_> {
    fn on_sample(&self, record: &SampleRecord) {
        let end = Instant::now();
        let nanos = STARTED
            .with(Cell::take)
            .map(|start| end.duration_since(start).as_nanos() as u64);
        if let Some(forward) = self.forward {
            forward.on_sample(record);
        }
        let delivered = Delivered {
            key: record.key,
            index: record.sample_index,
            nanos,
            digest: record_digest(record),
        };
        self.delivered
            .lock()
            .expect("sink lock poisoned")
            .push(delivered);
    }
}
