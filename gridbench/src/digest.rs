//! Result digests: a 64-bit FNV-1a over an explicit rendering of every
//! field of each sample's record, and the reference digests recorded per
//! workload and seed.
//!
//! The rendering uses the result types' own text forms (diagnostic and
//! finding renderings, category labels), not `Debug`, so a refactor that
//! keeps results byte-identical keeps the digests too.

use minihpc_analyze::render_findings_with_fixits;
use pareval_core::{EvalOutcome, SampleRecord};
use std::fmt::{self, Write};

/// 64-bit FNV-1a, fed through `fmt::Write` so a record hashes while it
/// renders, without building the string.
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Digest of one sample's record: its cell, index and full result.
pub fn record_digest(record: &SampleRecord) -> u64 {
    let mut h = Fnv64::new();
    render(&mut h, record).expect("hashing never fails");
    h.finish()
}

fn render(h: &mut Fnv64, record: &SampleRecord) -> fmt::Result {
    let (k, r) = (&record.key, &record.result);
    writeln!(
        h,
        "{} | {} | {} | {} | #{}",
        k.pair.id(),
        k.technique.name(),
        k.model,
        k.app,
        record.sample_index
    )?;
    writeln!(
        h,
        "feasible {} | {:?} | tokens {}+{}",
        r.feasible, r.failure_reason, r.tokens.input, r.tokens.output
    )?;
    outcome(h, "code-only", r.code_only.as_ref())?;
    outcome(h, "overall", r.overall.as_ref())?;
    for round in &r.rounds {
        writeln!(
            h,
            "round {} | gave up {} | tokens {}+{}",
            round.round, round.gave_up, round.tokens.input, round.tokens.output
        )?;
        outcome(h, "code-only", Some(&round.code_only))?;
        outcome(h, "overall", Some(&round.overall))?;
    }
    h.write_str(&render_findings_with_fixits(&r.analysis))
}

fn outcome(h: &mut Fnv64, label: &str, outcome: Option<&EvalOutcome>) -> fmt::Result {
    let Some(o) = outcome else {
        return writeln!(h, "{label}: none");
    };
    writeln!(
        h,
        "{label}: built {} | passed {} | {}",
        o.built,
        o.passed,
        o.error_category.map_or("-", |c| c.label())
    )?;
    writeln!(h, "{}", o.build_log)?;
    for d in &o.error_diagnostics {
        writeln!(h, "{d}")?;
    }
    Ok(())
}

/// Per-sample digests of one grid run, sorted. A digest covers the
/// sample's identity, so the sorted list stands for the whole result set.
pub type SampleDigests = Vec<u64>;

/// Digest of a whole grid: every sample digest in sorted order.
pub fn grid_digest(samples: &SampleDigests) -> u64 {
    let mut h = Fnv64::new();
    for digest in samples {
        h.bytes(&digest.to_le_bytes());
    }
    h.finish()
}

/// Reference samples with no equal sample in `run`: those whose result
/// changed, plus those missing. Both lists are sorted.
pub fn unmatched(reference: &[u64], run: &[u64]) -> usize {
    let (mut i, mut j, mut missing) = (0, 0, 0);
    while i < reference.len() {
        match run.get(j).map(|d| d.cmp(&reference[i])) {
            Some(std::cmp::Ordering::Less) => j += 1,
            Some(std::cmp::Ordering::Equal) => {
                i += 1;
                j += 1;
            }
            _ => {
                missing += 1;
                i += 1;
            }
        }
    }
    missing
}

/// The reference digests, one `workload plan-seed digest` line per grid,
/// recorded from the harness before any optimisation. Every golden is
/// byte-identical by contract, so later commits must reproduce them.
const REFERENCE: &str = include_str!("../reference.txt");

/// The recorded digest of `workload`'s grid at `plan_seed`, if any.
pub fn reference(workload: &str, plan_seed: u64) -> Option<u64> {
    REFERENCE.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let (w, s, d) = (fields.next()?, fields.next()?, fields.next()?);
        (w == workload && s.parse::<u64>().ok()? == plan_seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}
