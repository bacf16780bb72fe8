//! The ParEval-Repo harness benchmark: three named grids, timed end to end
//! with tracing off, plus a separate traced run for per-layer figures.
//!
//! ```text
//! cargo run --release --manifest-path gridbench/Cargo.toml -- \
//!     --workload paper-grid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each seed stands for a cycle of eight grids (see
//! [`workload::plan_seeds`]). The last line of standard output is one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`.
//! `--self-test` corrupts one sample's result in the second cycle and
//! exits 0 only if the correctness check counts it as failed.
//! `--print-reference` runs each grid of the cycle once and prints the
//! `workload plan-seed digest` lines that `reference.txt` records.

mod digest;
mod grid;
mod probe;
mod trace;
mod workload;

use digest::{grid_digest, unmatched, SampleDigests};
use grid::{Options, Rep};
use pareval_llm::SimulatedBackend;
use probe::TimedBackend;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Layer, Traced};
use workload::Workload;

/// Set-ups timed after each grid run for `setup_s`, after untimed
/// warm-ups: the first set-ups after a grid is dropped run up to 3× slower
/// while the heap refills. Spreading the samples over the run averages the
/// machine's state the way the grid timings do.
const SETUP_WARMUPS: usize = 5;
const SETUP_SAMPLES: usize = 5;

/// Traced layer self times must cover at least this share of the traced
/// per-sample wall time.
const MIN_COVERAGE: f64 = 0.95;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    self_test: bool,
    print_reference: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut self_test = false;
        let mut print_reference = false;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            if flag == "--self-test" {
                self_test = true;
                continue;
            }
            if flag == "--print-reference" {
                print_reference = true;
                continue;
            }
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or(format!(
                        "unknown workload {value}; expected one of {}",
                        Workload::ALL.map(Workload::name).join(", ")
                    ))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?.max(1)),
                "--trace" => trace = value.parse::<u8>().map_err(bad)? == 1,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(0),
            seconds: seconds.unwrap_or(10),
            trace,
            self_test,
            print_reference,
        })
    }
}

/// The result line's fields.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String never fails");
        }
        out.push_str("}}");
        out
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("gridbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let dir = grid::scratch_dir(args.workload);
    if args.print_reference {
        return print_reference(&args, &dir);
    }
    let outcome = if args.trace {
        traced(&args, &dir)
    } else {
        timed(&args, &dir)
    };
    grid::remove_dir(&dir);
    let _ = std::fs::remove_dir(".bench_run");
    println!("{}", outcome.json());
    if args.self_test {
        return if outcome.failed > 0 && !outcome.correct {
            eprintln!(
                "gridbench: self-test passed: the corrupted sample counted as failed ({} of {})",
                outcome.failed, outcome.attempted
            );
            ExitCode::SUCCESS
        } else {
            eprintln!("gridbench: self-test FAILED: a corrupted result went unnoticed");
            ExitCode::FAILURE
        };
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The untraced run options at the workload's own worker count.
fn timed_options(w: Workload) -> Options {
    Options {
        workers: w.workers(),
        sched_stats: false,
        disk_cache: false,
    }
}

/// Run each grid of the seed's cycle once and print its reference line.
fn print_reference(args: &Args, dir: &std::path::Path) -> ExitCode {
    let w = args.workload;
    let backend = Arc::new(TimedBackend::new(Arc::new(SimulatedBackend)));
    for plan_seed in workload::plan_seeds(args.seed) {
        let rep = grid::run(w, plan_seed, &backend, dir, timed_options(w));
        let digests = digests_of(&rep);
        if rep.panicked || digests.len() != rep.samples {
            eprintln!("gridbench: the grid at plan seed {plan_seed} did not complete");
            return ExitCode::FAILURE;
        }
        println!("{} {plan_seed} {:016x}", w.name(), grid_digest(&digests));
    }
    ExitCode::SUCCESS
}

fn digests_of(rep: &Rep) -> SampleDigests {
    let mut digests: SampleDigests = rep.delivered.iter().map(|d| d.digest).collect();
    digests.sort_unstable();
    digests
}

/// Samples of `rep` whose result differs from `reference` or is missing,
/// plus any delivered without a start time.
fn failed_samples(rep: &Rep, reference: &SampleDigests) -> u64 {
    let unstarted = rep.delivered.iter().filter(|d| d.nanos.is_none()).count();
    (unmatched(reference, &digests_of(rep)) + unstarted) as u64
}

/// The first run of a grid: its digests, and whether they can serve as
/// the reference for later runs of that grid. They can if the run
/// completed and matches the digest recorded for the plan seed, when one
/// is recorded.
fn first_run(w: Workload, plan_seed: u64, rep: &Rep) -> (SampleDigests, bool) {
    let digests = digests_of(rep);
    let complete = !rep.panicked && digests.len() == rep.samples;
    let got = grid_digest(&digests);
    let trusted = match digest::reference(w.name(), plan_seed) {
        Some(want) if want != got => {
            eprintln!(
                "gridbench: {} plan seed {plan_seed}: results digest {got:016x} differs \
                 from the recorded {want:016x}",
                w.name()
            );
            false
        }
        Some(_) => complete,
        None => {
            eprintln!(
                "gridbench: {} plan seed {plan_seed}: no recorded reference (digest \
                 {got:016x}); checking run-to-run agreement only",
                w.name()
            );
            complete
        }
    };
    (digests, trusted)
}

/// The first run of each grid of the cycle and the tallies of all runs.
struct GridCheck {
    reference: SampleDigests,
    trusted: bool,
    attempted: u64,
    failed: u64,
}

/// The end-to-end run: tracing off, whole cycles of the seed's grids
/// repeated while another fits in `--seconds`.
fn timed(args: &Args, dir: &std::path::Path) -> Outcome {
    let w = args.workload;
    let plan_seeds: Vec<u64> = workload::plan_seeds(args.seed).collect();
    let backend = Arc::new(TimedBackend::new(Arc::new(SimulatedBackend)));

    // Each grid run is folded in as it ends: what the process keeps per
    // run is its latencies and a few numbers, so `peak_rss_mb` does not
    // grow with the number of runs that fit.
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let min_cycles = if args.self_test { 2 } else { 1 };
    let mut checks: Vec<Option<GridCheck>> = plan_seeds.iter().map(|_| None).collect();
    let (mut cycles, mut delivered, mut wall) = (0u32, 0usize, 0.0);
    let mut latencies: Vec<u64> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut per_run: Vec<String> = Vec::new();
    loop {
        for (&plan_seed, check) in plan_seeds.iter().zip(&mut checks) {
            if args.self_test && cycles == 1 && per_run.len() == plan_seeds.len() {
                backend.corrupt_next();
            }
            let rep = grid::run(w, plan_seed, &backend, dir, timed_options(w));
            let check = check.get_or_insert_with(|| {
                let (reference, trusted) = first_run(w, plan_seed, &rep);
                GridCheck {
                    reference,
                    trusted,
                    attempted: 0,
                    failed: 0,
                }
            });
            check.attempted += rep.samples as u64;
            check.failed += failed_samples(&rep, &check.reference);
            let set_ups = (0..SETUP_WARMUPS + SETUP_SAMPLES)
                .map(|_| grid::set_up(w, plan_seed, &backend, None).1)
                .skip(SETUP_WARMUPS);
            setups.extend(set_ups);
            delivered += rep.delivered.len();
            wall += rep.wall_s;
            latencies.extend(rep.delivered.iter().filter_map(|d| d.nanos));
            per_run.push(format!("{:.1}", rep.delivered.len() as f64 / rep.wall_s));
        }
        cycles += 1;
        let elapsed = start.elapsed();
        if cycles >= min_cycles && elapsed + elapsed / cycles > budget {
            break;
        }
    }
    let checks = checks.into_iter().flatten();
    let (attempted, failed) = checks.fold((0, 0), |(a, f), c| {
        let failed = if c.trusted { c.failed } else { c.attempted };
        (a + c.attempted, f + failed)
    });

    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50) as f64 / 1e6;
    let p90 = percentile(&latencies, 0.90) as f64 / 1e6;
    println!(
        "gridbench: {} seed {}: {cycles} cycles of {} grids, {delivered} samples in \
         {wall:.3} s; latency over {} samples, {} beyond p90; {failed} of {attempted} failed",
        w.name(),
        args.seed,
        plan_seeds.len(),
        latencies.len(),
        latencies.len() - latencies.partition_point(|&n| n as f64 / 1e6 <= p90),
    );
    println!("gridbench: samples/s per grid run: {}", per_run.join(" "));
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("samples_per_s", delivered as f64 / wall, "1/s"),
            ("sample_p50_ms", p50, "ms"),
            ("sample_p90_ms", p90, "ms"),
            ("setup_s", median(&mut setups), "s"),
            ("peak_rss_mb", grid::peak_rss_mb(), "MB"),
        ],
    }
}

/// The per-layer run on the first grid of the seed's cycle: untraced
/// serial runs alternating with traced ones until `--seconds` pass, each
/// traced run checked against its partner.
fn traced(args: &Args, dir: &std::path::Path) -> Outcome {
    let w = args.workload;
    let plan_seed = workload::plan_seeds(args.seed)
        .next()
        .expect("a cycle has grids");
    let backend = Arc::new(TimedBackend::new(Arc::new(SimulatedBackend)));
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let run = |workers: usize, sched_stats: bool, disk_cache: bool| {
        let opts = Options {
            workers,
            sched_stats,
            disk_cache,
        };
        grid::run(w, plan_seed, &backend, dir, opts)
    };
    // Scheduler figures come from one untraced run at the workload's own
    // worker count; on one worker the serial runs serve.
    let sched = (w.workers() > 1).then(|| run(w.workers(), true, false));
    // The disk tier, which the timed runs leave out, gets one serial run.
    let disk = (w == Workload::GenStress).then(|| run(1, false, true));
    let mut pairs: Vec<(Rep, Traced)> = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    while pairs.is_empty() || Instant::now() < deadline {
        let serial = run(1, w.workers() == 1, false);
        let order: Vec<_> = serial.delivered.iter().map(|d| (d.key, d.index)).collect();
        let traced = trace::run_traced(w, plan_seed, &order, dir);
        grid::remove_dir(dir);
        problems.extend(check_pair(&serial, &traced));
        pairs.push((serial, traced));
    }
    for p in &problems {
        eprintln!("gridbench: trace check failed: {p}");
    }

    // Every untraced run, the disk-backed one included, must match the
    // first serial run sample for sample; so must every traced run.
    let (serial, first) = &pairs[0];
    let (reference, trusted) = first_run(w, plan_seed, serial);
    let untraced = pairs.iter().map(|(s, _)| s).chain(&sched).chain(&disk);
    let mut attempted = 0;
    let mut failed = 0;
    for rep in untraced {
        attempted += rep.samples as u64;
        failed += failed_samples(rep, &reference);
    }
    for (s, t) in &pairs {
        attempted += s.samples as u64;
        failed += unmatched(&reference, &t.digests) as u64;
    }
    if !trusted {
        failed = attempted;
    }

    let c = &first.counts;
    let stats = serial.stats;
    let sched_rep = sched.as_ref().unwrap_or(serial);
    let med = |f: &dyn Fn(&(Rep, Traced)) -> f64| {
        let mut v: Vec<f64> = pairs.iter().map(f).collect();
        median(&mut v)
    };
    let layer_s = |layer: Layer| med(&|(_, t)| t.layers[layer as usize] as f64 / 1e9);
    let traced_total = |t: &Traced| t.sample_nanos as f64 / 1e9 + t.collect_s;
    let coverage = med(&|(_, t)| t.coverage());
    let overhead = med(&|(s, t)| traced_total(t) / s.wall_s - 1.0);
    let serial_wall = med(&|(s, _)| s.wall_s);
    let lookups = c.outcome_hits + c.outcome_misses;
    let disk_metric = |f: &dyn Fn(&Rep) -> f64| disk.as_ref().map_or(0.0, f);
    println!(
        "gridbench: {} plan seed {plan_seed} traced {} times; layer self times cover {:.2}% \
         of sample wall",
        w.name(),
        pairs.len(),
        coverage * 100.0
    );
    Outcome {
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        metrics: vec![
            (
                "llm.s",
                layer_s(Layer::LlmTranslate) + layer_s(Layer::LlmRepair),
                "s",
            ),
            ("llm.translate_s", layer_s(Layer::LlmTranslate), "s"),
            ("llm.translate_calls", c.translate_calls as f64, "count"),
            ("llm.repair_calls", c.repair_calls as f64, "count"),
            ("translate.self_s", layer_s(Layer::TranslateSelf), "s"),
            ("reference.s", layer_s(Layer::Reference), "s"),
            ("reference.calls", c.reference_calls as f64, "count"),
            ("runtime.s", layer_s(Layer::Runtime), "s"),
            ("runtime.calls", c.runtime_calls as f64, "count"),
            ("runtime.failed", c.runtime_failed as f64, "count"),
            ("build.s", layer_s(Layer::Build), "s"),
            ("build.calls", c.build_calls as f64, "count"),
            ("build.failed", c.build_failed as f64, "count"),
            ("build.parse_calls", c.parse_calls as f64, "count"),
            ("build.unit_hits", c.unit_hits as f64, "count"),
            ("cache.key_s", layer_s(Layer::CacheKey), "s"),
            ("cache.overlay_s", layer_s(Layer::CacheOverlay), "s"),
            ("cache.hits", c.outcome_hits as f64, "count"),
            ("cache.misses", c.outcome_misses as f64, "count"),
            ("cache.hit_ratio", ratio(c.outcome_hits, lookups), "ratio"),
            ("cache.file_hits", stats.file_hits as f64, "count"),
            ("cache.file_misses", stats.file_misses as f64, "count"),
            (
                "cache.disk_hits",
                disk_metric(&|d| d.stats.disk_hits as f64),
                "count",
            ),
            (
                "cache.evictions",
                disk_metric(&|d| d.stats.evictions as f64),
                "count",
            ),
            (
                "cache.disk_bytes",
                disk_metric(&|d| d.disk_bytes as f64),
                "bytes",
            ),
            (
                "cache.disk_overhead_frac",
                disk_metric(&|d| d.wall_s / serial_wall - 1.0),
                "ratio",
            ),
            ("repair.s", layer_s(Layer::Repair), "s"),
            ("repair.rounds", c.repair_calls as f64, "count"),
            (
                "repair.fixed_ratio",
                ratio(c.repair_fixed, c.repair_calls),
                "ratio",
            ),
            ("analyze.s", layer_s(Layer::Analyze), "s"),
            ("analyze.calls", c.analyze_calls as f64, "count"),
            ("sink.s", layer_s(Layer::Sink), "s"),
            ("journal.bytes", serial.journal_bytes as f64, "bytes"),
            ("sched.steals", sched_rep.steals as f64, "count"),
            (
                "sched.cpu_per_wall",
                sched_rep.cpu_s / sched_rep.wall_s,
                "ratio",
            ),
            ("collect.s", med(&|(_, t)| t.collect_s), "s"),
            ("gen.generate_s", med(&|(_, t)| t.gen_s), "s"),
            ("plan.build_s", med(&|(_, t)| t.plan_s), "s"),
            ("trace.glue_s", layer_s(Layer::Glue), "s"),
            (
                "trace.sample_wall_s",
                med(&|(_, t)| t.sample_nanos as f64 / 1e9),
                "s",
            ),
            ("trace.coverage", coverage, "ratio"),
            ("trace.overhead_frac", overhead, "ratio"),
        ],
    }
}

/// The traced run's self-checks against its untraced serial partner.
fn check_pair(serial: &Rep, traced: &Traced) -> Vec<String> {
    let mut problems = Vec::new();
    let want = digests_of(serial);
    let differing = unmatched(&want, &traced.digests);
    if differing > 0 || traced.digests.len() != want.len() {
        problems.push(format!(
            "{differing} of {} traced samples differ from the untraced run",
            want.len()
        ));
    }
    let c = &traced.counts;
    let s = serial.stats;
    if (c.outcome_hits, c.outcome_misses) != (s.hits + s.disk_hits, s.misses) {
        problems.push(format!(
            "traced outcome hits/misses {}/{} differ from CacheStats {}/{}",
            c.outcome_hits,
            c.outcome_misses,
            s.hits + s.disk_hits,
            s.misses
        ));
    }
    if (c.unit_hits, c.unit_misses) != (s.file_hits, s.file_misses) {
        problems.push(format!(
            "traced unit hits/misses {}/{} differ from CacheStats {}/{}",
            c.unit_hits, c.unit_misses, s.file_hits, s.file_misses
        ));
    }
    if traced.coverage() < MIN_COVERAGE {
        problems.push(format!(
            "layer self times cover {:.2}% of traced sample wall time (< {:.0}%)",
            traced.coverage() * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    problems
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}
