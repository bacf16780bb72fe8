//! The scheduler figure: static round-robin sharding vs the work-stealing
//! `ScheduledRunner` on a repair-heavy grid, at 1/2/4/8 workers.
//!
//! The grid is deliberately adversarial to static sharding, in a way real
//! grids are too: one sample per cell with four models means the model
//! axis *resonates* with a four-worker round-robin — every sample of the
//! same model lands on the same worker — and with `repair_budget = 3` and
//! the build cache off, per-sample cost is dominated by how many repair
//! re-evaluations that model's build failures trigger. Round-robin
//! serializes the repair-heavy model columns on whichever workers drew
//! them; work stealing redistributes them.
//!
//! **Measurement.** A scheduler comparison must not depend on how many
//! CPUs the CI box happens to have (on a single-core container, two
//! CPU-bound thread pools both degenerate to total-work wall time). So
//! the bench first measures every sample's real cost by timing
//! `EvalPipeline::execute` per spec, in enumeration order, then *replays*
//! those per-sample costs as `thread::sleep`s through the two scheduling
//! primitives (this file's private `round_robin_map` baseline and
//! `stealing_map`). Sleeping workers overlap on any machine, so the
//! replayed wall-clock is the schedule's makespan — the quantity a
//! scheduler actually controls. The real (CPU-bound) grid is also timed
//! through both for reference.
//!
//! `make sched-smoke` runs this bench and fails if the emitted
//! `BENCH_sched.json` (path override: `PAREVAL_BENCH_JSON`) is missing
//! keys or shows work stealing below round-robin at 4 workers.

use criterion::{criterion_group, criterion_main, Criterion};
use minihpc_lang::model::TranslationPair;
use pareval_core::sched::stealing_map;
use pareval_core::{
    EvalConfig, EvalPipeline, ExperimentPlan, ExperimentResults, Runner, ScheduledRunner,
};
use pareval_llm::all_models;
use pareval_translate::Technique;
use std::time::{Duration, Instant};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The repair-heavy grid: 4 models × 2 techniques × 3 XOR apps, one
/// sample per cell, repair budget 3, build cache off (each repair round
/// is a real rebuild, as on an uncached CI runner).
fn grid() -> ExperimentPlan {
    ExperimentPlan::builder()
        .samples(1)
        .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
        .techniques([Technique::NonAgentic, Technique::TopDownAgentic])
        .models(all_models().into_iter().filter(|m| m.name != "gpt-4o-mini"))
        .apps(["nanoXOR", "microXORh", "microXOR"])
        .eval(EvalConfig {
            max_cases: 1,
            repair_budget: 3,
            build_cache: false,
            ..EvalConfig::default()
        })
        .build()
}

/// The static-sharding baseline: item `i` goes to worker `i % workers`,
/// fixed for the whole run. Results come back in shard-concatenation
/// order. For *uniform* per-item costs this is optimal and lock-free; with
/// heavy-tailed repair costs one unlucky shard serializes the run, which
/// is what the work-stealing scheduler is measured against.
fn round_robin_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    let mut results: Vec<R> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                scope.spawn(move || {
                    items
                        .iter()
                        .skip(w)
                        .step_by(workers)
                        .map(f)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(out) => results.extend(out),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    results
}

/// The baseline's contract, checked before it is timed: every item is
/// mapped exactly once, and zero workers clamps to one.
fn check_round_robin_map() {
    let items: Vec<u64> = (0..37).collect();
    let mut results = round_robin_map(&items, 4, |&x| x + 1);
    results.sort_unstable();
    assert_eq!(results, (1..38).collect::<Vec<_>>());
    assert_eq!(round_robin_map(&items, 0, |&x| x).len(), items.len());
}

/// The real grid sharded round-robin across `workers` threads over one
/// shared pipeline.
fn run_round_robin(plan: &ExperimentPlan, workers: usize) -> ExperimentResults {
    let pipeline = EvalPipeline::new(plan.eval().clone());
    let records = round_robin_map(&plan.sample_specs(), workers, |spec| {
        pipeline.execute(plan, spec)
    });
    ExperimentResults::from_records(plan, records)
}

/// Per-sample costs of `plan`, aligned with `plan.sample_specs()`: each
/// spec's `EvalPipeline::execute` timed in enumeration order, the min over
/// `reps` runs (a fresh pipeline each), then rescaled so they sum to
/// `total` (replay time is a budget knob; makespan *ratios* are
/// scale-invariant).
fn measure_costs(plan: &ExperimentPlan, reps: usize, total: Duration) -> Vec<Duration> {
    let specs = plan.sample_specs();
    let mut best = vec![Duration::MAX; specs.len()];
    for _ in 0..reps.max(1) {
        let pipeline = EvalPipeline::new(plan.eval().clone());
        for (b, spec) in best.iter_mut().zip(&specs) {
            let start = Instant::now();
            std::hint::black_box(pipeline.execute(plan, spec));
            *b = (*b).min(start.elapsed());
        }
    }
    let sum: Duration = best.iter().sum();
    let scale = total.as_secs_f64() / sum.as_secs_f64().max(1e-9);
    best.iter()
        .map(|d| Duration::from_secs_f64(d.as_secs_f64() * scale))
        .collect()
}

/// Replays `costs` as sleeps through static round-robin sharding and
/// returns the wall-clock makespan (min over `reps`).
fn replay_round_robin(costs: &[Duration], workers: usize, reps: usize) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            round_robin_map(costs, workers, |d| std::thread::sleep(*d));
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Replays `costs` through the work-stealing scheduler, seeding the
/// injector the way `ScheduledRunner` does (most expensive first — here
/// by the plan's `cost_hint`, *not* the measured cost, so the replay only
/// knows what the real scheduler would know). Returns (makespan, steals)
/// of the best rep.
fn replay_stealing(
    plan: &ExperimentPlan,
    costs: &[Duration],
    workers: usize,
    reps: usize,
) -> (f64, u64) {
    let mut items: Vec<(u32, Duration)> = plan
        .sample_specs()
        .iter()
        .zip(costs)
        .map(|(spec, d)| (spec.cost_hint, *d))
        .collect();
    items.sort_by_key(|item| std::cmp::Reverse(item.0));
    let mut best = (f64::INFINITY, 0u64);
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let (_, stats) = stealing_map(items.clone(), workers, |(_, d)| std::thread::sleep(*d));
        let wall = start.elapsed().as_secs_f64();
        if wall < best.0 {
            best = (wall, stats.steals);
        }
    }
    best
}

fn json_map(values: &[(usize, f64)]) -> String {
    let entries: Vec<String> = values
        .iter()
        .map(|(w, v)| format!("\"w{w}\": {v:.4}"))
        .collect();
    format!("{{{}}}", entries.join(", "))
}

fn bench(c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    check_round_robin_map();
    let plan = grid();
    let specs = plan.total_samples();
    let reps = if test_mode { 1 } else { 3 };
    let replay_total = if test_mode {
        Duration::from_millis(40)
    } else {
        Duration::from_millis(240)
    };

    let costs = measure_costs(&plan, reps, replay_total);
    let mut rr = Vec::new();
    let mut ws = Vec::new();
    let mut steals_at_4 = 0;
    println!("scheduler: {specs} samples, repair budget 3, cache off (sleep-replay makespans)");
    for workers in WORKER_COUNTS {
        let rr_wall = replay_round_robin(&costs, workers, reps);
        let (ws_wall, steals) = replay_stealing(&plan, &costs, workers, reps);
        if workers == 4 {
            steals_at_4 = steals;
        }
        println!(
            "  {workers} workers: round-robin {:.1} ms, work-stealing {:.1} ms ({:.2}x, {steals} steals)",
            rr_wall * 1e3,
            ws_wall * 1e3,
            rr_wall / ws_wall
        );
        rr.push((workers, rr_wall));
        ws.push((workers, ws_wall));
    }
    let speedup: Vec<(usize, f64)> = rr
        .iter()
        .zip(&ws)
        .map(|(&(w, r), &(_, s))| (w, r / s))
        .collect();
    let speedup_at_4 = speedup
        .iter()
        .find(|(w, _)| *w == 4)
        .map(|(_, s)| *s)
        .unwrap_or(0.0);

    // Reference: the real (CPU-bound) grid through both schedules. On a
    // many-core box this tracks the replay ratio; on a single-core CI
    // container both collapse to total work.
    let start = Instant::now();
    std::hint::black_box(run_round_robin(&plan, 4));
    let real_rr = start.elapsed().as_secs_f64();
    let start = Instant::now();
    std::hint::black_box(ScheduledRunner::new(4).run(&plan));
    let real_ws = start.elapsed().as_secs_f64();

    if !test_mode {
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"scheduler\",\n",
                "  \"measurement\": \"sleep-replay of per-sample costs measured from serial runs; ",
                "wall-clock = schedule makespan, independent of host CPU count\",\n",
                "  \"grid\": \"CUDA->OMP-offload x (non-agentic, top-down) x 3 XOR apps x 4 models\",\n",
                "  \"samples_per_cell\": 1,\n",
                "  \"grid_samples\": {specs},\n",
                "  \"repair_budget\": 3,\n",
                "  \"build_cache\": false,\n",
                "  \"workers\": [{workers}],\n",
                "  \"round_robin_wall_s\": {rr},\n",
                "  \"work_stealing_wall_s\": {ws},\n",
                "  \"speedup\": {speedup},\n",
                "  \"speedup_at_4\": {s4:.4},\n",
                "  \"steals_at_4\": {steals},\n",
                "  \"real_grid_wall_s\": {{\"round_robin\": {real_rr:.4}, \"work_stealing\": {real_ws:.4}}}\n",
                "}}\n",
            ),
            specs = specs,
            workers = WORKER_COUNTS.map(|w| w.to_string()).join(", "),
            rr = json_map(&rr),
            ws = json_map(&ws),
            speedup = json_map(&speedup),
            s4 = speedup_at_4,
            steals = steals_at_4,
            real_rr = real_rr,
            real_ws = real_ws,
        );
        let path =
            std::env::var("PAREVAL_BENCH_JSON").unwrap_or_else(|_| "BENCH_sched.json".to_string());
        std::fs::write(&path, json).expect("write BENCH_sched.json");
        println!("wrote {path}");
    }

    c.bench_function("sched/round_robin_4w", |b| {
        b.iter(|| std::hint::black_box(run_round_robin(&plan, 4)))
    });
    c.bench_function("sched/work_stealing_4w", |b| {
        b.iter(|| std::hint::black_box(ScheduledRunner::new(4).run(&plan)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(5);
    targets = bench
}
criterion_main!(benches);
