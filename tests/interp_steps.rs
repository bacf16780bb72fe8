//! Interpreter work pinned run by run: `tests/golden/interp_steps.txt`
//! holds one row per program run, with its statement count (`steps`), exit
//! code, error kind, race findings, telemetry and an FNV-128 of its stdout.
//!
//! The rows cover the first test case of every (application, model) pair
//! of the hand-written suite and of 20 `minihpc-gen` applications (seeds
//! 0–19, all three pragma dialects), each run both sequentially and as
//! four logical OpenMP workers with the shared-write recorder on. Any change to
//! the interpreter that alters what a run executes, prints or reports shows
//! up here as a diff. Regenerate with `UPDATE_GOLDEN=1` only after an
//! intentional change of semantics.

use minihpc_build::{build_repo, BuildRequest, Executable};
use minihpc_gen::{generate, ErrorProfile, GenSpec, PragmaModel};
use minihpc_lang::fnv::Fnv128;
use minihpc_lang::repo::SourceRepo;
use minihpc_runtime::{run, RunConfig, RunResult};
use pareval_repo as _;
use std::fmt::Write;

fn row(out: &mut String, label: &str, r: &RunResult) {
    let mut h = Fnv128::new();
    h.write(r.stdout.as_bytes());
    let t = r.telemetry;
    writeln!(
        out,
        "{label} steps={} exit={} error={} races={} race_vars={} \
         device={}/{}/{} host={} stdout={:032x}",
        r.steps,
        r.exit_code,
        r.error
            .as_ref()
            .map_or_else(|| "-".to_string(), |e| format!("{:?}", e.kind)),
        r.races.len(),
        r.race_vars.join(","),
        t.device_regions,
        t.device_threads,
        t.max_device_parallelism,
        t.host_parallel_regions,
        h.finish(),
    )
    .unwrap();
}

fn build(repo: &SourceRepo, binary: &str) -> Executable {
    let outcome = build_repo(repo, &BuildRequest::new(binary));
    outcome
        .executable
        .unwrap_or_else(|| panic!("{binary} failed to build:\n{}", outcome.log.text()))
}

/// One sequential run, then one as four logical OpenMP workers with the
/// shared-write recorder on.
fn runs(out: &mut String, label: &str, exe: &Executable, args: &[String]) {
    let seq = run(exe, RunConfig::with_args(args.iter().cloned()));
    row(out, &format!("{label} seq"), &seq);
    let mut cfg = RunConfig::with_args(args.iter().cloned());
    cfg.parallel = true;
    cfg.workers = 4;
    cfg.record_shared_writes = true;
    row(out, &format!("{label} par4"), &run(exe, cfg));
}

fn interp_steps_text() -> String {
    let mut out = String::new();
    for app in pareval_apps::suite() {
        let case = &app.tests[0];
        for model in app.available_models() {
            let exe = build(app.repo(model).unwrap(), &app.binary);
            let label = format!("suite {} {model} [{}]", app.name, case.args.join(" "));
            runs(&mut out, &label, &exe, &case.args);
        }
    }
    for seed in 0..20u64 {
        let pragma = PragmaModel::ALL[seed as usize % 3];
        let mut spec = GenSpec::new(seed)
            .with_pragma_model(pragma)
            .with_files(1 + (seed / 3) as usize % 3);
        if pragma == PragmaModel::Threads && seed % 2 == 0 {
            spec = spec.with_errors(ErrorProfile::DirectiveRace);
        }
        let g = generate(&spec);
        let exe = build(&g.repo, &g.binary);
        let args = &g.tests[0];
        let label = format!("gen {} {} [{}]", g.name, spec.errors.name(), args.join(" "));
        runs(&mut out, &label, &exe, args);
    }
    out
}

#[test]
fn interpreter_work_matches_golden() {
    let text = interp_steps_text();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/interp_steps.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).unwrap();
    }
    assert_eq!(
        text,
        std::fs::read_to_string(path).expect("golden missing; rerun with UPDATE_GOLDEN=1"),
        "interpreter work diverged from tests/golden/interp_steps.txt"
    );
}
