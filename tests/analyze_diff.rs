//! Fuzz-driven differential validation of the static analyzer against the
//! runtime's dynamic shared-write recorder, over hundreds of seeded
//! `GenSpec` repositories:
//!
//! - **Clean profiles produce zero findings** — not merely zero errors:
//!   the generator's clean repos are the analyzer's false-positive corpus.
//! - **Injected directive races have zero static false negatives** —
//!   every `DirectiveRace` repo carries an error-severity finding, and
//!   every variable the dynamic recorder observes conflicting is among
//!   the variables the analyzer flagged (`race_vars ⊆ static error vars`).
//! - **The interprocedural pass is pinned by a golden snapshot** — a raw
//!   reduction hidden one helper call deep, caught via call-graph
//!   summaries, is frozen in
//!   `tests/golden/interproc_findings.txt` (regenerate with
//!   `UPDATE_GOLDEN=1`).

use minihpc_analyze::analyze_repo;
use minihpc_build::{build_repo, BuildRequest};
use minihpc_gen::{generate, ErrorProfile, GenSpec, KernelKind, PragmaModel};
use minihpc_runtime::{run, RunConfig};
use pareval_repo as _;
use std::collections::BTreeSet;

/// 120 clean + 120 racy seeded repos = a 240-repo differential corpus.
const CLEAN_REPOS: u64 = 120;
const RACY_REPOS: u64 = 120;

/// Clean specs sweep the generator's registrable knob space: file counts,
/// kernel mixes, and all three pragma models (serial repos keep the
/// analyzer honest about non-parallel code).
fn clean_spec(i: u64) -> GenSpec {
    let spec = GenSpec::new(0xD1FF_0000 + i).with_files(1 + (i as usize % 4));
    let spec = match i % 3 {
        0 => spec,
        1 => spec.with_pragma_model(PragmaModel::Offload),
        _ => spec.with_pragma_model(PragmaModel::Serial),
    };
    match i % 4 {
        0 => spec,
        1 => spec.with_kernels([KernelKind::Reduction]),
        2 => spec.with_kernels([KernelKind::Stencil, KernelKind::Reduction]),
        _ => spec.with_kernels([KernelKind::GemmLike, KernelKind::MemcpyBound]),
    }
}

/// Racy specs rotate the two pragma models that emit directives; the
/// generator guarantees at least one `Reduction` kernel to strip.
fn racy_spec(i: u64) -> GenSpec {
    let spec = GenSpec::new(0xD1FF_8000 + i)
        .with_files(1 + (i as usize % 3))
        .with_errors(ErrorProfile::DirectiveRace);
    if i.is_multiple_of(2) {
        spec
    } else {
        spec.with_pragma_model(PragmaModel::Offload)
    }
}

#[test]
fn clean_profiles_produce_zero_findings() {
    for i in 0..CLEAN_REPOS {
        let spec = clean_spec(i);
        let app = generate(&spec);
        let findings = analyze_repo(&app.repo);
        assert!(
            findings.is_empty(),
            "clean repo {} (spec {spec:?}) produced findings:\n{}",
            app.name,
            minihpc_analyze::render_findings_with_fixits(&findings)
        );
    }
}

#[test]
fn injected_races_have_zero_static_false_negatives() {
    let mut dynamic_confirmations = 0u64;
    for i in 0..RACY_REPOS {
        let spec = racy_spec(i);
        let app = generate(&spec);
        let findings = analyze_repo(&app.repo);
        let static_vars: BTreeSet<&str> = findings
            .iter()
            .filter(|f| f.is_error())
            .map(|f| f.variable.as_str())
            .collect();
        assert!(
            !static_vars.is_empty(),
            "racy repo {} (spec {spec:?}) has no error finding — a static false negative",
            app.name
        );

        // Differential half: execute the racy repo under the per-worker
        // OpenMP schedule with the shared-write recorder on. Every variable
        // the recorder sees conflicting must be one the analyzer flagged.
        let outcome = build_repo(&app.repo, &BuildRequest::new(&app.binary));
        let exe = outcome.executable.unwrap_or_else(|| {
            panic!(
                "racy repo {} must still build, log:\n{}",
                app.name,
                outcome.log.text()
            )
        });
        let args = app.tests.first().cloned().unwrap_or_default();
        let mut cfg = RunConfig::with_args(args);
        cfg.parallel = true;
        cfg.workers = 4;
        cfg.record_shared_writes = true;
        let r = run(&exe, cfg);
        assert!(
            r.error.is_none(),
            "racy repo {} failed to run: {:?}",
            app.name,
            r.error
        );
        for var in &r.race_vars {
            assert!(
                static_vars.contains(var.as_str()),
                "repo {}: recorder saw '{var}' conflict but the analyzer flagged only {static_vars:?}",
                app.name
            );
        }
        dynamic_confirmations += u64::from(!r.race_vars.is_empty());
    }
    // The recorder must actually exercise the differential: if it never
    // observes a conflict the subset check above is vacuous.
    assert!(
        dynamic_confirmations >= RACY_REPOS / 2,
        "recorder confirmed only {dynamic_confirmations}/{RACY_REPOS} injected races"
    );
}

/// A raw reduction hidden behind a helper call, which only the call-graph
/// summary pass sees, is caught with an applicable fix-it. The rendered
/// verdict is pinned as a golden snapshot.
#[test]
fn interprocedural_findings_match_golden() {
    let src = r#"
void accumulate(double* acc, double x) {
    *acc += x;
}

double tally(int n) {
    double sum = 0.0;
    #pragma omp parallel for
    for (int i = 0; i < n; i++) {
        accumulate(&sum, i * 0.5);
    }
    return sum;
}
"#;
    let repo = minihpc_lang::repo::SourceRepo::new().with_file("src/tally.cpp", src);

    let v2 = analyze_repo(&repo);
    assert!(
        v2.iter().any(|f| f.is_error()),
        "summary pass missed the interprocedural raw reduction"
    );
    let text = minihpc_analyze::render_findings_with_fixits(&v2);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/interproc_findings.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).unwrap();
    }
    assert_eq!(
        text,
        std::fs::read_to_string(path).expect("golden missing; rerun with UPDATE_GOLDEN=1"),
        "interprocedural verdict diverged from tests/golden/interproc_findings.txt"
    );
}
