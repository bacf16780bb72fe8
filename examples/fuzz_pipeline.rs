//! Pipeline fuzzing: feed seeded synthetic repos spanning the generator's
//! whole knob space — every pragma model, both build systems, every
//! injected-error profile — through parse → sema → build → run (plus the
//! static analyzer) and check invariants the toolchain must hold for
//! *arbitrary* generated input:
//!
//! - nothing panics,
//! - building the same repo twice is deterministic (same outcome, same log),
//! - running the same executable twice is deterministic (same stdout),
//! - `Clean` specs always build and print a checksum,
//! - `ParseError` / `SemaError` specs never build,
//! - `DirectiveRace` specs build but are flagged by `minihpc-analyze`,
//! - the analyzer's findings are deterministic.
//!
//! Seed count defaults to 64; override with `PAREVAL_FUZZ_SEEDS`.
//!
//! Run with: `cargo run --release --example fuzz_pipeline`
//! (`make examples` runs it; a failed assert is a non-zero exit.)

use minihpc_build::{build_repo, BuildRequest};
use minihpc_gen::{generate, ErrorProfile, GenSpec, PragmaModel};
use minihpc_lang::model::BuildSystemKind;
use minihpc_runtime::{run, RunConfig};

/// Rotate every knob with the seed so a default-size run still covers the
/// full cross-product several times over.
fn fuzz_spec(i: u64) -> GenSpec {
    let pragma = [
        PragmaModel::Serial,
        PragmaModel::Threads,
        PragmaModel::Offload,
    ][(i % 3) as usize];
    let build = [BuildSystemKind::Make, BuildSystemKind::CMake][((i / 3) % 2) as usize];
    let errors = [
        ErrorProfile::Clean,
        ErrorProfile::ParseError,
        ErrorProfile::SemaError,
        ErrorProfile::DirectiveRace,
    ][((i / 6) % 4) as usize];
    GenSpec::new(0xF422_0000 + i)
        .with_files(1 + (i % 5) as usize)
        .with_pragma_model(pragma)
        .with_build_system(build)
        .with_errors(errors)
}

fn main() {
    let seeds: u64 = std::env::var("PAREVAL_FUZZ_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);

    let mut built = 0u64;
    let mut rejected = 0u64;
    let mut flagged = 0u64;
    for i in 0..seeds {
        let spec = fuzz_spec(i);
        let app = generate(&spec);
        let again = generate(&spec);
        assert_eq!(
            app.repo.iter().collect::<Vec<_>>(),
            again.repo.iter().collect::<Vec<_>>(),
            "{}: generation not deterministic",
            app.name
        );

        // Parse + sema + build, twice: the toolchain must be a pure
        // function of the repo bytes.
        let request = BuildRequest::new(app.binary.as_str());
        let first = build_repo(&app.repo, &request);
        let second = build_repo(&app.repo, &request);
        assert_eq!(
            first.succeeded(),
            second.succeeded(),
            "{}: build outcome diverged",
            app.name
        );
        assert_eq!(
            first.log.text(),
            second.log.text(),
            "{}: build log diverged",
            app.name
        );

        match spec.errors {
            ErrorProfile::Clean | ErrorProfile::DirectiveRace => assert!(
                first.succeeded(),
                "{}: {:?} spec must build, log:\n{}",
                app.name,
                spec.errors,
                first.log.text()
            ),
            ErrorProfile::ParseError | ErrorProfile::SemaError => {
                assert!(
                    !first.succeeded(),
                    "{}: {:?} spec must fail to build",
                    app.name,
                    spec.errors
                );
                rejected += 1;
            }
        }

        if let Some(exe) = &first.executable {
            built += 1;
            let args = ["24", "2"];
            let a = run(exe, RunConfig::with_args(args));
            let b = run(exe, RunConfig::with_args(args));
            assert!(
                a.error.is_none() && a.exit_code == 0,
                "{}: run failed: {:?}\n{}",
                app.name,
                a.error,
                a.stdout
            );
            assert_eq!(a.stdout, b.stdout, "{}: stdout diverged", app.name);
            assert_eq!(a.exit_code, b.exit_code, "{}: exit code diverged", app.name);
            assert!(a.stdout.contains("checksum "), "{}: {}", app.name, a.stdout);
        }

        let findings = minihpc_analyze::analyze_repo(&app.repo);
        assert_eq!(
            findings,
            minihpc_analyze::analyze_repo(&app.repo),
            "{}: analyzer not deterministic",
            app.name
        );
        let racy = findings
            .iter()
            .any(|f| f.rule == minihpc_analyze::Rule::RawReduction);
        if spec.errors == ErrorProfile::DirectiveRace && spec.pragma_model != PragmaModel::Serial {
            assert!(racy, "{}: injected race not flagged", app.name);
            flagged += 1;
        }
    }

    println!(
        "{seeds} specs fuzzed, {built} built+ran deterministically, \
         {rejected} broken specs rejected, {flagged} injected races flagged, 0 divergences"
    );
}
