//! Oracle translations pinned file by file: `tests/golden/translations.txt`
//! holds one row per file of each oracle-translated repository, with its
//! path and an FNV-128 of its text.
//!
//! The rows cover every (application, translation pair) of the
//! hand-written suite, and 48 `minihpc-gen` applications crossing the three
//! pragma dialects, the four error profiles and the four kernel kinds (each
//! spec's kernel list starts at a different kind), with one to four kernel
//! files, all translated OpenMP threads → OpenMP offload. Every simulated
//! model output starts from this text, so any change to the transpiler that
//! alters what it emits shows up here as a diff. Regenerate with
//! `UPDATE_GOLDEN=1` only after an intentional change of a translation.

use minihpc_gen::{generate, ErrorProfile, GenSpec, KernelKind, PragmaModel};
use minihpc_lang::fnv::fnv128;
use minihpc_lang::model::TranslationPair;
use minihpc_lang::repo::SourceRepo;
use pareval_repo as _;
use pareval_translate::transpile_repo;
use std::fmt::Write;

fn rows(out: &mut String, label: &str, translated: &SourceRepo) {
    for (path, text) in translated.iter() {
        writeln!(out, "{label} {path} {:032x}", fnv128(text.as_bytes())).unwrap();
    }
}

fn translations_text() -> String {
    let mut out = String::new();
    for app in pareval_apps::suite() {
        for pair in app.pairs() {
            let translated = transpile_repo(app.repo(pair.from).unwrap(), pair, &app.binary);
            rows(&mut out, &format!("suite {} {pair}", app.name), &translated);
        }
    }
    let pair = TranslationPair::OMP_THREADS_TO_OFFLOAD;
    let mut seed = 0u64;
    for pragma in PragmaModel::ALL {
        for (e, errors) in ErrorProfile::ALL.into_iter().enumerate() {
            for k in 0..KernelKind::ALL.len() {
                let kernels = (0..KernelKind::ALL.len()).map(|i| KernelKind::ALL[(k + i) % 4]);
                let spec = GenSpec::new(seed)
                    .with_pragma_model(pragma)
                    .with_errors(errors)
                    .with_kernels(kernels)
                    .with_files(1 + (e + k) % 4);
                let g = generate(&spec);
                let label = format!(
                    "gen {} {} {} {pair}",
                    g.name,
                    errors.name(),
                    KernelKind::ALL[k].name()
                );
                rows(&mut out, &label, &transpile_repo(&g.repo, pair, &g.binary));
                seed += 1;
            }
        }
    }
    out
}

#[test]
fn oracle_translations_match_golden() {
    let text = translations_text();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/translations.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).unwrap();
    }
    assert_eq!(
        text,
        std::fs::read_to_string(path).expect("golden missing; rerun with UPDATE_GOLDEN=1"),
        "oracle translations diverged from tests/golden/translations.txt"
    );
}
