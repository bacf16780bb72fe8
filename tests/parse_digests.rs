//! The front end pinned file by file: `tests/golden/parse_digests.txt`
//! holds one row per code file, with the number of tokens the parser
//! consumes (after `#define` expansion, `Eof` included) and an FNV-128 of
//! the parsed AST's `Debug` text, spans included.
//!
//! The rows cover every code file of every (application, model) pair of
//! the hand-written suite and of the 20 `minihpc-gen` applications that
//! `interp_steps.rs` runs (seeds 0–19, all three pragma dialects). Any
//! change to the lexer or parser that alters a token, a tree node or a
//! span shows up here as a diff. Regenerate with `UPDATE_GOLDEN=1` only
//! after an intentional change of syntax.

use minihpc_gen::{generate, ErrorProfile, GenSpec, PragmaModel};
use minihpc_lang::fnv::Fnv128;
use minihpc_lang::lexer::{expand_defines, lex};
use minihpc_lang::parser::parse_file;
use minihpc_lang::repo::{FileKind, SourceRepo};
use pareval_repo as _;
use std::fmt::Write;

fn rows(out: &mut String, label: &str, repo: &SourceRepo) {
    for (path, text) in repo.iter() {
        if !FileKind::of(path).is_code() {
            continue;
        }
        let tokens = lex(text).map_or(0, |t| expand_defines(t).len());
        let digest = match parse_file(text) {
            Ok(ast) => {
                let mut h = Fnv128::new();
                h.write(format!("{ast:?}").as_bytes());
                format!("{:032x}", h.finish())
            }
            Err(e) => format!("error({}@{})", e.message, e.span.start),
        };
        writeln!(out, "{label} {path} tokens={tokens} ast={digest}").unwrap();
    }
}

fn parse_digests_text() -> String {
    let mut out = String::new();
    for app in pareval_apps::suite() {
        for model in app.available_models() {
            let label = format!("suite {} {model}", app.name);
            rows(&mut out, &label, app.repo(model).unwrap());
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
        let label = format!("gen {} {}", g.name, spec.errors.name());
        rows(&mut out, &label, &g.repo);
    }
    out
}

#[test]
fn parsed_trees_match_golden() {
    let text = parse_digests_text();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/parse_digests.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).unwrap();
    }
    assert_eq!(
        text,
        std::fs::read_to_string(path).expect("golden missing; rerun with UPDATE_GOLDEN=1"),
        "parsed trees diverged from tests/golden/parse_digests.txt"
    );
}
