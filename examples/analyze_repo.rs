//! Command-line front end for `minihpc-analyze`: point it at a repository
//! (a directory of MiniHPC sources) or at a `minihpc-gen` seed, and it
//! prints every finding with its severity, confidence, and — where the
//! analyzer can prove one safe — a machine-applicable fix-it.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example analyze_repo -- <DIR>         # analyze a directory
//! cargo run --release --example analyze_repo -- --gen <SEED>  # analyze a generated repo
//! cargo run --release --example analyze_repo -- --json ...    # machine-readable output
//! ```
//!
//! With no arguments it analyzes a generated `directive-race` repository
//! (seed 0xA11A), so `make examples` exercises the full path end to end.
//! Directory runs exit 1 when any error-severity finding was reported
//! (warnings do not fail the run); generated-seed demo runs always exit 0 —
//! their injected race is the expected output, not a failure.

use minihpc_analyze::{analyze_repo, render_findings_with_fixits};
use minihpc_gen::{ErrorProfile, GenSpec};
use minihpc_lang::repo::{FileKind, SourceRepo};
use std::path::Path;

enum Input {
    Dir(String),
    Gen(u64),
}

struct Cli {
    input: Input,
    json: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: analyze_repo [--json] (<DIR> | --gen <SEED>)\n\
         With no input, analyzes a generated directive-race repo (seed 0xA11A)."
    );
    std::process::exit(2);
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        input: Input::Gen(0xA11A),
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => cli.json = true,
            "--gen" => {
                let seed = args.next().unwrap_or_else(|| usage());
                let seed = seed
                    .strip_prefix("0x")
                    .map(|h| u64::from_str_radix(h, 16))
                    .unwrap_or_else(|| seed.parse())
                    .unwrap_or_else(|_| usage());
                cli.input = Input::Gen(seed);
            }
            "--help" | "-h" => usage(),
            path if !path.starts_with('-') => cli.input = Input::Dir(path.to_string()),
            _ => usage(),
        }
    }
    cli
}

/// Load every code file under `root` (recursively) into a [`SourceRepo`],
/// keyed by its path relative to `root`.
fn load_dir(root: &Path) -> std::io::Result<SourceRepo> {
    fn walk(root: &Path, dir: &Path, repo: &mut SourceRepo) -> std::io::Result<()> {
        let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(|e| e.path());
        for entry in entries {
            let path = entry.path();
            if path.is_dir() {
                walk(root, &path, repo)?;
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("walked path is under root")
                    .to_string_lossy()
                    .replace('\\', "/");
                if FileKind::of(&rel).is_code() {
                    repo.add(rel, std::fs::read_to_string(&path)?);
                }
            }
        }
        Ok(())
    }
    let mut repo = SourceRepo::new();
    walk(root, root, &mut repo)?;
    Ok(repo)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn main() {
    let cli = parse_args();
    let (label, repo) = match &cli.input {
        Input::Dir(path) => {
            let repo = load_dir(Path::new(path)).unwrap_or_else(|e| {
                eprintln!("analyze_repo: cannot read {path}: {e}");
                std::process::exit(2);
            });
            if repo.is_empty() {
                eprintln!("analyze_repo: no code files under {path}");
                std::process::exit(2);
            }
            (path.clone(), repo)
        }
        Input::Gen(seed) => {
            let spec = GenSpec::new(*seed).with_errors(ErrorProfile::DirectiveRace);
            let g = minihpc_gen::generate(&spec);
            (
                format!("generated repo {} (seed {seed:#x})", g.name),
                g.repo,
            )
        }
    };

    let findings = analyze_repo(&repo);
    let errors = findings.iter().filter(|f| f.is_error()).count();

    if cli.json {
        let mut out = String::from("[\n");
        for (i, f) in findings.iter().enumerate() {
            out.push_str(&format!(
                concat!(
                    "  {{\"rule\": \"{}\", \"severity\": \"{}\", \"confidence\": \"{}\", ",
                    "\"variable\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\""
                ),
                f.rule.id(),
                if f.is_error() { "error" } else { "warning" },
                f.confidence.label(),
                json_escape(&f.variable),
                json_escape(&f.file),
                f.line.map_or("null".to_string(), |l| l.to_string()),
                json_escape(&f.message),
            ));
            if let Some(fx) = &f.fixit {
                out.push_str(&format!(
                    ", \"fixit\": {{\"title\": \"{}\", \"file\": \"{}\", \"line\": {}, \"edit\": \"{}\"}}",
                    json_escape(&fx.title),
                    json_escape(&fx.file),
                    fx.line,
                    json_escape(fx.edit.payload()),
                ));
            }
            out.push('}');
            if i + 1 < findings.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]\n");
        print!("{out}");
    } else {
        println!("analyzing {label}: {} files", repo.len());
        print!("{}", render_findings_with_fixits(&findings));
        println!(
            "{} findings ({errors} errors, {} fix-its)",
            findings.len(),
            findings.iter().filter(|f| f.fixit.is_some()).count()
        );
    }

    std::process::exit(i32::from(errors > 0 && !matches!(cli.input, Input::Gen(_))));
}
