//! The three repository-translation techniques benchmarked by the paper
//! (Sec. 3): the non-agentic file-by-file method, the top-down agentic
//! method (dependency / chunk / context / translation agents), and the
//! SWE-agent adaptation.
//!
//! Techniques are generic over a [`Backend`] — the (simulated) LLM that
//! performs each file translation. The technique owns prompt construction
//! (paper Listing 1), orchestration order, and repo assembly; the backend
//! owns translation quality and token accounting.

mod deps;
mod prompt;

pub use deps::dependency_order;
pub use prompt::{build_prompt, prompt_len, ByteCount, ContextSummary, PromptParts};

use minihpc_lang::model::TranslationPair;
use minihpc_lang::repo::{Body, FileKind, SourceRepo};
use std::fmt::{self, Write};

/// The full task specification a technique receives.
#[derive(Debug, Clone)]
pub struct TranslationJob<'a> {
    pub app_name: &'a str,
    pub binary: &'a str,
    pub source_repo: &'a SourceRepo,
    pub pair: TranslationPair,
    pub cli_spec: &'a str,
    pub build_spec: &'a str,
}

/// One file-translation request handed to the backend.
#[derive(Debug, Clone)]
pub struct FileJob {
    pub path: String,
    /// The text to translate: the file's body, shared with the source
    /// repo, or one chunk of it.
    pub contents: Body,
    /// The byte length of the complete prompt (system + context +
    /// instruction), which the backend charges as input tokens. The
    /// prompt itself is measured, not built ([`prompt_len`]).
    pub prompt_len: usize,
    pub pair: TranslationPair,
    pub kind: FileKind,
    pub binary: String,
}

/// Backend response for one file job.
#[derive(Debug, Clone)]
pub struct BackendOutput {
    /// Translated files (path may be renamed, e.g. `.cu` → `.cpp`; a
    /// response may carry several files when the model merges them). A
    /// backend that re-emits a body it derived before hands back the same
    /// handle, and the technique adds it to the translated repository as
    /// is, content hash included.
    pub files: Vec<(String, Body)>,
    /// A short summary of the changes (produced by the context agent's
    /// underlying model; used in dependents' prompts).
    pub summary: String,
}

/// Why a backend could not complete a job — these become the paper's empty
/// heatmap cells.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// Prompt (plus expected output) exceeds the model's context window —
    /// the non-agentic method cannot scale to this repo (paper Sec. 8.2).
    ContextExceeded { needed: u64, limit: u64 },
    /// The per-experiment budget (API dollars / node-hours) ran out.
    BudgetExhausted,
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::ContextExceeded { needed, limit } => write!(
                f,
                "translation exceeds the model context window ({needed} > {limit} tokens)"
            ),
            BackendError::BudgetExhausted => {
                write!(f, "per-experiment inference budget exhausted")
            }
        }
    }
}

/// The simulated LLM interface.
pub trait Backend {
    /// Translate one file (or chunk).
    fn translate(&mut self, job: &FileJob) -> Result<BackendOutput, BackendError>;
    /// The model's context window, in tokens.
    fn context_limit(&self) -> u64;
    /// Tokenize a text with the model's tokenizer.
    fn count_tokens(&self, text: &str) -> u64;
    /// Whether this model includes full dependency text (rather than terse
    /// summaries) as top-down context — the paper observes local models are
    /// much less conservative here (Sec. 8.4).
    fn verbose_context(&self) -> bool {
        false
    }
}

/// The translation techniques of paper Sec. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Technique {
    NonAgentic,
    TopDownAgentic,
    SweAgent,
}

impl Technique {
    pub const ALL: [Technique; 3] = [
        Technique::NonAgentic,
        Technique::TopDownAgentic,
        Technique::SweAgent,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Technique::NonAgentic => "Non-agentic",
            Technique::TopDownAgentic => "Top-down agentic",
            Technique::SweAgent => "SWE-agent",
        }
    }
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of a full repository translation attempt.
#[derive(Debug, Clone)]
pub struct TranslationRun {
    /// The assembled translated repository (`None` when the attempt could
    /// not complete — context window or budget).
    pub repo: Option<SourceRepo>,
    pub failure: Option<String>,
}

impl TranslationRun {
    pub fn completed(&self) -> bool {
        self.repo.is_some()
    }
}

/// Run `technique` on `job` with `backend`.
pub fn translate_with(
    technique: Technique,
    job: &TranslationJob,
    backend: &mut dyn Backend,
) -> TranslationRun {
    match technique {
        Technique::NonAgentic => non_agentic(job, backend),
        Technique::TopDownAgentic => top_down(job, backend),
        Technique::SweAgent => swe_agent(job, backend),
    }
}

/// Start a translated repository with `source`'s non-code, non-build
/// files, which carry over verbatim: by handle, each hashed once on the
/// shared source repository rather than once per translation.
fn carry_other_files(source: &SourceRepo, out: &mut SourceRepo) {
    for (p, body) in source.iter_bodies() {
        if FileKind::of(p) == FileKind::Other {
            body.hash();
            out.add(p, body.clone());
        }
    }
}

/// Files a technique must translate (code + build files), in repo order,
/// with their shared bodies.
fn translatable_files(repo: &SourceRepo) -> impl Iterator<Item = (&str, Body)> {
    repo.iter_bodies().filter_map(|(p, body)| {
        let k = FileKind::of(p);
        (k.is_code() || k.is_build_file()).then(|| (p, body.clone()))
    })
}

// ---------------------------------------------------------------------------
// Non-agentic (paper Sec. 3.1)
// ---------------------------------------------------------------------------

fn non_agentic(job: &TranslationJob, backend: &mut dyn Backend) -> TranslationRun {
    let mut out = SourceRepo::new();
    carry_other_files(job.source_repo, &mut out);
    for (path, contents) in translatable_files(job.source_repo) {
        let file_job = FileJob {
            path: path.to_string(),
            contents,
            prompt_len: prompt_len(&PromptParts {
                job,
                target_path: path,
                full_repo_context: true,
                context_summary: None,
            }),
            pair: job.pair,
            kind: FileKind::of(path),
            binary: job.binary.to_string(),
        };
        match backend.translate(&file_job) {
            Ok(result) => {
                for (p, c) in result.files {
                    out.add(p, c);
                }
            }
            Err(e) => {
                return TranslationRun {
                    repo: None,
                    failure: Some(format!("{path}: {e}")),
                }
            }
        }
    }
    TranslationRun {
        repo: Some(out),
        failure: None,
    }
}

// ---------------------------------------------------------------------------
// Top-down agentic (paper Sec. 3.2, Fig. 1)
// ---------------------------------------------------------------------------

fn top_down(job: &TranslationJob, backend: &mut dyn Backend) -> TranslationRun {
    let mut out = SourceRepo::new();
    carry_other_files(job.source_repo, &mut out);
    // Dependency agent: include-based ordering (clang-equivalent static
    // analysis; no circular includes by construction).
    let order = dependency_order(job.source_repo);
    // Context agent state: summaries of already-translated files.
    let mut summaries: Vec<(String, String)> = Vec::new();

    for path in order {
        let contents = job
            .source_repo
            .get_body(&path)
            .cloned()
            .unwrap_or_else(|| Body::from(""));
        // Every chunk of a file is sent with the same prompt: the whole
        // file plus the context agent's summary.
        let prompt_len = prompt_len(&PromptParts {
            job,
            target_path: &path,
            full_repo_context: false,
            context_summary: Some(ContextSummary {
                repo: job.source_repo,
                translated: &summaries,
                verbose: backend.verbose_context(),
            }),
        });
        // Chunk agent: split oversized files at function boundaries.
        let chunks = chunk_file(&contents, backend.context_limit());
        let mut translated_parts: Vec<(String, Body)> = Vec::new();
        let mut file_summary = String::new();
        for &chunk in &chunks {
            let file_job = FileJob {
                path: path.clone(),
                contents: if chunks.len() == 1 {
                    contents.clone()
                } else {
                    Body::from(chunk)
                },
                prompt_len,
                pair: job.pair,
                kind: FileKind::of(&path),
                binary: job.binary.to_string(),
            };
            match backend.translate(&file_job) {
                Ok(result) => {
                    file_summary = result.summary.clone();
                    translated_parts.extend(result.files);
                }
                Err(e) => {
                    return TranslationRun {
                        repo: None,
                        failure: Some(format!("{path}: {e}")),
                    }
                }
            }
        }
        // Reassemble chunked output: concatenate parts that share a path.
        // An unchunked file's body is added by handle.
        let mut merged: Vec<(String, Body)> = Vec::new();
        for (p, c) in translated_parts {
            if let Some(last) = merged.iter_mut().find(|(mp, _)| *mp == p) {
                last.1.push_str(&c);
            } else {
                merged.push((p, c));
            }
        }
        for (p, c) in merged {
            out.add(p, c);
        }
        summaries.push((path.clone(), file_summary));
    }
    TranslationRun {
        repo: Some(out),
        failure: None,
    }
}

/// Split file text at function-ish boundaries (a line that is exactly `}`)
/// so each chunk fits in roughly a quarter of the context window. The
/// chunks are slices of `text` that rejoin to it byte for byte.
fn chunk_file(text: &str, context_limit: u64) -> Vec<&str> {
    let budget = (context_limit / 4).max(256) as usize * 4; // ≈ chars
    if text.len() <= budget {
        return vec![text];
    }
    let mut chunks = Vec::new();
    let (mut start, mut end) = (0, 0);
    for line in text.split_inclusive('\n') {
        end += line.len();
        if end - start >= budget && matches!(line, "}\n" | "}\r\n") {
            chunks.push(&text[start..end]);
            start = end;
        }
    }
    if start < text.len() {
        chunks.push(&text[start..]);
    }
    chunks
}

// ---------------------------------------------------------------------------
// SWE-agent (paper Sec. 3.3)
// ---------------------------------------------------------------------------

/// Write SWE-agent's prompt for one file: the issue, then the file.
fn write_swe_prompt(out: &mut impl Write, issue: &str, path: &str, contents: &str) -> fmt::Result {
    writeln!(
        out,
        "{issue}\nResolve the issue for file {path}:\n{contents}"
    )
}

fn swe_agent(job: &TranslationJob, backend: &mut dyn Backend) -> TranslationRun {
    // The task is rephrased as a GitHub issue in a dedicated file, and the
    // repo gets a `.git` directory so SWE-agent recognises it.
    let issue = format!(
        "# Issue: translate {} from {} to {}\n\n{}\n\n{}\n",
        job.app_name, job.pair.from, job.pair.to, job.cli_spec, job.build_spec
    );
    let mut out = SourceRepo::new();
    out.add(".git/HEAD", "ref: refs/heads/main\n");
    out.add("TASK_ISSUE.txt", issue.as_str());
    carry_other_files(job.source_repo, &mut out);
    for (path, contents) in translatable_files(job.source_repo) {
        let file_job = FileJob {
            path: path.to_string(),
            prompt_len: ByteCount::of(|n| write_swe_prompt(n, &issue, path, &contents)),
            contents,
            pair: job.pair,
            kind: FileKind::of(path),
            binary: job.binary.to_string(),
        };
        match backend.translate(&file_job) {
            Ok(result) => {
                for (p, c) in result.files {
                    out.add(p, c);
                }
            }
            Err(e) => {
                return TranslationRun {
                    repo: None,
                    failure: Some(format!("{path}: {e}")),
                }
            }
        }
    }
    // SWE-agent's editor normalises tabs to spaces, destroying Makefile
    // recipes (paper Sec. 3.3) — applied to every Makefile it wrote.
    let makefiles: Vec<(String, Body)> = out
        .iter_bodies()
        .filter(|(p, _)| FileKind::of(p) == FileKind::Makefile)
        .map(|(p, body)| (p.to_string(), tabs_expanded(job.source_repo, body)))
        .collect();
    for (p, body) in makefiles {
        out.add(p, body);
    }
    TranslationRun {
        repo: Some(out),
        failure: None,
    }
}

/// A body as SWE-agent's editor writes it: every tab became four spaces.
#[derive(Clone)]
struct TabsExpanded(Body);

/// `body` with its tabs expanded, memoised on `source` (the repository
/// under translation) under the body's content hash, and hashed when
/// derived: a Makefile every sample emits alike is rewritten once.
fn tabs_expanded(source: &SourceRepo, body: &Body) -> Body {
    let derive = || {
        let expanded = Body::from(body.replace('\t', "    "));
        expanded.hash();
        TabsExpanded(expanded)
    };
    source.memoized(body.hash(), derive).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transpile;

    /// A perfect backend: the oracle transpiler with no errors.
    struct OracleBackend {
        repo: SourceRepo,
        calls: usize,
    }

    impl Backend for OracleBackend {
        fn translate(&mut self, job: &FileJob) -> Result<BackendOutput, BackendError> {
            self.calls += 1;
            if job.kind.is_build_file() {
                let build = transpile::translated_build_file(&self.repo, job.pair, &job.binary);
                return Ok(BackendOutput {
                    files: vec![(build.path, build.text)],
                    summary: "translated build system".into(),
                });
            }
            let r = transpile::transpile_file(&self.repo, &job.path, &job.contents, job.pair);
            Ok(BackendOutput {
                files: vec![(r.path, r.text)],
                summary: format!("translated {}", job.path),
            })
        }

        fn context_limit(&self) -> u64 {
            1_000_000
        }

        fn count_tokens(&self, text: &str) -> u64 {
            (text.len() as u64).div_ceil(4)
        }
    }

    fn job<'a>(app: &'a pareval_apps::Application, pair: TranslationPair) -> TranslationJob<'a> {
        TranslationJob {
            app_name: &app.name,
            binary: &app.binary,
            source_repo: app.repo(pair.from).unwrap(),
            pair,
            cli_spec: &app.cli_spec,
            build_spec: &app.build_spec,
        }
    }

    #[test]
    fn non_agentic_translates_all_files() {
        let app = pareval_apps::by_name("microXOR").unwrap();
        let pair = TranslationPair::CUDA_TO_OMP_OFFLOAD;
        let mut backend = OracleBackend {
            repo: app.repo(pair.from).unwrap().clone(),
            calls: 0,
        };
        let run = translate_with(Technique::NonAgentic, &job(&app, pair), &mut backend);
        let repo = run.repo.expect("completes");
        assert!(repo.contains("src/main.cpp"));
        assert!(repo.contains("Makefile"));
        // 3 code files + 1 Makefile.
        assert_eq!(backend.calls, 4);
    }

    #[test]
    fn top_down_orders_headers_first() {
        let app = pareval_apps::by_name("microXOR").unwrap();
        let pair = TranslationPair::CUDA_TO_OMP_OFFLOAD;
        let order = dependency_order(app.repo(pair.from).unwrap());
        let h = order.iter().position(|p| p == "src/kernel.h").unwrap();
        let m = order.iter().position(|p| p == "src/main.cu").unwrap();
        let k = order.iter().position(|p| p == "src/kernel.cu").unwrap();
        let mk = order.iter().position(|p| p == "Makefile").unwrap();
        assert!(h < m && h < k, "header before its includers: {order:?}");
        assert!(mk > m && mk > k, "build file last: {order:?}");
    }

    #[test]
    fn top_down_produces_working_repo_with_oracle_backend() {
        let app = pareval_apps::by_name("nanoXOR").unwrap();
        let pair = TranslationPair::CUDA_TO_OMP_OFFLOAD;
        let mut backend = OracleBackend {
            repo: app.repo(pair.from).unwrap().clone(),
            calls: 0,
        };
        let run = translate_with(Technique::TopDownAgentic, &job(&app, pair), &mut backend);
        let repo = run.repo.expect("completes");
        let outcome =
            minihpc_build::build_repo(&repo, &minihpc_build::BuildRequest::new(&*app.binary));
        assert!(outcome.succeeded(), "{}", outcome.log.text());
    }

    #[test]
    fn swe_agent_breaks_makefiles() {
        let app = pareval_apps::by_name("nanoXOR").unwrap();
        // SWE-agent is evaluated on CUDA→Kokkos in the paper, but the tab
        // corruption applies to any Makefile it writes; test with offload
        // where the oracle emits a Makefile.
        let pair = TranslationPair::CUDA_TO_OMP_OFFLOAD;
        let mut backend = OracleBackend {
            repo: app.repo(pair.from).unwrap().clone(),
            calls: 0,
        };
        let run = translate_with(Technique::SweAgent, &job(&app, pair), &mut backend);
        let repo = run.repo.expect("completes");
        let mk = repo.get("Makefile").unwrap();
        assert!(!mk.contains('\t'), "tabs must be gone");
        let outcome =
            minihpc_build::build_repo(&repo, &minihpc_build::BuildRequest::new(&*app.binary));
        assert!(!outcome.succeeded());
        assert_eq!(
            outcome.first_error_category(),
            Some(minihpc_build::ErrorCategory::BuildFileSyntax)
        );
    }

    #[test]
    fn prompt_contains_file_tree_and_addenda() {
        let app = pareval_apps::by_name("nanoXOR").unwrap();
        let pair = TranslationPair::CUDA_TO_OMP_OFFLOAD;
        let j = job(&app, pair);
        let p = build_prompt(&PromptParts {
            job: &j,
            target_path: "src/main.cu",
            full_repo_context: true,
            context_summary: None,
        });
        assert!(p.contains("helpful coding assistant"));
        assert!(p.contains("+-- src/") || p.contains("|-- src/"), "{p}");
        assert!(p.contains("src/main.cu"));
        assert!(p.contains(&app.cli_spec), "main file gets the CLI addendum");
        let p2 = build_prompt(&PromptParts {
            job: &j,
            target_path: "Makefile",
            full_repo_context: true,
            context_summary: None,
        });
        assert!(p2.contains(&app.build_spec));
    }

    #[test]
    fn chunking_splits_large_files() {
        let big = "void f() {\nint x = 1;\n}\n".repeat(400);
        let crlf = big.replace('\n', "\r\n");
        let unterminated = format!("{big}int tail = 0;");
        for text in [&big, &crlf, &unterminated] {
            let chunks = chunk_file(text, 1000);
            assert!(chunks.len() > 1);
            assert_eq!(chunks.concat(), *text, "chunking must not alter text");
            for chunk in &chunks[..chunks.len() - 1] {
                assert_eq!(chunk.lines().last(), Some("}"), "cut after a `}}` line");
            }
        }
    }

    /// The prompt lengths every technique charges equal the lengths of the
    /// prompts they stand for: for each pair of `app`, each translatable
    /// file, with and without the whole repo as context, and with no, an
    /// empty, a terse and a verbose top-down summary.
    fn assert_prompt_lens_match(app: &pareval_apps::Application) {
        for pair in app.pairs() {
            let j = job(app, pair);
            let files: Vec<(&str, Body)> = translatable_files(j.source_repo).collect();
            let translated: Vec<(String, String)> = files
                .iter()
                .map(|(p, _)| (p.to_string(), format!("translated {p} to {}", pair.to)))
                .collect();
            let summary = |translated, verbose| ContextSummary {
                repo: j.source_repo,
                translated,
                verbose,
            };
            let summaries = [
                None,
                Some(summary(&[], false)),
                Some(summary(&translated, false)),
                Some(summary(&translated, true)),
            ];
            let issue = format!(
                "# Issue: translate {} from {} to {}\n",
                app.name, pair.from, pair.to
            );
            for (path, contents) in &files {
                for full_repo_context in [true, false] {
                    for context_summary in summaries {
                        let parts = PromptParts {
                            job: &j,
                            target_path: path,
                            full_repo_context,
                            context_summary,
                        };
                        assert_eq!(
                            prompt_len(&parts),
                            build_prompt(&parts).len(),
                            "{} {pair} {path} full={full_repo_context}",
                            app.name
                        );
                    }
                }
                let swe = format!(
                    "{issue}\nResolve the issue for file {path}:\n{}\n",
                    &**contents
                );
                assert_eq!(
                    ByteCount::of(|n| write_swe_prompt(n, &issue, path, contents)),
                    swe.len()
                );
            }
        }
    }

    #[test]
    fn prompt_len_matches_built_prompt_on_every_app() {
        for app in pareval_apps::suite() {
            assert_prompt_lens_match(&app);
        }
    }

    #[test]
    fn prompt_len_matches_built_prompt_on_generated_apps() {
        use minihpc_gen::{GenSpec, KernelKind};
        for i in 0..8u64 {
            let kernels = match i % 3 {
                0 => KernelKind::ALL.to_vec(),
                1 => vec![KernelKind::Stencil, KernelKind::Reduction],
                _ => vec![KernelKind::GemmLike, KernelKind::MemcpyBound],
            };
            let spec = GenSpec::new(0x5EED_0000 + i * 7919)
                .with_files(1 + (i as usize % 4))
                .with_kernels(kernels);
            assert_prompt_lens_match(&pareval_apps::generated_app(&spec));
        }
    }
}
