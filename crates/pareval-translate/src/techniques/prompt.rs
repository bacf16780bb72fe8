//! Prompt construction, following paper Listing 1.
//!
//! A prompt is rendered by one writer, [`write_prompt`], into any
//! [`fmt::Write`] sink: [`build_prompt`] renders it into a `String`, and
//! [`prompt_len`] into a [`ByteCount`]. Token accounting reads only a
//! prompt's length, so the techniques measure prompts and never build them.

use super::TranslationJob;
use minihpc_lang::repo::{FileKind, SourceRepo};
use std::fmt::{self, Write};

/// Inputs to [`build_prompt`] and [`prompt_len`].
pub struct PromptParts<'a> {
    pub job: &'a TranslationJob<'a>,
    pub target_path: &'a str,
    /// Non-agentic: include the full text of every (untranslated) file.
    pub full_repo_context: bool,
    /// Top-down: the context agent's summaries of translated dependencies.
    pub context_summary: Option<ContextSummary<'a>>,
}

/// The top-down context agent's account of the dependencies translated so
/// far, rendered into the prompt of the next file.
#[derive(Debug, Clone, Copy)]
pub struct ContextSummary<'a> {
    /// The source repo the translated files came from.
    pub repo: &'a SourceRepo,
    /// `(path, summary)` of each translated file, in translation order.
    pub translated: &'a [(String, String)],
    /// Re-include each dependency's original text instead of a terse line:
    /// less conservative models do this (paper Sec. 8.4: local models are
    /// more expensive in the top-down method for exactly this reason).
    pub verbose: bool,
}

impl ContextSummary<'_> {
    /// No dependency has been translated yet, so the summary renders as
    /// nothing.
    fn is_empty(&self) -> bool {
        self.translated.is_empty()
    }
}

impl fmt::Display for ContextSummary<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (p, s) in self.translated {
            if self.verbose {
                let original = self.repo.get(p).unwrap_or_default();
                writeln!(f, "=== {p} (translated; summary: {s})\n{original}")?;
            } else {
                writeln!(f, "- {p}: {s}")?;
            }
        }
        Ok(())
    }
}

/// A [`fmt::Write`] sink that keeps only the byte length of what is
/// written to it: how a prompt is measured without being built.
pub struct ByteCount(usize);

impl ByteCount {
    /// The byte length of what `render` writes.
    pub fn of(render: impl FnOnce(&mut ByteCount) -> fmt::Result) -> usize {
        let mut n = ByteCount(0);
        render(&mut n).expect("counting bytes cannot fail");
        n.0
    }
}

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// Build the translation prompt for one file (paper Listing 1 structure:
/// system role, file tree, file contents, instruction, plus the CLI /
/// build-interface addenda for main and build files).
pub fn build_prompt(parts: &PromptParts) -> String {
    let mut p = String::with_capacity(4096);
    write_prompt(&mut p, parts).expect("writing to a String cannot fail");
    p
}

/// The byte length of [`build_prompt`]'s prompt, counted without building
/// it.
pub fn prompt_len(parts: &PromptParts) -> usize {
    ByteCount::of(|n| write_prompt(n, parts))
}

/// Write the prompt of [`build_prompt`] to `out`.
fn write_prompt(out: &mut impl Write, parts: &PromptParts) -> fmt::Result {
    let job = parts.job;
    write!(
        out,
        "You are a helpful coding assistant. You are helping a software developer translate \
         a codebase from the {} execution model to the {} execution model. Writing correct, \
         fast code is important, so take some time to think before responding to any query, \
         and ensure that the code you create is enclosed in triple backticks (```), as used \
         in the query below.\n\n",
        job.pair.from, job.pair.to
    )?;
    writeln!(
        out,
        "Below is a codebase written in the {} execution model. We are translating it to \
         the {} execution model. Here is the file tree of the entire repository:\n\n{}",
        job.pair.from, job.pair.to, job.source_repo
    )?;
    if parts.full_repo_context {
        out.write_str("Here is the code for each file in the codebase:\n\n")?;
        for (path, contents) in job.source_repo.iter() {
            write!(out, "{path}\n```\n{contents}```\n\n")?;
        }
    } else {
        // Top-down: only the target file plus dependency summaries.
        if let Some(contents) = job.source_repo.get(parts.target_path) {
            write!(
                out,
                "Here is the file to translate:\n\n{}\n```\n{}```\n\n",
                parts.target_path, contents
            )?;
        }
        if let Some(summary) = parts.context_summary.filter(|s| !s.is_empty()) {
            writeln!(
                out,
                "Summaries of changes already made to this file's dependencies:\n{summary}"
            )?;
        }
    }
    writeln!(
        out,
        "Translate the {} file to the {} execution model. Output the translated files in one \
         code block. Assume .cpp filenames whenever referring to other files as this will be \
         a C++ code.",
        parts.target_path, job.pair.to
    )?;
    // Addenda (paper Sec. 3.1).
    let is_main = job
        .source_repo
        .get(parts.target_path)
        .is_some_and(|c| c.contains("int main("));
    if is_main {
        writeln!(out, "\nCommand-line interface: {}", job.cli_spec)?;
    }
    if FileKind::of(parts.target_path).is_build_file() {
        writeln!(out, "\nBuild interface: {}", job.build_spec)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use minihpc_lang::model::TranslationPair;
    use minihpc_lang::repo::SourceRepo;

    #[test]
    fn non_agentic_prompt_has_all_files() {
        let repo = SourceRepo::new()
            .with_file("Makefile", "app: main.cu\n\tnvcc -o app main.cu\n")
            .with_file("main.cu", "int main() { return 0; }\n");
        let job = TranslationJob {
            app_name: "x",
            binary: "app",
            source_repo: &repo,
            pair: TranslationPair::CUDA_TO_OMP_OFFLOAD,
            cli_spec: "no args",
            build_spec: "produce app",
        };
        let p = build_prompt(&PromptParts {
            job: &job,
            target_path: "main.cu",
            full_repo_context: true,
            context_summary: None,
        });
        assert!(p.contains("Makefile\n```"));
        assert!(p.contains("main.cu\n```"));
        assert!(p.contains("CUDA execution model"));
        assert!(p.contains("OpenMP Offload execution model"));
        assert!(p.contains("Command-line interface"));
    }

    #[test]
    fn top_down_prompt_is_smaller() {
        let repo = SourceRepo::new()
            .with_file("a.h", "void a(void);\n".repeat(50))
            .with_file("main.cu", "#include \"a.h\"\nint main() { return 0; }\n");
        let job = TranslationJob {
            app_name: "x",
            binary: "app",
            source_repo: &repo,
            pair: TranslationPair::CUDA_TO_OMP_OFFLOAD,
            cli_spec: "",
            build_spec: "",
        };
        let full = build_prompt(&PromptParts {
            job: &job,
            target_path: "main.cu",
            full_repo_context: true,
            context_summary: None,
        });
        let narrow = build_prompt(&PromptParts {
            job: &job,
            target_path: "main.cu",
            full_repo_context: false,
            context_summary: Some(ContextSummary {
                repo: &repo,
                translated: &[("a.h".to_string(), "translated".to_string())],
                verbose: false,
            }),
        });
        assert!(narrow.len() < full.len());
        assert!(narrow.contains("Summaries of changes"));
    }
}
