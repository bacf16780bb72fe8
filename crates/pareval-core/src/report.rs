//! Plain-text report emitters: one per table and figure of the paper.

use crate::collect::{ExperimentResults, Metric};
use crate::task::Scoring;
use minihpc_build::ErrorCategory;
use minihpc_lang::complexity;
use minihpc_lang::model::TranslationPair;
use minihpc_lang::parser;
use minihpc_lang::repo::FileKind;
use pareval_llm::{all_models, MODEL_ORDER};
use pareval_metrics::{dollar_cost, expected_token_cost, node_hours};
use pareval_translate::Technique;
use std::fmt::Write as _;

const APP_ORDER: [&str; 6] = [
    "nanoXOR",
    "microXORh",
    "microXOR",
    "SimpleMOC-kernel",
    "XSBench",
    "llm.c",
];

/// Table 1: application statistics (SLoC, cyclomatic complexity, files,
/// available models) computed from the MiniHPC ports.
pub fn table1() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<18} {:>6} {:>5} {:>7}  Models",
        "Application", "SLoC", "CC", "#Files"
    )
    .unwrap();
    for app in pareval_apps::suite() {
        let repo = app.repos.values().next().unwrap();
        let mut sloc = 0usize;
        let mut cc = 0usize;
        let mut files = 0usize;
        for (path, text) in repo.iter() {
            let kind = FileKind::of(path);
            if kind == FileKind::Other {
                continue;
            }
            files += 1;
            if kind.is_code() {
                if let Ok(parsed) = parser::parse_file(text) {
                    let stats = complexity::file_stats(text, &parsed);
                    sloc += stats.sloc;
                    cc += stats.cyclomatic;
                } else {
                    sloc += complexity::sloc(text);
                }
            } else {
                sloc += complexity::sloc(text);
            }
        }
        let models: Vec<&str> = app.available_models().iter().map(|m| m.name()).collect();
        writeln!(
            out,
            "{:<18} {:>6} {:>5} {:>7}  {}",
            app.name,
            sloc,
            cc,
            files,
            models.join(", ")
        )
        .unwrap();
    }
    out
}

/// One Fig. 2 subfigure: build@1 or pass@1 heatmaps (code-only and overall)
/// for one pair and the techniques that ran.
pub fn fig2(results: &ExperimentResults, pair: TranslationPair, pass: bool) -> String {
    let metric = if pass { Metric::Pass } else { Metric::Build };
    let mut out = String::new();
    writeln!(
        out,
        "== {metric_label}@1 for {pair} ==",
        metric_label = if pass { "pass" } else { "build" }
    )
    .unwrap();
    for scoring in Scoring::ALL {
        for technique in [
            Technique::NonAgentic,
            Technique::TopDownAgentic,
            Technique::SweAgent,
        ] {
            let mut grid = String::new();
            let mut any = false;
            for app in APP_ORDER {
                let mut row = format!("{app:<18}");
                let mut row_any = false;
                for model in MODEL_ORDER {
                    let cell = results.cell(pair, technique, model, app);
                    match cell {
                        Some(c) if c.feasible() && c.samples() > 0 => {
                            let v = c.rate(metric, scoring, 1);
                            write!(row, " {v:>5.2}").unwrap();
                            row_any = true;
                        }
                        Some(_) => write!(row, " {:>5}", "-").unwrap(),
                        None => write!(row, " {:>5}", ".").unwrap(),
                    }
                }
                if row_any {
                    any = true;
                }
                grid.push_str(&row);
                grid.push('\n');
            }
            if any {
                writeln!(
                    out,
                    "-- {scoring} / {technique} --",
                    scoring = scoring.label()
                )
                .unwrap();
                writeln!(
                    out,
                    "{:<18} {:>5} {:>5} {:>5} {:>5} {:>5}",
                    "", "gem", "gpt", "o4", "llam", "qwq"
                )
                .unwrap();
                out.push_str(&grid);
            }
        }
    }
    out
}

/// First four characters of a model name, counted in characters rather
/// than bytes — model names are not guaranteed to be ASCII, and a byte
/// slice panics on a multi-byte boundary.
fn model_abbrev(name: &str) -> String {
    name.chars().take(4).collect()
}

/// Fig. 3: per-(model, category) build-error counts, via the ground-truth
/// categories (the clustering pipeline's validation target).
pub fn fig3(results: &ExperimentResults) -> String {
    let counts = results.error_counts();
    let mut out = String::new();
    writeln!(out, "== Error category counts (Fig. 3) ==").unwrap();
    write!(out, "{:<34}", "Category").unwrap();
    for m in MODEL_ORDER {
        write!(out, " {:>6}", model_abbrev(m)).unwrap();
    }
    out.push('\n');
    for category in ErrorCategory::FIGURE3 {
        write!(out, "{:<34}", category.label()).unwrap();
        for model in MODEL_ORDER {
            let c = counts
                .get(&(model.to_string(), category))
                .copied()
                .unwrap_or(0);
            write!(out, " {c:>6}").unwrap();
        }
        out.push('\n');
    }
    out
}

/// Fig. 4: average total inference tokens per (technique, model, app),
/// averaged over pairs and generations, in thousands.
pub fn fig4(results: &ExperimentResults) -> String {
    let mut out = String::new();
    writeln!(out, "== Avg total inference tokens, thousands (Fig. 4) ==").unwrap();
    for technique in [Technique::NonAgentic, Technique::TopDownAgentic] {
        writeln!(out, "-- {technique} --").unwrap();
        for app in APP_ORDER {
            write!(out, "{app:<18}").unwrap();
            for model in MODEL_ORDER {
                let mut sum = 0.0;
                let mut n = 0.0;
                for pair in TranslationPair::ALL {
                    if let Some(c) = results.cell(pair, technique, model, app) {
                        if let Some(m) = c.tokens().mean() {
                            sum += m;
                            n += 1.0;
                        }
                    }
                }
                if n > 0.0 {
                    write!(out, " {:>8.1}", sum / n / 1000.0).unwrap();
                } else {
                    write!(out, " {:>8}", "-").unwrap();
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Fig. 5: expected token cost E_kappa (thousands), aggregated over pairs
/// with pass@1 > 0.
pub fn fig5(results: &ExperimentResults) -> String {
    let mut out = String::new();
    writeln!(out, "== Expected tokens for success, thousands (Fig. 5) ==").unwrap();
    for technique in [Technique::NonAgentic, Technique::TopDownAgentic] {
        writeln!(out, "-- {technique} --").unwrap();
        for app in APP_ORDER {
            write!(out, "{app:<18}").unwrap();
            for model in MODEL_ORDER {
                let mut acc = Vec::new();
                for pair in TranslationPair::ALL {
                    if let Some(c) = results.cell(pair, technique, model, app) {
                        let p = c.rate(Metric::Pass, Scoring::Overall, 1);
                        if let (true, Some(t)) = (p > 0.0, c.tokens().mean()) {
                            if let Some(e) = expected_token_cost(p, t) {
                                acc.push(e);
                            }
                        }
                    }
                }
                if acc.is_empty() {
                    write!(out, " {:>9}", "-").unwrap();
                } else {
                    let mean = acc.iter().sum::<f64>() / acc.len() as f64;
                    write!(out, " {:>9.1}", mean / 1000.0).unwrap();
                }
            }
            out.push('\n');
        }
    }
    out
}

/// The repair-loop report: build@1 / pass@1 and token cost *as a function
/// of repair round*, per model, averaged over the feasible cells of the
/// grid. Round 0 is the one-shot harness; round r is the state after r
/// bounded repair rounds. E_kappa follows paper Eq. 2 with repair tokens
/// included in the per-generation cost.
///
/// Denominator caveat, inherited from the paper's own aggregation rule:
/// the rate and token rows average over a *fixed* cell set, but E_kappa is
/// only defined where pass@1 > 0, so its per-round mean averages over the
/// cells solvable *at that round*. A cell that becomes barely solvable in
/// a later round joins the pool with a large E_kappa and can raise the
/// printed mean even when every individual cell got cheaper — compare a
/// single cell across rounds (`CellResult::rate_at_round` +
/// `tokens_at_round`) when population drift matters.
pub fn repair_report(results: &ExperimentResults) -> String {
    let max_round = results.max_repair_round();
    let mut out = String::new();
    writeln!(
        out,
        "== build@1 / pass@1 by repair round (Overall scoring) =="
    )
    .unwrap();
    write!(out, "{:<34}", "").unwrap();
    for r in 0..=max_round {
        write!(out, " {:>7}", format!("r{r}")).unwrap();
    }
    out.push('\n');

    // One row per model, one column per round: the mean of `value` over
    // the grid's feasible, sampled cells ("-" when no cell contributes).
    let rows = |out: &mut String,
                decimals: usize,
                value: &dyn Fn(&crate::collect::CellResult, u32) -> Option<f64>| {
        for model in MODEL_ORDER {
            write!(out, "{model:<34}").unwrap();
            for round in 0..=max_round {
                let mut sum = 0.0;
                let mut n = 0usize;
                for (key, cell) in &results.cells {
                    if key.model == model && cell.feasible() && cell.samples() > 0 {
                        if let Some(v) = value(cell, round) {
                            sum += v;
                            n += 1;
                        }
                    }
                }
                if n > 0 {
                    write!(out, " {:>7.decimals$}", sum / n as f64).unwrap();
                } else {
                    write!(out, " {:>7}", "-").unwrap();
                }
            }
            out.push('\n');
        }
    };

    for (label, metric) in [("build@1", Metric::Build), ("pass@1", Metric::Pass)] {
        writeln!(out, "-- {label} --").unwrap();
        rows(&mut out, 2, &|cell, round| {
            Some(cell.rate_at_round(metric, Scoring::Overall, 1, round))
        });
    }
    writeln!(out, "-- mean tokens per sample, thousands --").unwrap();
    rows(&mut out, 1, &|cell, round| {
        Some(cell.tokens_at_round(round).mean()? / 1000.0)
    });
    writeln!(
        out,
        "-- E_kappa, thousands (Eq. 2; repair tokens included) --"
    )
    .unwrap();
    rows(&mut out, 1, &|cell, round| {
        let p = cell.rate_at_round(Metric::Pass, Scoring::Overall, 1, round);
        let t = cell.tokens_at_round(round).mean()?;
        if p > 0.0 {
            Some(expected_token_cost(p, t)? / 1000.0)
        } else {
            None
        }
    });
    out
}

/// Static-analysis report: per-(model, rule) finding counts over the whole
/// grid, then race_free@1 per model averaged over the feasible, sampled
/// cells. An all-zero table means either a race-clean grid or a grid run
/// with `EvalConfig::analyze` off — the analyzer records nothing when off.
pub fn race_report(results: &ExperimentResults) -> String {
    let counts = results.race_finding_counts();
    let mut out = String::new();
    writeln!(out, "== Static race & directive analysis ==").unwrap();
    write!(out, "{:<24}", "Rule").unwrap();
    for m in MODEL_ORDER {
        write!(out, " {:>6}", model_abbrev(m)).unwrap();
    }
    out.push('\n');
    for rule in minihpc_analyze::Rule::ALL {
        write!(out, "{:<24}", rule.id()).unwrap();
        for model in MODEL_ORDER {
            let c = counts.get(&(model.to_string(), rule)).copied().unwrap_or(0);
            write!(out, " {c:>6}").unwrap();
        }
        out.push('\n');
    }
    writeln!(out, "-- race_free@1 (built and analysis-clean) --").unwrap();
    for model in MODEL_ORDER {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (key, cell) in &results.cells {
            if key.model == model && cell.feasible() && cell.samples() > 0 {
                sum += cell.race_free_at_k(1);
                n += 1;
            }
        }
        if n > 0 {
            writeln!(out, "{:<24} {:>6.2}", model, sum / n as f64).unwrap();
        } else {
            writeln!(out, "{:<24} {:>6}", model, "-").unwrap();
        }
    }
    out
}

/// Table 2: estimated cost ($ for the cheapest commercial model, node-hours
/// for the cheapest local model) per successful translation of the three
/// XOR applications.
pub fn table2(results: &ExperimentResults) -> String {
    let models = all_models();
    let o4 = models.iter().find(|m| m.name == "o4-mini").unwrap();
    let llama = models.iter().find(|m| m.name == "Llama-3.3-70B").unwrap();
    let apps = ["nanoXOR", "microXORh", "microXOR"];
    let mut out = String::new();
    writeln!(
        out,
        "== Estimated cost per successful translation (Table 2) =="
    )
    .unwrap();
    writeln!(
        out,
        "{:<28} {:>10} {:>11} {:>10}",
        "", apps[0], apps[1], apps[2]
    )
    .unwrap();
    for (label, model) in [
        ("Non-agentic o4-mini", o4),
        ("Non-agentic Llama-3.3", llama),
    ] {
        write!(out, "{label:<28}").unwrap();
        for app in apps {
            let mut ek = Vec::new();
            for pair in TranslationPair::ALL {
                if let Some(c) = results.cell(pair, Technique::NonAgentic, model.name, app) {
                    let p = c.rate(Metric::Pass, Scoring::Overall, 1);
                    if let (true, Some(t)) = (p > 0.0, c.tokens().mean()) {
                        if let Some(e) = expected_token_cost(p, t) {
                            ek.push(e);
                        }
                    }
                }
            }
            if ek.is_empty() {
                write!(out, " {:>10}", "-").unwrap();
                continue;
            }
            let tokens = ek.iter().sum::<f64>() / ek.len() as f64;
            if model.local_tokens_per_second > 0.0 {
                let nh = node_hours(tokens as u64, model.local_tokens_per_second);
                write!(out, " {nh:>8.2}nh").unwrap();
            } else {
                // Approximate input/output split from the profile multiplier.
                let out_frac = 0.35;
                let d = dollar_cost(
                    (tokens * (1.0 - out_frac)) as u64,
                    (tokens * out_frac) as u64,
                    model.price_in_per_mtok,
                    model.price_out_per_mtok,
                );
                write!(out, " {:>9}", format!("${d:.2}")).unwrap();
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_all_apps_and_increasing_size() {
        let t = table1();
        for app in APP_ORDER {
            assert!(t.contains(app), "missing {app} in:\n{t}");
        }
        // Extract SLoC column and check nanoXOR < XSBench.
        let sloc = |name: &str| -> usize {
            t.lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
                .unwrap()
        };
        assert!(sloc("nanoXOR") < sloc("XSBench"));
        assert!(sloc("SimpleMOC-kernel") < sloc("XSBench"));
    }

    #[test]
    fn table1_matches_the_paper_figures_golden() {
        // `paper_figures` prints Table 1 first, then a blank line.
        let golden = include_str!("../../../tests/golden/paper_figures.txt");
        let (head, _) = golden
            .split_once("\n\n")
            .expect("a blank line ends Table 1");
        assert_eq!(table1(), format!("{head}\n"));
    }

    #[test]
    fn model_abbrev_is_char_safe_on_multibyte_names() {
        // A byte slice `&m[..4]` panics here: the 4th byte falls inside
        // the two-byte 'é'. The char-based abbrev must not.
        assert_eq!(model_abbrev("gém-2.5"), "gém-");
        assert_eq!(model_abbrev("日本語モデル"), "日本語モ");
        assert_eq!(model_abbrev("o4"), "o4");
        assert_eq!(model_abbrev(""), "");
    }

    #[test]
    fn race_report_renders_every_rule_on_an_empty_grid() {
        let results = ExperimentResults {
            cells: std::collections::BTreeMap::new(),
        };
        let r = race_report(&results);
        for rule in minihpc_analyze::Rule::ALL {
            assert!(r.contains(rule.id()), "missing {} in:\n{r}", rule.id());
        }
        assert!(r.contains("race_free@1"));
    }
}
