//! Every paper figure from one run: Table 1 (SLoC, cyclomatic complexity,
//! file counts, available programming models) and the sixteen translation
//! tasks, then Fig. 2 (a–f) build@1 / pass@1 heatmaps for every pair,
//! code-only and overall, then Figs. 3–5 and Table 2. The figures all come
//! from one `ExperimentPlan::full(5)` grid (760 samples) on
//! `ScheduledRunner::auto()`.
//!
//! The printed text must match `tests/golden/paper_figures.txt` byte for
//! byte; a mismatch is a failed assert, after the text is printed. To
//! regenerate the golden after an intentional change, redirect stdout:
//! `cargo run --release --example paper_figures > tests/golden/paper_figures.txt`.
//!
//! Run with: `cargo run --release --example paper_figures`

use minihpc_lang::model::TranslationPair;
use pareval_core::{all_tasks, report, ExperimentPlan, Runner, ScheduledRunner};
use std::fmt::Write;

fn main() {
    let mut text = String::new();
    writeln!(text, "{}", report::table1()).unwrap();
    writeln!(text, "Translation tasks (paper Sec. 5.2):").unwrap();
    let tasks = all_tasks();
    for (i, task) in tasks.iter().enumerate() {
        writeln!(text, "  {:>2}. {:<18} {}", i + 1, task.app.name, task.pair).unwrap();
    }
    writeln!(
        text,
        "\nTotal: {} tasks (6 apps x 2 pairs + 4 apps x 1 pair)",
        tasks.len()
    )
    .unwrap();

    let results = ScheduledRunner::auto().run(&ExperimentPlan::full(5));
    for pair in TranslationPair::ALL {
        writeln!(text, "{}", report::fig2(&results, pair, false)).unwrap();
        writeln!(text, "{}", report::fig2(&results, pair, true)).unwrap();
    }
    for figure in [
        report::fig3(&results),
        report::fig4(&results),
        report::fig5(&results),
        report::table2(&results),
    ] {
        writeln!(text, "{figure}").unwrap();
    }

    print!("{text}");
    assert_eq!(
        text,
        include_str!("../tests/golden/paper_figures.txt"),
        "figures diverged from tests/golden/paper_figures.txt"
    );
}
