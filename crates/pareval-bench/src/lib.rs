//! # pareval-bench
//!
//! Criterion benchmarks that regenerate the paper's figures and tables and
//! time one representative sample of each pipeline. The library crate is
//! intentionally empty — everything lives in the `benches/` targets:
//!
//! | Bench                 | Reproduces                             | Also times                          |
//! |-----------------------|----------------------------------------|-------------------------------------|
//! | `fig2_correctness`    | Fig. 2 (a–f) build@1 / pass@1 heatmaps | translate + build + test of nanoXOR |
//! | `fig3_error_clusters` | Fig. 3 error-category counts           | the word2vec + DBSCAN pipeline      |
//! | `fig4_tokens`         | Fig. 4 token-usage distributions       | one translation sample              |
//! | `fig5_ekappa`         | Fig. 5 expected token cost E\[kappa\]  | the E\[kappa\] estimator            |
//! | `table1_apps`         | Table 1 application statistics         | suite stats collection              |
//! | `table2_cost`         | Table 2 dollar / node-hour costs       | cost aggregation                    |
//!
//! Run them with `cargo bench` (or `cargo bench --bench fig2_correctness`
//! for one figure). `PAREVAL_SAMPLES` overrides the per-cell sample count
//! where a bench supports it. Figure regeneration drives the experiment
//! grid through `ScheduledRunner::auto()`, which is byte-identical to the
//! serial runner for the same plan.
