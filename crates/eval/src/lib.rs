//! Evaluation harness for VeriSpec: metrics, benchmark suites, the
//! generated-code judge, and experiment runners that regenerate the
//! paper's quality tables and figures.
//!
//! * [`metrics`] — pass@k (Eq. 5) and Pass Rate (Eq. 6); speed and
//!   speedup (Eqs. 3–4) live only in [`GpuCostModel`]'s simulated clock
//!   and the benchmark under `benchmark/`;
//! * [`benchmarks`] — RTLLM-sim (29 problems) and VGen-sim (17
//!   problems), sized to the paper's Pass-Rate quanta;
//! * [`judge`](mod@judge) — the iverilog-substitute scoring protocol
//!   (compile = parse + elaborate + interface check; function =
//!   golden-model equivalence);
//! * [`pipeline`] — corpus → tokenizer → trained models (with on-disk
//!   caching) → generation;
//! * [`quality`] — the simulation-backed quality gate: per-engine
//!   parse/elaborate/sim-pass rates plus realized acceptance at equal
//!   candidate budget, with the grammar-constrained engine compared
//!   head-to-head against the unconstrained tree (`BENCH_quality.json`,
//!   gated by [`quality_gate_violations`] before it is written). Its
//!   walk problems × samples → decode → [`stage_judge`] is the only one:
//!   Table I's pass@k folds it too;
//! * [`experiments`] — Table I (with Fig. 6 read off its cells) and
//!   Fig. 5 runners with quick/full scales;
//! * [`load`] — the serve-aware Table II: latency percentiles under an
//!   open-loop arrival process at equal offered load (served through
//!   the paced drive, `verispec_serve::Drive::Paced`;
//!   `BENCH_load.json`, gated by [`load_gate_violations`] before it is
//!   written).
//!
//! [`GpuCostModel`]: verispec_lm::GpuCostModel
//!
//! # Examples
//!
//! Score a reference solution (it always passes):
//!
//! ```
//! use verispec_eval::benchmarks::rtllm_sim;
//! use verispec_eval::judge::{judge, Verdict};
//!
//! let bench = rtllm_sim();
//! let p = &bench.problems[0];
//! assert_eq!(judge(&p.module.source, p, 7), Verdict::Pass);
//! ```

#![deny(missing_docs)]

pub mod benchmarks;
pub mod experiments;
pub mod judge;
pub mod load;
pub mod metrics;
pub mod pipeline;
pub mod quality;

pub use benchmarks::{rtllm_sim, speed_prompts, vgen_sim, Benchmark, Problem, PromptStyle};
pub use experiments::{
    render_fig6, render_table1, run_fig5, run_table1, QualityCell, Scale, TraceSummary,
};
pub use judge::{judge, Verdict};
pub use load::{
    dispatch_routes, load_families, load_gate_violations, load_methods, mean_budget,
    rates_for_utilizations, render_load_bench, run_load_bench, DISPATCH_LOAD_FACTOR,
    DISPATCH_WORKER_COUNTS,
};
pub use metrics::{mean_pass_at_k, pass_at_k, pass_rate, PromptCounts, QualityRow};
pub use pipeline::{
    generate, generate_grammar, token_budget, Generation, ModelScale, Pipeline, PipelineConfig,
    SharedPrefixEncoder,
};
pub use quality::{
    quality_gate_violations, render_quality_gate, run_quality_gate, stage_judge, QualityGateRow,
    StageOutcome, QUALITY_TREE,
};
