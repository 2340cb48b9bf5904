//! Evaluation harness for VeriSpec: metrics, benchmark suites, the
//! generated-code judge, and experiment runners that regenerate every
//! table and figure of the paper.
//!
//! * [`metrics`] — pass@k (Eq. 5), Pass Rate (Eq. 6), speed/speedup
//!   (Eqs. 3–4);
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
//!   gated by [`quality_gate_violations`] before it is written);
//! * [`experiments`] — Table I, Table II, Fig. 1, Fig. 5, Fig. 6
//!   runners with quick/full scales;
//! * [`load`] — the serve-aware Table II: latency percentiles under an
//!   open-loop arrival process at equal offered load (streaming
//!   admission, `BENCH_load.json`, gated by [`load_gate_violations`]
//!   before it is written).
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
    fig6_from_cells, render_table1, render_table2, run_fig1, run_fig5, run_table1, run_table2,
    QualityCell, Scale, SpeedRow, TraceSummary, TradeoffPoint,
};
pub use judge::{judge, Verdict};
pub use load::{
    dispatch_routes, load_families, load_gate_violations, load_methods, mean_budget, policy_menu,
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
