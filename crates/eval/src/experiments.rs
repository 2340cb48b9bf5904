//! Experiment runners for the paper's quality artifacts (§IV): Table I
//! (quality), Fig. 5 (decode traces) and Fig. 6 (quality vs.
//! training-data size, read off Table I's cells). Speed (Table II,
//! Eqs. 3–4) is measured in one place, the benchmark under
//! `benchmark/`, on the simulated clock of `GpuCostModel` and on wall
//! time.
//!
//! Table I's pass@k is a fold over the quality walk the gate folds too
//! (`quality::judged_samples`): syntax counts the samples that
//! elaborate, function the samples that pass simulation.

use crate::benchmarks::{rtllm_sim, vgen_sim, Benchmark};
use crate::metrics::{PromptCounts, QualityRow};
use crate::pipeline::{generate, token_budget, ModelScale, Pipeline, PipelineConfig};
use crate::quality::{judged_samples, SampleGrid};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;
use verispec_core::{DecodeConfig, TrainMethod};
use verispec_lm::MlpLm;

/// The three training/decoding regimes compared throughout.
pub const METHODS: [TrainMethod; 3] = [TrainMethod::Ours, TrainMethod::Medusa, TrainMethod::Ntp];

/// Experiment scale knobs (quick for CI, full for the paper artifacts).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Pipeline (corpus/tokenizer/training) configuration.
    pub pipeline: PipelineConfig,
    /// Samples per prompt (paper: 20).
    pub n_samples: usize,
    /// Sampling temperatures pooled across samples (paper: 0.2–0.8).
    pub temperatures: Vec<f32>,
    /// Training-data fractions (paper: 1/4, 1/2, 3/4, full).
    pub data_fractions: Vec<(usize, usize)>,
    /// Prompts drawn into the load bench's families, and requests per
    /// workload, in [`run_load_bench`] (at least 2).
    ///
    /// [`run_load_bench`]: crate::run_load_bench
    pub speed_prompt_count: usize,
    /// Optional cap on problems per benchmark (quick runs).
    pub problem_limit: Option<usize>,
}

impl Scale {
    /// A minutes-scale configuration regenerating every artifact.
    pub fn full() -> Scale {
        Scale {
            pipeline: PipelineConfig::default(),
            n_samples: 20,
            temperatures: vec![0.2, 0.4, 0.6, 0.8],
            data_fractions: vec![(1, 4), (1, 2), (3, 4), (1, 1)],
            speed_prompt_count: 64,
            problem_limit: None,
        }
    }

    /// A minutes-scale smoke configuration.
    pub fn quick() -> Scale {
        Scale {
            pipeline: PipelineConfig {
                corpus_size: 192,
                vocab: 480,
                n_heads: 6,
                epochs: 2,
                ..Default::default()
            },
            n_samples: 4,
            temperatures: vec![0.4, 0.8],
            data_fractions: vec![(1, 2), (1, 1)],
            speed_prompt_count: 8,
            problem_limit: Some(6),
        }
    }
}

/// Deterministic per-(problem, sample) seed.
pub(crate) fn sample_seed(problem_id: &str, sample: usize, salt: u64) -> u64 {
    let mut h = DefaultHasher::new();
    problem_id.hash(&mut h);
    sample.hash(&mut h);
    salt.hash(&mut h);
    h.finish()
}

/// Worker threads of every experiment's parallel map.
const WORKERS: usize = 2;

/// Simple work-stealing parallel map over `items` on [`WORKERS`]
/// threads.
pub(crate) fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let queue: Mutex<Vec<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| loop {
                let job = queue.lock().expect("queue lock").pop();
                let Some((idx, item)) = job else { break };
                let r = f(item);
                results.lock().expect("results lock")[idx] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|r| r.expect("job completed"))
        .collect()
}

// ---------------------------------------------------------------------
// Table I — quality
// ---------------------------------------------------------------------

/// One row of Table I: a (model, method, data-fraction, benchmark) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QualityCell {
    /// Model scale.
    pub model: ModelScale,
    /// Training/decoding method.
    pub method: &'static str,
    /// Data fraction as (numerator, denominator).
    pub fraction: (usize, usize),
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Functional-correctness metrics.
    pub function: QualityRow,
    /// Syntactic-correctness metrics.
    pub syntax: QualityRow,
}

/// Scores one trained model on one benchmark: (function, syntax) rows
/// over Table I's sample grid.
pub(crate) fn score_benchmark(
    pipe: &Pipeline,
    model: &MlpLm,
    model_scale: ModelScale,
    method: TrainMethod,
    bench: &Benchmark,
    scale: &Scale,
) -> (QualityRow, QualityRow) {
    let limit = scale.problem_limit.unwrap_or(usize::MAX);
    let cost = model_scale.cost_model();
    let grid = SampleGrid::table1(pipe, scale);
    let counts: Vec<PromptCounts> = bench
        .problems
        .iter()
        .take(limit)
        .map(|problem| {
            let empty = PromptCounts {
                n: scale.n_samples,
                ..Default::default()
            };
            judged_samples(grid, model, method, None, &cost, problem).fold(
                empty,
                |mut pc, (_, _, stages)| {
                    pc.syntax_passes += usize::from(stages.elaborated);
                    pc.functional_passes += usize::from(stages.passed);
                    pc
                },
            )
        })
        .collect();
    (
        QualityRow::from_counts(&counts, |c| c.functional_passes),
        QualityRow::from_counts(&counts, |c| c.syntax_passes),
    )
}

/// Regenerates Table I: the full quality grid.
pub fn run_table1(scale: &Scale, pipe: &Pipeline) -> Vec<QualityCell> {
    let mut jobs: Vec<(ModelScale, TrainMethod, (usize, usize))> = Vec::new();
    for model in [ModelScale::Large, ModelScale::Small] {
        for &fraction in &scale.data_fractions {
            for method in METHODS {
                jobs.push((model, method, fraction));
            }
        }
    }
    let cells = parallel_map(jobs, |(model_scale, method, fraction)| {
        let model = pipe.model_for(model_scale, method, fraction);
        let mut out = Vec::with_capacity(2);
        for bench in [rtllm_sim(), vgen_sim()] {
            let (function, syntax) =
                score_benchmark(pipe, &model, model_scale, method, &bench, scale);
            out.push(QualityCell {
                model: model_scale,
                method: method.name(),
                fraction,
                benchmark: bench.name,
                function,
                syntax,
            });
        }
        out
    });
    cells.into_iter().flatten().collect()
}

// ---------------------------------------------------------------------
// Fig. 5 — decode trace comparison
// ---------------------------------------------------------------------

/// Per-method decode trace for the Fig.-5 example.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Method name.
    pub method: &'static str,
    /// Decoding steps to finish the module.
    pub steps: usize,
    /// Raw tokens generated.
    pub tokens: usize,
    /// The text committed at each step.
    pub step_texts: Vec<String>,
    /// Fraction of multi-token steps ending on a fragment boundary.
    pub fragment_complete_ratio: f64,
}

/// Regenerates Fig. 5: greedy decode traces of the `data_register`
/// example under the three methods.
pub fn run_fig5(pipe: &Pipeline, model_scale: ModelScale) -> Vec<TraceSummary> {
    let bench = rtllm_sim();
    let problem = bench
        .problems
        .iter()
        .find(|p| p.module.family == "data_register")
        .expect("RTLLM-sim includes the paper's data_register example");
    let cost = model_scale.cost_model();
    METHODS
        .iter()
        .map(|&method| {
            let model = pipe.model_for(model_scale, method, (1, 1));
            let cfg = DecodeConfig {
                max_tokens: token_budget(&pipe.tokenizer, problem, method),
                ..Default::default()
            };
            let g = generate(&model, &pipe.tokenizer, problem, method, &cfg, &cost);
            let step_texts: Vec<String> = g
                .output
                .spans()
                .map(|span| pipe.tokenizer.decode(span))
                .collect();
            let multi: Vec<_> = g
                .output
                .trace
                .iter()
                .filter(|st| st.committed > 1)
                .collect();
            let frag_ok = multi.iter().filter(|st| st.fragment_complete).count();
            TraceSummary {
                method: method.name(),
                steps: g.output.steps,
                tokens: g.output.tokens.len(),
                step_texts,
                fragment_complete_ratio: if multi.is_empty() {
                    1.0
                } else {
                    frag_ok as f64 / multi.len() as f64
                },
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Rendering helpers (used by the bench harness binaries)
// ---------------------------------------------------------------------

/// Renders Table I in the paper's layout.
pub fn render_table1(cells: &[QualityCell]) -> String {
    let mut out = String::new();
    out.push_str(
        "Table I — quality of generated Verilog (Function / Syntax)\n\
         model      data   benchmark  | metric      Ours   Medusa      NTP\n",
    );
    for model in [ModelScale::Large, ModelScale::Small] {
        let fractions: Vec<(usize, usize)> = {
            let mut f: Vec<_> = cells
                .iter()
                .filter(|c| c.model == model)
                .map(|c| c.fraction)
                .collect();
            f.sort_by(|a, b| (a.0 * b.1).cmp(&(b.0 * a.1)));
            f.dedup();
            f
        };
        for fraction in fractions {
            for benchmark in ["RTLLM-sim", "VGen-sim"] {
                for (section, get) in [("func", true), ("syntax", false)] {
                    for (metric, field) in [
                        ("pass@1", 0usize),
                        ("pass@5", 1),
                        ("pass@10", 2),
                        ("PassRate", 3),
                    ] {
                        let mut vals = [None; 3];
                        for (mi, mname) in ["Ours", "Medusa", "NTP"].iter().enumerate() {
                            if let Some(c) = cells.iter().find(|c| {
                                c.model == model
                                    && c.fraction == fraction
                                    && c.benchmark == benchmark
                                    && &c.method == mname
                            }) {
                                let row = if get { &c.function } else { &c.syntax };
                                vals[mi] = match field {
                                    0 => row.pass_at_1,
                                    1 => row.pass_at_5,
                                    2 => row.pass_at_10,
                                    _ => Some(row.pass_rate),
                                };
                            }
                        }
                        out.push_str(&format!(
                            "{:<10} {:>2}/{:<2}  {:<10} | {:<6} {:<8} {:>7} {:>8} {:>8}\n",
                            model.name(),
                            fraction.0,
                            fraction.1,
                            benchmark,
                            section,
                            metric,
                            percent_or_na(vals[0], ""),
                            percent_or_na(vals[1], ""),
                            percent_or_na(vals[2], ""),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Renders Fig. 6 — the Small model's pass@5 against training-data
/// size — read off Table I's cells, one point a line.
pub fn render_fig6(cells: &[QualityCell]) -> String {
    let mut out = String::from("Fig. 6 series (Small model, pass@5 vs data fraction):\n");
    for c in cells.iter().filter(|c| c.model == ModelScale::Small) {
        out.push_str(&format!(
            "  {:<8} {:<10} {}/{}  func {:>7}  syntax {:>7}\n",
            c.method,
            c.benchmark,
            c.fraction.0,
            c.fraction.1,
            percent_or_na(c.function.pass_at_5, "%"),
            percent_or_na(c.syntax.pass_at_5, "%"),
        ));
    }
    out
}

/// A percentage to two decimals followed by `unit`, or `n/a` where the
/// metric is undefined (pass@k under k samples per prompt).
fn percent_or_na(value: Option<f64>, unit: &str) -> String {
    value.map_or_else(|| "n/a".to_string(), |v| format!("{v:.2}{unit}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro_scale() -> Scale {
        Scale {
            pipeline: PipelineConfig {
                corpus_size: 48,
                vocab: 380,
                n_heads: 3,
                epochs: 1,
                ..Default::default()
            },
            n_samples: 2,
            temperatures: vec![0.5],
            data_fractions: vec![(1, 1)],
            speed_prompt_count: 2,
            problem_limit: Some(2),
        }
    }

    #[test]
    fn table1_produces_full_grid() {
        let scale = micro_scale();
        let pipe = Pipeline::build(scale.pipeline);
        let cells = run_table1(&scale, &pipe);
        // 2 models × 1 fraction × 3 methods × 2 benchmarks.
        assert_eq!(cells.len(), 12);
        let rendered = render_table1(&cells);
        assert!(rendered.contains("pass@10"));
        // Two samples per prompt: pass@5 and pass@10 are undefined.
        let fig6 = render_fig6(&cells);
        assert_eq!(fig6.lines().count(), 1 + 6);
        assert!(fig6.lines().skip(1).all(|l| l.ends_with("syntax     n/a")));
        assert!(rendered
            .lines()
            .filter(|l| l.contains("pass@5") || l.contains("pass@10"))
            .all(|l| l.ends_with("n/a      n/a      n/a")));
    }

    #[test]
    fn fig5_traces_follow_method_semantics() {
        let scale = micro_scale();
        let pipe = Pipeline::build(scale.pipeline);
        let traces = run_fig5(&pipe, ModelScale::Small);
        assert_eq!(traces.len(), 3);
        let ntp = traces.iter().find(|t| t.method == "NTP").expect("ntp");
        assert_eq!(ntp.steps, ntp.tokens, "NTP is one token per step");
        let ours = traces.iter().find(|t| t.method == "Ours").expect("ours");
        assert!(
            (ours.fragment_complete_ratio - 1.0).abs() < 1e-9,
            "Ours multi-token steps must end on fragment boundaries"
        );
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..50).collect::<Vec<_>>(), |x| x * 2);
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
    }
}
