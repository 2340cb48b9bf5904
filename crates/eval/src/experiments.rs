//! Experiment runners that regenerate every table and figure of the
//! paper's evaluation (§IV): Table I (quality), Table II (speed),
//! Fig. 1 (speed/quality trade-off), Fig. 5 (decode traces), and
//! Fig. 6 (quality vs. training-data size).

use crate::benchmarks::{rtllm_sim, speed_prompts, vgen_sim, Benchmark, Problem};
use crate::judge::judge;
use crate::metrics::{mean_speed, speedup, PromptCounts, QualityRow};
use crate::pipeline::{generate, token_budget, ModelScale, Pipeline, PipelineConfig};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;
use verispec_core::{DecodeConfig, TrainMethod};
use verispec_lm::{MlpLm, Sampling};

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
    /// Number of prompts in the speed evaluation (paper: 575).
    pub speed_prompt_count: usize,
    /// Optional cap on problems per benchmark (quick runs).
    pub problem_limit: Option<usize>,
    /// Worker threads.
    pub threads: usize,
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
            threads: 2,
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
            threads: 2,
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

/// Simple work-stealing parallel map over `items`.
pub(crate) fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let queue: Mutex<Vec<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
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

/// Scores one trained model on one benchmark.
pub fn score_benchmark(
    pipe: &Pipeline,
    model: &MlpLm,
    model_scale: ModelScale,
    method: TrainMethod,
    bench: &Benchmark,
    scale: &Scale,
) -> (QualityRow, QualityRow) {
    let limit = scale.problem_limit.unwrap_or(usize::MAX);
    let cost = model_scale.cost_model();
    let problems: Vec<&Problem> = bench.problems.iter().take(limit).collect();
    let counts: Vec<PromptCounts> = problems
        .iter()
        .map(|problem| {
            let mut pc = PromptCounts {
                n: scale.n_samples,
                ..Default::default()
            };
            let budget = token_budget(&pipe.tokenizer, problem, method);
            for sample in 0..scale.n_samples {
                let temp = scale.temperatures[sample % scale.temperatures.len()];
                let cfg = DecodeConfig {
                    max_tokens: budget,
                    sampling: Sampling::Temperature {
                        temperature: temp,
                        top_k: 0,
                    },
                    seed: sample_seed(&problem.id, sample, 11),
                    ..Default::default()
                };
                let generation = generate(model, &pipe.tokenizer, problem, method, &cfg, &cost);
                let verdict = judge(&generation.code, problem, 0xBEEF);
                if verdict.syntax_ok() {
                    pc.syntax_passes += 1;
                }
                if verdict.functional_ok() {
                    pc.functional_passes += 1;
                }
            }
            pc
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
    let cells = parallel_map(jobs, scale.threads, |(model_scale, method, fraction)| {
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
// Table II — speed
// ---------------------------------------------------------------------

/// One row of Table II.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpeedRow {
    /// Model scale.
    pub model: ModelScale,
    /// Method name.
    pub method: &'static str,
    /// Simulated tokens/second (Eq. 3).
    pub speed: f64,
    /// Speedup vs. the NTP baseline (Eq. 4).
    pub speedup: f64,
    /// Mean tokens committed per decoding step.
    pub tokens_per_step: f64,
}

/// Regenerates Table II: generation speed for both models × 3 methods,
/// greedy plus temperature-0.8 sampling per prompt (paper §IV-A3).
pub fn run_table2(scale: &Scale, pipe: &Pipeline) -> Vec<SpeedRow> {
    let prompts = speed_prompts(scale.speed_prompt_count, 0x5EED);
    let mut rows = Vec::new();
    for model_scale in [ModelScale::Large, ModelScale::Small] {
        let cost = model_scale.cost_model();
        let mut speeds: Vec<(TrainMethod, f64, f64)> = Vec::new();
        for method in METHODS {
            let model = pipe.model_for(model_scale, method, (1, 1));
            let runs: Vec<(usize, f64, f64)> = parallel_map(
                prompts.iter().collect::<Vec<_>>(),
                scale.threads,
                |problem| {
                    let budget = token_budget(&pipe.tokenizer, problem, method);
                    let mut tokens = 0usize;
                    let mut secs = 0.0f64;
                    let mut steps = 0usize;
                    for (i, sampling) in [
                        Sampling::Greedy,
                        Sampling::Temperature {
                            temperature: 0.8,
                            top_k: 0,
                        },
                    ]
                    .into_iter()
                    .enumerate()
                    {
                        let cfg = DecodeConfig {
                            max_tokens: budget,
                            sampling,
                            seed: sample_seed(&problem.id, i, 23),
                            ..Default::default()
                        };
                        let g = generate(&model, &pipe.tokenizer, problem, method, &cfg, &cost);
                        tokens += g.output.clock.tokens;
                        secs += g.output.clock.seconds;
                        steps += g.output.steps;
                    }
                    (tokens, secs, steps as f64)
                },
            );
            let speed_runs: Vec<(usize, f64)> = runs.iter().map(|&(t, s, _)| (t, s)).collect();
            let total_tokens: usize = runs.iter().map(|r| r.0).sum();
            let total_steps: f64 = runs.iter().map(|r| r.2).sum();
            let tps = if total_steps > 0.0 {
                total_tokens as f64 / total_steps
            } else {
                0.0
            };
            speeds.push((method, mean_speed(&speed_runs), tps));
        }
        let ntp_speed = speeds
            .iter()
            .find(|(m, _, _)| *m == TrainMethod::Ntp)
            .map(|(_, s, _)| *s)
            .unwrap_or(1.0);
        for (method, speed, tps) in speeds {
            rows.push(SpeedRow {
                model: model_scale,
                method: method.name(),
                speed,
                speedup: speedup(speed, ntp_speed),
                tokens_per_step: tps,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------
// Fig. 1 — speed/quality scatter
// ---------------------------------------------------------------------

/// One point of Fig. 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TradeoffPoint {
    /// Method name.
    pub method: &'static str,
    /// Simulated tokens/second.
    pub speed: f64,
    /// Functional Pass Rate (%) on RTLLM-sim.
    pub pass_rate: f64,
    /// Syntactic Pass Rate (%) on RTLLM-sim (the informative axis at
    /// this substrate scale; see EXPERIMENTS.md).
    pub syntax_pass_rate: f64,
}

/// Regenerates Fig. 1 for the Large (CodeLlama-like) model at full data.
pub fn run_fig1(scale: &Scale, pipe: &Pipeline) -> Vec<TradeoffPoint> {
    let speed_rows = run_table2(scale, pipe);
    let bench = rtllm_sim();
    METHODS
        .iter()
        .map(|&method| {
            let model = pipe.model_for(ModelScale::Large, method, (1, 1));
            let (function, syntax) =
                score_benchmark(pipe, &model, ModelScale::Large, method, &bench, scale);
            let speed = speed_rows
                .iter()
                .find(|r| r.model == ModelScale::Large && r.method == method.name())
                .map(|r| r.speed)
                .unwrap_or(0.0);
            TradeoffPoint {
                method: method.name(),
                speed,
                pass_rate: function.pass_rate,
                syntax_pass_rate: syntax.pass_rate,
            }
        })
        .collect()
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
                .trace
                .iter()
                .map(|st| pipe.tokenizer.decode(&st.committed))
                .collect();
            let multi: Vec<_> = g
                .output
                .trace
                .iter()
                .filter(|st| st.committed.len() > 1)
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
// Fig. 6 — pass@5 vs data size
// ---------------------------------------------------------------------

/// One series point of Fig. 6.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DataSizePoint {
    /// Method name.
    pub method: &'static str,
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Data fraction.
    pub fraction: (usize, usize),
    /// Functional pass@5 (%).
    pub function_pass5: f64,
    /// Syntax pass@5 (%).
    pub syntax_pass5: f64,
}

/// Extracts the Fig.-6 series (Small model, pass@5 vs data size) from
/// Table-I cells.
pub fn fig6_from_cells(cells: &[QualityCell]) -> Vec<DataSizePoint> {
    cells
        .iter()
        .filter(|c| c.model == ModelScale::Small)
        .map(|c| DataSizePoint {
            method: c.method,
            benchmark: c.benchmark,
            fraction: c.fraction,
            function_pass5: c.function.pass_at_5,
            syntax_pass5: c.syntax.pass_at_5,
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
                        let mut vals = [f64::NAN; 3];
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
                                    _ => row.pass_rate,
                                };
                            }
                        }
                        out.push_str(&format!(
                            "{:<10} {:>2}/{:<2}  {:<10} | {:<6} {:<8} {:>7.2} {:>8.2} {:>8.2}\n",
                            model.name(),
                            fraction.0,
                            fraction.1,
                            benchmark,
                            section,
                            metric,
                            vals[0],
                            vals[1],
                            vals[2],
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Renders Table II in the paper's layout.
pub fn render_table2(rows: &[SpeedRow]) -> String {
    let mut out = String::new();
    out.push_str("Table II — generation speed\n");
    out.push_str("model      method   tokens/s   speedup   tokens/step\n");
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:<8} {:>8.2}  {:>7.2}x  {:>11.2}\n",
            r.model.name(),
            r.method,
            r.speed,
            r.speedup,
            r.tokens_per_step
        ));
    }
    out
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
            threads: 2,
        }
    }

    #[test]
    fn table2_has_all_rows_and_ntp_speedup_is_one() {
        let scale = micro_scale();
        let pipe = Pipeline::build(scale.pipeline);
        let rows = run_table2(&scale, &pipe);
        assert_eq!(rows.len(), 6);
        for r in rows.iter().filter(|r| r.method == "NTP") {
            assert!((r.speedup - 1.0).abs() < 1e-9, "NTP speedup {}", r.speedup);
            assert!(r.tokens_per_step <= 1.0 + 1e-9);
        }
        let rendered = render_table2(&rows);
        assert!(rendered.contains("CodeLlama"));
        assert!(rendered.contains("CodeT5p"));
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
        let fig6 = fig6_from_cells(&cells);
        assert_eq!(fig6.len(), 6);
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
        let out = parallel_map((0..50).collect::<Vec<_>>(), 3, |x| x * 2);
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
    }
}
