//! The simulation-backed quality gate (`BENCH_quality.json`): each
//! engine's generated fragments are staged through the semantic
//! pipeline — parse → elaborate (module + interface) → simulate
//! against the problem's golden model — at **equal candidate budget**,
//! alongside the realized acceptance rate the engine achieved while
//! generating them. This is where "speed and quality, all in one"
//! becomes measurable for the grammar layer: the viability filter must
//! raise the acceptance rate *without* costing semantic quality.
//!
//! Engine stack exercised per sample (eval layer on top):
//!
//! ```text
//!   quality gate          parse / elaborate / sim-pass rates + acceptance
//!     └ verispec-sim      run_combinational / run_sequential vs. golden
//!       └ decode engines  NTP | Medusa-tree | Ours-tree | Grammar-tree
//!         └ verispec-grammar  per-node viability filter of the candidates
//! ```
//!
//! All three speculative engines run the same [`QUALITY_TREE`] widths,
//! so the grammar row differs from the unconstrained `Ours-tree` row
//! only by the grammar layer — the comparison
//! [`quality_gate_violations`] pins (`Grammar-tree` acceptance strictly
//! above `Ours-tree`, parse/elaborate rates no worse).
//!
//! The walk problem × samples → decode → [`stage_judge`] is written once,
//! as the crate-private `judged_samples` over a `SampleGrid`. The gate's
//! rows and Table I's pass@k ([`crate::experiments::run_table1`]) are
//! both folds over it, each on its own grid: salt 31 at [`QUALITY_TREE`]
//! here, salt 11 on the top-1 chain there.

use crate::benchmarks::{rtllm_sim, vgen_sim, Problem};
use crate::experiments::{parallel_map, sample_seed, Scale};
use crate::judge::{walk, Stage};
use crate::pipeline::{generate, generate_grammar, token_budget, Generation, ModelScale, Pipeline};
use serde::{Deserialize, Serialize};
use verispec_core::{DecodeConfig, TrainMethod};
use verispec_grammar::GrammarOracle;
use verispec_lm::{GpuCostModel, MlpLm, Sampling};

/// Candidate-tree widths every speculative engine in the gate runs
/// (equal candidate budget: 2 + 2·2 = 6 candidate tokens per step).
pub const QUALITY_TREE: [usize; 2] = [2, 2];

/// Staged semantic outcome of one generated sample. The stages are
/// monotone by construction: `passed` implies `elaborated` implies
/// `parsed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageOutcome {
    /// The completed source parses.
    pub parsed: bool,
    /// The expected module exists, elaborates, and exposes the
    /// interface the testbench instantiates.
    pub elaborated: bool,
    /// The design matches the golden model on every stimulus vector.
    pub passed: bool,
}

/// Stages one generated completion (code text, `[FRAG]` markers already
/// stripped) through parse → elaborate → simulate. Same protocol as
/// [`crate::judge::judge`] — the same walk — but reporting *where* the
/// sample died instead of folding parse and elaborate failures into one
/// verdict.
pub fn stage_judge(code: &str, problem: &Problem, seed: u64) -> StageOutcome {
    let failed_at = walk(code, problem, seed).err().map(|(stage, _)| stage);
    StageOutcome {
        parsed: failed_at != Some(Stage::Parse),
        elaborated: matches!(failed_at, None | Some(Stage::Simulate)),
        passed: failed_at.is_none(),
    }
}

/// How a quality walk draws one problem's samples: the scale's
/// `n_samples`, temperatures pooled round-robin, each seeded from the
/// problem, the sample index and the grid's salt, decoded on the grid's
/// candidate tree (`None`: the top-1 chain).
#[derive(Clone, Copy)]
pub(crate) struct SampleGrid<'a> {
    pipe: &'a Pipeline,
    scale: &'a Scale,
    salt: u64,
    tree: Option<&'a [usize]>,
}

impl<'a> SampleGrid<'a> {
    /// Table I's grid: the chain, salt 11.
    pub(crate) fn table1(pipe: &'a Pipeline, scale: &'a Scale) -> Self {
        SampleGrid {
            pipe,
            scale,
            salt: 11,
            tree: None,
        }
    }

    /// The gate's grid: every engine at [`QUALITY_TREE`], salt 31.
    pub(crate) fn gate(pipe: &'a Pipeline, scale: &'a Scale) -> Self {
        SampleGrid {
            pipe,
            scale,
            salt: 31,
            tree: Some(&QUALITY_TREE),
        }
    }
}

/// One problem's samples on `grid` as `(sample, generation, stages)`, in
/// sample order: each decoded by `model` within [`token_budget`] —
/// through [`generate`] under `method`, or [`generate_grammar`] when an
/// `oracle` is given — and staged by [`stage_judge`] at seed `0xBEEF`.
pub(crate) fn judged_samples<'a>(
    grid: SampleGrid<'a>,
    model: &'a MlpLm,
    method: TrainMethod,
    oracle: Option<&'a GrammarOracle>,
    cost: &'a GpuCostModel,
    problem: &'a Problem,
) -> impl Iterator<Item = (usize, Generation, StageOutcome)> + 'a {
    let tokenizer = &grid.pipe.tokenizer;
    let temperatures = &grid.scale.temperatures;
    let budget = token_budget(tokenizer, problem, method);
    (0..grid.scale.n_samples).map(move |sample| {
        let cfg = DecodeConfig {
            max_tokens: budget,
            sampling: Sampling::Temperature {
                temperature: temperatures[sample % temperatures.len()],
                top_k: 0,
            },
            seed: sample_seed(&problem.id, sample, grid.salt),
            tree: grid.tree.map(<[usize]>::to_vec),
            ..Default::default()
        };
        let generation = match oracle {
            Some(oracle) => generate_grammar(model, tokenizer, oracle, problem, &cfg, cost),
            None => generate(model, tokenizer, problem, method, &cfg, cost),
        };
        let stages = stage_judge(&generation.code, problem, 0xBEEF);
        (sample, generation, stages)
    })
}

/// One engine's row of `BENCH_quality.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QualityGateRow {
    /// Engine name (`NTP`, `Medusa-tree`, `Ours-tree`, `Grammar-tree`).
    pub engine: String,
    /// Generated samples scored.
    pub samples: usize,
    /// Fraction of samples whose completed source parses.
    pub parse_rate: f64,
    /// Fraction that also elaborate with the testbench interface.
    pub elaborate_rate: f64,
    /// Fraction that also match the golden model on every vector.
    pub sim_pass_rate: f64,
    /// Candidate tokens the engine speculated (paid for) across all
    /// samples: every step's shape, whatever acceptance reached.
    pub speculated_tokens: usize,
    /// Speculated tokens the verifier accepted (committed beyond the
    /// per-step base token).
    pub accepted_spec_tokens: usize,
    /// `accepted_spec_tokens / speculated_tokens` (0 for NTP, which
    /// never speculates).
    pub realized_acceptance: f64,
    /// Wilson 95 % interval `[lo, hi]` of `parse_rate`, from the same
    /// counts ([`wilson_ci95`]).
    pub parse_ci95: [f64; 2],
    /// Wilson 95 % interval of `elaborate_rate`.
    pub elaborate_ci95: [f64; 2],
    /// Wilson 95 % interval of `sim_pass_rate`.
    pub sim_pass_ci95: [f64; 2],
}

/// The Wilson score interval at 95 % (`z = 1.96`) of `hits` successes
/// in `n` trials, `[lo, hi]`: unlike the normal interval around
/// `hits / n`, it stays inside `[0, 1]` and is not empty at zero hits
/// (`[0, 0.0507]` for 0 of 72), which is where this gate's sim-pass
/// rates sit. `[0, 1]` when there are no trials.
pub fn wilson_ci95(hits: usize, n: usize) -> [f64; 2] {
    if n == 0 {
        return [0.0, 1.0];
    }
    let (z, n) = (1.96f64, n as f64);
    let p = hits as f64 / n;
    let scale = 1.0 + z * z / n;
    let center = (p + z * z / (2.0 * n)) / scale;
    let half = z / scale * (p * (1.0 - p) / n + z * z / (4.0 * n * n)).sqrt();
    // At no hits (all hits) the bound is 0 (1) exactly, whatever the
    // rounding of `center ∓ half`.
    let lo = if hits == 0 { 0.0 } else { center - half };
    let hi = if hits as f64 == n { 1.0 } else { center + half };
    [lo, hi]
}

/// The four engines the gate compares: `(row name, trained model's
/// regime, grammar layer on)`. `Grammar-tree` runs the same
/// Ours-trained model and tagged prompts as `Ours-tree`, so the two
/// rows differ only by the viability filter.
const GATE_ENGINES: [(&str, TrainMethod, bool); 4] = [
    ("NTP", TrainMethod::Ntp, false),
    ("Medusa-tree", TrainMethod::Medusa, false),
    ("Ours-tree", TrainMethod::Ours, false),
    ("Grammar-tree", TrainMethod::Ours, true),
];

/// Runs the quality gate: both benchmark suites (problem-limited by
/// the scale), `n_samples` temperature-pooled samples per problem, all
/// four engines at [`QUALITY_TREE`] candidate budget.
pub fn run_quality_gate(
    scale: &Scale,
    pipe: &Pipeline,
    model_scale: ModelScale,
) -> Vec<QualityGateRow> {
    let cost = model_scale.cost_model();
    let oracle = GrammarOracle::from_tokenizer(&pipe.tokenizer);
    let grid = SampleGrid::gate(pipe, scale);
    let limit = scale.problem_limit.unwrap_or(usize::MAX);
    let mut problems: Vec<Problem> = Vec::new();
    for bench in [rtllm_sim(), vgen_sim()] {
        problems.extend(bench.problems.into_iter().take(limit));
    }

    GATE_ENGINES
        .iter()
        .map(|&(name, method, grammar)| {
            let model = pipe.model_for(model_scale, method, (1, 1));
            let oracle = grammar.then_some(&oracle);
            // Per sample: its stages, the candidate tokens it speculated
            // and the speculated tokens the verifier accepted.
            let samples: Vec<(StageOutcome, usize, usize)> =
                parallel_map(problems.iter().collect(), |problem| {
                    judged_samples(grid, &model, method, oracle, &cost, problem)
                        .map(|(_, g, stages)| {
                            let speculated = g.output.trace.iter().map(|t| t.speculated).sum();
                            let accepted = g.output.tokens.len().saturating_sub(g.output.steps);
                            (stages, speculated, accepted)
                        })
                        .collect::<Vec<_>>()
                })
                .concat();
            let hits = |stage: fn(&StageOutcome) -> bool| {
                samples.iter().filter(|(s, _, _)| stage(s)).count()
            };
            let rate = |stage: fn(&StageOutcome) -> bool| {
                if samples.is_empty() {
                    0.0
                } else {
                    hits(stage) as f64 / samples.len() as f64
                }
            };
            let ci95 = |stage: fn(&StageOutcome) -> bool| wilson_ci95(hits(stage), samples.len());
            let speculated: usize = samples.iter().map(|s| s.1).sum();
            let accepted: usize = samples.iter().map(|s| s.2).sum();
            QualityGateRow {
                engine: name.to_string(),
                samples: samples.len(),
                parse_rate: rate(|s| s.parsed),
                elaborate_rate: rate(|s| s.elaborated),
                sim_pass_rate: rate(|s| s.passed),
                speculated_tokens: speculated,
                accepted_spec_tokens: accepted,
                realized_acceptance: if speculated == 0 {
                    0.0
                } else {
                    accepted as f64 / speculated as f64
                },
                parse_ci95: ci95(|s| s.parsed),
                elaborate_ci95: ci95(|s| s.elaborated),
                sim_pass_ci95: ci95(|s| s.passed),
            }
        })
        .collect()
}

/// What the gate's rows must show before they are recorded: every
/// violated gate as `name: detail`, empty when `BENCH_quality.json`
/// may be written.
///
/// * `engine-missing` — all four engines are present, named here
///   independently of the list the runner maps over;
/// * `rate-range` / `stage-monotone` — every rate lies in [0, 1] over
///   a non-empty sample set, and parse >= elaborate >= sim-pass (a
///   later stage cannot pass what an earlier one rejected);
/// * `ntp-speculates` — the NTP row never speculates;
/// * `grammar-acceptance` / `grammar-quality` — the headline
///   comparison: `Grammar-tree` is `Ours-tree` plus the grammar layer
///   (same trained model, same prompts, same candidate
///   budget), so its realized acceptance must be strictly above the
///   unconstrained tree's, at parse and elaborate rates no worse.
pub fn quality_gate_violations(rows: &[QualityGateRow]) -> Vec<String> {
    let mut violations = Vec::new();
    let mut gate = |ok: bool, name: &str, detail: String| {
        if !ok {
            violations.push(format!("{name}: {detail}"));
        }
    };
    for r in rows {
        let rates = [
            r.parse_rate,
            r.elaborate_rate,
            r.sim_pass_rate,
            r.realized_acceptance,
        ];
        gate(
            r.samples > 0 && rates.iter().all(|v| (0.0..=1.0).contains(v)),
            "rate-range",
            format!(
                "{}: {} sample(s), rates {rates:?} not all in [0, 1]",
                r.engine, r.samples
            ),
        );
        gate(
            r.parse_rate >= r.elaborate_rate && r.elaborate_rate >= r.sim_pass_rate,
            "stage-monotone",
            format!(
                "{}: parse {} / elaborate {} / sim {}",
                r.engine, r.parse_rate, r.elaborate_rate, r.sim_pass_rate
            ),
        );
    }
    let engine = |name: &str| rows.iter().find(|r| r.engine == name);
    for name in ["NTP", "Medusa-tree", "Ours-tree", "Grammar-tree"] {
        gate(engine(name).is_some(), "engine-missing", name.to_string());
    }
    if let Some(ntp) = engine("NTP") {
        gate(
            ntp.speculated_tokens == 0 && ntp.realized_acceptance == 0.0,
            "ntp-speculates",
            format!(
                "{} tokens, acceptance {}",
                ntp.speculated_tokens, ntp.realized_acceptance
            ),
        );
    }
    if let Some((grammar, ours)) = engine("Grammar-tree").zip(engine("Ours-tree")) {
        gate(
            grammar.realized_acceptance > ours.realized_acceptance,
            "grammar-acceptance",
            format!(
                "Grammar-tree {} not strictly above Ours-tree {}",
                grammar.realized_acceptance, ours.realized_acceptance
            ),
        );
        gate(
            grammar.parse_rate >= ours.parse_rate && grammar.elaborate_rate >= ours.elaborate_rate,
            "grammar-quality",
            format!(
                "Grammar-tree parse {} / elaborate {} below Ours-tree {} / {}",
                grammar.parse_rate, grammar.elaborate_rate, ours.parse_rate, ours.elaborate_rate
            ),
        );
    }
    violations
}

/// Renders the gate as a plain-text table.
pub fn render_quality_gate(rows: &[QualityGateRow]) -> String {
    let mut out = String::new();
    out.push_str("Quality gate (parse/elaborate/sim-pass rates, realized acceptance)\n");
    out.push_str(&format!(
        "{:<14} {:>7} {:>8} {:>8} {:>8} {:>11} {:>10}\n",
        "engine", "samples", "parse", "elab", "sim", "speculated", "accept"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:>7} {:>8.3} {:>8.3} {:>8.3} {:>11} {:>10.3}\n",
            r.engine,
            r.samples,
            r.parse_rate,
            r.elaborate_rate,
            r.sim_pass_rate,
            r.speculated_tokens,
            r.realized_acceptance
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference solutions sail through every stage; garbage dies at
    /// parse; a flipped operator dies exactly at simulation.
    #[test]
    fn stages_are_monotone_and_discriminating() {
        let bench = rtllm_sim();
        let p = &bench.problems[0];
        let good = stage_judge(&p.module.source, p, 7);
        assert_eq!(
            good,
            StageOutcome {
                parsed: true,
                elaborated: true,
                passed: true
            }
        );

        let garbage = stage_judge("not verilog {{{", p, 7);
        assert_eq!(garbage, StageOutcome::default());

        let flip = bench
            .problems
            .iter()
            .find(|p| p.module.source.contains(" + "))
            .expect("an arithmetic problem");
        let wrong = stage_judge(&flip.module.source.replacen(" + ", " - ", 1), flip, 7);
        assert!(
            wrong.parsed && wrong.elaborated && !wrong.passed,
            "{wrong:?}"
        );
    }

    /// Every sample's stages stay monotone on arbitrary code.
    #[test]
    fn truncated_code_fails_before_simulation() {
        let bench = vgen_sim();
        let p = &bench.problems[0];
        let out = stage_judge("assign y = (a &", p, 7);
        assert!(!out.elaborated && !out.passed);
    }

    /// The sample grid's contract: sample `s` of problem `p` is one direct
    /// decode at `sample_seed(p.id, s, salt)` and `temperatures[s % len]`,
    /// staged at judge seed `0xBEEF` — on Table I's grid (salt 11, the
    /// chain) and the gate's (salt 31, `QUALITY_TREE`, with and without
    /// the oracle) — and Table I's rows and the gate's rows are counts
    /// over exactly those samples.
    #[test]
    fn every_judged_sample_is_one_direct_decode_and_judge() {
        use crate::experiments::{score_benchmark, METHODS};
        use crate::metrics::{PromptCounts, QualityRow};
        use crate::pipeline::PipelineConfig;

        let scale = Scale {
            pipeline: PipelineConfig {
                corpus_size: 48,
                vocab: 380,
                n_heads: 3,
                epochs: 1,
                ..Default::default()
            },
            n_samples: 3,
            temperatures: vec![0.3, 0.9],
            problem_limit: Some(1),
            ..Scale::quick()
        };
        let pipe = Pipeline::build(scale.pipeline);
        let grammar = GrammarOracle::from_tokenizer(&pipe.tokenizer);
        let cost = ModelScale::Small.cost_model();
        let benches = [rtllm_sim(), vgen_sim()];
        // The spec, spelled out: one decode and one judge per sample.
        let direct = |model: &MlpLm,
                      method: TrainMethod,
                      oracle: Option<&GrammarOracle>,
                      p: &Problem,
                      s: usize,
                      salt: u64,
                      tree: Option<Vec<usize>>| {
            let cfg = DecodeConfig {
                max_tokens: token_budget(&pipe.tokenizer, p, method),
                sampling: Sampling::Temperature {
                    temperature: scale.temperatures[s % 2],
                    top_k: 0,
                },
                seed: sample_seed(&p.id, s, salt),
                tree,
                ..Default::default()
            };
            let g = match oracle {
                Some(o) => generate_grammar(model, &pipe.tokenizer, o, p, &cfg, &cost),
                None => generate(model, &pipe.tokenizer, p, method, &cfg, &cost),
            };
            let stages = stage_judge(&g.code, p, 0xBEEF);
            (g, stages)
        };
        // Walks `grid` for one problem and checks every sample against
        // the direct call at `salt` / `tree`; returns the stages and
        // token counts the gate sums.
        let check = |grid: SampleGrid,
                     model: &MlpLm,
                     method: TrainMethod,
                     oracle: Option<&GrammarOracle>,
                     p: &Problem,
                     salt: u64,
                     tree: Option<Vec<usize>>| {
            let walked: Vec<_> = judged_samples(grid, model, method, oracle, &cost, p).collect();
            assert_eq!(walked.len(), scale.n_samples, "{}", p.id);
            walked
                .into_iter()
                .enumerate()
                .map(|(s, (sample, g, stages))| {
                    let (want, want_stages) =
                        direct(model, method, oracle, p, s, salt, tree.clone());
                    let at = format!("{} {} sample {s}", method.name(), p.id);
                    assert_eq!(sample, s, "{at}");
                    assert_eq!(g.code, want.code, "{at}");
                    assert_eq!(g.output, want.output, "{at}");
                    assert_eq!(stages, want_stages, "{at}");
                    let speculated: usize = g.output.trace.iter().map(|t| t.speculated).sum();
                    let accepted = g.output.tokens.len().saturating_sub(g.output.steps);
                    (stages, speculated, accepted)
                })
                .collect::<Vec<_>>()
        };

        // Table I: every method on the chain at salt 11, and its rows are
        // pass@k over those samples' elaborate / pass counts.
        let grid = SampleGrid::table1(&pipe, &scale);
        for method in METHODS {
            let model = pipe.model_for(ModelScale::Small, method, (1, 1));
            for bench in &benches {
                let samples = check(grid, &model, method, None, &bench.problems[0], 11, None);
                let counts = [PromptCounts {
                    n: scale.n_samples,
                    syntax_passes: samples.iter().filter(|s| s.0.elaborated).count(),
                    functional_passes: samples.iter().filter(|s| s.0.passed).count(),
                }];
                assert_eq!(
                    score_benchmark(&pipe, &model, ModelScale::Small, method, bench, &scale),
                    (
                        QualityRow::from_counts(&counts, |c| c.functional_passes),
                        QualityRow::from_counts(&counts, |c| c.syntax_passes),
                    ),
                    "{} on {}",
                    method.name(),
                    bench.name
                );
            }
        }

        // The gate: every engine at QUALITY_TREE and salt 31, and its row
        // counts exactly those samples.
        let rows = run_quality_gate(&scale, &pipe, ModelScale::Small);
        assert_eq!(rows.len(), GATE_ENGINES.len());
        let (grid, tree) = (SampleGrid::gate(&pipe, &scale), QUALITY_TREE.to_vec());
        for (row, &(name, method, with_oracle)) in rows.iter().zip(&GATE_ENGINES) {
            let model = pipe.model_for(ModelScale::Small, method, (1, 1));
            let oracle = with_oracle.then_some(&grammar);
            let samples: Vec<_> = benches
                .iter()
                .flat_map(|b| {
                    check(
                        grid,
                        &model,
                        method,
                        oracle,
                        &b.problems[0],
                        31,
                        Some(tree.clone()),
                    )
                })
                .collect();
            let n = samples.len();
            let rate = |hits: usize| hits as f64 / n as f64;
            assert_eq!(row.engine, name);
            assert_eq!(row.samples, n, "{name}");
            let count =
                |stage: fn(&StageOutcome) -> bool| samples.iter().filter(|s| stage(&s.0)).count();
            assert_eq!(row.parse_rate, rate(count(|s| s.parsed)), "{name}");
            assert_eq!(row.elaborate_rate, rate(count(|s| s.elaborated)), "{name}");
            assert_eq!(row.sim_pass_rate, rate(count(|s| s.passed)), "{name}");
            let speculated: usize = samples.iter().map(|s| s.1).sum();
            assert_eq!(row.speculated_tokens, speculated, "{name}");
            let accepted: usize = samples.iter().map(|s| s.2).sum();
            assert_eq!(row.accepted_spec_tokens, accepted, "{name}");
        }
        assert!(
            rows[1..].iter().all(|r| r.speculated_tokens > 0),
            "every tree engine speculated, so a salt or tree slip shows in its counts"
        );
    }

    /// A hand-built gate that passes: NTP speculates nothing, and the
    /// grammar row sits above the unconstrained tree on acceptance.
    fn clean_gate() -> Vec<QualityGateRow> {
        [
            ("NTP", 0, 0.0),
            ("Medusa-tree", 600, 0.25),
            ("Ours-tree", 600, 0.25),
            ("Grammar-tree", 400, 0.5),
        ]
        .into_iter()
        .map(|(engine, speculated, acceptance)| QualityGateRow {
            engine: engine.to_string(),
            samples: 8,
            parse_rate: 0.5,
            elaborate_rate: 0.25,
            sim_pass_rate: 0.125,
            speculated_tokens: speculated,
            accepted_spec_tokens: (speculated as f64 * acceptance) as usize,
            realized_acceptance: acceptance,
            parse_ci95: wilson_ci95(4, 8),
            elaborate_ci95: wilson_ci95(2, 8),
            sim_pass_ci95: wilson_ci95(1, 8),
        })
        .collect()
    }

    #[test]
    fn wilson_intervals_match_the_closed_form() {
        // Two points worked by hand at n = 72, the gate's sample count:
        // none passing (the sim-pass rates today) and half.
        let round = |[lo, hi]: [f64; 2]| [(lo * 1e4).round() / 1e4, (hi * 1e4).round() / 1e4];
        assert_eq!(round(wilson_ci95(0, 72)), [0.0, 0.0507]);
        assert_eq!(round(wilson_ci95(36, 72)), [0.3875, 0.6125]);
        // All passing mirrors none; no trials says nothing.
        assert_eq!(round(wilson_ci95(72, 72)), [0.9493, 1.0]);
        assert_eq!(wilson_ci95(0, 0), [0.0, 1.0]);
        // Every interval holds its rate and stays in [0, 1].
        for n in 1..=80 {
            for hits in 0..=n {
                let [lo, hi] = wilson_ci95(hits, n);
                let p = hits as f64 / n as f64;
                assert!(0.0 <= lo && lo <= p && p <= hi && hi <= 1.0, "{hits}/{n}");
            }
        }
    }

    /// The instrument's controls: a clean gate reports nothing, and
    /// breaking one row at a time reports exactly that gate.
    #[test]
    fn quality_gates_name_exactly_the_broken_row() {
        assert_eq!(quality_gate_violations(&clean_gate()), Vec::<String>::new());

        type Break = fn(&mut Vec<QualityGateRow>);
        let cases: [(&str, &str, Break); 6] = [
            ("grammar-acceptance", "not strictly above", |rows| {
                rows[3].realized_acceptance = rows[2].realized_acceptance
            }),
            ("grammar-quality", "below Ours-tree", |rows| {
                rows[2].parse_rate = 0.75
            }),
            ("stage-monotone", "Medusa-tree", |rows| {
                rows[1].sim_pass_rate = 0.375
            }),
            ("rate-range", "Medusa-tree", |rows| {
                rows[1].realized_acceptance = 1.5
            }),
            ("ntp-speculates", "3 tokens", |rows| {
                rows[0].speculated_tokens = 3
            }),
            ("engine-missing", "Medusa-tree", |rows| {
                rows.remove(1);
            }),
        ];
        for (gate, detail, break_it) in cases {
            let mut rows = clean_gate();
            break_it(&mut rows);
            let got = quality_gate_violations(&rows);
            assert_eq!(got.len(), 1, "{gate} / {detail}: {got:?}");
            assert!(
                got[0].starts_with(&format!("{gate}: ")) && got[0].contains(detail),
                "{gate} / {detail}: {got:?}"
            );
        }
    }
}
