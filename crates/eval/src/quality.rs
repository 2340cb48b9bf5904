//! The simulation-backed quality gate (`BENCH_quality.json`): each
//! engine's generated fragments are staged through the semantic
//! pipeline — parse → elaborate (module + interface) → simulate
//! against the problem's golden model — at **equal candidate budget**,
//! alongside the realized acceptance rate the engine achieved while
//! generating them. This is where "speed and quality, all in one"
//! becomes measurable for the grammar layer: propose-time pruning must
//! raise the acceptance rate *without* costing semantic quality.
//!
//! Engine stack exercised per sample (eval layer on top):
//!
//! ```text
//!   quality gate          parse / elaborate / sim-pass rates + acceptance
//!     └ verispec-sim      run_combinational / run_sequential vs. golden
//!       └ decode engines  NTP | Medusa-tree | Ours-tree | Grammar-tree
//!         └ verispec-grammar  propose-time viability filter + dead-tail prune
//! ```
//!
//! All three speculative engines run the same [`QUALITY_TREE`] widths,
//! so the grammar row differs from the unconstrained `Ours-tree` row
//! only by the propose-time grammar layer — the comparison
//! [`quality_gate_violations`] pins (`Grammar-tree` acceptance strictly
//! above `Ours-tree`, parse/elaborate rates no worse).

use crate::benchmarks::{rtllm_sim, vgen_sim, Problem};
use crate::experiments::{parallel_map, sample_seed, Scale};
use crate::judge::{check_interface, JUDGE_VECTORS};
use crate::pipeline::{generate, generate_grammar, token_budget, ModelScale, Pipeline};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use verispec_core::{DecodeConfig, TrainMethod};
use verispec_data::Golden;
use verispec_grammar::GrammarOracle;
use verispec_lm::Sampling;
use verispec_sim::{elaborate, run_combinational, run_sequential, ResetSpec, SeqSpec};

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
/// [`crate::judge::judge`], but reporting *where* the sample died
/// instead of folding parse and elaborate failures into one verdict.
pub fn stage_judge(code: &str, problem: &Problem, seed: u64) -> StageOutcome {
    let mut out = StageOutcome::default();
    // For VGen-style problems the header came from the prompt; the
    // model generated only the continuation.
    let full_source = format!("{}{}", problem.completion_prefix(), code);
    let Ok(file) = verispec_verilog::parse(&full_source) else {
        return out;
    };
    out.parsed = true;

    let want = &problem.module.name;
    let Some(module) = file.modules.iter().find(|m| &m.name == want) else {
        return out;
    };
    let Ok(design) = elaborate(module) else {
        return out;
    };
    if check_interface(&design, problem).is_err() {
        return out;
    }
    out.elaborated = true;

    let iface = &problem.module.interface;
    let mut rng = SmallRng::seed_from_u64(seed);
    let vectors = iface.random_stimuli(&mut rng, JUDGE_VECTORS);
    let result = match (&problem.module.golden, iface.clock.as_ref()) {
        (Golden::Comb(f), None) => run_combinational(&design, &vectors, |ins| f(ins)),
        (Golden::Seq(factory), Some(clock)) => {
            let spec = SeqSpec {
                clock: clock.clone(),
                reset: iface.reset.as_ref().map(|r| ResetSpec {
                    signal: r.signal.clone(),
                    active_low: r.active_low,
                    cycles: 2,
                }),
            };
            let mut golden = factory();
            run_sequential(&design, &spec, &vectors, |ins| golden(ins))
        }
        _ => return out,
    };
    out.passed = matches!(result, Ok(tb) if tb.passed);
    out
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
    /// samples — for the grammar engine this is the *post-prune*
    /// count, the tokens actually sent to verification.
    pub speculated_tokens: usize,
    /// Speculated tokens the verifier accepted (committed beyond the
    /// per-step base token).
    pub accepted_spec_tokens: usize,
    /// `accepted_spec_tokens / speculated_tokens` (0 for NTP, which
    /// never speculates).
    pub realized_acceptance: f64,
}

/// Per-engine accumulator summed over problems and samples.
#[derive(Debug, Clone, Copy, Default)]
struct Accum {
    samples: usize,
    parsed: usize,
    elaborated: usize,
    passed: usize,
    speculated: usize,
    accepted_spec: usize,
}

impl Accum {
    fn merge(mut self, other: Accum) -> Accum {
        self.samples += other.samples;
        self.parsed += other.parsed;
        self.elaborated += other.elaborated;
        self.passed += other.passed;
        self.speculated += other.speculated;
        self.accepted_spec += other.accepted_spec;
        self
    }
}

/// The four engines the gate compares: `(row name, trained model's
/// regime, grammar layer on)`. `Grammar-tree` runs the same
/// Ours-trained model and tagged prompts as `Ours-tree`, so the two
/// rows differ only by propose-time pruning.
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
    let limit = scale.problem_limit.unwrap_or(usize::MAX);
    let mut problems: Vec<Problem> = Vec::new();
    for bench in [rtllm_sim(), vgen_sim()] {
        problems.extend(bench.problems.into_iter().take(limit));
    }

    GATE_ENGINES
        .iter()
        .map(|&(name, method, grammar)| {
            let model = pipe.model_for(model_scale, method, (1, 1));
            let per_problem = parallel_map(
                problems.iter().collect::<Vec<_>>(),
                scale.threads,
                |problem| {
                    let budget = token_budget(&pipe.tokenizer, problem, method);
                    let mut acc = Accum::default();
                    for sample in 0..scale.n_samples {
                        let temp = scale.temperatures[sample % scale.temperatures.len()];
                        let cfg = DecodeConfig {
                            max_tokens: budget,
                            sampling: Sampling::Temperature {
                                temperature: temp,
                                top_k: 0,
                            },
                            seed: sample_seed(&problem.id, sample, 31),
                            tree: Some(QUALITY_TREE.to_vec()),
                            ..Default::default()
                        };
                        let g = if grammar {
                            generate_grammar(&model, &pipe.tokenizer, &oracle, problem, &cfg, &cost)
                        } else {
                            generate(&model, &pipe.tokenizer, problem, method, &cfg, &cost)
                        };
                        let stages = stage_judge(&g.code, problem, 0xBEEF);
                        acc.samples += 1;
                        acc.parsed += stages.parsed as usize;
                        acc.elaborated += stages.elaborated as usize;
                        acc.passed += stages.passed as usize;
                        acc.speculated +=
                            g.output.trace.iter().map(|t| t.speculated).sum::<usize>();
                        acc.accepted_spec += g.output.tokens.len().saturating_sub(g.output.steps);
                    }
                    acc
                },
            );
            let t = per_problem.into_iter().fold(Accum::default(), Accum::merge);
            let rate = |n: usize| {
                if t.samples == 0 {
                    0.0
                } else {
                    n as f64 / t.samples as f64
                }
            };
            QualityGateRow {
                engine: name.to_string(),
                samples: t.samples,
                parse_rate: rate(t.parsed),
                elaborate_rate: rate(t.elaborated),
                sim_pass_rate: rate(t.passed),
                speculated_tokens: t.speculated,
                accepted_spec_tokens: t.accepted_spec,
                realized_acceptance: if t.speculated == 0 {
                    0.0
                } else {
                    t.accepted_spec as f64 / t.speculated as f64
                },
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
///   comparison: `Grammar-tree` is `Ours-tree` plus the propose-time
///   grammar layer (same trained model, same prompts, same candidate
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
        })
        .collect()
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
