//! Deterministic open-loop workload generation: seeded arrival
//! processes over the virtual tick clock, and seeded request mixes
//! drawing each arrival's engine, prompt family, budget, and sampling.
//!
//! Open-loop means arrivals do **not** wait for completions: the
//! process fixes every request's arrival tick up front, exactly like
//! independent users hitting a service. Offered load is therefore a
//! property of the workload, not of the server — which is what makes
//! "speculative vs. NTP at *equal offered load*" a fair comparison
//! (the serve-aware Table II in `BENCH_load.json`).

use crate::clock::{LoadRng, VirtualClock};
use verispec_core::DecodeConfig;
use verispec_lm::{Sampling, TokenId};
use verispec_serve::{EngineChoice, Request};
use verispec_tokenizer::BpeTokenizer;

/// The embedded Verilog sources [`PromptFamily::grammar_stress`] cuts
/// prompts from (ASCII-only, so every byte index is a char boundary).
const GRAMMAR_SNIPPETS: &[&str] = &[
    "module and_or(input a, input b, output y);\n  \
     assign y = (a & b) | (a ^ b);\nendmodule\n",
    "module shifter(input [3:0] x, output [3:0] y);\n  \
     assign y = (x << 1) ^ (x >> 2);\nendmodule\n",
    "module dff(input clk, input d, output reg q);\n  \
     always @(posedge clk) begin\n    q <= d;\n  end\nendmodule\n",
    "module mux3(input a, input b, input sel, output y);\n  \
     wire pick = sel ? (a & b) : (a | b);\n  \
     assign y = ~pick;\nendmodule\n",
];

/// A deterministic open-loop arrival process over virtual ticks.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate` requests per tick (exponential
    /// inter-arrival gaps) — the classic open-loop baseline.
    Poisson {
        /// Mean requests per tick.
        rate: f64,
    },
    /// Bursty on/off arrivals: Poisson at `rate` during on-windows of
    /// `on_ticks`, silent for `off_ticks` between them (a square-wave
    /// modulated Poisson process).
    OnOff {
        /// Mean requests per tick while the source is on.
        rate: f64,
        /// Length of each on-window in ticks.
        on_ticks: f64,
        /// Length of each off-window in ticks.
        off_ticks: f64,
    },
    /// Load ramp: the instantaneous rate climbs linearly from
    /// `start_rate` to `end_rate` over `ramp_ticks`, then holds
    /// (sampled by Lewis–Shedler thinning against the peak rate, so the
    /// non-homogeneous intensity is exact, not piecewise-approximated).
    Ramp {
        /// Rate at tick 0.
        start_rate: f64,
        /// Rate from `ramp_ticks` onward.
        end_rate: f64,
        /// Ramp duration in ticks.
        ramp_ticks: f64,
    },
}

impl ArrivalProcess {
    /// Human-readable process name.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::OnOff { .. } => "on-off",
            ArrivalProcess::Ramp { .. } => "ramp",
        }
    }

    /// Long-run offered load in requests per tick (the equal-load axis
    /// of the serve-aware Table II; the ramp settles at its end rate).
    pub fn offered_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::OnOff {
                rate,
                on_ticks,
                off_ticks,
            } => rate * on_ticks / (on_ticks + off_ticks).max(f64::MIN_POSITIVE),
            ArrivalProcess::Ramp { end_rate, .. } => end_rate,
        }
    }

    /// The first `n` arrival ticks, deterministically from `seed`
    /// (non-decreasing; several arrivals may share a tick).
    ///
    /// # Panics
    ///
    /// Panics on non-positive rates or window lengths.
    pub fn arrival_ticks(&self, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = LoadRng::new(seed ^ 0xA221_7A1C_0C5E_ED01);
        let mut out = Vec::with_capacity(n);
        match *self {
            ArrivalProcess::Poisson { rate } => {
                let mut clock = VirtualClock::new();
                for _ in 0..n {
                    out.push(clock.advance(rng.exp_gap(rate)));
                }
            }
            ArrivalProcess::OnOff {
                rate,
                on_ticks,
                off_ticks,
            } => {
                assert!(
                    on_ticks > 0.0 && off_ticks >= 0.0,
                    "on/off windows must be positive"
                );
                // Arrivals live in accumulated *on-time*; each is then
                // shifted by the off-time of every full cycle before it.
                let mut on_time = 0.0f64;
                let mut clock = VirtualClock::new();
                for _ in 0..n {
                    on_time += rng.exp_gap(rate);
                    let cycles = (on_time / on_ticks).floor();
                    clock.jump_to(on_time + cycles * off_ticks);
                    out.push(clock.advance(0.0));
                }
            }
            ArrivalProcess::Ramp {
                start_rate,
                end_rate,
                ramp_ticks,
            } => {
                assert!(ramp_ticks > 0.0, "ramp duration must be positive");
                let peak = start_rate.max(end_rate);
                assert!(peak > 0.0, "ramp needs a positive peak rate");
                let rate_at = |t: f64| {
                    let frac = (t / ramp_ticks).clamp(0.0, 1.0);
                    start_rate + (end_rate - start_rate) * frac
                };
                let mut clock = VirtualClock::new();
                while out.len() < n {
                    let tick = clock.advance(rng.exp_gap(peak));
                    // Thinning: keep the candidate with prob rate/peak.
                    if rng.uniform() * peak <= rate_at(clock.now()) {
                        out.push(tick);
                    }
                }
            }
        }
        out
    }
}

/// A named pool of already-encoded prompts with per-prompt decode
/// budgets — e.g. "short comb modules" vs "long seq modules".
#[derive(Debug, Clone)]
pub struct PromptFamily {
    /// Family name (telemetry breakdown key).
    pub name: String,
    /// `(prompt tokens, max_tokens budget)` pairs.
    pub prompts: Vec<(Vec<TokenId>, usize)>,
}

impl PromptFamily {
    /// A Zipf-distributed shared-stem family: `n_stems` random stems of
    /// `stem_len` tokens, and `count` prompts each formed as
    /// `stem ++ unique random suffix` of `suffix_len` tokens, where the
    /// stem for each prompt is drawn with probability ∝ `1/rankᵉ`
    /// (rank 1 = hottest). Because [`Workload`] draws prompts
    /// uniformly from the family list, the Zipf skew is encoded as
    /// *multiplicity*: hot stems simply appear under more prompts.
    ///
    /// This is the fleet-scale prefix-cache workload: a few hot stems
    /// (shared system prompts / module preambles) fan out into many
    /// unique requests, so a radix-tree cache turns the repeated
    /// O(stem) ingestion into O(suffix) on every hit, while cold stems
    /// exercise miss + eviction paths. Tokens are drawn from
    /// `[1, vocab)`; the whole family is a pure function of `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n_stems == 0`, `stem_len == 0`, or `vocab < 2`.
    #[allow(clippy::too_many_arguments)] // workload-shape knobs, all orthogonal
    pub fn zipf_stems(
        name: &str,
        count: usize,
        n_stems: usize,
        stem_len: usize,
        suffix_len: usize,
        exponent: f64,
        budget: usize,
        vocab: u32,
        seed: u64,
    ) -> PromptFamily {
        assert!(n_stems > 0, "need at least one stem");
        assert!(stem_len > 0, "stems must be non-empty");
        assert!(vocab >= 2, "need at least two tokens to draw from");
        let mut rng = LoadRng::new(seed);
        let token = |rng: &mut LoadRng| 1 + rng.below(vocab as usize - 1) as TokenId;
        let stems: Vec<Vec<TokenId>> = (0..n_stems)
            .map(|_| (0..stem_len).map(|_| token(&mut rng)).collect())
            .collect();
        let weights: Vec<f64> = (1..=n_stems)
            .map(|rank| 1.0 / (rank as f64).powf(exponent))
            .collect();
        let prompts = (0..count)
            .map(|_| {
                let mut prompt = stems[rng.weighted(&weights)].clone();
                prompt.extend((0..suffix_len).map(|_| token(&mut rng)));
                (prompt, budget)
            })
            .collect();
        PromptFamily {
            name: name.into(),
            prompts,
        }
    }

    /// The grammar-stress family: prompts are real Verilog sources cut
    /// off at seeded **mid-expression** points (inside an identifier or
    /// number, splitting the lexeme itself) or **mid-statement** points
    /// (between the words of an unfinished statement), then byte-level
    /// BPE encoded. These are the prompts where lexer viability does
    /// the most work: the continuation must first finish
    /// the severed lexeme or statement before the usual token mass
    /// becomes syntactically possible, so unconstrained candidates are
    /// dense with tokens the grammar engine's viability filter rejects.
    ///
    /// The whole family is a pure function of `seed`. Token ids come
    /// from [`BpeTokenizer::byte_level`], so the serving model must have
    /// `vocab >= 261` to score them.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` (an empty family would trip the workload
    /// generator's non-empty-family assertion anyway).
    pub fn grammar_stress(name: &str, count: usize, budget: usize, seed: u64) -> PromptFamily {
        assert!(count > 0, "need at least one prompt");
        let tok = BpeTokenizer::byte_level();
        let mut rng = LoadRng::new(seed ^ 0x6E4A_11E2_57E5_5C01);
        let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
        let prompts = (0..count)
            .map(|_| {
                let snippet = GRAMMAR_SNIPPETS[rng.below(GRAMMAR_SNIPPETS.len())];
                let bytes = snippet.as_bytes();
                let mid_expression = rng.uniform() < 0.5;
                // Skip the module keyword itself so every prompt at
                // least opens a module before it is severed.
                let cuts: Vec<usize> = (8..bytes.len() - 1)
                    .filter(|&i| {
                        if mid_expression {
                            ident(bytes[i - 1]) && ident(bytes[i])
                        } else {
                            bytes[i - 1] == b' ' && !bytes[i].is_ascii_whitespace()
                        }
                    })
                    .collect();
                let cut = cuts[rng.below(cuts.len())];
                (tok.encode(&snippet[..cut]), budget)
            })
            .collect();
        PromptFamily {
            name: name.into(),
            prompts,
        }
    }
}

/// The seeded distributions one request is drawn from.
#[derive(Debug, Clone)]
pub struct RequestMix {
    /// Weighted engine menu.
    pub engines: Vec<(EngineChoice, f64)>,
    /// Weighted prompt families. The family *index* doubles as the
    /// request's tenant class ([`verispec_serve::Request::class`]), so
    /// multi-tenant scenarios model each tenant as one family and
    /// weight service between them with
    /// [`verispec_serve::ServeConfig::class_weights`].
    pub families: Vec<(PromptFamily, f64)>,
    /// Probability of greedy decoding (otherwise temperature sampling).
    pub greedy_fraction: f64,
    /// Temperature range `[lo, hi)` for sampled requests.
    pub temperature: (f32, f32),
    /// Base decode config (EOS, acceptance); `max_tokens`, `sampling`,
    /// and `seed` are drawn per request.
    pub base: DecodeConfig,
    /// SLO deadline slack as a multiple of the request's decode budget:
    /// each request's deadline is `arrival + ⌈slack · budget⌉` ticks
    /// (an NTP request served alone needs ≈ `budget` ticks, so slack is
    /// "how many times the ideal service time may elapse"). `None`
    /// issues best-effort requests with no deadline.
    pub deadline_slack: Option<f64>,
}

/// A complete open-loop workload: arrival process × request mix, fully
/// determined by its seed.
#[derive(Debug, Clone)]
pub struct Workload {
    /// When requests arrive.
    pub process: ArrivalProcess,
    /// What each request asks for.
    pub mix: RequestMix,
    /// Number of requests.
    pub count: usize,
    /// Master seed (arrivals and mix draw from decorrelated substreams).
    pub seed: u64,
}

impl Workload {
    /// Generates the request sequence (ids `0..count`, arrival ticks
    /// non-decreasing).
    ///
    /// # Panics
    ///
    /// Panics if the mix has no engines or no non-empty family.
    pub fn requests(&self) -> Vec<Request> {
        self.requests_with_engine(None)
    }

    /// Like [`Workload::requests`], but with every request's engine
    /// forced to `engine` — the equal-offered-load A/B the serve-aware
    /// Table II runs (arrivals, prompts, budgets, sampling, and seeds
    /// are all identical across methods because the engine draw is
    /// still consumed from the RNG stream before being overridden).
    ///
    /// # Panics
    ///
    /// Panics if the mix has no engines or no non-empty family.
    pub fn requests_with_engine(&self, engine: Option<&EngineChoice>) -> Vec<Request> {
        self.generate(engine).0
    }

    /// The prompt-family name each request was drawn from (aligned with
    /// [`Workload::requests`] ids).
    pub fn family_names(&self) -> Vec<String> {
        self.generate(None).1
    }

    /// The single draw path behind [`Workload::requests_with_engine`]
    /// and [`Workload::family_names`]: one RNG stream produces the
    /// requests and their family labels together, so the two can never
    /// desync.
    fn generate(&self, engine: Option<&EngineChoice>) -> (Vec<Request>, Vec<String>) {
        let arrivals = self.process.arrival_ticks(self.count, self.seed);
        let mut rng = LoadRng::new(self.seed ^ 0x9E37_79B9_7F4A_7C15);
        let engine_weights: Vec<f64> = self.mix.engines.iter().map(|(_, w)| *w).collect();
        let family_weights: Vec<f64> = self.mix.families.iter().map(|(_, w)| *w).collect();
        arrivals
            .into_iter()
            .enumerate()
            .map(|(i, arrival)| {
                let drawn = &self.mix.engines[rng.weighted(&engine_weights)].0;
                let fam_idx = rng.weighted(&family_weights);
                let family = &self.mix.families[fam_idx].0;
                assert!(
                    !family.prompts.is_empty(),
                    "family {} is empty",
                    family.name
                );
                let (prompt, budget) = &family.prompts[rng.below(family.prompts.len())];
                let sampling = if rng.uniform() < self.mix.greedy_fraction {
                    Sampling::Greedy
                } else {
                    Sampling::Temperature {
                        temperature: rng.range_f32(self.mix.temperature.0, self.mix.temperature.1),
                        top_k: 0,
                    }
                };
                let cfg = DecodeConfig {
                    max_tokens: *budget,
                    sampling,
                    seed: rng.seed(),
                    ..self.mix.base.clone()
                };
                let deadline = self
                    .mix
                    .deadline_slack
                    .map(|slack| arrival + (slack * *budget as f64).ceil() as u64);
                let request = Request {
                    arrival,
                    deadline,
                    ..Request::new(
                        i as u64,
                        prompt.clone(),
                        engine.unwrap_or(drawn).clone(),
                        cfg,
                    )
                }
                .with_class(fam_idx as u32);
                (request, family.name.clone())
            })
            .unzip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> RequestMix {
        RequestMix {
            engines: vec![
                (EngineChoice::SyntaxAligned { tree: None }, 2.0),
                (EngineChoice::Ntp, 1.0),
            ],
            families: vec![
                (
                    PromptFamily {
                        name: "short".into(),
                        prompts: vec![(vec![1, 2], 6), (vec![3], 4)],
                    },
                    1.0,
                ),
                (
                    PromptFamily {
                        name: "long".into(),
                        prompts: vec![(vec![1, 2, 3, 4, 5], 12)],
                    },
                    1.0,
                ),
            ],
            greedy_fraction: 0.5,
            temperature: (0.4, 0.9),
            base: DecodeConfig::default(),
            deadline_slack: None,
        }
    }

    #[test]
    fn deadline_slack_assigns_absolute_deadlines() {
        let mut w = Workload {
            process: ArrivalProcess::Poisson { rate: 0.5 },
            mix: mix(),
            count: 20,
            seed: 3,
        };
        assert!(w.requests().iter().all(|r| r.deadline.is_none()));
        w.mix.deadline_slack = Some(2.0);
        let requests = w.requests();
        for r in &requests {
            assert_eq!(r.deadline, Some(r.arrival + 2 * r.cfg.max_tokens as u64));
        }
        // Forcing the engine keeps deadlines (equal-offered-load A/B).
        let forced = w.requests_with_engine(Some(&EngineChoice::Ntp));
        for (a, b) in requests.iter().zip(&forced) {
            assert_eq!(a.deadline, b.deadline);
        }
    }

    #[test]
    fn arrivals_are_sorted_and_deterministic() {
        for process in [
            ArrivalProcess::Poisson { rate: 0.3 },
            ArrivalProcess::OnOff {
                rate: 1.0,
                on_ticks: 5.0,
                off_ticks: 20.0,
            },
            ArrivalProcess::Ramp {
                start_rate: 0.05,
                end_rate: 1.0,
                ramp_ticks: 50.0,
            },
        ] {
            let a = process.arrival_ticks(64, 9);
            let b = process.arrival_ticks(64, 9);
            assert_eq!(a, b, "{} not deterministic", process.name());
            assert!(
                a.windows(2).all(|w| w[0] <= w[1]),
                "{} unsorted",
                process.name()
            );
            let c = process.arrival_ticks(64, 10);
            assert_ne!(a, c, "{} ignores its seed", process.name());
        }
    }

    #[test]
    fn poisson_rate_is_respected() {
        let n = 4000;
        let ticks = ArrivalProcess::Poisson { rate: 0.25 }.arrival_ticks(n, 5);
        let span = *ticks.last().expect("nonempty") as f64;
        let rate = n as f64 / span;
        assert!((rate - 0.25).abs() < 0.02, "empirical rate {rate}");
    }

    #[test]
    fn on_off_leaves_silent_windows() {
        let process = ArrivalProcess::OnOff {
            rate: 2.0,
            on_ticks: 10.0,
            off_ticks: 90.0,
        };
        let ticks = process.arrival_ticks(200, 11);
        // Off-windows of 90 ticks must show up as large gaps.
        let max_gap = ticks.windows(2).map(|w| w[1] - w[0]).max().expect("gaps");
        assert!(max_gap >= 80, "no burst gap found (max {max_gap})");
        assert!((process.offered_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn ramp_accelerates() {
        let ticks = ArrivalProcess::Ramp {
            start_rate: 0.02,
            end_rate: 1.0,
            ramp_ticks: 400.0,
        }
        .arrival_ticks(300, 13);
        // The second half of the arrivals spans far less time than the
        // first half.
        let mid = ticks[150] - ticks[0];
        let late = ticks[299] - ticks[150];
        assert!(late * 2 < mid, "ramp did not accelerate ({mid} vs {late})");
    }

    #[test]
    fn forced_engine_changes_nothing_but_the_engine() {
        let w = Workload {
            process: ArrivalProcess::Poisson { rate: 0.5 },
            mix: mix(),
            count: 40,
            seed: 77,
        };
        let free = w.requests();
        let forced = w.requests_with_engine(Some(&EngineChoice::Ntp));
        assert_eq!(free.len(), forced.len());
        let names = w.family_names();
        assert_eq!(names.len(), free.len());
        for (i, (a, b)) in free.iter().zip(&forced).enumerate() {
            let name = &names[i];
            assert_eq!(a.id, b.id);
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.prompt, b.prompt);
            assert_eq!(a.cfg.max_tokens, b.cfg.max_tokens);
            assert_eq!(a.cfg.sampling, b.cfg.sampling);
            assert_eq!(a.cfg.seed, b.cfg.seed);
            assert_eq!(b.engine, EngineChoice::Ntp);
            assert!(name == "short" || name == "long");
        }
        assert!(
            free.iter().any(|r| r.engine != EngineChoice::Ntp),
            "the free draw should use the menu"
        );
    }

    #[test]
    fn grammar_stress_cuts_mid_lexeme_and_stays_deterministic() {
        let fam = PromptFamily::grammar_stress("grammar", 40, 12, 7);
        assert_eq!(fam.prompts.len(), 40);
        let tok = BpeTokenizer::byte_level();
        let mut mid_expression = 0usize;
        let mut mid_statement = 0usize;
        for (prompt, budget) in &fam.prompts {
            assert_eq!(*budget, 12);
            let text = tok.decode(prompt);
            // Every prompt is a strict prefix of one embedded snippet,
            // severed where neither a statement nor the file ends.
            let snippet = GRAMMAR_SNIPPETS
                .iter()
                .find(|s| s.starts_with(&text))
                .expect("prompt is a snippet prefix");
            assert!(text.len() < snippet.len(), "prompt swallowed the snippet");
            assert!(text.starts_with("module "), "prompt lost its module head");
            let last = text.as_bytes()[text.len() - 1];
            let next = snippet.as_bytes()[text.len()];
            let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
            if ident(last) && ident(next) {
                mid_expression += 1;
            } else {
                assert_eq!(last, b' ', "cut is neither mid-lexeme nor mid-statement");
                mid_statement += 1;
            }
        }
        // The seeded coin actually exercises both cut classes.
        assert!(mid_expression > 0, "no mid-expression cuts drawn");
        assert!(mid_statement > 0, "no mid-statement cuts drawn");
        // Pure function of the seed.
        let again = PromptFamily::grammar_stress("grammar", 40, 12, 7);
        assert_eq!(fam.prompts, again.prompts);
        let other = PromptFamily::grammar_stress("grammar", 40, 12, 8);
        assert_ne!(fam.prompts, other.prompts);
    }

    #[test]
    fn zipf_stems_skews_hot_and_stays_deterministic() {
        let fam = PromptFamily::zipf_stems("zipf", 120, 4, 8, 3, 1.2, 6, 50, 42);
        assert_eq!(fam.prompts.len(), 120);
        assert!(fam
            .prompts
            .iter()
            .all(|(p, budget)| p.len() == 8 + 3 && *budget == 6));
        // Group prompts by their 8-token stem: few distinct stems, and
        // the hottest one dominates (Zipf exponent 1.2 over 4 ranks
        // puts ≈45% of mass on rank 1).
        let mut by_stem: std::collections::BTreeMap<&[TokenId], usize> =
            std::collections::BTreeMap::new();
        for (p, _) in &fam.prompts {
            *by_stem.entry(&p[..8]).or_default() += 1;
        }
        assert!(by_stem.len() <= 4, "more stems than requested");
        let hottest = by_stem.values().max().copied().expect("nonempty");
        assert!(
            hottest * 3 >= fam.prompts.len(),
            "no hot stem emerged ({hottest}/120)"
        );
        // Suffixes make prompts (near-)unique even within one stem.
        let distinct: std::collections::BTreeSet<&Vec<TokenId>> =
            fam.prompts.iter().map(|(p, _)| p).collect();
        assert!(distinct.len() > fam.prompts.len() / 2);
        // Pure function of the seed.
        let again = PromptFamily::zipf_stems("zipf", 120, 4, 8, 3, 1.2, 6, 50, 42);
        assert_eq!(fam.prompts, again.prompts);
        let other = PromptFamily::zipf_stems("zipf", 120, 4, 8, 3, 1.2, 6, 50, 43);
        assert_ne!(fam.prompts, other.prompts);
    }
}
