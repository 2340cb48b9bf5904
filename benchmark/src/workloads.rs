//! The four workloads. Each is prepared once from the seed (part of
//! set-up) and then run as identical *passes*: every pass builds its
//! runtime fresh and does exactly the same work, so wall-clock metrics
//! are medians over passes and every count must repeat bit for bit.
//!
//! Every pass also serves the same inputs once with plain next-token
//! prediction. That reference leg is what `real_speedup` (wall clock)
//! and `sim_speedup` (`DecodeOutput.clock` under `GpuCostModel`) are
//! ratios against — the pair is the ROADMAP's honest speedup ledger,
//! stated for single-stream, fused-batch and fleet serving alike.

use crate::calib;
use crate::setup::Setup;
use crate::spans::Recorder;
use crate::stats::Digest;
use std::hint::black_box;
use std::time::Instant;
use verispec_core::{
    decode_grammar_speculative, decode_ntp, decode_speculative, DecodeConfig, DecodeOutput,
    TrainMethod,
};
use verispec_eval::pipeline::decode_method_of;
use verispec_eval::{
    generate, generate_grammar, load_families, rtllm_sim, stage_judge, token_budget, vgen_sim,
    Problem, SharedPrefixEncoder,
};
use verispec_lm::Sampling;
use verispec_load::{ArrivalProcess, PromptFamily, RequestMix, Workload};
use verispec_serve::{
    Backend, Completion, Drive, EngineChoice, FleetRun, FleetRuntime, Request, RoutePolicy,
    ServeConfig, TickOrder,
};
use verispec_verilog::fragment::defragmentize;

/// The workloads of `BENCHMARK.json`, in its order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    OfflineEval,
    ServeBatch,
    FleetShared,
    FleetUnique,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::OfflineEval,
        Kind::ServeBatch,
        Kind::FleetShared,
        Kind::FleetUnique,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::OfflineEval => "offline_eval",
            Kind::ServeBatch => "serve_batch",
            Kind::FleetShared => "fleet_shared",
            Kind::FleetUnique => "fleet_unique",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Request and problem counts; `smoke` divides them by ten.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub problems: usize,
    pub batch_requests: usize,
    pub fleet_requests: usize,
}

impl Size {
    pub const FULL: Size = Size {
        problems: 46,
        batch_requests: 48,
        fleet_requests: 240,
    };

    pub const SMOKE: Size = Size {
        problems: 5,
        batch_requests: 8,
        fleet_requests: 24,
    };
}

/// Tokens, wall seconds and simulated seconds of one leg of a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Leg {
    pub tokens: usize,
    pub wall_s: f64,
    pub sim_s: f64,
    pub steps: usize,
}

impl Leg {
    fn add(&mut self, out: &DecodeOutput, wall_s: f64) {
        self.tokens += out.tokens.len();
        self.wall_s += wall_s;
        self.sim_s += out.clock.seconds;
        self.steps += out.steps;
    }

    pub fn tok_s(&self) -> f64 {
        self.tokens as f64 / self.wall_s
    }

    pub fn sim_tok_s(&self) -> f64 {
        self.tokens as f64 / self.sim_s
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Everything the pass committed, over its whole wall time. Like
    /// every time in a pass, `wall_s` is corrected for machine speed
    /// (see `calib`); `raw_wall_s` is what the clock read and
    /// `slowdown` the mean factor between them.
    pub tokens: usize,
    pub wall_s: f64,
    pub raw_wall_s: f64,
    pub slowdown: f64,
    /// How far the speed readings around the pass disagreed
    /// (`calib::disagreement`). A serving pass is corrected as a whole,
    /// so one during which the machine changed speed is run but not
    /// counted; offline samples are corrected one by one, and read 0.
    pub unsteadiness: f64,
    /// The method under test: Ours-tree on `offline_eval`, the workload
    /// as specified on the serving workloads.
    pub method: Leg,
    /// The same inputs under plain next-token prediction.
    pub ntp: Leg,
    /// Per sample (encode → decode → clean → judge) or per request
    /// (seen → finished), milliseconds.
    pub lat_ms: Vec<f64>,
    /// Seen → first token. A sample is handed over whole, so on
    /// `offline_eval` this equals `lat_ms`.
    pub ttft_ms: Vec<f64>,
    /// Milliseconds per output token after the first.
    pub tpot_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub digest: Digest,
    /// Counts that must repeat exactly on every pass; the traced run
    /// reports them as per-layer metrics.
    pub counts: Vec<(&'static str, f64)>,
    /// Decode steps per offline engine, in `Engine::ALL` order.
    pub engine_steps: [usize; 4],
    /// Kept from serving passes for the checks and the traced run.
    pub run: Option<FleetRun>,
}

impl Pass {
    pub fn tok_s(&self) -> f64 {
        self.tokens as f64 / self.wall_s
    }

    pub fn real_speedup(&self) -> f64 {
        self.method.tok_s() / self.ntp.tok_s()
    }

    pub fn sim_speedup(&self) -> f64 {
        self.method.sim_tok_s() / self.ntp.sim_tok_s()
    }
}

/// A workload prepared from a seed.
pub enum Prepared {
    Offline(Offline),
    Serving(Serving),
}

impl Prepared {
    /// Generates the workload's inputs; timed as part of set-up.
    pub fn new(kind: Kind, setup: &Setup, seed: u64, size: Size) -> Prepared {
        match kind {
            Kind::OfflineEval => Prepared::Offline(Offline::new(setup, seed, size.problems)),
            Kind::ServeBatch => Prepared::Serving(Serving::batch(setup, seed, size.batch_requests)),
            Kind::FleetShared => {
                Prepared::Serving(Serving::fleet(setup, seed, size.fleet_requests, true))
            }
            Kind::FleetUnique => {
                Prepared::Serving(Serving::fleet(setup, seed, size.fleet_requests, false))
            }
        }
    }

    /// One untraced pass.
    pub fn pass(&self, setup: &Setup) -> Pass {
        match self {
            Prepared::Offline(w) => w.pass(setup),
            Prepared::Serving(w) => w.pass(setup, None),
        }
    }

    /// One traced pass: the same work with spans around every call into
    /// a layer (and `FleetRuntime::with_tracing` on).
    pub fn traced_pass(&self, setup: &Setup, rec: &mut Recorder) -> Pass {
        match self {
            Prepared::Offline(w) => w.traced_pass(setup, rec),
            Prepared::Serving(w) => w.pass(setup, Some(rec)),
        }
    }
}

// ---------------------------------------------------------------------
// offline_eval — the paper's Table I/II loop
// ---------------------------------------------------------------------

/// The four engines of the quality gate, all at tree `[2,2]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Ntp,
    Medusa,
    Ours,
    Grammar,
}

impl Engine {
    pub const ALL: [Engine; 4] = [Engine::Ntp, Engine::Medusa, Engine::Ours, Engine::Grammar];

    /// The training regime whose model and prompt style the engine uses.
    pub fn method(self) -> TrainMethod {
        match self {
            Engine::Ntp => TrainMethod::Ntp,
            Engine::Medusa => TrainMethod::Medusa,
            Engine::Ours | Engine::Grammar => TrainMethod::Ours,
        }
    }
}

const OFFLINE_TREE: [usize; 2] = [2, 2];
/// Close to greedy, for the reason `SERVE_TEMPERATURE` gives; real
/// end-of-sequence stays on, because these outputs are judged.
const OFFLINE_TEMPERATURES: [f32; 3] = [0.01, 0.03, 0.05];
const JUDGE_SEED: u64 = 0xBEEF;

struct Sample {
    problem: usize,
    engine: Engine,
    cfg: DecodeConfig,
}

pub struct Offline {
    problems: Vec<Problem>,
    samples: Vec<Sample>,
}

/// All 46 problems of both suites. The positive control and the text
/// probes run over these whatever the workload.
pub fn reference_problems() -> Vec<Problem> {
    let mut problems = rtllm_sim().problems;
    problems.extend(vgen_sim().problems);
    problems
}

/// Per-engine tallies of one offline pass.
#[derive(Debug, Clone, Copy, Default)]
struct EngineTally {
    leg: Leg,
    samples: usize,
    parsed: usize,
    passed: usize,
    speculated: usize,
    accepted: usize,
}

impl Offline {
    fn new(setup: &Setup, seed: u64, n_problems: usize) -> Offline {
        let problems = reference_problems();
        // Smoke runs keep a spread over both suites, not a prefix.
        let stride = problems.len().div_ceil(n_problems.max(1));
        let problems: Vec<Problem> = problems.into_iter().step_by(stride.max(1)).collect();
        let mut samples = Vec::new();
        for (p, problem) in problems.iter().enumerate() {
            for engine in Engine::ALL {
                let n = samples.len() as u64;
                samples.push(Sample {
                    problem: p,
                    engine,
                    cfg: DecodeConfig {
                        max_tokens: token_budget(&setup.pipe.tokenizer, problem, engine.method()),
                        sampling: Sampling::Temperature {
                            // The temperature cycles with the problem, so
                            // one pass covers all three.
                            temperature: OFFLINE_TEMPERATURES[p % OFFLINE_TEMPERATURES.len()],
                            top_k: 0,
                        },
                        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(n),
                        tree: Some(OFFLINE_TREE.to_vec()),
                        ..Default::default()
                    },
                });
            }
        }
        Offline { problems, samples }
    }

    fn pass(&self, setup: &Setup) -> Pass {
        let tok = &setup.pipe.tokenizer;
        self.run(|_, s, problem| {
            let g = if s.engine == Engine::Grammar {
                generate_grammar(
                    &setup.ours,
                    tok,
                    &setup.oracle,
                    problem,
                    &s.cfg,
                    &setup.cost,
                )
            } else {
                let method = s.engine.method();
                generate(
                    setup.model(method),
                    tok,
                    problem,
                    method,
                    &s.cfg,
                    &setup.cost,
                )
            };
            let stages = stage_judge(&g.code, problem, JUDGE_SEED);
            (g.output, stages.parsed, stages.passed)
        })
    }

    /// The same samples through the pieces `generate` is made of, one
    /// span each, so the per-sample span tree sums back to the untraced
    /// per-sample latency.
    fn traced_pass(&self, setup: &Setup, rec: &mut Recorder) -> Pass {
        let tok = &setup.pipe.tokenizer;
        self.run(|i, s, problem| {
            let id = Some(i as u64);
            rec.span("offline.sample", id, |rec| {
                let method = s.engine.method();
                let text = match method {
                    TrainMethod::Ours => problem.prompt_tagged(),
                    _ => problem.prompt_plain(),
                };
                let prompt = rec.span("tokenizer.encode", id, |_| tok.encode(&text));
                let output = rec.span(DECODE_SPANS[s.engine as usize], id, |_| {
                    if s.engine == Engine::Grammar {
                        decode_grammar_speculative(
                            &setup.ours,
                            &setup.oracle,
                            &prompt,
                            &s.cfg,
                            &setup.cost,
                        )
                    } else {
                        decode_method_of(method).decode(
                            setup.model(method),
                            &prompt,
                            &s.cfg,
                            &setup.cost,
                        )
                    }
                });
                let ids = output.tokens_without_eos();
                let text = rec.span("tokenizer.decode", id, |_| tok.decode(&ids));
                let code = rec.span("verilog.defragmentize", id, |_| {
                    defragmentize(&text)
                        .replace("[PAD]", "")
                        .replace("[BOS]", "")
                        .replace("[IGNORE]", "")
                });
                let stages = rec.span("eval.judge", id, |_| {
                    stage_judge(&code, problem, JUDGE_SEED)
                });
                (output, stages.parsed, stages.passed)
            })
        })
    }

    /// The loop both passes share: times each sample, tallies per
    /// engine, and folds the outputs into the digest.
    fn run(
        &self,
        mut sample: impl FnMut(usize, &Sample, &Problem) -> (DecodeOutput, bool, bool),
    ) -> Pass {
        let mut tallies = [EngineTally::default(); 4];
        let mut pass = Pass::default();
        // One kernel run between every two samples: each sample is
        // corrected by the speed readings on either side of it.
        let mut before = calib::slice();
        let mut kernel_s = 0.0;
        for (i, s) in self.samples.iter().enumerate() {
            let t = Instant::now();
            let (output, parsed, passed) = sample(i, s, &self.problems[s.problem]);
            let raw_s = t.elapsed().as_secs_f64();
            let after = calib::slice();
            let wall_s = raw_s * calib::NOMINAL_S / ((before + after) / 2.0);
            kernel_s += after;
            before = after;
            pass.raw_wall_s += raw_s;
            pass.wall_s += wall_s;
            let tally = &mut tallies[s.engine as usize];
            tally.leg.add(&output, wall_s);
            tally.samples += 1;
            tally.parsed += parsed as usize;
            tally.passed += passed as usize;
            tally.speculated += output.trace.iter().map(|t| t.speculated).sum::<usize>();
            tally.accepted += output.tokens.len().saturating_sub(output.steps);
            pass.lat_ms.push(wall_s * 1e3);
            pass.tpot_ms
                .push(wall_s * 1e3 / output.tokens.len().max(1) as f64);
            pass.digest.output(i as u64, &output.tokens);
        }
        pass.slowdown = kernel_s / self.samples.len().max(1) as f64 / calib::NOMINAL_S;
        pass.tokens = tallies.iter().map(|t| t.leg.tokens).sum();
        pass.method = tallies[Engine::Ours as usize].leg;
        pass.ntp = tallies[Engine::Ntp as usize].leg;
        pass.ttft_ms = pass.lat_ms.clone();
        pass.attempted = self.samples.len();
        pass.counts = offline_counts(&tallies);
        pass.engine_steps = tallies.map(|t| t.leg.steps);
        pass
    }
}

pub const DECODE_SPANS: [&str; 4] = [
    "core.decode.ntp",
    "core.decode.medusa",
    "core.decode.ours",
    "core.decode.grammar",
];

fn offline_counts(tallies: &[EngineTally; 4]) -> Vec<(&'static str, f64)> {
    let total = |f: fn(&EngineTally) -> usize| tallies.iter().map(f).sum::<usize>() as f64;
    let samples = total(|t| t.samples);
    let per_step = |e: Engine| {
        let leg = tallies[e as usize].leg;
        leg.tokens as f64 / leg.steps.max(1) as f64
    };
    let accept = |e: Engine| {
        let t = tallies[e as usize];
        t.accepted as f64 / t.speculated.max(1) as f64
    };
    vec![
        ("eval.parse_rate", total(|t| t.parsed) / samples),
        ("eval.sim_pass_rate", total(|t| t.passed) / samples),
        ("core.tok_per_step.ntp", per_step(Engine::Ntp)),
        ("core.tok_per_step.medusa", per_step(Engine::Medusa)),
        ("core.tok_per_step.ours", per_step(Engine::Ours)),
        ("core.tok_per_step.grammar", per_step(Engine::Grammar)),
        ("core.accept_rate.medusa", accept(Engine::Medusa)),
        ("core.accept_rate.ours", accept(Engine::Ours)),
        ("core.accept_rate.grammar", accept(Engine::Grammar)),
    ]
}

// ---------------------------------------------------------------------
// serve_batch, fleet_shared, fleet_unique — FleetRuntime
// ---------------------------------------------------------------------

const SERVE_TREE: [usize; 3] = [2, 2, 1];

fn ours_tree() -> EngineChoice {
    EngineChoice::SyntaxAligned {
        tree: Some(SERVE_TREE.to_vec()),
    }
}

pub struct Serving {
    pub cfg: ServeConfig,
    pub workers: usize,
    pub route: RoutePolicy,
    /// `Drive::Paced` (open loop in tick space) or `Drive::Batch`.
    pub paced: bool,
    pub requests: Vec<Request>,
    /// The same requests with the engine forced to next-token prediction.
    pub ntp_requests: Vec<Request>,
}

/// splitmix64: the harness's own generator, for the fixed shuffle of
/// the prompt pool and for spreading `--seed` over the requests.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// Seeds the generators that shape a serving workload — which prompt,
/// which arrival tick, which requests sample and how hot. It is a
/// constant: `--seed` reaches only the requests' sampling seeds (see
/// README.md, "What the seed does").
const SHAPE_SEED: u64 = 0x5EED;

/// Sampled requests stay close to greedy, so that a different seed
/// perturbs which candidates are accepted without rescheduling the
/// whole fleet.
const SERVE_TEMPERATURE: (f32, f32) = (0.01, 0.05);

/// Arrival rate of the fleet workloads, requests per tick.
const FLEET_RATE: f64 = 0.05;

/// Longest generation in `serve_batch`.
const BATCH_BUDGET_CAP: usize = 96;

/// Serving requests run to their full budget, as serving benchmarks'
/// `ignore_eos` does: the end-of-sequence token is one that cannot
/// occur, so the seed never changes how many tokens a request makes.
fn base_config() -> DecodeConfig {
    DecodeConfig {
        eos: u32::MAX,
        ..Default::default()
    }
}

impl Serving {
    /// Closed loop: every request present at tick 0, one worker, the
    /// fused `multi_logits_many` / `verify_many` path at concurrency 16.
    ///
    /// `Workload::requests` decides which requests sample and how hot;
    /// prompts and engines are then dealt out evenly — the shuffled
    /// prompt pool in order, the four engines in turn — so every engine
    /// gets the same share of short and long prompts.
    fn batch(setup: &Setup, seed: u64, count: usize) -> Serving {
        let enc = SharedPrefixEncoder::new(&setup.pipe.tokenizer);
        let engines = [
            ours_tree(),
            EngineChoice::MedusaTree(vec![3, 2]),
            EngineChoice::Ntp,
            EngineChoice::GrammarTree {
                tree: Some(SERVE_TREE.to_vec()),
            },
        ];
        let families = load_families(&setup.pipe, &enc, 64);
        let mut pool: Vec<(Vec<u32>, usize)> = families
            .iter()
            .flat_map(|(f, _)| f.prompts.iter().cloned())
            .collect();
        SplitMix(SHAPE_SEED).shuffle(&mut pool);
        let mut requests = Workload {
            process: ArrivalProcess::Poisson { rate: 1.0 },
            mix: RequestMix {
                engines: engines.iter().cloned().map(|e| (e, 1.0)).collect(),
                families,
                greedy_fraction: 0.5,
                temperature: SERVE_TEMPERATURE,
                base: base_config(),
                deadline_slack: None,
            },
            count,
            seed: SHAPE_SEED,
        }
        .requests();
        for (i, r) in requests.iter_mut().enumerate() {
            let (prompt, budget) = &pool[i % pool.len()];
            r.arrival = 0;
            r.prompt = prompt.clone();
            r.cfg.max_tokens = (*budget).min(BATCH_BUDGET_CAP);
            r.engine = engines[i % engines.len()].clone();
        }
        Serving::new(
            ServeConfig::concurrency(16),
            1,
            RoutePolicy::RoundRobin,
            false,
            requests,
            seed,
        )
    }

    /// Open loop in tick space: Poisson arrivals routed exactly when
    /// the fleet clock reaches their tick, so generator lateness is 0
    /// by construction. `shared` picks the prompt family and nothing
    /// else: eight hot stems, Zipf-skewed, with short unique suffixes
    /// (the prefix cache's read path), or as many short stems as there
    /// are prompts, drawn evenly, with long suffixes (miss → insert →
    /// evict churn and full-prompt prefill).
    fn fleet(setup: &Setup, seed: u64, count: usize, shared: bool) -> Serving {
        let (n_stems, stem_len, suffix_len, exponent) = if shared {
            (8, 48, 8, 1.2)
        } else {
            (count, 8, 48, 0.0)
        };
        let family = PromptFamily::zipf_stems(
            if shared { "shared" } else { "unique" },
            count,
            n_stems,
            stem_len,
            suffix_len,
            exponent,
            32,
            setup.pipe.tokenizer.vocab_size() as u32,
            SHAPE_SEED ^ 0x21F5,
        );
        let requests = Workload {
            process: ArrivalProcess::Poisson { rate: FLEET_RATE },
            mix: RequestMix {
                engines: vec![(ours_tree(), 1.0)],
                families: vec![(family, 1.0)],
                greedy_fraction: 0.5,
                temperature: SERVE_TEMPERATURE,
                base: base_config(),
                deadline_slack: Some(4.0),
            },
            count,
            seed: SHAPE_SEED,
        }
        .requests();
        Serving::new(
            ServeConfig {
                prefix_cache: true,
                ingest_rate: Some(8),
                session_cap: Some(32),
                order: TickOrder::Edf,
                tick_capacity: Some(24),
                shed_depth: Some(32),
                ..ServeConfig::concurrency(8)
            },
            2,
            RoutePolicy::PrefixAffine,
            true,
            requests,
            seed,
        )
    }

    fn new(
        cfg: ServeConfig,
        workers: usize,
        route: RoutePolicy,
        paced: bool,
        mut requests: Vec<Request>,
        seed: u64,
    ) -> Serving {
        let mut sampling = SplitMix(seed);
        for r in &mut requests {
            r.cfg.seed = sampling.next();
        }
        let ntp_requests = requests
            .iter()
            .cloned()
            .map(|mut r| {
                r.engine = EngineChoice::Ntp;
                r
            })
            .collect();
        Serving {
            cfg,
            workers,
            route,
            paced,
            requests,
            ntp_requests,
        }
    }

    /// Builds a fresh runtime and drives `requests` through it.
    pub fn drive(
        &self,
        setup: &Setup,
        requests: &[Request],
        cfg: &ServeConfig,
        backend: Backend,
        traced: bool,
    ) -> FleetRun {
        let mut runtime = FleetRuntime::new(
            &setup.ours,
            cfg.clone(),
            self.workers,
            self.route.clone(),
            backend,
        )
        .with_grammar(&setup.oracle);
        if traced {
            runtime = runtime.with_tracing();
        }
        let requests = requests.to_vec();
        let drive = if self.paced {
            Drive::Paced(requests)
        } else {
            Drive::Batch(requests)
        };
        black_box(runtime.run(drive, &setup.cost))
    }

    /// One timed leg on the lockstep backend: the run, its raw seconds
    /// and the machine slowdown measured around it.
    ///
    /// Timed passes are single-threaded on purpose. Two worker threads
    /// and a coordinator on this sandbox's two virtual cores swing by
    /// ±20 % from pass to pass with nothing to correct them by, so the
    /// threaded backend is held to the lockstep schedule by a check
    /// and measured as a per-layer ratio (`serve.threaded.speedup`),
    /// and the end-to-end clocks read the same schedule on one core.
    fn leg(&self, setup: &Setup, requests: &[Request], traced: bool) -> (FleetRun, f64, [f64; 2]) {
        calib::timed(|| self.drive(setup, requests, &self.cfg, Backend::Lockstep, traced))
    }

    fn pass(&self, setup: &Setup, rec: Option<&mut Recorder>) -> Pass {
        let ((run, raw_s, read), (ntp_run, ntp_raw_s, ntp_read)) = match rec {
            Some(rec) => (
                rec.span("serve.fleet.run", None, |_| {
                    self.leg(setup, &self.requests, true)
                }),
                rec.span("serve.fleet.run_ntp", None, |_| {
                    self.leg(setup, &self.ntp_requests, false)
                }),
            ),
            None => (
                self.leg(setup, &self.requests, false),
                self.leg(setup, &self.ntp_requests, false),
            ),
        };
        let slow = (read[0] + read[1]) / 2.0;
        let ntp_slow = (ntp_read[0] + ntp_read[1]) / 2.0;
        let mut pass = Pass {
            wall_s: raw_s / slow,
            raw_wall_s: raw_s,
            slowdown: slow,
            unsteadiness: calib::disagreement(&[read[0], read[1], ntp_read[0], ntp_read[1]]),
            method: leg_of(&run.report.completions, raw_s / slow),
            ntp: leg_of(&ntp_run.report.completions, ntp_raw_s / ntp_slow),
            attempted: self.requests.len(),
            ..Pass::default()
        };
        pass.tokens = pass.method.tokens;
        let ms = 1e3 / slow;
        for c in &run.report.completions {
            pass.digest.output(c.id, &c.output.tokens);
            pass.lat_ms.push((c.finished_secs - c.seen_secs) * ms);
            if let Some(first) = c.first_token_secs {
                pass.ttft_ms.push((first - c.seen_secs) * ms);
                let after_first = c.output.tokens.len().saturating_sub(1);
                if after_first > 0 {
                    pass.tpot_ms
                        .push((c.finished_secs - first) * ms / after_first as f64);
                }
            }
        }
        // Shed requests and requests that vanished both failed; so did
        // any the reference leg could not serve.
        let lost = |run: &FleetRun| self.requests.len() - run.report.completions.len();
        pass.failed = lost(&run) + lost(&ntp_run);
        pass.counts = serving_counts(&run, &self.requests);
        pass.run = Some(run);
        pass
    }

    /// Re-decodes a fixed 5 % of the served requests serially and
    /// counts those whose tokens differ from what the fleet returned.
    pub fn serial_mismatches(&self, setup: &Setup, run: &FleetRun) -> (usize, usize) {
        let mut checked = 0;
        let mut mismatched = 0;
        for r in self.requests.iter().filter(|r| r.id % 20 == 0) {
            let Some(c) = run.report.completions.iter().find(|c| c.id == r.id) else {
                continue;
            };
            let cfg = r.engine.decode_config(&r.cfg);
            let serial = match r.engine {
                EngineChoice::Ntp => decode_ntp(&setup.ours, &r.prompt, &cfg, &setup.cost),
                EngineChoice::GrammarTree { .. } => decode_grammar_speculative(
                    &setup.ours,
                    &setup.oracle,
                    &r.prompt,
                    &cfg,
                    &setup.cost,
                ),
                _ => decode_speculative(&setup.ours, &r.prompt, &cfg, &setup.cost),
            };
            checked += 1;
            mismatched += (serial.tokens != c.output.tokens) as usize;
        }
        (checked, mismatched)
    }
}

fn leg_of(completions: &[Completion], wall_s: f64) -> Leg {
    let mut leg = Leg::default();
    for c in completions {
        leg.add(&c.output, 0.0);
    }
    leg.wall_s = wall_s;
    leg
}

/// Tick-space results and `ServeStats` counters of a serving pass —
/// every one a pure function of the inputs.
fn serving_counts(run: &FleetRun, requests: &[Request]) -> Vec<(&'static str, f64)> {
    let report = &run.report;
    let stats = &report.stats;
    let mut queue: Vec<f64> = Vec::new();
    let mut ttft: Vec<f64> = Vec::new();
    for c in &report.completions {
        queue.push(c.queue_ticks() as f64);
        if let Some(first) = c.first_token_tick() {
            ttft.push(first.saturating_sub(c.submitted) as f64);
        }
    }
    queue.sort_by(f64::total_cmp);
    ttft.sort_by(f64::total_cmp);
    let p99 = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            crate::stats::percentile(v, 99.0)
        }
    };
    let deadlines = requests.iter().filter(|r| r.deadline.is_some()).count();
    let met = report
        .completions
        .iter()
        .filter(|c| c.met_deadline() == Some(true))
        .count();
    let lookups = stats.prefix_hits + stats.prefix_misses;
    let worker_tokens: Vec<f64> = report
        .per_worker
        .iter()
        .map(|w| w.served_tokens as f64)
        .collect();
    let mean_tokens = worker_tokens.iter().sum::<f64>() / worker_tokens.len().max(1) as f64;
    let max_tokens = worker_tokens.iter().copied().fold(0.0, f64::max);
    let ratio = |n: f64, d: f64| if d == 0.0 { 0.0 } else { n / d };
    vec![
        (
            "serve.tok_per_tick",
            ratio(report.total_tokens() as f64, stats.ticks as f64),
        ),
        ("serve.ttft_p99_ticks", p99(&ttft)),
        ("serve.slo_attain", ratio(met as f64, deadlines as f64)),
        ("serve.scheduler.queue_ticks_p99", p99(&queue)),
        (
            "serve.scheduler.deferred_steps",
            stats.deferred_steps as f64,
        ),
        ("serve.scheduler.preemptions", stats.preemptions as f64),
        ("serve.scheduler.shed", stats.shed_requests as f64),
        (
            "serve.engine.fused_verify_nodes",
            stats.fused_verify_nodes as f64,
        ),
        (
            "serve.prefix.hit_rate",
            ratio(stats.prefix_hits as f64, lookups as f64),
        ),
        (
            "serve.prefix.tokens_saved",
            stats.prefix_tokens_saved as f64,
        ),
        ("serve.prefix.evictions", stats.prefix_evictions as f64),
        (
            "serve.dispatch.worker_imbalance",
            ratio(max_tokens, mean_tokens),
        ),
        (
            "serve.runtime.idle_ticks_skipped",
            stats.idle_ticks_skipped as f64,
        ),
        ("grammar.considered", stats.grammar_considered as f64),
        ("grammar.pruned", stats.grammar_pruned as f64),
    ]
}
