//! Trace-replay regression corpus: committed "interesting"
//! [`ArrivalTrace`] JSONs under `tests/traces/` — a tail-latency
//! blowup, a shed storm, eviction churn, EDF deadline pressure, a
//! grammar-stress mix of severed Verilog prompts, and three
//! production-failure fleet scenarios (a worker crash with recovery, a
//! whole-fleet crash storm riding backpressure, and a noisy-neighbor
//! multi-tenant mix under skewed weighted shares) — each replayed
//! against a pinned engine configuration and asserted
//! **bit-identical** to its committed golden summary
//! (`tests/traces/goldens.json`: completions, shed count, total
//! committed tokens, tick schedule length, deadlines met, prefix-cache
//! hits / misses / evictions, grammar prunes, and — for the failure
//! scenarios — the golden recovery counters: crashes, restarts,
//! migrations, replayed tokens, backpressure deferrals).
//!
//! The serving engine is a deterministic function of its requests, so
//! any diff here is a real behavior change: either an intended one
//! (regenerate the goldens and review the diff) or a regression this
//! corpus just caught. The traces themselves are artifacts, not
//! generated fixtures — the replay path reads only the committed
//! JSONs, never the workload generators, so generator changes cannot
//! silently rewrite what CI replays.
//!
//! Regenerate after an intended behavior change with:
//!
//! ```text
//! cargo test -p verispec-load --test trace_corpus -- --ignored regenerate
//! ```

use serde::{Deserialize, Serialize};
use verispec_core::DecodeConfig;
use verispec_grammar::GrammarOracle;
use verispec_lm::{GpuCostModel, MlpLm, MlpLmConfig, NgramLm, TokenId};
use verispec_load::{ArrivalProcess, ArrivalTrace, PromptFamily, RequestMix, Workload};
use verispec_serve::{
    Backend, Drive, EngineChoice, FaultPlan, FleetRuntime, RoutePolicy, ServeConfig, ServeEngine,
    ServeReport, TickOrder,
};
use verispec_tokenizer::BpeTokenizer;

/// The pinned model every trace replays against (pure seeded f32
/// math — identical on every machine).
fn model() -> MlpLm {
    MlpLm::new(MlpLmConfig {
        vocab: 16,
        d_emb: 6,
        d_hidden: 12,
        context: 4,
        n_heads: 3,
        seed: 0xC0FFEE,
    })
}

/// The pinned model the grammar-stress trace replays against: its
/// vocab covers the full byte-level tokenizer (261 ids) so the
/// grammar-stress family's encoded Verilog prompts are in range.
fn byte_model() -> MlpLm {
    MlpLm::new(MlpLmConfig {
        vocab: 261,
        d_emb: 6,
        d_hidden: 12,
        context: 4,
        n_heads: 3,
        seed: 0x6EA2_C0DE,
    })
}

/// The pinned draft model for `DraftVerify` entries.
fn draft() -> NgramLm {
    let mut lm = NgramLm::new(2, 16);
    let seq: Vec<TokenId> = (0..240).map(|i| 4 + (i % 7) as TokenId).collect();
    lm.train_sequence(&seq);
    lm
}

/// The shared prompt prefix of the corpus mixes (warmed into the prefix
/// cache in the eviction trace).
const SHARED_PREFIX: [TokenId; 2] = [5, 6];

/// One corpus case: the committed trace, the engine configuration it
/// replays under, and (for regeneration only) the workload that drew
/// it.
struct TraceCase {
    name: &'static str,
    cfg: ServeConfig,
    /// Replay with [`SHARED_PREFIX`] warmed into the prefix cache
    /// ([`ServeEngine::warm_prefix`]; the case's config enables it).
    warm_shared: bool,
    /// Replay against [`byte_model`] with the byte-level
    /// [`GrammarOracle`] attached (the grammar-stress case).
    grammar: bool,
    /// Replay through a [`FleetRuntime`] fleet of this many workers
    /// under this routing policy instead of a single engine (the
    /// production-failure cases). The replayed fault plan comes from
    /// the *committed trace*, not from here.
    fleet: Option<(usize, RoutePolicy)>,
    /// The failure scenario stamped into the trace at regeneration
    /// ([`ArrivalTrace::with_faults`]); replay reads it back from the
    /// committed JSON.
    faults: FaultPlan,
    workload: Workload,
}

fn corpus_mix(deadline_slack: Option<f64>) -> RequestMix {
    RequestMix {
        engines: vec![
            (EngineChoice::Ntp, 1.0),
            (EngineChoice::MedusaChain, 1.0),
            (EngineChoice::MedusaTree(vec![2, 2]), 1.0),
            (
                EngineChoice::SyntaxAligned {
                    tree: Some(vec![2, 2]),
                },
                2.0,
            ),
            (EngineChoice::DraftVerify { gamma: 3 }, 1.0),
        ],
        families: vec![
            (
                PromptFamily {
                    name: "short".into(),
                    prompts: vec![(vec![5, 6, 7], 6), (vec![5, 6, 8], 9)],
                },
                2.0,
            ),
            (
                PromptFamily {
                    name: "long".into(),
                    prompts: vec![(vec![5, 6, 9, 4, 7], 16), (vec![5, 6, 4, 4, 8, 9], 13)],
                },
                1.0,
            ),
        ],
        greedy_fraction: 0.5,
        temperature: (0.4, 1.0),
        base: DecodeConfig::default(),
        deadline_slack,
    }
}

fn corpus() -> Vec<TraceCase> {
    vec![
        // A 2x-overload Poisson burst against a 2-slot pool: queueing
        // dominates, the latency tail blows up — the canonical "did a
        // scheduling change move the tail?" regression probe.
        TraceCase {
            name: "tail_blowup",
            cfg: ServeConfig::concurrency(2),
            warm_shared: false,
            grammar: false,
            fleet: None,
            faults: FaultPlan::none(),
            workload: Workload {
                process: ArrivalProcess::Poisson { rate: 2.0 },
                mix: corpus_mix(None),
                count: 24,
                seed: 0x7A11_B10B,
            },
        },
        // On/off bursts into a single-slot pool with a shallow
        // ready-queue: admission control must shed the same newest
        // arrivals at the same ticks, every time.
        TraceCase {
            name: "shed_storm",
            cfg: ServeConfig {
                max_active: 1,
                max_batch: 1,
                shed_depth: Some(2),
                ..Default::default()
            },
            warm_shared: false,
            grammar: false,
            fleet: None,
            faults: FaultPlan::none(),
            workload: Workload {
                process: ArrivalProcess::OnOff {
                    rate: 3.0,
                    on_ticks: 4.0,
                    off_ticks: 30.0,
                },
                mix: corpus_mix(None),
                count: 20,
                seed: 0x5EED_5707,
            },
        },
        // Steady arrivals forking a warmed shared stem, whose cached
        // prompts overflow a tight session cap: the prefix cache's LRU
        // eviction / exact-replay path churns constantly and must never
        // change an output.
        TraceCase {
            name: "eviction_churn",
            cfg: ServeConfig {
                session_cap: Some(3),
                prefix_cache: true,
                ..ServeConfig::concurrency(2)
            },
            warm_shared: true,
            grammar: false,
            fleet: None,
            faults: FaultPlan::none(),
            workload: Workload {
                process: ArrivalProcess::Poisson { rate: 1.0 },
                mix: corpus_mix(None),
                count: 18,
                seed: 0xE71C_7C00,
            },
        },
        // Zipf-distributed shared stems against the radix-tree prefix
        // cache with paced ingestion and a tight session cap: hits,
        // misses, split-on-divergence, and cap-charged LRU eviction all
        // churn — and must never change an output or a tick stamp.
        TraceCase {
            name: "zipf_stems",
            cfg: ServeConfig {
                prefix_cache: true,
                ingest_rate: Some(3),
                session_cap: Some(5),
                ..ServeConfig::concurrency(2)
            },
            warm_shared: false,
            grammar: false,
            fleet: None,
            faults: FaultPlan::none(),
            workload: Workload {
                process: ArrivalProcess::Poisson { rate: 1.0 },
                mix: RequestMix {
                    families: vec![(
                        PromptFamily::zipf_stems("zipf", 16, 3, 6, 3, 1.1, 8, 16, 0x57E3),
                        1.0,
                    )],
                    ..corpus_mix(None)
                },
                count: 20,
                seed: 0x21F5_7E35,
            },
        },
        // Deadline-carrying ramp under a per-tick verify capacity with
        // EDF scheduling: deferred steps and deadline outcomes are the
        // regression surface.
        TraceCase {
            name: "edf_pressure",
            cfg: ServeConfig {
                order: TickOrder::Edf,
                tick_capacity: Some(10),
                ..ServeConfig::concurrency(2)
            },
            warm_shared: false,
            grammar: false,
            fleet: None,
            faults: FaultPlan::none(),
            workload: Workload {
                process: ArrivalProcess::Ramp {
                    start_rate: 0.2,
                    end_rate: 2.0,
                    ramp_ticks: 30.0,
                },
                mix: corpus_mix(Some(2.5)),
                count: 16,
                seed: 0xDEAD_11E5,
            },
        },
        // Verilog sources severed mid-expression / mid-statement,
        // served through the grammar-constrained engine next to its
        // unconstrained siblings: propose-time viability filtering and
        // dead-tail pruning churn on every step — and the prune
        // accounting, like every output, must replay bit-identically.
        TraceCase {
            name: "grammar_stress",
            cfg: ServeConfig::concurrency(2),
            warm_shared: false,
            grammar: true,
            fleet: None,
            faults: FaultPlan::none(),
            workload: Workload {
                process: ArrivalProcess::Poisson { rate: 1.0 },
                mix: RequestMix {
                    engines: vec![
                        (
                            EngineChoice::GrammarTree {
                                tree: Some(vec![2, 2]),
                            },
                            3.0,
                        ),
                        (
                            EngineChoice::SyntaxAligned {
                                tree: Some(vec![2, 2]),
                            },
                            1.0,
                        ),
                        (EngineChoice::Ntp, 1.0),
                    ],
                    families: vec![(PromptFamily::grammar_stress("grammar", 10, 12, 0x6AA5), 1.0)],
                    ..corpus_mix(None)
                },
                count: 14,
                seed: 0x6A3A_57E5,
            },
        },
        // One worker of a two-worker fleet crashes mid-run and later
        // restarts: in-flight and queued requests migrate to the
        // survivor and are rebuilt by exact replay — token-identical
        // to the fault-free run, which is exactly what the golden
        // pins.
        TraceCase {
            name: "worker_crash",
            cfg: ServeConfig::concurrency(2),
            warm_shared: false,
            grammar: false,
            fleet: Some((2, RoutePolicy::RoundRobin)),
            faults: FaultPlan::none().crash(6, 0).restart(18, 0),
            workload: Workload {
                process: ArrivalProcess::Poisson { rate: 1.0 },
                mix: corpus_mix(None),
                count: 20,
                seed: 0xC4A5_8EED,
            },
        },
        // Every worker crashes inside a short window: the fleet goes
        // dark, arrivals and migrants defer under backpressure, and
        // the restarts flush the deferred queue — deterministically,
        // with no request lost.
        TraceCase {
            name: "crash_storm",
            cfg: ServeConfig::concurrency(2),
            warm_shared: false,
            grammar: false,
            fleet: Some((2, RoutePolicy::JoinShortestQueue)),
            faults: FaultPlan::none()
                .crash(5, 0)
                .crash(6, 1)
                .restart(20, 0)
                .restart(21, 1),
            workload: Workload {
                process: ArrivalProcess::Poisson { rate: 1.5 },
                mix: corpus_mix(None),
                count: 20,
                seed: 0x5707_0C4A,
            },
        },
        // Two tenant classes under skewed weighted-fairness shares
        // (the family index is the tenant class): the favored tenant
        // gets 4x the service share, yet the starved-looking tenant
        // still completes every request — weighted fairness, not
        // starvation.
        TraceCase {
            name: "noisy_neighbor",
            cfg: ServeConfig::concurrency(2),
            warm_shared: false,
            grammar: false,
            fleet: Some((2, RoutePolicy::LeastLoaded)),
            faults: FaultPlan::none().share(0, 4).share(1, 1),
            workload: Workload {
                process: ArrivalProcess::Poisson { rate: 1.5 },
                mix: corpus_mix(None),
                count: 20,
                seed: 0x0153_EB0A,
            },
        },
    ]
}

/// The committed per-trace summary CI asserts against.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct GoldenSummary {
    trace: String,
    completions: usize,
    shed: usize,
    /// Total committed tokens across all completions.
    tokens: usize,
    /// Scheduler ticks of the replayed run.
    ticks: u64,
    deadlines_met: usize,
    /// Prefix-cache counters (all zero for cache-off cases).
    #[serde(default)]
    prefix_hits: usize,
    #[serde(default)]
    prefix_misses: usize,
    #[serde(default)]
    prefix_evictions: usize,
    /// Grammar-prune counters (all zero without an attached oracle).
    #[serde(default)]
    grammar_considered: usize,
    #[serde(default)]
    grammar_pruned: usize,
    #[serde(default)]
    grammar_surviving: usize,
    /// Fault-recovery counters (all zero for single-engine and
    /// fault-free cases) — the golden recovery summary of the
    /// production-failure traces.
    #[serde(default)]
    worker_crashes: usize,
    #[serde(default)]
    worker_restarts: usize,
    #[serde(default)]
    migrations: usize,
    #[serde(default)]
    replayed_tokens: usize,
    #[serde(default)]
    backpressure_deferrals: usize,
}

impl GoldenSummary {
    fn of(name: &str, report: &ServeReport) -> Self {
        GoldenSummary {
            trace: name.to_string(),
            completions: report.completions.len(),
            shed: report.shed.len(),
            tokens: report.stats.served_tokens,
            ticks: report.stats.ticks,
            deadlines_met: report
                .completions
                .iter()
                .filter(|c| c.met_deadline() == Some(true))
                .count(),
            prefix_hits: report.stats.prefix_hits,
            prefix_misses: report.stats.prefix_misses,
            prefix_evictions: report.stats.prefix_evictions,
            grammar_considered: report.stats.grammar_considered,
            grammar_pruned: report.stats.grammar_pruned,
            grammar_surviving: report.stats.grammar_surviving,
            worker_crashes: report.stats.crashes,
            worker_restarts: report.stats.restarts,
            migrations: report.stats.migrations,
            replayed_tokens: report.stats.replayed_tokens,
            backpressure_deferrals: report.stats.backpressure_deferrals,
        }
    }
}

fn traces_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/traces")
}

/// Replays a trace's requests under the case's pinned configuration —
/// through a single engine, or through a lockstep [`FleetRuntime`]
/// fleet under the trace's committed fault plan for the
/// production-failure cases.
fn replay(case: &TraceCase, trace: &ArrivalTrace) -> ServeReport {
    let m = if case.grammar { byte_model() } else { model() };
    let d = draft();
    let oracle = GrammarOracle::from_tokenizer(&BpeTokenizer::byte_level());
    let cost = GpuCostModel::codellama_like();
    if let Some((workers, route)) = &case.fleet {
        let rt = FleetRuntime::new(
            &m,
            case.cfg.clone(),
            *workers,
            route.clone(),
            Backend::Lockstep,
        )
        .with_draft(&d)
        .with_fault_plan(trace.faults.clone());
        let run = rt.run(Drive::Paced(trace.replay()), &cost);
        return ServeReport {
            completions: run.report.completions,
            shed: run.report.shed,
            stats: run.report.stats,
        };
    }
    let mut engine = ServeEngine::new(&m, case.cfg.clone()).with_draft(&d);
    if case.grammar {
        engine = engine.with_grammar(&oracle);
    }
    if case.warm_shared {
        assert!(engine.warm_prefix(&SHARED_PREFIX), "{}", case.name);
    }
    for req in trace.replay() {
        engine.submit(req);
    }
    engine.run(&cost)
}

/// Replays one committed trace twice and pins it against its golden
/// summary: the JSON round trip, run-to-run bit-identity, and the
/// golden match. Shared by the full-corpus sweep and the named
/// per-scenario CI steps.
fn replay_against_golden(case: &TraceCase, goldens: &[GoldenSummary]) {
    let dir = traces_dir();
    let body = std::fs::read_to_string(dir.join(format!("{}.json", case.name)))
        .unwrap_or_else(|e| panic!("trace {} is committed: {e}", case.name));
    let trace = ArrivalTrace::from_json(&body)
        .unwrap_or_else(|e| panic!("trace {} parses: {e}", case.name));

    // The JSON round trip itself is part of the guarantee.
    let rejson = trace.to_json().expect("re-serializes");
    assert_eq!(
        ArrivalTrace::from_json(&rejson).expect("re-parses"),
        trace,
        "{}: JSON round trip drifted",
        case.name
    );

    // Bit-identical replay: two runs of the same trace agree on
    // every token, tick stamp, and counter.
    let a = replay(case, &trace);
    let b = replay(case, &trace);
    assert_eq!(a.stats, b.stats, "{}: stats not deterministic", case.name);
    assert_eq!(a.shed, b.shed, "{}: shedding not deterministic", case.name);
    assert_eq!(a.completions.len(), b.completions.len());
    for (x, y) in a.completions.iter().zip(&b.completions) {
        assert_eq!(x.output.tokens, y.output.tokens, "{}: tokens", case.name);
        assert_eq!(x.step_ticks, y.step_ticks, "{}: schedule", case.name);
    }

    // And the run matches its committed golden summary.
    let golden = goldens
        .iter()
        .find(|g| g.trace == case.name)
        .unwrap_or_else(|| panic!("golden for {} missing", case.name));
    assert_eq!(
        &GoldenSummary::of(case.name, &a),
        golden,
        "{}: replay diverged from the committed golden — a behavior \
         change reached the serving path (regenerate goldens only if \
         intended)",
        case.name
    );
}

fn committed_goldens() -> Vec<GoldenSummary> {
    let goldens_body = std::fs::read_to_string(traces_dir().join("goldens.json"))
        .expect("tests/traces/goldens.json is committed");
    serde_json::from_str(&goldens_body).expect("goldens parse")
}

#[test]
fn committed_traces_replay_bit_identically_to_goldens() {
    let goldens = committed_goldens();
    let cases = corpus();
    assert_eq!(goldens.len(), cases.len(), "one golden per corpus trace");
    for case in &cases {
        replay_against_golden(case, &goldens);
    }
}

/// Replays one production-failure scenario by name against its golden
/// recovery summary — the body of the named per-scenario CI steps, so
/// a recovery-behavior diff fails under the scenario's own step name.
fn replay_fault_scenario(name: &str) {
    let cases = corpus();
    let case = cases
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("corpus case {name} missing"));
    assert!(
        case.fleet.is_some(),
        "{name} is expected to replay through the fleet runtime"
    );
    replay_against_golden(case, &committed_goldens());
}

#[test]
fn worker_crash_trace_replays_its_golden_recovery() {
    replay_fault_scenario("worker_crash");
}

#[test]
fn crash_storm_trace_replays_its_golden_recovery() {
    replay_fault_scenario("crash_storm");
}

#[test]
fn noisy_neighbor_trace_replays_its_golden_recovery() {
    replay_fault_scenario("noisy_neighbor");
}

/// The corpus stays interesting: each trace must keep exercising the
/// failure mode it was committed for.
#[test]
fn corpus_traces_exercise_their_failure_modes() {
    let dir = traces_dir();
    for case in corpus() {
        let body = std::fs::read_to_string(dir.join(format!("{}.json", case.name)))
            .expect("trace committed");
        let trace = ArrivalTrace::from_json(&body).expect("trace parses");
        let report = replay(&case, &trace);
        match case.name {
            "tail_blowup" => {
                // Overload means someone queues for a long time.
                let max_queue = report
                    .completions
                    .iter()
                    .map(|c| c.queue_ticks())
                    .max()
                    .expect("completions");
                assert!(max_queue >= 10, "tail trace lost its blowup ({max_queue})");
            }
            "shed_storm" => {
                assert!(
                    report.stats.shed_requests >= 3,
                    "storm trace stopped shedding ({})",
                    report.stats.shed_requests
                );
            }
            "eviction_churn" => {
                assert!(
                    report.stats.prefix_evictions >= 3,
                    "churn trace stopped evicting ({})",
                    report.stats.prefix_evictions
                );
            }
            "zipf_stems" => {
                assert!(
                    report.stats.prefix_hits >= 3,
                    "zipf trace stopped hitting the cache ({})",
                    report.stats.prefix_hits
                );
                assert!(
                    report.stats.prefix_misses >= 3,
                    "zipf trace stopped missing ({})",
                    report.stats.prefix_misses
                );
                assert!(
                    report.stats.prefix_evictions >= 3,
                    "zipf trace stopped evicting cached stems ({})",
                    report.stats.prefix_evictions
                );
            }
            "grammar_stress" => {
                assert!(
                    report.stats.grammar_considered > 0,
                    "grammar trace stopped reaching the grammar engine"
                );
                assert!(
                    report.stats.grammar_pruned > 0,
                    "grammar trace stopped pruning dead tails ({} considered, 0 pruned)",
                    report.stats.grammar_considered
                );
                assert_eq!(
                    report.stats.grammar_considered,
                    report.stats.grammar_pruned + report.stats.grammar_surviving,
                    "grammar prune accounting drifted"
                );
            }
            "edf_pressure" => {
                assert!(
                    report.stats.deferred_steps > 0,
                    "pressure trace stopped deferring"
                );
                assert!(
                    report.completions.iter().any(|c| c.deadline.is_some()),
                    "pressure trace lost its deadlines"
                );
            }
            "worker_crash" => {
                assert!(report.stats.crashes >= 1, "crash trace stopped crashing");
                assert!(report.stats.restarts >= 1, "crash trace stopped restarting");
                assert!(
                    report.stats.migrations >= 1,
                    "crash trace stopped migrating stranded requests ({})",
                    report.stats.migrations
                );
                assert_eq!(
                    report.completions.len() + report.shed.len(),
                    trace.entries.len(),
                    "crash trace lost requests across the recovery"
                );
            }
            "crash_storm" => {
                assert!(
                    report.stats.crashes >= 2,
                    "storm trace stopped killing the whole fleet ({})",
                    report.stats.crashes
                );
                assert!(
                    report.stats.backpressure_deferrals >= 1,
                    "storm trace stopped deferring under whole-fleet death ({})",
                    report.stats.backpressure_deferrals
                );
                assert_eq!(
                    report.completions.len() + report.shed.len(),
                    trace.entries.len(),
                    "storm trace lost requests across the outage"
                );
            }
            "noisy_neighbor" => {
                let classes: std::collections::BTreeSet<u32> =
                    trace.entries.iter().map(|e| e.class).collect();
                assert!(
                    classes.len() >= 2,
                    "neighbor trace lost its tenant mix ({classes:?})"
                );
                assert!(
                    !trace.faults.classes.is_empty(),
                    "neighbor trace lost its weighted shares"
                );
                // Weighted fairness, not starvation: every tenant's
                // requests — including the 1x-share neighbor's — all
                // complete.
                for class in classes {
                    let ids: Vec<u64> = trace
                        .entries
                        .iter()
                        .filter(|e| e.class == class)
                        .map(|e| e.id)
                        .collect();
                    assert!(
                        ids.iter()
                            .all(|id| report.completions.iter().any(|c| c.id == *id)),
                        "tenant class {class} was starved out"
                    );
                }
            }
            other => panic!("unknown corpus trace {other}"),
        }
    }
}

/// Rewrites the committed traces and goldens from the corpus
/// definitions and current engine behavior. Run only after an
/// *intended* behavior change, then review the diff:
///
/// ```text
/// cargo test -p verispec-load --test trace_corpus -- --ignored regenerate
/// ```
#[test]
#[ignore = "writes tests/traces/*.json; run explicitly to regenerate"]
fn regenerate() {
    let dir = traces_dir();
    std::fs::create_dir_all(&dir).expect("traces dir");
    let mut goldens = Vec::new();
    for case in corpus() {
        let requests = case.workload.requests();
        let trace = ArrivalTrace::record(&requests, case.workload.seed, &case.workload.mix.base)
            .with_faults(case.faults.clone());
        let json = trace.to_json().expect("trace serializes");
        std::fs::write(dir.join(format!("{}.json", case.name)), &json).expect("trace written");
        let report = replay(&case, &trace);
        goldens.push(GoldenSummary::of(case.name, &report));
    }
    let body = serde_json::to_string_pretty(&goldens).expect("goldens serialize");
    std::fs::write(dir.join("goldens.json"), body).expect("goldens written");
}
