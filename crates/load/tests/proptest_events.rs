//! Property tests pinning the tracing layer's two contracts:
//!
//! 1. **Determinism** — for random open-loop workloads and scheduler
//!    configurations, the serialized event stream is byte-identical
//!    across repeated replays of the same workload, and a one-worker
//!    fleet's batch drive emits, beside its routing events, the very
//!    stream the hand-driven batch engine does.
//! 2. **Zero observer effect** — attaching a collecting sink changes
//!    nothing: every completion's tokens, tick schedule, and the
//!    aggregate [`ServeStats`] equal the default no-op-sink run's,
//!    bit for bit. And the [`MetricsRegistry`] folded from the event
//!    stream agrees with the engine's hand-counted stats wherever the
//!    two overlap, so the two views of a run can never diverge.

use proptest::prelude::*;
use verispec_core::DecodeConfig;
use verispec_grammar::GrammarOracle;
use verispec_lm::{GpuCostModel, MlpLm, MlpLmConfig, TokenId};
use verispec_load::{ArrivalProcess, PromptFamily, RequestMix, Workload};
use verispec_serve::{
    Backend, Drive, EngineChoice, FleetRuntime, Request, RoutePolicy, ServeConfig, ServeEngine,
    ServeReport, TickOrder,
};
use verispec_tokenizer::BpeTokenizer;
use verispec_trace::{log_to_json, EventLog, MetricsRegistry, TraceEvent};

/// The shared byte-level grammar oracle the random mixes' `GrammarTree`
/// requests prune against (built once — it is a pure function of the
/// byte-level tokenizer).
fn byte_oracle() -> &'static GrammarOracle {
    static ORACLE: std::sync::OnceLock<GrammarOracle> = std::sync::OnceLock::new();
    ORACLE.get_or_init(|| GrammarOracle::from_tokenizer(&BpeTokenizer::byte_level()))
}

fn any_mlp() -> impl Strategy<Value = MlpLm> {
    (14usize..28, 2usize..6, 2usize..5, 0usize..4, any::<u64>()).prop_map(
        |(vocab, d_emb, context, n_heads, seed)| {
            MlpLm::new(MlpLmConfig {
                vocab,
                d_emb,
                d_hidden: 2 * d_emb,
                context,
                n_heads,
                seed,
            })
        },
    )
}

fn any_process() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        (0.05f64..2.0).prop_map(|rate| ArrivalProcess::Poisson { rate }),
        (0.2f64..3.0, 2.0f64..8.0, 1.0f64..20.0).prop_map(|(rate, on, off)| {
            ArrivalProcess::OnOff {
                rate,
                on_ticks: on,
                off_ticks: off,
            }
        }),
    ]
}

fn full_mix(deadline_slack: Option<f64>) -> RequestMix {
    RequestMix {
        engines: vec![
            (EngineChoice::Ntp, 1.0),
            (EngineChoice::MedusaChain, 1.0),
            (EngineChoice::MedusaTree(vec![2, 2]), 1.0),
            (
                EngineChoice::SyntaxAligned {
                    tree: Some(vec![2, 2]),
                },
                1.0,
            ),
            (
                EngineChoice::GrammarTree {
                    tree: Some(vec![2, 2]),
                },
                1.0,
            ),
        ],
        families: vec![
            (
                PromptFamily {
                    name: "short".into(),
                    prompts: vec![(vec![5, 6, 7], 5), (vec![5, 6, 8], 8)],
                },
                2.0,
            ),
            (
                PromptFamily {
                    name: "long".into(),
                    prompts: vec![(vec![5, 6, 9, 4, 7], 14), (vec![5, 6, 4, 4, 8, 9], 12)],
                },
                1.0,
            ),
        ],
        greedy_fraction: 0.5,
        temperature: (0.4, 1.1),
        base: DecodeConfig::default(),
        deadline_slack,
    }
}

/// Batch-drives the requests through an engine riding the prefix
/// cache warmed with `stem`, capturing the event stream when `log` is
/// given (the no-op default otherwise).
fn batch_run(
    model: &MlpLm,
    stem: &[TokenId],
    cfg: &ServeConfig,
    requests: &[Request],
    cost: &GpuCostModel,
    log: Option<&EventLog>,
) -> ServeReport {
    let oracle = byte_oracle();
    let cfg = ServeConfig {
        prefix_cache: true,
        ..cfg.clone()
    };
    let mut engine = ServeEngine::new(model, cfg).with_grammar(oracle);
    engine.warm_prefix(stem);
    if let Some(log) = log {
        engine = engine.with_sink(log);
    }
    for req in requests {
        engine.submit(req.clone());
    }
    engine.run(cost)
}

/// Batch-drives the requests through a one-worker fleet, warmed
/// identically to [`batch_run`]; returns the worker's event stream —
/// the run's events minus the coordinator's routing decisions, which
/// the batch drive makes up front.
fn fleet_run(
    model: &MlpLm,
    stem: &[TokenId],
    cfg: &ServeConfig,
    requests: &[Request],
    cost: &GpuCostModel,
) -> Vec<TraceEvent> {
    let cfg = ServeConfig {
        prefix_cache: true,
        ..cfg.clone()
    };
    let run = FleetRuntime::new(model, cfg, 1, RoutePolicy::RoundRobin, Backend::Lockstep)
        .with_grammar(byte_oracle())
        .warm_prefix(stem)
        .with_tracing()
        .run(Drive::Batch(requests.to_vec()), cost);
    let routed = requests.len();
    assert!(run.events[..routed]
        .iter()
        .all(|ev| ev.kind.is_fleet_event()));
    run.events[routed..].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same workload, same config: byte-identical serialized event
    /// logs across repeated batch replays and across the hand-driven
    /// engine vs the one-worker fleet's batch drive.
    #[test]
    fn event_stream_is_deterministic_across_runs_and_drives(
        model in any_mlp(),
        process in any_process(),
        count in 1usize..8,
        seed in any::<u64>(),
        max_active in 1usize..5,
        max_batch in 1usize..4,
        session_cap in prop_oneof![Just(None), (1usize..5).prop_map(Some)],
        tick_capacity in prop_oneof![Just(None), (2usize..24).prop_map(Some)],
        deadline_slack in prop_oneof![Just(None), (1.0f64..6.0).prop_map(Some)],
    ) {
        let cost = GpuCostModel::codellama_like();
        let workload = Workload { process, mix: full_mix(deadline_slack), count, seed };
        let requests = workload.requests();

        let shared: Vec<TokenId> = vec![5, 6];

        let cfg = ServeConfig {
            max_active,
            max_batch,
            order: TickOrder::RoundRobin,
            session_cap,
            tick_capacity,
            ..Default::default()
        };

        let log_a = EventLog::new();
        batch_run(&model, &shared, &cfg, &requests, &cost, Some(&log_a));
        let log_b = EventLog::new();
        batch_run(&model, &shared, &cfg, &requests, &cost, Some(&log_b));
        let json_a = log_to_json(&log_a.into_events());
        prop_assert_eq!(
            &json_a,
            &log_to_json(&log_b.into_events()),
            "event stream not deterministic across identical batch replays"
        );

        let fleet = fleet_run(&model, &shared, &cfg, &requests, &cost);
        prop_assert_eq!(
            &json_a,
            &log_to_json(&fleet),
            "event stream diverged between the engine and the one-worker fleet"
        );
    }

    /// Attaching a collecting sink has zero observer effect (the
    /// no-op-sink run is the exact pre-tracing code path), and the
    /// registry folded from the captured stream agrees with the
    /// engine's hand-counted stats on every shared counter.
    #[test]
    fn collecting_sink_is_invisible_and_registry_matches_stats(
        model in any_mlp(),
        process in any_process(),
        count in 1usize..8,
        seed in any::<u64>(),
        max_active in 1usize..5,
        shed_depth in prop_oneof![Just(None), (1usize..4).prop_map(Some)],
        session_cap in prop_oneof![Just(None), (1usize..5).prop_map(Some)],
        tick_capacity in prop_oneof![Just(None), (2usize..24).prop_map(Some)],
        deadline_slack in prop_oneof![Just(None), (1.0f64..6.0).prop_map(Some)],
    ) {
        let cost = GpuCostModel::codellama_like();
        let workload = Workload { process, mix: full_mix(deadline_slack), count, seed };
        let requests = workload.requests();

        let shared: Vec<TokenId> = vec![5, 6];

        let cfg = ServeConfig {
            shed_depth,
            session_cap,
            tick_capacity,
            ..ServeConfig::concurrency(max_active)
        };

        let silent = batch_run(&model, &shared, &cfg, &requests, &cost, None);
        let log = EventLog::new();
        let traced = batch_run(&model, &shared, &cfg, &requests, &cost, Some(&log));
        let events: Vec<TraceEvent> = log.into_events();

        // Bit-identical run: tokens, schedules, shedding, counters.
        prop_assert_eq!(&silent.stats, &traced.stats, "sink changed the stats");
        prop_assert_eq!(&silent.shed, &traced.shed, "sink changed shedding");
        prop_assert_eq!(silent.completions.len(), traced.completions.len());
        for (a, b) in silent.completions.iter().zip(&traced.completions) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(
                &a.output.tokens, &b.output.tokens,
                "request {} tokens diverged under a collecting sink", a.id
            );
            prop_assert_eq!(&a.step_ticks, &b.step_ticks, "request {} schedule", a.id);
            prop_assert_eq!(a.finished, b.finished);
        }

        // Registry/stats consistency: one stream, two folds, same
        // numbers wherever they overlap.
        let reg = MetricsRegistry::from_events(&events);
        let s = &traced.stats;
        prop_assert_eq!(reg.counter("requests.finished") as usize, traced.completions.len());
        prop_assert_eq!(reg.counter("requests.shed") as usize, s.shed_requests);
        prop_assert_eq!(reg.counter("prefix.hits") as usize, s.prefix_hits);
        prop_assert_eq!(reg.counter("prefix.misses") as usize, s.prefix_misses);
        prop_assert_eq!(reg.counter("prefix.tokens_saved") as usize, s.prefix_tokens_saved);
        prop_assert_eq!(reg.counter("evictions.prefix") as usize, s.prefix_evictions);
        prop_assert_eq!(reg.counter("steps.deferred"), s.deferred_steps);
        prop_assert_eq!(reg.counter("ticks.idle_skipped"), s.idle_ticks_skipped);
        prop_assert_eq!(reg.counter("finished.tokens") as usize, s.served_tokens);
        prop_assert_eq!(reg.counter("finished.proposed") as usize, s.proposed_tokens);
        prop_assert_eq!(reg.counter("finished.accepted") as usize, s.accepted_tokens);
        prop_assert_eq!(reg.counter("grammar.considered") as usize, s.grammar_considered);
        prop_assert_eq!(reg.counter("grammar.pruned") as usize, s.grammar_pruned);
        prop_assert_eq!(reg.counter("grammar.surviving") as usize, s.grammar_surviving);
        prop_assert_eq!(
            s.grammar_considered,
            s.grammar_pruned + s.grammar_surviving,
            "grammar prune accounting drifted in the event stream"
        );
        prop_assert!(
            reg.counter("finished.accepted") <= reg.counter("finished.proposed"),
            "lifetime accepted exceeded proposed in the event stream"
        );
    }
}
