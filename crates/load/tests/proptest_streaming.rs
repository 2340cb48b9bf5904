//! Property tests pinning the streaming-admission invariant: for
//! random open-loop workloads (arrival process, rates, request mixes
//! over every engine), random scheduler configurations, random session
//! caps (eviction pressure), and prefix-forked admissions, serving the
//! workload as it streams in — each request routed when its arrival
//! tick falls due ([`Drive::Paced`]) — produces **token-for-token** the
//! same per-request outputs as batch submission to a hand-driven engine,
//! and the same tick schedule (admissions, commit ticks, completion
//! ticks) as well.

use proptest::prelude::*;
use verispec_core::DecodeConfig;
use verispec_lm::{GpuCostModel, MlpLm, MlpLmConfig, TokenId};
use verispec_load::{ArrivalProcess, PromptFamily, RequestMix, Workload};
use verispec_serve::{
    Backend, Drive, EngineChoice, FleetRuntime, Request, RoutePolicy, ServeConfig, ServeEngine,
    ServeReport, TickOrder,
};

fn any_mlp() -> impl Strategy<Value = MlpLm> {
    (14usize..32, 2usize..8, 2usize..6, 0usize..5, any::<u64>()).prop_map(
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
        (0.02f64..0.5, 0.5f64..3.0, 5.0f64..40.0).prop_map(|(a, b, d)| ArrivalProcess::Ramp {
            start_rate: a,
            end_rate: b,
            ramp_ticks: d,
        }),
    ]
}

fn any_order() -> impl Strategy<Value = TickOrder> {
    prop_oneof![
        Just(TickOrder::RoundRobin),
        any::<u64>().prop_map(TickOrder::Seeded),
        Just(TickOrder::Edf),
    ]
}

/// The standard mix: every engine on the menu, two prompt families
/// sharing the `[5, 6]` prefix the tests fork from.
fn full_mix() -> RequestMix {
    RequestMix {
        engines: vec![
            (EngineChoice::Ntp, 1.0),
            (EngineChoice::MedusaChain, 1.0),
            (EngineChoice::MedusaTree(vec![2, 2]), 1.0),
            (EngineChoice::SyntaxAligned { tree: None }, 1.0),
            (
                EngineChoice::SyntaxAligned {
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
                    prompts: vec![(vec![5, 6, 9, 4, 7], 16), (vec![5, 6, 4, 4, 8, 9], 12)],
                },
                1.0,
            ),
        ],
        greedy_fraction: 0.5,
        temperature: (0.4, 1.1),
        base: DecodeConfig::default(),
        deadline_slack: None,
    }
}

/// Builds an engine riding the radix-tree prefix cache, pre-warmed
/// with the shared stem — applied identically to the batch and
/// paced sides so the parity assertions compare like with like.
fn engine_for<'m>(model: &'m MlpLm, stem: &[TokenId], cfg: &ServeConfig) -> ServeEngine<'m> {
    let cfg = ServeConfig {
        prefix_cache: true,
        ..cfg.clone()
    };
    let mut engine = ServeEngine::new(model, cfg);
    engine.warm_prefix(stem);
    engine
}

/// The one-worker lockstep fleet — the single engine, as a fleet —
/// riding the prefix cache warmed with the same stem as
/// [`engine_for`]'s engine.
fn single_for<'m>(model: &'m MlpLm, stem: &[TokenId], cfg: &ServeConfig) -> FleetRuntime<'m> {
    let cfg = ServeConfig {
        prefix_cache: true,
        ..cfg.clone()
    };
    FleetRuntime::new(model, cfg, 1, RoutePolicy::RoundRobin, Backend::Lockstep).warm_prefix(stem)
}

fn batch_run(
    model: &MlpLm,
    stem: &[TokenId],
    cfg: &ServeConfig,
    requests: &[Request],
    cost: &GpuCostModel,
) -> ServeReport {
    let mut engine = engine_for(model, stem, cfg);
    for req in requests {
        engine.submit(req.clone());
    }
    engine.run(cost)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// Paced arrivals == batch submission, tick for tick.
    #[test]
    fn streaming_equals_batch_schedule_and_outputs(
        model in any_mlp(),
        process in any_process(),
        count in 1usize..8,
        seed in any::<u64>(),
        max_active in 1usize..5,
        max_batch in 1usize..4,
        order in any_order(),
        session_cap in prop_oneof![Just(None), (1usize..5).prop_map(Some)],
        tick_capacity in prop_oneof![Just(None), (2usize..24).prop_map(Some)],
        deadline_slack in prop_oneof![Just(None), (1.0f64..6.0).prop_map(Some)],
    ) {
        let cost = GpuCostModel::codellama_like();
        let mut mix = full_mix();
        mix.deadline_slack = deadline_slack;
        let workload = Workload { process, mix, count, seed };
        let requests = workload.requests();

        let shared: Vec<TokenId> = vec![5, 6];

        let cfg = ServeConfig {
            max_active,
            max_batch,
            order,
            session_cap,
            tick_capacity,
            ..Default::default()
        };
        let batch = batch_run(&model, &shared, &cfg, &requests, &cost);

        let paced = single_for(&model, &shared, &cfg)
            .run(Drive::Paced(requests.clone()), &cost)
            .report;

        prop_assert_eq!(batch.completions.len(), requests.len());
        prop_assert_eq!(paced.completions.len(), requests.len());
        for (a, b) in batch.completions.iter().zip(&paced.completions) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(
                &a.output.tokens, &b.output.tokens,
                "request {} tokens diverged between batch and paced", a.id
            );
            prop_assert_eq!(a.output.steps, b.output.steps);
            prop_assert_eq!(&a.output.trace, &b.output.trace);
            prop_assert_eq!(a.submitted, b.submitted);
            prop_assert_eq!(a.admitted, b.admitted, "request {} admission tick", a.id);
            prop_assert_eq!(a.finished, b.finished);
            prop_assert_eq!(&a.step_ticks, &b.step_ticks, "request {} commit ticks", a.id);
            prop_assert_eq!(a.max_service_gap, b.max_service_gap);
        }
        prop_assert_eq!(batch.stats.ticks, paced.stats.ticks);
        prop_assert_eq!(batch.stats.prefix_evictions, paced.stats.prefix_evictions);
    }
}
