//! Property tests pinning the streaming-admission invariant: for
//! random open-loop workloads (arrival process, rates, request mixes
//! over every engine), random scheduler configurations, random session
//! caps (eviction pressure), and prefix-forked admissions, serving the
//! workload through the arrival channel ([`Drive::Streaming`])
//! produces **token-for-token** the same per-request outputs as batch
//! submission to a hand-driven engine — and, when every arrival is sent
//! before its tick falls due, the same tick schedule (admissions,
//! commit ticks, completion ticks) as well.

use proptest::prelude::*;
use verispec_core::DecodeConfig;
use verispec_lm::{GpuCostModel, LanguageModel, MlpLm, MlpLmConfig, NgramLm, TokenId};
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
            (EngineChoice::DraftVerify { gamma: 3 }, 1.0),
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
/// streaming sides so the parity assertions compare like with like.
fn engine_for<'m>(
    model: &'m MlpLm,
    draft: &'m NgramLm,
    stem: &[TokenId],
    cfg: &ServeConfig,
) -> ServeEngine<'m> {
    let cfg = ServeConfig {
        prefix_cache: true,
        ..cfg.clone()
    };
    let mut engine = ServeEngine::new(model, cfg).with_draft(draft);
    engine.warm_prefix(stem);
    engine
}

/// A fleet riding the prefix cache warmed with the same stem as
/// [`engine_for`]'s engine.
fn fleet_for<'m>(
    model: &'m MlpLm,
    draft: &'m NgramLm,
    stem: &[TokenId],
    cfg: &ServeConfig,
    workers: usize,
    route: RoutePolicy,
    backend: Backend,
) -> FleetRuntime<'m> {
    let cfg = ServeConfig {
        prefix_cache: true,
        ..cfg.clone()
    };
    FleetRuntime::new(model, cfg, workers, route, backend)
        .with_draft(draft)
        .warm_prefix(stem)
}

/// The one-worker lockstep fleet — the single engine, as a fleet.
fn single_for<'m>(
    model: &'m MlpLm,
    draft: &'m NgramLm,
    stem: &[TokenId],
    cfg: &ServeConfig,
) -> FleetRuntime<'m> {
    fleet_for(
        model,
        draft,
        stem,
        cfg,
        1,
        RoutePolicy::RoundRobin,
        Backend::Lockstep,
    )
}

fn batch_run(
    model: &MlpLm,
    draft: &NgramLm,
    stem: &[TokenId],
    cfg: &ServeConfig,
    requests: &[Request],
    cost: &GpuCostModel,
) -> ServeReport {
    let mut engine = engine_for(model, draft, stem, cfg);
    for req in requests {
        engine.submit(req.clone());
    }
    engine.run(cost)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// Upfront-fed streaming == batch, tick for tick.
    #[test]
    fn streaming_equals_batch_schedule_and_outputs(
        model in any_mlp(),
        draft_seq in prop::collection::vec(4u32..12, 12..60),
        process in any_process(),
        count in 1usize..8,
        seed in any::<u64>(),
        max_active in 1usize..5,
        max_batch in 1usize..4,
        order in any_order(),
        preempt in prop_oneof![Just(None), (1u64..4).prop_map(Some)],
        session_cap in prop_oneof![Just(None), (1usize..5).prop_map(Some)],
        tick_capacity in prop_oneof![Just(None), (2usize..24).prop_map(Some)],
        deadline_slack in prop_oneof![Just(None), (1.0f64..6.0).prop_map(Some)],
    ) {
        let mut draft = NgramLm::new(2, model.vocab_size());
        draft.train_sequence(&draft_seq);
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
            preempt_wait: preempt,
            session_cap,
            tick_capacity,
            ..Default::default()
        };
        let batch = batch_run(&model, &draft, &shared, &cfg, &requests, &cost);

        let (tx, rx) = std::sync::mpsc::channel();
        for req in &requests {
            tx.send(req.clone()).expect("receiver alive");
        }
        drop(tx);
        let streamed = single_for(&model, &draft, &shared, &cfg)
            .run(Drive::Streaming(rx), &cost)
            .report;

        prop_assert_eq!(batch.completions.len(), requests.len());
        prop_assert_eq!(streamed.completions.len(), requests.len());
        for (a, b) in batch.completions.iter().zip(&streamed.completions) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(
                &a.output.tokens, &b.output.tokens,
                "request {} tokens diverged between batch and streaming", a.id
            );
            prop_assert_eq!(a.output.steps, b.output.steps);
            prop_assert_eq!(&a.output.trace, &b.output.trace);
            prop_assert_eq!(a.submitted, b.submitted);
            prop_assert_eq!(a.admitted, b.admitted, "request {} admission tick", a.id);
            prop_assert_eq!(a.finished, b.finished);
            prop_assert_eq!(&a.step_ticks, &b.step_ticks, "request {} commit ticks", a.id);
            prop_assert_eq!(a.max_service_gap, b.max_service_gap);
            prop_assert_eq!(a.preemptions, b.preemptions);
        }
        prop_assert_eq!(batch.stats.ticks, streamed.stats.ticks);
        prop_assert_eq!(batch.stats.prefix_evictions, streamed.stats.prefix_evictions);
        prop_assert_eq!(batch.stats.preemptions, streamed.stats.preemptions);
    }

    /// A live sender racing the engine: admission timing may drift, but
    /// per-request outputs never do.
    #[test]
    fn racing_sender_preserves_outputs(
        model in any_mlp(),
        draft_seq in prop::collection::vec(4u32..12, 12..60),
        process in any_process(),
        count in 1usize..7,
        seed in any::<u64>(),
        max_active in 1usize..4,
        session_cap in prop_oneof![Just(None), (1usize..4).prop_map(Some)],
    ) {
        let mut draft = NgramLm::new(2, model.vocab_size());
        draft.train_sequence(&draft_seq);
        let cost = GpuCostModel::codellama_like();
        let workload = Workload { process, mix: full_mix(), count, seed };
        let requests = workload.requests();

        let shared: Vec<TokenId> = vec![5, 6];

        let cfg = ServeConfig {
            session_cap,
            ..ServeConfig::concurrency(max_active)
        };
        let batch = batch_run(&model, &draft, &shared, &cfg, &requests, &cost);

        let (tx, rx) = std::sync::mpsc::channel();
        let to_send = requests.clone();
        let streamed = std::thread::scope(|s| {
            s.spawn(move || {
                for req in to_send {
                    if tx.send(req).is_err() {
                        break;
                    }
                }
            });
            single_for(&model, &draft, &shared, &cfg)
                .run(Drive::Streaming(rx), &cost)
                .report
        });

        prop_assert_eq!(streamed.completions.len(), requests.len());
        for (a, b) in batch.completions.iter().zip(&streamed.completions) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(
                &a.output.tokens, &b.output.tokens,
                "request {} tokens diverged under a racing sender", a.id
            );
            prop_assert_eq!(&a.output.trace, &b.output.trace);
        }
    }

    /// Several live senders racing each other into a multi-worker
    /// fleet, on both backends: send interleaving — and therefore
    /// routing — is nondeterministic, but every request's output still
    /// equals the batch single-engine run's (itself pinned
    /// token-identical to the serial engines), under any worker count
    /// and routing policy.
    #[test]
    fn racing_multi_sender_multi_worker_preserves_outputs(
        model in any_mlp(),
        draft_seq in prop::collection::vec(4u32..12, 12..60),
        process in any_process(),
        count in 1usize..7,
        seed in any::<u64>(),
        workers in 1usize..4,
        route in prop_oneof![
            Just(RoutePolicy::RoundRobin),
            Just(RoutePolicy::JoinShortestQueue),
            Just(RoutePolicy::LeastLoaded),
            Just(RoutePolicy::PrefixAffine),
        ],
        n_senders in 2usize..4,
        max_active in 1usize..4,
    ) {
        let mut draft = NgramLm::new(2, model.vocab_size());
        draft.train_sequence(&draft_seq);
        let cost = GpuCostModel::codellama_like();
        let workload = Workload { process, mix: full_mix(), count, seed };
        let requests = workload.requests();

        let shared: Vec<TokenId> = vec![5, 6];

        let cfg = ServeConfig::concurrency(max_active);
        let batch = batch_run(&model, &draft, &shared, &cfg, &requests, &cost);

        for backend in [Backend::Lockstep, Backend::Threaded] {
            let (tx, rx) = std::sync::mpsc::channel();
            // Stripe the requests across racing sender threads; the mpsc
            // channel interleaves them nondeterministically.
            let stripes: Vec<Vec<Request>> = (0..n_senders)
                .map(|s| {
                    requests
                        .iter()
                        .skip(s)
                        .step_by(n_senders)
                        .cloned()
                        .collect()
                })
                .collect();
            let dispatched = std::thread::scope(|scope| {
                for stripe in stripes {
                    let tx = tx.clone();
                    scope.spawn(move || {
                        for req in stripe {
                            if tx.send(req).is_err() {
                                break;
                            }
                        }
                    });
                }
                drop(tx);
                // The fleet rides the radix-tree prefix cache warmed with
                // the same shared stem as the batch engine — outputs must
                // agree regardless of routing.
                fleet_for(&model, &draft, &shared, &cfg, workers, route.clone(), backend)
                    .run(Drive::Streaming(rx), &cost)
                    .report
            });

            prop_assert_eq!(dispatched.completions.len(), requests.len());
            prop_assert_eq!(dispatched.assignments.len(), requests.len());
            prop_assert!(dispatched
                .assignments
                .iter()
                .all(|&(_, w)| w < workers));
            for (a, b) in batch.completions.iter().zip(&dispatched.completions) {
                prop_assert_eq!(a.id, b.id);
                prop_assert_eq!(
                    &a.output.tokens, &b.output.tokens,
                    "request {} tokens diverged under racing senders x {} workers ({}, {:?})",
                    a.id, workers, route.name(), backend
                );
                prop_assert_eq!(&a.output.trace, &b.output.trace);
            }
        }
    }
}
