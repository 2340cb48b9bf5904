//! Property tests pinning the multi-worker dispatch invariant: for
//! random request mixes, worker counts, and routing policies, every
//! dispatched request's output is **token-for-token identical** to the
//! serial single-session engine run on it alone; a one-worker fleet is
//! **tick-identical** to a hand-driven [`ServeEngine`] under every
//! drive on both backends (the drive matrix — the equivalence that
//! lets one engine be served as the one-worker fleet); and given a
//! fixed (pinned) route assignment the whole report — shedding,
//! deadlines, every tick stamp — reproduces exactly.

use proptest::prelude::*;
use verispec_core::{
    decode_draft_speculative, decode_ntp, decode_speculative, DecodeConfig, DecodeOutput,
};
use verispec_lm::{GpuCostModel, LanguageModel, MlpLm, MlpLmConfig, NgramLm, Sampling, TokenId};
use verispec_serve::{
    Backend, DispatchReport, Drive, EngineChoice, FleetRuntime, Request, RoutePolicy, ServeConfig,
    ServeEngine, TickOrder,
};

fn any_mlp() -> impl Strategy<Value = MlpLm> {
    (12usize..28, 2usize..7, 2usize..6, 0usize..5, any::<u64>()).prop_map(
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

fn any_engine() -> impl Strategy<Value = EngineChoice> {
    prop_oneof![
        Just(EngineChoice::Ntp),
        Just(EngineChoice::MedusaChain),
        (1usize..3, 1usize..3).prop_map(|(a, b)| EngineChoice::MedusaTree(vec![a, b])),
        Just(EngineChoice::SyntaxAligned { tree: None }),
        (1usize..3).prop_map(|k| EngineChoice::SyntaxAligned {
            tree: Some(vec![k, k])
        }),
        (1usize..4).prop_map(|gamma| EngineChoice::DraftVerify { gamma }),
    ]
}

fn any_sampling() -> impl Strategy<Value = Sampling> {
    prop_oneof![
        Just(Sampling::Greedy),
        (0.3f32..1.2).prop_map(Sampling::temperature),
    ]
}

fn any_route() -> impl Strategy<Value = RoutePolicy> {
    prop_oneof![
        Just(RoutePolicy::RoundRobin),
        Just(RoutePolicy::JoinShortestQueue),
        Just(RoutePolicy::LeastLoaded),
    ]
}

fn any_order() -> impl Strategy<Value = TickOrder> {
    prop_oneof![
        Just(TickOrder::RoundRobin),
        any::<u64>().prop_map(TickOrder::Seeded),
        Just(TickOrder::Edf),
    ]
}

/// Per-request raw material: ((engine, prompt, max_tokens),
/// (sampling, seed, arrival, deadline slack)).
type RawRequest = (
    (EngineChoice, Vec<TokenId>, usize),
    (Sampling, u64, u64, Option<u64>),
);

fn any_requests() -> impl Strategy<Value = Vec<RawRequest>> {
    prop::collection::vec(
        (
            (
                any_engine(),
                prop::collection::vec(4u32..10, 1..4),
                1usize..16,
            ),
            (
                any_sampling(),
                any::<u64>(),
                0u64..8,
                prop_oneof![Just(None), (4u64..60).prop_map(Some)],
            ),
        ),
        1..8,
    )
}

fn build_requests(raw: &[RawRequest]) -> Vec<Request> {
    raw.iter()
        .enumerate()
        .map(
            |(i, ((engine, prompt, max_tokens), (sampling, seed, arrival, slack)))| {
                let cfg = DecodeConfig {
                    max_tokens: *max_tokens,
                    sampling: *sampling,
                    seed: *seed,
                    ..Default::default()
                };
                Request {
                    arrival: *arrival,
                    deadline: slack.map(|s| arrival + s),
                    ..Request::new(i as u64, prompt.clone(), engine.clone(), cfg)
                }
            },
        )
        .collect()
}

fn serial_reference(
    model: &MlpLm,
    draft: &NgramLm,
    req: &Request,
    cost: &GpuCostModel,
) -> DecodeOutput {
    match &req.engine {
        EngineChoice::Ntp => decode_ntp(
            model,
            &req.prompt,
            &req.engine.decode_config(&req.cfg),
            cost,
        ),
        EngineChoice::DraftVerify { .. } => {
            let dcfg = req.engine.draft_config(&req.cfg).expect("draft config");
            decode_draft_speculative(model, draft, &req.prompt, &dcfg, cost).0
        }
        _ => decode_speculative(
            model,
            &req.prompt,
            &req.engine.decode_config(&req.cfg),
            cost,
        ),
    }
}

/// Serves `drive` through a lockstep fleet with the draft attached.
fn dispatch(
    model: &MlpLm,
    draft: &NgramLm,
    cfg: &ServeConfig,
    workers: usize,
    route: &RoutePolicy,
    drive: Drive,
    cost: &GpuCostModel,
) -> DispatchReport {
    FleetRuntime::new(
        model,
        cfg.clone(),
        workers,
        route.clone(),
        Backend::Lockstep,
    )
    .with_draft(draft)
    .run(drive, cost)
    .report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// Dispatched == serial, token for token, under any worker count
    /// and routing policy — and every request is accounted for (served
    /// or shed, never lost).
    #[test]
    fn dispatched_outputs_equal_serial_under_any_routing(
        model in any_mlp(),
        draft_seq in prop::collection::vec(4u32..10, 12..60),
        raw in any_requests(),
        workers in 1usize..5,
        route in any_route(),
        order in any_order(),
        max_active in 1usize..4,
        max_batch in 1usize..3,
        tick_capacity in prop_oneof![Just(None), (2usize..20).prop_map(Some)],
        shed_depth in prop_oneof![Just(None), (1usize..4).prop_map(Some)],
    ) {
        let mut draft = NgramLm::new(2, model.vocab_size());
        draft.train_sequence(&draft_seq);
        let cost = GpuCostModel::codellama_like();
        let requests = build_requests(&raw);
        let cfg = ServeConfig {
            max_active,
            max_batch,
            order,
            tick_capacity,
            shed_depth,
            ..Default::default()
        };
        let batch = Drive::Batch(requests.clone());
        let report = dispatch(&model, &draft, &cfg, workers, &route, batch, &cost);

        // Nothing lost: every id is either completed or shed, exactly once.
        let mut ids: Vec<u64> = report.completions.iter().map(|c| c.id).collect();
        ids.extend(report.shed.iter().map(|s| s.id));
        ids.sort_unstable();
        let mut want_ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
        want_ids.sort_unstable();
        prop_assert_eq!(&ids, &want_ids, "served + shed must cover every request");
        prop_assert_eq!(report.assignments.len(), requests.len());

        // Per-worker stats merge to the fleet stats.
        let mut merged = verispec_serve::ServeStats::default();
        for s in &report.per_worker {
            merged.merge(s);
        }
        prop_assert_eq!(merged, report.stats);

        for c in &report.completions {
            let req = requests.iter().find(|r| r.id == c.id).expect("known id");
            let want = serial_reference(&model, &draft, req, &cost);
            prop_assert_eq!(
                &c.output.tokens, &want.tokens,
                "request {} diverged from serial decode under {} routing on {} workers",
                c.id, route.name(), workers
            );
        }

        // The paced drive (routing at arrival time against live queue
        // state — what the bench measures) obeys the same invariant.
        let paced = Drive::Paced(requests.clone());
        let paced = dispatch(&model, &draft, &cfg, workers, &route, paced, &cost);
        let mut paced_ids: Vec<u64> = paced.completions.iter().map(|c| c.id).collect();
        paced_ids.extend(paced.shed.iter().map(|s| s.id));
        paced_ids.sort_unstable();
        prop_assert_eq!(&paced_ids, &want_ids, "paced: served + shed must cover every request");
        for c in &paced.completions {
            let req = requests.iter().find(|r| r.id == c.id).expect("known id");
            let want = serial_reference(&model, &draft, req, &cost);
            prop_assert_eq!(
                &c.output.tokens, &want.tokens,
                "request {} diverged from serial decode under paced {} routing on {} workers",
                c.id, route.name(), workers
            );
        }

        // With one worker, routing is forced, so pacing may not change
        // the schedule either: paced == upfront-fed, tick for tick
        // (arrival-time submission lands each request before the tick
        // that admits it — the sends-before-due streaming property).
        // The paced drive serves the arrival-sorted sequence, so the
        // upfront reference must be fed in the same order (queue order
        // breaks ties among simultaneously-ready requests).
        if workers == 1 {
            let mut sorted = requests.clone();
            sorted.sort_by_key(|r| r.arrival);
            let report = dispatch(&model, &draft, &cfg, 1, &route, Drive::Batch(sorted), &cost);
            prop_assert_eq!(&paced.shed, &report.shed);
            prop_assert_eq!(paced.stats.ticks, report.stats.ticks);
            prop_assert_eq!(paced.completions.len(), report.completions.len());
            for (a, b) in paced.completions.iter().zip(&report.completions) {
                prop_assert_eq!(a.id, b.id);
                prop_assert_eq!(
                    a.admitted, b.admitted,
                    "paced@1: request {} admission tick drifted", a.id
                );
                prop_assert_eq!(
                    &a.step_ticks, &b.step_ticks,
                    "paced@1: request {} schedule drifted", a.id
                );
                prop_assert_eq!(a.finished, b.finished);
            }
        }
    }

    /// The drive matrix: a one-worker fleet is the hand-driven engine,
    /// tick for tick and counter for counter, under every drive on both
    /// backends — routing degenerates and neither the drive loops nor
    /// the worker-thread protocol add any scheduling noise. This is the
    /// equivalence that lets a single engine be served as the
    /// one-worker fleet.
    ///
    /// One cell is a different (still deterministic) schedule by
    /// design: under preemption the paced drive re-queues a parked
    /// request *ahead of* arrivals it has not routed yet, where an
    /// up-front feed queues it behind them. That cell is held to the
    /// dispatch invariant only (nothing lost, tokens == serial).
    #[test]
    fn one_worker_fleet_equals_hand_driven_engine_on_every_drive_and_backend(
        model in any_mlp(),
        draft_seq in prop::collection::vec(4u32..10, 12..60),
        raw in any_requests(),
        route in any_route(),
        order in any_order(),
        max_active in 1usize..4,
        shed_depth in prop_oneof![Just(None), (1usize..4).prop_map(Some)],
        preempt_wait in prop_oneof![Just(None), (1u64..6).prop_map(Some)],
        tick_capacity in prop_oneof![Just(None), (2usize..20).prop_map(Some)],
        prefix_cache in any::<bool>(),
    ) {
        let mut draft = NgramLm::new(2, model.vocab_size());
        draft.train_sequence(&draft_seq);
        let cost = GpuCostModel::codellama_like();
        // Arrival order (stable): the order the paced drive serves in,
        // so every drive and the reference see one queue order.
        let mut requests = build_requests(&raw);
        requests.sort_by_key(|r| r.arrival);
        let cfg = ServeConfig {
            max_active,
            max_batch: max_active,
            order,
            shed_depth,
            preempt_wait,
            tick_capacity,
            prefix_cache,
            ..Default::default()
        };

        let mut engine = ServeEngine::new(&model, cfg.clone()).with_draft(&draft);
        for req in &requests {
            engine.submit(req.clone());
        }
        let single = engine.run(&cost);

        for backend in [Backend::Lockstep, Backend::Threaded] {
            for drive_name in ["batch", "paced", "streaming"] {
                let drive = match drive_name {
                    "batch" => Drive::Batch(requests.clone()),
                    "paced" => Drive::Paced(requests.clone()),
                    _ => {
                        // Pre-filled and closed, so the schedule is
                        // deterministic.
                        let (tx, rx) = std::sync::mpsc::channel();
                        for req in &requests {
                            tx.send(req.clone()).expect("receiver alive");
                        }
                        Drive::Streaming(rx)
                    }
                };
                let fleet = FleetRuntime::new(&model, cfg.clone(), 1, route.clone(), backend)
                    .with_draft(&draft)
                    .run(drive, &cost)
                    .report;
                let cell = format!("{drive_name} on {backend:?}");
                prop_assert!(fleet.assignments.iter().all(|&(_, w)| w == 0), "{}", &cell);
                prop_assert_eq!(&fleet.per_worker, &vec![fleet.stats], "{}", &cell);
                if drive_name == "paced" && preempt_wait.is_some() {
                    prop_assert_eq!(
                        fleet.completions.len() + fleet.shed.len(), requests.len(), "{}", &cell
                    );
                    for c in &fleet.completions {
                        let req = requests.iter().find(|r| r.id == c.id).expect("known id");
                        let want = serial_reference(&model, &draft, req, &cost);
                        prop_assert_eq!(&c.output.tokens, &want.tokens, "{}", &cell);
                    }
                    continue;
                }

                prop_assert_eq!(single.completions.len(), fleet.completions.len(), "{}", &cell);
                for (a, b) in single.completions.iter().zip(&fleet.completions) {
                    prop_assert_eq!(a.id, b.id, "{}", &cell);
                    prop_assert_eq!(&a.output.tokens, &b.output.tokens, "{}", &cell);
                    prop_assert_eq!(a.submitted, b.submitted, "{}", &cell);
                    prop_assert_eq!(
                        a.admitted, b.admitted,
                        "{}: request {} admission tick", &cell, a.id
                    );
                    prop_assert_eq!(a.finished, b.finished, "{}", &cell);
                    prop_assert_eq!(
                        &a.step_ticks, &b.step_ticks,
                        "{}: request {} commit ticks", &cell, a.id
                    );
                }
                prop_assert_eq!(&single.shed, &fleet.shed, "{}", &cell);
                prop_assert_eq!(&single.stats, &fleet.stats, "{}", &cell);
            }
        }
    }

    /// Pinning a realized route assignment replays the run exactly:
    /// shedding, deadline outcomes, and every schedule stamp are pure
    /// functions of the assignment.
    #[test]
    fn pinned_assignment_reproduces_shedding_and_deadlines(
        model in any_mlp(),
        draft_seq in prop::collection::vec(4u32..10, 12..60),
        raw in any_requests(),
        workers in 1usize..4,
        route in any_route(),
        shed_depth in prop_oneof![Just(None), (1usize..3).prop_map(Some)],
    ) {
        let mut draft = NgramLm::new(2, model.vocab_size());
        draft.train_sequence(&draft_seq);
        let cost = GpuCostModel::codellama_like();
        let requests = build_requests(&raw);
        let cfg = ServeConfig {
            max_active: 2,
            max_batch: 2,
            shed_depth,
            ..Default::default()
        };
        let batch = Drive::Batch(requests.clone());
        let first = dispatch(&model, &draft, &cfg, workers, &route, batch, &cost);
        let pinned = RoutePolicy::Pinned(first.assignments.clone());
        let replay = dispatch(&model, &draft, &cfg, workers, &pinned, Drive::Batch(requests), &cost);

        prop_assert_eq!(&first.assignments, &replay.assignments);
        prop_assert_eq!(&first.shed, &replay.shed, "shedding must replay exactly");
        prop_assert_eq!(first.completions.len(), replay.completions.len());
        for (a, b) in first.completions.iter().zip(&replay.completions) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(&a.output.tokens, &b.output.tokens);
            prop_assert_eq!(&a.step_ticks, &b.step_ticks);
            prop_assert_eq!(a.finished, b.finished);
            prop_assert_eq!(
                a.met_deadline(), b.met_deadline(),
                "request {} deadline outcome must replay", a.id
            );
        }
        prop_assert_eq!(&first.stats, &replay.stats);
        prop_assert_eq!(&first.per_worker, &replay.per_worker);
    }
}
