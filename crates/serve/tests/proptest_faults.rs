//! Property tests for the fault-injection layer behind
//! [`FleetRuntime`]: deterministic worker crash/recovery with session
//! migration by exact replay.
//!
//! Three claims are pinned here:
//!
//! 1. **Migration never changes a token** — for random request mixes,
//!    worker counts (1/2/4), routing policies, and random
//!    [`FaultPlan`]s (crashes, restarts, whole-fleet outages with
//!    backpressure), every request the faulted fleet completes carries
//!    *exactly* the tokens the fault-free fleet produced for it, on
//!    both backends. Crashes may reschedule or shed work; they may
//!    never corrupt it.
//! 2. **Backends agree under faults** — the threaded fleet and the
//!    lockstep oracle produce tick-identical reports and canonical
//!    event streams for the same fault plan, so the whole fault layer
//!    (migration order, backpressure, restart flushes, fleet shedding)
//!    is pinned across both execution models.
//! 3. **Weighted shares never starve a class** — with multi-tenant
//!    [`FaultPlan::classes`] shares (which switch workers to
//!    [`TickOrder::WeightedFair`]), every request of every class
//!    completes within the scheduler's aging bound, even when one
//!    class's weight dwarfs the others'.

use proptest::prelude::*;
use std::collections::HashMap;
use verispec_core::DecodeConfig;
use verispec_grammar::GrammarOracle;
use verispec_lm::{GpuCostModel, LanguageModel, MlpLm, MlpLmConfig, NgramLm, Sampling, TokenId};
use verispec_serve::{
    Backend, Drive, EngineChoice, FaultPlan, FleetRuntime, Request, RoutePolicy, Scheduler,
    ServeConfig, TickOrder,
};
use verispec_trace::canonicalize_fleet_events;

fn any_mlp() -> impl Strategy<Value = MlpLm> {
    (12usize..26, 2usize..6, 2usize..5, 0usize..4, any::<u64>()).prop_map(
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
        Just(EngineChoice::GrammarTree { tree: None }),
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
        Just(RoutePolicy::PrefixAffine),
    ]
}

fn any_order() -> impl Strategy<Value = TickOrder> {
    prop_oneof![
        Just(TickOrder::RoundRobin),
        any::<u64>().prop_map(TickOrder::Seeded),
        Just(TickOrder::Edf),
    ]
}

fn any_workers() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(4)]
}

/// Raw material for a random failure scenario: up to six
/// (crash?, tick, worker seed) triples at ticks inside the serving
/// window. [`build_plan`] folds the worker seed into the fleet size.
type RawPlan = Vec<(bool, u64, usize)>;

fn any_plan() -> impl Strategy<Value = RawPlan> {
    prop::collection::vec((any::<bool>(), 0u64..60, 0usize..20), 0..6)
}

/// Builds the plan for a concrete fleet size: worker seeds land on
/// in-range workers plus the occasional out-of-range index (which must
/// be an idempotent no-op). Single-worker fleets routinely get a crash
/// with a late (or no) restart, exercising whole-fleet backpressure,
/// restart flushes, and deterministic fleet shedding.
fn build_plan(raw: &RawPlan, workers: usize) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for &(crash, tick, seed) in raw {
        let worker = seed % (workers + 1);
        plan = if crash {
            plan.crash(tick, worker)
        } else {
            plan.restart(tick, worker)
        };
    }
    plan
}

/// Per-request raw material: ((engine, prompt, max_tokens),
/// (sampling, seed, arrival, class)).
type RawRequest = (
    (EngineChoice, Vec<TokenId>, usize),
    (Sampling, u64, u64, u32),
);

fn any_requests() -> impl Strategy<Value = Vec<RawRequest>> {
    prop::collection::vec(
        (
            (
                any_engine(),
                prop::collection::vec(4u32..10, 1..4),
                1usize..14,
            ),
            (any_sampling(), any::<u64>(), 0u64..8, 0u32..3),
        ),
        1..8,
    )
}

/// Builds the request set without deadlines, so the fault-free oracle
/// completes everything and shedding in the faulted run can only come
/// from the fault layer itself.
fn build_requests(raw: &[RawRequest]) -> Vec<Request> {
    raw.iter()
        .enumerate()
        .map(
            |(i, ((engine, prompt, max_tokens), (sampling, seed, arrival, class)))| {
                let cfg = DecodeConfig {
                    max_tokens: *max_tokens,
                    sampling: *sampling,
                    seed: *seed,
                    ..Default::default()
                };
                Request {
                    arrival: *arrival,
                    ..Request::new(i as u64, prompt.clone(), engine.clone(), cfg)
                }
                .with_class(*class)
            },
        )
        .collect()
}

fn oracle_for(vocab: usize) -> GrammarOracle {
    let bytes: Vec<Vec<u8>> = (0..vocab)
        .map(|id| match id % 8 {
            0 => Vec::new(),
            1 => b"(".to_vec(),
            2 => b")".to_vec(),
            3 => b"a".to_vec(),
            4 => b" ".to_vec(),
            5 => b";".to_vec(),
            6 => vec![0x07],
            _ => b"b".to_vec(),
        })
        .collect();
    GrammarOracle::new(bytes)
}

fn serve_config(max_active: usize, max_batch: usize, order: TickOrder) -> ServeConfig {
    ServeConfig {
        max_active,
        max_batch,
        order,
        ..Default::default()
    }
}

fn runtime<'m>(
    model: &'m MlpLm,
    draft: &'m NgramLm,
    oracle: &'m GrammarOracle,
    cfg: ServeConfig,
    workers: usize,
    route: RoutePolicy,
    backend: Backend,
) -> FleetRuntime<'m> {
    FleetRuntime::new(model, cfg, workers, route.clone(), backend)
        .with_draft(draft)
        .with_grammar(oracle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Claim 1: crash/recovery with migration-by-exact-replay is
    /// output-transparent. Every completion of the faulted run is
    /// token-for-token (and step/trace-for-step) the fault-free
    /// oracle's completion for the same id, on both backends, and
    /// every request is accounted for (completed or deterministically
    /// shed under whole-fleet backpressure).
    #[test]
    fn faulted_completions_are_token_identical_to_fault_free(
        model in any_mlp(),
        draft_seq in prop::collection::vec(4u32..10, 12..60),
        raw in any_requests(),
        workers in any_workers(),
        raw_plan in any_plan(),
        route in any_route(),
        order in any_order(),
        max_active in 1usize..4,
        max_batch in 1usize..3,
    ) {
        let mut draft = NgramLm::new(2, model.vocab_size());
        draft.train_sequence(&draft_seq);
        let oracle = oracle_for(model.vocab_size());
        let cost = GpuCostModel::codellama_like();
        let requests = build_requests(&raw);
        let plan = build_plan(&raw_plan, workers);
        let cfg = serve_config(max_active, max_batch, order);

        for backend in [Backend::Lockstep, Backend::Threaded] {
            let baseline = runtime(&model, &draft, &oracle, cfg.clone(), workers, route.clone(), backend)
                .run(Drive::Paced(requests.clone()), &cost);
            prop_assert_eq!(
                baseline.report.completions.len(),
                requests.len(),
                "fault-free {:?} fleet lost requests", backend
            );
            let want: HashMap<u64, _> = baseline
                .report
                .completions
                .iter()
                .map(|c| (c.id, c))
                .collect();

            let faulted = runtime(&model, &draft, &oracle, cfg.clone(), workers, route.clone(), backend)
                .with_fault_plan(plan.clone())
                .run(Drive::Paced(requests.clone()), &cost);
            prop_assert_eq!(
                faulted.report.completions.len() + faulted.report.shed.len(),
                requests.len(),
                "{:?} fleet lost requests under plan {:?}", backend, plan
            );
            for c in &faulted.report.completions {
                let w = want[&c.id];
                prop_assert_eq!(
                    &c.output.tokens, &w.output.tokens,
                    "request {} tokens diverged under {:?} faults {:?}",
                    c.id, backend, plan
                );
                prop_assert_eq!(c.output.steps, w.output.steps, "request {} steps", c.id);
                prop_assert_eq!(&c.output.trace, &w.output.trace, "request {} trace", c.id);
            }
        }
    }

    /// Claim 2: the threaded fleet is bit-identical to the lockstep
    /// oracle under random fault plans — same completions (every tick
    /// stamp), same shedding, same migrations, and the same canonical
    /// event stream, across worker counts and routing policies.
    #[test]
    fn threaded_faulted_is_bit_identical_to_lockstep(
        model in any_mlp(),
        draft_seq in prop::collection::vec(4u32..10, 12..60),
        raw in any_requests(),
        workers in any_workers(),
        raw_plan in any_plan(),
        route in any_route(),
        order in any_order(),
        max_active in 1usize..4,
        max_batch in 1usize..3,
    ) {
        let mut draft = NgramLm::new(2, model.vocab_size());
        draft.train_sequence(&draft_seq);
        let oracle = oracle_for(model.vocab_size());
        let cost = GpuCostModel::codellama_like();
        let requests = build_requests(&raw);
        let plan = build_plan(&raw_plan, workers);
        let cfg = serve_config(max_active, max_batch, order);

        let lockstep = runtime(
            &model, &draft, &oracle, cfg.clone(), workers, route.clone(), Backend::Lockstep,
        )
        .with_tracing()
        .with_fault_plan(plan.clone())
        .run(Drive::Paced(requests.clone()), &cost);

        let threaded = runtime(
            &model, &draft, &oracle, cfg, workers, route.clone(), Backend::Threaded,
        )
        .with_tracing()
        .with_fault_plan(plan.clone())
        .run(Drive::Paced(requests), &cost);

        prop_assert!(
            threaded.report.same_schedule(&lockstep.report),
            "threaded fleet diverged from lockstep on {} workers under plan {:?}",
            workers, plan
        );
        prop_assert_eq!(
            &threaded.events, &lockstep.events,
            "fault event streams diverged under plan {:?}", plan
        );
        // Both facade streams are canonical by construction.
        prop_assert_eq!(&canonicalize_fleet_events(&threaded.events), &threaded.events);
    }

    /// Claim 3: multi-tenant weighted-fairness shares reshape service
    /// order without starving anyone — under skewed per-class weights
    /// every request of every class completes, and no completion's
    /// largest service gap exceeds the scheduler's aging bound.
    #[test]
    fn weighted_fair_shares_never_starve_a_class(
        model in any_mlp(),
        draft_seq in prop::collection::vec(4u32..10, 12..60),
        raw in any_requests(),
        workers in any_workers(),
        route in any_route(),
        weights in prop::collection::vec(1u32..6, 1..4),
        max_active in 1usize..4,
        max_batch in 1usize..3,
        backend in prop_oneof![Just(Backend::Lockstep), Just(Backend::Threaded)],
    ) {
        let mut draft = NgramLm::new(2, model.vocab_size());
        draft.train_sequence(&draft_seq);
        let oracle = oracle_for(model.vocab_size());
        let cost = GpuCostModel::codellama_like();
        let requests = build_requests(&raw);
        // Shares only: the plan installs WeightedFair + class weights
        // through the facade without any crash events.
        let mut plan = FaultPlan::none();
        for (class, w) in weights.iter().enumerate() {
            plan = plan.share(class as u32, *w);
        }
        // The order below is overridden by the plan's shares.
        let cfg = serve_config(max_active, max_batch, TickOrder::RoundRobin);

        let run = runtime(&model, &draft, &oracle, cfg, workers, route.clone(), backend)
            .with_fault_plan(plan)
            .run(Drive::Paced(requests.clone()), &cost);

        prop_assert_eq!(
            run.report.completions.len(),
            requests.len(),
            "a class starved: {} of {} requests completed",
            run.report.completions.len(),
            requests.len()
        );
        let bound = Scheduler::new(TickOrder::WeightedFair, max_active, max_batch)
            .with_class_weights(&weights)
            .starvation_bound();
        for c in &run.report.completions {
            prop_assert!(
                c.max_service_gap <= bound + max_active as u64,
                "request {} service gap {} exceeds aging bound {}",
                c.id, c.max_service_gap, bound
            );
        }
    }
}
