//! Property tests pinning the threaded backend to its lockstep oracle:
//! for random request mixes (including grammar-constrained engines),
//! worker counts (1/2/4), routing policies (probe-less and probing),
//! the batch and paced drives, and eviction/shedding churn,
//! [`Backend::Threaded`]'s report is **tick-for-tick, token-for-token
//! identical** to [`Backend::Lockstep`]'s, and the merged event streams
//! are event-for-event identical, in canonical fleet order
//! ([`canonicalize_fleet_events`]). The streaming drive is held to the
//! same bar by the drive matrix in `proptest_dispatch.rs`.
//!
//! The backend's one thread per worker is all the parallelism a run
//! has: the inference kernel stays on its caller's thread.

use proptest::prelude::*;
use verispec_core::DecodeConfig;
use verispec_grammar::GrammarOracle;
use verispec_lm::{GpuCostModel, LanguageModel, MlpLm, MlpLmConfig, Sampling, TokenId};
use verispec_serve::{
    Backend, Drive, EngineChoice, FleetRun, FleetRuntime, Request, RoutePolicy, ServeConfig,
    TickOrder,
};
use verispec_trace::canonicalize_fleet_events;

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

/// Engine mix for threaded parity: the full dispatch spectrum plus the
/// grammar-constrained engines (chain and tree), which exercise the
/// viability filter and its `GrammarPrune` events across threads.
fn any_engine() -> impl Strategy<Value = EngineChoice> {
    prop_oneof![
        Just(EngineChoice::Ntp),
        Just(EngineChoice::MedusaChain),
        (1usize..3, 1usize..3).prop_map(|(a, b)| EngineChoice::MedusaTree(vec![a, b])),
        Just(EngineChoice::SyntaxAligned { tree: None }),
        Just(EngineChoice::GrammarTree { tree: None }),
        (1usize..3).prop_map(|k| EngineChoice::GrammarTree {
            tree: Some(vec![k, k])
        }),
    ]
}

fn any_sampling() -> impl Strategy<Value = Sampling> {
    prop_oneof![
        Just(Sampling::Greedy),
        (0.3f32..1.2).prop_map(Sampling::temperature),
    ]
}

/// Every route policy, probing and probe-less: rr skips the probe
/// round-trip entirely, jsq/least-loaded/prefix-affine force the
/// threaded coordinator through the synchronous probe barrier.
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

/// The worker counts the acceptance bar names: degenerate (1), the
/// smallest true fleet (2), and past the container's core count (4).
fn any_workers() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(4)]
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

/// A deterministic byte table over the model's whole vocab, mixing
/// transparent specials, benign Verilog-ish bytes, and a lethal
/// control byte so the grammar viability filter actually prunes.
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

/// The churn knobs the acceptance bar names: tight pools,
/// session-cap eviction, verify budgets, and shedding.
#[derive(Debug, Clone)]
struct Churn {
    max_active: usize,
    max_batch: usize,
    session_cap: Option<usize>,
    tick_capacity: Option<usize>,
    shed_depth: Option<usize>,
    prefix_cache: bool,
}

fn any_churn() -> impl Strategy<Value = Churn> {
    (
        (
            1usize..4,
            1usize..3,
            prop_oneof![Just(None), (2usize..5).prop_map(Some)],
        ),
        (
            prop_oneof![Just(None), (2usize..20).prop_map(Some)],
            prop_oneof![Just(None), (1usize..4).prop_map(Some)],
            any::<bool>(),
        ),
    )
        .prop_map(
            |((max_active, max_batch, session_cap), (tick_capacity, shed_depth, prefix_cache))| {
                Churn {
                    max_active,
                    max_batch,
                    session_cap,
                    tick_capacity,
                    shed_depth,
                    prefix_cache,
                }
            },
        )
}

fn serve_config(churn: &Churn, order: TickOrder) -> ServeConfig {
    ServeConfig {
        max_active: churn.max_active,
        max_batch: churn.max_batch,
        order,
        session_cap: churn.session_cap,
        tick_capacity: churn.tick_capacity,
        shed_depth: churn.shed_depth,
        prefix_cache: churn.prefix_cache,
        ..Default::default()
    }
}

/// The warm stem shared by both backends when the prefix cache is on;
/// a prefix of the request prompt alphabet so affine routing can hit.
const WARM_STEM: &[TokenId] = &[4, 5, 6];

/// The traced fleet spec under test, on `backend`.
fn fleet<'m>(
    model: &'m MlpLm,
    oracle: &'m GrammarOracle,
    cfg: &ServeConfig,
    workers: usize,
    route: &RoutePolicy,
    backend: Backend,
) -> FleetRuntime<'m> {
    let fleet = FleetRuntime::new(model, cfg.clone(), workers, route.clone(), backend)
        .with_tracing()
        .with_grammar(oracle);
    if cfg.prefix_cache {
        fleet.warm_prefix(WARM_STEM)
    } else {
        fleet
    }
}

/// One spec and one drive served on both backends:
/// `(lockstep, threaded)`.
fn run_both<'m>(
    spec: impl Fn(Backend) -> FleetRuntime<'m>,
    drive: impl Fn() -> Drive,
    cost: &GpuCostModel,
) -> (FleetRun, FleetRun) {
    let run = |backend| spec(backend).run(drive(), cost);
    (run(Backend::Lockstep), run(Backend::Threaded))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// The paced threaded drive is bit-identical to the lockstep paced
    /// oracle: same completions (every tick stamp), same shedding,
    /// same stats and per-worker split, same route assignments, and
    /// the same canonical event stream.
    #[test]
    fn threaded_paced_is_bit_identical_to_lockstep(
        model in any_mlp(),
        raw in any_requests(),
        workers in any_workers(),
        route in any_route(),
        order in any_order(),
        churn in any_churn(),
    ) {
        let oracle = oracle_for(model.vocab_size());
        let cost = GpuCostModel::codellama_like();
        let requests = build_requests(&raw);
        let cfg = serve_config(&churn, order);
        let (lockstep, threaded) = run_both(
            |backend| fleet(&model, &oracle, &cfg, workers, &route, backend),
            || Drive::Paced(requests.clone()),
            &cost,
        );

        prop_assert_eq!(threaded.report.assignments.len(), requests.len());
        prop_assert!(
            threaded.report.same_schedule(&lockstep.report),
            "threaded paced drive diverged from lockstep on {} workers under {} routing",
            workers,
            route.name()
        );
        prop_assert_eq!(&threaded.events, &lockstep.events, "merged event streams diverged");
        // The merge is canonical by construction.
        prop_assert_eq!(&canonicalize_fleet_events(&threaded.events), &threaded.events);
    }

    /// The batch threaded drive (everything routed up front, zero
    /// barriers end to end) is bit-identical to the lockstep batch
    /// drive over the same un-sorted submission order.
    #[test]
    fn threaded_batch_is_bit_identical_to_lockstep(
        model in any_mlp(),
        raw in any_requests(),
        workers in any_workers(),
        route in any_route(),
        order in any_order(),
        churn in any_churn(),
    ) {
        let oracle = oracle_for(model.vocab_size());
        let cost = GpuCostModel::codellama_like();
        let requests = build_requests(&raw);
        let cfg = serve_config(&churn, order);
        let (lockstep, threaded) = run_both(
            |backend| fleet(&model, &oracle, &cfg, workers, &route, backend),
            || Drive::Batch(requests.clone()),
            &cost,
        );

        prop_assert_eq!(threaded.report.assignments.len(), requests.len());
        prop_assert!(
            threaded.report.same_schedule(&lockstep.report),
            "threaded batch drive diverged from lockstep on {} workers",
            workers
        );
        prop_assert_eq!(&threaded.events, &lockstep.events, "merged event streams diverged");
    }
}
