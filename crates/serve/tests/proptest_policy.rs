//! Property tests for the speculation-policy layer.
//!
//! Three claims are pinned here:
//!
//! 1. **Purity** — a [`SpecPolicy::Adaptive`] decision is a pure
//!    function of the request's *own* last 8 steps: equal windows
//!    (however the histories got there) give equal decisions, for
//!    random histories and bases, the empty shape (NTP) included.
//! 2. **Served == serial under adaptation** — because of (1), serving
//!    a mix of requests under the adaptive policy produces
//!    token-for-token the outputs of a serial stepper that pins the
//!    policy's answer before each step, across random engines (NTP
//!    among them), seeds, sampling, tick orders, prefix-cache eviction
//!    pressure, and batch sizes. Adaptation never leaks batch
//!    composition into a request's stream.
//! 3. **Served == serial under budgeting, where it can hold** — without
//!    a per-tick capacity [`SpecPolicy::Budgeted`] has no slice to
//!    shrink into and every request runs as it would serially; under
//!    one, a speculative request's shape follows the batch, but an NTP
//!    request's empty shape is the policy's fixed point, so its stream
//!    stays the serial one whatever the capacity.

use proptest::prelude::*;
use verispec_core::{
    AcceptHistory, DecodeConfig, Engine, ShapeQuery, SpecPolicy, SpecShape, Stepper,
};
use verispec_lm::{GpuCostModel, LanguageModel, MlpLm, MlpLmConfig, Sampling, TokenId};
use verispec_serve::{EngineChoice, Request, ServeConfig, ServeEngine, ServeReport, TickOrder};

/// The stem every request's prompt opens with, warmed into the prefix
/// cache before the run.
const SHARED: [TokenId; 2] = [5, 6];

fn any_mlp() -> impl Strategy<Value = MlpLm> {
    (14usize..28, 2usize..8, 2usize..5, 1usize..5, any::<u64>()).prop_map(
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

fn any_base() -> impl Strategy<Value = SpecShape> {
    prop_oneof![
        Just(SpecShape::EMPTY),
        (1usize..6).prop_map(|depth| SpecShape {
            widths: Vec::new(),
            depth
        }),
        (prop::collection::vec(1usize..4, 0..4), 1usize..6)
            .prop_map(|(widths, depth)| SpecShape { widths, depth }),
    ]
}

fn any_engine() -> impl Strategy<Value = EngineChoice> {
    prop_oneof![
        Just(EngineChoice::Ntp),
        Just(EngineChoice::MedusaChain),
        prop::collection::vec(1usize..3, 1..3).prop_map(EngineChoice::MedusaTree),
        Just(EngineChoice::SyntaxAligned { tree: None }),
        prop::collection::vec(1usize..3, 1..3)
            .prop_map(|w| EngineChoice::SyntaxAligned { tree: Some(w) }),
    ]
}

/// Up to seven requests on the shared stem, arriving over the first
/// ticks with a deadline each.
fn any_requests() -> impl Strategy<Value = Vec<Request>> {
    prop::collection::vec(
        (
            any_engine(),
            prop::collection::vec(1u32..10, 0..3),
            4usize..16,
            prop_oneof![
                Just(Sampling::Greedy),
                (0.4f32..1.1).prop_map(Sampling::temperature),
            ],
            any::<u64>(),
            0u64..6,
        ),
        1..8,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(
                |(i, (engine, suffix, max_tokens, sampling, seed, arrival))| {
                    let mut prompt = SHARED.to_vec();
                    prompt.extend_from_slice(&suffix);
                    let cfg = DecodeConfig {
                        max_tokens,
                        sampling,
                        seed,
                        ..Default::default()
                    };
                    Request {
                        arrival,
                        deadline: Some(arrival + 30),
                        ..Request::new(i as u64, prompt, engine, cfg)
                    }
                },
            )
            .collect()
    })
}

/// `req` run alone, serially: before each step the stepper is pinned
/// `policy`'s answer (uncapped) for its configured shape and its own
/// history, as the serving tick pins it.
fn serial_with_policy(
    model: &MlpLm,
    req: &Request,
    cost: &GpuCostModel,
    policy: SpecPolicy,
) -> Vec<TokenId> {
    let cfg = req.engine.decode_config(&req.cfg);
    let engine = match req.engine {
        EngineChoice::Ntp => Engine::Ntp(cfg),
        _ => Engine::Medusa(cfg),
    };
    let mut stepper = Stepper::new(model, engine, model.session(), &req.prompt);
    let mut shape = SpecShape::EMPTY;
    loop {
        let query = ShapeQuery {
            base: stepper.base_shape(),
            history: stepper.history(),
            cap: None,
        };
        policy.shape(&query, &mut shape);
        stepper.pin_shape(&shape);
        if !stepper.step(cost) {
            break;
        }
    }
    stepper.into_output().tokens
}

/// Serves `requests` to completion under `cfg` (its policy included)
/// on the prefix cache, its stem warmed.
fn serve(
    model: &MlpLm,
    requests: &[Request],
    cfg: ServeConfig,
    cost: &GpuCostModel,
) -> ServeReport {
    let mut engine = ServeEngine::new(
        model,
        ServeConfig {
            prefix_cache: true,
            ..cfg
        },
    );
    assert!(engine.warm_prefix(&SHARED));
    for req in requests {
        engine.submit(req.clone());
    }
    let report = engine.run(cost);
    assert_eq!(report.completions.len(), requests.len());
    for c in &report.completions {
        assert!(c.accepted_tokens <= c.proposed_tokens);
    }
    report
}

fn any_order() -> impl Strategy<Value = TickOrder> {
    prop_oneof![
        Just(TickOrder::RoundRobin),
        Just(TickOrder::Edf),
        any::<u64>().prop_map(TickOrder::Seeded),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Equal recent windows → equal decisions, regardless of how the
    /// histories were built: entries older than the last 8 steps must
    /// not influence the decision, and rebuilding the same window from
    /// scratch reproduces it exactly.
    #[test]
    fn adaptive_decisions_are_pure_in_the_recent_window(
        base in any_base(),
        shared in prop::collection::vec(
            (0usize..12, 0usize..12).prop_map(|(s, a)| (s, a.min(s))), 1..12),
        old_a in prop::collection::vec(
            (1usize..12, 0usize..12).prop_map(|(s, a)| (s, a.min(s))), 0..8),
        old_b in prop::collection::vec(
            (1usize..12, 0usize..12).prop_map(|(s, a)| (s, a.min(s))), 0..8),
    ) {
        let policy = SpecPolicy::Adaptive;
        // Only the 8 trailing entries may matter, so prefixing
        // arbitrary old entries beyond the window cannot change the
        // decision. (shared is padded to fill the whole window with
        // identical entries.)
        let mut tail = shared.clone();
        while tail.len() < 8 {
            tail.push(*shared.last().expect("nonempty"));
        }
        let build = |old: &[(usize, usize)]| -> AcceptHistory {
            let mut h = AcceptHistory::default();
            for &(s, a) in old.iter().chain(&tail) {
                h.record(s, a);
            }
            h
        };
        let ha = build(&old_a);
        let hb = build(&old_b);
        let decide = |history: &AcceptHistory| {
            let mut out = SpecShape::EMPTY;
            policy.shape(&ShapeQuery { base: &base, history, cap: None }, &mut out);
            out
        };
        let (da, db) = (decide(&ha), decide(&hb));
        prop_assert_eq!(&da, &db, "pre-window history leaked into the decision");
        // And the decision is deterministic on repeated queries.
        let again = decide(&ha);
        prop_assert_eq!(&da, &again);
        // Decisions only ever shrink the configured shape.
        prop_assert!(da.step_cost() <= base.step_cost().max(2));
    }

    /// Serving under adaptation == the serial policy-driven engine,
    /// token for token, under prefix-cache eviction and arbitrary tick
    /// orders.
    #[test]
    fn served_equals_serial_under_adaptation(
        model in any_mlp(),
        requests in any_requests(),
        max_active in 1usize..5,
        max_batch in 1usize..4,
        order in any_order(),
        session_cap in prop_oneof![Just(None), (1usize..5).prop_map(Some)],
    ) {
        let cost = GpuCostModel::codellama_like();
        let policy = SpecPolicy::Adaptive;
        let cfg = ServeConfig {
            max_active,
            max_batch,
            order,
            policy,
            session_cap,
            ..Default::default()
        };
        let report = serve(&model, &requests, cfg, &cost);
        for (c, req) in report.completions.iter().zip(&requests) {
            let want = serial_with_policy(&model, req, &cost, policy);
            prop_assert_eq!(
                &c.output.tokens, &want,
                "request {} diverged under adaptive serving", c.id
            );
        }
    }

    /// Serving under the budgeted policy == the serial engine under it:
    /// every request without a per-tick capacity, and every NTP request
    /// under any capacity — the empty shape is the policy's fixed
    /// point, so budget pressure only defers an NTP step.
    #[test]
    fn served_equals_serial_under_budgeting(
        model in any_mlp(),
        requests in any_requests(),
        max_active in 1usize..5,
        max_batch in 1usize..4,
        order in any_order(),
        session_cap in prop_oneof![Just(None), (1usize..5).prop_map(Some)],
        tick_capacity in prop_oneof![Just(None), (1usize..20).prop_map(Some)],
    ) {
        let cost = GpuCostModel::codellama_like();
        let cfg = ServeConfig {
            max_active,
            max_batch,
            order,
            policy: SpecPolicy::Budgeted,
            session_cap,
            tick_capacity,
            ..Default::default()
        };
        let report = serve(&model, &requests, cfg, &cost);
        for (c, req) in report.completions.iter().zip(&requests) {
            if tick_capacity.is_some() && req.engine != EngineChoice::Ntp {
                continue;
            }
            let want = serial_with_policy(&model, req, &cost, SpecPolicy::Budgeted);
            prop_assert_eq!(
                &c.output.tokens, &want,
                "request {} ({}) diverged under budgeted serving", c.id, req.engine.name()
            );
        }
    }
}
