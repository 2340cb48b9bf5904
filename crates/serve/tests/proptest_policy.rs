//! Property tests for the speculation-policy layer.
//!
//! Two claims are pinned here:
//!
//! 1. **Purity** — an [`AdaptivePolicy`] decision is a pure function of
//!    the request's *own* acceptance history within the policy window:
//!    equal windows (however the histories got there) give equal
//!    decisions, for random histories and bases.
//! 2. **Served == serial under adaptation** — because of (1), serving
//!    a mix of requests under an adaptive policy produces
//!    token-for-token the outputs of the serial policy-driven engine,
//!    across random engines, seeds, sampling, tick orders, preemption,
//!    prefix-cache eviction pressure, and batch sizes. Adaptation never
//!    leaks batch composition into a request's stream.

use proptest::prelude::*;
use verispec_core::{
    AcceptHistory, AdaptivePolicy, DecodeConfig, ShapeQuery, SpecPolicy, SpecShape, Stepper,
};
use verispec_lm::{GpuCostModel, LanguageModel, MlpLm, MlpLmConfig, NgramLm, Sampling, TokenId};
use verispec_serve::{EngineChoice, Request, ServeConfig, ServeEngine, TickOrder};

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
        (1usize..6).prop_map(|depth| SpecShape::Chain { depth }),
        (prop::collection::vec(1usize..4, 0..4), 1usize..6)
            .prop_map(|(widths, depth)| SpecShape::Tree { widths, depth }),
        (1usize..6).prop_map(|gamma| SpecShape::Draft { gamma }),
    ]
}

fn any_engine() -> impl Strategy<Value = EngineChoice> {
    prop_oneof![
        Just(EngineChoice::MedusaChain),
        prop::collection::vec(1usize..3, 1..3).prop_map(EngineChoice::MedusaTree),
        Just(EngineChoice::SyntaxAligned { tree: None }),
        prop::collection::vec(1usize..3, 1..3)
            .prop_map(|w| EngineChoice::SyntaxAligned { tree: Some(w) }),
        (1usize..4).prop_map(|gamma| EngineChoice::DraftVerify { gamma }),
    ]
}

fn serial_with_policy(
    model: &MlpLm,
    draft: &NgramLm,
    req: &Request,
    cost: &GpuCostModel,
    policy: &dyn SpecPolicy,
) -> Vec<TokenId> {
    let mut stepper = match &req.engine {
        EngineChoice::DraftVerify { .. } => {
            let dcfg = req.engine.draft_config(&req.cfg).expect("draft cfg");
            Stepper::draft_verify(model, draft, &req.prompt, dcfg)
        }
        _ => Stepper::speculative(model, &req.prompt, req.engine.decode_config(&req.cfg)),
    }
    .with_policy(policy);
    while stepper.step(cost) {}
    stepper.into_output().tokens
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Equal recent windows → equal decisions, regardless of how the
    /// histories were built: entries older than the policy window must
    /// not influence the decision, and rebuilding the same window from
    /// scratch reproduces it exactly.
    #[test]
    fn adaptive_decisions_are_pure_in_the_recent_window(
        base in any_base(),
        window in 1usize..12,
        shared in prop::collection::vec(
            (0usize..12, 0usize..12).prop_map(|(s, a)| (s, a.min(s))), 1..12),
        old_a in prop::collection::vec(
            (1usize..12, 0usize..12).prop_map(|(s, a)| (s, a.min(s))), 0..8),
        old_b in prop::collection::vec(
            (1usize..12, 0usize..12).prop_map(|(s, a)| (s, a.min(s))), 0..8),
    ) {
        let policy = AdaptivePolicy { window };
        // Only `window` trailing entries may matter, so prefixing
        // arbitrary old entries beyond the window cannot change the
        // decision. (shared is padded to fill the whole window with
        // identical entries.)
        let mut tail = shared.clone();
        while tail.len() < window.max(32) {
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
        let da = policy.shape(&ShapeQuery { base: &base, history: &ha, cap: None });
        let db = policy.shape(&ShapeQuery { base: &base, history: &hb, cap: None });
        prop_assert_eq!(&da, &db, "pre-window history leaked into the decision");
        // And the decision is deterministic on repeated queries.
        let again = policy.shape(&ShapeQuery { base: &base, history: &ha, cap: None });
        prop_assert_eq!(&da, &again);
        // Decisions only ever shrink the configured shape.
        prop_assert!(da.step_cost() <= base.step_cost().max(2));
    }

    /// Serving under adaptation == the serial policy-driven engine,
    /// token for token, under preemption, prefix-cache eviction, and
    /// arbitrary tick orders.
    #[test]
    fn served_equals_serial_under_adaptation(
        model in any_mlp(),
        draft_seq in prop::collection::vec(4u32..12, 12..60),
        raw in prop::collection::vec(
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
        ),
        window in 1usize..12,
        max_active in 1usize..5,
        max_batch in 1usize..4,
        order in prop_oneof![
            Just(TickOrder::RoundRobin),
            Just(TickOrder::Edf),
            any::<u64>().prop_map(TickOrder::Seeded),
        ],
        preempt in prop_oneof![Just(None), (1u64..4).prop_map(Some)],
        session_cap in prop_oneof![Just(None), (1usize..5).prop_map(Some)],
    ) {
        let mut draft = NgramLm::new(2, model.vocab_size());
        draft.train_sequence(&draft_seq);
        let cost = GpuCostModel::codellama_like();
        let policy = AdaptivePolicy { window };
        let shared: Vec<TokenId> = vec![5, 6];

        let requests: Vec<Request> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (engine, suffix, max_tokens, sampling, seed, arrival))| {
                let mut prompt = shared.clone();
                prompt.extend_from_slice(&suffix);
                let cfg = DecodeConfig { max_tokens, sampling, seed, ..Default::default() };
                Request {
                    arrival,
                    deadline: Some(arrival + 30),
                    ..Request::new(i as u64, prompt, engine, cfg)
                }
            })
            .collect();

        let expected: Vec<Vec<TokenId>> = requests
            .iter()
            .map(|r| serial_with_policy(&model, &draft, r, &cost, &policy))
            .collect();

        let cfg = ServeConfig {
            max_active,
            max_batch,
            order,
            preempt_wait: preempt,
            session_cap,
            prefix_cache: true,
            ..Default::default()
        };
        let mut engine = ServeEngine::new(&model, cfg)
            .with_draft(&draft)
            .with_policy(&policy);
        prop_assert!(engine.warm_prefix(&shared));
        for req in &requests {
            engine.submit(req.clone());
        }
        let report = engine.run(&cost);

        prop_assert_eq!(report.completions.len(), requests.len());
        for (c, want) in report.completions.iter().zip(&expected) {
            prop_assert_eq!(
                &c.output.tokens, want,
                "request {} diverged under adaptive serving", c.id
            );
            prop_assert!(c.accepted_tokens <= c.proposed_tokens);
        }
    }
}
