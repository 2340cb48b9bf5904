//! Property tests pinning the serving invariant: for random request
//! mixes (engines, prompts, budgets, seeds, sampling), random scheduler
//! configurations (tick order, batch size, pool size, preemption,
//! session-eviction caps), and prefix-cached admissions, every served
//! request's output is
//! **token-for-token identical** to running the serial single-session
//! engine (`decode_ntp` / `decode_speculative`) on it alone — and no request starves
//! (every request completes, with its service gap within the
//! scheduler's aging bound).

use proptest::prelude::*;
use verispec_core::{decode_ntp, decode_speculative, DecodeConfig, DecodeOutput};
use verispec_lm::{GpuCostModel, MlpLm, MlpLmConfig, Sampling, TokenId};
use verispec_serve::{EngineChoice, Request, Scheduler, ServeConfig, ServeEngine, TickOrder};

fn any_mlp() -> impl Strategy<Value = MlpLm> {
    (12usize..32, 2usize..8, 2usize..6, 0usize..5, any::<u64>()).prop_map(
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
    ]
}

fn any_sampling() -> impl Strategy<Value = Sampling> {
    prop_oneof![
        Just(Sampling::Greedy),
        (0.3f32..1.2).prop_map(Sampling::temperature),
    ]
}

fn any_order() -> impl Strategy<Value = TickOrder> {
    prop_oneof![
        Just(TickOrder::RoundRobin),
        any::<u64>().prop_map(TickOrder::Seeded),
    ]
}

/// Per-request raw material: ((engine, prompt suffix, max_tokens),
/// (sampling, seed, arrival, share_prefix)).
type RawRequest = (
    (EngineChoice, Vec<TokenId>, usize),
    (Sampling, u64, u64, bool),
);

fn any_requests() -> impl Strategy<Value = Vec<RawRequest>> {
    prop::collection::vec(
        (
            (
                any_engine(),
                prop::collection::vec(4u32..10, 1..4),
                1usize..20,
            ),
            (any_sampling(), any::<u64>(), 0u64..6, any::<bool>()),
        ),
        1..7,
    )
}

fn serial_reference(model: &MlpLm, req: &Request, cost: &GpuCostModel) -> DecodeOutput {
    match &req.engine {
        EngineChoice::Ntp => decode_ntp(
            model,
            &req.prompt,
            &req.engine.decode_config(&req.cfg),
            cost,
        ),
        _ => decode_speculative(
            model,
            &req.prompt,
            &req.engine.decode_config(&req.cfg),
            cost,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Served == serial, token for token, under arbitrary scheduling.
    #[test]
    fn served_outputs_equal_serial_and_nobody_starves(
        model in any_mlp(),
        raw in any_requests(),
        max_active in 1usize..5,
        max_batch in 1usize..4,
        order in any_order(),
        preempt in prop_oneof![Just(None), (1u64..4).prop_map(Some)],
        session_cap in prop_oneof![Just(None), (1usize..6).prop_map(Some)],
        prefix_cache in any::<bool>(),
    ) {
        let cost = GpuCostModel::codellama_like();

        // Requests share a common two-token prompt prefix, warmed into
        // the prefix cache when it is on.
        let shared: Vec<TokenId> = vec![5, 6];
        let requests: Vec<Request> = raw
            .into_iter()
            .enumerate()
            .map(|(i, ((engine, suffix, max_tokens), (sampling, seed, arrival, _)))| {
                let mut prompt = shared.clone();
                prompt.extend_from_slice(&suffix);
                let cfg = DecodeConfig { max_tokens, sampling, seed, ..Default::default() };
                Request { arrival, ..Request::new(i as u64, prompt, engine, cfg) }
            })
            .collect();

        let serve_cfg = ServeConfig {
            max_active,
            max_batch,
            order,
            preempt_wait: preempt,
            session_cap,
            prefix_cache,
            ..Default::default()
        };
        let mut engine = ServeEngine::new(&model, serve_cfg);
        prop_assert_eq!(engine.warm_prefix(&shared), prefix_cache);
        for req in &requests {
            engine.submit(req.clone());
        }
        let report = engine.run(&cost);

        // Everyone completes (no starvation, no lost requests).
        prop_assert_eq!(report.completions.len(), requests.len());
        let bound = Scheduler::new(order, max_active, max_batch).starvation_bound();
        for (c, req) in report.completions.iter().zip(&requests) {
            let want = serial_reference(&model, req, &cost);
            prop_assert_eq!(c.id, req.id);
            prop_assert_eq!(
                &c.output.tokens, &want.tokens,
                "request {} tokens diverged from serial", req.id
            );
            prop_assert_eq!(c.output.steps, want.steps, "request {} steps", req.id);
            prop_assert_eq!(&c.output.trace, &want.trace, "request {} trace", req.id);
            prop_assert!(
                c.max_service_gap <= bound + max_active as u64,
                "request {} service gap {} exceeds aging bound {}",
                req.id, c.max_service_gap, bound
            );
        }
    }

    /// Prefix-cached admission == uncached serial, token for token:
    /// random prompt sets with forced shared stems (Zipf-ish: most
    /// prompts extend one of two stems), tight session caps driving
    /// LRU eviction churn, paced ingestion, and the full engine /
    /// sampling / tick-order space. The cache must change scheduling
    /// only — never a single token, step count, or trace entry.
    #[test]
    fn cached_admission_is_bit_identical_to_uncached(
        model in any_mlp(),
        raw in any_requests(),
        max_active in 1usize..5,
        max_batch in 1usize..4,
        order in any_order(),
        session_cap in prop_oneof![Just(None), (1usize..6).prop_map(Some)],
        ingest_rate in prop_oneof![Just(None), (1usize..4).prop_map(Some)],
    ) {
        let cost = GpuCostModel::codellama_like();

        // Two forced stems: the `share` bit picks which one each
        // request extends, so stems repeat across the set and the trie
        // sees hits, splits, and (under the tight caps) evictions.
        let stems: [Vec<TokenId>; 2] = [vec![5, 6, 7, 8], vec![5, 6, 9]];
        let requests: Vec<Request> = raw
            .into_iter()
            .enumerate()
            .map(|(i, ((engine, suffix, max_tokens), (sampling, seed, arrival, share)))| {
                let mut prompt = stems[usize::from(share)].clone();
                prompt.extend_from_slice(&suffix);
                let cfg = DecodeConfig { max_tokens, sampling, seed, ..Default::default() };
                Request { arrival, ..Request::new(i as u64, prompt, engine, cfg) }
            })
            .collect();

        let serve_cfg = ServeConfig {
            max_active,
            max_batch,
            order,
            session_cap,
            prefix_cache: true,
            ingest_rate,
            ..Default::default()
        };
        let mut engine = ServeEngine::new(&model, serve_cfg);
        for req in &requests {
            engine.submit(req.clone());
        }
        let report = engine.run(&cost);

        prop_assert_eq!(report.completions.len(), requests.len());
        // Every admission went through the cache, and under a session
        // cap the trie never outgrew its residency charge.
        prop_assert_eq!(
            report.stats.prefix_hits + report.stats.prefix_misses,
            requests.len(),
            "every fresh admission is a cache lookup"
        );
        if let Some(cap) = session_cap {
            prop_assert!(
                report.stats.peak_resident_nodes <= cap.max(1) + requests.len(),
                "cache residency {} blew past cap {}",
                report.stats.peak_resident_nodes, cap
            );
        }
        for (c, req) in report.completions.iter().zip(&requests) {
            let want = serial_reference(&model, req, &cost);
            prop_assert_eq!(c.id, req.id);
            prop_assert_eq!(
                &c.output.tokens, &want.tokens,
                "request {} tokens diverged from uncached serial", req.id
            );
            prop_assert_eq!(c.output.steps, want.steps, "request {} steps", req.id);
            prop_assert_eq!(&c.output.trace, &want.trace, "request {} trace", req.id);
        }
    }
}
