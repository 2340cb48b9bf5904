//! Property tests pinning the session/stateless equivalence contract:
//! every decoding engine must produce **token-for-token identical**
//! output whether the model is driven through its native cached
//! [`verispec_lm::DecodeSession`] or through the trait-default stateless
//! session (fresh recompute per query, forced by [`Recompute`]), across
//! random models, prompts, seeds, and configurations.
//!
//! This is the invariant the whole session layer rests on: sessions are
//! a performance mechanism, never a semantic one. The engines covered
//! are NTP, the MEDUSA top-1 chain, MEDUSA tree verification, the
//! syntax-aligned variant ("Ours") and the grammar-constrained engine —
//! under greedy decoding, temperature sampling and a `top_k` cut.
//!
//! It is also where a **carried** base row meets a **forwarded** one:
//! a MEDUSA step on the cached session opens at the row its
//! predecessor's verification left at the node the committed span
//! ended at, while the shim — whose scored rows keep no heads — forwards
//! every base position, as every engine used to.

use proptest::prelude::*;
use verispec_core::{decode_grammar_speculative, decode_ntp, decode_speculative, DecodeConfig};
use verispec_grammar::GrammarOracle;
use verispec_lm::{GpuCostModel, LanguageModel, MlpLm, MlpLmConfig, Sampling, TokenId};

/// An [`MlpLm`] behind its stateless forward only, so its sessions are
/// the trait default's fresh recompute per query.
struct Recompute<'a>(&'a MlpLm);

impl LanguageModel for Recompute<'_> {
    fn vocab_size(&self) -> usize {
        self.0.vocab_size()
    }

    fn n_extra_heads(&self) -> usize {
        self.0.n_extra_heads()
    }

    fn logits(&self, prefix: &[TokenId]) -> Vec<f32> {
        self.0.logits(prefix)
    }

    fn multi_logits(&self, prefix: &[TokenId]) -> Vec<Vec<f32>> {
        self.0.multi_logits(prefix)
    }
}

/// A random untrained MLP LM: logits are a deterministic function of
/// the init seed, so every case explores a different "model" without
/// paying for training.
fn any_mlp() -> impl Strategy<Value = MlpLm> {
    (10usize..48, 2usize..8, 1usize..7, 0usize..6, any::<u64>()).prop_map(
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

fn any_sampling() -> impl Strategy<Value = Sampling> {
    prop_oneof![
        Just(Sampling::Greedy),
        (0.2f32..1.5).prop_map(Sampling::temperature),
        (0.2f32..1.5).prop_map(|temperature| Sampling::Temperature {
            temperature,
            top_k: 3
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Session-based decode must equal the stateless shim for all the
    /// single-model engines (NTP, chain, tree, syntax-aligned, grammar)
    /// over whole generations: `eos` is a token the model does produce,
    /// so spans end in it, at the syntax check's cut and at the budget.
    #[test]
    fn session_decode_matches_stateless_shim(
        model in any_mlp(),
        prompt in prop::collection::vec(5u32..10, 1..6),
        max_tokens in 1usize..48,
        sampling in any_sampling(),
        seed in any::<u64>(),
        tree_k in 1usize..4,
        eos in 2u32..10,
    ) {
        let cost = GpuCostModel::codellama_like();
        let shim = Recompute(&model);
        let configs = [
            // NTP-adjacent chain (no tree), Medusa baseline.
            DecodeConfig { max_tokens, sampling, seed, eos, ..Default::default() },
            // Syntax-aligned ("Ours").
            DecodeConfig {
                max_tokens, sampling, seed, eos, syntax_aligned: true, ..Default::default()
            },
            // Tree verification.
            DecodeConfig {
                max_tokens, sampling, seed, eos, tree: Some(vec![tree_k; 3]), ..Default::default()
            },
            // Tree + syntax alignment combined.
            DecodeConfig {
                max_tokens, sampling, seed, eos, syntax_aligned: true,
                tree: Some(vec![tree_k; 2]), ..Default::default()
            },
        ];
        let ntp_a = decode_ntp(&model, &prompt, &configs[0], &cost);
        let ntp_b = decode_ntp(&shim, &prompt, &configs[0], &cost);
        prop_assert_eq!(&ntp_a.tokens, &ntp_b.tokens, "ntp diverged");
        prop_assert_eq!(ntp_a.steps, ntp_b.steps);
        for (ci, cfg) in configs.iter().enumerate() {
            let a = decode_speculative(&model, &prompt, cfg, &cost);
            let b = decode_speculative(&shim, &prompt, cfg, &cost);
            prop_assert_eq!(
                &a.tokens, &b.tokens,
                "speculative engine {} diverged (cfg {:?})", ci, cfg
            );
            prop_assert_eq!(a.steps, b.steps, "step counts diverged (cfg {})", ci);
            prop_assert_eq!(&a.trace, &b.trace, "traces diverged (cfg {})", ci);
            prop_assert_eq!(&a.clock, &b.clock, "clocks diverged (cfg {})", ci);
        }
        // The grammar engine over the two tree configurations: specials
        // transparent, one lethal byte so the viability filter fires.
        let bytes = (0..model.vocab_size())
            .map(|id| match id {
                0..=4 => Vec::new(),
                7 => vec![0x07],
                _ => b"a".to_vec(),
            })
            .collect();
        let oracle = GrammarOracle::new(bytes);
        for cfg in &configs[2..] {
            let a = decode_grammar_speculative(&model, &oracle, &prompt, cfg, &cost);
            let b = decode_grammar_speculative(&shim, &oracle, &prompt, cfg, &cost);
            prop_assert_eq!(&a.tokens, &b.tokens, "grammar engine diverged (cfg {:?})", cfg);
            prop_assert_eq!(&a.trace, &b.trace, "grammar traces diverged");
            prop_assert_eq!(&a.clock, &b.clock, "grammar clocks diverged");
        }
    }

    /// The raw session contract: after any interleaving of appends and
    /// rollbacks, session logits equal stateless logits of the same
    /// context, and `verify_batch` scores equal stateless forwards.
    #[test]
    fn session_state_never_drifts(
        model in any_mlp(),
        ops in prop::collection::vec((any::<bool>(), prop::collection::vec(3u32..9, 1..4)), 1..12),
        path_a in prop::collection::vec(3u32..9, 1..4),
        path_b in prop::collection::vec(3u32..9, 1..4),
    ) {
        let mut session = model.session();
        let mut reference: Vec<TokenId> = Vec::new();
        for (rollback, tokens) in &ops {
            if *rollback && !reference.is_empty() {
                let keep = reference.len() / 2;
                session.truncate(keep);
                reference.truncate(keep);
            }
            session.append(tokens);
            reference.extend_from_slice(tokens);
            prop_assert_eq!(session.tokens(), reference.as_slice());
            prop_assert_eq!(session.logits(), model.logits(&reference));
        }
        let paths: Vec<&[TokenId]> = vec![&path_a, &path_b];
        for include_bonus in [true, false] {
            let scored = session.verify_batch(&paths, include_bonus);
            for (path, rows) in paths.iter().zip(&scored) {
                prop_assert_eq!(rows.len(), path.len() + usize::from(include_bonus));
                for (j, row) in rows.iter().enumerate() {
                    let mut ctx = reference.clone();
                    ctx.extend_from_slice(&path[..j]);
                    prop_assert_eq!(row, &model.logits(&ctx), "verify_batch drift at {}", j);
                }
            }
            // verify_batch must leave the session context untouched.
            prop_assert_eq!(session.tokens(), reference.as_slice());
        }
    }
}
