//! Property tests for the grammar-constrained speculative engine.
//!
//! Invariants:
//! * under greedy decoding with a fully-permissive oracle the grammar
//!   engine is lossless: identical token stream to NTP (and hence to
//!   Medusa/Ours) — the viability filter changes which candidates are
//!   offered, never which greedy tokens get committed;
//! * an all-lethal vocabulary (no informative token ever viable; the
//!   recovering advance keeps resetting the state) degrades the engine
//!   to plain syntax-aligned speculation: still lossless;
//! * the per-step filter record adds up (every token tested was
//!   rejected or named), and every step is charged its shape;
//! * sampled grammar decoding is seed-reproducible.

use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use verispec_core::{decode_grammar_speculative, decode_ntp, DecodeConfig, Engine, Stepper};
use verispec_grammar::GrammarOracle;
use verispec_lm::{GpuCostModel, LanguageModel, Sampling, TokenId};
use verispec_tokenizer::special;

/// Deterministic pseudo-random LM (same construction as
/// `proptest_decode.rs`): logits are a pure function of the recent
/// prefix, a per-model seed, and the head index.
#[derive(Debug)]
struct HashLm {
    vocab: usize,
    n_heads: usize,
    seed: u64,
    frag_boost: f32,
}

impl HashLm {
    fn logits_for(&self, prefix: &[TokenId], head: usize) -> Vec<f32> {
        let mut h = DefaultHasher::new();
        self.seed.hash(&mut h);
        head.hash(&mut h);
        for t in prefix.iter().rev().take(4) {
            t.hash(&mut h);
        }
        let base = h.finish();
        (0..self.vocab)
            .map(|v| {
                let mut hv = DefaultHasher::new();
                base.hash(&mut hv);
                v.hash(&mut hv);
                let raw = (hv.finish() % 1000) as f32 / 125.0;
                if v as TokenId == special::FRAG {
                    raw + self.frag_boost
                } else {
                    raw
                }
            })
            .collect()
    }
}

impl LanguageModel for HashLm {
    fn vocab_size(&self) -> usize {
        self.vocab
    }

    fn n_extra_heads(&self) -> usize {
        self.n_heads
    }

    fn logits(&self, prefix: &[TokenId]) -> Vec<f32> {
        self.logits_for(prefix, 0)
    }

    fn multi_logits(&self, prefix: &[TokenId]) -> Vec<Vec<f32>> {
        (0..=self.n_heads)
            .map(|h| self.logits_for(prefix, h))
            .collect()
    }
}

fn any_model() -> impl Strategy<Value = HashLm> {
    (8usize..40, 1usize..8, any::<u64>(), 0.0f32..6.0).prop_map(
        |(vocab, n_heads, seed, frag_boost)| HashLm {
            vocab,
            n_heads,
            seed,
            frag_boost,
        },
    )
}

/// An oracle where every non-special token is a benign identifier byte:
/// nothing is ever non-viable, so filtering is a no-op and only the
/// dead-tail prune + widening distinguish the engine from plain "Ours".
fn permissive_oracle(vocab: usize) -> GrammarOracle {
    let bytes = (0..vocab)
        .map(|id| if id < 5 { Vec::new() } else { b"a".to_vec() })
        .collect();
    GrammarOracle::new(bytes)
}

/// An oracle where every non-special token is a lethal control byte:
/// the recovering advance resets the state after each kill, and no
/// informative token is ever viable — exercising the documented
/// degradation where the engine keeps the model's own draws.
fn lethal_oracle(vocab: usize) -> GrammarOracle {
    let bytes = (0..vocab)
        .map(|id| if id < 5 { Vec::new() } else { vec![0x07] })
        .collect();
    GrammarOracle::new(bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn grammar_greedy_is_lossless_permissive_and_dead(
        model in any_model(),
        prompt in prop::collection::vec(5u32..20, 1..6),
        max_tokens in 1usize..60,
        tree_k in 1usize..4,
    ) {
        let cost = GpuCostModel::codellama_like();
        let cfg = DecodeConfig {
            max_tokens,
            tree: Some(vec![tree_k; 3]),
            ..Default::default()
        };
        let ntp = decode_ntp(&model, &prompt, &cfg, &cost);

        let permissive = permissive_oracle(model.vocab.max(20));
        let g = decode_grammar_speculative(&model, &permissive, &prompt, &cfg, &cost);
        prop_assert_eq!(&ntp.tokens, &g.tokens, "grammar greedy must match ntp greedy");
        prop_assert!(g.steps <= ntp.steps);

        // Cover the whole prompt token range (prompt ids can exceed the
        // model vocab): out-of-range ids are byte-free to the oracle and
        // would leave the "lethal" state alive.
        let lethal = lethal_oracle(model.vocab.max(20));
        let d = decode_grammar_speculative(&model, &lethal, &prompt, &cfg, &cost);
        prop_assert_eq!(&ntp.tokens, &d.tokens, "dead-state grammar must match ntp greedy");
        prop_assert!(d.steps <= ntp.steps);
    }

    #[test]
    fn grammar_steps_end_on_boundaries(
        model in any_model(),
        prompt in prop::collection::vec(5u32..20, 1..6),
    ) {
        let cost = GpuCostModel::codet5p_like();
        // syntax_aligned is forced on by the constructor even when the
        // config leaves it off.
        let cfg = DecodeConfig { max_tokens: 48, tree: Some(vec![2, 2]), ..Default::default() };
        let oracle = permissive_oracle(model.vocab.max(20));
        let out = decode_grammar_speculative(&model, &oracle, &prompt, &cfg, &cost);
        for (i, (st, span)) in out.trace.iter().zip(out.spans()).enumerate() {
            if span.len() > 1 && i + 1 < out.trace.len() {
                prop_assert!(
                    st.fragment_complete,
                    "step {i} committed {:?} without boundary",
                    span
                );
            }
        }
    }

    #[test]
    fn prune_record_is_consistent_and_within_budget(
        model in any_model(),
        prompt in prop::collection::vec(5u32..20, 1..6),
        tree_k in 1usize..4,
        seed in any::<u64>(),
    ) {
        let cost = GpuCostModel::codellama_like();
        let cfg = DecodeConfig {
            max_tokens: 40,
            tree: Some(vec![tree_k; 3]),
            seed,
            ..Default::default()
        };
        let oracle = permissive_oracle(model.vocab.max(20));
        let engine = Engine::Grammar(cfg, &oracle);
        let mut stepper = Stepper::new(&model, engine, model.session(), &prompt);
        while stepper.step(&cost) {
            let record = stepper.last_prune().expect("grammar steppers record what they filter");
            let step = stepper.output().trace.last().expect("stepped");
            // Every ranked token the filter tested it either rejected
            // or named.
            prop_assert_eq!(record.considered, record.pruned + record.surviving);
            // One charge rule: the step is charged its shape, whatever
            // the filter named and wherever acceptance stopped.
            prop_assert_eq!(step.speculated, stepper.last_shape().candidate_tokens());
        }
        prop_assert!(stepper.output().tokens.len() <= 40);
    }

    #[test]
    fn sampled_grammar_decode_is_reproducible(
        model in any_model(),
        prompt in prop::collection::vec(5u32..20, 1..5),
        seed in any::<u64>(),
    ) {
        let cost = GpuCostModel::codellama_like();
        let cfg = DecodeConfig {
            max_tokens: 32,
            sampling: Sampling::temperature(0.8),
            tree: Some(vec![2, 2]),
            seed,
            ..Default::default()
        };
        let oracle = permissive_oracle(model.vocab.max(20));
        let a = decode_grammar_speculative(&model, &oracle, &prompt, &cfg, &cost);
        let b = decode_grammar_speculative(&model, &oracle, &prompt, &cfg, &cost);
        prop_assert_eq!(a.tokens, b.tokens);
    }
}
