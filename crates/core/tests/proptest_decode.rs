//! Property tests for the decode engines using a deterministic
//! hash-driven mock language model — fast enough to explore hundreds of
//! random "models" without training anything.
//!
//! Invariants:
//! * NTP is one forward and one draw per step: `decode_ntp` equals the
//!   loop that defines it, trace and clock included;
//! * a chain is the width-1 tree: `tree: None`, `Some(vec![])` and
//!   `Some(vec![1; n_heads])` decode identically, trace and clock
//!   included;
//! * greedy speculative decoding (Medusa and Ours) is lossless: it
//!   reproduces the greedy NTP token stream exactly, for *any* model;
//! * speculative decoding never takes more steps than NTP;
//! * with syntax alignment every multi-token step ends on `[FRAG]`/EOS;
//! * token budgets are always respected.

use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use verispec_core::{decode_ntp, decode_speculative, DecodeConfig, DecodeOutput, StepTrace};
use verispec_lm::{DecodeClock, GpuCostModel, LanguageModel, Sampler, Sampling, TokenId};
use verispec_tokenizer::special;

/// A deterministic pseudo-random LM: logits are a pure function of the
/// recent prefix, a per-model seed, and the head index.
#[derive(Debug)]
struct HashLm {
    vocab: usize,
    n_heads: usize,
    seed: u64,
    /// Probability weight boost for FRAG, making fragmented streams
    /// likely (exercises the integrity check).
    frag_boost: f32,
}

impl HashLm {
    fn logits_for(&self, prefix: &[TokenId], head: usize) -> Vec<f32> {
        let mut h = DefaultHasher::new();
        self.seed.hash(&mut h);
        head.hash(&mut h);
        // Only the last 4 tokens matter: heads at different offsets look
        // at the same context, so head predictions often align with what
        // the base model later wants — realistic speculation.
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
    (8usize..40, 0usize..8, any::<u64>(), 0.0f32..6.0).prop_map(
        |(vocab, n_heads, seed, frag_boost)| HashLm {
            vocab,
            n_heads,
            seed,
            frag_boost,
        },
    )
}

/// Next-token prediction by definition: per step, the session's logits
/// at the current position, one draw, one token charged as a step that
/// speculated nothing; stop after `eos` or at the budget. A step's span
/// is complete when it ends in `[FRAG]` or `eos`.
fn ntp_by_definition(
    model: &dyn LanguageModel,
    prompt: &[TokenId],
    cfg: &DecodeConfig,
    cost: &GpuCostModel,
) -> DecodeOutput {
    let mut session = model.session();
    session.append(prompt);
    let mut sampler = Sampler::new(cfg.seed);
    let mut out = DecodeOutput {
        tokens: Vec::new(),
        steps: 0,
        clock: DecodeClock::new(),
        trace: Vec::new(),
    };
    while out.tokens.len() < cfg.max_tokens {
        let tok = sampler.sample(&session.logits(), cfg.sampling);
        out.clock.record_step(cost, 0, 1);
        out.steps += 1;
        session.append(&[tok]);
        out.tokens.push(tok);
        out.trace.push(StepTrace {
            speculated: 0,
            accepted: 1,
            truncated: 0,
            committed: 1,
            fragment_complete: tok == special::FRAG || tok == cfg.eos,
        });
        if tok == cfg.eos {
            break;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// NTP is the empty candidate tree run by the speculative step, and
    /// must still be exactly the loop that defines it — tokens, steps,
    /// simulated clock and every step-trace field — greedy, sampled and
    /// top-k, with or without the syntax check (which a one-token span
    /// always passes), its `eos` reached or its budget spent.
    #[test]
    fn ntp_is_one_forward_and_one_draw_per_step(
        model in any_model(),
        prompt in prop::collection::vec(5u32..20, 1..6),
        max_tokens in 1usize..40,
        sampling_ix in 0usize..4,
        temperature in 0.2f32..2.0,
        eos in 0u32..8,
        seed in any::<u64>(),
        syntax_aligned in any::<bool>(),
    ) {
        let cost = GpuCostModel::codellama_like();
        let sampling = match sampling_ix {
            0 => Sampling::Greedy,
            1 => Sampling::Temperature { temperature, top_k: 0 },
            2 => Sampling::Temperature { temperature, top_k: 3 },
            // Cold: nearly the arg-max, and still a draw.
            _ => Sampling::Temperature { temperature: 0.05, top_k: 0 },
        };
        let cfg = DecodeConfig {
            max_tokens,
            sampling,
            eos,
            seed,
            syntax_aligned,
            ..Default::default()
        };
        let out = decode_ntp(&model, &prompt, &cfg, &cost);
        let want = ntp_by_definition(&model, &prompt, &cfg, &cost);
        prop_assert_eq!(&out.tokens, &want.tokens);
        prop_assert_eq!(out.steps, want.steps);
        prop_assert_eq!(&out.clock, &want.clock);
        prop_assert_eq!(&out.trace, &want.trace);
    }

    /// A chain is the width-1 tree: the top-1 chain (`tree: None`), a
    /// tree without width entries and a tree of width 1 at every head
    /// are one shape and must decode identically — tokens, steps,
    /// simulated clock and every step-trace field — for Medusa and Ours,
    /// greedy and sampled, on models with no heads at all too.
    #[test]
    fn a_chain_is_the_width_one_tree(
        model in any_model(),
        prompt in prop::collection::vec(5u32..20, 1..6),
        max_tokens in 1usize..40,
        sampled in any::<bool>(),
        temperature in 0.2f32..2.0,
        seed in any::<u64>(),
        syntax_aligned in any::<bool>(),
    ) {
        let cost = GpuCostModel::codellama_like();
        let sampling = if sampled {
            Sampling::Temperature { temperature, top_k: 0 }
        } else {
            Sampling::Greedy
        };
        let cfg = DecodeConfig {
            max_tokens,
            sampling,
            seed,
            syntax_aligned,
            ..Default::default()
        };
        let chain = decode_speculative(&model, &prompt, &cfg, &cost);
        for widths in [Vec::new(), vec![1; model.n_heads]] {
            let tree_cfg = DecodeConfig { tree: Some(widths.clone()), ..cfg.clone() };
            let tree = decode_speculative(&model, &prompt, &tree_cfg, &cost);
            prop_assert_eq!(&tree.tokens, &chain.tokens, "widths {:?}", &widths);
            prop_assert_eq!(tree.steps, chain.steps);
            prop_assert_eq!(&tree.clock, &chain.clock);
            prop_assert_eq!(&tree.trace, &chain.trace);
        }
    }

    #[test]
    fn greedy_speculation_is_lossless(
        model in any_model(),
        prompt in prop::collection::vec(5u32..20, 1..6),
        max_tokens in 1usize..60,
        tree_k in 1usize..4,
    ) {
        let cost = GpuCostModel::codellama_like();
        let cfg = DecodeConfig { max_tokens, ..Default::default() };
        let ntp = decode_ntp(&model, &prompt, &cfg, &cost);
        let medusa = decode_speculative(&model, &prompt, &cfg, &cost);
        prop_assert_eq!(&ntp.tokens, &medusa.tokens, "medusa greedy must match ntp greedy");
        let ours_cfg = DecodeConfig { syntax_aligned: true, ..cfg.clone() };
        let ours = decode_speculative(&model, &prompt, &ours_cfg, &cost);
        prop_assert_eq!(&ntp.tokens, &ours.tokens, "ours greedy must match ntp greedy");
        prop_assert!(medusa.steps <= ntp.steps);
        prop_assert!(ours.steps <= ntp.steps);
        // Truncation can only shorten the span committed from a given
        // position. Only the first step starts from the same position in
        // both decoders — afterwards they diverge, and global step totals
        // are not monotone (same caveat as the tree comparison below).
        if let (Some(m0), Some(o0)) = (medusa.trace.first(), ours.trace.first()) {
            prop_assert!(
                o0.committed <= m0.committed,
                "truncation cannot lengthen a step"
            );
        }
        // Tree candidates keep losslessness too. (No global step-count
        // comparison: committing more per step moves the decoder to
        // different positions, so step totals are not monotone in the
        // candidate budget.)
        let tree_cfg = DecodeConfig { tree: Some(vec![tree_k; 3]), ..cfg };
        let tree = decode_speculative(&model, &prompt, &tree_cfg, &cost);
        prop_assert_eq!(&ntp.tokens, &tree.tokens, "tree greedy must match ntp greedy");
        prop_assert!(tree.steps <= ntp.steps);
    }

    #[test]
    fn syntax_aligned_steps_end_on_boundaries(
        model in any_model(),
        prompt in prop::collection::vec(5u32..20, 1..6),
    ) {
        let cost = GpuCostModel::codet5p_like();
        let cfg = DecodeConfig { max_tokens: 48, syntax_aligned: true, ..Default::default() };
        let out = decode_speculative(&model, &prompt, &cfg, &cost);
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
    fn budgets_and_bookkeeping_hold(
        model in any_model(),
        prompt in prop::collection::vec(5u32..20, 1..6),
        max_tokens in 1usize..50,
        temp in 0.2f32..1.5,
        seed in any::<u64>(),
    ) {
        let cost = GpuCostModel::codellama_like();
        let cfg = DecodeConfig {
            max_tokens,
            sampling: Sampling::Temperature { temperature: temp, top_k: 0 },
            seed,
            syntax_aligned: true,
            ..Default::default()
        };
        let out = decode_speculative(&model, &prompt, &cfg, &cost);
        prop_assert!(out.tokens.len() <= max_tokens);
        prop_assert_eq!(out.steps, out.trace.len());
        let committed: usize = out.trace.iter().map(|t| t.committed).sum();
        prop_assert_eq!(committed, out.tokens.len());
        prop_assert_eq!(out.clock.tokens, out.tokens.len());
        prop_assert!(out.clock.seconds > 0.0 || out.tokens.is_empty());
        // EOS, if present, is terminal.
        if let Some(pos) = out.tokens.iter().position(|&t| t == special::EOS) {
            prop_assert_eq!(pos, out.tokens.len() - 1);
        }
    }

    #[test]
    fn sampled_decode_is_reproducible(
        model in any_model(),
        prompt in prop::collection::vec(5u32..20, 1..5),
        seed in any::<u64>(),
    ) {
        let cost = GpuCostModel::codellama_like();
        let cfg = DecodeConfig {
            max_tokens: 32,
            sampling: Sampling::temperature(0.8),
            seed,
            ..Default::default()
        };
        let a = decode_speculative(&model, &prompt, &cfg, &cost);
        let b = decode_speculative(&model, &prompt, &cfg, &cost);
        prop_assert_eq!(a.tokens, b.tokens);
    }
}
