//! Classical draft-model speculative decoding (Leviathan et al. 2023,
//! paper §II-C background).
//!
//! A cheap *draft* model proposes a block of `gamma` tokens; the *target*
//! model verifies them with the rejection rule that preserves the target
//! distribution exactly:
//!
//! * accept draft token `x` with probability `min(1, p(x)/q(x))`;
//! * on the first rejection, resample from `normalize(max(0, p − q))`;
//! * if every draft token is accepted, sample one bonus token from `p`.
//!
//! Both models are driven through persistent
//! [`verispec_lm::DecodeSession`]s: the draft session extends
//! incrementally while proposing, the target scores the verification
//! positions one at a time, in order, each only once the proposal
//! before it was accepted (the block is a one-path candidate tree; a
//! GPU would score all `γ + 1` positions in one forward, which is what
//! the simulated clock charges), and both sessions roll back to the
//! committed prefix on rejection.
//!
//! VeriSpec uses the n-gram model as the draft and the MLP as the target.
//! This engine exists as the paper's point of comparison for why MEDUSA
//! heads (no separate draft model to maintain) are preferable. Its
//! budgets, statistics and determinism are pinned by
//! `tests/proptest_draft.rs`, and its served requests equal this serial
//! engine (`verispec-serve`'s served == serial tests).

use crate::decode::{run_serial, DecodeOutput};
use crate::step::Engine;
use serde::{Deserialize, Serialize};
use verispec_lm::{GpuCostModel, LanguageModel, TokenId};
use verispec_tokenizer::special;

/// Configuration for draft-model speculative decoding.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DraftConfig {
    /// Number of tokens the draft model proposes per step.
    pub gamma: usize,
    /// Maximum generated tokens.
    pub max_tokens: usize,
    /// Sampling temperature applied to both models (1.0 = untempered).
    pub temperature: f32,
    /// End-of-sequence token.
    pub eos: TokenId,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DraftConfig {
    fn default() -> Self {
        Self {
            gamma: 4,
            max_tokens: 256,
            temperature: 1.0,
            eos: special::EOS,
            seed: 0,
        }
    }
}

/// Statistics of a draft-speculative run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DraftStats {
    /// Draft tokens proposed in total.
    pub proposed: usize,
    /// Draft tokens accepted by the target.
    pub accepted: usize,
}

impl DraftStats {
    /// Fraction of proposed tokens accepted.
    pub fn acceptance_rate(&self) -> f64 {
        if self.proposed == 0 {
            0.0
        } else {
            self.accepted as f64 / self.proposed as f64
        }
    }
}

pub(crate) fn tempered(probs: &mut [f32], temperature: f32) {
    if (temperature - 1.0).abs() < f32::EPSILON {
        return;
    }
    for p in probs.iter_mut() {
        *p = p.max(f32::MIN_POSITIVE).powf(1.0 / temperature);
    }
    let sum: f32 = probs.iter().sum();
    probs.iter_mut().for_each(|p| *p /= sum);
}

/// Runs draft-model speculative decoding ([`Engine::Draft`] run
/// serially); returns the decode output and acceptance statistics.
///
/// # Panics
///
/// Panics if `cfg.gamma == 0`.
pub fn decode_draft_speculative(
    target: &dyn LanguageModel,
    draft: &dyn LanguageModel,
    prompt: &[TokenId],
    cfg: &DraftConfig,
    cost: &GpuCostModel,
) -> (DecodeOutput, DraftStats) {
    let stepper = run_serial(target, Engine::Draft(*cfg, draft), prompt, cost);
    let stats = stepper.draft_stats().expect("draft stepper tracks stats");
    (stepper.into_output(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use verispec_lm::NgramLm;

    fn cyclic_ngram(order: usize, vocab: usize, period: usize) -> NgramLm {
        let mut lm = NgramLm::new(order, vocab);
        let seq: Vec<TokenId> = (0..200).map(|i| 6 + (i % period) as TokenId).collect();
        lm.train_sequence(&seq);
        lm
    }

    #[test]
    fn identical_models_accept_almost_everything() {
        let target = cyclic_ngram(3, 12, 3);
        let draft = cyclic_ngram(3, 12, 3);
        let cfg = DraftConfig {
            max_tokens: 40,
            ..Default::default()
        };
        let (out, stats) = decode_draft_speculative(
            &target,
            &draft,
            &[6, 7, 8],
            &cfg,
            &GpuCostModel::codellama_like(),
        );
        assert_eq!(out.tokens.len(), 40);
        assert!(
            stats.acceptance_rate() > 0.9,
            "identical models should agree: {}",
            stats.acceptance_rate()
        );
        assert!(out.steps < 40, "speculation must save steps");
    }

    #[test]
    fn weak_draft_still_produces_target_like_text() {
        let target = cyclic_ngram(3, 12, 3);
        let draft = NgramLm::new(1, 12); // untrained, uniform-ish
        let cfg = DraftConfig {
            max_tokens: 30,
            seed: 4,
            ..Default::default()
        };
        let (out, stats) = decode_draft_speculative(
            &target,
            &draft,
            &[6, 7, 8],
            &cfg,
            &GpuCostModel::codellama_like(),
        );
        assert_eq!(out.tokens.len(), 30);
        assert!(
            stats.acceptance_rate() < 0.9,
            "uniform draft should get rejected often"
        );
        // Output should mostly follow the target's cycle 6,7,8.
        let in_cycle = out.tokens.iter().filter(|&&t| (6..=8).contains(&t)).count();
        assert!(in_cycle as f64 > 0.8 * out.tokens.len() as f64);
    }

    #[test]
    fn deterministic_given_seed() {
        let target = cyclic_ngram(3, 12, 4);
        let draft = cyclic_ngram(2, 12, 4);
        let cfg = DraftConfig {
            max_tokens: 25,
            seed: 9,
            ..Default::default()
        };
        let cost = GpuCostModel::codellama_like();
        let (a, _) = decode_draft_speculative(&target, &draft, &[6], &cfg, &cost);
        let (b, _) = decode_draft_speculative(&target, &draft, &[6], &cfg, &cost);
        assert_eq!(a.tokens, b.tokens);
    }

    #[test]
    fn respects_max_tokens() {
        let target = cyclic_ngram(3, 12, 3);
        let draft = cyclic_ngram(3, 12, 3);
        let cfg = DraftConfig {
            max_tokens: 7,
            gamma: 5,
            ..Default::default()
        };
        let (out, _) =
            decode_draft_speculative(&target, &draft, &[6], &cfg, &GpuCostModel::codellama_like());
        assert!(out.tokens.len() <= 7);
    }

    #[test]
    fn acceptance_rate_handles_empty() {
        assert_eq!(DraftStats::default().acceptance_rate(), 0.0);
    }
}
