//! Interpolated back-off n-gram language model.
//!
//! No decoding pipeline uses it: it is a fast, deterministic stand-in
//! LM for tests. It has no Medusa heads and no native session, so it
//! exercises the trait-default [`crate::LanguageModel::session`] path
//! and the engines' zero-head corner. `verispec-core`'s unit tests and
//! the `verispec-serve` / `verispec-load` integration tests use it
//! across crate boundaries, which is why it stays public: moving it to
//! a test-support module would take a cargo feature to export it.
//!
//! Probabilities interpolate maximum-likelihood estimates of all orders
//! with Jelinek-Mercer smoothing:
//! `p(t|ctx) = Σ_k w_k · p_ML(t | last k tokens)`, backing off to a
//! uniform floor so every token has nonzero probability.

use crate::mlp::TokenId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Interpolated back-off n-gram model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NgramLm {
    order: usize,
    vocab: usize,
    /// `counts[k]` maps a length-`k` context to (next-token counts, total).
    counts: Vec<HashMap<Vec<TokenId>, ContextCounts>>,
    /// Interpolation weight per order (higher order first).
    lambda: f32,
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct ContextCounts {
    next: HashMap<TokenId, u32>,
    total: u32,
}

impl NgramLm {
    /// Creates an untrained model of the given order (max context length).
    ///
    /// # Panics
    ///
    /// Panics if `order == 0` or `vocab < 2`.
    pub fn new(order: usize, vocab: usize) -> Self {
        assert!(order >= 1, "order must be at least 1");
        assert!(vocab >= 2, "vocab must be at least 2");
        Self {
            order,
            vocab,
            counts: (0..order).map(|_| HashMap::new()).collect(),
            lambda: 0.7,
        }
    }

    /// Maximum context length used.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab
    }

    /// Accumulates counts from one token sequence.
    pub fn train_sequence(&mut self, tokens: &[TokenId]) {
        for pos in 0..tokens.len().saturating_sub(1) {
            let next = tokens[pos + 1];
            for k in 0..self.order {
                if pos + 1 < k {
                    break;
                }
                let ctx: Vec<TokenId> = tokens[pos + 1 - k..=pos].to_vec();
                let e = self.counts[k].entry(ctx).or_default();
                *e.next.entry(next).or_insert(0) += 1;
                e.total += 1;
            }
        }
    }

    /// Trains on a corpus of sequences.
    pub fn train<'a>(&mut self, corpus: impl IntoIterator<Item = &'a [TokenId]>) {
        for seq in corpus {
            self.train_sequence(seq);
        }
    }

    /// Full next-token distribution for a prefix.
    pub fn distribution(&self, prefix: &[TokenId]) -> Vec<f32> {
        // Start from the uniform floor, then blend in each order from
        // shortest to longest with weight `lambda` for the longer order.
        let mut probs = vec![1.0f32 / self.vocab as f32; self.vocab];
        for k in 0..self.order {
            if prefix.len() < k {
                break;
            }
            let ctx = &prefix[prefix.len() - k..];
            let Some(cc) = self.counts[k].get(ctx) else {
                continue;
            };
            if cc.total == 0 {
                continue;
            }
            let lam = self.lambda;
            probs.iter_mut().for_each(|p| *p *= 1.0 - lam);
            for (&tok, &cnt) in &cc.next {
                probs[tok as usize] += lam * cnt as f32 / cc.total as f32;
            }
        }
        probs
    }

    /// Base-head logits for a prefix: elementwise log of
    /// [`NgramLm::distribution`] (softmax recovers the distribution).
    pub fn logits(&self, prefix: &[TokenId]) -> Vec<f32> {
        self.distribution(prefix)
            .into_iter()
            .map(|p| p.max(f32::MIN_POSITIVE).ln())
            .collect()
    }

    /// Probability of `token` following `prefix`.
    pub fn prob(&self, prefix: &[TokenId], token: TokenId) -> f32 {
        self.distribution(prefix)[token as usize]
    }

    /// Natural-log probability of `token` following `prefix`.
    pub fn log_prob(&self, prefix: &[TokenId], token: TokenId) -> f32 {
        self.prob(prefix, token).max(f32::MIN_POSITIVE).ln()
    }

    /// Average negative log-likelihood (nats/token) over a sequence.
    pub fn nll(&self, tokens: &[TokenId]) -> f32 {
        if tokens.len() < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        for pos in 0..tokens.len() - 1 {
            total -= self.log_prob(&tokens[..=pos], tokens[pos + 1]);
        }
        total / (tokens.len() - 1) as f32
    }

    /// Number of distinct contexts stored at order `k`.
    pub fn context_count(&self, k: usize) -> usize {
        self.counts.get(k).map_or(0, HashMap::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cyclic(vocab: usize, len: usize) -> Vec<TokenId> {
        (0..len).map(|i| (i % (vocab - 1) + 1) as TokenId).collect()
    }

    #[test]
    fn distribution_sums_to_one() {
        let mut lm = NgramLm::new(3, 10);
        lm.train_sequence(&cyclic(10, 50));
        for prefix in [vec![], vec![1], vec![1, 2], vec![9, 9, 9]] {
            let d = lm.distribution(&prefix);
            let sum: f32 = d.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "prefix {prefix:?} sums to {sum}");
        }
    }

    #[test]
    fn learns_deterministic_cycle() {
        let mut lm = NgramLm::new(3, 6);
        lm.train_sequence(&cyclic(6, 100));
        // After [1,2] the cycle continues with 3.
        assert!(lm.prob(&[1, 2], 3) > 0.9);
        assert!(lm.prob(&[1, 2], 4) < 0.05);
    }

    #[test]
    fn unseen_context_backs_off_to_uniformish() {
        let mut lm = NgramLm::new(3, 8);
        lm.train_sequence(&cyclic(8, 60));
        let d = lm.distribution(&[7, 7]); // unseen bigram context
                                          // Unigram statistics still apply, but nothing should be zero.
        assert!(d.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn untrained_model_is_uniform() {
        let lm = NgramLm::new(2, 4);
        let d = lm.distribution(&[1]);
        for p in d {
            assert!((p - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn higher_order_beats_lower_on_structured_data() {
        let seq = cyclic(6, 200);
        let mut uni = NgramLm::new(1, 6);
        uni.train_sequence(&seq);
        let mut tri = NgramLm::new(3, 6);
        tri.train_sequence(&seq);
        assert!(tri.nll(&seq) < uni.nll(&seq));
    }

    #[test]
    fn context_counts_grow_with_order() {
        let mut lm = NgramLm::new(3, 6);
        lm.train_sequence(&cyclic(6, 100));
        assert_eq!(
            lm.context_count(0),
            1,
            "order 0 has the single empty context"
        );
        assert!(lm.context_count(1) >= 5);
        assert!(lm.context_count(2) >= 5);
    }

    #[test]
    fn nll_decreases_with_training_data() {
        let seq = cyclic(6, 30);
        let mut a = NgramLm::new(2, 6);
        a.train_sequence(&seq[..10]);
        let mut b = NgramLm::new(2, 6);
        b.train_sequence(&seq);
        assert!(b.nll(&seq) <= a.nll(&seq) + 1e-3);
    }

    #[test]
    #[should_panic(expected = "order must be at least 1")]
    fn zero_order_panics() {
        let _ = NgramLm::new(0, 4);
    }
}
