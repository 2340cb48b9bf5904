//! Typical acceptance (paper Eq. 1, following MEDUSA).
//!
//! A speculated token `x` is accepted when the base model assigns it
//! probability above an entropy-dependent threshold:
//!
//! ```text
//! p_base(x | ctx) > min(ε, δ · exp(−H(p_base(· | ctx))))
//! ```
//!
//! so that in low-entropy (confident) contexts only near-argmax tokens
//! pass, while in high-entropy contexts the bar drops and more diverse
//! speculation survives. A token is committed only if the criterion holds
//! for it **and every preceding speculated token** (enforced by the
//! decode loop's first-rejection cutoff).

use serde::{Deserialize, Serialize};
use verispec_lm::matrix::{entropy, support_entropy};
use verispec_lm::TokenId;

/// Parameters of the typical-acceptance criterion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TypicalAcceptance {
    /// Hard probability cap `ε`.
    pub epsilon: f32,
    /// Entropy scaling coefficient `δ`.
    pub delta: f32,
}

impl Default for TypicalAcceptance {
    /// MEDUSA's published defaults (ε = 0.09, δ = 0.3).
    fn default() -> Self {
        Self {
            epsilon: 0.09,
            delta: 0.3,
        }
    }
}

impl TypicalAcceptance {
    /// The acceptance threshold for a base-model distribution.
    pub fn threshold(&self, probs: &[f32]) -> f32 {
        self.threshold_at(entropy(probs))
    }

    /// [`TypicalAcceptance::threshold`] for a tempered distribution held
    /// as its support ([`verispec_lm::matrix::tempered_support_into`]'s
    /// entries and `sum`): the bit the dense row gives.
    pub fn threshold_on_support(&self, support: &[(TokenId, f32)], sum: f32) -> f32 {
        self.threshold_at(support_entropy(support, sum))
    }

    /// Eq. 1's right-hand side at entropy `h`.
    fn threshold_at(&self, h: f32) -> f32 {
        self.epsilon.min(self.delta * (-h).exp())
    }

    /// Whether `token` passes Eq. 1 under the base distribution `probs`.
    pub fn accepts(&self, probs: &[f32], token: TokenId) -> bool {
        probs[token as usize] > self.threshold(probs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confident_distribution_accepts_only_top_token() {
        let acc = TypicalAcceptance::default();
        // Near-deterministic distribution: entropy ~ 0, threshold ~ min(ε, δ).
        let probs = vec![0.97f32, 0.01, 0.01, 0.01];
        assert!(acc.accepts(&probs, 0));
        assert!(!acc.accepts(&probs, 1));
    }

    #[test]
    fn uniform_distribution_accepts_everything_with_enough_entropy() {
        let acc = TypicalAcceptance::default();
        // Uniform over 64: H = ln 64 ≈ 4.16, δ·e^{-H} ≈ 0.3/64 ≈ 0.0047.
        let probs = vec![1.0f32 / 64.0; 64];
        // Every token has p = 1/64 ≈ 0.0156 > 0.0047.
        assert!(acc.accepts(&probs, 0));
        assert!(acc.accepts(&probs, 63));
    }

    #[test]
    fn threshold_is_capped_by_epsilon() {
        let acc = TypicalAcceptance {
            epsilon: 0.05,
            delta: 10.0,
        };
        let probs = vec![0.9f32, 0.1];
        assert!(acc.threshold(&probs) <= 0.05);
    }

    #[test]
    fn zero_probability_token_never_accepted() {
        let acc = TypicalAcceptance::default();
        let probs = vec![0.5f32, 0.5, 0.0];
        assert!(!acc.accepts(&probs, 2));
    }

    #[test]
    fn stricter_epsilon_rejects_more() {
        let lax = TypicalAcceptance {
            epsilon: 0.001,
            delta: 0.3,
        };
        let strict = TypicalAcceptance {
            epsilon: 0.2,
            delta: 3.0,
        };
        // Borderline token with p = 0.1 under a moderately peaked dist.
        let probs = vec![0.8f32, 0.1, 0.05, 0.05];
        assert!(lax.accepts(&probs, 1));
        assert!(!strict.accepts(&probs, 1));
    }
}
