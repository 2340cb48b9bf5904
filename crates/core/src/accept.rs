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
//!
//! # Rejecting without the entropy
//!
//! A distribution on `n` points has `H ≤ ln n`, so `δ·e^(−H) ≥ δ/n`: a
//! candidate with `p ≤ ε` and `p ≤ δ/n` fails Eq. 1 whatever the
//! entropy is. Once sampling is cold that is nearly every candidate
//! that is not the node's favourite — a runner-up at 10⁻¹⁵ sits twelve
//! orders of magnitude under any threshold Eq. 1 can produce — and the
//! `n` logarithms of [`TypicalAcceptance::threshold_on_support`] are
//! taken only to learn it. The decode step
//! (`NodeAccept::accepts` in `step.rs`) therefore asks
//! `TypicalAcceptance::rejects_on_bound` first and evaluates the
//! entropy only for a candidate the bound cannot decide.
//!
//! The bound must agree with the threshold the code *computes*,
//! `ε.min(δ · (−H_f).exp())` in `f32`, not with the real-number one, so
//! it is taken with a factor two to spare, `2·n·p ≤ δ`, and the factor
//! is argued (`u = 2⁻²⁴`, `n` the support's length):
//!
//! * The support's `sum` is an `f32` sum of the positive `e_i`, so it is
//!   within `n·u` (relative) of exact, and — float addition of
//!   non-negatives being monotone — `sum ≥ e_i`: every
//!   `p_i = fl(e_i / sum) ≤ 1`, each within `u` of `e_i / sum` (a
//!   subnormal `p_i` within `2⁻¹⁵⁰`), hence `S = Σ p_i` is within
//!   `(n + 1)·u` of 1.
//! * Non-negative `p_i ≤ 1` summing to `S` have
//!   `−Σ p_i·ln p_i ≤ S·ln n − S·ln S ≤ ln n + (n + 1)·u·(ln n + 1)`
//!   (`−S·ln S ≤ 1 − S` below 1, `≤ 0` above it).
//! * Each computed term `fl(−p_i · fl(ln p_i))` is non-negative and
//!   within `3·u` of exact (`ln` to an ulp, one multiply), and an
//!   `n`-term `f32` sum of non-negatives is within `n·u` of exact.
//!
//! Together `H_f ≤ ln n + (2n + 5)·u·ln n + (n + 1)·u`: `ln n + 0.0004`
//! at this repo's 480-token vocabulary, under `ln n + 0.01` up to 8 192
//! and under `ln n + 0.1` at `BOUND_MAX_SUPPORT` (2¹⁶). Then
//! `fl(e^(−H_f)) ≥ 0.9/n` and, the product being a normal `f32`,
//! `fl(δ · fl(e^(−H_f))) ≥ 0.9·δ/n`, while `fl(2n·p) ≤ δ` gives
//! `p ≤ (1 + 2u)·δ/(2n)`. So `p ≤ 0.51·δ/n < 0.9·δ/n ≤` the computed
//! `δ·e^(−H)`, and with `p ≤ ε` the computed Eq. 1 says `false` too.
//!
//! The bound is taken only where that argument holds: `p ≤ ε` (which
//! needs `ε ≥ 0`, a probability being non-negative); `δ/(2n)` a normal
//! `f32`, so `δ > 0` and the product above rounds relatively — a zero,
//! negative, subnormal or NaN `δ` goes to the entropy as before; and
//! `1 ≤ n ≤ BOUND_MAX_SUPPORT`. It is not a mode: a candidate it
//! cannot decide takes exactly the code it would have taken without it,
//! and `step::tests::node_acceptance_matches_the_full_row_definition`
//! with `step::tests::node_acceptance_matches_the_definition_on_random_rows`
//! pin every answer to the dense definition.

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

/// The widest support [`TypicalAcceptance::rejects_on_bound`] decides:
/// past it the rounding of an `n`-term `f32` entropy is no longer small
/// beside the bound's factor two (module docs), and the entropy is
/// evaluated as ever.
const BOUND_MAX_SUPPORT: usize = 1 << 16;

#[cfg(test)]
thread_local! {
    /// How many entropies [`TypicalAcceptance::threshold_on_support`]
    /// has evaluated on this thread.
    pub(crate) static ENTROPY_EVALUATIONS: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
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
        #[cfg(test)]
        ENTROPY_EVALUATIONS.with(|n| n.set(n.get() + 1));
        self.threshold_at(support_entropy(support, sum))
    }

    /// Eq. 1's right-hand side at entropy `h`.
    fn threshold_at(&self, h: f32) -> f32 {
        self.epsilon.min(self.delta * (-h).exp())
    }

    /// Whether a candidate of probability `p` fails Eq. 1 under *every*
    /// distribution a support of `n` entries can stand for, as
    /// [`TypicalAcceptance::threshold_on_support`] would compute it —
    /// `H ≤ ln n` with a factor two for rounding; the module docs carry
    /// the argument and the guards. `false` decides nothing.
    pub(crate) fn rejects_on_bound(&self, p: f32, n: usize) -> bool {
        let two_n = 2.0 * n as f32;
        p <= self.epsilon
            && (1..=BOUND_MAX_SUPPORT).contains(&n)
            && self.delta >= two_n * f32::MIN_POSITIVE
            && two_n * p <= self.delta
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
    fn the_bound_is_taken_only_inside_its_guards() {
        let acc = TypicalAcceptance::default();
        // 0.3 / (2 · 100) = 0.0015: at or under it is rejected unseen,
        // over it is the entropy's to decide.
        assert!(acc.rejects_on_bound(0.0015, 100));
        assert!(acc.rejects_on_bound(1e-15, 100));
        assert!(!acc.rejects_on_bound(0.0016, 100));
        // Outside the argument's reach: no support, one too wide to
        // bound its rounding, a candidate over `ε`, and every `δ` that
        // has no normal `δ/(2n)`.
        assert!(!acc.rejects_on_bound(1e-15, 0));
        assert!(acc.rejects_on_bound(1e-15, BOUND_MAX_SUPPORT));
        assert!(!acc.rejects_on_bound(1e-15, BOUND_MAX_SUPPORT + 1));
        let lax = |epsilon, delta| TypicalAcceptance { epsilon, delta };
        assert!(!lax(0.001, 4.0).rejects_on_bound(0.002, 100));
        for delta in [0.0, -0.0, -1.0, 1e-40, 199.0 * f32::MIN_POSITIVE, f32::NAN] {
            assert!(!lax(0.09, delta).rejects_on_bound(0.0, 100), "{delta}");
        }
        assert!(lax(0.09, 200.0 * f32::MIN_POSITIVE).rejects_on_bound(0.0, 100));
        assert!(!lax(f32::NAN, 0.3).rejects_on_bound(1e-15, 100));
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
