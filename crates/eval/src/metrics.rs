//! Quality metrics: the unbiased pass@k estimator (paper Eq. 5) and the
//! Pass Rate (Eq. 6). Speed and speedup (Eqs. 3–4) are read off
//! [`GpuCostModel`](verispec_lm::GpuCostModel)'s simulated clock and
//! measured by the benchmark under `benchmark/`.

use serde::{Deserialize, Serialize};

/// Unbiased pass@k for one prompt: `1 − C(n−c, k) / C(n, k)` where `n`
/// samples were drawn and `c` passed (VerilogEval's estimator, Eq. 5).
///
/// Eq. 5 is defined for `k ≤ n` only; for `k > n` this returns pass@n.
/// [`mean_pass_at_k`] refuses that case instead.
///
/// # Panics
///
/// Panics if `c > n` or `k == 0`.
pub fn pass_at_k(n: usize, c: usize, k: usize) -> f64 {
    assert!(c <= n, "passes {c} exceed samples {n}");
    assert!(k > 0, "k must be positive");
    if n == 0 {
        return 0.0;
    }
    if k >= n {
        // With every sample drawn, pass@k is 1 unless nothing passed.
        return if c > 0 { 1.0 } else { 0.0 };
    }
    if c == 0 {
        return 0.0;
    }
    // 1 - prod_{i=0}^{k-1} (n - c - i) / (n - i), the stable form.
    let mut prob_all_fail = 1.0f64;
    for i in 0..k {
        let numer = (n - c).saturating_sub(i) as f64;
        let denom = (n - i) as f64;
        prob_all_fail *= numer / denom;
    }
    1.0 - prob_all_fail
}

/// Mean pass@k over prompts, given per-prompt `(n, c)` counts; `None`
/// when any prompt has fewer than `k` samples, where Eq. 5 is undefined.
pub fn mean_pass_at_k(counts: &[(usize, usize)], k: usize) -> Option<f64> {
    if counts.iter().any(|&(n, _)| n < k) {
        return None;
    }
    if counts.is_empty() {
        return Some(0.0);
    }
    let sum: f64 = counts.iter().map(|&(n, c)| pass_at_k(n, c, k)).sum();
    Some(sum / counts.len() as f64)
}

/// Pass Rate (Eq. 6): fraction of prompts with at least one passing
/// sample.
pub fn pass_rate(counts: &[(usize, usize)]) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    counts.iter().filter(|&&(_, c)| c > 0).count() as f64 / counts.len() as f64
}

/// Quality counts for one prompt under one configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PromptCounts {
    /// Samples generated.
    pub n: usize,
    /// Samples passing the syntax check.
    pub syntax_passes: usize,
    /// Samples passing the functional check.
    pub functional_passes: usize,
}

/// Aggregated quality metrics over a benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct QualityRow {
    /// pass@1 (%); `None` when a prompt has no sample.
    pub pass_at_1: Option<f64>,
    /// pass@5 (%); `None` when a prompt has fewer than 5 samples.
    pub pass_at_5: Option<f64>,
    /// pass@10 (%); `None` when a prompt has fewer than 10 samples.
    pub pass_at_10: Option<f64>,
    /// Pass Rate (%).
    pub pass_rate: f64,
}

impl QualityRow {
    /// Builds a row from per-prompt counts using `extract` to choose the
    /// syntax or functional pass count.
    pub fn from_counts(
        counts: &[PromptCounts],
        extract: impl Fn(&PromptCounts) -> usize,
    ) -> QualityRow {
        let pairs: Vec<(usize, usize)> = counts.iter().map(|c| (c.n, extract(c))).collect();
        let percent = |k| mean_pass_at_k(&pairs, k).map(|p| 100.0 * p);
        QualityRow {
            pass_at_1: percent(1),
            pass_at_5: percent(5),
            pass_at_10: percent(10),
            pass_rate: 100.0 * pass_rate(&pairs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_at_k_boundary_cases() {
        assert_eq!(pass_at_k(20, 0, 1), 0.0);
        assert_eq!(pass_at_k(20, 20, 1), 1.0);
        assert_eq!(pass_at_k(20, 5, 20), 1.0);
        assert_eq!(pass_at_k(0, 0, 5), 0.0);
    }

    #[test]
    fn pass_at_1_equals_fraction() {
        // pass@1 is exactly c/n.
        assert!((pass_at_k(20, 5, 1) - 0.25).abs() < 1e-12);
        assert!((pass_at_k(10, 3, 1) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn pass_at_k_matches_closed_form() {
        // n=5, c=2, k=2: 1 - C(3,2)/C(5,2) = 1 - 3/10 = 0.7
        assert!((pass_at_k(5, 2, 2) - 0.7).abs() < 1e-12);
        // n=4, c=1, k=2: 1 - C(3,2)/C(4,2) = 1 - 3/6 = 0.5
        assert!((pass_at_k(4, 1, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pass_at_k_monotone_in_k_and_c() {
        for c in 0..=10 {
            for k in 1..10 {
                assert!(pass_at_k(10, c, k + 1) >= pass_at_k(10, c, k) - 1e-12);
            }
        }
        for k in [1, 5, 10] {
            for c in 0..10 {
                assert!(pass_at_k(10, c + 1, k) >= pass_at_k(10, c, k) - 1e-12);
            }
        }
    }

    #[test]
    fn pass_at_k_matches_monte_carlo() {
        // Estimator should equal the empirical probability of drawing at
        // least one pass among k distinct samples.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let (n, c, k) = (12, 4, 3);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        let mut pool: Vec<bool> = (0..n).map(|i| i < c).collect();
        let trials = 40_000;
        let mut hits = 0;
        for _ in 0..trials {
            pool.shuffle(&mut rng);
            if pool[..k].iter().any(|&b| b) {
                hits += 1;
            }
        }
        let mc = hits as f64 / trials as f64;
        let est = pass_at_k(n, c, k);
        assert!((mc - est).abs() < 0.01, "mc {mc} vs estimator {est}");
    }

    #[test]
    fn pass_rate_counts_any_pass() {
        let counts = [(20, 0), (20, 1), (20, 20)];
        assert!((pass_rate(&counts) - 2.0 / 3.0).abs() < 1e-12);
        // The 1/29 quantum of the paper's RTLLM pass rates.
        let mut rtllm = vec![(20usize, 0usize); 29];
        rtllm[0].1 = 3;
        assert!((pass_rate(&rtllm) - 1.0 / 29.0).abs() < 1e-12);
    }

    #[test]
    fn quality_row_percentages() {
        let counts = vec![
            PromptCounts {
                n: 20,
                syntax_passes: 20,
                functional_passes: 10,
            },
            PromptCounts {
                n: 20,
                syntax_passes: 0,
                functional_passes: 0,
            },
        ];
        let func = QualityRow::from_counts(&counts, |c| c.functional_passes);
        assert!((func.pass_at_1.unwrap() - 25.0).abs() < 1e-9);
        assert!((func.pass_rate - 50.0).abs() < 1e-9);
        let syn = QualityRow::from_counts(&counts, |c| c.syntax_passes);
        assert!((syn.pass_at_1.unwrap() - 50.0).abs() < 1e-9);
        assert_eq!((syn.pass_at_5, syn.pass_at_10), (Some(50.0), Some(50.0)));
    }

    /// With two samples a prompt once read pass@5 = pass@10 = pass@2:
    /// Eq. 5 is undefined for k > n, so those cells are `None`.
    #[test]
    fn pass_at_k_past_the_sample_count_is_none() {
        let counts = [
            PromptCounts {
                n: 2,
                syntax_passes: 1,
                functional_passes: 0,
            },
            PromptCounts {
                n: 20,
                syntax_passes: 20,
                functional_passes: 0,
            },
        ];
        let syn = QualityRow::from_counts(&counts, |c| c.syntax_passes);
        assert_eq!(syn.pass_at_1, Some(100.0 * (0.5 + 1.0) / 2.0));
        assert_eq!((syn.pass_at_5, syn.pass_at_10), (None, None));
        assert_eq!(syn.pass_rate, 100.0);
        let func = QualityRow::from_counts(&counts, |c| c.functional_passes);
        assert_eq!((func.pass_at_1, func.pass_at_5), (Some(0.0), None));
        assert_eq!(mean_pass_at_k(&[(2, 1)], 2), Some(1.0));
        assert_eq!(mean_pass_at_k(&[(2, 1), (20, 3)], 5), None);
    }
}
