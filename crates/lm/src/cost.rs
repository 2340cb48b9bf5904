//! Simulated GPU inference latency, standing in for the paper's GPU
//! wall clock.
//!
//! The paper measures tokens/second on A800 GPUs, where the cost of one
//! decoding step is dominated by a single forward pass of the base model;
//! the Medusa heads and tree-attention candidate verification add only a
//! marginal per-token overhead. This module reproduces that cost
//! structure deterministically so speedups *emerge* from the measured
//! number of decoding steps rather than from the wall-clock of our tiny
//! CPU models.
//!
//! Calibration: `t_forward` is set so the conventional NTP baseline lands
//! near the paper's Table-II NTP speeds (83.13 tok/s for the
//! CodeLlama-scale model, 91.65 tok/s for the CodeT5p-scale model).
//!
//! # Two machines, two ledgers
//!
//! This model and the Rust kernels price the *same* decode step for two
//! different machines, and both prices are right:
//!
//! * **Simulated** (this module): the paper's GPU forward is
//!   bandwidth-bound — the weights stream once per step whether one
//!   position or twenty-five ride along — so a step costs one forward
//!   plus a small `alpha` per candidate token **proposed**. Every engine
//!   charges `record_step(cost, candidate_tokens, committed)` with the
//!   size of the tree it proposed, however little of it the CPU went on
//!   to forward; per-tick capacity (`SpecShape::step_cost` in
//!   `verispec-core`) and acceptance history count proposals likewise.
//! * **Real** (`MlpLm::infer` on this CPU): compute-bound — every node
//!   forwarded and every head evaluated is arithmetic, so time is what
//!   is *computed*. The engines therefore verify level by level,
//!   forward only the nodes acceptance reaches, and evaluate a Medusa
//!   head — from the trunk activation the step's base forward kept —
//!   only when acceptance reaches the level it names: a step's real
//!   work is its accepted depth, not its proposed tree.
//!
//! The real ledger's budget, in multiply-accumulates, for the
//! benchmark's model (vocabulary 480, 16 × 10 inputs, hidden 32, six
//! heads; an NTP token is one trunk and the base head, 5.1k + 15.4k =
//! 20.5k) and one MEDUSA step at tree `[2, 2]`, ≈ 2.3 tokens:
//!
//! | | whole tree, every head | frontier verify, every head | frontier verify, heads on demand | … + carried base |
//! |---|---|---|---|---|
//! | base forward (trunk + base head) | 20.5k | 20.5k | 20.5k | ≈ 0: the last step's verify pass forwarded it |
//! | Medusa heads (16.4k each) | 6 → 98k | 6 → 98k | one per level forwarded, ≈ 2.4 → 39k | ≈ 2.4 → 39k |
//! | verify forwards (20.5k each) | 19 → 389k | ≈ 2.4 → 49k | ≈ 2.4 → 49k | ≈ 2.4 → 49k |
//! | step | ≈ 508k | ≈ 168k | ≈ 109k | ≈ 89k |
//!
//! The last column is MEDUSA's actual loop — one verify pass per step
//! and nothing else through the trunk: the node a step's committed span
//! ends at is the next step's base position, verification has its row
//! and activation (and, under sampling, the support of its tempered
//! softmax), and the engines carry them across commit. A base position
//! is still forwarded on a generation's first step and after a span
//! that ends at a full path's leaf (the one accepted node nothing
//! forwards).
//!
//! What the table cannot show is the work around the matrices. Under
//! sampling every token read off a row needs the row's tempered softmax
//! normalised, and a dense normalise — 480 divides, 480 `exp`, a sum,
//! 480 more divides — costs about what the 15.4k-MAC base head does:
//!
//! | dense normalises per committed token | NTP | Ours |
//! |---|---|---|
//! | every scored node normalised densely | 1 | ≈ 1 (≈ 2.4 nodes a step, ≈ 2.3 tokens) |
//! | scored nodes held as supports | 1 | ≈ 0: only a step that carried nothing draws with `Sampler::sample` |
//!
//! A scored node's softmax is held as its support
//! ([`crate::matrix::tempered_support_into`]): the entries that are
//! non-zero, the rest fall below `f32::exp`'s flush-to-zero point and
//! are skipped on a compare. How many of a row's 480 entries that is
//! depends on the workload's temperatures — measured per support,
//! ≈ 21 on `offline_eval` (40 218 supports a pass, 825k entries), ≈ 15
//! on `serve_batch` (1 677, 25.5k) and ≈ 64 on the fleets
//! (`fleet_shared`: 4 288, 274k; `fleet_unique`: 4 336, 279k). The NTP
//! column is deliberately untouched: about half of
//! the NTP reference step *is* its own dense normalise, so
//! `real_speedup` now compares a speculative step that normalises
//! sparsely with a reference that does not. Giving `Sampler::sample`
//! the same support would raise `tok_s` on every workload and lower
//! that ratio; it is a change to the reference leg and is kept for a
//! change of its own (ROADMAP item 4(d)).
//!
//! Nor can it show Eq. 1's entropy, one `ln` per support entry of a
//! node whose candidate fell between the `p > ε` and `p ≤ 0` exits —
//! and the supports such nodes have are the wide ones, ≈ 99 entries on
//! the fleets. Per `fleet_shared` pass that was 2 552 entropies over
//! 251 918 entries, as many `ln` as the leg takes support `exp`
//! (274k) and ≈ 17 % of its tick time, nearly all of them to reject a
//! runner-up twelve orders of magnitude under any threshold. An
//! `n`-point entropy is at most `ln n`, so a candidate with
//! `2·n·p ≤ δ` is rejected on two numbers (`verispec-core`'s
//! `accept.rs` argues the factor two); what is left is the candidates
//! that bound cannot decide:
//!
//! | entropies a pass (entries) | every undecided candidate | … past the `H ≤ ln n` bound |
//! |---|---|---|
//! | `fleet_shared` | 2 552 (251 918) | 161 (25 794) |
//! | `fleet_unique` | 2 611 (257 686) | 186 (27 767) |
//! | `serve_batch` | 620 (20 652) | 56 (2 091) |
//! | `offline_eval`, all four engines | 13 609 (653 535) | 1 202 (49 874) |
//!
//! The grammar engine's step is the one place where the work around
//! the matrices was *ranking*. It needs all six head rows at propose —
//! the tree it is charged for names every level's tokens before it is
//! pruned and widened — and it used to rank each of them
//! `k + 3 + 8` = 12–13 deep up front, to read two entries of nearly
//! every one: six `top_k_into` calls at ≈ 0.2 µs per unit of `k` on a
//! 480-wide row, about 10 µs of a 29.6 µs step and more than its six
//! head rows or its whole verification. A head's ranking is now read
//! through [`crate::Ranking`], which ranks one past the level's width
//! on first read and deeper only when a scan walks off the end (192 of
//! the 31 734 rankings of an `offline_eval` pass): 75k ranked entries
//! a pass instead of 391k, and a step of ≈ 19.5 µs. About half of what
//! is left is the six head rows themselves (≈ 9.5 µs, 98k MACs), which
//! stay for as long as the simulated clock charges the tree the step
//! *built*.
//!
//! `sim_speedup` is a function of the first ledger alone and does not
//! move when the second gets cheaper.

use serde::{Deserialize, Serialize};

/// Deterministic per-step latency model for a GPU-resident LLM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuCostModel {
    /// Seconds for one forward pass of the base model (one decode step).
    pub t_forward: f64,
    /// Fractional extra cost per speculated candidate token evaluated in
    /// the same step (tree-attention overhead).
    pub alpha: f64,
    /// Fixed per-step scheduling overhead in seconds.
    pub overhead: f64,
}

impl GpuCostModel {
    /// Cost model for the CodeLlama-7b-scale ("Large") configuration.
    ///
    /// `1 / 0.012028 ≈ 83.1` tokens/s at one token per step, matching the
    /// paper's NTP baseline for CodeLlama.
    pub fn codellama_like() -> Self {
        Self {
            t_forward: 0.012_028,
            alpha: 0.012,
            overhead: 0.000_2,
        }
    }

    /// Cost model for the CodeT5p-220m-scale ("Small") configuration.
    ///
    /// `1 / 0.010_911 ≈ 91.7` tokens/s at one token per step, matching the
    /// paper's NTP baseline for CodeT5p. The relative overheads are larger
    /// than for the big model: a small model's forward pass is cheap, so
    /// speculation bookkeeping eats a bigger share (this is why the paper
    /// sees a smaller Medusa speedup on CodeT5p — 1.16× vs 3.55×).
    pub fn codet5p_like() -> Self {
        Self {
            t_forward: 0.010_911,
            alpha: 0.045,
            overhead: 0.000_4,
        }
    }

    /// Seconds consumed by one decoding step that additionally evaluates
    /// `candidate_tokens` speculated tokens.
    pub fn step_cost(&self, candidate_tokens: usize) -> f64 {
        self.overhead + self.t_forward * (1.0 + self.alpha * candidate_tokens as f64)
    }

    /// Tokens/second implied by a decode run of `tokens` tokens over
    /// `total_seconds` of simulated time.
    pub fn speed(tokens: usize, total_seconds: f64) -> f64 {
        if total_seconds <= 0.0 {
            0.0
        } else {
            tokens as f64 / total_seconds
        }
    }
}

/// Accumulates simulated time across a decode run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DecodeClock {
    /// Total simulated seconds.
    pub seconds: f64,
    /// Number of decoding steps taken.
    pub steps: usize,
    /// Number of tokens committed.
    pub tokens: usize,
}

impl DecodeClock {
    /// A fresh clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one decoding step that committed `accepted` tokens while
    /// evaluating `candidate_tokens` speculated tokens.
    pub fn record_step(&mut self, cost: &GpuCostModel, candidate_tokens: usize, accepted: usize) {
        self.seconds += cost.step_cost(candidate_tokens);
        self.steps += 1;
        self.tokens += accepted;
    }

    /// Simulated tokens/second so far.
    pub fn tokens_per_second(&self) -> f64 {
        GpuCostModel::speed(self.tokens, self.seconds)
    }

    /// Mean tokens committed per decoding step.
    pub fn tokens_per_step(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.tokens as f64 / self.steps as f64
        }
    }

    /// Merges another clock into this one (for averaging over prompts).
    pub fn merge(&mut self, other: &DecodeClock) {
        self.seconds += other.seconds;
        self.steps += other.steps;
        self.tokens += other.tokens;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ntp_calibration_matches_paper_baselines() {
        // One token per step, no speculation.
        let large = GpuCostModel::codellama_like();
        let speed = 1.0 / large.step_cost(0);
        assert!((speed - 83.13).abs() < 2.0, "large NTP speed {speed}");

        let small = GpuCostModel::codet5p_like();
        let speed = 1.0 / small.step_cost(0);
        assert!((speed - 91.65).abs() < 4.0, "small NTP speed {speed}");
    }

    #[test]
    fn speculation_overhead_grows_with_candidates() {
        let m = GpuCostModel::codellama_like();
        assert!(m.step_cost(10) > m.step_cost(0));
        assert!(m.step_cost(20) > m.step_cost(10));
    }

    #[test]
    fn accepting_more_tokens_per_step_raises_speed() {
        let m = GpuCostModel::codellama_like();
        let mut ntp = DecodeClock::new();
        for _ in 0..100 {
            ntp.record_step(&m, 0, 1);
        }
        let mut spec = DecodeClock::new();
        for _ in 0..25 {
            spec.record_step(&m, 12, 4); // 4 tokens/step with 12 candidates
        }
        assert_eq!(ntp.tokens, spec.tokens);
        assert!(spec.tokens_per_second() > 2.0 * ntp.tokens_per_second());
        assert_eq!(spec.tokens_per_step(), 4.0);
    }

    #[test]
    fn small_model_speculation_pays_more_overhead() {
        // The same candidate load costs relatively more on the small model.
        let large = GpuCostModel::codellama_like();
        let small = GpuCostModel::codet5p_like();
        let rel_large = large.step_cost(16) / large.step_cost(0);
        let rel_small = small.step_cost(16) / small.step_cost(0);
        assert!(rel_small > rel_large);
    }

    #[test]
    fn clock_merge_accumulates() {
        let m = GpuCostModel::codellama_like();
        let mut a = DecodeClock::new();
        a.record_step(&m, 0, 1);
        let mut b = DecodeClock::new();
        b.record_step(&m, 5, 3);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.steps, 2);
        assert_eq!(merged.tokens, 4);
        assert!((merged.seconds - (a.seconds + b.seconds)).abs() < 1e-12);
    }

    #[test]
    fn speed_handles_zero_time() {
        assert_eq!(GpuCostModel::speed(10, 0.0), 0.0);
    }
}
