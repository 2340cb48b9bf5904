//! Training orchestration for the three regimes the paper compares
//! (§IV-A): conventional NTP, MEDUSA-2 joint training, and the paper's
//! syntax-enriched training ("Ours").
//!
//! The loss follows Eq. 2:
//!
//! ```text
//! Loss = Loss_base + λ · Σ_{i=1..n} γ^i · Loss_head_i
//! ```
//!
//! with λ growing from 0 to `lambda_max` along a sine schedule over
//! training (the paper's "sine growth pattern", λ_max = 0.2) and
//! γ = 0.8. Heads train at `head_lr_mult` (4×) the base learning rate.
//!
//! The three methods differ **only** in their label grids (and in whether
//! the corpus text carries `[FRAG]` markers, which the caller controls):
//!
//! | method | labels                                | corpus text |
//! |--------|---------------------------------------|-------------|
//! | NTP    | base row only                         | plain       |
//! | Medusa | all rows, plain shifts                | plain       |
//! | Ours   | all rows, Fig.-4 syntax masking       | `[FRAG]`-tagged |

use crate::labels::LabelGrid;
use serde::{Deserialize, Serialize};
use verispec_lm::{HeadTarget, MlpLm, MlpLmConfig, Sampler, TokenId};

/// Which training regime to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrainMethod {
    /// Base head only, plain labels.
    Ntp,
    /// MEDUSA-2 joint training with plain shifted labels.
    Medusa,
    /// Syntax-enriched labels (the paper's method).
    Ours,
}

impl TrainMethod {
    /// Human-readable name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            TrainMethod::Ntp => "NTP",
            TrainMethod::Medusa => "Medusa",
            TrainMethod::Ours => "Ours",
        }
    }

    /// Builds the label grid this method trains with.
    pub fn labels(&self, tokens: &[TokenId], n_heads: usize) -> LabelGrid {
        match self {
            TrainMethod::Ntp => LabelGrid::ntp(tokens),
            TrainMethod::Medusa => LabelGrid::plain(tokens, n_heads),
            TrainMethod::Ours => LabelGrid::syntax_enriched_parallel(tokens, n_heads),
        }
    }
}

/// Hyper-parameters for a training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Which regime to use.
    pub method: TrainMethod,
    /// Passes over the corpus.
    pub epochs: usize,
    /// Base learning rate.
    pub lr: f32,
    /// Learning-rate multiplier for the Medusa heads (paper: 4×).
    pub head_lr_mult: f32,
    /// Final λ of the sine ramp (paper: 0.2).
    pub lambda_max: f32,
    /// Per-head decay γ (paper: 0.8).
    pub gamma: f32,
    /// Positions per optimizer step.
    pub batch_positions: usize,
    /// Shuffling seed.
    pub seed: u64,
}

impl TrainConfig {
    /// Paper-faithful defaults for the given method (scaled learning rate
    /// for the tiny models).
    pub fn paper_defaults(method: TrainMethod) -> Self {
        Self {
            method,
            epochs: 2,
            lr: 2e-3,
            head_lr_mult: 4.0,
            lambda_max: 0.2,
            gamma: 0.8,
            batch_positions: 64,
            seed: 0,
        }
    }
}

/// Per-epoch loss summary.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean base-head loss per epoch.
    pub base_losses: Vec<f32>,
    /// Mean (weighted) head loss per epoch.
    pub head_losses: Vec<f32>,
    /// Number of supervised positions seen per epoch.
    pub positions: Vec<usize>,
}

impl TrainReport {
    /// Final epoch's base loss (convenience for tests).
    pub fn final_base_loss(&self) -> f32 {
        self.base_losses.last().copied().unwrap_or(f32::NAN)
    }
}

/// Trains a fresh [`MlpLm`] on tokenized `sequences` under `tc`.
///
/// For [`TrainMethod::Ours`] the sequences are expected to be encodings of
/// `[FRAG]`-tagged text (the dataset pipeline produces these); for the
/// baselines, encodings of plain text.
///
/// # Panics
///
/// Panics if `tc.method` supervises heads but `model_cfg.n_heads == 0`.
pub fn train(
    model_cfg: MlpLmConfig,
    sequences: &[Vec<TokenId>],
    tc: &TrainConfig,
) -> (MlpLm, TrainReport) {
    let mut model = MlpLm::new(model_cfg);
    let report = train_in_place(&mut model, sequences, tc);
    (model, report)
}

/// Trains an existing model in place (used for continued training in
/// ablations). See [`train`].
pub fn train_in_place(
    model: &mut MlpLm,
    sequences: &[Vec<TokenId>],
    tc: &TrainConfig,
) -> TrainReport {
    let n_heads = model.n_heads();
    if !matches!(tc.method, TrainMethod::Ntp) {
        assert!(
            n_heads > 0,
            "{} training requires Medusa heads",
            tc.method.name()
        );
    }
    let mut opt = model.optimizer();
    let mut grads = model.zero_grads();
    let mut shuffler = Sampler::new(tc.seed);
    let mut report = TrainReport::default();

    // Pre-build label grids once; they are method- and data-dependent
    // but epoch-invariant.
    let grids: Vec<LabelGrid> = sequences
        .iter()
        .map(|seq| tc.method.labels(seq, n_heads))
        .collect();

    let total_positions: usize = sequences
        .iter()
        .map(|s| s.len().saturating_sub(1))
        .sum::<usize>()
        .max(1);
    let total_steps = (total_positions * tc.epochs).max(1);
    let mut global_pos = 0usize;

    for _epoch in 0..tc.epochs {
        // Fisher-Yates shuffle of the sequence order.
        let mut order: Vec<usize> = (0..sequences.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, shuffler.gen_range(i + 1));
        }

        let mut epoch_base = 0.0f64;
        let mut epoch_head = 0.0f64;
        let mut epoch_positions = 0usize;

        for &si in &order {
            let seq = &sequences[si];
            let grid = &grids[si];
            if seq.len() < 2 {
                continue;
            }
            for pos in 0..seq.len() - 1 {
                // λ sine ramp over global progress (Eq. 2).
                let progress = global_pos as f32 / total_steps as f32;
                let lambda = tc.lambda_max * (progress * std::f32::consts::FRAC_PI_2).sin();
                global_pos += 1;

                let targets: Vec<HeadTarget> = grid
                    .targets_at(pos)
                    .map(|(h, t)| {
                        let w = if h == 0 {
                            1.0
                        } else {
                            lambda * tc.gamma.powi(h as i32)
                        };
                        (h, t, w)
                    })
                    .filter(|&(_, _, w)| w > 0.0)
                    .collect();
                if targets.is_empty() {
                    continue;
                }
                let window = model.window(&seq[..=pos]);
                let loss = model.accumulate_position(&mut grads, &window, &targets);
                epoch_base += loss.base as f64;
                epoch_head += loss.heads as f64;
                epoch_positions += 1;

                if grads.positions >= tc.batch_positions {
                    model.adam_step(&mut opt, &grads, tc.lr, tc.head_lr_mult);
                    grads.reset();
                }
            }
        }
        if grads.positions > 0 {
            model.adam_step(&mut opt, &grads, tc.lr, tc.head_lr_mult);
            grads.reset();
        }
        let n = epoch_positions.max(1) as f64;
        report.base_losses.push((epoch_base / n) as f32);
        report.head_losses.push((epoch_head / n) as f32);
        report.positions.push(epoch_positions);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use verispec_tokenizer::special;

    fn toy_sequences(tagged: bool, n: usize) -> Vec<Vec<TokenId>> {
        // Mimic Verilog-ish structure: fragments of 1-3 tokens separated
        // by FRAG markers when tagged.
        let mut seqs = Vec::new();
        for k in 0..n {
            let mut s = Vec::new();
            for i in 0..40u32 {
                let base = 10 + ((i + k as u32) % 6);
                s.push(base);
                if i % 2 == 0 {
                    s.push(base + 10);
                }
                if tagged {
                    s.push(special::FRAG);
                }
            }
            s.push(special::EOS);
            seqs.push(s);
        }
        seqs
    }

    fn tiny_cfg(n_heads: usize) -> MlpLmConfig {
        MlpLmConfig {
            vocab: 40,
            d_emb: 8,
            d_hidden: 16,
            context: 4,
            n_heads,
            seed: 3,
        }
    }

    #[test]
    fn ntp_training_reduces_base_loss() {
        let seqs = toy_sequences(false, 4);
        let tc = TrainConfig {
            epochs: 4,
            ..TrainConfig::paper_defaults(TrainMethod::Ntp)
        };
        let (_, report) = train(tiny_cfg(0), &seqs, &tc);
        assert!(report.base_losses.len() == 4);
        assert!(
            report.final_base_loss() < report.base_losses[0],
            "loss must decrease: {:?}",
            report.base_losses
        );
    }

    #[test]
    fn medusa_training_engages_heads() {
        let seqs = toy_sequences(false, 4);
        let tc = TrainConfig {
            epochs: 3,
            ..TrainConfig::paper_defaults(TrainMethod::Medusa)
        };
        let (model, report) = train(tiny_cfg(4), &seqs, &tc);
        assert!(
            report.head_losses.iter().any(|&l| l > 0.0),
            "heads must incur loss"
        );
        assert_eq!(model.n_heads(), 4);
    }

    #[test]
    fn ours_supervises_fewer_head_positions_than_medusa() {
        let tagged = toy_sequences(true, 2);
        let n_heads = 6;
        let ours_grid = TrainMethod::Ours.labels(&tagged[0], n_heads);
        let medusa_grid = TrainMethod::Medusa.labels(&tagged[0], n_heads);
        let count = |g: &LabelGrid| -> usize {
            (0..g.seq_len())
                .map(|s| g.targets_at(s).filter(|&(h, _)| h > 0).count())
                .sum()
        };
        assert!(
            count(&ours_grid) < count(&medusa_grid),
            "syntax masking must reduce head supervision"
        );
    }

    #[test]
    #[should_panic(expected = "requires Medusa heads")]
    fn medusa_training_without_heads_panics() {
        let seqs = toy_sequences(false, 1);
        let tc = TrainConfig::paper_defaults(TrainMethod::Medusa);
        let _ = train(tiny_cfg(0), &seqs, &tc);
    }

    #[test]
    fn training_is_deterministic() {
        let seqs = toy_sequences(true, 3);
        let tc = TrainConfig {
            epochs: 1,
            ..TrainConfig::paper_defaults(TrainMethod::Ours)
        };
        let (a, ra) = train(tiny_cfg(3), &seqs, &tc);
        let (b, rb) = train(tiny_cfg(3), &seqs, &tc);
        assert_eq!(ra, rb);
        assert_eq!(a.logits(&[10, 20]), b.logits(&[10, 20]));
    }

    #[test]
    fn lambda_ramp_keeps_early_head_weight_small() {
        // Indirect check: with one epoch, head loss (weighted) must stay
        // well below base loss since λ ramps from 0.
        let seqs = toy_sequences(false, 3);
        let tc = TrainConfig {
            epochs: 1,
            ..TrainConfig::paper_defaults(TrainMethod::Medusa)
        };
        let (_, report) = train(tiny_cfg(4), &seqs, &tc);
        assert!(report.head_losses[0] < report.base_losses[0]);
    }

    #[test]
    fn short_sequences_are_skipped_gracefully() {
        let seqs = vec![vec![5u32], vec![], vec![7, 8, 9, 10, 11]];
        let tc = TrainConfig {
            epochs: 1,
            ..TrainConfig::paper_defaults(TrainMethod::Ntp)
        };
        let (_, report) = train(tiny_cfg(0), &seqs, &tc);
        assert_eq!(report.positions[0], 4, "only the long sequence contributes");
    }
}
