//! Cross-method invariants on trained models: label-driven differences
//! between NTP, Medusa, and Ours show up where the paper says they
//! should.

use verispec::core::{LabelGrid, TrainMethod};
use verispec::eval::{ModelScale, Pipeline, PipelineConfig};
use verispec::tokenizer::special;

fn pipe() -> Pipeline {
    Pipeline::build(PipelineConfig {
        corpus_size: 64,
        vocab: 400,
        n_heads: 6,
        epochs: 1,
        seed: 6,
        ..Default::default()
    })
}

#[test]
fn tagged_sequences_are_longer_but_same_code() {
    let p = pipe();
    let plain = p.sequences_for(TrainMethod::Medusa, (1, 1));
    let tagged = p.sequences_for(TrainMethod::Ours, (1, 1));
    for (plain, tagged) in plain.iter().zip(&tagged).take(10) {
        assert!(tagged.len() > plain.len(), "FRAG markers must add tokens");
        let frag_count = tagged.iter().filter(|&&t| t == special::FRAG).count();
        assert!(
            frag_count >= 10,
            "expected many FRAG tokens, got {frag_count}"
        );
    }
}

#[test]
fn ours_head_supervision_is_sparser_and_easier() {
    // The syntax-enriched grid masks more positions for later heads
    // (paper: "the progressive increase of the proportion of [IGNORE]
    // tokens in the labels of later heads reduces their prediction
    // difficulty").
    let p = pipe();
    let n_heads = 6;
    let mut ratio_first = 0.0f64;
    let mut ratio_last = 0.0f64;
    let mut count = 0usize;
    for seq in p.sequences_for(TrainMethod::Ours, (1, 1)).iter().take(20) {
        let g = LabelGrid::syntax_enriched_parallel(seq, n_heads);
        ratio_first += g.ignore_fraction(1);
        ratio_last += g.ignore_fraction(n_heads);
        count += 1;
    }
    ratio_first /= count as f64;
    ratio_last /= count as f64;
    assert!(
        ratio_last > ratio_first + 0.2,
        "head {n_heads} should be masked much more than head 1: {ratio_first:.2} vs {ratio_last:.2}"
    );
}

#[test]
fn ntp_models_have_no_heads_and_speculative_models_do() {
    let p = pipe();
    let ntp = p.model_for(ModelScale::Small, TrainMethod::Ntp, (1, 2));
    assert_eq!(ntp.n_heads(), 0);
    let ours = p.model_for(ModelScale::Small, TrainMethod::Ours, (1, 2));
    assert_eq!(ours.n_heads(), 6);
    let medusa = p.model_for(ModelScale::Small, TrainMethod::Medusa, (1, 2));
    assert_eq!(medusa.n_heads(), 6);
}

#[test]
fn ours_heads_predict_better_within_fragments_than_medusa_heads() {
    // The mechanism behind the speedup: heads trained on fragment-masked
    // labels should assign higher probability to the true next-next token
    // at fragment-interior positions than heads trained on unmasked
    // far-future targets. Measured on training data (both models see the
    // same corpus; Ours sees it tagged).
    let p = pipe();
    let ours = p.model_for(ModelScale::Small, TrainMethod::Ours, (1, 1));
    let medusa = p.model_for(ModelScale::Small, TrainMethod::Medusa, (1, 1));

    let mut ours_nll = 0.0f64;
    let mut ours_n = 0usize;
    for seq in p.sequences_for(TrainMethod::Ours, (1, 1)).iter().take(8) {
        let grid = LabelGrid::syntax_enriched_parallel(seq, ours.n_heads());
        for pos in 0..seq.len().saturating_sub(3) {
            let target = grid.label(1, pos);
            if target == special::IGNORE {
                continue;
            }
            let logits = &ours.multi_logits(&seq[..=pos])[1];
            let lp = verispec::lm::matrix::log_softmax(logits);
            ours_nll += -lp[target as usize] as f64;
            ours_n += 1;
        }
    }
    let mut med_nll = 0.0f64;
    let mut med_n = 0usize;
    for seq in p.sequences_for(TrainMethod::Medusa, (1, 1)).iter().take(8) {
        for pos in 0..seq.len().saturating_sub(3) {
            let target = seq[pos + 2];
            let logits = &medusa.multi_logits(&seq[..=pos])[1];
            let lp = verispec::lm::matrix::log_softmax(logits);
            med_nll += -lp[target as usize] as f64;
            med_n += 1;
        }
    }
    let ours_nll = ours_nll / ours_n.max(1) as f64;
    let med_nll = med_nll / med_n.max(1) as f64;
    // Ours' first head trains on a (masked, easier) subset; its NLL on
    // that subset should not be worse than Medusa's unrestricted head 1.
    assert!(
        ours_nll <= med_nll * 1.25,
        "ours head-1 NLL {ours_nll:.3} should be in the ballpark of medusa's {med_nll:.3} or better"
    );
}
