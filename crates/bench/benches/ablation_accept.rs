//! Ablation A1: the typical-acceptance criterion (Eq. 1). Sweeps ε and δ
//! and reports the mean accepted-prefix length each setting yields on a
//! trained model. Tick space only: nothing is timed.

use verispec_core::accept::TypicalAcceptance;
use verispec_core::{decode_speculative, DecodeConfig, TrainMethod};
use verispec_eval::{rtllm_sim, ModelScale, Pipeline, PipelineConfig};
use verispec_lm::Sampling;

fn main() {
    let pipe = Pipeline::build(PipelineConfig {
        corpus_size: 96,
        vocab: 420,
        n_heads: 6,
        epochs: 1,
        ..Default::default()
    });
    let model = pipe.model_for(ModelScale::Small, TrainMethod::Ours, (1, 1));
    let bench = rtllm_sim();
    let prompt = pipe.tokenizer.encode(&bench.problems[0].prompt_tagged());
    let cost = ModelScale::Small.cost_model();
    println!("acceptance ablation (accepted tokens/step, sampled decode):");
    for (eps, delta) in [(0.01f32, 0.1f32), (0.09, 0.3), (0.3, 0.6)] {
        let cfg = DecodeConfig {
            max_tokens: 96,
            sampling: Sampling::temperature(0.8),
            acceptance: TypicalAcceptance {
                epsilon: eps,
                delta,
            },
            syntax_aligned: true,
            seed: 3,
            ..Default::default()
        };
        let out = decode_speculative(&model, &prompt, &cfg, &cost);
        println!(
            "  eps={eps:<5} delta={delta:<4}  tokens/step={:.2}",
            out.clock.tokens_per_step()
        );
    }
}
