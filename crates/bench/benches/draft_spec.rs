//! Ablation A4: classical draft-model speculative decoding (Leviathan
//! style) with an n-gram draft proposing for the MLP target — the
//! "separate draft model" baseline the paper contrasts MEDUSA heads
//! against (§II-C). Sweeps the draft block length γ and reports
//! acceptance and simulated speed. Tick space only: nothing is timed.

use verispec_core::{decode_draft_speculative, DraftConfig, TrainMethod};
use verispec_eval::{rtllm_sim, ModelScale, Pipeline, PipelineConfig};
use verispec_lm::NgramLm;

fn main() {
    let pipe = Pipeline::build(PipelineConfig {
        corpus_size: 96,
        vocab: 420,
        n_heads: 4,
        epochs: 1,
        ..Default::default()
    });
    let target = pipe.model_for(ModelScale::Small, TrainMethod::Ntp, (1, 1));
    let mut draft = NgramLm::new(3, pipe.tokenizer.vocab_size());
    for seq in &pipe.plain_sequences {
        draft.train_sequence(seq);
    }
    let bench = rtllm_sim();
    let prompt = pipe.tokenizer.encode(&bench.problems[0].prompt_plain());
    let cost = ModelScale::Small.cost_model();
    println!("draft-model speculation:");
    for gamma in [2usize, 4, 8] {
        let cfg = DraftConfig {
            gamma,
            max_tokens: 96,
            seed: 5,
            ..Default::default()
        };
        let (out, stats) = decode_draft_speculative(&target, &draft, &prompt, &cfg, &cost);
        println!(
            "  gamma={gamma}: acceptance={:.2}, tokens/step={:.2}, sim tok/s={:.1}",
            stats.acceptance_rate(),
            out.clock.tokens_per_step(),
            out.clock.tokens_per_second()
        );
    }
}
