//! Ablation A2: speedup vs number of Medusa heads. The paper argues its
//! dynamic labels "increase the number of effective heads"; this bench
//! trains syntax-aligned models with 2–10 heads and reports simulated
//! tokens/step on greedy decoding. Tick space only: nothing is timed.

use verispec_core::{DecodeConfig, TrainMethod};
use verispec_eval::{generate, rtllm_sim, ModelScale, Pipeline, PipelineConfig};

fn main() {
    let bench = rtllm_sim();
    let problem = &bench.problems[0];
    let cost = ModelScale::Small.cost_model();
    println!("heads ablation (greedy decode):");
    for n_heads in [2usize, 4, 6, 8, 10] {
        let pipe = Pipeline::build(PipelineConfig {
            corpus_size: 96,
            vocab: 420,
            n_heads,
            epochs: 1,
            ..Default::default()
        });
        let model = pipe.model_for(ModelScale::Small, TrainMethod::Ours, (1, 1));
        let cfg = DecodeConfig {
            max_tokens: 64,
            ..Default::default()
        };
        let g = generate(
            &model,
            &pipe.tokenizer,
            problem,
            TrainMethod::Ours,
            &cfg,
            &cost,
        );
        println!(
            "  heads={n_heads:<2}  tokens/step={:.2}  sim tok/s={:.1}",
            g.output.clock.tokens_per_step(),
            g.output.clock.tokens_per_second()
        );
    }
}
