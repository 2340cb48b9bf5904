//! Quickstart: the full VeriSpec loop in one file.
//!
//! Builds a small corpus, trains the three model variants (NTP, Medusa,
//! Ours), generates a module for one benchmark prompt with each, and
//! prints what happened — the 60-second tour of the paper's method.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use verispec::core::{DecodeConfig, TrainMethod};
use verispec::eval::{
    generate, judge, rtllm_sim, token_budget, ModelScale, Pipeline, PipelineConfig,
};

fn main() {
    println!("== VeriSpec quickstart ==\n");

    // 1. Corpus + tokenizer + encoded datasets (the Fig.-2 pipeline).
    let pipe = Pipeline::build(PipelineConfig {
        corpus_size: 192,
        vocab: 512,
        n_heads: 6,
        epochs: 1,
        ..Default::default()
    });
    println!(
        "corpus: {} items retained ({} generated, {} dup dropped), vocab {}",
        pipe.corpus.stats.retained,
        pipe.corpus.stats.generated,
        pipe.corpus.stats.dropped_duplicates,
        pipe.tokenizer.vocab_size()
    );

    // 2. A benchmark problem (the paper's running data_register example
    //    when present, otherwise the first problem).
    let bench = rtllm_sim();
    let problem = bench
        .problems
        .iter()
        .find(|p| p.module.family == "data_register")
        .unwrap_or(&bench.problems[0]);
    println!(
        "\nprompt ({}):\n  {}\n",
        problem.id, problem.module.description
    );

    // 3. Train and generate with each method.
    for method in [TrainMethod::Ours, TrainMethod::Medusa, TrainMethod::Ntp] {
        let model = pipe.model_for(ModelScale::Small, method, (1, 1));
        let cfg = DecodeConfig {
            max_tokens: token_budget(&pipe.tokenizer, problem, method),
            ..Default::default()
        };
        let cost = ModelScale::Small.cost_model();
        let g = generate(&model, &pipe.tokenizer, problem, method, &cfg, &cost);
        let verdict = judge(&g.code, problem, 7);
        println!(
            "[{:<6}] steps={:<4} tokens={:<4} sim-speed={:>7.1} tok/s  verdict={:?}",
            method.name(),
            g.output.steps,
            g.output.tokens.len(),
            g.output.clock.tokens_per_second(),
            verdict
        );
        let preview: String = g.code.chars().take(160).collect();
        println!(
            "  generated: {}\n",
            preview.replace('\n', "\n             ")
        );
    }

    println!(
        "done — `cargo run -p verispec-bench --bin table1_quality` regenerates Table I; \
         benchmark/README.md measures speed"
    );
}
