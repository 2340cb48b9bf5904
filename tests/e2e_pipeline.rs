//! End-to-end integration test: corpus → tokenizer → training → decoding
//! → syntax/functional judging, across every crate in the workspace.

use verispec::core::{DecodeConfig, TrainMethod};
use verispec::eval::{
    generate, judge, rtllm_sim, token_budget, vgen_sim, ModelScale, Pipeline, PipelineConfig,
    Verdict,
};
use verispec::lm::Sampling;

fn tiny_pipeline() -> Pipeline {
    Pipeline::build(PipelineConfig {
        corpus_size: 64,
        vocab: 400,
        n_heads: 4,
        epochs: 1,
        seed: 5,
        ..Default::default()
    })
}

#[test]
fn full_loop_produces_judgeable_output_for_all_methods() {
    let pipe = tiny_pipeline();
    let bench = rtllm_sim();
    let problem = &bench.problems[0];
    for method in [TrainMethod::Ours, TrainMethod::Medusa, TrainMethod::Ntp] {
        let model = pipe.model_for(ModelScale::Small, method, (1, 1));
        let cfg = DecodeConfig {
            max_tokens: token_budget(&pipe.tokenizer, problem, method),
            ..Default::default()
        };
        let g = generate(
            &model,
            &pipe.tokenizer,
            problem,
            method,
            &cfg,
            &ModelScale::Small.cost_model(),
        );
        // The verdict may be anything for a tiny model, but the loop must
        // complete and produce clean text.
        assert!(!g.code.contains("[FRAG]"), "{}: FRAG leaked", method.name());
        assert!(!g.code.contains("[EOS]"), "{}: EOS leaked", method.name());
        let _ = judge(&g.code, problem, 3);
        assert!(g.output.steps > 0);
        assert_eq!(
            g.output.tokens.len(),
            g.output.trace.iter().map(|t| t.committed).sum::<usize>(),
            "{}: trace must account for all tokens",
            method.name()
        );
    }
}

#[test]
fn vgen_header_seeding_reaches_the_judge() {
    let pipe = tiny_pipeline();
    let bench = vgen_sim();
    let problem = &bench.problems[0];
    let model = pipe.model_for(ModelScale::Small, TrainMethod::Ours, (1, 1));
    let cfg = DecodeConfig {
        max_tokens: 64,
        sampling: Sampling::temperature(0.6),
        seed: 9,
        ..Default::default()
    };
    let g = generate(
        &model,
        &pipe.tokenizer,
        problem,
        TrainMethod::Ours,
        &cfg,
        &ModelScale::Small.cost_model(),
    );
    // Judging a VGen completion prepends the plain header; the composed
    // source must start with the module keyword.
    let v = judge(&g.code, problem, 3);
    let composed = format!("{}{}", problem.completion_prefix(), g.code);
    assert!(composed.starts_with("module "), "{composed}");
    let _ = v;
}

#[test]
fn reference_solutions_pass_all_benchmarks() {
    // The reference implementation of every benchmark problem must pass
    // its own judge — the strongest cross-crate invariant (generators,
    // parser, elaborator, interpreter, harness, judge all agree). The
    // judge prepends the prompt header for VGen-style problems, so we
    // hand it only the body there (what a model would generate).
    for bench in [rtllm_sim(), vgen_sim()] {
        for p in &bench.problems {
            let completion = match &p.plain_header {
                Some(h) => p
                    .module
                    .source
                    .strip_prefix(h.as_str())
                    .expect("header prefixes"),
                None => p.module.source.as_str(),
            };
            let v = judge(completion, p, 42);
            assert_eq!(v, Verdict::Pass, "{} reference failed: {v:?}", p.id);
        }
    }
}

#[test]
fn greedy_speculative_decoding_is_lossless_end_to_end() {
    // Medusa greedy decode must reproduce the NTP greedy stream of the
    // same model — verified on a really-trained model over real prompts.
    let pipe = tiny_pipeline();
    let model = pipe.model_for(ModelScale::Small, TrainMethod::Medusa, (1, 1));
    let bench = rtllm_sim();
    for problem in bench.problems.iter().take(3) {
        let prompt = pipe.tokenizer.encode(&problem.prompt_plain());
        let cfg = DecodeConfig {
            max_tokens: 48,
            ..Default::default()
        };
        let cost = ModelScale::Small.cost_model();
        let ntp = verispec::core::decode_ntp(&model, &prompt, &cfg, &cost);
        let med = verispec::core::decode_speculative(&model, &prompt, &cfg, &cost);
        assert_eq!(ntp.tokens, med.tokens, "{}", problem.id);
        assert!(med.steps <= ntp.steps, "{}", problem.id);
    }
}
