//! The quality gate's positive control through the whole loop.
//!
//! `judge_edges.rs` shows that every reference *text* passes the judge.
//! This file sends the reference through everything else a sample goes
//! through: the prompt, the tokenizer, each decode engine (the syntax
//! cut and the grammar filter included), the cleaning step and
//! [`stage_judge`]. The model is an oracle that knows the answer: its
//! base row and every head row are one-hot on the problem's reference
//! stream, so acceptance is perfect and any sample that does not come
//! back as the reference is a fault of the loop, not of a model.

use verispec_core::{DecodeConfig, TrainMethod};
use verispec_eval::{
    generate, generate_grammar, rtllm_sim, stage_judge, token_budget, vgen_sim, ModelScale,
    Pipeline, PipelineConfig, Problem, StageOutcome, QUALITY_TREE,
};
use verispec_grammar::GrammarOracle;
use verispec_lm::{LanguageModel, TokenId};
use verispec_tokenizer::{special, BpeTokenizer};
use verispec_verilog::fragment::fragmentize;

/// Medusa heads the oracle answers for, as many as the gate's models
/// have.
const HEADS: usize = 6;

/// The ceiling at acceptance 1, per engine over the 46 problems:
/// `(engine, tokens, steps)`, where tokens stop before `[EOS]` and the
/// steps count the `[EOS]` step (so NTP reads 0.99 tokens per step).
/// Decoding is deterministic and the oracle is exact, so these are
/// exact; a change to the decode loop, the cleaning, the tokenizer or
/// the grammar filter that moves one is a change to the ceiling.
const CEILING: [(&str, usize, usize); 4] = [
    ("NTP", 3276, 3322),
    ("Medusa-tree", 3276, 492),
    ("Ours-tree", 7402, 1232),
    ("Grammar-tree", 7402, 1232),
];

/// Every sample's cleaned code re-encoded with the gate's tokenizer,
/// summed over the 46 problems: the same for every engine, because every
/// engine writes the reference. Ours and Grammar spend 7,402 tagged
/// tokens on what is 3,276 tokens of code.
const CODE_TOKENS: usize = 3276;

/// A language model whose rows are one-hot on one token stream: at a
/// prefix of the stream, the base row names the stream's next token and
/// head `k` the token `k` further on; past the stream's end, or off it,
/// every row names `[EOS]`.
struct ReferenceOracle {
    stream: Vec<TokenId>,
    vocab: usize,
}

impl ReferenceOracle {
    fn row(&self, prefix: &[TokenId], k: usize) -> Vec<f32> {
        let next = if self.stream.starts_with(prefix) {
            self.stream.get(prefix.len() + k)
        } else {
            None
        };
        let mut row = vec![0.0; self.vocab];
        row[next.map_or(special::EOS, |&t| t) as usize] = 1.0;
        row
    }
}

impl LanguageModel for ReferenceOracle {
    fn vocab_size(&self) -> usize {
        self.vocab
    }

    fn n_extra_heads(&self) -> usize {
        HEADS
    }

    fn logits(&self, prefix: &[TokenId]) -> Vec<f32> {
        self.row(prefix, 0)
    }

    fn multi_logits(&self, prefix: &[TokenId]) -> Vec<Vec<f32>> {
        (0..=HEADS).map(|k| self.row(prefix, k)).collect()
    }
}

/// What the model should write for `p`, in the text a `method`-trained
/// model writes: the reference source (`fragmentize`d for Ours) less
/// the header the prompt already holds.
fn reference_text(p: &Problem, method: TrainMethod) -> String {
    let source = &p.module.source;
    let (text, header) = match method {
        TrainMethod::Ours => {
            let tagged = fragmentize(source).expect("a reference fragmentizes");
            (tagged, p.tagged_header.as_deref())
        }
        _ => (source.clone(), p.plain_header.as_deref()),
    };
    let header = header.unwrap_or("");
    let body = text.strip_prefix(header).unwrap_or_else(|| {
        panic!(
            "{}: the reference does not start with its prompt's header",
            p.id
        )
    });
    body.to_string()
}

/// The oracle for `p` under `method`: the prompt's ids, then the
/// encoded reference, then `[EOS]`.
fn oracle_for(tok: &BpeTokenizer, p: &Problem, method: TrainMethod) -> ReferenceOracle {
    let prompt = match method {
        TrainMethod::Ours => p.prompt_tagged(),
        _ => p.prompt_plain(),
    };
    let mut stream = tok.encode(&prompt);
    stream.extend(tok.encode(&reference_text(p, method)));
    stream.push(special::EOS);
    ReferenceOracle {
        stream,
        vocab: tok.vocab_size(),
    }
}

#[test]
fn a_model_that_knows_the_answer_reproduces_every_reference_through_every_engine() {
    // The quality gate's tokenizer.
    let pipe = Pipeline::build(PipelineConfig {
        corpus_size: 640,
        vocab: 640,
        n_heads: HEADS,
        epochs: 4,
        ..Default::default()
    });
    let tok = &pipe.tokenizer;
    let grammar = GrammarOracle::from_tokenizer(tok);
    let cost = ModelScale::Small.cost_model();
    let every_stage = StageOutcome {
        parsed: true,
        elaborated: true,
        passed: true,
    };
    let (rtllm, vgen) = (rtllm_sim(), vgen_sim());
    let problems: Vec<&Problem> = rtllm.problems.iter().chain(&vgen.problems).collect();
    assert_eq!(problems.len(), 46);
    // (engine, training method, tree, through the grammar filter)
    let tree = Some(QUALITY_TREE.to_vec());
    let engines = [
        ("NTP", TrainMethod::Ntp, None, false),
        ("Medusa-tree", TrainMethod::Medusa, tree.clone(), false),
        ("Ours-tree", TrainMethod::Ours, tree.clone(), false),
        ("Grammar-tree", TrainMethod::Ours, tree, true),
    ];
    let mut ceiling = Vec::new();
    let mut code_tokens = None;
    for (engine, method, tree, filtered) in engines {
        let (mut tokens, mut steps, mut code) = (0, 0, 0);
        for &p in &problems {
            let oracle = oracle_for(tok, p, method);
            let cfg = DecodeConfig {
                max_tokens: token_budget(tok, p, method),
                tree: tree.clone(),
                ..Default::default()
            };
            let g = if filtered {
                generate_grammar(&oracle, tok, &grammar, p, &cfg, &cost)
            } else {
                generate(&oracle, tok, p, method, &cfg, &cost)
            };
            let at = format!("{engine} on {}", p.id);
            assert_eq!(
                g.output.tokens.last(),
                Some(&special::EOS),
                "{at}: no [EOS]"
            );
            let reference = reference_text(p, TrainMethod::Ntp);
            assert_eq!(g.code, reference, "{at}: not the reference");
            assert_eq!(stage_judge(&g.code, p, 0xBEEF), every_stage, "{at}");
            tokens += g.output.tokens_without_eos().len();
            steps += g.output.steps;
            code += tok.encode(&g.code).len();
        }
        // Every engine writes the same code: the reference.
        assert_eq!(*code_tokens.get_or_insert(code), code, "{engine}");
        ceiling.push((engine, tokens, steps));
    }
    assert_eq!(ceiling, CEILING);
    assert_eq!(code_tokens, Some(CODE_TOKENS));
    // The readings the ROADMAP's oracle probe reports, derived from the
    // counts: tokens per step, then code tokens per step.
    let per_step = |n: usize, steps: usize| format!("{:.2}", n as f64 / steps as f64);
    let readings: Vec<(String, String)> = CEILING
        .iter()
        .map(|&(_, tokens, steps)| (per_step(tokens, steps), per_step(CODE_TOKENS, steps)))
        .collect();
    let want = [
        ("0.99", "0.99"),
        ("6.66", "6.66"),
        ("6.01", "2.66"),
        ("6.01", "2.66"),
    ];
    assert!(
        readings
            .iter()
            .zip(want)
            .all(|((t, c), (wt, wc))| t == wt && c == wc),
        "{readings:?}"
    );
}
