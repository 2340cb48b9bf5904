//! End-to-end experiment pipeline: corpus → BPE tokenizer → encoded
//! datasets → trained models → generation.
//!
//! The two model scales stand in for the paper's CodeLlama-7b ("Large")
//! and CodeT5p-220m ("Small"); see DESIGN.md §2. Trained models are
//! cached on disk keyed by a configuration hash so that benches and
//! repeated harness runs do not retrain.

use crate::benchmarks::Problem;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use verispec_core::{
    decode_grammar_speculative, DecodeConfig, DecodeMethod, DecodeOutput, TrainConfig, TrainMethod,
};
use verispec_data::{alpaca_format, Corpus, CorpusConfig};
use verispec_grammar::GrammarOracle;
use verispec_lm::{GpuCostModel, MlpLm, MlpLmConfig, TokenId};
use verispec_tokenizer::{special, BpeTokenizer, BpeTrainer};
use verispec_verilog::fragment::defragmentize;

/// Which paper model a configuration stands in for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelScale {
    /// CodeLlama-7b-Instruct stand-in: wider, longer context.
    Large,
    /// CodeT5p-220m stand-in: narrower, shorter context.
    Small,
}

impl ModelScale {
    /// Table-friendly name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelScale::Large => "CodeLlama",
            ModelScale::Small => "CodeT5p",
        }
    }

    /// The LM architecture for this scale.
    pub fn lm_config(&self, vocab: usize, n_heads: usize, seed: u64) -> MlpLmConfig {
        match self {
            ModelScale::Large => MlpLmConfig {
                vocab,
                d_emb: 12,
                d_hidden: 48,
                context: 40,
                n_heads,
                seed,
            },
            ModelScale::Small => MlpLmConfig {
                vocab,
                d_emb: 10,
                d_hidden: 32,
                context: 16,
                n_heads,
                seed,
            },
        }
    }

    /// The simulated GPU cost model for this scale.
    pub fn cost_model(&self) -> GpuCostModel {
        match self {
            ModelScale::Large => GpuCostModel::codellama_like(),
            ModelScale::Small => GpuCostModel::codet5p_like(),
        }
    }
}

/// Pipeline-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Hash)]
pub struct PipelineConfig {
    /// Raw corpus size before refinement.
    pub corpus_size: usize,
    /// Corpus seed.
    pub corpus_seed: u64,
    /// BPE vocabulary target.
    pub vocab: usize,
    /// Medusa heads on speculative models (paper: 10).
    pub n_heads: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Model init / shuffle seed.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            corpus_size: 640,
            corpus_seed: 0xC0FFEE,
            vocab: 640,
            n_heads: 10,
            epochs: 3,
            seed: 17,
        }
    }
}

/// The shared experiment substrate: corpus, tokenizer, encoded datasets.
pub struct Pipeline {
    /// Configuration used to build everything.
    pub config: PipelineConfig,
    /// The refined corpus.
    pub corpus: Corpus,
    /// Shared BPE tokenizer (trained on plain + tagged text).
    pub tokenizer: BpeTokenizer,
    /// Alpaca-formatted plain sequences (for NTP / Medusa).
    pub plain_sequences: Vec<Vec<TokenId>>,
    /// Alpaca-formatted `[FRAG]`-tagged sequences (for Ours).
    pub tagged_sequences: Vec<Vec<TokenId>>,
}

impl Pipeline {
    /// Builds corpus, tokenizer, and encoded datasets.
    pub fn build(config: PipelineConfig) -> Pipeline {
        let corpus = Corpus::build(&CorpusConfig {
            size: config.corpus_size,
            seed: config.corpus_seed,
            ..Default::default()
        });
        let plain_texts: Vec<String> = corpus
            .items
            .iter()
            .map(|it| alpaca_format(&it.description, &it.source))
            .collect();
        let tagged_texts: Vec<String> = corpus
            .items
            .iter()
            .map(|it| alpaca_format(&it.description, &it.tagged_source))
            .collect();

        let tokenizer = BpeTrainer::new(config.vocab).train(
            plain_texts
                .iter()
                .map(String::as_str)
                .chain(tagged_texts.iter().map(String::as_str)),
        );

        let encode_all = |texts: &[String]| -> Vec<Vec<TokenId>> {
            texts
                .iter()
                .map(|t| {
                    let mut ids = tokenizer.encode(t);
                    ids.push(special::EOS);
                    ids
                })
                .collect()
        };
        let plain_sequences = encode_all(&plain_texts);
        let tagged_sequences = encode_all(&tagged_texts);
        Pipeline {
            config,
            corpus,
            tokenizer,
            plain_sequences,
            tagged_sequences,
        }
    }

    /// The training sequences a method consumes, cut to the paper's
    /// data-size fraction (`numerator/denominator` of the corpus).
    pub fn sequences_for(
        &self,
        method: TrainMethod,
        fraction: (usize, usize),
    ) -> Vec<Vec<TokenId>> {
        let all = match method {
            TrainMethod::Ours => &self.tagged_sequences,
            _ => &self.plain_sequences,
        };
        let n = all.len() * fraction.0 / fraction.1;
        all.iter().take(n).cloned().collect()
    }

    /// Trains (or loads from cache) a model for the given cell.
    pub fn model_for(
        &self,
        scale: ModelScale,
        method: TrainMethod,
        fraction: (usize, usize),
    ) -> MlpLm {
        let n_heads = if method == TrainMethod::Ntp {
            0
        } else {
            self.config.n_heads
        };
        let lm_cfg = self.lm_config(scale, method);
        let key = cache_key(&self.config, scale, method, fraction, n_heads);
        if let Some(model) = load_cached(&key, &lm_cfg) {
            return model;
        }
        let sequences = self.sequences_for(method, fraction);
        let tc = TrainConfig {
            epochs: self.config.epochs,
            seed: self.config.seed,
            ..TrainConfig::paper_defaults(method)
        };
        let (model, _report) = verispec_core::train(lm_cfg, &sequences, &tc);
        store_cached(&key, &model);
        model
    }

    /// The LM configuration for a scale/method pair.
    pub fn lm_config(&self, scale: ModelScale, method: TrainMethod) -> MlpLmConfig {
        let n_heads = if method == TrainMethod::Ntp {
            0
        } else {
            self.config.n_heads
        };
        scale.lm_config(self.tokenizer.vocab_size(), n_heads, self.config.seed)
    }
}

/// Bump when tokenizer/training/decoding algorithms change in ways that
/// invalidate previously cached models.
const CACHE_VERSION: u32 = 2;

fn cache_key(
    cfg: &PipelineConfig,
    scale: ModelScale,
    method: TrainMethod,
    fraction: (usize, usize),
    n_heads: usize,
) -> String {
    let mut h = DefaultHasher::new();
    CACHE_VERSION.hash(&mut h);
    cfg.hash(&mut h);
    scale.hash(&mut h);
    method.name().hash(&mut h);
    fraction.hash(&mut h);
    n_heads.hash(&mut h);
    format!("model_{:016x}", h.finish())
}

fn cache_dir() -> PathBuf {
    // Anchor to the workspace target dir so tests and benches (whose
    // CWD is their *package* dir) share one cache instead of littering
    // per-crate target/ directories.
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target")));
    base.join("verispec-cache")
}

fn load_cached(key: &str, expect_cfg: &MlpLmConfig) -> Option<MlpLm> {
    let path = cache_dir().join(format!("{key}.json"));
    let bytes = std::fs::read(&path).ok()?;
    let model: MlpLm = serde_json::from_slice(&bytes).ok()?;
    (model.config() == expect_cfg).then_some(model)
}

fn store_cached(key: &str, model: &MlpLm) {
    let dir = cache_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{key}.json"));
    if let Ok(bytes) = serde_json::to_vec(model) {
        let _ = std::fs::write(path, bytes);
    }
}

/// Prefix-sharing prompt encoder: the common Alpaca preamble is
/// BPE-encoded **once**, and every prompt starting with it reuses the
/// cached ids, encoding only the per-request remainder.
///
/// Exactness: BPE merges never cross pre-tokenization word boundaries,
/// the preamble ends in a lone `\n` (a complete whitespace word — no
/// trailing space for the tokenizer to glue onto the next word), and
/// the split is only taken when the remainder starts with a
/// non-whitespace character. Under those conditions
/// `encode(preamble) ++ encode(rest) == encode(preamble ++ rest)`
/// bit-for-bit (`debug_assert`ed, and pinned over every benchmark
/// prompt by the tests). Anything else falls back to a full encode.
///
/// Served runs warm `preamble_ids` into each engine's prefix cache
/// (`verispec_serve::ServeEngine::warm_prefix`): it is ingested once
/// and each request forks the cached stem at admission, ingesting only
/// its remainder.
pub struct SharedPrefixEncoder<'t> {
    tokenizer: &'t BpeTokenizer,
    preamble: &'static str,
    /// Token ids of the shared preamble.
    pub preamble_ids: Vec<TokenId>,
}

impl<'t> SharedPrefixEncoder<'t> {
    /// Encodes the Alpaca preamble once.
    pub fn new(tokenizer: &'t BpeTokenizer) -> Self {
        let preamble = verispec_data::alpaca_preamble();
        SharedPrefixEncoder {
            tokenizer,
            preamble,
            preamble_ids: tokenizer.encode(preamble),
        }
    }

    /// Encodes `prompt`, reusing the cached preamble ids when the split
    /// is provably exact. Always equals `tokenizer.encode(prompt)`.
    pub fn encode(&self, prompt: &str) -> Vec<TokenId> {
        match prompt.strip_prefix(self.preamble) {
            Some(rest) if rest.starts_with(|c: char| !c.is_whitespace()) => {
                let mut ids = self.preamble_ids.clone();
                ids.extend(self.tokenizer.encode(rest));
                debug_assert_eq!(
                    ids,
                    self.tokenizer.encode(prompt),
                    "shared-prefix split must be exact"
                );
                ids
            }
            _ => self.tokenizer.encode(prompt),
        }
    }
}

/// The decode method a training method is evaluated with.
pub fn decode_method_of(method: TrainMethod) -> DecodeMethod {
    match method {
        TrainMethod::Ntp => DecodeMethod::Ntp,
        TrainMethod::Medusa => DecodeMethod::Medusa,
        TrainMethod::Ours => DecodeMethod::Ours,
    }
}

/// Output of one generation: the cleaned code text plus decode stats.
#[derive(Debug, Clone)]
pub struct Generation {
    /// Generated completion as plain Verilog (specials stripped,
    /// `[FRAG]` markers removed).
    pub code: String,
    /// Raw decode output (token counts, steps, simulated clock).
    pub output: DecodeOutput,
}

/// Generates a completion for `problem` with the given trained model,
/// decoding through its native cached [`verispec_lm::DecodeSession`].
pub fn generate(
    model: &MlpLm,
    tokenizer: &BpeTokenizer,
    problem: &Problem,
    method: TrainMethod,
    decode_cfg: &DecodeConfig,
    cost: &GpuCostModel,
) -> Generation {
    let prompt_text = match method {
        TrainMethod::Ours => problem.prompt_tagged(),
        _ => problem.prompt_plain(),
    };
    let prompt = tokenizer.encode(&prompt_text);
    let output = decode_method_of(method).decode(model, &prompt, decode_cfg, cost);
    clean(tokenizer, output)
}

/// Like [`generate`], but decoding through the grammar-constrained
/// speculation engine: tagged prompts against the Ours-trained model
/// (the only regime whose outputs carry the `[FRAG]` markers the
/// dead-tail pruner keys on), with `oracle` viability-filtering and
/// pruning every candidate tree at propose time. Same prompt
/// construction and cleaned-code post-processing as [`generate`] under
/// [`verispec_core::TrainMethod::Ours`], so quality comparisons against
/// the unconstrained tree isolate the propose-time grammar layer.
pub fn generate_grammar(
    model: &MlpLm,
    tokenizer: &BpeTokenizer,
    oracle: &GrammarOracle,
    problem: &Problem,
    decode_cfg: &DecodeConfig,
    cost: &GpuCostModel,
) -> Generation {
    let prompt = tokenizer.encode(&problem.prompt_tagged());
    let output = decode_grammar_speculative(model, oracle, &prompt, decode_cfg, cost);
    clean(tokenizer, output)
}

/// The paper's "Cleaned Code" step: decode the generated ids and strip
/// `[FRAG]` markers and stray specials.
fn clean(tokenizer: &BpeTokenizer, output: DecodeOutput) -> Generation {
    let gen_ids = output.tokens_without_eos();
    let text = tokenizer.decode(&gen_ids);
    let code = defragmentize(&text)
        .replace("[PAD]", "")
        .replace("[BOS]", "")
        .replace("[IGNORE]", "");
    Generation { code, output }
}

/// A reasonable decode budget for a problem: twice the reference length
/// plus slack, capped. Tagged references are longer, so "Ours" gets a
/// proportionally larger raw-token budget.
pub fn token_budget(tokenizer: &BpeTokenizer, problem: &Problem, method: TrainMethod) -> usize {
    let reference = match method {
        TrainMethod::Ours => {
            // Tagged reference length.
            tokenizer.encode(&problem_reference_tagged(problem)).len()
        }
        _ => tokenizer.encode(&problem.module.source).len(),
    };
    (reference * 2 + 32).min(768)
}

fn problem_reference_tagged(problem: &Problem) -> String {
    use verispec_verilog::significant::SignificantTokens;
    let Ok(file) = verispec_verilog::parse(&problem.module.source) else {
        return problem.module.source.clone();
    };
    let sig = SignificantTokens::from_source_file(&file);
    verispec_verilog::fragment::fragmentize(&problem.module.source, &sig)
        .unwrap_or_else(|_| problem.module.source.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::rtllm_sim;

    fn tiny_pipeline() -> Pipeline {
        Pipeline::build(PipelineConfig {
            corpus_size: 48,
            vocab: 380,
            n_heads: 4,
            epochs: 1,
            ..Default::default()
        })
    }

    #[test]
    fn pipeline_builds_and_encodes() {
        let p = tiny_pipeline();
        assert!(p.corpus.stats.retained > 20);
        assert_eq!(p.plain_sequences.len(), p.corpus.items.len());
        assert_eq!(p.tagged_sequences.len(), p.corpus.items.len());
        // Tagged sequences contain FRAG ids; plain do not.
        assert!(p.tagged_sequences[0].contains(&special::FRAG));
        assert!(!p.plain_sequences[0].contains(&special::FRAG));
        // All end with EOS.
        assert_eq!(
            *p.plain_sequences[0].last().expect("nonempty"),
            special::EOS
        );
    }

    #[test]
    fn fractions_scale_dataset() {
        let p = tiny_pipeline();
        let full = p.sequences_for(TrainMethod::Medusa, (1, 1));
        let half = p.sequences_for(TrainMethod::Medusa, (1, 2));
        assert_eq!(half.len(), full.len() / 2);
    }

    #[test]
    fn training_and_generation_smoke() {
        let p = tiny_pipeline();
        let model = p.model_for(ModelScale::Small, TrainMethod::Ntp, (1, 2));
        let bench = rtllm_sim();
        let cfg = DecodeConfig {
            max_tokens: 48,
            ..Default::default()
        };
        let g = generate(
            &model,
            &p.tokenizer,
            &bench.problems[0],
            TrainMethod::Ntp,
            &cfg,
            &ModelScale::Small.cost_model(),
        );
        assert!(g.output.tokens.len() <= 48);
        assert!(!g.code.contains("[FRAG]"));
    }

    #[test]
    fn model_cache_round_trip() {
        let p = tiny_pipeline();
        let a = p.model_for(ModelScale::Small, TrainMethod::Ntp, (1, 4));
        let b = p.model_for(ModelScale::Small, TrainMethod::Ntp, (1, 4));
        // Second call loads the cached model: identical behaviour.
        assert_eq!(a.logits(&[1, 2, 3]), b.logits(&[1, 2, 3]));
    }

    #[test]
    fn shared_prefix_encoder_is_exact_on_all_benchmark_prompts() {
        let p = tiny_pipeline();
        let enc = SharedPrefixEncoder::new(&p.tokenizer);
        assert!(!enc.preamble_ids.is_empty());
        let mut checked = 0usize;
        for bench in [rtllm_sim(), crate::benchmarks::vgen_sim()] {
            for problem in &bench.problems {
                for prompt in [problem.prompt_plain(), problem.prompt_tagged()] {
                    assert_eq!(
                        enc.encode(&prompt),
                        p.tokenizer.encode(&prompt),
                        "split encode diverged on {}",
                        problem.id
                    );
                    assert!(enc.encode(&prompt).starts_with(&enc.preamble_ids));
                    checked += 1;
                }
            }
        }
        assert!(checked > 40, "covered both suites");
        // Non-preamble prompts fall back to a plain encode.
        assert_eq!(enc.encode("module m;"), p.tokenizer.encode("module m;"));
    }

    #[test]
    fn token_budget_scales_with_method() {
        let p = tiny_pipeline();
        let prob = &rtllm_sim().problems[0];
        let ours = token_budget(&p.tokenizer, prob, TrainMethod::Ours);
        let ntp = token_budget(&p.tokenizer, prob, TrainMethod::Ntp);
        assert!(ours > ntp, "tagged budget {ours} must exceed plain {ntp}");
    }
}
