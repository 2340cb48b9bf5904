//! # VeriSpec
//!
//! A from-scratch Rust reproduction of *"Speculative Decoding for
//! Verilog: Speed and Quality, All in One"* (DAC 2025): syntax-aligned
//! MEDUSA-style speculative decoding for Verilog code generation,
//! together with every substrate the paper depends on — a Verilog
//! front-end, a trainable neural LM, a behavioral simulator, a synthetic
//! corpus pipeline, and an evaluation harness that regenerates the
//! paper's tables and figures.
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`verilog`] | `verispec-verilog` | lexer, parser, AST, `[FRAG]` fragmenter |
//! | [`tokenizer`] | `verispec-tokenizer` | byte-level BPE with special tokens |
//! | [`lm`] | `verispec-lm` | MLP LM with Medusa heads, GPU cost model |
//! | [`core`] | `verispec-core` | syntax-enriched labels, acceptance, decoding engines |
//! | [`data`] | `verispec-data` | synthetic corpus with golden models |
//! | [`serve`] | `verispec-serve` | continuous-batching multi-request serving engine |
//! | [`load`] | `verispec-load` | open-loop load generation + latency-percentile telemetry |
//! | [`sim`] | `verispec-sim` | behavioral simulator + testbench harness |
//! | [`eval`] | `verispec-eval` | benchmarks, judge, experiment runners |
//!
//! # Quickstart
//!
//! ```
//! use verispec::eval::{Pipeline, PipelineConfig, ModelScale};
//! use verispec::core::TrainMethod;
//!
//! // Small end-to-end smoke: corpus -> tokenizer -> train -> decode.
//! let pipe = Pipeline::build(PipelineConfig {
//!     corpus_size: 32, vocab: 350, n_heads: 2, epochs: 1,
//!     ..Default::default()
//! });
//! let model = pipe.model_for(ModelScale::Small, TrainMethod::Ntp, (1, 1));
//! assert_eq!(model.config().vocab, pipe.tokenizer.vocab_size());
//! ```

pub use verispec_core as core;
pub use verispec_data as data;
pub use verispec_eval as eval;
pub use verispec_lm as lm;
pub use verispec_load as load;
pub use verispec_serve as serve;
pub use verispec_sim as sim;
pub use verispec_tokenizer as tokenizer;
pub use verispec_verilog as verilog;
