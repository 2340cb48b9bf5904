//! Synthetic Verilog corpus generation for VeriSpec.
//!
//! The paper trains on 136K Verilog modules scraped from GitHub plus the
//! MG-Verilog and RTLCoder datasets, with GPT-4-written descriptions
//! (§III-A). None of that is available offline, so this crate substitutes
//! **parameterized RTL module families** — muxes, adders, ALUs,
//! counters, FSMs, FIFOs, RAMs,
//! and more — each paired with
//!
//! * randomized but always-well-formed Verilog source,
//! * a templated natural-language description, and
//! * a **golden reference model** the behavioral simulator can check
//!   generated code against.
//!
//! The full Fig.-2 refinement pipeline is reproduced: structure filter,
//! comment-ratio filter, syntax check, MinHash/Jaccard dedup, `[FRAG]`
//! tagging, and Alpaca-style instruction formatting.
//!
//! # Examples
//!
//! ```
//! use verispec_data::{Corpus, CorpusConfig};
//!
//! let corpus = Corpus::build(&CorpusConfig { size: 32, ..Default::default() });
//! assert!(corpus.stats.retained > 0);
//! let item = &corpus.items[0];
//! assert!(item.tagged_source.contains("[FRAG]"));
//! ```

#![deny(missing_docs)]

pub mod corpus;
pub mod dedup;
pub mod families;
pub mod iface;
pub mod naming;
pub mod style;

pub use corpus::{
    alpaca_format, alpaca_preamble, alpaca_prompt, Corpus, CorpusConfig, CorpusItem, CorpusStats,
};
pub use dedup::{dedup_indices, jaccard, MinHash};
pub use iface::{
    input, mask, GeneratedModule, Golden, InputVector, Interface, OutputVector, PortSpec,
    ResetWiring,
};
pub use naming::with_naming_tail;
pub use style::{restyle, StyleProfile};
