//! VeriSpec core: syntax-aligned speculative decoding for Verilog.
//!
//! This crate implements the primary contribution of *"Speculative
//! Decoding for Verilog: Speed and Quality, All in One"* (DAC 2025):
//!
//! * **Syntax-enriched labels** ([`labels`]) — the Fig.-4 construction
//!   that aligns every head's supervision with complete syntactic
//!   fragments, including the paper's parallel masking algorithm;
//! * **Typical acceptance** ([`accept`]) — Eq. 1's entropy-adaptive
//!   criterion for speculated tokens;
//! * **Decoding engines** ([`decode`]) — NTP, MEDUSA, the paper's
//!   syntax-aligned variant with the fragment-integrity check, and the
//!   grammar-constrained engine that offers only lexically-viable
//!   continuations as candidates — the paper's three methods (NTP,
//!   MEDUSA, "Ours") plus the grammar layer on top of "Ours";
//! * **Training orchestration** ([`train`](mod@train)) — MEDUSA-2's Eq.-2 loss with
//!   λ sine ramp, γ decay, and 4× head learning rate, parameterized over
//!   the three regimes compared in the paper;
//! * **Step-granular decoding** ([`step`]) — every engine decomposed
//!   into propose → verify → commit phases over a [`Stepper`], started
//!   one way for every engine ([`Stepper::new`] with the [`Engine`] as
//!   a value); the serial engines loop it, and a multi-request scheduler
//!   (`verispec-serve`) drives it to fuse verification across
//!   concurrent generations;
//! * **Speculation policies** ([`policy`]) — the per-request, per-step
//!   decision of *how much speculation to buy*: the static configured
//!   shape, history-adaptive speculation length, or a per-tick
//!   candidate budget a serving engine divides across its batch.
//!
//! # Engine stack
//!
//! ```text
//!            ┌─────────────────────────────────────────────┐
//!            │ grammar-constrained ("Grammar-tree")         │
//!            │   each reached node's children filtered by   │
//!            │   its own lexer state (verispec-grammar)     │
//!            ├─────────────────────────────────────────────┤
//!            │ syntax-aligned ("Ours")                      │
//!            │   post-hoc fragment-integrity cut (§III-B)   │
//!            ├─────────────────────────────────────────────┤
//!            │ MEDUSA speculation (chain / tree)            │
//!            │   propose → verify (one batched pass) → commit│
//!            ├─────────────────────────────────────────────┤
//!            │ NTP baseline                                 │
//!            └─────────────────────────────────────────────┘
//! ```
//!
//! Each layer reuses the one below: the grammar engine is the
//! syntax-aligned engine with each node's candidates named by the
//! oracle's filter instead of the head's plain top-k, so every
//! [`policy::SpecPolicy`] and the fused verify path compose with it
//! unchanged.
//!
//! # Examples
//!
//! Build syntax-enriched labels for a `[FRAG]`-tagged snippet and check
//! how much head supervision the masking removes:
//!
//! ```
//! use verispec_core::labels::LabelGrid;
//! use verispec_tokenizer::{special, BpeTokenizer};
//!
//! let tok = BpeTokenizer::byte_level();
//! let ids = tok.encode("[FRAG]module[FRAG] [FRAG]m[FRAG](");
//! let grid = LabelGrid::syntax_enriched_parallel(&ids, 10);
//! assert!(grid.ignore_fraction(10) >= grid.ignore_fraction(1));
//! ```

#![deny(missing_docs)]

pub mod accept;
pub mod decode;
pub mod labels;
pub mod policy;
pub mod step;
pub mod train;

pub use accept::TypicalAcceptance;
pub use decode::{
    decode_grammar_speculative, decode_ntp, decode_speculative, DecodeConfig, DecodeMethod,
    DecodeOutput, StepTrace,
};
pub use labels::LabelGrid;
pub use policy::{
    AcceptHistory, AdaptivePolicy, BudgetedPolicy, ShapeQuery, SpecPolicy, SpecShape, StaticPolicy,
    STATIC_POLICY,
};
pub use step::{Engine, Phase, Stepper};
pub use train::{train, train_in_place, TrainConfig, TrainMethod, TrainReport};
