//! Language-model substrate for VeriSpec.
//!
//! The paper fine-tunes CodeLlama-7b and CodeT5p-220m on GPUs; neither
//! is available offline, so this crate provides the laptop-scale
//! substitute: tiny neural
//! language models that are actually *trained* in Rust, so the paper's
//! quality and speed effects emerge from learning rather than being
//! hard-coded.
//!
//! * [`mlp`] — an MLP language model with MEDUSA-style decoding heads and
//!   hand-written backprop (the "base model + heads" of paper §III-B).
//! * [`session`] — stateful [`DecodeSession`]s (the KV-cache analogue):
//!   incremental append/rollback contexts with cached window
//!   embeddings, level-by-level candidate-tree verification and
//!   Medusa heads evaluated on demand from a kept trunk activation.
//! * [`arena`] — the flat `rows × vocab` [`LogitsArena`] every
//!   inference call writes into.
//! * [`sampler`] — greedy / temperature / top-k sampling.
//! * [`cost`] — the deterministic GPU latency model that converts decode
//!   steps into simulated tokens/second (Table II's measurement).
//! * [`matrix`] — the minimal dense linear algebra underneath: the
//!   row-major training layout and the packed inference layout.
//!
//! # Persisted form
//!
//! An [`MlpLm`] serializes (through `serde`) as its config and its
//! weight tensors, and each tensor — `emb`, `w1`, `b1`, and every
//! head's `p`, `u` and `c` — as **one string of its values'
//! [`f32::to_bits`]**, five Z85 characters (ZeroMQ RFC 32) per value in
//! storage order: exact by construction, no decimal conversion on load,
//! and 37.5 % less text than eight hex digits a value. A matrix keeps
//! its `rows` and `cols` beside its `data` string. Reading a model back
//! checks every tensor against the config (`emb` is `vocab × d_emb`,
//! `w1` is `d_hidden × context·d_emb`, `b1` has `d_hidden` values, there
//! are `n_heads + 1` heads of which only the base lacks `p`, `p` is
//! `d_hidden × d_hidden`, `u` is `vocab × d_hidden`, `c` has `vocab`
//! values): a file that disagrees with its own config, holds a byte
//! outside the Z85 alphabet, five characters above `u32::MAX` or a
//! non-finite value is an `Err` naming the tensor, never a model that
//! panics at its first inference.
//!
//! # Sessions vs. stateless calls
//!
//! The decoding engines in `verispec-core` open one [`DecodeSession`]
//! per generation and drive it incrementally:
//!
//! ```
//! use verispec_lm::{LanguageModel, MlpLm, MlpLmConfig};
//!
//! let model = MlpLm::new(MlpLmConfig::tiny(16));
//! let mut session = model.session();
//! session.append(&[1, 2, 3]);
//! let next = session.logits();               // cached window embedding
//! let paths: Vec<&[u32]> = vec![&[4, 5], &[4, 6]];
//! let scored = session.verify_batch(&paths, true); // one kernel call
//! assert_eq!(scored[0].len(), 3);            // K positions + bonus row
//! session.truncate(3);                       // rollback after rejection
//! assert_eq!(next, model.logits(&[1, 2, 3])); // sessions never drift
//! ```
//!
//! The stateless `logits(&prefix)` / `multi_logits(&prefix)` methods
//! are the reference every session is pinned to: for [`MlpLm`] they are
//! the scalar training forward, which the packed kernel
//! ([`MlpLm::infer`], one base-head row and kept trunk activation per
//! input, every Medusa head from a kept activation) matches bit for
//! bit.
//!
//! # Examples
//!
//! Train a tiny model on a repetitive sequence and query all heads:
//!
//! ```
//! use verispec_lm::mlp::{MlpLm, MlpLmConfig};
//!
//! let mut model = MlpLm::new(MlpLmConfig::tiny(16));
//! let mut opt = model.optimizer();
//! let mut grads = model.zero_grads();
//! let seq: Vec<u32> = (0..40).map(|i| 1 + (i % 3)).collect();
//! for _ in 0..5 {
//!     grads.reset();
//!     for pos in 0..seq.len() - 1 {
//!         let w = model.window(&seq[..=pos]);
//!         model.accumulate_position(&mut grads, &w, &[(0, seq[pos + 1], 1.0)]);
//!     }
//!     model.adam_step(&mut opt, &grads, 1e-2, 4.0);
//! }
//! let per_head_logits = model.multi_logits(&seq[..4]);
//! assert_eq!(per_head_logits.len(), 1 + model.n_heads());
//! ```

#![deny(missing_docs)]

pub mod arena;
mod codec;
pub mod cost;
pub mod matrix;
pub mod mlp;
pub mod sampler;
pub mod session;

pub use arena::{ArenaRows, LogitsArena};
pub use cost::{DecodeClock, GpuCostModel};
pub use mlp::{HeadTarget, MlpLm, MlpLmConfig, PositionLoss, TokenId, PAD_ID};
pub use sampler::{argmax, top_k_indices, top_k_into, Ranking, Sampler, Sampling};
pub use session::{verify_many, DecodeSession, MlpSession, NodeMap, SnapshotSession, VerifyPlan};

/// A language model that exposes base-head logits over a prefix, and
/// optionally extra Medusa heads predicting further-ahead tokens.
///
/// Implemented by [`MlpLm`] (trainable, with heads). The speculative
/// decoding engines in `verispec-core` are generic over this trait and
/// drive it through [`LanguageModel::session`].
///
/// An implementation provides the stateless [`LanguageModel::logits`];
/// the default session recomputes from it per query, and a model with
/// cacheable state overrides [`LanguageModel::session`].
pub trait LanguageModel {
    /// Vocabulary size (length of each logit vector).
    fn vocab_size(&self) -> usize;

    /// Number of extra Medusa heads (0 for plain LMs).
    fn n_extra_heads(&self) -> usize {
        0
    }

    /// Opens an empty [`DecodeSession`] over this model.
    ///
    /// The default is a stateless shim (full recompute per query);
    /// models with cacheable state override this with an incremental
    /// session ([`MlpSession`]).
    fn session(&self) -> Box<dyn DecodeSession + '_> {
        Box::new(session::StatelessSession::new(self))
    }

    /// Opens an empty **storable-fork** session over this model
    /// ([`SnapshotSession`]): forks taken through any short borrow live
    /// for the full model lifetime, which is what lets an owner (e.g. a
    /// prefix cache) keep boxed snapshots and fork from them later.
    ///
    /// `None` (the default) means callers must fall back to
    /// [`LanguageModel::session`] and re-ingest prompts from scratch;
    /// [`MlpLm`] overrides it.
    fn snapshot_session(&self) -> Option<Box<dyn SnapshotSession<'_> + '_>> {
        None
    }

    /// Base-head logits for the next token after `prefix`.
    fn logits(&self, prefix: &[TokenId]) -> Vec<f32>;

    /// Logits for the base head and every extra head.
    ///
    /// Default: the base head only, for a model with no extra heads.
    fn multi_logits(&self, prefix: &[TokenId]) -> Vec<Vec<f32>> {
        vec![self.logits(prefix)]
    }
}

impl<M: LanguageModel + ?Sized> LanguageModel for &M {
    fn vocab_size(&self) -> usize {
        (**self).vocab_size()
    }

    fn n_extra_heads(&self) -> usize {
        (**self).n_extra_heads()
    }

    fn session(&self) -> Box<dyn DecodeSession + '_> {
        (**self).session()
    }

    fn snapshot_session(&self) -> Option<Box<dyn SnapshotSession<'_> + '_>> {
        (**self).snapshot_session()
    }

    fn logits(&self, prefix: &[TokenId]) -> Vec<f32> {
        (**self).logits(prefix)
    }

    fn multi_logits(&self, prefix: &[TokenId]) -> Vec<Vec<f32>> {
        (**self).multi_logits(prefix)
    }
}

impl LanguageModel for MlpLm {
    fn vocab_size(&self) -> usize {
        self.config().vocab
    }

    fn n_extra_heads(&self) -> usize {
        self.n_heads()
    }

    fn session(&self) -> Box<dyn DecodeSession + '_> {
        Box::new(MlpSession::new(self))
    }

    fn snapshot_session(&self) -> Option<Box<dyn SnapshotSession<'_> + '_>> {
        Some(Box::new(MlpSession::new(self)))
    }

    fn logits(&self, prefix: &[TokenId]) -> Vec<f32> {
        MlpLm::logits(self, prefix)
    }

    fn multi_logits(&self, prefix: &[TokenId]) -> Vec<Vec<f32>> {
        MlpLm::multi_logits(self, prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A heads-free model on the trait-default session: the token after
    /// the last one in the cycle `5 → 6 → 7 → 8` leads its row, and any
    /// other context starts the cycle.
    pub(crate) struct Cycle;

    impl LanguageModel for Cycle {
        fn vocab_size(&self) -> usize {
            12
        }

        fn logits(&self, prefix: &[TokenId]) -> Vec<f32> {
            let next = match prefix.last() {
                Some(&t @ 5..=7) => t + 1,
                _ => 5,
            };
            (0..12).map(|v| if v == next { 3.0 } else { 0.0 }).collect()
        }
    }

    /// An [`MlpLm`] behind its stateless forward only, so its sessions
    /// are the trait default's fresh recompute per query: the reference
    /// side of cached-vs-stateless comparisons.
    pub(crate) struct Recompute<'a>(pub &'a MlpLm);

    impl LanguageModel for Recompute<'_> {
        fn vocab_size(&self) -> usize {
            self.0.vocab_size()
        }

        fn n_extra_heads(&self) -> usize {
            self.0.n_extra_heads()
        }

        fn logits(&self, prefix: &[TokenId]) -> Vec<f32> {
            self.0.logits(prefix)
        }

        fn multi_logits(&self, prefix: &[TokenId]) -> Vec<Vec<f32>> {
            self.0.multi_logits(prefix)
        }
    }

    #[test]
    fn trait_objects_work_for_both_models() {
        // One with a native session and heads, one on the trait default.
        let mlp = MlpLm::new(MlpLmConfig::tiny(12));
        let models: Vec<&dyn LanguageModel> = vec![&mlp, &Cycle];
        for m in models {
            assert_eq!(m.logits(&[1, 2]).len(), 12);
            assert_eq!(m.multi_logits(&[1]).len(), 1 + m.n_extra_heads());
            let mut s = m.session();
            s.append(&[1, 2]);
            assert_eq!(s.logits(), m.logits(&[1, 2]));
        }
        assert_eq!(mlp.n_extra_heads(), 3);
        assert_eq!(Cycle.n_extra_heads(), 0);
    }
}
