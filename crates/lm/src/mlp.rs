//! A tiny trainable neural language model with Medusa decoding heads.
//!
//! Architecture (the laptop-scale stand-in for CodeLlama/CodeT5p, which
//! cannot be fine-tuned offline): a Bengio-style MLP over a fixed
//! context window —
//! token embeddings are concatenated and passed through one SiLU trunk —
//! with a base LM head plus `n` *Medusa heads* attached to the last
//! hidden state, exactly the paper's §III-B architecture. Head `i`
//! predicts the token at offset `i + 1` from the current position.
//!
//! Each Medusa head follows the MEDUSA residual-block design:
//! `logits_i = U_i (h + silu(P_i h)) + c_i`, while the base head is the
//! plain LM head `logits_0 = U_0 h + c_0`.
//!
//! Training uses hand-derived backpropagation (verified against finite
//! differences in the tests) and the Adam optimizer with a separate
//! learning-rate multiplier for the heads (the paper trains heads at 4×
//! the base learning rate).
//!
//! Inference — every session query and every fused serving pass — runs
//! through **one** kernel over weights repacked once per model
//! ([`crate::matrix::PackedMatrix`]) into a caller-owned
//! [`LogitsArena`], with one row layout: [`MlpLm::infer`] writes one
//! base-head row per input and keeps the input's trunk activation
//! beside it, and every Medusa-head row is evaluated later from such a
//! kept activation (`infer_heads`, or `head_row_until`, which computes
//! a head row a block at a time and stops once the blocks it has
//! computed show a decode step everything it needs). The row-major
//! scalar forward
//! ([`MlpLm::logits`] / [`MlpLm::multi_logits`]) stays as the training
//! forward and the reference the kernel is pinned bit-identical to.

use crate::arena::LogitsArena;
use crate::matrix::{log_softmax, silu, silu_prime, softmax, Matrix, PackedMatrix, PACK_ROWS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

mod persist;

/// Token id type shared with the tokenizer crate.
pub type TokenId = u32;

/// Padding id used to left-fill short contexts (tokenizer's `[PAD]`).
pub const PAD_ID: TokenId = 0;

/// Configuration of an [`MlpLm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MlpLmConfig {
    /// Vocabulary size (logits dimension).
    pub vocab: usize,
    /// Embedding width per token.
    pub d_emb: usize,
    /// Hidden (trunk) width — the "last hidden state" heads attach to.
    pub d_hidden: usize,
    /// Context window length in tokens.
    pub context: usize,
    /// Number of Medusa heads in addition to the base head.
    pub n_heads: usize,
    /// RNG seed for parameter initialization.
    pub seed: u64,
}

impl MlpLmConfig {
    /// A deliberately tiny configuration for unit tests.
    pub fn tiny(vocab: usize) -> Self {
        Self {
            vocab,
            d_emb: 8,
            d_hidden: 16,
            context: 4,
            n_heads: 3,
            seed: 7,
        }
    }
}

/// One output head: the base LM head (`p == None`) or a Medusa head with
/// its residual block.
#[derive(Debug, Clone)]
struct Head {
    /// Residual block weight (`d_hidden × d_hidden`), absent for base.
    p: Option<Matrix>,
    /// Output projection (`vocab × d_hidden`).
    u: Matrix,
    /// Output bias (`vocab`).
    c: Vec<f32>,
}

/// The MLP language model with Medusa heads.
///
/// Serializes as its config and its weight tensors, each tensor one
/// string of its values' bits, five Z85 characters a value (the crate's
/// "Persisted form"); reading one back checks every tensor against the
/// config.
#[derive(Debug, Clone)]
pub struct MlpLm {
    cfg: MlpLmConfig,
    /// Token embeddings (`vocab × d_emb`).
    emb: Matrix,
    /// Trunk weight (`d_hidden × context·d_emb`).
    w1: Matrix,
    /// Trunk bias (`d_hidden`).
    b1: Vec<f32>,
    /// Base head followed by the Medusa heads.
    heads: Vec<Head>,
    /// The weights repacked for [`MlpLm::infer`]: derived state, built
    /// at first inference, never serialized, dropped by every optimizer
    /// step.
    packed: OnceLock<PackedWeights>,
}

/// Every weight matrix of an [`MlpLm`] in the inference layout.
#[derive(Debug, Clone)]
struct PackedWeights {
    w1: PackedMatrix,
    /// `(residual block, output projection)` per head, base first.
    heads: Vec<(Option<PackedMatrix>, PackedMatrix)>,
}

/// Forward-pass intermediates for one position, reused by the backward
/// pass.
#[derive(Debug, Clone)]
struct Activations {
    /// Concatenated input embeddings.
    x: Vec<f32>,
    /// Trunk pre-activation.
    a: Vec<f32>,
    /// Trunk hidden state (`silu(a)`).
    h: Vec<f32>,
}

/// Per-head supervision for one position: `(head index, target token,
/// loss weight)`. Head index 0 is the base head. Positions a label grid
/// marks `[IGNORE]` are simply not listed.
pub type HeadTarget = (usize, TokenId, f32);

/// Loss breakdown returned by [`MlpLm::accumulate_position`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PositionLoss {
    /// Weighted base-head cross-entropy.
    pub base: f32,
    /// Weighted sum of head cross-entropies.
    pub heads: f32,
}

impl PositionLoss {
    /// Total weighted loss at this position.
    pub fn total(&self) -> f32 {
        self.base + self.heads
    }
}

impl MlpLm {
    /// Initializes a model with small random weights.
    pub fn new(cfg: MlpLmConfig) -> Self {
        assert!(cfg.vocab > 1 && cfg.d_emb > 0 && cfg.d_hidden > 0 && cfg.context > 0);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut init = |rows: usize, cols: usize| {
            let scale = (2.0 / (rows + cols) as f32).sqrt();
            Matrix::from_fn(rows, cols, |_, _| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
        };
        let emb = init(cfg.vocab, cfg.d_emb);
        let w1 = init(cfg.d_hidden, cfg.context * cfg.d_emb);
        let mut heads = Vec::with_capacity(cfg.n_heads + 1);
        heads.push(Head {
            p: None,
            u: init(cfg.vocab, cfg.d_hidden),
            c: vec![0.0; cfg.vocab],
        });
        for _ in 0..cfg.n_heads {
            heads.push(Head {
                p: Some(init(cfg.d_hidden, cfg.d_hidden)),
                u: init(cfg.vocab, cfg.d_hidden),
                c: vec![0.0; cfg.vocab],
            });
        }
        Self {
            cfg,
            emb,
            w1,
            b1: vec![0.0; cfg.d_hidden],
            heads,
            packed: OnceLock::new(),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &MlpLmConfig {
        &self.cfg
    }

    /// Number of Medusa heads (excluding the base head).
    pub fn n_heads(&self) -> usize {
        self.cfg.n_heads
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        let mut n = self.emb.as_slice().len() + self.w1.as_slice().len() + self.b1.len();
        for h in &self.heads {
            n += h.p.as_ref().map_or(0, |p| p.as_slice().len());
            n += h.u.as_slice().len() + h.c.len();
        }
        n
    }

    /// Builds the fixed-size context window for a prefix: the last
    /// `context` tokens, left-padded with [`PAD_ID`].
    pub fn window(&self, prefix: &[TokenId]) -> Vec<TokenId> {
        let w = self.cfg.context;
        let mut win = vec![PAD_ID; w];
        let take = prefix.len().min(w);
        win[w - take..].copy_from_slice(&prefix[prefix.len() - take..]);
        win
    }

    /// Runs the trunk for a context window.
    ///
    /// # Panics
    ///
    /// Panics if `window.len() != context` or a token id is out of range.
    fn forward_trunk(&self, window: &[TokenId]) -> Activations {
        let x = self.embed_window(window);
        let mut a = self.w1.matvec(&x);
        for (av, bv) in a.iter_mut().zip(&self.b1) {
            *av += bv;
        }
        let h = a.iter().map(|&v| silu(v)).collect();
        Activations { x, a, h }
    }

    /// Embedding row of one token (sessions use this to update only the
    /// window tail that changed).
    ///
    /// # Panics
    ///
    /// Panics if `tok` is out of the vocabulary.
    pub fn embed_token(&self, tok: TokenId) -> &[f32] {
        self.emb.row(tok as usize)
    }

    /// Concatenated embeddings of a context window — the `x` the trunk
    /// consumes, and the state a [`crate::session::MlpSession`] caches
    /// and shifts incrementally.
    ///
    /// # Panics
    ///
    /// Panics if `window.len() != context` or a token id is out of range.
    pub fn embed_window(&self, window: &[TokenId]) -> Vec<f32> {
        assert_eq!(window.len(), self.cfg.context, "window length mismatch");
        let d = self.cfg.d_emb;
        let mut x = vec![0.0f32; self.cfg.context * d];
        for (j, &t) in window.iter().enumerate() {
            x[j * d..(j + 1) * d].copy_from_slice(self.emb.row(t as usize));
        }
        x
    }

    /// Logits of one head given trunk activations.
    ///
    /// # Panics
    ///
    /// Panics if `head_idx > n_heads`.
    fn head_logits(&self, acts: &Activations, head_idx: usize) -> Vec<f32> {
        let head = &self.heads[head_idx];
        let z = self.head_z(head, &acts.h);
        let mut logits = head.u.matvec(&z);
        for (l, c) in logits.iter_mut().zip(&head.c) {
            *l += c;
        }
        logits
    }

    fn head_z(&self, head: &Head, h: &[f32]) -> Vec<f32> {
        match &head.p {
            None => h.to_vec(),
            Some(p) => {
                let u = p.matvec(h);
                h.iter().zip(&u).map(|(&hv, &uv)| hv + silu(uv)).collect()
            }
        }
    }

    /// Base-head logits for a prefix (convenience wrapper).
    pub fn logits(&self, prefix: &[TokenId]) -> Vec<f32> {
        let acts = self.forward_trunk(&self.window(prefix));
        self.head_logits(&acts, 0)
    }

    /// Logits of the base head and every Medusa head for a prefix.
    pub fn multi_logits(&self, prefix: &[TokenId]) -> Vec<Vec<f32>> {
        let acts = self.forward_trunk(&self.window(prefix));
        (0..=self.cfg.n_heads)
            .map(|i| self.head_logits(&acts, i))
            .collect()
    }

    fn packed(&self) -> &PackedWeights {
        self.packed.get_or_init(|| PackedWeights {
            w1: self.w1.pack(),
            heads: self
                .heads
                .iter()
                .map(|h| (h.p.as_ref().map(Matrix::pack), h.u.pack()))
                .collect(),
        })
    }

    /// The inference kernel: one trunk forward per input and the base
    /// head's logits row, written as one row of `out` per input.
    ///
    /// `xs` holds the inputs back to back, each an embedding concat of
    /// `context · d_emb` floats ([`MlpLm::embed_window`]). Returns the
    /// arena index of the first row written; the rest follow in input
    /// order.
    ///
    /// Every row is bit-identical to the scalar forward
    /// ([`MlpLm::logits`]) at that input, whatever else shares the
    /// call — which is what lets a serving engine fuse many sessions'
    /// work into one pass. The call runs on the caller's thread,
    /// whatever its size, and allocates nothing once the arena has
    /// grown.
    ///
    /// Each input's trunk activation — the last hidden state every head
    /// is attached to — stays in `out` beside the input's row, so every
    /// row this call writes is a kept position: a Medusa head at that
    /// input is evaluated later from it without the trunk
    /// ([`crate::DecodeSession::head_rows_into`],
    /// [`crate::DecodeSession::head_row_until`]).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is not a whole number of inputs.
    pub fn infer(&self, xs: &[f32], out: &mut LogitsArena) -> usize {
        let x_dim = self.cfg.context * self.cfg.d_emb;
        assert_eq!(
            xs.len() % x_dim,
            0,
            "inputs must be whole embedding concats"
        );
        let (vocab, d_hidden) = (self.cfg.vocab, self.cfg.d_hidden);
        let base = out.rows();
        let (rows, acts) = out.grow_for_kernel(vocab, xs.len() / x_dim, d_hidden);
        let packed = self.packed();
        let inputs = xs
            .chunks_exact(x_dim)
            .zip(acts.chunks_exact_mut(d_hidden))
            .zip(rows.chunks_exact_mut(vocab));
        for ((x, hidden), row) in inputs {
            packed.w1.matvec_into(x, None, hidden);
            for (h, b) in hidden.iter_mut().zip(&self.b1) {
                *h = silu(*h + b);
            }
            // The base head has no residual block: no working memory.
            self.head_row(packed, 0, hidden, &mut [], row);
        }
        base
    }

    /// Head `head`'s logits row from the trunk activation `hidden`
    /// (`z` is one hidden-width vector of working memory, unread by the
    /// base head): the one place the inference kernel evaluates a whole
    /// head row, so the base head computed with its trunk and any head
    /// computed later from the kept activation run the identical
    /// operations on the identical bits — as does
    /// [`MlpLm::head_row_until`], block for block, from the same
    /// [`MlpLm::head_input`].
    fn head_row(
        &self,
        packed: &PackedWeights,
        head: usize,
        hidden: &[f32],
        z: &mut [f32],
        row: &mut [f32],
    ) {
        let z = Self::head_input(packed, head, hidden, z);
        let c = Some(&self.heads[head].c[..]);
        packed.heads[head].1.matvec_into(z, c, row);
    }

    /// What head `head`'s output projection reads at the trunk
    /// activation `hidden`: `h + silu(P h)`, written into `z`, or `h`
    /// itself for the base head, which has no residual block.
    fn head_input<'z>(
        packed: &PackedWeights,
        head: usize,
        hidden: &'z [f32],
        z: &'z mut [f32],
    ) -> &'z [f32] {
        match &packed.heads[head].0 {
            None => hidden,
            Some(p) => {
                p.matvec_into(hidden, None, z);
                for (zv, &hv) in z.iter_mut().zip(hidden) {
                    *zv = hv + silu(*zv);
                }
                z
            }
        }
    }

    /// The kernel's second entry, which writes whole Medusa-head rows:
    /// evaluates chosen heads **from kept activations**, skipping the
    /// trunk. Each request is the
    /// activation an earlier [`MlpLm::infer`] call of this model kept
    /// for some input and the head wanted at that input; one logits row
    /// per request is appended to `out`, in order. Returns the arena
    /// index of the first.
    ///
    /// Every row is bit-identical to the scalar forward
    /// ([`MlpLm::multi_logits`]) at that input: the same activation
    /// bits go through the same operations.
    ///
    /// # Panics
    ///
    /// Panics if an activation is not `d_hidden` floats or a head does
    /// not exist.
    pub(crate) fn infer_heads<'a>(
        &self,
        requests: impl IntoIterator<Item = (&'a [f32], usize)>,
        out: &mut LogitsArena,
    ) -> usize {
        let packed = self.packed();
        let (vocab, d_hidden) = (self.cfg.vocab, self.cfg.d_hidden);
        let base = out.rows();
        for (hidden, head) in requests {
            assert_eq!(hidden.len(), d_hidden, "not a kept activation");
            assert!(head < self.heads.len(), "the model has no head {head}");
            let (row, z) = out.grow_with_scratch(vocab, 1, d_hidden);
            self.head_row(packed, head, hidden, z, row);
        }
        base
    }

    /// Head `head`'s row from the kept activation `hidden`, computed a
    /// block of `PACK_ROWS` entries at a time only until it shows that
    /// none of `seeds` ranks among the row's top `width` under
    /// [`crate::top_k_into`]'s order (logit descending, then index
    /// ascending): the blocks holding a seed first, then the rest in
    /// index order, stopping once `width` computed entries outrank the
    /// best-ranked seed — which then outrank every seed. `seeds` must
    /// be ascending without repeats.
    ///
    /// Appends one row to `out` either way. Returns its index when no
    /// such proof came — every block computed, the row bit for bit the
    /// one [`MlpLm::infer_heads`] writes — and `None` when the row was
    /// cut short, or there is no seed to rank: the blocks never
    /// computed hold unspecified floats.
    ///
    /// A NaN in a block that is never computed is never seen; a NaN
    /// seed logit is outranked by nothing, so its row is computed
    /// whole, and the caller's ranking ([`crate::top_k_into`]) panics
    /// on it as on any whole row.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not `d_hidden` floats, the head does not
    /// exist or a seed is not a token.
    pub(crate) fn head_row_until(
        &self,
        hidden: &[f32],
        head: usize,
        seeds: &[TokenId],
        width: usize,
        out: &mut LogitsArena,
    ) -> Option<usize> {
        let packed = self.packed();
        let (vocab, d_hidden) = (self.cfg.vocab, self.cfg.d_hidden);
        assert_eq!(hidden.len(), d_hidden, "not a kept activation");
        assert!(head < self.heads.len(), "the model has no head {head}");
        debug_assert!(seeds.windows(2).all(|w| w[0] < w[1]), "seeds ascend");
        let at = out.rows();
        let (row, z) = out.grow_with_scratch(vocab, 1, d_hidden);
        let &[first, ..] = seeds else {
            return None;
        };
        let z = Self::head_input(packed, head, hidden, z);
        let (u, c) = (&packed.heads[head].1, &self.heads[head].c);
        // The blocks holding a seed, ascending: seeds ascend, so a
        // block's seeds are adjacent.
        let seeded = || {
            let mut last = None;
            seeds
                .iter()
                .map(|&s| s as usize / PACK_ROWS)
                .filter(move |&b| last.replace(b) != Some(b))
        };
        let rows = |b: usize| b * PACK_ROWS..vocab.min((b + 1) * PACK_ROWS);
        for b in seeded() {
            u.block_into(b, z, Some(&c[rows(b)]), &mut row[rows(b)]);
        }
        // The best-ranked seed: the first of the greatest logit.
        let better = |best: usize, s: usize| if row[s] > row[best] { s } else { best };
        let best = seeds
            .iter()
            .map(|&s| s as usize)
            .fold(first as usize, better);
        let bar = row[best];
        let outranks = |b: usize, block: &[f32]| outranking(block, b * PACK_ROWS, best, bar);
        let mut proof: usize = seeded().map(|b| outranks(b, &row[rows(b)])).sum();
        let mut done = seeded().peekable();
        let blocks = row.chunks_mut(PACK_ROWS).zip(c.chunks(PACK_ROWS));
        for (b, (out, c)) in blocks.enumerate() {
            if proof >= width {
                return None;
            }
            if done.next_if_eq(&b).is_none() {
                u.block_into(b, z, Some(c), out);
                proof += outranks(b, out);
            }
        }
        (proof < width).then_some(at)
    }

    /// Average base-head negative log-likelihood (nats/token) of `tokens`.
    pub fn nll(&self, tokens: &[TokenId]) -> f32 {
        if tokens.len() < 2 {
            return 0.0;
        }
        let mut total = 0.0f32;
        for pos in 0..tokens.len() - 1 {
            let logits = self.logits(&tokens[..=pos]);
            let lp = log_softmax(&logits);
            total -= lp[tokens[pos + 1] as usize];
        }
        total / (tokens.len() - 1) as f32
    }

    /// Accumulates gradients for one position into `grads`.
    ///
    /// `window` is the fixed-size context (see [`MlpLm::window`]);
    /// `targets` lists the supervised heads with their loss weights
    /// (the Eq.-2 `λ·γ^i` factors, with masked positions omitted).
    ///
    /// Returns the weighted loss breakdown.
    pub fn accumulate_position(
        &self,
        grads: &mut MlpGrads,
        window: &[TokenId],
        targets: &[HeadTarget],
    ) -> PositionLoss {
        let acts = self.forward_trunk(window);
        let dh = &mut vec![0.0f32; self.cfg.d_hidden];
        let mut loss = PositionLoss::default();

        for &(head_idx, target, weight) in targets {
            if weight == 0.0 {
                continue;
            }
            let head = &self.heads[head_idx];
            let ghead = &mut grads.heads[head_idx];
            let z = self.head_z(head, &acts.h);
            let mut logits = head.u.matvec(&z);
            for (l, c) in logits.iter_mut().zip(&head.c) {
                *l += c;
            }
            let lp = log_softmax(&logits);
            let l = -weight * lp[target as usize];
            if head_idx == 0 {
                loss.base += l;
            } else {
                loss.heads += l;
            }
            // dL/dlogits = weight * (softmax - onehot)
            let mut dlogits = softmax(&logits);
            dlogits[target as usize] -= 1.0;
            dlogits.iter_mut().for_each(|v| *v *= weight);

            ghead.u.add_outer(&dlogits, &z);
            for (gc, dl) in ghead.c.iter_mut().zip(&dlogits) {
                *gc += dl;
            }
            let dz = head.u.matvec_t(&dlogits);
            match (&head.p, &mut ghead.p) {
                (None, _) => {
                    for (d, v) in dh.iter_mut().zip(&dz) {
                        *d += v;
                    }
                }
                (Some(p), Some(gp)) => {
                    // z = h + silu(u), u = P h
                    let u = p.matvec(&acts.h);
                    let du: Vec<f32> = dz
                        .iter()
                        .zip(&u)
                        .map(|(&d, &uv)| d * silu_prime(uv))
                        .collect();
                    gp.add_outer(&du, &acts.h);
                    let dh_p = p.matvec_t(&du);
                    for ((d, r), v) in dh.iter_mut().zip(&dz).zip(&dh_p) {
                        *d += r + v;
                    }
                }
                (Some(_), None) => unreachable!("grads built from same config"),
            }
        }

        // Trunk backward.
        let da: Vec<f32> = dh
            .iter()
            .zip(&acts.a)
            .map(|(&d, &av)| d * silu_prime(av))
            .collect();
        grads.w1.add_outer(&da, &acts.x);
        for (g, d) in grads.b1.iter_mut().zip(&da) {
            *g += d;
        }
        let dx = self.w1.matvec_t(&da);
        let d = self.cfg.d_emb;
        for (j, &t) in window.iter().enumerate() {
            let gr = grads.emb.row_mut(t as usize);
            for (g, v) in gr.iter_mut().zip(&dx[j * d..(j + 1) * d]) {
                *g += v;
            }
        }
        grads.positions += 1;
        loss
    }

    /// Applies one Adam update from accumulated gradients, averaging over
    /// the positions recorded in `grads`.
    ///
    /// `lr` is the base learning rate; head parameters (Medusa heads only,
    /// not the base head) use `lr × head_lr_mult`, the paper's 4× rule.
    pub fn adam_step(&mut self, opt: &mut AdamOpt, grads: &MlpGrads, lr: f32, head_lr_mult: f32) {
        // One invalidation per optimizer step: the next inference
        // repacks from the updated weights.
        self.packed = OnceLock::new();
        let scale = 1.0 / grads.positions.max(1) as f32;
        opt.t += 1;
        let t = opt.t;
        adam_update(
            self.emb.as_mut_slice(),
            grads.emb.as_slice(),
            &mut opt.emb,
            lr,
            scale,
            t,
        );
        adam_update(
            self.w1.as_mut_slice(),
            grads.w1.as_slice(),
            &mut opt.w1,
            lr,
            scale,
            t,
        );
        adam_update(&mut self.b1, &grads.b1, &mut opt.b1, lr, scale, t);
        let head_lr = lr * head_lr_mult;
        for ((head, ghead), ohead) in self.heads.iter_mut().zip(&grads.heads).zip(&mut opt.heads) {
            let lr = if head.p.is_some() { head_lr } else { lr };
            if let (Some(p), Some(gp), Some(op)) = (&mut head.p, &ghead.p, &mut ohead.p) {
                adam_update(p.as_mut_slice(), gp.as_slice(), op, lr, scale, t);
            }
            adam_update(
                head.u.as_mut_slice(),
                ghead.u.as_slice(),
                &mut ohead.u,
                lr,
                scale,
                t,
            );
            adam_update(&mut head.c, &ghead.c, &mut ohead.c, lr, scale, t);
        }
    }

    /// Creates a zeroed gradient buffer matching this model.
    pub fn zero_grads(&self) -> MlpGrads {
        MlpGrads {
            emb: Matrix::zeros(self.emb.rows(), self.emb.cols()),
            w1: Matrix::zeros(self.w1.rows(), self.w1.cols()),
            b1: vec![0.0; self.b1.len()],
            heads: self
                .heads
                .iter()
                .map(|h| HeadGrads {
                    p: h.p.as_ref().map(|p| Matrix::zeros(p.rows(), p.cols())),
                    u: Matrix::zeros(h.u.rows(), h.u.cols()),
                    c: vec![0.0; h.c.len()],
                })
                .collect(),
            positions: 0,
        }
    }

    /// Creates an Adam optimizer state matching this model.
    pub fn optimizer(&self) -> AdamOpt {
        AdamOpt {
            t: 0,
            emb: AdamBuf::new(self.emb.as_slice().len()),
            w1: AdamBuf::new(self.w1.as_slice().len()),
            b1: AdamBuf::new(self.b1.len()),
            heads: self
                .heads
                .iter()
                .map(|h| HeadOpt {
                    p: h.p.as_ref().map(|p| AdamBuf::new(p.as_slice().len())),
                    u: AdamBuf::new(h.u.as_slice().len()),
                    c: AdamBuf::new(h.c.len()),
                })
                .collect(),
        }
    }
}

/// How many entries of `block`, the row's entries from index `lo` on,
/// outrank entry `best`, of logit `bar`, under [`crate::top_k_into`]'s
/// order: a greater logit, or an equal one at a lower index. A block
/// other than `best`'s lies wholly before it (its ties outrank) or
/// wholly after it (they do not), so it is counted with one compare per
/// entry, `>=` or `>`, over a fixed-size block where the block is full;
/// only `best`'s own block is split at it. A NaN outranks nothing.
fn outranking(block: &[f32], lo: usize, best: usize, bar: f32) -> usize {
    let count = |block: &[f32], ties: bool| -> u32 {
        if ties {
            block.iter().map(|&l| u32::from(l >= bar)).sum()
        } else {
            block.iter().map(|&l| u32::from(l > bar)).sum()
        }
    };
    let n = if (lo..lo + block.len()).contains(&best) {
        let (before, after) = block.split_at(best - lo);
        count(before, true) + count(after, false)
    } else if let Ok(full) = <&[f32; PACK_ROWS]>::try_from(block) {
        count(full, lo < best)
    } else {
        count(block, lo < best)
    };
    n as usize
}

/// Gradient accumulation buffers mirroring [`MlpLm`]'s parameters.
#[derive(Debug, Clone)]
pub struct MlpGrads {
    emb: Matrix,
    w1: Matrix,
    b1: Vec<f32>,
    heads: Vec<HeadGrads>,
    /// Number of positions accumulated since the last reset.
    pub positions: usize,
}

#[derive(Debug, Clone)]
struct HeadGrads {
    p: Option<Matrix>,
    u: Matrix,
    c: Vec<f32>,
}

impl MlpGrads {
    /// Clears the buffers for the next micro-batch.
    pub fn reset(&mut self) {
        self.emb.fill_zero();
        self.w1.fill_zero();
        self.b1.iter_mut().for_each(|v| *v = 0.0);
        for h in &mut self.heads {
            if let Some(p) = &mut h.p {
                p.fill_zero();
            }
            h.u.fill_zero();
            h.c.iter_mut().for_each(|v| *v = 0.0);
        }
        self.positions = 0;
    }
}

/// Adam moment buffers for one tensor.
#[derive(Debug, Clone)]
struct AdamBuf {
    m: Vec<f32>,
    v: Vec<f32>,
}

impl AdamBuf {
    fn new(n: usize) -> Self {
        Self {
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }
}

#[derive(Debug, Clone)]
struct HeadOpt {
    p: Option<AdamBuf>,
    u: AdamBuf,
    c: AdamBuf,
}

/// Adam optimizer state for an [`MlpLm`]; create via [`MlpLm::optimizer`].
#[derive(Debug, Clone)]
pub struct AdamOpt {
    t: u64,
    emb: AdamBuf,
    w1: AdamBuf,
    b1: AdamBuf,
    heads: Vec<HeadOpt>,
}

const ADAM_B1: f32 = 0.9;
const ADAM_B2: f32 = 0.999;
const ADAM_EPS: f32 = 1e-8;

fn adam_update(params: &mut [f32], grads: &[f32], buf: &mut AdamBuf, lr: f32, scale: f32, t: u64) {
    let bc1 = 1.0 - ADAM_B1.powi(t as i32);
    let bc2 = 1.0 - ADAM_B2.powi(t as i32);
    for i in 0..params.len() {
        let g = grads[i] * scale;
        buf.m[i] = ADAM_B1 * buf.m[i] + (1.0 - ADAM_B1) * g;
        buf.v[i] = ADAM_B2 * buf.v[i] + (1.0 - ADAM_B2) * g * g;
        let m_hat = buf.m[i] / bc1;
        let v_hat = buf.v[i] / bc2;
        params[i] -= lr * m_hat / (v_hat.sqrt() + ADAM_EPS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MlpLm {
        MlpLm::new(MlpLmConfig::tiny(12))
    }

    #[test]
    fn window_pads_left() {
        let m = tiny();
        assert_eq!(m.window(&[]), vec![PAD_ID; 4]);
        assert_eq!(m.window(&[7]), vec![PAD_ID, PAD_ID, PAD_ID, 7]);
        assert_eq!(m.window(&[1, 2, 3, 4, 5]), vec![2, 3, 4, 5]);
    }

    #[test]
    fn logits_shapes() {
        let m = tiny();
        assert_eq!(m.logits(&[1, 2]).len(), 12);
        let all = m.multi_logits(&[1, 2]);
        assert_eq!(all.len(), 4); // base + 3 heads
        assert!(all.iter().all(|l| l.len() == 12));
    }

    #[test]
    fn deterministic_init() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.logits(&[3, 1]), b.logits(&[3, 1]));
    }

    /// Finite-difference gradient check on every parameter family.
    #[test]
    fn gradients_match_finite_differences() {
        let cfg = MlpLmConfig {
            vocab: 6,
            d_emb: 3,
            d_hidden: 4,
            context: 3,
            n_heads: 2,
            seed: 3,
        };
        let mut model = MlpLm::new(cfg);
        let window = vec![1u32, 2, 3];
        let targets: Vec<HeadTarget> = vec![(0, 4, 1.0), (1, 5, 0.5), (2, 1, 0.25)];

        let mut grads = model.zero_grads();
        model.accumulate_position(&mut grads, &window, &targets);

        let loss_at = |m: &MlpLm| {
            let mut g = m.zero_grads();
            m.accumulate_position(&mut g, &window, &targets).total()
        };

        let eps = 1e-3f32;
        // Check a sampling of coordinates in each tensor.
        #[allow(clippy::type_complexity)] // (name, accessor, analytic grads) triples
        let checks: Vec<(&str, Box<dyn Fn(&mut MlpLm) -> &mut [f32]>, Vec<f32>)> = vec![
            (
                "emb",
                Box::new(|m: &mut MlpLm| m.emb.as_mut_slice()),
                grads.emb.as_slice().to_vec(),
            ),
            (
                "w1",
                Box::new(|m: &mut MlpLm| m.w1.as_mut_slice()),
                grads.w1.as_slice().to_vec(),
            ),
            (
                "b1",
                Box::new(|m: &mut MlpLm| &mut m.b1[..]),
                grads.b1.clone(),
            ),
            (
                "head0.u",
                Box::new(|m: &mut MlpLm| m.heads[0].u.as_mut_slice()),
                grads.heads[0].u.as_slice().to_vec(),
            ),
            (
                "head1.p",
                Box::new(|m: &mut MlpLm| m.heads[1].p.as_mut().expect("p").as_mut_slice()),
                grads.heads[1].p.as_ref().expect("gp").as_slice().to_vec(),
            ),
            (
                "head2.u",
                Box::new(|m: &mut MlpLm| m.heads[2].u.as_mut_slice()),
                grads.heads[2].u.as_slice().to_vec(),
            ),
            (
                "head1.c",
                Box::new(|m: &mut MlpLm| &mut m.heads[1].c[..]),
                grads.heads[1].c.clone(),
            ),
        ];

        for (name, get, analytic) in checks {
            let n = analytic.len();
            let stride = (n / 7).max(1);
            for i in (0..n).step_by(stride) {
                let orig = get(&mut model)[i];
                get(&mut model)[i] = orig + eps;
                let lp = loss_at(&model);
                get(&mut model)[i] = orig - eps;
                let lm = loss_at(&model);
                get(&mut model)[i] = orig;
                let fd = (lp - lm) / (2.0 * eps);
                let an = analytic[i];
                assert!(
                    (fd - an).abs() < 2e-2 * (1.0 + fd.abs().max(an.abs())),
                    "{name}[{i}]: fd={fd} analytic={an}"
                );
            }
        }
    }

    #[test]
    fn training_reduces_loss_on_repetitive_sequence() {
        let cfg = MlpLmConfig {
            vocab: 8,
            d_emb: 6,
            d_hidden: 12,
            context: 3,
            n_heads: 2,
            seed: 1,
        };
        let mut model = MlpLm::new(cfg);
        let mut opt = model.optimizer();
        let mut grads = model.zero_grads();
        // Cyclic sequence 1,2,3,1,2,3,...
        let seq: Vec<TokenId> = (0..60).map(|i| 1 + (i % 3) as TokenId).collect();
        let initial_nll = model.nll(&seq);
        for _ in 0..60 {
            grads.reset();
            for pos in 0..seq.len() - 3 {
                let window = model.window(&seq[..=pos]);
                let targets: Vec<HeadTarget> = vec![
                    (0, seq[pos + 1], 1.0),
                    (1, seq[pos + 2], 0.16),
                    (2, seq[pos + 3], 0.128),
                ];
                model.accumulate_position(&mut grads, &window, &targets);
            }
            model.adam_step(&mut opt, &grads, 5e-3, 4.0);
        }
        let trained_nll = model.nll(&seq);
        assert!(
            trained_nll < initial_nll * 0.5,
            "loss should halve: {initial_nll} -> {trained_nll}"
        );
        // The model should now predict the cycle almost deterministically.
        let probs = softmax(&model.logits(&[1, 2, 3]));
        assert!(probs[1] > 0.8, "p(next=1)={}", probs[1]);
    }

    #[test]
    fn heads_learn_lookahead() {
        let cfg = MlpLmConfig {
            vocab: 8,
            d_emb: 6,
            d_hidden: 12,
            context: 3,
            n_heads: 2,
            seed: 2,
        };
        let mut model = MlpLm::new(cfg);
        let mut opt = model.optimizer();
        let mut grads = model.zero_grads();
        let seq: Vec<TokenId> = (0..80).map(|i| 1 + (i % 4) as TokenId).collect();
        for _ in 0..80 {
            grads.reset();
            for pos in 0..seq.len() - 3 {
                let window = model.window(&seq[..=pos]);
                let targets: Vec<HeadTarget> = vec![
                    (0, seq[pos + 1], 1.0),
                    (1, seq[pos + 2], 0.5),
                    (2, seq[pos + 3], 0.4),
                ];
                model.accumulate_position(&mut grads, &window, &targets);
            }
            model.adam_step(&mut opt, &grads, 5e-3, 4.0);
        }
        // After ...,1,2 head 1 should predict two-ahead (= 4), head 2 three-ahead (= 1).
        let all = model.multi_logits(&[1, 2]);
        let p1 = softmax(&all[1]);
        let p2 = softmax(&all[2]);
        assert!(p1[4] > 0.5, "head1 p(4)={}", p1[4]);
        assert!(p2[1] > 0.5, "head2 p(1)={}", p2[1]);
    }

    /// `n` embedding concats over distinct windows, flat, plus the
    /// scalar-reference rows of every head at each.
    fn probe_inputs(model: &MlpLm, n: usize) -> (Vec<f32>, Vec<Vec<Vec<f32>>>) {
        let vocab = model.cfg.vocab as TokenId;
        let mut xs = Vec::new();
        let mut want = Vec::new();
        for k in 0..n as TokenId {
            let prefix: Vec<TokenId> = (0..=k % 7).map(|j| (k * 5 + j * 3 + 1) % vocab).collect();
            xs.extend(model.embed_window(&model.window(&prefix)));
            want.push(model.multi_logits(&prefix));
        }
        (xs, want)
    }

    fn assert_rows_bit_equal(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        assert!(
            got.iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{what} diverged from the scalar forward"
        );
    }

    #[test]
    fn kernel_matches_scalar_forward_bitwise_for_any_shape_and_batch() {
        // Row counts that are not a multiple of the pack block, on both
        // the hidden (11) and the vocabulary (13, 487) side.
        for (vocab, d_hidden) in [(13, 11), (487, 32)] {
            let model = MlpLm::new(MlpLmConfig {
                vocab,
                d_emb: 5,
                d_hidden,
                context: 3,
                n_heads: 2,
                seed: 11,
            });
            for n in [1usize, 2, 3, 19, 33] {
                let (xs, want) = probe_inputs(&model, n);
                let mut arena = LogitsArena::new();
                arena.push_row(&vec![0.0; vocab]);
                let base = model.infer(&xs, &mut arena);
                assert_eq!((base, arena.rows()), (1, 1 + n));
                for (k, w) in want.iter().enumerate() {
                    let what = format!("{vocab}x{d_hidden} n={n} base {k}");
                    assert_rows_bit_equal(arena.row(base + k), &w[0], &what);
                }
            }
            let mut arena = LogitsArena::new();
            assert_eq!(model.infer(&[], &mut arena), 0);
            assert_eq!(arena.rows(), 0);
        }
    }

    #[test]
    fn heads_from_kept_activations_match_scalar_forward_bitwise() {
        // Every row of a kernel call is a kept position: any subset of
        // heads, asked for after the fact at any input's row — however
        // many inputs shared the call — or at a copy of that row carried
        // into another arena, is the row the one-pass forward writes.
        for (vocab, d_hidden) in [(13, 11), (487, 32)] {
            let model = MlpLm::new(MlpLmConfig {
                vocab,
                d_emb: 5,
                d_hidden,
                context: 3,
                n_heads: 3,
                seed: 11,
            });
            for n in [1usize, 2, 19, 33] {
                let (xs, want) = probe_inputs(&model, n);
                let mut kept = LogitsArena::new();
                kept.push_row(&vec![0.0; vocab]);
                let base = model.infer(&xs, &mut kept);
                let mut copies = LogitsArena::new();
                copies.push_row(&vec![0.0; vocab]);
                for k in 0..n {
                    assert_eq!(copies.push_kept(kept.rows_from(base + k)), 1 + k);
                }
                for salt in [1usize, 2, 3, 8] {
                    // Every subset of the four heads, in a scrambled
                    // order, at every input — all in one call.
                    let mut requests = Vec::new();
                    for k in 0..n {
                        let subset = (k * 7 + salt) % 16;
                        for head in [2usize, 0, 3, 1] {
                            if subset & (1 << head) != 0 {
                                requests.push((k, head));
                            }
                        }
                    }
                    for (from, at) in [(&kept, base), (&copies, 1)] {
                        let mut out = LogitsArena::new();
                        out.push_row(&vec![0.0; vocab]);
                        let first = model.infer_heads(
                            requests
                                .iter()
                                .map(|&(k, head)| (from.activation(at + k), head)),
                            &mut out,
                        );
                        assert_eq!((first, out.rows()), (1, 1 + requests.len()));
                        for (i, &(k, head)) in requests.iter().enumerate() {
                            let what = format!("{vocab}x{d_hidden} n={n} salt={salt} {k}/{head}");
                            assert_rows_bit_equal(out.row(first + i), &want[k][head], &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn head_row_until_is_whole_or_proves_no_seed_ranks() {
        // Against the whole row (`infer_heads`) and its full ranking
        // under `top_k_into`'s order: a row computed whole is that row,
        // bit for bit, and a seed does rank among its top `width`; a row
        // cut short has no seed among the full row's top `width`, and
        // exactly the blocks the definition computes — the seeds', then
        // the rest in index order until `width` of their entries
        // outrank the best-ranked seed — each the full row's. Output
        // rows are pre-filled with NaN, so a block never computed reads
        // NaN.
        let config = |vocab, d_hidden, seed| MlpLmConfig {
            vocab,
            d_emb: 5,
            d_hidden,
            context: 3,
            n_heads: 2,
            seed,
        };
        // Exact ties: every head row of this one repeats its first 24
        // entries, so equal logits sit in one block and in different
        // blocks, and rank by index.
        let mut tied = MlpLm::new(config(487, 32, 5));
        for head in &mut tied.heads[1..] {
            for r in 24..487 {
                let from = head.u.row(r % 24).to_vec();
                head.u.row_mut(r).copy_from_slice(&from);
            }
        }
        let models = [
            MlpLm::new(config(487, 32, 11)),
            MlpLm::new(config(487, 32, 29)),
            MlpLm::new(config(13, 11, 3)),
            tied,
        ];
        let (mut whole, mut cut, mut skipped) = (0usize, 0usize, 0usize);
        for model in &models {
            let vocab = model.cfg.vocab;
            let (xs, _) = probe_inputs(model, 4);
            let mut kept = LogitsArena::new();
            model.infer(&xs, &mut kept);
            for k in 0..4 {
                let hidden = kept.activation(k);
                for head in 1..=model.n_heads() {
                    let mut full = LogitsArena::new();
                    model.infer_heads([(hidden, head)], &mut full);
                    let full = full.row(0);
                    let ranked = crate::top_k_indices(full, vocab);
                    let rank = |r: usize| ranked[r.min(vocab - 1)];
                    let last = vocab as TokenId - 1;
                    let seed_sets: [Vec<TokenId>; 11] = [
                        vec![rank(0)],
                        vec![rank(1)],
                        vec![rank(2)],
                        vec![rank(4)],
                        vec![rank(9)],
                        vec![rank(vocab - 1)],
                        vec![last],
                        vec![last - 2, last],
                        vec![rank(3), rank(7), rank(60)],
                        vec![rank(5), rank(6), last],
                        vec![rank(2), rank(30), rank(200)],
                    ];
                    for mut seeds in seed_sets {
                        seeds.sort_unstable();
                        seeds.dedup();
                        for width in 1..=4 {
                            let mut out = LogitsArena::new();
                            out.push_row(&vec![f32::NAN; vocab]);
                            out.clear();
                            let got = model.head_row_until(hidden, head, &seeds, width, &mut out);
                            let top = &ranked[..width.min(vocab)];
                            let seeded = top.iter().any(|t| seeds.contains(t));
                            let what = format!("{vocab} head {head} {seeds:?} width {width}");
                            // The blocks the definition computes: the
                            // seeds', then the rest in index order until
                            // `width` entries outrank the best seed.
                            let outranks = |i: usize, s: TokenId| {
                                let s = s as usize;
                                full[i] > full[s] || (full[i] == full[s] && i < s)
                            };
                            let best = ranked.iter().find(|t| seeds.contains(t)).copied();
                            let proving = |b: usize| {
                                let rows = b * PACK_ROWS..vocab.min((b + 1) * PACK_ROWS);
                                rows.filter(|&i| outranks(i, best.expect("a seed"))).count()
                            };
                            let n_blocks = vocab.div_ceil(PACK_ROWS);
                            let mut wanted: Vec<bool> = (0..n_blocks)
                                .map(|b| seeds.iter().any(|&s| s as usize / PACK_ROWS == b))
                                .collect();
                            let mut proof: usize =
                                (0..n_blocks).filter(|&b| wanted[b]).map(proving).sum();
                            for (b, wanted) in wanted.iter_mut().enumerate() {
                                if proof < width && !*wanted {
                                    *wanted = true;
                                    proof += proving(b);
                                }
                            }
                            if let Some(at) = got {
                                assert_eq!((at, out.rows()), (0, 1));
                                assert_rows_bit_equal(out.row(at), full, &what);
                                assert!(seeded && proof < width, "{what}: whole, no seed ranks");
                                whole += 1;
                                continue;
                            }
                            assert_eq!(out.rows(), 1);
                            assert!(!seeded && proof >= width, "{what}: cut, a seed ranks");
                            let row = out.row(0);
                            let blocks = row.chunks(PACK_ROWS).zip(full.chunks(PACK_ROWS));
                            for ((got, want), wanted) in blocks.zip(wanted) {
                                if wanted {
                                    assert_rows_bit_equal(got, want, &what);
                                } else {
                                    assert!(got.iter().all(|v| v.is_nan()), "{what}: extra block");
                                    skipped += 1;
                                }
                            }
                            cut += 1;
                        }
                    }
                    // No seed: nothing to rank, nothing computed.
                    let mut out = LogitsArena::new();
                    out.push_row(&vec![f32::NAN; vocab]);
                    out.clear();
                    assert_eq!(model.head_row_until(hidden, head, &[], 2, &mut out), None);
                    assert!(out.row(0).iter().all(|v| v.is_nan()));
                }
            }
        }
        assert!(
            whole > 0 && cut > 0 && skipped > 0,
            "{whole} {cut} {skipped}"
        );
    }

    #[test]
    fn optimizer_step_invalidates_the_pack() {
        let mut model = tiny();
        let session_logits = |m: &MlpLm| {
            let mut arena = LogitsArena::new();
            m.infer(&m.embed_window(&m.window(&[1, 2, 3])), &mut arena);
            arena.into_vec()
        };
        // Build the pack, then move the weights under it.
        let before = session_logits(&model);
        assert!(model.packed.get().is_some());
        let mut opt = model.optimizer();
        let mut grads = model.zero_grads();
        let w = model.window(&[1, 2, 3]);
        model.accumulate_position(&mut grads, &w, &[(0, 5, 1.0), (2, 7, 0.5)]);
        model.adam_step(&mut opt, &grads, 1e-2, 4.0);
        assert!(model.packed.get().is_none(), "one adam_step drops the pack");
        let after = session_logits(&model);
        assert_ne!(before, after, "the step moved the weights");
        assert_rows_bit_equal(&after, &model.logits(&[1, 2, 3]), "stale pack");
    }

    #[test]
    fn serde_round_trip_carries_no_pack_and_infers_identically() {
        let model = tiny();
        let (xs, _) = probe_inputs(&model, 3);
        // Every head at every input: the base rows, then the heads from
        // the kept activations.
        let every_head = |m: &MlpLm| {
            let mut kept = LogitsArena::new();
            m.infer(&xs, &mut kept);
            let kept = &kept;
            let mut out = kept.clone();
            m.infer_heads(
                (0..3).flat_map(|k| (0..=m.n_heads()).map(move |h| (kept.activation(k), h))),
                &mut out,
            );
            out.into_vec()
        };
        let a = every_head(&model);
        assert!(model.packed.get().is_some());
        let json = serde_json::to_string(&model).expect("serialize");
        assert!(!json.contains("packed"), "the pack is derived state");
        let back: MlpLm = serde_json::from_str(&json).expect("deserialize");
        assert!(back.packed.get().is_none(), "built at first inference");
        assert_rows_bit_equal(&a, &every_head(&back), "round-tripped model");
    }

    #[test]
    fn zero_weight_targets_are_skipped() {
        let model = tiny();
        let mut g1 = model.zero_grads();
        let mut g2 = model.zero_grads();
        let w = model.window(&[1, 2, 3]);
        let l1 = model.accumulate_position(&mut g1, &w, &[(0, 5, 1.0), (1, 6, 0.0)]);
        let l2 = model.accumulate_position(&mut g2, &w, &[(0, 5, 1.0)]);
        assert_eq!(l1, l2);
        assert_eq!(g1.heads[1].u.as_slice(), g2.heads[1].u.as_slice());
    }

    #[test]
    fn param_count_is_consistent() {
        let m = tiny();
        // emb 12*8 + w1 16*32 + b1 16 + base (12*16+12) + 3 heads (16*16 + 12*16 + 12)
        let expected = 12 * 8 + 16 * 32 + 16 + (12 * 16 + 12) + 3 * (16 * 16 + 12 * 16 + 12);
        assert_eq!(m.param_count(), expected);
    }

    #[test]
    fn nll_of_trivial_sequences() {
        let m = tiny();
        assert_eq!(m.nll(&[1]), 0.0);
        assert!(m.nll(&[1, 2, 3]) > 0.0);
    }
}
