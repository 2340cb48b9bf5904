//! The sampling-fidelity instrument: how far a sampled engine's output
//! distribution sits from the model it samples, measured exactly.
//!
//! The model is a hash fake small enough to enumerate: a 12-token
//! vocabulary and 3 heads whose logits are unrelated to the base's (a
//! worst case for heads). Its exact tempered next-token distribution
//! over 3-token continuations — 12³ = 1,728 outcomes — is the product of
//! the tempered softmax at each position, computed here in `f64` from
//! the logits alone. Each engine is then decoded many times with
//! different seeds, and the total-variation (TV) distance from its
//! empirical distribution to the exact one is measured.
//!
//! NTP samples the model by definition, so its TV is sampling noise
//! only, and it is **asserted** to stay under a floor derived from the
//! exact distribution and the draw count `n` (see [`tv_floor`]),
//! computed per fake and temperature and printed beside NTP's reading.
//! The floor is tight enough that a sampler at 1.25× the temperature
//! fails it on every fake and temperature here. The
//! Medusa chain's and the `[2, 2]` tree's distances are **printed**
//! beside it, not gated: Eq. 1's typical acceptance is not lossless
//! under sampling, so their distance is the shift it adds (ROADMAP item
//! 20). Greedy decoding is pinned lossless by `proptest_decode`.
//!
//! `cargo test -q -p verispec-core --test sampling_fidelity -- --nocapture`
//! prints the table.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use verispec_core::{decode_ntp, decode_speculative, DecodeConfig, DecodeOutput};
use verispec_lm::{GpuCostModel, LanguageModel, Sampling, TokenId};

/// The fake's vocabulary.
const VOCAB: usize = 12;
/// The fake's Medusa heads.
const HEADS: usize = 3;
/// Tokens generated per draw.
const LEN: usize = 3;
/// Distinct continuations: `VOCAB^LEN`.
const OUTCOMES: usize = VOCAB * VOCAB * VOCAB;
/// Generations sampled per engine and setting.
const DRAWS: usize = 20_000;
/// Probability that NTP's TV exceeds its floor by chance alone.
const FALSE_ALARM: f64 = 1e-6;

/// A deterministic pseudo-random LM, shaped like `proptest_decode`'s
/// `HashLm`: every head's logits are a hash of the last 4 tokens, the
/// head index and a per-model seed, spread over `[0, scale)`.
struct HashLm {
    seed: u64,
    scale: f32,
}

impl HashLm {
    fn logits_for(&self, prefix: &[TokenId], head: usize) -> Vec<f32> {
        let mut h = DefaultHasher::new();
        self.seed.hash(&mut h);
        head.hash(&mut h);
        for t in prefix.iter().rev().take(4) {
            t.hash(&mut h);
        }
        let base = h.finish();
        (0..VOCAB)
            .map(|v| {
                let mut hv = DefaultHasher::new();
                base.hash(&mut hv);
                v.hash(&mut hv);
                (hv.finish() % 1000) as f32 / 1000.0 * self.scale
            })
            .collect()
    }
}

impl LanguageModel for HashLm {
    fn vocab_size(&self) -> usize {
        VOCAB
    }

    fn n_extra_heads(&self) -> usize {
        HEADS
    }

    fn logits(&self, prefix: &[TokenId]) -> Vec<f32> {
        self.logits_for(prefix, 0)
    }

    fn multi_logits(&self, prefix: &[TokenId]) -> Vec<Vec<f32>> {
        (0..=HEADS).map(|h| self.logits_for(prefix, h)).collect()
    }
}

/// `softmax(logits / temperature)`, in `f64`.
fn tempered(logits: &[f32], temperature: f32) -> Vec<f64> {
    let t = f64::from(temperature);
    let max = logits
        .iter()
        .map(|&l| f64::from(l) / t)
        .fold(f64::MIN, f64::max);
    let exps: Vec<f64> = logits
        .iter()
        .map(|&l| (f64::from(l) / t - max).exp())
        .collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// The index of a continuation among the `OUTCOMES`, base `VOCAB`.
fn outcome(tokens: &[TokenId]) -> usize {
    assert_eq!(tokens.len(), LEN, "every draw runs to its budget");
    tokens.iter().fold(0, |i, &t| {
        i * VOCAB + usize::try_from(t).expect("a vocabulary id")
    })
}

/// The exact distribution of NTP's `LEN`-token continuations of
/// `prompt` at `temperature`: each outcome's probability is the product
/// of its tokens' tempered probabilities, position by position.
fn exact_ntp(model: &HashLm, prompt: &[TokenId], temperature: f32) -> Vec<f64> {
    let mut dist = vec![0.0; OUTCOMES];
    let mut frontier = vec![(prompt.to_vec(), 1.0f64)];
    for _ in 0..LEN {
        let mut next = Vec::with_capacity(frontier.len() * VOCAB);
        for (context, p) in frontier {
            for (tok, q) in tempered(&model.logits(&context), temperature)
                .into_iter()
                .enumerate()
            {
                let mut longer = context.clone();
                longer.push(tok as TokenId);
                next.push((longer, p * q));
            }
        }
        frontier = next;
    }
    for (context, p) in frontier {
        dist[outcome(&context[prompt.len()..])] += p;
    }
    dist
}

/// The empirical distribution of `DRAWS` decodes, seeded `0..DRAWS`.
fn empirical(decode: impl Fn(u64) -> DecodeOutput) -> Vec<f64> {
    let mut counts = vec![0usize; OUTCOMES];
    for seed in 0..DRAWS as u64 {
        counts[outcome(&decode(seed).tokens)] += 1;
    }
    counts
        .into_iter()
        .map(|c| c as f64 / DRAWS as f64)
        .collect()
}

/// Total-variation distance, `½ Σ |p − q|`.
fn tv(p: &[f64], q: &[f64]) -> f64 {
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

/// How far an exact sampler's empirical TV may sit from the exact
/// distribution `p` with `n` draws, failing with probability at most
/// [`FALSE_ALARM`]. Its mean is at most `½ Σ √(p (1 − p) / n)`: each
/// outcome's empirical frequency has variance `p (1 − p) / n`, and by
/// Jensen its mean absolute error is at most the square root of that.
/// One draw moves the TV by at most `1 / n`, so McDiarmid's inequality
/// puts it more than `√(ln(1 / δ) / (2 n))` above its mean with
/// probability at most `δ`.
fn tv_floor(p: &[f64], n: usize) -> f64 {
    let n = n as f64;
    let mean = 0.5 * p.iter().map(|&q| (q * (1.0 - q) / n).sqrt()).sum::<f64>();
    mean + ((1.0 / FALSE_ALARM).ln() / (2.0 * n)).sqrt()
}

#[test]
fn ntp_samples_the_exact_distribution_and_eq1_is_measured_beside_it() {
    let cost = GpuCostModel::codellama_like();
    let prompt: [TokenId; 2] = [5, 7];
    println!(
        "TV to the exact NTP distribution over {OUTCOMES} outcomes, {DRAWS} draws each \
         (NTP is gated on its floor)"
    );
    println!("fake  scale  T     floor  ntp    chain  tree[2,2]");
    for (seed, scale) in [(1, 4.0), (2, 8.0)] {
        let model = HashLm { seed, scale };
        for temperature in [0.4f32, 1.0] {
            let exact = exact_ntp(&model, &prompt, temperature);
            assert!((exact.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            let floor = tv_floor(&exact, DRAWS);
            let cfg = |seed, tree| DecodeConfig {
                max_tokens: LEN,
                sampling: Sampling::temperature(temperature),
                // Outside the vocabulary: every draw runs to its budget.
                eos: TokenId::MAX,
                seed,
                tree,
                ..Default::default()
            };
            let ntp = tv(
                &exact,
                &empirical(|s| decode_ntp(&model, &prompt, &cfg(s, None), &cost)),
            );
            let chain = tv(
                &exact,
                &empirical(|s| decode_speculative(&model, &prompt, &cfg(s, None), &cost)),
            );
            let tree = tv(
                &exact,
                &empirical(|s| {
                    decode_speculative(&model, &prompt, &cfg(s, Some(vec![2, 2])), &cost)
                }),
            );
            println!(
                "{seed:<5} {scale:<6} {temperature:<5} {floor:.3}  {ntp:.3}  {chain:.3}  {tree:.3}"
            );
            assert!(
                ntp <= floor,
                "fake {seed}, scale {scale}, T {temperature}: NTP's TV {ntp:.4} is past its \
                 sampling floor {floor:.4}"
            );
        }
    }
}
