//! Token sampling strategies: greedy and temperature sampling with
//! optional top-k truncation (the paper evaluates greedy decoding and
//! sampling at temperatures 0.2–0.8, §IV-A3).

use crate::matrix::{first_index_of, lane_max, tempered_softmax_into};
use crate::mlp::TokenId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How the next token is chosen from a logit vector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Sampling {
    /// Always pick the arg-max token.
    Greedy,
    /// Softmax sampling at `temperature`, optionally truncated to the
    /// `top_k` most likely tokens (`0` disables truncation).
    Temperature {
        /// Softmax temperature (> 0).
        temperature: f32,
        /// Keep only this many candidates; `0` keeps all.
        top_k: usize,
    },
}

impl Sampling {
    /// Convenience constructor for plain temperature sampling.
    pub fn temperature(t: f32) -> Self {
        Sampling::Temperature {
            temperature: t,
            top_k: 0,
        }
    }
}

/// A seeded sampler. Deterministic given seed and call sequence.
///
/// A temperature draw is two halves: **normalise** the logits row into
/// its tempered distribution and **draw** from that distribution
/// (`top_k` truncation, then one RNG call). The distribution comes in
/// two forms. [`Sampler::sample`] does both halves on the dense row
/// ([`tempered_softmax_into`]): NTP's every token, every engine's
/// uncarried draw, and the reference the rest is pinned to.
/// [`Sampler::draw_support`] is the second half alone, on a row held as
/// its support ([`crate::matrix::tempered_support_into`]) by a caller
/// that already normalised it — a decode step whose acceptance did —
/// and returns the same token from the same RNG state.
#[derive(Debug, Clone)]
pub struct Sampler {
    rng: SmallRng,
    /// The tempered distribution of the draw in progress, reused.
    probs: Vec<f32>,
    /// The `top_k` survivors of the draw in progress, reused.
    kept: Vec<TokenId>,
}

impl Sampler {
    /// Creates a sampler with a fixed seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            probs: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// Picks a token from `logits` using `strategy`.
    ///
    /// # Panics
    ///
    /// Panics if `logits` is empty or the temperature is not positive.
    pub fn sample(&mut self, logits: &[f32], strategy: Sampling) -> TokenId {
        assert!(!logits.is_empty(), "cannot sample from empty logits");
        match strategy {
            Sampling::Greedy => argmax(logits),
            Sampling::Temperature { temperature, top_k } => {
                assert!(temperature > 0.0, "temperature must be positive");
                self.probs.clear();
                tempered_softmax_into(logits, temperature, &mut self.probs);
                if top_k > 0 && top_k < self.probs.len() {
                    keep_top_k(&mut self.probs, top_k, &mut self.kept);
                }
                draw(&mut self.rng, self.probs.iter().copied()) as TokenId
            }
        }
    }

    /// The draw half of a temperature [`Sampler::sample`], for a row held
    /// as its support: `support` and `sum` are what
    /// [`crate::matrix::tempered_support_into`] made of the row's
    /// logits, `width` the row's length and `top_k` the strategy's
    /// truncation. One RNG call, and the token `sample` would have
    /// returned for that row: the entries the support leaves out are
    /// `+0.0` in the dense row, where they rank below every non-zero
    /// entry for `top_k`, add nothing to the renormalising sum and
    /// never move the cumulative scan.
    ///
    /// Without truncation the draw walks the support itself, dividing
    /// each entry by `sum` as it goes and stopping at the first
    /// cumulative sum above the uniform: the dense row's divisions and
    /// additions in the dense row's order, up to where its scan stops.
    /// A truncating draw must rank the renormalised values first, so it
    /// fills the probability buffer as [`Sampler::sample`] does.
    pub fn draw_support(
        &mut self,
        support: &[(TokenId, f32)],
        sum: f32,
        width: usize,
        top_k: usize,
    ) -> TokenId {
        // The support is in index order, so a position in it stands for
        // the same token the dense scan would have stopped at.
        let at = if top_k > 0 && top_k < width {
            self.probs.clear();
            self.probs.extend(support.iter().map(|&(_, e)| e / sum));
            keep_top_k(&mut self.probs, top_k, &mut self.kept);
            draw(&mut self.rng, self.probs.iter().copied())
        } else {
            draw(&mut self.rng, support.iter().map(|&(_, e)| e / sum))
        };
        support[at].0
    }

    /// Uniformly random integer in `[0, n)` (corpus shuffling helper).
    pub fn gen_range(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }
}

/// Index of the maximum logit under `>`: the first index on ties, where
/// `+0.0` and `-0.0` count as equal. NaNs never win; a row that is
/// empty or opens with a NaN answers `0`.
///
/// That is the serial scan "keep the first entry, move to any later one
/// that is `>` the kept one", found in two lane-parallel passes instead
/// (see the [`crate::matrix`] module doc): the row's maximum, then the
/// first index that `==` it.
pub fn argmax(logits: &[f32]) -> TokenId {
    match logits.first() {
        Some(first) if !first.is_nan() => {
            // With a non-NaN entry to start from, the maximum is the
            // value of some entry (`-∞` included).
            first_index_of(logits, lane_max(logits)).expect("the maximum is an entry") as TokenId
        }
        _ => 0,
    }
}

/// Zeroes all but the `k` largest entries of `probs` (ties: the lower
/// index ranks first, [`top_k_into`]'s order) and renormalises what is
/// left; `kept` is working memory.
fn keep_top_k(probs: &mut [f32], k: usize, kept: &mut Vec<TokenId>) {
    top_k_into(probs, k, kept);
    kept.sort_unstable();
    let mut keep = kept.iter().peekable();
    for (i, p) in probs.iter_mut().enumerate() {
        if keep.next_if(|&&held| held as usize == i).is_none() {
            *p = 0.0;
        }
    }
    let sum: f32 = probs.iter().sum();
    probs.iter_mut().for_each(|p| *p /= sum);
}

/// One uniform draw mapped through the cumulative distribution of
/// `probs`, read only as far as the draw lands; returns the position
/// drawn.
fn draw<P>(rng: &mut SmallRng, mut probs: P) -> usize
where
    P: DoubleEndedIterator<Item = f32> + ExactSizeIterator + Clone,
{
    let r: f32 = rng.gen();
    let mut acc = 0.0f32;
    for (i, p) in probs.clone().enumerate() {
        acc += p;
        if r < acc {
            return i;
        }
    }
    // Floating-point slack: fall back to the last nonzero entry.
    probs.rposition(|p| p > 0.0).unwrap_or(0)
}

/// The indices of the `k` largest logits (all of them when `k` exceeds
/// the count), best first under the total order *logit descending,
/// index ascending* — equal logits rank by position, so the result is
/// a function of the values alone.
///
/// One pass over the logits, a chunk at a time: a chunk none of whose
/// entries beats the current `k`-th best is skipped whole (a
/// branch-free scan the compiler vectorizes), and only a chunk that
/// does is walked, inserting into the sorted best-`k` — `O(n)`
/// comparisons plus `O(k)` per insertion, against the full
/// `O(n log n)` sort the engines used to pay per head per step to read
/// two entries.
///
/// # Panics
///
/// Panics on a NaN logit (no order exists).
pub fn top_k_indices(logits: &[f32], k: usize) -> Vec<TokenId> {
    let mut best = Vec::with_capacity(k.min(logits.len()));
    top_k_into(logits, k, &mut best);
    best
}

/// [`top_k_indices`] into a caller-owned buffer (cleared first): the
/// allocation-free form, for a decode step that ranks one head per
/// level it reaches and reads two entries of each. The held entries'
/// logits are read back through `logits`.
///
/// The skip test is one compare per entry: a chunk is skipped when
/// every `l <= bar`. A NaN fails that compare like an entry above the
/// bar does, so a chunk holding a NaN is always walked and the walk
/// refuses it. The chunks are `&[f32; CHUNK]`, so the test runs in
/// registers over constant indices. Measured on 3,000 head rows logged
/// from `offline_eval`
/// (`k` = 1 / 2 / 3 on 14 / 62 / 25 %), that is 189 ns a row against
/// 266 ns for the same insertion behind a NaN test and a `>` test over
/// slice chunks; a lane pass per rank (each rank the greatest entry not
/// yet taken, then its first index) took 388 ns, because a head row's
/// best entries are found early and everything after them is skipped
/// at the skip test's speed.
///
/// # Panics
///
/// Panics on a NaN logit (no order exists).
pub fn top_k_into(logits: &[f32], k: usize, best: &mut Vec<TokenId>) {
    const CHUNK: usize = 16;
    best.clear();
    let k = k.min(logits.len());
    if k == 0 {
        return;
    }
    // Inserts the chunk's entries that rank, from `base` on; `bar` is
    // the logit a candidate must beat once `k` are held.
    #[inline(always)]
    fn walk(
        logits: &[f32],
        base: usize,
        chunk: &[f32],
        k: usize,
        best: &mut Vec<TokenId>,
        bar: &mut f32,
    ) {
        for (j, &l) in chunk.iter().enumerate() {
            // Indices arrive ascending, so a tie with a held entry
            // always ranks after it: only a strictly larger logit
            // displaces.
            if best.len() == k && l <= *bar {
                continue;
            }
            assert!(!l.is_nan(), "finite logits");
            if best.len() == k {
                best.pop();
            }
            let at = best.partition_point(|&held| logits[held as usize] >= l);
            best.insert(at, (base + j) as TokenId);
            if best.len() == k {
                *bar = logits[best[k - 1] as usize];
            }
        }
    }
    let mut bar = f32::NEG_INFINITY;
    let mut chunks = logits.chunks_exact(CHUNK);
    for (c, chunk) in chunks.by_ref().enumerate() {
        let chunk: &[f32; CHUNK] = chunk.try_into().expect("fixed chunk width");
        // All at or below the bar: a NaN fails the compare, so its
        // chunk is walked.
        if best.len() == k && chunk.iter().fold(true, |low, &l| low & (l <= bar)) {
            continue;
        }
        walk(logits, c * CHUNK, chunk, k, best, &mut bar);
    }
    let tail = chunks.remainder();
    walk(logits, logits.len() - tail.len(), tail, k, best, &mut bar);
}

/// A logits row's ranking under [`top_k_into`]'s total order, ranked
/// only as deep as it is read: for a reader that takes its first `k`
/// acceptable entries in rank order and nearly always finds them at
/// the top, when how far it will scan is not known beforehand.
///
/// Under a total order a shallower ranking is a prefix of a deeper
/// one, so deepening only ever extends what was already read. The
/// first read ranks `k + 1` deep — one spare entry, since a reader
/// that rejects anything usually rejects one — and a read past the
/// ranked depth re-ranks at least twice as deep, so the re-ranking
/// stays within a constant factor of one ranking to the depth
/// reached. `best` is never more than a prefix of the ranking: read it
/// through [`Ranking::get`] and [`Ranking::head`] only.
#[derive(Debug)]
pub struct Ranking<'a> {
    row: &'a [f32],
    /// How many entries the reader means to take: the first depth.
    k: usize,
    /// The row's top `best.len()`, best first.
    best: Vec<TokenId>,
}

impl<'a> Ranking<'a> {
    /// The ranking of `row` for a reader that takes `k` entries;
    /// nothing is ranked until something is read.
    pub fn new(row: &'a [f32], k: usize) -> Self {
        Self {
            row,
            k,
            best: Vec::new(),
        }
    }

    /// The entry at rank `i`, `None` past the row's length.
    ///
    /// # Panics
    ///
    /// Panics on a NaN logit, as [`top_k_into`] does.
    pub fn get(&mut self, i: usize) -> Option<TokenId> {
        if i >= self.best.len() && self.best.len() < self.row.len() {
            let deeper = i.saturating_add(1).max(self.k + 1).max(2 * self.best.len());
            top_k_into(self.row, deeper, &mut self.best);
        }
        self.best.get(i).copied()
    }

    /// The first `n` entries (all of them when the row is shorter),
    /// ranking exactly `n` deep when it was not ranked that deep yet.
    ///
    /// # Panics
    ///
    /// Panics on a NaN logit, as [`top_k_into`] does.
    pub fn head(&mut self, n: usize) -> &[TokenId] {
        if self.best.len() < n.min(self.row.len()) {
            top_k_into(self.row, n, &mut self.best);
        }
        &self.best[..n.min(self.best.len())]
    }

    /// How deep the row has been ranked so far.
    pub fn depth(&self) -> usize {
        self.best.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::tempered_support_into;

    #[test]
    fn greedy_is_argmax() {
        let mut s = Sampler::new(0);
        assert_eq!(s.sample(&[0.1, 2.0, 0.5], Sampling::Greedy), 1);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 1.0, 0.0]), 0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let logits = vec![0.0f32, 1.0, 2.0, 0.5];
        let a: Vec<TokenId> = {
            let mut s = Sampler::new(42);
            (0..20)
                .map(|_| s.sample(&logits, Sampling::temperature(0.8)))
                .collect()
        };
        let b: Vec<TokenId> = {
            let mut s = Sampler::new(42);
            (0..20)
                .map(|_| s.sample(&logits, Sampling::temperature(0.8)))
                .collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn low_temperature_concentrates() {
        let logits = vec![0.0f32, 5.0, 0.0];
        let mut s = Sampler::new(7);
        let picks: Vec<TokenId> = (0..50)
            .map(|_| s.sample(&logits, Sampling::temperature(0.1)))
            .collect();
        assert!(picks.iter().all(|&t| t == 1));
    }

    #[test]
    fn high_temperature_spreads() {
        let logits = vec![0.0f32, 1.0, 0.0];
        let mut s = Sampler::new(7);
        let picks: Vec<TokenId> = (0..200)
            .map(|_| s.sample(&logits, Sampling::temperature(5.0)))
            .collect();
        let distinct: std::collections::HashSet<_> = picks.into_iter().collect();
        assert!(
            distinct.len() >= 2,
            "high temperature should sample multiple tokens"
        );
    }

    #[test]
    fn top_k_restricts_support() {
        let logits = vec![0.0f32, 10.0, 9.0, -5.0];
        let mut s = Sampler::new(3);
        for _ in 0..100 {
            let t = s.sample(
                &logits,
                Sampling::Temperature {
                    temperature: 2.0,
                    top_k: 2,
                },
            );
            assert!(t == 1 || t == 2, "got {t}");
        }
    }

    #[test]
    fn split_draws_equal_the_one_call_sampler_token_for_token() {
        // The definition both halves must reproduce: the tempered
        // softmax, the `top_k` survivors copied out, everything else
        // zeroed, one renormalisation, one uniform through the
        // cumulative sum — with owned vectors at every stage.
        fn reference(rng: &mut SmallRng, logits: &[f32], t: f32, top_k: usize) -> TokenId {
            let mut probs = Vec::new();
            tempered_softmax_into(logits, t, &mut probs);
            if top_k > 0 && top_k < probs.len() {
                let kept: Vec<(TokenId, f32)> = top_k_indices(&probs, top_k)
                    .into_iter()
                    .map(|i| (i, probs[i as usize]))
                    .collect();
                probs.fill(0.0);
                for (i, p) in kept {
                    probs[i as usize] = p;
                }
                let sum: f32 = probs.iter().sum();
                probs.iter_mut().for_each(|p| *p /= sum);
            }
            draw(rng, probs.iter().copied()) as TokenId
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        // Peaked rows, flat rows and rows of exact ties (the `top_k`
        // cut then falls between equal probabilities).
        let rows: Vec<Vec<f32>> = (0..40)
            .map(|case| {
                (0..23)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        match case % 3 {
                            0 => (state % 1000) as f32 * 0.01 - 5.0,
                            1 => (state % 3) as f32 * 0.25,
                            _ => (state % 7) as f32 * 2.0,
                        }
                    })
                    .collect()
            })
            .collect();
        for temperature in [0.05f32, 0.8] {
            for top_k in [0usize, 2, 5] {
                let strategy = Sampling::Temperature { temperature, top_k };
                let mut want = SmallRng::seed_from_u64(11);
                let (mut whole, mut halves) = (Sampler::new(11), Sampler::new(11));
                let mut support = Vec::new();
                for (i, row) in rows.iter().cycle().take(400).enumerate() {
                    let tok = reference(&mut want, row, temperature, top_k);
                    assert_eq!(
                        whole.sample(row, strategy),
                        tok,
                        "T {temperature} k {top_k}"
                    );
                    // The two forms interleave on one RNG stream.
                    let got = if i % 2 == 0 {
                        support.clear();
                        let (_, sum) = tempered_support_into(row, temperature, &mut support);
                        halves.draw_support(&support, sum, row.len(), top_k)
                    } else {
                        halves.sample(row, strategy)
                    };
                    assert_eq!(got, tok, "draw {i}: T {temperature} k {top_k}");
                }
            }
        }
    }

    #[test]
    fn a_draw_past_the_cumulative_sum_falls_back_to_the_last_nonzero_entry() {
        // A seed whose first uniform is at least 0.5, the total mass of
        // the rows below, so the cumulative scan never stops.
        let seed = (0..64u64)
            .find(|&s| SmallRng::seed_from_u64(s).gen::<f32>() >= 0.5)
            .expect("a seed among 64 draws at least 0.5");
        let rng = || SmallRng::seed_from_u64(seed);
        assert_eq!(draw(&mut rng(), [0.25f32, 0.25, 0.0].into_iter()), 1);
        assert_eq!(draw(&mut rng(), [0.0f32; 3].into_iter()), 0);
        // The untruncated support draw falls back the same way and names
        // the token at that position.
        let support = [(3, 1.0f32), (7, 1.0), (9, 0.0)];
        assert_eq!(Sampler::new(seed).draw_support(&support, 4.0, 10, 0), 7);
        let zeros = [(5, 0.0f32), (6, 0.0)];
        assert_eq!(Sampler::new(seed).draw_support(&zeros, 1.0, 10, 0), 5);
    }

    #[test]
    fn top_k_indices_ordered() {
        assert_eq!(top_k_indices(&[0.1, 5.0, 3.0, 4.0], 3), vec![1, 3, 2]);
        assert_eq!(top_k_indices(&[1.0], 5), vec![0]);
    }

    #[test]
    fn top_k_into_equals_top_k_indices_nan_panic_included() {
        // Ties, duplicates across chunk boundaries, `k` from 0 past the
        // length; the reused buffer starts each call dirty.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut buf: Vec<TokenId> = vec![7; 5];
        for n in [1usize, 3, 16, 17, 40, 100] {
            let logits: Vec<f32> = (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % 9) as f32 * 0.5 - 2.0
                })
                .collect();
            // The definition: a full sort under the total order.
            let mut sorted: Vec<TokenId> = (0..n as TokenId).collect();
            sorted.sort_by(|&a, &b| {
                let (la, lb) = (logits[a as usize], logits[b as usize]);
                lb.partial_cmp(&la).expect("finite").then(a.cmp(&b))
            });
            for k in [0usize, 1, 2, 5, n, n + 3] {
                top_k_into(&logits, k, &mut buf);
                assert_eq!(buf, sorted[..k.min(n)], "n={n} k={k}");
                assert_eq!(buf, top_k_indices(&logits, k), "n={n} k={k}");
            }
        }
        for form in 0..2 {
            let err = std::panic::catch_unwind(|| {
                let logits = [0.0, f32::NAN, 1.0];
                if form == 0 {
                    top_k_indices(&logits, 2);
                } else {
                    top_k_into(&logits, 2, &mut Vec::new());
                }
            })
            .expect_err("NaN has no rank");
            let msg = err.downcast_ref::<&'static str>().copied().unwrap_or("");
            assert!(msg.contains("finite logits"), "form {form}: {msg}");
        }
    }

    #[test]
    fn ranking_past_the_row_is_none_and_deepens_only_when_read() {
        let row = [0.5f32, 2.0, 2.0, -1.0, 0.0];
        let mut r = Ranking::new(&row, 2);
        assert_eq!(r.depth(), 0, "nothing is ranked until something is read");
        assert_eq!(r.get(0), Some(1));
        assert_eq!(r.depth(), 3, "first read: one past the width");
        assert_eq!(r.get(2), Some(0));
        assert_eq!(r.depth(), 3);
        assert_eq!(r.get(3), Some(4));
        assert_eq!(r.depth(), 5, "twice as deep, cut to the row");
        for i in [5usize, 6, 1000, usize::MAX] {
            assert_eq!(r.get(i), None, "rank {i} of a 5-wide row");
        }
        assert_eq!(r.head(9), [1, 2, 0, 4, 3]);
        // `head` ranks exactly as deep as it is asked, `get` past it
        // doubles, and an empty row ranks nothing.
        let mut r = Ranking::new(&row, 2);
        assert_eq!(r.head(2), [1, 2]);
        assert_eq!(r.depth(), 2);
        assert_eq!(r.get(2), Some(0));
        assert_eq!(r.depth(), 4);
        assert_eq!(Ranking::new(&row, 2).get(usize::MAX), None);
        let mut r = Ranking::new(&[], 3);
        assert_eq!((r.get(0), r.head(3).len(), r.depth()), (None, 0, 0));
    }
}
