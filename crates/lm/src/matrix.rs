//! Minimal dense `f32` linear algebra for the tiny language models.
//!
//! Two layouts, one arithmetic:
//!
//! * [`Matrix`] — row-major, with exactly the operations the MLP LM's
//!   forward and hand-written backward passes need. [`Matrix::matvec`]
//!   is a chain of dependent scalar adds per output (FP reassociation is
//!   not allowed, so it cannot vectorize); training and the stateless
//!   reference path use it.
//! * [`PackedMatrix`] — the same weights repacked once per model into
//!   `PACK_ROWS`-row column-major blocks, so that *output rows* are
//!   the SIMD lanes. [`PackedMatrix::matvec_into`] keeps one `f32`
//!   accumulator per output and adds its columns in ascending order —
//!   bit-identical to [`Matrix::matvec`] — but the accumulators of one
//!   block are independent, so the inner loop auto-vectorizes with no
//!   input transpose and no batch padding: one input is as efficient as
//!   hundreds. Every inference call (`MlpLm::infer`) runs on it. A
//!   full block leaves the kernel as one fixed-size store from its
//!   accumulator registers; a variable-length copy out of them would be
//!   a libc `memcpy` per block, so only a trailing partial block takes
//!   one. A head's bias is added in that epilogue, to each finished sum
//!   before the store — `(Σ w·x) + c`, the operands and the operation a
//!   second loop over the row would use — so a logits row is written
//!   once instead of written and then passed over again.
//!
//! No BLAS, no intrinsics, no `unsafe` — and no threads and no
//! environment: a kernel call runs on its caller's thread, whatever its
//! size. Parallelism lives one level up, in the serving fleet's
//! one-thread-per-worker backend.
//!
//! The same rule decides which **row scans** may run in lanes. A sum is
//! a chain: `f32` addition does not reassociate, so every sum over a
//! logits row (the softmax normaliser, the entropy) adds in index order
//! and stays serial. A maximum is not a chain: under `>` the greatest
//! of a set of non-NaN values is one value whatever order it is looked
//! for in, so `lane_max` keeps sixteen independent maxima and joins
//! them at the end. Grouping can change one thing only — which zero a
//! row whose maximum is `±0` reports — and every caller is built so that
//! it cannot tell: [`crate::sampler::argmax`] looks the maximum up with
//! `first_index_of`, whose `==` finds either zero, and
//! [`tempered_support_into`] asks the dense row's own fold whenever its
//! maximum is a zero.
//!
//! The row scans that skip — [`tempered_support_into`]'s chunks below
//! its cut, [`crate::sampler::top_k_into`]'s chunks that cannot rank —
//! test each `&[f32; 16]` chunk with one compare per entry (all
//! `l < cut`, all `l <= bar`). A NaN fails that compare as an entry
//! that must be looked at does, so the chunk holding one is walked and
//! refuses it there. Over a fixed-width chunk every index is a
//! constant and the test stays in registers; the same scans over slice
//! chunks, with a separate NaN test, took about a quarter (support)
//! and 41 % (ranking) more per row on rows logged from `offline_eval`.

use crate::codec;
use crate::mlp::TokenId;
use serde::{Deserialize, Error, Serialize, Value};

/// Output rows per [`PackedMatrix`] block — the accumulator lanes of
/// the inference kernel's inner loop. Thirty-two `f32` lanes are eight
/// independent 128-bit add chains at the x86-64 baseline, enough to
/// cover the add latency; the width only regroups *independent*
/// accumulators, so it cannot change any output bit.
pub(crate) const PACK_ROWS: usize = 32;

/// A row-major dense matrix of `f32`.
///
/// Persisted as `{"rows": R, "cols": C, "data": "<Z85>"}`, where `data`
/// is one string of every entry's [`f32::to_bits`] in row-major order,
/// five Z85 characters per entry (ZeroMQ RFC 32). Reading one back is an
/// error, never a panic, unless `data` holds exactly `R × C` finite
/// entries.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Serialize for Matrix {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            (Value::Str("rows".into()), self.rows.to_value()),
            (Value::Str("cols".into()), self.cols.to_value()),
            (Value::Str("data".into()), codec::encode(&self.data)),
        ])
    }
}

impl Deserialize for Matrix {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let rows = usize::from_value(v.field("rows")?)?;
        let cols = usize::from_value(v.field("cols")?)?;
        let len = rows
            .checked_mul(cols)
            .ok_or_else(|| Error::new(format!("{rows} × {cols} entries overflow")))?;
        let data = codec::decode(v.field("data")?, len)?;
        Ok(Self { rows, cols, data })
    }
}

impl Matrix {
    /// A zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A matrix filled from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat parameter slice (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The flat mutable parameter slice (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `y = A x` (length `rows`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0f32; self.rows];
        for (r, out) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0f32;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *out = acc;
        }
        y
    }

    /// Repacks the weights for inference (see [`PackedMatrix`]). The
    /// pack is derived state: rebuild it whenever the weights change.
    pub fn pack(&self) -> PackedMatrix {
        let blocks = self.rows.div_ceil(PACK_ROWS);
        let mut data = vec![0.0f32; blocks * self.cols * PACK_ROWS];
        for r in 0..self.rows {
            let (block, lane) = (r / PACK_ROWS, r % PACK_ROWS);
            for (c, &v) in self.row(r).iter().enumerate() {
                data[(block * self.cols + c) * PACK_ROWS + lane] = v;
            }
        }
        PackedMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// `y = Aᵀ x` (length `cols`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn matvec_t(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        let mut y = vec![0.0f32; self.cols];
        for (r, &xv) in x.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (yc, a) in y.iter_mut().zip(row) {
                *yc += xv * a;
            }
        }
        y
    }

    /// Rank-1 update `A += dy xᵀ` (gradient accumulation for `y = A x`).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add_outer(&mut self, dy: &[f32], x: &[f32]) {
        assert_eq!(dy.len(), self.rows, "add_outer rows mismatch");
        assert_eq!(x.len(), self.cols, "add_outer cols mismatch");
        for (r, &g) in dy.iter().enumerate() {
            if g == 0.0 {
                continue;
            }
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (a, xv) in row.iter_mut().zip(x) {
                *a += g * xv;
            }
        }
    }

    /// Sets every entry to zero (reused gradient buffers).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }
}

/// A [`Matrix`] repacked for inference ([`Matrix::pack`]): blocks of
/// `PACK_ROWS` consecutive rows, each stored column-major
/// (`data[(block · cols + c) · PACK_ROWS + lane]` is row
/// `block · PACK_ROWS + lane`, column `c`; the last block is
/// zero-padded).
#[derive(Debug, Clone)]
pub struct PackedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl PackedMatrix {
    /// `y = A x + c`, bit-identical to [`Matrix::matvec`] followed by
    /// `y[i] += c[i]`: every output starts from `0.0` and adds `a · x`
    /// column by column in one `f32` accumulator (the lanes of a block
    /// only run side by side), then adds its bias, if `bias` is given,
    /// to the finished sum. Without a bias nothing is added, not even a
    /// zero: `-0.0 + 0.0` is `+0.0`.
    ///
    /// Each block goes through `block_into`, which adds
    /// the block's biases to its accumulators and stores a full block
    /// of `y` as one fixed-size array, straight from the accumulator
    /// registers; only a trailing partial block copies a
    /// variable-length prefix out of them (which is a libc `memcpy`,
    /// once per call). So a biased row is written once, where a second
    /// loop would pass over the whole row again. A matrix without
    /// columns writes every output as the empty sum, `+0.0`, plus its
    /// bias.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`, `y.len() != rows` or a bias is not
    /// `rows` long.
    pub fn matvec_into(&self, x: &[f32], bias: Option<&[f32]>, y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec_into input mismatch");
        assert_eq!(y.len(), self.rows, "matvec_into output mismatch");
        if let Some(c) = bias {
            assert_eq!(c.len(), self.rows, "matvec_into bias mismatch");
        }
        let mut biases = bias.map(|c| c.chunks(PACK_ROWS));
        for (out, b) in y.chunks_mut(PACK_ROWS).zip(0..) {
            self.block_into(b, x, biases.as_mut().and_then(Iterator::next), out);
        }
    }

    /// Block `b` of [`PackedMatrix::matvec_into`]: `out` is that block's
    /// rows of `y` (`PACK_ROWS` of them, fewer in a partial last block)
    /// and `bias` their biases, and they get the bits `matvec_into`
    /// gives them — for a caller that reads a row a block at a time and
    /// may stop before the end. A full block leaves as one fixed-size
    /// store from its accumulators; a partial one copies a prefix.
    /// `block_dot` is inlined once per store, so that a full block's
    /// accumulators go from registers to `out` without a round trip
    /// through memory.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not a block of the matrix. `x` must be `cols`
    /// long and `out` and `bias` the block's length: debug-asserted
    /// only, since `matvec_into` checks its whole call once and a
    /// check per block measurably slowed every forward.
    #[inline(always)]
    pub(crate) fn block_into(&self, b: usize, x: &[f32], bias: Option<&[f32]>, out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.cols, "block_into input mismatch");
        debug_assert_eq!(
            Some(out.len()),
            self.rows
                .min((b + 1) * PACK_ROWS)
                .checked_sub(b * PACK_ROWS)
        );
        debug_assert!(
            bias.is_none_or(|c| c.len() == out.len()),
            "one bias per row"
        );
        let width = self.cols * PACK_ROWS;
        let block = &self.data[b * width..(b + 1) * width];
        if out.len() == PACK_ROWS {
            let out: &mut [f32; PACK_ROWS] = out.try_into().expect("full block");
            let mut acc = block_dot(block, x);
            if let Some(c) = bias {
                let c: &[f32; PACK_ROWS] = c.try_into().expect("full block");
                acc.iter_mut().zip(c).for_each(|(a, c)| *a += c);
            }
            *out = acc;
        } else {
            let mut acc = block_dot(block, x);
            if let Some(c) = bias {
                acc.iter_mut().zip(c).for_each(|(a, c)| *a += c);
            }
            out.copy_from_slice(&acc[..out.len()]);
        }
    }
}

/// One block's sums `Σ_c w · x[c]`, each in one accumulator in column
/// order; no columns is the empty sum, `+0.0`.
#[inline(always)]
fn block_dot(block: &[f32], x: &[f32]) -> [f32; PACK_ROWS] {
    let mut acc = [0.0f32; PACK_ROWS];
    for (col, &xv) in block.chunks_exact(PACK_ROWS).zip(x) {
        let col: &[f32; PACK_ROWS] = col.try_into().expect("fixed block width");
        for (a, w) in acc.iter_mut().zip(col) {
            *a += w * xv;
        }
    }
    acc
}

/// Entries a row scan takes side by side — `lane_max`'s independent
/// maxima, and the chunk `first_index_of` and [`tempered_support_into`]
/// test in one branch-free pass: four 128-bit registers at the x86-64
/// baseline.
const LANES: usize = 16;

/// The greatest entry of `row` under `>`, `-∞` for an empty row or one
/// of NaNs only: NaNs never win, as neither `f32::max` nor a `>` scan
/// lets them. Exact, because the greatest element of a set does not
/// depend on the order it is sought in; only the sign of a zero maximum
/// may differ from a serial scan's (see the module doc).
pub(crate) fn lane_max(row: &[f32]) -> f32 {
    let greater = |m: f32, l: f32| if l > m { l } else { m };
    let mut lanes = [f32::NEG_INFINITY; LANES];
    let chunks = row.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (m, &l) in lanes.iter_mut().zip(chunk) {
            *m = greater(*m, l);
        }
    }
    for (m, &l) in lanes.iter_mut().zip(tail) {
        *m = greater(*m, l);
    }
    lanes.into_iter().fold(f32::NEG_INFINITY, greater)
}

/// The first index of `row` whose entry `== value` (so `+0.0` and
/// `-0.0` find each other, and a NaN finds nothing), a chunk at a time:
/// a chunk without a hit costs one branch-free compare pass, and only
/// the chunk that holds one is walked.
pub(crate) fn first_index_of(row: &[f32], value: f32) -> Option<usize> {
    row.chunks(LANES).enumerate().find_map(|(c, chunk)| {
        let hit = chunk.iter().fold(false, |hit, &l| hit | (l == value));
        if !hit {
            return None;
        }
        chunk
            .iter()
            .position(|&l| l == value)
            .map(|j| c * LANES + j)
    })
}

/// Numerically stable softmax.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut out = logits.to_vec();
    softmax_in_place(&mut out);
    out
}

/// [`softmax`] over a caller-owned buffer (the same operations in the
/// same order, so the same bits). Returns the `(max, sum)` it
/// normalized with: entry `i` is `(v_i - max).exp() / sum` (undivided
/// when `sum` is not positive).
pub fn softmax_in_place(v: &mut [f32]) -> (f32, f32) {
    let max = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    v.iter_mut().for_each(|l| *l = (*l - max).exp());
    let sum: f32 = v.iter().sum();
    if sum > 0.0 {
        v.iter_mut().for_each(|p| *p /= sum);
    }
    (max, sum)
}

/// The softmax of `logits / temperature` — the distribution sampling
/// draws from and typical acceptance is judged on — **appended** to
/// `out`, so a caller keeps one distribution per row back to back (or
/// clears first to reuse one). Returns [`softmax_in_place`]'s
/// `(max, sum)`.
pub fn tempered_softmax_into(logits: &[f32], temperature: f32, out: &mut Vec<f32>) -> (f32, f32) {
    let start = out.len();
    out.extend(logits.iter().map(|&l| l / temperature));
    softmax_in_place(&mut out[start..])
}

/// `f32::exp` of anything at or below this is exactly `+0.0`: it is
/// past `ln 2⁻¹⁵⁰ ≈ −103.972`, where the result rounds below the
/// smallest denormal (`exp_flushes_to_zero_at_the_cut_off` pins that on
/// this platform's libm).
const EXP_FLUSH: f32 = -103.98;

/// How far below the row's maximum [`tempered_support_into`] puts its
/// cut, in scaled logits: [`EXP_FLUSH`] and a little room for the cut's
/// own rounding.
const SUPPORT_MARGIN: f32 = 104.0;
const _: () = assert!(-SUPPORT_MARGIN < EXP_FLUSH);

/// [`tempered_softmax_into`] held as its **support**: `(index, exp)` of
/// every entry whose `(l / temperature − max).exp()` is non-zero, in
/// index order, appended to `out`. Returns the dense row's
/// `(max, sum)`, bit for bit; entry `i` of the dense row is `exp / sum`
/// where the support holds `i` and `+0.0` everywhere else.
///
/// A cold row is nearly all zeros — at `temperature` 0.01 a logit one
/// unit under the best is a hundred scaled units under it — and a zero
/// costs the dense row a divide, an `exp`, an add and another divide to
/// stay zero. Here it costs one compare: an entry below the cut has an
/// exponent at or below `EXP_FLUSH` (the cut is checked, not trusted;
/// dividing by a positive temperature and subtracting `max` are both
/// monotone), so its `exp` is `+0.0`, and `x + 0.0 == x` for every
/// partial sum. Whole chunks below the cut are skipped in one
/// branch-free scan. Everything at or above it pays the dense row's own
/// operations in the dense row's order — denormal terms included — so a
/// warm row is simply a support as long as the row.
///
/// The maximum is found in lanes and the sum is not. Lane order cannot
/// change which value is greatest, only which zero a zero maximum
/// carries, and a zero maximum is re-read with the dense row's own
/// `f32::max` fold — so `max` is the dense row's bit either way. The
/// sum keeps the dense row's index order, because reassociating `f32`
/// additions would move its bits.
///
/// # Panics
///
/// Panics if `temperature` is not positive, and on a row with no finite
/// normaliser: a NaN, a `+∞`, a scaled logit that overflows, or nothing
/// above `−∞`.
pub fn tempered_support_into(
    logits: &[f32],
    temperature: f32,
    out: &mut Vec<(TokenId, f32)>,
) -> (f32, f32) {
    assert!(temperature > 0.0, "temperature must be positive");
    // The largest scaled logit is the largest logit, scaled: one divide.
    let top = lane_max(logits);
    let mut max = top / temperature;
    if max == 0.0 {
        // Which zero a fold over scaled entries of both signs ends on is
        // `f32::max`'s choice, not the lanes': ask it.
        max = logits
            .iter()
            .map(|&l| l / temperature)
            .fold(f32::NEG_INFINITY, f32::max);
    }
    let cut = (max - SUPPORT_MARGIN) * temperature;
    // Every `l < cut` has `(l / temperature - max) <= (cut / temperature
    // - max)`, rounding included. Where rounding ate the margin (scaled
    // logits in the millions), every entry is looked at instead.
    let cut = if cut / temperature - max <= EXP_FLUSH {
        cut
    } else {
        f32::NEG_INFINITY
    };
    // Every entry of `chunk` at or above the cut, from `base` on, into
    // the sum and the support.
    let mut sum = 0.0f32;
    let mut walk = |base: usize, chunk: &[f32]| {
        for (j, &l) in chunk.iter().enumerate() {
            if l < cut {
                continue;
            }
            let e = (l / temperature - max).exp();
            if e != 0.0 {
                sum += e;
                out.push(((base + j) as TokenId, e));
            }
        }
    };
    let mut chunks = logits.chunks_exact(LANES);
    for (c, chunk) in chunks.by_ref().enumerate() {
        let chunk: &[f32; LANES] = chunk.try_into().expect("fixed chunk width");
        // All below the cut: a NaN fails the compare, so its chunk is
        // live, because a NaN must reach the sum.
        if !chunk.iter().fold(true, |below, &l| below & (l < cut)) {
            walk(c * LANES, chunk);
        }
    }
    let tail = chunks.remainder();
    walk(logits.len() - tail.len(), tail);
    assert!(sum.is_finite(), "finite logits");
    (max, sum)
}

/// Numerically stable log-softmax.
pub fn log_softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = logits.iter().map(|&l| (l - max).exp()).sum::<f32>().ln() + max;
    logits.iter().map(|&l| l - log_sum).collect()
}

/// Shannon entropy (nats) of a probability distribution.
pub fn entropy(probs: &[f32]) -> f32 {
    entropy_of(probs.iter().copied())
}

/// [`entropy`] of the probabilities `probs` yields. Zeros add nothing,
/// so a distribution may be given by its non-zero entries alone, in
/// index order, for the same bits.
fn entropy_of(probs: impl Iterator<Item = f32>) -> f32 {
    probs.filter(|&p| p > 0.0).map(|p| -p * p.ln()).sum()
}

/// [`entropy`] of the dense row a [`tempered_support_into`] support and
/// its `sum` stand for, bit for bit.
pub fn support_entropy(support: &[(TokenId, f32)], sum: f32) -> f32 {
    entropy_of(support.iter().map(|&(_, e)| e / sum))
}

/// SiLU activation `x * sigmoid(x)`.
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// Derivative of SiLU: `σ(x)·(1 + x·(1 − σ(x)))`.
pub fn silu_prime(x: f32) -> f32 {
    let s = 1.0 / (1.0 + (-x).exp());
    s * (1.0 + x * (1.0 - s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_matches_manual() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32); // [[0,1,2],[3,4,5]]
        let y = a.matvec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![8.0, 26.0]);
    }

    /// The kernel against its definition: `matvec`, then `+= c` when
    /// there is a bias.
    fn assert_packed_matches_scalar(a: &Matrix, x: &[f32], bias: Option<&[f32]>) {
        let mut y = vec![f32::NAN; a.rows()];
        a.pack().matvec_into(x, bias, &mut y);
        let mut want = a.matvec(x);
        if let Some(c) = bias {
            want.iter_mut().zip(c).for_each(|(w, c)| *w += c);
        }
        assert!(
            want.iter().zip(&y).all(|(p, q)| p.to_bits() == q.to_bits()),
            "{}x{} (bias {}) diverged from matvec",
            a.rows(),
            a.cols(),
            bias.is_some()
        );
    }

    #[test]
    fn matvec_batch_matches_matvec_bitwise() {
        // The epilogue's three cases, `y` pre-filled with NaN so that an
        // unwritten output fails: whole blocks only (the trunk's 32×160
        // and the benchmark's 480-row head), a partial block only, and
        // whole blocks followed by a partial one — then no rows at all.
        // Each without a bias and with one added in the epilogue. Every
        // fifth row has `-0.0` weights, so its sum is a zero (`+0.0`:
        // an accumulator that starts at `+0.0` cannot end on `-0.0`),
        // and the bias holds both zeros: `+0.0 + -0.0` must stay the
        // addition's `+0.0`, not become the bias.
        let whole = [(32, 160), (64, 3), (480, 32)];
        let partial = [(5, 7), (13, 11), (31, 3)];
        let both = [(33, 5), (487, 32)];
        for (rows, cols) in whole.into_iter().chain(partial).chain(both).chain([(0, 4)]) {
            let a = Matrix::from_fn(rows, cols, |r, c| match r % 5 {
                0 => -0.0,
                _ => ((r * 31 + c * 17) as f32).sin(),
            });
            let bias: Vec<f32> = (0..rows)
                .map(|r| match r % 3 {
                    0 => -0.0,
                    1 if r % 2 == 0 => 0.0,
                    _ => (r as f32 * 0.7).cos(),
                })
                .collect();
            for k in 0..4 {
                let x: Vec<f32> = (0..cols).map(|c| ((k * 13 + c) as f32).cos()).collect();
                assert_packed_matches_scalar(&a, &x, None);
                assert_packed_matches_scalar(&a, &x, Some(&bias));
            }
        }
        // No columns: every sum is the empty one, `+0.0`.
        let packed = Matrix::zeros(3, 0).pack();
        let mut y = [f32::NAN; 3];
        packed.matvec_into(&[], None, &mut y);
        assert_eq!(y.map(f32::to_bits), [0.0f32; 3].map(f32::to_bits));
        packed.matvec_into(&[], Some(&[-0.0, 0.0, 1.5]), &mut y);
        assert_eq!(y.map(f32::to_bits), [0.0f32, 0.0, 1.5].map(f32::to_bits));
    }

    #[test]
    fn block_into_matches_matvec_into_bitwise() {
        // One block at a time into an output pre-filled with NaN: the
        // block's rows must be the scalar product's bits (`matvec`, then
        // the bias) and every other row must stay NaN, so that a block that writes too few rows, too
        // many or the wrong ones fails. 13 × 11 is one partial block;
        // 487 × 32 is fifteen whole blocks and a partial one. Weights
        // and bias as in `matvec_batch_matches_matvec_bitwise`: rows of
        // `-0.0` weights, a bias of both zeros.
        for (rows, cols) in [(13, 11), (487, 32)] {
            let a = Matrix::from_fn(rows, cols, |r, c| match r % 5 {
                0 => -0.0,
                _ => ((r * 31 + c * 17) as f32).sin(),
            });
            let bias: Vec<f32> = (0..rows)
                .map(|r| match r % 3 {
                    0 => -0.0,
                    1 if r % 2 == 0 => 0.0,
                    _ => (r as f32 * 0.7).cos(),
                })
                .collect();
            let packed = a.pack();
            let blocks = rows.div_ceil(PACK_ROWS);
            let bits = |y: &[f32]| y.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            for k in 0..3 {
                let x: Vec<f32> = (0..cols).map(|c| ((k * 13 + c) as f32).cos()).collect();
                for bias in [None, Some(&bias[..])] {
                    // The definition, as `assert_packed_matches_scalar`
                    // states it: `matvec`, then `+= c`.
                    let mut want = a.matvec(&x);
                    if let Some(c) = bias {
                        want.iter_mut().zip(c).for_each(|(w, c)| *w += c);
                    }
                    let block = |b: usize| b * PACK_ROWS..rows.min((b + 1) * PACK_ROWS);
                    for b in 0..blocks {
                        let mut y = vec![f32::NAN; rows];
                        let c = bias.map(|c| &c[block(b)]);
                        packed.block_into(b, &x, c, &mut y[block(b)]);
                        for (r, (got, want)) in y.iter().zip(&want).enumerate() {
                            if r / PACK_ROWS == b {
                                assert_eq!(got.to_bits(), want.to_bits(), "{rows}x{cols} row {r}");
                            } else {
                                assert!(got.is_nan(), "{rows}x{cols} block {b} wrote row {r}");
                            }
                        }
                    }
                    // Every block, last first, is the whole product.
                    let mut y = vec![f32::NAN; rows];
                    for b in (0..blocks).rev() {
                        packed.block_into(b, &x, bias.map(|c| &c[block(b)]), &mut y[block(b)]);
                    }
                    assert_eq!(bits(&y), bits(&want), "{rows}x{cols}");
                }
            }
        }
    }

    #[test]
    fn matvec_t_matches_manual() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let y = a.matvec_t(&[1.0, 2.0]);
        assert_eq!(y, vec![6.0, 9.0, 12.0]);
    }

    #[test]
    fn add_outer_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        a.add_outer(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(a.row(0), &[3.0, 4.0]);
        assert_eq!(a.row(1), &[6.0, 8.0]);
        a.add_outer(&[1.0, 0.0], &[1.0, 1.0]);
        assert_eq!(a.row(0), &[4.0, 5.0]);
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_handles_large_logits() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let logits = [0.5f32, -1.0, 2.0, 0.0];
        let p = softmax(&logits);
        let lp = log_softmax(&logits);
        for (a, b) in p.iter().zip(&lp) {
            assert!((a.ln() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn entropy_of_uniform_is_log_n() {
        let p = vec![0.25f32; 4];
        assert!((entropy(&p) - (4.0f32).ln()).abs() < 1e-6);
        assert_eq!(entropy(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn exp_flushes_to_zero_at_the_cut_off() {
        // The premise `tempered_support_into` skips entries on: at the
        // cut-off and everywhere below it, this platform's `exp` is
        // `+0.0` bitwise — ulp by ulp for a stretch, then in strides
        // down to `-inf`.
        use std::hint::black_box;
        let zero_at = |x: f32| black_box(x).exp().to_bits() == 0;
        assert!(zero_at(EXP_FLUSH));
        let mut x = EXP_FLUSH;
        for _ in 0..200_000 {
            x = x.next_down();
            assert!(zero_at(x), "exp({x})");
        }
        while x.is_finite() {
            x *= 1.01;
            assert!(zero_at(x), "exp({x})");
        }
        // And the cut-off is not idly far out: the band just above it
        // still holds denormals.
        assert!(black_box(-103.0f32).exp() > 0.0);
    }

    #[test]
    fn a_row_without_a_finite_normaliser_has_no_support() {
        // `-inf` is a logit like any other: an exact zero.
        let (mut dense, mut support) = (Vec::new(), Vec::new());
        let row = [0.5, f32::NEG_INFINITY, 0.25];
        let want = tempered_softmax_into(&row, 0.8, &mut dense);
        assert_eq!(tempered_support_into(&row, 0.8, &mut support), want);
        let tokens: Vec<TokenId> = support.iter().map(|&(i, _)| i).collect();
        assert_eq!(tokens, [0, 2]);
        // What the dense row would turn into NaNs is refused, in
        // `top_k_into`'s words.
        // And a NaN in a whole chunk that is otherwise below the cut:
        // the skip test must not skip it.
        let mut cold = [-1e4f32; 48];
        cold[0] = 0.0;
        cold[21] = f32::NAN;
        let bad: [(&[f32], f32); 6] = [
            (&[0.0, f32::NAN, 1.0], 0.8),
            (&[f32::NAN, 0.0, 1.0], 0.01),
            (&[0.0, f32::INFINITY], 0.8),
            (&[1e37, 0.0], 0.005),
            (&[f32::NEG_INFINITY; 3], 0.8),
            (&cold, 0.8),
        ];
        for (row, t) in bad {
            let err = std::panic::catch_unwind(|| tempered_support_into(row, t, &mut Vec::new()))
                .expect_err("no finite normaliser");
            let msg = err.downcast_ref::<&'static str>().copied().unwrap_or("");
            assert!(msg.contains("finite logits"), "{row:?}: {msg}");
        }
    }

    #[test]
    fn silu_prime_matches_finite_difference() {
        for &x in &[-3.0f32, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0] {
            let eps = 1e-3;
            let fd = (silu(x + eps) - silu(x - eps)) / (2.0 * eps);
            let an = silu_prime(x);
            assert!((fd - an).abs() < 1e-2, "x={x}: fd={fd} an={an}");
        }
    }
}
