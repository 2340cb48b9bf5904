//! The lane-parallel row scans **are** the serial loops they replaced.
//!
//! [`argmax`] finds a row's maximum in sixteen independent lanes and
//! then the first index that equals it; [`tempered_support_into`] takes
//! its maximum from the same lanes. Both must give what the serial scans
//! gave — the `>` walk that keeps the first best index, and the
//! `f32::max` fold — index for index and bit for bit, on rows built to
//! sit where lanes and a serial walk could part: widths astride the
//! sixteen-entry chunks, exact ties at the first and last index and
//! across a chunk boundary, a maximum tied between `+0.0` and `-0.0`,
//! NaN at the start, in the middle and everywhere, `±∞`, and rows of one
//! repeated value.
//!
//! A top-1 chain is the width-1 candidate tree, so the rank-1 entry of
//! [`top_k_indices`] must be [`argmax`] on every row a ranking accepts
//! (non-empty, NaN-free) — ties, signed zeros and `±∞` included.
//!
//! The third scan of the decode path, the greedy clear-lead test, lives
//! in `verispec-core` and is pinned to its `.all()` loop there
//! (`step::tests::the_lead_count_is_the_all_loop`).

use proptest::prelude::*;
use verispec_lm::matrix::{tempered_softmax_into, tempered_support_into};
use verispec_lm::{argmax, top_k_indices};

/// The vocabulary the benchmark's models have.
const VOCAB: usize = 480;

/// The scan `argmax` was: keep the first entry, move to any later one
/// that is `>` the kept one.
fn argmax_loop(logits: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, &l) in logits.iter().enumerate() {
        if l > logits[best] {
            best = i;
        }
    }
    best
}

/// The maximum `tempered_support_into` took: a serial `f32::max` fold.
fn max_fold(row: &[f32]) -> f32 {
    row.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }

    fn below(&mut self, n: usize) -> usize {
        self.next() as usize % n
    }
}

/// One row of `width` entries, shaped by `kind`. The base is a coarse
/// grid in `[-3, 1]`, so ties are everywhere.
fn row(kind: usize, width: usize, rng: &mut Lcg) -> Vec<f32> {
    let mut row: Vec<f32> = (0..width)
        .map(|_| (rng.below(9) as f32 - 6.0) * 0.5)
        .collect();
    if width == 0 {
        return row;
    }
    let last = width - 1;
    let top = max_fold(&row) + 1.0;
    let at = |i: usize| i.min(last);
    match kind {
        // Exact ties for the maximum at the first and the last index.
        1 => {
            row[0] = top;
            row[last] = top;
        }
        // Exact ties astride a chunk boundary, and a later one too.
        2 => {
            row[at(15)] = top;
            row[at(16)] = top;
            row[at(31)] = top;
            row[at(32)] = top;
        }
        // A maximum tied between `+0.0` and `-0.0`, either order.
        3 => {
            let (a, b) = (rng.below(width), rng.below(width));
            for v in &mut row {
                *v = -v.abs() - 0.5;
            }
            let (first, second) = if rng.below(2) == 0 {
                (0.0, -0.0)
            } else {
                (-0.0, 0.0)
            };
            row[a] = first;
            row[b] = second;
        }
        // NaN at index 0, mid-row, everywhere.
        4 => row[0] = f32::NAN,
        5 => {
            let mid = rng.below(width);
            row[mid] = f32::NAN;
            row[width / 2] = f32::NAN;
        }
        6 => row.fill(f32::NAN),
        // `+∞` (twice, so it ties) and `-∞`.
        7 => {
            let (a, b) = (rng.below(width), rng.below(width));
            row[a] = f32::INFINITY;
            row[b] = f32::INFINITY;
            row[rng.below(width)] = f32::NEG_INFINITY;
        }
        8 => {
            row.fill(f32::NEG_INFINITY);
            if rng.below(2) == 0 {
                row[rng.below(width)] = -1e30;
            }
        }
        // Every entry equal.
        9 => row.fill([0.0, -0.0, 1.5, -2.0][rng.below(4)]),
        // Special values sprinkled over the grid.
        10 => {
            for _ in 0..1 + width / 8 {
                let v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0][rng.below(5)];
                row[rng.below(width)] = v;
            }
        }
        _ => {}
    }
    row
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn lane_scans_equal_their_scalar_definitions(
        seed in any::<u64>(),
        kind in 0usize..11,
        short in 0usize..41,
        wide in any::<bool>(),
    ) {
        let mut rng = Lcg(seed);
        let width = if wide { VOCAB } else { short };
        let logits = row(kind, width, &mut rng);

        prop_assert_eq!(
            argmax(&logits) as usize,
            argmax_loop(&logits),
            "kind {} width {}: {:?}", kind, width, logits
        );
        if !logits.is_empty() && !logits.iter().any(|l| l.is_nan()) {
            prop_assert_eq!(
                top_k_indices(&logits, 1),
                vec![argmax(&logits)],
                "width 1 is not the chain: kind {} width {}: {:?}", kind, width, logits
            );
        }

        // Where a support exists (no NaN, nothing at `+∞`, something
        // above `-∞`), its maximum is the fold's bit: at `T = 1` the
        // scaled maximum is the maximum itself, unless it is a zero —
        // then which zero the dense row holds decides, so `(max, sum)`
        // must be the dense row's at every temperature.
        let fold = max_fold(&logits);
        if fold.is_finite() && !logits.iter().any(|l| l.is_nan()) {
            let (mut support, mut dense) = (Vec::new(), Vec::new());
            if fold != 0.0 {
                let (max, _) = tempered_support_into(&logits, 1.0, &mut support);
                prop_assert_eq!(max.to_bits(), fold.to_bits(), "kind {} width {}", kind, width);
            }
            for t in [0.01f32, 0.8, 1.0, 2.5] {
                support.clear();
                dense.clear();
                let (max, sum) = tempered_softmax_into(&logits, t, &mut dense);
                let (s_max, s_sum) = tempered_support_into(&logits, t, &mut support);
                prop_assert_eq!(s_max.to_bits(), max.to_bits(), "max: kind {} T {}", kind, t);
                prop_assert_eq!(s_sum.to_bits(), sum.to_bits(), "sum: kind {} T {}", kind, t);
            }
        }
    }
}
