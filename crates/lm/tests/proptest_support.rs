//! The support of a tempered softmax **is** the dense row.
//!
//! [`tempered_support_into`] keeps only the entries of
//! [`tempered_softmax_into`]'s row whose `exp` is non-zero and skips
//! the rest on a compare. Everything a decode step reads off the
//! support — the normalisers, each probability, the entropy behind
//! Eq. 1's threshold, the next base token — must be the bit the dense
//! row gives, on rows built to sit where the two could part: exact
//! ties, one-ulp near-ties, flat rows, exponents in `f32::exp`'s
//! denormal band and astride its flush-to-zero point, one live entry,
//! every entry live.

use proptest::prelude::*;
use verispec_lm::matrix::{entropy, support_entropy, tempered_softmax_into, tempered_support_into};
use verispec_lm::{Sampler, Sampling, TokenId};

/// From colder than anything the benchmark samples at to hot.
const TEMPERATURES: [f32; 6] = [0.005, 0.01, 0.05, 0.2, 0.8, 2.5];

/// The vocabulary the benchmark's models have.
const VOCAB: usize = 480;

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

    /// Uniform in `lo..hi`.
    fn between(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * (self.next() as f32 / (1u64 << 31) as f32)
    }
}

/// One logits row of `kind` at `width`. The kinds that aim at an
/// exponent `(l / t − max)` place `l` at `top + exponent · t`.
fn row(kind: usize, width: usize, t: f32, rng: &mut Lcg) -> Vec<f32> {
    let top = rng.between(-6.0, 9.0);
    let at_exponent = |x: f32| top + x * t;
    let mut row: Vec<f32> = (0..width)
        .map(|_| match kind {
            // Peaked, like a trained model's.
            0 => rng.between(-8.0, 8.0),
            // Exact ties, on a coarse and on a fine grid.
            1 => rng.below(5) as f32 * 0.5,
            2 => rng.below(3) as f32 * 1e-4,
            // Flat: every entry live at every temperature, signed zeros
            // included.
            3 => [0.0, -0.0][rng.below(2)],
            4 => 1.25,
            // `exp`'s denormal band, and a little to either side of it.
            5 => at_exponent(rng.between(-104.5, -86.5)),
            // Astride the flush-to-zero point and the cut.
            6 => at_exponent(rng.between(-104.2, -103.8)),
            // One live entry.
            7 => at_exponent(rng.between(-1000.0, -200.0)),
            // Every entry live.
            _ => at_exponent(rng.between(-80.0, 0.0)),
        })
        .collect();
    if kind >= 5 {
        row[rng.below(width)] = top;
    }
    if kind == 0 && rng.below(2) == 0 {
        // Near-ties one ulp either side of the best.
        let best = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for near in [best.next_up(), best.next_down()] {
            let at = rng.below(width);
            row[at] = near;
        }
    }
    row
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn support_is_the_dense_row(
        seed in any::<u64>(),
        kind in 0usize..9,
        short in 1usize..40,
        wide in any::<bool>(),
    ) {
        let mut rng = Lcg(seed);
        let width = if wide { VOCAB } else { short };
        let (mut dense, mut support) = (Vec::new(), Vec::<(TokenId, f32)>::new());
        for t in TEMPERATURES {
            let logits = row(kind, width, t, &mut rng);
            dense.clear();
            support.clear();
            let (max, sum) = tempered_softmax_into(&logits, t, &mut dense);
            let (s_max, s_sum) = tempered_support_into(&logits, t, &mut support);
            prop_assert_eq!(s_max.to_bits(), max.to_bits(), "max: kind {} T {}", kind, t);
            prop_assert_eq!(s_sum.to_bits(), sum.to_bits(), "sum: kind {} T {}", kind, t);

            // The support, densified, is the row: every entry it holds
            // is non-zero, in index order, and divides to the row's bit;
            // every entry it leaves out is `+0.0` there.
            prop_assert!(support.windows(2).all(|w| w[0].0 < w[1].0));
            prop_assert!(support.iter().all(|&(_, e)| e != 0.0));
            let mut densified = vec![0.0f32; width];
            for &(i, e) in &support {
                densified[i as usize] = e / sum;
            }
            prop_assert_eq!(bits(&densified), bits(&dense), "row: kind {} T {}", kind, t);

            prop_assert_eq!(
                support_entropy(&support, sum).to_bits(),
                entropy(&dense).to_bits(),
                "entropy: kind {} T {}", kind, t
            );

            // The draw: the token `sample` returns, and the sampler left
            // where `sample` leaves it.
            for top_k in [0usize, 2, 5] {
                let strategy = Sampling::Temperature { temperature: t, top_k };
                let draw_seed = rng.next() as u64;
                let (mut whole, mut halves) = (Sampler::new(draw_seed), Sampler::new(draw_seed));
                for _ in 0..3 {
                    prop_assert_eq!(
                        halves.draw_support(&support, sum, width, top_k),
                        whole.sample(&logits, strategy),
                        "draw: kind {} T {} k {}", kind, t, top_k
                    );
                }
                prop_assert_eq!(halves.gen_range(1 << 30), whole.gen_range(1 << 30));
            }
        }
    }
}
