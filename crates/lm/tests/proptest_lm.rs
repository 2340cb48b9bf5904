//! Property tests for the LM substrate: softmax/log-softmax identities,
//! sampler distribution sanity, and MLP serialization fidelity.

use proptest::prelude::*;
use verispec_lm::matrix::{entropy, log_softmax, softmax};
use verispec_lm::{top_k_indices, top_k_into, MlpLm, MlpLmConfig, Ranking, Sampler, Sampling};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn softmax_is_a_distribution(logits in prop::collection::vec(-30.0f32..30.0, 1..64)) {
        let p = softmax(&logits);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn log_softmax_matches_softmax(logits in prop::collection::vec(-20.0f32..20.0, 2..32)) {
        let p = softmax(&logits);
        let lp = log_softmax(&logits);
        for (a, b) in p.iter().zip(&lp) {
            if *a > 1e-6 {
                prop_assert!((a.ln() - b).abs() < 1e-3, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn softmax_invariant_under_shift(
        logits in prop::collection::vec(-10.0f32..10.0, 2..16),
        shift in -50.0f32..50.0,
    ) {
        let p1 = softmax(&logits);
        let shifted: Vec<f32> = logits.iter().map(|l| l + shift).collect();
        let p2 = softmax(&shifted);
        for (a, b) in p1.iter().zip(&p2) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn entropy_bounds(logits in prop::collection::vec(-10.0f32..10.0, 2..64)) {
        let p = softmax(&logits);
        let h = entropy(&p);
        prop_assert!(h >= -1e-6);
        prop_assert!(h <= (p.len() as f32).ln() + 1e-4);
    }

    #[test]
    fn sampler_respects_top1(
        seed in any::<u64>(),
        mut logits in prop::collection::vec(-5.0f32..5.0, 2..24),
        winner in 0usize..24,
    ) {
        // temperature -> 0 behaves like argmax, given a clear winner
        // (exact ties are legitimately sampler-dependent).
        let w = winner % logits.len();
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        logits[w] = max + 3.0;
        let mut s = Sampler::new(seed);
        let t = s.sample(&logits, Sampling::Temperature { temperature: 0.01, top_k: 0 });
        prop_assert_eq!(t as usize, w);
    }

    #[test]
    fn top_k_is_the_head_of_a_full_sort_under_the_total_order(
        // Few distinct values over many slots: ties everywhere,
        // including across the k-th boundary — on short rows and on
        // rows as wide as the benchmark model's vocabulary.
        logits in prop_oneof![
            prop::collection::vec((-3i32..4).prop_map(|v| v as f32 * 0.5), 1..48),
            prop::collection::vec((-3i32..4).prop_map(|v| v as f32 * 0.5), 480),
            prop::collection::vec((-40i32..41).prop_map(|v| v as f32 * 0.25), 480),
        ],
    ) {
        let n = logits.len();
        let mut oracle: Vec<u32> = (0..n as u32).collect();
        oracle.sort_by(|&a, &b| {
            logits[b as usize]
                .partial_cmp(&logits[a as usize])
                .expect("finite")
                .then(a.cmp(&b))
        });
        for k in [0, 1, 2, 10, 13, 32, 40, n, n + 3] {
            prop_assert_eq!(&top_k_indices(&logits, k)[..], &oracle[..k.min(n)], "k = {}", k);
        }
        // What a `Ranking` rests on, stated directly: a shallower
        // ranking is the head of every deeper one, ties included.
        // (Every `a` against the deepest `b` is every `a <= b`: both
        // are then heads of the same list.)
        let (mut shallow, mut deep) = (Vec::new(), Vec::new());
        top_k_into(&logits, 41, &mut deep);
        for a in 0..=41usize {
            top_k_into(&logits, a, &mut shallow);
            prop_assert_eq!(&shallow[..], &deep[..a.min(n)], "a = {}", a);
        }
        // And a ranking read in any order is that one list.
        let mut ranking = Ranking::new(&logits, 2);
        for i in [0usize, 1, 2, 3, 9, 4, 40, 17, n - 1, n, n + 7] {
            prop_assert_eq!(ranking.get(i), oracle.get(i).copied(), "rank {}", i);
            prop_assert_eq!(ranking.head(i), &oracle[..i.min(n)], "head {}", i);
        }
    }

    #[test]
    fn top_k_chunk_skips_equal_the_full_sort(
        seed in any::<u64>(),
        kind in 0usize..9,
        short in 1usize..41,
        wide in any::<bool>(),
    ) {
        // `top_k_into` skips a whole chunk on one compare per entry
        // (all `l <= bar`) and walks only the chunks that can rank; the
        // result must be the head of the full sort for every `k` from 0
        // to 4, on rows built where a skip could drop or reorder an
        // entry: one-hot rows, ties at the ends and astride a chunk,
        // signed zeros, rows of `-∞`.
        let width = if wide { 480 } else { short };
        let logits = shaped_row(kind, width, seed);
        let oracle = full_sort(&logits);
        let mut buf = vec![7; 3];
        for k in 0..=4usize {
            top_k_into(&logits, k, &mut buf);
            prop_assert_eq!(&buf[..], &oracle[..k.min(width)], "kind {} width {} k {}", kind, width, k);
        }
        // A ranking's first read is three deep; a read at rank 3 re-ranks
        // six deep and must extend it, not reorder it.
        let mut ranking = Ranking::new(&logits, 2);
        let first = ranking.head(3).to_vec();
        prop_assert_eq!(ranking.get(3), oracle.get(3).copied());
        prop_assert_eq!(ranking.depth(), 6.min(width));
        prop_assert_eq!(&ranking.head(6)[..first.len()], &first[..]);
        prop_assert_eq!(ranking.head(6), &oracle[..6.min(width)]);
        // A NaN at the start, mid-row or last has no rank, whether its
        // chunk is the first (walked while the ranking fills) or one the
        // skip test must not skip.
        for at in [0, width / 2, width - 1] {
            let mut bad = logits.clone();
            bad[at] = f32::NAN;
            for k in 1..=4usize {
                let err = std::panic::catch_unwind(|| top_k_into(&bad, k, &mut Vec::new()))
                    .expect_err("NaN has no rank");
                let msg = err.downcast_ref::<&'static str>().copied().unwrap_or("");
                prop_assert!(msg.contains("finite logits"), "NaN at {}, k {}: {}", at, k, msg);
            }
        }
    }

    #[test]
    fn sampler_top_k_keeps_exactly_the_selected_support(
        seed in any::<u64>(),
        logits in prop::collection::vec((-3i32..4).prop_map(|v| v as f32 * 0.5), 2..24),
        k in 1usize..6,
    ) {
        // Tied logits straddling the cut: the sampler truncates to the
        // same k indices `top_k_indices` names, never to a different
        // member of the tie.
        let kept = top_k_indices(&logits, k);
        let mut s = Sampler::new(seed);
        for _ in 0..16 {
            let t = s.sample(&logits, Sampling::Temperature { temperature: 1.5, top_k: k });
            prop_assert!(kept.contains(&t), "{} outside {:?}", t, kept);
        }
    }

    #[test]
    fn mlp_serde_round_trip(seed in any::<u64>()) {
        let cfg = MlpLmConfig { vocab: 10, d_emb: 4, d_hidden: 6, context: 3, n_heads: 2, seed };
        let model = MlpLm::new(cfg);
        let json = serde_json::to_string(&model).expect("serialize");
        let back: MlpLm = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(model.logits(&[1, 2, 3]), back.logits(&[1, 2, 3]));
        prop_assert_eq!(model.multi_logits(&[4]), back.multi_logits(&[4]));
    }
}

/// `0..width` sorted under the total order *logit descending, index
/// ascending* (`+0.0` and `-0.0` equal, `-∞` a value like any other).
fn full_sort(logits: &[f32]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..logits.len() as u32).collect();
    order.sort_by(|&a, &b| {
        logits[b as usize]
            .partial_cmp(&logits[a as usize])
            .expect("finite")
            .then(a.cmp(&b))
    });
    order
}

/// A row of `width` entries on a coarse grid (ties everywhere), shaped
/// by `kind` to put ties, zeros and `-∞` where skipping a chunk could
/// drop or reorder an entry.
fn shaped_row(kind: usize, width: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    let mut below = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let mut row: Vec<f32> = (0..width).map(|_| below(9) as f32 * 0.5 - 3.0).collect();
    let last = width - 1;
    let top = 2.0;
    match kind {
        // One-hot: one 1.0 among zeros.
        1 => {
            row.fill(0.0);
            row[below(width)] = 1.0;
        }
        // The best tied at the first and the last index.
        2 => {
            row[0] = top;
            row[last] = top;
        }
        // Ties astride a sixteen-entry chunk boundary, best and runner-up.
        3 => {
            for (i, v) in [(15, top), (16, top), (31, top - 1.0), (32, top - 1.0)] {
                row[i.min(last)] = v;
            }
        }
        // `+0.0` tied with `-0.0` for the best, either order, among
        // more of both.
        4 => {
            for v in &mut row {
                *v = -v.abs() - 0.5;
            }
            for _ in 0..3 {
                row[below(width)] = if below(2) == 0 { 0.0 } else { -0.0 };
            }
        }
        // All `-∞`, and one finite entry among `-∞`.
        5 => row.fill(f32::NEG_INFINITY),
        6 => {
            row.fill(f32::NEG_INFINITY);
            row[below(width)] = -1e30;
        }
        // `-∞` sprinkled over the grid.
        7 => {
            for _ in 0..1 + width / 4 {
                row[below(width)] = f32::NEG_INFINITY;
            }
        }
        // Every entry equal.
        8 => row.fill([0.0, -0.0, 1.5][below(3)]),
        _ => {}
    }
    row
}

/// Empirical sampling frequencies track softmax probabilities.
#[test]
fn sampler_frequencies_match_distribution() {
    let logits = vec![0.0f32, 1.0, 2.0];
    let probs = softmax(&logits);
    let mut s = Sampler::new(42);
    let n = 30_000;
    let mut counts = [0usize; 3];
    for _ in 0..n {
        counts[s.sample(&logits, Sampling::temperature(1.0)) as usize] += 1;
    }
    for (c, p) in counts.iter().zip(&probs) {
        let freq = *c as f32 / n as f32;
        assert!((freq - p).abs() < 0.02, "freq {freq} vs p {p}");
    }
}
