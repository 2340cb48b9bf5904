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
