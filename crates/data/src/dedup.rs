//! MinHash/Jaccard near-duplicate removal (paper §III-A: "duplicates are
//! removed using MinHash and Jaccard similarity metrics").
//!
//! Documents are shingled into token 3-grams; each document keeps the
//! minimum hash of its shingle set under `k` independent hash functions.
//! The MinHash signature similarity estimates the Jaccard similarity of
//! the shingle sets; pairs above the threshold are deduplicated keeping
//! the first occurrence.
//!
//! Hash function `k` of a shingle hash `h` is `mix(h ^ mix(k))`; the 64
//! seeds `mix(k)` are a table computed at compile time, so a shingle
//! costs one `mix` per signature slot.
//!
//! [`dedup_indices`] computes slots on demand. Each document keeps its
//! shingle hashes and the prefix of its signature that some comparison
//! has read; a comparison reads slot `k` of both documents only when the
//! slots before it left the answer open. After `k` slots with `same`
//! matches, the full signature's match count lies in
//! `same ..= same + 64 − k`, and `same / 64 >= threshold` is monotone in
//! `same`, so the comparison stops, exactly, once `same` already reaches
//! the threshold (a duplicate) or `same + 64 − k` no longer does (not
//! one) — at 0.95 after the fourth mismatch. The test is the one
//! [`MinHash::similarity`] feeds, in the same `f64` arithmetic, so any
//! threshold, NaN included, keeps the documents that full signatures
//! keep; [`MinHash::of`] is that definition and the tests' oracle. Most
//! pairs are unrelated and differ in their first slots, so the
//! benchmark's 192-document corpus reads 4,566 of its 12,288 slots.

use std::collections::HashSet;

/// Number of hash permutations in a signature.
const SIGNATURE_SIZE: usize = 64;

/// Shingle width in tokens.
const SHINGLE: usize = 3;

/// A MinHash signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinHash {
    sig: [u64; SIGNATURE_SIZE],
}

/// 64-bit mix (splitmix64 finalizer).
const fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The `k`-th hash function's seed, `mix(k)`, computed at compile time.
const SEEDS: [u64; SIGNATURE_SIZE] = {
    let mut seeds = [0; SIGNATURE_SIZE];
    let mut k = 0;
    while k < SIGNATURE_SIZE {
        seeds[k] = mix(k as u64);
        k += 1;
    }
    seeds
};

/// Cheap whitespace/punctuation tokenization for shingling.
fn shingle_tokens(text: &str) -> Vec<&str> {
    text.split(|c: char| c.is_whitespace() || matches!(c, '(' | ')' | ';' | ','))
        .filter(|s| !s.is_empty())
        .collect()
}

/// The FNV-1a hash of every shingle of `text`, in order: one shingle of
/// all its tokens when it has fewer than [`SHINGLE`], none when it has
/// none.
fn shingle_hashes(text: &str) -> Vec<u64> {
    let tokens = shingle_tokens(text);
    if tokens.is_empty() {
        return Vec::new();
    }
    let n = tokens.len().saturating_sub(SHINGLE - 1).max(1);
    (0..n)
        .map(|i| {
            let end = (i + SHINGLE).min(tokens.len());
            let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
            for t in &tokens[i..end] {
                for b in t.bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
                h ^= 0xff;
            }
            h
        })
        .collect()
}

/// Signature slot `k` of a document with shingle hashes `hashes`: the
/// least of their hashes under function `k`, `u64::MAX` for none.
fn slot(hashes: &[u64], k: usize) -> u64 {
    hashes
        .iter()
        .map(|&h| mix(h ^ SEEDS[k]))
        .min()
        .unwrap_or(u64::MAX)
}

impl MinHash {
    /// Computes the signature of a document.
    pub fn of(text: &str) -> Self {
        let hashes = shingle_hashes(text);
        Self {
            sig: std::array::from_fn(|k| slot(&hashes, k)),
        }
    }

    /// Estimated Jaccard similarity between two signatures.
    pub fn similarity(&self, other: &MinHash) -> f64 {
        let same = self
            .sig
            .iter()
            .zip(&other.sig)
            .filter(|(a, b)| a == b)
            .count();
        same as f64 / SIGNATURE_SIZE as f64
    }
}

/// Exact Jaccard similarity over token shingles (reference metric used
/// in tests to validate the MinHash estimate).
pub fn jaccard(a: &str, b: &str) -> f64 {
    let sh = |t: &str| -> HashSet<String> {
        let toks = shingle_tokens(t);
        if toks.len() < SHINGLE {
            return toks.iter().map(|s| s.to_string()).collect();
        }
        toks.windows(SHINGLE).map(|w| w.join("\u{1}")).collect()
    };
    let (sa, sb) = (sh(a), sh(b));
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    let union = sa.len() + sb.len() - inter;
    inter as f64 / union as f64
}

/// A document's shingle hashes and the prefix of its signature that
/// comparisons have read so far.
struct LazySignature {
    hashes: Vec<u64>,
    slots: Vec<u64>,
}

impl LazySignature {
    /// Signature slot `k`, computing it (and any slot before it) first.
    fn slot(&mut self, k: usize) -> u64 {
        while self.slots.len() <= k {
            self.slots.push(slot(&self.hashes, self.slots.len()));
        }
        self.slots[k]
    }
}

/// Whether `a.similarity(b) >= threshold` for the two documents' full
/// signatures, reading only the slots that decide it (see the module
/// doc).
fn similar(a: &mut LazySignature, b: &mut LazySignature, threshold: f64) -> bool {
    let reaches = |same: usize| same as f64 / SIGNATURE_SIZE as f64 >= threshold;
    let mut same = 0;
    for k in 0..SIGNATURE_SIZE {
        if reaches(same) {
            return true;
        }
        if !reaches(same + SIGNATURE_SIZE - k) {
            return false;
        }
        same += usize::from(a.slot(k) == b.slot(k));
    }
    reaches(same)
}

/// Removes near-duplicates from `docs`, keeping first occurrences.
/// Returns the indices of retained documents: those whose [`MinHash`]
/// similarity to no earlier retained document is `>= threshold`.
pub fn dedup_indices(docs: &[&str], threshold: f64) -> Vec<usize> {
    let mut sigs: Vec<LazySignature> = docs
        .iter()
        .map(|d| LazySignature {
            hashes: shingle_hashes(d),
            slots: Vec::new(),
        })
        .collect();
    let mut kept: Vec<usize> = Vec::new();
    'outer: for i in 0..sigs.len() {
        let (earlier, rest) = sigs.split_at_mut(i);
        for &j in &kept {
            if similar(&mut rest[0], &mut earlier[j], threshold) {
                continue 'outer;
            }
        }
        kept.push(i);
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    const MOD_A: &str = "module a(input x, output y); assign y = ~x; endmodule";
    const MOD_A2: &str = "module a(input x, output y);  assign y = ~x;  endmodule";
    const MOD_B: &str =
        "module counter(input clk, rst, output reg [7:0] q); always @(posedge clk) q <= q + 1; endmodule";

    #[test]
    fn identical_documents_have_similarity_one() {
        let s = MinHash::of(MOD_A);
        assert_eq!(s.similarity(&MinHash::of(MOD_A)), 1.0);
        // Whitespace-only differences do not change the shingles.
        assert_eq!(s.similarity(&MinHash::of(MOD_A2)), 1.0);
    }

    #[test]
    fn different_documents_have_low_similarity() {
        let a = MinHash::of(MOD_A);
        let b = MinHash::of(MOD_B);
        assert!(a.similarity(&b) < 0.3, "similarity {}", a.similarity(&b));
    }

    #[test]
    fn minhash_tracks_exact_jaccard() {
        let variants = [
            MOD_A.to_string(),
            MOD_A.replace('y', "z"),
            MOD_A.replace("~x", "x & 1'b1"),
            MOD_B.to_string(),
        ];
        for a in &variants {
            for b in &variants {
                let est = MinHash::of(a).similarity(&MinHash::of(b));
                let exact = jaccard(a, b);
                assert!(
                    (est - exact).abs() < 0.25,
                    "estimate {est} too far from exact {exact}\n  a: {a}\n  b: {b}"
                );
            }
        }
    }

    #[test]
    fn dedup_keeps_first_of_near_duplicates() {
        let docs = vec![MOD_A, MOD_A2, MOD_B, MOD_A];
        let kept = dedup_indices(&docs, 0.9);
        assert_eq!(kept, vec![0, 2]);
    }

    #[test]
    fn dedup_with_low_threshold_keeps_only_one_similar() {
        let near = MOD_A.replace('y', "w");
        let docs = vec![MOD_A, near.as_str(), MOD_B];
        let kept = dedup_indices(&docs, 0.5);
        assert!(kept.contains(&0));
        assert!(kept.contains(&2));
    }

    #[test]
    fn empty_documents() {
        assert_eq!(jaccard("", ""), 1.0);
        let kept = dedup_indices(&["", ""], 0.9);
        assert_eq!(kept, vec![0]);
    }

    /// `dedup_indices` by its definition, given every document's full
    /// signature: `similarity() >= threshold` against each earlier
    /// retained document.
    fn eager_dedup_indices(sigs: &[MinHash], threshold: f64) -> Vec<usize> {
        let mut kept: Vec<usize> = Vec::new();
        for (i, sig) in sigs.iter().enumerate() {
            if !kept.iter().any(|&j| sig.similarity(&sigs[j]) >= threshold) {
                kept.push(i);
            }
        }
        kept
    }

    /// Families of near-duplicates in random order: each family is a
    /// random token string (empty, or shorter than a shingle, at times)
    /// and copies of it with up to three token edits, joined by
    /// separators that shingling ignores.
    fn near_duplicate_families(rng: &mut SmallRng) -> Vec<String> {
        const WORDS: [&str; 10] = [
            "module", "m", "input", "wire", "assign", "y", "=", "a", "&", "b",
        ];
        const SEPARATORS: [&str; 5] = [" ", "  ", "\n", ", ", ";"];
        let mut docs = Vec::new();
        for _ in 0..rng.gen_range(1..6usize) {
            let len = match rng.gen_range(0..4usize) {
                0 => rng.gen_range(0..SHINGLE),
                _ => rng.gen_range(SHINGLE..48),
            };
            let base: Vec<&str> = (0..len)
                .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
                .collect();
            for _ in 0..rng.gen_range(1..6usize) {
                let mut copy = base.clone();
                for _ in 0..rng.gen_range(0..4usize) {
                    let word = WORDS[rng.gen_range(0..WORDS.len())];
                    let at = rng.gen_range(0..copy.len() + 1);
                    match rng.gen_range(0..3usize) {
                        0 if at < copy.len() => copy[at] = word,
                        1 if at < copy.len() => {
                            copy.remove(at);
                        }
                        _ => copy.insert(at, word),
                    }
                }
                let sep = SEPARATORS[rng.gen_range(0..SEPARATORS.len())];
                docs.push(copy.join(sep));
            }
        }
        docs.shuffle(rng);
        docs
    }

    /// Lazy slots with early stops keep exactly what full signatures
    /// keep: generated near-duplicate families with empty and
    /// sub-shingle documents, at the edge thresholds (0, the corpus's
    /// 0.95, 1, past 1, NaN), at every `k / 64` the match count can hit
    /// exactly, and one ulp either side of the corpus's.
    #[test]
    fn lazy_dedup_keeps_what_full_signatures_keep() {
        let mut thresholds = vec![0.0, 0.95, 1.0, 1.5, f64::NAN, -0.5];
        thresholds.extend((0..=64).map(|k| f64::from(k) / 64.0));
        thresholds.extend([0.95f64.next_down(), 0.95f64.next_up()]);
        let mut rng = SmallRng::seed_from_u64(0xDED0);
        for case in 0..256 {
            let docs = near_duplicate_families(&mut rng);
            let docs: Vec<&str> = docs.iter().map(String::as_str).collect();
            let sigs: Vec<MinHash> = docs.iter().map(|d| MinHash::of(d)).collect();
            for &threshold in &thresholds {
                assert_eq!(
                    dedup_indices(&docs, threshold),
                    eager_dedup_indices(&sigs, threshold),
                    "case {case}, threshold {threshold}: {docs:?}"
                );
            }
        }
    }
}
