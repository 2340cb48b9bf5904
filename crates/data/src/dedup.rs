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

impl MinHash {
    /// Computes the signature of a document.
    pub fn of(text: &str) -> Self {
        let tokens = shingle_tokens(text);
        let mut sig = [u64::MAX; SIGNATURE_SIZE];
        if tokens.is_empty() {
            return Self { sig };
        }
        let n = tokens.len().saturating_sub(SHINGLE - 1).max(1);
        for i in 0..n {
            let end = (i + SHINGLE).min(tokens.len());
            let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
            for t in &tokens[i..end] {
                for b in t.bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
                h ^= 0xff;
            }
            for (s, seed) in sig.iter_mut().zip(SEEDS) {
                let hk = mix(h ^ seed);
                if hk < *s {
                    *s = hk;
                }
            }
        }
        Self { sig }
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

/// Removes near-duplicates from `docs`, keeping first occurrences.
/// Returns the indices of retained documents.
pub fn dedup_indices(docs: &[&str], threshold: f64) -> Vec<usize> {
    let sigs: Vec<MinHash> = docs.iter().map(|d| MinHash::of(d)).collect();
    let mut kept: Vec<usize> = Vec::new();
    'outer: for (i, sig) in sigs.iter().enumerate() {
        for &j in &kept {
            if sig.similarity(&sigs[j]) >= threshold {
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
}
