//! Byte-level BPE tokenizer with Verilog-aware special tokens.
//!
//! The paper trains models on BPE token sequences in which the corpus text
//! has been decorated with `[FRAG]` markers (§III-C). This crate provides
//! the trainable tokenizer those pipelines use:
//!
//! * a byte-level base vocabulary (every input round-trips exactly),
//! * greedy pair merges learned from a corpus ([`BpeTrainer`]),
//! * atomic special tokens: `[PAD]`, `[BOS]`, `[EOS]`, `[FRAG]`, and the
//!   label-only `[IGNORE]` sentinel used by syntax-enriched labels.
//!
//! # Examples
//!
//! ```
//! use verispec_tokenizer::{BpeTrainer, special};
//!
//! let corpus = ["module m; endmodule", "module top; endmodule"];
//! let tok = BpeTrainer::new(300).train(corpus.iter().copied());
//! let ids = tok.encode("module m;");
//! assert_eq!(tok.decode(&ids), "module m;");
//! let tagged = tok.encode("[FRAG]module[FRAG]");
//! assert_eq!(tagged[0], special::FRAG);
//! ```

#![deny(missing_docs)]

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Token identifier. The id space is: specials, then the 256 byte tokens,
/// then learned merges.
pub type TokenId = u32;

/// Fixed ids and spellings of the special tokens.
pub mod special {
    use super::TokenId;

    /// Padding token id (`[PAD]`), appended to align head labels.
    pub const PAD: TokenId = 0;
    /// Beginning-of-sequence token id (`[BOS]`).
    pub const BOS: TokenId = 1;
    /// End-of-sequence token id (`[EOS]`).
    pub const EOS: TokenId = 2;
    /// Fragment boundary token id (`[FRAG]`, paper §III-C).
    pub const FRAG: TokenId = 3;
    /// Loss-masking sentinel id (`[IGNORE]`); never generated, only used
    /// in training labels (paper Fig. 4 `IGNORE_TOKEN_ID`).
    pub const IGNORE: TokenId = 4;

    /// Number of special tokens preceding the byte vocabulary.
    pub const COUNT: usize = 5;

    /// Spellings, indexed by id.
    pub const TEXTS: [&str; COUNT] = ["[PAD]", "[BOS]", "[EOS]", "[FRAG]", "[IGNORE]"];
}

/// First id of the 256 byte-level tokens.
pub const BYTE_BASE: TokenId = special::COUNT as TokenId;
/// First id available for learned merges.
pub const MERGE_BASE: TokenId = BYTE_BASE + 256;

/// A trained byte-level BPE tokenizer.
///
/// Construct via [`BpeTrainer::train`] or [`BpeTokenizer::byte_level`]
/// (no merges). Serializable with serde for on-disk caching.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BpeTokenizer {
    /// Merge rules in application order: merging `pair.0, pair.1` yields
    /// id `MERGE_BASE + index`.
    merges: Vec<(TokenId, TokenId)>,
    /// Bytes of every token id (specials map to their spelling bytes).
    vocab_bytes: Vec<Vec<u8>>,
    /// Fast merge lookup.
    #[serde(skip)]
    merge_map: HashMap<(TokenId, TokenId), TokenId>,
}

impl PartialEq for BpeTokenizer {
    fn eq(&self, other: &Self) -> bool {
        self.merges == other.merges && self.vocab_bytes == other.vocab_bytes
    }
}

impl BpeTokenizer {
    /// A tokenizer with no learned merges: specials + raw bytes only.
    pub fn byte_level() -> Self {
        Self::from_merges(Vec::new())
    }

    /// Reconstructs a tokenizer from its merge list.
    pub fn from_merges(merges: Vec<(TokenId, TokenId)>) -> Self {
        let mut vocab_bytes: Vec<Vec<u8>> = special::TEXTS
            .iter()
            .map(|t| t.as_bytes().to_vec())
            .collect();
        for b in 0..=255u8 {
            vocab_bytes.push(vec![b]);
        }
        let mut merge_map = HashMap::with_capacity(merges.len());
        for (i, &(a, b)) in merges.iter().enumerate() {
            let id = MERGE_BASE + i as TokenId;
            let mut bytes = vocab_bytes[a as usize].clone();
            bytes.extend_from_slice(&vocab_bytes[b as usize]);
            vocab_bytes.push(bytes);
            merge_map.insert((a, b), id);
        }
        Self {
            merges,
            vocab_bytes,
            merge_map,
        }
    }

    /// Rebuilds the transient merge map after deserialization.
    pub fn rebuild_cache(&mut self) {
        self.merge_map = self
            .merges
            .iter()
            .enumerate()
            .map(|(i, &pair)| (pair, MERGE_BASE + i as TokenId))
            .collect();
    }

    /// Total vocabulary size (specials + bytes + merges).
    pub fn vocab_size(&self) -> usize {
        self.vocab_bytes.len()
    }

    /// Number of learned merges.
    pub fn merge_count(&self) -> usize {
        self.merges.len()
    }

    /// Whether `id` is one of the special tokens.
    pub fn is_special(&self, id: TokenId) -> bool {
        (id as usize) < special::COUNT
    }

    /// The UTF-8 (lossy) text of a single token, for debugging.
    pub fn token_text(&self, id: TokenId) -> String {
        String::from_utf8_lossy(&self.vocab_bytes[id as usize]).into_owned()
    }

    /// The exact bytes a token contributes to decoded text, or `None`
    /// for ids outside the vocabulary. Special tokens report their
    /// bracketed spelling (`[FRAG]`, …) — callers that care about the
    /// *plain-text* byte stream (e.g. incremental grammar viability)
    /// should treat [`Self::is_special`] ids as contributing nothing,
    /// mirroring [`Self::strip_specials`].
    pub fn token_bytes(&self, id: TokenId) -> Option<&[u8]> {
        self.vocab_bytes.get(id as usize).map(Vec::as_slice)
    }

    /// Encodes text into token ids. Occurrences of special-token spellings
    /// (e.g. `[FRAG]`) are mapped atomically to their ids.
    pub fn encode(&self, text: &str) -> Vec<TokenId> {
        let mut out = Vec::with_capacity(text.len() / 2);
        for piece in split_specials(text) {
            match piece {
                Piece::Special(id) => out.push(id),
                Piece::Text(t) => self.encode_plain(t, &mut out),
            }
        }
        out
    }

    /// Encodes text that contains no special-token spellings.
    fn encode_plain(&self, text: &str, out: &mut Vec<TokenId>) {
        for word in pre_tokenize(text) {
            let mut ids: Vec<TokenId> = word.bytes().map(|b| BYTE_BASE + b as TokenId).collect();
            // Greedy lowest-rank merge loop (standard BPE application).
            loop {
                let mut best: Option<(usize, TokenId)> = None;
                for i in 0..ids.len().saturating_sub(1) {
                    if let Some(&id) = self.merge_map.get(&(ids[i], ids[i + 1])) {
                        if best.is_none_or(|(_, b)| id < b) {
                            best = Some((i, id));
                        }
                    }
                }
                let Some((i, id)) = best else { break };
                ids[i] = id;
                ids.remove(i + 1);
            }
            out.extend_from_slice(&ids);
        }
    }

    /// Decodes token ids back to text. Special tokens render as their
    /// spelling; pass the ids through [`Self::strip_specials`] first to
    /// drop them instead.
    pub fn decode(&self, ids: &[TokenId]) -> String {
        let mut bytes = Vec::new();
        for &id in ids {
            if let Some(b) = self.vocab_bytes.get(id as usize) {
                bytes.extend_from_slice(b);
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Returns `ids` with all special tokens removed.
    pub fn strip_specials<'a>(&self, ids: impl IntoIterator<Item = &'a TokenId>) -> Vec<TokenId> {
        ids.into_iter()
            .copied()
            .filter(|&id| !self.is_special(id))
            .collect()
    }
}

/// A piece of input: plain text or a special token occurrence.
enum Piece<'a> {
    Text(&'a str),
    Special(TokenId),
}

/// Splits `text` around special-token spellings.
fn split_specials(text: &str) -> Vec<Piece<'_>> {
    let mut pieces = Vec::new();
    let mut rest = text;
    'outer: while !rest.is_empty() {
        // Find the earliest special occurrence.
        let mut earliest: Option<(usize, usize, TokenId)> = None; // (pos, len, id)
        for (id, spelling) in special::TEXTS.iter().enumerate() {
            if let Some(pos) = rest.find(spelling) {
                let better = match earliest {
                    None => true,
                    Some((p, l, _)) => pos < p || (pos == p && spelling.len() > l),
                };
                if better {
                    earliest = Some((pos, spelling.len(), id as TokenId));
                }
            }
        }
        match earliest {
            None => {
                pieces.push(Piece::Text(rest));
                break 'outer;
            }
            Some((pos, len, id)) => {
                if pos > 0 {
                    pieces.push(Piece::Text(&rest[..pos]));
                }
                pieces.push(Piece::Special(id));
                rest = &rest[pos + len..];
            }
        }
    }
    pieces
}

/// GPT-2-style pre-tokenization: words are a run of non-whitespace with an
/// optional single leading space; remaining whitespace forms *runs* that
/// are words of their own (so indentation like `"\n    "` can merge into
/// a single BPE token). Merges never cross word boundaries, which keeps
/// training tractable.
fn pre_tokenize(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut words = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let start = i;
        if bytes[i] == b' ' && i + 1 < bytes.len() && !bytes[i + 1].is_ascii_whitespace() {
            // Single space glued to the following word.
            i += 1;
            while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            words.push(&text[start..i]);
            continue;
        }
        if bytes[i].is_ascii_whitespace() {
            // Whitespace run; if it ends in a space directly before a
            // word, leave that space to glue onto the word.
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i < bytes.len() && bytes[i - 1] == b' ' && i - start >= 2 {
                i -= 1;
            }
            words.push(&text[start..i]);
            continue;
        }
        while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        words.push(&text[start..i]);
    }
    words
}

/// Trains a [`BpeTokenizer`] by greedy most-frequent pair merging.
///
/// # Examples
///
/// ```
/// use verispec_tokenizer::BpeTrainer;
/// let tok = BpeTrainer::new(280).train(["assign y = a & b;"].into_iter());
/// assert!(tok.vocab_size() <= 280);
/// ```
#[derive(Debug, Clone)]
pub struct BpeTrainer {
    target_vocab: usize,
    min_pair_count: usize,
}

impl BpeTrainer {
    /// A trainer that stops at `target_vocab` total vocabulary entries.
    pub fn new(target_vocab: usize) -> Self {
        Self {
            target_vocab: target_vocab.max(MERGE_BASE as usize),
            min_pair_count: 2,
        }
    }

    /// Sets the minimum pair frequency required to create a merge
    /// (default 2; rarer pairs stop training early).
    pub fn min_pair_count(mut self, n: usize) -> Self {
        self.min_pair_count = n.max(1);
        self
    }

    /// Learns merges from the corpus and returns the tokenizer.
    pub fn train<'a>(&self, corpus: impl Iterator<Item = &'a str>) -> BpeTokenizer {
        // Unique words with counts; BPE state per unique word.
        let mut word_counts: HashMap<&str, u64> = HashMap::new();
        for doc in corpus {
            for piece in split_specials(doc) {
                if let Piece::Text(t) = piece {
                    for w in pre_tokenize(t) {
                        *word_counts.entry(w).or_insert(0) += 1;
                    }
                }
            }
        }
        let mut words: Vec<(Vec<TokenId>, u64)> = word_counts
            .into_iter()
            .map(|(w, c)| (w.bytes().map(|b| BYTE_BASE + b as TokenId).collect(), c))
            .collect();
        // Deterministic order regardless of hash seed.
        words.sort_unstable();
        self.learn_merges(words)
    }

    /// The merge loop over the counted words. Not generic, so it is
    /// compiled here, once, and runs the same code whichever crate
    /// calls [`BpeTrainer::train`] with whichever iterator.
    fn learn_merges(&self, mut words: Vec<(Vec<TokenId>, u64)>) -> BpeTokenizer {
        let mut merges: Vec<(TokenId, TokenId)> = Vec::new();
        let n_merges = self.target_vocab - MERGE_BASE as usize;

        for _ in 0..n_merges {
            // Count all adjacent pairs.
            let mut pair_counts: HashMap<(TokenId, TokenId), u64> = HashMap::new();
            for (ids, c) in &words {
                for win in ids.windows(2) {
                    *pair_counts.entry((win[0], win[1])).or_insert(0) += c;
                }
            }
            // Most frequent pair; ties break toward the smaller pair for
            // determinism.
            let Some((&pair, &count)) = pair_counts
                .iter()
                .max_by(|(pa, ca), (pb, cb)| ca.cmp(cb).then_with(|| pb.cmp(pa)))
            else {
                break;
            };
            if (count as usize) < self.min_pair_count {
                break;
            }
            let new_id = MERGE_BASE + merges.len() as TokenId;
            merges.push(pair);
            // Apply the merge to every word.
            for (ids, _) in &mut words {
                let mut i = 0;
                while i + 1 < ids.len() {
                    if ids[i] == pair.0 && ids[i + 1] == pair.1 {
                        ids[i] = new_id;
                        ids.remove(i + 1);
                    } else {
                        i += 1;
                    }
                }
            }
        }
        BpeTokenizer::from_merges(merges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tok() -> BpeTokenizer {
        let corpus = [
            "module counter(input clk, input rst_n, output reg [3:0] q);",
            "always @(posedge clk or negedge rst_n) begin",
            "if (!rst_n) q <= 4'b0000; else q <= q + 1;",
            "end endmodule",
            "module adder(input [7:0] a, b, output [7:0] s); assign s = a + b; endmodule",
        ];
        BpeTrainer::new(320).train(corpus.iter().copied())
    }

    #[test]
    fn byte_level_round_trips_everything() {
        let tok = BpeTokenizer::byte_level();
        for s in [
            "",
            "hello",
            "module m;\n  assign y = ~a;\nendmodule",
            "ünïcode ✓",
        ] {
            assert_eq!(tok.decode(&tok.encode(s)), s);
        }
    }

    #[test]
    fn trained_round_trips() {
        let tok = small_tok();
        for s in [
            "module counter(input clk);",
            "assign s = a + b;",
            "something never seen 123!@#",
        ] {
            assert_eq!(tok.decode(&tok.encode(s)), s);
        }
    }

    #[test]
    fn merges_shorten_encodings() {
        let tok = small_tok();
        let byte = BpeTokenizer::byte_level();
        let s = "always @(posedge clk or negedge rst_n) begin";
        assert!(tok.encode(s).len() < byte.encode(s).len());
    }

    #[test]
    fn specials_are_atomic() {
        let tok = small_tok();
        let ids = tok.encode("[FRAG]module[FRAG] [FRAG]m[FRAG]");
        assert_eq!(ids[0], special::FRAG);
        assert_eq!(ids[ids.len() - 1], special::FRAG);
        assert_eq!(ids.iter().filter(|&&i| i == special::FRAG).count(), 4);
        assert_eq!(tok.decode(&ids), "[FRAG]module[FRAG] [FRAG]m[FRAG]");
    }

    #[test]
    fn all_special_spellings_map_to_ids() {
        let tok = BpeTokenizer::byte_level();
        for (i, s) in special::TEXTS.iter().enumerate() {
            let ids = tok.encode(s);
            assert_eq!(ids, vec![i as TokenId], "{s}");
        }
    }

    #[test]
    fn strip_specials_removes_markers() {
        let tok = small_tok();
        let ids = tok.encode("[FRAG]module[FRAG] x");
        let stripped = tok.strip_specials(&ids);
        assert!(!stripped.iter().any(|&i| tok.is_special(i)));
        assert_eq!(tok.decode(&stripped), "module x");
    }

    #[test]
    fn vocab_size_respects_target() {
        let tok = small_tok();
        assert!(tok.vocab_size() <= 320);
        assert!(
            tok.merge_count() > 0,
            "corpus has repeats, merges must form"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = [
            "assign y = a & b;",
            "assign z = a | b;",
            "assign y = a ^ b;",
        ];
        let t1 = BpeTrainer::new(300).train(corpus.iter().copied());
        let t2 = BpeTrainer::new(300).train(corpus.iter().copied());
        assert_eq!(t1, t2);
    }

    #[test]
    fn serde_round_trip_preserves_behavior() {
        let tok = small_tok();
        let json = serde_json::to_string(&tok).expect("serialize");
        let mut back: BpeTokenizer = serde_json::from_str(&json).expect("deserialize");
        back.rebuild_cache();
        let s = "always @(posedge clk) q <= q + 1;";
        assert_eq!(back.encode(s), tok.encode(s));
        assert_eq!(back, tok);
    }

    #[test]
    fn pre_tokenize_attaches_single_leading_space() {
        let words = pre_tokenize("assign y = a;");
        assert_eq!(words, vec!["assign", " y", " =", " a;"]);
        let words = pre_tokenize("a  b");
        assert_eq!(words, vec!["a", " ", " b"]);
        let words = pre_tokenize("a\n\tb");
        assert_eq!(words, vec!["a", "\n\t", "b"]);
    }

    #[test]
    fn pre_tokenize_keeps_indentation_runs_whole() {
        // Newline + 4-space indent: the run stays one word (minus the
        // space glued to the following token), so BPE can merge it.
        let words = pre_tokenize("x;\n    input y");
        assert_eq!(words, vec!["x;", "\n   ", " input", " y"]);
        // Pure trailing whitespace keeps the full run.
        assert_eq!(pre_tokenize("a\n    "), vec!["a", "\n    "]);
    }

    #[test]
    fn pre_tokenize_handles_trailing_space() {
        assert_eq!(pre_tokenize("a "), vec!["a", " "]);
        assert_eq!(pre_tokenize(" "), vec![" "]);
        assert_eq!(pre_tokenize(""), Vec::<&str>::new());
    }

    #[test]
    fn token_text_for_debugging() {
        let tok = BpeTokenizer::byte_level();
        assert_eq!(tok.token_text(special::FRAG), "[FRAG]");
        assert_eq!(tok.token_text(BYTE_BASE + b'a' as TokenId), "a");
    }

    #[test]
    fn token_bytes_exposes_exact_decode_bytes() {
        let tok = small_tok();
        for id in 0..tok.vocab_size() as TokenId {
            let bytes = tok.token_bytes(id).expect("in vocab");
            // Raw high bytes decode lossily; compare only exact UTF-8.
            if let Ok(s) = std::str::from_utf8(bytes) {
                assert_eq!(tok.decode(&[id]), s, "token {id}");
            }
        }
        assert_eq!(tok.token_bytes(tok.vocab_size() as TokenId), None);
        let byte = BpeTokenizer::byte_level();
        assert_eq!(
            byte.token_bytes(BYTE_BASE + b'a' as TokenId),
            Some(&b"a"[..])
        );
    }

    #[test]
    fn min_pair_count_stops_training() {
        // Every pair occurs once, so with the default threshold of 2 no
        // merge is learned.
        let tok = BpeTrainer::new(400).train(["abcdefg"].into_iter());
        assert_eq!(tok.merge_count(), 0);
    }
}
