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
//! # Training
//!
//! [`BpeTrainer::train`] splits each text around its special spellings
//! (one left-to-right pass: at each `[`, the longest spelling that starts
//! there), pre-tokenizes the rest into words and counts the distinct
//! words. Every merge then takes the adjacent pair with the highest count
//! over all words (ties to the smaller pair) and rewrites each word left
//! to right, exactly as a full recount before every merge would. The
//! counts are kept incrementally instead: an index from each pair to the
//! words that hold it names the words a merge touches, and only those are
//! recounted (their old pairs subtracted, their new pairs added); a
//! max-heap with lazily dropped stale entries yields the next pair. A
//! merge so costs `O(L_m · log H)` for `L_m` the total length of the
//! words holding its pair and `H` the heap's size, where a recount costs
//! `O(W)` for `W` the length of all distinct words: over `M` merges,
//! `O(W + Σ L_m · log H)` against `O(M · W)`. The recount survives as the
//! test oracle the incremental counts are pinned to, merge for merge; so
//! does the splitter that searched the rest of a text for every spelling
//! after each special.
//!
//! The pair counts, the pair-to-word index and the word counts are hash
//! maps under an in-crate multiply-rotate hasher rather than SipHash.
//! Their keys are token pairs and words of the training corpus, which
//! the pipeline generates itself; text written to collide under the
//! hasher could slow training down but never change a merge.
//! No merge can depend on the hasher, because nothing reads a map in
//! its iteration order: the distinct words are sorted before they are
//! numbered, and the heap orders its entries by `(count, Reverse(pair))`
//! — a total order over distinct pairs, so whichever order they are
//! pushed in, they pop in the same one.
//!
//! Nor can a merge depend on the order in which it walks the words it
//! rewrites, so nothing is sorted to fix that order. A word listed twice
//! under the pair is skipped at its second listing: the rewrite at the
//! first left no occurrence of the pair in it. A pair whose count moved
//! is marked in its count entry when first listed for the heap, so each
//! goes to the heap once per merge, with the count it ends the merge
//! with. That count is a sum over the rewritten words, the same in any
//! order, and the heap's order is total, so which pair comes next cannot
//! depend on the walk either. The recount oracle pins this merge for
//! merge.
//!
//! # Encoding
//!
//! Encoding splits the text as training does, then encodes each word on
//! its own. A word the tokenizer was trained on is looked up: when
//! training ends, the trainer holds every distinct word's final ids, and
//! keeps them in a flat word table — one arena of text, one of ids and
//! an open-addressed index, at most half full — so a training word
//! costs a hash and a compare or two. Any other word goes through the
//! merges, lowest rank first; a merge is looked up in a table sorted by
//! right token within each left token, so no pair is hashed. The merges
//! are the definition: rewriting a word one merge at a time, in rank
//! order, gives the ids the lowest-rank-first loop gives, so a word
//! encodes the same either way. A tokenizer read back from JSON, or
//! built with [`BpeTokenizer::from_merges`], has no word table and
//! merges every word; it encodes every text to the same ids, and
//! `PartialEq` compares merges only, so it equals the trained one.
//!
//! The table's index hashes with the trainer's hasher and is probed
//! with any text. It is built from the training words alone, though, so
//! a probe walks at most the longest run of full slots training left:
//! no text a caller passes can lengthen one.
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
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

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
    pub(crate) const COUNT: usize = 5;

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
/// (no merges). Serializable with serde for on-disk caching; a
/// deserialized tokenizer is rebuilt from its merges, so it encodes as
/// the one that was written.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "StoredTokenizer")]
pub struct BpeTokenizer {
    /// Merge rules in application order: merging `pair.0, pair.1` yields
    /// id `MERGE_BASE + index`.
    merges: Vec<(TokenId, TokenId)>,
    /// Bytes of every token id (specials map to their spelling bytes).
    vocab_bytes: Vec<Vec<u8>>,
    /// Merge lookup, derived from `merges`.
    #[serde(skip)]
    merge_table: MergeTable,
    /// The training words' ids, kept by the trainer; empty otherwise.
    #[serde(skip)]
    words: WordTable,
}

/// The serialized fields of a [`BpeTokenizer`], checked before the
/// tokenizer is rebuilt from them.
#[derive(Deserialize)]
struct StoredTokenizer {
    merges: Vec<(TokenId, TokenId)>,
    vocab_bytes: Vec<Vec<u8>>,
}

impl TryFrom<StoredTokenizer> for BpeTokenizer {
    type Error = String;

    fn try_from(stored: StoredTokenizer) -> Result<Self, String> {
        for (i, &(a, b)) in stored.merges.iter().enumerate() {
            let next = MERGE_BASE + i as TokenId;
            if a >= next || b >= next {
                return Err(format!("merge {i} ({a}, {b}) names an id not yet defined"));
            }
        }
        let tok = BpeTokenizer::from_merges(stored.merges);
        if tok.vocab_bytes != stored.vocab_bytes {
            return Err("vocabulary bytes do not match the merges".into());
        }
        Ok(tok)
    }
}

/// Equal merges make equal tokenizers: the word table only caches what
/// the merges encode, so it is not compared.
impl PartialEq for BpeTokenizer {
    fn eq(&self, other: &Self) -> bool {
        self.merges == other.merges && self.vocab_bytes == other.vocab_bytes
    }
}

/// Merge lookup for [`BpeTokenizer::encode`]: for each left token, its
/// merges' `(right, merged id)` sorted by right token — a slice of a
/// few entries searched without hashing the pair.
#[derive(Debug, Clone, Default)]
struct MergeTable {
    /// `rights[starts[a]..starts[a + 1]]` holds left token `a`'s merges.
    starts: Vec<u32>,
    rights: Vec<(TokenId, TokenId)>,
}

impl MergeTable {
    fn new(merges: &[(TokenId, TokenId)]) -> Self {
        let n_ids = MERGE_BASE as usize + merges.len();
        let mut starts = vec![0u32; n_ids + 1];
        for &(a, _) in merges {
            starts[a as usize + 1] += 1;
        }
        for i in 0..n_ids {
            starts[i + 1] += starts[i];
        }
        let mut fill = starts.clone();
        let mut rights = vec![(0, 0); merges.len()];
        for (i, &(a, b)) in merges.iter().enumerate() {
            rights[fill[a as usize] as usize] = (b, MERGE_BASE + i as TokenId);
            fill[a as usize] += 1;
        }
        for w in starts.windows(2) {
            rights[w[0] as usize..w[1] as usize].sort_unstable();
        }
        Self { starts, rights }
    }

    /// The id `a, b` merges into, if they merge.
    fn get(&self, a: TokenId, b: TokenId) -> Option<TokenId> {
        let a = a as usize;
        let row = &self.rights[self.starts[a] as usize..self.starts[a + 1] as usize];
        row.binary_search_by_key(&b, |&(right, _)| right)
            .ok()
            .map(|k| row[k].1)
    }
}

/// The final ids of every distinct training word, looked up by the
/// word's bytes. Flat: one text arena, one id arena, each word's bounds
/// in both, and an open-addressed index of word numbers hashed by
/// [`MulRotate`].
#[derive(Debug, Clone, Default)]
struct WordTable {
    /// Every word's bytes, one word after another.
    text: Vec<u8>,
    /// Every word's ids, one word after another.
    ids: Vec<TokenId>,
    /// Word `k` is `text[bounds[k].0..bounds[k + 1].0]` and
    /// `ids[bounds[k].1..bounds[k + 1].1]`.
    bounds: Vec<(u32, u32)>,
    /// Word numbers, or [`WordTable::EMPTY`]; a power-of-two length at
    /// least twice the number of words, probed linearly from a word's
    /// hash.
    slots: Vec<u32>,
}

impl WordTable {
    /// The mark of a slot that holds no word.
    const EMPTY: u32 = u32::MAX;

    /// The table of `words`, given by their ids; a word's text is its
    /// ids' bytes in `vocab_bytes`. The words must be distinct. Every
    /// buffer is allocated once, at its final size.
    fn new(words: &[Word], vocab_bytes: &[Vec<u8>]) -> Self {
        let ids = || words.iter().flat_map(|(ids, _)| ids);
        let mut table = WordTable {
            text: Vec::with_capacity(ids().map(|&id| vocab_bytes[id as usize].len()).sum()),
            ids: Vec::with_capacity(ids().count()),
            bounds: Vec::with_capacity(words.len() + 1),
            slots: vec![Self::EMPTY; (2 * words.len()).next_power_of_two().max(2)],
        };
        table.bounds.push((0, 0));
        for (k, (ids, _)) in words.iter().enumerate() {
            for &id in ids {
                table.text.extend_from_slice(&vocab_bytes[id as usize]);
            }
            table.ids.extend_from_slice(ids);
            table
                .bounds
                .push((table.text.len() as u32, table.ids.len() as u32));
            let mut s = table.slot_of(table.word(k).0);
            while table.slots[s] != Self::EMPTY {
                s = (s + 1) & (table.slots.len() - 1);
            }
            table.slots[s] = k as u32;
        }
        table
    }

    /// Word `k`'s bytes and ids.
    fn word(&self, k: usize) -> (&[u8], &[TokenId]) {
        let ((text_start, ids_start), (text_end, ids_end)) = (self.bounds[k], self.bounds[k + 1]);
        (
            &self.text[text_start as usize..text_end as usize],
            &self.ids[ids_start as usize..ids_end as usize],
        )
    }

    /// The first slot to probe for `text`: the top bits of its hash,
    /// which the hasher's last multiply mixes best.
    fn slot_of(&self, text: &[u8]) -> usize {
        let mut h = MulRotate::default();
        h.write(text);
        (h.finish() >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The ids of training word `text`, if it is one.
    fn get(&self, text: &[u8]) -> Option<&[TokenId]> {
        if self.slots.is_empty() {
            return None;
        }
        let mut s = self.slot_of(text);
        loop {
            let k = self.slots[s];
            if k == Self::EMPTY {
                return None;
            }
            let (word, ids) = self.word(k as usize);
            if word == text {
                return Some(ids);
            }
            s = (s + 1) & (self.slots.len() - 1);
        }
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
        for &(a, b) in &merges {
            let mut bytes = vocab_bytes[a as usize].clone();
            bytes.extend_from_slice(&vocab_bytes[b as usize]);
            vocab_bytes.push(bytes);
        }
        Self {
            merge_table: MergeTable::new(&merges),
            merges,
            vocab_bytes,
            words: WordTable::default(),
        }
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

    /// Encodes text that contains no special-token spellings: a training
    /// word by its entry in the word table, any other word merged in
    /// place at the end of `out`.
    fn encode_plain(&self, text: &str, out: &mut Vec<TokenId>) {
        for word in pre_tokenize(text) {
            if let Some(ids) = self.words.get(word.as_bytes()) {
                out.extend_from_slice(ids);
                continue;
            }
            let start = out.len();
            out.extend(word.bytes().map(|b| BYTE_BASE + b as TokenId));
            // Greedy lowest-rank merge loop (standard BPE application).
            loop {
                let ids = &out[start..];
                let mut best: Option<(usize, TokenId)> = None;
                for i in 0..ids.len().saturating_sub(1) {
                    if let Some(id) = self.merge_table.get(ids[i], ids[i + 1]) {
                        if best.is_none_or(|(_, b)| id < b) {
                            best = Some((i, id));
                        }
                    }
                }
                let Some((i, id)) = best else { break };
                out[start + i] = id;
                out.remove(start + i + 1);
            }
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
#[derive(Debug, PartialEq)]
enum Piece<'a> {
    Text(&'a str),
    Special(TokenId),
}

/// Splits `text` around special-token spellings in one left-to-right
/// pass: at each `[`, the longest spelling that starts there is a
/// special, and a `[` that starts none stays text.
fn split_specials(text: &str) -> Vec<Piece<'_>> {
    let bytes = text.as_bytes();
    let mut pieces = Vec::new();
    let mut text_start = 0;
    let mut at = 0;
    while let Some(off) = bytes[at..].iter().position(|&b| b == b'[') {
        at += off;
        match special_at(&bytes[at..]) {
            Some((id, len)) => {
                if at > text_start {
                    pieces.push(Piece::Text(&text[text_start..at]));
                }
                pieces.push(Piece::Special(id));
                at += len;
                text_start = at;
            }
            None => at += 1,
        }
    }
    if text_start < text.len() {
        pieces.push(Piece::Text(&text[text_start..]));
    }
    pieces
}

/// The id and length of the longest special spelling `bytes` starts with.
fn special_at(bytes: &[u8]) -> Option<(TokenId, usize)> {
    special::TEXTS
        .iter()
        .enumerate()
        .filter(|(_, spelling)| bytes.starts_with(spelling.as_bytes()))
        .max_by_key(|(_, spelling)| spelling.len())
        .map(|(id, spelling)| (id as TokenId, spelling.len()))
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

/// An adjacent token pair, the unit BPE counts and merges.
type Pair = (TokenId, TokenId);

/// The trainer's maps: keyed by pairs and words, hashed by [`MulRotate`].
type TrainMap<K, V> = HashMap<K, V, BuildHasherDefault<MulRotate>>;

/// A multiply-rotate hasher (the FxHash step): each written word is
/// xored into the rotated state, which is then multiplied by an odd
/// constant. Fast on the trainer's small integer and short byte-string
/// keys; no merge depends on it (see the crate doc, § Training).
#[derive(Default)]
struct MulRotate(u64);

impl MulRotate {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for MulRotate {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A distinct corpus word: its current token ids and how often it occurs.
type Word = (Vec<TokenId>, u64);

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
        self.learn_merges(count_words(corpus))
    }

    /// The tokenizer of the counted words: their merges, and each word's
    /// final ids in its word table. Not generic, so it is compiled here,
    /// once, and runs the same code whichever crate calls
    /// [`BpeTrainer::train`] with whichever iterator.
    fn learn_merges(&self, mut words: Vec<Word>) -> BpeTokenizer {
        let merges = self.merge_words(&mut words);
        // The counts, index and heap are freed by now, so the table that
        // outlives them can take their place.
        let mut tok = BpeTokenizer::from_merges(merges);
        tok.words = WordTable::new(&words, &tok.vocab_bytes);
        tok
    }

    /// Learns the merges, rewriting each word to its final ids. Each
    /// merge is the pair of highest count over all words, ties to the
    /// smaller pair, applied to every word left to right; only the words
    /// holding the pair are recounted (see the crate doc).
    fn merge_words(&self, words: &mut [Word]) -> Vec<Pair> {
        let n_merges = self.target_vocab - MERGE_BASE as usize;
        let mut merges: Vec<Pair> = Vec::new();
        let mut counts: TrainMap<Pair, Tally> = TrainMap::default();
        // Every word holding a pair is listed under it; a listed word may
        // since have lost the pair, or be listed twice.
        let mut holders: TrainMap<Pair, Vec<u32>> = TrainMap::default();
        // Pairs whose count moved since the heap last heard of them.
        let mut touched: Vec<Pair> = Vec::new();
        // Max-heap of (count, smaller pair first); an entry whose count is
        // no longer its pair's is stale and skipped when it surfaces.
        let mut heap: BinaryHeap<(u64, Reverse<Pair>)> = BinaryHeap::new();
        for (w, (ids, count)) in words.iter().enumerate() {
            add_pairs(
                ids,
                *count,
                w as u32,
                &mut counts,
                &mut holders,
                &mut touched,
            );
        }
        push_touched(&mut touched, &mut counts, &mut heap);
        while merges.len() < n_merges {
            let Some((count, Reverse(pair))) = heap.pop() else {
                break;
            };
            if counts.get(&pair).map(|t| t.count) != Some(count) {
                continue;
            }
            if (count as usize) < self.min_pair_count {
                break;
            }
            let new_id = MERGE_BASE + merges.len() as TokenId;
            merges.push(pair);
            for w in holders.remove(&pair).unwrap_or_default() {
                let (ids, count) = &mut words[w as usize];
                // A word that lost the pair since it was listed, or that
                // is listed twice and was rewritten at its first listing,
                // holds no occurrence of it: a rewrite leaves none.
                if !ids.windows(2).any(|p| (p[0], p[1]) == pair) {
                    continue;
                }
                for p in ids.windows(2) {
                    let old = (p[0], p[1]);
                    let tally = counts.get_mut(&old).expect("a held pair is counted");
                    tally.count -= *count;
                    if tally.count == 0 {
                        counts.remove(&old);
                    } else if !tally.touched {
                        tally.touched = true;
                        touched.push(old);
                    }
                }
                merge_pair(ids, pair, new_id);
                add_pairs(ids, *count, w, &mut counts, &mut holders, &mut touched);
            }
            push_touched(&mut touched, &mut counts, &mut heap);
        }
        merges
    }
}

/// The distinct words of a corpus with their counts, each as byte tokens,
/// sorted: merges do not depend on the order, but training then takes
/// the same steps whatever the hash seed.
fn count_words<'a>(corpus: impl Iterator<Item = &'a str>) -> Vec<Word> {
    let mut word_counts: TrainMap<&str, u64> = TrainMap::default();
    for doc in corpus {
        for piece in split_specials(doc) {
            if let Piece::Text(t) = piece {
                for w in pre_tokenize(t) {
                    *word_counts.entry(w).or_insert(0) += 1;
                }
            }
        }
    }
    let mut words: Vec<Word> = word_counts
        .into_iter()
        .map(|(w, c)| (w.bytes().map(|b| BYTE_BASE + b as TokenId).collect(), c))
        .collect();
    words.sort_unstable();
    words
}

/// A pair's count over all words, and whether it is listed in the
/// trainer's `touched` since the heap last heard of it: a merge lists a
/// pair once however many of the words it rewrites hold the pair.
struct Tally {
    count: u64,
    touched: bool,
}

/// Adds word `w`'s adjacent pairs, `count` times each, to the pair
/// counts, lists `w` under each pair, and lists each pair in `touched`
/// unless it is there already.
fn add_pairs(
    ids: &[TokenId],
    count: u64,
    w: u32,
    counts: &mut TrainMap<Pair, Tally>,
    holders: &mut TrainMap<Pair, Vec<u32>>,
    touched: &mut Vec<Pair>,
) {
    for p in ids.windows(2) {
        let pair = (p[0], p[1]);
        let tally = counts.entry(pair).or_insert(Tally {
            count: 0,
            touched: false,
        });
        tally.count += count;
        if !tally.touched {
            tally.touched = true;
            touched.push(pair);
        }
        let list = holders.entry(pair).or_default();
        if list.last() != Some(&w) {
            list.push(w);
        }
    }
}

/// Pushes each still-counted pair of `touched` onto the heap with its
/// count, once, and empties `touched`. A pair counted out and back in
/// during one merge is listed twice; its first listing clears its mark.
fn push_touched(
    touched: &mut Vec<Pair>,
    counts: &mut TrainMap<Pair, Tally>,
    heap: &mut BinaryHeap<(u64, Reverse<Pair>)>,
) {
    for p in touched.drain(..) {
        if let Some(tally) = counts.get_mut(&p).filter(|t| t.touched) {
            tally.touched = false;
            heap.push((tally.count, Reverse(p)));
        }
    }
}

/// Rewrites every occurrence of `pair` in `ids` to `new_id`, left to
/// right (`a a a` under `(a, a)` becomes `new a`).
fn merge_pair(ids: &mut Vec<TokenId>, pair: Pair, new_id: TokenId) {
    let mut i = 0;
    while i + 1 < ids.len() {
        if (ids[i], ids[i + 1]) == pair {
            ids[i] = new_id;
            ids.remove(i + 1);
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod oracle_tests;

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
        let back: BpeTokenizer = serde_json::from_str(&json).expect("deserialize");
        let s = "always @(posedge clk) q <= q + 1;";
        assert_eq!(back.encode(s), tok.encode(s));
        assert_eq!(back, tok);
    }

    #[test]
    fn malformed_stored_tokenizers_are_errors() {
        let tok = small_tok();
        let json = serde_json::to_string(&tok).expect("serialize");
        let future = MERGE_BASE + tok.merge_count() as TokenId;
        let (a, b) = tok.merges[0];
        let ahead = json.replacen(&format!("[{a},{b}]"), &format!("[{future},{b}]"), 1);
        assert_ne!(ahead, json);
        assert!(serde_json::from_str::<BpeTokenizer>(&ahead).is_err());
        let mut stored = tok.clone();
        stored.vocab_bytes[MERGE_BASE as usize].push(b'!');
        let mismatched = serde_json::to_string(&stored).expect("serialize");
        assert!(serde_json::from_str::<BpeTokenizer>(&mismatched).is_err());
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
