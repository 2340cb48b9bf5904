//! The trainer, the word table and the special-token splitter against
//! the definitions they replaced.
//!
//! [`BpeTrainer::learn_merges`] keeps its pair counts incrementally, a
//! trained tokenizer encodes its training words by lookup, and
//! [`split_specials`] finds specials in one pass. This file keeps the
//! plain definitions as test oracles — [`recount_merges`] recounts every
//! pair of every word before each merge, a tokenizer rebuilt with
//! [`BpeTokenizer::from_merges`] has no word table and merges every word,
//! [`split_specials_by_find`] searches the rest of the text for every
//! spelling after each special — and pins the fast forms to them: merge
//! for merge, id for id, piece for piece.

use super::*;
use proptest::prelude::*;
use verispec_data::{alpaca_format, Corpus, CorpusConfig};

/// The merges of `trainer` on `words`, by recounting every adjacent pair
/// of every word before each merge.
fn recount_merges(trainer: &BpeTrainer, mut words: Vec<Word>) -> Vec<Pair> {
    let mut merges: Vec<Pair> = Vec::new();
    let n_merges = trainer.target_vocab - MERGE_BASE as usize;
    for _ in 0..n_merges {
        let mut pair_counts: HashMap<Pair, u64> = HashMap::new();
        for (ids, c) in &words {
            for win in ids.windows(2) {
                *pair_counts.entry((win[0], win[1])).or_insert(0) += c;
            }
        }
        // Most frequent pair; ties break toward the smaller pair.
        let Some((&pair, &count)) = pair_counts
            .iter()
            .max_by(|(pa, ca), (pb, cb)| ca.cmp(cb).then_with(|| pb.cmp(pa)))
        else {
            break;
        };
        if (count as usize) < trainer.min_pair_count {
            break;
        }
        let new_id = MERGE_BASE + merges.len() as TokenId;
        merges.push(pair);
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
    merges
}

/// `text` split around special spellings by searching the rest of the
/// text for every spelling after each special: the earliest occurrence
/// wins, the longest spelling on a tie.
fn split_specials_by_find(text: &str) -> Vec<Piece<'_>> {
    let mut pieces = Vec::new();
    let mut rest = text;
    while !rest.is_empty() {
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
        let Some((pos, len, id)) = earliest else {
            pieces.push(Piece::Text(rest));
            break;
        };
        if pos > 0 {
            pieces.push(Piece::Text(&rest[..pos]));
        }
        pieces.push(Piece::Special(id));
        rest = &rest[pos + len..];
    }
    pieces
}

/// Trains both ways on `texts` and asserts the same merges, and that the
/// trained tokenizer encodes as its merges do (see
/// [`assert_table_encodes_as_merges`]); returns how many were learned.
fn assert_merges_equal_recount(trainer: &BpeTrainer, texts: &[String]) -> usize {
    let words = count_words(texts.iter().map(String::as_str));
    let fast = trainer.learn_merges(words.clone());
    let slow = recount_merges(trainer, words);
    assert_eq!(fast.merges, slow, "{trainer:?} on {texts:?}");
    assert_eq!(fast, BpeTokenizer::from_merges(slow));
    assert_table_encodes_as_merges(&fast, texts);
    fast.merge_count()
}

/// Asserts that `trained` holds a word table and encodes every text of
/// `texts` — its training texts — to the ids its merges alone give
/// them, and so it does text with words outside the table: each text
/// reversed, and all of them run together with no separator.
fn assert_table_encodes_as_merges(trained: &BpeTokenizer, texts: &[String]) {
    let merged = BpeTokenizer::from_merges(trained.merges.clone());
    assert!(merged.words.slots.is_empty());
    let trained_words = trained.words.bounds.len() - 1;
    assert_eq!(
        trained_words,
        count_words(texts.iter().map(String::as_str)).len()
    );
    for k in 0..trained_words {
        let (text, ids) = trained.words.word(k);
        assert_eq!(trained.words.get(text), Some(ids), "word {k}");
    }
    let unseen = texts
        .iter()
        .map(|t| t.chars().rev().collect::<String>())
        .chain([texts.concat()]);
    for text in texts.iter().cloned().chain(unseen) {
        assert_eq!(trained.encode(&text), merged.encode(&text), "{text:?}");
    }
}

/// One corpus word or separator: single-byte runs (`"aaaa"`, whose pairs
/// overlap), short mixed words, whitespace runs, special spellings, their
/// broken prefixes and multi-byte characters.
fn corpus_piece() -> impl Strategy<Value = String> {
    prop_oneof![
        "a{1,9}",
        "b{2,6}",
        "[ab]{1,7}",
        "[abc ]{1,8}",
        "[ \n]{1,5}",
        " [a-d]{1,4}",
        "[aλé]{1,4}",
        Just("[FRAG]".to_string()),
        Just("[EOS]".to_string()),
        Just("[[FRAG]".to_string()),
        Just("[FRA".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn incremental_merges_equal_recount_merges(
        texts in prop::collection::vec(
            prop::collection::vec(corpus_piece(), 0..12).prop_map(|p| p.concat()),
            1..8,
        ),
        min_pair_count in 1usize..=3,
        extra_vocab in 0usize..120,
    ) {
        // Up to 120 merges: past what most of these corpora's pairs can
        // fill, so training also stops on an empty or too-rare pool.
        let trainer = BpeTrainer::new(MERGE_BASE as usize + extra_vocab)
            .min_pair_count(min_pair_count);
        assert_merges_equal_recount(&trainer, &texts);
    }

    #[test]
    fn one_pass_split_equals_find_split(
        text in prop::collection::vec(
            prop_oneof![
                "[\\[\\]A-Z]{1,8}",
                "[a \\[é]{1,4}",
                "\\PC{0,3}",
                Just("[FRAG]".to_string()),
                Just("[IGNORE]".to_string()),
                Just("[PAD]".to_string()),
                Just("[BOS]".to_string()),
                Just("[EOS]".to_string()),
            ],
            0..10,
        )
        .prop_map(|p| p.concat())
    ) {
        prop_assert_eq!(split_specials(&text), split_specials_by_find(&text), "{:?}", text);
    }
}

#[test]
fn incremental_merges_equal_recount_merges_on_pipeline_corpora() {
    // (corpus size, vocabulary) of the test pipeline and of the
    // benchmark's, trained on plain and tagged text as `Pipeline::build`
    // does.
    for (size, vocab) in [(48, 380), (192, 480)] {
        let texts = pipeline_texts(size);
        let learned = assert_merges_equal_recount(&BpeTrainer::new(vocab), &texts);
        assert_eq!(learned, vocab - MERGE_BASE as usize, "{size}/{vocab}");
    }
}

/// The training texts of a pipeline whose corpus has `size` items: every
/// item's Alpaca text, plain and tagged, as `Pipeline::build` trains on.
fn pipeline_texts(size: usize) -> Vec<String> {
    let corpus = Corpus::build(&CorpusConfig {
        size,
        seed: 0xC0FFEE,
        ..Default::default()
    });
    let plain = corpus
        .items
        .iter()
        .map(|it| alpaca_format(&it.description, &it.source));
    let tagged = corpus
        .items
        .iter()
        .map(|it| alpaca_format(&it.description, &it.tagged_source));
    plain.chain(tagged).collect()
}

#[test]
fn word_table_encodes_as_the_merges_on_the_gate_corpus() {
    // The quality gate's pipeline, too large for the recount; the test
    // pipeline's and the benchmark's are checked beside the recount.
    let texts = pipeline_texts(640);
    let trained = BpeTrainer::new(640).train(texts.iter().map(String::as_str));
    assert_eq!(trained.merge_count(), 640 - MERGE_BASE as usize);
    assert_table_encodes_as_merges(&trained, &texts);
}

#[test]
fn one_pass_split_equals_find_split_on_adversarial_text() {
    let mut cases: Vec<String> = [
        "",
        "[",
        "]",
        "[[FRAG]",
        "[[[FRAG]]]",
        "[FRA",
        "x[FRA",
        "[FRAG",
        "[FRAG][FRAG]",
        "[EOS][BOS][PAD][IGNORE][FRAG]",
        "a[FRAG]b[EOS]c",
        "[IGNORE[FRAG]",
        "[IGN[EOS]",
        "é[FRAG]λ",
        "[é[FRAG]]λ[",
        "✓[[✓]]",
        "[F\u{0}RAG]",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    // Every prefix of every spelling, alone, before a special and before
    // a multi-byte character.
    for spelling in special::TEXTS {
        for end in 1..=spelling.len() {
            let prefix = &spelling[..end];
            cases.push(prefix.to_string());
            cases.push(format!("{prefix}[FRAG]"));
            cases.push(format!("{prefix}é{prefix}"));
        }
    }
    for text in &cases {
        assert_eq!(
            split_specials(text),
            split_specials_by_find(text),
            "{text:?}"
        );
    }
}
