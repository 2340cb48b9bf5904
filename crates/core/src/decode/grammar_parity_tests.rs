//! The grammar engine's tree builder against the definition it
//! replaced.
//!
//! [`build_grammar_candidate_paths`] reads each head's ranking through
//! a [`Ranking`], which ranks only as deep as the tree's scans walk it.
//! What it builds must not be able to tell: this file keeps the *eager*
//! builder — every head ranked `k + GRAMMAR_WIDEN_ROUNDS +
//! GRAMMAR_SCAN_SLACK` deep before a single token is looked at, every
//! round slicing those lists, a path cloned per option — as the test
//! oracle, pins the lazy builder to it (same paths, same order, same
//! [`PruneRecord`]), and pins what the laziness buys so it cannot
//! quietly turn eager again.

use super::*;
use proptest::prelude::*;
use verispec_lm::LogitsArena;

/// [`grammar_tree`] by definition: `ranked[level]` is that level's
/// whole ranking, at least `widths[level] + GRAMMAR_SCAN_SLACK` deep
/// (vocabulary permitting), and only that prefix is scanned.
fn eager_grammar_tree(
    ranked: &[Vec<TokenId>],
    widths: &[usize],
    oracle: &GrammarOracle,
    state: ViabilityState,
) -> Vec<Vec<TokenId>> {
    let mut paths: Vec<(Vec<TokenId>, ViabilityState)> = vec![(Vec::new(), state)];
    for (ranked, &k) in ranked.iter().zip(widths) {
        let ranked = &ranked[..(k + GRAMMAR_SCAN_SLACK).min(ranked.len())];
        let mut next = Vec::with_capacity(paths.len() * k);
        'grow: for (p, st) in &paths {
            let viable: Vec<TokenId> = ranked
                .iter()
                .copied()
                .filter(|&t| oracle.viable(*st, t))
                .take(k)
                .collect();
            let chosen: &[TokenId] = if viable.is_empty() {
                &ranked[..k.min(ranked.len())]
            } else {
                &viable
            };
            for &opt in chosen {
                let mut q = p.clone();
                q.push(opt);
                next.push((q, oracle.advance(*st, opt)));
                if next.len() >= MAX_CANDIDATE_PATHS {
                    break 'grow;
                }
            }
        }
        paths = next;
    }
    paths.into_iter().map(|(p, _)| p).collect()
}

/// [`build_grammar_candidate_paths`] by definition: each head ranked
/// once, up front, as deep as the widest retry scans.
fn eager_grammar_candidate_paths(
    heads: ArenaRows<'_>,
    shape: &SpecShape,
    oracle: &GrammarOracle,
    state: ViabilityState,
    eos: TokenId,
) -> (Vec<Vec<TokenId>>, PruneRecord) {
    let widths: Vec<usize> = level_widths(shape).collect();
    let budget = shape.candidate_tokens();
    let ranked: Vec<Vec<TokenId>> = widths
        .iter()
        .enumerate()
        .map(|(level, &k)| {
            let deepest = k + GRAMMAR_WIDEN_ROUNDS + GRAMMAR_SCAN_SLACK;
            verispec_lm::top_k_indices(heads.row(level), deepest)
        })
        .collect();
    let mut paths = eager_grammar_tree(&ranked, &widths, oracle, state);
    let mut record = dead_tail_prune(&mut paths, special::FRAG, eos);
    for extra in 1..=GRAMMAR_WIDEN_ROUNDS {
        if record.surviving >= budget {
            break;
        }
        let wider: Vec<usize> = widths.iter().map(|w| w + extra).collect();
        let mut wide_paths = eager_grammar_tree(&ranked, &wider, oracle, state);
        let wide_record = dead_tail_prune(&mut wide_paths, special::FRAG, eos);
        if wide_record.surviving > record.surviving && wide_record.surviving <= budget {
            paths = wide_paths;
            record = wide_record;
        }
    }
    (paths, record)
}

/// The state a byte prefix leaves the lexer in.
fn state_after(prefix: &str) -> ViabilityState {
    let mut state = ViabilityState::new();
    state.feed_str(prefix);
    state
}

/// What a vocabulary entry may spell: bytes viable everywhere, bytes
/// viable only inside nesting, a based literal or a comment, bytes that
/// open those, and the byte-free entry a special is.
const SPELLINGS: [&[u8]; 14] = [
    b"a", b" ", b"z9", b"1", b"s", b"b", b"(", b")", b"]", b"}", b"'", b"\"", b"\x01", b"",
];

/// The lexer states the trees are grown from: live ones that accept
/// nearly everything, nearly-dead ones that accept a few bytes only
/// (a based literal awaiting its base letter, then its digits), ones
/// that accept anything (a string, a comment), and the dead one.
const PREFIXES: [&str; 8] = ["", "(", "([{", "4'", "4'b", "\"", "// ", ")"];

/// The step shapes under test at `depth` levels.
fn shape_of(kind: usize, depth: usize) -> SpecShape {
    let widths: &[usize] = match kind {
        0 => &[2, 2],
        1 => &[2, 2, 1],
        2 => &[3, 2],
        3 => &[1],
        _ => return SpecShape::Chain { depth },
    };
    SpecShape::Tree {
        widths: widths.to_vec(),
        depth,
    }
}

fn heads_of(rows: &[Vec<f32>]) -> LogitsArena {
    let mut arena = LogitsArena::new();
    for row in rows {
        arena.push_row(row);
    }
    arena
}

/// Both builders on one input, compared whole.
fn assert_lazy_equals_eager(
    rows: &[Vec<f32>],
    shape: &SpecShape,
    oracle: &GrammarOracle,
    state: ViabilityState,
    eos: TokenId,
) {
    let arena = heads_of(rows);
    let heads = arena.rows_from(0);
    let want = eager_grammar_candidate_paths(heads, shape, oracle, state, eos);
    let got = build_grammar_candidate_paths(heads, shape, oracle, state, eos);
    assert_eq!(got, want, "shape {shape:?} state {state:?} eos {eos}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// Random heads, vocabularies, spellings, shapes and lexer states.
    /// Rows come peaked (distinct logits), coarse (a few distinct
    /// values: exact ties across the `k`-th entry and the window's
    /// edge) and flat (rank is index order); vocabularies run from
    /// shorter than any scan window to well past the deepest. `lift`
    /// moves `[FRAG]` and `eos` in every head: lifted, whole paths
    /// survive the dead-tail prune and the budget stops the widening
    /// early; sunk below every window, nothing survives and all three
    /// widening rounds fire.
    #[test]
    fn lazy_ranking_builds_the_eager_tree(
        vocab in 3usize..=64,
        depth in 1usize..=6,
        shape_kind in 0usize..5,
        prefix in 0usize..PREFIXES.len(),
        row_kind in 0usize..3,
        lift in 0usize..3,
        eos_pick in any::<u32>(),
        values in prop::collection::vec(0u32..1000, 6 * 64),
        spellings in prop::collection::vec(0usize..SPELLINGS.len(), 64),
    ) {
        let eos = if eos_pick % 4 == 0 { eos_pick % vocab as u32 } else { special::EOS };
        let lift = [0.0f32, 2000.0, -2000.0][lift];
        let rows: Vec<Vec<f32>> = (0..depth)
            .map(|level| {
                (0..vocab)
                    .map(|t| {
                        let v = values[level * 64 + t];
                        let logit = match row_kind {
                            0 => v as f32 + t as f32 * 1e-3,
                            1 => (v % 4) as f32,
                            _ => 0.0,
                        };
                        let marks_a_boundary = t as TokenId == special::FRAG || t as TokenId == eos;
                        if marks_a_boundary { logit + lift } else { logit }
                    })
                    .collect()
            })
            .collect();
        let table: Vec<Vec<u8>> = (0..vocab)
            .map(|t| {
                if t as TokenId == special::FRAG || t as TokenId == eos {
                    Vec::new()
                } else {
                    SPELLINGS[spellings[t]].to_vec()
                }
            })
            .collect();
        let oracle = GrammarOracle::new(table);
        let shape = shape_of(shape_kind, depth);
        assert_lazy_equals_eager(&rows, &shape, &oracle, state_after(PREFIXES[prefix]), eos);
    }

    /// The window's edge, placed: every head ranks its tokens in one
    /// known order, everything spells bytes that are not viable, and
    /// the one token that is — `[FRAG]`, byte-free — sits at rank `at`.
    /// At `k + GRAMMAR_SCAN_SLACK - 1` it is the window's last entry
    /// and must be found (the path is `[FRAG]`s and survives the
    /// prune); one further it is outside, nothing in the window is
    /// viable, and the level must fall back to its unconstrained
    /// top-`k` (which the prune drops) — until a widening round moves
    /// the window over it. `decoys` viable tokens at the very top make
    /// the same entry the `k`-th viable one instead of the only one.
    #[test]
    fn the_scan_window_ends_where_the_definition_ends_it(
        shape_kind in 0usize..5,
        depth in 1usize..=3,
        offset in 0usize..=4,
        decoys in 0usize..=3,
    ) {
        let vocab = 40usize;
        let shape = shape_of(shape_kind, depth);
        let k = level_widths(&shape).next().expect("depth >= 1");
        let decoys = decoys.min(k - 1);
        let at = k + GRAMMAR_SCAN_SLACK - 2 + offset;
        // Rank `r` of every head is token `(r + first) % vocab`, which
        // puts `[FRAG]` at rank `at`.
        let first = vocab + special::FRAG as usize - at;
        let token_at = |r: usize| (r + first) % vocab;
        let mut row = vec![0.0f32; vocab];
        for r in 0..vocab {
            row[token_at(r)] = (vocab - r) as f32;
        }
        // Inside a based literal's digits `1` is viable and `z9` is not.
        let mut table = vec![b"z9".to_vec(); vocab];
        for r in 0..decoys {
            table[token_at(r)] = b"1".to_vec();
        }
        table[special::FRAG as usize] = Vec::new();
        let oracle = GrammarOracle::new(table);
        let rows = vec![row; depth];
        assert_lazy_equals_eager(&rows, &shape, &oracle, state_after("4'b"), special::EOS);
    }
}

/// Heads of `vocab` logits whose rank `r` is token `order[level][r]`.
fn rows_ranked(vocab: usize, order: &[Vec<usize>]) -> Vec<Vec<f32>> {
    order
        .iter()
        .map(|tokens| {
            let mut row = vec![0.0f32; vocab];
            for (r, &t) in tokens.iter().enumerate() {
                row[t] = (vocab - r) as f32;
            }
            row
        })
        .collect()
}

/// A `[2, 2]` tree four levels deep whose last level's best token is
/// `[FRAG]`: all four paths survive the prune whole, the budget is
/// met, and no widening round runs.
fn full_budget_case() -> (Vec<Vec<f32>>, SpecShape, GrammarOracle) {
    let vocab = 24usize;
    let frag = special::FRAG as usize;
    let order: Vec<Vec<usize>> = vec![
        (6..vocab).collect(),
        (10..vocab).collect(),
        (8..vocab).collect(),
        std::iter::once(frag).chain(6..vocab).collect(),
    ];
    let mut table = vec![b"a".to_vec(); vocab];
    table[frag] = Vec::new();
    let shape = SpecShape::Tree {
        widths: vec![2, 2],
        depth: 4,
    };
    (rows_ranked(vocab, &order), shape, GrammarOracle::new(table))
}

/// The depth each level's ranking was left at by one build.
fn ranked_depths(
    rows: &[Vec<f32>],
    shape: &SpecShape,
    oracle: &GrammarOracle,
    state: ViabilityState,
) -> Vec<usize> {
    let widths: Vec<usize> = level_widths(shape).collect();
    let mut ranked: Vec<Ranking<'_>> = rows
        .iter()
        .zip(&widths)
        .map(|(row, &k)| Ranking::new(row, k))
        .collect();
    let (paths, record) = widest_tree_within(
        shape.candidate_tokens(),
        &mut ranked,
        &widths,
        oracle,
        state,
        special::EOS,
    );
    assert_eq!(paths.len(), 4, "{paths:?}");
    assert_eq!(record.surviving, shape.candidate_tokens());
    assert_eq!(record.pruned, 0);
    ranked.iter().map(Ranking::depth).collect()
}

#[test]
fn viable_heads_are_ranked_one_past_their_width_and_no_deeper() {
    let (rows, shape, oracle) = full_budget_case();
    let depths = ranked_depths(&rows, &shape, &oracle, ViabilityState::new());
    assert_eq!(depths, vec![3, 3, 2, 2], "k + 1 at widths [2, 2, 1, 1]");
    assert_lazy_equals_eager(&rows, &shape, &oracle, ViabilityState::new(), special::EOS);
}

#[test]
fn a_dead_state_ranks_exactly_the_fallback_and_scans_nothing() {
    let (rows, shape, oracle) = full_budget_case();
    let dead = state_after(")");
    assert!(dead.is_dead());
    let depths = ranked_depths(&rows, &shape, &oracle, dead);
    assert_eq!(depths, vec![2, 2, 1, 1], "the k entries the fallback takes");
    assert_lazy_equals_eager(&rows, &shape, &oracle, dead, special::EOS);
}

#[test]
fn the_base_substitute_is_the_first_informative_viable_token_in_rank_order() {
    // The definition: the whole `GRAMMAR_BASE_SCAN`-deep ranking, then
    // the first entry that spells something and is viable.
    fn reference(
        tok: TokenId,
        row: &[f32],
        oracle: &GrammarOracle,
        state: ViabilityState,
        eos: TokenId,
    ) -> TokenId {
        if tok == eos || state.is_dead() || oracle.viable(state, tok) {
            return tok;
        }
        verispec_lm::top_k_indices(row, GRAMMAR_BASE_SCAN)
            .into_iter()
            .find(|&cand| !oracle.token_bytes(cand).is_empty() && oracle.viable(state, cand))
            .unwrap_or(tok)
    }
    let vocab = 48usize;
    let state = state_after("4'b");
    // The one viable spelling sits at rank `at`: inside the scan, on
    // its last entry, one past it, and nowhere (`vocab`).
    for at in [0, 1, 2, 5, GRAMMAR_BASE_SCAN - 1, GRAMMAR_BASE_SCAN, vocab] {
        for short in [false, true] {
            // A vocabulary shorter than the scan ends it early.
            let vocab = if short { 7 } else { vocab };
            let order: Vec<usize> = (0..vocab).rev().collect();
            let rows = rows_ranked(vocab, std::slice::from_ref(&order));
            let mut table = vec![b"z9".to_vec(); vocab];
            // Byte-free entries are viable and must be passed over.
            table[order[0]] = Vec::new();
            if let Some(&t) = order.get(at) {
                table[t] = b"1".to_vec();
            }
            let oracle = GrammarOracle::new(table);
            for tok in [order[0], order[1], order[vocab - 1]] {
                let tok = tok as TokenId;
                assert_eq!(
                    constrain_base_token(tok, &rows[0], &oracle, state, special::EOS),
                    reference(tok, &rows[0], &oracle, state, special::EOS),
                    "at {at} vocab {vocab} tok {tok}"
                );
            }
        }
    }
}
