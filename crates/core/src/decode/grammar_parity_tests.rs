//! The grammar engine's lazily named tree against the definition it
//! replaced.
//!
//! A grammar step grows its candidate tree a level at a time, as the
//! unconstrained engines do: head `d + 1` is evaluated only once
//! acceptance reaches depth `d`, ranked once for the level
//! ([`Ranking`]), and each reached node's children are named through
//! that node's own viability state ([`viable_options`]). What it
//! commits must not be able to tell: this file keeps the *eager* tree —
//! every head ranked whole before a token is looked at, every node of
//! every level named, the path cut applied to the shape's slots
//! ([`grammar_tree`]) — and the unpruned engine's verification of it
//! (every path walked to its first rejection on the base model's own
//! rows) as the oracles, pins the engine to them, and pins what the
//! laziness buys so it cannot quietly turn eager again.

use super::*;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use verispec_grammar::syntax_keep_len;
use verispec_lm::matrix::softmax;

/// The grammar engine's candidate tree by definition, built eagerly:
/// `ranked[level]` is that level's whole head ranking; a node's options
/// are the first `widths[level]` entries of the ranking's first
/// `widths[level] + GRAMMAR_SCAN_SLACK` that are viable from the node's
/// own state, else — none is, or the state is dead — the ranking's top
/// `widths[level]`; and the paths are cut at [`MAX_CANDIDATE_PATHS`]
/// the way the shape's trie is: a node offered fewer options than its
/// width keeps its empty slots, which no later path takes over.
fn grammar_tree(
    ranked: &[Vec<TokenId>],
    widths: &[usize],
    oracle: &GrammarOracle,
    state: ViabilityState,
) -> Vec<Vec<TokenId>> {
    // Every slot of the shape's tree at one level, in path order:
    // `None` under a node that was offered too few options.
    let mut slots: Vec<Option<(Vec<TokenId>, ViabilityState)>> = vec![Some((Vec::new(), state))];
    for (ranked, &k) in ranked.iter().zip(widths) {
        let window = &ranked[..(k + GRAMMAR_SCAN_SLACK).min(ranked.len())];
        let mut next = Vec::new();
        'grow: for slot in &slots {
            let options: Vec<TokenId> = match slot {
                None => Vec::new(),
                Some((_, st)) => {
                    let viable: Vec<TokenId> = window
                        .iter()
                        .copied()
                        .filter(|&t| oracle.viable(*st, t))
                        .take(k)
                        .collect();
                    if viable.is_empty() {
                        ranked[..k.min(ranked.len())].to_vec()
                    } else {
                        viable
                    }
                }
            };
            for i in 0..k {
                next.push(match (slot, options.get(i)) {
                    (Some((p, st)), Some(&t)) => {
                        let mut q = p.clone();
                        q.push(t);
                        Some((q, oracle.advance(*st, t)))
                    }
                    _ => None,
                });
                if next.len() >= MAX_CANDIDATE_PATHS {
                    break 'grow;
                }
            }
        }
        slots = next;
    }
    slots.into_iter().flatten().map(|(p, _)| p).collect()
}

/// The children of the node after `path` in the trie of `paths`, in
/// first-seen order.
fn children_in(paths: &[Vec<TokenId>], path: &[TokenId]) -> Vec<TokenId> {
    let mut children = Vec::new();
    for p in paths {
        if p.len() > path.len() && p.starts_with(path) && !children.contains(&p[path.len()]) {
            children.push(p[path.len()]);
        }
    }
    children
}

/// What the unpruned engine commits from `paths` after `base`: every
/// path walked to its first edge that is not the arg-max of the base
/// model's distribution at the context so far (an accepted `eos` ends
/// it), the first strictly longest accepted prefix kept — the walk over
/// paths ending once it ends in `eos` — and the span cut by the syntax
/// check and the budget.
fn unpruned_span(
    model: &dyn LanguageModel,
    context: &[TokenId],
    base: TokenId,
    paths: &[Vec<TokenId>],
    eos: TokenId,
    remaining: usize,
) -> Vec<TokenId> {
    let mut best: &[TokenId] = &[];
    for path in paths {
        let mut ctx = context.to_vec();
        ctx.push(base);
        let mut accepted = 0;
        for &tok in path {
            if tok != argmax_of_distribution(&model.logits(&ctx)) {
                break;
            }
            accepted += 1;
            ctx.push(tok);
            if tok == eos {
                break;
            }
        }
        if accepted > best.len() {
            best = &path[..accepted];
        }
        if best.last() == Some(&eos) {
            break;
        }
    }
    let mut span = vec![base];
    span.extend_from_slice(best);
    span.truncate(syntax_keep_len(&span, special::FRAG, eos));
    span.truncate(remaining);
    span
}

fn argmax_of_distribution(logits: &[f32]) -> TokenId {
    verispec_lm::argmax(&softmax(logits))
}

fn hash_of(parts: impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    parts.hash(&mut h);
    h.finish()
}

/// A model whose head rows are fixed and whose base row at every context
/// is drawn from a hash of it: most of the time it favours one of the
/// next head's best tokens — so acceptance goes some levels deep — and
/// otherwise any token. Where acceptance goes is random, but a function
/// of the path.
struct Drawn {
    vocab: usize,
    prompt_len: usize,
    heads: Vec<Vec<f32>>,
    salt: u64,
}

impl LanguageModel for Drawn {
    fn vocab_size(&self) -> usize {
        self.vocab
    }

    fn n_extra_heads(&self) -> usize {
        self.heads.len()
    }

    fn logits(&self, prefix: &[TokenId]) -> Vec<f32> {
        let h = hash_of((self.salt, prefix));
        // Depth below the step's base token, for a first step.
        let head = prefix.len().checked_sub(self.prompt_len + 1);
        let favoured = match head.and_then(|d| self.heads.get(d)) {
            Some(row) if !h.is_multiple_of(3) => {
                let top = verispec_lm::top_k_indices(row, 4);
                top[(h / 3) as usize % top.len()]
            }
            _ => ((h / 3) % self.vocab as u64) as TokenId,
        };
        (0..self.vocab)
            .map(|t| {
                if t as TokenId == favoured {
                    1000.0
                } else {
                    (hash_of((h, t)) % 100) as f32
                }
            })
            .collect()
    }

    fn multi_logits(&self, prefix: &[TokenId]) -> Vec<Vec<f32>> {
        std::iter::once(self.logits(prefix))
            .chain(self.heads.iter().cloned())
            .collect()
    }
}

/// What a vocabulary entry may spell: bytes viable everywhere, bytes
/// viable only inside nesting, a based literal or a comment, bytes that
/// open those, and the byte-free entry a special is.
const SPELLINGS: [&[u8]; 14] = [
    b"a", b" ", b"z9", b"1", b"s", b"b", b"(", b")", b"]", b"}", b"'", b"\"", b"\x01", b"",
];

/// The step shapes under test: the benchmark's, ragged ones, a chain,
/// and two whose path cut lands inside a level (`[4, 4, 4]` and
/// `[5, 7]`).
fn shape_of(kind: usize) -> Option<Vec<usize>> {
    Some(match kind {
        0 => vec![2, 2],
        1 => vec![2, 2, 1],
        2 => vec![3, 2],
        3 => vec![4, 4, 4],
        4 => vec![5, 7],
        _ => return None,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random heads, vocabularies, spellings, prompts (so lexer states),
    /// shapes and acceptance outcomes, every step of a generation: on
    /// the nodes acceptance reached, the trie the engine named lazily is
    /// the trie of the eager [`grammar_tree`]; the span it commits is
    /// the one the unpruned engine commits from that tree; the step is
    /// charged its shape; and the filter's record adds up. Rows come
    /// peaked (distinct logits), coarse (a few distinct values: exact
    /// ties across the `k`-th entry and the window's edge) and flat
    /// (rank is index order); vocabularies run from shorter than any
    /// scan window to well past it. `lift` moves `[FRAG]` and `eos` to
    /// the top of every head or below every window.
    #[test]
    fn lazy_levels_name_the_eager_grammar_tree(
        vocab in 3usize..=48,
        n_heads in 1usize..=5,
        shape_kind in 0usize..6,
        row_kind in 0usize..3,
        lift in 0usize..3,
        eos_pick in any::<u32>(),
        salt in any::<u64>(),
        values in prop::collection::vec(0u32..1000, 5 * 48),
        spellings in prop::collection::vec(0usize..SPELLINGS.len(), 48),
        prompt in prop::collection::vec(0u32..48, 1..6),
    ) {
        let eos = if eos_pick % 4 == 0 { eos_pick % vocab as u32 } else { special::EOS };
        let lift = [0.0f32, 2000.0, -2000.0][lift];
        let heads: Vec<Vec<f32>> = (0..n_heads)
            .map(|level| {
                (0..vocab)
                    .map(|t| {
                        let v = values[level * 48 + t];
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
        let prompt: Vec<TokenId> = prompt.iter().map(|&t| t % vocab as TokenId).collect();
        let model = Drawn { vocab, prompt_len: prompt.len(), heads, salt };
        let cfg = DecodeConfig {
            max_tokens: 16,
            eos,
            tree: shape_of(shape_kind),
            ..Default::default()
        };
        let ranked: Vec<Vec<TokenId>> = model
            .heads
            .iter()
            .map(|row| verispec_lm::top_k_indices(row, vocab))
            .collect();
        let cost = GpuCostModel::codellama_like();
        let mut st = Stepper::new(&model, Engine::Grammar(cfg, &oracle), model.session(), &prompt);
        let mut state = oracle.advance_recovering(ViabilityState::new(), &prompt);
        let mut context = prompt.clone();
        // Acceptance is steered deep on the first step only; later
        // steps are checked against the oracles on whatever they drew.
        loop {
            let more = st.step(&cost);
            if st.output().trace.len() == context.len() - prompt.len() {
                break;
            }
            let shape = st.last_shape().clone();
            let step = *st.output().trace.last().expect("stepped");
            let span = st.output().spans().last().expect("stepped").to_vec();
            prop_assert_eq!(step.speculated, shape.candidate_tokens(), "charged its shape");
            let record = st.last_prune().expect("grammar steppers record what they filter");
            prop_assert_eq!(record.considered, record.pruned + record.surviving);
            let base = span[0];
            if step.speculated > 0 && base != eos {
                let widths: Vec<usize> = shape.level_widths().collect();
                let root = oracle.advance(state, base);
                let paths = grammar_tree(&ranked, &widths, &oracle, root);
                for (path, named) in st.reached_trie() {
                    prop_assert_eq!(
                        &named,
                        &children_in(&paths, &path),
                        "children of {:?} under {:?}",
                        path,
                        shape
                    );
                }
                let remaining = 16 - (st.output().tokens.len() - span.len());
                let want = unpruned_span(&model, &context, base, &paths, eos, remaining);
                prop_assert_eq!(&span, &want, "span of {:?}", shape);
            }
            state = oracle.advance_recovering(state, &span);
            context.extend_from_slice(&span);
            if !more {
                break;
            }
        }
    }

    /// The window's edge, placed: a head ranks its tokens in one known
    /// order, everything spells bytes that are not viable, and the one
    /// token that is — `[FRAG]`, byte-free — sits at rank `at`. At
    /// `k + GRAMMAR_SCAN_SLACK - 1` it is the window's last entry and
    /// must be named; one further it is outside, nothing in the window
    /// is viable, and the node must fall back to the unconstrained
    /// top-`k`. `decoys` viable tokens at the very top make the same
    /// entry the `k`-th viable one instead of the only one.
    #[test]
    fn the_scan_window_ends_where_the_definition_ends_it(
        k in 1usize..=4,
        offset in 0usize..=4,
        decoys in 0usize..=3,
    ) {
        let vocab = 40usize;
        let decoys = decoys.min(k - 1);
        let at = k + GRAMMAR_SCAN_SLACK - 2 + offset;
        // Rank `r` is token `(r + first) % vocab`, which puts `[FRAG]`
        // at rank `at`.
        let first = vocab + special::FRAG as usize - at;
        let token_at = |r: usize| ((r + first) % vocab) as TokenId;
        let mut row = vec![0.0f32; vocab];
        for r in 0..vocab {
            row[token_at(r) as usize] = (vocab - r) as f32;
        }
        // Inside a based literal's digits `1` is viable and `z9` is not.
        let mut table = vec![b"z9".to_vec(); vocab];
        for r in 0..decoys {
            table[token_at(r) as usize] = b"1".to_vec();
        }
        table[special::FRAG as usize] = Vec::new();
        let oracle = GrammarOracle::new(table);
        let state = state_after("4'b");
        let mut out = Vec::new();
        let record = viable_options(&mut Ranking::new(&row, k), k, &oracle, state, &mut out);
        let ranked: Vec<TokenId> = (0..vocab).map(token_at).collect();
        let want = grammar_tree(&[ranked], &[k], &oracle, state);
        prop_assert_eq!(&out, &want.iter().map(|p| p[0]).collect::<Vec<_>>());
        // The scan tests the whole window unless `[FRAG]` is in it and
        // is the `k`-th viable entry, where it stops.
        let named = decoys + usize::from(at < k + GRAMMAR_SCAN_SLACK);
        let tested = if named == k { at + 1 } else { k + GRAMMAR_SCAN_SLACK };
        prop_assert_eq!(
            record,
            PruneRecord { considered: tested, pruned: tested - named, surviving: named }
        );
    }
}

/// The state a byte prefix leaves the lexer in.
fn state_after(prefix: &str) -> ViabilityState {
    let mut state = ViabilityState::new();
    state.feed_str(prefix);
    state
}

/// A head of 24 logits ranked 6, 7, 8, …: every token spells `a`, so
/// every token is viable from a live state.
fn all_viable_head() -> (Vec<f32>, GrammarOracle) {
    let vocab = 24usize;
    let mut row = vec![0.0f32; vocab];
    for (r, t) in (6..vocab).enumerate() {
        row[t] = (vocab - r) as f32;
    }
    (row, GrammarOracle::new(vec![b"a".to_vec(); vocab]))
}

#[test]
fn viable_heads_are_ranked_one_past_their_width_and_no_deeper() {
    // Naming a whole level — four nodes here — from one ranking of its
    // head reads it one entry past the width, however many nodes ask.
    let (row, oracle) = all_viable_head();
    for k in [1, 2, 3] {
        let mut ranked = Ranking::new(&row, k);
        let mut out = Vec::new();
        for _ in 0..4 {
            let record = viable_options(&mut ranked, k, &oracle, ViabilityState::new(), &mut out);
            assert_eq!(out, (6..6 + k as TokenId).collect::<Vec<_>>());
            assert_eq!(
                (record.considered, record.pruned, record.surviving),
                (k, 0, k)
            );
        }
        assert_eq!(ranked.depth(), k + 1, "k + 1 at width {k}");
    }
}

#[test]
fn a_dead_state_ranks_exactly_the_fallback_and_scans_nothing() {
    let (row, oracle) = all_viable_head();
    let dead = state_after(")");
    assert!(dead.is_dead());
    for k in [1, 2, 3] {
        let mut ranked = Ranking::new(&row, k);
        let mut out = Vec::new();
        let record = viable_options(&mut ranked, k, &oracle, dead, &mut out);
        assert_eq!(out, (6..6 + k as TokenId).collect::<Vec<_>>());
        assert_eq!(record, PruneRecord::default(), "nothing tested");
        assert_eq!(ranked.depth(), k, "the k entries the fallback takes");
    }
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
            let mut row = vec![0.0f32; vocab];
            for (r, &t) in order.iter().enumerate() {
                row[t] = (vocab - r) as f32;
            }
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
                    constrain_base_token(tok, &row, &oracle, state, special::EOS),
                    reference(tok, &row, &oracle, state, special::EOS),
                    "at {at} vocab {vocab} tok {tok}"
                );
            }
        }
    }
}
