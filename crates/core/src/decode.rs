//! Decoding engines: conventional next-token prediction, MEDUSA-style
//! multi-head speculation, and the paper's syntax-aligned variant
//! ("Ours") that truncates every committed span at a complete fragment
//! boundary (§III-B).
//!
//! All engines drive a [`verispec_lm::DecodeSession`] (the KV-cache
//! analogue): one session per generation, extended with committed
//! tokens, rolled back after rejected speculation, and asked to verify
//! the MEDUSA candidate tree **level by level**
//! ([`verispec_lm::DecodeSession::score_frontier`]): the root first,
//! then only the children of edges acceptance took — shared prefixes
//! scored once, a level per kernel call, and nothing forwarded that no
//! accepted token could read.
//!
//! All engines also run against the simulated GPU clock
//! ([`verispec_lm::GpuCostModel`]) so that tokens/second reflects the
//! paper's measurement model: one base-model forward per decoding step
//! plus a marginal cost per speculated candidate token *proposed* — a
//! GPU verifies the whole tree in one bandwidth-bound pass, so the
//! simulated clock does not care how few nodes this CPU forwards.

use crate::accept::TypicalAcceptance;
use crate::policy::{SpecPolicy, SpecShape};
use serde::{Deserialize, Serialize};
use verispec_grammar::{dead_tail_prune, GrammarOracle, PruneRecord, ViabilityState};
use verispec_lm::{
    ArenaRows, DecodeClock, GpuCostModel, LanguageModel, Ranking, Sampling, TokenId,
};
use verispec_tokenizer::special;

/// Configuration for a decode run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodeConfig {
    /// Maximum number of generated tokens (excluding the prompt).
    pub max_tokens: usize,
    /// Sampling strategy for the base head (and head proposals).
    pub sampling: Sampling,
    /// Typical-acceptance parameters (Eq. 1) used under sampling.
    pub acceptance: TypicalAcceptance,
    /// End-of-sequence token; generation stops after committing it.
    pub eos: TokenId,
    /// When true ("Ours"), truncate each committed span at the last
    /// complete fragment boundary (`[FRAG]` token).
    pub syntax_aligned: bool,
    /// RNG seed for sampling.
    pub seed: u64,
    /// Optional MEDUSA candidate tree: entry `i` is the number of
    /// candidates drawn from head `i+1`'s top-k (entry 0 applies to head
    /// 1). `None` uses the single top-1 chain. The committed span is the
    /// longest accepted prefix over all candidate paths (paper §III-B:
    /// "we maintain several candidates comprising the top-k predictions
    /// ... the final prediction is the longest accepted prefix").
    pub tree: Option<Vec<usize>>,
}

impl Default for DecodeConfig {
    fn default() -> Self {
        Self {
            max_tokens: 256,
            sampling: Sampling::Greedy,
            acceptance: TypicalAcceptance::default(),
            eos: special::EOS,
            syntax_aligned: false,
            seed: 0,
            tree: None,
        }
    }
}

/// Per-step record for decode traces (Fig. 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepTrace {
    /// Tokens speculated by the heads this step (0 for NTP).
    pub speculated: usize,
    /// Tokens that passed acceptance (including the base token).
    pub accepted: usize,
    /// Tokens discarded by the syntax-integrity check.
    pub truncated: usize,
    /// Tokens actually committed this step.
    pub committed: Vec<TokenId>,
    /// Whether the committed span ends on a `[FRAG]` boundary.
    pub fragment_complete: bool,
}

/// Result of a decode run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodeOutput {
    /// Generated tokens (prompt excluded, `[EOS]` included if reached).
    pub tokens: Vec<TokenId>,
    /// Number of decoding steps taken.
    pub steps: usize,
    /// Simulated GPU clock for the run.
    pub clock: DecodeClock,
    /// Per-step trace.
    pub trace: Vec<StepTrace>,
}

impl DecodeOutput {
    /// Generated tokens up to (excluding) the first `[EOS]`.
    ///
    /// Generation stops after committing `[EOS]`, so everything from the
    /// first occurrence on is dead weight (a speculated span can commit
    /// tokens after it within the same step); `[FRAG]` markers are kept
    /// for callers to strip via text-level defragmentation.
    pub fn tokens_without_eos(&self) -> Vec<TokenId> {
        let end = self
            .tokens
            .iter()
            .position(|&t| t == special::EOS)
            .unwrap_or(self.tokens.len());
        self.tokens[..end].to_vec()
    }
}

/// Conventional next-token-prediction decoding (the NTP baseline).
///
/// A thin loop over [`crate::step::Stepper`], so the serial path and a
/// scheduler-driven served path execute the same per-step code.
pub fn decode_ntp(
    model: &dyn LanguageModel,
    prompt: &[TokenId],
    cfg: &DecodeConfig,
    cost: &GpuCostModel,
) -> DecodeOutput {
    let mut stepper = crate::step::Stepper::ntp(model, prompt, cfg.clone());
    while stepper.step(cost) {}
    stepper.into_output()
}

/// MEDUSA-style speculative decoding; with `cfg.syntax_aligned` this is
/// the paper's method ("Ours"), otherwise the Medusa baseline.
///
/// Each step:
/// 1. one forward produces the base logits and keeps the trunk
///    activation every head is attached to;
/// 2. the base token is drawn (greedy or sampled) and always committed;
/// 3. each head proposes its next token(s), forming the candidate tree —
///    whose shape is known from the step's [`SpecShape`] alone, so head
///    `d + 1` is evaluated (from the kept activation) only once
///    acceptance has reached depth `d`;
/// 4. the tree is verified level by level, left to right — exact-match
///    under greedy decoding (lossless), Eq.-1 typical acceptance under
///    sampling — each path cut at its first rejection and only the
///    nodes behind accepted edges ever forwarded
///    ([`crate::step::Stepper::verify_level`]);
/// 5. with syntax alignment, the accepted span is additionally truncated
///    at the last `[FRAG]` boundary (the integrity check of §III-B).
pub fn decode_speculative(
    model: &dyn LanguageModel,
    prompt: &[TokenId],
    cfg: &DecodeConfig,
    cost: &GpuCostModel,
) -> DecodeOutput {
    let mut stepper = crate::step::Stepper::speculative(model, prompt, cfg.clone());
    while stepper.step(cost) {}
    stepper.into_output()
}

/// [`decode_speculative`] under an explicit speculation policy: each
/// step's candidate-tree shape is the policy's decision over the
/// generation's own acceptance history instead of the frozen
/// `cfg.tree`. With [`crate::policy::StaticPolicy`] this is exactly
/// [`decode_speculative`]; with [`crate::policy::AdaptivePolicy`] it is
/// the serial reference a policy-driven serving engine is
/// token-identical to.
pub fn decode_speculative_with_policy(
    model: &dyn LanguageModel,
    prompt: &[TokenId],
    cfg: &DecodeConfig,
    cost: &GpuCostModel,
    policy: &dyn SpecPolicy,
) -> DecodeOutput {
    let mut stepper =
        crate::step::Stepper::speculative(model, prompt, cfg.clone()).with_policy(policy);
    while stepper.step(cost) {}
    stepper.into_output()
}

/// Grammar-constrained speculative decoding: the paper's syntax-aligned
/// engine ("Ours") with an incremental [`GrammarOracle`] pruning the
/// candidate tree to lexically-viable continuations at **propose** time
/// instead of discarding dead speculation only after verification.
///
/// Each step, relative to [`decode_speculative`]:
/// 1. the base token, once drawn, is substituted with the highest-ranked
///    *viable* token from the base logits when the draw itself would
///    kill the byte stream (one RNG draw either way, so the sampled
///    token sequence stays seed-deterministic);
/// 2. tree construction filters each head's top-k to viable
///    continuations of each candidate path's own viability state,
///    falling back to the unconstrained top-k when nothing in the
///    scanned window is viable (a dead oracle state therefore degrades
///    bit-identically to plain [`decode_speculative`] construction);
/// 3. built paths are dead-tail pruned
///    ([`verispec_grammar::dead_tail_prune`]): tails past the last
///    `[FRAG]`/`[EOS]` can never survive the post-hoc syntax cut, so
///    they are never sent to verification; freed candidate slots are
///    re-spent widening the surviving branches within the step's
///    original [`SpecShape::candidate_tokens`] budget.
///
/// Syntax alignment is forced on: the oracle's soundness argument is
/// stated against the post-hoc fragment-integrity cut.
pub fn decode_grammar_speculative(
    model: &dyn LanguageModel,
    oracle: &GrammarOracle,
    prompt: &[TokenId],
    cfg: &DecodeConfig,
    cost: &GpuCostModel,
) -> DecodeOutput {
    let mut stepper = crate::step::Stepper::grammar_speculative(model, oracle, prompt, cfg.clone());
    while stepper.step(cost) {}
    stepper.into_output()
}

/// Maximum number of candidate paths explored per step in tree mode.
pub(crate) const MAX_CANDIDATE_PATHS: usize = 32;

/// The whole candidate tree of one step, built eagerly from per-head
/// logits (row `i` of `heads` is head `i + 1`'s; only the explored
/// levels' rows need exist) — the **definition** the engines' lazily
/// grown tree is tested against: a non-grammar step builds its trie
/// from the shape alone ([`verispec_lm::NodeMap::build_shape`]) and
/// names a level's tokens only when acceptance reaches it, which must
/// commit what verifying these paths would.
///
/// # Panics
///
/// Panics on [`SpecShape::Draft`]: draft blocks are proposed by the
/// draft model, not built from head logits.
#[cfg(test)]
pub(crate) fn build_candidate_paths(
    heads: ArenaRows<'_>,
    n_heads: usize,
    shape: &SpecShape,
) -> Vec<Vec<TokenId>> {
    match shape {
        SpecShape::Chain { depth } => vec![(0..(*depth).min(n_heads))
            .map(|level| verispec_lm::argmax(heads.row(level)))
            .collect()],
        SpecShape::Tree { widths, depth } => {
            let depth = (*depth).min(n_heads);
            let mut paths: Vec<Vec<TokenId>> = vec![Vec::new()];
            let mut options = Vec::new();
            for level in 0..depth {
                let k = widths.get(level).copied().unwrap_or(1).max(1);
                verispec_lm::top_k_into(heads.row(level), k, &mut options);
                let mut next = Vec::with_capacity(paths.len() * options.len());
                'grow: for p in &paths {
                    for &opt in &options {
                        let mut q = p.clone();
                        q.push(opt);
                        next.push(q);
                        if next.len() >= MAX_CANDIDATE_PATHS {
                            break 'grow;
                        }
                    }
                }
                paths = next;
            }
            paths
        }
        SpecShape::Draft { .. } => {
            unreachable!("draft blocks are proposed by the draft model, not built from head logits")
        }
    }
}

/// How far past the requested width each head's ranking is scanned for
/// viable candidates before falling back to the unconstrained top-k.
pub(crate) const GRAMMAR_SCAN_SLACK: usize = 8;

/// How many ranked base-logit candidates are scanned when the drawn
/// base token is not lexically viable.
pub(crate) const GRAMMAR_BASE_SCAN: usize = 32;

/// Maximum widening retries after pruning frees candidate slots.
pub(crate) const GRAMMAR_WIDEN_ROUNDS: usize = 3;

/// The per-level candidate widths of a [`SpecShape`] that fits its
/// model ([`SpecShape::clamp`]): one entry per explored level, a
/// chain being the width-1 tree.
pub(crate) fn level_widths(shape: &SpecShape) -> impl Iterator<Item = usize> + Clone + '_ {
    let (widths, depth): (&[usize], usize) = match shape {
        SpecShape::Chain { depth } => (&[], *depth),
        SpecShape::Tree { widths, depth } => (widths, *depth),
        SpecShape::Draft { .. } => {
            unreachable!("draft blocks are proposed by the draft model, not built from head logits")
        }
    };
    (0..depth).map(|level| widths.get(level).copied().unwrap_or(1).max(1))
}

/// Grows one candidate tree, filtering each level's ranked options to
/// tokens lexically viable after the candidate path built so far.
/// `ranked[level]` is that level's head ranking and `widths[level] +
/// extra` its width `k`: each path takes the first `k` viable entries
/// of the ranking's first `k + GRAMMAR_SCAN_SLACK` (vocabulary
/// permitting), reading the ranking — and so ranking the head — only as
/// far as that takes it. Each path carries its own [`ViabilityState`];
/// when no token in the scanned window is viable, the path falls back
/// to the unconstrained top-`k` — reproducing the unconstrained tree's
/// ordering and 32-path cap exactly. Nothing is viable from a dead
/// state ([`GrammarOracle::viable`]), so a dead path scans nothing and
/// its head is ranked exactly `k` deep.
///
/// A path is one allocation, made when it branches off: the last
/// option of a path takes the path itself.
fn grammar_tree(
    ranked: &mut [Ranking<'_>],
    widths: &[usize],
    extra: usize,
    oracle: &GrammarOracle,
    state: ViabilityState,
) -> Vec<Vec<TokenId>> {
    let depth = widths.len();
    let mut paths: Vec<(Vec<TokenId>, ViabilityState)> = vec![(Vec::with_capacity(depth), state)];
    let mut next = Vec::new();
    let mut viable: Vec<TokenId> = Vec::new();
    for (ranked, &width) in ranked.iter_mut().zip(widths) {
        let k = width + extra;
        'grow: for (mut p, st) in paths.drain(..) {
            viable.clear();
            if !st.is_dead() {
                for i in 0..k + GRAMMAR_SCAN_SLACK {
                    let Some(t) = ranked.get(i) else { break };
                    if oracle.viable(st, t) {
                        viable.push(t);
                        if viable.len() == k {
                            break;
                        }
                    }
                }
            }
            let chosen: &[TokenId] = if viable.is_empty() {
                ranked.head(k)
            } else {
                &viable
            };
            for (i, &opt) in chosen.iter().enumerate() {
                let mut q = if i + 1 == chosen.len() {
                    std::mem::take(&mut p)
                } else {
                    let mut q = Vec::with_capacity(depth);
                    q.extend_from_slice(&p);
                    q
                };
                q.push(opt);
                next.push((q, oracle.advance(st, opt)));
                if next.len() >= MAX_CANDIDATE_PATHS {
                    break 'grow;
                }
            }
        }
        std::mem::swap(&mut paths, &mut next);
    }
    paths.into_iter().map(|(p, _)| p).collect()
}

/// Builds the candidate paths for one step of the grammar-constrained
/// engine: viability-filtered tree construction ([`grammar_tree`]),
/// dead-tail pruning, then up to [`GRAMMAR_WIDEN_ROUNDS`] widening
/// retries that re-spend freed candidate slots on wider levels — the
/// widest rebuild still fitting the shape's original
/// [`SpecShape::candidate_tokens`] budget wins, so a policy's budget
/// accounting (`shrink_to`, per-tick budgets) stays an upper bound on
/// what is actually verified.
///
/// Row `i` of `heads` is head `i + 1`'s, one per level of `shape` —
/// which must fit the model ([`SpecShape::clamp`]). Every level's
/// tokens are named before anything is pruned or widened, which is why
/// this engine cannot grow its tree a level at a time the way the
/// unconstrained ones do: it needs every head's *row*. A head's
/// *ranking* it only reads ([`Ranking`]): each level's is ranked as
/// deep as the tree's scans walk it — one past the level's width when
/// the head's top tokens are viable, which is nearly always — and every
/// widening round reads on in the same ranking.
pub(crate) fn build_grammar_candidate_paths(
    heads: ArenaRows<'_>,
    shape: &SpecShape,
    oracle: &GrammarOracle,
    state: ViabilityState,
    eos: TokenId,
) -> (Vec<Vec<TokenId>>, PruneRecord) {
    let widths: Vec<usize> = level_widths(shape).collect();
    let mut ranked: Vec<Ranking<'_>> = widths
        .iter()
        .enumerate()
        .map(|(level, &k)| Ranking::new(heads.row(level), k))
        .collect();
    widest_tree_within(
        shape.candidate_tokens(),
        &mut ranked,
        &widths,
        oracle,
        state,
        eos,
    )
}

/// [`build_grammar_candidate_paths`] on rankings the caller holds: the
/// pruned tree, and its widest widening that still fits `budget`.
fn widest_tree_within(
    budget: usize,
    ranked: &mut [Ranking<'_>],
    widths: &[usize],
    oracle: &GrammarOracle,
    state: ViabilityState,
    eos: TokenId,
) -> (Vec<Vec<TokenId>>, PruneRecord) {
    let mut paths = grammar_tree(ranked, widths, 0, oracle, state);
    let mut record = dead_tail_prune(&mut paths, special::FRAG, eos);
    for extra in 1..=GRAMMAR_WIDEN_ROUNDS {
        if record.surviving >= budget {
            break;
        }
        let mut wide_paths = grammar_tree(ranked, widths, extra, oracle, state);
        let wide_record = dead_tail_prune(&mut wide_paths, special::FRAG, eos);
        if wide_record.surviving > record.surviving && wide_record.surviving <= budget {
            paths = wide_paths;
            record = wide_record;
        }
    }
    (paths, record)
}

/// Substitutes a non-viable drawn base token with the highest-ranked
/// viable token from the base logits (reading [`GRAMMAR_BASE_SCAN`]
/// entries of their ranking at most). `[EOS]` is always kept, a dead
/// oracle state keeps the original draw (nothing is viable from a dead
/// state), and only lexically-informative tokens are substituted in:
/// byte-free specials are trivially "viable" but carry no lexical
/// evidence, so steering into them would replace the model's draw with
/// noise. When no informative viable token is ranked, the original draw
/// stands.
pub(crate) fn constrain_base_token(
    tok: TokenId,
    base_logits: &[f32],
    oracle: &GrammarOracle,
    state: ViabilityState,
    eos: TokenId,
) -> TokenId {
    if tok == eos || state.is_dead() || oracle.viable(state, tok) {
        return tok;
    }
    let mut ranked = Ranking::new(base_logits, 1);
    (0..GRAMMAR_BASE_SCAN)
        .map_while(|i| ranked.get(i))
        .find(|&cand| !oracle.token_bytes(cand).is_empty() && oracle.viable(state, cand))
        .unwrap_or(tok)
}

/// Convenience dispatcher used by the evaluation harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DecodeMethod {
    /// Conventional next-token prediction.
    Ntp,
    /// MEDUSA-2 speculative decoding (no syntax alignment).
    Medusa,
    /// The paper's syntax-aligned speculative decoding.
    Ours,
}

impl DecodeMethod {
    /// Human-readable name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            DecodeMethod::Ntp => "NTP",
            DecodeMethod::Medusa => "Medusa",
            DecodeMethod::Ours => "Ours",
        }
    }

    /// Runs the decode engine this method denotes.
    pub fn decode(
        &self,
        model: &dyn LanguageModel,
        prompt: &[TokenId],
        cfg: &DecodeConfig,
        cost: &GpuCostModel,
    ) -> DecodeOutput {
        match self {
            DecodeMethod::Ntp => decode_ntp(model, prompt, cfg, cost),
            DecodeMethod::Medusa => {
                let cfg = DecodeConfig {
                    syntax_aligned: false,
                    ..cfg.clone()
                };
                decode_speculative(model, prompt, &cfg, cost)
            }
            DecodeMethod::Ours => {
                let cfg = DecodeConfig {
                    syntax_aligned: true,
                    ..cfg.clone()
                };
                decode_speculative(model, prompt, &cfg, cost)
            }
        }
    }
}

#[cfg(test)]
mod grammar_parity_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use verispec_lm::{MlpLm, MlpLmConfig, NgramLm};

    /// Trains a tiny MLP on a fixed cycle so decoding is predictable.
    fn cyclic_model(vocab: usize, period: usize) -> (MlpLm, Vec<TokenId>) {
        let cfg = MlpLmConfig {
            vocab,
            d_emb: 8,
            d_hidden: 16,
            context: 4,
            n_heads: 4,
            seed: 5,
        };
        let mut model = MlpLm::new(cfg);
        let mut opt = model.optimizer();
        let mut grads = model.zero_grads();
        let seq: Vec<TokenId> = (0..120).map(|i| 6 + (i % period) as TokenId).collect();
        for _ in 0..120 {
            grads.reset();
            for pos in 0..seq.len() - 5 {
                let w = model.window(&seq[..=pos]);
                let mut targets = vec![(0usize, seq[pos + 1], 1.0f32)];
                for h in 1..=4usize {
                    targets.push((h, seq[pos + 1 + h], 0.2 * 0.8f32.powi(h as i32)));
                }
                model.accumulate_position(&mut grads, &w, &targets);
            }
            model.adam_step(&mut opt, &grads, 5e-3, 4.0);
        }
        (model, seq)
    }

    #[test]
    fn ntp_decodes_learned_cycle() {
        let (model, seq) = cyclic_model(12, 3);
        let cfg = DecodeConfig {
            max_tokens: 9,
            ..Default::default()
        };
        let out = decode_ntp(&model, &seq[..4], &cfg, &GpuCostModel::codellama_like());
        assert_eq!(out.tokens.len(), 9);
        assert_eq!(out.steps, 9, "NTP commits one token per step");
        // Continues the cycle 6,7,8,6,7,8...
        let expect: Vec<TokenId> = (0..9).map(|i| 6 + ((i + 4) % 3) as TokenId).collect();
        assert_eq!(out.tokens, expect);
    }

    #[test]
    fn speculative_greedy_matches_ntp_greedy() {
        // Losslessness: greedy speculative decoding must produce exactly
        // the greedy NTP token stream (acceptance = exact match).
        let (model, seq) = cyclic_model(12, 3);
        let cost = GpuCostModel::codellama_like();
        let cfg = DecodeConfig {
            max_tokens: 12,
            ..Default::default()
        };
        let ntp = decode_ntp(&model, &seq[..4], &cfg, &cost);
        let med = decode_speculative(&model, &seq[..4], &cfg, &cost);
        assert_eq!(ntp.tokens, med.tokens);
        assert!(
            med.steps < ntp.steps,
            "speculation must save steps on a learned cycle"
        );
    }

    #[test]
    fn speculative_clock_is_faster_despite_overhead() {
        let (model, seq) = cyclic_model(12, 3);
        let cost = GpuCostModel::codellama_like();
        let cfg = DecodeConfig {
            max_tokens: 30,
            ..Default::default()
        };
        let ntp = decode_ntp(&model, &seq[..4], &cfg, &cost);
        let med = decode_speculative(&model, &seq[..4], &cfg, &cost);
        assert_eq!(ntp.tokens, med.tokens);
        assert!(med.clock.tokens_per_second() > ntp.clock.tokens_per_second());
    }

    #[test]
    fn ntp_stops_at_eos() {
        // An n-gram model trained so that token 9 follows 8, then EOS.
        let mut ng = NgramLm::new(2, 12);
        let seq = vec![8u32, 9, special::EOS];
        for _ in 0..10 {
            ng.train_sequence(&seq);
        }
        let cfg = DecodeConfig {
            max_tokens: 50,
            ..Default::default()
        };
        let out = decode_ntp(&ng, &[8], &cfg, &GpuCostModel::codet5p_like());
        assert_eq!(out.tokens.last(), Some(&special::EOS));
        assert!(out.tokens.len() <= 3);
    }

    #[test]
    fn syntax_alignment_truncates_at_frag() {
        // Cycle includes FRAG (id 3): ... 6 7 FRAG 6 7 FRAG ...
        let cfg_m = MlpLmConfig {
            vocab: 10,
            d_emb: 8,
            d_hidden: 16,
            context: 4,
            n_heads: 4,
            seed: 9,
        };
        let mut model = MlpLm::new(cfg_m);
        let mut opt = model.optimizer();
        let mut grads = model.zero_grads();
        let pat = [6u32, 7, special::FRAG];
        let seq: Vec<TokenId> = (0..120).map(|i| pat[i % 3]).collect();
        for _ in 0..120 {
            grads.reset();
            for pos in 0..seq.len() - 5 {
                let w = model.window(&seq[..=pos]);
                let mut targets = vec![(0usize, seq[pos + 1], 1.0f32)];
                for h in 1..=4usize {
                    targets.push((h, seq[pos + 1 + h], 0.2));
                }
                model.accumulate_position(&mut grads, &w, &targets);
            }
            model.adam_step(&mut opt, &grads, 5e-3, 4.0);
        }
        let cost = GpuCostModel::codellama_like();
        let cfg = DecodeConfig {
            max_tokens: 12,
            syntax_aligned: true,
            ..Default::default()
        };
        let out = decode_speculative(&model, &seq[..3], &cfg, &cost);
        // Every multi-token step must end on a fragment boundary.
        for st in &out.trace {
            if st.committed.len() > 1 {
                assert!(
                    st.fragment_complete,
                    "multi-token step not fragment-complete: {st:?}"
                );
            }
        }
        // And the greedy stream still matches NTP (truncation only delays).
        let ntp = decode_ntp(&model, &seq[..3], &cfg, &cost);
        assert_eq!(out.tokens, ntp.tokens);
    }

    #[test]
    fn trace_accounts_for_all_tokens() {
        let (model, seq) = cyclic_model(12, 4);
        let cfg = DecodeConfig {
            max_tokens: 16,
            ..Default::default()
        };
        let out = decode_speculative(&model, &seq[..4], &cfg, &GpuCostModel::codellama_like());
        let committed_total: usize = out.trace.iter().map(|t| t.committed.len()).sum();
        assert_eq!(committed_total, out.tokens.len());
        for st in &out.trace {
            assert!(st.accepted >= st.committed.len());
            assert!(st.accepted - st.truncated >= st.committed.len());
        }
    }

    #[test]
    fn sampling_decode_is_seed_deterministic() {
        let (model, seq) = cyclic_model(12, 3);
        let cost = GpuCostModel::codellama_like();
        let cfg = DecodeConfig {
            max_tokens: 20,
            sampling: Sampling::temperature(0.8),
            seed: 11,
            ..Default::default()
        };
        let a = decode_speculative(&model, &seq[..4], &cfg, &cost);
        let b = decode_speculative(&model, &seq[..4], &cfg, &cost);
        assert_eq!(a.tokens, b.tokens);
    }

    #[test]
    fn method_dispatcher_covers_all() {
        let (model, seq) = cyclic_model(12, 3);
        let cost = GpuCostModel::codellama_like();
        let cfg = DecodeConfig {
            max_tokens: 6,
            ..Default::default()
        };
        for m in [DecodeMethod::Ntp, DecodeMethod::Medusa, DecodeMethod::Ours] {
            let out = m.decode(&model, &seq[..4], &cfg, &cost);
            assert!(!out.tokens.is_empty(), "{}", m.name());
        }
    }

    #[test]
    fn tree_candidates_remain_lossless_and_never_slower() {
        let (model, seq) = cyclic_model(12, 3);
        let cost = GpuCostModel::codellama_like();
        let base_cfg = DecodeConfig {
            max_tokens: 24,
            ..Default::default()
        };
        let ntp = decode_ntp(&model, &seq[..4], &base_cfg, &cost);
        let chain = decode_speculative(&model, &seq[..4], &base_cfg, &cost);
        let tree_cfg = DecodeConfig {
            tree: Some(vec![3, 2, 2, 1]),
            ..base_cfg
        };
        let tree = decode_speculative(&model, &seq[..4], &tree_cfg, &cost);
        assert_eq!(ntp.tokens, tree.tokens, "tree greedy must stay lossless");
        assert!(tree.steps <= ntp.steps, "tree cannot be slower than NTP");
        // The first step starts from the same position as the chain's, so
        // the per-step guarantee holds there: at least as many tokens
        // committed, at least as many candidates paid for.
        assert!(tree.trace[0].committed.len() >= chain.trace[0].committed.len());
        assert!(
            tree.trace[0].speculated >= chain.trace[0].speculated,
            "tree must evaluate at least as many candidate tokens"
        );
    }

    #[test]
    fn candidate_path_construction() {
        let mut arena = verispec_lm::LogitsArena::new();
        arena.push_row(&[9.0, 1.0, 0.0, 0.0]); // head 1: top-2 = [0, 1]
        arena.push_row(&[0.0, 0.0, 3.0, 2.0]); // head 2: top-1 = [2]
        let logits = arena.rows_from(0);
        let tree = SpecShape::Tree {
            widths: vec![2, 1],
            depth: 2,
        };
        let paths = super::build_candidate_paths(logits, 2, &tree);
        assert_eq!(paths, vec![vec![0, 2], vec![1, 2]]);
        let chain = super::build_candidate_paths(logits, 2, &SpecShape::Chain { depth: 2 });
        assert_eq!(chain, vec![vec![0, 2]]);
        // A shallower shape explores fewer head levels.
        let short = super::build_candidate_paths(logits, 2, &SpecShape::Chain { depth: 1 });
        assert_eq!(short, vec![vec![0]]);
    }

    #[test]
    fn max_tokens_is_respected_mid_speculation() {
        let (model, seq) = cyclic_model(12, 3);
        let cfg = DecodeConfig {
            max_tokens: 5,
            ..Default::default()
        };
        let out = decode_speculative(&model, &seq[..4], &cfg, &GpuCostModel::codellama_like());
        assert!(out.tokens.len() <= 5);
    }
}
