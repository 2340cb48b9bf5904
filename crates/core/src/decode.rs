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
use crate::step::{Engine, Stepper};
use serde::{Deserialize, Serialize};
use verispec_grammar::{GrammarOracle, PruneRecord, ViabilityState};
use verispec_lm::{DecodeClock, GpuCostModel, LanguageModel, Ranking, Sampling, TokenId};
use verispec_tokenizer::special;

/// Configuration for a decode run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodeConfig {
    /// Maximum number of generated tokens (excluding the prompt).
    pub max_tokens: usize,
    /// Sampling strategy for the base head's token. Heads always propose
    /// their deterministic top-k, under sampling too.
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

/// Per-step record for decode traces (Fig. 5): plain counts, so a
/// step's record is a fixed-size value and keeping it allocates
/// nothing. The step's tokens are its span of [`DecodeOutput::tokens`]
/// ([`DecodeOutput::spans`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepTrace {
    /// Tokens speculated by the heads this step (0 for NTP).
    pub speculated: usize,
    /// Tokens that passed acceptance (including the base token).
    pub accepted: usize,
    /// Tokens discarded by the syntax-integrity check.
    pub truncated: usize,
    /// Tokens actually committed this step: the length of the step's
    /// span of [`DecodeOutput::tokens`].
    pub committed: usize,
    /// Whether the committed span ends on a `[FRAG]` boundary — or in
    /// `eos`, which completes the fragment it cuts. One rule for every
    /// engine: an NTP step is the speculative step with the empty tree,
    /// so its one token is complete when it is `[FRAG]` or `eos`.
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

    /// Each step's committed span, in step order: the slices of
    /// [`DecodeOutput::tokens`] that the step traces' `committed` counts
    /// cut it into, so together they are `tokens`.
    ///
    /// # Panics
    ///
    /// While iterating, if the counts run past `tokens` (an output a
    /// decoder built always accounts for every token exactly).
    pub fn spans(&self) -> impl Iterator<Item = &[TokenId]> + '_ {
        let mut rest = self.tokens.as_slice();
        self.trace.iter().map(move |st| {
            let (span, tail) = rest.split_at(st.committed);
            rest = tail;
            span
        })
    }
}

/// Runs one generation of `engine` on `model` serially, from a fresh
/// session to its end: [`Stepper::new`], then [`Stepper::step`] until
/// it is done — the loop every serial engine is, so the serial path and
/// a scheduler-driven served path execute the same per-step code.
pub(crate) fn run_serial<'m>(
    model: &'m dyn LanguageModel,
    engine: Engine<'m>,
    prompt: &[TokenId],
    cost: &GpuCostModel,
) -> Stepper<'m> {
    let mut stepper = Stepper::new(model, engine, model.session(), prompt);
    while stepper.step(cost) {}
    stepper
}

/// Conventional next-token-prediction decoding (the NTP baseline):
/// [`Engine::Ntp`] run serially.
pub fn decode_ntp(
    model: &dyn LanguageModel,
    prompt: &[TokenId],
    cfg: &DecodeConfig,
    cost: &GpuCostModel,
) -> DecodeOutput {
    run_serial(model, Engine::Ntp(cfg.clone()), prompt, cost).into_output()
}

/// MEDUSA-style speculative decoding ([`Engine::Medusa`] run serially);
/// with `cfg.syntax_aligned` this is the paper's method ("Ours"),
/// otherwise the Medusa baseline.
///
/// Each step:
/// 1. one forward produces the base logits and keeps the trunk
///    activation every head is attached to;
/// 2. the base token is drawn (greedy or sampled) and always committed;
/// 3. each head proposes its next token(s), forming the candidate tree —
///    whose shape is known from the step's [`crate::SpecShape`] alone,
///    so head `d + 1` is evaluated (from the kept activation) only once
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
    run_serial(model, Engine::Medusa(cfg.clone()), prompt, cost).into_output()
}

/// Grammar-constrained speculative decoding ([`Engine::Grammar`] run
/// serially): the paper's syntax-aligned engine ("Ours") with an
/// incremental [`GrammarOracle`] offering only lexically-viable
/// continuations as candidates, instead of discarding dead speculation
/// only after verification.
///
/// Each step, relative to [`decode_speculative`]:
/// 1. the base token, once drawn, is substituted with the highest-ranked
///    *viable* token from the base logits when the draw itself would
///    kill the byte stream (one RNG draw either way, so the sampled
///    token sequence stays seed-deterministic);
/// 2. the candidate tree has the step's [`crate::SpecShape`] and grows a
///    level at a time, as the unconstrained one does: head `d + 1` is
///    evaluated only once acceptance reaches depth `d`, and then each
///    reached depth-`d` node's children are the first tokens of the
///    head's ranking viable from that node's own viability state
///    (`viable_options`), or the unconstrained top-k when nothing in
///    the scanned window is viable (so a dead oracle state degrades to
///    plain [`decode_speculative`] candidates);
/// 3. the step is charged its shape's
///    [`crate::SpecShape::candidate_tokens`], like every speculative
///    step, and commits by the same rule: the first longest accepted
///    path, cut at its last `[FRAG]` by the syntax-integrity check.
///
/// Syntax alignment is forced on: the engine speculates towards the
/// fragment boundaries that cut keeps.
pub fn decode_grammar_speculative(
    model: &dyn LanguageModel,
    oracle: &GrammarOracle,
    prompt: &[TokenId],
    cfg: &DecodeConfig,
    cost: &GpuCostModel,
) -> DecodeOutput {
    run_serial(model, Engine::Grammar(cfg.clone(), oracle), prompt, cost).into_output()
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
#[cfg(test)]
pub(crate) fn build_candidate_paths(
    heads: verispec_lm::ArenaRows<'_>,
    n_heads: usize,
    shape: &crate::policy::SpecShape,
) -> Vec<Vec<TokenId>> {
    let mut paths: Vec<Vec<TokenId>> = vec![Vec::new()];
    let mut options = Vec::new();
    for level in 0..shape.depth.min(n_heads) {
        let k = shape.widths.get(level).copied().unwrap_or(1).max(1);
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

/// How far past the requested width each head's ranking is scanned for
/// viable candidates before falling back to the unconstrained top-k.
pub(crate) const GRAMMAR_SCAN_SLACK: usize = 8;

/// How many ranked base-logit candidates are scanned when the drawn
/// base token is not lexically viable.
pub(crate) const GRAMMAR_BASE_SCAN: usize = 32;

/// Names the options of one grammar-tree node: the first `k` entries
/// of `ranked` — its level's head ranking — that are lexically viable
/// from the node's `state`, scanning the ranking's first
/// `k + GRAMMAR_SCAN_SLACK` entries (vocabulary permitting); when none
/// of them is viable, the unconstrained top `k` instead. Nothing is
/// viable from a dead state ([`GrammarOracle::viable`]), so a dead node
/// scans nothing and takes the top `k`. The ranking is read — and so
/// ranked — only as deep as the scan goes, and one ranking serves every
/// node of a level. Writes the options to `out` and returns what the
/// filter did: entries tested (`considered`), rejected (`pruned`) and
/// named as viable (`surviving`; none on a fallback).
pub(crate) fn viable_options(
    ranked: &mut Ranking<'_>,
    k: usize,
    oracle: &GrammarOracle,
    state: ViabilityState,
    out: &mut Vec<TokenId>,
) -> PruneRecord {
    out.clear();
    let mut considered = 0;
    if !state.is_dead() {
        for i in 0..k + GRAMMAR_SCAN_SLACK {
            let Some(t) = ranked.get(i) else { break };
            considered += 1;
            if oracle.viable(state, t) {
                out.push(t);
                if out.len() == k {
                    break;
                }
            }
        }
    }
    let surviving = out.len();
    if surviving == 0 {
        out.extend_from_slice(ranked.head(k));
    }
    PruneRecord {
        considered,
        pruned: considered - surviving,
        surviving,
    }
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
    use crate::step::tests::Cycle;
    use verispec_lm::{MlpLm, MlpLmConfig};

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
        // A model under which token 9 follows 8, then EOS.
        let cycle = Cycle(&[8, 9, special::EOS]);
        let cfg = DecodeConfig {
            max_tokens: 50,
            ..Default::default()
        };
        let out = decode_ntp(&cycle, &[8], &cfg, &GpuCostModel::codet5p_like());
        assert_eq!(out.tokens.last(), Some(&special::EOS));
        assert!(out.tokens.len() <= 3);
    }

    #[test]
    fn an_ntp_step_that_commits_eos_is_fragment_complete() {
        // One commit rule: a span ending in `eos` completes its
        // fragment, whichever engine committed it. A heads-free model's
        // speculative engine runs the empty tree every step, and is NTP
        // to the last trace bit.
        let cycle = Cycle(&[8, 9, special::EOS]);
        let cfg = DecodeConfig {
            max_tokens: 50,
            ..Default::default()
        };
        let cost = GpuCostModel::codet5p_like();
        let out = decode_ntp(&cycle, &[8], &cfg, &cost);
        assert_eq!(out.tokens, [9, special::EOS]);
        let complete: Vec<bool> = out.trace.iter().map(|st| st.fragment_complete).collect();
        assert_eq!(complete, [false, true]);
        assert_eq!(decode_speculative(&cycle, &[8], &cfg, &cost), out);
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
            if st.committed > 1 {
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
    fn a_step_trace_is_a_few_plain_counts() {
        // A step's record holds no tokens of its own (its span is a
        // range of the output's tokens), so keeping one is a fixed-size
        // copy: four counts and a flag.
        assert!(std::mem::size_of::<StepTrace>() <= 40);
    }

    #[test]
    fn trace_accounts_for_all_tokens() {
        let (model, seq) = cyclic_model(12, 4);
        let cfg = DecodeConfig {
            max_tokens: 16,
            ..Default::default()
        };
        let out = decode_speculative(&model, &seq[..4], &cfg, &GpuCostModel::codellama_like());
        let committed_total: usize = out.trace.iter().map(|t| t.committed).sum();
        assert_eq!(committed_total, out.tokens.len());
        for st in &out.trace {
            assert!(st.accepted >= st.committed);
            assert!(st.accepted - st.truncated >= st.committed);
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
        assert!(tree.trace[0].committed >= chain.trace[0].committed);
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
        let shape = |widths: &[usize], depth| crate::policy::SpecShape {
            widths: widths.to_vec(),
            depth,
        };
        let paths = super::build_candidate_paths(logits, 2, &shape(&[2, 1], 2));
        assert_eq!(paths, vec![vec![0, 2], vec![1, 2]]);
        let chain = super::build_candidate_paths(logits, 2, &shape(&[], 2));
        assert_eq!(chain, vec![vec![0, 2]]);
        // A shallower shape explores fewer head levels.
        let short = super::build_candidate_paths(logits, 2, &shape(&[], 1));
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
