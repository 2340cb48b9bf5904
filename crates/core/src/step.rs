//! Step-granular decoding: the scheduler-facing decomposition of the
//! engines in [`crate::decode`] and [`crate::draft`].
//!
//! A [`Stepper`] owns one generation's sessions, sampler, and output,
//! and advances it **one decoding step at a time** through three
//! phases:
//!
//! 1. **propose** ([`Stepper::propose`]) — open the step at the
//!    current position's base row (the trunk activation every Medusa
//!    head is attached to kept beside it), draw the base token, and lay
//!    out the step's candidate trie or draft block. A MEDUSA step
//!    rarely *forwards* that position: the node its predecessor's
//!    committed span ended at is this position, the predecessor's
//!    verification forwarded it, and commit **carried** its row,
//!    activation and — under sampling — the support of its tempered
//!    softmax over (see phase 3), so the base token is drawn from what
//!    acceptance already normalised
//!    ([`verispec_lm::Sampler::draw_support`]), with the same one RNG
//!    call. The step forwards
//!    ([`verispec_lm::DecodeSession::base_row_into`], or a server's
//!    fused pass after [`Stepper::embed_plan`]) only when nothing was
//!    carried: a generation's first step, after a span that ended at a
//!    full path's leaf (never forwarded), after
//!    [`Stepper::park`]/[`Stepper::unpark`], and always on a session
//!    whose scored rows cannot serve head rows
//!    ([`verispec_lm::DecodeSession::keeps_frontier_rows`]). For the MEDUSA
//!    engines the trie is a function of the step's *shape* alone —
//!    level `d + 1` offers head `d + 1`'s top-k at this position under
//!    every depth-`d` node — so it is built without tokens
//!    ([`verispec_lm::NodeMap::build_shape`], reused while the shape
//!    repeats) and **no head is evaluated yet**. The grammar engine
//!    names every level's tokens before it prunes and widens, so it
//!    asks for all its heads' *rows* here, from the same kept
//!    activation — unless the step ends at its base token — and ranks
//!    each row only as deep as its tree's scans read it
//!    ([`verispec_lm::Ranking`]). Returns which [`Phase`] the step
//!    needs next.
//! 2. **verify** ([`Stepper::verify_level`]) — one call per **level**
//!    of the candidate tree: consume the level just scored (run
//!    acceptance on those nodes' child edges), then plan the children
//!    whose edge was accepted. Under sampling a scored node's tempered
//!    softmax is held as its **support**
//!    ([`verispec_lm::matrix::tempered_support_into`]: the entries whose
//!    `exp` is non-zero, tens of a cold row's hundreds, and the dense
//!    row's normalisers bit for bit); an edge's probability, Eq. 1's
//!    entropy threshold and the next base draw are all read off it, and
//!    no dense row is normalised. A node is embedded and forwarded only
//!    once acceptance has reached it, and head `d + 1` is evaluated —
//!    its top-k naming the tokens on level `d + 1`'s edges — only once
//!    a depth-`d` node is, so a step costs what its accepted prefix
//!    costs, not what its proposed tree would: `1 + levels reached`
//!    head rows instead of `1 + depth`. The stepper
//!    either scores each level on its own session (what the serial
//!    engines do) or plans it into a shared [`verispec_lm::VerifyPlan`]
//!    that a server executes for its whole batch in one
//!    [`verispec_lm::verify_many`] pass per level, the level's head row
//!    riding the same pass. NTP is the root-only
//!    tree (the "edge test" draws the token); draft-verify is the
//!    one-path tree whose edge test is the rejection rule, its RNG
//!    draws in position order because levels are positions.
//! 3. **commit** ([`Stepper::commit`]) — pick the committed span from
//!    the accepted edges, apply the syntax-integrity truncation,
//!    advance the simulated clock, and extend the session with it (no
//!    rollback: a verified step's session holds the base token and
//!    verification leaves the context alone). A MEDUSA step then finds
//!    the node the span ends at *as committed* — after syntax and
//!    budget truncation; the root for a base-token-only span — and, if
//!    verification scored it, copies its row (and activation, and
//!    support) into the stepper's one-row carry: the next step's
//!    base, already computed. A span that ends in `eos`, at a full
//!    path's leaf or at the token budget carries nothing, nor does a
//!    step that verified nothing. The carry is a cache of what a
//!    forward would compute, bit for bit — outputs, traces and the
//!    clock cannot tell (`carried_base_equals_forwarded_base`). The
//!    clock is charged for the tree that was *proposed*
//!    ([`crate::policy::SpecShape::candidate_tokens`] of the step's
//!    shape; the grammar engine's pruned tree): it prices the paper's
//!    one-pass GPU step, whatever this CPU chose to forward or
//!    evaluate. The two differ on a step whose base token is `eos`:
//!    an unconstrained engine is still charged its shape (known before
//!    the token is drawn), the grammar engine builds no tree there and
//!    is charged 0 candidates (pinned by
//!    `a_grammar_step_ending_at_eos_is_charged_what_it_built_nothing`).
//!
//! Logits never change hands as owned vectors: every phase reads
//! borrowed rows of a [`verispec_lm::LogitsArena`]
//! ([`verispec_lm::ArenaRows`]) — the stepper's own scratch arena on
//! the serial path, the server's per-tick arena on the fused one — and
//! the stepper's [`verispec_lm::NodeMap`] holds the step's candidate
//! trie, which row each scored node reads and which nodes are asked for
//! next. A node's child edges are tested back to back the moment its
//! row exists, so acceptance normalises each node once, however many
//! paths run through it.
//!
//! The serial convenience [`Stepper::step`] chains the three phases
//! (looping the middle one to the last level), and the public engines (`decode_ntp`, `decode_speculative`,
//! `decode_draft_speculative`) are thin loops over it — so the serial
//! path and a scheduler-driven path execute **the same code** and
//! produce bit-identical token streams (the inference kernel
//! guarantees bit-identical logits regardless of batch composition).
//!
//! Between steps a stepper is always at its *committed* context —
//! verification never leaves a speculative append behind — which is
//! what makes [`Stepper::park`]/[`Stepper::unpark`] (rollback-aware
//! preemption) safe: parking drops the sessions (and the carried base,
//! a cache that belongs to them), and unparking rebuilds them by
//! replaying `prompt + generated tokens` into fresh sessions, an exact
//! reconstruction because sessions are pure functions of their token
//! context.
//!
//! **How much speculation each step buys** is decided by a
//! [`crate::policy::SpecPolicy`]: every propose asks the policy for
//! the step's [`crate::policy::SpecShape`] (tree widths/depth or draft
//! γ) given the generation's own [`crate::policy::AcceptHistory`],
//! which the stepper records at every commit and preserves across
//! park/unpark. The default static policy reproduces the configured
//! shape bit-identically; a serving engine may instead *pin* the shape
//! it budgeted for ([`Stepper::pin_shape`]) so per-tick capacity
//! accounting and the built candidate paths agree exactly.

use crate::accept::TypicalAcceptance;
use crate::decode::{
    build_grammar_candidate_paths, constrain_base_token, level_widths, DecodeConfig, DecodeOutput,
    StepTrace, MAX_CANDIDATE_PATHS,
};
use crate::draft::{tempered, DraftConfig, DraftStats};
use crate::policy::{AcceptHistory, ShapeQuery, SpecPolicy, SpecShape, STATIC_POLICY};
use verispec_grammar::{syntax_keep_len, GrammarOracle, PruneRecord, ViabilityState};
use verispec_lm::matrix::{softmax, softmax_in_place, tempered_support_into};
use verispec_lm::{
    argmax, top_k_into, ArenaRows, DecodeClock, DecodeSession, GpuCostModel, LanguageModel,
    LogitsArena, NodeMap, Sampler, Sampling, TokenId, VerifyPlan,
};
use verispec_tokenizer::special;

/// What a pending step needs next, as reported by [`Stepper::propose`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The step has a candidate tree to verify: call
    /// [`Stepper::verify_level`] until it returns `false`, then
    /// [`Stepper::commit`].
    Verify,
    /// Nothing to verify this step; call [`Stepper::commit`].
    Commit,
    /// The generation has finished; the stepper will make no further
    /// progress.
    Done,
}

/// Engine-specific configuration and state.
enum EngineBody {
    /// Conventional next-token prediction.
    Ntp { cfg: DecodeConfig },
    /// MEDUSA-style self-speculation (chain, tree, or syntax-aligned,
    /// per the [`DecodeConfig`]).
    Spec { cfg: DecodeConfig, n_heads: usize },
    /// Classical draft-model speculation.
    Draft { cfg: DraftConfig, stats: DraftStats },
}

/// The in-flight state of one step between propose and commit.
enum Pending {
    /// NTP: the token, once the root's row has been consumed.
    Ntp { tok: Option<TokenId> },
    /// Speculative: base token drawn, candidate trie built.
    Spec {
        step_start: usize,
        base_tok: TokenId,
        /// Candidate tokens the step *proposed*: what the simulated
        /// clock, the step trace and the acceptance history are charged.
        candidate_tokens: usize,
        verify_issued: bool,
        /// The levels still to be named, for a trie built from the
        /// step's shape; `None` when it was built from known paths
        /// (the grammar engine).
        lazy: Option<LazyLevels>,
        /// Where the trie's rows start in the stepper's own arena, once
        /// it has scored a level itself; `None` while nothing is scored
        /// and when a server's passes score the step (the rows are then
        /// handed to [`Stepper::commit`]).
        local_rows: Option<usize>,
    },
    /// Draft-verify: the draft block proposed, with per-position draft
    /// probabilities, and what the rejection rule has made of it so
    /// far.
    Draft {
        step_start: usize,
        /// The draft's distribution at each proposed position (the
        /// proposals themselves are the candidate trie's one path).
        qs: Vec<Vec<f32>>,
        /// Accepted proposals, then the resampled or bonus token.
        committed: Vec<TokenId>,
        accepted: usize,
    },
}

/// A candidate tree growing a level at a time: level `d + 1` offers head
/// `d + 1`'s top-k at the step's base position under every depth-`d`
/// node, so the head is evaluated — from what the base forward kept —
/// only once a depth-`d` node is forwarded, and the level's tokens are
/// named just before their edges are tested.
struct LazyLevels {
    kept: Kept,
    /// Depth of the level in flight — planned, its rows not yet
    /// consumed (0: the root).
    depth: usize,
    /// Under [`Kept::Fused`]: which of the plan's head rows was asked
    /// for with the level in flight.
    ticket: usize,
}

/// Where a step's base position was forwarded, which is where its head
/// rows come from.
#[derive(Clone, Copy)]
enum Kept {
    /// By this stepper, at this row of its own arena: it evaluates its
    /// own head rows.
    Local(usize),
    /// By a server's fused pass, at this row of the server's arena:
    /// head rows ride the shared [`VerifyPlan`].
    Fused(usize),
}

/// What acceptance needs from one scored node, computed when its row
/// arrives and used for each of its child edges in turn.
#[derive(Debug, Clone, Copy)]
enum NodeAccept {
    /// Greedy decoding: the arg-max token of the node's distribution.
    Greedy(TokenId),
    /// Sampling: how the temperature-scaled logits normalize
    /// ([`softmax_in_place`]'s `(max, sum)`, as
    /// [`tempered_support_into`] returns them), and the Eq.-1 threshold
    /// of the resulting distribution once a token has needed it.
    Typical {
        temperature: f32,
        max: f32,
        sum: f32,
        threshold: Option<f32>,
    },
}

/// What a pending speculative step notes per trie node.
#[derive(Debug, Clone, Copy, Default)]
struct NodeMark {
    /// Whether the edge into the node was accepted.
    accepted: bool,
    /// Under sampling, once the node is scored: where the support of
    /// its tempered softmax lies in the step's `supports` (`from..to`),
    /// and the sum it is normalised by.
    support: (usize, usize),
    sum: f32,
}

/// The lead (in logits) past which [`NodeAccept::of`] need not run a
/// softmax to know the greedy choice.
const GREEDY_MARGIN: f32 = 1e-3;

/// Whether every entry of `logits` but the one at `best` is `<= lead`.
///
/// One branch-free pass: count the entries that are *not* `<= lead` (a
/// NaN counts) and ask that the count be `best`'s own share of it —
/// one when `best` itself is above `lead`, none when rounding left
/// `logits[best] - GREEDY_MARGIN` at `logits[best]`. Any other entry
/// that fails the compare adds one more, so this answers as
/// `.all(|l| l <= lead)` over the other entries would, on NaN, `±0`,
/// `±∞` and one-entry rows alike.
#[allow(clippy::neg_cmp_op_on_partial_ord)] // the NaN-counting compare is the point
fn leads_all_but(logits: &[f32], best: usize, lead: f32) -> bool {
    let above = |l: f32| u32::from(!(l <= lead));
    logits.iter().map(|&l| above(l)).sum::<u32>() == above(logits[best])
}

impl NodeAccept {
    /// Evaluates a node. Typical acceptance is evaluated on the
    /// *temperature-scaled* base distribution so that speculative
    /// sampling matches the baseline's sampling entropy; that
    /// distribution's support is appended to `supports` — for
    /// [`NodeAccept::accepts`], and for the next step should this node
    /// turn out to be its base position. Greedy evaluation appends
    /// nothing; `dists` is its working memory for a near-tie, left as it
    /// was found.
    fn of(
        logits: &[f32],
        sampling: Sampling,
        dists: &mut Vec<f32>,
        supports: &mut Vec<(TokenId, f32)>,
    ) -> Self {
        match sampling {
            Sampling::Greedy => {
                // Exact-match acceptance compares against the arg-max of
                // the *distribution*. When the best logit leads every
                // other by a clear margin that is the arg-max of the
                // logits: `exp` of a gap below `-GREEDY_MARGIN` is under
                // 0.999 against the leader's `exp(0) = 1`, an order no
                // rounding of the shared normalization can undo. Only a
                // near-tie needs the softmax to say which index its
                // rounding favours.
                let best = argmax(logits);
                let lead = logits[best as usize] - GREEDY_MARGIN;
                if lead.is_finite() && leads_all_but(logits, best as usize, lead) {
                    return NodeAccept::Greedy(best);
                }
                let start = dists.len();
                dists.extend_from_slice(logits);
                softmax_in_place(&mut dists[start..]);
                let best = argmax(&dists[start..]);
                dists.truncate(start);
                NodeAccept::Greedy(best)
            }
            Sampling::Temperature { temperature, .. } => {
                let (max, sum) = tempered_support_into(logits, temperature, supports);
                NodeAccept::Typical {
                    temperature,
                    max,
                    sum,
                    threshold: None,
                }
            }
        }
    }

    /// Whether `tok` passes at this node; `support` is what
    /// [`NodeAccept::of`] appended for it.
    ///
    /// Under sampling the token's probability is recomputed from the
    /// memoized normalizers with the softmax's own operations, so it is
    /// the bit the full row holds. Eq. 1's threshold `min(ε, δ·e^(-H))`
    /// never exceeds `ε` and, for non-negative parameters, is never
    /// negative, so a probability above `ε` or at zero — nearly all of
    /// them once sampling is cold — is decided without the entropy, and
    /// so is one under `δ/(2n)` on a support of `n` entries, which no
    /// entropy `≤ ln n` can admit
    /// ([`TypicalAcceptance::rejects_on_bound`]); the rest take it from
    /// the support, where the dense row's zeros add nothing.
    fn accepts(
        &mut self,
        logits: &[f32],
        tok: TokenId,
        acceptance: &TypicalAcceptance,
        support: &[(TokenId, f32)],
    ) -> bool {
        match self {
            NodeAccept::Greedy(best) => tok == *best,
            NodeAccept::Typical {
                temperature,
                max,
                sum,
                threshold,
            } => {
                let e = (logits[tok as usize] / *temperature - *max).exp();
                let p = if *sum > 0.0 { e / *sum } else { e };
                if p > acceptance.epsilon {
                    return true;
                }
                if p <= 0.0 && acceptance.epsilon >= 0.0 && acceptance.delta >= 0.0 {
                    return false;
                }
                if threshold.is_none() && acceptance.rejects_on_bound(p, support.len()) {
                    return false;
                }
                p > *threshold.get_or_insert_with(|| acceptance.threshold_on_support(support, *sum))
            }
        }
    }
}

/// The grammar-constrained engine's per-generation oracle context: the
/// shared token-byte oracle plus this generation's incremental
/// viability state over `prompt + committed tokens`. The state is a
/// pure function of the committed byte stream, so it survives
/// park/unpark unchanged (sessions are rebuilt; the state is kept).
struct GrammarCtx<'m> {
    oracle: &'m GrammarOracle,
    state: ViabilityState,
}

/// One generation advanced step-by-step; see the module docs.
pub struct Stepper<'m> {
    target_model: &'m dyn LanguageModel,
    draft_model: Option<&'m dyn LanguageModel>,
    /// `None` only while parked.
    target: Option<Box<dyn DecodeSession + 'm>>,
    draft: Option<Box<dyn DecodeSession + 'm>>,
    prompt: Vec<TokenId>,
    sampler: Sampler,
    engine: EngineBody,
    out: DecodeOutput,
    pending: Option<Pending>,
    done: bool,
    /// Per-step speculation-shape decision procedure; the default
    /// [`crate::policy::StaticPolicy`] reproduces the configured shape
    /// bit-identically.
    policy: &'m dyn SpecPolicy,
    /// Whether a serving engine pinned the next propose's shape into
    /// `last_shape` (so the engine's per-tick budget accounting and the
    /// built paths agree).
    pinned: bool,
    /// The configured shape, computed once at construction (`None` for
    /// NTP) — propose never rebuilds it on the hot path.
    base: Option<SpecShape>,
    /// The generation's own per-step acceptance history — the pure
    /// input adaptive policies decide from.
    history: AcceptHistory,
    /// The shape the most recent propose actually ran (policy-decided
    /// or pinned) — the per-step observability hook serving engines
    /// read when emitting trace events — or, once pinned, the one the
    /// next propose will run. A slot refilled in place, so a tree's
    /// widths are not reallocated every step. `None` before the first
    /// pin or propose, and always `None` for NTP steppers.
    last_shape: Option<SpecShape>,
    /// Grammar-constrained proposal context (`None` for every
    /// non-grammar engine): viability-filtered tree construction plus
    /// propose-time dead-tail pruning.
    grammar: Option<GrammarCtx<'m>>,
    /// The prune accounting of the most recent grammar propose —
    /// `None` before the first propose and for non-grammar steppers.
    last_prune: Option<PruneRecord>,
    /// The pending step's candidate trie: which row each scored node
    /// reads and which nodes are asked for next; rebuilt by every
    /// propose.
    nodes: NodeMap,
    /// The stepper's own arena: the step's base row (with the
    /// activation kept beside it) when it forwarded the position itself
    /// or carried it over from the last step, then the rows of the
    /// levels it scores itself. Empty in a step whose base row and
    /// levels all come from a server.
    scratch: LogitsArena,
    /// The **carried base**: the logits row, and the trunk activation
    /// beside it, of the candidate-tree node the last committed span
    /// ended at — the position the next step opens at, which that
    /// step's verification had already forwarded. One row, or none when
    /// nothing could be carried (see [`Stepper::commit`]); a cache of
    /// what [`DecodeSession::base_row_into`] would compute, never state.
    carry: LogitsArena,
    /// Under sampling, the support of the tempered softmax acceptance
    /// computed at the carried node, and its sum: what the next base
    /// token is drawn from.
    carry_support: Vec<(TokenId, f32)>,
    carry_sum: f32,
    /// The head rows this stepper evaluated itself: one level's at a
    /// time, or all of a grammar step's.
    head_rows: LogitsArena,
    /// The level in flight's candidate tokens: its head's top-k.
    options: Vec<TokenId>,
    /// A MEDUSA step under sampling: the support of the tempered
    /// softmax of every node it scored, back to back
    /// ([`NodeMark::support`]) — tens of entries a node when sampling
    /// is cold, the whole row when it is hot.
    supports: Vec<(TokenId, f32)>,
    /// One dense distribution at a time: the position in flight of a
    /// draft-verify step, whose residual rule reads whole rows, and a
    /// greedy near-tie's softmax.
    dists: Vec<f32>,
    /// Per trie node of the pending speculative step.
    marks: Vec<NodeMark>,
}

impl<'m> Stepper<'m> {
    fn new_output() -> DecodeOutput {
        DecodeOutput {
            tokens: Vec::new(),
            steps: 0,
            clock: DecodeClock::new(),
            trace: Vec::new(),
        }
    }

    fn build(
        target_model: &'m dyn LanguageModel,
        draft_model: Option<&'m dyn LanguageModel>,
        session: Option<Box<dyn DecodeSession + 'm>>,
        rest: &[TokenId],
        seed: u64,
        engine: EngineBody,
    ) -> Self {
        // The session's current context (a shared, already-ingested
        // prompt prefix when forked) plus `rest` forms the full prompt.
        let mut target = session.unwrap_or_else(|| target_model.session());
        let mut prompt = target.tokens().to_vec();
        prompt.extend_from_slice(rest);
        target.append(rest);
        let draft = draft_model.map(|d| {
            let mut s = d.session();
            s.append(&prompt);
            s
        });
        let base = match &engine {
            EngineBody::Ntp { .. } => None,
            EngineBody::Spec { cfg, n_heads } => Some(match &cfg.tree {
                None => SpecShape::Chain { depth: *n_heads },
                Some(widths) => SpecShape::Tree {
                    widths: widths.clone(),
                    depth: *n_heads,
                },
            }),
            EngineBody::Draft { cfg, .. } => Some(SpecShape::Draft { gamma: cfg.gamma }),
        };
        Stepper {
            target_model,
            draft_model,
            target: Some(target),
            draft,
            prompt,
            sampler: Sampler::new(seed),
            engine,
            out: Self::new_output(),
            pending: None,
            done: false,
            policy: &STATIC_POLICY,
            pinned: false,
            base,
            history: AcceptHistory::default(),
            last_shape: None,
            grammar: None,
            last_prune: None,
            nodes: NodeMap::new(),
            scratch: LogitsArena::new(),
            carry: LogitsArena::new(),
            carry_support: Vec::new(),
            carry_sum: 0.0,
            head_rows: LogitsArena::new(),
            options: Vec::new(),
            supports: Vec::new(),
            dists: Vec::new(),
            marks: Vec::new(),
        }
    }

    /// Replaces the speculation policy (default:
    /// [`crate::policy::StaticPolicy`], the configured shape). The
    /// policy decides each step's candidate-tree widths/depth or draft
    /// block length from this generation's own acceptance history.
    pub fn with_policy(mut self, policy: &'m dyn SpecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// A conventional next-token-prediction generation.
    pub fn ntp(model: &'m dyn LanguageModel, prompt: &[TokenId], cfg: DecodeConfig) -> Self {
        let seed = cfg.seed;
        Self::build(model, None, None, prompt, seed, EngineBody::Ntp { cfg })
    }

    /// Like [`Stepper::ntp`], continuing from an already-ingested
    /// session (prefix sharing): the session's current context is the
    /// shared prompt prefix and `rest` is appended to it.
    pub fn ntp_from_session(
        model: &'m dyn LanguageModel,
        session: Box<dyn DecodeSession + 'm>,
        rest: &[TokenId],
        cfg: DecodeConfig,
    ) -> Self {
        let seed = cfg.seed;
        Self::build(
            model,
            None,
            Some(session),
            rest,
            seed,
            EngineBody::Ntp { cfg },
        )
    }

    /// A MEDUSA-style speculative generation (chain, tree, or
    /// syntax-aligned, per the config).
    pub fn speculative(
        model: &'m dyn LanguageModel,
        prompt: &[TokenId],
        cfg: DecodeConfig,
    ) -> Self {
        let seed = cfg.seed;
        let body = EngineBody::Spec {
            cfg,
            n_heads: model.n_extra_heads(),
        };
        Self::build(model, None, None, prompt, seed, body)
    }

    /// Like [`Stepper::speculative`], continuing from an
    /// already-ingested session (prefix sharing).
    pub fn speculative_from_session(
        model: &'m dyn LanguageModel,
        session: Box<dyn DecodeSession + 'm>,
        rest: &[TokenId],
        cfg: DecodeConfig,
    ) -> Self {
        let seed = cfg.seed;
        let body = EngineBody::Spec {
            cfg,
            n_heads: model.n_extra_heads(),
        };
        Self::build(model, None, Some(session), rest, seed, body)
    }

    /// A grammar-constrained speculative generation: the syntax-aligned
    /// engine ([`Stepper::speculative`] with `cfg.syntax_aligned`,
    /// which this constructor forces on) plus an incremental
    /// [`GrammarOracle`] that filters candidate-tree construction to
    /// lexically-viable continuations and dead-tail prunes the built
    /// paths before verification (see
    /// [`crate::decode::decode_grammar_speculative`]).
    pub fn grammar_speculative(
        model: &'m dyn LanguageModel,
        oracle: &'m GrammarOracle,
        prompt: &[TokenId],
        cfg: DecodeConfig,
    ) -> Self {
        let cfg = DecodeConfig {
            syntax_aligned: true,
            ..cfg
        };
        let mut stepper = Self::speculative(model, prompt, cfg);
        stepper.attach_grammar(oracle);
        stepper
    }

    /// Like [`Stepper::grammar_speculative`], continuing from an
    /// already-ingested session (prefix sharing). The viability state
    /// is seeded from the **full** prompt — shared prefix plus `rest` —
    /// so forked sessions constrain against their complete context.
    pub fn grammar_speculative_from_session(
        model: &'m dyn LanguageModel,
        oracle: &'m GrammarOracle,
        session: Box<dyn DecodeSession + 'm>,
        rest: &[TokenId],
        cfg: DecodeConfig,
    ) -> Self {
        let cfg = DecodeConfig {
            syntax_aligned: true,
            ..cfg
        };
        let mut stepper = Self::speculative_from_session(model, session, rest, cfg);
        stepper.attach_grammar(oracle);
        stepper
    }

    fn attach_grammar(&mut self, oracle: &'m GrammarOracle) {
        // Death-recovering fold: prompts routinely wrap the Verilog
        // tail in instruction prose that no lexer survives; recovery
        // re-arms the machine at each non-Verilog boundary instead of
        // disabling the grammar layer for the whole request.
        let state = oracle.advance_recovering(ViabilityState::new(), &self.prompt);
        self.grammar = Some(GrammarCtx { oracle, state });
    }

    /// A classical draft-then-verify generation (draft model proposes a
    /// γ-token block, the target verifies all γ + 1 positions at once).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.gamma == 0`.
    pub fn draft_verify(
        target: &'m dyn LanguageModel,
        draft: &'m dyn LanguageModel,
        prompt: &[TokenId],
        cfg: DraftConfig,
    ) -> Self {
        Self::draft_verify_from_session(target, draft, target.session(), prompt, cfg)
    }

    /// Like [`Stepper::draft_verify`], continuing the **target** from an
    /// already-ingested session (the draft session is rebuilt fresh).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.gamma == 0`.
    pub fn draft_verify_from_session(
        target: &'m dyn LanguageModel,
        draft: &'m dyn LanguageModel,
        session: Box<dyn DecodeSession + 'm>,
        rest: &[TokenId],
        cfg: DraftConfig,
    ) -> Self {
        assert!(cfg.gamma >= 1, "gamma must be at least 1");
        let seed = cfg.seed;
        let body = EngineBody::Draft {
            cfg,
            stats: DraftStats::default(),
        };
        Self::build(target, Some(draft), Some(session), rest, seed, body)
    }

    /// Whether the generation has finished.
    pub fn done(&self) -> bool {
        self.done
    }

    /// The output accumulated so far.
    pub fn output(&self) -> &DecodeOutput {
        &self.out
    }

    /// Number of tokens generated so far (scheduler fairness input).
    pub fn generated(&self) -> usize {
        self.out.tokens.len()
    }

    /// Acceptance statistics, for draft-verify steppers.
    pub fn draft_stats(&self) -> Option<DraftStats> {
        match &self.engine {
            EngineBody::Draft { stats, .. } => Some(*stats),
            _ => None,
        }
    }

    /// This generation's per-step acceptance history (speculated vs.
    /// accepted candidate tokens) — the pure input speculation policies
    /// decide from. Survives preemption: `park`/`unpark` never touch it.
    pub fn history(&self) -> &AcceptHistory {
        &self.history
    }

    /// The request's *configured* speculation shape — what the policy
    /// adapts from. `None` for NTP steppers (nothing to speculate).
    pub fn base_shape(&self) -> Option<&SpecShape> {
        self.base.as_ref()
    }

    /// The shape the most recent [`Stepper::propose`] actually ran
    /// (pinned or policy-decided), for observability: serving engines
    /// attach it to per-step trace events. Between
    /// [`Stepper::pin_shape`] and the propose it is the pinned shape.
    /// `None` before the first pin or propose and for NTP steppers.
    pub fn last_shape(&self) -> Option<&SpecShape> {
        self.last_shape.as_ref()
    }

    /// The grammar-prune accounting of the most recent
    /// [`Stepper::propose`] — candidate tokens considered, pruned as
    /// dead tails, and surviving to verification. `None` before the
    /// first propose and for non-grammar steppers; serving engines
    /// attach it to per-step trace events.
    pub fn last_prune(&self) -> Option<PruneRecord> {
        self.last_prune
    }

    /// Pins the shape of the **next** [`Stepper::propose`] (a serving
    /// engine pins the shape it budgeted for, so cost accounting and
    /// the built candidate paths agree). Without a pinned shape,
    /// propose asks this stepper's own policy — the serial path. The
    /// shape is copied into the stepper's slot, which keeps its
    /// allocation from step to step.
    pub fn pin_shape(&mut self, shape: &SpecShape) {
        shape.copy_into(&mut self.last_shape);
        self.pinned = true;
    }

    /// Fills `last_shape` with the shape the next step will run: the
    /// pinned one if a serving engine set it, otherwise this stepper's
    /// policy decision over the current history — clamped to what the
    /// model can run ([`SpecShape::clamp`]), since everything the step
    /// is charged is read off the shape.
    fn next_shape(&mut self) {
        if !std::mem::take(&mut self.pinned) {
            let shape = self.policy.shape(&ShapeQuery {
                base: self
                    .base
                    .as_ref()
                    .expect("only speculative engines take shapes"),
                history: &self.history,
                cap: None,
            });
            shape.copy_into(&mut self.last_shape);
        }
        let shape = self.last_shape.as_mut().expect("filled above");
        if let EngineBody::Spec { n_heads, .. } = &self.engine {
            shape.clamp(*n_heads, self.target_model.vocab_size());
        }
    }

    /// Consumes the stepper, returning the final output.
    pub fn into_output(self) -> DecodeOutput {
        self.out
    }

    /// Plans the next [`Stepper::propose`] into a fused pass: appends
    /// the target session's current-position model input to `xs` (see
    /// [`verispec_lm::DecodeSession::embed_plan`]) and returns `true`;
    /// the propose then reads the position's base row — one row, with
    /// the trunk activation kept beside it — from one
    /// [`verispec_lm::MlpLm::infer`] pass across requests.
    ///
    /// `false`, appending nothing, for engines that read no head
    /// logits, for sessions that are not fusable — and while the
    /// stepper holds a carried base, which is that row already: a
    /// tick's fused propose pass forwards only the members that need
    /// it.
    pub fn embed_plan(&mut self, xs: &mut Vec<f32>) -> bool {
        let EngineBody::Spec { cfg, .. } = &self.engine else {
            return false;
        };
        // Budget-exhausted steppers are excluded up front, so a fused
        // propose pass never computes logits that the next `propose`
        // would immediately discard as `Phase::Done`.
        if self.done || self.out.tokens.len() >= cfg.max_tokens || self.carry.rows() > 0 {
            return false;
        }
        self.target.as_mut().is_some_and(|s| s.embed_plan(xs))
    }

    fn target_mut(&mut self) -> &mut dyn DecodeSession {
        self.target
            .as_mut()
            .expect("stepper is parked; unpark before stepping")
            .as_mut()
    }

    /// Phase 1: advance to the next step's verification point.
    ///
    /// `base`, when given, must be the target session's base row at the
    /// current position as a fused cross-request pass wrote it after
    /// [`Stepper::embed_plan`] — row 0 of the view, the trunk
    /// activation kept beside it — in the arena the step's
    /// verification will go on to use; `None` opens the step at the
    /// carried base when the last commit left one, and forwards the
    /// position locally otherwise. Engines that do not consume head
    /// logits ignore it.
    ///
    /// # Panics
    ///
    /// Panics if a step is already pending (propose/commit must
    /// alternate) or the stepper is parked.
    pub fn propose(&mut self, base: Option<ArenaRows<'_>>) -> Phase {
        assert!(self.pending.is_none(), "propose called with a step pending");
        if self.done {
            return Phase::Done;
        }
        self.scratch.clear();
        self.supports.clear();
        match &self.engine {
            EngineBody::Ntp { cfg } => {
                if self.out.tokens.len() >= cfg.max_tokens {
                    self.done = true;
                    return Phase::Done;
                }
                // The single row is the current position's base logits:
                // a root-only tree, scored by the same call as any other.
                let root_only: &[TokenId] = &[];
                self.nodes.build(std::iter::once(root_only), true);
                self.nodes.request(0);
                self.pending = Some(Pending::Ntp { tok: None });
                Phase::Verify
            }
            EngineBody::Spec { cfg, .. } => {
                if self.out.tokens.len() >= cfg.max_tokens {
                    self.done = true;
                    return Phase::Done;
                }
                // Snapshot the Copy fields so the `self.engine`
                // borrow ends before the policy and session fields are
                // touched mutably.
                let (sampling, eos) = (cfg.sampling, cfg.eos);
                // This step's speculation shape: pinned by the serving
                // engine's budget pass, or this stepper's own policy
                // (the static default reproduces the configured shape
                // exactly).
                self.next_shape();
                let shape = self.last_shape.as_ref().expect("next_shape fills the slot");
                let levels = shape.depth();
                let session = self
                    .target
                    .as_mut()
                    .expect("stepper is parked; unpark before stepping");
                let step_start = session.len();
                // The base row only: a head is evaluated when
                // acceptance reaches its level, from the activation
                // kept beside the row. The last step's verification has
                // usually forwarded this position already — the node
                // its committed span ended at — and the row it left
                // becomes this arena's row 0; only a step with nothing
                // carried forwards.
                let carried = base.is_none() && self.carry.rows() > 0;
                let (rows, kept) = match base {
                    Some(rows) => (rows, Kept::Fused(rows.base())),
                    None => {
                        let row = if carried {
                            std::mem::swap(&mut self.scratch, &mut self.carry);
                            0
                        } else {
                            session.base_row_into(levels, &mut self.scratch)
                        };
                        (self.scratch.rows_from(row), Kept::Local(row))
                    }
                };
                self.carry.clear();
                // One RNG draw either way: from the carried row's
                // support when acceptance has normalised it already
                // (greedy reads the carried *logits*, whose arg-max may
                // differ from the distribution's inside
                // `GREEDY_MARGIN`). The grammar engine substitutes a
                // non-viable draw deterministically from the ranked
                // base logits, so its sampled stream stays seed-aligned
                // with the unconstrained engine's.
                let mut base_tok = match sampling {
                    Sampling::Temperature { top_k, .. } if carried => self.sampler.draw_support(
                        &self.carry_support,
                        self.carry_sum,
                        rows.row(0).len(),
                        top_k,
                    ),
                    _ => self.sampler.sample(rows.row(0), sampling),
                };
                let (candidate_tokens, lazy) = match &self.grammar {
                    Some(g) => {
                        base_tok =
                            constrain_base_token(base_tok, rows.row(0), g.oracle, g.state, eos);
                        // The grammar builder names every level's
                        // tokens before it prunes and widens, so this
                        // engine asks for all its heads' rows at once —
                        // and for none when the step ends at its base
                        // token.
                        let (paths, record) = if base_tok != eos && levels > 0 {
                            self.head_rows.clear();
                            let first =
                                session.head_rows_into(rows, 1..levels + 1, &mut self.head_rows);
                            build_grammar_candidate_paths(
                                self.head_rows.rows_from(first),
                                shape,
                                g.oracle,
                                g.oracle.advance(g.state, base_tok),
                                eos,
                            )
                        } else {
                            Default::default()
                        };
                        self.last_prune = Some(record);
                        // Token compares only: nothing is embedded until
                        // acceptance reaches it. No bonus row — a full
                        // path's own node is never read.
                        self.nodes.build(paths.iter().map(Vec::as_slice), false);
                        (paths.iter().map(Vec::len).sum(), None)
                    }
                    None => {
                        let root = LazyLevels {
                            kept,
                            depth: 0,
                            ticket: 0,
                        };
                        (shape.candidate_tokens(), Some(root))
                    }
                };
                let verify_issued = base_tok != eos && candidate_tokens > 0;
                if verify_issued {
                    session.append(&[base_tok]);
                    if lazy.is_some() {
                        // The trie of the shape, no token named yet —
                        // and the same trie as long as the shape
                        // repeats.
                        self.nodes
                            .build_shape(level_widths(shape), MAX_CANDIDATE_PATHS);
                    }
                    self.nodes.request(0);
                    self.marks.clear();
                    self.marks.resize(self.nodes.n_nodes(), NodeMark::default());
                }
                self.pending = Some(Pending::Spec {
                    step_start,
                    base_tok,
                    candidate_tokens,
                    verify_issued,
                    lazy,
                    local_rows: None,
                });
                if verify_issued {
                    Phase::Verify
                } else {
                    Phase::Commit
                }
            }
            EngineBody::Draft { cfg, .. } => {
                if self.out.tokens.len() >= cfg.max_tokens {
                    self.done = true;
                    return Phase::Done;
                }
                let cfg = *cfg;
                // This step's draft block length: the policy's decision
                // (static default = the configured γ).
                self.next_shape();
                let gamma = match self.last_shape {
                    Some(SpecShape::Draft { gamma }) => gamma.max(1),
                    _ => cfg.gamma,
                };
                self.last_shape = Some(SpecShape::Draft { gamma });
                let draft = self
                    .draft
                    .as_mut()
                    .expect("draft stepper has a draft session")
                    .as_mut();
                let step_start = draft.len();
                // The draft proposes a block of gamma tokens with its
                // own probs, extending its session as it goes.
                let mut toks: Vec<TokenId> = Vec::with_capacity(gamma);
                let mut qs: Vec<Vec<f32>> = Vec::with_capacity(gamma);
                for _ in 0..gamma {
                    let mut q = softmax(&draft.logits());
                    tempered(&mut q, cfg.temperature);
                    let tok = self.sampler.sample_from_probs(&q);
                    toks.push(tok);
                    qs.push(q);
                    draft.append(&[tok]);
                    if tok == cfg.eos {
                        break;
                    }
                }
                if let EngineBody::Draft { stats, .. } = &mut self.engine {
                    stats.proposed += toks.len();
                }
                // One path, bonus position included: node `k` is the
                // position after `k` proposals.
                self.nodes.build(std::iter::once(toks.as_slice()), true);
                self.nodes.request(0);
                self.pending = Some(Pending::Draft {
                    step_start,
                    committed: Vec::with_capacity(qs.len() + 1),
                    qs,
                    accepted: 0,
                });
                Phase::Verify
            }
        }
    }

    /// Phase 2, once per level of the pending step's candidate tree:
    /// consumes the level just scored — `scored` holds its rows, from
    /// the base the fused execution returned; `None` on a step's first
    /// call, when nothing has been scored yet — by running acceptance
    /// on those nodes' child edges, then plans the children whose edge
    /// was accepted.
    ///
    /// With a `plan` and a fusable session the new level's inputs are
    /// appended to it and the call returns `true`: run it
    /// ([`verispec_lm::verify_many`], one pass for every stepper that
    /// planned) and call again with the rows. `false` means the
    /// verification is over — nothing acceptance has not rejected is
    /// left unscored — and the step is ready to [`Stepper::commit`].
    ///
    /// Without a `plan`, or when the session cannot plan into one, the
    /// stepper scores every remaining level itself, on its own session
    /// and arena — exactly what the serial engines do — and returns
    /// `false`.
    ///
    /// # Panics
    ///
    /// Panics if no step is pending verification.
    pub fn verify_level(
        &mut self,
        scored: Option<ArenaRows<'_>>,
        plan: Option<&mut VerifyPlan>,
    ) -> bool {
        // The stepper's own arena leaves `self` for the call, so that
        // its rows can be read while the step's state changes.
        let mut local = std::mem::take(&mut self.scratch);
        let fused = self.verify_level_on(&mut local, scored, plan);
        self.scratch = local;
        fused
    }

    fn verify_level_on(
        &mut self,
        local: &mut LogitsArena,
        scored: Option<ArenaRows<'_>>,
        plan: Option<&mut VerifyPlan>,
    ) -> bool {
        if let Some(rows) = scored {
            self.consume_level(rows, local, plan.as_deref());
        }
        if !self.nodes.has_frontier() {
            return false;
        }
        if let Some(plan) = plan {
            let session = self
                .target
                .as_mut()
                .expect("stepper is parked; unpark before stepping");
            if session.plan_frontier(&mut self.nodes, plan) {
                // The level's head row rides the pass that forwards
                // the level.
                if let Some(Pending::Spec {
                    lazy: Some(lazy), ..
                }) = &mut self.pending
                {
                    if let Kept::Fused(row) = lazy.kept {
                        lazy.ticket = plan.request_head(row, lazy.depth + 1);
                    }
                }
                return true;
            }
        }
        debug_assert!(scored.is_none(), "a fused verification cannot turn local");
        while self.nodes.has_frontier() {
            let session = self
                .target
                .as_mut()
                .expect("stepper is parked; unpark before stepping");
            let base = session.score_frontier(&mut self.nodes, local);
            if let Some(Pending::Spec { local_rows, .. }) = &mut self.pending {
                *local_rows = Some(base);
            }
            self.consume_level(local.rows_from(base), local, None);
        }
        false
    }

    /// Names the candidate tokens of the level below the one in flight
    /// — depth `d` in flight, head `d + 1`'s top-k at the step's base
    /// position — into `self.options`: the one moment a step evaluates
    /// a Medusa head, from the activation its base forward kept in
    /// `local` or — forwarded by a server — through `plan`.
    fn name_next_level(&mut self, local: &LogitsArena, plan: Option<&VerifyPlan>) {
        let Some(Pending::Spec {
            lazy: Some(lazy), ..
        }) = &self.pending
        else {
            return;
        };
        let head = lazy.depth + 1;
        let row = match lazy.kept {
            Kept::Local(kept) => {
                let session = self
                    .target
                    .as_mut()
                    .expect("stepper is parked; unpark before stepping");
                self.head_rows.clear();
                let at = session.head_rows_into(
                    local.rows_from(kept),
                    head..head + 1,
                    &mut self.head_rows,
                );
                self.head_rows.row(at)
            }
            Kept::Fused(_) => plan
                .expect("a fused propose is verified through the server's plan")
                .head_rows()
                .row(lazy.ticket),
        };
        match self.last_shape {
            Some(SpecShape::Chain { .. }) => {
                self.options.clear();
                self.options.push(argmax(row));
            }
            _ => top_k_into(row, self.nodes.width(head - 1), &mut self.options),
        }
    }

    /// Runs the pending engine's edge test over the level just scored:
    /// every node of it reads its row once, decides its child edges
    /// back to back, and requests the children acceptance goes on to.
    fn consume_level(
        &mut self,
        scored: ArenaRows<'_>,
        local: &LogitsArena,
        plan: Option<&VerifyPlan>,
    ) {
        self.name_next_level(local, plan);
        let (nodes, dists, sampler) = (&mut self.nodes, &mut self.dists, &mut self.sampler);
        let supports = &mut self.supports;
        let pending = self.pending.as_mut().expect("a step is pending");
        for k in 0..nodes.level().len() {
            let node = nodes.level()[k];
            let logits = scored.row(nodes.row(node));
            match (&mut *pending, &self.engine) {
                (Pending::Ntp { tok }, EngineBody::Ntp { cfg }) => {
                    *tok = Some(sampler.sample(logits, cfg.sampling));
                }
                (Pending::Spec { lazy, .. }, EngineBody::Spec { cfg, .. }) => {
                    let from = supports.len();
                    let mut verdict = NodeAccept::of(logits, cfg.sampling, dists, supports);
                    if let NodeAccept::Typical { sum, .. } = verdict {
                        let mark = &mut self.marks[node];
                        (mark.support, mark.sum) = ((from, supports.len()), sum);
                    }
                    let mut child = nodes.first_child(node);
                    // A lazily grown level: the child's ordinal among
                    // its siblings is the option it stands for.
                    let mut options = lazy.is_some().then_some(self.options.iter());
                    while let Some(c) = child {
                        if let Some(options) = &mut options {
                            let tok = *options.next().expect("no more children than options");
                            nodes.set_token(c, tok);
                        }
                        let tok = nodes.token(c);
                        if verdict.accepts(logits, tok, &cfg.acceptance, &supports[from..]) {
                            self.marks[c].accepted = true;
                            // Nothing is read past an accepted `eos`,
                            // nor at a full path's own node.
                            if tok != cfg.eos && nodes.wants_row(c) {
                                nodes.request(c);
                            }
                        }
                        child = nodes.next_sibling(c);
                    }
                }
                (
                    Pending::Draft {
                        qs,
                        committed,
                        accepted,
                        ..
                    },
                    EngineBody::Draft { cfg, .. },
                ) => {
                    // The target distribution at this position.
                    let probs = &mut *dists;
                    probs.clear();
                    probs.extend_from_slice(logits);
                    softmax_in_place(probs);
                    tempered(probs, cfg.temperature);
                    let Some(child) = nodes.first_child(node) else {
                        // Past the whole block: everything was
                        // accepted, this is the bonus position.
                        committed.push(sampler.sample_from_probs(probs));
                        continue;
                    };
                    // One path: node `k` is position `k`.
                    let (tok, q) = (nodes.token(child), &qs[node]);
                    // Exact rejection rule.
                    let (pt, qt) = (probs[tok as usize], q[tok as usize].max(f32::MIN_POSITIVE));
                    // Uniform draw on a fine grid (the Sampler API is index-based).
                    let u: f32 = {
                        let grid = 1_000_000usize;
                        sampler.gen_range(grid) as f32 / grid as f32
                    };
                    if u < (pt / qt).min(1.0) {
                        committed.push(tok);
                        *accepted += 1;
                        if tok != cfg.eos {
                            nodes.request(child);
                        }
                    } else {
                        // Resample from max(0, p - q), renormalized
                        // (from p itself when nothing is left).
                        let residual = |(&a, &b): (&f32, &f32)| (a - b).max(0.0);
                        let sum: f32 = probs.iter().zip(q).map(residual).sum();
                        if sum > 0.0 {
                            for (p, qv) in probs.iter_mut().zip(q) {
                                *p = (*p - qv).max(0.0) / sum;
                            }
                        }
                        committed.push(sampler.sample_from_probs(probs));
                    }
                }
                _ => unreachable!("pending/engine mismatch"),
            }
        }
        nodes.clear_level();
        if let Pending::Spec {
            lazy: Some(lazy), ..
        } = pending
        {
            lazy.depth += 1;
        }
    }

    /// Phase 3: commits the pending step from what its verification
    /// accepted (or straight away, when [`Stepper::propose`] returned
    /// [`Phase::Commit`]).
    ///
    /// `scored` is the view a server's [`verispec_lm::verify_many`]
    /// passes scored the step's levels into (the view handed to
    /// [`Stepper::verify_level`]), `None` when the stepper scored them
    /// itself. A MEDUSA step copies one row out of it — the node its
    /// committed span ends at, which is the next step's base position —
    /// so that the next [`Stepper::propose`] need not forward what this
    /// verification already has (nor normalise it: the node's support
    /// goes with the row); without the view a server-scored step
    /// simply carries nothing.
    ///
    /// # Panics
    ///
    /// Panics if no step is pending, or its verification has not run
    /// to the end ([`Stepper::verify_level`] returned `false`).
    pub fn commit(&mut self, cost: &GpuCostModel, scored: Option<ArenaRows<'_>>) {
        let pending = self.pending.take().expect("a step is pending");
        assert!(
            !self.nodes.has_frontier() && self.nodes.level().is_empty(),
            "commit called with the verification unfinished"
        );
        match pending {
            Pending::Ntp { tok } => self.commit_ntp(tok.expect("NTP steps verify"), cost),
            Pending::Spec {
                step_start,
                base_tok,
                candidate_tokens,
                verify_issued,
                local_rows,
                ..
            } => {
                // The stepper's own arena leaves `self` for the call,
                // so that a row can be copied out of it.
                let local = std::mem::take(&mut self.scratch);
                let rows = local_rows.map(|base| local.rows_from(base)).or(scored);
                self.commit_spec(
                    step_start,
                    base_tok,
                    candidate_tokens,
                    verify_issued,
                    rows,
                    cost,
                );
                self.scratch = local;
            }
            Pending::Draft {
                step_start,
                qs,
                committed,
                accepted,
            } => self.commit_draft(step_start, qs.len(), committed, accepted, cost),
        }
    }

    fn commit_ntp(&mut self, tok: TokenId, cost: &GpuCostModel) {
        let EngineBody::Ntp { cfg } = &self.engine else {
            unreachable!("pending/engine mismatch");
        };
        let eos = cfg.eos;
        self.out.clock.record_step(cost, 0, 1);
        self.out.steps += 1;
        self.target_mut().append(&[tok]);
        self.out.tokens.push(tok);
        self.out.trace.push(StepTrace {
            speculated: 0,
            accepted: 1,
            truncated: 0,
            committed: vec![tok],
            fragment_complete: tok == special::FRAG,
        });
        if tok == eos {
            self.done = true;
        }
    }

    /// `rows` is the view the step's trie was scored into — its own
    /// arena's or a server's — when there is one to copy from.
    fn commit_spec(
        &mut self,
        step_start: usize,
        base_tok: TokenId,
        candidate_tokens: usize,
        verify_issued: bool,
        rows: Option<ArenaRows<'_>>,
        cost: &GpuCostModel,
    ) {
        let EngineBody::Spec { cfg, .. } = &self.engine else {
            unreachable!("pending/engine mismatch");
        };
        let (eos, syntax_aligned, max_tokens) = (cfg.eos, cfg.syntax_aligned, cfg.max_tokens);
        let sampled = matches!(cfg.sampling, Sampling::Temperature { .. });

        let nodes = &self.nodes;
        let token = |i: usize, j: usize| nodes.token(nodes.node(i, j));
        let (mut best, mut best_len) = (0usize, 0usize);
        if verify_issued {
            // The first path with the strictly longest accepted prefix
            // wins, and once the winner ends in `eos` no later path is
            // looked at. A path's prefix ends at its first edge that
            // was rejected — or never tested, its parent unreached —
            // and right after an accepted `eos`. Every accepted edge
            // was tested, so its token has been named.
            for i in 0..nodes.n_paths() {
                let mut accepted = 0usize;
                while accepted < nodes.path_len(i)
                    && self.marks[nodes.node(i, accepted + 1)].accepted
                {
                    accepted += 1;
                    if token(i, accepted) == eos {
                        break;
                    }
                }
                if accepted > best_len {
                    (best, best_len) = (i, accepted);
                }
                if best_len > 0 && token(best, best_len) == eos {
                    break;
                }
            }
        }
        // Allocated once, at its final length, then moved into the step
        // trace that owns it.
        let mut committed = Vec::with_capacity(1 + best_len);
        committed.push(base_tok);
        committed.extend((1..=best_len).map(|j| token(best, j)));
        let accepted = committed.len();
        // Acceptance history: candidates offered vs. cashed (the base
        // token is always committed, so it is excluded from both).
        self.history.record(candidate_tokens, accepted - 1);

        // Syntax-integrity check (§III-B): the committed span must end
        // on a complete fragment.
        let mut truncated = 0usize;
        if syntax_aligned {
            let keep = syntax_keep_len(&committed, special::FRAG, eos);
            truncated = committed.len() - keep;
            committed.truncate(keep);
        }
        let fragment_complete = committed
            .last()
            .is_some_and(|&t| t == special::FRAG || t == eos);

        // Token-budget truncation (not counted as syntax truncation).
        let remaining = max_tokens - self.out.tokens.len();
        if committed.len() > remaining {
            committed.truncate(remaining);
        }

        // The simulated step is priced by the tree it proposed — one
        // bandwidth-bound pass over all of it — not by the nodes this
        // machine went on to forward.
        self.out
            .clock
            .record_step(cost, candidate_tokens, committed.len());
        self.out.steps += 1;

        let hit_eos = committed.contains(&eos);
        // Advance the grammar viability state over the committed span
        // (death-recovering, matching the prompt seeding) — the state
        // stays a pure function of `prompt + out.tokens`, the invariant
        // park/unpark relies on.
        if let Some(g) = &mut self.grammar {
            g.state = g.oracle.advance_recovering(g.state, &committed);
        }
        // A verified step's session already holds the base token, and
        // verification left its context alone: extending it — no
        // rollback — keeps the cached window.
        let session = self
            .target
            .as_mut()
            .expect("stepper is parked; unpark before stepping");
        debug_assert_eq!(session.len(), step_start + usize::from(verify_issued));
        session.append(&committed[usize::from(verify_issued)..]);
        self.out.tokens.extend_from_slice(&committed);

        // The carry: the node the span ends at *as committed* (the root
        // after a base-token-only span) is the next step's base
        // position, and if verification forwarded it — every accepted
        // interior node; not a full path's leaf — its row is the row
        // the next propose would compute. Kept only where a scored row
        // serves head rows, and only while there is a next step.
        let carries = verify_issued
            && !hit_eos
            && self.out.tokens.len() < max_tokens
            && session.keeps_frontier_rows();
        if let Some(rows) = rows.filter(|_| carries) {
            let node = match committed.len() {
                1 => 0,
                n => self.nodes.node(best, n - 1),
            };
            if let Some(row) = self.nodes.scored_row(node) {
                self.carry.push_kept(rows.rows_from(row));
                if sampled {
                    let NodeMark {
                        support: (from, to),
                        sum,
                        ..
                    } = self.marks[node];
                    self.carry_support.clear();
                    self.carry_support
                        .extend_from_slice(&self.supports[from..to]);
                    self.carry_sum = sum;
                }
            }
        }
        self.out.trace.push(StepTrace {
            speculated: candidate_tokens,
            accepted,
            truncated,
            committed,
            fragment_complete,
        });
        if hit_eos {
            self.done = true;
        }
    }

    /// `committed` is what the rejection rule produced: the `accepted`
    /// leading proposals, then the resampled token of the first
    /// rejection or — everything accepted and no `eos` — the bonus
    /// token.
    fn commit_draft(
        &mut self,
        step_start: usize,
        proposed: usize,
        mut committed: Vec<TokenId>,
        accepted: usize,
        cost: &GpuCostModel,
    ) {
        let EngineBody::Draft { cfg, stats } = &mut self.engine else {
            unreachable!("pending/engine mismatch");
        };
        stats.accepted += accepted;
        let cfg = *cfg;
        self.history.record(proposed, accepted);

        let remaining = cfg.max_tokens - self.out.tokens.len();
        committed.truncate(remaining);

        self.out.clock.record_step(cost, proposed, committed.len());
        self.out.steps += 1;
        let hit_eos = committed.contains(&cfg.eos);
        // Roll both sessions back to the committed prefix and extend.
        let draft = self
            .draft
            .as_mut()
            .expect("draft stepper has a draft session");
        draft.truncate(step_start);
        draft.append(&committed);
        self.target_mut().append(&committed);
        self.out.tokens.extend_from_slice(&committed);
        self.out.trace.push(StepTrace {
            speculated: proposed,
            accepted: committed.len(),
            truncated: 0,
            committed,
            fragment_complete: false,
        });
        if hit_eos {
            self.done = true;
        }
    }

    /// Runs one full step serially (propose → verify level by level →
    /// commit). Returns `false` once the generation is done.
    pub fn step(&mut self, cost: &GpuCostModel) -> bool {
        match self.propose(None) {
            Phase::Done => return false,
            Phase::Commit => {}
            Phase::Verify => {
                let fused = self.verify_level(None, None);
                debug_assert!(!fused, "no plan was offered");
            }
        }
        self.commit(cost, None);
        !self.done
    }

    /// Whether the stepper's sessions are currently released.
    pub fn is_parked(&self) -> bool {
        self.target.is_none()
    }

    /// Releases the sessions (rollback-aware preemption): legal only
    /// between steps, when the sessions hold exactly the committed
    /// context. The sampler, output, and engine state are retained; the
    /// carried base goes with the session it was scored on (the next
    /// step forwards its position again, to the same bits).
    ///
    /// # Panics
    ///
    /// Panics if a step is pending (propose without commit).
    pub fn park(&mut self) {
        assert!(
            self.pending.is_none(),
            "cannot park mid-step: commit or abandon the pending step first"
        );
        self.target = None;
        self.draft = None;
        self.carry.clear();
    }

    /// Rebuilds the sessions of a parked stepper by replaying the
    /// committed context (`prompt + generated tokens`) into fresh
    /// sessions — an exact reconstruction, since sessions are pure
    /// functions of their token context.
    pub fn unpark(&mut self) {
        if self.target.is_some() {
            return;
        }
        let mut target = self.target_model.session();
        target.append(&self.prompt);
        target.append(&self.out.tokens);
        self.target = Some(target);
        self.draft = self.draft_model.map(|d| {
            let mut s = d.session();
            s.append(&self.prompt);
            s.append(&self.out.tokens);
            s
        });
    }
}

#[cfg(test)]
mod frontier_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode_grammar_speculative, decode_ntp, decode_speculative, DecodeMethod};
    use crate::draft::decode_draft_speculative;
    use proptest::prelude::*;
    use verispec_lm::{MlpLm, MlpLmConfig, NgramLm};

    pub(super) fn tiny_model() -> MlpLm {
        MlpLm::new(MlpLmConfig {
            vocab: 14,
            d_emb: 6,
            d_hidden: 12,
            context: 4,
            n_heads: 3,
            seed: 21,
        })
    }

    pub(super) fn cyclic_ngram() -> NgramLm {
        let mut lm = NgramLm::new(3, 14);
        let seq: Vec<TokenId> = (0..200).map(|i| 6 + (i % 3) as TokenId).collect();
        lm.train_sequence(&seq);
        lm
    }

    /// Every edge out of a node scored from `logits`, judged back to
    /// back — how a scored level is consumed — against the definition:
    /// one full distribution per edge, then exact match or Eq. 1 on it.
    /// Under sampling, returns the node's support and its `sum`.
    fn assert_node_matches_the_definition(
        logits: &[f32],
        sampling: Sampling,
        acceptance: &TypicalAcceptance,
    ) -> Option<(Vec<(TokenId, f32)>, f32)> {
        use super::frontier_tests::reference_accepts as reference;
        let (mut dists, mut support) = (Vec::new(), Vec::new());
        let mut node = NodeAccept::of(logits, sampling, &mut dists, &mut support);
        assert!(dists.is_empty(), "working memory only");
        for tok in 0..logits.len() as TokenId {
            assert_eq!(
                node.accepts(logits, tok, acceptance, &support),
                reference(logits, tok, sampling, acceptance),
                "{sampling:?} {acceptance:?} tok {tok} of {logits:?}"
            );
        }
        match node {
            NodeAccept::Greedy(_) => None,
            NodeAccept::Typical { sum, .. } => Some((support, sum)),
        }
    }

    #[test]
    fn node_acceptance_matches_the_full_row_definition() {
        // The definition the per-node evaluation and its shortcuts
        // must reproduce: one full distribution per edge, then exact
        // match or Eq. 1 on it.
        use verispec_lm::matrix::tempered_softmax_into;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        // Rows with exact ties, near-ties one ulp apart (inside the
        // greedy margin), flat rows (high entropy) and peaked ones.
        let mut narrow: Vec<Vec<f32>> = Vec::new();
        for case in 0..60 {
            let mut row: Vec<f32> = (0..24)
                .map(|_| match case % 4 {
                    0 => (next() % 5) as f32 * 0.5,
                    1 => (next() % 3) as f32 * 1e-4,
                    2 => (next() % 1000) as f32 * 0.01 - 5.0,
                    _ => (next() % 7) as f32 * 3.0,
                })
                .collect();
            if case % 2 == 1 {
                let top = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let at = (next() % 24) as usize;
                row[at] = f32::from_bits(top.to_bits() + 1);
            }
            narrow.push(row);
        }
        // A one-token vocabulary (`n = 1` whatever the temperature) and a
        // row so peaked that one entry is its whole support once cold.
        narrow.push(vec![0.7]);
        narrow.push((0..24).map(|i| if i == 5 { 4.0 } else { -9.0 }).collect());
        // The greedy lead test's edge: a runner-up exactly at
        // `best - GREEDY_MARGIN`, one ulp above and one below it, before
        // and after the best index — and an exact two-way tie for the
        // maximum.
        let lead = 2.5f32 - GREEDY_MARGIN;
        for runner_up in [lead, lead.next_up(), lead.next_down()] {
            for (best_at, runner_at) in [(3, 17), (17, 3)] {
                let mut row: Vec<f32> = (0..24).map(|i| (i % 5) as f32 * 0.25).collect();
                row[best_at] = 2.5;
                row[runner_at] = runner_up;
                narrow.push(row);
            }
        }
        let mut tie: Vec<f32> = (0..24).map(|i| (i % 7) as f32 * 0.125).collect();
        tie[6] = 2.5;
        tie[19] = 2.5;
        narrow.push(tie);
        // Per temperature: vocabulary-wide rows as peaked as a trained
        // model's — a support of tens of entries at the benchmark's
        // temperatures, of all 480 when hot — and rows whose scaled
        // gaps to the best entry lie in `exp`'s denormal band and just
        // past its flush-to-zero point, where a support entry is
        // non-zero yet its probability may round to zero.
        let mut rows_at = |t: f32| {
            let mut rows = narrow.clone();
            for width in [480usize, 480, 24] {
                rows.push(
                    (0..width)
                        .map(|_| (next() % 1600) as f32 * 0.01 - 8.0)
                        .collect(),
                );
                let mut band: Vec<f32> = (0..width)
                    .map(|_| 3.0 + (-104.5 + (next() % 1800) as f32 * 0.01) * t)
                    .collect();
                band[next() as usize % width] = 3.0;
                rows.push(band);
            }
            // Flat across the vocabulary, and flat but for rounding-sized
            // jitter: `H ≈ ln n` once hot, where the entropy bound
            // `δ·e^(−H) ≥ δ/n` is at its tightest.
            rows.push(vec![1.25; 480]);
            rows.push(
                (0..480)
                    .map(|_| 1.25 + (next() % 4) as f32 * 1e-6)
                    .collect(),
            );
            rows
        };
        let samplings = [
            Sampling::Greedy,
            Sampling::temperature(0.01),
            Sampling::temperature(0.03),
            Sampling::temperature(0.05),
            Sampling::temperature(0.8),
            Sampling::temperature(2.5),
        ];
        // The last four are where the bound in front of Eq. 1 must not
        // be taken — a zero `ε`, a negative, zero or subnormal `δ` (no
        // normal `δ/(2n)`) — and the answers are the entropy's.
        let acceptances = [
            (0.09, 0.3),
            (0.5, 3.0),
            (0.0, 0.3),
            (0.3, -1.0),
            (0.09, 0.0),
            (0.09, 1e-40),
        ]
        .map(|(epsilon, delta)| TypicalAcceptance { epsilon, delta });
        let mut dense = Vec::new();
        let ulp = |x: f32, by: i32| f32::from_bits((x.to_bits() as i32 + by) as u32);
        for sampling in samplings {
            let rows = match sampling {
                Sampling::Greedy => rows_at(1.0),
                Sampling::Temperature { temperature, .. } => rows_at(temperature),
            };
            for logits in &rows {
                let mut scored = None;
                for acceptance in &acceptances {
                    scored = assert_node_matches_the_definition(logits, sampling, acceptance);
                    // The threshold itself, whether or not an edge
                    // needed it: the dense row's, bit for bit.
                    if let (Some((support, sum)), Sampling::Temperature { temperature, .. }) =
                        (&scored, sampling)
                    {
                        dense.clear();
                        tempered_softmax_into(logits, temperature, &mut dense);
                        assert_eq!(
                            acceptance.threshold_on_support(support, *sum).to_bits(),
                            acceptance.threshold(&dense).to_bits(),
                            "{sampling:?} {acceptance:?} threshold of {logits:?}"
                        );
                    }
                }
                // The bound's own edge: `δ` one ulp either side of
                // `2·n·p`, and on it, for the row's runner-up (its best
                // when that is all there is) and its support's median
                // — so each `p` sits one ulp either side of `δ/(2n)` —
                // under an `ε` no probability clears, so that nothing
                // is decided before the bound is asked.
                let Some((support, sum)) = scored else {
                    continue;
                };
                let mut by_weight = support.clone();
                by_weight.sort_by(|a, b| b.1.total_cmp(&a.1));
                let picks = [
                    by_weight[1.min(by_weight.len() - 1)],
                    by_weight[by_weight.len() / 2],
                ];
                for (_, e) in picks {
                    let edge = 2.0 * support.len() as f32 * (e / sum);
                    if edge < f32::MIN_POSITIVE {
                        continue;
                    }
                    for delta in [ulp(edge, -1), edge, ulp(edge, 1)] {
                        let acceptance = TypicalAcceptance {
                            epsilon: 1.0,
                            delta,
                        };
                        assert_node_matches_the_definition(logits, sampling, &acceptance);
                    }
                }
            }
        }
    }

    #[test]
    fn the_lead_count_is_the_all_loop() {
        // The definition `leads_all_but` replaced: a short-circuiting
        // walk that skips `best`.
        fn all_loop(logits: &[f32], best: usize, lead: f32) -> bool {
            logits
                .iter()
                .enumerate()
                .all(|(i, &l)| l <= lead || i == best)
        }
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        let rows: [&[f32]; 12] = [
            &[0.7],
            &[nan],
            &[1.0, nan, 0.0],
            &[nan, 1.0, 0.0],
            &[0.0, -0.0, -1.0],
            &[-0.0, 0.0],
            &[inf, 1.0],
            &[1.0, -inf, -inf],
            &[-inf, -inf],
            &[1e9, 1e9 - 64.0, 0.0],
            &[2.0, 2.0 - GREEDY_MARGIN, 1.0],
            &[nan, nan, nan],
        ];
        for row in rows {
            for best in 0..row.len() {
                // Leads the test is asked at, and ones it never is: a
                // NaN, infinite, rounded-away and exactly-tied lead.
                for lead in [
                    row[best] - GREEDY_MARGIN,
                    row[best],
                    nan,
                    inf,
                    -inf,
                    0.0,
                    -0.0,
                ] {
                    assert_eq!(
                        leads_all_but(row, best, lead),
                        all_loop(row, best, lead),
                        "{row:?} best {best} lead {lead}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// [`node_acceptance_matches_the_full_row_definition`] over
        /// random rows — narrow and vocabulary-wide, flat to peaked —
        /// at any temperature the repo samples at and any `(ε, δ)` of
        /// the ablation's grid and beyond: every token of every row is
        /// judged as the dense definition judges it, whether the
        /// `p > ε` exit, the entropy bound or the entropy decided.
        #[test]
        fn node_acceptance_matches_the_definition_on_random_rows(
            unit in prop_oneof![
                proptest::collection::vec(-0.5f32..0.5, 1..40),
                proptest::collection::vec(-0.5f32..0.5, 480..481),
            ],
            spread in 0.0f32..12.0,
            temperature in 0.01f32..2.5,
            epsilon in 0.0f32..1.0,
            delta in 0.0f32..4.0,
        ) {
            let logits: Vec<f32> = unit.iter().map(|u| u * spread).collect();
            let acceptance = TypicalAcceptance { epsilon, delta };
            assert_node_matches_the_definition(
                &logits,
                Sampling::temperature(temperature),
                &acceptance,
            );
        }
    }

    /// Drives `steppers` the way a serving tick does — one fused pass
    /// for the base rows of the members that ask for one, propose all,
    /// then one fused kernel pass per level for every member still
    /// verifying, then commit all from the tick's rows — until every
    /// one is done. Returns, per round, how many levels each verifying
    /// member took.
    pub(super) fn drive_fused(
        model: &MlpLm,
        steppers: &mut [Stepper<'_>],
        cost: &GpuCostModel,
    ) -> Vec<Vec<usize>> {
        let (mut plan, mut arena) = (VerifyPlan::new(), LogitsArena::new());
        let mut xs = Vec::new();
        let mut rounds = Vec::new();
        loop {
            plan.clear();
            arena.clear();
            xs.clear();
            let mut proposing = 0usize;
            let base_at: Vec<Option<usize>> = steppers
                .iter_mut()
                .map(|st| {
                    st.embed_plan(&mut xs).then(|| {
                        proposing += 1;
                        proposing - 1
                    })
                })
                .collect();
            model.infer(&xs, &mut arena);
            let phases: Vec<Phase> = steppers
                .iter_mut()
                .zip(&base_at)
                .map(|(st, at)| st.propose(at.map(|row| arena.rows_from(row))))
                .collect();
            if phases.iter().all(|&p| p == Phase::Done) {
                return rounds;
            }
            let mut levels = vec![0usize; steppers.len()];
            let mut verifying: Vec<usize> = Vec::new();
            for (i, st) in steppers.iter_mut().enumerate() {
                if phases[i] == Phase::Verify {
                    assert!(st.verify_level(None, Some(&mut plan)), "mlp sessions fuse");
                    verifying.push(i);
                }
            }
            let mut scored = None;
            while plan.pending() > 0 {
                let base = verispec_lm::verify_many(model, &mut plan, &mut arena);
                let rows = arena.rows_from(base);
                scored = Some(rows);
                verifying.retain(|&i| {
                    levels[i] += 1;
                    steppers[i].verify_level(Some(rows), Some(&mut plan))
                });
            }
            assert!(verifying.is_empty());
            for (st, phase) in steppers.iter_mut().zip(&phases) {
                if *phase != Phase::Done {
                    st.commit(cost, scored);
                }
            }
            rounds.push(levels);
        }
    }

    #[test]
    fn phase_driven_stepper_matches_serial_engines() {
        // Driving the stepper through explicit propose / verify-level /
        // commit phases — its levels executed from outside, through a
        // shared plan — must reproduce the public engines exactly.
        let model = tiny_model();
        let cost = GpuCostModel::codellama_like();
        for (syntax, tree) in [(false, None), (true, Some(vec![2, 2]))] {
            let cfg = DecodeConfig {
                max_tokens: 18,
                sampling: Sampling::temperature(0.8),
                seed: 5,
                syntax_aligned: syntax,
                tree,
                ..Default::default()
            };
            let serial = decode_speculative(&model, &[1, 2, 3], &cfg, &cost);
            let mut st = [Stepper::speculative(&model, &[1, 2, 3], cfg.clone())];
            drive_fused(&model, &mut st, &cost);
            let [st] = st;
            let out = st.into_output();
            assert_eq!(out.tokens, serial.tokens);
            assert_eq!(out.steps, serial.steps);
            assert_eq!(out.trace, serial.trace);
        }
    }

    #[test]
    fn fused_verify_plan_path_matches_verify_local() {
        // One shared plan, one kernel pass per level, four engines in
        // the batch — NTP (root only), a sampled tree, a grammar tree
        // and a draft block over the same target — each reading its
        // own rows and leaving the loop at its own depth. Every member
        // must equal its serial engine, which verifies locally.
        let model = tiny_model();
        let ng = cyclic_ngram();
        let cost = GpuCostModel::codellama_like();
        let bytes = (0..14)
            .map(|id| if id < 5 { Vec::new() } else { b"a".to_vec() })
            .collect();
        let oracle = GrammarOracle::new(bytes);
        let ntp_cfg = DecodeConfig {
            max_tokens: 16,
            ..Default::default()
        };
        let tree_cfg = DecodeConfig {
            max_tokens: 16,
            tree: Some(vec![2, 2, 1]),
            sampling: Sampling::temperature(2.5),
            seed: 3,
            ..Default::default()
        };
        let grammar_cfg = DecodeConfig {
            max_tokens: 16,
            tree: Some(vec![3, 2]),
            sampling: Sampling::temperature(0.8),
            seed: 8,
            ..Default::default()
        };
        let draft_cfg = DraftConfig {
            gamma: 3,
            max_tokens: 16,
            seed: 4,
            ..Default::default()
        };
        let serial = [
            decode_ntp(&model, &[2, 4], &ntp_cfg, &cost),
            decode_speculative(&model, &[2, 4], &tree_cfg, &cost),
            decode_grammar_speculative(&model, &oracle, &[6, 7], &grammar_cfg, &cost),
            decode_draft_speculative(&model, &ng, &[6, 7], &draft_cfg, &cost).0,
        ];
        let mut steppers = [
            Stepper::ntp(&model, &[2, 4], ntp_cfg),
            Stepper::speculative(&model, &[2, 4], tree_cfg),
            Stepper::grammar_speculative(&model, &oracle, &[6, 7], grammar_cfg),
            Stepper::draft_verify(&model, &ng, &[6, 7], draft_cfg),
        ];
        let rounds = drive_fused(&model, &mut steppers, &cost);
        for (st, want) in steppers.iter().zip(&serial) {
            assert_eq!(st.output().tokens, want.tokens);
            assert_eq!(st.output().steps, want.steps);
            assert_eq!(st.output().trace, want.trace);
        }
        // NTP always leaves after the root; the others went deeper, and
        // in some round to different depths from one another.
        assert!(rounds.iter().all(|levels| levels[0] <= 1));
        assert!(rounds
            .iter()
            .any(|levels| levels[1..].iter().any(|&l| l > 1)));
        assert!(rounds.iter().any(|levels| {
            let deep: Vec<usize> = levels[1..].iter().copied().filter(|&l| l > 0).collect();
            deep.iter().any(|&l| l != deep[0])
        }));
    }

    #[test]
    fn park_unpark_round_trip_is_lossless() {
        let model = tiny_model();
        let ng = cyclic_ngram();
        let cost = GpuCostModel::codet5p_like();
        let cfg = DecodeConfig {
            max_tokens: 20,
            sampling: Sampling::temperature(0.6),
            seed: 9,
            tree: Some(vec![2]),
            ..Default::default()
        };
        let serial = decode_speculative(&model, &[3, 1], &cfg, &cost);
        let mut st = Stepper::speculative(&model, &[3, 1], cfg);
        let mut steps = 0;
        while st.step(&cost) {
            steps += 1;
            if steps % 2 == 1 {
                st.park();
                assert!(st.is_parked());
                st.unpark();
            }
        }
        assert_eq!(st.output().tokens, serial.tokens, "park/unpark drifted");

        // Draft stepper parks both sessions.
        let dcfg = DraftConfig {
            gamma: 3,
            max_tokens: 15,
            seed: 4,
            ..Default::default()
        };
        let (dserial, dstats) = decode_draft_speculative(&ng, &ng, &[6, 7], &dcfg, &cost);
        let mut st = Stepper::draft_verify(&ng, &ng, &[6, 7], dcfg);
        let mut i = 0;
        while st.step(&cost) {
            i += 1;
            if i == 2 {
                st.park();
                st.unpark();
            }
        }
        assert_eq!(st.output().tokens, dserial.tokens);
        assert_eq!(st.draft_stats(), Some(dstats));
    }

    #[test]
    fn from_session_continues_a_shared_prefix_exactly() {
        let model = tiny_model();
        let cost = GpuCostModel::codellama_like();
        let prompt: Vec<TokenId> = vec![1, 2, 3, 4, 5];
        for method in [DecodeMethod::Ntp, DecodeMethod::Ours] {
            let cfg = DecodeConfig {
                max_tokens: 12,
                ..Default::default()
            };
            let serial = method.decode(&model, &prompt, &cfg, &cost);
            // Ingest the first three tokens once, fork, append the rest.
            let mut prefix = model.session();
            prefix.append(&prompt[..3]);
            let forked = prefix.fork().expect("mlp fork");
            let cfg_run = DecodeConfig {
                syntax_aligned: method == DecodeMethod::Ours,
                ..cfg
            };
            let mut st = match method {
                DecodeMethod::Ntp => {
                    Stepper::ntp_from_session(&model, forked, &prompt[3..], cfg_run)
                }
                _ => Stepper::speculative_from_session(&model, forked, &prompt[3..], cfg_run),
            };
            while st.step(&cost) {}
            assert_eq!(st.output().tokens, serial.tokens, "{:?}", method);
        }
    }
}
