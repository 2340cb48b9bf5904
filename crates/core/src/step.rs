//! Step-granular decoding: the scheduler-facing decomposition of the
//! engines in [`crate::decode`] and [`crate::draft`].
//!
//! A [`Stepper`] owns one generation's sessions, sampler, and output,
//! and advances it **one decoding step at a time** through three
//! phases:
//!
//! 1. **propose** ([`Stepper::propose`]) — draw the base token and
//!    build the candidate paths (MEDUSA heads) or the draft block
//!    (draft-verify). Returns which [`Phase`] the step needs next.
//! 2. **verify** ([`Stepper::verify_level`]) — one call per **level**
//!    of the candidate tree: consume the level just scored (run
//!    acceptance on those nodes' child edges), then plan the children
//!    whose edge was accepted. A node is embedded and forwarded only
//!    once acceptance has reached it, so a step costs what its accepted
//!    prefix costs, not what its proposed tree would. The stepper
//!    either scores each level on its own session (what the serial
//!    engines do) or plans it into a shared [`verispec_lm::VerifyPlan`]
//!    that a server executes for its whole batch in one
//!    [`verispec_lm::verify_many`] pass per level. NTP is the root-only
//!    tree (the "edge test" draws the token); draft-verify is the
//!    one-path tree whose edge test is the rejection rule, its RNG
//!    draws in position order because levels are positions.
//! 3. **commit** ([`Stepper::commit`]) — pick the committed span from
//!    the accepted edges, apply the syntax-integrity truncation,
//!    advance the simulated clock, and extend the session with it. The
//!    clock is charged for the tree that was *proposed*
//!    (`candidate_tokens`): it prices the paper's one-pass GPU step,
//!    whatever this CPU chose to forward.
//!
//! Logits never change hands as owned vectors: every phase reads
//! borrowed rows of a [`verispec_lm::LogitsArena`]
//! ([`verispec_lm::ArenaRows`]) — the stepper's own scratch arena on
//! the serial path, the server's per-tick arena on the fused one — and
//! the stepper's [`verispec_lm::NodeMap`] holds the step's candidate
//! trie, which row each scored node reads and which nodes are asked for
//! next. A node's child edges are tested back to back the moment its
//! row exists, so acceptance evaluates each node's distribution once,
//! however many paths run through it.
//!
//! The serial convenience [`Stepper::step`] chains the three phases
//! (looping the middle one to the last level), and the public engines (`decode_ntp`, `decode_speculative`,
//! `decode_draft_speculative`) are thin loops over it — so the serial
//! path and a scheduler-driven path execute **the same code** and
//! produce bit-identical token streams (the inference kernel
//! guarantees bit-identical logits regardless of batch composition).
//!
//! Between steps a stepper is always at its *committed* context —
//! speculative appends have been rolled back — which is what makes
//! [`Stepper::park`]/[`Stepper::unpark`] (rollback-aware preemption)
//! safe: parking drops the sessions, and unparking rebuilds them by
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
    build_candidate_paths, build_grammar_candidate_paths, constrain_base_token, DecodeConfig,
    DecodeOutput, StepTrace,
};
use crate::draft::{tempered, DraftConfig, DraftStats};
use crate::policy::{AcceptHistory, ShapeQuery, SpecPolicy, SpecShape, STATIC_POLICY};
use verispec_grammar::{syntax_keep_len, GrammarOracle, PruneRecord, ViabilityState};
use verispec_lm::matrix::{softmax, softmax_in_place, tempered_softmax_into};
use verispec_lm::{
    argmax, ArenaRows, DecodeClock, DecodeSession, GpuCostModel, LanguageModel, LogitsArena,
    NodeMap, Sampler, Sampling, TokenId, VerifyPlan,
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
    /// Speculative: base token drawn, candidate paths built.
    Spec {
        step_start: usize,
        base_tok: TokenId,
        paths: Vec<Vec<TokenId>>,
        candidate_tokens: usize,
        verify_issued: bool,
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

/// What acceptance needs from one scored node, computed when its row
/// arrives and used for each of its child edges in turn.
#[derive(Debug, Clone, Copy)]
enum NodeAccept {
    /// Greedy decoding: the arg-max token of the node's distribution.
    Greedy(TokenId),
    /// Sampling: how the temperature-scaled logits normalize
    /// ([`softmax_in_place`]'s `(max, sum)`), and the Eq.-1 threshold of
    /// the resulting distribution once a token has needed it.
    Typical {
        temperature: f32,
        max: f32,
        sum: f32,
        threshold: Option<f32>,
    },
}

/// The lead (in logits) past which [`NodeAccept::of`] need not run a
/// softmax to know the greedy choice.
const GREEDY_MARGIN: f32 = 1e-3;

impl NodeAccept {
    /// Evaluates a node. Typical acceptance is evaluated on the
    /// *temperature-scaled* base distribution so that speculative
    /// sampling matches the baseline's sampling entropy; that
    /// distribution is left in `probs` for [`NodeAccept::accepts`].
    fn of(logits: &[f32], sampling: Sampling, probs: &mut Vec<f32>) -> Self {
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
                let clear = lead.is_finite()
                    && logits
                        .iter()
                        .enumerate()
                        .all(|(i, &l)| l <= lead || i == best as usize);
                if clear {
                    return NodeAccept::Greedy(best);
                }
                probs.clear();
                probs.extend_from_slice(logits);
                softmax_in_place(probs);
                NodeAccept::Greedy(argmax(probs))
            }
            Sampling::Temperature { temperature, .. } => {
                let (max, sum) = tempered_softmax_into(logits, temperature, probs);
                NodeAccept::Typical {
                    temperature,
                    max,
                    sum,
                    threshold: None,
                }
            }
        }
    }

    /// Whether `tok` passes at this node; `probs` is what
    /// [`NodeAccept::of`] left there (a node's edges are tested before
    /// the next node is evaluated, so it still is).
    ///
    /// Under sampling the token's probability is recomputed from the
    /// memoized normalizers with the softmax's own operations, so it is
    /// the bit the full row holds. Eq. 1's threshold `min(ε, δ·e^(-H))`
    /// never exceeds `ε` and, for non-negative parameters, is never
    /// negative, so a probability above `ε` or at zero — nearly all of
    /// them once sampling is cold — is decided without the entropy.
    fn accepts(
        &mut self,
        logits: &[f32],
        tok: TokenId,
        acceptance: &TypicalAcceptance,
        probs: &[f32],
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
                p > *threshold.get_or_insert_with(|| acceptance.threshold(probs))
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
    /// Shape pinned by a serving engine for the next propose (so the
    /// engine's per-tick budget accounting and the built paths agree).
    pinned: Option<SpecShape>,
    /// The configured shape, computed once at construction (`None` for
    /// NTP) — propose never rebuilds it on the hot path.
    base: Option<SpecShape>,
    /// The generation's own per-step acceptance history — the pure
    /// input adaptive policies decide from.
    history: AcceptHistory,
    /// The shape the most recent propose actually ran (policy-decided
    /// or pinned) — the per-step observability hook serving engines
    /// read when emitting trace events. `None` before the first
    /// propose, and always `None` for NTP steppers.
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
    /// The serial path's arena ([`Stepper::step`], local propose);
    /// stays empty under a server that supplies its own rows.
    scratch: LogitsArena,
    /// One softmax row, reused by every acceptance evaluation.
    probs: Vec<f32>,
    /// Per trie node of the pending speculative step: whether the edge
    /// into it was accepted.
    accepted: Vec<bool>,
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
            pinned: None,
            base,
            history: AcceptHistory::default(),
            last_shape: None,
            grammar: None,
            last_prune: None,
            nodes: NodeMap::new(),
            scratch: LogitsArena::new(),
            probs: Vec::new(),
            accepted: Vec::new(),
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
    pub fn base_shape(&self) -> Option<SpecShape> {
        self.base.clone()
    }

    /// The shape the most recent [`Stepper::propose`] actually ran
    /// (pinned or policy-decided), for observability: serving engines
    /// attach it to per-step trace events. `None` before the first
    /// propose and for NTP steppers.
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
    /// propose asks this stepper's own policy — the serial path.
    pub fn pin_shape(&mut self, shape: SpecShape) {
        self.pinned = Some(shape);
    }

    /// The shape the next step will run: the pinned one if a serving
    /// engine set it, otherwise this stepper's policy decision over the
    /// current history.
    fn next_shape(&mut self) -> SpecShape {
        match self.pinned.take() {
            Some(shape) => shape,
            None => self.policy.shape(&ShapeQuery {
                base: self
                    .base
                    .as_ref()
                    .expect("only speculative engines take shapes"),
                history: &self.history,
                cap: None,
            }),
        }
    }

    /// Consumes the stepper, returning the final output.
    pub fn into_output(self) -> DecodeOutput {
        self.out
    }

    /// Plans the next [`Stepper::propose`] into a fused pass: appends
    /// the target session's current-position model input to `xs` (see
    /// [`verispec_lm::DecodeSession::embed_plan`]) and returns how many
    /// head rows — base plus explored levels — the propose reads there,
    /// for one [`verispec_lm::multi_logits_many`] pass across requests.
    /// Decides the step's shape to know (and pins it, so the propose
    /// that follows builds exactly the shape that was paid for).
    ///
    /// `None`, appending nothing, for engines that read no multi-head
    /// logits and for sessions that are not fusable.
    pub fn embed_plan(&mut self, xs: &mut Vec<f32>) -> Option<usize> {
        let EngineBody::Spec { cfg, n_heads } = &self.engine else {
            return None;
        };
        // Budget-exhausted steppers are excluded up front, so a fused
        // propose pass never computes logits that the next `propose`
        // would immediately discard as `Phase::Done`.
        if self.done || self.out.tokens.len() >= cfg.max_tokens {
            return None;
        }
        let n_heads = *n_heads;
        if !self.target.as_mut()?.embed_plan(xs) {
            return None;
        }
        let shape = self.next_shape();
        let heads = shape.depth().min(n_heads) + 1;
        self.pinned = Some(shape);
        Some(heads)
    }

    fn target_mut(&mut self) -> &mut dyn DecodeSession {
        self.target
            .as_mut()
            .expect("stepper is parked; unpark before stepping")
            .as_mut()
    }

    /// Phase 1: advance to the next step's verification point.
    ///
    /// `heads`, when given, must hold the target session's
    /// `multi_logits()` rows at the current position, as many as
    /// [`Stepper::embed_plan`] said (a server computes them in a
    /// fused cross-request pass); `None` computes them locally.
    /// Engines that do not consume multi-head logits ignore it.
    ///
    /// # Panics
    ///
    /// Panics if a step is already pending (propose/commit must
    /// alternate) or the stepper is parked.
    pub fn propose(&mut self, heads: Option<ArenaRows<'_>>) -> Phase {
        assert!(self.pending.is_none(), "propose called with a step pending");
        if self.done {
            return Phase::Done;
        }
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
            EngineBody::Spec { cfg, n_heads } => {
                if self.out.tokens.len() >= cfg.max_tokens {
                    self.done = true;
                    return Phase::Done;
                }
                // Snapshot the Copy fields so the `self.engine`
                // borrow ends before the policy and session fields are
                // touched mutably.
                let n_heads = *n_heads;
                let (sampling, eos) = (cfg.sampling, cfg.eos);
                // This step's speculation shape: pinned by the serving
                // engine's budget pass, or this stepper's own policy
                // (the static default reproduces the configured shape
                // exactly).
                let shape = self.next_shape();
                self.last_shape = Some(shape.clone());
                let session = self
                    .target
                    .as_mut()
                    .expect("stepper is parked; unpark before stepping");
                let step_start = session.len();
                // Only the heads this step's shape explores are read,
                // so only those are computed.
                let heads = match heads {
                    Some(rows) => rows,
                    None => {
                        self.scratch.clear();
                        let levels = shape.depth().min(n_heads);
                        let base = session.multi_logits_into(levels + 1, &mut self.scratch);
                        self.scratch.rows_from(base)
                    }
                };
                // One RNG draw either way: the grammar engine
                // substitutes a non-viable draw deterministically from
                // the ranked base logits, so its sampled stream stays
                // seed-aligned with the unconstrained engine's.
                let mut base_tok = self.sampler.sample(heads.row(0), sampling);
                let paths = match &self.grammar {
                    Some(g) => {
                        base_tok =
                            constrain_base_token(base_tok, heads.row(0), g.oracle, g.state, eos);
                        let after_base = g.oracle.advance(g.state, base_tok);
                        let (paths, record) = build_grammar_candidate_paths(
                            heads, n_heads, &shape, g.oracle, after_base, eos,
                        );
                        self.last_prune = Some(record);
                        paths
                    }
                    None => build_candidate_paths(heads, n_heads, &shape),
                };
                let candidate_tokens: usize = paths.iter().map(Vec::len).sum();
                let verify_issued = base_tok != eos && candidate_tokens > 0;
                if verify_issued {
                    session.append(&[base_tok]);
                    // Token compares only: nothing is embedded until
                    // acceptance reaches it. No bonus row — a full
                    // path's own node is never read.
                    self.nodes.build(paths.iter().map(Vec::as_slice), false);
                    self.nodes.request(0);
                    self.accepted.clear();
                    self.accepted.resize(self.nodes.n_nodes(), false);
                }
                self.pending = Some(Pending::Spec {
                    step_start,
                    base_tok,
                    paths,
                    candidate_tokens,
                    verify_issued,
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
                let gamma = match self.next_shape() {
                    SpecShape::Draft { gamma } => gamma.max(1),
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
        if let Some(rows) = scored {
            self.consume_level(rows);
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
                return true;
            }
        }
        debug_assert!(scored.is_none(), "a fused verification cannot turn local");
        let mut arena = std::mem::take(&mut self.scratch);
        arena.clear();
        while self.nodes.has_frontier() {
            let session = self
                .target
                .as_mut()
                .expect("stepper is parked; unpark before stepping");
            let base = session.score_frontier(&mut self.nodes, &mut arena);
            self.consume_level(arena.rows_from(base));
        }
        self.scratch = arena;
        false
    }

    /// Runs the pending engine's edge test over the level just scored:
    /// every node of it reads its row once, decides its child edges
    /// back to back, and requests the children acceptance goes on to.
    fn consume_level(&mut self, scored: ArenaRows<'_>) {
        let (nodes, probs, sampler) = (&mut self.nodes, &mut self.probs, &mut self.sampler);
        let pending = self.pending.as_mut().expect("a step is pending");
        for k in 0..nodes.level().len() {
            let node = nodes.level()[k];
            let logits = scored.row(nodes.row(node));
            match (&mut *pending, &self.engine) {
                (Pending::Ntp { tok }, EngineBody::Ntp { cfg }) => {
                    *tok = Some(sampler.sample(logits, cfg.sampling));
                }
                (Pending::Spec { .. }, EngineBody::Spec { cfg, .. }) => {
                    let mut verdict = NodeAccept::of(logits, cfg.sampling, probs);
                    let mut child = nodes.first_child(node);
                    while let Some(c) = child {
                        let tok = nodes.token(c);
                        if verdict.accepts(logits, tok, &cfg.acceptance, probs) {
                            self.accepted[c] = true;
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
    }

    /// Phase 3: commits the pending step from what its verification
    /// accepted (or straight away, when [`Stepper::propose`] returned
    /// [`Phase::Commit`]).
    ///
    /// # Panics
    ///
    /// Panics if no step is pending, or its verification has not run
    /// to the end ([`Stepper::verify_level`] returned `false`).
    pub fn commit(&mut self, cost: &GpuCostModel) {
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
                paths,
                candidate_tokens,
                verify_issued,
            } => {
                self.commit_spec(
                    step_start,
                    base_tok,
                    &paths,
                    candidate_tokens,
                    verify_issued,
                    cost,
                );
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

    fn commit_spec(
        &mut self,
        step_start: usize,
        base_tok: TokenId,
        paths: &[Vec<TokenId>],
        candidate_tokens: usize,
        verify_issued: bool,
        cost: &GpuCostModel,
    ) {
        let EngineBody::Spec { cfg, .. } = &self.engine else {
            unreachable!("pending/engine mismatch");
        };
        let (eos, syntax_aligned, max_tokens) = (cfg.eos, cfg.syntax_aligned, cfg.max_tokens);

        let mut committed = vec![base_tok];
        if verify_issued {
            self.target_mut().truncate(step_start);
            // The first path with the strictly longest accepted prefix
            // wins, and once the winner ends in `eos` no later path is
            // looked at. A path's prefix ends at its first edge that
            // was rejected — or never tested, its parent unreached —
            // and right after an accepted `eos`.
            let mut best: &[TokenId] = &[];
            for (i, path) in paths.iter().enumerate() {
                let mut accepted = 0usize;
                while accepted < path.len() && self.accepted[self.nodes.node(i, accepted + 1)] {
                    accepted += 1;
                    if path[accepted - 1] == eos {
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
            committed.extend_from_slice(best);
        }
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
        self.target_mut().append(&committed);
        self.out.tokens.extend_from_slice(&committed);
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
        self.commit(cost);
        !self.done
    }

    /// Whether the stepper's sessions are currently released.
    pub fn is_parked(&self) -> bool {
        self.target.is_none()
    }

    /// Releases the sessions (rollback-aware preemption): legal only
    /// between steps, when the sessions hold exactly the committed
    /// context. The sampler, output, and engine state are retained.
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

    #[test]
    fn node_acceptance_matches_the_full_row_definition() {
        // The definition the per-node evaluation and its shortcuts
        // must reproduce: one full distribution per edge, then exact
        // match or Eq. 1 on it.
        use super::frontier_tests::reference_accepts as reference;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        // Rows with exact ties, near-ties one ulp apart (inside the
        // greedy margin), flat rows (high entropy) and peaked ones.
        let mut rows: Vec<Vec<f32>> = Vec::new();
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
            rows.push(row);
        }
        let samplings = [
            Sampling::Greedy,
            Sampling::temperature(0.01),
            Sampling::temperature(0.05),
            Sampling::temperature(0.8),
            Sampling::temperature(2.5),
        ];
        let acceptances = [
            TypicalAcceptance::default(),
            TypicalAcceptance {
                epsilon: 0.5,
                delta: 3.0,
            },
            TypicalAcceptance {
                epsilon: 0.0,
                delta: 0.3,
            },
            TypicalAcceptance {
                epsilon: 0.3,
                delta: -1.0,
            },
        ];
        let mut probs = Vec::new();
        for sampling in samplings {
            for acceptance in &acceptances {
                for logits in &rows {
                    // One evaluation per node, then every edge out of
                    // it back to back — how a scored level is consumed.
                    let mut node = NodeAccept::of(logits, sampling, &mut probs);
                    for tok in 0..24 {
                        assert_eq!(
                            node.accepts(logits, tok, acceptance, &probs),
                            reference(logits, tok, sampling, acceptance),
                            "{sampling:?} {acceptance:?} tok {tok} of {logits:?}"
                        );
                    }
                }
            }
        }
    }

    /// Drives `steppers` the way a serving tick does — propose all,
    /// then one fused kernel pass per level for every member still
    /// verifying, then commit all — until every one is done. Returns,
    /// per round, how many levels each verifying member took.
    fn drive_fused(
        model: &MlpLm,
        steppers: &mut [Stepper<'_>],
        cost: &GpuCostModel,
    ) -> Vec<Vec<usize>> {
        let (mut plan, mut arena) = (VerifyPlan::new(), LogitsArena::new());
        let mut rounds = Vec::new();
        loop {
            let phases: Vec<Phase> = steppers.iter_mut().map(|st| st.propose(None)).collect();
            if phases.iter().all(|&p| p == Phase::Done) {
                return rounds;
            }
            plan.clear();
            arena.clear();
            let mut levels = vec![0usize; steppers.len()];
            let mut verifying: Vec<usize> = Vec::new();
            for (i, st) in steppers.iter_mut().enumerate() {
                if phases[i] == Phase::Verify {
                    assert!(st.verify_level(None, Some(&mut plan)), "mlp sessions fuse");
                    verifying.push(i);
                }
            }
            while plan.pending() > 0 {
                let base = verispec_lm::verify_many(model, &mut plan, &mut arena);
                let rows = arena.rows_from(base);
                verifying.retain(|&i| {
                    levels[i] += 1;
                    steppers[i].verify_level(Some(rows), Some(&mut plan))
                });
            }
            assert!(verifying.is_empty());
            for (st, phase) in steppers.iter_mut().zip(&phases) {
                if *phase != Phase::Done {
                    st.commit(cost);
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
