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
//! 2. **verify** — score the pending candidate paths against the
//!    target model, either per-session ([`Stepper::verify_local`],
//!    what the serial engines do) or fused across many requests: a
//!    server has a batch of steppers plan into one shared
//!    [`verispec_lm::VerifyPlan`] ([`Stepper::verify_plan`]) and
//!    executes it in one [`verispec_lm::verify_many`] pass.
//! 3. **commit** ([`Stepper::commit`]) — run acceptance over the
//!    scores, apply the syntax-integrity truncation, advance the
//!    simulated clock, and extend the session with the committed span.
//!
//! Logits never change hands as owned vectors: every phase reads
//! borrowed rows of a [`verispec_lm::LogitsArena`]
//! ([`verispec_lm::ArenaRows`]) — the stepper's own scratch arena on
//! the serial path, the server's per-tick arena on the fused one — and
//! the stepper's [`verispec_lm::NodeMap`] says which row each
//! `(path, position)` of the pending verification reads. Acceptance is
//! computed once per *unique* candidate-tree node, however many paths
//! run through it.
//!
//! The serial convenience [`Stepper::step`] chains the three phases,
//! and the public engines (`decode_ntp`, `decode_speculative`,
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
    /// The step has candidate paths that must be scored (with
    /// [`Stepper::verify_local`] or a fused [`Stepper::verify_plan`]
    /// execution) before [`Stepper::commit`].
    Verify {
        /// Whether the scoring must include the bonus row (the position
        /// after a fully accepted path).
        include_bonus: bool,
    },
    /// Nothing to verify this step; call [`Stepper::commit`] with no
    /// scores.
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
    /// NTP: the single base-logits row is pending.
    Ntp,
    /// Speculative: base token drawn, candidate paths built.
    Spec {
        step_start: usize,
        base_tok: TokenId,
        paths: Vec<Vec<TokenId>>,
        candidate_tokens: usize,
        verify_issued: bool,
    },
    /// Draft-verify: the draft block proposed, with per-position draft
    /// probabilities.
    Draft {
        step_start: usize,
        proposals: Vec<(TokenId, Vec<f32>)>,
    },
}

/// What acceptance needs from one verified node, computed on the first
/// visit and shared by every candidate path running through it.
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
    /// distribution is left in `probs`.
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

    /// Whether `tok` passes at this node; `fresh` says `probs` still
    /// holds this node's distribution (it was just evaluated).
    ///
    /// Under sampling the token's probability is recomputed from the
    /// memoized normalizers with the softmax's own operations, so it is
    /// the bit the full row held. Eq. 1's threshold `min(ε, δ·e^(-H))`
    /// never exceeds `ε` and, for non-negative parameters, is never
    /// negative, so a probability above `ε` or at zero — nearly all of
    /// them once sampling is cold — is decided without the entropy.
    fn accepts(
        &mut self,
        logits: &[f32],
        tok: TokenId,
        acceptance: &TypicalAcceptance,
        probs: &mut Vec<f32>,
        fresh: bool,
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
                p > *threshold.get_or_insert_with(|| {
                    if !fresh {
                        tempered_softmax_into(logits, *temperature, probs);
                    }
                    acceptance.threshold(probs)
                })
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
    /// Which row each `(path, position)` of the pending verification
    /// reads; refilled by every verify.
    nodes: NodeMap,
    /// The serial path's arena ([`Stepper::step`], local propose);
    /// stays empty under a server that supplies its own rows.
    scratch: LogitsArena,
    /// One softmax row, reused by every acceptance evaluation.
    probs: Vec<f32>,
    /// Per-node acceptance of the step being committed.
    memo: Vec<Option<NodeAccept>>,
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
            memo: Vec::new(),
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
                self.pending = Some(Pending::Ntp);
                Phase::Verify {
                    include_bonus: true,
                }
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
                }
                self.pending = Some(Pending::Spec {
                    step_start,
                    base_tok,
                    paths,
                    candidate_tokens,
                    verify_issued,
                });
                if verify_issued {
                    Phase::Verify {
                        include_bonus: false,
                    }
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
                let mut proposals: Vec<(TokenId, Vec<f32>)> = Vec::with_capacity(gamma);
                for _ in 0..gamma {
                    let mut q = softmax(&draft.logits());
                    tempered(&mut q, cfg.temperature);
                    let tok = self.sampler.sample_from_probs(&q);
                    proposals.push((tok, q));
                    draft.append(&[tok]);
                    if tok == cfg.eos {
                        break;
                    }
                }
                if let EngineBody::Draft { stats, .. } = &mut self.engine {
                    stats.proposed += proposals.len();
                }
                self.pending = Some(Pending::Draft {
                    step_start,
                    proposals,
                });
                Phase::Verify {
                    include_bonus: true,
                }
            }
        }
    }

    /// Hands the pending verification — its paths, whether the bonus
    /// row is wanted, and the node map to fill — to `score`.
    fn score_pending<R>(
        &mut self,
        score: impl FnOnce(&mut dyn DecodeSession, &[&[TokenId]], bool, &mut NodeMap) -> R,
    ) -> R {
        let session = self
            .target
            .as_mut()
            .expect("stepper is parked; unpark before stepping")
            .as_mut();
        let nodes = &mut self.nodes;
        match self.pending.as_ref().expect("a step is pending") {
            // The single row is the current position's base logits: a
            // one-node tree, scored by the same call as any other.
            Pending::Ntp => score(session, &[&[]], true, nodes),
            Pending::Spec { paths, .. } => {
                let refs: Vec<&[TokenId]> = paths.iter().map(Vec::as_slice).collect();
                score(session, &refs, false, nodes)
            }
            Pending::Draft { proposals, .. } => {
                let path: Vec<TokenId> = proposals.iter().map(|(t, _)| *t).collect();
                score(session, &[&path], true, nodes)
            }
        }
    }

    /// Phase 2 (fused): plans the pending verification into a shared
    /// [`VerifyPlan`] for cross-request execution
    /// ([`verispec_lm::verify_many`]; commit with the rows from the
    /// base it returns). `false`, leaving the plan untouched, when the
    /// target session is not fusable (fall back to
    /// [`Stepper::verify_local`]).
    ///
    /// # Panics
    ///
    /// Panics if no step is pending verification.
    pub fn verify_plan(&mut self, plan: &mut VerifyPlan) -> bool {
        self.score_pending(|session, paths, bonus, nodes| {
            session.verify_plan(paths, bonus, nodes, plan)
        })
    }

    /// Phase 2 (serial): scores the pending verification against this
    /// stepper's own target session — exactly what the serial engines
    /// do — appending the rows to `out`. Returns the arena index to
    /// commit from (`out.rows_from(..)`).
    ///
    /// # Panics
    ///
    /// Panics if no step is pending verification.
    pub fn verify_local(&mut self, out: &mut LogitsArena) -> usize {
        self.score_pending(|session, paths, bonus, nodes| {
            session.verify_into(paths, bonus, nodes, out)
        })
    }

    /// Phase 3: accepts/commits the pending step from its verification
    /// scores: the rows from the base [`Stepper::verify_local`] or a
    /// fused execution of [`Stepper::verify_plan`] returned, or `None`
    /// when [`Stepper::propose`] returned [`Phase::Commit`].
    ///
    /// # Panics
    ///
    /// Panics if no step is pending, or a pending verification is
    /// committed without scores.
    pub fn commit(&mut self, scored: Option<ArenaRows<'_>>, cost: &GpuCostModel) {
        let pending = self.pending.take().expect("a step is pending");
        match pending {
            Pending::Ntp => self.commit_ntp(scored.expect("NTP steps verify"), cost),
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
                    verify_issued.then(|| scored.expect("the step issued a verification")),
                    cost,
                );
            }
            Pending::Draft {
                step_start,
                proposals,
            } => self.commit_draft(
                step_start,
                &proposals,
                scored.expect("draft steps verify"),
                cost,
            ),
        }
    }

    fn commit_ntp(&mut self, scored: ArenaRows<'_>, cost: &GpuCostModel) {
        let EngineBody::Ntp { cfg } = &self.engine else {
            unreachable!("pending/engine mismatch");
        };
        let (sampling, eos) = (cfg.sampling, cfg.eos);
        let tok = self
            .sampler
            .sample(scored.row(self.nodes.node(0, 0)), sampling);
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

    /// `scored` is `Some` exactly when the step issued a verification.
    fn commit_spec(
        &mut self,
        step_start: usize,
        base_tok: TokenId,
        paths: &[Vec<TokenId>],
        candidate_tokens: usize,
        scored: Option<ArenaRows<'_>>,
        cost: &GpuCostModel,
    ) {
        let EngineBody::Spec { cfg, .. } = &self.engine else {
            unreachable!("pending/engine mismatch");
        };
        // Everything acceptance needs from the config is Copy; snapshot
        // it so the hot loop never clones the config (or its tree Vec).
        let (sampling, acceptance, eos, syntax_aligned, max_tokens) = (
            cfg.sampling,
            cfg.acceptance,
            cfg.eos,
            cfg.syntax_aligned,
            cfg.max_tokens,
        );

        let mut committed = vec![base_tok];
        if let Some(scored) = scored {
            self.target_mut().truncate(step_start);
            // Paths share their prefixes' nodes (all of them the root):
            // each node is evaluated once, on first visit.
            let (nodes, memo, probs) = (&self.nodes, &mut self.memo, &mut self.probs);
            memo.clear();
            memo.resize(nodes.n_nodes(), None);
            let mut best: &[TokenId] = &[];
            for (i, path) in paths.iter().enumerate() {
                let mut accepted = 0usize;
                for (pos, &tok) in path.iter().enumerate() {
                    let logits = scored.row(nodes.node(i, pos));
                    let mut fresh = false;
                    let node = memo[nodes.local(i, pos)].get_or_insert_with(|| {
                        fresh = true;
                        NodeAccept::of(logits, sampling, probs)
                    });
                    if !node.accepts(logits, tok, &acceptance, probs, fresh) {
                        break;
                    }
                    accepted += 1;
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

    fn commit_draft(
        &mut self,
        step_start: usize,
        proposals: &[(TokenId, Vec<f32>)],
        scored: ArenaRows<'_>,
        cost: &GpuCostModel,
    ) {
        let EngineBody::Draft { cfg, .. } = &self.engine else {
            unreachable!("pending/engine mismatch");
        };
        let cfg = *cfg;
        // The rejection rule resamples from whole distributions, so the
        // draft engine keeps one owned row per scored position.
        let target_probs: Vec<Vec<f32>> = (0..self.nodes.path_rows(0))
            .map(|j| {
                let mut p = softmax(scored.row(self.nodes.node(0, j)));
                tempered(&mut p, cfg.temperature);
                p
            })
            .collect();

        // Exact rejection rule over the pre-scored distributions.
        let mut committed: Vec<TokenId> = Vec::new();
        let mut rejected = false;
        let mut accepted_now = 0usize;
        for (pos, (tok, q)) in proposals.iter().enumerate() {
            let p = &target_probs[pos];
            let (pt, qt) = (p[*tok as usize], q[*tok as usize].max(f32::MIN_POSITIVE));
            // Uniform draw on a fine grid (the Sampler API is index-based).
            let u: f32 = {
                let grid = 1_000_000usize;
                self.sampler.gen_range(grid) as f32 / grid as f32
            };
            if u < (pt / qt).min(1.0) {
                committed.push(*tok);
                accepted_now += 1;
                if *tok == cfg.eos {
                    break;
                }
            } else {
                // Resample from max(0, p - q), renormalized.
                let mut residual: Vec<f32> =
                    p.iter().zip(q).map(|(&a, &b)| (a - b).max(0.0)).collect();
                let sum: f32 = residual.iter().sum();
                if sum > 0.0 {
                    residual.iter_mut().for_each(|v| *v /= sum);
                } else {
                    residual = p.clone();
                }
                let tok = self.sampler.sample_from_probs(&residual);
                committed.push(tok);
                rejected = true;
                break;
            }
        }
        if let EngineBody::Draft { stats, .. } = &mut self.engine {
            stats.accepted += accepted_now;
        }
        self.history.record(proposals.len(), accepted_now);
        // Bonus token when everything was accepted: drawn from the
        // already-scored position after the full proposal block.
        if !rejected && committed.last() != Some(&cfg.eos) {
            let p = &target_probs[committed.len()];
            committed.push(self.sampler.sample_from_probs(p));
        }

        let remaining = cfg.max_tokens - self.out.tokens.len();
        committed.truncate(remaining);

        self.out
            .clock
            .record_step(cost, proposals.len(), committed.len());
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
            speculated: proposals.len(),
            accepted: committed.len(),
            truncated: 0,
            committed,
            fragment_complete: false,
        });
        if hit_eos {
            self.done = true;
        }
    }

    /// Runs one full step serially (propose → verify → commit).
    /// Returns `false` once the generation is done.
    pub fn step(&mut self, cost: &GpuCostModel) -> bool {
        match self.propose(None) {
            Phase::Done => false,
            Phase::Commit => {
                self.commit(None, cost);
                !self.done
            }
            Phase::Verify { .. } => {
                let mut arena = std::mem::take(&mut self.scratch);
                arena.clear();
                let base = self.verify_local(&mut arena);
                self.commit(Some(arena.rows_from(base)), cost);
                self.scratch = arena;
                !self.done
            }
        }
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
mod tests {
    use super::*;
    use crate::decode::{decode_speculative, DecodeMethod};
    use crate::draft::decode_draft_speculative;
    use verispec_lm::{MlpLm, MlpLmConfig, NgramLm};

    fn tiny_model() -> MlpLm {
        MlpLm::new(MlpLmConfig {
            vocab: 14,
            d_emb: 6,
            d_hidden: 12,
            context: 4,
            n_heads: 3,
            seed: 21,
        })
    }

    fn cyclic_ngram() -> NgramLm {
        let mut lm = NgramLm::new(3, 14);
        let seq: Vec<TokenId> = (0..200).map(|i| 6 + (i % 3) as TokenId).collect();
        lm.train_sequence(&seq);
        lm
    }

    #[test]
    fn node_acceptance_matches_the_full_row_definition() {
        // The definition the memo and its shortcuts must reproduce:
        // one full distribution per (path, position), then exact match
        // or Eq. 1 on it.
        fn reference(
            logits: &[f32],
            tok: TokenId,
            sampling: Sampling,
            acceptance: &TypicalAcceptance,
        ) -> bool {
            match sampling {
                Sampling::Greedy => tok == argmax(&softmax(logits)),
                Sampling::Temperature { temperature, .. } => {
                    let scaled: Vec<f32> = logits.iter().map(|&l| l / temperature).collect();
                    acceptance.accepts(&softmax(&scaled), tok)
                }
            }
        }
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
                for pair in rows.chunks(2) {
                    // Two nodes evaluated alternately, so every visit
                    // after the first finds the other node's row in the
                    // scratch.
                    let mut memo: [Option<NodeAccept>; 2] = [None, None];
                    for tok in 0..24 {
                        for (n, logits) in pair.iter().enumerate() {
                            let mut fresh = false;
                            let node = memo[n].get_or_insert_with(|| {
                                fresh = true;
                                NodeAccept::of(logits, sampling, &mut probs)
                            });
                            assert_eq!(
                                node.accepts(logits, tok, acceptance, &mut probs, fresh),
                                reference(logits, tok, sampling, acceptance),
                                "{sampling:?} {acceptance:?} tok {tok} of {logits:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn phase_driven_stepper_matches_serial_engines() {
        // Driving the stepper through explicit propose/verify/commit
        // phases must reproduce the public engines exactly.
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
            let mut st = Stepper::speculative(&model, &[1, 2, 3], cfg.clone());
            let mut arena = LogitsArena::new();
            loop {
                match st.propose(None) {
                    Phase::Done => break,
                    Phase::Commit => st.commit(None, &cost),
                    Phase::Verify { .. } => {
                        arena.clear();
                        let base = st.verify_local(&mut arena);
                        st.commit(Some(arena.rows_from(base)), &cost);
                    }
                }
            }
            let out = st.into_output();
            assert_eq!(out.tokens, serial.tokens);
            assert_eq!(out.steps, serial.steps);
            assert_eq!(out.trace, serial.trace);
        }
    }

    #[test]
    fn fused_verify_plan_path_matches_verify_local() {
        let model = tiny_model();
        let cost = GpuCostModel::codellama_like();
        let cfg = DecodeConfig {
            max_tokens: 16,
            tree: Some(vec![2, 2, 1]),
            ..Default::default()
        };
        let serial = decode_speculative(&model, &[2, 4], &cfg, &cost);
        let mut st = Stepper::speculative(&model, &[2, 4], cfg);
        let (mut plan, mut arena) = (VerifyPlan::new(), LogitsArena::new());
        loop {
            match st.propose(None) {
                Phase::Done => break,
                Phase::Commit => st.commit(None, &cost),
                Phase::Verify { .. } => {
                    plan.clear();
                    arena.clear();
                    assert!(st.verify_plan(&mut plan), "mlp session is fusable");
                    let base = verispec_lm::verify_many(&model, &plan, &mut arena);
                    st.commit(Some(arena.rows_from(base)), &cost);
                }
            }
        }
        assert_eq!(st.output().tokens, serial.tokens);
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
