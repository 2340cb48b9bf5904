//! Step-granular decoding: the scheduler-facing decomposition of the
//! engines in [`crate::decode`].
//!
//! A [`Stepper`] owns one generation's session, sampler, and output,
//! and advances it **one decoding step at a time**. It is started one
//! way, whatever the engine: [`Stepper::new`] takes the model, the
//! [`Engine`] to run as a value — NTP, MEDUSA (chain, tree or "Ours"),
//! or grammar-constrained with its oracle — and the session the
//! generation continues, fresh or an already-ingested prompt prefix.
//! The grammar engine's own state (the oracle and its viability state)
//! lives in the stepper, and the configured speculation shape is
//! derived once, by [`Engine::base_shape`]. Every engine runs the same
//! step — NTP is the speculative step with the **empty candidate
//! tree**, [`crate::policy::SpecShape::EMPTY`]: its base token is the
//! step's one token, and it has nothing to verify. Its shape is pinned
//! and traced like any other, and the top-1 chain is the tree without
//! widths, so no step tells the engines apart by shape kind. Each step
//! runs three phases:
//!
//! 1. **propose** ([`Stepper::propose`]) — open the step at the
//!    current position's base row (the trunk activation every Medusa
//!    head is attached to kept beside it), draw the base token, and lay
//!    out the step's candidate trie — none for the empty tree, whose
//!    step goes straight to commit. A MEDUSA step
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
//!    full path's leaf (never forwarded), and always on a session
//!    whose scored rows cannot serve head rows
//!    ([`verispec_lm::DecodeSession::keeps_frontier_rows`]). For every
//!    MEDUSA engine, the grammar engine included, the trie is a
//!    function of the step's *shape* alone — every depth-`d` node has
//!    level `d`'s width of children, named from head `d + 1` at this
//!    position — so it is built without tokens
//!    ([`verispec_lm::NodeMap::build_shape`], reused while the shape
//!    repeats) and **no head is evaluated yet**. Returns which
//!    [`Phase`] the step needs next.
//! 2. **verify** ([`Stepper::verify_level`]) — one call per **level**
//!    of the candidate tree: consume the level just scored — **judge**
//!    its nodes, name their children, run acceptance on those child
//!    edges — then plan the children whose edge was accepted. Under
//!    sampling a scored node's tempered softmax is held as its
//!    **support**
//!    ([`verispec_lm::matrix::tempered_support_into`]: the entries whose
//!    `exp` is non-zero, tens of a cold row's hundreds, and the dense
//!    row's normalisers bit for bit); an edge's probability, Eq. 1's
//!    entropy threshold and the next base draw are all read off it, and
//!    no dense row is normalised. A node is embedded and forwarded only
//!    once acceptance has reached it, and head `d + 1` is evaluated —
//!    its top-k naming the tokens on level `d + 1`'s edges — only once
//!    a depth-`d` node is, so a step costs what its accepted prefix
//!    costs, not what its proposed tree would: `1 + levels reached`
//!    head rows instead of `1 + depth`. The unconstrained engines give
//!    every node of a level the head's top-k — and read the head only
//!    as far as acceptance needs it: a level's verdicts come first
//!    (each node's row read once), and from them a
//!    small superset of the tokens the level could accept (the arg-max
//!    under greedy decoding; under sampling the support entries Eq. 1
//!    does not already refuse on their probability alone). The head
//!    row is then computed a kernel block at a time, those tokens'
//!    blocks first ([`verispec_lm::DecodeSession::head_row_until`]),
//!    and once `k` computed entries outrank all of them the level can
//!    accept nothing: it names no child and verification ends there —
//!    about half the levels reached on the benchmark's fleet workloads,
//!    which then compute about 60 % of their head-row blocks. A row not
//!    cut short is whole and named as before. The grammar engine names each reached
//!    node's children through that node's own [`ViabilityState`] — the
//!    first `k` tokens of the head's ranking viable from it, else the
//!    top `k` — ranking the whole head row once per level and only as
//!    deep as those scans read it ([`verispec_lm::Ranking`]). There is
//!    one head-row path: the step evaluates every head row itself,
//!    from the activation kept in its own arena, where a base row a
//!    server forwarded is copied first. The stepper either scores each
//!    level on its own session (what the serial engines do) or plans it
//!    into a shared [`verispec_lm::VerifyPlan`] that a server executes
//!    for its whole batch in one [`verispec_lm::verify_many`] pass per
//!    level.
//! 3. **commit** ([`Stepper::commit`]) — write the committed span from
//!    the accepted edges straight onto the end of the output's tokens,
//!    cut it there in place (syntax-integrity truncation, then the
//!    token budget), advance the simulated clock, and extend the
//!    session with it (no rollback: a verified step's session holds the
//!    base token and verification leaves the context alone). The step's
//!    [`StepTrace`] records counts only, so a commit allocates nothing
//!    beyond the amortised growth of the output's vectors. A MEDUSA
//!    step then finds the node the span ends at *as committed* — after
//!    syntax and budget truncation; the root for a base-token-only
//!    span — and, if verification scored it, copies its row (and
//!    activation, and support) into the stepper's one-row carry: the
//!    next step's base, already computed. A span that ends in `eos`, at a full
//!    path's leaf or at the token budget carries nothing, nor does a
//!    step that verified nothing. The carry is a cache of what a
//!    forward would compute, bit for bit — outputs, traces and the
//!    clock cannot tell (`carried_base_equals_forwarded_base`). Every
//!    speculative step is charged one way: the tree that was
//!    *proposed*, [`crate::policy::SpecShape::candidate_tokens`] of the
//!    step's shape, which is known before the base token is drawn — so
//!    a step whose base token is `eos` is charged it too (pinned for
//!    every engine by
//!    `every_speculative_engine_is_charged_its_shape_at_an_eos_base`).
//!    It prices the paper's one-pass GPU step, whatever this CPU chose
//!    to forward, evaluate or name.
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
//! (looping the middle one to the last level), and the public engines
//! (`decode_ntp`, `decode_speculative`, `decode_grammar_speculative`)
//! are each [`Stepper::new`] on a fresh
//! session plus one shared loop over it — so the serial path and a
//! scheduler-driven path, which admits a request through the same
//! constructor, execute **the same code** and produce bit-identical
//! token streams (the inference kernel guarantees bit-identical logits
//! regardless of batch composition).
//!
//! Between steps a stepper is always at its *committed* context —
//! verification never leaves a speculative append behind.
//!
//! **How much speculation each step buys** is not the stepper's
//! decision. A stepper runs the [`crate::policy::SpecShape`] (tree
//! widths and depth) last pinned on it ([`Stepper::pin_shape`]),
//! clamped to what the model can run, and starts pinned to its
//! configured shape, [`Engine::base_shape`] — so the serial engines run
//! the configured shape every step. The one decider is the serving
//! tick: it asks its [`crate::policy::SpecPolicy`] for each member's
//! shape, given the member's configured shape and the
//! [`crate::policy::AcceptHistory`] the stepper records at every
//! commit ([`Stepper::history`]), and pins the answer, so per-tick
//! capacity accounting and the built candidate paths agree exactly. A
//! serial run under a policy pins the policy's answer before each step
//! the same way.

use crate::accept::TypicalAcceptance;
use crate::decode::{
    constrain_base_token, viable_options, DecodeConfig, DecodeOutput, StepTrace,
    MAX_CANDIDATE_PATHS,
};
use crate::policy::{AcceptHistory, SpecShape};
use verispec_grammar::{syntax_keep_len, GrammarOracle, PruneRecord, ViabilityState};
use verispec_lm::matrix::{softmax_in_place, tempered_support_into};
use verispec_lm::{
    argmax, top_k_into, ArenaRows, DecodeClock, DecodeSession, GpuCostModel, LanguageModel,
    LogitsArena, NodeMap, Ranking, Sampler, Sampling, TokenId, VerifyPlan,
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

/// Which engine a generation runs, with what it needs besides the
/// target model: the one argument of [`Stepper::new`] that tells the
/// engines apart.
pub enum Engine<'m> {
    /// Conventional next-token prediction: the speculative step with the
    /// empty candidate tree, one drawn token per step.
    Ntp(DecodeConfig),
    /// MEDUSA-style self-speculation: top-1 chain or candidate tree, and
    /// syntax-aligned ("Ours") or not, per the config.
    Medusa(DecodeConfig),
    /// Grammar-constrained speculation: the syntax-aligned engine —
    /// `syntax_aligned` is forced on — whose candidate trees the oracle
    /// fills with lexically-viable continuations, node by node, as
    /// acceptance reaches them (see
    /// [`crate::decode::decode_grammar_speculative`]).
    Grammar(DecodeConfig, &'m GrammarOracle),
}

impl Engine<'_> {
    /// The configured speculation shape of a generation of this engine
    /// on a model with `n_heads` Medusa heads — what a
    /// [`crate::policy::SpecPolicy`] adapts from: the config's
    /// candidate tree over every head (no widths, the top-1 chain, for
    /// `tree: None`); [`SpecShape::EMPTY`] for NTP, which speculates
    /// nothing. The one derivation: [`Stepper::base_shape`] reports it,
    /// and a server prices a request it has not admitted yet with it.
    pub fn base_shape(&self, n_heads: usize) -> SpecShape {
        match self {
            Engine::Ntp(_) => SpecShape::EMPTY,
            Engine::Medusa(cfg) | Engine::Grammar(cfg, _) => SpecShape {
                widths: cfg.tree.clone().unwrap_or_default(),
                depth: n_heads,
            },
        }
    }
}

/// The in-flight state of one step between propose and commit: base
/// token drawn, candidate trie built.
struct Pending {
    step_start: usize,
    base_tok: TokenId,
    /// Candidate tokens the step *proposed* — its shape's (0 for the
    /// empty tree): what the simulated clock, the step trace and the
    /// acceptance history are charged.
    candidate_tokens: usize,
    verify_issued: bool,
    /// The candidate tree grows a level at a time: the children of a
    /// depth-`d` node are named from head `d + 1` at the step's base
    /// position, evaluated from the activation kept at this row of the
    /// stepper's own arena once a depth-`d` node is forwarded.
    kept: usize,
    /// Depth of the level in flight — planned, its rows not yet
    /// consumed (0: the root).
    depth: usize,
    /// Where the trie's rows start in the stepper's own arena, once it
    /// has scored a level itself; `None` while nothing is scored and
    /// when a server's passes score the step (the rows are then handed
    /// to [`Stepper::commit`]).
    local_rows: Option<usize>,
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
    /// Whether the edge into the node was given a token: every child of
    /// a reached node, except a grammar node's children past the
    /// options its viability filter found, which are never tested.
    named: bool,
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

#[cfg(test)]
thread_local! {
    /// How deep each level a grammar step named on this thread left its
    /// head's ranking, in naming order.
    pub(crate) static LEVEL_RANKINGS: std::cell::RefCell<Vec<usize>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Names `node`'s children with `options`, in sibling order, until
/// either runs out — a child's ordinal among its siblings is the option
/// it stands for — marking each one named and handing it to `each`
/// with its token. A node offered fewer options than it has children
/// leaves the rest unnamed.
fn name_children(
    nodes: &mut NodeMap,
    marks: &mut [NodeMark],
    node: usize,
    options: &[TokenId],
    mut each: impl FnMut(usize, TokenId),
) {
    let mut child = nodes.first_child(node);
    for &tok in options {
        let Some(c) = child else { break };
        nodes.set_token(c, tok);
        marks[c].named = true;
        each(c, tok);
        child = nodes.next_sibling(c);
    }
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
                let p = probability((logits[tok as usize] / *temperature - *max).exp(), *sum);
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

    /// Appends to `seeds` a superset of the tokens
    /// [`NodeAccept::accepts`] can pass at this node, read off what
    /// [`NodeAccept::of`] kept — `support` is what it appended — and
    /// returns `true`; `false`, when no finite set is known: a token
    /// outside the support has probability zero, which Eq. 1 refuses
    /// only for non-negative `ε` and `δ`.
    ///
    /// Under greedy decoding the set is the arg-max. Under sampling it
    /// is every support entry that `accepts` would not already refuse
    /// on its probability alone — at zero, under the bound
    /// ([`TypicalAcceptance::rejects_on_bound`]), or at or under a
    /// threshold the node has already computed — so no entropy is
    /// taken. The bound's rejections are a prefix of the entries by
    /// `exp`, so they are found with one compare each against the
    /// largest `exp` the bound is checked to reject, no division.
    fn acceptable_into(
        &self,
        acceptance: &TypicalAcceptance,
        support: &[(TokenId, f32)],
        seeds: &mut Vec<TokenId>,
    ) -> bool {
        let (sum, threshold) = match *self {
            NodeAccept::Greedy(best) => {
                seeds.push(best);
                return true;
            }
            NodeAccept::Typical { sum, threshold, .. } => (sum, threshold),
        };
        if !(acceptance.epsilon >= 0.0 && acceptance.delta >= 0.0) {
            return false;
        }
        let n = support.len();
        let bound = |p: f32| acceptance.rejects_on_bound(p, n);
        let rejected = |p: f32| {
            p <= acceptance.epsilon && (p <= 0.0 || bound(p) || threshold.is_some_and(|t| p <= t))
        };
        // `p` rises with `e` and the bound holds for every `p` under one
        // it holds for, so every `e` at or under an `exp` whose
        // probability it rejects is rejected too. The cut is the bound
        // turned into an `exp`, checked (not trusted) a few ulps down;
        // without one, every entry is divided.
        let bar = acceptance.epsilon.min(acceptance.delta / (2.0 * n as f32)) * sum;
        let cut = std::iter::successors(Some(bar), |c| Some(c.next_down()))
            .take(4)
            .find(|&c| bound(probability(c, sum)))
            .unwrap_or(0.0);
        for &(tok, e) in support {
            if e > cut && !rejected(probability(e, sum)) {
                seeds.push(tok);
            }
        }
        true
    }
}

/// A support entry's probability: its `exp` over the support's sum,
/// the operation the dense softmax does.
fn probability(e: f32, sum: f32) -> f32 {
    if sum > 0.0 {
        e / sum
    } else {
        e
    }
}

/// The grammar-constrained engine's per-generation oracle context: the
/// shared token-byte oracle plus this generation's incremental
/// viability state over `prompt + committed tokens`.
struct GrammarCtx<'m> {
    oracle: &'m GrammarOracle,
    state: ViabilityState,
    /// The pending step's state after each named trie node — its path
    /// from the base token on — which names that node's children.
    at_node: Vec<ViabilityState>,
}

/// One generation advanced step-by-step, started by [`Stepper::new`]
/// with the [`Engine`] it runs; see the module docs.
pub struct Stepper<'m> {
    target_model: &'m dyn LanguageModel,
    target: Box<dyn DecodeSession + 'm>,
    sampler: Sampler,
    /// The engine's configuration (`syntax_aligned` forced on for the
    /// grammar engine).
    cfg: DecodeConfig,
    /// The grammar engine's oracle context; `None` for the others.
    grammar: Option<GrammarCtx<'m>>,
    out: DecodeOutput,
    pending: Option<Pending>,
    done: bool,
    /// The configured shape, computed once at construction (the empty
    /// shape for NTP): what a policy is asked about.
    base: SpecShape,
    /// The generation's own per-step acceptance history — the pure
    /// input adaptive policies decide from.
    history: AcceptHistory,
    /// The shape the next propose runs and the last one ran: the base
    /// shape until the first pin, then the shape last pinned, clamped
    /// by each propose. A slot refilled in place, so a shape's widths
    /// are not reallocated every step.
    last_shape: SpecShape,
    /// What the viability filter did in the most recent grammar step —
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
    /// The head row of the level being named, as far as it was
    /// evaluated: one level's at a time.
    head_rows: LogitsArena,
    /// The verdict of every node of the level being consumed
    /// ([`Stepper::judge_level`]), in level order.
    verdicts: Vec<NodeAccept>,
    /// A superset of the tokens the level being consumed could accept,
    /// ascending: what its head row is read against.
    seeds: Vec<TokenId>,
    /// The candidate tokens of the node being named: its head's top-k
    /// (shared by a level's nodes), or a grammar node's own options.
    options: Vec<TokenId>,
    /// A MEDUSA step under sampling: the support of the tempered
    /// softmax of every node it scored, back to back
    /// ([`NodeMark::support`]) — tens of entries a node when sampling
    /// is cold, the whole row when it is hot.
    supports: Vec<(TokenId, f32)>,
    /// A greedy near-tie's softmax, the one dense distribution a step
    /// normalises.
    dists: Vec<f32>,
    /// Per trie node of the pending speculative step.
    marks: Vec<NodeMark>,
}

impl<'m> Stepper<'m> {
    /// Starts a generation of `engine` on `model` — the one way in, for
    /// every engine, serial or served. `session` holds the context the
    /// generation continues: an already-ingested prompt prefix (a
    /// prefix-cache fork), or nothing for a fresh `model.session()`;
    /// `rest` is appended to it, and the two together are the prompt. A
    /// grammar engine seeds its viability state from the whole prompt.
    pub fn new(
        model: &'m dyn LanguageModel,
        engine: Engine<'m>,
        mut session: Box<dyn DecodeSession + 'm>,
        rest: &[TokenId],
    ) -> Self {
        session.append(rest);
        let base = engine.base_shape(model.n_extra_heads());
        let (cfg, grammar) = match engine {
            Engine::Ntp(cfg) | Engine::Medusa(cfg) => (cfg, None),
            Engine::Grammar(cfg, oracle) => {
                // Death-recovering fold: prompts routinely wrap the
                // Verilog tail in instruction prose that no lexer
                // survives; recovery re-arms the machine at each
                // non-Verilog boundary instead of disabling the grammar
                // layer for the whole request.
                let state = oracle.advance_recovering(ViabilityState::new(), session.tokens());
                let cfg = DecodeConfig {
                    syntax_aligned: true,
                    ..cfg
                };
                let grammar = GrammarCtx {
                    oracle,
                    state,
                    at_node: Vec::new(),
                };
                (cfg, Some(grammar))
            }
        };
        Stepper {
            target_model: model,
            target: session,
            sampler: Sampler::new(cfg.seed),
            cfg,
            grammar,
            out: DecodeOutput {
                tokens: Vec::new(),
                steps: 0,
                clock: DecodeClock::new(),
                trace: Vec::new(),
            },
            pending: None,
            done: false,
            last_shape: base.clone(),
            base,
            history: AcceptHistory::default(),
            last_prune: None,
            nodes: NodeMap::new(),
            scratch: LogitsArena::new(),
            carry: LogitsArena::new(),
            carry_support: Vec::new(),
            carry_sum: 0.0,
            head_rows: LogitsArena::new(),
            verdicts: Vec::new(),
            seeds: Vec::new(),
            options: Vec::new(),
            supports: Vec::new(),
            dists: Vec::new(),
            marks: Vec::new(),
        }
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

    /// This generation's per-step acceptance history (speculated vs.
    /// accepted candidate tokens) — the pure input speculation policies
    /// decide from.
    pub fn history(&self) -> &AcceptHistory {
        &self.history
    }

    /// The request's *configured* speculation shape — what a policy is
    /// asked about ([`SpecShape::EMPTY`] for NTP steppers).
    pub fn base_shape(&self) -> &SpecShape {
        &self.base
    }

    /// The shape the most recent [`Stepper::propose`] ran, as clamped to
    /// the model, for observability: serving engines attach it to
    /// per-step trace events. Between [`Stepper::pin_shape`] and the
    /// next propose it is the pinned shape, and before the first pin it
    /// is the base shape ([`Stepper::base_shape`]).
    pub fn last_shape(&self) -> &SpecShape {
        &self.last_shape
    }

    /// What the viability filter did in the most recent step, summed
    /// over the nodes whose children it named: ranked tokens it tested
    /// (`considered`), rejected (`pruned`) and named as viable
    /// (`surviving`). `None` before the first propose and for
    /// non-grammar steppers; serving engines attach it to per-step
    /// trace events.
    pub fn last_prune(&self) -> Option<PruneRecord> {
        self.last_prune
    }

    /// Pins the shape every [`Stepper::propose`] runs from now on,
    /// until the next pin (a serving engine pins the shape it priced
    /// each member at, so cost accounting and the built candidate paths
    /// agree). Unpinned, a stepper runs its base shape. The shape is
    /// copied into the stepper's slot, which keeps its allocation from
    /// step to step.
    pub fn pin_shape(&mut self, shape: &SpecShape) {
        shape.copy_into(&mut self.last_shape);
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
    /// `false`, appending nothing, for sessions that are not fusable —
    /// and while the stepper holds a carried base, which is that row
    /// already: a tick's fused propose pass forwards only the members
    /// that need it. An NTP step carries nothing, so each of its steps
    /// is forwarded here.
    pub fn embed_plan(&mut self, xs: &mut Vec<f32>) -> bool {
        // Budget-exhausted steppers are excluded up front, so a fused
        // propose pass never computes logits that the next `propose`
        // would immediately discard as `Phase::Done`.
        if self.done || self.out.tokens.len() >= self.cfg.max_tokens || self.carry.rows() > 0 {
            return false;
        }
        self.target.embed_plan(xs)
    }

    /// Phase 1: advance to the next step's verification point.
    ///
    /// `base`, when given, must be the target session's base row at the
    /// current position as a fused cross-request pass wrote it after
    /// [`Stepper::embed_plan`] — row 0 of the view, the trunk
    /// activation kept beside it — in the arena the step's
    /// verification will go on to use; `None` opens the step at the
    /// carried base when the last commit left one, and forwards the
    /// position locally otherwise.
    ///
    /// # Panics
    ///
    /// Panics if a step is already pending (propose/commit must
    /// alternate).
    pub fn propose(&mut self, base: Option<ArenaRows<'_>>) -> Phase {
        assert!(self.pending.is_none(), "propose called with a step pending");
        if self.done {
            return Phase::Done;
        }
        self.scratch.clear();
        self.supports.clear();
        if self.out.tokens.len() >= self.cfg.max_tokens {
            self.done = true;
            return Phase::Done;
        }
        // This step's speculation shape: the one last pinned (the base
        // shape until a pin), clamped to what the model can run
        // ([`SpecShape::clamp`]), since everything the step is charged
        // is read off it. NTP's is the empty shape — no level, no
        // candidate token.
        let model = self.target_model;
        self.last_shape
            .clamp(model.n_extra_heads(), model.vocab_size());
        let shape = &self.last_shape;
        let (levels, candidate_tokens) = (shape.depth, shape.candidate_tokens());
        let (sampling, eos) = (self.cfg.sampling, self.cfg.eos);
        let session = self.target.as_mut();
        let step_start = session.len();
        // The base row only: a head is evaluated when acceptance
        // reaches its level, from the activation kept beside the row.
        // The last step's verification has usually forwarded this
        // position already — the node its committed span ended at —
        // and the row it left becomes this arena's row 0; only a step
        // with nothing carried forwards.
        let carried = base.is_none() && self.carry.rows() > 0;
        let local = match base {
            Some(_) => 0,
            None if carried => {
                std::mem::swap(&mut self.scratch, &mut self.carry);
                0
            }
            None => session.base_row_into(levels, &mut self.scratch),
        };
        let rows = base.unwrap_or_else(|| self.scratch.rows_from(local));
        self.carry.clear();
        // One RNG draw either way: from the carried row's support when
        // acceptance has normalised it already (greedy reads the
        // carried *logits*, whose arg-max may differ from the
        // distribution's inside `GREEDY_MARGIN`). The grammar engine
        // substitutes a non-viable draw deterministically from the
        // ranked base logits, so its sampled stream stays seed-aligned
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
        if let Some(g) = self.grammar.as_ref() {
            base_tok = constrain_base_token(base_tok, rows.row(0), g.oracle, g.state, eos);
            self.last_prune = Some(PruneRecord::default());
        }
        let verify_issued = base_tok != eos && candidate_tokens > 0;
        // Head rows are evaluated from the stepper's own arena: a base
        // row a server's fused pass forwarded is copied there, with the
        // activation beside it, once there is a head to read.
        let kept = match base {
            Some(rows) if verify_issued => self.scratch.push_kept(rows),
            _ => local,
        };
        if verify_issued {
            session.append(&[base_tok]);
            // The trie of the shape, no token named yet — and the same
            // trie as long as the shape repeats. No bonus row: a full
            // path's own node is never read.
            self.nodes
                .build_shape(shape.level_widths(), MAX_CANDIDATE_PATHS);
            self.nodes.request(0);
            self.marks.clear();
            self.marks.resize(self.nodes.n_nodes(), NodeMark::default());
            if let Some(g) = &mut self.grammar {
                g.at_node.clear();
                g.at_node
                    .resize(self.nodes.n_nodes(), ViabilityState::new());
                g.at_node[0] = g.oracle.advance(g.state, base_tok);
            }
        }
        self.pending = Some(Pending {
            step_start,
            base_tok,
            candidate_tokens,
            verify_issued,
            kept,
            depth: 0,
            local_rows: None,
        });
        if verify_issued {
            Phase::Verify
        } else {
            Phase::Commit
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
            self.consume_level(rows, local);
        }
        if !self.nodes.has_frontier() {
            return false;
        }
        if let Some(plan) = plan {
            if self.target.plan_frontier(&mut self.nodes, plan) {
                return true;
            }
        }
        debug_assert!(scored.is_none(), "a fused verification cannot turn local");
        while self.nodes.has_frontier() {
            let base = self.target.score_frontier(&mut self.nodes, local);
            self.pending.as_mut().expect("a step is pending").local_rows = Some(base);
            self.consume_level(local.rows_from(base), local);
        }
        false
    }

    /// Consumes the level just scored: judges its nodes
    /// ([`Stepper::judge_level`]), names their children
    /// ([`Stepper::name_next_level`]), then tests their edges
    /// ([`Stepper::test_level`]).
    fn consume_level(&mut self, scored: ArenaRows<'_>, local: &LogitsArena) {
        let bounded = self.judge_level(scored);
        self.name_next_level(local, bounded);
        self.test_level(scored);
    }

    /// Judges every node of the level just scored: reads its row once
    /// ([`NodeAccept::of`]) and keeps the verdict, in level order, for
    /// [`Stepper::test_level`] — under sampling with the node's support
    /// marked. For the unconstrained engines it also collects into
    /// `seeds`, ascending, a superset of the tokens the level could
    /// accept ([`NodeAccept::acceptable_into`]) and returns `true`;
    /// `false` when the level could accept any token, and for the
    /// grammar engine, whose naming reads its heads whole.
    fn judge_level(&mut self, scored: ArenaRows<'_>) -> bool {
        let (nodes, dists, supports) = (&self.nodes, &mut self.dists, &mut self.supports);
        let (verdicts, seeds) = (&mut self.verdicts, &mut self.seeds);
        let cfg = &self.cfg;
        verdicts.clear();
        seeds.clear();
        let mut bounded = self.grammar.is_none();
        for &node in nodes.level() {
            let from = supports.len();
            let verdict =
                NodeAccept::of(scored.row(nodes.row(node)), cfg.sampling, dists, supports);
            if let NodeAccept::Typical { sum, .. } = verdict {
                let mark = &mut self.marks[node];
                (mark.support, mark.sum) = ((from, supports.len()), sum);
            }
            bounded = bounded && verdict.acceptable_into(&cfg.acceptance, &supports[from..], seeds);
            verdicts.push(verdict);
        }
        seeds.sort_unstable();
        seeds.dedup();
        bounded
    }

    /// Names the children of every node of the level in flight — depth
    /// `d`, from head `d + 1` at the step's base position: the one
    /// moment a step evaluates a Medusa head, from the activation kept
    /// in its own arena `local`. The unconstrained engines give every
    /// node the head's top-k — and when the level's verdicts bound what
    /// it could accept (`bounded`), they read the head only until it
    /// shows whether one of those tokens ranks among the top-k
    /// ([`DecodeSession::head_row_until`]): a row cut short proves
    /// that no child edge could be accepted, and no child is named.
    /// The grammar engine gives each node the options its own
    /// viability state lets through ([`viable_options`]), from one
    /// ranking of the whole head row per level, and counts what the
    /// filter did into `last_prune`.
    fn name_next_level(&mut self, local: &LogitsArena, bounded: bool) {
        let pending = self.pending.as_ref().expect("a step is pending");
        let (kept, head) = (local.rows_from(pending.kept), pending.depth + 1);
        let (nodes, marks, options) = (&mut self.nodes, &mut self.marks, &mut self.options);
        let width = nodes.width(head - 1);
        let (session, rows) = (self.target.as_mut(), &mut self.head_rows);
        rows.clear();
        match &mut self.grammar {
            None => {
                let at = if bounded {
                    session.head_row_until(kept, head, &self.seeds, width, rows)
                } else {
                    Some(session.head_rows_into(kept, head..head + 1, rows))
                };
                let Some(at) = at else {
                    return;
                };
                top_k_into(rows.row(at), width, options);
                for k in 0..nodes.level().len() {
                    name_children(nodes, marks, nodes.level()[k], options, |_, _| {});
                }
            }
            Some(g) => {
                let at = session.head_rows_into(kept, head..head + 1, rows);
                let record = self
                    .last_prune
                    .as_mut()
                    .expect("a grammar propose opens it");
                let mut ranked = Ranking::new(rows.row(at), width);
                for k in 0..nodes.level().len() {
                    let node = nodes.level()[k];
                    let state = g.at_node[node];
                    let scan = viable_options(&mut ranked, width, g.oracle, state, options);
                    record.considered += scan.considered;
                    record.pruned += scan.pruned;
                    record.surviving += scan.surviving;
                    name_children(nodes, marks, node, options, |child, tok| {
                        g.at_node[child] = g.oracle.advance(state, tok);
                    });
                }
                #[cfg(test)]
                LEVEL_RANKINGS.with(|depths| depths.borrow_mut().push(ranked.depth()));
            }
        }
    }

    /// Runs acceptance over the level just judged: every node decides
    /// its named child edges back to back on its verdict and its own
    /// support, and requests the children acceptance goes on to.
    fn test_level(&mut self, scored: ArenaRows<'_>) {
        let (nodes, supports, cfg) = (&mut self.nodes, &self.supports, &self.cfg);
        for (k, verdict) in self.verdicts.iter_mut().enumerate() {
            let node = nodes.level()[k];
            let logits = scored.row(nodes.row(node));
            let (from, to) = self.marks[node].support;
            // The named children lead the sibling list.
            let mut child = nodes.first_child(node).filter(|&c| self.marks[c].named);
            while let Some(c) = child {
                let tok = nodes.token(c);
                if verdict.accepts(logits, tok, &cfg.acceptance, &supports[from..to]) {
                    self.marks[c].accepted = true;
                    // Nothing is read past an accepted `eos`, nor at a
                    // full path's own node.
                    if tok != cfg.eos && nodes.wants_row(c) {
                        nodes.request(c);
                    }
                }
                child = nodes.next_sibling(c).filter(|&c| self.marks[c].named);
            }
        }
        nodes.clear_level();
        self.pending.as_mut().expect("a step is pending").depth += 1;
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
        let Pending {
            step_start,
            base_tok,
            candidate_tokens,
            verify_issued,
            local_rows,
            ..
        } = self.pending.take().expect("a step is pending");
        assert!(
            !self.nodes.has_frontier() && self.nodes.level().is_empty(),
            "commit called with the verification unfinished"
        );
        // The stepper's own arena leaves `self` for the call, so that a
        // row can be copied out of it: `rows` is the view the step's
        // trie was scored into — that arena's or a server's — when there
        // is one to copy from.
        let local = std::mem::take(&mut self.scratch);
        let rows = local_rows.map(|base| local.rows_from(base)).or(scored);
        let cfg = &self.cfg;
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
        // The span is built where it is kept — the end of the output's
        // tokens: the base token, then the accepted path — and every cut
        // below shortens it there, in place.
        let start = self.out.tokens.len();
        let tokens = &mut self.out.tokens;
        tokens.push(base_tok);
        tokens.extend((1..=best_len).map(|j| token(best, j)));
        let accepted = 1 + best_len;
        // Acceptance history: candidates offered vs. cashed (the base
        // token is always committed, so it is excluded from both).
        self.history.record(candidate_tokens, best_len);

        // Syntax-integrity check (§III-B): the committed span must end
        // on a complete fragment.
        let mut truncated = 0usize;
        if syntax_aligned {
            let keep = syntax_keep_len(&tokens[start..], special::FRAG, eos);
            truncated = accepted - keep;
            tokens.truncate(start + keep);
        }
        let fragment_complete = tokens
            .last()
            .is_some_and(|&t| t == special::FRAG || t == eos);

        // Token-budget truncation (not counted as syntax truncation).
        tokens.truncate(max_tokens);
        let committed = tokens.len() - start;

        // The simulated step is priced by the tree it proposed — one
        // bandwidth-bound pass over all of it — not by the nodes this
        // machine went on to forward.
        self.out
            .clock
            .record_step(cost, candidate_tokens, committed);
        self.out.steps += 1;

        let span = &self.out.tokens[start..];
        let hit_eos = span.contains(&eos);
        // Advance the grammar viability state over the committed span
        // (death-recovering, matching the prompt seeding) — the state
        // stays a pure function of `prompt + out.tokens`.
        if let Some(g) = &mut self.grammar {
            g.state = g.oracle.advance_recovering(g.state, span);
        }
        // A verified step's session already holds the base token, and
        // verification left its context alone: extending it — no
        // rollback — keeps the cached window.
        let session = self.target.as_mut();
        debug_assert_eq!(session.len(), step_start + usize::from(verify_issued));
        session.append(&span[usize::from(verify_issued)..]);

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
            let node = match committed {
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
        self.scratch = local;
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
}

#[cfg(test)]
impl Stepper<'_> {
    /// The last verified step's trie as far as acceptance reached it:
    /// for every node it scored, the tokens from the base token to it
    /// and the tokens named on its child edges, in sibling order;
    /// sorted by path.
    pub(crate) fn reached_trie(&self) -> Vec<(Vec<TokenId>, Vec<TokenId>)> {
        let mut reached = Vec::new();
        let mut stack = vec![(0usize, Vec::new())];
        while let Some((node, path)) = stack.pop() {
            if self.nodes.scored_row(node).is_none() {
                continue;
            }
            let mut named = Vec::new();
            let mut child = self.nodes.first_child(node);
            while let Some(c) = child.filter(|&c| self.marks[c].named) {
                let tok = self.nodes.token(c);
                named.push(tok);
                let mut to_child = path.clone();
                to_child.push(tok);
                stack.push((c, to_child));
                child = self.nodes.next_sibling(c);
            }
            reached.push((path, named));
        }
        reached.sort();
        reached
    }
}

#[cfg(test)]
mod frontier_tests;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::decode::{decode_grammar_speculative, decode_ntp, decode_speculative};
    use proptest::prelude::*;
    use verispec_lm::{MlpLm, MlpLmConfig};

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

    /// A heads-free model on the trait-default session over a 14-token
    /// vocabulary: after a token of the cycle the next one leads its row
    /// by 4, after any other token the cycle's first one does, and the
    /// rest of the row varies with the last token so a warm sampler has
    /// choices.
    pub(crate) struct Cycle(pub &'static [TokenId]);

    impl LanguageModel for Cycle {
        fn vocab_size(&self) -> usize {
            14
        }

        fn logits(&self, prefix: &[TokenId]) -> Vec<f32> {
            let last = prefix.last().copied().unwrap_or(0);
            let at = self.0.iter().position(|&t| t == last).map_or(0, |i| i + 1);
            let next = self.0[at % self.0.len()];
            (0..14)
                .map(|v| {
                    if v == next {
                        4.0
                    } else {
                        ((v + last) % 5) as f32 * 0.25
                    }
                })
                .collect()
        }
    }

    /// An [`MlpLm`] behind its stateless forward only, so its sessions
    /// are the trait default's fresh recompute per query: the reference
    /// side of cached-vs-stateless comparisons.
    pub(super) struct Recompute<'a>(pub &'a MlpLm);

    impl LanguageModel for Recompute<'_> {
        fn vocab_size(&self) -> usize {
            self.0.vocab_size()
        }

        fn n_extra_heads(&self) -> usize {
            self.0.n_extra_heads()
        }

        fn logits(&self, prefix: &[TokenId]) -> Vec<f32> {
            self.0.logits(prefix)
        }

        fn multi_logits(&self, prefix: &[TokenId]) -> Vec<Vec<f32>> {
            self.0.multi_logits(prefix)
        }
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

    /// A sampling and the logits rows it is judged on.
    type SampledRows = (Sampling, Vec<Vec<f32>>);

    /// The fixed sweep of [`node_acceptance_matches_the_full_row_definition`]:
    /// per sampling, its rows — narrow and vocabulary-wide, tied, flat
    /// and peaked — and the `(ε, δ)` pairs every row is judged under.
    fn acceptance_sweep() -> (Vec<SampledRows>, [TypicalAcceptance; 6]) {
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
        let sweep = samplings
            .into_iter()
            .map(|sampling| match sampling {
                Sampling::Greedy => (sampling, rows_at(1.0)),
                Sampling::Temperature { temperature, .. } => (sampling, rows_at(temperature)),
            })
            .collect();
        (sweep, acceptances)
    }

    #[test]
    fn node_acceptance_matches_the_full_row_definition() {
        // The definition the per-node evaluation and its shortcuts
        // must reproduce: one full distribution per edge, then exact
        // match or Eq. 1 on it.
        use verispec_lm::matrix::tempered_softmax_into;
        let (sweep, acceptances) = acceptance_sweep();
        let mut dense = Vec::new();
        let ulp = |x: f32, by: i32| f32::from_bits((x.to_bits() as i32 + by) as u32);
        for (sampling, rows) in sweep {
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

    /// A node's superset of acceptable tokens against the definition,
    /// collected when the node is judged and again once testing every
    /// edge has cached its threshold: it holds every token the
    /// definition accepts, ascending; under greedy it is the
    /// distribution's arg-max alone, and under sampling the support
    /// entries not refused on their probability alone — the bound's
    /// `exp` cut included, entry by entry. Returns how many support entries
    /// it kept and left out, `None` where no set is known.
    fn assert_superset(
        logits: &[f32],
        sampling: Sampling,
        acceptance: &TypicalAcceptance,
    ) -> Option<(usize, usize)> {
        use super::frontier_tests::reference_accepts as reference;
        use verispec_lm::matrix::softmax;
        let (mut dists, mut support, mut seeds) = (Vec::new(), Vec::new(), Vec::new());
        let mut node = NodeAccept::of(logits, sampling, &mut dists, &mut support);
        let what = format!("{sampling:?} {acceptance:?} {logits:?}");
        let accepted: Vec<TokenId> = (0..logits.len() as TokenId)
            .filter(|&tok| reference(logits, tok, sampling, acceptance))
            .collect();
        for judged in [false, true] {
            if judged {
                for tok in 0..logits.len() as TokenId {
                    node.accepts(logits, tok, acceptance, &support);
                }
            }
            seeds.clear();
            if !node.acceptable_into(acceptance, &support, &mut seeds) {
                // Only where a token of probability zero can pass.
                assert!(
                    acceptance.epsilon < 0.0 || acceptance.delta < 0.0,
                    "{what}: no set"
                );
                return None;
            }
            assert!(seeds.windows(2).all(|w| w[0] < w[1]), "{what}: ascending");
            for tok in &accepted {
                assert!(seeds.contains(tok), "{what}: {tok} accepted, not a seed");
            }
            if sampling == Sampling::Greedy {
                assert_eq!(seeds, [argmax(&softmax(logits))], "{what}");
            }
            // Under sampling the set is exactly the support entries its
            // doc names: those not refused on their probability alone.
            if let NodeAccept::Typical { sum, threshold, .. } = node {
                let n = support.len();
                for &(tok, e) in &support {
                    let p = probability(e, sum);
                    let refused = p <= acceptance.epsilon
                        && (p <= 0.0
                            || acceptance.rejects_on_bound(p, n)
                            || threshold.is_some_and(|t| p <= t));
                    assert_eq!(seeds.contains(&tok), !refused, "{what}: {tok} at {p}");
                }
            }
        }
        Some((seeds.len(), support.len().saturating_sub(seeds.len())))
    }

    #[test]
    fn acceptable_superset_holds_every_token_eq1_accepts() {
        // Over the sweep the acceptance definition is pinned on — and,
        // as there, with `δ` one ulp either side of `2·n·p` for a row's
        // runner-up and its median support entry, where the bound's
        // `exp` cut lies — every token the definition accepts at a node
        // is in the node's superset ([`assert_superset`]).
        let (sweep, acceptances) = acceptance_sweep();
        let ulp = |x: f32, by: i32| f32::from_bits((x.to_bits() as i32 + by) as u32);
        let (mut kept, mut left) = (0usize, 0usize);
        for (sampling, rows) in sweep {
            for logits in &rows {
                for acceptance in &acceptances {
                    let counts = assert_superset(logits, sampling, acceptance);
                    // Cold, at MEDUSA's defaults: the benchmark's case.
                    let cold = matches!(sampling,
                        Sampling::Temperature { temperature, .. } if temperature <= 0.05);
                    if let Some((k, l)) = counts.filter(|_| cold && acceptance == &acceptances[0]) {
                        (kept, left) = (kept + k, left + l);
                    }
                }
                let Sampling::Temperature { temperature, .. } = sampling else {
                    continue;
                };
                let mut support = Vec::new();
                let (_, sum) = tempered_support_into(logits, temperature, &mut support);
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
                        assert_superset(logits, sampling, &acceptance);
                    }
                }
            }
        }
        // It is not the support: cold, it leaves entries out.
        assert!(
            kept > 0 && left > 0,
            "{left} support entries left out, {kept} kept"
        );
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
            let engine = Engine::Medusa(cfg.clone());
            let mut st = [Stepper::new(&model, engine, model.session(), &[1, 2, 3])];
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
        // the batch — NTP (the empty tree), a sampled tree, a grammar
        // tree and a greedy "Ours" chain over the same target — each
        // reading its own rows and leaving the loop at its own depth.
        // Every member must equal its serial engine, which verifies
        // locally.
        let model = tiny_model();
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
        let chain_cfg = DecodeConfig {
            max_tokens: 16,
            syntax_aligned: true,
            ..Default::default()
        };
        let serial = [
            decode_ntp(&model, &[2, 4], &ntp_cfg, &cost),
            decode_speculative(&model, &[2, 4], &tree_cfg, &cost),
            decode_grammar_speculative(&model, &oracle, &[6, 7], &grammar_cfg, &cost),
            decode_speculative(&model, &[6, 7], &chain_cfg, &cost),
        ];
        let mut steppers = [
            (Engine::Ntp(ntp_cfg), [2, 4]),
            (Engine::Medusa(tree_cfg), [2, 4]),
            (Engine::Grammar(grammar_cfg, &oracle), [6, 7]),
            (Engine::Medusa(chain_cfg), [6, 7]),
        ]
        .map(|(engine, prompt)| Stepper::new(&model, engine, model.session(), &prompt));
        let rounds = drive_fused(&model, &mut steppers, &cost);
        for (st, want) in steppers.iter().zip(&serial) {
            assert_eq!(st.output().tokens, want.tokens);
            assert_eq!(st.output().steps, want.steps);
            assert_eq!(st.output().trace, want.trace);
        }
        // NTP never verifies — its one forward is the propose pass's —
        // while the others went deeper, and in some round to different
        // depths from one another.
        assert!(rounds.iter().all(|levels| levels[0] == 0));
        assert!(rounds
            .iter()
            .any(|levels| levels[1..].iter().any(|&l| l > 1)));
        assert!(rounds.iter().any(|levels| {
            let deep: Vec<usize> = levels[1..].iter().copied().filter(|&l| l > 0).collect();
            deep.iter().any(|&l| l != deep[0])
        }));
    }

    #[test]
    fn an_unpinned_stepper_runs_its_clamped_base_and_a_pin_lasts_until_the_next() {
        // The stepper decides no shape: it runs its base shape, clamped
        // to the model, until a pin, then the pinned shape (clamped)
        // every step until the next pin.
        let model = tiny_model();
        let (n_heads, vocab) = (model.n_extra_heads(), model.vocab_size());
        let cost = GpuCostModel::codellama_like();
        let cfg = DecodeConfig {
            max_tokens: 200,
            sampling: Sampling::temperature(0.8),
            eos: TokenId::MAX,
            seed: 3,
            // Wider than the vocabulary at the first level.
            tree: Some(vec![vocab + 6, 2]),
            ..Default::default()
        };
        let engine = Engine::Medusa(cfg.clone());
        let mut st = Stepper::new(&model, engine, model.session(), &[1, 2, 3]);
        let base = Engine::Medusa(cfg).base_shape(n_heads);
        assert_eq!(st.base_shape(), &base);
        let clamped = |shape: &SpecShape| {
            let mut shape = shape.clone();
            shape.clamp(n_heads, vocab);
            shape
        };
        let deep = SpecShape {
            widths: vec![2],
            depth: n_heads + 4,
        };
        let runs = [
            (None, clamped(&base)),
            (Some(deep.clone()), clamped(&deep)),
            (Some(SpecShape::EMPTY), SpecShape::EMPTY),
            (Some(base.clone()), clamped(&base)),
        ];
        assert_ne!(clamped(&base), base, "the base must need its clamp");
        assert_ne!(clamped(&deep), deep, "the pin must need its clamp");
        for (pin, runs_as) in runs {
            if let Some(shape) = pin {
                st.pin_shape(&shape);
                assert_eq!(st.last_shape(), &shape, "a pin is the next shape");
            }
            for _ in 0..4 {
                assert!(st.step(&cost));
                assert_eq!(st.last_shape(), &runs_as);
                let speculated = st.output().trace.last().expect("a step").speculated;
                assert_eq!(speculated, runs_as.candidate_tokens());
            }
        }
        assert_eq!(st.base_shape(), &base, "the base is never rewritten");
    }

    #[test]
    fn from_session_continues_a_shared_prefix_exactly() {
        // Every engine started on a forked, already-ingested prefix with
        // the rest of the prompt appended continues exactly as its
        // serial engine on the whole prompt — the grammar engine's
        // viability state seeded from the full prompt.
        let model = tiny_model();
        let cost = GpuCostModel::codellama_like();
        let bytes = (0..14)
            .map(|id| if id < 5 { Vec::new() } else { b"a".to_vec() })
            .collect();
        let oracle = GrammarOracle::new(bytes);
        let prompt: Vec<TokenId> = vec![6, 7, 8, 6, 7];
        let cfg = DecodeConfig {
            max_tokens: 12,
            sampling: Sampling::temperature(0.8),
            seed: 2,
            tree: Some(vec![2, 2]),
            ..Default::default()
        };
        let ours = DecodeConfig {
            syntax_aligned: true,
            ..cfg.clone()
        };
        let serial = [
            decode_ntp(&model, &prompt, &cfg, &cost),
            decode_speculative(&model, &prompt, &ours, &cost),
            decode_grammar_speculative(&model, &oracle, &prompt, &cfg, &cost),
        ];
        let engines = [
            Engine::Ntp(cfg.clone()),
            Engine::Medusa(ours),
            Engine::Grammar(cfg, &oracle),
        ];
        for (engine, want) in engines.into_iter().zip(&serial) {
            // Ingest the first three tokens once, fork, append the rest.
            let mut prefix = model.session();
            prefix.append(&prompt[..3]);
            let forked = prefix.fork().expect("mlp fork");
            let mut st = Stepper::new(&model, engine, forked, &prompt[3..]);
            while st.step(&cost) {}
            assert_eq!(st.output(), want);
        }
    }
}
