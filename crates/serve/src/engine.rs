//! The continuous-batching serving engine: a pool of
//! [`verispec_lm::DecodeSession`]-backed [`Stepper`]s advanced by a
//! tick loop that fuses the model work of concurrent requests.
//!
//! Each tick:
//!
//! 1. **admission** — queued requests whose arrival tick has passed
//!    fill free session slots (up to `max_active`); if none is free
//!    and a request has waited past `preempt_wait`, the most-advanced
//!    active request is *preempted*: its stepper is parked (sessions
//!    released — legal between steps because speculation has been
//!    rolled back, so the stepper holds exactly its committed context)
//!    and re-queued, and the starved request takes its slot.
//! 2. **selection** — the [`Scheduler`] picks up to `max_batch` active
//!    requests (round-robin / seeded / EDF / weighted-fair order, with an
//!    aging guard bounding every request's service gap — see
//!    [`Scheduler::starvation_bound`]).
//! 3. **fused propose** — the MEDUSA-style members of the batch append
//!    their current-position embeddings to one flat buffer and get
//!    their base row — one row each, the trunk activation kept beside
//!    it for the rest of the tick — from **one**
//!    [`verispec_lm::MlpLm::infer`] pass. No Medusa head is
//!    evaluated yet.
//! 4. **fused verify, level by level** — every member requests its
//!    candidate tree's root and plans it into one shared
//!    [`verispec_lm::VerifyPlan`]; **one** [`verispec_lm::verify_many`]
//!    pass scores that level for the whole batch; each member runs
//!    acceptance on the rows it got and plans only the children whose
//!    edge survived; the next pass scores those — until no member has
//!    anything left to ask for ([`Stepper::verify_level`]). With each
//!    level a member plans goes the one head row that names the level
//!    below it, evaluated by the same pass from the member's kept
//!    activation. A tick therefore forwards what its members'
//!    *accepted* prefixes cost (a few nodes each, in two or three
//!    dependent passes), not their proposed trees, and evaluates the
//!    heads of the levels acceptance reached, not of the levels
//!    proposed. Every member plans: the engine opens each session
//!    itself (`model.session()` or a [`PrefixCache`] snapshot fork).
//! 5. **commit** — each stepper picks its committed span from the
//!    edges it accepted and rolls back the rest, locally.
//!
//! Every pass is the same inference kernel a lone session calls
//! (`MlpLm::infer`), writing into one engine-owned
//! [`verispec_lm::LogitsArena`] that every tick clears and refills; a
//! batch of one runs the same code at the same per-node cost as a batch
//! of hundreds. Because the kernel's rows are bit-identical for every
//! input regardless of what shares the pass, each request's token
//! stream equals the serial single-session engine's — the property
//! `tests/proptest_serve.rs` pins.

use crate::prefix::PrefixCache;
use crate::request::{Completion, EngineChoice, Request};
use crate::scheduler::{ActiveView, Scheduler, TickOrder};
use serde::{Deserialize, Serialize};
use verispec_core::{
    AcceptHistory, Phase, ShapeQuery, SpecPolicy, SpecShape, Stepper, STATIC_POLICY,
};
use verispec_grammar::GrammarOracle;
use verispec_lm::{
    verify_many, DecodeSession, GpuCostModel, LanguageModel, LogitsArena, MlpLm, VerifyPlan,
};
use verispec_trace::{EventKind, TraceEvent, TraceSink, NOOP};

/// Serving-engine knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Session-pool size: maximum concurrently active requests.
    pub max_active: usize,
    /// Maximum requests stepped (and fused) per tick.
    pub max_batch: usize,
    /// Selection order within a tick.
    pub order: TickOrder,
    /// Queue-wait ticks after which an arrived request may preempt the
    /// most-advanced active request; `None` disables preemption.
    pub preempt_wait: Option<u64>,
    /// Memory budget: maximum resident sessions (active steppers plus
    /// prefix-cache snapshots). While over it, the engine evicts the
    /// cache's least-recently-used leaves — exact-replay eviction, so a
    /// later miss rebuilds the session from the full prompt and outputs
    /// are unchanged. Active sessions are never evicted (the working
    /// set); `None` disables the cap.
    pub session_cap: Option<usize>,
    /// Per-tick verify capacity in [`verispec_core::SpecShape::step_cost`]
    /// units (base/bonus row + candidate tokens; an NTP step costs 1).
    /// When set, each tick's batch is gated by this budget instead of
    /// only `max_batch`: the engine walks the scheduler's order, asks
    /// the speculation policy for each request's shape with the
    /// remaining budget as its cap, and defers requests whose shape
    /// does not fit (the first request in order always steps, so the
    /// aging guard's no-starvation bound survives). `None` (the
    /// default) keeps the pre-policy behavior: candidates are not
    /// charged against tick time. A policy with its own
    /// [`verispec_core::SpecPolicy::tick_budget`] supplies the capacity
    /// when this is `None`.
    pub tick_capacity: Option<usize>,
    /// Load-shedding admission control: when more than this many
    /// *ready* fresh requests (arrival tick due, not yet admitted) are
    /// waiting after admission, the newest arrivals are shed —
    /// rejected outright, reported in [`ServeReport::shed`] — instead
    /// of queueing without bound. Deterministic per tick schedule, so
    /// batch and streaming runs shed identically. `None` disables
    /// shedding.
    pub shed_depth: Option<usize>,
    /// Enables the radix-tree prefix cache ([`crate::PrefixCache`]):
    /// admission walks the trie to the deepest cached prefix of the
    /// prompt, forks a copy-on-write session from it, and appends only
    /// the unmatched suffix; misses insert the prompt (splitting edges
    /// on divergence) so later requests sharing a stem hit. Cache
    /// residency is charged against [`ServeConfig::session_cap`]
    /// alongside live sessions, and eviction is exact-replay (LRU
    /// leaves are dropped; a later miss rebuilds from the full prompt,
    /// outputs bit-identical). Requires a model with
    /// [`LanguageModel::snapshot_session`]; inert otherwise.
    #[serde(default)]
    pub prefix_cache: bool,
    /// Prompt-ingestion cost model: tokens ingested per tick at
    /// admission. A freshly admitted request *warms up* for
    /// `ceil(suffix / rate) - 1` ticks — where `suffix` is the part of
    /// its prompt **not** covered by a prefix-cache hit — before it
    /// becomes schedulable, so prefix reuse shows up as tick-space TTFT
    /// savings. `None` (the default)
    /// keeps ingestion free, the pre-cache behavior. Token streams are
    /// unaffected either way — warmup only shifts scheduling.
    #[serde(default)]
    pub ingest_rate: Option<usize>,
    /// Per-class weighted-fairness shares consumed by
    /// [`TickOrder::WeightedFair`]: entry `i` is the scheduling weight
    /// of request class `i` ([`Request::class`]); classes beyond the
    /// vector (and zero entries) default to weight 1. Ignored by every
    /// other tick order. Weights steer only *when* requests step —
    /// outputs are class-invariant.
    #[serde(default)]
    pub class_weights: Vec<u32>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_active: 8,
            max_batch: 8,
            order: TickOrder::RoundRobin,
            preempt_wait: None,
            session_cap: None,
            tick_capacity: None,
            shed_depth: None,
            prefix_cache: false,
            ingest_rate: None,
            class_weights: Vec::new(),
        }
    }
}

impl ServeConfig {
    /// A config serving up to `n` requests concurrently (pool and batch
    /// both `n`).
    pub fn concurrency(n: usize) -> Self {
        ServeConfig {
            max_active: n.max(1),
            max_batch: n.max(1),
            ..Default::default()
        }
    }
}

/// Aggregate counters of one serving run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Scheduler ticks executed.
    pub ticks: u64,
    /// Base positions forwarded by fused cross-request propose passes:
    /// one per MEDUSA-style step that opened without a carried base —
    /// a request's first step, a step after a span that ended at a
    /// full path's leaf, a step after a preemption. Every other step
    /// opens at the row its predecessor's verification left.
    pub fused_propose_positions: usize,
    /// Inputs forwarded by fused [`verify_many`] calls: the
    /// candidate-tree nodes acceptance reached (each member's root and
    /// the children of its accepted edges), not the nodes proposed.
    /// Head rows evaluated from kept activations ride the same calls
    /// but forward nothing, and are not counted.
    pub fused_verify_nodes: usize,
    /// Fused [`verify_many`] calls: one per *level* per tick — a tick
    /// whose deepest member accepts two edges in a row makes three.
    pub fused_verify_calls: usize,
    /// Preemptions performed.
    pub preemptions: usize,
    /// Largest active-set size observed.
    pub peak_active: usize,
    /// Total tokens committed across all completed requests.
    pub served_tokens: usize,
    /// High-water mark of resident sessions (active steppers +
    /// prefix-cache snapshots) — the memory the cap bounds. Under
    /// [`ServeConfig::session_cap`] `c ≥ 1` it stays at most
    /// `max(c, max_active − 1) + 3`: enforcing the cap leaves at most
    /// `c` resident or only active steppers, and an admission is read
    /// before the cap is enforced again — its stepper plus the split
    /// node and leaf one [`PrefixCache::insert`] may add.
    pub peak_resident_sessions: usize,
    /// Empty ticks skipped by the idle fast-forward (nothing active,
    /// every queued request still in the future): the clock jumps to
    /// the next arrival instead of burning these one by one.
    pub idle_ticks_skipped: u64,
    /// Candidate tokens speculated across all completed requests (what
    /// the speculation policies spent).
    pub proposed_tokens: usize,
    /// Speculated tokens accepted across all completed requests (what
    /// the spend cashed into).
    pub accepted_tokens: usize,
    /// Requests rejected by load-shedding admission control
    /// ([`ServeConfig::shed_depth`]); their ids are in
    /// [`ServeReport::shed`].
    pub shed_requests: usize,
    /// Scheduled steps pushed to a later tick because the request's
    /// speculation shape did not fit the remaining per-tick verify
    /// capacity ([`ServeConfig::tick_capacity`]).
    pub deferred_steps: u64,
    /// Fresh admissions whose prompt hit the prefix cache (a cached
    /// stem was forked instead of re-ingesting it).
    #[serde(default)]
    pub prefix_hits: usize,
    /// Fresh admissions that missed the prefix cache (full-prompt
    /// ingestion; the prompt was inserted for later requests). Only
    /// counted while the cache is enabled.
    #[serde(default)]
    pub prefix_misses: usize,
    /// Prompt tokens whose ingestion prefix-cache hits skipped (the sum
    /// of hit depths — the O(prompt) → O(suffix) savings).
    #[serde(default)]
    pub prefix_tokens_saved: usize,
    /// Cache snapshots dropped by the session cap's LRU-leaf eviction
    /// ([`ServeConfig::session_cap`]); later misses rebuild exactly.
    #[serde(default)]
    pub prefix_evictions: usize,
    /// High-water mark of snapshot-holding trie nodes.
    #[serde(default)]
    pub peak_resident_nodes: usize,
    /// Histogram of prefix-cache hit depths, log₂-bucketed: bucket `i`
    /// counts hits whose matched depth `d` satisfies
    /// `2^i <= d < 2^(i+1)` (the last bucket absorbs deeper hits).
    #[serde(default)]
    pub prefix_depth_hist: [u64; 8],
    /// Candidate tokens grammar-constrained steps built before
    /// dead-tail pruning (0 unless [`EngineChoice::GrammarTree`]
    /// requests ran with an oracle attached).
    #[serde(default)]
    pub grammar_considered: usize,
    /// Candidate tokens cut at propose time as dead tails — speculation
    /// that was never verified because it could not survive the
    /// post-hoc syntax check.
    #[serde(default)]
    pub grammar_pruned: usize,
    /// Candidate tokens grammar-constrained steps actually sent to
    /// verification (`considered - pruned`).
    #[serde(default)]
    pub grammar_surviving: usize,
    /// Worker crashes injected by a fault plan
    /// ([`crate::runtime::FaultPlan`]); counted on the fleet
    /// coordinator's stream, not inside any worker.
    #[serde(default)]
    pub crashes: usize,
    /// Worker restarts injected by a fault plan.
    #[serde(default)]
    pub restarts: usize,
    /// Requests migrated off crashed workers — re-routed through the
    /// live router and rebuilt elsewhere by exact replay (the crash
    /// recovery path; outputs stay token-identical).
    #[serde(default)]
    pub migrations: usize,
    /// Tokens migrated requests had already generated when their worker
    /// crashed — the decode work the fault threw away and exact replay
    /// regenerates elsewhere.
    #[serde(default)]
    pub replayed_tokens: usize,
    /// Arrivals and migrants deferred at the fleet level because no
    /// worker was alive to route to (backpressure; they re-route on the
    /// next restart).
    #[serde(default)]
    pub backpressure_deferrals: usize,
}

impl ServeStats {
    /// Folds one trace event into the aggregate counters — the
    /// **single place** every event-equivalent stat is maintained, so
    /// these counters can never disagree with the event stream that
    /// produced them ([`verispec_trace::MetricsRegistry`] performs the
    /// same fold over a collected log). Counters with no event
    /// equivalent (fusion internals, high-water marks) stay inline in
    /// the engine.
    pub fn apply_event(&mut self, ev: &TraceEvent) {
        match &ev.kind {
            EventKind::CacheLookup {
                hit,
                depth,
                tokens_saved,
            } => {
                if *hit {
                    self.prefix_hits += 1;
                    self.prefix_tokens_saved += tokens_saved;
                    let bucket = ((*depth).max(1).ilog2() as usize).min(7);
                    self.prefix_depth_hist[bucket] += 1;
                } else {
                    self.prefix_misses += 1;
                }
            }
            EventKind::Preempted => self.preemptions += 1,
            EventKind::Deferred => self.deferred_steps += 1,
            EventKind::PrefixEvicted => self.prefix_evictions += 1,
            EventKind::Shed { .. } => self.shed_requests += 1,
            EventKind::IdleSkip { skipped } => self.idle_ticks_skipped += skipped,
            EventKind::GrammarPrune {
                considered,
                pruned,
                surviving,
            } => {
                self.grammar_considered += considered;
                self.grammar_pruned += pruned;
                self.grammar_surviving += surviving;
            }
            EventKind::Finished {
                tokens,
                proposed,
                accepted,
                ..
            } => {
                self.served_tokens += tokens;
                self.proposed_tokens += proposed;
                self.accepted_tokens += accepted;
            }
            EventKind::WorkerCrashed { .. } => self.crashes += 1,
            EventKind::WorkerRestarted => self.restarts += 1,
            EventKind::Migrated { replay_tokens, .. } => {
                self.migrations += 1;
                self.replayed_tokens += replay_tokens;
            }
            EventKind::Backpressure => self.backpressure_deferrals += 1,
            _ => {}
        }
    }

    /// Folds another engine's counters into these — the multi-worker
    /// merge behind [`crate::DispatchReport::stats`]. Additive counters
    /// sum;
    /// schedule-length and high-water counters (`ticks`, `peak_active`,
    /// `peak_resident_sessions`, `peak_resident_nodes`,
    /// `idle_ticks_skipped`) take the per-worker maximum, because
    /// workers run independent clocks, pools, and caches.
    pub fn merge(&mut self, other: &ServeStats) {
        self.ticks = self.ticks.max(other.ticks);
        self.peak_active = self.peak_active.max(other.peak_active);
        self.peak_resident_sessions = self
            .peak_resident_sessions
            .max(other.peak_resident_sessions);
        self.idle_ticks_skipped = self.idle_ticks_skipped.max(other.idle_ticks_skipped);
        self.fused_propose_positions += other.fused_propose_positions;
        self.fused_verify_nodes += other.fused_verify_nodes;
        self.fused_verify_calls += other.fused_verify_calls;
        self.preemptions += other.preemptions;
        self.served_tokens += other.served_tokens;
        self.proposed_tokens += other.proposed_tokens;
        self.accepted_tokens += other.accepted_tokens;
        self.shed_requests += other.shed_requests;
        self.deferred_steps += other.deferred_steps;
        self.prefix_hits += other.prefix_hits;
        self.prefix_misses += other.prefix_misses;
        self.prefix_tokens_saved += other.prefix_tokens_saved;
        self.prefix_evictions += other.prefix_evictions;
        self.grammar_considered += other.grammar_considered;
        self.grammar_pruned += other.grammar_pruned;
        self.grammar_surviving += other.grammar_surviving;
        self.crashes += other.crashes;
        self.restarts += other.restarts;
        self.migrations += other.migrations;
        self.replayed_tokens += other.replayed_tokens;
        self.backpressure_deferrals += other.backpressure_deferrals;
        self.peak_resident_nodes = self.peak_resident_nodes.max(other.peak_resident_nodes);
        for (mine, theirs) in self
            .prefix_depth_hist
            .iter_mut()
            .zip(&other.prefix_depth_hist)
        {
            *mine += theirs;
        }
    }
}

/// One request rejected by load-shedding admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShedRequest {
    /// The request id.
    pub id: u64,
    /// Its arrival tick.
    pub arrival: u64,
    /// Its SLO deadline, if any (a shed deadline counts as missed in
    /// the SLO-attainment telemetry).
    pub deadline: Option<u64>,
    /// The tick at which it was shed.
    pub tick: u64,
}

/// The result of a serving run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReport {
    /// All finished requests, sorted by id.
    pub completions: Vec<Completion>,
    /// Requests rejected by load-shedding admission control, sorted by
    /// id (empty without [`ServeConfig::shed_depth`]).
    pub shed: Vec<ShedRequest>,
    /// Aggregate counters.
    pub stats: ServeStats,
}

impl ServeReport {
    /// The completion of request `id`, if it finished.
    pub fn completion(&self, id: u64) -> Option<&Completion> {
        self.completions.iter().find(|c| c.id == id)
    }

    /// Total generated tokens across all completions.
    pub fn total_tokens(&self) -> usize {
        self.completions.iter().map(|c| c.output.tokens.len()).sum()
    }
}

/// One admitted request.
struct Active<'m> {
    id: u64,
    /// The original submission, retained verbatim for crash migration:
    /// a crashed worker's in-flight requests are re-submitted from
    /// these (exact replay — deterministic decode regenerates the same
    /// tokens on the new worker).
    req: Request,
    stepper: Stepper<'m>,
    /// Decode budget (`max_tokens`), kept for the outstanding-cost
    /// load probe (the stepper consumes the config).
    budget: usize,
    submitted: u64,
    deadline: Option<u64>,
    admitted: u64,
    last_step: u64,
    max_gap: u64,
    preemptions: u32,
    /// Engine-relative wall seconds at which the request became visible.
    seen_secs: f64,
    /// Tick of every decoding step taken so far.
    step_ticks: Vec<u64>,
    /// Engine-relative wall seconds of the first committed token.
    first_commit_secs: Option<f64>,
    /// First tick at which the request may be scheduled: admission tick
    /// plus prompt-ingestion warmup ([`ServeConfig::ingest_rate`]; equal
    /// to the admission tick when ingestion is free or fully covered by
    /// a cache hit).
    warm_until: u64,
}

/// One queued (not yet active) request.
enum QueueEntry<'m> {
    /// Awaiting first admission.
    Fresh {
        req: Request,
        /// Engine-relative wall seconds at submission/receipt.
        seen_secs: f64,
    },
    /// Preempted mid-generation; resumes by unparking (boxed: a parked
    /// request carries its whole stepper state).
    Parked(Box<Active<'m>>),
}

/// The serving engine; see the module docs for the tick anatomy.
pub struct ServeEngine<'m> {
    /// The target model: sessions open on it, and each tick's fused
    /// propose and verify passes run its kernel.
    model: &'m MlpLm,
    draft: Option<&'m dyn LanguageModel>,
    /// Token-byte oracle [`EngineChoice::GrammarTree`] requests
    /// constrain speculation with; `None` degrades them to plain
    /// syntax-aligned speculation.
    grammar: Option<&'m GrammarOracle>,
    /// The radix-tree prefix cache ([`ServeConfig::prefix_cache`]);
    /// `None` when disabled or the model cannot snapshot sessions.
    cache: Option<PrefixCache<'m>>,
    cfg: ServeConfig,
    /// The speculation policy every stepper (and the per-tick budget
    /// pass) consults; [`verispec_core::StaticPolicy`] by default.
    policy: &'m dyn SpecPolicy,
    scheduler: Scheduler,
    queue: Vec<QueueEntry<'m>>,
    active: Vec<Active<'m>>,
    completions: Vec<Completion>,
    shed: Vec<ShedRequest>,
    tick: u64,
    stats: ServeStats,
    started: std::time::Instant,
    /// Structured-event receiver ([`verispec_trace::TraceSink`]); the
    /// no-op default reports itself disabled, so trace-only events are
    /// never even built and the pre-tracing hot path is preserved
    /// bit-for-bit.
    sink: &'m dyn TraceSink,
    /// This engine's fleet index, stamped on every emitted event (0
    /// for a standalone engine; [`crate::FleetRuntime`] labels the
    /// workers it builds).
    pub(crate) worker: u32,
    /// The tick's flat buffers, cleared and refilled every tick.
    buffers: TickBuffers,
}

/// What one tick reads and writes, kept across ticks so that a warm
/// tick — and each verify level within it — allocates nothing for its
/// own bookkeeping: the logits arena (the proposing members' base rows
/// and kept activations, then the verify levels' rows), the
/// fused-propose inputs (one embedding concat per position, one row
/// each), the fused-verify plan, the batch and the shape it is priced
/// at, and the per-member bookkeeping, indexed by position in the
/// tick's batch. With the stepper's shape slots and the scheduler's own
/// working lists, that leaves a warm tick these allocations:
///
/// * one per committed step: the committed span, allocated at its final
///   length and moved into the request's `StepTrace`;
/// * the doublings of each request's growing vectors (its tokens, step
///   traces, step ticks and acceptance history, its session's tokens)
///   — amortised, and per request rather than per tick;
/// * a grammar step's candidate-tree builder, which keeps its own
///   allocations: it ranks and widens per path, and making it
///   allocation-free would buy little against what a grammar step
///   costs;
/// * the events a traced tick builds for its sink.
///
/// `crates/serve/tests/tick_allocations.rs` counts them.
#[derive(Default)]
struct TickBuffers {
    arena: LogitsArena,
    propose_xs: Vec<f32>,
    plan: VerifyPlan,
    /// The scheduler's view of the active set.
    views: Vec<ActiveView>,
    /// The scheduler's picks, then those of them that can decode.
    selected: Vec<usize>,
    /// The members that step this tick, after the capacity pass.
    stepped: Vec<usize>,
    /// The shape the capacity pass prices a member at, copied on into
    /// its stepper's slot when it steps.
    priced: Option<SpecShape>,
    /// Each member's base row from the fused propose, if it had one.
    base_at: Vec<Option<usize>>,
    /// What each member's propose asked for.
    phases: Vec<Phase>,
    /// Members with a fused verification still in flight.
    verifying: Vec<usize>,
}

impl<'m> ServeEngine<'m> {
    /// An engine over the model. Every tick fuses its batch's propose
    /// and verify work into shared kernel passes; every session it
    /// steps is one it opened on `model`, so every member plans into
    /// them.
    ///
    /// A zero `max_active` or `max_batch` (reachable by struct literal
    /// or `Deserialize`) would never admit or never step, and `run`
    /// would tick forever: both are raised to 1 here.
    pub fn new(model: &'m MlpLm, mut cfg: ServeConfig) -> Self {
        cfg.max_active = cfg.max_active.max(1);
        cfg.max_batch = cfg.max_batch.max(1);
        let scheduler = Scheduler::new(cfg.order, cfg.max_active, cfg.max_batch)
            .with_class_weights(&cfg.class_weights);
        let cache = (cfg.prefix_cache && model.snapshot_session().is_some()).then(PrefixCache::new);
        ServeEngine {
            model,
            draft: None,
            grammar: None,
            cache,
            cfg,
            policy: &STATIC_POLICY,
            scheduler,
            queue: Vec::new(),
            active: Vec::new(),
            completions: Vec::new(),
            shed: Vec::new(),
            tick: 0,
            stats: ServeStats::default(),
            started: std::time::Instant::now(),
            sink: &NOOP,
            worker: 0,
            buffers: TickBuffers::default(),
        }
    }

    /// Attaches a structured-event sink: every lifecycle transition —
    /// admission, cache walks, per-step shapes and acceptance,
    /// preemption, eviction, shedding, deadlines — is delivered as a
    /// tick-stamped [`verispec_trace::TraceEvent`]. Tracing is
    /// write-only and tick-space only, so attaching a sink never
    /// perturbs outputs, stats, or the tick schedule.
    pub fn with_sink(mut self, sink: &'m dyn TraceSink) -> Self {
        self.sink = sink;
        self
    }

    /// Whether trace-only events (those without a stats equivalent)
    /// should be built at all.
    fn traced(&self) -> bool {
        self.sink.enabled()
    }

    /// Builds an event stamped at the current tick, folds it into the
    /// aggregate stats ([`ServeStats::apply_event`] — the single place
    /// event-equivalent counters are maintained), and forwards it to
    /// the sink when one is attached.
    fn emit(&mut self, request: Option<u64>, kind: EventKind) {
        let ev = TraceEvent {
            tick: self.tick,
            worker: self.worker,
            request,
            kind,
        };
        self.stats.apply_event(&ev);
        if self.sink.enabled() {
            self.sink.record(ev);
        }
    }

    /// Replaces the speculation policy (default:
    /// [`verispec_core::StaticPolicy`], the configured shapes —
    /// bit-identical to the pre-policy engine). Every admitted
    /// request's stepper runs under it, and with a per-tick verify
    /// capacity ([`ServeConfig::tick_capacity`] or the policy's own
    /// [`verispec_core::SpecPolicy::tick_budget`]) the tick loop
    /// consults it to divide the budget across each tick's batch.
    pub fn with_policy(mut self, policy: &'m dyn SpecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches the draft model [`EngineChoice::DraftVerify`] requests
    /// verify against.
    pub fn with_draft(mut self, draft: &'m dyn LanguageModel) -> Self {
        self.draft = Some(draft);
        self
    }

    /// Attaches the grammar oracle [`EngineChoice::GrammarTree`]
    /// requests constrain their speculation with (typically
    /// [`verispec_grammar::GrammarOracle::from_tokenizer`], shared by
    /// every request). Without one, grammar requests run as plain
    /// syntax-aligned speculation — same commits, no propose-time
    /// pruning.
    pub fn with_grammar(mut self, oracle: &'m GrammarOracle) -> Self {
        self.grammar = Some(oracle);
        self
    }

    /// Seeds the prefix cache with a warm stem: `tokens` is ingested
    /// once and inserted into the trie, so every later prompt starting
    /// with it admits from a fork instead of re-ingesting the stem.
    /// This generalizes the hardcoded shared-preamble path — any stem,
    /// not just one — and is subject to the same cap-charged LRU
    /// eviction as organically cached prefixes. Returns `false` when
    /// the cache is disabled ([`ServeConfig::prefix_cache`]) or the
    /// model cannot snapshot sessions.
    pub fn warm_prefix(&mut self, tokens: &[verispec_lm::TokenId]) -> bool {
        if tokens.is_empty() || self.cache.is_none() {
            return false;
        }
        let target = self.model;
        let Some(mut work) = target.snapshot_session() else {
            return false;
        };
        work.append(tokens);
        let cache = self.cache.as_mut().expect("checked above");
        cache.insert(tokens, &mut |depth| {
            let mut snap = work.fork_snapshot();
            snap.truncate(depth);
            snap
        });
        self.note_resident();
        self.enforce_session_cap();
        true
    }

    /// Deepest cached-prefix length for `prompt` in this engine's
    /// prefix cache (0 when disabled) — the read-only probe the
    /// cache-aware routing policy
    /// ([`crate::dispatch::RoutePolicy::PrefixAffine`]) compares across
    /// workers.
    pub fn prefix_match_depth(&self, prompt: &[verispec_lm::TokenId]) -> usize {
        self.cache.as_ref().map_or(0, |c| c.match_depth(prompt))
    }

    fn now_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Enqueues a request. Shared-prefix reuse happens at admission, via
    /// the prefix cache ([`ServeConfig::prefix_cache`] /
    /// [`ServeEngine::warm_prefix`]).
    ///
    /// # Panics
    ///
    /// Never here — but a request no engine can run is accepted, and
    /// the [`ServeEngine::tick`] that admits or first steps it panics:
    /// a [`verispec_lm::Sampling::Temperature`] that is not positive (or
    /// so small that the scaled logits overflow), an
    /// [`EngineChoice::DraftVerify`] with `gamma` 0 or on an engine
    /// without [`ServeEngine::with_draft`]. A request read from a file
    /// is checked where it enters (`verispec_load::ArrivalTrace::from_json`
    /// refuses such entries); one built as a struct literal is the
    /// caller's to get right.
    pub fn submit(&mut self, req: Request) {
        let seen_secs = self.now_secs();
        if self.traced() {
            self.emit(
                Some(req.id),
                EventKind::Submitted {
                    arrival: req.arrival,
                    prompt_tokens: req.prompt.len(),
                    deadline: req.deadline,
                },
            );
        }
        self.queue.push(QueueEntry::Fresh { req, seen_secs });
    }

    /// Requests not yet completed (queued + active).
    pub fn in_flight(&self) -> usize {
        self.queue.len() + self.active.len()
    }

    /// Whether any request is still queued or active.
    pub fn has_work(&self) -> bool {
        !(self.queue.is_empty() && self.active.is_empty())
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The engine's scheduler clock: ticks executed, including any
    /// idle fast-forward jumps. The paced fleet drive routes arrivals
    /// by the fleet's most-advanced clock.
    pub fn clock(&self) -> u64 {
        self.tick
    }

    /// Ready-depth load probe: every request this engine still owes
    /// work to — active steppers plus queued entries (fresh arrivals
    /// and parked preemptees alike; future arrivals count too, they are
    /// committed work). The join-shortest-queue routing policy
    /// ([`crate::dispatch::RoutePolicy::JoinShortestQueue`]) balances
    /// on this.
    pub fn ready_depth(&self) -> usize {
        self.in_flight()
    }

    /// Outstanding candidate-token cost probe: an upper bound on the
    /// verify positions this engine still has to pay, denominated in
    /// [`SpecShape::step_cost`] units — for each in-flight request, its
    /// remaining token budget times the per-step cost of the shape the
    /// speculation policy would buy it right now (active and parked
    /// requests are priced with their own acceptance history, queued
    /// fresh ones with an empty one; an NTP step costs 1). "Upper
    /// bound" because accepted speculation commits several tokens per
    /// step. The join-least-loaded routing policy
    /// ([`crate::dispatch::RoutePolicy::LeastLoaded`]) balances on
    /// this, so a worker hoarding wide-tree long-budget requests looks
    /// heavier than one holding the same *count* of NTP shorties.
    pub fn outstanding_cost(&self) -> usize {
        let priced = |base: Option<&SpecShape>, history: &AcceptHistory, remaining: usize| {
            let per_step = base.map_or(1, |base| {
                self.policy
                    .shape(&ShapeQuery {
                        base,
                        history,
                        cap: None,
                    })
                    .step_cost()
            });
            remaining * per_step
        };
        let active_cost = |a: &Active<'m>| {
            priced(
                a.stepper.base_shape(),
                a.stepper.history(),
                a.budget.saturating_sub(a.stepper.generated()),
            )
        };
        let fresh_history = AcceptHistory::default();
        let mut cost = 0usize;
        for a in &self.active {
            cost += active_cost(a);
        }
        for entry in &self.queue {
            cost += match entry {
                QueueEntry::Fresh { req, .. } => priced(
                    self.request_base_shape(req).as_ref(),
                    &fresh_history,
                    req.cfg.max_tokens,
                ),
                QueueEntry::Parked(a) => active_cost(a),
            };
        }
        cost
    }

    /// The configured [`SpecShape`] a request will run under once
    /// admitted, derived without building a stepper (the queued-request
    /// half of [`ServeEngine::outstanding_cost`]): `None` for NTP,
    /// mirroring [`Stepper::base_shape`].
    fn request_base_shape(&self, req: &Request) -> Option<SpecShape> {
        let n_heads = self.model.n_extra_heads();
        match &req.engine {
            EngineChoice::Ntp => None,
            EngineChoice::DraftVerify { gamma } => Some(SpecShape::Draft { gamma: *gamma }),
            _ => Some(match req.engine.decode_config(&req.cfg).tree {
                None => SpecShape::Chain { depth: n_heads },
                Some(widths) => SpecShape::Tree {
                    widths,
                    depth: n_heads,
                },
            }),
        }
    }

    /// Resident sessions right now: active steppers and prefix-cache
    /// snapshots (queued requests hold none, and parked steppers drop
    /// theirs).
    fn resident_sessions(&self) -> usize {
        self.active.len() + self.cache.as_ref().map_or(0, PrefixCache::resident)
    }

    fn note_resident(&mut self) {
        self.stats.peak_resident_sessions = self
            .stats
            .peak_resident_sessions
            .max(self.resident_sessions());
        if let Some(cache) = &self.cache {
            self.stats.peak_resident_nodes = self.stats.peak_resident_nodes.max(cache.resident());
        }
    }

    /// Enforces [`ServeConfig::session_cap`]: while over budget,
    /// prefix-cache snapshots are evicted LRU leaf first — speculative
    /// future value, rebuilt on a later miss. Eviction is exact-replay:
    /// a later miss ingests the full prompt, which reconstructs the
    /// dropped state exactly (sessions are pure functions of their
    /// token context), so outputs are untouched. Active sessions are
    /// never evicted here.
    fn enforce_session_cap(&mut self) {
        let Some(cap) = self.cfg.session_cap else {
            return;
        };
        let mut over = self.resident_sessions().saturating_sub(cap.max(1));
        while over > 0 && self.cache.as_mut().is_some_and(PrefixCache::evict_lru) {
            self.emit(None, EventKind::PrefixEvicted);
            over -= 1;
        }
    }

    fn make_stepper(
        &self,
        req: &Request,
        session: Option<Box<dyn DecodeSession + 'm>>,
    ) -> Stepper<'m> {
        let session = session.unwrap_or_else(|| self.model.session());
        let ingested = session.tokens().len();
        debug_assert!(req.prompt.starts_with(session.tokens()));
        let rest = &req.prompt[ingested..];
        match &req.engine {
            EngineChoice::Ntp => Stepper::ntp_from_session(
                self.model,
                session,
                rest,
                req.engine.decode_config(&req.cfg),
            ),
            EngineChoice::DraftVerify { .. } => {
                let draft = self
                    .draft
                    .expect("DraftVerify requests need ServeEngine::with_draft");
                let dcfg = req
                    .engine
                    .draft_config(&req.cfg)
                    .expect("draft engine resolves a draft config");
                Stepper::draft_verify_from_session(self.model, draft, session, rest, dcfg)
            }
            EngineChoice::GrammarTree { .. } => match self.grammar {
                Some(oracle) => Stepper::grammar_speculative_from_session(
                    self.model,
                    oracle,
                    session,
                    rest,
                    req.engine.decode_config(&req.cfg),
                ),
                // Documented degradation: without an oracle the request
                // runs as plain syntax-aligned speculation.
                None => Stepper::speculative_from_session(
                    self.model,
                    session,
                    rest,
                    req.engine.decode_config(&req.cfg),
                ),
            },
            _ => Stepper::speculative_from_session(
                self.model,
                session,
                rest,
                req.engine.decode_config(&req.cfg),
            ),
        }
        .with_policy(self.policy)
    }

    /// Admission through the prefix cache: walk to the deepest cached
    /// prefix, fork its snapshot, append only the unmatched suffix, and
    /// insert the prompt back into the trie (snapshotting the
    /// divergence point and the full prompt) so later stem-sharing
    /// requests hit. Returns the fully-ingested session plus the number
    /// of prompt tokens the cache already held — the ingestion the hit
    /// saved. `(None, 0)` when the cache is disabled.
    fn cache_admit(&mut self, req: &Request) -> (Option<Box<dyn DecodeSession + 'm>>, usize) {
        if self.cache.is_none() {
            return (None, 0);
        }
        let target = self.model;
        let looked_up = self
            .cache
            .as_mut()
            .expect("checked above")
            .lookup(&req.prompt);
        let matched = looked_up.as_ref().map_or(0, |&(_, depth)| depth);
        self.emit(
            Some(req.id),
            EventKind::CacheLookup {
                hit: looked_up.is_some(),
                depth: matched,
                tokens_saved: matched,
            },
        );
        let mut work = match looked_up {
            Some((fork, _)) => fork,
            None => {
                let Some(fresh) = target.snapshot_session() else {
                    return (None, 0);
                };
                fresh
            }
        };
        work.append(&req.prompt[matched..]);
        let cache = self.cache.as_mut().expect("checked above");
        cache.insert(&req.prompt, &mut |depth| {
            let mut snap = work.fork_snapshot();
            snap.truncate(depth);
            snap
        });
        let work: Box<dyn DecodeSession + 'm> = work;
        (Some(work), matched)
    }

    /// Warmup ticks a fresh admission owes for ingesting `suffix`
    /// prompt tokens at [`ServeConfig::ingest_rate`] (0 when ingestion
    /// is free — the default — or the suffix fits one tick).
    fn warmup_ticks(&self, suffix: usize) -> u64 {
        self.cfg.ingest_rate.map_or(0, |rate| {
            (suffix as u64)
                .div_ceil(rate.max(1) as u64)
                .saturating_sub(1)
        })
    }

    fn admit(&mut self, entry: QueueEntry<'m>) {
        match entry {
            QueueEntry::Fresh { req, seen_secs } => {
                let (session, ingested) = self.cache_admit(&req);
                let warm_until = self.tick + self.warmup_ticks(req.prompt.len() - ingested);
                if self.traced() {
                    self.emit(
                        Some(req.id),
                        EventKind::Admitted {
                            queued_ticks: self.tick.saturating_sub(req.arrival),
                            warm_until,
                        },
                    );
                }
                let stepper = self.make_stepper(&req, session);
                self.active.push(Active {
                    id: req.id,
                    budget: req.cfg.max_tokens,
                    submitted: req.arrival,
                    deadline: req.deadline,
                    req,
                    stepper,
                    admitted: self.tick,
                    last_step: self.tick,
                    max_gap: 0,
                    preemptions: 0,
                    seen_secs,
                    step_ticks: Vec::new(),
                    first_commit_secs: None,
                    warm_until,
                });
                self.note_resident();
                self.enforce_session_cap();
            }
            QueueEntry::Parked(mut a) => {
                a.stepper.unpark();
                a.last_step = self.tick;
                if self.traced() {
                    self.emit(Some(a.id), EventKind::Resumed);
                }
                self.active.push(*a);
            }
        }
    }

    fn entry_ready(&self, entry: &QueueEntry<'m>) -> bool {
        match entry {
            QueueEntry::Fresh { req, .. } => req.arrival <= self.tick,
            QueueEntry::Parked(_) => true,
        }
    }

    fn admit_ready(&mut self) {
        while self.active.len() < self.cfg.max_active {
            let Some(pos) = (0..self.queue.len()).find(|&i| self.entry_ready(&self.queue[i]))
            else {
                break;
            };
            let entry = self.queue.remove(pos);
            self.admit(entry);
        }
    }

    /// Rollback-aware preemption: when an arrived request has waited
    /// past `preempt_wait` with the pool full, the most-advanced active
    /// request (never one already preempted — bounds ping-pong) is
    /// parked to the queue and the starved request takes its slot.
    fn maybe_preempt(&mut self) {
        let Some(wait) = self.cfg.preempt_wait else {
            return;
        };
        if self.active.len() < self.cfg.max_active {
            return;
        }
        let starved = (0..self.queue.len()).find(|&i| match &self.queue[i] {
            QueueEntry::Fresh { req, .. } => {
                req.arrival <= self.tick && self.tick - req.arrival >= wait
            }
            QueueEntry::Parked(_) => false,
        });
        let Some(pos) = starved else {
            return;
        };
        let victim = self
            .active
            .iter()
            .enumerate()
            .filter(|(_, a)| a.preemptions == 0 && a.warm_until <= self.tick)
            .max_by_key(|(_, a)| (a.stepper.generated(), a.id))
            .map(|(i, _)| i);
        let Some(v) = victim else {
            return;
        };
        let mut parked = self.active.swap_remove(v);
        parked.stepper.park();
        parked.preemptions += 1;
        self.emit(Some(parked.id), EventKind::Preempted);
        self.queue.push(QueueEntry::Parked(Box::new(parked)));
        let entry = self.queue.remove(pos);
        self.admit(entry);
    }

    fn finish(&mut self, a: Active<'m>) {
        let draft_stats = a.stepper.draft_stats();
        let (proposed_tokens, accepted_tokens) = {
            let h = a.stepper.history();
            (h.speculated(), h.accepted())
        };
        self.emit(
            Some(a.id),
            EventKind::Finished {
                tokens: a.stepper.generated(),
                steps: a.step_ticks.len(),
                proposed: proposed_tokens,
                accepted: accepted_tokens,
            },
        );
        if self.traced() {
            if let Some(deadline) = a.deadline {
                self.emit(
                    Some(a.id),
                    EventKind::Deadline {
                        deadline,
                        met: self.tick <= deadline,
                    },
                );
            }
        }
        let output = a.stepper.into_output();
        debug_assert_eq!(
            a.step_ticks.len(),
            output.trace.len(),
            "every decoding step commits on some tick"
        );
        self.completions.push(Completion {
            id: a.id,
            output,
            draft_stats,
            submitted: a.submitted,
            admitted: a.admitted,
            finished: self.tick,
            max_service_gap: a.max_gap,
            preemptions: a.preemptions,
            step_ticks: a.step_ticks,
            seen_secs: a.seen_secs,
            first_token_secs: a.first_commit_secs,
            finished_secs: self.started.elapsed().as_secs_f64(),
            deadline: a.deadline,
            proposed_tokens,
            accepted_tokens,
        });
    }

    /// Load-shedding admission control ([`ServeConfig::shed_depth`]):
    /// after admission, if more *ready* fresh requests are still
    /// waiting than the configured depth, the newest arrivals are
    /// rejected outright (LIFO drop — the freshest request has waited
    /// least and loses least). Parked (preempted) requests are never
    /// shed: their work is already partially paid for. The decision is
    /// a pure function of the tick schedule, so batch and streaming
    /// runs shed the same requests.
    fn shed_ready_overflow(&mut self) {
        let Some(depth) = self.cfg.shed_depth else {
            return;
        };
        let mut ready: Vec<(u64, u64, usize)> = self
            .queue
            .iter()
            .enumerate()
            .filter_map(|(idx, e)| match e {
                QueueEntry::Fresh { req, .. } if req.arrival <= self.tick => {
                    Some((req.arrival, req.id, idx))
                }
                _ => None,
            })
            .collect();
        if ready.len() <= depth {
            return;
        }
        // Oldest arrivals (ties by id) keep their place; everything
        // past the depth is the newest overflow. Remove by descending
        // queue index so earlier removals don't shift later ones.
        ready.sort_unstable();
        let mut overflow: Vec<usize> = ready[depth..].iter().map(|&(_, _, idx)| idx).collect();
        overflow.sort_unstable_by(|a, b| b.cmp(a));
        for idx in overflow {
            let QueueEntry::Fresh { req, .. } = self.queue.remove(idx) else {
                unreachable!("only fresh entries are shed");
            };
            self.emit(
                Some(req.id),
                EventKind::Shed {
                    arrival: req.arrival,
                    deadline: req.deadline,
                },
            );
            self.shed.push(ShedRequest {
                id: req.id,
                arrival: req.arrival,
                deadline: req.deadline,
                tick: self.tick,
            });
        }
    }

    /// Divides the tick's verify capacity across the scheduler's
    /// selection — the speculation-policy hook of the tick loop.
    ///
    /// Without a capacity ([`ServeConfig::tick_capacity`] and the
    /// policy's [`SpecPolicy::tick_budget`] both `None`) every selected
    /// request steps and each stepper consults the policy itself at
    /// propose time — the pre-policy behavior under [`STATIC_POLICY`].
    ///
    /// With a capacity, the engine walks the selection order asking the
    /// policy for each request's shape with the *remaining* budget as
    /// its cap, pins the answer on the stepper (so budget accounting
    /// and the built candidate paths agree exactly), and defers
    /// requests whose shape does not fit. The head of the order always
    /// steps even on overrun — forced aging picks sort first, so the
    /// scheduler's no-starvation bound survives budget pressure.
    ///
    /// Fills `stepped` from `selected`; a shape is priced in `priced`,
    /// since the policy's answer may borrow the stepper it is pinned on.
    fn divide_tick_capacity(
        &mut self,
        selected: &[usize],
        stepped: &mut Vec<usize>,
        priced: &mut Option<SpecShape>,
    ) {
        stepped.clear();
        let Some(capacity) = self.cfg.tick_capacity.or(self.policy.tick_budget()) else {
            stepped.extend_from_slice(selected);
            return;
        };
        let policy = self.policy;
        let capacity = capacity.max(1);
        let mut remaining = capacity;
        for (pos, &i) in selected.iter().enumerate() {
            // NTP steppers have no shape to decide and cost one verify
            // position; speculative ones get the policy's decision for
            // the remaining budget.
            let stepper = &self.active[i].stepper;
            let (cost, speculative) = match stepper.base_shape() {
                None => (1, false),
                Some(base) => {
                    let shape = policy.shape(&ShapeQuery {
                        base,
                        history: stepper.history(),
                        cap: Some(remaining),
                    });
                    shape.copy_into(priced);
                    (shape.step_cost(), true)
                }
            };
            if pos > 0 && cost > remaining {
                let id = self.active[i].id;
                self.emit(Some(id), EventKind::Deferred);
                continue;
            }
            if speculative {
                let shape = priced.as_ref().expect("priced above");
                self.active[i].stepper.pin_shape(shape);
            }
            remaining = remaining.saturating_sub(cost);
            stepped.push(i);
        }
        if self.traced() {
            self.emit(
                None,
                EventKind::TickBudget {
                    capacity,
                    spent: capacity - remaining,
                    deferred: selected.len() - stepped.len(),
                },
            );
        }
    }

    /// Idle fast-forward: with nothing active and nothing admissible
    /// before some future arrival tick, jump the clock there instead of
    /// burning empty ticks one by one (open-loop workloads can be
    /// sparse). Parked entries are always admissible, so the jump only
    /// happens when every queue entry is a future fresh arrival.
    fn fast_forward_idle(&mut self) {
        if !self.active.is_empty() || self.queue.is_empty() {
            return;
        }
        let next = self
            .queue
            .iter()
            .map(|e| match e {
                QueueEntry::Fresh { req, .. } => req.arrival,
                QueueEntry::Parked(_) => 0,
            })
            .min()
            .expect("queue is non-empty");
        if next > self.tick + 1 {
            let skipped = next - 1 - self.tick;
            self.tick = next - 1;
            self.emit(None, EventKind::IdleSkip { skipped });
        }
    }

    /// Runs one scheduler tick; returns `false` once no work remains.
    pub fn tick(&mut self, cost: &GpuCostModel) -> bool {
        if !self.has_work() {
            return false;
        }
        self.run_tick(cost);
        self.has_work()
    }

    /// The tick body: admission, selection, fused propose/verify,
    /// commit. Requires work to exist.
    fn run_tick(&mut self, cost: &GpuCostModel) {
        self.enforce_session_cap();
        self.note_resident();
        self.fast_forward_idle();
        self.tick += 1;
        self.stats.ticks += 1;
        self.admit_ready();
        self.maybe_preempt();
        self.shed_ready_overflow();
        self.stats.peak_active = self.stats.peak_active.max(self.active.len());

        // Requests still ingesting their prompt (paced by
        // `ingest_rate`) occupy a slot but cannot decode yet; bumping
        // `last_step` keeps the scheduler's aging/starvation machinery
        // from counting warmup ticks as scheduler-inflicted gaps.
        for a in &mut self.active {
            if a.warm_until > self.tick {
                a.last_step = self.tick;
            }
        }

        // The buffers leave `self` for the tick so steppers can read
        // arena rows while the engine mutates; the per-member ones are
        // indexed by position in `stepped`.
        let TickBuffers {
            mut arena,
            mut propose_xs,
            mut plan,
            mut views,
            mut selected,
            mut stepped,
            mut priced,
            mut base_at,
            mut phases,
            mut verifying,
        } = std::mem::take(&mut self.buffers);

        views.clear();
        views.extend(self.active.iter().map(|a| ActiveView {
            id: a.id,
            last_step: a.last_step,
            admitted: a.admitted,
            deadline: a.deadline,
            class: a.req.class,
        }));
        self.scheduler
            .select(&views, self.tick, self.cfg.max_batch, &mut selected);
        // Filter *after* selection (indices align with `self.active`;
        // filtering `views` would misalign them): warming requests give
        // their batch slot to decodable neighbors.
        selected.retain(|&i| self.active[i].warm_until <= self.tick);
        self.divide_tick_capacity(&selected, &mut stepped, &mut priced);
        if self.traced() && !stepped.is_empty() {
            let ids: Vec<u64> = stepped.iter().map(|&i| self.active[i].id).collect();
            self.emit(None, EventKind::Batch { requests: ids });
        }
        for &i in &stepped {
            let a = &mut self.active[i];
            a.max_gap = a.max_gap.max(self.tick - a.last_step);
            a.last_step = self.tick;
        }

        // Fused propose: one kernel pass forwards the current position
        // of every MEDUSA-style member of the batch that asks for it —
        // its base row, the trunk activation kept beside it. A member
        // whose last step's verification already forwarded the
        // position (the node its committed span ended at) carried that
        // row over and asks for nothing. A head is evaluated from the
        // kept activation when acceptance reaches its level.
        arena.clear();
        plan.clear();
        propose_xs.clear();
        base_at.clear();
        base_at.resize(stepped.len(), None);
        // Inputs embedded so far: each gets one row, in this order.
        let mut proposing = 0usize;
        for (pos, &i) in stepped.iter().enumerate() {
            if self.active[i].stepper.embed_plan(&mut propose_xs) {
                base_at[pos] = Some(proposing);
                proposing += 1;
            }
        }
        if proposing > 0 {
            self.stats.fused_propose_positions += proposing;
            let base = self.model.infer(&propose_xs, &mut arena);
            debug_assert_eq!(base, 0, "the tick's arena starts empty");
        }
        phases.clear();
        phases.extend(stepped.iter().zip(&base_at).map(|(&i, first)| {
            let base = first.map(|row| arena.rows_from(row));
            self.active[i].stepper.propose(base)
        }));

        // Fused verify, level by level, behind the base rows (their
        // activations stay for the tick). Level 0 is every member's
        // root; each pass scores the nodes all members planned since
        // the last one — and the head rows asked for with them — and
        // each member then plans only the children its acceptance went
        // on to.
        verifying.clear();
        for (pos, (&i, phase)) in stepped.iter().zip(&phases).enumerate() {
            if *phase != Phase::Verify {
                continue;
            }
            let planned = self.active[i].stepper.verify_level(None, Some(&mut plan));
            assert!(planned, "every session the engine opens plans its root");
            verifying.push(pos);
        }
        // The view every fused level of this tick was scored into: what
        // a member copies its next base row out of at commit.
        let mut scored = None;
        while plan.pending() > 0 {
            self.stats.fused_verify_calls += 1;
            self.stats.fused_verify_nodes += plan.pending();
            let base = verify_many(self.model, &mut plan, &mut arena);
            let rows = arena.rows_from(base);
            scored = Some(rows);
            verifying.retain(|&pos| {
                self.active[stepped[pos]]
                    .stepper
                    .verify_level(Some(rows), Some(&mut plan))
            });
        }
        debug_assert!(
            verifying.is_empty(),
            "a member planned nothing yet is unfinished"
        );

        // Commit: span selection, rollback, clock — all request-local.
        // Every non-Done phase commits at least one token (NTP/draft
        // always commit; speculative commits at least its base token),
        // so the commit tick doubles as the inter-token telemetry
        // timestamp.
        for (&i, phase) in stepped.iter().zip(&phases) {
            if *phase == Phase::Done {
                continue;
            }
            self.active[i].stepper.commit(cost, scored);
            let a = &mut self.active[i];
            a.step_ticks.push(self.tick);
            // The wall clock is read once per request, at its first
            // commit.
            a.first_commit_secs
                .get_or_insert_with(|| self.started.elapsed().as_secs_f64());
            // Grammar prune accounting is cheap (three counters) and
            // has a stats equivalent, so it is emitted unconditionally
            // — like every stats-backed event — not gated on tracing.
            if let Some(rec) = self.active[i].stepper.last_prune() {
                let id = self.active[i].id;
                self.emit(
                    Some(id),
                    EventKind::GrammarPrune {
                        considered: rec.considered,
                        pruned: rec.pruned,
                        surviving: rec.surviving,
                    },
                );
            }
            if self.traced() {
                let a = &self.active[i];
                let id = a.id;
                let shape = a.stepper.last_shape().cloned();
                let tr = a
                    .stepper
                    .output()
                    .trace
                    .last()
                    .expect("commit pushes a step trace");
                let (proposed, accepted, truncated, committed) =
                    (tr.speculated, tr.accepted, tr.truncated, tr.committed.len());
                self.emit(
                    Some(id),
                    EventKind::Step {
                        shape,
                        proposed,
                        accepted,
                        truncated,
                        committed,
                    },
                );
            }
        }

        self.buffers = TickBuffers {
            arena,
            propose_xs,
            plan,
            views,
            selected,
            stepped,
            priced,
            base_at,
            phases,
            verifying,
        };

        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].stepper.done() {
                let a = self.active.swap_remove(i);
                self.finish(a);
            } else {
                i += 1;
            }
        }
    }

    /// Jumps the scheduler clock forward to `to` (no-op when already
    /// past it). Fault injection uses this to keep virtual-time
    /// causality: a replacement engine built after a crash — and a
    /// restarted worker — starts at the fault tick, not at zero, so
    /// migrated requests re-serve at ticks `>=` the crash and
    /// queue-delay accounting keeps counting from the original arrival.
    pub(crate) fn advance_clock(&mut self, to: u64) {
        self.tick = self.tick.max(to);
    }

    /// Kills this engine: consumes it mid-run, returning the report of
    /// everything it *finished* before dying plus the stranded work —
    /// every in-flight (active or parked) and queued request, paired
    /// with the number of tokens it had already generated (the decode
    /// work the crash threw away). The caller re-routes the stranded
    /// requests to surviving workers, where exact replay — resubmitting
    /// the original [`Request`] to a fresh deterministic engine —
    /// regenerates their token streams identically, so fleet outputs
    /// are invariant under crashes.
    ///
    /// Stranded requests are returned sorted by id: active requests,
    /// parked preemptees, and queued arrivals collapse into one
    /// deterministic migration order regardless of this engine's
    /// internal pool state at the moment of death.
    pub(crate) fn crash(mut self) -> (ServeReport, Vec<(Request, usize)>) {
        let mut stranded: Vec<(Request, usize)> = Vec::new();
        for a in self.active.drain(..) {
            let generated = a.stepper.generated();
            stranded.push((a.req, generated));
        }
        for entry in std::mem::take(&mut self.queue) {
            match entry {
                QueueEntry::Fresh { req, .. } => stranded.push((req, 0)),
                QueueEntry::Parked(a) => {
                    let generated = a.stepper.generated();
                    stranded.push((a.req, generated));
                }
            }
        }
        stranded.sort_by_key(|(req, _)| req.id);
        (self.into_report(), stranded)
    }

    /// Finalizes the report without driving the engine further (a fleet
    /// backend ticks its workers itself and collects them at the end).
    pub(crate) fn into_report(mut self) -> ServeReport {
        self.completions.sort_by_key(|c| c.id);
        self.shed.sort_by_key(|s| s.id);
        ServeReport {
            completions: self.completions,
            shed: self.shed,
            stats: self.stats,
        }
    }

    /// Drives the tick loop until every submitted request completes.
    pub fn run(mut self, cost: &GpuCostModel) -> ServeReport {
        while self.tick(cost) {}
        self.into_report()
    }
}
