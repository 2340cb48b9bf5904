//! The fleet runtime: one spec, one drive, two backends, and
//! deterministic fault injection with crash/recovery session migration.
//!
//! # One way to serve a fleet to completion
//!
//! A [`FleetRuntime`] value *is* the fleet spec — model, per-worker
//! [`ServeConfig`] (its speculation policy included), worker count,
//! [`RoutePolicy`], [`Backend`], and the optional grammar / warm stems /
//! tracing / [`FaultPlan`] — and [`FleetRuntime::run`] is the only function in
//! this crate that serves requests through a fleet. It applies the
//! spec to engines in exactly one place (`FleetRuntime::engine`, which
//! also builds crash replacements), picks the backend, and hands it to
//! one generic drive over the crate-private `FleetBackend` trait. The
//! routing core, liveness, fleet-level counters and the report merge
//! live in the fleet state *above* the backends, so a backend is only
//! what differs: how a worker is reached (a direct call, or a channel
//! round-trip to its thread).
//!
//! ```text
//!                FleetRuntime::new(model, cfg, workers, route, backend)
//!                    .with_fault_plan(plan)
//!                    .run(Drive::Paced(requests), cost)
//!                         │ builds
//!            ┌────────────┴─────────────┐
//!            ▼                          ▼
//!   Dispatcher (lockstep:       threaded::Coordinator (one thread
//!   ticks engines in place)     per worker, inside thread::scope)
//!            └────────────┬─────────────┘
//!                         ▼
//!        Fleet<B: FleetBackend>  — Router, liveness, fleet counters
//!          drive:  Batch      route everything up front
//!                  Paced      each round: fire due faults → route
//!                             due arrivals → tick
//!          finish: drain every worker, fold per-worker reports and
//!                  event streams through one merge → FleetRun
//! ```
//!
//! The bare [`crate::ServeEngine`] (`new` / `submit` / `tick` / `run`)
//! stays public as the reference a fleet is compared against: a
//! one-worker fleet is tick-identical to a hand-driven engine fed in
//! arrival order under every drive and backend — whole [`ServeStats`]
//! included (`tests/proptest_dispatch.rs`, the drive matrix).
//!
//! # Deterministic fault injection
//!
//! A [`FaultPlan`] is a *trace-specified* schedule of
//! [`FaultEvent::CrashWorker`] / [`FaultEvent::RestartWorker`] events.
//! Nothing is random at run time: the same plan over the same workload
//! produces the same run, tick for tick, on either backend.
//!
//! **Crash.** A crash at tick `t` takes effect before the fleet
//! executes tick `t`: the worker's engine is consumed, everything it
//! *finished* is banked as a report segment, and every in-flight and
//! queued request is **migrated** — re-routed through the live router
//! (probes of dead workers are masked) and resubmitted from its
//! original [`Request`] on a surviving worker. Recovery is
//! **exact replay**: engines are deterministic functions of their
//! token context, so the migrated request regenerates the very same
//! token stream it would have produced — fleet outputs are invariant
//! under crashes; only schedules (and therefore latency) move. The
//! tokens the dead worker had already generated are re-generated on
//! the new one and accounted as `replay_tokens`
//! ([`verispec_trace::EventKind::Migrated`]).
//!
//! **Backpressure.** When a crash (or an arrival) finds *no* worker
//! alive, the request is held in a fleet-level deferred queue and a
//! [`verispec_trace::EventKind::Backpressure`] event is emitted; the
//! queue flushes through the router at the next restart. If the plan
//! ends with the whole fleet dead, deferred requests are shed
//! deterministically at the fleet level.
//!
//! **Restart.** A restarted worker rejoins cold at the fault tick
//! (its clock is advanced so virtual-time causality holds — nothing
//! it serves can predate the fault) with an empty prefix cache:
//! crashes lose cache state, and warm stems are applied at fleet
//! startup only.
//!
//! # Multi-tenant weighted fairness
//!
//! Weighted-fair scheduling is asked for in the [`ServeConfig`] alone:
//! [`crate::TickOrder::WeightedFair`] in [`ServeConfig::order`] with
//! per-class shares in [`ServeConfig::class_weights`], indexed by
//! [`crate::Request::class`]. A fleet hands its `ServeConfig` to every
//! worker unchanged, and a [`FaultPlan`] carries faults only. Weights
//! compose with the scheduler's aging guard, so the per-request
//! no-starvation bound survives per class. Like routing and faults,
//! shares steer only *when* requests step — outputs are class-invariant.
//!
//! # FaultPlan JSON schema
//!
//! [`FaultPlan`] serializes with `serde` (the shape
//! `verispec-load` embeds in its arrival-trace files):
//!
//! ```json
//! {
//!   "events": [
//!     { "CrashWorker":   { "tick": 40, "worker": 1 } },
//!     { "RestartWorker": { "tick": 90, "worker": 1 } }
//!   ]
//! }
//! ```
//!
//! `events` is required; `{ "events": [] }` is the empty plan, exactly
//! the fault-free runtime.

use crate::dispatch::{DispatchReport, Dispatcher, RoutePolicy, RouteProbes, Router};
use crate::engine::{ServeConfig, ServeEngine, ServeReport, ServeStats, ShedRequest};
use crate::request::Request;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use verispec_grammar::GrammarOracle;
use verispec_lm::{GpuCostModel, MlpLm, TokenId};
use verispec_trace::{EventKind, EventLog, TraceEvent, TraceSink};

/// One deterministic, trace-specified fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Kill a worker before the fleet executes `tick`: its finished
    /// work is banked, its in-flight and queued requests migrate to
    /// surviving workers by exact replay, and its replacement engine
    /// sits dead (unroutable) until a matching
    /// [`FaultEvent::RestartWorker`]. Crashing an already-dead worker
    /// is a no-op.
    CrashWorker {
        /// The fault tick (same clock as [`Request::arrival`]).
        tick: u64,
        /// The worker index to kill.
        worker: usize,
    },
    /// Revive a dead worker at `tick`: it rejoins routing cold (empty
    /// pool, empty prefix cache, clock advanced to the fault tick) and
    /// any backpressure-deferred requests immediately re-route.
    /// Restarting a live worker is a no-op.
    RestartWorker {
        /// The fault tick.
        tick: u64,
        /// The worker index to revive.
        worker: usize,
    },
}

impl FaultEvent {
    /// The tick this event fires at.
    pub fn tick(&self) -> u64 {
        match *self {
            FaultEvent::CrashWorker { tick, .. } | FaultEvent::RestartWorker { tick, .. } => tick,
        }
    }

    /// The worker this event targets.
    pub fn worker(&self) -> usize {
        match *self {
            FaultEvent::CrashWorker { worker, .. } | FaultEvent::RestartWorker { worker, .. } => {
                worker
            }
        }
    }
}

/// A deterministic fault schedule — the whole failure scenario of a
/// run, specified up front so replays are exact. See the
/// [module docs](crate::runtime) for semantics and the JSON schema.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Crash/restart events; fired in tick order (ties in plan order).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan — the fault-free runtime.
    pub fn none() -> Self {
        Self::default()
    }

    /// Appends a [`FaultEvent::CrashWorker`] (builder-style).
    pub fn crash(mut self, tick: u64, worker: usize) -> Self {
        self.events.push(FaultEvent::CrashWorker { tick, worker });
        self
    }

    /// Appends a [`FaultEvent::RestartWorker`] (builder-style).
    pub fn restart(mut self, tick: u64, worker: usize) -> Self {
        self.events.push(FaultEvent::RestartWorker { tick, worker });
        self
    }

    /// The events sorted by tick (stable: same-tick events keep plan
    /// order, so a crash-then-restart pair at one tick is well
    /// defined).
    pub(crate) fn sorted_events(&self) -> Vec<FaultEvent> {
        let mut events = self.events.clone();
        events.sort_by_key(FaultEvent::tick);
        events
    }
}

/// Which execution backend drives the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backend {
    /// The single-threaded deterministic oracle: the calling thread
    /// ticks every worker in lockstep.
    Lockstep,
    /// One OS thread per worker over a command/reply protocol;
    /// proptest-pinned tick-identical to the oracle, faults included.
    Threaded,
}

/// How requests reach the fleet — the drive mode.
#[derive(Debug)]
pub enum Drive {
    /// Closed-loop: every request routed up front in the given order,
    /// then the fleet runs to completion.
    Batch(Vec<Request>),
    /// Open-loop: requests are routed exactly when their arrival ticks
    /// fall due on the fleet clock (load-aware policies see real queue
    /// state). The only mode that accepts fault events.
    Paced(Vec<Request>),
}

/// The result of a [`FleetRuntime`] run: the fleet-merged report plus
/// (when tracing was requested) the event stream in canonical fleet
/// order ([`verispec_trace::canonicalize_fleet_events`]) — identical
/// across backends for the same run.
#[derive(Debug)]
pub struct FleetRun {
    /// Fleet-merged report (completions/shed sorted by id, merged and
    /// per-worker stats, realized assignments).
    pub report: DispatchReport,
    /// Canonical fleet event stream; empty unless
    /// [`FleetRuntime::with_tracing`] was requested.
    pub events: Vec<TraceEvent>,
}

/// The fleet spec and its one drive; see the
/// [module docs](crate::runtime).
pub struct FleetRuntime<'m> {
    model: &'m MlpLm,
    cfg: ServeConfig,
    workers: usize,
    route: RoutePolicy,
    backend: Backend,
    grammar: Option<&'m GrammarOracle>,
    warm: Vec<Vec<TokenId>>,
    traced: bool,
    plan: FaultPlan,
}

impl<'m> FleetRuntime<'m> {
    /// A fleet of `workers` engines (at least one) over the shared
    /// model, each configured with its own copy of `cfg`, under
    /// `route`, executed by `backend`.
    pub fn new(
        model: &'m MlpLm,
        cfg: ServeConfig,
        workers: usize,
        route: RoutePolicy,
        backend: Backend,
    ) -> Self {
        FleetRuntime {
            model,
            cfg,
            workers: workers.max(1),
            route,
            backend,
            grammar: None,
            warm: Vec::new(),
            traced: false,
            plan: FaultPlan::none(),
        }
    }

    /// Attaches the grammar oracle to every worker.
    pub fn with_grammar(mut self, oracle: &'m GrammarOracle) -> Self {
        self.grammar = Some(oracle);
        self
    }

    /// Seeds every worker's prefix cache with a warm stem at startup
    /// (replacement engines built after a crash start cold). May be
    /// called repeatedly; stems are applied in order.
    pub fn warm_prefix(mut self, tokens: &[TokenId]) -> Self {
        self.warm.push(tokens.to_vec());
        self
    }

    /// Collects structured events; [`FleetRun::events`] carries the
    /// canonical fleet stream.
    pub fn with_tracing(mut self) -> Self {
        self.traced = true;
        self
    }

    /// Installs the failure scenario for the run. Fault events require
    /// [`Drive::Paced`] — the only drive with a fleet clock the
    /// trace-specified ticks are meaningful on.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Number of workers in the fleet.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Whether workers collect structured events.
    pub(crate) fn traced(&self) -> bool {
        self.traced
    }

    /// Builds worker `worker`'s engine — the one place the spec is
    /// applied to an engine, for both backends, at startup and for the
    /// replacement a crash leaves behind. `warm` is startup-only: crash
    /// recovery is deliberately cold-cache, matching what a restarted
    /// process would see.
    pub(crate) fn engine<'e>(
        &'e self,
        worker: usize,
        sink: &'e dyn TraceSink,
        warm: bool,
    ) -> ServeEngine<'e> {
        let mut engine = ServeEngine::new(self.model, self.cfg.clone()).with_sink(sink);
        engine.worker = worker as u32;
        if let Some(oracle) = self.grammar {
            engine = engine.with_grammar(oracle);
        }
        if warm {
            for stem in &self.warm {
                engine.warm_prefix(stem);
            }
        }
        engine
    }

    /// Serves `drive` to completion and returns the merged run.
    ///
    /// # Panics
    ///
    /// Panics if the fault plan carries events and `drive` is not
    /// [`Drive::Paced`].
    pub fn run(self, drive: Drive, cost: &GpuCostModel) -> FleetRun {
        assert!(
            self.plan.events.is_empty() || matches!(drive, Drive::Paced(_)),
            "fault events require Drive::Paced (trace-specified fault ticks \
             are only meaningful on the paced fleet clock)"
        );
        let spec = &self;
        match spec.backend {
            Backend::Lockstep => {
                let log = spec.traced.then(EventLog::new);
                Fleet::new(spec, Dispatcher::new(spec, log.as_ref())).serve(drive, cost)
            }
            Backend::Threaded => std::thread::scope(|scope| {
                let backend = crate::threaded::Coordinator::spawn(spec, scope, cost);
                Fleet::new(spec, backend).serve(drive, cost)
            }),
        }
    }
}

/// What differs between the backends — how a worker is reached: clock
/// and work reads, route-time probes, submission, one tick round,
/// crash/restart, and the final drain. Implemented by the lockstep
/// [`Dispatcher`] and the threaded coordinator; everything else about
/// a fleet ([`Fleet`]) is written once above them.
pub(crate) trait FleetBackend {
    /// The fleet clock: the most-advanced worker's scheduler clock.
    fn now(&self) -> u64;
    /// Whether any worker still has queued or active work.
    fn has_work(&self) -> bool;
    /// Every worker's route-time probes against `prompt`, by worker
    /// index, reflecting every earlier submission.
    fn probes(&self, prompt: &[TokenId]) -> Vec<RouteProbes>;
    /// Enqueues `req` on worker `w`.
    fn submit(&mut self, w: usize, req: Request);
    /// Runs one fleet tick round (every busy worker ticks once).
    fn tick_round(&mut self, cost: &GpuCostModel);
    /// Kills worker `w` at tick `at`: banks its finished work, replaces
    /// it with a cold engine whose clock starts at `at`, and returns
    /// the stranded `(request, tokens already generated)` pairs sorted
    /// by id.
    fn crash_worker(&mut self, w: usize, at: u64) -> Vec<(Request, usize)>;
    /// Revives worker `w` at tick `at` (clock advanced to `at`).
    fn restart_worker(&mut self, w: usize, at: u64);
    /// Runs every worker to completion — nothing external can reach
    /// them any more — and returns, by worker index, the report
    /// segments of every engine that lived in the slot (crashed
    /// predecessors first), plus the workers' events with each worker's
    /// own emission order intact.
    fn finish(self, cost: &GpuCostModel) -> (Vec<Vec<ServeReport>>, Vec<TraceEvent>);
}

/// A backpressure-deferred request: the original submission, the
/// tokens it had generated before its worker died (0 for plain
/// arrivals), and the worker it was stranded on (`None` for arrivals
/// that were never routed).
type Deferred = (Request, usize, Option<u32>);

/// A running fleet: a backend plus everything the backends share — the
/// routing core, liveness, the realized assignment, and the
/// coordinator's own counters, sheds and events.
pub(crate) struct Fleet<B> {
    pub(crate) backend: B,
    router: Router,
    /// Per-worker liveness under fault injection (all `true` without
    /// faults); dead workers are masked out of routing.
    alive: Vec<bool>,
    traced: bool,
    /// Coordinator events ([`EventKind::is_fleet_event`]: routing
    /// decisions and fault transitions), in emission order.
    fleet_events: Vec<TraceEvent>,
    /// Coordinator-recorded events of *worker-stream* kind (fleet-level
    /// sheds): they trail the owning worker's own events.
    late_events: Vec<TraceEvent>,
    /// Realized `(request id, worker)` routing, in receipt order.
    pub(crate) assignments: Vec<(u64, usize)>,
    /// Fleet-level counters: crashes, restarts, migrations,
    /// backpressure, fleet-level sheds. Part of the merged stats,
    /// deliberately not of any per-worker entry.
    fleet_stats: ServeStats,
    /// Requests shed at the fleet level (deferred under fleet-wide
    /// backpressure with no restart coming).
    fleet_shed: Vec<ShedRequest>,
    /// The plan's fault events still to fire, in tick order.
    faults: VecDeque<FaultEvent>,
    deferred: Vec<Deferred>,
}

impl<B: FleetBackend> Fleet<B> {
    pub(crate) fn new(spec: &FleetRuntime<'_>, backend: B) -> Self {
        Fleet {
            backend,
            router: Router::new(spec.route.clone()),
            alive: vec![true; spec.workers],
            traced: spec.traced,
            fleet_events: Vec::new(),
            late_events: Vec::new(),
            assignments: Vec::new(),
            fleet_stats: ServeStats::default(),
            fleet_shed: Vec::new(),
            faults: spec.plan.sorted_events().into(),
            deferred: Vec::new(),
        }
    }

    /// The one drive: feeds `drive` through the fleet, then drains and
    /// merges it.
    fn serve(mut self, drive: Drive, cost: &GpuCostModel) -> FleetRun {
        match drive {
            Drive::Batch(requests) => {
                for req in requests {
                    self.route_submit(req);
                }
            }
            Drive::Paced(requests) => self.drive_paced(requests, cost),
        }
        self.finish(cost)
    }

    fn any_alive(&self) -> bool {
        self.alive.iter().any(|&a| a)
    }

    /// Routes and enqueues one request among live workers; returns the
    /// chosen worker. The probe snapshot is gathered by the backend
    /// (direct engine reads, or a channel round-trip) only when the
    /// policy reads it.
    pub(crate) fn route_submit(&mut self, req: Request) -> usize {
        let probes = if self.router.needs_probes() {
            self.backend.probes(&req.prompt)
        } else {
            Vec::new()
        };
        let (w, probes) = self.router.pick(&req, &self.alive, &probes);
        if self.traced {
            // Routing events are stamped at the fleet clock — the
            // most-advanced worker's tick, the same notion of "now"
            // the paced drive routes by.
            self.fleet_events.push(TraceEvent {
                tick: self.backend.now(),
                worker: w as u32,
                request: Some(req.id),
                kind: EventKind::Routed {
                    policy: self.router.policy_name().to_string(),
                    probes,
                },
            });
        }
        self.assignments.push((req.id, w));
        self.backend.submit(w, req);
        w
    }

    /// Folds a coordinator event into the fleet stats and, when
    /// tracing, the event stream.
    fn record_fleet_event(&mut self, ev: TraceEvent) {
        self.fleet_stats.apply_event(&ev);
        if self.traced {
            if ev.kind.is_fleet_event() {
                self.fleet_events.push(ev);
            } else {
                self.late_events.push(ev);
            }
        }
    }

    /// Routes one migrant or defers it under backpressure.
    fn migrate(&mut self, req: Request, replay_tokens: usize, from: u32, tick: u64) {
        if !self.any_alive() {
            self.record_fleet_event(TraceEvent {
                tick,
                worker: from,
                request: Some(req.id),
                kind: EventKind::Backpressure,
            });
            self.deferred.push((req, replay_tokens, Some(from)));
            return;
        }
        let id = req.id;
        let to = self.route_submit(req) as u32;
        self.record_fleet_event(TraceEvent {
            tick,
            worker: to,
            request: Some(id),
            kind: EventKind::Migrated {
                from,
                to,
                replay_tokens,
            },
        });
    }

    /// Routes one due arrival or defers it under backpressure.
    fn admit_or_defer(&mut self, req: Request, now: u64) {
        if self.any_alive() {
            self.route_submit(req);
        } else {
            self.record_fleet_event(TraceEvent {
                tick: now,
                worker: 0,
                request: Some(req.id),
                kind: EventKind::Backpressure,
            });
            self.deferred.push((req, 0, None));
        }
    }

    /// Applies one fault event. Crashes migrate (or defer) every
    /// stranded request; restarts flush the deferred queue through the
    /// router.
    fn apply_fault(&mut self, ev: FaultEvent) {
        let n = self.alive.len();
        match ev {
            FaultEvent::CrashWorker { tick, worker } => {
                if worker >= n || !self.alive[worker] {
                    return;
                }
                let stranded = self.backend.crash_worker(worker, tick);
                self.alive[worker] = false;
                self.record_fleet_event(TraceEvent {
                    tick,
                    worker: worker as u32,
                    request: None,
                    kind: EventKind::WorkerCrashed {
                        in_flight: stranded.len(),
                    },
                });
                for (req, replay) in stranded {
                    self.migrate(req, replay, worker as u32, tick);
                }
            }
            FaultEvent::RestartWorker { tick, worker } => {
                if worker >= n || self.alive[worker] {
                    return;
                }
                self.backend.restart_worker(worker, tick);
                self.alive[worker] = true;
                self.record_fleet_event(TraceEvent {
                    tick,
                    worker: worker as u32,
                    request: None,
                    kind: EventKind::WorkerRestarted,
                });
                for (req, replay, from) in std::mem::take(&mut self.deferred) {
                    match from {
                        Some(from) => self.migrate(req, replay, from, tick),
                        None => self.admit_or_defer(req, tick),
                    }
                }
            }
        }
    }

    /// The paced drive: fire due faults, route due arrivals, tick —
    /// every round, until no arrival and no fault remains (the rest is
    /// [`FleetBackend::finish`]'s drain, which the backend runs its own
    /// best way). Requests are served in arrival order (stable, so
    /// equal-arrival order is preserved): each is routed exactly when
    /// its arrival tick falls due on the fleet clock, so load-aware
    /// policies see the queue state the arrival would actually see.
    fn drive_paced(&mut self, mut requests: Vec<Request>, cost: &GpuCostModel) {
        requests.sort_by_key(|r| r.arrival);
        let mut pending = requests.into_iter().peekable();
        loop {
            // The fleet's time is its most-advanced worker clock. The
            // upcoming tick moves busy workers to `now + 1`, so faults and
            // arrivals due by then take effect *before* that tick — a
            // tick-T event applied after the fleet passes T would act
            // late and break schedule identity with the single-engine
            // oracle.
            let now = self.backend.now();
            while self.faults.front().is_some_and(|f| f.tick() <= now + 1) {
                let ev = self.faults.pop_front().expect("peeked");
                self.apply_fault(ev);
            }
            while pending.peek().is_some_and(|r| r.arrival <= now + 1) {
                let req = pending.next().expect("peeked");
                self.admit_or_defer(req, now);
            }
            if self.backend.has_work() {
                if pending.peek().is_none() && self.faults.is_empty() {
                    // Nothing left that could perturb the fleet: the
                    // remaining ticks are pure per-worker drains.
                    break;
                }
                self.backend.tick_round(cost);
            } else {
                // Idle fleet: jump to whichever comes first — the next
                // arrival group (receiving workers fast-forward their own
                // clocks) or the next fault (crash/restart advances the
                // target worker's clock itself).
                let next_arrival = pending.peek().map(|r| r.arrival);
                let next_fault = self.faults.front().map(FaultEvent::tick);
                match (next_arrival, next_fault) {
                    (Some(a), Some(f)) if f <= a => {
                        let ev = self.faults.pop_front().expect("peeked");
                        self.apply_fault(ev);
                    }
                    (Some(a), _) => {
                        while pending.peek().is_some_and(|r| r.arrival <= a) {
                            let req = pending.next().expect("peeked");
                            self.admit_or_defer(req, now);
                        }
                    }
                    (None, Some(_)) => {
                        let ev = self.faults.pop_front().expect("peeked");
                        self.apply_fault(ev);
                    }
                    (None, None) => {
                        // No arrivals, no faults, no work — but possibly a
                        // deferred queue with every worker dead and no
                        // restart coming: shed it deterministically at the
                        // fleet level rather than hanging.
                        for (req, _, _) in std::mem::take(&mut self.deferred) {
                            self.record_fleet_event(TraceEvent {
                                tick: now,
                                worker: 0,
                                request: Some(req.id),
                                kind: EventKind::Shed {
                                    arrival: req.arrival,
                                    deadline: req.deadline,
                                },
                            });
                            self.fleet_shed.push(ShedRequest {
                                id: req.id,
                                arrival: req.arrival,
                                deadline: req.deadline,
                                tick: now,
                            });
                        }
                        break;
                    }
                }
            }
        }
    }

    /// Drains the backend and folds what it hands back into the run —
    /// the one merge both backends' reports and event streams go
    /// through, so neither their per-worker stats nor their canonical
    /// event order can diverge.
    fn finish(self, cost: &GpuCostModel) -> FleetRun {
        let (workers, worker_events) = self.backend.finish(cost);
        let mut completions = Vec::new();
        let mut shed = Vec::new();
        let mut stats = ServeStats::default();
        let mut per_worker = Vec::with_capacity(workers.len());
        // A worker slot's report is the merge of every engine that
        // lived in it: crashed predecessors' banked segments plus the
        // final engine (the identity merge without faults).
        for segments in workers {
            let mut worker_stats = ServeStats::default();
            for seg in segments {
                completions.extend(seg.completions);
                shed.extend(seg.shed);
                worker_stats.merge(&seg.stats);
            }
            stats.merge(&worker_stats);
            per_worker.push(worker_stats);
        }
        stats.merge(&self.fleet_stats);
        shed.extend(self.fleet_shed);
        completions.sort_by_key(|c| c.id);
        shed.sort_by_key(|s| s.id);
        let mut assignments = self.assignments;
        assignments.sort_unstable();
        // Canonical fleet order: the coordinator's events first, in
        // emission order, then every other event grouped by worker with
        // each worker's own order kept (a stable sort; a no-op on the
        // threaded backend's already-grouped streams). Fleet-level
        // sheds trail their worker's stream.
        let mut events = self.fleet_events;
        let fleet_len = events.len();
        events.extend(worker_events);
        events.extend(self.late_events);
        events[fleet_len..].sort_by_key(|ev| ev.worker);
        FleetRun {
            report: DispatchReport {
                completions,
                shed,
                stats,
                per_worker,
                assignments,
            },
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_round_trips_and_sorts() {
        let plan = FaultPlan::none().restart(90, 1).crash(40, 1);
        let json = serde_json::to_string(&plan).expect("serializes");
        let back: FaultPlan = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, plan);
        let sorted = plan.sorted_events();
        assert_eq!(
            sorted[0],
            FaultEvent::CrashWorker {
                tick: 40,
                worker: 1
            }
        );
        assert_eq!(
            sorted[1],
            FaultEvent::RestartWorker {
                tick: 90,
                worker: 1
            }
        );
    }
}
