//! Multi-worker routing: which of a fleet's N independent
//! [`ServeEngine`] workers gets the next arrival, and the lockstep
//! backend that advances those workers on one thread.
//!
//! One fused engine is one "GPU". Past its saturation point the only
//! way to keep tail latency down is more workers — and then the
//! question becomes *routing*: which worker gets the next arrival?
//! This module adds that layer without touching serving semantics:
//!
//! ```text
//!   FleetRuntime::run ──► drive ──route──► worker 0: ServeEngine
//!   (Drive::Batch /        │   ▲           worker 1: ServeEngine
//!    Paced / Streaming)    │   │ probes    …        (own session
//!                          │   │                     pool, queue,
//!     RoutePolicy ─────────┘   ├ ready_depth()       prefix cache,
//!     rr / jsq /               ├ outstanding_cost()  clock, tick
//!     least-loaded /           └ prefix_match_depth() loop)
//!     pinned /
//!     prefix-affine         lockstep backend: each round, every worker
//!                           with work runs one tick (idle workers
//!                           fast-forward their own clocks)
//!                                    │
//!                                    ▼
//!              DispatchReport{completions, shed, merged stats,
//!                             per-worker stats, assignments}
//! ```
//!
//! # Cache-aware routing
//!
//! With per-worker prefix caches enabled
//! ([`crate::ServeConfig::prefix_cache`]), worker choice affects *where* each
//! prompt's stem ends up resident. [`RoutePolicy::PrefixAffine`]
//! exploits that: it probes each worker's trie for the deepest cached
//! prefix of the incoming prompt and routes to the warmest worker, so
//! a Zipf-shared-stem workload partitions its stems across the fleet
//! instead of smearing every stem over every worker (what round-robin
//! does, churning each cache with everyone's stems). Routing stays a
//! performance mechanism: tokens are bit-identical under every policy,
//! only hit rates and ingestion work move.
//!
//! # Determinism
//!
//! Routing happens at *receipt*: each request is assigned once, by the
//! policy, from the workers' probe values at that instant — and the
//! realized assignment is recorded in [`DispatchReport::assignments`].
//! Given an assignment, everything downstream is the deterministic
//! single-engine machinery: each worker serves its shard exactly as a
//! standalone [`ServeEngine`] would serve it alone (same admission
//! ticks, same shedding, same deadlines, same tokens), because workers
//! share nothing but the read-only model. [`RoutePolicy::Pinned`]
//! replays a recorded assignment, so a run can be reproduced
//! bit-for-bit even when the original routing reacted to live load.
//! With every arrival sent before it falls due (the batch pattern),
//! probe values themselves are deterministic, so rr / jsq /
//! least-loaded runs are reproducible end to end.
//!
//! # The invariant, again
//!
//! Dispatch is a performance mechanism, never a semantic one: every
//! request's token stream is bit-identical to the serial single-session
//! engine's under **any** worker count, routing policy, and send
//! timing, and a one-worker fleet is tick-identical to a hand-driven
//! [`ServeEngine`] fed in arrival order (the fleet adds zero scheduling
//! noise). `tests/proptest_dispatch.rs` pins both, plus
//! shedding/deadline determinism under pinned assignments.
//!
//! # The two backends
//!
//! `Dispatcher`, this module's backend, advances the fleet *lockstep*
//! on one thread — deliberately: it is the deterministic oracle. The
//! `threaded` module runs the same fleet with one OS thread per worker
//! over an mpsc command/reply protocol. Both sit under the one drive
//! and the one routing core in [`crate::runtime`], so routing decisions
//! cannot diverge, and the two are proptest-pinned to produce
//! tick-for-token identical reports
//! (`tests/proptest_dispatch_threaded.rs`).

use crate::engine::{ServeEngine, ServeReport, ServeStats, ShedRequest};
use crate::request::{Completion, Request};
use crate::runtime::{FleetBackend, FleetRuntime};
use serde::{Deserialize, Serialize};
use verispec_lm::{GpuCostModel, TokenId};
use verispec_trace::{EventLog, TraceEvent, TraceSink, NOOP};

/// How a fleet picks a worker for each arrival.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutePolicy {
    /// Cyclic assignment in receipt order — load-blind, the baseline.
    RoundRobin,
    /// Join-shortest-queue: the worker with the smallest ready-depth
    /// ([`ServeEngine::ready_depth`] — active plus queued requests)
    /// wins; ties go to the lowest worker index.
    JoinShortestQueue,
    /// Join-least-loaded: the worker with the smallest outstanding
    /// candidate-token cost ([`ServeEngine::outstanding_cost`] — what
    /// the speculation policy prices its in-flight work at) wins; ties
    /// go to the lowest worker index. Unlike JSQ this sees *how heavy*
    /// each request is (budget × speculation shape), not just how many
    /// there are.
    LeastLoaded,
    /// Replays a fixed `request id → worker` assignment (e.g. a prior
    /// run's [`DispatchReport::assignments`]) — the determinism lever:
    /// with the assignment pinned, shedding, deadlines, and every tick
    /// stamp reproduce exactly.
    Pinned(Vec<(u64, usize)>),
    /// Cache-aware routing: probe every worker's prefix cache for the
    /// deepest cached prefix of the request's prompt
    /// ([`ServeEngine::prefix_match_depth`]) and route to the worker
    /// already holding the longest stem, so stem-sharing requests pile
    /// onto the worker whose trie is already warm instead of
    /// re-ingesting the stem fleet-wide. Ties (including the all-cold
    /// case, depth 0 everywhere) break by least outstanding cost, then
    /// lowest worker index — so on a cache-less fleet this degrades to
    /// [`RoutePolicy::LeastLoaded`]. Requires
    /// [`crate::engine::ServeConfig::prefix_cache`] on the workers to
    /// see nonzero depths.
    PrefixAffine,
}

impl RoutePolicy {
    /// Short policy name (bench-row key).
    pub fn name(&self) -> &'static str {
        match self {
            RoutePolicy::RoundRobin => "rr",
            RoutePolicy::JoinShortestQueue => "jsq",
            RoutePolicy::LeastLoaded => "least-loaded",
            RoutePolicy::Pinned(_) => "pinned",
            RoutePolicy::PrefixAffine => "prefix-affine",
        }
    }
}

/// One worker's route-time load probes, snapshotted together so the
/// lockstep and threaded backends feed the routing policy the same
/// values through the same code path. `prefix_depth` is probed against
/// the specific request's prompt being routed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RouteProbes {
    /// [`ServeEngine::ready_depth`] — queued plus active requests.
    pub(crate) ready_depth: u64,
    /// [`ServeEngine::outstanding_cost`] — priced in-flight work.
    pub(crate) outstanding_cost: u64,
    /// [`ServeEngine::prefix_match_depth`] for the request's prompt.
    pub(crate) prefix_depth: u64,
}

impl RouteProbes {
    /// Reads one engine's probes against `prompt`.
    pub(crate) fn of(engine: &ServeEngine<'_>, prompt: &[TokenId]) -> Self {
        RouteProbes {
            ready_depth: engine.ready_depth() as u64,
            outstanding_cost: engine.outstanding_cost() as u64,
            prefix_depth: engine.prefix_match_depth(prompt) as u64,
        }
    }
}

/// The routing decision core. One `Router` lives in the fleet state
/// both backends run under, so their picks (and
/// [`verispec_trace::EventKind::Routed`] probe payloads) cannot
/// diverge: the backends differ only in *how* the probe snapshot is
/// gathered (direct engine reads vs a channel round-trip).
#[derive(Debug, Clone)]
pub(crate) struct Router {
    route: RoutePolicy,
    /// Next cyclic pick for [`RoutePolicy::RoundRobin`].
    rr_next: usize,
}

impl Router {
    pub(crate) fn new(route: RoutePolicy) -> Self {
        Router { route, rr_next: 0 }
    }

    /// Short policy name (the `Routed` event payload key).
    pub(crate) fn policy_name(&self) -> &'static str {
        self.route.name()
    }

    /// Whether the policy reads load probes at route time. Probe-less
    /// policies skip the snapshot — and, on the threaded backend, the
    /// fleet-wide probe round-trip that gathers it.
    pub(crate) fn needs_probes(&self) -> bool {
        matches!(
            self.route,
            RoutePolicy::JoinShortestQueue | RoutePolicy::LeastLoaded | RoutePolicy::PrefixAffine
        )
    }

    /// Picks the worker for `req` among the live workers (`alive` is
    /// one flag per worker; dead workers — crashed and not yet
    /// restarted — are masked out of every policy) from the probe
    /// snapshot (`probes` may be empty when [`Self::needs_probes`] is
    /// false); also returns the per-worker probe values the decision
    /// was based on (empty for probe-less policies), for the routing
    /// trace event. With every worker alive, each policy's choice is
    /// identical to its historical unmasked behavior.
    ///
    /// # Panics
    ///
    /// Panics if no worker is alive — callers (the fault drive) defer
    /// submissions under fleet-wide backpressure instead of routing.
    pub(crate) fn pick(
        &mut self,
        req: &Request,
        alive: &[bool],
        probes: &[RouteProbes],
    ) -> (usize, Vec<u64>) {
        let n = alive.len();
        assert!(
            alive.iter().any(|&a| a),
            "routing request {} with no live workers",
            req.id
        );
        match &self.route {
            RoutePolicy::RoundRobin => {
                // Advance cyclically but skip dead workers; the cursor
                // lands one past the pick, so the cycle over live
                // workers is preserved (and is the historical cycle
                // when all are alive).
                let mut w = self.rr_next % n;
                while !alive[w] {
                    w = (w + 1) % n;
                }
                self.rr_next = (w + 1) % n;
                (w, Vec::new())
            }
            RoutePolicy::JoinShortestQueue => {
                let vals: Vec<u64> = probes.iter().map(|p| p.ready_depth).collect();
                (argmin_alive(vals.iter().copied(), alive), vals)
            }
            RoutePolicy::LeastLoaded => {
                let vals: Vec<u64> = probes.iter().map(|p| p.outstanding_cost).collect();
                (argmin_alive(vals.iter().copied(), alive), vals)
            }
            RoutePolicy::Pinned(assignment) => {
                let w = assignment
                    .iter()
                    .find(|&&(id, _)| id == req.id)
                    .map(|&(_, w)| w)
                    .unwrap_or_else(|| panic!("pinned route has no worker for request {}", req.id));
                assert!(
                    w < n,
                    "pinned route sends request {} to worker {w} of {n}",
                    req.id
                );
                // A pinned target that is dead (its recorded worker
                // crashed) falls back to the lowest live index, so
                // replays of fault-free assignments against a faulted
                // fleet still route deterministically.
                let w = if alive[w] {
                    w
                } else {
                    alive.iter().position(|&a| a).expect("checked above")
                };
                (w, Vec::new())
            }
            RoutePolicy::PrefixAffine => {
                // Argmax match depth among live workers; tie-break min
                // outstanding cost, then lowest index (first strict
                // improvement wins). Dead workers still contribute
                // their probe value to the trace payload.
                let mut vals = Vec::with_capacity(n);
                let mut best: Option<(u64, u64, usize)> = None;
                for (i, p) in probes.iter().enumerate() {
                    vals.push(p.prefix_depth);
                    if !alive[i] {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some((depth, cost, _)) => {
                            p.prefix_depth > depth
                                || (p.prefix_depth == depth && p.outstanding_cost < cost)
                        }
                    };
                    if better {
                        best = Some((p.prefix_depth, p.outstanding_cost, i));
                    }
                }
                (best.expect("checked above").2, vals)
            }
        }
    }
}

/// The result of a dispatched serving run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DispatchReport {
    /// All finished requests across the fleet, sorted by id.
    pub completions: Vec<Completion>,
    /// All requests rejected by (per-worker) load shedding, sorted by
    /// id.
    pub shed: Vec<ShedRequest>,
    /// Fleet-merged counters ([`ServeStats::merge`]: sums for additive
    /// counters, per-worker maxima for schedule/high-water ones).
    pub stats: ServeStats,
    /// Each worker's own counters, by worker index.
    pub per_worker: Vec<ServeStats>,
    /// The realized routing: `(request id, worker index)` sorted by id.
    /// Feed it back through [`RoutePolicy::Pinned`] to replay the run.
    pub assignments: Vec<(u64, usize)>,
}

impl DispatchReport {
    /// The worker a request was routed to, if it was received.
    pub fn worker_of(&self, id: u64) -> Option<usize> {
        self.assignments
            .binary_search_by_key(&id, |&(rid, _)| rid)
            .ok()
            .map(|i| self.assignments[i].1)
    }

    /// Total generated tokens across all completions.
    pub fn total_tokens(&self) -> usize {
        self.completions.iter().map(|c| c.output.tokens.len()).sum()
    }

    /// Tick-space equality with another report: completions compared on
    /// every field except the wall-clock seconds (which depend on real
    /// elapsed time, not the schedule), plus shed, merged and
    /// per-worker stats, and assignments. This is the parity predicate
    /// [`crate::Backend::Threaded`] is held to against the lockstep
    /// oracle.
    pub fn same_schedule(&self, other: &DispatchReport) -> bool {
        self.completions.len() == other.completions.len()
            && self
                .completions
                .iter()
                .zip(&other.completions)
                .all(|(a, b)| a.same_schedule(b))
            && self.shed == other.shed
            && self.stats == other.stats
            && self.per_worker == other.per_worker
            && self.assignments == other.assignments
    }
}

/// The lockstep backend: N independent [`ServeEngine`] workers ticked
/// round by round on the calling thread — the deterministic oracle the
/// threaded backend is pinned to. Routing, liveness and the report
/// merge live in the [`crate::runtime`] fleet state above it.
pub(crate) struct Dispatcher<'s> {
    /// The fleet spec, retained so a crashed worker's replacement
    /// engine is rebuilt identically (minus warm stems — crash recovery
    /// is cold-cache).
    spec: &'s FleetRuntime<'s>,
    /// The log every worker traces into (one shared stream, in
    /// tick-round order); `None` untraced.
    log: Option<&'s EventLog>,
    workers: Vec<ServeEngine<'s>>,
    /// Report segments banked by crashed predecessor engines, by
    /// worker slot.
    dead_reports: Vec<Vec<ServeReport>>,
}

impl<'s> Dispatcher<'s> {
    /// The spec's workers, each with its own session pool, queue and
    /// clock, tracing into `log` when there is one.
    pub(crate) fn new(spec: &'s FleetRuntime<'s>, log: Option<&'s EventLog>) -> Self {
        Dispatcher {
            spec,
            log,
            workers: (0..spec.workers())
                .map(|w| spec.engine(w, sink_of(log), true))
                .collect(),
            dead_reports: vec![Vec::new(); spec.workers()],
        }
    }
}

/// The sink the workers of a fleet logging into `log` write to.
fn sink_of(log: Option<&EventLog>) -> &dyn TraceSink {
    match log {
        Some(log) => log,
        None => &NOOP,
    }
}

impl FleetBackend for Dispatcher<'_> {
    fn now(&self) -> u64 {
        self.workers
            .iter()
            .map(ServeEngine::clock)
            .max()
            .unwrap_or(0)
    }

    fn has_work(&self) -> bool {
        self.workers.iter().any(ServeEngine::has_work)
    }

    fn probes(&self, prompt: &[TokenId]) -> Vec<RouteProbes> {
        self.workers
            .iter()
            .map(|w| RouteProbes::of(w, prompt))
            .collect()
    }

    fn submit(&mut self, w: usize, req: Request) {
        self.workers[w].submit(req);
    }

    /// One lockstep round: every worker with work executes one tick of
    /// its own loop (idle workers skip; workers whose queue is all
    /// future arrivals fast-forward their own clocks, exactly as a
    /// standalone engine would).
    fn tick_round(&mut self, cost: &GpuCostModel) {
        for w in &mut self.workers {
            w.tick(cost);
        }
    }

    fn crash_worker(&mut self, w: usize, at: u64) -> Vec<(Request, usize)> {
        let mut fresh = self.spec.engine(w, sink_of(self.log), false);
        fresh.advance_clock(at);
        let old = std::mem::replace(&mut self.workers[w], fresh);
        let (report, stranded) = old.crash();
        self.dead_reports[w].push(report);
        stranded
    }

    fn restart_worker(&mut self, w: usize, at: u64) {
        self.workers[w].advance_clock(at);
    }

    fn finish(mut self, cost: &GpuCostModel) -> (Vec<Vec<ServeReport>>, Vec<TraceEvent>) {
        // Nothing external remains: the rest is a pure lockstep drain.
        while self.has_work() {
            self.tick_round(cost);
        }
        let events = self.log.map(EventLog::events).unwrap_or_default();
        let mut segments = self.dead_reports;
        for (slot, worker) in segments.iter_mut().zip(self.workers) {
            slot.push(worker.into_report());
        }
        (segments, events)
    }
}

/// Index of the smallest value among live workers (first wins ties —
/// the lowest live worker index, so routing is deterministic; with all
/// workers alive this is the plain argmin).
fn argmin_alive(values: impl Iterator<Item = u64>, alive: &[bool]) -> usize {
    let mut best: Option<(u64, usize)> = None;
    for (i, v) in values.enumerate() {
        if !alive[i] {
            continue;
        }
        let better = match best {
            None => true,
            Some((bv, _)) => v < bv,
        };
        if better {
            best = Some((v, i));
        }
    }
    best.expect("no live workers to route among").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::EngineChoice;
    use crate::runtime::{Backend, Drive, Fleet};
    use crate::ServeConfig;
    use verispec_core::DecodeConfig;
    use verispec_lm::{MlpLm, MlpLmConfig};

    fn model() -> MlpLm {
        MlpLm::new(MlpLmConfig {
            vocab: 14,
            d_emb: 6,
            d_hidden: 12,
            context: 4,
            n_heads: 3,
            seed: 33,
        })
    }

    fn spec(
        model: &MlpLm,
        cfg: ServeConfig,
        workers: usize,
        route: RoutePolicy,
    ) -> FleetRuntime<'_> {
        FleetRuntime::new(model, cfg, workers, route, Backend::Lockstep)
    }

    /// The spec's fleet on the lockstep backend, untraced, for driving
    /// routing by hand.
    fn fleet<'s>(spec: &'s FleetRuntime<'s>) -> Fleet<Dispatcher<'s>> {
        Fleet::new(spec, Dispatcher::new(spec, None))
    }

    fn ntp_request(id: u64, budget: usize) -> Request {
        Request::new(
            id,
            vec![1 + (id % 4) as TokenId, 2],
            EngineChoice::Ntp,
            DecodeConfig {
                max_tokens: budget,
                seed: id,
                ..Default::default()
            },
        )
    }

    fn tree_request(id: u64, budget: usize) -> Request {
        Request::new(
            id,
            vec![1 + (id % 4) as TokenId, 2],
            EngineChoice::SyntaxAligned {
                tree: Some(vec![2, 2]),
            },
            DecodeConfig {
                max_tokens: budget,
                seed: id,
                ..Default::default()
            },
        )
    }

    #[test]
    fn round_robin_cycles_through_workers() {
        let m = model();
        let spec = spec(&m, ServeConfig::concurrency(2), 3, RoutePolicy::RoundRobin);
        let mut d = fleet(&spec);
        for id in 0..6 {
            d.route_submit(ntp_request(id, 4));
        }
        assert_eq!(
            d.assignments,
            vec![(0, 0), (1, 1), (2, 2), (3, 0), (4, 1), (5, 2)]
        );
    }

    #[test]
    fn jsq_joins_the_shallowest_worker() {
        let m = model();
        let spec = spec(
            &m,
            ServeConfig::concurrency(2),
            2,
            RoutePolicy::JoinShortestQueue,
        );
        let mut d = fleet(&spec);
        // Empty fleet: ties break to the lowest index.
        d.route_submit(ntp_request(0, 4)); // depths (0,0) -> worker 0
        d.route_submit(ntp_request(1, 4)); // depths (1,0) -> worker 1
        d.route_submit(ntp_request(2, 4)); // depths (1,1) -> worker 0
        assert_eq!(d.assignments, vec![(0, 0), (1, 1), (2, 0)]);
    }

    #[test]
    fn probes_expose_depth_vs_cost() {
        let m = model();
        let mut heavy = ServeEngine::new(&m, ServeConfig::concurrency(2));
        heavy.submit(tree_request(0, 10)); // one wide, long request
        let mut light = ServeEngine::new(&m, ServeConfig::concurrency(2));
        light.submit(ntp_request(1, 2)); // two cheap shorties
        light.submit(ntp_request(2, 2));
        assert!(heavy.ready_depth() < light.ready_depth());
        assert!(
            heavy.outstanding_cost() > light.outstanding_cost(),
            "a tree[2,2] x 10-token budget ({}) must outweigh two 2-token NTPs ({})",
            heavy.outstanding_cost(),
            light.outstanding_cost()
        );
        // The tree costs 1 + 4 paths x 3 levels = 13 per step.
        assert_eq!(heavy.outstanding_cost(), 10 * 13);
        assert_eq!(light.outstanding_cost(), 2 + 2);
    }

    #[test]
    fn least_loaded_routes_by_cost_where_jsq_routes_by_count() {
        let m = model();
        let arrivals = || {
            vec![
                tree_request(0, 12), // heavy: dominates one worker's cost
                ntp_request(1, 3),
                ntp_request(2, 3),
                ntp_request(3, 3),
            ]
        };
        let route_with = |route: RoutePolicy| -> Vec<(u64, usize)> {
            let spec = spec(&m, ServeConfig::concurrency(2), 2, route);
            let mut d = fleet(&spec);
            for r in arrivals() {
                d.route_submit(r);
            }
            d.assignments
        };
        // JSQ counts requests: after (0->w0, 1->w1) the depths tie, so
        // request 2 joins worker 0 right next to the heavy tree.
        assert_eq!(
            route_with(RoutePolicy::JoinShortestQueue),
            vec![(0, 0), (1, 1), (2, 0), (3, 1)]
        );
        // Least-loaded prices the tree: every shorty avoids worker 0.
        assert_eq!(
            route_with(RoutePolicy::LeastLoaded),
            vec![(0, 0), (1, 1), (2, 1), (3, 1)]
        );
    }

    #[test]
    fn report_lookup_and_merge_are_consistent() {
        let m = model();
        let cost = GpuCostModel::codellama_like();
        let report = spec(&m, ServeConfig::concurrency(2), 2, RoutePolicy::RoundRobin)
            .run(
                Drive::Batch((0..5).map(|id| ntp_request(id, 4)).collect()),
                &cost,
            )
            .report;
        assert_eq!(report.completions.len(), 5);
        assert_eq!(report.per_worker.len(), 2);
        assert_eq!(report.worker_of(1), Some(1));
        assert_eq!(report.worker_of(99), None);
        let mut merged = ServeStats::default();
        for s in &report.per_worker {
            merged.merge(s);
        }
        assert_eq!(merged, report.stats);
        assert_eq!(report.total_tokens(), report.stats.served_tokens);
    }

    #[test]
    fn prefix_affine_follows_the_warm_stem() {
        let m = model();
        let cfg = ServeConfig {
            prefix_cache: true,
            ..ServeConfig::concurrency(2)
        };
        // Warm one stem on every worker, then serve a request through
        // routed submission so only that worker's trie grows.
        let stem: Vec<TokenId> = vec![1, 2, 3];
        let spec = spec(&m, cfg, 3, RoutePolicy::PrefixAffine).warm_prefix(&stem);
        let mut d = fleet(&spec);
        let depths: Vec<u64> = d
            .backend
            .probes(&stem)
            .iter()
            .map(|p| p.prefix_depth)
            .collect();
        assert_eq!(depths, vec![3, 3, 3], "every worker accepted the stem");
        let stem_req = |id: u64, prompt: Vec<TokenId>| {
            Request::new(
                id,
                prompt,
                EngineChoice::Ntp,
                DecodeConfig {
                    max_tokens: 4,
                    seed: id,
                    ..Default::default()
                },
            )
        };
        // All workers tie at depth 3 → least-loaded tie-break → worker
        // 0 gets the first stem-sharing request; once admitted (one
        // tick), its full prompt is cached there, so a deeper extension
        // of the same stem follows it to worker 0 even though worker 0
        // is now the busiest.
        let cost = GpuCostModel::codellama_like();
        d.route_submit(stem_req(0, vec![1, 2, 3, 4, 5]));
        d.backend.tick_round(&cost);
        d.route_submit(stem_req(1, vec![1, 2, 3, 4, 5, 6]));
        assert_eq!(d.assignments, vec![(0, 0), (1, 0)]);
        // An unrelated prompt sees depth 0 everywhere and falls back to
        // the least-loaded worker instead of piling on worker 0.
        d.route_submit(stem_req(2, vec![9, 9, 9]));
        assert_eq!(d.assignments[2], (2, 1));
    }

    #[test]
    #[should_panic(expected = "pinned route has no worker")]
    fn pinned_route_rejects_unknown_requests() {
        let m = model();
        let spec = spec(
            &m,
            ServeConfig::concurrency(1),
            2,
            RoutePolicy::Pinned(vec![(7, 1)]),
        );
        fleet(&spec).route_submit(ntp_request(0, 2));
    }
}
