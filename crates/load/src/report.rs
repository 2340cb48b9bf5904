//! Driving an open-loop workload through the serving stack and
//! packaging the result for `BENCH_load.json`.
//!
//! [`run_fleet_open_loop`] is the one driver: it serves a generated
//! request sequence through a configured
//! [`verispec_serve::FleetRuntime`]'s paced drive — each request is
//! routed exactly when its arrival tick falls due — and returns the
//! fleet report together with the aggregated latency telemetry and the
//! event stream. Everything about the run
//! is the caller's fleet spec: worker count and routing (a single
//! engine is the one-worker fleet), backend (lockstep oracle or
//! threaded runtime), prefix cache and warm stems, speculation policy,
//! and an optional [`verispec_serve::FaultPlan`]. [`LoadBenchRow`] is
//! one line of the serve-aware Table II: one (arrival process, offered
//! load, decoding method, worker count × routing policy) cell with
//! exact p50/p90/p99 TTFT and end-to-end latency, plus recovery columns
//! (crashes, migrations, replay tokens, recovery-window TTFT p99) for
//! fault-injected cells.

use crate::telemetry::{LatencyQuantiles, LatencyReport, QuantileSummary};
use serde::{Deserialize, Serialize};
use verispec_lm::GpuCostModel;
use verispec_serve::{DispatchReport, Drive, FleetRuntime, Request};
use verispec_trace::{EventKind, TraceEvent};

/// Everything one open-loop run produces.
#[derive(Debug, Clone)]
pub struct LoadRunReport {
    /// The fleet's completions, merged + per-worker counters, and the
    /// realized routing.
    pub report: DispatchReport,
    /// Aggregated latency telemetry, per-worker breakdown included.
    pub latency: LatencyReport,
    /// The fleet's full structured event stream in canonical fleet
    /// order (routing and fault lifecycle first, then per-worker
    /// lifecycles by worker id) — deterministic in tick space, and the
    /// same for either backend.
    pub events: Vec<TraceEvent>,
}

/// Serves `requests` through `fleet`'s *paced* drive ([`Drive::Paced`]
/// — each request is routed exactly when its arrival tick falls due, so
/// load-aware routing sees live queue depths and the whole run stays
/// deterministic) with tracing on, then joins the merged completions
/// with the realized routing into a dispatcher-aware [`LatencyReport`].
/// The backend the fleet was built with changes nothing here: both
/// produce bit-identical tick-space results (the proptest-pinned parity
/// invariant).
pub fn run_fleet_open_loop(
    fleet: FleetRuntime<'_>,
    requests: Vec<Request>,
    cost: &GpuCostModel,
) -> LoadRunReport {
    let originals = requests.clone();
    let run = fleet.with_tracing().run(Drive::Paced(requests), cost);
    let report = run.report;
    let latency =
        LatencyReport::with_assignments(&originals, &report.completions, &report.assignments);
    LoadRunReport {
        report,
        latency,
        events: run.events,
    }
}

/// One row of the serve-aware Table II in `BENCH_load.json`: a
/// (process, offered load, method) cell measured under paced admission
/// ([`run_fleet_open_loop`]) at equal offered load across methods.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadBenchRow {
    /// Arrival-process name.
    pub process: String,
    /// Offered load in requests per tick.
    pub offered_rate: f64,
    /// Decoding method served (all requests forced to it).
    pub method: String,
    /// Speculation policy the run was served under
    /// ([`verispec_core::SpecPolicy::name`]; "static" is the
    /// pre-policy behavior).
    pub policy: String,
    /// Per-tick verify capacity the policy divided, if the run was
    /// capacity-gated (`None` = unlimited, the legacy rows).
    pub tick_capacity: Option<usize>,
    /// Workers the run was served on (1 = the single fused engine).
    pub workers: usize,
    /// Routing policy of the run
    /// ([`verispec_serve::RoutePolicy::name`]; "single" labels the
    /// one-engine reference rows, where routing is forced).
    pub route: String,
    /// Requests routed to each worker, by worker index (served and
    /// shed alike — routing happens before admission control), so the
    /// entries always sum to `requests + shed_requests`. Single-engine
    /// rows have the one entry.
    pub worker_requests: Vec<usize>,
    /// Whether the run's parity assertion (paced == batch for
    /// single-engine rows; every completion == serial decode for
    /// dispatched rows) passed before the row was recorded. Rows are
    /// only constructed after the assertion, so this is always `true`
    /// in an honestly produced artifact.
    pub parity: bool,
    /// Requests served.
    pub requests: usize,
    /// Tokens generated.
    pub tokens: usize,
    /// Scheduler ticks worked.
    pub ticks: u64,
    /// Idle ticks the engine fast-forwarded over.
    pub idle_ticks_skipped: u64,
    /// Tokens committed per worked tick (service rate).
    pub tokens_per_tick: f64,
    /// Mean tokens per decoding step (speculation effectiveness under
    /// load).
    pub tokens_per_step: f64,
    /// The four latency distributions ([`LatencyQuantiles`] — shared
    /// with the telemetry summaries instead of copied field by field).
    pub quantiles: LatencyQuantiles,
    /// High-water resident sessions.
    pub peak_resident_sessions: usize,
    /// SLO attainment: fraction of deadline-carrying requests finishing
    /// by their deadline (`None` for best-effort workloads).
    pub slo_attainment: Option<f64>,
    /// Submitted requests carrying a deadline.
    pub deadlines: usize,
    /// Of those, requests that met it.
    pub deadlines_met: usize,
    /// Speculation acceptance rate (`accepted / proposed` candidate
    /// tokens; `None` for NTP rows, which speculate nothing).
    pub acceptance_rate: Option<f64>,
    /// Requests rejected by load-shedding admission control.
    pub shed_requests: usize,
    /// Steps deferred by the per-tick verify capacity.
    pub deferred_steps: u64,
    /// Prefix-cache admissions that forked a cached stem (0 when the
    /// cache is off).
    pub prefix_hits: usize,
    /// Prefix-cache admissions that ingested from scratch.
    pub prefix_misses: usize,
    /// Cache hit rate (`hits / (hits + misses)`; `None` when the cache
    /// never saw an admission — i.e. it was off).
    pub prefix_hit_rate: Option<f64>,
    /// Prompt tokens whose ingestion the cache skipped (sum of matched
    /// prefix depths over all hits).
    pub prefix_tokens_saved: usize,
    /// Cached stems dropped by cap-charged LRU eviction.
    pub prefix_evictions: usize,
    /// High-water resident trie nodes holding a session (fleet maximum
    /// for dispatched rows).
    pub peak_resident_nodes: usize,
    /// Candidate tokens proposed, summed from the event stream's
    /// per-request `Finished` events (must agree with the counter-based
    /// acceptance telemetry).
    pub event_proposed_tokens: usize,
    /// Candidate tokens accepted, summed from the same `Finished`
    /// events.
    pub event_accepted_tokens: usize,
    /// Requests whose `Finished` event violated the per-request
    /// `accepted <= proposed` invariant. Always 0 in an honestly
    /// produced artifact; the sweep's gates refuse to write one
    /// otherwise.
    pub event_accept_violations: usize,
    /// Whether the same cell served on
    /// [`verispec_serve::Backend::Threaded`] reproduced the lockstep
    /// run exactly — schedule ([`DispatchReport::same_schedule`]) and
    /// canonical event stream both. Like `parity`, rows are only
    /// recorded after the assertion, so an honest artifact always says
    /// `Some(true)`. `None` for cells the threaded sweep does not cover
    /// (single-engine and trace-replay rows).
    pub threaded_parity: Option<bool>,
    /// Worker crashes the run's [`verispec_serve::FaultPlan`] fired (0
    /// for fault-free cells).
    pub worker_crashes: usize,
    /// Requests migrated off crashed workers (re-routed through the
    /// live fleet and rebuilt by exact replay).
    pub migrations: usize,
    /// Tokens re-decoded while rebuilding migrated sessions — the
    /// recovery work the fault plan cost the fleet.
    pub replay_tokens: usize,
    /// Exact p99 TTFT (ticks) over the fault-affected completions —
    /// those that were migrated or deferred under backpressure — i.e.
    /// the recovery-window tail. `None` when no completion was
    /// fault-affected (fault-free cells, or plans that touched no
    /// in-flight work).
    pub recovery_ttft_p99: Option<f64>,
}

impl LoadBenchRow {
    /// Assembles one Table-II row from a run, labelled `route`, under
    /// the static policy with no tick capacity (policy-A/B and scenario
    /// cells overwrite `policy` / `tick_capacity` on the returned row).
    /// `ticks` is the fleet's longest worker schedule
    /// ([`verispec_serve::ServeStats::merge`]), so `tokens_per_tick`
    /// reads as fleet throughput against wall-clock ticks, and
    /// `worker_requests` shows how the policy spread the load.
    pub fn new(
        process: &str,
        offered_rate: f64,
        method: &str,
        route: &str,
        run: &LoadRunReport,
    ) -> Self {
        let stats = &run.report.stats;
        let steps: usize = run.report.completions.iter().map(|c| c.output.steps).sum();
        let tokens = run.report.total_tokens();
        let slo = &run.latency.overall.slo;
        let (event_proposed_tokens, event_accepted_tokens, event_accept_violations) =
            fold_finished(&run.events);
        let workers = run.report.per_worker.len();
        let mut worker_requests = vec![0usize; workers];
        for &(_, w) in &run.report.assignments {
            worker_requests[w] += 1;
        }
        LoadBenchRow {
            process: process.to_string(),
            offered_rate,
            method: method.to_string(),
            policy: "static".to_string(),
            tick_capacity: None,
            workers,
            route: route.to_string(),
            worker_requests,
            parity: true,
            requests: run.report.completions.len(),
            tokens,
            ticks: stats.ticks,
            idle_ticks_skipped: stats.idle_ticks_skipped,
            tokens_per_tick: tokens as f64 / (stats.ticks.max(1)) as f64,
            tokens_per_step: tokens as f64 / steps.max(1) as f64,
            quantiles: run.latency.overall.quantiles,
            peak_resident_sessions: stats.peak_resident_sessions,
            slo_attainment: slo.attainment(),
            deadlines: slo.deadlines,
            deadlines_met: slo.met,
            acceptance_rate: run.latency.overall.acceptance.rate(),
            shed_requests: stats.shed_requests,
            deferred_steps: stats.deferred_steps,
            prefix_hits: stats.prefix_hits,
            prefix_misses: stats.prefix_misses,
            prefix_hit_rate: prefix_hit_rate(stats),
            prefix_tokens_saved: stats.prefix_tokens_saved,
            prefix_evictions: stats.prefix_evictions,
            peak_resident_nodes: stats.peak_resident_nodes,
            event_proposed_tokens,
            event_accepted_tokens,
            event_accept_violations,
            threaded_parity: None,
            worker_crashes: stats.crashes,
            migrations: stats.migrations,
            replay_tokens: stats.replayed_tokens,
            recovery_ttft_p99: recovery_ttft_p99(run),
        }
    }

    /// Records on a dispatched row whether the threaded runtime
    /// reproduced the lockstep run exactly (callers assert parity
    /// *before* recording, so an honest artifact always passes `true`).
    pub fn with_threaded(mut self, parity: bool) -> Self {
        self.threaded_parity = Some(parity);
        self
    }
}

/// Exact p99 TTFT over the fault-affected completions of a run:
/// requests the event stream saw migrated off a crashed worker or
/// deferred under whole-fleet backpressure. `None` when no completion
/// was fault-affected.
fn recovery_ttft_p99(run: &LoadRunReport) -> Option<f64> {
    let affected: std::collections::BTreeSet<u64> = run
        .events
        .iter()
        .filter(|ev| {
            matches!(
                ev.kind,
                EventKind::Migrated { .. } | EventKind::Backpressure
            )
        })
        .filter_map(|ev| ev.request)
        .collect();
    let ttfts: Vec<f64> = run
        .report
        .completions
        .iter()
        .filter(|c| affected.contains(&c.id))
        .filter_map(|c| {
            c.step_ticks
                .first()
                .map(|&t| t.saturating_sub(c.submitted) as f64)
        })
        .collect();
    (!ttfts.is_empty()).then(|| QuantileSummary::exact(&ttfts).p99)
}

/// `hits / (hits + misses)`, or `None` when the cache saw no
/// admissions (disabled, or the run had no fresh requests).
fn prefix_hit_rate(stats: &verispec_serve::ServeStats) -> Option<f64> {
    let total = stats.prefix_hits + stats.prefix_misses;
    (total > 0).then(|| stats.prefix_hits as f64 / total as f64)
}

/// Folds the event stream's per-request `Finished` events into
/// `(proposed, accepted, violations)`: lifetime candidate-token sums
/// plus the count of requests violating `accepted <= proposed`.
fn fold_finished(events: &[TraceEvent]) -> (usize, usize, usize) {
    let mut proposed_sum = 0;
    let mut accepted_sum = 0;
    let mut violations = 0;
    for ev in events {
        if let EventKind::Finished {
            proposed, accepted, ..
        } = ev.kind
        {
            proposed_sum += proposed;
            accepted_sum += accepted;
            if accepted > proposed {
                violations += 1;
            }
        }
    }
    (proposed_sum, accepted_sum, violations)
}
