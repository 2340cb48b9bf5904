//! The typed event schema: every observable lifecycle transition in
//! the serving stack, stamped in tick space.
//!
//! Events are a **pure function of the replayed workload**: they carry
//! virtual-clock ticks only (never wall-clock durations), so the same
//! [`ArrivalTrace`](../../verispec_load/trace/struct.ArrivalTrace.html)
//! replay produces a byte-identical event log on every run, on every
//! machine, under every drive (batch, streaming, paced dispatch). That
//! purity is what lets CI commit golden event logs and diff them.

use serde::{Deserialize, Serialize};
use verispec_core::SpecShape;

/// One structured trace event.
///
/// `tick` is the emitting worker's virtual clock at the moment of the
/// transition. `worker` identifies the engine in a fleet (0 for a
/// single engine). `request` is the request id the event concerns, or
/// `None` for engine-scoped events such as [`EventKind::IdleSkip`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Virtual-clock tick at which the transition happened.
    pub tick: u64,
    /// Worker (engine) index within the fleet; 0 for a single engine.
    pub worker: u32,
    /// Request the event concerns, if any.
    pub request: Option<u64>,
    /// What happened.
    pub kind: EventKind,
}

/// The lifecycle transition an event records.
///
/// Variants are grouped by the layer that emits them: request
/// lifecycle (engine admission queue), per-step decode, cache and
/// capacity pressure, and fleet-level dispatch. See the crate-level
/// docs for the full worked schema walkthrough.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A request entered the engine's admission queue.
    Submitted {
        /// Arrival tick from the workload (may predate the stamp when
        /// a paced drive delivers late).
        arrival: u64,
        /// Prompt length in tokens.
        prompt_tokens: usize,
        /// Absolute-deadline tick, if the request carries an SLO.
        deadline: Option<u64>,
    },
    /// The admission-time prefix-cache walk for a fresh request.
    CacheLookup {
        /// Whether a snapshot-bearing prefix matched.
        hit: bool,
        /// Depth (in tokens) of the deepest usable prefix.
        depth: usize,
        /// Prefill tokens skipped thanks to the hit (equals `depth`
        /// under whole-prefix reuse).
        tokens_saved: usize,
    },
    /// A fresh request left the queue and became active.
    Admitted {
        /// Ticks spent queued (stamp minus submission tick).
        queued_ticks: u64,
        /// Tick until which the request is prefill-warming.
        warm_until: u64,
    },
    /// A parked (preempted) request re-entered the active set.
    Resumed,
    /// The scheduler parked an active request to admit a starving one.
    Preempted,
    /// The per-tick verify budget deferred this request's step.
    Deferred,
    /// One committed decode step (propose → verify → commit).
    Step {
        /// The policy-decided speculation shape this step ran, if the
        /// engine speculates (`None` for plain next-token decode).
        shape: Option<SpecShape>,
        /// Candidate tokens proposed (speculated) this step.
        proposed: usize,
        /// Tokens accepted into the output this step (includes the
        /// guaranteed base/bonus token, so it may exceed `proposed`
        /// by one; the strict `accepted <= proposed` invariant lives
        /// on [`EventKind::Finished`]).
        accepted: usize,
        /// Accepted tokens dropped by the `max_tokens` clamp.
        truncated: usize,
        /// Tokens actually appended to the output.
        committed: usize,
    },
    /// Propose-time grammar pruning of one step's candidate tree (only
    /// emitted by grammar-constrained engines).
    GrammarPrune {
        /// Candidate tokens in the tree as built (viability-filtered).
        considered: usize,
        /// Candidate tokens cut as dead tails (past the last fragment
        /// boundary — they could never survive the post-hoc syntax
        /// check, so they are never verified).
        pruned: usize,
        /// Candidate tokens actually sent to verification.
        surviving: usize,
    },
    /// The LRU prefix-cache leaf was evicted under the session cap.
    PrefixEvicted,
    /// Admission control dropped the request (queue overflow past
    /// `shed_depth`).
    Shed {
        /// Arrival tick from the workload.
        arrival: u64,
        /// Absolute-deadline tick, if any.
        deadline: Option<u64>,
    },
    /// A request completed and left the engine.
    Finished {
        /// Generated tokens in the completion.
        tokens: usize,
        /// Decode steps the request ran.
        steps: usize,
        /// Lifetime speculated candidate tokens (acceptance-history
        /// numerator bound).
        proposed: usize,
        /// Lifetime accepted candidate tokens; always `<= proposed`.
        accepted: usize,
    },
    /// Deadline outcome, emitted at finish for SLO-carrying requests.
    Deadline {
        /// The absolute-deadline tick.
        deadline: u64,
        /// Whether the request finished at or before it.
        met: bool,
    },
    /// The engine fast-forwarded its clock over an idle gap.
    IdleSkip {
        /// Ticks skipped without stepping.
        skipped: u64,
    },
    /// Per-tick batch composition: the requests stepped this tick.
    Batch {
        /// Request ids fused into this tick's batched passes, in
        /// schedule order.
        requests: Vec<u64>,
    },
    /// Per-tick verify-budget consumption (only emitted when a
    /// `tick_capacity` budget is configured).
    TickBudget {
        /// Configured per-tick candidate budget.
        capacity: usize,
        /// Candidates actually spent this tick.
        spent: usize,
        /// Requests pushed to the next tick by the budget.
        deferred: usize,
    },
    /// A fleet routing decision, stamped at the fleet clock; `worker`
    /// on the envelope is the chosen worker.
    Routed {
        /// Route-policy name (`rr`, `jsq`, `least-loaded`, `pinned`,
        /// `prefix-affine`).
        policy: String,
        /// The per-worker probe values that justified the choice, in
        /// worker order: queue depths for `jsq`, outstanding
        /// speculation cost for `least-loaded`, prefix match depths
        /// for `prefix-affine`; empty when the policy probes nothing.
        probes: Vec<u64>,
    },
    /// A fault-plan crash killed the worker on the envelope: its
    /// in-flight and queued requests were extracted for migration and
    /// its engine state was wiped. Stamped at the fleet clock.
    WorkerCrashed {
        /// Requests (in-flight + queued) extracted for migration.
        in_flight: usize,
    },
    /// A fault-plan restart brought the worker on the envelope back
    /// into the routable set (cold: empty queue, empty caches).
    WorkerRestarted,
    /// A request stranded by a crash was re-routed to a live worker
    /// and rebuilt there by exact replay (fresh re-ingestion of the
    /// full prompt; deterministic decode regenerates the same tokens).
    /// `worker` on the envelope is the destination.
    Migrated {
        /// The crashed worker the request was extracted from.
        from: u32,
        /// The live worker it was re-routed to.
        to: u32,
        /// Tokens the request had already generated on the dead
        /// worker — work the replay re-does.
        replay_tokens: usize,
    },
    /// The dispatcher deferred an arrival because no live worker could
    /// accept it (every worker crashed and not yet restarted); the
    /// request is parked fleet-side and re-routed on the next restart.
    Backpressure,
}

impl EventKind {
    /// Whether this event is emitted by the fleet coordinator (routing
    /// and fault-plan transitions) rather than by a worker engine.
    /// Coordinator events form one serial stream in both the lockstep
    /// and threaded drives, which is why
    /// [`canonicalize_fleet_events`] keeps them in emission order
    /// ahead of the per-worker groups.
    pub fn is_fleet_event(&self) -> bool {
        matches!(
            self,
            EventKind::Routed { .. }
                | EventKind::WorkerCrashed { .. }
                | EventKind::WorkerRestarted
                | EventKind::Migrated { .. }
                | EventKind::Backpressure
        )
    }
}

impl TraceEvent {
    /// Builds an event; mirrors the struct literal, for call sites
    /// that prefer a constructor.
    pub fn new(tick: u64, worker: u32, request: Option<u64>, kind: EventKind) -> Self {
        TraceEvent {
            tick,
            worker,
            request,
            kind,
        }
    }
}

/// Serializes an event log to deterministic, pretty-printed JSON.
///
/// Field order follows struct declaration order and map insertion
/// order (the vendored serde preserves both), so equal logs produce
/// byte-equal strings — the property the golden event-log CI step and
/// the determinism proptests pin.
pub fn log_to_json(events: &[TraceEvent]) -> String {
    serde_json::to_string_pretty(&events.to_vec()).expect("event logs serialize infallibly")
}

/// Parses an event log serialized by [`log_to_json`].
pub fn log_from_json(s: &str) -> Result<Vec<TraceEvent>, serde_json::Error> {
    serde_json::from_str(s)
}

/// Rewrites a fleet event stream into its *canonical* order, the form
/// under which the lockstep and threaded dispatch drives are compared:
/// all coordinator events ([`EventKind::is_fleet_event`] — routing
/// decisions and fault-plan transitions) first, in emission order
/// (they are coordinator-serial decisions in both drives), followed
/// by every other event grouped by worker id ascending, preserving
/// each worker's own emission order.
///
/// Why this form: a lockstep fleet interleaves all workers' events
/// into one shared sink in tick-round order, while the threaded fleet
/// collects one log per worker thread and concatenates them. The two
/// interleavings differ (a `Routed` event stamped at the fleet clock
/// can legally precede *or* follow a lagging worker's same-tick
/// events) but the per-worker subsequences — and the routing
/// subsequence — are each deterministic. Canonicalizing both sides
/// makes "event-for-event identical" well-defined without imposing a
/// fake total order on concurrent workers.
pub fn canonicalize_fleet_events(events: &[TraceEvent]) -> Vec<TraceEvent> {
    let mut canonical = Vec::with_capacity(events.len());
    let mut per_worker: std::collections::BTreeMap<u32, Vec<TraceEvent>> =
        std::collections::BTreeMap::new();
    for ev in events {
        if ev.kind.is_fleet_event() {
            canonical.push(ev.clone());
        } else {
            per_worker.entry(ev.worker).or_default().push(ev.clone());
        }
    }
    for (_, worker_events) in per_worker {
        canonical.extend(worker_events);
    }
    canonical
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::new(
                0,
                0,
                Some(7),
                EventKind::Submitted {
                    arrival: 0,
                    prompt_tokens: 4,
                    deadline: Some(40),
                },
            ),
            TraceEvent::new(
                1,
                0,
                Some(7),
                EventKind::CacheLookup {
                    hit: true,
                    depth: 2,
                    tokens_saved: 2,
                },
            ),
            TraceEvent::new(
                3,
                1,
                Some(7),
                EventKind::Step {
                    shape: Some(SpecShape::Tree {
                        widths: vec![2, 1],
                        depth: 2,
                    }),
                    proposed: 3,
                    accepted: 2,
                    truncated: 0,
                    committed: 2,
                },
            ),
            TraceEvent::new(9, 1, None, EventKind::IdleSkip { skipped: 4 }),
        ]
    }

    #[test]
    fn json_round_trip_is_identity() {
        let events = sample();
        let json = log_to_json(&events);
        let back = log_from_json(&json).expect("parse");
        assert_eq!(events, back);
        // Serialization is deterministic: re-serializing the parsed
        // log reproduces the exact bytes.
        assert_eq!(json, log_to_json(&back));
    }

    #[test]
    fn canonicalization_groups_by_worker_and_keeps_routing_order() {
        let routed = |tick: u64, worker: u32, id: u64| {
            TraceEvent::new(
                tick,
                worker,
                Some(id),
                EventKind::Routed {
                    policy: "jsq".into(),
                    probes: vec![0, 1],
                },
            )
        };
        let idle = |tick: u64, worker: u32| {
            TraceEvent::new(tick, worker, None, EventKind::IdleSkip { skipped: 1 })
        };
        // A lockstep-style interleaving: worker 1's tick-2 event lands
        // between the two routing decisions, worker 0 lags behind.
        let interleaved = vec![
            routed(2, 0, 7),
            idle(2, 1),
            routed(2, 1, 8),
            idle(1, 0),
            idle(3, 1),
        ];
        // The threaded-style merge of the same run: routing stream
        // first, then each worker's own stream, by worker id.
        let merged = vec![
            routed(2, 0, 7),
            routed(2, 1, 8),
            idle(1, 0),
            idle(2, 1),
            idle(3, 1),
        ];
        assert_eq!(
            canonicalize_fleet_events(&interleaved),
            canonicalize_fleet_events(&merged)
        );
        // The merged form is already canonical (a fixed point).
        assert_eq!(canonicalize_fleet_events(&merged), merged);
    }
}
