//! # verispec-trace — deterministic structured tracing & metrics
//!
//! The observability layer of the serving stack. Engines, the fleet
//! runtime, and the load harness emit typed [`TraceEvent`]s at
//! every lifecycle transition into a [`TraceSink`]; everything else —
//! aggregate stats, the [`MetricsRegistry`], Chrome-trace exports,
//! flamegraph attribution, golden CI logs — is a **pure fold over
//! that one stream**, so no two views of a run can ever disagree.
//!
//! ```text
//!              ┌──────────────────────────────────────────────┐
//!              │  ServeEngine / FleetRuntime / load harness   │
//!              │   emit(TraceEvent { tick, worker, req, … })  │
//!              └────────────────┬─────────────────────────────┘
//!                               │  &dyn TraceSink (NoopSink default)
//!                ┌──────────────┴──────────────┐
//!                ▼                             ▼
//!          NoopSink (free)              EventLog (Vec<TraceEvent>)
//!                                              │
//!            ┌──────────────┬──────────────────┼──────────────────┐
//!            ▼              ▼                  ▼                  ▼
//!     MetricsRegistry   chrome_trace()   attribute_phases()   golden log
//!     counters/gauges/  chrome://tracing flamegraph frames    (CI diff)
//!     histograms        / Perfetto JSON  + slowest-phase table
//! ```
//!
//! ## Determinism contract
//!
//! Events are stamped **in tick space only** — the virtual clock that
//! every engine drive (batch, paced dispatch) advances
//! deterministically. No wall-clock value ever enters an event, so an
//! [`ArrivalTrace`](../verispec_load/trace/struct.ArrivalTrace.html)
//! replay produces a **byte-identical** serialized log
//! ([`log_to_json`]) on every run and every machine. CI commits golden
//! event logs next to the golden trace corpus and replays them
//! byte-for-byte; when a change moves latency, the log diff shows
//! *which phase of which request on which worker* moved.
//!
//! Tracing is strictly write-only: sinks cannot observe or mutate
//! engine state, and the default [`NoopSink`] reports itself
//! [`disabled`](TraceSink::enabled) so instrumented hot paths skip
//! building allocation-carrying events entirely. Every bit-identity
//! parity suite therefore runs the exact pre-tracing code path.
//!
//! ## Event schema
//!
//! A [`TraceEvent`] is an envelope — `tick` (virtual clock), `worker`
//! (fleet index), `request` (if request-scoped) — around an
//! [`EventKind`]:
//!
//! | Kind | Emitted when | Key payload |
//! |------|--------------|-------------|
//! | `Submitted` | request enters the admission queue | arrival, prompt length, deadline |
//! | `CacheLookup` | admission-time prefix-cache walk | hit, depth, tokens saved |
//! | `Admitted` | request leaves the queue | queued ticks, warm-until tick |
//! | `Deferred` | verify budget pushes a step | — |
//! | `Step` | one committed decode step | policy [`SpecShape`](verispec_core::SpecShape), proposed/accepted/committed |
//! | `PrefixEvicted` | session-cap eviction of an LRU prefix-cache leaf | — |
//! | `Shed` | admission control drops the request | arrival, deadline |
//! | `Finished` | request completes | tokens, steps, lifetime proposed/accepted |
//! | `Deadline` | finish of an SLO request | deadline, met |
//! | `IdleSkip` | engine fast-forwards an idle gap | ticks skipped |
//! | `Batch` | per-tick batch composition | stepped request ids |
//! | `TickBudget` | per-tick budget consumption | capacity, spent, deferred |
//! | `Routed` | fleet routing decision | policy name, per-worker probes |
//!
//! The per-request invariant `accepted <= proposed` holds on
//! `Finished` (lifetime acceptance-history sums); `Step.accepted`
//! counts committed tokens including the guaranteed base/bonus token
//! and so may exceed `Step.proposed` by one.
//!
//! ## Worked example: viewing a run in Perfetto
//!
//! Capture a fleet run and export it:
//!
//! ```rust,ignore
//! use verispec_trace::chrome_trace;
//!
//! let run = FleetRuntime::new(&model, cfg, 4, route, Backend::Lockstep)
//!     .with_tracing()
//!     .run(Drive::Paced(requests), &cost);
//! std::fs::write("run.trace.json", chrome_trace(&run.events))?;
//! ```
//!
//! (or run `cargo run -p verispec-eval --bin trace_view -- events.json
//! --chrome run.trace.json` on a saved event log). Then open
//! <https://ui.perfetto.dev> (or `chrome://tracing` in Chromium) and
//! drag `run.trace.json` in. You'll see one **process per worker**
//! (`worker 0` … `worker 3`), one **track per request**, and on each
//! track the nested spans `request` ▸ `queued` / `decode` ▸ `warmup`,
//! with `step` instants carrying the policy-decided shape
//! and acceptance in their args, `routed` instants carrying the probe
//! values that justified the placement, and per-worker `batch` /
//! `budget` counter tracks. Timestamps are virtual-clock ticks
//! rendered as microseconds: a request that queued 3 ticks shows a
//! 3 µs `queued` span.
//!
//! The same log renders in the terminal via the `trace_view` bin, and
//! [`attribute_phases`] + [`render_flame`] produce collapsed-stack
//! frames (`request;decode;warmup`) for flamegraph tooling.

#![deny(missing_docs)]

pub mod chrome;
pub mod event;
pub mod registry;
pub mod report;
pub mod sink;
pub mod timeline;

pub use chrome::chrome_trace;
pub use event::{canonicalize_fleet_events, log_from_json, log_to_json, EventKind, TraceEvent};
pub use registry::{Gauge, Histogram, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use report::{attribute_phases, render_flame, slowest_phases, PhaseCost, SlowPhase};
pub use sink::{EventLog, NoopSink, TraceSink, NOOP};
pub use timeline::{timelines, Phase, PhaseSpan, RequestTimeline};
