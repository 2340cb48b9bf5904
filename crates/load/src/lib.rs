//! `verispec-load`: open-loop load generation, streaming-admission
//! driving, and latency-percentile telemetry — the measurement layer of
//! the serving stack.
//!
//! # Why open-loop
//!
//! A throughput sweep answers "how fast does the engine chew through
//! a fixed batch?" — a *closed-loop* question: new work only appears
//! when old work finishes. Production traffic is *open-loop*: arrivals
//! come from independent users on their own clock, keep coming while
//! the server is busy, and the number that matters is **per-request
//! latency at a given offered load** — especially the tail (p99),
//! where queueing turns small throughput differences into large
//! waiting times. The "Speculative Decoding: Performance or Illusion?"
//! question from PAPERS.md is exactly this: single-stream speedups can
//! evaporate (or compound) once requests compete, so the paper's
//! Table II speed claims should be re-measured as TTFT/p99 at equal
//! offered load — which is what `BENCH_load.json` reports.
//!
//! # The serving stack
//!
//! ```text
//!   verispec-load                 verispec-serve              verispec-lm
//!   ─────────────                 ──────────────              ───────────
//!   ArrivalProcess ─┐
//!   (poisson/on-off/│ Workload::requests()
//!    ramp, seeded)  ├──────────► [Request; n] ─► run_fleet_open_loop
//!   RequestMix ─────┘  arrival ticks + mixes         (a configured
//!   (engine/family —     │ + deadlines                FleetRuntime +
//!    incl. Zipf shared   ▼ (deadline_slack)           the requests)
//!    stems — budget/  ArrivalTrace                        │
//!    sampling/slack)  (JSON record/replay,                ▼
//!                      bit-identical; CI       FleetRuntime::run(Drive::Paced)
//!                      replays tests/traces/)  — the one drive: each
//!                                              request routed when its
//!                                              arrival tick falls due
//!                                              (RoutePolicy: rr / jsq /
//!                                              least-loaded / pinned /
//!                                              prefix-affine, probing
//!                                              live queues and caches);
//!                                              one engine = the
//!                                              one-worker fleet
//!                                                  │
//!                                    ServeEngine tick loop (per worker)
//!                                    admission → PrefixCache (radix
//!                                      trie: fork deepest stem, ingest
//!                                      suffix only, insert-on-miss,
//!                                      cap-charged LRU eviction)
//!                                    → scheduler (EDF…) → shed overflow
//!                                    → SpecPolicy divides the
//!                                      per-tick verify capacity
//!                                    → fused propose/verify →
//!                                    commit (step_ticks)
//!                                                  │
//!                      the fleet spec carries the rest: an optional
//!                      FaultPlan (trace-specified CrashWorker/
//!                      RestartWorker ticks and per-tenant ClassShare
//!                      weighted-fair shares; on crash, stranded
//!                      requests re-route through the live Router and
//!                      rebuild by exact replay — token-identical to
//!                      the fault-free run; with the whole fleet dark,
//!                      arrivals defer under Backpressure and flush at
//!                      restart) and the backend:
//!                      ├─ Backend::Lockstep ── oracle (the calling
//!                      │   thread ticks every engine in rounds)
//!                      └─ Backend::Threaded ── true parallel runtime
//!                          (thread per worker, barrier-free drain)
//!                          — tick-for-tick identical reports (faults
//!                          included), asserted per cell and recorded
//!                          as the threaded_parity column
//!                                                  │
//!   LatencyReport ◄──────────── Completion{output, step_ticks, secs,
//!   queueing/TTFT/gaps/e2e,                deadline, proposed/accepted}
//!   exact p50/p90/p99                     (+ DispatchReport assignments)
//!   (LatencyQuantiles),
//!   SLO attainment + acceptance     LoadBenchRow (BENCH_load.json:
//!   per engine + per worker         serve-aware Table II, spec vs NTP
//!   (dispatcher-aware SLO),  ─────► at equal offered load + the policy
//!   PrefixCacheSummary              A/B static/adaptive/budgeted + the
//!   (hits/saved/depth hist)         dispatch sweep workers × route +
//!                                   the Zipf-stem cache sweep +
//!                                   event-derived acceptance columns)
//!
//!   verispec-trace ◄── every run: the driver turns tracing on, so
//!   tick-stamped TraceEvents       every LoadRunReport carries
//!   (submit/route/admit/step/      `events` next to the latency
//!    defer/evict/shed/finish/      telemetry → MetricsRegistry, Chrome
//!    batch/budget)                 trace export (`trace_view` bin),
//!                                  flame report, and the golden
//!                                  event-log CI replay
//!                                  (tests/traces/*.events.json)
//! ```
//!
//! * [`ArrivalProcess`] — seeded Poisson, bursty on/off, and ramp
//!   arrival processes over the virtual tick clock ([`VirtualClock`]
//!   quantizes continuous inter-arrival gaps to engine ticks without
//!   drift).
//! * [`Workload`] / [`RequestMix`] — draws each request's engine,
//!   prompt family, budget, and sampling from seeded distributions;
//!   [`Workload::requests_with_engine`] forces one engine while keeping
//!   arrivals/prompts/budgets/seeds identical — the equal-offered-load
//!   A/B.
//! * [`run_fleet_open_loop`] — the one driver: serves the workload
//!   through a configured [`verispec_serve::FleetRuntime`]'s paced
//!   drive and collects [`LatencyReport`]: per-request queueing delay,
//!   TTFT, per-token inter-commit gaps, and end-to-end latency in
//!   ticks, aggregated into exact-quantile p50/p90/p99 summaries
//!   ([`QuantileSummary`], grouped as [`LatencyQuantiles`])
//!   plus per-engine breakdowns. The fleet spec decides everything
//!   else: one worker or many, the backend
//!   ([`verispec_serve::Backend::Lockstep`] oracle or
//!   [`verispec_serve::Backend::Threaded`] thread-per-worker runtime —
//!   proptest-pinned bit-identical in tick space, so the backend
//!   changes nothing a report holds), prefix cache and warm stems,
//!   speculation policy, and an optional [`verispec_serve::FaultPlan`]
//!   (deterministic worker crash/restart schedules plus per-tenant
//!   weighted-fair shares). The realized routing joins back into a
//!   per-worker telemetry breakdown (each worker's [`SloSummary`]
//!   counts the deadlines *it* dropped, so bad routing shows up where
//!   it happened), and fault-injected cells grow recovery columns in
//!   `BENCH_load.json`: `worker_crashes` / `migrations` /
//!   `replay_tokens` / `recovery_ttft_p99` (exact p99 TTFT over the
//!   migrated or backpressure-deferred completions); `threaded_parity`
//!   records that the threaded backend reproduced the cell exactly.
//! * [`LoadBenchRow`] — one cell of the serve-aware Table II
//!   (single-engine, policy-A/B, and dispatch-sweep rows alike),
//!   including event-derived acceptance columns
//!   (`event_proposed_tokens` / `event_accepted_tokens` /
//!   `event_accept_violations`) folded from the run's `Finished`
//!   events — the sweep's gates cross-check them against the
//!   per-request `accepted <= proposed` invariant.
//! * **Event capture** — the driver runs its fleet with tracing on, so
//!   every [`LoadRunReport`] carries the run's full deterministic
//!   event stream: render it with the
//!   `trace_view` bin, export it with
//!   [`verispec_trace::chrome_trace`], or diff it against a committed
//!   golden log (`tests/event_log.rs` pins the `eviction_churn`
//!   trace's stream byte-for-byte; `tests/proptest_events.rs` pins
//!   stream determinism across runs and drives, and that collecting
//!   the stream has zero observer effect).
//!
//! # The invariant, extended
//!
//! Streaming admission inherits the serving invariant: per-request
//! outputs are bit-identical to batch submission *and* to the serial
//! single-session engines, under any arrival process, session cap, or
//! eviction pressure — and when every arrival is sent before its tick
//! falls due, the entire tick schedule (admissions, commit ticks,
//! latencies) matches the batch run too. `tests/proptest_streaming.rs`
//! pins both properties.
//!
//! # Example
//!
//! ```
//! use verispec_core::DecodeConfig;
//! use verispec_lm::{GpuCostModel, MlpLm, MlpLmConfig};
//! use verispec_load::{
//!     run_fleet_open_loop, ArrivalProcess, PromptFamily, RequestMix, Workload,
//! };
//! use verispec_serve::{Backend, EngineChoice, FleetRuntime, RoutePolicy, ServeConfig};
//!
//! let model = MlpLm::new(MlpLmConfig::tiny(16));
//! let workload = Workload {
//!     process: ArrivalProcess::Poisson { rate: 0.5 },
//!     mix: RequestMix {
//!         engines: vec![(EngineChoice::MedusaChain, 1.0), (EngineChoice::Ntp, 1.0)],
//!         families: vec![(
//!             PromptFamily { name: "tiny".into(), prompts: vec![(vec![1, 2], 6)] },
//!             1.0,
//!         )],
//!         greedy_fraction: 1.0,
//!         temperature: (0.4, 0.9),
//!         base: DecodeConfig::default(),
//!         deadline_slack: None,
//!     },
//!     count: 8,
//!     seed: 7,
//! };
//! let fleet = FleetRuntime::new(
//!     &model,
//!     ServeConfig::concurrency(4),
//!     1,
//!     RoutePolicy::RoundRobin,
//!     Backend::Lockstep,
//! );
//! let run = run_fleet_open_loop(fleet, workload.requests(), &GpuCostModel::codellama_like());
//! assert_eq!(run.report.completions.len(), 8);
//! assert_eq!(run.latency.overall.requests, 8);
//! ```

#![deny(missing_docs)]

pub mod clock;
pub mod generator;
pub mod report;
pub mod telemetry;
pub mod trace;

pub use clock::{LoadRng, VirtualClock};
pub use generator::{ArrivalProcess, PromptFamily, RequestMix, Workload};
pub use report::{run_fleet_open_loop, LoadBenchRow, LoadRunReport};
pub use telemetry::{
    per_token_gaps, AcceptanceSummary, LatencyQuantiles, LatencyReport, LatencySummary,
    PrefixCacheSummary, QuantileSummary, RequestLatency, SloSummary,
};
pub use trace::{ArrivalTrace, TraceEntry};
