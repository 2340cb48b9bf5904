//! `verispec-serve`: continuous-batching multi-request serving over
//! [`verispec_lm::DecodeSession`].
//!
//! # Serving architecture
//!
//! The single-request engines in `verispec-core` drive one session per
//! generation. Under realistic serving load, that leaves the model
//! kernels starved: every request pays its own small trunk/head matmul
//! per decoding step, and speculative-decoding speedups measured on a
//! single stream can evaporate once requests compete (the
//! "Performance or Illusion?" concern). This crate adds the request
//! level:
//!
//! ```text
//!   FleetRuntime (runtime) ── the one fleet spec and the one drive:
//!   model + ServeConfig + workers + RoutePolicy + Backend, optional
//!   grammar / policy / warm stems / tracing / FaultPlan;
//!   run(Drive::{Batch,Paced,Streaming}, cost) builds the backend,
//!   drives it, drains it and merges per-worker reports — the only way
//!   to serve requests through a fleet
//!                        │
//!   Drive::Batch   ─► Fleet<B>: Router ── RoutePolicy (rr / jsq by
//!   Drive::Paced      (one generic        ready_depth / least-loaded by
//!   Drive::Streaming   drive + merge)     outstanding_cost / prefix-
//!   (mpsc arrivals)      │                affine by prefix_match_depth
//!                        │                probes / pinned replay; dead
//!                        │                workers masked while crashed)
//!                        │ one shard per worker — two backends behind
//!                        │ the FleetBackend trait, static dispatch:
//!                        │  · Backend::Lockstep (the deterministic
//!                        │    oracle): the calling thread advances all
//!                        │    workers round by round
//!                        │  · Backend::Threaded: one OS thread per
//!                        │    worker in thread::scope, a private
//!                        │    command/reply mpsc protocol (Submit/
//!                        │    Tick/Probe/Crash/Restart/Drain down;
//!                        │    Ticked/Probed/Crashed/Finished up);
//!                        │    barriers only at route-time probe
//!                        │    reads, fault round-trips, and the round
//!                        │    boundary, barrier-free free-run after
//!                        │    the last arrival — proptest-pinned
//!                        │    tick-identical to lockstep, fault-
//!                        │    injected runs included
//!                        ▼
//!   submit(Request) ───────────► ServeEngine (× N workers)       model
//!   (by the fleet's drive, or   queue ─► admission ─► active pool
//!    by hand: the bare engine  (requests, (arrival,    one Stepper
//!    is the reference the       shed       warmup,     per request
//!    fleet is compared to)      overflow)  LRU evict   (policy +
//!                                           = replay)    history)
//!                                               │
//!                                PrefixCache ◄──┘ lookup/insert per
//!                                (radix trie of   admission: fork the
//!                                 frozen session  deepest cached stem,
//!                                 snapshots, CoW  ingest only the
//!                                 forks, LRU      unmatched suffix,
//!                                 leaf eviction   snapshot new nodes
//!                                 charged to      (hits skip warmup
//!                                 session_cap)    under ingest_rate)
//!                              ┌────────────────────────────┐
//!                       tick:  │ Scheduler.select ≤ batch   │
//!                              │  (RR/seeded/EDF/weighted   │
//!                              │   + aging guard)           │
//!                              │ SpecPolicy divides the     │ ShapeQuery{base,
//!                              │  per-tick verify capacity ─┼─ history, cap} →
//!                              │  (pin shape / defer)       │ SpecShape per req
//!                              │ fused propose (base rows,  │
//!                              │  activations kept) ────────┼─► MlpLm::infer
//!                              │  └ GrammarOracle: base     │   (grammar layer:
//!                              │    token kept viable       │    verispec-grammar)
//!                              │ fused verify, per level:   │
//!                              │ ┌► plan frontier (roots,   │   (each one call of
//!                              │ │   then accepted edges'   │    the packed kernel
//!                              │ │   children) + the head   │    into the tick's
//!                              │ │   row naming the level   │    LogitsArena, input-
//!                              │ │   below ─────────────────┼─► verify_many
//!                              │ │  accept on the new rows, │    sharded when big:
//!                              │ └─ read as arena row views │    2–3 passes a tick,
//!                              │    until no member asks    │    a few nodes and one
//!                              │ per-request commit         │    head row per member,
//!                              │  └ step_ticks, span from   │    not its tree nor
//!                              │    the accepted edges      │    all its heads)
//!                              └────────────────────────────┘
//!                                     │ done
//!                                     ▼
//!                   Completion{output, step_ticks, deadline,
//!                              proposed/accepted tokens, stats}
//!
//!   every transition above ───► &dyn TraceSink (verispec-trace)
//!   (submit / route+probes /     ├ NoopSink (default): zero-cost,
//!    cache walk / admit /        │  the bit-identity parity paths
//!    step+shape / defer /        │  run the exact untraced code
//!    evict / shed /              └ EventLog: tick-stamped TraceEvents
//!    finish / deadline / batch /    → MetricsRegistry, Chrome trace
//!    budget / idle-skip)            export, flame report, golden CI
//!                                   event logs (ServeStats itself is
//!                                   folded from the same events)
//! ```
//!
//! * **[`Request`]** — prompt, per-request engine choice
//!   ([`EngineChoice`]: NTP / MEDUSA chain / tree / syntax-aligned /
//!   grammar-tree — the paper's three methods plus the grammar layer
//!   on "Ours"), decode budgets, arrival tick, and an
//!   optional SLO deadline tick. Grammar-tree requests run against the
//!   engine's shared [`verispec_grammar::GrammarOracle`]
//!   ([`ServeEngine::with_grammar`]): each reached node of a candidate
//!   tree is given the viable continuations of its own lexer state as
//!   children, level by level as acceptance reaches it, each step's
//!   filter accounting (tokens tested, rejected, named) is emitted as a
//!   [`verispec_trace::EventKind::GrammarPrune`] event, and the step is
//!   charged the shape the per-tick capacity pass priced.
//! * **[`Scheduler`]** — selects each tick's batch under a fairness
//!   policy ([`TickOrder`], including earliest-deadline-first for
//!   SLO-carrying requests), with an aging guard that bounds every
//!   request's service gap by its forcing threshold plus a few
//!   rotations (no starvation under *any* order, including streaming
//!   admission — arrivals join the same queue the guard covers).
//! * **The speculation-policy layer** (`verispec-core::policy`) — each
//!   tick, *how much speculation to buy per request* is a
//!   [`verispec_core::SpecPolicy`] decision, not a frozen config:
//!   under a per-tick verify capacity
//!   ([`ServeConfig::tick_capacity`] or the policy's own
//!   `tick_budget`) the engine walks the scheduler's order, queries
//!   the policy with each request's own acceptance history and the
//!   remaining budget, pins the decided shape on the stepper, and
//!   defers requests that do not fit (head-of-order always steps, so
//!   the no-starvation bound survives). Static = configured shapes,
//!   bit-identical to the pre-policy engine; adaptive = pure function
//!   of the request's history (served == serial, proptest-pinned);
//!   budgeted = shrink-to-fit packing. Load-shedding admission
//!   control ([`ServeConfig::shed_depth`]) rejects ready-queue
//!   overflow newest-first, deterministically on both the batch and
//!   streaming paths.
//! * **[`ServeEngine`]** — the tick loop. The batch's propose phase
//!   (each member's base row, its trunk activation kept for the tick)
//!   is fused across requests into one
//!   [`verispec_lm::MlpLm::infer`] pass, and its verify phase
//!   into one [`verispec_lm::verify_many`] pass **per level** of the
//!   candidate trees: every member plans its root, one pass scores
//!   them all, each member runs acceptance on its rows and plans only
//!   the children of the edges it accepted, the next pass scores
//!   those, until no member asks for more. A Medusa head is evaluated
//!   — from the kept activation, by the pass that forwards the level
//!   above — only when acceptance reaches the level it names. All passes are the same
//!   packed kernel a lone session calls, writing one engine-owned
//!   [`verispec_lm::LogitsArena`] that steppers read back as borrowed
//!   row views — so concurrent generations share each pass instead of
//!   issuing one small batch each, and a tick forwards what its
//!   members' accepted prefixes cost, not what their trees would.
//!   Requests may be submitted between any two ticks
//!   ([`Drive::Paced`] / [`Drive::Streaming`] do, so open-loop
//!   arrivals join mid-flight); a
//!   memory budget ([`ServeConfig::session_cap`]) LRU-evicts cached
//!   prefix snapshots through the exact-replay path so thousands of
//!   distinct prompts cannot grow the session pool unboundedly; and
//!   per-request commit ticks plus wall timestamps land in
//!   [`Completion`] for the latency telemetry in `verispec-load`.
//! * **[`PrefixCache`]** (`prefix`) — the fleet-wide prefix cache:
//!   a copy-on-write radix trie over token prefixes whose nodes own
//!   frozen [`verispec_lm::SnapshotSession`] snapshots. When
//!   [`ServeConfig::prefix_cache`] is on, admission walks the trie to
//!   the deepest cached match, forks that snapshot, and ingests only
//!   the unmatched suffix — O(prompt) prefill becomes O(suffix) on a
//!   hit, which [`ServeConfig::ingest_rate`] makes visible in tick
//!   space (hits skip warmup ticks). Misses insert new snapshots
//!   (split-on-divergence); residency is charged against
//!   [`ServeConfig::session_cap`] and evicted LRU-leaf-first by exact
//!   replay, so a later miss rebuilds bit-identically. It is the one
//!   way a session is reused across requests: every session the
//!   engine steps is one it opened itself. [`ServeEngine::warm_prefix`] seeds a
//!   stem; [`ServeEngine::prefix_match_depth`] is the read-only probe
//!   prefix-affine routing reads.
//! * **[`FleetRuntime`]** (`runtime`) — the fleet spec and the one way
//!   to serve requests to completion: pick the backend
//!   ([`Backend::Lockstep`] / [`Backend::Threaded`]) at construction,
//!   the drive as a value ([`Drive::Batch`] — everything routed up
//!   front; [`Drive::Paced`] — each request routed when its arrival
//!   tick falls due; [`Drive::Streaming`] — routed as received from an
//!   `mpsc` channel), and optionally install a [`FaultPlan`] —
//!   deterministic, trace-specified [`FaultEvent::CrashWorker`] /
//!   [`FaultEvent::RestartWorker`] events plus per-tenant
//!   [`ClassShare`] weighted-fairness shares. On a crash every
//!   in-flight and queued request migrates to surviving workers by
//!   exact replay (outputs stay token-identical to the fault-free
//!   run); with the whole fleet dead, arrivals defer under
//!   backpressure until a restart (or shed deterministically). One
//!   engine is the one-worker fleet. The spec is applied to an engine
//!   in one function, both backends run under one generic drive and
//!   one report merge, so a parity claim proved for one route holds
//!   for all of them, and fault-injected runs inherit the
//!   threaded == lockstep guarantee.
//! * **Routing** (`dispatch`) — arrivals are *routed* across the N
//!   independent engines ([`RoutePolicy`]: round-robin,
//!   join-shortest-queue by [`ServeEngine::ready_depth`],
//!   join-least-loaded by [`ServeEngine::outstanding_cost`] — the
//!   speculation policy's price of each worker's in-flight work —
//!   cache-aware prefix-affine, which probes every worker's prefix
//!   cache with [`ServeEngine::prefix_match_depth`] and routes to the
//!   deepest match so repeat stems land where their snapshots live, or
//!   a pinned replay of a recorded assignment). Each worker owns its
//!   session pool and tick loop and serves its shard exactly as a
//!   standalone engine, so dispatch adds routing without touching
//!   serving semantics; [`DispatchReport`] carries merged plus
//!   per-worker [`ServeStats`] and the realized assignment.
//! * **The two backends** (`dispatch`, `threaded`; crate-private) —
//!   lockstep ticks the engines in place, round by round, and is the
//!   oracle; threaded gives each worker an OS thread inside
//!   `std::thread::scope`, its engine built in-thread (engines hold
//!   live sessions and are not `Send`) with its own
//!   [`verispec_trace::EventLog`]. Synchronization exists only where
//!   the lockstep semantics require it: route-time probe round-trips
//!   for load-aware policies and one tick barrier per round while
//!   arrivals can still come; after the last arrival (and for the
//!   whole batch drive) workers free-run barrier-free. Reports are
//!   bit-identical across backends and [`FleetRun::events`] arrives in
//!   the same canonical order
//!   ([`verispec_trace::canonicalize_fleet_events`]) from both
//!   (`tests/proptest_dispatch_threaded.rs`, and the drive matrix in
//!   `tests/proptest_dispatch.rs`).
//! * **Structured tracing** (`verispec-trace`) — every lifecycle
//!   transition (submission, routing decision with its probe values,
//!   cache walk, admission, per-step propose/verify/commit with the
//!   policy-decided shape, deferral, eviction, shed,
//!   finish, deadline outcome, per-tick batch composition and budget
//!   consumption) is emitted as a tick-stamped
//!   [`verispec_trace::TraceEvent`] into the engine's
//!   [`verispec_trace::TraceSink`] ([`ServeEngine::with_sink`] /
//!   [`FleetRuntime::with_tracing`]; the no-op default keeps the
//!   untraced hot path bit-identical). [`ServeStats`] counters with
//!   event-stream equivalents are folded from those same events in
//!   one place (`ServeStats::apply_event`), so the counters, the
//!   metrics registry, and the exported Chrome trace can never
//!   disagree about a run.
//!
//! # The invariant
//!
//! Serving is a **performance mechanism, never a semantic one**: every
//! request's token stream is bit-identical to running the serial
//! single-session engine (`decode_ntp` / `decode_speculative` /
//! `decode_grammar_speculative`) on it alone — for greedy decoding and
//! seeded sampling alike, under any scheduler order, batch size or
//! prefix-cache state. Three layers guarantee it:
//! the steppers are the *same code* the serial engines run; the fused
//! kernels are bit-identical per input regardless of batch
//! composition; and each request owns its sampler and sessions, so
//! scheduling cannot perturb its randomness. `tests/proptest_serve.rs`
//! pins the property over random request mixes, engines, seeds, tick
//! orders, and session caps, along with the no-starvation bound;
//! `tests/proptest_policy.rs` extends it to adaptive speculation
//! (decisions are pure functions of each request's own history, so
//! served == the serial policy-driven engine under eviction too);
//! `verispec-load`'s streaming proptest additionally pins
//! [`Drive::Streaming`] == batch submission under random arrival
//! processes, capacities, deadlines, and eviction pressure.
//! The one deliberate exception is
//! [`verispec_core::BudgetedPolicy`]: its shrink-to-fit shapes depend
//! on batch composition, so *sampled* outputs may differ from the
//! serial run — it trades that for packing the tick under overload
//! (greedy requests stay lossless under any shape).
//!
//! # Example
//!
//! ```
//! use verispec_core::DecodeConfig;
//! use verispec_lm::{GpuCostModel, MlpLm, MlpLmConfig};
//! use verispec_serve::{
//!     Backend, Drive, EngineChoice, FleetRuntime, Request, RoutePolicy, ServeConfig,
//! };
//!
//! let model = MlpLm::new(MlpLmConfig::tiny(16));
//! let cfg = DecodeConfig { max_tokens: 8, ..Default::default() };
//! let requests = vec![
//!     Request::new(0, vec![1, 2], EngineChoice::MedusaChain, cfg.clone()),
//!     Request::new(1, vec![3], EngineChoice::Ntp, cfg),
//! ];
//! let serve = |backend| {
//!     FleetRuntime::new(
//!         &model,
//!         ServeConfig::concurrency(2),
//!         2,
//!         RoutePolicy::RoundRobin,
//!         backend,
//!     )
//!     .run(Drive::Batch(requests.clone()), &GpuCostModel::codellama_like())
//!     .report
//! };
//! let lockstep = serve(Backend::Lockstep);
//! assert_eq!(lockstep.completions.len(), 2);
//! assert!(serve(Backend::Threaded).same_schedule(&lockstep));
//! ```

#![deny(missing_docs)]

pub mod dispatch;
pub mod engine;
pub mod prefix;
pub mod request;
pub mod runtime;
pub mod scheduler;
mod threaded;

pub use dispatch::{DispatchReport, RoutePolicy};
pub use engine::{ServeConfig, ServeEngine, ServeReport, ServeStats, ShedRequest};
pub use prefix::PrefixCache;
pub use request::{Completion, EngineChoice, Request};
pub use runtime::{Backend, ClassShare, Drive, FaultEvent, FaultPlan, FleetRun, FleetRuntime};
pub use scheduler::{ActiveView, Scheduler, TickOrder};

#[cfg(test)]
mod tests {
    use super::*;
    use verispec_core::{decode_ntp, decode_speculative, DecodeConfig, Engine, Stepper};
    use verispec_lm::{GpuCostModel, LanguageModel, MlpLm, MlpLmConfig, Sampling, TokenId};

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

    /// Serves `requests` to completion on one hand-driven engine.
    fn run_engine(
        model: &MlpLm,
        requests: Vec<Request>,
        cfg: &ServeConfig,
        cost: &GpuCostModel,
    ) -> ServeReport {
        let mut engine = ServeEngine::new(model, cfg.clone());
        for req in requests {
            engine.submit(req);
        }
        engine.run(cost)
    }

    /// Serves a pre-filled, closed channel through a one-worker fleet.
    fn stream_through_fleet(
        model: &MlpLm,
        requests: Vec<Request>,
        cfg: &ServeConfig,
        cost: &GpuCostModel,
    ) -> DispatchReport {
        let (tx, rx) = std::sync::mpsc::channel();
        for r in requests {
            tx.send(r).expect("receiver alive");
        }
        drop(tx);
        FleetRuntime::new(
            model,
            cfg.clone(),
            1,
            RoutePolicy::RoundRobin,
            Backend::Lockstep,
        )
        .run(Drive::Streaming(rx), cost)
        .report
    }

    fn mixed_requests(max_tokens: usize) -> Vec<Request> {
        let engines = [
            EngineChoice::Ntp,
            EngineChoice::MedusaChain,
            EngineChoice::MedusaTree(vec![2, 2]),
            EngineChoice::SyntaxAligned { tree: None },
            EngineChoice::SyntaxAligned {
                tree: Some(vec![2]),
            },
            // Without an oracle attached this degrades to plain
            // syntax-aligned speculation — the parity tests cover it.
            EngineChoice::GrammarTree {
                tree: Some(vec![2]),
            },
        ];
        engines
            .into_iter()
            .enumerate()
            .map(|(i, engine)| {
                let cfg = DecodeConfig {
                    max_tokens,
                    sampling: if i % 2 == 0 {
                        Sampling::Greedy
                    } else {
                        Sampling::temperature(0.7)
                    },
                    seed: i as u64 * 31 + 5,
                    ..Default::default()
                };
                Request::new(i as u64, vec![1 + i as TokenId, 2, 3], engine, cfg)
            })
            .collect()
    }

    fn serial_output(m: &MlpLm, req: &Request, cost: &GpuCostModel) -> Vec<TokenId> {
        match &req.engine {
            EngineChoice::Ntp => {
                decode_ntp(m, &req.prompt, &req.engine.decode_config(&req.cfg), cost).tokens
            }
            _ => {
                decode_speculative(m, &req.prompt, &req.engine.decode_config(&req.cfg), cost).tokens
            }
        }
    }

    #[test]
    fn served_outputs_match_serial_engines_exactly() {
        let m = model();
        let cost = GpuCostModel::codellama_like();
        let requests = mixed_requests(14);
        let expected: Vec<Vec<TokenId>> = requests
            .iter()
            .map(|r| serial_output(&m, r, &cost))
            .collect();
        for concurrency in [1usize, 3, 6] {
            let report = run_engine(
                &m,
                requests.clone(),
                &ServeConfig::concurrency(concurrency),
                &cost,
            );
            assert_eq!(report.completions.len(), requests.len());
            for (c, want) in report.completions.iter().zip(&expected) {
                assert_eq!(
                    &c.output.tokens, want,
                    "request {} diverged at concurrency {concurrency}",
                    c.id
                );
            }
        }
    }

    #[test]
    fn a_zero_pool_or_batch_is_served_as_one() {
        // A pool of zero never admits and a batch of zero never steps;
        // `ServeEngine::new` raises both to one.
        let m = model();
        let cost = GpuCostModel::codellama_like();
        let serve = |max_active: usize, max_batch: usize| {
            let cfg = ServeConfig {
                max_active,
                max_batch,
                ..Default::default()
            };
            let mut engine = ServeEngine::new(&m, cfg);
            let cfg = DecodeConfig {
                max_tokens: 4,
                eos: 999,
                ..Default::default()
            };
            engine.submit(Request::new(0, vec![1, 2, 3], EngineChoice::Ntp, cfg));
            let mut ticks = 0;
            while engine.tick(&cost) {
                ticks += 1;
                assert!(ticks < 100, "{max_active}/{max_batch} never finishes");
            }
            engine.run(&cost).completions[0].output.tokens.clone()
        };
        let want = serve(1, 1);
        assert_eq!(want.len(), 4);
        assert_eq!(serve(0, 1), want);
        assert_eq!(serve(1, 0), want);
    }

    #[test]
    fn threaded_worker_pool_matches_single_engine() {
        let m = model();
        let cost = GpuCostModel::codellama_like();
        let requests = mixed_requests(12);
        let single = run_engine(&m, requests.clone(), &ServeConfig::concurrency(6), &cost);
        let pooled = FleetRuntime::new(
            &m,
            ServeConfig::concurrency(3),
            3,
            RoutePolicy::RoundRobin,
            Backend::Threaded,
        )
        .run(Drive::Batch(requests), &cost)
        .report;
        assert_eq!(single.completions.len(), pooled.completions.len());
        for (a, b) in single.completions.iter().zip(&pooled.completions) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.output.tokens, b.output.tokens);
        }
    }

    #[test]
    fn streaming_admission_matches_batch_run_tick_for_tick() {
        let m = model();
        let cost = GpuCostModel::codellama_like();
        // Staggered arrivals, including a sparse gap the idle
        // fast-forward must bridge identically on both paths.
        let mut requests = mixed_requests(10);
        for (i, r) in requests.iter_mut().enumerate() {
            r.arrival = [0u64, 0, 3, 3, 40, 41][i % 6];
        }
        let cfg = ServeConfig {
            max_active: 3,
            max_batch: 2,
            ..Default::default()
        };
        let batch = run_engine(&m, requests.clone(), &cfg, &cost);
        let streamed = stream_through_fleet(&m, requests, &cfg, &cost);
        assert_eq!(batch.completions.len(), streamed.completions.len());
        for (a, b) in batch.completions.iter().zip(&streamed.completions) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.output.tokens, b.output.tokens);
            assert_eq!(a.output.trace, b.output.trace);
            assert_eq!(a.submitted, b.submitted);
            assert_eq!(a.admitted, b.admitted, "request {} admission tick", a.id);
            assert_eq!(a.finished, b.finished);
            assert_eq!(a.step_ticks, b.step_ticks, "request {} commit ticks", a.id);
        }
        assert_eq!(batch.stats.ticks, streamed.stats.ticks);
        assert!(
            streamed.stats.idle_ticks_skipped > 0,
            "the sparse tail must exercise the idle fast-forward"
        );
    }

    #[test]
    fn session_cap_evicts_idle_forks_without_changing_outputs() {
        let m = model();
        let cost = GpuCostModel::codellama_like();
        let shared: Vec<TokenId> = vec![1, 2, 3];
        let mk_requests = || -> Vec<Request> {
            (0..6u64)
                .map(|i| {
                    let mut prompt = shared.clone();
                    prompt.push(4 + (i % 3) as TokenId);
                    Request::new(
                        i,
                        prompt,
                        EngineChoice::SyntaxAligned { tree: None },
                        DecodeConfig {
                            max_tokens: 8,
                            seed: i,
                            ..Default::default()
                        },
                    )
                })
                .collect()
        };
        let (max_active, cap) = (2usize, 3usize);
        let run = |session_cap: Option<usize>| -> ServeReport {
            let cfg = ServeConfig {
                max_active,
                max_batch: 2,
                session_cap,
                prefix_cache: true,
                ..Default::default()
            };
            let mut engine = ServeEngine::new(&m, cfg);
            // The shared stem is warmed once; every request forks its
            // cached snapshot at admission and inserts its own leaf.
            assert!(engine.warm_prefix(&shared));
            for r in mk_requests() {
                engine.submit(r);
            }
            engine.run(&cost)
        };
        let unbounded = run(None);
        let capped = run(Some(cap));
        // The stem and three distinct leaves, two active steppers,
        // against a budget of 3: the cap must evict cached snapshots.
        assert_eq!(unbounded.stats.prefix_evictions, 0);
        assert!(
            capped.stats.prefix_evictions > 0,
            "cap must evict snapshots"
        );
        // The cap binds up to the admission transient: enforcing it
        // leaves at most `cap` resident (or only active steppers), and
        // an admission is read before the next enforcement — its
        // stepper plus the split node and leaf one insert may add.
        assert!(capped.stats.peak_resident_sessions <= cap.max(max_active - 1) + 3);
        assert!(capped.stats.peak_resident_sessions < unbounded.stats.peak_resident_sessions);
        for (a, b) in unbounded.completions.iter().zip(&capped.completions) {
            assert_eq!(a.output.tokens, b.output.tokens, "eviction changed output");
            assert_eq!(a.output.trace, b.output.trace);
        }
    }

    #[test]
    fn tick_capacity_defers_steps_but_static_outputs_never_change() {
        // Charging candidate tokens against a per-tick verify budget
        // changes *when* requests step, never *what* they generate:
        // under the static policy every request keeps its configured
        // shape and its token stream equals the serial engine's.
        let m = model();
        let cost = GpuCostModel::codellama_like();
        let requests: Vec<Request> = (0..6u64)
            .map(|i| {
                Request::new(
                    i,
                    vec![1 + (i % 4) as TokenId, 2],
                    EngineChoice::SyntaxAligned {
                        tree: Some(vec![2, 2]),
                    },
                    DecodeConfig {
                        max_tokens: 10,
                        sampling: if i % 2 == 0 {
                            verispec_lm::Sampling::Greedy
                        } else {
                            Sampling::temperature(0.7)
                        },
                        seed: i,
                        ..Default::default()
                    },
                )
            })
            .collect();
        let expected: Vec<Vec<TokenId>> = requests
            .iter()
            .map(|r| {
                decode_speculative(&m, &r.prompt, &r.engine.decode_config(&r.cfg), &cost).tokens
            })
            .collect();
        let free = run_engine(&m, requests.clone(), &ServeConfig::concurrency(6), &cost);
        let capped_cfg = ServeConfig {
            // Tree [2,2] over 3 heads costs 1 + 3·4 = 13 per step; a
            // budget of 16 fits one full tree per tick, so the rest of
            // the batch defers.
            tick_capacity: Some(16),
            ..ServeConfig::concurrency(6)
        };
        let capped = run_engine(&m, requests, &capped_cfg, &cost);
        assert!(
            capped.stats.deferred_steps > 0,
            "the budget must actually bind"
        );
        assert!(
            capped.stats.ticks > free.stats.ticks,
            "deferred steps stretch the schedule"
        );
        for (c, want) in capped.completions.iter().zip(&expected) {
            assert_eq!(&c.output.tokens, want, "request {} diverged", c.id);
        }
    }

    #[test]
    fn budgeted_policy_packs_the_tick_and_greedy_stays_lossless() {
        use verispec_core::BudgetedPolicy;
        // Same verify capacity, two allocation policies: static defers
        // whole requests, budgeted shrinks shapes to pack the tick.
        // Greedy speculation is lossless under any shape, so outputs
        // still equal the serial engine's token-for-token.
        let m = model();
        let cost = GpuCostModel::codellama_like();
        let requests: Vec<Request> = (0..6u64)
            .map(|i| {
                Request::new(
                    i,
                    vec![1 + (i % 4) as TokenId, 2],
                    EngineChoice::SyntaxAligned {
                        tree: Some(vec![2, 2]),
                    },
                    DecodeConfig {
                        max_tokens: 10,
                        seed: i,
                        ..Default::default()
                    },
                )
            })
            .collect();
        let expected: Vec<Vec<TokenId>> = requests
            .iter()
            .map(|r| {
                decode_speculative(&m, &r.prompt, &r.engine.decode_config(&r.cfg), &cost).tokens
            })
            .collect();
        let capacity = 16usize;
        let run_static = {
            let cfg = ServeConfig {
                tick_capacity: Some(capacity),
                ..ServeConfig::concurrency(6)
            };
            run_engine(&m, requests.clone(), &cfg, &cost)
        };
        let policy = BudgetedPolicy { per_tick: capacity };
        let run_budgeted = {
            let mut engine = ServeEngine::new(&m, ServeConfig::concurrency(6)).with_policy(&policy);
            for r in requests.clone() {
                engine.submit(r);
            }
            engine.run(&cost)
        };
        assert!(
            run_budgeted.stats.deferred_steps < run_static.stats.deferred_steps,
            "shrink-to-fit must pack more requests per tick ({} vs {})",
            run_budgeted.stats.deferred_steps,
            run_static.stats.deferred_steps
        );
        for (c, want) in run_budgeted.completions.iter().zip(&expected) {
            assert_eq!(
                &c.output.tokens, want,
                "greedy request {} must stay lossless under shrunk trees",
                c.id
            );
        }
    }

    #[test]
    fn adaptive_policy_served_equals_serial() {
        use verispec_core::AdaptivePolicy;
        // Adaptation is a pure function of the request's own history,
        // so the served run and the serial policy-driven engine make
        // identical per-step decisions — sampled requests included.
        let m = model();
        let cost = GpuCostModel::codellama_like();
        let policy = AdaptivePolicy::default();
        let requests: Vec<Request> = (0..5u64)
            .map(|i| {
                Request::new(
                    i,
                    vec![1 + (i % 4) as TokenId, 2, 3],
                    EngineChoice::SyntaxAligned {
                        tree: Some(vec![2, 2]),
                    },
                    DecodeConfig {
                        max_tokens: 14,
                        sampling: Sampling::temperature(0.8),
                        seed: 31 * i + 7,
                        ..Default::default()
                    },
                )
            })
            .collect();
        let expected: Vec<Vec<TokenId>> = requests
            .iter()
            .map(|r| {
                let engine = Engine::Medusa(r.engine.decode_config(&r.cfg));
                let mut st = Stepper::new(&m, engine, m.session(), &r.prompt).with_policy(&policy);
                while st.step(&cost) {}
                st.into_output().tokens
            })
            .collect();
        let mut engine = ServeEngine::new(&m, ServeConfig::concurrency(3)).with_policy(&policy);
        for r in requests {
            engine.submit(r);
        }
        let report = engine.run(&cost);
        for (c, want) in report.completions.iter().zip(&expected) {
            assert_eq!(&c.output.tokens, want, "request {} diverged", c.id);
        }
        // The report surfaces what the speculation cost and cashed.
        assert!(report.stats.proposed_tokens > 0);
        assert!(report
            .completions
            .iter()
            .all(|c| c.accepted_tokens <= c.proposed_tokens));
    }

    #[test]
    fn shed_depth_rejects_newest_overflow_identically_on_both_paths() {
        let m = model();
        let cost = GpuCostModel::codellama_like();
        // Ten immediate arrivals against one slot and a ready-queue
        // depth of 2: the newest overflow must be shed.
        let requests: Vec<Request> = (0..10u64)
            .map(|i| {
                Request::new(
                    i,
                    vec![1 + (i % 4) as TokenId, 2],
                    EngineChoice::MedusaChain,
                    DecodeConfig {
                        max_tokens: 6,
                        seed: i,
                        ..Default::default()
                    },
                )
            })
            .collect();
        let cfg = ServeConfig {
            max_active: 1,
            max_batch: 1,
            shed_depth: Some(2),
            ..Default::default()
        };
        let batch = run_engine(&m, requests.clone(), &cfg, &cost);
        assert!(batch.stats.shed_requests > 0, "overflow must shed");
        assert_eq!(
            batch.completions.len() + batch.shed.len(),
            requests.len(),
            "every request is either served or shed"
        );
        // Newest-first: the shed set is a suffix of the id space (all
        // arrivals share tick 0, so id breaks the tie).
        let min_shed = batch.shed.iter().map(|s| s.id).min().expect("nonempty");
        assert!(batch.completions.iter().all(|c| c.id < min_shed));
        // Streaming sheds the same requests at the same ticks.
        let streamed = stream_through_fleet(&m, requests, &cfg, &cost);
        assert_eq!(batch.shed, streamed.shed);
        for (a, b) in batch.completions.iter().zip(&streamed.completions) {
            assert_eq!(a.output.tokens, b.output.tokens);
            assert_eq!(a.step_ticks, b.step_ticks);
        }
    }

    #[test]
    fn edf_order_improves_deadline_attainment_under_pressure() {
        let m = model();
        let cost = GpuCostModel::codellama_like();
        // Eight long generations, one served at a time; the *latest*
        // submissions carry the tightest deadlines, so round-robin
        // (which serves in admission order) misses them while EDF
        // reorders to meet them.
        let mk_requests = || -> Vec<Request> {
            (0..8u64)
                .map(|i| {
                    Request::new(
                        i,
                        vec![1 + (i % 4) as TokenId, 2],
                        EngineChoice::Ntp,
                        DecodeConfig {
                            max_tokens: 8,
                            seed: i,
                            eos: 999,
                            ..Default::default()
                        },
                    )
                    .with_deadline(20 + 4 * (8 - i))
                })
                .collect()
        };
        let attainment = |order: TickOrder| -> usize {
            let cfg = ServeConfig {
                max_active: 8,
                max_batch: 2,
                order,
                ..Default::default()
            };
            let report = run_engine(&m, mk_requests(), &cfg, &cost);
            report
                .completions
                .iter()
                .filter(|c| c.met_deadline() == Some(true))
                .count()
        };
        let rr = attainment(TickOrder::RoundRobin);
        let edf = attainment(TickOrder::Edf);
        assert!(
            edf > rr,
            "EDF must meet more deadlines than round-robin ({edf} vs {rr})"
        );
    }

    #[test]
    fn weighted_fair_serves_the_largest_class_id_beside_class_zero() {
        // A class is a bare `u32` off the wire. Classes 0 (weight 3)
        // and `u32::MAX` (past the weights: weight 1), one request
        // each, one slot a tick: while both are active the heavy class
        // takes three slots of every four, and both run to completion.
        let m = model();
        let cost = GpuCostModel::codellama_like();
        let requests: Vec<Request> = [0, u32::MAX]
            .into_iter()
            .enumerate()
            .map(|(i, class)| {
                let cfg = DecodeConfig {
                    max_tokens: 30,
                    seed: i as u64,
                    eos: 999,
                    ..Default::default()
                };
                Request::new(i as u64, vec![1, 2], EngineChoice::Ntp, cfg).with_class(class)
            })
            .collect();
        let cfg = ServeConfig {
            max_active: 2,
            max_batch: 1,
            order: TickOrder::WeightedFair,
            class_weights: vec![3, 1],
            ..Default::default()
        };
        let report = run_engine(&m, requests, &cfg, &cost);
        assert_eq!(report.completions.len(), 2);
        let of = |id: u64| {
            report
                .completions
                .iter()
                .find(|c| c.id == id)
                .expect("served")
        };
        let (heavy, light) = (of(0), of(1));
        assert_eq!(heavy.output.tokens.len(), 30);
        assert_eq!(light.output.tokens.len(), 30);
        let light_meanwhile = light
            .step_ticks
            .iter()
            .filter(|&&t| t <= heavy.finished)
            .count();
        assert!(
            (9..=11).contains(&light_meanwhile),
            "the weight-1 class stepped {light_meanwhile} times beside the weight-3 class's 30"
        );
    }

    #[test]
    fn one_fused_batch_of_every_engine_equals_each_serial_engine() {
        // NTP, a lazily grown tree, an "Ours" chain, a grammar tree
        // (lazy too: each level's head evaluated from the activation
        // the fused propose kept, once acceptance reaches the level)
        // and a Medusa chain share every tick: one propose pass of base
        // rows, then one pass per level carrying the nodes and the head
        // rows that level's survivors asked for. Each member must equal
        // its own serial engine — tokens, steps and trace.
        use verispec_core::{decode_grammar_speculative, DecodeOutput};
        use verispec_grammar::GrammarOracle;
        let m = model();
        let cost = GpuCostModel::codellama_like();
        let bytes = (0..14usize)
            .map(|id| if id < 5 { Vec::new() } else { b"a".to_vec() })
            .collect();
        let oracle = GrammarOracle::new(bytes);
        let engines = [
            EngineChoice::Ntp,
            EngineChoice::MedusaTree(vec![3, 2, 2]),
            EngineChoice::SyntaxAligned { tree: None },
            EngineChoice::GrammarTree {
                tree: Some(vec![2, 2]),
            },
            EngineChoice::MedusaChain,
        ];
        for temperature in [None, Some(0.8f32), Some(2.5)] {
            let requests: Vec<Request> = engines
                .iter()
                .enumerate()
                .map(|(i, engine)| {
                    let cfg = DecodeConfig {
                        max_tokens: 16,
                        sampling: temperature.map_or(Sampling::Greedy, Sampling::temperature),
                        seed: i as u64 * 17 + 3,
                        ..Default::default()
                    };
                    Request::new(i as u64, vec![6 + i as TokenId, 7], engine.clone(), cfg)
                })
                .collect();
            let serial: Vec<DecodeOutput> = requests
                .iter()
                .map(|r| {
                    let cfg = r.engine.decode_config(&r.cfg);
                    match &r.engine {
                        EngineChoice::Ntp => decode_ntp(&m, &r.prompt, &cfg, &cost),
                        EngineChoice::GrammarTree { .. } => {
                            decode_grammar_speculative(&m, &oracle, &r.prompt, &cfg, &cost)
                        }
                        _ => decode_speculative(&m, &r.prompt, &cfg, &cost),
                    }
                })
                .collect();
            let mut engine =
                ServeEngine::new(&m, ServeConfig::concurrency(engines.len())).with_grammar(&oracle);
            for r in requests {
                engine.submit(r);
            }
            let report = engine.run(&cost);
            for (c, want) in report.completions.iter().zip(&serial) {
                assert_eq!(c.output.tokens, want.tokens, "request {} tokens", c.id);
                assert_eq!(c.output.steps, want.steps, "request {} steps", c.id);
                assert_eq!(c.output.trace, want.trace, "request {} trace", c.id);
                assert_eq!(c.output.clock, want.clock, "request {} clock", c.id);
            }
            let stats = report.stats;
            assert!(stats.fused_propose_positions > 0 && stats.fused_verify_calls > 0);
            // Head rows ride the verify passes without being forwards.
            // Greedy acceptance takes one edge out of a node, so a step
            // forwards its root and at most one node per token it
            // commits — never a row per head.
            if temperature.is_none() {
                let forwards: usize = serial.iter().map(|o| o.steps + o.tokens.len()).sum();
                assert!(stats.fused_verify_nodes <= forwards, "{stats:?}");
            }
            // Sampled or not, every step commits at least one token, so
            // root plus accepted edges stays under two nodes a token;
            // verifying whole candidate trees forwards 3.6.
            let tokens: usize = serial.iter().map(|o| o.tokens.len()).sum();
            assert!(stats.fused_verify_nodes <= 2 * tokens, "{stats:?}");
        }
    }

    #[test]
    fn a_queued_request_is_priced_as_it_will_run() {
        // `outstanding_cost` prices a queued request from the engine it
        // resolves to and an admitted one from its stepper; both read
        // the one configured-shape derivation, so admission cannot move
        // the price. A three-token prompt ingested a token a tick keeps
        // the request warming — admitted, not yet stepped — through the
        // tick that admits it.
        use verispec_grammar::GrammarOracle;
        let m = model();
        let cost = GpuCostModel::codellama_like();
        let bytes = (0..14usize)
            .map(|id| if id < 5 { Vec::new() } else { b"a".to_vec() })
            .collect();
        let oracle = GrammarOracle::new(bytes);
        let tree = Some(vec![2, 2]);
        let engines = [
            EngineChoice::Ntp,
            EngineChoice::MedusaChain,
            EngineChoice::MedusaTree(vec![2, 2]),
            EngineChoice::SyntaxAligned { tree: None },
            EngineChoice::SyntaxAligned { tree: tree.clone() },
            EngineChoice::GrammarTree { tree },
        ];
        let cfg = ServeConfig {
            ingest_rate: Some(1),
            ..ServeConfig::concurrency(1)
        };
        let budget = DecodeConfig {
            max_tokens: 9,
            ..Default::default()
        };
        for with_oracle in [true, false] {
            for choice in &engines {
                let mut engine = ServeEngine::new(&m, cfg.clone());
                if with_oracle {
                    engine = engine.with_grammar(&oracle);
                }
                engine.submit(Request::new(
                    0,
                    vec![6, 7, 8],
                    choice.clone(),
                    budget.clone(),
                ));
                let queued = engine.outstanding_cost();
                assert!(engine.tick(&cost));
                let stats = engine.stats();
                assert_eq!(stats.peak_active, 1, "{choice:?}: admitted");
                assert_eq!(stats.fused_verify_calls, 0, "{choice:?}: not stepped");
                let admitted = engine.outstanding_cost();
                assert_eq!(admitted, queued, "{choice:?} {with_oracle}");
            }
        }
    }

    #[test]
    fn a_batch_forwards_fewer_base_positions_than_it_takes_steps() {
        // Sixteen MEDUSA-style requests share every tick. A member
        // whose last span ended at a node its verification forwarded
        // opens its next step at that row and stays out of the tick's
        // fused propose pass — while what is verified, and everything
        // that is committed, is what a hand-driven batch that forwards
        // every base position (each step committed without the tick's
        // rows, so nothing is ever carried) verifies and commits.
        use verispec_core::{DecodeOutput, Phase};
        use verispec_lm::{verify_many, LogitsArena, VerifyPlan};
        let m = model();
        let cost = GpuCostModel::codellama_like();
        let requests: Vec<Request> = (0..16u64)
            .map(|i| {
                let engine = match i % 3 {
                    0 => EngineChoice::MedusaChain,
                    1 => EngineChoice::MedusaTree(vec![3, 2]),
                    _ => EngineChoice::SyntaxAligned {
                        tree: Some(vec![2, 2, 1]),
                    },
                };
                let cfg = DecodeConfig {
                    max_tokens: 20,
                    sampling: match i % 4 {
                        0 => Sampling::Greedy,
                        1 => Sampling::temperature(0.05),
                        2 => Sampling::temperature(0.8),
                        _ => Sampling::Temperature {
                            temperature: 0.8,
                            top_k: 3,
                        },
                    },
                    seed: 7 * i + 1,
                    ..Default::default()
                };
                Request::new(i, vec![5 + (i % 6) as TokenId, 7], engine, cfg)
            })
            .collect();

        // The reference batch: one fused propose pass over every live
        // member, one fused verify pass per level, commit.
        let mut steppers: Vec<Stepper<'_>> = requests
            .iter()
            .map(|r| {
                let engine = Engine::Medusa(r.engine.decode_config(&r.cfg));
                Stepper::new(&m, engine, m.session(), &r.prompt)
            })
            .collect();
        let (mut plan, mut arena, mut xs) = (VerifyPlan::new(), LogitsArena::new(), Vec::new());
        let (mut forwarded_bases, mut verified_nodes) = (0usize, 0usize);
        loop {
            plan.clear();
            arena.clear();
            xs.clear();
            let live: Vec<usize> = (0..steppers.len())
                .filter(|&i| steppers[i].embed_plan(&mut xs))
                .collect();
            if live.is_empty() {
                break;
            }
            forwarded_bases += live.len();
            m.infer(&xs, &mut arena);
            let mut verifying: Vec<usize> = Vec::new();
            for (row, &i) in live.iter().enumerate() {
                let phase = steppers[i].propose(Some(arena.rows_from(row)));
                if phase == Phase::Verify {
                    assert!(steppers[i].verify_level(None, Some(&mut plan)));
                    verifying.push(i);
                }
            }
            while plan.pending() > 0 {
                verified_nodes += plan.pending();
                let base = verify_many(&m, &mut plan, &mut arena);
                let rows = arena.rows_from(base);
                verifying.retain(|&i| steppers[i].verify_level(Some(rows), Some(&mut plan)));
            }
            for &i in &live {
                steppers[i].commit(&cost, None);
            }
        }
        let want: Vec<DecodeOutput> = steppers.into_iter().map(Stepper::into_output).collect();
        let steps: usize = want.iter().map(|o| o.steps).sum();
        assert_eq!(forwarded_bases, steps, "the reference forwards every base");

        let report = run_engine(&m, requests, &ServeConfig::concurrency(16), &cost);
        for (c, want) in report.completions.iter().zip(&want) {
            assert_eq!(c.output.tokens, want.tokens, "request {} tokens", c.id);
            assert_eq!(c.output.steps, want.steps, "request {} steps", c.id);
            assert_eq!(c.output.trace, want.trace, "request {} trace", c.id);
            assert_eq!(c.output.clock, want.clock, "request {} clock", c.id);
        }
        let stats = report.stats;
        assert_eq!(stats.fused_verify_nodes, verified_nodes);
        // Every request's first step forwards; most later ones do not.
        assert!(stats.fused_propose_positions >= 16, "{stats:?}");
        assert!(
            2 * stats.fused_propose_positions < steps,
            "{stats:?} of {steps} steps"
        );
    }

    #[test]
    fn grammar_tree_served_equals_serial_grammar_engine() {
        use verispec_core::decode_grammar_speculative;
        use verispec_grammar::GrammarOracle;
        let m = model();
        let cost = GpuCostModel::codellama_like();
        // A mixed byte map over the model's 14-token vocab: specials
        // transparent, mostly benign Verilog bytes, one lethal control
        // byte so the viability filter actually fires.
        let bytes: Vec<Vec<u8>> = (0..14usize)
            .map(|id| match id {
                0..=4 => Vec::new(),
                5 => b"(".to_vec(),
                6 => b")".to_vec(),
                7 => b"a".to_vec(),
                8 => b" ".to_vec(),
                9 => b";".to_vec(),
                10 => vec![0x07],
                11 => b"{".to_vec(),
                12 => b"}".to_vec(),
                _ => b"b".to_vec(),
            })
            .collect();
        let oracle = GrammarOracle::new(bytes);
        let requests: Vec<Request> = (0..4u64)
            .map(|i| {
                Request::new(
                    i,
                    vec![1 + (i % 4) as TokenId, 2, 3],
                    EngineChoice::GrammarTree {
                        tree: Some(vec![2, 2]),
                    },
                    DecodeConfig {
                        max_tokens: 12,
                        sampling: if i % 2 == 0 {
                            Sampling::Greedy
                        } else {
                            Sampling::temperature(0.7)
                        },
                        seed: 31 * i + 5,
                        ..Default::default()
                    },
                )
            })
            .collect();
        let expected: Vec<Vec<TokenId>> = requests
            .iter()
            .map(|r| {
                decode_grammar_speculative(
                    &m,
                    &oracle,
                    &r.prompt,
                    &r.engine.decode_config(&r.cfg),
                    &cost,
                )
                .tokens
            })
            .collect();
        let mut engine = ServeEngine::new(&m, ServeConfig::concurrency(2)).with_grammar(&oracle);
        for r in requests.clone() {
            engine.submit(r);
        }
        let report = engine.run(&cost);
        for (c, want) in report.completions.iter().zip(&expected) {
            assert_eq!(&c.output.tokens, want, "request {} diverged", c.id);
        }
        // Prune accounting flows through the event fold into the stats.
        assert!(report.stats.grammar_considered > 0);
        assert_eq!(
            report.stats.grammar_considered,
            report.stats.grammar_pruned + report.stats.grammar_surviving
        );
        // Without an oracle the same requests degrade to plain
        // syntax-aligned speculation, with zero grammar accounting.
        let plain: Vec<Vec<TokenId>> = requests
            .iter()
            .map(|r| {
                decode_speculative(&m, &r.prompt, &r.engine.decode_config(&r.cfg), &cost).tokens
            })
            .collect();
        let mut engine = ServeEngine::new(&m, ServeConfig::concurrency(2));
        for r in requests {
            engine.submit(r);
        }
        let degraded = engine.run(&cost);
        assert_eq!(degraded.stats.grammar_considered, 0);
        for (c, want) in degraded.completions.iter().zip(&plain) {
            assert_eq!(&c.output.tokens, want, "degraded request {} diverged", c.id);
        }
    }

    #[test]
    fn service_gaps_respect_the_aging_bound() {
        let m = model();
        let cost = GpuCostModel::codellama_like();
        // Adversarial seeded order, tight batch: aging must still bound
        // every request's service gap.
        let requests: Vec<Request> = (0..8u64)
            .map(|i| {
                Request::new(
                    i,
                    vec![1 + (i % 4) as TokenId, 2],
                    EngineChoice::MedusaChain,
                    DecodeConfig {
                        max_tokens: 12,
                        seed: i,
                        ..Default::default()
                    },
                )
            })
            .collect();
        let cfg = ServeConfig {
            max_active: 8,
            max_batch: 2,
            order: TickOrder::Seeded(0xFEED),
            ..Default::default()
        };
        let bound = Scheduler::new(cfg.order, cfg.max_active, cfg.max_batch).starvation_bound();
        let report = run_engine(&m, requests, &cfg, &cost);
        for c in &report.completions {
            assert!(
                c.max_service_gap <= bound + cfg.max_active as u64,
                "request {} gap {} exceeds bound {}",
                c.id,
                c.max_service_gap,
                bound
            );
        }
    }
}
