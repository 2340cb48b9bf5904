//! The threaded backend: one OS thread per worker, driven over an mpsc
//! command/reply protocol, bit-identical to the lockstep
//! `Dispatcher` oracle.
//!
//! # Architecture
//!
//! ```text
//!   coordinator (caller thread)            worker thread i (×N)
//!   ───────────────────────────            ────────────────────
//!   FleetRuntime::run                      worker_loop:
//!     Fleet<Coordinator>: the drive,         ServeEngine built *in*
//!     Router and merge shared with           the thread by
//!     lockstep; Coordinator holds the        FleetRuntime::engine (own
//!     clock/has_work mirrors                 session pool, queue,
//!         │                                  clock, and a private
//!         │  WorkerCmd ─────────────────►    EventLog sink)
//!         │   Submit(Request) | Tick |         submit / tick / probe
//!         │   Probe(prompt) | Crash |          against the local
//!         │   Restart | Drain                  engine only
//!         ◄───────────────── WorkerReply │
//!             Ticked{clock, has_work}    │
//!             Probed(RouteProbes)        │
//!             Crashed{stranded}          │
//!             Finished{segments, events} ┘
//! ```
//!
//! Each worker owns a private [`ServeEngine`] constructed inside its
//! thread (engines are deliberately not `Send`: they hold live decode
//! sessions), plus a private [`EventLog`]. Routing decisions and
//! newly-due arrivals flow down the command channel; per-tick results,
//! probe snapshots, and the final report + event stream flow back up.
//!
//! # Barrier placement
//!
//! The lockstep oracle's semantics couple workers in exactly two
//! places, and those are the only synchronization points here:
//!
//! 1. **Route-time probe reads.** Load-aware policies (jsq /
//!    least-loaded / prefix-affine) read every worker's probes at the
//!    instant a request is routed. The coordinator performs a
//!    synchronous `Probe` round-trip to all workers; per-worker mpsc
//!    FIFO ordering guarantees the reply reflects every earlier
//!    `Submit`, and workers are quiescent between tick rounds, so the
//!    snapshot equals the lockstep drive's direct engine reads.
//!    Probe-less policies (rr / pinned) skip the round-trip entirely.
//! 2. **The round boundary.** The paced drive routes arrivals by the
//!    fleet's most-advanced clock, so while arrivals are still
//!    pending, each round sends `Tick` to every busy worker and waits
//!    for all `Ticked` replies — one barrier per round, with the ticks
//!    themselves running concurrently. Idle workers are skipped: an
//!    empty engine's tick is a proven no-op. The streaming drive pays
//!    the same barrier every round: a live channel never reaches the
//!    "nothing can change" state until it closes.
//!
//! Once the last arrival is routed (and for the whole batch drive,
//! where everything is routed up front), nothing the coordinator could
//! send can affect any worker — so `Drain` releases every worker to
//! free-run its remaining ticks with **zero barriers**.
//!
//! # Determinism argument
//!
//! Workers share nothing but read-only state (model, draft, grammar
//! oracle, policy — all `Sync`), so a worker's tick sequence is a pure
//! function of the command sequence it receives. The coordinator sends
//! each worker exactly the per-worker subsequence of submit/tick calls
//! the lockstep backend would make: it runs under the same drive and
//! the same `Router` over the same probe values, the clock/`has_work`
//! mirrors are
//! exact (a worker's state changes only via its own commands, and
//! every state-changing command is acknowledged before the mirror is
//! read), and the drain free-run equals the lockstep tail rounds
//! because those contain no further submissions. Hence reports are
//! tick-for-tick and token-for-token identical, and per-worker event
//! streams are event-for-event identical; only the *interleaving* of
//! the workers' streams differs, which the shared merge's canonical
//! order ([`verispec_trace::canonicalize_fleet_events`]) normalizes
//! away. `tests/proptest_dispatch_threaded.rs` pins all of this across
//! worker counts, route policies, the batch and paced drives, and
//! eviction churn; `tests/proptest_dispatch.rs` adds the streaming
//! drive.

use crate::dispatch::RouteProbes;
use crate::engine::ServeReport;
use crate::request::Request;
use crate::runtime::{FleetBackend, FleetRuntime};
use std::sync::mpsc;
use std::thread::Scope;
use verispec_lm::{GpuCostModel, TokenId};
use verispec_trace::{EventLog, TraceEvent, TraceSink, NOOP};

/// A command the coordinator sends down a worker's channel. Per-worker
/// delivery is FIFO (mpsc), which is what makes probe snapshots and
/// submit ordering deterministic.
#[derive(Debug)]
enum WorkerCmd {
    /// Enqueue a routed request on the worker's engine.
    Submit(Box<Request>),
    /// Run one scheduler tick; the worker answers with
    /// [`WorkerReply::Ticked`].
    Tick,
    /// Snapshot the worker's route-time probes against this prompt;
    /// the worker answers with [`WorkerReply::Probed`].
    Probe(Vec<TokenId>),
    /// Fault injection: crash the worker's engine at tick `at`. The
    /// worker banks the dead engine's finished work as a report
    /// segment, replaces it with a cold engine (no warm stems — crash
    /// recovery is cold-cache) whose clock starts at `at`, and answers
    /// with [`WorkerReply::Crashed`] carrying the stranded requests
    /// for the coordinator to migrate.
    Crash {
        /// The crash tick (the fault event's tick).
        at: u64,
    },
    /// Fault injection: revive the worker at tick `at` (advances the
    /// replacement engine's clock; no reply — the coordinator mirrors
    /// the effect deterministically).
    Restart {
        /// The restart tick.
        at: u64,
    },
    /// No further commands follow: free-run every remaining tick
    /// without barriers, then answer with [`WorkerReply::Finished`].
    Drain,
}

/// A worker's reply on its result channel.
#[derive(Debug)]
enum WorkerReply {
    /// One tick ran; the engine's clock (including idle fast-forward
    /// jumps) and whether work remains.
    Ticked {
        /// The engine's scheduler clock after the tick.
        clock: u64,
        /// Whether any request is still queued or active.
        has_work: bool,
    },
    /// Route-time probe snapshot for a [`WorkerCmd::Probe`].
    Probed(RouteProbes),
    /// The worker's engine crashed ([`WorkerCmd::Crash`]): every
    /// in-flight and queued request it was holding, as
    /// `(original request, tokens already generated)` pairs sorted by
    /// id, for migration by exact replay.
    Crashed {
        /// The stranded requests.
        stranded: Vec<(Request, usize)>,
    },
    /// The worker drained: the report of every engine that lived in
    /// it (crashed incarnations first) and its private event stream,
    /// in emission order.
    Finished {
        /// One report per engine incarnation.
        segments: Vec<ServeReport>,
        /// Every event the worker's engines emitted (empty untraced).
        events: Vec<TraceEvent>,
    },
}

/// The coordinator's endpoint for one worker thread: the command
/// sender, the reply receiver, and exact mirrors of the worker's clock
/// and work state (exact because a worker's state only changes through
/// its own command channel, and every state-changing command is
/// acknowledged or inferable — a `Submit` always creates work).
struct WorkerHandle {
    cmd: mpsc::Sender<WorkerCmd>,
    reply: mpsc::Receiver<WorkerReply>,
    /// Mirror of the worker engine's scheduler clock.
    clock: u64,
    /// Mirror of the worker engine's `has_work()`.
    has_work: bool,
}

impl WorkerHandle {
    fn send(&self, cmd: WorkerCmd) {
        self.cmd.send(cmd).expect("worker thread hung up");
    }

    fn recv(&self) -> WorkerReply {
        self.reply.recv().expect("worker thread hung up")
    }
}

/// The threaded backend: the coordinator's endpoints to the worker
/// threads. Engine construction is deferred to the threads themselves
/// (a [`crate::ServeEngine`] is not `Send`; each one is born, driven,
/// and consumed entirely inside its own thread).
pub(crate) struct Coordinator {
    handles: Vec<WorkerHandle>,
}

impl Coordinator {
    /// Spawns one worker thread per fleet slot inside `scope`.
    pub(crate) fn spawn<'scope, 'env>(
        spec: &'env FleetRuntime<'env>,
        scope: &'scope Scope<'scope, 'env>,
        cost: &'env GpuCostModel,
    ) -> Self {
        let handles = (0..spec.workers())
            .map(|worker| {
                let (cmd_tx, cmd_rx) = mpsc::channel::<WorkerCmd>();
                let (reply_tx, reply_rx) = mpsc::channel::<WorkerReply>();
                scope.spawn(move || worker_loop(spec, worker, cost, cmd_rx, reply_tx));
                WorkerHandle {
                    cmd: cmd_tx,
                    reply: reply_rx,
                    clock: 0,
                    has_work: false,
                }
            })
            .collect();
        Coordinator { handles }
    }
}

impl FleetBackend for Coordinator {
    /// The fleet clock: its most-advanced worker's mirror.
    fn now(&self) -> u64 {
        self.handles.iter().map(|h| h.clock).max().unwrap_or(0)
    }

    fn has_work(&self) -> bool {
        self.handles.iter().any(|h| h.has_work)
    }

    /// The route-time probe barrier: a synchronous round-trip to every
    /// worker. Workers are quiescent between rounds and mpsc delivery
    /// is FIFO, so each reply reflects exactly the submits that the
    /// lockstep backend's direct reads would see.
    fn probes(&self, prompt: &[TokenId]) -> Vec<RouteProbes> {
        for h in &self.handles {
            h.send(WorkerCmd::Probe(prompt.to_vec()));
        }
        self.handles
            .iter()
            .map(|h| match h.recv() {
                WorkerReply::Probed(p) => p,
                other => panic!("expected Probed reply, got {other:?}"),
            })
            .collect()
    }

    fn submit(&mut self, w: usize, req: Request) {
        self.handles[w].send(WorkerCmd::Submit(Box::new(req)));
        // submit() always enqueues, so the mirror flips without a
        // round-trip.
        self.handles[w].has_work = true;
    }

    /// One round: every busy worker ticks concurrently behind a single
    /// barrier; idle workers are skipped (their tick is a no-op in the
    /// lockstep oracle too). Workers hold the cost model themselves.
    fn tick_round(&mut self, _cost: &GpuCostModel) {
        for h in &self.handles {
            if h.has_work {
                h.send(WorkerCmd::Tick);
            }
        }
        for h in &mut self.handles {
            if h.has_work {
                match h.recv() {
                    WorkerReply::Ticked { clock, has_work } => {
                        h.clock = clock;
                        h.has_work = has_work;
                    }
                    other => panic!("expected Ticked reply, got {other:?}"),
                }
            }
        }
    }

    fn crash_worker(&mut self, w: usize, at: u64) -> Vec<(Request, usize)> {
        self.handles[w].send(WorkerCmd::Crash { at });
        let stranded = match self.handles[w].recv() {
            WorkerReply::Crashed { stranded } => stranded,
            other => panic!("expected Crashed reply, got {other:?}"),
        };
        // Mirror the replacement engine exactly: cold (no work), clock
        // started at the crash tick.
        self.handles[w].clock = at;
        self.handles[w].has_work = false;
        stranded
    }

    fn restart_worker(&mut self, w: usize, at: u64) {
        self.handles[w].send(WorkerCmd::Restart { at });
        // advance_clock is max(clock, at); mirror it without a
        // round-trip.
        self.handles[w].clock = self.handles[w].clock.max(at);
    }

    /// Releases every worker to free-run, then collects reports and
    /// event streams in worker-id order.
    fn finish(self, _cost: &GpuCostModel) -> (Vec<Vec<ServeReport>>, Vec<TraceEvent>) {
        for h in &self.handles {
            h.send(WorkerCmd::Drain);
        }
        let mut events = Vec::new();
        let workers = self
            .handles
            .iter()
            .map(|h| match h.recv() {
                WorkerReply::Finished {
                    segments,
                    events: worker_events,
                } => {
                    events.extend(worker_events);
                    segments
                }
                other => panic!("expected Finished reply, got {other:?}"),
            })
            .collect();
        (workers, events)
    }
}

/// One worker thread's whole life: build the engine locally, serve
/// commands FIFO, then free-run to completion and report.
fn worker_loop(
    spec: &FleetRuntime<'_>,
    worker: usize,
    cost: &GpuCostModel,
    cmds: mpsc::Receiver<WorkerCmd>,
    replies: mpsc::Sender<WorkerReply>,
) {
    let log = EventLog::new();
    let sink: &dyn TraceSink = if spec.traced() { &log } else { &NOOP };
    // Report segments banked by crashed engine incarnations; the final
    // engine's report joins them in the Finished reply.
    let mut segments: Vec<ServeReport> = Vec::new();
    let mut engine = spec.engine(worker, sink, true);
    for cmd in cmds {
        match cmd {
            WorkerCmd::Submit(req) => engine.submit(*req),
            WorkerCmd::Tick => {
                engine.tick(cost);
                let reply = WorkerReply::Ticked {
                    clock: engine.clock(),
                    has_work: engine.has_work(),
                };
                if replies.send(reply).is_err() {
                    return;
                }
            }
            WorkerCmd::Probe(prompt) => {
                let reply = WorkerReply::Probed(RouteProbes::of(&engine, &prompt));
                if replies.send(reply).is_err() {
                    return;
                }
            }
            WorkerCmd::Crash { at } => {
                let mut fresh = spec.engine(worker, sink, false);
                fresh.advance_clock(at);
                let old = std::mem::replace(&mut engine, fresh);
                let (report, stranded) = old.crash();
                segments.push(report);
                if replies.send(WorkerReply::Crashed { stranded }).is_err() {
                    return;
                }
            }
            WorkerCmd::Restart { at } => engine.advance_clock(at),
            WorkerCmd::Drain => break,
        }
    }
    // Barrier-free drain: no command can affect this worker anymore,
    // so its remaining tick sequence is a pure local computation —
    // identical to the lockstep backend's tail rounds (in which extra
    // ticks on an already-empty engine are no-ops).
    while engine.tick(cost) {}
    segments.push(engine.into_report());
    let _ = replies.send(WorkerReply::Finished {
        segments,
        events: log.into_events(),
    });
}

#[cfg(test)]
mod tests {
    use crate::request::EngineChoice;
    use crate::{Backend, Drive, FleetRun, FleetRuntime, Request, RoutePolicy, ServeConfig};
    use verispec_core::DecodeConfig;
    use verispec_lm::{GpuCostModel, MlpLm, MlpLmConfig, TokenId};
    use verispec_trace::canonicalize_fleet_events;

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

    fn request(id: u64, arrival: u64, budget: usize) -> Request {
        Request {
            id,
            prompt: vec![1 + (id % 4) as TokenId, 2],
            engine: EngineChoice::SyntaxAligned {
                tree: Some(vec![2, 2]),
            },
            cfg: DecodeConfig {
                max_tokens: budget,
                seed: id,
                ..Default::default()
            },
            arrival,
            deadline: None,
            class: 0,
        }
    }

    /// The same spec served on both backends: `(lockstep, threaded)`.
    fn both<'m>(
        spec: impl Fn(Backend) -> FleetRuntime<'m>,
        drive: impl Fn() -> Drive,
    ) -> (FleetRun, FleetRun) {
        let cost = GpuCostModel::codellama_like();
        let run = |backend| spec(backend).run(drive(), &cost);
        (run(Backend::Lockstep), run(Backend::Threaded))
    }

    #[test]
    fn threaded_batch_matches_lockstep_batch() {
        let m = model();
        let requests: Vec<Request> = (0..6).map(|id| request(id, 0, 4)).collect();
        let (lockstep, threaded) = both(
            |backend| {
                FleetRuntime::new(
                    &m,
                    ServeConfig::concurrency(2),
                    3,
                    RoutePolicy::RoundRobin,
                    backend,
                )
            },
            || Drive::Batch(requests.clone()),
        );
        assert!(threaded.report.same_schedule(&lockstep.report));
        assert!(threaded.events.is_empty(), "untraced runs carry no events");
    }

    #[test]
    fn threaded_paced_matches_lockstep_under_probing_route() {
        let m = model();
        let requests: Vec<Request> = (0..8).map(|id| request(id, id / 2, 3)).collect();
        let (lockstep, threaded) = both(
            |backend| {
                FleetRuntime::new(
                    &m,
                    ServeConfig::concurrency(2),
                    2,
                    RoutePolicy::JoinShortestQueue,
                    backend,
                )
                .with_tracing()
            },
            || Drive::Paced(requests.clone()),
        );
        assert!(threaded.report.same_schedule(&lockstep.report));
        assert!(!threaded.events.is_empty());
        assert_eq!(threaded.events, lockstep.events);
        // The merge is already canonical.
        assert_eq!(canonicalize_fleet_events(&threaded.events), threaded.events);
    }

    #[test]
    fn threaded_prefix_affine_follows_the_warm_stem() {
        let m = model();
        let cfg = ServeConfig {
            prefix_cache: true,
            ..ServeConfig::concurrency(2)
        };
        let stem: Vec<TokenId> = vec![1, 2, 3];
        let requests = vec![
            Request {
                prompt: vec![1, 2, 3, 4, 5],
                ..request(0, 0, 4)
            },
            Request {
                prompt: vec![1, 2, 3, 4, 5, 6],
                ..request(1, 2, 4)
            },
        ];
        let (lockstep, threaded) = both(
            |backend| {
                FleetRuntime::new(&m, cfg.clone(), 3, RoutePolicy::PrefixAffine, backend)
                    .warm_prefix(&stem)
            },
            || Drive::Paced(requests.clone()),
        );
        assert!(threaded.report.same_schedule(&lockstep.report));
        // Both runs route the deeper stem extension to the worker the
        // first request warmed.
        assert_eq!(threaded.report.assignments, lockstep.report.assignments);
        assert_eq!(threaded.report.worker_of(0), threaded.report.worker_of(1));
    }
}
