//! The latency-under-load experiment: the paper's Table II re-measured
//! the way "Speculative Decoding: Performance or Illusion?" demands —
//! per-request latency percentiles under an **open-loop arrival
//! process at equal offered load**, speculative vs. NTP, served
//! through `verispec-serve`'s paced drive (`Drive::Paced`: each request
//! routed when its arrival tick falls due).
//!
//! Each cell serves the *same* workload (same arrival ticks, prompts,
//! budgets, sampling, seeds — only the engine differs) and reports
//! exact p50/p90/p99 queueing delay, TTFT, per-token inter-commit
//! gaps, and end-to-end latency in scheduler ticks — exact functions
//! of the code, so the artifact regenerates byte for byte (wall time is
//! the benchmark's business, `benchmark/`). Every paced run is
//! asserted bit-identical to batch submission before its numbers are
//! recorded, so `BENCH_load.json` is produced under proven output
//! parity — serving and measurement never change semantics — and
//! [`load_gate_violations`] names what the recorded cells must still
//! show before the bench may write them.

use crate::benchmarks::speed_prompts;
use crate::pipeline::{token_budget, ModelScale, Pipeline, SharedPrefixEncoder};
use crate::Scale;
use verispec_core::{SpecPolicy, TrainMethod};
use verispec_lm::MlpLm;
use verispec_load::{
    run_fleet_open_loop, ArrivalProcess, ArrivalTrace, LoadBenchRow, LoadRunReport, PromptFamily,
    RequestMix, Workload,
};
use verispec_serve::{
    Backend, EngineChoice, FaultPlan, FleetRuntime, Request, RoutePolicy, ServeConfig, ServeEngine,
    TickOrder,
};

/// The three methods of the serve-aware Table II (all drive the same
/// "Ours"-trained model; the engine choice is what Table II compares).
pub fn load_methods() -> Vec<(&'static str, EngineChoice)> {
    vec![
        (
            "Ours-tree",
            EngineChoice::SyntaxAligned {
                tree: Some(vec![2, 2, 1]),
            },
        ),
        ("Medusa-tree", EngineChoice::MedusaTree(vec![3, 2])),
        ("NTP", EngineChoice::Ntp),
    ]
}

/// Per-tick verify capacity of the policy A/B, as a multiple of
/// `max_batch` (the NTP tokens-per-tick capacity): speculation must
/// pay for its candidate tokens out of this budget, which is what
/// makes "how much speculation to buy" a real per-tick decision.
const POLICY_CAPACITY_FACTOR: usize = 3;

/// SLO deadline slack of the policy A/B: each request must finish
/// within this multiple of its ideal NTP service time (`budget` ticks).
const POLICY_SLO_SLACK: f64 = 4.0;

/// Worker counts of the dispatch sweep: the single fused engine, and
/// small fleets.
pub const DISPATCH_WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Offered-load multiplier of the dispatch sweep over the Table II
/// sweep's highest level. Speculation lifts one engine's effective
/// capacity well above the NTP tokens-per-tick the utilization axis is
/// denominated in, so the Table II overload level barely queues a
/// multi-worker Ours-tree fleet; the dispatch sweep therefore runs at
/// `factor ×` that rate — enough to saturate even four workers, which
/// is where routing policy decides the tail.
pub const DISPATCH_LOAD_FACTOR: f64 = 4.0;

/// The routing-policy menu of the dispatch sweep: load-blind
/// round-robin vs join-shortest-queue (ready-depth) vs
/// join-least-loaded (outstanding candidate-token cost) — the
/// JSQ-vs-RR tail-latency comparison is the headline measurement.
pub fn dispatch_routes() -> Vec<(&'static str, RoutePolicy)> {
    vec![
        ("rr", RoutePolicy::RoundRobin),
        ("jsq", RoutePolicy::JoinShortestQueue),
        ("least-loaded", RoutePolicy::LeastLoaded),
    ]
}

/// Builds the workload's prompt families from the speed-prompt set:
/// prompts are encoded through the shared-prefix encoder, given their
/// usual per-prompt budgets, and split at the median encoded length
/// into a "short" and a "long" family (comb-ish vs seq-ish modules),
/// so the mix draws realistic size diversity.
pub fn load_families(
    pipe: &Pipeline,
    enc: &SharedPrefixEncoder<'_>,
    count: usize,
) -> Vec<(PromptFamily, f64)> {
    let problems = speed_prompts(count.max(2), 0x10AD);
    let mut encoded: Vec<(Vec<u32>, usize)> = problems
        .iter()
        .map(|p| {
            let prompt = enc.encode(&p.prompt_tagged());
            let budget = token_budget(&pipe.tokenizer, p, TrainMethod::Ours);
            (prompt, budget)
        })
        .collect();
    encoded.sort_by_key(|(p, _)| p.len());
    let long = encoded.split_off(encoded.len() / 2);
    vec![
        (
            PromptFamily {
                name: "short".into(),
                prompts: encoded,
            },
            1.0,
        ),
        (
            PromptFamily {
                name: "long".into(),
                prompts: long,
            },
            1.0,
        ),
    ]
}

/// Mean decode budget across the families — the per-request service
/// demand estimate the offered-load levels are scaled by.
pub fn mean_budget(families: &[(PromptFamily, f64)]) -> f64 {
    let budgets: Vec<usize> = families
        .iter()
        .flat_map(|(f, _)| f.prompts.iter().map(|(_, b)| *b))
        .collect();
    budgets.iter().sum::<usize>() as f64 / budgets.len().max(1) as f64
}

/// Offered-load levels spanning light traffic to overload: each entry
/// is a target utilization of the **NTP** service capacity
/// (`max_batch` tokens per tick — NTP commits exactly one token per
/// request per tick), converted to requests per tick via the mean
/// request budget. Speculation raises effective capacity by its
/// tokens-per-step factor, which is exactly the gap the latency
/// percentiles expose.
pub fn rates_for_utilizations(utils: &[f64], max_batch: usize, mean_budget: f64) -> Vec<f64> {
    utils
        .iter()
        .map(|u| (u * max_batch as f64 / mean_budget.max(1.0)).max(1e-4))
        .collect()
}

/// The fleet a sweep cell is served on. With a `stem`, every worker's
/// radix-tree prefix cache is enabled and pre-warmed with it, so every
/// matching request is admitted from a copy-on-write fork of the
/// cached node.
fn fleet<'m>(
    model: &'m MlpLm,
    cfg: &ServeConfig,
    workers: usize,
    route: RoutePolicy,
    backend: Backend,
    stem: Option<&[u32]>,
) -> FleetRuntime<'m> {
    let cfg = ServeConfig {
        prefix_cache: cfg.prefix_cache || stem.is_some(),
        ..cfg.clone()
    };
    let fleet = FleetRuntime::new(model, cfg, workers, route, backend);
    match stem {
        Some(stem) => fleet.warm_prefix(stem),
        None => fleet,
    }
}

/// The single fused engine, as the one-worker fleet it is (rows
/// labelled route [`SINGLE`]).
fn single<'m>(model: &'m MlpLm, cfg: &ServeConfig, stem: Option<&[u32]>) -> FleetRuntime<'m> {
    fleet(
        model,
        cfg,
        1,
        RoutePolicy::RoundRobin,
        Backend::Lockstep,
        stem,
    )
}

/// The `route` label of single-engine rows.
const SINGLE: &str = "single";

/// Runs the latency-under-load sweep: `utilizations` offered-load
/// levels × the three methods (the legacy Table II, uncapacitated),
/// plus the **policy A/B** — Ours-tree served under static vs.
/// adaptive vs. budgeted speculation at the same per-tick verify
/// capacity, with SLO deadlines, earliest-deadline-first scheduling,
/// and load-shedding admission control — all under paced admission
/// through the prefix cache warmed with the shared preamble, and a
/// session cap of twice the pool —
/// plus the **dispatch sweep**: one Ours-tree workload at
/// [`DISPATCH_LOAD_FACTOR`] × the highest offered load (hot enough to
/// saturate the largest fleet), served once on a single engine (the
/// reference row) and then routed across [`DISPATCH_WORKER_COUNTS`]
/// workers under each [`dispatch_routes`] policy (every dispatched
/// output asserted identical to the single-engine reference before
/// recording).
///
/// Also round-trips every workload's realized arrivals through the
/// JSON [`ArrivalTrace`] and asserts the replay is field-for-field
/// identical, so the CI smoke continuously proves trace replay.
///
/// # Panics
///
/// Panics if any paced output diverges from batch submission of the
/// identical workload (the bit-identity guarantee the bench relies on)
/// or a recorded trace fails to replay exactly.
pub fn run_load_bench(
    scale: &Scale,
    pipe: &Pipeline,
    model_scale: ModelScale,
    utilizations: &[f64],
) -> Vec<LoadBenchRow> {
    let model = pipe.model_for(model_scale, TrainMethod::Ours, (1, 1));
    let cost = model_scale.cost_model();
    let enc = SharedPrefixEncoder::new(&pipe.tokenizer);
    let families = load_families(pipe, &enc, scale.speed_prompt_count.max(2));
    let concurrency = 8usize;
    let cfg = ServeConfig {
        session_cap: Some(2 * concurrency),
        ..ServeConfig::concurrency(concurrency)
    };
    let rates = rates_for_utilizations(utilizations, cfg.max_batch, mean_budget(&families));

    let mut rows = Vec::new();
    for &rate in &rates {
        let mix = RequestMix {
            engines: load_methods().into_iter().map(|(_, e)| (e, 1.0)).collect(),
            families: families.clone(),
            greedy_fraction: 0.5,
            temperature: (0.4, 0.9),
            base: Default::default(),
            deadline_slack: None,
        };
        let workload = Workload {
            process: ArrivalProcess::Poisson { rate },
            mix,
            count: scale.speed_prompt_count.max(2),
            seed: 0x10AD_5EED,
        };
        assert_trace_replays_exactly(&workload);
        for (name, engine) in load_methods() {
            // Equal offered load: identical arrivals/prompts/budgets/
            // seeds across methods, engine forced.
            let requests = workload.requests_with_engine(Some(&engine));
            let run = run_fleet_open_loop(
                single(&model, &cfg, Some(&enc.preamble_ids)),
                requests.clone(),
                &cost,
            );
            assert_paced_matches_batch(
                &model,
                &enc.preamble_ids,
                &requests,
                &cfg,
                &cost,
                &run,
                name,
            );
            rows.push(LoadBenchRow::new(
                workload.process.name(),
                rate,
                name,
                SINGLE,
                &run,
            ));
        }

        // Policy A/B: the same arrivals/prompts/budgets/seeds, now with
        // SLO deadlines, all forced to Ours-tree, served under a fixed
        // per-tick verify capacity with EDF scheduling and
        // load-shedding admission control. Only the speculation policy
        // varies.
        let slo_workload = Workload {
            mix: RequestMix {
                deadline_slack: Some(POLICY_SLO_SLACK),
                ..workload.mix.clone()
            },
            ..workload.clone()
        };
        let (ours_name, ours_engine) = load_methods().remove(0);
        let requests = slo_workload.requests_with_engine(Some(&ours_engine));
        // Every policy runs at the *same* per-tick verify capacity
        // (`ServeConfig::tick_capacity`), so the A/B isolates the
        // allocation policy, not the capacity.
        let capacity = POLICY_CAPACITY_FACTOR * cfg.max_batch;
        for policy in SpecPolicy::ALL {
            let pcfg = ServeConfig {
                order: TickOrder::Edf,
                policy,
                tick_capacity: Some(capacity),
                shed_depth: Some(4 * concurrency),
                ..cfg.clone()
            };
            let run = run_fleet_open_loop(
                single(&model, &pcfg, Some(&enc.preamble_ids)),
                requests.clone(),
                &cost,
            );
            assert_paced_matches_batch(
                &model,
                &enc.preamble_ids,
                &requests,
                &pcfg,
                &cost,
                &run,
                policy.name(),
            );
            let mut row =
                LoadBenchRow::new(slo_workload.process.name(), rate, ours_name, SINGLE, &run);
            row.policy = policy.name().to_string();
            row.tick_capacity = Some(capacity);
            rows.push(row);
        }
    }

    // Dispatch sweep: worker count × routing policy, all cells fed the
    // *same* workload (same arrivals/prompts/budgets/seeds, Ours-tree)
    // at [`DISPATCH_LOAD_FACTOR`] × the sweep's highest offered load —
    // hot enough to saturate even the four-worker fleet, where routing
    // decides the tail. A single-engine run of the identical workload
    // is recorded first (route "single") as both the melt-down baseline
    // and the parity reference: every dispatched completion is asserted
    // token-identical to it (itself already proven == batch == serial),
    // and the one-worker cells are asserted tick-identical, before any
    // row is recorded.
    let rate = DISPATCH_LOAD_FACTOR
        * rates
            .iter()
            .copied()
            .fold(f64::MIN, f64::max)
            .max(f64::MIN_POSITIVE);
    let (ours_name, ours_engine) = load_methods().remove(0);
    let workload = Workload {
        process: ArrivalProcess::Poisson { rate },
        mix: RequestMix {
            engines: load_methods().into_iter().map(|(_, e)| (e, 1.0)).collect(),
            families: families.clone(),
            greedy_fraction: 0.5,
            temperature: (0.4, 0.9),
            base: Default::default(),
            deadline_slack: None,
        },
        count: scale.speed_prompt_count.max(2),
        seed: 0x10AD_5EED,
    };
    let process = workload.process.name().to_string();
    let requests = workload.requests_with_engine(Some(&ours_engine));
    let reference = run_fleet_open_loop(
        single(&model, &cfg, Some(&enc.preamble_ids)),
        requests.clone(),
        &cost,
    );
    assert_paced_matches_batch(
        &model,
        &enc.preamble_ids,
        &requests,
        &cfg,
        &cost,
        &reference,
        "dispatch-reference",
    );
    rows.push(LoadBenchRow::new(
        &process, rate, ours_name, SINGLE, &reference,
    ));
    for &workers in &DISPATCH_WORKER_COUNTS {
        // With one worker every routing policy routes identically, so
        // the three one-worker cells share a single run (lockstep and
        // threaded alike).
        let mut shared: Option<LoadRunReport> = None;
        for (route_name, route) in dispatch_routes() {
            let run = match &shared {
                Some(run) => run.clone(),
                None => {
                    let serve = |backend| {
                        let stem = Some(&enc.preamble_ids[..]);
                        run_fleet_open_loop(
                            fleet(&model, &cfg, workers, route.clone(), backend, stem),
                            requests.clone(),
                            &cost,
                        )
                    };
                    let run = serve(Backend::Lockstep);
                    assert_dispatch_matches_reference(&run, &reference, workers, route_name);
                    // The threaded backend on the identical cell: the
                    // tick schedule must reproduce exactly.
                    let threaded = serve(Backend::Threaded);
                    assert_threaded_matches_lockstep(&threaded, &run, workers, route_name);
                    if workers == 1 {
                        shared = Some(run.clone());
                    }
                    run
                }
            };
            rows.push(
                LoadBenchRow::new(&process, rate, ours_name, route_name, &run).with_threaded(true),
            );
        }
    }

    // Fault-injected recovery cells: the identical dispatch workload
    // served under deterministic failure scenarios — a single-worker
    // crash with migration to the survivors ("worker-crash", 4
    // workers), and a whole-fleet outage riding backpressure until the
    // restarts flush the deferred queue ("crash-storm", 2 workers).
    // Every completion is asserted token-identical to the fault-free
    // single-engine reference before recording (crash recovery is a
    // scheduling event, never a semantic one), and the threaded
    // backend must reproduce the lockstep run bit for bit, faults
    // included. The scenario lands in the row's `policy` column; the
    // recovery columns (worker_crashes / migrations / replay_tokens /
    // recovery_ttft_p99) are what `load_gate_violations` gates.
    // The crash tick is workload-derived rather than hard-coded: scan
    // a bounded, deterministic window starting one tick after the
    // first arrival and take the earliest tick whose crash actually
    // strands routed work (migrations > 0 — and, for the storm, also
    // rides backpressure while the fleet is dark), so the cell
    // measures recovery at every bench scale and the
    // `migrations > 0` gate is satisfiable by construction. The
    // restarts land safely after both the arrival span and the scan
    // window, keeping the whole-fleet outage window dark.
    let first_arrival = requests.iter().map(|r| r.arrival).min().unwrap_or(0);
    let last_arrival = requests.iter().map(|r| r.arrival).max().unwrap_or(0);
    let scan_end = first_arrival + 13;
    let restart_tick = last_arrival.max(scan_end) + 8;
    let storm_workers = 2usize;
    let crash_workers = 4usize;
    for (scenario, workers) in [
        ("worker-crash", crash_workers),
        ("crash-storm", storm_workers),
    ] {
        let serve = |plan: &FaultPlan, backend| {
            let stem = Some(&enc.preamble_ids[..]);
            run_fleet_open_loop(
                fleet(
                    &model,
                    &cfg,
                    workers,
                    RoutePolicy::JoinShortestQueue,
                    backend,
                    stem,
                )
                .with_fault_plan(plan.clone()),
                requests.clone(),
                &cost,
            )
        };
        let make_plan = |crash: u64| -> FaultPlan {
            if scenario == "worker-crash" {
                FaultPlan::none().crash(crash, 0).restart(restart_tick, 0)
            } else {
                (0..workers).fold(FaultPlan::none(), |p, w| {
                    p.crash(crash + w as u64, w)
                        .restart(restart_tick + w as u64, w)
                })
            }
        };
        let (plan, run) = ((first_arrival + 1)..=scan_end)
            .find_map(|crash| {
                let plan = make_plan(crash);
                let run = serve(&plan, Backend::Lockstep);
                let s = &run.report.stats;
                let strands = if scenario == "worker-crash" {
                    s.migrations > 0
                } else {
                    s.migrations > 0 && s.backpressure_deferrals > 0
                };
                strands.then_some((plan, run))
            })
            .unwrap_or_else(|| {
                panic!("{scenario}: no crash tick in the arrival window strands work")
            });
        assert_faulted_matches_reference(&run, &reference, &plan, workers, scenario);
        let threaded = serve(&plan, Backend::Threaded);
        assert_threaded_matches_lockstep(&threaded, &run, workers, scenario);
        let mut row = LoadBenchRow::new(&process, rate, ours_name, "jsq", &run).with_threaded(true);
        row.policy = scenario.to_string();
        rows.push(row);
    }

    // Zipf shared-stem cache sweep: a workload where most prompts
    // extend one of a few hot stems (Zipf-weighted), served with
    // *paced* prompt ingestion so ingestion work is visible in tick
    // space — then measured cache-off vs cache-on across worker counts
    // and routing policies (round-robin vs least-loaded vs
    // prefix-affine) at one equal offered load. The cache-off
    // single-engine run is the uncached reference; every other cell's
    // completions are asserted token-identical to it before recording
    // (the cache and the routing may only move ticks, never tokens).
    // Cache state lands in the row's `policy` column; the prefix_*
    // columns carry the hit/miss/saved telemetry
    // `load_gate_violations` gates.
    let vocab = verispec_lm::LanguageModel::vocab_size(&model) as u32;
    let count = scale.speed_prompt_count.max(2);
    let zipf_workload = Workload {
        process: ArrivalProcess::Poisson { rate },
        mix: RequestMix {
            engines: vec![(ours_engine.clone(), 1.0)],
            families: vec![(
                PromptFamily::zipf_stems(
                    "zipf-stems",
                    count.max(8),
                    4,
                    32,
                    4,
                    1.2,
                    12,
                    vocab,
                    0x21F5,
                ),
                1.0,
            )],
            greedy_fraction: 0.5,
            temperature: (0.4, 0.9),
            base: Default::default(),
            deadline_slack: None,
        },
        count,
        seed: 0x21F5_10AD,
    };
    assert_trace_replays_exactly(&zipf_workload);
    let zipf_requests = zipf_workload.requests_with_engine(Some(&ours_engine));
    let off_cfg = ServeConfig {
        ingest_rate: Some(8),
        ..cfg.clone()
    };
    let on_cfg = ServeConfig {
        prefix_cache: true,
        ..off_cfg.clone()
    };
    let zipf_reference =
        run_fleet_open_loop(single(&model, &off_cfg, None), zipf_requests.clone(), &cost);
    for (cache_name, zcfg) in [("cache-off", &off_cfg), ("cache-on", &on_cfg)] {
        for &workers in &DISPATCH_WORKER_COUNTS {
            // One worker routes identically under every policy: share
            // the run across the three route rows.
            let mut shared: Option<LoadRunReport> = None;
            for (route_name, route) in zipf_routes() {
                let run = match &shared {
                    Some(run) => run.clone(),
                    None => {
                        let serve = |backend| {
                            run_fleet_open_loop(
                                fleet(&model, zcfg, workers, route.clone(), backend, None),
                                zipf_requests.clone(),
                                &cost,
                            )
                        };
                        let run = serve(Backend::Lockstep);
                        assert_tokens_match_reference(
                            &run,
                            &zipf_reference,
                            &format!("{cache_name}/{route_name}@{workers}"),
                        );
                        // The threaded backend must reproduce the cell
                        // even under paced ingestion, prefix caching,
                        // and cache-probing routes.
                        let threaded = serve(Backend::Threaded);
                        assert_threaded_matches_lockstep(&threaded, &run, workers, route_name);
                        if workers == 1 {
                            shared = Some(run.clone());
                        }
                        run
                    }
                };
                let mut row = LoadBenchRow::new("zipf", rate, ours_name, route_name, &run)
                    .with_threaded(true);
                row.policy = cache_name.to_string();
                rows.push(row);
            }
        }
    }
    rows
}

/// What a sweep's rows must show before they are recorded: every
/// violated gate as `name: detail`, empty when the sweep may be
/// written. The parity assertions inside [`run_load_bench`] prove that
/// serving never changed a token; these gates check that the cells
/// still *measure* something — facts of the values, which no type
/// guarantees:
///
/// * `cell-missing` — every method, policy, dispatch (workers × route),
///   fault and Zipf (cache × workers × route) cell is present, named
///   here independently of the menus the runner loops over;
/// * `served-nothing` — every row committed tokens over worked ticks;
/// * `routing-sum` — routed requests account for everything served or
///   shed (a crash-migrated request passes the router once per
///   placement, so fault cells carry one extra routing per migration);
/// * `accept-invariant` — the event stream's per-request `Finished`
///   events respect `accepted <= proposed`, request by request and in
///   aggregate;
/// * `fault-recovery` — both fault scenarios fired their crashes
///   (single worker vs whole fleet), stranded real work (a crash that
///   migrates nothing measures nothing) and measured the
///   recovery-window TTFT tail: faults move ticks, never tokens;
/// * `cache-ttft` / `cache-never-wins` — cache-on never loses to its
///   cache-off twin on TTFT p99, and wins somewhere on p99 or mean
///   (small runs pin the nearest-rank p99 at the cold-miss warm-up in
///   every cell, but the mean still has to move — a cache that shifts
///   neither has stopped working);
/// * `affine-hit-rate` — on fleets of two or more workers the
///   cache-aware prefix-affine route out-hits load-blind round-robin,
///   which scatters each hot stem across the fleet and pays its cold
///   miss once per worker.
pub fn load_gate_violations(rows: &[LoadBenchRow]) -> Vec<String> {
    let mut violations = Vec::new();
    let mut gate = |ok: bool, name: &str, detail: String| {
        if !ok {
            violations.push(format!("{name}: {detail}"));
        }
    };
    let cell = |zipf: bool, policy: &str, workers: usize, route: &str| {
        rows.iter().find(|r| {
            (r.process == "zipf") == zipf
                && r.policy == policy
                && r.workers == workers
                && r.route == route
        })
    };

    for r in rows {
        let ctx = format!(
            "{} {}/{} {}@{} at rate {}",
            r.process, r.method, r.policy, r.route, r.workers, r.offered_rate
        );
        gate(
            r.tokens > 0 && r.ticks > 0,
            "served-nothing",
            format!("{ctx}: {} tokens over {} ticks", r.tokens, r.ticks),
        );
        let routed: usize = r.worker_requests.iter().sum();
        gate(
            routed == r.requests + r.shed_requests + r.migrations,
            "routing-sum",
            format!(
                "{ctx}: routed {routed} != served {} + shed {} + migrated {}",
                r.requests, r.shed_requests, r.migrations
            ),
        );
        gate(
            r.event_accept_violations == 0 && r.event_accepted_tokens <= r.event_proposed_tokens,
            "accept-invariant",
            format!(
                "{ctx}: {} request(s) accepted more than they proposed ({} of {} in aggregate)",
                r.event_accept_violations, r.event_accepted_tokens, r.event_proposed_tokens
            ),
        );
    }

    for method in ["Ours-tree", "Medusa-tree", "NTP"] {
        gate(
            rows.iter().any(|r| r.method == method),
            "cell-missing",
            format!("method {method}"),
        );
    }
    for policy in ["static", "adaptive", "budgeted"] {
        gate(
            rows.iter().any(|r| r.policy == policy),
            "cell-missing",
            format!("policy {policy}"),
        );
    }
    for workers in [1, 2, 4] {
        for route in ["rr", "jsq", "least-loaded"] {
            gate(
                cell(false, "static", workers, route).is_some(),
                "cell-missing",
                format!("dispatch {route}@{workers}"),
            );
        }
    }

    for (scenario, min_crashes) in [("worker-crash", 1), ("crash-storm", 2)] {
        let Some(r) = rows.iter().find(|r| r.policy == scenario) else {
            gate(false, "cell-missing", format!("fault {scenario}"));
            continue;
        };
        gate(
            r.worker_crashes >= min_crashes && r.migrations > 0 && r.recovery_ttft_p99.is_some(),
            "fault-recovery",
            format!(
                "{scenario}: {} crash(es) of >= {min_crashes}, {} migration(s), \
                 recovery TTFT p99 {:?}",
                r.worker_crashes, r.migrations, r.recovery_ttft_p99
            ),
        );
    }

    let mut cache_compared = false;
    let mut cache_won = false;
    for workers in [1, 2, 4] {
        for route in ["rr", "least-loaded", "prefix-affine"] {
            let (on, off) = (
                cell(true, "cache-on", workers, route),
                cell(true, "cache-off", workers, route),
            );
            let (Some(on), Some(off)) = (on, off) else {
                gate(false, "cell-missing", format!("zipf {route}@{workers}"));
                continue;
            };
            let (on, off) = (&on.quantiles.ttft_ticks, &off.quantiles.ttft_ticks);
            gate(
                on.p99 <= off.p99,
                "cache-ttft",
                format!(
                    "zipf {route}@{workers}: cache-on TTFT p99 {} worse than cache-off {}",
                    on.p99, off.p99
                ),
            );
            cache_compared = true;
            cache_won |= on.p99 < off.p99 || on.mean < off.mean;
        }
    }
    gate(
        cache_won || !cache_compared,
        "cache-never-wins",
        "zipf: cache-on never beat cache-off on TTFT p99 or mean".to_string(),
    );
    for workers in [2, 4] {
        let (affine, rr) = (
            cell(true, "cache-on", workers, "prefix-affine"),
            cell(true, "cache-on", workers, "rr"),
        );
        if let Some((affine, rr)) = affine.zip(rr) {
            gate(
                affine.prefix_hit_rate > rr.prefix_hit_rate,
                "affine-hit-rate",
                format!(
                    "zipf @{workers}: prefix-affine hit rate {:?} does not exceed \
                     round-robin's {:?}",
                    affine.prefix_hit_rate, rr.prefix_hit_rate
                ),
            );
        }
    }
    violations
}

/// The routing menu of the Zipf cache sweep: load-blind round-robin,
/// cost-aware least-loaded, and the cache-aware prefix-affine policy
/// (which degrades to least-loaded when every cache probe reads 0).
fn zipf_routes() -> Vec<(&'static str, RoutePolicy)> {
    vec![
        ("rr", RoutePolicy::RoundRobin),
        ("least-loaded", RoutePolicy::LeastLoaded),
        ("prefix-affine", RoutePolicy::PrefixAffine),
    ]
}

/// Asserts every completion of `run` token-identical to the
/// single-engine `reference` run of the identical workload: routing,
/// prefix caching, paced ingestion and crash recovery are performance
/// mechanisms — ticks move, tokens never.
fn assert_tokens_match_reference(run: &LoadRunReport, reference: &LoadRunReport, cell: &str) {
    assert_eq!(
        run.report.completions.len(),
        reference.report.completions.len(),
        "{cell}: requests were lost"
    );
    for (a, b) in run
        .report
        .completions
        .iter()
        .zip(&reference.report.completions)
    {
        assert_eq!(a.id, b.id);
        assert_eq!(
            a.output.tokens, b.output.tokens,
            "{cell}: request {} diverged from the single-engine reference",
            a.id
        );
    }
}

/// Asserts a fault-injected run against the fault-free single-engine
/// reference of the identical workload: the fault plan actually fired
/// (crashes and — migration or backpressure — recovery work
/// happened), no request was lost across the outage, and every
/// completion's token stream equals the reference's. Crash recovery
/// by exact replay is a scheduling event, never a semantic one; rows
/// are only recorded after this passes.
fn assert_faulted_matches_reference(
    run: &LoadRunReport,
    reference: &LoadRunReport,
    plan: &FaultPlan,
    workers: usize,
    scenario: &str,
) {
    let crashes = plan
        .events
        .iter()
        .filter(|e| matches!(e, verispec_serve::FaultEvent::CrashWorker { .. }))
        .count();
    assert_eq!(
        run.report.stats.crashes, crashes,
        "{scenario}@{workers}: the fault plan's crashes did not all fire"
    );
    assert!(
        run.report.stats.migrations > 0 || run.report.stats.backpressure_deferrals > 0,
        "{scenario}@{workers}: the crash stranded no work — the cell measures nothing"
    );
    assert_tokens_match_reference(run, reference, &format!("{scenario}@{workers}"));
}

/// Asserts the threaded runtime's run bit-identical to the lockstep
/// oracle's on the identical cell: the whole tick-space schedule
/// ([`verispec_serve::DispatchReport::same_schedule`] — completions,
/// shedding, stats, per-worker split, assignments) and the canonical
/// fleet event stream. Rows record `threaded_parity: true` only after
/// this passes, so the bench artifact carries a proven claim.
fn assert_threaded_matches_lockstep(
    threaded: &LoadRunReport,
    lockstep: &LoadRunReport,
    workers: usize,
    route: &str,
) {
    assert!(
        threaded.report.same_schedule(&lockstep.report),
        "{route}@{workers}: threaded runtime diverged from the lockstep schedule"
    );
    assert_eq!(
        threaded.events, lockstep.events,
        "{route}@{workers}: threaded event stream diverged from lockstep"
    );
}

/// Asserts a dispatched run against the single-engine reference of the
/// identical workload: every completion's token stream must match
/// (routing never changes semantics), and a one-worker fleet must
/// reproduce the reference tick schedule exactly (routing adds zero
/// scheduling noise).
fn assert_dispatch_matches_reference(
    run: &LoadRunReport,
    reference: &LoadRunReport,
    workers: usize,
    route: &str,
) {
    assert_tokens_match_reference(run, reference, &format!("{route}@{workers}"));
    if workers == 1 {
        for (a, b) in run
            .report
            .completions
            .iter()
            .zip(&reference.report.completions)
        {
            assert_eq!(
                a.step_ticks, b.step_ticks,
                "{route}@1: request {} schedule diverged from the single engine",
                a.id
            );
        }
        assert_eq!(
            run.report.stats.ticks, reference.report.stats.ticks,
            "{route}@1: tick count diverged from the single engine"
        );
    }
}

/// Records the workload's realized arrivals, round-trips them through
/// JSON, and asserts the replay is field-for-field identical — the
/// trace-replay guarantee, continuously proven in the CI smoke.
fn assert_trace_replays_exactly(workload: &Workload) {
    let requests = workload.requests();
    let trace = ArrivalTrace::record(&requests, workload.seed, &workload.mix.base);
    let json = trace.to_json().expect("trace serializes");
    let replayed = ArrivalTrace::from_json(&json)
        .expect("trace parses back")
        .replay();
    assert_eq!(
        replayed, requests,
        "trace replay must reproduce the workload exactly"
    );
}

/// Asserts the paced run's outputs equal batch submission of the
/// same workload, token for token and tick for tick (including which
/// requests load shedding rejected).
fn assert_paced_matches_batch(
    model: &verispec_lm::MlpLm,
    preamble: &[u32],
    requests: &[Request],
    cfg: &ServeConfig,
    cost: &verispec_lm::GpuCostModel,
    run: &LoadRunReport,
    method: &str,
) {
    // Mirror the served fleet's prefix handling exactly (radix-tree
    // cache pre-warmed with the shared stem) so the batch reference
    // runs the identical admission path.
    let cfg = ServeConfig {
        prefix_cache: true,
        ..cfg.clone()
    };
    let mut engine = ServeEngine::new(model, cfg);
    engine.warm_prefix(preamble);
    for req in requests {
        engine.submit(req.clone());
    }
    let batch = engine.run(cost);
    assert_eq!(
        batch.completions.len(),
        run.report.completions.len(),
        "{method}: paced run lost requests"
    );
    assert_eq!(
        batch.shed, run.report.shed,
        "{method}: paced shedding diverged from batch"
    );
    for (a, b) in batch.completions.iter().zip(&run.report.completions) {
        assert_eq!(
            a.output.tokens, b.output.tokens,
            "{method}: paced output diverged from batch (request {})",
            a.id
        );
        assert_eq!(
            a.step_ticks, b.step_ticks,
            "{method}: paced schedule diverged from batch (request {})",
            a.id
        );
    }
}

/// Renders the sweep as the serve-aware Table II, policy A/B and
/// dispatch sweep included.
pub fn render_load_bench(rows: &[LoadBenchRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "Latency under load — serve-aware Table II (paced admission, equal offered load)\n",
    );
    out.push_str(
        "process  rate    method       policy    cap  wrk route        reqs shed  tokens  ticks  \
         tok/tick  acc%  TTFT p50/p90/p99      E2E p50/p90/p99 (ticks)  SLO%\n",
    );
    for r in rows {
        let cap = r
            .tick_capacity
            .map_or("  - ".to_string(), |c| format!("{c:>4}"));
        let acc = r
            .acceptance_rate
            .map_or("  - ".to_string(), |a| format!("{:>4.0}", 100.0 * a));
        let slo = r
            .slo_attainment
            .map_or("   -".to_string(), |s| format!("{:>4.0}", 100.0 * s));
        let q = &r.quantiles;
        out.push_str(&format!(
            "{:<8} {:<7.4} {:<12} {:<9} {} {:>4} {:<12} {:>4} {:>4} {:>7} {:>6} {:>9.2}  {}  \
             {:>5.0}/{:>5.0}/{:>6.0}  {:>7.0}/{:>7.0}/{:>8.0}  {}\n",
            r.process,
            r.offered_rate,
            r.method,
            r.policy,
            cap,
            r.workers,
            r.route,
            r.requests,
            r.shed_requests,
            r.tokens,
            r.ticks,
            r.tokens_per_tick,
            acc,
            q.ttft_ticks.p50,
            q.ttft_ticks.p90,
            q.ttft_ticks.p99,
            q.e2e_ticks.p50,
            q.e2e_ticks.p90,
            q.e2e_ticks.p99,
            slo,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;

    #[test]
    fn load_bench_sweeps_methods_at_equal_load_with_parity() {
        let scale = Scale {
            pipeline: PipelineConfig {
                corpus_size: 48,
                vocab: 380,
                n_heads: 3,
                epochs: 1,
                ..Default::default()
            },
            speed_prompt_count: 4,
            ..Scale::quick()
        };
        let pipe = Pipeline::build(scale.pipeline);
        // run_load_bench asserts paced == batch (and trace replay)
        // internally, so a clean return is itself the parity proof.
        let rows = run_load_bench(&scale, &pipe, ModelScale::Small, &[0.4, 1.5]);
        assert_eq!(
            rows.len(),
            2 * (3 + 3) + 1 + 9 + 2 + 18,
            "2 load levels x (3 methods + 3 policies) + dispatch reference + 3x3 sweep \
             + 2 fault-recovery cells + cache on/off x 3x3 zipf sweep"
        );
        // No cell vanished and every cell still measures something:
        // the gates the artifact bench runs before it writes.
        assert_eq!(load_gate_violations(&rows), Vec::<String>::new());
        for r in &rows {
            assert!(r.requests + r.shed_requests == 4, "served + shed = offered");
            assert!(r.parity, "rows are only recorded under proven parity");
            // Every dispatched cell (zipf sweep included) was
            // reproduced by the threaded runtime; single-engine rows
            // have no threaded twin.
            assert_eq!(
                r.threaded_parity,
                (r.route != SINGLE).then_some(true),
                "{}@{}",
                r.route,
                r.workers
            );
            let q = &r.quantiles;
            assert!(q.ttft_ticks.p99 >= q.ttft_ticks.p50);
            assert!(q.e2e_ticks.p99 >= q.e2e_ticks.p50);
            assert!(q.e2e_ticks.p50 >= q.ttft_ticks.p50);
        }
        // Equal offered load: every NTP level has its Ours-tree
        // counterpart at the identical rate; the one extra Ours-tree
        // single row is the dispatch sweep's reference.
        let ntp: Vec<_> = rows.iter().filter(|r| r.method == "NTP").collect();
        let ours: Vec<_> = rows
            .iter()
            .filter(|r| {
                r.method == "Ours-tree"
                    && r.policy == "static"
                    && r.tick_capacity.is_none()
                    && r.route == SINGLE
            })
            .collect();
        assert_eq!(ntp.len() + 1, ours.len());
        for n in &ntp {
            assert!(
                ours.iter().any(|o| o.offered_rate == n.offered_rate),
                "no Ours-tree row at NTP rate {}",
                n.offered_rate
            );
        }
        // The dispatch sweep, its fault cells and the zipf sweep all
        // run Ours-tree at one shared fleet-saturating offered load
        // (the reference row runs at it too).
        let top_rate = ntp.iter().map(|r| r.offered_rate).fold(f64::MIN, f64::max);
        let dispatch_rate = DISPATCH_LOAD_FACTOR * top_rate;
        assert!(
            ours.iter().any(|o| o.offered_rate == dispatch_rate),
            "dispatch reference row missing"
        );
        for r in rows.iter().filter(|r| r.route != SINGLE) {
            assert_eq!(r.method, "Ours-tree");
            assert_eq!(r.offered_rate, dispatch_rate, "{}@{}", r.route, r.workers);
        }
        // The policy A/B rows carry the new axes: a shared capacity,
        // SLO deadlines on every request, and measured acceptance.
        let policy_rows: Vec<_> = rows.iter().filter(|r| r.tick_capacity.is_some()).collect();
        assert_eq!(policy_rows.len(), 2 * 3);
        for r in &policy_rows {
            assert_eq!(r.method, "Ours-tree");
            assert_eq!(r.deadlines, 4, "every A/B request carries a deadline");
            assert!(r.slo_attainment.is_some());
            assert!(r.acceptance_rate.is_some(), "speculation was measured");
        }
        // The Zipf cache sweep: cache-on rows carry prefix telemetry
        // (the cache saw every admission) while cache-off rows stay
        // bare.
        for r in rows.iter().filter(|r| r.process == "zipf") {
            if r.policy == "cache-on" {
                assert_eq!(
                    r.prefix_hits + r.prefix_misses,
                    r.requests,
                    "{}@{}: every admission probes the cache once",
                    r.route,
                    r.workers
                );
            } else {
                assert!(
                    r.prefix_hit_rate.is_none(),
                    "{}@{}: cache-off row reports a hit-rate",
                    r.route,
                    r.workers
                );
            }
        }
        let rendered = render_load_bench(&rows);
        assert!(rendered.contains("NTP") && rendered.contains("Ours-tree"));
        assert!(rendered.contains("budgeted") && rendered.contains("adaptive"));
        assert!(rendered.contains("jsq") && rendered.contains("least-loaded"));
        assert!(rendered.contains("Table II"));
    }

    /// One hand-built cell: served 4 requests on `workers` workers,
    /// with a TTFT distribution and a hit rate the gates can compare.
    fn row(process: &str, method: &str, policy: &str, workers: usize, route: &str) -> LoadBenchRow {
        let mut worker_requests = vec![0; workers];
        worker_requests[0] = 4;
        let cached = policy == "cache-on";
        let ttft = verispec_load::QuantileSummary {
            n: 4,
            mean: if cached { 5.0 } else { 6.0 },
            p50: 4.0,
            p90: 9.0,
            p99: 9.0,
            max: 9.0,
        };
        LoadBenchRow {
            process: process.to_string(),
            offered_rate: 0.5,
            method: method.to_string(),
            policy: policy.to_string(),
            tick_capacity: None,
            workers,
            route: route.to_string(),
            worker_requests,
            parity: true,
            requests: 4,
            tokens: 80,
            ticks: 30,
            idle_ticks_skipped: 0,
            tokens_per_tick: 80.0 / 30.0,
            tokens_per_step: 2.0,
            quantiles: verispec_load::LatencyQuantiles {
                ttft_ticks: ttft,
                ..Default::default()
            },
            peak_resident_sessions: 4,
            slo_attainment: None,
            deadlines: 0,
            deadlines_met: 0,
            acceptance_rate: Some(0.5),
            shed_requests: 0,
            deferred_steps: 0,
            prefix_hits: if cached { 2 } else { 0 },
            prefix_misses: if cached { 2 } else { 0 },
            prefix_hit_rate: cached.then_some(if route == "prefix-affine" { 0.75 } else { 0.5 }),
            prefix_tokens_saved: 0,
            prefix_evictions: 0,
            peak_resident_nodes: 0,
            event_proposed_tokens: 80,
            event_accepted_tokens: 40,
            event_accept_violations: 0,
            threaded_parity: (route != SINGLE).then_some(true),
            worker_crashes: 0,
            migrations: 0,
            replay_tokens: 0,
            recovery_ttft_p99: None,
        }
    }

    /// A hand-built sweep that passes every gate: one row per cell
    /// [`load_gate_violations`] names.
    fn clean_sweep() -> Vec<LoadBenchRow> {
        let mut rows = vec![
            row("poisson", "Medusa-tree", "static", 1, SINGLE),
            row("poisson", "NTP", "static", 1, SINGLE),
        ];
        for policy in ["static", "adaptive", "budgeted"] {
            rows.push(row("poisson", "Ours-tree", policy, 1, SINGLE));
        }
        for workers in [1, 2, 4] {
            for route in ["rr", "jsq", "least-loaded"] {
                rows.push(row("poisson", "Ours-tree", "static", workers, route));
            }
        }
        for (scenario, workers, crashes) in [("worker-crash", 4, 1), ("crash-storm", 2, 2)] {
            let mut r = row("poisson", "Ours-tree", scenario, workers, "jsq");
            r.worker_crashes = crashes;
            r.migrations = 1;
            r.worker_requests[1] = 1;
            r.recovery_ttft_p99 = Some(12.0);
            rows.push(r);
        }
        for cache in ["cache-off", "cache-on"] {
            for workers in [1, 2, 4] {
                for route in ["rr", "least-loaded", "prefix-affine"] {
                    rows.push(row("zipf", "Ours-tree", cache, workers, route));
                }
            }
        }
        rows
    }

    /// The instrument's controls: a clean sweep reports nothing, and
    /// breaking one cell at a time reports exactly the gate that cell
    /// belongs to.
    #[test]
    fn load_gates_name_exactly_the_broken_cell() {
        assert_eq!(load_gate_violations(&clean_sweep()), Vec::<String>::new());

        type Break = fn(&mut Vec<LoadBenchRow>);
        fn at<'a>(
            rows: &'a mut [LoadBenchRow],
            policy: &str,
            workers: usize,
            route: &str,
        ) -> &'a mut LoadBenchRow {
            rows.iter_mut()
                .find(|r| r.policy == policy && r.workers == workers && r.route == route)
                .expect("cell of the clean sweep")
        }
        let cases: [(&str, &str, Break); 9] = [
            ("cache-ttft", "rr@2", |rows| {
                at(rows, "cache-on", 2, "rr").quantiles.ttft_ticks.p99 = 10.0
            }),
            ("cache-never-wins", "never beat", |rows| {
                for r in rows.iter_mut().filter(|r| r.policy == "cache-on") {
                    r.quantiles.ttft_ticks.mean = 6.0;
                }
            }),
            ("affine-hit-rate", "@2", |rows| {
                at(rows, "cache-on", 2, "prefix-affine").prefix_hit_rate = Some(0.5)
            }),
            ("cell-missing", "dispatch jsq@4", |rows| {
                rows.retain(|r| !(r.policy == "static" && r.workers == 4 && r.route == "jsq"))
            }),
            ("cell-missing", "policy budgeted", |rows| {
                rows.retain(|r| r.policy != "budgeted")
            }),
            ("fault-recovery", "worker-crash", |rows| {
                let r = at(rows, "worker-crash", 4, "jsq");
                r.migrations = 0;
                r.worker_requests[1] = 0;
            }),
            ("routing-sum", "least-loaded@2", |rows| {
                at(rows, "static", 2, "least-loaded").worker_requests[1] = 1
            }),
            ("accept-invariant", "rr@1", |rows| {
                at(rows, "static", 1, "rr").event_accept_violations = 1
            }),
            ("served-nothing", "NTP", |rows| {
                let r = rows.iter_mut().find(|r| r.method == "NTP");
                r.expect("NTP row").tokens = 0
            }),
        ];
        for (gate, detail, break_it) in cases {
            let mut rows = clean_sweep();
            break_it(&mut rows);
            let got = load_gate_violations(&rows);
            assert_eq!(got.len(), 1, "{gate} / {detail}: {got:?}");
            assert!(
                got[0].starts_with(&format!("{gate}: ")) && got[0].contains(detail),
                "{gate} / {detail}: {got:?}"
            );
        }
    }

    #[test]
    fn utilization_rates_scale_with_capacity() {
        let rates = rates_for_utilizations(&[0.25, 1.0], 8, 100.0);
        assert!((rates[0] - 0.02).abs() < 1e-9);
        assert!((rates[1] - 0.08).abs() < 1e-9);
        assert!(rates_for_utilizations(&[0.5], 4, 0.0)[0] > 0.0);
    }
}
