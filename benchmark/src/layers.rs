//! Per-layer measurements taken from outside: direct probes of public
//! functions, and figures derived from the traced pass's spans and the
//! fleet's event stream. Each metric's row in README.md names the
//! end-to-end metric it is expected to move.
//!
//! Every value a timed call returns goes through `black_box` and
//! nowhere else, so a later change of a result layout (the ROADMAP's
//! flat-buffer item) still compiles here. Every time is corrected for
//! machine speed by the kernel readings taken around it (see `calib`).

use crate::calib;
use crate::metrics::Values;
use crate::setup::{self, Setup, MODEL_SCALE, PIPELINE};
use crate::spans::{durations, self_nanos, Recorder, Span};
use crate::stats::percentile;
use crate::workloads::{Engine, Pass, Serving, DECODE_SPANS};
use std::hint::black_box;
use std::time::Instant;
use verispec_core::TrainMethod;
use verispec_data::{alpaca_format, Corpus, CorpusConfig};
use verispec_eval::{stage_judge, Problem, StageOutcome};
use verispec_grammar::GrammarOracle;
use verispec_lm::{top_k_indices, LanguageModel, TokenId};
use verispec_load::LatencyReport;
use verispec_serve::{Backend, FleetRun, PrefixCache, ServeConfig, ServeEngine};
use verispec_tokenizer::BpeTrainer;
use verispec_trace::{chrome_trace, EventKind, MetricsRegistry};
use verispec_verilog::fragment::defragmentize;

/// Raw seconds of one call; for use inside a block that is corrected
/// as a whole.
fn secs<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// Corrected seconds of one call that takes a millisecond or more.
fn probe<T>(f: impl FnOnce() -> T) -> f64 {
    let (out, seconds) = calib::corrected(f);
    black_box(out);
    seconds
}

/// Runs a block that adds up raw seconds of many small calls; returns
/// what it returned and the slowdown to divide those sums by.
fn block<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (out, _, [before, after]) = calib::timed(f);
    (out, (before + after) / 2.0)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The positive control of the quality gate: every problem's reference
/// source, with the part the prompt already supplies stripped, must
/// parse, elaborate and pass. Returns the share that did and the mean
/// microseconds one judgement took.
pub fn control(problems: &[Problem]) -> (f64, f64) {
    let all = StageOutcome {
        parsed: true,
        elaborated: true,
        passed: true,
    };
    let mut ok = 0usize;
    let judging = probe(|| {
        for p in problems {
            let source = &p.module.source;
            let code = source.strip_prefix(p.completion_prefix()).unwrap_or(source);
            ok += (stage_judge(code, p, 0xBEEF) == all) as usize;
        }
    });
    let n = problems.len().max(1) as f64;
    (ok as f64 / n, judging * 1e6 / n)
}

/// Set-up replayed piece by piece (`Pipeline::build` does the first two
/// in one call).
pub fn setup_probes(setup: &Setup, v: &mut Values) {
    let mut corpus = None;
    v.set(
        "data.corpus_build_s",
        probe(|| {
            corpus = Some(Corpus::build(&CorpusConfig {
                size: PIPELINE.corpus_size,
                seed: PIPELINE.corpus_seed,
                ..Default::default()
            }))
        }),
    );
    let corpus = corpus.expect("built above");
    let texts: Vec<String> = corpus
        .items
        .iter()
        .flat_map(|it| {
            [
                alpaca_format(&it.description, &it.source),
                alpaca_format(&it.description, &it.tagged_source),
            ]
        })
        .collect();
    v.set(
        "tokenizer.train_s",
        probe(|| BpeTrainer::new(PIPELINE.vocab).train(texts.iter().map(String::as_str))),
    );
    // The Medusa and Ours models take ≈ 9 s each; the NTP model stands
    // for training speed at a seventh of the cost.
    v.set(
        "core.train_ntp_s",
        probe(|| setup::train(&setup.pipe, TrainMethod::Ntp)),
    );
    v.set(
        "grammar.oracle_build_ms",
        probe(|| GrammarOracle::from_tokenizer(&setup.pipe.tokenizer)) * 1e3,
    );
}

/// Tokenizer, fragmenter and parser over the reference designs.
pub fn text_probes(setup: &Setup, problems: &[Problem], v: &mut Values) {
    let tok = &setup.pipe.tokenizer;
    let n = problems.len().max(1) as f64;
    let prompts: Vec<String> = problems.iter().map(Problem::prompt_tagged).collect();
    let mut ids = Vec::new();
    let encode = probe(|| ids = prompts.iter().map(|p| tok.encode(p)).collect::<Vec<_>>());
    v.set("tokenizer.encode_us_per_prompt", encode * 1e6 / n);
    let mut texts = Vec::new();
    let decode = probe(|| texts = ids.iter().map(|i| tok.decode(i)).collect::<Vec<_>>());
    v.set("tokenizer.decode_us_per_sample", decode * 1e6 / n);
    let defrag = probe(|| texts.iter().map(|t| defragmentize(t)).collect::<Vec<_>>());
    v.set("verilog.defragmentize_us_per_sample", defrag * 1e6 / n);
    let parse = probe(|| {
        problems
            .iter()
            .map(|p| verispec_verilog::parse(&p.module.source).is_ok())
            .collect::<Vec<_>>()
    });
    v.set("verilog.parse_us_per_module", parse * 1e6 / n);
}

/// The session kernels on one `model.session()` of the Ours model, in
/// the shapes one decode step at tree `[2,2]` uses.
pub fn lm_probes(setup: &Setup, prompt: &[TokenId], v: &mut Values) {
    const ROUNDS: usize = 200;
    let model = &setup.ours;
    let mut session = model.session();

    let append = probe(|| {
        for _ in 0..ROUNDS / 10 {
            session.truncate(0);
            session.append(prompt);
        }
    });
    v.set(
        "lm.append_ns_per_token",
        append * 1e9 / (ROUNDS / 10 * prompt.len().max(1)) as f64,
    );

    let fork = probe(|| {
        for _ in 0..ROUNDS {
            black_box(session.fork());
        }
    });
    v.set("lm.fork_us", fork * 1e6 / ROUNDS as f64);

    // The candidate tree of one step: head 1's top 2, each followed by
    // head 2's top 2. Acceptance reads a row per proper prefix, so the
    // leaves are never forwarded.
    let heads = session.multi_logits();
    let first = top_k_indices(&heads[1], 2);
    let second = top_k_indices(&heads[2], 2);
    let paths: Vec<Vec<TokenId>> = first
        .iter()
        .flat_map(|&a| second.iter().map(move |&b| vec![a, b]))
        .collect();
    let paths: Vec<&[TokenId]> = paths.iter().map(Vec::as_slice).collect();
    let nodes = 1 + first.len();

    let base = session.len();
    let ((multi, verify), slow) = block(|| {
        let (mut multi, mut verify) = (0.0, 0.0);
        for round in 0..ROUNDS {
            // A fresh position each round: the session caches its trunk
            // activation, so asking twice at one position measures nothing.
            session.append(&[first[round % first.len()]]);
            multi += secs(|| session.multi_logits());
            verify += secs(|| session.verify_batch(&paths, false));
            if session.len() > base + 8 {
                session.truncate(base);
            }
        }
        (multi, verify)
    });
    v.set("lm.multi_logits_us", multi / slow * 1e6 / ROUNDS as f64);
    v.set(
        "lm.verify_batch_us_per_node",
        verify / slow * 1e6 / (ROUNDS * nodes) as f64,
    );

    // Computed from tensor sizes, not measured: one verify node is one
    // trunk forward plus the base head.
    let c = PIPELINE;
    let lm = MODEL_SCALE.lm_config(model.vocab_size(), c.n_heads, c.seed);
    let trunk = lm.d_hidden * lm.context * lm.d_emb;
    let head = lm.vocab * lm.d_hidden;
    v.set("lm.flops_per_node", (2 * (trunk + head)) as f64);
    v.set(
        "lm.bytes_per_node",
        (4 * (trunk + lm.d_hidden + head + lm.vocab)) as f64,
    );
}

/// `PrefixCache::{lookup, insert}` driven directly over the workload's
/// prompts the way admission drives them, evicting down to the fleet
/// workloads' session cap after each insert.
pub fn prefix_probes(setup: &Setup, prompts: &[&[TokenId]], v: &mut Values) {
    const CAP: usize = 32;
    let mut cache = PrefixCache::new();
    let ((lookup, insert), slow) = block(|| {
        let (mut lookup, mut insert) = (0.0, 0.0);
        for &prompt in prompts {
            let t = Instant::now();
            let hit = cache.lookup(prompt);
            lookup += t.elapsed().as_secs_f64();
            let (mut work, matched) = match hit {
                Some((fork, depth)) => (fork, depth),
                None => (
                    setup
                        .ours
                        .snapshot_session()
                        .expect("MlpLm sessions snapshot"),
                    0,
                ),
            };
            work.append(&prompt[matched..]);
            insert += secs(|| {
                cache.insert(prompt, &mut |depth| {
                    let mut snap = work.fork_snapshot();
                    snap.truncate(depth);
                    snap
                });
                while cache.resident() > CAP && cache.evict_lru() {}
            });
        }
        (lookup, insert)
    });
    let n = prompts.len().max(1) as f64;
    v.set("serve.prefix.lookup_us", lookup / slow * 1e6 / n);
    v.set("serve.prefix.insert_us", insert / slow * 1e6 / n);
}

/// Figures of the offline pass that come from its spans (raw
/// nanoseconds, corrected here by the pass's mean slowdown).
pub fn offline_layers(pass: &Pass, spans: &[Span], v: &mut Values) {
    let count = |name: &str| pass.counts.iter().find(|(n, _)| *n == name).map(|c| c.1);
    let us = 1e-3 / pass.slowdown;
    let mut per_step = [0.0; 4];
    for engine in Engine::ALL {
        let total_us = durations(spans, DECODE_SPANS[engine as usize])
            .iter()
            .sum::<f64>()
            * us;
        let steps = pass.engine_steps[engine as usize];
        per_step[engine as usize] = if steps > 0 {
            total_us / steps as f64
        } else {
            0.0
        };
        v.set(DECODE_US[engine as usize], per_step[engine as usize]);
    }
    let ours = per_step[Engine::Ours as usize];
    let grammar = per_step[Engine::Grammar as usize];
    v.set(
        "grammar.step_overhead_frac",
        if ours > 0.0 {
            grammar / ours - 1.0
        } else {
            0.0
        },
    );
    // An estimate, not a measurement: the step time left after the lm
    // calls one step makes (one multi_logits, one verify of the three
    // non-leaf nodes, one append per committed token), priced at what
    // the kernel probes measured.
    let tok_per_step = count("core.tok_per_step.ours").unwrap_or(0.0);
    let lm_us = v.get("lm.multi_logits_us").unwrap_or(0.0)
        + 3.0 * v.get("lm.verify_batch_us_per_node").unwrap_or(0.0)
        + tok_per_step * v.get("lm.append_ns_per_token").unwrap_or(0.0) / 1e3;
    v.set("core.self_us_per_step.ours", (ours - lm_us).max(0.0));
    v.set(
        "eval.judge_us_per_sample",
        mean(&durations(spans, "eval.judge")) * us,
    );
    v.set(
        "trace.span_residual_frac",
        span_residual(spans, "offline.sample"),
    );
}

const DECODE_US: [&str; 4] = [
    "core.decode_us_per_step.ntp",
    "core.decode_us_per_step.medusa",
    "core.decode_us_per_step.ours",
    "core.decode_us_per_step.grammar",
];

/// Share of the time under spans called `root` that none of their
/// direct children covers.
pub fn span_residual(spans: &[Span], root: &str) -> f64 {
    let own = self_nanos(spans);
    let (mut total, mut residual) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(own) {
        if s.name == root {
            total += s.nanos();
            residual += own;
        }
    }
    if total == 0 {
        0.0
    } else {
        residual as f64 / total as f64
    }
}

/// One `ServeEngine` driven by hand over the workload's requests, a
/// span per call. Returns the seconds spent inside the engine.
pub fn engine_probe(
    setup: &Setup,
    work: &Serving,
    run: &FleetRun,
    rec: &mut Recorder,
    v: &mut Values,
) -> f64 {
    let first = rec.spans().len();
    let mut engine = ServeEngine::new(&setup.ours, work.cfg.clone()).with_grammar(&setup.oracle);
    let ((), slow) = block(|| {
        for r in work.requests.iter().cloned() {
            let id = Some(r.id);
            rec.span("serve.engine.submit", id, |_| engine.submit(r));
        }
        while engine.has_work() {
            rec.span("serve.engine.tick", None, |_| {
                black_box(engine.tick(&setup.cost));
            });
        }
    });
    let stats = *engine.stats();
    let spans = &rec.spans()[first..];
    let corrected = |name: &str| {
        let mut ns: Vec<f64> = durations(spans, name).iter().map(|d| d / slow).collect();
        ns.sort_by(f64::total_cmp);
        ns
    };
    let submit = corrected("serve.engine.submit");
    let tick = corrected("serve.engine.tick");
    let inside_s = (submit.iter().sum::<f64>() + tick.iter().sum::<f64>()) / 1e9;
    let steps: usize = run.report.completions.iter().map(|c| c.output.steps).sum();
    v.set(
        "serve.engine.submit_us_p50",
        percentile(&submit, 50.0) / 1e3,
    );
    v.set("serve.engine.tick_ms_p50", percentile(&tick, 50.0) / 1e6);
    v.set("serve.engine.tick_ms_p95", percentile(&tick, 95.0) / 1e6);
    v.set("serve.engine.ticks", stats.ticks as f64);
    v.set(
        "serve.engine.batch_mean",
        steps as f64 / stats.ticks.max(1) as f64,
    );
    v.set(
        "serve.engine.tick_us_per_node",
        if stats.fused_verify_nodes == 0 {
            0.0
        } else {
            tick.iter().sum::<f64>() / 1e3 / stats.fused_verify_nodes as f64
        },
    );
    inside_s
}

/// Figures of a serving pass that need the event stream or a second
/// runtime: routing, runtime overheads, and the trace layer's own cost.
pub fn serving_layers(
    setup: &Setup,
    work: &Serving,
    run: &FleetRun,
    untraced_wall_s: f64,
    engine_inside_s: f64,
    v: &mut Values,
) {
    let routed: Vec<bool> = run
        .events
        .iter()
        .filter_map(|ev| match &ev.kind {
            EventKind::Routed { probes, .. } => {
                Some(probes.get(ev.worker as usize).is_some_and(|&d| d > 0))
            }
            _ => None,
        })
        .collect();
    v.set(
        "serve.dispatch.affine_share",
        routed.iter().filter(|&&warm| warm).count() as f64 / routed.len().max(1) as f64,
    );
    v.set("trace.events", run.events.len() as f64);
    v.set(
        "trace.fold_ms",
        probe(|| MetricsRegistry::from_events(&run.events)) * 1e3,
    );
    v.set(
        "trace.chrome_export_ms",
        probe(|| chrome_trace(&run.events)) * 1e3,
    );
    v.set(
        "load.report_ms",
        probe(|| LatencyReport::new(&work.requests, &run.report.completions)) * 1e3,
    );

    if work.workers == 1 {
        // One worker under the runtime against the same engine driven
        // by hand: what the facade, routing and report merging add.
        v.set(
            "serve.runtime.overhead_frac",
            untraced_wall_s / engine_inside_s - 1.0,
        );
        // The fused path against the same requests one at a time.
        let single = ServeConfig {
            max_active: 1,
            max_batch: 1,
            ..work.cfg.clone()
        };
        let (one, one_s) = calib::corrected(|| {
            work.drive(setup, &work.requests, &single, Backend::Lockstep, false)
        });
        let fused_tok_s = run.report.total_tokens() as f64 / untraced_wall_s;
        v.set(
            "serve.engine.fusion_gain",
            fused_tok_s / (one.report.total_tokens() as f64 / one_s),
        );
    }
}

/// One untimed pass of a fleet workload on the threaded backend: it
/// must schedule exactly as the lockstep oracle did. Returns whether it
/// did, and its wall seconds corrected for machine speed (the base of
/// `serve.threaded.speedup`).
pub fn threaded_check(setup: &Setup, work: &Serving, lockstep: &FleetRun) -> (bool, f64) {
    let (threaded, seconds) =
        calib::corrected(|| work.drive(setup, &work.requests, &work.cfg, Backend::Threaded, false));
    (threaded.report.same_schedule(&lockstep.report), seconds)
}
