//! The repo's benchmark: four wall-clock workloads, the simulated and
//! the real speedup side by side, and a per-layer ledger measured from
//! outside. See README.md; `BENCHMARK.json` at the repo root is the
//! contract this program is run under.
//!
//! ```text
//! run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! compare A.json B.json
//! ```

mod calib;
mod compare;
mod layers;
mod metrics;
mod setup;
mod spans;
mod stats;
mod workloads;

use metrics::{Def, Values, END_TO_END, PER_LAYER};
use serde::Value;
use setup::Setup;
use spans::{Recorder, Span};
use stats::{median, percentile, supported_percentile, Spread};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use verispec_eval::Problem;
use verispec_lm::TokenId;
use workloads::{reference_problems, Kind, Pass, Prepared, Size};

/// Set-up is cheap once the models are on disk, so it is timed several
/// times per run and reported as the median.
const SETUP_REPEATS: usize = 7;

/// Timed passes never fall below this, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Options {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|o| run(&o)),
        Some("compare") if args.len() == 3 => compare::compare(
            Path::new(&args[1]),
            Path::new(&args[2]),
            &repo_dir().join("BENCHMARK.json"),
        ),
        _ => Err(
            "usage: run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] \
                  | compare A.json B.json"
                .to_string(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn parse_run(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read {value:?}");
        match flag.as_str() {
            "--workload" => o.workload = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds >= 0.0 && o.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(o)
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn repo_dir() -> PathBuf {
    bench_dir()
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_default()
}

/// What one (workload, trace mode) run produced.
struct Outcome {
    kind: Kind,
    traced: bool,
    metrics: Vec<(Def, f64)>,
    /// Per-pass values behind the wall-clock metrics, for `compare`.
    spreads: Vec<(&'static str, Spread)>,
    correct: bool,
    attempted: usize,
    failed: usize,
    digest: String,
    passes: usize,
    latency_samples: usize,
    notes: Vec<String>,
    spans: Vec<Span>,
}

fn run(o: &Options) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err(
            "this is a debug build; the benchmark measures release builds only \
                    (cargo run --release)"
                .into(),
        );
    }
    let out = bench_dir().join("out");
    let (models, trained_s) = setup::ensure_models(&out, &repo_dir())?;
    let kinds: Vec<Kind> = o.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    let modes: Vec<bool> = o.trace.map_or(vec![false, true], |t| vec![t]);

    let mut outcomes = Vec::new();
    for &kind in &kinds {
        for &traced in &modes {
            reset_peak_rss();
            let outcome = measure(kind, traced, o, &models)?;
            print_outcome(&outcome, o);
            outcomes.push(outcome);
        }
    }

    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let write = |name: &str, value: &Value| {
        let path = out.join(name);
        let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write("result.json", &result_json(&outcomes, o, trained_s))?;
    if let Some(traced) = outcomes.iter().rev().find(|x| x.traced) {
        write("spans.json", &serde::Serialize::to_value(&traced.spans))?;
    }

    // The contract's result line: the last line of standard output.
    let last = outcomes.last().expect("at least one workload ran");
    println!(
        "{}",
        serde_json::to_string(&result_line(last)).map_err(|e| e.to_string())?
    );
    Ok(true)
}

/// Set-up, `SETUP_REPEATS` times over: the last set-up and workload,
/// the corrected seconds of each, and the milliseconds each spent
/// generating the workload's inputs.
fn timed_setups(
    kind: Kind,
    o: &Options,
    models: &Path,
) -> Result<(Setup, Prepared, Vec<f64>, Vec<f64>), String> {
    let size = if o.smoke { Size::SMOKE } else { Size::FULL };
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let (result, raw_s, [before, after]) = calib::timed(|| {
            let setup = Setup::build(models)?;
            let generating = Instant::now();
            let prepared = Prepared::new(kind, &setup, o.seed, size);
            Ok::<_, String>((setup, prepared, generating.elapsed().as_secs_f64()))
        });
        let (setup, prepared, generate_s) = result?;
        let slow = (before + after) / 2.0;
        generate_ms.push(generate_s / slow * 1e3);
        setup_s.push(raw_s / slow);
        built = Some((setup, prepared));
    }
    let (setup, prepared) = built.expect("SETUP_REPEATS > 0");
    Ok((setup, prepared, setup_s, generate_ms))
}

fn measure(kind: Kind, traced: bool, o: &Options, models: &Path) -> Result<Outcome, String> {
    let (seconds, min_passes) = if o.smoke {
        (0.0, 2)
    } else {
        (o.seconds, MIN_PASSES)
    };
    let mut notes = Vec::new();
    let (setup, prepared, setup_s, generate_ms) = timed_setups(kind, o, models)?;

    // (a) The instruments are tested before they are believed.
    let problems = reference_problems();
    let (control_rate, judge_us) = layers::control(&problems);
    let mut correct = control_rate == 1.0;
    if !correct {
        notes.push(format!("positive control failed: pass rate {control_rate}"));
    }

    // Warm-up, then timed passes (alternating with traced ones in the
    // traced run, so both see the same machine).
    let warm_up = prepared.pass(&setup);
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    let mut recorder = Recorder::new();
    let floor = if traced { 1 } else { min_passes };
    let started = Instant::now();
    while untraced.len() < floor || started.elapsed().as_secs_f64() < seconds {
        keep_last_run(&mut untraced);
        untraced.push(prepared.pass(&setup));
        if traced {
            // Only the newest traced pass keeps its spans.
            recorder = Recorder::new();
            keep_last_run(&mut traced_passes);
            traced_passes.push(prepared.traced_pass(&setup, &mut recorder));
        }
    }

    // Every pass did the same work: same outputs, same counts.
    for pass in untraced.iter().chain(&traced_passes) {
        if pass.digest != warm_up.digest || pass.counts != warm_up.counts {
            correct = false;
            notes.push("a pass did not repeat the warm-up's outputs and counts".into());
            break;
        }
    }

    // A pass the machine changed speed under is not counted; when that
    // leaves too few, the steadiest few are.
    let last = untraced.last().expect("at least one timed pass");
    let mut counted: Vec<&Pass> = untraced.iter().collect();
    counted.sort_by(|a, b| a.unsteadiness.total_cmp(&b.unsteadiness));
    let steady = counted
        .iter()
        .filter(|p| p.unsteadiness <= calib::STEADY_WITHIN)
        .count();
    counted.truncate(steady.max(floor));
    notes.push(match untraced.len() - counted.len() {
        0 => format!("all {} timed passes counted", counted.len()),
        skipped => format!(
            "{} timed passes counted ({steady} steady); {skipped} more straddled a change \
             of machine speed",
            counted.len()
        ),
    });
    let per_pass = |f: fn(&Pass) -> f64| counted.iter().map(|p| f(p)).collect::<Vec<f64>>();
    let slow = Spread::of(&per_pass(|p| p.slowdown));
    notes.push(format!(
        "times are corrected for machine speed: slowdown against the nominal kernel \
         median {:.3} (min {:.3}, max {:.3}); raw tok_s median {:.1}; \
         next-token-prediction leg tok_s median {:.1}",
        slow.median,
        slow.min,
        slow.max,
        median(&per_pass(|p| p.tokens as f64 / p.raw_wall_s)),
        median(&per_pass(|p| p.ntp.tok_s()))
    ));

    let mut failed: usize = untraced.iter().map(|p| p.failed).sum();
    let attempted: usize = untraced.iter().map(|p| p.attempted).sum();
    let mut threaded_wall_s = None;
    if let (Prepared::Serving(work), Some(run)) = (&prepared, &last.run) {
        // (b) a fixed 5 % of the requests, re-decoded serially.
        let (checked, mismatched) = work.serial_mismatches(&setup, run);
        notes.push(format!(
            "serial re-decode: {checked} requests checked, {mismatched} differ"
        ));
        failed += mismatched;
        correct &= mismatched == 0;
        // (c) the fleets: threaded must schedule exactly as the
        // lockstep oracle.
        if work.paced {
            let (same, wall_s) = layers::threaded_check(&setup, work, run);
            notes.push(format!("threaded == lockstep schedule: {same}"));
            correct &= same;
            threaded_wall_s = Some(wall_s);
            notes.push("open loop in tick space: generator lateness 0 by construction".into());
        }
    }

    let mut v = Values::default();
    let mut spreads = Vec::new();
    let mut latency_samples = 0;
    if traced {
        let pass = traced_passes.last().expect("a traced pass ran");
        v.set("eval.control_pass_rate", control_rate);
        v.set("sim.judge_us_per_design", judge_us);
        v.set("load.generate_ms", median(&generate_ms));
        let traced_wall = median(&traced_passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        let untraced_wall = median(&per_pass(|p| p.wall_s));
        v.set("trace.overhead_frac", traced_wall / untraced_wall - 1.0);
        per_layer(
            &setup,
            &prepared,
            &problems,
            pass,
            untraced_wall,
            threaded_wall_s,
            &mut recorder,
            &mut v,
        );
        if let Prepared::Offline(_) = prepared {
            let mut tree = spans::durations(recorder.spans(), "offline.sample");
            tree.sort_by(f64::total_cmp);
            let mut lat = last.lat_ms.clone();
            lat.sort_by(f64::total_cmp);
            notes.push(format!(
                "per-sample span tree p50 {:.4} ms against untraced lat p50 {:.4} ms",
                percentile(&tree, 50.0) / 1e6 / pass.slowdown,
                percentile(&lat, 50.0)
            ));
        }
    } else {
        latency_samples = end_to_end(&counted, &setup_s, &mut v, &mut spreads, &mut notes)?;
    }

    let table = if traced { PER_LAYER } else { END_TO_END };
    Ok(Outcome {
        kind,
        traced,
        metrics: v.in_order(table, traced)?,
        spreads,
        correct,
        attempted,
        failed,
        digest: warm_up.digest.hex(),
        passes: counted.len(),
        latency_samples,
        notes,
        spans: recorder.into_spans(),
    })
}

/// The ten end-to-end metrics from the counted passes. Returns the size
/// of the pooled latency sample.
fn end_to_end(
    counted: &[&Pass],
    setup_s: &[f64],
    v: &mut Values,
    spreads: &mut Vec<(&'static str, Spread)>,
    notes: &mut Vec<String>,
) -> Result<usize, String> {
    let mut per_pass = |name: &'static str, f: &dyn Fn(&Pass) -> f64| {
        let values: Vec<f64> = counted.iter().map(|p| f(p)).collect();
        let spread = Spread::of(&values);
        spreads.push((name, spread));
        spread.median
    };
    v.set("tok_s", per_pass("tok_s", &Pass::tok_s));
    v.set(
        "real_speedup",
        per_pass("real_speedup", &Pass::real_speedup),
    );
    v.set("sim_speedup", per_pass("sim_speedup", &Pass::sim_speedup));
    // Latencies are pooled over the counted passes; the per-pass
    // percentiles only feed the noise figure `compare` uses.
    type Sample = fn(&Pass) -> &Vec<f64>;
    let latencies: [(&'static str, Sample, f64); 5] = [
        ("lat_p50_ms", |p| &p.lat_ms, 50.0),
        ("lat_p95_ms", |p| &p.lat_ms, 95.0),
        ("ttft_p50_ms", |p| &p.ttft_ms, 50.0),
        ("ttft_p95_ms", |p| &p.ttft_ms, 95.0),
        ("tpot_p50_ms", |p| &p.tpot_ms, 50.0),
    ];
    let mut latency_samples = 0;
    let percentile_of = |mut sample: Vec<f64>, p: f64| {
        sample.sort_by(f64::total_cmp);
        percentile(&sample, p)
    };
    for (name, sample, p) in latencies {
        let pooled: Vec<f64> = counted
            .iter()
            .flat_map(|pass| sample(pass).clone())
            .collect();
        let n = pooled.len();
        v.set(name, percentile_of(pooled, p));
        per_pass(name, &|pass: &Pass| percentile_of(sample(pass).clone(), p));
        latency_samples = latency_samples.max(n);
        if (supported_percentile(n) as f64) < p {
            notes.push(format!(
                "{name}: only {n} samples, the rule supports p{}",
                supported_percentile(n)
            ));
        }
    }
    v.set("peak_rss_mb", peak_rss_mb()?);
    let setup_spread = Spread::of(setup_s);
    spreads.push(("setup_s", setup_spread));
    v.set("setup_s", setup_spread.median);
    Ok(latency_samples)
}

/// The per-layer metrics: the traced pass's counts and spans, then the
/// direct probes.
#[allow(clippy::too_many_arguments)] // one call site; the pieces of one run
fn per_layer(
    setup: &Setup,
    prepared: &Prepared,
    problems: &[Problem],
    pass: &Pass,
    untraced_wall: f64,
    threaded_wall_s: Option<f64>,
    recorder: &mut Recorder,
    v: &mut Values,
) {
    v.extend(&pass.counts);
    layers::setup_probes(setup, v);
    layers::text_probes(setup, problems, v);
    let tagged: Vec<Vec<TokenId>> = problems
        .iter()
        .map(|p| setup.pipe.tokenizer.encode(&p.prompt_tagged()))
        .collect();
    layers::lm_probes(setup, &tagged[0], v);
    match (prepared, &pass.run) {
        (Prepared::Serving(work), Some(run)) => {
            let prompts: Vec<&[TokenId]> =
                work.requests.iter().map(|r| r.prompt.as_slice()).collect();
            layers::prefix_probes(setup, &prompts, v);
            let inside_s = layers::engine_probe(setup, work, run, recorder, v);
            layers::serving_layers(setup, work, run, untraced_wall, inside_s, v);
            if let Some(threaded) = threaded_wall_s {
                v.set("serve.threaded.speedup", untraced_wall / threaded);
            }
        }
        _ => {
            let prompts: Vec<&[TokenId]> = tagged.iter().map(Vec::as_slice).collect();
            layers::prefix_probes(setup, &prompts, v);
            layers::offline_layers(pass, recorder.spans(), v);
        }
    }
}

/// Completions are only needed from the newest pass; dropping the rest
/// keeps resident memory from growing with the number of passes.
fn keep_last_run(passes: &mut [Pass]) {
    if let Some(previous) = passes.last_mut() {
        previous.run = None;
    }
}

fn print_outcome(x: &Outcome, o: &Options) {
    println!(
        "# {} seed={} trace={} passes={} (+1 warm-up){} attempted={} failed={} correct={} output_digest={}",
        x.kind.name(),
        o.seed,
        x.traced as u8,
        x.passes,
        if x.traced {
            String::new()
        } else {
            format!(" latency_samples={}", x.latency_samples)
        },
        x.attempted,
        x.failed,
        x.correct,
        x.digest
    );
    for (def, value) in &x.metrics {
        let spread = x.spreads.iter().find(|(n, _)| *n == def.name);
        let tail = match spread {
            Some((_, s)) if s.n > 1 => format!(
                "   per pass: q1 {:.6} q3 {:.6} min {:.6} max {:.6} n {}",
                s.q1, s.q3, s.min, s.max, s.n
            ),
            _ => String::new(),
        };
        println!("{:<40} {:>16.6} {}{}", def.name, value, def.unit, tail);
    }
    for note in &x.notes {
        println!("# {note}");
    }
}

fn result_line(x: &Outcome) -> Value {
    let metrics = x
        .metrics
        .iter()
        .map(|(def, value)| {
            (
                Value::Str(def.name.into()),
                map(vec![
                    ("value", Value::Float(*value)),
                    ("unit", Value::Str(def.unit.into())),
                ]),
            )
        })
        .collect();
    map(vec![
        ("correct", Value::Bool(x.correct)),
        ("attempted", Value::UInt(x.attempted.max(1) as u64)),
        ("failed", Value::UInt(x.failed as u64)),
        ("metrics", Value::Map(metrics)),
    ])
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (Value::Str(k.into()), v))
            .collect(),
    )
}

/// `out/result.json`: what `compare` reads.
fn result_json(outcomes: &[Outcome], o: &Options, trained_s: f64) -> Value {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let meta = map(vec![
        ("seed", Value::UInt(o.seed)),
        ("seconds", Value::Float(o.seconds)),
        ("smoke", Value::Bool(o.smoke)),
        ("nproc", Value::UInt(threads as u64)),
        (
            // What the kernels' pool ceiling resolves to: the override
            // when set to a positive integer, else the core count.
            "verispec_threads",
            Value::UInt(
                std::env::var("VERISPEC_THREADS")
                    .ok()
                    .and_then(|s| s.trim().parse::<u64>().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or(threads as u64),
            ),
        ),
        ("rustc", Value::Str(command_line("rustc", &["-V"]))),
        (
            "git_revision",
            Value::Str(command_line(
                "git",
                &["-C", &repo_dir().to_string_lossy(), "rev-parse", "HEAD"],
            )),
        ),
        ("model_training_s", Value::Float(trained_s)),
    ]);
    let runs = outcomes
        .iter()
        .map(|x| {
            let metrics = x
                .metrics
                .iter()
                .map(|(def, value)| {
                    let mut entry = vec![
                        ("value", Value::Float(*value)),
                        ("unit", Value::Str(def.unit.into())),
                        ("exact", Value::Bool(def.exact)),
                    ];
                    if let Some((_, s)) = x.spreads.iter().find(|(n, _)| *n == def.name) {
                        entry.extend([
                            ("n", Value::UInt(s.n as u64)),
                            ("pass_median", Value::Float(s.median)),
                            ("q1", Value::Float(s.q1)),
                            ("q3", Value::Float(s.q3)),
                            ("min", Value::Float(s.min)),
                            ("max", Value::Float(s.max)),
                        ]);
                    }
                    (Value::Str(def.name.into()), map(entry))
                })
                .collect();
            map(vec![
                ("workload", Value::Str(x.kind.name().into())),
                ("trace", Value::Bool(x.traced)),
                ("passes", Value::UInt(x.passes as u64)),
                ("latency_samples", Value::UInt(x.latency_samples as u64)),
                ("correct", Value::Bool(x.correct)),
                ("attempted", Value::UInt(x.attempted as u64)),
                ("failed", Value::UInt(x.failed as u64)),
                ("output_digest", Value::Str(x.digest.clone())),
                (
                    "notes",
                    Value::Seq(x.notes.iter().cloned().map(Value::Str).collect()),
                ),
                ("metrics", Value::Map(metrics)),
            ])
        })
        .collect();
    map(vec![("meta", meta), ("runs", Value::Seq(runs))])
}

/// First line a command prints, or `unknown` (the driver's checkout is
/// not a git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Resets the kernel's high-water mark of resident memory so each
/// workload of a several-workload run reports its own peak. Where
/// `/proc/self/clear_refs` cannot be written the peak is the process's.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
