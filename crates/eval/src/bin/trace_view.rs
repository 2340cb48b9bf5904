//! Terminal viewer for saved `verispec-trace` event logs: renders the
//! per-request phase timeline, the top-N slowest-phase table, the
//! metrics-registry summary, and the flamegraph-style phase
//! attribution — and optionally re-exports the log as Chrome
//! trace-event JSON for Perfetto.
//!
//! Usage:
//!   cargo run -p verispec-eval --bin trace_view -- <events.json> \
//!     [--top N] [--chrome out.trace.json]
//!
//! `<events.json>` is a serialized event log
//! ([`verispec_trace::log_to_json`]), e.g. the committed golden log
//! `crates/load/tests/traces/eviction_churn.events.json`.

use verispec_trace::{
    attribute_phases, chrome_trace, log_from_json, render_flame, slowest_phases, timelines,
    MetricsRegistry, Phase, RequestTimeline,
};

/// Width of the timeline gutter in character cells.
const LANE_WIDTH: usize = 64;

fn usage() -> ! {
    eprintln!("usage: trace_view <events.json> [--top N] [--chrome out.trace.json]");
    std::process::exit(2);
}

/// One request's lane: a `LANE_WIDTH`-cell strip of the run's tick
/// range with each cell showing the phase occupying it (`.` queued,
/// `#` decode, `~` warmup, space = not alive).
fn lane(t: &RequestTimeline, horizon: u64) -> String {
    let scale = |tick: u64| ((tick as f64 / horizon.max(1) as f64) * LANE_WIDTH as f64) as usize;
    let mut cells = vec![' '; LANE_WIDTH + 1];
    for span in &t.phases {
        let glyph = match span.phase {
            Phase::Queued => '.',
            Phase::Warmup => '~',
            Phase::Decode => '#',
        };
        let len = cells.len();
        let (a, b) = (
            scale(span.start),
            scale(span.end).max(scale(span.start) + 1),
        );
        for cell in cells.iter_mut().take(b.min(len)).skip(a) {
            *cell = glyph;
        }
    }
    cells.into_iter().collect::<String>().trim_end().to_string()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    let mut top = 10usize;
    let mut chrome_out = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => top = n,
                None => usage(),
            },
            "--chrome" => match args.next() {
                Some(p) => chrome_out = Some(p),
                None => usage(),
            },
            _ if path.is_none() => path = Some(arg),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    let body = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("trace_view: {path}: {e}");
        std::process::exit(1);
    });
    let events = log_from_json(&body).unwrap_or_else(|e| {
        eprintln!("trace_view: {path}: not an event log: {e}");
        std::process::exit(1);
    });

    if let Some(out) = chrome_out {
        std::fs::write(&out, chrome_trace(&events)).unwrap_or_else(|e| {
            eprintln!("trace_view: {out}: {e}");
            std::process::exit(1);
        });
        println!("wrote Chrome trace-event JSON to {out} (open in ui.perfetto.dev)");
    }

    let lines = timelines(&events);
    let horizon = lines.values().map(RequestTimeline::end).max().unwrap_or(0);
    println!("== request timelines (ticks 0..{horizon}; . queued  ~ warmup  # decode)");
    for t in lines.values() {
        let outcome = match (t.shed, t.finished) {
            (Some(s), _) => format!("shed @{s}"),
            (None, Some(f)) => format!("fin @{f}"),
            (None, None) => "open".to_string(),
        };
        println!(
            "  req {:>4} w{} [{:<width$}] {:>9}  q={} d={} steps={} defers={}",
            t.request,
            t.worker,
            lane(t, horizon),
            outcome,
            t.ticks_in(Phase::Queued),
            t.ticks_in(Phase::Decode),
            t.steps,
            t.deferrals,
            width = LANE_WIDTH,
        );
    }

    println!("\n== top {top} slowest phases");
    println!(
        "  {:>5} {:>6} {:>7} {:>8} {:>8}",
        "ticks", "req", "worker", "phase", "start"
    );
    for p in slowest_phases(&events, top) {
        println!(
            "  {:>5} {:>6} {:>7} {:>8} {:>8}",
            p.ticks, p.request, p.worker, p.phase, p.start
        );
    }

    println!("\n== phase attribution");
    print!("{}", render_flame(&attribute_phases(&events)));

    println!("\n== metrics registry");
    print!("{}", MetricsRegistry::from_events(&events).render());
}
