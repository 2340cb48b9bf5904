//! Flamegraph-style per-phase cost attribution.
//!
//! Sums the tick cost of every lifecycle phase across all requests in
//! an event log into a hierarchy of semicolon-joined frames
//! (`request;queued`, `request;decode;deferred`, …) — the collapsed
//! stack format flamegraph tooling consumes — and renders it as a
//! sorted bar chart for the terminal.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::event::{EventKind, TraceEvent};
use crate::timeline::{timelines, Phase, RequestTimeline};

/// Aggregate cost of one frame in the phase hierarchy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PhaseCost {
    /// Semicolon-joined frame path (collapsed-stack convention).
    pub path: String,
    /// Total ticks attributed to the frame across all requests.
    pub ticks: u64,
    /// Requests that contributed to the frame.
    pub requests: u64,
}

/// Sums per-phase tick costs across all requests in a log.
///
/// Returned frames are path-sorted; `request` is the root frame whose
/// ticks are the sum of every request's submitted→end lifetime.
pub fn attribute_phases(events: &[TraceEvent]) -> Vec<PhaseCost> {
    let mut frames: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut add = |path: &'static str, ticks: u64| {
        if ticks > 0 {
            let e = frames.entry(path).or_insert((0, 0));
            e.0 += ticks;
            e.1 += 1;
        }
    };
    for tl in timelines(events).values() {
        add("request", tl.end() - tl.submitted);
        add("request;queued", tl.ticks_in(Phase::Queued));
        // Warmup nests inside decode, so the decode frame keeps only
        // the post-warmup remainder and the hierarchy sums cleanly.
        let warm = tl.ticks_in(Phase::Warmup);
        add("request;decode", tl.ticks_in(Phase::Decode) - warm);
        add("request;decode;warmup", warm);
        add("request;decode;deferred", tl.deferrals as u64);
    }
    // Engine idle time is fleet-scoped, not per-request.
    let idle: u64 = events
        .iter()
        .map(|e| match e.kind {
            EventKind::IdleSkip { skipped } => skipped,
            _ => 0,
        })
        .sum();
    if idle > 0 {
        frames.insert("engine;idle", (idle, 1));
    }
    frames
        .into_iter()
        .map(|(path, (ticks, requests))| PhaseCost {
            path: path.to_string(),
            ticks,
            requests,
        })
        .collect()
}

/// Renders attributed frames as a tick-sorted horizontal bar chart.
pub fn render_flame(costs: &[PhaseCost]) -> String {
    let mut sorted: Vec<&PhaseCost> = costs.iter().collect();
    sorted.sort_by(|a, b| b.ticks.cmp(&a.ticks).then(a.path.cmp(&b.path)));
    let max = sorted.first().map(|c| c.ticks).unwrap_or(0).max(1);
    let width = sorted.iter().map(|c| c.path.len()).max().unwrap_or(0);
    let mut out = String::new();
    for c in sorted {
        let bar = (c.ticks * 40 / max) as usize;
        out.push_str(&format!(
            "{:<width$}  {:>8}t  {:>5}req  {}\n",
            c.path,
            c.ticks,
            c.requests,
            "#".repeat(bar.max(1)),
        ));
    }
    out
}

/// One row of the slowest-phase table: a single request's single
/// phase interval.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SlowPhase {
    /// Request id.
    pub request: u64,
    /// Worker serving it.
    pub worker: u32,
    /// Phase name.
    pub phase: String,
    /// Interval start tick.
    pub start: u64,
    /// Ticks spent in the interval.
    pub ticks: u64,
}

/// The `n` costliest single phase intervals across all requests,
/// slowest first (ties broken by request id then start tick for
/// deterministic output).
pub fn slowest_phases(events: &[TraceEvent], n: usize) -> Vec<SlowPhase> {
    let mut rows: Vec<SlowPhase> = timelines(events)
        .values()
        .flat_map(|tl: &RequestTimeline| {
            tl.phases.iter().map(|s| SlowPhase {
                request: tl.request,
                worker: tl.worker,
                phase: s.phase.name().to_string(),
                start: s.start,
                ticks: s.ticks(),
            })
        })
        .collect();
    rows.sort_by(|a, b| {
        b.ticks
            .cmp(&a.ticks)
            .then(a.request.cmp(&b.request))
            .then(a.start.cmp(&b.start))
    });
    rows.truncate(n);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn log() -> Vec<TraceEvent> {
        let ev = |tick, req, kind| TraceEvent::new(tick, 0, Some(req), kind);
        vec![
            ev(
                0,
                1,
                EventKind::Submitted {
                    arrival: 0,
                    prompt_tokens: 2,
                    deadline: None,
                },
            ),
            ev(
                1,
                1,
                EventKind::Admitted {
                    queued_ticks: 1,
                    warm_until: 2,
                },
            ),
            ev(
                7,
                1,
                EventKind::Finished {
                    tokens: 5,
                    steps: 5,
                    proposed: 0,
                    accepted: 0,
                },
            ),
            ev(
                2,
                2,
                EventKind::Submitted {
                    arrival: 2,
                    prompt_tokens: 2,
                    deadline: None,
                },
            ),
            ev(
                5,
                2,
                EventKind::Admitted {
                    queued_ticks: 3,
                    warm_until: 5,
                },
            ),
            ev(
                6,
                2,
                EventKind::Finished {
                    tokens: 1,
                    steps: 1,
                    proposed: 0,
                    accepted: 0,
                },
            ),
        ]
    }

    #[test]
    fn attribution_sums_and_nests() {
        let costs = attribute_phases(&log());
        let by_path = |p: &str| costs.iter().find(|c| c.path == p).map(|c| c.ticks);
        assert_eq!(by_path("request"), Some(7 + 4));
        assert_eq!(by_path("request;queued"), Some(1 + 3));
        assert_eq!(by_path("request;decode;warmup"), Some(1));
        // decode excludes the nested warmup tick: (6-1) + 1.
        assert_eq!(by_path("request;decode"), Some(5 + 1));
        let rendered = render_flame(&costs);
        assert!(rendered.contains("request;queued"));
    }

    #[test]
    fn slowest_phase_table_is_sorted_and_truncated() {
        let rows = slowest_phases(&log(), 2);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].ticks >= rows[1].ticks);
        assert_eq!(rows[0].phase, "decode");
        assert_eq!(rows[0].request, 1);
    }
}
