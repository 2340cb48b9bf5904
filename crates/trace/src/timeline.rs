//! Per-request phase timelines reconstructed from an event log.
//!
//! The raw stream records transitions; this module folds them back
//! into intervals — queued, warmup, decode — that the Chrome
//! exporter renders as spans and the attribution report sums into
//! per-phase costs.

use std::collections::BTreeMap;

use crate::event::{EventKind, TraceEvent};

/// A lifecycle phase a request can spend ticks in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Waiting in the admission queue.
    Queued,
    /// Admitted but replaying prompt prefill (sub-span of the first
    /// decode interval).
    Warmup,
    /// Active in the batch, stepping.
    Decode,
}

impl Phase {
    /// Stable lowercase name used in exports and reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Warmup => "warmup",
            Phase::Decode => "decode",
        }
    }
}

/// One half-open tick interval `[start, end)` spent in a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// The phase.
    pub phase: Phase,
    /// First tick of the interval.
    pub start: u64,
    /// One past the last tick of the interval (`end >= start`).
    pub end: u64,
}

impl PhaseSpan {
    /// Ticks covered by the span.
    pub fn ticks(&self) -> u64 {
        self.end - self.start
    }
}

/// The reconstructed lifecycle of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTimeline {
    /// Request id.
    pub request: u64,
    /// Worker that served it.
    pub worker: u32,
    /// Tick the request entered the admission queue.
    pub submitted: u64,
    /// Tick the request completed, if it did.
    pub finished: Option<u64>,
    /// Tick admission control shed it, if it was dropped.
    pub shed: Option<u64>,
    /// Phase intervals in chronological order; open intervals are
    /// closed at the log horizon (max event tick).
    pub phases: Vec<PhaseSpan>,
    /// Committed decode steps.
    pub steps: usize,
    /// Steps pushed to a later tick by the verify budget.
    pub deferrals: usize,
}

impl RequestTimeline {
    /// Total ticks attributed to `phase`.
    pub fn ticks_in(&self, phase: Phase) -> u64 {
        self.phases
            .iter()
            .filter(|s| s.phase == phase)
            .map(PhaseSpan::ticks)
            .sum()
    }

    /// End of the request's last activity (finish, shed, or the last
    /// phase boundary).
    pub fn end(&self) -> u64 {
        self.finished
            .or(self.shed)
            .or_else(|| self.phases.last().map(|s| s.end))
            .unwrap_or(self.submitted)
    }
}

#[derive(Default)]
struct Builder {
    worker: u32,
    submitted: u64,
    finished: Option<u64>,
    shed: Option<u64>,
    first_admit: Option<u64>,
    warm_until: Option<u64>,
    open_decode: Option<u64>,
    queued_from: Option<u64>,
    phases: Vec<PhaseSpan>,
    steps: usize,
    deferrals: usize,
}

impl Builder {
    fn push(&mut self, phase: Phase, start: u64, end: u64) {
        if end > start {
            self.phases.push(PhaseSpan { phase, start, end });
        }
    }

    fn finish(mut self, request: u64, horizon: u64) -> RequestTimeline {
        if let Some(q) = self.queued_from.take() {
            let end = self.shed.unwrap_or(horizon);
            self.push(Phase::Queued, q, end);
        }
        if let Some(d) = self.open_decode.take() {
            self.push(Phase::Decode, d, self.finished.unwrap_or(horizon));
        }
        // Carve the warmup sub-span out of the first decode interval.
        if let (Some(admit), Some(warm)) = (self.first_admit, self.warm_until) {
            if let Some(seg) = self
                .phases
                .iter()
                .find(|s| s.phase == Phase::Decode && s.start == admit)
            {
                let end = warm.min(seg.end);
                let start = seg.start;
                self.push(Phase::Warmup, start, end);
            }
        }
        self.phases.sort_by_key(|s| (s.start, s.end, s.phase));
        RequestTimeline {
            request,
            worker: self.worker,
            submitted: self.submitted,
            finished: self.finished,
            shed: self.shed,
            phases: self.phases,
            steps: self.steps,
            deferrals: self.deferrals,
        }
    }
}

/// Folds an event log into per-request timelines, keyed by request id.
pub fn timelines(events: &[TraceEvent]) -> BTreeMap<u64, RequestTimeline> {
    let horizon = events.iter().map(|e| e.tick).max().unwrap_or(0);
    let mut builders: BTreeMap<u64, Builder> = BTreeMap::new();
    for ev in events {
        let Some(id) = ev.request else { continue };
        let b = builders.entry(id).or_default();
        match &ev.kind {
            EventKind::Submitted { .. } => {
                b.worker = ev.worker;
                b.submitted = ev.tick;
                b.queued_from = Some(ev.tick);
            }
            EventKind::Admitted { warm_until, .. } => {
                b.worker = ev.worker;
                if let Some(q) = b.queued_from.take() {
                    b.push(Phase::Queued, q, ev.tick);
                }
                if b.first_admit.is_none() {
                    b.first_admit = Some(ev.tick);
                    b.warm_until = Some(*warm_until);
                }
                b.open_decode = Some(ev.tick);
            }
            EventKind::Step { .. } => b.steps += 1,
            EventKind::Deferred => b.deferrals += 1,
            EventKind::Shed { .. } => b.shed = Some(ev.tick),
            EventKind::Finished { .. } => {
                b.finished = Some(ev.tick);
                if let Some(d) = b.open_decode.take() {
                    b.push(Phase::Decode, d, ev.tick);
                }
            }
            _ => {}
        }
    }
    builders
        .into_iter()
        .map(|(id, b)| (id, b.finish(id, horizon)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lifecycle_yields_three_phases() {
        let ev = |tick, kind| TraceEvent::new(tick, 0, Some(9), kind);
        let events = vec![
            ev(
                0,
                EventKind::Submitted {
                    arrival: 0,
                    prompt_tokens: 2,
                    deadline: None,
                },
            ),
            ev(
                2,
                EventKind::Admitted {
                    queued_ticks: 2,
                    warm_until: 3,
                },
            ),
            ev(
                11,
                EventKind::Finished {
                    tokens: 4,
                    steps: 4,
                    proposed: 0,
                    accepted: 0,
                },
            ),
        ];
        let map = timelines(&events);
        let tl = &map[&9];
        assert_eq!(tl.ticks_in(Phase::Queued), 2);
        assert_eq!(tl.ticks_in(Phase::Warmup), 1);
        assert_eq!(tl.ticks_in(Phase::Decode), 9);
        assert_eq!(tl.end(), 11);
        // Warmup nests inside the first decode interval.
        let warm = tl
            .phases
            .iter()
            .find(|s| s.phase == Phase::Warmup)
            .expect("warmup span");
        let decode = tl
            .phases
            .iter()
            .find(|s| s.phase == Phase::Decode)
            .expect("decode span");
        assert!(decode.start <= warm.start && warm.end <= decode.end);
    }
}
