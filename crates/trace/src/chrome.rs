//! Chrome trace-event JSON exporter.
//!
//! Renders an event log into the [trace-event format] consumed by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev):
//! **workers become processes** (`pid`), **requests become tracks**
//! (`tid`), and lifecycle **phases become nested complete spans**
//! (`ph:"X"`), with steps, sheds, and deadline outcomes as instants
//! (`ph:"i"`) and batch/budget consumption as counters (`ph:"C"`).
//! Timestamps are virtual-clock ticks reported as microseconds, so
//! one tick renders as 1 µs.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! The output is deterministic: metadata first (worker order, then
//! request order), then per-request spans (request order, outermost
//! first), then instants and counters in log order.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::event::{EventKind, TraceEvent};
use crate::timeline::{timelines, Phase};

fn push_entry(out: &mut String, first: &mut bool, entry: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str("    ");
    out.push_str(entry);
}

fn span(name: &str, pid: u32, tid: u64, start: u64, end: u64) -> String {
    format!(
        "{{\"name\":\"{name}\",\"cat\":\"{name}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{start},\"dur\":{}}}",
        end - start
    )
}

fn instant(name: &str, pid: u32, tid: u64, ts: u64, args: &str) -> String {
    format!(
        "{{\"name\":\"{name}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"args\":{args}}}"
    )
}

/// Renders an event log as a complete Chrome trace-event JSON
/// document (the `{"traceEvents": [...]}` object form).
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;

    // Process metadata: one "process" per worker.
    let workers: BTreeSet<u32> = events.iter().map(|e| e.worker).collect();
    for w in &workers {
        push_entry(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{w},\"tid\":0,\"args\":{{\"name\":\"worker {w}\"}}}}"
            ),
        );
    }

    // Thread metadata + phase spans: one "thread" (track) per request.
    let tls = timelines(events);
    for tl in tls.values() {
        let (pid, tid) = (tl.worker, tl.request);
        push_entry(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"request {tid}\"}}}}"
            ),
        );
        // Outermost request span first so viewers stack it as parent.
        let end = tl.end();
        if end > tl.submitted {
            push_entry(
                &mut out,
                &mut first,
                &span("request", pid, tid, tl.submitted, end),
            );
        }
        // Decode intervals before their nested warmup sub-span.
        for phase in [Phase::Queued, Phase::Decode, Phase::Warmup] {
            for s in tl.phases.iter().filter(|s| s.phase == phase) {
                push_entry(
                    &mut out,
                    &mut first,
                    &span(phase.name(), pid, tid, s.start, s.end),
                );
            }
        }
    }

    // Instants and counters, in log order.
    for ev in events {
        let pid = ev.worker;
        let tid = ev.request.unwrap_or(0);
        match &ev.kind {
            EventKind::Step {
                shape,
                proposed,
                accepted,
                committed,
                ..
            } => {
                // The shape in the event log's own JSON form.
                let shape = serde_json::to_string(shape).expect("a shape serializes");
                push_entry(
                    &mut out,
                    &mut first,
                    &instant(
                        "step",
                        pid,
                        tid,
                        ev.tick,
                        &format!(
                            "{{\"shape\":{shape},\"proposed\":{proposed},\"accepted\":{accepted},\"committed\":{committed}}}"
                        ),
                    ),
                );
            }
            EventKind::Deferred => {
                push_entry(
                    &mut out,
                    &mut first,
                    &instant("deferred", pid, tid, ev.tick, "{}"),
                );
            }
            EventKind::Shed { .. } => {
                push_entry(
                    &mut out,
                    &mut first,
                    &instant("shed", pid, tid, ev.tick, "{}"),
                );
            }
            EventKind::Deadline { deadline, met } => {
                push_entry(
                    &mut out,
                    &mut first,
                    &instant(
                        "deadline",
                        pid,
                        tid,
                        ev.tick,
                        &format!("{{\"deadline\":{deadline},\"met\":{met}}}"),
                    ),
                );
            }
            EventKind::PrefixEvicted => {
                push_entry(
                    &mut out,
                    &mut first,
                    &instant("prefix_evicted", pid, tid, ev.tick, "{}"),
                );
            }
            EventKind::Routed { policy, probes } => {
                let mut probes_json = String::from("[");
                for (i, p) in probes.iter().enumerate() {
                    if i > 0 {
                        probes_json.push(',');
                    }
                    let _ = write!(probes_json, "{p}");
                }
                probes_json.push(']');
                push_entry(
                    &mut out,
                    &mut first,
                    &instant(
                        "routed",
                        pid,
                        tid,
                        ev.tick,
                        &format!("{{\"policy\":\"{policy}\",\"probes\":{probes_json}}}"),
                    ),
                );
            }
            EventKind::Batch { requests } => {
                push_entry(
                    &mut out,
                    &mut first,
                    &format!(
                        "{{\"name\":\"batch\",\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"args\":{{\"requests\":{}}}}}",
                        ev.tick,
                        requests.len()
                    ),
                );
            }
            EventKind::WorkerCrashed { in_flight } => {
                push_entry(
                    &mut out,
                    &mut first,
                    &instant(
                        "worker_crashed",
                        pid,
                        0,
                        ev.tick,
                        &format!("{{\"in_flight\":{in_flight}}}"),
                    ),
                );
            }
            EventKind::WorkerRestarted => {
                push_entry(
                    &mut out,
                    &mut first,
                    &instant("worker_restarted", pid, 0, ev.tick, "{}"),
                );
            }
            EventKind::Migrated {
                from,
                to,
                replay_tokens,
            } => {
                push_entry(
                    &mut out,
                    &mut first,
                    &instant(
                        "migrated",
                        pid,
                        tid,
                        ev.tick,
                        &format!(
                            "{{\"from\":{from},\"to\":{to},\"replay_tokens\":{replay_tokens}}}"
                        ),
                    ),
                );
            }
            EventKind::Backpressure => {
                push_entry(
                    &mut out,
                    &mut first,
                    &instant("backpressure", pid, tid, ev.tick, "{}"),
                );
            }
            EventKind::TickBudget {
                capacity, spent, ..
            } => {
                push_entry(
                    &mut out,
                    &mut first,
                    &format!(
                        "{{\"name\":\"budget\",\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"args\":{{\"capacity\":{capacity},\"spent\":{spent}}}}}",
                        ev.tick
                    ),
                );
            }
            _ => {}
        }
    }

    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn export_parses_and_has_expected_shape() {
        let ev = |tick, kind| TraceEvent::new(tick, 2, Some(5), kind);
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
                1,
                EventKind::Admitted {
                    queued_ticks: 1,
                    warm_until: 1,
                },
            ),
            ev(
                3,
                EventKind::Step {
                    shape: verispec_core::SpecShape::EMPTY,
                    proposed: 0,
                    accepted: 1,
                    truncated: 0,
                    committed: 1,
                },
            ),
            ev(
                4,
                EventKind::Finished {
                    tokens: 2,
                    steps: 2,
                    proposed: 0,
                    accepted: 0,
                },
            ),
        ];
        let json = chrome_trace(&events);
        let value: Value = serde_json::from_str(&json).expect("valid JSON");
        let items = match value.field("traceEvents").expect("traceEvents key") {
            Value::Seq(items) => items,
            other => panic!("traceEvents is {}", other.kind()),
        };
        // process_name + thread_name + request span + queued span +
        // decode span + step instant.
        assert_eq!(items.len(), 6);
        for item in items {
            assert!(item.field("ph").is_ok());
            assert!(item.field("pid").is_ok());
        }
    }
}
