//! The metrics registry: counters, gauges, and histograms **derived
//! from the event stream**.
//!
//! Aggregates are a pure fold over [`TraceEvent`]s — there is no
//! second set of hand-maintained increments that could drift from the
//! events, so a registry built from a log can never disagree with the
//! log it was built from. Serving-side aggregate stats reuse the same
//! fold (`ServeStats::apply_event` in `verispec-serve`), pinning both
//! views to one source of truth.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::event::{EventKind, TraceEvent};

/// Number of log2 buckets a [`Histogram`] keeps (values up to
/// `2^15..` land in the last bucket).
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A monotonically-updated value with its observed peak.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Gauge {
    /// Current value.
    pub value: i64,
    /// Highest value ever observed.
    pub peak: i64,
}

impl Gauge {
    fn add(&mut self, delta: i64) {
        self.value += delta;
        self.peak = self.peak.max(self.value);
    }
}

/// A log2-bucketed histogram of non-negative integer observations.
///
/// Bucket `i` counts observations `v` with `floor(log2(max(v,1))) == i`
/// (bucket 0 holds both 0 and 1); the last bucket absorbs the tail.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Histogram {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Per-bucket observation counts, log2-indexed.
    pub buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// Index of the bucket a value falls into.
    pub fn bucket_of(value: u64) -> usize {
        (value.max(1).ilog2() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Counters, gauges, and histograms folded from an event stream.
///
/// Keys are stable dotted names (`prefix.hits`, `steps.committed`,
/// `queue.ticks`, …) held in `BTreeMap`s so every iteration — and the
/// serialized form — is deterministically ordered.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds a whole event log into a fresh registry.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut reg = Self::new();
        for ev in events {
            reg.observe(ev);
        }
        reg
    }

    fn count(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    fn gauge_add(&mut self, name: &str, delta: i64) {
        self.gauges.entry(name.to_string()).or_default().add(delta);
    }

    fn record_hist(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Folds one event into the aggregates.
    pub fn observe(&mut self, ev: &TraceEvent) {
        match &ev.kind {
            EventKind::Submitted { .. } => {
                self.count("requests.submitted", 1);
                self.gauge_add("requests.queued", 1);
            }
            EventKind::CacheLookup {
                hit,
                depth,
                tokens_saved,
            } => {
                if *hit {
                    self.count("prefix.hits", 1);
                    self.count("prefix.tokens_saved", *tokens_saved as u64);
                    self.record_hist("prefix.hit_depth", *depth as u64);
                } else {
                    self.count("prefix.misses", 1);
                }
            }
            EventKind::Admitted { queued_ticks, .. } => {
                self.count("requests.admitted", 1);
                self.gauge_add("requests.queued", -1);
                self.gauge_add("requests.active", 1);
                self.record_hist("queue.ticks", *queued_ticks);
            }
            EventKind::Resumed => {
                self.count("requests.resumed", 1);
                self.gauge_add("requests.active", 1);
            }
            EventKind::Preempted => {
                self.count("requests.preempted", 1);
                self.gauge_add("requests.active", -1);
            }
            EventKind::Deferred => self.count("steps.deferred", 1),
            EventKind::Step {
                proposed,
                accepted,
                committed,
                ..
            } => {
                self.count("steps.committed", 1);
                self.count("tokens.committed", *committed as u64);
                self.record_hist("step.proposed", *proposed as u64);
                self.record_hist("step.accepted", *accepted as u64);
            }
            EventKind::GrammarPrune {
                considered,
                pruned,
                surviving,
            } => {
                self.count("grammar.considered", *considered as u64);
                self.count("grammar.pruned", *pruned as u64);
                self.count("grammar.surviving", *surviving as u64);
            }
            EventKind::PrefixEvicted => self.count("evictions.prefix", 1),
            EventKind::Shed { .. } => {
                self.count("requests.shed", 1);
                self.gauge_add("requests.queued", -1);
            }
            EventKind::Finished {
                tokens,
                steps,
                proposed,
                accepted,
            } => {
                self.count("requests.finished", 1);
                self.count("finished.tokens", *tokens as u64);
                self.count("finished.proposed", *proposed as u64);
                self.count("finished.accepted", *accepted as u64);
                self.gauge_add("requests.active", -1);
                self.record_hist("request.steps", *steps as u64);
            }
            EventKind::Deadline { met, .. } => {
                self.count(
                    if *met {
                        "deadline.met"
                    } else {
                        "deadline.missed"
                    },
                    1,
                );
            }
            EventKind::IdleSkip { skipped } => self.count("ticks.idle_skipped", *skipped),
            EventKind::Batch { requests } => {
                self.record_hist("batch.size", requests.len() as u64);
            }
            EventKind::TickBudget {
                capacity, spent, ..
            } => {
                self.count("budget.capacity", *capacity as u64);
                self.count("budget.spent", *spent as u64);
            }
            EventKind::Routed { policy, .. } => {
                self.count(&format!("route.{policy}"), 1);
            }
            EventKind::WorkerCrashed { in_flight } => {
                self.count("fault.crashes", 1);
                self.count("fault.stranded", *in_flight as u64);
            }
            EventKind::WorkerRestarted => self.count("fault.restarts", 1),
            EventKind::Migrated { replay_tokens, .. } => {
                self.count("fault.migrations", 1);
                self.count("fault.replayed_tokens", *replay_tokens as u64);
                self.record_hist("fault.replay_tokens", *replay_tokens as u64);
            }
            EventKind::Backpressure => self.count("fault.backpressure", 1),
        }
    }

    /// Value of a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge by name.
    pub fn gauge(&self, name: &str) -> Option<&Gauge> {
        self.gauges.get(name)
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All gauges, name-ordered.
    pub fn gauges(&self) -> &BTreeMap<String, Gauge> {
        &self.gauges
    }

    /// All histograms, name-ordered.
    pub fn histograms(&self) -> &BTreeMap<String, Histogram> {
        &self.histograms
    }

    /// Renders a plain-text summary (used by the `trace_view` CLI).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("counters:\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("  {name:<24} {v}\n"));
        }
        out.push_str("gauges (final/peak):\n");
        for (name, g) in &self.gauges {
            out.push_str(&format!("  {name:<24} {}/{}\n", g.value, g.peak));
        }
        out.push_str("histograms (count/mean/max-bucket):\n");
        for (name, h) in &self.histograms {
            let top = h
                .buckets
                .iter()
                .rposition(|&c| c > 0)
                .map(|i| 1u64 << i)
                .unwrap_or(0);
            out.push_str(&format!(
                "  {name:<24} n={} mean={:.2} <=~{top}\n",
                h.count,
                h.mean()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_matches_incremental_observation() {
        let events = vec![
            TraceEvent::new(
                0,
                0,
                Some(1),
                EventKind::Submitted {
                    arrival: 0,
                    prompt_tokens: 3,
                    deadline: None,
                },
            ),
            TraceEvent::new(
                1,
                0,
                Some(1),
                EventKind::CacheLookup {
                    hit: true,
                    depth: 3,
                    tokens_saved: 3,
                },
            ),
            TraceEvent::new(
                1,
                0,
                Some(1),
                EventKind::Admitted {
                    queued_ticks: 1,
                    warm_until: 1,
                },
            ),
            TraceEvent::new(
                4,
                0,
                Some(1),
                EventKind::Finished {
                    tokens: 8,
                    steps: 3,
                    proposed: 9,
                    accepted: 5,
                },
            ),
        ];
        let whole = MetricsRegistry::from_events(&events);
        let mut incremental = MetricsRegistry::new();
        for ev in &events {
            incremental.observe(ev);
        }
        assert_eq!(whole, incremental);
        assert_eq!(whole.counter("prefix.hits"), 1);
        assert_eq!(whole.counter("prefix.tokens_saved"), 3);
        assert_eq!(whole.counter("finished.accepted"), 5);
        let active = whole.gauge("requests.active").expect("gauge");
        assert_eq!((active.value, active.peak), (0, 1));
        assert_eq!(whole.histogram("queue.ticks").expect("hist").count, 1);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }
}
