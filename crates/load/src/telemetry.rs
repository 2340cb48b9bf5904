//! Latency-percentile telemetry over a serving run.
//!
//! The serving engine stamps every [`Completion`] with its submission,
//! admission and per-step commit ticks. This module turns those stamps
//! into the latencies that matter at production load — per-request
//! **queueing delay**, **TTFT** (time to first token), **per-token
//! inter-commit gaps**, and **end-to-end latency**, in scheduler
//! ticks — and aggregates them into *exact* (nearest-rank, not
//! sketched) p50/p90/p99 summaries, overall and per engine.
//!
//! Tick latencies are deterministic (pure functions of the schedule),
//! so they are the A/B axis of the serve-aware Table II. Wall-clock
//! latency is not this module's business: the completion's `*_secs`
//! stamps are read by the benchmark (`benchmark/`), which repeats and
//! corrects them.
//!
//! Beyond latency, the report carries the two signals the
//! speculation-policy layer closes its loop on: **SLO attainment**
//! (fraction of deadline-carrying requests that finished by their
//! deadline — requests shed by admission control or never completed
//! count as missed) and **acceptance rates** (speculated vs. cashed
//! candidate tokens, per engine), both overall and per engine.

use serde::{Deserialize, Serialize};
use verispec_serve::{Completion, Request, ServeStats};

/// An exact quantile summary of one latency distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct QuantileSummary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Exact median (nearest-rank).
    pub p50: f64,
    /// Exact 90th percentile (nearest-rank).
    pub p90: f64,
    /// Exact 99th percentile (nearest-rank).
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl QuantileSummary {
    /// Summarizes `values` exactly: the full sample set is sorted and
    /// each percentile is the nearest-rank order statistic (`⌈q·n⌉`-th
    /// smallest) — no sketches, no interpolation beyond the sample.
    pub fn exact(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let rank = |q: f64| -> f64 {
            let k = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[k - 1]
        };
        QuantileSummary {
            n: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: rank(0.50),
            p90: rank(0.90),
            p99: rank(0.99),
            max: *sorted.last().expect("nonempty"),
        }
    }
}

/// The latency stamps of one completed request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RequestLatency {
    /// Request id.
    pub id: u64,
    /// Engine name ([`verispec_serve::EngineChoice::name`]).
    pub engine: String,
    /// Generated tokens.
    pub tokens: usize,
    /// Ticks from submission (arrival) to first admission.
    pub queue_ticks: u64,
    /// Ticks from submission to the first committed token.
    pub ttft_ticks: u64,
    /// Ticks from submission to the final decoding step.
    pub e2e_ticks: u64,
    /// Largest per-token inter-commit gap in ticks (tokens committed in
    /// the same step are 0 apart; across steps the gap is the tick
    /// difference).
    pub max_gap_ticks: u64,
    /// Mean per-token inter-commit gap in ticks.
    pub mean_gap_ticks: f64,
    /// The request's SLO deadline tick, if it carried one.
    pub deadline: Option<u64>,
    /// Whether it finished by its deadline (`None` without one).
    pub met_deadline: Option<bool>,
    /// Candidate tokens the request speculated (paid for).
    pub proposed_tokens: usize,
    /// Speculated tokens accepted (cashed).
    pub accepted_tokens: usize,
}

impl RequestLatency {
    /// Extracts the latencies of one completion. A request that
    /// committed no tokens (a zero `max_tokens` budget finishes
    /// without ever stepping) has no first token; its TTFT falls back
    /// to its completion time so aggregation stays total.
    pub fn of(engine: &str, c: &Completion) -> Self {
        let first = c.first_token_tick().unwrap_or(c.finished);
        let gaps = per_token_gaps(c);
        let (max_gap, sum_gap) = gaps
            .iter()
            .fold((0u64, 0u64), |(m, s), &g| (m.max(g), s + g));
        RequestLatency {
            id: c.id,
            engine: engine.to_string(),
            tokens: c.output.tokens.len(),
            queue_ticks: c.queue_ticks(),
            ttft_ticks: first.saturating_sub(c.submitted),
            e2e_ticks: c.finished.saturating_sub(c.submitted),
            max_gap_ticks: max_gap,
            mean_gap_ticks: if gaps.is_empty() {
                0.0
            } else {
                sum_gap as f64 / gaps.len() as f64
            },
            deadline: c.deadline,
            met_deadline: c.met_deadline(),
            proposed_tokens: c.proposed_tokens,
            accepted_tokens: c.accepted_tokens,
        }
    }
}

/// SLO attainment over one request population.
///
/// The denominator counts every *submitted* request that carried a
/// deadline — including requests shed by admission control or still
/// unfinished, which can never have met it — so attainment reflects
/// what clients experienced, not just the survivors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SloSummary {
    /// Submitted requests carrying a deadline.
    pub deadlines: usize,
    /// Of those, requests that completed by their deadline.
    pub met: usize,
    /// Deadline-carrying requests with no completion at all (shed by
    /// admission control, or the run ended without them).
    pub unserved: usize,
}

impl SloSummary {
    /// Fraction of deadline-carrying requests that met their deadline;
    /// `None` when no request carried one.
    pub fn attainment(&self) -> Option<f64> {
        (self.deadlines > 0).then(|| self.met as f64 / self.deadlines as f64)
    }
}

/// Aggregate speculation acceptance over one request population.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AcceptanceSummary {
    /// Candidate tokens speculated.
    pub proposed: usize,
    /// Speculated tokens accepted.
    pub accepted: usize,
}

impl AcceptanceSummary {
    /// Fraction of speculated tokens accepted; `None` when nothing was
    /// speculated (e.g. an all-NTP population).
    pub fn rate(&self) -> Option<f64> {
        (self.proposed > 0).then(|| self.accepted as f64 / self.proposed as f64)
    }
}

/// Per-token inter-commit gaps of one completion: token `j ≥ 1` gets
/// the tick distance to token `j − 1` (0 within a multi-token step).
/// The first token is excluded — its latency is TTFT.
pub fn per_token_gaps(c: &Completion) -> Vec<u64> {
    let mut gaps = Vec::with_capacity(c.output.tokens.len().saturating_sub(1));
    let mut last_tick: Option<u64> = None;
    for (step, tick) in c.step_ticks.iter().enumerate() {
        let committed = c.output.trace.get(step).map_or(0, |t| t.committed.len());
        for j in 0..committed {
            match last_tick {
                None => {}
                Some(prev) if j == 0 => gaps.push(tick - prev),
                Some(_) => gaps.push(0),
            }
            last_tick = Some(*tick);
        }
    }
    gaps
}

/// The four latency distributions every aggregation level reports —
/// **the one place** quantile aggregation lives. [`LatencySummary`]
/// (overall / per-engine / per-worker breakdowns) and
/// `crate::report::LoadBenchRow` (the bench artifact) both embed this
/// struct instead of re-listing and re-copying the four summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyQuantiles {
    /// Queueing delay in ticks.
    pub queue_ticks: QuantileSummary,
    /// Time to first token in ticks.
    pub ttft_ticks: QuantileSummary,
    /// End-to-end latency in ticks.
    pub e2e_ticks: QuantileSummary,
    /// Per-token inter-commit gaps in ticks, pooled across requests.
    pub gap_ticks: QuantileSummary,
}

impl LatencyQuantiles {
    /// Aggregates the four distributions over one request population
    /// (`gaps` are the population's pooled per-token inter-commit
    /// gaps, see [`per_token_gaps`]).
    pub fn aggregate(lats: &[&RequestLatency], gaps: &[f64]) -> Self {
        let col = |f: &dyn Fn(&RequestLatency) -> f64| -> Vec<f64> {
            lats.iter().map(|l| f(l)).collect()
        };
        LatencyQuantiles {
            queue_ticks: QuantileSummary::exact(&col(&|l| l.queue_ticks as f64)),
            ttft_ticks: QuantileSummary::exact(&col(&|l| l.ttft_ticks as f64)),
            e2e_ticks: QuantileSummary::exact(&col(&|l| l.e2e_ticks as f64)),
            gap_ticks: QuantileSummary::exact(gaps),
        }
    }
}

/// One engine's, worker's, or the overall aggregated latency summaries.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Requests aggregated.
    pub requests: usize,
    /// Tokens generated across them.
    pub tokens: usize,
    /// The four latency distributions ([`LatencyQuantiles`]).
    pub quantiles: LatencyQuantiles,
    /// SLO attainment (completed requests only; the report-level
    /// summaries add shed/unserved requests to the denominator).
    pub slo: SloSummary,
    /// Speculation acceptance across the population.
    pub acceptance: AcceptanceSummary,
}

impl LatencySummary {
    fn aggregate(lats: &[&RequestLatency], gaps: &[f64]) -> Self {
        let slo = SloSummary {
            deadlines: lats.iter().filter(|l| l.deadline.is_some()).count(),
            met: lats.iter().filter(|l| l.met_deadline == Some(true)).count(),
            unserved: 0,
        };
        let acceptance = AcceptanceSummary {
            proposed: lats.iter().map(|l| l.proposed_tokens).sum(),
            accepted: lats.iter().map(|l| l.accepted_tokens).sum(),
        };
        LatencySummary {
            requests: lats.len(),
            tokens: lats.iter().map(|l| l.tokens).sum(),
            quantiles: LatencyQuantiles::aggregate(lats, gaps),
            slo,
            acceptance,
        }
    }
}

/// Prefix-cache telemetry for one serving run, mirrored from the
/// engine's [`ServeStats`] counters into the latency report so the
/// cache's contribution sits next to the latencies it buys.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefixCacheSummary {
    /// Admissions that forked a cached stem.
    pub hits: usize,
    /// Admissions that ingested from scratch.
    pub misses: usize,
    /// Prompt tokens whose ingestion the cache skipped (sum of matched
    /// depths over all hits).
    pub tokens_saved: usize,
    /// Cached stems dropped by cap-charged LRU eviction.
    pub evictions: usize,
    /// Deepest-match-depth histogram over hits: bucket `i` counts hits
    /// with matched depth in `[2^i, 2^(i+1))` (bucket 7 is open-ended).
    pub depth_hist: [u64; 8],
    /// High-water resident trie nodes holding a session (fleet maximum
    /// for dispatched runs).
    pub peak_resident_nodes: usize,
}

impl PrefixCacheSummary {
    /// Lifts the prefix counters out of a run's [`ServeStats`];
    /// `None` when the cache never saw an admission (disabled).
    pub fn from_stats(stats: &ServeStats) -> Option<Self> {
        (stats.prefix_hits + stats.prefix_misses > 0).then_some(PrefixCacheSummary {
            hits: stats.prefix_hits,
            misses: stats.prefix_misses,
            tokens_saved: stats.prefix_tokens_saved,
            evictions: stats.prefix_evictions,
            depth_hist: stats.prefix_depth_hist,
            peak_resident_nodes: stats.peak_resident_nodes,
        })
    }

    /// Cache hit rate over the run's admissions.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// The full latency report of one serving run: per-request stamps, the
/// overall summary, and per-engine (plus, for dispatched runs,
/// per-worker) breakdowns.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyReport {
    /// Every completed request's latencies, sorted by id.
    pub per_request: Vec<RequestLatency>,
    /// Aggregates over all requests.
    pub overall: LatencySummary,
    /// Aggregates per engine name, sorted by name.
    pub per_engine: Vec<(String, LatencySummary)>,
    /// Aggregates per dispatch worker, sorted by worker index — empty
    /// for single-engine runs. Each worker's [`SloSummary`] is
    /// dispatcher-aware: requests the *worker* shed (or never finished)
    /// count against that worker's deadlines, so a routing policy that
    /// overloads one worker shows up in its attainment, not just the
    /// fleet's.
    pub per_worker: Vec<(usize, LatencySummary)>,
    /// Prefix-cache counters for the run (`None` when the cache was
    /// off); attached by the open-loop drivers via
    /// [`LatencyReport::attach_prefix_stats`].
    #[serde(default)]
    pub prefix: Option<PrefixCacheSummary>,
}

impl LatencyReport {
    /// Builds the report by joining `requests` (for engine names and
    /// the SLO denominator) with the run's completions by id.
    /// Submitted requests with no completion — shed by admission
    /// control, or the run ended without them — appear only in the
    /// [`SloSummary`] denominators, as `unserved`.
    ///
    /// # Panics
    ///
    /// Panics if a completion has no matching request.
    pub fn new(requests: &[Request], completions: &[Completion]) -> Self {
        Self::build(requests, completions, &[])
    }

    /// The dispatcher-aware constructor: like [`LatencyReport::new`],
    /// plus a per-worker breakdown grouped by the realized routing
    /// `assignments` (`(request id, worker index)`, e.g.
    /// [`verispec_serve::DispatchReport::assignments`]). Requests
    /// missing from the assignment (never received) count toward the
    /// overall SLO denominator but no worker's.
    pub fn with_assignments(
        requests: &[Request],
        completions: &[Completion],
        assignments: &[(u64, usize)],
    ) -> Self {
        Self::build(requests, completions, assignments)
    }

    fn build(
        requests: &[Request],
        completions: &[Completion],
        assignments: &[(u64, usize)],
    ) -> Self {
        let engine_of = |id: u64| -> &str {
            requests
                .iter()
                .find(|r| r.id == id)
                .map(|r| r.engine.name())
                .expect("completion for an unknown request id")
        };
        let mut per_request: Vec<RequestLatency> = completions
            .iter()
            .map(|c| RequestLatency::of(engine_of(c.id), c))
            .collect();
        per_request.sort_by_key(|l| l.id);

        let all_gaps: Vec<f64> = completions
            .iter()
            .flat_map(per_token_gaps)
            .map(|g| g as f64)
            .collect();
        let refs: Vec<&RequestLatency> = per_request.iter().collect();
        let mut overall = LatencySummary::aggregate(&refs, &all_gaps);

        // Requests that never completed (shed / unserved) still count
        // against SLO attainment — a dropped deadline is a missed one.
        let completed_ids: std::collections::HashSet<u64> =
            completions.iter().map(|c| c.id).collect();
        let unserved: Vec<&Request> = requests
            .iter()
            .filter(|r| !completed_ids.contains(&r.id))
            .collect();
        let unserved_deadlines = |engine: Option<&str>| -> usize {
            unserved
                .iter()
                .filter(|r| r.deadline.is_some())
                .filter(|r| engine.is_none_or(|e| r.engine.name() == e))
                .count()
        };
        let missed = unserved_deadlines(None);
        overall.slo.deadlines += missed;
        overall.slo.unserved += missed;

        let mut names: Vec<String> = per_request.iter().map(|l| l.engine.clone()).collect();
        // Unserved requests only need a per-engine row for the SLO
        // denominator; best-effort ones would add an all-zero phantom
        // summary, so only deadline-carrying ones extend the name set.
        names.extend(
            unserved
                .iter()
                .filter(|r| r.deadline.is_some())
                .map(|r| r.engine.name().to_string()),
        );
        names.sort();
        names.dedup();
        // One grouped-subset aggregation shared by the per-engine and
        // per-worker breakdowns: summarize the subset's latencies and
        // pooled gaps, then add the group's unserved deadlines to its
        // SLO denominator.
        let summarize = |subset: Vec<&RequestLatency>, unserved_missed: usize| -> LatencySummary {
            let ids: Vec<u64> = subset.iter().map(|l| l.id).collect();
            let gaps: Vec<f64> = completions
                .iter()
                .filter(|c| ids.contains(&c.id))
                .flat_map(per_token_gaps)
                .map(|g| g as f64)
                .collect();
            let mut summary = LatencySummary::aggregate(&subset, &gaps);
            summary.slo.deadlines += unserved_missed;
            summary.slo.unserved += unserved_missed;
            summary
        };

        let per_engine = names
            .into_iter()
            .map(|name| {
                let subset: Vec<&RequestLatency> =
                    per_request.iter().filter(|l| l.engine == name).collect();
                let missed = unserved_deadlines(Some(&name));
                (name, summarize(subset, missed))
            })
            .collect();

        // Per-worker breakdown: group by the realized routing. A
        // worker appears if anything was routed to it; its SLO
        // denominator includes the deadline-carrying requests it
        // received but never completed (shed or unfinished) — the
        // dispatcher-aware attainment.
        let worker_of = |id: u64| -> Option<usize> {
            assignments
                .iter()
                .find(|&&(rid, _)| rid == id)
                .map(|&(_, w)| w)
        };
        let mut worker_ids: Vec<usize> = assignments.iter().map(|&(_, w)| w).collect();
        worker_ids.sort_unstable();
        worker_ids.dedup();
        let per_worker = worker_ids
            .into_iter()
            .map(|w| {
                let subset: Vec<&RequestLatency> = per_request
                    .iter()
                    .filter(|l| worker_of(l.id) == Some(w))
                    .collect();
                let missed = unserved
                    .iter()
                    .filter(|r| r.deadline.is_some() && worker_of(r.id) == Some(w))
                    .count();
                (w, summarize(subset, missed))
            })
            .collect();

        LatencyReport {
            per_request,
            overall,
            per_engine,
            per_worker,
            prefix: None,
        }
    }

    /// Attaches the run's prefix-cache counters
    /// ([`PrefixCacheSummary::from_stats`]); a no-op recording `None`
    /// when the cache saw no admissions.
    pub fn attach_prefix_stats(mut self, stats: &ServeStats) -> Self {
        self.prefix = PrefixCacheSummary::from_stats(stats);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let values: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let q = QuantileSummary::exact(&values);
        assert_eq!(q.n, 100);
        assert_eq!(q.p50, 50.0);
        assert_eq!(q.p90, 90.0);
        assert_eq!(q.p99, 99.0);
        assert_eq!(q.max, 100.0);
        assert!((q.mean - 50.5).abs() < 1e-12);

        // Tiny samples: nearest-rank clamps sanely.
        let q = QuantileSummary::exact(&[7.0]);
        assert_eq!((q.p50, q.p90, q.p99, q.max), (7.0, 7.0, 7.0, 7.0));
        assert_eq!(QuantileSummary::exact(&[]).n, 0);
    }

    #[test]
    fn quantiles_ignore_input_order() {
        let a = QuantileSummary::exact(&[3.0, 1.0, 2.0, 9.0, 4.0]);
        let b = QuantileSummary::exact(&[9.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(a, b);
        assert_eq!(a.p50, 3.0);
    }

    #[test]
    fn zero_budget_requests_do_not_break_the_report() {
        use verispec_core::DecodeConfig;
        use verispec_lm::{GpuCostModel, MlpLm, MlpLmConfig};
        use verispec_serve::{
            Backend, EngineChoice, FleetRuntime, Request, RoutePolicy, ServeConfig,
        };

        let model = MlpLm::new(MlpLmConfig::tiny(14));
        let requests = vec![
            // A zero-token budget completes without ever committing.
            Request::new(
                0,
                vec![1],
                EngineChoice::Ntp,
                DecodeConfig {
                    max_tokens: 0,
                    ..Default::default()
                },
            ),
            Request::new(
                1,
                vec![2],
                EngineChoice::MedusaChain,
                DecodeConfig {
                    max_tokens: 4,
                    ..Default::default()
                },
            ),
        ];
        let fleet = FleetRuntime::new(
            &model,
            ServeConfig::concurrency(2),
            1,
            RoutePolicy::RoundRobin,
            Backend::Lockstep,
        );
        let run =
            crate::report::run_fleet_open_loop(fleet, requests, &GpuCostModel::codellama_like());
        assert_eq!(run.latency.per_request.len(), 2);
        let zero = &run.latency.per_request[0];
        assert_eq!(zero.tokens, 0);
        // No first token: TTFT falls back to completion time.
        assert_eq!(zero.ttft_ticks, zero.e2e_ticks);
    }
}
