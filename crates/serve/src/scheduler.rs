//! Tick-level scheduling: which active requests step this tick.
//!
//! Selection is policy-driven ([`TickOrder`]) with a starvation guard
//! layered on top: any request whose last scheduled step is more than
//! the aging threshold behind the current tick is *forced* into the
//! batch ahead of the policy order (oldest service first; overflow
//! beyond `max_batch` waits at the head of the next ticks), so every
//! policy — including the deliberately adversarial seeded shuffle the
//! property tests use — has a hard worst-case service gap of the
//! threshold plus a few rotations (see [`Scheduler::starvation_bound`]).
//! The bound is per-request and admission-agnostic: requests admitted
//! mid-flight by streaming arrivals are covered from their admission
//! tick exactly like closed-loop submissions. Outputs are unaffected by
//! selection order (each request's sampler and sessions are private),
//! so scheduling is purely a throughput/fairness lever.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The order in which active requests are considered for a tick's
/// batch (after forced aging picks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TickOrder {
    /// Least-recently-stepped first: strict round-robin service.
    RoundRobin,
    /// Deterministic pseudo-random order keyed by `(seed, tick, id)` —
    /// used by the property tests to prove output invariance and
    /// no-starvation under arbitrary tick orders.
    Seeded(u64),
    /// Earliest-deadline-first: requests with the nearest SLO deadline
    /// step first (no deadline sorts last, then round-robin by last
    /// service). The aging guard still applies on top, so EDF cannot
    /// starve best-effort requests — the SLO-aware order trades
    /// throughput for deadline attainment under overload.
    Edf,
    /// Multi-tenant weighted fairness: batch slots are divided across
    /// request *classes* ([`ActiveView::class`]) in proportion to the
    /// configured per-class weights
    /// ([`Scheduler::with_class_weights`]), via per-class deficit
    /// counters — every pick credits each present class its weight and
    /// charges the picked class the total present weight, so realized
    /// service converges to the weight shares (classic deficit
    /// round-robin, integer-exact and deterministic). Within a class,
    /// requests rotate round-robin by last service. The aging guard
    /// still applies *per request* on top, so the no-starvation bound
    /// survives per class: even a weight-1 tenant next to a weight-100
    /// noisy neighbor keeps the hard worst-case service gap.
    WeightedFair,
}

/// Scheduler-visible state of one active request.
#[derive(Debug, Clone, Copy)]
pub struct ActiveView {
    /// Request id (tie-break and shuffle key).
    pub id: u64,
    /// Tick of the request's last scheduled step (admission tick if
    /// never stepped).
    pub last_step: u64,
    /// Admission tick.
    pub admitted: u64,
    /// SLO deadline tick, if the request carries one (EDF sort key).
    pub deadline: Option<u64>,
    /// Multi-tenant request class (weighted-fairness share key; 0 is
    /// the default class).
    pub class: u32,
}

/// Selects up to `max_batch` of the active requests for one tick.
#[derive(Debug, Clone)]
pub struct Scheduler {
    order: TickOrder,
    /// Service-gap bound (ticks) beyond which a request is forced into
    /// the batch.
    starvation_bound: u64,
    /// Per-class weights for [`TickOrder::WeightedFair`], indexed by
    /// class id; classes beyond the vector (or with weight 0) default
    /// to weight 1.
    class_weights: Vec<u32>,
    /// Per-class deficit counters, one per class ever present (a class
    /// is a bare `u32` off the wire, so never an index): positive means
    /// the class is owed service relative to its weight share.
    credits: BTreeMap<u32, i64>,
    /// A selection's working lists — forced aging picks, the rest in
    /// policy order, the classes present — kept across ticks so that
    /// selecting allocates nothing once warm.
    forced: Vec<usize>,
    rest: Vec<usize>,
    present: Vec<u32>,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Scheduler {
    /// A scheduler for a pool of `max_active` sessions stepped
    /// `max_batch` at a time: the aging bound is a small multiple of
    /// the round-trip time of a full rotation, so forced picks stay
    /// rare under fair policies but hard-bound the service gap under
    /// any policy.
    pub fn new(order: TickOrder, max_active: usize, max_batch: usize) -> Self {
        let rotation = max_active.div_ceil(max_batch.max(1)).max(1) as u64;
        Scheduler {
            order,
            starvation_bound: 2 * rotation + 2,
            class_weights: Vec::new(),
            credits: BTreeMap::new(),
            forced: Vec::new(),
            rest: Vec::new(),
            present: Vec::new(),
        }
    }

    /// Sets the per-class weighted-fairness shares consulted by
    /// [`TickOrder::WeightedFair`] (index = class id; missing or zero
    /// entries default to weight 1). A no-op for every other order.
    pub fn with_class_weights(mut self, weights: &[u32]) -> Self {
        self.class_weights = weights.to_vec();
        self
    }

    /// The effective weight of a class (configured share, defaulting
    /// to 1 for unknown classes and zero weights).
    fn weight(&self, class: u32) -> i64 {
        i64::from(
            self.class_weights
                .get(class as usize)
                .copied()
                .filter(|&w| w > 0)
                .unwrap_or(1),
        )
    }

    /// Records one batch-slot grant to `class` under weighted
    /// fairness: every class present this tick earns its weight, the
    /// picked class pays the total present weight. Zero-sum per pick,
    /// so realized per-class service converges to the weight shares.
    fn charge(&mut self, class: u32, present: &[u32]) {
        let mut total = 0;
        for &c in present {
            let w = self.weight(c);
            *self.credits.entry(c).or_default() += w;
            total += w;
        }
        *self.credits.entry(class).or_default() -= total;
    }

    /// The forcing threshold of the aging guard: a request is promoted
    /// ahead of the policy order once `tick - last_step` reaches this.
    ///
    /// Note the *realized* worst-case service gap is slightly larger:
    /// when more than `max_batch` requests cross the threshold on the
    /// same tick, the overflow waits additional rotations (oldest
    /// service first), so the hard bound on any request's gap is this
    /// value plus up to `⌈active / max_batch⌉` further rotations —
    /// at most `starvation_bound() + max_active` ticks, which is what
    /// the no-starvation tests assert.
    pub fn starvation_bound(&self) -> u64 {
        self.starvation_bound
    }

    /// Fills `batch` with the indices (into `views`) of the requests to
    /// step this tick: starved requests first (oldest service first),
    /// then the policy order, up to `max_batch`. `&mut` because
    /// [`TickOrder::WeightedFair`] advances per-class deficit counters
    /// (every other order leaves the scheduling state untouched), and
    /// because the working lists are the scheduler's own, reused.
    ///
    /// Every sort key ends in the index, so the unstable sorts (which
    /// allocate nothing) order exactly as a stable sort would.
    pub fn select(
        &mut self,
        views: &[ActiveView],
        tick: u64,
        max_batch: usize,
        batch: &mut Vec<usize>,
    ) {
        let (forced, rest) = (&mut self.forced, &mut self.rest);
        forced.clear();
        forced.extend(
            (0..views.len())
                .filter(|&i| tick.saturating_sub(views[i].last_step) >= self.starvation_bound),
        );
        forced.sort_unstable_by_key(|&i| (views[i].last_step, views[i].id, i));

        rest.clear();
        rest.extend((0..views.len()).filter(|i| !forced.contains(i)));
        match self.order {
            TickOrder::RoundRobin | TickOrder::WeightedFair => {
                rest.sort_unstable_by_key(|&i| {
                    (views[i].last_step, views[i].admitted, views[i].id, i)
                });
            }
            TickOrder::Seeded(seed) => {
                rest.sort_unstable_by_key(|&i| {
                    (
                        splitmix64(seed ^ tick.wrapping_mul(0xA5A5) ^ views[i].id),
                        i,
                    )
                });
            }
            TickOrder::Edf => {
                rest.sort_unstable_by_key(|&i| {
                    (
                        views[i].deadline.unwrap_or(u64::MAX),
                        views[i].last_step,
                        views[i].id,
                        i,
                    )
                });
            }
        }
        batch.clear();
        batch.extend(self.forced.iter().take(max_batch));
        if self.order == TickOrder::WeightedFair {
            self.select_weighted(views, max_batch, batch);
        } else {
            let room = max_batch - batch.len();
            batch.extend(self.rest.iter().take(room));
        }
    }

    /// The [`TickOrder::WeightedFair`] slot-by-slot selection after the
    /// forced aging picks already in `batch` (charged to their class so
    /// the accounting stays honest): each remaining slot goes to the
    /// highest-credit class (tie: lowest class id) and, within it, the
    /// least-recently-stepped request of the round-robin-sorted rest.
    fn select_weighted(&mut self, views: &[ActiveView], max_batch: usize, batch: &mut Vec<usize>) {
        let mut present = std::mem::take(&mut self.present);
        present.clear();
        present.extend(views.iter().map(|v| v.class));
        present.sort_unstable();
        present.dedup();
        for &i in batch.iter() {
            self.charge(views[i].class, &present);
        }
        while batch.len() < max_batch && !self.rest.is_empty() {
            let best_class = self
                .rest
                .iter()
                .map(|&i| views[i].class)
                .max_by_key(|&c| {
                    (
                        self.credits.get(&c).copied().unwrap_or(0),
                        std::cmp::Reverse(c),
                    )
                })
                .expect("rest is non-empty");
            let pos = self
                .rest
                .iter()
                .position(|&i| views[i].class == best_class)
                .expect("class came from rest");
            let i = self.rest.remove(pos);
            self.charge(best_class, &present);
            batch.push(i);
        }
        self.present = present;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One selection into a fresh batch.
    fn select(s: &mut Scheduler, views: &[ActiveView], tick: u64, max_batch: usize) -> Vec<usize> {
        let mut batch = Vec::new();
        s.select(views, tick, max_batch, &mut batch);
        batch
    }

    fn views(n: usize, tick: u64) -> Vec<ActiveView> {
        (0..n)
            .map(|i| ActiveView {
                id: i as u64,
                last_step: tick.saturating_sub(i as u64 % 3),
                admitted: 0,
                deadline: None,
                class: 0,
            })
            .collect()
    }

    #[test]
    fn round_robin_covers_everyone_within_a_rotation() {
        let mut s = Scheduler::new(TickOrder::RoundRobin, 6, 2);
        let mut last = [0u64; 6];
        for tick in 1..=30u64 {
            let vs: Vec<ActiveView> = (0..6)
                .map(|i| ActiveView {
                    id: i as u64,
                    last_step: last[i],
                    admitted: 0,
                    deadline: None,
                    class: 0,
                })
                .collect();
            let sel = select(&mut s, &vs, tick, 2);
            assert_eq!(sel.len(), 2);
            for i in sel {
                last[i] = tick;
            }
        }
        // Everyone was stepped within the last rotation (3 ticks).
        for (i, &l) in last.iter().enumerate() {
            assert!(30 - l < 4, "request {i} starved: last step at {l}");
        }
    }

    #[test]
    fn seeded_order_never_starves_thanks_to_aging() {
        let mut s = Scheduler::new(TickOrder::Seeded(99), 8, 1);
        let bound = s.starvation_bound();
        let mut last = [0u64; 8];
        for tick in 1..=400u64 {
            let vs: Vec<ActiveView> = (0..8)
                .map(|i| ActiveView {
                    id: i as u64,
                    last_step: last[i],
                    admitted: 0,
                    deadline: None,
                    class: 0,
                })
                .collect();
            for i in select(&mut s, &vs, tick, 1) {
                assert!(
                    tick - last[i] <= bound + 8,
                    "gap exceeded aging bound at tick {tick}"
                );
                last[i] = tick;
            }
        }
        for (i, &l) in last.iter().enumerate() {
            assert!(400 - l <= bound + 8, "request {i} starved");
        }
    }

    #[test]
    fn edf_orders_by_deadline_with_best_effort_last() {
        let mut s = Scheduler::new(TickOrder::Edf, 4, 2);
        let mk = |id: u64, deadline: Option<u64>| ActiveView {
            id,
            last_step: 4,
            admitted: 0,
            deadline,
            class: 0,
        };
        let vs = vec![
            mk(0, None),
            mk(1, Some(90)),
            mk(2, Some(20)),
            mk(3, Some(50)),
        ];
        assert_eq!(
            select(&mut s, &vs, 5, 4),
            vec![2, 3, 1, 0],
            "nearest deadline first, best-effort last"
        );
        // Aging still outranks deadlines: a starved best-effort request
        // is forced ahead of every deadline.
        let mut vs = vs;
        vs[0].last_step = 0;
        let tick = s.starvation_bound();
        assert_eq!(
            select(&mut s, &vs, tick, 2)[0],
            0,
            "aging guard wins over EDF"
        );
    }

    #[test]
    fn batch_never_exceeds_limit() {
        let mut s = Scheduler::new(TickOrder::RoundRobin, 16, 4);
        assert_eq!(select(&mut s, &views(16, 9), 9, 4).len(), 4);
        assert!(select(&mut s, &[], 3, 4).is_empty());
        // The batch is the caller's buffer: last tick's picks go.
        let mut batch = vec![7, 7, 7, 7, 7];
        s.select(&views(3, 9), 9, 4, &mut batch);
        assert_eq!(batch, select(&mut s, &views(3, 9), 9, 4));
        assert_eq!(batch.len(), 3);
    }

    #[test]
    fn weighted_fair_divides_slots_by_class_share() {
        // Two classes, weight 3 : 1, one request each, one slot per
        // tick: class 0 should get ~3/4 of the service — whatever the
        // light class is called (a class id is a key, never an index,
        // and one past the weights defaults to weight 1).
        for light in [1, u32::MAX] {
            let mut s = Scheduler::new(TickOrder::WeightedFair, 2, 1).with_class_weights(&[3, 1]);
            let mut served = [0usize; 2];
            let mut last = [0u64; 2];
            for tick in 1..=400u64 {
                let vs: Vec<ActiveView> = (0..2)
                    .map(|i| ActiveView {
                        id: i as u64,
                        last_step: last[i],
                        admitted: 0,
                        deadline: None,
                        class: [0, light][i],
                    })
                    .collect();
                for i in select(&mut s, &vs, tick, 1) {
                    served[i] += 1;
                    last[i] = tick;
                }
            }
            assert_eq!(served[0] + served[1], 400);
            assert!(
                (295..=305).contains(&served[0]),
                "weight-3 class got {} of 400 slots next to class {light}, expected ~300",
                served[0]
            );
        }
    }

    #[test]
    fn weighted_fair_never_starves_the_light_class() {
        // A weight-100 noisy neighbor with many requests vs one
        // weight-1 tenant: the aging guard still bounds the light
        // tenant's service gap per request.
        let mut s = Scheduler::new(TickOrder::WeightedFair, 8, 1).with_class_weights(&[100, 1]);
        let bound = s.starvation_bound();
        let mut last = [0u64; 8];
        for tick in 1..=400u64 {
            let vs: Vec<ActiveView> = (0..8)
                .map(|i| ActiveView {
                    id: i as u64,
                    last_step: last[i],
                    admitted: 0,
                    deadline: None,
                    class: u32::from(i == 7),
                })
                .collect();
            for i in select(&mut s, &vs, tick, 1) {
                assert!(
                    tick - last[i] <= bound + 8,
                    "gap exceeded aging bound at tick {tick} for request {i}"
                );
                last[i] = tick;
            }
        }
        assert!(
            400 - last[7] <= bound + 8,
            "weight-1 tenant starved: last step at {}",
            last[7]
        );
    }
}
