//! The speculation-policy layer: *how much speculation to buy*, per
//! request, per step.
//!
//! # Why a policy layer
//!
//! The paper tunes one fixed MEDUSA tree shape for a single stream.
//! Under batch pressure that stops being the right question: the
//! serving engine's scarce resource is the **per-tick candidate
//! budget** (how many verify positions the fused pass can afford), and
//! "Speculative Decoding: Performance or Illusion?" shows that fixed
//! speculation can *hurt* goodput once requests compete. The two
//! ROADMAP items this layer closes — dynamic speculation length and
//! SLO-aware scheduling — are both instances of one missing
//! abstraction: a per-step decision procedure between the request's
//! *configured* speculation shape and the shape it actually runs.
//!
//! # The stack
//!
//! ```text
//!   DecodeConfig.tree                            (the configured shape;
//!        │ Engine::base_shape()                    SpecShape::EMPTY for NTP)
//!        ▼
//!   SpecPolicy::shape(ShapeQuery{base, history, cap})
//!        │                │             │
//!        │                │             └ per-request slice of the
//!        │                │               engine's per-tick verify
//!        │                │               capacity (serving only)
//!        │                └ AcceptHistory: the request's own past
//!        │                  (speculated, accepted) per step
//!        ▼
//!   SpecShape ──► Stepper::propose builds exactly this many
//!                 candidate paths (none for the empty shape)
//! ```
//!
//! One shape covers every engine: the top-1 chain is the tree with no
//! width entries, and next-token prediction is [`SpecShape::EMPTY`],
//! the tree with no levels. The empty shape is every bundled policy's
//! fixed point, and a policy that shrinks a shape to nothing runs the
//! same code NTP does.
//!
//! * [`StaticPolicy`] — always the configured shape. This is today's
//!   behavior, bit-identically: every existing engine and test runs
//!   under it by default.
//! * [`AdaptivePolicy`] — the shape is a **pure function of the
//!   request's own acceptance history** ("offer the recently realized
//!   run length plus one level"). Because the history is request-local
//!   and deterministic, the serial and served paths make identical
//!   decisions and stay token-identical — adaptation never depends on
//!   batch composition.
//! * [`BudgetedPolicy`] — the serving policy: the engine divides its
//!   per-tick verify capacity (`verispec_serve::ServeConfig::tick_capacity`,
//!   the one capacity knob) across the batch and each request's shape
//!   is shrunk to its slice ([`SpecShape::shrink_to`]), so more
//!   requests fit into one tick instead of a few wide trees
//!   monopolizing the verify pass.
//!
//! Policies must be deterministic and free of interior mutability:
//! a decision may depend only on its [`ShapeQuery`] inputs. That is
//! what makes replayed traces and the served-equals-serial property
//! hold.
//!
//! Routing is the sibling per-request decision this layer deliberately
//! does *not* own: *where* a request runs is `verispec-serve`'s
//! `RoutePolicy` — including the cache-aware prefix-affine route,
//! which probes each worker's prefix cache for the deepest stem match
//! so repeat prompts land where their session snapshots already live.
//! The speculation policy prices the work *after* placement, from
//! request-local state only, so the two layers compose without either
//! reading the other's.

use crate::decode::MAX_CANDIDATE_PATHS;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// The speculation bought for one step of one request: the paper's
/// candidate tree, level `i` drawn from head `i`'s top-`widths[i-1]`
/// over the first `depth` heads.
///
/// Shapes are interpreted against the model's `n_heads` extra MEDUSA
/// heads, and a missing (or zero) width entry means 1 — exactly the
/// semantics [`crate::decode::DecodeConfig::tree`] always had, so the
/// static mapping is the identity. One form covers every engine: the
/// top-1 chain is the tree with no width entries (every level width 1,
/// `tree: None`), and next-token prediction is [`SpecShape::EMPTY`],
/// the tree with no levels (also the `Default`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpecShape {
    /// Per-level top-k widths.
    pub widths: Vec<usize>,
    /// Head levels explored: a step reads the logits of heads
    /// `0..=depth` and no others.
    pub depth: usize,
}

impl SpecShape {
    /// The shape with no levels: next-token prediction, and what
    /// [`SpecShape::shrink_to`] ends at. Every bundled policy answers
    /// it with itself.
    pub const EMPTY: SpecShape = SpecShape {
        widths: Vec::new(),
        depth: 0,
    };

    /// Candidate tokens this shape proposes per step, mirroring
    /// [`crate::decode`]'s path construction (including the
    /// `MAX_CANDIDATE_PATHS` cap of 32), so a serving engine can budget a
    /// tick *before* any logits exist.
    ///
    /// The mirror is exact for a shape that fits its model
    /// ([`SpecShape::clamp`]): no deeper than the head count, no
    /// level wider than the vocabulary — true of every shape derived
    /// from a stepper's base shape on any real vocabulary (the base is
    /// built at `n_heads`, and the bundled policies only ever shrink
    /// it). The stepper clamps every shape it takes before it reads
    /// this count, because the simulated clock, the step trace and the
    /// acceptance history are charged from it.
    pub fn candidate_tokens(&self) -> usize {
        let n_paths = self
            .level_widths()
            .fold(1, |n, k| (n * k).min(MAX_CANDIDATE_PATHS));
        n_paths * self.depth
    }

    /// The per-level candidate widths of a shape that fits its model
    /// ([`SpecShape::clamp`]): one entry per explored level, a missing
    /// or zero width being 1.
    pub(crate) fn level_widths(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.depth).map(|level| self.widths.get(level).copied().unwrap_or(1).max(1))
    }

    /// Copies the shape into `slot`, refilling its widths in place, so
    /// a slot refilled every step allocates nothing once warm (a
    /// derived `clone` would allocate anew).
    pub fn copy_into(&self, slot: &mut SpecShape) {
        slot.widths.clone_from(&self.widths);
        slot.depth = self.depth;
    }

    /// Cuts the shape, in place, to what a model with `n_heads` Medusa
    /// heads over `vocab` tokens can run: depth to the heads that exist,
    /// widths to the tokens a head can rank. Nothing else is touched
    /// (absent and zero widths keep meaning 1).
    pub fn clamp(&mut self, n_heads: usize, vocab: usize) {
        self.depth = self.depth.min(n_heads);
        self.widths.iter_mut().for_each(|w| *w = (*w).min(vocab));
    }

    /// Verify positions one step of this shape costs the engine: the
    /// base/bonus row plus every candidate token. This is the unit the
    /// per-tick candidate budget is denominated in (an NTP step costs
    /// exactly 1).
    pub fn step_cost(&self) -> usize {
        1 + self.candidate_tokens()
    }

    /// The largest shape no costlier than `max_cost`, shrunk
    /// deterministically: depth is reduced first (down to one level),
    /// then widths (deepest level first), then to zero levels — so a
    /// shape can always fit any budget ≥ 1.
    pub fn shrink_to(&self, max_cost: usize) -> SpecShape {
        let mut shape = self.clone();
        while shape.step_cost() > max_cost.max(1) {
            // Only widths of still-explored levels can change the cost.
            let explored = shape.depth.min(shape.widths.len());
            if shape.depth > 1 {
                shape.depth -= 1;
            } else if let Some(w) = shape.widths[..explored].iter_mut().rev().find(|w| **w > 1) {
                *w -= 1;
            } else {
                shape.depth = 0;
            }
        }
        shape
    }
}

/// How many recent steps [`AcceptHistory`] retains.
const HISTORY_WINDOW: usize = 32;

/// One request's per-step acceptance history — the only state an
/// adaptive policy may read.
///
/// Recorded by the [`crate::step::Stepper`] at every commit:
/// `speculated` candidate tokens offered, `accepted` of them cashed
/// (excluding the base token, which is always committed), so
/// adaptation is a pure function of the request's own trajectory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AcceptHistory {
    steps: usize,
    speculated: usize,
    accepted: usize,
    /// Ring of the last [`HISTORY_WINDOW`] steps' `(speculated,
    /// accepted)` pairs, oldest first.
    recent: std::collections::VecDeque<(u32, u32)>,
}

impl AcceptHistory {
    /// Records one committed step.
    pub fn record(&mut self, speculated: usize, accepted: usize) {
        debug_assert!(accepted <= speculated);
        self.steps += 1;
        self.speculated += speculated;
        self.accepted += accepted;
        if self.recent.len() == HISTORY_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back((speculated as u32, accepted as u32));
    }

    /// Steps recorded over the generation's lifetime.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Candidate tokens speculated over the lifetime.
    pub fn speculated(&self) -> usize {
        self.speculated
    }

    /// Speculated tokens accepted over the lifetime.
    pub fn accepted(&self) -> usize {
        self.accepted
    }

    /// Lifetime acceptance rate (`accepted / speculated`), `None`
    /// before anything was speculated.
    pub fn acceptance_rate(&self) -> Option<f64> {
        (self.speculated > 0).then(|| self.accepted as f64 / self.speculated as f64)
    }

    /// Mean accepted speculated tokens per *speculating* step over the
    /// last `window` steps (steps that offered no candidates are
    /// skipped); `None` while nothing in the window speculated.
    fn recent_mean_accepted(&self, window: usize) -> Option<f64> {
        let tail = self.recent.iter().rev().take(window);
        let (mut steps, mut accepted) = (0u32, 0u64);
        for &(spec, acc) in tail {
            if spec > 0 {
                steps += 1;
                accepted += u64::from(acc);
            }
        }
        (steps > 0).then(|| accepted as f64 / f64::from(steps))
    }
}

/// Everything a policy may look at when shaping one request's next
/// step.
#[derive(Debug, Clone, Copy)]
pub struct ShapeQuery<'a> {
    /// The request's configured shape (from its decode config).
    pub base: &'a SpecShape,
    /// The request's own acceptance history.
    pub history: &'a AcceptHistory,
    /// This request's slice of the engine's per-tick candidate budget,
    /// in [`SpecShape::step_cost`] units (`None` when serving without
    /// a budget, and always `None` on the serial path). Policies that
    /// must stay serial/served-identical ignore it; [`BudgetedPolicy`]
    /// shrinks into it.
    pub cap: Option<usize>,
}

/// A per-request, per-step speculation-shape decision procedure.
///
/// Implementations must be deterministic pure functions of the
/// [`ShapeQuery`] — no interior mutability, no global state — so that
/// decisions replay identically across serial runs, served runs and
/// recorded traces.
pub trait SpecPolicy: Sync {
    /// Policy name for telemetry and bench tables.
    fn name(&self) -> &'static str;

    /// The shape the request's next step should run: borrowed from
    /// `query.base` when the policy keeps the configured shape, so that
    /// the common decision costs no allocation.
    fn shape<'a>(&self, query: &ShapeQuery<'a>) -> Cow<'a, SpecShape>;
}

/// Today's behavior: always the configured shape, regardless of
/// history or budget. Bit-identical to the pre-policy engines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticPolicy;

/// The shared static-policy instance every stepper starts under.
pub static STATIC_POLICY: StaticPolicy = StaticPolicy;

impl SpecPolicy for StaticPolicy {
    fn name(&self) -> &'static str {
        "static"
    }

    fn shape<'a>(&self, query: &ShapeQuery<'a>) -> Cow<'a, SpecShape> {
        Cow::Borrowed(query.base)
    }
}

/// Dynamic speculation length: offer the recently *realized* run
/// length plus one level, never more than configured.
///
/// The decision is `depth = min(⌊mean accepted over the last
/// `window` speculating steps⌋ + 1, configured depth)`: a request
/// whose speculation keeps cashing out keeps its full tree, one whose
/// candidates keep being rejected stops paying for depth it never
/// realizes. Until the first
/// `window` has any speculating step, the configured shape runs
/// (optimistic warm-up). The empty shape stays empty.
///
/// The decision reads only the request's own [`AcceptHistory`] — not
/// the cap, not the batch — so serial and served runs stay
/// token-identical under adaptation (`proptest_policy.rs` pins it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptivePolicy {
    /// Recent steps the realized-run estimate averages over. The
    /// history retains at most 32 steps, so values beyond that behave
    /// as 32.
    pub window: usize,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy { window: 8 }
    }
}

impl AdaptivePolicy {
    fn adapted_depth(&self, configured: usize, history: &AcceptHistory) -> usize {
        match history.recent_mean_accepted(self.window) {
            None => configured,
            Some(mean) => (mean.floor() as usize + 1).min(configured),
        }
    }
}

impl SpecPolicy for AdaptivePolicy {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn shape<'a>(&self, query: &ShapeQuery<'a>) -> Cow<'a, SpecShape> {
        Cow::Owned(SpecShape {
            widths: query.base.widths.clone(),
            depth: self.adapted_depth(query.base.depth, query.history),
        })
    }
}

/// The serving policy: each request's shape shrunk into its slice of
/// the engine's per-tick verify capacity
/// (`verispec_serve::ServeConfig::tick_capacity`), which the engine
/// divides across the batch.
///
/// Where [`StaticPolicy`] under a capacity-gated engine *defers*
/// requests whose full shape does not fit the remaining budget (a few
/// wide trees monopolize the tick), `BudgetedPolicy` shrinks the shape
/// to whatever budget is left ([`SpecShape::shrink_to`]), so the tick
/// packs as many requests as the budget allows. Because the realized
/// shape depends on batch composition, served outputs under sampling
/// may differ from the serial single-stream run — this is explicitly a
/// *serving* policy, traded for tail latency under overload.
/// Without a capacity there is no slice, and the configured shape runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetedPolicy;

impl SpecPolicy for BudgetedPolicy {
    fn name(&self) -> &'static str {
        "budgeted"
    }

    fn shape<'a>(&self, query: &ShapeQuery<'a>) -> Cow<'a, SpecShape> {
        match query.cap {
            Some(cap) if query.base.step_cost() > cap.max(1) => {
                Cow::Owned(query.base.shrink_to(cap))
            }
            _ => Cow::Borrowed(query.base),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::build_candidate_paths;

    fn tree(widths: &[usize], depth: usize) -> SpecShape {
        SpecShape {
            widths: widths.to_vec(),
            depth,
        }
    }

    fn hist(entries: &[(usize, usize)]) -> AcceptHistory {
        let mut h = AcceptHistory::default();
        for &(s, a) in entries {
            h.record(s, a);
        }
        h
    }

    #[test]
    fn candidate_tokens_mirror_path_construction_exactly() {
        // For every shape, the pre-logits cost of the shape as the
        // stepper takes it (clamped to the model) must equal the number
        // of candidate tokens the real builder produces from the shape
        // as given — the builder clamps on its own, to the heads it is
        // handed and the logits it ranks.
        let (n_heads, vocab) = (6, 8);
        let mut logits = verispec_lm::LogitsArena::new();
        for i in 1..=n_heads {
            let row: Vec<f32> = (0..vocab).map(|j| ((i * 13 + j * 7) % 11) as f32).collect();
            logits.push_row(&row);
        }
        let shapes = [
            tree(&[], 6),
            tree(&[], 2),
            tree(&[2, 2, 1], 6),
            tree(&[3, 2], 3),
            tree(&[4, 4, 4], 3), // hits MAX_CANDIDATE_PATHS
            SpecShape::EMPTY,
            tree(&[1, 1], 0),
            // Deeper than the model has heads.
            tree(&[], 9),
            tree(&[2, 2], 11),
            // The 32-path cut lands inside a parent's options (5 · 7),
            // with levels below it and as the last level.
            tree(&[5, 7, 2], 4),
            tree(&[7, 5], 2),
            tree(&[3, 0, 5, 4], 5),
            // Wider than the vocabulary: a head ranks 8 tokens.
            tree(&[9, 3], 2),
            tree(&[40], 1),
            tree(&[2, 100, 1], 7),
        ];
        for shape in &shapes {
            let paths = build_candidate_paths(logits.rows_from(0), n_heads, shape);
            let built: usize = paths.iter().map(Vec::len).sum();
            let mut taken = shape.clone();
            taken.clamp(n_heads, vocab);
            assert_eq!(
                taken.candidate_tokens(),
                built,
                "cost mirror diverged for {shape:?}"
            );
            assert!(taken.depth <= n_heads);
            let mut again = taken.clone();
            again.clamp(n_heads, vocab);
            assert_eq!(again, taken);
        }
        // Clamping leaves a shape that fits untouched — serialized
        // shapes in traces do not move.
        for shape in &shapes[..7] {
            let mut taken = shape.clone();
            taken.clamp(n_heads, vocab);
            assert_eq!(&taken, shape);
        }
    }

    #[test]
    fn static_policy_is_the_identity() {
        let base = tree(&[2, 2, 1], 5);
        let h = hist(&[(10, 0), (10, 0)]);
        let shape = StaticPolicy.shape(&ShapeQuery {
            base: &base,
            history: &h,
            cap: Some(1),
        });
        assert!(matches!(shape, Cow::Borrowed(_)), "static lends the base");
        assert_eq!(*shape, base, "static must ignore history and cap");
    }

    #[test]
    fn adaptive_tracks_realized_run_length() {
        let base = tree(&[2, 2], 4);
        let p = AdaptivePolicy::default();
        // Warm-up: no speculation yet → configured shape.
        let h = AcceptHistory::default();
        assert_eq!(
            *p.shape(&ShapeQuery {
                base: &base,
                history: &h,
                cap: None
            }),
            base
        );
        // Everything rejected → one level.
        let h = hist(&[(8, 0), (8, 0), (8, 0)]);
        let shape = p.shape(&ShapeQuery {
            base: &base,
            history: &h,
            cap: None,
        });
        assert_eq!(*shape, tree(&[2, 2], 1));
        // High realization → full configured depth, never more.
        let h = hist(&[(8, 4), (8, 4), (8, 4)]);
        let shape = p.shape(&ShapeQuery {
            base: &base,
            history: &h,
            cap: None,
        });
        assert_eq!(*shape, tree(&[2, 2], 4));
    }

    #[test]
    fn adaptive_ignores_old_history_beyond_window() {
        let p = AdaptivePolicy { window: 4 };
        let mut h = hist(&[(8, 8); 20]);
        for _ in 0..4 {
            h.record(8, 0);
        }
        // The last 4 steps cashed nothing; the old streak must not leak.
        assert_eq!(h.recent_mean_accepted(4), Some(0.0));
        let base = tree(&[], 6);
        let shape = p.shape(&ShapeQuery {
            base: &base,
            history: &h,
            cap: None,
        });
        assert_eq!(*shape, tree(&[], 1));
    }

    #[test]
    fn shrink_to_fits_any_budget_monotonically() {
        let shapes = [tree(&[3, 2, 2], 6), tree(&[], 5), tree(&[4, 4], 2)];
        for shape in &shapes {
            let mut last = usize::MAX;
            for cap in (1..=shape.step_cost() + 2).rev() {
                let shrunk = shape.shrink_to(cap);
                assert!(shrunk.step_cost() <= cap, "{shape:?} at cap {cap}");
                assert!(shrunk.step_cost() <= last, "shrinking must be monotone");
                last = shrunk.step_cost();
            }
            // Cap 1 always fits: the empty shape, zero candidates.
            assert_eq!(shape.shrink_to(1).step_cost(), 1);
            assert_eq!(shape.shrink_to(1).depth, 0);
        }
    }

    #[test]
    fn budgeted_shrinks_into_its_cap() {
        let p = BudgetedPolicy;
        let base = tree(&[2, 2, 1], 6);
        let h = AcceptHistory::default();
        let full = p.shape(&ShapeQuery {
            base: &base,
            history: &h,
            cap: None,
        });
        assert!(matches!(full, Cow::Borrowed(_)), "no cap → the base, lent");
        assert_eq!(*full, base);
        let fits = p.shape(&ShapeQuery {
            base: &base,
            history: &h,
            cap: Some(base.step_cost()),
        });
        assert!(matches!(fits, Cow::Borrowed(_)), "a base that fits is lent");
        let fitted = p.shape(&ShapeQuery {
            base: &base,
            history: &h,
            cap: Some(7),
        });
        assert!(fitted.step_cost() <= 7);
        assert_ne!(*fitted, base);
    }

    #[test]
    fn refilling_a_tree_keeps_its_allocation() {
        let mut slot = SpecShape::EMPTY;
        tree(&[3, 2, 2], 6).copy_into(&mut slot);
        let at = slot.widths.as_ptr();
        for source in [
            tree(&[2, 1], 2),
            tree(&[4, 4, 1], 3),
            tree(&[], 3),
            SpecShape::EMPTY,
            tree(&[1], 1),
        ] {
            source.copy_into(&mut slot);
            assert_eq!(slot, source);
            assert_eq!(slot.widths.as_ptr(), at, "refilled in place");
        }
    }

    #[test]
    fn the_empty_shape_is_every_policys_fixed_point() {
        // NTP is the empty shape, and "stop now" must stay a value every
        // policy can return: asked about it, each answers it, whatever
        // the history and the cap.
        let histories = [
            AcceptHistory::default(),
            hist(&[(0, 0); 40]),
            hist(&[(8, 0), (8, 0)]),
            hist(&[(8, 4), (8, 4), (8, 8)]),
            hist(&[(6, 6); 40]),
        ];
        let caps = [None, Some(0), Some(1), Some(2), Some(3)];
        let mut policies: Vec<Box<dyn SpecPolicy>> =
            vec![Box::new(StaticPolicy), Box::new(BudgetedPolicy)];
        for window in [0, 1, 4, 8, 32, 100] {
            policies.push(Box::new(AdaptivePolicy { window }));
        }
        let empty = SpecShape::EMPTY;
        for policy in &policies {
            for history in &histories {
                for cap in caps {
                    let shape = policy.shape(&ShapeQuery {
                        base: &empty,
                        history,
                        cap,
                    });
                    assert_eq!(
                        *shape,
                        SpecShape::EMPTY,
                        "{} moved the empty shape (cap {cap:?}, {history:?})",
                        policy.name()
                    );
                }
            }
        }
        assert_eq!(SpecShape::EMPTY.candidate_tokens(), 0);
        assert_eq!(SpecShape::EMPTY.step_cost(), 1);
        assert_eq!(SpecShape::EMPTY.shrink_to(1), SpecShape::EMPTY);
    }

    #[test]
    fn history_rates_and_purity() {
        let h = hist(&[(4, 2), (0, 0), (6, 3)]);
        assert_eq!(h.steps(), 3);
        assert_eq!((h.speculated(), h.accepted()), (10, 5));
        assert_eq!(h.acceptance_rate(), Some(0.5));
        // Non-speculating steps are skipped by the window mean.
        assert_eq!(h.recent_mean_accepted(3), Some(2.5));
        assert_eq!(AcceptHistory::default().acceptance_rate(), None);
        // Identical histories → identical decisions (purity witness).
        let a = hist(&[(8, 3), (8, 1)]);
        let b = hist(&[(8, 3), (8, 1)]);
        let base = tree(&[], 5);
        for policy in [&AdaptivePolicy::default() as &dyn SpecPolicy, &StaticPolicy] {
            assert_eq!(
                policy.shape(&ShapeQuery {
                    base: &base,
                    history: &a,
                    cap: None
                }),
                policy.shape(&ShapeQuery {
                    base: &base,
                    history: &b,
                    cap: None
                }),
            );
        }
    }
}
