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
//!   ServeConfig.policy: SpecPolicy ─ asked by the serving tick only
//!        │ .shape(ShapeQuery{base, history, cap}, &mut slot)
//!        │                │             │
//!        │                │             └ the remaining per-tick
//!        │                │               verify capacity, under a
//!        │                │               ServeConfig::tick_capacity
//!        │                └ AcceptHistory: the request's own last
//!        │                  8 (speculated, accepted) steps
//!        ▼
//!   Stepper::pin_shape ──► Stepper::propose builds exactly this many
//!                          candidate paths (none for the empty shape)
//! ```
//!
//! The policy is a value, [`SpecPolicy`], and one place asks it: the
//! serving engine's capacity pass prices every member of a tick's
//! batch through it and pins the answer on the member's stepper. A
//! stepper decides nothing: it starts pinned to its configured shape
//! and runs the shape last pinned, so a serial `decode_*` engine runs
//! its configured shape every step, and a serial run under another
//! policy pins `policy.shape(…)` before each step itself.
//!
//! One shape covers every engine: the top-1 chain is the tree with no
//! width entries, and next-token prediction is [`SpecShape::EMPTY`],
//! the tree with no levels. The empty shape is every policy's fixed
//! point, and a policy that shrinks a shape to nothing runs the same
//! code NTP does.
//!
//! * [`SpecPolicy::Static`] (the default) — always the configured
//!   shape.
//! * [`SpecPolicy::Adaptive`] — the shape is a **pure function of the
//!   request's own acceptance history** ("offer the recently realized
//!   run length plus one level"). Because the history is request-local
//!   and deterministic, the serial and served paths make identical
//!   decisions and stay token-identical — adaptation never depends on
//!   batch composition.
//! * [`SpecPolicy::Budgeted`] — the serving policy: the engine divides
//!   its per-tick verify capacity (`verispec_serve::ServeConfig::tick_capacity`,
//!   the one capacity knob) across the batch and each request's shape
//!   is shrunk to its slice ([`SpecShape::shrink_to`]), so more
//!   requests fit into one tick instead of a few wide trees
//!   monopolizing the verify pass.
//!
//! A decision depends only on its [`ShapeQuery`] inputs. That is what
//! makes replayed traces and the served-equals-serial property hold.
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
    /// [`SpecShape::shrink_to`] ends at. Every [`SpecPolicy`] answers
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
    /// built at `n_heads`, and a [`SpecPolicy`] only ever shrinks
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

    /// Shrinks the shape, in place, to the largest one no costlier than
    /// `max_cost`, deterministically: depth is reduced first (down to
    /// one level), then widths (deepest level first), then to zero
    /// levels — so a shape can always fit any budget ≥ 1. A shape that
    /// already fits is left as it is.
    pub fn shrink_to(&mut self, max_cost: usize) {
        while self.step_cost() > max_cost.max(1) {
            // Only widths of still-explored levels can change the cost.
            let explored = self.depth.min(self.widths.len());
            if self.depth > 1 {
                self.depth -= 1;
            } else if let Some(w) = self.widths[..explored].iter_mut().rev().find(|w| **w > 1) {
                *w -= 1;
            } else {
                self.depth = 0;
            }
        }
    }
}

/// How many recent steps [`AcceptHistory`] retains: the window
/// [`SpecPolicy::Adaptive`] averages its realized run length over.
const HISTORY_WINDOW: usize = 8;

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
    /// accepted)` pairs: step `n` (from 0) in slot `n %
    /// HISTORY_WINDOW`, the first `steps` slots filled.
    recent: [(u32, u32); HISTORY_WINDOW],
}

impl AcceptHistory {
    /// Records one committed step.
    pub fn record(&mut self, speculated: usize, accepted: usize) {
        debug_assert!(accepted <= speculated);
        self.recent[self.steps % HISTORY_WINDOW] = (speculated as u32, accepted as u32);
        self.steps += 1;
        self.speculated += speculated;
        self.accepted += accepted;
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
    /// last [`HISTORY_WINDOW`] steps (steps that offered no candidates
    /// are skipped); `None` while nothing in the window speculated.
    fn recent_mean_accepted(&self) -> Option<f64> {
        let window = &self.recent[..self.steps.min(HISTORY_WINDOW)];
        let (mut steps, mut accepted) = (0u32, 0u64);
        for &(spec, acc) in window {
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
    /// What is left of the tick's verify capacity for this request, in
    /// [`SpecShape::step_cost`] units: `Some` only when the serving
    /// tick prices its batch under a
    /// `verispec_serve::ServeConfig::tick_capacity`, `None` otherwise
    /// (and on a serial run). Only [`SpecPolicy::Budgeted`] reads it;
    /// the policies that must stay serial/served-identical ignore it.
    pub cap: Option<usize>,
}

/// The per-request, per-step speculation-shape decision: which shape a
/// request's next step runs, given its configured shape, its own
/// history and the capacity left in the tick. Set on the serving engine
/// as `verispec_serve::ServeConfig::policy`; see the module docs.
///
/// Every decision is a deterministic pure function of the
/// [`ShapeQuery`], so decisions replay identically across serial runs,
/// served runs and recorded traces, and every variant answers the empty
/// shape with itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpecPolicy {
    /// Always the configured shape, regardless of history or capacity.
    #[default]
    Static,
    /// Dynamic speculation length: offer the recently *realized* run
    /// length plus one level, never more than configured.
    ///
    /// The depth is `min(⌊mean accepted per speculating step among the
    /// last 8 steps⌋ + 1, configured depth)`: a request whose speculation
    /// keeps cashing out keeps its full tree, one whose candidates keep
    /// being rejected stops paying for depth it never realizes. Until
    /// one of its last 8 steps speculated, the configured shape runs
    /// (optimistic warm-up). The empty shape stays empty.
    ///
    /// The decision reads only the request's own [`AcceptHistory`] —
    /// not the cap, not the batch — so serial and served runs stay
    /// token-identical under adaptation (`proptest_policy.rs` pins it).
    Adaptive,
    /// The serving policy: each request's shape shrunk
    /// ([`SpecShape::shrink_to`]) into what is left of the tick's
    /// verify capacity (`verispec_serve::ServeConfig::tick_capacity`).
    ///
    /// Where [`SpecPolicy::Static`] under a capacity *defers* requests
    /// whose full shape does not fit the remaining budget (a few wide
    /// trees monopolize the tick), `Budgeted` shrinks the shape to
    /// whatever budget is left, so the tick packs as many requests as
    /// the budget allows. Because the realized shape depends on batch
    /// composition, served outputs under sampling may differ from the
    /// serial single-stream run — this is explicitly a *serving*
    /// policy, traded for tail latency under overload. Without a
    /// capacity there is no slice, and the configured shape runs.
    Budgeted,
}

impl SpecPolicy {
    /// Every policy, in the order bench tables list them.
    pub const ALL: [SpecPolicy; 3] = [
        SpecPolicy::Static,
        SpecPolicy::Adaptive,
        SpecPolicy::Budgeted,
    ];

    /// Policy name for telemetry and bench tables.
    pub fn name(&self) -> &'static str {
        match self {
            SpecPolicy::Static => "static",
            SpecPolicy::Adaptive => "adaptive",
            SpecPolicy::Budgeted => "budgeted",
        }
    }

    /// Fills `out` with the shape the request's next step should run.
    /// `out` is the caller's slot, refilled in place
    /// ([`SpecShape::copy_into`]), so a decision allocates nothing once
    /// the slot has held a shape as wide.
    pub fn shape(&self, query: &ShapeQuery<'_>, out: &mut SpecShape) {
        query.base.copy_into(out);
        match self {
            SpecPolicy::Static => {}
            SpecPolicy::Adaptive => {
                if let Some(mean) = query.history.recent_mean_accepted() {
                    out.depth = out.depth.min(mean.floor() as usize + 1);
                }
            }
            SpecPolicy::Budgeted => {
                if let Some(cap) = query.cap {
                    out.shrink_to(cap);
                }
            }
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

    /// `policy`'s answer for `base` under `history` and `cap`.
    fn decide(
        policy: SpecPolicy,
        base: &SpecShape,
        history: &AcceptHistory,
        cap: Option<usize>,
    ) -> SpecShape {
        let mut out = SpecShape::EMPTY;
        policy.shape(&ShapeQuery { base, history, cap }, &mut out);
        out
    }

    #[test]
    fn static_policy_is_the_identity() {
        let base = tree(&[2, 2, 1], 5);
        let h = hist(&[(10, 0), (10, 0)]);
        let shape = decide(SpecPolicy::Static, &base, &h, Some(1));
        assert_eq!(shape, base, "static must ignore history and cap");
        assert_eq!(SpecPolicy::default(), SpecPolicy::Static);
    }

    #[test]
    fn adaptive_tracks_realized_run_length() {
        let base = tree(&[2, 2], 4);
        let p = SpecPolicy::Adaptive;
        // Warm-up: no speculation yet → configured shape.
        let h = AcceptHistory::default();
        assert_eq!(decide(p, &base, &h, None), base);
        // Everything rejected → one level.
        let h = hist(&[(8, 0), (8, 0), (8, 0)]);
        assert_eq!(decide(p, &base, &h, None), tree(&[2, 2], 1));
        // High realization → full configured depth, never more.
        let h = hist(&[(8, 4), (8, 4), (8, 4)]);
        assert_eq!(decide(p, &base, &h, None), tree(&[2, 2], 4));
    }

    #[test]
    fn adaptive_ignores_old_history_beyond_window() {
        let mut h = hist(&[(8, 8); 20]);
        for _ in 0..HISTORY_WINDOW {
            h.record(8, 0);
        }
        // The last 8 steps cashed nothing; the old streak must not leak.
        assert_eq!(h.recent_mean_accepted(), Some(0.0));
        let base = tree(&[], 6);
        assert_eq!(decide(SpecPolicy::Adaptive, &base, &h, None), tree(&[], 1));
        // One step fewer and the streak's last step is still in view.
        let mut h = hist(&[(8, 8); 20]);
        for _ in 1..HISTORY_WINDOW {
            h.record(8, 0);
        }
        assert_eq!(h.recent_mean_accepted(), Some(1.0));
    }

    #[test]
    fn shrink_to_fits_any_budget_monotonically() {
        let shapes = [tree(&[3, 2, 2], 6), tree(&[], 5), tree(&[4, 4], 2)];
        for shape in &shapes {
            let mut last = usize::MAX;
            for cap in (1..=shape.step_cost() + 2).rev() {
                let mut shrunk = shape.clone();
                shrunk.shrink_to(cap);
                assert!(shrunk.step_cost() <= cap, "{shape:?} at cap {cap}");
                assert!(shrunk.step_cost() <= last, "shrinking must be monotone");
                last = shrunk.step_cost();
                // A shape that fits is left as it is.
                let mut again = shrunk.clone();
                again.shrink_to(cap);
                assert_eq!(again, shrunk);
            }
            // Cap 1 always fits: the empty shape, zero candidates.
            let mut shrunk = shape.clone();
            shrunk.shrink_to(1);
            assert_eq!(shrunk.step_cost(), 1);
            assert_eq!(shrunk.depth, 0);
        }
    }

    #[test]
    fn budgeted_shrinks_into_its_cap() {
        let p = SpecPolicy::Budgeted;
        let base = tree(&[2, 2, 1], 6);
        let h = AcceptHistory::default();
        assert_eq!(decide(p, &base, &h, None), base, "no cap → the base");
        assert_eq!(
            decide(p, &base, &h, Some(base.step_cost())),
            base,
            "a base that fits runs as configured"
        );
        let fitted = decide(p, &base, &h, Some(7));
        assert!(fitted.step_cost() <= 7);
        assert_ne!(fitted, base);
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
        // Every policy answers into the caller's slot the same way.
        let h = hist(&[(8, 0), (8, 1)]);
        for policy in SpecPolicy::ALL {
            for cap in [None, Some(1), Some(7)] {
                policy.shape(
                    &ShapeQuery {
                        base: &tree(&[2, 2, 1], 3),
                        history: &h,
                        cap,
                    },
                    &mut slot,
                );
                assert_eq!(
                    slot.widths.as_ptr(),
                    at,
                    "{} refilled in place",
                    policy.name()
                );
            }
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
        for policy in SpecPolicy::ALL {
            for history in &histories {
                for cap in caps {
                    // A slot that held a shape before, as a caller's does.
                    let mut slot = tree(&[2, 2], 3);
                    policy.shape(
                        &ShapeQuery {
                            base: &SpecShape::EMPTY,
                            history,
                            cap,
                        },
                        &mut slot,
                    );
                    assert_eq!(
                        slot,
                        SpecShape::EMPTY,
                        "{} moved the empty shape (cap {cap:?}, {history:?})",
                        policy.name()
                    );
                }
            }
        }
        assert_eq!(SpecShape::EMPTY.candidate_tokens(), 0);
        assert_eq!(SpecShape::EMPTY.step_cost(), 1);
        let mut shrunk = SpecShape::EMPTY;
        shrunk.shrink_to(1);
        assert_eq!(shrunk, SpecShape::EMPTY);
    }

    #[test]
    fn history_rates_and_purity() {
        let h = hist(&[(4, 2), (0, 0), (6, 3)]);
        assert_eq!(h.steps(), 3);
        assert_eq!((h.speculated(), h.accepted()), (10, 5));
        assert_eq!(h.acceptance_rate(), Some(0.5));
        // Non-speculating steps are skipped by the window mean.
        assert_eq!(h.recent_mean_accepted(), Some(2.5));
        assert_eq!(AcceptHistory::default().acceptance_rate(), None);
        // Identical histories → identical decisions (purity witness).
        let a = hist(&[(8, 3), (8, 1)]);
        let b = hist(&[(8, 3), (8, 1)]);
        let base = tree(&[], 5);
        for policy in SpecPolicy::ALL {
            assert_eq!(
                decide(policy, &base, &a, None),
                decide(policy, &base, &b, None)
            );
        }
        assert_eq!(
            SpecPolicy::ALL.map(|p| p.name()),
            ["static", "adaptive", "budgeted"]
        );
    }
}
