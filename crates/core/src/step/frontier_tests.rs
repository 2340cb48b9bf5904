//! Frontier verification and lazily grown trees against the
//! definitions they replaced.
//!
//! The engines forward a candidate-tree node only once acceptance has
//! reached it, and evaluate a Medusa head — name a level's tokens —
//! only once acceptance has reached that level. What they commit must
//! not be able to tell: this file keeps the *eager* step — every
//! explored head's row up front, the whole tree built from them
//! ([`build_candidate_paths`]), every node scored with
//! [`DecodeSession::verify_batch`], each path walked to its first
//! rejection on one full distribution per edge — as a test oracle, and
//! pins the level loop to it on every session kind; it also pins what
//! the level loop buys (forwards and head rows per step track the
//! accepted depth) and the edge cases the rewrites had to carry over.
//!
//! A step also opens at the row its predecessor's verification left at
//! the node the committed span ended at, instead of forwarding that
//! position again. The oracles here never do — they rebuild the trie
//! without rows, so nothing is carried out of a step they verified —
//! which makes every lazy-vs-eager and level-vs-whole comparison a
//! carried-vs-forwarded one as well; `carried_base_equals_forwarded_base`
//! pins the carry on its own, row bits included.

use super::tests::{cyclic_ngram, drive_fused, tiny_model};
use super::*;
use crate::decode::build_candidate_paths;
use crate::draft::DraftConfig;
use crate::policy::AdaptivePolicy;
use proptest::prelude::*;
use std::cell::Cell;
use verispec_lm::matrix::tempered_softmax_into;
use verispec_lm::{MlpLm, MlpLmConfig, Stateless};

/// Acceptance by definition: one full distribution per edge, then exact
/// match (greedy) or Eq. 1 (sampling) on it.
pub(super) fn reference_accepts(
    logits: &[f32],
    tok: TokenId,
    sampling: Sampling,
    acceptance: &TypicalAcceptance,
) -> bool {
    match sampling {
        Sampling::Greedy => tok == argmax(&softmax(logits)),
        Sampling::Temperature { temperature, .. } => {
            let scaled: Vec<f32> = logits.iter().map(|&l| l / temperature).collect();
            acceptance.accepts(&softmax(&scaled), tok)
        }
    }
}

/// The samplings every parity test runs: greedy, a cold, a warm and a
/// hot temperature (at the warm ones several siblings survive a level),
/// and a `top_k` cut.
const SAMPLINGS: [Sampling; 5] = [
    Sampling::Greedy,
    Sampling::Temperature {
        temperature: 0.01,
        top_k: 0,
    },
    Sampling::Temperature {
        temperature: 0.8,
        top_k: 0,
    },
    Sampling::Temperature {
        temperature: 2.5,
        top_k: 0,
    },
    Sampling::Temperature {
        temperature: 0.8,
        top_k: 3,
    },
];

/// A small deterministic stream for building candidate trees.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % n
    }

    /// Preempts `st` between two steps, one time in three: the sessions
    /// are rebuilt by replay and whatever the last step carried is gone.
    fn maybe_park(&mut self, st: &mut Stepper<'_>) {
        if self.below(3) == 0 {
            st.park();
            st.unpark();
        }
    }
}

/// A step's candidate paths, read back off a trie whose tokens are all
/// known (one built from paths).
fn built_paths(nodes: &NodeMap) -> Vec<Vec<TokenId>> {
    (0..nodes.n_paths())
        .map(|i| {
            (1..=nodes.path_len(i))
                .map(|j| nodes.token(nodes.node(i, j)))
                .collect()
        })
        .collect()
}

impl Stepper<'_> {
    /// The oracle's propose: what every non-grammar step did before
    /// trees grew lazily — the shape as the policy or the pin gave it,
    /// every explored head's row computed with the base row, the whole
    /// tree built from them by a builder that clamps on its own, the
    /// candidate tokens counted off the built paths.
    fn propose_eager(&mut self) -> Phase {
        assert!(self.pending.is_none(), "propose called with a step pending");
        let EngineBody::Spec { cfg, n_heads } = &self.engine else {
            panic!("the eager oracle proposes speculative steps");
        };
        if self.done || self.out.tokens.len() >= cfg.max_tokens {
            self.done = true;
            return Phase::Done;
        }
        let (sampling, eos, n_heads) = (cfg.sampling, cfg.eos, *n_heads);
        let shape = if std::mem::take(&mut self.pinned) {
            self.last_shape.clone().expect("a pin fills the slot")
        } else {
            self.policy
                .shape(&ShapeQuery {
                    base: self.base.as_ref().expect("speculative"),
                    history: &self.history,
                    cap: None,
                })
                .into_owned()
        };
        let session = self.target.as_mut().expect("not parked");
        let step_start = session.len();
        self.scratch.clear();
        let levels = shape.depth().min(n_heads);
        let base = session.base_row_into(levels, &mut self.scratch);
        let base_tok = self.sampler.sample(self.scratch.row(base), sampling);
        let mut heads = LogitsArena::new();
        let first = session.head_rows_into(self.scratch.rows_from(base), 1..levels + 1, &mut heads);
        let paths = build_candidate_paths(heads.rows_from(first), n_heads, &shape);
        let candidate_tokens: usize = paths.iter().map(Vec::len).sum();
        let verify_issued = base_tok != eos && candidate_tokens > 0;
        if verify_issued {
            session.append(&[base_tok]);
            self.nodes.build(paths.iter().map(Vec::as_slice), false);
            self.marks.clear();
            self.marks.resize(self.nodes.n_nodes(), NodeMark::default());
        }
        self.pending = Some(Pending::Spec {
            step_start,
            base_tok,
            candidate_tokens,
            verify_issued,
            lazy: None,
            local_rows: None,
        });
        if verify_issued {
            Phase::Verify
        } else {
            Phase::Commit
        }
    }

    /// The oracle: verifies the pending step the way every engine did
    /// before the level loop — the whole tree scored in one
    /// `verify_batch`, each path walked to its first rejection, the
    /// first strictly longest accepted prefix kept, the walk over paths
    /// stopped once that prefix ends in `eos`; the draft block judged
    /// from all `γ + 1` pre-scored distributions. Leaves the step ready
    /// to commit.
    fn verify_whole_tree(&mut self) {
        let session = self.target.as_mut().expect("not parked").as_mut();
        match (self.pending.as_mut().expect("pending"), &self.engine) {
            (Pending::Ntp { tok }, EngineBody::Ntp { cfg }) => {
                let rows = session.verify_batch(&[&[]], true);
                *tok = Some(self.sampler.sample(&rows[0][0], cfg.sampling));
                let root_only: &[TokenId] = &[];
                self.nodes.build(std::iter::once(root_only), true);
            }
            (Pending::Spec { lazy, .. }, EngineBody::Spec { cfg, .. }) => {
                assert!(lazy.is_none(), "the oracle verifies a tree it knows whole");
                let paths = built_paths(&self.nodes);
                let refs: Vec<&[TokenId]> = paths.iter().map(Vec::as_slice).collect();
                let scored = session.verify_batch(&refs, false);
                let mut best: (usize, usize) = (0, 0);
                for (i, path) in paths.iter().enumerate() {
                    let mut accepted = 0usize;
                    for (pos, &tok) in path.iter().enumerate() {
                        if !reference_accepts(&scored[i][pos], tok, cfg.sampling, &cfg.acceptance) {
                            break;
                        }
                        accepted += 1;
                        if tok == cfg.eos {
                            break;
                        }
                    }
                    if accepted > best.1 {
                        best = (i, accepted);
                    }
                    if best.1 > 0 && paths[best.0][best.1 - 1] == cfg.eos {
                        break;
                    }
                }
                // Hand the span over as commit expects it: its edges
                // accepted, no other, nothing left to ask for.
                self.nodes.build(refs.iter().copied(), false);
                self.marks.fill(NodeMark::default());
                for j in 1..=best.1 {
                    self.marks[self.nodes.node(best.0, j)].accepted = true;
                }
            }
            (
                Pending::Draft {
                    qs,
                    committed,
                    accepted,
                    ..
                },
                EngineBody::Draft { cfg, .. },
            ) => {
                let toks: Vec<TokenId> = (1..=self.nodes.path_len(0))
                    .map(|j| self.nodes.token(self.nodes.node(0, j)))
                    .collect();
                let scored = session.verify_batch(&[toks.as_slice()], true);
                let target_probs: Vec<Vec<f32>> = scored[0]
                    .iter()
                    .map(|row| {
                        let mut p = softmax(row);
                        tempered(&mut p, cfg.temperature);
                        p
                    })
                    .collect();
                let mut rejected = false;
                for (pos, (tok, q)) in toks.iter().zip(qs.iter()).enumerate() {
                    let p = &target_probs[pos];
                    let (pt, qt) = (p[*tok as usize], q[*tok as usize].max(f32::MIN_POSITIVE));
                    let u = self.sampler.gen_range(1_000_000) as f32 / 1_000_000f32;
                    if u < (pt / qt).min(1.0) {
                        committed.push(*tok);
                        *accepted += 1;
                        if *tok == cfg.eos {
                            break;
                        }
                    } else {
                        let mut residual: Vec<f32> =
                            p.iter().zip(q).map(|(&a, &b)| (a - b).max(0.0)).collect();
                        let sum: f32 = residual.iter().sum();
                        if sum > 0.0 {
                            residual.iter_mut().for_each(|v| *v /= sum);
                        } else {
                            residual = p.clone();
                        }
                        committed.push(self.sampler.sample_from_probs(&residual));
                        rejected = true;
                        break;
                    }
                }
                if !rejected && committed.last() != Some(&cfg.eos) {
                    let p = &target_probs[committed.len()];
                    committed.push(self.sampler.sample_from_probs(p));
                }
                self.nodes.build(std::iter::once(toks.as_slice()), true);
            }
            _ => unreachable!("pending/engine mismatch"),
        }
    }

    /// Replaces the pending speculative step's candidate paths with a
    /// random tree drawn from `rng`: one to five paths of ragged length
    /// (empty ones included), some grown from a prefix of an earlier
    /// path (down to an exact duplicate), each new token either a
    /// literal — `eos` among them — or the target's own top choice at
    /// that prefix, so that acceptance gets past the first level.
    /// Returns whether the step verifies (always, unless the base token
    /// was `eos`).
    fn inject_paths(&mut self, rng: &mut Lcg) -> bool {
        let Some(Pending::Spec {
            base_tok,
            candidate_tokens,
            verify_issued,
            lazy,
            ..
        }) = self.pending.as_mut()
        else {
            panic!("only speculative steps take injected paths");
        };
        let EngineBody::Spec { cfg, .. } = &self.engine else {
            unreachable!("pending/engine mismatch");
        };
        if *base_tok == cfg.eos {
            return false;
        }
        let session = self.target.as_mut().expect("not parked");
        if !*verify_issued {
            session.append(&[*base_tok]);
            *verify_issued = true;
        }
        let (model, vocab) = (self.target_model, self.target_model.vocab_size());
        let token_after = |prefix: &[TokenId], rng: &mut Lcg| match rng.below(2 * vocab + 6) {
            r if r < vocab => r as TokenId,
            r if r < vocab + 6 => cfg.eos,
            _ => {
                let mut ctx = session.tokens().to_vec();
                ctx.extend_from_slice(prefix);
                argmax(&model.logits(&ctx))
            }
        };
        let mut tree: Vec<Vec<TokenId>> = Vec::new();
        for i in 0..1 + rng.below(5) {
            let (mut path, grow) = if i > 0 && rng.below(3) == 0 {
                let from = &tree[rng.below(i)];
                (from[..rng.below(from.len() + 1)].to_vec(), rng.below(3))
            } else {
                (Vec::new(), rng.below(4))
            };
            for _ in 0..grow {
                let tok = token_after(&path, rng);
                path.push(tok);
            }
            tree.push(path);
        }
        if tree.iter().all(Vec::is_empty) {
            let tok = token_after(&[], rng);
            tree[0].push(tok);
        }
        *candidate_tokens = tree.iter().map(Vec::len).sum();
        *lazy = None;
        self.nodes.build(tree.iter().map(Vec::as_slice), false);
        self.nodes.request(0);
        self.marks.clear();
        self.marks.resize(self.nodes.n_nodes(), NodeMark::default());
        true
    }
}

/// Which side of a parity pair a generation is.
enum Side {
    /// The definition: the eager propose where there is one, the whole
    /// tree verified at once, every base position forwarded.
    Oracle,
    /// The engine: trees grown and verified a level at a time, base
    /// rows carried from step to step — and the stepper parked at the
    /// steps this stream draws, if there is one.
    Engine(Option<Lcg>),
}

impl Side {
    /// The engine, parked at the steps a stream seeded `seed` draws.
    fn parked(seed: u64) -> Self {
        Side::Engine(Some(Lcg(seed)))
    }

    /// What an engine-side generation does between two steps.
    fn between_steps(&mut self, st: &mut Stepper<'_>) {
        if let Side::Engine(Some(parks)) = self {
            parks.maybe_park(st);
        }
    }
}

/// One speculative generation over injected random trees.
fn run_injected(
    model: &dyn LanguageModel,
    cfg: &DecodeConfig,
    tree_seed: u64,
    mut side: Side,
) -> DecodeOutput {
    let cost = GpuCostModel::codellama_like();
    let mut st = Stepper::speculative(model, &[6, 7, 8], cfg.clone());
    let mut rng = Lcg(tree_seed);
    loop {
        side.between_steps(&mut st);
        if st.propose(None) == Phase::Done {
            return st.into_output();
        }
        if st.inject_paths(&mut rng) {
            match side {
                Side::Oracle => st.verify_whole_tree(),
                Side::Engine(_) => assert!(!st.verify_level(None, None), "no plan was offered"),
            }
        }
        st.commit(&cost, None);
    }
}

/// One draft-verify generation (bonus position included), likewise.
fn run_draft(
    target: &dyn LanguageModel,
    draft: &dyn LanguageModel,
    cfg: DraftConfig,
    oracle: bool,
) -> (DecodeOutput, Option<DraftStats>) {
    let cost = GpuCostModel::codellama_like();
    let mut st = Stepper::draft_verify(target, draft, &[6, 7], cfg);
    while st.propose(None) != Phase::Done {
        if oracle {
            st.verify_whole_tree();
        } else {
            assert!(!st.verify_level(None, None), "no plan was offered");
        }
        st.commit(&cost, None);
    }
    let stats = st.draft_stats();
    (st.into_output(), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Tokens, steps, trace and clock of the level loop equal the
    /// whole-tree oracle's: random trees (shared prefixes, ragged
    /// lengths, duplicates, forced `eos`), every sampling of
    /// [`SAMPLINGS`], without the bonus row (speculative) and with it
    /// (draft), on the kernel-backed session and both trait-default
    /// ones. The level loop opens its steps at carried rows (spans cut
    /// by the syntax check, by `eos` and by the budget included) and is
    /// parked at random steps; the oracle forwards every base.
    #[test]
    fn frontier_equals_full_tree(
        tree_seed in any::<u64>(),
        seed in any::<u64>(),
        park_seed in any::<u64>(),
        sampling_ix in 0usize..SAMPLINGS.len(),
        eos in 2u32..10,
        max_tokens in 3usize..20,
        gamma in 1usize..5,
    ) {
        let mlp = tiny_model();
        let shim = Stateless(&mlp);
        let ng = cyclic_ngram();
        let targets: [(&str, &dyn LanguageModel); 3] =
            [("mlp", &mlp), ("stateless", &shim), ("ngram", &ng)];
        let sampling = SAMPLINGS[sampling_ix];
        for (name, target) in targets {
            let cfg = DecodeConfig {
                max_tokens,
                sampling,
                eos,
                seed,
                syntax_aligned: seed % 2 == 0,
                tree: Some(vec![2, 2]),
                ..Default::default()
            };
            let level = run_injected(target, &cfg, tree_seed, Side::parked(park_seed));
            let whole = run_injected(target, &cfg, tree_seed, Side::Oracle);
            prop_assert_eq!(&level.tokens, &whole.tokens, "{} tokens", name);
            prop_assert_eq!(level.steps, whole.steps, "{} steps", name);
            prop_assert_eq!(&level.trace, &whole.trace, "{} trace", name);
            prop_assert_eq!(&level.clock, &whole.clock, "{} clock", name);

            let dcfg = DraftConfig {
                gamma,
                max_tokens,
                temperature: match sampling {
                    Sampling::Greedy => 1.0,
                    Sampling::Temperature { temperature, .. } => temperature,
                },
                eos,
                seed,
            };
            let (level, level_stats) = run_draft(target, &ng, dcfg, false);
            let (whole, whole_stats) = run_draft(target, &ng, dcfg, true);
            prop_assert_eq!(&level.tokens, &whole.tokens, "{} draft tokens", name);
            prop_assert_eq!(level.steps, whole.steps, "{} draft steps", name);
            prop_assert_eq!(&level.trace, &whole.trace, "{} draft trace", name);
            prop_assert_eq!(level_stats, whole_stats, "{} draft stats", name);
        }
    }
}

/// Which shape each step of a lazy-vs-eager pair runs.
#[derive(Debug, Clone, Copy)]
enum ShapeSource {
    /// The configured shape, every step.
    Static,
    /// [`AdaptivePolicy`] over the generation's own history.
    Adaptive,
    /// Pinned each step: the configured shape shrunk to a drawn budget.
    Shrunk,
    /// Pinned each step: a hand-built shape, possibly deeper than the
    /// model has heads and wider than its vocabulary.
    Wild,
}

/// One speculative generation, its trees grown lazily by the engine or
/// built whole and verified whole by the oracle.
fn run_shaped(
    model: &dyn LanguageModel,
    cfg: &DecodeConfig,
    source: ShapeSource,
    shape_seed: u64,
    mut side: Side,
) -> DecodeOutput {
    let cost = GpuCostModel::codellama_like();
    let adaptive = AdaptivePolicy { window: 3 };
    let mut st = Stepper::speculative(model, &[6, 7, 8], cfg.clone());
    if matches!(source, ShapeSource::Adaptive) {
        st = st.with_policy(&adaptive);
    }
    let mut rng = Lcg(shape_seed);
    loop {
        side.between_steps(&mut st);
        match source {
            ShapeSource::Static | ShapeSource::Adaptive => {}
            ShapeSource::Shrunk => {
                let base = st.base_shape().expect("speculative");
                let shrunk = base.shrink_to(1 + rng.below(base.step_cost() + 2));
                st.pin_shape(&shrunk);
            }
            ShapeSource::Wild => st.pin_shape(&match rng.below(3) {
                0 => SpecShape::Chain {
                    depth: rng.below(6),
                },
                _ => SpecShape::Tree {
                    widths: (0..rng.below(5)).map(|_| rng.below(20)).collect(),
                    depth: rng.below(6),
                },
            }),
        }
        let phase = match side {
            Side::Oracle => st.propose_eager(),
            Side::Engine(_) => st.propose(None),
        };
        match (phase, &side) {
            (Phase::Done, _) => return st.into_output(),
            (Phase::Commit, _) => {}
            (Phase::Verify, Side::Oracle) => st.verify_whole_tree(),
            (Phase::Verify, Side::Engine(_)) => {
                assert!(!st.verify_level(None, None), "no plan was offered")
            }
        }
        st.commit(&cost, None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Tokens, steps, trace and simulated clock of a generation whose
    /// trees grow a level at a time — trie from the shape, a head
    /// evaluated and its level named only when acceptance gets there,
    /// candidate tokens read off the shape — equal the eager oracle's:
    /// chains and random trees (the 32-path cut included), shapes the
    /// policy shrinks or a server pins (some deeper than the heads,
    /// wider than the vocabulary), forced `eos`, every sampling of
    /// [`SAMPLINGS`], on the kernel-backed session and both
    /// trait-default ones. The lazy side also opens its steps at
    /// carried rows and is parked at random steps; the eager side
    /// forwards every base.
    #[test]
    fn lazy_levels_equal_eager_tree(
        shape_seed in any::<u64>(),
        seed in any::<u64>(),
        park_seed in any::<u64>(),
        sampling_ix in 0usize..SAMPLINGS.len(),
        source_ix in 0usize..4,
        widths in proptest::collection::vec(1usize..6, 0..5),
        chain in any::<bool>(),
        eos in 2u32..10,
        max_tokens in 3usize..24,
    ) {
        let mlp = tiny_model();
        let shim = Stateless(&mlp);
        let ng = cyclic_ngram();
        let targets: [(&str, &dyn LanguageModel); 3] =
            [("mlp", &mlp), ("stateless", &shim), ("ngram", &ng)];
        let source = [
            ShapeSource::Static,
            ShapeSource::Adaptive,
            ShapeSource::Shrunk,
            ShapeSource::Wild,
        ][source_ix];
        for (name, target) in targets {
            let cfg = DecodeConfig {
                max_tokens,
                sampling: SAMPLINGS[sampling_ix],
                eos,
                seed,
                syntax_aligned: seed % 2 == 0,
                tree: (!chain).then(|| widths.clone()),
                ..Default::default()
            };
            let lazy = run_shaped(target, &cfg, source, shape_seed, Side::parked(park_seed));
            let eager = run_shaped(target, &cfg, source, shape_seed, Side::Oracle);
            prop_assert_eq!(&lazy.tokens, &eager.tokens, "{} tokens", name);
            prop_assert_eq!(lazy.steps, eager.steps, "{} steps", name);
            prop_assert_eq!(&lazy.trace, &eager.trace, "{} trace", name);
            prop_assert_eq!(&lazy.clock, &eager.clock, "{} clock", name);
        }
    }
}

/// The MEDUSA-style engines: everything that runs [`EngineBody::Spec`].
#[derive(Debug, Clone, Copy)]
enum Medusa {
    Chain,
    Tree,
    Ours,
    Grammar,
}

impl Medusa {
    const ALL: [Medusa; 4] = [Medusa::Chain, Medusa::Tree, Medusa::Ours, Medusa::Grammar];

    fn stepper<'m>(
        self,
        model: &'m dyn LanguageModel,
        oracle: &'m GrammarOracle,
        cfg: &DecodeConfig,
    ) -> Stepper<'m> {
        let cfg = DecodeConfig {
            tree: cfg.tree.clone().filter(|_| !matches!(self, Medusa::Chain)),
            syntax_aligned: matches!(self, Medusa::Ours),
            ..cfg.clone()
        };
        match self {
            Medusa::Grammar => Stepper::grammar_speculative(model, oracle, &[6, 7, 8], cfg),
            _ => Stepper::speculative(model, &[6, 7, 8], cfg),
        }
    }
}

impl Stepper<'_> {
    /// The carried base against the forward it stands for: the logits
    /// row, every head row served from the activation beside it and —
    /// under sampling — the tempered distribution its support stands
    /// for, bit for bit.
    fn assert_carry_is_the_forward(&mut self) {
        let EngineBody::Spec { cfg, n_heads } = &self.engine else {
            panic!("only MEDUSA-style steps carry");
        };
        let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let session = self.target.as_mut().expect("not parked");
        let mut fresh = LogitsArena::new();
        let at = session.base_row_into(*n_heads, &mut fresh);
        assert_eq!(bits(self.carry.row(0)), bits(fresh.row(at)), "logits");
        let (mut carried, mut forwarded) = (LogitsArena::new(), LogitsArena::new());
        let heads = 1..*n_heads + 1;
        let a = session.head_rows_into(self.carry.rows_from(0), heads.clone(), &mut carried);
        let b = session.head_rows_into(fresh.rows_from(at), heads, &mut forwarded);
        for head in 0..*n_heads {
            assert_eq!(
                bits(carried.row(a + head)),
                bits(forwarded.row(b + head)),
                "head {}",
                head + 1
            );
        }
        if let Sampling::Temperature { temperature, .. } = cfg.sampling {
            // The carried support, densified, is the dense row of the
            // fresh forward.
            let mut dist = Vec::new();
            tempered_softmax_into(fresh.row(at), temperature, &mut dist);
            let mut carried = vec![0.0f32; dist.len()];
            for &(tok, e) in &self.carry_support {
                assert!(e != 0.0, "a support holds no zero");
                carried[tok as usize] = e / self.carry_sum;
            }
            assert_eq!(bits(&carried), bits(&dist), "distribution");
        }
    }
}

/// One serial generation — the oracle side drops whatever was carried
/// before every step, so every base position is forwarded; returns its
/// output and how many of its steps opened at a carried row (each
/// checked against the forward).
fn run_carry(mut st: Stepper<'_>, mut side: Side) -> (DecodeOutput, usize) {
    let cost = GpuCostModel::codellama_like();
    let mut carried = 0usize;
    loop {
        side.between_steps(&mut st);
        if let Side::Oracle = side {
            st.carry.clear();
        }
        if !st.done() && st.carry.rows() > 0 {
            st.assert_carry_is_the_forward();
            carried += 1;
        }
        match st.propose(None) {
            Phase::Done => return (st.into_output(), carried),
            Phase::Commit => {}
            Phase::Verify => assert!(!st.verify_level(None, None), "no plan was offered"),
        }
        st.commit(&cost, None);
    }
}

/// A byte map over a 14-token vocabulary: specials transparent, mostly
/// benign Verilog bytes, one lethal control byte so that the viability
/// filter fires.
fn small_grammar_oracle() -> GrammarOracle {
    let bytes = (0..14usize)
        .map(|id| match id {
            0..=4 => Vec::new(),
            5 => b"(".to_vec(),
            6 => b")".to_vec(),
            8 => b" ".to_vec(),
            9 => b";".to_vec(),
            10 => vec![0x07],
            _ => b"a".to_vec(),
        })
        .collect();
    GrammarOracle::new(bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A generation that opens its steps at carried rows — the node the
    /// last committed span ended at, after syntax truncation, an `eos`
    /// inside the span or the token budget cut it — equals the one that
    /// forwards every base position: tokens, steps, trace and clock,
    /// for chain, tree, Ours and the grammar engine under every
    /// sampling of [`SAMPLINGS`], serially (parked at random steps too)
    /// and driven the way a serving tick drives a batch. Every carried
    /// row is compared with the forward it replaces on the spot. A
    /// session that cannot serve heads from a scored row never carries.
    #[test]
    fn carried_base_equals_forwarded_base(
        model_seed in 0u64..16,
        seed in any::<u64>(),
        park_seed in any::<u64>(),
        sampling_ix in 0usize..SAMPLINGS.len(),
        widths in proptest::collection::vec(1usize..5, 1..4),
        eos in 2u32..10,
        max_tokens in 3usize..28,
    ) {
        let mlp = MlpLm::new(MlpLmConfig { seed: model_seed, ..*tiny_model().config() });
        let shim = Stateless(&mlp);
        let oracle = small_grammar_oracle();
        let cfg = DecodeConfig {
            max_tokens,
            sampling: SAMPLINGS[sampling_ix],
            eos,
            seed,
            tree: Some(widths),
            ..Default::default()
        };
        let same = |a: &DecodeOutput, b: &DecodeOutput| {
            a.tokens == b.tokens && a.steps == b.steps && a.trace == b.trace && a.clock == b.clock
        };
        let mut forwarded = Vec::new();
        for engine in Medusa::ALL {
            let stepper = |model| engine.stepper(model, &oracle, &cfg);
            let (want, none) = run_carry(stepper(&mlp), Side::Oracle);
            prop_assert_eq!(none, 0);
            let (carried, _) = run_carry(stepper(&mlp), Side::Engine(None));
            prop_assert!(same(&carried, &want), "{:?} carried", engine);
            let (parked, _) = run_carry(stepper(&mlp), Side::parked(park_seed));
            prop_assert!(same(&parked, &want), "{:?} parked", engine);
            let (stateless, none) = run_carry(stepper(&shim), Side::Engine(None));
            prop_assert_eq!(none, 0, "the shim's scored rows keep no heads");
            prop_assert!(same(&stateless, &want), "{:?} stateless", engine);
            forwarded.push(want);
        }
        // One batch of all four, every level and every carry through
        // the shared plan and the tick's arena.
        let mut batch = Medusa::ALL.map(|engine| engine.stepper(&mlp, &oracle, &cfg));
        drive_fused(&mlp, &mut batch, &GpuCostModel::codellama_like());
        for ((st, want), engine) in batch.iter().zip(&forwarded).zip(Medusa::ALL) {
            prop_assert!(same(st.output(), want), "{:?} fused", engine);
        }
    }
}

#[test]
fn every_medusa_engine_carries_most_of_its_base_rows() {
    // What the parity proptest cannot say case by case: that carrying
    // happens. Over a few seeds, every engine opens most of the steps
    // after its first at a carried row — all of them but the ones that
    // follow a span ending at a full path's leaf.
    let mlp = tiny_model();
    let oracle = small_grammar_oracle();
    for engine in Medusa::ALL {
        let (mut steps, mut carried) = (0usize, 0usize);
        for seed in 0..8 {
            let cfg = DecodeConfig {
                max_tokens: 24,
                sampling: SAMPLINGS[seed as usize % SAMPLINGS.len()],
                eos: 2,
                seed,
                tree: Some(vec![3, 2]),
                ..Default::default()
            };
            let (out, n) = run_carry(engine.stepper(&mlp, &oracle, &cfg), Side::Engine(None));
            steps += out.steps;
            carried += n;
        }
        assert!(
            carried < steps,
            "{engine:?}: a first step has nothing to open at"
        );
        assert!(
            2 * carried > steps,
            "{engine:?}: {carried} of {steps} steps carried"
        );
    }
}

#[test]
fn a_cold_generation_takes_almost_no_entropy() {
    // What the bound in front of Eq. 1 buys, as a count: once sampling
    // is cold a scored node's candidates are its favourite (`p > ε`)
    // and runners-up under `δ/(2n)`, so the entropy is evaluated for
    // hardly any node; when it is warm they fall between the two and
    // the entropy still decides. Outputs are pinned elsewhere
    // (`lazy_levels_equal_eager_tree`, `carried_base_equals_forwarded_base`).
    use crate::accept::ENTROPY_EVALUATIONS;
    use crate::train::{train_in_place, TrainConfig, TrainMethod};
    // A model as sure of itself as a trained one — a runner-up far
    // under `δ/(2n)` when cold yet above it when warm: three epochs of
    // the paper's regime on `[FRAG]`-tagged statements of one shape.
    let mut model = tiny_model();
    let statement = [5, 6, 7, 3, 8, 9, 10, 3, 11, 12, 3];
    let seqs: Vec<Vec<TokenId>> = (0..6)
        .map(|i| statement.iter().cycle().skip(i).take(66).copied().collect())
        .collect();
    let tc = TrainConfig {
        epochs: 3,
        lr: 2e-2,
        ..TrainConfig::paper_defaults(TrainMethod::Ours)
    };
    train_in_place(&mut model, &seqs, &tc);
    let cost = GpuCostModel::codellama_like();
    let counts = |temperature: f32| {
        let cfg = DecodeConfig {
            max_tokens: 96,
            sampling: Sampling::temperature(temperature),
            seed: 11,
            syntax_aligned: true,
            tree: Some(vec![2, 2, 1]),
            ..Default::default()
        };
        let mut st = Stepper::speculative(&model, &[5, 6, 7], cfg);
        let before = ENTROPY_EVALUATIONS.with(Cell::get);
        let (mut scored, mut more) = (0usize, true);
        while more {
            more = st.step(&cost);
            // A scored sampled node is marked with its support's sum.
            scored += st.marks.iter().filter(|m| m.sum > 0.0).count();
        }
        (ENTROPY_EVALUATIONS.with(Cell::get) - before, scored)
    };
    let (cold, scored) = counts(0.03);
    assert!(scored >= 30, "{scored} nodes scored");
    assert!(10 * cold <= scored, "{cold} entropies for {scored} nodes");
    let (warm, scored) = counts(0.8);
    assert!(
        warm > 0 && warm <= scored,
        "{warm} entropies for {scored} nodes"
    );
}

/// A model whose logits are scripted per context — the tokens after
/// the prompt select a row favouring one token by a wide margin — and
/// which counts the base-head forwards it is asked for.
struct Scripted {
    prompt_len: usize,
    /// `(context after the prompt, favoured next token)`; anything else
    /// favours token 13.
    script: Vec<(Vec<TokenId>, TokenId)>,
    /// Head `i`'s top-2 at the prompt, best first.
    heads: Vec<[TokenId; 2]>,
    forwards: Cell<usize>,
    /// Logits rows a step asked its session for at the base position:
    /// the base row and every head row.
    base_rows: Cell<usize>,
    /// Base positions forwarded: `base_row_into` calls.
    base_forwards: Cell<usize>,
}

impl Scripted {
    const VOCAB: usize = 14;

    fn peaked(tokens: &[TokenId]) -> Vec<f32> {
        let mut row = vec![0.0f32; Self::VOCAB];
        for (rank, &t) in tokens.iter().enumerate() {
            row[t as usize] = 9.0 - rank as f32;
        }
        row
    }

    fn base_row(&self, prefix: &[TokenId]) -> Vec<f32> {
        let after = &prefix[self.prompt_len.min(prefix.len())..];
        let favoured = self
            .script
            .iter()
            .find(|(ctx, _)| ctx == after)
            .map_or(13, |&(_, tok)| tok);
        Self::peaked(&[favoured])
    }
}

impl LanguageModel for Scripted {
    fn vocab_size(&self) -> usize {
        Self::VOCAB
    }

    fn n_extra_heads(&self) -> usize {
        self.heads.len()
    }

    fn logits(&self, prefix: &[TokenId]) -> Vec<f32> {
        self.forwards.set(self.forwards.get() + 1);
        self.base_row(prefix)
    }

    fn multi_logits(&self, prefix: &[TokenId]) -> Vec<Vec<f32>> {
        std::iter::once(self.base_row(prefix))
            .chain(self.heads.iter().map(|top| Self::peaked(top)))
            .collect()
    }

    fn session(&self) -> Box<dyn DecodeSession + '_> {
        Box::new(ScriptedSession {
            model: self,
            tokens: Vec::new(),
        })
    }
}

/// The scripted model's session: stateless, but able — like the kernel
/// session — to evaluate one head at a time, from any position it has
/// scored (the heads are the same everywhere), and counting each row it
/// is asked for.
struct ScriptedSession<'a> {
    model: &'a Scripted,
    tokens: Vec<TokenId>,
}

impl DecodeSession for ScriptedSession<'_> {
    fn len(&self) -> usize {
        self.tokens.len()
    }

    fn tokens(&self) -> &[TokenId] {
        &self.tokens
    }

    fn append(&mut self, tokens: &[TokenId]) {
        self.tokens.extend_from_slice(tokens);
    }

    fn truncate(&mut self, len: usize) {
        self.tokens.truncate(len);
    }

    fn logits(&mut self) -> Vec<f32> {
        self.model.logits(&self.tokens)
    }

    fn multi_logits(&mut self) -> Vec<Vec<f32>> {
        self.model.multi_logits(&self.tokens)
    }

    fn base_row_into(&mut self, _levels: usize, out: &mut LogitsArena) -> usize {
        self.model.base_rows.set(self.model.base_rows.get() + 1);
        self.model
            .base_forwards
            .set(self.model.base_forwards.get() + 1);
        out.push_row(&self.model.base_row(&self.tokens))
    }

    fn keeps_frontier_rows(&self) -> bool {
        true
    }

    fn head_rows_into(
        &mut self,
        _kept: ArenaRows<'_>,
        heads: std::ops::Range<usize>,
        out: &mut LogitsArena,
    ) -> usize {
        let first = out.rows();
        for head in heads {
            self.model.base_rows.set(self.model.base_rows.get() + 1);
            out.push_row(&Scripted::peaked(&self.model.heads[head - 1]));
        }
        first
    }
}

/// One greedy tree step over a scripted model: the base token is 5
/// (unless the script says otherwise), the tree is heads × heads.
/// Returns the step's trace, how many base-head forwards its
/// verification cost, and how many rows — base and heads — it asked for
/// at its base position.
fn scripted_step_rows(
    script: &[(&[TokenId], TokenId)],
    heads: &[[TokenId; 2]],
    eos: TokenId,
    grammar: Option<&GrammarOracle>,
) -> (StepTrace, usize, usize) {
    let (out, _, _, forwards, rows) = scripted_step_ledger(script, heads, eos, grammar);
    (out.trace[0].clone(), forwards, rows)
}

/// [`scripted_step_rows`] with everything the step wrote down: its
/// output (trace, clock), the acceptance history and the grammar
/// builder's prune record, then the forwards and rows.
fn scripted_step_ledger(
    script: &[(&[TokenId], TokenId)],
    heads: &[[TokenId; 2]],
    eos: TokenId,
    grammar: Option<&GrammarOracle>,
) -> (
    DecodeOutput,
    AcceptHistory,
    Option<PruneRecord>,
    usize,
    usize,
) {
    let mut script: Vec<(Vec<TokenId>, TokenId)> =
        script.iter().map(|&(c, t)| (c.to_vec(), t)).collect();
    script.push((Vec::new(), 5));
    let model = Scripted {
        prompt_len: 2,
        script,
        heads: heads.to_vec(),
        forwards: Cell::new(0),
        base_rows: Cell::new(0),
        base_forwards: Cell::new(0),
    };
    let cfg = DecodeConfig {
        max_tokens: 8,
        eos,
        tree: Some(vec![2; heads.len()]),
        ..Default::default()
    };
    let mut st = match grammar {
        Some(oracle) => Stepper::grammar_speculative(&model, oracle, &[6, 7], cfg),
        None => Stepper::speculative(&model, &[6, 7], cfg),
    };
    if st.propose(None) == Phase::Verify {
        model.forwards.set(0);
        assert!(!st.verify_level(None, None));
    }
    let forwards = model.forwards.get();
    st.commit(&GpuCostModel::codellama_like(), None);
    (
        st.output().clone(),
        st.history().clone(),
        st.last_prune(),
        forwards,
        model.base_rows.get(),
    )
}

fn scripted_step(
    script: &[(&[TokenId], TokenId)],
    heads: &[[TokenId; 2]],
    eos: TokenId,
) -> (StepTrace, usize) {
    let (trace, forwards, _) = scripted_step_rows(script, heads, eos, None);
    (trace, forwards)
}

#[test]
fn head_rows_per_step_track_the_levels_reached() {
    // Greedy acceptance takes at most one edge out of a node, so every
    // level forwards one node: a step asks for its base row plus one
    // head row per level forwarded — the head whose top-k that level's
    // child edges are — where it used to ask for every explored head.
    let deep = [[8, 9], [10, 11], [12, 4]];
    let rows = |script: &[(&[TokenId], TokenId)]| {
        let (trace, forwards, rows) = scripted_step_rows(script, &deep, 2, None);
        assert_eq!(
            trace.speculated, 24,
            "the clock is charged the proposed tree"
        );
        (trace.committed, forwards, rows)
    };
    // Nothing accepted: the root is forwarded, head 1 names its edges.
    assert_eq!(rows(&[(&[5], 13)]), (vec![5], 1, 2));
    // One edge accepted: two levels forwarded, heads 1 and 2.
    assert_eq!(rows(&[(&[5], 9), (&[5, 9], 13)]), (vec![5, 9], 2, 3));
    // Two, then all three: the leaves are never forwarded, so no step
    // asks for more than its explored heads.
    let two: [(&[TokenId], TokenId); 3] = [(&[5], 9), (&[5, 9], 10), (&[5, 9, 10], 13)];
    assert_eq!(rows(&two), (vec![5, 9, 10], 3, 4));
    let all: [(&[TokenId], TokenId); 3] = [(&[5], 9), (&[5, 9], 10), (&[5, 9, 10], 4)];
    assert_eq!(rows(&all), (vec![5, 9, 10, 4], 3, 4));
}

#[test]
fn a_step_that_ends_at_its_base_token_asks_for_one_row() {
    // The base token is `eos`: the step commits it alone, and nothing
    // but the row it was drawn from is evaluated — no head, no tree.
    let heads = [[8, 9], [10, 11]];
    let (trace, forwards, rows) = scripted_step_rows(&[(&[], 5)], &heads, 5, None);
    assert_eq!((trace.committed, forwards, rows), (vec![5], 0, 1));
    assert_eq!(trace.speculated, 8, "charged as proposed all the same");
    // A shape with no levels proposes nothing and reads nothing more.
    let (trace, forwards, rows) = scripted_step_rows(&[(&[5], 8)], &[], 2, None);
    assert_eq!((trace.committed, forwards, rows), (vec![5], 0, 1));
    assert_eq!(trace.speculated, 0);
    // The grammar engine ranks all its levels before it builds — every
    // explored head with the base row, whatever acceptance reaches —
    // but only for a step that goes on: ending at its base token it
    // builds no tree, so it proposes (and is charged) nothing.
    let bytes = (0..Scripted::VOCAB)
        .map(|id| if id < 6 { Vec::new() } else { b"a".to_vec() })
        .collect();
    let oracle = GrammarOracle::new(bytes);
    let frag = special::FRAG;
    let framed = [[frag, 9], [frag, 11]];
    let (trace, forwards, rows) = scripted_step_rows(&[(&[5], 13)], &framed, 2, Some(&oracle));
    assert_eq!((trace.committed, forwards, rows), (vec![5], 1, 3));
    assert!(trace.speculated > 0);
    let (trace, forwards, rows) = scripted_step_rows(&[(&[], 5)], &framed, 5, Some(&oracle));
    assert_eq!((trace.committed, forwards, rows), (vec![5], 0, 1));
    assert_eq!(trace.speculated, 0);
}

#[test]
fn a_grammar_step_ending_at_eos_is_charged_what_it_built_nothing() {
    // The two ledgers differ on a step whose base token is `eos`, and
    // this pins both. The unconstrained engines charge the step's
    // *shape* — known before the base token is drawn — so the step
    // counts `shape.candidate_tokens()` proposed, none accepted. The
    // grammar engine charges the tree it *built* (pruned, widened), and
    // ending at its base token it builds none: 0 candidates on the
    // clock, in the trace and in the acceptance history, and an empty
    // prune record.
    let cost = GpuCostModel::codellama_like();
    let bytes = (0..Scripted::VOCAB)
        .map(|id| if id < 6 { Vec::new() } else { b"a".to_vec() })
        .collect();
    let oracle = GrammarOracle::new(bytes);
    let framed = [[special::FRAG, 9], [special::FRAG, 11]];
    for (grammar, charged) in [(None, 8), (Some(&oracle), 0)] {
        let (out, history, prune, forwards, rows) =
            scripted_step_ledger(&[(&[], 5)], &framed, 5, grammar);
        assert_eq!((forwards, rows), (0, 1));
        let trace = StepTrace {
            speculated: charged,
            accepted: 1,
            truncated: 0,
            committed: vec![5],
            fragment_complete: true,
        };
        assert_eq!(
            (out.tokens, out.trace, out.steps),
            (vec![5], vec![trace], 1)
        );
        let mut clock = DecodeClock::new();
        clock.record_step(&cost, charged, 1);
        assert_eq!(out.clock, clock);
        assert_eq!((history.steps(), history.speculated()), (1, charged));
        assert_eq!(prune, grammar.map(|_| PruneRecord::default()));
    }
}

#[test]
fn a_generation_forwards_a_base_position_only_when_nothing_was_carried() {
    // Tree [2, 2] over heads {8, 9} × {10, 11}, greedy, `eos` 11. The
    // script walks every way a span can end: at the root, at an
    // interior node, at a full path's leaf, and in `eos`.
    let script: [(&[TokenId], TokenId); 9] = [
        (&[], 5),
        // Step 1: nothing accepted — the span is the base token and
        // ends at the root, which verification forwarded.
        (&[5], 12),
        // Step 2 opens there (12 is the root's own choice): 8 accepted,
        // its children not — the span ends at node 8, forwarded too.
        (&[5, 12], 8),
        (&[5, 12, 8], 4),
        // Step 3 opens there: 9 and then 10 accepted — a full path,
        // whose leaf nothing reads and nothing forwarded.
        (&[5, 12, 8, 4], 9),
        (&[5, 12, 8, 4, 9], 10),
        // Step 4 has to forward. Its span ends at the root again …
        (&[5, 12, 8, 4, 9, 10], 6),
        (&[5, 12, 8, 4, 9, 10, 6], 7),
        // … and step 5, after a preemption, forwards once more; its
        // span ends in `eos`.
        (&[5, 12, 8, 4, 9, 10, 6, 7], 8),
    ];
    let mut script: Vec<(Vec<TokenId>, TokenId)> =
        script.iter().map(|&(c, t)| (c.to_vec(), t)).collect();
    script.push((vec![5, 12, 8, 4, 9, 10, 6, 7, 8], 11));
    let model = Scripted {
        prompt_len: 2,
        script,
        heads: vec![[8, 9], [10, 11]],
        forwards: Cell::new(0),
        base_rows: Cell::new(0),
        base_forwards: Cell::new(0),
    };
    let cfg = DecodeConfig {
        max_tokens: 32,
        eos: 11,
        tree: Some(vec![2, 2]),
        ..Default::default()
    };
    let cost = GpuCostModel::codellama_like();
    let mut st = Stepper::speculative(&model, &[6, 7], cfg);
    // (span, base positions forwarded so far, a carry left behind)
    let step = |st: &mut Stepper<'_>| {
        let more = st.step(&cost);
        let span = st.output().trace.last().expect("stepped").committed.clone();
        (span, model.base_forwards.get(), st.carry.rows() > 0, more)
    };
    assert_eq!(step(&mut st), (vec![5], 1, true, true));
    assert_eq!(step(&mut st), (vec![12, 8], 1, true, true));
    assert_eq!(step(&mut st), (vec![4, 9, 10], 1, false, true));
    assert_eq!(step(&mut st), (vec![6], 2, true, true));
    st.park();
    assert_eq!(st.carry.rows(), 0, "a parked stepper holds no rows");
    st.unpark();
    // The span ends in an accepted `eos`: nothing is read past it, the
    // generation is over, and no row is kept for a step that never is.
    assert_eq!(step(&mut st), (vec![7, 8, 11], 3, false, false));
    assert_eq!(st.propose(None), Phase::Done);
    assert_eq!(model.base_forwards.get(), 3);
    assert_eq!(
        st.output().tokens,
        [5, 12, 8, 4, 9, 10, 6, 7, 8, 11],
        "five steps, three forwarded base positions"
    );
}

/// A session that counts the rollbacks asked of the one it wraps.
struct CountingSession<'a> {
    inner: Box<dyn DecodeSession + 'a>,
    shortened: &'a Cell<usize>,
}

impl DecodeSession for CountingSession<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn tokens(&self) -> &[TokenId] {
        self.inner.tokens()
    }

    fn append(&mut self, tokens: &[TokenId]) {
        self.inner.append(tokens);
    }

    fn truncate(&mut self, len: usize) {
        if len < self.inner.len() {
            self.shortened.set(self.shortened.get() + 1);
        }
        self.inner.truncate(len);
    }

    fn logits(&mut self) -> Vec<f32> {
        self.inner.logits()
    }

    fn multi_logits(&mut self) -> Vec<Vec<f32>> {
        self.inner.multi_logits()
    }

    fn base_row_into(&mut self, levels: usize, out: &mut LogitsArena) -> usize {
        self.inner.base_row_into(levels, out)
    }

    fn head_rows_into(
        &mut self,
        kept: ArenaRows<'_>,
        heads: std::ops::Range<usize>,
        out: &mut LogitsArena,
    ) -> usize {
        self.inner.head_rows_into(kept, heads, out)
    }

    fn keeps_frontier_rows(&self) -> bool {
        self.inner.keeps_frontier_rows()
    }

    fn score_frontier(&mut self, nodes: &mut NodeMap, out: &mut LogitsArena) -> usize {
        self.inner.score_frontier(nodes, out)
    }
}

#[test]
fn a_verified_step_never_rolls_its_session_back() {
    // Verification leaves the context where propose put it — the
    // committed prefix plus the base token — so commit extends it. A
    // rollback there would cost the kernel session its cached window,
    // re-embedded whole at the step's next forward.
    let model = tiny_model();
    let cost = GpuCostModel::codellama_like();
    let (mut verified, mut cut, mut extended) = (0, 0, 0);
    for sampling in [Sampling::Greedy, Sampling::temperature(0.8)] {
        let cfg = DecodeConfig {
            max_tokens: 24,
            sampling,
            seed: 5,
            syntax_aligned: true,
            tree: Some(vec![2, 2]),
            ..Default::default()
        };
        let want = crate::decode::decode_speculative(&model, &[1, 2, 3], &cfg, &cost);
        let shortened = Cell::new(0);
        let session = Box::new(CountingSession {
            inner: model.session(),
            shortened: &shortened,
        });
        let mut st = Stepper::speculative_from_session(&model, session, &[1, 2, 3], cfg);
        while st.step(&cost) {}
        assert_eq!(st.output().tokens, want.tokens);
        assert_eq!(shortened.get(), 0, "{sampling:?}");
        verified += want.trace.iter().filter(|t| t.speculated > 0).count();
        cut += want.trace.iter().filter(|t| t.truncated > 0).count();
        extended += want.trace.iter().filter(|t| t.committed.len() > 1).count();
    }
    // Steps of every kind were among them: verified, their span cut by
    // the syntax check, and committed past the base token.
    assert!(
        verified > 0 && cut > 0 && extended > 0,
        "{verified} {cut} {extended}"
    );
}

#[test]
fn forwards_per_step_track_the_accepted_depth() {
    // Tree [2, 2] over heads {8, 9} × {10, 11}: paths 8-10, 8-11, 9-10,
    // 9-11; three nodes read a row (root, 8, 9), four leaves never do.
    // A verifying step costs the root plus one forward per accepted
    // edge into a node something reads — whatever was proposed.
    let heads = [[8, 9], [10, 11]];
    // Nothing accepted: the root alone.
    let (trace, forwards) = scripted_step(&[(&[5], 12)], &heads, 2);
    assert_eq!((trace.committed, forwards), (vec![5], 1));
    // 8 accepted, then neither of its children: two forwards; the
    // rejected sibling 9 costs nothing.
    let (trace, forwards) = scripted_step(&[(&[5], 8), (&[5, 8], 12)], &heads, 2);
    assert_eq!((trace.committed, forwards), (vec![5, 8], 2));
    // 8 and then 11 accepted: still two — 11 is a leaf, its own row is
    // never read without the bonus position.
    let (trace, forwards) = scripted_step(&[(&[5], 8), (&[5, 8], 11)], &heads, 2);
    assert_eq!((trace.committed, forwards), (vec![5, 8, 11], 2));
    assert_eq!(
        trace.speculated, 8,
        "the clock is charged the proposed tree"
    );
    // Three levels deep, one accepted edge per level: three forwards
    // for a 15-node tree.
    let deep = [[8, 9], [10, 11], [12, 4]];
    let (trace, forwards) = scripted_step(&[(&[5], 9), (&[5, 9], 10), (&[5, 9, 10], 4)], &deep, 2);
    assert_eq!((trace.committed, forwards), (vec![5, 9, 10, 4], 3));
}

#[test]
fn nothing_is_forwarded_past_an_accepted_eos_edge() {
    // 8 is `eos` and accepted: its node is read by two longer paths,
    // yet acceptance stops there, so it is never forwarded — and the
    // winner ending in `eos` ends the walk over paths.
    let heads = [[8, 9], [10, 11]];
    let (trace, forwards) = scripted_step(&[(&[5], 8), (&[5, 8], 10)], &heads, 8);
    assert_eq!((trace.committed, forwards), (vec![5, 8], 1));
}

#[test]
fn best_path_is_the_first_strictly_longest() {
    let cost = GpuCostModel::codellama_like();
    let model = tiny_model();
    // The span a step commits once these edges have been accepted.
    let span = |paths: &[&[TokenId]], accepted: &[(usize, usize)], eos: TokenId| {
        let cfg = DecodeConfig {
            max_tokens: 8,
            eos,
            ..Default::default()
        };
        let mut st = Stepper::speculative(&model, &[6, 7], cfg);
        st.nodes.build(paths.iter().copied(), false);
        st.marks = vec![NodeMark::default(); st.nodes.n_nodes()];
        for &(i, j) in accepted {
            let node = st.nodes.node(i, j);
            st.marks[node].accepted = true;
        }
        st.target_mut().append(&[5]);
        st.pending = Some(Pending::Spec {
            step_start: 2,
            base_tok: 5,
            candidate_tokens: paths.iter().map(|p| p.len()).sum(),
            verify_issued: true,
            lazy: None,
            local_rows: None,
        });
        st.commit(&cost, None);
        st.output().trace[0].committed.clone()
    };
    // Equal lengths: the first in path order wins, not the last.
    let paths: [&[TokenId]; 3] = [&[8, 10], &[9, 11], &[9, 12]];
    assert_eq!(
        span(&paths, &[(0, 1), (1, 1), (1, 2), (2, 2)], 2),
        [5, 9, 11]
    );
    // A later path wins only by being strictly longer.
    assert_eq!(span(&paths, &[(0, 1), (1, 1)], 2), [5, 8]);
    // An edge accepted below a rejected one is unreachable: the walk
    // stops at the first rejection.
    assert_eq!(span(&paths, &[(0, 2), (1, 1)], 2), [5, 9]);
    // A path whose accepted prefix ends in `eos` (9 here) stops there
    // even when a deeper edge was somehow accepted; once it is the
    // best, later paths are not looked at…
    let with_eos: [&[TokenId]; 3] = [&[9, 11], &[8, 10, 12], &[8, 10, 13]];
    assert_eq!(
        span(&with_eos, &[(0, 1), (0, 2), (1, 1), (1, 2), (1, 3)], 9),
        [5, 9]
    );
    // …but a path ending in `eos` that is *not* the best does not end
    // the walk: the longer one after it still wins.
    let eos_later: [&[TokenId]; 3] = [&[8, 10], &[9], &[8, 10, 12]];
    assert_eq!(
        span(&eos_later, &[(0, 1), (0, 2), (1, 1), (2, 3)], 9),
        [5, 8, 10, 12]
    );
}
