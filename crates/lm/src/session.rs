//! Stateful decode sessions: the KV-cache analogue for VeriSpec's
//! laptop-scale models.
//!
//! The speculative-decoding engines in `verispec-core` drive a
//! [`DecodeSession`] instead of calling the stateless
//! `LanguageModel::logits(&prefix)` per position. A session owns the
//! growing token context and supports the full speculative lifecycle:
//!
//! * [`DecodeSession::append`] — extend the context with committed (or
//!   tentatively speculated) tokens;
//! * [`DecodeSession::truncate`] — roll back after rejected speculation
//!   (the KV-cache trim);
//! * [`DecodeSession::logits`] / [`DecodeSession::multi_logits`] —
//!   next-token logits served from cached state where the model allows;
//! * [`DecodeSession::base_row_into`] /
//!   [`DecodeSession::head_rows_into`] — a decoding step's two calls at
//!   its base position: the base row first, a Medusa head's row only
//!   when (and if) the step gets to read it, served from what the
//!   first call kept;
//! * [`DecodeSession::score_frontier`] — score one **level** of the
//!   step's candidate tree: the nodes acceptance has reached so far.
//!
//! # Verification runs level by level
//!
//! A step's candidate paths are deduplicated into a trie once
//! ([`NodeMap::build`], token compares only), but a node is embedded
//! and forwarded only after the edge into it has been accepted: the
//! engine requests the root, the session scores it, acceptance tests
//! the root's child edges and requests the survivors, the session
//! scores *that* level with the same kernel, and so on until nothing
//! is left to ask for. The work a step costs therefore tracks the depth
//! acceptance reaches (a few nodes), not the size of the proposed tree
//! (a few dozen). Next-token prediction is the root-only case and
//! draft-verify the one-path case. The accepted span is a pure function
//! of the same logits bits either way, so nothing an engine commits
//! can tell the difference.
//!
//! # Heads are evaluated on demand
//!
//! The Medusa heads are attached to the *last hidden state* (paper
//! §III-B), so the forward of a position is the trunk, and a head is a
//! small block on top of it. A MEDUSA tree offers head `d + 1`'s top-k
//! at the step's base position under every depth-`d` node, and that
//! head's row is read only if acceptance reaches depth `d`: so the
//! step forwards its base position once
//! ([`DecodeSession::base_row_into`]: trunk and base head, the kernel
//! keeping the trunk activation beside the row), builds its trie from
//! the tree's *shape* ([`NodeMap::build_shape`] — no tokens yet), and
//! asks for head `d + 1` ([`DecodeSession::head_rows_into`], or
//! [`VerifyPlan::request_head`] under a server) when a depth-`d` node
//! is forwarded, naming that level's tokens ([`NodeMap::set_token`])
//! just before their edges are tested. A head's row from the kept
//! activation is the row [`DecodeSession::multi_logits`] holds, bit for
//! bit. Sessions without a kernel compute `multi_logits()` once at the
//! base call and serve the rows from it.
//!
//! [`DecodeSession::verify_batch`] scores the *whole* tree in one call
//! ([`NodeMap::request_all`]) through the same per-level code; it is
//! the definition the level loop is tested against and the benchmark's
//! kernel probe, not something a decode step calls.
//!
//! Every query has two shapes. The **flat** one is what the engines
//! run on: [`DecodeSession::base_row_into`],
//! [`DecodeSession::head_rows_into`] and
//! [`DecodeSession::score_frontier`] append logits rows to a
//! caller-owned [`LogitsArena`], and the [`NodeMap`] says which row each
//! scored node reads — one row per *unique* candidate-tree node,
//! however many paths share it. The **nested** one
//! ([`DecodeSession::logits`], [`DecodeSession::multi_logits`],
//! [`DecodeSession::verify_batch`]) materializes owned `Vec`s at the
//! edge, for callers that want values rather than views. On
//! [`MlpSession`] both shapes run the same two kernel entries: a base
//! row per input, each a kept position, and Medusa-head rows from kept
//! positions.
//!
//! Three implementations live here:
//!
//! * [`MlpSession`] — caches the embedding concat of the current window
//!   and forwards every query — one position, one level of a candidate
//!   tree — with one call of the packed kernel ([`MlpLm::infer`]),
//!   evaluating a Medusa head from the activation that call kept. A
//!   serving engine instead collects many sessions' inputs
//!   ([`DecodeSession::embed_plan`], [`DecodeSession::plan_frontier`])
//!   and head requests ([`VerifyPlan::request_head`]) and runs them
//!   through the same kernel in one fused pass per level
//!   ([`MlpLm::infer`], [`verify_many`]). All outputs are
//!   bit-identical to the stateless path.
//! * [`NgramSession`] — keeps the context and caches the count-lookup
//!   distribution of the current position; its frontier is scored by
//!   the trait default (`truncate`/`append`/`logits` per node), so it
//!   too pays only for what acceptance reaches.
//! * `StatelessSession` (crate-private) — a fresh-compute session over
//!   any [`LanguageModel`]'s `logits` / `multi_logits`, used as the
//!   default `LanguageModel::session()` (and, via [`Stateless`], as the
//!   reference the parity property tests compare cached sessions
//!   against).

use crate::arena::{ArenaRows, LogitsArena};
use crate::mlp::{MlpLm, TokenId};
use crate::ngram::NgramLm;
use crate::LanguageModel;

/// The flat input buffer of one decoding step's — or one serving
/// tick's — verification: the window embedding of every candidate-tree
/// node planned so far ([`DecodeSession::plan_frontier`]), back to back.
/// It grows level by level: each [`verify_many`] call runs the nodes
/// planned since the last one, and a child's input is derived from its
/// parent's, which is why the whole buffer stays resident until the
/// step ends. Cleared and refilled every step / tick.
///
/// A level may also carry **head requests**
/// ([`VerifyPlan::request_head`]): Medusa-head rows wanted at a position
/// forwarded earlier, evaluated from the activation the kernel kept
/// there by the same [`verify_many`] call that forwards the level — no
/// trunk, so not a forward — into the plan's own rows
/// ([`VerifyPlan::head_rows`]), which last until the next call.
#[derive(Debug, Clone, Default)]
pub struct VerifyPlan {
    /// Floats per node (`context · d_emb` of the planning model).
    x_dim: usize,
    xs: Vec<f32>,
    /// Nodes [`verify_many`] has already run.
    run: usize,
    /// The arena row node 0 landed on.
    base: usize,
    /// `(arena row of the kept position, head)` per head row asked for
    /// since the last [`verify_many`].
    head_requests: Vec<(usize, usize)>,
    /// The head rows the last [`verify_many`] evaluated, in request
    /// order.
    head_rows: LogitsArena,
}

impl VerifyPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every node, keeping the allocation.
    pub fn clear(&mut self) {
        self.xs.clear();
        self.run = 0;
        self.head_requests.clear();
        self.head_rows.clear();
    }

    /// Number of nodes (= forwards) planned so far.
    pub fn n_nodes(&self) -> usize {
        if self.xs.is_empty() {
            0
        } else {
            self.xs.len() / self.x_dim
        }
    }

    /// Nodes planned and not yet run: what the next [`verify_many`]
    /// forwards.
    pub fn pending(&self) -> usize {
        self.n_nodes() - self.run
    }

    /// Asks the next [`verify_many`] for head `head`'s row at a position
    /// forwarded earlier into the arena that call writes to: `kept` is
    /// the arena index of that position's base row (the kernel kept its
    /// trunk activation there). Returns the row's index in
    /// [`VerifyPlan::head_rows`] once the call has run.
    pub fn request_head(&mut self, kept: usize, head: usize) -> usize {
        self.head_requests.push((kept, head));
        self.head_requests.len() - 1
    }

    /// The head rows the last [`verify_many`] evaluated, in request
    /// order.
    pub fn head_rows(&self) -> ArenaRows<'_> {
        self.head_rows.rows_from(0)
    }

    /// Appends a node whose input is `x`, returning its index.
    fn push_root(&mut self, x: &[f32]) -> usize {
        let id = self.n_nodes();
        self.x_dim = x.len();
        self.xs.extend_from_slice(x);
        id
    }

    /// Appends the child of node `parent` along a token embedded as
    /// `emb`, returning its index: the parent's window shifted left by
    /// one block, `emb` in the freed tail.
    fn push_child(&mut self, parent: usize, emb: &[f32]) -> usize {
        let id = self.n_nodes();
        let from = parent * self.x_dim;
        self.xs
            .extend_from_within(from + emb.len()..from + self.x_dim);
        self.xs.extend_from_slice(emb);
        id
    }
}

/// The candidate tree of one decoding step: the deduplicated prefixes
/// of the step's candidate paths as a trie (node 0 is the root — the
/// current context — and parents precede children), which row of the
/// step's logits each *scored* node reads, and the **frontier** — the
/// nodes asked for and not yet scored.
///
/// Building the trie compares tokens only. A node costs a forward only
/// once it is [requested](NodeMap::request), which acceptance does one
/// level at a time: score the root, test its child edges, request the
/// children whose edge was accepted, score those, and so on — so a
/// step's work tracks the depth acceptance reaches, not the size of the
/// tree that was proposed. [`NodeMap::request_all`] asks for every node
/// at once: the full-tree form behind [`DecodeSession::verify_batch`].
///
/// A Medusa tree whose level `d + 1` offers one head's top-k under
/// every depth-`d` node has a trie whose *shape* is fixed by the
/// per-level widths alone; [`NodeMap::build_shape`] builds it without
/// tokens — and keeps it while the widths repeat — so that each level's
/// tokens can be filled in ([`NodeMap::set_token`]) only once
/// acceptance reaches it.
///
/// Owned by the caller and reused across steps, so planning allocates
/// nothing once warm.
#[derive(Debug, Clone)]
pub struct NodeMap {
    trie: Vec<TrieNode>,
    /// The per-level widths and path cut a [`NodeMap::build_shape`]
    /// trie was built from; no widths when it was built from paths.
    shape: Vec<usize>,
    max_paths: usize,
    /// The node after every prefix of every path, paths back to back:
    /// `len + 1` entries per path, the root first.
    ids: Vec<usize>,
    /// `ids[start[i]..start[i + 1]]` are path `i`'s nodes.
    start: Vec<usize>,
    /// Whether a path's last node is read (the bonus position).
    include_bonus: bool,
    /// Nodes requested and not yet planned.
    frontier: Vec<usize>,
    /// Nodes of the level planned last.
    level: Vec<usize>,
    /// Nodes given a row so far: the step's forwards.
    n_rows: usize,
}

/// One deduplicated path prefix; children hang off `first_child` as a
/// sibling list in first-seen order, so building the trie allocates per
/// step, not per node.
#[derive(Debug, Clone, Copy)]
struct TrieNode {
    token: TokenId,
    parent: usize,
    first_child: usize,
    next_sibling: usize,
    /// Relative to the base the scoring call returned; `NO_NODE` until
    /// the node is planned.
    row: usize,
}

const NO_NODE: usize = usize::MAX;

impl Default for NodeMap {
    fn default() -> Self {
        let mut map = NodeMap {
            trie: Vec::new(),
            shape: Vec::new(),
            max_paths: 0,
            ids: Vec::new(),
            start: Vec::new(),
            include_bonus: false,
            frontier: Vec::new(),
            level: Vec::new(),
            n_rows: 0,
        };
        map.build(std::iter::empty(), false);
        map
    }
}

impl NodeMap {
    /// An empty map: a root, no paths.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the map over a new step's candidate `paths`. Nothing is
    /// requested yet. With `include_bonus` every prefix of every path —
    /// the full path too — is a position acceptance may read; without
    /// it a full path's own node never is, so it can never cost a
    /// forward ([`NodeMap::wants_row`]).
    pub fn build<'p>(
        &mut self,
        paths: impl IntoIterator<Item = &'p [TokenId]>,
        include_bonus: bool,
    ) {
        self.begin(include_bonus);
        for path in paths {
            self.push_path(path.iter().copied());
        }
    }

    /// Rebuilds the map as the trie of a full candidate tree, tokens
    /// still to come: every depth-`d` node has `widths[d]` children,
    /// and the paths are the first `max_paths` root-to-leaf walks in
    /// path order (first child first) — exactly the paths a builder
    /// that extends every path by every option, level by level, and
    /// cuts each level at `max_paths` ends up with. No bonus position.
    /// Nothing is requested yet, and a node's token is unspecified
    /// until [`NodeMap::set_token`] names it: what the node stands for
    /// is its ordinal among its siblings ([`NodeMap::first_child`] /
    /// [`NodeMap::next_sibling`] walk them in option order).
    ///
    /// The trie is kept while the shape repeats: a step over the same
    /// widths and cut only forgets the last step's rows.
    ///
    /// # Panics
    ///
    /// Panics on a zero width.
    pub fn build_shape(&mut self, widths: impl Iterator<Item = usize> + Clone, max_paths: usize) {
        if !self.shape.is_empty()
            && self.max_paths == max_paths
            && self.shape.iter().copied().eq(widths.clone())
        {
            self.frontier.clear();
            self.level.clear();
            self.n_rows = 0;
            self.trie.iter_mut().for_each(|n| n.row = NO_NODE);
            return;
        }
        self.begin(false);
        let mut shape = std::mem::take(&mut self.shape);
        shape.extend(widths);
        assert!(shape.iter().all(|&w| w > 0), "a level offers something");
        let n_paths = shape
            .iter()
            .fold(1usize, |n, &w| n.saturating_mul(w).min(max_paths));
        for i in 0..n_paths {
            // Path `i`'s option at each level: the digits of `i`, most
            // significant first, in the mixed radix of the widths.
            let digit = |level: usize| {
                let below = shape[level + 1..]
                    .iter()
                    .fold(1usize, |n, &w| n.saturating_mul(w));
                ((i / below) % shape[level]) as TokenId
            };
            self.push_path((0..shape.len()).map(digit));
        }
        self.shape = shape;
        self.max_paths = max_paths;
    }

    /// How many children every depth-`level` node of a
    /// [`NodeMap::build_shape`] trie was given (before the path cut).
    ///
    /// # Panics
    ///
    /// Panics if the trie was not built from a shape that deep.
    pub fn width(&self, level: usize) -> usize {
        self.shape[level]
    }

    /// An empty map — the root, no paths — ready for [`NodeMap::push_path`].
    fn begin(&mut self, include_bonus: bool) {
        self.include_bonus = include_bonus;
        self.shape.clear();
        self.ids.clear();
        self.start.clear();
        self.start.push(0);
        self.frontier.clear();
        self.level.clear();
        self.n_rows = 0;
        self.trie.clear();
        self.trie.push(TrieNode {
            token: 0,
            parent: NO_NODE,
            first_child: NO_NODE,
            next_sibling: NO_NODE,
            row: NO_NODE,
        });
    }

    /// Adds one path, sharing the nodes of the prefix it has in common
    /// with an earlier one.
    fn push_path(&mut self, path: impl Iterator<Item = TokenId>) {
        let mut node = 0usize;
        self.ids.push(node);
        for tok in path {
            let (mut found, mut last) = (self.trie[node].first_child, NO_NODE);
            while found != NO_NODE && self.trie[found].token != tok {
                last = found;
                found = self.trie[found].next_sibling;
            }
            if found == NO_NODE {
                found = self.trie.len();
                self.trie.push(TrieNode {
                    token: tok,
                    parent: node,
                    first_child: NO_NODE,
                    next_sibling: NO_NODE,
                    row: NO_NODE,
                });
                if last == NO_NODE {
                    self.trie[node].first_child = found;
                } else {
                    self.trie[last].next_sibling = found;
                }
            }
            node = found;
            self.ids.push(node);
        }
        self.start.push(self.ids.len());
    }

    /// Number of paths mapped.
    pub fn n_paths(&self) -> usize {
        self.start.len() - 1
    }

    /// Number of tokens of path `i`.
    pub fn path_len(&self, i: usize) -> usize {
        self.start[i + 1] - self.start[i] - 1
    }

    /// Number of trie nodes, the root included: one per unique path
    /// prefix, scored or not.
    pub fn n_nodes(&self) -> usize {
        self.trie.len()
    }

    /// The node after `paths[i][..j]`, for `j` in `0..=path_len(i)`.
    pub fn node(&self, i: usize, j: usize) -> usize {
        debug_assert!(j <= self.path_len(i));
        self.ids[self.start[i] + j]
    }

    /// The token on the edge into `node` (meaningless for the root).
    pub fn token(&self, node: usize) -> TokenId {
        self.trie[node].token
    }

    /// Names the token on the edge into `node` of a
    /// [`NodeMap::build_shape`] trie. Siblings must be given distinct
    /// tokens (one head's top-k are).
    pub fn set_token(&mut self, node: usize, token: TokenId) {
        self.trie[node].token = token;
    }

    /// The first child of `node`, in first-seen order.
    pub fn first_child(&self, node: usize) -> Option<usize> {
        Some(self.trie[node].first_child).filter(|&c| c != NO_NODE)
    }

    /// The next child of `node`'s parent after `node`.
    pub fn next_sibling(&self, node: usize) -> Option<usize> {
        Some(self.trie[node].next_sibling).filter(|&c| c != NO_NODE)
    }

    /// Whether anything reads `node`'s logits: some path continues past
    /// it (its child edges are tested against them), or the bonus
    /// position is wanted. A node nothing reads is never forwarded.
    pub fn wants_row(&self, node: usize) -> bool {
        self.include_bonus || self.trie[node].first_child != NO_NODE
    }

    /// Asks for `node` to be scored by the next
    /// [`DecodeSession::plan_frontier`] / [`DecodeSession::score_frontier`].
    /// Its parent must have been scored already (the root has none).
    pub fn request(&mut self, node: usize) {
        debug_assert!(self.wants_row(node), "nothing reads node {node}");
        debug_assert_eq!(self.trie[node].row, NO_NODE, "node {node} asked for twice");
        self.frontier.push(node);
    }

    /// Asks for every node anything reads, parents first: the whole
    /// tree in one level.
    pub fn request_all(&mut self) {
        for node in 0..self.trie.len() {
            if self.wants_row(node) {
                self.request(node);
            }
        }
    }

    /// Whether any requested node is still unscored.
    pub fn has_frontier(&self) -> bool {
        !self.frontier.is_empty()
    }

    /// The nodes of the level planned last, in request order — what
    /// acceptance consumes once their rows exist.
    pub fn level(&self) -> &[usize] {
        &self.level
    }

    /// Forgets the last level once it has been consumed.
    pub fn clear_level(&mut self) {
        self.level.clear();
    }

    /// The row — relative to the base its scoring call returned —
    /// holding `node`'s logits.
    ///
    /// # Panics
    ///
    /// Debug-panics if the node has not been planned.
    pub fn row(&self, node: usize) -> usize {
        debug_assert_ne!(self.trie[node].row, NO_NODE, "node {node} was never scored");
        self.trie[node].row
    }

    /// [`NodeMap::row`] if `node` has been planned, `None` if nothing
    /// ever asked for it.
    pub fn scored_row(&self, node: usize) -> Option<usize> {
        Some(self.trie[node].row).filter(|&row| row != NO_NODE)
    }

    /// Nodes given a row since the map was built: the forwards this
    /// step has cost so far.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Turns the frontier into the current level, for a session to give
    /// each of its nodes a row ([`NodeMap::assign`]).
    fn begin_level(&mut self) {
        self.level.clear();
        std::mem::swap(&mut self.level, &mut self.frontier);
    }

    fn assign(&mut self, node: usize, row: usize) {
        self.trie[node].row = row;
        self.n_rows += 1;
    }

    /// The tokens from the root to `node`, into `out`.
    fn path_to(&self, mut node: usize, out: &mut Vec<TokenId>) {
        out.clear();
        while node != 0 {
            out.push(self.trie[node].token);
            node = self.trie[node].parent;
        }
        out.reverse();
    }

    /// The nested `verify_batch` shape of a fully scored map: an owned
    /// copy of every row a path reads.
    fn materialize(&self, rows: ArenaRows<'_>) -> Vec<Vec<Vec<f32>>> {
        (0..self.n_paths())
            .map(|i| {
                (0..self.path_len(i) + usize::from(self.include_bonus))
                    .map(|j| rows.row(self.row(self.node(i, j))).to_vec())
                    .collect()
            })
            .collect()
    }
}

/// Runs the nodes planned into `plan` since the last call — one level
/// of every session that planned into it — as **one** kernel call
/// ([`MlpLm::infer`], on the caller's thread), appending one base-head
/// row per node to `out`. Returns the arena index of the plan's node 0,
/// which every planning session's [`NodeMap`] rows are relative to; a
/// step's levels must therefore land back to back in one arena. Each
/// row is bit-identical to what the session's own `verify_batch` would
/// have returned for that node — the kernel guarantees per-input
/// bit-identity regardless of batch composition.
///
/// The head rows asked for since the last call
/// ([`VerifyPlan::request_head`]) are evaluated in the same pass, from
/// the activations `out` holds at their kept positions, into
/// [`VerifyPlan::head_rows`] — each bit-identical to that position's
/// `multi_logits()` row.
///
/// This is the continuous-batching primitive: concurrent generations
/// share one pass per level instead of issuing one small batch each.
///
/// # Panics
///
/// Panics if rows were appended to `out` between two levels of one
/// plan, or a head was requested at a row of `out` the kernel kept no
/// activation for.
pub fn verify_many(model: &MlpLm, plan: &mut VerifyPlan, out: &mut LogitsArena) -> usize {
    if plan.run == 0 {
        plan.base = out.rows();
    }
    assert_eq!(
        out.rows(),
        plan.base + plan.run,
        "a plan's levels must land back to back"
    );
    model.infer(&plan.xs[plan.run * plan.x_dim..], out);
    plan.run = plan.n_nodes();
    plan.head_rows.clear();
    let requests = plan.head_requests.drain(..);
    model.infer_heads(
        requests.map(|(kept, head)| (out.activation(kept), head)),
        &mut plan.head_rows,
    );
    plan.base
}

/// A stateful, rollback-capable decoding context over one model.
///
/// Implementations must keep [`DecodeSession::logits`] equal to the
/// stateless `LanguageModel::logits(tokens())` at every point — sessions
/// are a performance mechanism, never a semantic one. Engines rely on
/// that equivalence for lossless speculation.
pub trait DecodeSession {
    /// Number of tokens currently in the context.
    fn len(&self) -> usize;

    /// Whether the context is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current context tokens.
    fn tokens(&self) -> &[TokenId];

    /// Appends tokens to the context.
    fn append(&mut self, tokens: &[TokenId]);

    /// Rolls the context back to `len` tokens (no-op if already
    /// shorter). This is the KV-cache trim after rejected speculation.
    fn truncate(&mut self, len: usize);

    /// Base-head logits for the next token after the current context.
    fn logits(&mut self) -> Vec<f32>;

    /// Logits for the base head and every extra (Medusa) head.
    fn multi_logits(&mut self) -> Vec<Vec<f32>>;

    /// Scores every candidate path in one call — the **full-tree**
    /// definition the level-by-level engines are pinned against (and
    /// the benchmark's kernel probe); the engines themselves forward
    /// only what acceptance reaches ([`DecodeSession::score_frontier`]).
    ///
    /// `result[i][j]` is the base-head logits after appending
    /// `paths[i][..j]` to the current context. With `include_bonus`
    /// set, `j` runs over `0..=paths[i].len()` — the K speculated
    /// positions *plus* the bonus position after a fully accepted path
    /// (the draft-verify formulation needs the extra row to sample its
    /// bonus token); without it, `j` runs over `0..paths[i].len()`,
    /// which is all MEDUSA acceptance reads — pure-leaf forwards are
    /// skipped entirely. Shared path prefixes are evaluated once. The
    /// session context is unchanged when the call returns.
    fn verify_batch(&mut self, paths: &[&[TokenId]], include_bonus: bool) -> Vec<Vec<Vec<f32>>> {
        let mut nodes = NodeMap::new();
        nodes.build(paths.iter().copied(), include_bonus);
        nodes.request_all();
        let mut out = LogitsArena::new();
        let base = self.score_frontier(&mut nodes, &mut out);
        nodes.materialize(out.rows_from(base))
    }

    /// Opens a decoding step at the current position: appends the base
    /// head's row to `out` and returns its arena index — the **kept
    /// position** [`DecodeSession::head_rows_into`] serves Medusa-head
    /// rows from later in the step, however the context has moved by
    /// then. `levels` is the deepest head the step may go on to ask
    /// for.
    ///
    /// A step reads head `d + 1` only if acceptance reaches depth `d`
    /// of its candidate tree, so a session that can evaluate a head on
    /// its own computes none here. The default cannot — its model
    /// answers `multi_logits()` whole — and copies in `logits()` when
    /// `levels` is 0, else the first `levels + 1` rows of
    /// `multi_logits()`, to serve the heads from; [`MlpSession`]
    /// forwards the trunk and the base head only, the kernel keeping
    /// the trunk activation beside the row.
    fn base_row_into(&mut self, levels: usize, out: &mut LogitsArena) -> usize {
        let base = out.rows();
        if levels == 0 {
            out.push_row(&self.logits());
        } else {
            for row in self.multi_logits().iter().take(levels + 1) {
                out.push_row(row);
            }
        }
        base
    }

    /// Appends the rows of heads `heads` (each in `1..=levels`) **at the
    /// kept position** to `out`, in order, and returns the arena index
    /// of the first. `kept` is the view at the index
    /// [`DecodeSession::base_row_into`] returned, of the arena it wrote
    /// to — a different arena than `out` — and nothing may have cleared
    /// that arena since. Every row equals the position's
    /// `multi_logits()` row bit for bit. The session's context is
    /// neither read nor changed.
    ///
    /// The default copies the rows [`DecodeSession::base_row_into`]
    /// left behind the base row; [`MlpSession`] evaluates each head
    /// from the kept trunk activation
    /// (`logits_i = U_i (h + silu(P_i h)) + c_i`, no trunk forward).
    fn head_rows_into(
        &mut self,
        kept: ArenaRows<'_>,
        heads: std::ops::Range<usize>,
        out: &mut LogitsArena,
    ) -> usize {
        let first = out.rows();
        for head in heads {
            out.push_row(kept.row(head));
        }
        first
    }

    /// Whether a row this session's frontier was scored into — by
    /// [`DecodeSession::score_frontier`], or by [`verify_many`] for a
    /// level it planned — is a valid **kept position**:
    /// [`DecodeSession::head_rows_into`] then serves that node's
    /// Medusa-head rows from it exactly as from a
    /// [`DecodeSession::base_row_into`] row, so an engine can open its
    /// next step at a node it has already scored instead of forwarding
    /// the position again.
    ///
    /// `false` by default: the default `base_row_into` leaves the head
    /// rows behind the base row, and a frontier row has none behind it.
    /// [`MlpSession`]'s frontier rows come out of the kernel its base
    /// rows do, each with its trunk activation beside it.
    fn keeps_frontier_rows(&self) -> bool {
        false
    }

    /// Scores the frontier of `nodes` — the nodes requested since the
    /// last call, whose parents are all scored — appending one logits
    /// row per node to `out` and recording which. Returns the arena
    /// index the map's rows are relative to, the same for every level
    /// of a step: the levels must land back to back in one arena. The
    /// session context is unchanged when the call returns.
    ///
    /// The default re-syncs the context to each node with
    /// `append`/`truncate` and asks for its `logits`, one forward per
    /// node; [`MlpSession`] embeds the level and runs the packed kernel
    /// once.
    fn score_frontier(&mut self, nodes: &mut NodeMap, out: &mut LogitsArena) -> usize {
        let base = out.rows() - nodes.n_rows();
        let base_len = self.len();
        // Tokens appended beyond `base_len` right now, and the next
        // node's; the common prefix of the two is reused.
        let (mut cur, mut path): (Vec<TokenId>, Vec<TokenId>) = (Vec::new(), Vec::new());
        nodes.begin_level();
        for k in 0..nodes.level.len() {
            let node = nodes.level[k];
            nodes.path_to(node, &mut path);
            let common = cur.iter().zip(&path).take_while(|(a, b)| a == b).count();
            if common < cur.len() {
                self.truncate(base_len + common);
                cur.truncate(common);
            }
            if common < path.len() {
                self.append(&path[common..]);
                cur.extend_from_slice(&path[common..]);
            }
            out.push_row(&self.logits());
            nodes.assign(node, nodes.n_rows());
        }
        self.truncate(base_len);
        base
    }

    /// Plans the frontier of `nodes` into a shared [`VerifyPlan`]
    /// instead of scoring it, so a serving engine can run one level of
    /// many sessions as one fused pass ([`verify_many`]); the map's
    /// rows are then relative to that pass's return value. Returns
    /// `false`, touching nothing, when the session has no fusable
    /// representation (the default); callers must then fall back to
    /// [`DecodeSession::score_frontier`]. The session context is
    /// unchanged either way.
    fn plan_frontier(&mut self, nodes: &mut NodeMap, plan: &mut VerifyPlan) -> bool {
        let _ = (nodes, plan);
        false
    }

    /// Appends the model input of the session's **current position**
    /// (for [`MlpSession`]: the cached window-embedding concat) to
    /// `xs`, so a serving engine can fuse many sessions' next-position
    /// forwards into one pass ([`MlpLm::infer`]). Returns `false`,
    /// appending nothing, when the session has no fusable
    /// representation (the default).
    fn embed_plan(&mut self, xs: &mut Vec<f32>) -> bool {
        let _ = xs;
        false
    }

    /// Forks the session: an independent session over the same model
    /// with the same context, from which both copies may diverge. This
    /// is the prefix-sharing primitive — ingest a common prompt prefix
    /// once, then fork per request. `None` when the session cannot be
    /// forked (the default).
    fn fork(&self) -> Option<Box<dyn DecodeSession + '_>> {
        None
    }
}

/// A [`DecodeSession`] whose forks outlive the borrow they were forked
/// through: `'m` is the **model** borrow, so a fork taken through any
/// short `&self` still lives for the full model lifetime.
///
/// This is the storable prefix-sharing surface. [`DecodeSession::fork`]
/// ties its child to `&self` — fine for forking straight off a local
/// prefix session, useless for a cache that *owns* boxed snapshots and
/// must hand out forks that outlive the lookup borrow. A radix-tree
/// prefix cache (`verispec-serve`) stores
/// `Box<dyn SnapshotSession<'m> + 'm>` per trie node and forks
/// full-lifetime sessions from the deepest matching node.
///
/// Obtained from [`LanguageModel::snapshot_session`]; copy-on-write is
/// inherited from the underlying sessions (forking clones the cached
/// state, after which parent and child diverge independently).
pub trait SnapshotSession<'m>: DecodeSession {
    /// Forks an independent session with the same context whose
    /// lifetime is the model borrow `'m`, not the `&self` borrow.
    fn fork_snapshot(&self) -> Box<dyn SnapshotSession<'m> + 'm>;
}

// ---------------------------------------------------------------------
// Stateless shim
// ---------------------------------------------------------------------

/// A session over any [`LanguageModel`] that recomputes from the full
/// context on every query.
///
/// This is the default [`LanguageModel::session`] implementation, so a
/// model type that provides only the stateless `logits` drives the
/// session-driven engines. It is deliberately cache-free: the parity
/// property tests use it (via [`Stateless`]) as the "fresh forward per
/// query" reference.
pub(crate) struct StatelessSession<'a, M: LanguageModel + ?Sized> {
    model: &'a M,
    tokens: Vec<TokenId>,
}

impl<'a, M: LanguageModel + ?Sized> StatelessSession<'a, M> {
    /// Opens an empty stateless session over `model`.
    pub(crate) fn new(model: &'a M) -> Self {
        StatelessSession {
            model,
            tokens: Vec::new(),
        }
    }
}

impl<M: LanguageModel + ?Sized> DecodeSession for StatelessSession<'_, M> {
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

    fn fork(&self) -> Option<Box<dyn DecodeSession + '_>> {
        Some(Box::new(StatelessSession {
            model: self.model,
            tokens: self.tokens.clone(),
        }))
    }
}

/// Wrapper that forces the stateless default session on a model that
/// has a native one — the reference side of cached-vs-stateless
/// comparisons (`tests/proptest_session.rs`, the frontier oracles in
/// `verispec-core`).
pub struct Stateless<M>(pub M);

impl<M: LanguageModel> LanguageModel for Stateless<M> {
    fn vocab_size(&self) -> usize {
        self.0.vocab_size()
    }

    fn n_extra_heads(&self) -> usize {
        self.0.n_extra_heads()
    }

    fn logits(&self, prefix: &[TokenId]) -> Vec<f32> {
        self.0.logits(prefix)
    }

    fn multi_logits(&self, prefix: &[TokenId]) -> Vec<Vec<f32>> {
        self.0.multi_logits(prefix)
    }
    // `session()` intentionally not overridden: the default
    // StatelessSession shim is the point of this wrapper.
}

// ---------------------------------------------------------------------
// MLP session
// ---------------------------------------------------------------------

/// Cached session over an [`MlpLm`].
///
/// The cached state is exactly what the architecture allows reusing:
/// the **context-window embedding** `x` (appending a token shifts the
/// window by one embedding block and writes only the new tail — the
/// rest is reused). Every forward is one call of the packed kernel
/// ([`MlpLm::infer`]) on flat inputs: the current position is the
/// one-input case, and a level of a candidate tree is one input per
/// node, each node's embedding derived from its parent's by a one-block
/// shift written straight into the plan buffer. Every Medusa-head row
/// is evaluated from a trunk activation such a call kept.
pub struct MlpSession<'a> {
    model: &'a MlpLm,
    tokens: Vec<TokenId>,
    /// Embedding concat of the current window, shifted incrementally.
    x: Option<Vec<f32>>,
    /// The step's inputs when the session scores its own frontier
    /// ([`DecodeSession::score_frontier`]): resident from the root's
    /// level to the last, since children derive from parents.
    plan: VerifyPlan,
}

impl Clone for MlpSession<'_> {
    /// The plan is scratch, not state: forks copy none of it.
    fn clone(&self) -> Self {
        MlpSession {
            model: self.model,
            tokens: self.tokens.clone(),
            x: self.x.clone(),
            plan: VerifyPlan::new(),
        }
    }
}

impl<'a> MlpSession<'a> {
    /// Opens an empty session over `model`.
    pub fn new(model: &'a MlpLm) -> Self {
        MlpSession {
            model,
            tokens: Vec::new(),
            x: None,
            plan: VerifyPlan::new(),
        }
    }

    fn ensure_x(&mut self) -> &[f32] {
        let model = self.model;
        self.x
            .get_or_insert_with(|| model.embed_window(&model.window(&self.tokens)))
    }
}

impl DecodeSession for MlpSession<'_> {
    fn len(&self) -> usize {
        self.tokens.len()
    }

    fn tokens(&self) -> &[TokenId] {
        &self.tokens
    }

    fn append(&mut self, tokens: &[TokenId]) {
        if tokens.is_empty() {
            return;
        }
        self.tokens.extend_from_slice(tokens);
        // Recompute only the window tail that changed: each appended
        // token shifts the embedding concat one block left and fills the
        // last block; the prior blocks carry over.
        if let Some(x) = &mut self.x {
            let d = self.model.config().d_emb;
            for &tok in tokens {
                x.copy_within(d.., 0);
                let n = x.len();
                x[n - d..].copy_from_slice(self.model.embed_token(tok));
            }
        }
    }

    fn truncate(&mut self, len: usize) {
        if len >= self.tokens.len() {
            return;
        }
        self.tokens.truncate(len);
        // Rollback re-exposes tokens left of the window; rebuild lazily.
        self.x = None;
    }

    fn logits(&mut self) -> Vec<f32> {
        let model = self.model;
        let mut out = LogitsArena::new();
        model.infer(self.ensure_x(), &mut out);
        out.into_vec()
    }

    /// The base row, then every Medusa head from its kept activation.
    fn multi_logits(&mut self) -> Vec<Vec<f32>> {
        let model = self.model;
        let (mut base, mut heads) = (LogitsArena::new(), LogitsArena::new());
        model.infer(self.ensure_x(), &mut base);
        let hidden = base.activation(0);
        model.infer_heads((1..=model.n_heads()).map(|head| (hidden, head)), &mut heads);
        std::iter::once(base.row(0))
            .chain((0..model.n_heads()).map(|i| heads.row(i)))
            .map(<[f32]>::to_vec)
            .collect()
    }

    fn base_row_into(&mut self, _levels: usize, out: &mut LogitsArena) -> usize {
        let model = self.model;
        model.infer(self.ensure_x(), out)
    }

    fn head_rows_into(
        &mut self,
        kept: ArenaRows<'_>,
        heads: std::ops::Range<usize>,
        out: &mut LogitsArena,
    ) -> usize {
        let hidden = kept.activation();
        self.model
            .infer_heads(heads.map(|head| (hidden, head)), out)
    }

    fn keeps_frontier_rows(&self) -> bool {
        true
    }

    fn score_frontier(&mut self, nodes: &mut NodeMap, out: &mut LogitsArena) -> usize {
        let mut plan = std::mem::take(&mut self.plan);
        if nodes.n_rows() == 0 {
            // A new step: the previous one's inputs can go.
            plan.clear();
        }
        self.plan_frontier(nodes, &mut plan);
        let base = verify_many(self.model, &mut plan, out);
        self.plan = plan;
        base
    }

    /// One input per frontier node: the root's is the cached window,
    /// a child's its parent's (already in the buffer) shifted by one
    /// block.
    fn plan_frontier(&mut self, nodes: &mut NodeMap, plan: &mut VerifyPlan) -> bool {
        let model = self.model;
        nodes.begin_level();
        for k in 0..nodes.level.len() {
            let node = nodes.level[k];
            let slot = if node == 0 {
                plan.push_root(self.ensure_x())
            } else {
                let parent = nodes.row(nodes.trie[node].parent);
                plan.push_child(parent, model.embed_token(nodes.trie[node].token))
            };
            nodes.assign(node, slot);
        }
        true
    }

    fn embed_plan(&mut self, xs: &mut Vec<f32>) -> bool {
        xs.extend_from_slice(self.ensure_x());
        true
    }

    fn fork(&self) -> Option<Box<dyn DecodeSession + '_>> {
        Some(Box::new(self.clone()))
    }
}

impl<'m> SnapshotSession<'m> for MlpSession<'m> {
    fn fork_snapshot(&self) -> Box<dyn SnapshotSession<'m> + 'm> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------
// N-gram session
// ---------------------------------------------------------------------

/// Cached session over an [`NgramLm`].
///
/// The n-gram model only inspects the last `order − 1` tokens, so the
/// session state is the token ring plus the memoized count-lookup
/// distribution of the current position (invalidated on append/rollback).
#[derive(Clone)]
pub struct NgramSession<'a> {
    model: &'a NgramLm,
    tokens: Vec<TokenId>,
    logits_cache: Option<Vec<f32>>,
}

impl<'a> NgramSession<'a> {
    /// Opens an empty session over `model`.
    pub fn new(model: &'a NgramLm) -> Self {
        NgramSession {
            model,
            tokens: Vec::new(),
            logits_cache: None,
        }
    }
}

impl DecodeSession for NgramSession<'_> {
    fn len(&self) -> usize {
        self.tokens.len()
    }

    fn tokens(&self) -> &[TokenId] {
        &self.tokens
    }

    fn append(&mut self, tokens: &[TokenId]) {
        if tokens.is_empty() {
            return;
        }
        self.tokens.extend_from_slice(tokens);
        self.logits_cache = None;
    }

    fn truncate(&mut self, len: usize) {
        if len >= self.tokens.len() {
            return;
        }
        self.tokens.truncate(len);
        self.logits_cache = None;
    }

    fn logits(&mut self) -> Vec<f32> {
        if let Some(cached) = &self.logits_cache {
            return cached.clone();
        }
        let logits = self.model.logits(&self.tokens);
        self.logits_cache = Some(logits.clone());
        logits
    }

    fn multi_logits(&mut self) -> Vec<Vec<f32>> {
        vec![self.logits()]
    }

    fn fork(&self) -> Option<Box<dyn DecodeSession + '_>> {
        Some(Box::new(self.clone()))
    }
}

impl<'m> SnapshotSession<'m> for NgramSession<'m> {
    fn fork_snapshot(&self) -> Box<dyn SnapshotSession<'m> + 'm> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::MlpLmConfig;

    fn tiny_mlp() -> MlpLm {
        MlpLm::new(MlpLmConfig::tiny(12))
    }

    fn trained_ngram() -> NgramLm {
        let mut ng = NgramLm::new(3, 12);
        let seq: Vec<TokenId> = (0..90).map(|i| 5 + (i % 4) as TokenId).collect();
        ng.train_sequence(&seq);
        ng
    }

    #[test]
    fn mlp_session_matches_stateless_logits() {
        // On contexts shorter than, as long as and longer than the
        // window (4): the base row, and every head from its kept
        // activation, are the scalar forward's bits.
        let model = tiny_mlp();
        let bits = |rows: &[Vec<f32>]| -> Vec<Vec<u32>> {
            rows.iter()
                .map(|row| row.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let mut s = model.session();
        let prefix = [1u32, 2, 3, 4, 5, 6];
        for i in 0..=prefix.len() {
            let ctx = &prefix[..i];
            assert_eq!(bits(&[s.logits()]), bits(&[model.logits(ctx)]), "{ctx:?}");
            assert_eq!(
                bits(&s.multi_logits()),
                bits(&model.multi_logits(ctx)),
                "{ctx:?}"
            );
            s.append(&prefix[i..(i + 1).min(prefix.len())]);
        }
        assert_eq!(s.tokens(), &prefix);
    }

    #[test]
    fn truncate_rolls_back_exactly() {
        let model = tiny_mlp();
        let mut s = model.session();
        s.append(&[1, 2, 3]);
        let at3 = s.logits();
        s.append(&[7, 8]);
        assert_ne!(s.logits(), at3, "context change must change logits");
        s.truncate(3);
        assert_eq!(s.logits(), at3, "rollback must restore position state");
        s.truncate(10); // beyond current length: no-op
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn verify_batch_matches_stateless_forwards_bitwise() {
        let model = tiny_mlp();
        let mut s = model.session();
        let prefix = [2u32, 4, 6];
        s.append(&prefix);
        let paths: Vec<Vec<TokenId>> = vec![vec![1, 2, 3], vec![1, 2, 7], vec![5], vec![1, 9]];
        let path_refs: Vec<&[TokenId]> = paths.iter().map(Vec::as_slice).collect();
        let scored = s.verify_batch(&path_refs, true);
        assert_eq!(scored.len(), paths.len());
        for (path, rows) in paths.iter().zip(&scored) {
            assert_eq!(rows.len(), path.len() + 1);
            for (j, row) in rows.iter().enumerate() {
                let mut ctx = prefix.to_vec();
                ctx.extend_from_slice(&path[..j]);
                let expect = model.logits(&ctx);
                assert!(
                    row.iter()
                        .zip(&expect)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "path {path:?} pos {j}"
                );
            }
        }
        // Without the bonus row, each path gets exactly len rows and the
        // shared rows are identical.
        let trimmed = s.verify_batch(&path_refs, false);
        for ((path, with_bonus), without) in paths.iter().zip(&scored).zip(&trimmed) {
            assert_eq!(without.len(), path.len());
            assert_eq!(&with_bonus[..path.len()], &without[..]);
        }
        // The session context is unchanged.
        assert_eq!(s.tokens(), &prefix);
        assert_eq!(s.logits(), model.logits(&prefix));
    }

    #[test]
    fn default_verify_batch_agrees_with_batched_override() {
        let model = tiny_mlp();
        let paths: Vec<Vec<TokenId>> = vec![vec![3, 1], vec![3, 2], vec![8]];
        let path_refs: Vec<&[TokenId]> = paths.iter().map(Vec::as_slice).collect();

        for include_bonus in [true, false] {
            let mut native = model.session();
            native.append(&[1, 2]);
            let a = native.verify_batch(&path_refs, include_bonus);

            let shim = Stateless(&model);
            let mut stateless = shim.session();
            stateless.append(&[1, 2]);
            let b = stateless.verify_batch(&path_refs, include_bonus);

            assert_eq!(a, b, "shim and batched session must agree exactly");
        }
    }

    #[test]
    fn verify_many_fuses_sessions_bit_identically() {
        // Three sessions at different contexts, different candidate
        // trees, mixed bonus settings: the fused cross-session pass
        // must reproduce each session's own verify_batch exactly.
        let model = tiny_mlp();
        let contexts: [&[TokenId]; 3] = [&[1, 2, 3], &[4, 5], &[9]];
        let trees: [Vec<Vec<TokenId>>; 3] = [
            vec![vec![1, 2], vec![1, 3]],
            vec![vec![7]],
            vec![vec![2, 2, 2], vec![3], vec![2, 4]],
        ];
        let bonus = [true, false, true];
        let mut plan = VerifyPlan::new();
        let mut maps = Vec::new();
        for ((ctx, tree), &b) in contexts.iter().zip(&trees).zip(&bonus) {
            let mut s = model.session();
            s.append(ctx);
            let mut nodes = NodeMap::new();
            nodes.build(tree.iter().map(Vec::as_slice), b);
            nodes.request_all();
            assert!(s.plan_frontier(&mut nodes, &mut plan), "mlp sessions fuse");
            let rows: usize = tree.iter().map(|p| p.len() + usize::from(b)).sum();
            assert!(nodes.n_rows() <= rows.max(1), "dedup only shrinks");
            maps.push(nodes);
        }
        assert_eq!(
            plan.n_nodes(),
            maps.iter().map(NodeMap::n_rows).sum::<usize>()
        );
        // A few rows already in the arena: results are relative to the
        // base the execution returns, not to row 0.
        let mut arena = LogitsArena::new();
        arena.push_row(&[0.0; 12]);
        let base = verify_many(&model, &mut plan, &mut arena);
        assert_eq!(base, 1);
        assert_eq!(plan.pending(), 0);
        for (i, ((ctx, tree), &b)) in contexts.iter().zip(&trees).zip(&bonus).enumerate() {
            let mut s = model.session();
            s.append(ctx);
            let refs: Vec<&[TokenId]> = tree.iter().map(Vec::as_slice).collect();
            let own = s.verify_batch(&refs, b);
            let fused = maps[i].materialize(arena.rows_from(base));
            assert_eq!(fused, own, "session {i} diverged under fusion");
        }
        let mut empty = LogitsArena::new();
        assert_eq!(verify_many(&model, &mut VerifyPlan::new(), &mut empty), 0);
        assert_eq!(empty.rows(), 0);
    }

    #[test]
    fn verify_many_serves_head_requests_from_kept_activations() {
        // Two positions forwarded by one pass (base rows only); then a
        // level of candidate nodes with head rows riding along, twice.
        let model = tiny_mlp();
        let contexts: [&[TokenId]; 2] = [&[1, 2, 3], &[7]];
        let mut xs = Vec::new();
        let mut want = Vec::new();
        let mut sessions = Vec::new();
        for ctx in contexts {
            let mut s = MlpSession::new(&model);
            s.append(ctx);
            assert!(s.embed_plan(&mut xs));
            want.push(s.multi_logits());
            sessions.push(s);
        }
        let mut arena = LogitsArena::new();
        let kept = model.infer(&xs, &mut arena);
        let mut plan = VerifyPlan::new();
        let mut maps = [NodeMap::new(), NodeMap::new()];
        for (s, nodes) in sessions.iter_mut().zip(&mut maps) {
            s.append(&[4]);
            nodes.build_shape([2, 1].into_iter(), 32);
            nodes.request(0);
            assert!(s.plan_frontier(nodes, &mut plan));
        }
        assert_eq!(plan.request_head(kept + 1, 3), 0);
        assert_eq!(plan.request_head(kept, 1), 1);
        let base = verify_many(&model, &mut plan, &mut arena);
        assert_eq!((base, arena.rows()), (2, 4), "head rows are not forwards");
        assert_eq!(plan.head_rows().row(0), &want[1][3][..]);
        assert_eq!(plan.head_rows().row(1), &want[0][1][..]);
        // The next level: the first session's first child, one request.
        let child = maps[0].first_child(0).expect("two children");
        maps[0].set_token(child, 9);
        maps[0].request(child);
        maps[0].clear_level();
        assert!(sessions[0].plan_frontier(&mut maps[0], &mut plan));
        assert_eq!(plan.request_head(kept, 2), 0, "tickets restart per pass");
        assert_eq!(verify_many(&model, &mut plan, &mut arena), base);
        assert_eq!(arena.rows(), 5);
        assert_eq!(plan.head_rows().row(0), &want[0][2][..]);
        assert_eq!(
            arena.row(base + maps[0].row(child)),
            &model.logits(&[1, 2, 3, 4, 9])[..]
        );
    }

    #[test]
    fn a_scored_frontier_row_is_a_kept_position_where_the_session_says_so() {
        // Every node a kernel session scores — on its own or through a
        // shared plan — has its trunk activation beside its row, so
        // the node's Medusa heads can be served from it, and from a
        // copy of it in another arena, as from a base row.
        let model = tiny_mlp();
        let n_heads = model.n_extra_heads();
        let context: [TokenId; 3] = [2, 4, 6];
        let paths: [&[TokenId]; 3] = [&[1, 2, 3], &[1, 7], &[5]];
        for fused in [false, true] {
            let mut s = MlpSession::new(&model);
            s.append(&context);
            assert!(s.keeps_frontier_rows());
            let mut nodes = NodeMap::new();
            nodes.build(paths.iter().copied(), true);
            nodes.request_all();
            let mut arena = LogitsArena::new();
            arena.push_row(&vec![0.0; model.vocab_size()]);
            let base = if fused {
                let mut plan = VerifyPlan::new();
                assert!(s.plan_frontier(&mut nodes, &mut plan));
                verify_many(&model, &mut plan, &mut arena)
            } else {
                s.score_frontier(&mut nodes, &mut arena)
            };
            for (i, path) in paths.iter().enumerate() {
                for j in 0..=path.len() {
                    let mut ctx = context.to_vec();
                    ctx.extend_from_slice(&path[..j]);
                    let want = model.multi_logits(&ctx);
                    let row = nodes.scored_row(nodes.node(i, j)).expect("all requested");
                    let kept = arena.rows_from(base + row);
                    assert_eq!(kept.row(0), &want[0][..]);
                    let mut carried = LogitsArena::new();
                    carried.push_kept(kept);
                    for from in [kept, carried.rows_from(0)] {
                        let mut heads = LogitsArena::new();
                        let at = s.head_rows_into(from, 1..n_heads + 1, &mut heads);
                        for (i, want) in want[1..].iter().enumerate() {
                            assert_eq!(heads.row(at + i), &want[..], "{ctx:?}");
                        }
                    }
                }
            }
        }
        // The copying defaults keep their head rows behind a base row,
        // which a frontier row does not have.
        let (shim, ng) = (Stateless(&model), trained_ngram());
        assert!(!shim.session().keeps_frontier_rows());
        assert!(!ng.session().keeps_frontier_rows());
        let mut nodes = NodeMap::new();
        nodes.build(paths.iter().copied(), false);
        assert_eq!(nodes.scored_row(0), None, "nothing asked for yet");
    }

    #[test]
    fn shape_tries_equal_the_tries_of_the_paths_they_stand_for() {
        // The level-by-level builder the shape trie replaces: extend
        // every path by every option, cut each level at `max`.
        let eager = |widths: &[usize], max: usize| {
            let mut paths: Vec<Vec<TokenId>> = vec![Vec::new()];
            for &k in widths {
                let mut next = Vec::new();
                'grow: for p in &paths {
                    for opt in 0..k as TokenId {
                        let mut q = p.clone();
                        q.push(opt);
                        next.push(q);
                        if next.len() >= max {
                            break 'grow;
                        }
                    }
                }
                paths = next;
            }
            paths
        };
        let cases: [(&[usize], usize); 8] = [
            (&[1], 32),
            (&[2, 2], 32),
            (&[3, 1, 2], 32),
            (&[4, 4, 4], 32),    // cut on a parent boundary
            (&[5, 7, 2], 32),    // cut mid-parent, then a level below it
            (&[7, 5], 32),       // cut mid-parent at the last level
            (&[40, 3], 32),      // cut inside the first level
            (&[2, 3, 2, 2], 10), // another cut
        ];
        let model = tiny_mlp();
        let (mut shaped, mut built) = (NodeMap::new(), NodeMap::new());
        for (widths, max) in cases {
            let paths = eager(widths, max);
            built.build(paths.iter().map(Vec::as_slice), false);
            for round in 0..2 {
                shaped.build_shape(widths.iter().copied(), max);
                assert_eq!(shaped.n_paths(), built.n_paths(), "{widths:?}");
                assert_eq!(shaped.n_nodes(), built.n_nodes(), "{widths:?}");
                assert!(!shaped.has_frontier() && shaped.n_rows() == 0);
                for i in 0..built.n_paths() {
                    assert_eq!(shaped.path_len(i), widths.len());
                    for j in 0..=widths.len() {
                        assert_eq!(shaped.node(i, j), built.node(i, j), "{widths:?} {i}/{j}");
                    }
                }
                // A node's ordinal among its siblings is the option it
                // stands for.
                for node in 0..built.n_nodes() {
                    let (mut a, mut b) = (shaped.first_child(node), built.first_child(node));
                    let mut ordinal = 0;
                    while let (Some(x), Some(y)) = (a, b) {
                        assert_eq!((x, built.token(y)), (y, ordinal), "{widths:?}");
                        (a, b) = (shaped.next_sibling(x), built.next_sibling(y));
                        ordinal += 1;
                    }
                    assert_eq!((a, b), (None, None), "{widths:?} node {node}");
                }
                // The second round reuses the trie: last step's rows
                // and names are no part of it.
                if round == 0 {
                    let mut s = MlpSession::new(&model);
                    shaped.request(0);
                    s.score_frontier(&mut shaped, &mut LogitsArena::new());
                    assert_eq!(shaped.n_rows(), 1);
                    shaped.set_token(shaped.first_child(0).expect("a level"), 11);
                }
            }
        }
    }

    #[test]
    fn flat_queries_match_their_nested_adaptors_on_every_session_kind() {
        // The engines read the flat forms; the nested forms are the
        // edge. Both must describe the same rows — for the kernel-backed
        // session and for the copying trait defaults alike.
        let model = tiny_mlp();
        let shim = Stateless(&model);
        let ng = trained_ngram();
        let paths: Vec<Vec<TokenId>> = vec![vec![5, 6], vec![5, 7], vec![8]];
        let refs: Vec<&[TokenId]> = paths.iter().map(Vec::as_slice).collect();
        let sessions: Vec<Box<dyn DecodeSession + '_>> =
            vec![model.session(), shim.session(), ng.session()];
        for mut s in sessions {
            s.append(&[5, 6, 7]);
            let mut arena = LogitsArena::new();
            let all = s.multi_logits();
            assert_eq!(s.logits(), all[0]);
            // A step's two calls — the base row first, heads from the
            // kept position later, the context moved on in between —
            // read the same rows.
            for levels in 0..all.len() {
                arena.clear();
                arena.push_row(&vec![0.0; model.vocab_size()]);
                let kept = s.base_row_into(levels, &mut arena);
                assert_eq!(kept, 1);
                assert_eq!(arena.row(kept), &all[0][..]);
                s.append(&[8, 9]);
                let mut later = LogitsArena::new();
                for head in (1..=levels).rev() {
                    let at = s.head_rows_into(arena.rows_from(kept), head..head + 1, &mut later);
                    assert_eq!(later.row(at), &all[head][..], "head {head} of {levels}");
                }
                let at = s.head_rows_into(arena.rows_from(kept), 1..levels + 1, &mut later);
                assert_eq!(later.rows(), at + levels);
                for (i, want) in all[1..=levels].iter().enumerate() {
                    assert_eq!(later.row(at + i), &want[..]);
                }
                s.truncate(3);
            }
            // Scoring the tree one level at a time — every child of
            // every scored node requested, as an acceptance that
            // rejects nothing would — fills the same rows as the
            // full-tree call, in as many forwards.
            for bonus in [true, false] {
                let full = s.verify_batch(&refs, bonus);
                let mut nodes = NodeMap::new();
                nodes.build(refs.iter().copied(), bonus);
                nodes.request(0);
                arena.clear();
                arena.push_row(&vec![0.0; model.vocab_size()]);
                let (mut base, mut levels) = (0, 0);
                while nodes.has_frontier() {
                    base = s.score_frontier(&mut nodes, &mut arena);
                    for k in 0..nodes.level().len() {
                        let mut child = nodes.first_child(nodes.level()[k]);
                        while let Some(c) = child {
                            if nodes.wants_row(c) {
                                nodes.request(c);
                            }
                            child = nodes.next_sibling(c);
                        }
                    }
                    levels += 1;
                    assert_eq!(s.tokens(), &[5, 6, 7], "context unchanged");
                }
                assert_eq!(base, 1, "rows are relative to the first level's base");
                assert_eq!(levels, if bonus { 3 } else { 2 });
                assert_eq!(nodes.n_rows(), if bonus { 5 } else { 2 });
                assert_eq!(arena.rows(), 1 + nodes.n_rows());
                assert_eq!(nodes.materialize(arena.rows_from(base)), full);
            }
        }
    }

    #[test]
    fn forked_sessions_diverge_independently() {
        let model = tiny_mlp();
        let mut prefix = model.session();
        prefix.append(&[1, 2, 3]);
        let mut a = prefix.fork().expect("mlp fork");
        let mut b = prefix.fork().expect("mlp fork");
        a.append(&[4]);
        b.append(&[5, 6]);
        assert_eq!(a.logits(), model.logits(&[1, 2, 3, 4]));
        assert_eq!(b.logits(), model.logits(&[1, 2, 3, 5, 6]));
        // The parent is untouched.
        assert_eq!(prefix.tokens(), &[1, 2, 3]);

        // Ngram and stateless sessions fork too.
        let ng = trained_ngram();
        let mut s = ng.session();
        s.append(&[5, 6]);
        let mut f = s.fork().expect("ngram fork");
        f.append(&[7]);
        assert_eq!(f.logits(), LanguageModel::logits(&ng, &[5, 6, 7]));
        let shim = Stateless(&model);
        let mut ss = shim.session();
        ss.append(&[2, 4]);
        let mut sf = ss.fork().expect("stateless fork");
        sf.append(&[6]);
        assert_eq!(sf.logits(), model.logits(&[2, 4, 6]));
    }

    #[test]
    fn snapshot_forks_outlive_the_lookup_borrow() {
        // The storable-fork surface: a container owns boxed snapshots,
        // and a fork taken through a short borrow of one entry must
        // live beyond that borrow (the prefix-cache access pattern).
        let model = tiny_mlp();
        let mut store: Vec<Box<dyn SnapshotSession<'_> + '_>> = Vec::new();
        let mut snap = model.snapshot_session().expect("mlp snapshots");
        snap.append(&[1, 2, 3]);
        store.push(snap);
        let mut fork = {
            let entry = &store[0]; // short borrow
            entry.fork_snapshot()
        };
        fork.append(&[4]);
        assert_eq!(fork.logits(), model.logits(&[1, 2, 3, 4]));
        // The stored parent is untouched (copy-on-write).
        assert_eq!(store[0].tokens(), &[1, 2, 3]);
        // Upcasting to the plain session trait hands the fork to an
        // engine stepper.
        let mut plain: Box<dyn DecodeSession + '_> = fork;
        plain.append(&[5]);
        assert_eq!(plain.logits(), model.logits(&[1, 2, 3, 4, 5]));

        // Ngram models snapshot too; the `&M` forwarder passes through.
        let ng = trained_ngram();
        assert!(ng.snapshot_session().is_some());
        assert!((&ng as &dyn LanguageModel).snapshot_session().is_some());
        // Plain-logits models fall back to `None`.
        assert!(Stateless(&model).snapshot_session().is_none());
    }

    #[test]
    fn ngram_session_matches_stateless() {
        let ng = trained_ngram();
        let mut s = ng.session();
        let prefix = [5u32, 6, 7, 8, 5, 6];
        for i in 0..prefix.len() {
            s.append(&prefix[i..=i]);
            assert_eq!(s.logits(), LanguageModel::logits(&ng, &prefix[..=i]));
        }
        s.truncate(2);
        assert_eq!(s.logits(), LanguageModel::logits(&ng, &prefix[..2]));
    }

    #[test]
    fn stateless_wrapper_forwards_model_behavior() {
        let model = tiny_mlp();
        let shim = Stateless(&model);
        assert_eq!(shim.vocab_size(), model.vocab_size());
        assert_eq!(shim.n_extra_heads(), model.n_extra_heads());
        assert_eq!(shim.logits(&[1, 2]), model.logits(&[1, 2]));
        let mut s = shim.session();
        s.append(&[1, 2]);
        assert_eq!(s.logits(), model.logits(&[1, 2]));
    }
}
