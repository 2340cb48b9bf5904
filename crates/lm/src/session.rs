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
//! * [`DecodeSession::verify_batch`] — score *every* candidate-tree path
//!   in one call with shared-prefix reuse, the draft-then-verify
//!   formulation where K speculated positions are verified together
//!   instead of one forward per candidate path.
//!
//! Every query has two shapes. The **flat** one is what the engines
//! run on: [`DecodeSession::multi_logits_into`] and
//! [`DecodeSession::verify_into`] append logits rows to a caller-owned
//! [`LogitsArena`], and a [`NodeMap`] says which row each requested
//! `(path, position)` reads — one row per *unique* candidate-tree node,
//! however many paths share it. The **nested** one
//! ([`DecodeSession::multi_logits`], [`DecodeSession::verify_batch`])
//! materializes owned `Vec`s at the edge, for callers that want values
//! rather than views and for sessions with nothing better to offer; the
//! flat methods default to copying its results into the arena.
//!
//! Three implementations live here:
//!
//! * [`MlpSession`] — caches the embedding concat of the current window
//!   and answers every query — one position, a whole candidate tree —
//!   with one call of the packed kernel ([`MlpLm::infer`]). A serving
//!   engine instead collects many sessions' inputs
//!   ([`DecodeSession::embed_plan`], [`DecodeSession::verify_plan`])
//!   and runs them through the same kernel in one fused pass
//!   ([`multi_logits_many`], [`verify_many`]). All outputs are
//!   bit-identical to the stateless path.
//! * [`NgramSession`] — keeps the context and caches the count-lookup
//!   distribution of the current position.
//! * [`StatelessSession`] — the migration shim: a fresh-compute session
//!   over any [`LanguageModel`], used as the default
//!   `LanguageModel::session()` so external model implementations keep
//!   working unchanged (and as the baseline in the `session_reuse`
//!   bench).

use crate::arena::{ArenaRows, LogitsArena};
use crate::mlp::{MlpLm, TokenId};
use crate::ngram::NgramLm;
use crate::LanguageModel;

/// The flat input buffer of one fused verification pass: the window
/// embedding of every unique candidate-tree node of every session that
/// planned into it ([`DecodeSession::verify_plan`]), back to back.
/// Executing it against the owning model ([`verify_many`]) reproduces
/// each session's [`DecodeSession::verify_batch`] bit-identically —
/// which is what lets a serving engine run many sessions' verification
/// as **one** kernel call. Cleared and refilled every tick.
#[derive(Debug, Clone, Default)]
pub struct VerifyPlan {
    /// Floats per node (`context · d_emb` of the planning model).
    x_dim: usize,
    xs: Vec<f32>,
}

impl VerifyPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every node, keeping the allocation.
    pub fn clear(&mut self) {
        self.xs.clear();
    }

    /// Number of nodes (= forwards) planned so far.
    pub fn n_nodes(&self) -> usize {
        if self.xs.is_empty() {
            0
        } else {
            self.xs.len() / self.x_dim
        }
    }

    /// Appends a node whose input is `x`, returning its index.
    fn push_root(&mut self, x: &[f32]) -> usize {
        let id = self.n_nodes();
        self.x_dim = x.len();
        self.xs.extend_from_slice(x);
        id
    }

    /// Appends the child of node `parent` along a token embedded as
    /// `emb`: the parent's window shifted left by one block, `emb` in
    /// the freed tail.
    fn push_child(&mut self, parent: usize, emb: &[f32]) {
        let from = parent * self.x_dim;
        self.xs
            .extend_from_within(from + emb.len()..from + self.x_dim);
        self.xs.extend_from_slice(emb);
    }
}

/// Which node's logits each requested result row reads: the index a
/// verification fills ([`DecodeSession::verify_into`] /
/// [`DecodeSession::verify_plan`]) and acceptance reads back. Nodes are
/// the deduplicated prefixes of the scored paths, numbered root first,
/// parent before child; `node(i, j)` is the row offset — from the base
/// the execution returned — of the logits after `paths[i][..j]`.
///
/// Owned by the caller and reused across steps (it also carries the
/// trie the deduplication builds), so planning allocates nothing once
/// warm.
#[derive(Debug, Clone)]
pub struct NodeMap {
    /// Node of every result row, paths back to back, numbered from 0.
    ids: Vec<usize>,
    /// `ids[start[i]..start[i + 1]]` are path `i`'s rows.
    start: Vec<usize>,
    /// Where node 0 sits in the buffer the plan went into.
    offset: usize,
    n_nodes: usize,
    trie: Vec<TrieNode>,
}

/// One deduplicated path prefix; children hang off `first_child` as a
/// sibling list, so building the trie allocates per plan, not per node.
#[derive(Debug, Clone, Copy)]
struct TrieNode {
    token: TokenId,
    first_child: usize,
    next_sibling: usize,
}

const NO_NODE: usize = usize::MAX;

impl Default for NodeMap {
    fn default() -> Self {
        NodeMap {
            ids: Vec::new(),
            start: vec![0],
            offset: 0,
            n_nodes: 0,
            trie: Vec::new(),
        }
    }
}

impl NodeMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, offset: usize) {
        self.ids.clear();
        self.start.truncate(1);
        self.offset = offset;
        self.n_nodes = 0;
    }

    fn end_path(&mut self) {
        self.start.push(self.ids.len());
    }

    /// Number of paths mapped.
    pub fn n_paths(&self) -> usize {
        self.start.len() - 1
    }

    /// Number of result rows path `i` asked for.
    pub fn path_rows(&self, i: usize) -> usize {
        self.start[i + 1] - self.start[i]
    }

    /// Number of unique nodes behind those rows.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The node of row `j` of path `i`, numbered from 0 within this
    /// map — the key for anything computed once per node.
    pub fn local(&self, i: usize, j: usize) -> usize {
        debug_assert!(j < self.path_rows(i));
        self.ids[self.start[i] + j]
    }

    /// The row, relative to the base its execution returned, holding
    /// the logits of row `j` of path `i`.
    pub fn node(&self, i: usize, j: usize) -> usize {
        self.offset + self.local(i, j)
    }

    /// Maps every path one row per position, with no sharing: `rows[i]`
    /// rows for path `i`, numbered in order. What a session without a
    /// trie reports after appending its nested results row by row.
    fn fill_sequential(&mut self, rows: impl Iterator<Item = usize>) {
        self.reset(0);
        for n in rows {
            self.ids.extend(self.n_nodes..self.n_nodes + n);
            self.n_nodes += n;
            self.end_path();
        }
    }

    /// Deduplicates the *scored* prefixes of `paths` into a trie and
    /// maps each row to its node; `child(parent, token)` is called once
    /// per new node, parent first. Node 0 is the root (the current
    /// context). Without the bonus row the full-path leaves are never
    /// read, so they get no node and no forward.
    fn fill_trie(
        &mut self,
        paths: &[&[TokenId]],
        include_bonus: bool,
        offset: usize,
        mut child: impl FnMut(usize, TokenId),
    ) {
        self.reset(offset);
        self.trie.clear();
        self.trie.push(TrieNode {
            token: 0,
            first_child: NO_NODE,
            next_sibling: NO_NODE,
        });
        for &path in paths {
            let rows_wanted = path.len() + usize::from(include_bonus);
            let mut node = 0usize;
            if rows_wanted > 0 {
                self.ids.push(node);
            }
            for &tok in &path[..rows_wanted.saturating_sub(1)] {
                let mut found = self.trie[node].first_child;
                while found != NO_NODE && self.trie[found].token != tok {
                    found = self.trie[found].next_sibling;
                }
                if found == NO_NODE {
                    found = self.trie.len();
                    self.trie.push(TrieNode {
                        token: tok,
                        first_child: NO_NODE,
                        next_sibling: self.trie[node].first_child,
                    });
                    self.trie[node].first_child = found;
                    child(node, tok);
                }
                node = found;
                self.ids.push(node);
            }
            self.end_path();
        }
        self.n_nodes = self.trie.len();
    }

    /// The nested `verify_batch` shape of an executed map: an owned
    /// copy of every requested row.
    fn materialize(&self, rows: ArenaRows<'_>) -> Vec<Vec<Vec<f32>>> {
        (0..self.n_paths())
            .map(|i| {
                (0..self.path_rows(i))
                    .map(|j| rows.row(self.node(i, j)).to_vec())
                    .collect()
            })
            .collect()
    }
}

/// Executes a [`VerifyPlan`] — every node of every session that planned
/// into it — as **one** kernel call ([`MlpLm::infer`], which also
/// shards across threads above its work threshold), appending one
/// base-head row per node to `out`. Returns the arena index of the
/// plan's first node; each session's [`NodeMap`] is relative to it.
/// The rows a session reads are bit-identical to what its own
/// `verify_batch` would have returned — the kernel guarantees
/// per-input bit-identity regardless of batch composition.
///
/// This is the continuous-batching primitive: concurrent generations
/// share one pass instead of issuing one small batch each.
pub fn verify_many(model: &MlpLm, plan: &VerifyPlan, out: &mut LogitsArena) -> usize {
    model.infer(&plan.xs, None, out)
}

/// Fused multi-head logits for many positions: `xs` holds one
/// embedding concat per position ([`DecodeSession::embed_plan`] across
/// many sessions) and position `k` gets the rows of heads
/// `0..row_start[k + 1] - row_start[k]` — one kernel call for all of
/// them. Returns the arena index of the first row; position `k`'s rows
/// start `row_start[k]` after it and are bit-identical to what that
/// session's `multi_logits()` would return.
pub fn multi_logits_many(
    model: &MlpLm,
    xs: &[f32],
    row_start: &[usize],
    out: &mut LogitsArena,
) -> usize {
    model.infer(xs, Some(row_start), out)
}

/// Guards the mutually-recursive `LanguageModel` defaults
/// (`logits`/`multi_logits` ⇄ `session`): a type overriding neither
/// would otherwise recurse until the stack overflows. The threshold is
/// generous so legitimate nesting (a model whose `logits` internally
/// queries another model's shim) never trips it.
pub(crate) fn shim_recursion_guard<T>(f: impl FnOnce() -> T) -> T {
    use std::cell::Cell;
    thread_local! {
        static DEPTH: Cell<u32> = const { Cell::new(0) };
    }
    DEPTH.with(|depth| {
        assert!(
            depth.get() < 64,
            "LanguageModel default-impl cycle: implement at least one of \
             `session()` or `logits()` (see the LanguageModel trait docs)"
        );
        depth.set(depth.get() + 1);
        struct Restore<'a>(&'a Cell<u32>);
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                self.0.set(self.0.get() - 1);
            }
        }
        let _restore = Restore(depth);
        f()
    })
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

    /// Scores every candidate path in one call.
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
    ///
    /// The default implementation walks a prefix trie with
    /// `append`/`truncate` rollback and one `logits` call per unique
    /// node; model-aware sessions override it with batched forwards.
    fn verify_batch(&mut self, paths: &[&[TokenId]], include_bonus: bool) -> Vec<Vec<Vec<f32>>> {
        let base_len = self.len();
        struct Node {
            token: TokenId,
            children: Vec<usize>,
            logits: Option<Vec<f32>>,
        }
        let mut nodes = vec![Node {
            token: 0,
            children: Vec::new(),
            logits: None,
        }];
        // Session tokens appended beyond `base_len` right now.
        let mut cur: Vec<TokenId> = Vec::new();
        let mut results = Vec::with_capacity(paths.len());
        for &path in paths {
            let rows_wanted = path.len() + usize::from(include_bonus);
            let mut rows = Vec::with_capacity(rows_wanted);
            let mut node = 0usize;
            for j in 0..rows_wanted {
                if nodes[node].logits.is_none() {
                    // Re-sync the session to this prefix, reusing the
                    // longest common prefix with its current state.
                    let prefix = &path[..j];
                    let common = cur
                        .iter()
                        .zip(prefix.iter())
                        .take_while(|(a, b)| a == b)
                        .count();
                    if common < cur.len() {
                        self.truncate(base_len + common);
                        cur.truncate(common);
                    }
                    if common < prefix.len() {
                        self.append(&prefix[common..]);
                        cur.extend_from_slice(&prefix[common..]);
                    }
                    nodes[node].logits = Some(self.logits());
                }
                rows.push(nodes[node].logits.clone().expect("computed above"));
                if j < path.len() {
                    let tok = path[j];
                    let found = nodes[node]
                        .children
                        .iter()
                        .copied()
                        .find(|&c| nodes[c].token == tok);
                    node = match found {
                        Some(c) => c,
                        None => {
                            nodes.push(Node {
                                token: tok,
                                children: Vec::new(),
                                logits: None,
                            });
                            let id = nodes.len() - 1;
                            nodes[node].children.push(id);
                            id
                        }
                    };
                }
            }
            results.push(rows);
        }
        self.truncate(base_len);
        results
    }

    /// The flat form of [`DecodeSession::multi_logits`]: appends the
    /// logits of the first `heads` heads (base first) at the current
    /// position to `out` and returns the arena index of the base row.
    /// A step whose shape explores `d` head levels asks for `d + 1`
    /// rows and pays for no more.
    ///
    /// The default copies the nested result in; [`MlpSession`] runs
    /// the packed kernel straight into the arena.
    fn multi_logits_into(&mut self, heads: usize, out: &mut LogitsArena) -> usize {
        let base = out.rows();
        if heads == 1 {
            out.push_row(&self.logits());
        } else {
            for row in self.multi_logits().iter().take(heads) {
                out.push_row(row);
            }
        }
        base
    }

    /// The flat form of [`DecodeSession::verify_batch`]: appends one
    /// logits row per scored node to `out`, fills `nodes` with the row
    /// each `(path, position)` reads, and returns the arena index the
    /// map is relative to. The session context is unchanged when the
    /// call returns.
    ///
    /// The default copies the nested result in, one row per requested
    /// row; [`MlpSession`] writes one row per *unique* node.
    fn verify_into(
        &mut self,
        paths: &[&[TokenId]],
        include_bonus: bool,
        nodes: &mut NodeMap,
        out: &mut LogitsArena,
    ) -> usize {
        let base = out.rows();
        let scored = self.verify_batch(paths, include_bonus);
        nodes.fill_sequential(scored.iter().map(Vec::len));
        for row in scored.iter().flatten() {
            out.push_row(row);
        }
        base
    }

    /// Plans the scoring [`DecodeSession::verify_into`] would perform
    /// into a shared [`VerifyPlan`] instead of executing it, so a
    /// serving engine can run many sessions' verification as one
    /// fused pass ([`verify_many`]); `nodes` is filled relative to that
    /// pass's base row. Returns `false`, touching nothing, when the
    /// session has no fusable representation (the default); callers
    /// must then fall back to `verify_into`. The session context is
    /// unchanged either way.
    fn verify_plan(
        &mut self,
        paths: &[&[TokenId]],
        include_bonus: bool,
        nodes: &mut NodeMap,
        plan: &mut VerifyPlan,
    ) -> bool {
        let _ = (paths, include_bonus, nodes, plan);
        false
    }

    /// Appends the model input of the session's **current position**
    /// (for [`MlpSession`]: the cached window-embedding concat) to
    /// `xs`, so a serving engine can fuse many sessions' next-position
    /// forwards into one pass ([`multi_logits_many`]). Returns `false`,
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

/// The migration shim: a session over any [`LanguageModel`] that
/// recomputes from the full context on every query.
///
/// This is the default [`LanguageModel::session`] implementation, so
/// model types that only provide the stateless `logits` keep working
/// with the session-driven engines. It is deliberately cache-free: the
/// `session_reuse` bench uses it (via [`Stateless`]) as the
/// "fresh forward per query" baseline.
pub struct StatelessSession<'a, M: LanguageModel + ?Sized> {
    model: &'a M,
    tokens: Vec<TokenId>,
}

impl<'a, M: LanguageModel + ?Sized> StatelessSession<'a, M> {
    /// Opens an empty stateless session over `model`.
    pub fn new(model: &'a M) -> Self {
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

impl<'m, M: LanguageModel + ?Sized> SnapshotSession<'m> for StatelessSession<'m, M> {
    fn fork_snapshot(&self) -> Box<dyn SnapshotSession<'m> + 'm> {
        Box::new(StatelessSession {
            model: self.model,
            tokens: self.tokens.clone(),
        })
    }
}

/// Wrapper that forces the stateless default session on a model that
/// has a native one — the baseline side of cached-vs-stateless
/// comparisons (`session_reuse` bench, parity property tests).
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
/// rest is reused). Every query is one call of the packed kernel
/// ([`MlpLm::infer`]) on flat inputs: the current position is the
/// one-input case, and a candidate tree is one input per unique node,
/// each node's embedding derived from its parent's by a one-block
/// shift written straight into the plan buffer.
#[derive(Clone)]
pub struct MlpSession<'a> {
    model: &'a MlpLm,
    tokens: Vec<TokenId>,
    /// Embedding concat of the current window, shifted incrementally.
    x: Option<Vec<f32>>,
    /// Scratch for [`DecodeSession::verify_into`]; empty between calls,
    /// so forks copy nothing.
    plan: VerifyPlan,
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

    /// Plans the verification trie into `plan`: one input per unique
    /// scored prefix, root first, each child's embedding derived from
    /// its parent's (already in the buffer, since nodes are created
    /// parent-first).
    fn plan_tree(
        &mut self,
        paths: &[&[TokenId]],
        include_bonus: bool,
        nodes: &mut NodeMap,
        plan: &mut VerifyPlan,
    ) {
        let model = self.model;
        let root = plan.push_root(self.ensure_x());
        nodes.fill_trie(paths, include_bonus, root, |parent, tok| {
            plan.push_child(root + parent, model.embed_token(tok));
        });
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
        let mut out = LogitsArena::new();
        self.multi_logits_into(1, &mut out);
        out.into_vec()
    }

    fn multi_logits(&mut self) -> Vec<Vec<f32>> {
        let heads = self.model.n_heads() + 1;
        let mut out = LogitsArena::new();
        self.multi_logits_into(heads, &mut out);
        (0..heads).map(|i| out.row(i).to_vec()).collect()
    }

    fn verify_batch(&mut self, paths: &[&[TokenId]], include_bonus: bool) -> Vec<Vec<Vec<f32>>> {
        let mut nodes = NodeMap::new();
        let mut out = LogitsArena::new();
        let base = self.verify_into(paths, include_bonus, &mut nodes, &mut out);
        nodes.materialize(out.rows_from(base))
    }

    fn multi_logits_into(&mut self, heads: usize, out: &mut LogitsArena) -> usize {
        let model = self.model;
        model.infer(self.ensure_x(), Some(&[0, heads]), out)
    }

    fn verify_into(
        &mut self,
        paths: &[&[TokenId]],
        include_bonus: bool,
        nodes: &mut NodeMap,
        out: &mut LogitsArena,
    ) -> usize {
        let mut plan = std::mem::take(&mut self.plan);
        self.plan_tree(paths, include_bonus, nodes, &mut plan);
        let base = verify_many(self.model, &plan, out);
        plan.clear();
        self.plan = plan;
        base
    }

    fn verify_plan(
        &mut self,
        paths: &[&[TokenId]],
        include_bonus: bool,
        nodes: &mut NodeMap,
        plan: &mut VerifyPlan,
    ) -> bool {
        self.plan_tree(paths, include_bonus, nodes, plan);
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
        let model = tiny_mlp();
        let mut s = model.session();
        let prefix = [1u32, 2, 3, 4, 5];
        for i in 0..prefix.len() {
            s.append(&prefix[i..=i]);
            assert_eq!(s.logits(), model.logits(&prefix[..=i]), "position {i}");
            assert_eq!(s.multi_logits(), model.multi_logits(&prefix[..=i]));
        }
        assert_eq!(s.len(), 5);
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
            let refs: Vec<&[TokenId]> = tree.iter().map(Vec::as_slice).collect();
            let mut nodes = NodeMap::new();
            assert!(
                s.verify_plan(&refs, b, &mut nodes, &mut plan),
                "mlp sessions fuse"
            );
            let rows: usize = tree.iter().map(|p| p.len() + usize::from(b)).sum();
            let planned: usize = (0..nodes.n_paths()).map(|i| nodes.path_rows(i)).sum();
            assert_eq!(planned, rows, "plan row count");
            assert!(nodes.n_nodes() <= rows.max(1), "dedup only shrinks");
            maps.push(nodes);
        }
        assert_eq!(
            plan.n_nodes(),
            maps.iter().map(NodeMap::n_nodes).sum::<usize>()
        );
        // A few rows already in the arena: results are relative to the
        // base the execution returns, not to row 0.
        let mut arena = LogitsArena::new();
        arena.push_row(&[0.0; 12]);
        let base = verify_many(&model, &plan, &mut arena);
        assert_eq!(base, 1);
        for (i, ((ctx, tree), &b)) in contexts.iter().zip(&trees).zip(&bonus).enumerate() {
            let mut s = model.session();
            s.append(ctx);
            let refs: Vec<&[TokenId]> = tree.iter().map(Vec::as_slice).collect();
            let own = s.verify_batch(&refs, b);
            let fused = maps[i].materialize(arena.rows_from(base));
            assert_eq!(fused, own, "session {i} diverged under fusion");
        }
        let mut empty = LogitsArena::new();
        assert_eq!(verify_many(&model, &VerifyPlan::new(), &mut empty), 0);
        assert_eq!(empty.rows(), 0);
    }

    #[test]
    fn multi_logits_many_matches_per_session_calls() {
        let model = tiny_mlp();
        let contexts: [&[TokenId]; 3] = [&[1, 2, 3, 4, 5], &[2], &[7, 7]];
        // Each position asks for a different number of leading heads.
        let heads = [4usize, 1, 2];
        let mut xs = Vec::new();
        let mut row_start = vec![0usize];
        for (ctx, &h) in contexts.iter().zip(&heads) {
            let mut s = model.session();
            s.append(ctx);
            assert!(s.embed_plan(&mut xs), "mlp sessions expose x");
            row_start.push(row_start.last().expect("seeded") + h);
        }
        let mut arena = LogitsArena::new();
        let base = multi_logits_many(&model, &xs, &row_start, &mut arena);
        assert_eq!(arena.rows(), 7);
        for (i, (ctx, &h)) in contexts.iter().zip(&heads).enumerate() {
            let mut s = model.session();
            s.append(ctx);
            let own = s.multi_logits();
            for (j, want) in own.iter().take(h).enumerate() {
                assert_eq!(
                    arena.row(base + row_start[i] + j),
                    &want[..],
                    "position {i} head {j} diverged"
                );
            }
        }
        let mut empty = LogitsArena::new();
        multi_logits_many(&model, &[], &[0], &mut empty);
        assert_eq!(empty.rows(), 0);
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
            for heads in 1..=all.len() {
                arena.clear();
                let base = s.multi_logits_into(heads, &mut arena);
                assert_eq!(arena.rows(), heads);
                for (h, want) in all.iter().take(heads).enumerate() {
                    assert_eq!(arena.row(base + h), &want[..]);
                }
            }
            for bonus in [true, false] {
                let mut nodes = NodeMap::new();
                let base = s.verify_into(&refs, bonus, &mut nodes, &mut arena);
                assert_eq!(
                    nodes.materialize(arena.rows_from(base)),
                    s.verify_batch(&refs, bonus)
                );
            }
            assert_eq!(s.tokens(), &[5, 6, 7], "context unchanged");
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
    fn default_impl_cycle_panics_instead_of_overflowing() {
        // A broken implementor that overrides neither `session` nor
        // `logits`: the depth guard must turn the infinite recursion
        // into a catchable panic with a pointer to the fix.
        struct Neither;
        impl LanguageModel for Neither {
            fn vocab_size(&self) -> usize {
                4
            }
        }
        let err = std::panic::catch_unwind(|| Neither.logits(&[1]))
            .expect_err("must panic, not overflow");
        let msg = err
            .downcast_ref::<&'static str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("implement at least one"), "got: {msg}");
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
