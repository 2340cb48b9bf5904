//! The radix-tree prefix cache: copy-on-write session snapshots over
//! arbitrary token prefixes.
//!
//! vLLM-style automatic prefix caching rebuilt on this repo's
//! exact-replay semantics. The trie maps token prefixes to frozen
//! [`SnapshotSession`] snapshots; admission walks it to the **deepest
//! match**, forks a full-lifetime session from that node
//! ([`SnapshotSession::fork_snapshot`]), and appends only the unmatched
//! suffix — O(prompt) ingestion becomes O(suffix) on a hit:
//!
//! ```text
//!            (root)
//!              │ [5,6]              ── shared stem, snapshot ▣
//!            ▣ stem
//!        ┌─────┴──────┐
//!        │ [7,9]      │ [8]        ── per-prompt suffixes
//!      ▣ leaf       ▣ leaf           (leaves always hold snapshots)
//! ```
//!
//! * **Insert-on-miss** populates the trie: edges split on divergence
//!   (the split point is exactly a shared stem, so it gets its own
//!   snapshot — a full-prompt leaf alone would only ever match
//!   identical or extending prompts).
//! * **Copy-on-write**: forking clones the snapshot's cached state;
//!   parent and child diverge independently, so a cached stem serves
//!   any number of concurrent generations.
//! * **Eviction is exact-replay** (the PR-3 semantics): the LRU
//!   snapshot-holding *leaf* is dropped whole; a later miss rebuilds
//!   from the full prompt, and because sessions are pure functions of
//!   their token context the rebuilt outputs are bit-identical.
//!   Interior stems are naturally protected until their subtree
//!   evicts away. Recency stamps come from a monotonic counter, never
//!   wall clock, so eviction order — and therefore every golden and
//!   paced-vs-batch comparison — is deterministic.
//!
//! Residency ([`PrefixCache::resident`]) is charged against
//! [`crate::ServeConfig::session_cap`] alongside live sessions by the
//! owning [`crate::ServeEngine`]; the fleet layer probes
//! [`PrefixCache::match_depth`] per worker to route prefix-affine
//! requests to the worker already holding the stem
//! ([`crate::RoutePolicy::PrefixAffine`]).

use verispec_lm::{SnapshotSession, TokenId};

/// One radix-trie node: an edge label from its parent plus an optional
/// frozen session snapshot for the full root-to-here prefix.
struct Node<'m> {
    /// Edge tokens from the parent (empty only at the root).
    label: Vec<TokenId>,
    /// Parent node index (`usize::MAX` at the root).
    parent: usize,
    /// Child node indices (labels start with pairwise-distinct tokens).
    children: Vec<usize>,
    /// Frozen session whose context is the root-to-here prefix; `None`
    /// for the root and for interior branch points whose snapshot was
    /// never taken (or has no reason to exist).
    session: Option<Box<dyn SnapshotSession<'m> + 'm>>,
    /// Total prefix length in tokens (root = 0).
    depth: usize,
    /// Recency stamp from the cache's monotonic counter.
    last_used: u64,
}

/// The copy-on-write radix-tree prefix cache; see the module docs.
///
/// Nodes live in an arena with a free list, so node ids — and with
/// them every walk and eviction decision — are deterministic across
/// identical operation sequences.
pub struct PrefixCache<'m> {
    nodes: Vec<Node<'m>>,
    /// Recycled arena slots (popped LIFO — deterministic).
    free: Vec<usize>,
    /// Monotonic recency counter (never wall clock: eviction order must
    /// be a pure function of the operation sequence).
    clock: u64,
    /// Nodes currently holding a session snapshot.
    resident: usize,
}

const ROOT: usize = 0;

impl<'m> PrefixCache<'m> {
    /// An empty cache.
    pub fn new() -> Self {
        PrefixCache {
            nodes: vec![Node {
                label: Vec::new(),
                parent: usize::MAX,
                children: Vec::new(),
                session: None,
                depth: 0,
                last_used: 0,
            }],
            free: Vec::new(),
            clock: 0,
            resident: 0,
        }
    }

    /// Snapshot-holding nodes resident right now — the memory the
    /// session cap charges.
    pub fn resident(&self) -> usize {
        self.resident
    }

    fn touch(&mut self, id: usize) {
        self.clock += 1;
        self.nodes[id].last_used = self.clock;
    }

    fn alloc(&mut self, node: Node<'m>) -> usize {
        match self.free.pop() {
            Some(id) => {
                self.nodes[id] = node;
                id
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    /// Walks `prompt` down the trie: returns the deepest
    /// snapshot-holding node whose prefix is a prefix of `prompt`
    /// (excluding the trivial root), with its depth.
    fn best_match(&self, prompt: &[TokenId]) -> Option<(usize, usize)> {
        let mut node = ROOT;
        let mut pos = 0usize;
        let mut best: Option<(usize, usize)> = None;
        loop {
            if node != ROOT && self.nodes[node].session.is_some() {
                best = Some((node, pos));
            }
            let Some(&child) = self.nodes[node]
                .children
                .iter()
                .find(|&&c| self.nodes[c].label.first() == prompt.get(pos))
            else {
                return best;
            };
            let label = &self.nodes[child].label;
            if prompt.len() - pos < label.len() || !prompt[pos..].starts_with(label) {
                return best;
            }
            pos += label.len();
            node = child;
        }
    }

    /// Deepest cached-prefix length for `prompt`, in tokens — the
    /// read-only routing probe (no recency bump, no fork).
    pub fn match_depth(&self, prompt: &[TokenId]) -> usize {
        self.best_match(prompt).map_or(0, |(_, depth)| depth)
    }

    /// Cache lookup: forks a full-lifetime session from the deepest
    /// matching snapshot and bumps its recency. Returns the fork and
    /// the number of prompt tokens it already holds; `None` on miss.
    pub fn lookup(
        &mut self,
        prompt: &[TokenId],
    ) -> Option<(Box<dyn SnapshotSession<'m> + 'm>, usize)> {
        let (node, depth) = self.best_match(prompt)?;
        self.touch(node);
        let fork = self.nodes[node]
            .session
            .as_ref()
            .expect("best_match only returns snapshot-holding nodes")
            .fork_snapshot();
        Some((fork, depth))
    }

    /// Inserts `prompt` into the trie, splitting edges on divergence.
    /// `snap(depth)` must produce a frozen session over
    /// `prompt[..depth]`; it is called for the full-prompt node and for
    /// any divergence/split point that lacks a snapshot (the shared
    /// stem a future prompt will actually hit).
    pub fn insert(
        &mut self,
        prompt: &[TokenId],
        snap: &mut dyn FnMut(usize) -> Box<dyn SnapshotSession<'m> + 'm>,
    ) {
        if prompt.is_empty() {
            return;
        }
        let mut node = ROOT;
        let mut pos = 0usize;
        loop {
            if pos == prompt.len() {
                // The prompt ends exactly at an existing node: ensure it
                // holds a snapshot (it may have been created as a bare
                // branch point or lost its session to eviction — no:
                // eviction drops whole nodes, but branch points start
                // bare).
                self.ensure_session(node, pos, snap);
                self.touch(node);
                return;
            }
            let next = self.nodes[node]
                .children
                .iter()
                .copied()
                .find(|&c| self.nodes[c].label.first() == Some(&prompt[pos]));
            let Some(child) = next else {
                // Divergence at an existing node: `node` is the shared
                // stem of this prompt and whatever already branches
                // here, so make sure the stem itself is hittable, then
                // grow the new leaf.
                if node != ROOT {
                    self.ensure_session(node, pos, snap);
                }
                self.add_leaf(node, prompt[pos..].to_vec(), prompt.len(), snap);
                return;
            };
            let common = self.nodes[child]
                .label
                .iter()
                .zip(&prompt[pos..])
                .take_while(|(a, b)| a == b)
                .count();
            if common == self.nodes[child].label.len() {
                node = child;
                pos += common;
                continue;
            }
            // Divergence mid-edge: split the edge at `common`. The new
            // intermediate node is the shared stem — snapshot it so the
            // stem is hittable by the *next* prompt that shares it.
            let mid = self.split_edge(node, child, common);
            self.ensure_session(mid, pos + common, snap);
            self.touch(mid);
            if pos + common < prompt.len() {
                self.add_leaf(mid, prompt[pos + common..].to_vec(), prompt.len(), snap);
            }
            return;
        }
    }

    fn ensure_session(
        &mut self,
        node: usize,
        depth: usize,
        snap: &mut dyn FnMut(usize) -> Box<dyn SnapshotSession<'m> + 'm>,
    ) {
        debug_assert_eq!(self.nodes[node].depth, depth, "trie depth out of sync");
        if node != ROOT && self.nodes[node].session.is_none() {
            self.nodes[node].session = Some(snap(depth));
            self.resident += 1;
        }
    }

    fn add_leaf(
        &mut self,
        parent: usize,
        label: Vec<TokenId>,
        depth: usize,
        snap: &mut dyn FnMut(usize) -> Box<dyn SnapshotSession<'m> + 'm>,
    ) {
        debug_assert!(!label.is_empty(), "leaf edges are never empty");
        self.clock += 1;
        let leaf = self.alloc(Node {
            label,
            parent,
            children: Vec::new(),
            session: Some(snap(depth)),
            depth,
            last_used: self.clock,
        });
        self.resident += 1;
        self.nodes[parent].children.push(leaf);
    }

    /// Splits `child`'s edge after `common` tokens: inserts an
    /// intermediate node between `parent` and `child` carrying the
    /// shared head of the label; `child` keeps the tail. Returns the
    /// intermediate node.
    fn split_edge(&mut self, parent: usize, child: usize, common: usize) -> usize {
        debug_assert!(common > 0 && common < self.nodes[child].label.len());
        let head = self.nodes[child].label[..common].to_vec();
        let tail = self.nodes[child].label[common..].to_vec();
        let depth = self.nodes[child].depth - tail.len();
        self.clock += 1;
        let mid = self.alloc(Node {
            label: head,
            parent,
            children: vec![child],
            session: None,
            depth,
            last_used: self.clock,
        });
        self.nodes[child].label = tail;
        self.nodes[child].parent = mid;
        let slot = self.nodes[parent]
            .children
            .iter()
            .position(|&c| c == child)
            .expect("child is linked under parent");
        self.nodes[parent].children[slot] = mid;
        mid
    }

    /// Evicts the least-recently-used snapshot-holding **leaf** (ties
    /// by node id, so eviction is deterministic), dropping the node and
    /// any snapshot-less ancestors that become childless. Returns
    /// `false` when nothing is evictable (the cache is empty).
    ///
    /// This is the exact-replay eviction path: a later miss on the
    /// evicted prefix rebuilds the session from the full prompt, and
    /// sessions are pure functions of their token context, so outputs
    /// are bit-identical either way.
    pub fn evict_lru(&mut self) -> bool {
        let victim = self
            .nodes
            .iter()
            .enumerate()
            // Freed arena slots hold no session, so they never match.
            .filter(|(id, n)| *id != ROOT && n.session.is_some() && n.children.is_empty())
            .min_by_key(|(id, n)| (n.last_used, *id))
            .map(|(id, _)| id);
        let Some(mut id) = victim else {
            return false;
        };
        loop {
            let parent = self.nodes[id].parent;
            if self.nodes[id].session.take().is_some() {
                self.resident -= 1;
            }
            self.nodes[id].label = Vec::new();
            self.nodes[id].children = Vec::new();
            self.free.push(id);
            let slot = self.nodes[parent]
                .children
                .iter()
                .position(|&c| c == id)
                .expect("evicted node is linked under its parent");
            self.nodes[parent].children.swap_remove(slot);
            // Climb: a snapshot-less interior node with no children
            // left serves nothing — drop it too. A snapshot-holding
            // stem that just became a leaf stays (now itself LRU-
            // evictable).
            if parent == ROOT
                || self.nodes[parent].session.is_some()
                || !self.nodes[parent].children.is_empty()
            {
                return true;
            }
            id = parent;
        }
    }
}

impl Default for PrefixCache<'_> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verispec_lm::{LanguageModel, MlpLm, MlpLmConfig};

    fn model() -> MlpLm {
        MlpLm::new(MlpLmConfig::tiny(12))
    }

    /// Inserts `prompt` the way admission does: ingest fully, then
    /// snapshot the requested prefixes by fork + truncate.
    fn insert_prompt<'m>(cache: &mut PrefixCache<'m>, model: &'m MlpLm, prompt: &[TokenId]) {
        let mut work = model.snapshot_session().expect("mlp snapshots");
        work.append(prompt);
        cache.insert(prompt, &mut |depth| {
            let mut s = work.fork_snapshot();
            s.truncate(depth);
            s
        });
    }

    #[test]
    fn split_on_divergence_creates_a_hittable_stem() {
        let m = model();
        let mut cache = PrefixCache::new();
        assert_eq!(cache.match_depth(&[1, 2, 3]), 0);
        insert_prompt(&mut cache, &m, &[1, 2, 3, 4]);
        // A second prompt diverging after [1,2] splits the edge; the
        // split point [1,2] becomes a snapshot-holding stem.
        insert_prompt(&mut cache, &m, &[1, 2, 7, 8]);
        assert_eq!(cache.match_depth(&[1, 2, 9]), 2, "stem hit at the split");
        assert_eq!(cache.match_depth(&[1, 2, 3, 4, 5]), 4, "deepest wins");
        assert_eq!(cache.match_depth(&[1, 2, 7, 8]), 4);
        assert_eq!(cache.match_depth(&[2, 2]), 0, "no shared stem, no match");
        // Divergence at an existing node (not mid-edge) also grows a
        // leaf under the stem.
        insert_prompt(&mut cache, &m, &[1, 2, 5]);
        assert_eq!(cache.match_depth(&[1, 2, 5, 6]), 3);
        // Lookup forks a session holding exactly the matched prefix.
        let (fork, depth) = cache.lookup(&[1, 2, 9, 9]).expect("stem hit");
        assert_eq!(depth, 2);
        assert_eq!(fork.tokens(), &[1, 2]);
    }

    #[test]
    fn forks_are_copy_on_write_isolated() {
        let m = model();
        let mut cache = PrefixCache::new();
        insert_prompt(&mut cache, &m, &[3, 4, 5]);
        let (mut a, _) = cache.lookup(&[3, 4, 5, 6]).expect("hit");
        let (mut b, _) = cache.lookup(&[3, 4, 5, 7]).expect("hit");
        a.append(&[6]);
        b.append(&[7, 8]);
        assert_eq!(a.logits(), m.logits(&[3, 4, 5, 6]));
        assert_eq!(b.logits(), m.logits(&[3, 4, 5, 7, 8]));
        // The cached snapshot itself is untouched by either fork.
        let (c, depth) = cache.lookup(&[3, 4, 5, 9]).expect("hit");
        assert_eq!(depth, 3);
        assert_eq!(c.tokens(), &[3, 4, 5]);
    }

    #[test]
    fn lru_leaf_eviction_protects_stems_until_childless() {
        let m = model();
        let mut cache = PrefixCache::new();
        insert_prompt(&mut cache, &m, &[1, 2, 3]);
        insert_prompt(&mut cache, &m, &[1, 2, 4]);
        // Stem [1,2] + leaves [1,2,3], [1,2,4].
        assert_eq!(cache.resident(), 3);
        // Touch leaf [1,2,3] so leaf [1,2,4] is LRU.
        cache.lookup(&[1, 2, 3]).expect("hit");
        assert!(cache.evict_lru());
        assert_eq!(cache.resident(), 2);
        assert_eq!(cache.match_depth(&[1, 2, 4]), 2, "evicted leaf, stem stays");
        assert_eq!(cache.match_depth(&[1, 2, 3]), 3, "hot leaf survives");
        // Next eviction takes the remaining leaf; the stem — now
        // childless — only goes after it.
        assert!(cache.evict_lru());
        assert_eq!(cache.match_depth(&[1, 2, 3]), 2, "stem is now the deepest");
        assert!(cache.evict_lru());
        assert_eq!(cache.resident(), 0);
        assert!(!cache.evict_lru(), "empty cache has nothing to evict");
        assert_eq!(cache.match_depth(&[1, 2, 3]), 0);
        // A later miss rebuilds from the full prompt — bit-identically,
        // because sessions are pure functions of their context.
        insert_prompt(&mut cache, &m, &[1, 2, 3]);
        let (mut s, depth) = cache.lookup(&[1, 2, 3]).expect("rebuilt");
        assert_eq!(depth, 3);
        assert_eq!(s.logits(), m.logits(&[1, 2, 3]));
    }

    #[test]
    fn arena_recycles_slots_deterministically() {
        let m = model();
        let mut cache = PrefixCache::new();
        for round in 0..3 {
            insert_prompt(&mut cache, &m, &[5, 6, 7]);
            insert_prompt(&mut cache, &m, &[5, 6, 8]);
            assert_eq!(cache.resident(), 3, "round {round}");
            while cache.evict_lru() {}
            assert_eq!(cache.resident(), 0, "round {round}");
        }
        // The arena never grew past one round's worth of nodes.
        assert!(
            cache.nodes.len() <= 5,
            "arena leaked: {}",
            cache.nodes.len()
        );
    }
}
