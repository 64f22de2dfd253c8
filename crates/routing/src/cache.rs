//! Memoized route plans.
//!
//! Planning a batch of routes costs one randomized BFS tree per distinct
//! source. Saturation sweeps re-plan on the *same* machine with the *same*
//! plan seed at growing batch sizes, so most of those trees are recomputed
//! verbatim. [`PlanCache`] memoizes them.
//!
//! Correctness rests on the oracle's seeding discipline (see
//! [`crate::oracle::PathOracle`]): a BFS tree is a pure function of the key
//! `(graph fingerprint, node limit, source, plan seed)` — it does not depend
//! on which other sources were routed before, or on the composition of the
//! batch. A cache hit therefore returns bit-identical trees to a fresh
//! computation, which `tests/plan_cache.rs` proves property-style.
//!
//! Trees are stored compactly ([`RouteTree`]): on graphs where every node
//! has fewer than 255 distinct neighbours a tree is one byte per node — the
//! parent's slot in the node's own CSR row — instead of a four-byte parent
//! id. Memory is bounded by a byte budget (64 MiB by default, enough for
//! every tree of a default β estimate on mesh2(64)); trees that would
//! overflow it are handed back without being stored, and lookups keep
//! working.
//!
//! The cache is `Sync` (internally a mutexed map) so one cache can serve all
//! workers of an [`fcn_exec::Pool`] sweep.
//!
//! Counters are [`fcn_telemetry`] instruments owned per cache instance —
//! observability only, attaching or detaching a cache never changes a
//! routed bit. [`PlanCache::publish`] pushes them into the thread's metric
//! shard under the `plan_cache_*` names (surfaced by `fcnemu beta
//! --verbose` and `--metrics-out`).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use fcn_exec::lockdep::{lock_ranked, ranks, RankedGuard};
use fcn_multigraph::{Multigraph, NodeId};
use fcn_telemetry::Counter;

/// Key of one memoized BFS parent tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PlanKey {
    /// [`fcn_multigraph::Multigraph::fingerprint`] of the host graph.
    graph: u64,
    /// Effective node limit (`usize::MAX` when unrestricted).
    node_limit: usize,
    /// BFS source.
    source: NodeId,
    /// The per-source BFS seed (already mixed from the plan seed).
    bfs_seed: u64,
}

/// Slot value marking a node the BFS never reached.
const UNREACHED: u8 = u8::MAX;

/// One BFS parent tree rooted at a source, in one of two storage arms.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum RouteTree {
    /// `slots[v]` is the position of `v`'s parent in `v`'s own CSR row
    /// ([`Multigraph::neighbor_at`]), or [`UNREACHED`]. The root's slot
    /// holds [`UNREACHED`] too, but is never read.
    Slots(Box<[u8]>),
    /// Plain parent ids, `NodeId::MAX` where unreached — for graphs with a
    /// node of 255 or more distinct neighbours.
    Parents(Box<[NodeId]>),
}

impl RouteTree {
    /// True when every node of `g` has fewer than 255 distinct neighbours,
    /// so every slot fits the [`RouteTree::Slots`] arm below [`UNREACHED`].
    pub(crate) fn slots_fit(g: &Multigraph) -> bool {
        (0..g.node_count() as NodeId).all(|u| g.distinct_degree(u) < UNREACHED as usize)
    }

    /// Compact a BFS parent array rooted at `src` into slots. Requires
    /// [`RouteTree::slots_fit`] on `g`.
    pub(crate) fn slots(g: &Multigraph, src: NodeId, parents: &[NodeId]) -> RouteTree {
        let slot = |v: NodeId, p: NodeId| -> u8 {
            if p == NodeId::MAX || v == src {
                return UNREACHED;
            }
            let k = g.neighbors(v).position(|(w, _)| w == p);
            debug_assert!(k.is_some(), "BFS parent {p} of {v} is not a neighbour");
            k.map_or(UNREACHED, |k| k as u8)
        };
        RouteTree::Slots(
            parents
                .iter()
                .enumerate()
                .map(|(v, &p)| slot(v as NodeId, p))
                .collect(),
        )
    }

    /// Heap bytes the tree occupies — what the cache's budget counts.
    pub(crate) fn bytes(&self) -> usize {
        match self {
            RouteTree::Slots(s) => s.len(),
            RouteTree::Parents(p) => std::mem::size_of_val(&**p),
        }
    }

    /// The tree path `src -> dst` (both endpoints included), or `None` when
    /// `dst` is unreachable. `src` must be the tree's root.
    pub(crate) fn path(&self, g: &Multigraph, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let parent = |v: NodeId| match self {
            RouteTree::Slots(s) => match s[v as usize] {
                UNREACHED => None,
                k => Some(g.neighbor_at(v, k as usize)),
            },
            RouteTree::Parents(p) => Some(p[v as usize]).filter(|&u| u != NodeId::MAX),
        };
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = parent(cur)?;
            path.push(cur);
            debug_assert!(path.len() <= g.node_count(), "parent cycle");
        }
        path.reverse();
        Some(path)
    }
}

/// The guarded state: stored trees and the bytes they occupy.
#[derive(Debug, Default)]
struct Store {
    trees: BTreeMap<PlanKey, Arc<RouteTree>>,
    bytes: usize,
}

/// A memoizing store for BFS parent trees, shared across planning calls.
#[derive(Debug)]
pub struct PlanCache {
    store: Mutex<Store>,
    budget: usize,
    hits: Counter,
    misses: Counter,
    refused: Counter,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::with_budget(PlanCache::DEFAULT_BUDGET)
    }
}

impl PlanCache {
    /// Default byte budget: 64 MiB. A default β estimate (3 trials) on
    /// mesh2(64) needs 3 × 4096 one-byte-per-node trees, 48 MiB.
    const DEFAULT_BUDGET: usize = 64 << 20;

    /// A cache that stores trees while their total size stays within
    /// `budget` bytes.
    pub fn with_budget(budget: usize) -> Self {
        PlanCache {
            store: Mutex::new(Store::default()),
            budget,
            hits: Counter::new(),
            misses: Counter::new(),
            refused: Counter::new(),
        }
    }

    /// Lookups served from memory.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that computed a fresh tree.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Trees computed but not stored because they would have overflowed
    /// the byte budget (nothing is ever evicted).
    pub fn refused(&self) -> u64 {
        self.refused.get()
    }

    /// Trees currently stored.
    pub fn entries(&self) -> usize {
        self.lock_store().trees.len()
    }

    /// Bytes the stored trees occupy.
    pub fn bytes(&self) -> usize {
        self.lock_store().bytes
    }

    /// Lock the store, recovering from a poisoned mutex: the guarded state
    /// is never left half-edited (an insert and its byte count are updated
    /// together, without a panicking call between them), so a panic
    /// elsewhere cannot corrupt it.
    fn lock_store(&self) -> RankedGuard<'_, Store> {
        lock_ranked(&self.store, ranks::ROUTING_PLAN_CACHE)
    }

    /// Fraction of lookups served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Push this cache's counters into the thread's telemetry shard (no-op
    /// when the global registry is disabled). Call once per run, after the
    /// work that used the cache.
    pub fn publish(&self) {
        if !fcn_telemetry::global().enabled() {
            return;
        }
        let (entries, bytes) = {
            let store = self.lock_store();
            (store.trees.len() as u64, store.bytes as u64)
        };
        fcn_telemetry::with_shard(|s| {
            s.add(fcn_telemetry::names::PLAN_CACHE_HITS_TOTAL, self.hits());
            s.add(fcn_telemetry::names::PLAN_CACHE_MISSES_TOTAL, self.misses());
            s.add(
                fcn_telemetry::names::PLAN_CACHE_REFUSED_TOTAL,
                self.refused(),
            );
            s.set_gauge(fcn_telemetry::names::PLAN_CACHE_ENTRIES, entries);
            s.set_gauge(fcn_telemetry::names::PLAN_CACHE_BYTES, bytes);
        });
    }

    /// Serve the parent tree for `key`, computing it on a miss.
    ///
    /// The computation runs outside the lock, so a slow BFS never blocks
    /// other workers; the worst case is two workers computing the same tree
    /// concurrently, in which case the first insert wins (both results are
    /// identical by construction).
    pub(crate) fn get_or_compute(
        &self,
        graph: u64,
        node_limit: usize,
        source: NodeId,
        bfs_seed: u64,
        compute: impl FnOnce() -> RouteTree,
    ) -> Arc<RouteTree> {
        let key = PlanKey {
            graph,
            node_limit,
            source,
            bfs_seed,
        };
        if let Some(hit) = self.lock_store().trees.get(&key).cloned() {
            self.hits.inc();
            return hit;
        }
        self.misses.inc();
        let fresh = Arc::new(compute());
        let mut store = self.lock_store();
        if let Some(raced) = store.trees.get(&key) {
            return raced.clone();
        }
        let bytes = store.bytes + fresh.bytes();
        if bytes <= self.budget {
            store.trees.insert(key, fresh.clone());
            store.bytes = bytes;
        } else {
            self.refused.inc();
        }
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(parents: &[NodeId]) -> RouteTree {
        RouteTree::Parents(parents.into())
    }

    #[test]
    fn hits_after_first_compute() {
        let cache = PlanCache::default();
        let mut computes = 0;
        for _ in 0..3 {
            let got = cache.get_or_compute(1, usize::MAX, 0, 42, || {
                computes += 1;
                tree(&[0, 0, 1])
            });
            assert_eq!(*got, tree(&[0, 0, 1]));
        }
        assert_eq!(computes, 1);
        assert_eq!((cache.hits(), cache.misses(), cache.entries()), (2, 1, 1));
        assert!(cache.hit_rate() > 0.6);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = PlanCache::default();
        let a = cache.get_or_compute(1, usize::MAX, 0, 1, || tree(&[0]));
        let b = cache.get_or_compute(1, usize::MAX, 0, 2, || tree(&[1]));
        let c = cache.get_or_compute(2, usize::MAX, 0, 1, || tree(&[2]));
        let d = cache.get_or_compute(1, 16, 0, 1, || tree(&[3]));
        for (got, want) in [a, b, c, d].iter().zip(0..) {
            assert_eq!(**got, tree(&[want]));
        }
        assert_eq!(cache.entries(), 4);
    }

    #[test]
    fn byte_budget_bounds_storage_but_not_service() {
        // Two-node parent trees take 8 bytes each: a 20-byte budget holds
        // two of them and refuses the rest.
        let cache = PlanCache::with_budget(20);
        for src in 0..10u32 {
            let got = cache.get_or_compute(1, usize::MAX, src, 7, || tree(&[src, src]));
            assert_eq!(*got, tree(&[src, src]));
        }
        assert_eq!((cache.entries(), cache.bytes()), (2, 16));
        assert_eq!(cache.refused(), 8, "trees past the budget are refused");
        // Entries already stored keep hitting.
        let again = cache.get_or_compute(1, usize::MAX, 0, 7, || unreachable!());
        assert_eq!(*again, tree(&[0, 0]));
        // A smaller tree that still fits is stored.
        cache.get_or_compute(1, usize::MAX, 99, 7, || tree(&[1]));
        assert_eq!(
            (cache.entries(), cache.bytes(), cache.refused()),
            (3, 20, 8)
        );
    }

    #[test]
    fn slot_trees_decode_like_parent_trees() {
        // A 6-cycle plus a pendant node 6 hanging off 3, and an isolated 7.
        let mut edges: Vec<(NodeId, NodeId)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        edges.push((3, 6));
        let g = Multigraph::from_edges(8, edges);
        let parents = [0, 0, 1, 2, 5, 0, 3, NodeId::MAX];
        let wide = tree(&parents);
        let compact = RouteTree::slots(&g, 0, &parents);
        assert!(RouteTree::slots_fit(&g));
        assert_eq!((compact.bytes(), wide.bytes()), (8, 32));
        for dst in 0..8 {
            assert_eq!(compact.path(&g, 0, dst), wide.path(&g, 0, dst), "dst {dst}");
        }
        assert_eq!(compact.path(&g, 0, 6), Some(vec![0, 1, 2, 3, 6]));
        assert_eq!(compact.path(&g, 0, 0), Some(vec![0]));
        assert_eq!(compact.path(&g, 0, 7), None);
    }

    #[test]
    fn hubs_of_255_neighbours_do_not_fit_slots() {
        let star = |leaves: NodeId| {
            Multigraph::from_edges(leaves as usize + 1, (1..=leaves).map(|v| (0, v)))
        };
        assert!(RouteTree::slots_fit(&star(254)));
        assert!(!RouteTree::slots_fit(&star(255)));
    }
}
