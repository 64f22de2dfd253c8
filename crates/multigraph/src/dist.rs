//! BFS distances, diameter, and average distance.
//!
//! The paper's minimal-computation-time parameter `Λ(G)` ("proportional to
//! diameter for most machines") and the `λ` column of Table 4 are distance
//! quantities; the distance lower bound on bandwidth (`β ≤ E(G)/avg-dist`)
//! also needs the mean pairwise distance. Everything here is unweighted BFS:
//! multiplicities affect capacity, not hop counts.

use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

use crate::graph::{Multigraph, NodeId};

/// Sentinel distance for unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// Single-source BFS distances (hops). Unreachable vertices get
/// [`UNREACHABLE`].
pub fn bfs_distances(g: &Multigraph, src: NodeId) -> Vec<u32> {
    let n = g.node_count();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = std::collections::VecDeque::with_capacity(n.min(1024));
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for (v, _) in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// BFS that also records one parent per vertex, for shortest-path extraction.
/// Ties are broken toward the neighbor discovered first (deterministic).
pub fn bfs_parents(g: &Multigraph, src: NodeId) -> (Vec<u32>, Vec<NodeId>) {
    let n = g.node_count();
    let mut dist = vec![UNREACHABLE; n];
    let mut parent = vec![NodeId::MAX; n];
    let mut queue = std::collections::VecDeque::with_capacity(n.min(1024));
    dist[src as usize] = 0;
    parent[src as usize] = src;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for (v, _) in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                parent[v as usize] = u;
                queue.push_back(v);
            }
        }
    }
    (dist, parent)
}

/// Extract the `src -> dst` shortest path from a parent array produced by
/// [`bfs_parents`] rooted at `src`. Returns the vertex sequence including
/// both endpoints, or `None` if `dst` is unreachable.
pub fn path_from_parents(parent: &[NodeId], src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
    if parent[dst as usize] == NodeId::MAX {
        return None;
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = parent[cur as usize];
        path.push(cur);
        debug_assert!(path.len() <= parent.len(), "parent cycle");
    }
    path.reverse();
    Some(path)
}

/// Exact hop distance of every `(s, t)` pair, in input order; pairs with no
/// connecting path get [`UNREACHABLE`].
///
/// Pairs are grouped by source and one epoch-stamped scratch serves the
/// whole call. A source with a single target meets it halfway: a
/// level-synchronous bidirectional BFS that grows the smaller frontier and
/// stops at the first node both searches have reached. A source with several
/// targets runs one forward BFS that stops once its last target is reached.
/// Neither visits the whole graph unless the pairs need it.
///
/// ```
/// use fcn_multigraph::{pair_distances, Multigraph, UNREACHABLE};
///
/// let g = Multigraph::from_edges(5, [(0, 1), (1, 2), (2, 3)]);
/// let d = pair_distances(&g, &[(0, 3), (2, 0), (2, 2), (0, 4)]);
/// assert_eq!(d, vec![3, 2, 0, UNREACHABLE]);
/// ```
pub fn pair_distances(g: &Multigraph, pairs: &[(NodeId, NodeId)]) -> Vec<u32> {
    let mut out = vec![UNREACHABLE; pairs.len()];
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.sort_unstable_by_key(|&i| pairs[i].0);
    let mut scratch = PairScratch::new(g.node_count());
    for group in order.chunk_by(|&a, &b| pairs[a].0 == pairs[b].0) {
        let src = pairs[group[0]].0;
        if let [i] = *group {
            out[i] = scratch.meet(g, src, pairs[i].1);
        } else {
            scratch.sweep(g, src, group.iter().map(|&i| pairs[i].1));
            for &i in group {
                out[i] = scratch.fwd.dist_to(pairs[i].1, scratch.epoch);
            }
        }
    }
    out
}

/// One direction of a search: a node is visited when its stamp equals the
/// current epoch, so starting a search costs nothing per node.
struct SearchSide {
    stamp: Vec<u32>,
    dist: Vec<u32>,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
}

impl SearchSide {
    fn new(n: usize) -> Self {
        SearchSide {
            stamp: vec![0; n],
            dist: vec![0; n],
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }

    fn start(&mut self, root: NodeId, epoch: u32) {
        self.stamp[root as usize] = epoch;
        self.dist[root as usize] = 0;
        self.frontier.clear();
        self.frontier.push(root);
    }

    fn dist_to(&self, v: NodeId, epoch: u32) -> u32 {
        if self.stamp[v as usize] == epoch {
            self.dist[v as usize]
        } else {
            UNREACHABLE
        }
    }

    /// Grow the frontier (all at distance `level`) by one level. Returns the
    /// meeting sum `level + 1 + other.dist[v]` at the first new node `v`
    /// that `other` has already visited, or `None` once the level is done.
    fn expand(
        &mut self,
        g: &Multigraph,
        other: &SearchSide,
        epoch: u32,
        level: u32,
    ) -> Option<u32> {
        self.next.clear();
        for &u in &self.frontier {
            for (v, _) in g.neighbors(u) {
                let v = v as usize;
                if self.stamp[v] != epoch {
                    if other.stamp[v] == epoch {
                        return Some(level + 1 + other.dist[v]);
                    }
                    self.stamp[v] = epoch;
                    self.dist[v] = level + 1;
                    self.next.push(v as NodeId);
                }
            }
        }
        std::mem::swap(&mut self.frontier, &mut self.next);
        None
    }
}

/// Reusable state for [`pair_distances`]: 16 bytes per node plus the
/// frontiers.
struct PairScratch {
    epoch: u32,
    fwd: SearchSide,
    bwd: SearchSide,
}

impl PairScratch {
    fn new(n: usize) -> Self {
        PairScratch {
            epoch: 0,
            fwd: SearchSide::new(n),
            bwd: SearchSide::new(n),
        }
    }

    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.fwd.stamp.fill(0);
            self.bwd.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Bidirectional BFS from `s` and `t`, always growing the smaller
    /// frontier by a whole level.
    ///
    /// Exact at the first meeting. While the visited sets are disjoint and
    /// complete to depths `df` and `db`, `d(s,t) > df + db`: otherwise a
    /// shortest path's node at depth `df` would lie in both. A level that
    /// reaches a node `v` of the other side closes a walk of length
    /// `df + 1 + d_other(v)` with `d_other(v) <= db`, so both bounds meet:
    /// `d(s,t) = df + db + 1`, and any meeting node gives it.
    fn meet(&mut self, g: &Multigraph, s: NodeId, t: NodeId) -> u32 {
        if s == t {
            return 0;
        }
        let epoch = self.next_epoch();
        self.fwd.start(s, epoch);
        self.bwd.start(t, epoch);
        let (mut df, mut db) = (0, 0);
        while !self.fwd.frontier.is_empty() && !self.bwd.frontier.is_empty() {
            let met = if self.fwd.frontier.len() <= self.bwd.frontier.len() {
                df += 1;
                self.fwd.expand(g, &self.bwd, epoch, df - 1)
            } else {
                db += 1;
                self.bwd.expand(g, &self.fwd, epoch, db - 1)
            };
            if let Some(d) = met {
                return d;
            }
        }
        UNREACHABLE
    }

    /// Forward BFS from `s` that stops once every target is visited; read
    /// the results with `self.fwd.dist_to(t, self.epoch)`. The backward
    /// stamps mark the targets for this epoch.
    fn sweep(&mut self, g: &Multigraph, s: NodeId, targets: impl Iterator<Item = NodeId>) {
        let epoch = self.next_epoch();
        let (fwd, marks) = (&mut self.fwd, &mut self.bwd.stamp);
        fwd.start(s, epoch);
        let mut remaining = 0usize;
        for t in targets {
            if marks[t as usize] != epoch {
                marks[t as usize] = epoch;
                remaining += usize::from(t != s);
            }
        }
        // The frontier doubles as a flat FIFO queue.
        let mut head = 0;
        while remaining > 0 && head < fwd.frontier.len() {
            let u = fwd.frontier[head];
            head += 1;
            let du = fwd.dist[u as usize] + 1;
            for (v, _) in g.neighbors(u) {
                let v = v as usize;
                if fwd.stamp[v] != epoch {
                    fwd.stamp[v] = epoch;
                    fwd.dist[v] = du;
                    fwd.frontier.push(v as NodeId);
                    if marks[v] == epoch {
                        remaining -= 1;
                    }
                }
            }
        }
    }
}

/// Exact diameter (max eccentricity). `O(n·E)`; use on small graphs or rely
/// on [`distance_stats`] with sampling for large ones.
///
/// # Panics
/// Panics if the graph is disconnected (diameter undefined).
pub fn diameter(g: &Multigraph) -> u32 {
    let mut best = 0;
    for u in 0..g.node_count() as NodeId {
        let d = bfs_distances(g, u);
        let ecc = d.iter().copied().max().unwrap_or(0);
        assert!(ecc != UNREACHABLE, "diameter of a disconnected graph");
        best = best.max(ecc);
    }
    best
}

/// Exact average pairwise distance over ordered pairs.
pub fn avg_distance_exact(g: &Multigraph) -> f64 {
    let n = g.node_count();
    assert!(n >= 2);
    let mut total = 0u64;
    for u in 0..n as NodeId {
        let d = bfs_distances(g, u);
        for (v, &dv) in d.iter().enumerate() {
            assert!(dv != UNREACHABLE, "avg distance of a disconnected graph");
            if v as NodeId != u {
                total += dv as u64;
            }
        }
    }
    total as f64 / (n as f64 * (n as f64 - 1.0))
}

/// Average distance estimated from `samples` random BFS sources.
pub fn avg_distance_sampled(g: &Multigraph, samples: usize, rng: &mut impl Rng) -> f64 {
    let n = g.node_count();
    assert!(n >= 2 && samples >= 1);
    let mut total = 0u64;
    let mut count = 0u64;
    for _ in 0..samples {
        let u = rng.random_range(0..n as NodeId);
        let d = bfs_distances(g, u);
        for (v, &dv) in d.iter().enumerate() {
            assert!(dv != UNREACHABLE, "sampled distance on disconnected graph");
            if v as NodeId != u {
                total += dv as u64;
                count += 1;
            }
        }
    }
    total as f64 / count as f64
}

/// Distance summary for a machine: the paper's `λ`-side quantities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistanceStats {
    /// Max observed eccentricity (== diameter when `exact`).
    pub diameter: u32,
    /// Mean pairwise distance over the probed sources.
    pub avg_distance: f64,
    /// Whether every vertex was used as a BFS source.
    pub exact: bool,
}

/// Compute [`DistanceStats`], exactly when `n <= exact_threshold`, otherwise
/// from `samples` random sources.
pub fn distance_stats(
    g: &Multigraph,
    exact_threshold: usize,
    samples: usize,
    rng: &mut impl Rng,
) -> DistanceStats {
    let n = g.node_count();
    if n <= exact_threshold {
        // One BFS per source yields both the eccentricity and the distance
        // total, so the exact path costs n sweeps, not 2n.
        assert!(n >= 2);
        let mut max_ecc = 0;
        let mut total = 0u64;
        for u in 0..n as NodeId {
            for dv in bfs_distances(g, u) {
                assert!(dv != UNREACHABLE, "distance stats on a disconnected graph");
                max_ecc = max_ecc.max(dv);
                total += dv as u64;
            }
        }
        return DistanceStats {
            diameter: max_ecc,
            avg_distance: total as f64 / (n as f64 * (n as f64 - 1.0)),
            exact: true,
        };
    }
    let mut max_ecc = 0;
    let mut total = 0u64;
    let mut count = 0u64;
    for _ in 0..samples.max(1) {
        let u = rng.random_range(0..n as NodeId);
        let d = bfs_distances(g, u);
        for (v, &dv) in d.iter().enumerate() {
            assert!(dv != UNREACHABLE, "distance stats on disconnected graph");
            if v as NodeId != u {
                total += dv as u64;
                count += 1;
                max_ecc = max_ecc.max(dv);
            }
        }
    }
    DistanceStats {
        diameter: max_ecc,
        avg_distance: total as f64 / count as f64,
        exact: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path_graph(n: usize) -> Multigraph {
        Multigraph::from_edges(n, (0..n as NodeId - 1).map(|i| (i, i + 1)))
    }

    fn cycle_graph(n: usize) -> Multigraph {
        Multigraph::from_edges(n, (0..n as NodeId).map(|i| (i, (i + 1) % n as NodeId)))
    }

    #[test]
    fn bfs_on_path() {
        let g = path_graph(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d = bfs_distances(&g, 2);
        assert_eq!(d, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_marks_unreachable() {
        let g = Multigraph::from_edges(4, [(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn parents_give_shortest_paths() {
        let g = cycle_graph(8);
        let (dist, parent) = bfs_parents(&g, 0);
        let p = path_from_parents(&parent, 0, 3).unwrap();
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&3));
        assert_eq!(p.len() as u32 - 1, dist[3]);
        // consecutive vertices adjacent
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn unreachable_path_is_none() {
        let g = Multigraph::from_edges(3, [(0, 1)]);
        let (_, parent) = bfs_parents(&g, 0);
        assert!(path_from_parents(&parent, 0, 2).is_none());
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(diameter(&path_graph(10)), 9);
        assert_eq!(diameter(&cycle_graph(10)), 5);
        assert_eq!(diameter(&cycle_graph(9)), 4);
    }

    #[test]
    fn avg_distance_of_path3() {
        // distances: (0,1)=1 (0,2)=2 (1,2)=1 → ordered mean = 8/6
        let g = path_graph(3);
        assert!((avg_distance_exact(&g) - 8.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_close_to_exact() {
        let g = cycle_graph(64);
        let exact = avg_distance_exact(&g);
        let mut rng = StdRng::seed_from_u64(5);
        let approx = avg_distance_sampled(&g, 16, &mut rng);
        assert!((approx - exact).abs() / exact < 0.05);
    }

    #[test]
    fn stats_exact_and_sampled_modes() {
        let g = cycle_graph(32);
        let mut rng = StdRng::seed_from_u64(2);
        let s1 = distance_stats(&g, 64, 4, &mut rng);
        assert!(s1.exact);
        assert_eq!(s1.diameter, 16);
        let s2 = distance_stats(&g, 8, 8, &mut rng);
        assert!(!s2.exact);
        assert!(s2.diameter >= 8); // sampled eccentricity lower-bounds diameter
        assert!((s2.avg_distance - s1.avg_distance).abs() / s1.avg_distance < 0.1);
    }

    #[test]
    fn exact_stats_equal_the_separate_functions() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = crate::MultigraphBuilder::new(12);
        for i in 0..11 {
            b.add_edge_mult(i, i + 1, 1 + i % 3);
        }
        b.add_edge(0, 7).add_edge(3, 3).add_edge(5, 11);
        for g in [path_graph(2), path_graph(9), cycle_graph(10), b.build()] {
            let stats = distance_stats(&g, g.node_count(), 1, &mut rng);
            let separate = DistanceStats {
                diameter: diameter(&g),
                avg_distance: avg_distance_exact(&g),
                exact: true,
            };
            assert_eq!(stats, separate);
            assert_eq!(
                stats.avg_distance.to_bits(),
                separate.avg_distance.to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn exact_stats_reject_disconnected() {
        let g = Multigraph::from_edges(4, [(0, 1), (2, 3)]);
        let _ = distance_stats(&g, 8, 1, &mut StdRng::seed_from_u64(0));
    }

    /// `bfs_distances(g, s)[t]` for every pair: the reference.
    fn full_bfs(g: &Multigraph, pairs: &[(NodeId, NodeId)]) -> Vec<u32> {
        pairs
            .iter()
            .map(|&(s, t)| bfs_distances(g, s)[t as usize])
            .collect()
    }

    #[test]
    fn pair_distances_edge_cases() {
        let g = cycle_graph(9);
        assert!(pair_distances(&g, &[]).is_empty());
        // A lone pair with s == t, then s == t inside a multi-target group.
        assert_eq!(pair_distances(&g, &[(4, 4)]), vec![0]);
        let pairs = [(2, 2), (2, 6), (2, 2)];
        assert_eq!(pair_distances(&g, &pairs), vec![0, 4, 0]);
        // Repeated pairs, and targets that are other groups' sources.
        let pairs = [(0, 3), (3, 0), (0, 3), (3, 8), (8, 0), (0, 8)];
        let d = pair_distances(&g, &pairs);
        assert_eq!(d, vec![3, 3, 3, 4, 1, 1]);
        assert_eq!(d, full_bfs(&g, &pairs));
    }

    #[test]
    fn pair_distances_mark_disconnected_pairs_in_both_arms() {
        // Components {0,1,2} and {3,4}; node 5 is isolated.
        let g = Multigraph::from_edges(6, [(0, 1), (1, 2), (3, 4)]);
        // Lone targets: the bidirectional search runs dry on either side.
        assert_eq!(pair_distances(&g, &[(0, 4)]), vec![UNREACHABLE]);
        assert_eq!(pair_distances(&g, &[(5, 0)]), vec![UNREACHABLE]);
        assert_eq!(pair_distances(&g, &[(3, 5)]), vec![UNREACHABLE]);
        // A shared source: the sweep exhausts its component.
        let pairs = [(0, 3), (0, 2), (0, 5), (4, 3), (4, 0)];
        let d = pair_distances(&g, &pairs);
        assert_eq!(d, vec![UNREACHABLE, 2, UNREACHABLE, 1, UNREACHABLE]);
        assert_eq!(d, full_bfs(&g, &pairs));
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn diameter_rejects_disconnected() {
        let g = Multigraph::from_edges(4, [(0, 1), (2, 3)]);
        let _ = diameter(&g);
    }
}
