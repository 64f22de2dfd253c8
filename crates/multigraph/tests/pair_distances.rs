//! `pair_distances` is exact: it equals `bfs_distances(g, s)[t]` for every
//! pair, on every registry family and on arbitrary multigraphs with
//! self-loops and parallel edges, through both its single-target
//! (bidirectional) and multi-target (stopped sweep) arms.

use fcn_multigraph::{bfs_distances, pair_distances, Multigraph, MultigraphBuilder, NodeId};
use fcn_topology::Family;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn full_bfs(g: &Multigraph, pairs: &[(NodeId, NodeId)]) -> Vec<u32> {
    pairs
        .iter()
        .map(|&(s, t)| bfs_distances(g, s)[t as usize])
        .collect()
}

#[test]
fn pair_distances_match_full_bfs_on_every_registry_family() {
    for family in Family::all_with_dims(&[1, 2, 3]) {
        for size in [24, 100, 300] {
            let machine = family.build_near(size, 0x5eed);
            let g = machine.graph();
            let n = g.node_count() as NodeId;
            let mut rng = StdRng::seed_from_u64(size as u64);
            // Mostly distinct sources (the bidirectional arm), plus three
            // sources with eight targets each (the stopped sweep), over
            // every node, auxiliary ones included.
            let mut pairs: Vec<(NodeId, NodeId)> = (0..64)
                .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
                .collect();
            for _ in 0..3 {
                let s = rng.random_range(0..n);
                pairs.extend((0..8).map(|_| (s, rng.random_range(0..n))));
            }
            assert_eq!(
                pair_distances(g, &pairs),
                full_bfs(g, &pairs),
                "{}",
                machine.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pair_distances_match_full_bfs_on_random_multigraphs(
        n in 1usize..40,
        edges in proptest::collection::vec(
            (
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
                1u32..4,
            ),
            0..80,
        ),
        raw in proptest::collection::vec(
            (proptest::strategy::any::<u64>(), proptest::strategy::any::<u64>()),
            0..40,
        ),
    ) {
        // Endpoints modulo n: self-loops and repeated (parallel) edges
        // arise naturally, and sparse draws leave components apart.
        let mut b = MultigraphBuilder::new(n);
        for &(u, v, m) in &edges {
            b.add_edge_mult((u % n as u64) as NodeId, (v % n as u64) as NodeId, m);
        }
        let g = b.build();
        let pairs: Vec<(NodeId, NodeId)> = raw
            .iter()
            .map(|&(s, t)| ((s % n as u64) as NodeId, (t % n as u64) as NodeId))
            .collect();
        prop_assert_eq!(pair_distances(&g, &pairs), full_bfs(&g, &pairs));
    }
}
