//! Property tests for the [`PlanCache`]: cache-served route planning must be
//! *indistinguishable* from fresh planning.
//!
//! The cache memoizes BFS parent trees keyed by (graph fingerprint, node
//! limit, source, per-source seed). Because each tree is a pure function of
//! that key, a cache hit must reproduce exactly the path a fresh computation
//! would have produced — across machines, strategies, seeds, and demand
//! batches, including cache reuse across *different* batches with the same
//! plan seed (the saturation-sweep pattern).

use fcn_routing::{plan_routes, plan_routes_cached, PlanCache, Strategy};
use fcn_topology::{Family, Machine};
use proptest::prelude::*;

/// A small machine drawn from four families with qualitatively different
/// route policies (BFS mesh/tree, arithmetic de Bruijn, level-walk X-tree).
fn machine_for(pick: usize, size: usize) -> Machine {
    let family = [
        Family::Mesh(2),
        Family::Tree,
        Family::DeBruijn,
        Family::XTree,
    ][pick % 4];
    family.build_near(size, 0x11)
}

/// Map raw endpoint draws onto the machine's processors.
fn demands_on(machine: &Machine, raw: &[(u64, u64)]) -> Vec<(u32, u32)> {
    let n = machine.processors() as u64;
    raw.iter()
        .map(|&(s, d)| ((s % n) as u32, (d % n) as u32))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_plans_match_fresh_plans(
        pick in 0usize..4,
        size in 16usize..96,
        seed in proptest::strategy::any::<u64>(),
        raw in proptest::collection::vec(
            (proptest::strategy::any::<u64>(), proptest::strategy::any::<u64>()),
            1..40,
        ),
    ) {
        let machine = machine_for(pick, size);
        let demands = demands_on(&machine, &raw);
        for strategy in [Strategy::ShortestPath, Strategy::Valiant] {
            let fresh = plan_routes(&machine, &demands, strategy, seed);
            let cache = PlanCache::default();
            // Twice through the same cache: the first run populates it, the
            // second is served almost entirely from memory.
            let cold = plan_routes_cached(&machine, &demands, strategy, seed, Some(&cache));
            let warm = plan_routes_cached(&machine, &demands, strategy, seed, Some(&cache));
            prop_assert_eq!(&fresh, &cold);
            prop_assert_eq!(&fresh, &warm);
        }
    }

    #[test]
    fn cache_is_reusable_across_batches(
        pick in 0usize..4,
        size in 16usize..64,
        seed in proptest::strategy::any::<u64>(),
        raw_a in proptest::collection::vec(
            (proptest::strategy::any::<u64>(), proptest::strategy::any::<u64>()),
            1..24,
        ),
        raw_b in proptest::collection::vec(
            (proptest::strategy::any::<u64>(), proptest::strategy::any::<u64>()),
            1..24,
        ),
    ) {
        // The estimator's pattern: growing batches of one trial share a plan
        // seed and a cache. Serving batch B from a cache warmed by batch A
        // must equal planning B fresh.
        let machine = machine_for(pick, size);
        let a = demands_on(&machine, &raw_a);
        let b = demands_on(&machine, &raw_b);
        let cache = PlanCache::default();
        let _warmup = plan_routes_cached(
            &machine, &a, Strategy::ShortestPath, seed, Some(&cache),
        );
        let served = plan_routes_cached(
            &machine, &b, Strategy::ShortestPath, seed, Some(&cache),
        );
        let fresh = plan_routes(&machine, &b, Strategy::ShortestPath, seed);
        prop_assert_eq!(&served, &fresh);
    }

    #[test]
    fn budget_capped_cache_still_plans_correctly(
        size in 24usize..64,
        budget in 0usize..400,
        seed in proptest::strategy::any::<u64>(),
        raw in proptest::collection::vec(
            (proptest::strategy::any::<u64>(), proptest::strategy::any::<u64>()),
            8..32,
        ),
    ) {
        // A byte budget smaller than the working set (a few trees of one
        // byte per node, or none) forces refusals; correctness must not
        // depend on what the cache managed to keep.
        let machine = Machine::mesh(2, (size as f64).sqrt() as usize + 2);
        let demands = demands_on(&machine, &raw);
        let cache = PlanCache::with_budget(budget);
        let cold = plan_routes_cached(
            &machine, &demands, Strategy::ShortestPath, seed, Some(&cache),
        );
        let warm = plan_routes_cached(
            &machine, &demands, Strategy::ShortestPath, seed, Some(&cache),
        );
        let fresh = plan_routes(&machine, &demands, Strategy::ShortestPath, seed);
        prop_assert_eq!(&cold, &fresh);
        prop_assert_eq!(&warm, &fresh);
        prop_assert!(cache.bytes() <= budget);
        prop_assert_eq!(cache.bytes(), cache.entries() * machine.graph().node_count());
    }
}

#[test]
fn cache_reports_hits_after_warmup() {
    let machine = Machine::mesh(2, 8);
    let demands: Vec<(u32, u32)> = (0..16u32).map(|i| (i, (i + 7) % 64)).collect();
    let cache = PlanCache::default();
    let _ = plan_routes_cached(&machine, &demands, Strategy::ShortestPath, 5, Some(&cache));
    let cold_hits = cache.hits();
    let _ = plan_routes_cached(&machine, &demands, Strategy::ShortestPath, 5, Some(&cache));
    assert!(
        cache.hits() > cold_hits,
        "second batch should hit: {} -> {}",
        cold_hits,
        cache.hits()
    );
    assert!(cache.entries() > 0);
}

#[test]
fn wide_trees_on_a_hub_of_255_plus_neighbours_match_fresh_plans() {
    // The bus hub touches every processor, too many for one-byte slots, so
    // the cache stores plain four-byte parents.
    let machine = Machine::global_bus(300);
    let nodes = machine.graph().node_count();
    let demands: Vec<(u32, u32)> = (0..600u32).map(|i| (i % 300, (i * 7 + 3) % 300)).collect();
    for strategy in [Strategy::ShortestPath, Strategy::Valiant] {
        let cache = PlanCache::default();
        let fresh = plan_routes(&machine, &demands, strategy, 9);
        let cold = plan_routes_cached(&machine, &demands, strategy, 9, Some(&cache));
        let warm = plan_routes_cached(&machine, &demands, strategy, 9, Some(&cache));
        assert_eq!(fresh, cold, "{strategy:?}");
        assert_eq!(fresh, warm, "{strategy:?}");
        assert!(cache.hits() > 0);
        assert_eq!(cache.bytes(), cache.entries() * 4 * nodes, "{strategy:?}");
    }
}
