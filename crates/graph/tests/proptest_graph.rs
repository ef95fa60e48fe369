//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use qcc_graph::{generators, matching, partition, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    (2usize..24, 0u64..10_000).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::erdos_renyi(&mut rng, n, 0.3)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Greedy and improved matchings are always valid and maximal.
    #[test]
    fn matchings_are_valid_and_maximal(g in arbitrary_graph()) {
        let m1 = matching::greedy_maximal_matching(&g);
        prop_assert!(matching::is_maximal_matching(&g, &m1));
        let m2 = matching::improved_matching(&g);
        prop_assert!(matching::is_maximal_matching(&g, &m2));
        prop_assert!(m2.len() >= m1.len().saturating_sub(0) || m2.len() >= m1.len());
    }

    /// The bisection covers every vertex exactly once and is balanced.
    #[test]
    fn bisection_is_a_partition(g in arbitrary_graph()) {
        let bis = partition::bisect(&g);
        let mut all: Vec<usize> = bis.left.iter().chain(bis.right.iter()).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..g.len()).collect::<Vec<_>>());
        let diff = (bis.left.len() as isize - bis.right.len() as isize).abs();
        prop_assert!(diff <= 1);
    }

    /// The recursive bisection order is a permutation of the vertices.
    #[test]
    fn recursive_order_is_permutation(g in arbitrary_graph()) {
        let mut order = partition::recursive_bisection_order(&g);
        order.sort_unstable();
        prop_assert_eq!(order, (0..g.len()).collect::<Vec<_>>());
    }

    /// BFS distances satisfy the triangle property along shortest paths.
    #[test]
    fn shortest_paths_are_consistent(g in arbitrary_graph()) {
        let d = g.bfs_distances(0);
        for (v, &dist) in d.iter().enumerate() {
            if dist != usize::MAX {
                if let Some(path) = g.shortest_path(0, v) {
                    prop_assert_eq!(path.len(), dist + 1);
                    prop_assert_eq!(path[0], 0);
                    prop_assert_eq!(*path.last().unwrap(), v);
                    for pair in path.windows(2) {
                        prop_assert!(g.has_edge(pair[0], pair[1]));
                    }
                }
            }
        }
    }
}
