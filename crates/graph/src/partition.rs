//! Graph partitioning: recursive bisection with Kernighan–Lin refinement.
//!
//! This module substitutes for the METIS library used by the paper's backend
//! (§3.4.1): the qubit-interaction graph is recursively bisected along cuts
//! with few crossing edges, and the recursion ordering yields a linear layout
//! that places frequently-interacting qubits close together.

use crate::graph::Graph;

/// Result of a single bisection: vertex sets `left` and `right` plus the total
/// weight of edges crossing the cut.
#[derive(Debug, Clone, PartialEq)]
pub struct Bisection {
    /// Vertices on the left side of the cut.
    pub left: Vec<usize>,
    /// Vertices on the right side of the cut.
    pub right: Vec<usize>,
    /// Total weight of cut edges.
    pub cut_weight: f64,
}

/// Computes the weight of edges crossing a given two-way partition.
pub fn cut_weight(g: &Graph, in_left: &[bool]) -> f64 {
    g.edges()
        .iter()
        .filter(|(a, b, _)| a != b && in_left[*a] != in_left[*b])
        .map(|(_, _, w)| *w)
        .sum()
}

/// Bisects the graph into two halves of (near) equal size, minimizing the cut
/// weight heuristically: BFS-grown initial halves followed by Kernighan–Lin
/// style refinement passes.
pub fn bisect(g: &Graph) -> Bisection {
    let n = g.len();
    if n == 0 {
        return Bisection {
            left: Vec::new(),
            right: Vec::new(),
            cut_weight: 0.0,
        };
    }
    let target_left = n / 2 + n % 2;

    // Initial split: grow a BFS region from the highest-weighted-degree vertex.
    let seed = (0..n)
        .max_by(|&a, &b| {
            g.weighted_degree(a)
                .partial_cmp(&g.weighted_degree(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .unwrap_or(0);
    let mut in_left = vec![false; n];
    let mut count_left = 0usize;
    let mut frontier = std::collections::VecDeque::new();
    let mut visited = vec![false; n];
    frontier.push_back(seed);
    visited[seed] = true;
    while count_left < target_left {
        let u = match frontier.pop_front() {
            Some(u) => u,
            None => {
                // Disconnected remainder: pick any unvisited vertex.
                match (0..n).find(|&v| !visited[v]) {
                    Some(v) => {
                        visited[v] = true;
                        v
                    }
                    None => break,
                }
            }
        };
        in_left[u] = true;
        count_left += 1;
        // Prefer neighbors with the strongest connection into the left side.
        let mut nbrs: Vec<usize> = g
            .neighbors(u)
            .iter()
            .map(|&(v, _)| v)
            .filter(|&v| !visited[v])
            .collect();
        nbrs.sort_by(|&a, &b| {
            let ga = gain_into_left(g, a, &in_left);
            let gb = gain_into_left(g, b, &in_left);
            gb.partial_cmp(&ga).unwrap_or(std::cmp::Ordering::Equal)
        });
        for v in nbrs {
            if !visited[v] {
                visited[v] = true;
                frontier.push_back(v);
            }
        }
    }

    // Kernighan–Lin refinement: repeatedly swap the pair of vertices (one per
    // side) with the best combined gain until no improving swap exists.
    kl_refine(g, &mut in_left);

    let left: Vec<usize> = (0..n).filter(|&v| in_left[v]).collect();
    let right: Vec<usize> = (0..n).filter(|&v| !in_left[v]).collect();
    let cw = cut_weight(g, &in_left);
    Bisection {
        left,
        right,
        cut_weight: cw,
    }
}

fn gain_into_left(g: &Graph, v: usize, in_left: &[bool]) -> f64 {
    g.neighbors(v)
        .iter()
        .map(|&(u, w)| if in_left[u] { w } else { 0.0 })
        .sum()
}

/// One pass of Kernighan–Lin style pairwise swaps; repeated until convergence
/// (bounded by the number of vertices to stay `O(n³)` in the worst case).
fn kl_refine(g: &Graph, in_left: &mut [bool]) {
    let n = g.len();
    for _ in 0..n {
        let mut best_gain = 1e-12;
        let mut best_pair = None;
        // External minus internal connection cost for each vertex.
        let d: Vec<f64> = (0..n)
            .map(|v| {
                let mut ext = 0.0;
                let mut int = 0.0;
                for &(u, w) in g.neighbors(v) {
                    if u == v {
                        continue;
                    }
                    if in_left[u] == in_left[v] {
                        int += w;
                    } else {
                        ext += w;
                    }
                }
                ext - int
            })
            .collect();
        for a in 0..n {
            if !in_left[a] {
                continue;
            }
            for b in 0..n {
                if in_left[b] {
                    continue;
                }
                let w_ab = g.edge_weight(a, b).unwrap_or(0.0);
                let gain = d[a] + d[b] - 2.0 * w_ab;
                if gain > best_gain {
                    best_gain = gain;
                    best_pair = Some((a, b));
                }
            }
        }
        match best_pair {
            Some((a, b)) => {
                in_left[a] = false;
                in_left[b] = true;
            }
            None => break,
        }
    }
}

/// Recursively bisects the graph and returns a linear ordering of the vertices
/// in which strongly-interacting vertices end up close together.
///
/// This is the ordering the qubit mapper uses to assign program qubits to a
/// line or to the row-major order of a grid.
pub fn recursive_bisection_order(g: &Graph) -> Vec<usize> {
    let n = g.len();
    if n == 0 {
        return Vec::new();
    }
    let vertices: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    recurse(g, &vertices, &mut order);
    order
}

fn recurse(original: &Graph, vertices: &[usize], order: &mut Vec<usize>) {
    if vertices.len() <= 2 {
        order.extend_from_slice(vertices);
        return;
    }
    let (sub, map) = original.induced_subgraph(vertices);
    let bis = bisect(&sub);
    let left: Vec<usize> = bis.left.iter().map(|&v| map[v]).collect();
    let right: Vec<usize> = bis.right.iter().map(|&v| map[v]).collect();
    if left.is_empty() || right.is_empty() {
        // Degenerate split (e.g. edgeless graph); keep input order.
        order.extend_from_slice(vertices);
        return;
    }
    recurse(original, &left, order);
    recurse(original, &right, order);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two 4-cliques joined by a single edge — the obvious cut is that edge.
    fn two_cliques() -> Graph {
        let mut g = Graph::new(8);
        for a in 0..4 {
            for b in (a + 1)..4 {
                g.add_edge(a, b, 1.0);
                g.add_edge(a + 4, b + 4, 1.0);
            }
        }
        g.add_edge(3, 4, 1.0);
        g
    }

    #[test]
    fn bisect_two_cliques_finds_bridge_cut() {
        let g = two_cliques();
        let bis = bisect(&g);
        assert_eq!(bis.left.len() + bis.right.len(), 8);
        assert_eq!(bis.left.len(), 4);
        assert!(
            (bis.cut_weight - 1.0).abs() < 1e-9,
            "cut = {}",
            bis.cut_weight
        );
        // Each clique ends up wholly on one side.
        let left_set: std::collections::HashSet<_> = bis.left.iter().copied().collect();
        assert!(left_set == [0, 1, 2, 3].into() || left_set == [4, 5, 6, 7].into());
    }

    #[test]
    fn bisection_balanced_on_path() {
        let mut g = Graph::new(10);
        for i in 0..9 {
            g.add_edge(i, i + 1, 1.0);
        }
        let bis = bisect(&g);
        assert_eq!(bis.left.len(), 5);
        assert_eq!(bis.right.len(), 5);
        assert!(bis.cut_weight <= 1.0 + 1e-9);
    }

    #[test]
    fn recursive_order_keeps_cliques_contiguous() {
        let g = two_cliques();
        let order = recursive_bisection_order(&g);
        assert_eq!(order.len(), 8);
        let pos: Vec<usize> = (0..8)
            .map(|v| order.iter().position(|&x| x == v).unwrap())
            .collect();
        // All of clique {0..3} should occupy positions {0..3} or {4..7}.
        let first_clique_max = pos[0..4].iter().max().unwrap();
        let first_clique_min = pos[0..4].iter().min().unwrap();
        assert_eq!(first_clique_max - first_clique_min, 3);
    }

    #[test]
    fn empty_and_single_vertex_graphs() {
        let g = Graph::new(0);
        assert!(recursive_bisection_order(&g).is_empty());
        let g1 = Graph::new(1);
        assert_eq!(recursive_bisection_order(&g1), vec![0]);
        let bis = bisect(&g1);
        assert_eq!(bis.left.len() + bis.right.len(), 1);
    }

    #[test]
    fn cut_weight_helper() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 2.0);
        g.add_edge(2, 3, 3.0);
        g.add_edge(1, 2, 5.0);
        let in_left = vec![true, true, false, false];
        assert!((cut_weight(&g, &in_left) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn edgeless_graph_partitions_without_panic() {
        let g = Graph::new(7);
        let order = recursive_bisection_order(&g);
        assert_eq!(order.len(), 7);
    }
}
