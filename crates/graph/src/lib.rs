//! # qcc-graph
//!
//! Graph algorithms backing the aggregated-instruction quantum compiler:
//!
//! * [`graph::Graph`] — a small undirected weighted graph with BFS utilities,
//!   used for qubit-interaction graphs, scheduling conflict graphs and device
//!   topologies.
//! * [`matching`] — maximal matchings for the commutativity-aware logical
//!   scheduler (Fig. 7 / Algorithm 1 of the paper).
//! * [`partition`] — recursive bisection with Kernighan–Lin refinement, the
//!   in-tree substitute for the METIS partitioner the paper uses for qubit
//!   placement (§3.4.1).
//! * [`generators`] — problem-instance graphs for the benchmark suite
//!   (line, grid, random 4-regular, cluster graphs).
//!
//! ## Example
//!
//! ```
//! use qcc_graph::{generators, partition};
//! let g = generators::grid_graph(3, 3);
//! let order = partition::recursive_bisection_order(&g);
//! assert_eq!(order.len(), 9);
//! ```

#![warn(missing_docs)]

pub mod generators;
pub mod graph;
pub mod matching;
pub mod partition;

pub use graph::Graph;
pub use matching::{greedy_maximal_matching, improved_matching, is_maximal_matching, Matching};
pub use partition::{bisect, recursive_bisection_order, Bisection};
