//! # ugrapher-graph
//!
//! Graph storage and dataset substrate for the uGrapher reproduction.
//!
//! The paper's abstraction traverses graphs as `for dst in V: for edge in
//! dst.get_inedges(): ...` (paper §3.1, Fig. 4), so the central structure
//! here is a [`Graph`] that exposes both in-edge (CSC-like) and out-edge
//! (CSR-like) adjacency with stable edge identifiers.
//!
//! The crate also provides:
//!
//! * [`generate`] — synthetic graph generators that hit a target vertex
//!   count, edge count, degree skew (the paper's "std of nnz") and locality,
//! * [`datasets`] — a catalog reproducing the 15 datasets of paper Table 3
//!   (as synthetic stand-ins with matching statistics; see DESIGN.md §2),
//! * [`stats`] — degree statistics used both for reporting and as features
//!   of the schedule predictor (paper Table 7),
//! * [`reorder`] — locality-improving node renumbering (the paper's Fig. 19
//!   Rabbit-reorder study).
//!
//! # Example
//!
//! ```
//! use ugrapher_graph::{Coo, Graph};
//!
//! # fn main() -> Result<(), ugrapher_graph::GraphError> {
//! // A triangle: 0 -> 1 -> 2 -> 0.
//! let coo = Coo::new(3, vec![0, 1, 2], vec![1, 2, 0])?;
//! let g = Graph::from_coo(&coo);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.in_neighbors(2).collect::<Vec<_>>(), vec![(1, 1)]);
//! # Ok(())
//! # }
//! ```

mod coo;
pub mod datasets;
mod error;
pub mod generate;
mod graph;
pub mod io;
pub mod reorder;
pub mod sample;
pub mod stats;

pub use coo::Coo;
pub use error::GraphError;
pub use graph::{Admission, Graph};
pub use stats::DegreeStats;
