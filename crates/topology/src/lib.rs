//! # harp-topology
//!
//! WAN topology modelling for the HARP reproduction: directed capacitated
//! graphs, node/edge permutations (for invariance testing), failure
//! injection (full and partial link failures), structural analysis
//! (connectivity, degrees), and seeded synthetic WAN generators used to
//! stand in for Topology-Zoo graphs.
//!
//! Conventions:
//!
//! * Links are modelled as **pairs of directed edges**; capacities may be
//!   asymmetric (the paper's edge embedding makes `h_ij == h_ji` exactly
//!   when `C_ij == C_ji`, so direction matters).
//! * Node and edge ids are dense `usize` indices; relabeling produces a new
//!   [`Topology`] plus the mapping.
//! * Capacities are `f64` (the optimization side runs in double precision;
//!   the neural side converts to `f32` at instance compilation).

mod analysis;
mod error;
mod generate;
mod graph;
mod perturb;

pub use analysis::{degrees, node_features, total_node_capacity};
pub use error::TopologyError;
pub use generate::{geometric_wan, GeometricConfig};
pub use graph::{Edge, EdgeId, NodeId, Topology};
pub use perturb::{
    fail_link_partial, random_partial_failures, undirected_link_ids, PartialFailure,
};
