//! # harp-paths
//!
//! Tunnel machinery for the HARP reproduction: Yen's k-shortest simple
//! paths over a hop-count breadth-first search (one reused scratch per
//! [`TunnelSet::k_shortest`] call, lowest predecessor node id among
//! equal-length ways), and [`TunnelSet`] — the per-flow tunnel lists that
//! TE schemes split traffic over. Includes the deterministic
//! tunnel-reordering used by the paper's invariance experiments (Fig 7).

mod bfs;
mod tunnels;
mod yen;

pub use tunnels::{tunnel_churn, FlowId, TunnelId, TunnelSet};
pub use yen::k_shortest_paths;

use harp_topology::{EdgeId, NodeId, Topology, TopologyError};

/// A simple path, stored as the sequence of directed edge ids it traverses.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Path(pub Vec<EdgeId>);

impl Path {
    /// Number of edges (hops).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for an empty edge list.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The node sequence of this path on `topo` (len = hops + 1).
    /// Panics on an empty or non-contiguous path; see [`Path::try_nodes`]
    /// for the fallible form.
    pub fn nodes(&self, topo: &Topology) -> Vec<NodeId> {
        self.try_nodes(topo).expect("invalid path")
    }

    /// The node sequence of this path on `topo` (len = hops + 1), or a
    /// [`TopologyError`] when the path is empty, references an edge id the
    /// topology does not have, or its edges are not contiguous.
    pub fn try_nodes(&self, topo: &Topology) -> Result<Vec<NodeId>, TopologyError> {
        let first = *self.0.first().ok_or(TopologyError::EmptyPath)?;
        let mut cur = topo.try_edge(first)?.src;
        let mut out = Vec::with_capacity(self.0.len() + 1);
        out.push(cur);
        for &e in &self.0 {
            let edge = topo.try_edge(e)?;
            if edge.src != cur {
                return Err(TopologyError::NonContiguousPath { edge: e });
            }
            cur = edge.dst;
            out.push(cur);
        }
        Ok(out)
    }

    /// Validate contiguity and endpoints on `topo`.
    pub fn is_valid(&self, topo: &Topology, src: NodeId, dst: NodeId) -> bool {
        if self.0.is_empty() {
            return false;
        }
        if topo.edge(self.0[0]).src != src {
            return false;
        }
        let mut cur = src;
        for &e in &self.0 {
            let edge = topo.edge(e);
            if edge.src != cur {
                return false;
            }
            cur = edge.dst;
        }
        cur == dst
    }

    /// True when the path visits no node twice (simple path).
    pub fn is_simple(&self, topo: &Topology) -> bool {
        let nodes = self.nodes(topo);
        let mut seen = std::collections::HashSet::new();
        nodes.iter().all(|n| seen.insert(*n))
    }
}
