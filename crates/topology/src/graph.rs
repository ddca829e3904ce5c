//! The capacitated directed-graph model of a WAN.

use std::collections::HashMap;

use crate::error::TopologyError;

/// Dense node index.
pub type NodeId = usize;
/// Dense directed-edge index.
pub type EdgeId = usize;

/// A directed link with capacity (e.g. in Gbps; units are arbitrary but must
/// be consistent with traffic-matrix units).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Nonnegative capacity.
    pub capacity: f64,
}

/// A WAN topology: a directed multigraph *without* parallel edges or self
/// loops (parallel physical circuits are modelled as aggregated capacity,
/// matching the paper's description of links as bundles of sub-links).
#[derive(Clone, Debug, Default)]
pub struct Topology {
    n: usize,
    edges: Vec<Edge>,
    index: HashMap<(NodeId, NodeId), EdgeId>,
    out_adj: Vec<Vec<(NodeId, EdgeId)>>,
}

impl Topology {
    /// An edgeless topology with `n` nodes.
    pub fn new(n: usize) -> Self {
        Topology {
            n,
            edges: Vec::new(),
            index: HashMap::new(),
            out_adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All directed edges, indexed by [`EdgeId`].
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge with the given id. Panics if out of range; see
    /// [`Topology::try_edge`] for the fallible form.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e]
    }

    /// The edge with the given id, or [`TopologyError::EdgeOutOfRange`].
    pub fn try_edge(&self, e: EdgeId) -> Result<&Edge, TopologyError> {
        self.edges.get(e).ok_or(TopologyError::EdgeOutOfRange {
            edge: e,
            num_edges: self.edges.len(),
        })
    }

    /// Id of the directed edge `src -> dst`, if present.
    pub fn edge_id(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.index.get(&(src, dst)).copied()
    }

    /// Outgoing `(neighbor, edge)` pairs of `u`.
    pub fn out_neighbors(&self, u: NodeId) -> &[(NodeId, EdgeId)] {
        &self.out_adj[u]
    }

    /// Capacity of edge `e`.
    pub fn capacity(&self, e: EdgeId) -> f64 {
        self.edges[e].capacity
    }

    /// Capacities of all edges, indexed by [`EdgeId`].
    pub fn capacities(&self) -> Vec<f64> {
        self.edges.iter().map(|e| e.capacity).collect()
    }

    /// Overwrite the capacity of edge `e`.
    pub fn set_capacity(&mut self, e: EdgeId, capacity: f64) -> Result<(), TopologyError> {
        if e >= self.edges.len() {
            return Err(TopologyError::EdgeOutOfRange {
                edge: e,
                num_edges: self.edges.len(),
            });
        }
        if capacity < 0.0 {
            return Err(TopologyError::NegativeCapacity { capacity });
        }
        self.edges[e].capacity = capacity;
        Ok(())
    }

    /// Overwrite all capacities at once (length must match edge count).
    pub fn set_capacities(&mut self, caps: &[f64]) -> Result<(), TopologyError> {
        assert_eq!(caps.len(), self.edges.len(), "capacity vector length");
        for (e, &c) in caps.iter().enumerate() {
            self.set_capacity(e, c)?;
        }
        Ok(())
    }

    /// Add a directed edge. Errors on out-of-range nodes, self loops,
    /// duplicates or negative capacity.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        capacity: f64,
    ) -> Result<EdgeId, TopologyError> {
        if src >= self.n {
            return Err(TopologyError::NodeOutOfRange {
                node: src,
                num_nodes: self.n,
            });
        }
        if dst >= self.n {
            return Err(TopologyError::NodeOutOfRange {
                node: dst,
                num_nodes: self.n,
            });
        }
        if src == dst {
            return Err(TopologyError::SelfLoop { node: src });
        }
        if self.index.contains_key(&(src, dst)) {
            return Err(TopologyError::DuplicateEdge { src, dst });
        }
        if capacity < 0.0 {
            return Err(TopologyError::NegativeCapacity { capacity });
        }
        let id = self.edges.len();
        self.edges.push(Edge { src, dst, capacity });
        self.index.insert((src, dst), id);
        self.out_adj[src].push((dst, id));
        Ok(id)
    }

    /// Add a bidirectional link (two directed edges of equal capacity).
    /// Returns `(forward, reverse)` edge ids.
    pub fn add_link(
        &mut self,
        u: NodeId,
        v: NodeId,
        capacity: f64,
    ) -> Result<(EdgeId, EdgeId), TopologyError> {
        let f = self.add_edge(u, v, capacity)?;
        let r = self.add_edge(v, u, capacity)?;
        Ok((f, r))
    }

    /// True when every node can reach every other node along directed edges
    /// with capacity above `cap_threshold` (treat ~zero-capacity edges as
    /// failed).
    pub fn is_strongly_connected(&self, cap_threshold: f64) -> bool {
        if self.n == 0 {
            return true;
        }
        // BFS forward and on the reverse graph.
        let reachable = |reverse: bool| {
            let mut seen = vec![false; self.n];
            let mut stack = vec![0usize];
            seen[0] = true;
            let mut count = 1;
            while let Some(u) = stack.pop() {
                for e in &self.edges {
                    if e.capacity <= cap_threshold {
                        continue;
                    }
                    let (a, b) = if reverse {
                        (e.dst, e.src)
                    } else {
                        (e.src, e.dst)
                    };
                    if a == u && !seen[b] {
                        seen[b] = true;
                        count += 1;
                        stack.push(b);
                    }
                }
            }
            count == self.n
        };
        reachable(false) && reachable(true)
    }

    /// Relabel nodes: node `i` becomes `perm[i]`. Edge order is preserved
    /// (edge `e` keeps its id but connects relabeled endpoints).
    pub fn permute_nodes(&self, perm: &[NodeId]) -> Result<Topology, TopologyError> {
        if perm.len() != self.n {
            return Err(TopologyError::InvalidPermutation);
        }
        let mut seen = vec![false; self.n];
        for &p in perm {
            if p >= self.n || seen[p] {
                return Err(TopologyError::InvalidPermutation);
            }
            seen[p] = true;
        }
        let mut out = Topology::new(self.n);
        for e in &self.edges {
            out.add_edge(perm[e.src], perm[e.dst], e.capacity)?;
        }
        Ok(out)
    }

    /// The induced subgraph on nodes where `keep[u]` is true. Returns the
    /// subgraph plus `old -> new` node mapping (None for dropped nodes).
    pub fn subgraph(&self, keep: &[bool]) -> (Topology, Vec<Option<NodeId>>) {
        assert_eq!(keep.len(), self.n, "keep mask length");
        let mut map = vec![None; self.n];
        let mut next = 0usize;
        for (u, &k) in keep.iter().enumerate() {
            if k {
                map[u] = Some(next);
                next += 1;
            }
        }
        let mut out = Topology::new(next);
        for e in &self.edges {
            if let (Some(s), Some(d)) = (map[e.src], map[e.dst]) {
                out.add_edge(s, d, e.capacity)
                    .expect("subgraph preserves edge validity");
            }
        }
        (out, map)
    }

    /// Undirected link pairs `(u, v, forward_id, reverse_id)` with `u < v`,
    /// for links where both directions exist.
    pub fn links(&self) -> Vec<(NodeId, NodeId, EdgeId, EdgeId)> {
        let mut out = Vec::new();
        for (eid, e) in self.edges.iter().enumerate() {
            if e.src < e.dst {
                if let Some(rid) = self.edge_id(e.dst, e.src) {
                    out.push((e.src, e.dst, eid, rid));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        let mut t = Topology::new(3);
        t.add_link(0, 1, 10.0).unwrap();
        t.add_link(1, 2, 20.0).unwrap();
        t.add_link(2, 0, 30.0).unwrap();
        t
    }

    #[test]
    fn build_and_query() {
        let t = triangle();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_edges(), 6);
        assert_eq!(t.edge_id(0, 1), Some(0));
        assert_eq!(t.edge_id(1, 0), Some(1));
        assert_eq!(t.capacity(2), 20.0);
        assert_eq!(t.out_neighbors(0).len(), 2);
        assert_eq!(t.links().len(), 3);
    }

    #[test]
    fn rejects_bad_edges() {
        let mut t = Topology::new(2);
        assert!(matches!(
            t.add_edge(0, 0, 1.0),
            Err(TopologyError::SelfLoop { .. })
        ));
        assert!(matches!(
            t.add_edge(0, 5, 1.0),
            Err(TopologyError::NodeOutOfRange { .. })
        ));
        t.add_edge(0, 1, 1.0).unwrap();
        assert!(matches!(
            t.add_edge(0, 1, 2.0),
            Err(TopologyError::DuplicateEdge { .. })
        ));
        assert!(matches!(
            t.add_edge(1, 0, -1.0),
            Err(TopologyError::NegativeCapacity { .. })
        ));
    }

    #[test]
    fn connectivity() {
        let t = triangle();
        assert!(t.is_strongly_connected(0.0));
        let mut t2 = Topology::new(3);
        t2.add_link(0, 1, 1.0).unwrap();
        assert!(!t2.is_strongly_connected(0.0));
        // failing an edge by threshold
        let mut t3 = triangle();
        // cut both directions of links (1,2) and (2,0): node 2 isolated
        for (u, v) in [(1, 2), (2, 1), (2, 0), (0, 2)] {
            let e = t3.edge_id(u, v).unwrap();
            t3.set_capacity(e, 1e-6).unwrap();
        }
        assert!(!t3.is_strongly_connected(1e-3));
    }

    #[test]
    fn permute_roundtrip() {
        let t = triangle();
        let perm = vec![2, 0, 1];
        let p = t.permute_nodes(&perm).unwrap();
        // old edge 0 was 0->1 cap 10; now 2->0 cap 10.
        assert_eq!(p.edge(0).src, 2);
        assert_eq!(p.edge(0).dst, 0);
        assert_eq!(p.edge(0).capacity, 10.0);
        // inverse permutation restores
        let mut inv = vec![0; 3];
        for (i, &pi) in perm.iter().enumerate() {
            inv[pi] = i;
        }
        let back = p.permute_nodes(&inv).unwrap();
        assert_eq!(back.edge(0).src, 0);
        assert_eq!(back.edge(0).dst, 1);
    }

    #[test]
    fn permute_rejects_non_bijection() {
        let t = triangle();
        assert!(t.permute_nodes(&[0, 0, 1]).is_err());
        assert!(t.permute_nodes(&[0, 1]).is_err());
    }

    #[test]
    fn subgraph_drops_node() {
        let t = triangle();
        let (s, map) = t.subgraph(&[true, true, false]);
        assert_eq!(s.num_nodes(), 2);
        assert_eq!(s.num_edges(), 2); // only 0<->1 survives
        assert_eq!(map, vec![Some(0), Some(1), None]);
    }

    #[test]
    fn set_capacities_bulk() {
        let mut t = triangle();
        let caps = vec![1.0; 6];
        t.set_capacities(&caps).unwrap();
        assert!(t.edges().iter().all(|e| e.capacity == 1.0));
    }
}
