//! Hop-count breadth-first search with node/edge bans on a reusable scratch
//! — the primitive Yen's algorithm builds on.

use harp_topology::{EdgeId, NodeId, Topology};

/// Buffers for every constrained shortest-path search on one topology.
///
/// The per-node and per-edge arrays are generation-stamped: an entry counts
/// only while its stamp equals the current generation, so starting a search
/// or lifting every ban is one increment, not a pass over the graph.
pub(crate) struct Search<'a> {
    topo: &'a Topology,
    /// Edges with capacity <= the threshold, excluded from every search.
    thin: Vec<bool>,
    /// Search generation in which each node was reached.
    reached: Vec<u64>,
    search_gen: u64,
    /// Hop count from the source and the edge each node was reached by
    /// (meaningful where `reached` is current).
    dist: Vec<usize>,
    pred: Vec<EdgeId>,
    /// FIFO of reached nodes; everything before the read head is expanded.
    queue: Vec<NodeId>,
    /// A node (edge) is banned while its stamp equals `node_gen` (`edge_gen`).
    banned_nodes: Vec<u64>,
    node_gen: u64,
    banned_edges: Vec<u64>,
    edge_gen: u64,
    /// Nodes and edges of the last path found, source first.
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl<'a> Search<'a> {
    /// A scratch for `topo`, excluding edges with capacity <= `cap_threshold`.
    pub(crate) fn new(topo: &'a Topology, cap_threshold: f64) -> Self {
        let n = topo.num_nodes();
        Search {
            topo,
            thin: topo
                .edges()
                .iter()
                .map(|e| e.capacity <= cap_threshold)
                .collect(),
            reached: vec![0; n],
            search_gen: 0,
            dist: vec![0; n],
            pred: vec![0; n],
            queue: Vec::with_capacity(n),
            banned_nodes: vec![0; n],
            node_gen: 1,
            banned_edges: vec![0; topo.num_edges()],
            edge_gen: 1,
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    pub(crate) fn topo(&self) -> &'a Topology {
        self.topo
    }

    /// Lift every node ban.
    pub(crate) fn clear_node_bans(&mut self) {
        self.node_gen += 1;
    }

    pub(crate) fn ban_node(&mut self, v: NodeId) {
        self.banned_nodes[v] = self.node_gen;
    }

    /// Lift every edge ban.
    pub(crate) fn clear_edge_bans(&mut self) {
        self.edge_gen += 1;
    }

    pub(crate) fn ban_edge(&mut self, e: EdgeId) {
        self.banned_edges[e] = self.edge_gen;
    }

    /// The shortest path by hop count from `src` to `dst` avoiding banned
    /// nodes/edges and thin edges, as its nodes (len = hops + 1) and edges.
    /// Among equal-length ways each node takes the lowest-id predecessor
    /// *node*: node ids are stable across topology rebuilds while edge ids
    /// shift, so recomputed tunnel sets stay maximally aligned. `None` when
    /// `src == dst` or `dst` is unreachable.
    pub(crate) fn shortest(&mut self, src: NodeId, dst: NodeId) -> Option<(&[NodeId], &[EdgeId])> {
        let topo = self.topo;
        assert!(
            src < topo.num_nodes() && dst < topo.num_nodes(),
            "endpoint range"
        );
        let banned = |v: NodeId| self.banned_nodes[v] == self.node_gen;
        if src == dst || banned(src) || banned(dst) {
            return None;
        }
        self.search_gen += 1;
        let gen = self.search_gen;
        self.reached[src] = gen;
        self.dist[src] = 0;
        self.queue.clear();
        self.queue.push(src);
        let mut head = 0;
        // Levels leave the queue in order, so when `dst` is dequeued (not
        // merely reached) every node one level above it has relaxed it and
        // its predecessor is final — the same one a (hops, node id) heap
        // Dijkstra settles on. There are no parallel edges, so the
        // predecessor node fixes the edge.
        while self.queue[head] != dst {
            let u = self.queue[head];
            head += 1;
            let d = self.dist[u] + 1;
            for &(v, e) in topo.out_neighbors(u) {
                if self.thin[e]
                    || self.banned_edges[e] == self.edge_gen
                    || self.banned_nodes[v] == self.node_gen
                {
                    continue;
                }
                if self.reached[v] != gen {
                    self.reached[v] = gen;
                    self.dist[v] = d;
                    self.pred[v] = e;
                    self.queue.push(v);
                } else if self.dist[v] == d && u < topo.edge(self.pred[v]).src {
                    self.pred[v] = e;
                }
            }
            if head == self.queue.len() {
                return None;
            }
        }
        let hops = self.dist[dst];
        self.nodes.clear();
        self.nodes.resize(hops + 1, dst);
        self.edges.clear();
        self.edges.resize(hops, 0);
        let mut cur = dst;
        for i in (0..hops).rev() {
            self.edges[i] = self.pred[cur];
            cur = topo.edge(self.edges[i]).src;
            self.nodes[i] = cur;
        }
        Some((&self.nodes, &self.edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Topology {
        // 0 -> {1, 2} -> 3, plus long way 0 -> 4 -> 5 -> 3
        let mut t = Topology::new(6);
        t.add_link(0, 1, 1.0).unwrap();
        t.add_link(1, 3, 1.0).unwrap();
        t.add_link(0, 2, 1.0).unwrap();
        t.add_link(2, 3, 1.0).unwrap();
        t.add_link(0, 4, 1.0).unwrap();
        t.add_link(4, 5, 1.0).unwrap();
        t.add_link(5, 3, 1.0).unwrap();
        t
    }

    /// Node sequence of the shortest path, if any.
    fn nodes(s: &mut Search, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        s.shortest(src, dst).map(|(nodes, _)| nodes.to_vec())
    }

    #[test]
    fn finds_shortest_and_is_deterministic() {
        let t = diamond();
        let mut s = Search::new(&t, 0.0);
        let (nodes, edges) = s.shortest(0, 3).unwrap();
        let p = crate::Path(edges.to_vec());
        assert_eq!(p.len(), 2);
        assert!(p.is_valid(&t, 0, 3));
        // deterministic tie-break: 3's lowest-id predecessor node is 1
        assert_eq!(nodes, &[0, 1, 3]);
        assert_eq!(s.shortest(0, 3).unwrap().1, &p.0[..]);
    }

    #[test]
    fn tie_break_is_by_predecessor_node_not_edge_id() {
        // 0 -> 2 -> 3 is added before 0 -> 1 -> 3, so it has the lower
        // edge ids, but 1 < 2 wins the tie.
        let mut t = Topology::new(4);
        t.add_link(0, 2, 1.0).unwrap();
        t.add_link(2, 3, 1.0).unwrap();
        t.add_link(0, 1, 1.0).unwrap();
        t.add_link(1, 3, 1.0).unwrap();
        assert_eq!(nodes(&mut Search::new(&t, 0.0), 0, 3).unwrap(), [0, 1, 3]);
    }

    #[test]
    fn respects_bans() {
        let t = diamond();
        let mut s = Search::new(&t, 0.0);
        s.ban_node(1);
        assert_eq!(nodes(&mut s, 0, 3).unwrap(), [0, 2, 3]);
        s.ban_node(2);
        assert_eq!(nodes(&mut s, 0, 3).unwrap(), [0, 4, 5, 3]);
        s.ban_node(4);
        assert!(nodes(&mut s, 0, 3).is_none());
        // lifting the node bans and banning an edge instead
        s.clear_node_bans();
        s.ban_edge(t.edge_id(1, 3).unwrap());
        assert_eq!(nodes(&mut s, 0, 3).unwrap(), [0, 2, 3]);
        s.clear_edge_bans();
        assert_eq!(nodes(&mut s, 0, 3).unwrap(), [0, 1, 3]);
    }

    #[test]
    fn respects_capacity_threshold() {
        let mut t = diamond();
        for (u, v) in [(0, 1), (1, 0)] {
            let e = t.edge_id(u, v).unwrap();
            t.set_capacity(e, 1e-5).unwrap();
        }
        assert_eq!(nodes(&mut Search::new(&t, 1e-3), 0, 3).unwrap(), [0, 2, 3]);
    }

    #[test]
    fn no_path_to_self() {
        let t = diamond();
        assert!(nodes(&mut Search::new(&t, 0.0), 2, 2).is_none());
    }
}
