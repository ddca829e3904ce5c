//! Tunnel sets: the per-flow path lists TE schemes split traffic over.

use harp_topology::{EdgeId, NodeId, Topology};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::bfs::Search;
use crate::yen::yen;
use crate::Path;

/// Index of a flow (an ordered source/destination pair) in a [`TunnelSet`].
pub type FlowId = usize;
/// Global tunnel index in the flattened tunnel order of a [`TunnelSet`].
pub type TunnelId = usize;

/// The tunnels of every flow between edge nodes.
///
/// Tunnel order *within a flow* is meaningful to order-sensitive baselines
/// (TEAL/DOTE); [`TunnelSet::shuffled`] produces the reordered variant used
/// by the paper's Fig 7 experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct TunnelSet {
    flows: Vec<(NodeId, NodeId)>,
    tunnels: Vec<Vec<Path>>,
}

impl TunnelSet {
    /// Compute `k` shortest-path tunnels for every ordered pair of
    /// `edge_nodes` on `topo` (edges with capacity <= `cap_threshold` are
    /// excluded). Flows with no path are skipped. Every spur search of
    /// every flow runs on one reused search scratch.
    pub fn k_shortest(
        topo: &Topology,
        edge_nodes: &[NodeId],
        k: usize,
        cap_threshold: f64,
    ) -> Self {
        let mut search = Search::new(topo, cap_threshold);
        let mut flows = Vec::new();
        let mut tunnels = Vec::new();
        for &s in edge_nodes {
            for &t in edge_nodes {
                if s == t {
                    continue;
                }
                let ps = yen(&mut search, s, t, k);
                if !ps.is_empty() {
                    flows.push((s, t));
                    tunnels.push(ps);
                }
            }
        }
        TunnelSet { flows, tunnels }
    }

    /// Construct from explicit parts (for tests and loaders). Panics when
    /// lengths differ or a flow has no tunnels.
    pub fn from_parts(flows: Vec<(NodeId, NodeId)>, tunnels: Vec<Vec<Path>>) -> Self {
        assert_eq!(flows.len(), tunnels.len(), "flows/tunnels length");
        assert!(
            tunnels.iter().all(|t| !t.is_empty()),
            "every flow needs at least one tunnel"
        );
        TunnelSet { flows, tunnels }
    }

    /// Number of flows.
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Total number of tunnels across flows.
    pub fn num_tunnels(&self) -> usize {
        self.tunnels.iter().map(Vec::len).sum()
    }

    /// The ordered (src, dst) pairs.
    pub fn flows(&self) -> &[(NodeId, NodeId)] {
        &self.flows
    }

    /// Tunnels of flow `f`, in order.
    pub fn tunnels_of(&self, f: FlowId) -> &[Path] {
        &self.tunnels[f]
    }

    /// Index of the flow `(s, t)`, if present.
    pub fn flow_index(&self, s: NodeId, t: NodeId) -> Option<FlowId> {
        self.flows.iter().position(|&(a, b)| (a, b) == (s, t))
    }

    /// Longest tunnel length (in hops) across all flows.
    pub fn max_tunnel_len(&self) -> usize {
        self.tunnels
            .iter()
            .flat_map(|ts| ts.iter().map(Path::len))
            .max()
            .unwrap_or(0)
    }

    /// Iterate `(flow, tunnel-in-flow index, path)` in flat global order.
    pub fn iter_flat(&self) -> impl Iterator<Item = (FlowId, usize, &Path)> {
        self.tunnels
            .iter()
            .enumerate()
            .flat_map(|(f, ts)| ts.iter().enumerate().map(move |(i, p)| (f, i, p)))
    }

    /// A copy with the order of tunnels within each flow permuted by `rng`
    /// (flows and path contents unchanged) — the Fig 7 perturbation.
    pub fn shuffled<R: Rng>(&self, rng: &mut R) -> TunnelSet {
        let tunnels = self
            .tunnels
            .iter()
            .map(|ts| {
                let mut t = ts.clone();
                t.shuffle(rng);
                t
            })
            .collect();
        TunnelSet {
            flows: self.flows.clone(),
            tunnels,
        }
    }

    /// For each directed edge of `topo`, the flat tunnel ids traversing it.
    pub fn tunnels_per_edge(&self, topo: &Topology) -> Vec<Vec<TunnelId>> {
        let mut per_edge: Vec<Vec<TunnelId>> = vec![Vec::new(); topo.num_edges()];
        for (tid, (_, _, path)) in self.iter_flat().enumerate() {
            for &e in &path.0 {
                per_edge[e].push(tid);
            }
        }
        per_edge
    }

    /// All tunnels as node sequences (comparable across topologies that
    /// share a node-id universe). Used for tunnel-churn analysis (Fig 3c).
    pub fn node_sequences(&self, topo: &Topology) -> Vec<Vec<NodeId>> {
        self.iter_flat().map(|(_, _, p)| p.nodes(topo)).collect()
    }

    /// True when every tunnel avoids the directed edge `e`.
    pub fn avoids_edge(&self, e: EdgeId) -> bool {
        self.iter_flat().all(|(_, _, p)| !p.0.contains(&e))
    }

    /// The tunnel set with every tunnel traversing any edge in `failed`
    /// removed; flows that lose all of their tunnels are dropped entirely.
    /// Flow order and within-flow tunnel order are preserved, so pruning is
    /// idempotent and composes: pruning `{a}` then `{b}` equals pruning
    /// `{a, b}` from the original set (the incremental-update invariant the
    /// serving layer relies on under link failures).
    pub fn without_edges(&self, failed: &std::collections::BTreeSet<EdgeId>) -> TunnelSet {
        let mut flows = Vec::new();
        let mut tunnels = Vec::new();
        for (f, &flow) in self.flows.iter().enumerate() {
            let surviving: Vec<Path> = self.tunnels[f]
                .iter()
                .filter(|p| p.0.iter().all(|e| !failed.contains(e)))
                .cloned()
                .collect();
            if !surviving.is_empty() {
                flows.push(flow);
                tunnels.push(surviving);
            }
        }
        TunnelSet { flows, tunnels }
    }

    /// The same tunnels on a node-relabeled copy of the topology: node `i`
    /// of `old_topo` is node `perm[i]` of `new_topo`. Within-flow tunnel
    /// order is preserved; flows are re-sorted by their *new* (src, dst)
    /// ids, mirroring how a controller on the relabeled network would
    /// enumerate them. Panics if a mapped edge is missing in `new_topo`.
    pub fn relabeled(
        &self,
        old_topo: &Topology,
        new_topo: &Topology,
        perm: &[NodeId],
    ) -> TunnelSet {
        let mut entries: Vec<((NodeId, NodeId), Vec<Path>)> = (0..self.num_flows())
            .map(|f| {
                let (s, t) = self.flows[f];
                let paths = self.tunnels[f]
                    .iter()
                    .map(|p| {
                        let edges =
                            p.0.iter()
                                .map(|&e| {
                                    let edge = old_topo.edge(e);
                                    new_topo
                                        .edge_id(perm[edge.src], perm[edge.dst])
                                        .expect("relabeled edge exists in new topology")
                                })
                                .collect();
                        Path(edges)
                    })
                    .collect();
                ((perm[s], perm[t]), paths)
            })
            .collect();
        entries.sort_by_key(|(flow, _)| *flow);
        let (flows, tunnels) = entries.into_iter().unzip();
        TunnelSet { flows, tunnels }
    }
}

/// Tunnel churn between two tunnel sets (fractions relative to each set):
/// `(common_in_b, unique_to_b, unique_to_a)` as counts of node sequences.
pub fn tunnel_churn(
    a: &TunnelSet,
    topo_a: &Topology,
    b: &TunnelSet,
    topo_b: &Topology,
) -> (usize, usize, usize) {
    use std::collections::HashSet;
    let sa: HashSet<Vec<NodeId>> = a.node_sequences(topo_a).into_iter().collect();
    let sb: HashSet<Vec<NodeId>> = b.node_sequences(topo_b).into_iter().collect();
    let common = sb.intersection(&sa).count();
    let only_b = sb.len() - common;
    let only_a = sa.len() - sa.intersection(&sb).count();
    (common, only_b, only_a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn square() -> Topology {
        let mut t = Topology::new(4);
        t.add_link(0, 1, 1.0).unwrap();
        t.add_link(1, 2, 1.0).unwrap();
        t.add_link(2, 3, 1.0).unwrap();
        t.add_link(3, 0, 1.0).unwrap();
        t
    }

    #[test]
    fn k_shortest_all_pairs() {
        let t = square();
        let ts = TunnelSet::k_shortest(&t, &[0, 1, 2, 3], 2, 0.0);
        assert_eq!(ts.num_flows(), 12);
        // every flow on a cycle has exactly 2 simple paths
        assert_eq!(ts.num_tunnels(), 24);
        assert_eq!(ts.max_tunnel_len(), 3);
        for (f, _, p) in ts.iter_flat() {
            let (s, d) = ts.flows()[f];
            assert!(p.is_valid(&t, s, d));
        }
    }

    #[test]
    fn shuffle_preserves_contents() {
        let t = square();
        let ts = TunnelSet::k_shortest(&t, &[0, 2], 2, 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        let sh = ts.shuffled(&mut rng);
        assert_eq!(sh.num_flows(), ts.num_flows());
        assert_eq!(sh.num_tunnels(), ts.num_tunnels());
        for f in 0..ts.num_flows() {
            let mut a: Vec<_> = ts.tunnels_of(f).to_vec();
            let mut b: Vec<_> = sh.tunnels_of(f).to_vec();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn tunnels_per_edge_inverts_paths() {
        let t = square();
        let ts = TunnelSet::k_shortest(&t, &[0, 2], 2, 0.0);
        let per_edge = ts.tunnels_per_edge(&t);
        let mut total = 0usize;
        for (e, tids) in per_edge.iter().enumerate() {
            for &tid in tids {
                let (_, _, p) = ts.iter_flat().nth(tid).unwrap();
                assert!(p.0.contains(&e));
                total += 1;
            }
        }
        let hops: usize = ts.iter_flat().map(|(_, _, p)| p.len()).sum();
        assert_eq!(total, hops);
    }

    #[test]
    fn churn_detects_changes() {
        let t = square();
        let a = TunnelSet::k_shortest(&t, &[0, 2], 2, 0.0);
        // after failing link 0-1, only one path family remains
        let mut t2 = square();
        for (u, v) in [(0, 1), (1, 0)] {
            let e = t2.edge_id(u, v).unwrap();
            t2.set_capacity(e, 0.0).unwrap();
        }
        let b = TunnelSet::k_shortest(&t2, &[0, 2], 2, 0.0);
        let (common, only_b, only_a) = tunnel_churn(&a, &t, &b, &t2);
        assert!(common > 0);
        assert_eq!(only_b, 0); // b's paths are a subset of a's
        assert!(only_a > 0);
    }

    #[test]
    fn without_edges_drops_exactly_traversing_tunnels() {
        let t = square();
        let ts = TunnelSet::k_shortest(&t, &[0, 1, 2, 3], 2, 0.0);
        let e01 = t.edge_id(0, 1).unwrap();
        let failed: std::collections::BTreeSet<usize> = [e01].into_iter().collect();
        let pruned = ts.without_edges(&failed);
        assert!(pruned.avoids_edge(e01));
        assert!(pruned.num_tunnels() < ts.num_tunnels());
        // every surviving path existed in the original set, same flow
        for (f, _, p) in pruned.iter_flat() {
            let (s, d) = pruned.flows()[f];
            let orig = ts.flow_index(s, d).expect("flow survives from original");
            assert!(ts.tunnels_of(orig).contains(p));
        }
        // pruning the empty set is the identity
        assert_eq!(ts.without_edges(&Default::default()), ts);
        // idempotent
        assert_eq!(pruned.without_edges(&failed), pruned);
    }

    #[test]
    fn without_edges_drops_flows_with_no_survivors() {
        // path graph 0-1-2: flow (0,2) has exactly one tunnel through both
        // edges; failing 0->1 kills the flow entirely.
        let mut t = Topology::new(3);
        t.add_link(0, 1, 1.0).unwrap();
        t.add_link(1, 2, 1.0).unwrap();
        let ts = TunnelSet::k_shortest(&t, &[0, 2], 2, 0.0);
        assert_eq!(ts.num_flows(), 2);
        let e01 = t.edge_id(0, 1).unwrap();
        let failed: std::collections::BTreeSet<usize> = [e01].into_iter().collect();
        let pruned = ts.without_edges(&failed);
        assert_eq!(pruned.num_flows(), 1);
        assert_eq!(pruned.flows(), &[(2, 0)]);
    }

    #[test]
    fn flow_index_lookup() {
        let t = square();
        let ts = TunnelSet::k_shortest(&t, &[0, 2], 2, 0.0);
        assert_eq!(ts.flow_index(0, 2), Some(0));
        assert_eq!(ts.flow_index(2, 0), Some(1));
        assert_eq!(ts.flow_index(1, 2), None);
    }
}
