//! Instance compilation: one snapshot, ready for both the neural models
//! (f32 index tensors, shared via `Arc` across tape builds) and the exact
//! evaluators (`f64` path program).

use std::collections::HashMap;
use std::sync::Arc;

use harp_nn::normalized_adjacency;
use harp_opt::PathProgram;
use harp_paths::TunnelSet;
use harp_topology::{node_features, Topology};
use harp_traffic::TrafficMatrix;

/// Every tunnel of one hop count, back to back and unpadded, as one batch
/// for the set transformer.
#[derive(Clone, Debug)]
pub struct LengthBucket {
    /// Rows per tunnel: its edges plus the CLS slot at position 0.
    pub width: usize,
    /// `[count * width]` index into the `[1 + E]`-row embedding table
    /// (row 0 = CLS, row e+1 = edge e), distinct tunnels in flat order.
    pub seq_index: Arc<Vec<usize>>,
}

/// A compiled snapshot. Build once with [`Instance::compile`], reuse across
/// every forward pass (index arrays are `Arc`-shared into the tapes).
///
/// Everything but the demands (`flow_demands`, `tunnel_demand`, the
/// program's per-flow demands) depends only on the topology and the tunnel
/// set and is `Arc`-shared between an instance and its
/// [`Instance::with_traffic`] copies.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Nodes in the (universe) topology.
    pub num_nodes: usize,
    /// Directed edges.
    pub num_edges: usize,
    /// Flows (ordered source/destination pairs with tunnels).
    pub num_flows: usize,
    /// Total tunnels across flows.
    pub num_tunnels: usize,

    /// Dense `n x n` symmetric-normalized adjacency for the GCN.
    pub adj_norm: Arc<Vec<f32>>,
    /// `[n, 2]` node features (total adjacent capacity, degree).
    pub node_feats: Arc<Vec<f32>>,
    /// Source node of each edge.
    pub edge_src: Arc<Vec<usize>>,
    /// Destination node of each edge.
    pub edge_dst: Arc<Vec<usize>>,
    /// Edge capacities in *scaled* units (divided by the mean capacity).
    pub edge_caps: Arc<Vec<f32>>,
    /// `1 / capacity` in scaled units (clamped for the zero-cap floor).
    pub edge_inv_caps: Arc<Vec<f32>>,
    /// The scale factor: original capacity units per scaled unit.
    pub cap_unit: f64,

    /// `(source, destination)` of each flow.
    pub flow_pairs: Arc<Vec<(usize, usize)>>,
    /// Flow demands in scaled units.
    pub flow_demands: Vec<f32>,
    /// Tunnel -> flow index (segment ids for the per-flow softmax).
    pub tunnel_flow: Arc<Vec<usize>>,
    /// Demand of each tunnel's flow (scaled), `[T]`.
    pub tunnel_demand: Vec<f32>,

    /// Distinct tunnels grouped by hop count, in increasing length. The set
    /// transformer runs once per bucket and its outputs, concatenated in
    /// this order, form the packed `[table_rows, d_model]` edge-tunnel table
    /// that `cls_row` and `pair_row` index. A tunnel whose edges, read
    /// forwards or backwards, have the same encoder inputs as an earlier
    /// tunnel's (on symmetric capacities, most reversed tunnels) is not
    /// packed again: it reads that representative's rows, which equal its
    /// own encoding in exact arithmetic and up to rounding in `f32`
    /// (attention sums the keys in another order).
    pub buckets: Arc<Vec<LengthBucket>>,
    /// Tunnel -> packed-table row of its (representative's) CLS slot: the
    /// tunnel embedding.
    pub cls_row: Arc<Vec<usize>>,

    /// Incidence pairs (tunnel, edge): pair -> tunnel.
    pub pair_tunnel: Arc<Vec<usize>>,
    /// Incidence pairs: pair -> edge.
    pub pair_edge: Arc<Vec<usize>>,
    /// Incidence pairs: pair -> packed-table row of the edge-tunnel
    /// embedding (for bottleneck edge-tunnel embeddings): the
    /// representative's row of this edge, `cls_row[t] + pos + 1` when the
    /// tunnel is read in its representative's order and
    /// `cls_row[t] + len - pos` when it is read backwards.
    pub pair_row: Arc<Vec<usize>>,

    /// Exact-arithmetic program for evaluation/normalization.
    pub program: PathProgram,
}

impl Instance {
    /// Compile a snapshot. `topo` must already carry the snapshot's
    /// capacities; `tunnels` must have been computed on (a version of) this
    /// topology; `tm` is indexed by `topo` node ids.
    pub fn compile(topo: &Topology, tunnels: &TunnelSet, tm: &TrafficMatrix) -> Instance {
        let mut inst = Self::structure(topo, tunnels);
        inst.set_traffic(tm);
        inst
    }

    /// This snapshot under another traffic matrix: what
    /// [`Instance::compile`] on the same topology and tunnels yields for
    /// `tm`, sharing everything that does not depend on it. The per-request
    /// step of a serving loop that compiles once per topology epoch.
    pub fn with_traffic(&self, tm: &TrafficMatrix) -> Instance {
        let mut inst = self.clone();
        inst.set_traffic(tm);
        inst
    }

    /// Point the demand-dependent fields at `tm`.
    fn set_traffic(&mut self, tm: &TrafficMatrix) {
        assert_eq!(
            tm.num_nodes(),
            self.num_nodes,
            "traffic matrix does not match topology"
        );
        let demands = self.flow_pairs.iter().map(|&(s, t)| tm.demand(s, t));
        self.program.set_demands(demands.clone());
        let unit = self.cap_unit;
        self.flow_demands.clear();
        self.flow_demands.extend(demands.map(|d| (d / unit) as f32));
        self.tunnel_demand.clear();
        let per_tunnel = self.tunnel_flow.iter().map(|&f| self.flow_demands[f]);
        self.tunnel_demand.extend(per_tunnel);
    }

    /// Everything [`Instance::compile`] derives from the topology and the
    /// tunnel set alone; the demands are left empty.
    fn structure(topo: &Topology, tunnels: &TunnelSet) -> Instance {
        let n = topo.num_nodes();
        let m = topo.num_edges();
        let num_flows = tunnels.num_flows();
        let num_tunnels = tunnels.num_tunnels();
        assert!(num_tunnels > 0, "instance needs at least one tunnel");

        // capacity scaling
        let caps: Vec<f64> = topo.capacities();
        let mean_cap = {
            let pos: Vec<f64> = caps.iter().copied().filter(|c| *c > 1e-3).collect();
            if pos.is_empty() {
                1.0
            } else {
                pos.iter().sum::<f64>() / pos.len() as f64
            }
        };
        let edge_caps: Vec<f32> = caps.iter().map(|c| (c / mean_cap) as f32).collect();
        let edge_inv_caps: Vec<f32> = edge_caps.iter().map(|c| 1.0 / c.max(1e-9)).collect();

        let edge_src: Vec<usize> = topo.edges().iter().map(|e| e.src).collect();
        let edge_dst: Vec<usize> = topo.edges().iter().map(|e| e.dst).collect();

        let tunnel_flow: Vec<usize> = tunnels.iter_flat().map(|(f, _, _)| f).collect();

        // Distinct tunnel sequences. Edges whose encoder input rows are
        // equal by construction share a class, `min(e, reverse)`: an edge's
        // embedding reads the sum of its endpoints' node embeddings and its
        // scaled capacity, so `e` and its reverse get one row, bitwise, when
        // their capacities have equal bits. The set transformer has no
        // positional encodings, so a tunnel whose class sequence is another's,
        // read forwards or backwards, is the same set of input rows: only the
        // first such tunnel in flat order (its representative) is encoded,
        // and the others read its rows. `rep[t]` is `(representative, read
        // backwards)`.
        let edge_class: Vec<usize> = (0..m)
            .map(|e| match topo.edge_id(edge_dst[e], edge_src[e]) {
                Some(r) if edge_caps[r].to_bits() == edge_caps[e].to_bits() => e.min(r),
                _ => e,
            })
            .collect();
        let mut first_of = HashMap::new();
        let rep: Vec<(usize, bool)> = tunnels
            .iter_flat()
            .enumerate()
            .map(|(t, (_, _, path))| {
                let fwd: Vec<usize> = path.0.iter().map(|&e| edge_class[e]).collect();
                let bwd: Vec<usize> = fwd.iter().rev().copied().collect();
                let (key, backwards) = if bwd < fwd { (bwd, true) } else { (fwd, false) };
                let (r, r_backwards) = *first_of.entry(key).or_insert((t, backwards));
                (r, backwards != r_backwards)
            })
            .collect();

        // Packed representative sequences: one bucket per hop count, each
        // tunnel its CLS slot then its edges. `by_len[len]` counts the
        // bucket's rows, then holds (its first packed row, its seq_index so
        // far).
        let mut by_len = vec![(0usize, Vec::new()); tunnels.max_tunnel_len() + 1];
        let mut num_pairs = 0;
        for (t, (_, _, path)) in tunnels.iter_flat().enumerate() {
            num_pairs += path.len();
            if rep[t].0 == t {
                by_len[path.len()].0 += path.len() + 1;
            }
        }
        let mut packed_rows = 0;
        for (rows, seq) in &mut by_len {
            seq.reserve_exact(*rows);
            let first_row = packed_rows;
            packed_rows += *rows;
            *rows = first_row;
        }
        let mut cls_row = Vec::with_capacity(num_tunnels);
        let mut pair_tunnel = Vec::with_capacity(num_pairs);
        let mut pair_edge = Vec::with_capacity(num_pairs);
        let mut pair_row = Vec::with_capacity(num_pairs);
        for (t_idx, (_, _, path)) in tunnels.iter_flat().enumerate() {
            let (r, reversed) = rep[t_idx];
            let len = path.len();
            let cls = if r == t_idx {
                let (first_row, seq) = &mut by_len[len];
                let cls = *first_row + seq.len();
                seq.push(0);
                seq.extend(path.0.iter().map(|&e| e + 1));
                cls
            } else {
                cls_row[r] // r < t_idx: already placed
            };
            cls_row.push(cls);
            for (pos, &e) in path.0.iter().enumerate() {
                pair_tunnel.push(t_idx);
                pair_edge.push(e);
                pair_row.push(if reversed {
                    cls + len - pos
                } else {
                    cls + 1 + pos
                });
            }
        }
        let buckets = by_len
            .into_iter()
            .enumerate()
            .filter(|(_, (_, seq))| !seq.is_empty())
            .map(|(len, (_, seq))| LengthBucket {
                width: len + 1,
                seq_index: Arc::new(seq),
            })
            .collect();
        Instance {
            num_nodes: n,
            num_edges: m,
            num_flows,
            num_tunnels,
            adj_norm: Arc::new(normalized_adjacency(
                n,
                &topo
                    .edges()
                    .iter()
                    .map(|e| (e.src, e.dst))
                    .collect::<Vec<_>>(),
            )),
            node_feats: Arc::new(node_features(topo)),
            edge_src: Arc::new(edge_src),
            edge_dst: Arc::new(edge_dst),
            edge_caps: Arc::new(edge_caps),
            edge_inv_caps: Arc::new(edge_inv_caps),
            cap_unit: mean_cap,
            flow_pairs: Arc::new(tunnels.flows().to_vec()),
            flow_demands: Vec::with_capacity(num_flows),
            tunnel_flow: Arc::new(tunnel_flow),
            tunnel_demand: Vec::with_capacity(num_tunnels),
            buckets: Arc::new(buckets),
            cls_row: Arc::new(cls_row),
            pair_tunnel: Arc::new(pair_tunnel),
            pair_edge: Arc::new(pair_edge),
            pair_row: Arc::new(pair_row),
            program: PathProgram::unloaded(topo, tunnels),
        }
    }

    /// True when `self` and `other` are snapshots of one topology epoch as
    /// far as a model's traffic-independent encoder can tell: the same GCN
    /// and set-transformer inputs (`adj_norm`, `node_feats`, `edge_src`,
    /// `edge_dst`, `edge_caps`) and the same edge-tunnel table layout
    /// (`buckets`, `cls_row`, `pair_row`). Then one
    /// [`crate::SplitModel::encode`] serves both. [`Instance::with_traffic`]
    /// copies share these fields and are answered by pointer; separately
    /// compiled snapshots are compared value by value (floats by bits).
    pub fn same_epoch(&self, other: &Instance) -> bool {
        fn same<T: PartialEq>(a: &Arc<T>, b: &Arc<T>) -> bool {
            Arc::ptr_eq(a, b) || a == b
        }
        fn same_bits(a: &Arc<Vec<f32>>, b: &Arc<Vec<f32>>) -> bool {
            Arc::ptr_eq(a, b)
                || a.iter()
                    .map(|x| x.to_bits())
                    .eq(b.iter().map(|x| x.to_bits()))
        }
        let buckets = Arc::ptr_eq(&self.buckets, &other.buckets)
            || (self.buckets.len() == other.buckets.len()
                && self
                    .buckets
                    .iter()
                    .zip(other.buckets.iter())
                    .all(|(a, b)| a.width == b.width && same(&a.seq_index, &b.seq_index)));
        (self.num_nodes, self.num_edges, self.num_tunnels)
            == (other.num_nodes, other.num_edges, other.num_tunnels)
            && same_bits(&self.adj_norm, &other.adj_norm)
            && same_bits(&self.node_feats, &other.node_feats)
            && same(&self.edge_src, &other.edge_src)
            && same(&self.edge_dst, &other.edge_dst)
            && same_bits(&self.edge_caps, &other.edge_caps)
            && buckets
            && same(&self.cls_row, &other.cls_row)
            && same(&self.pair_row, &other.pair_row)
    }

    /// Number of (tunnel, edge) incidence pairs.
    pub fn num_pairs(&self) -> usize {
        self.pair_edge.len()
    }

    /// Rows of the packed edge-tunnel table: the buckets' sequences back to
    /// back, one CLS row and one row per edge for each distinct tunnel. At
    /// most `num_tunnels + num_pairs()`, and equal to it when no tunnel
    /// shares another's rows.
    pub fn table_rows(&self) -> usize {
        self.buckets.iter().map(|b| b.seq_index.len()).sum()
    }

    /// Tunnels-per-flow counts.
    pub fn tunnels_per_flow(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_flows];
        for &f in self.tunnel_flow.iter() {
            counts[f] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_instance() -> Instance {
        let mut topo = Topology::new(4);
        topo.add_link(0, 1, 10.0).unwrap();
        topo.add_link(1, 2, 10.0).unwrap();
        topo.add_link(2, 3, 10.0).unwrap();
        topo.add_link(3, 0, 10.0).unwrap();
        let tunnels = TunnelSet::k_shortest(&topo, &[0, 2], 2, 0.0);
        let mut tm = TrafficMatrix::zeros(4);
        tm.set_demand(0, 2, 4.0);
        tm.set_demand(2, 0, 2.0);
        Instance::compile(&topo, &tunnels, &tm)
    }

    #[test]
    fn dimensions() {
        let inst = square_instance();
        assert_eq!(inst.num_nodes, 4);
        assert_eq!(inst.num_edges, 8);
        assert_eq!(inst.num_flows, 2);
        assert_eq!(inst.num_tunnels, 4);
        assert_eq!(inst.buckets.len(), 1); // every tunnel is 2 hops
        assert_eq!(inst.buckets[0].width, 3); // 2 hops + CLS
        assert_eq!(inst.num_pairs(), 8); // each tunnel has 2 edges
        assert_eq!(inst.tunnels_per_flow(), vec![2, 2]);
    }

    /// Why a link failure cannot be re-embedded as a delta: capacities are
    /// scaled by the mean over live links, so flooring one link (both
    /// directions, as harp-serve does) moves every edge's input feature,
    /// not only the failed link's — every row of the GCN input and of the
    /// edge projection is dirty before any message passing spreads it.
    #[test]
    fn one_failed_link_changes_every_edge_feature() {
        for base in [harp_datasets::geant(), harp_datasets::us_carrier_like()] {
            let nodes: Vec<usize> = (0..base.num_nodes()).step_by(7).collect();
            let tunnels = TunnelSet::k_shortest(&base, &nodes, 2, 0.0);
            let tm = TrafficMatrix::zeros(base.num_nodes());
            let before = Instance::compile(&base, &tunnels, &tm);
            for (u, v, fwd, rev) in base.links() {
                let mut topo = base.clone();
                for e in [fwd, rev] {
                    topo.set_capacity(e, 1e-4).unwrap();
                }
                let after = Instance::compile(&topo, &tunnels, &tm);
                let same: Vec<usize> = (0..before.num_edges)
                    .filter(|&e| before.edge_caps[e].to_bits() == after.edge_caps[e].to_bits())
                    .collect();
                assert!(
                    same.is_empty(),
                    "failing {u}-{v} left the features of edges {same:?} unchanged"
                );
            }
        }
    }

    #[test]
    fn with_traffic_is_compile_under_that_matrix() {
        let mut topo = Topology::new(4);
        topo.add_link(0, 1, 10.0).unwrap();
        topo.add_link(1, 2, 30.0).unwrap();
        topo.add_link(2, 3, 10.0).unwrap();
        topo.add_link(3, 0, 5.0).unwrap();
        let tunnels = TunnelSet::k_shortest(&topo, &[0, 1, 2], 2, 0.0);
        let mut tm = TrafficMatrix::zeros(4);
        tm.set_demand(0, 2, 4.0);
        tm.set_demand(2, 1, 0.125);
        let epoch = Instance::compile(&topo, &tunnels, &TrafficMatrix::zeros(4));
        let (got, want) = (
            epoch.with_traffic(&tm),
            Instance::compile(&topo, &tunnels, &tm),
        );

        // every field, the demand-dependent ones first
        assert_eq!(got.flow_demands, want.flow_demands);
        assert_eq!(got.tunnel_demand, want.tunnel_demand);
        assert_eq!(got.program.capacities, want.program.capacities);
        assert_eq!(got.program.num_edges, want.program.num_edges);
        assert_eq!(got.program.flows.len(), want.program.flows.len());
        for (g, w) in got.program.flows.iter().zip(&want.program.flows) {
            assert_eq!(g.demand.to_bits(), w.demand.to_bits());
            assert_eq!(g.tunnels, w.tunnels);
        }
        assert_eq!(
            (got.num_nodes, got.num_edges, got.num_flows, got.num_tunnels),
            (
                want.num_nodes,
                want.num_edges,
                want.num_flows,
                want.num_tunnels
            )
        );
        assert_eq!(got.adj_norm, want.adj_norm);
        assert_eq!(got.node_feats, want.node_feats);
        assert_eq!(
            (&got.edge_src, &got.edge_dst),
            (&want.edge_src, &want.edge_dst)
        );
        assert_eq!(got.edge_caps, want.edge_caps);
        assert_eq!(got.edge_inv_caps, want.edge_inv_caps);
        assert_eq!(got.cap_unit.to_bits(), want.cap_unit.to_bits());
        assert_eq!(got.flow_pairs, want.flow_pairs);
        assert_eq!(got.tunnel_flow, want.tunnel_flow);
        assert_eq!(got.cls_row, want.cls_row);
        assert_eq!(
            (&got.pair_tunnel, &got.pair_edge, &got.pair_row),
            (&want.pair_tunnel, &want.pair_edge, &want.pair_row)
        );
        assert_eq!(got.buckets.len(), want.buckets.len());
        for (g, w) in got.buckets.iter().zip(want.buckets.iter()) {
            assert_eq!((g.width, &g.seq_index), (w.width, &w.seq_index));
        }
        // the structure is shared with the epoch's instance, not copied
        assert!(Arc::ptr_eq(&got.pair_row, &epoch.pair_row));
        assert!(Arc::ptr_eq(&got.adj_norm, &epoch.adj_norm));
        assert!(Arc::ptr_eq(
            &got.program.flows[0].tunnels,
            &epoch.program.flows[0].tunnels
        ));
        // and the epoch's own demands are untouched
        assert!(epoch.tunnel_demand.iter().all(|&d| d == 0.0));

        let splits = want.program.uniform_splits();
        assert_eq!(
            got.program.mlu(&splits).to_bits(),
            want.program.mlu(&splits).to_bits()
        );
        assert!(got.program.mlu(&splits) > 0.0);
    }

    #[test]
    fn same_epoch_is_the_topology_and_tunnels_not_the_traffic() {
        let topo = harp_datasets::geant();
        let nodes: Vec<usize> = (0..topo.num_nodes()).step_by(3).collect();
        let tunnels = TunnelSet::k_shortest(&topo, &nodes, 3, 0.0);
        let mut tm = TrafficMatrix::zeros(topo.num_nodes());
        tm.set_demand(nodes[0], nodes[1], 2.5);
        let epoch = Instance::compile(&topo, &tunnels, &TrafficMatrix::zeros(topo.num_nodes()));
        // a retargeted copy (shared by pointer) and a separate compile
        assert!(epoch.same_epoch(&epoch.with_traffic(&tm)));
        assert!(epoch.same_epoch(&Instance::compile(&topo, &tunnels, &tm)));

        // one failed link moves every edge feature
        let (_, _, fwd, rev) = topo.links()[0];
        let mut failed = topo.clone();
        for e in [fwd, rev] {
            failed.set_capacity(e, 1e-4).unwrap();
        }
        assert!(!epoch.same_epoch(&Instance::compile(&failed, &tunnels, &tm)));

        // the same topology with another tunnel set
        let fewer = TunnelSet::k_shortest(&topo, &nodes, 2, 0.0);
        assert!(!epoch.same_epoch(&Instance::compile(&topo, &fewer, &tm)));
    }

    #[test]
    fn capacity_scaling_preserves_utilization() {
        let inst = square_instance();
        // scaled demand / scaled cap == raw demand / raw cap
        let raw_ratio = 4.0 / 10.0;
        let f = inst.flow_demands[0] / inst.edge_caps[0];
        assert!((f as f64 - raw_ratio).abs() < 1e-6);
    }

    /// The 4-ring 0-1-2-3, each link `10` one way round and `10 * skew`
    /// the other, and both flows between nodes 0 and 1: a 1-hop and a
    /// 3-hop tunnel each, interleaved in flat order, flow (1, 0)'s the
    /// reverses of flow (0, 1)'s.
    fn ring4_both_ways(skew: f64) -> Instance {
        let mut topo = Topology::new(4);
        for a in 0..4 {
            topo.add_edge(a, (a + 1) % 4, 10.0).unwrap();
            topo.add_edge((a + 1) % 4, a, 10.0 * skew).unwrap();
        }
        let tunnels = TunnelSet::k_shortest(&topo, &[0, 1], 2, 0.0);
        let mut tm = TrafficMatrix::zeros(4);
        tm.set_demand(0, 1, 4.0);
        Instance::compile(&topo, &tunnels, &tm)
    }

    /// The packed table is the buckets' sequences back to back; every
    /// tunnel's CLS row holds the CLS slot and every pair row an edge with
    /// the pair's encoder input (its own, or its reverse at equal
    /// capacity), inside the sequence the tunnel reads; no row is unread.
    fn packed_rows(inst: &Instance) -> Vec<usize> {
        let packed: Vec<usize> = inst
            .buckets
            .iter()
            .flat_map(|b| b.seq_index.iter().copied())
            .collect();
        assert_eq!(packed.len(), inst.table_rows());
        for (t, &row) in inst.cls_row.iter().enumerate() {
            assert_eq!(packed[row], 0, "tunnel {t} CLS slot");
        }
        let ends = |e: usize| {
            let (a, b) = (inst.edge_src[e], inst.edge_dst[e]);
            (a.min(b), a.max(b), inst.edge_caps[e].to_bits())
        };
        for ((&row, &e), &t) in inst
            .pair_row
            .iter()
            .zip(inst.pair_edge.iter())
            .zip(inst.pair_tunnel.iter())
        {
            assert_eq!(ends(packed[row] - 1), ends(e), "pair of tunnel {t}");
            let len = inst.pair_tunnel.iter().filter(|&&p| p == t).count();
            assert!(row > inst.cls_row[t] && row - inst.cls_row[t] <= len);
        }
        let mut rows: Vec<usize> = inst
            .cls_row
            .iter()
            .chain(inst.pair_row.iter())
            .copied()
            .collect();
        rows.sort_unstable();
        rows.dedup();
        assert_eq!(rows, (0..packed.len()).collect::<Vec<_>>());
        packed
    }

    #[test]
    fn packed_rows_point_at_real_edges() {
        // equal capacities: flow (1, 0) reads flow (0, 1)'s rows backwards
        let inst = ring4_both_ways(1.0);
        assert_eq!(
            inst.buckets.iter().map(|b| b.width).collect::<Vec<_>>(),
            vec![2, 4]
        );
        let packed = packed_rows(&inst);
        assert_eq!(packed.len(), 2 + 4);
        assert_eq!(inst.cls_row[..2], inst.cls_row[2..]);
        let reversed: Vec<usize> = inst.pair_row[5..].iter().rev().copied().collect();
        assert_eq!(
            (inst.pair_row[0], &inst.pair_row[1..4]),
            (inst.pair_row[4], &reversed[..])
        );
    }

    /// With every link's two directions at different capacities no two
    /// tunnels have the same encoder inputs, and the layout is one
    /// sequence per tunnel: each row read once, pairs in path order.
    #[test]
    fn asymmetric_capacities_share_no_rows() {
        let inst = ring4_both_ways(2.0);
        let packed = packed_rows(&inst);
        assert_eq!(packed.len(), inst.num_tunnels + inst.num_pairs());
        let mut rows: Vec<usize> = inst
            .cls_row
            .iter()
            .chain(inst.pair_row.iter())
            .copied()
            .collect();
        rows.sort_unstable();
        assert_eq!(rows, (0..packed.len()).collect::<Vec<_>>());
        for (p, (&row, &e)) in inst.pair_row.iter().zip(inst.pair_edge.iter()).enumerate() {
            let t = inst.pair_tunnel[p];
            let pos = p - inst.pair_tunnel.iter().position(|&q| q == t).unwrap();
            assert_eq!((row, packed[row]), (inst.cls_row[t] + pos + 1, e + 1));
        }
    }

    #[test]
    fn program_matches_instance_layout() {
        let inst = square_instance();
        assert_eq!(inst.program.num_tunnels(), inst.num_tunnels);
        assert_eq!(inst.program.num_edges, inst.num_edges);
        let uni = inst.program.uniform_splits();
        assert!(inst.program.mlu(&uni) > 0.0);
    }

    /// GEANT's tunnels at the serving benchmark's k = 8: Yen gives most
    /// flows `(d, s)` the reverses of `(s, d)`'s tunnels, and the links'
    /// two directions have equal capacities, so the table keeps 10 516 of
    /// the 17 904 rows one per tunnel and pair would take.
    #[test]
    fn geant_k8_shares_reversed_tunnels() {
        let topo = harp_datasets::geant();
        let nodes: Vec<usize> = (0..topo.num_nodes()).collect();
        let tunnels = TunnelSet::k_shortest(&topo, &nodes, 8, 0.0);
        let inst = Instance::compile(&topo, &tunnels, &TrafficMatrix::zeros(topo.num_nodes()));
        assert_eq!(inst.num_tunnels, 3_696);
        assert_eq!(inst.num_tunnels + inst.num_pairs(), 17_904);
        assert_eq!(inst.table_rows(), 10_516);
    }
}
