//! `TunnelSet::k_shortest` against the heap-Dijkstra Yen it replaced. That
//! implementation is kept below verbatim, over the public `Topology` and
//! `Path` API only, as the oracle: the tunnels must be the same paths in the
//! same order, bit for bit, on random graphs (zero-capacity edges, capacity
//! thresholds, disconnected pairs, k = 1..=8) and on every named topology
//! the workspace computes tunnels for.

use harp_paths::{k_shortest_paths, TunnelSet};
use harp_topology::{NodeId, Topology};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The search and Yen loop `harp-paths` shipped before the BFS rewrite.
mod reference {
    use std::cmp::Ordering;
    use std::collections::{BTreeSet, BinaryHeap};

    use harp_paths::Path;
    use harp_topology::{EdgeId, NodeId, Topology};

    #[derive(Clone, Debug, Default)]
    pub struct PathFilter {
        pub banned_edges: Vec<bool>,
        pub banned_nodes: Vec<bool>,
    }

    impl PathFilter {
        pub fn none(topo: &Topology) -> Self {
            PathFilter {
                banned_edges: vec![false; topo.num_edges()],
                banned_nodes: vec![false; topo.num_nodes()],
            }
        }
    }

    #[derive(PartialEq, Eq)]
    struct HeapItem {
        dist: u64,
        node: NodeId,
    }

    impl Ord for HeapItem {
        fn cmp(&self, other: &Self) -> Ordering {
            // min-heap by (dist, node id) for determinism
            other
                .dist
                .cmp(&self.dist)
                .then_with(|| other.node.cmp(&self.node))
        }
    }

    impl PartialOrd for HeapItem {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    pub fn shortest_path(
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        filter: &PathFilter,
        cap_threshold: f64,
    ) -> Option<Path> {
        assert!(
            src < topo.num_nodes() && dst < topo.num_nodes(),
            "endpoint range"
        );
        if src == dst || filter.banned_nodes[src] || filter.banned_nodes[dst] {
            return None;
        }
        let n = topo.num_nodes();
        let mut dist = vec![u64::MAX; n];
        let mut pred_edge: Vec<Option<EdgeId>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[src] = 0;
        heap.push(HeapItem { dist: 0, node: src });

        while let Some(HeapItem { dist: d, node: u }) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            if u == dst {
                break;
            }
            for &(v, e) in topo.out_neighbors(u) {
                if filter.banned_edges[e] || filter.banned_nodes[v] {
                    continue;
                }
                if topo.capacity(e) <= cap_threshold {
                    continue;
                }
                let nd = d + 1;
                let better = nd < dist[v]
                    || (nd == dist[v]
                        && pred_edge[v].is_some_and(|pe| topo.edge(e).src < topo.edge(pe).src));
                if better {
                    dist[v] = nd;
                    pred_edge[v] = Some(e);
                    heap.push(HeapItem { dist: nd, node: v });
                }
            }
        }

        if dist[dst] == u64::MAX {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = dst;
        while cur != src {
            let e = pred_edge[cur].expect("predecessor chain");
            edges.push(e);
            cur = topo.edge(e).src;
        }
        edges.reverse();
        Some(Path(edges))
    }

    type CandKey = (usize, Vec<NodeId>);

    pub fn k_shortest_paths(
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        k: usize,
        cap_threshold: f64,
    ) -> Vec<Path> {
        if k == 0 {
            return Vec::new();
        }
        let base_filter = PathFilter::none(topo);
        let first = match shortest_path(topo, src, dst, &base_filter, cap_threshold) {
            Some(p) => p,
            None => return Vec::new(),
        };
        let mut result: Vec<Path> = vec![first];
        let mut candidates: BTreeSet<(CandKey, Path)> = BTreeSet::new();

        while result.len() < k {
            let last = match result.last() {
                Some(p) => p.clone(),
                None => break,
            };
            let last_nodes = last.nodes(topo);

            for spur_idx in 0..last.len() {
                let spur_node = last_nodes[spur_idx];
                let root_edges = &last.0[..spur_idx];

                let mut filter = PathFilter::none(topo);
                for p in &result {
                    if p.0.len() > spur_idx && p.0[..spur_idx] == *root_edges {
                        filter.banned_edges[p.0[spur_idx]] = true;
                    }
                }
                for &n in &last_nodes[..spur_idx] {
                    filter.banned_nodes[n] = true;
                }

                if let Some(spur) = shortest_path(topo, spur_node, dst, &filter, cap_threshold) {
                    let mut total = root_edges.to_vec();
                    total.extend_from_slice(&spur.0);
                    let total = Path(total);
                    debug_assert!(total.is_valid(topo, src, dst));
                    if !result.contains(&total) {
                        let key = (total.len(), total.nodes(topo));
                        candidates.insert((key, total));
                    }
                }
            }

            match candidates.iter().next().cloned() {
                Some(best) => {
                    candidates.remove(&best);
                    result.push(best.1);
                }
                None => break,
            }
        }
        result
    }
}

/// The oracle's tunnel set: `TunnelSet::k_shortest`'s flow loop over
/// [`reference::k_shortest_paths`].
fn reference_tunnels(topo: &Topology, edge_nodes: &[NodeId], k: usize, thr: f64) -> TunnelSet {
    let (mut flows, mut tunnels) = (Vec::new(), Vec::new());
    for &s in edge_nodes {
        for &t in edge_nodes {
            let ps = if s == t {
                Vec::new()
            } else {
                reference::k_shortest_paths(topo, s, t, k, thr)
            };
            if !ps.is_empty() {
                flows.push((s, t));
                tunnels.push(ps);
            }
        }
    }
    TunnelSet::from_parts(flows, tunnels)
}

/// A random directed graph on `n` nodes: edges inserted in shuffled order
/// (so edge ids say nothing about node ids), some as links and some one-way,
/// capacities drawn from a few tiers including 0, density from sparse
/// (disconnected pairs) to dense (many equal-length paths).
fn random_topology(n: usize, rng: &mut StdRng) -> Topology {
    const CAPS: [f64; 4] = [0.0, 0.5, 1.0, 2.0];
    let density = rng.gen_range(0.02..0.35);
    let mut pairs: Vec<(NodeId, NodeId)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect();
    pairs.shuffle(rng);
    let mut t = Topology::new(n);
    for (u, v) in pairs {
        if !rng.gen_bool(density) {
            continue;
        }
        let (a, b) = if rng.gen_bool(0.5) { (u, v) } else { (v, u) };
        t.add_edge(a, b, CAPS[rng.gen_range(0..4usize)]).unwrap();
        if rng.gen_bool(0.8) {
            t.add_edge(b, a, CAPS[rng.gen_range(0..4usize)]).unwrap();
        }
    }
    t
}

/// Nodes of degree >= 3, best-connected first, the first `n` of them in id
/// order (how the onboarding benchmark picks UsCarrier's edge nodes).
fn top_degree(topo: &Topology, n: usize) -> Vec<NodeId> {
    let deg = harp_topology::degrees(topo);
    let mut nodes: Vec<NodeId> = (0..topo.num_nodes()).filter(|&u| deg[u] >= 3).collect();
    nodes.sort_by_key(|&u| (std::cmp::Reverse(deg[u]), u));
    nodes.truncate(n);
    nodes.sort_unstable();
    nodes
}

fn assert_same_tunnels(topo: &Topology, edge_nodes: &[NodeId], k: usize) {
    let got = TunnelSet::k_shortest(topo, edge_nodes, k, 0.0);
    assert!(got.num_flows() > 0);
    assert_eq!(got, reference_tunnels(topo, edge_nodes, k, 0.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same flows, same paths, same order as the oracle, for the whole
    /// tunnel set (one reused search scratch across every flow) and for
    /// single-pair calls.
    #[test]
    fn k_shortest_equals_heap_dijkstra_yen(
        n in 2usize..=40,
        k in 1usize..=8,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = random_topology(n, &mut rng);
        let thr = [0.0, 0.5, 1.0][rng.gen_range(0..3usize)];
        let mut nodes: Vec<NodeId> = (0..n).collect();
        nodes.shuffle(&mut rng);
        nodes.truncate(rng.gen_range(2..=n.min(10)));
        let got = TunnelSet::k_shortest(&topo, &nodes, k, thr);
        prop_assert_eq!(got, reference_tunnels(&topo, &nodes, k, thr));
        let (s, t) = (nodes[0], nodes[1]);
        prop_assert_eq!(
            k_shortest_paths(&topo, s, t, k, thr),
            reference::k_shortest_paths(&topo, s, t, k, thr)
        );
    }
}

#[test]
fn geant_k8_equals_reference() {
    let topo = harp_datasets::geant();
    assert_same_tunnels(&topo, &(0..topo.num_nodes()).collect::<Vec<_>>(), 8);
}

#[test]
fn abilene_k8_equals_reference() {
    let topo = harp_datasets::abilene();
    assert_same_tunnels(&topo, &(0..topo.num_nodes()).collect::<Vec<_>>(), 8);
}

#[test]
fn us_carrier_k4_equals_reference_whole_and_two_links_down() {
    let base = harp_datasets::us_carrier_like();
    let nodes = top_degree(&base, 24);
    assert_same_tunnels(&base, &nodes, 4);
    // Rebuilt without two links: every later edge id shifts.
    let links = base.links();
    let mut cut = Topology::new(base.num_nodes());
    for (i, &(u, v, f, _)) in links.iter().enumerate() {
        if i != 7 && i != links.len() / 2 {
            cut.add_link(u, v, base.capacity(f)).unwrap();
        }
    }
    assert_same_tunnels(&cut, &nodes, 4);
}

#[test]
fn kdl_k4_equals_reference() {
    let topo = harp_datasets::kdl_like();
    assert_same_tunnels(&topo, &top_degree(&topo, 40), 4);
}
