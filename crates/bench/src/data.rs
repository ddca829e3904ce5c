//! Shared dataset setups and the in-memory oracle memo.
//!
//! Instances are compiled **per cluster** and dropped after use — a full
//! AnonNet run holds ~1000 snapshots and compiling them all at once would
//! hold gigabytes of attention masks.

use std::cell::OnceCell;
use std::collections::HashMap;

use harp_core::Instance;
use harp_datasets::{
    abilene, calibrate_demand_scale, geant, kdl_small, AnonNetConfig, AnonNetDataset,
};
use harp_opt::{solve_fw, FwConfig, MluOracle, PathProgram};
use harp_paths::TunnelSet;
use harp_topology::Topology;
use harp_traffic::{gravity_series, GravityConfig, TrafficMatrix};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};

/// AnonNet and the three fixed-topology setups, each built on first use
/// and then shared by every experiment of the run.
pub struct Datasets {
    quick: bool,
    anonnet: OnceCell<AnonNetDataset>,
    geant: OnceCell<StaticSetup>,
    abilene: OnceCell<StaticSetup>,
    kdl: OnceCell<StaticSetup>,
}

impl Datasets {
    /// Nothing is built until first asked for.
    pub fn new(quick: bool) -> Datasets {
        Datasets {
            quick,
            anonnet: OnceCell::new(),
            geant: OnceCell::new(),
            abilene: OnceCell::new(),
            kdl: OnceCell::new(),
        }
    }

    /// AnonNet (deterministic; quick mode keeps the default scale, full
    /// mode lengthens clusters).
    pub fn anonnet(&self) -> &AnonNetDataset {
        self.anonnet.get_or_init(|| {
            let cfg = if self.quick {
                AnonNetConfig::default()
            } else {
                AnonNetConfig {
                    cluster_size_range: (12, 40),
                    large_cluster_size: 120,
                    ..AnonNetConfig::default()
                }
            };
            AnonNetDataset::generate(&cfg)
        })
    }

    /// [`geant_setup`].
    pub fn geant(&self) -> &StaticSetup {
        self.geant.get_or_init(|| geant_setup(self.quick))
    }

    /// [`abilene_setup`].
    pub fn abilene(&self) -> &StaticSetup {
        self.abilene.get_or_init(|| abilene_setup(self.quick))
    }

    /// [`kdl_setup`].
    pub fn kdl(&self) -> &StaticSetup {
        self.kdl.get_or_init(|| kdl_setup(self.quick))
    }
}

/// Compile every snapshot of one AnonNet cluster into instances (aligned
/// with `clusters[cid].snapshots`).
pub fn compile_cluster(ds: &AnonNetDataset, cid: usize) -> Vec<Instance> {
    let cluster = &ds.clusters[cid];
    cluster
        .snapshots
        .iter()
        .map(|s| {
            let topo = cluster.topo_at(s);
            Instance::compile(&topo, &cluster.tunnels, &s.tm)
        })
        .collect()
}

/// Borrowed `(instance, optimum)` pairs, the form training takes.
pub fn refs(pairs: &[(Instance, f64)]) -> Vec<(&Instance, f64)> {
    pairs.iter().map(|(inst, opt)| (inst, *opt)).collect()
}

/// Optimal MLUs by snapshot key, held in memory for one process, and a
/// tally of the optima read since the last [`Oracles::take_tally`].
#[derive(Default)]
pub struct Oracles {
    /// key → (optimal MLU, solved exactly by the simplex)
    memo: HashMap<String, (f64, bool)>,
    tally: Tally,
}

/// Which solver produced the optima an experiment read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Memo values read (hits and fresh solves).
    pub read: usize,
    /// Of those, the ones the simplex solved exactly.
    pub exact: usize,
    /// Frank–Wolfe optima solved outside the memo.
    pub frank_wolfe: usize,
}

impl Tally {
    /// The scoreboard's denominator column.
    pub fn denominator(&self) -> String {
        if self.read > 0 {
            let share = 100.0 * self.exact as f64 / self.read as f64;
            format!("simplex-exact {share:.1} % of {}", self.read)
        } else if self.frank_wolfe > 0 {
            "Frank–Wolfe".to_string()
        } else {
            "—".to_string()
        }
    }
}

impl Oracles {
    /// Optimal MLU for `key`, solving `program` on a miss (warm-started
    /// from `warm` when given). Returns `(mlu, splits_if_solved)` — splits
    /// are only available on a fresh solve, letting callers chain warm
    /// starts within a cluster.
    pub fn get_or_solve(
        &mut self,
        key: &str,
        program: &PathProgram,
        warm: Option<&[f64]>,
    ) -> (f64, Option<Vec<f64>>) {
        let (mlu, exact, splits) = match self.memo.get(key) {
            Some(&(mlu, exact)) => (mlu, exact, None),
            None => {
                let sol = MluOracle::default().solve_warm(program, warm);
                self.memo.insert(key.to_string(), (sol.mlu, sol.exact));
                (sol.mlu, sol.exact, Some(sol.splits))
            }
        };
        self.tally.read += 1;
        self.tally.exact += usize::from(exact);
        (mlu, splits)
    }

    /// Optimal MLU for one keyed instance, solved cold on a miss.
    pub fn solve(&mut self, key: String, inst: &Instance) -> f64 {
        self.get_or_solve(&key, &inst.program, None).0
    }

    /// Optimal MLUs of keyed instances in order, each fresh solve
    /// warm-started from the previous fresh solve's optimum.
    pub fn chain<'a>(
        &mut self,
        keyed: impl IntoIterator<Item = (String, &'a Instance)>,
    ) -> Vec<f64> {
        let mut warm: Option<Vec<f64>> = None;
        keyed
            .into_iter()
            .map(|(key, inst)| {
                let (mlu, splits) = self.get_or_solve(&key, &inst.program, warm.as_deref());
                if let Some(s) = splits {
                    warm = Some(s);
                }
                mlu
            })
            .collect()
    }

    /// Optimal MLUs for every snapshot of AnonNet cluster `cid`.
    pub fn cluster(&mut self, cid: usize, instances: &[Instance]) -> Vec<f64> {
        self.chain(
            instances
                .iter()
                .enumerate()
                .map(|(sid, inst)| (format!("anonnet/c{cid}/s{sid}"), inst)),
        )
    }

    /// The certified Frank–Wolfe optimum of `program` (not memoized).
    pub fn frank_wolfe(&mut self, program: &PathProgram) -> f64 {
        self.tally.frank_wolfe += 1;
        solve_fw(program, FwConfig::default()).mlu
    }

    /// The tally since the previous call, resetting it.
    pub fn take_tally(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }
}

/// A failure/jitter-augmented copy of a snapshot instance, used to enrich
/// small training sets (documented substitution: the paper's real training
/// windows span thousands of snapshots with hundreds of capacity
/// configurations; our generated clusters are far shorter, so we synthesize
/// additional capacity configurations from the same distribution family —
/// full single-link failures and partial capacity reductions).
///
/// Returns `None` when no link can fail without stranding some flow.
pub fn augmented_instance(
    cluster: &harp_datasets::Cluster,
    snapshot: &harp_datasets::Snapshot,
    rng: &mut StdRng,
    zero_cap: f64,
) -> Option<Instance> {
    use rand::Rng;
    let mut topo = cluster.topo_at(snapshot);
    if rng.gen_bool(0.5) {
        // full failure of a link every flow can survive
        let links = topo.links();
        let candidates: Vec<(usize, usize)> = links
            .iter()
            .filter(|&&(_, _, f, r)| {
                // every flow must keep >= 1 tunnel avoiding both directions
                let mut blocked = vec![0usize; cluster.tunnels.num_flows()];
                let mut counts = vec![0usize; cluster.tunnels.num_flows()];
                for (fl, _, path) in cluster.tunnels.iter_flat() {
                    counts[fl] += 1;
                    if path.0.contains(&f) || path.0.contains(&r) {
                        blocked[fl] += 1;
                    }
                }
                blocked.iter().zip(&counts).all(|(b, c)| b < c)
            })
            .map(|&(_, _, f, r)| (f, r))
            .collect();
        let &(f, r) = candidates.choose(rng)?;
        topo.set_capacity(f, zero_cap).ok()?;
        topo.set_capacity(r, zero_cap).ok()?;
    } else {
        // partial capacity reduction on 1-3 random links
        let links = topo.links();
        for _ in 0..rng.gen_range(1..=3) {
            let &(_, _, f, r) = links.choose(rng)?;
            let factor = rng.gen_range(0.3..0.9);
            let c = topo.capacity(f);
            topo.set_capacity(f, c * factor).ok()?;
            let c = topo.capacity(r);
            topo.set_capacity(r, c * factor).ok()?;
        }
    }
    Some(Instance::compile(&topo, &cluster.tunnels, &snapshot.tm))
}

/// A topology-variant augmentation: remove one random link (keeping the
/// edge nodes strongly connected), recompute the tunnel set, and compile
/// the given snapshot's TM on it. This multiplies the number of distinct
/// *topologies* (not just capacity configurations) seen in training, the
/// axis HARP must generalize over.
pub fn topology_variant(
    cluster: &harp_datasets::Cluster,
    snapshot: &harp_datasets::Snapshot,
    tunnels_per_flow: usize,
    rng: &mut StdRng,
) -> Option<(Topology, TunnelSet)> {
    let topo = cluster.topo_at(snapshot);
    let links = topo.links();
    let mut order: Vec<usize> = (0..links.len()).collect();
    order.shuffle(rng);
    for li in order {
        let (_, _, f, r) = links[li];
        let keep: Vec<bool> = (0..topo.num_edges()).map(|e| e != f && e != r).collect();
        let mut t2 = Topology::new(topo.num_nodes());
        for (e, edge) in topo.edges().iter().enumerate() {
            if keep[e] {
                t2.add_edge(edge.src, edge.dst, edge.capacity).ok()?;
            }
        }
        // all edge nodes must still reach each other
        let tun = TunnelSet::k_shortest(&t2, &cluster.edge_nodes, tunnels_per_flow, 0.0);
        if tun.num_flows() == cluster.tunnels.num_flows() {
            return Some((t2, tun));
        }
    }
    None
}

/// A fixed-topology setup: one topology, one tunnel set, a calibrated TM
/// series split into train/validation/test.
pub struct StaticSetup {
    /// Human-readable dataset name (also the oracle key prefix).
    pub name: &'static str,
    /// The topology.
    pub topo: Topology,
    /// Tunnels (k-shortest paths over the configured edge nodes).
    pub tunnels: TunnelSet,
    /// Calibrated traffic matrices.
    pub tms: Vec<TrafficMatrix>,
    /// Index ranges: `0..train_end` train, `train_end..val_end` validation,
    /// `val_end..` test.
    pub train_end: usize,
    /// End of the validation range.
    pub val_end: usize,
}

impl StaticSetup {
    fn build(
        name: &'static str,
        topo: Topology,
        edge_nodes: Vec<usize>,
        k_paths: usize,
        n_tms: usize,
        seed: u64,
        train_frac: f64,
        target_mlu: f64,
    ) -> StaticSetup {
        let tunnels = TunnelSet::k_shortest(&topo, &edge_nodes, k_paths, 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cfg = GravityConfig::uniform(topo.num_nodes(), 1.0);
        cfg.edge_nodes = edge_nodes;
        // gravity masses ~ sqrt(attached capacity): big PoPs source big
        // traffic so stub access links don't trivially dominate the MLU
        // (which would leave the TE problem without routing freedom), while
        // the sqrt keeps the demand tail mild enough to learn from
        cfg.base_weights = Some(
            harp_topology::total_node_capacity(&topo)
                .into_iter()
                .map(f64::sqrt)
                .collect(),
        );
        cfg.weight_sigma = 0.4;
        let tms = gravity_series(&cfg, &mut rng, n_tms);
        let pilot = tms.len().min(12);
        let scale = calibrate_demand_scale(&topo, &tunnels, &tms[..pilot], target_mlu);
        let tms: Vec<TrafficMatrix> = tms.iter().map(|t| t.scaled(scale)).collect();
        let train_end = ((n_tms as f64) * train_frac) as usize;
        let val_end = train_end + (n_tms - train_end) / 2;
        StaticSetup {
            name,
            topo,
            tunnels,
            tms,
            train_end,
            val_end,
        }
    }

    /// Compile instance `i` (TM `i` on the base topology).
    pub fn instance(&self, i: usize) -> Instance {
        Instance::compile(&self.topo, &self.tunnels, &self.tms[i])
    }

    /// Compile instance `i` on a perturbed topology (tunnels unchanged, as
    /// in the paper's failure drills where tunnels are *not* recomputed).
    pub fn instance_on(&self, topo: &Topology, i: usize) -> Instance {
        Instance::compile(topo, &self.tunnels, &self.tms[i])
    }

    /// Compile instance `i` with an alternative tunnel set (e.g. shuffled).
    pub fn instance_with_tunnels(&self, tunnels: &TunnelSet, i: usize) -> Instance {
        Instance::compile(&self.topo, tunnels, &self.tms[i])
    }

    /// Base-topology instances at `idx` with their optima (keyed
    /// `<name>/base/<i>`, warm-chained in order).
    pub fn solved(&self, oracles: &mut Oracles, idx: &[usize]) -> Vec<(Instance, f64)> {
        let insts: Vec<Instance> = idx.iter().map(|&i| self.instance(i)).collect();
        let keyed = idx
            .iter()
            .zip(&insts)
            .map(|(i, inst)| (format!("{}/base/{i}", self.name), inst));
        let opts = oracles.chain(keyed);
        insts.into_iter().zip(opts).collect()
    }

    /// Training indices, stride-sampled to about `cap`.
    pub fn train_indices(&self, cap: usize) -> Vec<usize> {
        let stride = (self.train_end / cap.min(self.train_end)).max(1);
        (0..self.train_end).step_by(stride).collect()
    }

    /// Validation indices.
    pub fn val_indices(&self) -> Vec<usize> {
        (self.train_end..self.val_end).collect()
    }

    /// Test-range indices, optionally subsampled to at most `max`.
    pub fn test_indices(&self, max: usize) -> Vec<usize> {
        let all: Vec<usize> = (self.val_end..self.tms.len()).collect();
        if all.len() <= max {
            all
        } else {
            let stride = all.len() as f64 / max as f64;
            (0..max)
                .map(|i| all[(i as f64 * stride) as usize])
                .collect()
        }
    }
}

/// GEANT with 8 shortest paths per flow, all nodes as edge nodes (§5.5:
/// two weeks of matrices; quick mode shrinks the series).
pub fn geant_setup(quick: bool) -> StaticSetup {
    let topo = geant();
    let n = topo.num_nodes();
    let count = if quick { 64 } else { 192 };
    StaticSetup::build("geant", topo, (0..n).collect(), 8, count, 41, 0.75, 0.7)
}

/// Abilene with 8 shortest paths per flow (§5.5: eight weeks of matrices).
pub fn abilene_setup(quick: bool) -> StaticSetup {
    let topo = abilene();
    let n = topo.num_nodes();
    let count = if quick { 64 } else { 256 };
    StaticSetup::build("abilene", topo, (0..n).collect(), 8, count, 42, 0.75, 0.7)
}

/// KDL-small with 4 shortest paths (the paper's KDL protocol: 278 matrices,
/// 170 train / 30 validation / 78 test; quick mode scales down). Edge nodes
/// are a seeded 24-node subset (documented substitution — full-mesh flows
/// on a 96-node graph would not fit CPU training).
pub fn kdl_setup(quick: bool) -> StaticSetup {
    let topo = kdl_small();
    let mut rng = StdRng::seed_from_u64(77);
    // edge nodes must have routing freedom: require degree >= 3
    let deg = harp_topology::degrees(&topo);
    let mut nodes: Vec<usize> = (0..topo.num_nodes()).filter(|&u| deg[u] >= 3).collect();
    nodes.shuffle(&mut rng);
    let edge_nodes: Vec<usize> = {
        let mut e = nodes[..24].to_vec();
        e.sort_unstable();
        e
    };
    let count = if quick { 72 } else { 278 };
    StaticSetup::build("kdl", topo, edge_nodes, 4, count, 43, 170.0 / 278.0, 0.7)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ds() -> AnonNetDataset {
        AnonNetDataset::generate(&AnonNetConfig::tiny())
    }

    #[test]
    fn oracle_memo_hit_returns_no_splits() {
        let ds = tiny_ds();
        let instances = compile_cluster(&ds, 0);
        let mut oracles = Oracles::default();
        let (mlu, splits) = oracles.get_or_solve("k", &instances[0].program, None);
        assert!(mlu.is_finite() && splits.is_some());
        // hit: no splits returned, the same value, still tallied
        let (mlu2, splits2) = oracles.get_or_solve("k", &instances[0].program, None);
        assert!(splits2.is_none());
        assert_eq!(mlu2.to_bits(), mlu.to_bits());
        assert_eq!(oracles.take_tally().read, 2);
        assert_eq!(oracles.take_tally(), Tally::default());
    }

    #[test]
    fn augmented_instance_changes_capacities_only() {
        let ds = tiny_ds();
        let cluster = &ds.clusters[0];
        let snap = &cluster.snapshots[0];
        let mut rng = StdRng::seed_from_u64(1);
        let inst = augmented_instance(cluster, snap, &mut rng, ds.cfg.zero_cap)
            .expect("augmentation possible");
        assert_eq!(inst.num_tunnels, cluster.tunnels.num_tunnels());
        // demands unchanged
        let base = compile_cluster(&ds, 0).remove(0);
        assert_eq!(inst.flow_demands.len(), base.flow_demands.len());
    }

    #[test]
    fn topology_variant_preserves_flows() {
        let ds = tiny_ds();
        let cluster = &ds.clusters[0];
        let mut rng = StdRng::seed_from_u64(2);
        if let Some((topo, tun)) = topology_variant(
            cluster,
            &cluster.snapshots[0],
            ds.cfg.tunnels_per_flow,
            &mut rng,
        ) {
            assert_eq!(tun.num_flows(), cluster.tunnels.num_flows());
            assert_eq!(topo.num_edges(), cluster.topo.num_edges() - 2);
        }
    }

    #[test]
    fn static_setup_indices_are_consistent() {
        let setup = abilene_setup(true);
        assert!(setup.train_end < setup.val_end);
        assert!(setup.val_end < setup.tms.len());
        let test = setup.test_indices(5);
        assert!(test.len() <= 5);
        assert!(test.iter().all(|&i| i >= setup.val_end));
        let inst = setup.instance(0);
        assert!(inst.num_tunnels > 0);
    }
}
