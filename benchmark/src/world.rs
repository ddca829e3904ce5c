//! Seeded inputs. Everything a workload feeds the program is generated here
//! from `--seed`; the program under test only ever sees the generated
//! topologies, tunnels, traffic matrices and failure schedules.

use std::time::Instant;

use harp_core::{train_model, EvalOptions, Harp, HarpConfig, Instance, TrainConfig};
use harp_opt::{MluOracle, PathProgram};
use harp_paths::TunnelSet;
use harp_tensor::ParamStore;
use harp_topology::{total_node_capacity, Topology};
use harp_traffic::{gravity_series, GravityConfig, TrafficMatrix};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Tunnels per flow on GEANT: 462 flows x 8 = 3 696 tunnels.
pub const GEANT_K: usize = 8;
/// Snapshots the served model is trained on in set-up.
pub const TRAIN_SNAPSHOTS: usize = 2;
/// Epochs the served model is trained for in set-up (x2 snapshots = 6
/// sample-steps: enough to leave the initialisation, cheap enough to repeat).
pub const TRAIN_EPOCHS: usize = 3;

/// Seed of the model's initial parameters (and, for the served model, of its
/// training traffic and shuffling).
pub const MODEL_SEED: u64 = 1;

/// Wall time of set-up stages that are also layers (`paths`, `opt`).
#[derive(Clone, Debug, Default)]
pub struct SetupLog {
    /// `TunnelSet::k_shortest` calls, ms.
    pub yen_ms: Vec<f64>,
    /// LP-oracle solves, ms.
    pub oracle_ms: Vec<f64>,
    /// How many oracle solves took the exact simplex path.
    pub oracle_exact: usize,
}

impl SetupLog {
    /// Optimal MLU of `program`, timed.
    pub fn oracle(&mut self, program: &PathProgram) -> f64 {
        let t = Instant::now();
        let sol = MluOracle::default().solve(program);
        self.oracle_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.oracle_exact += usize::from(sol.exact);
        sol.mlu
    }

    /// `TunnelSet::k_shortest`, timed.
    pub fn yen(&mut self, topo: &Topology, edge_nodes: &[usize], k: usize) -> TunnelSet {
        let t = Instant::now();
        let ts = TunnelSet::k_shortest(topo, edge_nodes, k, 0.0);
        self.yen_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ts
    }
}

/// GEANT-22 with its tunnels and a seeded, calibrated traffic series.
pub struct Geant {
    /// The topology (fixed; the seed drives the traffic).
    pub topo: Topology,
    /// `GEANT_K` shortest tunnels for every ordered node pair.
    pub tunnels: TunnelSet,
    /// Gravity traffic series scaled to a uniform-split MLU of 0.7.
    pub tms: Vec<TrafficMatrix>,
}

/// Gravity masses are the nodes' adjacent capacity, with no random skew
/// (`weight_sigma = 0`), so stub PoPs do not demand more than their access
/// links carry and every seed's traffic has the same structure: what the
/// seed draws is each cell's diurnal phase and its per-snapshot noise. A
/// seeded skew made the seeds different problems (LP solve time 0.2-0.5 s,
/// NormMLU 1.2-2.2 across ten seeds) rather than different samples of one.
fn gravity(
    topo: &Topology,
    edge_nodes: &[usize],
    total_demand: f64,
    weight_sigma: f64,
) -> GravityConfig {
    let mut g = GravityConfig::uniform(topo.num_nodes(), total_demand);
    g.edge_nodes = edge_nodes.to_vec();
    g.base_weights = Some(total_node_capacity(topo));
    g.weight_sigma = weight_sigma;
    g
}

/// `n` seeded traffic matrices for GEANT, scaled so the median matrix loads
/// uniform splits to an MLU of 0.7.
fn geant_traffic(topo: &Topology, tunnels: &TunnelSet, seed: u64, n: usize) -> Vec<TrafficMatrix> {
    if n == 0 {
        return Vec::new(); // onboarding needs GEANT only to train the model
    }
    let edge_nodes: Vec<usize> = (0..topo.num_nodes()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let raw = gravity_series(&gravity(topo, &edge_nodes, 1.0, 0.0), &mut rng, n);
    let scale = harp_datasets::calibrate_demand_scale(topo, tunnels, &raw, 0.7);
    raw.iter().map(|tm| tm.scaled(scale)).collect()
}

/// Build GEANT with `n_tms` seeded traffic matrices.
pub fn geant(seed: u64, n_tms: usize, log: &mut SetupLog) -> Geant {
    let topo = harp_datasets::geant();
    let edge_nodes: Vec<usize> = (0..topo.num_nodes()).collect();
    let tunnels = log.yen(&topo, &edge_nodes, GEANT_K);
    let tms = geant_traffic(&topo, &tunnels, seed, n_tms);
    Geant { topo, tunnels, tms }
}

/// Compile `tms` on GEANT and pair each with its LP optimum.
pub fn with_optimum(g: &Geant, tms: &[TrafficMatrix], log: &mut SetupLog) -> Vec<(Instance, f64)> {
    tms.iter()
        .map(|tm| {
            let inst = Instance::compile(&g.topo, &g.tunnels, tm);
            let opt = log.oracle(&inst.program);
            (inst, opt)
        })
        .collect()
}

/// Borrowing view `train_model` takes.
pub fn refs(set: &[(Instance, f64)]) -> Vec<(&Instance, f64)> {
    set.iter().map(|(i, o)| (i, *o)).collect()
}

/// A default-config HARP with its [`MODEL_SEED`] initial parameters.
pub fn fresh_harp() -> (Harp, ParamStore) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let harp = Harp::new(&mut store, &mut rng, HarpConfig::default());
    (harp, store)
}

/// The training configuration every workload uses: one worker, batch of
/// two, no early stop.
pub fn train_config(seed: u64, epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 2,
        seed,
        patience: 0,
        workers: 1,
        ..TrainConfig::default()
    }
}

/// Train the model the serve and onboard workloads use: default `HarpConfig`
/// on [`TRAIN_SNAPSHOTS`] GEANT matrices, validated on one more. The model is
/// an artefact of the benchmark, not an input of a run: its parameters and
/// training traffic come from [`MODEL_SEED`] whatever `--seed` is, so that
/// `--seed` varies the work the program is given and `norm_mlu_mean` across
/// seeds measures that work, not the luck of one initialisation (seeded
/// initialisation alone moved NormMLU between 1.2 and 2.2).
pub fn trained_harp(g: &Geant, log: &mut SetupLog) -> (Harp, ParamStore) {
    let tms = geant_traffic(&g.topo, &g.tunnels, MODEL_SEED, TRAIN_SNAPSHOTS + 1);
    let set = with_optimum(g, &tms, log);
    let (train, val) = set.split_at(TRAIN_SNAPSHOTS);
    let (harp, mut store) = fresh_harp();
    train_model(
        &harp,
        &mut store,
        &refs(train),
        &refs(val),
        train_config(MODEL_SEED, TRAIN_EPOCHS),
        EvalOptions::default(),
    )
    .expect("set-up training on GEANT does not diverge");
    (harp, store)
}

/// Edge nodes of the onboarding workload.
pub const ONBOARD_EDGE_NODES: usize = 24;
/// Tunnels per flow of the onboarding workload.
pub const ONBOARD_K: usize = 4;
/// Total demand of an onboarding traffic matrix over total link capacity.
const ONBOARD_DEMAND_SHARE: f64 = 0.01;
const ONBOARD_SIGMA: f64 = 0.4;

/// The UsCarrier-158 stand-in and the edge nodes variants are onboarded for:
/// the [`ONBOARD_EDGE_NODES`] best-connected nodes of degree >= 3 (fixed, so
/// op cost does not swing with the seed; the seed drives which links vanish,
/// the capacities and the traffic).
pub fn us_carrier() -> (Topology, Vec<usize>) {
    let topo = harp_datasets::us_carrier_like();
    let deg = harp_topology::degrees(&topo);
    let mut nodes: Vec<usize> = (0..topo.num_nodes()).filter(|&u| deg[u] >= 3).collect();
    nodes.sort_by_key(|&u| (std::cmp::Reverse(deg[u]), u));
    nodes.truncate(ONBOARD_EDGE_NODES);
    nodes.sort_unstable();
    (topo, nodes)
}

/// `base` minus the `removed` links, each kept link's capacity scaled by the
/// next value of `factor`.
fn without_links(
    base: &Topology,
    removed: &[(usize, usize)],
    mut factor: impl FnMut() -> f64,
) -> Topology {
    let mut t = Topology::new(base.num_nodes());
    for (u, v, f, _) in base.links() {
        if !removed.contains(&(u, v)) {
            t.add_link(u, v, base.capacity(f) * factor())
                .expect("links of a valid topology re-add cleanly");
        }
    }
    t
}

/// A never-seen variant of `base`: two seeded non-bridge links removed,
/// every remaining link's capacity jittered by +-20 %, and one gravity
/// traffic matrix. Its total demand is a fixed share of the variant's total
/// capacity, which loads the [`ONBOARD_K`]-shortest tunnels to a uniform-split
/// MLU near the 0.7 the model was trained at, without this function needing
/// the tunnels (computing them is part of the timed op).
pub fn us_carrier_variant(
    base: &Topology,
    edge_nodes: &[usize],
    seed: u64,
    index: u64,
) -> (Topology, TrafficMatrix) {
    let mut rng = StdRng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut order = base.links();
    order.shuffle(&mut rng);
    let mut removed: Vec<(usize, usize)> = Vec::new();
    for &(u, v, _, _) in &order {
        if removed.len() == 2 {
            break;
        }
        removed.push((u, v));
        if !without_links(base, &removed, || 1.0).is_strongly_connected(0.0) {
            removed.pop(); // a bridge: keep it
        }
    }
    let topo = without_links(base, &removed, || rng.gen_range(0.8..1.2));
    let total = ONBOARD_DEMAND_SHARE * topo.capacities().iter().sum::<f64>();
    let tm = gravity_series(
        &gravity(&topo, edge_nodes, total, ONBOARD_SIGMA),
        &mut rng,
        1,
    )
    .remove(0);
    (topo, tm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let mut log = SetupLog::default();
        let a = geant(3, 2, &mut log);
        let b = geant(3, 2, &mut log);
        let c = geant(4, 2, &mut log);
        assert_eq!(a.tms, b.tms);
        assert_ne!(a.tms, c.tms);
        assert_eq!(a.tunnels.num_tunnels(), 462 * GEANT_K);
        assert_eq!(log.yen_ms.len(), 3);
    }

    #[test]
    fn variants_drop_two_links_and_stay_connected() {
        let (base, nodes) = us_carrier();
        assert_eq!(nodes.len(), ONBOARD_EDGE_NODES);
        let (v0, tm0) = us_carrier_variant(&base, &nodes, 1, 0);
        let (v0b, tm0b) = us_carrier_variant(&base, &nodes, 1, 0);
        let (v1, _) = us_carrier_variant(&base, &nodes, 1, 1);
        assert_eq!(v0.links().len(), base.links().len() - 2);
        assert!(v0.is_strongly_connected(0.0));
        assert_eq!(v0.capacities(), v0b.capacities());
        assert_eq!(tm0, tm0b);
        assert_ne!(v0.capacities(), v1.capacities());
    }
}
