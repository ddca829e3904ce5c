//! Integration tests for [`harp_core::analyze_determinism`]: the three
//! paper models must certify clean on a real compiled instance, and each
//! class of seeded determinism violation must be detected with a
//! structured report naming the offending op.

use harp_core::{
    analyze_determinism, Dote, EpochCache, Harp, HarpConfig, Instance, SplitModel, Teal, TealConfig,
};
use harp_paths::TunnelSet;
use harp_tensor::{ParamStore, Tape, Var};
use harp_topology::Topology;
use harp_traffic::TrafficMatrix;
use rand::{rngs::StdRng, SeedableRng};

fn tiny_instance() -> Instance {
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

fn tiny_harp(store: &mut ParamStore) -> Harp {
    let mut rng = StdRng::seed_from_u64(7);
    let cfg = HarpConfig {
        gnn_layers: 1,
        gnn_hidden: 4,
        d_model: 8,
        settrans_layers: 1,
        heads: 1,
        d_ff: 8,
        mlp_hidden: 8,
        rau_iters: 2,
    };
    Harp::new(store, &mut rng, cfg)
}

#[test]
fn harp_certifies_clean_with_a_real_epoch_cache() {
    let inst = tiny_instance();
    let mut store = ParamStore::new();
    let harp = tiny_harp(&mut store);
    let report = analyze_determinism(&harp, &store, &inst);
    assert!(report.is_clean(), "{report}");
    assert!(report.has_epoch_cache);
    assert!(report.cache.has("cache-spliced"), "{report}");
}

#[test]
fn dote_and_teal_certify_clean_without_a_cache() {
    let inst = tiny_instance();
    let mut rng = StdRng::seed_from_u64(11);

    let mut store = ParamStore::new();
    let dote = Dote::new(&mut store, &mut rng, &inst, &[16]);
    let report = analyze_determinism(&dote, &store, &inst);
    assert!(report.is_clean(), "{report}");
    assert!(!report.has_epoch_cache);
    assert!(report.cache.has("cache-unused"), "{report}");

    let mut store = ParamStore::new();
    let teal = Teal::new(
        &mut store,
        &mut rng,
        TealConfig {
            hidden: 8,
            layers: 2,
            policy_hidden: 8,
            tunnels_per_flow: 2,
        },
    );
    let report = analyze_determinism(&teal, &store, &inst);
    assert!(report.is_clean(), "{report}");
    assert!(report.cache.has("cache-unused"), "{report}");
}

/// A HARP whose cached forward head silently drifts from the full
/// forward's: the seeded "cached/full subgraph mismatch" violation.
struct DriftingCachedHarp(Harp);

impl SplitModel for DriftingCachedHarp {
    fn forward(&self, tape: &mut Tape, store: &ParamStore, instance: &Instance) -> Var {
        self.0.forward(tape, store, instance)
    }

    fn name(&self) -> &'static str {
        "HARP-drifting-cache"
    }

    fn precompute_epoch(&self, store: &ParamStore, instance: &Instance) -> Option<EpochCache> {
        self.0.precompute_epoch(store, instance)
    }

    fn forward_cached(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        instance: &Instance,
        cache: &EpochCache,
    ) -> Var {
        let out = self.0.forward_cached(tape, store, instance, cache);
        // The kind of bug this pass exists to catch: an extra op on the
        // cached path only, so cached != full on some (here: all) inputs.
        tape.mul_scalar(out, 1.0 + 1e-3)
    }
}

#[test]
fn seeded_cached_full_subgraph_mismatch_is_detected() {
    let inst = tiny_instance();
    let mut store = ParamStore::new();
    let model = DriftingCachedHarp(tiny_harp(&mut store));
    let report = analyze_determinism(&model, &store, &inst);
    assert!(!report.is_clean(), "{report}");
    assert!(report.cache.has("cache-structure-mismatch"), "{report}");
    let d = report
        .cache
        .diagnostics
        .iter()
        .find(|d| d.code == "cache-structure-mismatch")
        .expect("mismatch diagnostic");
    // The structured report names the offending op on the cached path.
    assert!(
        d.message.contains("MulScalar"),
        "names the op: {}",
        d.message
    );
    assert!(d.node.is_some(), "anchored to a full-tape node");
}

#[test]
fn seeded_stale_projection_is_detected_as_divergence() {
    // The projected rows the head reads are stale (e.g. rebuilt from the
    // table with an old MLP1 weight).
    let inst = tiny_instance();
    let mut store = ParamStore::new();
    let harp = tiny_harp(&mut store);
    let mut cache = harp
        .precompute_epoch(&store, &inst)
        .expect("HARP has an epoch cache");
    let mut projected = (*cache.projected).clone();
    projected[0] = f32::from_bits(projected[0].to_bits() ^ 1);
    cache.projected = std::sync::Arc::new(projected);

    let mut full = Tape::new();
    let full_out = harp.forward(&mut full, &store, &inst);
    let mut cached = Tape::new();
    let cached_out = harp.forward_cached(&mut cached, &store, &inst, &cache);
    let report = harp_verify::check_epoch_cache(&full, full_out, &cached, cached_out);
    assert!(report.has("cache-divergence"), "{report}");
    assert!(!report.has("cache-structure-mismatch"), "{report}");
}

#[test]
fn seeded_stale_pair_projections_are_detected_as_divergence() {
    // Every pair row stale: the rows the RAU gathers per request
    // (`Tape::constant_rows`), one splice per RAU iteration.
    let inst = tiny_instance();
    let mut store = ParamStore::new();
    let harp = tiny_harp(&mut store);
    let mut cache = harp
        .precompute_epoch(&store, &inst)
        .expect("HARP has an epoch cache");
    let rows = inst.num_tunnels + inst.num_pairs();
    let width = cache.projected.len() / rows;
    let mut projected = (*cache.projected).clone();
    for row in projected.chunks_mut(width).skip(inst.num_tunnels) {
        row[0] = f32::from_bits(row[0].to_bits() ^ 1);
    }
    cache.projected = std::sync::Arc::new(projected);

    let mut full = Tape::new();
    let full_out = harp.forward(&mut full, &store, &inst);
    let mut cached = Tape::new();
    let cached_out = harp.forward_cached(&mut cached, &store, &inst, &cache);
    let report = harp_verify::check_epoch_cache(&full, full_out, &cached, cached_out);
    assert!(!report.has("cache-structure-mismatch"), "{report}");
    let divergent = report
        .diagnostics
        .iter()
        .filter(|d| d.code == "cache-divergence")
        .count();
    assert_eq!(
        divergent, 2,
        "one per RAU iteration, MLP1's rows intact: {report}"
    );
}
