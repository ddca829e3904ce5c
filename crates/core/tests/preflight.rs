//! Acceptance tests for `train_model`'s debug-build pre-flight: in real
//! HARP / DOTE / TEAL training graphs, built on quickstart-style instances,
//! every injected parameter and every recorded node reaches the loss; a
//! model with an orphan parameter makes `train_model` panic in debug builds
//! (the one test ignored in release runs).

use harp_core::{
    mlu_loss, train_model, Dote, EvalOptions, Harp, HarpConfig, Instance, SplitModel, Teal,
    TealConfig, TrainConfig,
};
use harp_paths::TunnelSet;
use harp_tensor::{ParamStore, Tape, Var};
use harp_topology::Topology;
use harp_traffic::{gravity_series, GravityConfig};
use rand::{rngs::StdRng, SeedableRng};

/// The quickstart WAN: a 6-ring with two chords, 3-shortest-path tunnels,
/// one gravity-model snapshot.
fn quickstart_instance() -> Instance {
    let mut topo = Topology::new(6);
    for i in 0..6 {
        topo.add_link(i, (i + 1) % 6, 100.0).expect("ring link");
    }
    topo.add_link(0, 3, 60.0).expect("chord");
    topo.add_link(1, 4, 60.0).expect("chord");
    let edge_nodes: Vec<usize> = (0..topo.num_nodes()).collect();
    let tunnels = TunnelSet::k_shortest(&topo, &edge_nodes, 3, 0.0);
    let cfg = GravityConfig::uniform(topo.num_nodes(), 500.0);
    let mut rng = StdRng::seed_from_u64(1);
    let tm = &gravity_series(&cfg, &mut rng, 1)[0];
    Instance::compile(&topo, &tunnels, tm)
}

/// Record one training graph (forward + MLU loss) and assert that every
/// parameter it injects, and every node it records, reaches the loss.
fn assert_training_graph_is_live(model: &dyn SplitModel, store: &ParamStore, inst: &Instance) {
    let mut tape = Tape::new();
    let splits = model.forward(&mut tape, store, inst);
    let loss = mlu_loss(&mut tape, splits, inst);
    let names: Vec<&str> = tape
        .unreachable_params(loss)
        .into_iter()
        .map(|id| store.name(id))
        .collect();
    assert!(
        names.is_empty(),
        "{}: {names:?} never reach the loss",
        model.name()
    );
    // a node off every path to the loss is forward work no gradient reads
    let dead = tape.gradients(loss).iter().filter(|g| g.is_none()).count();
    assert_eq!(dead, 0, "{}: dead nodes on the training tape", model.name());
}

#[test]
fn harp_training_graph_is_live() {
    let inst = quickstart_instance();
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(7);
    let harp = Harp::new(
        &mut store,
        &mut rng,
        HarpConfig {
            gnn_layers: 2,
            gnn_hidden: 6,
            d_model: 8,
            settrans_layers: 1,
            heads: 2,
            d_ff: 16,
            mlp_hidden: 16,
            rau_iters: 2,
        },
    );
    assert_training_graph_is_live(&harp, &store, &inst);
}

#[test]
fn dote_training_graph_is_live() {
    let inst = quickstart_instance();
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(7);
    let dote = Dote::new(&mut store, &mut rng, &inst, &[32, 32]);
    assert_training_graph_is_live(&dote, &store, &inst);
}

#[test]
fn teal_training_graph_is_live() {
    let inst = quickstart_instance();
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(7);
    let teal = Teal::new(&mut store, &mut rng, TealConfig::default());
    assert_training_graph_is_live(&teal, &store, &inst);
}

/// A model with a parameter the loss can never reach: the pre-flight built
/// into `train_model` must reject it before any gradient step runs.
struct OrphanModel {
    w: harp_tensor::ParamId,
    orphan: harp_tensor::ParamId,
}

impl SplitModel for OrphanModel {
    fn forward(&self, tape: &mut Tape, store: &ParamStore, instance: &Instance) -> Var {
        let _dead = tape.param(store, self.orphan); // injected, never used
        let w = tape.param(store, self.w);
        let s = tape.tanh(w);
        tape.broadcast_scalar(s, instance.num_tunnels)
    }

    fn name(&self) -> &'static str {
        "orphan"
    }
}

/// Debug builds only: the pre-flight runs under `cfg!(debug_assertions)`,
/// so under `cargo test --release` `train_model` trains the broken model
/// without complaint and there is no panic to expect.
#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the pre-flight is compiled out of release builds"
)]
#[should_panic(expected = "pre-flight failed")]
fn train_model_preflight_rejects_unreachable_param() {
    let inst = quickstart_instance();
    let mut store = ParamStore::new();
    let w = store.register("w", vec![], vec![0.0]);
    let orphan = store.register("orphan", vec![2], vec![1.0, 1.0]);
    let model = OrphanModel { w, orphan };
    let refs = vec![(&inst, 1.0)];
    let _ = train_model(
        &model,
        &mut store,
        &refs,
        &[],
        TrainConfig {
            epochs: 1,
            ..Default::default()
        },
        EvalOptions::default(),
    );
}
