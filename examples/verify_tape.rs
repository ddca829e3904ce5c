//! Demonstrates the `harp::verify` static analyzer on recorded tapes.
//!
//! Three scenarios:
//! 1. a real HARP training graph on the quickstart WAN — analyzes clean;
//! 2. a hand-built graph seeded with defects (NaN constant, unguarded
//!    log, parameter never reaching the loss) — each is diagnosed;
//! 3. the debug-build pre-flight inside `train_model` rejecting a model
//!    with an unreachable parameter before any gradient step runs.
//!
//! Run with `cargo run --example verify_tape`.

use harp::models::{
    mlu_loss, train_model, EvalOptions, Harp, HarpConfig, Instance, SplitModel, TrainConfig,
};
use harp::paths::TunnelSet;
use harp::tensor::{ParamStore, Tape, Var};
use harp::topology::Topology;
use harp::traffic::{gravity_series, GravityConfig};
use harp::verify::analyze;
use rand::{rngs::StdRng, SeedableRng};

/// The quickstart WAN: a 6-ring with two chords, 3-shortest-path tunnels,
/// one gravity-model traffic snapshot.
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

/// A model whose `orphan` parameter never reaches the loss — the kind of
/// wiring bug the pre-flight exists to catch.
struct OrphanModel {
    w: harp::tensor::ParamId,
    orphan: harp::tensor::ParamId,
}

impl SplitModel for OrphanModel {
    fn forward(&self, tape: &mut Tape, store: &ParamStore, instance: &Instance) -> Var {
        let _dead = tape.param(store, self.orphan);
        let w = tape.param(store, self.w);
        let s = tape.tanh(w);
        tape.broadcast_scalar(s, instance.num_tunnels)
    }

    fn name(&self) -> &'static str {
        "orphan"
    }
}

fn main() {
    let inst = quickstart_instance();

    // 1. A real HARP training graph analyzes clean.
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
    let mut tape = Tape::new();
    let splits = harp.forward(&mut tape, &store, &inst);
    let loss = mlu_loss(&mut tape, splits, &inst);
    let report = analyze(&tape, loss, Some(&store));
    println!("== HARP training graph ({} tape nodes) ==", tape.len());
    println!("{report}");

    // 2. A graph seeded with defects: every class gets a diagnostic.
    let mut store = ParamStore::new();
    let used = store.register("used", vec![2], vec![0.5, 0.5]);
    let _orphan = store.register("orphan", vec![2], vec![1.0, 1.0]);
    let mut tape = Tape::new();
    let p = tape.param(&store, used);
    let bad = tape.constant(vec![2], vec![f32::NAN, 1.0]);
    let t = tape.tanh(p); // range (-1, 1): may be zero or below
    let log = tape.ln(t);
    let q = tape.mul(bad, log);
    let loss = tape.sum_all(q);
    let report = analyze(&tape, loss, Some(&store));
    println!("== seeded-defect graph ==");
    println!("{report}");

    // 3. train_model's debug-build pre-flight rejects the broken model.
    let mut store = ParamStore::new();
    let w = store.register("w", vec![], vec![0.0]);
    let orphan = store.register("orphan", vec![2], vec![1.0, 1.0]);
    let model = OrphanModel { w, orphan };
    let refs = vec![(&inst, 1.0)];
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        train_model(
            &model,
            &mut store,
            &refs,
            &[],
            TrainConfig {
                epochs: 1,
                ..Default::default()
            },
            EvalOptions::default(),
        )
    }));
    println!("== train_model pre-flight (debug builds) ==");
    match outcome {
        Err(_) => println!("rejected the orphan-parameter model before training, as intended"),
        Ok(_) => println!("NOT rejected — pre-flight is only active in debug builds"),
    }
}
