//! A fault plan in the environment must not reach the library: with
//! `TrainConfig::chaos` left `None`, `train_model` and the snapshot writer
//! inject nothing even when `HARP_FAULT` names faults for both. This file
//! holds one test so the variable it sets cannot leak into other tests.

use harp_core::{
    train_model, EvalOptions, Harp, HarpConfig, Instance, TrainConfig, TrainError, TrainReport,
};
use harp_opt::MluOracle;
use harp_paths::TunnelSet;
use harp_tensor::ParamStore;
use harp_topology::Topology;
use harp_traffic::TrafficMatrix;
use rand::{rngs::StdRng, Rng, SeedableRng};

type Labeled = Vec<(Instance, f64)>;

/// The 4-node diamond of `chaos.rs`: two disjoint 2-hop paths 0 → 3.
fn dataset() -> (Labeled, Labeled) {
    let mut topo = Topology::new(4);
    topo.add_link(0, 1, 10.0).unwrap();
    topo.add_link(1, 3, 10.0).unwrap();
    topo.add_link(0, 2, 20.0).unwrap();
    topo.add_link(2, 3, 20.0).unwrap();
    let tunnels = TunnelSet::k_shortest(&topo, &[0, 3], 2, 0.0);
    let mut rng = StdRng::seed_from_u64(5);
    let oracle = MluOracle::default();
    let mut make = || {
        let mut tm = TrafficMatrix::zeros(4);
        tm.set_demand(0, 3, rng.gen_range(5.0..15.0));
        tm.set_demand(3, 0, rng.gen_range(2.0..8.0));
        let inst = Instance::compile(&topo, &tunnels, &tm);
        let opt = oracle.solve(&inst.program).mlu;
        (inst, opt)
    };
    let train: Labeled = (0..8).map(|_| make()).collect();
    let val: Labeled = (0..3).map(|_| make()).collect();
    (train, val)
}

fn run(epochs: usize, dir: &std::path::Path) -> Result<TrainReport, TrainError> {
    let (train, val) = dataset();
    let train_refs: Vec<(&Instance, f64)> = train.iter().map(|(i, o)| (i, *o)).collect();
    let val_refs: Vec<(&Instance, f64)> = val.iter().map(|(i, o)| (i, *o)).collect();
    let mut store = ParamStore::new();
    let mut mrng = StdRng::seed_from_u64(1);
    let harp = Harp::new(
        &mut store,
        &mut mrng,
        HarpConfig {
            gnn_layers: 1,
            gnn_hidden: 4,
            d_model: 8,
            settrans_layers: 1,
            heads: 1,
            d_ff: 8,
            mlp_hidden: 8,
            rau_iters: 1,
        },
    );
    train_model(
        &harp,
        &mut store,
        &train_refs,
        &val_refs,
        TrainConfig {
            epochs,
            batch_size: 4,
            lr: 5e-3,
            patience: 0,
            checkpoint_dir: Some(dir.to_path_buf()),
            chaos: None,
            ..Default::default()
        },
        EvalOptions::default(),
    )
}

#[test]
fn harp_fault_in_the_environment_arms_nothing() {
    std::env::set_var("HARP_FAULT", "nan-grad@step=0;corrupt-checkpoint@write=1");
    let dir = std::env::temp_dir().join(format!("harp_core_ambient_fault_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let first = run(2, &dir).expect("a clean 2-epoch run");
    let resumed = run(3, &dir);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(first.rollbacks, 0, "no NaN gradient may be injected");
    match resumed {
        Ok(report) => assert_eq!(report.resumed_from, Some(2), "resumes after epoch 1"),
        Err(TrainError::Checkpoint(e)) => panic!("the snapshot was corrupted on write: {e}"),
        Err(e) => panic!("resume failed: {e}"),
    }
}
