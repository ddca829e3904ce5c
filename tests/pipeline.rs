//! The whole path through the `harp` facade on Abilene: train → epoch
//! precompute → cached inference → exact MLU against the LP optimum. This
//! is what the default `cargo test` at the root exercises.

use harp::datasets::abilene;
use harp::models::{
    run_inference, run_inference_cached, train_model, EvalOptions, Harp, HarpConfig, Instance,
    SplitModel, TrainConfig,
};
use harp::opt::MluOracle;
use harp::paths::TunnelSet;
use harp::tensor::ParamStore;
use harp::traffic::{gravity_series, GravityConfig};
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn abilene_train_precompute_infer() {
    let topo = abilene();
    let nodes: Vec<usize> = (0..topo.num_nodes()).collect();
    let tunnels = TunnelSet::k_shortest(&topo, &nodes, 4, 0.0);
    let mut rng = StdRng::seed_from_u64(5);
    let tms = gravity_series(&GravityConfig::uniform(topo.num_nodes(), 1.0), &mut rng, 4);
    let labeled: Vec<(Instance, f64)> = tms
        .iter()
        .map(|tm| {
            let inst = Instance::compile(&topo, &tunnels, tm);
            let opt = MluOracle::default().solve(&inst.program);
            assert!(opt.exact, "Abilene is simplex-sized");
            (inst, opt.mlu)
        })
        .collect();
    assert!(
        labeled[0].0.buckets.len() > 1,
        "Abilene's tunnels have mixed hop counts"
    );
    let refs: Vec<(&Instance, f64)> = labeled.iter().map(|(i, o)| (i, *o)).collect();
    let (train, held_out) = refs.split_at(3);

    let mut store = ParamStore::new();
    let harp = Harp::new(
        &mut store,
        &mut StdRng::seed_from_u64(6),
        HarpConfig::default(),
    );
    let report = train_model(
        &harp,
        &mut store,
        train,
        &train[..1],
        TrainConfig {
            epochs: 2,
            batch_size: 3,
            ..Default::default()
        },
        EvalOptions::default(),
    )
    .expect("healthy training run");
    assert_eq!(report.history.len(), 2);

    let (inst, optimum) = held_out[0];
    let cache = harp
        .precompute_epoch(&store, inst)
        .expect("HARP caches its topology stage");
    let plain = run_inference(&harp, &store, inst, EvalOptions::default());
    let cached = run_inference_cached(&harp, &store, inst, EvalOptions::default(), &cache);
    assert_eq!(plain.splits, cached.splits);
    assert_eq!(plain.mlu.to_bits(), cached.mlu.to_bits());

    assert!(inst.program.splits_are_valid(&cached.splits, 1e-9));
    assert!(cached.is_finite());
    assert!(
        cached.mlu >= optimum * (1.0 - 1e-9),
        "served MLU {} beats the LP optimum {optimum}",
        cached.mlu
    );
}
