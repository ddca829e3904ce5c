//! The resumable-training contract, property-tested: interrupting a run
//! at epoch `k` and resuming from its checkpoint must be
//! **bitwise-identical** to the run that was never interrupted — same
//! per-epoch losses and validation scores bit for bit, same selected
//! epoch, same final parameters — at every worker count.

use harp_core::{train_model, EvalOptions, Harp, HarpConfig, Instance, TrainConfig, TrainReport};
use harp_opt::MluOracle;
use harp_paths::TunnelSet;
use harp_tensor::ParamStore;
use harp_topology::Topology;
use harp_traffic::TrafficMatrix;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const EPOCHS: usize = 4;

fn diamond() -> (Topology, TunnelSet) {
    let mut topo = Topology::new(4);
    topo.add_link(0, 1, 10.0).unwrap();
    topo.add_link(1, 3, 10.0).unwrap();
    topo.add_link(0, 2, 20.0).unwrap();
    topo.add_link(2, 3, 20.0).unwrap();
    let tunnels = TunnelSet::k_shortest(&topo, &[0, 3], 2, 0.0);
    (topo, tunnels)
}

type Labeled = Vec<(Instance, f64)>;

fn dataset(seed: u64) -> (Labeled, Labeled) {
    let (topo, tunnels) = diamond();
    let mut rng = StdRng::seed_from_u64(seed);
    let oracle = MluOracle::default();
    let make = |rng: &mut StdRng| {
        let mut tm = TrafficMatrix::zeros(4);
        tm.set_demand(0, 3, rng.gen_range(5.0..15.0));
        tm.set_demand(3, 0, rng.gen_range(2.0..8.0));
        let inst = Instance::compile(&topo, &tunnels, &tm);
        let opt = oracle.solve(&inst.program).mlu;
        (inst, opt)
    };
    let train: Vec<(Instance, f64)> = (0..9).map(|_| make(&mut rng)).collect();
    let val: Vec<(Instance, f64)> = (0..3).map(|_| make(&mut rng)).collect();
    (train, val)
}

fn fresh_model(seed: u64) -> (Harp, ParamStore) {
    let mut store = ParamStore::new();
    let mut mrng = StdRng::seed_from_u64(seed);
    let cfg = HarpConfig {
        gnn_layers: 1,
        gnn_hidden: 4,
        d_model: 8,
        settrans_layers: 1,
        heads: 1,
        d_ff: 8,
        mlp_hidden: 8,
        rau_iters: 1,
    };
    let harp = Harp::new(&mut store, &mut mrng, cfg);
    (harp, store)
}

fn cfg_with(workers: usize, epochs: usize, dir: Option<std::path::PathBuf>) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 4,
        lr: 5e-3,
        patience: 0, // fixed epoch count: interrupt points are predictable
        workers,
        checkpoint_dir: dir,
        checkpoint_every: 1,
        ..Default::default()
    }
}

/// Train for `epochs` epochs (optionally checkpointing into `dir`) on a
/// fresh, identically-seeded model and dataset; return the report and the
/// final parameter values.
fn run(
    seed: u64,
    workers: usize,
    epochs: usize,
    dir: Option<std::path::PathBuf>,
) -> (TrainReport, Vec<Vec<f32>>) {
    let (train, val) = dataset(seed);
    let train_refs: Vec<(&Instance, f64)> = train.iter().map(|(i, o)| (i, *o)).collect();
    let val_refs: Vec<(&Instance, f64)> = val.iter().map(|(i, o)| (i, *o)).collect();
    let (harp, mut store) = fresh_model(seed ^ 0xA5);
    let report = train_model(
        &harp,
        &mut store,
        &train_refs,
        &val_refs,
        cfg_with(workers, epochs, dir),
        EvalOptions::default(),
    )
    .expect("healthy training run");
    (report, store.snapshot())
}

fn assert_bitwise_equal(resumed: &TrainReport, straight: &TrainReport, ctx: &str) {
    assert_eq!(resumed.best_epoch, straight.best_epoch, "{ctx}: best_epoch");
    assert_eq!(
        resumed.best_val.to_bits(),
        straight.best_val.to_bits(),
        "{ctx}: best_val bits"
    );
    assert_eq!(
        resumed.history.len(),
        straight.history.len(),
        "{ctx}: history length"
    );
    for (r, s) in resumed.history.iter().zip(&straight.history) {
        assert_eq!(r.epoch, s.epoch, "{ctx}: epoch index");
        assert_eq!(
            r.train_loss.to_bits(),
            s.train_loss.to_bits(),
            "{ctx}: epoch {} train loss bits",
            r.epoch
        );
        assert_eq!(
            r.val_norm_mlu.to_bits(),
            s.val_norm_mlu.to_bits(),
            "{ctx}: epoch {} val bits",
            r.epoch
        );
    }
}

/// Interrupt at epoch `k` (run only `k` epochs, checkpointing each), then
/// resume to the full count, and compare against a straight-through run.
fn check_interrupt_resume(seed: u64, workers: usize, interrupt_at: usize) {
    let dir = std::env::temp_dir().join(format!(
        "harp_core_resume_{seed}_{workers}_{interrupt_at}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let (straight, straight_params) = run(seed, workers, EPOCHS, None);

    // Phase 1: the "interrupted" run — stops after `interrupt_at` epochs,
    // leaving a snapshot behind.
    let _ = run(seed, workers, interrupt_at, Some(dir.clone()));
    // Phase 2: resume to the full epoch count from the same directory.
    let (resumed, resumed_params) = run(seed, workers, EPOCHS, Some(dir.clone()));

    assert_eq!(
        resumed.resumed_from,
        Some(interrupt_at),
        "resume must pick up at the interrupt point"
    );
    assert_bitwise_equal(&resumed, &straight, "resumed vs straight-through");
    assert_eq!(
        straight_params.len(),
        resumed_params.len(),
        "param buffer count"
    );
    for (i, (a, b)) in straight_params.iter().zip(&resumed_params).enumerate() {
        assert_eq!(a.len(), b.len(), "param {i} width");
        for (j, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "param {i}[{j}]: straight {x} vs resumed {y}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Interrupt-at-k then resume is bitwise-identical to never stopping,
    /// across interrupt points and both serial and 4-worker pools.
    #[test]
    fn interrupt_and_resume_is_bitwise_identical(
        seed in 0u64..1000,
        interrupt_at in 1usize..EPOCHS,
    ) {
        for workers in [1usize, 4] {
            check_interrupt_resume(seed, workers, interrupt_at);
        }
    }
}

/// A resumed run that has nothing left to do (snapshot already at the
/// target epoch count) returns the recorded history untouched and leaves
/// the best parameters in the store.
#[test]
fn resume_with_no_remaining_epochs_is_a_noop() {
    let dir = std::env::temp_dir().join(format!("harp_core_resume_noop_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (first, _) = run(3, 1, EPOCHS, Some(dir.clone()));
    let (again, _) = run(3, 1, EPOCHS, Some(dir.clone()));
    assert_eq!(again.resumed_from, Some(EPOCHS));
    assert_bitwise_equal(&again, &first, "noop resume vs original");
    let _ = std::fs::remove_dir_all(&dir);
}
