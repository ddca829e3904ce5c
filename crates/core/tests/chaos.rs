//! Chaos scenarios for the training loop: deterministic fault plans drive
//! NaN gradients, worker kills, checkpoint corruption, and simulated
//! aborts through `train_model`, and every failure mode must surface as
//! the documented structured behavior — rollback, typed error, or clean
//! resume — never a crash or silent garbage.

use std::sync::Arc;

use harp_chaos::{FaultKind, FaultPlan};
use harp_core::{
    train_model, EvalOptions, Harp, HarpConfig, Instance, TrainConfig, TrainError, SNAPSHOT_FILE,
};
use harp_opt::MluOracle;
use harp_paths::TunnelSet;
use harp_tensor::ParamStore;
use harp_topology::Topology;
use harp_traffic::TrafficMatrix;
use rand::{rngs::StdRng, Rng, SeedableRng};

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

fn dataset() -> (Labeled, Labeled) {
    dataset_on(&[diamond()])
}

/// The diamond and the diamond with link 0-1's capacity halved: two
/// topology epochs, so a batch of both is two epoch groups and fans out
/// to two workers.
fn two_epoch_dataset() -> (Labeled, Labeled) {
    let (mut halved, tunnels) = diamond();
    for (a, b) in [(0, 1), (1, 0)] {
        let e = halved.edge_id(a, b).unwrap();
        halved.set_capacity(e, 5.0).unwrap();
    }
    dataset_on(&[diamond(), (halved, tunnels)])
}

/// Snapshots cycling through `epochs`, one random matrix each.
fn dataset_on(epochs: &[(Topology, TunnelSet)]) -> (Labeled, Labeled) {
    let mut rng = StdRng::seed_from_u64(5);
    let oracle = MluOracle::default();
    let mut k = 0;
    let mut make = |rng: &mut StdRng| {
        let (topo, tunnels) = &epochs[k % epochs.len()];
        k += 1;
        let mut tm = TrafficMatrix::zeros(4);
        tm.set_demand(0, 3, rng.gen_range(5.0..15.0));
        tm.set_demand(3, 0, rng.gen_range(2.0..8.0));
        let inst = Instance::compile(topo, tunnels, &tm);
        let opt = oracle.solve(&inst.program).mlu;
        (inst, opt)
    };
    let train: Vec<(Instance, f64)> = (0..8).map(|_| make(&mut rng)).collect();
    let val: Vec<(Instance, f64)> = (0..3).map(|_| make(&mut rng)).collect();
    (train, val)
}

fn fresh_model() -> (Harp, ParamStore) {
    let mut store = ParamStore::new();
    let mut mrng = StdRng::seed_from_u64(1);
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

fn base_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 4,
        lr: 5e-3,
        patience: 0,
        ..Default::default()
    }
}

fn scratch_dir(case: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("harp_core_chaos_{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A NaN gradient injected at step 2 must trigger exactly one rollback —
/// the run then finishes healthy, with finite parameters and the LR
/// halving recorded via the consumed rollback budget.
#[test]
fn nan_gradient_rolls_back_and_recovers() {
    let (train, val) = dataset();
    let train_refs: Vec<(&Instance, f64)> = train.iter().map(|(i, o)| (i, *o)).collect();
    let val_refs: Vec<(&Instance, f64)> = val.iter().map(|(i, o)| (i, *o)).collect();
    let (harp, mut store) = fresh_model();

    let plan = Arc::new(FaultPlan::new(vec![FaultKind::NanGrad { step: 2 }], 0));
    let report = train_model(
        &harp,
        &mut store,
        &train_refs,
        &val_refs,
        TrainConfig {
            chaos: Some(Arc::clone(&plan)),
            ..base_cfg()
        },
        EvalOptions::default(),
    )
    .expect("one NaN step is inside the rollback budget");
    assert_eq!(report.rollbacks, 1, "exactly one rollback");
    assert!(plan.exhausted(), "the fault must actually have fired");
    assert_eq!(report.history.len(), 3, "all epochs still ran");
    for id in store.ids() {
        assert!(
            store.data(id).iter().all(|v| v.is_finite()),
            "rolled-back parameters must be finite"
        );
    }
}

/// With a zero rollback budget the same fault is a typed `Diverged` error
/// naming the trigger — and the store is left on finite epoch-start
/// parameters, not NaN garbage.
#[test]
fn exhausted_rollback_budget_is_typed_divergence_error() {
    let (train, val) = dataset();
    let train_refs: Vec<(&Instance, f64)> = train.iter().map(|(i, o)| (i, *o)).collect();
    let val_refs: Vec<(&Instance, f64)> = val.iter().map(|(i, o)| (i, *o)).collect();
    let (harp, mut store) = fresh_model();

    let plan = Arc::new(FaultPlan::new(vec![FaultKind::NanGrad { step: 0 }], 0));
    let err = train_model(
        &harp,
        &mut store,
        &train_refs,
        &val_refs,
        TrainConfig {
            max_rollbacks: 0,
            chaos: Some(plan),
            ..base_cfg()
        },
        EvalOptions::default(),
    )
    .expect_err("no budget: divergence must be fatal");
    match &err {
        TrainError::Diverged {
            epoch,
            rollbacks,
            detail,
        } => {
            assert_eq!(*epoch, 0);
            assert_eq!(*rollbacks, 0);
            assert!(
                detail.contains("NaN") || detail.contains("non-finite"),
                "detail must name the trigger: {detail}"
            );
        }
        other => panic!("expected Diverged, got {other:?}"),
    }
    for id in store.ids() {
        assert!(
            store.data(id).iter().all(|v| v.is_finite()),
            "store must hold finite epoch-start parameters after the error"
        );
    }
}

/// A worker killed mid-epoch is contained at the pool boundary: the epoch
/// rolls back once and the run completes, instead of the panic aborting
/// the process. The training set spans two topology epochs: the unit of
/// fan-out is an epoch group, and one group never reaches worker 1.
#[test]
fn killed_worker_is_contained_and_rolled_back() {
    let (train, val) = two_epoch_dataset();
    let train_refs: Vec<(&Instance, f64)> = train.iter().map(|(i, o)| (i, *o)).collect();
    let val_refs: Vec<(&Instance, f64)> = val.iter().map(|(i, o)| (i, *o)).collect();
    let (harp, mut store) = fresh_model();

    let plan = Arc::new(FaultPlan::new(
        vec![FaultKind::KillWorker {
            epoch: 1,
            worker: 1,
        }],
        0,
    ));
    let report = train_model(
        &harp,
        &mut store,
        &train_refs,
        &val_refs,
        TrainConfig {
            workers: 4,
            chaos: Some(Arc::clone(&plan)),
            ..base_cfg()
        },
        EvalOptions::default(),
    )
    .expect("a single worker kill is recoverable");
    assert_eq!(report.rollbacks, 1);
    assert!(plan.exhausted(), "the kill fault must have fired");
    assert_eq!(report.history.len(), 3);
}

/// Checkpoint corruption on write (chaos standing in for disk bit rot)
/// must be caught loudly at resume time: the next run pointed at the
/// damaged directory fails with a typed checkpoint error and never trains
/// on garbage.
#[test]
fn corrupted_checkpoint_is_rejected_at_resume() {
    let dir = scratch_dir("corrupt");
    let (train, val) = dataset();
    let train_refs: Vec<(&Instance, f64)> = train.iter().map(|(i, o)| (i, *o)).collect();
    let val_refs: Vec<(&Instance, f64)> = val.iter().map(|(i, o)| (i, *o)).collect();

    // First run: the chaos plan flips one byte of the first snapshot write.
    // The save itself "succeeds" — exactly like bit rot under a crash.
    let (harp, mut store) = fresh_model();
    let plan = Arc::new(FaultPlan::new(
        vec![FaultKind::CorruptCheckpoint {
            write: 0,
            mode: harp_chaos::CorruptMode::Flip,
        }],
        7,
    ));
    train_model(
        &harp,
        &mut store,
        &train_refs,
        &val_refs,
        TrainConfig {
            epochs: 1,
            checkpoint_dir: Some(dir.clone()),
            chaos: Some(Arc::clone(&plan)),
            ..base_cfg()
        },
        EvalOptions::default(),
    )
    .expect("the corrupting run itself completes");
    assert!(plan.exhausted(), "the corruption fault must have fired");
    assert!(dir.join(SNAPSHOT_FILE).exists());

    // Resume: the damaged snapshot must be rejected with a typed error.
    let (harp2, mut store2) = fresh_model();
    let err = train_model(
        &harp2,
        &mut store2,
        &train_refs,
        &val_refs,
        TrainConfig {
            epochs: 3,
            checkpoint_dir: Some(dir.clone()),
            ..base_cfg()
        },
        EvalOptions::default(),
    )
    .expect_err("a corrupt snapshot must never be trained on");
    match &err {
        TrainError::Checkpoint(e) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
        }
        other => panic!("expected Checkpoint, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A truncating corruption (torn write) is likewise rejected at resume.
#[test]
fn truncated_checkpoint_is_rejected_at_resume() {
    let dir = scratch_dir("truncate");
    let (train, val) = dataset();
    let train_refs: Vec<(&Instance, f64)> = train.iter().map(|(i, o)| (i, *o)).collect();
    let val_refs: Vec<(&Instance, f64)> = val.iter().map(|(i, o)| (i, *o)).collect();

    let (harp, mut store) = fresh_model();
    let plan = Arc::new(FaultPlan::new(
        vec![FaultKind::CorruptCheckpoint {
            write: 0,
            mode: harp_chaos::CorruptMode::Truncate,
        }],
        7,
    ));
    train_model(
        &harp,
        &mut store,
        &train_refs,
        &val_refs,
        TrainConfig {
            epochs: 1,
            checkpoint_dir: Some(dir.clone()),
            chaos: Some(plan),
            ..base_cfg()
        },
        EvalOptions::default(),
    )
    .expect("the corrupting run itself completes");

    let (harp2, mut store2) = fresh_model();
    let err = train_model(
        &harp2,
        &mut store2,
        &train_refs,
        &val_refs,
        TrainConfig {
            epochs: 3,
            checkpoint_dir: Some(dir.clone()),
            ..base_cfg()
        },
        EvalOptions::default(),
    )
    .expect_err("a truncated snapshot must never be trained on");
    assert!(matches!(err, TrainError::Checkpoint(_)), "{err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A chaos abort simulates a crash between epochs: the run returns a
/// typed `Aborted` error after checkpointing, and a plain re-invocation
/// picks the snapshot up and finishes the remaining epochs.
#[test]
fn abort_fault_interrupts_and_resume_finishes() {
    let dir = scratch_dir("abort");
    let (train, val) = dataset();
    let train_refs: Vec<(&Instance, f64)> = train.iter().map(|(i, o)| (i, *o)).collect();
    let val_refs: Vec<(&Instance, f64)> = val.iter().map(|(i, o)| (i, *o)).collect();

    let (harp, mut store) = fresh_model();
    let plan = Arc::new(FaultPlan::new(vec![FaultKind::Abort { epoch: 0 }], 0));
    let err = train_model(
        &harp,
        &mut store,
        &train_refs,
        &val_refs,
        TrainConfig {
            checkpoint_dir: Some(dir.clone()),
            chaos: Some(plan),
            ..base_cfg()
        },
        EvalOptions::default(),
    )
    .expect_err("abort fault must interrupt the run");
    assert!(matches!(err, TrainError::Aborted { epoch: 0 }), "{err:?}");
    assert!(dir.join(SNAPSHOT_FILE).exists(), "interrupted after saving");

    let (harp2, mut store2) = fresh_model();
    let report = train_model(
        &harp2,
        &mut store2,
        &train_refs,
        &val_refs,
        TrainConfig {
            checkpoint_dir: Some(dir.clone()),
            ..base_cfg()
        },
        EvalOptions::default(),
    )
    .expect("resume completes the interrupted run");
    assert_eq!(report.resumed_from, Some(1), "resumed after epoch 0");
    assert_eq!(report.history.len(), 3, "all epochs accounted for");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fault-plan grammar parses round-trippably for the scenarios the
/// chaos tests drive, and a malformed plan is a loud parse error, not a
/// silent no-op.
#[test]
fn fault_plan_grammar_parses_ci_scenarios() {
    let plan = FaultPlan::parse("nan-grad@step=2").expect("valid");
    assert_eq!(plan.faults(), vec![FaultKind::NanGrad { step: 2 }]);

    let plan = FaultPlan::parse("corrupt-checkpoint@write=1,mode=flip;seed=7").expect("valid");
    assert_eq!(plan.seed(), 7);

    let plan = FaultPlan::parse("kill-worker@epoch=1,worker=1").expect("valid");
    assert_eq!(
        plan.faults(),
        vec![FaultKind::KillWorker {
            epoch: 1,
            worker: 1
        }]
    );

    FaultPlan::parse("explode@yes=1").expect_err("unknown fault name must be rejected");
    FaultPlan::parse("nan-grad@step").expect_err("malformed parameter must be rejected");
}
