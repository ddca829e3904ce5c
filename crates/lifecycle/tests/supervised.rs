//! Crash-isolated retraining, end to end against the real exec'd
//! `harp-trainerd` binary: a generation-0 job ships exactly the bits an
//! in-process `train_model` run produces; a SIGKILL sweep over every
//! trainer phase (forward, checkpoint write, ship rendezvous) must
//! recover through the escalation ladder and ship **bitwise-identical**
//! parameters to an unkilled run; garbled IPC must surface as typed
//! protocol errors and restart cleanly; a worker kill inside the
//! fine-tune is rolled back in the child; a malformed job is a `failed`
//! frame, never a panic; the job codec carries every bit of the seed;
//! and a full
//! lifecycle run must stay bitwise-reproducible per seed — two runs with
//! the same seed produce identical event logs and metric values (modulo
//! wall-clock fields) even with chaos enabled, because the faults are
//! part of the scenario, not noise.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use harp_chaos::FaultPlan;
use harp_core::{train_model, EvalOptions, Harp, HarpConfig, Instance, TrainConfig, SNAPSHOT_FILE};
use harp_lifecycle::{
    job_from_json, job_to_json, run_lifecycle, run_supervised, run_trainerd, JobInstance,
    LifecycleConfig, Scenario, TrainJob,
};
use harp_nn::{load_params, save_params};
use harp_paths::TunnelSet;
use harp_super::{encode_frame, ChildMsg, FrameReader, SuperMsg};
use harp_tensor::ParamStore;
use harp_topology::Topology;
use harp_traffic::TrafficMatrix;
use rand::{rngs::StdRng, SeedableRng};

/// The dedicated child binary, built by cargo for this test run.
const TRAINERD: &str = env!("CARGO_BIN_EXE_harp-trainerd");

fn tiny_model() -> HarpConfig {
    HarpConfig {
        gnn_layers: 1,
        gnn_hidden: 4,
        d_model: 8,
        settrans_layers: 1,
        heads: 1,
        d_ff: 8,
        mlp_hidden: 8,
        rau_iters: 1,
    }
}

fn square() -> (Topology, TunnelSet) {
    let mut topo = Topology::new(4);
    topo.add_link(0, 1, 10.0).unwrap();
    topo.add_link(1, 2, 10.0).unwrap();
    topo.add_link(2, 3, 10.0).unwrap();
    topo.add_link(3, 0, 10.0).unwrap();
    topo.add_link(0, 2, 5.0).unwrap();
    let tunnels = TunnelSet::k_shortest(&topo, &[0, 1, 2, 3], 3, 0.0);
    (topo, tunnels)
}

fn demands(n: usize, scale: f64) -> TrafficMatrix {
    let mut d = vec![0.0; n * n];
    for s in 0..n {
        for t in 0..n {
            if s != t {
                d[s * n + t] = scale * (((s * n + t) % 3) as f64 + 0.5);
            }
        }
    }
    TrafficMatrix::from_dense(n, d)
}

fn window() -> Vec<JobInstance> {
    let (topo, tunnels) = square();
    (0..2)
        .map(|i| {
            let tm = demands(4, 1.0 + f64::from(i) * 0.25);
            JobInstance::from_parts(&topo, &tunnels, &tm, 1.0)
        })
        .collect()
}

/// Write a seeded init of the tiny model as a job's starting parameters.
fn init_params(path: &Path, seed: u64) -> ParamStore {
    let mut store = ParamStore::new();
    let _ = Harp::new(&mut store, &mut StdRng::seed_from_u64(seed), tiny_model());
    save_params(&store, path).expect("write init params");
    store
}

/// A fresh work dir + job; `chaos` is the per-attempt escalation script.
fn job_in(tag: &str, chaos: Vec<String>) -> (TrainJob, PathBuf) {
    let work = std::env::temp_dir().join(format!("harp_supervised_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&work);
    fs::create_dir_all(&work).expect("mkdir work");
    let warm_path = work.join("init.json");
    init_params(&warm_path, 11);
    let job = TrainJob {
        model: tiny_model(),
        window: window(),
        warm_path,
        checkpoint_dir: work.join("ckpt"),
        params_out: work.join("trained.json"),
        generation: 1,
        workers: 1,
        epochs: 2,
        lr: 1e-3,
        seed: 77,
        chaos,
    };
    (job, work)
}

/// Generation 0 runs through the child like every retrain: its shipped
/// parameters are bitwise the ones an in-process `train_model` call on
/// the same init, seeds, window and hyperparameters selects.
#[test]
fn bootstrap_job_ships_the_in_process_train_model_bits() {
    let seed = 7u64;
    let (mut job, work) = job_in("boot", Vec::new());
    let init = init_params(&job.warm_path, seed ^ 0x11FE_C0DE);
    job.generation = 0;
    job.lr = 2e-3;
    job.seed = seed ^ 0xB007;
    let out = run_supervised(&job, Path::new(TRAINERD), seed);
    assert!(!out.dead, "bootstrap must ship: {:?}", out.log);
    let mut shipped = init.clone();
    load_params(&mut shipped, &out.params_path.expect("shipped")).expect("readable params");

    let (topo, tunnels) = square();
    let insts: Vec<Instance> = (0..2)
        .map(|i| Instance::compile(&topo, &tunnels, &demands(4, 1.0 + f64::from(i) * 0.25)))
        .collect();
    let refs: Vec<(&Instance, f64)> = insts.iter().map(|i| (i, 1.0)).collect();
    let mut store = ParamStore::new();
    let harp = Harp::new(
        &mut store,
        &mut StdRng::seed_from_u64(seed ^ 0x11FE_C0DE),
        tiny_model(),
    );
    let tc = TrainConfig {
        epochs: job.epochs,
        batch_size: 4,
        lr: 2e-3,
        patience: 0,
        workers: 1,
        seed: seed ^ 0xB007,
        ..TrainConfig::default()
    };
    train_model(&harp, &mut store, &refs, &refs, tc, EvalOptions::default()).expect("reference");
    let bits = |s: &ParamStore| -> Vec<Vec<u32>> {
        s.snapshot()
            .iter()
            .map(|p| p.iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    assert_ne!(
        bits(&store),
        bits(&init),
        "training must move the parameters"
    );
    assert_eq!(bits(&shipped), bits(&store));
    let _ = fs::remove_dir_all(&work);
}

/// A job the child cannot train — a negative demand, or a flow endpoint
/// outside the topology — is a `failed` frame and exit 1, never a panic.
#[test]
fn a_malformed_job_is_a_failed_frame_not_a_panic() {
    let (job, work) = job_in("malformed", Vec::new());
    let mut negative = job.clone();
    negative.window[0].demands[1] = -1.0;
    let mut past_end = job.clone();
    past_end.window[0].flows[0] = (5, 0);
    let mut wraps = job.clone();
    wraps.window[0].flows[0] = (0, 4);
    for (what, bad) in [
        ("negative", negative),
        ("past end", past_end),
        ("wraps", wraps),
    ] {
        let config = SuperMsg::Config {
            attempt: 0,
            job: job_to_json(&bad),
        };
        let mut out = Vec::new();
        assert_eq!(
            run_trainerd(&encode_frame(&config.to_value())[..], &mut out),
            1,
            "{what}"
        );
        let mut frames = FrameReader::new(&out[..]);
        let mut last = None;
        while let Some(v) = frames.read_frame().expect("well-formed frames") {
            last = Some(ChildMsg::from_value(&v).expect("child message"));
        }
        assert!(
            matches!(&last, Some(ChildMsg::Failed { detail }) if detail.contains("job instance")),
            "{what}: {last:?}"
        );
    }
    let _ = fs::remove_dir_all(&work);
}

#[test]
fn clean_supervised_run_ships_without_restarts() {
    let (job, work) = job_in("clean", Vec::new());
    let out = run_supervised(&job, Path::new(TRAINERD), 5);
    assert!(!out.dead, "clean run must ship: {:?}", out.log);
    assert_eq!(out.restarts, 0, "log: {:?}", out.log);
    assert_eq!(out.ipc_errors, 0, "log: {:?}", out.log);
    assert_eq!(out.heartbeat_misses, 0, "log: {:?}", out.log);
    let p = out.params_path.expect("params path");
    assert!(p.exists(), "shipped file must exist");
    let _ = fs::remove_dir_all(&work);
}

/// Satellite drill: real SIGKILL at each trainer phase of a two-worker
/// fine-tune. Every killed run must recover in exactly one restart and
/// ship the same bits as the unkilled baseline — crash recovery is
/// invisible in the artifact.
#[test]
fn sigkill_at_every_phase_recovers_and_ships_identical_bits() {
    let (mut base_job, base_work) = job_in("sweep_base", Vec::new());
    base_job.workers = 2;
    let base = run_supervised(&base_job, Path::new(TRAINERD), 5);
    assert!(!base.dead, "baseline must ship: {:?}", base.log);
    let base_bytes = fs::read(base.params_path.expect("baseline path")).expect("baseline bytes");
    let _ = fs::remove_dir_all(&base_work);

    let phases = [
        "kill-trainer@epoch=1,phase=forward",
        "kill-trainer@epoch=0,phase=checkpoint",
        "kill-trainer@phase=ship",
    ];
    for (i, spec) in phases.iter().enumerate() {
        let (mut job, work) = job_in(&format!("sweep_{i}"), vec![(*spec).to_string()]);
        job.workers = 2;
        let out = run_supervised(&job, Path::new(TRAINERD), 9 + i as u64);
        assert!(!out.dead, "{spec}: must recover, log {:?}", out.log);
        assert_eq!(out.restarts, 1, "{spec}: one restart, log {:?}", out.log);
        let p = out.params_path.expect("recovered run ships");
        let bytes = fs::read(&p).expect("shipped bytes");
        assert_eq!(
            bytes, base_bytes,
            "{spec}: recovered ship must be bitwise-identical to the unkilled run"
        );
        let _ = fs::remove_dir_all(&work);
    }
}

/// A child that garbles a frame mid-protocol is a typed IPC error; the
/// supervisor restarts it and the retry ships the same bits.
#[test]
fn garbled_ipc_restarts_and_still_ships_identical_bits() {
    let (base_job, base_work) = job_in("garble_base", Vec::new());
    let base = run_supervised(&base_job, Path::new(TRAINERD), 5);
    let base_bytes = fs::read(base.params_path.expect("baseline path")).expect("baseline bytes");
    let _ = fs::remove_dir_all(&base_work);

    // frame 2 is the first heartbeat (frame 1 is hello)
    let (job, work) = job_in("garble", vec!["garble-ipc@frame=2".to_string()]);
    let out = run_supervised(&job, Path::new(TRAINERD), 21);
    assert!(!out.dead, "garble must recover: {:?}", out.log);
    assert_eq!(out.restarts, 1, "log: {:?}", out.log);
    assert!(
        out.ipc_errors >= 1,
        "garbled frame must count as a protocol error: {:?}",
        out.log
    );
    let bytes = fs::read(out.params_path.expect("ships after garble")).expect("bytes");
    assert_eq!(
        bytes, base_bytes,
        "garble recovery must not change the artifact"
    );
    let _ = fs::remove_dir_all(&work);
}

/// A worker panic inside the fine-tune never leaves the child: the
/// trainer contains it, rolls the epoch back at half the learning rate
/// and ships — no restart, no IPC error. The shipped file is the *best*
/// epoch's parameters (epoch 0 on this window, where validation NormMLU
/// floors at 1), so the rollback is read off the child's own snapshot.
#[test]
fn worker_kill_inside_the_child_is_rolled_back_without_a_restart() {
    let (job, work) = job_in("wk", vec!["kill-worker@epoch=1,worker=0".into()]);
    let out = run_supervised(&job, Path::new(TRAINERD), 13);
    assert!(
        !out.dead,
        "a contained worker kill must ship: {:?}",
        out.log
    );
    assert_eq!(out.restarts, 0, "log: {:?}", out.log);
    assert_eq!(out.ipc_errors, 0, "log: {:?}", out.log);
    assert!(out.params_path.expect("ships after rollback").exists());

    let mut store = ParamStore::new();
    let _ = Harp::new(&mut store, &mut StdRng::seed_from_u64(0), tiny_model());
    let snap = harp_nn::load_snapshot(&mut store, &job.checkpoint_dir.join(SNAPSHOT_FILE))
        .expect("child snapshot");
    assert_eq!(
        snap.rollbacks, 1,
        "the killed epoch must be rolled back once"
    );
    assert_eq!(snap.next_epoch, job.epochs, "and then run to completion");
    let _ = fs::remove_dir_all(&work);
}

/// JSON numbers are f64-backed; a seed above 2^53 must still reach the
/// child bit for bit.
#[test]
fn job_seed_round_trips_every_bit() {
    let (mut job, work) = job_in("seed", Vec::new());
    job.seed = u64::MAX - 6;
    let back = job_from_json(&job_to_json(&job)).expect("decode own encoding");
    assert_eq!(back.seed, u64::MAX - 6);
    let _ = fs::remove_dir_all(&work);
}

/// An escalation script that kills every attempt exhausts the restart
/// budget and reports a dead trainer — the caller keeps last-good params.
#[test]
fn kill_every_attempt_exhausts_the_ladder() {
    let spec = "kill-trainer@epoch=0,phase=forward".to_string();
    let (job, work) = job_in("dead", vec![spec.clone(); 8]);
    let out = run_supervised(&job, Path::new(TRAINERD), 3);
    assert!(out.dead, "an always-killed trainer must die: {:?}", out.log);
    assert!(out.params_path.is_none());
    assert!(out.restarts >= 1);
    assert!(
        out.log.iter().any(|l| l.contains("params-only")),
        "the ladder must reach the params-only rung: {:?}",
        out.log
    );
    let _ = fs::remove_dir_all(&work);
}

// ---------------------------------------------------------------------
// The lifecycle engine over the supervised trainer
// ---------------------------------------------------------------------

fn process_config(seed: u64, tag: &str, chaos_proc: Vec<String>) -> LifecycleConfig {
    let mut sc = Scenario::quick(seed);
    sc.max_ticks = 12;
    sc.bootstrap_ticks = 3;
    sc.bootstrap_epochs = 2;
    sc.storms[0].at_tick = 5;
    sc.flash_crowds[0].at_tick = 9;
    sc.flash_crowds[0].duration = 2;
    sc.retrain.rolling_window = 2;
    sc.retrain.min_interval = 3;
    sc.retrain.epochs = 2;
    sc.retrain.ship_delay = 1;
    // trigger aggressively so the drill exercises a retrain + ship cycle
    sc.retrain.normmlu_trigger = 1.0005;
    let mut cfg = LifecycleConfig::new(sc);
    cfg.work_dir = std::env::temp_dir().join(format!("harp_lifecycle_proc_{tag}_{seed}"));
    // the `None` default re-execs the test harness, which is no trainer
    cfg.trainer_exe = Some(PathBuf::from(TRAINERD));
    cfg.chaos_proc = chaos_proc;
    cfg.chaos_serve = Some(Arc::new(
        FaultPlan::parse("drop-conn@nth=4").expect("valid plan"),
    ));
    cfg.chaos_ship = Some(Arc::new(
        FaultPlan::parse("corrupt-checkpoint@write=1,mode=flip").expect("valid plan"),
    ));
    cfg
}

#[test]
fn same_seed_lifecycle_is_bitwise_reproducible_under_chaos() {
    let a = run_lifecycle(&process_config(33, "a", Vec::new())).expect("run a");
    let b = run_lifecycle(&process_config(33, "b", Vec::new())).expect("run b");

    assert_eq!(a.events, b.events, "event logs diverged");
    assert_eq!(
        a.deterministic_json().to_string(),
        b.deterministic_json().to_string(),
        "deterministic report projections diverged"
    );

    assert!(
        a.events.iter().any(|e| e.contains("retrain_trigger")),
        "the drill must actually retrain: {:?}",
        a.events
    );
    assert!(
        a.events.iter().any(|e| e.contains(" super ")),
        "supervisor log lines must fold into the event stream: {:?}",
        a.events
    );
    assert_eq!(a.trainer_deaths, 0, "clean children must never die");
    assert_eq!(a.trainer_ipc_errors, 0);
    assert!(!a.ticks.is_empty(), "no ticks scored");
    assert_eq!(a.protocol_errors, 0, "well-formed traffic only");
    assert!(
        a.ticks.iter().all(|t| t.norm_mlu >= 1.0),
        "NormMLU is floored at 1"
    );
}

#[test]
fn lifecycle_recovers_from_scripted_kills_deterministically() {
    // every retrain's first attempt is SIGKILLed mid-forward; the ladder
    // recovers each one, and the run is still bitwise-reproducible
    let chaos = vec!["kill-trainer@epoch=0,phase=forward".to_string()];
    let a = run_lifecycle(&process_config(41, "ka", chaos.clone())).expect("run a");
    let b = run_lifecycle(&process_config(41, "kb", chaos)).expect("run b");

    assert_eq!(a.events, b.events, "event logs diverged under kills");
    assert_eq!(
        a.deterministic_json().to_string(),
        b.deterministic_json().to_string(),
        "deterministic report projections diverged under kills"
    );
    assert_eq!(
        a.trainer_deaths, 0,
        "one kill per job must not exhaust the ladder"
    );
    if a.events.iter().any(|e| e.contains("retrain_trigger")) {
        assert!(
            a.trainer_restarts >= 1,
            "each retrain eats exactly one scripted kill: {:?}",
            a.events
        );
    }
}
