//! Training perf baseline: wall-clock `train_model` on a representative zoo
//! instance (HARP on GEANT with a gravity snapshot series) at worker counts
//! 1 / 2 / 4, writing `BENCH_train.json` at the repo root so the training
//! perf trajectory — and the serial-vs-parallel determinism contract — is
//! tracked in-tree from PR to PR.
//!
//! Usage: `cargo run --release -p harp-bench --bin bench_train [out.json]`
//!
//! Note: speedup numbers are only meaningful up to the measurement host's
//! core count, which is recorded in the output as `host_cpus`.

use std::time::Instant;

use harp_core::{train_model, EvalOptions, Harp, HarpConfig, Instance, TrainConfig};
use harp_opt::MluOracle;
use harp_paths::TunnelSet;
use harp_tensor::ParamStore;
use harp_traffic::{gravity_series, GravityConfig};
use rand::{rngs::StdRng, SeedableRng};

/// GEANT snapshot series: one topology, `count` gravity TMs, optimal MLU
/// per snapshot from the LP oracle.
fn geant_series(count: usize) -> Vec<(Instance, f64)> {
    let topo = harp_datasets::geant();
    let edge_nodes: Vec<usize> = (0..topo.num_nodes()).collect();
    let tunnels = TunnelSet::k_shortest(&topo, &edge_nodes, 4, 0.0);
    let mut cfg = GravityConfig::uniform(topo.num_nodes(), 1.0);
    cfg.edge_nodes = edge_nodes;
    let mut rng = StdRng::seed_from_u64(42);
    let tms = gravity_series(&cfg, &mut rng, count);
    let scale = harp_datasets::calibrate_demand_scale(&topo, &tunnels, &tms, 0.7);
    let oracle = MluOracle::default();
    tms.into_iter()
        .map(|tm| {
            let inst = Instance::compile(&topo, &tunnels, &tm.scaled(scale));
            let opt = oracle.solve(&inst.program).mlu;
            (inst, opt)
        })
        .collect()
}

/// One measured training run at a fixed worker count.
struct Run {
    workers: usize,
    wall_s: f64,
    best_epoch: usize,
    best_val: f64,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_train.json".to_string());
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("bench_train: building GEANT snapshot series (host_cpus = {host_cpus})");
    let series = geant_series(12);
    let (train_set, val_set) = series.split_at(9);
    let train_refs: Vec<(&Instance, f64)> = train_set.iter().map(|(i, o)| (i, *o)).collect();
    let val_refs: Vec<(&Instance, f64)> = val_set.iter().map(|(i, o)| (i, *o)).collect();

    let epochs = 3;
    let mut runs: Vec<Run> = Vec::new();
    for workers in [1usize, 2, 4] {
        // fresh, identically-seeded model per run so runs are comparable
        let mut store = ParamStore::new();
        let mut mrng = StdRng::seed_from_u64(1);
        let harp = Harp::new(&mut store, &mut mrng, HarpConfig::default());
        let cfg = TrainConfig {
            epochs,
            batch_size: 4,
            lr: 3e-3,
            patience: 0, // fixed epoch count: every run does identical work
            workers,
            ..Default::default()
        };
        let t0 = Instant::now();
        let report = train_model(
            &harp,
            &mut store,
            &train_refs,
            &val_refs,
            cfg,
            EvalOptions::default(),
        )
        .expect("bench_train training run failed");
        let wall_s = t0.elapsed().as_secs_f64();
        let speedup = runs
            .iter()
            .find(|r| r.workers == 1)
            .map_or(1.0, |serial| serial.wall_s / wall_s);
        println!(
            "  workers {workers}: {wall_s:.2}s  ({speedup:.2}x vs serial)  \
             best epoch {} val {:.6}",
            report.best_epoch, report.best_val
        );
        runs.push(Run {
            workers,
            wall_s,
            best_epoch: report.best_epoch,
            best_val: report.best_val,
        });
    }

    let serial_wall = runs
        .iter()
        .find(|r| r.workers == 1)
        .map_or(f64::NAN, |r| r.wall_s);
    let rows: Vec<serde_json::Value> = runs
        .iter()
        .map(|r| {
            serde_json::json!({
                "workers": r.workers,
                "wall_s": r.wall_s,
                "speedup_vs_serial": serial_wall / r.wall_s,
                "best_epoch": r.best_epoch,
                "best_val_norm_mlu": r.best_val,
            })
        })
        .collect();
    let doc = serde_json::json!({
        "suite": "train_model: HARP (default config) on GEANT, 9 train / 3 val gravity snapshots, 3 epochs, batch 4",
        "host_cpus": host_cpus,
        "note": "speedup is bounded by host_cpus; training output (best_epoch, best_val, every loss) is bitwise identical for every worker count",
        "runs": rows,
    });
    let text = serde_json::to_string_pretty(&doc).expect("serialize bench report");
    if let Err(e) = std::fs::write(&out_path, text) {
        eprintln!("error: write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("[results -> {out_path}]");
}
