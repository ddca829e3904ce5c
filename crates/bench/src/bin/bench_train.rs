//! Training perf baseline: wall-clock `train_model` on a representative zoo
//! instance (HARP on GEANT with a gravity snapshot series) at worker counts
//! 1 / 2 / 4, writing `BENCH_train.json` at the repo root so the training
//! perf trajectory — and the serial-vs-parallel determinism contract — is
//! tracked in-tree from PR to PR.
//!
//! Usage: `cargo run --release -p harp-bench --bin bench_train [out.json]`
//!
//! `--check <baseline.json> [--tolerance <pct>]` re-runs the same training
//! workload (per-worker-count min over 3 rounds, to sit under scheduler
//! noise) and exits non-zero if wall time regressed beyond the tolerance
//! (default 25%: whole-training wall clock is far noisier than kernel
//! timings) against the matching baseline rows, or if the determinism
//! contract (equal `best_epoch`, bitwise-equal `best_val` across worker
//! counts) breaks. This is the CI smoke gate for training perf.
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

/// Compare this run's wall times against a baseline document: per worker
/// count, wall time must stay within `tol` (fractional) of the baseline,
/// and the determinism contract must hold within this run. Returns the
/// failure messages (empty = pass).
fn check_against_baseline(baseline: &serde_json::Value, runs: &[Run], tol: f64) -> Vec<String> {
    let base_runs: Vec<&serde_json::Value> = baseline
        .get("runs")
        .and_then(serde_json::Value::as_array)
        .map(|v| v.iter().collect())
        .unwrap_or_default();
    let mut failures = Vec::new();
    let mut matched = 0usize;
    for run in runs {
        let Some(base) = base_runs.iter().find(|b| {
            b.get("workers").and_then(serde_json::Value::as_u64) == Some(run.workers as u64)
        }) else {
            continue;
        };
        let Some(base_wall) = base.get("wall_s").and_then(serde_json::Value::as_f64) else {
            continue;
        };
        if base_wall <= 0.0 {
            continue;
        }
        matched += 1;
        let ratio = run.wall_s / base_wall;
        println!(
            "  check workers {:<2} {ratio:>6.3}x baseline (tolerance {tol:.2})",
            run.workers
        );
        if ratio > 1.0 + tol {
            failures.push(format!(
                "workers {}: {:.2}s vs baseline {base_wall:.2}s ({:.1}% slower, tolerance {:.1}%)",
                run.workers,
                run.wall_s,
                (ratio - 1.0) * 100.0,
                tol * 100.0
            ));
        }
    }
    if matched == 0 {
        failures.push("no worker counts matched the baseline (stale baseline file?)".to_string());
    }
    // determinism contract: identical model selection regardless of workers
    if let Some(first) = runs.first() {
        for run in &runs[1..] {
            if run.best_epoch != first.best_epoch {
                failures.push(format!(
                    "determinism: best_epoch {} at workers {} vs {} at workers {}",
                    run.best_epoch, run.workers, first.best_epoch, first.workers
                ));
            }
            if run.best_val.to_bits() != first.best_val.to_bits() {
                failures.push(format!(
                    "determinism: best_val {:e} at workers {} vs {:e} at workers {}",
                    run.best_val, run.workers, first.best_val, first.workers
                ));
            }
        }
    }
    failures
}

fn main() {
    let mut out_path = "BENCH_train.json".to_string();
    let mut check_path: Option<String> = None;
    let mut tolerance = 0.25f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => {
                check_path = Some(args.next().expect("--check requires a baseline file"));
            }
            "--tolerance" => {
                let v = args.next().expect("--tolerance requires a percentage");
                tolerance = v
                    .parse::<f64>()
                    .expect("--tolerance must be a number (percent)")
                    / 100.0;
            }
            other => out_path = other.to_string(),
        }
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("bench_train: building GEANT snapshot series (host_cpus = {host_cpus})");
    let series = geant_series(12);
    let (train_set, val_set) = series.split_at(9);
    let train_refs: Vec<(&Instance, f64)> = train_set.iter().map(|(i, o)| (i, *o)).collect();
    let val_refs: Vec<(&Instance, f64)> = val_set.iter().map(|(i, o)| (i, *o)).collect();

    // Baseline mode records one round. Check mode takes the per-worker
    // minimum over several rounds: interference on shared runners only
    // ever slows a run down, so the min estimates the noise floor and a
    // genuine regression still shows in every round.
    let rounds = if check_path.is_some() { 3 } else { 1 };
    let epochs = 3;
    let mut runs: Vec<Run> = Vec::new();
    for workers in [1usize, 2, 4] {
        let mut wall_s = f64::INFINITY;
        let mut best_epoch = 0usize;
        let mut best_val = f64::NAN;
        for _ in 0..rounds {
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
            wall_s = wall_s.min(t0.elapsed().as_secs_f64());
            best_epoch = report.best_epoch;
            best_val = report.best_val;
        }
        let speedup = runs
            .iter()
            .find(|r| r.workers == 1)
            .map_or(1.0, |serial| serial.wall_s / wall_s);
        println!(
            "  workers {workers}: {wall_s:.2}s  ({speedup:.2}x vs serial)  \
             best epoch {best_epoch} val {best_val:.6}"
        );
        runs.push(Run {
            workers,
            wall_s,
            best_epoch,
            best_val,
        });
    }

    if let Some(base_path) = check_path {
        let text = match std::fs::read_to_string(&base_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: read baseline {base_path}: {e}");
                std::process::exit(1);
            }
        };
        let baseline: serde_json::Value = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: parse baseline {base_path}: {e}");
                std::process::exit(1);
            }
        };
        let failures = check_against_baseline(&baseline, &runs, tolerance);
        if failures.is_empty() {
            println!("[check passed against {base_path}]");
            return;
        }
        for f in &failures {
            eprintln!("regression: {f}");
        }
        std::process::exit(1);
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
