//! Profiling drill-down: run one quick HARP training pass on GEANT with
//! full observability (spans + per-op tape timing) and print where the time
//! goes — the stage breakdown (GCN / SETTRANS / MLP1 / RAU / backward /
//! merge / validate) as a span tree, plus the hottest tape ops by total
//! forward/backward nanoseconds, what one forward records on the tape
//! (nodes, bytes of values appended, most bytes resident at once), and the
//! per-op-kind tables of `precompute_epoch` — what a topology reaction
//! pays — and of the *cached head* — what a steady-state infer still pays —
//! on the GEANT instance the serving benchmark uses.
//!
//! Usage: `cargo run --release -p harp-bench --bin bench_profile [epochs]`
//! (default 1 epoch). Structured events stream to stderr in human form;
//! the report prints to stdout at the end.

use harp_bench::zoo;
use harp_core::{train_model, EvalOptions, Instance, TrainConfig};
use harp_obs::{Config, SinkKind};
use harp_paths::TunnelSet;
use harp_tensor::Tape;
use harp_traffic::{gravity_series, GravityConfig};
use rand::{rngs::StdRng, SeedableRng};

fn geant_instances(count: usize, tunnels_per_flow: usize) -> Vec<Instance> {
    let topo = harp_datasets::geant();
    let edge_nodes: Vec<usize> = (0..topo.num_nodes()).collect();
    let tunnels = TunnelSet::k_shortest(&topo, &edge_nodes, tunnels_per_flow, 0.0);
    let mut cfg = GravityConfig::uniform(topo.num_nodes(), 1.0);
    cfg.edge_nodes = edge_nodes;
    let mut rng = StdRng::seed_from_u64(7);
    gravity_series(&cfg, &mut rng, count)
        .into_iter()
        .map(|tm| Instance::compile(&topo, &tunnels, &tm))
        .collect()
}

/// Cached-head forwards averaged into the per-op table.
const HEAD_REPS: u32 = 300;
/// Epoch precomputes averaged into the per-op table.
const PRECOMPUTE_REPS: u32 = 30;

/// `(observations, sum)` per histogram whose name starts with `prefix`.
fn histogram_totals(prefix: &str) -> Vec<(&'static str, u64, u64)> {
    let (_, histograms) = harp_obs::metrics_snapshot();
    histograms
        .iter()
        .filter(|h| h.name.starts_with(prefix))
        .map(|h| (h.name, h.count, h.sum))
        .collect()
}

/// Current `(tape.nodes_recorded, tape.value_bytes)` totals and the sum of
/// `tape.arena_peak_bytes` over the tapes torn down so far.
fn tape_counters() -> (u64, u64, u64) {
    let (counters, _) = harp_obs::metrics_snapshot();
    let get = |name: &str| {
        counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    let peaks = histogram_totals("tape.arena_peak_bytes");
    (
        get("tape.nodes_recorded"),
        get("tape.value_bytes"),
        peaks.first().map_or(0, |p| p.2),
    )
}

/// Run `forward` `reps` times and print where the time went per tape op
/// kind (calls and microseconds per run), as the difference of the
/// `tape.fwd.*` histograms.
fn op_table(what: &str, reps: u32, mut forward: impl FnMut()) {
    let before = histogram_totals("tape.fwd.");
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        forward();
    }
    let run_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(reps);
    let mut rows: Vec<(&str, f64, f64)> = histogram_totals("tape.fwd.")
        .into_iter()
        .map(|(name, calls, ns)| {
            let (c0, n0) = before
                .iter()
                .find(|b| b.0 == name)
                .map_or((0, 0), |b| (b.1, b.2));
            let per = |x: u64| x as f64 / f64::from(reps);
            (name, per(calls - c0), per(ns - n0) / 1e3)
        })
        .filter(|r| r.1 > 0.0)
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    println!("\n--- {what} per op kind ({run_us:.0} us per run, mean of {reps}) ---");
    for (name, calls, us) in rows {
        println!(
            "  {:<28} {calls:>5.0} calls  {us:>8.1} us  {:>7.1} us/call",
            name.trim_start_matches("tape."),
            us / calls
        );
    }
}

fn main() {
    let epochs: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("epochs must be a number"))
        .unwrap_or(1);
    if !harp_obs::init(Config {
        sink: SinkKind::Human,
        file: None,
        op_timing: true,
    }) {
        eprintln!("bench_profile: observability was already configured elsewhere; proceeding");
    }

    let instances = geant_instances(5, 4);
    // Loss normalization by the optimal MLU is irrelevant to a timing
    // profile; 1.0 keeps the oracle out of the measured window.
    let train_refs: Vec<(&Instance, f64)> = instances[..4].iter().map(|i| (i, 1.0)).collect();
    let val_refs: Vec<(&Instance, f64)> = instances[4..].iter().map(|i| (i, 1.0)).collect();

    let (model, mut store) =
        zoo::build_model(zoo::Scheme::Harp { rau_iters: 7 }, train_refs[0].0, 3);
    let t0 = std::time::Instant::now();
    let report = train_model(
        &*model,
        &mut store,
        &train_refs,
        &val_refs,
        TrainConfig {
            epochs,
            batch_size: train_refs.len(),
            ..Default::default()
        },
        EvalOptions::default(),
    )
    .expect("bench_profile training run failed");
    let wall = t0.elapsed();

    println!(
        "\n=== bench_profile: {} epoch(s) of HARP on GEANT in {:.2?} (best val NormMLU {:.4}) ===",
        report.history.len(),
        wall,
        report.best_val
    );
    println!("\n--- span tree (wall time by stage) ---");
    print!("{}", harp_obs::span_report());

    let (_, histograms) = harp_obs::metrics_snapshot();
    let mut op_hists: Vec<_> = histograms
        .iter()
        .filter(|h| h.name.starts_with("tape.fwd.") || h.name.starts_with("tape.bwd."))
        .collect();
    op_hists.sort_by_key(|h| std::cmp::Reverse(h.sum));
    println!("\n--- hottest tape ops (total ns, forward + backward attribution) ---");
    for h in op_hists.iter().take(16) {
        println!(
            "  {:<24} {:>9} calls  total {:>10.3}ms  mean {:>8.0}ns",
            h.name,
            h.count,
            h.sum as f64 / 1e6,
            h.mean()
        );
    }

    // What one forward records, how many bytes of values it appends to the
    // tape arena and how many of them are resident at once (less than it
    // appends only where the tape forgets tiles: `precompute_epoch`), on the
    // instance the serving benchmarks use (GEANT, 8 tunnels per flow).
    let serve_inst = geant_instances(1, 8).remove(0);
    println!(
        "\n--- per forward (GEANT, {} tunnels) ---",
        serve_inst.num_tunnels
    );
    let mut cache = None;
    let recorded = |what: &str, run: &mut dyn FnMut()| {
        let before = tape_counters();
        run();
        let after = tape_counters();
        println!(
            "  {what:<18} tape.nodes_recorded {:>5}  tape.value_bytes {:>9}  tape.arena_peak_bytes {:>9}",
            after.0 - before.0,
            after.1 - before.1,
            after.2 - before.2
        );
    };
    recorded("full forward", &mut || {
        let mut tape = Tape::new();
        let _ = model.forward(&mut tape, &store, &serve_inst);
    });
    recorded("precompute_epoch", &mut || {
        cache = model.precompute_epoch(&store, &serve_inst);
    });
    let cache = cache.expect("HARP precomputes an epoch cache");
    recorded("cached head", &mut || {
        let mut tape = Tape::new();
        let _ = model.forward_cached(&mut tape, &store, &serve_inst, &cache);
    });

    // Where a topology reaction spends its encoder pass and a steady-state
    // infer its head: the same forwards again, enough times for per-op means.
    op_table("precompute_epoch", PRECOMPUTE_REPS, || {
        let _ = model.precompute_epoch(&store, &serve_inst);
    });
    op_table("cached head", HEAD_REPS, || {
        let mut tape = Tape::new();
        let _ = model.forward_cached(&mut tape, &store, &serve_inst, &cache);
    });

    let (counters, _) = harp_obs::metrics_snapshot();
    println!("\n--- counters ---");
    for c in &counters {
        println!("  {:<28} {}", c.name, c.value);
    }
    harp_obs::flush();
}
