//! Kernel perf baseline: times the blocked matmul kernels on the matmul
//! shapes recorded from real model forward passes and writes
//! `BENCH_kernels.json` at the repo root, so the perf trajectory is tracked
//! in-tree from PR to PR. Next to the
//! fused affine op (`affine_ns`, and `affine_seeded_ns` with a seed) each
//! shape records the unfused `matmul → add_bias → relu` it replaces
//! (`matmul_chain_ns`), buffer for buffer as the tape ran it.
//!
//! Usage: `cargo run --release -p harp-bench --bin bench_kernels [out.json]`
//!
//! `--check <baseline.json> [--tolerance <pct>]` re-times the same shapes
//! (per-shape min over 3 rounds, to sit under scheduler noise) and exits
//! non-zero if any timing class regresses more than `pct` (default 30%)
//! against the baseline, aggregated over matched shapes — the CI smoke
//! gate that instrumentation stays off the hot path. The default is wide
//! on purpose: shared runners show double-digit scheduler/steal drift
//! between runs, and the gate exists to catch structural regressions
//! (an accidental scalar fallback, timing hooks left on the hot loop),
//! which show up as multi-x slowdowns, not single-digit percentages.

use std::collections::BTreeSet;
use std::time::Instant;

use harp_bench::zoo;
use harp_core::{run_inference_cached, EvalOptions, Instance};
use harp_paths::TunnelSet;
use harp_tensor::{kernels, AffineAct, Op, Tape};
use harp_traffic::{gravity_series, GravityConfig};
use rand::{rngs::StdRng, SeedableRng};

fn geant_instance() -> Instance {
    let topo = harp_datasets::geant();
    let edge_nodes: Vec<usize> = (0..topo.num_nodes()).collect();
    let tunnels = TunnelSet::k_shortest(&topo, &edge_nodes, 8, 0.0);
    let mut cfg = GravityConfig::uniform(topo.num_nodes(), 1.0);
    cfg.edge_nodes = edge_nodes;
    let mut rng = StdRng::seed_from_u64(7);
    let tm = gravity_series(&cfg, &mut rng, 1).remove(0);
    Instance::compile(&topo, &tunnels, &tm)
}

/// RAU layer 0 over `[embedding | scalars]`, the product the seeded op took
/// apart (now 3696x16x32 once per epoch + 3696x4x32 seeded per iteration):
/// no tape records it any more, the chain-vs-fused comparison still wants it.
const CONCAT_SHAPE: (usize, usize, usize) = (3696, 20, 32);

/// The eight largest product shapes on the three schemes' forward tapes,
/// every seeded affine shape (small, but the per-request ones), and
/// [`CONCAT_SHAPE`].
fn recorded_matmul_shapes(inst: &Instance) -> Vec<(usize, usize, usize)> {
    let mut shapes = BTreeSet::new();
    let mut seeded = BTreeSet::from([CONCAT_SHAPE]);
    for scheme in [
        zoo::Scheme::Harp { rau_iters: 7 },
        zoo::Scheme::Dote,
        zoo::Scheme::Teal {
            tunnels_per_flow: 8,
        },
    ] {
        let (model, store) = zoo::build_model(scheme, inst, 3);
        let mut tape = Tape::new();
        let _ = model.forward(&mut tape, &store, inst);
        for node in tape.nodes() {
            match node.op {
                Op::MatMul(a, _) | Op::Affine { x: a, .. } => {
                    let (m, k) = tape.shape(*a).as_matrix();
                    let (_, n) = node.shape.as_matrix();
                    shapes.insert((m, k, n));
                    if matches!(node.op, Op::Affine { init: Some(_), .. }) {
                        seeded.insert((m, k, n));
                    }
                }
                Op::BatchMatMul(a, _) => {
                    let (b, m, k) = tape.shape(*a).as_batched();
                    let (_, _, n) = node.shape.as_batched();
                    shapes.insert((b * m, k, n));
                }
                _ => {}
            }
        }
    }
    let mut v: Vec<(usize, usize, usize)> = shapes.into_iter().collect();
    v.sort_by_key(|&(m, k, n)| std::cmp::Reverse(m * k * n));
    v.truncate(8);
    seeded.retain(|s| !v.contains(s));
    v.extend(seeded);
    v
}

fn test_matrix(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

/// Median wall-clock nanoseconds per call over `reps` calls.
fn time_ns<F: FnMut()>(reps: usize, mut f: F) -> u64 {
    // warm-up
    f();
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Compare this run's rows against a baseline document: per timing class,
/// total ns over matched shapes must stay within `tol` (fractional) of the
/// baseline total. Returns the regression messages (empty = pass).
fn check_against_baseline(
    baseline: &serde_json::Value,
    rows: &[serde_json::Value],
    tol: f64,
) -> Vec<String> {
    const CLASSES: [&str; 6] = [
        "matmul_serial_ns",
        "matmul_at_b_ns",
        "matmul_a_bt_ns",
        "matmul_chain_ns",
        "affine_ns",
        "affine_seeded_ns",
    ];
    let key = |r: &serde_json::Value| {
        (
            r.get("m").and_then(serde_json::Value::as_u64),
            r.get("k").and_then(serde_json::Value::as_u64),
            r.get("n").and_then(serde_json::Value::as_u64),
        )
    };
    let base_rows: Vec<&serde_json::Value> = baseline
        .get("shapes")
        .and_then(serde_json::Value::as_array)
        .map(|v| v.iter().collect())
        .unwrap_or_default();
    let mut failures = Vec::new();
    let mut matched = 0usize;
    for class in CLASSES {
        let mut base_total = 0.0f64;
        let mut now_total = 0.0f64;
        for row in rows {
            let Some(base) = base_rows.iter().find(|b| key(b) == key(row)) else {
                continue;
            };
            let (Some(b), Some(c)) = (
                base.get(class).and_then(serde_json::Value::as_f64),
                row.get(class).and_then(serde_json::Value::as_f64),
            ) else {
                continue;
            };
            base_total += b;
            now_total += c;
            matched += 1;
        }
        if base_total <= 0.0 {
            continue;
        }
        let ratio = now_total / base_total;
        println!("  check {class:<18} {ratio:>6.3}x baseline (tolerance {tol:.2})");
        if ratio > 1.0 + tol {
            failures.push(format!(
                "{class}: {now_total:.0}ns vs baseline {base_total:.0}ns ({:.1}% slower, \
                 tolerance {:.1}%)",
                (ratio - 1.0) * 100.0,
                tol * 100.0
            ));
        }
    }
    if matched == 0 {
        failures.push("no shapes matched the baseline (stale baseline file?)".to_string());
    }
    failures
}

fn main() {
    let mut out_path = "BENCH_kernels.json".to_string();
    let mut check_path: Option<String> = None;
    let mut tolerance = 0.30f64;
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
    let inst = geant_instance();
    let shapes = recorded_matmul_shapes(&inst);
    println!("bench_kernels: {} recorded shapes", shapes.len());

    // Both modes take the per-shape minimum over several rounds of medians:
    // scheduler interference on shared runners only ever slows a sample
    // down, so the min estimates the noise floor, a genuine regression
    // still shows in every round, and baseline and check use the same
    // estimator (a baseline recorded in a noisy window stays comparable).
    let rounds = 3;
    let reps = 15;
    let mut rows = Vec::new();
    for &(m, k, n) in &shapes {
        let a = test_matrix(m * k, 11);
        let b = test_matrix(k * n, 12);
        let dy = test_matrix(m * n, 13);
        let w = test_matrix(k * n, 14);

        let bias = test_matrix(n, 15);
        let init = test_matrix(m * n, 16);
        let affine = |init: Option<&[f32]>| {
            let mut y = vec![0.0f32; m * n];
            kernels::affine_into(&a, &b, Some(&bias), init, AffineAct::Relu, m, k, n, &mut y);
            std::hint::black_box(y);
        };

        let mut serial_ns = u64::MAX;
        let mut at_b_ns = u64::MAX;
        let mut a_bt_ns = u64::MAX;
        let mut chain_ns = u64::MAX;
        let mut affine_ns = u64::MAX;
        let mut seeded_ns = u64::MAX;
        for _ in 0..rounds {
            serial_ns = serial_ns.min(time_ns(reps, || {
                std::hint::black_box(kernels::matmul(&a, &b, m, k, n));
            }));
            at_b_ns = at_b_ns.min(time_ns(reps, || {
                let mut dw = vec![0.0f32; k * n];
                kernels::matmul_at_b(&a, &dy, m, k, n, &mut dw);
                std::hint::black_box(dw);
            }));
            a_bt_ns = a_bt_ns.min(time_ns(reps, || {
                let mut dx = vec![0.0f32; m * k];
                kernels::matmul_a_bt(&dy, &w, m, n, k, &mut dx);
                std::hint::black_box(dx);
            }));
            chain_ns = chain_ns.min(time_ns(reps, || {
                // each tape op copies its input to a new buffer, then maps it
                let mm = kernels::matmul(&a, &b, m, k, n);
                let mut biased = mm.clone();
                for row in biased.chunks_exact_mut(n) {
                    for (v, bj) in row.iter_mut().zip(&bias) {
                        *v += bj;
                    }
                }
                let mut y = biased.clone();
                for v in &mut y {
                    *v = v.max(0.0);
                }
                std::hint::black_box((mm, biased, y));
            }));
            affine_ns = affine_ns.min(time_ns(reps, || affine(None)));
            seeded_ns = seeded_ns.min(time_ns(reps, || affine(Some(&init))));
        }
        // flops/ns == GFLOP/s; 2mkn multiply-adds per product
        let gflops = 2.0 * (m * k * n) as f64 / serial_ns as f64;
        println!(
            "  {m:>5}x{k:<4}x{n:<4}  serial {serial_ns:>10}ns ({gflops:>5.2} GFLOP/s)  \
             at_b {at_b_ns:>10}ns  a_bt {a_bt_ns:>10}ns  \
             chain {chain_ns:>10}ns  affine {affine_ns:>10}ns  seeded {seeded_ns:>10}ns"
        );
        rows.push(serde_json::json!({
            "m": m, "k": k, "n": n,
            "matmul_serial_ns": serial_ns,
            "matmul_serial_gflops": (gflops * 100.0).round() / 100.0,
            "matmul_at_b_ns": at_b_ns,
            "matmul_a_bt_ns": a_bt_ns,
            "matmul_chain_ns": chain_ns,
            "affine_ns": affine_ns,
            "affine_seeded_ns": seeded_ns,
        }));
    }

    // End-to-end cached inference: HARP with the epoch-invariant stage
    // (GCN + set transformer) precomputed once, timing only the per-TM
    // path — the serving hot loop. Target: < 2ms per request. Uses
    // `rau_iters = 3` (the paper sweeps {3, 7, 14}); the latency scales
    // roughly linearly in the RAU iteration count.
    let (model, store) = zoo::build_model(zoo::Scheme::Harp { rau_iters: 3 }, &inst, 3);
    let cache = model
        .precompute_epoch(&store, &inst)
        .expect("HARP precomputes an epoch cache");
    let mut infer_ns = u64::MAX;
    for _ in 0..rounds {
        infer_ns = infer_ns.min(time_ns(reps, || {
            std::hint::black_box(run_inference_cached(
                model.as_ref(),
                &store,
                &inst,
                EvalOptions::default(),
                &cache,
            ));
        }));
    }
    println!(
        "  cached inference e2e: {infer_ns}ns ({:.3}ms)",
        infer_ns as f64 / 1e6
    );

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
        let mut failures = check_against_baseline(&baseline, &rows, tolerance);
        if let Some(base_e2e) = baseline
            .get("cached_infer_e2e_ns")
            .and_then(serde_json::Value::as_f64)
        {
            let ratio = infer_ns as f64 / base_e2e;
            println!(
                "  check cached_infer_e2e   {ratio:>6.3}x baseline (tolerance {tolerance:.2})"
            );
            if ratio > 1.0 + tolerance {
                failures.push(format!(
                    "cached_infer_e2e_ns: {infer_ns}ns vs baseline {base_e2e:.0}ns \
                     ({:.1}% slower, tolerance {:.1}%)",
                    (ratio - 1.0) * 100.0,
                    tolerance * 100.0
                ));
            }
        }
        if failures.is_empty() {
            println!("[check passed against {base_path}]");
            return;
        }
        for f in &failures {
            eprintln!("regression: {f}");
        }
        std::process::exit(1);
    }

    let doc = serde_json::json!({
        "suite": "blocked matmul kernels on shapes recorded from HARP/DOTE/TEAL forward tapes (GEANT, 8 tunnels/flow)",
        "host_cpus": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "timing": "median of 15 reps, ns/call",
        "cached_infer_e2e_ns": infer_ns,
        "shapes": rows,
    });
    let text = serde_json::to_string_pretty(&doc).expect("serialize bench report");
    if let Err(e) = std::fs::write(&out_path, text) {
        eprintln!("error: write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("[results -> {out_path}]");
}
