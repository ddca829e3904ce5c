//! Micro-benchmarks of the blocked matmul kernels over the shapes the TE
//! models *actually* execute.
//!
//! Instead of guessing dimensions, this suite records one forward tape per
//! scheme (HARP / DOTE / TEAL) on a GEANT-scale instance and walks it with
//! the `harp-tensor` introspection API (the same `Tape::nodes` walk the
//! `harp-verify` analyzer is built on), collecting every distinct
//! `MatMul` / `BatchMatMul` shape. Each shape is then benchmarked through
//! the forward kernel and both gradient kernels, serial vs. the global
//! worker pool, so `BENCH_kernels.json` and this suite stay in agreement
//! about what "the hot shapes" are.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use harp_bench::zoo;
use harp_core::Instance;
use harp_paths::TunnelSet;
use harp_runtime::Runtime;
use harp_tensor::{kernels, Op, Tape};
use harp_traffic::{gravity_series, GravityConfig};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::BTreeSet;

/// Compile a GEANT instance (all nodes are edge nodes, 8 tunnels per flow)
/// with a seeded gravity TM — the mid-size row of the paper's fig11 sweep.
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

/// Record one forward tape per scheme and return every distinct matmul
/// shape `(m, k, n)` on them (batched matmuls contribute their per-batch
/// shape; the batch count is folded into `m`, matching the work done).
fn recorded_matmul_shapes(inst: &Instance) -> Vec<(usize, usize, usize)> {
    let mut shapes = BTreeSet::new();
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
    // Largest shapes dominate training time; keep the top 6 by MAC count.
    let mut v: Vec<(usize, usize, usize)> = shapes.into_iter().collect();
    v.sort_by_key(|&(m, k, n)| std::cmp::Reverse(m * k * n));
    v.truncate(6);
    v
}

/// Deterministic pseudo-random matrix (xorshift; no RNG dependency).
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

fn bench_recorded_shapes(c: &mut Criterion) {
    let inst = geant_instance();
    let shapes = recorded_matmul_shapes(&inst);
    let global = Runtime::global();
    for &(m, k, n) in &shapes {
        let a = test_matrix(m * k, 11);
        let b = test_matrix(k * n, 12);
        c.bench_function(&format!("matmul_{m}x{k}x{n}_serial"), |bench| {
            bench.iter(|| kernels::matmul_with(Runtime::serial(), &a, &b, m, k, n))
        });
        c.bench_function(
            &format!("matmul_{m}x{k}x{n}_w{}", global.workers()),
            |bench| bench.iter(|| kernels::matmul_with(global, &a, &b, m, k, n)),
        );
        // Gradient kernels on the same shape: dW = x^T dy and dx = dy W^T.
        let dy = test_matrix(m * n, 13);
        c.bench_function(&format!("matmul_at_b_{m}x{k}x{n}"), |bench| {
            bench.iter(|| {
                let mut dw = vec![0.0f32; k * n];
                kernels::matmul_at_b(&a, &dy, m, k, n, &mut dw);
                black_box(dw)
            })
        });
        let w = test_matrix(k * n, 14);
        c.bench_function(&format!("matmul_a_bt_{m}x{n}x{k}"), |bench| {
            bench.iter(|| {
                let mut dx = vec![0.0f32; m * k];
                kernels::matmul_a_bt(&dy, &w, m, n, k, &mut dx);
                black_box(dx)
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_recorded_shapes
}
criterion_main!(benches);
