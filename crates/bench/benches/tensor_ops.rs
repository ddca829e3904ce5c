//! Micro-benchmarks of the autodiff engine's hot kernels: dense matmul,
//! the fused attention op, segment ops (per-flow softmax and the
//! scatter-add that builds link loads), and a full forward+backward of a
//! small MLP.

use criterion::{criterion_group, criterion_main, Criterion};
use harp_nn::{Activation, Mlp};
use harp_tensor::{kernels, ParamStore, Tape};
use std::sync::Arc;

fn bench_matmul(c: &mut Criterion) {
    let a: Vec<f32> = (0..256 * 64).map(|i| (i % 13) as f32 * 0.1).collect();
    let b: Vec<f32> = (0..64 * 64).map(|i| (i % 7) as f32 * 0.1).collect();
    c.bench_function("kernel_matmul_256x64x64", |bench| {
        bench.iter(|| kernels::matmul(&a, &b, 256, 64, 64))
    });
}

fn bench_attention_shape(c: &mut Criterion) {
    // one SETTRANS attention head at AnonNet scale, as the encoder runs it:
    // softmax(q kᵀ / sqrt(hd)) v over [T=2000, S=10, hd=8]
    let n = 2000 * 10 * 8;
    let (q, k, v) = (vec![0.1f32; n], vec![0.2f32; n], vec![0.3f32; n]);
    c.bench_function("attention_2000x10x8", |bench| {
        bench.iter(|| {
            let mut t = Tape::new();
            let [q, k, v] = [&q, &k, &v].map(|x| t.constant_slice(vec![2000, 10, 8], x));
            t.attention(q, k, v, 1.0 / 8f32.sqrt(), None)
        })
    });
}

fn bench_segment_ops(c: &mut Criterion) {
    // per-flow softmax over 2000 tunnels in 150 flows + load scatter-add
    let n_tunnels = 2000usize;
    let n_flows = 150usize;
    let n_edges = 120usize;
    let seg: Arc<Vec<usize>> = Arc::new((0..n_tunnels).map(|i| i % n_flows).collect());
    let pair_edge: Arc<Vec<usize>> =
        Arc::new((0..n_tunnels * 4).map(|i| (i * 7) % n_edges).collect());
    let pair_tunnel: Arc<Vec<usize>> = Arc::new((0..n_tunnels * 4).map(|i| i / 4).collect());
    c.bench_function("segment_softmax_plus_loads", |bench| {
        bench.iter(|| {
            let mut t = Tape::new();
            let u = t.constant(vec![n_tunnels], vec![0.3; n_tunnels]);
            let w = t.segment_softmax(u, seg.clone(), n_flows);
            let per_pair = t.gather_rows(w, pair_tunnel.clone());
            let loads = t.segment_sum(per_pair, pair_edge.clone(), n_edges);
            t.max_all(loads)
        })
    });
}

fn bench_mlp_fwd_bwd(c: &mut Criterion) {
    let mut store = ParamStore::new();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let mlp = Mlp::new(
        &mut store,
        &mut rng,
        "m",
        &[20, 32, 1],
        Activation::LeakyRelu(0.01),
        Activation::Identity,
    );
    c.bench_function("mlp_2000x20_forward_backward", |bench| {
        bench.iter(|| {
            let mut t = Tape::new();
            let x = t.constant(vec![2000, 20], vec![0.1; 2000 * 20]);
            let y = mlp.forward(&mut t, &store, x);
            let l = t.sum_all(y);
            let mut s2 = store.clone();
            t.backward(l, &mut s2);
            s2
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_matmul, bench_attention_shape, bench_segment_ops, bench_mlp_fwd_bwd
}
criterion_main!(benches);
