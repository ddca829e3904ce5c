//! Inference-cost ablations (DESIGN.md): per-scheme forward passes on
//! Abilene, HARP's RAU-depth scaling (3/7/14 recursions), and the tunnel
//! embedding choice (set transformer vs plain mean pooling).

use criterion::{criterion_group, criterion_main, Criterion};
use harp_bench::zoo::{build_model, Scheme};
use harp_core::Instance;
use harp_datasets::abilene;
use harp_nn::TransformerEncoder;
use harp_paths::TunnelSet;
use harp_tensor::{ParamStore, Tape};
use harp_traffic::{gravity_series, GravityConfig};
use rand::{rngs::StdRng, SeedableRng};

fn abilene_instance() -> Instance {
    let topo = abilene();
    let n = topo.num_nodes();
    let tunnels = TunnelSet::k_shortest(&topo, &(0..n).collect::<Vec<_>>(), 8, 0.0);
    let cfg = GravityConfig::uniform(n, 1.0);
    let mut rng = StdRng::seed_from_u64(3);
    let tm = gravity_series(&cfg, &mut rng, 1).remove(0);
    Instance::compile(&topo, &tunnels, &tm)
}

fn bench_schemes(c: &mut Criterion) {
    let inst = abilene_instance();
    for scheme in [
        Scheme::Dote,
        Scheme::Harp { rau_iters: 7 },
        Scheme::Teal {
            tunnels_per_flow: 8,
        },
    ] {
        let (model, store) = build_model(scheme, &inst, 9);
        c.bench_function(&format!("forward_abilene_{}", scheme.label()), |b| {
            b.iter(|| {
                let mut t = Tape::new();
                model.forward(&mut t, &store, &inst)
            })
        });
    }
}

fn bench_rau_depth(c: &mut Criterion) {
    let inst = abilene_instance();
    for iters in [3usize, 7, 14] {
        let (model, store) = build_model(Scheme::Harp { rau_iters: iters }, &inst, 9);
        c.bench_function(&format!("harp_rau_depth_{iters}"), |b| {
            b.iter(|| {
                let mut t = Tape::new();
                model.forward(&mut t, &store, &inst)
            })
        });
    }
}

fn bench_tunnel_embedding(c: &mut Criterion) {
    // SETTRANS vs mean pooling over tunnel edge embeddings: the design
    // ablation for the paper's choice of a transformer encoder.
    let inst = abilene_instance();
    let d = 16usize;
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(4);
    let enc = TransformerEncoder::new(&mut store, &mut rng, "e", 2, d, 2, 32);
    let rows = inst.num_tunnels + inst.num_pairs();
    let packed = vec![0.1f32; rows * d];

    c.bench_function("tunnel_embed_settrans", |b| {
        b.iter(|| {
            let mut t = Tape::new();
            // one encoder pass per length bucket, as `Harp` runs it
            let parts: Vec<_> = inst
                .buckets
                .iter()
                .map(|bucket| {
                    let n = bucket.seq_index.len();
                    let x =
                        t.constant_slice(vec![n / bucket.width, bucket.width, d], &packed[..n * d]);
                    let y = enc.forward(&mut t, &store, x, None);
                    t.reshape(y, vec![n, d])
                })
                .collect();
            t.concat_rows(&parts)
        })
    });
    c.bench_function("tunnel_embed_mean_pool", |b| {
        b.iter(|| {
            let mut t = Tape::new();
            let x = t.constant_slice(vec![rows, d], &packed);
            // mean over valid positions via the incidence segment-sum
            let rows = t.gather_rows(x, inst.pair_row.clone());
            t.segment_sum(rows, inst.pair_tunnel.clone(), inst.num_tunnels)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_schemes, bench_rau_depth, bench_tunnel_embedding
}
criterion_main!(benches);
