//! The op census: every `Op` kind is either recorded by the tapes the
//! shipped models record or kept as the reference a test compares a fused
//! op against — nothing else stays on the tape.
//!
//! The tapes are what training and serving record for HARP (7 RAU
//! iterations), HARP-NoRAU, DOTE and TEAL on Abilene with 4 shortest paths
//! per flow: `forward` → `mlu_loss` → `mul_scalar` → `backward`, and
//! `precompute_epoch` → `forward_cached`. Per-op timing counts every node
//! of every tape — `precompute_epoch`'s own included — in the
//! `tape.fwd.<kind>` histograms. Its own test binary because the
//! observability sink is process-wide and first caller wins.

use std::collections::BTreeSet;
use std::sync::Arc;

use harp_core::{mlu_loss, Dote, Harp, HarpConfig, Instance, SplitModel, Teal, TealConfig};
use harp_paths::TunnelSet;
use harp_tensor::{AffineAct, Op, ParamStore, Tape, Var};
use harp_traffic::{gravity_series, GravityConfig};
use rand::{rngs::StdRng, SeedableRng};

enum Role {
    /// A shipped model's tapes record it.
    Recorded,
    /// Only tests record it, as the reference of the test named here.
    Reference(&'static str),
}

/// Deliberately exhaustive (no `_` arm): a new `Op` variant does not
/// compile until it says who records it.
fn role(op: &Op) -> Role {
    use Op::*;
    match op {
        Leaf
        | Add(..)
        | Mul(..)
        | Ln(..)
        | Tanh(..)
        | MulScalar(..)
        | AddScalar(..)
        | Recip(..)
        | AddBias(..)
        | MulRow(..)
        | BroadcastScalar(..)
        | MatMul(..)
        | Affine { .. }
        | Attention(..)
        | Reshape(..)
        | ConcatCols(..)
        | ConcatRows(..)
        | GatherRows(..)
        | MaxAll(..)
        | SegmentSum(..)
        | SegmentMax(..)
        | SegmentSoftmax(..)
        | LayerNorm(..) => Role::Recorded,
        Relu(..) | LeakyRelu(..) => {
            Role::Reference("prop_affine.rs: the unfused chain behind `Affine`")
        }
        TransposeLast2(..) | BatchMatMul(..) | SoftmaxLastDim(..) => {
            Role::Reference("prop_attention.rs: the unfused chain behind `Attention`")
        }
        SumAll(..) => Role::Reference("gradcheck.rs, prop_gradcheck.rs: the scalar loss"),
    }
}

/// One value of every variant, to map kind names back to [`role`].
fn every_op(v: Var) -> Vec<Op> {
    use Op::*;
    let idx = Arc::new(Vec::new());
    vec![
        Leaf,
        Add(v, v),
        Mul(v, v),
        Ln(v),
        Relu(v),
        LeakyRelu(v, 0.1),
        Tanh(v),
        MulScalar(v, 1.0),
        AddScalar(v, 1.0),
        Recip(v, 1.0),
        AddBias(v, v),
        MulRow(v, v),
        BroadcastScalar(v, 1),
        MatMul(v, v),
        BatchMatMul(v, v),
        Affine {
            x: v,
            w: v,
            k0: 0,
            bias: None,
            init: None,
            act: AffineAct::Identity,
        },
        TransposeLast2(v),
        Attention(v, v, v, 1.0, None),
        Reshape(v),
        ConcatCols(vec![v]),
        ConcatRows(vec![v]),
        GatherRows(v, idx.clone()),
        SumAll(v),
        MaxAll(v),
        SegmentSum(v, idx.clone(), 0),
        SegmentMax(v, idx.clone(), 0),
        SegmentSoftmax(v, idx, 0),
        SoftmaxLastDim(v, None),
        LayerNorm(v, 1e-5),
    ]
}

/// Abilene, every node an edge node, 4 shortest paths per flow, one
/// gravity-model snapshot.
fn abilene_k4() -> Instance {
    let topo = harp_datasets::abilene();
    let nodes: Vec<usize> = (0..topo.num_nodes()).collect();
    let tunnels = TunnelSet::k_shortest(&topo, &nodes, 4, 0.0);
    let cfg = GravityConfig::uniform(topo.num_nodes(), 500.0);
    let mut rng = StdRng::seed_from_u64(1);
    let tm = &gravity_series(&cfg, &mut rng, 1)[0];
    Instance::compile(&topo, &tunnels, tm)
}

/// Record one training step's tape and one served infer's.
fn record(model: &dyn SplitModel, store: &mut ParamStore, inst: &Instance) {
    let mut t = Tape::new();
    let splits = model.forward(&mut t, store, inst);
    let mlu = mlu_loss(&mut t, splits, inst);
    let loss = t.mul_scalar(mlu, 0.5);
    t.backward(loss, store);
    let cache = model.precompute_epoch(store, inst).unwrap_or_default();
    let mut t = Tape::new();
    let _ = model.forward_cached(&mut t, store, inst, &cache);
}

#[test]
fn model_tapes_record_exactly_the_recorded_kinds() {
    let sink = std::env::temp_dir().join("harp_core_op_census.jsonl");
    assert!(harp_obs::init(
        harp_obs::Config::jsonl_to(sink).with_op_timing()
    ));

    let inst = abilene_k4();
    let mut rng = StdRng::seed_from_u64(97);
    for rau_iters in [7, 0] {
        let mut store = ParamStore::new();
        let cfg = HarpConfig {
            rau_iters,
            ..HarpConfig::default()
        };
        let harp = Harp::new(&mut store, &mut rng, cfg);
        record(&harp, &mut store, &inst);
    }
    let mut store = ParamStore::new();
    let dote = Dote::new(&mut store, &mut rng, &inst, &[128, 128]);
    record(&dote, &mut store, &inst);
    let mut store = ParamStore::new();
    let cfg = TealConfig {
        tunnels_per_flow: 4,
        ..TealConfig::default()
    };
    let teal = Teal::new(&mut store, &mut rng, cfg);
    record(&teal, &mut store, &inst);

    let (_, hists) = harp_obs::metrics_snapshot();
    let seen: BTreeSet<&str> = hists
        .iter()
        .filter(|h| h.count > 0)
        .filter_map(|h| h.name.strip_prefix("tape.fwd."))
        .collect();

    let mut t = Tape::new();
    let ops = every_op(t.scalar(0.0));
    let kinds: BTreeSet<&str> = ops.iter().map(Op::kind).collect();
    assert_eq!(kinds.len(), ops.len(), "one value per variant");
    for kind in &seen {
        assert!(
            kinds.contains(kind),
            "`{kind}` is recorded but not classified"
        );
    }
    for op in &ops {
        let kind = op.kind();
        match role(op) {
            Role::Recorded => assert!(
                seen.contains(kind),
                "`{kind}` is classified as recorded but no model tape records it"
            ),
            Role::Reference(test) => assert!(
                !seen.contains(kind),
                "`{kind}` is the reference of {test}, yet a model tape records it"
            ),
        }
    }
}
