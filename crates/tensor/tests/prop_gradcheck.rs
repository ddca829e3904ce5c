//! Property-based gradient checking: random op chains over random shapes
//! must always match central finite differences, and structural identities
//! (softmax rows sum to 1, layer-norm rows have zero mean, reductions
//! match manual computation) must hold for arbitrary inputs.

use std::sync::Arc;

use harp_tensor::gradcheck::gradcheck;
use harp_tensor::{ParamId, ParamStore, Tape};
use proptest::prelude::*;

/// Smooth unary ops safe at any input.
#[derive(Debug, Clone, Copy)]
enum UnaryOp {
    Tanh,
    LeakyRelu,
    MulScalar,
    AddScalar,
}

fn apply_unary(t: &mut Tape, op: UnaryOp, x: harp_tensor::Var) -> harp_tensor::Var {
    match op {
        UnaryOp::Tanh => t.tanh(x),
        UnaryOp::LeakyRelu => t.leaky_relu(x, 0.1),
        UnaryOp::MulScalar => t.mul_scalar(x, 0.7),
        UnaryOp::AddScalar => t.add_scalar(x, 0.3),
    }
}

fn arb_unary() -> impl Strategy<Value = UnaryOp> {
    prop_oneof![
        Just(UnaryOp::Tanh),
        Just(UnaryOp::LeakyRelu),
        Just(UnaryOp::MulScalar),
        Just(UnaryOp::AddScalar),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_unary_chains_gradcheck(
        data in proptest::collection::vec(-1.5f32..1.5, 6),
        ops in proptest::collection::vec(arb_unary(), 1..5),
    ) {
        let mut store = ParamStore::new();
        let id = store.register("x", vec![6], data);
        let ops2 = ops.clone();
        let res = gradcheck(&mut store, &[id], 1e-2, 3e-2, move |s| {
            let mut t = Tape::new();
            let mut x = t.param(s, ParamId_shim(0));
            for &op in &ops2 {
                x = apply_unary(&mut t, op, x);
            }
            let l = t.sum_all(x);
            (t, l)
        });
        prop_assert!(res.is_ok(), "{:?} ops {:?}", res, ops);
    }

    #[test]
    fn matmul_then_softmax_gradcheck(
        a in proptest::collection::vec(-1.0f32..1.0, 12),
        b in proptest::collection::vec(-1.0f32..1.0, 8),
    ) {
        let mut store = ParamStore::new();
        let ia = store.register("a", vec![3, 4], a);
        let _ib = store.register("b", vec![4, 2], b);
        let res = gradcheck(&mut store, &[ia, _ib], 1e-2, 3e-2, |s| {
            let mut t = Tape::new();
            let av = t.param(s, ParamId_shim(0));
            let bv = t.param(s, ParamId_shim(1));
            let y = t.matmul(av, bv);
            let sm = t.softmax_last_dim(y, None);
            let c = t.constant(vec![3, 2], vec![0.2, 0.9, 0.1, 0.5, 0.7, 0.3]);
            let p = t.mul(sm, c);
            let l = t.sum_all(p);
            (t, l)
        });
        prop_assert!(res.is_ok(), "{:?}", res);
    }

    #[test]
    fn segment_pipeline_gradcheck(
        data in proptest::collection::vec(-1.0f32..1.0, 8),
        segs in proptest::collection::vec(0usize..3, 8),
    ) {
        // every segment must be nonempty for segment_softmax denominators
        let mut segs = segs;
        segs[0] = 0; segs[1] = 1; segs[2] = 2;
        let seg = Arc::new(segs);
        let mut store = ParamStore::new();
        let id = store.register("x", vec![8], data);
        let seg2 = seg.clone();
        let res = gradcheck(&mut store, &[id], 1e-2, 3e-2, move |s| {
            let mut t = Tape::new();
            let x = t.param(s, ParamId_shim(0));
            let sm = t.segment_softmax(x, seg2.clone(), 3);
            let c = t.constant(vec![8], (0..8).map(|i| 0.1 * i as f32 + 0.1).collect());
            let w = t.mul(sm, c);
            let sums = t.segment_sum(w, seg2.clone(), 3);
            let l = t.sum_all(sums);
            (t, l)
        });
        prop_assert!(res.is_ok(), "{:?}", res);
    }

    #[test]
    fn softmax_rows_always_sum_to_one(
        data in proptest::collection::vec(-30.0f32..30.0, 12),
    ) {
        let mut t = Tape::new();
        let x = t.constant(vec![3, 4], data);
        let y = t.softmax_last_dim(x, None);
        for r in 0..3 {
            let s: f32 = t.value(y)[r * 4..(r + 1) * 4].iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-5, "row {} sums to {}", r, s);
        }
    }

    #[test]
    fn layer_norm_rows_are_normalized(
        data in proptest::collection::vec(-10.0f32..10.0, 12),
    ) {
        // skip degenerate constant rows (variance ~ 0)
        let distinct = data.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-3);
        prop_assume!(distinct);
        let mut t = Tape::new();
        let x = t.constant(vec![2, 6], data);
        let y = t.layer_norm(x, 1e-5);
        for r in 0..2 {
            let row = &t.value(y)[r * 6..(r + 1) * 6];
            let mean: f32 = row.iter().sum::<f32>() / 6.0;
            prop_assert!(mean.abs() < 1e-3);
        }
    }

    #[test]
    fn reductions_match_manual(
        data in proptest::collection::vec(-5.0f32..5.0, 10),
    ) {
        let mut t = Tape::new();
        let x = t.constant(vec![10], data.clone());
        let s = t.sum_all(x);
        let mx = t.max_all(x);
        let manual_sum: f32 = data.iter().sum();
        let manual_max = data.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!((t.scalar_value(s) - manual_sum).abs() < 1e-3);
        prop_assert!((t.scalar_value(mx) - manual_max).abs() < 1e-6);
    }

    /// `unreachable_params` agrees with execution: of four params, each
    /// through a chain of ops with nonzero derivatives, the ones whose chain
    /// feeds the loss get a nonzero gradient from `backward` and are not
    /// listed; the others stay recorded, get zero gradient and are listed.
    #[test]
    fn reachability_agrees_with_nonzero_gradients(
        raw_mask in proptest::collection::vec(proptest::bool::ANY, 4),
        chains in proptest::collection::vec(proptest::collection::vec(arb_unary(), 0..4), 4),
        vals in proptest::collection::vec(0.2f32..1.5, 16),
    ) {
        let mut mask = raw_mask;
        mask[0] = true; // at least one param feeds the loss
        let mut store = ParamStore::new();
        let ids: Vec<ParamId> = (0..4)
            .map(|i| store.register(&format!("p{i}"), vec![4], vals[4 * i..4 * (i + 1)].to_vec()))
            .collect();
        let mut t = Tape::new();
        let mut live = Vec::new();
        for (i, chain) in chains.iter().enumerate() {
            let mut x = t.param(&store, ids[i]);
            for &op in chain {
                x = apply_unary(&mut t, op, x);
            }
            if mask[i] {
                live.push(x);
            }
        }
        let total = live.into_iter().reduce(|a, b| t.add(a, b)).expect("mask[0] is set");
        let loss = t.sum_all(total);
        let unreachable = t.unreachable_params(loss);
        t.backward(loss, &mut store);
        for i in 0..4 {
            let grad_nonzero = store.grad(ids[i]).iter().any(|&g| g != 0.0);
            prop_assert_eq!(mask[i], grad_nonzero, "p{} chains {:?}", i, &chains);
            prop_assert_eq!(mask[i], !unreachable.contains(&ids[i]), "p{} chains {:?}", i, &chains);
        }
    }
}

/// `ParamId`'s constructor is private; the store hands ids out in
/// registration order, so index-based reconstruction is safe in tests.
#[allow(non_snake_case)]
fn ParamId_shim(i: usize) -> ParamId {
    // ParamStore::ids() yields ids in registration order
    let mut s = ParamStore::new();
    for k in 0..=i {
        let _ = s.register(&format!("p{k}"), vec![1], vec![0.0]);
    }
    s.ids().nth(i).unwrap()
}
