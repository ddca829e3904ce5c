//! Property tests tying the analyzer to ground truth from execution: on
//! randomly generated tapes, (1) independent shape re-inference must agree
//! with the shapes the executed tape recorded (no `shape-mismatch` /
//! `invalid-op` on well-formed graphs), and (2) reachability analysis must
//! agree with which parameters actually receive gradient from `backward`.

use harp_tensor::{AffineAct, ParamStore, Tape, Var};
use harp_verify::analyze;
use proptest::prelude::*;

/// Gradient-transparent unary ops: for inputs in (0, 2] each has a strictly
/// nonzero derivative, so a param chained through them into the loss is
/// guaranteed a nonzero gradient.
#[derive(Debug, Clone, Copy)]
enum ChainOp {
    Tanh,
    MulScalar,
    AddScalar,
    LeakyRelu,
}

fn apply_chain(t: &mut Tape, op: ChainOp, x: Var) -> Var {
    match op {
        ChainOp::Tanh => t.tanh(x),
        ChainOp::MulScalar => t.mul_scalar(x, 0.7),
        ChainOp::AddScalar => t.add_scalar(x, 0.3),
        ChainOp::LeakyRelu => t.leaky_relu(x, 0.1),
    }
}

fn arb_chain_op() -> impl Strategy<Value = ChainOp> {
    prop_oneof![
        Just(ChainOp::Tanh),
        Just(ChainOp::MulScalar),
        Just(ChainOp::AddScalar),
        Just(ChainOp::LeakyRelu),
    ]
}

/// Structural ops for the shape property: each builds a fresh node from a
/// rank-2 running value, exercising a different inference rule.
#[derive(Debug, Clone, Copy)]
enum ShapeOp {
    MatMul,
    SeededAffine,
    ConcatSelf,
    TransposeLast2,
    SoftmaxLastDim,
    LayerNorm,
    ReshapeFlat,
    SelfAttention,
}

fn arb_shape_op() -> impl Strategy<Value = ShapeOp> {
    prop_oneof![
        Just(ShapeOp::MatMul),
        Just(ShapeOp::SeededAffine),
        Just(ShapeOp::ConcatSelf),
        Just(ShapeOp::TransposeLast2),
        Just(ShapeOp::SoftmaxLastDim),
        Just(ShapeOp::LayerNorm),
        Just(ShapeOp::ReshapeFlat),
        Just(ShapeOp::SelfAttention),
    ]
}

/// Apply `op` to a rank-2 `[r, c]` value, returning a rank-2 result
/// (re-promoting reductions so the chain can continue).
fn apply_shape_op(t: &mut Tape, op: ShapeOp, x: Var, r: usize, c: usize) -> (Var, usize, usize) {
    match op {
        ShapeOp::MatMul => {
            let w = t.constant(vec![c, 3], vec![0.1; c * 3]);
            (t.matmul(x, w), r, 3)
        }
        ShapeOp::SeededAffine => {
            // [x | x] through a [2c, 3] weight: the head rows as a seed
            let w = t.constant(vec![2 * c, 3], vec![0.1; 2 * c * 3]);
            let b = t.constant(vec![3], vec![0.05; 3]);
            let seed = t.affine(x, w, 0, None, None, AffineAct::Identity);
            let y = t.affine(x, w, c, Some(b), Some(seed), AffineAct::LeakyRelu(0.1));
            (y, r, 3)
        }
        ShapeOp::ConcatSelf => (t.concat_cols(&[x, x]), r, 2 * c),
        ShapeOp::TransposeLast2 => (t.transpose_last2(x), c, r),
        ShapeOp::SoftmaxLastDim => (t.softmax_last_dim(x, None), r, c),
        ShapeOp::LayerNorm => (t.layer_norm(x, 1e-5), r, c),
        ShapeOp::ReshapeFlat => {
            let f = t.reshape(x, vec![r * c]);
            (t.reshape(f, vec![1, r * c]), 1, r * c)
        }
        ShapeOp::SelfAttention => {
            let seq = t.reshape(x, vec![1, r, c]);
            let y = t.attention(seq, seq, seq, 0.5, None);
            (t.reshape(y, vec![r, c]), r, c)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Well-formed random graphs must re-infer exactly the shapes the tape
    /// executed: no shape or validity diagnostics, and no false hazard on
    /// graphs made of bounded ops.
    #[test]
    fn shape_reinference_matches_executed_shapes(
        r in 1usize..4,
        c in 1usize..4,
        ops in proptest::collection::vec(arb_shape_op(), 1..6),
    ) {
        let mut t = Tape::new();
        let data: Vec<f32> = (0..r * c).map(|i| 0.05 * i as f32 + 0.1).collect();
        let mut x = t.constant(vec![r, c], data);
        let (mut r, mut c) = (r, c);
        for &op in &ops {
            let (nx, nr, nc) = apply_shape_op(&mut t, op, x, r, c);
            x = nx;
            r = nr;
            c = nc;
        }
        let loss = t.sum_all(x);
        let report = analyze(&t, loss, None);
        prop_assert!(
            !report.has("shape-mismatch") && !report.has("invalid-op"),
            "ops {:?}:\n{}", ops, report
        );
        prop_assert!(report.is_clean(), "ops {:?}:\n{}", ops, report);
    }

    /// Reachability must agree with execution: params the analyzer calls
    /// unreachable get exactly zero gradient from `backward`, and params
    /// that do receive nonzero gradient are never flagged.
    #[test]
    fn reachability_agrees_with_nonzero_gradients(
        raw_mask in proptest::collection::vec(proptest::bool::ANY, 4),
        chains in proptest::collection::vec(
            proptest::collection::vec(arb_chain_op(), 0..4), 4),
        vals in proptest::collection::vec(0.2f32..1.5, 16),
    ) {
        // at least one param must feed the loss
        let mut mask = raw_mask;
        mask[0] = true;

        let mut store = ParamStore::new();
        let ids: Vec<_> = (0..4)
            .map(|i| store.register(&format!("p{i}"), vec![4], vals[4 * i..4 * (i + 1)].to_vec()))
            .collect();

        let mut t = Tape::new();
        let mut live: Option<Var> = None;
        for i in 0..4 {
            let mut x = t.param(&store, ids[i]);
            for &op in &chains[i] {
                x = apply_chain(&mut t, op, x);
            }
            if mask[i] {
                live = Some(match live {
                    Some(acc) => t.add(acc, x),
                    None => x,
                });
            }
            // unmasked chains stay recorded on the tape but feed nothing
        }
        let total = live.expect("mask[0] is forced true");
        let loss = t.sum_all(total);

        let report = analyze(&t, loss, Some(&store));
        let flagged: Vec<String> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "unreachable-param")
            .map(|d| d.message.clone())
            .collect();

        store.zero_grads();
        t.backward(loss, &mut store);

        for i in 0..4 {
            let grad_nonzero = store.grad(ids[i]).iter().any(|&g| g != 0.0);
            let is_flagged = flagged.iter().any(|m| m.contains(&format!("'p{i}'")));
            // analyzer says unreachable => execution got zero gradient
            prop_assert!(
                !(is_flagged && grad_nonzero),
                "p{i} flagged unreachable but has nonzero grad (mask {:?}, chains {:?})",
                mask, chains
            );
            // nonzero gradient is only possible through a live path, and the
            // chain ops all have nonzero derivatives on (0, 2], so the two
            // notions must coincide exactly here
            prop_assert_eq!(
                mask[i], !is_flagged,
                "p{} mask/flag disagree (chains {:?})", i, &chains
            );
            prop_assert_eq!(
                mask[i], grad_nonzero,
                "p{} mask/grad disagree (chains {:?})", i, &chains
            );
        }
    }
}
