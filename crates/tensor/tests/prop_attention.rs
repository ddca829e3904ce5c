//! The fused `Tape::attention` op against the five-op chain it replaces
//! (`transpose_last2 → batch_matmul → mul_scalar → softmax_last_dim →
//! batch_matmul`, kept in harp-tensor as this reference): forward values and
//! every input gradient must be bitwise-equal, with and without a
//! key-padding mask, and the op must pass finite-difference gradchecking.

use std::sync::Arc;

use harp_tensor::gradcheck::gradcheck;
use harp_tensor::{ParamStore, Tape, Var};
use proptest::prelude::*;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Deterministic pseudo-random fill (xorshift), distinct per seed.
fn fill(len: usize, seed: u64) -> Vec<f32> {
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

fn unfused(t: &mut Tape, q: Var, k: Var, v: Var, scale: f32, mask: Option<Arc<Vec<f32>>>) -> Var {
    let kt = t.transpose_last2(k);
    let scores = t.batch_matmul(q, kt);
    let scores = t.mul_scalar(scores, scale);
    let att = t.softmax_last_dim(scores, mask);
    t.batch_matmul(att, v)
}

/// `[b, s, s]` score mask in which sequence `t` attends its first
/// `valid[t]` keys only (the layout `harp_nn::expand_key_mask` produces).
fn key_padding_mask(valid: &[usize], s: usize) -> Vec<f32> {
    let mut m = vec![0.0f32; valid.len() * s * s];
    for (t, &n) in valid.iter().enumerate() {
        for i in 0..s {
            m[(t * s + i) * s..][..n].fill(1.0);
        }
    }
    m
}

/// Output and the gradients of q, k, v for `sum(attention(q, k, v) ⊙ w)`.
/// `shared` feeds one tensor as q, k and v (three gradients into one node).
fn run(
    (b, s, hd): (usize, usize, usize),
    mask: Option<Arc<Vec<f32>>>,
    shared: bool,
    fused: bool,
) -> [Vec<f32>; 4] {
    let n = b * s * hd;
    let mut store = ParamStore::new();
    let ids = [("q", 1), ("k", 2), ("v", 3)]
        .map(|(name, seed)| store.register(name, vec![b, s, hd], fill(n, seed)));
    let mut t = Tape::new();
    let [q, k, v] = ids.map(|id| t.param(&store, id));
    let (k, v) = if shared { (q, q) } else { (k, v) };
    let scale = 1.0 / (hd as f32).sqrt();
    let y = if fused {
        t.attention(q, k, v, scale, mask)
    } else {
        unfused(&mut t, q, k, v, scale, mask)
    };
    let w = t.constant(vec![b, s, hd], fill(n, 4));
    let yw = t.mul(y, w);
    let loss = t.sum_all(yw);
    t.backward(loss, &mut store);
    let [gq, gk, gv] = ids.map(|id| store.grad(id).to_vec());
    [t.value(y).to_vec(), gq, gk, gv]
}

fn assert_fused_equals_chain(dims: (usize, usize, usize), mask: Option<Arc<Vec<f32>>>) {
    for shared in [false, true] {
        let want = run(dims, mask.clone(), shared, false);
        let got = run(dims, mask.clone(), shared, true);
        for (name, (w, g)) in ["out", "dq", "dk", "dv"].iter().zip(want.iter().zip(&got)) {
            assert_eq!(
                bits(w),
                bits(g),
                "{name} {dims:?} mask={} shared={shared}",
                mask.is_some()
            );
        }
    }
}

#[test]
fn single_position_sequences() {
    // s = 1: the score product degenerates to the matvec kernel path and
    // every softmax row is [1.0].
    for hd in [1, 4, 8] {
        assert_fused_equals_chain((3, 1, hd), None);
        assert_fused_equals_chain((3, 1, hd), Some(Arc::new(vec![1.0])));
    }
}

#[test]
fn wide_and_fully_masked_rows() {
    // s past one lane group, hd with a scalar tail, a row-shared mask, and
    // a sequence whose keys are all padding (softmax rows of zeros).
    assert_fused_equals_chain((2, 19, 11), None);
    let shared_row: Vec<f32> = (0..19).map(|j| (j % 3 != 0) as u8 as f32).collect();
    assert_fused_equals_chain((2, 19, 11), Some(Arc::new(shared_row)));
    let m = key_padding_mask(&[0, 5, 9], 9);
    assert_fused_equals_chain((3, 9, 8), Some(Arc::new(m)));
    // s >= 256 puts the chain's two `matmul_at_b` products (dv, dkᵀ) in
    // that kernel's streaming regime, which the fused backward mirrors.
    assert_fused_equals_chain((1, 260, 4), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_equals_chain_bitwise(
        b in 1usize..6,
        s in 1usize..12,
        wide in proptest::bool::ANY,
        valid in proptest::collection::vec(1usize..12, 5),
        masked in proptest::bool::ANY,
    ) {
        let hd = if wide { 8 } else { 4 };
        let mask = masked.then(|| {
            let valid: Vec<usize> = valid[..b].iter().map(|&n| n.min(s)).collect();
            Arc::new(key_padding_mask(&valid, s))
        });
        assert_fused_equals_chain((b, s, hd), mask);
    }
}

#[test]
fn attention_gradcheck() {
    let (b, s, hd) = (2usize, 3usize, 4usize);
    let n = b * s * hd;
    let mask = Arc::new(key_padding_mask(&[3, 2], s));
    for mask in [None, Some(mask)] {
        let mut store = ParamStore::new();
        let ids = [("q", 5), ("k", 6), ("v", 7)]
            .map(|(name, seed)| store.register(name, vec![b, s, hd], fill(n, seed)));
        let res = gradcheck(&mut store, &ids, 1e-2, 2e-2, |st| {
            let mut t = Tape::new();
            let [q, k, v] = ids.map(|id| t.param(st, id));
            let y = t.attention(q, k, v, 0.5, mask.clone());
            let w = t.constant(vec![b, s, hd], fill(n, 8));
            let yw = t.mul(y, w);
            let loss = t.sum_all(yw);
            (t, loss)
        });
        assert!(res.is_ok(), "{res:?}");
    }
}
