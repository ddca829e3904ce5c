//! The fused `Tape::attention` op against the five-op chain it replaces
//! (`transpose_last2 → batch_matmul → mul_scalar → softmax_last_dim →
//! batch_matmul`, kept in harp-tensor as this reference): forward values and
//! every input gradient must be bitwise-equal, with and without a
//! key-padding mask, and the op must pass finite-difference gradchecking.
//!
//! Every softmax on the tape — the attention's, `softmax_last_dim` and
//! `segment_softmax` — is also held bitwise to the softmax as it was before
//! it ran on `kernels::expf`: one row or segment at a time with libm's
//! `f32::exp`, kept here as [`libm_softmax_rows`] and
//! [`libm_segment_softmax`]. The inputs include rows whose spread exceeds
//! 104 (lanes that underflow to 0), rows holding `-inf`, one-key rows and
//! one-element segments.

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

/// Row-wise softmax of `w`-wide rows, one row at a time through libm's
/// `f32::exp`; `mask` as in `Tape::softmax_last_dim`.
fn libm_softmax_rows(x: &mut [f32], w: usize, mask: Option<&[f32]>) {
    for (r, row) in x.chunks_exact_mut(w).enumerate() {
        match mask {
            None => libm_softmax(row),
            Some(m) if m.len() == w => libm_masked_softmax(row, m),
            Some(m) => libm_masked_softmax(row, &m[r * w..(r + 1) * w]),
        }
    }
}

fn libm_softmax(x: &mut [f32]) {
    let mx = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in x.iter_mut() {
        *v = (*v - mx).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in x.iter_mut() {
            *v /= sum;
        }
    }
}

fn libm_masked_softmax(x: &mut [f32], mask: &[f32]) {
    let mut mx = f32::NEG_INFINITY;
    for (v, m) in x.iter().zip(mask) {
        if *m != 0.0 && *v > mx {
            mx = *v;
        }
    }
    if mx == f32::NEG_INFINITY {
        x.iter_mut().for_each(|v| *v = 0.0);
        return;
    }
    let mut sum = 0.0f32;
    for (v, m) in x.iter_mut().zip(mask) {
        if *m != 0.0 {
            *v = (*v - mx).exp();
            sum += *v;
        } else {
            *v = 0.0;
        }
    }
    if sum > 0.0 {
        for v in x.iter_mut() {
            *v /= sum;
        }
    }
}

/// Softmax within each segment through libm's `f32::exp`, summing each
/// segment in element order.
fn libm_segment_softmax(x: &[f32], seg: &[usize], n: usize) -> Vec<f32> {
    let mut mx = vec![f32::NEG_INFINITY; n];
    for (v, &s) in x.iter().zip(seg) {
        if *v > mx[s] {
            mx[s] = *v;
        }
    }
    let e: Vec<f32> = x.iter().zip(seg).map(|(v, &s)| (v - mx[s]).exp()).collect();
    let mut sums = vec![0.0f32; n];
    for (v, &s) in e.iter().zip(seg) {
        sums[s] += v;
    }
    e.iter()
        .zip(seg)
        .map(|(v, &s)| if sums[s] > 0.0 { v / sums[s] } else { *v })
        .collect()
}

/// The attention output through the scores of the chain and the libm
/// softmax, and the widest spread (max − min finite score) of any row.
fn libm_attention(
    (b, s, hd): (usize, usize, usize),
    [q, k, v]: [&[f32]; 3],
    mask: Option<&[f32]>,
) -> (Vec<f32>, f32) {
    let mut t = Tape::new();
    let [q, k, v] = [q, k, v].map(|x| t.constant(vec![b, s, hd], x.to_vec()));
    let kt = t.transpose_last2(k);
    let scores = t.batch_matmul(q, kt);
    let scores = t.mul_scalar(scores, 1.0 / (hd as f32).sqrt());
    let mut att = t.value(scores).to_vec();
    let spread = att
        .chunks_exact(s)
        .map(|row| {
            let finite = row.iter().filter(|x| x.is_finite());
            let hi = finite.clone().fold(f32::NEG_INFINITY, |a, &x| a.max(x));
            hi - finite.fold(f32::INFINITY, |a, &x| a.min(x))
        })
        .fold(0.0f32, f32::max);
    libm_softmax_rows(&mut att, s, mask);
    let att = t.constant(vec![b, s, s], att);
    let out = t.batch_matmul(att, v);
    (t.value(out).to_vec(), spread)
}

/// Forward values of the fused op and of the chain on `q, k, v`.
fn forward(
    (b, s, hd): (usize, usize, usize),
    [q, k, v]: [&[f32]; 3],
    mask: Option<Arc<Vec<f32>>>,
    fused: bool,
) -> Vec<f32> {
    let mut t = Tape::new();
    let [q, k, v] = [q, k, v].map(|x| t.constant(vec![b, s, hd], x.to_vec()));
    let scale = 1.0 / (hd as f32).sqrt();
    let y = if fused {
        t.attention(q, k, v, scale, mask)
    } else {
        unfused(&mut t, q, k, v, scale, mask)
    };
    t.value(y).to_vec()
}

/// Both routes' forward values equal the libm reference's, bitwise (NaN
/// as NaN); returns the reference's widest row spread.
fn assert_softmax_is_libm(
    dims: (usize, usize, usize),
    qkv: [&[f32]; 3],
    mask: Option<Arc<Vec<f32>>>,
) -> f32 {
    let (want, spread) = libm_attention(dims, qkv, mask.as_deref().map(Vec::as_slice));
    for fused in [true, false] {
        let got = forward(dims, qkv, mask.clone(), fused);
        let what = format!("{dims:?} fused={fused} mask={}", mask.is_some());
        assert_same(&want, &got, &what);
    }
    spread
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
    let n = dims.0 * dims.1 * dims.2;
    let qkv = [fill(n, 1), fill(n, 2), fill(n, 3)];
    assert_softmax_is_libm(dims, qkv.each_ref().map(Vec::as_slice), mask.clone());
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

#[test]
fn softmax_underflow_and_neg_inf_lanes_match_libm() {
    // Scores of magnitude ~10^3: most rows spread far past 104, so the
    // smaller lanes underflow to 0 (and, near the edge, to subnormals).
    let (b, s, hd) = (3, 37, 8);
    let n = b * s * hd;
    let amp = |x: Vec<f32>| x.into_iter().map(|v| 40.0 * v).collect::<Vec<_>>();
    let (q, k, v) = (amp(fill(n, 11)), amp(fill(n, 12)), fill(n, 13));
    let masks = [None, Some(Arc::new(key_padding_mask(&[37, 20, 1], s)))];
    for mask in masks.clone() {
        let spread = assert_softmax_is_libm((b, s, hd), [&q, &k, &v], mask);
        assert!(spread > 104.0, "widest row spread {spread}");
    }
    // Key 3 of every sequence scores -inf in every row: its k row is
    // [inf, 0, ..] and every query's first component is negative.
    let (mut q, mut k) = (fill(n, 14), fill(n, 15));
    for row in q.chunks_exact_mut(hd) {
        row[0] = -(row[0].abs() + 0.5);
    }
    for t in 0..b {
        let key = &mut k[(t * s + 3) * hd..][..hd];
        key.fill(0.0);
        key[0] = f32::INFINITY;
    }
    for mask in masks {
        assert_softmax_is_libm((b, s, hd), [&q, &k, &v], mask);
    }
    // One key: every row is [0] before the exp.
    let one = fill(4 * 5, 16);
    assert_softmax_is_libm((4, 1, 5), [&one, &one, &one], None);
}

/// Bitwise equal, NaN as NaN.
fn assert_same(want: &[f32], got: &[f32], what: &str) {
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        assert!(
            w.to_bits() == g.to_bits() || (w.is_nan() && g.is_nan()),
            "{what} element {i}: {g:e} vs libm {w:e}"
        );
    }
}

#[test]
fn softmax_last_dim_matches_libm_on_edge_rows() {
    // 11-wide rows (one lane group and a tail): a zero maximum of either
    // sign in either place, a NaN, a -inf, an all -inf row (NaN, as the
    // libm loop made it) and a row spread past 104.
    let (inf, nan) = (f32::INFINITY, f32::NAN);
    let rows: [[f32; 11]; 5] = [
        [
            -0.0, -1.0, 0.0, -3.0, -0.0, -2.0, -5.0, -0.5, 0.0, -7.0, -0.0,
        ],
        [
            0.0, -1.0, -0.0, -3.0, -2.0, -0.0, -9.0, -0.5, -0.0, -7.0, 0.0,
        ],
        [1.0, nan, -inf, 2.0, 0.5, -1.0, 3.0, -2.0, 0.25, 4.0, -inf],
        [-inf; 11],
        [
            50.0, -60.0, 20.0, -100.0, 0.0, 49.0, -55.5, 10.0, -80.0, 1.0, -54.0,
        ],
    ];
    let x: Vec<f32> = rows.iter().flatten().copied().collect();
    let mut want = x.clone();
    libm_softmax_rows(&mut want, 11, None);
    let mut t = Tape::new();
    let xv = t.constant(vec![5, 11], x);
    let y = t.softmax_last_dim(xv, None);
    assert_same(&want, t.value(y), "softmax_last_dim");
}

#[test]
fn segment_softmax_matches_libm() {
    // Interleaved segments: 0 spreads past 104, 1 holds -inf, 2 and 4 have
    // one element, 3 is all -inf (NaN, as the libm loop made it).
    let inf = f32::INFINITY;
    let x = [
        3.0, -120.0, 7.5, -inf, 0.25, -101.0, -inf, 2.0, -inf, 9.0, -30.0, 1.0, -0.5,
    ];
    let seg = [0usize, 0, 1, 1, 2, 0, 3, 1, 3, 4, 0, 1, 0];
    let want = libm_segment_softmax(&x, &seg, 5);
    let mut t = Tape::new();
    let xv = t.constant(vec![x.len()], x.to_vec());
    let y = t.segment_softmax(xv, Arc::new(seg.to_vec()), 5);
    assert_same(&want, t.value(y), "segment_softmax");
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
