//! Property tests for the fused affine op (`Op::Affine`): values and every
//! input/parameter gradient must be bitwise-equal to the unfused reference
//! chain `concat_cols → matmul → add_bias → activation` — with the seed
//! standing for the product over the first `k_seed` input columns — and the
//! op must pass finite-difference gradient checking.

use harp_tensor::gradcheck::gradcheck;
use harp_tensor::{AffineAct, ParamId, ParamStore, Tape};
use proptest::prelude::*;

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Deterministic pseudo-random fill (xorshift), distinct per seed. One value
/// in eight is a signed zero or small enough that its products underflow to
/// one: the cases where a chain's running sum is `-0.0`, which a seed
/// handed over through `0.0 + x` cannot carry.
fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 32 {
                0 => 0.0,
                1 => -0.0,
                2 => 1e-30,
                3 => -1e-30,
                _ => ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0,
            }
        })
        .collect()
}

const ACTS: [AffineAct; 4] = [
    AffineAct::Identity,
    AffineAct::Relu,
    AffineAct::LeakyRelu(0.01),
    AffineAct::LeakyRelu(0.3),
];

/// Which chain [`run`] records.
#[derive(Clone, Copy)]
enum Route {
    /// `concat_cols([x0, x]) → matmul → add_bias → activation`.
    Reference,
    /// `affine(x0, w[0..k_seed])` seeding `affine(x, w[k_seed..], bias)`.
    Affine,
}

/// Forward + backward of `sum(act([x0 | x] @ w + bias) * readout)` on a
/// fresh store with `x0: [m, k_seed]`, `x: [m, k_tail]`; returns the output
/// and the gradients of `x0`, `x`, `w`, `bias`.
fn run(
    route: Route,
    (m, k_seed, k_tail, n): (usize, usize, usize, usize),
    act: AffineAct,
    bias: bool,
    seed: u64,
) -> [Vec<f32>; 5] {
    let mut store = ParamStore::new();
    let i0 = store.register("x0", vec![m, k_seed], fill(m * k_seed, seed));
    let ix = store.register("x", vec![m, k_tail], fill(m * k_tail, seed + 1));
    let k = k_seed + k_tail;
    let iw = store.register("w", vec![k, n], fill(k * n, seed + 2));
    let ib = store.register("b", vec![n], fill(n, seed + 3));
    let mut t = Tape::new();
    let x0 = (k_seed > 0).then(|| t.param(&store, i0));
    let x = t.param(&store, ix);
    let w = t.param(&store, iw);
    let b = bias.then(|| t.param(&store, ib));
    let y = match route {
        Route::Reference => {
            let xin = match x0 {
                Some(x0) => t.concat_cols(&[x0, x]),
                None => x,
            };
            let mut h = t.matmul(xin, w);
            if let Some(b) = b {
                h = t.add_bias(h, b);
            }
            match act {
                AffineAct::Identity => h,
                AffineAct::Relu => t.relu(h),
                AffineAct::LeakyRelu(al) => t.leaky_relu(h, al),
            }
        }
        Route::Affine => {
            let init = x0.map(|x0| t.affine(x0, w, 0, None, None, AffineAct::Identity));
            t.affine(x, w, k_seed, b, init, act)
        }
    };
    let out = t.value(y).to_vec();
    // a readout with zeros of both signs, so upstream gradients have them
    let readout = t.constant(vec![m, n], fill(m * n, seed + 4));
    let weighted = t.mul(y, readout);
    let l = t.sum_all(weighted);
    t.backward(l, &mut store);
    [i0, ix, iw, ib]
        .iter()
        .map(|&id| store.grad(id).to_vec())
        .fold(vec![out], |mut all, g| {
            all.push(g);
            all
        })
        .try_into()
        .expect("five tensors")
}

fn assert_routes_agree(shape: (usize, usize, usize, usize), act: AffineAct, bias: bool, seed: u64) {
    let want = run(Route::Reference, shape, act, bias, seed);
    let got = run(Route::Affine, shape, act, bias, seed);
    for (what, (w, g)) in ["forward", "grad x0", "grad x", "grad w", "grad b"]
        .iter()
        .zip(want.iter().zip(&got))
    {
        assert!(
            bits_eq(w, g),
            "{what} differs: shape {shape:?} act {act:?} bias {bias} seed {seed}"
        );
    }
}

/// The recorded HARP/DOTE/TEAL hot shapes plus lane-boundary widths
/// (LANES = 8: one lane, lane+1 remainder, two lanes, panel edge), unseeded
/// and split after 1, 3 and 16 columns.
const EDGE_SHAPES: [(usize, usize, usize); 9] = [
    (1, 1, 1),
    (3, 5, 8),
    (13, 7, 9),
    (17, 16, 16),
    (29, 4, 17),
    (33, 20, 32),
    (9, 97, 48),
    (41, 3, 1),
    (270, 20, 32), // long enough for the streaming weight-gradient regime
];

#[test]
fn affine_matches_the_chain_bitwise_on_edge_shapes() {
    for &(m, k, n) in &EDGE_SHAPES {
        for act in ACTS {
            for k_seed in [0, 1, 3, 16] {
                if k_seed < k {
                    assert_routes_agree((m, k_seed, k - k_seed, n), act, true, 1);
                }
            }
        }
    }
}

#[test]
fn an_unseeded_identity_affine_without_bias_is_matmul() {
    assert_routes_agree((13, 0, 7, 9), AffineAct::Identity, false, 5);
    assert_routes_agree((13, 4, 3, 9), AffineAct::Identity, false, 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn affine_matches_the_chain_bitwise_random_shapes(
        m in 1usize..40,
        k_seed_i in 0usize..3,
        k_tail in 1usize..6,
        n_i in 0usize..4,
        act_i in 0usize..4,
        bias in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let shape = (m, [0, 1, 16][k_seed_i], k_tail, [1, 8, 32, 40][n_i]);
        assert_routes_agree(shape, ACTS[act_i], bias, seed);
    }

    #[test]
    fn affine_gradcheck(
        x0 in proptest::collection::vec(-1.0f32..1.0, 6),
        x in proptest::collection::vec(-1.0f32..1.0, 6),
        w in proptest::collection::vec(-1.0f32..1.0, 8),
        b in proptest::collection::vec(-1.0f32..1.0, 2),
    ) {
        // Finite differences misbehave within eps of the ReLU kink; skip
        // draws where any pre-activation sits near zero.
        let mut safe = true;
        for r in 0..3 {
            for j in 0..2 {
                let mut h = b[j];
                for c in 0..2 {
                    h += x0[r * 2 + c] * w[c * 2 + j] + x[r * 2 + c] * w[(2 + c) * 2 + j];
                }
                safe &= h.abs() > 0.05;
            }
        }
        prop_assume!(safe);
        for act in ACTS {
            let mut store = ParamStore::new();
            let ids = [
                store.register("x0", vec![3, 2], x0.clone()),
                store.register("x", vec![3, 2], x.clone()),
                store.register("w", vec![4, 2], w.clone()),
                store.register("b", vec![2], b.clone()),
            ];
            let res = gradcheck(&mut store, &ids, 1e-2, 3e-2, move |s| {
                let mut t = Tape::new();
                let [x0, x, w, b] = [0, 1, 2, 3].map(|i| t.param(s, param_id(i)));
                let init = t.affine(x0, w, 0, None, None, AffineAct::Identity);
                let y = t.affine(x, w, 2, Some(b), Some(init), act);
                let l = t.sum_all(y);
                (t, l)
            });
            prop_assert!(res.is_ok(), "{act:?}: {res:?}");
        }
    }
}

/// `ParamId`'s constructor is private; the store hands ids out in
/// registration order, so index-based reconstruction is safe in tests.
fn param_id(i: usize) -> ParamId {
    let mut s = ParamStore::new();
    for k in 0..=i {
        let _ = s.register(&format!("p{k}"), vec![1], vec![0.0]);
    }
    s.ids().nth(i).unwrap()
}
