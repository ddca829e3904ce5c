//! Fully-connected (affine) layer.

use harp_tensor::{AffineAct, ParamId, ParamStore, Tape, Var};
use rand::Rng;

use crate::init::xavier_vec;
use crate::Activation;

/// `y = x W + b` over the rows of `x` (`x: [n, in]`, `y: [n, out]`).
///
/// Rank-3 inputs `[b, s, in]` are supported transparently (flattened to
/// rows, matmul, reshaped back) — this is how per-tunnel weights are shared
/// across all tunnels and sequence positions.
#[derive(Clone, Debug)]
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Create a layer with Xavier-initialized weights and zero bias.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
    ) -> Self {
        let w = store.register(
            &format!("{name}.w"),
            vec![in_dim, out_dim],
            xavier_vec(rng, in_dim, out_dim),
        );
        let b =
            bias.then(|| store.register(&format!("{name}.b"), vec![out_dim], vec![0.0; out_dim]));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Apply the layer. Accepts rank-2 `[n, in]` or rank-3 `[b, s, in]`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        self.forward_act(tape, store, x, Activation::Identity)
    }

    /// Apply the layer followed by `act`.
    ///
    /// The layer is one fused tape op ([`Tape::affine`]: one kernel pass, no
    /// intermediate buffers), with `act` folded in when it is the identity,
    /// `Relu`, or `LeakyRelu` with a positive slope, and applied to the
    /// op's output otherwise.
    pub fn forward_act(&self, tape: &mut Tape, store: &ParamStore, x: Var, act: Activation) -> Var {
        let shape = tape.shape(x).0.clone();
        let last = *shape.last().expect("linear: input must have rank >= 1");
        assert_eq!(
            last, self.in_dim,
            "linear: input feature dim {} != layer in_dim {}",
            last, self.in_dim
        );
        let rows: usize = shape[..shape.len() - 1].iter().product::<usize>().max(1);
        let x2 = if shape.len() == 2 {
            x
        } else {
            tape.reshape(x, vec![rows, self.in_dim])
        };
        let y = self.affine(tape, store, x2, 0, None, act);
        if shape.len() == 2 {
            y
        } else {
            let mut out_shape = shape;
            *out_shape.last_mut().expect("rank >= 1 input") = self.out_dim;
            tape.reshape(y, out_shape)
        }
    }

    /// `head · W[0..k]` for `head: [n, k]`, the layer's first `k` input
    /// columns: the part of the product that [`Self::forward_act_seeded`]
    /// continues. No bias, no activation.
    pub fn project_head(&self, tape: &mut Tape, store: &ParamStore, head: Var) -> Var {
        let w = tape.param(store, self.w);
        tape.affine(head, w, 0, None, None, AffineAct::Identity)
    }

    /// The layer applied to `[head | tail]` given `seed =`
    /// [`Self::project_head`]`(head)` and `tail: [n, in - k]`, followed by
    /// `act`: values and gradients are bitwise those of
    /// [`Self::forward_act`] on the concatenated input, without building it.
    pub fn forward_act_seeded(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        seed: Var,
        tail: Var,
        act: Activation,
    ) -> Var {
        let k0 = self.in_dim - tape.shape(tail).last_dim();
        self.affine(tape, store, tail, k0, Some(seed), act)
    }

    /// `act(init ⊕ x · W[k0..] + b)` on rank-2 `x`.
    fn affine(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        k0: usize,
        init: Option<Var>,
        act: Activation,
    ) -> Var {
        let w = tape.param(store, self.w);
        let bv = self.b.map(|b| tape.param(store, b));
        let (fused, rest) = match act {
            Activation::Identity => (AffineAct::Identity, Activation::Identity),
            Activation::Relu => (AffineAct::Relu, Activation::Identity),
            Activation::LeakyRelu(a) if a > 0.0 => (AffineAct::LeakyRelu(a), Activation::Identity),
            other => (AffineAct::Identity, other),
        };
        let y = tape.affine(x, w, k0, bv, init, fused);
        rest.apply(tape, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn forward_shapes_rank2_and_rank3() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let lin = Linear::new(&mut store, &mut rng, "l", 4, 3, true);
        let mut t = Tape::new();
        let x2 = t.constant(vec![5, 4], vec![0.1; 20]);
        let y2 = lin.forward(&mut t, &store, x2);
        assert_eq!(t.shape(y2).as_matrix(), (5, 3));
        let x3 = t.constant(vec![2, 5, 4], vec![0.1; 40]);
        let y3 = lin.forward(&mut t, &store, x3);
        assert_eq!(t.shape(y3).as_batched(), (2, 5, 3));
        // rank-3 rows equal the rank-2 result row-wise
        assert_eq!(t.value(y3)[..15], t.value(y2)[..15]);
    }

    #[test]
    fn trains_toward_target() {
        // One gradient step reduces a simple quadratic loss.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let lin = Linear::new(&mut store, &mut rng, "l", 2, 1, true);
        let loss_at = |store: &ParamStore| {
            let mut t = Tape::new();
            let x = t.constant(vec![1, 2], vec![1.0, -1.0]);
            let y = lin.forward(&mut t, store, x);
            let d = t.add_scalar(y, -2.0); // target 2
            let sq = t.mul(d, d);
            let l = t.sum_all(sq);
            (t, l)
        };
        let (t, l) = loss_at(&store);
        let before = t.scalar_value(l);
        store.zero_grads();
        t.backward(l, &mut store);
        for id in store.ids().collect::<Vec<_>>() {
            let g: Vec<f32> = store.grad(id).to_vec();
            for (d, gi) in store.data_mut(id).iter_mut().zip(g) {
                *d -= 0.05 * gi;
            }
        }
        let (t, l) = loss_at(&store);
        assert!(t.scalar_value(l) < before);
    }
}
