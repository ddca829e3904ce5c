//! Multi-layer perceptron.

use harp_tensor::{ParamStore, Tape, Var};
use rand::Rng;

use crate::{Activation, Linear};

/// A stack of [`Linear`] layers with a shared hidden activation and an
/// optional output activation. This is the paper's MLP1 / RAU body / DOTE
/// building block.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
    out_act: Activation,
}

impl Mlp {
    /// Build an MLP with the given layer widths, e.g. `[in, h, h, out]`.
    /// Requires at least two widths (one layer).
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        name: &str,
        widths: &[usize],
        hidden_act: Activation,
        out_act: Activation,
    ) -> Self {
        assert!(widths.len() >= 2, "mlp: need at least [in, out] widths");
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, rng, &format!("{name}.{i}"), w[0], w[1], true))
            .collect();
        Mlp {
            layers,
            hidden_act,
            out_act,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers
            .first()
            .expect("MLP has at least one layer")
            .in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers
            .last()
            .expect("MLP has at least one layer")
            .out_dim()
    }

    /// Apply the MLP to rank-2 `[n, in]` or rank-3 `[b, s, in]` input.
    ///
    /// Each `linear + activation` pair goes through
    /// [`Linear::forward_act`], one fused affine tape op per layer.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let h = self.layers[0].forward_act(tape, store, x, self.act_of(0));
        self.rest(tape, store, h)
    }

    /// The first layer's product over its first `k` input columns, for
    /// `head: [n, k]` (see [`Linear::project_head`]).
    pub fn project_head(&self, tape: &mut Tape, store: &ParamStore, head: Var) -> Var {
        self.layers[0].project_head(tape, store, head)
    }

    /// [`Self::forward`] on `[head | tail]`, given `seed =`
    /// [`Self::project_head`]`(head)` instead of `head`: bitwise the same
    /// values and gradients, without the concatenated input — and without
    /// the `head` half of the first product when `seed` comes from a cache.
    pub fn forward_seeded(&self, tape: &mut Tape, store: &ParamStore, seed: Var, tail: Var) -> Var {
        let h = self.layers[0].forward_act_seeded(tape, store, seed, tail, self.act_of(0));
        self.rest(tape, store, h)
    }

    fn act_of(&self, layer: usize) -> Activation {
        if layer + 1 == self.layers.len() {
            self.out_act
        } else {
            self.hidden_act
        }
    }

    /// Layers 1.. applied to the first layer's output.
    fn rest(&self, tape: &mut Tape, store: &ParamStore, mut h: Var) -> Var {
        for (i, layer) in self.layers.iter().enumerate().skip(1) {
            h = layer.forward_act(tape, store, h, self.act_of(i));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_tensor::gradcheck::gradcheck;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(
            &mut store,
            &mut rng,
            "m",
            &[3, 8, 8, 2],
            Activation::Relu,
            Activation::Identity,
        );
        assert_eq!(mlp.in_dim(), 3);
        assert_eq!(mlp.out_dim(), 2);
        let mut t = Tape::new();
        let x = t.constant(vec![4, 3], vec![0.5; 12]);
        let y = mlp.forward(&mut t, &store, x);
        assert_eq!(t.shape(y).as_matrix(), (4, 2));
    }

    #[test]
    fn end_to_end_gradcheck() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(9);
        let mlp = Mlp::new(
            &mut store,
            &mut rng,
            "m",
            &[3, 6, 1],
            Activation::Tanh,
            Activation::Identity,
        );
        let ids: Vec<_> = store.ids().collect();
        let res = gradcheck(&mut store, &ids, 1e-2, 2e-2, |s| {
            let mut t = Tape::new();
            let x = t.constant(vec![4, 3], (0..12).map(|i| 0.1 * i as f32).collect());
            let y = mlp.forward(&mut t, s, x);
            let l = t.sum_all(y);
            (t, l)
        });
        assert!(res.is_ok(), "{:?}", res);
    }
}
