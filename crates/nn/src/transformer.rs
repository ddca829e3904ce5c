//! Transformer encoder without positional encodings — the paper's SETTRANS.

use std::sync::Arc;

use harp_tensor::{ParamStore, Tape, Var};
use rand::Rng;

use crate::{Activation, LayerNormAffine, Linear, MultiHeadAttention};

/// One pre-norm transformer encoder layer:
/// `x + MHA(LN(x))` then `x + FF(LN(x))`.
#[derive(Clone, Debug)]
pub struct TransformerEncoderLayer {
    mha: MultiHeadAttention,
    ln1: LayerNormAffine,
    ln2: LayerNormAffine,
    ff1: Linear,
    ff2: Linear,
}

impl TransformerEncoderLayer {
    /// Create a layer of width `d_model` with `n_heads` heads and a
    /// feed-forward hidden width `d_ff`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        name: &str,
        d_model: usize,
        n_heads: usize,
        d_ff: usize,
    ) -> Self {
        TransformerEncoderLayer {
            mha: MultiHeadAttention::new(store, rng, &format!("{name}.mha"), d_model, n_heads),
            ln1: LayerNormAffine::new(store, &format!("{name}.ln1"), d_model),
            ln2: LayerNormAffine::new(store, &format!("{name}.ln2"), d_model),
            ff1: Linear::new(store, rng, &format!("{name}.ff1"), d_model, d_ff, true),
            ff2: Linear::new(store, rng, &format!("{name}.ff2"), d_ff, d_model, true),
        }
    }

    /// Apply the layer to `[batch, seq, d_model]`: [`Self::project`] then
    /// [`Self::forward_projected`].
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        score_mask: Option<Arc<Vec<f32>>>,
    ) -> Var {
        let qkv = self.project(tape, store, x);
        self.forward_projected(tape, store, x, &qkv, score_mask)
    }

    /// The attention's per-head `[q, k, v]` projections of `LN(x)`, row by
    /// row (see [`MultiHeadAttention::project`]): the part of the layer
    /// that reads one input row at a time, and so the part a caller whose
    /// sequences repeat rows can run once per distinct row.
    pub fn project(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Vec<[Var; 3]> {
        let n1 = self.ln1.forward(tape, store, x);
        self.mha.project(tape, store, n1)
    }

    /// The rest of the layer on `x` (`[batch, seq, d_model]`), given
    /// [`Self::project`]'s projections of its rows shaped
    /// `[batch, seq, head_dim]`.
    pub fn forward_projected(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        qkv: &[[Var; 3]],
        score_mask: Option<Arc<Vec<f32>>>,
    ) -> Var {
        let att = self.mha.forward_projected(tape, store, qkv, score_mask);
        let x = tape.add(x, att);
        let n2 = self.ln2.forward(tape, store, x);
        let h = self.ff1.forward_act(tape, store, n2, Activation::Relu);
        let h = self.ff2.forward(tape, store, h);
        tape.add(x, h)
    }
}

/// A stack of encoder layers (parameters are *not* shared between layers;
/// the same stack is applied to every tunnel, which is what gives HARP its
/// tunnel-count independence).
#[derive(Clone, Debug)]
pub struct TransformerEncoder {
    layers: Vec<TransformerEncoderLayer>,
}

impl TransformerEncoder {
    /// Create `n_layers` encoder layers.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        name: &str,
        n_layers: usize,
        d_model: usize,
        n_heads: usize,
        d_ff: usize,
    ) -> Self {
        let layers = (0..n_layers)
            .map(|i| {
                TransformerEncoderLayer::new(
                    store,
                    rng,
                    &format!("{name}.{i}"),
                    d_model,
                    n_heads,
                    d_ff,
                )
            })
            .collect();
        TransformerEncoder { layers }
    }

    /// Apply the stack to `[batch, seq, d_model]`.
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        score_mask: Option<Arc<Vec<f32>>>,
    ) -> Var {
        let first = self.project_first(tape, store, x);
        self.forward_projected(tape, store, x, &first, score_mask)
    }

    /// The first layer's [`TransformerEncoderLayer::project`] of `x`
    /// (empty for an empty stack).
    pub fn project_first(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Vec<[Var; 3]> {
        self.layers
            .first()
            .map_or_else(Vec::new, |l| l.project(tape, store, x))
    }

    /// Apply the stack to `x` given the first layer's projections of its
    /// rows ([`Self::project_first`], shaped `[batch, seq, head_dim]`).
    pub fn forward_projected(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        first: &[[Var; 3]],
        score_mask: Option<Arc<Vec<f32>>>,
    ) -> Var {
        let Some((l0, rest)) = self.layers.split_first() else {
            return x;
        };
        let mut h = l0.forward_projected(tape, store, x, first, score_mask.clone());
        for layer in rest {
            h = layer.forward(tape, store, h, score_mask.clone());
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
    fn encoder_is_permutation_equivariant() {
        let (s, d) = (5usize, 8usize);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(21);
        let enc = TransformerEncoder::new(&mut store, &mut rng, "e", 2, d, 2, 16);

        let data: Vec<f32> = (0..s * d).map(|i| ((i * 31 % 17) as f32) * 0.05).collect();
        let perm = [4usize, 2, 0, 1, 3];
        let mut pdata = vec![0.0f32; data.len()];
        for i in 0..s {
            pdata[perm[i] * d..(perm[i] + 1) * d].copy_from_slice(&data[i * d..(i + 1) * d]);
        }

        let run = |input: Vec<f32>| {
            let mut t = Tape::new();
            let x = t.constant(vec![1, s, d], input);
            let y = enc.forward(&mut t, &store, x, None);
            t.value(y).to_vec()
        };
        let y = run(data);
        let yp = run(pdata);
        for i in 0..s {
            for j in 0..d {
                assert!(
                    (y[i * d + j] - yp[perm[i] * d + j]).abs() < 1e-3,
                    "pos {i} dim {j}"
                );
            }
        }
    }

    #[test]
    fn encoder_gradcheck_small() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let enc = TransformerEncoder::new(&mut store, &mut rng, "e", 1, 4, 1, 8);
        let ids: Vec<_> = store.ids().collect();
        let res = gradcheck(&mut store, &ids, 1e-2, 5e-2, |st| {
            let mut t = Tape::new();
            let x = t.constant(vec![1, 3, 4], (0..12).map(|i| 0.1 * i as f32).collect());
            let y = enc.forward(&mut t, st, x, None);
            let l = t.sum_all(y);
            (t, l)
        });
        assert!(res.is_ok(), "{:?}", res);
    }
}
