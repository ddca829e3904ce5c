//! Multi-head scaled-dot-product attention **without positional encoding**.
//!
//! The paper implements SETTRANS as "a standard transformer without
//! positional encodings" (§4): with no position information, the encoder is
//! permutation-equivariant over the set of edges in a tunnel, which is
//! exactly HARP design Principle 1(c).

use std::sync::Arc;

use harp_tensor::{ParamStore, Tape, Var};
use rand::Rng;

use crate::Linear;

/// Expand a key-padding mask `[t, s]` (1 = valid, 0 = padding) into the
/// full attention-score mask `[t, s, s]`: query `i` of batch `t` may attend
/// key `j` iff `key_mask[t, j] == 1`.
///
/// HARP itself batches tunnels by length and never pads; the masked route
/// is the reference its packed layout is tested against.
pub fn expand_key_mask(key_mask: &[f32], t: usize, s: usize) -> Vec<f32> {
    assert_eq!(key_mask.len(), t * s, "key mask size");
    let mut full = vec![0.0f32; t * s * s];
    for b in 0..t {
        let krow = &key_mask[b * s..(b + 1) * s];
        for i in 0..s {
            full[b * s * s + i * s..b * s * s + (i + 1) * s].copy_from_slice(krow);
        }
    }
    full
}

/// Multi-head self-attention over `[batch, seq, d_model]`.
#[derive(Clone, Debug)]
pub struct MultiHeadAttention {
    heads: Vec<(Linear, Linear, Linear)>,
    proj: Linear,
    d_model: usize,
    head_dim: usize,
}

impl MultiHeadAttention {
    /// Create attention with `n_heads` heads over width `d_model`
    /// (`d_model` must be divisible by `n_heads`).
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        name: &str,
        d_model: usize,
        n_heads: usize,
    ) -> Self {
        assert!(
            n_heads > 0 && d_model.is_multiple_of(n_heads),
            "d_model % n_heads"
        );
        let head_dim = d_model / n_heads;
        let heads = (0..n_heads)
            .map(|h| {
                (
                    Linear::new(
                        store,
                        rng,
                        &format!("{name}.h{h}.q"),
                        d_model,
                        head_dim,
                        false,
                    ),
                    Linear::new(
                        store,
                        rng,
                        &format!("{name}.h{h}.k"),
                        d_model,
                        head_dim,
                        false,
                    ),
                    Linear::new(
                        store,
                        rng,
                        &format!("{name}.h{h}.v"),
                        d_model,
                        head_dim,
                        false,
                    ),
                )
            })
            .collect();
        let proj = Linear::new(store, rng, &format!("{name}.o"), d_model, d_model, true);
        MultiHeadAttention {
            heads,
            proj,
            d_model,
            head_dim,
        }
    }

    /// Apply self-attention. `x` is `[batch, seq, d_model]`; `score_mask`
    /// (if given) is a full `[batch, seq, seq]` mask from
    /// [`expand_key_mask`]. [`Self::project`] then
    /// [`Self::forward_projected`].
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        score_mask: Option<Arc<Vec<f32>>>,
    ) -> Var {
        let qkv = self.project(tape, store, x);
        self.forward_projected(tape, store, &qkv, score_mask)
    }

    /// Every head's `[q, k, v]` projections of `x` (`[.., d_model]` to
    /// `[.., head_dim]`). Each row is projected on its own, so rows
    /// projected once and gathered into sequences afterwards are bitwise
    /// the rows projected in place.
    pub fn project(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Vec<[Var; 3]> {
        let d = *tape.shape(x).0.last().expect("attention: rank-0 input");
        assert_eq!(d, self.d_model, "attention: feature width mismatch");
        self.heads
            .iter()
            .map(|(wq, wk, wv)| [wq, wk, wv].map(|w| w.forward(tape, store, x)))
            .collect()
    }

    /// Attention from [`Self::project`]'s projections, each shaped
    /// `[batch, seq, head_dim]`: per head `softmax(q kᵀ / √head_dim) v`,
    /// the heads side by side, then the output projection.
    pub fn forward_projected(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        qkv: &[[Var; 3]],
        score_mask: Option<Arc<Vec<f32>>>,
    ) -> Var {
        assert_eq!(
            qkv.len(),
            self.heads.len(),
            "attention: one [q, k, v] per head"
        );
        let (b, s, _) = tape.shape(qkv[0][0]).as_batched();
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let outs: Vec<Var> = qkv
            .iter()
            .map(|&[q, k, v]| {
                let out = tape.attention(q, k, v, scale, score_mask.clone()); // [b, s, head_dim]
                tape.reshape(out, vec![b * s, self.head_dim])
            })
            .collect();
        let cat = if outs.len() == 1 {
            outs[0]
        } else {
            tape.concat_cols(&outs)
        };
        let cat3 = tape.reshape(cat, vec![b, s, self.d_model]);
        self.proj.forward(tape, store, cat3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn run_attention(
        mha: &MultiHeadAttention,
        store: &ParamStore,
        b: usize,
        s: usize,
        d: usize,
        data: Vec<f32>,
        mask: Option<Arc<Vec<f32>>>,
    ) -> Vec<f32> {
        let mut t = Tape::new();
        let x = t.constant(vec![b, s, d], data);
        let y = mha.forward(&mut t, store, x, mask);
        t.value(y).to_vec()
    }

    #[test]
    fn permutation_equivariant_over_sequence() {
        // Principle 1(c): reordering the edges in a tunnel permutes the
        // per-edge outputs and leaves values unchanged.
        let (b, s, d) = (1usize, 4usize, 8usize);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let mha = MultiHeadAttention::new(&mut store, &mut rng, "a", d, 2);

        let data: Vec<f32> = (0..b * s * d)
            .map(|i| ((i * 7) % 13) as f32 * 0.1)
            .collect();
        let perm = [3usize, 1, 0, 2];
        let mut pdata = vec![0.0f32; data.len()];
        for i in 0..s {
            pdata[perm[i] * d..(perm[i] + 1) * d].copy_from_slice(&data[i * d..(i + 1) * d]);
        }

        let y = run_attention(&mha, &store, b, s, d, data, None);
        let yp = run_attention(&mha, &store, b, s, d, pdata, None);
        for i in 0..s {
            for j in 0..d {
                let a = y[i * d + j];
                let bb = yp[perm[i] * d + j];
                assert!((a - bb).abs() < 1e-4, "pos {i} dim {j}: {a} vs {bb}");
            }
        }
    }

    #[test]
    fn padding_does_not_change_valid_outputs() {
        // Masked (padding) keys must not influence valid positions: a
        // length-2 sequence equals the first 2 rows of a padded length-4
        // sequence with key mask [1,1,0,0].
        let (d, s) = (8usize, 4usize);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mha = MultiHeadAttention::new(&mut store, &mut rng, "a", d, 1);

        let real: Vec<f32> = (0..2 * d).map(|i| (i as f32 * 0.07).sin()).collect();
        let mut padded = real.clone();
        padded.extend(vec![9.9f32; 2 * d]); // garbage padding rows

        let y_small = run_attention(&mha, &store, 1, 2, d, real, None);
        let mask = Arc::new(expand_key_mask(&[1.0, 1.0, 0.0, 0.0], 1, s));
        let y_pad = run_attention(&mha, &store, 1, s, d, padded, Some(mask));
        for i in 0..2 * d {
            assert!(
                (y_small[i] - y_pad[i]).abs() < 1e-4,
                "elem {i}: {} vs {}",
                y_small[i],
                y_pad[i]
            );
        }
    }

    #[test]
    fn expand_key_mask_layout() {
        let full = expand_key_mask(&[1.0, 0.0, 1.0, 1.0], 2, 2);
        assert_eq!(full, vec![1., 0., 1., 0., 1., 1., 1., 1.]);
    }
}
