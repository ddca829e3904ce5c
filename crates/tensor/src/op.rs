//! The operation set recorded on the tape.
//!
//! Each variant stores the handles of its inputs plus whatever metadata the
//! backward pass needs (index arrays, saved argmaxes, scalar constants).
//! Forward kernels live in [`crate::kernels`]; the backward dispatch is in
//! [`crate::tape`].

use std::sync::Arc;

use crate::kernels::AffineAct;
use crate::tape::Var;

/// An operation node. `Var` fields reference earlier nodes on the same tape.
#[derive(Clone, Debug)]
pub enum Op {
    /// A leaf: constant input or injected parameter (no inputs).
    Leaf,

    // ---- elementwise binary (identical shapes) ----
    /// Elementwise `a + b`.
    Add(Var, Var),
    /// Elementwise `a * b`.
    Mul(Var, Var),

    // ---- elementwise unary ----
    /// Elementwise natural log.
    Ln(Var),
    /// Elementwise `max(x, 0)`.
    Relu(Var),
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(Var, f32),
    /// Elementwise hyperbolic tangent.
    Tanh(Var),
    /// `x * c` for a compile-time scalar constant.
    MulScalar(Var, f32),
    /// `x + c` for a compile-time scalar constant.
    AddScalar(Var, f32),
    /// `1 / max(x, eps)` — numerically-guarded reciprocal.
    Recip(Var, f32),

    // ---- broadcast helpers ----
    /// `[n, m]` matrix plus a length-`m` row vector, broadcast over rows.
    AddBias(Var, Var),
    /// `[n, m]` matrix times a length-`m` row vector, broadcast over rows.
    MulRow(Var, Var),
    /// Replicate a scalar (1-element tensor) into a length-`n` vector.
    BroadcastScalar(Var, usize),

    // ---- linear algebra ----
    /// `[m, k] x [k, n]` matrix product.
    MatMul(Var, Var),
    /// `[b, m, k] x [b, k, n]` batched matrix product.
    BatchMatMul(Var, Var),
    /// Fused affine map `act((init | 0) ⊕ x · w[k0..k0 + k] + bias)`: `x`
    /// is `[m, k]`, `w` a stored `[in, n]` weight of which rows
    /// `k0..k0 + k` are used, `bias` a length-`n` row and `init` an `[m, n]`
    /// seed the product's accumulators start from (see
    /// [`crate::kernels::affine_into`]). One kernel pass; backward recovers
    /// the activation mask from the saved output's sign.
    Affine {
        /// Left operand `[m, k]`.
        x: Var,
        /// Stored weight `[in, n]`.
        w: Var,
        /// First weight row used.
        k0: usize,
        /// Optional length-`n` bias row.
        bias: Option<Var>,
        /// Optional `[m, n]` seed of the accumulators.
        init: Option<Var>,
        /// Activation applied last.
        act: AffineAct,
    },
    /// Swap the last two axes of a rank-2 or rank-3 tensor.
    TransposeLast2(Var),
    /// Fused scaled-dot-product attention `softmax(q kᵀ · scale) v` over
    /// `[b, s, hd]` inputs `(q, k, v)`, with the optional score mask of
    /// [`Op::SoftmaxLastDim`]. Forward saves the softmax rows for backward.
    Attention(Var, Var, Var, f32, Option<Arc<Vec<f32>>>),

    // ---- shape manipulation ----
    /// Reinterpret with a new shape of equal element count.
    Reshape(Var),
    /// Concatenate rank-2 tensors along the last axis (equal row counts).
    ConcatCols(Vec<Var>),
    /// Concatenate along axis 0 (equal trailing shapes).
    ConcatRows(Vec<Var>),
    /// Select rows of a rank-2 tensor (or elements of a rank-1 tensor):
    /// `out[i] = in[idx[i]]`. Rows may repeat; gradients accumulate.
    GatherRows(Var, Arc<Vec<usize>>),

    // ---- reductions ----
    /// Sum of every element, producing a scalar.
    SumAll(Var),
    /// Global max; `aux` saves the argmax found in forward.
    MaxAll(Var),

    // ---- segment (grouped) operations ----
    /// `out[seg[i]] += in[i]` over rows; produces `n_segments` rows.
    SegmentSum(Var, Arc<Vec<usize>>, usize),
    /// Per-segment max over a rank-1 tensor; saves per-segment argmax.
    SegmentMax(Var, Arc<Vec<usize>>, usize),
    /// Softmax within each segment of a rank-1 tensor (segments need not be
    /// contiguous). Used for per-flow split-ratio normalization.
    SegmentSoftmax(Var, Arc<Vec<usize>>, usize),

    // ---- softmax / normalization ----
    /// Softmax over the last axis. Optional additive mask (same length as
    /// the last axis pattern, broadcast over leading dims): entries with
    /// mask 0 are excluded (treated as -inf), entries with mask 1 kept.
    SoftmaxLastDim(Var, Option<Arc<Vec<f32>>>),
    /// Layer normalization over the last axis (no affine; compose with
    /// `MulRow`/`AddBias` for a learnable affine).
    LayerNorm(Var, f32),
}

/// Variant names in declaration order, indexed by [`Op::kind_index`].
const KIND_NAMES: [&str; 29] = [
    "Leaf",
    "Add",
    "Mul",
    "Ln",
    "Relu",
    "LeakyRelu",
    "Tanh",
    "MulScalar",
    "AddScalar",
    "Recip",
    "AddBias",
    "MulRow",
    "BroadcastScalar",
    "MatMul",
    "BatchMatMul",
    "Affine",
    "TransposeLast2",
    "Attention",
    "Reshape",
    "ConcatCols",
    "ConcatRows",
    "GatherRows",
    "SumAll",
    "MaxAll",
    "SegmentSum",
    "SegmentMax",
    "SegmentSoftmax",
    "SoftmaxLastDim",
    "LayerNorm",
];

impl Op {
    /// Number of op kinds: [`Op::kind_index`] is below it.
    pub const KIND_COUNT: usize = KIND_NAMES.len();

    /// Stable kind name of this operation (the variant name), used to key
    /// per-op timing histograms and profiling reports.
    pub fn kind(&self) -> &'static str {
        KIND_NAMES[self.kind_index()]
    }

    /// This op's kind as an index into per-kind tables, below
    /// [`Op::KIND_COUNT`]: the variant's position in declaration order.
    pub fn kind_index(&self) -> usize {
        use Op::*;
        match self {
            Leaf => 0,
            Add(..) => 1,
            Mul(..) => 2,
            Ln(..) => 3,
            Relu(..) => 4,
            LeakyRelu(..) => 5,
            Tanh(..) => 6,
            MulScalar(..) => 7,
            AddScalar(..) => 8,
            Recip(..) => 9,
            AddBias(..) => 10,
            MulRow(..) => 11,
            BroadcastScalar(..) => 12,
            MatMul(..) => 13,
            BatchMatMul(..) => 14,
            Affine { .. } => 15,
            TransposeLast2(..) => 16,
            Attention(..) => 17,
            Reshape(..) => 18,
            ConcatCols(..) => 19,
            ConcatRows(..) => 20,
            GatherRows(..) => 21,
            SumAll(..) => 22,
            MaxAll(..) => 23,
            SegmentSum(..) => 24,
            SegmentMax(..) => 25,
            SegmentSoftmax(..) => 26,
            SoftmaxLastDim(..) => 27,
            LayerNorm(..) => 28,
        }
    }

    /// Handles of this op's inputs, in order.
    pub(crate) fn inputs(&self) -> Vec<Var> {
        use Op::*;
        match self {
            Leaf => vec![],
            Add(a, b)
            | Mul(a, b)
            | AddBias(a, b)
            | MulRow(a, b)
            | MatMul(a, b)
            | BatchMatMul(a, b) => vec![*a, *b],
            Affine {
                x, w, bias, init, ..
            } => [Some(*x), Some(*w), *bias, *init]
                .into_iter()
                .flatten()
                .collect(),
            Attention(q, k, v, _, _) => vec![*q, *k, *v],
            Ln(a) | Relu(a) | Tanh(a) | TransposeLast2(a) | Reshape(a) | SumAll(a) | MaxAll(a) => {
                vec![*a]
            }
            LeakyRelu(a, _)
            | MulScalar(a, _)
            | AddScalar(a, _)
            | Recip(a, _)
            | BroadcastScalar(a, _)
            | LayerNorm(a, _) => vec![*a],
            GatherRows(a, _) => vec![*a],
            SegmentSum(a, _, _) | SegmentMax(a, _, _) | SegmentSoftmax(a, _, _) => vec![*a],
            SoftmaxLastDim(a, _) => vec![*a],
            ConcatCols(vs) | ConcatRows(vs) => vs.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_the_variant_names() {
        let v = Var(0);
        let ops = [
            Op::Leaf,
            Op::Add(v, v),
            Op::Mul(v, v),
            Op::Ln(v),
            Op::Relu(v),
            Op::LeakyRelu(v, 0.1),
            Op::Tanh(v),
            Op::MulScalar(v, 2.0),
            Op::AddScalar(v, 2.0),
            Op::Recip(v, 1e-6),
            Op::AddBias(v, v),
            Op::MulRow(v, v),
            Op::BroadcastScalar(v, 3),
            Op::MatMul(v, v),
            Op::BatchMatMul(v, v),
            Op::Affine {
                x: v,
                w: v,
                k0: 0,
                bias: None,
                init: None,
                act: AffineAct::Identity,
            },
            Op::TransposeLast2(v),
            Op::Attention(v, v, v, 1.0, None),
            Op::Reshape(v),
            Op::ConcatCols(vec![v]),
            Op::ConcatRows(vec![v]),
            Op::GatherRows(v, Arc::new(vec![0])),
            Op::SumAll(v),
            Op::MaxAll(v),
            Op::SegmentSum(v, Arc::new(vec![0]), 1),
            Op::SegmentMax(v, Arc::new(vec![0]), 1),
            Op::SegmentSoftmax(v, Arc::new(vec![0]), 1),
            Op::SoftmaxLastDim(v, None),
            Op::LayerNorm(v, 1e-5),
        ];
        assert_eq!(ops.len(), Op::KIND_COUNT);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(op.kind_index(), i);
            let debug = format!("{op:?}");
            let variant = debug.split(['(', ' ']).next().unwrap_or_default();
            assert_eq!(op.kind(), variant);
        }
    }
}
