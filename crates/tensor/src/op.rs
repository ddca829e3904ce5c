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

impl Op {
    /// Stable kind name of this operation (the variant name), used to key
    /// per-op timing histograms and profiling reports and to name ops in
    /// `harp-verify` diagnostics.
    pub fn kind(&self) -> &'static str {
        use Op::*;
        match self {
            Leaf => "Leaf",
            Add(..) => "Add",
            Mul(..) => "Mul",
            Ln(..) => "Ln",
            Relu(..) => "Relu",
            LeakyRelu(..) => "LeakyRelu",
            Tanh(..) => "Tanh",
            MulScalar(..) => "MulScalar",
            AddScalar(..) => "AddScalar",
            Recip(..) => "Recip",
            AddBias(..) => "AddBias",
            MulRow(..) => "MulRow",
            BroadcastScalar(..) => "BroadcastScalar",
            MatMul(..) => "MatMul",
            BatchMatMul(..) => "BatchMatMul",
            Affine { .. } => "Affine",
            TransposeLast2(..) => "TransposeLast2",
            Attention(..) => "Attention",
            Reshape(..) => "Reshape",
            ConcatCols(..) => "ConcatCols",
            ConcatRows(..) => "ConcatRows",
            GatherRows(..) => "GatherRows",
            SumAll(..) => "SumAll",
            MaxAll(..) => "MaxAll",
            SegmentSum(..) => "SegmentSum",
            SegmentMax(..) => "SegmentMax",
            SegmentSoftmax(..) => "SegmentSoftmax",
            SoftmaxLastDim(..) => "SoftmaxLastDim",
            LayerNorm(..) => "LayerNorm",
        }
    }

    /// Handles of this op's inputs, in order.
    pub fn inputs(&self) -> Vec<Var> {
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
