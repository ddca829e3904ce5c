//! Independent shape re-inference.
//!
//! Re-derives every node's output shape from its inputs' shapes using only
//! the documented op semantics — deliberately *not* reusing the tape's own
//! construction-time checks, so a bug in either implementation shows up as a
//! disagreement.

use harp_tensor::{NodeView, Op, Shape};

/// Infer the output shape of `node` from `inputs` (the already-verified
/// shapes of its input nodes, in `Op::inputs()` order).
///
/// `Ok(None)` means the op's shape is free-form (leaves; reshape targets are
/// validated against element count instead). `Err` describes a structural
/// invalidity (e.g. mismatched matmul inner dims).
pub fn infer_shape(node: &NodeView<'_>, inputs: &[&Shape]) -> Result<Option<Shape>, String> {
    use Op::*;
    let sh = |i: usize| -> &Shape { inputs[i] };
    let as_matrix = |s: &Shape| -> Result<(usize, usize), String> {
        match s.0.as_slice() {
            [] => Ok((1, 1)),
            [n] => Ok((1, *n)),
            [r, c] => Ok((*r, *c)),
            other => Err(format!("expected rank <= 2, got {other:?}")),
        }
    };
    match node.op {
        Leaf => Ok(None),

        Add(_, _) | Mul(_, _) => {
            if sh(0) != sh(1) {
                return Err(format!(
                    "elementwise op on mismatched shapes {:?} vs {:?}",
                    sh(0),
                    sh(1)
                ));
            }
            Ok(Some(sh(0).clone()))
        }

        Ln(_)
        | Relu(_)
        | LeakyRelu(_, _)
        | Tanh(_)
        | MulScalar(_, _)
        | AddScalar(_, _)
        | Recip(_, _) => Ok(Some(sh(0).clone())),

        AddBias(_, _) | MulRow(_, _) => {
            let w = sh(0).last_dim();
            if sh(1).numel() != w {
                return Err(format!(
                    "row-broadcast length {} vs last dim {}",
                    sh(1).numel(),
                    w
                ));
            }
            Ok(Some(sh(0).clone()))
        }

        BroadcastScalar(_, n) => {
            if sh(0).numel() != 1 {
                return Err(format!("broadcast_scalar of {} elements", sh(0).numel()));
            }
            Ok(Some(Shape(vec![*n])))
        }

        MatMul(_, _) => {
            let (m, k) = as_matrix(sh(0))?;
            let (k2, n) = as_matrix(sh(1))?;
            if k != k2 {
                return Err(format!("matmul inner dims {k} vs {k2}"));
            }
            Ok(Some(Shape(vec![m, n])))
        }

        Affine { k0, bias, init, .. } => {
            let (m, k) = as_matrix(sh(0))?;
            let (w_rows, n) = as_matrix(sh(1))?;
            if k0 + k > w_rows {
                return Err(format!(
                    "affine weight rows {k0}..{} out of {w_rows}",
                    k0 + k
                ));
            }
            // optional inputs follow in `Op::inputs()` order: bias, then init
            let mut next = 2;
            if bias.is_some() {
                if sh(next).numel() != n {
                    return Err(format!(
                        "affine bias length {} vs {n} out cols",
                        sh(next).numel()
                    ));
                }
                next += 1;
            }
            if init.is_some() && as_matrix(sh(next))? != (m, n) {
                return Err(format!("affine init shape {:?} vs [{m}, {n}]", sh(next)));
            }
            Ok(Some(Shape(vec![m, n])))
        }

        BatchMatMul(_, _) => {
            let (a, b) = (sh(0), sh(1));
            if a.rank() != 3 || b.rank() != 3 {
                return Err(format!(
                    "batch_matmul needs rank-3 inputs, got {:?} x {:?}",
                    a, b
                ));
            }
            let (ba, m, k) = (a.dim(0), a.dim(1), a.dim(2));
            let (bb, k2, n) = (b.dim(0), b.dim(1), b.dim(2));
            if ba != bb {
                return Err(format!("batch_matmul batch dims {ba} vs {bb}"));
            }
            if k != k2 {
                return Err(format!("batch_matmul inner dims {k} vs {k2}"));
            }
            Ok(Some(Shape(vec![ba, m, n])))
        }

        Attention(_, _, _, _, mask) => {
            let q = sh(0);
            if q.rank() != 3 {
                return Err(format!("attention needs rank-3 inputs, got q {q:?}"));
            }
            for (name, x) in [("k", sh(1)), ("v", sh(2))] {
                if x != q {
                    return Err(format!("attention {name} shape {x:?} vs q shape {q:?}"));
                }
            }
            if let Some(m) = mask {
                let (b, s) = (q.dim(0), q.dim(1));
                if m.len() != s && m.len() != b * s * s {
                    return Err(format!(
                        "attention mask length {} must be {s} or {}",
                        m.len(),
                        b * s * s
                    ));
                }
            }
            Ok(Some(q.clone()))
        }

        TransposeLast2(_) => match sh(0).0.as_slice() {
            [m, n] => Ok(Some(Shape(vec![*n, *m]))),
            [b, m, n] => Ok(Some(Shape(vec![*b, *n, *m]))),
            other => Err(format!("transpose_last2 of rank-{} tensor", other.len())),
        },

        Reshape(_) => {
            // the target shape is free; only the element count is constrained
            if node.shape.numel() != sh(0).numel() {
                return Err(format!(
                    "reshape changes element count {} -> {}",
                    sh(0).numel(),
                    node.shape.numel()
                ));
            }
            Ok(None)
        }

        ConcatCols(_) => {
            let rows = sh(0).leading_rows();
            let mut total = 0usize;
            for (i, s) in inputs.iter().enumerate() {
                if s.leading_rows() != rows {
                    return Err(format!(
                        "concat_cols part {i} has {} rows, expected {rows}",
                        s.leading_rows()
                    ));
                }
                total += s.last_dim();
            }
            Ok(Some(Shape(vec![rows, total])))
        }

        ConcatRows(_) => {
            if sh(0).rank() <= 1 {
                let mut n = 0usize;
                for (i, s) in inputs.iter().enumerate() {
                    if s.rank() > 1 {
                        return Err(format!("concat_rows part {i} mixes ranks"));
                    }
                    n += s.numel();
                }
                Ok(Some(Shape(vec![n])))
            } else {
                let cols = sh(0).last_dim();
                let mut rows = 0usize;
                for (i, s) in inputs.iter().enumerate() {
                    if s.last_dim() != cols {
                        return Err(format!(
                            "concat_rows part {i} has {} cols, expected {cols}",
                            s.last_dim()
                        ));
                    }
                    rows += s.leading_rows();
                }
                Ok(Some(Shape(vec![rows, cols])))
            }
        }

        GatherRows(_, idx) => {
            let s = sh(0);
            let rows = match s.rank() {
                1 => s.dim(0),
                2 => s.dim(0),
                r => return Err(format!("gather_rows of rank-{r} tensor")),
            };
            if let Some(&bad) = idx.iter().find(|&&i| i >= rows) {
                return Err(format!("gather index {bad} out of {rows} rows"));
            }
            Ok(Some(if s.rank() == 1 {
                Shape(vec![idx.len()])
            } else {
                Shape(vec![idx.len(), s.dim(1)])
            }))
        }

        SumAll(_) | MaxAll(_) => Ok(Some(Shape::scalar())),

        SegmentSum(_, seg, n_segments) => {
            let s = sh(0);
            let n_in = match s.rank() {
                1 => s.dim(0),
                2 => s.dim(0),
                r => return Err(format!("segment_sum of rank-{r} tensor")),
            };
            check_segments(seg, n_in, *n_segments)?;
            Ok(Some(if s.rank() == 1 {
                Shape(vec![*n_segments])
            } else {
                Shape(vec![*n_segments, s.dim(1)])
            }))
        }

        SegmentMax(_, seg, n_segments) => {
            if sh(0).rank() != 1 {
                return Err("segment_max needs a rank-1 input".to_string());
            }
            check_segments(seg, sh(0).dim(0), *n_segments)?;
            Ok(Some(Shape(vec![*n_segments])))
        }

        SegmentSoftmax(_, seg, n_segments) => {
            if sh(0).rank() != 1 {
                return Err("segment_softmax needs a rank-1 input".to_string());
            }
            check_segments(seg, sh(0).dim(0), *n_segments)?;
            Ok(Some(sh(0).clone()))
        }

        SoftmaxLastDim(_, mask) => {
            if let Some(m) = mask {
                let w = sh(0).last_dim();
                if m.len() != w && m.len() != sh(0).numel() {
                    return Err(format!(
                        "softmax mask length {} must be {w} or {}",
                        m.len(),
                        sh(0).numel()
                    ));
                }
            }
            Ok(Some(sh(0).clone()))
        }

        LayerNorm(_, _) => Ok(Some(sh(0).clone())),
    }
}

fn check_segments(seg: &[usize], n_in: usize, n_segments: usize) -> Result<(), String> {
    if seg.len() != n_in {
        return Err(format!(
            "segment index length {} vs {} input rows",
            seg.len(),
            n_in
        ));
    }
    if let Some(&bad) = seg.iter().find(|&&s| s >= n_segments) {
        return Err(format!("segment id {bad} out of {n_segments} segments"));
    }
    Ok(())
}
