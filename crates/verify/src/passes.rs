//! Determinism passes (harp-verify v2): proofs over recorded tapes that
//! the repo's bitwise-reproducibility claims hold *structurally*, not just
//! on sampled inputs.
//!
//! * [`audit_reduction_order`] — every float reduction on the tape must
//!   accumulate in a statically fixed order. The op set is classified
//!   exhaustively (adding an op variant without classifying it here is a
//!   compile error), and the order-sensitive reductions (`max_all`,
//!   `segment_max`) are re-derived from the recorded values: a saved
//!   argmax that disagrees with the canonical first-maximum scan means the
//!   forward accumulation did not run in the fixed serial order.
//! * [`check_epoch_cache`] — structural bisimulation between a model's
//!   full forward tape and its `precompute_epoch` + `forward_cached`
//!   tape: outside the splice points (constant leaves carrying cached
//!   projections of the epoch table) the two graphs must match op-for-op
//!   (kind, metadata, shapes, parameter provenance, constants bitwise),
//!   and at each splice point the cached rows must equal the full
//!   forward's projection bitwise. Together that proves cached == full for
//!   *every* traffic matrix, not just the ones the example tests sampled.

use std::collections::HashSet;

use harp_tensor::{Op, Tape, Var};

use crate::report::{Diagnostic, GraphReport, Severity};

// ---------------------------------------------------------------------
// Pass 1: reduction-order audit
// ---------------------------------------------------------------------

/// How a recorded op accumulates floats, for the determinism audit.
enum Accumulation {
    /// No float accumulation across elements (elementwise, shape ops).
    None,
    /// Accumulates in input-index order — statically fixed: every kernel
    /// runs on the calling thread, one index-order chain per element.
    FixedOrder,
    /// Selects an element (max/argmax): the *value* is order-independent
    /// but the saved argmax — and therefore the backward pass — depends on
    /// the scan order. Checked against the canonical first-maximum scan.
    OrderSensitiveSelect,
}

/// Classify every op variant. Deliberately exhaustive (no `_` arm): a new
/// op cannot be added to the tape without deciding its accumulation-order
/// story here.
fn accumulation_of(op: &Op) -> Accumulation {
    use Op::*;
    match op {
        Leaf | Add(..) | Mul(..) | Ln(..) | Relu(..) | LeakyRelu(..) | Tanh(..) | MulScalar(..)
        | AddScalar(..) | Recip(..) | AddBias(..) | MulRow(..) | BroadcastScalar(..)
        | TransposeLast2(..) | Reshape(..) | ConcatCols(..) | ConcatRows(..) | GatherRows(..) => {
            Accumulation::None
        }
        // Index-order accumulations: sums, matmul dot products
        // (k-order), softmax/layer-norm statistics. All kernels scan in
        // index order on the calling thread. The fused affine op shares
        // the matmul microkernel's per-element k-order — its seed, when it
        // has one, is the head of that same chain, loaded into the
        // accumulator rather than summed in a second order — and applies
        // the bias/activation epilogue once per element after the
        // reduction, so it inherits the same fixed order. The fused attention op runs
        // its products as the same per-element index-order chains and its
        // softmax rows through the softmax kernels, serially.
        MatMul(..)
        | Attention(..)
        | Affine { .. }
        | BatchMatMul(..)
        | SumAll(..)
        | SegmentSum(..)
        | SegmentSoftmax(..)
        | SoftmaxLastDim(..)
        | LayerNorm(..) => Accumulation::FixedOrder,
        MaxAll(..) | SegmentMax(..) => Accumulation::OrderSensitiveSelect,
    }
}

/// Audit every float reduction on `tape` for statically fixed accumulation
/// order. Emits:
///
/// * `reduction-order` (Error) — a `max_all`/`segment_max` node whose
///   recorded argmax disagrees with the canonical first-maximum scan of
///   its input: the forward accumulation ran in a different order, so the
///   backward pass will route gradient to a different element than the
///   reference serial execution.
/// * `tie-sensitive-reduction` (Info) — one summary note when
///   order-sensitive selections have bitwise ties for the maximum: the
///   current scan picks the first, but any future change of scan order
///   would silently redirect gradients.
pub fn audit_reduction_order(tape: &Tape) -> GraphReport {
    let mut report = GraphReport::default();
    let mut tie_nodes = 0usize;
    for node in tape.nodes() {
        match accumulation_of(node.op) {
            Accumulation::None | Accumulation::FixedOrder => {}
            Accumulation::OrderSensitiveSelect => match node.op {
                Op::MaxAll(a) => {
                    let vals = tape.value(*a);
                    let canonical = first_argmax(vals);
                    let recorded = tape.argmax_of(node.var);
                    if Some(recorded) != canonical {
                        report.diagnostics.push(Diagnostic {
                            severity: Severity::Error,
                            code: "reduction-order",
                            node: Some(node.var.index()),
                            message: format!(
                                "max_all recorded argmax {recorded} but the canonical \
                                 first-maximum scan gives {:?}; the forward accumulation \
                                 did not run in the fixed serial order",
                                canonical
                            ),
                        });
                    }
                    if has_max_tie(vals) {
                        tie_nodes += 1;
                    }
                }
                Op::SegmentMax(a, seg, n_segments) => {
                    let vals = tape.value(*a);
                    let recorded = tape.segment_argmax_of(node.var);
                    let canonical = segment_first_argmax(vals, seg, *n_segments);
                    for (s, (&rec, canon)) in recorded.iter().zip(&canonical).enumerate() {
                        if Some(rec) != *canon {
                            report.diagnostics.push(Diagnostic {
                                severity: Severity::Error,
                                code: "reduction-order",
                                node: Some(node.var.index()),
                                message: format!(
                                    "segment_max recorded argmax {rec} for segment {s} but \
                                     the canonical first-maximum scan gives {canon:?}; the \
                                     forward accumulation did not run in the fixed serial \
                                     order"
                                ),
                            });
                        }
                    }
                    if segment_has_tie(vals, seg, *n_segments) {
                        tie_nodes += 1;
                    }
                }
                // `accumulation_of` only returns OrderSensitiveSelect for
                // the two variants above.
                _ => unreachable!("unclassified order-sensitive reduction"),
            },
        }
    }
    if tie_nodes > 0 {
        report.diagnostics.push(Diagnostic {
            severity: Severity::Info,
            code: "tie-sensitive-reduction",
            node: None,
            message: format!(
                "{tie_nodes} order-sensitive max reduction(s) have bitwise ties for the \
                 maximum; the fixed scan picks the first, but any change of scan order \
                 would redirect subgradients"
            ),
        });
    }
    report.diagnostics.sort_by_key(|d| (d.node, d.code));
    report
}

/// Index of the first maximum under the canonical serial scan (strictly
/// greater replaces), i.e. exactly what `Tape::max_all` records.
fn first_argmax(vals: &[f32]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, &x) in vals.iter().enumerate() {
        match best {
            None => best = Some(i),
            Some(b) if x > vals[b] => best = Some(i),
            Some(_) => {}
        }
    }
    best
}

fn has_max_tie(vals: &[f32]) -> bool {
    match first_argmax(vals) {
        None => false,
        Some(b) => vals
            .iter()
            .enumerate()
            .any(|(i, &x)| i != b && x.to_bits() == vals[b].to_bits()),
    }
}

/// Per-segment first argmax under the canonical serial scan, mirroring
/// `Tape::segment_max` (`None` for an empty segment, which the forward
/// pass rejects anyway).
fn segment_first_argmax(vals: &[f32], seg: &[usize], n_segments: usize) -> Vec<Option<usize>> {
    let mut best: Vec<Option<usize>> = vec![None; n_segments];
    for (i, &s) in seg.iter().enumerate() {
        if s >= n_segments {
            continue; // forward would have rejected; shape pass reports it
        }
        match best[s] {
            None => best[s] = Some(i),
            Some(b) if vals[i] > vals[b] => best[s] = Some(i),
            Some(_) => {}
        }
    }
    best
}

fn segment_has_tie(vals: &[f32], seg: &[usize], n_segments: usize) -> bool {
    let best = segment_first_argmax(vals, seg, n_segments);
    seg.iter().enumerate().any(|(i, &s)| {
        s < n_segments && best[s].is_some_and(|b| i != b && vals[i].to_bits() == vals[b].to_bits())
    })
}

// ---------------------------------------------------------------------
// Pass 2: epoch-cache consistency lint
// ---------------------------------------------------------------------

/// Structurally prove that `precompute_epoch` + `forward_cached` covers
/// the same subgraph as the full forward.
///
/// Walks the two tapes backward from their output nodes in lockstep. The
/// cached tape may replace a full-tape projection `affine(gather_rows(..),
/// w[0..k])` of a parameter `w` — no bias, seed or activation — with a
/// non-param constant leaf holding the projected rows the cached head
/// reads (`Tape::constant_rows`). At each such splice point the leaf must
/// equal the product node bitwise (`cache-divergence` otherwise), which
/// fixes every value downstream of it. Everywhere else the nodes must
/// match exactly — op kind and metadata, shapes, parameter provenance,
/// and constant leaves bitwise (`cache-structure-mismatch` otherwise).
///
/// Emits `cache-spliced` (Info) naming the first splice point when the
/// proof found any, or `cache-unused` (Info) when the cached tape splices
/// nothing (a model using the default full-forward `forward_cached`).
/// Diagnostics anchor `node` to the *full* tape.
pub fn check_epoch_cache(
    full: &Tape,
    full_out: Var,
    cached: &Tape,
    cached_out: Var,
) -> GraphReport {
    let mut report = GraphReport::default();
    let mut visited: HashSet<(usize, usize)> = HashSet::new();
    let mut stack: Vec<(Var, Var)> = vec![(full_out, cached_out)];
    let mut splices: Vec<(usize, usize)> = Vec::new();

    while let Some((a, b)) = stack.pop() {
        if !visited.insert((a.index(), b.index())) {
            continue;
        }
        let na = full.node(a);
        let nb = cached.node(b);

        if matches!(nb.op, Op::Leaf) && nb.param.is_none() && is_bare_projection(full, na.op) {
            splices.push((a.index(), b.index()));
            if !bits_eq(nb.value, na.value) {
                report.diagnostics.push(Diagnostic {
                    severity: Severity::Error,
                    code: "cache-divergence",
                    node: Some(a.index()),
                    message: format!(
                        "cached rows at leaf #{} diverge from the full forward's projection \
                         Affine #{}: {}",
                        b.index(),
                        a.index(),
                        first_diff(nb.value, na.value)
                    ),
                });
            }
            continue; // the product, its gather and the table are what the cache covers
        }

        if let Err(why) = nodes_match(&na, &nb) {
            report.diagnostics.push(Diagnostic {
                severity: Severity::Error,
                code: "cache-structure-mismatch",
                node: Some(a.index()),
                message: format!(
                    "full forward {} #{} vs cached forward {} #{}: {why}",
                    na.op.kind(),
                    a.index(),
                    nb.op.kind(),
                    b.index()
                ),
            });
            continue; // don't cascade into a divergent subgraph
        }

        let ia = na.op.inputs();
        let ib = nb.op.inputs();
        // nodes_match checked arity
        stack.extend(ia.into_iter().zip(ib));
    }

    if let Some(&(a, b)) = splices.first() {
        report.diagnostics.push(Diagnostic {
            severity: Severity::Info,
            code: "cache-spliced",
            node: Some(a),
            message: format!(
                "cached forward splices {} projection(s) of the epoch table, the first at \
                 leaf #{b} for the full-forward Affine #{a}",
                splices.len()
            ),
        });
    } else {
        report.diagnostics.push(Diagnostic {
            severity: Severity::Info,
            code: "cache-unused",
            node: None,
            message: "cached forward never references the epoch table; the model runs \
                      the full forward (default `forward_cached`)"
                .to_string(),
        });
    }

    report.diagnostics.sort_by_key(|d| (d.node, d.code));
    report
}

/// Whether `op` is a bare projection `gather_rows(..) · w[0..k]` of a
/// parameter `w`: an [`Op::Affine`] with no bias, seed or activation from
/// weight row 0 over a gather.
fn is_bare_projection(tape: &Tape, op: &Op) -> bool {
    let Op::Affine {
        x,
        w,
        k0: 0,
        bias: None,
        init: None,
        act: harp_tensor::AffineAct::Identity,
    } = op
    else {
        return false;
    };
    matches!(tape.node(*x).op, Op::GatherRows(..)) && tape.node(*w).param.is_some()
}

/// Structural equality of two nodes: op kind + metadata, shape, parameter
/// provenance, and (for non-param leaves) bitwise values.
fn nodes_match(a: &harp_tensor::NodeView<'_>, b: &harp_tensor::NodeView<'_>) -> Result<(), String> {
    ops_match(a.op, b.op)?;
    if a.shape != b.shape {
        return Err(format!("shape {:?} vs {:?}", a.shape, b.shape));
    }
    if a.param != b.param {
        return Err("different parameter provenance".to_string());
    }
    if matches!(a.op, Op::Leaf) && a.param.is_none() && !bits_eq(a.value, b.value) {
        return Err(format!(
            "constant leaves differ: {}",
            first_diff(a.value, b.value)
        ));
    }
    Ok(())
}

/// Structural equality of two ops: same variant, bitwise-equal scalar
/// payloads, equal index arrays / bounds / masks, equal arity.
fn ops_match(a: &Op, b: &Op) -> Result<(), String> {
    use Op::*;
    if a.kind() != b.kind() {
        return Err(format!("op {} vs {}", a.kind(), b.kind()));
    }
    let scalar = |x: &f32, y: &f32, what: &str| -> Result<(), String> {
        if x.to_bits() != y.to_bits() {
            Err(format!("{what} constant {x} vs {y}"))
        } else {
            Ok(())
        }
    };
    match (a, b) {
        (LeakyRelu(_, x), LeakyRelu(_, y)) => scalar(x, y, "leaky_relu slope")?,
        (
            Affine {
                k0: k1,
                bias: b1,
                init: i1,
                act: a1,
                ..
            },
            Affine {
                k0: k2,
                bias: b2,
                init: i2,
                act: a2,
                ..
            },
        ) => {
            use harp_tensor::AffineAct::LeakyRelu;
            if k1 != k2 {
                return Err(format!("affine weight row offset {k1} vs {k2}"));
            }
            if (b1.is_some(), i1.is_some()) != (b2.is_some(), i2.is_some()) {
                return Err("affine bias/init presence differs".to_string());
            }
            match (a1, a2) {
                (LeakyRelu(x), LeakyRelu(y)) => scalar(x, y, "affine leaky slope")?,
                _ if a1 == a2 => {}
                _ => return Err(format!("affine activation {a1:?} vs {a2:?}")),
            }
        }
        (MulScalar(_, x), MulScalar(_, y)) => scalar(x, y, "mul_scalar")?,
        (AddScalar(_, x), AddScalar(_, y)) => scalar(x, y, "add_scalar")?,
        (Recip(_, x), Recip(_, y)) => scalar(x, y, "recip eps")?,
        (LayerNorm(_, x), LayerNorm(_, y)) => scalar(x, y, "layer_norm eps")?,
        (BroadcastScalar(_, x), BroadcastScalar(_, y)) if x != y => {
            return Err(format!("broadcast width {x} vs {y}"));
        }
        (GatherRows(_, i1), GatherRows(_, i2)) if i1 != i2 => {
            return Err("gather index arrays differ".to_string());
        }
        (SegmentSum(_, s1, n1), SegmentSum(_, s2, n2))
        | (SegmentMax(_, s1, n1), SegmentMax(_, s2, n2))
        | (SegmentSoftmax(_, s1, n1), SegmentSoftmax(_, s2, n2))
            if s1 != s2 || n1 != n2 =>
        {
            return Err("segment layouts differ".to_string());
        }
        (SoftmaxLastDim(_, m1), SoftmaxLastDim(_, m2))
        | (Attention(_, _, _, _, m1), Attention(_, _, _, _, m2)) => {
            if let (Attention(_, _, _, x, _), Attention(_, _, _, y, _)) = (a, b) {
                scalar(x, y, "attention scale")?;
            }
            let eq = match (m1, m2) {
                (None, None) => true,
                (Some(x), Some(y)) => bits_eq(x, y),
                _ => false,
            };
            if !eq {
                return Err("softmax masks differ".to_string());
            }
        }
        _ => {}
    }
    let (na, nb) = (a.inputs().len(), b.inputs().len());
    if na != nb {
        return Err(format!("arity {na} vs {nb}"));
    }
    Ok(())
}

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn first_diff(a: &[f32], b: &[f32]) -> String {
    if a.len() != b.len() {
        return format!("length {} vs {}", a.len(), b.len());
    }
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
    {
        Some(i) => format!(
            "first differing element at flat index {i} ({} vs {})",
            a[i], b[i]
        ),
        None => "identical".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_tensor::{AffineAct, ParamId, ParamStore};
    use std::sync::Arc;

    #[test]
    fn reduction_audit_is_clean_on_canonical_tapes() {
        let mut t = Tape::new();
        let x = t.constant(vec![4], vec![1.0, 3.0, 2.0, 0.5]);
        let m = t.max_all(x);
        let seg = Arc::new(vec![0usize, 0, 1, 1]);
        let _s = t.segment_max(x, seg, 2);
        let _sum = t.sum_all(x);
        let _ = m;
        let report = audit_reduction_order(&t);
        assert!(report.diagnostics.is_empty(), "{report}");
    }

    #[test]
    fn corrupted_argmax_is_a_reduction_order_error() {
        let mut t = Tape::new();
        let x = t.constant(vec![4], vec![1.0, 3.0, 2.0, 0.5]);
        let m = t.max_all(x);
        t.corrupt_aux_for_test(m, vec![2]); // pretend a different scan order
        let report = audit_reduction_order(&t);
        assert!(report.has("reduction-order"), "{report}");
        assert_eq!(report.count(Severity::Error), 1);
        let d = &report.diagnostics[0];
        assert_eq!(d.node, Some(m.index()), "anchored to the offending op");
        assert!(d.message.contains("max_all"), "{}", d.message);
    }

    #[test]
    fn corrupted_segment_argmax_is_flagged_per_segment() {
        let mut t = Tape::new();
        let x = t.constant(vec![4], vec![1.0, 3.0, 2.0, 0.5]);
        let s = t.segment_max(x, Arc::new(vec![0, 0, 1, 1]), 2);
        t.corrupt_aux_for_test(s, vec![0, 2]); // segment 0's argmax is wrong
        let report = audit_reduction_order(&t);
        assert_eq!(report.count(Severity::Error), 1, "{report}");
        assert!(report.diagnostics[0].message.contains("segment 0"));
    }

    #[test]
    fn bitwise_ties_get_an_info_note() {
        let mut t = Tape::new();
        let x = t.constant(vec![3], vec![2.0, 2.0, 1.0]);
        let _m = t.max_all(x);
        let report = audit_reduction_order(&t);
        assert!(report.has("tie-sensitive-reduction"), "{report}");
        assert!(report.is_clean(), "ties are a note, not an error: {report}");
    }

    /// Rows of the toy "epoch table" the head projects.
    const ROWS: [usize; 2] = [2, 0];

    /// Tiny stand-in for a split model: "epoch" table `e = w * base`,
    /// "head" `out = sum(gather_rows(e, ROWS) · p + tm)`. Returns the tape,
    /// its output, the gathered rows and their projection.
    fn full_forward(
        store: &ParamStore,
        w: ParamId,
        p: ParamId,
        tm: &[f32],
    ) -> (Tape, Var, Var, Var) {
        let mut t = Tape::new();
        let wv = t.param(store, w);
        let base = t.constant(vec![3, 2], vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]);
        let e = t.mul(wv, base); // the TM-independent "epoch" subgraph
        let rows = t.gather_rows(e, Arc::new(ROWS.to_vec()));
        let pv = t.param(store, p);
        let proj = t.affine(rows, pv, 0, None, None, AffineAct::Identity);
        let tmv = t.constant(vec![2, 2], tm.to_vec());
        let sum = t.add(proj, tmv);
        let out = t.sum_all(sum);
        (t, out, rows, proj)
    }

    /// The cached head: `leaf` as a constant, through `head`, then the
    /// full forward's traffic term.
    fn cached_forward(
        leaf: &[f32],
        tm: &[f32],
        head: impl FnOnce(&mut Tape, Var) -> Var,
    ) -> (Tape, Var) {
        let mut t = Tape::new();
        let x = t.constant(vec![2, 2], leaf.to_vec()); // splice
        let x = head(&mut t, x);
        let tmv = t.constant(vec![2, 2], tm.to_vec());
        let sum = t.add(x, tmv);
        let out = t.sum_all(sum);
        (t, out)
    }

    fn toy_store() -> (ParamStore, ParamId, ParamId) {
        let mut store = ParamStore::new();
        let w = store.register("w", vec![3, 2], vec![0.5, 2.0, -1.0, 0.25, 3.0, 1.5]);
        let p = store.register("p", vec![2, 2], vec![1.0, -0.5, 0.75, 2.0]);
        (store, w, p)
    }

    const TM: [f32; 4] = [1.0, 2.0, 3.0, 4.0];

    #[test]
    fn matching_cached_forward_proves_clean() {
        let (store, w, p) = toy_store();
        let (full, full_out, _, proj) = full_forward(&store, w, p, &TM);
        let (cached, cached_out) = cached_forward(full.value(proj), &TM, |_, x| x);
        let report = check_epoch_cache(&full, full_out, &cached, cached_out);
        assert!(report.is_clean(), "{report}");
        assert!(report.has("cache-spliced"), "{report}");
    }

    #[test]
    fn structural_mismatch_names_the_offending_op() {
        let (store, w, p) = toy_store();
        let (full, full_out, _, proj) = full_forward(&store, w, p, &TM);
        // The cached head sneaks in an extra MulScalar the full forward
        // does not have: covered subgraphs differ.
        let (cached, cached_out) =
            cached_forward(full.value(proj), &TM, |t, x| t.mul_scalar(x, 1.5));
        let report = check_epoch_cache(&full, full_out, &cached, cached_out);
        assert!(report.has("cache-structure-mismatch"), "{report}");
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "cache-structure-mismatch")
            .expect("mismatch");
        assert!(
            d.message.contains("MulScalar"),
            "names the op: {}",
            d.message
        );
    }

    #[test]
    fn raw_gather_leaf_is_a_structure_mismatch() {
        // A cached head that splices the gathered *table* rows and projects
        // them itself: no head reads the table, so nothing vouches for
        // these rows and the leaf must not stand for the gather.
        let (store, w, p) = toy_store();
        let (full, full_out, rows, _) = full_forward(&store, w, p, &TM);
        let (cached, cached_out) = cached_forward(full.value(rows), &TM, |t, x| {
            let pv = t.param(&store, p);
            t.affine(x, pv, 0, None, None, AffineAct::Identity)
        });
        let report = check_epoch_cache(&full, full_out, &cached, cached_out);
        assert!(report.has("cache-structure-mismatch"), "{report}");
        assert!(!report.has("cache-spliced"), "{report}");
    }

    #[test]
    fn attention_nodes_match_on_scale_and_mask() {
        let mut t = Tape::new();
        let x = t.constant(vec![1, 2, 2], vec![0.1, 0.2, 0.3, 0.4]);
        let mask = Arc::new(vec![1.0, 0.0]);
        let a = t.attention(x, x, x, 0.5, Some(mask.clone()));
        let same = t.attention(x, x, x, 0.5, Some(mask));
        let other_scale = t.attention(x, x, x, 0.25, None);
        let unmasked = t.attention(x, x, x, 0.5, None);
        assert!(nodes_match(&t.node(a), &t.node(same)).is_ok());
        let why = nodes_match(&t.node(a), &t.node(other_scale)).unwrap_err();
        assert!(why.contains("attention scale"), "{why}");
        let why = nodes_match(&t.node(a), &t.node(unmasked)).unwrap_err();
        assert!(why.contains("masks differ"), "{why}");
    }

    #[test]
    fn stale_projection_is_divergence() {
        let (store, w, p) = toy_store();
        let (full, full_out, _, proj) = full_forward(&store, w, p, &TM);
        let mut leaf = full.value(proj).to_vec();
        leaf[1] += 0.25; // stale rows (e.g. computed from old params)
        let (cached, cached_out) = cached_forward(&leaf, &TM, |_, x| x);
        let report = check_epoch_cache(&full, full_out, &cached, cached_out);
        assert!(report.has("cache-divergence"), "{report}");
        assert!(!report.has("cache-structure-mismatch"), "{report}");
    }

    #[test]
    fn default_full_forward_reports_cache_unused() {
        let (store, w, p) = toy_store();
        let (full, full_out, _, _) = full_forward(&store, w, p, &TM);
        let (full2, full2_out, _, _) = full_forward(&store, w, p, &TM);
        let report = check_epoch_cache(&full, full_out, &full2, full2_out);
        assert!(report.is_clean(), "{report}");
        assert!(report.has("cache-unused"), "{report}");
    }
}
