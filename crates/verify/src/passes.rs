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
//! * [`analyze_grad_aliasing`] — given a planned parallel schedule
//!   (disjoint tape-index `sections` that would run their backward
//!   concurrently), prove that no two sections write the same
//!   [`GradBuffer`](harp_tensor::GradBuffer) region or the same node's
//!   gradient accumulator. The serial schedule (one section spanning the
//!   tape) is aliasing-free by construction; the pass exists to vet the
//!   fused/partitioned backward schedules the SIMD rewrite will introduce.
//! * [`check_epoch_cache`] — structural bisimulation between a model's
//!   full forward tape and its `precompute_epoch` + `forward_cached`
//!   tape: outside the splice point (the leaf carrying the cached epoch
//!   table) the two graphs must match op-for-op (kind, metadata, shapes,
//!   parameter provenance, constants bitwise), and at the splice point the
//!   cached table must equal the full forward's value bitwise. Together
//!   that proves cached == full for *every* traffic matrix, not just the
//!   ones the example tests sampled.

use std::collections::HashSet;
use std::ops::Range;

use harp_tensor::{Op, ParamStore, Tape, Var};

use crate::analyze::op_name;
use crate::report::{Diagnostic, GraphReport, Severity};

// ---------------------------------------------------------------------
// Pass 1: reduction-order audit
// ---------------------------------------------------------------------

/// How a recorded op accumulates floats, for the determinism audit.
enum Accumulation {
    /// No float accumulation across elements (elementwise, shape ops).
    None,
    /// Accumulates in input-index order — statically fixed by the serial
    /// kernel (per-element order is also preserved by the row-partitioned
    /// parallel kernels).
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
        Leaf | Add(..) | Sub(..) | Mul(..) | Div(..) | Neg(..) | Exp(..) | Ln(..) | Sqrt(..)
        | Relu(..) | LeakyRelu(..) | Elu(..) | Sigmoid(..) | Tanh(..) | MulScalar(..)
        | AddScalar(..) | Recip(..) | AddBias(..) | MulRow(..) | BroadcastScalar(..)
        | TransposeLast2(..) | Reshape(..) | ConcatCols(..) | ConcatRows(..) | GatherRows(..) => {
            Accumulation::None
        }
        // Index-order accumulations: sums, means, matmul dot products
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
        | MeanAll(..)
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
// Pass 2: gradient-buffer alias analysis
// ---------------------------------------------------------------------

/// Prove that a planned parallel backward schedule is free of gradient
/// aliasing.
///
/// `sections` are disjoint tape-index ranges whose backward passes would
/// execute concurrently (the serial schedule is the single section
/// `0..tape.len()`). During backward, two kinds of shared writes can race:
///
/// * **Parameter regions**: a parameter injected as leaves in two
///   different sections makes both sections accumulate into the same
///   [`GradBuffer`](harp_tensor::GradBuffer) region — `grad-alias`
///   (Error), naming the parameter and both leaf nodes.
/// * **Node accumulators**: a consumer in one section back-propagating
///   into a producer recorded in another section writes that node's
///   gradient accumulator across the section boundary — `grad-alias`
///   (Error), naming both nodes and sections.
///
/// Independent of the schedule, every parameter injected more than once on
/// the tape (shared-parameter recursion, e.g. HARP's RAU reusing its MLP
/// weights each iteration) is reported as `shared-param-fanin` (Info):
/// those are exactly the regions a partitioned backward must give private
/// per-partition buffers and merge in fixed order.
///
/// Only gradient-carrying nodes (those reaching `loss` backward) are
/// considered; dead subgraphs never write gradients.
pub fn analyze_grad_aliasing(
    tape: &Tape,
    loss: Var,
    store: Option<&ParamStore>,
    sections: &[Range<usize>],
) -> GraphReport {
    let mut report = GraphReport::default();
    let n = tape.len();
    if loss.index() >= n {
        report.diagnostics.push(Diagnostic {
            severity: Severity::Error,
            code: "loss-not-on-tape",
            node: None,
            message: format!(
                "loss handle #{} is not on this tape ({n} nodes)",
                loss.index()
            ),
        });
        return report;
    }

    // Section map; also validate disjointness.
    let mut section_of: Vec<Option<usize>> = vec![None; n];
    for (si, r) in sections.iter().enumerate() {
        for i in r.start..r.end.min(n) {
            if let Some(prev) = section_of[i] {
                report.diagnostics.push(Diagnostic {
                    severity: Severity::Error,
                    code: "invalid-sections",
                    node: Some(i),
                    message: format!(
                        "node #{i} belongs to overlapping sections {prev} and {si}; \
                         a parallel schedule must partition the tape"
                    ),
                });
                return report;
            }
            section_of[i] = Some(si);
        }
    }

    // Backward reachability from the loss (mirrors the v1 analyzer).
    let mut reaches_loss = vec![false; n];
    reaches_loss[loss.index()] = true;
    for node in tape.nodes().collect::<Vec<_>>().into_iter().rev() {
        if reaches_loss[node.var.index()] {
            for input in node.op.inputs() {
                reaches_loss[input.index()] = true;
            }
        }
    }

    let param_name = |id: harp_tensor::ParamId| match store {
        Some(s) => format!("'{}'", s.name(id)),
        None => format!("#{:?}", id),
    };

    // Parameter leaves: group by ParamId.
    let mut leaves_of: Vec<(harp_tensor::ParamId, Vec<usize>)> = Vec::new();
    for node in tape.nodes() {
        let i = node.var.index();
        if !reaches_loss[i] {
            continue;
        }
        if let Some(id) = node.param {
            match leaves_of.iter_mut().find(|(p, _)| *p == id) {
                Some((_, v)) => v.push(i),
                None => leaves_of.push((id, vec![i])),
            }
        }
    }
    for (id, leaves) in &leaves_of {
        if leaves.len() > 1 {
            report.diagnostics.push(Diagnostic {
                severity: Severity::Info,
                code: "shared-param-fanin",
                node: Some(leaves[0]),
                message: format!(
                    "parameter {} is injected {} times (leaves {:?}); a partitioned \
                     backward needs a private buffer per partition, merged in fixed order",
                    param_name(*id),
                    leaves.len(),
                    leaves
                ),
            });
        }
        // Any two leaves of the same param in different sections alias the
        // same GradBuffer region.
        for (k, &a) in leaves.iter().enumerate() {
            for &b in &leaves[k + 1..] {
                if let (Some(sa), Some(sb)) = (section_of[a], section_of[b]) {
                    if sa != sb {
                        report.diagnostics.push(Diagnostic {
                            severity: Severity::Error,
                            code: "grad-alias",
                            node: Some(a),
                            message: format!(
                                "parameter {} gradient region is written by leaf #{a} \
                                 (section {sa}) and leaf #{b} (section {sb}), which run \
                                 concurrently",
                                param_name(*id)
                            ),
                        });
                    }
                }
            }
        }
    }

    // Cross-section gradient-accumulator writes: consumer c propagates
    // into input i across a section boundary.
    for node in tape.nodes() {
        let c = node.var.index();
        if !reaches_loss[c] {
            continue;
        }
        let Some(sc) = section_of[c] else { continue };
        for input in node.op.inputs() {
            let i = input.index();
            if !reaches_loss[i] {
                continue;
            }
            if let Some(si) = section_of[i] {
                if si != sc {
                    report.diagnostics.push(Diagnostic {
                        severity: Severity::Error,
                        code: "grad-alias",
                        node: Some(i),
                        message: format!(
                            "{} #{c} (section {sc}) writes the gradient accumulator of \
                             {} #{i} (section {si}) across the section boundary",
                            op_name(node.op),
                            op_name(tape.node(input).op)
                        ),
                    });
                }
            }
        }
    }

    report.diagnostics.sort_by_key(|d| (d.node, d.code));
    report
}

// ---------------------------------------------------------------------
// Pass 3: epoch-cache consistency lint
// ---------------------------------------------------------------------

/// Structurally prove that `precompute_epoch` + `forward_cached` covers
/// the same subgraph as the full forward.
///
/// Walks the two tapes backward from their output nodes in lockstep. The
/// cached tape may replace an arbitrary full-tape subgraph with a single
/// constant leaf holding the cached epoch table (`cache`), or — at a
/// full-tape `GatherRows` whose source is that subgraph — with a constant
/// leaf holding just the gathered rows (`Tape::constant_rows`), or — at a
/// full-tape `Affine` that only multiplies such a gather by a parameter's
/// first rows — with a constant leaf holding the projected rows; at each
/// splice point the full tape's corresponding value must equal the
/// spliced constant bitwise (`cache-divergence` otherwise). Everywhere
/// else the nodes must match exactly — op kind and metadata, shapes,
/// parameter provenance, and constant leaves bitwise
/// (`cache-structure-mismatch` otherwise).
///
/// Emits `cache-spliced` (Info) naming the splice node when the proof
/// found the cache in use, or `cache-unused` (Info) when the cached tape
/// never references the cache (a model using the default full-forward
/// `forward_cached`). Diagnostics anchor `node` to the *full* tape.
pub fn check_epoch_cache(
    full: &Tape,
    full_out: Var,
    cached: &Tape,
    cached_out: Var,
    cache: &[f32],
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

        // Splice point: a non-param constant leaf on the cached tape whose
        // value is (bitwise) the cached epoch table.
        if matches!(nb.op, Op::Leaf) && nb.param.is_none() && bits_eq(nb.value, cache) {
            splices.push((a.index(), b.index()));
            if !bits_eq(na.value, cache) {
                let why = first_diff(na.value, cache);
                report.diagnostics.push(Diagnostic {
                    severity: Severity::Error,
                    code: "cache-divergence",
                    node: Some(a.index()),
                    message: format!(
                        "cached epoch table diverges from the full forward's {} #{}: {why}",
                        op_name(na.op),
                        a.index()
                    ),
                });
            }
            continue; // the subgraph behind the splice is what the cache covers
        }

        // Row-wise splice point: the cached tape may instead gather rows of
        // the epoch table host-side and inject only those rows as a
        // constant leaf (`Tape::constant_rows`), never materializing the
        // full table. The corresponding full-tape node is then a
        // GatherRows whose *source* is the cached subgraph. The proof
        // obligations are the same, restricted to the gathered rows: the
        // gather's source must equal the cache and the leaf must equal the
        // gather's output, both bitwise.
        if matches!(nb.op, Op::Leaf) && nb.param.is_none() {
            if let Op::GatherRows(src, idx) = na.op {
                let rows = idx.len();
                let is_row_gather = rows > 0 && nb.value.len().is_multiple_of(rows) && {
                    let w = nb.value.len() / rows;
                    idx.iter().enumerate().all(|(i, &r)| {
                        cache
                            .get(r * w..r * w + w)
                            .is_some_and(|c| bits_eq(c, &nb.value[i * w..i * w + w]))
                    })
                };
                if is_row_gather {
                    splices.push((a.index(), b.index()));
                    let src_val = full.node(*src).value;
                    if !bits_eq(src_val, cache) {
                        let why = first_diff(src_val, cache);
                        report.diagnostics.push(Diagnostic {
                            severity: Severity::Error,
                            code: "cache-divergence",
                            node: Some(a.index()),
                            message: format!(
                                "cached epoch table diverges from the source of the full \
                                 forward's gather_rows #{}: {why}",
                                a.index()
                            ),
                        });
                    }
                    continue; // rows + the table subgraph are what the cache covers
                }
            }
        }

        // Projected splice point: the cached tape may go one step further
        // and inject those gathered rows *already multiplied* by the first
        // weight rows of the layer that consumes them — a constant leaf
        // standing for the full tape's `affine(gather_rows(<cached
        // subgraph>), <weight rows>)` with no bias, seed or activation.
        // Same two obligations: the gather's source must equal the cache
        // and the leaf must equal the product node, both bitwise.
        if matches!(nb.op, Op::Leaf) && nb.param.is_none() {
            if let Some(src) = projected_gather_source(full, na.op) {
                splices.push((a.index(), b.index()));
                let src_val = full.node(src).value;
                for (what, got, want) in [
                    ("the source of the gather under", src_val, cache),
                    ("the cached rows projected by", nb.value, na.value),
                ] {
                    if !bits_eq(got, want) {
                        report.diagnostics.push(Diagnostic {
                            severity: Severity::Error,
                            code: "cache-divergence",
                            node: Some(a.index()),
                            message: format!(
                                "cached epoch table diverges from {what} the full forward's \
                                 affine #{}: {}",
                                a.index(),
                                first_diff(got, want)
                            ),
                        });
                    }
                }
                continue; // product, rows and table subgraph are what the cache covers
            }
        }

        if let Err(why) = nodes_match(&na, &nb) {
            report.diagnostics.push(Diagnostic {
                severity: Severity::Error,
                code: "cache-structure-mismatch",
                node: Some(a.index()),
                message: format!(
                    "full forward {} #{} vs cached forward {} #{}: {why}",
                    op_name(na.op),
                    a.index(),
                    op_name(nb.op),
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
                "cached forward splices the epoch table at leaf #{b}, covering the \
                 full-forward subgraph rooted at node #{a} ({} element(s))",
                cache.len()
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

/// If `op` is a bare projection `gather_rows(src, _) · w[0..k]` of a
/// parameter `w` (an [`Op::Affine`] with no bias, seed or activation from
/// weight row 0), the gather's source.
fn projected_gather_source(tape: &Tape, op: &Op) -> Option<Var> {
    let Op::Affine {
        x,
        w,
        k0: 0,
        bias: None,
        init: None,
        act: harp_tensor::AffineAct::Identity,
    } = op
    else {
        return None;
    };
    match tape.node(*x).op {
        Op::GatherRows(src, _) if tape.node(*w).param.is_some() => Some(*src),
        _ => None,
    }
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
        (Elu(_, x), Elu(_, y)) => scalar(x, y, "elu alpha")?,
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

    fn two_leaf_tape() -> (Tape, Var, ParamStore) {
        let mut store = ParamStore::new();
        let w = store.register("w", vec![2], vec![0.5, -0.5]);
        let mut t = Tape::new();
        let w1 = t.param(&store, w);
        let x = t.constant(vec![2], vec![1.0, 2.0]);
        let y = t.mul(w1, x);
        let w2 = t.param(&store, w); // shared-parameter reuse
        let z = t.mul(w2, y);
        let loss = t.sum_all(z);
        (t, loss, store)
    }

    #[test]
    fn serial_schedule_has_no_aliasing() {
        let (t, loss, store) = two_leaf_tape();
        let all = 0..t.len();
        let report = analyze_grad_aliasing(&t, loss, Some(&store), std::slice::from_ref(&all));
        assert!(report.is_clean(), "{report}");
        assert!(report.has("shared-param-fanin"), "{report}");
    }

    #[test]
    fn split_param_leaves_alias_the_grad_buffer() {
        let (t, loss, store) = two_leaf_tape();
        // Leaves are at nodes 0 and 3; split between them.
        let report = analyze_grad_aliasing(&t, loss, Some(&store), &[0..3, 3..t.len()]);
        assert!(!report.is_clean(), "{report}");
        assert!(report.has("grad-alias"), "{report}");
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "grad-alias")
            .expect("grad-alias");
        assert!(
            d.message.contains("'w'"),
            "names the parameter: {}",
            d.message
        );
    }

    #[test]
    fn cross_section_gradient_edges_are_flagged() {
        let mut t = Tape::new();
        let x = t.constant(vec![2], vec![1.0, 2.0]);
        let y = t.mul_scalar(x, 2.0);
        let loss = t.sum_all(y);
        // y (node 1) in section 0, loss (node 2) in section 1: backward for
        // the loss writes y's accumulator across the boundary.
        let report = analyze_grad_aliasing(&t, loss, None, &[0..2, 2..3]);
        assert!(report.has("grad-alias"), "{report}");
    }

    #[test]
    fn overlapping_sections_are_rejected() {
        let (t, loss, store) = two_leaf_tape();
        let report = analyze_grad_aliasing(&t, loss, Some(&store), &[0..4, 3..t.len()]);
        assert!(report.has("invalid-sections"), "{report}");
    }

    /// Tiny stand-in for a split model: "epoch" part `e = w * base`,
    /// "head" part `out = sum(e + tm)`.
    fn full_forward(store: &ParamStore, w: harp_tensor::ParamId, tm: &[f32]) -> (Tape, Var, Var) {
        let mut t = Tape::new();
        let wv = t.param(store, w);
        let base = t.constant(vec![2], vec![10.0, 20.0]);
        let e = t.mul(wv, base); // the TM-independent "epoch" subgraph
        let tmv = t.constant(vec![2], tm.to_vec());
        let sum = t.add(e, tmv);
        let out = t.sum_all(sum);
        (t, out, e)
    }

    fn cached_forward(cache: &[f32], tm: &[f32], head_scale: Option<f32>) -> (Tape, Var) {
        let mut t = Tape::new();
        let e = t.constant(vec![2], cache.to_vec()); // splice
        let e = match head_scale {
            Some(c) => t.mul_scalar(e, c), // a head the full forward doesn't have
            None => e,
        };
        let tmv = t.constant(vec![2], tm.to_vec());
        let sum = t.add(e, tmv);
        let out = t.sum_all(sum);
        (t, out)
    }

    #[test]
    fn matching_cached_forward_proves_clean() {
        let mut store = ParamStore::new();
        let w = store.register("w", vec![2], vec![0.5, 2.0]);
        let tm = [1.0f32, 2.0];
        let (full, full_out, e) = full_forward(&store, w, &tm);
        let cache: Vec<f32> = full.value(e).to_vec();
        let (cached, cached_out) = cached_forward(&cache, &tm, None);
        let report = check_epoch_cache(&full, full_out, &cached, cached_out, &cache);
        assert!(report.is_clean(), "{report}");
        assert!(report.has("cache-spliced"), "{report}");
    }

    #[test]
    fn structural_mismatch_names_the_offending_op() {
        let mut store = ParamStore::new();
        let w = store.register("w", vec![2], vec![0.5, 2.0]);
        let tm = [1.0f32, 2.0];
        let (full, full_out, e) = full_forward(&store, w, &tm);
        let cache: Vec<f32> = full.value(e).to_vec();
        // The cached head sneaks in an extra mul_scalar the full forward
        // does not have: covered subgraphs differ.
        let (cached, cached_out) = cached_forward(&cache, &tm, Some(1.5));
        let report = check_epoch_cache(&full, full_out, &cached, cached_out, &cache);
        assert!(report.has("cache-structure-mismatch"), "{report}");
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "cache-structure-mismatch")
            .expect("mismatch");
        assert!(
            d.message.contains("mul_scalar") || d.message.contains("mul"),
            "names the op: {}",
            d.message
        );
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
    fn stale_cache_data_is_divergence() {
        let mut store = ParamStore::new();
        let w = store.register("w", vec![2], vec![0.5, 2.0]);
        let tm = [1.0f32, 2.0];
        let (full, full_out, e) = full_forward(&store, w, &tm);
        let mut cache: Vec<f32> = full.value(e).to_vec();
        cache[1] += 0.25; // stale table (e.g. computed from old params)
        let (cached, cached_out) = cached_forward(&cache, &tm, None);
        let report = check_epoch_cache(&full, full_out, &cached, cached_out, &cache);
        assert!(report.has("cache-divergence"), "{report}");
    }

    #[test]
    fn default_full_forward_reports_cache_unused() {
        let mut store = ParamStore::new();
        let w = store.register("w", vec![2], vec![0.5, 2.0]);
        let tm = [1.0f32, 2.0];
        let (full, full_out, e) = full_forward(&store, w, &tm);
        let cache: Vec<f32> = vec![123.0, 456.0]; // never spliced
        let (full2, full2_out, _) = full_forward(&store, w, &tm);
        let report = check_epoch_cache(&full, full_out, &full2, full2_out, &cache);
        let _ = e;
        assert!(report.is_clean(), "{report}");
        assert!(report.has("cache-unused"), "{report}");
    }
}
