//! The analyzer: one forward sweep (shape re-inference, value intervals,
//! non-finite scan, numerical-hazard lints) plus one backward sweep
//! (gradient reachability, dead-subgraph detection) over a recorded tape.

use harp_tensor::{Op, ParamStore, Shape, Tape, Var};

use crate::interval::Interval;
use crate::report::{Diagnostic, GraphReport, Severity};
use crate::shapes::infer_shape;

/// Statically analyze the graph that computes `loss` on `tape`.
///
/// Pass the model's `ParamStore` to get named parameters in diagnostics and
/// the params-never-injected check; pass `None` to analyze a store-less
/// graph. Runs in O(nodes + edges): a forward sweep then a backward sweep.
pub fn analyze(tape: &Tape, loss: Var, store: Option<&ParamStore>) -> GraphReport {
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

    // ---------------- forward sweep ----------------
    let mut shapes: Vec<Shape> = Vec::with_capacity(n);
    let mut ivs: Vec<Interval> = Vec::with_capacity(n);

    for node in tape.nodes() {
        let i = node.var.index();
        let input_shapes: Vec<&Shape> = node
            .op
            .inputs()
            .iter()
            .map(|v| &shapes[v.index()])
            .collect();

        // 1. independent shape re-inference vs the recorded shape
        match infer_shape(&node, &input_shapes) {
            Err(msg) => report.diagnostics.push(Diagnostic {
                severity: Severity::Error,
                code: "invalid-op",
                node: Some(i),
                message: format!("structurally invalid {}: {msg}", node.op.kind()),
            }),
            Ok(Some(inferred)) if &inferred != node.shape => {
                report.diagnostics.push(Diagnostic {
                    severity: Severity::Error,
                    code: "shape-mismatch",
                    node: Some(i),
                    message: format!(
                        "{} records shape {:?} but inputs imply {:?}",
                        node.op.kind(),
                        node.shape,
                        inferred
                    ),
                });
            }
            Ok(_) => {}
        }
        if node.shape.numel() != node.value.len() {
            report.diagnostics.push(Diagnostic {
                severity: Severity::Error,
                code: "shape-mismatch",
                node: Some(i),
                message: format!(
                    "shape {:?} implies {} elements but the value buffer holds {}",
                    node.shape,
                    node.shape.numel(),
                    node.value.len()
                ),
            });
        }
        shapes.push(node.shape.clone());

        // 2. non-finite values
        if let Some(bad) = node.value.iter().position(|x| !x.is_finite()) {
            if matches!(node.op, Op::Leaf) {
                report.diagnostics.push(Diagnostic {
                    severity: Severity::Error,
                    code: "non-finite-constant",
                    node: Some(i),
                    message: format!(
                        "{} contains {} at flat index {bad}",
                        leaf_name(tape, node.var, store),
                        node.value[bad]
                    ),
                });
            } else {
                report.diagnostics.push(Diagnostic {
                    severity: Severity::Warn,
                    code: "non-finite-value",
                    node: Some(i),
                    message: format!(
                        "{} computed {} at flat index {bad} in the forward pass",
                        node.op.kind(),
                        node.value[bad]
                    ),
                });
            }
        }

        // 3. interval propagation + hazard lints
        let iv = transfer(tape, &node.var, node.op, &ivs, node.value, &mut report);
        ivs.push(iv);
    }

    // 4. loss must be a scalar for backward to be meaningful
    if shapes[loss.index()].numel() != 1 {
        report.diagnostics.push(Diagnostic {
            severity: Severity::Error,
            code: "non-scalar-loss",
            node: Some(loss.index()),
            message: format!(
                "loss has shape {:?}; backward needs a single scalar",
                shapes[loss.index()]
            ),
        });
    }

    // ---------------- backward sweep ----------------
    // `reaches_loss[i]`: node i is the loss or one of its ancestors, i.e.
    // gradients flow back into it.
    let mut reaches_loss = vec![false; n];
    reaches_loss[loss.index()] = true;
    // `consumed[i]`: node i is an input of some later node.
    let mut consumed = vec![false; n];
    for node in tape.nodes().collect::<Vec<_>>().into_iter().rev() {
        let i = node.var.index();
        for input in node.op.inputs() {
            consumed[input.index()] = true;
            if reaches_loss[i] {
                reaches_loss[input.index()] = true;
            }
        }
    }

    // 5. every parameter injected on the tape must receive gradient
    let mut injected: Vec<harp_tensor::ParamId> = Vec::new();
    for node in tape.nodes() {
        if let Some(id) = node.param {
            injected.push(id);
            if !reaches_loss[node.var.index()] {
                report.diagnostics.push(Diagnostic {
                    severity: Severity::Error,
                    code: "unreachable-param",
                    node: Some(node.var.index()),
                    message: format!(
                        "{} is injected but not reachable backward from the loss; \
                         its gradient will silently stay zero",
                        leaf_name(tape, node.var, store)
                    ),
                });
            }
        }
    }
    if let Some(store) = store {
        for id in store.ids() {
            if !injected.contains(&id) {
                report.diagnostics.push(Diagnostic {
                    severity: Severity::Info,
                    code: "param-not-injected",
                    node: None,
                    message: format!(
                        "parameter '{}' is registered in the store but never \
                         injected on this tape",
                        store.name(id)
                    ),
                });
            }
        }
    }

    // 6. dead subgraphs: report each dead *root* (a node nothing consumes
    // and that is not the loss) once, with the size of its dead cone.
    for node in tape.nodes() {
        let i = node.var.index();
        if !reaches_loss[i] && !consumed[i] {
            let cone = dead_cone_size(tape, node.var, &reaches_loss);
            report.diagnostics.push(Diagnostic {
                severity: Severity::Warn,
                code: "dead-subgraph",
                node: Some(i),
                message: format!(
                    "{} (and {} upstream node(s)) contribute(s) nothing to the loss",
                    node.op.kind(),
                    cone.saturating_sub(1)
                ),
            });
        }
    }

    report.diagnostics.sort_by_key(|d| (d.node, d.code));
    report
}

/// Number of ancestors of `root` (including itself) that do not reach the
/// loss — the work wasted recording this dead subgraph.
fn dead_cone_size(tape: &Tape, root: Var, reaches_loss: &[bool]) -> usize {
    let mut seen = vec![false; tape.len()];
    let mut stack = vec![root];
    let mut count = 0usize;
    while let Some(v) = stack.pop() {
        let i = v.index();
        if seen[i] || reaches_loss[i] {
            continue;
        }
        seen[i] = true;
        count += 1;
        stack.extend(tape.node(v).op.inputs());
    }
    count
}

/// Interval transfer function for one node, emitting hazard lints as a side
/// effect.
fn transfer(
    tape: &Tape,
    var: &Var,
    op: &Op,
    ivs: &[Interval],
    value: &[f32],
    report: &mut GraphReport,
) -> Interval {
    use Op::*;
    let iv = |v: &Var| ivs[v.index()];
    let i = var.index();
    let mut warn = |code: &'static str, message: String| {
        report.diagnostics.push(Diagnostic {
            severity: Severity::Warn,
            code,
            node: Some(i),
            message,
        });
    };
    match op {
        Leaf => {
            if tape.param_of(*var).is_some() {
                // training can move a parameter anywhere
                Interval::unbounded()
            } else {
                Interval::of_values(value)
            }
        }
        Add(a, b) => iv(a) + iv(b),
        Mul(a, b) => iv(a) * iv(b),
        Ln(a) => {
            if iv(a).lo <= 0.0 {
                warn(
                    "unguarded-ln",
                    format!(
                        "ln of range [{:.3e}, {:.3e}] which reaches {}; add an \
                         epsilon before the log",
                        iv(a).lo,
                        iv(a).hi,
                        if iv(a).contains_zero() || iv(a).hi < 0.0 {
                            "zero or below"
                        } else {
                            "non-positive values"
                        }
                    ),
                );
            }
            iv(a).ln()
        }
        Relu(a) => iv(a).relu(),
        LeakyRelu(a, alpha) => iv(a).leaky_relu(*alpha as f64),
        Tanh(a) => iv(a).tanh(),
        MulScalar(a, c) => iv(a).scale(*c as f64),
        AddScalar(a, c) => iv(a).shift(*c as f64),
        Recip(a, eps) => iv(a).recip(*eps as f64),
        AddBias(a, b) => iv(a) + iv(b),
        MulRow(a, b) => iv(a) * iv(b),
        BroadcastScalar(a, _) => iv(a),
        MatMul(a, b) => {
            let k = inner_dim(tape, a);
            (iv(a) * iv(b)).sum_of(k)
        }
        Affine {
            x,
            w,
            bias,
            init,
            act,
            ..
        } => {
            // the whole weight's range bounds any row range of it
            let mut pre = (iv(x) * iv(w)).sum_of(inner_dim(tape, x));
            for extra in [bias, init].into_iter().flatten() {
                pre = pre + iv(extra);
            }
            match act {
                harp_tensor::AffineAct::Identity => pre,
                harp_tensor::AffineAct::Relu => pre.relu(),
                harp_tensor::AffineAct::LeakyRelu(alpha) => pre.leaky_relu(*alpha as f64),
            }
        }
        BatchMatMul(a, b) => {
            let k = tape.shape(*a).last_dim();
            (iv(a) * iv(b)).sum_of(k)
        }
        // Each output element is a softmax-weighted mean of `v` entries;
        // a fully masked row weighs them all 0 and yields 0.
        Attention(_, _, v, _, None) => iv(v),
        Attention(_, _, v, _, Some(_)) => iv(v).hull(Interval::point(0.0)),
        TransposeLast2(a) | Reshape(a) | GatherRows(a, _) => iv(a),
        ConcatCols(vs) | ConcatRows(vs) => vs
            .iter()
            .map(&iv)
            .reduce(Interval::hull)
            .unwrap_or_else(Interval::unbounded),
        SumAll(a) => iv(a).sum_of(tape.shape(*a).numel()),
        MaxAll(a) | SegmentMax(a, _, _) => iv(a),
        SegmentSum(a, seg, _) => iv(a).sum_of(seg.len()),
        SegmentSoftmax(_, _, _) | SoftmaxLastDim(_, _) => Interval::new(0.0, 1.0),
        LayerNorm(a, _) => {
            // normalized rows are bounded by sqrt(w) in magnitude, but the
            // cheap sound bound is enough for hazard detection
            let _ = a;
            let w = tape.shape(*var).last_dim() as f64;
            Interval::new(-w.sqrt(), w.sqrt())
        }
    }
}

fn inner_dim(tape: &Tape, a: &Var) -> usize {
    tape.shape(*a).last_dim()
}

/// Short name of a leaf for diagnostics: the parameter name when the leaf
/// has provenance, otherwise "constant #i".
fn leaf_name(tape: &Tape, v: Var, store: Option<&ParamStore>) -> String {
    match (tape.param_of(v), store) {
        (Some(id), Some(s)) => format!("parameter '{}'", s.name(id)),
        (Some(_), None) => format!("parameter leaf #{}", v.index()),
        _ => format!("constant #{}", v.index()),
    }
}
