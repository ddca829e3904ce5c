//! Seeded-defect tests: one graph per defect class the analyzer must catch,
//! plus clean-graph tests proving it stays quiet on correct constructions.

use std::sync::Arc;

use harp_tensor::{AffineAct, ParamStore, Tape};
use harp_verify::{analyze, audit_reduction_order, Severity};

/// A correct little MLP-style graph: no errors, no hazard warnings.
#[test]
fn clean_graph_reports_nothing() {
    let mut store = ParamStore::new();
    let w = store.register("w", vec![2, 2], vec![0.1, -0.2, 0.3, 0.4]);
    let b = store.register("b", vec![2], vec![0.0, 0.1]);

    let mut tape = Tape::new();
    let x = tape.constant(vec![3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    let wv = tape.param(&store, w);
    let bv = tape.param(&store, b);
    let h = tape.matmul(x, wv);
    let h = tape.add_bias(h, bv);
    let h = tape.relu(h);
    let loss = tape.sum_all(h);

    let report = analyze(&tape, loss, Some(&store));
    assert!(report.is_clean(), "unexpected errors:\n{report}");
    assert_eq!(
        report.count(Severity::Warn),
        0,
        "unexpected warns:\n{report}"
    );
    assert_eq!(
        report.count(Severity::Info),
        0,
        "unexpected notes:\n{report}"
    );
}

#[test]
fn detects_shape_inconsistency() {
    let mut tape = Tape::new();
    let a = tape.constant(vec![2, 3], vec![1.0; 6]);
    let b = tape.constant(vec![3, 2], vec![1.0; 6]);
    let c = tape.matmul(a, b); // [2, 2]
    let loss = tape.sum_all(c);
    // simulate a buggy constructor recording the wrong output shape
    tape.corrupt_shape_for_test(c, vec![2, 3]);

    let report = analyze(&tape, loss, None);
    assert!(report.has("shape-mismatch"), "missed corruption:\n{report}");
    assert!(!report.is_clean());
}

#[test]
fn detects_structurally_invalid_op() {
    let mut tape = Tape::new();
    let a = tape.constant(vec![2, 3], vec![1.0; 6]);
    let b = tape.constant(vec![2, 3], vec![1.0; 6]);
    let c = tape.add(a, b);
    let loss = tape.sum_all(c);
    // make `b` incompatible after the fact: add now sees [2,3] + [3,2]
    tape.corrupt_shape_for_test(b, vec![3, 2]);

    let report = analyze(&tape, loss, None);
    assert!(report.has("invalid-op"), "missed invalidity:\n{report}");
}

/// The fused attention op through every pass: shapes re-inferred from its
/// three inputs, q/k/v all reachable backward, the output interval taken
/// from `v` (so a log of it is guarded exactly when `v` is positive and no
/// row can be fully masked), and a fixed reduction order.
#[test]
fn attention_op_is_understood_by_every_pass() {
    let mut store = ParamStore::new();
    let ids = ["q", "k"].map(|n| store.register(n, vec![2, 3, 4], vec![0.25; 24]));
    let build = |mask: Option<Arc<Vec<f32>>>| {
        let mut tape = Tape::new();
        let [q, k] = ids.map(|id| tape.param(&store, id));
        let v = tape.constant(vec![2, 3, 4], vec![0.5; 24]); // strictly positive
        let y = tape.attention(q, k, v, 0.5, mask);
        let l = tape.ln(y);
        let loss = tape.sum_all(l);
        (tape, y, loss)
    };

    let (tape, _, loss) = build(None);
    let report = analyze(&tape, loss, None);
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.count(Severity::Warn), 0, "{report}");
    assert!(audit_reduction_order(&tape).diagnostics.is_empty());

    // under a mask a row can come out all zero: the log is no longer guarded
    let (tape, _, loss) = build(Some(Arc::new(vec![1.0, 1.0, 0.0])));
    assert!(analyze(&tape, loss, None).has("unguarded-ln"));

    let (mut tape, y, loss) = build(None);
    tape.corrupt_shape_for_test(y, vec![2, 4, 3]);
    assert!(analyze(&tape, loss, None).has("shape-mismatch"));

    // v of another shape than q and k
    let mut tape = Tape::new();
    let q = tape.constant(vec![2, 3, 4], vec![0.1; 24]);
    let v = tape.constant(vec![2, 3, 4], vec![0.1; 24]);
    let y = tape.attention(q, q, v, 0.5, Some(Arc::new(vec![1.0; 3])));
    let loss = tape.sum_all(y);
    tape.corrupt_shape_for_test(v, vec![2, 4, 3]);
    assert!(analyze(&tape, loss, None).has("invalid-op"));
}

/// The fused affine op through every pass: shapes re-inferred from `x`,
/// the weight's row range and the optional bias and seed; `x`, the weight,
/// the bias and the seed's own inputs all reachable backward; the output
/// interval through bias, seed and activation (so a log of it is guarded
/// exactly when they keep it positive); and a fixed reduction order.
#[test]
fn affine_op_is_understood_by_every_pass() {
    let mut store = ParamStore::new();
    let x0 = store.register("x0", vec![3, 2], vec![0.5; 6]);
    let x = store.register("x", vec![3, 1], vec![0.25; 3]);
    let w = store.register("w", vec![3, 4], vec![0.1; 12]);
    let b = store.register("b", vec![4], vec![0.5; 4]);
    // parameters have no known range, so the interval checks use constants
    let build_from = |act: AffineAct, params: bool| {
        let mut tape = Tape::new();
        let [x0, x, w, b] = [x0, x, w, b].map(|id| {
            if params {
                tape.param(&store, id)
            } else {
                tape.constant(store.shape(id).0.clone(), store.data(id).to_vec())
            }
        });
        let seed = tape.affine(x0, w, 0, None, None, AffineAct::Identity);
        let y = tape.affine(x, w, 2, Some(b), Some(seed), act);
        let l = tape.ln(y);
        let loss = tape.sum_all(l);
        (tape, seed, y, loss)
    };
    let build = |act: AffineAct| build_from(act, false);

    // every parameter reaches the loss (an unreachable one is an error)
    let (tape, _, _, loss) = build_from(AffineAct::LeakyRelu(0.1), true);
    let report = analyze(&tape, loss, Some(&store));
    assert!(report.is_clean(), "{report}");
    assert!(audit_reduction_order(&tape).diagnostics.is_empty());

    // all inputs positive: the identity's output is, too
    let (tape, _, _, loss) = build(AffineAct::Identity);
    let report = analyze(&tape, loss, None);
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.count(Severity::Warn), 0, "{report}");

    // a negative seed pulls the pre-activation below zero: a ReLU's output
    // then reaches zero
    let mut tape = Tape::new();
    let x = tape.constant(vec![3, 1], vec![0.25; 3]);
    let w = tape.constant(vec![1, 4], vec![0.1; 4]);
    let seed = tape.constant(vec![3, 4], vec![-1.0; 12]);
    let y = tape.affine(x, w, 0, None, Some(seed), AffineAct::Relu);
    let l = tape.ln(y);
    let loss = tape.sum_all(l);
    assert!(analyze(&tape, loss, None).has("unguarded-ln"));

    let (mut tape, _, y, loss) = build(AffineAct::Identity);
    tape.corrupt_shape_for_test(y, vec![3, 5]);
    assert!(analyze(&tape, loss, None).has("shape-mismatch"));

    // a seed of another shape than the output
    let (mut tape, seed, _, loss) = build(AffineAct::Identity);
    tape.corrupt_shape_for_test(seed, vec![4, 3]);
    assert!(analyze(&tape, loss, None).has("invalid-op"));
}

#[test]
fn detects_unreachable_param() {
    let mut store = ParamStore::new();
    let w = store.register("w", vec![2], vec![0.5, 0.5]);
    let orphan = store.register("orphan", vec![2], vec![1.0, 1.0]);

    let mut tape = Tape::new();
    let wv = tape.param(&store, w);
    let ov = tape.param(&store, orphan);
    let x = tape.constant(vec![2], vec![1.0, 2.0]);
    let wx = tape.mul(wv, x);
    let loss = tape.sum_all(wx);
    // `ov` participates in a computation... that never reaches the loss
    let _dead = tape.mul_scalar(ov, 2.0);

    let report = analyze(&tape, loss, Some(&store));
    assert!(report.has("unreachable-param"), "missed orphan:\n{report}");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == "unreachable-param")
        .unwrap();
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("orphan"), "unnamed param: {}", d.message);
}

#[test]
fn notes_param_registered_but_never_injected() {
    let mut store = ParamStore::new();
    let w = store.register("w", vec![1], vec![2.0]);
    let _unused = store.register("never_injected", vec![1], vec![0.0]);

    let mut tape = Tape::new();
    let wv = tape.param(&store, w);
    let loss = tape.sum_all(wv);

    let report = analyze(&tape, loss, Some(&store));
    assert!(report.is_clean(), "{report}");
    assert!(report.has("param-not-injected"), "{report}");
}

#[test]
fn detects_dead_subgraph() {
    let mut tape = Tape::new();
    let x = tape.constant(vec![4], vec![1.0, 2.0, 3.0, 4.0]);
    let live = tape.mul_scalar(x, 2.0);
    let loss = tape.sum_all(live);
    // a three-node cone nothing consumes
    let d1 = tape.add_scalar(x, 1.0);
    let d2 = tape.relu(d1);
    let _d3 = tape.sum_all(d2);

    let report = analyze(&tape, loss, None);
    assert!(report.has("dead-subgraph"), "missed dead cone:\n{report}");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == "dead-subgraph")
        .unwrap();
    // the root reports its dead cone: sum_all + relu + add_scalar
    assert!(d.message.contains("2 upstream"), "message: {}", d.message);
    // dead code is waste, not unsoundness
    assert_eq!(d.severity, Severity::Warn);
    assert!(report.is_clean());
}

#[test]
fn detects_non_finite_constant() {
    let mut tape = Tape::new();
    let bad = tape.constant(vec![3], vec![1.0, f32::NAN, 3.0]);
    let s = tape.mul_scalar(bad, 2.0);
    let loss = tape.sum_all(s);

    let report = analyze(&tape, loss, None);
    assert!(report.has("non-finite-constant"), "missed NaN:\n{report}");
    assert!(!report.is_clean());

    let mut tape = Tape::new();
    let inf = tape.scalar(f32::INFINITY);
    let loss = tape.sum_all(inf);
    let report = analyze(&tape, loss, None);
    assert!(report.has("non-finite-constant"), "missed inf:\n{report}");
}

#[test]
fn detects_unguarded_ln_and_guard_silences_it() {
    let mut store = ParamStore::new();
    let w = store.register("w", vec![2], vec![0.5, 0.5]);

    // unguarded: ln of a raw parameter (range is the whole line)
    let mut tape = Tape::new();
    let wv = tape.param(&store, w);
    let l = tape.ln(wv);
    let loss = tape.sum_all(l);
    let report = analyze(&tape, loss, Some(&store));
    assert!(report.has("unguarded-ln"), "missed hazard:\n{report}");

    // guarded: tanh -> (-1,1), plus 1 + epsilon -> provably positive
    let mut tape = Tape::new();
    let wv = tape.param(&store, w);
    let pos = tape.tanh(wv);
    let pos = tape.add_scalar(pos, 1.001);
    let l = tape.ln(pos);
    let loss = tape.sum_all(l);
    let report = analyze(&tape, loss, Some(&store));
    assert!(!report.has("unguarded-ln"), "false positive:\n{report}");
}

#[test]
fn detects_non_scalar_loss() {
    let mut tape = Tape::new();
    let x = tape.constant(vec![3], vec![1.0, 2.0, 3.0]);
    let y = tape.mul_scalar(x, 2.0);
    let report = analyze(&tape, y, None);
    assert!(report.has("non-scalar-loss"), "{report}");
}

#[test]
fn report_summary_is_ordered_and_counted() {
    let mut tape = Tape::new();
    let nan = tape.constant(vec![1], vec![f32::NAN]);
    let loss = tape.sum_all(nan);
    let _dead = tape.scalar(1.0);
    let report = analyze(&tape, loss, None);

    let s = report.summary();
    assert!(s.contains("error(s)"), "{s}");
    // errors print before warnings
    let e = s.find("non-finite-constant").unwrap();
    let w = s.find("dead-subgraph").unwrap();
    assert!(e < w, "{s}");
}
