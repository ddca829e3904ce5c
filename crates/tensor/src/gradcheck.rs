//! Numerical gradient checking.
//!
//! Verifies analytic gradients against central finite differences. Used
//! heavily by the test-suites of this crate and `harp-nn` to certify every
//! op's backward pass, and exported so downstream model code can gradcheck
//! end-to-end forward functions.

use crate::param::{ParamId, ParamStore};
use crate::tape::{Tape, Var};

/// Result of a gradient check: the worst relative error seen and where.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Largest relative error across all checked coordinates.
    pub max_rel_err: f64,
    /// `(param index, coordinate)` where it occurred.
    pub worst: (usize, usize),
    /// Number of coordinates compared.
    pub checked: usize,
}

/// Check the analytic gradient of a scalar function of the parameters in
/// `store` against central finite differences.
///
/// `f` must build a fresh graph from the store each call and return the
/// scalar loss node along with the tape. `eps` is the finite-difference
/// step (1e-2..1e-3 works well in f32); `tol` the allowed relative error.
///
/// Returns `Ok(report)` when all coordinates pass, `Err(report)` otherwise.
/// The relative error uses an absolute floor so near-zero gradients don't
/// blow up the ratio.
pub fn gradcheck<F>(
    store: &mut ParamStore,
    ids: &[ParamId],
    eps: f32,
    tol: f64,
    mut f: F,
) -> Result<GradCheckReport, GradCheckReport>
where
    F: FnMut(&ParamStore) -> (Tape, Var),
{
    store.zero_grads();
    let (tape, loss) = f(store);
    tape.backward(loss, store);
    let analytic: Vec<Vec<f32>> = ids.iter().map(|&id| store.grad(id).to_vec()).collect();

    let mut report = GradCheckReport {
        max_rel_err: 0.0,
        worst: (0, 0),
        checked: 0,
    };

    for (pi, &id) in ids.iter().enumerate() {
        let n = store.data(id).len();
        for c in 0..n {
            let orig = store.data(id)[c];

            store.data_mut(id)[c] = orig + eps;
            let (tp, lp) = f(store);
            let fp = tp.scalar_value(lp) as f64;

            store.data_mut(id)[c] = orig - eps;
            let (tm, lm) = f(store);
            let fm = tm.scalar_value(lm) as f64;

            store.data_mut(id)[c] = orig;

            let numeric = (fp - fm) / (2.0 * eps as f64);
            let a = analytic[pi][c] as f64;
            let denom = a.abs().max(numeric.abs()).max(1e-3);
            let rel = (a - numeric).abs() / denom;
            report.checked += 1;
            if rel > report.max_rel_err {
                report.max_rel_err = rel;
                report.worst = (pi, c);
            }
        }
    }

    if report.max_rel_err <= tol {
        Ok(report)
    } else {
        Err(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn seeded_data(n: usize, seed: u64) -> Vec<f32> {
        // Small deterministic pseudo-random values without external deps.
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x % 2000) as f32 / 1000.0) - 1.0
            })
            .collect()
    }

    fn check<F>(params: Vec<(&str, Vec<usize>)>, f: F)
    where
        F: FnMut(&ParamStore) -> (Tape, Var),
    {
        let mut store = ParamStore::new();
        let ids: Vec<ParamId> = params
            .iter()
            .enumerate()
            .map(|(i, (name, shape))| {
                let n: usize = shape.iter().product();
                store.register(name, shape.clone(), seeded_data(n, i as u64 + 1))
            })
            .collect();
        let res = gradcheck(&mut store, &ids, 1e-2, 2e-2, f);
        if let Err(r) = res {
            panic!("gradcheck failed: {:?}", r);
        }
    }

    #[test]
    fn gc_elementwise_chain() {
        check(vec![("a", vec![6]), ("b", vec![6])], |s| {
            let mut t = Tape::new();
            let a = t.param(s, ParamId(0));
            let b = t.param(s, ParamId(1));
            let m = t.mul(a, b);
            let e = t.tanh(m);
            let nb = t.mul_scalar(b, -1.0);
            let d = t.add(e, nb);
            let sq = t.mul(d, d);
            let l = t.sum_all(sq);
            (t, l)
        });
    }

    #[test]
    fn gc_matmul_bias_relu() {
        check(
            vec![("x", vec![3, 4]), ("w", vec![4, 2]), ("b", vec![2])],
            |s| {
                let mut t = Tape::new();
                let x = t.param(s, ParamId(0));
                let w = t.param(s, ParamId(1));
                let b = t.param(s, ParamId(2));
                let y = t.matmul(x, w);
                let y = t.add_bias(y, b);
                let y = t.leaky_relu(y, 0.1);
                let l = t.sum_all(y);
                (t, l)
            },
        );
    }

    #[test]
    fn gc_softmax_last_dim() {
        check(vec![("x", vec![2, 5])], |s| {
            let mut t = Tape::new();
            let x = t.param(s, ParamId(0));
            let y = t.softmax_last_dim(x, None);
            let c = t.constant(vec![2, 5], (0..10).map(|i| (i as f32) / 10.0).collect());
            let p = t.mul(y, c);
            let l = t.sum_all(p);
            (t, l)
        });
    }

    #[test]
    fn gc_masked_softmax() {
        let mask = Arc::new(vec![1.0f32, 1.0, 0.0, 1.0]);
        check(vec![("x", vec![3, 4])], move |s| {
            let mut t = Tape::new();
            let x = t.param(s, ParamId(0));
            let y = t.softmax_last_dim(x, Some(mask.clone()));
            let c = t.constant(vec![3, 4], (0..12).map(|i| (i as f32) / 6.0).collect());
            let p = t.mul(y, c);
            let l = t.sum_all(p);
            (t, l)
        });
    }

    #[test]
    fn gc_segment_softmax_sum() {
        let seg = Arc::new(vec![0usize, 0, 1, 1, 1, 2]);
        check(vec![("x", vec![6])], move |s| {
            let mut t = Tape::new();
            let x = t.param(s, ParamId(0));
            let y = t.segment_softmax(x, seg.clone(), 3);
            let c = t.constant(vec![6], vec![0.1, 0.9, 0.3, 0.5, 0.2, 0.7]);
            let p = t.mul(y, c);
            let ss = t.segment_sum(p, seg.clone(), 3);
            let l = t.sum_all(ss);
            (t, l)
        });
    }

    #[test]
    fn gc_layer_norm() {
        check(vec![("x", vec![2, 6])], |s| {
            let mut t = Tape::new();
            let x = t.param(s, ParamId(0));
            let y = t.layer_norm(x, 1e-5);
            let c = t.constant(vec![2, 6], (0..12).map(|i| 0.05 * i as f32).collect());
            let p = t.mul(y, c);
            let l = t.sum_all(p);
            (t, l)
        });
    }

    #[test]
    fn gc_batch_matmul_transpose() {
        check(vec![("q", vec![2, 3, 4]), ("k", vec![2, 3, 4])], |s| {
            let mut t = Tape::new();
            let q = t.param(s, ParamId(0));
            let k = t.param(s, ParamId(1));
            let kt = t.transpose_last2(k);
            let scores = t.batch_matmul(q, kt);
            let att = t.softmax_last_dim(scores, None);
            let out = t.batch_matmul(att, k);
            let l = t.sum_all(out);
            (t, l)
        });
    }

    #[test]
    fn gc_gather_concat() {
        check(vec![("x", vec![4, 3])], |s| {
            let mut t = Tape::new();
            let x = t.param(s, ParamId(0));
            let g = t.gather_rows(x, Arc::new(vec![0, 2, 2, 3]));
            let cc = t.concat_cols(&[x, g]);
            let l = t.sum_all(cc);
            (t, l)
        });
    }

    #[test]
    fn gc_ln_recip() {
        check(vec![("x", vec![5])], |s| {
            let mut t = Tape::new();
            let x = t.param(s, ParamId(0));
            // keep strictly positive for ln: tanh + 1.5
            let p = t.tanh(x);
            let p = t.add_scalar(p, 1.5);
            let lg = t.ln(p);
            let r = t.recip(p, 1e-6);
            let b = t.mul(lg, r);
            let l = t.sum_all(b);
            (t, l)
        });
    }

    #[test]
    fn gc_segment_max_away_from_ties() {
        // Values well separated so the finite-difference step cannot flip
        // the argmax (max is piecewise linear).
        let mut store = ParamStore::new();
        let id = store.register("x", vec![5], vec![0.1, 0.9, 0.3, 1.4, 0.2]);
        let seg = Arc::new(vec![0usize, 0, 1, 1, 1]);
        let res = gradcheck(&mut store, &[id], 1e-3, 1e-2, move |s| {
            let mut t = Tape::new();
            let x = t.param(s, ParamId(0));
            let m = t.segment_max(x, seg.clone(), 2);
            let l = t.sum_all(m);
            (t, l)
        });
        assert!(res.is_ok(), "{:?}", res);
    }

    #[test]
    fn gc_mul_row() {
        check(vec![("x", vec![3, 4]), ("r", vec![4])], |s| {
            let mut t = Tape::new();
            let x = t.param(s, ParamId(0));
            let r = t.param(s, ParamId(1));
            let m = t.mul_row(x, r);
            let l = t.sum_all(m);
            (t, l)
        });
    }

    #[test]
    fn gc_broadcast_scalar_chain() {
        check(vec![("x", vec![4]), ("s", vec![1])], |s| {
            let mut t = Tape::new();
            let x = t.param(s, ParamId(0));
            let sc = t.param(s, ParamId(1));
            let b = t.broadcast_scalar(sc, 4);
            let y = t.mul(x, b);
            let e = t.tanh(y);
            let l = t.sum_all(e);
            (t, l)
        });
    }
}
