//! Dense traffic matrices.

/// A dense `n x n` traffic matrix: `demand(s, t)` is the offered load from
/// node `s` to node `t` (diagonal is ignored and kept at zero).
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficMatrix {
    n: usize,
    data: Vec<f64>,
}

impl TrafficMatrix {
    /// An all-zero matrix over `n` nodes.
    pub fn zeros(n: usize) -> Self {
        TrafficMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Build from a dense row-major buffer of length `n * n`.
    pub fn from_dense(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n, "traffic matrix size");
        assert!(
            data.iter().all(|d| d.is_finite() && *d >= 0.0),
            "demands must be finite and nonnegative"
        );
        let mut tm = TrafficMatrix { n, data };
        for i in 0..n {
            tm.data[i * n + i] = 0.0;
        }
        tm
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Demand from `s` to `t`.
    pub fn demand(&self, s: usize, t: usize) -> f64 {
        self.data[s * self.n + t]
    }

    /// Set the demand from `s` to `t` (self-demand is silently dropped).
    pub fn set_demand(&mut self, s: usize, t: usize, d: f64) {
        assert!(d.is_finite() && d >= 0.0, "demand must be >= 0, got {d}");
        if s != t {
            self.data[s * self.n + t] = d;
        }
    }

    /// Raw row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Sum of all demands.
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// The transposed matrix (demand of `(s,t)` and `(t,s)` swapped) — the
    /// transformation discussed in §2.2.
    pub fn transpose(&self) -> TrafficMatrix {
        let mut out = TrafficMatrix::zeros(self.n);
        for s in 0..self.n {
            for t in 0..self.n {
                out.data[t * self.n + s] = self.data[s * self.n + t];
            }
        }
        out
    }

    /// Relabel nodes: node `i` becomes `perm[i]`.
    pub fn permute(&self, perm: &[usize]) -> TrafficMatrix {
        assert_eq!(perm.len(), self.n, "permutation length");
        let mut out = TrafficMatrix::zeros(self.n);
        for s in 0..self.n {
            for t in 0..self.n {
                out.data[perm[s] * self.n + perm[t]] = self.data[s * self.n + t];
            }
        }
        out
    }

    /// Multiply every demand by `factor`.
    pub fn scaled(&self, factor: f64) -> TrafficMatrix {
        assert!(factor >= 0.0 && factor.is_finite());
        TrafficMatrix {
            n: self.n,
            data: self.data.iter().map(|d| d * factor).collect(),
        }
    }

    /// Elementwise maximum with zero of `self - other` ... no: absolute
    /// relative error `|self - other| / max(self, floor)` averaged over
    /// cells with demand above `floor`. Used to score predictors.
    pub fn mean_relative_error(&self, other: &TrafficMatrix, floor: f64) -> f64 {
        assert_eq!(self.n, other.n);
        let mut sum = 0.0;
        let mut cnt = 0usize;
        for (a, b) in self.data.iter().zip(&other.data) {
            if *a > floor {
                sum += (a - b).abs() / a;
                cnt += 1;
            }
        }
        if cnt == 0 {
            0.0
        } else {
            sum / cnt as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut tm = TrafficMatrix::zeros(3);
        tm.set_demand(0, 1, 5.0);
        tm.set_demand(1, 2, 3.0);
        tm.set_demand(2, 2, 9.0); // dropped
        assert_eq!(tm.demand(0, 1), 5.0);
        assert_eq!(tm.demand(2, 2), 0.0);
        assert_eq!(tm.total(), 8.0);
    }

    #[test]
    fn transpose_swaps() {
        let mut tm = TrafficMatrix::zeros(2);
        tm.set_demand(0, 1, 7.0);
        let t = tm.transpose();
        assert_eq!(t.demand(1, 0), 7.0);
        assert_eq!(t.demand(0, 1), 0.0);
        // double transpose is identity
        assert_eq!(t.transpose(), tm);
    }

    #[test]
    fn permute_consistent_with_transpose() {
        let mut tm = TrafficMatrix::zeros(3);
        tm.set_demand(0, 1, 1.0);
        tm.set_demand(1, 2, 2.0);
        let perm = vec![2, 0, 1];
        let p = tm.permute(&perm);
        assert_eq!(p.demand(2, 0), 1.0);
        assert_eq!(p.demand(0, 1), 2.0);
        assert_eq!(p.total(), tm.total());
    }

    #[test]
    fn from_dense_zeroes_diagonal() {
        let tm = TrafficMatrix::from_dense(2, vec![9.0, 1.0, 2.0, 9.0]);
        assert_eq!(tm.demand(0, 0), 0.0);
        assert_eq!(tm.demand(1, 1), 0.0);
        assert_eq!(tm.demand(0, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn rejects_negative() {
        TrafficMatrix::from_dense(2, vec![0.0, -1.0, 0.0, 0.0]);
    }

    #[test]
    fn relative_error() {
        let a = TrafficMatrix::from_dense(2, vec![0.0, 10.0, 20.0, 0.0]);
        let b = TrafficMatrix::from_dense(2, vec![0.0, 11.0, 18.0, 0.0]);
        let e = a.mean_relative_error(&b, 1e-9);
        assert!((e - 0.1).abs() < 1e-9);
    }
}
