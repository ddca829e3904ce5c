//! Evaluation: NormMLU against the optimal oracle, CDFs, percentiles and
//! boxplot statistics (the paper's reporting vocabulary).

use harp_tensor::ParamStore;

use crate::infer::run_inference;
use crate::{Instance, SplitModel};

/// Evaluation-time policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct EvalOptions {
    /// Apply the paper's *local rescaling* around fully-failed links (used
    /// for DOTE/TEAL/HARP-NoRAU; HARP runs without rescaling, §4).
    pub rescale_failed: bool,
    /// Capacity at or below this counts as a full failure.
    pub failed_threshold: f64,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            rescale_failed: false,
            failed_threshold: 1e-4,
        }
    }
}

impl EvalOptions {
    /// Options with local rescaling enabled.
    pub fn with_rescaling() -> Self {
        EvalOptions {
            rescale_failed: true,
            ..Default::default()
        }
    }
}

/// Run `model` on `instance` and return `(mlu, splits)` evaluated exactly
/// (f64 path program), applying rescaling if requested. Thin wrapper over
/// [`run_inference`](crate::run_inference), kept for the figure harness.
pub fn evaluate_model(
    model: &dyn SplitModel,
    store: &ParamStore,
    instance: &Instance,
    opts: EvalOptions,
) -> (f64, Vec<f64>) {
    let inf = run_inference(model, store, instance, opts);
    (inf.mlu, inf.splits)
}

/// NormMLU: the scheme's MLU over the optimal MLU, floored at 1 (tiny
/// solver gaps can otherwise make a scheme look "better than optimal").
pub fn norm_mlu(model_mlu: f64, optimal_mlu: f64) -> f64 {
    if optimal_mlu <= 0.0 {
        if model_mlu <= 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        (model_mlu / optimal_mlu).max(1.0)
    }
}

/// Sorted `(value, cumulative_fraction)` pairs for CDF plotting.
pub fn cdf_points(values: &[f64]) -> Vec<(f64, f64)> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len().max(1) as f64;
    v.into_iter()
        .enumerate()
        .map(|(i, x)| (x, (i + 1) as f64 / n))
        .collect()
}

/// The `p`-th percentile (0..=100) by linear interpolation, or `None` for
/// an empty input or a `p` outside `0..=100`.
///
/// Consumers that aggregate live measurement windows (the serve stats
/// endpoint, rolling latency reports) routinely see empty slices — an
/// empty window is "no data yet", not a caller bug, so this must not
/// panic.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if v.len() == 1 {
        return Some(v[0]);
    }
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        // no interpolation: `inf * 0.0` would turn an infinite value into NaN
        return Some(v[lo]);
    }
    let frac = pos - lo as f64;
    Some(v[lo] * (1.0 - frac) + v[hi] * frac)
}

/// Fraction of values `<= threshold` (e.g. "98% of snapshots are within
/// 1.11 of optimal").
pub fn fraction_at_most(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v <= threshold).count() as f64 / values.len() as f64
}

/// Five-number summary plus p90 (the paper's boxplots mark p90 with a
/// dashed line and run the top whisker to the max).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoxplotStats {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Maximum.
    pub max: f64,
}

/// Compute [`BoxplotStats`], or `None` for an empty input.
pub fn boxplot_stats(values: &[f64]) -> Option<BoxplotStats> {
    Some(BoxplotStats {
        min: percentile(values, 0.0)?,
        q1: percentile(values, 25.0)?,
        median: percentile(values, 50.0)?,
        q3: percentile(values, 75.0)?,
        p90: percentile(values, 90.0)?,
        max: percentile(values, 100.0)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_mlu_floors_at_one() {
        assert_eq!(norm_mlu(0.5, 1.0), 1.0);
        assert_eq!(norm_mlu(2.0, 1.0), 2.0);
        assert_eq!(norm_mlu(1.0, 0.0), f64::INFINITY);
        assert_eq!(norm_mlu(0.0, 0.0), 1.0);
    }

    #[test]
    fn cdf_is_monotone() {
        let pts = cdf_points(&[3.0, 1.0, 2.0]);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], (1.0, 1.0 / 3.0));
        assert_eq!(pts[2], (3.0, 1.0));
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert!((percentile(&v, 90.0).unwrap() - 4.6).abs() < 1e-12);
        let inf = f64::INFINITY;
        assert_eq!(percentile(&[1.0, inf], 100.0), Some(inf));
    }

    #[test]
    fn percentile_of_empty_or_out_of_range_is_none() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0], -0.1), None);
        assert_eq!(percentile(&[1.0], 100.1), None);
        assert_eq!(percentile(&[7.5], 50.0), Some(7.5));
        assert_eq!(boxplot_stats(&[]), None);
    }

    #[test]
    fn fraction_counts() {
        let v = [1.0, 1.05, 1.11, 1.5];
        assert_eq!(fraction_at_most(&v, 1.11), 0.75);
        assert_eq!(fraction_at_most(&[], 1.0), 0.0);
    }

    #[test]
    fn boxplot_summary() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let b = boxplot_stats(&v).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 100.0);
        assert!((b.median - 50.5).abs() < 1e-9);
        assert!(b.q1 < b.median && b.median < b.q3 && b.q3 < b.p90);
    }
}
