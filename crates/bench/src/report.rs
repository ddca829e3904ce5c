//! Terminal reporting and JSON helpers.

use harp_core::{fraction_at_most, percentile};

/// Print a section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Print a CDF summary line for a NormMLU distribution, mirroring how the
/// paper quotes its CDFs (median / p90 / p98 / p99.9 / max, plus the
/// fraction within 1.10 of optimal).
pub fn normmlu_summary(label: &str, values: &[f64]) {
    if values.is_empty() {
        println!("  {label:<14} (no data)");
        return;
    }
    // non-empty (guarded above), so every percentile is Some
    let pct = |p: f64| percentile(values, p).unwrap_or(f64::NAN);
    println!(
        "  {label:<14} n={:<6} median={:.3} p90={:.3} p98={:.3} p99.9={:.3} max={:.3}  frac<=1.10: {:.1}%",
        values.len(),
        pct(50.0),
        pct(90.0),
        pct(98.0),
        pct(99.9),
        pct(100.0),
        100.0 * fraction_at_most(values, 1.10),
    );
}

/// Downsampled CDF points as JSON (at most `max_points`).
pub fn cdf_json(values: &[f64], max_points: usize) -> serde_json::Value {
    let pts = harp_core::cdf_points(values);
    let stride = (pts.len() / max_points.max(1)).max(1);
    let sampled: Vec<serde_json::Value> = pts
        .iter()
        .step_by(stride)
        .chain(pts.last())
        .map(|(v, f)| serde_json::json!([v, f]))
        .collect();
    serde_json::Value::Array(sampled)
}

/// Summary statistics as JSON.
pub fn stats_json(values: &[f64]) -> serde_json::Value {
    if values.is_empty() {
        return serde_json::json!({ "n": 0 });
    }
    // non-empty (guarded above), so every percentile is Some
    let pct = |p: f64| percentile(values, p).unwrap_or(f64::NAN);
    serde_json::json!({
        "n": values.len(),
        "median": pct(50.0),
        "p90": pct(90.0),
        "p98": pct(98.0),
        "p999": pct(99.9),
        "max": pct(100.0),
        "mean": values.iter().sum::<f64>() / values.len() as f64,
        "frac_within_1_10": fraction_at_most(values, 1.10),
        "frac_within_1_11": fraction_at_most(values, 1.11),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_json_downsamples_and_keeps_last() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let json = cdf_json(&values, 50);
        let arr = json.as_array().unwrap();
        assert!(arr.len() <= 52);
        let last = arr.last().unwrap().as_array().unwrap();
        assert_eq!(last[0].as_f64().unwrap(), 999.0);
        assert!((last[1].as_f64().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stats_json_fields() {
        let v = vec![1.0, 1.05, 1.2, 2.0];
        let s = stats_json(&v);
        assert_eq!(s["n"], 4);
        assert!(s["median"].as_f64().unwrap() > 1.0);
        assert!((s["frac_within_1_10"].as_f64().unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(stats_json(&[])["n"], 0);
    }
}
