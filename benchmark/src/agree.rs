//! `--agree`: run every workload twice, back to back, each run in a process
//! of its own, and fail if any end-to-end metric of the second run is worse
//! than the first by more than the bound `BENCHMARK.json` fixes for it. A
//! benchmark that cannot agree with itself cannot judge a change.
//!
//! It also makes one traced run of each workload whose latency budget must
//! close (`serve_steady`, `train_geant`) and fails if the layers do not sum
//! to the untraced op within [`Budget::LIMIT`].

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

use crate::layers::Budget;
use crate::{Args, WORKLOADS};

/// Workloads whose traced latency budget must close.
const BUDGETED: [&str; 2] = ["serve_steady", "train_geant"];

/// One end-to-end metric's regression rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// True when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the first value the second may be worse by.
    pub bound: f64,
}

/// The `end_to_end` rules of a `BENCHMARK.json` document.
pub fn rules(doc: &Value) -> Option<Vec<Rule>> {
    doc.get("end_to_end")?
        .as_array()?
        .iter()
        .map(|m| {
            Some(Rule {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect()
}

/// By what share of `first` the `second` value is worse (negative: better).
pub fn worse_by(rule: &Rule, first: f64, second: f64) -> f64 {
    let delta = if rule.higher_is_better {
        first - second
    } else {
        second - first
    };
    delta / first.abs()
}

/// Run one workload in a child process and return its metric values.
fn child(args: &Args, workload: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    let v: Value = serde_json::from_str(last)
        .map_err(|_| format!("{workload}: no result line (exit {:?})", out.status.code()))?;
    if !out.status.success() || v.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "{workload}: run failed or outputs incorrect: {last}"
        ));
    }
    Ok(v)
}

/// Run the self-check; returns the process exit code.
pub fn run(args: &Args) -> i32 {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let rules = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| serde_json::from_str::<Value>(&s).ok())
        .and_then(|doc| rules(&doc));
    let Some(rules) = rules else {
        eprintln!(
            "--agree: cannot read end_to_end rules from {}",
            path.display()
        );
        return 3;
    };
    let mut disagreements = 0;
    for (workload, _) in WORKLOADS {
        let runs: Result<Vec<Value>, String> =
            (0..2).map(|_| child(args, workload, false)).collect();
        let runs = match runs {
            Ok(r) => r,
            Err(e) => {
                eprintln!("--agree: {e}");
                return 1;
            }
        };
        let value = |run: &Value, name: &str| run.get("metrics")?.get(name)?.get("value")?.as_f64();
        for rule in &rules {
            let (Some(a), Some(b)) = (value(&runs[0], &rule.name), value(&runs[1], &rule.name))
            else {
                eprintln!("--agree: {workload} did not report {}", rule.name);
                return 1;
            };
            let worse = worse_by(rule, a, b);
            let verdict = if worse > rule.bound {
                disagreements += 1;
                "DISAGREE"
            } else {
                "ok"
            };
            println!(
                "{workload:<18} {:<14} first {a:>14.6} second {b:>14.6} worse by {:>+8.4} bound {:.3} {verdict}",
                rule.name, worse, rule.bound
            );
        }
    }
    for workload in BUDGETED {
        let share = child(args, workload, true).and_then(|run| {
            run.get("metrics")
                .and_then(|m| m.get("trace.budget_residual_share")?.get("value")?.as_f64())
                .ok_or(format!("{workload}: traced run reported no budget"))
        });
        match share {
            Ok(share) => {
                let verdict = if share.abs() > Budget::LIMIT {
                    disagreements += 1;
                    "DOES NOT CLOSE"
                } else {
                    "closes"
                };
                println!(
                    "{workload:<18} budget residual share {share:+.4} limit {:.2} {verdict}",
                    Budget::LIMIT
                );
            }
            Err(e) => {
                eprintln!("--agree: {e}");
                return 1;
            }
        }
    }
    println!("--agree: {disagreements} disagreement(s)");
    i32::from(disagreements > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_respects_direction() {
        let lower = Rule {
            name: "op_p50_ms".into(),
            higher_is_better: false,
            bound: 0.08,
        };
        let higher = Rule {
            name: "ops_per_s".into(),
            higher_is_better: true,
            bound: 0.08,
        };
        assert!((worse_by(&lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(&lower, 10.0, 9.0) < 0.0);
        assert!((worse_by(&higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(&higher, 100.0, 110.0) < 0.0);
    }

    #[test]
    fn rules_come_from_the_committed_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rules = rules(&doc).expect("end_to_end parses");
        let names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
        let ours: Vec<&str> = crate::END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(
            names, ours,
            "BENCHMARK.json and the binary list the same metrics"
        );
        assert!(rules.iter().all(|r| r.bound > 0.0 && r.bound <= 0.25));
        let per_layer: Vec<&str> = doc["per_layer"]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| m["name"].as_str().unwrap())
            .collect();
        let ours: Vec<&str> = crate::PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(per_layer, ours);
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| m["name"].as_str().unwrap())
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(workloads, ours);
    }
}
