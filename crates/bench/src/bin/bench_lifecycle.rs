//! End-to-end lifecycle drill: replays a seeded AnonNet drift sequence
//! (failure storms, maintenance windows, flash crowds) into a live
//! in-process `harp-serve` fleet of [`SHARDS`] shards while every
//! generation — the bootstrap and each retrain — trains in an exec'd
//! `harp-trainerd` child under `harp-super` supervision (this binary
//! doubles as the child — it re-execs itself via `maybe_run_child`) and
//! the engine hot-ships each parameter generation over
//! `reload_checkpoint`. Scores the run as an SLA: NormMLU over time
//! against a per-snapshot LP oracle, time-to-recover per storm, and
//! served-model staleness.
//!
//! The drill is one fixed configuration: seed [`SEED`] with all three
//! fault surfaces armed — connection drops at the fleet's accept loop
//! ([`CHAOS_SERVE`]), a corrupt checkpoint on the first ship
//! ([`CHAOS_SHIP`]: the fleet must reject it and the engine re-ships
//! clean), and a per-attempt escalation ladder in every retrain's trainer
//! ([`CHAOS_PROC`]: attempt 0 is SIGKILLed mid-forward, attempt 1 garbles
//! an IPC frame, attempt 2 loses a worker inside the fine-tune, contained
//! and rolled back in the child). The run must still be bitwise
//! reproducible: it runs twice and the deterministic report projections
//! must match. Then the compiled gates turn the report into the exit
//! status (see [`gate_failures`]): zero protocol errors, every storm
//! recovered within [`MAX_RECOVER_TICKS`], staleness at most
//! [`MAX_STALENESS`], no trainer death or abandoned ship, and no leaked
//! child process.
//!
//! Usage: `cargo run --release -p harp-bench --bin bench_lifecycle --
//! [out.json] [--scenario quick|flagship]` (defaults
//! `BENCH_lifecycle.json`, `flagship`). Any other argument prints the
//! usage and exits 2.

use std::sync::Arc;

use harp_chaos::FaultPlan;
use harp_lifecycle::{run_lifecycle, LifecycleConfig, LifecycleReport, Scenario, SHARDS};
use serde_json::Value;

const USAGE: &str = "usage: bench_lifecycle [out.json] [--scenario quick|flagship]";
/// Master seed of the drill.
const SEED: u64 = 7;
/// Fleet faults: every 6th accepted connection is dropped.
const CHAOS_SERVE: &str = "drop-conn@nth=6";
/// Ship faults: the first shipped parameter file is bit-flipped.
const CHAOS_SHIP: &str = "corrupt-checkpoint@write=1,mode=flip";
/// Every retrain's trainer ladder, one fault-plan spec per attempt.
const CHAOS_PROC: [&str; 3] = [
    "kill-trainer@epoch=0,phase=forward",
    "garble-ipc@frame=2",
    "kill-worker@epoch=1,worker=0",
];
/// Every storm must recover within this many ticks.
const MAX_RECOVER_TICKS: usize = 6;
/// Trained-but-unserved generations allowed at any tick.
const MAX_STALENESS: u64 = 2;

/// What the gates read from one drill.
struct Measured {
    protocol_errors: u64,
    /// `(storm id, time to recover)` per storm.
    storms: Vec<(usize, Option<usize>)>,
    max_staleness: u64,
    trainer_deaths: u64,
    ships_abandoned: u64,
    /// Pids still parented to this process after the drill.
    leaked_children: Vec<String>,
}

/// The gate verdicts; empty when the drill passes.
fn gate_failures(m: &Measured) -> Vec<String> {
    let mut failures = Vec::new();
    if m.protocol_errors > 0 {
        failures.push(format!(
            "{} protocol errors (chaos must cause none)",
            m.protocol_errors
        ));
    }
    for &(id, ttr) in &m.storms {
        match ttr {
            Some(t) if t <= MAX_RECOVER_TICKS => {}
            Some(t) => failures.push(format!(
                "storm {id} recovered in {t} tick(s) > allowed {MAX_RECOVER_TICKS}"
            )),
            None => failures.push(format!("storm {id} never recovered")),
        }
    }
    if m.max_staleness > MAX_STALENESS {
        failures.push(format!(
            "max staleness {} generation(s) > allowed {MAX_STALENESS}",
            m.max_staleness
        ));
    }
    if m.trainer_deaths > 0 || m.ships_abandoned > 0 {
        failures.push(format!(
            "{} trainer death(s), {} abandoned ship(s) (supervision must always recover)",
            m.trainer_deaths, m.ships_abandoned
        ));
    }
    if !m.leaked_children.is_empty() {
        failures.push(format!(
            "leaked child process(es) after the drill: {}",
            m.leaked_children.join(", ")
        ));
    }
    failures
}

/// Pids still parented to this process — a supervised run must reap every
/// trainer child it spawned, so after the drill this must come back empty.
#[cfg(target_os = "linux")]
fn leaked_children() -> Vec<String> {
    let mut kids = Vec::new();
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for tid in tasks.flatten() {
            let raw = std::fs::read_to_string(tid.path().join("children")).unwrap_or_default();
            kids.extend(raw.split_whitespace().map(str::to_string));
        }
    }
    kids
}

#[cfg(not(target_os = "linux"))]
fn leaked_children() -> Vec<String> {
    Vec::new()
}

/// The report path and the scenario, or what was wrong with the arguments.
fn parse_args() -> Result<(String, Scenario), String> {
    let mut out = None;
    let mut scenario = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--scenario" && scenario.is_none() {
            scenario = Some(match args.next().as_deref() {
                Some("quick") => Scenario::quick(SEED),
                Some("flagship") => Scenario::flagship(SEED),
                other => {
                    let got = other.unwrap_or("nothing");
                    return Err(format!("--scenario wants quick|flagship, got {got}"));
                }
            });
        } else if !a.starts_with('-') && out.is_none() {
            out = Some(a);
        } else {
            return Err(format!("unexpected argument {a:?}"));
        }
    }
    Ok((
        out.unwrap_or_else(|| "BENCH_lifecycle.json".to_string()),
        scenario.unwrap_or_else(|| Scenario::flagship(SEED)),
    ))
}

fn plan(spec: &str) -> Arc<FaultPlan> {
    Arc::new(FaultPlan::parse(spec).expect("valid fault plan"))
}

/// One run's config. Fault-plan latches are one-shot per plan instance,
/// so every run (including the rerun) gets freshly parsed plans.
fn config(scenario: &Scenario, tag: &str) -> LifecycleConfig {
    let mut cfg = LifecycleConfig::new(scenario.clone()).apply_env();
    if !tag.is_empty() {
        cfg.work_dir = cfg.work_dir.join(tag);
    }
    cfg.chaos_serve = Some(plan(CHAOS_SERVE));
    cfg.chaos_ship = Some(plan(CHAOS_SHIP));
    cfg.chaos_proc = CHAOS_PROC.iter().map(|s| s.to_string()).collect();
    cfg
}

fn run_or_exit(cfg: &LifecycleConfig, what: &str) -> LifecycleReport {
    run_lifecycle(cfg).unwrap_or_else(|e| {
        eprintln!("error: {what} failed: {e}");
        std::process::exit(1);
    })
}

fn report_json(r: &LifecycleReport) -> Value {
    let mut doc = r.to_json();
    if let Value::Object(map) = &mut doc {
        map.insert(
            "suite".into(),
            Value::from(format!(
                "harp-lifecycle drill: scenario {} seed {}, {SHARDS} shard(s), chaos on",
                r.scenario, r.seed
            )),
        );
        map.insert(
            "host_cpus".into(),
            Value::from(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        );
        map.insert("chaos".into(), Value::from(true));
        map.insert("shards".into(), Value::from(SHARDS as f64));
    }
    doc
}

fn main() {
    // when exec'd as a trainer child (HARP_TRAINERD_CHILD=1) this call
    // runs the child protocol on stdin/stdout and never returns
    harp_lifecycle::maybe_run_child();

    let (out_path, scenario) = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    println!(
        "lifecycle drill: scenario {} seed {SEED}, {SHARDS} shard(s), chaos on",
        scenario.name
    );
    println!("  trainer fault ladder: {}", CHAOS_PROC.join(" ; "));
    let report = run_or_exit(&config(&scenario, ""), "lifecycle run");

    println!("[re-running for bitwise reproducibility]");
    let second = run_or_exit(&config(&scenario, "check"), "reproducibility rerun");
    if report.deterministic_json().to_string() != second.deterministic_json().to_string() {
        eprintln!("error: two runs with seed {SEED} diverged");
        std::process::exit(1);
    }
    println!("[rerun ok: deterministic projections identical]");

    println!(
        "  {} ticks over {} maintenance window(s): NormMLU mean {:.4}  p95 {:.4}  worst {:.4}",
        report.ticks.len(),
        report.maintenance_windows + 1,
        report.mean_norm_mlu,
        report.p95_norm_mlu,
        report.worst_norm_mlu
    );
    for s in &report.storms {
        println!(
            "  storm {} at t={} ({} links): ttr {}",
            s.id,
            s.at_tick,
            s.links.len(),
            s.ttr
                .map_or("never".to_string(), |t| format!("{t} tick(s)")),
        );
    }
    for r in &report.retrains {
        println!(
            "  retrain gen {} triggered t={}: {}{}",
            r.generation,
            r.trigger_tick,
            match (r.ok, r.shipped_tick) {
                (true, Some(t)) => format!("shipped t={t}"),
                (true, None) => "trained, never shipped".to_string(),
                (false, _) => format!("failed ({})", r.detail),
            },
            if r.corrupted_ship {
                " [ship corrupted -> re-shipped]"
            } else {
                ""
            }
        );
    }
    println!(
        "  staleness max {} gen(s) over {} tick(s); conn drops {}, reload rejects {}, \
         degraded {}, protocol errors {}",
        report.max_staleness,
        report.stale_ticks,
        report.conn_drops,
        report.reload_rejects,
        report.degraded_ticks,
        report.protocol_errors
    );
    println!(
        "  supervision: restarts {}, ipc errors {}, trainer deaths {}, ships abandoned {}",
        report.trainer_restarts,
        report.trainer_ipc_errors,
        report.trainer_deaths,
        report.ships_abandoned
    );

    let text =
        serde_json::to_string_pretty(&report_json(&report)).expect("serialize lifecycle report");
    if let Err(e) = std::fs::write(&out_path, text) {
        eprintln!("error: write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("[results -> {out_path}]");

    let failures = gate_failures(&Measured {
        protocol_errors: report.protocol_errors,
        storms: report.storms.iter().map(|s| (s.id, s.ttr)).collect(),
        max_staleness: report.max_staleness,
        trainer_deaths: report.trainer_deaths,
        ships_abandoned: report.ships_abandoned,
        leaked_children: leaked_children(),
    });
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("GATE FAILED: {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_thresholds() -> Measured {
        Measured {
            protocol_errors: 0,
            storms: vec![(0, Some(MAX_RECOVER_TICKS))],
            max_staleness: MAX_STALENESS,
            trainer_deaths: 0,
            ships_abandoned: 0,
            leaked_children: Vec::new(),
        }
    }

    #[test]
    fn gates_pass_at_thresholds_and_fail_on_each_violation() {
        assert!(gate_failures(&at_thresholds()).is_empty());
        let violations = [
            Measured {
                protocol_errors: 1,
                ..at_thresholds()
            },
            Measured {
                storms: vec![(0, Some(1)), (1, None)],
                ..at_thresholds()
            },
            Measured {
                max_staleness: 3,
                ..at_thresholds()
            },
            Measured {
                leaked_children: vec!["4242".to_string()],
                ..at_thresholds()
            },
        ];
        for m in &violations {
            assert_eq!(gate_failures(m).len(), 1);
        }
    }

    #[test]
    fn fault_specs_parse() {
        for spec in CHAOS_PROC.iter().chain(&[CHAOS_SERVE, CHAOS_SHIP]) {
            assert!(FaultPlan::parse(spec).is_ok(), "{spec}");
        }
    }
}
