//! End-to-end lifecycle drill: replays a seeded AnonNet drift sequence
//! (failure storms, maintenance windows, flash crowds) into a live
//! in-process `harp-serve` fleet while every retrain fine-tunes on the
//! drifted window in an exec'd `harp-trainerd` child under `harp-super`
//! supervision (this binary doubles as the child — it re-execs itself
//! via `maybe_run_child`) and the engine hot-ships each parameter
//! generation over `reload_checkpoint`. Scores the run as an SLA:
//! NormMLU over time against a per-snapshot LP oracle, time-to-recover
//! per storm, and served-model staleness.
//!
//! `--chaos` arms all three fault surfaces at once — connection drops at
//! the fleet's accept loop (serve), a corrupt checkpoint on the first
//! ship (the fleet must reject it and the engine re-ships clean), and a
//! per-attempt escalation ladder in the trainer process: attempt 0 is
//! SIGKILLed mid-forward, attempt 1 garbles an IPC frame, attempt 2
//! loses a worker inside the fine-tune (contained and rolled back in the
//! child) — and the run must still be bitwise reproducible from its
//! seed: `--check` runs the scenario twice and diffs the deterministic
//! report projections. `--chaos-proc` replaces the ladder with an
//! explicit script.
//!
//! Results go to `BENCH_lifecycle.json`; `--assert-*` flags turn SLA
//! measurements into CI gates (non-zero exit on violation);
//! `--assert-no-trainer-deaths` and `--assert-no-child-leaks` gate the
//! supervision outcome.
//!
//! Usage: `cargo run --release -p harp-bench --bin bench_lifecycle --
//! [args]`, the arguments as in [`USAGE`]. An unknown flag or a second
//! output path prints the usage and exits 2, so a typo'd gate fails the
//! run instead of silently gating nothing.

use std::sync::Arc;

use harp_chaos::FaultPlan;
use harp_lifecycle::{run_lifecycle, LifecycleConfig, LifecycleReport, Scenario};
use serde_json::Value;

/// The accepted arguments.
const USAGE: &str = "usage: bench_lifecycle [out.json] [--seed N] [--scenario quick|flagship] \
[--shards N] [--chaos-proc \"spec;spec;...\"] [--chaos] [--check] \
[--assert-zero-protocol-errors] [--assert-recover-ticks N] [--assert-max-staleness N] \
[--assert-mean-norm-mlu X] [--assert-no-trainer-deaths] [--assert-no-child-leaks]";

struct Gates {
    zero_protocol_errors: bool,
    max_recover_ticks: Option<usize>,
    max_staleness: Option<u64>,
    max_mean_norm_mlu: Option<f64>,
    no_trainer_deaths: bool,
    no_child_leaks: bool,
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

fn plan(spec: &str) -> Arc<FaultPlan> {
    Arc::new(FaultPlan::parse(spec).expect("valid fault plan"))
}

fn report_json(r: &LifecycleReport, chaos: bool, shards: usize) -> Value {
    let mut doc = r.to_json();
    if let Value::Object(map) = &mut doc {
        map.insert(
            "suite".into(),
            Value::from(format!(
                "harp-lifecycle drill: scenario {} seed {}, {} shard(s), chaos {}",
                r.scenario,
                r.seed,
                shards,
                if chaos { "on" } else { "off" }
            )),
        );
        map.insert(
            "host_cpus".into(),
            Value::from(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        );
        map.insert("chaos".into(), Value::from(chaos));
        map.insert("shards".into(), Value::from(shards as f64));
    }
    doc
}

#[allow(clippy::too_many_lines)]
fn main() {
    // when exec'd as a trainer child (HARP_TRAINERD_CHILD=1) this call
    // runs the child protocol on stdin/stdout and never returns
    harp_lifecycle::maybe_run_child();

    let mut out_path: Option<String> = None;
    let mut seed = 7u64;
    let mut scenario_name = "flagship".to_string();
    let mut shards: Option<usize> = None;
    let mut chaos = false;
    let mut check = false;
    let mut chaos_proc: Vec<String> = Vec::new();
    let mut gates = Gates {
        zero_protocol_errors: false,
        max_recover_ticks: None,
        max_staleness: None,
        max_mean_norm_mlu: None,
        no_trainer_deaths: false,
        no_child_leaks: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut num = |name: &str| -> f64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} requires a number"))
        };
        match a.as_str() {
            "--seed" => {
                // a u64 in full: every bit of it reaches the trainer's job
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed requires a u64");
            }
            "--scenario" => {
                scenario_name = args.next().expect("--scenario requires quick|flagship");
            }
            "--shards" => shards = Some((num("--shards") as usize).max(1)),
            "--chaos" => chaos = true,
            "--check" => check = true,
            "--chaos-proc" => {
                let script = args
                    .next()
                    .expect("--chaos-proc requires \"spec;spec;...\"");
                chaos_proc = script
                    .split(';')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--assert-zero-protocol-errors" => gates.zero_protocol_errors = true,
            "--assert-no-trainer-deaths" => gates.no_trainer_deaths = true,
            "--assert-no-child-leaks" => gates.no_child_leaks = true,
            "--assert-recover-ticks" => {
                gates.max_recover_ticks = Some(num("--assert-recover-ticks") as usize);
            }
            "--assert-max-staleness" => {
                gates.max_staleness = Some(num("--assert-max-staleness") as u64);
            }
            "--assert-mean-norm-mlu" => {
                gates.max_mean_norm_mlu = Some(num("--assert-mean-norm-mlu"));
            }
            path if !path.starts_with('-') && out_path.is_none() => {
                out_path = Some(path.to_string());
            }
            other => {
                eprintln!("error: unexpected argument {other:?}\n{USAGE}");
                // lint: allow(exit) — bench tooling: a typo'd gate must not pass
                std::process::exit(2);
            }
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_lifecycle.json".to_string());

    // fault-plan latches are one-shot per plan instance, so every run
    // (including the --check rerun) gets freshly parsed plans
    let build_cfg = |tag: &str| {
        let scenario = match scenario_name.as_str() {
            "quick" => Scenario::quick(seed),
            "flagship" => Scenario::flagship(seed),
            other => panic!("unknown scenario {other:?} (quick|flagship)"),
        };
        let mut cfg = LifecycleConfig::new(scenario).apply_env();
        if let Some(n) = shards {
            cfg.shards = n;
        }
        if !tag.is_empty() {
            cfg.work_dir = cfg.work_dir.join(tag);
        }
        cfg.chaos_proc = chaos_proc.clone();
        if chaos {
            // all three fault surfaces at once: the fleet loses
            // connections, the first shipped checkpoint arrives corrupt
            // (rejected, re-shipped clean), and every retrain walks the
            // trainer ladder — attempt 0 is SIGKILLed mid-forward, attempt
            // 1 garbles an IPC frame, attempt 2 loses a worker
            // mid-fine-tune (contained and rolled back inside the child,
            // so it ships without a restart)
            cfg.chaos_serve = Some(plan("drop-conn@nth=6"));
            cfg.chaos_ship = Some(plan("corrupt-checkpoint@write=1,mode=flip"));
            if cfg.chaos_proc.is_empty() {
                cfg.chaos_proc = vec![
                    "kill-trainer@epoch=0,phase=forward".to_string(),
                    "garble-ipc@frame=2".to_string(),
                    "kill-worker@epoch=1,worker=0".to_string(),
                ];
            }
        }
        for spec in &cfg.chaos_proc {
            // fail fast on a typo instead of diagnosing a dead trainer
            drop(plan(spec));
        }
        cfg
    };
    let cfg = build_cfg("");

    println!(
        "lifecycle drill: scenario {} seed {seed}, {} shard(s), chaos {}",
        cfg.scenario.name,
        cfg.shards,
        if chaos { "on" } else { "off" }
    );
    if !cfg.chaos_proc.is_empty() {
        println!("  trainer fault ladder: {}", cfg.chaos_proc.join(" ; "));
    }
    let report = match run_lifecycle(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: lifecycle run failed: {e}");
            // lint: allow(exit) — bench tooling: a failed drill is fatal
            std::process::exit(1);
        }
    };

    if check {
        println!("[--check: re-running for bitwise reproducibility]");
        let cfg2 = build_cfg("check");
        let second = match run_lifecycle(&cfg2) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: --check rerun failed: {e}");
                // lint: allow(exit) — bench tooling
                std::process::exit(1);
            }
        };
        if report.deterministic_json().to_string() != second.deterministic_json().to_string() {
            eprintln!("error: --check failed: two runs with seed {seed} diverged");
            // lint: allow(exit) — determinism gate
            std::process::exit(1);
        }
        println!("[--check ok: deterministic projections identical]");
    }

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

    let doc = report_json(&report, chaos, cfg.shards);
    let text = serde_json::to_string_pretty(&doc).expect("serialize lifecycle report");
    if let Err(e) = std::fs::write(&out_path, text) {
        eprintln!("error: write {out_path}: {e}");
        // lint: allow(exit) — bench tooling: unwritable results path is fatal
        std::process::exit(1);
    }
    println!("[results -> {out_path}]");

    // --- gates: turn SLA measurements into exit status for CI ---
    let mut failures = Vec::new();
    if gates.zero_protocol_errors && report.protocol_errors > 0 {
        failures.push(format!(
            "{} protocol errors (chaos must cause none)",
            report.protocol_errors
        ));
    }
    if let Some(max) = gates.max_recover_ticks {
        for s in &report.storms {
            match s.ttr {
                Some(t) if t <= max => {}
                Some(t) => failures.push(format!(
                    "storm {} recovered in {t} tick(s) > allowed {max}",
                    s.id
                )),
                None => failures.push(format!("storm {} never recovered", s.id)),
            }
        }
    }
    if let Some(max) = gates.max_staleness {
        if report.max_staleness > max {
            failures.push(format!(
                "max staleness {} generation(s) > allowed {max}",
                report.max_staleness
            ));
        }
    }
    if let Some(max) = gates.max_mean_norm_mlu {
        // NaN mean (no samples) must fail the gate too
        if report.mean_norm_mlu.is_nan() || report.mean_norm_mlu > max {
            failures.push(format!(
                "mean NormMLU {:.4} > allowed {max:.4}",
                report.mean_norm_mlu
            ));
        }
    }
    if gates.no_trainer_deaths && (report.trainer_deaths > 0 || report.ships_abandoned > 0) {
        failures.push(format!(
            "{} trainer death(s), {} abandoned ship(s) (supervision must always recover)",
            report.trainer_deaths, report.ships_abandoned
        ));
    }
    if gates.no_child_leaks {
        let kids = leaked_children();
        if !kids.is_empty() {
            failures.push(format!(
                "leaked child process(es) after the drill: {}",
                kids.join(", ")
            ));
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("GATE FAILED: {f}");
        }
        // lint: allow(exit) — CI gate
        std::process::exit(1);
    }
}
