//! `cargo xtask analyze` — record HARP/DOTE/TEAL tapes on a calibrated
//! dataset instance and run every `harp-verify` determinism pass over
//! them, writing a machine-readable findings report for CI.
//!
//! The gate fails (non-zero exit) when any pass produces an
//! `Error`-severity finding; `Info`/`Warn` findings are recorded in the
//! JSON report but do not fail the build.

use std::path::PathBuf;
use std::process::ExitCode;

use harp_bench::data;
use harp_bench::zoo::{build_model, Scheme};
use harp_core::{analyze_determinism, DeterminismReport};
use harp_verify::Severity;

/// Seed for the freshly initialized (untrained) analysis models: the
/// passes are structural, so parameter values only matter for tie/argmax
/// recomputation, which any fixed seed exercises.
const MODEL_SEED: u64 = 97;

pub fn analyze(rest: &[String]) -> ExitCode {
    let mut out_path = PathBuf::from("results/analysis.json");
    let mut args = rest.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => match args.next() {
                Some(p) => out_path = PathBuf::from(p),
                None => {
                    eprintln!("error: --out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("error: unknown analyze option `{other}`");
                eprintln!("usage: cargo xtask analyze [--out <path>]");
                return ExitCode::FAILURE;
            }
        }
    }

    // Smallest calibrated dataset: the passes are structural, so one
    // representative instance exercises every op the models record.
    let setup = data::abilene_setup(true);
    let inst = setup.instance(0);
    println!(
        "[analyze] dataset {} ({} nodes, {} flows, {} tunnels)",
        setup.name,
        setup.topo.num_nodes(),
        inst.num_flows,
        inst.num_tunnels
    );

    let schemes = [
        Scheme::Harp { rau_iters: 7 },
        Scheme::Harp { rau_iters: 0 },
        Scheme::Dote,
        // Abilene's tunnel set is 8 shortest paths per flow.
        Scheme::Teal {
            tunnels_per_flow: 8,
        },
    ];
    let mut reports: Vec<DeterminismReport> = Vec::new();
    for scheme in schemes {
        let (model, store) = build_model(scheme, &inst, MODEL_SEED);
        let report = analyze_determinism(&*model, &store, &inst);
        print!("[analyze] {report}");
        reports.push(report);
    }

    let json = render_json(setup.name, &inst, &reports);
    if let Some(dir) = out_path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    println!("[analyze] findings report: {}", out_path.display());

    let errors: usize = reports.iter().map(DeterminismReport::error_count).sum();
    if errors == 0 {
        println!(
            "[analyze] {} scheme(s) certified deterministic",
            reports.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("[analyze] FAILED: {errors} error-severity finding(s)");
        ExitCode::FAILURE
    }
}

/// The findings report: every pass's diagnostics per scheme.
fn render_json(dataset: &str, inst: &harp_core::Instance, reports: &[DeterminismReport]) -> String {
    let schemes: Vec<serde_json::Value> = reports
        .iter()
        .map(|r| {
            let findings: Vec<serde_json::Value> = r
                .passes()
                .iter()
                .flat_map(|(pass, report)| {
                    report.diagnostics.iter().map(move |d| {
                        serde_json::json!({
                            "pass": *pass,
                            "severity": severity_str(d.severity),
                            "code": d.code,
                            "node": d.node.map_or(serde_json::Value::Null, serde_json::Value::from),
                            "message": d.message.as_str(),
                        })
                    })
                })
                .collect();
            serde_json::json!({
                "scheme": r.scheme,
                "clean": r.is_clean(),
                "errors": r.error_count(),
                "full_nodes": r.full_nodes,
                "cached_nodes": r.cached_nodes,
                "epoch_cache": r.has_epoch_cache,
                "findings": findings,
            })
        })
        .collect();
    let doc = serde_json::json!({
        "generator": "cargo xtask analyze",
        "dataset": dataset,
        "instance": { "flows": inst.num_flows, "tunnels": inst.num_tunnels },
        "errors": reports.iter().map(DeterminismReport::error_count).sum::<usize>(),
        "schemes": schemes,
    });
    let mut text = serde_json::to_string_pretty(&doc).expect("a JSON tree always serializes");
    text.push('\n');
    text
}

fn severity_str(sev: Severity) -> &'static str {
    match sev {
        Severity::Info => "info",
        Severity::Warn => "warn",
        Severity::Error => "error",
    }
}
