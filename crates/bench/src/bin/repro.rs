//! `repro` — regenerate the paper's tables and figures and the
//! reproduction scoreboard in one process.
//!
//! ```text
//! repro [--quick|--full] [--results <dir>] [<id> ...]
//! ```
//!
//! Runs the named experiments (all of them when none is named) in table
//! order, writes `<dir>/<id>.<mode>.json` for each, replaces their rows in
//! `<dir>/scoreboard.<mode>.json` and prints the scoreboard as a markdown
//! table. `--quick` (reduced sizes) is the default; `<dir>` defaults to
//! `results`. Datasets, optimal MLUs and trained models are shared in
//! memory across the experiments of one run and never written to disk.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use harp_bench::experiments::EXPERIMENTS;
use harp_bench::lab::Lab;
use harp_bench::{report, scoreboard};
use serde_json::Value;

fn main() -> ExitCode {
    let mut quick = true;
    let mut dir = PathBuf::from("results");
    let mut ids: Vec<&str> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--full" => quick = false,
            "--results" => match args.next() {
                Some(d) => dir = PathBuf::from(d),
                None => return usage("--results requires a directory"),
            },
            other => match EXPERIMENTS.iter().find(|e| e.id == other) {
                Some(e) => ids.push(e.id),
                None => return usage(&format!("unknown experiment or option `{other}`")),
            },
        }
    }
    let mode = if quick { "quick" } else { "full" };
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let ran: Vec<&str> = EXPERIMENTS
        .iter()
        .map(|e| e.id)
        .filter(|id| ids.is_empty() || ids.contains(id))
        .collect();
    let mut lab = Lab::new(quick);
    let mut rows = Vec::new();
    for exp in EXPERIMENTS.iter().filter(|e| ran.contains(&e.id)) {
        report::section(exp.title);
        lab.oracles.take_tally();
        let t0 = Instant::now();
        let out = (exp.run)(&mut lab);
        let wall_s = t0.elapsed().as_secs_f64();
        assert_eq!(
            out.measured.len(),
            exp.claims.len(),
            "{}: one value per claim",
            exp.id
        );
        let denominator = lab.oracles.take_tally().denominator();
        if let Err(e) = write_json(&dir.join(format!("{}.{mode}.json", exp.id)), &out.json) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        let verdict = scoreboard::verdict(exp.claims, &out.measured);
        println!("[{}] {} in {wall_s:.1} s", exp.id, verdict.label());
        rows.extend(scoreboard::rows(
            exp.id,
            exp.claims,
            &out.measured,
            &denominator,
            wall_s,
        ));
    }
    let order: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    let path = dir.join(format!("scoreboard.{mode}.json"));
    let board = scoreboard::merge(&path, mode, rows, &ran, &order);
    if let Err(e) = write_json(&path, &board) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    println!("\n{}", scoreboard::markdown(&board));
    ExitCode::SUCCESS
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("[results -> {}]", path.display());
    Ok(())
}

fn usage(err: &str) -> ExitCode {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    eprintln!(
        "error: {err}\nusage: repro [--quick|--full] [--results <dir>] [<id> ...]\n\
         experiments: {}",
        ids.join(" ")
    );
    ExitCode::from(2)
}
