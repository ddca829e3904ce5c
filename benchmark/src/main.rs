//! The repo benchmark. One command runs one workload and prints every metric
//! by name with its unit, checks the program's outputs, and ends with one
//! JSON line for the driver:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --agree
//! ```
//!
//! `--trace 0` (default) measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that yields the per-layer metrics.
//! See `benchmark/README.md` for every definition.

mod agree;
mod estimators;
mod layers;
mod onboard;
mod procfs;
mod runner;
mod serve;
mod trace;
mod train;
mod world;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use estimators::{summarise, Block, TailMode};
use runner::Tally;

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "serve_steady",
        "steady control loop: full-matrix infers on a fixed GEANT epoch; the cached head and the serve codec dominate",
    ),
    (
        "serve_churn",
        "changing topology at serve time: link fail/restore reactions; epoch precompute and the state write path dominate",
    ),
    (
        "train_geant",
        "epoch-at-a-time resumed training as harp-trainerd does it: backward, Adam and snapshot I/O run nowhere else",
    ),
    (
        "onboard_uscarrier",
        "zero-shot onboarding of unseen 158-node variants: Yen and the set transformer over long tunnels dominate",
    ),
];

/// End-to-end metrics: `(name, unit)`. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("rss_peak_mb", "MB"),
    ("norm_mlu_mean", "ratio"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Every traced run
/// prints all of them; a layer that does not run on a workload reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.parse_us", "us"),
    ("serve.serialise_us", "us"),
    ("serve.batch_us", "us"),
    ("serve.wire_residual_us", "us"),
    ("serve.apply_update_us", "us"),
    ("serve.update_rtt_us", "us"),
    ("serve.reload_ms", "ms"),
    ("serve.batch_mean", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.degraded", "count"),
    ("serve.shed", "count"),
    ("serve.protocol_errors", "count"),
    ("core.compile_us", "us"),
    ("core.head_us", "us"),
    ("core.mlp1_us", "us"),
    ("core.rau_iter_us", "us"),
    ("core.precompute_ms", "ms"),
    ("core.full_forward_ms", "ms"),
    ("core.forward_ms", "ms"),
    ("core.loss_us", "us"),
    ("core.validate_ms", "ms"),
    ("tensor.backward_ms", "ms"),
    ("tensor.merge_us", "us"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("nn.clip_us", "us"),
    ("nn.adam_us", "us"),
    ("nn.save_snapshot_ms", "ms"),
    ("nn.load_snapshot_ms", "ms"),
    ("nn.save_params_ms", "ms"),
    ("nn.load_params_ms", "ms"),
    ("runtime.train_speedup_w2", "ratio"),
    ("paths.yen_ms", "ms"),
    ("paths.prune_us", "us"),
    ("opt.mlu_us", "us"),
    ("opt.oracle_ms", "ms"),
    ("opt.oracle_exact_share", "ratio"),
    ("proc.minflt_per_op", "count"),
    ("proc.cpu_user_ms_per_op", "ms"),
    ("proc.cpu_sys_ms_per_op", "ms"),
    ("proc.first_op_ms", "ms"),
    ("proc.gen_cpu_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.budget_residual_share", "ratio"),
];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds the timed blocks measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Smoke mode: one block, one set-up, two seconds, same validation.
    pub quick: bool,
}

impl Args {
    /// Time the blocks measure for.
    pub fn measure(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Timed blocks of an end-to-end run that normally has `normal`.
    pub fn blocks(&self, normal: usize) -> usize {
        if self.quick {
            1
        } else {
            normal
        }
    }

    /// Where the traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        out_dir().join(format!("trace-{}.json", self.workload))
    }
}

/// `benchmark/out/`: everything a run writes (traces, checkpoints) goes here.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What a workload hands back.
pub struct Outcome {
    /// Ops attempted and failed, over the whole run.
    pub tally: Tally,
    /// Wall seconds of every set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of the first, cold op.
    pub first_op_ms: f64,
    /// The timed blocks measured with tracing off.
    pub blocks: Vec<Block>,
    /// How the tail is taken over the blocks.
    pub tail_mode: TailMode,
    /// Mean served MLU over LP-optimal MLU.
    pub norm_mlu_mean: f64,
    /// What `norm_mlu_mean` was averaged over.
    pub quality_note: String,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Latency budget of one op (traced run only).
    pub budget: Option<layers::Budget>,
    /// Validation failures and other remarks, printed verbatim.
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome with nothing measured yet.
    pub fn new(setup_s: Vec<f64>, first_op_ms: f64, tail_mode: TailMode) -> Self {
        Outcome {
            tally: Tally::default(),
            setup_s,
            first_op_ms,
            blocks: Vec::new(),
            tail_mode,
            norm_mlu_mean: 0.0,
            quality_note: String::new(),
            layers: BTreeMap::new(),
            budget: None,
            notes: Vec::new(),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: harp-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick]\n       harp-benchmark --agree [--seed N] [--seconds S]",
        WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (Args, bool) {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        quick: false,
    };
    let mut agree = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--quick" => args.quick = true,
            "--agree" => agree = true,
            _ => usage(),
        }
    }
    if args.quick {
        args.seconds = args.seconds.min(2.0);
    }
    let known = WORKLOADS.iter().any(|w| w.0 == args.workload);
    if args.seconds.is_nan() || args.seconds <= 0.0 || (!agree && !known) {
        usage();
    }
    (args, agree)
}

fn main() {
    // The harness pins what would otherwise come from the ambient
    // environment, before any thread exists: one kernel worker, no
    // observability sink, no injected faults.
    std::env::set_var("HARP_THREADS", "1");
    std::env::set_var("HARP_OBS", "off");
    std::env::remove_var("HARP_OBS_OPS");
    std::env::remove_var("HARP_FAULT");

    let (args, agree) = parse_args();
    if agree {
        std::process::exit(agree::run(&args));
    }
    println!(
        "harp-benchmark workload={} seed={} seconds={} trace={} quick={}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.quick
    );
    println!("host: {}", procfs::host_record());
    let result = match args.workload.as_str() {
        "serve_steady" => serve::run(&args, serve::Kind::Steady),
        "serve_churn" => serve::run(&args, serve::Kind::Churn),
        "train_geant" => train::run(&args),
        _ => onboard::run(&args),
    };
    match result.and_then(|out| report(&args, &out)) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("harp-benchmark: {e}");
            std::process::exit(3);
        }
    }
}

/// Print every metric by name and unit, then the driver's JSON line.
/// Returns whether the run counts as correct.
fn report(args: &Args, out: &Outcome) -> std::io::Result<bool> {
    let s = summarise(&out.blocks, out.tail_mode);
    let correct = out.tally.failed == 0 && out.norm_mlu_mean.is_finite();
    for n in &out.notes {
        println!("note: {n}");
    }
    println!(
        "ops: {} timed in {} block(s), {} attempted in all, {} failed (fail_share {:.6})",
        s.ops,
        out.blocks.len(),
        out.tally.attempted,
        out.tally.failed,
        out.tally.failed as f64 / out.tally.attempted.max(1) as f64
    );
    let per_block = |f: fn(&Block) -> f64| {
        let v: Vec<String> = out.blocks.iter().map(|b| format!("{:.3}", f(b))).collect();
        v.join(" ")
    };
    println!(
        "blocks: p50 ms [{}] ops/s [{}]",
        per_block(|b| estimators::median_ns(&b.lat_ns) as f64 / 1e6),
        per_block(|b| b.lat_ns.len() as f64 / (b.wall_ns as f64 / 1e9))
    );
    println!(
        "tail: p{:.1} of {} samples ({:?}); quality: {}",
        s.tail_pct, s.tail_samples, out.tail_mode, out.quality_note
    );

    let values: Vec<(&str, &str, f64)> = if args.trace {
        let mut layers = out.layers.clone();
        if let Some(b) = out.budget {
            layers.insert("trace.budget_residual_share", b.residual_share());
            // Reported, not fatal: a traced run on a disturbed host must
            // still deliver its numbers. `--agree` is where it is asserted.
            let verdict = if b.closes() {
                "closes"
            } else {
                "does NOT close"
            };
            println!(
                "budget: layers {:.1} us + residual {:.1} us = e2e p50 {:.1} us; residual share {:+.4}, limit {:.2}: {verdict}",
                b.layers_us,
                b.e2e_us - b.layers_us,
                b.e2e_us,
                b.residual_share(),
                layers::Budget::LIMIT
            );
        }
        println!(
            "untraced blocks of this run: ops_per_s {:.3}, op_p50_ms {:.4}; spans -> {}",
            s.ops_per_s,
            s.op_p50_ms,
            args.trace_path().display()
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let e2e = [
            estimators::median_f64(&out.setup_s),
            s.ops_per_s,
            s.op_p50_ms,
            s.op_tail_ms,
            s.cpu_ms_per_op,
            procfs::rss_peak_mb()?,
            out.norm_mlu_mean,
        ];
        println!("set-up repetitions (s): {:?}", out.setup_s);
        println!("first (cold) op: {:.3} ms", out.first_op_ms);
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };

    let mut metrics = serde_json::Map::new();
    for &(name, unit, value) in &values {
        println!("{name:<32} {value:>16.6} {unit}");
        metrics.insert(
            name.to_string(),
            serde_json::json!({ "value": value, "unit": unit }),
        );
    }
    let line = serde_json::json!({
        "correct": correct,
        "attempted": out.tally.attempted,
        "failed": out.tally.failed,
        "metrics": serde_json::Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&line).expect("a JSON value serialises")
    );
    Ok(correct)
}
