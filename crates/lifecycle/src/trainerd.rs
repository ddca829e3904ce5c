//! The trainer daemon: the child half of the supervision protocol.
//!
//! `harp-trainerd` (or any binary that calls [`maybe_run_child`] early in
//! `main`) runs one fine-tune job handed to it by a `harp-super`
//! supervisor over length-prefixed NDJSON frames on stdin/stdout:
//!
//! 1. send `hello {pid, proto}`;
//! 2. read `config {attempt, job}` — the job is a self-contained
//!    [`TrainJob`] document (architecture, instance window, the parameter
//!    file it starts from, checkpoint dir, seeds);
//! 3. train **epoch at a time**: each epoch is one `train_model` call on
//!    the job's starting parameters that resumes bitwise-exactly from the
//!    job's checkpoint dir, so a crash at any point loses at most one
//!    epoch and a restarted child replays to identical bits;
//! 4. write the trained parameter file, send `ship {generation, path}`,
//!    then `done`.
//!
//! Chaos is an **escalation script**: `TrainJob::chaos` holds one
//! fault-plan spec per attempt and the child arms only the spec at its
//! own attempt index. Restart n therefore faces fault n — a kill-loop is
//! impossible by construction, and one supervised run can walk through
//! several distinct faults (kill, garble, worker loss) before converging.
//!
//! Every failure is structured: bad frames, bad jobs, and training errors
//! produce a `failed {detail}` frame and a nonzero exit, never a panic.

use std::io::{self, BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::Arc;

use harp_chaos::{FaultPlan, TrainerPhase};
use harp_core::{train_model, EvalOptions, Harp, HarpConfig, Instance, TrainConfig};
use harp_nn::{load_params, save_params};
use harp_paths::{Path as TunnelPath, TunnelSet};
use harp_super::{encode_frame, ChildMsg, FrameReader, SuperMsg, PROTO_VERSION};
use harp_tensor::ParamStore;
use harp_topology::Topology;
use harp_traffic::TrafficMatrix;
use rand::{rngs::StdRng, SeedableRng};
use serde_json::Value;

/// One training instance in wire form: enough raw structure to rebuild
/// the exact compiled [`Instance`] (same edge ids, same tunnel order,
/// same floats — the vendored JSON encoder prints shortest-exact
/// doubles, so capacities and demands round-trip bitwise).
#[derive(Clone, Debug)]
pub struct JobInstance {
    /// Node count of the (universe) topology.
    pub nodes: usize,
    /// Directed edges in edge-id order: `(src, dst, capacity)`.
    pub edges: Vec<(usize, usize, f64)>,
    /// Ordered flow endpoints.
    pub flows: Vec<(usize, usize)>,
    /// Per-flow tunnels as edge-id paths, aligned with `flows`.
    pub tunnels: Vec<Vec<Vec<usize>>>,
    /// Dense `nodes * nodes` demand matrix.
    pub demands: Vec<f64>,
    /// LP-oracle optimal MLU for loss normalization.
    pub opt: f64,
}

impl JobInstance {
    /// Snapshot the raw parts of one scored tick.
    pub fn from_parts(topo: &Topology, tunnels: &TunnelSet, tm: &TrafficMatrix, opt: f64) -> Self {
        JobInstance {
            nodes: topo.num_nodes(),
            edges: topo
                .edges()
                .iter()
                .map(|e| (e.src, e.dst, e.capacity))
                .collect(),
            flows: tunnels.flows().to_vec(),
            tunnels: (0..tunnels.num_flows())
                .map(|f| tunnels.tunnels_of(f).iter().map(|p| p.0.clone()).collect())
                .collect(),
            demands: tm.as_slice().to_vec(),
            opt,
        }
    }

    /// Rebuild the compiled instance. Edge insertion order reproduces the
    /// original edge ids, so tunnel paths stay valid.
    fn compile(&self) -> Result<(Instance, f64), String> {
        if self.flows.len() != self.tunnels.len() {
            return Err(format!(
                "job instance: {} flows but {} tunnel groups",
                self.flows.len(),
                self.tunnels.len()
            ));
        }
        if self.tunnels.iter().any(Vec::is_empty) {
            return Err("job instance: a flow has no tunnels".to_string());
        }
        if self.demands.len() != self.nodes * self.nodes {
            return Err(format!(
                "job instance: demand matrix has {} entries for {} nodes",
                self.demands.len(),
                self.nodes
            ));
        }
        if self.demands.iter().any(|d| !(d.is_finite() && *d >= 0.0)) {
            return Err("job instance: a demand is negative or not finite".to_string());
        }
        if self.flows.iter().any(|&(s, t)| s.max(t) >= self.nodes) {
            return Err(format!(
                "job instance: a flow names a node outside 0..{}",
                self.nodes
            ));
        }
        let mut topo = Topology::new(self.nodes);
        for &(s, d, c) in &self.edges {
            topo.add_edge(s, d, c)
                .map_err(|e| format!("job instance: bad edge ({s},{d}): {e}"))?;
        }
        let num_edges = topo.num_edges();
        if self
            .tunnels
            .iter()
            .flatten()
            .flatten()
            .any(|&eid| eid >= num_edges)
        {
            return Err("job instance: tunnel references an unknown edge".to_string());
        }
        let tunnels = TunnelSet::from_parts(
            self.flows.clone(),
            self.tunnels
                .iter()
                .map(|f| f.iter().map(|p| TunnelPath(p.clone())).collect())
                .collect(),
        );
        let tm = TrafficMatrix::from_dense(self.nodes, self.demands.clone());
        Ok((Instance::compile(&topo, &tunnels, &tm), self.opt))
    }
}

/// A self-contained fine-tune job, shipped to the child inside the
/// supervisor's config frame.
#[derive(Clone, Debug)]
pub struct TrainJob {
    /// Model architecture (must match the serving fleet's).
    pub model: HarpConfig,
    /// Recent-instance training window.
    pub window: Vec<JobInstance>,
    /// Parameter file (`harp_nn::save_params`) the job starts from: the
    /// seeded init for generation 0, the previous generation's
    /// `params_out` after that.
    pub warm_path: PathBuf,
    /// Checkpoint dir for per-epoch snapshots (the resume anchor).
    pub checkpoint_dir: PathBuf,
    /// Where the trained parameter file is written before `ship`.
    pub params_out: PathBuf,
    /// Parameter generation this job produces.
    pub generation: u64,
    /// Trainer worker threads.
    pub workers: usize,
    /// Fine-tune epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Training seed (shared by init, shuffling, and resume).
    pub seed: u64,
    /// Escalation script: the fault-plan spec armed on attempt n is
    /// `chaos[n]`; attempts past the end run clean.
    pub chaos: Vec<String>,
}

/// Encode a job for the config frame.
pub fn job_to_json(job: &TrainJob) -> Value {
    let window: Vec<Value> = job
        .window
        .iter()
        .map(|w| {
            serde_json::json!({
                "nodes": w.nodes,
                "edges": w.edges.iter().map(|&(s, d, c)| {
                    serde_json::json!([s, d, c])
                }).collect::<Vec<_>>(),
                "flows": w.flows.iter().map(|&(s, t)| {
                    serde_json::json!([s, t])
                }).collect::<Vec<_>>(),
                "tunnels": w.tunnels.clone(),
                "demands": w.demands.clone(),
                "opt": w.opt,
            })
        })
        .collect();
    serde_json::json!({
        "model": {
            "gnn_layers": job.model.gnn_layers,
            "gnn_hidden": job.model.gnn_hidden,
            "d_model": job.model.d_model,
            "settrans_layers": job.model.settrans_layers,
            "heads": job.model.heads,
            "d_ff": job.model.d_ff,
            "mlp_hidden": job.model.mlp_hidden,
            "rau_iters": job.model.rau_iters,
        },
        "window": window,
        "warm_path": job.warm_path.display().to_string(),
        "checkpoint_dir": job.checkpoint_dir.display().to_string(),
        "params_out": job.params_out.display().to_string(),
        "generation": job.generation,
        "workers": job.workers,
        "epochs": job.epochs,
        "lr": f64::from(job.lr),
        // hex, not a number: JSON numbers are f64-backed and a seed uses
        // all 64 bits
        "seed": format!("{:016x}", job.seed),
        "chaos": job.chaos.clone(),
    })
}

/// A JSON number that is a non-negative integer fitting a `usize`.
fn as_usize(x: &Value) -> Option<usize> {
    x.as_u64().and_then(|u| usize::try_from(u).ok())
}

fn juint(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("job field `{key}` missing or not an unsigned integer"))
}

/// `seed` is exactly 16 hex digits (what [`job_to_json`] writes).
fn jseed(v: &Value) -> Result<u64, String> {
    v.get("seed")
        .and_then(Value::as_str)
        .filter(|s| s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit()))
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| "job field `seed` missing or not 16 hex digits".to_string())
}

fn jusize(v: &Value, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(as_usize)
        .ok_or_else(|| format!("job field `{key}` missing or not an unsigned integer"))
}

fn jf64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("job field `{key}` missing or not a number"))
}

fn jstr(v: &Value, key: &str) -> Result<String, String> {
    Ok(v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("job field `{key}` missing or not a string"))?
        .to_string())
}

fn jarr<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    Ok(v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("job field `{key}` missing or not an array"))?
        .as_slice())
}

fn pair_usize(v: &Value, what: &str) -> Result<(usize, usize), String> {
    match v.as_array().map(Vec::as_slice) {
        Some([a, b]) => as_usize(a).zip(as_usize(b)),
        _ => None,
    }
    .ok_or_else(|| format!("{what}: expected a pair of unsigned integers"))
}

/// Decode a job from the config frame. Strict: any missing field, wrong
/// type, or structurally-inconsistent window is a `String` error the
/// child reports via a `failed` frame.
pub fn job_from_json(v: &Value) -> Result<TrainJob, String> {
    let m = v
        .get("model")
        .ok_or_else(|| "job field `model` missing".to_string())?;
    let model = HarpConfig {
        gnn_layers: jusize(m, "gnn_layers")?,
        gnn_hidden: jusize(m, "gnn_hidden")?,
        d_model: jusize(m, "d_model")?,
        settrans_layers: jusize(m, "settrans_layers")?,
        heads: jusize(m, "heads")?,
        d_ff: jusize(m, "d_ff")?,
        mlp_hidden: jusize(m, "mlp_hidden")?,
        rau_iters: jusize(m, "rau_iters")?,
    };
    let mut window = Vec::new();
    for (i, w) in jarr(v, "window")?.iter().enumerate() {
        let mut edges = Vec::new();
        for e in jarr(w, "edges")? {
            let edge = match e.as_array().map(Vec::as_slice) {
                Some([s, d, c]) => Some((as_usize(s), as_usize(d), c.as_f64())),
                _ => None,
            };
            match edge {
                Some((Some(s), Some(d), Some(c))) => edges.push((s, d, c)),
                _ => return Err(format!("window[{i}]: edge is not [src, dst, capacity]")),
            }
        }
        let mut flows = Vec::new();
        for f in jarr(w, "flows")? {
            flows.push(pair_usize(f, &format!("window[{i}] flow"))?);
        }
        let mut tunnels = Vec::new();
        for ft in jarr(w, "tunnels")? {
            let group = ft
                .as_array()
                .ok_or_else(|| format!("window[{i}]: tunnel group is not an array"))?;
            let mut paths = Vec::new();
            for p in group {
                let hops = p
                    .as_array()
                    .ok_or_else(|| format!("window[{i}]: tunnel path is not an array"))?;
                let mut path = Vec::new();
                for h in hops {
                    path.push(as_usize(h).ok_or_else(|| {
                        format!("window[{i}]: edge id is not an unsigned integer")
                    })?);
                }
                paths.push(path);
            }
            tunnels.push(paths);
        }
        let demands: Vec<f64> = jarr(w, "demands")?
            .iter()
            .map(|d| {
                d.as_f64()
                    .ok_or_else(|| format!("window[{i}]: demand is not a number"))
            })
            .collect::<Result<_, _>>()?;
        window.push(JobInstance {
            nodes: jusize(w, "nodes")?,
            edges,
            flows,
            tunnels,
            demands,
            opt: jf64(w, "opt")?,
        });
    }
    if window.is_empty() {
        return Err("job window is empty".to_string());
    }
    let chaos: Vec<String> = jarr(v, "chaos")?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| "job field `chaos` entry is not a string".to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(TrainJob {
        model,
        window,
        warm_path: PathBuf::from(jstr(v, "warm_path")?),
        checkpoint_dir: PathBuf::from(jstr(v, "checkpoint_dir")?),
        params_out: PathBuf::from(jstr(v, "params_out")?),
        generation: juint(v, "generation")?,
        workers: jusize(v, "workers")?,
        epochs: jusize(v, "epochs")?,
        lr: jf64(v, "lr")? as f32, // lint: allow(as-cast) — learning rate, lossy by design
        seed: jseed(v)?,
        chaos,
    })
}

/// Frame writer that consults the armed chaos plan before each frame:
/// `garble-ipc` mangles the length line (the supervisor must surface a
/// typed protocol error).
struct ChaosSender<W: Write> {
    out: W,
    plan: Option<Arc<FaultPlan>>,
}

impl<W: Write> ChaosSender<W> {
    fn send(&mut self, msg: &ChildMsg) -> io::Result<()> {
        let mut bytes = encode_frame(&msg.to_value());
        if self.plan.as_ref().is_some_and(|p| p.garble_frame_due()) {
            bytes[0] = b'X';
        }
        self.out.write_all(&bytes)?;
        self.out.flush()
    }
}

/// If this process was exec'd as a trainer child
/// (`HARP_TRAINERD_CHILD=1`), run the child protocol on stdin/stdout and
/// exit. Call first thing in `main` of any binary used as a trainer exe;
/// a normal invocation returns immediately.
pub fn maybe_run_child() {
    // lint: allow(env) — the supervisor's child marker, set on every spawn
    if std::env::var("HARP_TRAINERD_CHILD").as_deref() == Ok("1") {
        let code = trainerd_main();
        std::process::exit(code); // lint: allow(exit) — dedicated child entrypoint, nothing to unwind
    }
}

/// Run the child protocol on this process's stdin/stdout; returns the
/// exit code (0 = shipped, nonzero = structured failure).
pub fn trainerd_main() -> i32 {
    let stdin = io::stdin();
    let stdout = io::stdout();
    run_trainerd(BufReader::new(stdin.lock()), stdout.lock())
}

/// The child protocol over arbitrary streams (tests drive it in-memory).
pub fn run_trainerd<R: BufRead, W: Write>(input: R, output: W) -> i32 {
    let mut frames = FrameReader::new(input);
    let mut sender = ChaosSender {
        out: output,
        plan: None,
    };
    let hello = ChildMsg::Hello {
        pid: u64::from(std::process::id()),
        proto: PROTO_VERSION,
    };
    if sender.send(&hello).is_err() {
        return 2;
    }

    let (attempt, jobv) = match frames.read_frame() {
        Ok(Some(v)) => match SuperMsg::from_value(&v) {
            Ok(SuperMsg::Config { attempt, job }) => (attempt, job),
            Ok(SuperMsg::Shutdown) => return 0,
            Err(e) => {
                return fail(&mut sender, format!("bad config frame: {e}"));
            }
        },
        Ok(None) => return 2, // supervisor went away before config
        Err(e) => {
            return fail(&mut sender, format!("config read failed: {e}"));
        }
    };
    let job = match job_from_json(&jobv) {
        Ok(j) => j,
        Err(e) => return fail(&mut sender, format!("bad job: {e}")),
    };

    // Escalation script: arm only this attempt's fault spec.
    let plan = match job.chaos.get(attempt as usize) {
        Some(spec) if !spec.trim().is_empty() => match FaultPlan::parse(spec) {
            Ok(p) => Some(Arc::new(p)),
            Err(e) => return fail(&mut sender, format!("bad chaos spec: {e}")),
        },
        _ => None,
    };
    sender.plan = plan.clone();

    match run_job(&job, plan, &mut sender) {
        Ok(()) => 0,
        Err(detail) => fail(&mut sender, detail),
    }
}

fn fail<W: Write>(sender: &mut ChaosSender<W>, detail: String) -> i32 {
    let _ = sender.send(&ChildMsg::Failed { detail });
    1
}

/// Train the job epoch-at-a-time and ship. Each epoch is an independent
/// `train_model` call resuming from the checkpoint dir, so the snapshot
/// on disk always trails the reported progress by less than one epoch.
fn run_job<W: Write>(
    job: &TrainJob,
    plan: Option<Arc<FaultPlan>>,
    sender: &mut ChaosSender<W>,
) -> Result<(), String> {
    let window: Vec<(Instance, f64)> = job
        .window
        .iter()
        .map(JobInstance::compile)
        .collect::<Result<_, _>>()?;
    let refs: Vec<(&Instance, f64)> = window.iter().map(|(i, o)| (i, *o)).collect();
    let val_n = refs.len().min(3);
    let val = &refs[refs.len() - val_n..];

    let mut store = None;
    for k in 1..=job.epochs.max(1) {
        let epoch = (k - 1) as u64;
        sender
            .send(&ChildMsg::Heartbeat { epoch })
            .map_err(|e| format!("heartbeat write failed: {e}"))?;

        let mut fresh = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(job.seed);
        let harp = Harp::new(&mut fresh, &mut rng, job.model);
        // a snapshot in the checkpoint dir, if any, overrides these
        load_params(&mut fresh, &job.warm_path)
            .map_err(|e| format!("starting params unreadable: {e}"))?;
        let tc = TrainConfig {
            epochs: k,
            batch_size: 4,
            lr: job.lr,
            patience: 0,
            workers: job.workers,
            checkpoint_dir: Some(job.checkpoint_dir.clone()),
            checkpoint_every: 1,
            seed: job.seed,
            chaos: plan.clone(),
            ..TrainConfig::default()
        };
        let report = train_model(&harp, &mut fresh, &refs, val, tc, EvalOptions::default())
            .map_err(|e| format!("epoch {epoch} failed: {e:?}"))?;
        // A restarted child whose snapshot already covers this epoch runs
        // zero fresh epochs (empty history): the heartbeat above keeps the
        // watchdog fed, and a progress frame would have no loss to report
        // (NaN is unrepresentable in JSON and must never hit the wire).
        if let Some(h) = report.history.last() {
            sender
                .send(&ChildMsg::Progress {
                    epoch,
                    loss: h.train_loss,
                    val: h.val_norm_mlu,
                })
                .map_err(|e| format!("progress write failed: {e}"))?;
        }
        store = Some(fresh);
    }

    let store = store.ok_or_else(|| "no epochs ran".to_string())?;
    save_params(&store, &job.params_out).map_err(|e| format!("params write failed: {e}"))?;
    if let Some(p) = &plan {
        // the parameter file is complete (atomic write); dying here tests
        // recovery at the ship rendezvous
        p.maybe_kill_trainer(0, TrainerPhase::Ship);
    }
    sender
        .send(&ChildMsg::Ship {
            generation: job.generation,
            path: job.params_out.display().to_string(),
        })
        .map_err(|e| format!("ship write failed: {e}"))?;
    sender
        .send(&ChildMsg::Done)
        .map_err(|e| format!("done write failed: {e}"))?;
    Ok(())
}
