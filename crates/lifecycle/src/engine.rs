//! The lifecycle engine: a deterministic closed loop that replays an
//! AnonNet drift sequence into a live in-process `harp-serve` fleet while
//! a supervised `harp-trainerd` child fine-tunes on the drifted traffic
//! and the engine hot-ships each new parameter generation over
//! `reload_checkpoint`.
//!
//! Virtual time: one tick per replayed snapshot. Per tick the engine
//!
//! 1. handles the cluster boundary (maintenance window: fleet shutdown +
//!    respawn on the new topology with the freshest served parameters),
//! 2. translates the snapshot delta plus any scheduled storm transitions
//!    into one `topology_update`,
//! 3. rendezvouses with a due retrain — a [`TrainJob`] run to completion
//!    by `run_supervised`, restarts and all — and ships its parameters
//!    (optionally chaos-corrupted — the fleet rejects it and the engine
//!    re-ships clean next tick, surfacing as model staleness),
//! 4. scores one `infer` round trip against a per-snapshot LP oracle on
//!    the *true* drifted topology (snapshot capacities + storm failures),
//! 5. fires the retrain trigger when the rolling NormMLU regresses.
//!
//! Generation 0 is trained the same way before the first tick: a
//! [`TrainJob`] over the leading snapshots that starts from the seeded
//! init, so every generation comes out of the one supervised child path
//! and starts from the previous generation's parameter file.
//!
//! Every socket round trip is sequential (one request in flight), each
//! trainer job joins at a fixed virtual tick with only the supervisor's
//! logical log (no pids, no timings) folded into the event stream, and
//! all randomness is seeded, so the event log and every metric are
//! bitwise-reproducible per seed — `tests/supervised.rs` holds that bar.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use harp_chaos::FaultPlan;
use harp_core::{norm_mlu, percentile, Harp, HarpConfig, Instance, SplitModel};
use harp_datasets::{SnapshotStream, StreamItem};
use harp_nn::save_params;
use harp_opt::MluOracle;
use harp_serve::{serve, NetworkState, ServeConfig, ServerHandle};
use harp_tensor::ParamStore;
use harp_topology::{EdgeId, Topology};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde_json::Value;

use crate::metrics::{LifecycleReport, RetrainOutcome, StormOutcome, TickSample};
use crate::scenario::Scenario;
use crate::supervised::{run_supervised, SupervisedResult};
use crate::trainerd::{JobInstance, TrainJob};

/// A lifecycle run failed outside the scripted fault envelope.
#[derive(Debug)]
pub enum LifecycleError {
    /// Filesystem or socket failure.
    Io(io::Error),
    /// The fleet answered something the engine cannot reconcile with its
    /// mirror of the network state (a determinism bug, not chaos).
    Protocol(String),
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LifecycleError::Io(e) => write!(f, "lifecycle io error: {e}"),
            LifecycleError::Protocol(msg) => write!(f, "lifecycle protocol error: {msg}"),
        }
    }
}

impl std::error::Error for LifecycleError {}

impl From<io::Error> for LifecycleError {
    fn from(e: io::Error) -> Self {
        LifecycleError::Io(e)
    }
}

/// Serving shards in the fleet.
pub const SHARDS: usize = 2;
/// Per-request deadline. Generous: the drill measures SLA quality and
/// recovery, not serving latency, and a degraded answer on a loaded CI
/// host would break bitwise reproducibility.
const DEADLINE_MS: u64 = 60_000;
/// Trainer worker threads (1 keeps the rendezvous cheap).
const TRAIN_WORKERS: usize = 1;
/// Reload retries for a fleet-rejected ship before the generation is
/// abandoned.
const RESHIP_BUDGET: u64 = 3;

/// The architecture served and fine-tuned: a quick HARP.
fn model_config() -> HarpConfig {
    HarpConfig {
        gnn_layers: 1,
        settrans_layers: 1,
        rau_iters: 2,
        ..HarpConfig::default()
    }
}

/// Everything a lifecycle run needs beyond the [`Scenario`] itself:
/// scratch space, the trainer child, and the three independent chaos
/// plans (fleet, checkpoint shipping, trainer process).
#[derive(Clone, Debug)]
pub struct LifecycleConfig {
    /// The drill to run.
    pub scenario: Scenario,
    /// Scratch directory for checkpoints and shipped parameter files;
    /// wiped at the start of every run.
    pub work_dir: PathBuf,
    /// Connection faults injected into the fleet's accept loop.
    pub chaos_serve: Option<Arc<FaultPlan>>,
    /// Checkpoint corruption applied to shipped parameter files.
    pub chaos_ship: Option<Arc<FaultPlan>>,
    /// The trainer child's executable. `None` re-execs the current
    /// binary, which must call `maybe_run_child` first thing in `main`
    /// (as `bench_lifecycle` does); test harnesses pass the dedicated
    /// `harp-trainerd` binary instead.
    pub trainer_exe: Option<PathBuf>,
    /// Fault escalation script for the trainer child: one fault-plan
    /// spec per attempt (`chaos_proc[n]` arms on attempt n, later
    /// attempts run clean) — process faults (SIGKILL, garbled IPC)
    /// and in-fine-tune ones (worker kill, NaN gradient) alike. Empty =
    /// no trainer chaos. Generation 0's bootstrap job never gets one.
    pub chaos_proc: Vec<String>,
}

impl LifecycleConfig {
    /// Defaults for `scenario`: no chaos, the current binary as the
    /// trainer child, and a scratch dir under the system temp directory
    /// keyed by scenario name + seed.
    pub fn new(scenario: Scenario) -> Self {
        let work_dir = std::env::temp_dir().join(format!(
            "harp_lifecycle_{}_{}",
            scenario.name, scenario.seed
        ));
        LifecycleConfig {
            scenario,
            work_dir,
            chaos_serve: None,
            chaos_ship: None,
            trainer_exe: None,
            chaos_proc: Vec::new(),
        }
    }

    /// Apply the two path-valued deployment settings: the scratch dir
    /// (`HARP_LIFECYCLE_WORK_DIR`) and the trainer child's executable
    /// (`HARP_TRAINERD`).
    pub fn apply_env(mut self) -> Self {
        // lint: allow(env) — a deployment path, not a tuning value
        if let Ok(raw) = std::env::var("HARP_LIFECYCLE_WORK_DIR") {
            if !raw.is_empty() {
                self.work_dir = PathBuf::from(raw);
            }
        }
        // lint: allow(env) — a deployment path, not a tuning value
        if let Ok(raw) = std::env::var("HARP_TRAINERD") {
            if !raw.is_empty() {
                self.trainer_exe = Some(PathBuf::from(raw));
            }
        }
        self
    }
}

/// A storm currently being tracked (failed, restored, or awaiting
/// NormMLU recovery).
struct ActiveStorm {
    id: usize,
    at_tick: usize,
    duration: usize,
    ends: usize,
    links: Vec<(usize, usize)>,
    baseline: f64,
    recovered: Option<usize>,
}

impl ActiveStorm {
    fn into_outcome(self) -> StormOutcome {
        StormOutcome {
            id: self.id,
            at_tick: self.at_tick,
            duration: self.duration,
            links: self.links,
            baseline: self.baseline,
            recovered_at: self.recovered,
            ttr: self.recovered.map(|t| t - self.at_tick),
        }
    }
}

/// A supervised fine-tune in flight, joined at tick `due`.
struct InFlightRetrain {
    generation: u64,
    trigger_tick: usize,
    due: usize,
    work: JoinHandle<SupervisedResult>,
}

/// A trained generation on its way to the fleet. `attempt` 0 is the first
/// ship; every later one re-ships after the fleet rejected a reload.
struct PendingShip {
    generation: u64,
    store: ParamStore,
    attempt: u64,
}

/// Supervision counters summed over every trainer job of a run.
#[derive(Default)]
struct TrainerTotals {
    restarts: u64,
    ipc_errors: u64,
    deaths: u64,
}

impl TrainerTotals {
    /// Fold one joined trainer job in at `tick`: its logical log joins the
    /// event stream, its counters the totals, and its shipped parameter
    /// file is loaded into a copy of `like` (the fleet's architecture).
    /// `Err` says why the job left no usable generation.
    fn fold(
        &mut self,
        joined: std::thread::Result<SupervisedResult>,
        generation: u64,
        tick: usize,
        events: &mut Vec<String>,
        like: &ParamStore,
    ) -> Result<ParamStore, String> {
        let res = joined.map_err(|_| "supervisor thread panicked".to_string())?;
        events.extend(res.log.iter().map(|line| format!("t={tick} super {line}")));
        self.restarts += res.restarts;
        self.ipc_errors += res.ipc_errors;
        let Some(path) = res.params_path else {
            self.deaths += 1;
            harp_obs::warn_always(
                "lifecycle.trainer_dead",
                &[
                    ("generation", generation.into()),
                    ("detail", res.detail.clone().into()),
                ],
            );
            return Err(format!("trainer dead: {}", res.detail));
        };
        let mut store = like.clone();
        harp_nn::load_params(&mut store, &path).map_err(|e| {
            // an accepted ship with unreadable bits is a child bug, not ours
            self.ipc_errors += 1;
            format!("shipped params unreadable: {e}")
        })?;
        Ok(store)
    }
}

/// The job that trains `generation` into `gen_<g>.trained.json`, starting
/// from the previous generation's file (generation 0: the seeded init).
fn train_job(
    work_dir: &Path,
    generation: u64,
    window: Vec<JobInstance>,
    epochs: usize,
    lr: f32,
    seed: u64,
    chaos: Vec<String>,
) -> TrainJob {
    let trained = |g: u64| work_dir.join(format!("gen_{g}.trained.json"));
    TrainJob {
        model: model_config(),
        window,
        warm_path: match generation.checked_sub(1) {
            Some(prev) => trained(prev),
            None => work_dir.join("gen_0.init.json"),
        },
        checkpoint_dir: gen_dir(work_dir, generation),
        params_out: trained(generation),
        generation,
        workers: TRAIN_WORKERS,
        epochs,
        lr,
        seed,
        chaos,
    }
}

/// Run `job` under supervision on its own thread, from a clean checkpoint
/// dir. The thread only blocks on `run_supervised`, so the engine's
/// virtual clock keeps ticking while the child trains in real time.
fn launch(job: TrainJob, exe: PathBuf, seed: u64) -> JoinHandle<SupervisedResult> {
    let _ = fs::remove_dir_all(&job.checkpoint_dir);
    // the supervisor's seed drives only its backoff jitter
    let sseed = seed ^ 0x5EED_0005 ^ job.generation;
    std::thread::spawn(move || run_supervised(&job, &exe, sseed))
}

/// Run one lifecycle drill to completion and score it.
pub fn run_lifecycle(cfg: &LifecycleConfig) -> Result<LifecycleReport, LifecycleError> {
    let started = Instant::now();
    let sc = &cfg.scenario;
    let mut anonnet = sc.anonnet.clone();
    anonnet.seed = sc.seed;
    let zero_cap = anonnet.zero_cap;

    let _ = fs::remove_dir_all(&cfg.work_dir);
    fs::create_dir_all(&cfg.work_dir)?;

    harp_obs::event("lifecycle.start")
        .field("scenario", sc.name.clone())
        .field("seed", sc.seed)
        .field("shards", SHARDS)
        .emit();

    // ------------------------------------------------------------------
    // Bootstrap: pull the leading snapshots and train generation 0 on
    // them in the supervised child, from the seeded init. The prefix is
    // replayed as live traffic afterwards — the model serves the very
    // window it learned from, then drifts away from it.
    // ------------------------------------------------------------------
    let mut stream = SnapshotStream::new(&anonnet);
    let mut prefix: Vec<StreamItem> = Vec::new();
    for _ in 0..sc.bootstrap_ticks.max(1) {
        match stream.next() {
            Some(item) => prefix.push(item),
            None => break,
        }
    }
    if prefix.is_empty() {
        return Err(LifecycleError::Protocol(
            "snapshot stream is empty".to_string(),
        ));
    }

    let oracle = MluOracle::default();
    let exe = match &cfg.trainer_exe {
        Some(p) => p.clone(),
        None => std::env::current_exe()?,
    };
    let mut init = ParamStore::new();
    let mut mrng = StdRng::seed_from_u64(sc.seed ^ 0x11FE_C0DE);
    let harp = Harp::new(&mut init, &mut mrng, model_config());
    let boot = train_job(
        &cfg.work_dir,
        0,
        prefix
            .iter()
            .map(|item| bootstrap_instance(item, zero_cap, &oracle))
            .collect(),
        sc.bootstrap_epochs,
        2e-3,
        sc.seed ^ 0xB007,
        Vec::new(),
    );
    save_params(&init, &boot.warm_path)?;

    let mut events: Vec<String> = Vec::new();
    let mut totals = TrainerTotals::default();
    let mut current_params = totals
        .fold(
            launch(boot, exe.clone(), sc.seed).join(),
            0,
            0,
            &mut events,
            &init,
        )
        .map_err(|e| LifecycleError::Protocol(format!("bootstrap training failed: {e}")))?;
    let model: Arc<dyn SplitModel + Send + Sync> = Arc::new(harp);

    // ------------------------------------------------------------------
    // Engine state.
    // ------------------------------------------------------------------
    let mut ticks_out: Vec<TickSample> = Vec::new();
    let mut storms_out: Vec<StormOutcome> = Vec::new();
    let mut retrains_out: Vec<RetrainOutcome> = Vec::new();

    let mut fleet: Option<(ServerHandle, SocketAddr)> = None;
    let mut mirror: Option<NetworkState> = None;
    let mut link_ids: BTreeMap<(usize, usize), (EdgeId, EdgeId)> = BTreeMap::new();
    let mut gen_down: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut active_storms: Vec<ActiveStorm> = Vec::new();
    let mut flash: Option<(usize, f64)> = None; // (end tick, multiplier)

    // the recent scored ticks in wire form: a triggered retrain
    // serializes this window into the child's job
    let mut ring: VecDeque<JobInstance> = VecDeque::new();
    let mut rolling: VecDeque<f64> = VecDeque::new();
    let mut warm: Option<Vec<f64>> = None;

    let mut in_flight: Option<InFlightRetrain> = None;
    let mut pending_ship: Option<PendingShip> = None;
    let mut last_trigger: Option<usize> = None;
    let mut available_gen: u64 = 0;
    let mut served_gen: u64 = 0;
    let mut fleet_gen: u64 = 0; // per-incarnation, mirrors serve's counter

    let mut req_id: u64 = 0;
    let mut conn_drops: u64 = 0;
    let mut reload_rejects: u64 = 0;
    let mut maintenance_windows = 0usize;
    let mut max_staleness: u64 = 0;
    let mut stale_ticks = 0usize;
    let mut degraded_ticks = 0usize;
    let mut ships_abandoned: u64 = 0;

    let mut tick = 0usize;
    let source = prefix.into_iter().chain(&mut stream);

    for item in source {
        if sc.max_ticks > 0 && tick >= sc.max_ticks {
            break;
        }
        let header = item.cluster.clone();

        // -------------------------------------------------- phase edge
        if item.delta.new_cluster {
            if let Some((h, _)) = fleet.take() {
                for st in active_storms.drain(..) {
                    events.push(format!(
                        "t={tick} storm_closed id={} recovered={}",
                        st.id,
                        st.recovered.is_some()
                    ));
                    storms_out.push(st.into_outcome());
                }
                flash = None;
                h.shutdown();
                maintenance_windows += 1;
                events.push(format!("t={tick} maintenance cluster={}", header.id));
                harp_obs::event("lifecycle.maintenance")
                    .field("tick", tick)
                    .field("cluster", header.id)
                    .emit();
            } else {
                events.push(format!("t={tick} start cluster={}", header.id));
            }

            let scfg = ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                deadline_ms: DEADLINE_MS,
                max_batch: 8,
                read_timeout_ms: 30_000,
                max_line_bytes: 1 << 20,
                shards: SHARDS,
                max_conns: 64,
                queue_limit: 64,
                chaos: cfg.chaos_serve.clone(),
            };
            let h = serve(
                scfg,
                model.clone(),
                current_params.clone(),
                header.topo.clone(),
                header.tunnels.clone(),
            )?;
            let a = h.addr();
            fleet = Some((h, a));
            mirror = Some(NetworkState::new(
                header.topo.clone(),
                header.tunnels.clone(),
            ));
            link_ids = header
                .topo
                .links()
                .into_iter()
                .map(|(u, v, f, r)| ((u, v), (f, r)))
                .collect();
            gen_down.clear();
            ring.clear();
            rolling.clear();
            warm = None;
            fleet_gen = 0;
            // the respawn serves the freshest trained parameters
            served_gen = available_gen;
            pending_ship = None;
        }
        let addr = fleet.as_ref().expect("fleet spawned at cluster start").1;
        let state = mirror.as_mut().expect("mirror tracks the fleet");

        // --------------------------------------- drift + storm schedule
        let mut fail: BTreeSet<(usize, usize)> = item.delta.failed_links.iter().copied().collect();
        let mut restore: BTreeSet<(usize, usize)> =
            item.delta.restored_links.iter().copied().collect();
        for l in &fail {
            gen_down.insert(*l);
        }
        for l in &restore {
            gen_down.remove(l);
        }

        for st in active_storms.iter() {
            if st.ends == tick {
                for l in &st.links {
                    // a link the generator also holds down stays down
                    if !gen_down.contains(l) {
                        restore.insert(*l);
                        fail.remove(l);
                    }
                }
                events.push(format!("t={tick} storm_end id={}", st.id));
                harp_obs::event("lifecycle.storm_end")
                    .field("tick", tick)
                    .field("storm", st.id)
                    .emit();
            }
        }

        for (i, storm) in sc.storms.iter().enumerate() {
            if storm.at_tick != tick {
                continue;
            }
            let baseline = if rolling.is_empty() {
                1.05
            } else {
                rolling.iter().sum::<f64>() / rolling.len() as f64
            };
            let mut srng = StdRng::seed_from_u64(sc.seed ^ 0x0570_0421 ^ ((i as u64) << 8));
            let links = pick_storm_links(
                state.topology(),
                &link_ids,
                &fail,
                storm.links,
                zero_cap,
                &mut srng,
            );
            if links.is_empty() {
                events.push(format!("t={tick} storm_skipped id={i}"));
                continue;
            }
            for l in &links {
                fail.insert(*l);
                restore.remove(l);
            }
            events.push(format!("t={tick} storm_start id={i} links={links:?}"));
            harp_obs::event("lifecycle.storm_start")
                .field("tick", tick)
                .field("storm", i)
                .field("links", links.len())
                .emit();
            active_storms.push(ActiveStorm {
                id: i,
                at_tick: tick,
                duration: storm.duration,
                ends: tick + storm.duration,
                links,
                baseline,
                recovered: None,
            });
        }

        if !fail.is_empty() || !restore.is_empty() {
            let fail_v: Vec<(usize, usize)> = fail.iter().copied().collect();
            let restore_v: Vec<(usize, usize)> = restore.iter().copied().collect();
            req_id += 1;
            let req = serde_json::json!({
                "id": req_id,
                "type": "topology_update",
                "fail_links": pairs_json(&fail_v),
                "restore_links": pairs_json(&restore_v),
            })
            .to_string();
            let resp = control_retry(addr, &req, tick, &mut conn_drops, &mut events)?;
            let summary = state
                .apply_update(&fail_v, &restore_v)
                .map_err(LifecycleError::Protocol)?;
            let fleet_epoch = resp.get("epoch").and_then(Value::as_f64);
            if fleet_epoch != Some(state.epoch() as f64) {
                return Err(LifecycleError::Protocol(format!(
                    "epoch skew after update: fleet {fleet_epoch:?} vs mirror {}",
                    state.epoch()
                )));
            }
            events.push(format!(
                "t={tick} topo_update fail={} restore={} epoch={} tunnels={}",
                fail_v.len(),
                restore_v.len(),
                state.epoch(),
                summary.num_tunnels,
            ));
        }

        // ----------------------------------------------- rendezvous
        if in_flight.as_ref().is_some_and(|fl| tick >= fl.due) {
            let fl = in_flight.take().expect("checked in flight");
            // The wall-clock drama (restarts, backoff, watchdog kills)
            // already happened inside the join; only the supervisor's
            // logical log is folded into the virtual-time event stream, at
            // this deterministic rendezvous tick.
            let trained = totals.fold(
                fl.work.join(),
                fl.generation,
                tick,
                &mut events,
                &current_params,
            );
            let ok = trained.is_ok();
            let detail = match trained {
                Ok(store) => {
                    available_gen = fl.generation;
                    pending_ship = Some(PendingShip {
                        generation: fl.generation,
                        store,
                        attempt: 0,
                    });
                    String::new()
                }
                Err(detail) => {
                    // a failed fine-tune leaves no usable generation; wipe
                    // its checkpoints so a later retry cannot resume them
                    let _ = fs::remove_dir_all(gen_dir(&cfg.work_dir, fl.generation));
                    events.push(format!(
                        "t={tick} retrain_failed gen={} detail={detail}",
                        fl.generation
                    ));
                    harp_obs::event("lifecycle.retrain_failed")
                        .field("tick", tick)
                        .field("generation", fl.generation)
                        .emit();
                    detail
                }
            };
            retrains_out.push(RetrainOutcome {
                generation: fl.generation,
                trigger_tick: fl.trigger_tick,
                shipped_tick: None,
                ok,
                corrupted_ship: false,
                detail,
            });
        }

        // ------------------------------------------------ model shipping
        if let Some(mut ship) = pending_ship.take() {
            let (g, attempt) = (ship.generation, ship.attempt);
            // The ship chaos plan is consulted on every write: a spec with
            // several corrupt-checkpoint faults can poison successive
            // re-ships and drive the retry budget.
            let path = ship_path(&cfg.work_dir, g);
            save_params(&ship.store, &path)?;
            let mut corrupted = false;
            if let Some(plan) = &cfg.chaos_ship {
                let mut bytes = fs::read(&path)?;
                if plan.corrupt_checkpoint_write(&mut bytes).is_some() {
                    fs::write(&path, &bytes)?;
                    corrupted = true;
                }
            }
            req_id += 1;
            let req = serde_json::json!({
                "id": req_id,
                "type": "reload_checkpoint",
                "path": path.display().to_string(),
            })
            .to_string();
            let resp = control_retry(addr, &req, tick, &mut conn_drops, &mut events)?;
            // every shard must accept the file
            let ok = resp.get("ok").and_then(Value::as_bool) == Some(true);
            harp_obs::event("lifecycle.ship")
                .field("tick", tick)
                .field("generation", g)
                .field("attempt", attempt)
                .field("corrupted", corrupted)
                .field("accepted", ok)
                .emit();
            // the outcome pushed at this generation's rendezvous
            if let Some(r) = retrains_out.last_mut() {
                if attempt == 0 {
                    r.corrupted_ship = corrupted;
                }
                if ok {
                    r.shipped_tick = Some(tick);
                }
            }
            let verb = if attempt == 0 { "ship" } else { "reship" };
            let line = format!("t={tick} {verb} gen={g} corrupted={corrupted} ok={ok}");
            if ok {
                fleet_gen += 1;
                state.bump_epoch();
                check_reload_reply(&resp, state.epoch(), fleet_gen)?;
                served_gen = g;
                current_params = ship.store;
                events.push(line);
            } else {
                reload_rejects += 1;
                if attempt >= RESHIP_BUDGET {
                    // the generation is undeliverable: stop retrying and
                    // let staleness reflect the gap
                    ships_abandoned += 1;
                    events.push(format!(
                        "t={tick} ship_abandoned gen={g} attempts={attempt}"
                    ));
                    harp_obs::warn_always(
                        "lifecycle.ship_abandoned",
                        &[("generation", g.into()), ("attempts", attempt.into())],
                    );
                } else {
                    events.push(line);
                    ship.attempt += 1;
                    pending_ship = Some(ship);
                }
            }
        }

        // ------------------------------------------------- flash crowds
        if let Some((ends, _)) = flash {
            if ends == tick {
                flash = None;
                events.push(format!("t={tick} flash_end"));
            }
        }
        for fc in &sc.flash_crowds {
            if fc.at_tick == tick {
                flash = Some((tick + fc.duration, fc.multiplier));
                events.push(format!(
                    "t={tick} flash_start x{:.2} ticks={}",
                    fc.multiplier, fc.duration
                ));
            }
        }

        // -------------------------------------------------- score a tick
        let storm_down: BTreeSet<(usize, usize)> = active_storms
            .iter()
            .filter(|st| st.at_tick <= tick && tick < st.ends)
            .flat_map(|st| st.links.iter().copied())
            .collect();
        let multiplier = flash.map_or(1.0, |(_, m)| m);
        let (inst, tm_pairs, scored_topo, scored_tm) = scored_instance(
            &item,
            state.tunnels(),
            &storm_down,
            &link_ids,
            zero_cap,
            multiplier,
        );
        let warm_ref = warm
            .as_deref()
            .filter(|w| w.len() == inst.program.num_tunnels());
        let sol = oracle.solve_warm(&inst.program, warm_ref);
        let oracle_mlu = sol.mlu;
        warm = Some(sol.splits);

        req_id += 1;
        let req = serde_json::json!({
            "id": req_id,
            "type": "infer",
            "demands": tm_pairs,
            "epoch": state.epoch(),
            "deadline_ms": DEADLINE_MS,
        })
        .to_string();
        let resp = control_retry(addr, &req, tick, &mut conn_drops, &mut events)?;
        if resp.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(LifecycleError::Protocol(format!(
                "infer at tick {tick} rejected: {resp}"
            )));
        }
        let degraded = resp.get("degraded").and_then(Value::as_bool) == Some(true);
        let splits: Vec<f64> = resp
            .get("splits")
            .and_then(Value::as_array)
            .ok_or_else(|| {
                LifecycleError::Protocol(format!("infer at tick {tick}: no splits array"))
            })?
            .iter()
            .filter_map(Value::as_f64)
            .collect();
        if splits.len() != inst.program.num_tunnels() {
            return Err(LifecycleError::Protocol(format!(
                "splits length skew at tick {tick}: fleet {} vs mirror {}",
                splits.len(),
                inst.program.num_tunnels()
            )));
        }
        let model_mlu = inst.program.mlu(&splits);
        let nm = norm_mlu(model_mlu, oracle_mlu);

        ring.push_back(JobInstance::from_parts(
            &scored_topo,
            state.tunnels(),
            &scored_tm,
            oracle_mlu,
        ));
        while ring.len() > sc.retrain.train_window {
            ring.pop_front();
        }
        rolling.push_back(nm);
        while rolling.len() > sc.retrain.rolling_window {
            rolling.pop_front();
        }

        for st in active_storms.iter_mut() {
            if st.recovered.is_none() && tick > st.at_tick && nm <= st.baseline * sc.recover_factor
            {
                st.recovered = Some(tick);
                events.push(format!(
                    "t={tick} storm_recovered id={} ttr={}",
                    st.id,
                    tick - st.at_tick
                ));
                harp_obs::event("lifecycle.storm_recovered")
                    .field("tick", tick)
                    .field("storm", st.id)
                    .field("ttr", tick - st.at_tick)
                    .emit();
            }
        }
        let mut still = Vec::new();
        for st in active_storms.drain(..) {
            if st.recovered.is_some() && st.ends <= tick {
                storms_out.push(st.into_outcome());
            } else {
                still.push(st);
            }
        }
        active_storms = still;

        // ---------------------------------------------- retrain trigger
        let rolling_mean = rolling.iter().sum::<f64>() / rolling.len().max(1) as f64;
        let interval_ok = last_trigger.is_none_or(|t| tick >= t + sc.retrain.min_interval);
        // once a supervised trainer exhausts its restart budget the engine
        // stops triggering retrains: the fleet serves its last good
        // generation for the rest of the run (the surfaced staleness signal)
        if in_flight.is_none()
            && pending_ship.is_none()
            && totals.deaths == 0
            && rolling.len() >= sc.retrain.rolling_window
            && interval_ok
            && rolling_mean > sc.retrain.normmlu_trigger
            && ring.len() >= 4
        {
            let generation = available_gen + 1;
            last_trigger = Some(tick);
            let job = train_job(
                &cfg.work_dir,
                generation,
                ring.iter().cloned().collect(),
                sc.retrain.epochs,
                sc.retrain.lr,
                sc.seed ^ 0x7281 ^ generation,
                cfg.chaos_proc.clone(),
            );
            in_flight = Some(InFlightRetrain {
                generation,
                trigger_tick: tick,
                due: tick + sc.retrain.ship_delay,
                work: launch(job, exe.clone(), sc.seed),
            });
            events.push(format!(
                "t={tick} retrain_trigger gen={generation} rolling={rolling_mean:.4}"
            ));
            harp_obs::event("lifecycle.retrain_trigger")
                .field("tick", tick)
                .field("generation", generation)
                .field("rolling_norm_mlu", rolling_mean)
                .emit();
        }

        // ------------------------------------------------- tick sample
        let staleness = available_gen - served_gen;
        if staleness > 0 {
            stale_ticks += 1;
            max_staleness = max_staleness.max(staleness);
        }
        if degraded {
            degraded_ticks += 1;
        }
        ticks_out.push(TickSample {
            tick,
            cluster: header.id,
            epoch: state.epoch(),
            generation: served_gen,
            staleness,
            model_mlu,
            oracle_mlu,
            norm_mlu: nm,
            degraded,
        });
        tick += 1;
    }

    // ---------------------------------------------------------- wrap up
    if let Some(fl) = in_flight.take() {
        // the run ended before the rendezvous tick; run the supervised
        // child to completion so it is reaped, but nothing ships
        let ok = totals
            .fold(
                fl.work.join(),
                fl.generation,
                tick,
                &mut events,
                &current_params,
            )
            .is_ok();
        events.push(format!(
            "t={tick} retrain_abandoned gen={} trained={ok}",
            fl.generation
        ));
        retrains_out.push(RetrainOutcome {
            generation: fl.generation,
            trigger_tick: fl.trigger_tick,
            shipped_tick: None,
            ok,
            corrupted_ship: false,
            detail: "run ended before ship".to_string(),
        });
    }
    for st in active_storms.drain(..) {
        storms_out.push(st.into_outcome());
    }

    let (handle, addr) = fleet.take().ok_or_else(|| {
        LifecycleError::Protocol("no ticks were replayed (stream shorter than bootstrap)".into())
    })?;
    req_id += 1;
    let stats_req = serde_json::json!({"id": req_id, "type": "stats"}).to_string();
    let stats = control_retry(addr, &stats_req, tick, &mut conn_drops, &mut events)?;
    handle.shutdown();

    let norms: Vec<f64> = ticks_out.iter().map(|t| t.norm_mlu).collect();
    let mean_norm_mlu = norms.iter().sum::<f64>() / norms.len().max(1) as f64;
    let p95_norm_mlu = percentile(&norms, 95.0).unwrap_or(f64::NAN);
    let worst_norm_mlu = norms.iter().cloned().fold(f64::NAN, f64::max);

    let report = LifecycleReport {
        scenario: sc.name.clone(),
        seed: sc.seed,
        ticks: ticks_out,
        storms: storms_out,
        retrains: retrains_out,
        maintenance_windows,
        conn_drops,
        reload_rejects,
        max_staleness,
        stale_ticks,
        mean_norm_mlu,
        p95_norm_mlu,
        worst_norm_mlu,
        degraded_ticks,
        protocol_errors: stats_counter(&stats, "protocol_errors")?,
        shed_total: stats_counter(&stats, "shed")?,
        reload_ok: stats_counter(&stats, "reload_ok")?,
        reload_failed: stats_counter(&stats, "reload_failed")?,
        trainer_restarts: totals.restarts,
        trainer_ipc_errors: totals.ipc_errors,
        trainer_deaths: totals.deaths,
        ships_abandoned,
        events,
        wall_s: started.elapsed().as_secs_f64(),
    };
    harp_obs::event("lifecycle.done")
        .field("ticks", report.ticks.len())
        .field("mean_norm_mlu", report.mean_norm_mlu)
        .field("max_staleness", report.max_staleness)
        .emit();
    Ok(report)
}

/// One bootstrap snapshot in wire form, labelled with its LP optimum:
/// snapshot capacities (partial degradations included) and the cluster's
/// tunnels pruned by every link at the zero-capacity floor.
fn bootstrap_instance(item: &StreamItem, zero_cap: f64, oracle: &MluOracle) -> JobInstance {
    let caps = &item.snapshot.capacities;
    let down_edges: BTreeSet<EdgeId> = item
        .cluster
        .topo
        .links()
        .into_iter()
        .flat_map(|(_, _, f, r)| [f, r])
        .filter(|&e| caps[e] <= zero_cap * 1.000_001)
        .collect();
    let mut topo = item.cluster.topo.clone();
    topo.set_capacities(caps)
        .expect("capacities aligned to the cluster topology");
    let tunnels = item.cluster.tunnels.without_edges(&down_edges);
    let tm = &item.snapshot.tm;
    let opt = oracle
        .solve(&Instance::compile(&topo, &tunnels, tm).program)
        .mlu;
    JobInstance::from_parts(&topo, &tunnels, tm, opt)
}

/// The scored view of one live tick: the *fleet's* pruned tunnel set over
/// the drifted capacities (storm links floored), so the served splits
/// line up with the program one-to-one. Also returns the drifted topology and scaled TM —
/// the raw parts a retrain serializes into its job window.
fn scored_instance(
    item: &StreamItem,
    fleet_tunnels: &harp_paths::TunnelSet,
    storm_down: &BTreeSet<(usize, usize)>,
    link_ids: &BTreeMap<(usize, usize), (EdgeId, EdgeId)>,
    zero_cap: f64,
    multiplier: f64,
) -> (Instance, Vec<Value>, Topology, harp_traffic::TrafficMatrix) {
    let mut caps = item.snapshot.capacities.clone();
    for l in storm_down {
        let (f, r) = link_ids[l];
        caps[f] = zero_cap;
        caps[r] = zero_cap;
    }
    let mut topo = item.cluster.topo.clone();
    topo.set_capacities(&caps)
        .expect("capacities aligned to the cluster topology");
    let tm = item.snapshot.tm.scaled(multiplier);
    let inst = Instance::compile(&topo, fleet_tunnels, &tm);
    let pairs = demand_pairs(&tm);
    (inst, pairs, topo, tm)
}

/// All strictly-positive demands of a TM as `[s, t, d]` JSON triples.
fn demand_pairs(tm: &harp_traffic::TrafficMatrix) -> Vec<Value> {
    let n = tm.num_nodes();
    let mut pairs = Vec::new();
    for s in 0..n {
        for t in 0..n {
            let d = tm.demand(s, t);
            if d > 0.0 {
                pairs.push(serde_json::json!([s, t, d]));
            }
        }
    }
    pairs
}

fn pairs_json(links: &[(usize, usize)]) -> Vec<Value> {
    links
        .iter()
        .map(|&(u, v)| serde_json::json!([u, v]))
        .collect()
}

/// Draw up to `want` currently-up links whose loss keeps the *active*
/// subgraph connected (the cluster topology spans the full node universe,
/// so this mirrors the generator's commissioned-subgraph failure rule
/// rather than whole-graph strong connectivity).
fn pick_storm_links(
    current: &Topology,
    link_ids: &BTreeMap<(usize, usize), (EdgeId, EdgeId)>,
    queued_fail: &BTreeSet<(usize, usize)>,
    want: usize,
    zero_cap: f64,
    rng: &mut StdRng,
) -> Vec<(usize, usize)> {
    let thresh = zero_cap * 10.0;
    let mut live: BTreeSet<(usize, usize)> = link_ids
        .iter()
        .filter(|(l, &(f, _))| current.capacity(f) > thresh && !queued_fail.contains(l))
        .map(|(l, _)| *l)
        .collect();
    // the node set is pinned before any draw: a pick that isolates a
    // currently-active node is rejected, like the generator's rule
    let nodes: BTreeSet<usize> = live.iter().flat_map(|&(u, v)| [u, v]).collect();
    let mut candidates: Vec<(usize, usize)> = live.iter().copied().collect();
    let mut picked = Vec::new();
    while picked.len() < want && !candidates.is_empty() {
        let i = rng.gen_range(0..candidates.len());
        let l = candidates.swap_remove(i);
        live.remove(&l);
        if undirected_connected(&live, &nodes) {
            picked.push(l);
        } else {
            live.insert(l);
        }
    }
    picked.sort_unstable();
    picked
}

/// Are all of `nodes` mutually reachable over the undirected `live` links?
fn undirected_connected(live: &BTreeSet<(usize, usize)>, nodes: &BTreeSet<usize>) -> bool {
    let Some(&start) = nodes.iter().next() else {
        return true;
    };
    let mut adj: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &(u, v) in live {
        adj.entry(u).or_default().push(v);
        adj.entry(v).or_default().push(u);
    }
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    seen.insert(start);
    let mut stack = vec![start];
    while let Some(u) = stack.pop() {
        for &v in adj.get(&u).map_or(&[][..], Vec::as_slice) {
            if seen.insert(v) {
                stack.push(v);
            }
        }
    }
    nodes.iter().all(|n| seen.contains(n))
}

fn gen_dir(work_dir: &Path, generation: u64) -> PathBuf {
    work_dir.join(format!("gen{generation:03}"))
}

fn ship_path(work_dir: &Path, generation: u64) -> PathBuf {
    work_dir.join(format!("ship_gen{generation:03}.json"))
}

/// A fleet `stats` counter. A missing or non-integer one is a protocol
/// error, so a renamed key can never pass a gate as zero.
fn stats_counter(stats: &Value, key: &str) -> Result<u64, LifecycleError> {
    stats.get(key).and_then(Value::as_u64).ok_or_else(|| {
        LifecycleError::Protocol(format!("fleet stats: `{key}` missing or not a count"))
    })
}

/// Cross-check a successful reload reply against the engine's mirror.
fn check_reload_reply(resp: &Value, epoch: u64, generation: u64) -> Result<(), LifecycleError> {
    let repoch = resp.get("epoch").and_then(Value::as_f64);
    let rgen = resp.get("generation").and_then(Value::as_f64);
    if repoch != Some(epoch as f64) || rgen != Some(generation as f64) {
        return Err(LifecycleError::Protocol(format!(
            "reload skew: fleet epoch {repoch:?} gen {rgen:?} vs mirror epoch {epoch} gen {generation}"
        )));
    }
    Ok(())
}

/// Fire one request on its own connection and return the parsed reply
/// (`None` = the connection died, e.g. a chaos drop at accept).
fn control_once(addr: SocketAddr, line: &str) -> Option<Value> {
    let stream = TcpStream::connect(addr).ok()?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(120)));
    let mut reader = BufReader::new(stream.try_clone().ok()?);
    let mut writer = stream;
    writer.write_all(line.as_bytes()).ok()?;
    writer.write_all(b"\n").ok()?;
    writer.flush().ok()?;
    let mut resp = String::new();
    reader.read_line(&mut resp).ok()?;
    if resp.is_empty() {
        return None; // dropped before answering
    }
    serde_json::from_str(&resp).ok()
}

/// Retry a request through chaos-dropped connections, counting each drop
/// into the event log. Five consecutive losses is a real failure.
fn control_retry(
    addr: SocketAddr,
    line: &str,
    tick: usize,
    conn_drops: &mut u64,
    events: &mut Vec<String>,
) -> Result<Value, LifecycleError> {
    for _ in 0..5 {
        match control_once(addr, line) {
            Some(v) => return Ok(v),
            None => {
                *conn_drops += 1;
                events.push(format!("t={tick} conn_drop"));
                harp_obs::event("lifecycle.conn_drop")
                    .field("tick", tick)
                    .emit();
            }
        }
    }
    Err(LifecycleError::Protocol(format!(
        "connection to the fleet dropped 5 times in a row at tick {tick}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_or_non_integer_stats_counter_is_a_protocol_error() {
        let stats = serde_json::json!({"shed": 3, "reload_ok": 1.5, "protocol_errors": -1});
        assert_eq!(stats_counter(&stats, "shed").ok(), Some(3));
        for key in ["reload_ok", "protocol_errors", "reload_failed"] {
            assert!(
                matches!(stats_counter(&stats, key), Err(LifecycleError::Protocol(_))),
                "{key}"
            );
        }
    }
}
