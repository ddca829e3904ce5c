//! SLA scoring for a lifecycle run: per-tick NormMLU against a
//! per-snapshot LP oracle, per-storm time-to-recover, served-model
//! staleness, and the deterministic event log the reproducibility test
//! compares bit for bit.

use serde_json::Value;

/// One scored virtual tick.
#[derive(Clone, Debug)]
pub struct TickSample {
    /// Virtual tick (global snapshot index within the run).
    pub tick: usize,
    /// AnonNet cluster (lifecycle phase) the tick belongs to.
    pub cluster: usize,
    /// Serve-side topology epoch after this tick's updates.
    pub epoch: u64,
    /// Parameter generation the fleet served this tick.
    pub generation: u64,
    /// Trained-but-not-yet-served generations (`available - served`).
    pub staleness: u64,
    /// Served splits' max link utilization on the true (drifted) topology.
    pub model_mlu: f64,
    /// LP oracle MLU on the same instance.
    pub oracle_mlu: f64,
    /// `model_mlu / oracle_mlu`, floored at 1.
    pub norm_mlu: f64,
    /// Whether the fleet answered from fallback splits.
    pub degraded: bool,
}

/// Outcome of one scheduled storm.
#[derive(Clone, Debug)]
pub struct StormOutcome {
    /// Storm index in the scenario schedule.
    pub id: usize,
    /// Tick the storm struck.
    pub at_tick: usize,
    /// Scheduled duration in ticks.
    pub duration: usize,
    /// Links actually taken down (connectivity-preserving draws).
    pub links: Vec<(usize, usize)>,
    /// Pre-storm rolling NormMLU baseline.
    pub baseline: f64,
    /// Tick at which NormMLU returned to within the recover factor of the
    /// baseline (`None` = never inside this run/phase).
    pub recovered_at: Option<usize>,
    /// `recovered_at - at_tick`.
    pub ttr: Option<usize>,
}

/// Outcome of one online-retrain generation.
#[derive(Clone, Debug)]
pub struct RetrainOutcome {
    /// Parameter generation this retrain produced.
    pub generation: u64,
    /// Tick the NormMLU regression trigger fired.
    pub trigger_tick: usize,
    /// Tick the parameters reached the fleet (`None` = never shipped).
    pub shipped_tick: Option<usize>,
    /// Whether fine-tuning itself succeeded.
    pub ok: bool,
    /// Whether chaos corrupted the shipped checkpoint (forcing a re-ship).
    pub corrupted_ship: bool,
    /// Failure detail for `ok == false` runs, empty otherwise.
    pub detail: String,
}

/// The full scored run. Everything except [`LifecycleReport::wall_s`] is a
/// pure function of the scenario seed.
#[derive(Clone, Debug)]
pub struct LifecycleReport {
    /// Scenario name.
    pub scenario: String,
    /// Master seed.
    pub seed: u64,
    /// Per-tick SLA samples.
    pub ticks: Vec<TickSample>,
    /// Per-storm outcomes.
    pub storms: Vec<StormOutcome>,
    /// Per-retrain outcomes.
    pub retrains: Vec<RetrainOutcome>,
    /// Cluster-boundary maintenance windows (fleet respawns).
    pub maintenance_windows: usize,
    /// Connections the engine lost to chaos (each retried).
    pub conn_drops: u64,
    /// Checkpoint ships the fleet rejected (corrupt file).
    pub reload_rejects: u64,
    /// Worst `available - served` generation gap observed.
    pub max_staleness: u64,
    /// Ticks served with a stale model (staleness > 0).
    pub stale_ticks: usize,
    /// Mean NormMLU over all ticks.
    pub mean_norm_mlu: f64,
    /// 95th-percentile NormMLU.
    pub p95_norm_mlu: f64,
    /// Worst single-tick NormMLU.
    pub worst_norm_mlu: f64,
    /// Ticks answered from fallback splits.
    pub degraded_ticks: usize,
    /// Fleet-reported protocol errors (must be 0 — the engine only sends
    /// well-formed requests, even under chaos).
    pub protocol_errors: u64,
    /// Fleet-reported shed requests.
    pub shed_total: u64,
    /// Fleet-reported successful checkpoint reloads (current incarnation).
    pub reload_ok: u64,
    /// Fleet-reported failed checkpoint reloads (current incarnation).
    pub reload_failed: u64,
    /// Trainer-process restarts consumed across all supervised retrains.
    pub trainer_restarts: u64,
    /// Supervisor-counted IPC protocol violations (garbled, truncated, or
    /// malformed frames from the trainer child).
    pub trainer_ipc_errors: u64,
    /// Retrains whose trainer exhausted its restart budget and was
    /// declared dead (the fleet kept serving the last good generation).
    pub trainer_deaths: u64,
    /// Pending re-ships abandoned after the reship retry budget ran out.
    pub ships_abandoned: u64,
    /// The deterministic event log (virtual-time only, no wall clock).
    pub events: Vec<String>,
    /// Wall-clock runtime in seconds (excluded from determinism checks).
    pub wall_s: f64,
}

impl LifecycleReport {
    /// Full JSON document, including the non-deterministic `wall_s`.
    pub fn to_json(&self) -> Value {
        let mut doc = self.deterministic_json();
        if let Value::Object(map) = &mut doc {
            map.insert("wall_s".into(), Value::from(self.wall_s));
        }
        doc
    }

    /// The seed-determined projection: identical (as a string) across runs
    /// with the same scenario and seed. `bench_lifecycle --check` and the
    /// crate's reproducibility test (`tests/supervised.rs`) compare exactly this.
    pub fn deterministic_json(&self) -> Value {
        let ticks: Vec<Value> = self
            .ticks
            .iter()
            .map(|t| {
                serde_json::json!({
                    "tick": t.tick,
                    "cluster": t.cluster,
                    "epoch": t.epoch,
                    "generation": t.generation,
                    "staleness": t.staleness,
                    "model_mlu": t.model_mlu,
                    "oracle_mlu": t.oracle_mlu,
                    "norm_mlu": t.norm_mlu,
                    "degraded": t.degraded,
                })
            })
            .collect();
        let storms: Vec<Value> = self
            .storms
            .iter()
            .map(|s| {
                serde_json::json!({
                    "id": s.id,
                    "at_tick": s.at_tick,
                    "duration": s.duration,
                    "links": s.links.iter().map(|&(u, v)| {
                        serde_json::json!([u, v])
                    }).collect::<Vec<_>>(),
                    "baseline": s.baseline,
                    "recovered_at": opt_usize(s.recovered_at),
                    "ttr": opt_usize(s.ttr),
                })
            })
            .collect();
        let retrains: Vec<Value> = self
            .retrains
            .iter()
            .map(|r| {
                serde_json::json!({
                    "generation": r.generation,
                    "trigger_tick": r.trigger_tick,
                    "shipped_tick": opt_usize(r.shipped_tick),
                    "ok": r.ok,
                    "corrupted_ship": r.corrupted_ship,
                    "detail": r.detail.clone(),
                })
            })
            .collect();
        serde_json::json!({
            "scenario": self.scenario.clone(),
            "seed": self.seed,
            "ticks": ticks,
            "storms": storms,
            "retrains": retrains,
            "maintenance_windows": self.maintenance_windows,
            "conn_drops": self.conn_drops,
            "reload_rejects": self.reload_rejects,
            "max_staleness": self.max_staleness,
            "stale_ticks": self.stale_ticks,
            "mean_norm_mlu": self.mean_norm_mlu,
            "p95_norm_mlu": self.p95_norm_mlu,
            "worst_norm_mlu": self.worst_norm_mlu,
            "degraded_ticks": self.degraded_ticks,
            "protocol_errors": self.protocol_errors,
            "shed": self.shed_total,
            "reload_ok": self.reload_ok,
            "reload_failed": self.reload_failed,
            "trainer_restarts": self.trainer_restarts,
            "trainer_ipc_errors": self.trainer_ipc_errors,
            "trainer_deaths": self.trainer_deaths,
            "ships_abandoned": self.ships_abandoned,
            "events": self.events.clone(),
        })
    }
}

fn opt_usize(v: Option<usize>) -> Value {
    match v {
        Some(n) => Value::from(n as f64),
        None => Value::Null,
    }
}
