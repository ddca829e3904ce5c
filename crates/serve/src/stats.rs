//! Serving counters and latency percentiles.
//!
//! Two sinks fed from one recording API: process-local atomics answering
//! the `stats` request (always on, so operators can poll the daemon
//! without enabling observability), and the shared `harp-obs` registry
//! (counters/histograms/spans) so serve metrics land in the same
//! `HARP_OBS` report as kernel and training metrics.
//!
//! Load-shed decisions get the same per-reason treatment as degraded
//! responses: every shed is counted under its [`ShedReason`] both locally
//! and in the `serve.shed.*` obs counters, so an overloaded fleet is
//! diagnosable from the `stats` reply alone.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use harp_core::percentile;
use harp_obs::{Counter, Histogram};
use serde_json::Value;

/// Latency observations kept for percentile estimates (ring buffer).
const LATENCY_WINDOW: usize = 4096;

// harp-obs registry statics: no-ops while the sink is off.
static OBS_REQUESTS: Counter = Counter::new("serve.requests");
static OBS_DEGRADED: Counter = Counter::new("serve.degraded");
static OBS_ERRORS: Counter = Counter::new("serve.protocol_errors");
static OBS_SHED_OVERLOAD: Counter = Counter::new("serve.shed.overload");
static OBS_SHED_CONN_LIMIT: Counter = Counter::new("serve.shed.conn_limit");
static OBS_SHED_STALE: Counter = Counter::new("serve.shed.stale_epoch");
static OBS_CONNS: Counter = Counter::new("serve.conns_accepted");
static OBS_FAILOVER: Counter = Counter::new("serve.shard_failover");
static OBS_LATENCY_US: Histogram = Histogram::new("serve.request_us");
static OBS_BATCH_SIZE: Histogram = Histogram::new("serve.batch_size");
static OBS_QUEUE_DEPTH: Histogram = Histogram::new("serve.queue_depth");

/// Why a response was served from fallback splits instead of the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradeReason {
    /// The deadline expired before (or while) the model ran.
    DeadlineMiss,
    /// The model produced non-finite splits or MLU.
    ModelError,
}

/// Why a request (or connection) was refused outright instead of queued —
/// admission control's per-reason ledger, mirroring [`DegradeReason`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// Every eligible shard's queue was at the configured limit.
    Overload,
    /// The connection cap was reached; the connection was refused.
    ConnLimit,
}

impl ShedReason {
    /// Stable wire code used as `error_kind` in shed responses.
    pub fn code(self) -> &'static str {
        match self {
            ShedReason::Overload => "shed_overload",
            ShedReason::ConnLimit => "shed_conn_limit",
        }
    }
}

/// Thread-safe serving counters (the reactor and every shard record into
/// one shared instance).
#[derive(Debug, Default)]
pub struct ServeStats {
    requests: AtomicU64,
    infer_ok: AtomicU64,
    degraded_deadline: AtomicU64,
    degraded_model_error: AtomicU64,
    stale_epoch: AtomicU64,
    topology_updates: AtomicU64,
    epoch_builds: AtomicU64,
    epoch_reuses: AtomicU64,
    reload_ok: AtomicU64,
    reload_failed: AtomicU64,
    protocol_errors: AtomicU64,
    shed_overload: AtomicU64,
    shed_conn_limit: AtomicU64,
    shard_failovers: AtomicU64,
    conns_accepted: AtomicU64,
    conns_closed: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    max_batch: AtomicU64,
    latencies_us: Mutex<VecDeque<u64>>,
}

impl ServeStats {
    /// Fresh zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one parsed request of any type.
    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        OBS_REQUESTS.add(1);
    }

    /// Count a successful model-served inference and its latency.
    pub fn record_infer_ok(&self, latency_us: u64) {
        self.infer_ok.fetch_add(1, Ordering::Relaxed);
        self.push_latency(latency_us);
    }

    /// Count a degraded (fallback-served) inference and its latency.
    pub fn record_degraded(&self, reason: DegradeReason, latency_us: u64) {
        match reason {
            DegradeReason::DeadlineMiss => &self.degraded_deadline,
            DegradeReason::ModelError => &self.degraded_model_error,
        }
        .fetch_add(1, Ordering::Relaxed);
        OBS_DEGRADED.add(1);
        self.push_latency(latency_us);
    }

    /// Count one shed decision under its reason.
    pub fn record_shed(&self, reason: ShedReason) {
        match reason {
            ShedReason::Overload => {
                self.shed_overload.fetch_add(1, Ordering::Relaxed);
                OBS_SHED_OVERLOAD.add(1);
            }
            ShedReason::ConnLimit => {
                self.shed_conn_limit.fetch_add(1, Ordering::Relaxed);
                OBS_SHED_CONN_LIMIT.add(1);
            }
        }
    }

    /// Count an infer rejected for carrying a stale epoch pin.
    pub fn record_stale_epoch(&self) {
        self.stale_epoch.fetch_add(1, Ordering::Relaxed);
        OBS_SHED_STALE.add(1);
    }

    /// Count an applied topology update.
    pub fn record_topology_update(&self) {
        self.topology_updates.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one epoch state built from scratch (instance compile plus the
    /// model's `precompute_epoch`).
    pub fn record_epoch_build(&self) {
        self.epoch_builds.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a topology update a shard answered with an epoch state it had
    /// kept, leaving nothing to build.
    pub fn record_epoch_reuse(&self) {
        self.epoch_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a checkpoint reload attempt.
    pub fn record_reload(&self, ok: bool) {
        if ok {
            &self.reload_ok
        } else {
            &self.reload_failed
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Count an unparseable or malformed request line.
    pub fn record_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
        OBS_ERRORS.add(1);
    }

    /// Count an accepted connection.
    pub fn record_conn_open(&self) {
        self.conns_accepted.fetch_add(1, Ordering::Relaxed);
        OBS_CONNS.add(1);
    }

    /// Count a closed connection (any cause).
    pub fn record_conn_close(&self) {
        self.conns_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count jobs rerouted or failed over because a shard died.
    pub fn record_shard_failover(&self) {
        self.shard_failovers.fetch_add(1, Ordering::Relaxed);
        OBS_FAILOVER.add(1);
    }

    /// Record one drained batch: its size and the queue depth behind it.
    pub fn record_batch(&self, batch_size: usize, queue_depth: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(batch_size as u64, Ordering::Relaxed);
        self.max_batch
            .fetch_max(batch_size as u64, Ordering::Relaxed);
        OBS_BATCH_SIZE.record(batch_size as u64);
        OBS_QUEUE_DEPTH.record(queue_depth as u64);
    }

    /// Total degraded responses (all reasons).
    pub fn degraded_total(&self) -> u64 {
        self.degraded_deadline.load(Ordering::Relaxed)
            + self.degraded_model_error.load(Ordering::Relaxed)
    }

    /// Total shed requests/connections (all reasons).
    pub fn shed_total(&self) -> u64 {
        self.shed_overload.load(Ordering::Relaxed) + self.shed_conn_limit.load(Ordering::Relaxed)
    }

    /// Total model-served inferences.
    pub fn infer_ok_total(&self) -> u64 {
        self.infer_ok.load(Ordering::Relaxed)
    }

    /// Total protocol errors.
    pub fn protocol_errors_total(&self) -> u64 {
        self.protocol_errors.load(Ordering::Relaxed)
    }

    /// Connections currently open (accepted minus closed).
    pub fn conns_open(&self) -> u64 {
        self.conns_accepted
            .load(Ordering::Relaxed)
            .saturating_sub(self.conns_closed.load(Ordering::Relaxed))
    }

    /// The `stats` reply payload: counters plus latency percentiles over
    /// the recent window (latency keys absent until anything completes).
    pub fn snapshot(&self) -> Value {
        let mut map = serde_json::Map::new();
        let get = |a: &AtomicU64| Value::from(a.load(Ordering::Relaxed) as f64);
        map.insert("requests".into(), get(&self.requests));
        map.insert("infer_ok".into(), get(&self.infer_ok));
        map.insert("degraded".into(), Value::from(self.degraded_total() as f64));
        map.insert("degraded_deadline".into(), get(&self.degraded_deadline));
        map.insert(
            "degraded_model_error".into(),
            get(&self.degraded_model_error),
        );
        map.insert("stale_epoch".into(), get(&self.stale_epoch));
        map.insert("topology_updates".into(), get(&self.topology_updates));
        map.insert("epoch_builds".into(), get(&self.epoch_builds));
        map.insert("epoch_reuses".into(), get(&self.epoch_reuses));
        map.insert("reload_ok".into(), get(&self.reload_ok));
        map.insert("reload_failed".into(), get(&self.reload_failed));
        map.insert("protocol_errors".into(), get(&self.protocol_errors));
        map.insert("shed".into(), Value::from(self.shed_total() as f64));
        map.insert("shed_overload".into(), get(&self.shed_overload));
        map.insert("shed_conn_limit".into(), get(&self.shed_conn_limit));
        map.insert("shard_failovers".into(), get(&self.shard_failovers));
        map.insert("conns_accepted".into(), get(&self.conns_accepted));
        map.insert("conns_open".into(), Value::from(self.conns_open() as f64));
        map.insert("batches".into(), get(&self.batches));
        map.insert("max_batch".into(), get(&self.max_batch));
        let batches = self.batches.load(Ordering::Relaxed);
        if batches > 0 {
            let mean = self.batched_requests.load(Ordering::Relaxed) as f64 / batches as f64;
            map.insert("mean_batch".into(), Value::from(mean));
        }
        if let Ok(window) = self.latencies_us.lock() {
            if !window.is_empty() {
                let vals: Vec<f64> = window.iter().map(|&v| v as f64).collect();
                for (key, p) in [
                    ("latency_p50_us", 50.0),
                    ("latency_p99_us", 99.0),
                    ("latency_p999_us", 99.9),
                    ("latency_max_us", 100.0),
                ] {
                    if let Some(v) = percentile(&vals, p) {
                        map.insert(key.into(), Value::from(v));
                    }
                }
            }
        }
        Value::Object(map)
    }

    fn push_latency(&self, latency_us: u64) {
        OBS_LATENCY_US.record(latency_us);
        if let Ok(mut window) = self.latencies_us.lock() {
            if window.len() == LATENCY_WINDOW {
                window.pop_front();
            }
            window.push_back(latency_us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_counts_and_percentiles() {
        let st = ServeStats::new();
        st.record_request();
        st.record_request();
        st.record_infer_ok(100);
        st.record_degraded(DegradeReason::DeadlineMiss, 900);
        st.record_batch(2, 5);
        let v = st.snapshot();
        assert_eq!(v.get("requests").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("infer_ok").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("degraded").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("degraded_deadline").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("max_batch").and_then(Value::as_u64), Some(2));
        assert!(v.get("latency_p99_us").and_then(Value::as_f64).is_some());
        assert!(v.get("latency_p999_us").and_then(Value::as_f64).is_some());
        assert_eq!(st.degraded_total(), 1);
    }

    #[test]
    fn empty_stats_omit_latency_keys() {
        let st = ServeStats::new();
        let v = st.snapshot();
        assert!(v.get("latency_p50_us").is_none());
        assert_eq!(v.get("requests").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn latency_window_is_bounded() {
        let st = ServeStats::new();
        for i in 0..(LATENCY_WINDOW as u64 + 100) {
            st.record_infer_ok(i);
        }
        let window = st.latencies_us.lock().unwrap();
        assert_eq!(window.len(), LATENCY_WINDOW);
        assert_eq!(*window.front().unwrap(), 100);
    }

    #[test]
    fn shed_and_conn_accounting() {
        let st = ServeStats::new();
        st.record_shed(ShedReason::Overload);
        st.record_shed(ShedReason::Overload);
        st.record_shed(ShedReason::ConnLimit);
        st.record_conn_open();
        st.record_conn_open();
        st.record_conn_close();
        st.record_shard_failover();
        let v = st.snapshot();
        assert_eq!(v.get("shed").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("shed_overload").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("shed_conn_limit").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("conns_accepted").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("conns_open").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("shard_failovers").and_then(Value::as_u64), Some(1));
        assert_eq!(st.shed_total(), 3);
        assert_eq!(ShedReason::Overload.code(), "shed_overload");
        assert_eq!(ShedReason::ConnLimit.code(), "shed_conn_limit");
    }
}
