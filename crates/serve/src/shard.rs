//! One serving shard: a single-owner batcher thread plus its published
//! metadata.
//!
//! A shard is the PR-4 batcher, made multipliable. Each shard exclusively
//! owns its [`NetworkState`], its `Arc<ParamStore>`, and at most two
//! per-epoch states (compiled instance plus embedding cache): the one it
//! serves from and the one it served from before the last topology update,
//! parked so that a link flapping back costs no encoder pass. The
//! single-owner concurrency model is unchanged, there are just N owners now.
//! What the router needs to make decisions (queue depth, current epoch,
//! liveness) is published through [`ShardMeta`] atomics, so routing never
//! takes a lock on serving state.
//!
//! A shard that panics mid-batch does not take the fleet down: the panic
//! is caught, the shard marks itself dead (routing stops immediately),
//! and the thread stays behind as a drain loop answering every queued or
//! late-routed job with a structured error until shutdown — no job is
//! ever silently dropped on the floor.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use harp_core::{
    run_inference, run_inference_cached, EpochCache, EvalOptions, Instance, SplitModel,
};
use harp_nn::load_params;
use harp_paths::TunnelSet;
use harp_runtime::Runtime;
use harp_tensor::ParamStore;
use harp_topology::{EdgeId, Topology};
use harp_traffic::TrafficMatrix;

use crate::protocol::{degraded_response, error_response, infer_response, ok_response, Request};
use crate::reactor::Waker;
use crate::state::NetworkState;
use crate::stats::{DegradeReason, ServeStats};

/// How often a blocked shard re-checks the stop flag.
const POLL: Duration = Duration::from_millis(50);

/// What a shard derives once per `(failure set, parameters)` pair and
/// reuses for every request against it: the compiled instance (under a
/// zero traffic matrix; a request retargets it with
/// [`Instance::with_traffic`]) and the model's epoch cache, if it has one.
/// Never patched: a state is built whole by the first infer that finds none
/// to serve from, and is valid for exactly the failure set and parameters
/// it was built under ([`EpochStates`] says how long it is kept).
struct EpochState {
    instance: Instance,
    cache: Option<EpochCache>,
}

impl EpochState {
    fn build(state: &NetworkState, model: &dyn SplitModel, store: &ParamStore) -> Self {
        let blank = TrafficMatrix::zeros(state.topology().num_nodes());
        let instance = Instance::compile(state.topology(), state.tunnels(), &blank);
        let cache = model.precompute_epoch(store, &instance);
        EpochState { instance, cache }
    }
}

/// The epoch states a shard keeps alive — at most two.
///
/// The base topology and base tunnels never change, so the failure set
/// ([`NetworkState::failed_edges`]) determines the current topology, the
/// pruned tunnels and with them the compiled instance and the cache
/// exactly. A topology update therefore does not drop the state it leaves:
/// it parks it under the failure set it was built for, and an update that
/// lands on the parked set — a failed link restored, a flapping link failing
/// again — swaps the two instead of running the encoder. Any other update
/// replaces the parked state with the outgoing one and leaves `serving`
/// empty for the next infer to build. A checkpoint reload clears both:
/// neither survives a change of parameters.
#[derive(Default)]
struct EpochStates {
    serving: Option<EpochState>,
    parked: Option<(BTreeSet<EdgeId>, EpochState)>,
}

impl EpochStates {
    /// The failure set moved from `from` to `to`. Returns whether a kept
    /// state now serves `to`.
    fn retarget(&mut self, from: BTreeSet<EdgeId>, to: &BTreeSet<EdgeId>) -> bool {
        if from != *to {
            let outgoing = self.serving.take().map(|state| (from, state));
            if self.parked.as_ref().is_some_and(|(set, _)| set == to) {
                self.serving = self.parked.take().map(|(_, state)| state);
            }
            if outgoing.is_some() {
                self.parked = outgoing;
            }
        }
        self.serving.is_some()
    }
}

/// Lock-free shard state published for the router and the `stats` reply.
#[derive(Debug)]
pub struct ShardMeta {
    /// Jobs queued (sent, not yet dequeued by the batcher).
    pub depth: AtomicUsize,
    /// The shard's current topology epoch.
    pub epoch: AtomicU64,
    /// False once the shard has died (panic) or exited.
    pub alive: AtomicBool,
    /// Failed links at the current epoch.
    pub failed_links: AtomicUsize,
    /// Live tunnels at the current epoch.
    pub num_tunnels: AtomicUsize,
    /// Checkpoint generation the shard serves from: 0 at spawn, +1 per
    /// successful `reload_checkpoint`. The fleet-wide max minus this is
    /// the shard's model staleness.
    pub param_generation: AtomicU64,
}

impl ShardMeta {
    /// Fresh metadata for a shard about to start at epoch 0.
    pub fn new() -> Self {
        ShardMeta {
            depth: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            alive: AtomicBool::new(true),
            failed_links: AtomicUsize::new(0),
            num_tunnels: AtomicUsize::new(0),
            param_generation: AtomicU64::new(0),
        }
    }
}

impl Default for ShardMeta {
    fn default() -> Self {
        Self::new()
    }
}

/// Aggregates one broadcast's per-shard replies into a single response
/// (see [`ReplySink::send`]): the primary shard's reply is forwarded once
/// every shard has answered.
#[derive(Debug)]
pub struct Gather {
    remaining: AtomicUsize,
    primary: Mutex<Option<String>>,
    inner: ReplySink,
}

impl Gather {
    /// A gather over `fanout` shard replies, forwarding to `inner`.
    pub fn new(fanout: usize, inner: ReplySink) -> Arc<Self> {
        Arc::new(Gather {
            remaining: AtomicUsize::new(fanout.max(1)),
            primary: Mutex::new(None),
            inner,
        })
    }
}

/// Where a job's rendered response line goes.
#[derive(Clone, Debug)]
pub enum ReplySink {
    /// Straight into a channel (tests and programmatic callers).
    Channel(mpsc::Sender<String>),
    /// Back to the event loop: `(conn_token, line)` onto the completion
    /// queue, then ring the reactor.
    Conn {
        /// The connection's reactor token (generation | slot).
        token: u64,
        /// The event loop's completion queue.
        completions: mpsc::Sender<(u64, String)>,
        /// Wakes the reactor out of `epoll_wait`.
        waker: Waker,
    },
    /// One member of a control broadcast; the gather forwards the primary
    /// shard's reply when the last member answers.
    Gather {
        /// Shared aggregation state.
        gather: Arc<Gather>,
        /// True for the shard whose reply is forwarded.
        primary: bool,
    },
}

impl ReplySink {
    /// Deliver one response line. Never blocks and never fails loudly: a
    /// vanished receiver means the client is gone, which is not an error.
    pub fn send(&self, line: String) {
        match self {
            ReplySink::Channel(tx) => {
                let _ = tx.send(line);
            }
            ReplySink::Conn {
                token,
                completions,
                waker,
            } => {
                let _ = completions.send((*token, line));
                waker.wake();
            }
            ReplySink::Gather { gather, primary } => {
                if *primary {
                    if let Ok(mut slot) = gather.primary.lock() {
                        *slot = Some(line.clone());
                    }
                }
                if gather.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                    let chosen = gather
                        .primary
                        .lock()
                        .ok()
                        .and_then(|mut s| s.take())
                        .unwrap_or(line);
                    gather.inner.send(chosen);
                }
            }
        }
    }
}

/// One queued `infer` request.
pub struct InferJob {
    /// Wire request id (echoed in the response).
    pub id: u64,
    /// Validated `(src, dst, demand)` triples.
    pub demands: Vec<(usize, usize, f64)>,
    /// Epoch the request is pinned to, if any.
    pub epoch_pin: Option<u64>,
    /// Absolute deadline; missing it degrades the response.
    pub deadline: Instant,
    /// When the request was accepted (drives latency accounting).
    pub enqueued: Instant,
    /// Where the rendered response goes.
    pub reply: ReplySink,
}

/// Anything a shard processes.
pub enum Job {
    /// A batched inference request.
    Infer(InferJob),
    /// A control request (topology update, reload, ...). Acts as a batch
    /// barrier.
    Control {
        /// Wire request id.
        id: u64,
        /// The parsed request.
        req: Request,
        /// Where the response goes.
        reply: ReplySink,
    },
    /// Test/chaos hook: panic inside the shard loop to exercise failover.
    #[doc(hidden)]
    Crash,
}

/// Everything a shard thread needs at spawn.
pub(crate) struct ShardSpec {
    pub idx: usize,
    pub rx: mpsc::Receiver<Job>,
    pub meta: Arc<ShardMeta>,
    pub model: Arc<dyn SplitModel + Send + Sync>,
    pub store: ParamStore,
    pub topo: Topology,
    pub tunnels: TunnelSet,
    pub max_batch: usize,
    pub rt: Runtime,
    pub stop: Arc<AtomicBool>,
    pub stats: Arc<ServeStats>,
}

/// The shard thread body: run the batcher under panic containment, then
/// (dead or stopping) drain the queue with error replies until shutdown.
pub(crate) fn shard_main(spec: ShardSpec) {
    let ShardSpec {
        idx,
        rx,
        meta,
        model,
        store,
        topo,
        tunnels,
        max_batch,
        rt,
        stop,
        stats,
    } = spec;
    let state = NetworkState::new(topo, tunnels);
    publish_meta(&meta, &state, 0);
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        batcher_loop(
            &rx, state, model, store, max_batch, &rt, &stop, &stats, &meta,
        );
    }))
    .is_err();
    meta.alive.store(false, Ordering::SeqCst);
    if crashed {
        stats.record_shard_failover();
        harp_obs::warn_always("serve.shard_panic", &[("shard", (idx as u64).into())]);
        harp_obs::event("serve.shard_dead")
            .field("shard", idx)
            .emit();
        // Answer everything queued (and anything racing in before the
        // router noticed the death) with a structured error, so no client
        // ever hangs on a dead shard.
        while !stop.load(Ordering::SeqCst) {
            match rx.recv_timeout(POLL) {
                Ok(job) => {
                    meta.depth.fetch_sub(1, Ordering::SeqCst);
                    stats.record_shard_failover();
                    match job {
                        Job::Infer(j) => j
                            .reply
                            .send(error_response(Some(j.id), "shard failed; please retry")),
                        Job::Control { id, reply, .. } => {
                            reply.send(error_response(Some(id), "shard failed; please retry"))
                        }
                        Job::Crash => {}
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
    }
}

/// Copy the shard's current epoch state into its published metadata.
fn publish_meta(meta: &ShardMeta, state: &NetworkState, param_generation: u64) {
    meta.epoch.store(state.epoch(), Ordering::SeqCst);
    meta.failed_links
        .store(state.failed_edges().len(), Ordering::SeqCst);
    meta.num_tunnels
        .store(state.tunnels().num_tunnels(), Ordering::SeqCst);
    meta.param_generation
        .store(param_generation, Ordering::SeqCst);
}

/// The batcher loop: drain jobs, batch infers, apply control ops.
#[allow(clippy::too_many_arguments)]
fn batcher_loop(
    rx: &mpsc::Receiver<Job>,
    mut state: NetworkState,
    model: Arc<dyn SplitModel + Send + Sync>,
    store: ParamStore,
    max_batch: usize,
    rt: &Runtime,
    stop: &AtomicBool,
    stats: &ServeStats,
    meta: &ShardMeta,
) {
    let mut store = Arc::new(store);
    // TM-independent state for the current (failure set, store) pair, built
    // lazily by the first infer that finds none. Only this shard touches
    // it, so no locking.
    let mut epochs = EpochStates::default();
    // Checkpoint generation served by this shard; mirrored into
    // `meta.param_generation` after every control op.
    let mut param_generation: u64 = 0;
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let job = match rx.recv_timeout(POLL) {
            Ok(j) => j,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        meta.depth.fetch_sub(1, Ordering::SeqCst);
        match job {
            Job::Crash => {
                // lint: allow(panic) — deliberate chaos/failover hook
                panic!("harp-serve: injected shard crash");
            }
            Job::Control { id, req, reply } => {
                let resp = handle_control(
                    id,
                    req,
                    &mut state,
                    &mut store,
                    &mut epochs,
                    &mut param_generation,
                    stop,
                    stats,
                );
                publish_meta(meta, &state, param_generation);
                reply.send(resp);
            }
            Job::Infer(first) => {
                let mut batch = vec![first];
                let mut barrier = None;
                while batch.len() < max_batch {
                    match rx.try_recv() {
                        Ok(Job::Infer(j)) => {
                            meta.depth.fetch_sub(1, Ordering::SeqCst);
                            batch.push(j);
                        }
                        Ok(ctl) => {
                            meta.depth.fetch_sub(1, Ordering::SeqCst);
                            barrier = Some(ctl);
                            break;
                        }
                        Err(_) => break,
                    }
                }
                stats.record_batch(batch.len(), meta.depth.load(Ordering::SeqCst));
                let epoch = epochs.serving.get_or_insert_with(|| {
                    stats.record_epoch_build();
                    EpochState::build(&state, model.as_ref(), &store)
                });
                process_batch(
                    batch,
                    &mut state,
                    model.as_ref(),
                    &store,
                    epoch,
                    param_generation,
                    rt,
                    stats,
                );
                match barrier {
                    Some(Job::Control { id, req, reply }) => {
                        let resp = handle_control(
                            id,
                            req,
                            &mut state,
                            &mut store,
                            &mut epochs,
                            &mut param_generation,
                            stop,
                            stats,
                        );
                        publish_meta(meta, &state, param_generation);
                        reply.send(resp);
                    }
                    Some(Job::Crash) => {
                        // lint: allow(panic) — deliberate chaos/failover hook
                        panic!("harp-serve: injected shard crash");
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Run one batch of infer jobs through the model on the worker pool and
/// answer each, degrading individually on deadline miss or model error.
#[allow(clippy::too_many_arguments)]
fn process_batch(
    batch: Vec<InferJob>,
    state: &mut NetworkState,
    model: &dyn SplitModel,
    store: &Arc<ParamStore>,
    epoch_state: &EpochState,
    param_generation: u64,
    rt: &Runtime,
    stats: &ServeStats,
) {
    let _span = harp_obs::span("serve.batch");
    let n = state.topology().num_nodes();
    let epoch = state.epoch();

    // Weed out jobs that can't run. The router already rejects stale pins
    // and the protocol layer bounds node ids, but both are re-checked
    // here: the epoch may have advanced since routing, and the shard must
    // stay safe even for jobs submitted programmatically.
    let mut runnable: Vec<InferJob> = Vec::with_capacity(batch.len());
    for job in batch {
        if let Some(pin) = job.epoch_pin {
            if pin != epoch {
                stats.record_stale_epoch();
                job.reply.send(error_response(
                    Some(job.id),
                    &format!("stale epoch: request pinned to {pin}, current is {epoch}"),
                ));
                continue;
            }
        }
        if let Some(&(s, t, _)) = job.demands.iter().find(|&&(s, t, _)| s >= n || t >= n) {
            job.reply.send(error_response(
                Some(job.id),
                &format!("demand ({s}, {t}) references a node >= {n}"),
            ));
            continue;
        }
        if Instant::now() >= job.deadline {
            degrade(&job, state, stats, DegradeReason::DeadlineMiss);
            continue;
        }
        runnable.push(job);
    }
    if runnable.is_empty() {
        return;
    }

    // Fan the batch across the worker pool. Each job retargets the epoch's
    // compiled instance at its own traffic matrix (a few small vectors;
    // everything structural is shared). Tunnels crossing failed links are
    // already pruned, so no local rescaling is needed on top.
    let matrices: Vec<TrafficMatrix> = runnable
        .iter()
        .map(|job| {
            let mut tm = TrafficMatrix::zeros(n);
            for &(s, t, d) in &job.demands {
                tm.set_demand(s, t, tm.demand(s, t) + d);
            }
            tm
        })
        .collect();
    let store_ref = Arc::clone(store);
    let deadlines: Vec<Instant> = runnable.iter().map(|j| j.deadline).collect();
    let results = rt.par_map(&matrices, |i, tm| {
        if Instant::now() >= deadlines[i] {
            return None; // expired while queued behind batch-mates
        }
        let _span = harp_obs::span("serve.infer");
        let instance = epoch_state.instance.with_traffic(tm);
        // The forward reuses a pooled tape arena (see `harp_tensor::Tape`).
        // What a warm GEANT k=8 request still allocates between parse and
        // reply — 286 buffers: retarget 4, head 269, reply 1 — is counted
        // and budgeted in `tests/alloc_budget.rs`.
        Some(match &epoch_state.cache {
            Some(c) => run_inference_cached(
                model,
                store_ref.as_ref(),
                &instance,
                EvalOptions::default(),
                c,
            ),
            None => run_inference(model, store_ref.as_ref(), &instance, EvalOptions::default()),
        })
    });

    let mut newest_good: Option<Vec<f64>> = None;
    for (job, result) in runnable.into_iter().zip(results) {
        match result {
            None => degrade(&job, state, stats, DegradeReason::DeadlineMiss),
            Some(inf) if !inf.is_finite() => {
                harp_obs::event("serve.model_error")
                    .field("id", job.id)
                    .emit();
                degrade(&job, state, stats, DegradeReason::ModelError);
            }
            Some(inf) if Instant::now() >= job.deadline => {
                // finished too late to ship; still remember the splits
                newest_good = Some(inf.splits);
                degrade(&job, state, stats, DegradeReason::DeadlineMiss);
            }
            Some(inf) => {
                let latency_us = job.enqueued.elapsed().as_micros() as u64;
                stats.record_infer_ok(latency_us);
                job.reply.send(infer_response(
                    job.id,
                    epoch,
                    param_generation,
                    latency_us,
                    inf.mlu,
                    &inf.splits,
                ));
                newest_good = Some(inf.splits);
            }
        }
    }
    if let Some(splits) = newest_good {
        state.set_last_good(splits);
    }
}

/// Answer one job from fallback splits and count it as degraded.
fn degrade(job: &InferJob, state: &NetworkState, stats: &ServeStats, reason: DegradeReason) {
    let (splits, source) = state.fallback_splits();
    let latency_us = job.enqueued.elapsed().as_micros() as u64;
    stats.record_degraded(reason, latency_us);
    let reason_str = match reason {
        DegradeReason::DeadlineMiss => "deadline_miss",
        DegradeReason::ModelError => "model_error",
    };
    job.reply.send(degraded_response(
        job.id,
        state.epoch(),
        latency_us,
        reason_str,
        &splits,
        source,
    ));
}

/// Apply one control request on the shard thread.
#[allow(clippy::too_many_arguments)]
fn handle_control(
    id: u64,
    req: Request,
    state: &mut NetworkState,
    store: &mut Arc<ParamStore>,
    epochs: &mut EpochStates,
    param_generation: &mut u64,
    stop: &AtomicBool,
    stats: &ServeStats,
) -> String {
    match req {
        Request::TopologyUpdate {
            fail_links,
            restore_links,
        } => {
            let _span = harp_obs::span("serve.topology_update");
            let from = state.failed_edges().clone();
            match state.apply_update(&fail_links, &restore_links) {
                Ok(s) => {
                    let reused = epochs.retarget(from, state.failed_edges());
                    stats.record_topology_update();
                    if reused {
                        stats.record_epoch_reuse();
                    }
                    harp_obs::event("serve.topology_update")
                        .field("epoch", s.epoch)
                        .field("failed_links", s.failed_links)
                        .field("reused", reused)
                        .emit();
                    ok_response(
                        id,
                        serde_json::json!({
                            "epoch": s.epoch,
                            "num_flows": s.num_flows,
                            "num_tunnels": s.num_tunnels,
                            "failed_links": s.failed_links,
                        }),
                    )
                }
                Err(e) => error_response(Some(id), &e),
            }
        }
        Request::ReloadCheckpoint { path } => {
            let _span = harp_obs::span("serve.reload_checkpoint");
            // Validate into a clone; the live store is swapped only after
            // the whole checkpoint passes the strict loader.
            let mut candidate = (**store).clone();
            match load_params(&mut candidate, std::path::Path::new(&path)) {
                Ok(()) => {
                    let params = candidate.ids().count();
                    *store = Arc::new(candidate);
                    *epochs = EpochStates::default(); // parameters changed: every embedding is stale
                    *param_generation += 1;
                    // A reload is a new epoch: requests pinned to the old
                    // epoch are stale everywhere the swap has landed, so a
                    // pin can never mix parameter generations even while
                    // the broadcast is still in flight on sibling shards.
                    state.bump_epoch();
                    stats.record_reload(true);
                    harp_obs::event("serve.reload")
                        .field("path", path)
                        .field("params", params)
                        .field("generation", *param_generation)
                        .emit();
                    ok_response(
                        id,
                        serde_json::json!({
                            "epoch": state.epoch(),
                            "generation": *param_generation,
                            "params": params,
                        }),
                    )
                }
                Err(e) => {
                    stats.record_reload(false);
                    error_response(Some(id), &format!("reload rejected: {e}"))
                }
            }
        }
        Request::Stats => {
            // Answered by the event loop from published metadata; a shard
            // only sees this via programmatic submission.
            ok_response(id, stats.snapshot())
        }
        Request::Shutdown => {
            stop.store(true, Ordering::SeqCst);
            harp_obs::event("serve.shutdown").field("id", id).emit();
            ok_response(id, serde_json::json!({ "stopping": true }))
        }
        Request::Infer { .. } => error_response(Some(id), "infer routed as control"),
    }
}
