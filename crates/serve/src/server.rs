//! The daemon: one reactor thread multiplexing every connection, a shard
//! fleet doing the inference, and nothing else.
//!
//! Concurrency model — single owners all the way down:
//!
//! * the **reactor thread** (epoll event loop, see [`crate::reactor`])
//!   owns the listener and every connection's state machine
//!   ([`crate::conn`]). It accepts, frames, parses, and validates request
//!   lines, answers protocol errors / stats / shed decisions inline, and
//!   routes infer + control work to the fleet. No thread is ever spawned
//!   per connection, so connection churn cannot leak handles — the bug
//!   class the old `conns.push(thread::spawn(...))` design had — and an
//!   idle connection costs zero wakeups: the loop sleeps in `epoll_wait`
//!   until a socket actually has bytes.
//! * each **shard** ([`crate::shard`]) is the single owner of its
//!   `NetworkState`, parameter store, and topology-epoch embedding cache;
//!   the **router** ([`crate::router`]) picks shards with a pure function
//!   over published atomics (epoch pin match, then least queue depth) and
//!   sheds work when every eligible queue is at the admission limit.
//! * shards hand finished response lines back on a completion queue and
//!   ring the reactor's waker; the reactor flushes them into the
//!   connections' out-buffers, with write-interest and read-gating
//!   backpressure when a client reads slowly.
//!
//! Degradation policy is unchanged from the threaded design: a response
//! is *degraded* — served from last-good splits, or uniform ECMP before
//! any inference has succeeded — when the request's deadline expires
//! before or during inference, or when the model returns non-finite
//! splits. Degraded responses carry `degraded: true` plus a `reason`, and
//! are counted in `stats`. Shedding is different from degrading: a shed
//! request is refused outright (`error_kind: shed_*`) without touching a
//! shard.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use harp_core::SplitModel;
use harp_paths::TunnelSet;
use harp_tensor::ParamStore;
use harp_topology::Topology;
use serde_json::Value;

use crate::conn::{Conn, Frame, ReadOutcome};
use crate::protocol::{
    error_response, error_response_kind, ok_response, parse_request_bounded, shed_response,
    ProtocolErrorKind, Request, WireLimits,
};
use crate::reactor::{Event, Interest, Reactor, Waker};
use crate::router::{Fleet, RouteDecision};
use crate::shard::{InferJob, ReplySink};
use crate::stats::{ServeStats, ShedReason};

/// Daemon configuration, set in code: the process environment changes
/// none of it, so a run's config is the one its caller wrote down.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7447` (port 0 picks a free port).
    pub addr: String,
    /// Default per-request deadline in milliseconds (requests may override
    /// with their own `deadline_ms`).
    pub deadline_ms: u64,
    /// Most infer jobs fanned out in one batch.
    pub max_batch: usize,
    /// Close a connection after this long without receiving any bytes
    /// (0 disables the idle timeout). A client that hangs mid-request must
    /// not pin server state forever.
    pub read_timeout_ms: u64,
    /// Longest accepted request line in bytes. An oversized line gets a
    /// structured JSON error and is discarded up to its newline — it must
    /// never buffer unboundedly or crash the reader.
    pub max_line_bytes: usize,
    /// Number of serving shards (each its own batcher + embedding cache).
    pub shards: usize,
    /// Most connections held open at once; excess connects are refused
    /// with a `shed_conn_limit` error line (admission control).
    pub max_conns: usize,
    /// Per-shard queue depth at which infer requests are shed with
    /// `shed_overload` instead of queued (admission control).
    pub queue_limit: usize,
    /// Fault-injection plan for chaos tests (connection drop/delay faults
    /// at accept). `None` injects no faults.
    pub chaos: Option<Arc<harp_chaos::FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7447".to_string(),
            deadline_ms: 250,
            max_batch: 32,
            read_timeout_ms: 30_000,
            max_line_bytes: 64 * 1024,
            shards: 1,
            max_conns: 1024,
            queue_limit: 512,
            chaos: None,
        }
    }
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] (or send a `shutdown` request).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ServeStats>,
    waker: Waker,
    reactor: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared serving counters (also reachable via the `stats` request).
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Stop accepting, flush in-flight responses, and join every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }
}

/// Reactor token for the listener socket (`u64::MAX` is the waker's).
const LISTENER_TOKEN: u64 = u64::MAX - 2;
/// Out-buffer size at which a connection's read side is gated off.
const HIGH_WATER: usize = 1024 * 1024;
/// Out-buffer size at which a gated read side is re-enabled.
const LOW_WATER: usize = 64 * 1024;
/// Longest the loop sleeps with nothing scheduled (bounds stop-flag
/// latency even if a wake is lost).
const MAX_TICK: Duration = Duration::from_millis(500);

/// Start the daemon: bind `cfg.addr`, spawn the shard fleet and the
/// reactor thread, and return a handle. `model` + `store` are the serving
/// model (the store is hot-swappable via `reload_checkpoint`); `topo` +
/// `tunnels` define epoch 0 of the network.
pub fn serve(
    cfg: ServeConfig,
    model: Arc<dyn SplitModel + Send + Sync>,
    store: ParamStore,
    topo: Topology,
    tunnels: TunnelSet,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let stop = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ServeStats::new());
    let limits = WireLimits::for_nodes(topo.num_nodes());
    let reactor = Reactor::new()?;
    let waker = reactor.waker();

    harp_obs::event("serve.start")
        .field("addr", addr.to_string())
        .field("deadline_ms", cfg.deadline_ms)
        .field("shards", cfg.shards)
        .emit();

    let fleet = Fleet::spawn(
        cfg.shards,
        cfg.max_batch,
        cfg.queue_limit,
        model,
        store,
        topo,
        tunnels,
        Arc::clone(&stop),
        Arc::clone(&stats),
    );

    let reactor_thread = {
        let stop = Arc::clone(&stop);
        let stats = Arc::clone(&stats);
        thread::Builder::new()
            .name("harp-serve-reactor".to_string())
            .spawn(move || {
                let mut el = EventLoop::new(reactor, listener, fleet, cfg, limits, stop, stats);
                el.run();
            })?
    };

    Ok(ServerHandle {
        addr,
        stop,
        stats,
        waker,
        reactor: Some(reactor_thread),
    })
}

/// Everything the reactor thread owns.
struct EventLoop {
    reactor: Reactor,
    listener: TcpListener,
    fleet: Fleet,
    cfg: ServeConfig,
    limits: WireLimits,
    stop: Arc<AtomicBool>,
    stats: Arc<ServeStats>,
    conns: Vec<Option<Conn>>,
    generations: Vec<u32>,
    free: Vec<usize>,
    open: usize,
    completions_tx: mpsc::Sender<(u64, String)>,
    completions_rx: mpsc::Receiver<(u64, String)>,
    waker: Waker,
    idle_budget: Option<Duration>,
}

impl EventLoop {
    fn new(
        reactor: Reactor,
        listener: TcpListener,
        fleet: Fleet,
        cfg: ServeConfig,
        limits: WireLimits,
        stop: Arc<AtomicBool>,
        stats: Arc<ServeStats>,
    ) -> Self {
        let (completions_tx, completions_rx) = mpsc::channel();
        let waker = reactor.waker();
        let idle_budget =
            (cfg.read_timeout_ms > 0).then(|| Duration::from_millis(cfg.read_timeout_ms));
        EventLoop {
            reactor,
            listener,
            fleet,
            cfg,
            limits,
            stop,
            stats,
            conns: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            open: 0,
            completions_tx,
            completions_rx,
            waker,
            idle_budget,
        }
    }

    fn run(&mut self) {
        if self
            .reactor
            .register(self.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
            .is_err()
        {
            harp_obs::warn_always("serve.reactor_register_failed", &[]);
            self.stop.store(true, Ordering::SeqCst);
        }
        let mut events: Vec<Event> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            let timeout = self.next_timeout();
            if self.reactor.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            self.drain_completions();
            for i in 0..events.len() {
                let ev = events[i];
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                } else {
                    self.conn_ready(ev);
                }
                if self.stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            self.expire_pauses();
            self.reap_idle();
        }
        self.graceful_exit();
    }

    /// Sleep until the next scheduled instant (pause expiry or idle
    /// deadline), capped at [`MAX_TICK`]. With thousands of idle
    /// connections this is ~2 wakeups/second total — not per connection,
    /// which is the structural fix for the old per-connection poll loop.
    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut next: Option<Instant> = None;
        let mut consider = |t: Instant| {
            next = Some(next.map_or(t, |n: Instant| n.min(t)));
        };
        for conn in self.conns.iter().flatten() {
            if let Some(p) = conn.paused_until {
                consider(p);
            }
            if let Some(budget) = self.idle_budget {
                if conn.inflight == 0 {
                    consider(conn.last_progress + budget);
                }
            }
        }
        match next {
            None => MAX_TICK,
            Some(t) => t
                .saturating_duration_since(now)
                .max(Duration::from_millis(1))
                .min(MAX_TICK),
        }
    }

    /// Accept until `WouldBlock`, applying chaos faults and admission
    /// control.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        // Chaos: drop or delay this connection at accept, simulating a
        // flaky network path to the daemon.
        let mut pause = None;
        if let Some(plan) = &self.cfg.chaos {
            match plan.conn_fault() {
                Some(harp_chaos::ConnFault::Drop) => {
                    drop(stream);
                    return;
                }
                Some(harp_chaos::ConnFault::DelayMs(ms)) => {
                    pause = Some(Instant::now() + Duration::from_millis(ms));
                }
                None => {}
            }
        }
        // Admission control: refuse connections over the cap with a
        // structured shed line (the socket is still blocking here, and
        // one small write to a fresh socket's buffer cannot stall).
        if self.open >= self.cfg.max_conns {
            self.stats.record_shed(ShedReason::ConnLimit);
            harp_obs::event("serve.shed_conn")
                .field("open", self.open)
                .field("max_conns", self.cfg.max_conns)
                .emit();
            let line = shed_response(
                None,
                ShedReason::ConnLimit.code(),
                &format!("connection limit {} reached", self.cfg.max_conns),
            );
            let mut stream = stream;
            let _ = io::Write::write_all(&mut stream, line.as_bytes());
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.conns.push(None);
                self.generations.push(0);
                self.conns.len() - 1
            }
        };
        let generation = self.generations[slot];
        let mut conn = Conn::new(stream, self.cfg.max_line_bytes, generation);
        conn.paused_until = pause;
        let interest = if pause.is_some() {
            Interest::NONE
        } else {
            Interest::READ
        };
        let token = conn_token(slot, generation);
        if self
            .reactor
            .register(conn.stream.as_raw_fd(), token, interest)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        conn.interest = interest;
        self.conns[slot] = Some(conn);
        self.open += 1;
        self.stats.record_conn_open();
    }

    /// Handle readiness on a connection token.
    fn conn_ready(&mut self, ev: Event) {
        let Some((slot, generation)) = split_token(ev.token) else {
            return;
        };
        let alive = matches!(&self.conns.get(slot), Some(Some(c)) if c.generation == generation);
        if !alive {
            return;
        }
        let mut frames: Vec<Frame> = Vec::new();
        let mut close_now = false;
        {
            let Some(conn) = &mut self.conns[slot] else {
                return;
            };
            if ev.readable && conn.paused_until.is_none() && !conn.read_paused {
                match conn.read_ready(&mut frames) {
                    Ok(ReadOutcome::Open) => {}
                    Ok(ReadOutcome::Eof) => conn.close_after_flush = true,
                    Err(_) => close_now = true,
                }
            }
        }
        if close_now {
            self.close_conn(slot);
            return;
        }
        for frame in frames {
            let stop_requested = self.process_frame(slot, ev.token, frame);
            if stop_requested {
                self.stop.store(true, Ordering::SeqCst);
                break;
            }
            if self.conns[slot].is_none() {
                return; // closed mid-processing
            }
        }
        self.flush_conn(slot);
    }

    /// Turn one frame into response bytes and/or routed work. Returns
    /// true when the frame was a shutdown request.
    fn process_frame(&mut self, slot: usize, token: u64, frame: Frame) -> bool {
        let line = match frame {
            Frame::Oversized { bytes } => {
                self.stats.record_protocol_error();
                harp_obs::event("serve.oversized_line")
                    .field("bytes", bytes)
                    .field("max_bytes", self.cfg.max_line_bytes)
                    .emit();
                let resp = error_response_kind(
                    None,
                    ProtocolErrorKind::Oversized,
                    &format!("request line exceeds {} bytes", self.cfg.max_line_bytes),
                );
                self.push_out(slot, &resp);
                return false;
            }
            Frame::Line(l) => l,
        };
        let (id, req) = match parse_request_bounded(&line, &self.limits) {
            Ok(parsed) => parsed,
            Err(e) => {
                self.stats.record_protocol_error();
                let resp = e.to_response();
                self.push_out(slot, &resp);
                return false;
            }
        };
        self.stats.record_request();
        match req {
            Request::Infer {
                demands,
                deadline_ms,
                epoch,
            } => {
                let enqueued = Instant::now();
                let budget = Duration::from_millis(deadline_ms.unwrap_or(self.cfg.deadline_ms));
                let pin = epoch;
                let job = InferJob {
                    id,
                    demands,
                    epoch_pin: pin,
                    deadline: enqueued + budget,
                    enqueued,
                    reply: ReplySink::Conn {
                        token,
                        completions: self.completions_tx.clone(),
                        waker: self.waker.clone(),
                    },
                };
                match self.fleet.submit_infer(job) {
                    Ok(_) => {
                        if let Some(conn) = &mut self.conns[slot] {
                            conn.inflight += 1;
                        }
                    }
                    Err(RouteDecision::StaleEpoch { current }) => {
                        self.stats.record_stale_epoch();
                        let p = pin.unwrap_or(current);
                        let resp = error_response(
                            Some(id),
                            &format!("stale epoch: request pinned to {p}, current is {current}"),
                        );
                        self.push_out(slot, &resp);
                    }
                    Err(RouteDecision::Overloaded) => {
                        self.stats.record_shed(ShedReason::Overload);
                        let resp = shed_response(
                            Some(id),
                            ShedReason::Overload.code(),
                            "overloaded: request shed, retry with backoff",
                        );
                        self.push_out(slot, &resp);
                    }
                    Err(_) => {
                        let resp = error_response(Some(id), "no live shards");
                        self.push_out(slot, &resp);
                    }
                }
            }
            Request::Stats => {
                let mut payload = self.stats.snapshot();
                if let Value::Object(map) = &mut payload {
                    map.insert(
                        "epoch".into(),
                        Value::from(self.fleet.current_epoch() as f64),
                    );
                    let (failed_links, num_tunnels) = self.fleet.topology_summary();
                    map.insert("failed_links".into(), Value::from(failed_links as f64));
                    map.insert("num_tunnels".into(), Value::from(num_tunnels as f64));
                    let (generation, staleness) = self.fleet.generation_summary();
                    map.insert("param_generation".into(), Value::from(generation as f64));
                    map.insert("model_staleness".into(), Value::from(staleness as f64));
                    map.insert("shards".into(), self.fleet.shards_payload());
                }
                let resp = ok_response(id, payload);
                self.push_out(slot, &resp);
            }
            Request::Shutdown => {
                harp_obs::event("serve.shutdown").field("id", id).emit();
                let resp = ok_response(id, serde_json::json!({ "stopping": true }));
                self.push_out(slot, &resp);
                return true;
            }
            control @ (Request::TopologyUpdate { .. } | Request::ReloadCheckpoint { .. }) => {
                let sink = ReplySink::Conn {
                    token,
                    completions: self.completions_tx.clone(),
                    waker: self.waker.clone(),
                };
                self.fleet.broadcast_control(id, control, sink);
                if let Some(conn) = &mut self.conns[slot] {
                    conn.inflight += 1;
                }
            }
        }
        false
    }

    /// Append bytes to a connection's out-buffer.
    fn push_out(&mut self, slot: usize, line: &str) {
        if let Some(conn) = &mut self.conns[slot] {
            conn.out.push(line.as_bytes());
        }
    }

    /// Move completed responses from the fleet into their connections'
    /// out-buffers (dropping lines whose connection is gone), then flush.
    fn drain_completions(&mut self) {
        let mut touched: Vec<usize> = Vec::new();
        while let Ok((token, line)) = self.completions_rx.try_recv() {
            let Some((slot, generation)) = split_token(token) else {
                continue;
            };
            match self.conns.get_mut(slot) {
                Some(Some(conn)) if conn.generation == generation => {
                    conn.inflight = conn.inflight.saturating_sub(1);
                    conn.out.push(line.as_bytes());
                    if !touched.contains(&slot) {
                        touched.push(slot);
                    }
                }
                _ => {} // connection closed while the job was in flight
            }
        }
        for slot in touched {
            self.flush_conn(slot);
        }
    }

    /// Flush a connection's out-buffer, update backpressure gating and
    /// epoll interest, and close if the connection is finished.
    fn flush_conn(&mut self, slot: usize) {
        let mut close = false;
        {
            let Some(Some(conn)) = self.conns.get_mut(slot) else {
                return;
            };
            match conn.out.flush(&mut conn.stream) {
                Ok(true) => {
                    if conn.close_after_flush && conn.inflight == 0 {
                        close = true;
                    }
                }
                Ok(false) => {}
                Err(_) => close = true,
            }
            if !close {
                // read-gating backpressure against slow readers
                let pending = conn.out.pending();
                if pending > HIGH_WATER {
                    conn.read_paused = true;
                } else if conn.read_paused && pending <= LOW_WATER {
                    conn.read_paused = false;
                }
                let desired = Interest {
                    readable: conn.paused_until.is_none()
                        && !conn.read_paused
                        && !conn.close_after_flush,
                    writable: !conn.out.is_empty(),
                };
                if desired != conn.interest {
                    let token = conn_token(slot, conn.generation);
                    if self
                        .reactor
                        .reregister(conn.stream.as_raw_fd(), token, desired)
                        .is_ok()
                    {
                        conn.interest = desired;
                    }
                }
            }
        }
        if close {
            self.close_conn(slot);
        }
    }

    /// Un-pause connections whose chaos delay has elapsed.
    fn expire_pauses(&mut self) {
        let now = Instant::now();
        let expired: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(slot, c)| match c {
                Some(conn) => (conn.paused_until.is_some_and(|t| t <= now)).then_some(slot),
                None => None,
            })
            .collect();
        for slot in expired {
            if let Some(Some(conn)) = self.conns.get_mut(slot) {
                conn.paused_until = None;
                conn.last_progress = Instant::now();
            }
            // flush_conn recomputes interest (read re-enabled) and the
            // level-triggered reactor re-reports any bytes that arrived
            // during the pause.
            self.flush_conn(slot);
        }
    }

    /// Close connections idle past the budget (no bytes, nothing queued).
    fn reap_idle(&mut self) {
        let Some(budget) = self.idle_budget else {
            return;
        };
        let stale: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(slot, c)| match c {
                Some(conn)
                    if conn.inflight == 0
                        && conn.paused_until.is_none()
                        && conn.out.is_empty()
                        && conn.last_progress.elapsed() >= budget =>
                {
                    Some(slot)
                }
                _ => None,
            })
            .collect();
        for slot in stale {
            if let Some(Some(conn)) = self.conns.get(slot) {
                harp_obs::event("serve.conn_idle_timeout")
                    .field("idle_ms", conn.last_progress.elapsed().as_millis() as u64)
                    .emit();
            }
            self.close_conn(slot);
        }
    }

    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) {
            let _ = self.reactor.deregister(conn.stream.as_raw_fd());
            self.generations[slot] = self.generations[slot].wrapping_add(1);
            self.free.push(slot);
            self.open -= 1;
            self.stats.record_conn_close();
        }
    }

    /// Best-effort drain on shutdown: give in-flight responses a short
    /// window to land and flush, then close everything and join the
    /// shards.
    fn graceful_exit(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_millis(500);
        let mut events: Vec<Event> = Vec::new();
        loop {
            self.drain_completions();
            let pending = self
                .conns
                .iter()
                .flatten()
                .any(|c| !c.out.is_empty() || c.inflight > 0);
            if !pending || Instant::now() >= deadline {
                break;
            }
            let _ = self
                .reactor
                .wait(&mut events, Some(Duration::from_millis(10)));
        }
        for slot in 0..self.conns.len() {
            self.close_conn(slot);
        }
        self.fleet.join();
        harp_obs::event("serve.stopped").emit();
    }
}

/// Build a connection token: generation in the high 32 bits, slot low.
fn conn_token(slot: usize, generation: u32) -> u64 {
    (u64::from(generation) << 32) | (slot as u64 & 0xFFFF_FFFF)
}

/// Split a token back into `(slot, generation)`; `None` for reserved
/// tokens.
fn split_token(token: u64) -> Option<(usize, u32)> {
    if token == LISTENER_TOKEN {
        return None;
    }
    let slot = usize::try_from(token & 0xFFFF_FFFF).ok()?;
    let generation = u32::try_from(token >> 32).ok()?;
    Some((slot, generation))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_roundtrip_slot_and_generation() {
        for (slot, generation) in [(0usize, 0u32), (7, 3), (0xFFFF_FFFE, u32::MAX - 1)] {
            let token = conn_token(slot, generation);
            assert_eq!(split_token(token), Some((slot, generation)));
        }
        assert_eq!(split_token(LISTENER_TOKEN), None);
    }

    #[test]
    fn config_defaults_are_sane() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.shards, 1);
        assert!(cfg.max_conns >= 64);
        assert!(cfg.queue_limit >= 1);
    }
}
