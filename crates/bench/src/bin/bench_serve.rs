//! Fleet serving gate: boots the `harp-serve` daemon in-process
//! (`ServeConfig::default()` with [`MAX_BATCH`] and the [`CHAOS_PLAN`]
//! connection faults applied) with the quick HARP model on GEANT and
//! drives it with an **open-loop** synthetic client swarm — requests fire
//! on a schedule regardless of response latency, so queueing collapse
//! shows up in the tail instead of silently throttling the offered load.
//! The run layers on the adversarial traffic the fleet is designed to
//! absorb:
//!
//! * a **flash crowd**: the offered rate multiplies mid-run for ~15% of
//!   the duration;
//! * **slow-loris** connections dribbling bytes of a never-terminated
//!   request line (they must cost one capped buffer each — no thread, no
//!   wakeups, and **zero protocol errors**, since no line ever completes);
//! * **chaos connection faults** at the accept path — the swarm
//!   reconnects through dropped accepts.
//!
//! After the load phase an **idle phase** holds open connections with no
//! traffic and measures process CPU, pinning the "no wakeups per idle
//! connection" property of the reactor (the old design burned one
//! `set_read_timeout` wakeup per idle connection per poll interval).
//!
//! The workload is one fixed configuration (the constants below) and the
//! report records it next to throughput, p50/p99/p999 latency, shed +
//! degraded rates, idle CPU and `host_cpus`. Four absolute gates turn the
//! measurements into the exit status: ≥ [`MIN_RPS`] req/s, p99 ≤
//! [`MAX_P99_MS`] ms, zero protocol errors, idle CPU ≤ [`MAX_IDLE_CPU_PCT`].
//! Topology churn and checkpoint hot-reload under load are measured by the
//! repo benchmark's `serve_churn` workload and tested in `harp-serve`'s
//! `integration` and `routing` suites, not here.
//!
//! Usage: `cargo run --release -p harp-bench --bin bench_serve -- [out.json]`
//! (default `BENCH_serve.json`); any other argument exits 2.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use harp_chaos::FaultPlan;
use harp_core::{percentile, Harp, HarpConfig, SplitModel};
use harp_paths::TunnelSet;
use harp_serve::{serve, ServeConfig, ServerHandle};
use harp_tensor::ParamStore;
use harp_traffic::{gravity_series, GravityConfig, TrafficMatrix};
use rand::{rngs::StdRng, SeedableRng};
use serde_json::Value;

/// Open-loop client connections.
const CONNS: usize = 4;
/// Offered request rate outside the flash crowd, summed over [`CONNS`].
const OFFERED_RPS: f64 = 450.0;
/// Rate multiplier inside the flash-crowd window. The request size below
/// keeps the doubled rate (900 rps) under a 1-CPU runner's capacity.
const BURST_MULT: u32 = 2;
/// Slow-loris connections, alive for the whole load phase.
const LORIS: usize = 4;
/// Length of the load phase.
const DURATION_SECS: u64 = 12;
/// Batcher batch cap. On one CPU the batcher's tail is batch size × per-
/// request cost — the last job in a full batch waits for every job before
/// it — and the default 32 × ~1 ms blows the p99 budget; 8 trades a little
/// throughput for a bounded tail.
const MAX_BATCH: usize = 8;
/// Heaviest demand pairs per infer request. Small requests spend the
/// runner's CPU on the fleet path rather than on JSON rendering: at 64
/// demands the flash crowd sat on the knee of a 1-CPU runner and tipped
/// into sustained queueing on about half the runs.
const DEMANDS_PER_REQUEST: usize = 24;
/// Tunnels per node pair (k of the k-shortest paths).
const PATHS_PER_PAIR: usize = 2;
/// Length of the idle phase whose process CPU is measured.
const IDLE_SECS: u64 = 2;
/// Connections held open, with no traffic, during the idle phase.
const IDLE_CONNS: usize = 64;
/// Connection faults at the accept path, parsed with `FaultPlan::parse`:
/// every 7th accept is dropped and every 5th is delayed by 40 ms.
const CHAOS_PLAN: &str = "drop-conn@every=7;delay-conn@every=5,ms=40";
/// Throughput gate, in successful replies per second of wall time.
const MIN_RPS: f64 = 500.0;
/// Tail-latency gate on the p99 of successful replies, in milliseconds.
const MAX_P99_MS: f64 = 25.0;
/// Idle-phase gate on process CPU, in percent of one core.
const MAX_IDLE_CPU_PCT: f64 = 5.0;

/// The quick HARP model: capacity traded for serving throughput, so a
/// 1-CPU runner saturates the fleet path rather than the matmuls.
fn quick_model() -> HarpConfig {
    HarpConfig {
        gnn_layers: 1,
        settrans_layers: 1,
        rau_iters: 2,
        ..HarpConfig::default()
    }
}

/// Per-swarm-client tallies.
#[derive(Default)]
struct ClientReport {
    sent: u64,
    ok: u64,
    degraded: u64,
    shed: u64,
    errors: u64,
    lost: u64,
    reconnects: u64,
    latencies_us: Vec<f64>,
}

/// Render the demands fragment of an infer request for one TM, keeping
/// its [`DEMANDS_PER_REQUEST`] heaviest pairs.
fn demands_fragment(tm: &TrafficMatrix) -> String {
    let n = tm.num_nodes();
    let mut pairs = Vec::new();
    for s in 0..n {
        for t in 0..n {
            let d = tm.demand(s, t);
            if d > 0.0 {
                pairs.push((s, t, d));
            }
        }
    }
    pairs.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    pairs.truncate(DEMANDS_PER_REQUEST);
    let parts: Vec<String> = pairs
        .iter()
        .map(|&(s, t, d)| format!("[{s},{t},{d:.6}]"))
        .collect();
    format!("[{}]", parts.join(","))
}

/// Pull the numeric `"id"` field out of a response line without a full
/// JSON parse (responses carry thousands of splits; the swarm client
/// must stay cheaper than the server it measures).
fn extract_id(line: &str) -> Option<u64> {
    let at = line.find("\"id\":")?;
    let digits: String = line[at + 5..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

struct Wire {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

fn connect(addr: std::net::SocketAddr) -> Option<Wire> {
    let stream = TcpStream::connect(addr).ok()?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(Duration::from_millis(5)))
        .ok()?;
    let reader = BufReader::new(stream.try_clone().ok()?);
    Some(Wire {
        writer: stream,
        reader,
    })
}

/// Open-loop swarm client: fires requests on its schedule (pipelined, no
/// waiting for responses), collects whatever responses arrive, and
/// reconnects through chaos-dropped connections. The rate is
/// [`BURST_MULT`] times higher inside `burst_window`, modeling a flash
/// crowd.
fn swarm_client(
    addr: std::net::SocketAddr,
    demand_bodies: &[String],
    client_idx: usize,
    until: Instant,
    base_interval: Duration,
    burst_window: (Instant, Instant),
) -> ClientReport {
    let mut report = ClientReport::default();
    let Some(mut wire) = connect(addr) else {
        report.errors += 1;
        return report;
    };
    let mut pending: HashMap<u64, Instant> = HashMap::new();
    let mut id = client_idx as u64 * 1_000_000;
    let mut acc = String::new();
    let mut next_send = Instant::now();
    let drain_until = until + Duration::from_secs(2);
    loop {
        let now = Instant::now();
        if now >= drain_until || (now >= until && pending.is_empty()) {
            break;
        }
        // send every request the schedule owes us (open loop: we do NOT
        // wait for responses before sending the next one)
        while now >= next_send && now < until {
            id += 1;
            let body = &demand_bodies[(id as usize).wrapping_add(client_idx) % demand_bodies.len()];
            let req = format!("{{\"id\":{id},\"type\":\"infer\",\"demands\":{body}}}\n");
            match wire.writer.write_all(req.as_bytes()) {
                Ok(()) => {
                    report.sent += 1;
                    pending.insert(id, Instant::now());
                }
                Err(_) => {
                    report.lost += pending.len() as u64;
                    pending.clear();
                    report.reconnects += 1;
                    match connect(addr) {
                        Some(w) => wire = w,
                        None => return report,
                    }
                }
            }
            let in_burst = now >= burst_window.0 && now < burst_window.1;
            let interval = if in_burst {
                base_interval / BURST_MULT
            } else {
                base_interval
            };
            next_send += interval;
            if next_send + Duration::from_secs(1) < now {
                // fell hopelessly behind (server stalled us); resync the
                // schedule instead of bursting a vengeance backlog
                next_send = now;
            }
        }
        // collect responses until the next send is due; the 5ms read
        // timeout keeps us on schedule, and partial lines persist in
        // `acc` across timeouts
        match wire.reader.read_line(&mut acc) {
            Ok(0) => {
                // server closed (chaos drop, shutdown): reconnect
                report.lost += pending.len() as u64;
                pending.clear();
                acc.clear();
                report.reconnects += 1;
                match connect(addr) {
                    Some(w) => wire = w,
                    None => return report,
                }
            }
            Ok(_) => {
                // hot path: scan for the fields we need instead of
                // parsing tens of KB of splits JSON per response — the
                // client must not be the bottleneck it is measuring
                let rid = extract_id(&acc);
                let t0 = rid.and_then(|r| pending.remove(&r));
                if acc.contains("\"ok\":true") || acc.contains("\"ok\": true") {
                    report.ok += 1;
                    if let Some(t0) = t0 {
                        report.latencies_us.push(t0.elapsed().as_micros() as f64);
                    }
                    if acc.contains("\"degraded\":true") || acc.contains("\"degraded\": true") {
                        report.degraded += 1;
                    }
                } else if acc.contains("\"shed\":true") || acc.contains("\"shed\": true") {
                    report.shed += 1;
                } else {
                    report.errors += 1;
                }
                acc.clear();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                report.lost += pending.len() as u64;
                pending.clear();
                acc.clear();
                report.reconnects += 1;
                match connect(addr) {
                    Some(w) => wire = w,
                    None => return report,
                }
            }
        }
    }
    report.lost += pending.len() as u64;
    report
}

/// Slow-loris adversary: dribbles bytes of a valid-looking request line,
/// one byte at a time, never sending the newline. The server must hold
/// exactly one capped buffer for it and register **zero** protocol
/// errors (no line ever completes).
fn slow_loris(addr: std::net::SocketAddr, until: Instant) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return;
    };
    let payload = br#"{"id": 1, "type": "infer", "demands": [[0, 1, 1.0"#;
    let mut i = 0usize;
    while Instant::now() < until {
        // wrap before the payload ends so we never emit a full line and
        // never cross the line cap
        if i < payload.len() - 1 {
            if stream.write_all(&payload[i..=i]).is_err() {
                return; // chaos-dropped: the point still stands
            }
            i += 1;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    // drop without newline: the partial line is discarded at EOF,
    // producing no protocol error
}

/// Process CPU time (user + system) from /proc/self/stat, in seconds.
#[cfg(target_os = "linux")]
fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // fields 14 (utime) and 15 (stime), counted after the parenthesized
    // comm field which may itself contain spaces
    let after_comm = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    // CLK_TCK is 100 on every Linux this runs on
    Some((utime + stime) / 100.0)
}

#[cfg(not(target_os = "linux"))]
fn process_cpu_seconds() -> Option<f64> {
    None
}

/// What the four gates read from one run.
struct Measured {
    throughput_rps: f64,
    /// NaN when no reply succeeded.
    p99_us: f64,
    protocol_errors: u64,
    /// `None` where the host exposes no process CPU time.
    idle_cpu_pct: Option<f64>,
}

/// The failed gates, one message each; empty means the run passes. A value
/// exactly at a threshold passes.
fn gate_failures(m: &Measured) -> Vec<String> {
    let mut failures = Vec::new();
    if m.throughput_rps < MIN_RPS {
        failures.push(format!(
            "throughput {:.1} req/s < required {MIN_RPS:.1}",
            m.throughput_rps
        ));
    }
    let p99_ms = m.p99_us / 1000.0;
    // NaN p99 (no samples) must fail the gate too.
    if p99_ms.is_nan() || p99_ms > MAX_P99_MS {
        failures.push(format!("p99 {p99_ms:.2}ms > allowed {MAX_P99_MS:.2}ms"));
    }
    if m.protocol_errors > 0 {
        failures.push(format!(
            "{} protocol errors (slow-loris / chaos must cause none)",
            m.protocol_errors
        ));
    }
    if let Some(p) = m.idle_cpu_pct {
        if p > MAX_IDLE_CPU_PCT {
            failures.push(format!("idle cpu {p:.1}% > allowed {MAX_IDLE_CPU_PCT:.1}%"));
        }
    }
    failures
}

/// The report path: the one positional argument, if given.
fn out_path() -> String {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => "BENCH_serve.json".to_string(),
        [path] if !path.starts_with('-') => path.clone(),
        _ => {
            eprintln!(
                "error: unexpected arguments {args:?}\n\
                 usage: bench_serve [out.json]  (the workload and its gates are fixed)"
            );
            std::process::exit(2);
        }
    }
}

fn main() {
    let out_path = out_path();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chaos = FaultPlan::parse(CHAOS_PLAN).expect("CHAOS_PLAN parses");

    // GEANT + k-shortest tunnels, gravity traffic — the zoo's training
    // distribution.
    let topo = harp_datasets::geant();
    let edge_nodes: Vec<usize> = (0..topo.num_nodes()).collect();
    let tunnels = TunnelSet::k_shortest(&topo, &edge_nodes, PATHS_PER_PAIR, 0.0);
    let mut gcfg = GravityConfig::uniform(topo.num_nodes(), 1.0);
    gcfg.edge_nodes = edge_nodes;
    let mut rng = StdRng::seed_from_u64(42);
    let tms = gravity_series(&gcfg, &mut rng, 16);
    let scale = harp_datasets::calibrate_demand_scale(&topo, &tunnels, &tms, 0.7);
    let demand_bodies: Vec<String> = tms
        .iter()
        .map(|tm| demands_fragment(&tm.scaled(scale)))
        .collect();

    let mut store = ParamStore::new();
    let mut mrng = StdRng::seed_from_u64(1);
    let model: Arc<dyn SplitModel + Send + Sync> =
        Arc::new(Harp::new(&mut store, &mut mrng, quick_model()));
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(), // never collide with a real daemon
        max_batch: MAX_BATCH,
        chaos: Some(Arc::new(chaos)),
        ..ServeConfig::default()
    };
    let shards = cfg.shards;
    let deadline_ms = cfg.deadline_ms;
    let suite = format!(
        "harp-serve fleet loopback: HARP (quick, fresh params) on GEANT k={PATHS_PER_PAIR}, \
         {shards} shard(s), {CONNS} open-loop conns at {OFFERED_RPS:.0} rps \
         (x{BURST_MULT} flash crowd), {DEMANDS_PER_REQUEST} demands/request, \
         {LORIS} slow-loris, {DURATION_SECS}s, chaos: {CHAOS_PLAN}"
    );
    println!("bench_serve: {suite}");
    let handle: ServerHandle = serve(cfg, model, store, topo, tunnels).expect("bind loopback port");
    let addr = handle.addr();

    let started = Instant::now();
    let load = Duration::from_secs(DURATION_SECS);
    let until = started + load;
    let burst_window = (started + load * 2 / 5, started + load * 11 / 20);
    let base_interval = Duration::from_secs_f64(1.0 / (OFFERED_RPS / CONNS as f64));
    let reports: Vec<ClientReport> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNS)
            .map(|i| {
                let bodies = &demand_bodies;
                s.spawn(move || swarm_client(addr, bodies, i, until, base_interval, burst_window))
            })
            .collect();
        for _ in 0..LORIS {
            s.spawn(move || slow_loris(addr, until));
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("client panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();

    // --- idle phase: open connections, zero traffic, measure CPU ---
    let idle_holders: Vec<TcpStream> = (0..IDLE_CONNS)
        .filter_map(|_| TcpStream::connect(addr).ok())
        .collect();
    std::thread::sleep(Duration::from_millis(200)); // let accepts settle
    let cpu_before = process_cpu_seconds();
    std::thread::sleep(Duration::from_secs(IDLE_SECS));
    let cpu_after = process_cpu_seconds();
    let idle_cpu_pct = match (cpu_before, cpu_after) {
        (Some(b), Some(a)) => Some((a - b) / IDLE_SECS as f64 * 100.0),
        _ => None,
    };
    drop(idle_holders);

    let sent: u64 = reports.iter().map(|r| r.sent).sum();
    let ok: u64 = reports.iter().map(|r| r.ok).sum();
    let degraded: u64 = reports.iter().map(|r| r.degraded).sum();
    let shed_seen: u64 = reports.iter().map(|r| r.shed).sum();
    let errors: u64 = reports.iter().map(|r| r.errors).sum();
    let lost: u64 = reports.iter().map(|r| r.lost).sum();
    let reconnects: u64 = reports.iter().map(|r| r.reconnects).sum();
    let mut latencies: Vec<f64> = reports.into_iter().flat_map(|r| r.latencies_us).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let throughput = ok as f64 / wall_s;
    let rate = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    let pct = |p: f64| percentile(&latencies, p).unwrap_or(f64::NAN);
    let server_stats = handle.stats().snapshot();
    let protocol_errors = handle.stats().protocol_errors_total();
    let shed_server = handle.stats().shed_total();
    handle.shutdown();

    println!(
        "  {ok} ok / {sent} sent in {wall_s:.2}s = {throughput:.1} req/s  \
         (degraded {:.2}%, shed {shed_seen}, errors {errors}, lost {lost}, \
         reconnects {reconnects})",
        rate(degraded, ok) * 100.0,
    );
    println!(
        "  latency p50 {:.0}us  p99 {:.0}us  p999 {:.0}us  max {:.0}us",
        pct(50.0),
        pct(99.0),
        pct(99.9),
        pct(100.0)
    );
    println!(
        "  server: protocol_errors {protocol_errors}, shed {shed_server}, idle cpu {}",
        idle_cpu_pct.map_or("n/a".to_string(), |p| format!("{p:.1}%")),
    );

    let doc = serde_json::json!({
        "suite": suite,
        "host_cpus": host_cpus,
        "model": "quick",
        "shards": shards,
        "conns": CONNS,
        "burst_mult": BURST_MULT,
        "loris": LORIS,
        "duration_secs": DURATION_SECS,
        "max_batch": MAX_BATCH,
        "deadline_ms": deadline_ms,
        "chaos": CHAOS_PLAN,
        "paths_per_pair": PATHS_PER_PAIR,
        "demands_per_request": DEMANDS_PER_REQUEST,
        "offered_rps": OFFERED_RPS,
        "wall_s": wall_s,
        "requests_sent": sent,
        "requests_ok": ok,
        "throughput_rps": throughput,
        "degraded": degraded,
        "degraded_rate": rate(degraded, ok),
        "shed": shed_server,
        "shed_rate": rate(shed_server, sent),
        "client_errors": errors,
        "client_lost": lost,
        "client_reconnects": reconnects,
        "protocol_errors": protocol_errors,
        "latency_p50_us": pct(50.0),
        "latency_p99_us": pct(99.0),
        "latency_p999_us": pct(99.9),
        "latency_max_us": pct(100.0),
        "idle_conns": IDLE_CONNS,
        "idle_secs": IDLE_SECS,
        "idle_cpu_pct": idle_cpu_pct.map_or(Value::Null, Value::from),
        "server_stats": server_stats,
    });
    let text = serde_json::to_string_pretty(&doc).expect("serialize bench report");
    if let Err(e) = std::fs::write(&out_path, text) {
        eprintln!("error: write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("[results -> {out_path}]");

    let failures = gate_failures(&Measured {
        throughput_rps: throughput,
        p99_us: pct(99.0),
        protocol_errors,
        idle_cpu_pct,
    });
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("GATE FAILED: {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_thresholds() -> Measured {
        Measured {
            throughput_rps: MIN_RPS,
            p99_us: MAX_P99_MS * 1000.0,
            protocol_errors: 0,
            idle_cpu_pct: Some(MAX_IDLE_CPU_PCT),
        }
    }

    #[test]
    fn gates_pass_at_thresholds_and_fail_on_no_samples_or_one_protocol_error() {
        assert!(gate_failures(&at_thresholds()).is_empty());
        let no_samples = Measured {
            p99_us: f64::NAN,
            ..at_thresholds()
        };
        assert_eq!(gate_failures(&no_samples).len(), 1);
        let one_error = Measured {
            protocol_errors: 1,
            ..at_thresholds()
        };
        assert_eq!(gate_failures(&one_error).len(), 1);
    }
}
