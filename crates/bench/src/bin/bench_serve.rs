//! Fleet serving bench: boots the `harp-serve` daemon in-process
//! (`ServeConfig::default()` with the `--shards` / `--max-batch` flags
//! applied; the environment sets nothing but the `HARP_FAULT` plan) with
//! HARP on GEANT and drives it with an **open-loop** synthetic client
//! swarm — requests fire on a schedule regardless of response latency, so
//! queueing collapse shows up in the tail instead of silently throttling
//! the offered load.
//! The run layers on the adversarial traffic the fleet is designed to
//! absorb:
//!
//! * a **flash crowd**: the offered rate multiplies mid-run for ~15% of
//!   the duration;
//! * **slow-loris** connections dribbling bytes of a never-terminated
//!   request line (they must cost one capped buffer each — no thread, no
//!   wakeups, and **zero protocol errors**, since no line ever completes);
//! * optional **chaos connection faults** (`HARP_FAULT` /
//!   `drop-conn@every=K`, `delay-conn@every=K,ms=M`) — the swarm
//!   reconnects through dropped accepts. This binary is the one reader
//!   of `HARP_FAULT`: it parses the plan itself and hands it to
//!   `ServeConfig::chaos`; a plan that fails to parse exits 2 before the
//!   daemon binds;
//! * the usual mid-run churn: link fail, checkpoint hot-reload, link
//!   restore.
//!
//! After the load phase an **idle phase** holds open connections with no
//! traffic and measures process CPU, pinning the "no wakeups per idle
//! connection" property of the reactor (the old design burned one
//! `set_read_timeout` wakeup per idle connection per poll interval).
//!
//! Results go to `BENCH_serve.json`: throughput, p50/p99/p999 latency,
//! shed + degraded rates, idle CPU, host_cpus. `--assert-*` flags turn
//! measurements into CI gates (non-zero exit on violation).
//!
//! Usage: `cargo run --release -p harp-bench --bin bench_serve -- \
//!   [out.json] [--duration-secs N] [--conns N] [--rps N] [--loris N] \
//!   [--shards N] [--max-batch N] [--model default|quick] [--checkpoint ckpt.json] \
//!   [--idle-secs N] [--assert-rps X] [--assert-p99-ms X] \
//!   [--assert-zero-protocol-errors] [--assert-idle-cpu-pct X]`

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use harp_chaos::FaultPlan;
use harp_core::{percentile, Harp, HarpConfig, SplitModel};
use harp_nn::{load_params, save_params};
use harp_paths::TunnelSet;
use harp_serve::{serve, ServeConfig, ServerHandle};
use harp_tensor::ParamStore;
use harp_traffic::{gravity_series, GravityConfig, TrafficMatrix};
use rand::{rngs::StdRng, SeedableRng};
use serde_json::Value;

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
/// the `keep` heaviest pairs (`usize::MAX` = all of them). Smaller
/// requests let a 1-CPU CI host exercise the fleet path instead of
/// JSON-rendering bandwidth; the report records the request size.
fn demands_fragment(tm: &TrafficMatrix, keep: usize) -> String {
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
    pairs.truncate(keep);
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
/// reconnects through chaos-dropped connections. `burst` multiplies the
/// rate inside its window, modeling a flash crowd.
#[allow(clippy::too_many_arguments)]
fn swarm_client(
    addr: std::net::SocketAddr,
    demand_bodies: &[String],
    client_idx: usize,
    until: Instant,
    base_interval: Duration,
    burst_window: (Instant, Instant),
    burst_mult: u32,
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
                base_interval / burst_mult.max(1)
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

/// Fire one control request on its own connection and return the reply.
fn control(addr: std::net::SocketAddr, line: &str) -> Option<Value> {
    let stream = TcpStream::connect(addr).ok()?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut reader = BufReader::new(stream.try_clone().ok()?);
    let mut writer = stream;
    writer.write_all(line.as_bytes()).ok()?;
    writer.write_all(b"\n").ok()?;
    writer.flush().ok()?;
    let mut resp = String::new();
    reader.read_line(&mut resp).ok()?;
    serde_json::from_str(&resp).ok()
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

struct Gates {
    min_rps: Option<f64>,
    max_p99_ms: Option<f64>,
    zero_protocol_errors: bool,
    max_idle_cpu_pct: Option<f64>,
}

#[allow(clippy::too_many_lines)]
fn main() {
    let mut out_path = "BENCH_serve.json".to_string();
    let mut duration_secs = 5u64;
    let mut conns = 16usize;
    let mut offered_rps = 512.0f64;
    let mut burst_mult = 4u32;
    let mut loris = 4usize;
    let mut idle_secs = 2u64;
    let mut idle_conns = 64usize;
    let mut demands_per_req = usize::MAX;
    let mut paths_per_pair = 4usize;
    let mut shards_override: Option<usize> = None;
    let mut max_batch_override: Option<usize> = None;
    let mut churn = true;
    let mut model_size = "default".to_string();
    let mut checkpoint: Option<String> = None;
    let mut gates = Gates {
        min_rps: None,
        max_p99_ms: None,
        zero_protocol_errors: false,
        max_idle_cpu_pct: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut num = |name: &str| -> f64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} requires a number"))
        };
        match a.as_str() {
            "--duration-secs" => duration_secs = num("--duration-secs") as u64,
            "--conns" | "--clients" => conns = num("--conns") as usize,
            "--rps" => offered_rps = num("--rps"),
            "--burst-mult" => burst_mult = num("--burst-mult") as u32,
            "--loris" => loris = num("--loris") as usize,
            "--idle-secs" => idle_secs = num("--idle-secs") as u64,
            "--idle-conns" => idle_conns = num("--idle-conns") as usize,
            "--demands" => demands_per_req = num("--demands") as usize,
            "--paths" => paths_per_pair = (num("--paths") as usize).max(1),
            "--shards" => shards_override = Some(num("--shards") as usize),
            "--max-batch" => max_batch_override = Some((num("--max-batch") as usize).max(1)),
            "--churn" => {
                churn = args.next().as_deref() != Some("off");
            }
            "--model" => model_size = args.next().expect("--model requires default|quick"),
            "--checkpoint" => checkpoint = Some(args.next().expect("--checkpoint requires a path")),
            "--assert-rps" => gates.min_rps = Some(num("--assert-rps")),
            "--assert-p99-ms" => gates.max_p99_ms = Some(num("--assert-p99-ms")),
            "--assert-zero-protocol-errors" => gates.zero_protocol_errors = true,
            "--assert-idle-cpu-pct" => gates.max_idle_cpu_pct = Some(num("--assert-idle-cpu-pct")),
            other => out_path = other.to_string(),
        }
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // A typo'd plan would fire no fault and pass every gate, so it ends
    // the run before anything is built.
    let chaos_plan = std::env::var("HARP_FAULT").unwrap_or_default();
    let chaos = if chaos_plan.trim().is_empty() {
        None
    } else {
        match FaultPlan::parse(&chaos_plan) {
            Ok(plan) => Some(Arc::new(plan)),
            Err(e) => {
                eprintln!("error: HARP_FAULT: {e}");
                std::process::exit(2);
            }
        }
    };

    // GEANT + k-shortest tunnels, gravity traffic — the zoo's training
    // distribution, so a `--checkpoint` trained there matches the workload.
    let topo = harp_datasets::geant();
    let edge_nodes: Vec<usize> = (0..topo.num_nodes()).collect();
    let tunnels = TunnelSet::k_shortest(&topo, &edge_nodes, paths_per_pair, 0.0);
    let mut gcfg = GravityConfig::uniform(topo.num_nodes(), 1.0);
    gcfg.edge_nodes = edge_nodes;
    let mut rng = StdRng::seed_from_u64(42);
    let tms = gravity_series(&gcfg, &mut rng, 16);
    let scale = harp_datasets::calibrate_demand_scale(&topo, &tunnels, &tms, 0.7);
    let demand_bodies: Vec<String> = tms
        .iter()
        .map(|tm| demands_fragment(&tm.scaled(scale), demands_per_req))
        .collect();

    // `quick` trades model capacity for serving throughput — the CI gate
    // uses it so a 1-CPU runner can saturate the fleet path rather than
    // the matmuls; the recorded "model" field keeps the report honest.
    let harp_cfg = match model_size.as_str() {
        "quick" => HarpConfig {
            gnn_layers: 1,
            settrans_layers: 1,
            rau_iters: 2,
            ..HarpConfig::default()
        },
        _ => HarpConfig::default(),
    };
    let mut store = ParamStore::new();
    let mut mrng = StdRng::seed_from_u64(1);
    let harp = Harp::new(&mut store, &mut mrng, harp_cfg);
    let params_source = match checkpoint.map(std::path::PathBuf::from) {
        Some(ckpt) if model_size != "quick" && ckpt.exists() => {
            match load_params(&mut store, &ckpt) {
                Ok(()) => format!("checkpoint {}", ckpt.display()),
                Err(e) => {
                    eprintln!(
                        "warning: checkpoint {} rejected ({e}); using fresh params",
                        ckpt.display()
                    );
                    "fresh (checkpoint rejected)".to_string()
                }
            }
        }
        _ => "fresh".to_string(),
    };

    // A reload target for the mid-run hot-swap: same architecture,
    // different values.
    let reload_path = std::env::temp_dir().join("bench_serve_reload.json");
    {
        let mut other = ParamStore::new();
        let mut orng = StdRng::seed_from_u64(2);
        let _ = Harp::new(&mut other, &mut orng, harp_cfg);
        save_params(&other, &reload_path).expect("write reload checkpoint");
    }

    // a real GEANT link for the mid-run failure drill
    let (churn_u, churn_v, _, _) = topo.links()[0];

    let model: Arc<dyn SplitModel + Send + Sync> = Arc::new(harp);
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(), // never collide with a real daemon
        shards: shards_override.unwrap_or(defaults.shards),
        // On a single CPU the batcher's tail is batch_size x per-request
        // cost: the last job in a full batch waits for every job before it.
        // A smaller batch trades a little throughput for a bounded tail.
        max_batch: max_batch_override.unwrap_or(defaults.max_batch),
        chaos,
        ..defaults
    };
    let shards = cfg.shards;
    let max_batch = cfg.max_batch;
    let deadline_ms = cfg.deadline_ms;
    println!(
        "bench_serve: GEANT/{model_size}, {shards} shard(s), {conns} conns, \
         {offered_rps:.0} rps offered (x{burst_mult} burst), {loris} slow-loris, \
         {duration_secs}s, params: {params_source}{}",
        if chaos_plan.is_empty() {
            String::new()
        } else {
            format!(", chaos: {chaos_plan}")
        }
    );
    let handle: ServerHandle = serve(cfg, model, store, topo, tunnels).expect("bind loopback port");
    let addr = handle.addr();

    let started = Instant::now();
    let until = started + Duration::from_secs(duration_secs);
    let burst_window = (
        started + Duration::from_secs(duration_secs) * 2 / 5,
        started + Duration::from_secs(duration_secs) * 11 / 20,
    );
    let base_interval = Duration::from_secs_f64(1.0 / (offered_rps / conns as f64).max(1.0));
    let reports: Vec<ClientReport> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|i| {
                let bodies = &demand_bodies;
                s.spawn(move || {
                    swarm_client(
                        addr,
                        bodies,
                        i,
                        until,
                        base_interval,
                        burst_window,
                        burst_mult,
                    )
                })
            })
            .collect();
        for _ in 0..loris {
            s.spawn(move || slow_loris(addr, until));
        }
        // mid-run churn on a separate connection: fail a link, hot-reload
        // the checkpoint, restore the link
        let churn = s.spawn(move || {
            if !churn {
                return;
            }
            let phase = Duration::from_secs(duration_secs) / 4;
            std::thread::sleep(phase);
            let v = control(
                addr,
                &format!(
                    r#"{{"id": 1, "type": "topology_update", "fail_links": [[{churn_u}, {churn_v}]]}}"#
                ),
            );
            println!("  churn: fail ({churn_u},{churn_v}) -> ok={:?}", v.as_ref().and_then(|v| v.get("ok")));
            std::thread::sleep(phase);
            let reload = format!(
                "{{\"id\": 2, \"type\": \"reload_checkpoint\", \"path\": {:?}}}",
                std::env::temp_dir()
                    .join("bench_serve_reload.json")
                    .to_string_lossy()
            );
            let v = control(addr, &reload);
            println!("  churn: reload -> ok={:?}", v.as_ref().and_then(|v| v.get("ok")));
            std::thread::sleep(phase);
            let v = control(
                addr,
                &format!(
                    r#"{{"id": 3, "type": "topology_update", "restore_links": [[{churn_u}, {churn_v}]]}}"#
                ),
            );
            println!("  churn: restore ({churn_u},{churn_v}) -> ok={:?}", v.as_ref().and_then(|v| v.get("ok")));
        });
        let reports = workers
            .into_iter()
            .map(|w| w.join().expect("client panicked"))
            .collect();
        churn.join().expect("churn thread panicked");
        reports
    });
    let wall_s = started.elapsed().as_secs_f64();

    // --- idle phase: open connections, zero traffic, measure CPU ---
    let idle_holders: Vec<TcpStream> = (0..idle_conns)
        .filter_map(|_| TcpStream::connect(addr).ok())
        .collect();
    std::thread::sleep(Duration::from_millis(200)); // let accepts settle
    let cpu_before = process_cpu_seconds();
    std::thread::sleep(Duration::from_secs(idle_secs));
    let cpu_after = process_cpu_seconds();
    let idle_cpu_pct = match (cpu_before, cpu_after) {
        (Some(b), Some(a)) if idle_secs > 0 => Some((a - b) / idle_secs as f64 * 100.0),
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
        "suite": format!(
            "harp-serve fleet loopback: HARP ({model_size}) on GEANT, {shards} shard(s), \
             {conns} open-loop conns at {offered_rps:.0} rps (x{burst_mult} flash crowd), \
             {loris} slow-loris, {duration_secs}s, mid-run link fail/restore + hot-reload"
        ),
        "host_cpus": host_cpus,
        "model": model_size,
        "shards": shards,
        "max_batch": max_batch,
        "params_source": params_source,
        "deadline_ms": deadline_ms,
        "chaos": chaos_plan,
        "paths_per_pair": paths_per_pair,
        "demands_per_request": if demands_per_req == usize::MAX {
            Value::from("all")
        } else {
            Value::from(demands_per_req as f64)
        },
        "offered_rps": offered_rps,
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
        "idle_conns": idle_conns,
        "idle_secs": idle_secs,
        "idle_cpu_pct": idle_cpu_pct.map_or(Value::Null, Value::from),
        "server_stats": server_stats,
    });
    let text = serde_json::to_string_pretty(&doc).expect("serialize bench report");
    if let Err(e) = std::fs::write(&out_path, text) {
        eprintln!("error: write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("[results -> {out_path}]");

    // --- gates: turn measurements into exit status for CI ---
    let mut failures = Vec::new();
    if let Some(min) = gates.min_rps {
        if throughput < min {
            failures.push(format!(
                "throughput {throughput:.1} req/s < required {min:.1}"
            ));
        }
    }
    if let Some(max_ms) = gates.max_p99_ms {
        let p99_ms = pct(99.0) / 1000.0;
        // NaN p99 (no samples) must fail the gate too.
        if p99_ms.is_nan() || p99_ms > max_ms {
            failures.push(format!("p99 {p99_ms:.2}ms > allowed {max_ms:.2}ms"));
        }
    }
    if gates.zero_protocol_errors && protocol_errors > 0 {
        failures.push(format!(
            "{protocol_errors} protocol errors (slow-loris / chaos must cause none)"
        ));
    }
    if let Some(max_pct) = gates.max_idle_cpu_pct {
        match idle_cpu_pct {
            Some(p) if p > max_pct => {
                failures.push(format!("idle cpu {p:.1}% > allowed {max_pct:.1}%"))
            }
            _ => {}
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("GATE FAILED: {f}");
        }
        std::process::exit(1);
    }
}
