//! Regression test for connection-churn resource leaks.
//!
//! The original daemon spawned a thread per connection and pushed the
//! handle into a vector that was only pruned opportunistically — churn
//! grew the process's thread count and the handle vector without bound.
//! The reactor design is structurally immune: no thread is ever spawned
//! per connection. This test hammers connect/request/disconnect and
//! asserts (a) the server's open-connection gauge returns to zero and
//! (b) on Linux, the process thread count does not grow with churn.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use harp_core::{Harp, HarpConfig, SplitModel};
use harp_paths::TunnelSet;
use harp_serve::{serve, ServeConfig, ServerHandle};
use harp_tensor::ParamStore;
use harp_topology::Topology;
use rand::{rngs::StdRng, SeedableRng};
use serde_json::Value;

/// How long a client waits for a reply: one that never comes fails the
/// test instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

fn boot() -> ServerHandle {
    let mut topo = Topology::new(4);
    topo.add_link(0, 1, 10.0).unwrap();
    topo.add_link(1, 2, 10.0).unwrap();
    topo.add_link(2, 3, 10.0).unwrap();
    topo.add_link(3, 0, 10.0).unwrap();
    let tunnels = TunnelSet::k_shortest(&topo, &[0, 1, 2, 3], 3, 0.0);
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(5);
    let harp = Harp::new(
        &mut store,
        &mut rng,
        HarpConfig {
            gnn_layers: 1,
            gnn_hidden: 4,
            d_model: 8,
            settrans_layers: 1,
            heads: 1,
            d_ff: 8,
            mlp_hidden: 8,
            rau_iters: 1,
        },
    );
    let model: Arc<dyn SplitModel + Send + Sync> = Arc::new(harp);
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        deadline_ms: 2_000,
        ..ServeConfig::default()
    };
    serve(cfg, model, store, topo, tunnels).expect("bind loopback")
}

#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn connection_churn_leaks_no_threads_or_handles() {
    let handle = boot();

    // Warm up: one full request so lazy pools/caches exist before we
    // snapshot the thread count.
    {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        w.write_all(b"{\"id\": 0, \"type\": \"infer\", \"demands\": [[0, 2, 1.0]]}\n")
            .unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
    }

    #[cfg(target_os = "linux")]
    let threads_before = process_threads();

    for i in 0..50u64 {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        w.write_all(
            format!("{{\"id\": {i}, \"type\": \"infer\", \"demands\": [[0, 2, 1.0]]}}\n")
                .as_bytes(),
        )
        .unwrap();
        w.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        let v: Value = serde_json::from_str(&resp).expect("valid JSON");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        // both halves drop here: the server sees EOF and must fully
        // release the connection
    }

    // The open-connection gauge must return to zero once the server has
    // observed every EOF.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if handle.stats().conns_open() == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "connections leaked: {} still open after churn",
            handle.stats().conns_open()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(handle.stats().conns_open() == 0);

    // No thread-per-connection: churning 50 connections must not grow
    // the thread count (allow +2 slack for unrelated lazy runtime
    // threads, far below the 50 a per-connection design would add).
    #[cfg(target_os = "linux")]
    {
        let threads_after = process_threads();
        assert!(
            threads_after <= threads_before + 2,
            "thread count grew with churn: {threads_before} -> {threads_after}"
        );
    }

    handle.shutdown();
}
