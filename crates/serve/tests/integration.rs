//! End-to-end test: boot the daemon on loopback, drive it with real TCP
//! clients — concurrent infers, a topology update, checkpoint reloads,
//! stats — and shut it down cleanly.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;

use harp_core::{run_inference_cached, EvalOptions, Harp, HarpConfig, Instance, SplitModel};
use harp_nn::save_params;
use harp_paths::TunnelSet;
use harp_serve::{serve, NetworkState, ServeConfig, ServerHandle};
use harp_tensor::ParamStore;
use harp_topology::Topology;
use harp_traffic::TrafficMatrix;
use rand::{rngs::StdRng, SeedableRng};
use serde_json::Value;

fn tiny_cfg() -> HarpConfig {
    HarpConfig {
        gnn_layers: 1,
        gnn_hidden: 4,
        d_model: 8,
        settrans_layers: 1,
        heads: 1,
        d_ff: 8,
        mlp_hidden: 8,
        rau_iters: 1,
    }
}

fn square() -> (Topology, TunnelSet) {
    let mut topo = Topology::new(4);
    topo.add_link(0, 1, 10.0).unwrap();
    topo.add_link(1, 2, 10.0).unwrap();
    topo.add_link(2, 3, 10.0).unwrap();
    topo.add_link(3, 0, 10.0).unwrap();
    topo.add_link(0, 2, 5.0).unwrap();
    let tunnels = TunnelSet::k_shortest(&topo, &[0, 1, 2, 3], 3, 0.0);
    (topo, tunnels)
}

fn boot(seed: u64) -> (ServerHandle, ParamStore) {
    let (topo, tunnels) = square();
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let harp = Harp::new(&mut store, &mut rng, tiny_cfg());
    let model: Arc<dyn SplitModel + Send + Sync> = Arc::new(harp);
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(), // free port per test
        deadline_ms: 2_000,
        max_batch: 8,
        ..ServeConfig::default()
    };
    let handle = serve(cfg, model, store.clone(), topo, tunnels).expect("bind loopback");
    (handle, store)
}

/// One client connection with line-oriented request/response helpers.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            writer: stream,
            reader,
        }
    }

    fn roundtrip(&mut self, line: &str) -> Value {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut resp = String::new();
        self.reader.read_line(&mut resp).unwrap();
        serde_json::from_str(&resp).expect("response is valid JSON")
    }
}

fn ckpt_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("harp_serve_integration");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn serves_infer_update_reload_stats_and_shuts_down() {
    let (handle, store) = boot(7);

    // --- concurrent infer clients ---
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let mut client = Client::connect(&handle);
            thread::spawn(move || {
                for i in 0..5u64 {
                    let id = w * 100 + i;
                    let v = client.roundtrip(&format!(
                        r#"{{"id": {id}, "type": "infer", "demands": [[0, 2, {}], [2, 0, 1.5]]}}"#,
                        1.0 + w as f64 + i as f64 * 0.1,
                    ));
                    assert_eq!(v.get("id").and_then(Value::as_u64), Some(id));
                    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
                    let splits = v.get("splits").and_then(Value::as_array).unwrap();
                    assert!(!splits.is_empty());
                    assert!(v.get("latency_us").and_then(Value::as_u64).is_some());
                    // deadline is generous: responses are model-served
                    assert_eq!(v.get("degraded").and_then(Value::as_bool), Some(false));
                    assert!(v.get("mlu").and_then(Value::as_f64).unwrap() > 0.0);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("infer client panicked");
    }

    let mut ctl = Client::connect(&handle);

    // --- topology update: fail one link, epoch bumps, tunnels shrink ---
    let before = ctl.roundtrip(r#"{"id": 900, "type": "stats"}"#);
    let tunnels_before = before.get("num_tunnels").and_then(Value::as_u64).unwrap();
    let v = ctl.roundtrip(r#"{"id": 901, "type": "topology_update", "fail_links": [[0, 1]]}"#);
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(v.get("epoch").and_then(Value::as_u64), Some(1));
    assert_eq!(v.get("failed_links").and_then(Value::as_u64), Some(2));
    let tunnels_after = v.get("num_tunnels").and_then(Value::as_u64).unwrap();
    assert!(tunnels_after < tunnels_before);

    // infer still works after the update, now against epoch 1
    let v = ctl.roundtrip(r#"{"id": 902, "type": "infer", "demands": [[0, 2, 2.0]], "epoch": 1}"#);
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(v.get("epoch").and_then(Value::as_u64), Some(1));

    // a stale epoch pin is rejected, not silently served
    let v = ctl.roundtrip(r#"{"id": 903, "type": "infer", "demands": [[0, 2, 2.0]], "epoch": 0}"#);
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    assert!(v
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains("stale epoch"));

    // restoring the link brings the tunnel count back
    let v = ctl.roundtrip(r#"{"id": 904, "type": "topology_update", "restore_links": [[0, 1]]}"#);
    assert_eq!(
        v.get("num_tunnels").and_then(Value::as_u64),
        Some(tunnels_before)
    );
    assert_eq!(v.get("failed_links").and_then(Value::as_u64), Some(0));

    // --- checkpoint hot-reload ---
    // same architecture, different seed: valid swap
    let good_path = ckpt_dir().join("good.json");
    let mut other = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(99);
    let _ = Harp::new(&mut other, &mut rng, tiny_cfg());
    save_params(&other, &good_path).unwrap();
    let v = ctl.roundtrip(&format!(
        r#"{{"id": 905, "type": "reload_checkpoint", "path": {:?}}}"#,
        good_path.to_str().unwrap()
    ));
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(
        v.get("params").and_then(Value::as_u64),
        Some(store.ids().count() as u64)
    );

    // different architecture: strict loader rejects, server keeps serving
    let bad_path = ckpt_dir().join("bad.json");
    let mut bad = ParamStore::new();
    let _ = bad.register("not.a.harp.param", vec![2], vec![1.0, 2.0]);
    save_params(&bad, &bad_path).unwrap();
    let v = ctl.roundtrip(&format!(
        r#"{{"id": 906, "type": "reload_checkpoint", "path": {:?}}}"#,
        bad_path.to_str().unwrap()
    ));
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    assert!(v
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains("reload rejected"));
    let v = ctl.roundtrip(r#"{"id": 907, "type": "infer", "demands": [[1, 3, 1.0]]}"#);
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));

    // --- malformed lines get error responses, connection stays usable ---
    let v = ctl.roundtrip("this is not json");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    assert!(v.get("id").unwrap().is_null());
    let v = ctl.roundtrip(r#"{"id": 908, "type": "warp"}"#);
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(v.get("id").and_then(Value::as_u64), Some(908));

    // --- stats reflect everything above ---
    let v = ctl.roundtrip(r#"{"id": 909, "type": "stats"}"#);
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    let requests = v.get("requests").and_then(Value::as_u64).unwrap();
    assert!(requests >= 20, "saw {requests} requests");
    assert!(v.get("infer_ok").and_then(Value::as_u64).unwrap() >= 20);
    assert_eq!(v.get("protocol_errors").and_then(Value::as_u64), Some(2));
    assert_eq!(v.get("topology_updates").and_then(Value::as_u64), Some(2));
    assert_eq!(v.get("reload_ok").and_then(Value::as_u64), Some(1));
    assert_eq!(v.get("reload_failed").and_then(Value::as_u64), Some(1));
    assert_eq!(v.get("stale_epoch").and_then(Value::as_u64), Some(1));
    assert!(v.get("latency_p50_us").and_then(Value::as_f64).is_some());
    assert!(v.get("latency_p99_us").and_then(Value::as_f64).is_some());

    // --- clean shutdown via the wire ---
    let v = ctl.roundtrip(r#"{"id": 910, "type": "shutdown"}"#);
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    handle.shutdown(); // joins listener + batcher + connection threads
}

/// The daemon keeps a compiled instance and a set of head projections per
/// epoch, retargets them per request, and parks the pair it leaves on a
/// topology update in case the next update comes back to it. Every reply
/// must carry the bits a from-scratch `Instance::compile` +
/// `precompute_epoch` on the current topology and parameters yields —
/// across traffic matrices within an epoch, link failures and restores
/// served from a parked state or a rebuilt one, and a checkpoint reload
/// (which must drop both kept states) — and `stats` must say which of the
/// two happened.
#[test]
fn replies_match_a_fresh_compile_across_update_and_reload() {
    let (handle, store) = boot(21);
    let (topo, tunnels) = square();
    let mut mirror = NetworkState::new(topo, tunnels);
    let mut rng = StdRng::seed_from_u64(21);
    let harp = Harp::new(&mut ParamStore::new(), &mut rng, tiny_cfg());
    let mut ctl = Client::connect(&handle);
    let mut next_id = 0u64;

    let mut check = |ctl: &mut Client, mirror: &NetworkState, store: &ParamStore, scale: f64| {
        let demands = [(0usize, 2usize, 2.0 * scale), (1, 3, 0.75), (3, 0, scale)];
        let mut tm = TrafficMatrix::zeros(4);
        for &(s, t, d) in &demands {
            tm.set_demand(s, t, d);
        }
        let inst = Instance::compile(mirror.topology(), mirror.tunnels(), &tm);
        let cache = harp.precompute_epoch(store, &inst).expect("HARP caches");
        let want = run_inference_cached(&harp, store, &inst, EvalOptions::default(), &cache);

        next_id += 1;
        let wire: Vec<String> = demands
            .iter()
            .map(|(s, t, d)| format!("[{s},{t},{d}]"))
            .collect();
        let v = ctl.roundtrip(&format!(
            r#"{{"id": {next_id}, "type": "infer", "demands": [{}]}}"#,
            wire.join(",")
        ));
        assert_eq!(v.get("degraded").and_then(Value::as_bool), Some(false));
        let got: Vec<u64> = v
            .get("splits")
            .and_then(Value::as_array)
            .expect("splits")
            .iter()
            .map(|x| x.as_f64().expect("number").to_bits())
            .collect();
        let want_bits: Vec<u64> = want.splits.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want_bits, "splits of request {next_id}");
        let mlu = v.get("mlu").and_then(Value::as_f64).expect("mlu");
        assert_eq!(
            mlu.to_bits(),
            want.mlu.to_bits(),
            "mlu of request {next_id}"
        );
    };
    // apply one update to daemon and mirror; the epoch it produced
    let update = |ctl: &mut Client, mirror: &mut NetworkState, key: &str, link: (usize, usize)| {
        let (u, v) = link;
        let reply = ctl.roundtrip(&format!(
            r#"{{"id": 900, "type": "topology_update", "{key}": [[{u},{v}]]}}"#
        ));
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
        let (fail, restore): (&[_], &[_]) = match key {
            "fail_links" => (&[link], &[]),
            _ => (&[], &[link]),
        };
        mirror.apply_update(fail, restore).expect("link exists");
        reply.get("epoch").and_then(Value::as_u64).expect("epoch")
    };
    // (epoch_builds, epoch_reuses) so far
    let counts = |ctl: &mut Client| {
        let v = ctl.roundtrip(r#"{"id": 901, "type": "stats"}"#);
        let get = |key: &str| v.get(key).and_then(Value::as_u64).expect("counter");
        (get("epoch_builds"), get("epoch_reuses"))
    };
    let (a, b) = ((0, 2), (1, 2));

    // one epoch, three traffic matrices: the kept instance is retargeted
    for scale in [1.0, 3.5, 0.25] {
        check(&mut ctl, &mirror, &store, scale);
    }
    assert_eq!(counts(&mut ctl), (1, 0));
    // a failed link is a new epoch: instance, table and projections built
    let failed_epoch = update(&mut ctl, &mut mirror, "fail_links", a);
    check(&mut ctl, &mirror, &store, 1.0);
    check(&mut ctl, &mirror, &store, 2.0);
    assert_eq!(counts(&mut ctl), (2, 0));
    // restoring it lands on the parked state: same bits, nothing built
    update(&mut ctl, &mut mirror, "restore_links", a);
    check(&mut ctl, &mirror, &store, 1.0);
    assert_eq!(counts(&mut ctl), (2, 1));
    // the parked state is keyed by failure set, not epoch: the epoch the
    // link was down in is gone for good
    let v = ctl.roundtrip(&format!(
        r#"{{"id": 902, "type": "infer", "demands": [[0, 2, 2.0]], "epoch": {failed_epoch}}}"#
    ));
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    let error = v.get("error").and_then(Value::as_str).expect("error");
    assert!(error.contains("stale epoch"), "{error}");
    // ...and failing it again lands on the state parked a moment ago
    update(&mut ctl, &mut mirror, "fail_links", a);
    check(&mut ctl, &mirror, &store, 0.5);
    assert_eq!(counts(&mut ctl), (2, 2));

    // one parked state, not a history: {a} -> {a,b} evicts {}, so the way
    // back reuses {a} and rebuilds {}
    update(&mut ctl, &mut mirror, "fail_links", b);
    check(&mut ctl, &mirror, &store, 1.0);
    assert_eq!(counts(&mut ctl), (3, 2));
    update(&mut ctl, &mut mirror, "restore_links", b);
    check(&mut ctl, &mirror, &store, 1.0);
    assert_eq!(counts(&mut ctl), (3, 3));
    update(&mut ctl, &mut mirror, "restore_links", a);
    check(&mut ctl, &mirror, &store, 1.0);
    assert_eq!(counts(&mut ctl), (4, 3));

    // new parameters between a failure and its restore: the state parked
    // for {} holds the old parameters' embeddings and must not come back
    update(&mut ctl, &mut mirror, "fail_links", b);
    check(&mut ctl, &mirror, &store, 1.0);
    let path = ckpt_dir().join("retarget.json");
    let mut other = ParamStore::new();
    let _ = Harp::new(&mut other, &mut StdRng::seed_from_u64(5), tiny_cfg());
    save_params(&other, &path).unwrap();
    let v = ctl.roundtrip(&format!(
        r#"{{"id": 903, "type": "reload_checkpoint", "path": {:?}}}"#,
        path.to_str().unwrap()
    ));
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    check(&mut ctl, &mirror, &other, 1.0);
    assert_eq!(counts(&mut ctl), (6, 3));
    update(&mut ctl, &mut mirror, "restore_links", b);
    check(&mut ctl, &mirror, &other, 1.0);
    check(&mut ctl, &mirror, &other, 0.5);
    assert_eq!(counts(&mut ctl), (7, 3));
    handle.shutdown();
}

#[test]
fn expired_deadline_degrades_to_fallback_splits() {
    let (handle, _store) = boot(11);
    let mut client = Client::connect(&handle);

    // deadline_ms 0: expired on arrival, served from fallback. Cold start
    // means uniform ECMP.
    let v = client
        .roundtrip(r#"{"id": 1, "type": "infer", "demands": [[0, 2, 3.0]], "deadline_ms": 0}"#);
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(v.get("degraded").and_then(Value::as_bool), Some(true));
    assert_eq!(
        v.get("reason").and_then(Value::as_str),
        Some("deadline_miss")
    );
    assert_eq!(
        v.get("splits_source").and_then(Value::as_str),
        Some("uniform_ecmp")
    );
    let splits = v.get("splits").and_then(Value::as_array).unwrap();
    assert!(!splits.is_empty());

    // a successful inference installs last-good...
    let v = client.roundtrip(r#"{"id": 2, "type": "infer", "demands": [[0, 2, 3.0]]}"#);
    assert_eq!(v.get("degraded").and_then(Value::as_bool), Some(false));

    // ...which subsequent degraded responses are served from
    let v = client
        .roundtrip(r#"{"id": 3, "type": "infer", "demands": [[0, 2, 3.0]], "deadline_ms": 0}"#);
    assert_eq!(v.get("degraded").and_then(Value::as_bool), Some(true));
    assert_eq!(
        v.get("splits_source").and_then(Value::as_str),
        Some("last_good")
    );

    let stats = handle.stats();
    assert_eq!(stats.degraded_total(), 2);
    assert_eq!(stats.infer_ok_total(), 1);
    handle.shutdown();
}
