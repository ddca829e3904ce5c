//! `serve_steady` and `serve_churn`: the `harp-serve` daemon on GEANT-22,
//! driven over one TCP connection by one closed-loop client.
//!
//! The daemon runs in this process (`harp_serve::serve` spawns a reactor
//! thread and one shard thread); with the client that is three threads, of
//! which at most two are ever runnable on the 2-core host.

use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use harp_core::{run_inference, run_inference_cached, EvalOptions, Harp, Instance, SplitModel};
use harp_nn::{load_params, save_params};
use harp_opt::PathProgram;
use harp_paths::TunnelSet;
use harp_serve::{
    ok_response, parse_request_bounded, serve, NetworkState, Request, ServeConfig, ServerHandle,
    WireLimits,
};
use harp_tensor::ParamStore;
use harp_topology::Topology;
use harp_traffic::TrafficMatrix;
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};
use serde_json::Value;

use crate::estimators::{median_f64, TailMode};
use crate::runner::{repeat_setup, timed_op, Generator, Loop, OpResult, Tally, Workload};
use crate::trace::Tracer;
use crate::world::{self, SetupLog};
use crate::{layers, out_dir, Args, Outcome};

/// Which serve workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Full-matrix infers on a fixed topology epoch.
    Steady,
    /// Fail/restore reactions: `topology_update` then an epoch-pinned infer.
    Churn,
}

/// Held-out matrices `serve_steady` cycles through.
const STEADY_TMS: usize = 12;
/// Held-out matrices `serve_churn` cycles through.
const CHURN_TMS: usize = 4;
/// `serve_steady` keeps every 31st reply for full validation after its
/// block (31 is coprime with [`STEADY_TMS`], so kept replies cover every
/// matrix); `serve_churn` keeps the replies of every 4th cycle.
const STEADY_KEEP: u64 = 31;
const CHURN_KEEP: u64 = 4;
/// A reply later than this is served degraded and counts as a failure. It is
/// far above any op here so that host interference shows in the latency
/// tail, not as a failed run.
const DEADLINE_MS: u64 = 5_000;

/// The in-process daemon; dropping it shuts it down and joins its threads.
struct Daemon(Option<ServerHandle>);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(h) = self.0.take() {
            h.shutdown();
        }
    }
}

/// One blocking NDJSON connection.
struct Client {
    w: TcpStream,
    r: BufReader<TcpStream>,
    out: Vec<u8>,
    reply: String,
    next_id: u64,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> io::Result<Client> {
        let w = TcpStream::connect(addr)?;
        w.set_nodelay(true)?;
        w.set_read_timeout(Some(Duration::from_secs(60)))?;
        let r = BufReader::with_capacity(128 * 1024, w.try_clone()?);
        Ok(Client {
            w,
            r,
            out: Vec::with_capacity(16 * 1024),
            reply: String::with_capacity(128 * 1024),
            next_id: 1,
        })
    }

    /// Send `{"id":N,<body>` (the body closes the object) and read the one
    /// reply line into `self.reply`. Returns the id used.
    fn call(&mut self, prefix: &str, body: &str) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.out.clear();
        write!(self.out, "{{\"id\":{id},{prefix}")?;
        self.out.extend_from_slice(body.as_bytes());
        self.out.push(b'\n');
        self.w.write_all(&self.out)?;
        self.reply.clear();
        if self.r.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(id)
    }
}

/// Inline check every infer reply gets: right id, `ok`, not degraded. Reply
/// keys are serialised in sorted order, so all three sit in the first bytes
/// of the 77 KB line and the scan never reaches the splits.
fn infer_reply_ok(reply: &str, id: u64) -> bool {
    let head = &reply.as_bytes()[..reply.len().min(160)];
    let has = |needle: &[u8]| head.windows(needle.len()).any(|w| w == needle);
    let mut id_field = Vec::with_capacity(24);
    let _ = write!(id_field, "\"id\":{id},");
    has(&id_field) && has(b"\"ok\":true") && has(b"\"degraded\":false")
}

/// One held-out traffic matrix as it goes over the wire.
struct WireTm {
    /// `"type":"infer","demands":[[s,t,d],..]}` — everything after the id
    /// (and the optional epoch pin).
    body: String,
    /// The matrix exactly as the daemon parses it back from `body`.
    tm: TrafficMatrix,
}

fn wire_tm(tm: &TrafficMatrix, limits: &WireLimits) -> WireTm {
    let n = tm.num_nodes();
    let mut body = String::from("\"type\":\"infer\",\"demands\":[");
    let mut first = true;
    for s in 0..n {
        for t in 0..n {
            let d = tm.demand(s, t);
            if d > 0.0 {
                if !first {
                    body.push(',');
                }
                first = false;
                body.push_str(&format!("[{s},{t},{d:.6}]"));
            }
        }
    }
    body.push_str("]}");
    let tm = match parse_request_bounded(&format!("{{\"id\":0,{body}"), limits) {
        Ok((_, Request::Infer { demands, .. })) => demands_to_tm(n, &demands),
        other => panic!("generated infer request does not parse: {other:?}"),
    };
    WireTm { body, tm }
}

/// The matrix a shard assembles from wire demands (duplicates sum).
fn demands_to_tm(n: usize, demands: &[(usize, usize, f64)]) -> TrafficMatrix {
    let mut tm = TrafficMatrix::zeros(n);
    for &(s, t, d) in demands {
        tm.set_demand(s, t, tm.demand(s, t) + d);
    }
    tm
}

/// One topology state of the mirror, with the LP optimum of every held-out
/// matrix on it.
struct NetState {
    topo: Topology,
    tunnels: TunnelSet,
    optimum: Vec<f64>,
}

/// Everything set-up builds for a serve workload.
struct ServeWorld {
    harp: Harp,
    store: ParamStore,
    requests: Vec<WireTm>,
    /// The base topology, then (churn only) one state per entry of `links`
    /// with that link failed.
    states: Vec<NetState>,
    /// The links `serve_churn` fails and restores, in the seed's order.
    links: Vec<(usize, usize)>,
    client: Client,
    // declared after `client` so the connection closes before the daemon stops
    _daemon: Daemon,
    log: SetupLog,
}

fn build(seed: u64, kind: Kind) -> ServeWorld {
    let mut log = SetupLog::default();
    let held_out = match kind {
        Kind::Steady => STEADY_TMS,
        Kind::Churn => CHURN_TMS,
    };
    let g = world::geant(seed, held_out, &mut log);
    let (harp, store) = world::trained_harp(&g, &mut log);
    let limits = WireLimits::for_nodes(g.topo.num_nodes());
    let requests: Vec<WireTm> = g.tms.iter().map(|tm| wire_tm(tm, &limits)).collect();

    // The links whose loss leaves every flow a tunnel, ranked by how many
    // tunnels survive (2 995 to 3 519 of 3 696); the middle third of them, in
    // an order drawn by the seed, is what `serve_churn` cycles through. One
    // seeded link made each seed a differently sized problem with its own
    // NormMLU (1.34 to 1.70 over ten seeds).
    let mut survivable: Vec<(usize, (usize, usize))> = g
        .topo
        .links()
        .into_iter()
        .map(|(u, v, f, r)| {
            (
                g.tunnels.without_edges(&[f, r].into_iter().collect()),
                (u, v),
            )
        })
        .filter(|(pruned, _)| pruned.num_flows() == g.tunnels.num_flows())
        .map(|(pruned, link)| (pruned.num_tunnels(), link))
        .collect();
    survivable.sort_unstable();
    let third = survivable.len() / 3;
    let mut links: Vec<(usize, usize)> = survivable[third..survivable.len() - third]
        .iter()
        .map(|&(_, link)| link)
        .collect();
    links.shuffle(&mut StdRng::seed_from_u64(seed ^ 0xC4_02_11));
    assert!(
        !links.is_empty(),
        "GEANT has links whose loss strands no flow"
    );

    // Mirror states with the LP optimum of every (state, matrix) pair the
    // run serves: all matrices on the base topology, matrix `j mod H` on the
    // topology with link `j` failed.
    let mut state = |failed: Option<usize>| {
        let mut mirror = NetworkState::new(g.topo.clone(), g.tunnels.clone());
        if let Some(j) = failed {
            mirror
                .apply_update(&[links[j]], &[])
                .expect("the link exists");
        }
        let (topo, tunnels) = (mirror.topology().clone(), mirror.tunnels().clone());
        let optimum = requests
            .iter()
            .enumerate()
            .map(|(tm, r)| match failed {
                Some(j) if j % requests.len() != tm => f64::NAN, // never served
                _ => log.oracle(&PathProgram::new(&topo, &tunnels, &r.tm)),
            })
            .collect();
        NetState {
            topo,
            tunnels,
            optimum,
        }
    };
    let mut states = vec![state(None)];
    if kind == Kind::Churn {
        states.extend((0..links.len()).map(|j| state(Some(j))));
    }

    // The harness pins the daemon's configuration itself and ignores the
    // ambient environment: one shard, default batching and admission.
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 1,
        deadline_ms: DEADLINE_MS,
        ..ServeConfig::default()
    };
    let model: Arc<dyn SplitModel + Send + Sync> = Arc::new(harp.clone());
    let handle = serve(cfg, model, store.clone(), g.topo, g.tunnels).expect("bind a loopback port");
    let client = Client::connect(handle.addr()).expect("connect to the daemon just started");
    ServeWorld {
        harp,
        store,
        requests,
        states,
        links,
        client,
        _daemon: Daemon(Some(handle)),
        log,
    }
}

/// Full validation of a kept infer reply against the mirror: id, `ok`, not
/// degraded, expected epoch, one non-negative split per live tunnel summing
/// to 1 per flow, and the reported MLU equal to the MLU recomputed from the
/// splits. Returns the recomputed MLU.
fn validate_reply(
    reply: &str,
    id: u64,
    epoch: u64,
    state: &NetState,
    tm: &TrafficMatrix,
) -> Result<f64, String> {
    let v: Value = serde_json::from_str(reply.trim()).map_err(|e| format!("not JSON: {e:?}"))?;
    if v.get("id").and_then(Value::as_u64) != Some(id) {
        return Err(format!("id mismatch, expected {id}"));
    }
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("not ok: {:?}", v.get("error")));
    }
    if v.get("degraded").and_then(Value::as_bool) != Some(false) {
        return Err(format!("degraded: {:?}", v.get("reason")));
    }
    if v.get("epoch").and_then(Value::as_u64) != Some(epoch) {
        return Err(format!("epoch {:?}, expected {epoch}", v.get("epoch")));
    }
    let splits: Vec<f64> = v
        .get("splits")
        .and_then(Value::as_array)
        .ok_or("no splits array")?
        .iter()
        .map(|s| s.as_f64().ok_or("non-numeric split"))
        .collect::<Result<_, _>>()?;
    let program = PathProgram::new(&state.topo, &state.tunnels, tm);
    // one split per live tunnel of the mirror: a split for a pruned tunnel
    // (or a missing one) changes the length
    if !program.splits_are_valid(&splits, 1e-9) {
        return Err(format!(
            "invalid splits: {} values for {} live tunnels, or negative, or a flow not summing to 1",
            splits.len(),
            program.num_tunnels()
        ));
    }
    let mlu = program.mlu(&splits);
    let reported = v.get("mlu").and_then(Value::as_f64).ok_or("no mlu")?;
    if (mlu - reported).abs() > 1e-9 * mlu.abs().max(1.0) {
        return Err(format!("reported mlu {reported} but splits give {mlu}"));
    }
    Ok(mlu)
}

/// A reply kept during a block for validation after it.
struct Kept {
    state: usize,
    tm: usize,
    id: u64,
    epoch: u64,
    reply: String,
}

/// Check a `topology_update` reply: `ok`, the expected epoch, and as many
/// surviving tunnels as the mirror has.
fn update_reply_ok(reply: &str, id: u64, epoch: u64, tunnels: usize) -> bool {
    let Ok(v) = serde_json::from_str::<Value>(reply.trim()) else {
        return false;
    };
    v.get("id").and_then(Value::as_u64) == Some(id)
        && v.get("ok").and_then(Value::as_bool) == Some(true)
        && v.get("epoch").and_then(Value::as_u64) == Some(epoch)
        && v.get("num_tunnels").and_then(Value::as_u64) == Some(tunnels as u64)
}

/// A serve run in progress: the world set-up built, the mirror's epoch, the
/// replies kept for validation, and the client-side tracer.
struct Session {
    kind: Kind,
    w: ServeWorld,
    epoch: u64,
    kept: Vec<Kept>,
    tr: Tracer,
    notes: Vec<String>,
}

impl Workload for Session {
    fn spans(&mut self, on: bool) {
        self.tr.set_enabled(on);
    }

    fn op(&mut self, i: u64, _block: usize) -> OpResult {
        self.tr.set_op(i);
        match self.kind {
            Kind::Steady => self.steady_op(i),
            Kind::Churn => self.churn_op(i),
        }
    }

    fn after_block(&mut self, _block: usize) -> u64 {
        let mut bad = 0;
        for k in self.kept.drain(..) {
            let (state, tm) = (&self.w.states[k.state], &self.w.requests[k.tm].tm);
            if let Err(e) = validate_reply(&k.reply, k.id, k.epoch, state, tm) {
                bad += 1;
                self.notes.push(format!("INVALID reply id {}: {e}", k.id));
            }
        }
        bad
    }
}

impl Session {
    /// One `serve_steady` op: infer on matrix `i mod H`.
    fn steady_op(&mut self, i: u64) -> OpResult {
        let tm = (i % self.w.requests.len() as u64) as usize;
        let (client, requests, tr) = (&mut self.w.client, &self.w.requests, &mut self.tr);
        let mut id = 0;
        let r = timed_op(|| {
            tr.scope("serve.infer_rtt", |_| {
                match client.call("", &requests[tm].body) {
                    Ok(got) => {
                        id = got;
                        infer_reply_ok(&client.reply, got)
                    }
                    Err(_) => false,
                }
            })
        });
        if i.is_multiple_of(STEADY_KEEP) {
            self.kept.push(Kept {
                state: 0,
                tm,
                id,
                epoch: self.epoch,
                reply: self.w.client.reply.clone(),
            });
        }
        r
    }

    /// Send a `topology_update` failing (`fail = true`) or restoring link
    /// `j`, and check the reply against the mirror.
    fn update(&mut self, j: usize, fail: bool) -> bool {
        let (u, v) = self.w.links[j];
        let (key, state) = if fail {
            ("fail_links", 1 + j)
        } else {
            ("restore_links", 0)
        };
        let body = format!("\"type\":\"topology_update\",\"{key}\":[[{u},{v}]]}}");
        self.epoch += 1;
        let (epoch, tunnels) = (self.epoch, self.w.states[state].tunnels.num_tunnels());
        let client = &mut self.w.client;
        self.tr
            .scope("serve.update_rtt", |_| match client.call("", &body) {
                Ok(id) => update_reply_ok(&client.reply, id, epoch, tunnels),
                Err(_) => false,
            })
    }

    /// An infer of matrix `tm` pinned to the current epoch; the reply stays
    /// in the client's buffer. Returns the request id.
    fn pinned_infer(&mut self, tm: usize) -> io::Result<u64> {
        let pin = format!("\"epoch\":{},", self.epoch);
        let (client, requests) = (&mut self.w.client, &self.w.requests);
        self.tr
            .scope("serve.infer_rtt", |_| client.call(&pin, &requests[tm].body))
    }

    /// One `serve_churn` op: a fail reaction then a restore reaction, each a
    /// `topology_update` followed by an infer pinned to the epoch it
    /// returned. Both reactions are one op because they cost differently
    /// (the failed state has fewer tunnels): a median over alternating
    /// single reactions would sit between two modes and jump between them.
    /// Op `i` fails link `i mod L` of the seed's order.
    fn churn_op(&mut self, i: u64) -> OpResult {
        let h = self.w.requests.len();
        let j = (i % self.w.links.len() as u64) as usize;
        let keep = i.is_multiple_of(CHURN_KEEP);
        let t = Instant::now();
        let mut ok = true;
        for (fail, state, tm) in [(true, 1 + j, j % h), (false, 0, (i % h as u64) as usize)] {
            ok &= self.update(j, fail);
            let got = self.pinned_infer(tm);
            ok &= matches!(got, Ok(id) if infer_reply_ok(&self.w.client.reply, id));
            if let (true, Ok(id)) = (keep, got) {
                self.kept.push(Kept {
                    state,
                    tm,
                    id,
                    epoch: self.epoch,
                    reply: self.w.client.reply.clone(),
                });
            }
        }
        OpResult {
            ok,
            lat_ns: t.elapsed().as_nanos() as u64,
        }
    }

    /// One fully validated infer; its NormMLU, or a note on why it failed.
    fn quality_infer(&mut self, state: usize, tm: usize, tally: &mut Tally) -> Option<f64> {
        let res = self
            .pinned_infer(tm)
            .map_err(|e| e.to_string())
            .and_then(|id| {
                let w = &self.w;
                validate_reply(
                    &w.client.reply,
                    id,
                    self.epoch,
                    &w.states[state],
                    &w.requests[tm].tm,
                )
            });
        tally.record(res.is_ok());
        match res {
            Ok(mlu) => Some(mlu / self.w.states[state].optimum[tm]),
            Err(e) => {
                self.notes.push(format!(
                    "INVALID quality reply (state {state}, tm {tm}): {e}"
                ));
                None
            }
        }
    }

    /// After the timed blocks: one fully validated infer per (state, matrix)
    /// pair the run serves, in a fixed order, so `norm_mlu_mean` is a pure
    /// function of the seed however many ops the timed blocks fitted.
    fn quality_pass(&mut self, tally: &mut Tally) -> f64 {
        let h = self.w.requests.len();
        let mut ratios: Vec<f64> = (0..h)
            .filter_map(|tm| self.quality_infer(0, tm, tally))
            .collect();
        for j in 0..self.w.states.len() - 1 {
            let failed = self.update(j, true);
            ratios.extend(self.quality_infer(1 + j, j % h, tally));
            let restored = self.update(j, false);
            tally.record(failed && restored);
        }
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
    }
}

/// Run a serve workload.
pub fn run(args: &Args, kind: Kind) -> io::Result<Outcome> {
    let (w, setup_s) = repeat_setup(args.quick, || build(args.seed, kind));
    let mut s = Session {
        kind,
        w,
        epoch: 0,
        kept: Vec::new(),
        tr: Tracer::new(false),
        notes: Vec::new(),
    };
    let mut lp = Loop::new(Generator::Client);
    let first_op_ms = lp.warm_up(args.measure().mul_f64(0.05), 3, &mut s);
    lp.tally.failed += s.after_block(0);

    let (nblocks, tail_mode) = match kind {
        Kind::Steady => (6, TailMode::PerBlock),
        Kind::Churn => (5, TailMode::Pooled),
    };
    let mut out = Outcome::new(setup_s, first_op_ms, tail_mode);
    if args.trace {
        s.traced(args, &mut lp, &mut out)?;
    } else {
        out.blocks = lp.blocks(args.measure(), args.blocks(nblocks), &mut s)?;
    }

    out.norm_mlu_mean = s.quality_pass(&mut lp.tally);
    out.quality_note = format!(
        "{} held-out matrices on the base topology + {} failed-link states, every reply validated, vs LP optimum",
        s.w.requests.len(),
        s.w.states.len() - 1
    );
    if args.trace {
        s.daemon_layers(&mut lp.tally, &mut out)?;
        layers::setup_layers(&s.w.log, &mut out.layers);
        s.tr.write_json(&args.trace_path(), &args.workload, args.seed)?;
    }
    out.tally = lp.tally;
    out.notes = std::mem::take(&mut s.notes);
    Ok(out)
}

impl Session {
    /// The traced run: e2e blocks alternating spans on/off, then an inline
    /// replay of the layers one op crosses, then single-layer probes.
    fn traced(&mut self, args: &Args, lp: &mut Loop, out: &mut Outcome) -> io::Result<()> {
        // Phase A (half the time): the same ops as the untraced run, in four
        // blocks with client-side spans alternately on and off. The off
        // blocks are this run's untraced numbers; on minus off is the
        // tracing overhead.
        let e2e_us = layers::on_off_blocks(lp, args.measure().mul_f64(0.5), self, out)?;

        // Phase B (35 %): replay, inline and under spans, what the daemon
        // does for one op, through the same public functions.
        let (kind, w, tr) = (self.kind, &self.w, &mut self.tr);
        let replay_deadline = Instant::now() + args.measure().mul_f64(0.35);
        let n = w.states[0].topo.num_nodes();
        let limits = WireLimits::for_nodes(n);
        let blank = TrafficMatrix::zeros(n);
        let (harp, store) = (&w.harp, &w.store);
        let mut mirror = NetworkState::new(w.states[0].topo.clone(), w.states[0].tunnels.clone());
        let epoch_cache = |inst: &Instance| {
            harp.precompute_epoch(store, inst)
                .expect("HARP has a per-epoch stage")
        };
        let mut cache = epoch_cache(&Instance::compile(
            mirror.topology(),
            mirror.tunnels(),
            &blank,
        ));
        let mut i = 0usize;
        while Instant::now() < replay_deadline {
            tr.set_op(1_000_000 + i as u64);
            let line = format!("{{\"id\":{i},{}", w.requests[i % w.requests.len()].body);
            tr.scope("replay", |tr| {
                if kind == Kind::Churn {
                    let link = [w.links[(i / 2) % w.links.len()]];
                    let (fail, restore): (&[_], &[_]) = if i.is_multiple_of(2) {
                        (&link, &[])
                    } else {
                        (&[], &link)
                    };
                    tr.scope("serve.apply_update", |_| {
                        mirror
                            .apply_update(fail, restore)
                            .expect("mirror link exists")
                    });
                    let inst = tr.scope("core.compile", |_| {
                        Instance::compile(mirror.topology(), mirror.tunnels(), &blank)
                    });
                    cache = tr.scope("core.precompute", |_| epoch_cache(&inst));
                }
                let (id, req) = tr
                    .scope("serve.parse", |_| parse_request_bounded(&line, &limits))
                    .expect("generated request parses");
                let Request::Infer { demands, .. } = req else {
                    unreachable!("the line is an infer request")
                };
                let (topo, tunnels) = tr.scope("serve.batch", |_| {
                    (mirror.topology().clone(), mirror.tunnels().clone())
                });
                let inst = tr.scope("core.compile", |_| {
                    Instance::compile(&topo, &tunnels, &demands_to_tm(n, &demands))
                });
                let inf = tr.scope("core.head", |_| {
                    run_inference_cached(harp, store, &inst, EvalOptions::default(), &cache)
                });
                let reply = tr.scope("serve.serialise", |_| {
                    ok_response(
                        id,
                        serde_json::json!({
                            "epoch": mirror.epoch(),
                            "generation": 0,
                            "degraded": false,
                            "mlu": inf.mlu,
                            "splits": Value::from(inf.splits.clone()),
                            "latency_us": 0,
                        }),
                    )
                });
                black_box(reply);
                mirror.set_last_good(inf.splits);
            });
            i += 1;
        }

        // Phase C: layers no op crosses on their own.
        let base = &w.states[0];
        let inst = Instance::compile(&base.topo, &base.tunnels, &w.requests[0].tm);
        let (u, v) = w.links[0];
        let failed: std::collections::BTreeSet<usize> =
            [base.topo.edge_id(u, v), base.topo.edge_id(v, u)]
                .into_iter()
                .flatten()
                .collect();
        let uniform = inst.program.uniform_splits();
        let norau = harp.with_rau_iters(0);
        let base_cache = epoch_cache(&inst);
        for _ in 0..layers::PROBE_REPS {
            tr.scope("core.mlp1", |_| {
                black_box(run_inference_cached(
                    &norau,
                    store,
                    &inst,
                    EvalOptions::default(),
                    &base_cache,
                ))
            });
            tr.scope("core.full_forward", |_| {
                black_box(run_inference(harp, store, &inst, EvalOptions::default()))
            });
            tr.scope("paths.prune", |_| {
                black_box(base.tunnels.without_edges(&failed))
            });
            tr.scope("opt.mlu", |_| black_box(inst.program.mlu(&uniform)));
        }
        out.layers
            .insert("tensor.matmul_gflops", layers::matmul_gflops());

        let med = layers::span_medians_us(
            tr,
            &[
                ("serve.parse_us", "serve.parse", 1.0),
                ("serve.serialise_us", "serve.serialise", 1.0),
                ("serve.batch_us", "serve.batch", 1.0),
                ("serve.apply_update_us", "serve.apply_update", 1.0),
                ("serve.update_rtt_us", "serve.update_rtt", 1.0),
                ("core.compile_us", "core.compile", 1.0),
                ("core.head_us", "core.head", 1.0),
                ("core.mlp1_us", "core.mlp1", 1.0),
                ("core.precompute_ms", "core.precompute", 1e-3),
                ("core.full_forward_ms", "core.full_forward", 1e-3),
                ("paths.prune_us", "paths.prune", 1.0),
                ("opt.mlu_us", "opt.mlu", 1.0),
            ],
            &mut out.layers,
        );
        let us = |name: &str| med.get(name).copied().unwrap_or(0.0);
        let rau_iters = harp.config().rau_iters.max(1) as f64;
        out.layers.insert(
            "core.rau_iter_us",
            (us("core.head") - us("core.mlp1")) / rau_iters,
        );

        // Budget: the replayed layers of one op against the untraced e2e
        // median. What is left is the reactor, the socket and the channel
        // hop. A churn op is two reactions.
        let reactions = if kind == Kind::Churn { 2.0 } else { 1.0 };
        let layers_us = reactions * median_f64(&tr.total_us("replay"));
        out.layers
            .insert("serve.wire_residual_us", e2e_us - layers_us);
        out.budget = Some(layers::Budget { e2e_us, layers_us });
        Ok(())
    }

    /// Layer numbers only the daemon can give: a checkpoint hot-reload round
    /// trip and its own `stats` counters. Runs last: a reload bumps the epoch.
    fn daemon_layers(&mut self, tally: &mut Tally, out: &mut Outcome) -> io::Result<()> {
        let client = &mut self.w.client;
        if self.kind == Kind::Churn {
            std::fs::create_dir_all(out_dir())?;
            let path = out_dir().join("reload-params.json");
            let (mut save_ms, mut load_ms, mut reload_ms) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..layers::PROBE_REPS {
                let t = Instant::now();
                save_params(&self.w.store, &path)?;
                save_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let mut scratch = self.w.store.clone();
                let t = Instant::now();
                load_params(&mut scratch, &path)?;
                load_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let body = format!(
                    "\"type\":\"reload_checkpoint\",\"path\":{:?}}}",
                    path.to_string_lossy()
                );
                let t = Instant::now();
                let id = client.call("", &body)?;
                reload_ms.push(t.elapsed().as_secs_f64() * 1e3);
                self.epoch += 1;
                let v: Value = serde_json::from_str(client.reply.trim()).unwrap_or(Value::Null);
                tally.record(
                    v.get("id").and_then(Value::as_u64) == Some(id)
                        && v.get("ok").and_then(Value::as_bool) == Some(true)
                        && v.get("epoch").and_then(Value::as_u64) == Some(self.epoch),
                );
            }
            out.layers.insert("nn.save_params_ms", median_f64(&save_ms));
            out.layers.insert("nn.load_params_ms", median_f64(&load_ms));
            out.layers.insert("serve.reload_ms", median_f64(&reload_ms));
        }
        let id = client.call("", "\"type\":\"stats\"}")?;
        let v: Value = serde_json::from_str(client.reply.trim()).unwrap_or(Value::Null);
        tally.record(v.get("id").and_then(Value::as_u64) == Some(id));
        let stat = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        out.layers.insert("serve.batch_mean", stat("mean_batch"));
        // the most requests the batcher ever found queued together
        out.layers
            .insert("serve.queue_depth_max", stat("max_batch"));
        out.layers.insert("serve.degraded", stat("degraded"));
        out.layers.insert("serve.shed", stat("shed"));
        out.layers
            .insert("serve.protocol_errors", stat("protocol_errors"));
        Ok(())
    }
}
