//! What one warm infer allocates, counted: the request path is described
//! as reusing pooled arenas and per-epoch state, and this is the number
//! behind that description. One full-matrix infer on GEANT with 8 tunnels
//! per flow (the `serve_steady` benchmark instance) goes through the real
//! daemon — reactor, parse, shard, `Instance::with_traffic`, cached head,
//! reply — under a counting global allocator.
//!
//! Before the shard kept its compiled instance per epoch the same request
//! made 8 723 allocations / 1.8 MB between parse and reply (compile 4 213,
//! the topology/tunnel clone 4 185, head 325). Before the request was
//! decoded off the lexer's tokens, its JSON tree alone was 945 / 147 KB
//! (a `Vec` per `[s, t, d]` demand), and the reply's `json!` tree 36.
//! Measured now, release and debug alike: 295 / 571 KB for the whole round
//! trip, of which parsing the request is 9 / 12 KB (the lexer's container
//! stack and the demand vector's growth) and everything after it 286: the
//! traffic matrix 1, `Instance::with_traffic` 4 / 28 KB, the cached head
//! 269 / 433 KB (index `Arc`s, argmax and per-segment scratch, the `f64`
//! splits), the reply one presized buffer, the reactor and the batch the
//! rest.

// The counting allocator is the instrument; it forwards to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use harp_core::{Harp, HarpConfig, SplitModel};
use harp_paths::TunnelSet;
use harp_serve::{parse_request_bounded, serve, ServeConfig, WireLimits};
use harp_tensor::ParamStore;
use rand::{rngs::StdRng, SeedableRng};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: same layout, forwarded.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        }
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations parsing the request line may make (measured 9; it was 945
/// while the decoder built a `Value` tree).
const PARSE_BUDGET: usize = 9;
/// Allocations the rest of the round trip may make — batch, retarget, head,
/// reply, reactor: the part that was 8 723 (measured 286).
const AFTER_PARSE_BUDGET: usize = 600;

/// Run `f` with counting on; `(allocations, bytes)` it made, all threads.
fn counted(f: impl FnOnce()) -> (usize, usize) {
    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst))
}

#[test]
fn a_warm_geant_infer_stays_within_its_allocation_budget() {
    let topo = harp_datasets::geant();
    let num_nodes = topo.num_nodes();
    let nodes: Vec<usize> = (0..num_nodes).collect();
    let tunnels = TunnelSet::k_shortest(&topo, &nodes, 8, 0.0);
    let mut store = ParamStore::new();
    let harp = Harp::new(
        &mut store,
        &mut StdRng::seed_from_u64(1),
        HarpConfig::default(),
    );
    let model: Arc<dyn SplitModel + Send + Sync> = Arc::new(harp);
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        deadline_ms: 60_000, // a debug-build head is slow, not late
        ..ServeConfig::default()
    };
    let demands: Vec<String> = tunnels
        .flows()
        .iter()
        .enumerate()
        .map(|(i, (s, t))| format!("[{s},{t},{}]", 0.5 + (i % 7) as f64 * 0.25))
        .collect();
    let handle = serve(cfg, model, store, topo, tunnels).expect("bind loopback");

    let mut writer = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(writer.try_clone().expect("clone stream"));
    let mut reply = String::with_capacity(1 << 20);
    let request = |id: usize| {
        format!(
            "{{\"id\":{id},\"type\":\"infer\",\"demands\":[{}]}}\n",
            demands.join(",")
        )
    };
    let mut roundtrip = |line: &str, reply: &mut String| {
        writer.write_all(line.as_bytes()).unwrap();
        reply.clear();
        reader.read_line(reply).unwrap();
        assert!(reply.contains("\"degraded\":false"), "{reply}");
    };
    // warm-up: epoch state, tape arena pool, packing scratch, reply buffers
    for id in 0..3 {
        roundtrip(&request(id), &mut reply);
    }
    let line = request(3);
    let limits = WireLimits::for_nodes(num_nodes);
    let (parse, parse_bytes) = counted(|| {
        let parsed = parse_request_bounded(line.trim_end(), &limits);
        assert!(parsed.is_ok());
    });
    let (whole, bytes) = counted(|| roundtrip(&line, &mut reply));
    println!(
        "one warm infer: {whole} allocations / {bytes} bytes, \
         of which parsing the request {parse} / {parse_bytes}"
    );
    assert!(parse <= PARSE_BUDGET, "parse: {parse} > {PARSE_BUDGET}");
    assert!(
        whole - parse <= AFTER_PARSE_BUDGET,
        "after parse: {} allocations ({} bytes), budget {AFTER_PARSE_BUDGET}",
        whole - parse,
        bytes - parse_bytes
    );
    handle.shutdown();
}
