//! # harp-runtime
//!
//! A small deterministic executor that fans a list of *independent items*
//! out over scoped threads ([`std::thread::scope`]; no external
//! dependencies, no `unsafe`).
//!
//! HARP's training protocol is per-snapshot: every batch element builds its
//! own tape, runs forward/backward, and only the final gradient merge
//! touches shared state. The same shape recurs in validation, in a serving
//! shard's batch and in the figure sweeps. This crate provides the one
//! primitive all of those need: *split a list of items into contiguous
//! blocks, run the blocks on a fixed number of workers, and hand the
//! results back in item order*. It is the only place the workspace uses a
//! second core — nothing parallelises inside one tensor op.
//!
//! ## Determinism contract
//!
//! * [`Runtime::par_map`] / [`Runtime::try_par_chunks`] return results in
//!   item (respectively chunk) order — never in thread-completion order.
//! * Work is partitioned into contiguous blocks by [`partition`], a pure
//!   function of `(items, workers)`. The same input and worker count always
//!   produce the same per-worker assignment. Its unit test checks every
//!   `n ≤ 1024` at every worker count up to [`MAX_WORKERS`]: blocks in
//!   order, non-empty, disjoint, covering exactly `0..n` — an item run
//!   twice or not at all is the one way item fan-out could change a result.
//!
//! The runtime never combines results itself. A caller that computes each
//! item independently of its chunk and folds the per-item results in item
//! order (as `train_model` does with its gradient buffers) therefore gets
//! the same bits at every worker count.
//!
//! ## Sizing `HARP_THREADS`
//!
//! [`Runtime::global`] reads the `HARP_THREADS` environment variable once
//! (falling back to [`std::thread::available_parallelism`]). Physical cores
//! are the right ceiling for the dense-float workloads here; oversubscribing
//! only adds scheduling noise. Set `HARP_THREADS=1` to force every consumer
//! back to the serial path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use harp_obs::{Counter, FieldValue, Histogram};

/// Parallel sections entered (calls that actually fanned out to >1 block).
static PAR_CALLS: Counter = Counter::new("runtime.par_calls");
/// Sections that stayed on the calling thread (≤1 block).
static SERIAL_CALLS: Counter = Counter::new("runtime.serial_calls");
/// Items dispatched through parallel sections.
static PAR_ITEMS: Counter = Counter::new("runtime.par_items");
/// Per-worker busy time inside parallel sections, ns (sums across
/// workers, so `busy_ns / wall_ns` of a section ≈ pool utilization).
static WORKER_BUSY_NS: Counter = Counter::new("runtime.worker_busy_ns");
/// Distribution of per-worker block durations in parallel sections, ns.
static WORKER_BLOCK_NS: Histogram = Histogram::new("runtime.worker_block_ns");
/// Worker panics contained at the pool boundary by
/// [`Runtime::try_par_chunks`].
static WORKER_PANICS: Counter = Counter::new("runtime.worker_panics");

/// Time `f`, crediting its duration to the pool-utilization metrics.
/// Inlines to a plain call when the obs sink is off.
#[inline]
fn timed_block<R>(f: impl FnOnce() -> R) -> R {
    if !harp_obs::enabled() {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    WORKER_BUSY_NS.add(ns);
    WORKER_BLOCK_NS.record(ns);
    r
}

/// Contiguous block boundaries `(start, end)` splitting `n` items across
/// `workers` blocks as evenly as possible (sizes differ by at most one,
/// larger blocks first). Fewer than `workers` blocks are returned when
/// there are fewer items than workers; zero-size blocks are never returned
/// (except none at all for `n == 0`).
pub fn partition(n: usize, workers: usize) -> Vec<(usize, usize)> {
    let w = workers.max(1).min(n.max(1));
    if n == 0 {
        return Vec::new();
    }
    let base = n / w;
    let rem = n % w;
    let mut out = Vec::with_capacity(w);
    let mut start = 0;
    for b in 0..w {
        let len = base + usize::from(b < rem);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// A deterministic scoped-thread-pool executor: a worker count plus the
/// partitioning policy described in the crate docs. Cheap to copy; threads
/// are scoped per call, not persistent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Runtime {
    workers: usize,
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::global()
    }
}

/// Worker count resolved once per process from `HARP_THREADS` /
/// available parallelism.
static GLOBAL_WORKERS: OnceLock<usize> = OnceLock::new();

/// Upper bound accepted from `HARP_THREADS`. Every parallel section spawns
/// scoped threads, so a typo'd huge value (an appended zero, a pasted
/// timestamp) would fork-bomb the process instead of helping; beyond this
/// bound the request is rejected and the fallback applies.
pub const MAX_WORKERS: usize = 512;

/// Outcome of validating a requested worker count (see [`resolve_workers`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerResolution {
    /// The worker count to use.
    pub workers: usize,
    /// When the request was invalid: why it was rejected (`workers` then
    /// holds the fallback).
    pub rejected: Option<String>,
}

/// Validate a raw `HARP_THREADS` value against the fallback `available`
/// (the host's available parallelism). Accepts integers in
/// `1..=`[`MAX_WORKERS`]; anything else — zero, non-numeric, overlarge —
/// resolves to `available` with a rejection reason. Pure, so every
/// rejection class is unit-testable without touching process environment.
pub fn resolve_workers(request: Option<&str>, available: usize) -> WorkerResolution {
    let fallback = available.max(1);
    let Some(raw) = request else {
        return WorkerResolution {
            workers: fallback,
            rejected: None,
        };
    };
    match raw.trim().parse::<usize>() {
        Ok(0) => WorkerResolution {
            workers: fallback,
            rejected: Some(format!("HARP_THREADS={raw:?} is zero (need >= 1)")),
        },
        Ok(n) if n > MAX_WORKERS => WorkerResolution {
            workers: fallback,
            rejected: Some(format!(
                "HARP_THREADS={raw:?} exceeds the {MAX_WORKERS}-worker bound"
            )),
        },
        Ok(n) => WorkerResolution {
            workers: n,
            rejected: None,
        },
        Err(_) => WorkerResolution {
            workers: fallback,
            rejected: Some(format!("HARP_THREADS={raw:?} is not an integer")),
        },
    }
}

/// Emit the `runtime.workers_fallback` warning for a rejected resolution,
/// at most once per process. Deduplication lives here (not in the
/// `OnceLock` init above) so that any future resolution path — re-reading
/// config, per-subsystem runtimes — inherits it instead of re-spamming
/// stderr. Returns whether this call actually warned.
fn warn_workers_fallback(res: &WorkerResolution) -> bool {
    static WARNED: AtomicBool = AtomicBool::new(false);
    let Some(reason) = &res.rejected else {
        return false;
    };
    if WARNED.swap(true, Ordering::Relaxed) {
        return false;
    }
    harp_obs::warn_always(
        "runtime.workers_fallback",
        &[
            ("reason", FieldValue::Str(reason.clone())),
            ("fallback_workers", FieldValue::U64(res.workers as u64)),
        ],
    );
    true
}

impl Runtime {
    /// A runtime with exactly `workers` workers (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Runtime {
            workers: workers.max(1),
        }
    }

    /// The single-worker runtime: every call runs inline on the calling
    /// thread.
    pub fn serial() -> Self {
        Runtime::new(1)
    }

    /// The process-wide runtime: worker count from the `HARP_THREADS`
    /// environment variable if set to an integer in `1..=`[`MAX_WORKERS`],
    /// otherwise [`std::thread::available_parallelism`]. An invalid value
    /// is rejected loudly — a `runtime.workers_fallback` obs warning (on
    /// stderr even with the sink off) names the value and the fallback
    /// worker count, at most once per process. Resolved once; later
    /// changes to the environment do not affect it.
    pub fn global() -> Self {
        let workers = *GLOBAL_WORKERS.get_or_init(|| {
            // lint: allow(env) — the one pool-size setting, validated below
            let raw = std::env::var("HARP_THREADS").ok();
            let available = std::thread::available_parallelism().map_or(1, |n| n.get());
            let res = resolve_workers(raw.as_deref(), available);
            warn_workers_fallback(&res);
            res.workers
        });
        Runtime::new(workers)
    }

    /// Number of workers this runtime fans out to.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Hand the pool off to `parts` independent owners: returns one
    /// runtime per part, distributing this runtime's workers as evenly as
    /// possible (earlier parts get the remainder; every part gets at
    /// least one worker, so oversubscription only happens when
    /// `parts > workers`). Used by the serving fleet to give each shard
    /// its own slice of the machine instead of letting N shards each fan
    /// out to the full pool.
    pub fn split(&self, parts: usize) -> Vec<Runtime> {
        let parts = parts.max(1);
        let base = self.workers / parts;
        let rem = self.workers % parts;
        (0..parts)
            .map(|i| Runtime::new(base + usize::from(i < rem)))
            .collect()
    }

    /// Map `f` over `items` in parallel, returning results in item order.
    ///
    /// `f` receives the item's index and a reference to it. Items are
    /// partitioned into at most [`Runtime::workers`] contiguous blocks; the
    /// calling thread executes the first block while scoped workers execute
    /// the rest. With one worker (or one item) this is exactly
    /// `items.iter().enumerate().map(..).collect()`.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let map_block = |(lo, hi): (usize, usize)| -> Vec<R> {
            items[lo..hi]
                .iter()
                .enumerate()
                .map(|(j, t)| f(lo + j, t))
                .collect()
        };
        let blocks = partition(items.len(), self.workers);
        if blocks.len() <= 1 {
            SERIAL_CALLS.add(1);
            return blocks.into_iter().flat_map(map_block).collect();
        }
        PAR_CALLS.add(1);
        PAR_ITEMS.add(items.len() as u64);
        let mut per_block: Vec<Vec<R>> = Vec::with_capacity(blocks.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = blocks[1..]
                .iter()
                .map(|&b| s.spawn(move || timed_block(|| map_block(b))))
                .collect();
            per_block.push(timed_block(|| map_block(blocks[0])));
            for h in handles {
                per_block.push(join_propagating(h));
            }
        });
        per_block.into_iter().flatten().collect()
    }

    /// Run `f` once per contiguous chunk of `items` (one chunk per worker),
    /// returning the per-chunk results in chunk order.
    ///
    /// `f` receives `(chunk_index, offset_of_first_item, chunk)`, so each
    /// worker can amortize per-worker state (a tape, a scratch buffer)
    /// across its whole block instead of paying for it per item.
    ///
    /// A panic inside `f` is **contained at the pool boundary** instead of
    /// unwinding through the caller: the first panicking chunk (in chunk
    /// order, deterministically) is reported as a [`WorkerPanic`] carrying
    /// the worker index and the rendered panic message. Other chunks still
    /// run to completion, so shared state the caller owns (parameter
    /// stores, checkpoints) stays usable for rollback.
    ///
    /// This is the fault-tolerant entry point the training loop uses: one
    /// poisoned batch element must surface as a structured per-epoch error,
    /// not abort the process.
    pub fn try_par_chunks<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>, WorkerPanic>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, usize, &[T]) -> R + Sync,
    {
        let fref = &f;
        let run = move |ci: usize, (lo, hi): (usize, usize)| -> Result<R, WorkerPanic> {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                timed_block(|| fref(ci, lo, &items[lo..hi]))
            }))
            .map_err(|payload| {
                WORKER_PANICS.add(1);
                let wp = WorkerPanic {
                    worker: ci,
                    message: panic_message(payload.as_ref()),
                };
                harp_obs::event("runtime.worker_panic")
                    .field("worker", ci as u64)
                    .field_with("message", || wp.message.clone().into())
                    .emit();
                wp
            })
        };
        let blocks = partition(items.len(), self.workers);
        if blocks.len() <= 1 {
            SERIAL_CALLS.add(1);
            return blocks
                .into_iter()
                .enumerate()
                .map(|(ci, b)| run(ci, b))
                .collect();
        }
        PAR_CALLS.add(1);
        PAR_ITEMS.add(items.len() as u64);
        let mut per_chunk: Vec<Result<R, WorkerPanic>> = Vec::with_capacity(blocks.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = blocks[1..]
                .iter()
                .enumerate()
                .map(|(i, &b)| s.spawn(move || run(i + 1, b)))
                .collect();
            per_chunk.push(run(0, blocks[0]));
            for h in handles {
                per_chunk.push(join_propagating(h));
            }
        });
        per_chunk.into_iter().collect()
    }
}

/// A panic captured from one pool worker by [`Runtime::try_par_chunks`].
///
/// The panic did not cross the pool boundary: every other chunk completed
/// (or reported its own panic), scoped threads were joined, and whatever
/// state the caller owns is intact. `worker` is the chunk index of the
/// first panicking worker in chunk order, so the same failing input always
/// names the same worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Chunk index of the worker whose closure panicked.
    pub worker: usize,
    /// The panic payload rendered as text (`&str`/`String` payloads
    /// verbatim; anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool worker {} panicked: {}", self.worker, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Render a panic payload as text for [`WorkerPanic::message`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Join a scoped worker, re-raising its panic on the calling thread so
/// parallel sections fail exactly like their serial equivalents.
fn join_propagating<'a, R>(h: std::thread::ScopedJoinHandle<'a, R>) -> R {
    match h.join() {
        Ok(r) => r,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_contiguously() {
        // Every small n at every accepted worker count, plus a large n at
        // ragged and extreme counts. Miri interprets, so it gets a corner.
        let (max_n, max_w) = if cfg!(miri) {
            (49, 9)
        } else {
            (1024, MAX_WORKERS)
        };
        let small = (0..=max_n).flat_map(|n| (1..=max_w).map(move |w| (n, w)));
        let large = [2, 3, MAX_WORKERS].map(|w| (1_000_000, w));
        for (n, w) in small.chain(large) {
            let blocks = partition(n, w);
            assert_eq!(blocks.len(), w.min(n), "n={n} w={w}: block count");
            let (mut next, mut smallest, mut largest) = (0, usize::MAX, 0);
            for (i, &(lo, hi)) in blocks.iter().enumerate() {
                assert!(hi > lo, "n={n} w={w}: block {i} is empty");
                assert!(
                    lo >= next,
                    "n={n} w={w}: block {i} overlaps its predecessor"
                );
                assert!(
                    lo <= next,
                    "n={n} w={w}: items {next}..{lo} belong to no block"
                );
                (smallest, largest) = (smallest.min(hi - lo), largest.max(hi - lo));
                next = hi;
            }
            assert_eq!(next, n, "n={n} w={w}: blocks must end at n");
            assert!(
                blocks.is_empty() || largest - smallest <= 1,
                "n={n} w={w}: block sizes {smallest}..={largest}"
            );
        }
    }

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<usize> = (0..103).collect();
        for w in [1, 2, 3, 4, 7, 128] {
            let rt = Runtime::new(w);
            let out = rt.par_map(&items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            let expect: Vec<usize> = items.iter().map(|x| x * 2).collect();
            assert_eq!(out, expect, "workers={w}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let rt = Runtime::new(4);
        let empty: Vec<u32> = vec![];
        assert_eq!(rt.par_map(&empty, |_, &x| x), Vec::<u32>::new());
        assert_eq!(rt.par_map(&[9u32], |i, &x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn resolve_workers_accepts_valid_requests() {
        for (raw, want) in [("1", 1), ("4", 4), (" 16 ", 16), ("512", MAX_WORKERS)] {
            let res = resolve_workers(Some(raw), 8);
            assert_eq!(res.workers, want, "raw={raw:?}");
            assert!(res.rejected.is_none(), "raw={raw:?}");
        }
        // unset: fallback to available parallelism, no warning
        let res = resolve_workers(None, 6);
        assert_eq!(res.workers, 6);
        assert!(res.rejected.is_none());
    }

    #[test]
    fn resolve_workers_rejects_zero() {
        let res = resolve_workers(Some("0"), 8);
        assert_eq!(res.workers, 8, "must fall back to available parallelism");
        let why = res.rejected.expect("zero is invalid");
        assert!(why.contains("HARP_THREADS"), "{why}");
        assert!(why.contains('0'), "{why}");
    }

    #[test]
    fn resolve_workers_rejects_non_numeric() {
        for raw in ["four", "", "4x", "-2", "1.5"] {
            let res = resolve_workers(Some(raw), 3);
            assert_eq!(res.workers, 3, "raw={raw:?}");
            let why = res.rejected.expect("non-numeric is invalid");
            assert!(why.contains("HARP_THREADS"), "raw={raw:?}: {why}");
        }
    }

    #[test]
    fn resolve_workers_rejects_overlarge() {
        for raw in ["513", "100000", "18446744073709551616"] {
            let res = resolve_workers(Some(raw), 4);
            assert_eq!(res.workers, 4, "raw={raw:?}");
            assert!(res.rejected.is_some(), "raw={raw:?} must be rejected");
        }
    }

    #[test]
    fn resolve_workers_fallback_is_at_least_one() {
        assert_eq!(resolve_workers(None, 0).workers, 1);
        assert_eq!(resolve_workers(Some("bogus"), 0).workers, 1);
    }

    #[test]
    fn workers_fallback_warns_once_per_process() {
        let ok = WorkerResolution {
            workers: 4,
            rejected: None,
        };
        let rejected = WorkerResolution {
            workers: 4,
            rejected: Some("HARP_THREADS=\"bogus\" is not an integer".into()),
        };
        assert!(
            !warn_workers_fallback(&ok),
            "a clean resolution never warns"
        );
        assert!(
            warn_workers_fallback(&rejected),
            "first rejection must warn"
        );
        assert!(
            !warn_workers_fallback(&rejected),
            "second rejection must be deduped by the process-wide flag"
        );
    }

    #[test]
    fn worker_count_clamps_to_one() {
        assert_eq!(Runtime::new(0).workers(), 1);
        assert_eq!(Runtime::serial().workers(), 1);
    }

    #[test]
    fn try_par_chunks_sees_every_item_once_in_chunk_order() {
        let items: Vec<u64> = (0..37).collect();
        for w in [1, 2, 4, 5] {
            let rt = Runtime::new(w);
            let blocks = partition(items.len(), w);
            let partial = rt
                .try_par_chunks(&items, |ci, off, chunk| {
                    assert_eq!(chunk[0], off as u64, "chunk {ci} offset");
                    assert_eq!((off, off + chunk.len()), blocks[ci], "chunk {ci} bounds");
                    (ci, chunk.iter().sum::<u64>())
                })
                .expect("no panics");
            let order: Vec<usize> = partial.iter().map(|&(ci, _)| ci).collect();
            assert_eq!(order, (0..w.min(items.len())).collect::<Vec<_>>());
            let total: u64 = partial.iter().map(|&(_, s)| s).sum();
            assert_eq!(total, items.iter().sum::<u64>(), "workers={w}");
        }
    }

    #[test]
    fn try_par_chunks_contains_panic_as_structured_error() {
        let items: Vec<usize> = (0..16).collect();
        for w in [1, 4] {
            let rt = Runtime::new(w);
            let err = rt
                .try_par_chunks(&items, |ci, _, chunk| {
                    if chunk.contains(&11) {
                        // lint: allow(panic) — the contained panic under test
                        panic!("poisoned batch element 11");
                    }
                    ci
                })
                .expect_err("chunk holding item 11 must panic");
            assert!(
                err.message.contains("poisoned batch element 11"),
                "workers={w}: {err}"
            );
            // worker index is the chunk that owns item 11 (deterministic)
            let blocks = partition(items.len(), w);
            let want = blocks.iter().position(|&(lo, hi)| (lo..hi).contains(&11));
            assert_eq!(Some(err.worker), want, "workers={w}");
        }
    }

    #[test]
    fn try_par_chunks_reports_first_panicking_chunk() {
        let rt = Runtime::new(4);
        let items: Vec<usize> = (0..16).collect();
        let err = rt
            .try_par_chunks(&items, |ci, _, _| {
                if ci >= 2 {
                    // lint: allow(panic) — the contained panic under test
                    panic!("chunk {ci} down");
                }
                ci
            })
            .expect_err("two chunks panic");
        assert_eq!(err.worker, 2, "lowest panicking chunk wins");
        assert!(err.message.contains("chunk 2 down"), "{err}");
    }

    #[test]
    fn par_map_propagates_worker_panics() {
        let rt = Runtime::new(4);
        let items: Vec<usize> = (0..16).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.par_map(&items, |i, _| {
                assert!(i != 11, "boom at 11");
                i
            })
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn split_distributes_workers_evenly_with_floor_one() {
        let counts = |rt: Runtime, parts| -> Vec<usize> {
            rt.split(parts).iter().map(Runtime::workers).collect()
        };
        assert_eq!(counts(Runtime::new(8), 4), vec![2, 2, 2, 2]);
        assert_eq!(counts(Runtime::new(7), 3), vec![3, 2, 2]);
        // more parts than workers: every part still gets one worker
        assert_eq!(counts(Runtime::new(2), 4), vec![1, 1, 1, 1]);
        assert_eq!(counts(Runtime::new(5), 1), vec![5]);
        assert_eq!(counts(Runtime::new(5), 0), vec![5], "0 parts clamps to 1");
    }
}
