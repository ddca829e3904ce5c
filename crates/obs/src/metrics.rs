//! Typed counters and histograms with a process-global registry.
//!
//! Counters and histograms are declared as `static`s at their point of use
//! (`static MACS: Counter = Counter::new("kernels.macs");`) and register
//! themselves in a global list on first touch, so [`metrics_snapshot`] can
//! enumerate everything that was ever incremented. With the sink off,
//! [`Counter::add`] and [`Histogram::record`] are a single atomic load and
//! a branch.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::enabled;

static COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());
static HISTOGRAMS: Mutex<Vec<&'static Histogram>> = Mutex::new(Vec::new());

/// A monotonically-increasing named total (MACs executed, rows
/// parallelized, events seen). Declare as a `static`; increments are
/// relaxed atomics and no-ops while the sink is off.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A zeroed counter (const: usable in `static` position).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n`. No-op while the sink is off.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.ensure_registered();
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total (0 until first enabled `add`).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn ensure_registered(&'static self) {
        // A plain load first: the compare-exchange is a locked
        // read-modify-write even when it fails, on every add.
        if self.registered.load(Ordering::Acquire) {
            return;
        }
        if self
            .registered
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            if let Ok(mut reg) = COUNTERS.lock() {
                reg.push(self);
            }
        }
    }
}

/// A named duration/size distribution tracked as count / sum / min / max
/// (mean derivable). Cheap enough for per-op timing when profiling is on;
/// a single branch when the sink is off.
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    registered: AtomicBool,
}

impl Histogram {
    /// An empty histogram (const: usable in `static` position).
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The histogram's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record one observation. No-op while the sink is off.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        self.ensure_registered();
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Snapshot the current state.
    pub fn snapshot(&'static self) -> HistogramSnapshot {
        HistogramSnapshot {
            name: self.name,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    fn ensure_registered(&'static self) {
        // A plain load first: the compare-exchange is a locked
        // read-modify-write even when it fails, on every add.
        if self.registered.load(Ordering::Acquire) {
            return;
        }
        if self
            .registered
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            if let Ok(mut reg) = HISTOGRAMS.lock() {
                reg.push(self);
            }
        }
    }
}

/// Point-in-time view of a [`Counter`].
#[derive(Clone, Copy, Debug)]
pub struct CounterSnapshot {
    /// Registry name.
    pub name: &'static str,
    /// Total at snapshot time.
    pub value: u64,
}

/// Point-in-time view of a [`Histogram`].
#[derive(Clone, Copy, Debug)]
pub struct HistogramSnapshot {
    /// Registry name.
    pub name: &'static str,
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Dynamic-name histograms (per-OpKind timings): interned once per name,
/// then as cheap as a `static` histogram. The leaked allocation is bounded
/// by the number of distinct names ever passed (the tape op set is fixed
/// and small).
pub fn histogram(name: &str) -> &'static Histogram {
    static DYNAMIC: Mutex<Vec<&'static Histogram>> = Mutex::new(Vec::new());
    let mut reg = DYNAMIC
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(h) = reg.iter().find(|h| h.name == name) {
        return h;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new(leaked)));
    reg.push(h);
    h
}

/// Snapshot every counter and histogram touched so far, each sorted by
/// name for stable output.
pub fn metrics_snapshot() -> (Vec<CounterSnapshot>, Vec<HistogramSnapshot>) {
    let mut counters: Vec<CounterSnapshot> = COUNTERS
        .lock()
        .map(|reg| {
            reg.iter()
                .map(|c| CounterSnapshot {
                    name: c.name,
                    value: c.get(),
                })
                .collect()
        })
        .unwrap_or_default();
    counters.sort_by_key(|c| c.name);
    let mut histograms: Vec<HistogramSnapshot> = HISTOGRAMS
        .lock()
        .map(|reg| reg.iter().map(|h| h.snapshot()).collect())
        .unwrap_or_default();
    histograms.sort_by_key(|h| h.name);
    (counters, histograms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_inert_without_sink_and_snapshot_sorted() {
        static C: Counter = Counter::new("unit.counter");
        let before = C.get();
        C.add(5);
        if crate::enabled() {
            assert_eq!(C.get(), before + 5);
        } else {
            assert_eq!(C.get(), 0);
        }
        let (counters, _) = metrics_snapshot();
        for w in counters.windows(2) {
            assert!(w[0].name <= w[1].name);
        }
    }

    #[test]
    fn histogram_mean_handles_empty() {
        let snap = HistogramSnapshot {
            name: "x",
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        };
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn dynamic_histograms_intern_by_name() {
        let a = histogram("unit.dyn");
        let b = histogram("unit.dyn");
        assert!(std::ptr::eq(a, b));
    }
}
