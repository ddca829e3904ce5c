//! Per-layer numbers of the traced run that are shared across workloads:
//! span medians, `/proc` accounting per op, the budget-closure check, the
//! set-up stages that are layers of their own, and the matmul probe.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

use crate::estimators::{median_f64, quietest_p50_ns, Block};
use crate::runner::{Loop, OpResult, Workload};
use crate::trace::Tracer;
use crate::world::SetupLog;
use crate::Outcome;

/// Repetitions of a probe that times one layer call outside any op.
pub const PROBE_REPS: usize = 15;

/// Clock ticks per second of `/proc/<pid>/stat` times (USER_HZ is 100 on
/// every Linux ABI).
const TICK_MS: f64 = 10.0;

/// The latency budget of one op: what the replayed layers add up to against
/// what the op takes end to end with tracing off.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Untraced end-to-end median of one op, us.
    pub e2e_us: f64,
    /// Sum of the layers' self times for one op, us.
    pub layers_us: f64,
}

impl Budget {
    /// The parts must sum to the whole within this share of the whole.
    pub const LIMIT: f64 = 0.10;

    /// `(e2e - layers) / e2e`: the share of an op no layer span accounts for.
    pub fn residual_share(&self) -> f64 {
        (self.e2e_us - self.layers_us) / self.e2e_us
    }

    /// True when the budget closes within [`Budget::LIMIT`].
    pub fn closes(&self) -> bool {
        self.residual_share().abs() <= Self::LIMIT
    }
}

/// Median self time of every span name, us; each `(metric, span, scale)` row
/// of `table` is recorded in `layers` as `metric = median(span) * scale`.
pub fn span_medians_us(
    tr: &Tracer,
    table: &[(&'static str, &'static str, f64)],
    layers: &mut BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let med: BTreeMap<&'static str, f64> = tr
        .self_us_by_name()
        .into_iter()
        .map(|(name, v)| (name, median_f64(&v)))
        .collect();
    for &(metric, span, scale) in table {
        layers.insert(metric, med.get(span).copied().unwrap_or(0.0) * scale);
    }
    med
}

/// A workload with its spans on in even blocks and off in odd ones.
struct Alternating<'a, W>(&'a mut W);

impl<W: Workload> Workload for Alternating<'_, W> {
    fn op(&mut self, i: u64, block: usize) -> OpResult {
        self.0.spans(block.is_multiple_of(2));
        self.0.op(i, block)
    }

    fn after_block(&mut self, block: usize) -> u64 {
        self.0.after_block(block)
    }
}

/// First phase of every traced run: the same ops as the untraced run, in
/// four blocks with the workload's spans alternately on and off. The off
/// blocks become `out.blocks`, this run's untraced numbers; on minus off is
/// the tracing overhead. Leaves spans on and returns the untraced e2e
/// median of one op in us.
pub fn on_off_blocks(
    lp: &mut Loop,
    total: Duration,
    wl: &mut impl Workload,
    out: &mut Outcome,
) -> io::Result<f64> {
    let blocks = lp.blocks(total, 4, &mut Alternating(wl))?;
    wl.spans(true);
    let mut on = Vec::new();
    for (b, block) in blocks.into_iter().enumerate() {
        if b.is_multiple_of(2) {
            on.push(block);
        } else {
            out.blocks.push(block);
        }
    }
    proc_layers(&on, out);
    Ok(quietest_p50_ns(&out.blocks) as f64 / 1e3)
}

/// `proc.*` and `trace.overhead_share` from the traced run's e2e blocks:
/// `out.blocks` ran with spans off, `on` with spans on.
fn proc_layers(on: &[Block], out: &mut Outcome) {
    let off = &out.blocks;
    let ops: f64 = off.iter().map(|b| b.lat_ns.len() as f64).sum();
    let sum = |f: fn(&Block) -> u64| off.iter().map(f).sum::<u64>() as f64;
    let minflt = off
        .iter()
        .map(|b| b.minflt as f64 / b.lat_ns.len() as f64)
        .fold(f64::INFINITY, f64::min);
    let (gen, sut) = (sum(|b| b.gen_cpu_ns), sum(|b| b.sut_cpu_ns));
    let (p50_on, p50_off) = (quietest_p50_ns(on) as f64, quietest_p50_ns(off) as f64);
    let l = &mut out.layers;
    l.insert("proc.minflt_per_op", minflt);
    l.insert(
        "proc.cpu_user_ms_per_op",
        sum(|b| b.utime_ticks) * TICK_MS / ops,
    );
    l.insert(
        "proc.cpu_sys_ms_per_op",
        sum(|b| b.stime_ticks) * TICK_MS / ops,
    );
    l.insert("proc.gen_cpu_share", gen / (gen + sut).max(1.0));
    l.insert("proc.first_op_ms", out.first_op_ms);
    l.insert("trace.overhead_share", (p50_on - p50_off) / p50_off);
}

/// `opt.*` from the log of the last set-up, and `paths.yen_ms` unless the
/// workload's own ops already measured Yen.
pub fn setup_layers(log: &SetupLog, layers: &mut BTreeMap<&'static str, f64>) {
    layers
        .entry("paths.yen_ms")
        .or_insert(median_f64(&log.yen_ms));
    layers.insert("opt.oracle_ms", median_f64(&log.oracle_ms));
    layers.insert(
        "opt.oracle_exact_share",
        log.oracle_exact as f64 / log.oracle_ms.len().max(1) as f64,
    );
}

/// Throughput of the blocked GEMM on the largest matmul a GEANT forward
/// records: `[T * seq_len, d_model] x [d_model, d_ff]` = 33264 x 16 x 32.
pub fn matmul_gflops() -> f64 {
    const M: usize = 33_264;
    const K: usize = 16;
    const N: usize = 32;
    let a: Vec<f32> = (0..M * K).map(|i| (i % 13) as f32 * 0.25 - 1.0).collect();
    let b: Vec<f32> = (0..K * N).map(|i| (i % 7) as f32 * 0.5 - 1.0).collect();
    let mut out = vec![0.0f32; M * N];
    let secs: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            harp_tensor::kernels::matmul_into(black_box(&a), black_box(&b), M, K, N, &mut out);
            black_box(&out);
            t.elapsed().as_secs_f64()
        })
        .collect();
    2.0 * (M * K * N) as f64 / median_f64(&secs) / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_closes_within_ten_percent_either_way() {
        let b = |layers_us| Budget {
            e2e_us: 100.0,
            layers_us,
        };
        assert!(b(95.0).closes() && b(109.0).closes());
        assert!(!b(85.0).closes() && !b(115.0).closes());
        assert!((b(85.0).residual_share() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn matmul_probe_reports_a_rate() {
        assert!(matmul_gflops() > 0.01);
    }
}
