//! Block estimators.
//!
//! A run is B timed blocks. Interference on a shared host only ever adds
//! time, so every timing metric is computed per block and the *quietest*
//! block is reported (max for a rate, min for a time). Whole-run means and
//! medians moved 4–9 % between identical runs when this benchmark was sized;
//! quietest-block values moved 1–4 %.

/// What one timed block measured.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Per-op latency, in op order.
    pub lat_ns: Vec<u64>,
    /// Wall clock from the block's first op start to its last op end.
    pub wall_ns: u64,
    /// On-CPU time of the system under test (process minus load generator).
    pub sut_cpu_ns: u64,
    /// On-CPU time of the load-generator thread.
    pub gen_cpu_ns: u64,
    /// Minor page faults taken by the process.
    pub minflt: u64,
    /// Process user time, clock ticks.
    pub utime_ticks: u64,
    /// Process system time, clock ticks.
    pub stime_ticks: u64,
}

/// The `p`-th percentile (0..=100) of `sorted` by the nearest-rank rule.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (nearest rank).
pub fn median_ns(sample: &[u64]) -> u64 {
    let mut s = sample.to_vec();
    s.sort_unstable();
    percentile_sorted(&s, 50.0)
}

/// Median of an unsorted `f64` sample (nearest rank); 0 when empty.
pub fn median_f64(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut s = sample.to_vec();
    s.sort_by(f64::total_cmp);
    s[s.len().div_ceil(2) - 1]
}

/// Min over blocks of the block median latency, ns.
pub fn quietest_p50_ns(blocks: &[Block]) -> u64 {
    blocks
        .iter()
        .map(|b| median_ns(&b.lat_ns))
        .min()
        .unwrap_or(0)
}

/// Samples a tail percentile must leave beyond it to be reportable.
pub const TAIL_BEYOND: usize = 10;

/// The highest-latency sample that still has [`TAIL_BEYOND`] samples beyond
/// it, with the percentile it sits at. A sample too small for that falls
/// back to its median, so the metric never reads off the noisiest few ops.
pub fn tail(sample: &[u64]) -> (u64, f64) {
    let mut s = sample.to_vec();
    s.sort_unstable();
    let n = s.len();
    let idx = if n > 2 * TAIL_BEYOND + 1 {
        n - 1 - TAIL_BEYOND
    } else {
        n.div_ceil(2) - 1
    };
    (s[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// How the tail is taken over the blocks of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TailMode {
    /// Tail of each block, quietest block reported (blocks are large).
    PerBlock,
    /// Tail of all timed ops pooled (ops are slow, blocks are small).
    Pooled,
}

/// End-to-end timing summary of a run's blocks.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Ops per wall second of the quietest block.
    pub ops_per_s: f64,
    /// Min over blocks of the block median latency.
    pub op_p50_ms: f64,
    /// Tail latency (see [`tail`]) per [`TailMode`].
    pub op_tail_ms: f64,
    /// Percentile `op_tail_ms` sits at.
    pub tail_pct: f64,
    /// Samples the tail was read from.
    pub tail_samples: usize,
    /// System-under-test CPU per op, quietest block.
    pub cpu_ms_per_op: f64,
    /// Total timed ops.
    pub ops: usize,
}

/// Quietest-block summary. Panics on an empty block list or an empty block
/// (the runner never produces either).
pub fn summarise(blocks: &[Block], mode: TailMode) -> Summary {
    assert!(!blocks.is_empty() && blocks.iter().all(|b| !b.lat_ns.is_empty()));
    let ops_per_s = blocks
        .iter()
        .map(|b| b.lat_ns.len() as f64 / (b.wall_ns as f64 / 1e9))
        .fold(0.0, f64::max);
    let op_p50_ms = quietest_p50_ns(blocks) as f64 / 1e6;
    let cpu_ms_per_op = blocks
        .iter()
        .map(|b| b.sut_cpu_ns as f64 / b.lat_ns.len() as f64)
        .fold(f64::INFINITY, f64::min)
        / 1e6;
    let (tail_ns, tail_pct, tail_samples) = match mode {
        TailMode::PerBlock => blocks
            .iter()
            .map(|b| {
                let (v, p) = tail(&b.lat_ns);
                (v, p, b.lat_ns.len())
            })
            .min_by_key(|t| t.0)
            .unwrap_or((0, 0.0, 0)),
        TailMode::Pooled => {
            let all: Vec<u64> = blocks
                .iter()
                .flat_map(|b| b.lat_ns.iter().copied())
                .collect();
            let (v, p) = tail(&all);
            (v, p, all.len())
        }
    };
    Summary {
        ops_per_s,
        op_p50_ms,
        op_tail_ms: tail_ns as f64 / 1e6,
        tail_pct,
        tail_samples,
        cpu_ms_per_op,
        ops: blocks.iter().map(|b| b.lat_ns.len()).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(lat: &[u64], wall: u64, cpu: u64) -> Block {
        Block {
            lat_ns: lat.to_vec(),
            wall_ns: wall,
            sut_cpu_ns: cpu,
            ..Block::default()
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50);
        assert_eq!(percentile_sorted(&s, 99.0), 99);
        assert_eq!(percentile_sorted(&s, 100.0), 100);
        assert_eq!(percentile_sorted(&s, 0.0), 1);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
        assert_eq!(median_ns(&[9, 1, 5]), 5);
        assert_eq!(median_ns(&[4, 1, 3, 2]), 2);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let s: Vec<u64> = (1..=1000).collect();
        let (v, p) = tail(&s);
        assert_eq!(v, 990);
        assert!((p - 99.0).abs() < 1e-9);
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&s), (90, 90.0));
        // too few samples for a tail: the median
        let s: Vec<u64> = (1..=21).collect();
        assert_eq!(tail(&s).0, 11);
        let s: Vec<u64> = (1..=22).collect();
        assert_eq!(tail(&s).0, 12);
    }

    #[test]
    fn quietest_block_wins_every_timing() {
        // block 1 is disturbed: slower ops, more wall, more cpu
        let quiet = block(&[10, 10, 10, 10], 50, 40);
        let noisy = block(&[10, 30, 30, 30], 120, 100);
        let s = summarise(&[noisy, quiet], TailMode::PerBlock);
        assert!((s.ops_per_s - 4.0 / 50e-9).abs() / s.ops_per_s < 1e-12);
        assert!((s.op_p50_ms - 10e-6).abs() < 1e-15);
        assert!((s.cpu_ms_per_op - 10e-6).abs() < 1e-15);
        assert_eq!(s.ops, 8);
    }

    #[test]
    fn pooled_tail_reads_all_blocks() {
        let a = block(&(1..=50).collect::<Vec<u64>>(), 1, 1);
        let b = block(&(51..=100).collect::<Vec<u64>>(), 1, 1);
        let s = summarise(&[a.clone(), b.clone()], TailMode::Pooled);
        assert_eq!(s.tail_samples, 100);
        assert!((s.op_tail_ms - 90e-6).abs() < 1e-15);
        let s = summarise(&[a, b], TailMode::PerBlock);
        assert_eq!(s.tail_samples, 50);
        assert!((s.op_tail_ms - 40e-6).abs() < 1e-15);
    }
}
