//! The measurement loop shared by every workload: repeated set-up, warm-up,
//! then B timed blocks, each bracketed by `/proc` reads.
//!
//! Every workload is a closed loop with a window of one: a TE controller's
//! caller is a per-WAN control loop that waits for its splits before it
//! acts. Blocks are sized by time (`--seconds / B`), so a run measures for
//! `--seconds` however fast the code under test is.

use std::io;
use std::time::{Duration, Instant};

use crate::estimators::Block;
use crate::procfs;

/// Which thread's CPU is load-generator overhead, not the system's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Generator {
    /// The calling thread only sends requests and checks replies (serve
    /// workloads): its CPU is subtracted.
    Client,
    /// The calling thread runs the system under test inline (train,
    /// onboard): nothing is subtracted.
    Inline,
}

/// What one op reports back to the loop.
#[derive(Clone, Copy, Debug)]
pub struct OpResult {
    /// False when the reply was refused, errored, degraded or invalid.
    pub ok: bool,
    /// Latency of the op's critical section.
    pub lat_ns: u64,
}

/// What the loop drives: a workload's op and its deferred validation.
pub trait Workload {
    /// Run op number `i` (numbered through warm-up and all blocks) of timed
    /// block `block`.
    fn op(&mut self, i: u64, block: usize) -> OpResult;

    /// Called between blocks, outside every timed interval: validate what
    /// the block kept and return how many of its ops were invalid.
    fn after_block(&mut self, _block: usize) -> u64 {
        0
    }

    /// Switch the workload's own span recording on or off (traced runs).
    fn spans(&mut self, _on: bool) {}
}

/// Time `f` as one op.
pub fn timed_op(f: impl FnOnce() -> bool) -> OpResult {
    let t = Instant::now();
    let ok = f();
    OpResult {
        ok,
        lat_ns: t.elapsed().as_nanos() as u64,
    }
}

/// Totals of the ops a run attempted.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Ops attempted (warm-up, timed and quality ops alike).
    pub attempted: u64,
    /// Ops that failed an inline check or a later validation.
    pub failed: u64,
}

impl Tally {
    /// Count one op.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Set-up repetitions every run makes.
const SETUP_REPEATS: usize = 3;
/// A set-up cheaper than a third of this is repeated further, up to
/// [`SETUP_REPEATS_MAX`] times, so that a cheap set-up's median is as steady
/// as a dear one's.
const SETUP_BUDGET_S: f64 = 1.5;
const SETUP_REPEATS_MAX: usize = 9;

/// Run `build` repeatedly (once when `once`) and keep the last result;
/// returns it with the wall seconds of every repetition, whose median is
/// `setup_s`. The previous result is dropped before the next build starts,
/// outside the timed interval.
pub fn repeat_setup<T>(once: bool, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::new();
    let mut last = None;
    loop {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        secs.push(t.elapsed().as_secs_f64());
        let spent: f64 = secs.iter().sum();
        let more = secs.len() < SETUP_REPEATS
            || (secs.len() < SETUP_REPEATS_MAX && spent < SETUP_BUDGET_S);
        if once || !more {
            return (last.expect("a set-up just ran"), secs);
        }
    }
}

/// The closed loop: numbers ops through warm-up and every block, and
/// tallies what they attempted.
pub struct Loop {
    /// Whose CPU is generator overhead.
    pub generator: Generator,
    /// Number of the next op.
    pub next_op: u64,
    /// Ops attempted and failed so far.
    pub tally: Tally,
}

impl Loop {
    /// A loop that has run nothing yet.
    pub fn new(generator: Generator) -> Self {
        Loop {
            generator,
            next_op: 0,
            tally: Tally::default(),
        }
    }

    /// Discarded warm-up: ops until `total` has passed and at least
    /// `min_ops` ran. Returns the latency of the very first (cold) op in ms.
    pub fn warm_up(&mut self, total: Duration, min_ops: u64, wl: &mut impl Workload) -> f64 {
        let start = Instant::now();
        let mut first_ms = 0.0;
        let mut n = 0u64;
        while n < min_ops || start.elapsed() < total {
            let r = wl.op(self.next_op, 0);
            self.tally.record(r.ok);
            if n == 0 {
                first_ms = r.lat_ns as f64 / 1e6;
            }
            self.next_op += 1;
            n += 1;
        }
        first_ms
    }

    /// `nblocks` timed blocks of `total / nblocks` each.
    pub fn blocks(
        &mut self,
        total: Duration,
        nblocks: usize,
        wl: &mut impl Workload,
    ) -> io::Result<Vec<Block>> {
        let per_block = total / nblocks as u32;
        let generator = self.generator;
        let gen_cpu = || match generator {
            Generator::Client => procfs::thread_cpu_ns(),
            Generator::Inline => Ok(0),
        };
        let mut blocks = Vec::with_capacity(nblocks);
        for b in 0..nblocks {
            let stat0 = procfs::self_stat()?;
            let gen0 = gen_cpu()?;
            let cpu0 = procfs::process_cpu_ns()?;
            let mut lat_ns = Vec::new();
            let start = Instant::now();
            while lat_ns.is_empty() || start.elapsed() < per_block {
                let r = wl.op(self.next_op, b);
                self.tally.record(r.ok);
                lat_ns.push(r.lat_ns);
                self.next_op += 1;
            }
            let wall_ns = start.elapsed().as_nanos() as u64;
            let cpu1 = procfs::process_cpu_ns()?;
            let gen1 = gen_cpu()?;
            let stat1 = procfs::self_stat()?;
            let gen_cpu_ns = gen1.saturating_sub(gen0);
            blocks.push(Block {
                lat_ns,
                wall_ns,
                sut_cpu_ns: procfs::sut_cpu_ns(cpu1.saturating_sub(cpu0), gen_cpu_ns),
                gen_cpu_ns,
                minflt: stat1.minflt.saturating_sub(stat0.minflt),
                utime_ticks: stat1.utime_ticks.saturating_sub(stat0.utime_ticks),
                stime_ticks: stat1.stime_ticks.saturating_sub(stat0.stime_ticks),
            });
            self.tally.failed += wl.after_block(b);
        }
        Ok(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Fake {
        seen: Vec<(u64, usize)>,
        validated: Vec<usize>,
    }

    impl Workload for Fake {
        fn op(&mut self, i: u64, block: usize) -> OpResult {
            self.seen.push((i, block));
            std::thread::sleep(Duration::from_millis(4));
            OpResult {
                ok: i != 6,
                lat_ns: (i + 1) * 1_000_000,
            }
        }

        fn after_block(&mut self, block: usize) -> u64 {
            self.validated.push(block);
            u64::from(block == 2)
        }
    }

    #[test]
    fn blocks_are_time_sized_and_ops_are_numbered_through() {
        let mut lp = Loop::new(Generator::Client);
        lp.next_op = 5;
        let mut wl = Fake::default();
        let blocks = lp
            .blocks(Duration::from_millis(60), 3, &mut wl)
            .expect("procfs readable");
        assert_eq!(blocks.len(), 3);
        assert_eq!(wl.validated, vec![0, 1, 2]);
        let ops: usize = blocks.iter().map(|b| b.lat_ns.len()).sum();
        assert_eq!(wl.seen.len(), ops);
        assert_eq!(wl.seen[0], (5, 0));
        assert_eq!(lp.next_op, 5 + ops as u64);
        assert!(wl
            .seen
            .windows(2)
            .all(|w| w[1].0 == w[0].0 + 1 && w[1].1 >= w[0].1));
        assert!(blocks.iter().all(|b| b.wall_ns >= 20_000_000));
        assert_eq!(lp.tally.attempted, ops as u64);
        assert_eq!(
            lp.tally.failed, 2,
            "one inline failure + one found by validation"
        );
    }

    #[test]
    fn setup_repeats_and_warm_up_keeps_the_first_op() {
        let mut built = 0;
        let (v, secs) = repeat_setup(false, || {
            built += 1;
            built
        });
        assert_eq!((v, secs.len()), (9, 9), "a free set-up repeats to the cap");
        let (v, secs) = repeat_setup(true, || 1);
        assert_eq!((v, secs.len()), (1, 1));
        let (_, secs) = repeat_setup(false, || std::thread::sleep(Duration::from_millis(600)));
        assert_eq!(secs.len(), 3);
        let mut lp = Loop::new(Generator::Inline);
        let first = lp.warm_up(Duration::ZERO, 4, &mut Fake::default());
        assert_eq!((first, lp.next_op, lp.tally.attempted), (1.0, 4, 4));
    }
}
