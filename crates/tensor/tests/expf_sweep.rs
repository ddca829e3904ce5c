//! `kernels::expf` and `kernels::expf_inplace` against libm's `expf`
//! (`f32::exp`) on every one of the 2^32 `f32` bit patterns, NaN compared
//! as NaN. Ignored by default; run it in release:
//!
//! ```text
//! cargo test --release -p harp-tensor --test expf_sweep -- --ignored
//! ```
//!
//! The port reproduces one glibc variant per build target (see the
//! module docs of `kernels::expf`), so a build for the host CPU is what
//! this holds to the host's libm.

use harp_tensor::kernels::{expf, expf_inplace};

fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Mismatches of either entry over the bit patterns `lo..hi`, in blocks
/// the size of a long softmax row block.
fn sweep(lo: u64, hi: u64) -> Vec<(u32, &'static str)> {
    const BLOCK: u64 = 4096;
    let mut bad = Vec::new();
    let mut xs = Vec::with_capacity(BLOCK as usize);
    let mut start = lo;
    while start < hi {
        let end = (start + BLOCK).min(hi);
        xs.clear();
        xs.extend((start..end).map(|b| f32::from_bits(b as u32)));
        let mut ys = xs.clone();
        expf_inplace(&mut ys);
        for (x, y) in xs.iter().zip(&ys) {
            let want = x.exp();
            if !same(expf(*x), want) {
                bad.push((x.to_bits(), "scalar"));
            }
            if !same(*y, want) {
                bad.push((x.to_bits(), "slice"));
            }
        }
        start = end;
    }
    bad
}

#[test]
#[ignore = "every f32 bit pattern: ~30 s in release on 2 cores"]
fn every_f32_matches_libm() {
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().min(8)) as u64;
    let total = 1u64 << 32;
    let bad: Vec<(u32, &str)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| s.spawn(move || sweep(total * t / threads, total * (t + 1) / threads)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep thread"))
            .collect()
    });
    assert!(
        bad.is_empty(),
        "{} mismatches, first {:x?}",
        bad.len(),
        &bad[..bad.len().min(8)]
    );
}
