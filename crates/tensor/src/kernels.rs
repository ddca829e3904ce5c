//! Low-level dense kernels shared by the tape's forward and backward passes.
//!
//! All kernels operate on plain `&[f32]` slices in row-major layout. They are
//! public so that non-autodiff code (e.g. the LP solvers' dense algebra or
//! inference-only paths) can reuse them.
//!
//! ## Microkernel architecture
//!
//! All three matmul variants (`c = a*b`, `out += a^T*b`, `out += a*b^T`) run
//! through one GEMM driver; the fused `act(init ⊕ a*b + bias)` kernel
//! ([`affine_into`]) shares its packing and its per-element chain but has a
//! row kernel of its own, whose writeback goes through the epilogue:
//!
//! 1. **Packed-B panels.** The right-hand operand is packed once per call
//!    (on the calling thread, into a thread-local scratch buffer) into
//!    column panels of up to [`MAX_PANEL`] columns, each padded with zero
//!    columns to a multiple of [`LANES`]. Packing also folds in the
//!    transpose for the `a*b^T` variant, so every inner loop reads the
//!    panel stride-1 — this is what fixes the historical `matmul_a_bt`
//!    outlier (it used to stride `b` column-wise per dot product).
//! 2. **Lane-array microkernel.** The inner kernel holds a register block
//!    of `MR x NG` fixed-size `[f32; 8]` accumulator lane arrays (`MR`
//!    output rows by `NG` lane groups = up to 48 output columns) and runs
//!    the reduction index innermost. The fixed-size arrays autovectorize to
//!    8-lane FMA vector code under `-C target-cpu=native` (see
//!    `.cargo/config.toml`) with zero dependencies and no `unsafe`. The
//!    recorded HARP/DOTE/TEAL hot shapes are tall-skinny (m ≈ 33k,
//!    n/k ∈ {8, 9, 16, 20, 32, 48}), so a whole output row fits in one
//!    panel and the monomorphized `NG ∈ 1..=6` instances cover every
//!    recorded width exactly.
//!
//! ## Determinism contract
//!
//! Per output element the accumulation order is **fixed and identical on
//! every path**: reduction-index increasing (k for products, sample index
//! for gradient reductions), accumulated in a register starting from `0.0`
//! — or from the caller's *seed* for that element, see [`affine_into`] —
//! then added to the output element once. Lane grouping vectorizes *across*
//! output elements, never within one element's reduction, so blocking and
//! shape specialization cannot reorder any element's float operations. All
//! paths multiply-accumulate through [`fmla`], so one binary uses one
//! rounding scheme throughout (hardware FMA when the build target has it).
//!
//! Every kernel runs on the calling thread. A second core is used one level
//! up, by callers that hold a list of independent items (batch elements,
//! validation snapshots, a shard's batch) — never inside one product: split
//! by rows across two scoped threads on a 2-CPU host, every recorded
//! tall-skinny shape was slower (7910x16x32: 172 vs 149 us serial).

use std::cell::RefCell;

use harp_obs::Counter;

mod exp;
pub use exp::{expf, expf_inplace};

/// Multiply-accumulates executed by the matmul kernels (all variants).
static MACS: Counter = Counter::new("kernels.macs");
/// Matmul-family calls.
static CALLS: Counter = Counter::new("kernels.calls");
/// Fused affine (matmul+bias+activation) kernel calls.
static CALLS_FUSED: Counter = Counter::new("kernels.calls_fused");

/// Credit one matmul-family call of `macs` multiply-accumulates to the
/// kernel counters. A branch when obs is off.
#[inline]
fn count_call(macs: usize) {
    if !harp_obs::enabled() {
        return;
    }
    MACS.add(macs as u64);
    CALLS.add(1);
}

/// Accumulator lane width: one `[f32; LANES]` array is one SIMD register
/// under `-C target-cpu=native` on AVX2-class hardware.
pub const LANES: usize = 8;
/// Widest packed-B panel (6 lane groups): a full output-row register block
/// for every recorded tall-skinny shape (n ≤ 48).
const MAX_PANEL: usize = 48;

/// Fused multiply-add when the build target has hardware FMA, separate
/// mul+add otherwise. The compile-time branch keeps every kernel path on
/// one rounding scheme per binary (and avoids the catastrophically slow
/// libm soft-fma that `f32::mul_add` becomes without the instruction).
#[inline(always)]
fn fmla(a: f32, b: f32, c: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

#[inline]
fn pad_lanes(w: usize) -> usize {
    w.div_ceil(LANES) * LANES
}

thread_local! {
    /// Per-thread packing scratch, reused across kernel calls so steady-state
    /// GEMMs allocate nothing. Taken out of the cell for the duration of a
    /// call, so a nested kernel call simply sees its own (possibly fresh)
    /// buffer.
    static PACK_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Pack the right-hand GEMM operand into zero-padded column panels.
///
/// `trans == false`: `rhs` is `[red, cols]` row-major and is packed as-is.
/// `trans == true`: `rhs` is `[cols, red]` row-major and the transpose is
/// packed, so the caller's reduction always walks panel rows stride-1.
/// Panel `p` covers output columns `[p*MAX_PANEL, ...)`, stores
/// `red * pad_lanes(width)` floats contiguously, and pads its tail columns
/// with zeros (harmless: padded lanes are never stored to the output).
fn pack_rhs(rhs: &[f32], red: usize, cols: usize, trans: bool, dst: &mut Vec<f32>) {
    dst.clear();
    let mut total = 0;
    let mut c0 = 0;
    while c0 < cols {
        let w = (cols - c0).min(MAX_PANEL);
        total += red * pad_lanes(w);
        c0 += w;
    }
    dst.resize(total, 0.0);
    let mut off = 0;
    c0 = 0;
    while c0 < cols {
        let w = (cols - c0).min(MAX_PANEL);
        let wp = pad_lanes(w);
        let panel = &mut dst[off..off + red * wp];
        if trans {
            for c in 0..w {
                let src = &rhs[(c0 + c) * red..(c0 + c + 1) * red];
                for (r, &x) in src.iter().enumerate() {
                    panel[r * wp + c] = x;
                }
            }
        } else {
            for r in 0..red {
                panel[r * wp..r * wp + w].copy_from_slice(&rhs[r * cols + c0..r * cols + c0 + w]);
            }
        }
        off += red * wp;
        c0 += w;
    }
}

/// Register-blocked microkernel: `MR` output rows by `NG` lane groups.
///
/// Accumulates `Σ_kk lhs(row, kk) * panel(kk, col)` for the strip's rows
/// into `[[f32; LANES]; NG]` lane arrays (reduction index `kk` increasing,
/// starting from 0.0 — the per-element order every path shares), then adds
/// each element's register sum to the output once. `lhs(row, kk)` is read
/// at `lhs[abase + row*lrs + kk*lcs]`, which expresses both the plain
/// (`lrs=k, lcs=1`) and transposed (`lrs=1, lcs=k`) left operands without
/// copying.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro<const NG: usize, const MR: usize>(
    lhs: &[f32],
    abase: usize,
    lrs: usize,
    lcs: usize,
    panel: &[f32],
    red: usize,
    block: &mut [f32],
    obase: usize,
    ors: usize,
    w: usize,
) {
    let mut acc = [[[0.0f32; LANES]; NG]; MR];
    // Re-slice to the exact extent so the iteration count below is provably
    // `red` and the per-iteration bounds checks vanish.
    let panel = &panel[..red * (NG * LANES)];
    if lcs == 1 {
        // Contiguous lhs rows (matmul / a_bt): pre-slice each strip row once
        // so the hot loop indexes check-free.
        let arows: [&[f32]; MR] = core::array::from_fn(|r| {
            let s = abase + r * lrs;
            &lhs[s..s + red]
        });
        for (kk, brow) in panel.chunks_exact(NG * LANES).enumerate() {
            for (r, arow) in arows.iter().enumerate() {
                let aik = arow[kk];
                for g in 0..NG {
                    for l in 0..LANES {
                        acc[r][g][l] = fmla(aik, brow[g * LANES + l], acc[r][g][l]);
                    }
                }
            }
        }
    } else {
        // Strided lhs (a^T with small reduction): indexed loads.
        for (kk, brow) in panel.chunks_exact(NG * LANES).enumerate() {
            for r in 0..MR {
                let aik = lhs[abase + r * lrs + kk * lcs];
                for g in 0..NG {
                    for l in 0..LANES {
                        acc[r][g][l] = fmla(aik, brow[g * LANES + l], acc[r][g][l]);
                    }
                }
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let row = &mut block[obase + r * ors..obase + r * ors + w];
        // A whole lane group is a fixed-width add (one vector op; a
        // `min(LANES)`-length loop compiles to eight scalar ones), the
        // panel's ragged last group a branch inside the constant-`NG` loop.
        let add = |o: &mut [f32], lanes: &[f32; LANES]| {
            for (ov, &v) in o.iter_mut().zip(lanes) {
                *ov += v;
            }
        };
        for (g, lanes) in acc_row.iter().enumerate() {
            let lo = g * LANES;
            if lo + LANES <= w {
                add(&mut row[lo..lo + LANES], lanes);
            } else {
                add(&mut row[lo..], lanes);
            }
        }
    }
}

/// Nine-column microkernel: one full lane group plus one scalar tail
/// column, for the recorded n == 9 tall-skinny shape where padding to two
/// lane groups would waste 7 of 16 lanes. Reads the same 16-wide packed
/// panel as the generic kernel and applies the identical per-element
/// fused-multiply-add chain (reduction index increasing), so its results
/// are bit-for-bit the same as the generic path it replaces.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro91<const MR: usize>(
    lhs: &[f32],
    abase: usize,
    lrs: usize,
    lcs: usize,
    panel: &[f32],
    red: usize,
    block: &mut [f32],
    obase: usize,
    ors: usize,
) {
    let mut acc = [[0.0f32; LANES]; MR];
    let mut acct = [0.0f32; MR];
    let panel = &panel[..red * (2 * LANES)];
    if lcs == 1 {
        let arows: [&[f32]; MR] = core::array::from_fn(|r| {
            let s = abase + r * lrs;
            &lhs[s..s + red]
        });
        for (kk, brow) in panel.chunks_exact(2 * LANES).enumerate() {
            for (r, arow) in arows.iter().enumerate() {
                let aik = arow[kk];
                for l in 0..LANES {
                    acc[r][l] = fmla(aik, brow[l], acc[r][l]);
                }
                acct[r] = fmla(aik, brow[LANES], acct[r]);
            }
        }
    } else {
        for (kk, brow) in panel.chunks_exact(2 * LANES).enumerate() {
            for r in 0..MR {
                let aik = lhs[abase + r * lrs + kk * lcs];
                for l in 0..LANES {
                    acc[r][l] = fmla(aik, brow[l], acc[r][l]);
                }
                acct[r] = fmla(aik, brow[LANES], acct[r]);
            }
        }
    }
    for (r, lanes) in acc.iter().enumerate() {
        let rb = obase + r * ors;
        for (o, &v) in block[rb..rb + LANES].iter_mut().zip(lanes) {
            *o += v;
        }
        block[rb + LANES] += acct[r];
    }
}

/// [`micro91`] over all rows of a block (strips of 4, then singles).
#[allow(clippy::too_many_arguments)]
fn panel_rows91(
    lhs: &[f32],
    lrs: usize,
    lcs: usize,
    panel: &[f32],
    red: usize,
    block: &mut [f32],
    cols: usize,
    c0: usize,
    rows: usize,
) {
    let mut r = 0;
    while r + 4 <= rows {
        micro91::<4>(
            lhs,
            r * lrs,
            lrs,
            lcs,
            panel,
            red,
            block,
            r * cols + c0,
            cols,
        );
        r += 4;
    }
    while r < rows {
        micro91::<1>(
            lhs,
            r * lrs,
            lrs,
            lcs,
            panel,
            red,
            block,
            r * cols + c0,
            cols,
        );
        r += 1;
    }
}

/// Run the microkernel over all rows of a block for one packed panel,
/// register-blocking 4 rows at a time (2 for wide panels, where
/// the accumulator block would otherwise exceed the register file).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn panel_rows<const NG: usize>(
    lhs: &[f32],
    lrs: usize,
    lcs: usize,
    panel: &[f32],
    red: usize,
    block: &mut [f32],
    cols: usize,
    c0: usize,
    w: usize,
    rows: usize,
) {
    let mut r = 0;
    if NG <= 2 {
        while r + 4 <= rows {
            micro::<NG, 4>(
                lhs,
                r * lrs,
                lrs,
                lcs,
                panel,
                red,
                block,
                r * cols + c0,
                cols,
                w,
            );
            r += 4;
        }
    } else {
        while r + 2 <= rows {
            micro::<NG, 2>(
                lhs,
                r * lrs,
                lrs,
                lcs,
                panel,
                red,
                block,
                r * cols + c0,
                cols,
                w,
            );
            r += 2;
        }
    }
    while r < rows {
        micro::<NG, 1>(
            lhs,
            r * lrs,
            lrs,
            lcs,
            panel,
            red,
            block,
            r * cols + c0,
            cols,
            w,
        );
        r += 1;
    }
}

/// GEMM over the output rows `block`: walk the packed panels, dispatching
/// each to the lane-group-specialized microkernel instance.
fn gemm_block(
    lhs: &[f32],
    lrs: usize,
    lcs: usize,
    packed: &[f32],
    red: usize,
    cols: usize,
    block: &mut [f32],
) {
    let rows = block.len() / cols;
    let mut off = 0;
    let mut c0 = 0;
    while c0 < cols {
        let w = (cols - c0).min(MAX_PANEL);
        let wp = pad_lanes(w);
        let panel = &packed[off..off + red * wp];
        match wp / LANES {
            1 => panel_rows::<1>(lhs, lrs, lcs, panel, red, block, cols, c0, w, rows),
            2 if w == LANES + 1 => panel_rows91(lhs, lrs, lcs, panel, red, block, cols, c0, rows),
            2 => panel_rows::<2>(lhs, lrs, lcs, panel, red, block, cols, c0, w, rows),
            3 => panel_rows::<3>(lhs, lrs, lcs, panel, red, block, cols, c0, w, rows),
            4 => panel_rows::<4>(lhs, lrs, lcs, panel, red, block, cols, c0, w, rows),
            5 => panel_rows::<5>(lhs, lrs, lcs, panel, red, block, cols, c0, w, rows),
            _ => panel_rows::<6>(lhs, lrs, lcs, panel, red, block, cols, c0, w, rows),
        }
        off += red * wp;
        c0 += w;
    }
}

/// The one GEMM driver behind every matmul variant: pack the right operand
/// and run the microkernel over the whole output.
#[allow(clippy::too_many_arguments)]
fn gemm_into(
    lhs: &[f32],
    lrs: usize,
    lcs: usize,
    rhs: &[f32],
    rhs_trans: bool,
    red: usize,
    cols: usize,
    out: &mut [f32],
) {
    let mut scratch = PACK_SCRATCH.with(RefCell::take);
    pack_rhs(rhs, red, cols, rhs_trans, &mut scratch);
    gemm_block(lhs, lrs, lcs, &scratch, red, cols, out);
    let _ = PACK_SCRATCH.with(|c| c.replace(scratch));
}

/// `c = a[m,k] * b[k,n]` (row-major, into a fresh buffer).
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    matmul_into(a, b, m, k, n, &mut c);
    c
}

/// Accumulate `a[m,k] * b[k,n]` into `out[m,n]` (`out += a*b`; zero `out`
/// first for a plain product). This is the entry the tape's arena-backed
/// forward pass writes through: no buffer of its own beyond the per-thread
/// packing scratch.
pub fn matmul_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul: lhs size");
    assert_eq!(b.len(), k * n, "matmul: rhs size");
    assert_eq!(out.len(), m * n, "matmul: out size");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    count_call(m * k * n);
    if n == 1 {
        // Matrix-vector product (MLP output heads): the 8-lane panel would
        // waste 7/8 of its multiplies on padding. Per element this is the
        // same single k-increasing fmla chain as the panel kernel, so the
        // bits are identical; rows run as independent chains to keep the
        // FPU pipeline full.
        matvec_into(a, b, k, out, None, |x| x);
        return;
    }
    gemm_into(a, k, 1, b, false, k, n, out);
}

/// Rows [`matvec_into`] keeps in flight. One row is one serial `fmla`
/// chain, so the loop is bound by FMA latency, not throughput: on the
/// `[3696,32]x[32,1]` MLP output head 4 rows took 31 us, 8 take 24, 16 take
/// 26 (register spills), and an 8-lane strided variant was slower than 4.
const MATVEC_ROWS: usize = 8;

/// `out[r] = finish(out[r] + dot(a[r, :], b))` with the dot accumulated in
/// k-increasing order by one fmla chain per row, started at 0.0 or at
/// `seed[r]` — bitwise-equal to what the panel kernels compute for a
/// width-1 output.
fn matvec_into(
    a: &[f32],
    b: &[f32],
    k: usize,
    out: &mut [f32],
    seed: Option<&[f32]>,
    finish: impl Fn(f32) -> f32,
) {
    if k == 0 {
        for (r, ov) in out.iter_mut().enumerate() {
            *ov = finish(*ov + seed.map_or(0.0, |s| s[r]));
        }
        return;
    }
    let b = &b[..k];
    let arow = |r: usize| &a[r * k..(r + 1) * k];
    let start = |r: usize| seed.map_or(0.0, |s| s[r]);
    let mut r = 0;
    while r + MATVEC_ROWS <= out.len() {
        let rows: [&[f32]; MATVEC_ROWS] = core::array::from_fn(|i| arow(r + i));
        let mut s: [f32; MATVEC_ROWS] = core::array::from_fn(|i| start(r + i));
        for (kk, &bv) in b.iter().enumerate() {
            for (si, row) in s.iter_mut().zip(&rows) {
                *si = fmla(row[kk], bv, *si);
            }
        }
        for (ov, si) in out[r..r + MATVEC_ROWS].iter_mut().zip(s) {
            *ov = finish(*ov + si);
        }
        r += MATVEC_ROWS;
    }
    for (r, ov) in out.iter_mut().enumerate().skip(r) {
        let mut s = start(r);
        for (&av, &bv) in arow(r).iter().zip(b) {
            s = fmla(av, bv, s);
        }
        *ov = finish(*ov + s);
    }
}

/// Output size (floats) below which [`matmul_at_b`] streams samples through
/// a cache-resident output instead of register strips. A `k x n` weight
/// gradient is at most a few KB while the sample stream is MBs, so the
/// streaming path reads `a` and `b` exactly once.
const AT_B_STREAM_MAX_OUT: usize = 8192;
/// Minimum reduction length before the streaming path pays off (below it
/// the register-strip path re-reads nothing anyway).
const AT_B_STREAM_MIN_RED: usize = 256;

/// Whether [`matmul_at_b`] takes its sample-streaming regime for this shape
/// (each chain starts at the output element and is stored back) rather than
/// the register-strip one (each chain starts at 0.0 and is added once).
fn at_b_streams(m: usize, k: usize, n: usize) -> bool {
    k * n <= AT_B_STREAM_MAX_OUT && m >= AT_B_STREAM_MIN_RED
}

/// Accumulate `a[m,k]^T * b[m,n]` into `out[k,n]` (i.e. `out += a^T * b`).
/// Used for weight gradients: `dW = x^T * dy`.
///
/// Per element the sample index increases — the gradient-reduction order.
/// Two shape-dispatched regimes share that order: small outputs
/// (`k*n <= AT_B_STREAM_MAX_OUT` with a long reduction) stream samples once
/// through the cache-resident output, fused-multiply-adding each sample's
/// outer-product contribution directly into `out` in sample order; large
/// outputs use the register-strip GEMM (per-element register accumulation
/// in sample order, added to `out` once). The dispatch depends only on the
/// shape.
pub fn matmul_at_b(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    at_b_into(a, b, m, k, n, at_b_streams(m, k, n), out);
}

/// [`matmul_at_b`] into `k` consecutive rows `out` of a taller
/// `[k_full, n]` gradient (a row range of a stored weight): the regime is
/// chosen by the full shape, so each element runs the chain a product over
/// all `k_full` rows would run for it.
pub fn matmul_at_b_rows(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    k_full: usize,
    out: &mut [f32],
) {
    at_b_into(a, b, m, k, n, at_b_streams(m, k_full, n), out);
}

#[allow(clippy::too_many_arguments)]
fn at_b_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, stream: bool, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_at_b: lhs size");
    assert_eq!(b.len(), m * n, "matmul_at_b: rhs size");
    assert_eq!(out.len(), k * n, "matmul_at_b: out size");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    count_call(m * k * n);
    if stream {
        at_b_stream(a, b, m, k, n, out);
        return;
    }
    // lhs is a^T: element (out_row, sample) lives at a[sample*k + out_row].
    gemm_into(a, 1, k, b, false, m, n, out);
}

/// Samples chained through registers per streaming step; each output
/// element receives one chained fused-multiply-add per sample, so the
/// arithmetic sequence is identical to updating it sample-by-sample.
const AT_B_CHAIN: usize = 8;

/// Sample-streaming `out += a^T b` for cache-resident outputs: reads `a`
/// and `b` exactly once, accumulating each sample's outer-product
/// contribution into `out` via register-chained FMAs ([`AT_B_CHAIN`]
/// samples per load/store round trip). Per element this applies exactly
/// `out = fmla(a_s, b_s, out)` for `s = 0, 1, ..., m-1` — the same fixed
/// sample order as the register-strip path, independent of chain length
/// and column grouping.
fn at_b_stream(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    let mut s = 0;
    while s + AT_B_CHAIN <= m {
        let arows: [&[f32]; AT_B_CHAIN] =
            core::array::from_fn(|i| &a[(s + i) * k..(s + i + 1) * k]);
        let mut c0 = 0;
        // Full 8-wide column groups: vector FMA chains.
        while c0 + LANES <= n {
            let bg: [[f32; LANES]; AT_B_CHAIN] = core::array::from_fn(|i| {
                let mut v = [0.0f32; LANES];
                v.copy_from_slice(&b[(s + i) * n + c0..(s + i) * n + c0 + LANES]);
                v
            });
            for r in 0..k {
                let o = &mut out[r * n + c0..r * n + c0 + LANES];
                let mut v = [0.0f32; LANES];
                v.copy_from_slice(o);
                for (arow, bgi) in arows.iter().zip(&bg) {
                    let aik = arow[r];
                    for l in 0..LANES {
                        v[l] = fmla(aik, bgi[l], v[l]);
                    }
                }
                o.copy_from_slice(&v);
            }
            c0 += LANES;
        }
        // Tail columns: scalar FMA chains.
        for c in c0..n {
            let bt: [f32; AT_B_CHAIN] = core::array::from_fn(|i| b[(s + i) * n + c]);
            for r in 0..k {
                let mut o = out[r * n + c];
                for (arow, &bv) in arows.iter().zip(&bt) {
                    o = fmla(arow[r], bv, o);
                }
                out[r * n + c] = o;
            }
        }
        s += AT_B_CHAIN;
    }
    // Leftover samples (m % AT_B_CHAIN), one at a time in sample order.
    while s < m {
        let arow = &a[s * k..(s + 1) * k];
        let brow = &b[s * n..(s + 1) * n];
        for (r, &aik) in arow.iter().enumerate() {
            for (o, &bv) in out[r * n..(r + 1) * n].iter_mut().zip(brow) {
                *o = fmla(aik, bv, *o);
            }
        }
        s += 1;
    }
}

/// Accumulate `out[m,k] += a[m,n] * b[k,n]^T` (i.e. `out += a * b^T`, where
/// `a` is `[m,n]` and `b` is `[k,n]`, both row-major). Used for input
/// gradients: `dx = dy * W^T`. `b` is transposed once during panel packing,
/// so the inner loop is stride-1 (this variant used to be the ~2x outlier).
/// Per element the index `j` into the shared dim `n` increases.
pub fn matmul_a_bt(a: &[f32], b: &[f32], m: usize, n: usize, k: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * n, "matmul_a_bt: lhs size");
    assert_eq!(b.len(), k * n, "matmul_a_bt: rhs size");
    assert_eq!(out.len(), m * k, "matmul_a_bt: out size");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    count_call(m * n * k);
    gemm_into(a, n, 1, b, true, n, k, out);
}

// ---------------------------------------------------------------------
// Fused affine map
// ---------------------------------------------------------------------

/// Activation applied last by the fused affine op ([`affine_into`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AffineAct {
    /// No activation.
    Identity,
    /// `max(x, 0)`.
    Relu,
    /// `x` if positive, else `alpha * x`.
    LeakyRelu(f32),
}

/// An [`AffineAct`] as a function; each closure type monomorphizes its own
/// select-based writeback loop.
trait Act: Fn(f32) -> f32 + Copy {}
impl<F: Fn(f32) -> f32 + Copy> Act for F {}

/// Fused affine map `out = act((init | 0) ⊕ x[m,k] * w[k,n] + bias)`.
/// `out` is fully overwritten.
///
/// Each element is one k-increasing `fmla` chain whose accumulator starts
/// at 0.0, or at `init`'s element when there is a seed; the writeback is
/// `act((0.0 + chain) + bias[j])`, from registers. Without a seed that is
/// bitwise the unfused `matmul` → `+ bias` → activation chain (`matmul`
/// adds each chain to a zeroed output). With one, `init ⊕ x * w` is the
/// chain of the *concatenated* product `[x0 | x] * [w0; w]` whenever
/// `init = x0 * w0`: `matmul` leaves `0.0 + chain(x0 * w0)` in `init`, the
/// seeded accumulator carries on from exactly that value over the
/// remaining rows, and the two can differ only in the sign of an all-zero
/// prefix, which the final `0.0 +` erases. (Adding `init` after the product
/// instead would round twice.) This is what lets a layer's
/// traffic-independent input columns be multiplied once per epoch and only
/// the rest per request. No bias is a bias of `+0.0`: `0.0 + chain` is never
/// `-0.0`, so adding it changes no bit.
#[allow(clippy::too_many_arguments)]
pub fn affine_into(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    init: Option<&[f32]>,
    act: AffineAct,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    assert_eq!(x.len(), m * k, "affine: lhs size");
    assert_eq!(w.len(), k * n, "affine: rhs size");
    assert_eq!(out.len(), m * n, "affine: out size");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), n, "affine: bias size");
    }
    if let Some(init) = init {
        assert_eq!(init.len(), m * n, "affine: init size");
    }
    if m == 0 || n == 0 {
        return;
    }
    count_call(m * k * n);
    if harp_obs::enabled() {
        CALLS_FUSED.add(1);
    }
    match act {
        AffineAct::Identity => affine_act(x, w, bias, init, |v| v, k, n, out),
        AffineAct::Relu => affine_act(x, w, bias, init, |v: f32| v.max(0.0), k, n, out),
        AffineAct::LeakyRelu(al) => {
            let leaky = move |v| if v > 0.0 { v } else { al * v };
            affine_act(x, w, bias, init, leaky, k, n, out)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn affine_act<A: Act>(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    init: Option<&[f32]>,
    act: A,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    if n == 1 {
        // One chain per row: the matrix-vector kernel, as for `matmul`.
        let b0 = bias.map_or(0.0, |b| b[0]);
        out.fill(0.0);
        matvec_into(x, w, k, out, init, |v| act(v + b0));
        return;
    }
    let mut scratch = PACK_SCRATCH.with(RefCell::take);
    pack_rhs(w, k, n, false, &mut scratch);
    let mut off = 0;
    let mut c0 = 0;
    while c0 < n {
        let w = (n - c0).min(MAX_PANEL);
        let wp = pad_lanes(w);
        let panel = &scratch[off..off + k * wp];
        let bias = bias.map(|b| &b[c0..c0 + w]);
        match wp / LANES {
            1 => affine_panel::<1, 4, A>(x, k, panel, bias, init, act, out, n, c0, w),
            2 => affine_panel::<2, 4, A>(x, k, panel, bias, init, act, out, n, c0, w),
            3 => affine_panel::<3, 2, A>(x, k, panel, bias, init, act, out, n, c0, w),
            4 => affine_panel::<4, 2, A>(x, k, panel, bias, init, act, out, n, c0, w),
            5 => affine_panel::<5, 2, A>(x, k, panel, bias, init, act, out, n, c0, w),
            _ => affine_panel::<6, 2, A>(x, k, panel, bias, init, act, out, n, c0, w),
        }
        off += k * wp;
        c0 += w;
    }
    let _ = PACK_SCRATCH.with(|c| c.replace(scratch));
}

/// One packed panel (output columns `c0..c0 + w`) of [`affine_into`] over a
/// block of rows, `MR` rows at a time and then singly. `x`, `init` and
/// `block` hold the same rows.
#[allow(clippy::too_many_arguments)]
fn affine_panel<const NG: usize, const MR: usize, A: Act>(
    x: &[f32],
    k: usize,
    panel: &[f32],
    bias: Option<&[f32]>,
    init: Option<&[f32]>,
    act: A,
    block: &mut [f32],
    cols: usize,
    c0: usize,
    w: usize,
) {
    // lane-padded bias: the writeback adds whole groups
    let mut bias_lanes = [[0.0f32; LANES]; NG];
    if let Some(bias) = bias {
        bias_lanes.as_flattened_mut()[..w].copy_from_slice(bias);
    }
    let rows = block.len() / cols;
    let strip = |r: usize, mr: usize| {
        let init = init.map(|s| &s[r * cols..(r + mr) * cols]);
        (&x[r * k..(r + mr) * k], init)
    };
    let mut r = 0;
    while r + MR <= rows {
        let (x, init) = strip(r, MR);
        let out = &mut block[r * cols..(r + MR) * cols];
        affine_micro::<NG, MR, A>(x, k, panel, &bias_lanes, init, act, out, cols, c0, w);
        r += MR;
    }
    while r < rows {
        let (x, init) = strip(r, 1);
        let out = &mut block[r * cols..(r + 1) * cols];
        affine_micro::<NG, 1, A>(x, k, panel, &bias_lanes, init, act, out, cols, c0, w);
        r += 1;
    }
}

/// The affine microkernel: `MR` rows (`x: [MR, k]`, `init`/`out`:
/// `[MR, cols]`) by `NG` lane groups. The accumulators start at the seed
/// (loaded into the lanes, not added after) or at 0.0, run the same
/// k-increasing `fmla` chain per element as [`micro`], and are written back
/// through the epilogue from registers.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn affine_micro<const NG: usize, const MR: usize, A: Act>(
    x: &[f32],
    k: usize,
    panel: &[f32],
    bias: &[[f32; LANES]; NG],
    init: Option<&[f32]>,
    act: A,
    out: &mut [f32],
    cols: usize,
    c0: usize,
    w: usize,
) {
    // Group loops run to the constant `NG` with the ragged last group
    // (`w` not a multiple of LANES) as a branch inside, so they unroll and
    // the accumulators stay in registers.
    let mut acc = [[[0.0f32; LANES]; NG]; MR];
    if let Some(init) = init {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let row = &init[r * cols + c0..r * cols + c0 + w];
            for (g, lanes) in acc_row.iter_mut().enumerate() {
                let lo = g * LANES;
                if lo + LANES <= w {
                    lanes.copy_from_slice(&row[lo..lo + LANES]);
                } else {
                    lanes[..w - lo].copy_from_slice(&row[lo..]);
                }
            }
        }
    }
    let panel = &panel[..k * (NG * LANES)];
    let xrows: [&[f32]; MR] = core::array::from_fn(|r| &x[r * k..(r + 1) * k]);
    for (kk, wrow) in panel.chunks_exact(NG * LANES).enumerate() {
        for (r, xrow) in xrows.iter().enumerate() {
            let xv = xrow[kk];
            for g in 0..NG {
                for l in 0..LANES {
                    acc[r][g][l] = fmla(xv, wrow[g * LANES + l], acc[r][g][l]);
                }
            }
        }
    }
    let finish = |o: &mut [f32], lanes: &[f32; LANES], b: &[f32; LANES]| {
        for ((ov, &v), &bj) in o.iter_mut().zip(lanes).zip(b) {
            *ov = act((0.0 + v) + bj);
        }
    };
    for (r, acc_row) in acc.iter().enumerate() {
        let row = &mut out[r * cols + c0..r * cols + c0 + w];
        for (g, (lanes, b)) in acc_row.iter().zip(bias).enumerate() {
            let lo = g * LANES;
            if lo + LANES <= w {
                finish(&mut row[lo..lo + LANES], lanes, b);
            } else {
                finish(&mut row[lo..], lanes, b);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fused scaled-dot-product attention
// ---------------------------------------------------------------------
//
// The attention core as direct loops over each sequence instead of the
// five-op tape chain `transpose_last2 -> batch_matmul -> mul_scalar ->
// softmax_last_dim -> batch_matmul`, whose per-sequence products (~5x8x5)
// are far too small to amortise a packed GEMM call and whose every stage
// wrote a fresh tensor.
// Each float below is produced by the same operations in the same order as
// in that chain, so values and gradients are bitwise-equal to it:
//
// * every product element is one `fmla` chain over the reduction index in
//   increasing order, started at 0.0 and then added to its destination
//   (what [`micro`] does), except where [`matmul_at_b`] would stream
//   ([`at_b_streams`]), which is mirrored;
// * an intermediate the chain held in a fresh zeroed buffer is `0.0 + x`
//   here (it differs from `x` only for `x == -0.0`).

/// [`LANES`] independent `fmla` chains, one per lane `l`: fold
/// `x(r) * rows[r * stride + l]` into `acc[l]` for `r = 0..red`, `r`
/// increasing.
#[inline(always)]
fn lane_chains(
    red: usize,
    stride: usize,
    x: impl Fn(usize) -> f32,
    rows: &[f32],
    mut acc: [f32; LANES],
) -> [f32; LANES] {
    for r in 0..red {
        let xr = x(r);
        let row = &rows[r * stride..r * stride + LANES];
        for l in 0..LANES {
            acc[l] = fmla(xr, row[l], acc[l]);
        }
    }
    acc
}

/// `w` independent `fmla` chains, one per column `c`: fold
/// `x(r) * rows[r * stride + c]` for `r = 0..red`, `r` increasing.
/// `from_out == false` starts each chain at 0.0 and adds the result to
/// `out[c]` (the GEMM microkernel's order); `true` starts it at `out[c]`
/// and stores it back (the streaming `at_b` order).
#[inline(always)]
fn col_chains(
    red: usize,
    w: usize,
    stride: usize,
    x: impl Fn(usize) -> f32,
    rows: &[f32],
    from_out: bool,
    out: &mut [f32],
) {
    let mut c0 = 0;
    while c0 + LANES <= w {
        let o = &mut out[c0..c0 + LANES];
        let mut acc = [0.0f32; LANES];
        if from_out {
            acc.copy_from_slice(o);
        }
        let acc = lane_chains(red, stride, &x, &rows[c0..], acc);
        if from_out {
            o.copy_from_slice(&acc);
        } else {
            for (ov, &a) in o.iter_mut().zip(&acc) {
                *ov += a;
            }
        }
        c0 += LANES;
    }
    for c in c0..w {
        let mut acc = if from_out { out[c] } else { 0.0 };
        for r in 0..red {
            acc = fmla(x(r), rows[r * stride + c], acc);
        }
        if from_out {
            out[c] = acc;
        } else {
            out[c] += acc;
        }
    }
}

/// Write the transpose of one `[s, hd]` sequence into `dst` as `[hd, sp]`
/// rows (`sp >= s`; columns past `s` are left as they are — zero).
fn transpose_seq(src: &[f32], s: usize, hd: usize, sp: usize, dst: &mut [f32]) {
    for (j, row) in src.chunks_exact(hd).take(s).enumerate() {
        for (d, &x) in row.iter().enumerate() {
            dst[d * sp + j] = x;
        }
    }
}

/// Attention forward over `b` sequences of `s` positions and width `hd`:
/// `att = softmax(q kᵀ · scale)` (row-wise, `mask` as in
/// [`softmax_rows`]: length `s` shared by every row, or `b * s * s`) and
/// `out = att · v`. `att` is `[b, s, s]` and fully written; `out` is
/// `[b, s, hd]` and must be zero-filled.
#[allow(clippy::too_many_arguments)]
pub fn attention_forward(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    b: usize,
    s: usize,
    hd: usize,
    scale: f32,
    mask: Option<&[f32]>,
    att: &mut [f32],
    out: &mut [f32],
) {
    let n = b * s * hd;
    assert!(
        q.len() == n && k.len() == n && v.len() == n && out.len() == n,
        "attention: q/k/v/out size"
    );
    assert_eq!(att.len(), b * s * s, "attention: att size");
    if let Some(m) = mask {
        assert!(
            m.len() == s || m.len() == att.len(),
            "attention mask: length {} must be {} or {}",
            m.len(),
            s,
            att.len()
        );
    }
    count_call(2 * b * s * s * hd);
    // Three passes over the batch with `att` as the only intermediate: the
    // scores, the softmax of the whole `[b, s, s]` block (its `exp` pass is
    // one vector loop over every score), and the products with `v`.
    let sp = pad_lanes(s);
    let mut kt = PACK_SCRATCH.with(RefCell::take);
    kt.clear();
    kt.resize(hd * sp, 0.0);
    for t in 0..b {
        transpose_seq(&k[t * s * hd..(t + 1) * s * hd], s, hd, sp, &mut kt);
        for i in 0..s {
            let qi = &q[(t * s + i) * hd..(t * s + i + 1) * hd];
            let arow = &mut att[(t * s + i) * s..(t * s + i + 1) * s];
            for (j0, achunk) in arow.chunks_mut(LANES).enumerate() {
                let acc = lane_chains(hd, sp, |d| qi[d], &kt[j0 * LANES..], [0.0; LANES]);
                for (a, &c) in achunk.iter_mut().zip(&acc) {
                    *a = (0.0 + c) * scale;
                }
            }
        }
    }
    let _ = PACK_SCRATCH.with(|c| c.replace(kt));
    if s == 0 {
        return;
    }
    softmax_rows(att, s, mask);
    for t in 0..b {
        let vt = &v[t * s * hd..(t + 1) * s * hd];
        for i in 0..s {
            let arow = &att[(t * s + i) * s..(t * s + i + 1) * s];
            let oi = &mut out[(t * s + i) * hd..(t * s + i + 1) * hd];
            col_chains(s, hd, hd, |j| arow[j], vt, false, oi);
        }
    }
}

/// Attention backward, value gradient: `gv[t] += att[t]ᵀ · dy[t]`.
pub fn attention_backward_v(
    att: &[f32],
    dy: &[f32],
    b: usize,
    s: usize,
    hd: usize,
    gv: &mut [f32],
) {
    assert_eq!(att.len(), b * s * s, "attention backward: att size");
    assert!(
        dy.len() == b * s * hd && gv.len() == dy.len(),
        "attention backward: dy/gv size"
    );
    count_call(b * s * s * hd);
    let stream = at_b_streams(s, s, hd);
    for t in 0..b {
        let a = &att[t * s * s..(t + 1) * s * s];
        let dyt = &dy[t * s * hd..(t + 1) * s * hd];
        for j in 0..s {
            let g = &mut gv[(t * s + j) * hd..(t * s + j + 1) * hd];
            col_chains(s, hd, hd, |i| a[i * s + j], dyt, stream, g);
        }
    }
}

/// Attention backward, score gradient: write into `ds` (`[b, s, s]`,
/// zero-filled by the caller) the gradient of the unscaled scores `q kᵀ`:
/// `d_att = dy · vᵀ`, through the softmax rows ([`softmax_backward_row`]),
/// times `scale`.
#[allow(clippy::too_many_arguments)]
pub fn attention_backward_scores(
    att: &[f32],
    dy: &[f32],
    v: &[f32],
    b: usize,
    s: usize,
    hd: usize,
    scale: f32,
    ds: &mut [f32],
) {
    assert!(
        att.len() == b * s * s && ds.len() == att.len(),
        "attention backward: att/ds size"
    );
    assert!(
        dy.len() == b * s * hd && v.len() == dy.len(),
        "attention backward: dy/v size"
    );
    count_call(b * s * s * hd);
    let sp = pad_lanes(s);
    let mut scratch = PACK_SCRATCH.with(RefCell::take);
    scratch.clear();
    scratch.resize(hd * sp + sp, 0.0);
    let (vt, d_att) = scratch.split_at_mut(hd * sp);
    for t in 0..b {
        transpose_seq(&v[t * s * hd..(t + 1) * s * hd], s, hd, sp, vt);
        for i in 0..s {
            let dyi = &dy[(t * s + i) * hd..(t * s + i + 1) * hd];
            d_att.fill(0.0);
            col_chains(hd, sp, sp, |c| dyi[c], vt, false, d_att);
            let r0 = (t * s + i) * s;
            let dsi = &mut ds[r0..r0 + s];
            softmax_backward_row(&att[r0..r0 + s], &d_att[..s], dsi);
            for x in dsi.iter_mut() {
                *x = 0.0 + *x * scale;
            }
        }
    }
    let _ = PACK_SCRATCH.with(|c| c.replace(scratch));
}

/// Attention backward, query gradient from the score gradient `ds` of
/// [`attention_backward_scores`]: `gq[t] += ds[t] · k[t]`.
pub fn attention_backward_q(ds: &[f32], k: &[f32], b: usize, s: usize, hd: usize, gq: &mut [f32]) {
    assert_eq!(ds.len(), b * s * s, "attention backward: ds size");
    assert!(
        k.len() == b * s * hd && gq.len() == k.len(),
        "attention backward: k/gq size"
    );
    count_call(b * s * s * hd);
    for t in 0..b {
        let kt = &k[t * s * hd..(t + 1) * s * hd];
        for i in 0..s {
            let dsi = &ds[(t * s + i) * s..(t * s + i + 1) * s];
            let g = &mut gq[(t * s + i) * hd..(t * s + i + 1) * hd];
            col_chains(s, hd, hd, |j| dsi[j], kt, false, g);
        }
    }
}

/// Attention backward, key gradient: `gk[t] += ds[t]ᵀ · q[t]`. Each row
/// goes through a zeroed temporary first, as it does in the unfused chain
/// (`at_b` into the gradient of kᵀ, then transposed and added).
pub fn attention_backward_k(ds: &[f32], q: &[f32], b: usize, s: usize, hd: usize, gk: &mut [f32]) {
    assert_eq!(ds.len(), b * s * s, "attention backward: ds size");
    assert!(
        q.len() == b * s * hd && gk.len() == q.len(),
        "attention backward: q/gk size"
    );
    count_call(b * s * s * hd);
    let stream = at_b_streams(s, hd, s);
    let mut tmp = vec![0.0f32; hd];
    for t in 0..b {
        let d = &ds[t * s * s..(t + 1) * s * s];
        let qt = &q[t * s * hd..(t + 1) * s * hd];
        for j in 0..s {
            tmp.fill(0.0);
            col_chains(s, hd, hd, |i| d[i * s + j], qt, stream, &mut tmp);
            let g = &mut gk[(t * s + j) * hd..(t * s + j + 1) * hd];
            for (o, &c) in g.iter_mut().zip(&tmp) {
                *o += c;
            }
        }
    }
}

/// Transpose a `[m, n]` matrix into `[n, m]`.
pub fn transpose(a: &[f32], m: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * n, "transpose: size");
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = a[i * n + j];
        }
    }
    out
}

/// Numerically-stable softmax of every `w`-wide row of `x`, in place.
/// `mask`, if given, holds `w` entries shared by every row or one per
/// element of `x`; an entry equal to `0.0` excludes its position
/// (probability exactly 0), and a row with nothing left becomes all zeros.
///
/// Three passes over the whole block: subtract each row's max (an excluded
/// position becomes `-inf`), one [`expf_inplace`] over every element, then
/// each row's sum and divide in element order. That is the arithmetic and
/// the summation order of a softmax taken one row at a time, so the bits
/// are the same; the `exp` pass runs as one vector loop instead of a call
/// per element between the other two.
pub fn softmax_rows(x: &mut [f32], w: usize, mask: Option<&[f32]>) {
    if x.is_empty() {
        return;
    }
    assert!(
        w > 0 && x.len().is_multiple_of(w),
        "softmax: {} elements in rows of {w}",
        x.len()
    );
    if let Some(m) = mask {
        assert!(
            m.len() == w || m.len() == x.len(),
            "softmax mask: length {} must be {} or {}",
            m.len(),
            w,
            x.len()
        );
    }
    for (r, row) in x.chunks_exact_mut(w).enumerate() {
        match mask {
            None => {
                let mx = row_max(row);
                row.iter_mut().for_each(|v| *v -= mx);
            }
            Some(m) => {
                let m = if m.len() == w {
                    m
                } else {
                    &m[r * w..(r + 1) * w]
                };
                let mut mx = f32::NEG_INFINITY;
                for (v, k) in row.iter().zip(m) {
                    if *k != 0.0 && *v > mx {
                        mx = *v;
                    }
                }
                for (v, k) in row.iter_mut().zip(m) {
                    *v = if *k != 0.0 && mx != f32::NEG_INFINITY {
                        *v - mx
                    } else {
                        f32::NEG_INFINITY
                    };
                }
            }
        }
    }
    expf_inplace(x);
    for row in x.chunks_exact_mut(w) {
        let sum = row.iter().fold(0.0f32, |s, &v| s + v);
        if sum > 0.0 {
            row.iter_mut().for_each(|v| *v /= sum);
        }
    }
}

/// The largest element of `row`, ignoring NaN; `-inf` when there is none.
/// Taken `LANES` elements at a time, in no fixed order: the maximum is
/// unique up to the sign of a zero, and `x - 0.0` and `x + 0.0` have the
/// same `exp`, so the softmax does not depend on which zero is found.
fn row_max(row: &[f32]) -> f32 {
    let max = |m: f32, v: f32| if v > m { v } else { m };
    let mut lanes = [f32::NEG_INFINITY; LANES];
    let mut chunks = row.chunks_exact(LANES);
    for c in &mut chunks {
        for (m, &v) in lanes.iter_mut().zip(c) {
            *m = max(*m, v);
        }
    }
    chunks
        .remainder()
        .iter()
        .chain(&lanes)
        .fold(f32::NEG_INFINITY, |m, &v| max(m, v))
}

/// Backward of a softmax row: given the softmax output `y` and upstream
/// gradient `dy`, writes `dx[i] = y[i] * (dy[i] - sum_j y[j] dy[j])` into
/// `dx` (accumulating).
pub fn softmax_backward_row(y: &[f32], dy: &[f32], dx: &mut [f32]) {
    let dot: f32 = y.iter().zip(dy).map(|(a, b)| a * b).sum();
    for ((d, yv), dyv) in dx.iter_mut().zip(y).zip(dy) {
        *d += yv * (dyv - dot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matmul_basic() {
        // [[1,2],[3,4]] x [[5,6],[7,8]] = [[19,22],[43,50]]
        let c = matmul(&[1., 2., 3., 4.], &[5., 6., 7., 8.], 2, 2, 2);
        assert_eq!(c, vec![19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_rect() {
        // [1,3] x [3,2]
        let c = matmul(&[1., 2., 3.], &[1., 0., 0., 1., 1., 1.], 1, 3, 2);
        assert_eq!(c, vec![4., 5.]);
    }

    #[test]
    fn matmul_into_accumulates() {
        let mut out = vec![100.0f32, 200.0, 300.0, 400.0];
        matmul_into(&[1., 2., 3., 4.], &[5., 6., 7., 8.], 2, 2, 2, &mut out);
        assert_eq!(out, vec![119., 222., 343., 450.]);
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = [1., 2., 3., 4., 5., 6.]; // [3,2]
        let b = [1., 0., 2., 1., 0., 3.]; // [3,2]
        let mut out = vec![0.0; 4];
        matmul_at_b(&a, &b, 3, 2, 2, &mut out);
        let at = transpose(&a, 3, 2);
        let expect = matmul(&at, &b, 2, 3, 2);
        assert_eq!(out, expect);
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = [1., 2., 3., 4.]; // [2,2]
        let b = [5., 6., 7., 8., 9., 10.]; // [3,2]
        let mut out = vec![0.0; 6];
        matmul_a_bt(&a, &b, 2, 2, 3, &mut out);
        let bt = transpose(&b, 3, 2);
        let expect = matmul(&a, &bt, 2, 2, 3);
        assert_eq!(out, expect);
    }

    /// Pseudo-random but deterministic test matrix (no RNG dependency).
    fn test_matrix(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The sample-streaming `at_b` regime (long reduction, small output)
        /// agrees bitwise with the explicit-transpose matmul: on a
        /// zero-initialized output both regimes apply the identical
        /// fused-multiply-add chain per element.
        #[test]
        fn at_b_streaming_path_equals_transposed_matmul(
            m in 256usize..320,
            k in 1usize..12,
            n in 1usize..12,
            seed in 0u64..1000,
        ) {
            let a = test_matrix(m * k, seed);
            let b = test_matrix(m * n, seed.wrapping_add(1));
            let mut streamed = vec![0.0f32; k * n];
            matmul_at_b(&a, &b, m, k, n, &mut streamed);
            let at = transpose(&a, m, k);
            let reference = matmul(&at, &b, k, m, n);
            prop_assert_eq!(&streamed, &reference);
        }

        /// The affine kernel is bitwise-equal to the unfused composition
        /// for every activation — and, seeded with the product over the
        /// first `k0` rows, to the product over all.
        #[test]
        fn affine_bitwise_equal_composed(
            m in 1usize..40,
            k in 1usize..50,
            n in 1usize..52,
            seed in 0u64..1000,
        ) {
            let a = test_matrix(m * k, seed);
            let b = test_matrix(k * n, seed.wrapping_add(1));
            let bias = test_matrix(n, seed.wrapping_add(2));
            let k0 = seed as usize % k;
            // the first k0 columns of `a`, and the rest
            let cols = |lo: usize, hi: usize| -> Vec<f32> {
                a.chunks_exact(k).flat_map(|row| row[lo..hi].iter().copied()).collect()
            };
            let head = matmul(&cols(0, k0), &b[..k0 * n], m, k0, n);
            let tail = cols(k0, k);
            for act in [AffineAct::Identity, AffineAct::Relu, AffineAct::LeakyRelu(0.3)] {
                let mut composed = matmul(&a, &b, m, k, n);
                for r in 0..m {
                    for j in 0..n {
                        let x = composed[r * n + j] + bias[j];
                        composed[r * n + j] = match act {
                            AffineAct::Identity => x,
                            AffineAct::Relu => x.max(0.0),
                            AffineAct::LeakyRelu(al) => if x > 0.0 { x } else { al * x },
                        };
                    }
                }
                let mut fused = vec![0.0f32; m * n];
                affine_into(&a, &b, Some(&bias), None, act, m, k, n, &mut fused);
                prop_assert_eq!(&fused, &composed, "{:?}", act);
                let mut seeded = vec![0.0f32; m * n];
                affine_into(
                    &tail, &b[k0 * n..], Some(&bias), Some(&head), act, m, k - k0, n,
                    &mut seeded,
                );
                prop_assert_eq!(&seeded, &composed, "{:?} k0={}", act, k0);
            }
        }

        /// The blocked kernels agree with a straightforward transpose-based
        /// reference within floating-point tolerance.
        #[test]
        fn blocked_kernels_match_reference(
            m in 1usize..20,
            k in 1usize..30,
            n in 1usize..20,
            seed in 0u64..1000,
        ) {
            let a = test_matrix(m * k, seed);
            let b = test_matrix(k * n, seed.wrapping_add(9));
            let c = matmul(&a, &b, m, k, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f64;
                    for kk in 0..k {
                        acc += a[i * k + kk] as f64 * b[kk * n + j] as f64;
                    }
                    prop_assert!((c[i * n + j] as f64 - acc).abs() < 1e-3);
                }
            }
        }
    }

    #[test]
    fn degenerate_dims_are_safe() {
        assert!(matmul(&[], &[], 0, 3, 0).is_empty());
        assert_eq!(matmul(&[], &[], 2, 0, 2), vec![0.0; 4]);
        let mut out = vec![1.0; 4];
        matmul_at_b(&[], &[], 0, 2, 2, &mut out);
        assert_eq!(out, vec![1.0; 4]);
        matmul_a_bt(&[], &[], 2, 0, 2, &mut out);
        assert_eq!(out, vec![1.0; 4]);
        // affine with k == 0: the product is all zeros, the epilogue still
        // applies bias + activation to the seed (or to zero).
        let act = AffineAct::LeakyRelu(0.5);
        let mut fused = vec![0.0; 4];
        affine_into(&[], &[], Some(&[1.0, -2.0]), None, act, 2, 0, 2, &mut fused);
        assert_eq!(fused, vec![1.0, -1.0, 1.0, -1.0]);
        let mut seeded = vec![0.0; 4];
        let init = [1.0, 1.0, -3.0, 4.0];
        affine_into(
            &[],
            &[],
            Some(&[1.0, -2.0]),
            Some(&init),
            act,
            2,
            0,
            2,
            &mut seeded,
        );
        assert_eq!(seeded, vec![2.0, -0.5, -1.0, 2.0]);
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut x = vec![1.0, 2.0, 3.0];
        softmax_rows(&mut x, 3, None);
        let s: f32 = x.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(x[2] > x[1] && x[1] > x[0]);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let mut x = vec![1000.0, 1000.0];
        softmax_rows(&mut x, 2, None);
        assert!((x[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn masked_softmax_excludes() {
        let mut x = vec![5.0, 1.0, 1.0];
        softmax_rows(&mut x, 3, Some(&[0.0, 1.0, 1.0]));
        assert_eq!(x[0], 0.0);
        assert!((x[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn masked_softmax_all_masked() {
        let mut x = vec![5.0, 1.0];
        softmax_rows(&mut x, 2, Some(&[0.0, 0.0]));
        assert_eq!(x, vec![0.0, 0.0]);
    }
}
