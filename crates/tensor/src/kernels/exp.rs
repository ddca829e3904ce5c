//! Single-precision `exp` computed exactly as glibc 2.36 computes it.
//!
//! The algorithm, its table and its constants are glibc's
//! `sysdeps/ieee754/flt-32/e_expf.c` (from Arm's optimized-routines):
//! `x·32/ln 2 = k + r` with `k` an integer and `|r| ≤ 1/2`, then
//! `exp(x) = 2^(k/32) · 2^(r/32)`, the first factor read from a 32-entry
//! table of `2^(i/32)` with `k/32`'s integer part added to its exponent
//! field, the second a degree-3 polynomial in `r`. All of it runs in `f64`
//! and rounds to `f32` once at the end.
//!
//! glibc builds that source twice on x86-64 and picks one at load time:
//! `__expf_fma` when the CPU has FMA and AVX2, `__expf_sse2` otherwise.
//! The compiler contracts the FMA variant's products into fused
//! multiply-adds, including the reduction `r = x·InvLn2N − kd`; a separately
//! rounded `r` gives a different result on exactly two of the 2^32 inputs
//! (the tests hold both). [`fma`] picks the same contraction per build
//! target the way the GEMM's `fmla` does, so a build for the host CPU
//! returns libm's `expf` bits for every input, and the bits no longer
//! depend on which libm the host has.
//!
//! [`expf_inplace`] is the entry the softmaxes use. Every lane runs the
//! same straight-line code, table read included, and the out-of-range
//! results (overflow, underflow, NaN) are selected per lane afterwards, so
//! the loop vectorizes and a lane past ±88 never costs the others a
//! branch.

/// `tab[i] = bits(2^(i/32)) − (i << 47)`: adding `k << 47` to entry
/// `k % 32` gives the bits of `2^(k/32)` for any integer `|k| < 150·32`.
const TAB: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
/// `0x1.8p52`: adding it rounds an `f64` of magnitude below 2^51 to an
/// integer held in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338000000000000);
/// `32 / ln 2` (`0x1.71547652b82fep+5`).
const INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);
/// The polynomial's coefficients, scaled for `r` in units of 1/32:
/// `0x1.c6af84b912394p-20`, `0x1.ebfce50fac4f3p-13`, `0x1.62e42ff0c52d6p-6`.
const C: [f64; 3] = [
    f64::from_bits(0x3ebc6af84b912394),
    f64::from_bits(0x3f2ebfce50fac4f3),
    f64::from_bits(0x3f962e42ff0c52d6),
];
/// Above `0x1.62e42ep6` (≈ ln 2^128) the result overflows to `+inf`.
const OVERFLOW: f32 = f32::from_bits(0x42b17217);
/// Below `-0x1.9fe368p6` (≈ ln 2^-150) the result underflows to `+0`.
const UNDERFLOW: f32 = f32::from_bits(0xc2cff1b4);
/// Below `-0x1.9d1d9ep6` (≈ ln 2^-149) glibc returns the smallest
/// subnormal through its errno-setting path instead of the polynomial.
const MAY_UNDERFLOW: f32 = f32::from_bits(0xc2ce8ecf);

/// `a·b + c`, fused when the build target has hardware FMA — the
/// contraction glibc's `__expf_fma` was compiled with — and two roundings
/// otherwise, as in `__expf_sse2`.
#[inline(always)]
fn fma(a: f64, b: f64, c: f64) -> f64 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// `e^x`, bitwise what glibc 2.36's `expf` returns on the same target.
#[inline(always)]
pub fn expf(x: f32) -> f32 {
    let xd = f64::from(x);
    let kd = fma(INV_LN2_N, xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = fma(INV_LN2_N, xd, -kd);
    // Out-of-range lanes compute garbage here (wrapping, never trapping)
    // and are replaced below.
    let s = f64::from_bits(TAB[(ki & 31) as usize].wrapping_add(ki << 47));
    let z = fma(C[0], r, C[1]);
    let r2 = r * r;
    let y = fma(C[2], r, 1.0);
    let y = (fma(z, r2, y) * s) as f32;
    let y = if x < MAY_UNDERFLOW {
        f32::from_bits(1)
    } else {
        y
    };
    let y = if x < UNDERFLOW { 0.0 } else { y };
    let y = if x > OVERFLOW { f32::INFINITY } else { y };
    if x.is_nan() {
        x + x
    } else {
        y
    }
}

/// `x[i] = e^x[i]` for every element, each bitwise [`expf`].
pub fn expf_inplace(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = expf(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// `(input, glibc 2.36 expf)` bit pairs on an FMA build.
    const CASES: [(u32, u32); 20] = [
        (0x00000000, 0x3f800000), // +0
        (0x80000000, 0x3f800000), // -0
        (0x00000001, 0x3f800000), // smallest subnormal input
        (0x3f800000, 0x402df854), // 1
        (0x7f800000, 0x7f800000), // +inf
        (0xff800000, 0x00000000), // -inf
        (0x42b17216, 0x7f7fff04), // below the overflow threshold
        (0x42b17217, 0x7f7fff84), // the overflow threshold: still finite
        (0x42b17218, 0x7f800000), // above it
        (0xc2cff1b3, 0x00000001), // above the underflow threshold
        (0xc2cff1b4, 0x00000001), // the underflow threshold
        (0xc2cff1b5, 0x00000000), // below it
        (0xc2ce8ece, 0x00000001), // around the errno-underflow threshold
        (0xc2ce8ecf, 0x00000001),
        (0xc2ce8ed0, 0x00000001),
        (0xc2b40000, 0x0008ec28), // -90: a subnormal result
        (0xc2c80000, 0x0000001b), // -100
        (0xc2af0000, 0x006cb2bc), // -87.5
        (0xc2aeac50, 0x007fffe6), // the largest subnormal result
        (0xc2aeac4f, 0x00800026), // the smallest normal one
    ];

    /// Inputs on which a separately rounded reduction `r` changes the
    /// result: `(input, fused, unfused)`.
    const WITNESSES: [(u32, u32, u32); 2] = [
        (0x4202422f, 0x56fc9f1c, 0x56fc9f1b),
        (0xc27c65d9, 0x11fa2993, 0x11fa2992),
    ];

    #[test]
    fn special_inputs_and_thresholds() {
        for (x, want) in CASES {
            let got = expf(f32::from_bits(x));
            assert_eq!(got.to_bits(), want, "expf({x:#010x})");
        }
        for x in [f32::NAN, -f32::NAN, f32::from_bits(0x7f800001)] {
            assert!(expf(x).is_nan(), "expf({:#010x})", x.to_bits());
        }
    }

    #[test]
    fn contraction_witnesses() {
        for (x, fused, unfused) in WITNESSES {
            let want = if cfg!(target_feature = "fma") {
                fused
            } else {
                unfused
            };
            assert_eq!(expf(f32::from_bits(x)).to_bits(), want, "expf({x:#010x})");
        }
    }

    #[test]
    fn slice_entry_blends_out_of_range_lanes() {
        let xs: Vec<f32> = CASES
            .iter()
            .map(|&(x, _)| f32::from_bits(x))
            .chain([f32::NAN, -1.5, 3.25, -200.0, 1e30])
            .collect();
        let mut got = xs.clone();
        expf_inplace(&mut got);
        for (x, g) in xs.iter().zip(&got) {
            assert!(same(*g, expf(*x)), "lane {x:e}: {g:e}");
        }
    }

    #[test]
    fn strided_bit_patterns_match_libm() {
        // An odd stride reaches every exponent and varied low mantissa
        // bits in ~16k inputs. Under miri `f32::exp` is the interpreter's
        // own approximation rather than libm's, so there only the two
        // entries are held to each other.
        let xs: Vec<f32> = (0..=u32::MAX)
            .step_by(0x40001)
            .map(f32::from_bits)
            .collect();
        let mut slice = xs.clone();
        expf_inplace(&mut slice);
        for (x, s) in xs.iter().zip(&slice) {
            let scalar = expf(*x);
            assert!(same(*s, scalar), "slice vs scalar at {:#010x}", x.to_bits());
            if !cfg!(miri) {
                assert!(same(scalar, x.exp()), "expf({:#010x})", x.to_bits());
            }
        }
    }
}
