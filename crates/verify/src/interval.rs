//! A tiny interval abstract domain over `f64`.
//!
//! Used to over-approximate the range every tape node can take at run time:
//! parameters are unbounded (training can move them anywhere), constants
//! carry their actual min/max, and each op has a sound transfer function.
//! A hazard lint fires only when the *over*-approximation proves trouble is
//! reachable (e.g. `ln` of an interval whose lower bound is ≤ 0), so guarded
//! idioms like `x.add_scalar(eps).ln()` stay quiet.

/// A closed interval `[lo, hi]` (bounds may be infinite). Always non-empty.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Lower bound (may be `-inf`).
    pub lo: f64,
    /// Upper bound (may be `+inf`).
    pub hi: f64,
}

impl Interval {
    /// The whole real line.
    pub fn unbounded() -> Self {
        Interval {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        }
    }

    /// A single point.
    pub fn point(x: f64) -> Self {
        Interval { lo: x, hi: x }
    }

    /// An explicit range; `lo <= hi` is the caller's responsibility.
    pub fn new(lo: f64, hi: f64) -> Self {
        Interval { lo, hi }
    }

    /// Tight bounds of a value buffer. Non-finite entries (already reported
    /// separately) widen to unbounded so downstream math stays sound.
    pub fn of_values(vals: &[f32]) -> Self {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &x in vals {
            if !x.is_finite() {
                return Interval::unbounded();
            }
            let x = x as f64;
            if x < lo {
                lo = x;
            }
            if x > hi {
                hi = x;
            }
        }
        if lo > hi {
            // empty buffer: treat as the point 0 (nothing to constrain)
            Interval::point(0.0)
        } else {
            Interval { lo, hi }
        }
    }

    /// True if `0 ∈ [lo, hi]`.
    pub fn contains_zero(&self) -> bool {
        self.lo <= 0.0 && self.hi >= 0.0
    }

    /// Smallest interval containing both.
    pub fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Scale by a known constant.
    pub fn scale(self, c: f64) -> Interval {
        self * Interval::point(c)
    }

    /// Shift by a known constant.
    pub fn shift(self, c: f64) -> Interval {
        Interval {
            lo: self.lo + c,
            hi: self.hi + c,
        }
    }

    /// Monotone `ln`, clamping the input to the domain (hazards are
    /// reported separately when the clamp actually cuts).
    pub fn ln(self) -> Interval {
        Interval {
            lo: if self.lo <= 0.0 {
                f64::NEG_INFINITY
            } else {
                self.lo.ln()
            },
            hi: if self.hi <= 0.0 {
                f64::NEG_INFINITY
            } else {
                self.hi.ln()
            },
        }
    }

    /// `max(x, 0)`.
    pub fn relu(self) -> Interval {
        Interval {
            lo: self.lo.max(0.0),
            hi: self.hi.max(0.0),
        }
    }

    /// Leaky ReLU with slope `alpha` on the negative side.
    pub fn leaky_relu(self, alpha: f64) -> Interval {
        let f = |x: f64| if x >= 0.0 { x } else { alpha * x };
        let (a, b) = (f(self.lo), f(self.hi));
        Interval {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// Tanh (monotone, range (-1, 1)).
    pub fn tanh(self) -> Interval {
        Interval {
            lo: self.lo.tanh(),
            hi: self.hi.tanh(),
        }
    }

    /// `1 / max(x, eps)` — the tape's guarded reciprocal.
    pub fn recip(self, eps: f64) -> Interval {
        let lo_in = self.lo.max(eps);
        let hi_in = self.hi.max(eps);
        Interval {
            lo: 1.0 / hi_in,
            hi: 1.0 / lo_in,
        }
    }

    /// Sum of up to `n` elements each drawn from `self` (with possibly
    /// fewer than `n` participating, so 0 is always included).
    pub fn sum_of(self, n: usize) -> Interval {
        let n = n as f64;
        Interval {
            lo: (self.lo * n).min(0.0).min(self.lo),
            hi: (self.hi * n).max(0.0).max(self.hi),
        }
    }
}

impl std::ops::Add for Interval {
    type Output = Interval;
    /// `[a+c, b+d]`.
    fn add(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo + o.lo,
            hi: self.hi + o.hi,
        }
    }
}

impl std::ops::Mul for Interval {
    type Output = Interval;
    /// Product: min/max over endpoint products, with `0 * inf` resolved to
    /// 0 (the factor really is 0, so the product is 0 whatever the other
    /// operand could be).
    fn mul(self, o: Interval) -> Interval {
        fn p(a: f64, b: f64) -> f64 {
            let x = a * b;
            if x.is_nan() {
                0.0
            } else {
                x
            }
        }
        let cands = [
            p(self.lo, o.lo),
            p(self.lo, o.hi),
            p(self.hi, o.lo),
            p(self.hi, o.hi),
        ];
        Interval {
            lo: cands.iter().cloned().fold(f64::INFINITY, f64::min),
            hi: cands.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_soundness() {
        let a = Interval::new(-1.0, 2.0);
        let b = Interval::new(3.0, 4.0);
        assert_eq!(a + b, Interval::new(2.0, 6.0));
        assert_eq!(a * b, Interval::new(-4.0, 8.0));
        assert!(a.contains_zero());
        assert!(!b.contains_zero());
    }

    #[test]
    fn zero_times_unbounded_is_zero() {
        let z = Interval::point(0.0);
        let u = Interval::unbounded();
        assert_eq!(z * u, Interval::point(0.0));
    }

    #[test]
    fn guarded_recip_is_bounded() {
        let x = Interval::new(-5.0, 10.0);
        let r = x.recip(1e-6);
        assert!(r.lo > 0.0 && r.hi <= 1.0 / 1e-6 + 1.0);
    }

    #[test]
    fn activations_stay_in_range() {
        let u = Interval::unbounded();
        let t = u.tanh();
        assert!(t.lo >= -1.0 && t.hi <= 1.0);
        let r = u.relu();
        assert_eq!(r.lo, 0.0);
    }
}
