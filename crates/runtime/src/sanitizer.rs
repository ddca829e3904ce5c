//! Shadow-access determinism sanitizer (compiled only with the
//! `sanitizer` cargo feature).
//!
//! The runtime's determinism contract rests on one mechanical fact:
//! partitions are disjoint, contiguous, in order, and cover every item. It
//! is easy to break silently in a refactor (an off-by-one in the block
//! arithmetic) — the result is not a crash but an item run twice or not at
//! all, which only shows up as irreproducible training runs.
//!
//! With the feature enabled, every parallel section runs this shadow check
//! on the calling thread, before any worker is spawned:
//!
//! * **Partition audit** (interval-overlap style): the block list must be
//!   non-empty-per-block, in order, pairwise disjoint, and must cover
//!   `0..n` without gaps ([`ViolationKind::PartitionOverlap`],
//!   [`ViolationKind::PartitionGap`]).
//!
//! A violation is a structured [`Violation`] naming the section and the
//! offending blocks. Outside of [`capture`], raising one panics —
//! the sanitizer is meant to run under the existing property tests and
//! chaos tests, where a silent determinism break must fail loudly.
//! Inside [`capture`], violations are collected and returned instead, so
//! tests can assert on their structure.
//!
//! Checks never alter execution: the seeding hook ([`seed`]) corrupts
//! only the *shadow* copy the checker sees, proving the checker fires
//! while the real work stays correct. Set `HARP_SANITIZER=off` to disable
//! the checks at runtime without recompiling (capture-mode checks stay
//! on, since a test asking for violations always wants them).

use std::cell::RefCell;
use std::ops::Range;
use std::sync::OnceLock;

use harp_obs::{Counter, FieldValue};

/// Violations raised (both panicking and captured).
static SANITIZER_VIOLATIONS: Counter = Counter::new("runtime.sanitizer_violations");

/// What went wrong, with the evidence attached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two blocks of one partition overlap: workers `a` and `b` would both
    /// own items in `overlap`.
    PartitionOverlap {
        /// Block index of the first overlapping worker.
        a: usize,
        /// Block index of the second overlapping worker.
        b: usize,
        /// The contested item range.
        overlap: Range<usize>,
    },
    /// The partition skips items or runs past the end: no worker (or a
    /// phantom worker) owns `gap`.
    PartitionGap {
        /// The uncovered (or over-covered) item range.
        gap: Range<usize>,
    },
}

/// One structured sanitizer finding: which runtime section, what kind,
/// and a rendered message naming the offending blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Runtime entry point the check ran under (`"par_map"`,
    /// `"try_par_chunks"`).
    pub section: &'static str,
    /// Structured evidence.
    pub kind: ViolationKind,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sanitizer[{}]: ", self.section)?;
        match &self.kind {
            ViolationKind::PartitionOverlap { a, b, overlap } => write!(
                f,
                "blocks {a} and {b} overlap on items {}..{}",
                overlap.start, overlap.end
            ),
            ViolationKind::PartitionGap { gap } => {
                write!(f, "items {}..{} belong to no block", gap.start, gap.end)
            }
        }
    }
}

/// Deliberate corruption applied to the *shadow* state of the next
/// matching check on this thread (one-shot). Execution is never altered:
/// these exist so tests can prove the sanitizer fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Seed {
    /// Make the next partition audit see block 0 extended one item into
    /// block 1.
    OverlapPartitions,
}

thread_local! {
    static CAPTURED: RefCell<Option<Vec<Violation>>> = const { RefCell::new(None) };
    static SEEDED: RefCell<Option<Seed>> = const { RefCell::new(None) };
}

/// Arm a one-shot shadow corruption for the next matching check on this
/// thread (see [`Seed`]). Test-only by intent.
pub fn seed(s: Seed) {
    SEEDED.with(|c| *c.borrow_mut() = Some(s));
}

fn take_seed(want: Seed) -> bool {
    SEEDED.with(|c| {
        let mut cur = c.borrow_mut();
        if *cur == Some(want) {
            *cur = None;
            true
        } else {
            false
        }
    })
}

/// Run `f` with violations collected instead of panicking; returns `f`'s
/// result plus every violation raised on this thread during the call.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Violation>) {
    CAPTURED.with(|c| {
        let prev = c.borrow_mut().replace(Vec::new());
        assert!(prev.is_none(), "sanitizer::capture: nested capture");
    });
    let r = f();
    let got = CAPTURED.with(|c| c.borrow_mut().take()).unwrap_or_default();
    (r, got)
}

fn capturing() -> bool {
    CAPTURED.with(|c| c.borrow().is_some())
}

/// Runtime kill switch: `HARP_SANITIZER=off` (or `0`) disables the checks
/// without recompiling. Read once per process.
fn env_on() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| {
        !matches!(
            std::env::var("HARP_SANITIZER").as_deref(),
            Ok("off") | Ok("0")
        )
    })
}

fn active() -> bool {
    capturing() || env_on()
}

fn raise(v: Violation) {
    SANITIZER_VIOLATIONS.add(1);
    let done = CAPTURED.with(|c| {
        if let Some(buf) = c.borrow_mut().as_mut() {
            buf.push(v.clone());
            true
        } else {
            false
        }
    });
    if !done {
        harp_obs::warn_always(
            "runtime.sanitizer_violation",
            &[("violation", FieldValue::Str(v.to_string()))],
        );
        // The sanitizer's contract: an uncaptured determinism violation
        // must abort the test/drill that exposed it.
        // lint: allow(panic) — see above
        panic!("{v}");
    }
}

/// Audit a partition of `n` items: blocks must be in order, pairwise
/// disjoint, non-empty, and cover exactly `0..n`. Checks a shadow copy
/// (possibly corrupted by [`Seed::OverlapPartitions`]); never alters the
/// real block list.
pub(crate) fn audit_blocks(section: &'static str, blocks: &[(usize, usize)], n: usize) {
    if !active() {
        return;
    }
    let mut shadow: Vec<(usize, usize)> = blocks.to_vec();
    if shadow.len() >= 2 && take_seed(Seed::OverlapPartitions) {
        shadow[0].1 += 1; // reach one item into block 1
    }
    let mut next = 0usize;
    for (i, &(lo, hi)) in shadow.iter().enumerate() {
        if lo < next {
            raise(Violation {
                section,
                kind: ViolationKind::PartitionOverlap {
                    a: i.saturating_sub(1),
                    b: i,
                    overlap: lo..next.min(hi.max(lo)),
                },
            });
        } else if lo > next {
            raise(Violation {
                section,
                kind: ViolationKind::PartitionGap { gap: next..lo },
            });
        }
        if hi <= lo {
            raise(Violation {
                section,
                kind: ViolationKind::PartitionGap { gap: lo..lo },
            });
        }
        next = next.max(hi);
    }
    if next != n {
        let gap = if next < n { next..n } else { n..next };
        raise(Violation {
            section,
            kind: ViolationKind::PartitionGap { gap },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_partition_raises_nothing() {
        let ((), got) = capture(|| audit_blocks("par_map", &[(0, 3), (3, 6), (6, 7)], 7));
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn overlap_gap_and_short_cover_are_flagged() {
        let ((), got) = capture(|| {
            audit_blocks("par_map", &[(0, 4), (3, 6)], 6); // overlap at 3..4
            audit_blocks("par_map", &[(0, 2), (3, 6)], 6); // gap at 2..3
            audit_blocks("par_map", &[(0, 2), (2, 5)], 6); // 5..6 uncovered
        });
        assert_eq!(got.len(), 3, "{got:?}");
        assert!(matches!(
            &got[0].kind,
            ViolationKind::PartitionOverlap { a: 0, b: 1, overlap } if *overlap == (3..4)
        ));
        assert!(matches!(&got[1].kind, ViolationKind::PartitionGap { gap } if *gap == (2..3)));
        assert!(matches!(&got[2].kind, ViolationKind::PartitionGap { gap } if *gap == (5..6)));
    }

    #[test]
    fn seeds_are_one_shot() {
        seed(Seed::OverlapPartitions);
        let ((), got) = capture(|| {
            audit_blocks("try_par_chunks", &[(0, 2), (2, 4)], 4);
            audit_blocks("try_par_chunks", &[(0, 2), (2, 4)], 4);
        });
        assert_eq!(got.len(), 1, "seed must corrupt exactly one audit");
    }

    #[test]
    fn violations_render_with_section_and_blocks() {
        let v = Violation {
            section: "try_par_chunks",
            kind: ViolationKind::PartitionOverlap {
                a: 2,
                b: 3,
                overlap: 10..12,
            },
        };
        let s = v.to_string();
        assert!(s.contains("try_par_chunks"), "{s}");
        assert!(s.contains("blocks 2 and 3"), "{s}");
    }
}
