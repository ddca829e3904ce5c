//! # harp-verify
//!
//! Static analysis for `harp_tensor` tapes: catch silent-training-failure
//! bugs *before* a backward pass, instead of after a week of flat loss
//! curves.
//!
//! The analyzer consumes the read-only introspection API of
//! [`harp_tensor::Tape`] ([`Tape::nodes`](harp_tensor::Tape::nodes)) and
//! runs, in O(nodes + edges):
//!
//! * **Shape re-inference** — every node's output shape is re-derived from
//!   its inputs using an independent implementation of the op semantics and
//!   compared against what the tape recorded (`shape-mismatch`,
//!   `invalid-op`).
//! * **Gradient reachability** — every parameter injected on the tape must
//!   be reachable backward from the loss; an unreachable one trains at
//!   gradient zero forever (`unreachable-param`).
//! * **Dead-subgraph detection** — recorded nodes that contribute nothing
//!   to the loss (`dead-subgraph`).
//! * **Non-finite constants** — leaves containing NaN/±inf
//!   (`non-finite-constant`), and non-leaf values that went non-finite in
//!   the forward pass (`non-finite-value`).
//! * **Numerical-hazard lints** — interval abstract interpretation over the
//!   graph flags `ln` whose input range reaches ≤ 0 without an epsilon guard
//!   (`unguarded-ln`).
//!
//! ## Example
//!
//! ```
//! use harp_tensor::{ParamStore, Tape};
//! use harp_verify::{analyze, Severity};
//!
//! let mut store = ParamStore::new();
//! let w = store.register("w", vec![2], vec![0.1, -0.2]);
//! let orphan = store.register("orphan", vec![1], vec![0.0]);
//!
//! let mut tape = Tape::new();
//! let wv = tape.param(&store, w);
//! let _o = tape.param(&store, orphan); // injected but unused
//! let x = tape.constant(vec![2], vec![1.0, 2.0]);
//! let wx = tape.mul(wv, x);
//! let loss = tape.sum_all(wx);
//!
//! let report = analyze(&tape, loss, Some(&store));
//! assert!(!report.is_clean()); // 'orphan' never reaches the loss
//! assert_eq!(report.count(Severity::Error), 1);
//! ```
//!
//! `harp-core::train` runs this as a debug-build pre-flight on the first
//! training instance of every run, so HARP/DOTE/TEAL graph regressions
//! fail fast with a pointed diagnostic instead of a silent zero gradient.
//!
//! ## Determinism passes (v2)
//!
//! On top of the per-tape analyzer, the [`passes`] module proves the
//! repo's bitwise-determinism contract structurally:
//!
//! * [`audit_reduction_order`] — every float reduction accumulates in a
//!   statically fixed order (`reduction-order`,
//!   `tie-sensitive-reduction`).
//! * [`check_epoch_cache`] — `precompute_epoch` + `forward_cached`
//!   covers exactly the same subgraph as the full forward, each cached
//!   projection bitwise the full forward's (`cache-structure-mismatch`,
//!   `cache-divergence`, `cache-spliced`, `cache-unused`).
//!
//! `cargo xtask analyze` runs all of these over freshly recorded
//! HARP/DOTE/TEAL tapes and gates CI on the findings.

mod analyze;
mod interval;
pub mod passes;
mod report;
mod shapes;

pub use analyze::analyze;
pub use interval::Interval;
pub use passes::{audit_reduction_order, check_epoch_cache};
pub use report::{Diagnostic, GraphReport, Severity};
