//! # harp-tensor
//!
//! A from-scratch, tape-based reverse-mode automatic-differentiation engine
//! over row-major `f32` arrays. This is the numerical substrate for the HARP
//! reproduction: every neural module (GCN, set transformer, MLPs, the
//! recurrent adjustment unit) and the differentiable MLU objective are built
//! from the operations defined here.
//!
//! ## Model
//!
//! * A [`Tape`] records a DAG of operations. Node values live in a bump
//!   arena owned by the tape (pooled across tapes so steady-state forward
//!   passes allocate nothing for values — ops still allocate their small
//!   side tables); [`Tape::backward`]
//!   walks the tape in reverse and accumulates gradients.
//! * [`Var`] is a lightweight handle (an index) into a tape.
//! * Persistent trainable state lives in a [`ParamStore`]; each training
//!   step injects parameters into a fresh tape as leaves and, after
//!   `backward`, gradients are written back to the store where an optimizer
//!   (see `harp-nn`) consumes them.
//!
//! ## Semantics worth knowing
//!
//! * `max`-style reductions ([`Tape::max_all`], [`Tape::segment_max`]) use
//!   subgradients: the full gradient flows to the (first) argmax element.
//!   This is exactly what makes the MLU objective and bottleneck-link
//!   selection trainable.
//! * Shape errors are programming errors and panic with a descriptive
//!   message, mirroring the convention of mainstream array libraries.
//! * Index arrays (gather/segment indices, masks) are shared via `Arc` so
//!   instances can be compiled once and reused across many tape builds.
//!
//! ## Reachability
//!
//! [`Tape::unreachable_params`] lists the parameters injected on a tape
//! that no path connects to the loss: their gradient is zero for every
//! input. `harp-core::train` runs it as a debug-build pre-flight on the
//! first training instance — see DESIGN.md §"Verification layer".
//!
//! ## Example
//!
//! ```
//! use harp_tensor::{Tape, ParamStore};
//!
//! let mut store = ParamStore::new();
//! let w = store.register("w", vec![2, 1], vec![0.5, -0.25]);
//!
//! let mut tape = Tape::new();
//! let x = tape.constant(vec![1, 2], vec![3.0, 4.0]);
//! let wv = tape.param(&store, w);
//! let y = tape.matmul(x, wv); // [1,1]
//! let loss = tape.sum_all(y);
//! tape.backward(loss, &mut store);
//! assert_eq!(store.grad(w), &[3.0, 4.0]);
//! ```

mod op;
mod param;
mod shape;
mod tape;

pub mod gradcheck;
pub mod kernels;

pub use kernels::AffineAct;
pub use op::Op;
pub use param::{GradBuffer, ParamId, ParamStore};
pub use shape::Shape;
pub use tape::{Tape, Var};
