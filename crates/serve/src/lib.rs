//! # harp-serve
//!
//! The online TE controller: a zero-dependency TCP daemon that serves a
//! trained split model over a newline-delimited JSON protocol.
//!
//! * [`protocol`] — the wire format: `infer`, `topology_update`,
//!   `reload_checkpoint`, `stats`, `shutdown` requests, one JSON object
//!   per line each way; wire integers are bounds-checked against
//!   [`protocol::WireLimits`] before any cast.
//! * [`reactor`] — a zero-dependency nonblocking event notifier (epoll
//!   on Linux, a polling fallback elsewhere) with a cross-thread waker.
//! * [`conn`] — per-connection state machines: incremental line framing
//!   with a hard byte cap, staged out-buffers, idle/backpressure
//!   bookkeeping.
//! * [`state`] — epoch-versioned network state: base topology + tunnels,
//!   the failure overlay, pruned tunnels, and last-good splits.
//! * [`shard`] — a serving shard: single-owner batcher thread with its
//!   own `NetworkState`, parameter store, and topology-epoch embedding
//!   cache; panics are contained and reported as failovers.
//! * [`router`] — pure shard selection (epoch-pin match, least depth,
//!   deterministic shedding) and the [`router::Fleet`] that spawns and
//!   addresses the shards.
//! * [`server`] — the daemon: one reactor thread multiplexing every
//!   connection into the shard fleet, with admission control, per-reason
//!   load shedding, and deadline-bounded degradation to last-good splits
//!   (or uniform ECMP on cold start) instead of failing or blocking.
//! * [`stats`] — serving counters plus latency percentiles, mirrored
//!   into the `harp-obs` registry.
//!
//! See DESIGN.md §8 for the protocol and degradation policy, §13 for the
//! fleet serving layer.

pub mod conn;
pub mod protocol;
pub mod reactor;
pub mod router;
pub mod server;
pub mod shard;
pub mod state;
pub mod stats;

pub use conn::{Frame, LineFramer};
pub use protocol::{
    degraded_response, error_response, error_response_kind, infer_response, ok_response,
    parse_request, parse_request_bounded, shed_response, ProtocolError, ProtocolErrorKind, Request,
    WireLimits,
};
pub use reactor::{Event, Interest, Reactor, Waker};
pub use router::{route_infer, Fleet, RouteDecision, ShardView};
pub use server::{serve, ServeConfig, ServerHandle};
pub use shard::{InferJob, Job, ReplySink};
pub use state::{carry_splits, uniform_splits, NetworkState, UpdateSummary, FAILED_CAPACITY};
pub use stats::{DegradeReason, ServeStats, ShedReason};
