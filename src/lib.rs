//! HARP in Rust: transferable neural WAN traffic engineering for changing
//! topologies (SIGCOMM 2024 reproduction).
//!
//! This crate is a facade: each module re-exports one workspace crate so
//! examples and downstream users write `harp::models::Harp`,
//! `harp::topology::Topology`, etc., without depending on the individual
//! `harp-*` crates.

/// Observability: tracing spans, counters/histograms, and the structured
/// event sink behind `HARP_OBS` / `HARP_OBS_FILE` (re-export of
/// `harp-obs`).
pub mod obs {
    pub use harp_obs::*;
}

/// Process supervision: framed IPC, heartbeat watchdog, backoff restarts,
/// and the trainer escalation ladder (re-export of `harp-super`).
pub mod supervision {
    pub use harp_super::*;
}

/// Deterministic scoped-thread executor that fans independent items out:
/// training batches, evaluation sweeps, a shard's batch (re-export of
/// `harp-runtime`).
pub mod runtime {
    pub use harp_runtime::*;
}

/// Reverse-mode autodiff tape, parameter store, and graph introspection
/// (re-export of `harp-tensor`).
pub mod tensor {
    pub use harp_tensor::*;
}

/// Neural-network layers and optimizers (re-export of `harp-nn`).
pub mod nn {
    pub use harp_nn::*;
}

/// WAN topology representation and edits (re-export of `harp-topology`).
pub mod topology {
    pub use harp_topology::*;
}

/// Tunnel/path enumeration (re-export of `harp-paths`).
pub mod paths {
    pub use harp_paths::*;
}

/// Traffic-matrix generation and prediction (re-export of `harp-traffic`).
pub mod traffic {
    pub use harp_traffic::*;
}

/// LP/Frank–Wolfe min-MLU solvers (re-export of `harp-opt`).
pub mod opt {
    pub use harp_opt::*;
}

/// Topology datasets and synthetic WAN generators (re-export of
/// `harp-datasets`).
pub mod datasets {
    pub use harp_datasets::*;
}

/// TE models (HARP, DOTE, TEAL), training, and evaluation (re-export of
/// `harp-core`).
pub mod models {
    pub use harp_core::*;
}

/// Online TE controller: NDJSON TCP daemon with batched inference,
/// topology updates, and checkpoint hot-reload (re-export of
/// `harp-serve`).
pub mod serve {
    pub use harp_serve::*;
}

/// End-to-end WAN lifecycle simulator: drift replay, failure storms, and
/// online retraining against a live serving fleet (re-export of
/// `harp-lifecycle`).
pub mod lifecycle {
    pub use harp_lifecycle::*;
}
