//! # harp-nn
//!
//! Neural-network building blocks on top of [`harp_tensor`]: linear layers,
//! MLPs, graph convolutions (GCN), multi-head attention, transformer
//! encoders (the paper's SETTRANS), layer norm, parameter initialization,
//! the Adam optimizer, and parameter (de)serialization.
//!
//! Layers own [`harp_tensor::ParamId`]s into a shared
//! [`harp_tensor::ParamStore`]; their `forward` methods record operations on
//! a caller-provided [`harp_tensor::Tape`]. This mirrors the
//! "module = parameter bundle + pure forward function" style so one set of
//! weights can be applied repeatedly (HARP applies the *same* RAU and
//! SETTRANS modules at every recursion/tunnel — parameter sharing is the
//! core of its invariance story).

mod activation;
mod adam;
mod attention;
mod gcn;
mod init;
mod linear;
mod mlp;
mod norm;
mod serialize;
mod transformer;

pub use activation::Activation;
pub use adam::{clip_grad_norm, Adam, AdamConfig, AdamState, AdamStateMismatch, NonFiniteGradNorm};
pub use attention::{expand_key_mask, MultiHeadAttention};
pub use gcn::{normalized_adjacency, GcnConv};
pub use init::xavier_vec;
pub use linear::Linear;
pub use mlp::Mlp;
pub use norm::LayerNormAffine;
pub use serialize::{
    load_params, load_snapshot, save_params, save_snapshot, SnapshotEpoch, TrainSnapshot,
    SNAPSHOT_FORMAT_VERSION,
};
pub use transformer::{TransformerEncoder, TransformerEncoderLayer};
