//! # harp-core
//!
//! The paper's models and the harness around them:
//!
//! * [`Instance`] — a (topology, tunnels, traffic matrix) snapshot compiled
//!   into the index tensors every model consumes, plus the `f64`
//!   [`harp_opt::PathProgram`] used for exact evaluation.
//! * [`Harp`] — the paper's model: GCN edge embeddings → set-transformer
//!   tunnel/edge-tunnel embeddings → MLP1 initial split logits → K
//!   recurrent-adjustment (RAU) refinements driven by bottleneck-link
//!   feedback → per-flow softmax splits. `rau_iters = 0` gives the
//!   HARP-NoRAU ablation.
//! * [`Dote`] — the DOTE baseline: an MLP from the (fixed-layout) demand
//!   vector straight to split logits; blind to topology and capacities.
//! * [`Teal`] — the TEAL-like baseline: bipartite edge↔tunnel FlowGNN plus
//!   a per-flow policy MLP over *concatenated* (order-sensitive) tunnel
//!   embeddings. Trained with the same differentiable MLU loss (documented
//!   substitution for RL — see DESIGN.md).
//! * `train` / `eval` — mini-batch trainer with validation-based model
//!   selection, NormMLU evaluation, CDFs and boxplot statistics.
//!
//! All models implement [`SplitModel`]; the differentiable MLU objective
//! ([`mlu_loss`]) is shared.

mod dote;
mod eval;
mod harp;
mod infer;
mod instance;
mod loss;
mod teal;
mod train;

pub use dote::Dote;
pub use eval::{
    boxplot_stats, cdf_points, evaluate_model, fraction_at_most, norm_mlu, percentile,
    BoxplotStats, EvalOptions,
};
pub use harp::{Harp, HarpConfig};
pub use infer::{run_inference, run_inference_cached, Inference};
pub use instance::{Instance, LengthBucket};
pub use loss::{mlu_loss, splits_from_forward, utilization};
pub use teal::{Teal, TealConfig};
pub use train::{train_model, EpochStats, TrainConfig, TrainError, TrainReport, SNAPSHOT_FILE};

use harp_tensor::{ParamStore, Tape, Var};

/// Model state that depends only on the topology and tunnel set — not on
/// the traffic matrix — computed once per topology *epoch* and reused
/// across every TM served against it. The layout is defined by the model
/// that produced it. For HARP, `projected` is `[num_tunnels + num_pairs,
/// mlp_hidden]`: tunnel `t`'s edge-tunnel embedding (the set transformer's
/// output row `Instance::cls_row[t]`) times the first `d_model` weight rows
/// of MLP1's first layer, then pair `p`'s (row `Instance::pair_row[p]`)
/// times the RAU's. The cached head seeds those layers with these rows and
/// multiplies only the traffic-dependent input columns per request.
///
/// A cache is only valid for the exact `(topology, tunnels, parameters)`
/// triple it was computed from; the serving layer invalidates it on every
/// topology update and checkpoint reload.
#[derive(Clone, Debug, Default)]
pub struct EpochCache {
    /// What the model's traffic-dependent head reads (model-defined
    /// layout), shared across tapes.
    pub projected: std::sync::Arc<Vec<f32>>,
}

/// A TE scheme that maps a compiled [`Instance`] to per-tunnel split
/// ratios (a rank-1 tensor of length `instance.num_tunnels`, already
/// normalized per flow by a segment softmax).
///
/// `Sync` is a supertrait so that training and evaluation can fan
/// per-snapshot forward/backward passes out across the `harp-runtime`
/// worker pool; models hold only parameter handles and configuration, so
/// this costs implementors nothing.
pub trait SplitModel: Sync {
    /// Record the forward pass on `tape` and return the splits node.
    fn forward(&self, tape: &mut Tape, store: &ParamStore, instance: &Instance) -> Var;

    /// Record the part of the forward pass that reads only the topology
    /// and tunnel tensors of `instance` and return its output node, or
    /// `None` when the model has no such part. For HARP it is the GCN and
    /// the set transformer, ending in the edge-tunnel table. The trainer
    /// records it once for every snapshot of a topology epoch
    /// ([`Instance::same_epoch`]) and runs [`Self::forward_encoded`] per
    /// snapshot on top of it.
    fn encode(&self, tape: &mut Tape, store: &ParamStore, instance: &Instance) -> Option<Var> {
        let _ = (tape, store, instance);
        None
    }

    /// The rest of the forward pass from `enc`, a node [`Self::encode`]
    /// recorded on this tape for `instance`'s epoch; `forward` is
    /// `forward_encoded(encode(..))`. The head must read the encoder only
    /// through `enc` (`Tape::backward_above` checks it). The default — for
    /// models whose `encode` is `None` — ignores `enc` and runs the full
    /// forward.
    fn forward_encoded(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        instance: &Instance,
        enc: Var,
    ) -> Var {
        let _ = enc;
        self.forward(tape, store, instance)
    }

    /// Scheme name for reports.
    fn name(&self) -> &'static str;

    /// Compute the TM-independent part of the forward pass for this
    /// topology epoch, if the model has one worth caching. `instance` may
    /// be compiled against any TM (only its topology/tunnel tensors are
    /// read). The default — models whose cost is dominated by the
    /// TM-dependent part — returns `None`.
    fn precompute_epoch(&self, store: &ParamStore, instance: &Instance) -> Option<EpochCache> {
        let _ = (store, instance);
        None
    }

    /// Forward pass reusing a cache from [`Self::precompute_epoch`] on
    /// the same epoch and parameters. The default ignores the cache and
    /// runs the full forward, so callers may pass any model's cache back
    /// to it unconditionally.
    fn forward_cached(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        instance: &Instance,
        cache: &EpochCache,
    ) -> Var {
        let _ = cache;
        self.forward(tape, store, instance)
    }
}
