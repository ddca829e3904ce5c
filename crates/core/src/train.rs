//! Mini-batch training with validation-based model selection, resumable
//! checkpoints, and divergence rollback.
//!
//! The paper's protocol (§4): train until convergence, checkpoint every
//! epoch, pick the checkpoint with the best validation score. Losses are
//! per-snapshot MLU, optionally normalized by the snapshot's optimal MLU
//! (a per-instance constant supplied by the caller, which conditions the
//! objective across heterogeneous snapshots).
//!
//! ## Fault tolerance (DESIGN.md §10)
//!
//! * **Resumable**: with [`TrainConfig::checkpoint_dir`] set, a full
//!   training snapshot (parameters, Adam moments, RNG state, early-stop
//!   bookkeeping) is saved atomically every
//!   [`TrainConfig::checkpoint_every`] epochs; a later call pointed at the
//!   same directory resumes and finishes **bitwise-identically** to an
//!   uninterrupted run.
//! * **Divergence sentinel**: a non-finite batch loss or gradient norm —
//!   or a panic in a pool worker, contained by
//!   [`harp_runtime::Runtime::try_par_chunks`] — rolls the epoch back to
//!   its start, halves the learning rate, and retries, up to
//!   [`TrainConfig::max_rollbacks`] times before failing with
//!   [`TrainError::Diverged`].
//! * **Chaos-testable**: a [`harp_chaos::FaultPlan`] handed over in
//!   [`TrainConfig::chaos`] injects NaN gradients, worker kills,
//!   checkpoint corruption, and simulated aborts at deterministic points,
//!   exercising all of the above in tests.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use harp_chaos::FaultPlan;
use harp_nn::{
    clip_grad_norm, load_snapshot, save_snapshot, Adam, AdamConfig, SnapshotEpoch, TrainSnapshot,
};
use harp_obs::span;
use harp_runtime::Runtime;
use harp_tensor::{GradBuffer, ParamStore, Tape};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};

use crate::eval::{norm_mlu, EvalOptions};
use crate::infer::{run_inference, run_inference_cached};
use crate::loss::mlu_loss;
use crate::{Instance, SplitModel};

/// File name of the training snapshot inside
/// [`TrainConfig::checkpoint_dir`].
pub const SNAPSHOT_FILE: &str = "snapshot.json";

/// Training hyperparameters.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Snapshots per gradient step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Global gradient-norm clip (0 disables).
    pub clip_norm: f32,
    /// Shuffling seed.
    pub seed: u64,
    /// Stop after this many epochs without validation improvement
    /// (0 disables early stopping).
    pub patience: usize,
    /// Worker threads for the per-epoch-group forward/backward fan-out
    /// (a batch on one topology is one group) and the validation sweep. `0` resolves [`Runtime::global`] (the `HARP_THREADS`
    /// environment knob / available parallelism). Results are bitwise
    /// identical for every worker count (see DESIGN.md §"Runtime layer").
    pub workers: usize,
    /// Save a resumable training snapshot every this many completed epochs
    /// (`0` disables checkpointing even when `checkpoint_dir` is set).
    pub checkpoint_every: usize,
    /// Directory holding the training snapshot ([`SNAPSHOT_FILE`]).
    /// `None` disables checkpointing. When the directory already contains
    /// a snapshot, training **resumes** from it — and then finishes
    /// bitwise-identically to a run that was never interrupted.
    pub checkpoint_dir: Option<PathBuf>,
    /// Divergence rollbacks allowed across the whole run before training
    /// fails with [`TrainError::Diverged`]. Each rollback restores the
    /// epoch-start state and halves the learning rate.
    pub max_rollbacks: usize,
    /// Fault-injection plan for chaos tests. `None` injects no faults.
    pub chaos: Option<Arc<FaultPlan>>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 8,
            lr: 2e-3,
            clip_norm: 5.0,
            seed: 17,
            patience: 8,
            workers: 0,
            checkpoint_every: 1,
            checkpoint_dir: None,
            max_rollbacks: 3,
            chaos: None,
        }
    }
}

impl TrainConfig {
    /// The worker pool this config resolves to.
    pub fn runtime(&self) -> Runtime {
        if self.workers == 0 {
            Runtime::global()
        } else {
            Runtime::new(self.workers)
        }
    }
}

/// Per-epoch record.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean (normalized) training loss.
    pub train_loss: f64,
    /// Mean validation NormMLU.
    pub val_norm_mlu: f64,
}

/// The outcome of a training run. The store is left holding the
/// best-validation parameters.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Per-epoch statistics.
    pub history: Vec<EpochStats>,
    /// Index of the selected epoch.
    pub best_epoch: usize,
    /// Its validation NormMLU.
    pub best_val: f64,
    /// Divergence rollbacks consumed (0 on a healthy run).
    pub rollbacks: usize,
    /// Epoch this run resumed from, when it picked up a checkpoint.
    pub resumed_from: Option<usize>,
}

/// Why a training run failed. The process always survives: every variant
/// is a structured, recoverable report, never an abort.
#[derive(Debug)]
pub enum TrainError {
    /// The divergence sentinel fired more than
    /// [`TrainConfig::max_rollbacks`] times. `detail` is the last trigger
    /// (non-finite loss/gradient, or a contained worker panic).
    Diverged {
        /// Epoch whose retry budget ran out.
        epoch: usize,
        /// Rollbacks consumed before giving up.
        rollbacks: usize,
        /// The last divergence trigger, human-readable.
        detail: String,
    },
    /// Saving or loading a training snapshot failed (I/O error, or a
    /// snapshot that does not match this model — the inner error names the
    /// offending field).
    Checkpoint(io::Error),
    /// A chaos `abort` fault interrupted the run after completing `epoch`
    /// (simulating a crash between epochs; a checkpointed run resumes).
    Aborted {
        /// Last completed epoch.
        epoch: usize,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Diverged {
                epoch,
                rollbacks,
                detail,
            } => write!(
                f,
                "training diverged at epoch {epoch} after {rollbacks} rollback(s): {detail}"
            ),
            TrainError::Checkpoint(e) => write!(f, "training checkpoint failed: {e}"),
            TrainError::Aborted { epoch } => {
                write!(f, "training aborted by fault injection after epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

/// Train `model` (whose parameters live in `store`).
///
/// `train` and `val` pair each instance with its **optimal MLU** (from
/// `harp-opt`); training losses are normalized by it and validation uses
/// NormMLU. `val_opts` controls rescaling at validation (match how the
/// scheme will be evaluated).
///
/// A mini-batch is split into topology-epoch groups
/// ([`Instance::same_epoch`]). Each group records the model's encoder
/// ([`SplitModel::encode`] — HARP's GCN and set transformer) once, runs
/// every item's head and loss on top of it and walks the encoder backward
/// once, seeded with the sum of the items' gradients at its output (see
/// `group_grads`). Groups run data-parallel across
/// [`TrainConfig::workers`] threads; a batch on one topology is one group
/// and runs on one thread. Each item's gradients land in a detached buffer
/// of its own and the buffers are folded in item order, so a run is
/// bitwise identical for every worker count (verified in tests). A batch
/// of distinct epochs trains bitwise as separate per-item passes would; in
/// a shared group only the encoder gradients differ from those, by
/// rounding. Validation groups its snapshots the same way, computes one
/// [`SplitModel::precompute_epoch`] per group and scores each snapshot
/// with [`run_inference_cached`] — bitwise [`crate::evaluate_model`].
///
/// See the module docs for the fault-tolerance contract: resumable
/// checkpoints ([`TrainConfig::checkpoint_dir`]), divergence rollback
/// ([`TrainConfig::max_rollbacks`]), and contained worker panics. On
/// failure the returned [`TrainError`] says which contract broke; the
/// store then holds the last epoch-start parameters (for
/// [`TrainError::Diverged`]) or the last checkpointed state, both of which
/// are finite and usable.
pub fn train_model(
    model: &dyn SplitModel,
    store: &mut ParamStore,
    train: &[(&Instance, f64)],
    val: &[(&Instance, f64)],
    cfg: TrainConfig,
    val_opts: EvalOptions,
) -> Result<TrainReport, TrainError> {
    assert!(!train.is_empty(), "empty training set");
    if cfg!(debug_assertions) {
        preflight(model, store, train[0].0);
    }
    let chaos = cfg.chaos.as_deref();
    let snapshot_path = cfg.checkpoint_dir.as_ref().map(|d| d.join(SNAPSHOT_FILE));
    if let Some(dir) = &cfg.checkpoint_dir {
        std::fs::create_dir_all(dir).map_err(TrainError::Checkpoint)?;
    }

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(store, AdamConfig::with_lr(cfg.lr));
    let mut history: Vec<EpochStats> = Vec::with_capacity(cfg.epochs);
    let mut best_val = f64::INFINITY;
    let mut best_epoch = 0usize;
    let mut best_params = store.snapshot();
    let mut since_best = 0usize;
    let mut rollbacks = 0usize;
    let mut start_epoch = 0usize;
    let mut resumed_from = None;

    // Resume: a snapshot in the checkpoint directory wins over a fresh
    // start. Everything below is restored bitwise, so the resumed run is
    // indistinguishable from one that was never interrupted.
    if let Some(path) = &snapshot_path {
        if path.exists() {
            let snap = load_snapshot(store, path).map_err(TrainError::Checkpoint)?;
            opt.import_state(&snap.adam).map_err(|e| {
                TrainError::Checkpoint(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("training snapshot optimizer state does not fit this model: {e}"),
                ))
            })?;
            rng = StdRng::from_state(snap.rng_state);
            history = snap
                .history
                .iter()
                .map(|e| EpochStats {
                    epoch: e.epoch,
                    train_loss: e.train_loss,
                    val_norm_mlu: e.val_norm_mlu,
                })
                .collect();
            best_val = snap.best_val;
            best_epoch = snap.best_epoch;
            best_params = snap.best_params.clone();
            since_best = snap.since_best;
            rollbacks = snap.rollbacks;
            start_epoch = snap.next_epoch;
            resumed_from = Some(snap.next_epoch);
            harp_obs::event("train.resume")
                .field("path", path.display().to_string())
                .field("next_epoch", snap.next_epoch)
                .field("best_epoch", snap.best_epoch)
                .emit();
        }
    }

    let rt = cfg.runtime();
    harp_obs::event("train.start")
        .field("model", model.name())
        .field("epochs", cfg.epochs)
        .field("batch_size", cfg.batch_size)
        .field("lr", cfg.lr)
        .field("workers", rt.workers())
        .field("train_snapshots", train.len())
        .field("val_snapshots", val.len())
        .field("params", store.num_scalars())
        .field("resumed", resumed_from.is_some())
        .emit();

    let mut epoch = start_epoch;
    let mut stop = false;
    while epoch < cfg.epochs && !stop {
        // Rollback anchor: everything a divergence retry must restore.
        let anchor_params = store.snapshot();
        let anchor_opt = opt.clone();
        let anchor_rng = rng.clone();

        let epoch_t0 = std::time::Instant::now();
        let mut last_grad_norm = 0.0f32;
        // Shuffle a fresh identity permutation so each epoch's order is a
        // pure function of the RNG state at the epoch boundary — exactly
        // what the snapshot captures, keeping resume bitwise-faithful.
        let mut order: Vec<usize> = (0..train.len()).collect();
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut diverged: Option<String> = None;

        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let _step = span("train.step");
            store.zero_grads();
            let chunk_len = chunk.len();
            let batch: Vec<(&Instance, f64)> = chunk.iter().map(|&i| train[i]).collect();
            // Fan the batch out by topology epoch: each worker takes a
            // contiguous block of epoch groups and returns one detached
            // gradient buffer *per item* (the store is shared read-only for
            // forward passes). A worker panic is contained at the pool
            // boundary and handled like any other divergence: roll back the
            // epoch, don't kill the run.
            let groups = epoch_groups(&batch);
            let outcome = rt.try_par_chunks(&groups, |ci, _, block| {
                if let Some(plan) = chaos {
                    plan.maybe_kill_worker(epoch as u64, ci as u64);
                    plan.maybe_kill_trainer(epoch as u64, harp_chaos::TrainerPhase::Forward);
                }
                let mut items = Vec::new();
                for group in block {
                    items.extend(group_grads(model, store, &batch, group));
                }
                items
            });
            let partials = match outcome {
                Ok(p) => p,
                Err(wp) => {
                    diverged = Some(wp.to_string());
                    break;
                }
            };
            // Fold per-item gradients and losses in item order
            // (left-associated): the grouping and the fold are pure
            // functions of the batch, so the step is bitwise the same at
            // every worker count, not just reproducible per count.
            let mut batch_loss = 0.0f64;
            let mut total: Option<GradBuffer> = None;
            {
                let _merge = span("merge");
                let mut items: Vec<ItemGrad> = partials.into_iter().flatten().collect();
                items.sort_by_key(|item| item.0);
                for (_, g, l) in items {
                    batch_loss += l;
                    match &mut total {
                        None => total = Some(g),
                        Some(t) => t.accumulate(&g),
                    }
                }
            }
            if !batch_loss.is_finite() {
                diverged = Some(format!("non-finite batch loss ({batch_loss})"));
                break;
            }
            epoch_loss += batch_loss * chunk_len as f64 / train.len() as f64;
            if let Some(total) = total {
                store.merge_grads(&total);
            }
            if let Some(plan) = chaos {
                if plan.nan_grad_at(opt.steps()) {
                    store.scale_grads(f32::NAN);
                }
            }
            if harp_obs::enabled() {
                last_grad_norm = store.grad_norm();
            }
            if cfg.clip_norm > 0.0 {
                if let Err(e) = clip_grad_norm(store, cfg.clip_norm) {
                    diverged = Some(e.to_string());
                    break;
                }
            } else {
                // Clipping disabled: the sentinel still has to notice a
                // blown-up gradient before the optimizer bakes it in.
                let gn = store.grad_norm();
                if !gn.is_finite() {
                    diverged = Some(format!("gradient norm is non-finite ({gn})"));
                    break;
                }
            }
            opt.step_and_zero(store);
        }

        if let Some(reason) = diverged {
            harp_obs::event("train.divergence")
                .field("epoch", epoch)
                .field("reason", reason.clone())
                .field("rollbacks_used", rollbacks)
                .emit();
            if rollbacks >= cfg.max_rollbacks {
                // Leave the store on the (finite) epoch-start parameters
                // rather than whatever the diverging step produced.
                store.restore(&anchor_params);
                store.zero_grads();
                return Err(TrainError::Diverged {
                    epoch,
                    rollbacks,
                    detail: reason,
                });
            }
            rollbacks += 1;
            store.restore(&anchor_params);
            store.zero_grads();
            opt = anchor_opt;
            rng = anchor_rng;
            let new_lr = opt.lr() * 0.5;
            opt.set_lr(new_lr);
            harp_obs::event("train.rollback")
                .field("epoch", epoch)
                .field("lr", new_lr)
                .field("rollbacks_used", rollbacks)
                .emit();
            continue; // retry the same epoch
        }

        // validation (pure per-snapshot map, summed in snapshot order)
        let val_score = if val.is_empty() {
            epoch_loss
        } else {
            let _val = span("validate");
            let scores = validation_scores(&rt, model, store, val, val_opts);
            scores.iter().sum::<f64>() / val.len() as f64
        };
        harp_obs::event("train.epoch")
            .field("epoch", epoch)
            .field("loss", epoch_loss)
            .field("val_norm_mlu", val_score)
            .field("grad_norm", last_grad_norm)
            .field("wall_s", epoch_t0.elapsed().as_secs_f64())
            .field("workers", rt.workers())
            .emit();
        history.push(EpochStats {
            epoch,
            train_loss: epoch_loss,
            val_norm_mlu: val_score,
        });

        if val_score < best_val {
            best_val = val_score;
            best_epoch = epoch;
            best_params = store.snapshot();
            since_best = 0;
        } else {
            since_best += 1;
            if cfg.patience > 0 && since_best >= cfg.patience {
                stop = true;
            }
        }
        epoch += 1;

        if let Some(path) = &snapshot_path {
            if cfg.checkpoint_every > 0 && epoch.is_multiple_of(cfg.checkpoint_every) {
                let snap = TrainSnapshot {
                    adam: opt.export_state(),
                    rng_state: rng.state(),
                    next_epoch: epoch,
                    best_epoch,
                    best_val,
                    since_best,
                    rollbacks,
                    best_params: best_params.clone(),
                    history: history
                        .iter()
                        .map(|h| SnapshotEpoch {
                            epoch: h.epoch,
                            train_loss: h.train_loss,
                            val_norm_mlu: h.val_norm_mlu,
                        })
                        .collect(),
                };
                if let Some(plan) = chaos {
                    plan.maybe_kill_trainer(
                        (epoch - 1) as u64,
                        harp_chaos::TrainerPhase::Checkpoint,
                    );
                }
                save_snapshot(store, &snap, path, chaos).map_err(TrainError::Checkpoint)?;
                harp_obs::event("train.checkpoint")
                    .field("epoch", epoch - 1)
                    .field("path", path.display().to_string())
                    .emit();
            }
        }
        if let Some(plan) = chaos {
            if plan.abort_after_epoch((epoch - 1) as u64) {
                harp_obs::event("train.abort")
                    .field("epoch", epoch - 1)
                    .emit();
                return Err(TrainError::Aborted { epoch: epoch - 1 });
            }
        }
    }

    store.restore(&best_params);
    harp_obs::event("train.done")
        .field("model", model.name())
        .field("epochs_run", history.len())
        .field("best_epoch", best_epoch)
        .field("best_val_norm_mlu", best_val)
        .field("rollbacks", rollbacks)
        .emit();
    Ok(TrainReport {
        history,
        best_epoch,
        best_val,
        rollbacks,
        resumed_from,
    })
}

/// One batch item's share of a training step: its position in the batch,
/// its gradient buffer and its loss (already scaled by `1 / batch len`).
type ItemGrad = (usize, GradBuffer, f64);

/// The positions of `batch` grouped by topology epoch
/// ([`Instance::same_epoch`]), groups and positions in first-occurrence
/// order. A batch of GEANT snapshots is one group; a batch of distinct
/// epochs is one group per item.
fn epoch_groups(batch: &[(&Instance, f64)]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (pos, (inst, _)) in batch.iter().enumerate() {
        match groups.iter_mut().find(|g| batch[g[0]].0.same_epoch(inst)) {
            Some(g) => g.push(pos),
            None => groups.push(vec![pos]),
        }
    }
    groups
}

/// Forward and backward for the items of one epoch `group` of `batch`, on
/// one tape. The model's encoder ([`SplitModel::encode`]) is recorded once;
/// each item's head and loss run inside a [`Tape::scoped`] that forgets
/// them after [`Tape::backward_above`] has walked them, which puts the
/// head's parameter gradients in the item's own buffer and returns the
/// item's gradient at the encoder output. One
/// [`Tape::backward_seeded_into`] then walks the encoder with the sum of
/// those gradients, into the first item's buffer. For a group of one that
/// is bitwise the item's own `backward_into`; for more, the encoder
/// gradient is `Jᵀ(Σ dᵢ)` instead of `Σ Jᵀdᵢ`, equal up to rounding. A
/// model without an encoder runs every item's whole forward in the scope.
fn group_grads(
    model: &dyn SplitModel,
    store: &ParamStore,
    batch: &[(&Instance, f64)],
    group: &[usize],
) -> Vec<ItemGrad> {
    let mut tape = Tape::new();
    let enc = {
        let _fwd = span("forward");
        let _enc = span("encoder");
        model.encode(&mut tape, store, batch[group[0]].0)
    };
    let mut items = Vec::with_capacity(group.len());
    let mut seed: Option<Vec<f32>> = None;
    for &pos in group {
        let (inst, opt_mlu) = batch[pos];
        let mut grads = store.grad_buffer();
        let (loss_val, d) = tape.scoped(|t| {
            let splits = {
                let _fwd = span("forward");
                let _head = span("head");
                match enc {
                    Some(table) => model.forward_encoded(t, store, inst, table),
                    None => model.forward(t, store, inst),
                }
            };
            let mlu = mlu_loss(t, splits, inst);
            // normalize: loss = MLU / optimal, averaged over the batch
            let norm = if opt_mlu > 0.0 {
                (1.0 / opt_mlu) as f32
            } else {
                1.0
            };
            let loss = t.mul_scalar(mlu, norm / batch.len() as f32);
            let loss_val = t.scalar_value(loss) as f64;
            let _bwd = span("backward");
            let _head = span("head");
            let d = match enc {
                Some(table) => Some(t.backward_above(loss, table, &mut grads)),
                None => {
                    t.backward_into(loss, &mut grads);
                    None
                }
            };
            (loss_val, d)
        });
        match (&mut seed, d) {
            (Some(sum), Some(d)) => sum.iter_mut().zip(&d).for_each(|(a, b)| *a += *b),
            (_, d) => seed = d,
        }
        items.push((pos, grads, loss_val));
    }
    if let (Some(table), Some(seed), Some((_, first, _))) = (enc, seed, items.first_mut()) {
        let _bwd = span("backward");
        let _enc = span("encoder");
        tape.backward_seeded_into(table, seed, first);
    }
    items
}

/// NormMLU of every validation snapshot, in order. Snapshots are grouped
/// by topology epoch like a training batch; each group's
/// [`SplitModel::precompute_epoch`] runs once and every snapshot of it is
/// scored with [`run_inference_cached`], which is bitwise what
/// [`crate::evaluate_model`] gives. A model without an epoch cache is
/// scored with [`run_inference`].
fn validation_scores(
    rt: &Runtime,
    model: &dyn SplitModel,
    store: &ParamStore,
    val: &[(&Instance, f64)],
    opts: EvalOptions,
) -> Vec<f64> {
    let groups = epoch_groups(val);
    let caches = rt.par_map(&groups, |_, g| model.precompute_epoch(store, val[g[0]].0));
    let mut cache_of = vec![0usize; val.len()];
    for (gi, g) in groups.iter().enumerate() {
        for &pos in g {
            cache_of[pos] = gi;
        }
    }
    rt.par_map(val, |i, (inst, opt_mlu)| {
        let inf = match &caches[cache_of[i]] {
            Some(cache) => run_inference_cached(model, store, inst, opts, cache),
            None => run_inference(model, store, inst, opts),
        };
        norm_mlu(inf.mlu, *opt_mlu)
    })
}

/// Debug-build pre-flight: record one training graph and reject the model
/// if a parameter it injects cannot reach the loss
/// ([`Tape::unreachable_params`]). Such a parameter trains at gradient zero
/// forever, and nothing else notices: the loss just trains a little worse.
/// (A wrong shape or a non-scalar loss needs no pre-flight; the tape panics
/// on it when it records or walks the graph.) Compiled out of release
/// builds, where `train_model` pays nothing.
fn preflight(model: &dyn SplitModel, store: &ParamStore, inst: &Instance) {
    let mut tape = Tape::new();
    let splits = model.forward(&mut tape, store, inst);
    let loss = mlu_loss(&mut tape, splits, inst);
    let names: Vec<&str> = tape
        .unreachable_params(loss)
        .into_iter()
        .map(|id| store.name(id))
        .collect();
    assert!(
        names.is_empty(),
        "training-graph pre-flight failed: {} {names:?} never reach the loss, so their \
         gradient stays zero",
        model.name()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate_model, Harp, HarpConfig};
    use harp_opt::MluOracle;
    use harp_paths::TunnelSet;
    use harp_topology::Topology;
    use harp_traffic::TrafficMatrix;
    use rand::Rng;

    fn diamond() -> (Topology, TunnelSet) {
        let mut topo = Topology::new(4);
        topo.add_link(0, 1, 10.0).unwrap();
        topo.add_link(1, 3, 10.0).unwrap();
        topo.add_link(0, 2, 20.0).unwrap();
        topo.add_link(2, 3, 20.0).unwrap();
        let tunnels = TunnelSet::k_shortest(&topo, &[0, 3], 2, 0.0);
        (topo, tunnels)
    }

    #[test]
    fn training_improves_validation_norm_mlu() {
        let (topo, tunnels) = diamond();
        let mut rng = StdRng::seed_from_u64(5);
        let oracle = MluOracle::default();
        let make = |rng: &mut StdRng| {
            let mut tm = TrafficMatrix::zeros(4);
            tm.set_demand(0, 3, rng.gen_range(5.0..15.0));
            tm.set_demand(3, 0, rng.gen_range(2.0..8.0));
            let inst = Instance::compile(&topo, &tunnels, &tm);
            let opt = oracle.solve(&inst.program).mlu;
            (inst, opt)
        };
        let train_set: Vec<(Instance, f64)> = (0..8).map(|_| make(&mut rng)).collect();
        let val_set: Vec<(Instance, f64)> = (0..3).map(|_| make(&mut rng)).collect();
        let train_refs: Vec<(&Instance, f64)> = train_set.iter().map(|(i, o)| (i, *o)).collect();
        let val_refs: Vec<(&Instance, f64)> = val_set.iter().map(|(i, o)| (i, *o)).collect();

        let mut store = ParamStore::new();
        let mut mrng = StdRng::seed_from_u64(1);
        let cfg = HarpConfig {
            gnn_layers: 2,
            gnn_hidden: 4,
            d_model: 8,
            settrans_layers: 1,
            heads: 1,
            d_ff: 16,
            mlp_hidden: 16,
            rau_iters: 3,
        };
        let harp = Harp::new(&mut store, &mut mrng, cfg);

        // pre-training validation score
        let mut pre = 0.0;
        for (inst, o) in &val_refs {
            let (mlu, _) = evaluate_model(&harp, &store, inst, EvalOptions::default());
            pre += norm_mlu(mlu, *o);
        }
        pre /= val_refs.len() as f64;

        let report = train_model(
            &harp,
            &mut store,
            &train_refs,
            &val_refs,
            TrainConfig {
                epochs: 15,
                batch_size: 4,
                lr: 5e-3,
                ..Default::default()
            },
            EvalOptions::default(),
        )
        .expect("healthy training run");
        assert!(!report.history.is_empty());
        assert_eq!(report.rollbacks, 0);
        assert!(
            report.best_val <= pre + 1e-9,
            "best {} vs pre {}",
            report.best_val,
            pre
        );
        // the store holds the best checkpoint: re-evaluating reproduces it
        let mut post = 0.0;
        for (inst, o) in &val_refs {
            let (mlu, _) = evaluate_model(&harp, &store, inst, EvalOptions::default());
            post += norm_mlu(mlu, *o);
        }
        post /= val_refs.len() as f64;
        assert!((post - report.best_val).abs() < 1e-9);
    }

    /// The diamond, and (`halved`) the diamond with link 0-1's capacity
    /// halved both ways: the same tunnels on a second topology epoch.
    fn diamond_epoch(halved: bool) -> (Topology, TunnelSet) {
        let (mut topo, tunnels) = diamond();
        if halved {
            for (a, b) in [(0, 1), (1, 0)] {
                let e = topo.edge_id(a, b).unwrap();
                topo.set_capacity(e, 5.0).unwrap();
            }
        }
        (topo, tunnels)
    }

    /// `n` labelled diamond snapshots; with `mixed`, every other one is on
    /// the halved epoch of [`diamond_epoch`].
    fn diamond_set(rng: &mut StdRng, n: usize, mixed: bool) -> Vec<(Instance, f64)> {
        let oracle = MluOracle::default();
        (0..n)
            .map(|k| {
                let (topo, tunnels) = diamond_epoch(mixed && k % 2 == 1);
                let mut tm = TrafficMatrix::zeros(4);
                tm.set_demand(0, 3, rng.gen_range(5.0..15.0));
                tm.set_demand(3, 0, rng.gen_range(2.0..8.0));
                let inst = Instance::compile(&topo, &tunnels, &tm);
                let opt = oracle.solve(&inst.program).mlu;
                (inst, opt)
            })
            .collect()
    }

    fn small_harp(store: &mut ParamStore) -> Harp {
        let mut mrng = StdRng::seed_from_u64(1);
        let cfg = HarpConfig {
            gnn_layers: 2,
            gnn_hidden: 4,
            d_model: 8,
            settrans_layers: 1,
            heads: 1,
            d_ff: 16,
            mlp_hidden: 16,
            rau_iters: 2,
        };
        Harp::new(store, &mut mrng, cfg)
    }

    /// Train HARP on a small zoo-style diamond topology (`mixed`: on two
    /// epochs of it, interleaved) with the given worker count and return
    /// the full report (fresh store/model/data each call so runs are
    /// independent).
    fn train_with_workers(workers: usize, mixed: bool) -> TrainReport {
        let mut rng = StdRng::seed_from_u64(5);
        let train_set = diamond_set(&mut rng, 9, mixed);
        let val_set = diamond_set(&mut rng, 3, mixed);
        let train_refs: Vec<(&Instance, f64)> = train_set.iter().map(|(i, o)| (i, *o)).collect();
        let val_refs: Vec<(&Instance, f64)> = val_set.iter().map(|(i, o)| (i, *o)).collect();

        let mut store = ParamStore::new();
        let harp = small_harp(&mut store);
        train_model(
            &harp,
            &mut store,
            &train_refs,
            &val_refs,
            TrainConfig {
                epochs: 6,
                batch_size: 4,
                lr: 5e-3,
                workers,
                ..Default::default()
            },
            EvalOptions::default(),
        )
        .expect("healthy training run")
    }

    /// The paper-protocol determinism contract: fanning a batch across 2, 3
    /// or 4 workers must reproduce the serial run's model selection and every
    /// score bit for bit — per-item gradients are folded in item order.
    /// On one epoch a batch is one group and runs on one worker; on two
    /// interleaved epochs each batch is two groups, so the fan-out is real.
    #[test]
    fn parallel_training_matches_serial_bitwise() {
        for mixed in [false, true] {
            assert_workers_match_serial(mixed);
        }
    }

    fn assert_workers_match_serial(mixed: bool) {
        let serial = train_with_workers(1, mixed);
        for workers in [2, 3, 4] {
            let par = train_with_workers(workers, mixed);
            assert_eq!(
                par.best_epoch, serial.best_epoch,
                "{workers} workers picked a different best epoch"
            );
            assert_eq!(par.history.len(), serial.history.len());
            assert_eq!(
                par.best_val.to_bits(),
                serial.best_val.to_bits(),
                "{workers} workers: best val {} vs serial {}",
                par.best_val,
                serial.best_val
            );
            for (p, s) in par.history.iter().zip(&serial.history) {
                assert_eq!(
                    p.val_norm_mlu.to_bits(),
                    s.val_norm_mlu.to_bits(),
                    "{workers} workers: epoch {} val {} vs serial {}",
                    p.epoch,
                    p.val_norm_mlu,
                    s.val_norm_mlu
                );
                assert_eq!(
                    p.train_loss.to_bits(),
                    s.train_loss.to_bits(),
                    "{workers} workers: epoch {} train loss {} vs serial {}",
                    p.epoch,
                    p.train_loss,
                    s.train_loss
                );
            }
        }
    }

    /// Re-running with the same worker count is bitwise-reproducible.
    #[test]
    fn parallel_training_is_reproducible_per_worker_count() {
        let a = train_with_workers(2, true);
        let b = train_with_workers(2, true);
        assert_eq!(a.best_epoch, b.best_epoch);
        assert_eq!(a.best_val.to_bits(), b.best_val.to_bits());
        for (x, y) in a.history.iter().zip(&b.history) {
            assert_eq!(x.train_loss.to_bits(), y.train_loss.to_bits());
            assert_eq!(x.val_norm_mlu.to_bits(), y.val_norm_mlu.to_bits());
        }
    }

    /// The per-item path `train_model` ran before epoch groups: a fresh
    /// tape per item, the whole forward, `backward_into`.
    fn per_item_reference(
        model: &dyn SplitModel,
        store: &ParamStore,
        batch: &[(&Instance, f64)],
    ) -> Vec<(GradBuffer, f64)> {
        batch
            .iter()
            .map(|&(inst, opt_mlu)| {
                let mut grads = store.grad_buffer();
                let mut tape = Tape::new();
                let splits = model.forward(&mut tape, store, inst);
                let mlu = mlu_loss(&mut tape, splits, inst);
                let loss = tape.mul_scalar(mlu, (1.0 / opt_mlu) as f32 / batch.len() as f32);
                tape.backward_into(loss, &mut grads);
                (grads, tape.scalar_value(loss) as f64)
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn a_batch_of_distinct_epochs_is_bitwise_the_per_item_path() {
        let mut rng = StdRng::seed_from_u64(21);
        let set = diamond_set(&mut rng, 2, true);
        let batch: Vec<(&Instance, f64)> = set.iter().map(|(i, o)| (i, *o)).collect();
        let mut store = ParamStore::new();
        let harp = small_harp(&mut store);
        let groups = epoch_groups(&batch);
        assert_eq!(groups, vec![vec![0], vec![1]]);

        let want = per_item_reference(&harp, &store, &batch);
        let got: Vec<ItemGrad> = groups
            .iter()
            .flat_map(|g| group_grads(&harp, &store, &batch, g))
            .collect();
        for ((pos, g, l), (wg, wl)) in got.iter().zip(&want) {
            assert_eq!(l.to_bits(), wl.to_bits(), "item {pos} loss");
            for id in store.ids() {
                assert_eq!(
                    bits(g.grad(id)),
                    bits(wg.grad(id)),
                    "item {pos} {}",
                    store.name(id)
                );
            }
        }
    }

    #[test]
    fn a_shared_epoch_group_matches_the_per_item_path() {
        let mut rng = StdRng::seed_from_u64(22);
        let set = diamond_set(&mut rng, 3, false);
        let batch: Vec<(&Instance, f64)> = set.iter().map(|(i, o)| (i, *o)).collect();
        let mut store = ParamStore::new();
        let harp = small_harp(&mut store);
        assert_eq!(epoch_groups(&batch), vec![vec![0, 1, 2]]);

        let want = per_item_reference(&harp, &store, &batch);
        let got = group_grads(&harp, &store, &batch, &[0, 1, 2]);
        let is_head = |name: &str| name.starts_with("harp.mlp1") || name.starts_with("harp.rau");
        // losses and head gradients: each item's own, bit for bit
        for ((pos, g, l), (wg, wl)) in got.iter().zip(&want) {
            assert_eq!(l.to_bits(), wl.to_bits(), "item {pos} loss");
            for id in store.ids().filter(|&id| is_head(store.name(id))) {
                assert_eq!(
                    bits(g.grad(id)),
                    bits(wg.grad(id)),
                    "item {pos} {}",
                    store.name(id)
                );
            }
        }
        // encoder gradients: one walk over the summed table gradient
        // against the sum of three walks, equal up to rounding
        let fold = |bufs: Vec<&GradBuffer>| {
            let mut total = store.grad_buffer();
            bufs.into_iter().for_each(|b| total.accumulate(b));
            total
        };
        let got = fold(got.iter().map(|(_, g, _)| g).collect());
        let want = fold(want.iter().map(|(g, _)| g).collect());
        for id in store.ids().filter(|&id| !is_head(store.name(id))) {
            let norm = |v: &mut dyn Iterator<Item = f32>| v.map(|x| x * x).sum::<f32>().sqrt();
            let diff = norm(&mut got.grad(id).iter().zip(want.grad(id)).map(|(a, b)| a - b));
            let scale = norm(&mut want.grad(id).iter().copied());
            assert!(scale > 0.0, "{} gets no gradient", store.name(id));
            assert!(
                diff <= 1e-5 * scale,
                "{}: |got - want| = {diff} against |want| = {scale}",
                store.name(id)
            );
        }
    }

    #[test]
    fn validation_scores_are_evaluate_model_bitwise() {
        let mut rng = StdRng::seed_from_u64(23);
        let set = diamond_set(&mut rng, 5, true);
        let val: Vec<(&Instance, f64)> = set.iter().map(|(i, o)| (i, *o)).collect();
        let mut store = ParamStore::new();
        let harp = small_harp(&mut store);
        for workers in [1, 2, 3] {
            let got = validation_scores(
                &Runtime::new(workers),
                &harp,
                &store,
                &val,
                EvalOptions::default(),
            );
            for ((inst, opt), got) in val.iter().zip(got) {
                let (mlu, _) = evaluate_model(&harp, &store, inst, EvalOptions::default());
                assert_eq!(got.to_bits(), norm_mlu(mlu, *opt).to_bits());
            }
        }
    }

    #[test]
    fn early_stopping_respects_patience() {
        let (topo, tunnels) = diamond();
        let mut tm = TrafficMatrix::zeros(4);
        tm.set_demand(0, 3, 10.0);
        let inst = Instance::compile(&topo, &tunnels, &tm);
        let oracle = MluOracle::default();
        let opt = oracle.solve(&inst.program).mlu;
        let train_refs = vec![(&inst, opt)];
        let val_refs = vec![(&inst, opt)];
        let mut store = ParamStore::new();
        let mut mrng = StdRng::seed_from_u64(2);
        let cfg = HarpConfig {
            gnn_layers: 1,
            gnn_hidden: 4,
            d_model: 8,
            settrans_layers: 1,
            heads: 1,
            d_ff: 8,
            mlp_hidden: 8,
            rau_iters: 1,
        };
        let harp = Harp::new(&mut store, &mut mrng, cfg);
        let report = train_model(
            &harp,
            &mut store,
            &train_refs,
            &val_refs,
            TrainConfig {
                epochs: 200,
                batch_size: 1,
                lr: 1e-3,
                patience: 3,
                ..Default::default()
            },
            EvalOptions::default(),
        )
        .expect("healthy training run");
        assert!(report.history.len() <= 200);
        assert!(report.history.len() > report.best_epoch);
    }
}
