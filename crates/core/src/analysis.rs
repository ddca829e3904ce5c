//! One-call determinism analysis for a [`SplitModel`]: records the
//! model's tapes on a compiled [`Instance`] and runs every `harp-verify`
//! pass over them — the v1 graph analyzer plus the v2 determinism passes
//! (reduction order, epoch-cache consistency).
//!
//! `cargo xtask analyze` drives this over freshly built HARP/DOTE/TEAL
//! models and gates CI on the combined findings; in debug builds
//! `train_model`'s pre-flight runs the v1 analyzer alone.

use harp_tensor::{ParamStore, Tape};
use harp_verify::{analyze, audit_reduction_order, check_epoch_cache, GraphReport, Severity};

use crate::loss::mlu_loss;
use crate::{Instance, SplitModel};

/// The combined result of every determinism pass over one model on one
/// instance. Each field is an independent [`GraphReport`]; the model is
/// certified by [`DeterminismReport::is_clean`] only when *all* of them
/// are free of `Error`-severity findings.
#[derive(Clone, Debug)]
pub struct DeterminismReport {
    /// Scheme name ([`SplitModel::name`]).
    pub scheme: &'static str,
    /// Nodes recorded by the full forward + loss.
    pub full_nodes: usize,
    /// Nodes recorded by the cached forward.
    pub cached_nodes: usize,
    /// Whether [`SplitModel::precompute_epoch`] returned a cache.
    pub has_epoch_cache: bool,
    /// v1 graph analyzer (shapes, reachability, numerical hazards).
    pub graph: GraphReport,
    /// Reduction-order audit over the full forward + loss tape.
    pub reduction: GraphReport,
    /// Epoch-cache consistency lint (full vs cached forward).
    pub cache: GraphReport,
}

impl DeterminismReport {
    /// Named access to the per-pass reports, for uniform rendering.
    pub fn passes(&self) -> [(&'static str, &GraphReport); 3] {
        [
            ("graph", &self.graph),
            ("reduction-order", &self.reduction),
            ("epoch-cache", &self.cache),
        ]
    }

    /// True when no pass produced an `Error`-severity finding.
    pub fn is_clean(&self) -> bool {
        self.passes().iter().all(|(_, r)| r.is_clean())
    }

    /// Total `Error`-severity findings across all passes.
    pub fn error_count(&self) -> usize {
        self.passes()
            .iter()
            .map(|(_, r)| r.count(Severity::Error))
            .sum()
    }
}

impl std::fmt::Display for DeterminismReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: {} ({} full / {} cached nodes, epoch cache: {})",
            self.scheme,
            if self.is_clean() { "clean" } else { "FINDINGS" },
            self.full_nodes,
            self.cached_nodes,
            if self.has_epoch_cache { "real" } else { "none" },
        )?;
        for (name, report) in self.passes() {
            for d in &report.diagnostics {
                writeln!(f, "  [{name}] {d}")?;
            }
        }
        Ok(())
    }
}

/// Record `model`'s tapes on `instance` and run every determinism pass.
///
/// * Full forward + [`mlu_loss`] tape → v1 [`analyze`] and
///   [`audit_reduction_order`].
/// * `precompute_epoch` + `forward_cached` tape → [`check_epoch_cache`]
///   against the full forward. Models without an epoch cache are handed
///   an empty one; their default `forward_cached` runs the full forward,
///   which the pass reports as `cache-unused`.
pub fn analyze_determinism(
    model: &dyn SplitModel,
    store: &ParamStore,
    instance: &Instance,
) -> DeterminismReport {
    let _span = harp_obs::span("core.analyze_determinism");

    let mut full = Tape::new();
    let full_out = model.forward(&mut full, store, instance);
    let loss = mlu_loss(&mut full, full_out, instance);

    let graph = analyze(&full, loss, Some(store));
    let reduction = audit_reduction_order(&full);

    let epoch = model.precompute_epoch(store, instance);
    let has_epoch_cache = epoch.is_some();
    let mut cached = Tape::new();
    let cached_out = model.forward_cached(&mut cached, store, instance, &epoch.unwrap_or_default());
    let cache = check_epoch_cache(&full, full_out, &cached, cached_out);

    DeterminismReport {
        scheme: model.name(),
        full_nodes: full.len(),
        cached_nodes: cached.len(),
        has_epoch_cache,
        graph,
        reduction,
        cache,
    }
}
