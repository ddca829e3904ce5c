//! Single-instance inference: the one entry point that turns a compiled
//! [`Instance`] plus a trained [`ParamStore`] into per-tunnel splits.
//!
//! Factored out of evaluation so the offline figure harness
//! ([`crate::evaluate_model`]) and the online serving layer (`harp-serve`)
//! share one code path: forward pass on a fresh tape, per-flow softmax
//! normalization guard, optional local rescaling around failed links, and
//! the exact `f64` MLU — with an explicit finiteness check callers on the
//! request path can act on instead of shipping NaN splits to routers.

use harp_tensor::{ParamStore, Tape};

use crate::eval::EvalOptions;
use crate::loss::splits_from_forward;
use crate::{Instance, SplitModel};

/// The result of one forward pass: normalized splits plus the exact MLU
/// they achieve on the instance's path program.
#[derive(Clone, Debug)]
pub struct Inference {
    /// Per-tunnel split ratios (flat tunnel order, per-flow normalized).
    pub splits: Vec<f64>,
    /// Exact MLU of those splits (f64 path program).
    pub mlu: f64,
}

impl Inference {
    /// True when every split and the MLU are finite numbers. A `false`
    /// here means the model produced NaN/inf activations (diverged
    /// checkpoint, poisoned input) and the result must not be installed
    /// on a network; serving degrades to last-good splits instead.
    pub fn is_finite(&self) -> bool {
        self.mlu.is_finite() && self.splits.iter().all(|s| s.is_finite())
    }
}

/// Run `model` on `instance` and return the [`Inference`]: splits are read
/// off the tape, re-normalized per flow (guards tiny softmax drift), and
/// rescaled around fully-failed links when `opts` asks for it.
///
/// This does **not** validate finiteness — call [`Inference::is_finite`]
/// when the result feeds anything other than offline reporting.
pub fn run_inference(
    model: &dyn SplitModel,
    store: &ParamStore,
    instance: &Instance,
    opts: EvalOptions,
) -> Inference {
    run_inference_impl(model, store, instance, opts, None)
}

/// [`run_inference`] reusing a per-epoch cache from
/// [`SplitModel::precompute_epoch`]: models with a TM-independent stage
/// (HARP's GCN + set transformer) skip it entirely. The cache must have
/// been computed on this topology epoch with this parameter store —
/// passing a stale cache silently yields splits for the wrong network,
/// which is why the serving layer owns invalidation.
pub fn run_inference_cached(
    model: &dyn SplitModel,
    store: &ParamStore,
    instance: &Instance,
    opts: EvalOptions,
    cache: &crate::EpochCache,
) -> Inference {
    run_inference_impl(model, store, instance, opts, Some(cache))
}

fn run_inference_impl(
    model: &dyn SplitModel,
    store: &ParamStore,
    instance: &Instance,
    opts: EvalOptions,
    cache: Option<&crate::EpochCache>,
) -> Inference {
    // `Tape::new` pops a warm bump arena from the global pool (and `Drop`
    // parks it back), so steady-state serving allocates nothing for tape
    // values once the pool has seen one forward of this size. The cached
    // HARP head still makes 269 small allocations on GEANT k=8 (index
    // arrays, argmax and segment scratch, the f64 splits): counted in
    // harp-serve's `tests/alloc_budget.rs`.
    let mut tape = Tape::new();
    let out = match cache {
        Some(c) => model.forward_cached(&mut tape, store, instance, c),
        None => model.forward(&mut tape, store, instance),
    };
    let mut splits = splits_from_forward(&tape, out);
    // guard against tiny float drift in the softmax
    splits = instance.program.normalize_splits(&splits);
    if opts.rescale_failed {
        splits = instance
            .program
            .rescale_around_failures(&splits, opts.failed_threshold);
    }
    let mlu = instance.program.mlu(&splits);
    Inference { splits, mlu }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate_model, Harp, HarpConfig};
    use harp_paths::TunnelSet;
    use harp_topology::Topology;
    use harp_traffic::TrafficMatrix;
    use rand::{rngs::StdRng, SeedableRng};

    fn tiny_setup() -> (Instance, Harp, ParamStore) {
        let mut topo = Topology::new(4);
        topo.add_link(0, 1, 10.0).unwrap();
        topo.add_link(1, 2, 20.0).unwrap();
        topo.add_link(2, 3, 10.0).unwrap();
        topo.add_link(3, 0, 30.0).unwrap();
        let tunnels = TunnelSet::k_shortest(&topo, &[0, 2], 2, 0.0);
        let mut tm = TrafficMatrix::zeros(4);
        tm.set_demand(0, 2, 4.0);
        tm.set_demand(2, 0, 2.0);
        let inst = Instance::compile(&topo, &tunnels, &tm);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
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
        let harp = Harp::new(&mut store, &mut rng, cfg);
        (inst, harp, store)
    }

    #[test]
    fn inference_matches_evaluate_model() {
        let (inst, harp, store) = tiny_setup();
        for opts in [EvalOptions::default(), EvalOptions::with_rescaling()] {
            let inf = run_inference(&harp, &store, &inst, opts);
            let (mlu, splits) = evaluate_model(&harp, &store, &inst, opts);
            assert_eq!(inf.mlu.to_bits(), mlu.to_bits());
            assert_eq!(inf.splits, splits);
            assert!(inf.is_finite());
        }
    }

    #[test]
    fn cached_inference_matches_uncached_bitwise() {
        let (inst, harp, store) = tiny_setup();
        let cache = harp
            .precompute_epoch(&store, &inst)
            .expect("HARP has a cacheable epoch stage");
        for opts in [EvalOptions::default(), EvalOptions::with_rescaling()] {
            let plain = run_inference(&harp, &store, &inst, opts);
            let cached = run_inference_cached(&harp, &store, &inst, opts, &cache);
            assert_eq!(plain.mlu.to_bits(), cached.mlu.to_bits());
            assert_eq!(plain.splits, cached.splits);
        }
    }

    #[test]
    fn cached_inference_tracks_new_traffic_matrices() {
        // One cache, two TMs: the cached path must yield exactly what the
        // full forward yields for each TM (the cache holds only the
        // TM-independent stage).
        let (inst, harp, store) = tiny_setup();
        let cache = harp.precompute_epoch(&store, &inst).unwrap();
        let mut topo = Topology::new(4);
        topo.add_link(0, 1, 10.0).unwrap();
        topo.add_link(1, 2, 20.0).unwrap();
        topo.add_link(2, 3, 10.0).unwrap();
        topo.add_link(3, 0, 30.0).unwrap();
        let tunnels = TunnelSet::k_shortest(&topo, &[0, 2], 2, 0.0);
        let mut tm2 = TrafficMatrix::zeros(4);
        tm2.set_demand(0, 2, 9.0);
        tm2.set_demand(2, 0, 0.5);
        let inst2 = Instance::compile(&topo, &tunnels, &tm2);
        let plain = run_inference(&harp, &store, &inst2, EvalOptions::default());
        let cached = run_inference_cached(&harp, &store, &inst2, EvalOptions::default(), &cache);
        assert_eq!(plain.splits, cached.splits);
        assert_eq!(plain.mlu.to_bits(), cached.mlu.to_bits());
    }

    #[test]
    fn inference_splits_are_normalized_per_flow() {
        let (inst, harp, store) = tiny_setup();
        let inf = run_inference(&harp, &store, &inst, EvalOptions::default());
        assert!(inst.program.splits_are_valid(&inf.splits, 1e-9));
    }

    #[test]
    fn finiteness_check_catches_nan() {
        let bad = Inference {
            splits: vec![0.5, f64::NAN, 0.5],
            mlu: 1.0,
        };
        assert!(!bad.is_finite());
        let bad_mlu = Inference {
            splits: vec![1.0],
            mlu: f64::INFINITY,
        };
        assert!(!bad_mlu.is_finite());
    }
}
