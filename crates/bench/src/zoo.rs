//! The model zoo: build models, and train each named model once per
//! process, so experiments sharing a model (Figs 5/6 on one AnonNet
//! cluster, Figs 7/8 on KDL, Figs 10/17 on Abilene, Figs 4/16 and the
//! demand-shift extension on AnonNet) pay its training once.

use std::collections::HashMap;
use std::rc::Rc;

use harp_core::{
    train_model, Dote, EvalOptions, Harp, HarpConfig, Instance, SplitModel, Teal, TealConfig,
    TrainConfig,
};
use harp_tensor::ParamStore;
use rand::{rngs::StdRng, SeedableRng};

/// A model plus its parameter store.
pub struct ZooModel {
    /// The model (trait object so callers can mix schemes).
    pub model: Box<dyn SplitModel>,
    /// Its trained parameters.
    pub store: ParamStore,
}

impl ZooModel {
    /// Shorthand for `&*self.model`.
    pub fn as_model(&self) -> &dyn SplitModel {
        &*self.model
    }
}

/// Which scheme to instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// HARP with the given RAU iterations (`0` = HARP-NoRAU).
    Harp {
        /// RAU recursions.
        rau_iters: usize,
    },
    /// DOTE (fixed layout, sized from the first training instance).
    Dote,
    /// TEAL with the given tunnels-per-flow policy width.
    Teal {
        /// Policy width (max tunnels per flow).
        tunnels_per_flow: usize,
    },
}

impl Scheme {
    /// Scheme label for model names and reports.
    pub fn label(&self) -> String {
        match self {
            Scheme::Harp { rau_iters: 0 } => "harp-norau".into(),
            Scheme::Harp { .. } => "harp".into(),
            Scheme::Dote => "dote".into(),
            Scheme::Teal { .. } => "teal".into(),
        }
    }

    /// Evaluation options the paper applies to this scheme (rescaling for
    /// DOTE/TEAL/NoRAU, none for HARP).
    pub fn eval_options(&self) -> EvalOptions {
        match self {
            Scheme::Harp { rau_iters } if *rau_iters > 0 => EvalOptions::default(),
            _ => EvalOptions::with_rescaling(),
        }
    }
}

/// Instantiate a scheme's model with fresh parameters (seeded).
pub fn build_model(
    scheme: Scheme,
    sample_instance: &Instance,
    seed: u64,
) -> (Box<dyn SplitModel>, ParamStore) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let model: Box<dyn SplitModel> = match scheme {
        Scheme::Harp { rau_iters } => Box::new(Harp::new(
            &mut store,
            &mut rng,
            HarpConfig {
                rau_iters,
                ..HarpConfig::default()
            },
        )),
        Scheme::Dote => Box::new(Dote::new(
            &mut store,
            &mut rng,
            sample_instance,
            &[128, 128],
        )),
        Scheme::Teal { tunnels_per_flow } => Box::new(Teal::new(
            &mut store,
            &mut rng,
            TealConfig {
                tunnels_per_flow,
                ..TealConfig::default()
            },
        )),
    };
    (model, store)
}

/// Default training config scaled by mode.
pub fn train_config(quick: bool) -> TrainConfig {
    TrainConfig {
        epochs: if quick { 18 } else { 40 },
        batch_size: 8,
        lr: 3e-3,
        clip_norm: 5.0,
        seed: 17,
        patience: if quick { 6 } else { 10 },
        workers: 0, // resolve HARP_THREADS / available parallelism
        ..Default::default()
    }
}

/// Trained models by name, held in memory for one process.
#[derive(Default)]
pub struct Zoo {
    models: HashMap<String, Rc<ZooModel>>,
}

impl Zoo {
    /// The model trained as `name`, if it has been.
    pub fn get(&self, name: &str) -> Option<Rc<ZooModel>> {
        self.models.get(name).cloned()
    }

    /// The model trained as `name`: on the first request a fresh model,
    /// seeded from the name, trained on `(instance, optimal)` pairs; the
    /// same model on every later one.
    pub fn train(
        &mut self,
        name: &str,
        scheme: Scheme,
        train: &[(&Instance, f64)],
        val: &[(&Instance, f64)],
        cfg: TrainConfig,
    ) -> Rc<ZooModel> {
        if let Some(zm) = self.get(name) {
            return zm;
        }
        assert!(!train.is_empty(), "zoo: empty training set for {name}");
        let (model, mut store) = build_model(scheme, train[0].0, 1000 + seed_of(name));
        let t0 = std::time::Instant::now();
        let report = train_model(&*model, &mut store, train, val, cfg, scheme.eval_options())
            // lint: allow(panic) — bench tooling: a failed training run is fatal
            .unwrap_or_else(|e| panic!("zoo: training {name} failed: {e}"));
        println!(
            "[zoo] trained {name}: best val NormMLU {:.4} (epoch {}) in {:.1?} over {} epochs",
            report.best_val,
            report.best_epoch,
            t0.elapsed(),
            report.history.len()
        );
        let zm = Rc::new(ZooModel { model, store });
        self.models.insert(name.to_string(), Rc::clone(&zm));
        zm
    }
}

fn seed_of(name: &str) -> u64 {
    name.bytes()
        .fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64))
}
