//! The single-link failure drill shared by the GEANT and Abilene
//! experiments (Figs 9, 10, 17): train each scheme on the healthy topology,
//! then test every (test TM × single complete link failure) combination.
//! Tunnels are *not* recomputed (the paper's setting): HARP must move
//! traffic off dead tunnels on its own; DOTE/TEAL get local rescaling.

use std::rc::Rc;

use harp_core::{evaluate_model, norm_mlu, Instance};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::data::{refs, Oracles, StaticSetup};
use crate::zoo::{train_config, Scheme, Zoo, ZooModel};

/// The drilled schemes; both setups route over 8 shortest paths per flow.
pub const SCHEMES: [Scheme; 3] = [
    Scheme::Harp { rau_iters: 7 },
    Scheme::Dote,
    Scheme::Teal {
        tunnels_per_flow: 8,
    },
];

/// NormMLU samples per failure scenario per scheme.
pub struct DrillResult {
    /// `(link label, per-scheme NormMLU vectors over test TMs)`.
    pub per_link: Vec<(String, Vec<Vec<f64>>)>,
    /// Scheme names, aligned with the inner vectors.
    pub scheme_names: Vec<String>,
}

impl DrillResult {
    /// All samples of scheme `i` pooled across failure scenarios.
    pub fn pooled(&self, scheme: usize) -> Vec<f64> {
        self.per_link
            .iter()
            .flat_map(|(_, per_scheme)| per_scheme[scheme].iter().copied())
            .collect()
    }
}

/// Train [`SCHEMES`] on `setup`'s healthy topology, then fail every
/// undirected link completely (capacity floored at `1e-4`) over the
/// setup's test TMs.
pub fn run(quick: bool, setup: &StaticSetup, oracles: &mut Oracles, zoo: &mut Zoo) -> DrillResult {
    let models = train(quick, setup, oracles, zoo);
    let test_idx = setup.test_indices(if quick { 6 } else { 32 });
    let mut per_link = Vec::new();
    for (li, (u, v, f, r)) in setup.topo.links().into_iter().enumerate() {
        let mut failed = setup.topo.clone();
        failed.set_capacity(f, 1e-4).expect("edge");
        failed.set_capacity(r, 1e-4).expect("edge");
        let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); SCHEMES.len()];
        for &i in &test_idx {
            let inst = setup.instance_on(&failed, i);
            let opt = oracles.solve(format!("{}/fail{li}/{i}", setup.name), &inst);
            for ((scheme, zm), out) in SCHEMES.iter().zip(&models).zip(&mut per_scheme) {
                let (mlu, _) =
                    evaluate_model(zm.as_model(), &zm.store, &inst, scheme.eval_options());
                out.push(norm_mlu(mlu, opt));
            }
        }
        per_link.push((format!("{u}-{v}"), per_scheme));
    }
    DrillResult {
        per_link,
        scheme_names: models.iter().map(|m| m.model.name().to_string()).collect(),
    }
}

/// The schemes trained on the healthy topology.
fn train(
    quick: bool,
    setup: &StaticSetup,
    oracles: &mut Oracles,
    zoo: &mut Zoo,
) -> Vec<Rc<ZooModel>> {
    let train_idx = setup.train_indices(if quick { 24 } else { 96 });
    let base_train = setup.solved(oracles, &train_idx);
    let base_val = setup.solved(oracles, &setup.val_indices());
    // Partial-failure augmentation for the *training* set only: random
    // links lose 50-95% of capacity. Complete failures remain unseen (they
    // are what the drill tests); this teaches the RAU's bottleneck-feedback
    // rule at larger utilization magnitudes so it extrapolates to dead
    // links — the behaviour §4 of the paper reports for HARP
    // ("automatically ensures no traffic is carried on unavailable
    // tunnels"). See EXPERIMENTS.md for the negative result without it.
    let mut arng = StdRng::seed_from_u64(4242);
    let links = setup.topo.links();
    let mut aug_insts: Vec<Instance> = Vec::new();
    for (ai, &i) in train_idx.iter().enumerate().step_by(2) {
        let mut topo = setup.topo.clone();
        for _ in 0..(1 + ai % 2) {
            let &(_, _, f, r) = links.choose(&mut arng).expect("links");
            // half mild (50-90%), half near-complete (95-99.5%) —
            // complete failures (the capacity floor) remain unseen
            let sev = if arng.gen_bool(0.5) {
                arng.gen_range(0.5..0.9)
            } else {
                arng.gen_range(0.95..0.995)
            };
            let c = topo.capacity(f);
            topo.set_capacity(f, c * (1.0 - sev)).expect("cap");
            let c = topo.capacity(r);
            topo.set_capacity(r, c * (1.0 - sev)).expect("cap");
        }
        aug_insts.push(setup.instance_on(&topo, i));
    }
    let keyed = aug_insts
        .iter()
        .enumerate()
        .map(|(ai, inst)| (format!("{}/aug/{ai}", setup.name), inst));
    let aug_opts = oracles.chain(keyed);
    let aug: Vec<(&Instance, f64)> = aug_insts.iter().zip(aug_opts).collect();
    // keep the last two augmented instances for validation so model
    // selection cannot early-stop on a trivially-perfect healthy val set
    let split = aug.len().saturating_sub(2);
    let train: Vec<(&Instance, f64)> = refs(&base_train)
        .into_iter()
        .chain(aug[..split].iter().copied())
        .collect();
    let val: Vec<(&Instance, f64)> = refs(&base_val)
        .into_iter()
        .chain(aug[split..].iter().copied())
        .collect();
    SCHEMES
        .iter()
        .map(|&s| {
            let name = format!("{}-{}", setup.name, s.label());
            zoo.train(&name, s, &train, &val, train_config(quick))
        })
        .collect()
}
