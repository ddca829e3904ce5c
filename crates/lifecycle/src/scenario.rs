//! The scenario DSL: a declarative description of one lifecycle drill —
//! which AnonNet drift sequence to replay, when failure storms and flash
//! crowds strike, and under what policy the online trainer fires.
//!
//! A [`Scenario`] is pure data; the engine owns the virtual clock (one
//! tick per replayed snapshot) and interprets the schedule. Everything
//! downstream is deterministic in `seed`: the drift sequence, the storm
//! link draws, retrain triggers, and the resulting event log.

use harp_datasets::AnonNetConfig;

/// A burst of correlated link failures at a fixed virtual tick, restored
/// `duration` ticks later (unless a maintenance window lands first).
#[derive(Clone, Debug)]
pub struct Storm {
    /// Virtual tick at which the storm strikes.
    pub at_tick: usize,
    /// How many extra links to take down (connectivity-preserving draws;
    /// fewer may fail if the topology cannot spare them).
    pub links: usize,
    /// Ticks until the storm's links are restored.
    pub duration: usize,
}

/// A demand surge: every traffic matrix inside the window is scaled.
#[derive(Clone, Debug)]
pub struct FlashCrowd {
    /// Virtual tick at which the surge begins.
    pub at_tick: usize,
    /// Surge length in ticks.
    pub duration: usize,
    /// Demand multiplier applied while the surge is active.
    pub multiplier: f64,
}

/// When and how the online trainer fires.
#[derive(Clone, Debug)]
pub struct RetrainPolicy {
    /// Fine-tuning starts when the rolling-mean NormMLU exceeds this.
    pub normmlu_trigger: f64,
    /// Ticks in the rolling NormMLU window (also the storm baseline).
    pub rolling_window: usize,
    /// Minimum ticks between consecutive retrain triggers.
    pub min_interval: usize,
    /// Most recent scored instances kept as the fine-tuning set.
    pub train_window: usize,
    /// Fine-tuning epochs per retrain.
    pub epochs: usize,
    /// Virtual ticks a retrain takes before its parameters ship; the
    /// engine rendezvouses with the supervised trainer at `trigger + delay`.
    pub ship_delay: usize,
    /// Fine-tuning learning rate.
    pub lr: f32,
}

/// One lifecycle drill, fully determined by `seed`.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (recorded in the report).
    pub name: String,
    /// Master seed: drives the AnonNet stream, storm draws, and model init.
    pub seed: u64,
    /// The drift sequence to replay (`seed` overrides its seed field).
    pub anonnet: AnonNetConfig,
    /// Stop after this many ticks (0 = replay the whole stream).
    pub max_ticks: usize,
    /// Leading snapshots used to pretrain generation 0 before serving
    /// starts (they are still replayed as live traffic afterwards).
    pub bootstrap_ticks: usize,
    /// Epochs for the generation-0 pretrain.
    pub bootstrap_epochs: usize,
    /// Scheduled failure storms.
    pub storms: Vec<Storm>,
    /// Scheduled demand surges.
    pub flash_crowds: Vec<FlashCrowd>,
    /// Online-retraining policy.
    pub retrain: RetrainPolicy,
    /// A storm counts as recovered once NormMLU returns to within this
    /// factor of its pre-storm rolling baseline.
    pub recover_factor: f64,
}

impl Scenario {
    /// The CI-sized drill: two clusters of a tiny universe, one storm,
    /// one retrain cycle, a couple hundred LP solves end to end.
    pub fn quick(seed: u64) -> Self {
        let mut anonnet = AnonNetConfig::tiny();
        anonnet.seed = seed;
        anonnet.num_clusters = 2;
        anonnet.cluster_size_range = (10, 12);
        anonnet.large_cluster_size = 12;
        Scenario {
            name: "quick".to_string(),
            seed,
            anonnet,
            max_ticks: 0,
            bootstrap_ticks: 5,
            bootstrap_epochs: 4,
            storms: vec![Storm {
                at_tick: 8,
                links: 2,
                duration: 3,
            }],
            flash_crowds: vec![FlashCrowd {
                at_tick: 14,
                duration: 3,
                multiplier: 1.5,
            }],
            retrain: RetrainPolicy {
                normmlu_trigger: 1.02,
                rolling_window: 3,
                min_interval: 5,
                train_window: 8,
                epochs: 3,
                ship_delay: 2,
                lr: 1e-3,
            },
            recover_factor: 1.10,
        }
    }

    /// The flagship drill behind `BENCH_lifecycle.json`: three phases of
    /// the full 26-node universe, three storms, a flash crowd, and several
    /// retrain generations.
    pub fn flagship(seed: u64) -> Self {
        let anonnet = AnonNetConfig {
            seed,
            num_clusters: 3,
            cluster_size_range: (20, 26),
            large_cluster_size: 26,
            tunnels_per_flow: 8,
            ..AnonNetConfig::default()
        };
        Scenario {
            name: "flagship".to_string(),
            seed,
            anonnet,
            max_ticks: 0,
            bootstrap_ticks: 8,
            bootstrap_epochs: 8,
            storms: vec![
                Storm {
                    at_tick: 14,
                    links: 3,
                    duration: 5,
                },
                Storm {
                    at_tick: 38,
                    links: 2,
                    duration: 4,
                },
                Storm {
                    at_tick: 58,
                    links: 3,
                    duration: 5,
                },
            ],
            flash_crowds: vec![FlashCrowd {
                at_tick: 28,
                duration: 6,
                multiplier: 1.6,
            }],
            retrain: RetrainPolicy {
                normmlu_trigger: 1.03,
                rolling_window: 4,
                min_interval: 10,
                train_window: 12,
                epochs: 4,
                ship_delay: 3,
                lr: 1e-3,
            },
            recover_factor: 1.10,
        }
    }
}
