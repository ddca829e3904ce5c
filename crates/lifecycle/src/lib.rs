//! End-to-end WAN lifecycle simulator for the HARP reproduction.
//!
//! This crate closes the loop the paper's evaluation only sketches: it
//! replays a multi-week AnonNet drift sequence — organic growth, failure
//! storms, maintenance windows, flash crowds — as live
//! `topology_update`/`infer` traffic into an in-process `harp-serve`
//! fleet, while every parameter generation — the generation-0 bootstrap
//! and each retrain — is trained by a [`TrainJob`] in an exec'd
//! `harp-trainerd` child under `harp-super` supervision
//! ([`run_supervised`]): it fine-tunes on its window starting from the
//! previous generation's parameter file (generation 0: the seeded init),
//! and the engine hot-ships the result over `reload_checkpoint`. The run is scored as an SLA: NormMLU over
//! time against a per-snapshot LP oracle, time-to-recover per storm, and
//! served-model staleness.
//!
//! Three independent fault surfaces ([`LifecycleConfig::chaos_serve`],
//! [`LifecycleConfig::chaos_ship`], and the per-attempt trainer script
//! [`LifecycleConfig::chaos_proc`]) let one drill exercise connection
//! drops during storms, corrupt checkpoints mid-reload, and a trainer
//! that is SIGKILLed, garbles its IPC or loses a worker mid-fine-tune
//! simultaneously — and every run is bitwise-reproducible from a single
//! seed.

mod engine;
mod metrics;
mod scenario;
mod supervised;
mod trainerd;

pub use engine::{run_lifecycle, LifecycleConfig, LifecycleError, SHARDS};
pub use metrics::{LifecycleReport, RetrainOutcome, StormOutcome, TickSample};
pub use scenario::{FlashCrowd, RetrainPolicy, Scenario, Storm};
pub use supervised::{run_supervised, SupervisedResult};
pub use trainerd::{
    job_from_json, job_to_json, maybe_run_child, run_trainerd, trainerd_main, JobInstance, TrainJob,
};
