//! The supervisor half of retraining: run one [`TrainJob`] in an exec'd
//! `harp-trainerd` child under `harp-super` supervision and reduce the
//! outcome to what the lifecycle engine folds into its deterministic
//! event log. Every lifecycle generation, the bootstrap included, goes
//! through here.
//!
//! Wall-clock effects (backoff sleeps, watchdog waits, kill grace) stay
//! inside `harp_super::supervise`; everything returned here is a pure
//! function of the child's behavior, so a lifecycle run stays
//! bitwise-reproducible per seed.

use std::fs;
use std::path::{Path, PathBuf};

use harp_super::{supervise, Rung, SupervisorConfig};

use crate::trainerd::{job_to_json, TrainJob};

/// What one supervised retrain ended as, in engine terms.
#[derive(Debug)]
pub struct SupervisedResult {
    /// Trained parameter file, when the trainer shipped before its
    /// restart budget ran out.
    pub params_path: Option<PathBuf>,
    /// Restarts consumed across the escalation ladder.
    pub restarts: u64,
    /// IPC protocol violations the supervisor surfaced (garbled frames,
    /// bad schema, truncation).
    pub ipc_errors: u64,
    /// Watchdog deadline misses (hung or silent child).
    pub heartbeat_misses: u64,
    /// True when the restart budget ran out without a ship.
    pub dead: bool,
    /// Final failure reason when `dead` (empty otherwise).
    pub detail: String,
    /// Deterministic logical log (attempts, rungs, reasons — no pids, no
    /// timings) for the engine's event stream.
    pub log: Vec<String>,
}

/// Run `job` to completion under supervision. `exe` must speak the child
/// protocol when spawned with `HARP_TRAINERD_CHILD=1` — either the
/// dedicated `harp-trainerd` binary or any binary calling
/// `maybe_run_child` first thing in `main`. `seed` drives the backoff
/// jitter only. The watchdog and restart policy are
/// [`SupervisorConfig::new`]'s defaults; the environment changes none of
/// them, so every retrain of a drill runs under the same ladder.
///
/// On the params-only rung the restart hook wipes the job's checkpoint
/// dir, so a child that keeps dying on resume (poisoned snapshot) falls
/// back to re-fine-tuning from the job's starting parameter file alone.
pub fn run_supervised(job: &TrainJob, exe: &Path, seed: u64) -> SupervisedResult {
    let mut cfg = SupervisorConfig::new(exe.to_path_buf(), job_to_json(job));
    cfg.envs
        .push(("HARP_TRAINERD_CHILD".to_string(), "1".to_string()));
    cfg.seed = seed;

    let ckpt = job.checkpoint_dir.clone();
    let mut on_restart = |_attempt: u64, rung: Rung| {
        if rung == Rung::ParamsOnly {
            // resume is poisoned or useless past this rung: drop the
            // snapshots and let the child start over from its parameter file
            let _ = fs::remove_dir_all(&ckpt);
        }
    };
    let out = supervise(&cfg, &mut on_restart);

    let mut log = out.log;
    let params_path = match out.shipped {
        Some((generation, path)) if generation == job.generation => Some(PathBuf::from(path)),
        Some((generation, _)) => {
            // a ship for the wrong generation is a protocol violation —
            // treat it like a dead trainer rather than shipping bad bits
            log.push(format!(
                "ship generation skew: child shipped {generation}, job wants {}",
                job.generation
            ));
            None
        }
        None => None,
    };
    let generation_skew = params_path.is_none() && !out.dead;
    SupervisedResult {
        params_path,
        restarts: out.restarts,
        ipc_errors: out.ipc_errors + u64::from(generation_skew),
        heartbeat_misses: out.heartbeat_misses,
        dead: out.dead || generation_skew,
        detail: if generation_skew {
            "ship generation skew".to_string()
        } else {
            out.detail
        },
        log,
    }
}
