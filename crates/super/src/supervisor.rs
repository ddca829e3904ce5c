//! The supervisor: runs one trainer job in a child process, watches its
//! heartbeat, and climbs an escalation ladder when the child misbehaves.
//!
//! Ladder, in order:
//!
//! 1. **restart from last snapshot** (first `snapshot_budget` restarts) —
//!    the child's `checkpoint_dir` is intact, so resume is bitwise-exact;
//! 2. **restart from params only** (remaining restarts) — the caller's
//!    `on_restart` hook wipes the checkpoint dir and the child fine-tunes
//!    again from the warm-start parameters;
//! 3. **declare the trainer dead** once the restart budget is exhausted —
//!    the fleet keeps serving its last good generation and the caller
//!    surfaces the resulting staleness.
//!
//! Restart pacing is seeded-deterministic exponential backoff with
//! jitter. All wall-clock effects stay inside this module; everything the
//! caller folds into a deterministic event log ([`SupervisorOutcome::log`])
//! is a pure function of the child's behavior, never of timing.

use std::io::BufReader;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use serde_json::Value;

use crate::frame::{write_frame, FrameReader, MAX_FRAME_BYTES};
use crate::msg::{ChildMsg, SuperMsg, PROTO_VERSION};
use crate::process::{status_label, ChildProc};

/// Everything a supervised run needs: how to exec the child, the opaque
/// job to hand it, and the watchdog/restart policy.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Child executable.
    pub exe: PathBuf,
    /// Arguments passed to the child.
    pub args: Vec<String>,
    /// Extra environment entries for the child (inherits the rest).
    pub envs: Vec<(String, String)>,
    /// Opaque job payload delivered in the config frame; the supervisor
    /// never interprets it.
    pub job: Value,
    /// Deadline for the child's hello frame after spawn.
    pub startup_grace_ms: u64,
    /// Deadline between frames once the child said hello (per-epoch
    /// liveness: progress and heartbeat frames both reset it).
    pub heartbeat_ms: u64,
    /// SIGTERM grace before SIGKILL when tearing a child down.
    pub term_grace_ms: u64,
    /// Total restarts allowed before the trainer is declared dead.
    pub restart_budget: u64,
    /// How many of those restarts resume from the last snapshot; the rest
    /// fall back to the params-only rung.
    pub snapshot_budget: u64,
    /// Backoff before restart n is `min(base * 2^(n-1), max) + jitter`.
    pub backoff_base_ms: u64,
    /// Backoff ceiling (before jitter).
    pub backoff_max_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Per-frame payload cap for the child's stdout stream.
    pub max_frame_bytes: usize,
}

impl SupervisorConfig {
    /// Policy defaults for `exe` + `job`: 10 s startup grace, 30 s
    /// heartbeat, 2 s term grace, 5 restarts (3 from snapshot), 50 ms
    /// backoff base capped at 2 s.
    pub fn new(exe: PathBuf, job: Value) -> Self {
        SupervisorConfig {
            exe,
            args: Vec::new(),
            envs: Vec::new(),
            job,
            startup_grace_ms: 10_000,
            heartbeat_ms: 30_000,
            term_grace_ms: 2_000,
            restart_budget: 5,
            snapshot_budget: 3,
            backoff_base_ms: 50,
            backoff_max_ms: 2_000,
            seed: 0,
            max_frame_bytes: MAX_FRAME_BYTES,
        }
    }
}

/// Which escalation rung a restart runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// The checkpoint dir is intact; the child resumes bitwise-exactly.
    FromSnapshot,
    /// The caller wiped the checkpoint dir; the child re-fine-tunes from
    /// the warm-start parameters alone.
    ParamsOnly,
}

impl Rung {
    /// Stable name used in logs and events.
    pub fn name(self) -> &'static str {
        match self {
            Rung::FromSnapshot => "snapshot",
            Rung::ParamsOnly => "params-only",
        }
    }
}

/// What one supervised job ended as. `log` is deterministic (logical
/// events only — attempts, rungs, reasons — never pids or timings).
#[derive(Debug)]
pub struct SupervisorOutcome {
    /// `(generation, path)` of the shipped parameter file, if any.
    pub shipped: Option<(u64, String)>,
    /// Restarts consumed (0 = first attempt succeeded).
    pub restarts: u64,
    /// Frames that violated the wire protocol (garbled, truncated, bad
    /// schema).
    pub ipc_errors: u64,
    /// Watchdog deadline misses (hung or silent child).
    pub heartbeat_misses: u64,
    /// True when the restart budget ran out without a ship.
    pub dead: bool,
    /// Final failure reason when `dead` (empty otherwise).
    pub detail: String,
    /// Deterministic logical event log for the caller's records.
    pub log: Vec<String>,
}

/// How one attempt ended (internal).
enum AttemptEnd {
    Shipped {
        generation: u64,
        path: String,
    },
    Failed {
        reason: String,
        ipc_error: bool,
        watchdog: bool,
    },
}

/// Run `cfg.job` under supervision until it ships or the restart budget
/// is exhausted. `on_restart(attempt, rung)` runs before each restart —
/// on the [`Rung::ParamsOnly`] rung it must wipe the child's checkpoint
/// dir so the re-run cannot resume from (possibly poisoned) snapshots.
pub fn supervise(
    cfg: &SupervisorConfig,
    on_restart: &mut dyn FnMut(u64, Rung),
) -> SupervisorOutcome {
    let mut out = SupervisorOutcome {
        shipped: None,
        restarts: 0,
        ipc_errors: 0,
        heartbeat_misses: 0,
        dead: false,
        detail: String::new(),
        log: Vec::new(),
    };
    let mut attempt: u64 = 0;
    loop {
        if attempt > 0 {
            let rung = if attempt <= cfg.snapshot_budget {
                Rung::FromSnapshot
            } else {
                Rung::ParamsOnly
            };
            on_restart(attempt, rung);
            out.restarts += 1;
            out.log
                .push(format!("restart attempt={attempt} rung={}", rung.name()));
            harp_obs::event("super.restart")
                .field("attempt", attempt)
                .field("rung", rung.name())
                .emit();
            std::thread::sleep(Duration::from_millis(backoff_ms(cfg, attempt)));
        }
        match run_attempt(cfg, attempt) {
            AttemptEnd::Shipped { generation, path } => {
                out.log
                    .push(format!("ship attempt={attempt} gen={generation}"));
                harp_obs::event("super.ship")
                    .field("attempt", attempt)
                    .field("generation", generation)
                    .emit();
                out.shipped = Some((generation, path));
                return out;
            }
            AttemptEnd::Failed {
                reason,
                ipc_error,
                watchdog,
            } => {
                if ipc_error {
                    out.ipc_errors += 1;
                    harp_obs::event("super.ipc_error")
                        .field("attempt", attempt)
                        .field("reason", reason.clone())
                        .emit();
                }
                if watchdog {
                    out.heartbeat_misses += 1;
                    harp_obs::event("super.watchdog_miss")
                        .field("attempt", attempt)
                        .emit();
                }
                out.log.push(format!("attempt={attempt} failed: {reason}"));
                if attempt >= cfg.restart_budget {
                    out.dead = true;
                    out.detail = reason;
                    out.log
                        .push(format!("trainer_dead restarts={}", out.restarts));
                    harp_obs::warn_always(
                        "super.dead",
                        &[
                            ("restarts", out.restarts.into()),
                            ("detail", out.detail.clone().into()),
                        ],
                    );
                    return out;
                }
            }
        }
        attempt += 1;
    }
}

/// Deterministic backoff before restart `attempt` (>= 1): exponential in
/// the attempt number, capped, plus seeded jitter in `[0, base]`.
fn backoff_ms(cfg: &SupervisorConfig, attempt: u64) -> u64 {
    let shift = (attempt - 1).min(16); // lint-free saturation guard
    let expo = cfg
        .backoff_base_ms
        .saturating_mul(1u64 << shift)
        .min(cfg.backoff_max_ms);
    let jitter = splitmix64(cfg.seed ^ attempt) % (cfg.backoff_base_ms + 1);
    expo + jitter
}

/// SplitMix64 — the workspace's standard tiny mixer, reused for jitter.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One spawn-to-reap cycle of the child. Always reaps: every exit path
/// runs the polite-shutdown/terminate teardown (or has already waited).
fn run_attempt(cfg: &SupervisorConfig, attempt: u64) -> AttemptEnd {
    let spawned = ChildProc::spawn(&cfg.exe, &cfg.args, &cfg.envs);
    let (mut child, mut stdin, stdout) = match spawned {
        Ok(t) => t,
        Err(e) => {
            return AttemptEnd::Failed {
                reason: format!("spawn failed: {e}"),
                ipc_error: false,
                watchdog: false,
            }
        }
    };
    harp_obs::event("super.spawn")
        .field("attempt", attempt)
        .field("pid", child.pid())
        .emit();

    let config = SuperMsg::Config {
        attempt,
        job: cfg.job.clone(),
    };
    if let Err(e) = write_frame(&mut stdin, &config.to_value()) {
        let status = child
            .terminate(Duration::from_millis(cfg.term_grace_ms))
            .map(status_label)
            .unwrap_or_else(|we| format!("unreapable: {we}"));
        return AttemptEnd::Failed {
            reason: format!("config write failed ({e}); child {status}"),
            ipc_error: false,
            watchdog: false,
        };
    }

    // Reader thread: frames (and frame errors) flow over a channel so the
    // watchdog is a recv_timeout, not a poll loop. The thread exits on
    // EOF/error; after the child is reaped its pipe EOFs, so the join at
    // the bottom never hangs.
    let (tx, rx) = mpsc::channel::<Result<Option<Value>, crate::frame::FrameError>>();
    let max = cfg.max_frame_bytes;
    let reader = std::thread::spawn(move || {
        let mut frames = FrameReader::with_max(BufReader::new(stdout), max);
        loop {
            match frames.read_frame() {
                Ok(Some(v)) => {
                    if tx.send(Ok(Some(v))).is_err() {
                        break;
                    }
                }
                other => {
                    let _ = tx.send(other);
                    break;
                }
            }
        }
    });

    let mut deadline = Duration::from_millis(cfg.startup_grace_ms);
    let mut phase = "startup";
    let mut shipped: Option<(u64, String)> = None;
    let mut reaped_status: Option<String> = None;
    let end = loop {
        let event = match rx.recv_timeout(deadline) {
            Ok(ev) => ev,
            Err(_) => {
                break AttemptEnd::Failed {
                    reason: format!(
                        "watchdog: no frame within {}ms (phase {phase})",
                        deadline.as_millis()
                    ),
                    ipc_error: false,
                    watchdog: true,
                }
            }
        };
        match event {
            Ok(Some(v)) => match ChildMsg::from_value(&v) {
                Ok(ChildMsg::Hello { proto, .. }) => {
                    if proto != PROTO_VERSION {
                        break AttemptEnd::Failed {
                            reason: format!(
                                "protocol mismatch: child speaks v{proto}, supervisor v{PROTO_VERSION}"
                            ),
                            ipc_error: true,
                            watchdog: false,
                        };
                    }
                    phase = "train";
                    deadline = Duration::from_millis(cfg.heartbeat_ms);
                }
                Ok(ChildMsg::Heartbeat { .. }) => {}
                Ok(ChildMsg::Progress { epoch, loss, val }) => {
                    harp_obs::event("super.progress")
                        .field("attempt", attempt)
                        .field("epoch", epoch)
                        .field("loss", loss)
                        .field("val", val)
                        .emit();
                }
                Ok(ChildMsg::Ship { generation, path }) => {
                    shipped = Some((generation, path));
                    phase = "shutdown";
                }
                Ok(ChildMsg::Done) => match shipped.take() {
                    Some((generation, path)) => break AttemptEnd::Shipped { generation, path },
                    None => {
                        break AttemptEnd::Failed {
                            reason: "child reported done without shipping".to_string(),
                            ipc_error: true,
                            watchdog: false,
                        }
                    }
                },
                Ok(ChildMsg::Failed { detail }) => {
                    break AttemptEnd::Failed {
                        reason: format!("child failed: {detail}"),
                        ipc_error: false,
                        watchdog: false,
                    }
                }
                Err(e) => {
                    break AttemptEnd::Failed {
                        reason: format!("protocol error: {e}"),
                        ipc_error: true,
                        watchdog: false,
                    }
                }
            },
            Ok(None) => {
                // EOF: the child closed stdout. Reap it now so the exit
                // status (deterministic for scripted faults) is the reason.
                let status = child
                    .wait()
                    .map(status_label)
                    .unwrap_or_else(|e| format!("unreapable: {e}"));
                reaped_status = Some(status.clone());
                match shipped.take() {
                    // shipped then died before `done`: the parameter file
                    // is on disk and complete — accept it
                    Some((generation, path)) => break AttemptEnd::Shipped { generation, path },
                    None => {
                        break AttemptEnd::Failed {
                            reason: format!("child {status} before shipping"),
                            ipc_error: false,
                            watchdog: false,
                        }
                    }
                }
            }
            Err(e) => {
                break AttemptEnd::Failed {
                    reason: format!("ipc: {e}"),
                    ipc_error: true,
                    watchdog: false,
                }
            }
        }
    };

    // Teardown: polite shutdown frame, then SIGTERM-grace-SIGKILL unless
    // the EOF path already reaped. The reader thread ends at pipe EOF.
    if reaped_status.is_none() {
        let _ = write_frame(&mut stdin, &SuperMsg::Shutdown.to_value());
        drop(stdin);
        let _ = child.terminate(Duration::from_millis(cfg.term_grace_ms));
    }
    let _ = reader.join();
    end
}
