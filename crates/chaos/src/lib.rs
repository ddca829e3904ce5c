//! # harp-chaos
//!
//! Deterministic fault injection for the HARP stack. A [`FaultPlan`] is a
//! seeded, parseable description of *which* faults fire *when*: a NaN
//! pushed into the gradients at step N, checkpoint bytes corrupted on the
//! Nth write, a worker thread killed mid-epoch, a serve connection dropped
//! or delayed. Library code asks the plan at well-defined injection sites;
//! with no plan installed every site is a single branch on `None`.
//!
//! There is one way to arm a plan: construct a [`FaultPlan`] (or parse
//! one) and hand it to the component under test (`TrainConfig::chaos`,
//! `ServeConfig::chaos`, [`harp_nn::save_snapshot`]'s `chaos` argument).
//! `None` there means no faults. No process-wide state is consulted, so
//! plans are safe under parallel test threads and never leak into child
//! processes.
//!
//! ## Plan grammar
//!
//! Semicolon-separated fault specs, each `name@key=value,key=value`:
//!
//! ```text
//! nan-grad@step=3                      inject NaN into gradients at global step 3
//! kill-worker@epoch=1,worker=1         panic in pool worker 1 during epoch 1
//! corrupt-checkpoint@write=2,mode=flip corrupt the 2nd snapshot write (mode: flip|truncate)
//! drop-conn@nth=4                      close the 4th accepted serve connection immediately
//! delay-conn@nth=2,ms=500              stall the 2nd accepted connection 500 ms before serving
//! drop-conn@every=32                   drop one in every 32 accepted connections, forever
//! delay-conn@every=16,ms=50            stall one in every 16 accepted connections 50 ms
//! abort@epoch=2                        abort training after epoch 2 (simulated crash)
//! kill-trainer@epoch=1,phase=forward   real SIGKILL of the trainer process at a phase
//! kill-trainer@phase=ship              (phase: forward|checkpoint|ship; epoch ignored for ship)
//! garble-ipc@frame=2                   mangle the trainer's 2nd outgoing IPC frame
//! seed=42                              seed for corruption byte positions (default 0)
//! ```
//!
//! Counters (`step`, `write`, `nth`, `epoch`) are 0-based and count from
//! plan start. Every `nth`/`step`-style fault fires **once**; a
//! plan is exhausted when all of its one-shot faults have fired. The
//! `every=` conn faults are **periodic open-loop schedules** for fleet
//! load tests: they re-fire on every Kth accepted connection (1-based:
//! connections K, 2K, ...) and never exhaust. Parsing is strict — an
//! unknown fault name or malformed parameter is a [`PlanParseError`],
//! never silently ignored: a chaos run that silently tests nothing is
//! worse than no chaos run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Which trainer phase a [`FaultKind::KillTrainer`] fault strikes in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainerPhase {
    /// Inside a forward/backward pass of the target epoch.
    Forward,
    /// Right before the target epoch's snapshot write.
    Checkpoint,
    /// After the parameter file is written, before the ship frame.
    Ship,
}

impl TrainerPhase {
    /// Stable name used in the plan grammar and events.
    pub fn name(self) -> &'static str {
        match self {
            TrainerPhase::Forward => "forward",
            TrainerPhase::Checkpoint => "checkpoint",
            TrainerPhase::Ship => "ship",
        }
    }
}

/// How [`FaultKind::CorruptCheckpoint`] mangles the byte stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptMode {
    /// Truncate the buffer to half its length (torn write).
    Truncate,
    /// Flip one byte at a seed-determined offset (bit rot).
    Flip,
}

/// One fault in a plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Poison the merged gradients with NaN at global optimizer step `step`.
    NanGrad {
        /// 0-based global step at which the gradients are poisoned.
        step: u64,
    },
    /// Panic inside pool worker `worker` during epoch `epoch`.
    KillWorker {
        /// 0-based training epoch in which the worker dies.
        epoch: u64,
        /// 0-based worker (chunk) index that panics.
        worker: u64,
    },
    /// Corrupt the bytes of the `write`-th snapshot write.
    CorruptCheckpoint {
        /// 0-based count of snapshot writes before the corrupted one.
        write: u64,
        /// How the bytes are mangled.
        mode: CorruptMode,
    },
    /// Close the `nth` accepted serve connection without reading it.
    DropConn {
        /// 0-based accepted-connection index.
        nth: u64,
    },
    /// Stall the `nth` accepted serve connection for `ms` before serving.
    DelayConn {
        /// 0-based accepted-connection index.
        nth: u64,
        /// Delay in milliseconds.
        ms: u64,
    },
    /// Drop one in every `every` accepted connections (periodic, never
    /// exhausts — an open-loop fault schedule for fleet load tests).
    DropConnEvery {
        /// Period in accepted connections (>= 1; fires on the `every`th,
        /// `2*every`th, ... connection, 1-based).
        every: u64,
    },
    /// Stall one in every `every` accepted connections for `ms` (periodic,
    /// never exhausts).
    DelayConnEvery {
        /// Period in accepted connections (>= 1).
        every: u64,
        /// Delay in milliseconds.
        ms: u64,
    },
    /// Abort training right after epoch `epoch` completes (simulates a
    /// crash between checkpoint and the next epoch; the caller surfaces it
    /// as a typed error, so in-process tests can exercise kill+resume).
    Abort {
        /// 0-based epoch after which training aborts.
        epoch: u64,
    },
    /// SIGKILL the trainer **process** (for real — no unwinding, no
    /// cleanup) at `phase` of epoch `epoch`. Only meaningful inside an
    /// out-of-process trainer under `harp-super` supervision.
    KillTrainer {
        /// 0-based epoch targeted (ignored for [`TrainerPhase::Ship`]).
        epoch: u64,
        /// Where inside the epoch the kill lands.
        phase: TrainerPhase,
    },
    /// Mangle the bytes of the trainer's `frame`-th outgoing IPC frame
    /// (0-based, counted after the config handshake) so the supervisor
    /// sees a framing-level protocol error.
    GarbleIpc {
        /// 0-based outgoing-frame index to garble.
        frame: u64,
    },
}

impl FaultKind {
    /// Short stable name used in events and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::NanGrad { .. } => "nan-grad",
            FaultKind::KillWorker { .. } => "kill-worker",
            FaultKind::CorruptCheckpoint { .. } => "corrupt-checkpoint",
            FaultKind::DropConn { .. } => "drop-conn",
            FaultKind::DelayConn { .. } => "delay-conn",
            FaultKind::DropConnEvery { .. } => "drop-conn-every",
            FaultKind::DelayConnEvery { .. } => "delay-conn-every",
            FaultKind::Abort { .. } => "abort",
            FaultKind::KillTrainer { .. } => "kill-trainer",
            FaultKind::GarbleIpc { .. } => "garble-ipc",
        }
    }

    /// True for periodic faults that re-fire on a schedule and are never
    /// counted toward [`FaultPlan::exhausted`].
    pub fn is_periodic(&self) -> bool {
        matches!(
            self,
            FaultKind::DropConnEvery { .. } | FaultKind::DelayConnEvery { .. }
        )
    }
}

/// A fault plus its fired-once latch.
#[derive(Debug)]
struct Armed {
    kind: FaultKind,
    fired: AtomicBool,
}

/// What [`FaultPlan::conn_fault`] tells the serve accept loop to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnFault {
    /// Close the connection without serving it.
    Drop,
    /// Sleep this many milliseconds before serving the connection.
    DelayMs(u64),
}

/// A deterministic, seeded set of faults with fired-once semantics.
///
/// All query methods take `&self` (latches and counters are atomics), so a
/// plan can be shared via [`Arc`](std::sync::Arc) across trainer,
/// checkpoint writer, pool workers, and serve threads.
#[derive(Debug)]
pub struct FaultPlan {
    faults: Vec<Armed>,
    seed: u64,
    /// Snapshot writes observed so far (drives `corrupt-checkpoint`).
    writes: AtomicU64,
    /// Serve connections observed so far (drives `drop-conn`/`delay-conn`).
    conns: AtomicU64,
    /// Outgoing IPC frames observed so far (drives `garble-ipc`).
    frames: AtomicU64,
}

/// Why a plan string failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanParseError {
    /// The offending spec fragment.
    pub spec: String,
    /// What was wrong with it.
    pub reason: String,
}

impl std::fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault spec `{}`: {}", self.spec, self.reason)
    }
}

impl std::error::Error for PlanParseError {}

impl FaultPlan {
    /// A plan over `faults` with corruption seed `seed`.
    pub fn new(faults: Vec<FaultKind>, seed: u64) -> Self {
        FaultPlan {
            faults: faults
                .into_iter()
                .map(|kind| Armed {
                    kind,
                    fired: AtomicBool::new(false),
                })
                .collect(),
            seed,
            writes: AtomicU64::new(0),
            conns: AtomicU64::new(0),
            frames: AtomicU64::new(0),
        }
    }

    /// Parse the plan grammar (see the crate docs).
    pub fn parse(s: &str) -> Result<Self, PlanParseError> {
        let mut faults = Vec::new();
        let mut seed = 0u64;
        for spec in s.split(';') {
            let spec = spec.trim();
            if spec.is_empty() {
                continue;
            }
            if let Some(v) = spec.strip_prefix("seed=") {
                seed = parse_u64(spec, "seed", v)?;
                continue;
            }
            let (name, params) = match spec.split_once('@') {
                Some((n, p)) => (n.trim(), p),
                None => (spec, ""),
            };
            let get = |key: &str| -> Result<Option<u64>, PlanParseError> {
                for kv in params.split(',') {
                    let kv = kv.trim();
                    if kv.is_empty() {
                        continue;
                    }
                    let (k, v) = kv.split_once('=').ok_or_else(|| PlanParseError {
                        spec: spec.to_string(),
                        reason: format!("parameter `{kv}` is not key=value"),
                    })?;
                    if k.trim() == key {
                        return Ok(Some(parse_u64(spec, key, v)?));
                    }
                }
                Ok(None)
            };
            let require = |v: Option<u64>, key: &str| {
                v.ok_or_else(|| PlanParseError {
                    spec: spec.to_string(),
                    reason: format!("missing required parameter `{key}`"),
                })
            };
            let kind = match name {
                "nan-grad" => FaultKind::NanGrad {
                    step: require(get("step")?, "step")?,
                },
                "kill-worker" => FaultKind::KillWorker {
                    epoch: require(get("epoch")?, "epoch")?,
                    worker: require(get("worker")?, "worker")?,
                },
                "corrupt-checkpoint" => {
                    let write = require(get("write")?, "write")?;
                    let mode = match mode_param(params) {
                        None | Some("flip") => CorruptMode::Flip,
                        Some("truncate") => CorruptMode::Truncate,
                        Some(other) => {
                            return Err(PlanParseError {
                                spec: spec.to_string(),
                                reason: format!("unknown mode `{other}` (flip|truncate)"),
                            })
                        }
                    };
                    FaultKind::CorruptCheckpoint { write, mode }
                }
                "drop-conn" => match get("every")? {
                    Some(every) if every >= 1 => FaultKind::DropConnEvery { every },
                    Some(_) => {
                        return Err(PlanParseError {
                            spec: spec.to_string(),
                            reason: "`every` must be >= 1".to_string(),
                        })
                    }
                    None => FaultKind::DropConn {
                        nth: require(get("nth")?, "nth")?,
                    },
                },
                "delay-conn" => match get("every")? {
                    Some(every) if every >= 1 => FaultKind::DelayConnEvery {
                        every,
                        ms: require(get("ms")?, "ms")?,
                    },
                    Some(_) => {
                        return Err(PlanParseError {
                            spec: spec.to_string(),
                            reason: "`every` must be >= 1".to_string(),
                        })
                    }
                    None => FaultKind::DelayConn {
                        nth: require(get("nth")?, "nth")?,
                        ms: require(get("ms")?, "ms")?,
                    },
                },
                "abort" => FaultKind::Abort {
                    epoch: require(get("epoch")?, "epoch")?,
                },
                "kill-trainer" => {
                    let phase = match str_param(params, "phase") {
                        Some("forward") => TrainerPhase::Forward,
                        Some("checkpoint") => TrainerPhase::Checkpoint,
                        Some("ship") => TrainerPhase::Ship,
                        Some(other) => {
                            return Err(PlanParseError {
                                spec: spec.to_string(),
                                reason: format!(
                                    "unknown phase `{other}` (forward|checkpoint|ship)"
                                ),
                            })
                        }
                        None => {
                            return Err(PlanParseError {
                                spec: spec.to_string(),
                                reason: "missing required parameter `phase`".to_string(),
                            })
                        }
                    };
                    let epoch = match phase {
                        // ship happens once, after the last epoch
                        TrainerPhase::Ship => get("epoch")?.unwrap_or(0),
                        _ => require(get("epoch")?, "epoch")?,
                    };
                    FaultKind::KillTrainer { epoch, phase }
                }
                "garble-ipc" => FaultKind::GarbleIpc {
                    frame: require(get("frame")?, "frame")?,
                },
                other => {
                    return Err(PlanParseError {
                        spec: spec.to_string(),
                        reason: format!("unknown fault `{other}`"),
                    })
                }
            };
            faults.push(kind);
        }
        Ok(FaultPlan::new(faults, seed))
    }

    /// The corruption seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The faults in the plan (fired or not).
    pub fn faults(&self) -> Vec<FaultKind> {
        self.faults.iter().map(|a| a.kind.clone()).collect()
    }

    /// True when every one-shot fault in the plan has fired. Periodic
    /// (`every=`) faults never exhaust and are not counted.
    pub fn exhausted(&self) -> bool {
        self.faults
            .iter()
            .filter(|a| !a.kind.is_periodic())
            .all(|a| a.fired.load(Ordering::SeqCst))
    }

    /// Find the first un-fired fault matching `pred`, latch it as fired,
    /// emit a `chaos.fire` event, and return it.
    fn fire(&self, pred: impl Fn(&FaultKind) -> bool) -> Option<FaultKind> {
        for armed in &self.faults {
            if pred(&armed.kind)
                && armed
                    .fired
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                harp_obs::event("chaos.fire")
                    .field("fault", armed.kind.name())
                    .field_with("detail", || format!("{:?}", armed.kind).into())
                    .emit();
                return Some(armed.kind.clone());
            }
        }
        None
    }

    /// True when a `nan-grad` fault fires at global optimizer step `step`.
    pub fn nan_grad_at(&self, step: u64) -> bool {
        self.fire(|k| matches!(k, FaultKind::NanGrad { step: s } if *s == step))
            .is_some()
    }

    /// True when an `abort` fault fires right after `epoch`.
    pub fn abort_after_epoch(&self, epoch: u64) -> bool {
        self.fire(|k| matches!(k, FaultKind::Abort { epoch: e } if *e == epoch))
            .is_some()
    }

    /// Panic (a deliberate, labelled chaos panic) when a `kill-worker`
    /// fault targets `(epoch, worker)`. Call from inside pool workers; the
    /// runtime's containment layer must turn it into a structured error.
    pub fn maybe_kill_worker(&self, epoch: u64, worker: u64) {
        let hit = self.fire(
            |k| matches!(k, FaultKind::KillWorker { epoch: e, worker: w } if *e == epoch && *w == worker),
        );
        if hit.is_some() {
            // This fault IS an injected worker panic; containment is
            // what's under test. lint: allow(panic) — deliberate chaos
            panic!("harp-chaos: injected kill-worker fault (epoch {epoch}, worker {worker})");
        }
    }

    /// Count one snapshot write and corrupt `bytes` in place when a
    /// `corrupt-checkpoint` fault targets this write. Returns the mode
    /// applied, if any.
    pub fn corrupt_checkpoint_write(&self, bytes: &mut Vec<u8>) -> Option<CorruptMode> {
        let write = self.writes.fetch_add(1, Ordering::SeqCst);
        let hit = self
            .fire(|k| matches!(k, FaultKind::CorruptCheckpoint { write: w, .. } if *w == write))?;
        let FaultKind::CorruptCheckpoint { mode, .. } = hit else {
            return None;
        };
        match mode {
            CorruptMode::Truncate => bytes.truncate(bytes.len() / 2),
            CorruptMode::Flip => {
                if !bytes.is_empty() {
                    let pos = (splitmix64(self.seed ^ write) as usize) % bytes.len();
                    bytes[pos] ^= 0x20; // case-flip keeps it printable but wrong
                }
            }
        }
        Some(mode)
    }

    /// Count one accepted serve connection and return the fault to apply
    /// to it, if any. One-shot `nth=` faults take precedence (and latch);
    /// otherwise the first matching periodic `every=` schedule fires —
    /// without latching, so it recurs every period.
    pub fn conn_fault(&self) -> Option<ConnFault> {
        let conn = self.conns.fetch_add(1, Ordering::SeqCst);
        let hit = self.fire(|k| {
            matches!(k, FaultKind::DropConn { nth } if *nth == conn)
                || matches!(k, FaultKind::DelayConn { nth, .. } if *nth == conn)
        });
        match hit {
            Some(FaultKind::DropConn { .. }) => return Some(ConnFault::Drop),
            Some(FaultKind::DelayConn { ms, .. }) => return Some(ConnFault::DelayMs(ms)),
            _ => {}
        }
        for armed in &self.faults {
            // 1-based period: connection indices every-1, 2*every-1, ...
            let fault = match armed.kind {
                FaultKind::DropConnEvery { every } if (conn + 1).is_multiple_of(every) => {
                    ConnFault::Drop
                }
                FaultKind::DelayConnEvery { every, ms } if (conn + 1).is_multiple_of(every) => {
                    ConnFault::DelayMs(ms)
                }
                _ => continue,
            };
            harp_obs::event("chaos.fire")
                .field("fault", armed.kind.name())
                .field("conn", conn)
                .emit();
            return Some(fault);
        }
        None
    }

    /// True (latched) when a `kill-trainer` fault targets `(epoch, phase)`
    /// — the testable predicate behind [`FaultPlan::maybe_kill_trainer`].
    /// For [`TrainerPhase::Ship`] the epoch is ignored: shipping happens
    /// once, after the last epoch.
    pub fn kill_trainer_due(&self, epoch: u64, phase: TrainerPhase) -> bool {
        self.fire(|k| {
            matches!(k, FaultKind::KillTrainer { epoch: e, phase: p }
                if *p == phase && (phase == TrainerPhase::Ship || *e == epoch))
        })
        .is_some()
    }

    /// SIGKILL the **current process** when a `kill-trainer` fault targets
    /// `(epoch, phase)`. This is a real, uncatchable kill — no unwinding,
    /// no destructors — exactly the failure a supervisor must absorb. Only
    /// arm it inside an out-of-process trainer.
    pub fn maybe_kill_trainer(&self, epoch: u64, phase: TrainerPhase) {
        if self.kill_trainer_due(epoch, phase) {
            harp_super::kill_self_hard();
        }
    }

    /// Count one outgoing IPC frame; true (latched) when a `garble-ipc`
    /// fault targets it. The caller mangles the frame bytes, and the
    /// supervisor must surface a typed protocol error, never a panic.
    pub fn garble_frame_due(&self) -> bool {
        let frame = self.frames.fetch_add(1, Ordering::SeqCst);
        self.fire(|k| matches!(k, FaultKind::GarbleIpc { frame: f } if *f == frame))
            .is_some()
    }
}

fn mode_param(params: &str) -> Option<&str> {
    str_param(params, "mode")
}

fn str_param<'a>(params: &'a str, key: &str) -> Option<&'a str> {
    params.split(',').find_map(|kv| {
        let (k, v) = kv.trim().split_once('=')?;
        (k.trim() == key).then(|| v.trim())
    })
}

fn parse_u64(spec: &str, key: &str, v: &str) -> Result<u64, PlanParseError> {
    v.trim().parse::<u64>().map_err(|_| PlanParseError {
        spec: spec.to_string(),
        reason: format!("`{key}` value `{}` is not a non-negative integer", v.trim()),
    })
}

/// SplitMix64 — a tiny, well-mixed hash used to pick corruption offsets
/// deterministically from `(seed, write index)`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let plan = FaultPlan::parse(
            "nan-grad@step=3; kill-worker@epoch=1,worker=2; \
             corrupt-checkpoint@write=0,mode=truncate; drop-conn@nth=4; \
             delay-conn@nth=2,ms=500; abort@epoch=2; seed=42",
        )
        .unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(
            plan.faults(),
            vec![
                FaultKind::NanGrad { step: 3 },
                FaultKind::KillWorker {
                    epoch: 1,
                    worker: 2
                },
                FaultKind::CorruptCheckpoint {
                    write: 0,
                    mode: CorruptMode::Truncate
                },
                FaultKind::DropConn { nth: 4 },
                FaultKind::DelayConn { nth: 2, ms: 500 },
                FaultKind::Abort { epoch: 2 },
            ]
        );
    }

    #[test]
    fn parses_process_level_faults() {
        let plan = FaultPlan::parse(
            "kill-trainer@epoch=1,phase=forward; kill-trainer@epoch=2,phase=checkpoint; \
             kill-trainer@phase=ship; garble-ipc@frame=2",
        )
        .unwrap();
        assert_eq!(
            plan.faults(),
            vec![
                FaultKind::KillTrainer {
                    epoch: 1,
                    phase: TrainerPhase::Forward
                },
                FaultKind::KillTrainer {
                    epoch: 2,
                    phase: TrainerPhase::Checkpoint
                },
                FaultKind::KillTrainer {
                    epoch: 0,
                    phase: TrainerPhase::Ship
                },
                FaultKind::GarbleIpc { frame: 2 },
            ]
        );
    }

    #[test]
    fn kill_trainer_latches_per_phase_and_epoch() {
        let plan = FaultPlan::parse("kill-trainer@epoch=1,phase=forward; kill-trainer@phase=ship")
            .unwrap();
        assert!(!plan.kill_trainer_due(0, TrainerPhase::Forward));
        assert!(!plan.kill_trainer_due(1, TrainerPhase::Checkpoint));
        assert!(plan.kill_trainer_due(1, TrainerPhase::Forward));
        assert!(!plan.kill_trainer_due(1, TrainerPhase::Forward), "latched");
        // ship matches regardless of epoch
        assert!(plan.kill_trainer_due(99, TrainerPhase::Ship));
        assert!(plan.exhausted());
    }

    #[test]
    fn garble_frame_counts_frames_and_latches() {
        let plan = FaultPlan::parse("garble-ipc@frame=1").unwrap();
        assert!(!plan.garble_frame_due()); // frame 0
        assert!(plan.garble_frame_due()); // frame 1
        assert!(!plan.garble_frame_due()); // frame 2
        assert!(plan.exhausted());
    }

    #[test]
    fn rejects_unknown_and_malformed_specs() {
        for bad in [
            "explode@now=1",
            "nan-grad@step=soon",
            "nan-grad",
            "kill-worker@epoch=1",
            "corrupt-checkpoint@write=0,mode=shred",
            "delay-conn@nth=1",
            "seed=banana",
            "kill-trainer@epoch=1",
            "kill-trainer@epoch=1,phase=sideways",
            "kill-trainer@phase=forward",
            "garble-ipc@frame=soon",
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(!err.to_string().is_empty(), "{bad}");
        }
    }

    #[test]
    fn empty_and_whitespace_plans_are_valid_and_inert() {
        for s in ["", "  ", ";;", " ; "] {
            let plan = FaultPlan::parse(s).unwrap();
            assert!(plan.exhausted(), "{s:?} should have no faults");
            assert!(!plan.nan_grad_at(0));
        }
    }

    #[test]
    fn faults_fire_exactly_once_at_their_trigger() {
        let plan = FaultPlan::parse("nan-grad@step=2").unwrap();
        assert!(!plan.nan_grad_at(0));
        assert!(!plan.nan_grad_at(1));
        assert!(plan.nan_grad_at(2));
        assert!(!plan.nan_grad_at(2), "a fault fires once");
        assert!(plan.exhausted());
    }

    #[test]
    fn corrupt_flip_is_deterministic_per_seed() {
        let mangle = |seed| {
            let plan = FaultPlan::new(
                vec![FaultKind::CorruptCheckpoint {
                    write: 1,
                    mode: CorruptMode::Flip,
                }],
                seed,
            );
            let mut first = b"0123456789abcdef".to_vec();
            assert_eq!(plan.corrupt_checkpoint_write(&mut first), None);
            assert_eq!(first, b"0123456789abcdef".to_vec(), "write 0 untouched");
            let mut second = b"0123456789abcdef".to_vec();
            assert_eq!(
                plan.corrupt_checkpoint_write(&mut second),
                Some(CorruptMode::Flip)
            );
            assert_ne!(second, b"0123456789abcdef".to_vec(), "write 1 corrupted");
            second
        };
        assert_eq!(mangle(7), mangle(7), "same seed, same corruption");
    }

    #[test]
    fn truncate_halves_the_buffer() {
        let plan = FaultPlan::new(
            vec![FaultKind::CorruptCheckpoint {
                write: 0,
                mode: CorruptMode::Truncate,
            }],
            0,
        );
        let mut bytes = vec![9u8; 10];
        assert_eq!(
            plan.corrupt_checkpoint_write(&mut bytes),
            Some(CorruptMode::Truncate)
        );
        assert_eq!(bytes.len(), 5);
    }

    #[test]
    fn kill_worker_panics_only_at_target() {
        let plan = FaultPlan::parse("kill-worker@epoch=1,worker=0").unwrap();
        plan.maybe_kill_worker(0, 0); // wrong epoch: no panic
        plan.maybe_kill_worker(1, 1); // wrong worker: no panic
        let p = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.maybe_kill_worker(1, 0)
        }));
        assert!(p.is_err(), "matching (epoch, worker) must panic");
        plan.maybe_kill_worker(1, 0); // already fired: no second panic
    }

    #[test]
    fn conn_faults_track_accept_order() {
        let plan = FaultPlan::parse("drop-conn@nth=1; delay-conn@nth=2,ms=30").unwrap();
        assert_eq!(plan.conn_fault(), None); // conn 0
        assert_eq!(plan.conn_fault(), Some(ConnFault::Drop)); // conn 1
        assert_eq!(plan.conn_fault(), Some(ConnFault::DelayMs(30))); // conn 2
        assert_eq!(plan.conn_fault(), None); // conn 3
        assert!(plan.exhausted());
    }

    #[test]
    fn periodic_conn_faults_refire_and_never_exhaust() {
        let plan = FaultPlan::parse("drop-conn@every=3").unwrap();
        assert_eq!(plan.faults(), vec![FaultKind::DropConnEvery { every: 3 }]);
        let mut drops = 0;
        for conn in 0..12u64 {
            match plan.conn_fault() {
                Some(ConnFault::Drop) => {
                    drops += 1;
                    assert_eq!((conn + 1) % 3, 0, "fires on every 3rd connection");
                }
                Some(other) => unreachable!("unexpected fault {other:?}"),
                None => {}
            }
        }
        assert_eq!(drops, 4, "periodic faults re-fire each period");
        assert!(
            plan.exhausted(),
            "periodic faults never count toward exhaustion"
        );
    }

    #[test]
    fn periodic_delay_parses_and_one_shot_takes_precedence() {
        let plan = FaultPlan::parse("drop-conn@nth=0; delay-conn@every=1,ms=7").unwrap();
        // conn 0: the one-shot drop wins over the every-conn delay schedule
        assert_eq!(plan.conn_fault(), Some(ConnFault::Drop));
        assert_eq!(plan.conn_fault(), Some(ConnFault::DelayMs(7))); // conn 1
        assert_eq!(plan.conn_fault(), Some(ConnFault::DelayMs(7))); // conn 2

        // strict parse: every=0 and missing ms are rejected
        assert!(FaultPlan::parse("drop-conn@every=0").is_err());
        assert!(FaultPlan::parse("delay-conn@every=4").is_err());
    }
}
