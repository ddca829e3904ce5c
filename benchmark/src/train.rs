//! `train_geant`: one op is one epoch-at-a-time `train_model` call that
//! resumes from `checkpoint_dir` — exactly how `harp-trainerd` trains. Two
//! GEANT snapshots, batch of two, one validation snapshot, one worker.
//!
//! This is the only workload where `Tape::backward_into`, Adam and snapshot
//! I/O run; the serving layers are idle.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use harp_core::{
    evaluate_model, mlu_loss, norm_mlu, train_model, EvalOptions, Instance, SplitModel,
    SNAPSHOT_FILE,
};
use harp_nn::{
    clip_grad_norm, load_snapshot, save_snapshot, Adam, AdamConfig, SnapshotEpoch, TrainSnapshot,
};
use harp_tensor::{GradBuffer, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::estimators::{median_f64, TailMode};
use crate::runner::{repeat_setup, timed_op, Generator, Loop, OpResult, Workload};
use crate::trace::Tracer;
use crate::world::{self, SetupLog};
use crate::{layers, out_dir, Args, Outcome};

const TRAIN: usize = 2;
const VAL: usize = 1;
const HELD_OUT: usize = 4;
/// `norm_mlu_mean` is the model after exactly this many epochs (or the last
/// epoch reached, when a short run ends sooner), so it does not depend on
/// how many ops the timed blocks fitted.
const QUALITY_EPOCH: u64 = 8;

struct TrainWorld {
    /// `[train.., val.., held-out..]`, each with its LP optimum.
    set: Vec<(Instance, f64)>,
    dir: PathBuf,
    log: SetupLog,
}

fn build(seed: u64) -> TrainWorld {
    let mut log = SetupLog::default();
    let g = world::geant(seed, TRAIN + VAL + HELD_OUT, &mut log);
    let set = world::with_optimum(&g, &g.tms, &mut log);
    let dir = out_dir().join("ckpt-train_geant");
    // a stale snapshot would make the first op a resume
    let _ = std::fs::remove_dir_all(&dir);
    TrainWorld { set, dir, log }
}

struct Session {
    seed: u64,
    w: TrainWorld,
    workers: usize,
    tr: Tracer,
    /// Parameters after [`QUALITY_EPOCH`] epochs (or the latest so far).
    quality: Option<(u64, ParamStore)>,
    notes: Vec<String>,
}

impl Workload for Session {
    fn spans(&mut self, on: bool) {
        self.tr.set_enabled(on);
    }

    /// Op `i` trains epoch `i`: a fresh process-like start (new model, new
    /// store, new optimizer) that resumes from the snapshot op `i-1` left.
    fn op(&mut self, i: u64, _block: usize) -> OpResult {
        self.tr.set_op(i);
        let epochs = i as usize + 1;
        let (train, rest) = self.w.set.split_at(TRAIN);
        let (train, val) = (world::refs(train), world::refs(&rest[..VAL]));
        let (harp, mut store) = world::fresh_harp();
        let mut cfg = world::train_config(self.seed, epochs);
        cfg.workers = self.workers;
        cfg.checkpoint_dir = Some(self.w.dir.clone());
        let mut report = None;
        let r = timed_op(|| {
            self.tr.scope("train.op", |_| {
                report =
                    train_model(&harp, &mut store, &train, &val, cfg, EvalOptions::default()).ok();
                report.is_some()
            })
        });
        // the op's output: exactly one new epoch, resumed where the last op
        // stopped, with finite statistics
        let resumed = if i == 0 { None } else { Some(i as usize) };
        let ok = report.is_some_and(|rep| {
            rep.history.len() == epochs
                && rep.resumed_from == resumed
                && rep
                    .history
                    .iter()
                    .all(|h| h.train_loss.is_finite() && h.val_norm_mlu.is_finite())
        });
        if !ok {
            self.notes.push(format!(
                "INVALID train op {i}: wrong history, resume point or loss"
            ));
        }
        if i < QUALITY_EPOCH {
            self.quality = Some((i + 1, store));
        }
        OpResult { ok, ..r }
    }
}

/// Run `train_geant`.
pub fn run(args: &Args) -> io::Result<Outcome> {
    let (w, setup_s) = repeat_setup(args.quick, || build(args.seed));
    let mut s = Session {
        seed: args.seed,
        w,
        workers: 1,
        tr: Tracer::new(false),
        quality: None,
        notes: Vec::new(),
    };
    let mut lp = Loop::new(Generator::Inline);
    let first_op_ms = lp.warm_up(args.measure().mul_f64(0.05), 1, &mut s);
    let mut out = Outcome::new(setup_s, first_op_ms, TailMode::Pooled);
    if args.trace {
        s.traced(args, &mut lp, &mut out)?;
    } else {
        out.blocks = lp.blocks(args.measure(), args.blocks(3), &mut s)?;
    }

    let (epochs, store) = s.quality.take().expect("at least the warm-up op ran");
    let (harp, _) = world::fresh_harp();
    let held_out = &s.w.set[TRAIN + VAL..];
    out.norm_mlu_mean = held_out
        .iter()
        .map(|(inst, opt)| evaluate_model(&harp, &store, inst, EvalOptions::default()).0 / opt)
        .sum::<f64>()
        / held_out.len() as f64;
    out.quality_note =
        format!("model after {epochs} epoch(s) on {HELD_OUT} held-out snapshots vs LP optimum");
    if args.trace {
        layers::setup_layers(&s.w.log, &mut out.layers);
        s.tr.write_json(&args.trace_path(), &args.workload, args.seed)?;
    }
    out.tally = lp.tally;
    out.notes = s.notes;
    Ok(out)
}

impl Session {
    fn traced(&mut self, args: &Args, lp: &mut Loop, out: &mut Outcome) -> io::Result<()> {
        // Phase A: e2e ops, spans alternately on and off (see serve.rs).
        let e2e_us = layers::on_off_blocks(lp, args.measure().mul_f64(0.5), self, out)?;

        // Phase B: the same epoch replayed inline through the public
        // functions `train_model` is built from, one span per stage. Every
        // replay resumes from the snapshot the last e2e op left and saves
        // next to it, so replays do not advance the e2e chain.
        let deadline = Instant::now() + args.measure().mul_f64(0.35);
        let snapshot = self.w.dir.join(SNAPSHOT_FILE);
        let scratch = out_dir()
            .join("ckpt-train_geant-replay")
            .join(SNAPSHOT_FILE);
        if let Some(dir) = scratch.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut n = 0u64;
        while n < 2 || Instant::now() < deadline {
            self.tr.set_op(1_000_000 + n);
            replay_epoch(&mut self.tr, self.seed, &self.w.set, &snapshot, &scratch)?;
            n += 1;
        }
        layers::span_medians_us(
            &self.tr,
            &[
                ("core.forward_ms", "core.forward", 1e-3),
                ("core.loss_us", "core.loss", 1.0),
                ("core.validate_ms", "core.validate", 1e-3),
                ("tensor.backward_ms", "tensor.backward", 1e-3),
                ("tensor.merge_us", "tensor.merge", 1.0),
                ("nn.clip_us", "nn.clip", 1.0),
                ("nn.adam_us", "nn.adam", 1.0),
                ("nn.save_snapshot_ms", "nn.save_snapshot", 1e-3),
                ("nn.load_snapshot_ms", "nn.load_snapshot", 1e-3),
            ],
            &mut out.layers,
        );
        out.budget = Some(layers::Budget {
            e2e_us,
            layers_us: median_f64(&self.tr.total_us("replay")),
        });

        // Phase C: the same op with two workers, one per batch item. On a
        // 2-core host this is the first evidence for or against the
        // data-parallel trainer; with one core it can only read below 1.
        self.workers = 2;
        self.tr.set_enabled(false);
        let w2: Vec<f64> = (0..3)
            .map(|_| {
                let r = self.op(lp.next_op, 0);
                lp.tally.record(r.ok);
                lp.next_op += 1;
                r.lat_ns as f64 / 1e3
            })
            .collect();
        self.workers = 1;
        self.tr.set_enabled(true);
        out.layers
            .insert("runtime.train_speedup_w2", e2e_us / median_f64(&w2));
        out.layers
            .insert("tensor.matmul_gflops", layers::matmul_gflops());
        Ok(())
    }
}

/// One epoch of `train_model`'s loop, stage by stage.
fn replay_epoch(
    tr: &mut Tracer,
    seed: u64,
    set: &[(Instance, f64)],
    snapshot: &Path,
    scratch: &Path,
) -> io::Result<()> {
    let cfg = world::train_config(seed, 0);
    let (train, val) = (&set[..TRAIN], &set[TRAIN..TRAIN + VAL]);
    tr.scope("replay", |tr| {
        let (harp, mut store) = world::fresh_harp();
        let mut opt = Adam::new(&store, AdamConfig::with_lr(cfg.lr));
        let snap = tr.scope("nn.load_snapshot", |_| load_snapshot(&mut store, snapshot))?;
        opt.import_state(&snap.adam)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut rng = StdRng::from_state(snap.rng_state);
        // the rollback anchor train_model takes at every epoch start
        let _anchor = (store.snapshot(), opt.clone(), rng.clone());
        let mut order: Vec<usize> = (0..train.len()).collect();
        order.shuffle(&mut rng);

        store.zero_grads();
        let mut items: Vec<(GradBuffer, f64)> = Vec::with_capacity(order.len());
        for &i in &order {
            let (inst, opt_mlu) = &train[i];
            let mut grads = store.grad_buffer();
            let mut tape = Tape::new();
            let splits = tr.scope("core.forward", |_| harp.forward(&mut tape, &store, inst));
            let (loss, value) = tr.scope("core.loss", |_| {
                let mlu = mlu_loss(&mut tape, splits, inst);
                let loss = tape.mul_scalar(mlu, (1.0 / opt_mlu) as f32 / order.len() as f32);
                (loss, tape.scalar_value(loss) as f64)
            });
            tr.scope("tensor.backward", |_| tape.backward_into(loss, &mut grads));
            items.push((grads, value));
        }
        let epoch_loss = tr.scope("tensor.merge", |_| {
            let mut batch_loss = 0.0;
            let mut total: Option<GradBuffer> = None;
            for (g, l) in items {
                batch_loss += l;
                match &mut total {
                    None => total = Some(g),
                    Some(t) => t.accumulate(&g),
                }
            }
            if let Some(total) = total {
                store.merge_grads(&total);
            }
            batch_loss
        });
        tr.scope("nn.clip", |_| clip_grad_norm(&mut store, cfg.clip_norm))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        tr.scope("nn.adam", |_| opt.step_and_zero(&mut store));
        let val_score = tr.scope("core.validate", |_| {
            val.iter()
                .map(|(inst, opt_mlu)| {
                    norm_mlu(
                        evaluate_model(&harp, &store, inst, EvalOptions::default()).0,
                        *opt_mlu,
                    )
                })
                .sum::<f64>()
                / val.len() as f64
        });

        let improved = val_score < snap.best_val;
        let mut history = snap.history.clone();
        history.push(SnapshotEpoch {
            epoch: snap.next_epoch,
            train_loss: epoch_loss,
            val_norm_mlu: val_score,
        });
        let next = TrainSnapshot {
            adam: opt.export_state(),
            rng_state: rng.state(),
            next_epoch: snap.next_epoch + 1,
            best_epoch: if improved {
                snap.next_epoch
            } else {
                snap.best_epoch
            },
            best_val: val_score.min(snap.best_val),
            since_best: if improved { 0 } else { snap.since_best + 1 },
            rollbacks: snap.rollbacks,
            best_params: if improved {
                store.snapshot()
            } else {
                snap.best_params
            },
            history,
        };
        tr.scope("nn.save_snapshot", |_| {
            save_snapshot(&store, &next, scratch, None)
        })?;
        // train_model returns with the best parameters restored
        store.restore(&next.best_params);
        Ok(())
    })
}
