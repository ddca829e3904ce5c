//! `onboard_uscarrier`: one op onboards a never-seen variant of the
//! UsCarrier-158 stand-in with the GEANT-trained model — `k_shortest` →
//! `Instance::compile` → `precompute_epoch` → first cached inference →
//! split-validity check. Zero-shot transfer at 7x the node count: Yen and
//! the set transformer over tunnels ~40 hops long dominate, the head is a
//! few percent.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::io;

use harp_core::{run_inference, run_inference_cached, EvalOptions, Harp, Instance, SplitModel};
use harp_opt::PathProgram;
use harp_paths::TunnelSet;
use harp_tensor::ParamStore;
use harp_topology::Topology;

use crate::estimators::TailMode;
use crate::runner::{repeat_setup, Generator, Loop, OpResult, Workload};
use crate::trace::Tracer;
use crate::world::{self, SetupLog, ONBOARD_K};
use crate::{layers, Args, Outcome};

/// Variants whose served MLU is compared with the LP optimum after the timed
/// region: ops 0..8, whichever phase they ran in, so the sample is a pure
/// function of the seed.
const QUALITY_OPS: u64 = 8;

struct OnboardWorld {
    harp: Harp,
    store: ParamStore,
    base: Topology,
    edge_nodes: Vec<usize>,
    log: SetupLog,
}

fn build(seed: u64) -> OnboardWorld {
    let mut log = SetupLog::default();
    let g = world::geant(seed, 0, &mut log);
    let (harp, store) = world::trained_harp(&g, &mut log);
    let (base, edge_nodes) = world::us_carrier();
    OnboardWorld {
        harp,
        store,
        base,
        edge_nodes,
        log,
    }
}

struct Session {
    seed: u64,
    w: OnboardWorld,
    tr: Tracer,
    /// `(program, served MLU)` of the first [`QUALITY_OPS`] variants.
    quality: Vec<(PathProgram, f64)>,
    /// The last variant onboarded (probes reuse it).
    last: Option<(Instance, TunnelSet)>,
    notes: Vec<String>,
}

impl Workload for Session {
    fn spans(&mut self, on: bool) {
        self.tr.set_enabled(on);
    }

    fn op(&mut self, i: u64, _block: usize) -> OpResult {
        self.tr.set_op(i);
        let w = &self.w;
        let (topo, tm) = world::us_carrier_variant(&w.base, &w.edge_nodes, self.seed, i);
        let t = std::time::Instant::now();
        let (inst, tunnels, mlu, ok) = self.tr.scope("onboard.op", |tr| {
            let tunnels = tr.scope("paths.yen", |_| {
                TunnelSet::k_shortest(&topo, &w.edge_nodes, ONBOARD_K, 0.0)
            });
            let inst = tr.scope("core.compile", |_| Instance::compile(&topo, &tunnels, &tm));
            let cache = tr.scope("core.precompute", |_| {
                w.harp.precompute_epoch(&w.store, &inst)
            });
            let Some(cache) = cache else {
                return (inst, tunnels, f64::NAN, false);
            };
            let inf = tr.scope("core.head", |_| {
                run_inference_cached(&w.harp, &w.store, &inst, EvalOptions::default(), &cache)
            });
            // installable: finite, non-negative, one split per tunnel of a
            // flow that has all its tunnels, summing to 1 per flow
            let ok = tr.scope("opt.validity", |_| {
                inf.is_finite()
                    && tunnels.num_flows() == w.edge_nodes.len() * (w.edge_nodes.len() - 1)
                    && inst.program.splits_are_valid(&inf.splits, 1e-9)
            });
            (inst, tunnels, inf.mlu, ok)
        });
        let lat_ns = t.elapsed().as_nanos() as u64;
        if !ok {
            self.notes
                .push(format!("INVALID onboarding of variant {i}"));
        }
        if i < QUALITY_OPS {
            self.quality.push((inst.program.clone(), mlu));
        }
        self.last = Some((inst, tunnels));
        OpResult { ok, lat_ns }
    }
}

/// Run `onboard_uscarrier`.
pub fn run(args: &Args) -> io::Result<Outcome> {
    let (w, setup_s) = repeat_setup(args.quick, || build(args.seed));
    let mut s = Session {
        seed: args.seed,
        w,
        tr: Tracer::new(false),
        quality: Vec::new(),
        last: None,
        notes: Vec::new(),
    };
    let mut lp = Loop::new(Generator::Inline);
    let first_op_ms = lp.warm_up(args.measure().mul_f64(0.05), 2, &mut s);
    let mut out = Outcome::new(setup_s, first_op_ms, TailMode::Pooled);
    if args.trace {
        s.traced(args, &mut lp, &mut out)?;
    } else {
        out.blocks = lp.blocks(args.measure(), args.blocks(3), &mut s)?;
    }

    // After the timed region: the LP optimum of the sampled variants, and
    // what uniform splits would have scored on them, so a reader can see the
    // quality number is not vacuous.
    let n = s.quality.len() as f64;
    let (mut served, mut uniform) = (0.0, 0.0);
    for (program, mlu) in &s.quality {
        let optimum = s.w.log.oracle(program);
        served += mlu / optimum / n;
        uniform += program.mlu(&program.uniform_splits()) / optimum / n;
    }
    out.norm_mlu_mean = served;
    out.quality_note = format!(
        "variants 0..{n} vs LP optimum (uniform splits on the same variants: {uniform:.4})"
    );
    if args.trace {
        layers::setup_layers(&s.w.log, &mut out.layers);
        s.tr.write_json(&args.trace_path(), &args.workload, args.seed)?;
    }
    out.tally = lp.tally;
    out.notes = s.notes;
    Ok(out)
}

impl Session {
    /// The op is already a sequence of public calls, so the spans go inside
    /// it: blocks with spans on give the layers, blocks with spans off the
    /// untraced op they must add up to.
    fn traced(&mut self, args: &Args, lp: &mut Loop, out: &mut Outcome) -> io::Result<()> {
        let e2e_us = layers::on_off_blocks(lp, args.measure().mul_f64(0.85), self, out)?;

        let (inst, tunnels) = self.last.as_ref().expect("ops ran");
        let (harp, store) = (&self.w.harp, &self.w.store);
        let two_edges: BTreeSet<usize> =
            tunnels.tunnels_of(0)[0].0.iter().take(2).copied().collect();
        let uniform = inst.program.uniform_splits();
        for _ in 0..layers::PROBE_REPS {
            self.tr.scope("paths.prune", |_| {
                black_box(tunnels.without_edges(&two_edges))
            });
            self.tr
                .scope("opt.mlu", |_| black_box(inst.program.mlu(&uniform)));
        }
        for _ in 0..3 {
            self.tr.scope("core.full_forward", |_| {
                black_box(run_inference(harp, store, inst, EvalOptions::default()))
            });
        }
        out.layers
            .insert("tensor.matmul_gflops", layers::matmul_gflops());

        let med = layers::span_medians_us(
            &self.tr,
            &[
                ("paths.yen_ms", "paths.yen", 1e-3),
                ("paths.prune_us", "paths.prune", 1.0),
                ("core.compile_us", "core.compile", 1.0),
                ("core.precompute_ms", "core.precompute", 1e-3),
                ("core.head_us", "core.head", 1.0),
                ("core.full_forward_ms", "core.full_forward", 1e-3),
                ("opt.mlu_us", "opt.mlu", 1.0),
            ],
            &mut out.layers,
        );
        let us = |name: &str| med.get(name).copied().unwrap_or(0.0);
        let stages = [
            "paths.yen",
            "core.compile",
            "core.precompute",
            "core.head",
            "opt.validity",
        ];
        out.budget = Some(layers::Budget {
            e2e_us,
            layers_us: stages.iter().map(|s| us(s)).sum(),
        });
        Ok(())
    }
}
