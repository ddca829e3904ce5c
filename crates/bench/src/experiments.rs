//! The experiment table `repro` runs: one entry per table or figure of the
//! paper's evaluation, plus one extension. An entry holds the paper's
//! claims as data and a `run` function that measures them on the shared
//! [`Lab`]. Quick mode (the default) shrinks every sweep.
//!
//! Reading the paper into bounds: "≈ 1.0" is read as ≤ 1.05, "~x" as
//! within a factor of two, and an ordering ("DOTE degrades") as a margin
//! of at least 0.01 NormMLU, or a time ratio of at least 1.

use std::collections::BTreeMap;
use std::ops::Range;
use std::rc::Rc;
use std::time::Instant;

use harp_core::{
    cdf_points, evaluate_model, fraction_at_most, mlu_loss, norm_mlu, percentile, train_model,
    EvalOptions, Instance, SplitModel, TrainConfig,
};
use harp_nn::{clip_grad_norm, Adam, AdamConfig};
use harp_opt::MluOracle;
use harp_paths::{tunnel_churn, TunnelSet};
use harp_runtime::Runtime;
use harp_tensor::{ParamStore, Tape};
use harp_topology::{fail_link_partial, random_partial_failures, Topology};
use harp_traffic::predict::{ExpSmooth, LinReg, MovAvg, Predictor};
use harp_traffic::{gravity_series, GravityConfig, TrafficMatrix};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};
use serde_json::{json, Map, Value};

use crate::data::{self, refs};
use crate::drill::{self, DrillResult};
use crate::lab::Lab;
use crate::report::{cdf_json, normmlu_summary, stats_json};
use crate::scoreboard::Bound::{AtLeast, AtMost, Between};
use crate::scoreboard::{number, ordering, Claim};
use crate::zoo::{self, Scheme, ZooModel};

/// One experiment: an id, the paper's claims and the run measuring them.
pub struct Experiment {
    /// Command-line name and result-file stem (`fig04`).
    pub id: &'static str,
    /// What the experiment reproduces.
    pub title: &'static str,
    /// The paper's claims, aligned with [`Outcome::measured`].
    pub claims: &'static [Claim],
    /// Runs the experiment.
    pub run: fn(&mut Lab) -> Outcome,
}

/// What one run produces.
pub struct Outcome {
    /// The figure's data, written to `<id>.<mode>.json`.
    pub json: Value,
    /// One measured value per claim.
    pub measured: Vec<f64>,
}

const HARP: Scheme = Scheme::Harp { rau_iters: 7 };
const KDL_SCHEMES: [Scheme; 3] = [
    HARP,
    Scheme::Dote,
    Scheme::Teal {
        tunnels_per_flow: 4,
    },
];

/// Every experiment, in the order `repro` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table1",
        title: "Table 1: design elements (measured, not asserted)",
        claims: &[
            ordering(
                "DOTE cells as in the paper (of 4)",
                "no/no/no/no",
                AtLeast(4.0),
            ),
            ordering(
                "TEAL cells as in the paper (of 4)",
                "yes/yes/no/no",
                AtLeast(4.0),
            ),
            ordering(
                "HARP cells as in the paper (of 4)",
                "yes/yes/yes/yes",
                AtLeast(4.0),
            ),
        ],
        run: table1,
    },
    Experiment {
        id: "fig01",
        title: "Figure 1: AnonNet topology variation over time",
        claims: &[
            ordering(
                "totals grow, first to last snapshot (1 = yes)",
                "yes",
                AtLeast(1.0),
            ),
            number(
                "share of snapshots with active < total",
                "pervasive",
                AtLeast(0.5),
            ),
            ordering("distinct edge-node-set sizes", "varies", AtLeast(2.0)),
        ],
        run: fig01,
    },
    Experiment {
        id: "fig03",
        title: "Figure 3: capacity variation within a large cluster + tunnel churn",
        claims: &[
            number(
                "share of links with > 1 capacity value",
                "~40 %",
                Between(0.2, 0.8),
            ),
            number(
                "most unique capacity values on a link",
                "7",
                Between(3.5, 14.0),
            ),
            number(
                "share of links with min/max ≤ 0.8",
                "~20 %",
                Between(0.1, 0.4),
            ),
            number(
                "share of links hitting zero capacity",
                "~5 %",
                Between(0.025, 0.1),
            ),
            number(
                "share of last-cluster tunnels not in the first",
                "~20 %",
                Between(0.1, 0.4),
            ),
            number(
                "share of first-cluster tunnels gone by the last",
                "~8 %",
                Between(0.04, 0.16),
            ),
        ],
        run: fig03,
    },
    Experiment {
        id: "fig04",
        title: "Figure 4: HARP transferability across AnonNet clusters",
        claims: &[
            number("median NormMLU, unseen clusters", "≈ 1.00", AtMost(1.05)),
            number("share of unseen snapshots ≤ 1.11", "98 %", AtLeast(0.98)),
            number("worst NormMLU", "1.86", AtMost(1.86)),
        ],
        run: fig04,
    },
    Experiment {
        id: "fig05",
        title: "Figure 5: HARP vs DOTE within capacity-varying clusters",
        claims: &[
            number("HARP max, cluster A", "1.13", AtMost(1.13)),
            number("HARP max, cluster B", "1.02", AtMost(1.02)),
            number("HARP max, cluster C", "1.07", AtMost(1.07)),
            ordering("DOTE − HARP median, cluster A", "DOTE 1.12", AtLeast(0.01)),
            ordering("DOTE − HARP median, cluster B", "DOTE 2.12", AtLeast(0.01)),
            ordering("DOTE − HARP median, cluster C", "DOTE 2.79", AtLeast(0.01)),
        ],
        run: fig05,
    },
    Experiment {
        id: "fig06",
        title: "Figure 6: RAU ablation (HARP vs HARP-NoRAU)",
        claims: &[
            number("HARP median", "1.01", AtMost(1.01)),
            number("HARP-NoRAU median", "1.56", AtLeast(1.56)),
            ordering("HARP-NoRAU − HARP median", "1.56 vs 1.01", AtLeast(0.01)),
        ],
        run: fig06,
    },
    Experiment {
        id: "fig07",
        title: "Figure 7: tunnel-order invariance on KDL",
        claims: &[
            number("HARP mean, original order", "≈ 1.0", AtMost(1.05)),
            number("DOTE mean, original order", "≈ 1.0", AtMost(1.05)),
            number("TEAL mean, original order", "≈ 1.0", AtMost(1.05)),
            ordering(
                "HARP abs(shuffled − original) mean",
                "unchanged",
                AtMost(0.01),
            ),
            ordering("DOTE shuffled − original mean", "degrades", AtLeast(0.01)),
            ordering("TEAL shuffled − original mean", "degrades", AtLeast(0.01)),
        ],
        run: fig07,
    },
    Experiment {
        id: "fig08",
        title: "Figure 8: partial failures on KDL",
        claims: &[
            number("HARP max", "< 1.09", AtMost(1.09)),
            number("DOTE p75", "1.46", AtLeast(1.46)),
            number("TEAL p75", "1.48", AtLeast(1.48)),
            ordering("DOTE − HARP p75", "1.46 vs < 1.09", AtLeast(0.01)),
            ordering("TEAL − HARP p75", "1.48 vs < 1.09", AtLeast(0.01)),
        ],
        run: fig08,
    },
    Experiment {
        id: "fig09",
        title: "Figure 9: GEANT single-link failures",
        claims: &[
            number("HARP p99.9, pooled", "≤ 1.09", AtMost(1.09)),
            number("HARP worst per-link median", "1.02", AtMost(1.02)),
            number("HARP worst per-link max", "1.17", AtMost(1.17)),
            ordering("HARP − DOTE share ≤ 1.10", "DOTE 63 %", AtLeast(0.01)),
            ordering("DOTE − TEAL share ≤ 1.10", "TEAL 50 %", AtLeast(0.01)),
        ],
        run: fig09,
    },
    Experiment {
        id: "fig10",
        title: "Figure 10: Abilene failures (pooled CDF)",
        claims: &[
            number("HARP median, pooled", "1.0", AtMost(1.05)),
            number("HARP max, pooled", "1.33", AtMost(1.33)),
            ordering("DOTE − HARP max", "DOTE tail beyond 2×", AtLeast(0.01)),
            ordering("TEAL − HARP max", "TEAL tail beyond 2×", AtLeast(0.01)),
        ],
        run: fig10,
    },
    Experiment {
        id: "fig11",
        title: "Figure 11: computation time vs topology size",
        claims: &[
            ordering(
                "KDL: min(HARP, TEAL, LP) / DOTE time",
                "DOTE fastest",
                AtLeast(1.0),
            ),
            ordering(
                "KDL: HARP / TEAL time",
                "same order of magnitude",
                AtMost(10.0),
            ),
            ordering("KDL: LP / HARP time", "HARP faster", AtLeast(1.0)),
            number("KDL: LP / HARP time", "> 10×", AtLeast(10.0)),
        ],
        run: fig11,
    },
    Experiment {
        id: "fig12",
        title: "Figure 12: HARP-Pred vs Gurobi-Pred (LP on predicted TMs)",
        claims: &[
            number("LinReg HARP-Pred median", "1.02", AtMost(1.02)),
            number("LinReg HARP-Pred p90", "1.07", AtMost(1.07)),
            number("MovAvg HARP-Pred median", "1.05", AtMost(1.05)),
            ordering(
                "MovAvg: Gurobi-Pred − HARP-Pred median",
                "1.16 vs 1.05",
                AtLeast(0.01),
            ),
            ordering(
                "ExpSmooth: Gurobi-Pred − HARP-Pred median",
                "HARP-Pred lower",
                AtLeast(0.01),
            ),
            ordering(
                "LinReg: Gurobi-Pred − HARP-Pred median",
                "1.08 vs 1.02",
                AtLeast(0.01),
            ),
        ],
        run: fig12,
    },
    Experiment {
        id: "fig15",
        title: "Figure 15: capacity variation over the entire AnonNet dataset",
        claims: &[
            number(
                "share of links with > 1 capacity value",
                "~80 %",
                Between(0.4, 1.0),
            ),
            number(
                "most unique capacity values on a link",
                "33",
                Between(16.5, 66.0),
            ),
            number(
                "share of links with min/max ≤ 0.8",
                "~60 %",
                Between(0.3, 1.0),
            ),
            number(
                "share of links with a zero-capacity snapshot",
                "~20 %",
                Between(0.1, 0.4),
            ),
        ],
        run: fig15,
    },
    Experiment {
        id: "fig16",
        title: "Figure 16: training on one cluster vs three",
        claims: &[
            number("train_ABC p95", "1.058", AtMost(1.058)),
            number("train_ABC max", "1.86", AtMost(1.86)),
            ordering(
                "worst single-cluster − train_ABC p95",
                "1.12 vs 1.058",
                AtLeast(0.01),
            ),
            ordering("train_A − train_ABC max", "2.33 vs 1.86", AtLeast(0.01)),
        ],
        run: fig16,
    },
    Experiment {
        id: "fig17",
        title: "Figure 17: Abilene single-link failures (per-link boxplots)",
        claims: &[
            number("HARP worst per-link median", "≈ 1.0", AtMost(1.05)),
            ordering(
                "DOTE − HARP worst per-link max",
                "DOTE boxes up to ~3",
                AtLeast(0.01),
            ),
            ordering(
                "TEAL − HARP worst per-link max",
                "TEAL boxes up to ~3",
                AtLeast(0.01),
            ),
        ],
        run: fig17,
    },
    Experiment {
        id: "fig18",
        title: "Figure 18: TEAL learning curves (static vs varying capacities)",
        claims: &[
            number(
                "TEAL final train NormMLU, KDL",
                "converges, ≈ 1.0",
                AtMost(1.05),
            ),
            ordering(
                "TEAL final train NormMLU, AnonNet − KDL",
                "no convergence",
                AtLeast(0.01),
            ),
        ],
        run: fig18,
    },
    Experiment {
        id: "ext_demand_shift",
        title: "Extension: demand-distribution shift (paper §7 future work)",
        claims: &[
            number(
                "scaled ×0.5 − baseline median",
                "— (MLU is scale-free)",
                Between(-0.01, 0.01),
            ),
            number(
                "scaled ×2.0 − baseline median",
                "— (MLU is scale-free)",
                Between(-0.01, 0.01),
            ),
        ],
        run: ext_demand_shift,
    },
];

/// The `p`-th percentile of `v` (NaN when empty).
fn pct(v: &[f64], p: f64) -> f64 {
    percentile(v, p).unwrap_or(f64::NAN)
}

/// The largest value (NaN when empty).
fn max_of(v: impl IntoIterator<Item = f64>) -> f64 {
    v.into_iter().fold(f64::NAN, f64::max)
}

/// Print `v`'s NormMLU summary line; return its CDF and statistics.
fn dist(label: &str, v: &[f64], points: usize) -> Value {
    normmlu_summary(label, v);
    json!({ "cdf": cdf_json(v, points), "stats": stats_json(v) })
}

/// NormMLU of `zm` on one instance with a known optimum.
fn nmlu(zm: &ZooModel, scheme: Scheme, inst: &Instance, opt: f64) -> f64 {
    let (mlu, _) = evaluate_model(zm.as_model(), &zm.store, inst, scheme.eval_options());
    norm_mlu(mlu, opt)
}

/// [`nmlu`] over `(instance, optimum)` pairs, fanned out across the worker
/// pool (each evaluation is pure; results come back in order).
fn norm_mlus(zm: &ZooModel, scheme: Scheme, pairs: &[(&Instance, f64)]) -> Vec<f64> {
    Runtime::global().par_map(pairs, |_, &(inst, opt)| nmlu(zm, scheme, inst, opt))
}

/// Scheme, whether it has a solver-aligned refinement loop (HARP's RAU),
/// and the paper's row: models topology, node-relabel invariant,
/// tunnel-order invariant, aligned.
const TABLE1: [(Scheme, bool, [bool; 4]); 3] = [
    (Scheme::Dote, false, [false; 4]),
    (
        Scheme::Teal {
            tunnels_per_flow: 3,
        },
        false,
        [true, true, false, false],
    ),
    (Scheme::Harp { rau_iters: 5 }, true, [true; 4]),
];

/// Table 1, measured on untrained models (generic parameters expose the
/// architecture) on a 5-node snapshot: a property holds when the splits
/// follow a halved link, relabeled nodes or reordered tunnels.
fn table1(_: &mut Lab) -> Outcome {
    let mut t = Topology::new(5);
    let links = [
        (0, 1, 10.0),
        (1, 2, 10.0),
        (2, 3, 20.0),
        (3, 4, 20.0),
        (4, 0, 15.0),
        (1, 3, 15.0),
    ];
    for (u, v, c) in links {
        t.add_link(u, v, c).expect("probe link");
    }
    let tun = TunnelSet::k_shortest(&t, &[0, 2, 3], 3, 0.0);
    let mut tm = TrafficMatrix::zeros(5);
    for (s, d, x) in [(0, 2, 4.0), (2, 0, 2.0), (0, 3, 3.0), (3, 0, 5.0)] {
        tm.set_demand(s, d, x);
    }
    // halve one link's capacity both ways
    let mut halved = t.clone();
    let (_, _, f, r) = halved.links()[1];
    let c = halved.capacity(f);
    halved.set_capacity(f, c / 2.0).expect("probe edge");
    halved.set_capacity(r, c / 2.0).expect("probe edge");
    // the same tunnels under new node ids (flows re-sorted by new ids,
    // within-flow order preserved) — the paper's relabeling semantics
    let perm = [3, 0, 4, 1, 2];
    let pt = t.permute_nodes(&perm).expect("probe permutation");
    let ptun = tun.relabeled(&t, &pt, &perm);
    let shuf = tun.shuffled(&mut StdRng::seed_from_u64(9));
    let seqs = tun.node_sequences(&t);
    let sample = Instance::compile(&t, &tun, &tm);
    let mut rows = Vec::new();
    let mut measured = Vec::new();
    for (scheme, aligned, paper) in TABLE1 {
        let (model, store) = zoo::build_model(scheme, &sample, 5);
        let splits = |topo: &Topology, tun: &TunnelSet, tm: &TrafficMatrix| {
            let mut tape = Tape::new();
            let s = model.forward(&mut tape, &store, &Instance::compile(topo, tun, tm));
            tape.value(s).to_vec()
        };
        let base = splits(&t, &tun, &tm);
        let relabeled = splits(&pt, &ptun, &tm.permute(&perm));
        let cells = [
            base.iter()
                .zip(&splits(&halved, &tun, &tm))
                .any(|(x, y)| (x - y).abs() > 1e-6),
            same_splits(&base, &seqs, &relabeled, &ptun.node_sequences(&pt), |u| {
                perm[u]
            }),
            same_splits(
                &base,
                &seqs,
                &splits(&t, &shuf, &tm),
                &shuf.node_sequences(&t),
                |u| u,
            ),
            aligned,
        ];
        measured.push(cells.iter().zip(paper).filter(|&(&c, p)| c == p).count() as f64);
        rows.push(json!({
            "scheme": model.name(),
            "models_topology": cells[0],
            "node_relabel_invariant": cells[1],
            "tunnel_order_invariant": cells[2],
            "aligned_architecture": cells[3],
        }));
    }
    Outcome {
        json: json!({ "rows": rows }),
        measured,
    }
}

/// Whether every tunnel of `a` (node sequences `sa`) has the split of the
/// tunnel of `b` whose sequence is its image under `map`.
fn same_splits(
    a: &[f32],
    sa: &[Vec<usize>],
    b: &[f32],
    sb: &[Vec<usize>],
    map: impl Fn(usize) -> usize,
) -> bool {
    sa.iter().zip(a).all(|(seq, x)| {
        let image: Vec<usize> = seq.iter().map(|&u| map(u)).collect();
        let j = sb.iter().position(|s| *s == image);
        j.is_some_and(|j| (x - b[j]).abs() <= 1e-4)
    })
}

/// Fig 1: node and link counts over every AnonNet snapshot.
fn fig01(lab: &mut Lab) -> Outcome {
    let ds = lab.data.anonnet();
    let snaps: Vec<_> = ds.clusters.iter().flat_map(|c| &c.snapshots).collect();
    let (first, last) = (snaps[0].meta, snaps[snaps.len() - 1].meta);
    let grew = last.total_nodes > first.total_nodes || last.total_links > first.total_links;
    let below = snaps
        .iter()
        .filter(|s| {
            s.meta.active_nodes < s.meta.total_nodes || s.meta.active_links < s.meta.total_links
        })
        .count() as f64
        / snaps.len() as f64;
    let mut sizes: Vec<usize> = snaps.iter().map(|s| s.meta.edge_node_count).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let series: Vec<Value> = snaps
        .iter()
        .map(|s| {
            json!({
                "t": s.time, "total_nodes": s.meta.total_nodes, "active_nodes": s.meta.active_nodes,
                "edge_nodes": s.meta.edge_node_count, "total_links": s.meta.total_links,
                "active_links": s.meta.active_links,
            })
        })
        .collect();
    let checks = json!({
        "organic_growth": grew,
        "frac_active_below_total": below,
        "distinct_edge_node_counts": sizes.len(),
    });
    Outcome {
        json: json!({ "series": series, "checks": checks }),
        measured: vec![f64::from(u8::from(grew)), below, sizes.len() as f64],
    }
}

/// Per-link capacity variation (Figs 3 and 15) from each link's capacity
/// samples: the JSON fields both figures write, and the share of links
/// with more than one value, the most unique values on a link, the share
/// with min/max ≤ 0.8 and the share hitting the zero-capacity floor.
fn capacity_stats(per_link: impl Iterator<Item = Vec<f64>>, zero_cap: f64) -> (Map, [f64; 4]) {
    let (mut unique, mut ratios, mut zero) = (Vec::new(), Vec::new(), 0usize);
    for vals in per_link {
        let mut bits: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
        bits.sort_unstable();
        bits.dedup();
        unique.push(bits.len() as f64);
        let mn = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let mx = vals.iter().cloned().fold(0.0f64, f64::max);
        if mn <= zero_cap {
            zero += 1;
        }
        ratios.push(if mx > 0.0 { (mn / mx).min(1.0) } else { 0.0 });
    }
    let n = unique.len() as f64;
    let measured = [
        unique.iter().filter(|&&c| c > 1.0).count() as f64 / n,
        unique.iter().cloned().fold(0.0, f64::max),
        ratios.iter().filter(|&&r| r <= 0.8).count() as f64 / n,
        zero as f64 / n,
    ];
    let fields = Map::from([
        ("unique_capacity_cdf".into(), cdf_points(&unique).into()),
        ("min_max_ratio_cdf".into(), cdf_points(&ratios).into()),
        ("frac_links_multi_value".into(), measured[0].into()),
        ("max_unique_values".into(), measured[1].into()),
        ("frac_ratio_le_0_8".into(), measured[2].into()),
        ("frac_links_zero".into(), measured[3].into()),
    ]);
    (fields, measured)
}

/// Fig 3 on the largest AnonNet cluster, plus tunnel churn between the
/// first and last clusters.
fn fig03(lab: &mut Lab) -> Outcome {
    let ds = lab.data.anonnet();
    let large = ds.largest_clusters(1)[0];
    let cluster = &ds.clusters[large];
    let per_link = cluster
        .topo
        .links()
        .into_iter()
        .map(|(_, _, f, _)| cluster.snapshots.iter().map(|s| s.capacities[f]).collect());
    let (mut fields, stats) = capacity_stats(per_link, ds.cfg.zero_cap);
    let mut configs: Vec<Vec<u64>> = cluster
        .snapshots
        .iter()
        .map(|s| s.capacities.iter().map(|c| c.to_bits()).collect())
        .collect();
    configs.sort();
    configs.dedup();
    let (first, last) = (&ds.clusters[0], &ds.clusters[ds.clusters.len() - 1]);
    let (common, only_last, only_first) =
        tunnel_churn(&first.tunnels, &first.topo, &last.tunnels, &last.topo);
    fields.insert("cluster".into(), large.into());
    fields.insert("capacity_configurations".into(), configs.len().into());
    fields.insert(
        "tunnel_churn".into(),
        json!({ "common": common, "unique_to_last": only_last, "missing_from_last": only_first }),
    );
    let churn = [
        only_last as f64 / (common + only_last) as f64,
        only_first as f64 / (common + only_first) as f64,
    ];
    Outcome {
        json: Value::Object(fields),
        measured: [stats.as_slice(), &churn].concat(),
    }
}

/// Fig 15: capacity variation per undirected link over every cluster it
/// appears in (node ids are stable across clusters).
fn fig15(lab: &mut Lab) -> Outcome {
    let ds = lab.data.anonnet();
    let mut per_link: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    for c in &ds.clusters {
        for (u, v, f, _) in c.topo.links() {
            let caps = c.snapshots.iter().map(|s| s.capacities[f]);
            per_link.entry((u, v)).or_default().extend(caps);
        }
    }
    let links = per_link.len();
    let (mut fields, measured) = capacity_stats(per_link.into_values(), ds.cfg.zero_cap);
    fields.insert("links".into(), links.into());
    Outcome {
        json: Value::Object(fields),
        measured: measured.to_vec(),
    }
}

/// AnonNet cluster `cid` with optima, stride-sampled to about `cap`
/// snapshots; returns the stride too.
fn sampled(lab: &mut Lab, cid: usize, cap: usize) -> (usize, Vec<(Instance, f64)>) {
    let instances = data::compile_cluster(lab.data.anonnet(), cid);
    let opts = lab.oracles.cluster(cid, &instances);
    let stride = (instances.len() / cap.min(instances.len())).max(1);
    let samples = instances.into_iter().zip(opts).step_by(stride).collect();
    (stride, samples)
}

/// HARP's AnonNet training set on clusters `cids` (Figs 4 and 16): stride
/// samples plus failure/jitter-augmented copies and topology variants
/// synthesized from the same clusters (see [`data::augmented_instance`]).
fn anonnet_train_set(lab: &mut Lab, cids: &[usize]) -> Vec<(Instance, f64)> {
    let cap = if lab.quick { 24 } else { 60 };
    let mut out = Vec::new();
    for &cid in cids {
        let (stride, samples) = sampled(lab, cid, cap);
        out.extend(samples);
        let ds = lab.data.anonnet();
        let cluster = &ds.clusters[cid];
        let mut arng = StdRng::seed_from_u64(900 + cid as u64);
        for (sid, snap) in cluster.snapshots.iter().enumerate().step_by(stride * 2) {
            if let Some(inst) = data::augmented_instance(cluster, snap, &mut arng, ds.cfg.zero_cap)
            {
                let opt = lab.oracles.solve(format!("anonnet/aug{cid}/s{sid}"), &inst);
                out.push((inst, opt));
            }
        }
        for v in 0..3u64 {
            let mut vrng = StdRng::seed_from_u64(700 + cid as u64 * 10 + v);
            let snap0 = &cluster.snapshots[0];
            let k = ds.cfg.tunnels_per_flow;
            let Some((vtopo, vtun)) = data::topology_variant(cluster, snap0, k, &mut vrng) else {
                continue;
            };
            for (sid, snap) in cluster.snapshots.iter().enumerate().step_by(stride * 3) {
                let inst = Instance::compile(&vtopo, &vtun, &snap.tm);
                let opt = lab
                    .oracles
                    .solve(format!("anonnet/var{cid}.{v}/s{sid}"), &inst);
                out.push((inst, opt));
            }
        }
    }
    out
}

/// The validation set of Figs 4 and 16: clusters 3–5, stride-sampled.
fn anonnet_val_set(lab: &mut Lab) -> Vec<(Instance, f64)> {
    let cap = if lab.quick { 24 } else { 60 };
    (3..6).flat_map(|cid| sampled(lab, cid, cap).1).collect()
}

/// Fig 4's HARP, trained on clusters 0–2 (train_ABC) and validated on
/// 3–5; Fig 16 and the demand-shift extension read the same model.
fn harp_abc(lab: &mut Lab) -> Rc<ZooModel> {
    const NAME: &str = "anonnet-harp-abc";
    if let Some(zm) = lab.zoo.get(NAME) {
        return zm;
    }
    let train = anonnet_train_set(lab, &[0, 1, 2]);
    let val = anonnet_val_set(lab);
    let cfg = zoo::train_config(lab.quick);
    lab.zoo.train(NAME, HARP, &refs(&train), &refs(&val), cfg)
}

/// NormMLU of each model over the unseen AnonNet clusters 6.. (Figs 4 and
/// 16), stride-sampled to 6 snapshots per cluster in quick mode.
fn transfer_test(lab: &mut Lab, models: &[Rc<ZooModel>]) -> Vec<Vec<f64>> {
    let cap = if lab.quick { 6 } else { usize::MAX };
    let mut norm = vec![Vec::new(); models.len()];
    for cid in 6..lab.data.anonnet().clusters.len() {
        let test = sampled(lab, cid, cap).1;
        for (zm, out) in models.iter().zip(&mut norm) {
            out.extend(norm_mlus(zm, HARP, &refs(&test)));
        }
    }
    norm
}

/// Fig 4: HARP trained on three clusters, tested on all the others.
fn fig04(lab: &mut Lab) -> Outcome {
    let abc = harp_abc(lab);
    let norm = transfer_test(lab, &[abc]).remove(0);
    normmlu_summary("HARP", &norm);
    Outcome {
        json: json!({
            "test_points": norm.len(),
            "cdf": cdf_json(&norm, 200),
            "stats": stats_json(&norm),
        }),
        measured: vec![
            pct(&norm, 50.0),
            fraction_at_most(&norm, 1.11),
            pct(&norm, 100.0),
        ],
    }
}

/// Fig 16: HARP trained on cluster A, B or C alone vs on all three.
fn fig16(lab: &mut Lab) -> Outcome {
    let val = anonnet_val_set(lab);
    let names = ["train_A", "train_B", "train_C", "train_ABC"];
    let mut models = Vec::new();
    for (cid, name) in names[..3].iter().enumerate() {
        let train = anonnet_train_set(lab, &[cid]);
        let model_name = format!("anonnet-harp-{}", name.to_lowercase());
        let cfg = zoo::train_config(lab.quick);
        models.push(
            lab.zoo
                .train(&model_name, HARP, &refs(&train), &refs(&val), cfg),
        );
    }
    models.push(harp_abc(lab));
    let norm = transfer_test(lab, &models);
    let json: Map = names
        .iter()
        .zip(&norm)
        .map(|(name, v)| (name.to_string(), dist(name, v, 150)))
        .collect();
    let p95: Vec<f64> = norm.iter().map(|v| pct(v, 95.0)).collect();
    let max: Vec<f64> = norm.iter().map(|v| pct(v, 100.0)).collect();
    Outcome {
        json: Value::Object(json),
        measured: vec![
            p95[3],
            max[3],
            max_of(p95[..3].to_vec()) - p95[3],
            max[0] - max[3],
        ],
    }
}

/// Skew a TM: elementwise power, renormalized to the same total
/// (concentrates traffic on heavy pairs).
fn skew(tm: &TrafficMatrix, power: f64) -> TrafficMatrix {
    let n = tm.num_nodes();
    let total = tm.total();
    let mut out = TrafficMatrix::zeros(n);
    let mut new_total = 0.0;
    for s in 0..n {
        for t in 0..n {
            let d = tm.demand(s, t).powf(power);
            out.set_demand(s, t, d);
            new_total += d;
        }
    }
    if new_total > 0.0 {
        out.scaled(total / new_total)
    } else {
        out
    }
}

/// A demand-distribution shift applied to every test TM.
type TmShift = fn(&TrafficMatrix) -> TrafficMatrix;

/// Extension (§7 future work): Fig 4's HARP on unseen clusters whose TMs
/// are scaled, skewed or transposed (§2.2's motivating transformation).
fn ext_demand_shift(lab: &mut Lab) -> Outcome {
    let zm = harp_abc(lab);
    let ds = lab.data.anonnet();
    let variants: [(&str, TmShift); 5] = [
        ("baseline", |tm: &TrafficMatrix| tm.clone()),
        ("scaled x0.5", |tm: &TrafficMatrix| tm.scaled(0.5)),
        ("scaled x2.0", |tm: &TrafficMatrix| tm.scaled(2.0)),
        ("skewed ^1.5", |tm: &TrafficMatrix| skew(tm, 1.5)),
        ("transposed", |tm: &TrafficMatrix| tm.transpose()),
    ];
    let mut json = Map::new();
    let mut medians = Vec::new();
    for (name, shift) in variants {
        let mut nms = Vec::new();
        for cid in (10..ds.clusters.len()).step_by(6) {
            let cluster = &ds.clusters[cid];
            for snap in cluster.snapshots.iter().step_by(4) {
                // transposed demands need transposed-pair tunnels to exist;
                // our tunnel sets cover all ordered edge-node pairs, so the
                // same tunnel set serves
                let tm = shift(&snap.tm);
                let inst = Instance::compile(&cluster.topo_at(snap), &cluster.tunnels, &tm);
                let opt = lab.oracles.frank_wolfe(&inst.program);
                nms.push(nmlu(&zm, HARP, &inst, opt));
            }
        }
        normmlu_summary(name, &nms);
        medians.push(pct(&nms, 50.0));
        json.insert(name.to_string(), stats_json(&nms));
    }
    Outcome {
        json: Value::Object(json),
        measured: vec![medians[1] - medians[0], medians[2] - medians[0]],
    }
}

/// Train `schemes` on a temporal 75 / 12.5 / 12.5 split of AnonNet
/// cluster `cid` (Figs 5 and 6) and return each one's test NormMLUs.
/// Training on the past and testing on the future matches the paper; an
/// interleaved split leaks temporally adjacent TMs into training and
/// erases DOTE's capacity-blindness penalty.
fn within_cluster(lab: &mut Lab, cid: usize, schemes: &[Scheme]) -> Vec<Vec<f64>> {
    let instances = data::compile_cluster(lab.data.anonnet(), cid);
    let opts = lab.oracles.cluster(cid, &instances);
    let pairs: Vec<(&Instance, f64)> = instances.iter().zip(opts).collect();
    let train_end = pairs.len() * 3 / 4;
    let val_end = train_end + (pairs.len() - train_end) / 2;
    let (train, rest) = pairs.split_at(train_end);
    let (val, test) = rest.split_at(val_end - train_end);
    schemes
        .iter()
        .map(|&s| {
            let name = format!("anonnet-c{cid}-{}", s.label());
            let zm = lab
                .zoo
                .train(&name, s, train, val, zoo::train_config(lab.quick));
            norm_mlus(&zm, s, test)
        })
        .collect()
}

/// Fig 5: HARP vs DOTE within each of the three largest clusters.
fn fig05(lab: &mut Lab) -> Outcome {
    let mut clusters = Vec::new();
    let (mut harp_max, mut gaps) = (Vec::new(), Vec::new());
    for cid in lab.data.anonnet().largest_clusters(3) {
        let nms = within_cluster(lab, cid, &[HARP, Scheme::Dote]);
        harp_max.push(pct(&nms[0], 100.0));
        gaps.push(pct(&nms[1], 50.0) - pct(&nms[0], 50.0));
        let schemes = json!({
            "harp": dist(&format!("HARP c{cid}"), &nms[0], 100),
            "dote": dist(&format!("DOTE c{cid}"), &nms[1], 100),
        });
        clusters.push(json!({ "cluster": cid, "schemes": schemes }));
    }
    Outcome {
        json: json!({ "clusters": clusters }),
        measured: [harp_max, gaps].concat(),
    }
}

/// Fig 6: HARP vs HARP-NoRAU (with local rescaling, as in the paper) on
/// the largest cluster.
fn fig06(lab: &mut Lab) -> Outcome {
    let cid = lab.data.anonnet().largest_clusters(1)[0];
    let nms = within_cluster(lab, cid, &[HARP, Scheme::Harp { rau_iters: 0 }]);
    let (harp, norau) = (pct(&nms[0], 50.0), pct(&nms[1], 50.0));
    Outcome {
        json: json!({
            "harp": dist("HARP", &nms[0], 100),
            "harp-norau": dist("HARP-NoRAU", &nms[1], 100),
        }),
        measured: vec![harp, norau, norau - harp],
    }
}

/// The three schemes trained on KDL's original tunnel order (Figs 7, 8).
fn kdl_models(lab: &mut Lab) -> Vec<Rc<ZooModel>> {
    let names = KDL_SCHEMES.map(|s| format!("kdl-{}", s.label()));
    if let Some(models) = names.iter().map(|n| lab.zoo.get(n)).collect() {
        return models;
    }
    let setup = lab.data.kdl();
    let train_idx = setup.train_indices(if lab.quick { 24 } else { 170 });
    let train = setup.solved(&mut lab.oracles, &train_idx);
    let val = setup.solved(&mut lab.oracles, &setup.val_indices());
    KDL_SCHEMES
        .iter()
        .zip(&names)
        .map(|(&s, name)| {
            let cfg = zoo::train_config(lab.quick);
            lab.zoo.train(name, s, &refs(&train), &refs(&val), cfg)
        })
        .collect()
}

/// Mean and standard deviation.
fn mean_std(v: &[f64]) -> (f64, f64) {
    let n = v.len().max(1) as f64;
    let mean = v.iter().sum::<f64>() / n;
    let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Fig 7: KDL test TMs with the training tunnel order and a shuffled one
/// (same physical tunnels, so the optimum is shared).
fn fig07(lab: &mut Lab) -> Outcome {
    let models = kdl_models(lab);
    let setup = lab.data.kdl();
    let shuffled = setup.tunnels.shuffled(&mut StdRng::seed_from_u64(2024));
    let test_idx = setup.test_indices(if lab.quick { 10 } else { 78 });
    let mut json = Map::new();
    let (mut means, mut shifts) = (Vec::new(), Vec::new());
    for (scheme, zm) in KDL_SCHEMES.iter().zip(&models) {
        let (mut orig, mut shuf) = (Vec::new(), Vec::new());
        for &i in &test_idx {
            let inst = setup.instance(i);
            let opt = lab.oracles.solve(format!("kdl/base/{i}"), &inst);
            orig.push(nmlu(zm, *scheme, &inst, opt));
            let sinst = setup.instance_with_tunnels(&shuffled, i);
            shuf.push(nmlu(zm, *scheme, &sinst, opt));
        }
        let ((mo, so), (ms, ss)) = (mean_std(&orig), mean_std(&shuf));
        println!(
            "  {:<8} original {mo:.3} ± {so:.3}  shuffled {ms:.3} ± {ss:.3}",
            zm.model.name()
        );
        json.insert(
            scheme.label(),
            json!({ "original": { "mean": mo, "std": so }, "shuffled": { "mean": ms, "std": ss } }),
        );
        means.push(mo);
        shifts.push(ms - mo);
    }
    shifts[0] = shifts[0].abs();
    Outcome {
        json: Value::Object(json),
        measured: [means, shifts].concat(),
    }
}

/// Fig 8: KDL with one link at 50–90 % of its capacity lost, tunnels and
/// models unchanged.
fn fig08(lab: &mut Lab) -> Outcome {
    let models = kdl_models(lab);
    let setup = lab.data.kdl();
    let n = if lab.quick { 12 } else { 40 };
    let mut rng = StdRng::seed_from_u64(8080);
    let scenarios = random_partial_failures(&setup.topo, &mut rng, n, 0.5, 0.9);
    let test_idx = setup.test_indices(if lab.quick { 6 } else { 78 });
    let mut nms = vec![Vec::new(); KDL_SCHEMES.len()];
    for (si, scenario) in scenarios.iter().enumerate() {
        let failed = fail_link_partial(&setup.topo, *scenario);
        for &i in &test_idx {
            let inst = setup.instance_on(&failed, i);
            let opt = lab.oracles.solve(format!("kdl/pfail{si}/{i}"), &inst);
            for ((scheme, zm), out) in KDL_SCHEMES.iter().zip(&models).zip(&mut nms) {
                out.push(nmlu(zm, *scheme, &inst, opt));
            }
        }
    }
    let json: Map = KDL_SCHEMES
        .iter()
        .zip(&nms)
        .map(|(s, v)| (s.label(), dist(&s.label(), v, 150)))
        .collect();
    let p75: Vec<f64> = nms.iter().map(|v| pct(v, 75.0)).collect();
    Outcome {
        json: Value::Object(json),
        measured: vec![
            pct(&nms[0], 100.0),
            p75[1],
            p75[2],
            p75[1] - p75[0],
            p75[2] - p75[0],
        ],
    }
}

/// Per-link statistics of a drill (Figs 9 and 17).
fn links_json(r: &DrillResult) -> Value {
    let links: Vec<Value> = r
        .per_link
        .iter()
        .map(|(label, per_scheme)| {
            let schemes: Vec<Value> = r
                .scheme_names
                .iter()
                .zip(per_scheme)
                .map(|(n, v)| json!({ "scheme": n, "stats": stats_json(v) }))
                .collect();
            json!({ "link": label, "schemes": schemes })
        })
        .collect();
    json!({ "links": links })
}

/// The worst per-link `p`-th percentile of scheme `s` in a drill.
fn worst(r: &DrillResult, s: usize, p: f64) -> f64 {
    max_of(r.per_link.iter().map(|(_, v)| pct(&v[s], p)))
}

/// Fig 9: the GEANT drill, per failed link.
fn fig09(lab: &mut Lab) -> Outcome {
    let r = drill::run(lab.quick, lab.data.geant(), &mut lab.oracles, &mut lab.zoo);
    let share: Vec<f64> = (0..drill::SCHEMES.len())
        .map(|s| {
            let pooled = r.pooled(s);
            normmlu_summary(&format!("{} pooled", r.scheme_names[s]), &pooled);
            fraction_at_most(&pooled, 1.10)
        })
        .collect();
    Outcome {
        json: links_json(&r),
        measured: vec![
            pct(&r.pooled(0), 99.9),
            worst(&r, 0, 50.0),
            worst(&r, 0, 100.0),
            share[0] - share[1],
            share[1] - share[2],
        ],
    }
}

/// Fig 10: the Abilene drill, pooled over failed links.
fn fig10(lab: &mut Lab) -> Outcome {
    let r = lab.abilene_drill();
    let pooled: Vec<Vec<f64>> = (0..drill::SCHEMES.len()).map(|s| r.pooled(s)).collect();
    let json: Map = drill::SCHEMES
        .iter()
        .zip(&r.scheme_names)
        .zip(&pooled)
        .map(|((s, name), v)| (s.label(), dist(name, v, 150)))
        .collect();
    let max: Vec<f64> = pooled.iter().map(|v| pct(v, 100.0)).collect();
    Outcome {
        json: Value::Object(json),
        measured: vec![
            pct(&pooled[0], 50.0),
            max[0],
            max[1] - max[0],
            max[2] - max[0],
        ],
    }
}

/// Fig 17: the Abilene drill of Fig 10, per failed link.
fn fig17(lab: &mut Lab) -> Outcome {
    let r = lab.abilene_drill();
    let max = |s| worst(&r, s, 100.0);
    Outcome {
        json: links_json(&r),
        measured: vec![worst(&r, 0, 50.0), max(1) - max(0), max(2) - max(0)],
    }
}

/// A gravity TM on `edge_nodes` calibrated to a 0.7 uniform-split MLU.
fn instance_for(topo: &Topology, edge_nodes: &[usize], k: usize, seed: u64) -> Instance {
    let tunnels = TunnelSet::k_shortest(topo, edge_nodes, k, 0.0);
    let mut cfg = GravityConfig::uniform(topo.num_nodes(), 1.0);
    cfg.edge_nodes = edge_nodes.to_vec();
    let tm = gravity_series(&cfg, &mut StdRng::seed_from_u64(seed), 1).remove(0);
    let scale =
        harp_datasets::calibrate_demand_scale(topo, &tunnels, std::slice::from_ref(&tm), 0.7);
    Instance::compile(topo, &tunnels, &tm.scaled(scale))
}

/// Mean wall time of `reps` forwards after one warm-up.
fn time_forward(model: &dyn SplitModel, store: &ParamStore, inst: &Instance, reps: usize) -> f64 {
    let _ = model.forward(&mut Tape::new(), store, inst);
    let t0 = Instant::now();
    for _ in 0..reps {
        let _ = model.forward(&mut Tape::new(), store, inst);
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// A seeded `n`-node subset of `topo`'s nodes, sorted.
fn subset(topo: &Topology, n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut nodes: Vec<usize> = (0..topo.num_nodes()).collect();
    nodes.shuffle(rng);
    let mut e = nodes[..n.min(topo.num_nodes())].to_vec();
    e.sort_unstable();
    e
}

/// Fig 11: inference time of DOTE / HARP / TEAL against the LP oracle
/// ("Gurobi"), all same-machine CPU wall clock (the paper used an A100 and
/// a 64-core EPYC). UsCarrier and KDL use a seeded edge-node subset so the
/// neural instances fit CPU memory; every scheme and the LP see the
/// identical instance, preserving the figure's relative ordering.
fn fig11(lab: &mut Lab) -> Outcome {
    let quick = lab.quick;
    let mut rng = StdRng::seed_from_u64(11);
    let all = |t: &Topology| -> Vec<usize> { (0..t.num_nodes()).collect() };
    let (abilene, geant) = (harp_datasets::abilene(), harp_datasets::geant());
    let usc = harp_datasets::us_carrier_like();
    let usc_edges = subset(&usc, if quick { 24 } else { 40 }, &mut rng);
    let (kdl_name, kdl, kdl_n) = if quick {
        ("KDL-small (96)", harp_datasets::kdl_small(), 24)
    } else {
        ("KDL (754)", harp_datasets::kdl_like(), 40)
    };
    let kdl_edges = subset(&kdl, kdl_n, &mut rng);
    let ds = lab.data.anonnet();
    let c0 = &ds.clusters[0];
    // (name, topology, edge nodes, tunnels per flow)
    let cases: Vec<(String, Topology, Vec<usize>, usize)> = vec![
        ("Abilene (12)".into(), abilene.clone(), all(&abilene), 8),
        ("GEANT (22)".into(), geant.clone(), all(&geant), 8),
        (
            format!("AnonNet ({})", ds.cfg.universe_nodes),
            c0.topo.clone(),
            c0.edge_nodes.clone(),
            ds.cfg.tunnels_per_flow,
        ),
        ("UsCarrier (158)".into(), usc, usc_edges, 8),
        (kdl_name.into(), kdl, kdl_edges, 4),
    ];
    let reps = if quick { 3 } else { 10 };
    // instance compilation is a pure per-case map — fan it out; the timed
    // sections below stay serial so the wall-clock comparisons hold
    let instances = Runtime::global().par_map(&cases, |_, (_, topo, edges, k)| {
        instance_for(topo, edges, *k, 99)
    });
    let mut rows = Vec::new();
    let mut times = [0.0; 4];
    for ((name, _, _, k), inst) in cases.iter().zip(&instances) {
        let schemes = [
            Scheme::Dote,
            HARP,
            Scheme::Teal {
                tunnels_per_flow: *k,
            },
        ];
        for (t, scheme) in times.iter_mut().zip(schemes) {
            let (model, store) = zoo::build_model(scheme, inst, 3);
            *t = time_forward(&*model, &store, inst, reps);
        }
        let t0 = Instant::now();
        let _solution = MluOracle::default().solve(&inst.program);
        times[3] = t0.elapsed().as_secs_f64();
        let [dote, harp, teal, lp] = times;
        println!("  {name:<16} DOTE {dote:.4}s  HARP {harp:.4}s  TEAL {teal:.4}s  LP {lp:.4}s");
        rows.push(json!({
            "topology": name, "flows": inst.num_flows, "tunnels": inst.num_tunnels,
            "dote_s": dote, "harp_s": harp, "teal_s": teal, "lp_s": lp,
        }));
    }
    // the claims read the largest topology, the last case
    let [dote, harp, teal, lp] = times;
    Outcome {
        json: json!({ "rows": rows }),
        measured: vec![
            harp.min(teal).min(lp) / dote,
            harp / teal,
            lp / harp,
            lp / harp,
        ],
    }
}

/// (predicted-TM instance, true-TM instance, true optimal MLU)
type PredPair = (Instance, Instance, f64);

/// Fig 12's pairs on AnonNet clusters `cids`: each sampled snapshot after
/// the first, with the matrix `predictor` forecasts from up to 12 earlier
/// ones.
fn pred_pairs(
    lab: &mut Lab,
    predictor: &dyn Predictor,
    cids: Range<usize>,
    cap: usize,
) -> Vec<PredPair> {
    let mut out = Vec::new();
    for cid in cids {
        let true_opts = {
            let instances = data::compile_cluster(lab.data.anonnet(), cid);
            lab.oracles.cluster(cid, &instances)
        };
        let cluster = &lab.data.anonnet().clusters[cid];
        let tms: Vec<TrafficMatrix> = cluster.snapshots.iter().map(|s| s.tm.clone()).collect();
        let n = tms.len();
        let stride = (n.saturating_sub(1) / cap.min(n.max(1))).max(1);
        for sid in (1..n).step_by(stride) {
            let pred = predictor.predict(&tms[sid.saturating_sub(12)..sid]);
            let topo = cluster.topo_at(&cluster.snapshots[sid]);
            out.push((
                Instance::compile(&topo, &cluster.tunnels, &pred),
                Instance::compile(&topo, &cluster.tunnels, &tms[sid]),
                true_opts[sid],
            ));
        }
    }
    out
}

/// NormMLU on the true matrix of HARP's splits for the predicted one.
fn pred_norm_mlu(model: &dyn SplitModel, store: &ParamStore, pair: &PredPair) -> f64 {
    let (pred, truth, opt) = pair;
    let mut tape = Tape::new();
    let s = model.forward(&mut tape, store, pred);
    let splits: Vec<f64> = tape.value(s).iter().map(|&x| f64::from(x)).collect();
    norm_mlu(
        truth.program.mlu(&truth.program.normalize_splits(&splits)),
        *opt,
    )
}

/// HARP trained on predicted matrices with the loss computed on the true
/// ones (§5.7), keeping the epoch with the best validation NormMLU.
fn train_harp_pred(quick: bool, train: &[PredPair], val: &[PredPair]) -> ZooModel {
    let (model, mut store) = zoo::build_model(HARP, &train[0].0, 4242);
    let cfg = zoo::train_config(quick);
    let mut adam = Adam::new(&store, AdamConfig::with_lr(cfg.lr));
    let mut best = f64::INFINITY;
    let mut best_params = store.snapshot();
    for _ in 0..cfg.epochs {
        for chunk in train.chunks(cfg.batch_size) {
            store.zero_grads();
            for (pred, truth, opt) in chunk {
                let mut tape = Tape::new();
                let splits = model.forward(&mut tape, &store, pred);
                // the loss sees the TRUE demands
                let mlu = mlu_loss(&mut tape, splits, truth);
                let norm = if *opt > 0.0 { 1.0 / *opt } else { 1.0 } as f32;
                let loss = tape.mul_scalar(mlu, norm / chunk.len() as f32);
                tape.backward(loss, &mut store);
            }
            clip_grad_norm(&mut store, cfg.clip_norm).expect("HARP-Pred: finite gradient norm");
            adam.step_and_zero(&mut store);
        }
        let score = val
            .iter()
            .map(|p| pred_norm_mlu(&*model, &store, p))
            .sum::<f64>()
            / val.len().max(1) as f64;
        if score < best {
            best = score;
            best_params = store.snapshot();
        }
    }
    store.restore(&best_params);
    ZooModel { model, store }
}

/// Fig 12: HARP-Pred vs the LP on the predicted matrix ("Gurobi-Pred"),
/// both scored on the true matrix, for three predictors.
fn fig12(lab: &mut Lab) -> Outcome {
    let (cap, test_cap) = if lab.quick { (12, 5) } else { (40, usize::MAX) };
    let test_end = if lab.quick {
        30
    } else {
        lab.data.anonnet().clusters.len()
    };
    let predictors: [Box<dyn Predictor>; 3] = [
        Box::new(MovAvg { window: 12 }),
        Box::new(ExpSmooth { alpha: 0.5 }),
        Box::new(LinReg { window: 12 }),
    ];
    let mut json = Map::new();
    // per predictor: HARP-Pred median, Gurobi-Pred median, HARP-Pred p90
    let mut stats = Vec::new();
    for predictor in &predictors {
        let p = &**predictor;
        // train on clusters 1-3 (cluster 0 reserved, as the paper reserves
        // it for fitting LinReg), validate on 4-5, test on the rest
        let train = pred_pairs(lab, p, 1..4, cap);
        let val = pred_pairs(lab, p, 4..6, cap / 2);
        let zm = train_harp_pred(lab.quick, &train, &val);
        let (mut harp, mut lp) = (Vec::new(), Vec::new());
        for cid in 6..test_end {
            let mut warm: Option<Vec<f64>> = None;
            for pair in &pred_pairs(lab, p, cid..cid + 1, test_cap) {
                harp.push(pred_norm_mlu(zm.as_model(), &zm.store, pair));
                // Gurobi-Pred: optimal for the predicted matrix, applied to
                // the true one
                let (pred, truth, opt) = pair;
                let sol = MluOracle::default().solve_warm(&pred.program, warm.as_deref());
                lp.push(norm_mlu(truth.program.mlu(&sol.splits), *opt));
                warm = Some(sol.splits);
            }
        }
        println!("  predictor {}:", p.name());
        let entry = json!({
            "harp_pred": dist("HARP-Pred", &harp, 150),
            "lp_pred": dist("Gurobi-Pred", &lp, 150),
        });
        json.insert(p.name().to_string(), entry);
        stats.push([pct(&harp, 50.0), pct(&lp, 50.0), pct(&harp, 90.0)]);
    }
    let (movavg, expsmooth, linreg) = (stats[0], stats[1], stats[2]);
    Outcome {
        json: Value::Object(json),
        measured: vec![
            linreg[0],
            linreg[2],
            movavg[0],
            movavg[1] - movavg[0],
            expsmooth[1] - expsmooth[0],
            linreg[1] - linreg[0],
        ],
    }
}

/// TEAL's per-epoch mean train NormMLU over `epochs` epochs (no early
/// stop).
fn teal_curve(
    quick: bool,
    tunnels_per_flow: usize,
    train: &[(&Instance, f64)],
    epochs: usize,
) -> Vec<f64> {
    let (model, mut store) = zoo::build_model(Scheme::Teal { tunnels_per_flow }, train[0].0, 18);
    let cfg = TrainConfig {
        epochs,
        patience: 0,
        ..zoo::train_config(quick)
    };
    train_model(
        &*model,
        &mut store,
        train,
        &[],
        cfg,
        EvalOptions::with_rescaling(),
    )
    .expect("TEAL training run")
    .history
    .iter()
    .map(|h| h.train_loss)
    .collect()
}

/// Fig 18: TEAL's training converges on KDL (capacities identical across
/// training snapshots) but not on AnonNet (capacities vary). TEAL trains
/// with the differentiable MLU loss here, kinder to it than the
/// original's reinforcement learning.
fn fig18(lab: &mut Lab) -> Outcome {
    let (epochs, cap) = if lab.quick { (10, 16) } else { (30, 60) };
    let setup = lab.data.kdl();
    let kdl = setup.solved(&mut lab.oracles, &setup.train_indices(cap));
    let kdl_curve = teal_curve(lab.quick, 4, &refs(&kdl), epochs);
    let ds = lab.data.anonnet();
    let cid = ds.largest_clusters(1)[0];
    let instances = data::compile_cluster(ds, cid);
    let opts = lab.oracles.cluster(cid, &instances);
    let anon: Vec<(&Instance, f64)> = instances.iter().zip(opts).take(cap).collect();
    let anon_curve = teal_curve(lab.quick, ds.cfg.tunnels_per_flow, &anon, epochs);
    let last = |c: &[f64]| c.last().copied().unwrap_or(f64::NAN);
    let measured = vec![last(&kdl_curve), last(&anon_curve) - last(&kdl_curve)];
    Outcome {
        json: json!({ "kdl_curve": kdl_curve, "anonnet_curve": anon_curve }),
        measured,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoreboard::{verdict, Verdict};

    #[test]
    fn experiment_ids_are_unique() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len());
    }

    #[test]
    fn table1_measures_the_papers_rows() {
        let exp = EXPERIMENTS.iter().find(|e| e.id == "table1").unwrap();
        let out = (exp.run)(&mut Lab::new(true));
        let keys = [
            "models_topology",
            "node_relabel_invariant",
            "tunnel_order_invariant",
            "aligned_architecture",
        ];
        let got: Vec<(&str, [bool; 4])> = out.json["rows"]
            .as_array()
            .unwrap()
            .iter()
            .map(|r| (r["scheme"].as_str().unwrap(), keys.map(|k| r[k] == true)))
            .collect();
        let want = [
            ("DOTE", [false, false, false, false]),
            ("TEAL", [true, true, false, false]),
            ("HARP", [true, true, true, true]),
        ];
        assert_eq!(got, want);
        assert_eq!(out.measured, [4.0, 4.0, 4.0]);
        assert_eq!(verdict(exp.claims, &out.measured), Verdict::Reproduces);
    }
}
