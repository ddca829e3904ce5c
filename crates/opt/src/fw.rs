//! A certificate-backed Frank–Wolfe / multiplicative-weights solver for the
//! min-MLU path program.
//!
//! The feasible set is a product of per-flow simplices; the objective
//! `max_e load_e / c_e` is the maximum of linear functions. Each iteration:
//!
//! 1. smooths the max with a softmax over edge utilizations (weight
//!    `p_e ∝ exp(η (u_e - u_max))`),
//! 2. takes the Frank–Wolfe step: per flow, move mass toward the tunnel
//!    with the smallest weighted edge cost `Σ_{e∈P} p_e / c_e`,
//! 3. line-searches the *true* (nonsmooth) MLU along the segment, so the
//!    primal upper bound decreases monotonically,
//! 4. reads off an LP **dual lower bound** from the same weights:
//!    `y_e = p_e / c_e` satisfies `Σ_e y_e c_e = 1`, so
//!    `Σ_f d_f · min_k Σ_{e∈P_fk} y_e ≤ MLU*` (weak duality).
//!
//! The solve terminates when the relative primal–dual gap drops below the
//! configured tolerance, i.e. the returned MLU is *certified* to be within
//! `(1 + tol)` of optimal. This replaces Gurobi on instances too large for
//! the exact simplex.

use crate::program::PathProgram;
use crate::simplex::{solve_lp, LpProblem, SimplexStatus};

/// Configuration for [`solve_fw`].
#[derive(Clone, Copy, Debug)]
pub struct FwConfig {
    /// Target relative duality gap (e.g. `1e-3`).
    pub tol: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Initial softmax temperature (higher = closer to true max).
    pub eta0: f64,
}

impl Default for FwConfig {
    fn default() -> Self {
        FwConfig {
            tol: 1e-3,
            max_iters: 20_000,
            eta0: 20.0,
        }
    }
}

/// Result of a Frank–Wolfe solve.
#[derive(Clone, Debug)]
pub struct FwSolution {
    /// Best feasible MLU found (primal upper bound).
    pub mlu: f64,
    /// Best dual lower bound on the optimal MLU.
    pub lower_bound: f64,
    /// The splits achieving `mlu`.
    pub splits: Vec<f64>,
    /// Iterations performed.
    pub iters: usize,
    /// Final relative gap `(mlu - lb) / max(lb, tiny)`.
    pub gap: f64,
}

impl FwSolution {
    /// Whether the certified gap is within `tol`.
    pub fn certified(&self, tol: f64) -> bool {
        self.gap <= tol
    }
}

/// Refine the dual lower bound by solving the *restricted dual* exactly.
///
/// Weak duality: for any `y >= 0` with `Σ_e y_e c_e = 1`,
/// `Σ_f d_f · min_k Σ_{e ∈ P_fk} y_e <= MLU*`. The optimal `y` is supported
/// on bottleneck edges, so we restrict `y` to edges whose utilization is
/// within `delta` of the maximum, keep only flows all of whose tunnels
/// cross that set (others contribute 0), and solve the resulting small LP
/// with the exact simplex. Returns `None` when the restricted LP is too
/// large to be worth it or the solve fails.
fn refine_dual_bound(
    program: &PathProgram,
    utils: &[f64],
    delta: f64,
    max_lp_size: usize,
) -> Option<f64> {
    let u_max = utils.iter().cloned().fold(0.0f64, f64::max);
    if u_max <= 0.0 {
        return Some(0.0);
    }
    let support: Vec<usize> = (0..program.num_edges)
        .filter(|&e| utils[e] >= (1.0 - delta) * u_max && program.capacities[e] > 0.0)
        .collect();
    if support.is_empty() {
        return None;
    }
    let mut edge_col = vec![usize::MAX; program.num_edges];
    for (i, &e) in support.iter().enumerate() {
        edge_col[e] = i;
    }
    // flows whose every tunnel crosses the support
    let mut active_flows: Vec<usize> = Vec::new();
    for (f, flow) in program.flows.iter().enumerate() {
        if flow.demand > 0.0
            && flow
                .tunnels
                .iter()
                .all(|t| t.iter().any(|&e| edge_col[e] != usize::MAX))
        {
            active_flows.push(f);
        }
    }
    if active_flows.is_empty() {
        return None;
    }
    let n_y = support.len();
    let n_z = active_flows.len();
    let n_constraints: usize = active_flows
        .iter()
        .map(|&f| program.flows[f].tunnels.len())
        .sum();
    if (n_y + n_z) + n_constraints > max_lp_size {
        return None;
    }

    // max Σ z_f  ⇒  min -Σ z_f
    // s.t. z_f - d_f Σ_{e∈P∩E'} y_e <= 0  for every tunnel of active flows
    //      Σ_{e∈E'} c_e y_e = 1
    // variables: y (n_y) then z (n_z), all >= 0 (z >= 0 is valid since the
    // true z_f >= 0 when all tunnel costs are nonnegative).
    let mut objective = vec![0.0f64; n_y + n_z];
    for j in 0..n_z {
        objective[n_y + j] = -1.0;
    }
    let eq = vec![(
        support
            .iter()
            .enumerate()
            .map(|(i, &e)| (i, program.capacities[e]))
            .collect::<Vec<_>>(),
        1.0,
    )];
    let mut ub = Vec::with_capacity(n_constraints);
    for (j, &f) in active_flows.iter().enumerate() {
        let flow = &program.flows[f];
        for tunnel in flow.tunnels.iter() {
            let mut row: Vec<(usize, f64)> = vec![(n_y + j, 1.0)];
            for &e in tunnel {
                if edge_col[e] != usize::MAX {
                    row.push((edge_col[e], -flow.demand));
                }
            }
            ub.push((row, 0.0));
        }
    }
    let lp = LpProblem {
        num_vars: n_y + n_z,
        objective,
        eq,
        ub,
    };
    let sol = solve_lp(&lp, 200 * (n_constraints + n_y + n_z + 10)).ok()?;
    if sol.status != SimplexStatus::Optimal {
        return None;
    }
    Some(-sol.objective)
}

/// Solve the min-MLU program from uniform initial splits; see module docs.
pub fn solve_fw(program: &PathProgram, cfg: FwConfig) -> FwSolution {
    solve_fw_warm(program, None, cfg)
}

/// Solve the min-MLU program, optionally warm-starting from `init` splits
/// (e.g. the previous snapshot's optimum — traffic is temporally
/// correlated, so warm starts certify in far fewer iterations).
///
/// Algorithm: mirror descent on the softmax-smoothed MLU over the product
/// of per-flow simplices, with temperature continuation (the smoothing
/// sharpens geometrically). Every iteration yields a naive dual bound; a
/// restricted-dual LP (exact simplex on the bottleneck support) is solved
/// periodically for a certified bound, and the solve stops at the target
/// relative gap.
pub fn solve_fw_warm(program: &PathProgram, init: Option<&[f64]>, cfg: FwConfig) -> FwSolution {
    let nt = program.num_tunnels();
    let total_demand: f64 = program.flows.iter().map(|f| f.demand).sum();
    let mut splits = match init {
        Some(x) if program.splits_are_valid(x, 1e-6) => program.normalize_splits(x),
        _ => program.uniform_splits(),
    };
    if nt == 0 || total_demand <= 0.0 {
        let mlu = if nt == 0 { 0.0 } else { program.mlu(&splits) };
        return FwSolution {
            mlu,
            lower_bound: mlu,
            splits,
            iters: 0,
            gap: 0.0,
        };
    }

    let caps = &program.capacities;
    let m = program.num_edges;
    let mut loads = program.loads(&splits);
    let mut best_ub = f64::INFINITY;
    let mut best_splits = splits.clone();
    let mut best_lb: f64 = 0.0;

    // temperature continuation: eta doubles every `phase_len` iterations
    let phase_len = 150usize;
    let eta_max = (2.0f64 * (m as f64 + 2.0).ln() / cfg.tol).max(cfg.eta0);
    let mut step = 0.5f64;
    let mut iters = 0usize;
    let mut g = vec![0.0f64; nt];
    let mut utils = vec![0.0f64; m];

    for t in 0..cfg.max_iters {
        iters = t + 1;
        // --- utilizations of the current iterate ---
        let mut u_max: f64 = 0.0;
        for e in 0..m {
            let u = if caps[e] > 0.0 {
                loads[e] / caps[e]
            } else if loads[e] > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            utils[e] = u;
            if u > u_max {
                u_max = u;
            }
        }
        if u_max < best_ub {
            best_ub = u_max;
            best_splits = splits.clone();
        }
        if u_max <= 0.0 {
            best_lb = 0.0;
            best_ub = 0.0;
            break;
        }

        // --- smoothing temperature (relative to u_max) ---
        // lint: allow(as-cast) — powi takes i32; t is a small iteration index
        let eta = (cfg.eta0 * 2f64.powi((t / phase_len) as i32)).min(eta_max);
        let scale = if u_max.is_finite() { u_max } else { 1.0 };
        let beta = eta / scale.max(1e-30);

        // softmax weights over edges
        let mut p = vec![0.0f64; m];
        let mut psum = 0.0;
        for e in 0..m {
            let z = beta * (utils[e].min(1e30) - scale.min(1e30));
            let w = if z < -40.0 { 0.0 } else { z.exp() };
            p[e] = w;
            psum += w;
        }
        for w in p.iter_mut() {
            *w /= psum;
        }

        // --- per-tunnel gradient + naive dual bound ---
        let price = |e: usize| p[e] / caps[e].max(1e-12);
        let mut lb = 0.0f64;
        let mut idx = 0usize;
        for flow in &program.flows {
            let mut best_cost = f64::INFINITY;
            for (k, tunnel) in flow.tunnels.iter().enumerate() {
                let cost: f64 = tunnel.iter().map(|&e| price(e)).sum();
                g[idx + k] = flow.demand * cost;
                if cost < best_cost {
                    best_cost = cost;
                }
            }
            if best_cost.is_finite() {
                lb += flow.demand * best_cost;
            }
            idx += flow.tunnels.len();
        }
        if lb > best_lb {
            best_lb = lb;
        }

        // --- certification ---
        let mut gap = (best_ub - best_lb) / best_lb.max(1e-12);
        if gap > cfg.tol && (t % 200 == 199 || t + 1 == cfg.max_iters) {
            for delta in [0.02, 0.1, 0.25] {
                if let Some(rlb) = refine_dual_bound(program, &utils, delta, 50_000) {
                    if rlb > best_lb {
                        best_lb = rlb;
                    }
                }
                gap = (best_ub - best_lb) / best_lb.max(1e-12);
                if gap <= cfg.tol {
                    break;
                }
            }
        }
        if gap <= cfg.tol {
            break;
        }

        // --- mirror-descent step, candidates scored on the smoothed value ---
        let mut gscale: f64 = 0.0;
        idx = 0;
        for flow in &program.flows {
            let k = flow.tunnels.len();
            let min_g = g[idx..idx + k]
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min);
            for v in &mut g[idx..idx + k] {
                *v -= min_g;
                if v.is_finite() && *v > gscale {
                    gscale = *v;
                }
            }
            idx += k;
        }
        if gscale <= 0.0 {
            continue;
        }
        let smoothed = |l: &[f64]| -> f64 {
            let mut mx: f64 = 0.0;
            for e in 0..m {
                let u = l[e] / caps[e].max(1e-12);
                if u > mx {
                    mx = u;
                }
            }
            let mut s = 0.0;
            for e in 0..m {
                let u = l[e] / caps[e].max(1e-12);
                let z = beta * (u - mx);
                if z > -40.0 {
                    s += z.exp();
                }
            }
            mx + s.ln() / beta
        };
        let apply_step = |mu: f64, splits: &[f64]| -> Vec<f64> {
            let mut x = Vec::with_capacity(nt);
            let mut idx = 0usize;
            for flow in &program.flows {
                let k = flow.tunnels.len();
                let mut sum = 0.0;
                for i in 0..k {
                    let gg = if g[idx + i].is_finite() {
                        g[idx + i]
                    } else {
                        gscale * 50.0
                    };
                    let z = (-mu * gg / gscale).max(-50.0);
                    let v = splits[idx + i] * z.exp();
                    x.push(v);
                    sum += v;
                }
                if sum > 1e-300 {
                    for v in &mut x[idx..idx + k] {
                        *v /= sum;
                    }
                } else {
                    for v in &mut x[idx..idx + k] {
                        *v = 1.0 / k as f64;
                    }
                }
                idx += k;
            }
            x
        };
        let cur_smoothed = smoothed(&loads);
        let mut best_cand: Option<(f64, Vec<f64>, Vec<f64>, f64)> = None;
        for mu in [step * 0.5, step, step * 2.0] {
            let x = apply_step(mu, &splits);
            let l = program.loads(&x);
            let v = smoothed(&l);
            if best_cand.as_ref().is_none_or(|(bv, _, _, _)| v < *bv) {
                best_cand = Some((v, x, l, mu));
            }
        }
        let (cand_val, cand_x, cand_loads, cand_mu) = best_cand.expect("candidates");
        if cand_val <= cur_smoothed {
            splits = cand_x;
            loads = cand_loads;
            step = cand_mu.clamp(1e-6, 1e6);
        } else {
            step = (step * 0.5).max(1e-6);
        }
    }

    // Final certification attempt from the best splits' utilizations.
    if best_ub.is_finite() && (best_ub - best_lb) / best_lb.max(1e-12) > cfg.tol {
        let loads_best = program.loads(&best_splits);
        let utils_best: Vec<f64> = loads_best
            .iter()
            .zip(caps)
            .map(|(l, c)| if *c > 0.0 { l / c } else { f64::INFINITY })
            .collect();
        for delta in [0.02, 0.1, 0.25] {
            if let Some(rlb) = refine_dual_bound(program, &utils_best, delta, 100_000) {
                if rlb > best_lb {
                    best_lb = rlb;
                }
            }
            if (best_ub - best_lb) / best_lb.max(1e-12) <= cfg.tol {
                break;
            }
        }
    }

    let gap = if best_lb > 0.0 {
        (best_ub - best_lb) / best_lb
    } else if best_ub <= 0.0 {
        0.0
    } else {
        f64::INFINITY
    };
    FwSolution {
        mlu: best_ub,
        lower_bound: best_lb,
        splits: best_splits,
        iters,
        gap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::FlowSpec;

    fn parallel_links() -> PathProgram {
        PathProgram {
            num_edges: 2,
            capacities: vec![10.0, 30.0],
            flows: vec![FlowSpec {
                demand: 10.0,
                tunnels: vec![vec![0], vec![1]].into(),
            }],
        }
    }

    #[test]
    fn solves_parallel_links_to_known_optimum() {
        let sol = solve_fw(&parallel_links(), FwConfig::default());
        assert!(sol.certified(2e-3), "gap = {}", sol.gap);
        assert!((sol.mlu - 0.25).abs() < 1e-3, "mlu = {}", sol.mlu);
        assert!(sol.lower_bound <= sol.mlu + 1e-12);
    }

    #[test]
    fn shared_bottleneck() {
        // two flows share edge 0; each also has a private edge
        // caps: e0 = 10, e1 = 10, e2 = 10; demands 8 and 8
        // flow A: tunnels [e0], [e1]; flow B: tunnels [e0], [e2]
        // optimum: MLU = 16/30 = 0.5333 (spread everything evenly)
        let p = PathProgram {
            num_edges: 3,
            capacities: vec![10.0, 10.0, 10.0],
            flows: vec![
                FlowSpec {
                    demand: 8.0,
                    tunnels: vec![vec![0], vec![1]].into(),
                },
                FlowSpec {
                    demand: 8.0,
                    tunnels: vec![vec![0], vec![2]].into(),
                },
            ],
        };
        let sol = solve_fw(&p, FwConfig::default());
        assert!(sol.certified(2e-3), "gap = {}", sol.gap);
        assert!((sol.mlu - 16.0 / 30.0).abs() < 2e-3, "mlu = {}", sol.mlu);
    }

    #[test]
    fn zero_demand_is_trivial() {
        let mut p = parallel_links();
        p.flows[0].demand = 0.0;
        let sol = solve_fw(&p, FwConfig::default());
        assert_eq!(sol.mlu, 0.0);
        assert_eq!(sol.gap, 0.0);
    }

    #[test]
    fn returned_splits_match_reported_mlu() {
        let p = parallel_links();
        let sol = solve_fw(&p, FwConfig::default());
        assert!(p.splits_are_valid(&sol.splits, 1e-6));
        assert!((p.mlu(&sol.splits) - sol.mlu).abs() < 1e-9);
    }
}
