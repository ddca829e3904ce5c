//! The optimal-MLU oracle: LP construction from a [`PathProgram`] and a
//! size-based choice between the exact simplex and the certified
//! Frank–Wolfe solver.

use crate::fw::{solve_fw, FwConfig};
use crate::program::PathProgram;
use crate::simplex::{solve_lp, LpProblem, SimplexStatus};

/// An optimal (or certified near-optimal) solution.
#[derive(Clone, Debug)]
pub struct OracleSolution {
    /// The optimal MLU (exact for the simplex path; within the configured
    /// gap for the Frank–Wolfe path).
    pub mlu: f64,
    /// Optimal splits.
    pub splits: Vec<f64>,
    /// True when produced by the exact simplex.
    pub exact: bool,
}

/// Chooses and runs a solver for min-MLU path programs.
///
/// Routing heuristic: the dense two-phase simplex costs roughly
/// `pivots x rows x cols ~ 2 (F+E)^2 (T+F+E)` flops; instances under
/// [`MluOracle::exact_cost_limit`] use it (it is *exact* and, empirically,
/// much faster than first-order methods up to GEANT/KDL-small scale), and
/// only genuinely large instances fall back to the certified Frank–Wolfe
/// solver.
#[derive(Clone, Copy, Debug)]
pub struct MluOracle {
    /// Estimated-flop ceiling for the exact simplex path.
    pub exact_cost_limit: f64,
    /// Gap tolerance for the approximate path.
    pub fw_tol: f64,
}

impl Default for MluOracle {
    fn default() -> Self {
        MluOracle {
            exact_cost_limit: 3e10,
            fw_tol: 1e-3,
        }
    }
}

/// Build the min-MLU LP for `program`. Variable layout: tunnels first (flat,
/// grouped by flow), then θ as the last variable.
pub fn build_mlu_lp(program: &PathProgram) -> LpProblem {
    let nt = program.num_tunnels();
    let theta = nt;
    let mut objective = vec![0.0f64; nt + 1];
    objective[theta] = 1.0;

    let mut eq = Vec::with_capacity(program.num_flows());
    let mut idx = 0usize;
    // per-edge accumulation of d_f x_{f,k} coefficients
    let mut edge_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); program.num_edges];
    for flow in &program.flows {
        let k = flow.tunnels.len();
        let row: Vec<(usize, f64)> = (0..k).map(|i| (idx + i, 1.0)).collect();
        eq.push((row, 1.0));
        for (i, tunnel) in flow.tunnels.iter().enumerate() {
            for &e in tunnel {
                edge_rows[e].push((idx + i, flow.demand));
            }
        }
        idx += k;
    }
    // Normalize each edge row by its capacity (`Σ (d/c) x - θ <= 0`): the
    // θ column stays ±1 regardless of how small a failed link's capacity
    // floor is, which keeps the tableau well-conditioned under failures.
    let ub = edge_rows
        .into_iter()
        .enumerate()
        .filter(|(_, row)| !row.is_empty())
        .map(|(e, row)| {
            let c = program.capacities[e].max(1e-12);
            let mut row: Vec<(usize, f64)> = row.into_iter().map(|(j, v)| (j, v / c)).collect();
            row.push((theta, -1.0));
            (row, 0.0)
        })
        .collect();

    LpProblem {
        num_vars: nt + 1,
        objective,
        eq,
        ub,
    }
}

impl MluOracle {
    /// Solve `program` to (near-)optimality.
    ///
    /// Panics if the exact solver fails on an instance routed to it (this
    /// indicates a bug — the LP is always feasible and bounded when every
    /// flow has a tunnel and demands are finite).
    pub fn solve(&self, program: &PathProgram) -> OracleSolution {
        self.solve_warm(program, None)
    }

    /// Like [`MluOracle::solve`]; a warm start (previous optimum of a
    /// similar instance) accelerates the Frank–Wolfe path and is ignored by
    /// the exact path.
    pub fn solve_warm(&self, program: &PathProgram, warm: Option<&[f64]>) -> OracleSolution {
        if self.estimated_exact_cost(program) <= self.exact_cost_limit {
            // exact first; fall back to the certified first-order solver on
            // the (rare) numerically-degenerate instance
            if let Some(sol) = self.try_exact(program) {
                return sol;
            }
            self.solve_approx(program)
        } else {
            let sol = crate::fw::solve_fw_warm(
                program,
                warm,
                FwConfig {
                    tol: self.fw_tol,
                    ..Default::default()
                },
            );
            OracleSolution {
                mlu: sol.mlu,
                splits: sol.splits,
                exact: false,
            }
        }
    }

    /// Rough flop estimate for the dense simplex on this instance.
    pub fn estimated_exact_cost(&self, program: &PathProgram) -> f64 {
        let rows = (program.num_flows() + program.num_edges) as f64;
        let cols = (program.num_tunnels() + program.num_flows() + program.num_edges) as f64;
        2.0 * rows * rows * cols
    }

    /// Force the exact simplex path. Panics when the simplex fails (use
    /// [`MluOracle::solve`] for automatic fallback).
    pub fn solve_exact(&self, program: &PathProgram) -> OracleSolution {
        self.try_exact(program)
            .expect("min-MLU LP must be solvable by the simplex")
    }

    /// Exact simplex attempt; `None` on numerical failure.
    fn try_exact(&self, program: &PathProgram) -> Option<OracleSolution> {
        let lp = build_mlu_lp(program);
        let iters = 200 * (lp.eq.len() + lp.ub.len() + 10);
        let sol = solve_lp(&lp, iters).ok()?;
        if sol.status != SimplexStatus::Optimal {
            return None;
        }
        let nt = program.num_tunnels();
        let splits = program.normalize_splits(&sol.x[..nt]);
        // Evaluate MLU from the splits (robust to tiny simplex roundoff).
        let mlu = program.mlu(&splits);
        Some(OracleSolution {
            mlu,
            splits,
            exact: true,
        })
    }

    /// Force the certified Frank–Wolfe path.
    pub fn solve_approx(&self, program: &PathProgram) -> OracleSolution {
        let sol = solve_fw(
            program,
            FwConfig {
                tol: self.fw_tol,
                ..Default::default()
            },
        );
        OracleSolution {
            mlu: sol.mlu,
            splits: sol.splits,
            exact: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::FlowSpec;
    use harp_paths::TunnelSet;
    use harp_topology::Topology;
    use harp_traffic::TrafficMatrix;
    use rand::{rngs::StdRng, Rng, SeedableRng};

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
    fn exact_solves_parallel_links() {
        let o = MluOracle::default();
        let sol = o.solve_exact(&parallel_links());
        assert!(sol.exact);
        assert!((sol.mlu - 0.25).abs() < 1e-8, "mlu = {}", sol.mlu);
    }

    #[test]
    fn exact_and_fw_agree_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..8 {
            // random ring topology with chords and random demands
            let n = 6;
            let mut topo = Topology::new(n);
            for i in 0..n {
                topo.add_link(i, (i + 1) % n, rng.gen_range(5.0..20.0))
                    .unwrap();
            }
            topo.add_link(0, 3, rng.gen_range(5.0..20.0)).unwrap();
            topo.add_link(1, 4, rng.gen_range(5.0..20.0)).unwrap();

            let edge_nodes: Vec<usize> = (0..n).collect();
            let tunnels = TunnelSet::k_shortest(&topo, &edge_nodes, 3, 0.0);
            let mut tm = TrafficMatrix::zeros(n);
            for s in 0..n {
                for t in 0..n {
                    if s != t && rng.gen::<f64>() < 0.6 {
                        tm.set_demand(s, t, rng.gen_range(0.5..4.0));
                    }
                }
            }
            let prog = PathProgram::new(&topo, &tunnels, &tm);
            let o = MluOracle::default();
            let exact = o.solve_exact(&prog);
            let approx = o.solve_approx(&prog);
            let rel = (approx.mlu - exact.mlu).abs() / exact.mlu.max(1e-9);
            assert!(
                rel < 5e-3,
                "trial {trial}: exact {} vs fw {} (rel {rel})",
                exact.mlu,
                approx.mlu
            );
            // FW never reports below the true optimum (it is primal feasible)
            assert!(approx.mlu >= exact.mlu - 1e-6);
        }
    }

    #[test]
    fn oracle_beats_uniform_splits() {
        let p = parallel_links();
        let o = MluOracle::default();
        let sol = o.solve(&p);
        assert!(sol.mlu <= p.mlu(&p.uniform_splits()) + 1e-9);
    }

    #[test]
    fn size_routing() {
        let p = parallel_links();
        let o = MluOracle {
            exact_cost_limit: 0.0,
            fw_tol: 1e-3,
        };
        assert!(!o.solve(&p).exact);
        let o2 = MluOracle::default();
        assert!(o2.solve(&p).exact);
    }
}
