//! The shared path-routing instance: capacities, flows with demands, and
//! each flow's tunnels as edge lists.

use std::sync::Arc;

use harp_paths::TunnelSet;
use harp_topology::{EdgeId, Topology};
use harp_traffic::TrafficMatrix;

/// One flow: a demand and the tunnels it may use.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Offered demand (same units as capacities).
    pub demand: f64,
    /// Tunnels, each a list of directed edge ids. Shared: retargeting a
    /// program at new demands ([`PathProgram::set_demands`] on a clone)
    /// copies no path.
    pub tunnels: Arc<[Vec<EdgeId>]>,
}

/// A complete min-MLU instance over fixed paths.
#[derive(Clone, Debug)]
pub struct PathProgram {
    /// Number of directed edges.
    pub num_edges: usize,
    /// Capacity per edge (zero-capacity edges should be floored by the
    /// caller, e.g. to `1e-4`, as the paper does).
    pub capacities: Vec<f64>,
    /// Flows with demands and tunnels.
    pub flows: Vec<FlowSpec>,
}

impl PathProgram {
    /// Build from a topology, its tunnel set, and a traffic matrix.
    /// Flows with zero demand are kept (their splits are unconstrained but
    /// harmless) so tunnel indexing matches the neural models'.
    pub fn new(topo: &Topology, tunnels: &TunnelSet, tm: &TrafficMatrix) -> Self {
        assert_eq!(
            tm.num_nodes(),
            topo.num_nodes(),
            "traffic matrix does not match topology"
        );
        let mut program = Self::unloaded(topo, tunnels);
        program.set_demands(tunnels.flows().iter().map(|&(s, t)| tm.demand(s, t)));
        program
    }

    /// The traffic-independent part of [`Self::new`]: capacities and every
    /// flow's tunnels, all demands zero.
    pub fn unloaded(topo: &Topology, tunnels: &TunnelSet) -> Self {
        let flows = (0..tunnels.num_flows())
            .map(|f| FlowSpec {
                demand: 0.0,
                tunnels: tunnels.tunnels_of(f).iter().map(|p| p.0.clone()).collect(),
            })
            .collect();
        PathProgram {
            num_edges: topo.num_edges(),
            capacities: topo.capacities(),
            flows,
        }
    }

    /// Replace every flow's demand, in flow order.
    pub fn set_demands(&mut self, demands: impl IntoIterator<Item = f64>) {
        let mut demands = demands.into_iter();
        for flow in &mut self.flows {
            flow.demand = demands.next().expect("one demand per flow");
        }
    }

    /// Total number of tunnels across flows.
    pub fn num_tunnels(&self) -> usize {
        self.flows.iter().map(|f| f.tunnels.len()).sum()
    }

    /// Number of flows.
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Per-edge load induced by `splits` (flat per-tunnel fractions,
    /// grouped by flow). Panics on length mismatch.
    pub fn loads(&self, splits: &[f64]) -> Vec<f64> {
        assert_eq!(splits.len(), self.num_tunnels(), "splits length");
        let mut loads = vec![0.0f64; self.num_edges];
        let mut idx = 0usize;
        for flow in &self.flows {
            for tunnel in flow.tunnels.iter() {
                let traffic = flow.demand * splits[idx];
                for &e in tunnel {
                    loads[e] += traffic;
                }
                idx += 1;
            }
        }
        loads
    }

    /// Maximum link utilization induced by `splits`.
    pub fn mlu(&self, splits: &[f64]) -> f64 {
        let loads = self.loads(splits);
        loads
            .iter()
            .zip(&self.capacities)
            .map(|(l, c)| if *c > 0.0 { l / c } else { f64::INFINITY })
            .fold(0.0, f64::max)
    }

    /// Normalize raw per-tunnel weights into per-flow fractions summing to
    /// one (uniform when a flow's weights sum to ~zero).
    pub fn normalize_splits(&self, raw: &[f64]) -> Vec<f64> {
        assert_eq!(raw.len(), self.num_tunnels(), "splits length");
        let mut out = raw.to_vec();
        let mut idx = 0usize;
        for flow in &self.flows {
            let k = flow.tunnels.len();
            let sum: f64 = out[idx..idx + k].iter().sum();
            if sum > 1e-12 {
                for v in &mut out[idx..idx + k] {
                    *v /= sum;
                }
            } else {
                for v in &mut out[idx..idx + k] {
                    *v = 1.0 / k as f64;
                }
            }
            idx += k;
        }
        out
    }

    /// Uniform splits (every tunnel of a flow gets `1/k`).
    pub fn uniform_splits(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_tunnels());
        for flow in &self.flows {
            let k = flow.tunnels.len();
            out.extend(std::iter::repeat_n(1.0 / k as f64, k));
        }
        out
    }

    /// Verify that `splits` is a valid per-flow distribution (within tol).
    pub fn splits_are_valid(&self, splits: &[f64], tol: f64) -> bool {
        if splits.len() != self.num_tunnels() {
            return false;
        }
        if splits.iter().any(|s| *s < -tol || !s.is_finite()) {
            return false;
        }
        let mut idx = 0usize;
        for flow in &self.flows {
            let k = flow.tunnels.len();
            let sum: f64 = splits[idx..idx + k].iter().sum();
            if (sum - 1.0).abs() > tol {
                return false;
            }
            idx += k;
        }
        true
    }

    /// Redistribute traffic away from tunnels crossing edges whose capacity
    /// is at or below `failed_threshold`, proportionally to the surviving
    /// tunnels' splits (the paper's *local rescaling* applied to DOTE/TEAL
    /// under complete link failures). Flows with no surviving tunnel keep
    /// their original splits (their traffic is stranded, yielding a huge
    /// MLU — as in the paper's "MLU of ∞" observation).
    pub fn rescale_around_failures(&self, splits: &[f64], failed_threshold: f64) -> Vec<f64> {
        assert_eq!(splits.len(), self.num_tunnels(), "splits length");
        let failed_edge: Vec<bool> = self
            .capacities
            .iter()
            .map(|c| *c <= failed_threshold)
            .collect();
        let mut out = splits.to_vec();
        let mut idx = 0usize;
        for flow in &self.flows {
            let k = flow.tunnels.len();
            let alive: Vec<bool> = flow
                .tunnels
                .iter()
                .map(|t| t.iter().all(|&e| !failed_edge[e]))
                .collect();
            let alive_mass: f64 = (0..k).filter(|&i| alive[i]).map(|i| splits[idx + i]).sum();
            let any_alive = alive.iter().any(|a| *a);
            if any_alive {
                if alive_mass > 1e-12 {
                    for i in 0..k {
                        out[idx + i] = if alive[i] {
                            splits[idx + i] / alive_mass
                        } else {
                            0.0
                        };
                    }
                } else {
                    // surviving tunnels had no mass: spread uniformly
                    let n_alive = alive.iter().filter(|a| **a).count() as f64;
                    for i in 0..k {
                        out[idx + i] = if alive[i] { 1.0 / n_alive } else { 0.0 };
                    }
                }
            }
            idx += k;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two nodes, two parallel links (cap 10 and 30), one flow of 10.
    pub(crate) fn parallel_links() -> PathProgram {
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
    fn loads_and_mlu() {
        let p = parallel_links();
        let mlu = p.mlu(&[0.5, 0.5]);
        assert!((mlu - 0.5).abs() < 1e-12); // 5/10
        let opt = p.mlu(&[0.25, 0.75]);
        assert!((opt - 0.25).abs() < 1e-12); // equalized
    }

    #[test]
    fn normalize_and_validate() {
        let p = parallel_links();
        let norm = p.normalize_splits(&[2.0, 6.0]);
        assert!((norm[0] - 0.25).abs() < 1e-12);
        assert!(p.splits_are_valid(&norm, 1e-9));
        assert!(!p.splits_are_valid(&[0.9, 0.9], 1e-9));
        let uni = p.uniform_splits();
        assert_eq!(uni, vec![0.5, 0.5]);
        // zero weights become uniform
        let z = p.normalize_splits(&[0.0, 0.0]);
        assert_eq!(z, vec![0.5, 0.5]);
    }

    #[test]
    fn rescaling_moves_mass_off_failed_links() {
        let mut p = parallel_links();
        p.capacities[0] = 1e-5; // link 0 failed
        let r = p.rescale_around_failures(&[0.6, 0.4], 1e-4);
        assert_eq!(r, vec![0.0, 1.0]);
        // no surviving tunnel: splits unchanged
        let mut p2 = parallel_links();
        p2.capacities = vec![1e-5, 1e-5];
        let r2 = p2.rescale_around_failures(&[0.6, 0.4], 1e-4);
        assert_eq!(r2, vec![0.6, 0.4]);
    }

    #[test]
    fn zero_mass_survivors_get_uniform() {
        let p = PathProgram {
            num_edges: 3,
            capacities: vec![1e-5, 10.0, 10.0],
            flows: vec![FlowSpec {
                demand: 1.0,
                tunnels: vec![vec![0], vec![1], vec![2]].into(),
            }],
        };
        let r = p.rescale_around_failures(&[1.0, 0.0, 0.0], 1e-4);
        assert_eq!(r, vec![0.0, 0.5, 0.5]);
    }
}
