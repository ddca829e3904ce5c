//! The TEAL-like baseline (Xu et al., SIGCOMM '23).
//!
//! Architecture per the paper's description (§2.1): alternating FlowGNN
//! layers — a bipartite message-passing between edges and tunnels — and a
//! per-flow policy that **concatenates the flow's tunnel embeddings in
//! input order** and emits split logits. The concatenation is what makes
//! TEAL sensitive to tunnel reordering (§2.3), which Fig 7 measures.
//!
//! Substitution (see DESIGN.md): the original trains the policy with
//! reinforcement learning; we train with the same differentiable MLU loss
//! as HARP/DOTE, which is strictly kinder to TEAL (the paper itself could
//! not get RL training to converge on capacity-varying data, a contrast
//! fig18 reproduces via loss curves).

use std::sync::Arc;

use harp_nn::{Activation, Linear, Mlp};
use harp_tensor::{ParamStore, Tape, Var};
use rand::Rng;

use crate::{Instance, SplitModel};

/// TEAL hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct TealConfig {
    /// Embedding width of edges/tunnels.
    pub hidden: usize,
    /// Number of FlowGNN (edge↔tunnel) layers (paper searches 6, 8).
    pub layers: usize,
    /// Hidden width of the per-flow policy MLP.
    pub policy_hidden: usize,
    /// Tunnels per flow the policy is built for (flows with fewer tunnels
    /// get zero-padded slots).
    pub tunnels_per_flow: usize,
}

impl Default for TealConfig {
    fn default() -> Self {
        TealConfig {
            hidden: 12,
            layers: 4,
            policy_hidden: 48,
            tunnels_per_flow: 4,
        }
    }
}

/// The TEAL-like model.
#[derive(Clone, Debug)]
pub struct Teal {
    cfg: TealConfig,
    edge_init: Linear,
    tunnel_init: Linear,
    edge_updates: Vec<Linear>,
    tunnel_updates: Vec<Linear>,
    policy: Mlp,
}

impl Teal {
    /// Construct with fresh parameters. `cfg.tunnels_per_flow` must be the
    /// maximum tunnels any flow has in the instances this model will see.
    pub fn new<R: Rng>(store: &mut ParamStore, rng: &mut R, cfg: TealConfig) -> Self {
        let h = cfg.hidden;
        let edge_init = Linear::new(store, rng, "teal.edge_init", 1, h, true);
        let tunnel_init = Linear::new(store, rng, "teal.tunnel_init", 1, h, true);
        let mut edge_updates = Vec::with_capacity(cfg.layers);
        let mut tunnel_updates = Vec::with_capacity(cfg.layers);
        for l in 0..cfg.layers {
            tunnel_updates.push(Linear::new(
                store,
                rng,
                &format!("teal.tunnel_up.{l}"),
                2 * h,
                h,
                true,
            ));
            // The policy head reads only tunnel embeddings, so an edge
            // update after the last tunnel update would be dead weight
            // (zero gradient forever) — the final layer skips it.
            if l + 1 < cfg.layers {
                edge_updates.push(Linear::new(
                    store,
                    rng,
                    &format!("teal.edge_up.{l}"),
                    2 * h,
                    h,
                    true,
                ));
            }
        }
        let policy = Mlp::new(
            store,
            rng,
            "teal.policy",
            &[
                cfg.tunnels_per_flow * h + 1,
                cfg.policy_hidden,
                cfg.tunnels_per_flow,
            ],
            Activation::LeakyRelu(0.01),
            Activation::Identity,
        );
        Teal {
            cfg,
            edge_init,
            tunnel_init,
            edge_updates,
            tunnel_updates,
            policy,
        }
    }
}

impl SplitModel for Teal {
    fn forward(&self, t: &mut Tape, s: &ParamStore, inst: &Instance) -> Var {
        let h = self.cfg.hidden;
        let k = self.cfg.tunnels_per_flow;
        let counts = inst.tunnels_per_flow();
        assert!(
            counts.iter().all(|&c| c <= k),
            "TEAL built for {} tunnels/flow, instance has a flow with {}",
            k,
            counts.iter().max().copied().unwrap_or(0)
        );

        // per-tunnel edge counts for mean aggregation
        let mut tunnel_len = vec![0.0f32; inst.num_tunnels];
        for &tt in inst.pair_tunnel.iter() {
            tunnel_len[tt] += 1.0;
        }
        let inv_len: Vec<f32> = tunnel_len.iter().map(|&l| 1.0 / l.max(1.0)).collect();

        let caps = t.constant_slice(vec![inst.num_edges, 1], &inst.edge_caps);
        let mut edge_emb = self.edge_init.forward(t, s, caps);
        edge_emb = t.tanh(edge_emb);
        let demand_col = t.constant(vec![inst.num_tunnels, 1], inst.tunnel_demand.clone());
        let mut tun_emb = self.tunnel_init.forward(t, s, demand_col);
        tun_emb = t.tanh(tun_emb);

        for (l, tu) in self.tunnel_updates.iter().enumerate() {
            // tunnel <- mean of its edges' embeddings
            let gathered = t.gather_rows(edge_emb, inst.pair_edge.clone());
            let summed = t.segment_sum(gathered, inst.pair_tunnel.clone(), inst.num_tunnels);
            let inv = t.constant(vec![inst.num_tunnels, 1], inv_len.clone());
            let inv_b = t.concat_cols(&vec![inv; h]);
            let mean = t.mul(summed, inv_b);
            let tin = t.concat_cols(&[tun_emb, mean]);
            let tnew = tu.forward(t, s, tin);
            tun_emb = t.tanh(tnew);

            // edge <- sum of crossing tunnels' embeddings (skipped after
            // the last tunnel update: nothing downstream reads edges)
            if let Some(eu) = self.edge_updates.get(l) {
                let gathered_t = t.gather_rows(tun_emb, inst.pair_tunnel.clone());
                let summed_e = t.segment_sum(gathered_t, inst.pair_edge.clone(), inst.num_edges);
                let ein = t.concat_cols(&[edge_emb, summed_e]);
                let enew = eu.forward(t, s, ein);
                edge_emb = t.tanh(enew);
            }
        }

        // per-flow policy over concatenated (ordered!) tunnel embeddings
        // slot (f, j) -> global tunnel id, or the zero row for missing slots
        let zero_row = t.zeros(vec![1, h]);
        let table = t.concat_rows(&[tun_emb, zero_row]); // row T = zeros
        let mut slot_index = vec![inst.num_tunnels; inst.num_flows * k];
        let mut tunnel_slot = vec![0usize; inst.num_tunnels];
        let mut seen = vec![0usize; inst.num_flows];
        for (g, &f) in inst.tunnel_flow.iter().enumerate() {
            let j = seen[f];
            slot_index[f * k + j] = g;
            tunnel_slot[g] = f * k + j;
            seen[f] += 1;
        }
        let slots = t.gather_rows(table, Arc::new(slot_index));
        let per_flow = t.reshape(slots, vec![inst.num_flows, k * h]);
        let fdem = t.constant(vec![inst.num_flows, 1], inst.flow_demands.clone());
        let pin = t.concat_cols(&[per_flow, fdem]);
        let logits = self.policy.forward(t, s, pin); // [F, k]
        let logits_flat = t.reshape(logits, vec![inst.num_flows * k]);
        let tunnel_logits = t.gather_rows(logits_flat, Arc::new(tunnel_slot));
        t.segment_softmax(tunnel_logits, inst.tunnel_flow.clone(), inst.num_flows)
    }

    fn name(&self) -> &'static str {
        "TEAL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mlu_loss;
    use harp_paths::TunnelSet;
    use harp_topology::Topology;
    use harp_traffic::TrafficMatrix;
    use rand::{rngs::StdRng, SeedableRng};

    fn diamond_instance() -> Instance {
        let mut topo = Topology::new(4);
        topo.add_link(0, 1, 10.0).unwrap();
        topo.add_link(1, 3, 10.0).unwrap();
        topo.add_link(0, 2, 20.0).unwrap();
        topo.add_link(2, 3, 20.0).unwrap();
        let tunnels = TunnelSet::k_shortest(&topo, &[0, 3], 2, 0.0);
        let mut tm = TrafficMatrix::zeros(4);
        tm.set_demand(0, 3, 12.0);
        tm.set_demand(3, 0, 6.0);
        Instance::compile(&topo, &tunnels, &tm)
    }

    fn cfg() -> TealConfig {
        TealConfig {
            hidden: 8,
            layers: 2,
            policy_hidden: 16,
            tunnels_per_flow: 2,
        }
    }

    #[test]
    fn valid_splits_and_training() {
        let inst = diamond_instance();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let teal = Teal::new(&mut store, &mut rng, cfg());
        let loss_of = |store: &ParamStore| {
            let mut t = Tape::new();
            let sp = teal.forward(&mut t, store, &inst);
            let l = mlu_loss(&mut t, sp, &inst);
            (t, sp, l)
        };
        let (t0, s0, l0) = loss_of(&store);
        let sv: Vec<f64> = t0.value(s0).iter().map(|&x| x as f64).collect();
        assert!(inst.program.splits_are_valid(&sv, 1e-4));
        let before = t0.scalar_value(l0);
        let mut opt = harp_nn::Adam::new(&store, harp_nn::AdamConfig::with_lr(5e-3));
        for _ in 0..40 {
            let (t, _, l) = loss_of(&store);
            store.zero_grads();
            t.backward(l, &mut store);
            opt.step_and_zero(&mut store);
        }
        let (t1, _, l1) = loss_of(&store);
        assert!(t1.scalar_value(l1) < before);
    }

    #[test]
    fn sensitive_to_tunnel_order() {
        // Reordering tunnels within a flow permutes the concatenated policy
        // input; TEAL's output for the *same* tunnel changes (§2.3).
        let mut topo = Topology::new(4);
        topo.add_link(0, 1, 10.0).unwrap();
        topo.add_link(1, 3, 10.0).unwrap();
        topo.add_link(0, 2, 20.0).unwrap();
        topo.add_link(2, 3, 20.0).unwrap();
        let tunnels = TunnelSet::k_shortest(&topo, &[0, 3], 2, 0.0);
        // force a reversal of each flow's tunnel list (deterministic)
        let flows = tunnels.flows().to_vec();
        let reversed: Vec<Vec<harp_paths::Path>> = (0..tunnels.num_flows())
            .map(|f| {
                let mut v = tunnels.tunnels_of(f).to_vec();
                v.reverse();
                v
            })
            .collect();
        let shuffled = TunnelSet::from_parts(flows, reversed);

        let mut tm = TrafficMatrix::zeros(4);
        tm.set_demand(0, 3, 12.0);
        tm.set_demand(3, 0, 6.0);
        let inst = Instance::compile(&topo, &tunnels, &tm);
        let sinst = Instance::compile(&topo, &shuffled, &tm);

        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let teal = Teal::new(&mut store, &mut rng, cfg());
        let mut t1 = Tape::new();
        let s1 = teal.forward(&mut t1, &store, &inst);
        let mut t2 = Tape::new();
        let s2 = teal.forward(&mut t2, &store, &sinst);

        // same physical tunnel (flow 0's shortest path) sits at index 0 in
        // inst and index 1 in sinst; outputs differ for a generic model
        let a = t1.value(s1)[0];
        let b = t2.value(s2)[1];
        assert!(
            (a - b).abs() > 1e-6,
            "TEAL unexpectedly invariant to tunnel order: {a} vs {b}"
        );
    }

    #[test]
    fn capacity_changes_reach_the_output() {
        // unlike DOTE, TEAL sees capacities through edge embeddings
        let inst = diamond_instance();
        let mut topo2 = Topology::new(4);
        topo2.add_link(0, 1, 2.0).unwrap();
        topo2.add_link(1, 3, 2.0).unwrap();
        topo2.add_link(0, 2, 20.0).unwrap();
        topo2.add_link(2, 3, 20.0).unwrap();
        let tunnels = TunnelSet::k_shortest(&topo2, &[0, 3], 2, 0.0);
        let mut tm = TrafficMatrix::zeros(4);
        tm.set_demand(0, 3, 12.0);
        tm.set_demand(3, 0, 6.0);
        let inst2 = Instance::compile(&topo2, &tunnels, &tm);

        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let teal = Teal::new(&mut store, &mut rng, cfg());
        let mut t1 = Tape::new();
        let s1 = teal.forward(&mut t1, &store, &inst);
        let mut t2 = Tape::new();
        let s2 = teal.forward(&mut t2, &store, &inst2);
        let diff: f32 = t1
            .value(s1)
            .iter()
            .zip(t2.value(s2))
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-6, "capacity change did not affect TEAL output");
    }
}
