//! The shared differentiable MLU objective and helpers to extract splits.

use harp_tensor::{Tape, Var};

use crate::Instance;

/// Given normalized per-tunnel splits `[T]` on the tape, compute the MLU:
/// per-tunnel traffic = split · demand, edge loads by scatter-add over the
/// (tunnel, edge) incidence, utilization = load / capacity, MLU = max.
/// Gradients flow to the splits through the (sub-differentiable) max.
pub fn mlu_loss(tape: &mut Tape, splits: Var, instance: &Instance) -> Var {
    let demand = tape.constant_slice(vec![instance.num_tunnels], &instance.tunnel_demand);
    let traffic = tape.mul(splits, demand);
    let pair_traffic = tape.gather_rows(traffic, instance.pair_tunnel.clone());
    let loads = tape.segment_sum(pair_traffic, instance.pair_edge.clone(), instance.num_edges);
    let inv_caps = tape.constant_slice(vec![instance.num_edges], &instance.edge_inv_caps);
    let utils = tape.mul(loads, inv_caps);
    tape.max_all(utils)
}

/// Utilization vector (`[E]`) for the given splits — used inside HARP's RAU
/// and by diagnostics.
pub fn utilization(tape: &mut Tape, splits: Var, instance: &Instance) -> Var {
    let demand = tape.constant_slice(vec![instance.num_tunnels], &instance.tunnel_demand);
    let traffic = tape.mul(splits, demand);
    let pair_traffic = tape.gather_rows(traffic, instance.pair_tunnel.clone());
    let loads = tape.segment_sum(pair_traffic, instance.pair_edge.clone(), instance.num_edges);
    let inv_caps = tape.constant_slice(vec![instance.num_edges], &instance.edge_inv_caps);
    tape.mul(loads, inv_caps)
}

/// Read a forward pass's splits off the tape as `f64` (for exact
/// evaluation with the instance's path program).
pub fn splits_from_forward(tape: &Tape, splits: Var) -> Vec<f64> {
    tape.value(splits).iter().map(|&x| x as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_paths::TunnelSet;
    use harp_topology::Topology;
    use harp_traffic::TrafficMatrix;

    fn instance() -> Instance {
        let mut topo = Topology::new(3);
        topo.add_link(0, 1, 10.0).unwrap();
        topo.add_link(1, 2, 10.0).unwrap();
        topo.add_link(0, 2, 40.0).unwrap();
        let tunnels = TunnelSet::k_shortest(&topo, &[0, 2], 2, 0.0);
        let mut tm = TrafficMatrix::zeros(3);
        tm.set_demand(0, 2, 8.0);
        Instance::compile(&topo, &tunnels, &tm)
    }

    #[test]
    fn mlu_matches_exact_program() {
        let inst = instance();
        let mut t = Tape::new();
        // flow 0->2: direct (cap 40) and via 1 (cap 10); flow 2->0 too.
        let k = inst.tunnels_per_flow();
        assert!(k.iter().all(|&c| c == 2));
        let mut s = Vec::new();
        for _ in 0..inst.num_flows {
            s.extend_from_slice(&[0.75f32, 0.25]);
        }
        let sv = t.constant(vec![inst.num_tunnels], s.clone());
        let loss = mlu_loss(&mut t, sv, &inst);
        let exact = inst
            .program
            .mlu(&s.iter().map(|&x| x as f64).collect::<Vec<_>>());
        assert!(
            (t.scalar_value(loss) as f64 - exact).abs() < 1e-5,
            "tape {} vs exact {}",
            t.scalar_value(loss),
            exact
        );
    }

    #[test]
    fn gradient_pushes_traffic_off_bottleneck() {
        // Train raw logits through the loss: after a few gradient steps the
        // split of the overloaded tunnel must drop.
        use harp_tensor::ParamStore;
        let inst = instance();
        let mut store = ParamStore::new();
        // logits initialized to favor the low-capacity tunnel heavily
        let mut init = Vec::new();
        for _ in 0..inst.num_flows {
            init.extend_from_slice(&[2.0f32, 0.0]);
        }
        let id = store.register("u", vec![inst.num_tunnels], init);
        let splits_of = |store: &ParamStore| {
            let mut t = Tape::new();
            let u = t.param(store, id);
            let s = t.segment_softmax(u, inst.tunnel_flow.clone(), inst.num_flows);
            let loss = mlu_loss(&mut t, s, &inst);
            (t, s, loss)
        };
        let (t0, s0, l0) = splits_of(&store);
        let before_split = t0.value(s0)[0];
        let before_loss = t0.scalar_value(l0);
        for _ in 0..50 {
            let (t, _, loss) = splits_of(&store);
            store.zero_grads();
            t.backward(loss, &mut store);
            let g: Vec<f32> = store.grad(id).to_vec();
            for (d, gi) in store.data_mut(id).iter_mut().zip(g) {
                *d -= 0.5 * gi;
            }
        }
        let (t1, s1, l1) = splits_of(&store);
        assert!(t1.scalar_value(l1) < before_loss, "loss must decrease");
        assert!(t1.value(s1)[0] < before_split, "mass moves off bottleneck");
    }

    #[test]
    fn utilization_matches_loads() {
        let inst = instance();
        let mut t = Tape::new();
        let mut s = Vec::new();
        for _ in 0..inst.num_flows {
            s.extend_from_slice(&[0.5f32, 0.5]);
        }
        let sv = t.constant(vec![inst.num_tunnels], s.clone());
        let u = utilization(&mut t, sv, &inst);
        let loads = inst
            .program
            .loads(&s.iter().map(|&x| x as f64).collect::<Vec<_>>());
        for e in 0..inst.num_edges {
            let expect = loads[e] / inst.program.capacities[e];
            assert!(
                (t.value(u)[e] as f64 - expect).abs() < 1e-5,
                "edge {e}: {} vs {}",
                t.value(u)[e],
                expect
            );
        }
    }
}
