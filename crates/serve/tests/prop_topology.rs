//! Property tests for topology-update handling: on random fail/restore
//! sequences over a fixed WAN,
//!
//! 1. the pruned tunnel set never contains a tunnel traversing a failed
//!    edge;
//! 2. the incrementally-maintained state matches a from-scratch rebuild
//!    (same pruned tunnels, and a compiled instance with identical flow
//!    structure and uniform-splits MLU);
//! 3. splits carried across an update renormalize to exactly 1 per
//!    surviving demand.

use std::collections::BTreeSet;

use harp_core::Instance;
use harp_paths::TunnelSet;
use harp_serve::{carry_splits, uniform_splits, NetworkState};
use harp_topology::Topology;
use harp_traffic::TrafficMatrix;
use proptest::prelude::*;

/// Undirected links of the test WAN (5 nodes, enough redundancy that
/// every sequence leaves some connectivity).
const LINKS: [(usize, usize); 7] = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)];

fn test_wan() -> (Topology, TunnelSet) {
    let mut topo = Topology::new(5);
    for (i, &(u, v)) in LINKS.iter().enumerate() {
        topo.add_link(u, v, 10.0 + i as f64).unwrap();
    }
    let tunnels = TunnelSet::k_shortest(&topo, &[0, 1, 2, 3, 4], 3, 0.0);
    (topo, tunnels)
}

/// Decode one raw value into a (fail?, link) op. Even = fail, odd =
/// restore; the link index wraps over the link table.
fn decode(raw: usize) -> (bool, (usize, usize)) {
    (raw.is_multiple_of(2), LINKS[(raw / 2) % LINKS.len()])
}

/// Replay `ops` through a NetworkState, returning it plus the directed
/// failed-edge set maintained independently as ground truth.
fn replay(ops: &[usize]) -> (NetworkState, BTreeSet<usize>) {
    let (topo, tunnels) = test_wan();
    let mut truth: BTreeSet<usize> = BTreeSet::new();
    let mut state = NetworkState::new(topo.clone(), tunnels);
    for &raw in ops {
        let (fail, (u, v)) = decode(raw);
        let fwd = topo.edge_id(u, v).unwrap();
        let rev = topo.edge_id(v, u).unwrap();
        if fail {
            state.apply_update(&[(u, v)], &[]).unwrap();
            truth.insert(fwd);
            truth.insert(rev);
        } else {
            state.apply_update(&[], &[(u, v)]).unwrap();
            truth.remove(&fwd);
            truth.remove(&rev);
        }
    }
    (state, truth)
}

/// `carry_splits` by the definition: for every new tunnel, a linear search
/// for its flow and then its path in the old set.
fn naive_carry_splits(old_ts: &TunnelSet, old_splits: &[f64], new_ts: &TunnelSet) -> Vec<f64> {
    let mut out = Vec::new();
    for f in 0..new_ts.num_flows() {
        let (s, t) = new_ts.flows()[f];
        let carried: Vec<f64> = new_ts
            .tunnels_of(f)
            .iter()
            .map(|path| {
                let Some(of) = old_ts.flow_index(s, t) else {
                    return 0.0;
                };
                let offset: usize = (0..of).map(|g| old_ts.tunnels_of(g).len()).sum();
                match old_ts.tunnels_of(of).iter().position(|p| p == path) {
                    Some(pos) => old_splits[offset + pos],
                    None => 0.0,
                }
            })
            .collect();
        let total: f64 = carried.iter().sum();
        if total > f64::EPSILON {
            out.extend(carried.iter().map(|w| w / total));
        } else {
            out.extend(std::iter::repeat_n(
                1.0 / carried.len() as f64,
                carried.len(),
            ));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No pruned tunnel ever traverses a failed edge, and the state's
    /// failure set matches the independently-maintained ground truth.
    #[test]
    fn pruned_tunnels_avoid_every_failed_edge(
        ops in proptest::collection::vec(0usize..(2 * LINKS.len()), 1..12),
    ) {
        let (state, truth) = replay(&ops);
        prop_assert_eq!(state.failed_edges().clone(), truth.clone());
        for f in 0..state.tunnels().num_flows() {
            for path in state.tunnels().tunnels_of(f) {
                for e in &path.0 {
                    prop_assert!(
                        !truth.contains(e),
                        "tunnel for flow {} uses failed edge {}", f, e
                    );
                }
            }
        }
        // epoch advanced once per applied update
        prop_assert_eq!(state.epoch(), ops.len() as u64);
    }

    /// Incremental maintenance equals a from-scratch rebuild: identical
    /// pruned tunnels, and the compiled instance agrees exactly on flow
    /// structure and uniform-splits MLU.
    #[test]
    fn incremental_state_matches_scratch_rebuild(
        ops in proptest::collection::vec(0usize..(2 * LINKS.len()), 1..12),
    ) {
        let (state, truth) = replay(&ops);

        // from scratch: fresh topology with the net failure set applied
        let (mut scratch_topo, base_tunnels) = test_wan();
        for &e in &truth {
            scratch_topo
                .set_capacity(e, harp_serve::FAILED_CAPACITY)
                .unwrap();
        }
        let scratch_tunnels = base_tunnels.without_edges(&truth);

        prop_assert_eq!(state.tunnels().flows(), scratch_tunnels.flows());
        prop_assert_eq!(
            state.tunnels().num_tunnels(),
            scratch_tunnels.num_tunnels()
        );
        for f in 0..scratch_tunnels.num_flows() {
            prop_assert_eq!(
                state.tunnels().tunnels_of(f),
                scratch_tunnels.tunnels_of(f)
            );
        }
        prop_assert_eq!(state.topology().capacities(), scratch_topo.capacities());

        // same compiled instance: identical MLU under uniform splits
        let mut tm = TrafficMatrix::zeros(5);
        for s in 0..5 {
            for t in 0..5 {
                if s != t {
                    tm.set_demand(s, t, 1.0 + (s * 5 + t) as f64 * 0.25);
                }
            }
        }
        let inc = Instance::compile(state.topology(), state.tunnels(), &tm);
        let scr = Instance::compile(&scratch_topo, &scratch_tunnels, &tm);
        prop_assert_eq!(inc.program.num_flows(), scr.program.num_flows());
        prop_assert_eq!(inc.program.num_tunnels(), scr.program.num_tunnels());
        let u = scr.program.uniform_splits();
        prop_assert_eq!(
            inc.program.mlu(&u).to_bits(),
            scr.program.mlu(&u).to_bits(),
            "uniform-splits MLU differs between incremental and scratch"
        );
    }

    /// Carrying splits across an update renormalizes to 1 per demand:
    /// random per-tunnel weights, random prune, per-flow sums are exactly
    /// within float tolerance of 1, and every split is bitwise the one a
    /// per-tunnel linear lookup gives.
    #[test]
    fn carried_splits_sum_to_one_per_demand(
        ops in proptest::collection::vec(0usize..(2 * LINKS.len()), 1..12),
        weights in proptest::collection::vec(0.0f64..1.0, 64),
    ) {
        let (_, tunnels) = test_wan();
        // random but valid old splits: positive weights, normalized per flow
        let mut old = Vec::with_capacity(tunnels.num_tunnels());
        for f in 0..tunnels.num_flows() {
            let k = tunnels.tunnels_of(f).len();
            let ws: Vec<f64> = (0..k)
                .map(|i| weights[(old.len() + i) % weights.len()] + 1e-3)
                .collect();
            let total: f64 = ws.iter().sum();
            old.extend(ws.iter().map(|w| w / total));
        }

        let (state, truth) = replay(&ops);
        let carried = carry_splits(&tunnels, &old, state.tunnels());
        prop_assert_eq!(carried.len(), state.tunnels().num_tunnels());
        let mut off = 0;
        for f in 0..state.tunnels().num_flows() {
            let k = state.tunnels().tunnels_of(f).len();
            let sum: f64 = carried[off..off + k].iter().sum();
            prop_assert!(
                (sum - 1.0).abs() < 1e-9,
                "flow {} carried splits sum to {}", f, sum
            );
            off += k;
        }
        // Onto the pruned set, and back onto the base one: restored tunnels
        // and flows have no old split.
        let bits = |v: &[f64]| v.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(&carried),
            bits(&naive_carry_splits(&tunnels, &old, state.tunnels()))
        );
        prop_assert_eq!(
            bits(&carry_splits(state.tunnels(), &carried, &tunnels)),
            bits(&naive_carry_splits(state.tunnels(), &carried, &tunnels))
        );
        let _ = truth;
    }

    /// Uniform ECMP fallback is always a valid split assignment for the
    /// current epoch's tunnels.
    #[test]
    fn uniform_fallback_is_valid_for_any_epoch(
        ops in proptest::collection::vec(0usize..(2 * LINKS.len()), 0..12),
    ) {
        let (state, _) = replay(&ops);
        let u = uniform_splits(state.tunnels());
        let mut tm = TrafficMatrix::zeros(5);
        for s in 0..5 {
            for t in 0..5 {
                if s != t {
                    tm.set_demand(s, t, 1.0);
                }
            }
        }
        let inst = Instance::compile(state.topology(), state.tunnels(), &tm);
        prop_assert!(inst.program.splits_are_valid(&u, 1e-9));
    }
}
