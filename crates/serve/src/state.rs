//! Epoch-versioned network state: the single mutable picture of the WAN
//! the daemon serves against.
//!
//! All mutation happens on the batcher thread (see `server.rs`), so this
//! module is plain single-threaded data: a base topology + tunnel set, the
//! current failure set, the tunnels pruned against it, and the last-good
//! splits used for degraded responses. Every topology change bumps the
//! epoch; infer requests pinned to a stale epoch are rejected rather than
//! silently answered against a different network.

use std::collections::{BTreeSet, HashMap};

use harp_paths::{Path, TunnelSet};
use harp_topology::{EdgeId, Topology};

/// Capacity assigned to a failed link, following the paper's convention
/// of flooring failed capacities rather than zeroing them (see
/// `harp_opt::PathProgram::capacities`): an exactly-zero capacity makes
/// the exact MLU infinite even when the pruned tunnels place no load on
/// the edge, which would force every inference during a failure into the
/// degraded path.
pub const FAILED_CAPACITY: f64 = 1e-4;

/// Mutable serving state for one WAN.
#[derive(Clone, Debug)]
pub struct NetworkState {
    /// Pristine topology with design capacities (failures are overlaid).
    base_topo: Topology,
    /// Current topology: failed links floored to [`FAILED_CAPACITY`].
    topo: Topology,
    /// Tunnel set computed against the pristine topology.
    base_tunnels: TunnelSet,
    /// Base tunnels minus any path traversing a failed link.
    tunnels: TunnelSet,
    /// Directed edges currently failed.
    failed: BTreeSet<EdgeId>,
    /// Bumped on every applied topology update.
    epoch: u64,
    /// Last successfully-inferred splits, aligned with `tunnels`.
    last_good: Option<Vec<f64>>,
}

/// What an applied topology update did, for the client's reply.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateSummary {
    /// Epoch after the update.
    pub epoch: u64,
    /// Flows that still have at least one live tunnel.
    pub num_flows: usize,
    /// Tunnels surviving the prune.
    pub num_tunnels: usize,
    /// Directed edges currently failed (after this update).
    pub failed_links: usize,
}

impl NetworkState {
    /// State at epoch 0: no failures, tunnels as computed offline.
    pub fn new(topo: Topology, tunnels: TunnelSet) -> Self {
        NetworkState {
            base_topo: topo.clone(),
            topo,
            base_tunnels: tunnels.clone(),
            tunnels,
            failed: BTreeSet::new(),
            epoch: 0,
            last_good: None,
        }
    }

    /// Current topology (failed links at [`FAILED_CAPACITY`]).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Tunnels pruned against the current failure set.
    pub fn tunnels(&self) -> &TunnelSet {
        &self.tunnels
    }

    /// Current epoch; bumped by every applied [`Self::apply_update`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advance the epoch without touching the topology. Checkpoint
    /// reloads use this so an epoch pin can never observe two parameter
    /// generations: requests pinned to the pre-reload epoch are rejected
    /// as stale by any shard that already swapped its store.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Directed edge ids currently failed.
    pub fn failed_edges(&self) -> &BTreeSet<EdgeId> {
        &self.failed
    }

    /// Last successfully-inferred splits (aligned with [`Self::tunnels`]),
    /// if any inference has succeeded since the last cold start.
    pub fn last_good(&self) -> Option<&[f64]> {
        self.last_good.as_deref()
    }

    /// Record splits from a successful inference as the degradation
    /// fallback. Must be aligned with the *current* tunnel set.
    pub fn set_last_good(&mut self, splits: Vec<f64>) {
        debug_assert_eq!(splits.len(), self.tunnels.num_tunnels());
        self.last_good = Some(splits);
    }

    /// Fail and restore links (each `(u, v)` pair affects both directions),
    /// then re-prune tunnels and carry last-good splits onto the surviving
    /// set. Unknown node pairs are an error; the state is only mutated when
    /// every link resolves. Returns the post-update summary.
    pub fn apply_update(
        &mut self,
        fail_links: &[(usize, usize)],
        restore_links: &[(usize, usize)],
    ) -> Result<UpdateSummary, String> {
        // Resolve every link before touching anything, so a typo'd pair
        // can't leave the state half-updated.
        let mut fail_edges = Vec::new();
        for &(u, v) in fail_links {
            fail_edges.extend(self.resolve_pair(u, v, "fail_links")?);
        }
        let mut restore_edges = Vec::new();
        for &(u, v) in restore_links {
            restore_edges.extend(self.resolve_pair(u, v, "restore_links")?);
        }

        for e in restore_edges {
            self.failed.remove(&e);
            let cap = self.base_topo.capacity(e);
            self.topo
                .set_capacity(e, cap)
                .map_err(|err| format!("restore failed: {err:?}"))?;
        }
        for e in fail_edges {
            self.failed.insert(e);
            self.topo
                .set_capacity(e, FAILED_CAPACITY)
                .map_err(|err| format!("fail failed: {err:?}"))?;
        }

        let new_tunnels = self.base_tunnels.without_edges(&self.failed);
        self.last_good = self
            .last_good
            .take()
            .map(|old| carry_splits(&self.tunnels, &old, &new_tunnels));
        self.tunnels = new_tunnels;
        self.epoch += 1;

        Ok(UpdateSummary {
            epoch: self.epoch,
            num_flows: self.tunnels.num_flows(),
            num_tunnels: self.tunnels.num_tunnels(),
            failed_links: self.failed.len(),
        })
    }

    /// Splits to ship when inference can't be used: last-good if present,
    /// else uniform ECMP over the current tunnels. Also returns the reason
    /// tag reported to the client and counted in stats.
    pub fn fallback_splits(&self) -> (Vec<f64>, &'static str) {
        match &self.last_good {
            Some(s) => (s.clone(), "last_good"),
            None => (uniform_splits(&self.tunnels), "uniform_ecmp"),
        }
    }

    fn resolve_pair(&self, u: usize, v: usize, key: &str) -> Result<[EdgeId; 2], String> {
        let fwd = self
            .topo
            .edge_id(u, v)
            .ok_or_else(|| format!("{key}: no link {u} -> {v}"))?;
        let rev = self
            .topo
            .edge_id(v, u)
            .ok_or_else(|| format!("{key}: no link {v} -> {u}"))?;
        Ok([fwd, rev])
    }
}

/// Uniform ECMP splits (1/k per tunnel, per flow) in flat tunnel order.
pub fn uniform_splits(tunnels: &TunnelSet) -> Vec<f64> {
    let mut out = Vec::with_capacity(tunnels.num_tunnels());
    for f in 0..tunnels.num_flows() {
        let k = tunnels.tunnels_of(f).len();
        out.extend(std::iter::repeat_n(1.0 / k as f64, k));
    }
    out
}

/// Carry splits from one tunnel set onto another (typically after a
/// prune): each surviving tunnel keeps its old mass, matched by flow
/// endpoint pair and exact path; mass on vanished tunnels is redistributed
/// by per-flow renormalization. Flows with no surviving mass (all their
/// carried tunnels are new, or everything rounds to zero) fall back to
/// uniform. The result always sums to 1 per flow of `new_ts`.
pub fn carry_splits(old_ts: &TunnelSet, old_splits: &[f64], new_ts: &TunnelSet) -> Vec<f64> {
    debug_assert_eq!(old_splits.len(), old_ts.num_tunnels());
    // Flat offset of each old flow, for indexing old_splits.
    let mut old_offsets = Vec::with_capacity(old_ts.num_flows());
    let mut acc = 0usize;
    for f in 0..old_ts.num_flows() {
        old_offsets.push(acc);
        acc += old_ts.tunnels_of(f).len();
    }
    // Old flow of each endpoint pair, built once instead of a linear
    // `TunnelSet::flow_index` scan per new tunnel (the first flow with a
    // pair wins, as there).
    let mut old_flow: HashMap<(usize, usize), usize> = HashMap::with_capacity(old_ts.num_flows());
    for (f, &pair) in old_ts.flows().iter().enumerate() {
        old_flow.entry(pair).or_insert(f);
    }

    let lookup = |old_f: Option<usize>, path: &Path| -> Option<f64> {
        let f = old_f?;
        let pos = old_ts.tunnels_of(f).iter().position(|p| p == path)?;
        Some(old_splits[old_offsets[f] + pos])
    };

    let mut out = Vec::with_capacity(new_ts.num_tunnels());
    for f in 0..new_ts.num_flows() {
        let old_f = old_flow.get(&new_ts.flows()[f]).copied();
        let paths = new_ts.tunnels_of(f);
        let carried: Vec<f64> = paths
            .iter()
            .map(|p| lookup(old_f, p).unwrap_or(0.0))
            .collect();
        let total: f64 = carried.iter().sum();
        if total > f64::EPSILON {
            out.extend(carried.iter().map(|w| w / total));
        } else {
            let k = paths.len() as f64;
            out.extend(std::iter::repeat_n(1.0 / k, paths.len()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4-node square with a diagonal: enough path diversity that failing
    /// one link prunes some tunnels without killing any flow.
    fn square() -> (Topology, TunnelSet) {
        let mut topo = Topology::new(4);
        topo.add_link(0, 1, 10.0).unwrap();
        topo.add_link(1, 2, 10.0).unwrap();
        topo.add_link(2, 3, 10.0).unwrap();
        topo.add_link(3, 0, 10.0).unwrap();
        topo.add_link(0, 2, 5.0).unwrap();
        let tunnels = TunnelSet::k_shortest(&topo, &[0, 1, 2, 3], 3, 0.0);
        (topo, tunnels)
    }

    #[test]
    fn apply_update_prunes_and_bumps_epoch() {
        let (topo, tunnels) = square();
        let mut st = NetworkState::new(topo, tunnels);
        assert_eq!(st.epoch(), 0);
        let before = st.tunnels().num_tunnels();

        let s = st.apply_update(&[(0, 1)], &[]).unwrap();
        assert_eq!(s.epoch, 1);
        assert_eq!(st.epoch(), 1);
        assert_eq!(s.failed_links, 2); // both directions
        assert!(s.num_tunnels < before);
        let e01 = st.topology().edge_id(0, 1).unwrap();
        assert_eq!(st.topology().capacity(e01), FAILED_CAPACITY);

        let s = st.apply_update(&[], &[(0, 1)]).unwrap();
        assert_eq!(s.epoch, 2);
        assert_eq!(s.failed_links, 0);
        assert_eq!(s.num_tunnels, before);
        assert_eq!(st.topology().capacity(e01), 10.0);
    }

    #[test]
    fn unknown_link_is_rejected_without_mutation() {
        let (topo, tunnels) = square();
        let mut st = NetworkState::new(topo, tunnels);
        // (0,1) exists but (1,3) does not: the whole update must be
        // rejected with nothing failed and no epoch bump.
        let err = st.apply_update(&[(0, 1), (1, 3)], &[]).unwrap_err();
        assert!(err.contains("no link"));
        assert_eq!(st.epoch(), 0);
        assert!(st.failed_edges().is_empty());
        let e01 = st.topology().edge_id(0, 1).unwrap();
        assert_eq!(st.topology().capacity(e01), 10.0);
    }

    #[test]
    fn fallback_is_uniform_on_cold_start_then_last_good() {
        let (topo, tunnels) = square();
        let mut st = NetworkState::new(topo, tunnels);
        let (u, reason) = st.fallback_splits();
        assert_eq!(reason, "uniform_ecmp");
        assert_eq!(u.len(), st.tunnels().num_tunnels());

        let mut good = uniform_splits(st.tunnels());
        // perturb one flow to make it distinguishable from uniform
        good[0] = 1.0;
        for i in 1..st.tunnels().tunnels_of(0).len() {
            good[i] = 0.0;
        }
        st.set_last_good(good.clone());
        let (s, reason) = st.fallback_splits();
        assert_eq!(reason, "last_good");
        assert_eq!(s, good);
    }

    #[test]
    fn last_good_is_carried_across_updates_and_stays_normalized() {
        let (topo, tunnels) = square();
        let mut st = NetworkState::new(topo, tunnels);
        let mut good = uniform_splits(st.tunnels());
        good[0] += 0.1; // slightly off-uniform (will be renormalized on carry)
        st.set_last_good(good);

        st.apply_update(&[(0, 1)], &[]).unwrap();
        let (carried, reason) = st.fallback_splits();
        assert_eq!(reason, "last_good");
        assert_eq!(carried.len(), st.tunnels().num_tunnels());
        // per-flow sums are 1
        let mut off = 0;
        for f in 0..st.tunnels().num_flows() {
            let k = st.tunnels().tunnels_of(f).len();
            let sum: f64 = carried[off..off + k].iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "flow {f} sums to {sum}");
            off += k;
        }
    }

    #[test]
    fn carry_splits_preserves_mass_on_surviving_tunnels() {
        let (_, tunnels) = square();
        let old = uniform_splits(&tunnels);
        // identity carry: same tunnel set → exactly the same splits
        let same = carry_splits(&tunnels, &old, &tunnels);
        for (a, b) in same.iter().zip(old.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
