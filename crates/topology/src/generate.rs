//! Seeded synthetic WAN generators.
//!
//! Stand-ins for Topology-Zoo graphs we cannot ship (KDL, UsCarrier) and
//! building blocks for the AnonNet-like evolving WAN. The generators
//! guarantee connectivity (spanning backbone + extra shortcuts) and produce
//! WAN-like sparsity: average undirected degree around 2–3, a few discrete
//! capacity tiers.

use rand::Rng;

use crate::graph::Topology;

/// Configuration for [`geometric_wan`].
#[derive(Clone, Copy, Debug)]
pub struct GeometricConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Target number of undirected links (must be >= nodes - 1).
    pub links: usize,
    /// Capacity tiers sampled per link (e.g. `[100.0, 200.0, 400.0]`).
    pub capacity_tiers: [f64; 3],
}

/// Generate a connected random-geometric WAN: nodes placed uniformly in the
/// unit square, a spanning tree built greedily over short pairs, then the
/// shortest remaining candidate pairs added until `links` undirected links
/// exist. Capacities are sampled from the configured tiers (higher tiers
/// more likely on shorter links, mimicking metro vs long-haul).
pub fn geometric_wan<R: Rng>(cfg: GeometricConfig, rng: &mut R) -> Topology {
    assert!(cfg.nodes >= 2, "need at least 2 nodes");
    assert!(
        cfg.links >= cfg.nodes - 1,
        "links {} cannot connect {} nodes",
        cfg.links,
        cfg.nodes
    );
    let n = cfg.nodes;
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let dist = |a: usize, b: usize| -> f64 {
        let dx = pts[a].0 - pts[b].0;
        let dy = pts[a].1 - pts[b].1;
        (dx * dx + dy * dy).sqrt()
    };

    let mut topo = Topology::new(n);

    // Spanning tree: Prim's algorithm over Euclidean distance.
    let mut in_tree = vec![false; n];
    in_tree[0] = true;
    let mut tree_edges: Vec<(usize, usize)> = Vec::new();
    for _ in 1..n {
        let mut best: Option<(f64, usize, usize)> = None;
        for u in 0..n {
            if !in_tree[u] {
                continue;
            }
            for v in 0..n {
                if in_tree[v] {
                    continue;
                }
                let d = dist(u, v);
                if best.is_none_or(|(bd, _, _)| d < bd) {
                    best = Some((d, u, v));
                }
            }
        }
        let (_, u, v) = best.expect("tree step");
        in_tree[v] = true;
        tree_edges.push((u, v));
    }

    let sample_cap = |rng: &mut R, d: f64| -> f64 {
        // shorter links more likely to be high-capacity
        let tier = if rng.gen::<f64>() < (1.0 - d).clamp(0.1, 0.9) {
            2
        } else if rng.gen::<f64>() < 0.5 {
            1
        } else {
            0
        };
        cfg.capacity_tiers[tier]
    };

    for &(u, v) in &tree_edges {
        let c = sample_cap(rng, dist(u, v));
        topo.add_link(u, v, c).expect("tree link");
    }

    // Extra shortcuts: candidate pairs sorted by distance.
    let mut candidates: Vec<(f64, usize, usize)> = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if topo.edge_id(u, v).is_none() {
                candidates.push((dist(u, v), u, v));
            }
        }
    }
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut added = n - 1;
    // Take from the shortest 3x pool at random for variety.
    let pool = candidates.len().min((cfg.links - added) * 3 + 8);
    let mut pool: Vec<(f64, usize, usize)> = candidates.into_iter().take(pool).collect();
    while added < cfg.links && !pool.is_empty() {
        let i = rng.gen_range(0..pool.len());
        let (d, u, v) = pool.swap_remove(i);
        if topo.edge_id(u, v).is_some() {
            continue;
        }
        let c = sample_cap(rng, d);
        topo.add_link(u, v, c).expect("shortcut link");
        added += 1;
    }
    debug_assert!(topo.is_strongly_connected(0.0));
    topo
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn geometric_is_connected_and_sized() {
        let cfg = GeometricConfig {
            nodes: 40,
            links: 60,
            capacity_tiers: [100.0, 200.0, 400.0],
        };
        let mut rng = StdRng::seed_from_u64(7);
        let t = geometric_wan(cfg, &mut rng);
        assert_eq!(t.num_nodes(), 40);
        assert_eq!(t.num_edges(), 120); // directed
        assert!(t.is_strongly_connected(0.0));
        // capacities come from tiers
        for e in t.edges() {
            assert!(cfg.capacity_tiers.contains(&e.capacity));
        }
    }

    #[test]
    fn geometric_deterministic_under_seed() {
        let cfg = GeometricConfig {
            nodes: 20,
            links: 30,
            capacity_tiers: [1.0, 2.0, 4.0],
        };
        let t1 = geometric_wan(cfg, &mut StdRng::seed_from_u64(3));
        let t2 = geometric_wan(cfg, &mut StdRng::seed_from_u64(3));
        assert_eq!(t1.num_edges(), t2.num_edges());
        for (a, b) in t1.edges().iter().zip(t2.edges()) {
            assert_eq!((a.src, a.dst), (b.src, b.dst));
            assert_eq!(a.capacity, b.capacity);
        }
    }
}
