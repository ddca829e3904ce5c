//! Yen's algorithm for k shortest simple paths by hop count. Candidates are
//! ordered by (hops, node sequence), and each spur search takes the
//! lowest-id predecessor node among equal-length ways: node ids are stable
//! across topology rebuilds (edge ids are not), which keeps tunnel sets
//! aligned when a WAN evolves — see `harp-datasets`' churn stats.

use harp_topology::{NodeId, Topology};

use crate::bfs::Search;
use crate::Path;

/// The `k` shortest simple paths from `src` to `dst` (hop-count metric,
/// ties broken by node sequence). Returns fewer than `k` paths when the
/// graph does not contain that many simple paths. Edges with capacity <=
/// `cap_threshold` are excluded.
pub fn k_shortest_paths(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    k: usize,
    cap_threshold: f64,
) -> Vec<Path> {
    yen(&mut Search::new(topo, cap_threshold), src, dst, k)
}

/// [`k_shortest_paths`] with every spur search on the caller's `search`.
pub(crate) fn yen(search: &mut Search, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    if k == 0 {
        return Vec::new();
    }
    let topo = search.topo();
    search.clear_node_bans();
    search.clear_edge_bans();
    let Some((nodes, edges)) = search.shortest(src, dst) else {
        return Vec::new();
    };
    let mut last_nodes = nodes.to_vec();
    let mut result = vec![Path(edges.to_vec())];
    // (node sequence, path); popped in (hops, node sequence) order.
    let mut candidates: Vec<(Vec<NodeId>, Path)> = Vec::new();

    while result.len() < k {
        let last = &result[result.len() - 1].0;
        search.clear_node_bans();
        for spur_idx in 0..last.len() {
            // Ban root-path nodes (except the spur node) to keep paths simple.
            if spur_idx > 0 {
                search.ban_node(last_nodes[spur_idx - 1]);
            }
            // Ban edges that would recreate an already-found path with the
            // same root.
            let root = &last[..spur_idx];
            search.clear_edge_bans();
            for p in &result {
                if p.len() > spur_idx && p.0[..spur_idx] == *root {
                    search.ban_edge(p.0[spur_idx]);
                }
            }
            let Some((spur_nodes, spur)) = search.shortest(last_nodes[spur_idx], dst) else {
                continue;
            };
            let is_total = |p: &Path| {
                p.len() == spur_idx + spur.len()
                    && p.0[..spur_idx] == *root
                    && p.0[spur_idx..] == *spur
            };
            if result
                .iter()
                .chain(candidates.iter().map(|c| &c.1))
                .any(is_total)
            {
                continue;
            }
            let total = Path([root, spur].concat());
            debug_assert!(total.is_valid(topo, src, dst));
            candidates.push(([&last_nodes[..spur_idx], spur_nodes].concat(), total));
        }

        let Some(best) =
            (0..candidates.len()).min_by_key(|&i| (candidates[i].1.len(), &candidates[i].0))
        else {
            break;
        };
        let (nodes, path) = candidates.swap_remove(best);
        last_nodes = nodes;
        result.push(path);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Topology {
        let mut t = Topology::new(6);
        t.add_link(0, 1, 1.0).unwrap();
        t.add_link(1, 3, 1.0).unwrap();
        t.add_link(0, 2, 1.0).unwrap();
        t.add_link(2, 3, 1.0).unwrap();
        t.add_link(0, 4, 1.0).unwrap();
        t.add_link(4, 5, 1.0).unwrap();
        t.add_link(5, 3, 1.0).unwrap();
        t
    }

    #[test]
    fn finds_all_three_paths_in_order() {
        let t = diamond();
        let ps = k_shortest_paths(&t, 0, 3, 5, 0.0);
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[0].nodes(&t), vec![0, 1, 3]);
        assert_eq!(ps[1].nodes(&t), vec![0, 2, 3]);
        assert_eq!(ps[2].nodes(&t), vec![0, 4, 5, 3]);
        // non-decreasing lengths
        assert!(ps.windows(2).all(|w| w[0].len() <= w[1].len()));
        // all simple and distinct
        for p in &ps {
            assert!(p.is_simple(&t));
        }
    }

    #[test]
    fn k_limits_output() {
        let t = diamond();
        let ps = k_shortest_paths(&t, 0, 3, 2, 0.0);
        assert_eq!(ps.len(), 2);
        assert!(k_shortest_paths(&t, 0, 3, 0, 0.0).is_empty());
    }

    #[test]
    fn disconnected_returns_empty() {
        let mut t = Topology::new(4);
        t.add_link(0, 1, 1.0).unwrap();
        t.add_link(2, 3, 1.0).unwrap();
        assert!(k_shortest_paths(&t, 0, 3, 3, 0.0).is_empty());
    }

    #[test]
    fn dense_graph_many_paths() {
        // complete graph on 5 nodes: plenty of simple paths 0 -> 4
        let mut t = Topology::new(5);
        for u in 0..5 {
            for v in (u + 1)..5 {
                t.add_link(u, v, 1.0).unwrap();
            }
        }
        let ps = k_shortest_paths(&t, 0, 4, 8, 0.0);
        assert_eq!(ps.len(), 8);
        let unique: std::collections::HashSet<_> = ps.iter().collect();
        assert_eq!(unique.len(), 8);
        for p in &ps {
            assert!(p.is_valid(&t, 0, 4));
            assert!(p.is_simple(&t));
        }
    }
}
