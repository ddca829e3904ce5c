//! Structural analysis: degrees, node capacity sums, and the node-feature
//! vectors HARP's GNN consumes.

use crate::graph::Topology;

/// Out-degree of every node (directed).
pub fn degrees(topo: &Topology) -> Vec<usize> {
    let mut deg = vec![0usize; topo.num_nodes()];
    for e in topo.edges() {
        deg[e.src] += 1;
    }
    deg
}

/// Sum of outgoing-edge capacities per node (the paper's first node
/// feature: "total capacity of edges connected to the node").
pub fn total_node_capacity(topo: &Topology) -> Vec<f64> {
    let mut cap = vec![0.0f64; topo.num_nodes()];
    for e in topo.edges() {
        cap[e.src] += e.capacity;
    }
    cap
}

/// The `[n, 2]` node-feature matrix used by HARP's GNN: per node, total
/// adjacent capacity and degree, both scaled for numeric stability
/// (capacity divided by the mean positive capacity, degree by max degree).
pub fn node_features(topo: &Topology) -> Vec<f32> {
    let caps = total_node_capacity(topo);
    let deg = degrees(topo);
    let mean_cap = {
        let pos: Vec<f64> = caps.iter().copied().filter(|c| *c > 0.0).collect();
        if pos.is_empty() {
            1.0
        } else {
            pos.iter().sum::<f64>() / pos.len() as f64
        }
    };
    let max_deg = deg.iter().copied().max().unwrap_or(1).max(1) as f64;
    let mut out = Vec::with_capacity(topo.num_nodes() * 2);
    for i in 0..topo.num_nodes() {
        out.push((caps[i] / mean_cap) as f32);
        out.push((deg[i] as f64 / max_deg) as f32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Topology {
        // 0 - 1 - 2 (bidirectional)
        let mut t = Topology::new(3);
        t.add_link(0, 1, 5.0).unwrap();
        t.add_link(1, 2, 7.0).unwrap();
        t
    }

    #[test]
    fn degrees_and_capacity() {
        let t = path3();
        assert_eq!(degrees(&t), vec![1, 2, 1]);
        assert_eq!(total_node_capacity(&t), vec![5.0, 12.0, 7.0]);
    }

    #[test]
    fn features_shape_and_scaling() {
        let t = path3();
        let f = node_features(&t);
        assert_eq!(f.len(), 6);
        // degree feature of the middle node is 1 (max degree)
        assert!((f[3] - 1.0).abs() < 1e-6);
        assert!(f.iter().all(|x| x.is_finite()));
    }
}
