//! Breadth-first search utilities: hop counts and connectivity.

use std::collections::VecDeque;

use pcn_types::NodeId;

use crate::Topology;

/// Hop distance (unweighted shortest path length) from `from` to every node.
///
/// Unreachable nodes get `u32::MAX`. The placement cost model uses these hop
/// counts for ζ, δ and ε (§V-A sets them proportional to `hops`).
///
/// The traversal is level-synchronous: each frontier is materialized in
/// ascending node-id order from a discovery bitmap before it is expanded.
/// Hop counts are level distances, so the result is identical to a queue
/// BFS — but expanding a sorted frontier walks the adjacency rows in
/// ascending address order, which a CSR layout turns into near-sequential
/// streaming instead of one random fetch per visited node.
///
/// # Examples
///
/// ```
/// use pcn_graph::{bfs_hops, Graph};
/// use pcn_types::NodeId;
///
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1));
/// g.add_edge(NodeId::new(1), NodeId::new(2));
/// let hops = bfs_hops(&g, NodeId::new(0));
/// assert_eq!(hops, vec![0, 1, 2]);
/// ```
pub fn bfs_hops<G: Topology>(g: &G, from: NodeId) -> Vec<u32> {
    let n = g.node_count();
    let mut hops = vec![u32::MAX; n];
    if from.index() >= n {
        return hops;
    }
    hops[from.index()] = 0;
    let mut frontier = vec![from];
    let mut discovered = vec![0u64; n.div_ceil(64)];
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        for &u in &frontier {
            for e in g.out_edges(u) {
                let v = e.to.index();
                if hops[v] == u32::MAX {
                    hops[v] = depth;
                    discovered[v / 64] |= 1 << (v % 64);
                }
            }
        }
        frontier.clear();
        for (word, bits) in discovered.iter_mut().enumerate() {
            let mut b = std::mem::take(bits);
            while b != 0 {
                let lane = b.trailing_zeros() as usize;
                frontier.push(NodeId::from_index(word * 64 + lane));
                b &= b - 1;
            }
        }
    }
    hops
}

/// Per-source hop totals: for every node `s`, the sum of hop distances
/// from `s` to every other node it reaches, and how many such nodes there
/// are.
///
/// Entry `s` equals folding [`bfs_hops`]`(g, s)` over its reachable,
/// non-source entries, integer for integer, but the whole vector costs
/// one bit-parallel multi-source BFS (MS-BFS, Then et al., VLDB 2015)
/// per 64 sources instead of one BFS per source: `seen`, `frontier` and
/// `next` hold one `u64` per node, bit `i` standing for source
/// `batch + i`, and each level ORs the frontier words along the adjacency
/// rows. That is `⌈V/64⌉ · levels · (V + E)` word operations plus one
/// bit visit per reachable (source, node) pair.
///
/// # Examples
///
/// ```
/// use pcn_graph::{hop_sums, Graph};
/// use pcn_types::NodeId;
///
/// let mut g = Graph::new(4); // node 3 stays isolated
/// g.add_edge(NodeId::new(0), NodeId::new(1));
/// g.add_edge(NodeId::new(1), NodeId::new(2));
/// assert_eq!(hop_sums(&g), vec![(3, 2), (2, 2), (3, 2), (0, 0)]);
/// ```
pub fn hop_sums<G: Topology>(g: &G) -> Vec<(u64, u64)> {
    let n = g.node_count();
    let mut sums = vec![(0u64, 0u64); n];
    let mut seen = vec![0u64; n];
    let mut frontier = vec![0u64; n];
    let mut next = vec![0u64; n];
    for batch in (0..n).step_by(64) {
        let lanes = (n - batch).min(64);
        seen.fill(0);
        frontier.fill(0);
        for lane in 0..lanes {
            seen[batch + lane] = 1 << lane;
            frontier[batch + lane] = 1 << lane;
        }
        let out = &mut sums[batch..batch + lanes];
        let mut depth = 0u64;
        loop {
            depth += 1;
            for (u, &bits) in frontier.iter().enumerate() {
                if bits != 0 {
                    for e in g.out_edges(NodeId::from_index(u)) {
                        next[e.to.index()] |= bits;
                    }
                }
            }
            let mut grew = false;
            for v in 0..n {
                let fresh = std::mem::take(&mut next[v]) & !seen[v];
                frontier[v] = fresh;
                if fresh != 0 {
                    grew = true;
                    seen[v] |= fresh;
                    let mut b = fresh;
                    while b != 0 {
                        let (sum, count) = &mut out[b.trailing_zeros() as usize];
                        *sum += depth;
                        *count += 1;
                        b &= b - 1;
                    }
                }
            }
            if !grew {
                break;
            }
        }
    }
    sums
}

/// Partitions the nodes into connected components.
///
/// Returns a component label per node (labels are dense, starting at 0) and
/// the number of components.
pub fn connected_components<G: Topology>(g: &G) -> (Vec<usize>, usize) {
    let n = g.node_count();
    let mut label = vec![usize::MAX; n];
    let mut count = 0;
    for start in 0..n {
        if label[start] != usize::MAX {
            continue;
        }
        let mut queue = VecDeque::new();
        label[start] = count;
        queue.push_back(NodeId::from_index(start));
        while let Some(u) = queue.pop_front() {
            for e in g.out_edges(u) {
                let v = e.to;
                if label[v.index()] == usize::MAX {
                    label[v.index()] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    (label, count)
}

/// Whether the graph is connected (vacuously true for ≤ 1 node).
pub fn is_connected<G: Topology>(g: &G) -> bool {
    g.node_count() <= 1 || connected_components(g).1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn hops_on_a_cycle() {
        let mut g = Graph::new(5);
        for i in 0..5 {
            g.add_edge(NodeId::from_index(i), NodeId::from_index((i + 1) % 5));
        }
        let hops = bfs_hops(&g, n(0));
        assert_eq!(hops, vec![0, 1, 2, 2, 1]);
    }

    #[test]
    fn unreachable_is_max() {
        let mut g = Graph::new(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(2), n(3));
        let hops = bfs_hops(&g, n(0));
        assert_eq!(hops[1], 1);
        assert_eq!(hops[2], u32::MAX);
        assert_eq!(hops[3], u32::MAX);
    }

    #[test]
    fn out_of_range_source() {
        let g = Graph::new(2);
        let hops = bfs_hops(&g, n(9));
        assert!(hops.iter().all(|&h| h == u32::MAX));
    }

    /// The per-source `bfs_hops` fold `hop_sums` must reproduce.
    fn fold(g: &Graph) -> Vec<(u64, u64)> {
        (0..g.node_count())
            .map(|s| {
                bfs_hops(g, NodeId::from_index(s))
                    .iter()
                    .filter(|&&h| h != u32::MAX && h > 0)
                    .fold((0, 0), |(sum, c), &h| (sum + u64::from(h), c + 1))
            })
            .collect()
    }

    #[test]
    fn hop_sums_match_per_source_fold_across_batches() {
        // 150 nodes: two full 64-lane batches and a partial third. A path
        // segment, a ring segment and isolated nodes exercise unequal
        // eccentricities, disconnected lanes and lanes that reach nothing.
        let mut g = Graph::new(150);
        for i in 0..69 {
            g.add_edge(NodeId::from_index(i), NodeId::from_index(i + 1));
        }
        for i in 70..140 {
            let j = if i == 139 { 70 } else { i + 1 };
            g.add_edge(NodeId::from_index(i), NodeId::from_index(j));
        }
        g.add_edge(n(5), n(100));
        assert_eq!(hop_sums(&g), fold(&g));
        assert_eq!(hop_sums(&g)[145], (0, 0));
        assert!(hop_sums(&Graph::new(0)).is_empty());
    }

    #[test]
    fn components() {
        let mut g = Graph::new(5);
        g.add_edge(n(0), n(1));
        g.add_edge(n(2), n(3));
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[4], labels[0]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn connected_graph() {
        let mut g = Graph::new(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        assert!(is_connected(&g));
        assert!(is_connected(&Graph::new(0)));
        assert!(is_connected(&Graph::new(1)));
    }
}
