//! Widest (maximum-bottleneck) paths.
//!
//! Table II shows EDW (edge-disjoint *widest* paths) is Splicer's best path
//! type: with heavy-tailed channel sizes, maximizing the bottleneck funds on
//! a path utilizes network capacity best. The widest path maximizes
//! `min(width(e) for e in path)` and is computed with a Dijkstra variant
//! (max-heap over bottleneck widths).

use std::collections::BinaryHeap;

use pcn_types::{ChannelId, NodeId};

use crate::cost::{from_ord_bits, ord_bits};
use crate::{EdgeRef, Path, SearchWorkspace, Topology};

/// Reusable widest-path state: `(bottleneck, hops)` labels, parent
/// forest and the max-heap of packed [`heap_key`]s.
#[derive(Debug, Default)]
pub(crate) struct WidestScratch {
    best: Vec<(f64, u32)>,
    parent: Vec<Option<(NodeId, ChannelId)>>,
    heap: BinaryHeap<u128>,
}

/// The max-heap key of a `(bottleneck w, hops h, node)` entry, packed as
/// `ord_bits(w) << 64 | (u32::MAX − h) << 32 | node`.
///
/// Unsigned order on the key is exactly the order of the tuple
/// `(Cost(w), Reverse(h), node)`: wider first, then fewer hops, then the
/// larger node id. One integer compare replaces a three-level one, and
/// since the order is the same, the heap performs the same sifts and
/// pops the same sequence, stale entries included.
fn heap_key(w: f64, h: u32, node: NodeId) -> u128 {
    u128::from(ord_bits(w)) << 64 | u128::from(u32::MAX - h) << 32 | u128::from(node.raw())
}

/// Inverse of [`heap_key`].
fn unpack_key(key: u128) -> (f64, u32, NodeId) {
    (
        from_ord_bits((key >> 64) as u64),
        u32::MAX - (key >> 32) as u32,
        NodeId::new(key as u32),
    )
}

/// Maximum-bottleneck path from `from` to `to`.
///
/// `width` returns the usable width of a directed edge (`None`/non-positive
/// = unusable). Ties between equally wide paths are broken towards fewer
/// hops. Returns `(bottleneck, path)` or `None` when unreachable.
///
/// # Examples
///
/// ```
/// use pcn_graph::{widest_path, Graph};
/// use pcn_types::NodeId;
///
/// let mut g = Graph::new(3);
/// let thin = g.add_edge(NodeId::new(0), NodeId::new(2));
/// let a = g.add_edge(NodeId::new(0), NodeId::new(1));
/// let b = g.add_edge(NodeId::new(1), NodeId::new(2));
/// let widths = move |e: pcn_graph::EdgeRef| {
///     Some(if e.id == thin { 1.0 } else { 10.0 })
/// };
/// let (w, path) = widest_path(&g, NodeId::new(0), NodeId::new(2), widths).unwrap();
/// assert_eq!(w, 10.0);
/// assert_eq!(path.hops(), 2); // takes the wide two-hop route
/// # let _ = (a, b);
/// ```
pub fn widest_path<G, F>(g: &G, from: NodeId, to: NodeId, width: F) -> Option<(f64, Path)>
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
{
    widest_path_scratch(g, &mut WidestScratch::default(), from, to, width)
}

/// [`widest_path`] running on the reusable buffers of a
/// [`SearchWorkspace`]: repeated calls are allocation-free (apart from
/// the returned [`Path`]) and bit-identical to the allocating form.
pub fn widest_path_in<G, F>(
    g: &G,
    ws: &mut SearchWorkspace,
    from: NodeId,
    to: NodeId,
    width: F,
) -> Option<(f64, Path)>
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
{
    widest_path_scratch(g, &mut ws.widest, from, to, width)
}

fn widest_path_scratch<G, F>(
    g: &G,
    s: &mut WidestScratch,
    from: NodeId,
    to: NodeId,
    mut width: F,
) -> Option<(f64, Path)>
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
{
    let n = g.node_count();
    if from.index() >= n || to.index() >= n {
        return None;
    }
    if from == to {
        return Some((f64::INFINITY, Path::trivial(from)));
    }
    // best[v] = (bottleneck, hops) of the best known path; we maximize
    // bottleneck, minimize hops on ties.
    s.best.clear();
    s.best.resize(n, (0.0, u32::MAX));
    s.parent.clear();
    s.parent.resize(n, None);
    s.heap.clear();
    let best = &mut s.best;
    let parent = &mut s.parent;
    let heap = &mut s.heap;
    best[from.index()] = (f64::INFINITY, 0);
    heap.push(heap_key(f64::INFINITY, 0, from));
    while let Some(key) = heap.pop() {
        let (w, h, u) = unpack_key(key);
        let (bw, bh) = best[u.index()];
        if w < bw || (w == bw && h > bh) {
            continue; // stale
        }
        if u == to {
            break;
        }
        for e in g.out_edges(u) {
            let Some(ew) = width(e) else { continue };
            if !(ew.is_finite() && ew > 0.0) && ew != f64::INFINITY {
                continue;
            }
            let nw = w.min(ew);
            if nw <= 0.0 {
                continue;
            }
            let nh = h + 1;
            let (cw, ch) = best[e.to.index()];
            if nw > cw || (nw == cw && nh < ch) {
                best[e.to.index()] = (nw, nh);
                parent[e.to.index()] = Some((u, e.id));
                heap.push(heap_key(nw, nh, e.to));
            }
        }
    }
    let (bw, _) = best[to.index()];
    if bw <= 0.0 {
        return None;
    }
    let mut rev_nodes = vec![to];
    let mut rev_chans = Vec::new();
    let mut cur = to;
    while let Some((prev, ch)) = parent[cur.index()] {
        rev_nodes.push(prev);
        rev_chans.push(ch);
        cur = prev;
    }
    if cur != from {
        return None;
    }
    rev_nodes.reverse();
    rev_chans.reverse();
    Some((bw, Path::new(rev_nodes, rev_chans)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Cost;
    use crate::Graph;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// The packed key orders `(w, h, node)` exactly as the tuple
    /// `(Cost(w), Reverse(h), node)` it replaced, and unpacks to the
    /// same bits, over random triples (any bit pattern as the width, with
    /// `+∞`, signed zeros and subnormals mixed in) and ties on each
    /// component.
    #[test]
    fn packed_key_orders_like_the_tuple() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::cmp::Reverse;
        let mut rng = StdRng::seed_from_u64(29);
        let specials = [
            f64::INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 8.0, // subnormal
            f64::from_bits(1),       // smallest subnormal
            f64::MAX,
            1.0,
            2.0,
        ];
        let triples: Vec<(f64, u32, NodeId)> = (0..300)
            .map(|_| {
                let w = if rng.random_bool(0.5) {
                    specials[rng.random_range(0..specials.len())]
                } else {
                    f64::from_bits(rng.random::<u64>())
                };
                let h = [0, 1, 2, u32::MAX - 1, rng.random::<u32>()][rng.random_range(0..5usize)];
                let node = [0, 1, u32::MAX, rng.random::<u32>()][rng.random_range(0..4usize)];
                (w, h, NodeId::new(node))
            })
            .collect();
        for &(w, h, v) in &triples {
            let (uw, uh, uv) = unpack_key(heap_key(w, h, v));
            assert_eq!((uw.to_bits(), uh, uv), (w.to_bits(), h, v));
            for &(w2, h2, v2) in &triples {
                let tuple = (Cost(w), Reverse(h), v).cmp(&(Cost(w2), Reverse(h2), v2));
                assert_eq!(heap_key(w, h, v).cmp(&heap_key(w2, h2, v2)), tuple);
            }
        }
    }

    #[test]
    fn prefers_wider_longer_path() {
        // direct 0-3 width 2; 0-1-2-3 each width 9.
        let mut g = Graph::new(4);
        g.add_edge(n(0), n(3)); // ch0
        g.add_edge(n(0), n(1)); // ch1
        g.add_edge(n(1), n(2)); // ch2
        g.add_edge(n(2), n(3)); // ch3
        let w = [2.0, 9.0, 9.0, 9.0];
        let (bw, path) = widest_path(&g, n(0), n(3), |e| Some(w[e.id.index()])).unwrap();
        assert_eq!(bw, 9.0);
        assert_eq!(path.hops(), 3);
    }

    #[test]
    fn tie_break_prefers_fewer_hops() {
        // Two equally wide routes; direct should win.
        let mut g = Graph::new(3);
        g.add_edge(n(0), n(2)); // ch0 width 5
        g.add_edge(n(0), n(1)); // ch1 width 5
        g.add_edge(n(1), n(2)); // ch2 width 5
        let (bw, path) = widest_path(&g, n(0), n(2), |_| Some(5.0)).unwrap();
        assert_eq!(bw, 5.0);
        assert_eq!(path.hops(), 1);
    }

    #[test]
    fn directional_widths() {
        let mut g = Graph::new(2);
        g.add_edge(n(0), n(1));
        let w = |e: EdgeRef| (e.from == n(0)).then_some(4.0);
        assert!(widest_path(&g, n(0), n(1), w).is_some());
        assert!(widest_path(&g, n(1), n(0), w).is_none());
    }

    #[test]
    fn unreachable_and_degenerate() {
        let mut g = Graph::new(3);
        g.add_edge(n(0), n(1));
        assert!(widest_path(&g, n(0), n(2), |_| Some(1.0)).is_none());
        assert!(widest_path(&g, n(0), n(7), |_| Some(1.0)).is_none());
        let (w, p) = widest_path(&g, n(0), n(0), |_| Some(1.0)).unwrap();
        assert_eq!(w, f64::INFINITY);
        assert_eq!(p.hops(), 0);
    }

    #[test]
    fn zero_width_edges_unusable() {
        let mut g = Graph::new(2);
        g.add_edge(n(0), n(1));
        assert!(widest_path(&g, n(0), n(1), |_| Some(0.0)).is_none());
        assert!(widest_path(&g, n(0), n(1), |_| Some(-3.0)).is_none());
        assert!(widest_path(&g, n(0), n(1), |_| None).is_none());
    }

    #[test]
    fn workspace_variant_matches_allocating_form() {
        let mut g = Graph::new(4);
        g.add_edge(n(0), n(3));
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(3));
        let w = [2.0, 9.0, 9.0, 9.0];
        let mut ws = SearchWorkspace::new();
        for _ in 0..4 {
            let fresh = widest_path(&g, n(0), n(3), |e| Some(w[e.id.index()]));
            let reused = widest_path_in(&g, &mut ws, n(0), n(3), |e| Some(w[e.id.index()]));
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn matches_bruteforce_bottleneck() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..30 {
            let nn = rng.random_range(2..7usize);
            let mut g = Graph::new(nn);
            let mut widths = Vec::new();
            for a in 0..nn {
                for b in (a + 1)..nn {
                    if rng.random_bool(0.6) {
                        g.add_edge(NodeId::from_index(a), NodeId::from_index(b));
                        widths.push(rng.random_range(1..20) as f64);
                    }
                }
            }
            let from = NodeId::new(0);
            let to = NodeId::from_index(nn - 1);
            let got = widest_path(&g, from, to, |e| Some(widths[e.id.index()])).map(|(w, _)| w);
            let want = brute_widest(&g, &widths, from, to);
            match (got, want) {
                (None, None) => {}
                (Some(a), Some(b)) => assert_eq!(a, b),
                other => panic!("mismatch: {other:?}"),
            }
        }
    }

    fn brute_widest(g: &Graph, w: &[f64], from: NodeId, to: NodeId) -> Option<f64> {
        fn dfs(
            g: &Graph,
            w: &[f64],
            cur: NodeId,
            to: NodeId,
            visited: &mut Vec<bool>,
            bottleneck: f64,
            best: &mut Option<f64>,
        ) {
            if cur == to {
                *best = Some(best.map_or(bottleneck, |b: f64| b.max(bottleneck)));
                return;
            }
            for e in g.out_edges(cur) {
                if !visited[e.to.index()] {
                    visited[e.to.index()] = true;
                    dfs(
                        g,
                        w,
                        e.to,
                        to,
                        visited,
                        bottleneck.min(w[e.id.index()]),
                        best,
                    );
                    visited[e.to.index()] = false;
                }
            }
        }
        let mut visited = vec![false; g.node_count()];
        visited[from.index()] = true;
        let mut best = None;
        dfs(g, w, from, to, &mut visited, f64::INFINITY, &mut best);
        best
    }
}
