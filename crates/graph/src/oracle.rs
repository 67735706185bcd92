//! Test-only executable specifications of the path-set kernels.
//!
//! The production greedy EDS/EDW loops and Yen's spur loop keep their
//! exclusion sets as generation-stamped marks in the
//! [`SearchWorkspace`], and the widest search orders its heap by a
//! packed integer key. The bodies below are the straightforward forms
//! those replaced — a fresh `HashSet` per call or per spur, a
//! `(Cost, Reverse(hops), NodeId)` tuple heap — kept, like
//! [`crate::ReferenceGraph`], only so the tests can demand that the
//! production kernels return the same paths *and* consult the caller's
//! closure on the same edges in the same order.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use pcn_types::{ChannelId, NodeId};

use crate::cost::Cost;
use crate::{EdgeRef, Path, SearchWorkspace, Topology};

/// The single-pair search a path-set loop runs each round.
type Search<'a, G> = &'a mut dyn FnMut(
    &G,
    &mut SearchWorkspace,
    NodeId,
    NodeId,
    &mut dyn FnMut(EdgeRef) -> Option<f64>,
) -> Option<(f64, Path)>;

/// Widest path over a `(Cost(w), Reverse(h), node)` tuple max-heap.
pub(crate) fn widest_path<G, F>(
    g: &G,
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
    let mut best = vec![(0.0, u32::MAX); n];
    let mut parent: Vec<Option<(NodeId, ChannelId)>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    best[from.index()] = (f64::INFINITY, 0);
    heap.push((Cost(f64::INFINITY), Reverse(0u32), from));
    while let Some((Cost(w), Reverse(h), u)) = heap.pop() {
        let (bw, bh) = best[u.index()];
        if w < bw || (w == bw && h > bh) {
            continue;
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
                heap.push((Cost(nw), Reverse(nh), e.to));
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

/// Greedy EDW with a fresh `HashSet` of used channels per call.
pub(crate) fn edge_disjoint_widest_paths<G, F>(
    g: &G,
    from: NodeId,
    to: NodeId,
    k: usize,
    mut width: F,
) -> Vec<Path>
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
{
    let mut used: HashSet<ChannelId> = HashSet::new();
    let mut paths = Vec::new();
    for _ in 0..k {
        let found = widest_path(g, from, to, |e| {
            if used.contains(&e.id) {
                None
            } else {
                width(e)
            }
        });
        let Some((_, path)) = found else { break };
        used.extend(path.channels().iter().copied());
        let trivial = path.hops() == 0;
        paths.push(path);
        if trivial {
            break;
        }
    }
    paths
}

/// Greedy EDS with a fresh `HashSet` of used channels per call.
pub(crate) fn edge_disjoint_shortest_paths<G, F>(
    g: &G,
    ws: &mut SearchWorkspace,
    from: NodeId,
    to: NodeId,
    k: usize,
    mut cost: F,
    search: Search<'_, G>,
) -> Vec<Path>
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
{
    let mut used: HashSet<ChannelId> = HashSet::new();
    let mut paths = Vec::new();
    for _ in 0..k {
        let found = search(g, ws, from, to, &mut |e| {
            if used.contains(&e.id) {
                None
            } else {
                cost(e)
            }
        });
        let Some((_, path)) = found else { break };
        used.extend(path.channels().iter().copied());
        let trivial = path.hops() == 0;
        paths.push(path);
        if trivial {
            break;
        }
    }
    paths
}

/// Yen's KSP with fresh `HashSet`s of banned channels and nodes per spur.
pub(crate) fn k_shortest_paths<G, F>(
    g: &G,
    ws: &mut SearchWorkspace,
    from: NodeId,
    to: NodeId,
    k: usize,
    mut cost: F,
    search: Search<'_, G>,
) -> Vec<Path>
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
{
    if k == 0 {
        return Vec::new();
    }
    let Some((first_cost, first)) = search(g, ws, from, to, &mut cost) else {
        return Vec::new();
    };
    let mut accepted: Vec<(f64, Path)> = vec![(first_cost, first)];
    let mut candidates: Vec<(f64, Path)> = Vec::new();
    let mut seen: HashSet<Vec<NodeId>> = HashSet::new();
    seen.insert(accepted[0].1.nodes().to_vec());
    while accepted.len() < k {
        let (_, last) = accepted.last().expect("accepted is non-empty").clone();
        for i in 0..last.hops() {
            let spur_node = last.nodes()[i];
            let root = last.prefix(i);
            let mut banned_channels: HashSet<ChannelId> = HashSet::new();
            for (_, p) in accepted.iter().chain(candidates.iter()) {
                if p.hops() > i && p.nodes()[..=i] == root.nodes()[..] {
                    banned_channels.insert(p.channels()[i]);
                }
            }
            let banned_nodes: HashSet<NodeId> = root.nodes()[..i].iter().copied().collect();
            let spur = search(g, ws, spur_node, to, &mut |e| {
                if banned_channels.contains(&e.id)
                    || banned_nodes.contains(&e.to)
                    || banned_nodes.contains(&e.from)
                {
                    None
                } else {
                    cost(e)
                }
            });
            if let Some((_, spur_path)) = spur {
                let total = root.clone().join(spur_path);
                if seen.insert(total.nodes().to_vec()) {
                    let total_cost: f64 = total
                        .hops_iter()
                        .map(|(f, c, t)| {
                            cost(EdgeRef {
                                id: c,
                                from: f,
                                to: t,
                            })
                            .unwrap_or(f64::INFINITY)
                        })
                        .sum();
                    if total_cost.is_finite() {
                        candidates.push((total_cost, total));
                    }
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        let best_idx = candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0))
            .map(|(i, _)| i)
            .expect("non-empty");
        accepted.push(candidates.swap_remove(best_idx));
    }
    accepted.into_iter().map(|(_, p)| p).collect()
}

mod tests {
    use std::cell::RefCell;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::dijkstra::shortest_path_in;
    use crate::{
        edge_disjoint_shortest_paths_accel_in, edge_disjoint_shortest_paths_in,
        edge_disjoint_widest_paths_in, k_shortest_paths_accel_in, k_shortest_paths_in,
        shortest_path_accel_in, AccelBounds, Graph, ReferenceGraph,
    };

    /// Per directed edge: a width in `0..=3` (0 = unusable) and a cost of
    /// `1 + width % 3`, so bottleneck, hop-count and node-id ties abound
    /// and every usable cost is ≥ 1 (what keeps ALT admissible).
    struct Weights(Vec<u32>);

    impl Weights {
        fn push_channel(&mut self, rng: &mut StdRng) {
            self.0.push(rng.random_range(0..=3u32));
            self.0.push(rng.random_range(0..=3u32));
        }
        fn raw(&self, e: EdgeRef) -> u32 {
            self.0[2 * e.id.index() + usize::from(e.from > e.to)]
        }
        fn width(&self, e: EdgeRef) -> Option<f64> {
            Some(f64::from(self.raw(e)))
        }
        fn cost(&self, e: EdgeRef) -> Option<f64> {
            let w = self.raw(e);
            (w > 0).then(|| f64::from(1 + w % 3))
        }
    }

    /// Runs `kernel` with a closure that logs every edge it is consulted
    /// on; returns the paths and the log.
    fn logged<F, K>(f: F, kernel: K) -> (Vec<Path>, Vec<EdgeRef>)
    where
        F: Fn(EdgeRef) -> Option<f64>,
        K: FnOnce(&mut dyn FnMut(EdgeRef) -> Option<f64>) -> Vec<Path>,
    {
        let log = RefCell::new(Vec::new());
        let paths = kernel(&mut |e| {
            log.borrow_mut().push(e);
            f(e)
        });
        (paths, log.into_inner())
    }

    /// The stamped-mark EDW, EDS and KSP kernels (plain and goal-directed)
    /// return the same paths as the hash-set oracles and consult the
    /// caller's closure on exactly the same edge sequence — which is what
    /// pins recorded footprints. Runs on the CSR [`Graph`] and the
    /// [`ReferenceGraph`] under close/reopen/open/compact churn, with one
    /// warm workspace per world whose marks must grow as channels open.
    #[test]
    fn path_set_kernels_match_hash_set_oracles() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..48 {
            // The last node starts isolated, so some pairs are unreachable.
            let nn = rng.random_range(3..14usize);
            let mut g = Graph::new(nn);
            let mut r = ReferenceGraph::new(nn);
            let mut wt = Weights(Vec::new());
            for a in 0..nn - 1 {
                for b in (a + 1)..nn - 1 {
                    if rng.random_bool(0.6) {
                        let (a, b) = (NodeId::from_index(a), NodeId::from_index(b));
                        assert_eq!(g.add_edge(a, b), r.add_edge(a, b));
                        wt.push_channel(&mut rng);
                    }
                }
            }
            let mut ws = SearchWorkspace::new();
            for _phase in 0..4 {
                ws.prepare_landmarks(&g);
                for _ in 0..8 {
                    let s = NodeId::from_index(rng.random_range(0..nn));
                    let t = NodeId::from_index(rng.random_range(0..nn));
                    let k = rng.random_range(0..=6usize);
                    compare_kernels(&g, &r, &mut ws, &wt, s, t, k);
                }
                // Churn: opens mint channel ids past every warm mark.
                for _ in 0..4 {
                    let id = ChannelId::from_index(rng.random_range(0..g.edge_count() + 1));
                    match rng.random_range(0..4u32) {
                        0 => assert_eq!(g.close_channel(id).is_ok(), r.close_channel(id).is_ok()),
                        1 => assert_eq!(g.reopen_channel(id).is_ok(), r.reopen_channel(id).is_ok()),
                        2 => {
                            let a = NodeId::from_index(rng.random_range(0..nn));
                            let b = NodeId::from_index(rng.random_range(0..nn));
                            if a != b {
                                assert_eq!(g.add_edge(a, b), r.add_edge(a, b));
                                wt.push_channel(&mut rng);
                            }
                        }
                        _ => g.compact(),
                    }
                }
            }
        }
    }

    fn compare_kernels(
        g: &Graph,
        r: &ReferenceGraph,
        ws: &mut SearchWorkspace,
        wt: &Weights,
        s: NodeId,
        t: NodeId,
        k: usize,
    ) {
        let ctx = format!("{s}→{t} k={k}");
        let width = |e| wt.width(e);
        let cost = |e| wt.cost(e);

        let want = logged(width, |f| edge_disjoint_widest_paths(r, s, t, k, f));
        for got in [
            logged(width, |f| edge_disjoint_widest_paths_in(g, ws, s, t, k, f)),
            logged(width, |f| edge_disjoint_widest_paths_in(r, ws, s, t, k, f)),
        ] {
            assert_eq!(got, want, "EDW {ctx}");
        }

        let want = logged(cost, |f| {
            edge_disjoint_shortest_paths(r, ws, s, t, k, f, &mut |g, ws, s, t, c| {
                shortest_path_in(g, ws, s, t, c)
            })
        });
        for got in [
            logged(cost, |f| edge_disjoint_shortest_paths_in(g, ws, s, t, k, f)),
            logged(cost, |f| edge_disjoint_shortest_paths_in(r, ws, s, t, k, f)),
        ] {
            assert_eq!(got, want, "EDS {ctx}");
        }

        let want = logged(cost, |f| {
            k_shortest_paths(r, ws, s, t, k, f, &mut |g, ws, s, t, c| {
                shortest_path_in(g, ws, s, t, c)
            })
        });
        for got in [
            logged(cost, |f| k_shortest_paths_in(g, ws, s, t, k, f)),
            logged(cost, |f| k_shortest_paths_in(r, ws, s, t, k, f)),
        ] {
            assert_eq!(got, want, "KSP {ctx}");
        }

        for bounds in [AccelBounds::Full, AccelBounds::TopologyOnly] {
            let mut accel =
                |g: &Graph,
                 ws: &mut SearchWorkspace,
                 s,
                 t,
                 c: &mut dyn FnMut(EdgeRef) -> Option<f64>| {
                    shortest_path_accel_in(g, ws, s, t, c, bounds)
                };
            let want = logged(cost, |f| {
                edge_disjoint_shortest_paths(g, ws, s, t, k, f, &mut accel)
            });
            let got = logged(cost, |f| {
                edge_disjoint_shortest_paths_accel_in(g, ws, s, t, k, f, bounds)
            });
            assert_eq!(got, want, "accelerated EDS {ctx} {bounds:?}");

            let want = logged(cost, |f| k_shortest_paths(g, ws, s, t, k, f, &mut accel));
            let got = logged(cost, |f| {
                k_shortest_paths_accel_in(g, ws, s, t, k, f, |_| false, bounds)
            });
            assert_eq!(got, want, "accelerated KSP {ctx} {bounds:?}");
        }
    }
}
