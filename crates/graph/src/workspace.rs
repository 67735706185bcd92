//! Reusable search buffers for the hot routing path.
//!
//! Every path query (Dijkstra, widest path, Yen's KSP, Dinic's max flow)
//! needs per-node scratch state — distance labels, parent pointers, a
//! priority queue, residual-arc tables. Allocating those on every call is
//! what made repeated path selection the engine's dominant allocation
//! site. A [`SearchWorkspace`] owns all of them; the `*_in` variants of
//! the search entry points ([`Graph::shortest_path_in`],
//! [`Graph::shortest_path_tree_in`], [`crate::widest_path_in`],
//! [`crate::k_shortest_paths_in`], [`crate::max_flow_in`]) borrow the
//! workspace and run allocation-free once its buffers have grown to the
//! graph's size (only the returned [`crate::Path`]s still allocate —
//! they are the query's output).
//!
//! The path-set loops (greedy EDS/EDW, Yen's KSP) also keep their
//! exclusion sets here, as two generation-stamped mark sets over dense
//! ids instead of a hash set per call:
//!
//! * **channel marks** — the channels an EDS/EDW round has already used,
//!   or the channels a Yen spur search may not leave its spur node by;
//! * **node marks** — the root-prefix nodes a Yen spur search may not
//!   enter.
//!
//! Clearing either is one generation bump, and a membership probe is
//! one bounds-checked load and one compare.
//!
//! Reuse is **semantics-preserving**: each search fully re-initializes
//! the state it reads, so a warm workspace returns bit-identical results
//! to a cold one. The workspace is deliberately not `Clone`/`Send`-shared:
//! one worker, one workspace.
//!
//! ```
//! use pcn_graph::{Graph, SearchWorkspace};
//! use pcn_types::NodeId;
//!
//! let mut g = Graph::new(3);
//! g.add_edge(NodeId::new(0), NodeId::new(1));
//! g.add_edge(NodeId::new(1), NodeId::new(2));
//! let mut ws = SearchWorkspace::new();
//! for _ in 0..3 {
//!     let (cost, _) = g
//!         .shortest_path_in(&mut ws, NodeId::new(0), NodeId::new(2), |_| Some(1.0))
//!         .unwrap();
//!     assert_eq!(cost, 2.0);
//! }
//! ```

use crate::accel::{AccelScratch, LandmarkTable};
use crate::dijkstra::DijkstraScratch;
use crate::maxflow::MaxFlowScratch;
use crate::widest::WidestScratch;
use crate::Graph;

/// Owned scratch buffers shared by all search algorithms.
///
/// Create one per worker (or per [`crate::Graph`]-consuming engine) and
/// thread it through the `*_in` query variants.
#[derive(Debug, Default)]
pub struct SearchWorkspace {
    pub(crate) dijkstra: DijkstraScratch,
    pub(crate) widest: WidestScratch,
    pub(crate) maxflow: MaxFlowScratch,
    pub(crate) accel: AccelScratch,
    pub(crate) landmarks: LandmarkTable,
    /// Channel marks of the path-set loops (used / banned channels).
    pub(crate) channel_marks: StampSet,
    /// Node marks of Yen's spur searches (banned root nodes).
    pub(crate) node_marks: StampSet,
}

/// A set of dense indices (channel or node ids) that empties in O(1).
///
/// Each slot holds the generation that last inserted it; an index is a
/// member iff its stamp equals the current generation. [`StampSet::begin`]
/// starts a new, empty generation; the stamps are only rewritten when the
/// `u32` generation wraps. Slots grow on demand in [`StampSet::insert`],
/// because ids minted after the set warmed up (newly opened channels,
/// added nodes) are larger than any slot seen so far.
#[derive(Debug, Default)]
pub(crate) struct StampSet {
    stamps: Vec<u32>,
    generation: u32,
}

impl StampSet {
    /// Empties the set. Must precede the first `insert` of every use,
    /// so generation 0 (the stamp of never-inserted slots) is never
    /// current.
    pub(crate) fn begin(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    pub(crate) fn insert(&mut self, index: usize) {
        if index >= self.stamps.len() {
            self.stamps.resize(index + 1, 0);
        }
        self.stamps[index] = self.generation;
    }

    pub(crate) fn contains(&self, index: usize) -> bool {
        self.stamps.get(index) == Some(&self.generation)
    }
}

impl SearchWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> SearchWorkspace {
        SearchWorkspace::default()
    }

    /// Monotone count of nodes settled (non-stale priority-queue pops)
    /// by every Dijkstra-family search run on this workspace — plain,
    /// tree, and goal-directed alike. The per-run difference is the
    /// planner-observability counter `RunStats::nodes_settled`.
    pub fn nodes_settled(&self) -> u64 {
        self.dijkstra.settled + self.accel.settled
    }

    /// Rebuilds the workspace's ALT [`LandmarkTable`] iff its epoch no
    /// longer matches `g` (see [`LandmarkTable::ensure_fresh`]). Cheap
    /// when fresh: two integer compares, no allocation.
    pub fn prepare_landmarks(&mut self, g: &Graph) {
        self.landmarks.ensure_fresh(g);
    }

    /// How many times the workspace's landmark table has been rebuilt.
    pub fn landmark_rebuilds(&self) -> u64 {
        self.landmarks.rebuilds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        edge_disjoint_shortest_paths_accel_in, edge_disjoint_shortest_paths_in,
        edge_disjoint_widest_paths_in, k_shortest_paths_accel_in, k_shortest_paths_in, max_flow_in,
        widest_path_in, Graph,
    };
    use pcn_types::NodeId;

    /// Membership stays exact across the `u32` generation wrap: stamps
    /// from the last generations before it must not read as members
    /// after it, and a slot stamped at the wrap's new generation long
    /// ago (generation 1) must not either. Inserting past the last slot
    /// grows the set; probing past it is a non-member.
    #[test]
    fn stamp_set_survives_generation_wrap() {
        let mut s = StampSet::default();
        s.begin(); // generation 1
        s.insert(5);
        s.generation = u32::MAX - 1;
        s.begin(); // generation u32::MAX
        s.insert(3);
        assert!(s.contains(3) && !s.contains(5));
        s.begin(); // wraps: stamps zeroed, generation 1 again
        assert_eq!(s.generation, 1);
        for i in 0..8 {
            assert!(!s.contains(i), "slot {i} survived the wrap");
        }
        s.insert(4);
        assert!(s.contains(4) && !s.contains(3) && !s.contains(5));
        s.begin();
        assert!(!s.contains(4));
        s.insert(40); // past every slot so far: grows
        assert!(s.contains(40) && !s.contains(39) && !s.contains(1_000));
    }

    /// A warm workspace must stay bit-identical to a cold one when the
    /// graph it searches **changes size between queries** — nodes and
    /// edges added (buffers grow) or channels closed (the visible edge
    /// set shrinks while buffers stay large). Every `*_in` search
    /// re-initializes its scratch to the current node/edge counts, so a
    /// dynamic world can mutate the topology mid-run without re-creating
    /// per-engine workspaces.
    #[test]
    fn warm_workspace_survives_topology_shrink_and_grow() {
        let n = NodeId::new;
        let mut g = Graph::new(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(3));
        let mut warm = SearchWorkspace::new();

        let compare_all = |g: &Graph, warm: &mut SearchWorkspace, label: &str| {
            let mut cold = SearchWorkspace::new();
            let from = n(0);
            let to = NodeId::from_index(g.node_count() - 1);
            let cost = |_| Some(1.0);
            assert_eq!(
                g.shortest_path_in(warm, from, to, cost),
                g.shortest_path_in(&mut cold, from, to, cost),
                "shortest_path_in diverged: {label}"
            );
            assert_eq!(
                crate::shortest_path_bidir_in(g, warm, from, to, cost),
                g.shortest_path_in(&mut cold, from, to, cost),
                "shortest_path_bidir_in diverged: {label}"
            );
            warm.prepare_landmarks(g);
            for bounds in [crate::AccelBounds::Full, crate::AccelBounds::TopologyOnly] {
                assert_eq!(
                    crate::shortest_path_accel_in(g, warm, from, to, cost, bounds),
                    g.shortest_path_in(&mut cold, from, to, cost),
                    "shortest_path_accel_in diverged: {label} {bounds:?}"
                );
            }
            let width = |e: crate::EdgeRef| Some(1.0 + e.id.index() as f64);
            let warm_w = widest_path_in(g, warm, from, to, width);
            let cold_w = widest_path_in(g, &mut cold, from, to, width);
            assert_eq!(warm_w, cold_w, "widest_path_in diverged: {label}");
            let cold_ksp = k_shortest_paths_in(g, &mut cold, from, to, 3, cost);
            assert_eq!(
                k_shortest_paths_in(g, warm, from, to, 3, cost),
                cold_ksp,
                "k_shortest_paths_in diverged: {label}"
            );
            let cold_eds = edge_disjoint_shortest_paths_in(g, &mut cold, from, to, 3, cost);
            assert_eq!(
                edge_disjoint_shortest_paths_in(g, warm, from, to, 3, cost),
                cold_eds,
                "edge_disjoint_shortest_paths_in diverged: {label}"
            );
            for bounds in [crate::AccelBounds::Full, crate::AccelBounds::TopologyOnly] {
                assert_eq!(
                    k_shortest_paths_accel_in(g, warm, from, to, 3, cost, |_| false, bounds),
                    cold_ksp,
                    "k_shortest_paths_accel_in diverged: {label} {bounds:?}"
                );
                assert_eq!(
                    edge_disjoint_shortest_paths_accel_in(g, warm, from, to, 3, cost, bounds),
                    cold_eds,
                    "edge_disjoint_shortest_paths_accel_in diverged: {label} {bounds:?}"
                );
            }
            assert_eq!(
                edge_disjoint_widest_paths_in(g, warm, from, to, 3, width),
                edge_disjoint_widest_paths_in(g, &mut cold, from, to, 3, width),
                "edge_disjoint_widest_paths_in diverged: {label}"
            );
            let cap = |_| Some(5u64);
            let warm_f = max_flow_in(g, warm, from, to, cap);
            let cold_f = max_flow_in(g, &mut cold, from, to, cap);
            assert_eq!(warm_f.value, cold_f.value, "max_flow_in diverged: {label}");
        };

        compare_all(&g, &mut warm, "initial 4-node line");
        // Grow: new node + two new edges; warm buffers must resize up.
        let v = g.add_node();
        g.add_edge(n(3), v);
        g.add_edge(n(0), v);
        compare_all(&g, &mut warm, "after add_node/add_edge growth");
        // Shrink the *visible* edge set: close two channels. Buffers
        // sized to the old edge count must not leak stale residual arcs
        // or distance labels into the smaller world.
        g.close_channel(crate::Graph::edges(&g).nth(1).unwrap())
            .unwrap();
        g.close_channel(crate::Graph::edges(&g).nth(4).unwrap())
            .unwrap();
        compare_all(&g, &mut warm, "after closing two channels");
        // Grow again past the original size.
        let w = g.add_node();
        g.add_edge(v, w);
        g.add_edge(n(1), w);
        compare_all(&g, &mut warm, "after regrowth beyond original size");
    }
}
