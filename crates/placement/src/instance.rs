//! Placement problem instances and their cost model.

use pcn_graph::{bfs_hops, Graph};
use pcn_types::{NodeId, PcnError, Result};

/// Cost-model parameters (§V-A): per-hop coefficients for the management
/// cost ζ, synchronization cost δ, constant synchronization cost ε, and the
/// tradeoff weight ω of eq. 5.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostParams {
    /// ζ per communication hop between a client and a candidate (paper: 0.02).
    pub zeta_per_hop: f64,
    /// δ per hop between two candidates (paper: 0.01).
    pub delta_per_hop: f64,
    /// ε per hop between two candidates (paper: 0.05).
    pub eps_per_hop: f64,
    /// Tradeoff weight ω ≥ 0.
    pub omega: f64,
}

impl CostParams {
    /// The paper's coefficients with a chosen ω.
    pub fn paper(omega: f64) -> CostParams {
        CostParams {
            zeta_per_hop: 0.02,
            delta_per_hop: 0.01,
            eps_per_hop: 0.05,
            omega,
        }
    }
}

/// A fully materialized placement instance: clients, candidates and the
/// pairwise cost matrices.
#[derive(Clone, Debug)]
pub struct PlacementInstance {
    clients: Vec<NodeId>,
    candidates: Vec<NodeId>,
    /// ζ[m][n]: management cost of assigning client m to candidate n.
    zeta: Vec<Vec<f64>>,
    /// δ[n][l]: synchronization cost between candidates (zero diagonal).
    delta: Vec<Vec<f64>>,
    /// ε[n][l]: constant synchronization cost (zero diagonal).
    eps: Vec<Vec<f64>>,
    omega: f64,
}

impl PlacementInstance {
    /// Builds an instance from raw matrices.
    ///
    /// # Errors
    ///
    /// Returns [`PcnError::InvalidConfig`] on dimension mismatches,
    /// negative costs, or a negative ω.
    pub fn from_matrices(
        clients: Vec<NodeId>,
        candidates: Vec<NodeId>,
        zeta: Vec<Vec<f64>>,
        delta: Vec<Vec<f64>>,
        eps: Vec<Vec<f64>>,
        omega: f64,
    ) -> Result<PlacementInstance> {
        let m = clients.len();
        let n = candidates.len();
        if n == 0 {
            return Err(PcnError::InvalidConfig("no candidate smooth nodes".into()));
        }
        if zeta.len() != m || zeta.iter().any(|r| r.len() != n) {
            return Err(PcnError::InvalidConfig("zeta must be M×N".into()));
        }
        if delta.len() != n || delta.iter().any(|r| r.len() != n) {
            return Err(PcnError::InvalidConfig("delta must be N×N".into()));
        }
        if eps.len() != n || eps.iter().any(|r| r.len() != n) {
            return Err(PcnError::InvalidConfig("eps must be N×N".into()));
        }
        if omega < 0.0 || !omega.is_finite() {
            return Err(PcnError::InvalidConfig("omega must be ≥ 0".into()));
        }
        let all_finite = zeta
            .iter()
            .chain(delta.iter())
            .chain(eps.iter())
            .flatten()
            .all(|v| v.is_finite() && *v >= 0.0);
        if !all_finite {
            return Err(PcnError::InvalidConfig(
                "costs must be finite and non-negative".into(),
            ));
        }
        Ok(PlacementInstance {
            clients,
            candidates,
            zeta,
            delta,
            eps,
            omega,
        })
    }

    /// Derives an instance from a topology: ζ, δ, ε are per-hop costs over
    /// BFS hop counts in `g` (§V-A). Unreachable pairs get a large finite
    /// penalty (4× graph diameter bound) instead of ∞ so solvers stay
    /// numerically well-behaved.
    pub fn from_graph(
        g: &Graph,
        clients: Vec<NodeId>,
        candidates: Vec<NodeId>,
        params: CostParams,
    ) -> PlacementInstance {
        let n_nodes = g.node_count();
        let unreachable_hops = (4 * n_nodes.max(1)) as f64;
        // BFS from each candidate covers both client→candidate and
        // candidate→candidate hop counts.
        let hops_from: Vec<Vec<u32>> = candidates.iter().map(|&c| bfs_hops(g, c)).collect();
        let hop = |tbl: &Vec<u32>, node: NodeId| -> f64 {
            let h = tbl.get(node.index()).copied().unwrap_or(u32::MAX);
            if h == u32::MAX {
                unreachable_hops
            } else {
                f64::from(h)
            }
        };
        let zeta: Vec<Vec<f64>> = clients
            .iter()
            .map(|&m| {
                hops_from
                    .iter()
                    .map(|tbl| params.zeta_per_hop * hop(tbl, m))
                    .collect()
            })
            .collect();
        let n = candidates.len();
        let mut delta = vec![vec![0.0; n]; n];
        let mut eps = vec![vec![0.0; n]; n];
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    let h = hop(&hops_from[a], candidates[b]);
                    delta[a][b] = params.delta_per_hop * h;
                    eps[a][b] = params.eps_per_hop * h;
                }
            }
        }
        PlacementInstance {
            clients,
            candidates,
            zeta,
            delta,
            eps,
            omega: params.omega,
        }
    }

    /// Replaces δ with a uniform value (the Lemma 2 supermodular case).
    pub fn with_uniform_delta(mut self, delta: f64) -> PlacementInstance {
        let n = self.candidates.len();
        for a in 0..n {
            for b in 0..n {
                self.delta[a][b] = if a == b { 0.0 } else { delta };
            }
        }
        self
    }

    /// Client node ids (`VCLI`).
    pub fn clients(&self) -> &[NodeId] {
        &self.clients
    }

    /// Candidate node ids (`VSNC`).
    pub fn candidates(&self) -> &[NodeId] {
        &self.candidates
    }

    /// Number of clients M.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Number of candidates N.
    pub fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// ζ_mn.
    pub fn zeta(&self, m: usize, n: usize) -> f64 {
        self.zeta[m][n]
    }

    /// δ_nl.
    pub fn delta(&self, n: usize, l: usize) -> f64 {
        self.delta[n][l]
    }

    /// ε_nl.
    pub fn eps(&self, n: usize, l: usize) -> f64 {
        self.eps[n][l]
    }

    /// Tradeoff weight ω.
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// Management cost C_M(y) for an assignment (client → candidate index).
    pub fn management_cost(&self, assignment: &[usize]) -> f64 {
        assignment
            .iter()
            .enumerate()
            .map(|(m, &n)| self.zeta[m][n])
            .sum()
    }

    /// Synchronization cost C_S(x, y) of eq. 4 for a placement set and an
    /// assignment.
    #[allow(clippy::needless_range_loop)] // (a, b) mirror eq. 4's hub pair indices
    pub fn synchronization_cost(&self, placed: &[bool], assignment: &[usize]) -> f64 {
        let n = self.num_candidates();
        // count of clients per candidate (Σ_m y_mn)
        let mut load = vec![0usize; n];
        for &a in assignment {
            load[a] += 1;
        }
        let mut cost = 0.0;
        for a in 0..n {
            if !placed[a] {
                continue;
            }
            for b in 0..n {
                if a != b && placed[b] {
                    cost += self.delta[a][b] * load[a] as f64 + self.eps[a][b];
                }
            }
        }
        cost
    }

    /// Balance cost C_B = C_M + ω·C_S (eq. 5).
    pub fn balance_cost(&self, placed: &[bool], assignment: &[usize]) -> f64 {
        self.management_cost(assignment)
            + self.omega * self.synchronization_cost(placed, assignment)
    }

    /// A finite "infeasible" sentinel larger than any achievable balance
    /// cost, used as f(∅) so the double-greedy stays in finite arithmetic.
    pub fn infeasible_cost(&self) -> f64 {
        let zeta_max: f64 = self.zeta.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
        let sync_max: f64 = self
            .delta
            .iter()
            .flatten()
            .chain(self.eps.iter().flatten())
            .sum::<f64>()
            * (self.num_clients() as f64 + 1.0);
        10.0 * (1.0 + zeta_max * self.num_clients() as f64 + self.omega * sync_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PlacementInstance {
        // 2 clients, 2 candidates
        PlacementInstance::from_matrices(
            vec![NodeId::new(2), NodeId::new(3)],
            vec![NodeId::new(0), NodeId::new(1)],
            vec![vec![1.0, 4.0], vec![3.0, 2.0]],
            vec![vec![0.0, 0.5], vec![0.5, 0.0]],
            vec![vec![0.0, 0.2], vec![0.2, 0.0]],
            1.0,
        )
        .unwrap()
    }

    #[test]
    fn cost_components() {
        let inst = tiny();
        // assign client0→cand0, client1→cand1; both placed
        let placed = vec![true, true];
        let asg = vec![0, 1];
        assert_eq!(inst.management_cost(&asg), 3.0);
        // CS = δ01·load0 + ε01 + δ10·load1 + ε10 = 0.5+0.2+0.5+0.2 = 1.4
        assert!((inst.synchronization_cost(&placed, &asg) - 1.4).abs() < 1e-12);
        assert!((inst.balance_cost(&placed, &asg) - 4.4).abs() < 1e-12);
    }

    #[test]
    fn single_hub_no_sync_cost() {
        let inst = tiny();
        let placed = vec![true, false];
        let asg = vec![0, 0];
        assert_eq!(inst.synchronization_cost(&placed, &asg), 0.0);
        assert_eq!(inst.balance_cost(&placed, &asg), 4.0);
    }

    #[test]
    fn dimension_validation() {
        let bad = PlacementInstance::from_matrices(
            vec![NodeId::new(0)],
            vec![NodeId::new(1)],
            vec![vec![1.0, 2.0]], // wrong width
            vec![vec![0.0]],
            vec![vec![0.0]],
            1.0,
        );
        assert!(bad.is_err());
        let neg = PlacementInstance::from_matrices(
            vec![NodeId::new(0)],
            vec![NodeId::new(1)],
            vec![vec![-1.0]],
            vec![vec![0.0]],
            vec![vec![0.0]],
            1.0,
        );
        assert!(neg.is_err());
    }

    #[test]
    fn from_graph_hop_costs() {
        // path 0-1-2-3; candidates {0,1}, clients {2,3}
        let mut g = pcn_graph::Graph::new(4);
        for i in 0..3 {
            g.add_edge(NodeId::from_index(i), NodeId::from_index(i + 1));
        }
        let inst = PlacementInstance::from_graph(
            &g,
            vec![NodeId::new(2), NodeId::new(3)],
            vec![NodeId::new(0), NodeId::new(1)],
            CostParams::paper(1.0),
        );
        // client 2: hops to cand0 = 2, cand1 = 1
        assert!((inst.zeta(0, 0) - 0.04).abs() < 1e-12);
        assert!((inst.zeta(0, 1) - 0.02).abs() < 1e-12);
        // candidates 0-1 are 1 hop apart
        assert!((inst.delta(0, 1) - 0.01).abs() < 1e-12);
        assert!((inst.eps(1, 0) - 0.05).abs() < 1e-12);
        assert_eq!(inst.delta(0, 0), 0.0);
    }

    #[test]
    fn unreachable_pairs_penalized() {
        let g = pcn_graph::Graph::new(3); // no edges
        let inst = PlacementInstance::from_graph(
            &g,
            vec![NodeId::new(2)],
            vec![NodeId::new(0), NodeId::new(1)],
            CostParams::paper(1.0),
        );
        assert!(inst.zeta(0, 0) > 0.02 * 10.0);
        assert!(inst.delta(0, 1) > 0.0);
    }

    #[test]
    fn uniform_delta_override() {
        let inst = tiny().with_uniform_delta(0.7);
        assert_eq!(inst.delta(0, 1), 0.7);
        assert_eq!(inst.delta(1, 0), 0.7);
        assert_eq!(inst.delta(0, 0), 0.0);
    }

    #[test]
    fn infeasible_cost_dominates() {
        let inst = tiny();
        let placed = vec![true, true];
        for asg in [[0usize, 0], [0, 1], [1, 0], [1, 1]] {
            assert!(inst.infeasible_cost() > inst.balance_cost(&placed, &asg));
        }
    }
}
