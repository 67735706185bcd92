//! Unified solver front-end.

use pcn_sim::SimRng;
use pcn_types::Result;

use crate::supermodular::{double_greedy_deterministic, double_greedy_randomized};
use crate::{exact, milp_form, PlacementInstance, PlacementPlan};

/// Which algorithm to run on a placement instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementSolver {
    /// Exhaustive subset enumeration (exact; ≤ 24 candidates).
    Exhaustive,
    /// The linearized MILP via branch & bound (exact; small instances,
    /// the paper's "small-scale optimal solution").
    Milp,
    /// Deterministic double greedy (⅓-approximation, the paper's
    /// Algorithm 1 derandomized).
    DoubleGreedyDeterministic,
    /// Randomized double greedy (½-approximation in expectation — the
    /// paper's Algorithm 1 as printed).
    DoubleGreedyRandomized,
    /// Pick automatically: exhaustive when candidates ≤ 16, otherwise the
    /// randomized double greedy ("small-scale" vs "large-scale" in §IV-C).
    Auto,
}

impl PlacementSolver {
    /// Runs the selected algorithm.
    ///
    /// # Errors
    ///
    /// Propagates infeasibility and size-guard errors from the underlying
    /// algorithm.
    pub fn solve(self, inst: &PlacementInstance, rng: &mut SimRng) -> Result<PlacementPlan> {
        match self {
            PlacementSolver::Exhaustive => exact::solve_exhaustive(inst),
            PlacementSolver::Milp => milp_form::solve_milp(inst),
            PlacementSolver::DoubleGreedyDeterministic => {
                let out = double_greedy_deterministic(inst);
                PlacementPlan::from_placement(inst, &ensure_nonempty(inst, out.members))
            }
            PlacementSolver::DoubleGreedyRandomized => {
                let out = double_greedy_randomized(inst, rng);
                PlacementPlan::from_placement(inst, &ensure_nonempty(inst, out.members))
            }
            PlacementSolver::Auto => {
                if inst.num_candidates() <= 16 {
                    exact::solve_exhaustive(inst)
                } else {
                    let out = double_greedy_randomized(inst, rng);
                    PlacementPlan::from_placement(inst, &ensure_nonempty(inst, out.members))
                }
            }
        }
    }
}

/// The double greedy can in principle return the empty set when every
/// marginal says "remove" (possible only under degenerate cost matrices);
/// clients still need a hub, so fall back to the single best candidate.
fn ensure_nonempty(inst: &PlacementInstance, mut members: Vec<bool>) -> Vec<bool> {
    if members.iter().any(|&b| b) {
        return members;
    }
    let singleton_cost: Vec<f64> = (0..members.len())
        .map(|c| {
            members[c] = true;
            let cost = crate::assignment::balance_cost_for(inst, &members);
            members[c] = false;
            cost
        })
        .collect();
    let best = (0..members.len())
        .min_by(|&a, &b| singleton_cost[a].total_cmp(&singleton_cost[b]))
        .expect("at least one candidate");
    members[best] = true;
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostParams;
    use pcn_types::NodeId;

    fn inst(cands: usize) -> PlacementInstance {
        let g = pcn_graph::ring(cands + 8);
        PlacementInstance::from_graph(
            &g,
            (cands..cands + 8).map(NodeId::from_index).collect(),
            (0..cands).map(NodeId::from_index).collect(),
            CostParams::paper(0.4),
        )
    }

    #[test]
    fn all_solvers_produce_valid_plans() {
        let inst = inst(4);
        let mut rng = SimRng::seed(5);
        for solver in [
            PlacementSolver::Exhaustive,
            PlacementSolver::Milp,
            PlacementSolver::DoubleGreedyDeterministic,
            PlacementSolver::DoubleGreedyRandomized,
            PlacementSolver::Auto,
        ] {
            let plan = solver.solve(&inst, &mut rng).unwrap();
            assert!(!plan.hubs().is_empty(), "{solver:?}");
            assert!(plan.balance_cost().is_finite());
        }
    }

    #[test]
    fn auto_switches_to_greedy_for_large_sets() {
        let big = inst(20);
        let mut rng = SimRng::seed(6);
        // Exhaustive would take 2^20 evaluations but still works; Auto must
        // not pick MILP (guarded) and must return something sane quickly.
        let plan = PlacementSolver::Auto.solve(&big, &mut rng).unwrap();
        assert!(!plan.hubs().is_empty());
    }

    #[test]
    fn ensure_nonempty_places_the_first_cheapest_singleton() {
        // Singletons cost 7, 4, 4 (ζ only: one client, no sync pairs):
        // the first of the tied cheapest wins.
        let inst = PlacementInstance::from_matrices(
            vec![NodeId::new(9)],
            (0..3).map(NodeId::new).collect(),
            vec![vec![7.0, 4.0, 4.0]],
            vec![vec![0.0; 3]; 3],
            vec![vec![0.0; 3]; 3],
            1.0,
        )
        .unwrap();
        assert_eq!(ensure_nonempty(&inst, vec![false; 3]), [false, true, false]);
        // A non-empty placement passes through untouched.
        assert_eq!(
            ensure_nonempty(&inst, vec![true, false, true]),
            [true, false, true]
        );
    }

    #[test]
    fn exact_beats_or_ties_greedy() {
        let inst = inst(6);
        let mut rng = SimRng::seed(7);
        let exact = PlacementSolver::Exhaustive.solve(&inst, &mut rng).unwrap();
        let greedy = PlacementSolver::DoubleGreedyDeterministic
            .solve(&inst, &mut rng)
            .unwrap();
        assert!(exact.balance_cost() <= greedy.balance_cost() + 1e-9);
    }
}
