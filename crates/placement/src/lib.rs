//! PCH (payment channel hub) placement — the paper's first contribution.
//!
//! Given a PCN topology, a set of candidate smooth nodes `VSNC` and the
//! client set `VCLI`, choose which candidates to *place* as actual hubs
//! (vector `x`, eq. 1) and how to *assign* clients to them (matrix `y`,
//! eq. 2) so as to minimize the balance cost (eq. 5)
//!
//! ```text
//! C_B(x, y) = C_M(y) + ω·C_S(x, y)
//! C_M(y)   = Σ_m Σ_n ζ_mn y_mn                      (management, eq. 3)
//! C_S(x,y) = Σ_n Σ_l x_n x_l (δ_nl Σ_m y_mn + ε_nl) (synchronization, eq. 4)
//! ```
//!
//! The problem is NP-hard; the crate implements every solution path the
//! paper describes plus a ground-truth oracle:
//!
//! * [`assignment::optimal_assignment`] — Lemma 1: the closed-form optimal
//!   `y` for a fixed placement `x`.
//! * [`exact::solve_exhaustive`] — exhaustive subset enumeration (ground
//!   truth for small candidate sets): an allocation-free screen prices
//!   every subset, and [`assignment::balance_cost_for`] re-prices only
//!   those within a proven rounding tolerance of the best, so the chosen
//!   subset is the plain enumeration's bit for bit.
//! * [`milp_form::solve_milp`] — the standard-linearization MILP (eqs.
//!   6–10) solved by this workspace's own branch-and-bound solver
//!   (§IV-C "small-scale optimal solution").
//! * [`supermodular`] — the large-scale ½-approximation: the balance cost
//!   as a set function `f(X)` (eq. 14), its supermodularity check
//!   (Definition 2 / Lemma 2), and the Buchbinder et al. double-greedy
//!   (Algorithm 1) in deterministic and randomized variants.
//!
//! # Examples
//!
//! ```
//! use pcn_placement::{CostParams, PlacementInstance, PlacementSolver};
//! use pcn_sim::SimRng;
//! use rand::SeedableRng;
//!
//! // A small ring topology: 12 nodes, first 4 are hub candidates.
//! let g = pcn_graph::ring(12);
//! let candidates: Vec<_> = (0..4).map(pcn_types::NodeId::from_index).collect();
//! let clients: Vec<_> = (4..12).map(pcn_types::NodeId::from_index).collect();
//! let inst = PlacementInstance::from_graph(&g, clients, candidates, CostParams::paper(0.5));
//!
//! let plan = PlacementSolver::Exhaustive.solve(&inst, &mut SimRng::seed(1)).unwrap();
//! assert!(!plan.hubs().is_empty());
//! assert!(plan.balance_cost() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod exact;
mod instance;
pub mod milp_form;
mod plan;
mod solver;
pub mod supermodular;

pub use instance::{CostParams, PlacementInstance};
pub use plan::PlacementPlan;
pub use solver::PlacementSolver;
