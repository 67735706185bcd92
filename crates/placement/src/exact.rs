//! Exhaustive exact solver: ground truth for small candidate sets.
//!
//! [`solve_exhaustive`] enumerates every non-empty subset X of the
//! candidates in ascending bit-mask order, in one pass with two
//! evaluators of the balance cost f(X) (eq. 14).
//!
//! **The screen** prices every mask without allocating. Lemma 1 sends
//! each client to its cheapest placed candidate, and eq. 4's δ term is
//! linear in a hub's load, so the cost regroups per client:
//!
//! ```text
//! f(X) = Σ_m min_{c∈X} (ζ_mc + t_c(X)) + ω·Σ_{a≠b∈X} ε_ab,
//! t_c(X) = ω·Σ_{l∈X∖c} δ_cl
//! ```
//!
//! ζ is copied once into candidate-major rows of M contiguous values.
//! Per mask, t_c and the ε sum take O(k²) over the k set bits; each
//! placed row is then folded into one reused `best` buffer with a
//! branch-free min, which autovectorizes, and `best` is summed with
//! independent accumulators: O(k² + k·M) flops per mask.
//!
//! **The reference**, [`balance_cost_for`], re-prices only the masks
//! whose screened cost is within the tolerance below of the running
//! screened minimum. Its value alone picks the champion, with the strict
//! `<` in ascending mask order of the plain enumeration.
//!
//! **Error bound.** Let u = 2⁻⁵³ and γ_j = j·u/(1 − j·u). Both
//! evaluators add non-negative terms built from non-negative inputs, so
//! the recursive-summation bound (Higham, *Accuracy and Stability of
//! Numerical Algorithms*, §3–4) applies term by term. The screen passes
//! each term through at most M + k² + 3 roundings; the reference through
//! at most M + k² + 4, and its Lemma-1 argmin, optimal only up to the
//! γ_k error of `ζ + t_c`, costs a further factor 1 + γ_{2k}. With
//! L = M + N² + 2N + 4 and η = γ_L, both values lie in
//! [(1 − η)·f(X), (1 + η)·f(X)], provided no sum overflows; underflow
//! is covered by an absolute slack added to the tolerance.
//!
//! **Exactness.** Let m* be the plain enumeration's choice: the first
//! mask with the least reference cost. For every mask Y,
//!
//! ```text
//! screen(m*) ≤ (1+η)·f(m*) ≤ (1+η)/(1−η)·ref(m*)
//!            ≤ (1+η)/(1−η)·ref(Y) ≤ (1 + ρ)·screen(Y),   ρ = 4η/(1−η)²
//! ```
//!
//! The running screened minimum is never below the final one, so m*
//! always passes the screen. A re-priced mask before m* costs strictly
//! more on the reference and one after it no less, so the strict-`<`
//! champion is m*: the mask, and with it the [`PlacementPlan`], is bit
//! for bit the plain enumeration's. The test oracle
//! `solve_exhaustive_reference` checks this on randomized instances.

use pcn_types::{PcnError, Result};

use crate::assignment::balance_cost_for;
use crate::{PlacementInstance, PlacementPlan};

/// Largest candidate count accepted by the exhaustive solver (2^24 subsets
/// is already ~17M cost evaluations).
pub const MAX_EXHAUSTIVE_CANDIDATES: usize = 24;

/// Enumerates every non-empty placement subset and returns the optimum:
/// the first mask, in ascending order, with the least
/// [`balance_cost_for`].
///
/// Every mask is screened in O(k² + k·M) without allocating; only the
/// masks within the module's proven rounding tolerance of the best
/// screened cost so far are re-priced by [`balance_cost_for`], which
/// decides. See the [module docs](self) for the bound and why the result
/// is exact.
///
/// # Errors
///
/// [`PcnError::InvalidConfig`] when the candidate set exceeds
/// [`MAX_EXHAUSTIVE_CANDIDATES`].
///
/// # Examples
///
/// ```
/// use pcn_placement::{exact::solve_exhaustive, CostParams, PlacementInstance};
/// use pcn_types::NodeId;
///
/// let g = pcn_graph::ring(8);
/// let inst = PlacementInstance::from_graph(
///     &g,
///     (3..8).map(NodeId::from_index).collect(),
///     (0..3).map(NodeId::from_index).collect(),
///     CostParams::paper(0.2),
/// );
/// let plan = solve_exhaustive(&inst).unwrap();
/// assert!(plan.balance_cost() > 0.0);
/// ```
pub fn solve_exhaustive(inst: &PlacementInstance) -> Result<PlacementPlan> {
    let n = inst.num_candidates();
    if n > MAX_EXHAUSTIVE_CANDIDATES {
        return Err(PcnError::InvalidConfig(format!(
            "{n} candidates exceed the exhaustive solver limit of {MAX_EXHAUSTIVE_CANDIDATES}"
        )));
    }
    let mut screen = Screen::new(inst);
    // ρ of the module docs, doubled to absorb the rounding of the
    // threshold itself. Products such as ω·δ may underflow, losing at
    // most 2⁻¹⁰⁷⁵ each; `floor` covers every such loss many times over.
    let roundings = (inst.num_clients() + n * n + 2 * n + 4) as f64;
    let eta = roundings * f64::EPSILON / 2.0;
    let eta = eta / (1.0 - eta);
    let rel_tol = 2.0 * 4.0 * eta / ((1.0 - eta) * (1.0 - eta));
    let floor = roundings * f64::MIN_POSITIVE;

    let mut placed = vec![false; n];
    let mut screen_min = f64::INFINITY;
    let (mut best_cost, mut best_mask) = (f64::INFINITY, 0u32);
    for mask in 1u32..(1u32 << n) {
        let screened = screen.cost(mask);
        screen_min = screen_min.min(screened);
        if screened <= screen_min + screen_min * rel_tol + floor {
            fill_placed(&mut placed, mask);
            let cost = balance_cost_for(inst, &placed);
            if cost < best_cost {
                best_cost = cost;
                best_mask = mask;
            }
        }
    }
    fill_placed(&mut placed, best_mask);
    PlacementPlan::from_placement(inst, &placed)
}

/// Writes `mask`'s bits into the placement vector.
fn fill_placed(placed: &mut [bool], mask: u32) {
    for (i, p) in placed.iter_mut().enumerate() {
        *p = mask & (1 << i) != 0;
    }
}

/// The screen's flat copy of the instance and its reused fold buffer.
struct Screen {
    n: usize,
    m: usize,
    omega: f64,
    /// ζ candidate-major: row `c` holds ζ_mc for every client m.
    zeta: Vec<f64>,
    /// δ row-major, N×N.
    delta: Vec<f64>,
    /// ε row-major, N×N.
    eps: Vec<f64>,
    /// Per-client best `ζ_mc + t_c` over the mask's candidates so far.
    best: Vec<f64>,
}

impl Screen {
    fn new(inst: &PlacementInstance) -> Screen {
        let (n, m) = (inst.num_candidates(), inst.num_clients());
        let square = |f: fn(&PlacementInstance, usize, usize) -> f64| -> Vec<f64> {
            (0..n * n).map(|i| f(inst, i / n, i % n)).collect()
        };
        Screen {
            n,
            m,
            omega: inst.omega(),
            zeta: (0..n * m).map(|i| inst.zeta(i % m, i / m)).collect(),
            delta: square(PlacementInstance::delta),
            eps: square(PlacementInstance::eps),
            best: vec![0.0; m],
        }
    }

    /// The screened balance cost of the non-empty `mask`.
    fn cost(&mut self, mask: u32) -> f64 {
        let (n, m) = (self.n, self.m);
        let mut members = [0usize; MAX_EXHAUSTIVE_CANDIDATES];
        let mut t = [0.0f64; MAX_EXHAUSTIVE_CANDIDATES];
        let mut k = 0;
        let mut bits = mask;
        while bits != 0 {
            members[k] = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            k += 1;
        }
        let members = &members[..k];
        let mut eps_sum = 0.0;
        for (tc, &a) in t.iter_mut().zip(members) {
            let (delta, eps) = (&self.delta[a * n..][..n], &self.eps[a * n..][..n]);
            let mut delta_sum = 0.0;
            for &b in members.iter().filter(|&&b| b != a) {
                delta_sum += delta[b];
                eps_sum += eps[b];
            }
            *tc = self.omega * delta_sum;
        }

        let row = |c: usize| &self.zeta[c * m..][..m];
        let first = row(members[0]);
        for (b, &z) in self.best.iter_mut().zip(first) {
            *b = z + t[0];
        }
        for (&c, &tc) in members.iter().zip(&t).skip(1) {
            for (b, &z) in self.best.iter_mut().zip(row(c)) {
                // A select, which vectorizes to a packed min; `f64::min`'s
                // NaN handling made this loop ~1.5× slower.
                let x = z + tc;
                *b = if x < *b { x } else { *b };
            }
        }
        sum(&self.best) + self.omega * eps_sum
    }
}

/// Sums `xs` with four independent accumulators, so the adds pipeline.
fn sum(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let chunks = xs.chunks_exact(4);
    let tail = chunks.remainder();
    for c in chunks {
        for (a, &x) in acc.iter_mut().zip(c) {
            *a += x;
        }
    }
    tail.iter()
        .fold((acc[0] + acc[1]) + (acc[2] + acc[3]), |s, &x| s + x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostParams;
    use pcn_types::NodeId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The plain enumeration: every mask priced by `balance_cost_for`, the
    /// first strict minimum in ascending mask order. The oracle that
    /// `solve_exhaustive` must match bit for bit.
    fn solve_exhaustive_reference(inst: &PlacementInstance) -> Result<PlacementPlan> {
        let n = inst.num_candidates();
        let mut best_cost = f64::INFINITY;
        let mut best_mask = 0u32;
        for mask in 1u32..(1u32 << n) {
            let placed: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
            let cost = balance_cost_for(inst, &placed);
            if cost < best_cost {
                best_cost = cost;
                best_mask = mask;
            }
        }
        let placed: Vec<bool> = (0..n).map(|i| best_mask & (1 << i) != 0).collect();
        PlacementPlan::from_placement(inst, &placed)
    }

    fn assert_matches_reference(inst: &PlacementInstance, case: &str) {
        let fast = solve_exhaustive(inst).unwrap();
        let slow = solve_exhaustive_reference(inst).unwrap();
        assert_eq!(fast.hub_indices(), slow.hub_indices(), "{case}");
        assert_eq!(fast.assignment(), slow.assignment(), "{case}");
        assert_eq!(
            fast.balance_cost().to_bits(),
            slow.balance_cost().to_bits(),
            "{case}: {} vs {}",
            fast.balance_cost(),
            slow.balance_cost()
        );
    }

    const OMEGAS: [f64; 3] = [0.0, 0.04, 1000.0];

    /// An N×N matrix of small integers, diagonal included: the solvers
    /// must ignore it.
    fn square(rng: &mut StdRng, n: usize, max: u32) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| f64::from(rng.random_range(0..=max)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn screened_enumeration_matches_reference_on_integer_matrices() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0015);
        for case in 0..240 {
            let n = rng.random_range(1..=10usize);
            let m = rng.random_range(0..=40usize);
            let omega = OMEGAS[case % OMEGAS.len()];
            let mut zeta: Vec<Vec<f64>> = (0..m)
                .map(|_| {
                    (0..n)
                        .map(|_| f64::from(rng.random_range(0..=30u32)))
                        .collect()
                })
                .collect();
            let mut delta = square(&mut rng, n, 6);
            let mut eps = square(&mut rng, n, 6);
            // Duplicated candidate columns: equal subsets up to relabelling.
            let duplicate = n >= 2 && rng.random_bool(0.4);
            if duplicate {
                let (src, dst) = (rng.random_range(0..n), rng.random_range(0..n));
                for row in &mut zeta {
                    row[dst] = row[src];
                }
                for mat in [&mut delta, &mut eps] {
                    mat[dst] = mat[src].clone();
                    for row in mat.iter_mut() {
                        row[dst] = row[src];
                    }
                }
            }
            let mut inst = PlacementInstance::from_matrices(
                (100..100 + m as u32).map(NodeId::new).collect(),
                (0..n as u32).map(NodeId::new).collect(),
                zeta,
                delta,
                eps,
                omega,
            )
            .unwrap();
            let uniform = rng.random_bool(0.25);
            if uniform {
                inst = inst.with_uniform_delta(f64::from(rng.random_range(0..=4u32)));
            }
            assert_matches_reference(
                &inst,
                &format!("case {case}: N={n} M={m} ω={omega} dup={duplicate} uniform={uniform}"),
            );
        }
    }

    /// On a ring every node sees the same multiset of hop counts, so with
    /// two candidates and a prohibitive ω the singletons tie in exact
    /// arithmetic, while the two evaluators add the same terms in
    /// different orders: a case where their roundings disagree.
    #[test]
    fn screened_enumeration_matches_reference_on_rounding_ties() {
        for nodes in 8..=32usize {
            let g = pcn_graph::ring(nodes);
            for b in 1..nodes {
                let clients = (1..nodes)
                    .filter(|&c| c != b)
                    .map(NodeId::from_index)
                    .collect();
                let candidates = vec![NodeId::new(0), NodeId::from_index(b)];
                let inst = PlacementInstance::from_graph(
                    &g,
                    clients,
                    candidates,
                    CostParams::paper(1000.0),
                );
                assert_matches_reference(&inst, &format!("ring({nodes}), candidates 0 and {b}"));
            }
        }
    }

    #[test]
    fn screened_enumeration_matches_reference_on_graphs() {
        let mut rng = StdRng::seed_from_u64(0x5eed_1015);
        for case in 0..60 {
            let nodes = rng.random_range(8..=40usize);
            let (g, shape) = if case % 2 == 0 {
                (pcn_graph::ring(nodes), "ring")
            } else {
                let g = pcn_graph::watts_strogatz(nodes, 4, 0.3, &mut rng);
                (g, "watts_strogatz")
            };
            let n = rng.random_range(1..=10usize);
            let mut candidates: Vec<NodeId> = (0..n)
                .map(|_| NodeId::from_index(rng.random_range(0..nodes)))
                .collect();
            // Candidate node ids may repeat; make it certain now and then.
            if n >= 2 && rng.random_bool(0.3) {
                candidates[n - 1] = candidates[0];
            }
            let clients: Vec<NodeId> = (0..nodes)
                .map(NodeId::from_index)
                .filter(|c| !candidates.contains(c))
                .collect();
            let omega = OMEGAS[case % OMEGAS.len()];
            let inst =
                PlacementInstance::from_graph(&g, clients, candidates, CostParams::paper(omega));
            assert_matches_reference(
                &inst,
                &format!("case {case}: {shape}({nodes}) N={n} ω={omega}"),
            );
        }
    }

    #[test]
    fn high_omega_prefers_fewer_hubs() {
        // With a huge ω, sync costs dominate: one hub is optimal.
        let g = pcn_graph::ring(10);
        let inst = PlacementInstance::from_graph(
            &g,
            (4..10).map(NodeId::from_index).collect(),
            (0..4).map(NodeId::from_index).collect(),
            CostParams::paper(1000.0),
        );
        let plan = solve_exhaustive(&inst).unwrap();
        assert_eq!(plan.hubs().len(), 1);
    }

    #[test]
    fn zero_omega_achieves_minimum_management_cost() {
        // ω = 0: sync is free, so the optimum gives every client its
        // globally closest candidate (extra hubs are only weakly better,
        // so hub count may be below the full candidate set).
        let g = pcn_graph::ring(10);
        let inst = PlacementInstance::from_graph(
            &g,
            (4..10).map(NodeId::from_index).collect(),
            (0..4).map(NodeId::from_index).collect(),
            CostParams::paper(0.0),
        );
        let plan = solve_exhaustive(&inst).unwrap();
        let min_management: f64 = (0..inst.num_clients())
            .map(|m| {
                (0..inst.num_candidates())
                    .map(|n| inst.zeta(m, n))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        assert!((plan.balance_cost() - min_management).abs() < 1e-9);
        assert!((plan.management_cost() - min_management).abs() < 1e-9);
    }

    #[test]
    fn too_many_candidates_rejected() {
        let g = pcn_graph::ring(30);
        let inst = PlacementInstance::from_graph(
            &g,
            (25..30).map(NodeId::from_index).collect(),
            (0..25).map(NodeId::from_index).collect(),
            CostParams::paper(1.0),
        );
        assert!(solve_exhaustive(&inst).is_err());
    }

    #[test]
    fn plan_is_internally_consistent() {
        let g = pcn_graph::ring(9);
        let inst = PlacementInstance::from_graph(
            &g,
            (3..9).map(NodeId::from_index).collect(),
            (0..3).map(NodeId::from_index).collect(),
            CostParams::paper(0.5),
        );
        let plan = solve_exhaustive(&inst).unwrap();
        // Cost decomposition must match CB = CM + ω CS.
        let recomputed = plan.management_cost() + inst.omega() * plan.synchronization_cost();
        assert!((plan.balance_cost() - recomputed).abs() < 1e-9);
    }
}
