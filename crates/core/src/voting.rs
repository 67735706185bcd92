//! Multiwinner voting for the smooth-node candidate list (§III-B).
//!
//! "Splicer runs a multiwinner voting algorithm in the smart contract that
//! effectively allows all entities to fairly select a smooth node candidate
//! list … (i) Excellence means the selected candidates are better for
//! outsourcing routing tasks (e.g., have more client connections,
//! transaction funds, and lower operational overhead). (ii) Diversity means
//! that the candidate positions are as diverse as possible."
//!
//! We implement the greedy submodular multiwinner rule: each round picks
//! the node maximizing `excellence + λ_div · min-hop-distance to the
//! already-elected set`, the standard (1−1/e)-style greedy for coverage-
//! flavoured committee selection. The paper leaves the optimal rule as
//! future work; this captures both stated criteria.

use pcn_graph::{bfs_hops, hop_sums, Graph};
use pcn_routing::channel::NetworkFunds;
use pcn_types::NodeId;

/// Weights for the two voting criteria.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VotingWeights {
    /// Weight of normalized degree (client connections).
    pub degree: f64,
    /// Weight of normalized adjacent funds (transaction funds).
    pub funds: f64,
    /// Weight of closeness to the rest of the network (lower average hops
    /// = lower operational overhead).
    pub closeness: f64,
    /// Weight of diversity (distance to already-elected candidates).
    pub diversity: f64,
}

impl Default for VotingWeights {
    fn default() -> Self {
        VotingWeights {
            degree: 1.0,
            funds: 1.0,
            closeness: 1.0,
            diversity: 1.5,
        }
    }
}

/// Elects `committee_size` candidates from the nodes of `g`.
///
/// Returns the elected nodes in election order (strongest first). The
/// result is deterministic: ties break towards lower node ids.
///
/// # Examples
///
/// ```
/// use splicer_core::voting::{elect_candidates, VotingWeights};
/// use pcn_routing::channel::NetworkFunds;
/// use pcn_types::Amount;
///
/// let g = pcn_graph::star(7); // node 0 is the obvious winner
/// let funds = NetworkFunds::uniform(&g, Amount::from_tokens(10));
/// let elected = elect_candidates(&g, &funds, 3, VotingWeights::default());
/// assert_eq!(elected[0], pcn_types::NodeId::new(0));
/// assert_eq!(elected.len(), 3);
/// ```
pub fn elect_candidates(
    g: &Graph,
    funds: &NetworkFunds,
    committee_size: usize,
    weights: VotingWeights,
) -> Vec<NodeId> {
    let n = g.node_count();
    if n == 0 || committee_size == 0 {
        return Vec::new();
    }
    let committee_size = committee_size.min(n);
    // Excellence ingredients, normalized to [0, 1].
    let degrees: Vec<f64> = (0..n)
        .map(|i| g.degree(NodeId::from_index(i)) as f64)
        .collect();
    let max_degree = degrees.iter().fold(1.0f64, |a, &b| a.max(b));
    let adjacent_funds: Vec<f64> = (0..n)
        .map(|i| {
            let v = NodeId::from_index(i);
            g.out_edges(v)
                .map(|e| funds.total(e.id).to_tokens_f64())
                .sum::<f64>()
        })
        .collect();
    let max_funds = adjacent_funds.iter().fold(1.0f64, |a, &b| a.max(b));
    // Closeness: 1 / (1 + mean hops to all reachable nodes). `hop_sums`
    // is one bit-parallel BFS per 64 sources, ⌈V/64⌉·levels·(V + E) word
    // operations, so every node is scored exactly at paper scale.
    let closeness: Vec<f64> = hop_sums(g)
        .into_iter()
        .map(|(sum, cnt)| {
            if cnt == 0 {
                0.0
            } else {
                1.0 / (1.0 + sum as f64 / cnt as f64)
            }
        })
        .collect();
    let excellence: Vec<f64> = (0..n)
        .map(|i| {
            weights.degree * degrees[i] / max_degree
                + weights.funds * adjacent_funds[i] / max_funds
                + weights.closeness * closeness[i]
        })
        .collect();

    let diameter_norm = (n as f64).sqrt().max(1.0);
    let mut elected: Vec<NodeId> = Vec::new();
    let mut is_elected = vec![false; n];
    let mut min_dist_to_elected: Vec<f64> = vec![f64::INFINITY; n];
    for _ in 0..committee_size {
        let best = (0..n).filter(|&i| !is_elected[i]).max_by(|&a, &b| {
            let score = |i: usize| {
                let div = if elected.is_empty() {
                    0.0
                } else {
                    (min_dist_to_elected[i] / diameter_norm).min(1.0)
                };
                excellence[i] + weights.diversity * div
            };
            score(a).total_cmp(&score(b)).then(b.cmp(&a)) // lower id wins ties
        });
        let Some(winner) = best else { break };
        let w = NodeId::from_index(winner);
        elected.push(w);
        is_elected[winner] = true;
        let hops = bfs_hops(g, w);
        for i in 0..n {
            let d = if hops[i] == u32::MAX {
                f64::INFINITY
            } else {
                f64::from(hops[i])
            };
            min_dist_to_elected[i] = min_dist_to_elected[i].min(d);
        }
    }
    elected
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_sim::SimRng;
    use pcn_types::Amount;
    use pcn_workload::{Scenario, ScenarioParams};

    /// Executable spec: the election as first written, with closeness
    /// folded from one `bfs_hops` per source, the O(k) `contains` scan
    /// and the per-round `diameter_norm`. Production must elect the same
    /// committee in the same order.
    fn elect_candidates_per_source(
        g: &Graph,
        funds: &NetworkFunds,
        committee_size: usize,
        weights: VotingWeights,
    ) -> Vec<NodeId> {
        let n = g.node_count();
        if n == 0 || committee_size == 0 {
            return Vec::new();
        }
        let committee_size = committee_size.min(n);
        let degrees: Vec<f64> = (0..n)
            .map(|i| g.degree(NodeId::from_index(i)) as f64)
            .collect();
        let max_degree = degrees.iter().fold(1.0f64, |a, &b| a.max(b));
        let adjacent_funds: Vec<f64> = (0..n)
            .map(|i| {
                g.out_edges(NodeId::from_index(i))
                    .map(|e| funds.total(e.id).to_tokens_f64())
                    .sum::<f64>()
            })
            .collect();
        let max_funds = adjacent_funds.iter().fold(1.0f64, |a, &b| a.max(b));
        let closeness: Vec<f64> = (0..n)
            .map(|i| {
                let hops = bfs_hops(g, NodeId::from_index(i));
                let (sum, cnt) = hops
                    .iter()
                    .filter(|&&h| h != u32::MAX && h > 0)
                    .fold((0u64, 0u64), |(s, c), &h| (s + u64::from(h), c + 1));
                if cnt == 0 {
                    0.0
                } else {
                    1.0 / (1.0 + sum as f64 / cnt as f64)
                }
            })
            .collect();
        let excellence: Vec<f64> = (0..n)
            .map(|i| {
                weights.degree * degrees[i] / max_degree
                    + weights.funds * adjacent_funds[i] / max_funds
                    + weights.closeness * closeness[i]
            })
            .collect();
        let mut elected: Vec<NodeId> = Vec::new();
        let mut min_dist_to_elected: Vec<f64> = vec![f64::INFINITY; n];
        for _ in 0..committee_size {
            let diameter_norm = (n as f64).sqrt().max(1.0);
            let best = (0..n)
                .filter(|&i| !elected.contains(&NodeId::from_index(i)))
                .max_by(|&a, &b| {
                    let score = |i: usize| {
                        let div = if elected.is_empty() {
                            0.0
                        } else {
                            (min_dist_to_elected[i] / diameter_norm).min(1.0)
                        };
                        excellence[i] + weights.diversity * div
                    };
                    score(a).total_cmp(&score(b)).then(b.cmp(&a))
                });
            let Some(winner) = best else { break };
            let w = NodeId::from_index(winner);
            elected.push(w);
            let hops = bfs_hops(g, w);
            for i in 0..n {
                let d = if hops[i] == u32::MAX {
                    f64::INFINITY
                } else {
                    f64::from(hops[i])
                };
                min_dist_to_elected[i] = min_dist_to_elected[i].min(d);
            }
        }
        elected
    }

    #[test]
    fn matches_per_source_oracle_on_small_cases() {
        let w = VotingWeights::default();
        for g in [pcn_graph::star(10), pcn_graph::ring(12), pcn_graph::ring(4)] {
            let funds = NetworkFunds::uniform(&g, Amount::from_tokens(5));
            for k in [0, 1, 3, 4, 99] {
                assert_eq!(
                    elect_candidates(&g, &funds, k, w),
                    elect_candidates_per_source(&g, &funds, k, w),
                    "{} nodes, committee {k}",
                    g.node_count()
                );
            }
        }
    }

    #[test]
    fn matches_per_source_oracle_on_paper_scale_worlds() {
        // The vote `SystemBuilder` runs: every node of a WS(3000, 8)
        // world, one seat per scenario candidate.
        for seed in 1..=2 {
            let sc = Scenario::build(ScenarioParams {
                seed,
                ..ScenarioParams::large()
            });
            let (g, funds) = (&sc.flat.graph, &sc.flat.funds);
            let k = sc.candidates.len();
            let w = VotingWeights::default();
            let elected = elect_candidates(g, funds, k, w);
            assert_eq!(elected.len(), k);
            assert_eq!(
                elected,
                elect_candidates_per_source(g, funds, k, w),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn star_hub_elected_first() {
        let g = pcn_graph::star(10);
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(5));
        let elected = elect_candidates(&g, &funds, 4, VotingWeights::default());
        assert_eq!(elected[0], NodeId::new(0));
        assert_eq!(elected.len(), 4);
    }

    #[test]
    fn diversity_spreads_committee_on_ring() {
        let g = pcn_graph::ring(12);
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(5));
        let elected = elect_candidates(&g, &funds, 3, VotingWeights::default());
        // On a symmetric ring, diversity forces the committee apart:
        // pairwise hop distance must exceed 2.
        for (i, &a) in elected.iter().enumerate() {
            for &b in elected.iter().skip(i + 1) {
                let hops = bfs_hops(&g, a);
                assert!(hops[b.index()] >= 3, "{a} and {b} too close");
            }
        }
    }

    #[test]
    fn funds_break_degree_ties() {
        // Two identical-degree nodes; one is adjacent to a fat channel.
        let mut g = pcn_graph::Graph::new(4);
        let fat = g.add_edge(NodeId::new(0), NodeId::new(1));
        g.add_edge(NodeId::new(2), NodeId::new(3));
        g.add_edge(NodeId::new(1), NodeId::new(2));
        let funds = NetworkFunds::from_graph(&g, |id, _| {
            if id == fat {
                Amount::from_tokens(1_000)
            } else {
                Amount::from_tokens(1)
            }
        });
        let elected = elect_candidates(&g, &funds, 1, VotingWeights::default());
        assert!(elected[0] == NodeId::new(0) || elected[0] == NodeId::new(1));
    }

    #[test]
    fn committee_bounded_by_node_count() {
        let g = pcn_graph::ring(4);
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(1));
        assert_eq!(
            elect_candidates(&g, &funds, 99, VotingWeights::default()).len(),
            4
        );
        assert!(elect_candidates(&g, &funds, 0, VotingWeights::default()).is_empty());
    }

    #[test]
    fn deterministic() {
        let mut rng = SimRng::seed(5);
        let g = pcn_graph::watts_strogatz(40, 4, 0.3, rng.as_rand());
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(10));
        let a = elect_candidates(&g, &funds, 6, VotingWeights::default());
        let b = elect_candidates(&g, &funds, 6, VotingWeights::default());
        assert_eq!(a, b);
    }
}
