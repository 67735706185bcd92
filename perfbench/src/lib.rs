//! The repository's benchmark: three workloads driven through the public
//! calls of `pcn-workload`, `pcn-placement`/`milp`, `splicer-core`,
//! `pcn-graph` and `pcn-routing`, serially on the calling thread.
//!
//! Every run does the same amount of work whatever its seed: a fixed
//! number of worlds (seeds derived with [`pcn_harness::derive_seed`]),
//! each with a payment trace cut to a fixed length, a fixed placement
//! stage and fixed-size query samples. See
//! `README.md` for the workloads, the metrics and the layer they belong
//! to.

#![forbid(unsafe_code)]

pub mod host;
pub mod pass;
pub mod report;
pub mod trace;

use pcn_harness::derive_seed;
use pcn_types::SimDuration;
use pcn_workload::{Scenario, ScenarioBuilder, ScenarioParams};

/// The five compared schemes, in `SystemBuilder::build_all` order, as
/// they appear in metric names.
pub const SCHEMES: [&str; 5] = ["splicer", "spider", "flash", "landmark", "a2l"];

/// The paper's placement trade-off weight, as `SystemBuilder` uses it.
pub const OMEGA: f64 = 0.04;

/// Least worlds a run covers, whatever `--seconds` says.
const MIN_WORLDS: usize = 3;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 8 default cell: WS(3000, 8), uniform traffic.
    Fig8Uniform,
    /// A 300-node world, hotspot traffic on tight channels, saturating.
    HotspotSaturated,
    /// `HotspotSaturated` plus channel churn and a hub outage.
    HotspotChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig8Uniform,
        Workload::HotspotSaturated,
        Workload::HotspotChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig8Uniform => "fig8_uniform",
            Workload::HotspotSaturated => "hotspot_saturated",
            Workload::HotspotChurn => "hotspot_churn",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed shape for a run of nominally `seconds`.
    ///
    /// The world count is derived from `seconds` and a per-world cost
    /// measured once on a 2-core x86-64 host, never from a clock, so two
    /// runs with the same arguments always do the same work.
    pub fn spec(self, seconds: u64) -> WorkloadSpec {
        let hotspot = || {
            ScenarioBuilder::small()
                .nodes(300)
                .degree(8)
                .candidates(16)
                .channel_scale(0.5)
                .arrivals_per_sec(250.0)
                .hotspot(0.9, 1.2)
        };
        // (params, payments per world, world cost in s, exact stage, queries)
        let (params, payments, world_cost_s, exact, queries) = match self {
            // Splicer's own placement here is the double greedy (40
            // candidates, milliseconds), so the world gets a separate
            // exact-placement stage.
            Workload::Fig8Uniform => {
                let b = ScenarioBuilder::large().arrivals_per_sec(60.0);
                (b.build().params, 500, 6.3, Some(ExactStage::fig7(10)), 40)
            }
            // 16 candidates: `PlacementSolver::Auto` solves Splicer's own
            // placement exhaustively, and that solve is the placement
            // measured.
            Workload::HotspotSaturated => (hotspot().build().params, 3_000, 1.9, None, 200),
            Workload::HotspotChurn => {
                let b = hotspot().timeline(|t| t.churn(2.0).hub_outage(4.0, 0, 8.0));
                (b.build().params, 3_000, 2.6, None, 200)
            }
        };
        let worlds = ((seconds as f64 / world_cost_s).round() as usize).max(MIN_WORLDS);
        WorkloadSpec::new(params, payments, worlds, exact, queries)
    }
}

/// A separate exact-placement stage solved on every world of a run: an
/// exhaustive optimum and the double greedy on one instance, then MILP
/// sub-problems, each also solved exhaustively to check the MILP.
#[derive(Clone, Copy, Debug)]
pub struct ExactStage {
    /// Candidates of the instance (the first of the world's candidates).
    pub candidates: usize,
    /// Clients of the instance, sampled from the world's clients.
    pub clients: usize,
    /// MILP sub-problems per world.
    pub milps: usize,
    /// Candidates and clients of each MILP sub-problem (the solver's
    /// branch and bound grows steeply beyond two candidates).
    pub milp_shape: (usize, usize),
}

impl ExactStage {
    /// A Fig. 7-sized instance (16 candidates, 84 clients) and `milps`
    /// sub-problems of 2 candidates × 24 clients.
    pub fn fig7(milps: usize) -> ExactStage {
        ExactStage {
            candidates: 16,
            clients: 84,
            milps,
            milp_shape: (2, 24),
        }
    }
}

/// Everything one run of a workload does, fixed before it starts.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// World parameters; each world replaces the seed.
    pub params: ScenarioParams,
    /// Payments every world's trace is cut to.
    pub payments: usize,
    /// Worlds the run covers.
    pub worlds: usize,
    /// The exact-placement stage, or `None` when Splicer's own placement
    /// is solved exactly (at most 16 candidates) and is measured instead.
    pub exact: Option<ExactStage>,
    /// (source, dest) pairs each graph primitive and each planner replay
    /// is timed on, per probed world.
    pub queries: usize,
    /// Worlds the traced run's layer probes cover.
    pub probe_worlds: usize,
}

impl WorkloadSpec {
    /// A spec over `params`. The trace horizon is stretched so that it
    /// always holds at least `payments` arrivals before it is cut.
    pub fn new(
        params: ScenarioParams,
        payments: usize,
        worlds: usize,
        exact: Option<ExactStage>,
        queries: usize,
    ) -> WorkloadSpec {
        let mut params = params;
        let expected_secs = payments as f64 / params.arrivals_per_sec;
        params.duration = SimDuration::from_secs((1.5 * expected_secs).ceil() as u64 + 2);
        WorkloadSpec {
            params,
            payments,
            worlds,
            exact,
            queries,
            probe_worlds: worlds.min(2),
        }
    }

    /// The seed of world `index` of a run seeded with `seed`.
    pub fn world_seed(&self, seed: u64, index: usize) -> u64 {
        derive_seed(seed, index as u64)
    }

    /// Builds one world's scenario and cuts its trace to the fixed
    /// payment count.
    ///
    /// # Errors
    ///
    /// When the generated trace is shorter than the fixed count.
    pub fn build_scenario(&self, world_seed: u64) -> Result<Scenario, String> {
        let mut params = self.params.clone();
        params.seed = world_seed;
        let mut scenario = Scenario::build(params);
        if scenario.payments.len() < self.payments {
            return Err(format!(
                "world {world_seed:#x}: trace holds {} payments, fewer than {}",
                scenario.payments.len(),
                self.payments
            ));
        }
        scenario.payments.truncate(self.payments);
        Ok(scenario)
    }
}

/// `count` distinct indices below `len` (all of them when `count >= len`),
/// by a partial Fisher–Yates shuffle driven by `seed`.
pub fn sample_distinct(seed: u64, count: usize, len: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..len).collect();
    let take = count.min(len);
    for i in 0..take {
        let j = i + (derive_seed(seed, i as u64) % (len - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx.truncate(take);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_does_not_depend_on_the_seed() {
        for w in Workload::ALL {
            let spec = w.spec(20);
            for seed in [1, 2, 977] {
                let world = spec.world_seed(seed, 0);
                let scenario = spec.build_scenario(world).expect("trace long enough");
                assert_eq!(scenario.payments.len(), spec.payments, "{}", w.name());
                assert_eq!(
                    sample_distinct(world, spec.queries, scenario.payments.len()).len(),
                    spec.queries
                );
            }
            assert_eq!(spec.worlds, w.spec(20).worlds);
        }
    }

    #[test]
    fn distinct_samples_are_distinct() {
        let mut s = sample_distinct(9, 10, 30);
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 10);
        assert_eq!(sample_distinct(9, 50, 7).len(), 7);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
