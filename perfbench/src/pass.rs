//! The measured pass and the traced run's layer probes.
//!
//! A pass goes world by world: it sets the world up (`Scenario::build`
//! plus each `SystemBuilder::build_*`), runs the five schemes on it, then
//! measures its placement stage. Every stage thus samples the whole run,
//! so slow host drift within a run reaches every stage and scheme alike. Spans wrap each public call; with the disabled tracer the same
//! code runs without them.

use std::hint::black_box;
use std::time::Instant;

use milp::BranchBoundConfig;
use pcn_graph::{
    bfs_hops, edge_disjoint_shortest_paths_in, edge_disjoint_widest_paths_in, k_shortest_paths_in,
    max_flow_in, shortest_path_accel_in, widest_path_in, AccelBounds, EdgeRef, Path,
    SearchWorkspace,
};
use pcn_harness::derive_seed;
use pcn_placement::exact::solve_exhaustive;
use pcn_placement::milp_form::solve_milp;
use pcn_placement::{CostParams, PlacementInstance, PlacementSolver};
use pcn_routing::channel::NetworkFunds;
use pcn_routing::paths::select_paths_in;
use pcn_routing::RunStats;
use pcn_sim::SimRng;
use pcn_types::{Amount, NodeId};
use pcn_workload::{PcnTopology, Scenario};
use splicer_core::voting::{elect_candidates, VotingWeights};
use splicer_core::{PreparedRun, SystemBuilder};

use crate::report::{fold_digest, Checks, DIGEST_SEED};
use crate::trace::Tracer;
use crate::{sample_distinct, ExactStage, WorkloadSpec, OMEGA, SCHEMES};

/// Salts separating the benchmark's own draws from a world's seed.
const GREEDY_SALT: u64 = 0x6772_6565_6479;
const MILP_SALT: u64 = 0x6d69_6c70;
const EXACT_SALT: u64 = 0x0065_7861_6374;
const QUERY_SALT: u64 = 0x0071_7565_7279;

/// Most candidates `PlacementSolver::Auto` still solves exhaustively.
const AUTO_EXHAUSTIVE_MAX: usize = 16;

/// Paths asked of the k-path primitives (the paper's default k).
const K_PATHS: usize = pcn_types::constants::DEFAULT_PATHS;

/// One scheme run of one world.
#[derive(Clone, Debug)]
pub struct SchemeRun {
    /// The engine's statistics.
    pub stats: RunStats,
    /// Wall seconds of `PreparedRun::run`.
    pub run_s: f64,
}

/// The placement stage of one world.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlacementOutcome {
    /// Wall seconds of the exact solves: every exhaustive and MILP solve
    /// of an [`ExactStage`], or else `build_splicer`, whose cost is
    /// `Auto`'s exhaustive solve.
    pub solve_s: f64,
    /// Optimum balance cost of the world's exact instance.
    pub exact_cost: f64,
    /// Double-greedy balance cost on the same instance.
    pub greedy_cost: f64,
}

/// Everything a measured pass produced.
pub struct PassResult {
    /// Wall seconds of the whole pass, set-up included.
    pub wall_s: f64,
    /// Set-up seconds of each world.
    pub setup_s: Vec<f64>,
    /// Scheme runs per world, in [`SCHEMES`] order.
    pub runs: Vec<Vec<SchemeRun>>,
    /// Hubs Splicer's placement chose, per world.
    pub hubs: Vec<usize>,
    /// Placement stage per world.
    pub placement: Vec<PlacementOutcome>,
    /// The first `probe_worlds` worlds' builders (scenario included), for
    /// the layer probes.
    pub builders: Vec<SystemBuilder>,
    /// FNV-1a digest of every run's semantic statistics, in run order.
    pub digest: u64,
    /// Operations and their checks.
    pub checks: Checks,
}

impl PassResult {
    /// Scheme `i`'s statistics merged over every world.
    pub fn merged(&self, i: usize) -> RunStats {
        let all: Vec<RunStats> = self.runs.iter().map(|r| r[i].stats.clone()).collect();
        RunStats::merge(&all)
    }

    /// Summed `PreparedRun::run` seconds of scheme `i`.
    pub fn run_s(&self, i: usize) -> f64 {
        self.runs.iter().map(|r| r[i].run_s).sum()
    }
}

/// Runs one measured pass over every world of the run seeded `seed`.
pub fn measured_pass(spec: &WorkloadSpec, seed: u64, tracer: &mut Tracer) -> PassResult {
    let start = Instant::now();
    let mut pass = PassResult {
        wall_s: 0.0,
        setup_s: Vec::with_capacity(spec.worlds),
        runs: Vec::with_capacity(spec.worlds),
        hubs: Vec::with_capacity(spec.worlds),
        placement: Vec::with_capacity(spec.worlds),
        builders: Vec::with_capacity(spec.probe_worlds),
        digest: DIGEST_SEED,
        checks: Checks::default(),
    };
    for w in 0..spec.worlds {
        let world_seed = spec.world_seed(seed, w);
        let clock = Instant::now();
        let built = tracer.span("world.setup", |t| setup_world(spec, world_seed, t));
        pass.setup_s.push(clock.elapsed().as_secs_f64());
        let (builder, prepared, splicer_build_s) = match built {
            Ok(world) => world,
            Err(e) => {
                pass.checks.check(false, || e);
                continue;
            }
        };

        let mut world_runs = Vec::with_capacity(SCHEMES.len());
        let mut splicer_optimum = None;
        for (name, run) in SCHEMES.iter().zip(prepared) {
            let clock = Instant::now();
            let report = tracer.span(&format!("routing.engine.{name}"), |_| run.run());
            let run_s = clock.elapsed().as_secs_f64();
            let s = &report.stats;
            pass.checks.check(
                s.is_consistent()
                    && s.conservation_violations == 0
                    && s.generated == spec.payments as u64,
                || format!("world {world_seed:#x} {name}: inconsistent run: {s}"),
            );
            pass.digest = fold_digest(pass.digest, s);
            if let Some(p) = &report.placement {
                pass.hubs.push(p.hubs);
                splicer_optimum = Some(p.balance_cost);
            }
            world_runs.push(SchemeRun {
                stats: report.stats,
                run_s,
            });
        }
        pass.runs.push(world_runs);

        let checks = &mut pass.checks;
        let placement = match &spec.exact {
            Some(stage) => tracer.span("world.exact", |t| {
                exact_placement(stage, builder.scenario(), world_seed, t, checks)
            }),
            None => tracer.span("world.greedy", |t| {
                let sc = builder.scenario();
                splicer_placement(sc, splicer_build_s, splicer_optimum, world_seed, t, checks)
            }),
        };
        pass.placement.push(placement);
        if pass.builders.len() < spec.probe_worlds {
            pass.builders.push(builder);
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

/// Builds one world and every scheme on it; also returns the seconds of
/// `build_splicer`.
fn setup_world(
    spec: &WorkloadSpec,
    world_seed: u64,
    t: &mut Tracer,
) -> Result<(SystemBuilder, Vec<PreparedRun>, f64), String> {
    let scenario = t.span("workload.build", |_| spec.build_scenario(world_seed))?;
    let builder = SystemBuilder::new(scenario);
    let (runs, splicer_s) = build_schemes(&builder, t)
        .map_err(|e| format!("world {world_seed:#x}: Splicer build failed: {e}"))?;
    Ok((builder, runs, splicer_s))
}

/// Every `SystemBuilder::build_*` call, each in its own span, and the
/// seconds of `build_splicer`.
fn build_schemes(
    builder: &SystemBuilder,
    t: &mut Tracer,
) -> pcn_types::Result<(Vec<PreparedRun>, f64)> {
    let clock = Instant::now();
    let splicer = t.span("core.build.splicer", |_| builder.build_splicer())?;
    let splicer_s = clock.elapsed().as_secs_f64();
    let runs = vec![
        splicer,
        t.span("core.build.spider", |_| builder.build_spider()),
        t.span("core.build.flash", |_| builder.build_flash()),
        t.span("core.build.landmark", |_| builder.build_landmark()),
        t.span("core.build.a2l", |_| builder.build_a2l()),
    ];
    Ok((runs, splicer_s))
}

/// The double greedy on `inst`, checked never to beat the exact
/// `optimum`; returns its balance cost.
fn greedy_cost(
    inst: &PlacementInstance,
    optimum: f64,
    world_seed: u64,
    t: &mut Tracer,
    checks: &mut Checks,
) -> f64 {
    let mut rng = SimRng::seed(world_seed ^ GREEDY_SALT);
    let greedy = t.span("placement.greedy", |_| {
        PlacementSolver::DoubleGreedyRandomized.solve(inst, &mut rng)
    });
    let cost = greedy.as_ref().map_or(f64::NAN, |g| g.balance_cost());
    checks.check(cost >= optimum - 1e-9, || {
        format!("world {world_seed:#x}: greedy {greedy:?} below the exact optimum {optimum}")
    });
    cost
}

/// The world's placement when Splicer's own is exact (`Auto` solves at
/// most 16 candidates exhaustively): the seconds of `build_splicer` and
/// its optimum, against the double greedy on the same instance.
fn splicer_placement(
    scenario: &Scenario,
    build_s: f64,
    optimum: Option<f64>,
    world_seed: u64,
    t: &mut Tracer,
    checks: &mut Checks,
) -> PlacementOutcome {
    checks.check(
        scenario.candidates.len() <= AUTO_EXHAUSTIVE_MAX && optimum.is_some(),
        || format!("world {world_seed:#x}: Splicer's placement is not exhaustive"),
    );
    let inst = t.span("placement.instance", |_| {
        PlacementInstance::from_graph(
            &scenario.flat.graph,
            scenario.clients.clone(),
            scenario.candidates.clone(),
            CostParams::paper(OMEGA),
        )
    });
    let optimum = optimum.unwrap_or(f64::NAN);
    PlacementOutcome {
        solve_s: build_s,
        exact_cost: optimum,
        greedy_cost: greedy_cost(&inst, optimum, world_seed, t, checks),
    }
}

/// The world's exact-placement stage: an exhaustive optimum and the
/// double greedy on one instance, then MILP sub-problems, each checked
/// against the exhaustive optimum of the same sub-problem.
fn exact_placement(
    stage: &ExactStage,
    scenario: &Scenario,
    world_seed: u64,
    t: &mut Tracer,
    checks: &mut Checks,
) -> PlacementOutcome {
    let g = &scenario.flat.graph;
    let instance = |t: &mut Tracer, clients: Vec<NodeId>, candidates: Vec<NodeId>| {
        t.span("placement.instance", |_| {
            PlacementInstance::from_graph(g, clients, candidates, CostParams::paper(OMEGA))
        })
    };
    let pick = |from: &[NodeId], seed: u64, count: usize| -> Vec<NodeId> {
        sample_distinct(seed, count, from.len())
            .into_iter()
            .map(|i| from[i])
            .collect()
    };
    let candidates: Vec<NodeId> = scenario
        .candidates
        .iter()
        .take(stage.candidates)
        .copied()
        .collect();
    let clients = pick(&scenario.clients, world_seed ^ EXACT_SALT, stage.clients);
    let inst = instance(t, clients, candidates.clone());

    let clock = Instant::now();
    let exact = t.span("placement.exhaustive", |_| solve_exhaustive(&inst));
    let mut out = PlacementOutcome {
        solve_s: clock.elapsed().as_secs_f64(),
        ..PlacementOutcome::default()
    };
    match exact {
        Ok(exact) => {
            out.exact_cost = exact.balance_cost();
            out.greedy_cost = greedy_cost(&inst, out.exact_cost, world_seed, t, checks);
        }
        Err(e) => checks.check(false, || {
            format!("world {world_seed:#x}: exhaustive placement failed: {e}")
        }),
    }

    let gap = BranchBoundConfig::default().gap;
    let (milp_candidates, milp_clients) = stage.milp_shape;
    for k in 0..stage.milps {
        let sub_seed = derive_seed(world_seed ^ MILP_SALT, k as u64);
        let sub = instance(
            t,
            pick(&scenario.clients, sub_seed, milp_clients),
            pick(&candidates, !sub_seed, milp_candidates),
        );
        let clock = Instant::now();
        let milp = t.span("placement.milp", |_| solve_milp(&sub));
        let exhaustive = t.span("placement.exhaustive", |_| solve_exhaustive(&sub));
        out.solve_s += clock.elapsed().as_secs_f64();
        match (milp, exhaustive) {
            (Ok(milp), Ok(exhaustive)) => {
                let (m, e) = (milp.balance_cost(), exhaustive.balance_cost());
                checks.check((m - e).abs() <= gap + 1e-9 * e.abs().max(1.0), || {
                    format!("world {world_seed:#x} sub-problem {k}: MILP {m} vs exhaustive {e}")
                });
            }
            (milp, exhaustive) => checks.check(false, || {
                format!("world {world_seed:#x} sub-problem {k}: {milp:?} / {exhaustive:?}")
            }),
        }
    }
    out
}

/// The traced run's layer probes on the first `spec.probe_worlds`
/// worlds: the candidate vote, each graph primitive on the flat world,
/// and an uncached planner replay per scheme, all over a fixed
/// seed-derived sample of the trace's (source, dest) pairs. Returns the
/// number of queries timed per graph primitive.
pub fn layer_probes(
    spec: &WorkloadSpec,
    seed: u64,
    builders: &[SystemBuilder],
    t: &mut Tracer,
    checks: &mut Checks,
) -> usize {
    let mut graph_queries = 0;
    for (w, builder) in builders.iter().take(spec.probe_worlds).enumerate() {
        let sc = builder.scenario();
        let elected = t.span("core.vote", |_| {
            elect_candidates(
                &sc.flat.graph,
                &sc.flat.funds,
                sc.candidates.len(),
                VotingWeights::default(),
            )
        });
        checks.check(elected.len() == sc.candidates.len(), || {
            format!("vote elected {} of {}", elected.len(), sc.candidates.len())
        });
        let query_seed = spec.world_seed(seed, w) ^ QUERY_SALT;
        let pairs: Vec<(NodeId, NodeId)> =
            sample_distinct(query_seed, spec.queries, sc.payments.len())
                .into_iter()
                .map(|i| (sc.payments[i].source, sc.payments[i].dest))
                .collect();
        graph_probe(&sc.flat, &pairs, t, checks);
        graph_queries += pairs.len();

        // The rebuild only supplies each scheme's topology and config; its
        // builds are not part of `core.build.*`.
        match t.span("probe.rebuild", |_| {
            build_schemes(builder, &mut Tracer::disabled())
        }) {
            Ok((runs, _)) => {
                for (name, mut run) in SCHEMES.iter().zip(runs) {
                    let mut cfg = None;
                    run.tune_scheme(|s| cfg = Some(s.clone()));
                    let cfg = cfg.expect("tune_scheme runs its closure");
                    let topo = run.topology();
                    let mut ws = SearchWorkspace::new();
                    let found = t.span(&format!("routing.plan_replay.{name}"), |_| {
                        pairs
                            .iter()
                            .map(|&(s, d)| {
                                select_paths_in(
                                    &topo.graph,
                                    &mut ws,
                                    &topo.funds,
                                    s,
                                    d,
                                    cfg.num_paths,
                                    cfg.path_select,
                                    cfg.balance_view,
                                    Amount::ZERO,
                                    true,
                                )
                                .len()
                            })
                            .sum::<usize>()
                    });
                    checks.check(found > 0, || format!("{name} replay found no path"));
                }
            }
            Err(e) => checks.check(false, || format!("probe rebuild failed: {e}")),
        }
    }
    graph_queries
}

/// Live spendable balance as a width (the hub routers' view).
fn live_width(funds: &NetworkFunds, e: EdgeRef) -> Option<f64> {
    Some(funds.balance(e.id, e.from).millitokens() as f64)
}

fn bottleneck(funds: &NetworkFunds, path: &Path) -> f64 {
    path.hops_iter()
        .map(|(from, id, to)| live_width(funds, EdgeRef { id, from, to }).unwrap_or(0.0))
        .fold(f64::INFINITY, f64::min)
}

/// Times each graph primitive over `pairs` on a warm workspace, one span
/// per primitive, and checks their answers against each other.
fn graph_probe(
    world: &PcnTopology,
    pairs: &[(NodeId, NodeId)],
    t: &mut Tracer,
    checks: &mut Checks,
) {
    let (g, funds) = (&world.graph, &world.funds);
    let unit = |_: EdgeRef| Some(1.0);
    let width = |e: EdgeRef| live_width(funds, e);
    let capacity = |e: EdgeRef| Some(funds.total(e.id).millitokens());
    let mut ws = SearchWorkspace::new();
    ws.prepare_landmarks(g);
    if let Some(&(s, d)) = pairs.first() {
        // Warm every scratch buffer before timing.
        black_box(widest_path_in(g, &mut ws, s, d, width));
        black_box(edge_disjoint_widest_paths_in(
            g, &mut ws, s, d, K_PATHS, width,
        ));
        black_box(k_shortest_paths_in(g, &mut ws, s, d, K_PATHS, unit));
        black_box(max_flow_in(g, &mut ws, s, d, capacity));
    }

    let hops: Vec<u32> = t.span("graph.bfs", |_| {
        pairs
            .iter()
            .map(|&(s, d)| bfs_hops(g, s)[d.index()])
            .collect()
    });
    let accel: Vec<Option<f64>> = t.span("graph.sp_accel", |_| {
        pairs
            .iter()
            .map(|&(s, d)| {
                shortest_path_accel_in(g, &mut ws, s, d, unit, AccelBounds::Full).map(|(c, _)| c)
            })
            .collect()
    });
    let widest: Vec<Option<f64>> = t.span("graph.widest", |_| {
        pairs
            .iter()
            .map(|&(s, d)| widest_path_in(g, &mut ws, s, d, width).map(|(w, _)| w))
            .collect()
    });
    let edw: Vec<Option<f64>> = t.span("graph.edw", |_| {
        pairs
            .iter()
            .map(|&(s, d)| {
                edge_disjoint_widest_paths_in(g, &mut ws, s, d, K_PATHS, width)
                    .first()
                    .map(|p| bottleneck(funds, p))
            })
            .collect()
    });
    let eds: usize = t.span("graph.eds", |_| {
        pairs
            .iter()
            .map(|&(s, d)| edge_disjoint_shortest_paths_in(g, &mut ws, s, d, K_PATHS, unit).len())
            .sum()
    });
    let ksp: usize = t.span("graph.ksp", |_| {
        pairs
            .iter()
            .map(|&(s, d)| k_shortest_paths_in(g, &mut ws, s, d, K_PATHS, unit).len())
            .sum()
    });
    let flow: u64 = t.span("graph.maxflow", |_| {
        pairs
            .iter()
            .map(|&(s, d)| max_flow_in(g, &mut ws, s, d, capacity).value)
            .sum()
    });
    black_box((eds, ksp, flow));

    let distance_ok = hops.iter().zip(&accel).all(|(&h, a)| match a {
        Some(c) => h != u32::MAX && f64::from(h) == *c,
        None => h == u32::MAX,
    });
    checks.check(distance_ok, || {
        "goal-directed distance differs from BFS hops".into()
    });
    let width_ok = widest.iter().zip(&edw).all(|(w, e)| match (w, e) {
        (Some(w), Some(e)) => w == e,
        (w, e) => w.is_none() && e.is_none(),
    });
    checks.check(width_ok, || {
        "first edge-disjoint widest path is not a widest path".into()
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{end_to_end, per_layer, valid_metric_name, HostReadings, Metric};
    use pcn_workload::ScenarioParams;

    /// A tiny world, with a small exact-placement stage or (its four
    /// candidates being solved exhaustively by `Auto`) without one.
    fn tiny_spec(exact: bool) -> WorkloadSpec {
        let stage = ExactStage {
            candidates: 4,
            clients: 10,
            milps: 2,
            milp_shape: (2, 6),
        };
        WorkloadSpec::new(ScenarioParams::tiny(), 40, 2, exact.then_some(stage), 8)
    }

    #[test]
    fn passes_of_one_seed_give_equal_digests() {
        for exact in [true, false] {
            let spec = tiny_spec(exact);
            let a = measured_pass(&spec, 5, &mut Tracer::disabled());
            let mut tracer = Tracer::enabled();
            let b = measured_pass(&spec, 5, &mut tracer);
            assert!(a.checks.failures.is_empty(), "{:?}", a.checks.failures);
            assert_eq!(a.digest, b.digest);
            assert_eq!(a.checks.attempted, b.checks.attempted);
            assert!(a.placement.iter().all(|p| p.greedy_cost >= p.exact_cost));
            let totals = tracer.totals();
            assert!(totals.contains_key("routing.engine.splicer"));
            let stage = if exact { "world.exact" } else { "world.greedy" };
            assert_eq!(totals[stage].count, spec.worlds as u64);
            let c = measured_pass(&spec, 6, &mut Tracer::disabled());
            assert_ne!(a.digest, c.digest, "another seed gives other worlds");
        }
    }

    #[test]
    fn probes_cover_every_primitive() {
        let spec = tiny_spec(true);
        let mut tracer = Tracer::enabled();
        let pass = measured_pass(&spec, 3, &mut tracer);
        let mut checks = Checks::default();
        let queries = layer_probes(&spec, 3, &pass.builders, &mut tracer, &mut checks);
        assert!(checks.failures.is_empty(), "{:?}", checks.failures);
        assert_eq!(queries, spec.probe_worlds * spec.queries);
        let totals = tracer.totals();
        for name in [
            "graph.bfs",
            "graph.maxflow",
            "core.vote",
            "routing.plan_replay.a2l",
        ] {
            assert!(totals.contains_key(name), "{name}");
        }
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let spec = tiny_spec(true);
        let untraced = measured_pass(&spec, 2, &mut Tracer::disabled());
        let mut tracer = Tracer::enabled();
        let traced = measured_pass(&spec, 2, &mut tracer);
        let mut checks = Checks::default();
        let queries = layer_probes(&spec, 2, &traced.builders, &mut tracer, &mut checks);
        let e2e = end_to_end(&untraced, 1.0);
        let layer = per_layer(&spec, &traced, &tracer, queries, HostReadings::default());
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let all: Vec<&Metric> = e2e.0.iter().chain(&layer.0).collect();
        assert_eq!(all.len(), json.matches("\"unit\":").count());
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        for m in &all {
            assert!(valid_metric_name(&m.name), "{}", m.name);
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(
                json.contains(&entry),
                "{} ({}) missing from BENCHMARK.json",
                m.name,
                m.unit
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names are unique");
    }
}
