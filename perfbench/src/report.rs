//! Metric lists, operation checks, the semantic digest and the result
//! line.

use pcn_routing::RunStats;

use crate::host::Calibration;
use crate::pass::PassResult;
use crate::trace::Tracer;
use crate::{WorkloadSpec, SCHEMES};

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// An ordered metric list.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The end-to-end metrics of an untraced pass, in `BENCHMARK.json`
/// order.
pub fn end_to_end(pass: &PassResult, peak_rss_mib: f64) -> Metrics {
    let merged: Vec<RunStats> = (0..SCHEMES.len()).map(|i| pass.merged(i)).collect();
    let payments: u64 = merged.iter().map(|s| s.generated).sum();
    let run_s: f64 = (0..SCHEMES.len()).map(|i| pass.run_s(i)).sum();
    let splicer = &merged[0];
    let best_baseline = merged[1..]
        .iter()
        .map(RunStats::normalized_throughput)
        .fold(0.0, f64::max);
    let exact_cost: f64 = pass.placement.iter().map(|p| p.exact_cost).sum();
    let greedy_cost: f64 = pass.placement.iter().map(|p| p.greedy_cost).sum();

    let mut m = Metrics::default();
    m.push("wall_s", pass.wall_s, "s");
    m.push("setup_s", pass.setup_s.iter().sum(), "s");
    m.push("pps", payments as f64 / run_s, "1/s");
    m.push(
        "pps.splicer",
        splicer.generated as f64 / pass.run_s(0),
        "1/s",
    );
    m.push("peak_rss_mib", peak_rss_mib, "MiB");
    m.push("tsr.splicer", splicer.tsr(), "ratio");
    m.push(
        "throughput.splicer",
        splicer.normalized_throughput(),
        "ratio",
    );
    m.push(
        "splicer_gain",
        splicer.normalized_throughput() / best_baseline,
        "ratio",
    );
    m.push(
        "place_s",
        pass.placement.iter().map(|p| p.solve_s).sum(),
        "s",
    );
    m.push("place_gap", greedy_cost / exact_cost, "ratio");
    m
}

/// Host-noise readings over a whole run.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostReadings {
    /// Calibration kernels at the start of the run.
    pub calib_start: Calibration,
    /// Calibration kernels at the end of the run.
    pub calib_end: Calibration,
    /// Share of host CPU time stolen during the run.
    pub steal_frac: f64,
    /// Seconds the main thread waited on a run queue.
    pub rq_wait_s: f64,
    /// Seconds one span's bookkeeping costs the tracer on this host.
    pub span_cost_s: f64,
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
///
/// Timings are span self times from `tracer`, which holds the traced
/// pass and the layer probes (`graph_queries` queries per primitive);
/// counts come from the traced pass's statistics.
pub fn per_layer(
    spec: &WorkloadSpec,
    traced: &PassResult,
    tracer: &Tracer,
    graph_queries: usize,
    host: HostReadings,
) -> Metrics {
    let totals = tracer.totals();
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_s);
    let per_query_us = |name: &str| self_s(name) * 1e6 / graph_queries.max(1) as f64;
    let merged: Vec<RunStats> = (0..SCHEMES.len()).map(|i| traced.merged(i)).collect();
    let worlds = traced.runs.len();

    let mut m = Metrics::default();
    m.push("workload.build_s", self_s("workload.build"), "s");
    m.push(
        "workload.payments",
        (spec.payments * worlds) as f64,
        "count",
    );
    for stage in ["instance", "exhaustive", "milp", "greedy"] {
        m.push(
            format!("placement.{stage}_s"),
            self_s(&format!("placement.{stage}")),
            "s",
        );
    }
    let hubs: usize = traced.hubs.iter().sum();
    m.push(
        "placement.hubs",
        hubs as f64 / traced.hubs.len().max(1) as f64,
        "count",
    );
    m.push("core.vote_s", self_s("core.vote"), "s");
    for name in SCHEMES {
        m.push(
            format!("core.assemble_s.{name}"),
            self_s(&format!("core.build.{name}")),
            "s",
        );
    }
    for prim in ["bfs", "widest", "edw", "eds", "sp_accel", "ksp", "maxflow"] {
        m.push(
            format!("graph.{prim}_us"),
            per_query_us(&format!("graph.{prim}")),
            "us",
        );
    }
    for name in SCHEMES {
        m.push(
            format!("routing.plan_replay_s.{name}"),
            self_s(&format!("routing.plan_replay.{name}")),
            "s",
        );
    }
    for (name, s) in SCHEMES.iter().zip(&merged) {
        m.push(
            format!("routing.nodes_settled.{name}"),
            s.nodes_settled as f64,
            "count",
        );
    }
    for (name, s) in SCHEMES.iter().zip(&merged) {
        let c = &s.path_cache;
        m.push(
            format!("routing.cache.hit_rate.{name}"),
            c.hit_rate(),
            "ratio",
        );
        m.push(
            format!("routing.cache.misses.{name}"),
            c.misses as f64,
            "count",
        );
        m.push(
            format!("routing.cache.inv_topology.{name}"),
            c.inv_topology as f64,
            "count",
        );
        m.push(
            format!("routing.cache.inv_footprint.{name}"),
            c.inv_footprint as f64,
            "count",
        );
        m.push(
            format!("routing.cache.evictions.{name}"),
            c.evictions as f64,
            "count",
        );
    }
    for (name, s) in SCHEMES.iter().zip(&merged) {
        let engine_s = self_s(&format!("routing.engine.{name}"));
        let tus = s.delivered_tus + s.aborted_tus;
        m.push(format!("routing.engine_s.{name}"), engine_s, "s");
        m.push(format!("routing.tus.{name}"), tus as f64, "count");
        m.push(
            format!("routing.host_us_per_tu.{name}"),
            engine_s * 1e6 / tus.max(1) as f64,
            "us",
        );
    }
    let sum = |f: fn(&RunStats) -> u64| merged.iter().map(f).sum::<u64>() as f64;
    m.push(
        "routing.world_events",
        sum(|s| s.world_events_applied),
        "count",
    );
    m.push(
        "routing.tus_expired_by_close",
        sum(|s| s.tus_expired_by_close),
        "count",
    );
    m.push("graph.compactions", sum(|s| s.graph_compactions), "count");
    m.push(
        "host.calib_s",
        0.5 * (host.calib_start.alu_s + host.calib_end.alu_s),
        "s",
    );
    m.push(
        "host.calib_cache_s",
        0.5 * (host.calib_start.cache_s + host.calib_end.cache_s),
        "s",
    );
    m.push("host.steal_frac", host.steal_frac, "ratio");
    m.push("host.rq_wait_s", host.rq_wait_s, "s");
    m.push(
        "trace.overhead_frac",
        host.span_cost_s * tracer.spans().len() as f64 / tracer.traced_s(),
        "ratio",
    );
    m
}

/// Whether a metric name is made of letters, digits, `_`, `.` and `-`
/// and starts with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Operations attempted and the checks they failed.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Operations attempted: scheme runs, solver calls, probe batches.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation, failed with `msg` unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(msg());
        }
    }

    /// Folds another set of checks into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// FNV-1a over a run's semantic statistics: everything except the wall
/// clock, the cache counters and the planner counters. Equal digests
/// mean every simulated statistic of every run is unchanged.
pub fn fold_digest(digest: u64, stats: &RunStats) -> u64 {
    let semantic = stats.without_cache_counters().without_planner_counters();
    format!("{semantic:?}").bytes().fold(digest, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest's starting value (the FNV-1a offset basis).
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The result line: one JSON object, metric values with every digit.
pub fn result_json(correct: bool, checks: &Checks, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failures.len(),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        assert!(valid_metric_name("routing.cache.hit_rate.a2l"));
        assert!(valid_metric_name("pps.splicer"));
        assert!(!valid_metric_name(".x"));
        assert!(!valid_metric_name("a b"));
        assert!(!valid_metric_name(""));
    }

    #[test]
    fn digest_ignores_wall_clock_and_cache_counters() {
        let mut a = RunStats {
            generated: 3,
            ..RunStats::default()
        };
        let mut b = a.clone();
        a.wall_secs = 1.0;
        b.wall_secs = 2.0;
        b.path_cache.hits = 9;
        b.nodes_settled = 4;
        assert_eq!(fold_digest(DIGEST_SEED, &a), fold_digest(DIGEST_SEED, &b));
        b.completed = 1;
        assert_ne!(fold_digest(DIGEST_SEED, &a), fold_digest(DIGEST_SEED, &b));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.push("wall_s", 1.25, "s");
        let checks = Checks {
            attempted: 2,
            failures: Vec::new(),
        };
        assert_eq!(
            result_json(true, &checks, &m),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
