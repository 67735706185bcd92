//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints a human-readable report followed by one
//! JSON result line. `--trace 0` reports the end-to-end metrics of an
//! untraced pass; `--trace 1` runs the untraced pass, a traced pass of
//! the same worlds and the layer probes, and reports the per-layer
//! metrics, writing every span to `perfbench/out/`. Exits 1 when any
//! output check failed, 2 on bad arguments.

use std::path::Path;
use std::process::ExitCode;

use perfbench::host::{self, HostSnapshot};
use perfbench::pass::{layer_probes, measured_pass, PassResult};
use perfbench::report::{end_to_end, per_layer, result_json, HostReadings, Metrics};
use perfbench::trace::{self, Tracer};
use perfbench::Workload;

/// Empty spans timed to measure the tracer's own cost per span.
const SPAN_COST_SAMPLES: usize = 10_000;

const USAGE: &str = "usage: perfbench --workload <fig8_uniform|hotspot_saturated|hotspot_churn> \
[--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 20, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = args.workload.spec(args.seconds);
    println!(
        "meta workload={} seed={} seconds={} trace={} worlds={} payments_per_world={} \
         available_parallelism={} rustc=\"{}\" commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.worlds,
        spec.payments,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
    );

    let calib_start = host::calibrate();
    let before = HostSnapshot::now();
    let mut untraced = measured_pass(&spec, args.seed, &mut Tracer::disabled());
    let mut checks = untraced.checks.clone();
    let mut tracer = Tracer::enabled();
    let traced = args.trace.then(|| {
        untraced.builders.clear();
        let traced = tracer.span("pass", |t| measured_pass(&spec, args.seed, t));
        checks.absorb(traced.checks.clone());
        checks.check(traced.digest == untraced.digest, || {
            format!(
                "traced digest {:016x} differs from untraced {:016x}",
                traced.digest, untraced.digest
            )
        });
        let queries = tracer.span("probes", |t| {
            layer_probes(&spec, args.seed, &traced.builders, t, &mut checks)
        });
        (traced, queries)
    });
    let after = HostSnapshot::now();
    // Read before the end calibration, whose chase buffer is not the
    // program's memory.
    let peak_rss_mib = host::peak_rss_mib();
    let readings = HostReadings {
        calib_start,
        calib_end: host::calibrate(),
        steal_frac: after.steal_frac_since(&before),
        rq_wait_s: after.rq_wait_s_since(&before),
        span_cost_s: if args.trace {
            trace::span_cost_s(SPAN_COST_SAMPLES)
        } else {
            0.0
        },
    };

    let metrics = match &traced {
        Some((traced, queries)) => {
            write_spans(&tracer, args.workload.name(), args.seed);
            print_span_totals(&tracer);
            print_shares(&tracer, traced);
            // Host drift between the two passes, not the tracer's cost.
            println!("host traced_wall_ratio={}", traced.wall_s / untraced.wall_s);
            per_layer(&spec, traced, &tracer, *queries, readings)
        }
        None => end_to_end(&untraced, peak_rss_mib),
    };
    println!(
        "host calib_alu_s={}/{} calib_cache_s={}/{} (start/end) steal_frac={} rq_wait_s={} \
         peak_rss_mib={peak_rss_mib}",
        readings.calib_start.alu_s,
        readings.calib_end.alu_s,
        readings.calib_start.cache_s,
        readings.calib_end.cache_s,
        readings.steal_frac,
        readings.rq_wait_s,
    );
    println!("digest {} {:016x}", args.workload.name(), untraced.digest);
    println!("setup_samples_s {:?}", untraced.setup_s);
    print_metrics(&metrics);
    for failure in &checks.failures {
        println!("FAILED {failure}");
    }
    let finite = metrics.0.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("FAILED a metric is not a finite number");
    }
    let correct = checks.failures.is_empty() && finite;
    println!("{}", result_json(correct, &checks, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_metrics(metrics: &Metrics) {
    for m in &metrics.0 {
        println!("metric {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

fn print_span_totals(tracer: &Tracer) {
    for (name, t) in tracer.totals() {
        println!(
            "span {name:<32} count={:<6} total_s={:.6} self_s={:.6}",
            t.count, t.total_s, t.self_s
        );
    }
}

/// Prints what share of the traced pass's wall time went to set-up (and
/// within it to `build_splicer`, whose cost is Splicer's placement), the
/// scheme runs and the placement stage.
fn print_shares(tracer: &Tracer, traced: &PassResult) {
    let totals = tracer.totals();
    let total_s = |prefix: &str| -> f64 {
        totals
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| t.total_s)
            .sum()
    };
    let setup = total_s("world.setup");
    let splicer_build = total_s("core.build.splicer");
    let engine = total_s("routing.engine.");
    let placement = total_s("world.exact") + total_s("world.greedy");
    let share = |s: f64| s / traced.wall_s;
    println!(
        "shares setup={:.3} (build_splicer={:.3}) engine={:.3} placement_stage={:.3} \
         other={:.3} (of the traced pass, {:.2} s)",
        share(setup),
        share(splicer_build),
        share(engine),
        share(placement),
        1.0 - share(setup + engine + placement),
        traced.wall_s
    );
}

/// Writes every span to `perfbench/out/trace-<workload>-seed<seed>.jsonl`.
/// A write failure is reported but does not fail the run.
fn write_spans(tracer: &Tracer, workload: &str, seed: u64) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}-seed{seed}.jsonl"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| tracer.write_jsonl(std::io::BufWriter::new(f)));
    match written {
        Ok(()) => println!(
            "spans {} written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
