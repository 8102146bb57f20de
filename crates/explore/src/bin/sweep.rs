//! Parallel scenario-sweep driver.
//!
//! Runs a batch of scenarios twice — once on a worker pool, once
//! sequentially — verifies the outcomes are bitwise identical, and writes a
//! JSON report (including the parallel-over-sequential wall-clock speed-up)
//! to `results/sweep.json`.
//!
//! ```text
//! cargo run --release -p evolve-explore --bin sweep -- --threads 4
//! ```
//!
//! Options: `--threads N` (worker count, default: host parallelism),
//! `--scenarios N` (batch size, default 32), `--tokens N` (trace length,
//! default 200), `--batch N` (lockstep lanes per `BatchedEngine`, default
//! 8; `1` disables batching), `--no-fast-forward` (disable periodic
//! steady-state fast-forward, for A/B timing runs), `--compare` (also run
//! the conventional DES model per scenario), `--out PATH` (report path,
//! default `results/sweep.json`), `--metrics PATH` (enable per-resource
//! telemetry and write a metrics snapshot — Prometheus text exposition, or
//! JSON when the path ends in `.json`), `--trace PATH` (re-run the first
//! grid scenario, build a trace collector from its records and write a
//! Chrome trace-event file loadable in Perfetto).

use std::path::PathBuf;

use evolve_explore::{
    default_grid, host_json, run_sweep, trace_scenario, FastForward, Json, SweepConfig,
    SweepReport,
};

struct Options {
    threads: usize,
    scenarios: u64,
    tokens: u64,
    batch: usize,
    fast_forward: FastForward,
    compare: bool,
    out: PathBuf,
    metrics: Option<PathBuf>,
    trace: Option<PathBuf>,
}

const USAGE: &str = "usage: sweep [--threads N] [--scenarios N] [--tokens N] [--batch N] [--no-fast-forward] [--compare] [--out PATH] [--metrics PATH] [--trace PATH]";

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut options = Options {
        threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        scenarios: 32,
        tokens: 200,
        batch: 8,
        fast_forward: FastForward::On,
        compare: false,
        out: PathBuf::from("results/sweep.json"),
        metrics: None,
        trace: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{name} requires a value")))
        };
        let parsed = |name: &str, raw: String| {
            raw.parse()
                .unwrap_or_else(|_| usage_error(&format!("{name} expects a number, got `{raw}`")))
        };
        match arg.as_str() {
            "--threads" => options.threads = parsed("--threads", value("--threads")) as usize,
            "--scenarios" => options.scenarios = parsed("--scenarios", value("--scenarios")),
            "--tokens" => options.tokens = parsed("--tokens", value("--tokens")),
            "--batch" => {
                options.batch = parsed("--batch", value("--batch")) as usize;
                if options.batch == 0 {
                    usage_error("--batch expects a width >= 1");
                }
            }
            "--no-fast-forward" => options.fast_forward = FastForward::Off,
            "--compare" => options.compare = true,
            "--out" => options.out = PathBuf::from(value("--out")),
            "--metrics" => options.metrics = Some(PathBuf::from(value("--metrics"))),
            "--trace" => options.trace = Some(PathBuf::from(value("--trace"))),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown option {other}")),
        }
    }
    options
}

fn parallel_speedup(parallel: &SweepReport, sequential: &SweepReport) -> f64 {
    sequential.wall.as_secs_f64() / parallel.wall.as_secs_f64().max(1e-12)
}

fn batch_speedup(batched: &SweepReport, unbatched: &SweepReport) -> f64 {
    batched.scenarios_per_second() / unbatched.scenarios_per_second().max(1e-12)
}

/// The `sweep.json` document: the host stamp, the run comparison, and the
/// parallel run's report.
fn document(
    options: &Options,
    parallel: &SweepReport,
    sequential: &SweepReport,
    unbatched: Option<&SweepReport>,
    identical: bool,
) -> Json {
    let mut fields = vec![
        ("host", host_json()),
        ("threads", Json::U64(parallel.threads as u64)),
        ("scenario_count", Json::U64(parallel.scenarios.len() as u64)),
        ("tokens_per_scenario", Json::U64(options.tokens)),
        ("batch_width", Json::U64(options.batch as u64)),
        ("parallel_wall_ns", Json::U64(parallel.wall.as_nanos() as u64)),
        ("sequential_wall_ns", Json::U64(sequential.wall.as_nanos() as u64)),
        ("parallel_speedup", Json::F64(parallel_speedup(parallel, sequential))),
        ("scenarios_per_second", Json::F64(parallel.scenarios_per_second())),
        ("outcomes_identical", Json::Bool(identical)),
    ];
    if let Some(u) = unbatched {
        fields.push(("unbatched_wall_ns", Json::U64(u.wall.as_nanos() as u64)));
        fields.push((
            "unbatched_scenarios_per_second",
            Json::F64(u.scenarios_per_second()),
        ));
        fields.push(("batch_speedup", Json::F64(batch_speedup(parallel, u))));
    }
    fields.push(("report", parallel.to_json()));
    Json::object(fields)
}

fn main() {
    let options = parse_args();
    let scenarios = default_grid(options.scenarios, options.tokens);
    eprintln!(
        "sweeping {} scenarios × {} tokens on {} threads, batch width {}",
        scenarios.len(),
        options.tokens,
        options.threads,
        options.batch,
    );

    let parallel = run_sweep(
        &scenarios,
        &SweepConfig {
            threads: options.threads,
            compare_conventional: options.compare,
            batch_width: options.batch,
            fast_forward: options.fast_forward,
            telemetry: options.metrics.is_some(),
            ..SweepConfig::default()
        },
    );
    let sequential = run_sweep(
        &scenarios,
        &SweepConfig {
            threads: 1,
            compare_conventional: options.compare,
            batch_width: options.batch,
            fast_forward: options.fast_forward,
            ..SweepConfig::default()
        },
    );
    // Batching headline: the same parallel sweep with lockstep lanes
    // disabled, so the report carries a scenarios/second comparison.
    let unbatched = (options.batch > 1).then(|| {
        run_sweep(
            &scenarios,
            &SweepConfig {
                threads: options.threads,
                compare_conventional: options.compare,
                batch_width: 1,
                fast_forward: options.fast_forward,
                    ..SweepConfig::default()
            },
        )
    });

    let mut identical = true;
    for (p, s) in parallel.scenarios.iter().zip(&sequential.scenarios) {
        if p.outcome != s.outcome {
            identical = false;
            eprintln!("MISMATCH: scenario {} differs between thread counts", p.label);
        }
    }
    let speedup = parallel_speedup(&parallel, &sequential);
    eprintln!(
        "parallel {:.3} ms, sequential {:.3} ms — speed-up {:.2}×, outcomes {}",
        parallel.wall.as_secs_f64() * 1e3,
        sequential.wall.as_secs_f64() * 1e3,
        speedup,
        if identical { "bitwise identical" } else { "DIVERGED" },
    );
    if let Some(u) = &unbatched {
        eprintln!(
            "batched {:.0} scenarios/s vs unbatched {:.0} scenarios/s — {:.2}× (lanes batched: {})",
            parallel.scenarios_per_second(),
            u.scenarios_per_second(),
            batch_speedup(&parallel, u),
            parallel.batching.lanes_batched,
        );
    }
    let ff = parallel.total_fast_forward_stats();
    eprintln!(
        "fast-forward: {} promotions, {} demotions, {} iterations replayed",
        ff.promotions, ff.demotions, ff.fast_forwarded_iterations,
    );

    let doc = document(&options, &parallel, &sequential, unbatched.as_ref(), identical);
    if let Some(parent) = options.out.parent() {
        std::fs::create_dir_all(parent).expect("create results directory");
    }
    std::fs::write(&options.out, doc.render()).expect("write report");
    eprintln!("wrote {}", options.out.display());

    if let Some(path) = &options.metrics {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create metrics directory");
        }
        parallel.write_metrics(path).expect("write metrics");
        eprintln!("wrote {}", path.display());
    }
    if let Some(path) = &options.trace {
        // Re-run the first grid scenario (a saturating, fixed-size trace the
        // fast-forward detector promotes) and write its observation-time
        // resource activity plus the host-time drive span as a Chrome
        // trace-event file.
        let (result, collector) = trace_scenario(
            &scenarios[0],
            &SweepConfig {
                batch_width: 1,
                fast_forward: options.fast_forward,
                ..SweepConfig::default()
            },
        );
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create trace directory");
        }
        std::fs::write(path, collector.to_chrome_trace().render()).expect("write trace");
        eprintln!(
            "wrote {} ({} tracks from scenario {})",
            path.display(),
            collector.tracks().count(),
            result.label,
        );
    }
    assert!(identical, "parallel sweep diverged from the sequential path");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_carries_the_host_stamp_and_the_report() {
        let options = Options {
            threads: 1,
            scenarios: 2,
            tokens: 5,
            batch: 2,
            fast_forward: FastForward::On,
            compare: false,
            out: PathBuf::from("unused.json"),
            metrics: None,
            trace: None,
        };
        let config = SweepConfig {
            threads: 1,
            batch_width: options.batch,
            ..SweepConfig::default()
        };
        let scenarios = default_grid(options.scenarios, options.tokens);
        let report = run_sweep(&scenarios, &config);
        let rendered = document(&options, &report, &report, Some(&report), true).render();
        assert!(evolve_explore::json::parses(&rendered), "{rendered}");
        let host = format!("{{\"host\":{},\"threads\":1,", host_json().render());
        assert!(rendered.starts_with(&host), "{rendered}");
        assert!(rendered.contains("\"batch_speedup\":"), "{rendered}");
        assert!(rendered.contains("\"report\":{\"threads\":1,"), "{rendered}");
    }
}
