//! `perfbench` — the evolve benchmark: the paper's conventional-vs-
//! equivalent pipeline and the served request, measured end to end
//! (`--trace 0`) and layer by layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1-x4 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Workloads, metrics and the layer map are documented in
//! `perfbench/README.md`. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod paper;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use evolve_obs::Json;

use crate::trace::{SelfTimes, Tracer};

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, value: f64) -> Metric {
        Metric { name, value }
    }
}

/// End-to-end metrics, reported by every untraced run: name and unit.
const END_TO_END: [(&str, &str); 6] = [
    ("equiv_tokens_per_s", "tokens/s"),
    ("conv_tokens_per_s", "tokens/s"),
    ("scenarios_per_s", "1/s"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Layers that spans are named after, in the order self times print.
const LAYERS: [&str; 16] = [
    "bench.scenario",
    "bench.request",
    "bench.check",
    "bench.probe",
    "model.elaborate",
    "core.derive",
    "core.equivalent.build",
    "des",
    "core.equivalent",
    "model.observe",
    "core.engine",
    "core.engine.noobs",
    "explore.cache",
    "core.batch",
    "serve.protocol",
    "serve.daemon",
];

/// Per-layer metrics, reported by every traced run: name and unit. A
/// layer that is not on a workload's path reports 0.
const PER_LAYER: [(&str, &str); 28] = [
    ("des.conv_ns_per_activation", "ns"),
    ("des.conv_activations_per_token", "count"),
    ("des.equiv_activations_per_token", "count"),
    ("des.event_ratio", "ratio"),
    ("core.equivalent.glue_ns_per_token", "ns"),
    ("core.engine.ns_per_iteration", "ns"),
    ("core.engine.noobs_ns_per_iteration", "ns"),
    ("core.engine.nodes_per_iteration", "count"),
    ("core.engine.arcs_per_iteration", "count"),
    ("model.observe.replay_ns_per_record", "ns"),
    ("model.observe.records_per_token", "count"),
    ("model.elaborate_ms", "ms"),
    ("core.derive_ms", "ms"),
    ("core.equivalent.build_ms", "ms"),
    ("paper.speedup", "ratio"),
    ("serve.protocol.encode_request_ns", "ns"),
    ("serve.protocol.decode_request_ns", "ns"),
    ("serve.protocol.encode_response_ns", "ns"),
    ("serve.protocol.decode_response_ns", "ns"),
    ("explore.cache.prepare_us", "us"),
    ("explore.cache.drive_scalar_us", "us"),
    ("core.batch.lane_us", "us"),
    ("serve.wait_p50_us", "us"),
    ("serve.lanes_per_batch", "count"),
    ("serve.batched_share", "fraction"),
    ("serve.delta_attached_share", "fraction"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Tracers of the traced window (empty in an untraced run).
    pub tracers: Vec<Tracer>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    /// A daemon flight-recorder dump taken at the end of a traced serve run.
    pub daemon_dump: Option<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be within 1..=60".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Host and run details every output carries.
fn stamp(args: &Args) -> Vec<(&'static str, String)> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let simd = if std::is_x86_feature_detected!("avx2") {
        "avx2"
    } else {
        "no-avx2"
    };
    #[cfg(not(target_arch = "x86_64"))]
    let simd = "portable";
    vec![
        ("cores", cores.to_string()),
        ("simd", simd.to_string()),
        ("profile", env!("PERFBENCH_PROFILE").to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("commit", git_commit()),
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ]
}

/// The checkout's commit, read from `.git` without running git; a tree
/// exported without `.git` reads as `unknown`.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => {
                read(&format!(".git/{reference}")).unwrap_or_else(|| "unknown".into())
            }
            None => head,
        },
        None => "unknown".into(),
    }
}

/// High-water resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Self time of every layer and the uncovered residual, as shares of the
/// traced window.
fn self_time_metrics(tracers: &[Tracer]) -> (Vec<(String, f64)>, f64) {
    let refs: Vec<&Tracer> = tracers.iter().collect();
    let times = SelfTimes::of(&refs);
    let window = times.window_ns.max(1) as f64;
    let shares = LAYERS
        .iter()
        .map(|l| {
            (
                format!("self_pct.{l}"),
                times.by_layer.get(l).copied().unwrap_or(0) as f64 / window * 100.0,
            )
        })
        .collect();
    (shares, times.residual_ns as f64 / window * 100.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let stamp = stamp(&args);
    let Some(outcome) = workloads::run(&args.workload, args.seed, args.seconds, args.trace) else {
        eprintln!(
            "perfbench: unknown workload {:?}; known: {}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };

    println!(
        "# {}",
        stamp
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    let mut values: Vec<(String, f64, &str)> = Vec::new();
    let find = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    };
    if args.trace {
        for (name, unit) in PER_LAYER {
            values.push((name.to_string(), find(name).unwrap_or(0.0), unit));
        }
        let (shares, residual) = self_time_metrics(&outcome.tracers);
        for (name, share) in shares {
            values.push((name, share, "%"));
        }
        values.push(("trace.residual_pct".into(), residual, "%"));
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let base = args.workload.clone();
        let refs: Vec<&Tracer> = outcome.tracers.iter().collect();
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| {
                std::fs::write(
                    dir.join(format!("{base}.spans.json")),
                    trace::chrome_trace(&refs, &stamp),
                )
            })
            .and_then(|()| match &outcome.daemon_dump {
                Some(dump) => std::fs::write(dir.join(format!("{base}.daemon.json")), dump),
                None => Ok(()),
            });
        match written {
            Ok(()) => println!(
                "spans: {} recorded, at most {} written to {}",
                refs.iter().map(|t| t.spans().len()).sum::<usize>(),
                trace::FILE_SPANS,
                dir.join(format!("{base}.spans.json")).display()
            ),
            Err(e) => {
                eprintln!("perfbench: writing the span file failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = if name == "peak_rss_mb" {
                peak_rss_mb()
            } else {
                find(name).unwrap_or(f64::NAN)
            };
            values.push((name.to_string(), value, unit));
        }
    }
    for (name, value, unit) in &values {
        // Small times (set-up in seconds) keep their significant digits.
        if *value != 0.0 && value.abs() < 0.01 {
            println!("{name:<40} {value:>18.6e} {unit}");
        } else {
            println!("{name:<40} {value:>18.6} {unit}");
        }
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "attempted {} failed {} failed_frac {failed_frac:.6}",
        outcome.attempted, outcome.failed
    );
    // A metric that could not be measured (no samples) is not a result.
    let measured = values.iter().all(|(_, value, _)| value.is_finite());
    if !measured {
        eprintln!("perfbench: a metric could not be measured");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0 && measured;
    let result = Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(outcome.attempted)),
        ("failed", Json::U64(outcome.failed)),
        (
            "metrics",
            Json::Object(
                values
                    .into_iter()
                    .map(|(name, value, unit)| {
                        (
                            name,
                            Json::object([("value", Json::F64(value)), ("unit", Json::str(unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
