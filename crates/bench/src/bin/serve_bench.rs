//! `serve-bench` — closed-loop many-client load driver for the `evolved`
//! evaluation daemon.
//!
//! Spawns N client threads, each pipelining one request at a time against
//! the daemon (closed loop: send, wait for the answer, send again), all
//! asking for the *same* `ModelSpec` so the affinity batcher can fill
//! lockstep lanes. The run has two phases measured back to back in the
//! same process:
//!
//! 1. **affinity** — the daemon under test (an external one via
//!    `--connect`, else an in-process server with default batching
//!    configuration);
//! 2. **naive** — an in-process server in `naive` mode: one fresh engine
//!    per request, no batching, no caches — the per-request-engine
//!    baseline a service without affinity batching would run.
//!
//! The headline number is the *within-run ratio* of sustained
//! scenarios/second between the two phases (absolute throughput on a
//! shared host drifts; the ratio isolates the serving strategy). Full
//! runs gate on ratio ≥ 2 and publish `results/bench_serve.json`;
//! `--quick` gates on ratio > 1 plus lanes-per-batch > 1 and is what
//! `ci.sh` drives against a real `evolved` process. The report carries a
//! `host` object (cores, SIMD level, build profile).

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use evolve_bench::host_json;
use evolve_core::EvalBackend;
use evolve_explore::json::Json;
use evolve_explore::{ModelKind, ModelSpec, TraceSpec};
use evolve_serve::{
    Bind, EvalRequest, ModelRef, Request, Response, ServeClient, ServeConfig, Server, TracePayload,
};

const USAGE: &str = "\
serve-bench — closed-loop load driver for the evolved evaluation daemon

USAGE:
    serve-bench [OPTIONS]

OPTIONS:
    --quick              smoke mode: short phases, relaxed ratio gate (> 1x)
    --connect TARGET     drive an external daemon (tcp:HOST:PORT or unix:PATH)
                         for the affinity phase instead of an in-process one
    --metrics ADDR       HOST:PORT of the daemon's /metrics listener to check
                         (implied for the in-process server)
    --dump-trace PATH    after phase 1, request a flight-recorder Dump from
                         the live daemon, validate it (JSON parses, >= 1 span
                         per serve phase), and write it to PATH
    --clients N          closed-loop client threads per phase [16; 8 in quick]
    --duration-ms N      measured duration per phase [2500; 400 in quick]
    --out PATH           report path [results/bench_serve.json;
                         results/bench_serve_smoke.json in quick]
    -h, --help           print this help
";

/// The shared affinity workload: every client asks for this spec, so one
/// affinity group forms per shard and lanes fill to the SIMD chunk width.
fn workload_spec() -> ModelSpec {
    ModelSpec {
        kind: ModelKind::Pipeline {
            stages: 8,
            base: 60,
            per_unit: 1,
        },
        padding: 64,
        backend: EvalBackend::Compiled,
    }
}

const TOKENS_PER_REQUEST: u64 = 24;

fn request(id: u64, spec: &ModelSpec) -> Request {
    Request::Eval(EvalRequest {
        id,
        model: ModelRef::Inline(spec.clone()),
        trace: TracePayload::Generated(TraceSpec {
            tokens: TOKENS_PER_REQUEST,
            min_size: 1,
            max_size: 64,
            mean_period: 300,
            seed: id.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }),
    })
}

#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    responses: u64,
    busy: u64,
    batched: u64,
    lanes: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.responses += other.responses;
        self.busy += other.busy;
        self.batched += other.batched;
        self.lanes += other.lanes;
    }

    fn lanes_per_batched_response(&self) -> f64 {
        if self.batched == 0 {
            0.0
        } else {
            self.lanes as f64 / self.batched as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Phase {
    tally: Tally,
    wall: Duration,
}

impl Phase {
    fn scenarios_per_second(&self) -> f64 {
        self.tally.responses as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn to_json(self) -> Json {
        Json::object([
            ("responses", Json::U64(self.tally.responses)),
            ("busy", Json::U64(self.tally.busy)),
            ("batched_responses", Json::U64(self.tally.batched)),
            (
                "lanes_per_batch",
                Json::F64(self.tally.lanes_per_batched_response()),
            ),
            ("wall_ms", Json::F64(self.wall.as_secs_f64() * 1e3)),
            (
                "scenarios_per_second",
                Json::F64(self.scenarios_per_second()),
            ),
        ])
    }
}

/// Runs `clients` closed-loop threads against `target` for `duration`,
/// then stops them at the next response boundary and folds the tallies.
/// The wall clock covers spawn-to-join so the scenarios/second figure is
/// sustained throughput, not a burst measurement.
fn drive_clients(target: &str, spec: &ModelSpec, clients: usize, duration: Duration) -> Phase {
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let joins: Vec<_> = (0..clients)
        .map(|c| {
            let target = target.to_string();
            let spec = spec.clone();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut client = ServeClient::connect(&target).expect("serve-bench connect");
                let mut tally = Tally::default();
                let mut seq = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let id = ((c as u64) << 32) | seq;
                    seq += 1;
                    match client.call(&request(id, &spec)) {
                        Ok(Response::EvalOk(ok)) => {
                            assert_eq!(ok.id, id, "response for the wrong request");
                            tally.responses += 1;
                            if ok.batched {
                                tally.batched += 1;
                                tally.lanes += u64::from(ok.lanes_in_batch);
                            }
                        }
                        Ok(Response::Busy { .. }) => tally.busy += 1,
                        Ok(other) => panic!("unexpected response: {other:?}"),
                        Err(err) => panic!("client error: {err}"),
                    }
                }
                tally
            })
        })
        .collect();
    thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let mut tally = Tally::default();
    for join in joins {
        tally.add(join.join().expect("client thread"));
    }
    Phase {
        tally,
        wall: start.elapsed(),
    }
}

fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

struct Options {
    quick: bool,
    connect: Option<String>,
    metrics: Option<String>,
    dump_trace: Option<String>,
    clients: usize,
    duration: Duration,
    out: String,
}

fn parse_args() -> Result<Options, String> {
    let mut quick = false;
    let mut connect = None;
    let mut metrics = None;
    let mut dump_trace = None;
    let mut clients = None;
    let mut duration_ms = None;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--quick" => quick = true,
            "--connect" => connect = Some(value("--connect")?),
            "--metrics" => metrics = Some(value("--metrics")?),
            "--dump-trace" => dump_trace = Some(value("--dump-trace")?),
            "--clients" => {
                clients = Some(
                    value("--clients")?
                        .parse::<usize>()
                        .map_err(|e| format!("--clients: {e}"))?,
                );
            }
            "--duration-ms" => {
                duration_ms = Some(
                    value("--duration-ms")?
                        .parse::<u64>()
                        .map_err(|e| format!("--duration-ms: {e}"))?,
                );
            }
            "--out" => out = Some(value("--out")?),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Options {
        quick,
        connect,
        metrics,
        dump_trace,
        clients: clients.unwrap_or(if quick { 8 } else { 16 }),
        duration: Duration::from_millis(duration_ms.unwrap_or(if quick { 400 } else { 2500 })),
        out: out.unwrap_or_else(|| {
            if quick {
                "results/bench_serve_smoke.json".into()
            } else {
                "results/bench_serve.json".into()
            }
        }),
    })
}

fn write_report(path: &str, doc: &Json) {
    let path = Path::new(path);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("results directory");
    }
    let mut body = doc.render();
    body.push('\n');
    std::fs::write(path, body).expect("report written");
    println!("serve report written to {}", path.display());
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("serve-bench: {err}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let spec = workload_spec();

    // Phase 1: the daemon under test — external if --connect was given,
    // else an in-process server (default batching configuration).
    let mut local = None;
    let mut metrics = opts.metrics.clone();
    let affinity_target = match &opts.connect {
        Some(target) => target.clone(),
        None => {
            let server = Server::start(
                ServeConfig::default(),
                &[Bind::Tcp("127.0.0.1:0".into())],
                Some("127.0.0.1:0"),
            )
            .expect("in-process phase-1 server");
            let target = format!("tcp:{}", server.tcp_addr().expect("tcp bound"));
            if metrics.is_none() {
                metrics = server.metrics_addr().map(|a| a.to_string());
            }
            local = Some(server);
            target
        }
    };
    println!(
        "affinity phase: {} clients x {} ms against {affinity_target}",
        opts.clients,
        opts.duration.as_millis()
    );
    let affinity = drive_clients(&affinity_target, &spec, opts.clients, opts.duration);

    // Flight-recorder dump from the still-live phase-1 daemon: the trace
    // must be valid JSON and must contain at least one span for every
    // serve lifecycle phase before it is written out.
    if let Some(path) = &opts.dump_trace {
        let mut client = ServeClient::connect(&affinity_target).expect("dump-trace connect");
        let json = match client.call(&Request::Dump) {
            Ok(Response::Trace { json }) => json,
            Ok(other) => panic!("Dump answered with {other:?}"),
            Err(err) => panic!("Dump failed: {err}"),
        };
        assert!(
            evolve_obs::json::parses(&json),
            "flight-recorder dump is not valid JSON"
        );
        for phase in ["decode", "queue_wait", "batch_form", "eval", "encode", "write"] {
            assert!(
                json.contains(&format!("\"name\":\"{phase}\"")),
                "trace dump has no {phase:?} span"
            );
        }
        if let Some(parent) = Path::new(path.as_str()).parent() {
            std::fs::create_dir_all(parent).expect("trace directory");
        }
        std::fs::write(path, &json).expect("trace written");
        println!("flight-recorder trace ({} bytes) written to {path}", json.len());
    }

    // Scrape /metrics while the affinity daemon is still alive.
    let metrics_ok = match &metrics {
        Some(addr) => {
            let body = http_get(addr, "/metrics").expect("metrics listener reachable");
            let parses = body.contains("evolve_serve_requests_total")
                && body.contains("evolve_serve_rejected_total")
                && body.contains("# TYPE evolve_serve_requests_total counter");
            println!(
                "metrics scrape from {addr}: {}",
                if parses { "ok" } else { "MISSING FAMILIES" }
            );
            Some(parses)
        }
        None => {
            println!("metrics scrape skipped (no --metrics and external daemon)");
            None
        }
    };
    if let Some(server) = local.take() {
        server.shutdown_and_join();
    }

    // Phase 2: the baseline, always in-process so the ratio is measured
    // within this run on this host — naive per-request engines.
    let naive_server = Server::start(
        ServeConfig {
            naive: true,
            ..ServeConfig::default()
        },
        &[Bind::Tcp("127.0.0.1:0".into())],
        None,
    )
    .expect("in-process phase-2 server");
    let naive_target = format!("tcp:{}", naive_server.tcp_addr().expect("tcp bound"));
    println!(
        "naive phase:    {} clients x {} ms against {naive_target}",
        opts.clients,
        opts.duration.as_millis()
    );
    let naive = drive_clients(&naive_target, &spec, opts.clients, opts.duration);
    naive_server.shutdown_and_join();

    // Recorder overhead: two long-lived in-process servers with identical
    // batching configuration, differing only in whether the flight
    // recorder is attached. Both are booted and warmed once, then driven
    // in three temporally-adjacent detached→attached pairs; the gate uses
    // the *median* per-pair ratio. Pairing cancels slow host drift (both
    // sides of a pair see the same machine state) and the median tolerates
    // one noise-spiked pair — absolute scenarios/second is never compared
    // across time. Detached leads each pair so warmup asymmetry never
    // favours the recorder.
    let recorder_phases = {
        let boot = |attach: bool| {
            Server::start(
                ServeConfig {
                    flight_recorder: attach,
                    ..ServeConfig::default()
                },
                &[Bind::Tcp("127.0.0.1:0".into())],
                None,
            )
            .expect("in-process recorder-overhead server")
        };
        let detached_srv = boot(false);
        let attached_srv = boot(true);
        let d_target = format!("tcp:{}", detached_srv.tcp_addr().expect("tcp bound"));
        let a_target = format!("tcp:{}", attached_srv.tcp_addr().expect("tcp bound"));
        let warmup = opts.duration / 4;
        drive_clients(&d_target, &spec, opts.clients, warmup);
        drive_clients(&a_target, &spec, opts.clients, warmup);
        let fold = |acc: Option<Phase>, p: Phase| {
            Some(match acc {
                None => p,
                Some(mut acc) => {
                    acc.tally.add(p.tally);
                    acc.wall += p.wall;
                    acc
                }
            })
        };
        let (mut detached, mut attached) = (None, None);
        let mut ratios = Vec::new();
        for _ in 0..5 {
            let d = drive_clients(&d_target, &spec, opts.clients, opts.duration);
            let a = drive_clients(&a_target, &spec, opts.clients, opts.duration);
            ratios.push(a.scenarios_per_second() / d.scenarios_per_second().max(1e-9));
            detached = fold(detached, d);
            attached = fold(attached, a);
        }
        detached_srv.shutdown_and_join();
        attached_srv.shutdown_and_join();
        let (detached, attached) = (detached.expect("5 pairs"), attached.expect("5 pairs"));
        ratios.sort_by(f64::total_cmp);
        let overhead_ratio = ratios[ratios.len() / 2];
        println!(
            "recorder overhead: attached {:8.1} / detached {:8.1} scenarios/s \
             (pair ratios {ratios:.3?}, median {overhead_ratio:.3}x within-run)",
            attached.scenarios_per_second(),
            detached.scenarios_per_second()
        );
        (detached, attached, overhead_ratio)
    };

    let ratio = affinity.scenarios_per_second() / naive.scenarios_per_second().max(1e-9);
    let lanes_per_batch = affinity.tally.lanes_per_batched_response();
    println!(
        "affinity: {:8.1} scenarios/s ({} responses, {:.2} lanes/batch)",
        affinity.scenarios_per_second(),
        affinity.tally.responses,
        lanes_per_batch
    );
    println!(
        "naive:    {:8.1} scenarios/s ({} responses)",
        naive.scenarios_per_second(),
        naive.tally.responses
    );
    println!("within-run ratio (affinity / naive): {ratio:.2}x");

    let doc = report_json(&opts, affinity, naive, recorder_phases);
    write_report(&opts.out, &doc);

    // Gates. Throughput is compared only within this run (host speed
    // drifts, so absolute scenarios/second is never gated). In affinity
    // mode, lanes-per-batch proves the batcher actually filled lockstep
    // lanes rather than winning some other way.
    if let Some(parses) = metrics_ok {
        assert!(parses, "/metrics exposition is missing serve families");
    }
    assert!(
        lanes_per_batch > 1.0,
        "affinity phase never formed a multi-lane batch (lanes/batch = {lanes_per_batch:.2})"
    );
    if opts.quick {
        assert!(
            ratio > 1.0,
            "affinity batching should beat the naive baseline within-run (got {ratio:.2}x)"
        );
    } else {
        assert!(
            ratio >= 2.0,
            "affinity batching should sustain >= 2x the naive baseline within-run (got {ratio:.2}x)"
        );
    }
    let overhead_ratio = recorder_phases.2;
    // Within-run ratio only — absolute scenarios/second drifts with
    // host load. Full runs hold the 3% acceptance bar (2.5 s slices
    // average scheduler noise down far enough to resolve it); quick
    // runs gate at smoke level, because 400 ms slices on a loaded
    // single-core host cannot distinguish 3% from scheduling jitter.
    // EVOLVE_RECORDER_TOLERANCE overrides either floor.
    let floor = std::env::var("EVOLVE_RECORDER_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(if opts.quick { 0.90 } else { 0.97 });
    assert!(
        overhead_ratio >= floor,
        "flight recorder costs more than {:.1}% throughput within-run \
         (attached/detached = {overhead_ratio:.3}x)",
        (1.0 - floor) * 100.0
    );
    println!("serve-bench gates passed");
    ExitCode::SUCCESS
}

/// The serve report document: run shape, host stamp, both phases, the
/// within-run ratio, and the recorder-overhead pairs.
fn report_json(
    opts: &Options,
    affinity: Phase,
    naive: Phase,
    (detached, attached, overhead_ratio): (Phase, Phase, f64),
) -> Json {
    Json::object([
        ("benchmark", Json::str("serve")),
        ("mode", Json::str(if opts.quick { "quick" } else { "full" })),
        ("clients", Json::U64(opts.clients as u64)),
        ("duration_ms", Json::U64(opts.duration.as_millis() as u64)),
        (
            "workload",
            Json::object([
                (
                    "model",
                    Json::str("pipeline stages=8 base=60 per_unit=1 padding=64"),
                ),
                ("tokens_per_request", Json::U64(TOKENS_PER_REQUEST)),
            ]),
        ),
        ("host", host_json()),
        ("affinity", affinity.to_json()),
        ("naive", naive.to_json()),
        (
            "speedup",
            Json::F64(affinity.scenarios_per_second() / naive.scenarios_per_second().max(1e-9)),
        ),
        (
            "lanes_per_batch",
            Json::F64(affinity.tally.lanes_per_batched_response()),
        ),
        ("recorder_detached", detached.to_json()),
        ("recorder_attached", attached.to_json()),
        ("recorder_overhead_ratio", Json::F64(overhead_ratio)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_carries_the_host_stamp() {
        let opts = Options {
            quick: true,
            connect: None,
            metrics: None,
            dump_trace: None,
            clients: 2,
            duration: Duration::from_millis(10),
            out: String::new(),
        };
        let phase = Phase {
            tally: Tally {
                responses: 10,
                busy: 0,
                batched: 5,
                lanes: 20,
            },
            wall: Duration::from_millis(10),
        };
        let rendered = report_json(&opts, phase, phase, (phase, phase, 1.0)).render();
        assert!(evolve_obs::json::parses(&rendered), "{rendered}");
        assert!(
            rendered.contains(&format!("\"host\":{}", host_json().render())),
            "{rendered}"
        );
        assert!(rendered.contains("\"simd_level\":"), "{rendered}");
        assert!(rendered.contains("\"profile\":"), "{rendered}");
        assert!(rendered.contains("\"cores\":"), "{rendered}");
    }
}
