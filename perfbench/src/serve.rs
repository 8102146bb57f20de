//! The served request: the `evolved` daemon, started in this process on
//! loopback TCP with its default configuration, driven by closed-loop or
//! open-loop clients from this process.

use std::io::Read as _;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use evolve_des::SplitMix64;
use evolve_explore::{ModelKind, ModelSpec, TraceSpec};
use evolve_model::Stimulus;
use evolve_serve::protocol::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use evolve_serve::{
    decode_response, encode_request, Bind, EvalRequest, EvalResponse, FrameReader, ModelRef,
    Request, Response, ServeConfig, Server, TracePayload,
};

use crate::paper::{self, Model, PipelineTimes, ScenarioRun};
use crate::stats::{latency_summary, Samples};
use crate::trace::Tracer;
use crate::workloads::item_seed;
use crate::{Metric, Outcome};

/// How the clients offer load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Load {
    /// One client per connection, each sending its next request when the
    /// previous one is answered.
    Closed,
    /// One sender thread offering requests on a seeded burst schedule, one
    /// receiver thread collecting the answers, over the same connections.
    Burst,
}

/// Tokens in every request's generated trace.
const TOKENS: u64 = 24;

/// In each load slice, every `SAMPLE_EVERY`-th request, up to `SAMPLES`
/// of them, is checked against in-process references and replayed
/// through the paper pipeline.
const SAMPLE_EVERY: u64 = 8;
const SAMPLES: u64 = 64;

/// The run alternates load and replay in slices, so both are measured
/// across the whole run rather than in one stretch of it. A slice's
/// requests have ids `slice << 32` onwards. In a traced run the odd
/// slices are traced.
const SLICES: u32 = 10;

/// Share of each slice spent on load; the rest replays the sampled
/// traces through the paper pipeline.
const LOAD_SHARE: f64 = 0.8;

/// Daemon starts timed for `setup_s`; the last daemon serves the load.
const SETUPS: u64 = 41;

/// Window after a daemon start within which its first client arrives.
const ARRIVAL_SPREAD: Duration = Duration::from_millis(10);

/// Request ids of the set-up probes, apart from the load's ids.
const SETUP_IDS: u64 = 1 << 48;

/// A request not answered within this is counted as failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);

/// Open-loop schedule: bursts of `BURST` requests due at one instant, at a
/// mean rate of `BURST_RATE` requests per second. The rate is below what
/// the daemon sustains at these burst sizes, so no backlog grows.
const BURST: (u64, u64) = (4, 16);
const BURST_RATE: f64 = 1600.0;

/// How long the receiver blocks on one connection before polling the next.
const RECEIVE_POLL: Duration = Duration::from_micros(200);

/// After the schedule ends, how long the receiver waits for stragglers.
const DRAIN: Duration = Duration::from_secs(3);

/// The model every request asks for: serve-bench's shared affinity
/// workload (pipeline of 8 stages, padding 64).
fn spec() -> ModelSpec {
    ModelSpec {
        kind: ModelKind::Pipeline {
            stages: 8,
            base: 60,
            per_unit: 1,
        },
        padding: 64,
        backend: Default::default(),
    }
}

fn trace_spec(seed: u64, index: u64) -> TraceSpec {
    TraceSpec {
        tokens: TOKENS,
        min_size: 1,
        max_size: 64,
        mean_period: 300,
        seed: item_seed(seed, index),
    }
}

fn request(seed: u64, index: u64) -> Request {
    Request::Eval(EvalRequest {
        id: index,
        model: ModelRef::Inline(spec()),
        trace: TracePayload::Generated(trace_spec(seed, index)),
    })
}

fn sampled(index: u64) -> bool {
    let in_slice = index & 0xffff_ffff;
    in_slice.is_multiple_of(SAMPLE_EVERY) && in_slice < SAMPLE_EVERY * SAMPLES
}

fn start_daemon() -> (Server, String) {
    let server = Server::start(
        ServeConfig::default(),
        &[Bind::Tcp("127.0.0.1:0".into())],
        None,
    )
    .expect("daemon starts on loopback");
    let addr = server
        .tcp_addr()
        .expect("daemon bound a tcp port")
        .to_string();
    (server, addr)
}

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    Ok(stream)
}

/// One request and its response on a connection with nothing else in
/// flight: encode, the round trip through the daemon, decode.
fn call(
    stream: &mut TcpStream,
    req: &Request,
    id: u64,
    tr: &mut Tracer,
) -> Result<Response, String> {
    let (bytes, _) = tr.span("serve.protocol", id, |_| encode_request(req));
    let (frame, _) = tr.span("serve.daemon", id, |_| {
        write_frame(stream, &bytes, DEFAULT_MAX_FRAME)?;
        read_frame(stream, DEFAULT_MAX_FRAME)
    });
    let frame = frame
        .map_err(|e| e.to_string())?
        .ok_or("daemon closed the connection")?;
    tr.span("serve.protocol", id, |_| decode_response(&frame))
        .0
        .map_err(|e| e.to_string())
}

/// Everything the clients observed.
#[derive(Debug, Default)]
struct Tally {
    sent: u64,
    ok: u64,
    busy: u64,
    errors: u64,
    /// Timeouts, transport failures and answers to the wrong request.
    lost: u64,
    latency_ms: Samples,
    lag_ms: Samples,
    batched: u64,
    lanes: u64,
    delta_attached: u64,
    samples: Vec<(u64, EvalResponse)>,
    window: Duration,
    /// Requests still unanswered when the schedule ended.
    backlog: u64,
}

impl Tally {
    fn failed(&self) -> u64 {
        self.busy + self.errors + self.lost
    }

    fn record(&mut self, index: u64, response: Result<Response, String>, latency: Duration) {
        match response {
            Ok(Response::EvalOk(ok)) if ok.id == index => {
                self.ok += 1;
                self.latency_ms.push(latency.as_secs_f64() * 1e3);
                self.batched += u64::from(ok.batched);
                self.lanes += u64::from(ok.lanes_in_batch);
                self.delta_attached += u64::from(ok.delta_attached);
                if sampled(index) {
                    self.samples.push((index, ok));
                }
            }
            Ok(Response::Busy { .. }) => self.busy += 1,
            Ok(Response::Error { .. }) => self.errors += 1,
            _ => self.lost += 1,
        }
    }

    fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.busy += other.busy;
        self.errors += other.errors;
        self.lost += other.lost;
        self.latency_ms.extend(&other.latency_ms);
        self.lag_ms.extend(&other.lag_ms);
        self.batched += other.batched;
        self.lanes += other.lanes;
        self.delta_attached += other.delta_attached;
        self.samples.extend(other.samples);
        self.backlog += other.backlog;
        self.window += other.window;
    }
}

fn clients() -> usize {
    thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// `clients()` closed-loop clients, one connection each, for `budget`.
/// Request `first + i` goes to client `i % clients`, so the run's request
/// set depends only on how many were answered.
fn closed_loop(
    addr: &str,
    seed: u64,
    first: u64,
    budget: Duration,
    traced: bool,
    origin: Instant,
) -> (Tally, Vec<Tracer>) {
    let n = clients() as u64;
    let start = Instant::now();
    let deadline = start + budget;
    let results: Vec<(Tally, Tracer)> = thread::scope(|s| {
        let joins: Vec<_> = (0..n)
            .map(|c| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut tr = Tracer::new(traced, origin, 2 + c);
                    let mut stream = match connect(addr) {
                        Ok(stream) => stream,
                        Err(_) => {
                            tally.sent = 1;
                            tally.lost = 1;
                            return (tally, tr);
                        }
                    };
                    tr.window(|tr| {
                        let mut index = first + c;
                        while Instant::now() < deadline {
                            let req = request(seed, index);
                            tally.sent += 1;
                            let (response, latency) = tr.span("bench.request", index, |tr| {
                                call(&mut stream, &req, index, tr)
                            });
                            let broken = response.is_err();
                            tally.record(index, response, latency);
                            if broken {
                                break;
                            }
                            index += n;
                        }
                    });
                    (tally, tr)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread"))
            .collect()
    });
    let mut tally = Tally {
        window: start.elapsed(),
        ..Tally::default()
    };
    let mut tracers = Vec::new();
    for (t, tr) in results {
        tally.merge(t);
        tracers.push(tr);
    }
    (tally, tracers)
}

/// Due offsets of the open-loop schedule over `budget`, from the seed.
fn burst_schedule(seed: u64, budget: Duration) -> Vec<Duration> {
    let mut rng = SplitMix64::new(seed).fork(u64::MAX);
    let mut due = Vec::new();
    let mut at = 0.0f64;
    while at < budget.as_secs_f64() {
        let size = rng.range_inclusive(BURST.0, BURST.1);
        for _ in 0..size {
            due.push(Duration::from_secs_f64(at));
        }
        // Gap jittered uniformly in [0.5, 1.5] of the mean gap for this
        // burst size, which keeps the mean rate at `BURST_RATE`.
        let jitter = 0.5 + rng.range_inclusive(0, 1_000_000) as f64 / 1e6;
        at += size as f64 / BURST_RATE * jitter;
    }
    due
}

/// The open loop: one sender offers the schedule's requests at their due
/// instants, round-robin over the connections; one receiver collects the
/// answers. Latency runs from each request's due instant.
fn open_loop(
    addr: &str,
    seed: u64,
    first: u64,
    budget: Duration,
    traced: bool,
    origin: Instant,
) -> (Tally, Vec<Tracer>) {
    let conns = clients();
    let due = burst_schedule(seed ^ first, budget);
    let n = due.len() as u64;
    let mut tally = Tally::default();
    let streams: Vec<TcpStream> = match (0..conns)
        .map(|_| connect(addr))
        .collect::<std::io::Result<Vec<_>>>()
    {
        Ok(streams) => streams,
        Err(_) => {
            tally.sent = n;
            tally.lost = n;
            return (tally, Vec::new());
        }
    };
    let mut writers: Vec<TcpStream> = streams
        .iter()
        .map(|s| s.try_clone().expect("socket clones"))
        .collect();
    for s in &streams {
        s.set_read_timeout(Some(RECEIVE_POLL))
            .expect("read timeout is settable");
    }
    let start = Instant::now();
    let (sender, receiver) = thread::scope(|s| {
        let due = &due;
        let sender = s.spawn(move || {
            let mut tr = Tracer::new(traced, origin, 2);
            let mut lag_ms = Samples::default();
            let mut sent = 0u64;
            tr.window(|tr| {
                for (i, offset) in due.iter().enumerate() {
                    let index = first + i as u64;
                    let target = start + *offset;
                    let now = Instant::now();
                    if target > now {
                        thread::sleep(target - now);
                    }
                    lag_ms.push(Instant::now().duration_since(target).as_secs_f64() * 1e3);
                    let (bytes, _) = tr.span("serve.protocol", index, |_| {
                        encode_request(&request(seed, index))
                    });
                    let conn = &mut writers[i % conns];
                    let (written, _) = tr.span("serve.daemon", index, |_| {
                        write_frame(conn, &bytes, DEFAULT_MAX_FRAME)
                    });
                    if written.is_err() {
                        break;
                    }
                    sent += 1;
                }
            });
            (tr, lag_ms, sent)
        });
        let receiver = s.spawn(move || {
            let mut tr = Tracer::new(traced, origin, 3);
            let mut tally = Tally::default();
            let mut streams = streams;
            let mut frames: Vec<FrameReader> = (0..conns)
                .map(|_| FrameReader::new(DEFAULT_MAX_FRAME))
                .collect();
            let mut answered = vec![false; due.len()];
            let mut buf = vec![0u8; 1 << 16];
            let mut received = 0u64;
            let mut backlog_at_end = None;
            let schedule_end = start + due.last().copied().unwrap_or_default();
            tr.window(|tr| {
                while received < n && Instant::now() < schedule_end + DRAIN {
                    if backlog_at_end.is_none() && Instant::now() >= schedule_end {
                        backlog_at_end = Some(n - received);
                    }
                    for (c, stream) in streams.iter_mut().enumerate() {
                        let read = match stream.read(&mut buf) {
                            Ok(0) => return,
                            Ok(read) => read,
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                                ) =>
                            {
                                continue
                            }
                            Err(_) => return,
                        };
                        let now = Instant::now();
                        frames[c].extend(&buf[..read]);
                        while let Ok(Some(frame)) = frames[c].next_frame() {
                            let (response, _) =
                                tr.span("serve.protocol", 0, |_| decode_response(&frame));
                            let id = match &response {
                                Ok(Response::EvalOk(ok)) => ok.id,
                                Ok(Response::Busy { id } | Response::Error { id, .. }) => *id,
                                _ => u64::MAX,
                            };
                            let slot = id.wrapping_sub(first);
                            // A valid answer names a request sent on this
                            // connection that was not answered before.
                            if slot >= n || slot as usize % conns != c || answered[slot as usize] {
                                tally.lost += 1;
                                continue;
                            }
                            answered[slot as usize] = true;
                            received += 1;
                            let latency = now.duration_since(start + due[slot as usize]);
                            tally.record(id, response.map_err(|e| e.to_string()), latency);
                        }
                    }
                }
            });
            tally.backlog = backlog_at_end.unwrap_or(0);
            (tr, tally, received)
        });
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    let (send_tr, lag_ms, sent) = sender;
    let (recv_tr, received_tally, received) = receiver;
    tally.merge(received_tally);
    tally.window = start.elapsed();
    tally.sent = n;
    tally.lag_ms = lag_ms;
    // Requests never sent or never answered count as lost.
    tally.lost += n - sent.min(n) + sent.saturating_sub(received);
    (tally, vec![send_tr, recv_tr])
}

fn drive(
    load: Load,
    addr: &str,
    seed: u64,
    first: u64,
    budget: Duration,
    traced: bool,
    origin: Instant,
) -> (Tally, Vec<Tracer>) {
    match load {
        Load::Closed => closed_loop(addr, seed, first, budget, traced, origin),
        Load::Burst => open_loop(addr, seed, first, budget, traced, origin),
    }
}

/// The served model as a paper-pipeline model: the daemon records no
/// observation, and pads the graph as `EquivalentModelBuilder::padding` does.
fn served_model() -> Model {
    let spec = spec();
    let (arch, input, output) = spec.build();
    Model {
        name: "served",
        arch,
        input,
        output,
        observe: false,
        simplify: false,
        padding: spec.padding,
        bin_ticks: 1_000,
        spec: Some(spec),
    }
}

/// Checks newly sampled answers: each must equal a fresh in-process
/// engine drive bitwise, and its output instants the conventional
/// model's in the paper pipeline.
fn check_samples(
    model: &Model,
    seed: u64,
    samples: &[(u64, EvalResponse)],
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    tr.window(|tr| {
        for (index, answer) in samples {
            let stimulus = trace_spec(seed, *index).stimulus();
            let (ok, _) = tr.span("bench.check", *index, |_| {
                let (outputs, acks) = paper::drive_reference(model, stimulus.arrivals());
                outputs == answer.outputs && acks == answer.input_acks
            });
            let run = paper::run_scenario(model, stimulus, tr, *index);
            let daemon_outputs: Vec<u64> = answer.outputs.iter().map(|o| o.1).collect();
            out.failed += u64::from(!(ok && run.ok && daemon_outputs == run.outputs));
        }
    });
}

/// Replays the sampled traces through the paper pipeline for `budget`
/// (at least one pass). Each run's timings go to `times`; in a traced run
/// the runs themselves and their engine probes are kept as well.
fn replay(
    model: &Model,
    stimuli: &[(u64, Stimulus)],
    budget: Duration,
    tr: &mut Tracer,
    out: &mut Outcome,
    times: &mut PipelineTimes,
    probed: &mut Vec<(ScenarioRun, paper::EngineProbe)>,
) {
    let deadline = Instant::now() + budget;
    tr.window(|tr| {
        for (pass, (index, stimulus)) in stimuli.iter().cycle().enumerate() {
            if pass >= stimuli.len() && Instant::now() >= deadline {
                break;
            }
            let run = paper::run_scenario(model, stimulus.clone(), tr, *index);
            out.failed += u64::from(!run.ok);
            times.add(&run);
            if tr.enabled() {
                let probe =
                    paper::probe_engine(model, stimulus.arrivals(), &run.outputs, tr, *index);
                out.failed += u64::from(!probe.ok);
                probed.push((run, probe));
            }
        }
    });
}

fn notes(load: Load, label: &str, t: &Tally) -> String {
    let mut line = format!(
        "{label}: sent {} succeeded {} failed {} (busy {}, error {}, lost {}) in {:.3} s; {}",
        t.sent,
        t.ok,
        t.failed(),
        t.busy,
        t.errors,
        t.lost,
        t.window.as_secs_f64(),
        latency_summary(&t.latency_ms)
    );
    if load == Load::Burst {
        line.push_str(&format!(
            "; generator lag p50 {:.4} ms p99 {:.4} ms; backlog at schedule end {}",
            t.lag_ms.median(),
            t.lag_ms.quantile(0.99),
            t.backlog
        ));
    }
    line
}

pub fn run(load: Load, seed: u64, seconds: Duration, trace: bool) -> Outcome {
    let origin = Instant::now();
    let mut out = Outcome::default();
    let mut setup_tr = Tracer::new(false, origin, 1);

    // Set-up: daemon start until its first answer, several times; the
    // last daemon stays up for the load. The first client arrives at a
    // seeded random moment within `ARRIVAL_SPREAD` of the daemon being up,
    // and only the time it waits counts: a client racing the start would
    // make the figure snap between the two sides of the race.
    let mut setup_s = Samples::default();
    let mut daemon = None;
    let mut arrival = SplitMix64::new(seed).fork(SETUP_IDS);
    for j in 0..SETUPS {
        let t0 = Instant::now();
        let (server, addr) = start_daemon();
        let started = t0.elapsed();
        thread::sleep(Duration::from_micros(
            arrival.range_inclusive(0, ARRIVAL_SPREAD.as_micros() as u64),
        ));
        let t1 = Instant::now();
        let answer = connect(&addr).map_err(|e| e.to_string()).and_then(|mut s| {
            call(
                &mut s,
                &request(seed, SETUP_IDS + j),
                SETUP_IDS + j,
                &mut setup_tr,
            )
        });
        setup_s.push((started + t1.elapsed()).as_secs_f64());
        out.attempted += 1;
        out.failed +=
            u64::from(!matches!(answer, Ok(Response::EvalOk(ref ok)) if ok.id == SETUP_IDS + j));
        if j + 1 == SETUPS {
            daemon = Some((server, addr));
        } else {
            server.shutdown_and_join();
        }
    }
    let (server, addr) = daemon.expect("at least one set-up");
    let model = served_model();
    let label = if load == Load::Closed {
        "serve-closed"
    } else {
        "serve-burst"
    };

    let slice = seconds / SLICES;
    let (load_budget, replay_budget) = (slice.mul_f64(LOAD_SHARE), slice.mul_f64(1.0 - LOAD_SHARE));
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let mut tr = Tracer::new(trace, origin, 1);
    let mut tracers = Vec::new();
    let mut stimuli = Vec::new();
    let mut times = PipelineTimes::default();
    let mut probed = Vec::new();
    for k in 0..SLICES {
        let traced_slice = trace && k % 2 == 1;
        let (tally, slice_tracers) = drive(
            load,
            &addr,
            seed,
            u64::from(k) << 32,
            load_budget,
            traced_slice,
            origin,
        );
        check_samples(&model, seed, &tally.samples, &mut tr, &mut out);
        stimuli.extend(
            tally
                .samples
                .iter()
                .map(|(i, _)| (*i, trace_spec(seed, *i).stimulus())),
        );
        replay(
            &model,
            &stimuli,
            replay_budget,
            &mut tr,
            &mut out,
            &mut times,
            &mut probed,
        );
        if traced_slice {
            traced.merge(tally);
            tracers.extend(slice_tracers);
        } else {
            plain.merge(tally);
        }
    }
    out.daemon_dump = trace.then(|| server.dump_trace()).flatten();
    server.shutdown_and_join();
    for t in [&plain, &traced] {
        out.attempted += t.sent;
        out.failed += t.failed();
    }
    out.notes.push(format!(
        "{label}: daemon start to first answer p50 {:.4} ms, p90 {:.4} ms over {SETUPS} starts",
        setup_s.median() * 1e3,
        setup_s.quantile(0.9) * 1e3
    ));
    out.notes
        .push(notes(load, &format!("{label} untraced"), &plain));
    if trace {
        out.notes
            .push(notes(load, &format!("{label} traced"), &traced));
    }
    out.notes.push(format!(
        "{label}: {} sampled answers checked; {} pipeline replays",
        stimuli.len(),
        times.latency_ms.len()
    ));

    if !trace {
        out.metrics.extend(times.token_rates());
        out.metrics.extend([
            Metric::new(
                "scenarios_per_s",
                plain.ok as f64 / plain.window.as_secs_f64(),
            ),
            Metric::new("latency_p90_ms", plain.latency_ms.quantile(0.9)),
            Metric::new("setup_s", setup_s.median()),
        ]);
        return out;
    }

    let (runs, probes): (Vec<ScenarioRun>, Vec<paper::EngineProbe>) = probed.into_iter().unzip();
    let mut metrics = paper::layer_metrics(&runs, &probes);
    let traces: Vec<_> = stimuli
        .iter()
        .take(8)
        .map(|(_, s)| s.arrivals().to_vec())
        .collect();
    let mut eval_us = 0.0;
    let mut protocol_us = 0.0;
    if let Some((index, answer)) = plain.samples.first() {
        tr.window(|tr| {
            let cache = paper::probe_cache(&model, &traces, tr);
            let protocol = paper::probe_protocol(
                tr,
                &request(seed, *index),
                &Response::EvalOk(answer.clone()),
            );
            protocol_us = protocol.iter().map(|m| m.value).sum::<f64>() / 1e3;
            let (scalar_us, lane_us) = (cache[1].value, cache[2].value);
            let batched = plain.batched as f64 / plain.ok.max(1) as f64;
            // A batched request waits for its whole batch's drive.
            eval_us = batched * lane_us * paper::BATCH_WIDTH as f64 + (1.0 - batched) * scalar_us;
            metrics.extend(cache);
            metrics.extend(protocol);
        });
    }
    let answered = (plain.ok + traced.ok).max(1) as f64;
    let mut lag_ms = plain.lag_ms.clone();
    lag_ms.extend(&traced.lag_ms);
    metrics.extend([
        Metric::new(
            "serve.wait_p50_us",
            plain.latency_ms.median() * 1e3 - protocol_us - eval_us,
        ),
        Metric::new(
            "serve.lanes_per_batch",
            (plain.lanes + traced.lanes) as f64 / answered,
        ),
        Metric::new(
            "serve.batched_share",
            (plain.batched + traced.batched) as f64 / answered,
        ),
        Metric::new(
            "serve.delta_attached_share",
            (plain.delta_attached + traced.delta_attached) as f64 / answered,
        ),
        Metric::new(
            "bench.gen_lag_p99_ms",
            if load == Load::Burst {
                lag_ms.quantile(0.99)
            } else {
                0.0
            },
        ),
        Metric::new(
            "bench.trace_overhead_pct",
            (traced.latency_ms.median() - plain.latency_ms.median()) / plain.latency_ms.median()
                * 100.0,
        ),
    ]);
    out.metrics = metrics;
    tracers.push(tr);
    out.tracers = tracers;
    out
}
