//! The paper's pipeline: one architecture simulated conventionally and by
//! the DES-hosted equivalent model on the same inputs, both runs replayed
//! into per-resource Fig. 6 traces, and the two checked against each
//! other.

use std::time::Duration;

use evolve_core::{
    derive_tdg, simplify, synthetic, DerivedTdg, Engine, EngineStats, EquivalentModelBuilder,
};
use evolve_des::Time;
use evolve_explore::cache::{
    drive_prepared, drive_prepared_batch, prepare, prepare_batch, DeltaMode, EngineOptions,
};
use evolve_explore::ModelSpec;
use evolve_model::{
    elaborate, Architecture, Arrival, Environment, ExecRecord, RelationId, ResourceId,
    ResourceTrace, Stimulus, UsageSeries,
};
use evolve_serve::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};

use crate::stats::Samples;
use crate::trace::Tracer;
use crate::Metric;

/// Lanes of the batched-kernel probe (the SIMD chunk width the daemon
/// fills under load).
pub const BATCH_WIDTH: usize = 8;

/// Repetitions of each in-process layer probe.
const PROBE_REPS: usize = 31;

/// The boundary-only reduction of a simplified model.
const BOUNDARY_ONLY: simplify::Options = simplify::Options {
    preserve_observations: false,
};

/// An architecture and how its equivalent model is configured.
#[derive(Debug)]
pub struct Model {
    pub name: &'static str,
    pub arch: Architecture,
    pub input: RelationId,
    pub output: RelationId,
    /// Whether the equivalent model replays observation (internal
    /// instants and execution records).
    pub observe: bool,
    /// Reduce the graph to its boundary behaviour before running.
    pub simplify: bool,
    /// Computation-only padding nodes appended to the graph.
    pub padding: usize,
    /// Bin width of the Fig. 6 usage series, in ticks.
    pub bin_ticks: u64,
    /// The model as one of the built-in sweep kinds, when it is one: the
    /// cache and batch layers take only those.
    pub spec: Option<ModelSpec>,
}

impl Model {
    fn builder(&self) -> EquivalentModelBuilder<'_> {
        let mut b = EquivalentModelBuilder::new(&self.arch).record_observations(self.observe);
        if self.simplify {
            b = b.simplify(BOUNDARY_ONLY);
        }
        if self.padding > 0 {
            b = b.padding(self.padding);
        }
        b
    }

    /// The graph the equivalent model's engine runs, derived the way
    /// [`EquivalentModelBuilder::build`] derives it.
    fn derive(&self) -> DerivedTdg {
        let mut derived = derive_tdg(&self.arch).expect("benchmark models derive");
        if self.simplify {
            derived.map_tdg(|t| simplify::simplify(t, &BOUNDARY_ONLY));
        }
        if self.padding > 0 {
            derived.map_tdg(|t| synthetic::pad(t, self.padding));
        }
        derived
    }

    fn boundary(&self) -> Vec<RelationId> {
        let app = self.arch.app();
        app.external_inputs()
            .into_iter()
            .chain(app.external_outputs())
            .collect()
    }

    fn options(&self) -> EngineOptions {
        EngineOptions {
            record_observations: self.observe,
            ..EngineOptions::default()
        }
    }
}

/// Timings and counts of one conventional-vs-equivalent scenario.
#[derive(Debug)]
pub struct ScenarioRun {
    /// Whether every check held.
    pub ok: bool,
    pub tokens: u64,
    pub elaborate: Duration,
    pub build: Duration,
    pub conv_run: Duration,
    pub conv_replay: Duration,
    pub equiv_run: Duration,
    pub equiv_replay: Duration,
    pub conv_activations: u64,
    pub equiv_activations: u64,
    pub conv_events: u64,
    pub equiv_events: u64,
    pub conv_records: u64,
    pub equiv_records: u64,
    /// Output write instants of the conventional run, in ticks.
    pub outputs: Vec<u64>,
}

impl ScenarioRun {
    pub fn setup(&self) -> Duration {
        self.elaborate + self.build
    }

    pub fn conv(&self) -> Duration {
        self.conv_run + self.conv_replay
    }

    pub fn equiv(&self) -> Duration {
        self.equiv_run + self.equiv_replay
    }

    /// The program's whole work for the scenario (checks excluded).
    pub fn program(&self) -> Duration {
        self.setup() + self.conv() + self.equiv()
    }
}

/// Fig. 6 replay: the busy-interval trace and usage series of every
/// resource.
fn replay(
    records: &[ExecRecord],
    resources: usize,
    bin_ticks: u64,
) -> Vec<(ResourceTrace, UsageSeries)> {
    (0..resources)
        .map(|r| {
            let id = ResourceId::from_index(r);
            (
                ResourceTrace::from_records(records, id),
                UsageSeries::from_records(records, id, bin_ticks),
            )
        })
        .collect()
}

/// Execution records in a canonical order: each `(function, statement,
/// iteration)` executes once, so the key is unique and equal multisets
/// sort to equal vectors.
fn sorted_records(records: &[ExecRecord]) -> Vec<ExecRecord> {
    let mut sorted = records.to_vec();
    sorted.sort_unstable_by_key(|r| (r.function.index(), r.stmt, r.k));
    sorted
}

/// Whether two record sets are equal as multisets (the common case of an
/// identical order is decided without sorting).
fn same_records(a: &[ExecRecord], b: &[ExecRecord]) -> bool {
    a == b || (a.len() == b.len() && sorted_records(a) == sorted_records(b))
}

/// Builds both models of `model` for `stimulus`, runs and replays both,
/// and checks the equivalent model against the conventional one: the
/// boundary write instants always, and with observation on also the
/// per-resource traces and the multiset of execution records.
pub fn run_scenario(model: &Model, stimulus: Stimulus, tr: &mut Tracer, req: u64) -> ScenarioRun {
    tr.span("bench.scenario", req, |tr| {
        let tokens = stimulus.len() as u64;
        let env = Environment::new().stimulus(model.input, stimulus);
        let (conv, elaborate) = tr.span("model.elaborate", req, |_| {
            elaborate(&model.arch, &env).expect("benchmark models elaborate")
        });
        let (equiv, build) = tr.span("core.equivalent.build", req, |_| {
            model.builder().build(&env).expect("benchmark models build")
        });
        let (conv, conv_run) = tr.span("des", req, |_| conv.run());
        let (equiv, equiv_run) = tr.span("core.equivalent", req, |_| equiv.run());
        let resources = model.arch.platform().len();
        let (conv_fig6, conv_replay) = tr.span("model.observe", req, |_| {
            replay(&conv.exec_records, resources, model.bin_ticks)
        });
        let (equiv_fig6, equiv_replay) = tr.span("model.observe", req, |_| {
            replay(&equiv.run.exec_records, resources, model.bin_ticks)
        });
        let (ok, _) = tr.span("bench.check", req, |_| {
            let boundary_ok = model.boundary().iter().all(|r| {
                conv.relation_logs[r.index()].write_instants
                    == equiv.run.relation_logs[r.index()].write_instants
            });
            let observed_ok = !model.observe
                || (conv_fig6.iter().zip(&equiv_fig6).all(|(c, e)| c.0 == e.0)
                    && same_records(&conv.exec_records, &equiv.run.exec_records));
            boundary_ok && observed_ok && conv.instants(model.output).len() as u64 == tokens
        });
        ScenarioRun {
            ok,
            tokens,
            elaborate,
            build,
            conv_run,
            conv_replay,
            equiv_run,
            equiv_replay,
            conv_activations: conv.stats.activations,
            equiv_activations: equiv.run.stats.activations,
            conv_events: conv.relation_events(),
            equiv_events: equiv.boundary_relation_events,
            conv_records: conv.exec_records.len() as u64,
            equiv_records: equiv.run.exec_records.len() as u64,
            outputs: conv
                .instants(model.output)
                .iter()
                .map(|t| t.ticks())
                .collect(),
        }
    })
    .0
}

/// The quantile at which per-scenario times are reported. On a host whose
/// speed alternates between states, a run's median snaps between them
/// from run to run, while its p90 stays in the slower, common one.
pub const TIME_QUANTILE: f64 = 0.9;

/// Per-scenario timings of the pipeline, kept compact so that a long run
/// does not grow the memory the benchmark reports.
#[derive(Debug, Default)]
pub struct PipelineTimes {
    tokens: u64,
    /// The program's whole work for a scenario: build, run and replay of
    /// both models (checks excluded).
    pub latency_ms: Samples,
    pub setup_s: Samples,
    equiv_s: Samples,
    conv_s: Samples,
}

impl PipelineTimes {
    pub fn add(&mut self, run: &ScenarioRun) {
        self.tokens = run.tokens;
        self.latency_ms.push(run.program().as_secs_f64() * 1e3);
        self.setup_s.push(run.setup().as_secs_f64());
        self.equiv_s.push(run.equiv().as_secs_f64());
        self.conv_s.push(run.conv().as_secs_f64());
    }

    /// Tokens per second of both models, each run plus its replay, at the
    /// [`TIME_QUANTILE`] scenario time.
    pub fn token_rates(&self) -> [Metric; 2] {
        let tokens = self.tokens as f64;
        [
            Metric::new(
                "equiv_tokens_per_s",
                tokens / self.equiv_s.quantile(TIME_QUANTILE),
            ),
            Metric::new(
                "conv_tokens_per_s",
                tokens / self.conv_s.quantile(TIME_QUANTILE),
            ),
        ]
    }
}

fn median_of(runs: &[ScenarioRun], f: impl Fn(&ScenarioRun) -> f64) -> f64 {
    let mut s = Samples::default();
    for r in runs {
        s.push(f(r));
    }
    s.median()
}

/// The bare engine loop: the equivalent model's `set_input` /
/// `next_output` / `ack_instant` sequence without the kernel, its
/// Reception/Emission processes or the report assembly. Offers land at
/// `max(arrival(k), ack(k-1))`, as the rendezvous source of the
/// DES-hosted model delivers them. Returns the output instants.
fn bare_loop(engine: &mut Engine, arrivals: &[Arrival]) -> Vec<u64> {
    let mut outputs = Vec::with_capacity(arrivals.len());
    let mut prev_ack: Option<Time> = None;
    for (k, arrival) in arrivals.iter().enumerate() {
        let k = k as u64;
        let offer = match prev_ack {
            Some(ack) if ack > arrival.at => ack,
            _ => arrival.at,
        };
        engine.set_input(0, k, offer, arrival.size);
        while let Some((ok, y, _)) = engine.next_output(0) {
            if engine.needs_output_ack(0) {
                engine.set_output_ack(0, ok, y);
            }
            outputs.push(y.ticks());
        }
        prev_ack = Some(
            engine
                .ack_instant(0, k)
                .expect("single-input benchmark models resolve every ack"),
        );
        engine.take_notifications().clear();
    }
    outputs
}

/// The engine layer on one scenario's arrivals: derive the graph, then
/// run the bare loop with the model's observation setting and with
/// observation off.
#[derive(Clone, Debug, Default)]
pub struct EngineProbe {
    pub ok: bool,
    pub derive: Duration,
    pub observed: Duration,
    pub unobserved: Duration,
    pub stats: EngineStats,
}

pub fn probe_engine(
    model: &Model,
    arrivals: &[Arrival],
    expected: &[u64],
    tr: &mut Tracer,
    req: u64,
) -> EngineProbe {
    tr.span("bench.probe", req, |tr| {
        let (derived, derive) = tr.span("core.derive", req, |_| model.derive());
        let relations = model.arch.app().relations().len();
        let mut observed_engine = Engine::new(derived.clone(), relations, model.observe);
        let mut unobserved_engine = Engine::new(derived, relations, false);
        let (out_obs, observed) = tr.span("core.engine", req, |_| {
            bare_loop(&mut observed_engine, arrivals)
        });
        let (out_noobs, unobserved) = tr.span("core.engine.noobs", req, |_| {
            bare_loop(&mut unobserved_engine, arrivals)
        });
        EngineProbe {
            ok: out_obs == expected && out_noobs == expected,
            derive,
            observed,
            unobserved,
            stats: observed_engine.stats(),
        }
    })
    .0
}

/// Outputs and input acknowledgements of `arrivals` from a fresh engine
/// driven by `explore::drive_engine`, the in-process reference for what
/// the daemon answers.
pub fn drive_reference(model: &Model, arrivals: &[Arrival]) -> (Vec<(u64, u64, u64)>, Vec<u64>) {
    let mut engine = Engine::new(
        model.derive(),
        model.arch.app().relations().len(),
        model.observe,
    );
    let outcome = evolve_explore::drive_engine(&mut engine, arrivals);
    (outcome.outputs, outcome.input_acks)
}

/// Median nanoseconds of `reps` timed calls of `f`.
fn time_ns<R>(tr: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut s = Samples::default();
    for rep in 0..reps {
        let (out, d) = tr.span(name, rep as u64, |_| f());
        std::hint::black_box(out);
        s.push(d.as_nanos() as f64);
    }
    s.median()
}

/// Protocol layer: encode and decode of the request and response that
/// would carry this scenario through the daemon.
pub fn probe_protocol(tr: &mut Tracer, request: &Request, response: &Response) -> [Metric; 4] {
    let req_bytes = encode_request(request);
    let resp_bytes = encode_response(response);
    assert_eq!(
        decode_request(&req_bytes).as_ref(),
        Ok(request),
        "request round-trips"
    );
    assert_eq!(
        decode_response(&resp_bytes).as_ref(),
        Ok(response),
        "response round-trips"
    );
    [
        Metric::new(
            "serve.protocol.encode_request_ns",
            time_ns(tr, "serve.protocol", PROBE_REPS, || encode_request(request)),
        ),
        Metric::new(
            "serve.protocol.decode_request_ns",
            time_ns(tr, "serve.protocol", PROBE_REPS, || {
                decode_request(&req_bytes)
            }),
        ),
        Metric::new(
            "serve.protocol.encode_response_ns",
            time_ns(tr, "serve.protocol", PROBE_REPS, || {
                encode_response(response)
            }),
        ),
        Metric::new(
            "serve.protocol.decode_response_ns",
            time_ns(tr, "serve.protocol", PROBE_REPS, || {
                decode_response(&resp_bytes)
            }),
        ),
    ]
}

/// Cache and batch layers for a built-in model: `prepare`, a scalar
/// `drive_prepared` on the warm model, and `drive_prepared_batch` at
/// [`BATCH_WIDTH`] lanes (per lane). All zero for a model the cache layer
/// cannot take; the batch figure is zero when the graph is refused for
/// lockstep batching.
pub fn probe_cache(model: &Model, traces: &[Vec<Arrival>], tr: &mut Tracer) -> [Metric; 3] {
    let (mut prepare_us, mut scalar_us, mut lane_us) = (0.0, 0.0, 0.0);
    if let Some(spec) = &model.spec {
        let options = model.options();
        let mut prepared = None;
        prepare_us = time_ns(tr, "explore.cache", PROBE_REPS, || {
            prepared = Some(prepare(spec, &options));
        }) / 1e3;
        let mut prepared = prepared.expect("at least one repetition");
        let arrivals = &traces[0];
        drive_prepared(&mut prepared, arrivals, &options, &mut None, DeltaMode::Off);
        scalar_us = time_ns(tr, "explore.cache", PROBE_REPS, || {
            drive_prepared(&mut prepared, arrivals, &options, &mut None, DeltaMode::Off).outcome
        }) / 1e3;
        if let Ok(mut batch) = prepare_batch(spec, &options, BATCH_WIDTH) {
            let lanes: Vec<&[Arrival]> = traces
                .iter()
                .cycle()
                .take(BATCH_WIDTH)
                .map(Vec::as_slice)
                .collect();
            drive_prepared_batch(&mut batch, &lanes, &mut None);
            lane_us = time_ns(tr, "core.batch", PROBE_REPS, || {
                drive_prepared_batch(&mut batch, &lanes, &mut None).0
            }) / 1e3
                / BATCH_WIDTH as f64;
        }
    }
    [
        Metric::new("explore.cache.prepare_us", prepare_us),
        Metric::new("explore.cache.drive_scalar_us", scalar_us),
        Metric::new("core.batch.lane_us", lane_us),
    ]
}

/// The per-layer metrics of the pipeline from traced scenario runs and
/// their engine probes.
pub fn layer_metrics(runs: &[ScenarioRun], probes: &[EngineProbe]) -> Vec<Metric> {
    let per = |f: &dyn Fn(&ScenarioRun) -> f64| median_of(runs, f);
    let mut glue_ns = Samples::default();
    let mut iter_ns = Samples::default();
    let mut noobs_ns = Samples::default();
    let mut derive_ms = Samples::default();
    let mut nodes = Samples::default();
    let mut arcs = Samples::default();
    for (run, probe) in runs.iter().zip(probes) {
        let iterations = probe.stats.iterations_completed.max(1) as f64;
        glue_ns.push(
            (run.equiv_run.as_nanos() as f64 - probe.observed.as_nanos() as f64)
                / run.tokens as f64,
        );
        iter_ns.push(probe.observed.as_nanos() as f64 / iterations);
        noobs_ns.push(probe.unobserved.as_nanos() as f64 / iterations);
        derive_ms.push(probe.derive.as_secs_f64() * 1e3);
        nodes.push(probe.stats.nodes_computed as f64 / iterations);
        arcs.push(probe.stats.arcs_evaluated as f64 / iterations);
    }
    vec![
        Metric::new(
            "des.conv_ns_per_activation",
            per(&|r| r.conv_run.as_nanos() as f64 / r.conv_activations.max(1) as f64),
        ),
        Metric::new(
            "des.conv_activations_per_token",
            per(&|r| r.conv_activations as f64 / r.tokens as f64),
        ),
        Metric::new(
            "des.equiv_activations_per_token",
            per(&|r| r.equiv_activations as f64 / r.tokens as f64),
        ),
        Metric::new(
            "des.event_ratio",
            per(&|r| r.conv_events as f64 / r.equiv_events.max(1) as f64),
        ),
        Metric::new("core.equivalent.glue_ns_per_token", glue_ns.median()),
        Metric::new("core.engine.ns_per_iteration", iter_ns.median()),
        Metric::new("core.engine.noobs_ns_per_iteration", noobs_ns.median()),
        Metric::new("core.engine.nodes_per_iteration", nodes.median()),
        Metric::new("core.engine.arcs_per_iteration", arcs.median()),
        Metric::new(
            "model.observe.replay_ns_per_record",
            per(&|r| {
                (r.conv_replay + r.equiv_replay).as_nanos() as f64
                    / (r.conv_records + r.equiv_records).max(1) as f64
            }),
        ),
        Metric::new(
            "model.observe.records_per_token",
            per(&|r| r.equiv_records as f64 / r.tokens as f64),
        ),
        Metric::new(
            "model.elaborate_ms",
            per(&|r| r.elaborate.as_secs_f64() * 1e3),
        ),
        Metric::new("core.derive_ms", derive_ms.median()),
        Metric::new(
            "core.equivalent.build_ms",
            per(&|r| r.build.as_secs_f64() * 1e3),
        ),
        Metric::new(
            "paper.speedup",
            per(&|r| r.conv().as_secs_f64()) / per(&|r| r.equiv().as_secs_f64()),
        ),
    ]
}
