//! The four workloads and the paper-pipeline loop two of them share.
//!
//! Every workload makes its inputs from `--seed` alone; the program
//! receives only those generated inputs.

use std::time::{Duration, Instant};

use evolve_des::SplitMix64;
use evolve_explore::{ModelKind, ModelSpec};
use evolve_lte::{receiver, symbol_stimulus, Scenario};
use evolve_model::{didactic, varying_sizes, Stimulus};
use evolve_serve::{EvalRequest, EvalResponse, ModelRef, Request, Response, TracePayload};

use crate::paper::{self, Model, PipelineTimes};
use crate::stats::latency_summary;
use crate::trace::Tracer;
use crate::{serve, Metric, Outcome};

pub const NAMES: [&str; 4] = ["table1-x4", "lte-boundary", "serve-closed", "serve-burst"];

/// Tokens per paper scenario: short enough that a run completes the
/// thousands of scenarios its latency percentiles need, long enough that
/// the per-token figures are not dominated by per-run start-up.
const PAPER_TOKENS: u64 = 256;

/// Scenarios run and checked, untimed, before timing starts.
const WARMUP: Duration = Duration::from_millis(200);

/// Runs `workload`; `None` for an unknown name.
pub fn run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Option<Outcome> {
    let seconds = Duration::from_secs(seconds);
    Some(match workload {
        "table1-x4" => {
            let d =
                didactic::chained(4, didactic::Params::default()).expect("didactic model builds");
            let (input, output) = (d.input(), d.output());
            let model = Model {
                name: "table1-x4",
                arch: d.arch,
                input,
                output,
                observe: true,
                simplify: false,
                padding: 0,
                bin_ticks: 10_000,
                spec: Some(ModelSpec {
                    kind: ModelKind::Didactic { stages: 4 },
                    padding: 0,
                    backend: Default::default(),
                }),
            };
            let stimulus = move |i: u64| {
                Stimulus::saturating(PAPER_TOKENS, varying_sizes(1, 256, item_seed(seed, i)))
            };
            paper_workload(&model, &stimulus, seconds, trace)
        }
        "lte-boundary" => {
            let rx = receiver(Scenario::default()).expect("receiver builds");
            let lte = rx.scenario;
            let model = Model {
                name: "lte-boundary",
                arch: rx.arch,
                input: rx.input,
                output: rx.output,
                observe: false,
                simplify: true,
                padding: 0,
                bin_ticks: 20_000,
                spec: None,
            };
            let stimulus = move |i: u64| symbol_stimulus(lte, PAPER_TOKENS, item_seed(seed, i));
            paper_workload(&model, &stimulus, seconds, trace)
        }
        "serve-closed" => serve::run(serve::Load::Closed, seed, seconds, trace),
        "serve-burst" => serve::run(serve::Load::Burst, seed, seconds, trace),
        _ => return None,
    })
}

/// The input seed of item `index` of a run seeded with `seed`.
pub fn item_seed(seed: u64, index: u64) -> u64 {
    SplitMix64::new(seed).fork(index).next_u64()
}

/// Runs one paper workload: the pipeline on seeded scenarios, each
/// checked. An untraced run reports the end-to-end metrics. A traced run
/// runs the loop untraced for half the time and traced for the other half
/// (their latency difference is the tracing overhead), following each
/// traced scenario with the engine probe on its inputs, so that both see
/// the same host conditions; then it probes the cache, batch and protocol
/// layers.
fn paper_workload(
    model: &Model,
    stimulus: &dyn Fn(u64) -> Stimulus,
    seconds: Duration,
    trace: bool,
) -> Outcome {
    let origin = Instant::now();
    let mut out = Outcome::default();
    let mut next = 0u64;
    // Runs scenarios for `budget` under `tr`, timing each; with tracing
    // on, also probes the engine on each scenario's inputs and keeps the
    // runs and probes.
    let mut timed = |tr: &mut Tracer, out: &mut Outcome, budget: Duration| {
        let mut times = PipelineTimes::default();
        let (mut runs, mut probes) = (Vec::new(), Vec::new());
        let deadline = Instant::now() + budget;
        tr.window(|tr| {
            while Instant::now() < deadline {
                let i = next;
                next += 1;
                let stimulus = stimulus(i);
                let arrivals = tr.enabled().then(|| stimulus.arrivals().to_vec());
                let run = paper::run_scenario(model, stimulus, tr, i);
                out.attempted += 1;
                out.failed += u64::from(!run.ok);
                times.add(&run);
                if let Some(arrivals) = arrivals {
                    let probe = paper::probe_engine(model, &arrivals, &run.outputs, tr, i);
                    out.failed += u64::from(!probe.ok);
                    probes.push(probe);
                    runs.push(run);
                }
            }
        });
        (times, runs, probes)
    };
    let mut untraced = Tracer::new(false, origin, 1);
    timed(&mut untraced, &mut out, WARMUP);

    if !trace {
        let (times, ..) = timed(&mut untraced, &mut out, seconds);
        out.notes.push(format!(
            "{}: {} scenarios of {PAPER_TOKENS} tokens; {}",
            model.name,
            times.latency_ms.len(),
            latency_summary(&times.latency_ms)
        ));
        let p90_ms = times.latency_ms.quantile(paper::TIME_QUANTILE);
        out.metrics.extend(times.token_rates());
        out.metrics.extend([
            // One scenario at a time: the rate at the p90 scenario time.
            Metric::new("scenarios_per_s", 1e3 / p90_ms),
            Metric::new("latency_p90_ms", p90_ms),
            Metric::new("setup_s", times.setup_s.median()),
        ]);
        return out;
    }

    let (plain, ..) = timed(&mut untraced, &mut out, seconds / 2);
    let mut tr = Tracer::new(true, origin, 1);
    let (traced, runs, probes) = timed(&mut tr, &mut out, seconds / 2);
    let (plain_p50, traced_p50) = (plain.latency_ms.median(), traced.latency_ms.median());
    out.metrics = paper::layer_metrics(&runs, &probes);
    out.metrics.push(Metric::new(
        "bench.trace_overhead_pct",
        (traced_p50 - plain_p50) / plain_p50 * 100.0,
    ));

    let traces: Vec<_> = (0..8).map(|i| stimulus(i).arrivals().to_vec()).collect();
    tr.window(|tr| {
        out.metrics.extend(paper::probe_cache(model, &traces, tr));
        let arrivals = &traces[0];
        let offers = arrivals.iter().map(|a| (a.at.ticks(), a.size)).collect();
        let model_ref = match &model.spec {
            Some(spec) => ModelRef::Inline(spec.clone()),
            None => ModelRef::Named(model.name.into()),
        };
        let (outputs, input_acks) = paper::drive_reference(model, arrivals);
        let request = Request::Eval(EvalRequest {
            id: 0,
            model: model_ref,
            trace: TracePayload::Offers(offers),
        });
        let response = Response::EvalOk(EvalResponse {
            id: 0,
            outputs,
            input_acks,
            ..EvalResponse::default()
        });
        out.metrics
            .extend(paper::probe_protocol(tr, &request, &response));
    });
    out.notes.push(format!(
        "{}: untraced {} scenarios (latency p50 {plain_p50:.4} ms), traced and probed {} \
         (p50 {traced_p50:.4} ms) of {PAPER_TOKENS} tokens",
        model.name,
        plain.latency_ms.len(),
        traced.latency_ms.len()
    ));
    out.tracers.push(tr);
    out
}
