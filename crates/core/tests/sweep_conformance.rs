//! Differential conformance of the parallel sweep path.
//!
//! Three independent implementations compute the same evolution instants:
//!
//! 1. the **parallel sweep** (`evolve_explore::run_sweep`, ≥4 workers,
//!    reused engines, no kernel in the loop);
//! 2. the **equivalent model** on the DES kernel (`equivalent_simulation`,
//!    a fresh engine driven by Reception/Emission processes);
//! 3. the **conventional reference simulation** (`elaborate`, every
//!    exchange an actual kernel event).
//!
//! Over a randomized batch of small scenarios, outputs `Y(k)`, input
//! acknowledgments, execution records, engine statistics, and boundary
//! event counts must agree bitwise across all three.
//!
//! The parallel path is additionally exercised over the full planner
//! matrix — threads × batch width — against the single-threaded scalar
//! baseline.

use evolve_core::EvalBackend;
use evolve_des::SplitMix64;
use evolve_explore::{
    run_sweep, ModelKind, ModelSpec, ScenarioOutcome, ScenarioSpec, SweepConfig, TraceSpec,
};
use evolve_model::{elaborate, Environment, ExecRecord};

const SCENARIOS: u64 = 32;
const THREADS: usize = 4;

/// Randomized small scenarios: didactic chains and pipelines with varying
/// padding, trace lengths, sizes, and arrival regimes.
fn random_scenarios(seed: u64) -> Vec<ScenarioSpec> {
    let root = SplitMix64::new(seed);
    (0..SCENARIOS)
        .map(|i| {
            let r = root.fork(i);
            let kind = if r.fork(0).range_inclusive(0, 1) == 0 {
                ModelKind::Didactic {
                    stages: r.fork(1).range_inclusive(1, 3) as usize,
                }
            } else {
                ModelKind::Pipeline {
                    stages: r.fork(2).range_inclusive(1, 6) as usize,
                    base: r.fork(3).range_inclusive(10, 200),
                    per_unit: r.fork(4).range_inclusive(0, 5),
                }
            };
            ScenarioSpec {
                label: format!("conf-{i}"),
                model: ModelSpec {
                    kind,
                    padding: (r.fork(5).range_inclusive(0, 32) / 8 * 8) as usize,
                    backend: Default::default(),
                },
                trace: TraceSpec {
                    tokens: r.fork(6).range_inclusive(10, 40),
                    min_size: 1,
                    max_size: r.fork(7).range_inclusive(1, 96),
                    mean_period: if r.fork(8).range_inclusive(0, 2) == 0 {
                        0
                    } else {
                        r.fork(9).range_inclusive(50, 2_000)
                    },
                    seed: r.fork(10).next_u64(),
                },
            }
        })
        .collect()
}

/// Execution records in a scheduling-independent canonical order.
fn canonical(mut records: Vec<ExecRecord>) -> Vec<ExecRecord> {
    records.sort_by_key(|r| (r.start, r.resource, r.function, r.stmt, r.k));
    records
}

/// The same scenario batch with every model pinned to `backend`.
fn with_backend(scenarios: &[ScenarioSpec], backend: EvalBackend) -> Vec<ScenarioSpec> {
    scenarios
        .iter()
        .cloned()
        .map(|mut s| {
            s.model.backend = backend;
            s
        })
        .collect()
}

#[test]
fn parallel_sweep_matches_single_threaded_path() {
    let scenarios = random_scenarios(0xC0FF_EE00);
    // The scalar baseline: one worker, no lockstep lanes.
    let baseline = run_sweep(
        &scenarios,
        &SweepConfig { threads: 1, batch_width: 1, ..SweepConfig::default() },
    );
    assert_eq!(baseline.scenarios.len(), SCENARIOS as usize);
    // Planner matrix: every combination of worker count and batch width
    // must reproduce the baseline bitwise.
    for threads in [1, 2, THREADS] {
        for batch_width in [1, 4] {
            let report = run_sweep(
                &scenarios,
                &SweepConfig { threads, batch_width, ..SweepConfig::default() },
            );
            for (s, p) in baseline.scenarios.iter().zip(&report.scenarios) {
                assert_eq!(s.index, p.index);
                // The whole deterministic outcome — Y(k), acks, exec
                // records, engine statistics, event counts — must be
                // bitwise identical.
                assert_eq!(
                    s.outcome, p.outcome,
                    "scenario {} (threads={threads} batch={batch_width})",
                    s.label
                );
            }
        }
    }
}

#[test]
fn backends_produce_identical_sweep_reports() {
    let scenarios = random_scenarios(0xBAC0_0001);
    let compiled = run_sweep(
        &with_backend(&scenarios, EvalBackend::Compiled),
        &SweepConfig { threads: THREADS, ..SweepConfig::default() },
    );
    let worklist = run_sweep(
        &with_backend(&scenarios, EvalBackend::Worklist),
        &SweepConfig { threads: THREADS, ..SweepConfig::default() },
    );
    for (c, w) in compiled.scenarios.iter().zip(&worklist.scenarios) {
        assert_eq!(c.index, w.index);
        assert_eq!(c.nodes, w.nodes, "graph size, scenario {}", c.label);
        assert_eq!(c.outcome.outputs, w.outcome.outputs, "Y(k), scenario {}", c.label);
        assert_eq!(
            c.outcome.input_acks, w.outcome.input_acks,
            "input acks, scenario {}",
            c.label
        );
        // Execution records may be emitted in backend-specific order
        // (schedule order vs. worklist pop order) — canonicalize.
        assert_eq!(
            canonical(c.outcome.exec_records.clone()),
            canonical(w.outcome.exec_records.clone()),
            "execution records, scenario {}",
            c.label
        );
        assert_eq!(
            c.outcome.busy_ticks, w.outcome.busy_ticks,
            "busy ticks, scenario {}",
            c.label
        );
        assert_eq!(
            c.outcome.boundary_events, w.outcome.boundary_events,
            "boundary events, scenario {}",
            c.label
        );
        assert_eq!(
            c.outcome.engine_stats.nodes_computed, w.outcome.engine_stats.nodes_computed,
            "nodes computed, scenario {}",
            c.label
        );
        assert_eq!(
            c.outcome.engine_stats.iterations_completed,
            w.outcome.engine_stats.iterations_completed,
            "iterations, scenario {}",
            c.label
        );
    }
}

/// Evaluates one scenario through the kernel-driven equivalent model and
/// shapes the result like a sweep outcome for direct comparison.
fn equivalent_outcome(spec: &ScenarioSpec) -> (ScenarioOutcome, usize) {
    let (arch, input, output) = spec.model.build();
    let env = Environment::new().stimulus(input, spec.trace.stimulus());
    // `EquivalentModelBuilder::padding` pads after derivation, like the
    // sweep's prepare step, so node counts are comparable.
    let sim = evolve_core::EquivalentModelBuilder::new(&arch)
        .padding(spec.model.padding)
        .build(&env)
        .expect("equivalent model builds");
    let node_count = sim.node_count();
    let report = sim.run();
    // The kernel channel log records instants only; sizes carry 0 here and
    // are excluded from the comparison (the DES reference checks them).
    let outputs: Vec<(u64, u64, u64)> = report
        .run
        .instants(output)
        .iter()
        .enumerate()
        .map(|(k, t)| (k as u64, t.ticks(), 0))
        .collect();
    let input_acks: Vec<u64> = report
        .run
        .instants(input)
        .iter()
        .map(|t| t.ticks())
        .collect();
    (
        ScenarioOutcome {
            outputs,
            input_acks,
            exec_records: report.run.exec_records.clone(),
            engine_stats: report.engine_stats,
            busy_ticks: Vec::new(),
            boundary_events: report.boundary_relation_events,
        },
        node_count,
    )
}

#[test]
fn sweep_matches_kernel_equivalent_model() {
    let scenarios = random_scenarios(0xDEAD_BEEF);
    let report = run_sweep(
        &scenarios,
        &SweepConfig { threads: THREADS, ..SweepConfig::default() },
    );
    for (spec, result) in scenarios.iter().zip(&report.scenarios) {
        let (reference, nodes) = equivalent_outcome(spec);
        assert_eq!(result.nodes, nodes, "graph size, scenario {}", spec.label);
        // Y(k) instants (token sizes are checked against the DES reference
        // below; the kernel log records instants only).
        assert_eq!(
            result
                .outcome
                .outputs
                .iter()
                .map(|&(k, y, _)| (k, y))
                .collect::<Vec<_>>(),
            reference
                .outputs
                .iter()
                .map(|&(k, y, _)| (k, y))
                .collect::<Vec<_>>(),
            "Y(k), scenario {}",
            spec.label
        );
        assert_eq!(
            result.outcome.input_acks, reference.input_acks,
            "input acks, scenario {}",
            spec.label
        );
        assert_eq!(
            canonical(result.outcome.exec_records.clone()),
            canonical(reference.exec_records.clone()),
            "execution records, scenario {}",
            spec.label
        );
        assert_eq!(
            result.outcome.engine_stats, reference.engine_stats,
            "engine statistics, scenario {}",
            spec.label
        );
        assert_eq!(
            result.outcome.boundary_events, reference.boundary_events,
            "boundary event count, scenario {}",
            spec.label
        );
    }
}

#[test]
fn sweep_matches_conventional_reference_simulation() {
    let scenarios = random_scenarios(0x5EED_CAFE);
    let report = run_sweep(
        &scenarios,
        &SweepConfig { threads: THREADS, ..SweepConfig::default() },
    );
    for (spec, result) in scenarios.iter().zip(&report.scenarios) {
        let (arch, input, output) = spec.model.build();
        let env = Environment::new().stimulus(input, spec.trace.stimulus());
        let reference = elaborate(&arch, &env)
            .expect("conventional model builds")
            .run();
        assert_eq!(
            result
                .outcome
                .outputs
                .iter()
                .map(|&(_, y, _)| y)
                .collect::<Vec<_>>(),
            reference
                .instants(output)
                .iter()
                .map(|t| t.ticks())
                .collect::<Vec<_>>(),
            "Y(k) vs DES, scenario {}",
            spec.label
        );
        assert_eq!(
            result.outcome.input_acks,
            reference
                .instants(input)
                .iter()
                .map(|t| t.ticks())
                .collect::<Vec<_>>(),
            "input acks vs DES, scenario {}",
            spec.label
        );
        assert_eq!(
            canonical(result.outcome.exec_records.clone()),
            canonical(reference.exec_records.clone()),
            "execution records vs DES, scenario {}",
            spec.label
        );
    }
}
