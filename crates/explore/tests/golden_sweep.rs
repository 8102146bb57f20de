//! Byte-for-byte golden render of a small sweep report (`sweep.json`'s
//! `report` object): per-scenario engine and fast-forward objects, the
//! fast-forward block, and the telemetry snapshot must not move when the
//! counter declarations are reorganised. Host wall-clock fields are
//! zeroed first — they are the only run-to-run variable parts.

use std::time::Duration;

use evolve_explore::{
    default_grid, run_sweep, EvalBackend, ModelKind, ModelSpec, ScenarioSpec, SweepConfig,
    TraceSpec,
};

/// The default grid (batches, worklist and single-lane ejections,
/// fast-forward promotions) plus three single-scenario models that differ
/// only in load, each a leftover single lane — and one empty trace.
fn scenarios() -> Vec<ScenarioSpec> {
    let mut scenarios = default_grid(12, 120);
    for i in 0..4u64 {
        scenarios.push(ScenarioSpec {
            label: format!("sibling-{i}"),
            model: ModelSpec {
                kind: ModelKind::Pipeline {
                    stages: 4,
                    base: 50 + 20 * i,
                    per_unit: 3,
                },
                padding: 0,
                backend: EvalBackend::Compiled,
            },
            trace: TraceSpec {
                tokens: if i == 3 { 0 } else { 120 },
                min_size: 1,
                max_size: 128,
                mean_period: 400,
                seed: 77 + i,
            },
        });
    }
    scenarios
}

#[test]
fn sweep_report_json_is_byte_identical_to_golden() {
    let config = SweepConfig {
        threads: 1,
        batch_width: 2,
        telemetry: true,
        ..SweepConfig::default()
    };
    let mut report = run_sweep(&scenarios(), &config);
    report.wall = Duration::ZERO;
    for s in &mut report.scenarios {
        s.wall = Duration::ZERO;
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../obs/tests/golden/sweep_report.json"
    );
    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    assert_eq!(report.to_json().render(), golden);
}
