//! Telemetry exactness: the sinks are built after each drive from the
//! execution records the drive returned, so they must agree with the
//! post-hoc [`ResourceTrace::from_records`] analysis exactly — also on a
//! promoted (fast-forwarded) scenario, where most iterations were answered
//! by template replay — and the drive's counters must match the engine's.

use evolve_core::obs::TelemetrySink;
use evolve_core::EvalBackend;
use evolve_des::Time;
use evolve_explore::cache::{drive_prepared, prepare, DeltaMode, EngineOptions};
use evolve_explore::{trace_scenario, ModelKind, ModelSpec, ScenarioSpec, SweepConfig, TraceSpec};
use evolve_model::{Arrival, ExecRecord, ResourceId, ResourceTrace};

/// A padded synthetic pipeline the fast-forward detector promotes on a
/// strictly periodic stimulus.
fn promoting_model() -> ModelSpec {
    ModelSpec {
        kind: ModelKind::Pipeline { stages: 3, base: 60, per_unit: 2 },
        padding: 8,
        backend: EvalBackend::Compiled,
    }
}

/// A strictly periodic stimulus; most iterations are answered by O(1)
/// template replay.
fn promoting_arrivals() -> Vec<Arrival> {
    (0..200u64).map(|k| Arrival { at: Time::from_ticks(k * 40), size: 8 }).collect()
}

/// Busy ticks, operations and record count of `resource` over `records`.
fn usage(records: &[ExecRecord], resource: usize) -> (u64, u64, u64) {
    let id = ResourceId::from_index(resource);
    let on: Vec<&ExecRecord> = records.iter().filter(|r| r.resource == id).collect();
    (
        ResourceTrace::from_records(records, id).busy_ticks(),
        on.iter().map(|r| r.ops).sum(),
        on.len() as u64,
    )
}

/// The sink's accumulators equal the post-hoc `ResourceTrace` analysis on
/// a promoted scenario, and its counters equal the engine's.
#[test]
fn sink_busy_is_exact_across_fast_forward() {
    let options = EngineOptions::default();
    let mut prepared = prepare(&promoting_model(), &options);
    let mut tel = Some(Box::new(TelemetrySink::new()));
    let drive =
        drive_prepared(&mut prepared, &promoting_arrivals(), &options, &mut tel, DeltaMode::Off);
    let ff = drive.fast_forward;
    assert!(ff.promotions >= 1, "scenario must promote: {ff:?}");
    assert!(ff.fast_forwarded_iterations > 0, "{ff:?}");

    let snapshot = tel.expect("sink returned").snapshot();
    assert!(!snapshot.resources.is_empty(), "records were folded");
    let records = &drive.outcome.exec_records;
    for rs in &snapshot.resources {
        assert_eq!(rs.out_of_order, 0, "resource {} folded in order", rs.resource);
        assert_eq!(
            (rs.busy_ticks, rs.ops, rs.records),
            usage(records, rs.resource),
            "resource {}: sink == ResourceTrace",
            rs.resource
        );
    }
    assert_eq!(snapshot.events.offers, 200, "one offer per arrival");
    assert_eq!(snapshot.events.replayed_offers, ff.fast_forwarded_iterations);
    assert_eq!(snapshot.events.promotions, ff.promotions);
    assert_eq!(snapshot.events.attaches, 1);
    assert_eq!(snapshot.boundary_events, drive.outcome.boundary_events);
    assert_eq!(snapshot.engine, drive.outcome.engine_stats);
    assert_eq!(snapshot.regimes.len(), 1, "one regime per promoted lane");
}

/// The Perfetto export path: intervals merged by the trace collector equal
/// `ResourceTrace::from_records` on the same drive — the acceptance
/// criterion for `sweep --trace` on a fast-forwarded scenario.
#[test]
fn trace_collector_matches_resource_trace_on_promoted_scenario() {
    let spec = ScenarioSpec {
        label: "promoting".into(),
        model: promoting_model(),
        trace: TraceSpec { tokens: 200, min_size: 8, max_size: 8, mean_period: 0, seed: 1 },
    };
    let (result, collector) = trace_scenario(&spec, &SweepConfig::default());
    assert!(result.fast_forward.promotions >= 1, "scenario must promote");

    let records = &result.outcome.exec_records;
    let resources: std::collections::BTreeSet<usize> =
        records.iter().map(|r| r.resource.index()).collect();
    assert!(!resources.is_empty());
    for resource in resources {
        let expected = ResourceTrace::from_records(records, ResourceId::from_index(resource));
        assert_eq!(
            collector.merged_intervals(0, resource),
            expected.intervals,
            "resource {resource}: exported intervals == ResourceTrace"
        );
    }
}

/// Engine reuse across scenarios: each drive is its own time axis, so a
/// reused engine's second scenario adds to the first instead of
/// corrupting the accumulators with a rewound axis, and counts a reset.
#[test]
fn reuse_sums_usage_across_scenarios() {
    let options = EngineOptions::default();
    let mut prepared = prepare(&promoting_model(), &options);
    let mut tel = Some(Box::new(TelemetrySink::new()));
    let arrivals = promoting_arrivals();
    let first = drive_prepared(&mut prepared, &arrivals, &options, &mut tel, DeltaMode::Off);
    let second = drive_prepared(&mut prepared, &arrivals, &options, &mut tel, DeltaMode::Off);
    assert!(second.reused_engine);

    let snapshot = tel.expect("sink returned").snapshot();
    assert_eq!(snapshot.events.resets, 1, "one drive on a reused engine");
    assert_eq!(snapshot.events.attaches, 2);
    for rs in &snapshot.resources {
        let busy = usage(&first.outcome.exec_records, rs.resource).0
            + usage(&second.outcome.exec_records, rs.resource).0;
        assert_eq!(rs.out_of_order, 0, "each drive is its own time axis");
        assert_eq!(rs.busy_ticks, busy, "resource {}: busy sums across scenarios", rs.resource);
    }
}

/// A trace that promotes, breaks its pattern (demotion) and re-promotes
/// counts two promotions but one regime: regimes are per scenario lane.
#[test]
fn repromotion_counts_two_promotions_and_one_regime() {
    let options = EngineOptions::default();
    let mut prepared = prepare(&promoting_model(), &options);
    let mut at = 0u64;
    let arrivals: Vec<Arrival> = (0..300u64)
        .map(|k| {
            at += if k == 150 { 9_999 } else { 40 };
            Arrival { at: Time::from_ticks(at), size: 8 }
        })
        .collect();
    let mut tel = Some(Box::new(TelemetrySink::new()));
    let drive = drive_prepared(&mut prepared, &arrivals, &options, &mut tel, DeltaMode::Off);
    assert_eq!(drive.fast_forward.demotions, 1, "{:?}", drive.fast_forward);
    assert_eq!(drive.fast_forward.promotions, 2, "{:?}", drive.fast_forward);

    let snapshot = tel.expect("sink returned").snapshot();
    assert_eq!(snapshot.events.promotions, 2);
    assert_eq!(snapshot.events.demotions, 1);
    assert_eq!(snapshot.regimes.len(), 1, "{:?}", snapshot.regimes);
}
