//! Byte-for-byte golden renders of a fully populated [`MetricsSnapshot`]:
//! the Prometheus exposition and the JSON document must not move when the
//! counter declarations are reorganised. Every counter field carries a
//! distinct non-zero value, so a field rendered under the wrong name, in
//! the wrong place, or not at all changes the output.

use evolve_obs::{
    prometheus, BatchCounters, EngineCounters, EventCounters, FfCounters,
    LogHistogram, MetricsSnapshot, PhaseSnapshot, ResourceSnapshot, ServeCounters, ServeGauges,
};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The fixtures are rendered from a debug build; `evolve_build_info` names
/// the build profile, so a release run compares under the debug label.
fn debug_profile(text: String) -> String {
    text.replace("profile=\"release\"", "profile=\"debug\"")
}

fn populated() -> MetricsSnapshot {
    let mut durations = LogHistogram::default();
    for d in [0, 3, 17, 17, 900] {
        durations.record(d);
    }
    let mut phase = LogHistogram::default();
    for ns in [1_500, 9_000, 250_000] {
        phase.record(ns);
    }
    MetricsSnapshot {
        engine: EngineCounters {
            nodes_computed: 101,
            arcs_evaluated: 102,
            iterations_completed: 103,
            lanes_evaluated: 104,
            batched_iterations: 105,
        },
        ff: FfCounters {
            promotions: 201,
            demotions: 202,
            fast_forwarded_iterations: 203,
        },
        batch: BatchCounters {
            batch_width: 301,
            batches_formed: 302,
            lanes_batched: 303,
            lanes_scalar: 304,
            lockstep_iterations: 305,
            kernel_chunked_sweeps: 306,
            kernel_scalar_sweeps: 307,
            eject_worklist: 308,
            eject_empty_trace: 309,
            eject_single_lane: 310,
            eject_unsupported: 311,
        },
        serve: ServeCounters {
            connections: 501,
            requests: 502,
            rejected: 503,
            responses: 504,
            errors: 505,
            batches_full: 506,
            batches_deadline: 507,
            lanes_batched: 508,
            lanes_scalar: 509,
        },
        events: EventCounters {
            attaches: 601,
            offers: 602,
            replayed_offers: 603,
            batch_sweeps: 604,
            replayed_batch_sweeps: 605,
            output_acks: 606,
            promotions: 607,
            demotions: 608,
            lane_ejections: 609,
            overflows: 610,
            resets: 611,
        },
        boundary_events: 1208,
        regimes: vec![(7, 2), (12, 3)],
        resources: vec![ResourceSnapshot {
            resource: 3,
            busy_ticks: 700,
            ops: 701,
            records: 702,
            out_of_order: 703,
            horizon_ticks: 1400,
            utilization: 0.5,
            durations,
        }],
        phases: vec![PhaseSnapshot {
            phase: "eval",
            hist: phase,
        }],
        serve_gauges: Some(ServeGauges {
            queue_depth: 7,
            connections: 2,
            uptime_seconds: 12.5,
        }),
    }
}

#[test]
fn prometheus_exposition_is_byte_identical_to_golden() {
    let rendered = debug_profile(prometheus(&populated()));
    assert_eq!(rendered, fixture("snapshot.prom"));
}

#[test]
fn snapshot_json_is_byte_identical_to_golden() {
    let rendered = populated().to_json().render();
    assert_eq!(rendered, fixture("snapshot.json"));
}
