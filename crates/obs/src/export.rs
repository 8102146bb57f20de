//! Prometheus text-exposition rendering of a [`MetricsSnapshot`].
//!
//! The format is the plain-text exposition format (version 0.0.4): one
//! `# HELP` / `# TYPE` header per family, `evolve_`-prefixed metric
//! names, labels for per-resource series, and `_bucket`/`_sum`/`_count`
//! series for the log-bucketed duration histograms.

use std::fmt::{Display, Write as _};

use crate::counters::CounterField;
use crate::metrics::{LogHistogram, MetricsSnapshot, ResourceSnapshot};

fn family(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Exposition lines of one counter family: one `# HELP`/`# TYPE` header
/// per metric, then one sample per field (labelled fields share their
/// metric's header).
pub(crate) fn write_counters(out: &mut String, fields: &[CounterField], values: &[u64]) {
    let mut metric = "";
    for (f, v) in fields.iter().zip(values) {
        if f.metric != metric {
            metric = f.metric;
            family(out, f.metric, f.help, f.kind);
        }
        let _ = match f.label {
            Some((key, value)) => writeln!(out, "{}{{{key}=\"{value}\"}} {v}", f.metric),
            None => writeln!(out, "{} {v}", f.metric),
        };
    }
}

/// The `_bucket`/`_sum`/`_count` series of one histogram labelled
/// `label`; `unit` renders bucket bounds and the sum in the exposed unit.
fn histogram<U: Display>(
    out: &mut String,
    name: &str,
    label: &str,
    hist: &LogHistogram,
    unit: impl Fn(u64) -> U,
) {
    for (le, cum) in hist.cumulative_buckets() {
        let _ = writeln!(out, "{name}_bucket{{{label},le=\"{}\"}} {cum}", unit(le));
    }
    let _ = writeln!(out, "{name}_bucket{{{label},le=\"+Inf\"}} {}", hist.count());
    let _ = writeln!(out, "{name}_sum{{{label}}} {}", unit(hist.sum()));
    let _ = writeln!(out, "{name}_count{{{label}}} {}", hist.count());
}

/// One per-resource family: name, help, kind, and the sample's value.
type ResourceFamily = (&'static str, &'static str, &'static str, fn(&ResourceSnapshot) -> String);

fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
    family(out, name, help, "gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// Renders `snapshot` in the Prometheus text exposition format.
pub fn prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();

    // Build metadata first, so a scrape that is truncated mid-stream
    // still identifies the producing binary.
    family(
        &mut out,
        "evolve_build_info",
        "Build metadata; value is always 1",
        "gauge",
    );
    let _ = writeln!(
        out,
        "evolve_build_info{{version=\"{}\",profile=\"{}\"}} 1",
        env!("CARGO_PKG_VERSION"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );

    snapshot.engine.write_prometheus(&mut out);
    snapshot.ff.write_prometheus(&mut out);
    snapshot.batch.write_prometheus(&mut out);
    snapshot.serve.write_prometheus(&mut out);

    if let Some(gauges) = &snapshot.serve_gauges {
        gauge(
            &mut out,
            "evolve_serve_queue_depth",
            "Requests currently queued across all shards",
            gauges.queue_depth,
        );
        gauge(
            &mut out,
            "evolve_serve_connections",
            "Live client connections",
            gauges.connections,
        );
        family(
            &mut out,
            "evolve_uptime_seconds",
            "Seconds since the server started",
            "gauge",
        );
        let _ = writeln!(out, "evolve_uptime_seconds {}", gauges.uptime_seconds);
    }

    if !snapshot.phases.is_empty() {
        family(
            &mut out,
            "evolve_serve_phase_seconds",
            "Request-lifecycle phase latency (flight recorder; power-of-two buckets)",
            "histogram",
        );
        for p in &snapshot.phases {
            let label = format!("phase=\"{}\"", p.phase);
            histogram(
                &mut out,
                "evolve_serve_phase_seconds",
                &label,
                &p.hist,
                |ns| ns as f64 / 1e9,
            );
        }
    }

    snapshot.events.write_prometheus(&mut out);

    family(
        &mut out,
        "evolve_boundary_events_total",
        "Interface instants the equivalent model still simulates",
        "counter",
    );
    let _ = writeln!(
        out,
        "evolve_boundary_events_total {}",
        snapshot.boundary_events
    );

    family(
        &mut out,
        "evolve_event_ratio",
        "Kernel events avoided plus boundary events, over boundary events (Table I)",
        "gauge",
    );
    match snapshot.event_ratio() {
        Some(ratio) => {
            let _ = writeln!(out, "evolve_event_ratio {ratio}");
        }
        None => {
            let _ = writeln!(out, "evolve_event_ratio NaN");
        }
    }

    let per_resource: [ResourceFamily; 5] = [
        (
            "evolve_resource_busy_ticks_total",
            "Observation-time busy ticks per resource",
            "counter",
            |r| r.busy_ticks.to_string(),
        ),
        (
            "evolve_resource_ops_total",
            "Abstract operations executed per resource",
            "counter",
            |r| r.ops.to_string(),
        ),
        (
            "evolve_resource_records_total",
            "Execution records observed per resource",
            "counter",
            |r| r.records.to_string(),
        ),
        (
            "evolve_resource_out_of_order_total",
            "Records clamped by the streaming frontier (busy time exact iff 0)",
            "counter",
            |r| r.out_of_order.to_string(),
        ),
        (
            "evolve_resource_utilization",
            "Busy ticks over observed horizon per resource",
            "gauge",
            |r| r.utilization.to_string(),
        ),
    ];
    for (name, help, kind, value) in per_resource {
        family(&mut out, name, help, kind);
        for r in &snapshot.resources {
            let _ = writeln!(out, "{name}{{resource=\"{}\"}} {}", r.resource, value(r));
        }
    }
    family(
        &mut out,
        "evolve_resource_exec_duration_ticks",
        "Execution record durations per resource (power-of-two buckets)",
        "histogram",
    );
    for r in &snapshot.resources {
        let label = format!("resource=\"{}\"", r.resource);
        histogram(
            &mut out,
            "evolve_resource_exec_duration_ticks",
            &label,
            &r.durations,
            |t| t,
        );
    }

    out
}

#[cfg(test)]
mod tests {
    use evolve_des::Time;
    use evolve_model::{ExecRecord, FunctionId, ResourceId};

    use crate::metrics::TelemetrySink;

    use super::*;

    #[test]
    fn prometheus_exposition_shape() {
        let mut sink = TelemetrySink::new();
        sink.record_lane(&[ExecRecord {
            resource: ResourceId::from_index(2),
            function: FunctionId::from_index(0),
            stmt: 0,
            k: 0,
            start: Time::from_ticks(0),
            end: Time::from_ticks(10),
            ops: 100,
        }]);
        sink.record_events(crate::EventCounters {
            offers: 1,
            ..crate::EventCounters::default()
        });
        sink.record_serve(crate::ServeCounters {
            requests: 5,
            rejected: 2,
            batches_full: 1,
            lanes_batched: 4,
            ..crate::ServeCounters::default()
        });
        let text = prometheus(&sink.snapshot());
        assert!(text.contains("# TYPE evolve_engine_nodes_computed_total counter"));
        assert!(text.contains("evolve_serve_requests_total 5"));
        assert!(text.contains("evolve_serve_rejected_total 2"));
        assert!(text.contains("evolve_serve_batches_total{trigger=\"full\"} 1"));
        assert!(text.contains("evolve_serve_lanes_total{path=\"batched\"} 4"));
        assert!(text.contains("evolve_resource_busy_ticks_total{resource=\"2\"} 10"));
        assert!(text.contains("evolve_events_total{kind=\"offer\"} 1"));
        assert!(text.contains("evolve_resource_exec_duration_ticks_bucket{resource=\"2\",le=\"16\"} 1"));
        assert!(text.contains("evolve_resource_exec_duration_ticks_bucket{resource=\"2\",le=\"+Inf\"} 1"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn empty_snapshot_renders_nan_ratio() {
        let text = prometheus(&TelemetrySink::new().snapshot());
        assert!(text.contains("evolve_event_ratio NaN"));
    }

    #[test]
    fn build_info_always_present() {
        let text = prometheus(&TelemetrySink::new().snapshot());
        assert!(text.contains("# TYPE evolve_build_info gauge"));
        assert!(text.contains(&format!(
            "evolve_build_info{{version=\"{}\",profile=\"",
            env!("CARGO_PKG_VERSION")
        )));
    }

    #[test]
    fn serve_gauges_and_phase_histograms_render() {
        use crate::flight::{FlightRecorder, Phase, TrackId};
        use crate::metrics::ServeGauges;

        let recorder = FlightRecorder::new(1, 8);
        let track = recorder.register_track("shard-0");
        assert_ne!(track, TrackId::INVALID);
        recorder.record(track, Phase::QueueWait, 1, 0, 1_500, 0, 0);
        recorder.record(track, Phase::Eval, 1, 1_500, 9_000, 0, 1);

        let mut snapshot = TelemetrySink::new().snapshot();
        snapshot.phases = recorder.phase_snapshots();
        snapshot.serve_gauges = Some(ServeGauges {
            queue_depth: 3,
            connections: 2,
            uptime_seconds: 1.5,
        });
        let text = prometheus(&snapshot);
        assert!(text.contains("evolve_serve_queue_depth 3"));
        assert!(text.contains("evolve_serve_connections 2"));
        assert!(text.contains("evolve_uptime_seconds 1.5"));
        assert!(text.contains("# TYPE evolve_serve_phase_seconds histogram"));
        assert!(text.contains("evolve_serve_phase_seconds_count{phase=\"queue_wait\"} 1"));
        assert!(text.contains("evolve_serve_phase_seconds_bucket{phase=\"eval\",le=\"+Inf\"} 1"));
        // 1500 ns rounds into the 2^11 bucket = 2048 ns = 2.048e-6 s.
        assert!(text.contains("evolve_serve_phase_seconds_bucket{phase=\"queue_wait\",le=\"0.000002048\"} 1"));
    }
}
