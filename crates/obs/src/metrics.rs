//! Observation-time resource metrics and counter aggregation.
//!
//! [`TelemetrySink`] is filled after each engine drive from what the drive
//! returned: every lane's [`ExecRecord`]s fold into per-resource
//! accumulators ([`ResourceMetrics`]), and the drive's counters
//! ([`EventCounters`] and the other families) add up. The records are the
//! ones the engine replayed from its computed instants — fast-forward
//! template replay included — so the accumulated busy time equals the
//! post-hoc `ResourceTrace` analysis exactly.
//!
//! A finished sink (or several merged shards) freezes into a
//! [`MetricsSnapshot`], exportable as JSON or Prometheus text exposition
//! (see [`crate::export`]).

use evolve_model::ExecRecord;

use crate::counters::{BatchCounters, EngineCounters, EventCounters, FfCounters, ServeCounters};
use crate::json::Json;

/// Number of [`LogHistogram`] buckets: one for zero plus one per power of
/// two up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log-bucketed (power-of-two) histogram of `u64` samples.
///
/// Bucket `0` counts zero samples; bucket `i ≥ 1` counts samples in
/// `[2^(i-1), 2^i)`. Fixed size, so recording is O(1) and merging two
/// histograms is exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// Bucket index of `value`.
    fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Bucket index of `value`, for the lock-free atomic twin in
    /// [`crate::flight`].
    pub(crate) fn bucket_index(value: u64) -> usize {
        Self::bucket_of(value)
    }

    /// Reconstructs a histogram from raw parts (the atomic twin's
    /// snapshot path).
    pub(crate) fn from_parts(
        buckets: [u64; HISTOGRAM_BUCKETS],
        count: u64,
        sum: u64,
        max: u64,
    ) -> LogHistogram {
        LogHistogram {
            buckets,
            count,
            sum,
            max,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Adds every bucket of `other` into this histogram.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `(upper_bound, count)` per non-empty bucket. The upper bound of
    /// bucket `i` is `2^i` (exclusive); the last bucket reports
    /// `u64::MAX`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| {
                let upper = if i >= 64 { u64::MAX } else { 1u64 << i };
                (upper, *c)
            })
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0.0 < q <= 1.0`); 0 when empty. Power-of-two bucket resolution:
    /// the true quantile lies within 2x of the returned bound, which is
    /// what p50/p95/p99 latency summaries need.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return match i {
                    0 => 0,
                    i if i >= 64 => u64::MAX,
                    i => 1u64 << i,
                };
            }
        }
        self.max
    }

    /// Cumulative `(upper_bound, count ≤ upper_bound)` pairs over non-empty
    /// buckets — the shape Prometheus `le` buckets want.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut cum = 0u64;
        let mut out = Vec::new();
        for (i, c) in self.buckets.iter().enumerate() {
            cum += c;
            if *c > 0 {
                let upper = if i >= 64 { u64::MAX } else { 1u64 << i };
                out.push((upper, cum));
            }
        }
        out
    }
}

/// Streaming per-resource accumulator.
///
/// Maintains the running busy time with a single open frontier interval:
/// records arriving in non-decreasing start order (the engines' production
/// order within one lane) merge exactly, matching
/// [`ResourceTrace::from_records`](evolve_model::ResourceTrace::from_records).
/// A record starting before the frontier is clamped and counted in
/// [`out_of_order`](ResourceMetrics::out_of_order); busy time is exact iff
/// that counter is zero (it then under-approximates, never over-counts).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResourceMetrics {
    /// Busy ticks of already-closed merged intervals.
    closed_busy: u64,
    /// The open merged interval `[start, end)`, if any.
    frontier: Option<(u64, u64)>,
    /// Total abstract operations executed.
    pub ops: u64,
    /// Execution records observed (including zero-width ones).
    pub records: u64,
    /// Records that started before the streaming frontier (clamped).
    pub out_of_order: u64,
    /// Largest end instant observed, in ticks.
    pub horizon_ticks: u64,
    /// Histogram of record durations (ticks).
    pub durations: LogHistogram,
}

impl ResourceMetrics {
    /// Folds one execution record into the accumulator.
    pub fn observe(&mut self, start: u64, end: u64, ops: u64) {
        self.records += 1;
        self.ops += ops;
        self.horizon_ticks = self.horizon_ticks.max(end);
        self.durations.record(end.saturating_sub(start));
        if end <= start {
            return; // zero-width records never contribute busy time
        }
        let (mut s, e) = (start, end);
        if let Some((fs, fe)) = self.frontier {
            if s < fs {
                self.out_of_order += 1;
                s = fs; // clamp: busy time becomes a lower bound
            }
            if s <= fe {
                self.frontier = Some((fs, fe.max(e)));
                return;
            }
            self.closed_busy += fe - fs;
        }
        if s < e {
            self.frontier = Some((s, e));
        }
    }

    /// Closes the open frontier (end of a scenario / time axis).
    pub fn seal(&mut self) {
        if let Some((fs, fe)) = self.frontier.take() {
            self.closed_busy += fe - fs;
        }
    }

    /// Total busy ticks accumulated so far (frontier included).
    pub fn busy_ticks(&self) -> u64 {
        self.closed_busy + self.frontier.map_or(0, |(s, e)| e - s)
    }

    /// Utilization over the observed horizon; 0.0 at a zero horizon.
    pub fn utilization(&self) -> f64 {
        if self.horizon_ticks == 0 {
            0.0
        } else {
            self.busy_ticks() as f64 / self.horizon_ticks as f64
        }
    }

    /// Folds another accumulator (a different scenario / shard) into this
    /// one. Both frontiers are sealed: the time axes are unrelated.
    pub fn merge(&mut self, other: &ResourceMetrics) {
        self.seal();
        let mut other = other.clone();
        other.seal();
        self.closed_busy += other.closed_busy;
        self.ops += other.ops;
        self.records += other.records;
        self.out_of_order += other.out_of_order;
        self.horizon_ticks = self.horizon_ticks.max(other.horizon_ticks);
        self.durations.merge(&other.durations);
    }
}

/// Telemetry of a run of engine drives: counter families plus
/// per-resource accumulators, mergeable across worker shards.
///
/// Drivers fill it from what each drive returned ([`record_lane`] per
/// lane, the `record_*` methods per counter family); the serve daemon adds
/// its serving counters.
///
/// [`record_lane`]: TelemetrySink::record_lane
#[derive(Debug, Default)]
pub struct TelemetrySink {
    /// Engine work counters.
    pub engine: EngineCounters,
    /// Fast-forward counters.
    pub ff: FfCounters,
    /// Batching counters.
    pub batch: BatchCounters,
    /// Serving-layer counters.
    pub serve: ServeCounters,
    /// Engine lifecycle event counts.
    pub events: EventCounters,
    /// Boundary events: input arrivals plus output writes, every lane of
    /// every drive (the paper's Table I count).
    pub boundary_events: u64,
    /// Detected periodic regimes `(growth, period)`, one per evaluated
    /// lane that settled into one.
    pub regimes: Vec<(u64, u64)>,
    /// Per-resource accumulators over every recorded lane, by resource.
    resources: Vec<ResourceMetrics>,
}

impl TelemetrySink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds an engine's work counters into the sink.
    pub fn record_engine(&mut self, counters: EngineCounters) {
        self.engine.merge(&counters);
    }

    /// Folds fast-forward counters into the sink.
    pub fn record_ff(&mut self, counters: FfCounters) {
        self.ff.merge(&counters);
    }

    /// Folds batching counters into the sink.
    pub fn record_batch(&mut self, counters: BatchCounters) {
        self.batch.merge(&counters);
    }

    /// Folds serving-layer counters into the sink.
    pub fn record_serve(&mut self, counters: ServeCounters) {
        self.serve.merge(&counters);
    }

    /// Folds lifecycle event counters into the sink.
    pub fn record_events(&mut self, counters: EventCounters) {
        self.events.merge(&counters);
    }

    /// Folds one lane's execution records, in production order, into the
    /// per-resource accumulators. Each call is its own time axis: the
    /// lane's merged intervals are sealed before they join the totals.
    pub fn record_lane(&mut self, records: &[ExecRecord]) {
        let mut lane: Vec<ResourceMetrics> = Vec::new();
        for r in records {
            Self::resource_slot(&mut lane, r.resource.index()).observe(
                r.start.ticks(),
                r.end.ticks(),
                r.ops,
            );
        }
        self.merge_resources(&lane);
    }

    fn resource_slot(v: &mut Vec<ResourceMetrics>, idx: usize) -> &mut ResourceMetrics {
        if v.len() <= idx {
            v.resize(idx + 1, ResourceMetrics::default());
        }
        &mut v[idx]
    }

    fn merge_resources(&mut self, resources: &[ResourceMetrics]) {
        for (idx, rm) in resources.iter().enumerate() {
            if rm.records > 0 {
                Self::resource_slot(&mut self.resources, idx).merge(rm);
            }
        }
    }

    /// Folds another shard (a different worker) into this sink.
    pub fn merge(&mut self, other: TelemetrySink) {
        self.engine.merge(&other.engine);
        self.ff.merge(&other.ff);
        self.batch.merge(&other.batch);
        self.serve.merge(&other.serve);
        self.events.merge(&other.events);
        self.boundary_events += other.boundary_events;
        self.regimes.extend(other.regimes);
        self.merge_resources(&other.resources);
    }

    /// Freezes the sink into an exportable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let resources = self
            .resources
            .iter()
            .enumerate()
            .filter(|(_, rm)| rm.records > 0)
            .map(|(idx, rm)| ResourceSnapshot {
                resource: idx,
                busy_ticks: rm.busy_ticks(),
                ops: rm.ops,
                records: rm.records,
                out_of_order: rm.out_of_order,
                horizon_ticks: rm.horizon_ticks,
                utilization: rm.utilization(),
                durations: rm.durations.clone(),
            })
            .collect();
        MetricsSnapshot {
            engine: self.engine,
            ff: self.ff,
            batch: self.batch,
            serve: self.serve,
            events: self.events,
            boundary_events: self.boundary_events,
            regimes: self.regimes.clone(),
            resources,
            phases: Vec::new(),
            serve_gauges: None,
        }
    }
}

/// Frozen per-resource metrics inside a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct ResourceSnapshot {
    /// Resource index.
    pub resource: usize,
    /// Total busy ticks (exact iff `out_of_order == 0`).
    pub busy_ticks: u64,
    /// Total abstract operations.
    pub ops: u64,
    /// Execution records observed.
    pub records: u64,
    /// Records clamped by the streaming frontier.
    pub out_of_order: u64,
    /// Largest end instant observed.
    pub horizon_ticks: u64,
    /// `busy_ticks / horizon_ticks` (0.0 at a zero horizon).
    pub utilization: f64,
    /// Record-duration histogram.
    pub durations: LogHistogram,
}

/// One serving lifecycle phase's latency histogram
/// (nanosecond samples), fed by the flight recorder
/// ([`crate::flight::FlightRecorder::phase_snapshots`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Stable phase name ([`crate::flight::Phase::name`]).
    pub phase: &'static str,
    /// Duration histogram, nanoseconds.
    pub hist: LogHistogram,
}

/// Live serving gauges sampled at scrape time by the daemon's `/metrics`
/// listener (not accumulated per shard, so not part of shard merges).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServeGauges {
    /// Requests currently queued across all shards.
    pub queue_depth: u64,
    /// Live client connections.
    pub connections: u64,
    /// Seconds since the server started.
    pub uptime_seconds: f64,
}

/// An exportable, immutable view of everything a [`TelemetrySink`] (or a
/// merge of shards) collected.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Engine work counters.
    pub engine: EngineCounters,
    /// Fast-forward counters.
    pub ff: FfCounters,
    /// Batching counters.
    pub batch: BatchCounters,
    /// Serving-layer counters.
    pub serve: ServeCounters,
    /// Lifecycle event counts.
    pub events: EventCounters,
    /// Boundary events: input arrivals plus output writes, every lane of
    /// every drive (the paper's Table I count).
    pub boundary_events: u64,
    /// Detected periodic regimes `(growth, period)`, one per evaluated
    /// lane that settled into one.
    pub regimes: Vec<(u64, u64)>,
    /// Per-resource metrics, sorted by resource index.
    pub resources: Vec<ResourceSnapshot>,
    /// Per-phase request-lifecycle latency histograms (flight recorder).
    /// Empty when no recorder is attached.
    pub phases: Vec<PhaseSnapshot>,
    /// Live serving gauges, set by the daemon at scrape time.
    pub serve_gauges: Option<ServeGauges>,
}

impl MetricsSnapshot {
    /// The live event-ratio gauge (paper Table I column 3): kernel events
    /// the equivalent model avoids (internal instants computed
    /// arithmetically, `nodes_computed`) plus the boundary events it still
    /// simulates, over the boundary events. `None` before any boundary
    /// event. Table I maps this ratio to the attainable speed-up when the
    /// per-event dispatch cost dominates.
    pub fn event_ratio(&self) -> Option<f64> {
        let boundary = self.boundary_events;
        if boundary == 0 {
            return None;
        }
        Some((self.engine.nodes_computed + boundary) as f64 / boundary as f64)
    }

    /// Total busy ticks across all resources.
    pub fn total_busy_ticks(&self) -> u64 {
        self.resources.iter().map(|r| r.busy_ticks).sum()
    }

    /// Folds another snapshot into this one: counters add, regimes
    /// concatenate, and per-resource metrics merge by resource index
    /// (busy/ops/records add, horizons take the max, utilization is
    /// recomputed over the merged horizon, histograms merge exactly).
    ///
    /// This is the frozen-side counterpart of [`TelemetrySink::merge`],
    /// used where live sinks cannot be handed over — e.g. the serve
    /// daemon's `/metrics` listener folding per-shard published snapshots
    /// into one exposition.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.engine.merge(&other.engine);
        self.ff.merge(&other.ff);
        self.batch.merge(&other.batch);
        self.serve.merge(&other.serve);
        self.events.merge(&other.events);
        self.boundary_events += other.boundary_events;
        self.regimes.extend(other.regimes.iter().copied());
        for theirs in &other.resources {
            match self
                .resources
                .iter_mut()
                .find(|r| r.resource == theirs.resource)
            {
                Some(ours) => {
                    ours.busy_ticks += theirs.busy_ticks;
                    ours.ops += theirs.ops;
                    ours.records += theirs.records;
                    ours.out_of_order += theirs.out_of_order;
                    ours.horizon_ticks = ours.horizon_ticks.max(theirs.horizon_ticks);
                    ours.utilization = if ours.horizon_ticks == 0 {
                        0.0
                    } else {
                        ours.busy_ticks as f64 / ours.horizon_ticks as f64
                    };
                    ours.durations.merge(&theirs.durations);
                }
                None => self.resources.push(theirs.clone()),
            }
        }
        self.resources.sort_by_key(|r| r.resource);
        for theirs in &other.phases {
            match self.phases.iter_mut().find(|p| p.phase == theirs.phase) {
                Some(ours) => ours.hist.merge(&theirs.hist),
                None => self.phases.push(theirs.clone()),
            }
        }
        if self.serve_gauges.is_none() {
            self.serve_gauges = other.serve_gauges;
        }
    }

    /// Renders the snapshot as a JSON document (see
    /// `docs/OBSERVABILITY.md` for the schema).
    pub fn to_json(&self) -> Json {
        let histogram_json = |h: &LogHistogram| {
            Json::object([
                ("count", Json::U64(h.count())),
                ("sum", Json::U64(h.sum())),
                ("max", Json::U64(h.max())),
                (
                    "buckets",
                    Json::Array(
                        h.nonzero_buckets()
                            .map(|(le, n)| {
                                Json::object([("le", Json::U64(le)), ("count", Json::U64(n))])
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        let mut fast_forward = self.ff.json_fields();
        fast_forward.push((
            "regimes".to_string(),
            Json::Array(
                self.regimes
                    .iter()
                    .map(|(g, p)| {
                        Json::object([("growth", Json::U64(*g)), ("period", Json::U64(*p))])
                    })
                    .collect(),
            ),
        ));
        let mut events = self.events.json_fields();
        events.push((
            "boundary_events".to_string(),
            Json::U64(self.boundary_events),
        ));
        Json::object([
            ("engine", self.engine.to_json()),
            ("fast_forward", Json::Object(fast_forward)),
            ("batching", self.batch.to_json()),
            ("serve", self.serve.to_json()),
            ("events", Json::Object(events)),
            (
                "event_ratio",
                self.event_ratio().map_or(Json::Null, Json::F64),
            ),
            (
                "serve_phases",
                Json::Array(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::object([
                                ("phase", Json::str(p.phase)),
                                ("count", Json::U64(p.hist.count())),
                                (
                                    "p50_seconds",
                                    Json::F64(p.hist.quantile(0.50) as f64 / 1e9),
                                ),
                                (
                                    "p95_seconds",
                                    Json::F64(p.hist.quantile(0.95) as f64 / 1e9),
                                ),
                                (
                                    "p99_seconds",
                                    Json::F64(p.hist.quantile(0.99) as f64 / 1e9),
                                ),
                                ("mean_seconds", Json::F64(p.hist.mean() / 1e9)),
                                ("max_seconds", Json::F64(p.hist.max() as f64 / 1e9)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "serve_gauges",
                self.serve_gauges.map_or(Json::Null, |g| {
                    Json::object([
                        ("queue_depth", Json::U64(g.queue_depth)),
                        ("connections", Json::U64(g.connections)),
                        ("uptime_seconds", Json::F64(g.uptime_seconds)),
                    ])
                }),
            ),
            (
                "resources",
                Json::Array(
                    self.resources
                        .iter()
                        .map(|r| {
                            Json::object([
                                ("resource", Json::U64(r.resource as u64)),
                                ("busy_ticks", Json::U64(r.busy_ticks)),
                                ("ops", Json::U64(r.ops)),
                                ("records", Json::U64(r.records)),
                                ("out_of_order", Json::U64(r.out_of_order)),
                                ("horizon_ticks", Json::U64(r.horizon_ticks)),
                                ("utilization", Json::F64(r.utilization)),
                                ("durations", histogram_json(&r.durations)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use evolve_des::Time;
    use evolve_model::{ExecRecord, FunctionId, ResourceId};
    use proptest::prelude::*;

    use super::*;

    fn rec(resource: usize, start: u64, end: u64, ops: u64) -> ExecRecord {
        ExecRecord {
            resource: ResourceId::from_index(resource),
            function: FunctionId::from_index(0),
            stmt: 0,
            k: 0,
            start: Time::from_ticks(start),
            end: Time::from_ticks(end),
            ops,
        }
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = LogHistogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(h.max(), 1024);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(1, 1), (2, 1), (4, 2), (2048, 1)]);
        let cumulative = h.cumulative_buckets();
        assert_eq!(cumulative, vec![(1, 1), (2, 2), (4, 4), (2048, 5)]);
    }

    #[test]
    fn histogram_merge_is_exact() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        a.record(5);
        b.record(5);
        b.record(100);
        let mut merged = a.clone();
        merged.merge(&b);
        let mut direct = LogHistogram::default();
        direct.record(5);
        direct.record(5);
        direct.record(100);
        assert_eq!(merged, direct);
    }

    #[test]
    fn streaming_busy_matches_merged_intervals_in_order() {
        let mut rm = ResourceMetrics::default();
        rm.observe(0, 10, 5);
        rm.observe(5, 15, 5); // overlaps
        rm.observe(20, 30, 5); // disjoint
        assert_eq!(rm.busy_ticks(), 25);
        assert_eq!(rm.out_of_order, 0);
        assert_eq!(rm.ops, 15);
        assert_eq!(rm.horizon_ticks, 30);
    }

    #[test]
    fn zero_width_records_counted_but_not_busy() {
        let mut rm = ResourceMetrics::default();
        rm.observe(10, 10, 3);
        assert_eq!(rm.busy_ticks(), 0);
        assert_eq!(rm.records, 1);
        assert_eq!(rm.ops, 3);
        assert_eq!(rm.utilization(), 0.0); // horizon 10, busy 0
    }

    #[test]
    fn out_of_order_record_is_clamped_and_counted() {
        let mut rm = ResourceMetrics::default();
        rm.observe(10, 20, 1);
        rm.observe(0, 5, 1); // starts before the frontier
        assert_eq!(rm.out_of_order, 1);
        assert_eq!(rm.busy_ticks(), 10); // lower bound, never over-counts
    }

    #[test]
    fn utilization_zero_horizon_is_zero() {
        let rm = ResourceMetrics::default();
        assert_eq!(rm.utilization(), 0.0);
    }

    #[test]
    fn merge_seals_frontiers_across_scenarios() {
        let mut a = ResourceMetrics::default();
        a.observe(0, 10, 1);
        let mut b = ResourceMetrics::default();
        b.observe(0, 7, 1); // same time axis range, different scenario
        a.merge(&b);
        assert_eq!(a.busy_ticks(), 17);
        assert_eq!(a.records, 2);
    }

    #[test]
    fn sink_folds_lanes_and_counts_events() {
        let mut sink = TelemetrySink::new();
        sink.record_lane(&[rec(0, 0, 10, 100), rec(1, 2, 6, 50)]);
        sink.record_events(EventCounters {
            offers: 1,
            output_acks: 1,
            promotions: 1,
            ..EventCounters::default()
        });
        sink.regimes.push((7, 2));
        let snap = sink.snapshot();
        assert_eq!(snap.events.offers, 1);
        assert_eq!(snap.events.output_acks, 1);
        assert_eq!(snap.regimes, vec![(7, 2)]);
        assert_eq!(snap.resources.len(), 2);
        assert_eq!(snap.resources[0].busy_ticks, 10);
        assert_eq!(snap.resources[1].busy_ticks, 4);
        assert_eq!(snap.total_busy_ticks(), 14);
    }

    #[test]
    fn each_lane_is_its_own_time_axis() {
        let mut sink = TelemetrySink::new();
        sink.record_lane(&[rec(0, 50, 60, 1), rec(0, 60, 70, 1)]);
        // The next lane (or scenario) starts earlier on its own axis: not
        // out of order.
        sink.record_lane(&[rec(0, 0, 10, 1)]);
        let snap = sink.snapshot();
        assert_eq!(snap.resources[0].busy_ticks, 30);
        assert_eq!(snap.resources[0].out_of_order, 0);
    }

    #[test]
    fn shard_merge_matches_single_sink() {
        let offer = EventCounters {
            offers: 1,
            ..EventCounters::default()
        };
        let mut a = TelemetrySink::new();
        a.record_lane(&[rec(0, 0, 10, 5)]);
        a.record_events(offer);
        let mut b = TelemetrySink::new();
        b.record_lane(&[rec(0, 0, 20, 7)]);
        b.record_events(EventCounters {
            replayed_offers: 1,
            ..offer
        });
        a.merge(b);
        let snap = a.snapshot();
        assert_eq!(snap.resources[0].busy_ticks, 30);
        assert_eq!(snap.resources[0].ops, 12);
        assert_eq!(snap.events.offers, 2);
        assert_eq!(snap.events.replayed_offers, 1);
    }

    #[test]
    fn event_ratio_counts_avoided_over_boundary() {
        let mut sink = TelemetrySink::new();
        sink.record_engine(EngineCounters {
            nodes_computed: 98,
            ..EngineCounters::default()
        });
        sink.boundary_events = 2;
        let snap = sink.snapshot();
        assert_eq!(snap.event_ratio(), Some(50.0));
        assert_eq!(TelemetrySink::new().snapshot().event_ratio(), None);
    }

    #[test]
    fn snapshot_merge_matches_sink_merge() {
        let mut a = TelemetrySink::new();
        a.record_lane(&[rec(0, 0, 10, 5)]);
        a.record_serve(ServeCounters {
            requests: 3,
            rejected: 1,
            ..ServeCounters::default()
        });
        let mut b = TelemetrySink::new();
        b.record_lane(&[rec(0, 0, 20, 7)]);
        b.record_lane(&[rec(1, 5, 9, 2)]);
        b.record_serve(ServeCounters {
            requests: 4,
            lanes_batched: 4,
            ..ServeCounters::default()
        });

        // Freeze the shards first, then merge the snapshots...
        let mut frozen = a.snapshot();
        frozen.merge(&b.snapshot());
        // ...which must equal merging the live sinks and freezing once.
        a.merge(b);
        let direct = a.snapshot();

        assert_eq!(frozen, direct);
        assert_eq!(frozen.serve.requests, 7);
        assert_eq!(frozen.serve.rejected, 1);
        assert_eq!(frozen.serve.lanes_batched, 4);
        assert_eq!(frozen.resources.len(), 2);
        assert_eq!(frozen.resources[0].busy_ticks, 30);
    }

    #[test]
    fn snapshot_merge_into_empty_is_identity() {
        let mut sink = TelemetrySink::new();
        sink.record_lane(&[rec(2, 0, 10, 5)]);
        sink.record_serve(ServeCounters {
            responses: 9,
            ..ServeCounters::default()
        });
        let snap = sink.snapshot();
        let mut empty = MetricsSnapshot::default();
        empty.merge(&snap);
        assert_eq!(empty, snap);
    }

    #[test]
    fn snapshot_json_renders() {
        let mut sink = TelemetrySink::new();
        sink.record_lane(&[rec(0, 0, 10, 100)]);
        let doc = sink.snapshot().to_json().render();
        assert!(doc.contains("\"busy_ticks\":10"));
        assert!(doc.contains("\"event_ratio\":null"));
    }

    proptest! {
        #[test]
        fn prop_streaming_busy_matches_resource_trace_for_sorted_records(
            mut starts in proptest::collection::vec(0u64..1000, 1..40),
            widths in proptest::collection::vec(0u64..50, 40),
        ) {
            starts.sort_unstable();
            let records: Vec<ExecRecord> = starts
                .iter()
                .zip(widths.iter())
                .map(|(s, w)| rec(0, *s, s + w, 1))
                .collect();
            let mut rm = ResourceMetrics::default();
            for r in &records {
                rm.observe(r.start.ticks(), r.end.ticks(), r.ops);
            }
            let trace =
                evolve_model::ResourceTrace::from_records(&records, ResourceId::from_index(0));
            prop_assert_eq!(rm.out_of_order, 0);
            prop_assert_eq!(rm.busy_ticks(), trace.busy_ticks());
        }
    }
}
