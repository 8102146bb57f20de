//! Observation-time telemetry for the evolve engines.
//!
//! The paper's equivalent model promises *zero observability loss*: every
//! intermediate instant a conventional simulation would produce can be
//! replayed on the local observation-time axis (PAPER.md §1, Figs. 7–8).
//! The engines already do that replay into their execution records, so
//! telemetry is a product of what a drive returns, not a second channel
//! out of the engine:
//!
//! - [`TelemetrySink`] — per-resource busy-interval accumulation and
//!   log-bucketed duration histograms ([`LogHistogram`]) over each lane's
//!   execution records, the counter families, and the event-ratio gauge
//!   of the paper's Table I; drivers fill it after each drive;
//! - [`counters`] — the engine, fast-forward, batching, serve and event
//!   counter families, each declared once; struct, merge, JSON,
//!   Prometheus lines and catalogue rows are generated from it;
//! - exporters — Prometheus text exposition ([`prometheus`]), JSON
//!   ([`MetricsSnapshot::to_json`] over the in-tree [`json::Json`]
//!   emitter), and Chrome trace-event JSON for Perfetto
//!   ([`TraceCollector`]).
//!
//! Dependency-wise the crate sits between `evolve-model` (record types)
//! and `evolve-core`/`evolve-explore` (which count into it), so every
//! layer of the stack reports through one telemetry surface.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod counters;
pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod trace;

pub use export::prometheus;
pub use flight::{FlightRecorder, FlightSpan, Phase, TrackId};
pub use json::Json;
pub use counters::{
    catalogue_rows, BatchCounters, CounterField, EngineCounters, EventCounters, FfCounters,
    ServeCounters,
};
pub use metrics::{
    LogHistogram, MetricsSnapshot, PhaseSnapshot, ResourceMetrics, ResourceSnapshot, ServeGauges,
    TelemetrySink,
};
pub use trace::TraceCollector;
