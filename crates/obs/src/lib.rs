//! Streaming observation-time telemetry for the evolve engines.
//!
//! The paper's equivalent model promises *zero observability loss*: every
//! intermediate instant a conventional simulation would produce can be
//! replayed on the local observation-time axis (PAPER.md §1, Figs. 7–8).
//! This crate turns that guarantee into a live telemetry layer instead of
//! a post-hoc buffer scan:
//!
//! - [`Observer`] — a sealed sink trait engines call at their boundary
//!   (one branch per offer when detached, so disabled telemetry costs
//!   nothing measurable in the hot loop);
//! - [`EngineEvent`] — structured lifecycle events: backend selection,
//!   iteration sweeps, fast-forward promotion/demotion, batch lane
//!   ejection, overflow errors;
//! - [`TelemetrySink`] — bounded-memory streaming metrics: incremental
//!   busy-interval accumulation, log-bucketed duration histograms
//!   ([`LogHistogram`]), and the live event-ratio gauge of the paper's
//!   Table I; [`PeriodUsage`] folds a one-period template analytically
//!   (period count × per-period usage) for promoted lanes;
//! - [`counters`] — the engine, fast-forward, batching, delta, serve and
//!   event counter families, each declared once; struct, merge, JSON,
//!   Prometheus lines and catalogue rows are generated from it;
//! - exporters — Prometheus text exposition ([`prometheus`]), JSON
//!   ([`MetricsSnapshot::to_json`] over the in-tree [`json::Json`]
//!   emitter), and Chrome trace-event JSON for Perfetto
//!   ([`TraceCollector`]).
//!
//! Dependency-wise the crate sits between `evolve-model` (record types)
//! and `evolve-core`/`evolve-explore` (which emit into it), so every
//! layer of the stack reports through one telemetry surface.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod counters;
pub mod event;
pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod observer;
pub mod trace;

pub use event::{BackendKind, EjectReason, EngineEvent};
pub use export::prometheus;
pub use flight::{FlightRecorder, FlightSpan, Phase, TrackId};
pub use json::Json;
pub use counters::{
    catalogue_rows, BatchCounters, CounterField, DeltaCounters, EngineCounters, EventCounters,
    FfCounters, ServeCounters,
};
pub use metrics::{
    FoldedResource, LogHistogram, MetricsSnapshot, PeriodUsage, PhaseSnapshot, ResourceMetrics,
    ResourceSnapshot, ServeGauges, TelemetrySink,
};
pub use observer::{downcast, NullObserver, Observer};
pub use trace::TraceCollector;
