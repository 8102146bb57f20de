//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program itself carries no tracing for this benchmark: every span
//! here wraps one call from benchmark code into a layer's public
//! functions. Spans stay in memory and are written once, at the end of
//! a traced run, as a Chrome trace-event document rendered with
//! `evolve_obs`'s JSON writer (the format of the daemon's flight-recorder
//! `Dump`, under its own process id so the two files open side by side).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use evolve_obs::Json;

/// Chrome-trace process id of benchmark spans (the flight recorder uses 3).
const PID_BENCH: u64 = 4;

/// One completed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer the wrapped call belongs to.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Request or scenario id the span served.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times calls and, when enabled, records each as a span. Every call is
/// timed either way (the timings feed the end-to-end metrics), so the
/// traced run differs from the untraced one only by the span bookkeeping.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    /// Chrome-trace thread id (one tracer per benchmark thread).
    pub tid: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Wall time spent inside [`Tracer::window`] calls.
    window: Duration,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant, tid: u64) -> Tracer {
        Tracer {
            enabled,
            origin,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
            window: Duration::ZERO,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` as a span named `name` serving request `req`, returning
    /// its result and duration.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        if !self.enabled {
            let out = f(self);
            return (out, start.elapsed());
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(index);
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[index].end_ns = self.ns(end);
        (out, end - start)
    }

    /// Runs `f` as part of the traced window whose uncovered remainder is
    /// reported as the residual.
    pub fn window<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let start = Instant::now();
        let out = f(self);
        self.window += start.elapsed();
        out
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-layer self time across tracers: each span's duration minus the
/// part its child spans cover, summed by layer, plus the window time no
/// span covers (`residual`).
#[derive(Debug, Default)]
pub struct SelfTimes {
    pub by_layer: BTreeMap<&'static str, u64>,
    pub residual_ns: u64,
    pub window_ns: u64,
}

impl SelfTimes {
    pub fn of(tracers: &[&Tracer]) -> SelfTimes {
        let mut out = SelfTimes::default();
        for t in tracers {
            let mut self_ns: Vec<u64> = t.spans.iter().map(Span::dur_ns).collect();
            let mut roots = 0u64;
            for s in &t.spans {
                match s.parent {
                    Some(p) => self_ns[p] = self_ns[p].saturating_sub(s.dur_ns()),
                    None => roots += s.dur_ns(),
                }
            }
            for (s, ns) in t.spans.iter().zip(self_ns) {
                *out.by_layer.entry(s.name).or_default() += ns;
            }
            let window = t.window.as_nanos() as u64;
            out.window_ns += window;
            out.residual_ns += window.saturating_sub(roots);
        }
        out
    }
}

/// Spans written to the file, shared evenly among the tracers; each writes
/// its first ones, whose parents all come before them. Self times are
/// computed from every span.
pub const FILE_SPANS: usize = 20_000;

/// Renders the spans of every tracer as one Chrome trace-event document,
/// with the host and run stamp in the process metadata.
pub fn chrome_trace(tracers: &[&Tracer], stamp: &[(&'static str, String)]) -> String {
    let mut events = vec![Json::object([
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", Json::U64(PID_BENCH)),
        ("tid", Json::U64(0)),
        (
            "args",
            Json::object([("name", Json::str("perfbench (host time)"))]),
        ),
    ])];
    events.push(Json::object([
        ("name", Json::str("host_stamp")),
        ("ph", Json::str("M")),
        ("pid", Json::U64(PID_BENCH)),
        ("tid", Json::U64(0)),
        (
            "args",
            Json::Object(
                stamp
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::str(v.clone())))
                    .collect(),
            ),
        ),
    ]));
    for t in tracers {
        events.push(Json::object([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::U64(PID_BENCH)),
            ("tid", Json::U64(t.tid)),
            (
                "args",
                Json::object([("name", Json::str(format!("bench thread {}", t.tid)))]),
            ),
        ]));
        for (i, s) in t.spans.iter().enumerate().take(FILE_SPANS / tracers.len()) {
            events.push(Json::object([
                ("name", Json::str(s.name)),
                ("cat", Json::str("perfbench")),
                ("ph", Json::str("X")),
                ("pid", Json::U64(PID_BENCH)),
                ("tid", Json::U64(t.tid)),
                ("ts", Json::F64(s.start_ns as f64 / 1000.0)),
                ("dur", Json::F64(s.dur_ns() as f64 / 1000.0)),
                (
                    "args",
                    Json::object([
                        ("span", Json::U64(i as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                        ("req", Json::U64(s.req)),
                    ]),
                ),
            ]));
        }
    }
    Json::object([
        ("traceEvents", Json::Array(events)),
        ("displayTimeUnit", Json::str("ns")),
    ])
    .render()
}
