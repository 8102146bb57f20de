//! Length-prefixed binary wire protocol for the `evolved` daemon.
//!
//! Every message travels as one *frame*: a little-endian `u32` payload
//! length followed by that many payload bytes. The payload starts with a
//! one-byte tag selecting the message, then tag-specific fields in
//! little-endian fixed-width encoding. Strings are a `u32` byte length
//! plus UTF-8 bytes; vectors are a `u32` element count plus packed
//! elements.
//!
//! The decoder is hardened against adversarial input: the length prefix
//! is validated against [`FrameReader::new`]'s cap *before* any
//! allocation ([`FrameError::Oversize`]), element counts are checked
//! against the bytes actually present before reserving
//! ([`WireError::TooLong`]), and every read is bounds-checked — malformed
//! payloads surface typed errors, never panics.

use std::fmt;
use std::io::{self, Read, Write};

use evolve_explore::{ModelKind, ModelSpec, TraceSpec};
use evolve_model::Arrival;

use evolve_core::EvalBackend;
use evolve_des::Time;

/// Default cap on a single frame's payload length (8 MiB).
pub const DEFAULT_MAX_FRAME: usize = 8 * 1024 * 1024;

/// Errors surfaced while framing or de-framing the byte stream.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The peer disconnected in the middle of a frame.
    Truncated,
    /// The length prefix exceeds the configured cap; rejected before any
    /// buffer allocation.
    Oversize {
        /// Length the prefix claimed.
        len: u64,
        /// Configured maximum payload length.
        max: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Truncated => write!(f, "peer disconnected mid-frame"),
            FrameError::Oversize { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Errors surfaced while decoding a frame payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the field being read.
    UnexpectedEof,
    /// An unknown message or variant tag.
    UnknownTag(u8),
    /// A string field was not valid UTF-8.
    Utf8,
    /// Bytes remained after the message was fully decoded.
    Trailing,
    /// A declared element count cannot fit in the bytes remaining;
    /// rejected before any allocation.
    TooLong {
        /// Declared element count.
        count: u64,
        /// Payload bytes remaining when the count was read.
        remaining: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "payload truncated"),
            WireError::UnknownTag(t) => write!(f, "unknown tag {t:#04x}"),
            WireError::Utf8 => write!(f, "string field is not UTF-8"),
            WireError::Trailing => write!(f, "trailing bytes after message"),
            WireError::TooLong { count, remaining } => {
                write!(f, "count {count} exceeds {remaining} remaining bytes")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// How an evaluation request names its model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelRef {
    /// The full model spec travels inline with the request.
    Inline(ModelSpec),
    /// Refers to a model preloaded (or [`Request::Load`]ed) by name.
    Named(String),
}

/// How an evaluation request supplies its input trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TracePayload {
    /// Deterministically generated from a [`TraceSpec`] seed.
    Generated(TraceSpec),
    /// Explicit streamed `(offer instant, token size)` pairs; instants
    /// must be non-decreasing.
    Offers(Vec<(u64, u64)>),
}

impl TracePayload {
    /// Materialises the arrival schedule this payload describes.
    ///
    /// Out-of-order explicit offers are clamped monotone (each instant is
    /// at least its predecessor's) rather than rejected, so a hostile
    /// trace cannot trip the stimulus sort assertion server-side.
    pub fn arrivals(&self) -> Vec<Arrival> {
        match self {
            TracePayload::Generated(spec) => spec.stimulus().arrivals().to_vec(),
            TracePayload::Offers(offers) => {
                let mut floor = 0u64;
                offers
                    .iter()
                    .map(|&(at, size)| {
                        floor = floor.max(at);
                        Arrival {
                            at: Time::from_ticks(floor),
                            size,
                        }
                    })
                    .collect()
            }
        }
    }
}

/// One evaluation request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalRequest {
    /// Client-chosen correlation id echoed on the response. Responses on
    /// a pipelined connection arrive in completion order, not submission
    /// order.
    pub id: u64,
    /// The model to evaluate.
    pub model: ModelRef,
    /// The input trace to drive through it.
    pub trace: TracePayload,
}

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Evaluate a trace against a model (tag `0x01`).
    Eval(EvalRequest),
    /// Register a named model for later [`ModelRef::Named`] requests
    /// (tag `0x02`).
    Load {
        /// Registry name.
        name: String,
        /// The spec to register.
        spec: ModelSpec,
    },
    /// Liveness probe (tag `0x03`).
    Ping {
        /// Echoed on the [`Response::Pong`].
        nonce: u64,
    },
    /// Dump the flight recorder as Chrome trace JSON (tag `0x04`).
    Dump,
}

/// Evaluation result payload.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalResponse {
    /// Correlation id from the request.
    pub id: u64,
    /// Per-token `(arrival, start, completion)` output instants.
    pub outputs: Vec<(u64, u64, u64)>,
    /// Input acknowledgement instants, one per offered token.
    pub input_acks: Vec<u64>,
    /// Engine work counters: nodes computed, arcs evaluated, iterations
    /// completed, lanes evaluated, batched iterations.
    pub engine: [u64; 5],
    /// Fast-forward counters: promotions, demotions, fast-forwarded
    /// iterations.
    pub ff: [u64; 3],
    /// Always `false`: cross-scenario delta evaluation was removed. The
    /// field and its wire byte stay so that clients reading them still
    /// work.
    pub delta_attached: bool,
    /// Whether this lane ran inside a lockstep batch.
    pub batched: bool,
    /// Lanes in the dispatch group this request was served with.
    pub lanes_in_batch: u32,
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Evaluation finished (tag `0x81`).
    EvalOk(EvalResponse),
    /// Shed by admission control: the shard queue is at
    /// `max_queue_depth` (tag `0x82`).
    Busy {
        /// Correlation id from the request.
        id: u64,
    },
    /// The request failed (tag `0x83`).
    Error {
        /// Correlation id from the request (0 when the request could not
        /// be decoded far enough to learn it).
        id: u64,
        /// Human-readable cause.
        message: String,
    },
    /// Liveness reply (tag `0x84`).
    Pong {
        /// Nonce from the [`Request::Ping`].
        nonce: u64,
    },
    /// The named model was registered (tag `0x85`).
    Loaded {
        /// Registry name from the [`Request::Load`].
        name: String,
    },
    /// Flight-recorder dump (tag `0x86`): a Perfetto-loadable Chrome
    /// trace JSON document. An empty `traceEvents` document when the
    /// daemon runs with the recorder disabled.
    Trace {
        /// The rendered trace document.
        json: String,
    },
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_model(buf: &mut Vec<u8>, spec: &ModelSpec) {
    match spec.kind {
        ModelKind::Didactic { stages } => {
            put_u8(buf, 0);
            put_u32(buf, stages as u32);
        }
        ModelKind::Pipeline {
            stages,
            base,
            per_unit,
        } => {
            put_u8(buf, 1);
            put_u32(buf, stages as u32);
            put_u64(buf, base);
            put_u64(buf, per_unit);
        }
        ModelKind::WidePipeline {
            stages,
            base,
            per_unit,
            chains,
        } => {
            put_u8(buf, 2);
            put_u32(buf, stages as u32);
            put_u64(buf, base);
            put_u64(buf, per_unit);
            put_u32(buf, chains as u32);
        }
    }
    put_u32(buf, spec.padding as u32);
    put_u8(buf, match spec.backend {
        EvalBackend::Compiled => 0,
        EvalBackend::Worklist => 1,
    });
}

/// Serialises a request into a frame payload (without the length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    match req {
        Request::Eval(eval) => {
            put_u8(&mut buf, 0x01);
            put_u64(&mut buf, eval.id);
            match &eval.model {
                ModelRef::Inline(spec) => {
                    put_u8(&mut buf, 0);
                    put_model(&mut buf, spec);
                }
                ModelRef::Named(name) => {
                    put_u8(&mut buf, 1);
                    put_str(&mut buf, name);
                }
            }
            match &eval.trace {
                TracePayload::Generated(t) => {
                    put_u8(&mut buf, 0);
                    for v in [t.tokens, t.min_size, t.max_size, t.mean_period, t.seed] {
                        put_u64(&mut buf, v);
                    }
                }
                TracePayload::Offers(offers) => {
                    put_u8(&mut buf, 1);
                    put_u32(&mut buf, offers.len() as u32);
                    for &(at, size) in offers {
                        put_u64(&mut buf, at);
                        put_u64(&mut buf, size);
                    }
                }
            }
        }
        Request::Load { name, spec } => {
            put_u8(&mut buf, 0x02);
            put_str(&mut buf, name);
            put_model(&mut buf, spec);
        }
        Request::Ping { nonce } => {
            put_u8(&mut buf, 0x03);
            put_u64(&mut buf, *nonce);
        }
        Request::Dump => {
            put_u8(&mut buf, 0x04);
        }
    }
    buf
}

/// Serialises a response into a frame payload (without the length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    match resp {
        Response::EvalOk(ok) => {
            put_u8(&mut buf, 0x81);
            put_u64(&mut buf, ok.id);
            put_u32(&mut buf, ok.outputs.len() as u32);
            for &(a, s, c) in &ok.outputs {
                put_u64(&mut buf, a);
                put_u64(&mut buf, s);
                put_u64(&mut buf, c);
            }
            put_u32(&mut buf, ok.input_acks.len() as u32);
            for &ack in &ok.input_acks {
                put_u64(&mut buf, ack);
            }
            for v in ok.engine {
                put_u64(&mut buf, v);
            }
            for v in ok.ff {
                put_u64(&mut buf, v);
            }
            put_u8(&mut buf, u8::from(ok.delta_attached));
            put_u8(&mut buf, u8::from(ok.batched));
            put_u32(&mut buf, ok.lanes_in_batch);
        }
        Response::Busy { id } => {
            put_u8(&mut buf, 0x82);
            put_u64(&mut buf, *id);
        }
        Response::Error { id, message } => {
            put_u8(&mut buf, 0x83);
            put_u64(&mut buf, *id);
            put_str(&mut buf, message);
        }
        Response::Pong { nonce } => {
            put_u8(&mut buf, 0x84);
            put_u64(&mut buf, *nonce);
        }
        Response::Loaded { name } => {
            put_u8(&mut buf, 0x85);
            put_str(&mut buf, name);
        }
        Response::Trace { json } => {
            put_u8(&mut buf, 0x86);
            put_str(&mut buf, json);
        }
    }
    buf
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Validates `count` elements of `elem_size` bytes fit in the
    /// remaining payload, so a hostile count cannot force a huge
    /// allocation.
    fn count(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let count = self.u32()? as u64;
        let need = count.checked_mul(elem_size as u64);
        match need {
            Some(need) if need <= self.remaining() as u64 => Ok(count as usize),
            _ => Err(WireError::TooLong {
                count,
                remaining: self.remaining(),
            }),
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Utf8)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing)
        }
    }

    fn model(&mut self) -> Result<ModelSpec, WireError> {
        let kind = match self.u8()? {
            0 => ModelKind::Didactic {
                stages: self.u32()? as usize,
            },
            1 => ModelKind::Pipeline {
                stages: self.u32()? as usize,
                base: self.u64()?,
                per_unit: self.u64()?,
            },
            2 => ModelKind::WidePipeline {
                stages: self.u32()? as usize,
                base: self.u64()?,
                per_unit: self.u64()?,
                chains: self.u32()? as usize,
            },
            t => return Err(WireError::UnknownTag(t)),
        };
        let padding = self.u32()? as usize;
        let backend = match self.u8()? {
            0 => EvalBackend::Compiled,
            1 => EvalBackend::Worklist,
            // Tag 2 is retired (a removed backend) and never reused.
            t => return Err(WireError::UnknownTag(t)),
        };
        Ok(ModelSpec {
            kind,
            padding,
            backend,
        })
    }
}

/// Decodes a request payload.
///
/// # Errors
///
/// Returns a [`WireError`] for any malformed payload; never panics.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut c = Cursor::new(payload);
    let req = match c.u8()? {
        0x01 => {
            let id = c.u64()?;
            let model = match c.u8()? {
                0 => ModelRef::Inline(c.model()?),
                1 => ModelRef::Named(c.string()?),
                t => return Err(WireError::UnknownTag(t)),
            };
            let trace = match c.u8()? {
                0 => TracePayload::Generated(TraceSpec {
                    tokens: c.u64()?,
                    min_size: c.u64()?,
                    max_size: c.u64()?,
                    mean_period: c.u64()?,
                    seed: c.u64()?,
                }),
                1 => {
                    let count = c.count(16)?;
                    let mut offers = Vec::with_capacity(count);
                    for _ in 0..count {
                        offers.push((c.u64()?, c.u64()?));
                    }
                    TracePayload::Offers(offers)
                }
                t => return Err(WireError::UnknownTag(t)),
            };
            Request::Eval(EvalRequest { id, model, trace })
        }
        0x02 => Request::Load {
            name: c.string()?,
            spec: c.model()?,
        },
        0x03 => Request::Ping { nonce: c.u64()? },
        0x04 => Request::Dump,
        t => return Err(WireError::UnknownTag(t)),
    };
    c.finish()?;
    Ok(req)
}

/// Decodes a response payload.
///
/// # Errors
///
/// Returns a [`WireError`] for any malformed payload; never panics.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut c = Cursor::new(payload);
    let resp = match c.u8()? {
        0x81 => {
            let id = c.u64()?;
            let count = c.count(24)?;
            let mut outputs = Vec::with_capacity(count);
            for _ in 0..count {
                outputs.push((c.u64()?, c.u64()?, c.u64()?));
            }
            let count = c.count(8)?;
            let mut input_acks = Vec::with_capacity(count);
            for _ in 0..count {
                input_acks.push(c.u64()?);
            }
            let mut engine = [0u64; 5];
            for v in &mut engine {
                *v = c.u64()?;
            }
            let mut ff = [0u64; 3];
            for v in &mut ff {
                *v = c.u64()?;
            }
            let delta_attached = c.u8()? != 0;
            let batched = c.u8()? != 0;
            let lanes_in_batch = c.u32()?;
            Response::EvalOk(EvalResponse {
                id,
                outputs,
                input_acks,
                engine,
                ff,
                delta_attached,
                batched,
                lanes_in_batch,
            })
        }
        0x82 => Response::Busy { id: c.u64()? },
        0x83 => Response::Error {
            id: c.u64()?,
            message: c.string()?,
        },
        0x84 => Response::Pong { nonce: c.u64()? },
        0x85 => Response::Loaded { name: c.string()? },
        0x86 => Response::Trace { json: c.string()? },
        t => return Err(WireError::UnknownTag(t)),
    };
    c.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------------
// Frame IO
// ---------------------------------------------------------------------------

/// Writes one frame (length prefix + payload) to `w`.
///
/// # Errors
///
/// Returns [`FrameError::Oversize`] when the payload exceeds `max`, or
/// [`FrameError::Io`] when the transport fails.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max: usize) -> Result<(), FrameError> {
    if payload.len() > max {
        return Err(FrameError::Oversize {
            len: payload.len() as u64,
            max,
        });
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame from a blocking stream.
///
/// Returns `Ok(None)` on clean end-of-stream (EOF exactly at a frame
/// boundary).
///
/// # Errors
///
/// [`FrameError::Truncated`] when the peer disconnects mid-frame,
/// [`FrameError::Oversize`] when the prefix exceeds `max` (checked
/// before the payload buffer is allocated), [`FrameError::Io`] on
/// transport failure.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(FrameError::Truncated)
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > max {
        return Err(FrameError::Oversize {
            len: len as u64,
            max,
        });
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Some(payload))
}

/// Incremental de-framer for non-blocking reads: feed bytes as they
/// arrive with [`FrameReader::extend`], drain complete frames with
/// [`FrameReader::next_frame`].
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    max: usize,
}

impl FrameReader {
    /// Creates a de-framer enforcing `max` payload bytes per frame.
    pub fn new(max: usize) -> Self {
        FrameReader {
            buf: Vec::new(),
            max,
        }
    }

    /// Appends freshly-read bytes to the internal buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether a partial frame is buffered (disconnecting now would be
    /// mid-frame).
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Pops the next complete frame, or `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversize`] as soon as a length prefix exceeding the
    /// cap is visible — before any payload accumulates.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > self.max {
            return Err(FrameError::Oversize {
                len: len as u64,
                max: self.max,
            });
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }
}
