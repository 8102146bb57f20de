//! Admission validation: wire-supplied specs and traces that would
//! panic a shard (`build()` asserts on zero stages) or allocate without
//! bound (huge generated traces, giant model graphs) are refused with a
//! typed error at admission — the daemon stays fully serviceable.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use evolve_core::EvalBackend;
use evolve_explore::{ModelKind, ModelSpec, TraceSpec};
use evolve_serve::{
    encode_request, Bind, EvalRequest, ModelRef, Request, Response, ServeClient, ServeConfig,
    Server, TracePayload,
};

fn didactic(stages: usize, padding: usize) -> ModelSpec {
    ModelSpec {
        kind: ModelKind::Didactic { stages },
        padding,
        backend: EvalBackend::Compiled,
    }
}

fn generated(tokens: u64) -> TracePayload {
    TracePayload::Generated(TraceSpec {
        tokens,
        min_size: 1,
        max_size: 4,
        mean_period: 50,
        seed: 7,
    })
}

fn eval(id: u64, model: ModelRef, trace: TracePayload) -> Request {
    Request::Eval(EvalRequest { id, model, trace })
}

fn start_single_shard() -> (Server, String) {
    let server = Server::start(
        ServeConfig {
            shards: 1,
            batch_width: 1,
            ..ServeConfig::default()
        },
        &[Bind::Tcp("127.0.0.1:0".into())],
        None,
    )
    .unwrap();
    let addr = server.tcp_addr().unwrap().to_string();
    (server, addr)
}

/// A zero-stage inline spec must not reach `spec.build()` (which would
/// assert and kill the shard thread): it gets a typed error, and the
/// same shard still answers a valid evaluation afterwards.
#[test]
fn zero_stage_spec_rejected_and_shard_survives() {
    let (server, addr) = start_single_shard();
    let mut client = ServeClient::connect_tcp(&addr).unwrap();

    let resp = client
        .call(&eval(1, ModelRef::Inline(didactic(0, 0)), generated(4)))
        .unwrap();
    assert!(
        matches!(&resp, Response::Error { id: 1, message } if message.contains("stage")),
        "expected stage validation error, got {resp:?}"
    );

    // The shard that would have died still serves this.
    let resp = client
        .call(&eval(2, ModelRef::Inline(didactic(2, 0)), generated(4)))
        .unwrap();
    assert!(
        matches!(resp, Response::EvalOk(ref ok) if ok.id == 2),
        "expected EvalOk after rejection, got {resp:?}"
    );
    server.shutdown_and_join();
}

/// Calls over a raw connection with a read timeout, so a request whose
/// shard died fails the test instead of hanging it.
fn call_or_time_out(conn: &mut TcpStream, req: &Request) -> Response {
    let max = 8 * 1024 * 1024;
    evolve_serve::protocol::write_frame(conn, &encode_request(req), max).unwrap();
    let frame = evolve_serve::protocol::read_frame(conn, max)
        .expect("the shard answers within the read timeout")
        .expect("the server keeps the connection open");
    evolve_serve::decode_response(&frame).unwrap()
}

/// Loads and offers past the engine's (max,+) time range — a pipeline
/// base of `u64::MAX / 2`, an offer instant of `2^63` — must not reach a
/// shard (where `MaxPlus::new` would panic and kill the shard thread):
/// each gets a typed error, and the same single shard still answers a
/// valid evaluation afterwards.
#[test]
fn out_of_range_loads_and_offers_rejected_and_shard_survives() {
    let (server, addr) = start_single_shard();
    let mut conn = TcpStream::connect(&addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let huge_load = ModelSpec {
        kind: ModelKind::Pipeline {
            stages: 2,
            base: u64::MAX / 2,
            per_unit: 1,
        },
        padding: 0,
        backend: EvalBackend::Compiled,
    };
    let offers = TracePayload::Offers(vec![(0, 1), (10, 1)]);
    let req = eval(7, ModelRef::Inline(huge_load), offers);
    let resp = call_or_time_out(&mut conn, &req);
    assert!(
        matches!(&resp, Response::Error { id: 7, message } if message.contains("time range")),
        "expected time-range error, got {resp:?}"
    );

    let late_offer = TracePayload::Offers(vec![(0, 1), (1 << 63, 1)]);
    let req = eval(8, ModelRef::Inline(didactic(2, 0)), late_offer);
    let resp = call_or_time_out(&mut conn, &req);
    assert!(
        matches!(&resp, Response::Error { id: 8, message } if message.contains("time range")),
        "expected time-range error, got {resp:?}"
    );

    // The shard that would have died still serves this.
    let req = eval(9, ModelRef::Inline(didactic(2, 0)), generated(4));
    let resp = call_or_time_out(&mut conn, &req);
    assert!(
        matches!(resp, Response::EvalOk(ref ok) if ok.id == 9),
        "expected EvalOk after rejection, got {resp:?}"
    );
    server.shutdown_and_join();
}

/// A generated trace claiming `u64::MAX` tokens is refused before any
/// arrivals are materialised — a ~60-byte frame must not be able to
/// allocate without bound.
#[test]
fn huge_generated_trace_rejected_before_materialisation() {
    let (server, addr) = start_single_shard();
    let mut client = ServeClient::connect_tcp(&addr).unwrap();

    let resp = client
        .call(&eval(3, ModelRef::Inline(didactic(2, 0)), generated(u64::MAX)))
        .unwrap();
    assert!(
        matches!(&resp, Response::Error { id: 3, message } if message.contains("tokens")),
        "expected trace cap error, got {resp:?}"
    );
    server.shutdown_and_join();
}

/// Oversized model dimensions (stages or padding beyond the caps) are
/// refused at admission, for inline specs and `Load` alike.
#[test]
fn oversized_model_dimensions_rejected() {
    let (server, addr) = start_single_shard();
    let mut client = ServeClient::connect_tcp(&addr).unwrap();

    let giant_stages = didactic(u32::MAX as usize, 0);
    let resp = client
        .call(&eval(4, ModelRef::Inline(giant_stages.clone()), generated(4)))
        .unwrap();
    assert!(
        matches!(&resp, Response::Error { id: 4, message } if message.contains("stages")),
        "expected stages cap error, got {resp:?}"
    );

    let giant_padding = didactic(2, u32::MAX as usize);
    let resp = client
        .call(&eval(5, ModelRef::Inline(giant_padding), generated(4)))
        .unwrap();
    assert!(
        matches!(&resp, Response::Error { id: 5, message } if message.contains("padding")),
        "expected padding cap error, got {resp:?}"
    );

    let resp = client
        .call(&Request::Load {
            name: "giant".to_string(),
            spec: giant_stages,
        })
        .unwrap();
    assert!(
        matches!(resp, Response::Error { id: 0, .. }),
        "expected load rejection, got {resp:?}"
    );
    // The invalid spec must not have been registered.
    let resp = client
        .call(&eval(6, ModelRef::Named("giant".to_string()), generated(4)))
        .unwrap();
    assert!(
        matches!(&resp, Response::Error { id: 6, message } if message.contains("unknown model")),
        "expected unknown-model error, got {resp:?}"
    );
    server.shutdown_and_join();
}

/// Beyond `max_connections` a new connection is refused with a typed
/// error and closed; once established connections go away their reader
/// handles are reaped and new connections are admitted again.
#[test]
fn connection_cap_refuses_then_reaps() {
    let server = Server::start(
        ServeConfig {
            shards: 1,
            batch_width: 1,
            max_connections: 1,
            ..ServeConfig::default()
        },
        &[Bind::Tcp("127.0.0.1:0".into())],
        None,
    )
    .unwrap();
    let addr = server.tcp_addr().unwrap().to_string();

    let mut first = ServeClient::connect_tcp(&addr).unwrap();
    let pong = first.call(&Request::Ping { nonce: 1 }).unwrap();
    assert_eq!(pong, Response::Pong { nonce: 1 });

    // Second connection: refused with a typed error frame (written
    // unprompted at accept time), then closed.
    let mut second = TcpStream::connect(&addr).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let frame = evolve_serve::protocol::read_frame(&mut second, 8 * 1024 * 1024)
        .unwrap()
        .expect("refusal frame expected");
    let resp = evolve_serve::decode_response(&frame).unwrap();
    assert!(
        matches!(&resp, Response::Error { id: 0, message } if message.contains("connection limit")),
        "expected connection-limit error, got {resp:?}"
    );

    // Free the slot; the finished reader is reaped on a later accept.
    drop(first);
    drop(second);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut retry = ServeClient::connect_tcp(&addr).unwrap();
        match retry.call(&Request::Ping { nonce: 3 }) {
            Ok(Response::Pong { nonce: 3 }) => break,
            _ if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50))
            }
            other => panic!("connection slot never reaped: {other:?}"),
        }
    }
    server.shutdown_and_join();
}

/// A peer that streams bytes continuously (so the reader never hits its
/// read-timeout arm) must not delay graceful shutdown: the hot read
/// path re-checks the shutdown flag.
#[test]
fn shutdown_drains_despite_continuously_streaming_peer() {
    let server = Server::start(
        ServeConfig {
            shards: 1,
            batch_width: 1,
            // The flood never reads its responses, so response writes to
            // it will time out; keep that bound short for the test.
            write_timeout: Duration::from_millis(500),
            ..ServeConfig::default()
        },
        &[Bind::Tcp("127.0.0.1:0".into())],
        None,
    )
    .unwrap();
    let addr = server.tcp_addr().unwrap().to_string();

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flood_stop = std::sync::Arc::clone(&stop);
    let flood_addr = addr.clone();
    let flood = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(&flood_addr).unwrap();
        let ping = encode_request(&Request::Ping { nonce: 0 });
        let mut frame = (ping.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&ping);
        // Keep the daemon's Ok(n) read arm hot until told to stop (or
        // until the draining server closes the socket under us).
        while !flood_stop.load(std::sync::atomic::Ordering::SeqCst) {
            if conn.write_all(&frame).is_err() {
                break;
            }
        }
    });

    // Give the flood time to get established, then require a prompt
    // drain despite it.
    std::thread::sleep(Duration::from_millis(100));
    let begun = Instant::now();
    server.shutdown_and_join();
    assert!(
        begun.elapsed() < Duration::from_secs(10),
        "shutdown stalled behind a streaming peer: {:?}",
        begun.elapsed()
    );
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    flood.join().unwrap();
}
