//! Wire-protocol hardening: no input a peer can send — truncated,
//! oversized, garbage, or disconnected mid-frame — may panic the codec
//! or take the daemon down.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use evolve_core::EvalBackend;
use evolve_explore::{ModelKind, ModelSpec, TraceSpec};
use evolve_serve::{
    decode_request, decode_response, encode_request, encode_response, Bind, EvalRequest,
    EvalResponse, FrameError, FrameReader, ModelRef, Request, Response, ServeClient, ServeConfig,
    Server, TracePayload, WireError,
};
use proptest::prelude::*;

fn name_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(b'a'..=b'z', 0..12)
        .prop_map(|bytes| String::from_utf8(bytes).expect("ascii"))
}

fn message_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(b' '..=b'~', 0..40)
        .prop_map(|bytes| String::from_utf8(bytes).expect("ascii"))
}

fn spec_strategy() -> impl Strategy<Value = ModelSpec> {
    prop_oneof![
        (1usize..6, 0usize..100, any::<bool>()).prop_map(|(stages, padding, worklist)| {
            ModelSpec {
                kind: ModelKind::Didactic { stages },
                padding,
                backend: if worklist {
                    EvalBackend::Worklist
                } else {
                    EvalBackend::Compiled
                },
            }
        }),
        (1usize..9, any::<u64>(), any::<u64>(), 0usize..100).prop_map(
            |(stages, base, per_unit, padding)| ModelSpec {
                kind: ModelKind::Pipeline {
                    stages,
                    base,
                    per_unit,
                },
                padding,
                backend: EvalBackend::Compiled,
            }
        ),
    ]
}

fn request_strategy() -> impl Strategy<Value = Request> {
    let trace = prop_oneof![
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(tokens, min_size, max_size, mean_period, seed)| TracePayload::Generated(TraceSpec {
                tokens,
                min_size,
                max_size,
                mean_period,
                seed,
            })
        ),
        proptest::collection::vec((any::<u64>(), any::<u64>()), 0..20)
            .prop_map(TracePayload::Offers),
    ];
    let model = prop_oneof![
        spec_strategy().prop_map(ModelRef::Inline),
        name_strategy().prop_map(ModelRef::Named),
    ];
    prop_oneof![
        (any::<u64>(), model, trace)
            .prop_map(|(id, model, trace)| Request::Eval(EvalRequest { id, model, trace })),
        (name_strategy(), spec_strategy())
            .prop_map(|(name, spec)| Request::Load { name, spec }),
        any::<u64>().prop_map(|nonce| Request::Ping { nonce }),
    ]
}

fn response_strategy() -> impl Strategy<Value = Response> {
    let ok = (
        any::<u64>(),
        proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..16),
        proptest::collection::vec(any::<u64>(), 0..16),
        any::<bool>(),
        any::<bool>(),
        any::<u32>(),
    )
        .prop_map(
            |(id, outputs, input_acks, delta_attached, batched, lanes_in_batch)| {
                Response::EvalOk(EvalResponse {
                    id,
                    outputs,
                    input_acks,
                    engine: [id, 1, 2, 3, 4],
                    ff: [5, 6, 7],
                    delta_attached,
                    batched,
                    lanes_in_batch,
                })
            },
        );
    prop_oneof![
        ok,
        any::<u64>().prop_map(|id| Response::Busy { id }),
        (any::<u64>(), message_strategy())
            .prop_map(|(id, message)| Response::Error { id, message }),
        any::<u64>().prop_map(|nonce| Response::Pong { nonce }),
        name_strategy().prop_map(|name| Response::Loaded { name }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every request round-trips bitwise through the codec.
    #[test]
    fn request_roundtrip(req in request_strategy()) {
        let payload = encode_request(&req);
        prop_assert_eq!(decode_request(&payload), Ok(req));
    }

    /// Every response round-trips bitwise through the codec.
    #[test]
    fn response_roundtrip(resp in response_strategy()) {
        let payload = encode_response(&resp);
        prop_assert_eq!(decode_response(&payload), Ok(resp));
    }

    /// Arbitrary bytes never panic the decoders — they decode or they
    /// return a typed error.
    #[test]
    fn garbage_never_panics(payload in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode_request(&payload);
        let _ = decode_response(&payload);
    }

    /// Truncating a valid payload anywhere never panics, and truncating
    /// strictly inside it never decodes successfully.
    #[test]
    fn truncated_payloads_error(req in request_strategy(), cut in 0usize..100) {
        let payload = encode_request(&req);
        let cut = cut % payload.len().max(1);
        prop_assert!(decode_request(&payload[..cut]).is_err());
    }

    /// The incremental de-framer never panics on arbitrary chunked
    /// input.
    #[test]
    fn frame_reader_survives_garbage(chunks in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..40), 0..8)
    ) {
        let mut frames = FrameReader::new(1024);
        for chunk in &chunks {
            frames.extend(chunk);
            loop {
                match frames.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => return Ok(()),
                }
            }
        }
    }
}

/// A length prefix beyond the cap is rejected as soon as it is visible —
/// before any payload buffer is allocated — by both frame readers.
#[test]
fn oversized_length_prefix_rejected_before_allocation() {
    // Claim a 3 GiB payload. If either reader allocated first, this test
    // would OOM rather than return a typed error.
    let huge: u32 = 3 * 1024 * 1024 * 1024;
    let mut frames = FrameReader::new(1024);
    frames.extend(&huge.to_le_bytes());
    assert!(matches!(
        frames.next_frame(),
        Err(FrameError::Oversize { len, max: 1024 }) if len == u64::from(huge)
    ));

    let mut wire = huge.to_le_bytes().to_vec();
    wire.extend_from_slice(&[0u8; 16]);
    let mut cursor = &wire[..];
    assert!(matches!(
        evolve_serve::protocol::read_frame(&mut cursor, 1024),
        Err(FrameError::Oversize { .. })
    ));
}

/// EOF exactly at a frame boundary is a clean close; EOF inside a frame
/// is the typed `Truncated` error.
#[test]
fn truncated_frames_are_typed_errors() {
    let payload = encode_request(&Request::Ping { nonce: 7 });
    let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&payload);

    let mut clean = &wire[..];
    assert!(matches!(
        evolve_serve::protocol::read_frame(&mut clean, 1024),
        Ok(Some(_))
    ));
    assert!(matches!(
        evolve_serve::protocol::read_frame(&mut clean, 1024),
        Ok(None)
    ));

    for cut in 1..wire.len() {
        let mut partial = &wire[..cut];
        assert!(
            matches!(
                evolve_serve::protocol::read_frame(&mut partial, 1024),
                Err(FrameError::Truncated)
            ),
            "cut at {cut} should be Truncated"
        );
    }
}

/// Element counts are validated against the bytes present before any
/// vector is reserved.
#[test]
fn hostile_element_counts_are_rejected() {
    // An Eval frame claiming u32::MAX explicit offers with a 1-byte body.
    let mut payload = vec![0x01];
    payload.extend_from_slice(&0u64.to_le_bytes()); // id
    payload.push(1); // named model
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.push(b'm');
    payload.push(1); // offers trace
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    payload.push(0); // one stray byte, nowhere near 16 * u32::MAX
    assert!(matches!(
        decode_request(&payload),
        Err(WireError::TooLong { .. })
    ));
}

/// A client that disconnects mid-frame must not disturb the daemon:
/// later connections work, and requests admitted before the disconnect
/// are still answered.
#[test]
fn mid_stream_disconnect_leaves_server_alive() {
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

    // Half a frame: a 64-byte length prefix but only 3 payload bytes.
    let mut rude = TcpStream::connect(&addr).unwrap();
    rude.write_all(&64u32.to_le_bytes()).unwrap();
    rude.write_all(&[1, 2, 3]).unwrap();
    drop(rude);

    std::thread::sleep(Duration::from_millis(50));
    let mut polite = ServeClient::connect_tcp(&addr).unwrap();
    let pong = polite.call(&Request::Ping { nonce: 99 }).unwrap();
    assert_eq!(pong, Response::Pong { nonce: 99 });
    server.shutdown_and_join();
}

/// A frame whose payload cannot be decoded gets a typed Error response
/// and leaves the connection usable; an oversize prefix gets an Error
/// and a close (the stream cannot be resynchronised).
#[test]
fn malformed_frames_get_typed_error_responses() {
    let server = Server::start(
        ServeConfig {
            shards: 1,
            batch_width: 1,
            max_frame_len: 4096,
            ..ServeConfig::default()
        },
        &[Bind::Tcp("127.0.0.1:0".into())],
        None,
    )
    .unwrap();
    let addr = server.tcp_addr().unwrap().to_string();

    let mut client = ServeClient::connect_tcp(&addr).unwrap();
    {
        // Reach under the client to write a well-framed but undecodable
        // payload, then a valid ping on the same connection.
        let mut raw = TcpStream::connect(&addr).unwrap();
        let junk = [0xee_u8; 10];
        raw.write_all(&(junk.len() as u32).to_le_bytes()).unwrap();
        raw.write_all(&junk).unwrap();
        let ping = encode_request(&Request::Ping { nonce: 5 });
        raw.write_all(&(ping.len() as u32).to_le_bytes()).unwrap();
        raw.write_all(&ping).unwrap();
        let mut conn = raw;
        let first = evolve_serve::protocol::read_frame(&mut conn, 4096)
            .unwrap()
            .expect("error response expected");
        assert!(matches!(
            evolve_serve::decode_response(&first),
            Ok(Response::Error { id: 0, .. })
        ));
        let second = evolve_serve::protocol::read_frame(&mut conn, 4096)
            .unwrap()
            .expect("pong expected");
        assert_eq!(
            evolve_serve::decode_response(&second),
            Ok(Response::Pong { nonce: 5 })
        );
    }

    // Oversize prefix: typed error response, then close.
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(&(1024u32 * 1024 * 1024).to_le_bytes()).unwrap();
    raw.flush().unwrap();
    let mut conn = raw;
    let resp = evolve_serve::protocol::read_frame(&mut conn, 4096)
        .unwrap()
        .expect("error response expected");
    assert!(matches!(
        evolve_serve::decode_response(&resp),
        Ok(Response::Error { id: 0, .. })
    ));
    assert!(matches!(
        evolve_serve::protocol::read_frame(&mut conn, 4096),
        Ok(None)
    ));

    // The daemon is still fine.
    let pong = client.call(&Request::Ping { nonce: 1 }).unwrap();
    assert_eq!(pong, Response::Pong { nonce: 1 });
    server.shutdown_and_join();
}

/// Backend wire tag 2 is retired: an `Eval` carrying it decodes to
/// `UnknownTag(2)`, the daemon answers with a typed Error, and the same
/// connection keeps serving.
#[test]
fn retired_backend_tag_gets_typed_error_response() {
    let eval = |backend| {
        encode_request(&Request::Eval(EvalRequest {
            id: 7,
            model: ModelRef::Inline(ModelSpec {
                kind: ModelKind::Didactic { stages: 1 },
                padding: 0,
                backend,
            }),
            trace: TracePayload::Offers(vec![(0, 8)]),
        }))
    };
    // The two live backends differ in exactly the backend byte.
    let (compiled, worklist) = (eval(EvalBackend::Compiled), eval(EvalBackend::Worklist));
    let at: Vec<usize> = (0..compiled.len())
        .filter(|&i| compiled[i] != worklist[i])
        .collect();
    assert_eq!(at.len(), 1, "backend tag position");
    let mut retired = compiled;
    retired[at[0]] = 2;
    assert_eq!(decode_request(&retired), Err(WireError::UnknownTag(2)));

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
    let mut conn = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
    let ping = encode_request(&Request::Ping { nonce: 3 });
    for frame in [&retired, &ping] {
        conn.write_all(&(frame.len() as u32).to_le_bytes()).unwrap();
        conn.write_all(frame).unwrap();
    }
    let first = evolve_serve::protocol::read_frame(&mut conn, 4096)
        .unwrap()
        .expect("error response expected");
    assert!(matches!(
        decode_response(&first),
        Ok(Response::Error { .. })
    ));
    let second = evolve_serve::protocol::read_frame(&mut conn, 4096)
        .unwrap()
        .expect("pong expected");
    assert_eq!(decode_response(&second), Ok(Response::Pong { nonce: 3 }));
    server.shutdown_and_join();
}
