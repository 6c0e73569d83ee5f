//! Hostile-input fuzzing for the FLMC-RPC frame layer, mirroring
//! `tests/hostile_certificates.rs` at the workspace root: every truncation,
//! oversize length prefix, and byte flip must yield a *structured* outcome —
//! a typed error frame on the wire, a typed `FrameError`/`RpcDecodeError` in
//! the library — never a panic, a hang, or an unbounded allocation. The
//! socket-level cases run against both front ends, `flm-serve` and
//! `flm-router`.

use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use flm_serve::frame::{
    read_frame, Frame, FrameError, FrameReadError, DEFAULT_MAX_BODY_BYTES, HEADER_BYTES,
};
use flm_serve::router::{Router, RouterConfig};
use flm_serve::rpc::{kind, ErrorCode, Request, Response};
use flm_serve::server::{ServeConfig, Server};
use flm_serve::shard::ShardMap;

/// A small, valid request frame to mutate: a ping with a payload.
fn sample_request_frame() -> Frame {
    Request::Ping {
        payload: b"fuzz-payload".to_vec(),
        hold_ms: 0,
    }
    .to_frame()
}

/// A front end under test.
enum Target {
    Server(Server),
    /// A router over a one-shard map nothing listens on: it answers Ping
    /// itself, so hostile input reaches its framing without a shard.
    Router(Router),
}

impl Target {
    fn addr(&self) -> SocketAddr {
        match self {
            Target::Server(server) => server.local_addr(),
            Target::Router(router) => router.local_addr(),
        }
    }

    fn malformed_frames(&self) -> u64 {
        match self {
            Target::Server(server) => server.stats().malformed_frames,
            Target::Router(router) => router.stats().malformed_frames,
        }
    }

    fn shutdown(self) {
        match self {
            Target::Server(server) => server.shutdown(),
            Target::Router(router) => router.shutdown(),
        }
    }
}

/// Runs one socket-level case against a fresh server, then a fresh router.
fn against_each_front_end(case: impl Fn(&Target)) {
    let server = Server::start(ServeConfig {
        workers: 2,
        read_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let unreachable = ShardMap::new(vec!["127.0.0.1:1".into()]).unwrap();
    let router = Router::start(RouterConfig {
        idle_timeout: Duration::from_millis(500),
        ..RouterConfig::new("127.0.0.1:0", unreachable)
    })
    .expect("bind loopback");
    for target in [Target::Server(server), Target::Router(router)] {
        case(&target);
        target.shutdown();
    }
}

/// Writes raw bytes, half-closes, and reads whatever single response the
/// front end sends (None on clean EOF).
fn exchange_raw(target: &Target, bytes: &[u8]) -> Option<Response> {
    let mut stream = TcpStream::connect(target.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(bytes).expect("write");
    // The server may already have answered and closed (it races us on
    // malformed input); a failed half-close is fine.
    let _ = stream.shutdown(Shutdown::Write);
    match read_frame(&mut stream, DEFAULT_MAX_BODY_BYTES) {
        Ok(frame) => Some(Response::from_frame(&frame).expect("server sent a malformed response")),
        Err(FrameReadError::Eof) => None,
        Err(e) => panic!("server reply was not a frame or EOF: {e}"),
    }
}

/// The front end must still serve after hostile input: a fresh ping answers.
fn assert_still_serving(target: &Target) {
    let response = exchange_raw(target, &sample_request_frame().encode().unwrap())
        .expect("server stopped answering");
    assert!(
        matches!(response, Response::Pong { .. }),
        "expected pong, got {response:?}"
    );
}

#[test]
fn every_prefix_truncation_decodes_structurally() {
    let bytes = sample_request_frame().encode().unwrap();
    for cut in 0..bytes.len() {
        let err = Frame::decode(&bytes[..cut], DEFAULT_MAX_BODY_BYTES)
            .expect_err("a strict prefix must not decode");
        // Prefixes that still match the magic truncate; anything shorter
        // than the magic still matches it here, so everything is Truncated.
        assert_eq!(err, FrameError::Truncated, "prefix of {cut} bytes");
    }
}

#[test]
fn every_prefix_truncation_over_the_socket_is_answered() {
    against_each_front_end(|target| {
        let bytes = sample_request_frame().encode().unwrap();
        for cut in 0..bytes.len() {
            let response = exchange_raw(target, &bytes[..cut]);
            if cut == 0 {
                // Nothing sent: a clean disconnect, not an error.
                assert!(response.is_none(), "empty connection drew {response:?}");
            } else {
                match response {
                    Some(Response::Error { code, .. }) => {
                        assert_eq!(code, ErrorCode::MalformedFrame, "prefix of {cut} bytes")
                    }
                    other => panic!("prefix of {cut} bytes drew {other:?}"),
                }
            }
        }
        assert_still_serving(target);
        assert!(target.malformed_frames() >= (bytes.len() - 1) as u64);
    });
}

#[test]
fn oversize_length_prefix_is_rejected_before_allocation() {
    let mut bytes = sample_request_frame().encode().unwrap();
    bytes[6..10].copy_from_slice(&u32::MAX.to_be_bytes());
    // Library layer: structured Oversize, found from the header alone.
    match Frame::decode(&bytes, DEFAULT_MAX_BODY_BYTES) {
        Err(FrameError::Oversize { len, max }) => {
            assert_eq!(len, u64::from(u32::MAX));
            assert_eq!(max, DEFAULT_MAX_BODY_BYTES);
        }
        other => panic!("expected Oversize, got {other:?}"),
    }
    // Wire layer: typed error frame, and the front end keeps serving. Only
    // the 10-byte header is sent — a front end that tried to pre-allocate
    // or read the claimed 4 GiB body would hang here instead of answering.
    against_each_front_end(|target| {
        match exchange_raw(target, &bytes[..HEADER_BYTES]) {
            Some(Response::Error { code, detail }) => {
                assert_eq!(code, ErrorCode::MalformedFrame);
                assert!(detail.contains("exceeds"), "detail: {detail}");
            }
            other => panic!("oversize header drew {other:?}"),
        }
        assert_still_serving(target);
    });
}

#[test]
fn byte_flips_at_every_offset_decode_structurally() {
    let bytes = sample_request_frame().encode().unwrap();
    for i in 0..bytes.len() {
        for flip in [0xFFu8, 0x01, 0x80] {
            let mut mutated = bytes.clone();
            mutated[i] ^= flip;
            // Either a valid frame (body flips change the opaque payload) or
            // a structured error — never a panic.
            match Frame::decode(&mutated, DEFAULT_MAX_BODY_BYTES) {
                Ok((frame, _)) => {
                    // The RPC layer must also stay structured on the
                    // mutated body / kind byte.
                    let _ = Request::from_frame(&frame);
                }
                Err(
                    FrameError::BadMagic
                    | FrameError::UnsupportedVersion(_)
                    | FrameError::Truncated
                    | FrameError::Oversize { .. }
                    | FrameError::BodyTooLarge { .. },
                ) => {}
            }
        }
    }
}

#[test]
fn rpc_body_flips_decode_structurally() {
    // A refute request exercises the deepest body grammar (strings, options,
    // graph bytes, policy).
    let frame = Request::Refute(flm_serve::rpc::RefuteParams {
        theorem: "ba-nodes".into(),
        protocol: Some("EIG(f=1)".into()),
        graph: Some(flm_graph::builders::triangle()),
        f: 1,
        policy: Some(flm_sim::RunPolicy::default()),
    })
    .to_frame();
    for i in 0..frame.body.len() {
        let mut mutated = frame.clone();
        mutated.body[i] ^= 0xFF;
        // Structured Ok or structured error; never a panic.
        let _ = Request::from_frame(&mutated);
    }
    for truncate_to in 0..frame.body.len() {
        let mut mutated = frame.clone();
        mutated.body.truncate(truncate_to);
        assert!(
            Request::from_frame(&mutated).is_err(),
            "body prefix of {truncate_to} bytes decoded"
        );
    }
}

#[test]
fn socket_garbage_draws_typed_error_then_server_recovers() {
    against_each_front_end(|target| {
        // Pure noise: bad magic from the first byte.
        match exchange_raw(target, &[0xAA; 64]) {
            Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::MalformedFrame),
            other => panic!("garbage drew {other:?}"),
        }
        // A well-framed but undecodable body: valid header, unknown kind.
        match exchange_raw(
            target,
            &Frame::new(0x7F, b"junk".to_vec()).encode().unwrap(),
        ) {
            Some(Response::Error { code, detail }) => {
                assert_eq!(code, ErrorCode::MalformedFrame);
                assert!(detail.contains("0x7F"), "detail: {detail}");
            }
            other => panic!("unknown kind drew {other:?}"),
        }
        // A response kind sent as a request is equally malformed.
        match exchange_raw(
            target,
            &Frame::new(kind::RESP_PONG, vec![]).encode().unwrap(),
        ) {
            Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::MalformedFrame),
            other => panic!("response-kind request drew {other:?}"),
        }
        // A future frame version is refused without guessing at its layout.
        let mut versioned = sample_request_frame().encode().unwrap();
        versioned[4] = 9;
        match exchange_raw(target, &versioned) {
            Some(Response::Error { code, detail }) => {
                assert_eq!(code, ErrorCode::MalformedFrame);
                assert!(detail.contains("version"), "detail: {detail}");
            }
            other => panic!("future version drew {other:?}"),
        }
        assert_still_serving(target);
        let malformed = target.malformed_frames();
        assert!(malformed >= 4, "malformed frames: {malformed}");
    });
}
