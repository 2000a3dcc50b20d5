//! Malformed-frame robustness (satellite suite): truncated headers,
//! oversized length prefixes, unknown versions and kinds, bad
//! fingerprints, mid-frame disconnects, and seeded random garbage. The
//! server must answer with a typed error reply or close the connection
//! cleanly — never panic, never leave a worker hung — and must keep
//! serving well-formed traffic afterwards.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use scl_core::wire::{HEADER_LEN, MAX_FRAME_LEN, VERSION};
use scl_net::frame::{kind, MAX_SOURCE_LEN};
use scl_net::{ErrorCode, Mode, NetClient, NetConfig, NetServer, Reply, TenantSpec};

fn start() -> NetServer {
    NetServer::start(NetConfig {
        procs: 8,
        tenants: vec![TenantSpec::new("t")],
        manager_tick: Duration::ZERO,
        ..NetConfig::default()
    })
    .unwrap()
}

fn raw_conn(server: &NetServer) -> TcpStream {
    let s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

/// Read one reply frame off a raw socket. `None` on clean close.
fn read_reply(s: &mut TcpStream) -> Option<Reply> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        match s.read(&mut header[filled..]) {
            Ok(0) => return None,
            Ok(n) => filled += n,
            Err(_) => return None,
        }
    }
    let h = scl_core::FrameHeader::decode(&header).expect("server replies are well-formed");
    let mut body = vec![0u8; h.len];
    s.read_exact(&mut body).ok()?;
    Some(Reply::decode(h.kind, &body).expect("server replies decode"))
}

fn header(version: u8, kind_byte: u8, len: u32) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[..2].copy_from_slice(b"SC");
    out[2] = version;
    out[3] = kind_byte;
    out[4..8].copy_from_slice(&len.to_le_bytes());
    out
}

/// After any abuse, the server must still serve a fresh well-formed
/// connection end to end.
fn assert_still_serving(server: &NetServer) {
    let mut c = NetClient::connect(server.local_addr()).unwrap();
    let r = c
        .submit_source(0, Mode::Plain, "map(inc)", "", &[1, 2, 3])
        .unwrap();
    assert_eq!(r.output, vec![2, 3, 4]);
}

#[test]
fn truncated_header_then_disconnect_is_a_clean_close() {
    let server = start();
    for cut in 0..HEADER_LEN {
        let mut s = raw_conn(&server);
        let h = header(VERSION, kind::PING, 0);
        s.write_all(&h[..cut]).unwrap();
        drop(s); // mid-header disconnect
    }
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn mid_frame_disconnect_never_hangs_a_worker() {
    let server = start();
    for body_sent in [0usize, 1, 10] {
        let mut s = raw_conn(&server);
        // declare a 100-byte body, send only a prefix, vanish
        s.write_all(&header(VERSION, kind::SUBMIT_SOURCE, 100))
            .unwrap();
        s.write_all(&vec![0xab; body_sent]).unwrap();
        drop(s);
    }
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn unknown_version_gets_a_typed_error_then_close() {
    let server = start();
    for v in [0u8, 2, 7, 255] {
        let mut s = raw_conn(&server);
        s.write_all(&header(v, kind::PING, 0)).unwrap();
        match read_reply(&mut s) {
            Some(Reply::Error { code, .. }) => {
                assert_eq!(code, ErrorCode::UnsupportedVersion, "version {v}")
            }
            other => panic!("version {v}: expected typed error, got {other:?}"),
        }
        // the server closes a desynchronized stream
        assert!(read_reply(&mut s).is_none(), "version {v}: closed after");
    }
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn bad_magic_gets_a_typed_error_then_close() {
    let server = start();
    let mut s = raw_conn(&server);
    let mut h = header(VERSION, kind::PING, 0);
    h[0] = b'X';
    s.write_all(&h).unwrap();
    match read_reply(&mut s) {
        Some(Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected typed error, got {other:?}"),
    }
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn oversized_length_prefix_is_refused_without_allocation() {
    let server = start();
    for len in [MAX_FRAME_LEN as u32 + 1, u32::MAX] {
        let mut s = raw_conn(&server);
        s.write_all(&header(VERSION, kind::SUBMIT_SOURCE, len))
            .unwrap();
        match read_reply(&mut s) {
            Some(Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::Oversize, "len {len}"),
            other => panic!("len {len}: expected typed error, got {other:?}"),
        }
    }
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn unknown_kind_is_typed_and_the_connection_survives() {
    let server = start();
    let mut s = raw_conn(&server);
    for k in [0x00u8, 0x7f, 0x80, 0xff] {
        s.write_all(&header(VERSION, k, 0)).unwrap();
        match read_reply(&mut s) {
            Some(Reply::Error { code, .. }) => {
                assert_eq!(code, ErrorCode::UnknownKind, "kind {k:#04x}")
            }
            other => panic!("kind {k:#04x}: expected typed error, got {other:?}"),
        }
    }
    // same connection still works: frames were length-delimited
    s.write_all(&header(VERSION, kind::PING, 0)).unwrap();
    assert!(matches!(read_reply(&mut s), Some(Reply::Pong)));
    server.shutdown();
}

#[test]
fn truncated_and_trailing_bodies_are_typed_bad_frames() {
    let server = start();
    let mut s = raw_conn(&server);
    // SUBMIT_SOURCE body cut off after the tenant id
    let body = 3u32.to_le_bytes();
    s.write_all(&header(VERSION, kind::SUBMIT_SOURCE, body.len() as u32))
        .unwrap();
    s.write_all(&body).unwrap();
    match read_reply(&mut s) {
        Some(Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected typed error, got {other:?}"),
    }
    // PING with trailing junk
    s.write_all(&header(VERSION, kind::PING, 4)).unwrap();
    s.write_all(&[1, 2, 3, 4]).unwrap();
    match read_reply(&mut s) {
        Some(Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected typed error, got {other:?}"),
    }
    // a string length pointing past the body is a bounds error, not a reach
    let mut body = Vec::new();
    body.extend_from_slice(&0u32.to_le_bytes()); // tenant
    body.push(0); // mode
    body.extend_from_slice(&u32::MAX.to_le_bytes()); // source "length"
    s.write_all(&header(VERSION, kind::SUBMIT_SOURCE, body.len() as u32))
        .unwrap();
    s.write_all(&body).unwrap();
    match read_reply(&mut s) {
        Some(Reply::Error { code, .. }) => {
            assert!(
                code == ErrorCode::BadFrame || code == ErrorCode::Oversize,
                "got {code:?}"
            )
        }
        other => panic!("expected typed error, got {other:?}"),
    }
    s.write_all(&header(VERSION, kind::PING, 0)).unwrap();
    assert!(matches!(read_reply(&mut s), Some(Reply::Pong)));
    server.shutdown();
}

#[test]
fn bad_fingerprints_and_corrupt_submits_never_panic_the_service() {
    let server = start();
    let mut c = NetClient::connect(server.local_addr()).unwrap();
    // a forged handle the server never issued
    match c.submit_handle(0, 0x0123_4567_89ab_cdef, &[1]) {
        Err(scl_net::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::UnknownPlan)
        }
        other => panic!("expected UnknownPlan, got {other:?}"),
    }
    // invalid UTF-8 in the source string: BadFrame, connection survives
    let mut s = raw_conn(&server);
    let mut body = Vec::new();
    body.extend_from_slice(&0u32.to_le_bytes()); // tenant
    body.push(0); // mode
    body.extend_from_slice(&2u32.to_le_bytes());
    body.extend_from_slice(&[0xff, 0xfe]); // not UTF-8
    body.extend_from_slice(&0u32.to_le_bytes()); // key ""
    body.extend_from_slice(&1u32.to_le_bytes()); // payload [7]
    body.extend_from_slice(&7i64.to_le_bytes());
    s.write_all(&header(VERSION, kind::SUBMIT_SOURCE, body.len() as u32))
        .unwrap();
    s.write_all(&body).unwrap();
    match read_reply(&mut s) {
        Some(Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected typed error, got {other:?}"),
    }
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn deeply_nested_source_is_a_typed_parse_error() {
    // The deepest nesting a source can carry: it fills the source-length
    // bound exactly (~32k parentheses, ~6k `mapGroups`). The parse runs
    // on the service thread, so a recursion without a depth limit would
    // take the whole server down with a stack overflow.
    let parens_depth = (MAX_SOURCE_LEN - "map(inc)".len()) / 2;
    let groups_depth = (MAX_SOURCE_LEN - "id".len()) / "mapGroups[]".len();
    let parens = format!(
        "map({}inc{})",
        "(".repeat(parens_depth),
        ")".repeat(parens_depth)
    );
    let groups = format!(
        "{}id{}",
        "mapGroups[".repeat(groups_depth),
        "]".repeat(groups_depth)
    );
    // 50k levels no longer fit the source bound: refused before parsing
    let too_long = format!("map({}inc{})", "(".repeat(50_000), ")".repeat(50_000));
    let server = start();
    let mut c = NetClient::connect(server.local_addr()).unwrap();
    for (source, want) in [
        (parens, ErrorCode::ParseError),
        (groups, ErrorCode::ParseError),
        (too_long, ErrorCode::Oversize),
    ] {
        match c.submit_source(0, Mode::Plain, &source, "", &[1, 2, 3]) {
            Err(scl_net::ClientError::Server { code, message, .. }) => {
                assert_eq!(code, want, "{message}")
            }
            other => panic!("expected {want:?}, got {other:?}"),
        }
        // the same connection keeps serving
        let r = c
            .submit_source(0, Mode::Plain, "map(inc)", "", &[1, 2, 3])
            .unwrap();
        assert_eq!(r.output, vec![2, 3, 4]);
    }
    server.shutdown();
}

#[test]
fn randomized_garbage_storm_never_kills_the_server() {
    // Seeded fuzz: random byte blobs, random mutations of valid frames,
    // random truncations — every connection must end in typed errors or
    // clean closes, and the server must survive the lot.
    let server = start();
    scl_testkit::cases(60, 0xbad_f00d, |rng| {
        let mut s = raw_conn(&server);
        match rng.below(3) {
            0 => {
                // pure garbage
                let n = rng.range_usize(1, 64);
                let blob = rng.vec_of(n, |r| (r.next_u64() & 0xff) as u8);
                let _ = s.write_all(&blob);
            }
            1 => {
                // a valid submit frame with one corrupted byte
                let mut bytes = scl_net::Request::SubmitSource {
                    tenant: 0,
                    mode: Mode::Plain,
                    deadline_ms: 0,
                    source: "map(inc) . rotate(1)".to_string(),
                    key: String::new(),
                    payload: vec![1, 2, 3],
                }
                .encode();
                let i = rng.range_usize(0, bytes.len());
                bytes[i] ^= (1 << rng.below(8)) as u8;
                let _ = s.write_all(&bytes);
            }
            _ => {
                // a valid frame truncated at a random point
                let bytes = scl_net::Request::Ping.encode();
                let cut = rng.range_usize(0, bytes.len());
                let _ = s.write_all(&bytes[..cut]);
            }
        }
        // half-close our side so the server sees EOF once it has chewed
        // through the bytes, then drain whatever it answers (typed
        // errors, results, or a clean close) — never a hang
        let _ = s.shutdown(std::net::Shutdown::Write);
        while read_reply(&mut s).is_some() {}
    });
    assert_still_serving(&server);
    server.shutdown();
}
