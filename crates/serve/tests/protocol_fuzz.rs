//! Seeded protocol fuzzing over a live server: malformed, truncated and
//! oversized frames must each produce either a structured error
//! response or a clean connection close — never a hang, a torn healthy
//! response, or a dead server.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use dhdl_serve::json::Json;
use dhdl_serve::{read_frame, write_frame, Client, Op, Request, RetryPolicy, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MAX_FRAME: usize = 64 * 1024;

fn spawn_server() -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_frame: MAX_FRAME,
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    Server::spawn(cfg).unwrap()
}

#[path = "support/hostile.rs"]
mod hostile;
use hostile::hostile_payload;

/// The request the generator mutates.
fn valid_request() -> Vec<u8> {
    Request::new(Op::Estimate {
        bench: "dotproduct".to_string(),
        params: dhdl_core::ParamValues::new()
            .with("tile", 64)
            .with("par", 4),
    })
    .render()
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.set_write_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

fn assert_healthy(addr: std::net::SocketAddr) {
    let mut client = Client::new(addr, RetryPolicy::default());
    let resp = client
        .request_ok(&Request::new(Op::Health))
        .expect("server must stay healthy under fuzzing");
    assert_eq!(resp.get("state").and_then(Json::as_str), Some("accepting"));
}

#[test]
fn malformed_frames_get_structured_errors_and_server_survives() {
    let (addr, handle) = spawn_server();
    let mut rng = StdRng::seed_from_u64(0xF022);
    let valid = valid_request();
    for batch in 0..20 {
        let mut stream = connect(addr);
        for _ in 0..15 {
            let payload = hostile_payload(&mut rng, &valid);
            if write_frame(&mut stream, &payload, MAX_FRAME).is_err() {
                // The server closed on an earlier hostile frame (its
                // right); reconnect and keep fuzzing.
                stream = connect(addr);
                continue;
            }
            match read_frame(&mut stream, dhdl_serve::DEFAULT_MAX_RESPONSE) {
                Ok(resp) => {
                    // Whatever came back must be a well-formed protocol
                    // answer: parseable JSON with a status field, and
                    // malformed requests specifically get `error` plus a
                    // machine-readable code.
                    let v = Json::parse(&resp).expect("response must be valid JSON");
                    let status = v.get("status").and_then(Json::as_str);
                    assert!(
                        matches!(status, Some("ok") | Some("error")),
                        "unexpected status in {v:?}"
                    );
                    if status == Some("error") {
                        assert!(
                            v.get("code").and_then(Json::as_str).is_some(),
                            "error without code: {v:?}"
                        );
                    }
                }
                Err(_) => {
                    // Clean close is acceptable; a fresh connection must
                    // work again immediately.
                    stream = connect(addr);
                }
            }
        }
        // After every batch the server still answers health from a
        // clean connection.
        assert_healthy(addr);
        let _ = batch;
    }
    let mut client = Client::new(addr, RetryPolicy::default());
    client.request_ok(&Request::new(Op::Shutdown)).unwrap();
    drop(client);
    handle.join().unwrap().unwrap();
}

#[test]
fn frames_written_back_to_back_are_answered_in_order() {
    let (addr, handle) = spawn_server();
    let mut stream = connect(addr);
    // Three requests and the first half of a fourth in one TCP write: the
    // server's buffered reader takes them in together and must hand them
    // out one by one, keeping the partial frame until the rest arrives.
    let mut wire = Vec::new();
    write_frame(&mut wire, &Request::new(Op::Health).render(), MAX_FRAME).unwrap();
    let estimate = Request::new(Op::Estimate {
        bench: "dotproduct".to_string(),
        params: dhdl_apps::by_name("dotproduct").unwrap().default_params(),
    });
    write_frame(&mut wire, &estimate.render(), MAX_FRAME).unwrap();
    write_frame(&mut wire, br#"{"op":"warp"}"#, MAX_FRAME).unwrap();
    let mut fourth = Vec::new();
    write_frame(&mut fourth, &Request::new(Op::Stats).render(), MAX_FRAME).unwrap();
    let (head, tail) = fourth.split_at(fourth.len() / 2);
    wire.extend_from_slice(head);
    stream.write_all(&wire).unwrap();

    let mut next = || {
        let resp = read_frame(&mut stream, dhdl_serve::DEFAULT_MAX_RESPONSE).unwrap();
        Json::parse(&resp).unwrap()
    };
    let health = next();
    assert_eq!(
        health.get("state").and_then(Json::as_str),
        Some("accepting")
    );
    let estimate = next();
    assert_eq!(estimate.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(estimate.get("cached").and_then(Json::as_bool), Some(false));
    let unknown = next();
    assert_eq!(
        unknown.get("code").and_then(Json::as_str),
        Some("unknown_op")
    );

    stream.write_all(tail).unwrap();
    let stats = {
        let resp = read_frame(&mut stream, dhdl_serve::DEFAULT_MAX_RESPONSE).unwrap();
        Json::parse(&resp).unwrap()
    };
    assert_eq!(stats.get("requests").and_then(Json::as_u64), Some(4));
    assert_eq!(stats.get("estimates").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("protocol_errors").and_then(Json::as_u64), Some(1));
    drop(stream);

    let mut client = Client::new(addr, RetryPolicy::default());
    client.request_ok(&Request::new(Op::Shutdown)).unwrap();
    drop(client);
    handle.join().unwrap().unwrap();
}

/// A sweep seed travels as a JSON number, an `f64`: one that is not an
/// exact integer there used to be read as "no seed" and the sweep ran
/// with the default `0xD5E` instead of the seed asked for.
#[test]
fn a_sweep_seed_that_does_not_survive_f64_is_refused_not_replaced() {
    let (addr, handle) = spawn_server();
    let mut stream = connect(addr);
    let mut sweep = |seed: Option<u64>| {
        let mut req = Request::new(Op::Sweep {
            bench: "dotproduct".to_string(),
            points: 8,
            seed: seed.unwrap_or(0),
            num_fpgas: None,
        })
        .render();
        if seed.is_none() {
            // No `seed` member at all: the documented default applies.
            let text = String::from_utf8(req).unwrap();
            assert!(text.contains(r#","seed":0"#), "{text}");
            req = text.replace(r#","seed":0"#, "").into_bytes();
        }
        write_frame(&mut stream, &req, MAX_FRAME).unwrap();
        let resp = read_frame(&mut stream, dhdl_serve::DEFAULT_MAX_RESPONSE).unwrap();
        Json::parse(&resp).unwrap()
    };
    for refused in [1u64 << 53, (1 << 53) + 1, u64::MAX] {
        let v = sweep(Some(refused));
        assert_eq!(v.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(v.get("code").and_then(Json::as_str), Some("bad_request"));
        let message = v.get("message").and_then(Json::as_str).unwrap_or_default();
        assert!(message.contains("`seed`"), "seed {refused}: {v:?}");
    }
    // Every seed the wire can carry still runs, and is the seed used: the
    // default and an explicit 0xD5E agree, another seed does not.
    let points = |v: &Json| v.get("points").map(Json::render);
    let (default, explicit) = (sweep(None), sweep(Some(0xD5E)));
    assert_eq!(default.get("status").and_then(Json::as_str), Some("ok"));
    assert!(points(&default).is_some());
    assert_eq!(points(&default), points(&explicit));
    let other = sweep(Some(8_999_999_999_999_999));
    assert_eq!(other.get("status").and_then(Json::as_str), Some("ok"));
    assert_ne!(points(&other), points(&default));
    drop(stream);

    let mut client = Client::new(addr, RetryPolicy::default());
    client.request_ok(&Request::new(Op::Shutdown)).unwrap();
    drop(client);
    handle.join().unwrap().unwrap();
}

#[test]
fn oversized_and_torn_frames_are_bounded_and_survivable() {
    let (addr, handle) = spawn_server();

    // A frame declaring more than the limit: the server answers with a
    // structured `frame_too_large` error and closes — without ever
    // allocating the declared size.
    let mut stream = connect(addr);
    stream
        .write_all(&((MAX_FRAME as u32) + 1).to_be_bytes())
        .unwrap();
    stream
        .write_all(b"garbage that will never be read")
        .unwrap();
    let resp = read_frame(&mut stream, dhdl_serve::DEFAULT_MAX_RESPONSE)
        .expect("oversized frame gets a structured answer");
    let v = Json::parse(&resp).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(
        v.get("code").and_then(Json::as_str),
        Some("frame_too_large")
    );
    // ...and the connection is closed afterwards.
    let mut buf = [0u8; 1];
    assert_eq!(stream.read(&mut buf).unwrap_or(0), 0);

    // A declared-4GiB frame likewise costs nothing.
    let mut stream = connect(addr);
    stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
    let resp = read_frame(&mut stream, dhdl_serve::DEFAULT_MAX_RESPONSE).unwrap();
    let v = Json::parse(&resp).unwrap();
    assert_eq!(
        v.get("code").and_then(Json::as_str),
        Some("frame_too_large")
    );
    drop(stream);

    // A torn prefix (2 of 4 length bytes, then silence): the slow-client
    // read timeout reaps the connection instead of wedging the worker.
    let mut stream = connect(addr);
    stream.write_all(&[0u8, 0]).unwrap();
    std::thread::sleep(Duration::from_millis(800));
    let mut buf = [0u8; 8];
    // The server has closed on us (read returns 0) or reset the
    // connection (Err); either is a clean, bounded outcome.
    if let Ok(n) = stream.read(&mut buf) {
        assert_eq!(n, 0, "no healthy response can follow a torn prefix");
    }

    // A torn payload (frame promises 100 bytes, delivers 10, closes).
    let mut stream = connect(addr);
    stream.write_all(&100u32.to_be_bytes()).unwrap();
    stream.write_all(&[b'x'; 10]).unwrap();
    drop(stream);

    assert_healthy(addr);
    let mut client = Client::new(addr, RetryPolicy::default());
    client.request_ok(&Request::new(Op::Shutdown)).unwrap();
    drop(client);
    handle.join().unwrap().unwrap();
}
