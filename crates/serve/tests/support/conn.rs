//! The plain connection every live-server test talks through: one
//! socket with timeouts, one request frame out and one response frame in,
//! no retry. A transport failure fails the test.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use dhdl_serve::json::Json;
use dhdl_serve::{read_frame, write_frame, Request, DEFAULT_MAX_FRAME, DEFAULT_MAX_RESPONSE};

/// A connection to `addr` whose reads and writes give up after a minute,
/// long enough for any sweep the tests ask for in a debug build.
pub fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to the server");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
}

/// Send `req` and return the parsed response, whatever its `status`.
pub fn request(stream: &mut TcpStream, req: &Request) -> Json {
    write_frame(stream, &req.render(), DEFAULT_MAX_FRAME).expect("write the request frame");
    let resp = read_frame(stream, DEFAULT_MAX_RESPONSE).expect("read the response frame");
    Json::parse(&resp).expect("the response is JSON")
}

/// [`request`], asserting the response's `status` is `ok`.
pub fn request_ok(stream: &mut TcpStream, req: &Request) -> Json {
    let resp = request(stream, req);
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("ok"),
        "{}",
        resp.render()
    );
    resp
}
