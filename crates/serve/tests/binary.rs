//! The `dhdl-serve` executable end to end: it binds the address
//! `DHDL_SERVE_ADDR` names, announces it on stdout, answers through its
//! estimate cache, and drains and exits 0 on SIGTERM.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

use dhdl_serve::json::Json;
use dhdl_serve::{Op, Request};

#[path = "support/conn.rs"]
mod conn;
use conn::{connect, request_ok};

/// The child process, killed and reaped if the test fails before it
/// exits on its own.
struct Serving(Child);

impl Drop for Serving {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn the_binary_serves_from_its_cache_and_drains_on_sigterm() {
    let mut serving = Serving(
        Command::new(env!("CARGO_BIN_EXE_dhdl-serve"))
            .env("DHDL_SERVE_ADDR", "127.0.0.1:0")
            // Armed, it would leave a report under `results/obs/`.
            .env_remove("DHDL_OBS")
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn dhdl-serve"),
    );
    let mut stdout = BufReader::new(serving.0.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read the first line");
    let addr: SocketAddr = line
        .trim_end()
        .strip_prefix("dhdl-serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .parse()
        .expect("a socket address");

    let mut stream = connect(addr);
    let bench = dhdl_apps::by_name("dotproduct").unwrap();
    let estimate = Request::new(Op::Estimate {
        bench: "dotproduct".to_string(),
        params: bench.default_params(),
    });
    for cached in [false, true] {
        let resp = request_ok(&mut stream, &estimate);
        assert_eq!(resp.get("cached").and_then(Json::as_bool), Some(cached));
    }
    let stats = request_ok(&mut stream, &Request::new(Op::Stats));
    assert_eq!(
        stats.get("estimate_cache_hits").and_then(Json::as_u64),
        Some(1)
    );
    // An open connection holds the drain until its read timeout.
    drop(stream);

    let kill = Command::new("kill")
        .args(["-TERM", &serving.0.id().to_string()])
        .status()
        .expect("run kill");
    assert!(kill.success());
    let status = serving.0.wait().expect("wait for dhdl-serve");
    assert!(status.success(), "dhdl-serve exited with {status}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(
        rest.lines().any(|l| l == "dhdl-serve: drained cleanly"),
        "stdout after the listen line: {rest:?}"
    );
}
