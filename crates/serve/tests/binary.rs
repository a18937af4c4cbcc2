//! The `dhdl-serve` executable end to end: it binds the address
//! `DHDL_SERVE_ADDR` names, announces it on stdout, answers through its
//! estimate cache, and drains and exits 0 on SIGTERM.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use dhdl_dse::LegalSpace;
use dhdl_serve::json::Json;
use dhdl_serve::{Op, Request};

#[path = "support/conn.rs"]
mod conn;
use conn::{connect, request, request_ok};

/// The child process, killed and reaped if the test fails before it
/// exits on its own.
struct Serving(Child);

impl Drop for Serving {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Serving {
    /// Start the binary on a free port; returns it, the rest of its
    /// stdout and the address it announced.
    fn start() -> (Serving, BufReader<ChildStdout>, SocketAddr) {
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
        let addr = line
            .trim_end()
            .strip_prefix("dhdl-serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
            .parse()
            .expect("a socket address");
        (serving, stdout, addr)
    }

    fn sigterm(&self) {
        let kill = Command::new("kill")
            .args(["-TERM", &self.0.id().to_string()])
            .status()
            .expect("run kill");
        assert!(kill.success());
    }

    /// Wait for the exit and check it was a clean drain.
    fn drained(mut self, mut stdout: BufReader<ChildStdout>) {
        let status = self.0.wait().expect("wait for dhdl-serve");
        assert!(status.success(), "dhdl-serve exited with {status}");
        let mut rest = String::new();
        stdout.read_to_string(&mut rest).unwrap();
        assert!(
            rest.lines().any(|l| l == "dhdl-serve: drained cleanly"),
            "stdout after the listen line: {rest:?}"
        );
    }
}

fn estimate(params: dhdl_core::ParamValues) -> Request {
    Request::new(Op::Estimate {
        bench: "dotproduct".to_string(),
        params,
    })
}

#[test]
fn the_binary_serves_from_its_cache_and_drains_on_sigterm() {
    let (serving, stdout, addr) = Serving::start();
    let mut stream = connect(addr);
    let bench = dhdl_apps::by_name("dotproduct").unwrap();
    let estimate = estimate(bench.default_params());
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

    serving.sigterm();
    serving.drained(stdout);
}

/// After SIGTERM the accept loop ends and `run` closes admission, so a
/// connection that stays open gets its misses refused as `draining`
/// while its hits are still answered, flagged `degraded`.
#[test]
fn a_connection_open_across_sigterm_is_refused_new_work() {
    const BOUND: Duration = Duration::from_secs(10);
    let (serving, stdout, addr) = Serving::start();
    let mut stream = connect(addr);
    let bench = dhdl_apps::by_name("dotproduct").unwrap();
    let hit = estimate(bench.default_params());
    request_ok(&mut stream, &hit);

    serving.sigterm();
    // Ask for one point after another (each a miss until the space
    // wraps) until the drain refuses one.
    let legal = LegalSpace::new(&bench.param_space());
    let start = Instant::now();
    let mut i = 0;
    let refused = loop {
        let resp = request(&mut stream, &estimate(legal.point(i % legal.size())));
        if resp.get("status").and_then(Json::as_str) == Some("rejected") {
            break resp;
        }
        assert!(
            start.elapsed() < BOUND,
            "no miss refused in {BOUND:?} after SIGTERM"
        );
        i += 1;
    };
    assert_eq!(refused.get("code").and_then(Json::as_str), Some("draining"));

    let resp = request_ok(&mut stream, &hit);
    assert_eq!(resp.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("degraded").and_then(Json::as_bool), Some(true));
    drop(stream);
    serving.drained(stdout);
}
