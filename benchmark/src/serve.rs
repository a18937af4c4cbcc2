//! `serve_hot` and `serve_cold`: a `dhdl-serve` child process under a
//! closed loop of `estimate` requests.
//!
//! Closed loop, one connection: a DSE front-end waits for each reply
//! before it sends the next point. Generator and server are pinned to
//! one core through `taskset`, which gave the steadiest readings on a
//! two-core box (unpinned, or pinned to two cores, the figure measures
//! the scheduler's wake-up latency instead of the server).
//!
//! `serve_hot` draws Zipf(1) from 432 pre-warmed points, so every request
//! is a parameter-memo hit and frame → parse → lookup → encode → write is
//! the whole cost. `serve_cold` asks for each of the other legal points
//! exactly once, so every request misses, passes admission and runs
//! build → hash → estimate → insert; the codec is about a quarter of it.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dhdl_apps::Benchmark;
use dhdl_core::ParamValues;
use dhdl_dse::{model_fingerprint, params_key, CachedModel, CostModel, EstimateCache, LegalSpace};
use dhdl_estimate::{Estimate, Estimator};
use dhdl_serve::{
    parse_bits, read_frame, write_frame, Admission, AdmissionConfig, Json, Op, Request, WorkKind,
    DEFAULT_MAX_FRAME, DEFAULT_MAX_RESPONSE,
};
use dhdl_target::Platform;

use crate::common::{b9, bench_salt, pin, repeat_setup, Ctx, Report, Rounds};
use crate::names::BENCHES;
use crate::rng::{shuffle, SplitMix64, Zipf};
use crate::stats;
use crate::sys;
use crate::trace::{self_times, Tracer};
use crate::yard::Yardstick;

/// Hot points per application (432 over the nine).
const HOT_PER_BENCH: usize = 48;
/// Requests per `serve_hot` round.
const HOT_ROUND: usize = 20_000;
/// Requests per `serve_cold` round; a server process serves
/// `cold points / COLD_ROUND` rounds, then a fresh one takes over.
const COLD_ROUND: usize = 5_000;
/// One response in this many is parsed and compared bit for bit with an
/// in-process estimator.
const VERIFY_EVERY: usize = 100;
/// Requests the traced in-process replay walks.
const REPLAY_REQUESTS: usize = 2_000;
/// The server's default calibration (`ServerConfig::default`).
const SERVER_CALIB: (usize, u64) = (20, 7);

/// A running `dhdl-serve` child; killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
    drain: Option<std::thread::JoinHandle<()>>,
    /// CPU seconds the child had used when it started listening.
    cpu_at_start: f64,
}

impl Server {
    /// Spawn the server on an ephemeral port, on `cpu` when given.
    fn spawn(out_dir: &Path, cpu: Option<u32>) -> Server {
        let exe = std::env::current_exe().expect("own path");
        let bin = exe.with_file_name("dhdl-serve");
        assert!(
            bin.is_file(),
            "{} is missing: build it with `cargo build --release -p dhdl-serve` (run.sh does)",
            bin.display()
        );
        let mut cmd = match cpu {
            Some(c) => {
                let mut t = Command::new("taskset");
                t.args(["-c", &c.to_string()]).arg(&bin);
                t
            }
            None => Command::new(&bin),
        };
        let mut child = cmd
            .env("DHDL_SERVE_ADDR", "127.0.0.1:0")
            .env("DHDL_SERVE_CKPT_DIR", out_dir.join("serve-ckpt"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn dhdl-serve");
        // Keep reading the child's stdout for as long as it lives, so
        // nothing it prints can block on, or fail against, a closed pipe.
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("dhdl-serve: listening on ") {
                    let _ = tx.send(addr.trim().parse::<SocketAddr>());
                }
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            drain: Some(drain),
            cpu_at_start: 0.0,
        };
        // From here a panic drops `server`, which kills the child.
        server.addr = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("dhdl-serve printed no listen address within 30 s")
            .expect("listen address parses");
        server.cpu_at_start = sys::pid_cpu_secs(server.child.id()).unwrap_or(0.0);
        server
    }

    fn connect(&self) -> Conn {
        let stream = TcpStream::connect(self.addr).expect("connect to dhdl-serve");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let timeout = Some(Duration::from_secs(10));
        stream.set_read_timeout(timeout).expect("set read timeout");
        stream
            .set_write_timeout(timeout)
            .expect("set write timeout");
        Conn { stream }
    }

    /// CPU seconds the child has used since it started listening.
    fn cpu_secs(&self) -> f64 {
        sys::pid_cpu_secs(self.child.id()).unwrap_or(0.0) - self.cpu_at_start
    }

    fn peak_rss_mb(&self) -> f64 {
        sys::peak_rss_mb(Some(self.child.id())).unwrap_or(0.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn request(&mut self, payload: &[u8]) -> Vec<u8> {
        write_frame(&mut self.stream, payload, DEFAULT_MAX_FRAME).expect("write request frame");
        read_frame(&mut self.stream, DEFAULT_MAX_RESPONSE).expect("read response frame")
    }
}

/// One `estimate` request, rendered once in set-up.
struct Point {
    bench: usize,
    params: ParamValues,
    payload: Vec<u8>,
}

impl Point {
    fn request(&self) -> Request {
        Request::new(Op::Estimate {
            bench: BENCHES[self.bench].to_string(),
            params: self.params.clone(),
        })
    }
}

/// Every legal point of the nine applications, split by a seeded shuffle
/// into the hot set (48 an application) and the cold list (the rest, in
/// one seeded order across applications).
fn points(seed: u64) -> (Vec<Point>, Vec<Point>) {
    let mut rng = SplitMix64::new(seed);
    let (mut hot, mut cold) = (Vec::new(), Vec::new());
    for (bench, b) in b9().iter().enumerate() {
        let mut all = LegalSpace::new(&b.param_space()).enumerate();
        shuffle(&mut all, &mut rng);
        for (i, params) in all.into_iter().enumerate() {
            let mut p = Point {
                bench,
                params,
                payload: Vec::new(),
            };
            p.payload = p.request().render();
            if i < HOT_PER_BENCH {
                &mut hot
            } else {
                &mut cold
            }
            .push(p);
        }
    }
    shuffle(&mut hot, &mut rng);
    shuffle(&mut cold, &mut rng);
    (hot, cold)
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// Responses are compact JSON with sorted keys, so the two fields every
/// response is checked for can be matched as bytes.
fn response_ok(resp: &[u8], cached: bool) -> bool {
    let flag: &[u8] = if cached {
        b"\"cached\":true"
    } else {
        b"\"cached\":false"
    };
    contains(resp, b"\"status\":\"ok\"") && contains(resp, flag)
}

/// What one timed round of requests produced.
struct Round {
    wall: f64,
    latencies_us: Vec<f64>,
    /// `(index into the round's points, response)` for 1 in
    /// [`VERIFY_EVERY`] requests.
    kept: Vec<(usize, Vec<u8>)>,
}

/// Send `order` (indices into `points`) one at a time, waiting for each
/// reply. Counts a failed operation for every response that is not `ok`
/// or has the wrong `cached` flag.
fn round(
    report: &mut Report,
    conn: &mut Conn,
    points: &[Point],
    order: &[usize],
    cached: bool,
) -> Round {
    let mut latencies_us = Vec::with_capacity(order.len());
    let mut kept = Vec::with_capacity(order.len() / VERIFY_EVERY + 1);
    let mut bad = 0u64;
    let start = Instant::now();
    for (n, &i) in order.iter().enumerate() {
        let t = Instant::now();
        let resp = conn.request(&points[i].payload);
        latencies_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        if !response_ok(&resp, cached) {
            bad += 1;
            if bad <= 3 {
                report.failures.push(format!(
                    "unexpected response (want cached={cached}): {}",
                    String::from_utf8_lossy(&resp)
                ));
            }
        }
        if n % VERIFY_EVERY == 0 {
            kept.push((i, resp));
        }
    }
    let wall = start.elapsed().as_secs_f64();
    report.attempted += order.len() as u64;
    report.failed += bad;
    Round {
        wall,
        latencies_us,
        kept,
    }
}

/// The in-process twin of the server's estimator, for checking sampled
/// responses and for timing the server's work without the socket.
struct Twin {
    estimator: Estimator,
    benches: Vec<Box<dyn Benchmark>>,
    salts: Vec<u64>,
    calibrate_ms: f64,
}

impl Twin {
    fn new() -> Twin {
        let t = Instant::now();
        let estimator =
            Estimator::calibrate_with(&Platform::maia(), SERVER_CALIB.0, SERVER_CALIB.1).0;
        let calibrate_ms = t.elapsed().as_secs_f64() * 1e3;
        let benches = b9();
        let salts = benches.iter().map(|b| bench_salt(b.as_ref())).collect();
        Twin {
            estimator,
            benches,
            salts,
            calibrate_ms,
        }
    }

    fn estimate(&self, p: &Point) -> Estimate {
        let design = self.benches[p.bench]
            .build(&p.params)
            .expect("a legal point builds");
        self.estimator.estimate(&design)
    }

    /// Whether a served response carries exactly this twin's estimate.
    fn agrees(&self, p: &Point, resp: &[u8]) -> bool {
        let Ok(json) = Json::parse(resp) else {
            return false;
        };
        let field = |k: &str| json.get(k).and_then(Json::as_str).and_then(parse_bits);
        let want = self.estimate(p);
        [
            ("cycles", want.cycles),
            ("alms", want.area.alms),
            ("regs", want.area.regs),
            ("dsps", want.area.dsps),
            ("brams", want.area.brams),
        ]
        .iter()
        .all(|(k, v)| field(k).is_some_and(|got| got.to_bits() == v.to_bits()))
    }

    fn verify(&self, report: &mut Report, points: &[Point], kept: &[(usize, Vec<u8>)]) {
        for (i, resp) in kept {
            report.check(self.agrees(&points[*i], resp), || {
                format!(
                    "served estimate differs from the in-process one: {}",
                    String::from_utf8_lossy(resp)
                )
            });
        }
    }
}

/// Counters of the server's `stats` op.
struct ServerStats {
    estimates: u64,
    cache_hits: u64,
}

/// Ask for `stats`; any rejection or protocol error on record is a
/// failed check.
fn server_stats(report: &mut Report, conn: &mut Conn) -> ServerStats {
    let resp = conn.request(&Request::new(Op::Stats).render());
    let json = Json::parse(&resp).expect("stats response parses");
    let n = |k: &str| json.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
    for k in [
        "protocol_errors",
        "rejected_tenant",
        "rejected_overload",
        "rejected_shed",
        "rejected_draining",
    ] {
        report.check(n(k) == 0, || format!("server counted {} {k}", n(k)));
    }
    ServerStats {
        estimates: n("estimates"),
        cache_hits: n("estimate_cache_hits"),
    }
}

struct HotSetup {
    server: Server,
    conn: Conn,
    hot: Vec<Point>,
    order: Vec<usize>,
}

/// Spawn, connect, pre-warm the hot set, and draw the round's Zipf
/// sequence (the same sequence every round, so rounds do equal work).
fn setup_hot(ctx: &Ctx, cpu: Option<u32>) -> HotSetup {
    let server = Server::spawn(&ctx.out_dir, cpu);
    let mut conn = server.connect();
    let (hot, _) = points(ctx.seed);
    for p in &hot {
        let resp = conn.request(&p.payload);
        assert!(response_ok(&resp, false), "pre-warm request failed");
    }
    let zipf = Zipf::new(hot.len(), 1.0);
    let mut rng = SplitMix64::new(ctx.seed ^ 0x5A17);
    let order = (0..HOT_ROUND).map(|_| zipf.sample(&mut rng)).collect();
    HotSetup {
        server,
        conn,
        hot,
        order,
    }
}

pub fn run_hot(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let cpu = pin(&mut report);
    let yard = Yardstick::new();
    let (mut s, setup_s) = repeat_setup(&yard, || setup_hot(ctx, cpu));
    report.set("setup_s", setup_s);
    let twin = Twin::new();

    let mut rounds = Rounds::default();
    let end = ctx.until(Instant::now(), 1.0);
    while Instant::now() < end || rounds.len() < 3 {
        let r = rounds.measure(&yard, 1, || {
            let cpu0 = s.server.cpu_secs();
            let r = round(&mut report, &mut s.conn, &s.hot, &s.order, true);
            (HOT_ROUND as u64, r.wall, s.server.cpu_secs() - cpu0, r)
        });
        twin.verify(&mut report, &s.hot, &r.kept);
    }
    rounds.finish(&mut report, &yard);
    report.set("peak_rss_mb", s.server.peak_rss_mb());
    server_stats(&mut report, &mut s.conn);
    report
}

struct ColdSetup {
    server: Server,
    conn: Conn,
    cold: Vec<Point>,
    /// The cold list cut into rounds of [`COLD_ROUND`] indices (a short
    /// tail is left out).
    chunks: Vec<Vec<usize>>,
}

fn setup_cold(ctx: &Ctx, cpu: Option<u32>) -> ColdSetup {
    let server = Server::spawn(&ctx.out_dir, cpu);
    let conn = server.connect();
    let (_, cold) = points(ctx.seed);
    let chunks = (0..cold.len() / COLD_ROUND)
        .map(|c| (c * COLD_ROUND..(c + 1) * COLD_ROUND).collect())
        .collect();
    ColdSetup {
        server,
        conn,
        cold,
        chunks,
    }
}

pub fn run_cold(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let cpu = pin(&mut report);
    let yard = Yardstick::new();
    let (mut s, setup_s) = repeat_setup(&yard, || setup_cold(ctx, cpu));
    report.set("setup_s", setup_s);
    let twin = Twin::new();

    // Walk the cold list in chunks; when it runs out, retire the server
    // (its cache now holds every point) and start over on a fresh one.
    let (mut rounds, mut rss) = (Rounds::default(), 0.0f64);
    let end = ctx.until(Instant::now(), 1.0);
    'servers: loop {
        for order in &s.chunks {
            if Instant::now() >= end && rounds.len() >= 3 {
                break 'servers;
            }
            let r = rounds.measure(&yard, 1, || {
                let cpu0 = s.server.cpu_secs();
                let r = round(&mut report, &mut s.conn, &s.cold, order, false);
                (COLD_ROUND as u64, r.wall, s.server.cpu_secs() - cpu0, r)
            });
            twin.verify(&mut report, &s.cold, &r.kept);
        }
        rss = rss.max(s.server.peak_rss_mb());
        server_stats(&mut report, &mut s.conn);
        s.server = Server::spawn(&ctx.out_dir, cpu);
        s.conn = s.server.connect();
    }
    rss = rss.max(s.server.peak_rss_mb());
    server_stats(&mut report, &mut s.conn);
    rounds.finish(&mut report, &yard);
    report.set("peak_rss_mb", rss);
    report
}

/// Walk `sample` through the server's layers in this process, on the
/// exact request and response bytes of the run, each layer in a span.
fn replay(tr: &mut Tracer, twin: &Twin, sample: &[(&Point, Vec<u8>)], hot: bool) {
    let cache = EstimateCache::new(model_fingerprint(&twin.estimator));
    let model = CachedModel::new(&twin.estimator, &cache);
    let admission = Admission::new(AdmissionConfig::default());
    if hot {
        for (p, _) in sample {
            let pk = params_key(twin.salts[p.bench], &p.params);
            let design = twin.benches[p.bench]
                .build(&p.params)
                .expect("a legal point builds");
            model.estimate_keyed(Some(pk), &design);
        }
    }
    for (p, resp) in sample {
        let response = Json::parse(resp).expect("a served response parses");
        tr.span("serve.request", |tr| {
            let request = p.request();
            let payload = tr.span("serve.protocol.render", |_| request.render());
            tr.span("serve.frame.rw", |_| {
                for bytes in [&payload, resp] {
                    let mut wire = Vec::with_capacity(bytes.len() + 4);
                    write_frame(&mut wire, bytes, DEFAULT_MAX_RESPONSE).expect("in-memory write");
                    std::hint::black_box(
                        read_frame(&mut &wire[..], DEFAULT_MAX_RESPONSE).expect("in-memory read"),
                    );
                }
            });
            tr.span("serve.json.parse", |_| Json::parse(&payload))
                .expect("a rendered request is JSON");
            let parsed = tr
                .span("serve.request.parse", |_| Request::parse(&payload))
                .expect("a rendered request parses");
            let Op::Estimate { bench, params } = &parsed.op else {
                panic!("an estimate request parsed as another op");
            };
            tr.span("serve.work", |tr| {
                let b = dhdl_apps::by_name(bench).expect("a known benchmark");
                let pk = params_key(twin.salts[p.bench], params);
                if let Some(est) = model.lookup_params(pk) {
                    assert!(hot, "a cold replay hit the cache");
                    return est;
                }
                assert!(!hot, "a hot replay missed the cache");
                tr.span("serve.admission.admit", |_| {
                    drop(admission.admit(
                        &parsed.header.tenant,
                        parsed.header.priority,
                        WorkKind::Estimate,
                    ));
                });
                let design = b.build(params).expect("a legal point builds");
                model.estimate_keyed(Some(pk), &design)
            });
            tr.span("serve.json.render", |_| {
                std::hint::black_box(response.render())
            });
        });
    }
}

/// The traced run of `serve_hot` (`hot`) or `serve_cold`.
pub fn trace(ctx: &Ctx, hot: bool) -> (Report, Tracer) {
    let mut report = Report::default();
    let cpu = pin(&mut report);
    report.set("serve.pinned", f64::from(u8::from(cpu.is_some())));
    let twin = Twin::new();
    report.set("estimate.calibrate_ms", twin.calibrate_ms);

    // Real rounds first: client latency, and the requests and responses
    // the in-process replay then walks.
    let (points, orders, server, mut conn) = if hot {
        let s = setup_hot(ctx, cpu);
        (s.hot, vec![s.order], s.server, s.conn)
    } else {
        let s = setup_cold(ctx, cpu);
        (s.cold, s.chunks, s.server, s.conn)
    };
    let mut latencies = Vec::new();
    let end = ctx.until(Instant::now(), 0.4);
    for order in orders
        .iter()
        .cycle()
        .take(if hot { usize::MAX } else { orders.len() })
    {
        if Instant::now() >= end && !latencies.is_empty() {
            break;
        }
        let r = round(&mut report, &mut conn, &points, order, hot);
        twin.verify(&mut report, &points, &r.kept);
        latencies.extend(r.latencies_us);
    }
    let sorted = stats::sorted(&latencies);
    let p50 = stats::percentile_sorted(&sorted, 50.0);
    report.set("serve.client.p50_us", p50);
    report.set(
        "serve.client.p99_us",
        stats::percentile_sorted(&sorted, 99.0),
    );
    report.note(format!("client latency over {} requests", sorted.len()));
    let st = server_stats(&mut report, &mut conn);
    // Pre-warm requests of the hot set miss by design; leave them out.
    let prewarm = if hot { points.len() as u64 } else { 0 };
    report.set(
        "serve.cache.hit_ratio",
        st.cache_hits as f64 / st.estimates.saturating_sub(prewarm).max(1) as f64,
    );

    // Fetch the exact response of each request the replay will walk. On
    // the cold workload these points are in the server's cache by now;
    // only the `cached` flag differs from the first answer.
    let sample: Vec<(&Point, Vec<u8>)> = orders[0]
        .iter()
        .take(REPLAY_REQUESTS)
        .map(|&i| (&points[i], conn.request(&points[i].payload)))
        .collect();
    drop(conn);
    drop(server);

    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let yard = Yardstick::new();
    let (mut traced, mut plain, mut rounds) = (0.0, 0.0, 0u32);
    let end = ctx.until(Instant::now(), 0.4);
    while (Instant::now() < end || rounds < 2) && !tr.is_full() {
        tr.set_round(rounds);
        yard.speed(1);
        for first in [rounds % 2 == 0, rounds % 2 != 0] {
            let t = Instant::now();
            replay(if first { &mut tr } else { &mut off }, &twin, &sample, hot);
            let dt = t.elapsed().as_secs_f64();
            *(if first { &mut traced } else { &mut plain }) += dt;
        }
        rounds += 1;
    }
    report.set("trace_overhead_pct", (traced / plain - 1.0) * 100.0);
    report.set("machine.yardstick_us", yard.median_us());
    report.note(format!(
        "{rounds} traced replay rounds, {} spans",
        tr.spans().len()
    ));

    let t = self_times(tr.spans());
    let mean = |name: &str| t.get(name).map_or(0.0, |s| s.mean_ns());
    // `Request::parse` parses the JSON itself; its own share is what is
    // left after a bare `Json::parse` of the same payload.
    let protocol_parse = (mean("serve.request.parse") - mean("serve.json.parse")).max(0.0);
    report.set("serve.protocol.render_ns", mean("serve.protocol.render"));
    report.set("serve.json.parse_ns", mean("serve.json.parse"));
    report.set("serve.protocol.parse_ns", protocol_parse);
    report.set("serve.admission.admit_ns", mean("serve.admission.admit"));
    report.set("serve.json.render_ns", mean("serve.json.render"));
    report.set("serve.frame.rw_ns", mean("serve.frame.rw"));
    report.set("serve.work_us", mean("serve.work") / 1e3);
    let per_request = |total: usize| total as f64 / sample.len() as f64;
    report.set(
        "serve.req_bytes",
        per_request(sample.iter().map(|(p, _)| p.payload.len()).sum()),
    );
    report.set(
        "serve.resp_bytes",
        per_request(sample.iter().map(|(_, r)| r.len()).sum()),
    );
    // What the server does for a request, timed here without a socket;
    // the rest of the client's p50 is socket calls and context switches.
    let server_side_ns = mean("serve.frame.rw")
        + mean("serve.request.parse")
        + mean("serve.work")
        + mean("serve.admission.admit")
        + mean("serve.json.render");
    report.set("serve.transport_us", p50 - server_side_ns / 1e3);
    (report, tr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_and_cold_sets_partition_the_legal_points_per_seed() {
        let (hot, cold) = points(5);
        assert_eq!(hot.len(), HOT_PER_BENCH * BENCHES.len());
        let legal: usize = b9()
            .iter()
            .map(|b| LegalSpace::new(&b.param_space()).size() as usize)
            .sum();
        assert_eq!(hot.len() + cold.len(), legal);
        let key = |p: &Point| (p.bench, p.params.to_string());
        let mut all: Vec<_> = hot.iter().chain(&cold).map(key).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), legal, "a point is in both sets or in one twice");

        let (hot2, cold2) = points(5);
        assert!(hot.iter().zip(&hot2).all(|(a, b)| a.payload == b.payload));
        assert!(cold.iter().zip(&cold2).all(|(a, b)| a.payload == b.payload));
        let (hot3, _) = points(6);
        assert!(hot.iter().zip(&hot3).any(|(a, b)| a.payload != b.payload));
    }

    #[test]
    fn response_check_reads_status_and_cached_flag() {
        let hit = br#"{"alms":"0","cached":true,"degraded":false,"status":"ok"}"#;
        let miss = br#"{"alms":"0","cached":false,"degraded":false,"status":"ok"}"#;
        let rejected = br#"{"cached":true,"code":"overloaded","status":"rejected"}"#;
        assert!(response_ok(hit, true) && !response_ok(hit, false));
        assert!(response_ok(miss, false) && !response_ok(miss, true));
        assert!(!response_ok(rejected, true));
    }
}
