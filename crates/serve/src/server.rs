//! The threaded TCP server: accept loop, per-connection workers, op
//! dispatch, and the graceful-drain sequence.
//!
//! One thread per connection reads length-prefixed request frames
//! through a buffered reader, dispatches onto the shared estimator +
//! shard-striped [`EstimateCache`], and answers with one response frame
//! per request, rendered into the connection's frame buffer and sent in
//! one write. Robustness is layered:
//!
//! * **framing** — per-connection read/write timeouts and a max request
//!   frame size enforced before allocation ([`crate::frame`]);
//! * **admission** — bounded per-tenant queues, a global cap, and the
//!   degradation ladder ([`crate::admission`]); rejected work gets an
//!   explicit 429-style response with `retry_after_ms`;
//! * **deadlines** — `deadline_ms` headers propagate into
//!   [`DseOptions::deadline`]; expired sweeps stop claiming points and
//!   return flagged `truncated`, never silently completed;
//! * **retries** — a sweep is a pure function of its request, so a
//!   client retry after a torn connection re-runs it, and the points the
//!   interrupted attempt estimated come back from the shared
//!   [`EstimateCache`] through the params memo;
//! * **chaos** — the connection-level [`ChaosConfig`] and the
//!   evaluation-level [`FaultInjector`] can be armed from the
//!   environment; the chaos suite asserts results stay bit-identical.
//!
//! Drain (SIGTERM, SIGINT, or the `shutdown` op) stops the accept loop,
//! rejects new work with `draining`, lets in-flight connections finish
//! (bounded by their read timeouts and sweep deadlines), then flushes
//! the obs sinks before returning.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use dhdl_apps::Benchmark;
use dhdl_core::{structural_hash, ParamValues};
use dhdl_dse::{
    device_count, explore, model_fingerprint, params_key, with_silent_panics, CachedModel,
    CostModel, DseOptions, EstimateCache, FaultConfig, FaultInjector, LegalSpace, SearchStrategy,
};
use dhdl_estimate::{Estimate, Estimator};
use dhdl_target::Platform;

use crate::admission::{Admission, AdmissionConfig, LoadLevel, Rejection, WorkKind};
use crate::chaos::ChaosConfig;
use crate::frame::{
    read_frame_into, FrameBuf, FrameError, DEFAULT_MAX_FRAME, DEFAULT_MAX_RESPONSE,
};
use crate::json::Json;
use crate::protocol::{
    ok_response, params_to_json, point_to_json, write_error, write_estimate, write_rejected,
    Header, Op, ProtoError, Request, PROTOCOL_VERSION,
};
use crate::signal;

/// Everything configurable about a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`DHDL_SERVE_ADDR`; `127.0.0.1:0` picks a port).
    pub addr: String,
    /// Admission bounds (`DHDL_SERVE_QUEUE_CAP` sets the per-tenant cap).
    pub admission: AdmissionConfig,
    /// Connection-level chaos (`DHDL_SERVE_CHAOS`).
    pub chaos: ChaosConfig,
    /// Evaluation-level fault injection (`DHDL_SERVE_FAULTS`).
    pub faults: Option<FaultConfig>,
    /// Per-connection socket read timeout: an idle or stalled peer is
    /// disconnected after this long (`DHDL_SERVE_TIMEOUT_MS`).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Maximum accepted request frame.
    pub max_frame: usize,
    /// Maximum response frame; larger responses become a structured
    /// `response_too_large` error.
    pub max_response: usize,
    /// Cap on `points` accepted by a sweep request
    /// (`DHDL_SERVE_MAX_POINTS`).
    pub max_sweep_points: usize,
    /// Worker threads per sweep (`0` = all cores).
    pub sweep_threads: usize,
    /// Default deadline applied when a request carries none
    /// (`DHDL_SERVE_DEADLINE_MS`; `None` = unbounded).
    pub default_deadline: Option<Duration>,
    /// Estimator calibration sample count (kept small so startup is
    /// fast; calibration is deterministic in the seed).
    pub calib_samples: usize,
    /// Estimator calibration seed.
    pub calib_seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7436".to_string(),
            admission: AdmissionConfig::default(),
            chaos: ChaosConfig::disabled(),
            faults: None,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_frame: DEFAULT_MAX_FRAME,
            max_response: DEFAULT_MAX_RESPONSE,
            max_sweep_points: 2_000,
            sweep_threads: 0,
            default_deadline: None,
            calib_samples: 20,
            calib_seed: 7,
        }
    }
}

impl ServerConfig {
    /// Build a config from the `DHDL_SERVE_*` environment knobs (see the
    /// README's environment table); unset knobs keep their defaults.
    pub fn from_env() -> Self {
        let mut cfg = ServerConfig::default();
        let get = |k: &str| std::env::var(k).ok();
        if let Some(v) = get("DHDL_SERVE_ADDR") {
            cfg.addr = v;
        }
        let parse_usize = |k: &str, into: &mut usize| {
            if let Some(v) = get(k) {
                match v.parse() {
                    Ok(n) => *into = n,
                    Err(_) => eprintln!("warning: {k}={v} is not an integer; keeping default"),
                }
            }
        };
        parse_usize("DHDL_SERVE_QUEUE_CAP", &mut cfg.admission.tenant_cap);
        parse_usize("DHDL_SERVE_GLOBAL_CAP", &mut cfg.admission.global_cap);
        parse_usize("DHDL_SERVE_SWEEP_CAP", &mut cfg.admission.sweep_cap);
        parse_usize("DHDL_SERVE_MAX_POINTS", &mut cfg.max_sweep_points);
        parse_usize("DHDL_SERVE_THREADS", &mut cfg.sweep_threads);
        if let Some(v) = get("DHDL_SERVE_DEADLINE_MS") {
            match v.parse() {
                Ok(ms) => cfg.default_deadline = Some(Duration::from_millis(ms)),
                Err(_) => eprintln!("warning: DHDL_SERVE_DEADLINE_MS={v} is not an integer"),
            }
        }
        if let Some(v) = get("DHDL_SERVE_TIMEOUT_MS") {
            match v.parse() {
                Ok(ms) => {
                    cfg.read_timeout = Duration::from_millis(ms);
                    cfg.write_timeout = Duration::from_millis(ms);
                }
                Err(_) => eprintln!("warning: DHDL_SERVE_TIMEOUT_MS={v} is not an integer"),
            }
        }
        cfg.chaos = ChaosConfig::from_env();
        if let Some(v) = get("DHDL_SERVE_FAULTS") {
            match parse_faults(&v) {
                Ok(f) => cfg.faults = Some(f),
                Err(e) => eprintln!("warning: DHDL_SERVE_FAULTS: {e}; faults stay off"),
            }
        }
        cfg
    }
}

/// Parse the `DHDL_SERVE_FAULTS` knob:
/// `"panic=0.05,nan=0.01,spike=0.02,spike_ms=5,seed=9,hard=1"`.
///
/// # Errors
///
/// Returns a description of the offending clause.
pub fn parse_faults(s: &str) -> Result<FaultConfig, String> {
    let mut cfg = FaultConfig::default();
    for clause in s.split(',').filter(|c| !c.trim().is_empty()) {
        let (k, v) = clause
            .split_once('=')
            .ok_or_else(|| format!("fault clause `{clause}` is not key=value"))?;
        let rate = || -> Result<f64, String> {
            let r: f64 = v
                .parse()
                .map_err(|_| format!("fault rate `{v}` is not a number"))?;
            if !(0.0..=1.0).contains(&r) {
                return Err(format!("fault rate `{v}` outside [0,1]"));
            }
            Ok(r)
        };
        match k.trim() {
            "panic" => cfg.panic_rate = rate()?,
            "nan" => cfg.nan_rate = rate()?,
            "spike" => cfg.spike_rate = rate()?,
            "spike_ms" => {
                cfg.spike = Duration::from_millis(
                    v.parse()
                        .map_err(|_| format!("spike_ms `{v}` is not an integer"))?,
                )
            }
            "seed" => {
                cfg.seed = v
                    .parse()
                    .map_err(|_| format!("seed `{v}` is not an integer"))?
            }
            "hard" => cfg.transient = v != "1" && v != "true",
            other => return Err(format!("unknown fault key `{other}`")),
        }
    }
    Ok(cfg)
}

#[derive(Debug, Default)]
struct ServeCounters {
    requests: AtomicU64,
    protocol_errors: AtomicU64,
    estimates: AtomicU64,
    estimate_cache_hits: AtomicU64,
    sweeps: AtomicU64,
    degraded_hits: AtomicU64,
    chaos_drops: AtomicU64,
    chaos_truncations: AtomicU64,
    chaos_stalls: AtomicU64,
}

/// One servable benchmark and its params-key salt.
struct Served {
    bench: Box<dyn Benchmark>,
    salt: OnceLock<u64>,
}

impl Served {
    /// The params-key salt ([`Benchmark::salt`]), derived on first use.
    fn salt(&self) -> u64 {
        *self.salt.get_or_init(|| self.bench.salt())
    }
}

struct State {
    cfg: ServerConfig,
    admission: Admission,
    estimator: Estimator,
    cache: EstimateCache,
    /// Every benchmark `dhdl_apps::by_name` knows, built once at bind so
    /// a request neither boxes a benchmark nor takes a lock for its salt.
    served: Vec<Served>,
    draining: AtomicBool,
    counters: ServeCounters,
}

impl State {
    fn served(&self, name: &str) -> Option<&Served> {
        self.served.iter().find(|s| s.bench.name() == name)
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || signal::drain_requested()
    }
}

/// The serving process: a bound listener plus the shared estimator,
/// cache and admission state.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Calibrate the estimator, create the estimate cache, and bind the
    /// listen socket.
    ///
    /// # Errors
    ///
    /// Returns any socket bind failure.
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        let _span = dhdl_obs::span!("serve.bind");
        let estimator =
            Estimator::calibrate_with(&Platform::maia(), cfg.calib_samples, cfg.calib_seed).0;
        let cache = EstimateCache::new(model_fingerprint(&estimator));
        let listener = TcpListener::bind(&cfg.addr)?;
        let admission = Admission::new(cfg.admission);
        Ok(Server {
            listener,
            state: Arc::new(State {
                cfg,
                admission,
                estimator,
                cache,
                served: dhdl_apps::all()
                    .into_iter()
                    .chain(dhdl_apps::dnn())
                    .map(|bench| Served {
                        bench,
                        salt: OnceLock::new(),
                    })
                    .collect(),
                draining: AtomicBool::new(false),
                counters: ServeCounters::default(),
            }),
        })
    }

    /// The bound listen address (resolves `:0` ports).
    ///
    /// # Errors
    ///
    /// Returns any socket introspection failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Bind and run on a background thread; returns the bound address
    /// and the join handle (which yields when the server drains).
    ///
    /// # Errors
    ///
    /// Returns any bind failure.
    pub fn spawn(
        cfg: ServerConfig,
    ) -> io::Result<(SocketAddr, std::thread::JoinHandle<io::Result<()>>)> {
        let server = Server::bind(cfg)?;
        let addr = server.local_addr()?;
        let handle = std::thread::spawn(move || server.run());
        Ok((addr, handle))
    }

    /// Serve until drain is requested (SIGTERM/SIGINT, or a `shutdown`
    /// op), then drain gracefully: stop accepting, let in-flight
    /// connections finish, flush the obs sinks.
    ///
    /// # Errors
    ///
    /// Returns fatal listener failures; per-connection failures are
    /// handled (and counted) without stopping the server.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut conn_seq = 0u64;
        while !self.state.draining() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let state = Arc::clone(&self.state);
                    let id = conn_seq;
                    conn_seq += 1;
                    conns.push(std::thread::spawn(move || handle_conn(&state, stream, id)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            // Reap finished connection threads so a long-lived server
            // does not accumulate handles.
            conns.retain(|h| !h.is_finished());
        }
        // Drain: reject new work, let in-flight connections wind down
        // (bounded by read timeouts and sweep deadlines).
        self.state.admission.drain();
        for h in conns {
            let _ = h.join();
        }
        let _ = dhdl_obs::finish("serve");
        Ok(())
    }
}

/// One connection: read a frame, apply the chaos plan, dispatch, write a
/// frame; repeat until the peer closes, errors, or chaos kills it. The
/// reader's buffer, the request payload and the response frame are the
/// connection's own and are reused from request to request.
///
/// With `DHDL_OBS` set the four stages around the dispatch are timed:
/// `serve.frame.read_ns` (blocking, so it includes the wait for the
/// peer's next frame), `serve.req.parse_ns`, `serve.req.encode_ns` and
/// `serve.frame.write_ns`.
fn handle_conn(state: &State, stream: TcpStream, conn_id: u64) {
    let _ = stream.set_read_timeout(Some(state.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(state.cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(&stream);
    let mut writer = &stream;
    let mut payload = Vec::new();
    let mut frame = FrameBuf::default();
    let max_response = state.cfg.max_response;
    let mut frame_idx = 0u64;
    loop {
        let timer = dhdl_obs::histogram!("serve.frame.read_ns").timer();
        let read = read_frame_into(&mut reader, state.cfg.max_frame, &mut payload);
        drop(timer);
        match read {
            Ok(()) => {}
            Err(FrameError::Closed) => return,
            Err(FrameError::TooLarge { declared, max }) => {
                // The oversized payload still sits in the socket; answer
                // with a structured error, then close (the stream is no
                // longer frame-aligned).
                state
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let err = ProtoError::new(
                    "frame_too_large",
                    format!("{declared}-byte frame exceeds the {max}-byte limit"),
                );
                write_error(frame.start(), &err);
                let _ = frame.send(&mut writer, max_response);
                return;
            }
            Err(FrameError::Io(_)) => {
                // Torn frame, reset, or a stalled peer that hit the read
                // timeout: nothing sane to answer on this socket.
                return;
            }
        }
        let plan = state.cfg.chaos.plan(conn_id, frame_idx);
        frame_idx += 1;
        if plan.drop_conn {
            // Injected connection death *before* execution: the client
            // sees a dead socket and retries; no work ran, so a retried
            // non-idempotent request is still executed exactly once.
            state.counters.chaos_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        state.counters.requests.fetch_add(1, Ordering::Relaxed);
        let timer = dhdl_obs::histogram!("serve.req.parse_ns").timer();
        let request = Request::parse(&payload);
        drop(timer);
        let reply = match request {
            Ok(req) => dispatch(state, &req),
            Err(e) => {
                state
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                Reply::Error(e)
            }
        };
        let timer = dhdl_obs::histogram!("serve.req.encode_ns").timer();
        reply.write(frame.start());
        if frame.payload_len() > max_response {
            // Downgrade an oversized response to a structured error.
            let err = ProtoError::new(
                "response_too_large",
                format!(
                    "{}-byte response exceeds the {max_response}-byte limit",
                    frame.payload_len()
                ),
            );
            write_error(frame.start(), &err);
        }
        drop(timer);
        if plan.stall {
            state.counters.chaos_stalls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(state.cfg.chaos.stall);
        }
        if plan.truncate {
            // Injected torn response: correct length prefix, half the
            // payload, then close. The client must treat this as a
            // failed attempt, not a short response.
            state
                .counters
                .chaos_truncations
                .fetch_add(1, Ordering::Relaxed);
            if let Ok(bytes) = frame.seal(max_response) {
                let _ = writer.write_all(&bytes[..4 + (bytes.len() - 4) / 2]);
            }
            return;
        }
        let timer = dhdl_obs::histogram!("serve.frame.write_ns").timer();
        let sent = frame.send(&mut writer, max_response);
        drop(timer);
        if sent.is_err() {
            return;
        }
    }
}

/// What a request is answered with. The three replies of the hot
/// request are written field by field; the rest render a [`Json`] tree.
enum Reply {
    /// `status: "ok"` for an `estimate`.
    Estimate {
        est: Estimate,
        valid: bool,
        cached: bool,
        degraded: bool,
    },
    /// `status: "rejected"`: admission refused the work.
    Rejected(Rejection),
    /// `status: "error"`.
    Error(ProtoError),
    /// Any other `status: "ok"` response.
    Tree(Json),
}

impl Reply {
    fn error(code: &'static str, message: impl Into<String>) -> Reply {
        Reply::Error(ProtoError::new(code, message))
    }

    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Reply::Estimate {
                est,
                valid,
                cached,
                degraded,
            } => write_estimate(out, est, *valid, *cached, *degraded),
            Reply::Rejected(r) => write_rejected(out, r.code, r.retry_after_ms),
            Reply::Error(e) => write_error(out, e),
            Reply::Tree(json) => json.render_into(out),
        }
    }
}

fn dispatch(state: &State, req: &Request) -> Reply {
    let t0 = Instant::now();
    let reply = match &req.op {
        Op::Health => handle_health(state),
        Op::Stats => handle_stats(state),
        Op::Shutdown => {
            state.draining.store(true, Ordering::SeqCst);
            state.admission.drain();
            Reply::Tree(ok_response([("state", Json::Str("draining".to_string()))]))
        }
        Op::Submit { bench } => handle_submit(state, bench),
        Op::Estimate { bench, params } => handle_estimate(state, &req.header, bench, params, t0),
        Op::Sweep {
            bench,
            points,
            seed,
            strategy,
            num_fpgas,
        } => handle_sweep(
            state,
            &req.header,
            bench,
            *points,
            *seed,
            strategy.as_ref(),
            num_fpgas.unwrap_or(1),
        ),
    };
    if dhdl_obs::enabled() {
        dhdl_obs::histogram!("serve.req.us").record(t0.elapsed().as_micros() as u64);
    }
    reply
}

fn level_str(level: LoadLevel) -> &'static str {
    match level {
        LoadLevel::Normal => "normal",
        LoadLevel::Busy => "busy",
        LoadLevel::Saturated => "saturated",
    }
}

fn handle_health(state: &State) -> Reply {
    Reply::Tree(ok_response([
        (
            "state",
            Json::Str(
                if state.draining() {
                    "draining"
                } else {
                    "accepting"
                }
                .to_string(),
            ),
        ),
        (
            "level",
            Json::Str(level_str(state.admission.level()).to_string()),
        ),
        ("protocol", Json::Num(PROTOCOL_VERSION as f64)),
        ("cache_entries", Json::Num(state.cache.len() as f64)),
    ]))
}

fn handle_stats(state: &State) -> Reply {
    let a = state.admission.stats();
    let c = &state.counters;
    let n = |v: u64| Json::Num(v as f64);
    let nu = |v: usize| Json::Num(v as f64);
    Reply::Tree(ok_response([
        ("requests", n(c.requests.load(Ordering::Relaxed))),
        (
            "protocol_errors",
            n(c.protocol_errors.load(Ordering::Relaxed)),
        ),
        ("estimates", n(c.estimates.load(Ordering::Relaxed))),
        (
            "estimate_cache_hits",
            n(c.estimate_cache_hits.load(Ordering::Relaxed)),
        ),
        ("sweeps", n(c.sweeps.load(Ordering::Relaxed))),
        ("degraded_hits", n(c.degraded_hits.load(Ordering::Relaxed))),
        ("chaos_drops", n(c.chaos_drops.load(Ordering::Relaxed))),
        (
            "chaos_truncations",
            n(c.chaos_truncations.load(Ordering::Relaxed)),
        ),
        ("chaos_stalls", n(c.chaos_stalls.load(Ordering::Relaxed))),
        ("inflight", nu(a.inflight)),
        ("peak_inflight", nu(a.peak_inflight)),
        ("admitted", nu(a.admitted)),
        ("rejected_tenant", nu(a.rejected_tenant)),
        ("rejected_overload", nu(a.rejected_overload)),
        ("rejected_shed", nu(a.rejected_shed)),
        ("rejected_draining", nu(a.rejected_draining)),
        ("cache_entries", nu(state.cache.len())),
        ("cache_params_entries", nu(state.cache.params_len())),
        (
            "level",
            Json::Str(level_str(state.admission.level()).to_string()),
        ),
    ]))
}

fn handle_submit(state: &State, bench_name: &str) -> Reply {
    let Some(Served { bench, .. }) = state.served(bench_name) else {
        return unknown_bench(bench_name);
    };
    let space = bench.param_space();
    let legal = LegalSpace::new(&space);
    match bench.build(&bench.default_params()) {
        Ok(design) => Reply::Tree(ok_response([
            ("bench", Json::Str(bench.name().to_string())),
            ("space_size", Json::Str(legal.size().to_string())),
            (
                "structural",
                Json::Str(format!("{:016x}", structural_hash(&design))),
            ),
            ("default_params", params_to_json(&bench.default_params())),
        ])),
        Err(e) => Reply::error(
            "build_failed",
            format!("default parameters do not build: {e}"),
        ),
    }
}

fn unknown_bench(name: &str) -> Reply {
    Reply::error("unknown_bench", format!("no benchmark named `{name}`"))
}

fn handle_estimate(
    state: &State,
    header: &Header,
    bench_name: &str,
    params: &ParamValues,
    received: Instant,
) -> Reply {
    state.counters.estimates.fetch_add(1, Ordering::Relaxed);
    let Some(served) = state.served(bench_name) else {
        return unknown_bench(bench_name);
    };
    let pk = params_key(served.salt(), params);
    let model = CachedModel::new(&state.estimator, &state.cache);
    let reply = |est: Estimate, cached: bool, degraded: bool| Reply::Estimate {
        valid: est.area.fits(&state.estimator.platform().fpga),
        est,
        cached,
        degraded,
    };
    // The degraded fast path: a memoized answer is served without an
    // admission permit, even when the server is saturated or draining —
    // flagged `degraded` so the client knows it may be stale relative to
    // a recalibrated model.
    if let Some(est) = model.lookup_params(pk) {
        state
            .counters
            .estimate_cache_hits
            .fetch_add(1, Ordering::Relaxed);
        let degraded = state.admission.level() == LoadLevel::Saturated || state.draining();
        if degraded {
            state.counters.degraded_hits.fetch_add(1, Ordering::Relaxed);
        }
        if dhdl_obs::enabled() {
            dhdl_obs::histogram!("serve.estimate.hit.us")
                .record(received.elapsed().as_micros() as u64);
        }
        return reply(est, true, degraded);
    }
    // Cache miss: real work, so it must pass admission.
    let _permit = match state
        .admission
        .admit(&header.tenant, header.priority, WorkKind::Estimate)
    {
        Ok(p) => p,
        Err(r) => return Reply::Rejected(r),
    };
    if let Some(deadline_ms) = header.deadline_ms {
        if received.elapsed() >= Duration::from_millis(deadline_ms) {
            // Expired work is cancelled, never silently completed.
            return Reply::error("deadline_exceeded", "deadline expired");
        }
    }
    let design = match served.bench.build(params) {
        Ok(d) => d,
        Err(e) => return Reply::error("bad_params", format!("design does not build: {e}")),
    };
    let est = model.estimate_devices(Some(pk), &design, device_count(params));
    if dhdl_obs::enabled() {
        dhdl_obs::histogram!("serve.estimate.miss.us")
            .record(received.elapsed().as_micros() as u64);
    }
    reply(est, false, false)
}

fn handle_sweep(
    state: &State,
    header: &Header,
    bench_name: &str,
    points: usize,
    seed: u64,
    strategy: Option<&SearchStrategy>,
    num_fpgas: u32,
) -> Reply {
    let Some(served) = state.served(bench_name) else {
        return unknown_bench(bench_name);
    };
    let bench = &served.bench;
    let _permit = match state
        .admission
        .admit(&header.tenant, header.priority, WorkKind::Sweep)
    {
        Ok(p) => p,
        Err(r) => return Reply::Rejected(r),
    };
    let t0 = Instant::now();
    state.counters.sweeps.fetch_add(1, Ordering::Relaxed);
    let deadline = header
        .deadline_ms
        .map(Duration::from_millis)
        .or(state.cfg.default_deadline);
    let opts = DseOptions {
        max_points: points.min(state.cfg.max_sweep_points),
        seed,
        threads: state.cfg.sweep_threads,
        deadline,
        cache_salt: Some(served.salt()),
        // The request's strategy wins; absent one, the server operator's
        // DHDL_DSE_STRATEGY environment decides (default random).
        strategy: strategy.cloned().unwrap_or_else(SearchStrategy::from_env),
        ..DseOptions::default()
    };
    let mut space = bench.param_space();
    if num_fpgas > 1 {
        // Multi-FPGA requests sweep the `num_fpgas` axis too; a request
        // without the field sweeps the bit-identical single-chip space.
        space.devices(u64::from(num_fpgas));
    }
    let model = CachedModel::new(&state.estimator, &state.cache);
    let build = |p: &ParamValues| bench.build(p);
    let result = match &state.cfg.faults {
        Some(fcfg) => {
            let injector = FaultInjector::new(&model, fcfg.clone());
            with_silent_panics(|| explore(build, &space, &injector, &opts))
        }
        None => explore(build, &space, &model, &opts),
    };
    dhdl_obs::histogram!("serve.sweep.ms").record(t0.elapsed().as_millis() as u64);
    Reply::Tree(ok_response([
        (
            "points",
            Json::Arr(result.points.iter().map(point_to_json).collect()),
        ),
        (
            "pareto",
            Json::Arr(result.pareto.iter().map(|&i| Json::Num(i as f64)).collect()),
        ),
        ("space_size", Json::Str(result.space_size.to_string())),
        ("discarded", Json::Num(result.discarded as f64)),
        ("recovered", Json::Num(result.counts.recovered as f64)),
        ("truncated", Json::Bool(result.truncated)),
    ]))
}

#[cfg(test)]
mod tests {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    use dhdl_core::Fnv64;

    use super::*;

    thread_local! {
        /// Allocations (and reallocations) made on this thread.
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// The system allocator, counting calls per thread so that tests
    /// running beside this one do not show in its count.
    struct Counting;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the counter is a
    // const-initialized thread-local `Cell` without a destructor, so
    // touching it neither allocates nor runs after thread teardown.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
            // SAFETY: the caller's obligations are passed on as they are.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: as for `alloc`.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
            // SAFETY: as for `alloc`.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: Counting = Counting;

    /// The userland path of a request as `handle_conn` walks it, on
    /// buffers that outlive the request.
    fn serve(state: &State, payload: &[u8], frame: &mut FrameBuf) {
        let request = Request::parse(payload).expect("a rendered request parses");
        dispatch(state, &request).write(frame.start());
    }

    #[test]
    fn a_cache_hit_allocates_only_what_the_request_type_owns() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        })
        .unwrap();
        let state = &*server.state;
        // gda has the most parameters (seven) of the nine benchmarks.
        let bench = dhdl_apps::by_name("gda").unwrap();
        let payload = Request::new(Op::Estimate {
            bench: "gda".to_string(),
            params: bench.default_params(),
        })
        .render();
        let mut frame = FrameBuf::default();
        serve(state, &payload, &mut frame);
        let miss = frame.seal(DEFAULT_MAX_RESPONSE).unwrap()[4..].to_vec();
        assert!(String::from_utf8_lossy(&miss).contains("\"cached\":false"));

        // The first hit registers the cache's hit counters with dhdl-obs.
        serve(state, &payload, &mut frame);

        let before = ALLOCATIONS.with(Cell::get);
        serve(state, &payload, &mut frame);
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        let hit = frame.seal(DEFAULT_MAX_RESPONSE).unwrap()[4..].to_vec();
        assert_eq!(
            String::from_utf8_lossy(&hit),
            String::from_utf8_lossy(&miss).replace("\"cached\":false", "\"cached\":true")
        );
        // Ten today — tenant, bench, seven parameter names and one map
        // node, which is what `Request` owns — and nothing for the JSON,
        // the salt, the benchmark, the lookup or the response.
        assert!(
            allocations <= 12,
            "a cache hit made {allocations} allocations"
        );
    }

    #[test]
    fn a_retired_key_member_changes_no_response_byte() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        })
        .unwrap();
        let state = &*server.state;
        let mut frame = FrameBuf::default();
        let mut answer = |payload: &[u8]| {
            serve(state, payload, &mut frame);
            frame.seal(DEFAULT_MAX_RESPONSE).unwrap()[4..].to_vec()
        };
        let bench = dhdl_apps::by_name("dotproduct").unwrap();
        for op in [
            Op::Estimate {
                bench: "dotproduct".to_string(),
                params: bench.default_params(),
            },
            Op::Sweep {
                bench: "dotproduct".to_string(),
                points: 40,
                seed: 7,
                strategy: None,
                num_fpgas: None,
            },
        ] {
            let plain = Request::new(op).render();
            // An estimate's first answer is a miss, every later one a hit.
            answer(&plain);
            let want = answer(&plain);
            // Clients predating this protocol send an idempotency `key`,
            // as a string or (mistyped) as a number.
            for key in ["\"sweep-17\"", "17"] {
                let keyed = [format!("{{\"key\":{key},").as_bytes(), &plain[1..]].concat();
                assert_eq!(answer(&keyed), want, "{}", String::from_utf8_lossy(&keyed));
            }
        }
    }

    #[test]
    fn salts_equal_the_in_process_derivation() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        })
        .unwrap();
        let state = &*server.state;
        for bench in dhdl_apps::all().into_iter().chain(dhdl_apps::dnn()) {
            let served = state
                .served(bench.name())
                .expect("every benchmark is served");
            let mut h = Fnv64::new();
            h.write(bench.name().as_bytes());
            h.write(bench.dataset_desc().as_bytes());
            let design = bench.build(&bench.default_params()).unwrap();
            h.write_u64(structural_hash(&design));
            assert_eq!(served.salt(), h.finish(), "{}", bench.name());
            assert!(dhdl_apps::by_name(bench.name()).is_some());
        }
        assert!(state.served("saxpy").is_none());
    }
}
