//! # dhdl-obs — observability for the DHDL toolchain
//!
//! The paper's core claim is *speed of evaluation*: any design point can
//! be estimated in milliseconds, so design space exploration can sweep
//! millions of points (§V). This crate is how the toolchain sees where
//! those milliseconds go. It provides three primitives —
//!
//! * [`span!`] — a lightweight RAII timing span (`span!("elaborate")`,
//!   or `span!("elaborate", shape)` to attach a numeric argument);
//! * [`counter!`] — a named monotonic counter
//!   (`counter!("cache.l1.hit").incr()`);
//! * [`histogram!`] — a named log₂-bucketed latency histogram
//!   (`histogram!("estimate.area_ns").timer()` records on drop) —
//!
//! all recorded into a process-global, thread-safe [`Recorder`] and
//! drained as a human-readable summary table ([`write_summary`]),
//! machine-readable JSON ([`write_json`]) or Chrome `trace_event` JSON
//! ([`write_chrome`]) loadable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev).
//!
//! ## Off by default, near-zero overhead
//!
//! Recording is disabled until [`init`] (or [`init_from_env`], reading
//! `DHDL_OBS=off|summary|json|chrome`) selects a mode other than
//! [`Mode::Off`]. While disabled, every primitive costs one relaxed
//! atomic load and a branch — no clock reads, no allocation, no locks —
//! so instrumented hot paths (`elaborate`, `estimate_net`, the DSE
//! runner, the estimate cache, the simulator) are unperturbed; every
//! workload of `benchmark/run.sh` runs disabled, so that cost is part of
//! the `sweep_cold` rows it tracks. Observation never changes results either
//! way: sweeps are byte-identical with recording on or off (tested in
//! `dhdl-dse`'s `cache_consistency` suite).
//!
//! ## Wiring
//!
//! Binaries call [`init_from_env`] first and [`finish`] last:
//!
//! ```
//! dhdl_obs::init_from_env(); // honors DHDL_OBS, default off
//! {
//!     let _span = dhdl_obs::span!("work");
//!     dhdl_obs::counter!("work.items").add(3);
//! }
//! dhdl_obs::finish("my-binary"); // summary table / results/obs/ files
//! ```
//!
//! Output files land under `results/obs/` (respecting
//! `DHDL_RESULTS_DIR`): `<label>.obs.json` for [`Mode::Json`] and
//! `<label>.trace.json` for [`Mode::Chrome`].

#![deny(missing_docs)]

mod metrics;
mod recorder;
mod sink;
mod span;

pub use metrics::{Counter, HistSnapshot, Histogram, Timer};
pub use recorder::{Recorder, Report, SpanRollup};
pub use sink::{write_chrome, write_json, write_summary};
pub use span::{Span, SpanEvent};

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::OnceLock;

/// What the process does with recorded observations, selected once at
/// startup via [`init`] / [`init_from_env`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// No recording (the default): primitives cost one atomic load and
    /// a branch, and [`finish`] is a no-op.
    #[default]
    Off,
    /// Record, and print a human-readable summary table to stderr on
    /// [`finish`].
    Summary,
    /// Record, and write `results/obs/<label>.obs.json` on [`finish`].
    Json,
    /// Record, and write Chrome `trace_event` JSON to
    /// `results/obs/<label>.trace.json` on [`finish`] — open it in
    /// `chrome://tracing` or Perfetto.
    Chrome,
}

impl Mode {
    /// Parse a mode string: `off`/`0`, `summary`, `json`, or `chrome`.
    ///
    /// # Errors
    ///
    /// Returns the offending string for anything else — a typo'd
    /// `DHDL_OBS=sumary` must not silently disable observation.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "off" | "0" => Ok(Mode::Off),
            "summary" => Ok(Mode::Summary),
            "json" => Ok(Mode::Json),
            "chrome" => Ok(Mode::Chrome),
            other => Err(format!(
                "unrecognized observation mode `{other}` (expected off|summary|json|chrome)"
            )),
        }
    }
}

impl std::str::FromStr for Mode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Mode::parse(s)
    }
}

/// Fast-path gate: `true` while a recording mode is active.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// The active [`Mode`], as a `u8` (`Off`=0, `Summary`=1, `Json`=2,
/// `Chrome`=3).
static MODE: AtomicU8 = AtomicU8::new(0);

/// Whether observation is currently recording. Inlined into every
/// primitive; this load-plus-branch *is* the disabled-path overhead.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Select the process observation mode. Usually called once at startup
/// (see [`init_from_env`]); tests may toggle it, which only affects
/// whether observations are recorded, never what instrumented code
/// computes.
pub fn init(mode: Mode) {
    MODE.store(mode as u8, Ordering::Relaxed);
    ENABLED.store(mode != Mode::Off, Ordering::Relaxed);
}

/// The currently selected [`Mode`].
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        1 => Mode::Summary,
        2 => Mode::Json,
        3 => Mode::Chrome,
        _ => Mode::Off,
    }
}

/// Initialize from the `DHDL_OBS` environment variable and return the
/// selected mode. Unset means [`Mode::Off`]; an unrecognized value warns
/// on stderr and stays off rather than masquerading as a valid mode.
pub fn init_from_env() -> Mode {
    let mode = match std::env::var("DHDL_OBS") {
        Ok(v) => Mode::parse(&v).unwrap_or_else(|e| {
            eprintln!("warning: DHDL_OBS: {e}; observation stays off");
            Mode::Off
        }),
        Err(_) => Mode::Off,
    };
    init(mode);
    mode
}

/// The process-global recorder every [`span!`], [`counter!`] and
/// [`histogram!`] records into.
pub fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(Recorder::new)
}

/// Register (or look up) the global counter `name`. Prefer the
/// [`counter!`] macro, which caches the handle at the call site.
pub fn counter(name: &'static str) -> Counter {
    recorder().counter(name)
}

/// Register (or look up) the global histogram `name`. Prefer the
/// [`histogram!`] macro, which caches the handle at the call site.
pub fn histogram(name: &'static str) -> Histogram {
    recorder().histogram(name)
}

/// Start a span named `name` on the global recorder; the returned guard
/// records the span when dropped. Prefer the [`span!`] macro.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span::start(name, None, None)
}

/// [`span()`] with one numeric argument (shown in trace viewers and the
/// JSON dump as `{key: value}`).
#[inline]
pub fn span_arg(name: &'static str, key: &'static str, value: u64) -> Span {
    Span::start(name, Some((key, value)), None)
}

/// [`span()`] with a dynamic label (e.g. a benchmark name). The label is
/// only materialized while recording is enabled.
#[inline]
pub fn span_labeled(name: &'static str, label: &str) -> Span {
    if !enabled() {
        return Span::disabled();
    }
    Span::start(name, None, Some(label.to_string()))
}

/// Drain the global recorder in the format the active [`Mode`]
/// selects: a summary table on stderr, or a JSON/Chrome-trace file named
/// after `label` under `results/obs/`. Returns the path written, if any.
/// A no-op (returning `None`) when observation is off.
pub fn finish(label: &str) -> Option<PathBuf> {
    let mode = mode();
    if mode == Mode::Off {
        return None;
    }
    let report = recorder().snapshot();
    match mode {
        Mode::Off => None,
        Mode::Summary => {
            let mut out = Vec::new();
            if write_summary(&report, &mut out).is_ok() {
                eprint!("{}", String::from_utf8_lossy(&out));
            }
            None
        }
        Mode::Json => write_report(label, "obs.json", |w| write_json(&report, w)),
        Mode::Chrome => write_report(label, "trace.json", |w| write_chrome(&report, w)),
    }
}

/// The directory every tool writes its output files under:
/// `DHDL_RESULTS_DIR`, or `results` relative to the working directory.
/// Only names the path; whoever writes a file creates the directory.
pub fn results_dir() -> PathBuf {
    std::env::var_os("DHDL_RESULTS_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

fn write_report(
    label: &str,
    ext: &str,
    emit: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>,
) -> Option<PathBuf> {
    let dir = results_dir().join("obs");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{label}.{ext}"));
    let mut out = Vec::new();
    if let Err(e) = emit(&mut out) {
        eprintln!("warning: could not render observation report: {e}");
        return None;
    }
    match std::fs::write(&path, out) {
        Ok(()) => {
            eprintln!("observation report: {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("warning: could not write {}: {e}", path.display());
            None
        }
    }
}

/// Start (or fetch) a named global counter, caching the handle in a
/// call-site static so repeated executions cost one atomic load.
///
/// ```
/// dhdl_obs::counter!("demo.widgets").add(2);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __DHDL_OBS_COUNTER: ::std::sync::OnceLock<$crate::Counter> =
            ::std::sync::OnceLock::new();
        *__DHDL_OBS_COUNTER.get_or_init(|| $crate::counter($name))
    }};
}

/// Start (or fetch) a named global histogram, caching the handle in a
/// call-site static so repeated executions cost one atomic load.
///
/// ```
/// dhdl_obs::histogram!("demo.latency_ns").record(1_250);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __DHDL_OBS_HIST: ::std::sync::OnceLock<$crate::Histogram> =
            ::std::sync::OnceLock::new();
        *__DHDL_OBS_HIST.get_or_init(|| $crate::histogram($name))
    }};
}

/// Open a timing span that records when the returned guard drops. Bind
/// it (`let _span = ...`) so it lives to the end of the scope; a second
/// expression argument attaches `stringify!(arg) = arg as u64` to the
/// span.
///
/// ```
/// let shape = 0xBEEFu64;
/// let _span = dhdl_obs::span!("elaborate", shape);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $arg:expr) => {
        $crate::span_arg($name, stringify!($arg), ($arg) as u64)
    };
}
