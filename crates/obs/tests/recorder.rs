//! Recorder correctness: lossless concurrent counters (proptest over
//! thread counts), span nesting reconstructing a valid tree, and the
//! JSON and Chrome-trace sinks round-tripping through the codec's parser.
//!
//! The recorder is process-global, so every test takes `obs_lock()` and
//! uses test-unique metric/span names; the lock serializes mode changes
//! (`init`) that would otherwise race between tests.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

use dhdl_obs::json::Json;
use dhdl_obs::{
    init, recorder, write_chrome, write_json, write_summary, HistSnapshot, Mode, Report, SpanEvent,
};
use proptest::proptest;

/// Serialize tests that touch the global recorder mode.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A test-unique `&'static str` (counter registration leaks storage
/// anyway, so leaking names in tests is consistent with production).
fn unique_name(prefix: &str, tag: u64) -> &'static str {
    Box::leak(format!("{prefix}.{tag}").into_boxed_str())
}

#[test]
fn disabled_primitives_record_nothing() {
    let _guard = obs_lock();
    init(Mode::Off);
    let c = dhdl_obs::counter("test.disabled.counter");
    let h = dhdl_obs::histogram("test.disabled.hist");
    c.add(5);
    h.record(100);
    {
        let _span = dhdl_obs::span!("test.disabled.span");
    }
    assert_eq!(c.get(), 0);
    assert_eq!(h.snapshot().count, 0);
    let report = recorder().snapshot();
    assert!(!report.spans.iter().any(|s| s.name == "test.disabled.span"));
}

#[test]
fn mode_parsing_is_strict() {
    assert_eq!(Mode::parse("off"), Ok(Mode::Off));
    assert_eq!(Mode::parse("0"), Ok(Mode::Off));
    assert_eq!(Mode::parse("summary"), Ok(Mode::Summary));
    assert_eq!(Mode::parse("json"), Ok(Mode::Json));
    assert_eq!(Mode::parse("chrome"), Ok(Mode::Chrome));
    for bad in ["", "sumary", "Chrome", "on", "trace"] {
        let r = Mode::parse(bad);
        assert!(r.is_err(), "`{bad}` should be rejected");
        assert!(r.unwrap_err().contains("off|summary|json|chrome"));
    }
    assert_eq!("json".parse::<Mode>(), Ok(Mode::Json));
}

proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(16))]
    /// Concurrent increments from a work-stealing-shaped pool are
    /// lossless for any thread count: the counter ends at exactly the
    /// sum of all per-thread contributions.
    #[test]
    fn concurrent_counter_increments_are_lossless(
        threads in 1usize..9,
        per_thread in 1u64..2_000,
        tag in 0u64..u64::MAX,
    ) {
        let _guard = obs_lock();
        init(Mode::Summary);
        let name = unique_name("test.prop.counter", tag);
        let counter = dhdl_obs::counter(name);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        counter.incr();
                    }
                });
            }
        });
        init(Mode::Off);
        proptest::prop_assert_eq!(counter.get(), threads as u64 * per_thread);
    }

    /// Histogram totals are likewise lossless under concurrency, and the
    /// aggregate invariants (count, sum, min/max bounds) hold.
    #[test]
    fn concurrent_histogram_records_are_lossless(
        threads in 1usize..9,
        per_thread in 1u64..500,
        tag in 0u64..u64::MAX,
    ) {
        let _guard = obs_lock();
        init(Mode::Summary);
        let name = unique_name("test.prop.hist", tag);
        let hist = dhdl_obs::histogram(name);
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    for i in 0..per_thread {
                        hist.record(t as u64 * 1_000 + i);
                    }
                });
            }
        });
        init(Mode::Off);
        let snap = hist.snapshot();
        proptest::prop_assert_eq!(snap.count, threads as u64 * per_thread);
        let expected_sum: u64 = (0..threads as u64)
            .map(|t| (0..per_thread).map(|i| t * 1_000 + i).sum::<u64>())
            .sum();
        proptest::prop_assert_eq!(snap.sum, expected_sum);
        proptest::prop_assert_eq!(snap.min, 0);
        proptest::prop_assert_eq!(snap.max, (threads as u64 - 1) * 1_000 + per_thread - 1);
        proptest::prop_assert!(snap.quantile(0.5) >= snap.min);
        proptest::prop_assert!(snap.quantile(0.99) <= snap.max.max(1));
    }
}

/// Reconstruct the span forest of one thread and check validity: every
/// span at depth d has a full chain of d open ancestors, and each span's
/// interval is contained in its parent's.
fn check_thread_forest(spans: &[&SpanEvent]) {
    let mut ordered: Vec<&SpanEvent> = spans.to_vec();
    // Order by start time, parents before children on a timestamp tie
    // (sub-ns spans can share a start).
    ordered.sort_by_key(|s| (s.start_ns, s.depth));
    let mut stack: Vec<&SpanEvent> = Vec::new();
    for s in ordered {
        stack.truncate(s.depth as usize);
        assert_eq!(
            stack.len(),
            s.depth as usize,
            "span {s:?} is missing ancestors"
        );
        if let Some(parent) = stack.last() {
            assert!(
                s.start_ns >= parent.start_ns
                    && s.start_ns + s.dur_ns <= parent.start_ns + parent.dur_ns,
                "child span {s:?} escapes parent {parent:?}"
            );
        }
        stack.push(s);
    }
}

#[test]
fn span_nesting_reconstructs_a_valid_tree() {
    let _guard = obs_lock();
    init(Mode::Summary);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let _outer = dhdl_obs::span!("test.tree.outer");
                for i in 0..3 {
                    let _mid = dhdl_obs::span!("test.tree.mid", i);
                    let _inner = dhdl_obs::span!("test.tree.inner");
                }
            });
        }
    });
    init(Mode::Off);
    let report = recorder().snapshot();
    let ours: Vec<&SpanEvent> = report
        .spans
        .iter()
        .filter(|s| s.name.starts_with("test.tree."))
        .collect();
    assert_eq!(
        ours.len(),
        4 * (1 + 3 + 3),
        "4 threads x (1 outer + 3 mid + 3 inner)"
    );
    let tids: std::collections::BTreeSet<u32> = ours.iter().map(|s| s.tid).collect();
    assert_eq!(tids.len(), 4, "each worker thread gets its own tid");
    for tid in tids {
        let per_thread: Vec<&SpanEvent> = ours.iter().copied().filter(|s| s.tid == tid).collect();
        check_thread_forest(&per_thread);
        // Exactly one top-level span per thread, covering all others.
        let top: Vec<&&SpanEvent> = per_thread.iter().filter(|s| s.depth == 0).collect();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].name, "test.tree.outer");
    }
    // The `span!(name, expr)` form captured the argument name and value.
    let with_arg = ours
        .iter()
        .find(|s| s.name == "test.tree.mid")
        .expect("mid spans recorded");
    let (key, _value) = with_arg.arg.expect("mid span carries an argument");
    assert_eq!(key, "i");
}

/// Parse a sink's output with the workspace codec.
fn parse(out: &[u8]) -> Json {
    Json::parse(out).unwrap_or_else(|e| panic!("{e}: {}", String::from_utf8_lossy(out)))
}

/// The member of `v` at `path`, which must be there.
fn at<'a>(v: &'a Json, path: &[&str]) -> &'a Json {
    path.iter().fold(v, |v, key| {
        v.get(key)
            .unwrap_or_else(|| panic!("missing key {key:?} in {v:?}"))
    })
}

fn text<'a>(v: &'a Json, path: &[&str]) -> &'a str {
    at(v, path).as_str().expect("a string")
}

fn num(v: &Json, path: &[&str]) -> f64 {
    match at(v, path) {
        Json::Num(n) => *n,
        other => panic!("not a number: {other:?}"),
    }
}

fn arr<'a>(v: &'a Json, path: &[&str]) -> &'a [Json] {
    at(v, path).as_arr().expect("an array")
}

/// A span's name in a Chrome trace: `name`, or `name:label`.
fn trace_name(s: &SpanEvent) -> String {
    match &s.label {
        Some(label) => format!("{}:{}", s.name, label),
        None => s.name.to_string(),
    }
}

/// A name no sink may pass through verbatim: a quote, a backslash, a
/// newline, control bytes and non-ASCII text.
const HOSTILE: &str = "q\"uote\\back\nline\u{1}\t\u{1f}\u{7f}caf\u{e9} \u{1F4A1}";

/// Build a synthetic report (the `Report` type is plain data) so the
/// round-trip check is exact rather than timing-dependent. Span names,
/// labels, argument keys, counter and histogram names include
/// [`HOSTILE`] ones.
fn synthetic_report() -> Report {
    let spans = vec![
        SpanEvent {
            name: "sweep",
            label: Some("dot\"product".to_string()), // exercise escaping
            arg: None,
            tid: 0,
            depth: 0,
            start_ns: 1_000,
            dur_ns: 500_000,
        },
        SpanEvent {
            name: "elaborate",
            label: None,
            arg: Some(("shape", 0xBEEF)),
            tid: 0,
            depth: 1,
            start_ns: 2_000,
            dur_ns: 10_500,
        },
        SpanEvent {
            name: "estimate_net",
            label: None,
            arg: None,
            tid: 1,
            depth: 0,
            start_ns: 3_000,
            dur_ns: 7_250,
        },
        SpanEvent {
            name: HOSTILE,
            label: Some(HOSTILE.to_string()),
            arg: Some((HOSTILE, u64::MAX)),
            tid: 1,
            depth: 1,
            start_ns: 4_000,
            dur_ns: 1_000,
        },
    ];
    let mut counters = BTreeMap::new();
    counters.insert("cache.l1.hit", 42u64);
    counters.insert("sim.cycles", 1_000_000u64);
    counters.insert(HOSTILE, 7);
    let hist = HistSnapshot {
        count: 1,
        sum: 5,
        min: 5,
        max: 5,
        buckets: vec![0, 0, 0, 1],
    };
    Report {
        counters,
        histograms: BTreeMap::from([(HOSTILE, hist)]),
        spans,
        dropped_spans: 0,
    }
}

#[test]
fn chrome_trace_round_trips_through_a_parser() {
    let report = synthetic_report();
    let mut out = Vec::new();
    write_chrome(&report, &mut out).unwrap();
    let doc = parse(&out);

    assert_eq!(text(&doc, &["displayTimeUnit"]), "ms");
    let events = arr(&doc, &["traceEvents"]);
    // Leading process_name metadata + the spans + trailing counter metadata.
    let n = report.spans.len();
    assert_eq!(events.len(), n + 2);
    assert_eq!(text(&events[0], &["ph"]), "M");
    assert_eq!(
        text(&events[0], &["args", "name"]),
        "dhdl",
        "process metadata names the process"
    );

    // Every span round-trips: name (with label), tid, µs timestamps, args.
    for (ev, src) in events[1..=n].iter().zip(&report.spans) {
        assert_eq!(text(ev, &["ph"]), "X");
        assert_eq!(text(ev, &["cat"]), "dhdl");
        assert_eq!(text(ev, &["name"]), trace_name(src));
        assert_eq!(num(ev, &["tid"]) as u32, src.tid);
        let ts_ns = num(ev, &["ts"]) * 1e3;
        let dur_ns = num(ev, &["dur"]) * 1e3;
        assert!(
            (ts_ns - src.start_ns as f64).abs() < 1.0,
            "ts {ts_ns} vs {}",
            src.start_ns
        );
        assert!((dur_ns - src.dur_ns as f64).abs() < 1.0);
        if let Some((key, value)) = src.arg {
            assert_eq!(num(ev, &["args", key]), value as f64);
        }
    }

    // The counter metadata event carries every counter.
    let meta = &events[n + 1];
    assert_eq!(text(meta, &["name"]), "dhdl_counters");
    for (name, value) in &report.counters {
        assert_eq!(num(meta, &["args", name]), *value as f64);
    }
}

#[test]
fn json_sink_round_trips_through_the_parser() {
    let report = synthetic_report();
    let mut out = Vec::new();
    write_json(&report, &mut out).unwrap();
    let doc = parse(&out);
    for (name, value) in &report.counters {
        assert_eq!(num(&doc, &["counters", name]), *value as f64);
    }
    assert_eq!(num(&doc, &["histograms", HOSTILE, "sum"]), 5.0);
    assert_eq!(num(&doc, &["span_events"]) as usize, report.spans.len());
    assert_eq!(num(&doc, &["dropped_spans"]) as u64, 0);
    let rollup = arr(&doc, &["spans"]);
    let names: Vec<&str> = rollup.iter().map(|r| text(r, &["name"])).collect();
    // Rollup is sorted by descending total time: sweep dominates.
    assert_eq!(names, ["sweep", "elaborate", "estimate_net", HOSTILE]);
    assert_eq!(num(&rollup[0], &["total_ns"]) as u64, 500_000);
}

#[test]
fn summary_sink_renders_all_sections() {
    let _guard = obs_lock();
    init(Mode::Summary);
    dhdl_obs::counter!("test.summary.counter").add(7);
    dhdl_obs::histogram!("test.summary.hist_ns").record(1_500);
    {
        let _span = dhdl_obs::span!("test.summary.span");
    }
    init(Mode::Off);
    let report = recorder().snapshot();
    let mut out = Vec::new();
    write_summary(&report, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    for needle in [
        "dhdl-obs summary",
        "test.summary.counter",
        "test.summary.hist_ns",
        "test.summary.span",
    ] {
        assert!(text.contains(needle), "summary missing {needle}:\n{text}");
    }
}

#[test]
fn toplevel_coverage_counts_only_depth_zero() {
    let report = synthetic_report();
    // sweep (500_000) + estimate_net (7_250); the nested elaborate span
    // must not double-count.
    assert_eq!(report.toplevel_coverage_ns(), 507_250);
}

#[test]
fn timer_records_into_histogram() {
    let _guard = obs_lock();
    init(Mode::Summary);
    let h = dhdl_obs::histogram("test.timer.hist_ns");
    {
        let _t = h.timer();
        std::hint::black_box(1 + 1);
    }
    init(Mode::Off);
    let snap = h.snapshot();
    assert_eq!(snap.count, 1);
    assert!(snap.max >= snap.min);
}
