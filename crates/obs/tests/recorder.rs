//! Recorder correctness: lossless concurrent counters (proptest over
//! thread counts), span nesting reconstructing a valid tree, and the
//! Chrome-trace JSON round-tripping through a minimal parser.
//!
//! The recorder is process-global, so every test takes `obs_lock()` and
//! uses test-unique metric/span names; the lock serializes mode changes
//! (`init`) that would otherwise race between tests.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

use dhdl_obs::{init, recorder, write_chrome, write_json, write_summary, Mode, Report, SpanEvent};
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

// ---------------------------------------------------------------------
// A minimal JSON parser: just enough for the documents our sinks emit
// (objects, arrays, strings with the escapes we produce, f64 numbers,
// and bare words). Used to prove the Chrome trace is well-formed JSON
// and round-trips the span data.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn as_num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Json {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value();
        p.skip_ws();
        assert_eq!(p.pos, p.bytes.len(), "trailing bytes after JSON value");
        v
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        self.bytes[self.pos]
    }

    fn eat(&mut self, c: u8) {
        assert_eq!(self.peek(), c, "expected {} at {}", c as char, self.pos);
        self.pos += 1;
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => self.number(),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.bytes[self.pos..].starts_with(w.as_bytes()));
        self.pos += w.len();
        v
    }

    fn object(&mut self) -> Json {
        self.eat(b'{');
        let mut map = BTreeMap::new();
        if self.peek() == b'}' {
            self.pos += 1;
            return Json::Obj(map);
        }
        loop {
            let key = {
                assert_eq!(self.peek(), b'"');
                self.string()
            };
            self.eat(b':');
            map.insert(key, self.value());
            match self.peek() {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Json::Obj(map);
                }
                c => panic!("unexpected {} in object", c as char),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.eat(b'[');
        let mut items = Vec::new();
        if self.peek() == b']' {
            self.pos += 1;
            return Json::Arr(items);
        }
        loop {
            items.push(self.value());
            match self.peek() {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Json::Arr(items);
                }
                c => panic!("unexpected {} in array", c as char),
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return out;
                }
                b'\\' => {
                    self.pos += 1;
                    match self.bytes[self.pos] {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .unwrap();
                            let code = u32::from_str_radix(hex, 16).unwrap();
                            out.push(char::from_u32(code).unwrap());
                            self.pos += 4;
                        }
                        c => panic!("unsupported escape \\{}", c as char),
                    }
                    self.pos += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).unwrap();
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Json {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
    }
}

/// Build a synthetic report (the `Report` type is plain data) so the
/// round-trip check is exact rather than timing-dependent.
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
    ];
    let mut counters = BTreeMap::new();
    counters.insert("cache.l1.hit", 42u64);
    counters.insert("sim.cycles", 1_000_000u64);
    Report {
        counters,
        histograms: BTreeMap::new(),
        spans,
        dropped_spans: 0,
    }
}

#[test]
fn chrome_trace_round_trips_through_a_parser() {
    let report = synthetic_report();
    let mut out = Vec::new();
    write_chrome(&report, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let doc = Parser::parse(&text);

    assert_eq!(doc.get("displayTimeUnit").as_str(), "ms");
    let events = doc.get("traceEvents").as_arr();
    // Leading process_name metadata + 3 spans + trailing counter metadata.
    assert_eq!(events.len(), 5);
    assert_eq!(events[0].get("ph").as_str(), "M");
    assert_eq!(
        events[0].get("args").get("name").as_str(),
        "dhdl",
        "process metadata names the process"
    );

    // Every span round-trips: name (with label), tid, µs timestamps, args.
    let span_events = &events[1..4];
    for (ev, src) in span_events.iter().zip(&report.spans) {
        assert_eq!(ev.get("ph").as_str(), "X");
        assert_eq!(ev.get("cat").as_str(), "dhdl");
        let expect_name = match &src.label {
            Some(label) => format!("{}:{}", src.name, label),
            None => src.name.to_string(),
        };
        assert_eq!(ev.get("name").as_str(), expect_name);
        assert_eq!(ev.get("tid").as_num() as u32, src.tid);
        let ts_ns = ev.get("ts").as_num() * 1e3;
        let dur_ns = ev.get("dur").as_num() * 1e3;
        assert!(
            (ts_ns - src.start_ns as f64).abs() < 1.0,
            "ts {ts_ns} vs {}",
            src.start_ns
        );
        assert!((dur_ns - src.dur_ns as f64).abs() < 1.0);
        if let Some((key, value)) = src.arg {
            assert_eq!(ev.get("args").get(key).as_num() as u64, value);
        }
    }

    // The counter metadata event carries every counter.
    let meta = &events[4];
    assert_eq!(meta.get("name").as_str(), "dhdl_counters");
    assert_eq!(meta.get("args").get("cache.l1.hit").as_num() as u64, 42);
    assert_eq!(
        meta.get("args").get("sim.cycles").as_num() as u64,
        1_000_000
    );
}

#[test]
fn json_sink_round_trips_through_the_parser() {
    let report = synthetic_report();
    let mut out = Vec::new();
    write_json(&report, &mut out).unwrap();
    let doc = Parser::parse(&String::from_utf8(out).unwrap());
    assert_eq!(doc.get("counters").get("cache.l1.hit").as_num() as u64, 42);
    assert_eq!(doc.get("span_events").as_num() as usize, 3);
    assert_eq!(doc.get("dropped_spans").as_num() as u64, 0);
    let rollup = doc.get("spans").as_arr();
    assert_eq!(rollup.len(), 3);
    // Rollup is sorted by descending total time: sweep dominates.
    assert_eq!(rollup[0].get("name").as_str(), "sweep");
    assert_eq!(rollup[0].get("total_ns").as_num() as u64, 500_000);
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
