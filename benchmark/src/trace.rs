//! Spans recorded by the harness around each call into a layer.
//!
//! The crates under test are not instrumented for this: every span is
//! opened and closed here, on the harness's side of a public function.
//! Spans live in memory until the run ends; the per-layer metrics are
//! derived from them ([`self_times`]) and the raw list is written to
//! `out/trace-<workload>.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use dhdl_serve::Json;

/// `parent` of a span opened at the top level.
pub const NO_PARENT: u32 = u32::MAX;

/// Recording stops at this many spans (about 10 MB in memory, and a
/// trace file of about the same size), so a traced run sized by
/// `--seconds` cannot grow without bound.
pub const MAX_SPANS: usize = 200_000;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: u32,
    /// The round of the workload the span belongs to.
    pub round: u32,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
}

impl Tracer {
    /// A tracer that records (`true`) or only runs the closures
    /// (`false`: the untraced twin used to measure tracing overhead).
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// `true` once [`MAX_SPANS`] are recorded; callers stop their
    /// traced rounds then.
    pub fn is_full(&self) -> bool {
        self.spans.len() >= MAX_SPANS
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Run `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it is handed become this span's children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            round: self.round,
        });
        self.open.push(id);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        let span = &mut self.spans[id as usize];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// The trace file: a name table plus one
    /// `[name, start_ns, end_ns, parent, round]` row per span. Written
    /// straight into a string: a `Json` tree of 200 000 rows would cost
    /// several times the spans themselves.
    pub fn render(&self, workload: &str) -> String {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let quoted = |s: &str| Json::Str(s.to_string()).render();
        let mut out = format!(
            "{{\"workload\":{},\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"round\"],\"names\":[{}],\"spans\":[",
            quoted(workload),
            names.iter().map(|n| quoted(n)).collect::<Vec<_>>().join(",")
        );
        for (i, s) in self.spans.iter().enumerate() {
            let name = names.binary_search(&s.name).expect("name was collected");
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}[{name},{},{},{parent},{}]",
                s.start_ns, s.end_ns, s.round
            );
        }
        out.push_str("]}");
        out
    }
}

/// Calls and summed self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub calls: u64,
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time per call in nanoseconds (0 with no calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

/// Self time per span name: each span's duration minus the part of it
/// its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        let e = by_name.entry(s.name).or_default();
        e.calls += 1;
        e.self_ns += ns;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_direct_children_cover() {
        let spans = [
            span("point", 0, 100, NO_PARENT),
            span("build", 10, 40, 0),
            span("estimate", 40, 90, 0),
            span("latency", 45, 75, 2),
            span("point", 100, 150, NO_PARENT),
            span("build", 100, 120, 4),
        ];
        let t = self_times(&spans);
        // point: (100 - 30 - 50) + (50 - 20); the grandchild `latency`
        // comes off `estimate`, not off `point`.
        assert_eq!(
            t["point"],
            SelfTime {
                calls: 2,
                self_ns: 50
            }
        );
        assert_eq!(
            t["build"],
            SelfTime {
                calls: 2,
                self_ns: 50
            }
        );
        assert_eq!(
            t["estimate"],
            SelfTime {
                calls: 1,
                self_ns: 20
            }
        );
        assert_eq!(t["latency"].mean_ns(), 30.0);
        // Self times add back up to the top-level wall time.
        let total: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(total, 150);
    }

    #[test]
    fn tracer_nests_by_call_structure_and_tags_rounds() {
        let mut tr = Tracer::new(true);
        tr.set_round(3);
        let got = tr.span("outer", |tr| {
            tr.span("inner", |_| 1) + tr.span("inner", |tr| tr.span("leaf", |_| 2))
        });
        assert_eq!(got, 3);
        let s = tr.spans();
        let shape: Vec<_> = s.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            shape,
            [
                ("outer", NO_PARENT),
                ("inner", 0),
                ("inner", 0),
                ("leaf", 2)
            ]
        );
        assert!(s.iter().all(|s| s.round == 3 && s.end_ns >= s.start_ns));
        assert!(s[1].start_ns >= s[0].start_ns && s[3].end_ns <= s[0].end_ns);
        let json = tr.render("w");
        assert!(json.contains("\"names\":[\"inner\",\"leaf\",\"outer\"]"));
        let parsed = Json::parse(json.as_bytes()).expect("the trace file is JSON");
        let rows = parsed.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[3].as_arr().unwrap()[3], Json::Num(2.0));
        assert_eq!(rows[0].as_arr().unwrap()[3], Json::Num(-1.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("a", |tr| tr.span("b", |_| 7)), 7);
        assert!(tr.spans().is_empty());
    }
}
