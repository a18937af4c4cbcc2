//! Report renderers, one per `DHDL_OBS` mode: a summary table,
//! machine-readable JSON, and Chrome `trace_event` JSON. Each writes a
//! [`Report`] snapshot to any [`Write`].

use std::io::{self, Write};

use crate::json::{write_num, write_str, write_u64, ObjWriter};
use crate::recorder::Report;

/// Format nanoseconds with a human-scale unit.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.1}us", ns as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// Human-readable fixed-width summary table (the `DHDL_OBS=summary`
/// output): counters, histogram latency digests, and a span rollup by
/// total time.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_summary(report: &Report, mut w: impl Write) -> io::Result<()> {
    writeln!(w, "== dhdl-obs summary ==")?;
    if !report.spans.is_empty() {
        writeln!(
            w,
            "spans ({} recorded{}):",
            report.spans.len(),
            if report.dropped_spans > 0 {
                format!(", {} dropped at cap", report.dropped_spans)
            } else {
                String::new()
            }
        )?;
        writeln!(
            w,
            "  {:<28} {:>9} {:>12} {:>12} {:>12}",
            "name", "count", "total", "mean", "max"
        )?;
        for r in report.span_rollup() {
            writeln!(
                w,
                "  {:<28} {:>9} {:>12} {:>12} {:>12}",
                r.name,
                r.count,
                fmt_ns(r.total_ns),
                fmt_ns(r.total_ns / r.count.max(1)),
                fmt_ns(r.max_ns)
            )?;
        }
    }
    if !report.histograms.is_empty() {
        writeln!(w, "histograms:")?;
        writeln!(
            w,
            "  {:<28} {:>9} {:>12} {:>12} {:>12} {:>12}",
            "name", "count", "mean", "p50", "p99", "max"
        )?;
        for (name, h) in &report.histograms {
            writeln!(
                w,
                "  {:<28} {:>9} {:>12} {:>12} {:>12} {:>12}",
                name,
                h.count,
                fmt_ns(h.mean() as u64),
                fmt_ns(h.quantile(0.5)),
                fmt_ns(h.quantile(0.99)),
                fmt_ns(h.max)
            )?;
        }
    }
    if !report.counters.is_empty() {
        writeln!(w, "counters:")?;
        for (name, value) in &report.counters {
            writeln!(w, "  {name:<28} {value:>12}")?;
        }
    }
    Ok(())
}

/// Machine-readable JSON dump (the `DHDL_OBS=json` output): counters,
/// histogram digests, span rollups and the span-event and dropped-span
/// counts, as one compact object with sorted keys; EXPERIMENTS.md
/// § Observability shows a sample.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_json(report: &Report, mut w: impl Write) -> io::Result<()> {
    let mut out = Vec::new();
    let mut doc = ObjWriter::begin(&mut out);
    let mut counters = ObjWriter::begin(doc.key("counters"));
    for (name, value) in &report.counters {
        write_u64(counters.key(name), *value);
    }
    counters.end();
    write_u64(doc.key("dropped_spans"), report.dropped_spans);
    let mut histograms = ObjWriter::begin(doc.key("histograms"));
    for (name, h) in &report.histograms {
        let mut hist = ObjWriter::begin(histograms.key(name));
        write_u64(hist.key("count"), h.count);
        write_u64(hist.key("max"), h.max);
        write_num(hist.key("mean"), h.mean());
        write_u64(hist.key("min"), h.min);
        write_u64(hist.key("p50"), h.quantile(0.5));
        write_u64(hist.key("p99"), h.quantile(0.99));
        write_u64(hist.key("sum"), h.sum);
        hist.end();
    }
    histograms.end();
    write_u64(doc.key("span_events"), report.spans.len() as u64);
    let spans = doc.key("spans");
    spans.push(b'[');
    for (i, r) in report.span_rollup().iter().enumerate() {
        if i > 0 {
            spans.push(b',');
        }
        let mut span = ObjWriter::begin(spans);
        write_u64(span.key("count"), r.count);
        write_u64(span.key("max_ns"), r.max_ns);
        write_str(span.key("name"), r.name);
        write_u64(span.key("total_ns"), r.total_ns);
        span.end();
    }
    spans.push(b']');
    doc.end();
    out.push(b'\n');
    w.write_all(&out)
}

/// Chrome `trace_event` JSON (the `DHDL_OBS=chrome` output): one
/// complete (`"ph":"X"`) event per span, timestamps in microseconds
/// since the recorder epoch, counters attached as a final metadata
/// event. Load the file in `chrome://tracing` or Perfetto.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_chrome(report: &Report, mut w: impl Write) -> io::Result<()> {
    let mut out = Vec::new();
    let mut doc = ObjWriter::begin(&mut out);
    write_str(doc.key("displayTimeUnit"), "ms");
    let events = doc.key("traceEvents");
    events.push(b'[');
    metadata(events, "process_name", |args| {
        write_str(args.key("name"), "dhdl");
    });
    for s in &report.spans {
        let name = match &s.label {
            Some(label) => format!("{}:{label}", s.name),
            None => s.name.to_string(),
        };
        events.push(b',');
        let mut event = ObjWriter::begin(events);
        let mut args = ObjWriter::begin(event.key("args"));
        if let Some((key, value)) = s.arg {
            write_u64(args.key(key), value);
        }
        args.end();
        write_str(event.key("cat"), "dhdl");
        write_num(event.key("dur"), s.dur_ns as f64 / 1e3);
        write_str(event.key("name"), &name);
        write_str(event.key("ph"), "X");
        write_u64(event.key("pid"), 1);
        write_u64(event.key("tid"), u64::from(s.tid));
        write_num(event.key("ts"), s.start_ns as f64 / 1e3);
        event.end();
    }
    events.push(b',');
    metadata(events, "dhdl_counters", |args| {
        for (name, value) in &report.counters {
            write_u64(args.key(name), *value);
        }
    });
    events.push(b']');
    doc.end();
    out.push(b'\n');
    w.write_all(&out)
}

/// Append a metadata (`"ph":"M"`) event called `name` whose `args`
/// members `args` writes.
fn metadata(out: &mut Vec<u8>, name: &str, args: impl FnOnce(&mut ObjWriter<'_>)) {
    let mut event = ObjWriter::begin(out);
    let mut members = ObjWriter::begin(event.key("args"));
    args(&mut members);
    members.end();
    write_str(event.key("name"), name);
    write_str(event.key("ph"), "M");
    write_u64(event.key("pid"), 1);
    write_u64(event.key("tid"), 0);
    event.end();
}
