//! Report renderers, one per `DHDL_OBS` mode: a summary table,
//! machine-readable JSON, and Chrome `trace_event` JSON. Each writes a
//! [`Report`] snapshot to any [`Write`].

use std::io::{self, Write};

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

/// Escape a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Machine-readable JSON dump (the `DHDL_OBS=json` output): counters,
/// histogram digests, span rollups and the dropped-span count. The
/// format is a single flat object; see EXPERIMENTS.md for a sample.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_json(report: &Report, mut w: impl Write) -> io::Result<()> {
    writeln!(w, "{{")?;
    writeln!(w, "  \"counters\": {{")?;
    let n = report.counters.len();
    for (i, (name, value)) in report.counters.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        writeln!(w, "    \"{}\": {value}{comma}", json_escape(name))?;
    }
    writeln!(w, "  }},")?;
    writeln!(w, "  \"histograms\": {{")?;
    let n = report.histograms.len();
    for (i, (name, h)) in report.histograms.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        writeln!(
            w,
            "    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
             \"mean\": {:.1}, \"p50\": {}, \"p99\": {}}}{comma}",
            json_escape(name),
            h.count,
            h.sum,
            h.min,
            h.max,
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.99)
        )?;
    }
    writeln!(w, "  }},")?;
    writeln!(w, "  \"spans\": [")?;
    let rollup = report.span_rollup();
    for (i, r) in rollup.iter().enumerate() {
        let comma = if i + 1 < rollup.len() { "," } else { "" };
        writeln!(
            w,
            "    {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}{comma}",
            json_escape(r.name),
            r.count,
            r.total_ns,
            r.max_ns
        )?;
    }
    writeln!(w, "  ],")?;
    writeln!(w, "  \"span_events\": {},", report.spans.len())?;
    writeln!(w, "  \"dropped_spans\": {}", report.dropped_spans)?;
    writeln!(w, "}}")
}

/// Chrome `trace_event` JSON (the `DHDL_OBS=chrome` output): one
/// complete (`"ph": "X"`) event per span, timestamps in microseconds
/// since the recorder epoch, counters attached as a final metadata
/// event. Load the file in `chrome://tracing` or Perfetto.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_chrome(report: &Report, mut w: impl Write) -> io::Result<()> {
    writeln!(w, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
    writeln!(
        w,
        "  {{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \
         \"args\": {{\"name\": \"dhdl\"}}}},"
    )?;
    for s in &report.spans {
        let name = match &s.label {
            Some(label) => format!("{}:{}", s.name, label),
            None => s.name.to_string(),
        };
        let args = match s.arg {
            Some((key, value)) => format!("{{\"{}\": {value}}}", json_escape(key)),
            None => "{}".to_string(),
        };
        writeln!(
            w,
            "  {{\"name\": \"{}\", \"cat\": \"dhdl\", \"ph\": \"X\", \"pid\": 1, \
             \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {args}}},",
            json_escape(&name),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3
        )?;
    }
    // Final (comma-terminating) metadata event carrying the counters.
    let counters: Vec<String> = report
        .counters
        .iter()
        .map(|(name, value)| format!("\"{}\": {value}", json_escape(name)))
        .collect();
    writeln!(
        w,
        "  {{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"dhdl_counters\", \
         \"args\": {{{}}}}}",
        counters.join(", ")
    )?;
    writeln!(w, "]}}")
}
