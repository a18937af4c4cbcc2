//! Timing spans: RAII-scoped events with thread identity and nesting.
//!
//! A [`Span`] guard reads the clock twice (open and drop) and pushes one
//! [`SpanEvent`] into the global recorder's sharded buffers; shards are
//! picked by thread id, so concurrent workers almost never contend on a
//! lock. While observation is disabled the guard is inert: no clock
//! read, no allocation, no lock.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// One completed span, as stored by the recorder and rendered by sinks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (the first [`crate::span!`] argument).
    pub name: &'static str,
    /// Dynamic annotation from [`crate::span_labeled`] (e.g. a benchmark
    /// name); rendered as `name:label` in trace viewers.
    pub label: Option<String>,
    /// Optional numeric argument (`stringify!(arg)`, value).
    pub arg: Option<(&'static str, u64)>,
    /// Dense per-process thread id (0, 1, 2, … in order of first span).
    pub tid: u32,
    /// Nesting depth on its thread at open time (0 = top level).
    pub depth: u32,
    /// Open time in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

thread_local! {
    static THREAD_ID: Cell<u32> = const { Cell::new(u32::MAX) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Dense id of the calling thread, assigned on first use.
pub(crate) fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    THREAD_ID.with(|id| {
        let v = id.get();
        if v != u32::MAX {
            return v;
        }
        let v = NEXT.fetch_add(1, Ordering::Relaxed);
        id.set(v);
        v
    })
}

/// An open timing span; records a [`SpanEvent`] into the global recorder
/// when dropped. Construct with [`crate::span!`], [`crate::span_arg`] or
/// [`crate::span_labeled`], and bind the guard (`let _span = …`) so it
/// spans the intended scope.
#[derive(Debug)]
pub struct Span {
    /// `None` when observation was disabled at open time: drop is free.
    open: Option<OpenSpan>,
}

#[derive(Debug)]
struct OpenSpan {
    name: &'static str,
    label: Option<String>,
    arg: Option<(&'static str, u64)>,
    depth: u32,
    start: Instant,
}

impl Span {
    /// An inert span (what every constructor returns while disabled).
    #[inline]
    pub(crate) fn disabled() -> Span {
        Span { open: None }
    }

    #[inline]
    pub(crate) fn start(
        name: &'static str,
        arg: Option<(&'static str, u64)>,
        label: Option<String>,
    ) -> Span {
        if !crate::enabled() {
            return Span::disabled();
        }
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        Span {
            open: Some(OpenSpan {
                name,
                label,
                arg,
                depth,
                start: Instant::now(),
            }),
        }
    }
}

impl Span {
    /// Set the span's numeric argument, for a value known only once the
    /// work it times is done (no-op on an inert span).
    pub fn set_arg(&mut self, key: &'static str, value: u64) {
        if let Some(open) = &mut self.open {
            open.arg = Some((key, value));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let dur = open.start.elapsed();
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let recorder = crate::recorder();
        let start_ns = u64::try_from(
            open.start
                .saturating_duration_since(recorder.epoch())
                .as_nanos(),
        )
        .unwrap_or(u64::MAX);
        recorder.push_span(SpanEvent {
            name: open.name,
            label: open.label,
            arg: open.arg,
            tid: thread_id(),
            depth: open.depth,
            start_ns,
            dur_ns: u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX),
        });
    }
}
