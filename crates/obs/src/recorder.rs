//! The in-memory recorder: registries for counters and histograms plus
//! sharded span buffers, snapshotting into a [`Report`] for the sinks.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::metrics::{Counter, HistCore, HistSnapshot, Histogram};
use crate::span::SpanEvent;

/// Span-buffer shards; a power of two indexed by thread id, so worker
/// threads in the DSE pool each append to their own lock.
const SPAN_SHARDS: usize = 16;

/// Retained-span cap. A fig5 sweep at the paper's 75 000 points per
/// benchmark opens roughly half a million spans; the cap is comfortably
/// above that but bounds memory for pathological loops. Spans past the
/// cap are counted in [`Report::dropped_spans`], never silently lost.
const MAX_SPANS: usize = 1 << 20;

/// The thread-safe in-memory store behind the [`crate::span!`],
/// [`crate::counter!`] and [`crate::histogram!`] primitives.
///
/// One process-global instance exists ([`crate::recorder`]); the type is
/// public so tests and custom harnesses can snapshot it and render the
/// [`Report`] with [`crate::write_json`] and its siblings. Counter and histogram storage is leaked
/// on registration to hand out `&'static` handles — the registry is
/// bounded by the (static) set of metric names in the codebase.
#[derive(Debug)]
pub struct Recorder {
    counters: Mutex<BTreeMap<&'static str, Counter>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
    spans: Vec<Mutex<Vec<SpanEvent>>>,
    span_count: AtomicUsize,
    dropped_spans: AtomicU64,
    epoch: Instant,
}

impl Recorder {
    /// An empty recorder whose epoch (span timestamp zero) is now.
    pub fn new() -> Self {
        Recorder {
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: (0..SPAN_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            span_count: AtomicUsize::new(0),
            dropped_spans: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// The instant span timestamps are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Register (or fetch) the counter `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        *map.entry(name)
            .or_insert_with(|| Counter(Box::leak(Box::new(AtomicU64::new(0)))))
    }

    /// Register (or fetch) the histogram `name`.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        *map.entry(name)
            .or_insert_with(|| Histogram(Box::leak(Box::new(HistCore::new()))))
    }

    /// Append a completed span event (called from [`crate::Span`]'s
    /// drop). Applies the retained-span cap.
    pub(crate) fn push_span(&self, event: SpanEvent) {
        if self.span_count.fetch_add(1, Ordering::Relaxed) >= MAX_SPANS {
            self.span_count.fetch_sub(1, Ordering::Relaxed);
            self.dropped_spans.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let shard = (event.tid as usize) & (SPAN_SHARDS - 1);
        self.spans[shard]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event);
    }

    /// Snapshot everything recorded so far into a [`Report`]. Spans are
    /// returned sorted by `(start_ns, tid)` so output is stable for a
    /// given set of events.
    pub fn snapshot(&self) -> Report {
        let counters: BTreeMap<&'static str, u64> = self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(&name, c)| (name, c.get()))
            .collect();
        let histograms: BTreeMap<&'static str, HistSnapshot> = self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(&name, h)| (name, h.snapshot()))
            .collect();
        let mut spans: Vec<SpanEvent> = Vec::with_capacity(self.span_count.load(Ordering::Relaxed));
        for shard in &self.spans {
            spans.extend(
                shard
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .iter()
                    .cloned(),
            );
        }
        spans.sort_by_key(|s| (s.start_ns, s.tid));
        Report {
            counters,
            histograms,
            spans,
            dropped_spans: self.dropped_spans.load(Ordering::Relaxed),
        }
    }

    /// Zero every counter and histogram and discard all spans. Metric
    /// registrations (and the handles pointing at them) stay valid. For
    /// tests and multi-phase harnesses that want per-phase reports.
    pub fn reset(&self) {
        for c in self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            c.0.store(0, Ordering::Relaxed);
        }
        for h in self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            h.reset();
        }
        for shard in &self.spans {
            shard.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
        self.span_count.store(0, Ordering::Relaxed);
        self.dropped_spans.store(0, Ordering::Relaxed);
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// A point-in-time snapshot of a [`Recorder`], consumed by sinks.
#[derive(Debug, Clone)]
pub struct Report {
    /// Counter values by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Histogram aggregates by name.
    pub histograms: BTreeMap<&'static str, HistSnapshot>,
    /// Completed spans, sorted by start time then thread.
    pub spans: Vec<SpanEvent>,
    /// Spans discarded after the retained-span cap was hit.
    pub dropped_spans: u64,
}

impl Report {
    /// Aggregate spans by name: count and total/max duration per name,
    /// sorted by descending total time (what the summary table prints).
    pub fn span_rollup(&self) -> Vec<SpanRollup> {
        let mut by_name: BTreeMap<&'static str, SpanRollup> = BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(s.name).or_insert(SpanRollup {
                name: s.name,
                count: 0,
                total_ns: 0,
                max_ns: 0,
            });
            e.count += 1;
            e.total_ns = e.total_ns.saturating_add(s.dur_ns);
            e.max_ns = e.max_ns.max(s.dur_ns);
        }
        let mut rollup: Vec<SpanRollup> = by_name.into_values().collect();
        rollup.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
        rollup
    }

    /// Wall-clock nanoseconds covered by top-level (`depth == 0`) spans,
    /// per thread, summed. Nested spans are excluded so time is not
    /// double-counted; this is the numerator of the "spans cover ≥ 90%
    /// of sweep wall-clock" acceptance check.
    pub fn toplevel_coverage_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.dur_ns)
            .sum()
    }
}

/// Per-name span aggregate (see [`Report::span_rollup`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRollup {
    /// Span name.
    pub name: &'static str,
    /// Number of completed spans with this name.
    pub count: u64,
    /// Sum of their durations in nanoseconds.
    pub total_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
}
