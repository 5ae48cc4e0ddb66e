//! The span recorder: a cloneable handle that is free when disabled.
//!
//! A [`Recorder`] is either *disabled* — the handle holds no allocation,
//! and opening a span is a branch on an `Option` that returns an inert
//! guard (no clock read, no lock, no heap traffic) — or *enabled*, in
//! which case completed spans fan out to every configured [`Sink`].
//!
//! Sinks are fixed at construction ([`RecorderBuilder`]); the recorder
//! handle itself is `Send + Sync + Clone` and safe to share across the
//! tuner's worker threads.

use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::chrome::chrome_trace_json;
use crate::span::{current_tid, AttrValue, Span, SpanKind};

/// Receives completed spans. Implementations handle their own locking;
/// `record` is called from arbitrary threads.
pub trait Sink: Send + Sync {
    /// Accepts one completed span.
    fn record(&self, span: &Span);
    /// Flushes buffered output (file sinks write here).
    fn flush(&self) -> std::io::Result<()> {
        Ok(())
    }
}

struct Inner {
    epoch: Instant,
    sinks: Vec<Arc<dyn Sink>>,
    spans_recorded: AtomicU64,
}

/// A cloneable span-recording handle. See the module docs.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Recorder(disabled)"),
            Some(inner) => write!(
                f,
                "Recorder(enabled, {} sinks, {} spans)",
                inner.sinks.len(),
                inner.spans_recorded.load(Ordering::Relaxed)
            ),
        }
    }
}

impl Recorder {
    /// The zero-cost disabled recorder: every span call is an immediate
    /// no-op (no allocation, no locking, no clock read).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A builder for an enabled recorder.
    pub fn builder() -> RecorderBuilder {
        RecorderBuilder::default()
    }

    /// A clone of the process-global recorder (see [`crate::global`]).
    pub fn global() -> Self {
        crate::global().clone()
    }

    /// `true` when spans are actually recorded. Hot paths use this to skip
    /// building attribute values.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of spans recorded so far (0 when disabled).
    pub fn spans_recorded(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.spans_recorded.load(Ordering::Relaxed))
    }

    /// Opens a span; it records itself when the guard drops. On a disabled
    /// recorder this returns an inert guard without reading the clock.
    pub fn span(&self, name: &'static str, kind: SpanKind) -> SpanGuard {
        self.span_traced(name, kind, 0)
    }

    /// [`Recorder::span`] with an explicit `trace_id` joining the span to
    /// one traced request.
    pub fn span_traced(&self, name: &'static str, kind: SpanKind, trace_id: u64) -> SpanGuard {
        match &self.inner {
            None => SpanGuard { active: None },
            Some(inner) => {
                // One clock read: `start_ns` and the duration measured on
                // drop share it, so a span ends at `epoch + start + dur`
                // exactly and nested intervals nest.
                let started = Instant::now();
                SpanGuard {
                    active: Some(ActiveSpan {
                        inner: Arc::clone(inner),
                        started,
                        span: Span {
                            name,
                            kind,
                            trace_id,
                            start_ns: started.duration_since(inner.epoch).as_nanos() as u64,
                            dur_ns: 0,
                            tid: current_tid(),
                            attrs: Vec::new(),
                        },
                    }),
                }
            }
        }
    }

    /// Flushes every sink (file sinks write their buffered content).
    ///
    /// # Errors
    ///
    /// Returns the first I/O error any sink reports.
    pub fn flush(&self) -> std::io::Result<()> {
        if let Some(inner) = &self.inner {
            for sink in &inner.sinks {
                sink.flush()?;
            }
        }
        Ok(())
    }
}

struct ActiveSpan {
    inner: Arc<Inner>,
    started: Instant,
    span: Span,
}

/// An open span; records itself to the recorder's sinks on drop.
/// All methods are no-ops on guards from a disabled recorder.
#[must_use = "a span guard records on drop; binding it to _ ends the span immediately"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// `true` when the span will actually be recorded. Use to skip
    /// building expensive attribute values.
    pub fn is_enabled(&self) -> bool {
        self.active.is_some()
    }

    /// Attaches one attribute (no-op when disabled).
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) -> &mut Self {
        if let Some(active) = &mut self.active {
            active.span.attrs.push((key, value.into()));
        }
        self
    }

    /// Ends the span now instead of at scope exit.
    pub fn finish(self) {
        drop(self);
    }

    /// Drops the span without recording it, for work that turned out not
    /// to happen.
    pub fn discard(mut self) {
        self.active = None;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut active) = self.active.take() {
            active.span.dur_ns = active.started.elapsed().as_nanos() as u64;
            active.inner.spans_recorded.fetch_add(1, Ordering::Relaxed);
            for sink in &active.inner.sinks {
                sink.record(&active.span);
            }
        }
    }
}

/// Configures the sinks of an enabled [`Recorder`].
#[derive(Default)]
pub struct RecorderBuilder {
    sinks: Vec<Arc<dyn Sink>>,
}

impl RecorderBuilder {
    /// Adds a bounded in-memory ring buffer and returns a handle for
    /// reading the retained spans back.
    pub fn ring(&mut self, capacity: usize) -> RingHandle {
        let sink = Arc::new(RingSink {
            capacity: capacity.max(1),
            spans: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        });
        self.sinks.push(Arc::clone(&sink) as Arc<dyn Sink>);
        RingHandle { sink }
    }

    /// Adds a JSONL sink: one Chrome trace event per line, written
    /// incrementally.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file cannot be created.
    pub fn jsonl_file(&mut self, path: impl AsRef<Path>) -> std::io::Result<&mut Self> {
        let file = std::fs::File::create(path)?;
        self.sinks.push(Arc::new(JsonlSink {
            out: Mutex::new(std::io::BufWriter::new(file)),
        }));
        Ok(self)
    }

    /// Adds a Chrome `trace_event` file sink: spans are buffered in memory
    /// and written as one JSON array on [`Recorder::flush`] (and when the
    /// last recorder handle drops).
    pub fn chrome_file(&mut self, path: impl AsRef<Path>) -> &mut Self {
        self.sinks.push(Arc::new(ChromeSink {
            path: path.as_ref().to_path_buf(),
            spans: Mutex::new(Vec::new()),
        }));
        self
    }

    /// Adds a custom sink.
    pub fn sink(&mut self, sink: Arc<dyn Sink>) -> &mut Self {
        self.sinks.push(sink);
        self
    }

    /// Builds the enabled recorder.
    pub fn build(self) -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                sinks: self.sinks,
                spans_recorded: AtomicU64::new(0),
            })),
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        for sink in &self.sinks {
            // Last-handle flush; errors have nowhere to go at this point.
            let _ = sink.flush();
        }
    }
}

// ------------------------------------------------------------------ sinks

struct RingSink {
    capacity: usize,
    spans: Mutex<VecDeque<Span>>,
    dropped: AtomicU64,
}

impl Sink for RingSink {
    fn record(&self, span: &Span) {
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        if spans.len() == self.capacity {
            spans.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        spans.push_back(span.clone());
    }
}

/// Reads spans back out of a ring sink installed via
/// [`RecorderBuilder::ring`].
#[derive(Clone)]
pub struct RingHandle {
    sink: Arc<RingSink>,
}

impl RingHandle {
    /// A copy of the retained spans, oldest first.
    pub fn snapshot(&self) -> Vec<Span> {
        self.sink
            .spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.sink.dropped.load(Ordering::Relaxed)
    }

    /// Clears the retained spans.
    pub fn clear(&self) {
        self.sink
            .spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }
}

struct JsonlSink {
    out: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl Sink for JsonlSink {
    fn record(&self, span: &Span) {
        let line = crate::chrome::chrome_event_json(span);
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        // A full disk mid-trace must not take the traced program down.
        let _ = writeln!(out, "{line}");
    }

    fn flush(&self) -> std::io::Result<()> {
        self.out.lock().unwrap_or_else(|e| e.into_inner()).flush()
    }
}

struct ChromeSink {
    path: PathBuf,
    spans: Mutex<Vec<Span>>,
}

impl Sink for ChromeSink {
    fn record(&self, span: &Span) {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(span.clone());
    }

    fn flush(&self) -> std::io::Result<()> {
        let spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        std::fs::write(&self.path, chrome_trace_json(&spans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let mut g = rec.span("noop", SpanKind::Other);
        assert!(!g.is_enabled());
        g.attr("expensive", "never-built");
        drop(g);
        assert_eq!(rec.spans_recorded(), 0);
        rec.flush().expect("flush of disabled recorder is Ok");
    }

    #[test]
    fn ring_records_spans_with_attrs() {
        let mut b = Recorder::builder();
        let ring = b.ring(16);
        let rec = b.build();
        {
            let mut g = rec.span_traced("work", SpanKind::Runtime, 42);
            g.attr("k", "v").attr("n", 3usize);
        }
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "work");
        assert_eq!(spans[0].trace_id, 42);
        assert_eq!(spans[0].attr_str("k").as_deref(), Some("v"));
        assert_eq!(rec.spans_recorded(), 1);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut b = Recorder::builder();
        let ring = b.ring(4);
        let rec = b.build();
        for _ in 0..10 {
            rec.span("s", SpanKind::Other).finish();
        }
        assert_eq!(ring.snapshot().len(), 4);
        assert_eq!(ring.dropped(), 6);
        ring.clear();
        assert!(ring.snapshot().is_empty());
    }

    #[test]
    fn spans_record_across_threads() {
        let mut b = Recorder::builder();
        let ring = b.ring(256);
        let rec = b.build();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let rec = rec.clone();
                scope.spawn(move || {
                    for _ in 0..8 {
                        rec.span("t", SpanKind::Tune).finish();
                    }
                });
            }
        });
        assert_eq!(ring.snapshot().len(), 32);
    }

    #[test]
    fn timestamps_are_ordered_within_a_thread() {
        let mut b = Recorder::builder();
        let ring = b.ring(8);
        let rec = b.build();
        rec.span("first", SpanKind::Other).finish();
        rec.span("second", SpanKind::Other).finish();
        let spans = ring.snapshot();
        assert!(spans[0].start_ns <= spans[1].start_ns);
        let outer = rec.span("outer", SpanKind::Other);
        rec.span("inner", SpanKind::Other).finish();
        drop(outer);
        let spans = ring.snapshot();
        // Inner completes (and records) before outer; outer's interval
        // contains inner's.
        let inner = &spans[2];
        let outer = &spans[3];
        assert_eq!(inner.name, "inner");
        assert!(outer.start_ns <= inner.start_ns);
        assert!(outer.end_ns() >= inner.end_ns());
    }

    #[test]
    fn deeply_nested_spans_nest_their_intervals() {
        const DEPTH: usize = 1000;
        let mut b = Recorder::builder();
        let ring = b.ring(DEPTH);
        let rec = b.build();
        let mut open: Vec<SpanGuard> = (0..DEPTH)
            .map(|_| rec.span("level", SpanKind::Other))
            .collect();
        while let Some(guard) = open.pop() {
            drop(guard);
        }
        // The innermost span records first; each next one encloses it.
        let spans = ring.snapshot();
        assert_eq!(spans.len(), DEPTH);
        for (level, pair) in spans.windows(2).enumerate() {
            let (inner, outer) = (&pair[0], &pair[1]);
            assert!(
                outer.start_ns <= inner.start_ns && inner.end_ns() <= outer.end_ns(),
                "level {level}: [{}, {}] not inside [{}, {}]",
                inner.start_ns,
                inner.end_ns(),
                outer.start_ns,
                outer.end_ns()
            );
        }
    }

    #[test]
    fn chrome_file_sink_writes_on_flush() {
        let path = std::env::temp_dir().join("ugrapher_obs_chrome_sink_test.json");
        let mut b = Recorder::builder();
        b.chrome_file(&path);
        let rec = b.build();
        rec.span("a", SpanKind::Kernel).finish();
        rec.flush().expect("flush writes the file");
        let text = std::fs::read_to_string(&path).expect("file exists");
        ugrapher_util::json::parse(&text).expect("chrome file is valid JSON");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jsonl_sink_writes_one_event_per_line() {
        let path = std::env::temp_dir().join("ugrapher_obs_jsonl_sink_test.jsonl");
        let mut b = Recorder::builder();
        b.jsonl_file(&path).expect("create jsonl file");
        let rec = b.build();
        rec.span("a", SpanKind::Kernel).finish();
        rec.span("b", SpanKind::Kernel).finish();
        rec.flush().expect("flush");
        let text = std::fs::read_to_string(&path).expect("file exists");
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            ugrapher_util::json::parse(line).expect("line is valid JSON");
        }
        let _ = std::fs::remove_file(&path);
    }
}
