//! In-memory span capture for the traced phase.
//!
//! The traced phase records through an ordinary [`Recorder`] whose JSONL
//! sink is a buffer in memory, so the ledger's own layer spans and the
//! spans the program already emits (pipeline stages, serve requests)
//! share one clock and one id space. When a workload ends the buffer is
//! written verbatim to `<out>/<workload>.trace.jsonl` and parsed back
//! into [`SpanRec`]s for the per-layer numbers.

use crate::stats;
use remedy_obs::Recorder;
use remedy_pipeline::json;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A `Write` that appends into a shared in-memory buffer.
#[derive(Clone, Default)]
struct MemSink(Arc<Mutex<Vec<u8>>>);

impl Write for MemSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer lock poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One finished span, as the recorder emitted it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub scope: String,
    pub name: String,
    pub start_us: u64,
    pub dur_us: u64,
}

impl SpanRec {
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

/// A recorder that keeps every event in memory until [`Tracer::finish`].
pub struct Tracer {
    pub recorder: Recorder,
    sink: MemSink,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        let sink = MemSink::default();
        Tracer {
            recorder: Recorder::with_sink(Box::new(sink.clone())),
            sink,
        }
    }

    /// Flushes the recorder's summary events, writes the whole trace to
    /// `path`, and returns the spans it holds.
    pub fn finish(self, path: &Path) -> std::io::Result<Vec<SpanRec>> {
        self.recorder.finish();
        let bytes = self
            .sink
            .0
            .lock()
            .expect("trace buffer lock poisoned")
            .clone();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, &bytes)?;
        Ok(parse_spans(&String::from_utf8_lossy(&bytes)))
    }
}

/// Every `{"t":"span",…}` line of a trace, in emission order (children
/// end, and so are emitted, before their parents).
pub fn parse_spans(text: &str) -> Vec<SpanRec> {
    text.lines()
        .filter_map(|line| json::parse(line).ok())
        .filter(|event| event.field("t").and_then(json::Value::as_str) == Some("span"))
        .filter_map(|event| {
            Some(SpanRec {
                id: event.u64_field("id").ok()?,
                parent: event.field("parent").and_then(json::Value::as_u64),
                scope: event.str_field("scope").ok()?.to_string(),
                name: event.str_field("name").ok()?.to_string(),
                start_us: event.u64_field("start_us").ok()?,
                dur_us: event.u64_field("dur_us").ok()?,
            })
        })
        .collect()
}

/// The direct children of span `id`.
pub fn children(spans: &[SpanRec], id: u64) -> Vec<&SpanRec> {
    spans.iter().filter(|s| s.parent == Some(id)).collect()
}

/// The part of `span` its direct children cover (their union, so
/// overlapping parallel children are not counted twice).
pub fn covered_us(spans: &[SpanRec], span: &SpanRec) -> u64 {
    let intervals: Vec<(u64, u64)> = children(spans, span.id)
        .iter()
        .map(|c| (c.start_us, c.end_us()))
        .collect();
    stats::union_len(&intervals, span.start_us, span.end_us())
}

/// `span`'s self time: its duration minus what its children cover.
pub fn self_us(spans: &[SpanRec], span: &SpanRec) -> u64 {
    span.dur_us - covered_us(spans, span)
}

/// Root spans (no parent) of one scope and name, in start order.
pub fn roots<'a>(spans: &'a [SpanRec], scope: &str, name: &str) -> Vec<&'a SpanRec> {
    let mut found: Vec<&SpanRec> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.scope == scope && s.name == name)
        .collect();
    found.sort_by_key(|s| s.start_us);
    found
}

/// Milliseconds from a microsecond count.
pub fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}
