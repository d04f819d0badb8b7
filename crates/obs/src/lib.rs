//! # remedy-obs
//!
//! Zero-dependency observability for the remedy workspace: structured
//! **spans**, **counters**, and **histograms**, aggregated in memory and
//! optionally streamed as JSONL events.
//!
//! The paper's scalability story (§V-B5) and every later performance PR
//! need to *see* where identification and remedy spend their time —
//! regions scanned per level, neighbor lookups, cache hits, rows mutated.
//! This crate is the layer those numbers flow through.
//!
//! ## Model
//!
//! * A [`Recorder`] owns all state for one run. It is either **enabled**
//!   (aggregating, optionally streaming to a JSONL sink) or **disabled**
//!   (every operation is an early-return on a `None`).
//! * A [`Scope`] is a cheap handle naming one execution context — a
//!   pipeline stage (`identify`, `ps/remedy`), the shared artifact cache,
//!   one CLI command. Counters and histograms are keyed by
//!   `(scope, name)`.
//! * A [`Span`] is a drop-guard that measures one region of time and, when
//!   a sink is attached, emits a `{"t":"span",...}` event with its parent
//!   span id, so traces reconstruct the run tree.
//!
//! ## Overhead contract
//!
//! A disabled recorder must keep instrumented hot loops within benchmark
//! noise. The rules instrumented code follows:
//!
//! 1. **Batch counters.** Hot loops tally into plain locals and flush once
//!    per node / worker / stage via [`Scope::add_many`] — never one
//!    mutex-guarded `add` per region.
//! 2. **Gate clocks.** Timings use [`Scope::timer`], which returns `None`
//!    when disabled so no `Instant::now` syscall is issued.
//! 3. **No allocation when disabled.** [`Scope::span`] on a disabled
//!    recorder builds a no-op guard without touching the heap.
//!
//! ## Adding a counter
//!
//! Pick the owning scope (`identify`, `<branch>/remedy`, `cache`, …), call
//! `scope.add("my_counter", n)` at a batch point, and it automatically
//! appears in [`Recorder::snapshot`], in the pipeline's `run.json`
//! per-stage counters, and in the `--trace` JSONL summary. No registry,
//! no schema.

mod metrics;
mod sink;

pub use metrics::{HistSummary, Snapshot};

use metrics::{collect, Hist, MetricKey};
use sink::{json_str, TraceSink};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// All observability state for one run. Cheap to clone (an `Arc`).
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    next_span_id: AtomicU64,
    counters: Mutex<BTreeMap<MetricKey, u64>>,
    hists: Mutex<BTreeMap<MetricKey, Hist>>,
    sink: Option<TraceSink>,
}

impl Inner {
    fn new(sink: Option<TraceSink>) -> Inner {
        Inner {
            epoch: Instant::now(),
            next_span_id: AtomicU64::new(1),
            counters: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            sink,
        }
    }

    fn elapsed_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn emit(&self, json: &str) {
        if let Some(sink) = &self.sink {
            sink.write_line(json);
        }
    }
}

impl Recorder {
    /// A recorder where every operation is a no-op.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A recorder that aggregates counters and histograms in memory, with
    /// no event stream.
    pub fn enabled() -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner::new(None))),
        }
    }

    /// A recorder that additionally streams JSONL events into `writer`.
    pub fn with_sink(writer: Box<dyn Write + Send>) -> Recorder {
        let rec = Recorder {
            inner: Some(Arc::new(Inner::new(Some(TraceSink::new(writer))))),
        };
        if let Some(inner) = &rec.inner {
            inner.emit(&format!(
                "{{\"t\":\"trace\",\"version\":1,\"pid\":{}}}",
                std::process::id()
            ));
        }
        rec
    }

    /// A recorder streaming JSONL events to a file at `path` (truncated).
    pub fn to_path(path: impl AsRef<std::path::Path>) -> std::io::Result<Recorder> {
        let file = std::fs::File::create(path)?;
        Ok(Recorder::with_sink(Box::new(std::io::BufWriter::new(file))))
    }

    /// Whether this recorder aggregates anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle for recording under the given scope label, with no parent
    /// span.
    pub fn scope(&self, label: &str) -> Scope {
        Scope {
            rec: self.clone(),
            label: Arc::from(label),
            parent_span: None,
        }
    }

    /// A point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            None => Snapshot::default(),
            Some(inner) => Snapshot {
                counters: collect(&inner.counters.lock().unwrap(), |&v| v),
                histograms: collect(&inner.hists.lock().unwrap(), Hist::summary),
            },
        }
    }

    /// Folds every counter and histogram aggregated by `other` into this
    /// recorder (counters add, histograms merge bucket-wise).
    ///
    /// This is the scoped-recording seam concurrent consumers use: give
    /// each in-flight request its own short-lived enabled recorder, let
    /// the request's hot paths batch into it contention-free, then merge
    /// once into the long-lived recorder when the request completes. Two
    /// concurrent requests can never interleave counter attribution,
    /// because neither touches the shared maps until its numbers are
    /// final. A disabled recorder on either side makes this a no-op.
    pub fn merge_from(&self, other: &Recorder) {
        let (Some(inner), Some(other_inner)) = (&self.inner, &other.inner) else {
            return;
        };
        if Arc::ptr_eq(inner, other_inner) {
            return; // self-merge would double counts (and deadlock)
        }
        {
            let mut counters = inner.counters.lock().unwrap();
            for (key, value) in other_inner.counters.lock().unwrap().iter() {
                *counters.entry(key.clone()).or_insert(0) += value;
            }
        }
        let mut hists = inner.hists.lock().unwrap();
        for (key, hist) in other_inner.hists.lock().unwrap().iter() {
            hists.entry(key.clone()).or_default().merge(hist);
        }
    }

    /// How many trace events failed to write (0 without a sink). Event
    /// write errors never fail the traced computation, but they are
    /// counted here and folded into the final summary as the `trace`
    /// scope's `write_errors` counter.
    pub fn trace_write_errors(&self) -> u64 {
        self.inner
            .as_ref()
            .and_then(|inner| inner.sink.as_ref())
            .map_or(0, TraceSink::write_errors)
    }

    /// Emits the aggregated counters and histograms as JSONL summary
    /// events (one `counters` event per scope, one `hist` event per
    /// histogram) and flushes the sink. Call once at the end of a run.
    pub fn finish(&self) {
        let Some(inner) = &self.inner else { return };
        if inner.sink.is_none() {
            return;
        }
        let dropped = self.trace_write_errors();
        if dropped > 0 {
            self.scope("trace").add("write_errors", dropped);
        }
        let snapshot = self.snapshot();
        let mut by_scope: BTreeMap<&str, Vec<(&str, u64)>> = BTreeMap::new();
        for (scope, name, value) in &snapshot.counters {
            by_scope.entry(scope).or_default().push((name, *value));
        }
        for (scope, entries) in by_scope {
            let body: Vec<String> = entries
                .iter()
                .map(|(name, value)| format!("{}:{value}", json_str(name)))
                .collect();
            inner.emit(&format!(
                "{{\"t\":\"counters\",\"scope\":{},\"counters\":{{{}}}}}",
                json_str(scope),
                body.join(",")
            ));
        }
        for (scope, name, h) in &snapshot.histograms {
            inner.emit(&format!(
                "{{\"t\":\"hist\",\"scope\":{},\"name\":{},\"count\":{},\"sum\":{},\
                 \"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
                json_str(scope),
                json_str(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50,
                h.p90,
                h.p99,
                h.p999
            ));
        }
        if let Some(sink) = &inner.sink {
            sink.flush();
        }
    }
}

/// A recording handle bound to one scope label (and optionally to a parent
/// span for nesting). Cheap to clone.
#[derive(Clone, Debug)]
pub struct Scope {
    rec: Recorder,
    label: Arc<str>,
    parent_span: Option<u64>,
}

impl Scope {
    /// A scope on a disabled recorder; every operation is a no-op.
    pub fn disabled() -> Scope {
        Scope {
            rec: Recorder::disabled(),
            label: Arc::from(""),
            parent_span: None,
        }
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.rec.is_enabled()
    }

    /// The scope's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Adds `delta` to the named counter.
    pub fn add(&self, name: &str, delta: u64) {
        let Some(inner) = &self.rec.inner else { return };
        if delta == 0 {
            return;
        }
        *inner
            .counters
            .lock()
            .unwrap()
            .entry((self.label.to_string(), name.to_string()))
            .or_insert(0) += delta;
    }

    /// Adds a batch of counter deltas under one lock. This is the flush
    /// point hot loops use after tallying into locals.
    pub fn add_many(&self, deltas: &[(&str, u64)]) {
        let Some(inner) = &self.rec.inner else { return };
        let mut counters = inner.counters.lock().unwrap();
        for &(name, delta) in deltas {
            if delta != 0 {
                *counters
                    .entry((self.label.to_string(), name.to_string()))
                    .or_insert(0) += delta;
            }
        }
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        let Some(inner) = &self.rec.inner else { return };
        inner
            .hists
            .lock()
            .unwrap()
            .entry((self.label.to_string(), name.to_string()))
            .or_default()
            .observe(value);
    }

    /// Starts a timing measurement, or `None` when disabled (so hot paths
    /// issue no clock syscalls for nothing).
    pub fn timer(&self) -> Option<Instant> {
        self.rec.inner.as_ref().map(|_| Instant::now())
    }

    /// Completes a [`timer`](Scope::timer) measurement into a microsecond
    /// histogram.
    pub fn observe_since(&self, name: &str, started: Option<Instant>) {
        if let Some(t) = started {
            self.observe(name, t.elapsed().as_micros() as u64);
        }
    }

    /// Opens a span named `name` in this scope, parented to the span this
    /// scope was derived from (if any). The span measures until dropped.
    pub fn span(&self, name: &str) -> Span {
        let Some(inner) = &self.rec.inner else {
            return Span { active: None };
        };
        Span {
            active: Some(ActiveSpan {
                inner: Arc::clone(inner),
                scope: Arc::clone(&self.label),
                name: name.to_string(),
                id: inner.next_span_id.fetch_add(1, Ordering::Relaxed),
                parent: self.parent_span,
                start_us: inner.elapsed_us(),
                start: Instant::now(),
            }),
        }
    }

    /// Current values of this scope's counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let Some(inner) = &self.rec.inner else {
            return Vec::new();
        };
        inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .filter(|((scope, _), _)| scope.as_str() == &*self.label)
            .map(|((_, name), &value)| (name.clone(), value))
            .collect()
    }
}

/// A drop-guard measuring one region of time. When the recorder has a
/// sink, dropping the span emits a `span` event carrying its id, parent
/// id, scope, start offset, and duration (all times in microseconds since
/// the recorder was created).
#[derive(Debug)]
pub struct Span {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    inner: Arc<Inner>,
    scope: Arc<str>,
    name: String,
    id: u64,
    parent: Option<u64>,
    start_us: u64,
    start: Instant,
}

impl Span {
    /// A span that records nothing.
    pub fn noop() -> Span {
        Span { active: None }
    }

    /// This span's id (None when disabled).
    pub fn id(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.id)
    }

    /// A scope labeled `label` whose spans nest under this span.
    pub fn child_scope(&self, label: &str) -> Scope {
        match &self.active {
            None => Scope::disabled(),
            Some(a) => Scope {
                rec: Recorder {
                    inner: Some(Arc::clone(&a.inner)),
                },
                label: Arc::from(label),
                parent_span: Some(a.id),
            },
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        if a.inner.sink.is_none() {
            // nothing to write the event to: skip building it
            return;
        }
        let dur_us = a.start.elapsed().as_micros() as u64;
        let parent = match a.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        a.inner.emit(&format!(
            "{{\"t\":\"span\",\"scope\":{},\"name\":{},\"id\":{},\"parent\":{parent},\
             \"start_us\":{},\"dur_us\":{dur_us}}}",
            json_str(&a.scope),
            json_str(&a.name),
            a.id,
            a.start_us
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` that appends into a shared buffer.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn drain(buf: &SharedBuf) -> Vec<String> {
        String::from_utf8(buf.0.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(String::from)
            .collect()
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let scope = Scope::disabled();
        assert!(!scope.is_enabled());
        scope.add("x", 5);
        scope.add_many(&[("y", 1), ("z", 2)]);
        scope.observe("h", 10);
        assert!(scope.timer().is_none());
        let span = scope.span("nothing");
        assert!(span.id().is_none());
        drop(span);
        assert!(scope.counters().is_empty());
        let snap = Recorder::disabled().snapshot();
        assert!(snap.counters.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn counters_aggregate_per_scope() {
        let rec = Recorder::enabled();
        let a = rec.scope("identify");
        let b = rec.scope("cache");
        a.add("regions_scanned", 10);
        a.add("regions_scanned", 5);
        a.add_many(&[("regions_scanned", 1), ("neighbor_lookups", 7)]);
        b.add("hits", 2);
        a.add("zero", 0); // zero deltas are dropped entirely
        let snap = rec.snapshot();
        assert_eq!(snap.counter("identify", "regions_scanned"), Some(16));
        assert_eq!(snap.counter("identify", "neighbor_lookups"), Some(7));
        assert_eq!(snap.counter("cache", "hits"), Some(2));
        assert_eq!(snap.counter("identify", "zero"), None);
        assert_eq!(
            a.counters(),
            vec![
                ("neighbor_lookups".to_string(), 7),
                ("regions_scanned".to_string(), 16)
            ]
        );
    }

    #[test]
    fn merge_from_folds_scoped_recorders_without_interleaving() {
        let resident = Recorder::enabled();
        resident.scope("serve").add("req.identify", 1);
        // two "requests" record concurrently into their own recorders
        let (a, b) = (Recorder::enabled(), Recorder::enabled());
        std::thread::scope(|s| {
            s.spawn(|| {
                a.scope("identify").add("regions_scanned", 10);
                a.scope("serve").observe("req_us.identify", 100);
            });
            s.spawn(|| {
                b.scope("identify").add("regions_scanned", 7);
                b.scope("serve").observe("req_us.identify", 300);
            });
        });
        resident.merge_from(&a);
        resident.merge_from(&b);
        let snap = resident.snapshot();
        assert_eq!(snap.counter("identify", "regions_scanned"), Some(17));
        assert_eq!(snap.counter("serve", "req.identify"), Some(1));
        let h = snap.histogram("serve", "req_us.identify").unwrap();
        assert_eq!(h.count, 2);
        assert!(h.min <= 100 && h.max >= 300);
        // disabled on either side is a no-op; self-merge doesn't double
        resident.merge_from(&Recorder::disabled());
        Recorder::disabled().merge_from(&resident);
        resident.merge_from(&resident.clone());
        assert_eq!(
            resident.snapshot().counter("identify", "regions_scanned"),
            Some(17)
        );
    }

    #[test]
    fn histograms_aggregate() {
        let rec = Recorder::enabled();
        let scope = rec.scope("identify");
        scope.observe("level1_us", 100);
        scope.observe("level1_us", 300);
        let t = scope.timer();
        assert!(t.is_some());
        scope.observe_since("level1_us", t);
        let h = rec.snapshot().histogram("identify", "level1_us").unwrap();
        assert_eq!(h.count, 3);
        assert!(h.min <= 100 && h.max >= 300);
    }

    #[test]
    fn spans_emit_nested_events() {
        let buf = SharedBuf::default();
        let rec = Recorder::with_sink(Box::new(buf.clone()));
        let root_scope = rec.scope("pipeline");
        let run = root_scope.span("run");
        let stage_scope = run.child_scope("identify");
        let stage = stage_scope.span("identify");
        let stage_id = stage.id().unwrap();
        let run_id = run.id().unwrap();
        drop(stage);
        drop(run);
        rec.finish();
        let lines = drain(&buf);
        assert!(lines[0].contains("\"t\":\"trace\""));
        // child span is emitted before its parent (drop order)
        let child = lines.iter().find(|l| l.contains("\"id\":2")).unwrap();
        assert!(child.contains(&format!("\"parent\":{run_id}")));
        assert!(child.contains("\"scope\":\"identify\""));
        let parent = lines
            .iter()
            .find(|l| l.contains(&format!("\"id\":{run_id}")))
            .unwrap();
        assert!(parent.contains("\"parent\":null"));
        assert_eq!(stage_id, 2);
    }

    #[test]
    fn finish_emits_summaries() {
        let buf = SharedBuf::default();
        let rec = Recorder::with_sink(Box::new(buf.clone()));
        rec.scope("identify").add("regions_scanned", 3);
        rec.scope("identify").observe("level2_us", 42);
        rec.finish();
        let lines = drain(&buf);
        let counters = lines
            .iter()
            .find(|l| l.contains("\"t\":\"counters\""))
            .unwrap();
        assert!(counters.contains("\"scope\":\"identify\""));
        assert!(counters.contains("\"regions_scanned\":3"));
        let hist = lines.iter().find(|l| l.contains("\"t\":\"hist\"")).unwrap();
        assert!(hist.contains("\"name\":\"level2_us\""));
        assert!(hist.contains("\"count\":1"));
    }

    /// A writer that fails after its first N successful writes — the
    /// trace header lands, later events hit a "full disk".
    struct FailAfter {
        ok_writes: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.ok_writes == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "disk full",
                ));
            }
            self.ok_writes -= 1;
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn trace_write_errors_are_counted_and_summarized() {
        let rec = Recorder::with_sink(Box::new(FailAfter { ok_writes: 1 }));
        assert_eq!(rec.trace_write_errors(), 0, "header write succeeded");
        let scope = rec.scope("identify");
        drop(scope.span("lost event"));
        drop(scope.span("another lost event"));
        assert_eq!(rec.trace_write_errors(), 2);
        rec.finish();
        // the tally survives as an ordinary counter in the snapshot
        assert_eq!(rec.snapshot().counter("trace", "write_errors"), Some(2));
    }

    #[test]
    fn every_event_is_a_json_object_line() {
        let buf = SharedBuf::default();
        let rec = Recorder::with_sink(Box::new(buf.clone()));
        {
            let s = rec.scope("weird \"scope\"\n");
            let _span = s.span("na\\me");
            s.add("c", 1);
        }
        rec.finish();
        for line in drain(&buf) {
            assert!(crate::tests::json::validate(&line), "invalid JSON: {line}");
        }
    }

    /// A minimal recursive-descent JSON syntax checker, used to prove the
    /// hand-rolled event writer only ever emits well-formed objects.
    pub(crate) mod json {
        pub fn validate(s: &str) -> bool {
            let b = s.as_bytes();
            let mut i = 0;
            value(b, &mut i) && {
                skip_ws(b, &mut i);
                i == b.len()
            }
        }

        fn skip_ws(b: &[u8], i: &mut usize) {
            while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
                *i += 1;
            }
        }

        fn value(b: &[u8], i: &mut usize) -> bool {
            skip_ws(b, i);
            match b.get(*i) {
                Some(b'{') => object(b, i),
                Some(b'[') => array(b, i),
                Some(b'"') => string(b, i),
                Some(b't') => literal(b, i, b"true"),
                Some(b'f') => literal(b, i, b"false"),
                Some(b'n') => literal(b, i, b"null"),
                Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
                _ => false,
            }
        }

        fn object(b: &[u8], i: &mut usize) -> bool {
            *i += 1; // '{'
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return true;
            }
            loop {
                skip_ws(b, i);
                if !string(b, i) {
                    return false;
                }
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return false;
                }
                *i += 1;
                if !value(b, i) {
                    return false;
                }
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return true;
                    }
                    _ => return false,
                }
            }
        }

        fn array(b: &[u8], i: &mut usize) -> bool {
            *i += 1; // '['
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return true;
            }
            loop {
                if !value(b, i) {
                    return false;
                }
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return true;
                    }
                    _ => return false,
                }
            }
        }

        fn string(b: &[u8], i: &mut usize) -> bool {
            if b.get(*i) != Some(&b'"') {
                return false;
            }
            *i += 1;
            while let Some(&c) = b.get(*i) {
                match c {
                    b'"' => {
                        *i += 1;
                        return true;
                    }
                    b'\\' => *i += 2,
                    0x00..=0x1f => return false,
                    _ => *i += 1,
                }
            }
            false
        }

        fn number(b: &[u8], i: &mut usize) -> bool {
            let start = *i;
            if b.get(*i) == Some(&b'-') {
                *i += 1;
            }
            while *i < b.len()
                && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                *i += 1;
            }
            *i > start
        }

        fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> bool {
            if b[*i..].starts_with(lit) {
                *i += lit.len();
                true
            } else {
                false
            }
        }

        #[test]
        fn validator_sanity() {
            assert!(validate("{\"a\": 1, \"b\": [null, true, \"x\"]}"));
            assert!(validate("{}"));
            assert!(!validate("{\"a\": }"));
            assert!(!validate("{\"a\": 1,}"));
            assert!(!validate("{\"a\": 1} extra"));
        }
    }
}
