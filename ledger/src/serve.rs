//! `serve_mixed` and `serve_restart`: the resident service under load
//! and across restarts.
//!
//! `serve_mixed` holds one durable session (the `remedy serve
//! --data-dir` defaults: a snapshot every 64 batches, an enabled
//! recorder) loaded from a binary `adult_n` file, and drives it from two
//! connections, each a closed loop over its own seeded mix: 60%
//! `identify`, 39% `ingest` of four flip or duplicate edits, 1% `remedy`
//! (`us`, not applied). Reads and writes meet at the session mutex; the
//! write path adds fsync'd WAL appends and periodic snapshots, and a
//! remedy holds the lock for hundreds of milliseconds. After the run,
//! the final `identify` must equal a cold batch identify over the
//! original rows with every acknowledged batch replayed in epoch order.
//!
//! `serve_restart` times one operation: `Server::bind`, which recovers a
//! large durable session (a snapshot plus a WAL tail), then connect, then
//! the first `identify` answered. Its working set is far larger than the
//! CPU caches, and no remedy or pipeline work is involved.

use crate::trace::{self, Tracer};
use crate::{ms_since, peak_rss_mb, probe, reset_peak_rss, stats, Config, Outcome, Tally, Timed};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use remedy_core::{
    identify, persist, remedy_with, try_identify_in_index_with, Algorithm, IbsParams, RegionIndex,
    RemedyParams, Technique,
};
use remedy_dataset::format::content_digest;
use remedy_dataset::{store, synth, Dataset, Format, RowEdit, Stored};
use remedy_obs::{Recorder, Scope as ObsScope, Span};
use remedy_pipeline::json::{self, json_str, Value};
use remedy_serve::durable::{self, Durable, DurableConfig, DurablePolicy, SNAPSHOT};
use remedy_serve::{wal, Client, ServeOptions, Server, Session};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SESSION: &str = "ledger";
/// Client connections of `serve_mixed`: one per core of the reference
/// machine, so load never oversubscribes it.
const CONNECTIONS: usize = 2;
/// Edits per `ingest` batch.
const BATCH: usize = 4;
/// Bytes after a snapshot's magic line before the columnar body:
/// `epoch:u64 edits:u64 batches:u64 digest:u128`.
const SNAPSHOT_META: usize = 8 + 8 + 8 + 16;
/// Repetitions of each timed in-process layer call.
const PROBE_REPS: usize = 10;

/// A server running on its own thread; stopped (and joined) by
/// [`Running::stop`] or, on an early return, by `Drop`.
struct Running {
    addr: String,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl Running {
    fn start(options: ServeOptions) -> Result<Running, String> {
        let server = Server::bind(options).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        Ok(Running {
            addr,
            handle: Some(handle),
        })
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        // a server that cannot be told to stop would never be joined;
        // its thread ends with the process instead
        self.connect()
            .and_then(|mut c| call(&mut c, "{\"op\":\"shutdown\"}"))?;
        handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

fn call(client: &mut Client, line: &str) -> Result<Value, String> {
    client.call(line).map_err(|e| e.to_string())
}

fn durable_options(data_dir: &Path, recorder: Recorder) -> ServeOptions {
    ServeOptions {
        data_dir: Some(data_dir.to_path_buf()),
        recorder,
        ..ServeOptions::default()
    }
}

fn load_line(source: &Path) -> String {
    format!(
        "{{\"op\":\"load\",\"session\":\"{SESSION}\",\"source\":{}}}",
        json_str(&source.display().to_string())
    )
}

fn identify_line() -> String {
    format!("{{\"op\":\"identify\",\"session\":\"{SESSION}\"}}")
}

fn ingest_line(edits: &[RowEdit]) -> String {
    let items: Vec<String> = edits
        .iter()
        .map(|edit| match edit {
            RowEdit::FlipLabel { row } => format!("{{\"kind\":\"flip\",\"row\":{row}}}"),
            RowEdit::Duplicate { src } => format!("{{\"kind\":\"duplicate\",\"src\":{src}}}"),
            RowEdit::Remove { .. } => unreachable!("the mix never removes rows"),
        })
        .collect();
    format!(
        "{{\"op\":\"ingest\",\"session\":\"{SESSION}\",\"edits\":[{}]}}",
        items.join(",")
    )
}

/// `BATCH` flip or duplicate edits on rows below `rows`; with no removes
/// every index stays valid however the batches interleave.
fn random_batch(rng: &mut StdRng, rows: usize) -> Vec<RowEdit> {
    (0..BATCH)
        .map(|_| {
            let row = rng.gen_range(0..rows);
            if rng.gen_bool(0.5) {
                RowEdit::FlipLabel { row }
            } else {
                RowEdit::Duplicate { src: row }
            }
        })
        .collect()
}

/// The `remedy-ibs v1` text a cold batch identify gives on `data`.
fn cold_identify(data: &Dataset) -> String {
    persist::regions_to_text(&identify(data, &IbsParams::default(), Algorithm::Optimized))
}

/// Sends one request and returns the raw response line. Timed calls
/// stop here: parsing a response with the `pipeline::json` reader is the
/// client library's cost, reported on its own as `serve.client_parse_ms`.
fn request(client: &mut Client, line: &str) -> Result<String, String> {
    client.request_line(line).map_err(|e| e.to_string())
}

/// Checks a raw `identify` response against the expected region text
/// without parsing it: the server renders `text` with the same escaper.
fn identify_matches(raw: &str, expected: &str) -> bool {
    raw.starts_with("{\"ok\":true") && raw.contains(&format!("\"text\":{}", json_str(expected)))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Identify,
    Ingest,
    Remedy,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Identify => "identify",
            Op::Ingest => "ingest",
            Op::Remedy => "remedy",
        }
    }
}

/// One hundred operations in the mix's exact proportions, shuffled. A
/// deck, not independent draws, keeps the share of slow remedies the
/// same in every run.
fn shuffled_deck(rng: &mut StdRng) -> Vec<Op> {
    let mut deck: Vec<Op> = std::iter::repeat_n(Op::Identify, 60)
        .chain(std::iter::repeat_n(Op::Ingest, 39))
        .chain(std::iter::once(Op::Remedy))
        .collect();
    for i in (1..deck.len()).rev() {
        deck.swap(i, rng.gen_range(0..=i));
    }
    deck
}

#[derive(Clone, Copy)]
enum Stop {
    At(Instant),
    AfterOps(usize),
}

/// What one connection did in one phase.
#[derive(Default)]
struct ConnRun {
    samples: Vec<(Op, f64)>,
    acks: Vec<(u64, Vec<RowEdit>)>,
    tally: Tally,
}

fn check_response(
    op: Op,
    raw: Result<String, String>,
    edits: Vec<RowEdit>,
    acks: &mut Vec<(u64, Vec<RowEdit>)>,
) -> Result<(), String> {
    let raw = raw.map_err(|e| format!("{}: {e}", op.name()))?;
    if !raw.starts_with("{\"ok\":true") {
        return Err(format!("{} failed: {raw:.200}", op.name()));
    }
    match op {
        Op::Identify => {
            if !raw.contains("\"text\":\"remedy-ibs v1") {
                return Err("identify text lacks the remedy-ibs v1 magic".into());
            }
        }
        Op::Ingest => {
            let epoch = json::parse(&raw)
                .and_then(|v| v.u64_field("epoch"))
                .map_err(|e| format!("ingest response: {e}"))?;
            acks.push((epoch, edits));
        }
        Op::Remedy => {
            if !raw.contains("\"applied\":false") {
                return Err("remedy with apply:false reported applied".into());
            }
        }
    }
    Ok(())
}

fn connection(
    addr: &str,
    seed: u64,
    rows: usize,
    stop: Stop,
    tracer: Option<&Recorder>,
) -> Result<ConnRun, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut deck = Vec::new();
    let mut run = ConnRun::default();
    loop {
        match stop {
            Stop::At(deadline) if Instant::now() >= deadline => break,
            Stop::AfterOps(n) if run.samples.len() >= n => break,
            _ => {}
        }
        if deck.is_empty() {
            deck = shuffled_deck(&mut rng);
        }
        let op = deck.pop().expect("refilled above");
        let (line, edits) = match op {
            Op::Identify => (identify_line(), Vec::new()),
            Op::Ingest => {
                let edits = random_batch(&mut rng, rows);
                (ingest_line(&edits), edits)
            }
            Op::Remedy => (
                format!(
                    "{{\"op\":\"remedy\",\"session\":\"{SESSION}\",\
                     \"technique\":\"us\",\"apply\":false}}"
                ),
                Vec::new(),
            ),
        };
        let span = tracer.map(|rec| rec.scope("serve_mixed").span(op.name()));
        let t = Instant::now();
        let response = request(&mut client, &line);
        run.samples.push((op, ms_since(t)));
        drop(span);
        run.tally
            .check(check_response(op, response, edits, &mut run.acks));
    }
    Ok(run)
}

/// Drives the server from [`CONNECTIONS`] closed-loop clients until
/// `stop`; `phase` separates the seeds of warm-up, timed and traced load.
fn drive(
    addr: &str,
    cfg: &Config,
    phase: u64,
    stop: Stop,
    tracer: Option<&Recorder>,
) -> Result<Vec<ConnRun>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS as u64)
            .map(|conn| {
                let seed = cfg
                    .seed
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(phase * 16 + conn);
                scope.spawn(move || connection(addr, seed, cfg.sizes.serve_rows, stop, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "connection thread panicked".to_string())?
            })
            .collect()
    })
}

/// Folds connection results into the run's tally and ack log, returning
/// the latency samples.
fn absorb(
    runs: Vec<ConnRun>,
    tally: &mut Tally,
    acks: &mut Vec<(u64, Vec<RowEdit>)>,
) -> Vec<(Op, f64)> {
    let mut samples = Vec::new();
    for run in runs {
        tally.attempted += run.tally.attempted;
        tally.failed += run.tally.failed;
        acks.extend(run.acks);
        samples.extend(run.samples);
    }
    samples
}

/// The final identify must equal a cold batch identify over the original
/// rows with every acknowledged batch replayed in epoch order.
fn final_check(
    server: &Running,
    original: &Dataset,
    acks: &mut [(u64, Vec<RowEdit>)],
    corrupt: bool,
) -> Result<(), String> {
    acks.sort_by_key(|(epoch, _)| *epoch);
    let mut data = original.clone();
    for (i, (epoch, edits)) in acks.iter().enumerate() {
        if *epoch != i as u64 + 1 {
            return Err(format!("acknowledged epochs skip from {i} to {epoch}"));
        }
        for edit in edits {
            data.try_apply_edit(edit).map_err(|e| e.to_string())?;
        }
    }
    let mut expected = cold_identify(&data);
    if corrupt {
        expected.push('!');
    }
    let raw = request(&mut server.connect()?, &identify_line())?;
    if !identify_matches(&raw, &expected) {
        return Err("final identify differs from the cold batch replay".into());
    }
    Ok(())
}

pub fn run_mixed(cfg: &Config) -> Result<Outcome, String> {
    let original = synth::adult_n(cfg.sizes.serve_rows, cfg.seed);
    let source = cfg.work_dir.join("serve.bin");
    store::save(&original, &source, Format::Binary).map_err(|e| e.to_string())?;

    // set-up: bind, then load the session (which writes its first snapshot)
    let mut timed = Timed {
        principal: vec!["identify".into(), "ingest".into()],
        ..Timed::default()
    };
    let mut server: Option<Running> = None;
    let mut data_dir = PathBuf::new();
    for i in 0..cfg.sizes.setups {
        if let Some(previous) = server.take() {
            previous.stop()?;
        }
        data_dir = cfg.work_dir.join(format!("data{i}"));
        let t = Instant::now();
        let running = Running::start(durable_options(&data_dir, Recorder::enabled()))?;
        call(&mut running.connect()?, &load_line(&source))?;
        timed.setup_s.push(t.elapsed().as_secs_f64());
        server = Some(running);
    }
    let mut server = server.ok_or("no set-up ran")?;

    let mut tally = Tally::default();
    let mut acks = Vec::new();
    let warm_until = Stop::At(Instant::now() + cfg.sizes.serve_warmup);
    let warmup = drive(&server.addr, cfg, 0, warm_until, None)?;
    absorb(warmup, &mut tally, &mut acks);
    reset_peak_rss()?;
    let start = Instant::now();
    let runs = drive(&server.addr, cfg, 1, Stop::At(start + cfg.deadline()), None)?;
    timed.elapsed_s = start.elapsed().as_secs_f64();
    timed.peak_rss_mb = peak_rss_mb()?;
    for (op, ms) in absorb(runs, &mut tally, &mut acks) {
        timed.push(op.name(), ms);
    }

    let mut layers = Vec::new();
    if cfg.trace {
        server.stop()?;
        let tracer = Tracer::new();
        // rebinding on the same data dir recovers the session
        server = Running::start(durable_options(&data_dir, tracer.recorder.clone()))?;
        let per_conn = cfg.sizes.trace_serve_ops.div_ceil(CONNECTIONS);
        let runs = drive(
            &server.addr,
            cfg,
            2,
            Stop::AfterOps(per_conn),
            Some(&tracer.recorder),
        )?;
        let traced_samples = absorb(runs, &mut tally, &mut acks);
        let stats = call(&mut server.connect()?, "{\"op\":\"stats\"}")?;
        let mut service = service_probes(cfg, &source, &tracer.recorder)?;
        // once: a full identify response takes the client library seconds
        let root = tracer.recorder.scope("serve_mixed").span("client");
        let raw = request(&mut server.connect()?, &identify_line())?;
        probe(
            &root,
            "serve",
            "client_parse",
            &mut service.client_parse,
            || json::parse(&raw),
        )
        .map_err(|e| e.to_string())?;
        drop(root);
        let spans = tracer
            .finish(&cfg.trace_path())
            .map_err(|e| format!("cannot write trace: {e}"))?;
        layers = mixed_layers(&timed, &traced_samples, &stats, &service, &spans)?;
    }
    tally.check(final_check(
        &server,
        &original,
        &mut acks,
        cfg.corrupt_reference,
    ));
    server.stop()?;
    Ok(Outcome {
        tally,
        timed,
        layers,
    })
}

/// In-process timings of the layers behind each request, on a session
/// opened from the same file: what a request costs once it holds the
/// session lock.
#[derive(Default)]
struct Service {
    identify: Vec<f64>,
    ingest: Vec<f64>,
    remedy: Vec<f64>,
    wal_append: Vec<f64>,
    snapshot: Vec<f64>,
    client_parse: Vec<f64>,
}

fn service_probes(cfg: &Config, source: &Path, rec: &Recorder) -> Result<Service, String> {
    let bytes = std::fs::read(source).map_err(|e| e.to_string())?;
    let stored = store::from_bytes(&bytes).map_err(|e| e.to_string())?;
    let mut session = Session::try_open_stored(stored).map_err(|e| e.to_string())?;
    let config = DurableConfig {
        root: cfg.work_dir.join("service"),
        policy: DurablePolicy::default(),
    };
    let obs = ObsScope::disabled();
    session.durable =
        Some(Durable::create(&config, SESSION, &session, &obs).map_err(|e| e.to_string())?);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5e71);
    let mut out = Service::default();
    let params = IbsParams::default();
    for _ in 0..PROBE_REPS {
        let root = rec.scope("serve_mixed").span("service");
        probe(&root, "serve", "identify", &mut out.identify, || {
            session.index.flush_deltas();
            try_identify_in_index_with(&session.index, &params, Algorithm::Optimized, &obs)
                .map(|regions| persist::regions_to_text(&regions))
        })
        .map_err(|e| e.to_string())?;
    }
    // two snapshot periods, so the mean carries the periodic checkpoint
    let batches = 2 * DurablePolicy::default().snapshot_every;
    for _ in 0..batches {
        let root = rec.scope("serve_mixed").span("service");
        let edits = random_batch(&mut rng, cfg.sizes.serve_rows);
        probe(&root, "serve", "ingest", &mut out.ingest, || {
            session.ingest_with(&edits, &obs)
        })
        .map_err(|e| e.to_string())?;
    }
    let remedy = RemedyParams::builder()
        .technique(Technique::Undersampling)
        .build()
        .map_err(|e| e.to_string())?;
    for _ in 0..3 {
        let root = rec.scope("serve_mixed").span("service");
        let outcome = probe(&root, "core", "remedy", &mut out.remedy, || {
            remedy_with(&session.data, &remedy, &obs)
        });
        std::hint::black_box(outcome.dataset.len());
    }
    let durable = session.durable.as_mut().expect("attached above");
    for i in 0..PROBE_REPS as u64 {
        let root = rec.scope("serve_mixed").span("service");
        let edits = random_batch(&mut rng, cfg.sizes.serve_rows);
        // out-of-band sequence numbers: this scratch log is never replayed
        probe(&root, "serve", "wal_append", &mut out.wal_append, || {
            durable.append(u64::MAX / 2 + i, &edits, &obs)
        })
        .map_err(|e| e.to_string())?;
    }
    for _ in 0..3 {
        let root = rec.scope("serve_mixed").span("service");
        probe(&root, "serve", "snapshot", &mut out.snapshot, || {
            durable.snapshot(
                &session.data,
                session.epoch,
                session.edits,
                session.batches,
                &obs,
            )
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(out)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Reads one histogram or counter out of a `stats` response.
fn stats_entry<'a>(stats: &'a Value, list: &str, scope: &str, name: &str) -> Option<&'a Value> {
    stats.arr_field(list).ok()?.iter().find(|entry| {
        entry.field("scope").and_then(Value::as_str) == Some(scope)
            && entry.field("name").and_then(Value::as_str) == Some(name)
    })
}

fn stats_counter(stats: &Value, scope: &str, name: &str) -> f64 {
    stats_entry(stats, "counters", scope, name)
        .and_then(|e| e.field("value").and_then(Value::as_u64))
        .unwrap_or(0) as f64
}

/// `(field of histogram)` from `stats`, 0 when never observed.
fn stats_hist(stats: &Value, scope: &str, name: &str, field: &str) -> f64 {
    stats_entry(stats, "histograms", scope, name)
        .and_then(|e| e.field(field).and_then(Value::as_u64))
        .unwrap_or(0) as f64
}

fn mixed_layers(
    timed: &Timed,
    traced: &[(Op, f64)],
    stats: &Value,
    service: &Service,
    spans: &[trace::SpanRec],
) -> Result<Vec<(String, f64)>, String> {
    let traced_of = |op: Op| -> Vec<f64> {
        traced
            .iter()
            .filter(|(o, _)| *o == op)
            .map(|&(_, ms)| ms)
            .collect()
    };
    // server-side request time, mean ms, from the resident recorder
    let req_ms = |op: &str| {
        let count = stats_hist(stats, "serve", &format!("req_us.{op}"), "count");
        stats_hist(stats, "serve", &format!("req_us.{op}"), "sum") / count.max(1.0) / 1e3
    };
    let mut layers = Vec::new();
    for kind in ["identify", "ingest"] {
        let samples = timed.samples(kind);
        let (tail_pct, tail_ms) = stats::highest_supported(samples, &[90.0, 99.0, 99.9])
            .unwrap_or((50.0, timed.median(kind)));
        layers.extend([
            (format!("serve.{kind}_p50_ms"), timed.median(kind)),
            (format!("serve.{kind}_tail_ms"), tail_ms),
            (format!("serve.{kind}_tail_pct"), tail_pct),
        ]);
    }
    let ingests = stats_counter(stats, "serve", "req.ingest");
    let shed =
        stats_counter(stats, "serve", "shed.backlog") + stats_counter(stats, "serve", "shed.conns");
    layers.extend([
        (
            "serve.remedy_p50_ms".to_string(),
            // a phase too short to deal a remedy reports 0, like any
            // layer a run did not exercise
            match timed.samples("remedy") {
                [] => 0.0,
                samples => stats::median(samples),
            },
        ),
        (
            "serve.wire_ms".to_string(),
            mean(&traced_of(Op::Identify)) - req_ms("identify"),
        ),
        (
            "serve.identify_service_ms".to_string(),
            mean(&service.identify),
        ),
        ("serve.ingest_service_ms".to_string(), mean(&service.ingest)),
        (
            "serve.remedy_service_ms".to_string(),
            stats::median(&service.remedy),
        ),
        (
            "serve.client_parse_ms".to_string(),
            stats::median(&service.client_parse),
        ),
        (
            "serve.delta_nodes".to_string(),
            stats_counter(stats, "ingest", "counting.delta.node_updates") / ingests.max(1.0),
        ),
        (
            "serve.lock_wait_ms.identify".to_string(),
            req_ms("identify") - mean(&service.identify),
        ),
        (
            "serve.lock_wait_ms.ingest".to_string(),
            req_ms("ingest") - mean(&service.ingest),
        ),
        (
            "serve.wal_append_ms".to_string(),
            stats::median(&service.wal_append),
        ),
        (
            "serve.wal_fsync_us.p50".to_string(),
            stats_hist(stats, "serve", "wal_fsync_us", "p50"),
        ),
        (
            "serve.wal_fsync_us.p90".to_string(),
            stats_hist(stats, "serve", "wal_fsync_us", "p90"),
        ),
        (
            "serve.snapshot_ms".to_string(),
            stats::median(&service.snapshot),
        ),
        (
            "serve.snapshots".to_string(),
            stats_counter(stats, "serve", "snapshot.write"),
        ),
        ("serve.shed".to_string(), shed),
    ]);

    // coverage: server request spans against the client latencies of the
    // traced requests they answered; the rest is the wire and the client
    let principal = [Op::Identify, Op::Ingest];
    let server_us: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.scope == "serve")
        .filter(|s| principal.iter().any(|op| op.name() == s.name))
        .map(|s| s.dur_us)
        .sum();
    let budget_ms: f64 = principal
        .iter()
        .map(|&op| traced_of(op).iter().sum::<f64>())
        .sum();
    let ratios: Vec<f64> = principal
        .iter()
        .map(|&op| stats::median(&traced_of(op)) / timed.median(op.name()))
        .collect();
    layers.extend([
        (
            "obs_overhead_pct".to_string(),
            (stats::geomean(&ratios) - 1.0) * 100.0,
        ),
        ("coverage".to_string(), trace::ms(server_us) / budget_ms),
    ]);
    Ok(layers)
}

fn restart_options(data_dir: &Path, recorder: Recorder) -> ServeOptions {
    ServeOptions {
        data_dir: Some(data_dir.to_path_buf()),
        // the WAL tail must survive set-up: no checkpoint before it ends
        snapshot_every: u64::MAX / 4,
        wal_backlog: u64::MAX / 2,
        recorder,
        ..ServeOptions::default()
    }
}

/// One restart: bind (recovering the session), connect, first identify,
/// each under a span in `root` (a no-op span when untraced). Returns the
/// running server, for the caller to stop outside its timing, and the
/// raw identify response.
fn restart(
    data_dir: &Path,
    recorder: Recorder,
    root: &Span,
    parts: &mut [Vec<f64>; 3],
) -> Result<(Running, String), String> {
    let [bind, connect, first] = parts;
    let server = probe(root, "serve", "bind", bind, || {
        Running::start(restart_options(data_dir, recorder))
    })?;
    let mut client = probe(root, "serve", "connect", connect, || server.connect())?;
    let raw = probe(root, "serve", "first_identify", first, || {
        request(&mut client, &identify_line())
    })?;
    Ok((server, raw))
}

/// Reads and decodes one snapshot file the way recovery does: magic
/// line, meta block, body digest, columnar body.
fn decode_snapshot(path: &Path) -> Result<Stored, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if !SNAPSHOT.sniff(&bytes) {
        return Err(format!("{} is not a snapshot", path.display()));
    }
    let meta = SNAPSHOT.line().len() + 1;
    let body = bytes
        .get(meta + SNAPSHOT_META..)
        .ok_or("truncated snapshot")?;
    let digest = u128::from_le_bytes(
        bytes[meta + 24..meta + SNAPSHOT_META]
            .try_into()
            .expect("16-byte digest"),
    );
    if content_digest(body) != digest {
        return Err("snapshot body digest mismatch".into());
    }
    store::from_bytes(body).map_err(|e| e.to_string())
}

/// The newest file named `<prefix>…<suffix>` in `dir`.
fn newest(dir: &Path, prefix: &str, suffix: &str) -> Result<PathBuf, String> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix) && n.ends_with(suffix))
        })
        .collect();
    found.sort();
    found
        .pop()
        .ok_or_else(|| format!("no {prefix}*{suffix} in {}", dir.display()))
}

pub fn run_restart(cfg: &Config) -> Result<Outcome, String> {
    let rows = cfg.sizes.restart_rows;
    let source = cfg.work_dir.join("restart.bin");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7e57);
    let batches: Vec<Vec<RowEdit>> = (0..cfg.sizes.restart_batches)
        .map(|_| random_batch(&mut rng, rows))
        .collect();
    let reference = {
        let mut data = synth::adult_n(rows, cfg.seed);
        store::save(&data, &source, Format::Binary).map_err(|e| e.to_string())?;
        for edit in batches.iter().flatten() {
            data.try_apply_edit(edit).map_err(|e| e.to_string())?;
        }
        let mut text = cold_identify(&data);
        if cfg.corrupt_reference {
            text.push('!');
        }
        text
    };

    // set-up: bind, load the session, and stream the WAL tail into it
    let mut timed = Timed {
        principal: vec!["restart".into()],
        ..Timed::default()
    };
    let mut data_dir = PathBuf::new();
    for i in 0..cfg.sizes.setups {
        data_dir = cfg.work_dir.join(format!("data{i}"));
        let t = Instant::now();
        let server = Running::start(restart_options(&data_dir, Recorder::enabled()))?;
        let mut client = server.connect()?;
        call(&mut client, &load_line(&source))?;
        for batch in &batches {
            call(&mut client, &ingest_line(batch))?;
        }
        timed.setup_s.push(t.elapsed().as_secs_f64());
        drop(client);
        server.stop()?;
    }

    let expected_records = batches.len() as u64;
    let verify_records = |records: u64| -> Result<(), String> {
        if records != expected_records {
            return Err(format!(
                "recovery replayed {records} WAL records, expected {expected_records}"
            ));
        }
        Ok(())
    };
    let verify = |raw: &str, records: u64| -> Result<(), String> {
        verify_records(records)?;
        if !identify_matches(raw, &reference) {
            return Err("first identify after restart differs from the reference".into());
        }
        Ok(())
    };
    let mut tally = Tally::default();
    let mut parts: [Vec<f64>; 3] = Default::default();
    let mut busy = Duration::ZERO;
    reset_peak_rss()?;
    while busy < cfg.deadline() {
        let rec = Recorder::enabled();
        let t = Instant::now();
        let result = restart(&data_dir, rec.clone(), &Span::noop(), &mut parts);
        let took = t.elapsed();
        busy += took;
        timed.push("restart", took.as_secs_f64() * 1e3);
        let records = rec
            .snapshot()
            .counter("serve", "recover.records")
            .unwrap_or(0);
        match result {
            Ok((server, text)) => {
                tally.check(verify(&text, records));
                server.stop()?;
            }
            Err(e) => tally.check(Err(e)),
        }
    }
    // shutdowns are not timed: measured time is the restarts themselves
    timed.elapsed_s = busy.as_secs_f64();
    timed.peak_rss_mb = peak_rss_mb()?;

    let layers = if cfg.trace {
        let config = DurableConfig {
            root: data_dir.clone(),
            policy: DurablePolicy {
                snapshot_every: u64::MAX / 4,
                wal_backlog: u64::MAX / 2,
            },
        };
        let tracer = Tracer::new();
        let rec = &tracer.recorder;
        let mut parts: [Vec<f64>; 3] = Default::default();
        let mut traced_ms = Vec::new();
        for _ in 0..cfg.sizes.trace_restarts {
            let before = rec.snapshot();
            let root = rec.scope("serve_restart").span("restart");
            let t = Instant::now();
            let result = restart(&data_dir, rec.clone(), &root, &mut parts);
            traced_ms.push(ms_since(t));
            drop(root);
            let records = crate::counter_delta(&before, &rec.snapshot(), |s, n| {
                s == "serve" && n == "recover.records"
            });
            let (server, text) = result?;
            tally.check(verify(&text, records));
            server.stop()?;
        }

        // the layers of recovery, called one by one on the same files
        let session_dir = data_dir.join(SESSION);
        let snapshot_path = newest(&session_dir, "snapshot-", ".bin")?;
        let wal_path = newest(&session_dir, "wal-", ".log")?;
        let (mut decode, mut build, mut replay, mut recover) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..cfg.sizes.trace_restarts {
            // one session's worth of memory at a time, as in a restart:
            // the layers' data is dropped before `recover_session` runs
            let root = rec.scope("serve_restart").span("layers");
            let stored = probe(&root, "serve", "snapshot_decode", &mut decode, || {
                decode_snapshot(&snapshot_path)
            })?;
            let Stored {
                mut data, packed, ..
            } = stored;
            let packed = packed.ok_or("snapshot carries no packed keys")?;
            let mut index = probe(&root, "core", "index_build", &mut build, || {
                RegionIndex::try_build_from_packed(&data, packed)
            })
            .map_err(|e| e.to_string())?;
            index.begin_deltas();
            probe(&root, "serve", "wal_replay", &mut replay, || {
                let log = wal::replay(&wal_path).map_err(|e| e.to_string())?;
                for record in &log.records {
                    for edit in &record.edits {
                        data.try_apply_edit(edit).map_err(|e| e.to_string())?;
                        index.apply_edit(edit);
                    }
                    index.flush_deltas();
                }
                Ok::<(), String>(())
            })?;
            drop((data, index, root));
            let root = rec.scope("serve_restart").span("recover");
            let (_, stats) = probe(&root, "serve", "recover_session", &mut recover, || {
                durable::recover_session(&config, SESSION)
            })
            .map_err(|e| e.to_string())?;
            tally.check(verify_records(stats.replayed));
        }
        let snapshot_mb = std::fs::metadata(&snapshot_path)
            .map_err(|e| e.to_string())?
            .len() as f64
            / 1e6;
        tracer
            .finish(&cfg.trace_path())
            .map_err(|e| format!("cannot write trace: {e}"))?;

        let e2e = timed.median("restart");
        let first_identify = stats::median(&parts[2]);
        let explained = stats::median(&decode)
            + stats::median(&build)
            + stats::median(&replay)
            + first_identify;
        vec![
            (
                "obs_overhead_pct".to_string(),
                (stats::median(&traced_ms) / e2e - 1.0) * 100.0,
            ),
            ("coverage".to_string(), explained / e2e),
            (
                "restart.snapshot_decode_ms".to_string(),
                stats::median(&decode),
            ),
            ("restart.index_build_ms".to_string(), stats::median(&build)),
            ("restart.wal_replay_ms".to_string(), stats::median(&replay)),
            ("restart.recover_ms".to_string(), stats::median(&recover)),
            ("restart.first_identify_ms".to_string(), first_identify),
            ("restart.snapshot_mb".to_string(), snapshot_mb),
        ]
    } else {
        Vec::new()
    };
    Ok(Outcome {
        tally,
        timed,
        layers,
    })
}
