//! The daemon: accept loop, per-request isolation, and the op handlers.
//!
//! Thread-per-connection; each request line is parsed, armed with the
//! `serve.req.<op>` fail-point site, executed under `catch_unwind`, and
//! answered with exactly one response line. A panicking request becomes
//! a structured `stage-panic` response; the connection, every sibling
//! connection, and the resident sessions keep working.
//!
//! With a `--data-dir`, sessions are durable: `bind` recovers every
//! session directory before the accept loop starts, `load` creates a
//! WAL + snapshot directory per session, and mutations reach the fsync'd
//! WAL before they are acknowledged (see the `durable` module). The
//! front door sheds load instead of stalling: past `--max-conns` a new
//! connection gets one transient `overloaded` error line and is closed.
//!
//! Per-request metrics are recorded into a short-lived
//! [`Recorder`] and folded into the resident one in a single
//! [`Recorder::merge_from`] at request end, so concurrent requests never
//! interleave counter attribution. `stats` reports the resident
//! snapshot; with a `--trace` sink attached, each request additionally
//! emits a `serve`-scoped span.

use crate::durable::{self, Durable, DurableConfig, DurablePolicy};
use crate::protocol::{self, Fields, Request};
use crate::session::{lock_session_for, Registry, Session};
use remedy_classifiers::{Model, ModelKind};
use remedy_core::{remedy_over_with, RemedyParams, DEFAULT_SEED};
use remedy_dataset::source::{self, FormatPolicy};
use remedy_dataset::split::train_test_split;
use remedy_dataset::{csv, synth, Dataset};
use remedy_fairness::{audit_score, AuditConfig, Statistic};
use remedy_obs::Recorder;
use remedy_pipeline::error::panic_message;
use remedy_pipeline::json::{json_f64, json_str, Value};
use remedy_pipeline::{failpoint, ErrorKind, PipelineError};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Longest request line the daemon reads, newline excluded. A client that
/// sends more without a newline gets one `invalid-plan` error line and is
/// disconnected, so it cannot grow the daemon's read buffer without
/// bound. Ingest batches run to roughly 30 bytes per edit, so this admits
/// batches of about a quarter-million edits.
pub const MAX_REQUEST_LINE: usize = 8 << 20;

/// How the daemon is stood up.
pub struct ServeOptions {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Default per-request deadline in milliseconds (0 = none). A
    /// request's own `deadline_ms` field overrides it.
    pub deadline_ms: u64,
    /// Root directory for durable sessions (`None` = in-memory only).
    /// Sessions found under it are recovered before the server accepts.
    pub data_dir: Option<PathBuf>,
    /// Durable mode: snapshot a session once this many edit batches
    /// accumulate past its last checkpoint.
    pub snapshot_every: u64,
    /// Durable mode: shed `ingest` with a transient `overloaded` error
    /// when the un-checkpointed WAL backlog reaches this bound and an
    /// emergency checkpoint fails.
    pub wal_backlog: u64,
    /// Accept gate: connections past this are refused with one
    /// transient `overloaded` error line (0 = unlimited).
    pub max_conns: usize,
    /// How long `run` waits for in-flight connections after `shutdown`.
    pub drain_ms: u64,
    /// The resident recorder. Give it a sink to stream request spans.
    pub recorder: Recorder,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        let policy = DurablePolicy::default();
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            deadline_ms: 0,
            data_dir: None,
            snapshot_every: policy.snapshot_every,
            wal_backlog: policy.wal_backlog,
            max_conns: 0,
            drain_ms: 2000,
            recorder: Recorder::enabled(),
        }
    }
}

/// Shared across the acceptor and every connection thread.
struct State {
    registry: Registry,
    recorder: Recorder,
    default_deadline_ms: u64,
    durable: Option<DurableConfig>,
    max_conns: usize,
    drain_ms: u64,
    shutdown: AtomicBool,
    active: AtomicUsize,
    local_addr: SocketAddr,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Binds the listener (so the ephemeral port is known before the
    /// accept loop starts) and, in durable mode, recovers every session
    /// directory under the data dir — so by the time the address is
    /// printed, every surviving session is already serving.
    pub fn bind(options: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&options.addr)?;
        let local_addr = listener.local_addr()?;
        let durable = match options.data_dir {
            Some(root) => {
                std::fs::create_dir_all(&root)?;
                Some(DurableConfig {
                    root,
                    policy: DurablePolicy {
                        snapshot_every: options.snapshot_every.max(1),
                        wal_backlog: options.wal_backlog.max(1),
                    },
                })
            }
            None => None,
        };
        let registry = Registry::default();
        if let Some(config) = &durable {
            let recovered = durable::recover_all(config, &options.recorder.scope("serve"));
            for (name, session) in recovered {
                registry.insert(&name, session);
            }
        }
        Ok(Server {
            listener,
            state: Arc::new(State {
                registry,
                recorder: options.recorder,
                default_deadline_ms: options.deadline_ms,
                durable,
                max_conns: options.max_conns,
                drain_ms: options.drain_ms,
                shutdown: AtomicBool::new(false),
                active: AtomicUsize::new(0),
                local_addr,
            }),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Serves until a `shutdown` request, then drains in-flight
    /// connections (bounded wait, `--drain-ms`).
    pub fn run(self) -> std::io::Result<()> {
        for conn in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            if self.state.max_conns > 0
                && self.state.active.load(Ordering::SeqCst) >= self.state.max_conns
            {
                shed_conn(&self.state, stream);
                continue;
            }
            let state = Arc::clone(&self.state);
            state.active.fetch_add(1, Ordering::SeqCst);
            thread::spawn(move || {
                handle_conn(&state, stream);
                state.active.fetch_sub(1, Ordering::SeqCst);
            });
        }
        // bounded drain: connections that are mid-request get a moment
        // to write their response; ones blocked on an idle client die
        // with the process
        let deadline = Instant::now() + Duration::from_millis(self.state.drain_ms);
        while self.state.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        let abandoned = self.state.active.load(Ordering::SeqCst);
        if abandoned > 0 {
            self.state
                .recorder
                .scope("serve")
                .add("drain.abandoned", abandoned as u64);
        }
        Ok(())
    }
}

/// Longest the accept loop spends reading a shed connection's request.
const SHED_DRAIN: Duration = Duration::from_millis(100);

/// The accept gate: past `--max-conns`, a new connection is answered
/// with a single transient `overloaded` error line and closed — clients
/// with retry backoff get a clean signal instead of a stalled socket.
fn shed_conn(state: &Arc<State>, stream: TcpStream) {
    state.recorder.scope("serve").add("shed.conns", 1);
    let mut writer = stream;
    let _ = writer.set_nodelay(true);
    let line = protocol::render_err(
        None,
        ErrorKind::Transient,
        &format!(
            "overloaded: connection limit reached ({} active)",
            state.max_conns
        ),
    );
    let _ = writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"));
    // Dropping the socket with the request unread, or still in flight,
    // makes the kernel send a reset that can beat the line above to the
    // client. So half-close, then read up to the request's newline, EOF
    // or SHED_DRAIN, which bounds the accept loop's stall.
    let _ = writer.shutdown(Shutdown::Write);
    let deadline = Instant::now() + SHED_DRAIN;
    let mut buf = [0u8; 4096];
    // a zero timeout is an error, so the loop also ends at the deadline
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        match writer
            .set_read_timeout(Some(left))
            .and_then(|()| writer.read(&mut buf))
        {
            Ok(n) if n > 0 && !buf[..n].contains(&b'\n') => {}
            _ => break,
        }
    }
}

fn handle_conn(state: &Arc<State>, stream: TcpStream) {
    // responses are single lines; flush them immediately instead of
    // letting Nagle's algorithm hold them for a delayed ACK
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_REQUEST_LINE as u64 + 1; // the line plus its newline
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.len() > MAX_REQUEST_LINE && buf.last() != Some(&b'\n') {
            let line = protocol::render_err(
                None,
                ErrorKind::InvalidPlan,
                &format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
            );
            let _ = writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"));
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let response = respond(state, line);
        let write = writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"));
        if write.is_err() || state.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    if state.shutdown.load(Ordering::SeqCst) {
        // wake the acceptor so it notices the flag even with no new
        // clients arriving
        let _ = TcpStream::connect(state.local_addr);
    }
}

/// Parses, executes (with isolation and deadline), meters, renders.
fn respond(state: &Arc<State>, line: &str) -> String {
    let req = match protocol::parse_request(line) {
        Ok(req) => req,
        Err(e) => return protocol::render_err(None, e.kind(), e.message()),
    };
    let started = Instant::now();
    let req_rec = Recorder::enabled();
    let result = {
        // a span on the resident recorder, so --trace shows one span
        // per request
        let _span = state.recorder.scope("serve").span(&req.op);
        let deadline_ms = req.deadline_ms.unwrap_or(state.default_deadline_ms);
        if deadline_ms == 0 {
            execute(state, &req, &req_rec)
        } else {
            execute_with_deadline(state, &req, &req_rec, deadline_ms)
        }
    };
    // one merge per request: counters/histograms land atomically, so
    // concurrent requests cannot interleave attribution
    let serve = req_rec.scope("serve");
    serve.add(&format!("req.{}", req.op), 1);
    if let Err(e) = &result {
        serve.add(&format!("err.{}.{}", req.op, e.kind().name()), 1);
    }
    serve.observe(
        &format!("req_us.{}", req.op),
        started.elapsed().as_micros() as u64,
    );
    state.recorder.merge_from(&req_rec);
    match result {
        Ok(fields) => protocol::render_ok(&req, &fields),
        Err(e) => protocol::render_err(Some(&req), e.kind(), &e.to_string()),
    }
}

/// Runs the handler on a worker thread and gives up after the deadline.
/// The worker is detached on timeout: it still finishes (releasing any
/// session lock it holds) but its result is discarded — so a timed-out
/// *mutation* may still land. That escape is observable, not silent:
/// the abandonment is counted, and because every mutating response and
/// `stats` echo the session's monotonic `epoch`, a client can compare
/// the epoch it last saw against the session's current one to learn
/// whether the abandoned batch applied.
fn execute_with_deadline(
    state: &Arc<State>,
    req: &Request,
    req_rec: &Recorder,
    deadline_ms: u64,
) -> Result<Fields, PipelineError> {
    let (tx, rx) = mpsc::channel();
    let state = Arc::clone(state);
    let worker_req = req.clone();
    let worker_rec = req_rec.clone();
    thread::spawn(move || {
        let _ = tx.send(execute(&state, &worker_req, &worker_rec));
    });
    match rx.recv_timeout(Duration::from_millis(deadline_ms)) {
        Ok(result) => result,
        Err(_) => {
            req_rec.scope("serve").add("deadline.abandoned", 1);
            Err(
                PipelineError::transient(format!("deadline exceeded after {deadline_ms}ms"))
                    .in_stage(&req.op),
            )
        }
    }
}

/// Panic isolation around the fail-point gate and op dispatch. The
/// `serve.req.<op>` site fires at request entry (inside the unwind
/// boundary, so an injected panic exercises containment); the
/// `serve.locked.<op>` sites inside handlers fire while a session lock
/// is held, exercising poisoned-lock recovery.
fn execute(state: &Arc<State>, req: &Request, rec: &Recorder) -> Result<Fields, PipelineError> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        failpoint::check("serve.req", &req.op).map_err(|e| e.in_stage(&req.op))?;
        dispatch(state, req, rec)
    }));
    match result {
        Ok(result) => result,
        Err(payload) => {
            Err(PipelineError::stage_panic(panic_message(payload.as_ref())).in_stage(&req.op))
        }
    }
}

fn dispatch(state: &Arc<State>, req: &Request, rec: &Recorder) -> Result<Fields, PipelineError> {
    match req.op.as_str() {
        "load" => op_load(state, req, rec),
        "ingest" => op_ingest(state, req, rec),
        "identify" => op_identify(state, req, rec),
        "audit" => op_audit(state, req, rec),
        "remedy" => op_remedy(state, req, rec),
        "stats" => op_stats(state, rec),
        "shutdown" => {
            state.shutdown.store(true, Ordering::SeqCst);
            // this connection is one of `active`; the rest are drained
            let draining = state.active.load(Ordering::SeqCst).saturating_sub(1);
            let mut fields = Fields::new();
            fields
                .raw("stopping", true)
                .raw("draining", draining)
                .raw("drain_ms", state.drain_ms);
            Ok(fields)
        }
        other => Err(PipelineError::invalid_plan(format!("unknown op `{other}`"))),
    }
}

fn session_name(req: &Request) -> Result<&str, PipelineError> {
    req.body
        .str_field("session")
        .map_err(|_| PipelineError::invalid_plan("missing string field `session`"))
}

fn op_load(state: &Arc<State>, req: &Request, rec: &Recorder) -> Result<Fields, PipelineError> {
    let name = session_name(req)?;
    let data = open_source(&req.body)?;
    rec.scope("load").add("rows_loaded", data.len() as u64);
    let mut session = Session::try_open(data)?;
    if let Some(config) = &state.durable {
        // (re)loading a name wipes and re-creates its directory: the
        // initial snapshot IS the session's durable state from here on
        session.durable = Some(Durable::create(
            config,
            name,
            &session,
            &rec.scope("serve"),
        )?);
    }
    let rows = session.data.len();
    let epoch = session.epoch;
    // the initial counting pass shows up as counting.rebuild.* counters
    session.index.flush_obs(&rec.scope("load"));
    state.registry.insert(name, session);
    let mut fields = Fields::new();
    fields
        .str("session", name)
        .raw("rows", rows)
        .raw("epoch", epoch);
    Ok(fields)
}

/// Opens a `load` request's `"source"` through [`source::open`], with
/// the generator and CSV options its other fields give.
fn open_source(body: &Value) -> Result<Dataset, PipelineError> {
    let source = body
        .str_field("source")
        .map_err(|_| PipelineError::invalid_plan("missing string field `source`"))?;
    let protected = match body.field("protected") {
        None => Some(Vec::new()),
        Some(Value::Arr(items)) => items.iter().map(|v| v.as_str().map(String::from)).collect(),
        Some(_) => None,
    }
    .ok_or_else(|| {
        PipelineError::invalid_plan("`protected` must be an array of attribute names")
    })?;
    let request = source::Request {
        source,
        format: FormatPolicy::Auto,
        rows: protocol::opt_u64(body, "rows")?.unwrap_or(0) as usize,
        seed: protocol::opt_u64(body, "seed")?.unwrap_or(DEFAULT_SEED),
        arity: protocol::opt_u64(body, "arity")?.map_or(synth::WIDE_DEFAULT_ARITY, |a| {
            usize::try_from(a).unwrap_or(usize::MAX)
        }),
        label: protocol::opt_str(body, "label")?.map(String::from),
        protected,
        positive: protocol::opt_str(body, "positive")?.map(String::from),
        bins: protocol::opt_u64(body, "bins")?.map_or(csv::DEFAULT_BINS, |b| b as usize),
    };
    source::open(&request).map_err(|e| PipelineError::invalid_plan(e.to_string()))
}

fn op_ingest(state: &Arc<State>, req: &Request, rec: &Recorder) -> Result<Fields, PipelineError> {
    let session = state.registry.get(session_name(req)?)?;
    let edits = protocol::edits(&req.body)?;
    let mut session = lock_session_for(&session, "ingest", &rec.scope("serve"));
    failpoint::check("serve.locked", "ingest")?;
    // wal.*/snapshot.*/shed.* durability counters land in the serve
    // scope next to req.* — `stats` reports them all from one place
    session.ingest_with(&edits, &rec.scope("serve"))?;
    // per-batch delta work (counting.delta.* counters)
    session.index.flush_obs(&rec.scope("ingest"));
    let mut fields = Fields::new();
    fields
        .raw("applied", edits.len())
        .raw("rows", session.data.len())
        .raw("edits", session.edits)
        .raw("batches", session.batches)
        .raw("epoch", session.epoch);
    Ok(fields)
}

fn op_identify(state: &Arc<State>, req: &Request, rec: &Recorder) -> Result<Fields, PipelineError> {
    let session = state.registry.get(session_name(req)?)?;
    let params = protocol::ibs_params(&req.body)?;
    let algorithm = protocol::algorithm(&req.body)?;
    // the lock covers only a copy of the leaf counts, O(distinct leaves);
    // enumeration, scoring and rendering run after it is released, so
    // ingests on the session do not wait behind them
    let (counts, rows, epoch) = {
        let mut session = lock_session_for(&session, "identify", &rec.scope("serve"));
        failpoint::check("serve.locked", "identify")?;
        session.index.flush_deltas();
        (
            session.index.counts().clone(),
            session.data.len(),
            session.epoch,
        )
    };
    let regions =
        remedy_core::try_identify_counts_with(counts, &params, algorithm, &rec.scope("identify"))
            .map_err(|e| PipelineError::invalid_plan(e.to_string()))?;
    // the persisted-regions text is the canonical, bit-exact encoding:
    // comparing it against a batch run is how byte-identity is asserted
    let text = remedy_core::persist::regions_to_text(&regions);
    let mut fields = Fields::new();
    fields
        .raw("count", regions.len())
        .raw("rows", rows)
        .raw("epoch", epoch)
        .str("text", &text);
    Ok(fields)
}

fn op_audit(state: &Arc<State>, req: &Request, rec: &Recorder) -> Result<Fields, PipelineError> {
    let session = state.registry.get(session_name(req)?)?;
    let model_kind: ModelKind = protocol::opt_parsed(&req.body, "model")?.unwrap_or_default();
    let stat: Statistic = protocol::opt_parsed(&req.body, "stat")?.unwrap_or_default();
    let seed = protocol::opt_u64(&req.body, "seed")?.unwrap_or(DEFAULT_SEED);
    let defaults = AuditConfig::default();
    let tau_d = protocol::opt_f64(&req.body, "tau_d")?.unwrap_or(defaults.tau_d);
    let min_support = protocol::opt_f64(&req.body, "min_support")?.unwrap_or(defaults.min_support);
    // the split copies the rows it keeps, so training, prediction and
    // the audit run after the lock is released
    let (train_set, test_set) = {
        let session = lock_session_for(&session, "audit", &rec.scope("serve"));
        train_test_split(&session.data, 0.7, seed)
            .map_err(|e| PipelineError::invalid_plan(e.to_string()))?
    };
    let model = model_kind.fit(&train_set, seed);
    let predictions = model.predict(&test_set);
    let score = audit_score(&test_set, &predictions, stat, tau_d, min_support)
        .map_err(|e| PipelineError::invalid_plan(e.to_string()))?;
    let schema = test_set.schema();
    let top: Vec<String> = score
        .unfair
        .iter()
        .take(20)
        .map(|report| {
            format!(
                "{{\"pattern\":{},\"divergence\":{},\"gamma\":{},\"support\":{}}}",
                json_str(&report.pattern.display(schema).to_string()),
                json_f64(report.divergence),
                json_f64(report.gamma),
                json_f64(report.support)
            )
        })
        .collect();
    let mut fields = Fields::new();
    fields
        .str("model", &model_kind.to_string())
        .str("stat", &stat.to_string())
        .f64("accuracy", score.accuracy)
        .f64("fairness_index", score.fairness_index)
        .raw("unfair_subgroups", score.unfair.len())
        .raw("top", format!("[{}]", top.join(",")));
    Ok(fields)
}

fn op_remedy(state: &Arc<State>, req: &Request, rec: &Recorder) -> Result<Fields, PipelineError> {
    let session = state.registry.get(session_name(req)?)?;
    let defaults = RemedyParams::default();
    let params = RemedyParams::builder()
        .technique(protocol::opt_parsed(&req.body, "technique")?.unwrap_or_default())
        .tau_c(protocol::opt_f64(&req.body, "tau")?.unwrap_or(defaults.tau_c))
        .min_size(protocol::opt_u64(&req.body, "min_size")?.unwrap_or(defaults.min_size))
        .neighborhood(protocol::neighborhood(&req.body)?)
        .scope(protocol::opt_parsed(&req.body, "scope")?.unwrap_or_default())
        .seed(protocol::opt_u64(&req.body, "seed")?.unwrap_or(DEFAULT_SEED))
        .build()
        .map_err(|e| PipelineError::invalid_plan(e.to_string()))?;
    let apply = protocol::opt_bool(&req.body, "apply")?.unwrap_or(false);
    // remedy reads every row and, applied, swaps the dataset, so it runs
    // under the lock whole
    let mut session = lock_session_for(&session, "remedy", &rec.scope("serve"));
    session.index.flush_deltas();
    let protected = session.data.schema().protected_indices();
    let outcome = remedy_over_with(&session.data, &protected, &params, &rec.scope("remedy"))
        .map_err(|e| PipelineError::invalid_plan(e.to_string()))?;
    let rows_before = session.data.len();
    let rows_after = outcome.dataset.len();
    let schema = session.data.schema();
    // the edit script: one update per remedied region, floats rendered
    // through json_f64 so they round-trip
    let updates: Vec<String> = outcome
        .updates
        .iter()
        .map(|u| {
            format!(
                "{{\"pattern\":{},\"ratio_before\":{},\"target_ratio\":{},\
                 \"pos_delta\":{},\"neg_delta\":{},\"flipped\":{}}}",
                json_str(&u.pattern.display(schema).to_string()),
                json_f64(u.ratio_before),
                json_f64(u.target_ratio),
                u.pos_delta,
                u.neg_delta,
                u.flipped
            )
        })
        .collect();
    if apply {
        // durable mode checkpoints the remedied dataset before the
        // in-memory swap; a failure leaves the session unchanged
        session.try_replace(outcome.dataset, &rec.scope("serve"))?;
        session.index.flush_obs(&rec.scope("remedy"));
    }
    let mut fields = Fields::new();
    fields
        .str("technique", &params.technique.to_string())
        .raw("rows_before", rows_before)
        .raw("rows_after", rows_after)
        .raw("applied", apply)
        .raw("epoch", session.epoch)
        .raw("updates", format!("[{}]", updates.join(",")));
    Ok(fields)
}

fn op_stats(state: &Arc<State>, rec: &Recorder) -> Result<Fields, PipelineError> {
    let sessions: Vec<String> = state
        .registry
        .summaries(&rec.scope("serve"))
        .into_iter()
        .map(|s| {
            format!(
                "{{\"name\":{},\"rows\":{},\"edits\":{},\"batches\":{},\
                 \"epoch\":{},\"durable\":{}}}",
                json_str(&s.name),
                s.rows,
                s.edits,
                s.batches,
                s.epoch,
                s.durable
            )
        })
        .collect();
    // requests merge their metrics after responding, so the snapshot
    // covers every *completed* request (not this in-flight one)
    let snapshot = state.recorder.snapshot();
    let counters: Vec<String> = snapshot
        .counters
        .iter()
        .map(|(scope, name, value)| {
            format!(
                "{{\"scope\":{},\"name\":{},\"value\":{value}}}",
                json_str(scope),
                json_str(name)
            )
        })
        .collect();
    let histograms: Vec<String> = snapshot
        .histograms
        .iter()
        .map(|(scope, name, h)| {
            format!(
                "{{\"scope\":{},\"name\":{},\"count\":{},\"sum\":{},\"min\":{},\
                 \"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
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
            )
        })
        .collect();
    let mut fields = Fields::new();
    fields
        .raw("sessions", format!("[{}]", sessions.join(",")))
        .raw("counters", format!("[{}]", counters.join(",")))
        .raw("histograms", format!("[{}]", histograms.join(",")));
    Ok(fields)
}
