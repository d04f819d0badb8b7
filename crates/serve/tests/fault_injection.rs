//! Fault-injection tests: a panicking or failing request is contained
//! to its own response; sibling connections, other sessions, and the
//! resident index all keep working.
//!
//! Run with `cargo test -p remedy-serve --features failpoints`.

#![cfg(feature = "failpoints")]

use remedy_core::persist::regions_to_text;
use remedy_core::{identify, try_identify_in_index_with, Algorithm, IbsParams};
use remedy_dataset::{synth, RowEdit};
use remedy_obs::Scope as ObsScope;
use remedy_pipeline::failpoint::{self, Action};
use remedy_pipeline::ErrorKind;
use remedy_serve::durable::{self, Durable, DurableConfig, DurablePolicy};
use remedy_serve::{Client, ServeOptions, Server, Session};

// The fail-point registry is process-global; tests that arm faults
// serialize on this lock so parallel test threads don't trip each
// other's faults.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

fn start_server() -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServeOptions::default()).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

#[test]
fn panicking_request_leaves_sibling_connections_and_sessions_intact() {
    let _guard = lock();
    failpoint::clear();
    let (addr, handle) = start_server();
    let mut a = Client::connect(&addr).unwrap();
    let mut b = Client::connect(&addr).unwrap();
    a.call("{\"op\":\"load\",\"session\":\"s1\",\"source\":\"compas\",\"rows\":300,\"seed\":2}")
        .unwrap();
    b.call("{\"op\":\"load\",\"session\":\"s2\",\"source\":\"law\",\"rows\":300,\"seed\":2}")
        .unwrap();
    let baseline = b
        .call("{\"op\":\"identify\",\"session\":\"s2\"}")
        .unwrap()
        .str_field("text")
        .unwrap()
        .to_string();

    // one request panics at entry: a's next call gets a structured
    // stage-panic response on the same connection
    failpoint::set("serve.req.identify", Action::Panic, 1);
    let err = a
        .call("{\"op\":\"identify\",\"session\":\"s1\"}")
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::StagePanic);
    assert!(err.to_string().contains("injected panic"), "{err}");

    // the sibling connection and its resident session are untouched
    let again = b.call("{\"op\":\"identify\",\"session\":\"s2\"}").unwrap();
    assert_eq!(again.str_field("text").unwrap(), baseline);

    // so is the session the panicking request targeted: a retry answers
    // byte-identically to a cold build
    let retry = a.call("{\"op\":\"identify\",\"session\":\"s1\"}").unwrap();
    let cold = identify(
        &synth::compas_n(300, 2),
        &IbsParams::default(),
        Algorithm::Optimized,
    );
    assert_eq!(retry.str_field("text").unwrap(), regions_to_text(&cold));

    // the panic is visible in the metrics taxonomy
    let stats = a.call("{\"op\":\"stats\"}").unwrap();
    let counted = stats
        .arr_field("counters")
        .unwrap()
        .iter()
        .any(|c| c.field("name").and_then(|v| v.as_str()) == Some("err.identify.stage-panic"));
    assert!(counted, "stage-panic must be counted under serve.err.*");

    failpoint::clear();
    a.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn panic_while_holding_the_session_lock_does_not_wedge_the_session() {
    let _guard = lock();
    failpoint::clear();
    let (addr, handle) = start_server();
    let mut client = Client::connect(&addr).unwrap();
    client
        .call("{\"op\":\"load\",\"session\":\"s\",\"source\":\"compas\",\"rows\":250,\"seed\":4}")
        .unwrap();

    // the serve.locked.* sites fire after lock_session: the unwinding
    // request poisons the session mutex, and recovery must still serve
    failpoint::set("serve.locked.identify", Action::Panic, 1);
    let err = client
        .call("{\"op\":\"identify\",\"session\":\"s\"}")
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::StagePanic);
    let retry = client
        .call("{\"op\":\"identify\",\"session\":\"s\"}")
        .unwrap();
    let cold = identify(
        &synth::compas_n(250, 4),
        &IbsParams::default(),
        Algorithm::Optimized,
    );
    assert_eq!(retry.str_field("text").unwrap(), regions_to_text(&cold));

    // same through the mutating path: the batch rejected by the panic
    // applied nothing, and the session keeps accepting edits
    failpoint::set("serve.locked.ingest", Action::Panic, 1);
    let edit = "{\"op\":\"ingest\",\"session\":\"s\",\"edits\":[{\"kind\":\"flip\",\"row\":0}]}";
    let err = client.call(edit).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::StagePanic);
    let ok = client.call(edit).unwrap();
    assert_eq!(ok.u64_field("edits").unwrap(), 1, "only the retry applied");

    failpoint::clear();
    client.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn injected_transient_fault_reports_its_kind_and_retries_cleanly() {
    let _guard = lock();
    failpoint::clear();
    let (addr, handle) = start_server();
    let mut client = Client::connect(&addr).unwrap();
    client
        .call("{\"op\":\"load\",\"session\":\"s\",\"source\":\"compas\",\"rows\":200,\"seed\":6}")
        .unwrap();
    failpoint::set("serve.req.ingest", Action::Err, 1);
    let edit =
        "{\"op\":\"ingest\",\"session\":\"s\",\"edits\":[{\"kind\":\"duplicate\",\"src\":0}]}";
    let err = client.call(edit).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Transient, "retryable by taxonomy");
    let ok = client.call(edit).unwrap();
    assert_eq!(ok.u64_field("rows").unwrap(), 201, "fault applied nothing");
    failpoint::clear();
    client.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}

fn matrix_dir(site: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("remedy_fp_{}", site.replace('.', "_")));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn live_text(session: &Session) -> String {
    regions_to_text(
        &try_identify_in_index_with(
            &session.index,
            &IbsParams::default(),
            Algorithm::Optimized,
            &ObsScope::disabled(),
        )
        .unwrap(),
    )
}

/// The crash-point matrix of the acceptance criteria: for every
/// durability fail-point, inject the fault mid-stream, "crash" (drop
/// the session with no shutdown step), recover, and demand the
/// recovered `identify` text be byte-identical to the reference the
/// acknowledgement protocol implies — batches refused at the WAL sites
/// never happened, batches whose *checkpoint* failed are still durable.
#[test]
fn crash_point_matrix_recovers_byte_identically_at_every_durability_step() {
    let _guard = lock();
    failpoint::clear();
    let obs = remedy_obs::Scope::disabled();
    let batch = |i: usize| {
        vec![
            RowEdit::FlipLabel { row: i },
            RowEdit::Duplicate { src: 2 * i },
        ]
    };
    for site in [
        "serve.wal.append",
        "serve.wal.fsync",
        "serve.snapshot.write",
        "serve.snapshot.rename",
    ] {
        let config = DurableConfig {
            root: matrix_dir(site),
            policy: DurablePolicy {
                snapshot_every: 2,
                wal_backlog: 1000,
            },
        };
        let mut mirror = synth::compas_n(300, 9);
        let mut session = Session::try_open(mirror.clone()).unwrap();
        session.durable = Some(Durable::create(&config, "m", &session, &obs).unwrap());
        // three clean batches: a rotated snapshot at epoch 2 plus a WAL
        // tail, so recovery crosses every layer
        for i in 0..3 {
            for edit in &batch(i) {
                mirror.apply_edit(edit);
            }
            session.ingest_with(&batch(i), &obs).unwrap();
        }
        // batch 4 trips the armed fault. At the WAL sites the batch is
        // refused before any state changes; at the snapshot sites the
        // batch is acknowledged (it is WAL-durable) and only the
        // periodic checkpoint fails.
        failpoint::set(site, Action::Err, 1);
        let result = session.ingest_with(&batch(3), &obs);
        let wal_site = site.starts_with("serve.wal");
        if wal_site {
            let err = result.expect_err("WAL faults must refuse the batch");
            assert_eq!(err.kind(), ErrorKind::Transient, "{site}: {err}");
            assert_eq!(session.epoch, 3, "{site}: refused batch must not apply");
        } else {
            result.unwrap_or_else(|e| panic!("{site}: checkpoint faults are absorbed: {e}"));
            for edit in &batch(3) {
                mirror.apply_edit(edit);
            }
            assert_eq!(session.epoch, 4);
        }
        failpoint::clear();
        let expected = live_text(&session);
        drop(session); // the crash: no flush, no shutdown

        let (mut recovered, _stats) = durable::recover_session(&config, "m").unwrap();
        assert_eq!(
            live_text(&recovered),
            expected,
            "{site}: recovery diverges from the acknowledged state"
        );
        let cold = identify(&mirror, &IbsParams::default(), Algorithm::Optimized);
        assert_eq!(
            live_text(&recovered),
            regions_to_text(&cold),
            "{site}: recovery diverges from a cold rebuild of the mirror"
        );
        // the faulted step leaves a fully writable session behind: the
        // next batch (a retry, at the WAL sites) lands normally
        for edit in &batch(7) {
            mirror.apply_edit(edit);
        }
        recovered.ingest_with(&batch(7), &obs).unwrap();
        let cold = identify(&mirror, &IbsParams::default(), Algorithm::Optimized);
        assert_eq!(live_text(&recovered), regions_to_text(&cold), "{site}");
    }
}

/// The WAL backlog bound: when checkpoints keep failing and the
/// un-checkpointed backlog reaches `wal_backlog`, ingest sheds with a
/// typed transient `overloaded` error instead of growing the log
/// forever — and drains normally once checkpoints succeed again.
#[test]
fn wal_backlog_bound_sheds_ingest_until_a_checkpoint_lands() {
    let _guard = lock();
    failpoint::clear();
    let recorder = remedy_obs::Recorder::enabled();
    let obs = recorder.scope("serve");
    let config = DurableConfig {
        root: matrix_dir("backlog"),
        policy: DurablePolicy {
            snapshot_every: 1000,
            wal_backlog: 3,
        },
    };
    let mut session = Session::try_open(synth::compas_n(200, 1)).unwrap();
    session.durable = Some(Durable::create(&config, "b", &session, &obs).unwrap());
    failpoint::set("serve.snapshot.write", Action::Err, 100);
    let edit = [RowEdit::FlipLabel { row: 0 }];
    for _ in 0..3 {
        session.ingest_with(&edit, &obs).unwrap();
    }
    // backlog is now 3 = the bound; the emergency checkpoint fails, so
    // the batch is shed and nothing applied
    let err = session.ingest_with(&edit, &obs).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Transient);
    assert!(err.message().contains("overloaded"), "{err}");
    assert_eq!(session.epoch, 3, "shed batches must not apply");
    let shed = recorder
        .snapshot()
        .counters
        .iter()
        .find(|(scope, name, _)| scope == "serve" && name == "shed.backlog")
        .map(|(_, _, v)| *v);
    assert_eq!(shed, Some(1));
    // once the disk heals, the same ingest checkpoints and drains
    failpoint::clear();
    session.ingest_with(&edit, &obs).unwrap();
    assert_eq!(session.epoch, 4);
    if let Some(durable) = &session.durable {
        assert_eq!(
            durable.snapshot_epoch(),
            3,
            "the emergency checkpoint covered the backlog"
        );
    }
    // and the whole episode is crash-safe
    let expected = live_text(&session);
    drop(session);
    let (recovered, _) = durable::recover_session(&config, "b").unwrap();
    assert_eq!(live_text(&recovered), expected);
}
