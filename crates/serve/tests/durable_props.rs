//! Durability properties of `--data-dir` sessions.
//!
//! The headline promise mirrors the serve one: a session recovered from
//! its snapshot + WAL directory answers `identify` **byte-identically**
//! (`remedy-ibs v1` text) to a session that never went down. The tests
//! drive it three ways — a full daemon restart over TCP, direct
//! `Session`/`Durable` crash simulation (no clean shutdown at all), and
//! a seeded damage property over the WAL bytes that mirrors the
//! `store_props` corruption harness. Two more tests hand sessions a
//! columnar body whose packed-key sidecar lies about its rows, through
//! every way a body reaches a session.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use remedy_core::persist::regions_to_text;
use remedy_core::{
    identify, try_identify_counts_with, try_identify_in_index_with, Algorithm, Enumeration,
    IbsParams,
};
use remedy_dataset::format::content_digest;
use remedy_dataset::{store, synth, Dataset, RowEdit};
use remedy_obs::{Recorder, Scope as ObsScope};
use remedy_pipeline::json::Value;
use remedy_pipeline::{ErrorKind, RetryPolicy};
use remedy_serve::durable::{self, Durable, DurableConfig, DurablePolicy};
use remedy_serve::{wal, Client, ServeOptions, Server, Session};
use std::path::{Path, PathBuf};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("remedy_durable_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_durable(
    data_dir: &Path,
    snapshot_every: u64,
) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServeOptions {
        data_dir: Some(data_dir.to_path_buf()),
        snapshot_every,
        ..ServeOptions::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// Same distribution as the serve and core counting property harnesses.
fn random_edit(rng: &mut StdRng, len: usize) -> RowEdit {
    match rng.gen_range(0..4u32) {
        0 => RowEdit::Duplicate {
            src: rng.gen_range(0..len),
        },
        1 | 2 => RowEdit::FlipLabel {
            row: rng.gen_range(0..len),
        },
        _ => {
            let count = rng.gen_range(1..=len.min(8));
            let mut rows: Vec<usize> = (0..count).map(|_| rng.gen_range(0..len)).collect();
            rows.sort_unstable();
            rows.dedup();
            RowEdit::Remove { rows }
        }
    }
}

fn edit_json(edit: &RowEdit) -> String {
    match edit {
        RowEdit::Duplicate { src } => format!("{{\"kind\":\"duplicate\",\"src\":{src}}}"),
        RowEdit::FlipLabel { row } => format!("{{\"kind\":\"flip\",\"row\":{row}}}"),
        RowEdit::Remove { rows } => {
            let rows: Vec<String> = rows.iter().map(usize::to_string).collect();
            format!("{{\"kind\":\"remove\",\"rows\":[{}]}}", rows.join(","))
        }
    }
}

fn counter(stats: &Value, scope: &str, name: &str) -> Option<u64> {
    stats.arr_field("counters").ok()?.iter().find_map(|c| {
        (c.field("scope")?.as_str()? == scope && c.field("name")?.as_str()? == name)
            .then(|| c.field("value")?.as_u64())?
    })
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

/// Opens a session over `data`, attaches a durable directory, and
/// streams `batches` seeded edit batches through it, mirroring each
/// into `data`'s clone. Returns the live session and the mirror.
fn durable_session(
    config: &DurableConfig,
    name: &str,
    batches: usize,
    seed: u64,
) -> (Session, Dataset) {
    let obs = remedy_obs::Scope::disabled();
    let mut mirror = synth::compas_n(300, 5);
    let mut session = Session::try_open(mirror.clone()).unwrap();
    session.durable = Some(Durable::create(config, name, &session, &obs).unwrap());
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..batches {
        let edits: Vec<RowEdit> = (0..3)
            .map(|_| {
                let edit = random_edit(&mut rng, mirror.len());
                mirror.apply_edit(&edit);
                edit
            })
            .collect();
        session.ingest_with(&edits, &obs).unwrap();
    }
    (session, mirror)
}

#[test]
fn daemon_restart_recovers_sessions_byte_identically() {
    let dir = temp_dir("restart");
    let (addr, handle) = start_durable(&dir, 4);
    let mut client = Client::connect(&addr).unwrap();
    let loaded = client
        .call(
            "{\"op\":\"load\",\"session\":\"live\",\"source\":\"compas\",\"rows\":400,\"seed\":11}",
        )
        .unwrap();
    assert_eq!(loaded.u64_field("epoch").unwrap(), 0);

    // 6 batches with snapshot_every=4: recovery will cross a rotated
    // snapshot (epoch 4) plus a 2-record WAL tail
    let mut mirror = synth::compas_n(400, 11);
    let mut rng = StdRng::seed_from_u64(0xD00D1E);
    for batch in 1..=6u64 {
        let edits: Vec<String> = (0..10)
            .map(|_| {
                let edit = random_edit(&mut rng, mirror.len());
                mirror.apply_edit(&edit);
                edit_json(&edit)
            })
            .collect();
        let response = client
            .call(&format!(
                "{{\"op\":\"ingest\",\"session\":\"live\",\"edits\":[{}]}}",
                edits.join(",")
            ))
            .unwrap();
        assert_eq!(
            response.u64_field("epoch").unwrap(),
            batch,
            "each accepted batch bumps the echoed epoch"
        );
    }
    let before = client
        .call("{\"op\":\"identify\",\"session\":\"live\"}")
        .unwrap();
    client.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();

    // restart over the same directory: the session is recovered before
    // the address is even printed, and answers byte-identically
    let (addr, handle) = start_durable(&dir, 4);
    let mut client = Client::connect_with_retry(&addr, &RetryPolicy::new(5, 10, 1)).unwrap();
    let after = client
        .call("{\"op\":\"identify\",\"session\":\"live\"}")
        .unwrap();
    assert_eq!(
        after.str_field("text").unwrap(),
        before.str_field("text").unwrap(),
        "recovered identify diverges from the pre-restart session"
    );
    let cold = identify(&mirror, &IbsParams::default(), Algorithm::Optimized);
    assert_eq!(after.str_field("text").unwrap(), regions_to_text(&cold));

    let stats = client.call("{\"op\":\"stats\"}").unwrap();
    assert_eq!(counter(&stats, "serve", "recover.sessions"), Some(1));
    assert_eq!(
        counter(&stats, "serve", "recover.records"),
        Some(2),
        "snapshot at epoch 4 leaves exactly batches 5 and 6 in the WAL"
    );
    let sessions = stats.arr_field("sessions").unwrap();
    assert_eq!(sessions[0].u64_field("epoch").unwrap(), 6);
    assert_eq!(
        sessions[0].field("durable").and_then(Value::as_bool),
        Some(true)
    );

    // the recovered session is fully live: it keeps accepting edits and
    // keeps matching the cold batch answer
    let edits: Vec<String> = (0..5)
        .map(|_| {
            let edit = random_edit(&mut rng, mirror.len());
            mirror.apply_edit(&edit);
            edit_json(&edit)
        })
        .collect();
    let response = client
        .call(&format!(
            "{{\"op\":\"ingest\",\"session\":\"live\",\"edits\":[{}]}}",
            edits.join(",")
        ))
        .unwrap();
    assert_eq!(response.u64_field("epoch").unwrap(), 7);
    let again = client
        .call("{\"op\":\"identify\",\"session\":\"live\"}")
        .unwrap();
    let cold = identify(&mirror, &IbsParams::default(), Algorithm::Optimized);
    assert_eq!(again.str_field("text").unwrap(), regions_to_text(&cold));

    client.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn crash_without_shutdown_replays_the_wal_tail() {
    let config = DurableConfig {
        root: temp_dir("crash"),
        // never checkpoints after the initial snapshot: recovery must
        // come entirely from WAL replay
        policy: DurablePolicy {
            snapshot_every: 1000,
            wal_backlog: 2000,
        },
    };
    let (session, mirror) = durable_session(&config, "s", 17, 0xC4A5);
    let expected = live_text(&session);
    assert_eq!(session.epoch, 17);
    // a crash is just dropping everything without any shutdown step:
    // every acknowledged batch was fsync'd before it applied
    drop(session);

    let (mut recovered, stats) = durable::recover_session(&config, "s").unwrap();
    assert_eq!(stats.replayed, 17);
    assert_eq!((stats.truncated_bytes, stats.snapshots_skipped), (0, 0));
    assert_eq!(
        (recovered.epoch, recovered.batches, recovered.edits),
        (17, 17, 51)
    );
    assert!(recovered.durable.is_some());
    assert_eq!(recovered.data, mirror);
    assert_eq!(live_text(&recovered), expected);

    // and the recovered session is append-ready: the next batch lands
    // at the next epoch and survives another recovery
    recovered
        .ingest_with(
            &[RowEdit::FlipLabel { row: 3 }],
            &remedy_obs::Scope::disabled(),
        )
        .unwrap();
    let expected = live_text(&recovered);
    drop(recovered);
    let (again, stats) = durable::recover_session(&config, "s").unwrap();
    assert_eq!((again.epoch, stats.replayed), (18, 18));
    assert_eq!(live_text(&again), expected);
}

#[test]
fn rotation_keeps_one_generation_and_recovers_from_the_newest_snapshot() {
    let config = DurableConfig {
        root: temp_dir("rotate"),
        policy: DurablePolicy {
            snapshot_every: 4,
            wal_backlog: 2000,
        },
    };
    let (session, _mirror) = durable_session(&config, "s", 10, 7);
    let expected = live_text(&session);
    drop(session);

    // snapshots landed at epochs 4 and 8; rotation deleted everything
    // older, so the directory holds exactly one generation
    let dir = config.root.join("s");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(
        files,
        vec![
            format!("snapshot-{:020}.bin", 8),
            format!("wal-{:020}.log", 8)
        ],
        "stale generations must be cleaned after rotation"
    );

    let (recovered, stats) = durable::recover_session(&config, "s").unwrap();
    assert_eq!(stats.replayed, 2, "batches 9 and 10 replay from the WAL");
    assert_eq!(recovered.epoch, 10);
    assert_eq!(live_text(&recovered), expected);
}

#[test]
fn seeded_wal_damage_yields_prefix_recovery_or_typed_corrupt() {
    // build one clean WAL image with a seeded record mix, then damage it
    // 400 ways: a single flipped byte or a truncation, anywhere
    let mut rng = StdRng::seed_from_u64(0x3A15EED);
    let mut records = Vec::new();
    let mut image: Vec<u8> = format!("{}\n", wal::WAL.line()).into_bytes();
    for seq in 1..=12u64 {
        let edits: Vec<RowEdit> = (0..rng.gen_range(1..5usize))
            .map(|_| random_edit(&mut rng, 300))
            .collect();
        image.extend_from_slice(&wal::encode_record(seq, &edits));
        records.push(wal::WalRecord { seq, edits });
    }

    for case in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let mut damaged = image.clone();
        let flip = rng.gen_bool(0.5);
        if flip {
            let pos = rng.gen_range(0..damaged.len());
            damaged[pos] ^= rng.gen_range(1..=255u8);
        } else {
            damaged.truncate(rng.gen_range(0..damaged.len()));
        }
        match wal::replay_bytes(&damaged) {
            Ok(replayed) => {
                // never a silently wrong record: whatever survives must
                // be an exact prefix of what was written
                assert!(
                    replayed.records.len() <= records.len(),
                    "case {case}: more records than were written"
                );
                assert_eq!(
                    replayed.records,
                    records[..replayed.records.len()],
                    "case {case}: recovered records are not a clean prefix"
                );
            }
            Err(e) => {
                assert_eq!(
                    e.kind(),
                    ErrorKind::CorruptArtifact,
                    "case {case}: damage must surface as corrupt-artifact, got {e}"
                );
            }
        }
    }
}

#[test]
fn damaged_session_wal_recovers_a_prefix_state_never_a_wrong_one() {
    let config = DurableConfig {
        root: temp_dir("damage"),
        policy: DurablePolicy {
            snapshot_every: 1000,
            wal_backlog: 2000,
        },
    };
    // record the expected identify text after every prefix of batches
    let obs = remedy_obs::Scope::disabled();
    let mut mirror = synth::compas_n(300, 5);
    let mut session = Session::try_open(mirror.clone()).unwrap();
    session.durable = Some(Durable::create(&config, "s", &session, &obs).unwrap());
    let mut rng = StdRng::seed_from_u64(3);
    let mut prefix_texts = vec![live_text(&session)];
    for _ in 0..8 {
        let edits: Vec<RowEdit> = (0..3)
            .map(|_| {
                let edit = random_edit(&mut rng, mirror.len());
                mirror.apply_edit(&edit);
                edit
            })
            .collect();
        session.ingest_with(&edits, &obs).unwrap();
        prefix_texts.push(live_text(&session));
    }
    drop(session);

    let wal_file = config.root.join("s").join(format!("wal-{:020}.log", 0));
    let clean = std::fs::read(&wal_file).unwrap();

    // flip one byte somewhere in the records region: recovery must land
    // exactly on one of the prefix states
    let magic_len = wal::WAL.line().len() + 1;
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let mut damaged = clean.clone();
        let pos = rng.gen_range(magic_len..damaged.len());
        damaged[pos] ^= rng.gen_range(1..=255u8);
        std::fs::write(&wal_file, &damaged).unwrap();
        let (recovered, stats) = durable::recover_session(&config, "s").unwrap();
        let epoch = recovered.epoch as usize;
        assert!(epoch <= 8, "case {case}: impossible epoch {epoch}");
        assert_eq!(
            live_text(&recovered),
            prefix_texts[epoch],
            "case {case}: recovered state is not the epoch-{epoch} prefix"
        );
        if epoch < 8 {
            assert!(
                stats.truncated_bytes > 0,
                "case {case}: a shortened recovery must report truncation"
            );
        }
        // recovery truncated the tail and reopened the WAL; restore the
        // clean image for the next case
        std::fs::write(&wal_file, &clean).unwrap();
    }

    // a destroyed magic line is a typed error, not a silent empty session
    let mut damaged = clean.clone();
    damaged[0] ^= 0x5a;
    std::fs::write(&wal_file, &damaged).unwrap();
    let Err(err) = durable::recover_session(&config, "s") else {
        panic!("a destroyed magic line must not recover");
    };
    assert_eq!(err.kind(), ErrorKind::CorruptArtifact);
}

#[test]
fn overloaded_daemon_sheds_connections_with_typed_transient_error() {
    let server = Server::bind(ServeOptions {
        max_conns: 1,
        ..ServeOptions::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut first = Client::connect(&addr).unwrap();
    first.call("{\"op\":\"stats\"}").unwrap();
    // the second connection is accepted, told why it is refused, closed
    let mut second = Client::connect(&addr).unwrap();
    let err = second.call("{\"op\":\"stats\"}").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Transient, "{err}");
    assert!(err.message().contains("overloaded"), "{err}");

    let stats = first.call("{\"op\":\"stats\"}").unwrap();
    assert_eq!(counter(&stats, "serve", "shed.conns"), Some(1));
    let shutdown = first.call("{\"op\":\"shutdown\"}").unwrap();
    assert!(shutdown.u64_field("drain_ms").is_ok());
    handle.join().unwrap().unwrap();
}

#[test]
fn shed_reply_reaches_a_client_whose_request_arrives_late() {
    // the daemon answers a shed connection before reading from it; a
    // request that only arrives afterwards must still get that answer,
    // not a reset from a socket the daemon already closed
    let server = Server::bind(ServeOptions {
        max_conns: 1,
        ..ServeOptions::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut first = Client::connect(&addr).unwrap();
    first.call("{\"op\":\"stats\"}").unwrap();
    let mut second = Client::connect(&addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(20));
    let err = second.call("{\"op\":\"stats\"}").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Transient, "{err}");
    assert!(err.message().contains("overloaded"), "{err}");

    first.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn timed_out_mutations_are_counted_and_visible_through_the_epoch() {
    let server = Server::bind(ServeOptions::default()).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect_with_retry(&addr, &RetryPolicy::new(3, 5, 2)).unwrap();

    // a 1ms deadline cannot cover a 100k-row load: the request times
    // out, but the abandoned worker still finishes and installs the
    // session — exactly the escape the epoch makes observable
    let err = client
        .call(
            "{\"op\":\"load\",\"session\":\"big\",\"source\":\"compas\",\
             \"rows\":100000,\"deadline_ms\":1}",
        )
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Transient);
    assert!(err.message().contains("deadline exceeded"), "{err}");

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let stats = client.call("{\"op\":\"stats\"}").unwrap();
        let landed = stats
            .arr_field("sessions")
            .unwrap()
            .iter()
            .any(|s| s.str_field("name") == Ok("big"));
        if landed {
            assert!(counter(&stats, "serve", "deadline.abandoned").unwrap_or(0) >= 1);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "abandoned load never landed"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    client.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn durable_session_names_must_be_directory_safe() {
    let dir = temp_dir("names");
    let (addr, handle) = start_durable(&dir, 64);
    let mut client = Client::connect(&addr).unwrap();
    let err = client
        .call("{\"op\":\"load\",\"session\":\"../evil\",\"source\":\"compas\",\"rows\":50}")
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidPlan);
    assert!(err.message().contains("data directory"), "{err}");
    // the plain name works and lands on disk
    client
        .call("{\"op\":\"load\",\"session\":\"ok-1\",\"source\":\"compas\",\"rows\":50}")
        .unwrap();
    assert!(dir.join("ok-1").is_dir());
    assert!(!dir.join("../evil").exists());
    client.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}

/// The session's dense and pruned `identify` texts.
fn dense_and_pruned(session: &Session) -> Vec<String> {
    [Enumeration::Dense, Enumeration::Pruned]
        .into_iter()
        .map(|enumeration| {
            let params = IbsParams::builder()
                .enumeration(enumeration)
                .build()
                .unwrap();
            let counts = session.index.counts().clone();
            let regions = try_identify_counts_with(
                counts,
                &params,
                Algorithm::Optimized,
                &ObsScope::disabled(),
            )
            .unwrap();
            regions_to_text(&regions)
        })
        .collect()
}

/// Damages the packed-key sidecar of a COMPAS columnar body and requires
/// every session opened from it — decoded with its keys widened, loaded
/// by the daemon from a `.bin` file, and recovered from a snapshot whose
/// body digest is recomputed over the damage — to identify exactly like
/// a session built from the same columns.
fn assert_sidecar_is_ignored(name: &str, damage: fn(&mut [u8])) {
    let data = synth::compas_n(300, 7);
    let mut body = store::to_binary(&data);
    // the sidecar's 3-byte keys (three 8-bit slots) end the file
    let keys = body.len() - 3 * data.len();
    damage(&mut body[keys..]);
    let want = dense_and_pruned(&Session::try_open(data).unwrap());

    let stored = store::from_bytes(&body).unwrap();
    assert!(
        stored.packed.is_some(),
        "the damage keeps the file decodable"
    );
    let session = Session::try_open_stored(stored).unwrap();
    assert_eq!(dense_and_pruned(&session), want, "{name}: from_bytes");

    let dir = temp_dir(name);
    let path = dir.join("hostile.bin");
    std::fs::write(&path, &body).unwrap();
    let (addr, handle) = start_durable(&dir.join("served"), 64);
    let mut client = Client::connect(&addr).unwrap();
    client
        .call(&format!(
            "{{\"op\":\"load\",\"session\":\"h\",\"source\":{}}}",
            remedy_pipeline::json::json_str(&path.to_string_lossy())
        ))
        .unwrap();
    let served: Vec<String> = ["", ",\"pruned\":true"]
        .into_iter()
        .map(|pruned| {
            let request = format!("{{\"op\":\"identify\",\"session\":\"h\"{pruned}}}");
            let response = client.call(&request).unwrap();
            response.str_field("text").unwrap().to_string()
        })
        .collect();
    client.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
    assert_eq!(served, want, "{name}: serve load");

    let config = DurableConfig {
        root: dir.join("recovered"),
        policy: DurablePolicy::default(),
    };
    let session_dir = config.root.join("h");
    std::fs::create_dir_all(&session_dir).unwrap();
    let mut snapshot = format!("{}\n", durable::SNAPSHOT.line()).into_bytes();
    for meta in [0u64; 3] {
        snapshot.extend_from_slice(&meta.to_le_bytes());
    }
    snapshot.extend_from_slice(&content_digest(&body).to_le_bytes());
    snapshot.extend_from_slice(&body);
    std::fs::write(
        session_dir.join(format!("snapshot-{:020}.bin", 0)),
        snapshot,
    )
    .unwrap();
    let (session, _) = durable::recover_session(&config, "h").unwrap();
    assert_eq!(
        dense_and_pruned(&session),
        want,
        "{name}: snapshot recovery"
    );
}

#[test]
fn sidecar_key_of_all_ones_is_ignored() {
    assert_sidecar_is_ignored("sidecar_ones", |keys| keys[..3].fill(0xff));
}

#[test]
fn sidecar_key_with_flipped_low_bits_is_ignored() {
    assert_sidecar_is_ignored("sidecar_flipped", |keys| {
        keys[3..6].iter_mut().for_each(|b| *b ^= 1);
    });
}

/// A session at epoch 6 whose only snapshot is the initial one (epoch 0)
/// and whose WAL holds all six batches, each a duplicate, a flip and a
/// remove. Returns the mirror of its rows.
fn mixed_tail_session(config: &DurableConfig, name: &str) -> Dataset {
    let obs = ObsScope::disabled();
    let mut mirror = synth::compas_n(300, 5);
    let mut session = Session::try_open(mirror.clone()).unwrap();
    session.durable = Some(Durable::create(config, name, &session, &obs).unwrap());
    for batch in 0..6 {
        let edits = [
            RowEdit::Duplicate { src: 7 * batch },
            RowEdit::FlipLabel { row: 11 * batch },
            RowEdit::Remove {
                rows: vec![3 * batch, 3 * batch + 40],
            },
        ];
        for edit in &edits {
            mirror.apply_edit(edit);
        }
        session.ingest_with(&edits, &obs).unwrap();
    }
    assert_eq!(session.epoch, 6);
    mirror
}

/// A cold rebuild's identify text over `data`.
fn cold_text(data: &Dataset) -> String {
    live_text(&Session::try_open(data.clone()).unwrap())
}

/// Writes `snapshot-<epoch>.bin` over `data` with its digest computed
/// before `damage` runs on the body, so the file fails its digest check.
/// `damage` gets the body and the offset of its labels.
fn write_damaged_snapshot(dir: &Path, epoch: u64, data: &Dataset, damage: fn(&mut [u8], usize)) {
    let mut body = store::to_binary(data);
    // unit weights are elided; the sidecar (three protected columns) is
    // a 4 + 3·8-byte header and one 3-byte key per row
    let labels = body.len() - (4 + 3 * 8) - 4 * data.len();
    assert_eq!(&body[labels..labels + data.len()], data.labels());
    let digest = content_digest(&body);
    damage(&mut body, labels);
    let mut snapshot = format!("{}\n", durable::SNAPSHOT.line()).into_bytes();
    for meta in [epoch, 3 * epoch, epoch] {
        snapshot.extend_from_slice(&meta.to_le_bytes());
    }
    snapshot.extend_from_slice(&digest.to_le_bytes());
    snapshot.extend_from_slice(&body);
    std::fs::write(dir.join(format!("snapshot-{epoch:020}.bin")), snapshot).unwrap();
}

#[test]
fn wal_tail_of_duplicates_flips_and_removes_recovers_byte_identically() {
    let config = DurableConfig {
        root: temp_dir("mixed_tail"),
        policy: DurablePolicy {
            snapshot_every: 1000,
            wal_backlog: 2000,
        },
    };
    let mirror = mixed_tail_session(&config, "s");
    let trace = config.root.join("trace.jsonl");
    let recorder = Recorder::to_path(&trace).unwrap();
    let mut recovered = durable::recover_all(&config, &recorder.scope("serve"));
    recorder.finish();
    assert_eq!(recovered.len(), 1);
    let (_, session) = recovered.pop().unwrap();
    assert_eq!(session.data, mirror);
    assert_eq!(live_text(&session), cold_text(&mirror));
    assert_eq!(
        recorder.snapshot().counter("serve", "recover.records"),
        Some(6)
    );

    // one `recover` span in the serve scope, every recovery step under it
    let spans: Vec<Value> = std::fs::read_to_string(&trace)
        .unwrap()
        .lines()
        .map(|line| remedy_pipeline::json::parse(line).unwrap())
        .filter(|event| event.str_field("t").ok() == Some("span"))
        .collect();
    let named = |name: &str| -> Vec<&Value> {
        spans
            .iter()
            .filter(|span| span.str_field("name").ok() == Some(name))
            .collect()
    };
    let recover = named("recover");
    assert_eq!(recover.len(), 1);
    assert_eq!(recover[0].str_field("scope").unwrap(), "serve");
    let recover_id = recover[0].field("id").and_then(Value::as_u64);
    for step in ["read", "verify", "decode", "replay", "index"] {
        let found = named(step);
        assert!(!found.is_empty(), "no `{step}` span");
        for span in found {
            assert_eq!(span.str_field("scope").unwrap(), "serve", "{step}");
            assert_eq!(
                span.field("parent").and_then(Value::as_u64),
                recover_id,
                "{step} nests under recover"
            );
        }
    }
}

#[test]
fn damaged_newest_snapshot_that_decodes_falls_back_to_the_older_generation() {
    let config = DurableConfig {
        root: temp_dir("fallback_decodes"),
        policy: DurablePolicy::default(),
    };
    let mirror = mixed_tail_session(&config, "s");
    // a label flipped after sealing: the body still decodes, to rows
    // that differ from the session's
    write_damaged_snapshot(&config.root.join("s"), 6, &mirror, |body, labels| {
        body[labels] ^= 1
    });

    let (recovered, stats) = durable::recover_session(&config, "s").unwrap();
    assert_eq!(stats.snapshots_skipped, 1);
    assert_eq!(stats.replayed, 6, "the older generation's WAL replays");
    assert_eq!(recovered.epoch, 6);
    assert_eq!(recovered.data, mirror);
    assert_eq!(live_text(&recovered), cold_text(&mirror));
}

#[test]
fn digest_mismatch_outranks_the_decode_error_of_the_same_body() {
    let config = DurableConfig {
        root: temp_dir("fallback_precedence"),
        policy: DurablePolicy::default(),
    };
    let mirror = mixed_tail_session(&config, "s");
    let dir = config.root.join("s");
    // the last column's last code, set past its domain
    write_damaged_snapshot(&dir, 6, &mirror, |body, labels| body[labels - 1] = 0xff);
    let (recovered, stats) = durable::recover_session(&config, "s").unwrap();
    assert_eq!(stats.snapshots_skipped, 1);
    assert_eq!(live_text(&recovered), cold_text(&mirror));
    drop(recovered);

    // without the older generation the newest snapshot's error surfaces
    std::fs::remove_file(dir.join(format!("snapshot-{:020}.bin", 0))).unwrap();
    let Err(err) = durable::recover_session(&config, "s") else {
        panic!("a snapshot failing its digest must not be served");
    };
    assert_eq!(err.kind(), ErrorKind::CorruptArtifact);
    assert!(err.message().contains("body digest mismatch"), "{err}");
    assert!(!err.message().contains("out of range"), "{err}");
}

#[test]
fn digest_mismatch_outranks_a_wal_tail_that_does_not_apply() {
    let config = DurableConfig {
        root: temp_dir("fallback_tail"),
        policy: DurablePolicy::default(),
    };
    let mirror = mixed_tail_session(&config, "s");
    // five rows at epoch 2: records 3 to 6 name rows it does not have
    let short = synth::compas_n(5, 1);
    write_damaged_snapshot(&config.root.join("s"), 2, &short, |body, labels| {
        body[labels] ^= 1
    });
    let (recovered, stats) = durable::recover_session(&config, "s").unwrap();
    assert_eq!((stats.snapshots_skipped, stats.replayed), (1, 6));
    assert_eq!(live_text(&recovered), cold_text(&mirror));
}

#[test]
fn damaged_only_snapshot_is_a_typed_corrupt_error() {
    let config = DurableConfig {
        root: temp_dir("fallback_none"),
        policy: DurablePolicy::default(),
    };
    let mirror = mixed_tail_session(&config, "s");
    let dir = config.root.join("s");
    write_damaged_snapshot(&dir, 6, &mirror, |body, labels| body[labels] ^= 1);
    std::fs::remove_file(dir.join(format!("snapshot-{:020}.bin", 0))).unwrap();
    let Err(err) = durable::recover_session(&config, "s") else {
        panic!("a snapshot failing its digest must not be served");
    };
    assert_eq!(err.kind(), ErrorKind::CorruptArtifact);
    assert!(err.message().contains("body digest mismatch"), "{err}");
    // nothing was served, so nothing was cleaned or truncated either
    assert!(dir.join(format!("wal-{:020}.log", 0)).exists());
}
