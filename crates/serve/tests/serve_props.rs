//! End-to-end properties of the resident service.
//!
//! The headline promise: a server fed N streamed `ingest` batches
//! answers `identify` **byte-identically** to a cold batch identify on
//! the equivalent final dataset. The test drives a live server over TCP
//! with the same seeded random-edit generator the core counting
//! property tests use, mirroring every edit into a local dataset, then
//! compares the persisted-regions text from the wire against a
//! from-scratch run on the mirror.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use remedy_classifiers::{Model, ModelKind};
use remedy_core::persist::regions_to_text;
use remedy_core::{identify, remedy_with, Algorithm, IbsParams, Neighborhood, RemedyParams};
use remedy_core::{Scope as IbsScope, Technique};
use remedy_dataset::split::train_test_split;
use remedy_dataset::{synth, RowEdit};
use remedy_fairness::{audit_score, AuditConfig, Statistic};
use remedy_pipeline::json::{json_f64, json_str, Value};
use remedy_pipeline::ErrorKind;
use remedy_serve::{Client, ServeOptions, Server, MAX_REQUEST_LINE};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

fn start_server() -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServeOptions::default()).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// Same distribution as the core counting property harness
/// (`crates/core/tests/counting_props.rs`): duplicates, flips (twice as
/// likely), and small distinct removal sets.
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

/// Finds one counter in a `stats` response.
fn counter(stats: &Value, scope: &str, name: &str) -> Option<u64> {
    stats.arr_field("counters").ok()?.iter().find_map(|c| {
        (c.field("scope")?.as_str()? == scope && c.field("name")?.as_str()? == name)
            .then(|| c.field("value")?.as_u64())?
    })
}

/// Finds one histogram in a `stats` response.
fn histogram<'a>(stats: &'a Value, scope: &str, name: &str) -> Option<&'a Value> {
    stats.arr_field("histograms").ok()?.iter().find(|h| {
        h.field("scope").and_then(Value::as_str) == Some(scope)
            && h.field("name").and_then(Value::as_str) == Some(name)
    })
}

#[test]
fn streamed_ingest_identify_matches_cold_batch_byte_for_byte() {
    let (addr, handle) = start_server();
    let mut client = Client::connect(&addr).unwrap();
    client
        .call(
            "{\"op\":\"load\",\"session\":\"live\",\"source\":\"compas\",\"rows\":400,\"seed\":11}",
        )
        .unwrap();

    // stream 100 random edits in batches of 10, mirroring each locally
    let mut mirror = synth::compas_n(400, 11);
    let mut rng = StdRng::seed_from_u64(0x5E57E);
    let mut pending = Vec::new();
    for _ in 0..100 {
        let edit = random_edit(&mut rng, mirror.len());
        pending.push(edit_json(&edit));
        mirror.apply_edit(&edit);
        if pending.len() == 10 {
            let response = client
                .call(&format!(
                    "{{\"op\":\"ingest\",\"session\":\"live\",\"edits\":[{}]}}",
                    pending.join(",")
                ))
                .unwrap();
            assert_eq!(response.u64_field("rows").unwrap() as usize, mirror.len());
            pending.clear();
        }
    }

    // the resident index answers exactly like a cold batch run, across
    // parameterizations and for both algorithms
    for (params, request) in [
        (
            IbsParams::default(),
            "{\"op\":\"identify\",\"session\":\"live\"}".to_string(),
        ),
        (
            IbsParams::builder()
                .tau_c(0.05)
                .min_size(10)
                .neighborhood(Neighborhood::Full)
                .scope(IbsScope::Leaf)
                .build()
                .unwrap(),
            "{\"op\":\"identify\",\"session\":\"live\",\"tau\":0.05,\"min_size\":10,\
             \"neighborhood\":\"full\",\"scope\":\"leaf\",\"algorithm\":\"naive\"}"
                .to_string(),
        ),
    ] {
        let algorithm = if request.contains("naive") {
            Algorithm::Naive
        } else {
            Algorithm::Optimized
        };
        let response = client.call(&request).unwrap();
        let cold = identify(&mirror, &params, algorithm);
        assert_eq!(
            response.str_field("text").unwrap(),
            regions_to_text(&cold),
            "live identify diverges from cold batch for {request}"
        );
        assert_eq!(response.u64_field("count").unwrap() as usize, cold.len());
    }

    client.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn load_from_binary_artifact_answers_like_a_builtin_session() {
    let dir = std::env::temp_dir().join("remedy_serve_artifact");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let data = synth::compas_n(400, 11);
    let path = dir.join("compas.bin");
    remedy_dataset::store::save(&data, &path, remedy_dataset::Format::Binary).unwrap();

    let (addr, handle) = start_server();
    let mut client = Client::connect(&addr).unwrap();
    let response = client
        .call(&format!(
            "{{\"op\":\"load\",\"session\":\"art\",\"source\":{}}}",
            remedy_pipeline::json::json_str(&path.to_string_lossy())
        ))
        .unwrap();
    assert_eq!(response.u64_field("rows").unwrap() as usize, data.len());

    // the artifact-backed session (keys packed from the decoded columns)
    // answers byte-identically to a cold batch run over the same rows
    let response = client
        .call("{\"op\":\"identify\",\"session\":\"art\"}")
        .unwrap();
    let cold = identify(&data, &IbsParams::default(), Algorithm::Optimized);
    assert_eq!(response.str_field("text").unwrap(), regions_to_text(&cold));

    // and it accepts ingest like any other session
    let response = client
        .call("{\"op\":\"ingest\",\"session\":\"art\",\"edits\":[{\"kind\":\"flip\",\"row\":0}]}")
        .unwrap();
    assert_eq!(response.u64_field("rows").unwrap() as usize, data.len());

    client.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn load_of_a_missing_path_names_the_path() {
    let missing = std::env::temp_dir()
        .join("remedy_serve_missing")
        .join("absent.csv");
    let missing = missing.to_string_lossy().into_owned();
    let (addr, handle) = start_server();
    let mut client = Client::connect(&addr).unwrap();
    // with and without the CSV fields, the error is about the file
    for csv_fields in ["", ",\"label\":\"y\",\"protected\":[\"a\"]"] {
        let err = client
            .call(&format!(
                "{{\"op\":\"load\",\"session\":\"m\",\"source\":{}{csv_fields}}}",
                remedy_pipeline::json::json_str(&missing)
            ))
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidPlan);
        assert!(
            err.message().starts_with(&format!("{missing}: io error: ")),
            "{err}"
        );
    }
    client.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn csv_text_and_binary_sources_load_the_same_session() {
    let dir = std::env::temp_dir().join("remedy_serve_sources");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv_path = dir.join("compas.csv");
    remedy_dataset::csv::write_path(&synth::compas_n(500, 3), &csv_path).unwrap();
    let (addr, handle) = start_server();
    let mut client = Client::connect(&addr).unwrap();
    let load = |client: &mut Client, session: &str, source: &std::path::Path, csv: &str| {
        client
            .call(&format!(
                "{{\"op\":\"load\",\"session\":\"{session}\",\"source\":{}{csv}}}",
                remedy_pipeline::json::json_str(&source.to_string_lossy())
            ))
            .unwrap();
    };
    load(
        &mut client,
        "csv",
        &csv_path,
        ",\"label\":\"recid\",\"protected\":[\"age\",\"race\",\"sex\"]",
    );
    // the artifacts store exactly what the CSV load produced
    let data = remedy_dataset::source::open(&remedy_dataset::source::Request {
        source: &csv_path.to_string_lossy(),
        format: remedy_dataset::source::FormatPolicy::Csv,
        rows: 0,
        seed: 0,
        arity: synth::WIDE_DEFAULT_ARITY,
        label: Some("recid".into()),
        protected: vec!["age".into(), "race".into(), "sex".into()],
        positive: None,
        bins: remedy_dataset::csv::DEFAULT_BINS,
    })
    .unwrap();
    for (session, name, format) in [
        ("text", "compas.remedy", remedy_dataset::Format::Text),
        ("bin", "compas.bin", remedy_dataset::Format::Binary),
    ] {
        let path = dir.join(name);
        remedy_dataset::store::save(&data, &path, format).unwrap();
        load(&mut client, session, &path, "");
    }
    let serve_identify = |client: &mut Client, session: &str| {
        let request = format!("{{\"op\":\"identify\",\"session\":\"{session}\"}}");
        let response = client.call(&request).unwrap();
        response.str_field("text").unwrap().to_string()
    };
    let want = regions_to_text(&identify(
        &data,
        &IbsParams::default(),
        Algorithm::Optimized,
    ));
    for session in ["csv", "text", "bin"] {
        assert_eq!(serve_identify(&mut client, session), want, "{session}");
    }
    client.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn errors_are_structured_and_the_connection_survives() {
    let (addr, handle) = start_server();
    let mut client = Client::connect(&addr).unwrap();

    // an unparseable line is answered (invalid-plan), not dropped
    let raw = client.request_line("this is not json").unwrap();
    assert!(
        raw.contains("\"ok\":false") && raw.contains("invalid-plan"),
        "{raw}"
    );
    let err = client
        .call("{\"op\":\"identify\",\"session\":\"ghost\"}")
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidPlan);
    assert!(err.message().contains("unknown session"), "{err}");

    // a bad edit rejects the whole batch; the session stays pristine
    client
        .call("{\"op\":\"load\",\"session\":\"s\",\"source\":\"compas\",\"rows\":200,\"seed\":3}")
        .unwrap();
    let err = client
        .call(
            "{\"op\":\"ingest\",\"session\":\"s\",\"edits\":[{\"kind\":\"flip\",\"row\":0},\
             {\"kind\":\"duplicate\",\"src\":9999}]}",
        )
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidPlan);
    let response = client
        .call("{\"op\":\"identify\",\"session\":\"s\",\"id\":\"after\"}")
        .unwrap();
    assert_eq!(response.str_field("id").unwrap(), "after");
    let cold = identify(
        &synth::compas_n(200, 3),
        &IbsParams::default(),
        Algorithm::Optimized,
    );
    assert_eq!(response.str_field("text").unwrap(), regions_to_text(&cold));

    // stats reports the per-request metrics, including the error taxonomy
    let stats = client.call("{\"op\":\"stats\"}").unwrap();
    assert!(counter(&stats, "serve", "req.identify").unwrap() >= 2);
    assert_eq!(counter(&stats, "serve", "req.load"), Some(1));
    assert_eq!(counter(&stats, "serve", "err.ingest.invalid-plan"), Some(1));
    assert_eq!(
        counter(&stats, "serve", "err.identify.invalid-plan"),
        Some(1)
    );
    let sessions = stats.arr_field("sessions").unwrap();
    assert_eq!(sessions.len(), 1);
    assert_eq!(sessions[0].str_field("name").unwrap(), "s");
    assert_eq!(sessions[0].u64_field("rows").unwrap(), 200);

    client.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn remedy_returns_the_edit_script_and_apply_replaces_the_session() {
    let (addr, handle) = start_server();
    let mut client = Client::connect(&addr).unwrap();
    client
        .call("{\"op\":\"load\",\"session\":\"r\",\"source\":\"compas\",\"rows\":600,\"seed\":5}")
        .unwrap();

    // without apply, the response carries the edit script and the
    // resident dataset is untouched
    let mirror = synth::compas_n(600, 5);
    let params = RemedyParams::builder()
        .technique(Technique::Undersampling)
        .seed(5)
        .build()
        .unwrap();
    let expected = remedy_with(&mirror, &params, &remedy_obs::Scope::disabled());
    let response = client
        .call("{\"op\":\"remedy\",\"session\":\"r\",\"technique\":\"us\",\"seed\":5}")
        .unwrap();
    assert_eq!(response.u64_field("rows_before").unwrap(), 600);
    assert_eq!(
        response.u64_field("rows_after").unwrap() as usize,
        expected.dataset.len()
    );
    let updates = response.arr_field("updates").unwrap();
    assert_eq!(updates.len(), expected.updates.len());
    for (wire, update) in updates.iter().zip(&expected.updates) {
        assert_eq!(
            wire.str_field("pattern").unwrap(),
            update.pattern.display(mirror.schema()).to_string()
        );
        assert_eq!(wire.f64_field("ratio_before").unwrap(), update.ratio_before);
    }
    let still = client
        .call("{\"op\":\"identify\",\"session\":\"r\"}")
        .unwrap();
    let cold = identify(&mirror, &IbsParams::default(), Algorithm::Optimized);
    assert_eq!(still.str_field("text").unwrap(), regions_to_text(&cold));

    // with apply, the session is replaced and identify answers over the
    // remedied rows
    client
        .call(
            "{\"op\":\"remedy\",\"session\":\"r\",\"technique\":\"us\",\"seed\":5,\"apply\":true}",
        )
        .unwrap();
    let after = client
        .call("{\"op\":\"identify\",\"session\":\"r\"}")
        .unwrap();
    let cold = identify(
        &expected.dataset,
        &IbsParams::default(),
        Algorithm::Optimized,
    );
    assert_eq!(after.str_field("text").unwrap(), regions_to_text(&cold));

    // audit reports model metrics over the resident rows
    let audit = client
        .call("{\"op\":\"audit\",\"session\":\"r\",\"model\":\"dt\",\"stat\":\"fpr\"}")
        .unwrap();
    let accuracy = audit.f64_field("accuracy").unwrap();
    assert!((0.0..=1.0).contains(&accuracy), "accuracy {accuracy}");
    assert!(audit.u64_field("unfair_subgroups").is_ok());

    client.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn sessions_serve_concurrent_connections_independently() {
    let (addr, handle) = start_server();
    let mut a = Client::connect(&addr).unwrap();
    a.call("{\"op\":\"load\",\"session\":\"shared\",\"source\":\"law\",\"rows\":300,\"seed\":9}")
        .unwrap();
    let expected = {
        let cold = identify(
            &synth::law_school_n(300, 9),
            &IbsParams::default(),
            Algorithm::Optimized,
        );
        regions_to_text(&cold)
    };
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                for _ in 0..5 {
                    let response = client
                        .call("{\"op\":\"identify\",\"session\":\"shared\"}")
                        .unwrap();
                    assert_eq!(response.str_field("text").unwrap(), expected);
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }
    let stats = a.call("{\"op\":\"stats\"}").unwrap();
    assert_eq!(counter(&stats, "serve", "req.identify"), Some(20));
    a.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn pruned_identify_round_trips_byte_identically() {
    let (addr, handle) = start_server();
    let mut client = Client::connect(&addr).unwrap();

    // a session answers pruned requests identically to the dense ones —
    // and to a cold batch run
    client
        .call("{\"op\":\"load\",\"session\":\"c\",\"source\":\"compas\",\"rows\":500,\"seed\":5}")
        .unwrap();
    let mirror = synth::compas_n(500, 5);
    let dense = client
        .call("{\"op\":\"identify\",\"session\":\"c\",\"tau\":0.05,\"min_size\":10}")
        .unwrap();
    let pruned = client
        .call(
            "{\"op\":\"identify\",\"session\":\"c\",\"tau\":0.05,\"min_size\":10,\"pruned\":true}",
        )
        .unwrap();
    let params = IbsParams::builder()
        .tau_c(0.05)
        .min_size(10)
        .build()
        .unwrap();
    let cold = regions_to_text(&identify(&mirror, &params, Algorithm::Optimized));
    assert_eq!(dense.str_field("text").unwrap(), cold);
    assert_eq!(pruned.str_field("text").unwrap(), cold);

    // a session past the dense arity ceiling opens too: pruned requests
    // are served, dense ones are typed invalid-plan errors
    client
        .call(
            "{\"op\":\"load\",\"session\":\"w\",\"source\":\"wide\",\"rows\":2000,\
             \"arity\":20,\"seed\":7}",
        )
        .unwrap();
    let wide = synth::wide_n(2_000, 20, 7);
    let pruned_params = IbsParams::builder()
        .enumeration(remedy_core::Enumeration::Pruned)
        .build()
        .unwrap();
    let cold_wide = regions_to_text(
        &remedy_core::try_identify_over(
            &wide,
            &wide.schema().protected_indices(),
            &pruned_params,
            Algorithm::Optimized,
        )
        .unwrap(),
    );
    let live = client
        .call("{\"op\":\"identify\",\"session\":\"w\",\"pruned\":true}")
        .unwrap();
    assert_eq!(live.str_field("text").unwrap(), cold_wide);
    let err = client
        .call("{\"op\":\"identify\",\"session\":\"w\"}")
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidPlan);
    assert!(
        err.message()
            .contains("at most 16 protected attributes supported, got 20"),
        "{err}"
    );

    client.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}

/// `remedy` walks every lattice node, so on a session past the dense
/// arity ceiling it answers a typed `invalid-plan` error, applied or not,
/// and the session keeps its rows.
#[test]
fn remedy_past_the_dense_ceiling_is_a_typed_error() {
    let (addr, handle) = start_server();
    let mut client = Client::connect(&addr).unwrap();
    client
        .call(
            "{\"op\":\"load\",\"session\":\"w\",\"source\":\"wide\",\"rows\":2000,\
             \"arity\":20,\"seed\":7}",
        )
        .unwrap();
    for apply in [false, true] {
        let err = client
            .call(&format!(
                "{{\"op\":\"remedy\",\"session\":\"w\",\"apply\":{apply}}}"
            ))
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidPlan, "apply={apply}");
        assert!(
            err.message()
                .contains("at most 16 protected attributes supported, got 20"),
            "{err}"
        );
    }
    let live = client
        .call("{\"op\":\"identify\",\"session\":\"w\",\"pruned\":true}")
        .unwrap();
    assert_eq!(live.u64_field("rows").unwrap(), 2000);
    let stats = client.call("{\"op\":\"stats\"}").unwrap();
    assert_eq!(counter(&stats, "serve", "err.remedy.invalid-plan"), Some(2));

    client.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}

/// A client that streams past the request-line cap without a newline is
/// answered with one typed `invalid-plan` line and disconnected, while the
/// daemon keeps serving every other client.
#[test]
fn over_long_request_line_is_refused_and_others_keep_working() {
    let (addr, handle) = start_server();
    let mut client = Client::connect(&addr).unwrap();
    client
        .call("{\"op\":\"load\",\"session\":\"s\",\"source\":\"compas\",\"rows\":300}")
        .unwrap();

    let mut hostile = TcpStream::connect(&addr).unwrap();
    // one byte past the cap, and no newline ever
    let chunk = vec![b'x'; 1 << 16];
    let mut sent = 0;
    while sent <= MAX_REQUEST_LINE {
        let n = chunk.len().min(MAX_REQUEST_LINE + 1 - sent);
        if hostile.write_all(&chunk[..n]).is_err() {
            break;
        }
        sent += n;
    }
    let mut reader = BufReader::new(hostile);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response = remedy_pipeline::json::parse(line.trim()).unwrap();
    assert_eq!(
        response.field("ok").and_then(Value::as_bool),
        Some(false),
        "{line}"
    );
    assert_eq!(
        response.str_field("kind").unwrap(),
        "invalid-plan",
        "{line}"
    );
    assert!(
        response.str_field("error").unwrap().contains("exceeds"),
        "{line}"
    );
    // the daemon closed the connection after answering
    let mut rest = Vec::new();
    let _ = reader.read_to_end(&mut rest);
    assert!(rest.is_empty(), "connection stayed open");

    // the resident session and fresh connections are unaffected
    let identify = client
        .call("{\"op\":\"identify\",\"session\":\"s\"}")
        .unwrap();
    assert!(identify.str_field("text").is_ok());
    let mut other = Client::connect(&addr).unwrap();
    other
        .call("{\"op\":\"identify\",\"session\":\"s\"}")
        .unwrap();
    other.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}

/// Reads answered off the session lock still see one consistent epoch:
/// client threads interleave `ingest` and `identify` on one session, and
/// every identify's text equals a cold identify over the original rows
/// plus exactly the acknowledged batches up to the epoch it echoes.
#[test]
fn identify_under_concurrent_ingest_answers_at_its_echoed_epoch() {
    const ROWS: usize = 400;
    const CLIENTS: u64 = 3;
    const OPS: usize = 24;
    let (addr, handle) = start_server();
    let mut control = Client::connect(&addr).unwrap();
    control
        .call("{\"op\":\"load\",\"session\":\"c\",\"source\":\"compas\",\"rows\":400,\"seed\":13}")
        .unwrap();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|client_id| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC0C0 + client_id);
                let mut client = Client::connect(&addr).unwrap();
                let mut acks = Vec::new();
                let mut reads = Vec::new();
                for _ in 0..OPS {
                    if rng.gen_bool(0.5) {
                        // flips and duplicates of original rows stay valid
                        // however the clients' batches interleave
                        let edits: Vec<RowEdit> = (0..3)
                            .map(|_| {
                                let row = rng.gen_range(0..ROWS);
                                if rng.gen_bool(0.5) {
                                    RowEdit::FlipLabel { row }
                                } else {
                                    RowEdit::Duplicate { src: row }
                                }
                            })
                            .collect();
                        let json: Vec<String> = edits.iter().map(edit_json).collect();
                        let response = client
                            .call(&format!(
                                "{{\"op\":\"ingest\",\"session\":\"c\",\"edits\":[{}]}}",
                                json.join(",")
                            ))
                            .unwrap();
                        acks.push((response.u64_field("epoch").unwrap(), edits));
                    } else {
                        let response = client
                            .call("{\"op\":\"identify\",\"session\":\"c\"}")
                            .unwrap();
                        reads.push((
                            response.u64_field("epoch").unwrap(),
                            response.u64_field("rows").unwrap() as usize,
                            response.str_field("text").unwrap().to_string(),
                        ));
                    }
                }
                (acks, reads)
            })
        })
        .collect();
    let mut acks = Vec::new();
    let mut reads = Vec::new();
    for worker in workers {
        let (a, r) = worker.join().unwrap();
        acks.extend(a);
        reads.extend(r);
    }
    acks.sort_by_key(|(epoch, _)| *epoch);
    let epochs: Vec<u64> = acks.iter().map(|(epoch, _)| *epoch).collect();
    assert_eq!(epochs, (1..=acks.len() as u64).collect::<Vec<_>>());
    assert!(!reads.is_empty(), "the seeded mix issues identifies");

    // states[e] is the session after the batch acknowledged at epoch e
    let mut states = vec![synth::compas_n(ROWS, 13)];
    for (_, edits) in &acks {
        let mut next = states.last().unwrap().clone();
        for edit in edits {
            next.apply_edit(edit);
        }
        states.push(next);
    }
    let mut cold: Vec<Option<String>> = vec![None; states.len()];
    for (epoch, rows, text) in &reads {
        let state = &states[*epoch as usize];
        assert_eq!(*rows, state.len(), "rows at epoch {epoch}");
        let want = cold[*epoch as usize].get_or_insert_with(|| {
            regions_to_text(&identify(
                state,
                &IbsParams::default(),
                Algorithm::Optimized,
            ))
        });
        assert_eq!(
            text, want,
            "identify at epoch {epoch} diverges from its replay"
        );
    }
    control.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}

/// Every handler that takes a session lock records how long it waited
/// for it, and `stats` prints the histogram tails.
#[test]
fn stats_reports_lock_wait_per_op() {
    let (addr, handle) = start_server();
    let mut client = Client::connect(&addr).unwrap();
    client
        .call("{\"op\":\"load\",\"session\":\"w\",\"source\":\"compas\",\"rows\":300,\"seed\":2}")
        .unwrap();
    let response = client
        .call("{\"op\":\"identify\",\"session\":\"w\"}")
        .unwrap();
    assert_eq!(response.u64_field("epoch").unwrap(), 0);
    let stats = client.call("{\"op\":\"stats\"}").unwrap();
    let wait = histogram(&stats, "serve", "lock_wait_us.identify").expect("identify lock wait");
    assert_eq!(wait.u64_field("count").unwrap(), 1);
    for field in ["p50", "p90", "p99", "p999"] {
        assert!(wait.u64_field(field).is_ok(), "{field}");
    }
    assert!(histogram(&stats, "serve", "lock_wait_us.ingest").is_none());
    client.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}

/// `audit` trains and scores after releasing the session lock; its
/// response is byte-identical to one built in-process from the same
/// split, model and audit over the session's rows.
#[test]
fn audit_response_matches_an_in_process_audit_byte_for_byte() {
    let (addr, handle) = start_server();
    let mut client = Client::connect(&addr).unwrap();
    client
        .call("{\"op\":\"load\",\"session\":\"a\",\"source\":\"compas\",\"rows\":800,\"seed\":4}")
        .unwrap();
    let mut rows = synth::compas_n(800, 4);
    let edits = [
        RowEdit::FlipLabel { row: 3 },
        RowEdit::Duplicate { src: 10 },
        RowEdit::Remove { rows: vec![0, 7] },
    ];
    let json: Vec<String> = edits.iter().map(edit_json).collect();
    client
        .call(&format!(
            "{{\"op\":\"ingest\",\"session\":\"a\",\"edits\":[{}]}}",
            json.join(",")
        ))
        .unwrap();
    for edit in &edits {
        rows.apply_edit(edit);
    }
    let raw = client
        .request_line(
            "{\"op\":\"audit\",\"session\":\"a\",\"model\":\"dt\",\"stat\":\"fpr\",\"seed\":9}",
        )
        .unwrap();

    let (model_kind, stat, seed) = (ModelKind::DecisionTree, Statistic::Fpr, 9);
    let config = AuditConfig::default();
    let (train_set, test_set) = train_test_split(&rows, 0.7, seed).unwrap();
    let predictions = model_kind.fit(&train_set, seed).predict(&test_set);
    let score = audit_score(
        &test_set,
        &predictions,
        stat,
        config.tau_d,
        config.min_support,
    )
    .unwrap();
    let top: Vec<String> = score
        .unfair
        .iter()
        .take(20)
        .map(|r| {
            format!(
                "{{\"pattern\":{},\"divergence\":{},\"gamma\":{},\"support\":{}}}",
                json_str(&r.pattern.display(test_set.schema()).to_string()),
                json_f64(r.divergence),
                json_f64(r.gamma),
                json_f64(r.support)
            )
        })
        .collect();
    let want = format!(
        "{{\"ok\":true,\"op\":\"audit\",\"model\":{},\"stat\":{},\"accuracy\":{},\
         \"fairness_index\":{},\"unfair_subgroups\":{},\"top\":[{}]}}",
        json_str(&model_kind.to_string()),
        json_str(&stat.to_string()),
        json_f64(score.accuracy),
        json_f64(score.fairness_index),
        score.unfair.len(),
        top.join(",")
    );
    assert_eq!(raw.trim_end(), want);
    client.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}
