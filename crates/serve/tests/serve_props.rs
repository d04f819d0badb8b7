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
use remedy_core::persist::regions_to_text;
use remedy_core::{identify, remedy_with, Algorithm, IbsParams, Neighborhood, RemedyParams};
use remedy_core::{Scope as IbsScope, Technique};
use remedy_dataset::{synth, RowEdit};
use remedy_pipeline::json::Value;
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

    // the artifact-backed session (built from persisted packed keys)
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
        keys: false,
    })
    .unwrap()
    .data;
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
