//! Integration tests for the observability layer end to end: a traced
//! pipeline run streams well-formed JSONL span/counter/histogram events,
//! the manifest carries per-stage counters, and recording changes nothing
//! about the computed artifacts.

use remedy_dataset::{persist, store, synth, Format};
use remedy_obs::Recorder;
use remedy_pipeline::{run, run_with, PipelineOptions, Plan, RunManifest};
use std::path::{Path, PathBuf};

const PLAN: &str = "\
dataset compas
rows 1000
seed 9
split 0.7
tau 0.1
min-size 30
branch base technique=none model=dt
branch ps technique=ps model=dt
";

fn fresh_cache(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("remedy_pipeline_obs_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(cache: &std::path::Path) -> PipelineOptions {
    PipelineOptions {
        cache_dir: cache.to_path_buf(),
        threads: 2,
        ..PipelineOptions::default()
    }
}

/// Extracts an unsigned integer field from a JSONL event line.
fn field_u64(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    line[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

/// The first span the engine recorded under `name`, if any.
fn engine_span<'a>(lines: &[&'a str], name: &str) -> Option<&'a str> {
    lines.iter().copied().find(|l| {
        l.contains("\"t\":\"span\"")
            && l.contains("\"scope\":\"engine\"")
            && l.contains(&format!("\"name\":\"{name}\""))
    })
}

/// Runs `plan` with a JSONL trace; returns the manifest and the trace.
fn traced_run(plan: &Plan, cache: &Path, name: &str) -> (RunManifest, String) {
    let trace_path = std::env::temp_dir().join(format!("remedy_pipeline_obs_{name}.jsonl"));
    let _ = std::fs::remove_file(&trace_path);
    let mut options = opts(cache);
    options.trace = Some(trace_path.clone());
    let manifest = run(plan, &options).unwrap();
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let _ = std::fs::remove_file(&trace_path);
    (manifest, trace)
}

fn counter(record: &remedy_pipeline::StageRecord, name: &str) -> Option<u64> {
    record
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
}

/// The acceptance path: `trace` set on a cold run emits a JSONL trace
/// whose lines are all JSON objects, with the expected span tree and
/// per-scope counter summaries, and the manifest's stage records carry
/// the counters recorded under their scopes.
#[test]
fn traced_run_emits_jsonl_and_manifest_counters() {
    let plan = Plan::parse(PLAN).unwrap();
    let (manifest, text) = traced_run(&plan, &fresh_cache("trace"), "trace");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 10, "trace too short: {} lines", lines.len());
    for line in &lines {
        assert!(
            line.starts_with("{\"t\":\"") && line.ends_with('}'),
            "not a JSONL event: {line}"
        );
        assert_eq!(
            line.matches('{').count(),
            line.matches('}').count(),
            "unbalanced braces: {line}"
        );
    }
    assert!(lines[0].contains("\"t\":\"trace\""), "missing header");

    // the span tree: one root `pipeline/run` span, stage spans under it
    let root = lines
        .iter()
        .find(|l| l.contains("\"t\":\"span\"") && l.contains("\"scope\":\"pipeline\""))
        .expect("no pipeline run span");
    assert!(root.contains("\"parent\":null"));
    let run_id = field_u64(root, "id");
    for scope in ["load", "discretize", "identify", "ps/remedy"] {
        let span = lines
            .iter()
            .find(|l| l.contains("\"t\":\"span\"") && l.contains(&format!("\"scope\":\"{scope}\"")))
            .unwrap_or_else(|| panic!("no span for scope {scope}"));
        assert_eq!(field_u64(span, "parent"), run_id, "span not under run");
    }
    // so is the engine's own work between the stages; the load stage
    // handed on the dataset it generated, so nothing was parsed, and the
    // training split is identified by derivation, so nothing re-encoded it
    let span = engine_span(&lines, "split").expect("no engine span split");
    assert_eq!(field_u64(span, "parent"), run_id, "split not under run");
    for name in ["decode", "split_encode"] {
        assert_eq!(
            engine_span(&lines, name),
            None,
            "cold built-in run ran {name}"
        );
    }

    // counter summaries: the shared cache and the identify scan
    let cache_counters = lines
        .iter()
        .find(|l| l.contains("\"t\":\"counters\"") && l.contains("\"scope\":\"cache\""))
        .expect("no cache counters event");
    assert!(cache_counters.contains("\"misses\":"));
    let identify_counters = lines
        .iter()
        .find(|l| l.contains("\"t\":\"counters\"") && l.contains("\"scope\":\"identify\""))
        .expect("no identify counters event");
    assert!(identify_counters.contains("\"regions_scanned\":"));
    assert!(lines.iter().any(|l| l.contains("\"t\":\"hist\"")));

    // manifest records carry the same counters, keyed per stage scope
    let identify = manifest.stage("identify", None).unwrap();
    assert_eq!(counter(identify, "cache_misses"), Some(1));
    assert!(counter(identify, "regions_scanned").unwrap() > 0);
    assert!(counter(identify, "neighbor_lookups").unwrap() > 0);
    let remedy = manifest.stage("remedy", Some("ps")).unwrap();
    assert_eq!(counter(remedy, "cache_misses"), Some(1));
    // and they serialize into run.json
    let json = manifest.to_json();
    assert!(json.contains("\"regions_scanned\""));
    assert!(json.contains("\"cache_misses\": 1"));
}

/// Recording must be an observer, never a participant: a traced run and
/// an untraced run of the same plan produce identical artifacts and
/// outcomes, and untraced records carry no counters.
#[test]
fn recording_does_not_change_results() {
    let plan = Plan::parse(PLAN).unwrap();
    let cache_plain = fresh_cache("plain");
    let plain = run(&plan, &opts(&cache_plain)).unwrap();

    let cache_traced = fresh_cache("traced");
    let recorder = Recorder::enabled();
    let traced = run_with(&plan, &opts(&cache_traced), &recorder).unwrap();

    assert_eq!(plain.branches, traced.branches);
    assert_eq!(plain.stages.len(), traced.stages.len());
    for (a, b) in plain.stages.iter().zip(&traced.stages) {
        assert_eq!(a.artifact_hash, b.artifact_hash, "stage {}", a.stage);
        assert!(a.counters.is_empty(), "untraced stage has counters: {a:?}");
    }

    // the in-memory recorder aggregated the full run, per scope
    let snap = recorder.snapshot();
    assert!(snap.counter("cache", "misses").unwrap() > 0);
    assert!(snap.counter("identify", "regions_scanned").unwrap() > 0);
    assert_eq!(snap.counter("load", "cache_misses"), Some(1));
    assert_eq!(snap.counter("ps/remedy", "cache_misses"), Some(1));
    // branch-qualified scopes keep concurrent branches separate: the
    // technique=none branch trains too, under its own label
    assert_eq!(snap.counter("base/train", "cache_misses"), Some(1));
    assert_eq!(snap.counter("ps/train", "cache_misses"), Some(1));
}

/// Warm re-runs hit the cache and the hits are visible both in the cache
/// scope and in each stage's own counters.
#[test]
fn warm_rerun_counts_hits() {
    let plan = Plan::parse(PLAN).unwrap();
    let cache = fresh_cache("warm");
    run(&plan, &opts(&cache)).unwrap();

    let recorder = Recorder::enabled();
    let manifest = run_with(&plan, &opts(&cache), &recorder).unwrap();
    for stage in &manifest.stages {
        if !stage.skipped {
            assert!(stage.cache_hit);
        }
    }
    let snap = recorder.snapshot();
    assert!(snap.counter("cache", "hits").unwrap() >= 8);
    assert_eq!(snap.counter("cache", "misses"), None);
    assert_eq!(snap.counter("identify", "cache_hits"), Some(1));
    // a cache hit skips the scan entirely, so no scan counters exist
    assert_eq!(snap.counter("identify", "regions_scanned"), None);
}

/// A warm built-in run replays every stage from the cache, so it never
/// needs rows: the engine neither parses the discretized artifact nor
/// splits it. Once a branch stage misses, the split is made, parsing
/// the artifact first since no stage handed on the dataset, under
/// `engine/decode` and `engine/split` spans of the run.
#[test]
fn warm_builtin_run_neither_decodes_nor_splits() {
    let plan = Plan::parse(PLAN).unwrap();
    let cache = fresh_cache("warm_decode");
    run(&plan, &opts(&cache)).unwrap();
    let (manifest, trace) = traced_run(&plan, &cache, "warm_decode");
    assert!(manifest.stages.iter().all(|s| s.cache_hit || s.skipped));
    let lines: Vec<&str> = trace.lines().collect();
    for name in ["decode", "split"] {
        assert_eq!(engine_span(&lines, name), None, "warm run ran {name}");
    }

    // a new branch misses its remedy, train and audit stages
    let extended = Plan::parse(&format!("{PLAN}branch dp technique=dp model=dt\n")).unwrap();
    let (manifest, trace) = traced_run(&extended, &cache, "warm_decode");
    assert!(!manifest.stage("remedy", Some("dp")).unwrap().cache_hit);
    assert!(manifest.stage("identify", None).unwrap().cache_hit);
    let lines: Vec<&str> = trace.lines().collect();
    let root = lines
        .iter()
        .find(|l| l.contains("\"t\":\"span\"") && l.contains("\"scope\":\"pipeline\""))
        .expect("no pipeline run span");
    for name in ["decode", "split"] {
        let span = engine_span(&lines, name).unwrap_or_else(|| panic!("no engine span {name}"));
        assert_eq!(field_u64(span, "parent"), field_u64(root, "id"));
    }
}

/// A binary source and the same data as a text file run to the same
/// stage keys, artifact hashes and branch metrics. The binary run hands
/// the dataset it decoded on to the engine, cold and warm, so it never
/// parses the discretized artifact; the text run does.
#[test]
fn binary_source_carries_its_decoded_dataset() {
    let dir = fresh_cache("carry_src");
    std::fs::create_dir_all(&dir).unwrap();
    let data = synth::adult_n(1_500, 4);
    let (text_src, bin_src) = (dir.join("adult.remedy"), dir.join("adult.bin"));
    persist::save_dataset(&data, &text_src).unwrap();
    store::save(&data, &bin_src, Format::Binary).unwrap();
    let schema = data.schema();
    let protected: Vec<&str> = schema
        .protected_indices()
        .into_iter()
        .map(|a| schema.attribute(a).name())
        .collect();
    let plan_for = |src: &Path| {
        Plan::parse(&format!(
            "dataset {}\nseed 4\ntau 0.1\nmin-size 30\nlabel {}\nprotected {}\n\
             branch base technique=none model=dt\n\
             branch ps technique=ps model=dt\n\
             branch us technique=us model=rf\n",
            src.display(),
            schema.label_name(),
            protected.join(",")
        ))
        .unwrap()
    };

    let (text_run, text_trace) = traced_run(&plan_for(&text_src), &fresh_cache("carry_text"), "t");
    let bin_cache = fresh_cache("carry_bin");
    let (bin_run, bin_trace) = traced_run(&plan_for(&bin_src), &bin_cache, "b");
    assert_eq!(text_run.branches, bin_run.branches);
    assert_eq!(text_run.stages.len(), bin_run.stages.len());
    for (t, b) in text_run.stages.iter().zip(&bin_run.stages) {
        assert!(!b.cache_hit, "cold binary run hit: {b:?}");
        assert_eq!((t.stage, &t.branch), (b.stage, &b.branch));
        assert_eq!(t.key, b.key, "stage {} key", t.stage);
        assert_eq!(
            t.artifact_hash, b.artifact_hash,
            "stage {} artifact",
            t.stage
        );
    }
    // the technique=none branch trains on the split, identified by
    // derivation from the discretized artifact: equal for both sources
    let split_input = |m: &RunManifest| {
        let train = m.stage("train", Some("base")).unwrap();
        let split = m.stage("remedy", Some("base")).unwrap();
        assert!(split.skipped);
        (train.key.clone(), split.artifact_hash.clone())
    };
    assert_eq!(split_input(&text_run), split_input(&bin_run));
    let text_lines: Vec<&str> = text_trace.lines().collect();
    assert!(
        engine_span(&text_lines, "decode").is_some(),
        "text run did not parse"
    );
    let bin_lines: Vec<&str> = bin_trace.lines().collect();
    assert!(engine_span(&bin_lines, "split").is_some());
    assert_eq!(
        engine_span(&bin_lines, "decode"),
        None,
        "cold binary run parsed"
    );

    let (warm, warm_trace) = traced_run(&plan_for(&bin_src), &bin_cache, "w");
    assert!(warm.stages.iter().all(|s| s.cache_hit || s.skipped));
    assert_eq!(warm.branches, bin_run.branches);
    let warm_lines: Vec<&str> = warm_trace.lines().collect();
    assert_eq!(
        engine_span(&warm_lines, "decode"),
        None,
        "warm binary run parsed"
    );
}

/// A trace sink the test can read back while the recorder holds it.
#[derive(Clone, Default)]
struct SharedTrace(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedTrace {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Workers claim remedy branches before technique=none ones, each group
/// in plan order: on one thread both remedies start before the
/// unremedied branch trains. The manifest still lists branches and
/// stages in plan order.
#[test]
fn remedy_branches_are_claimed_before_technique_none() {
    let plan = Plan::parse(
        "dataset compas\nrows 1000\nseed 9\nsplit 0.7\ntau 0.1\nmin-size 30\n\
         branch base technique=none model=dt\n\
         branch ps technique=ps model=dt\n\
         branch us technique=us model=dt\n",
    )
    .unwrap();
    let mut options = opts(&fresh_cache("claim_order"));
    options.threads = 1;
    let trace = SharedTrace::default();
    let recorder = Recorder::with_sink(Box::new(trace.clone()));
    let manifest = run_with(&plan, &options, &recorder).unwrap();
    recorder.finish();
    let text = String::from_utf8(trace.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let start = |scope: &str, name: &str| {
        let span = lines
            .iter()
            .find(|l| {
                l.contains("\"t\":\"span\"")
                    && l.contains(&format!("\"scope\":\"{scope}\""))
                    && l.contains(&format!("\"name\":\"{name}\""))
            })
            .unwrap_or_else(|| panic!("no span {scope}/{name}"));
        field_u64(span, "start_us")
    };
    let ps = start("ps/remedy", "remedy");
    let us = start("us/remedy", "remedy");
    let base = start("base/train", "train");
    assert!(
        ps < us,
        "ps/remedy started at {ps} us, us/remedy at {us} us"
    );
    assert!(
        us < base,
        "us/remedy started at {us} us, base/train at {base} us"
    );

    let names: Vec<&str> = manifest.branches.iter().map(|b| b.name.as_str()).collect();
    assert_eq!(names, ["base", "ps", "us"]);
    let stages: Vec<(&str, Option<&str>)> = manifest
        .stages
        .iter()
        .map(|s| (s.stage, s.branch.as_deref()))
        .collect();
    let mut want = vec![("load", None), ("discretize", None), ("identify", None)];
    for branch in names {
        for stage in ["remedy", "train", "audit"] {
            want.push((stage, Some(branch)));
        }
    }
    assert_eq!(stages, want);
    let idle = recorder
        .snapshot()
        .histogram("engine", "fanout_idle_us")
        .expect("no fanout_idle_us histogram");
    assert_eq!((idle.count, idle.max), (1, 0), "one worker never idles");
}

/// The fan-out records one `fanout_idle_us` sample per worker: how long
/// the fan-out went on after the worker found no branch left. The
/// worker that finished last idled for none of it.
#[test]
fn fanout_idle_is_one_sample_per_worker() {
    let plan = Plan::parse(PLAN).unwrap();
    let recorder = Recorder::enabled();
    run_with(&plan, &opts(&fresh_cache("fanout_idle")), &recorder).unwrap();
    let idle = recorder
        .snapshot()
        .histogram("engine", "fanout_idle_us")
        .expect("no fanout_idle_us histogram");
    assert_eq!(idle.count, 2, "two workers, two samples: {idle:?}");
    assert_eq!(
        idle.min, 0,
        "the last worker to finish idles for none of it"
    );
}
