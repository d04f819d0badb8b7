//! Integration tests for the observability layer end to end: a traced
//! pipeline run streams well-formed JSONL span/counter/histogram events,
//! the manifest carries per-stage counters, and recording changes nothing
//! about the computed artifacts.

use remedy_obs::Recorder;
use remedy_pipeline::{run, run_with, PipelineOptions, Plan};
use std::path::PathBuf;

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
    let cache = fresh_cache("trace");
    let trace_path = std::env::temp_dir().join("remedy_pipeline_obs_trace.jsonl");
    let _ = std::fs::remove_file(&trace_path);
    let plan = Plan::parse(PLAN).unwrap();
    let mut options = opts(&cache);
    options.trace = Some(trace_path.clone());
    let manifest = run(&plan, &options).unwrap();

    let text = std::fs::read_to_string(&trace_path).unwrap();
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
    // so is the engine's own codec work between the stages
    for name in ["decode", "split", "split_encode"] {
        let span = lines
            .iter()
            .find(|l| {
                l.contains("\"scope\":\"engine\"") && l.contains(&format!("\"name\":\"{name}\""))
            })
            .unwrap_or_else(|| panic!("no engine span {name}"));
        assert_eq!(field_u64(span, "parent"), run_id, "{name} not under run");
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
