//! The run manifest: what executed, what was cached, what came out.
//!
//! Every pipeline run produces a [`RunManifest`] — one [`StageRecord`]
//! per executed (or cache-satisfied, or skipped) stage plus per-branch
//! outcome metrics. The manifest serializes to JSON by hand, in the same
//! no-dependency spirit as the `remedy-classifiers::persist` text formats.
//!
//! The manifest is also the pipeline's crash artifact: the engine
//! rewrites it atomically (temp file + rename) after the shared prefix
//! and after every branch, with `status: "running"`, so a killed run
//! always leaves a well-formed snapshot of how far it got. `remedy
//! pipeline --resume` parses that snapshot back with
//! [`RunManifest::from_json`] — a hand-rolled JSON reader that returns a
//! structured [`ErrorKind::CorruptArtifact`] error on malformed or
//! truncated input instead of panicking, because damaged manifests are
//! exactly what killed runs leave behind.

use crate::error::{ErrorKind, PipelineError};
use crate::json::{self, json_f64, json_str};
use remedy_fairness::{MetricsSummary, Statistic};

/// Where a run ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The run is still in flight (only ever seen in incremental
    /// snapshots — or in the manifest a killed run left behind).
    Running,
    /// Every branch completed.
    Ok,
    /// Some branches failed (panic or error) but at least one completed.
    Partial,
    /// Every branch failed.
    Failed,
}

impl RunStatus {
    /// The manifest JSON token.
    pub fn name(self) -> &'static str {
        match self {
            RunStatus::Running => "running",
            RunStatus::Ok => "ok",
            RunStatus::Partial => "partial",
            RunStatus::Failed => "failed",
        }
    }

    /// Parses a manifest JSON token back into a status.
    pub fn parse(token: &str) -> Option<RunStatus> {
        Some(match token {
            "running" => RunStatus::Running,
            "ok" => RunStatus::Ok,
            "partial" => RunStatus::Partial,
            "failed" => RunStatus::Failed,
            _ => return None,
        })
    }
}

impl std::fmt::Display for RunStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One stage execution in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Stage kind: `load`, `discretize`, `shard`, `count`, `identify`,
    /// `remedy`, `train`, or `audit`.
    pub stage: &'static str,
    /// Owning branch (`s0`, `s1`, … for shard/count stages), or `None`
    /// for the shared prefix.
    pub branch: Option<String>,
    /// The content-addressed cache key (32 hex digits).
    pub key: String,
    /// Stable hash of the produced artifact (32 hex digits).
    pub artifact_hash: String,
    /// Whether the artifact came from the cache.
    pub cache_hit: bool,
    /// Whether the stage was skipped entirely (`technique=none` remedy).
    pub skipped: bool,
    /// Wall-clock time spent in this stage, milliseconds.
    pub wall_ms: f64,
    /// Observability counters recorded under this stage's scope, sorted
    /// by name. Empty when the run's recorder was disabled.
    pub counters: Vec<(String, u64)>,
}

/// Outcome metrics of one branch.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchOutcome {
    /// Branch name from the plan.
    pub name: String,
    /// Technique label (`PS`, `US`, `DP`, `Massaging`) or `none`.
    pub technique: String,
    /// Model kind token (`dt`, `rf`, `lg`, `nn`, `nb`).
    pub model: String,
    /// The audit metrics.
    pub metrics: MetricsSummary,
}

/// A branch that did not produce an outcome: its error, classified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchFailure {
    /// Branch name from the plan.
    pub name: String,
    /// The failure classification (`stage-panic`, `transient`, …).
    pub kind: ErrorKind,
    /// The rendered error, including stage/branch attribution.
    pub error: String,
}

/// The full record of one pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Dataset source from the plan.
    pub dataset: String,
    /// Master seed.
    pub seed: u64,
    /// Worker threads used for branch fan-out (0 = all cores).
    pub threads: usize,
    /// Where the run ended up (or `Running` for in-flight snapshots).
    pub status: RunStatus,
    /// Total wall-clock time, milliseconds.
    pub total_ms: f64,
    /// Every stage, shared prefix first, then branch stages in branch
    /// order.
    pub stages: Vec<StageRecord>,
    /// Per-branch outcomes, in plan order.
    pub branches: Vec<BranchOutcome>,
    /// Branches that failed, in plan order; empty on an `Ok` run.
    pub failures: Vec<BranchFailure>,
}

impl RunManifest {
    /// Looks up a stage record by kind and owning branch.
    pub fn stage(&self, stage: &str, branch: Option<&str>) -> Option<&StageRecord> {
        self.stages
            .iter()
            .find(|s| s.stage == stage && s.branch.as_deref() == branch)
    }

    /// Looks up a branch outcome by name.
    pub fn branch(&self, name: &str) -> Option<&BranchOutcome> {
        self.branches.iter().find(|b| b.name == name)
    }

    /// Serializes the manifest as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"dataset\": {},\n", json_str(&self.dataset)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!(
            "  \"status\": {},\n",
            json_str(self.status.name())
        ));
        out.push_str(&format!("  \"total_ms\": {},\n", json_f64(self.total_ms)));
        out.push_str("  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"stage\": {}, ", json_str(s.stage)));
            match &s.branch {
                Some(b) => out.push_str(&format!("\"branch\": {}, ", json_str(b))),
                None => out.push_str("\"branch\": null, "),
            }
            out.push_str(&format!("\"key\": {}, ", json_str(&s.key)));
            out.push_str(&format!(
                "\"artifact_hash\": {}, ",
                json_str(&s.artifact_hash)
            ));
            out.push_str(&format!("\"cache_hit\": {}, ", s.cache_hit));
            out.push_str(&format!("\"skipped\": {}, ", s.skipped));
            out.push_str(&format!("\"wall_ms\": {}, ", json_f64(s.wall_ms)));
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(name, value)| format!("{}: {value}", json_str(name)))
                .collect();
            out.push_str(&format!("\"counters\": {{{}}}", counters.join(", ")));
            out.push('}');
            if i + 1 < self.stages.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n");
        out.push_str("  \"branches\": [\n");
        for (i, b) in self.branches.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"name\": {}, ", json_str(&b.name)));
            out.push_str(&format!("\"technique\": {}, ", json_str(&b.technique)));
            out.push_str(&format!("\"model\": {}, ", json_str(&b.model)));
            out.push_str(&format!(
                "\"stat\": {}, ",
                json_str(b.metrics.statistic.name())
            ));
            out.push_str(&format!("\"accuracy\": {}, ", json_f64(b.metrics.accuracy)));
            out.push_str(&format!(
                "\"fairness_index\": {}, ",
                json_f64(b.metrics.fairness_index)
            ));
            out.push_str(&format!(
                "\"unfair_subgroups\": {}, ",
                b.metrics.unfair_subgroups
            ));
            out.push_str(&format!("\"test_rows\": {}", b.metrics.test_rows));
            out.push('}');
            if i + 1 < self.branches.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n");
        out.push_str("  \"failures\": [\n");
        for (i, f) in self.failures.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"name\": {}, ", json_str(&f.name)));
            out.push_str(&format!("\"kind\": {}, ", json_str(f.kind.name())));
            out.push_str(&format!("\"error\": {}", json_str(&f.error)));
            out.push('}');
            if i + 1 < self.failures.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON manifest to disk atomically (temp file + rename),
    /// so a reader — or a kill — never observes a half-written manifest.
    pub fn write_path(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }

    /// Parses a manifest written by [`RunManifest::to_json`].
    ///
    /// Damaged input — truncated files, torn writes, hand-edits — yields
    /// an [`ErrorKind::CorruptArtifact`] error describing the first
    /// problem, never a panic.
    pub fn from_json(text: &str) -> Result<RunManifest, PipelineError> {
        let root = json::parse(text)?;
        let dataset = root.str_field("dataset")?.to_string();
        let seed = root.u64_field("seed")?;
        let threads = root.u64_field("threads")? as usize;
        let status = root.str_field("status").ok().map_or(
            // manifests predating the status field were complete runs
            Ok(RunStatus::Ok),
            |token| {
                RunStatus::parse(token)
                    .ok_or_else(|| corrupt(format!("unknown run status `{token}`")))
            },
        )?;
        let total_ms = root.f64_field("total_ms")?;

        let mut stages = Vec::new();
        for (i, s) in root.arr_field("stages")?.iter().enumerate() {
            let in_stage = |e: PipelineError| e.map_message(|m| format!("stages[{i}]: {m}"));
            let stage = intern_stage(s.str_field("stage").map_err(in_stage)?)
                .ok_or_else(|| corrupt(format!("stages[{i}]: unknown stage kind")))?;
            let branch = match s.field("branch") {
                Some(json::Value::Null) | None => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| corrupt(format!("stages[{i}]: branch is not a string")))?
                        .to_string(),
                ),
            };
            let mut counters: Vec<(String, u64)> = Vec::new();
            if let Some(json::Value::Obj(fields)) = s.field("counters") {
                for (name, v) in fields {
                    let value = v
                        .as_u64()
                        .ok_or_else(|| corrupt(format!("stages[{i}]: bad counter `{name}`")))?;
                    counters.push((name.clone(), value));
                }
            }
            stages.push(StageRecord {
                stage,
                branch,
                key: s.str_field("key").map_err(in_stage)?.to_string(),
                artifact_hash: s.str_field("artifact_hash").map_err(in_stage)?.to_string(),
                cache_hit: s.bool_field("cache_hit").map_err(in_stage)?,
                skipped: s.bool_field("skipped").map_err(in_stage)?,
                wall_ms: s.f64_field("wall_ms").map_err(in_stage)?,
                counters,
            });
        }

        let mut branches = Vec::new();
        for (i, b) in root.arr_field("branches")?.iter().enumerate() {
            let in_branch = |e: PipelineError| e.map_message(|m| format!("branches[{i}]: {m}"));
            let stat = b.str_field("stat").map_err(in_branch)?;
            let statistic = Statistic::from_name(stat)
                .ok_or_else(|| corrupt(format!("branches[{i}]: unknown statistic `{stat}`")))?;
            branches.push(BranchOutcome {
                name: b.str_field("name").map_err(in_branch)?.to_string(),
                technique: b.str_field("technique").map_err(in_branch)?.to_string(),
                model: b.str_field("model").map_err(in_branch)?.to_string(),
                metrics: MetricsSummary {
                    statistic,
                    accuracy: b.f64_field("accuracy").map_err(in_branch)?,
                    fairness_index: b.f64_field("fairness_index").map_err(in_branch)?,
                    unfair_subgroups: b.u64_field("unfair_subgroups").map_err(in_branch)?,
                    test_rows: b.u64_field("test_rows").map_err(in_branch)?,
                },
            });
        }

        let mut failures = Vec::new();
        if let Ok(list) = root.arr_field("failures") {
            for (i, f) in list.iter().enumerate() {
                let in_failure =
                    |e: PipelineError| e.map_message(|m| format!("failures[{i}]: {m}"));
                let token = f.str_field("kind").map_err(in_failure)?;
                let kind = ErrorKind::parse(token)
                    .ok_or_else(|| corrupt(format!("failures[{i}]: unknown kind `{token}`")))?;
                failures.push(BranchFailure {
                    name: f.str_field("name").map_err(in_failure)?.to_string(),
                    kind,
                    error: f.str_field("error").map_err(in_failure)?.to_string(),
                });
            }
        }

        Ok(RunManifest {
            dataset,
            seed,
            threads,
            status,
            total_ms,
            stages,
            branches,
            failures,
        })
    }

    /// Reads and parses a manifest file.
    pub fn from_path(path: impl AsRef<std::path::Path>) -> Result<RunManifest, PipelineError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| {
            PipelineError::fatal(format!("cannot read manifest {}: {e}", path.display()))
        })?;
        RunManifest::from_json(&text)
            .map_err(|e| e.map_message(|m| format!("manifest {}: {m}", path.display())))
    }
}

/// Maps a parsed stage kind onto the static names [`StageRecord`] uses;
/// anything else means the manifest was not written by this pipeline.
/// `shard` (a partitioned dataset artifact) and `count` (a worker's
/// mergeable leaf-count artifact) only appear in sharded runs.
fn intern_stage(stage: &str) -> Option<&'static str> {
    [
        "load",
        "discretize",
        "shard",
        "count",
        "identify",
        "remedy",
        "train",
        "audit",
    ]
    .into_iter()
    .find(|known| *known == stage)
}

fn corrupt(msg: String) -> PipelineError {
    PipelineError::corrupt(msg)
}

// The JSON reader this parser was born with now lives in [`crate::json`],
// shared with the serve wire protocol.

#[cfg(test)]
mod tests {
    use super::*;
    use remedy_fairness::Statistic;

    fn sample() -> RunManifest {
        RunManifest {
            dataset: "compas".into(),
            seed: 42,
            threads: 2,
            status: RunStatus::Ok,
            total_ms: 12.5,
            stages: vec![
                StageRecord {
                    stage: "load",
                    branch: None,
                    key: "aa".into(),
                    artifact_hash: "bb".into(),
                    cache_hit: false,
                    skipped: false,
                    wall_ms: 1.0,
                    counters: vec![("rows_loaded".into(), 1000)],
                },
                StageRecord {
                    stage: "remedy",
                    branch: Some("ps".into()),
                    key: "cc".into(),
                    artifact_hash: "dd".into(),
                    cache_hit: true,
                    skipped: false,
                    wall_ms: 0.1,
                    counters: Vec::new(),
                },
            ],
            branches: vec![BranchOutcome {
                name: "ps".into(),
                technique: "PS".into(),
                model: "dt".into(),
                metrics: MetricsSummary {
                    statistic: Statistic::Fpr,
                    accuracy: 0.75,
                    fairness_index: 0.125,
                    unfair_subgroups: 3,
                    test_rows: 600,
                },
            }],
            failures: Vec::new(),
        }
    }

    #[test]
    fn lookups_find_records() {
        let m = sample();
        assert!(m.stage("load", None).is_some());
        assert!(m.stage("remedy", Some("ps")).unwrap().cache_hit);
        assert!(m.stage("remedy", None).is_none());
        assert_eq!(m.branch("ps").unwrap().metrics.unfair_subgroups, 3);
    }

    #[test]
    fn json_is_wellformed() {
        let json = sample().to_json();
        assert!(json.contains("\"dataset\": \"compas\""));
        assert!(json.contains("\"status\": \"ok\""));
        assert!(json.contains("\"cache_hit\": true"));
        assert!(json.contains("\"branch\": null"));
        assert!(json.contains("\"fairness_index\": 0.125"));
        assert!(json.contains("\"counters\": {\"rows_loaded\": 1000}"));
        assert!(json.contains("\"counters\": {}"));
        // crude structural check: balanced braces and brackets
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(0.5), "0.5");
    }

    #[test]
    fn json_round_trips_exactly() {
        let mut m = sample();
        m.status = RunStatus::Partial;
        m.failures.push(BranchFailure {
            name: "us".into(),
            kind: ErrorKind::StagePanic,
            error: "panicked: boom (stage train, branch us)".into(),
        });
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        // and the re-serialization is byte-identical
        assert_eq!(back.to_json(), m.to_json());
    }

    #[test]
    fn large_seed_survives_round_trip() {
        let mut m = sample();
        // not representable as f64: a float round-trip would corrupt it
        m.seed = u64::MAX - 1;
        assert_eq!(RunManifest::from_json(&m.to_json()).unwrap().seed, m.seed);
    }

    /// Regression: a damaged manifest — the exact artifact a killed run
    /// leaves behind — must come back as a structured error, not a panic.
    #[test]
    fn malformed_manifests_error_instead_of_panicking() {
        let full = sample().to_json();
        // truncate at every prefix length: none may panic, all must error
        for len in 0..full.len() - 1 {
            let err = RunManifest::from_json(&full[..len]).expect_err("truncated manifest parsed");
            assert_eq!(err.kind(), ErrorKind::CorruptArtifact, "at len {len}");
        }
        for bad in [
            "",
            "not json at all",
            "[1, 2, 3]",
            "{\"dataset\": 42}",
            "{\"dataset\": \"compas\", \"seed\": \"nine\"}",
            &format!("{full}trailing"),
            &full.replace("\"stage\": \"load\"", "\"stage\": \"warp\""),
            &full.replace("\"status\": \"ok\"", "\"status\": \"exploded\""),
        ] {
            let err = RunManifest::from_json(bad).expect_err("damaged manifest parsed");
            assert_eq!(err.kind(), ErrorKind::CorruptArtifact);
            assert!(
                !err.to_string().contains('\n'),
                "diagnostic must be one line"
            );
        }
    }

    #[test]
    fn manifests_without_a_status_field_read_as_ok() {
        let legacy = sample().to_json().replace("  \"status\": \"ok\",\n", "");
        let m = RunManifest::from_json(&legacy).unwrap();
        assert_eq!(m.status, RunStatus::Ok);
    }

    #[test]
    fn status_tokens_round_trip() {
        for status in [
            RunStatus::Running,
            RunStatus::Ok,
            RunStatus::Partial,
            RunStatus::Failed,
        ] {
            assert_eq!(RunStatus::parse(status.name()), Some(status));
        }
        assert_eq!(RunStatus::parse("nope"), None);
    }

    #[test]
    fn write_path_is_atomic_and_readable_back() {
        let dir = std::env::temp_dir().join("remedy_manifest_test_atomic");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.json");
        let m = sample();
        m.write_path(&path).unwrap();
        assert_eq!(RunManifest::from_path(&path).unwrap(), m);
        // no temp litter
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
    }
}
