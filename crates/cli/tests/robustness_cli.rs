//! End-to-end CLI robustness: bad inputs exit nonzero with a one-line
//! diagnostic (never a panic or a backtrace), and a corrupted cache
//! entry is quarantined and recomputed behind a successful exit.

use std::path::PathBuf;
use std::process::{Command, Output};

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("remedy_cli_robustness_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const PLAN: &str = "dataset compas\nrows 600\nseed 9\ntau 0.1\nmin-size 30\n\
     branch base technique=none model=dt\nbranch ps technique=ps model=dt\n";

fn remedy(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_remedy"))
        .args(args)
        .output()
        .unwrap()
}

/// Asserts a failed invocation: nonzero exit, exactly one diagnostic
/// line on stderr, and no trace of a panic.
fn assert_clean_failure(output: &Output) -> String {
    assert!(!output.status.success(), "expected a nonzero exit");
    let stderr = String::from_utf8(output.stderr.clone()).unwrap();
    assert!(!stderr.contains("panicked"), "panic leaked: {stderr}");
    assert!(!stderr.contains("RUST_BACKTRACE"), "backtrace: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "want one diagnostic line, got: {stderr}");
    assert!(lines[0].starts_with("error: "), "unexpected: {stderr}");
    stderr
}

#[test]
fn nonexistent_plan_is_a_one_line_error() {
    let dir = workdir("missing_plan");
    let out = remedy(&[
        "pipeline",
        dir.join("no-such-plan.txt").to_str().unwrap(),
        "--cache",
        dir.join("cache").to_str().unwrap(),
    ]);
    let stderr = assert_clean_failure(&out);
    assert!(
        stderr.contains("no-such-plan.txt"),
        "unnamed file: {stderr}"
    );
}

#[test]
fn malformed_plan_is_a_one_line_error() {
    let dir = workdir("bad_plan");
    let plan_path = dir.join("plan.txt");
    std::fs::write(&plan_path, "dataset compas\nrows not-a-number\n").unwrap();
    let out = remedy(&[
        "pipeline",
        plan_path.to_str().unwrap(),
        "--cache",
        dir.join("cache").to_str().unwrap(),
    ]);
    let stderr = assert_clean_failure(&out);
    assert!(stderr.contains("rows"), "which key went bad? {stderr}");
}

#[test]
fn corrupt_resume_manifest_is_a_one_line_error() {
    let dir = workdir("bad_resume");
    let plan_path = dir.join("plan.txt");
    std::fs::write(&plan_path, PLAN).unwrap();
    let manifest_path = dir.join("run.json");
    std::fs::write(&manifest_path, "{\"dataset\": \"compas\", trunca").unwrap();
    let out = remedy(&[
        "pipeline",
        plan_path.to_str().unwrap(),
        "--cache",
        dir.join("cache").to_str().unwrap(),
        "--resume",
        manifest_path.to_str().unwrap(),
    ]);
    let stderr = assert_clean_failure(&out);
    assert!(stderr.contains("manifest"), "unexpected: {stderr}");
    assert!(stderr.contains("run.json"), "unnamed file: {stderr}");
}

/// The recovery path is invisible to the caller: flip a byte in a
/// cached artifact, rerun, and the exit is still 0 — with the damaged
/// entry moved to quarantine and the stage recomputed.
#[test]
fn corrupt_cache_entry_recovers_behind_a_successful_exit() {
    let dir = workdir("bitflip");
    let plan_path = dir.join("plan.txt");
    std::fs::write(&plan_path, PLAN).unwrap();
    let cache = dir.join("cache");
    let base_args = [
        "pipeline",
        plan_path.to_str().unwrap(),
        "--cache",
        cache.to_str().unwrap(),
    ];
    assert!(remedy(&base_args).status.success());

    // flip one byte in the cached identify artifact
    let entry = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(Result::ok)
        .find(|e| e.file_name().to_string_lossy().starts_with("identify-"))
        .expect("no cached identify entry");
    let artifact = entry.path().join("artifact");
    let mut bytes = std::fs::read(&artifact).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&artifact, bytes).unwrap();

    let out = remedy(&base_args);
    assert!(out.status.success(), "recovery must not fail the run");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("computed  identify"),
        "identify should recompute: {stdout}"
    );
    let quarantine = cache.join("quarantine");
    assert!(quarantine.is_dir(), "no quarantine directory");
    assert_eq!(std::fs::read_dir(&quarantine).unwrap().count(), 1);
}

/// With the `failpoints` feature compiled in, `REMEDY_FAILPOINTS` drives
/// the binary from the environment: an injected remedy-stage panic is
/// contained to its branch, the sibling still reports its metrics, and
/// the exit code plus manifest record the partial run.
#[cfg(feature = "failpoints")]
#[test]
fn env_armed_panic_yields_partial_run_and_nonzero_exit() {
    let dir = workdir("failpoint_env");
    let plan_path = dir.join("plan.txt");
    std::fs::write(&plan_path, PLAN).unwrap();
    let manifest_path = dir.join("run.json");
    let out = Command::new(env!("CARGO_BIN_EXE_remedy"))
        .args([
            "pipeline",
            plan_path.to_str().unwrap(),
            "--cache",
            dir.join("cache").to_str().unwrap(),
            "--out",
            manifest_path.to_str().unwrap(),
        ])
        .env("REMEDY_FAILPOINTS", "stage.run.remedy=panic(1)")
        .output()
        .unwrap();
    assert!(!out.status.success(), "a partial run must exit nonzero");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("ps: FAILED [stage-panic]"),
        "missing failure report: {stdout}"
    );
    assert!(stdout.contains("base: none + dt"), "sibling lost: {stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.lines().last().unwrap_or("").contains("partial"),
        "unexpected diagnostic: {stderr}"
    );
    // the incrementally-flushed manifest survives the failed branch
    let manifest = std::fs::read_to_string(&manifest_path).unwrap();
    assert!(manifest.contains("\"status\": \"partial\""), "{manifest}");
    assert!(manifest.contains("\"stage-panic\""), "{manifest}");
}

/// `--retries`, `--retry-base-ms`, and `--resume` are accepted and a
/// finished run resumes into a successful pure replay.
#[test]
fn resume_flag_round_trips_through_the_cli() {
    let dir = workdir("resume");
    let plan_path = dir.join("plan.txt");
    std::fs::write(&plan_path, PLAN).unwrap();
    let manifest_path = dir.join("run.json");
    let cache = dir.join("cache");
    let args = [
        "pipeline",
        plan_path.to_str().unwrap(),
        "--cache",
        cache.to_str().unwrap(),
        "--out",
        manifest_path.to_str().unwrap(),
        "--retries",
        "2",
        "--retry-base-ms",
        "1",
    ];
    assert!(remedy(&args).status.success());
    let first = std::fs::read_to_string(&manifest_path).unwrap();
    assert!(first.contains("\"status\": \"ok\""), "{first}");

    let mut resume_args = args.to_vec();
    resume_args.extend(["--resume", manifest_path.to_str().unwrap()]);
    let out = remedy(&resume_args);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("cached  load"),
        "resume should replay from cache: {stdout}"
    );
}

#[test]
fn rows_option_sizes_builtin_datasets() {
    for name in ["adult", "compas", "law"] {
        let out = remedy(&["describe", name, "--rows", "500"]);
        assert!(out.status.success(), "{name}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.starts_with("500 rows,"), "{name}: {stdout}");
    }
    // the wide generator's arity range is checked by the one resolver
    let out = remedy(&["describe", "wide", "--arity", "40"]);
    let stderr = assert_clean_failure(&out);
    assert!(
        stderr.contains("arity must be in 1..=32, got 40"),
        "{stderr}"
    );
}

#[test]
fn wide_audits_answer_and_hypothesis_names_the_identify_error() {
    let wide = ["wide", "--arity", "20", "--rows", "2000"];
    for command in ["audit", "report"] {
        let out = remedy(&[&[command][..], &wide].concat());
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(out.status.success(), "{command} failed: {stderr}");
        assert!(!stderr.contains("panicked"), "{command} panicked: {stderr}");
    }
    let identify = assert_clean_failure(&remedy(&[&["identify"][..], &wide].concat()));
    let hypothesis = assert_clean_failure(&remedy(&[&["hypothesis"][..], &wide].concat()));
    assert_eq!(hypothesis, identify);
    assert!(
        identify.contains("at most 16 protected attributes"),
        "{identify}"
    );
}

#[test]
fn audits_answer_on_a_column_past_255_categories() {
    // `zip` has 300 categories; at a zero support floor every present zip
    // code is a subgroup the report must list (`audit` lists only
    // subgroups of at least 30 rows)
    let dir = workdir("wide_column");
    let csv = dir.join("zip.csv");
    let mut text = String::from("zip,g,edu,y\n");
    for i in 0..3_000u32 {
        let mix = i.wrapping_mul(2_654_435_761) >> 8;
        let g = if mix % 2 == 0 { "a" } else { "b" };
        let edu = ["hs", "ba", "ms"][(mix % 3) as usize];
        let y = u8::from(mix % 10 < 3 + 3 * u32::from(g == "a"));
        text.push_str(&format!("z{},{g},{edu},{y}\n", i % 300));
    }
    std::fs::write(&csv, text).unwrap();
    let csv = csv.to_str().unwrap();
    for command in ["audit", "report"] {
        let out = remedy(&[
            command,
            csv,
            "--label",
            "y",
            "--protected",
            "zip,g",
            "--min-support",
            "0.0",
            "--tau-d",
            "0.0",
        ]);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(out.status.success(), "{command} failed: {stderr}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(
            command == "audit" || stdout.contains("(zip = z"),
            "{stdout}"
        );
    }
}

#[test]
fn remedy_past_the_dense_ceiling_is_a_one_line_error() {
    let dir = workdir("wide_remedy");
    let out = dir.join("x.csv");
    let model = dir.join("model.txt");
    let wide = ["wide", "--arity", "20", "--rows", "2000"];
    for extra in [
        &["remedy", "--out", out.to_str().unwrap()][..],
        &["audit", "--remedied"],
        &["train", "--remedied", "--out", model.to_str().unwrap()],
    ] {
        let (command, rest) = extra.split_first().unwrap();
        let output = remedy(&[&[*command][..], &wide, rest].concat());
        assert_eq!(output.status.code(), Some(1), "{command}");
        let stderr = assert_clean_failure(&output);
        assert!(
            stderr.contains("at most 16 protected attributes supported, got 20"),
            "{command}: {stderr}"
        );
    }
    assert!(!out.exists() && !model.exists());
}
