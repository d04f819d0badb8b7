//! `ledger`: run, compare and calibrate the performance ledger.
//!
//! ```text
//! ledger bench --workload W --seed N --seconds S --trace 0|1
//!              [--work-dir DIR] [--out DIR] [--append FILE]
//! ledger run [--seed 42] [--seconds S] [--out DIR] [--benchmark BENCHMARK.json]
//! ledger compare BASE.jsonl NEW.jsonl [--benchmark BENCHMARK.json]
//! ledger calibrate [--runs 3] [--seconds S] [--benchmark BENCHMARK.json]
//!                  [--append FILE] [--write]
//! ```
//!
//! `bench` prints its metrics as the last line of standard output (see
//! `report::result_line`) and exits 0 once the run completed, whether or
//! not every operation verified; a set-up failure exits 1 without a
//! result line. `run` benches every workload, timed and then traced, each
//! in a child process, and exits 1 if any operation failed. `compare`
//! exits 1 on a regression. `ledger/run.sh` builds the workspace CLI and
//! this binary and then runs `bench`.

use remedy_ledger::report::{self, Benchmark, RunRecord};
use remedy_ledger::{run_workload, stats, Config, Metric, Sizes, WORKLOADS};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `--key value` options plus positional arguments.
struct Args {
    options: BTreeMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            options: BTreeMap::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) if flags.contains(&key) => args.flags.push(key.to_string()),
                Some(key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    args.options.insert(key.to_string(), value.clone());
                }
                None => args.positional.push(arg.clone()),
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or(format!("missing --{key}"))
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.first().map(String::as_str) {
        Some("bench") => bench(&raw[1..]),
        Some("run") => run_all(&raw[1..]),
        Some("compare") => compare(&raw[1..]),
        Some("calibrate") => calibrate(&raw[1..]),
        _ => Err("usage: ledger bench|run|compare|calibrate … (see ledger/BENCHMARK.md)".into()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &[])?;
    let workload = args.require("workload")?.to_string();
    let seed: u64 = args.parsed("seed", 42)?;
    let seconds: f64 = args.parsed("seconds", 10.0)?;
    let trace = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    // sharded pipeline runs spawn the `remedy` CLI built next to the ledger
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate ledger: {e}"))?;
    let cfg = Config {
        seed,
        seconds,
        trace,
        work_dir: PathBuf::from(args.get("work-dir").unwrap_or("target/ledger-work"))
            .join(&workload),
        out_dir: PathBuf::from(args.get("out").unwrap_or("target/ledger-out")),
        sizes: Sizes::full(),
        worker_exe: exe.with_file_name("remedy"),
        sharded_runs: true,
        corrupt_reference: false,
        workload,
    };
    let outcome = run_workload(&cfg)?;
    let metrics = if trace {
        outcome.per_layer()
    } else {
        outcome.e2e()
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!(
            "{} is not a finite number ({})",
            bad.name, bad.value
        ));
    }
    print_table(&cfg, &outcome.tally, &metrics);
    if let Some(path) = args.get("append") {
        let line = report::record_line(&cfg.workload, seed, &outcome, &metrics);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{line}").map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", report::result_line(&outcome, &metrics));
    Ok(ExitCode::SUCCESS)
}

/// A readable copy of the result on standard error.
fn print_table(cfg: &Config, tally: &remedy_ledger::Tally, metrics: &[Metric]) {
    eprintln!(
        "{} seed {} ({} s, trace {}): {} operations, {} failed",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        tally.attempted,
        tally.failed
    );
    for m in metrics {
        eprintln!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn read_benchmark(path: &str) -> Result<Benchmark, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    report::parse_benchmark(&text)
}

fn read_records(path: &str) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    report::parse_records(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &[])?;
    let [base, new] = args.positional.as_slice() else {
        return Err("usage: ledger compare BASE.jsonl NEW.jsonl [--benchmark FILE]".into());
    };
    let bench = read_benchmark(args.get("benchmark").unwrap_or("BENCHMARK.json"))?;
    let (table, regression) = report::compare(&bench, &read_records(base)?, &read_records(new)?);
    print!("{table}");
    Ok(if regression {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Runs every workload at least `--runs` times (seeds 1, 2, …) as child
/// `bench` processes, continuing until the sample floors are met, then
/// prints each metric's spread and the bound it suggests; `--write`
/// stores those bounds in the benchmark file.
fn calibrate(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &["write"])?;
    let bench_path = args
        .get("benchmark")
        .unwrap_or("BENCHMARK.json")
        .to_string();
    let bench = read_benchmark(&bench_path)?;
    let runs: u64 = args.parsed("runs", 3)?;
    let seconds: u64 = args.parsed("seconds", bench.run_seconds)?;
    let log = args
        .get("append")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/ledger-out/calibrate.jsonl"));
    if let Some(dir) = log.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let _ = std::fs::remove_file(&log);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut records: Vec<RunRecord> = Vec::new();
    for workload in WORKLOADS {
        let mut seed = 0;
        loop {
            let mine: Vec<RunRecord> = records
                .iter()
                .filter(|r| r.workload == workload)
                .cloned()
                .collect();
            if seed >= runs && report::floors_met(workload, &mine) || seed >= runs * 10 {
                break;
            }
            seed += 1;
            run_child(&exe, &args, workload, seed, seconds, false, &log)?;
            records = read_records(&log.display().to_string())?;
        }
    }
    let mut bounds = Vec::new();
    println!(
        "{:<16} {:<18} {:>8} {:>8}",
        "workload", "metric", "runs", "spread"
    );
    for m in &bench.end_to_end {
        let mut spreads = Vec::new();
        for workload in WORKLOADS {
            let values: Vec<f64> = records
                .iter()
                .filter(|r| r.workload == workload)
                .filter_map(|r| r.metric(&m.name))
                .collect();
            let spread = stats::relative_spread(&values).unwrap_or(f64::NAN);
            println!(
                "{workload:<16} {:<18} {:>8} {spread:>8.4}",
                m.name,
                values.len()
            );
            spreads.push(spread);
        }
        let bound = report::suggested_bound(&m.name, &spreads);
        println!("  {}: bound {} (now {})", m.name, bound, m.bound);
        bounds.push((m.name.clone(), bound));
    }
    for workload in WORKLOADS {
        let mine: Vec<RunRecord> = records
            .iter()
            .filter(|r| r.workload == workload)
            .cloned()
            .collect();
        if !report::floors_met(workload, &mine) {
            println!(
                "{workload}: sample floors not met after {} runs",
                mine.len()
            );
        }
    }
    if args.flag("write") {
        let doc = report::with_bounds(&bench.doc, &bounds);
        std::fs::write(&bench_path, report::render(&doc, 0) + "\n")
            .map_err(|e| format!("{bench_path}: {e}"))?;
        println!("bounds written to {bench_path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Benches every workload once with tracing off and once with it on, each
/// run a child `bench` process, and collects the run records in
/// `<out>/runs.jsonl` (traces go to `<out>` too).
fn run_all(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &[])?;
    let bench = read_benchmark(args.get("benchmark").unwrap_or("BENCHMARK.json"))?;
    let seed: u64 = args.parsed("seed", 42)?;
    let seconds: u64 = args.parsed("seconds", bench.run_seconds)?;
    let out = PathBuf::from(args.get("out").unwrap_or("target/ledger-out"));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let log = out.join("runs.jsonl");
    let _ = std::fs::remove_file(&log);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for workload in WORKLOADS {
        for trace in [false, true] {
            run_child(&exe, &args, workload, seed, seconds, trace, &log)?;
        }
    }
    let records = read_records(&log.display().to_string())?;
    let failed: u64 = records.iter().map(|r| r.failed).sum();
    println!(
        "run records: {}; failed operations: {failed}",
        log.display()
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_child(
    exe: &Path,
    args: &Args,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    log: &Path,
) -> Result<(), String> {
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "bench",
        "--workload",
        workload,
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args([
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .arg("--append")
    .arg(log)
    .stdout(std::process::Stdio::null());
    for key in ["work-dir", "out"] {
        if let Some(v) = args.get(key) {
            cmd.arg(format!("--{key}")).arg(v);
        }
    }
    let status = cmd
        .status()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    if !status.success() {
        return Err(format!("{workload} seed {seed} failed ({status})"));
    }
    Ok(())
}
