//! Result lines, run records, `BENCHMARK.json`, and `compare` verdicts.
//!
//! A run prints one result line (the last line of its standard output):
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! With `--append FILE` it also appends a *run record* — the same fields
//! plus the workload, seed and per-kind sample counts — so `compare` and
//! `calibrate` can group many runs by workload and metric.

use crate::{stats, Metric, Outcome};
use remedy_pipeline::json::{self, json_f64, json_str, Value};

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_f64(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The line the benchmark contract asks for.
pub fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics_json(metrics)
    )
}

/// One run, as `--append` stores it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Timed-phase operations per kind.
    pub samples: Vec<(String, u64)>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunRecord {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }
}

pub fn record_line(workload: &str, seed: u64, outcome: &Outcome, metrics: &[Metric]) -> String {
    let samples: Vec<String> = outcome
        .timed
        .kinds
        .iter()
        .map(|(kind, v)| format!("{}:{}", json_str(kind), v.len()))
        .collect();
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"correct\":{},\"attempted\":{},\"failed\":{},\
         \"samples\":{{{}}},\"metrics\":{}}}",
        json_str(workload),
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        samples.join(","),
        metrics_json(metrics)
    )
}

fn fields(value: &Value) -> &[(String, Value)] {
    match value {
        Value::Obj(fields) => fields,
        _ => &[],
    }
}

/// Parses a file of run records, one JSON object per line.
pub fn parse_records(text: &str) -> Result<Vec<RunRecord>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let bad = |e: String| format!("record {}: {e}", i + 1);
            let v = json::parse(line).map_err(|e| bad(e.to_string()))?;
            let metrics = fields(v.field("metrics").ok_or_else(|| bad("no metrics".into()))?)
                .iter()
                .map(|(name, m)| {
                    Ok((
                        name.clone(),
                        m.f64_field("value").map_err(|e| bad(e.to_string()))?,
                        m.str_field("unit")
                            .map_err(|e| bad(e.to_string()))?
                            .to_string(),
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let samples = v
                .field("samples")
                .map(fields)
                .unwrap_or(&[])
                .iter()
                .map(|(kind, n)| (kind.clone(), n.as_u64().unwrap_or(0)))
                .collect();
            Ok(RunRecord {
                workload: v
                    .str_field("workload")
                    .map_err(|e| bad(e.to_string()))?
                    .to_string(),
                seed: v.u64_field("seed").map_err(|e| bad(e.to_string()))?,
                correct: v.bool_field("correct").map_err(|e| bad(e.to_string()))?,
                attempted: v.u64_field("attempted").map_err(|e| bad(e.to_string()))?,
                failed: v.u64_field("failed").map_err(|e| bad(e.to_string()))?,
                samples,
                metrics,
            })
        })
        .collect()
}

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the ledger reads.
#[derive(Debug, Clone)]
pub struct Benchmark {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Bounded>,
    /// `(name, unit, better)`.
    pub per_layer: Vec<(String, String, String)>,
    /// The parsed document, for rewriting bounds.
    pub doc: Value,
}

pub fn parse_benchmark(text: &str) -> Result<Benchmark, String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<&[Value], String> {
        doc.arr_field(key)
            .map_err(|e| format!("BENCHMARK.json: {e}"))
    };
    let text_of = |v: &Value, key: &str| -> Result<String, String> {
        v.str_field(key)
            .map(str::to_string)
            .map_err(|e| format!("BENCHMARK.json: {e}"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| text_of(w, "name"))
        .collect::<Result<_, _>>()?;
    let end_to_end = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Bounded {
                name: text_of(m, "name")?,
                unit: text_of(m, "unit")?,
                lower_is_better: text_of(m, "better")? == "lower",
                bound: m.f64_field("bound").map_err(|e| e.to_string())?,
            })
        })
        .collect::<Result<_, String>>()?;
    let per_layer = list("per_layer")?
        .iter()
        .map(|m| {
            Ok((
                text_of(m, "name")?,
                text_of(m, "unit")?,
                text_of(m, "better")?,
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(Benchmark {
        run_seconds: doc.u64_field("run_seconds").map_err(|e| e.to_string())?,
        workloads,
        end_to_end,
        per_layer,
        doc,
    })
}

/// How one metric moved between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the base runs' own spread, in at least nine
    /// of ten paired runs.
    Better,
    /// Within the bound either way.
    Same,
    /// Worse by more than the bound: a regression.
    Worse,
    /// Too few runs, or a spread wider than the bound.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Runs each side needs before a verdict other than unresolved.
pub const MIN_RUNS: usize = 3;

/// Judges `new` against `base` (values of one metric on one workload).
/// `pairs` holds the two sides' values of runs that share a seed.
pub fn verdict(
    base: &[f64],
    new: &[f64],
    pairs: &[(f64, f64)],
    lower_is_better: bool,
    bound: f64,
) -> Verdict {
    if base.len() < MIN_RUNS || new.len() < MIN_RUNS {
        return Verdict::Unresolved;
    }
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let (mb, mn) = (stats::median(base), stats::median(new));
    // positive = worse
    let worse_by = sign * (mn - mb) / mb.abs();
    if worse_by > bound {
        return Verdict::Worse;
    }
    let better = |b: f64, n: f64| sign * (n - b) < 0.0;
    let all_better = new.iter().all(|&n| base.iter().all(|&b| better(b, n)));
    let spread = |v: &[f64]| stats::relative_spread(v).unwrap_or(f64::INFINITY);
    if spread(base).max(spread(new)) > bound && !all_better {
        return Verdict::Unresolved;
    }
    let [q1, _, q3] = stats::quartiles(base).expect("MIN_RUNS >= 2");
    let wins = pairs.iter().filter(|&&(b, n)| better(b, n)).count();
    let won_pairs = if pairs.is_empty() {
        all_better
    } else {
        wins * 10 >= pairs.len() * 9
    };
    if -worse_by * mb.abs() > q3 - q1 && won_pairs {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The `compare` table and whether it found a regression (a `worse`
/// verdict, or an incorrect run on the new side).
pub fn compare(bench: &Benchmark, base: &[RunRecord], new: &[RunRecord]) -> (String, bool) {
    let mut out = String::new();
    let mut regression = false;
    for bad in new.iter().filter(|r| !r.correct) {
        regression = true;
        out.push_str(&format!(
            "{} seed {}: {} of {} operations failed verification\n",
            bad.workload, bad.seed, bad.failed, bad.attempted
        ));
    }
    out.push_str(&format!(
        "{:<16} {:<18} {:>28} {:>28} {:>8}  verdict (bound)\n",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change"
    ));
    for workload in &bench.workloads {
        let side = |runs: &[RunRecord]| -> Vec<RunRecord> {
            runs.iter()
                .filter(|r| &r.workload == workload)
                .cloned()
                .collect()
        };
        let (b_runs, n_runs) = (side(base), side(new));
        if b_runs.is_empty() && n_runs.is_empty() {
            continue;
        }
        for m in &bench.end_to_end {
            let values = |runs: &[RunRecord]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.metric(&m.name)).collect()
            };
            let (b, n) = (values(&b_runs), values(&n_runs));
            let pairs: Vec<(f64, f64)> = b_runs
                .iter()
                .filter_map(|br| {
                    let nr = n_runs.iter().find(|nr| nr.seed == br.seed)?;
                    Some((br.metric(&m.name)?, nr.metric(&m.name)?))
                })
                .collect();
            let v = verdict(&b, &n, &pairs, m.lower_is_better, m.bound);
            regression |= v == Verdict::Worse;
            let summary = |v: &[f64]| match stats::quartiles(v) {
                Some([q1, q2, q3]) => format!("{q2:.4} [{q1:.4}, {q3:.4}]"),
                None => format!("{:.4} (n={})", stats::median(v), v.len()),
            };
            let change = (stats::median(&n) / stats::median(&b) - 1.0) * 100.0;
            out.push_str(&format!(
                "{:<16} {:<18} {:>28} {:>28} {:>7.1}%  {} ({})\n",
                workload,
                format!("{} ({})", m.name, m.unit),
                summary(&b),
                summary(&n),
                change,
                v.name(),
                m.bound
            ));
        }
    }
    (out, regression)
}

/// Timed-phase sample floors behind a calibrated bound: `(workload,
/// kind, minimum)`; an empty kind means every kind of the workload.
pub const SAMPLE_FLOORS: [(&str, &str, u64); 5] = [
    ("pipeline_adult", "", 15),
    ("lattice_sweep", "", 100),
    ("serve_mixed", "identify", 1000),
    ("serve_mixed", "ingest", 1000),
    ("serve_restart", "", 100),
];

/// Whether the runs of `workload` together meet its sample floors.
pub fn floors_met(workload: &str, runs: &[RunRecord]) -> bool {
    let total = |kind: &str| -> u64 {
        runs.iter()
            .flat_map(|r| &r.samples)
            .filter(|(k, _)| k == kind)
            .map(|(_, n)| n)
            .sum()
    };
    let kinds: Vec<&str> = runs
        .iter()
        .flat_map(|r| r.samples.iter().map(|(k, _)| k.as_str()))
        .collect();
    !runs.is_empty()
        && SAMPLE_FLOORS
            .iter()
            .filter(|(w, _, _)| *w == workload)
            .all(|&(_, kind, floor)| {
                if kind.is_empty() {
                    kinds.iter().all(|k| total(k) >= floor)
                } else {
                    total(kind) >= floor
                }
            })
}

/// A bound three times the widest spread seen across workloads, in
/// hundredths, within `[0.02, 0.25]`; `setup_s` always gets the largest.
pub fn suggested_bound(metric: &str, spreads: &[f64]) -> f64 {
    if metric == "setup_s" {
        return 0.25;
    }
    let widest = spreads.iter().copied().fold(0.0, f64::max);
    ((3.0 * widest * 100.0).ceil() / 100.0).clamp(0.02, 0.25)
}

/// Renders a JSON value with two-space indentation, objects one field
/// per line, and short scalar objects inline (as `BENCHMARK.json` is
/// laid out).
pub fn render(value: &Value, indent: usize) -> String {
    let pad = "  ".repeat(indent + 1);
    let close = "  ".repeat(indent);
    let scalar = |v: &Value| !matches!(v, Value::Obj(_) | Value::Arr(_));
    match value {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => n.clone(),
        Value::Str(s) => json_str(s),
        Value::Arr(items) => {
            let body: Vec<String> = items
                .iter()
                .map(|v| format!("{pad}{}", render(v, indent + 1)))
                .collect();
            format!("[\n{}\n{close}]", body.join(",\n"))
        }
        Value::Obj(fields) if fields.iter().all(|(_, v)| scalar(v)) && indent > 0 => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), render(v, 0)))
                .collect();
            format!("{{{}}}", body.join(", "))
        }
        Value::Obj(fields) => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{pad}{}: {}", json_str(k), render(v, indent + 1)))
                .collect();
            format!("{{\n{}\n{close}}}", body.join(",\n"))
        }
    }
}

/// `doc` with the `bound` of each named end-to-end metric replaced.
pub fn with_bounds(doc: &Value, bounds: &[(String, f64)]) -> Value {
    let Value::Obj(fields) = doc else {
        return doc.clone();
    };
    let fields = fields
        .iter()
        .map(|(key, v)| match (key.as_str(), v) {
            ("end_to_end", Value::Arr(items)) => {
                let items = items
                    .iter()
                    .map(|item| {
                        let name = item.field("name").and_then(Value::as_str);
                        let new = bounds.iter().find(|(n, _)| Some(n.as_str()) == name);
                        match (item, new) {
                            (Value::Obj(f), Some((_, bound))) => Value::Obj(
                                f.iter()
                                    .map(|(k, x)| match k.as_str() {
                                        "bound" => (k.clone(), Value::Num(json_f64(*bound))),
                                        _ => (k.clone(), x.clone()),
                                    })
                                    .collect(),
                            ),
                            _ => item.clone(),
                        }
                    })
                    .collect();
                (key.clone(), Value::Arr(items))
            }
            _ => (key.clone(), v.clone()),
        })
        .collect();
    Value::Obj(fields)
}
