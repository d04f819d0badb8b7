//! `lattice_sweep`: the `remedy identify` path at small and large `p`.
//!
//! Each operation is one job: `store::open` on a binary input, identify
//! with the optimized algorithm, and render the `remedy-ibs v1` text.
//! Three jobs run the default dense enumeration on `adult_n` over the
//! first 4, 6 and 8 scalability attributes; two run the support-pruned
//! enumeration on `wide_n` with 12 and 20 protected attributes, where a
//! dense lattice is out of reach. A lattice change therefore shows its
//! gains and its losses on both sides of the dense/pruned boundary.
//! Every output is checked against the naive algorithm's text.

use crate::trace::{self, Tracer};
use crate::{
    ms_since, peak_rss_mb, probe, reset_peak_rss, stats, Config, Outcome, Tally, Timed,
    LATTICE_JOBS,
};
use remedy_core::{
    identify_in_sparse_with, identify_in_with, persist, try_identify_over, try_identify_over_with,
    Algorithm, Enumeration, Hierarchy, IbsParams, SparseHierarchy,
};
use remedy_dataset::synth::{self, ADULT_SCALABILITY_PROTECTED};
use remedy_dataset::{store, Dataset, Format};
use remedy_obs::Scope as ObsScope;
use std::path::PathBuf;
use std::time::Instant;

struct Job {
    name: &'static str,
    path: PathBuf,
    cols: Vec<usize>,
    params: IbsParams,
    /// The naive algorithm's `remedy-ibs v1` text for this job.
    reference: String,
}

fn pruned() -> IbsParams {
    let mut params = IbsParams::default();
    params.enumeration = Enumeration::Pruned;
    params
}

fn prepare(cfg: &Config) -> Result<Vec<Job>, String> {
    let save = |data: &Dataset, file: &str| -> Result<PathBuf, String> {
        let path = cfg.work_dir.join(file);
        store::save(data, &path, Format::Binary).map_err(|e| e.to_string())?;
        Ok(path)
    };
    let adult = synth::adult_n(cfg.sizes.lattice_adult_rows, cfg.seed);
    let adult_path = save(&adult, "adult.bin")?;
    let mut inputs: Vec<(&'static str, &Dataset, PathBuf, Vec<usize>, IbsParams)> = Vec::new();
    for (name, p) in [("adult_p4", 4), ("adult_p6", 6), ("adult_p8", 8)] {
        let cols = ADULT_SCALABILITY_PROTECTED[..p]
            .iter()
            .map(|attr| adult.schema().require(attr).map_err(|e| e.to_string()))
            .collect::<Result<Vec<usize>, String>>()?;
        inputs.push((name, &adult, adult_path.clone(), cols, IbsParams::default()));
    }
    let wide12 = synth::wide_n(cfg.sizes.lattice_wide_rows, 12, cfg.seed);
    let wide20 = synth::wide_n(cfg.sizes.lattice_wide_rows, 20, cfg.seed);
    for (name, data, file) in [
        ("wide_p12", &wide12, "wide12.bin"),
        ("wide_p20", &wide20, "wide20.bin"),
    ] {
        let path = save(data, file)?;
        inputs.push((
            name,
            data,
            path,
            data.schema().protected_indices(),
            pruned(),
        ));
    }
    inputs
        .into_iter()
        .map(|(name, data, path, cols, params)| {
            let regions = try_identify_over(data, &cols, &params, Algorithm::Naive)
                .map_err(|e| format!("{name}: {e}"))?;
            let mut reference = persist::regions_to_text(&regions);
            if cfg.corrupt_reference {
                reference.push('!');
            }
            Ok(Job {
                name,
                path,
                cols,
                params,
                reference,
            })
        })
        .collect()
}

/// One untraced job, exactly as `remedy identify` runs it.
fn run_job(job: &Job) -> Result<String, String> {
    let data = store::open(&job.path).map_err(|e| e.to_string())?;
    let regions = try_identify_over_with(
        &data,
        &job.cols,
        &job.params,
        Algorithm::Optimized,
        &ObsScope::disabled(),
    )
    .map_err(|e| e.to_string())?;
    Ok(persist::regions_to_text(&regions))
}

fn verify(job: &Job, text: Result<String, String>) -> Result<(), String> {
    let text = text.map_err(|e| format!("{}: {e}", job.name))?;
    if text != job.reference {
        return Err(format!(
            "{}: output differs from the naive reference",
            job.name
        ));
    }
    Ok(())
}

pub fn run_sweep(cfg: &Config) -> Result<Outcome, String> {
    let jobs = prepare(cfg)?;
    let mut timed = Timed {
        principal: LATTICE_JOBS.iter().map(|j| j.to_string()).collect(),
        ..Timed::default()
    };
    // set-up: one untimed pass, which also warms the page cache
    for _ in 0..cfg.sizes.setups {
        let t = Instant::now();
        for job in &jobs {
            run_job(job)?;
        }
        timed.setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut tally = Tally::default();
    reset_peak_rss()?;
    let start = Instant::now();
    // at least one pass, however short the phase
    for (i, job) in jobs.iter().cycle().enumerate() {
        if i >= jobs.len() && start.elapsed() >= cfg.deadline() {
            break;
        }
        let t = Instant::now();
        let text = run_job(job);
        timed.push(job.name, ms_since(t));
        tally.check(verify(job, text));
    }
    timed.elapsed_s = start.elapsed().as_secs_f64();
    timed.peak_rss_mb = peak_rss_mb()?;

    let layers = if cfg.trace {
        traced(cfg, &jobs, &timed, &mut tally)?
    } else {
        Vec::new()
    };
    Ok(Outcome {
        tally,
        timed,
        layers,
    })
}

fn traced(
    cfg: &Config,
    jobs: &[Job],
    timed: &Timed,
    tally: &mut Tally,
) -> Result<Vec<(String, f64)>, String> {
    let tracer = Tracer::new();
    let passes = cfg.sizes.trace_lattice_passes.max(1);
    // per job: open, enumerate, score, render samples
    let mut layer_ms: Vec<[Vec<f64>; 4]> = jobs.iter().map(|_| Default::default()).collect();
    for _ in 0..passes {
        for (j, job) in jobs.iter().enumerate() {
            let root = tracer.recorder.scope("lattice_sweep").span(job.name);
            let [open, enumerate, score, render] = &mut layer_ms[j];
            let data = probe(&root, "dataset", "open", open, || store::open(&job.path))
                .map_err(|e| e.to_string())?;
            let regions = match job.params.enumeration {
                Enumeration::Dense => {
                    let hierarchy = probe(&root, "core", "enumerate", enumerate, || {
                        Hierarchy::try_build_over(&data, &job.cols)
                    })
                    .map_err(|e| e.to_string())?;
                    let span = root.child_scope("core").span("score");
                    let t = Instant::now();
                    let found = identify_in_with(
                        &hierarchy,
                        &job.params,
                        Algorithm::Optimized,
                        &span.child_scope(job.name),
                    );
                    score.push(ms_since(t));
                    found
                }
                Enumeration::Pruned => {
                    let sparse = probe(&root, "core", "enumerate", enumerate, || {
                        SparseHierarchy::try_build_over(&data, &job.cols, job.params.min_size)
                    })
                    .map_err(|e| e.to_string())?;
                    let span = root.child_scope("core").span("score");
                    let t = Instant::now();
                    let found = identify_in_sparse_with(
                        &sparse,
                        &job.params,
                        Algorithm::Optimized,
                        &span.child_scope(job.name),
                    );
                    score.push(ms_since(t));
                    found
                }
            };
            let text = probe(&root, "core", "render", render, || {
                persist::regions_to_text(&regions)
            });
            tally.check(verify(job, Ok(text)));
        }
    }
    let counters = tracer.recorder.snapshot();
    let spans = tracer
        .finish(&cfg.trace_path())
        .map_err(|e| format!("cannot write trace: {e}"))?;

    let mut layers = Vec::new();
    let (mut covered, mut budget) = (0u64, 0.0);
    let mut ratios = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        let roots = trace::roots(&spans, "lattice_sweep", job.name);
        let e2e = timed.median(job.name);
        covered += roots
            .iter()
            .map(|r| trace::covered_us(&spans, r))
            .sum::<u64>();
        budget += e2e * 1e3 * roots.len() as f64;
        let traced_ms: Vec<f64> = roots.iter().map(|r| trace::ms(r.dur_us)).collect();
        ratios.push(stats::median(&traced_ms) / e2e);
        let per_op =
            |name: &str| counters.counter(job.name, name).unwrap_or(0) as f64 / passes as f64;
        let [open, enumerate, score, render] = &layer_ms[j];
        let prefix = format!("lattice.{}", job.name);
        layers.extend([
            (format!("{prefix}.open_ms"), stats::median(open)),
            (format!("{prefix}.enumerate_ms"), stats::median(enumerate)),
            (format!("{prefix}.score_ms"), stats::median(score)),
            (format!("{prefix}.render_ms"), stats::median(render)),
            (format!("{prefix}.e2e_ms"), e2e),
            (format!("{prefix}.regions"), per_op("regions_scanned")),
            (
                format!("{prefix}.neighbor_lookups"),
                per_op("neighbor_lookups"),
            ),
        ]);
    }
    layers.extend([
        (
            "obs_overhead_pct".to_string(),
            (stats::geomean(&ratios) - 1.0) * 100.0,
        ),
        ("coverage".to_string(), covered as f64 / budget),
    ]);
    Ok(layers)
}
