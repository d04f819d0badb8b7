//! The ledger's statistics, trace and verdict helpers.

use remedy_ledger::report::{self, Verdict};
use remedy_ledger::stats::{self, PercentileError};
use remedy_ledger::trace::{self, Tracer};

fn one_to(n: usize) -> Vec<f64> {
    (1..=n).map(|v| v as f64).collect()
}

#[test]
fn nearest_rank_percentile_needs_ten_samples_beyond_it() {
    let hundred = one_to(100);
    assert_eq!(stats::percentile(&hundred, 50.0), Ok(50.0));
    assert_eq!(stats::percentile(&hundred, 90.0), Ok(90.0));
    assert_eq!(
        stats::percentile(&hundred, 91.0),
        Err(PercentileError::TooFewBeyond { beyond: 9 })
    );
    assert!(stats::percentile(&hundred, 99.0).is_err());
    assert_eq!(stats::percentile(&one_to(1000), 99.0), Ok(990.0));
    // a median needs only one sample; order does not matter
    assert_eq!(stats::percentile(&[3.0, 1.0, 2.0], 50.0), Ok(2.0));
    assert_eq!(stats::percentile(&[], 50.0), Err(PercentileError::Empty));
    assert_eq!(
        stats::percentile(&hundred, 0.0),
        Err(PercentileError::OutOfRange)
    );
    assert_eq!(
        stats::highest_supported(&one_to(200), &[90.0, 99.0, 99.9]),
        Some((90.0, 180.0))
    );
    assert_eq!(stats::highest_supported(&one_to(5), &[90.0]), None);
}

#[test]
fn geometric_mean_and_medians() {
    assert!((stats::geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    assert!((stats::geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
    assert!(stats::geomean(&[1.0, 0.0]).is_nan());
    assert!(stats::geomean(&[]).is_nan());
    assert_eq!(stats::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(stats::median(&[]).is_nan());
}

#[test]
fn interdecile_mean_drops_a_tenth_at_each_end() {
    // 1..=20 keeps 3..=18
    assert_eq!(stats::interdecile_mean(&one_to(20)), 10.5);
    // a tenth of 11 rounds up to 2 at each end: 3..=9
    assert_eq!(stats::interdecile_mean(&one_to(11)), 6.0);
    // four samples or fewer give the median
    assert_eq!(stats::interdecile_mean(&[9.0, 1.0, 2.0]), 2.0);
    assert_eq!(stats::interdecile_mean(&[1.0, 2.0, 3.0, 100.0]), 2.5);
    assert_eq!(stats::interdecile_mean(&[7.0]), 7.0);
    assert!(stats::interdecile_mean(&[]).is_nan());
    // a bimodal sample: moving 5 of 100 samples from the slow mode to
    // the fast one moves the median from slow to fast, and the
    // interdecile mean by less than a tenth
    let mix = |fast: usize| -> Vec<f64> {
        let mut v = vec![1.0; fast];
        v.extend(std::iter::repeat_n(10.0, 100 - fast));
        v
    };
    assert_eq!(stats::median(&mix(48)), 10.0);
    assert_eq!(stats::median(&mix(53)), 1.0);
    let (before, after) = (
        stats::interdecile_mean(&mix(48)),
        stats::interdecile_mean(&mix(53)),
    );
    assert!(after / before > 0.9, "{before} -> {after}");
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(stats::quartiles(&one_to(10)), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(stats::quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(stats::quartiles(&[1.0]), None);
    let spread = stats::relative_spread(&one_to(10)).unwrap();
    assert!((spread - 1.0).abs() < 1e-12);
}

fn span(id: u64, parent: Option<u64>, start_us: u64, dur_us: u64) -> trace::SpanRec {
    trace::SpanRec {
        id,
        parent,
        scope: "pipeline".into(),
        name: format!("s{id}"),
        start_us,
        dur_us,
    }
}

#[test]
fn self_time_over_overlapping_parallel_branch_spans() {
    // two branches overlap on [20, 40); a third sticks out past the run;
    // a grandchild and an unrelated root do not count
    let spans = [
        span(2, Some(1), 10, 30),
        span(3, Some(1), 20, 40),
        span(4, Some(1), 70, 60),
        span(5, Some(3), 0, 100),
        span(1, None, 0, 100),
        span(6, None, 0, 100),
    ];
    let run = &spans[4];
    assert_eq!(trace::covered_us(&spans, run), 30 + 20 + 30);
    assert_eq!(trace::self_us(&spans, run), 20);
    assert_eq!(trace::self_us(&spans, &spans[5]), 100);
    // nested and identical intervals count once
    assert_eq!(stats::union_len(&[(0, 50), (10, 20), (0, 50)], 0, 100), 50);
}

#[test]
fn traced_spans_reconstruct_self_time() {
    let tracer = Tracer::new();
    {
        let root = tracer.recorder.scope("w").span("op");
        for name in ["a", "b"] {
            let _child = root.child_scope("layer").span(name);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("helpers.trace.jsonl");
    let spans = tracer.finish(&path).unwrap();
    let written = std::fs::read_to_string(&path).unwrap();
    assert_eq!(trace::parse_spans(&written), spans);
    let roots = trace::roots(&spans, "w", "op");
    assert_eq!(roots.len(), 1);
    let root = roots[0];
    assert_eq!(trace::children(&spans, root.id).len(), 2);
    let covered = trace::covered_us(&spans, root);
    assert!(covered >= 4_000 && covered <= root.dur_us);
    assert_eq!(trace::self_us(&spans, root), root.dur_us - covered);
}

#[test]
fn verdicts_against_a_bound() {
    let base = [100.0, 101.0, 99.0, 100.5, 99.5];
    let same = [100.2, 100.8, 99.4, 100.1, 99.9];
    let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
    let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
    let pairs = |new: &[f64]| -> Vec<(f64, f64)> {
        base.iter().copied().zip(new.iter().copied()).collect()
    };
    assert_eq!(
        report::verdict(&base, &same, &pairs(&same), true, 0.1),
        Verdict::Same
    );
    assert_eq!(
        report::verdict(&base, &slower, &pairs(&slower), true, 0.1),
        Verdict::Worse
    );
    assert_eq!(
        report::verdict(&base, &faster, &pairs(&faster), true, 0.1),
        Verdict::Better
    );
    // for a higher-is-better metric the same numbers read the other way
    assert_eq!(
        report::verdict(&base, &faster, &pairs(&faster), false, 0.1),
        Verdict::Worse
    );
    // too few runs, or a spread wider than the bound, resolve nothing
    assert_eq!(
        report::verdict(&base[..2], &same[..2], &[], true, 0.1),
        Verdict::Unresolved
    );
    let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
    assert_eq!(
        report::verdict(&noisy, &same, &[], true, 0.1),
        Verdict::Unresolved
    );
}

#[test]
fn benchmark_file_renders_back_byte_for_byte() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let bench = report::parse_benchmark(&text).unwrap();
    assert_eq!(report::render(&bench.doc, 0) + "\n", text);
    let rebounded = report::with_bounds(&bench.doc, &[("latency_ms".to_string(), 0.2)]);
    let reparsed = report::parse_benchmark(&report::render(&rebounded, 0)).unwrap();
    let latency = reparsed
        .end_to_end
        .iter()
        .find(|m| m.name == "latency_ms")
        .unwrap();
    assert_eq!(latency.bound, 0.2);
    assert_eq!(reparsed.per_layer, bench.per_layer);
}
