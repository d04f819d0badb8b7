//! Cold-load benchmarks of the two persisted dataset encodings: exact
//! text (line parse + category interning) vs binary columnar
//! (fixed-stride decode), plus the encode side of both. The 1M-row synthetic is staged in a *child*
//! process: synthesizing and serializing it churns ~100MB of
//! short-lived allocations, and measuring loads afterwards in the same
//! process would bill that allocator wreckage to the decode — a real
//! cold open runs in a fresh process with a clean heap. Every sample
//! then reads its file from scratch and decodes it. The index case
//! measures `RegionIndex` construction, which packs every row's key from
//! the decoded columns.
//!
//! `scripts/bench.sh` records the medians as `dataset_cold_load_ms` in
//! `BENCH_core.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use remedy_bench::datasets;
use remedy_core::RegionIndex;
use remedy_dataset::{persist, store, synth, Stored};
use std::path::Path;

const ROWS: usize = 1_000_000;
const STAGE_ENV: &str = "REMEDY_PERSIST_STAGE";

/// Child-process entry: synthesize and write both encodings, then exit
/// before any benchmark runs.
fn stage(dir: &Path) {
    let data = synth::adult_n(ROWS, 42);
    datasets::materialize(&data, dir, "adult1m").expect("stage bench inputs");
}

/// Ensures staged inputs exist (re-staging when absent or written by an
/// older layout) and returns the decoded artifact for the encode and
/// index benches.
fn staged_inputs(bin_path: &Path) -> Stored {
    let fresh = std::fs::read(bin_path)
        .ok()
        .and_then(|bytes| store::from_bytes_unpacked(&bytes, 0).ok())
        .filter(|s| s.data.len() == ROWS);
    if let Some(stored) = fresh {
        return stored;
    }
    let me = std::env::current_exe().expect("bench executable path");
    let status = std::process::Command::new(me)
        .env(STAGE_ENV, "1")
        .status()
        .expect("spawn staging child");
    assert!(status.success(), "staging child failed");
    store::from_bytes_unpacked(&std::fs::read(bin_path).expect("staged artifact"), 0)
        .expect("staged artifact decodes")
}

fn bench_cold_load(c: &mut Criterion) {
    let dir = std::env::temp_dir().join("remedy_bench_persist");
    if std::env::var_os(STAGE_ENV).is_some() {
        stage(&dir);
        std::process::exit(0);
    }
    let text_path = dir.join("adult1m.remedy");
    let bin_path = dir.join("adult1m.bin");
    let stored = staged_inputs(&bin_path);

    let mut group = c.benchmark_group("persist");
    // one sample is a full 1M-row decode; three samples bound wall time
    group.sample_size(3);
    // both closures produce exactly a Dataset: the text side parses, the
    // binary side takes the data-only decode (sidecar validated, keys
    // not widened) — the same work `store::open` does on each encoding
    group.bench_function("cold_load_binary_1m", |b| {
        b.iter(|| {
            let bytes = std::fs::read(&bin_path).unwrap();
            store::from_bytes_unpacked(std::hint::black_box(&bytes), 0)
                .unwrap()
                .data
        })
    });
    group.bench_function("cold_load_text_1m", |b| {
        b.iter(|| {
            let text = std::fs::read_to_string(&text_path).unwrap();
            persist::dataset_from_text(std::hint::black_box(&text)).unwrap()
        })
    });

    // the encode side: the canonical text, and the binary form, whose
    // header carries that text's digest
    group.bench_function("text_encode_1m", |b| {
        b.iter(|| persist::dataset_to_text(std::hint::black_box(&stored.data)))
    });
    group.bench_function("to_binary_1m", |b| {
        b.iter(|| store::to_binary(std::hint::black_box(&stored.data)))
    });

    // region-index construction, packing keys from the decoded columns
    group.bench_function("index_repack_1m", |b| {
        b.iter(|| RegionIndex::try_build(std::hint::black_box(&stored.data)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_cold_load);
criterion_main!(benches);
