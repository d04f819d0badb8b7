//! Property and differential tests for the incremental counting engine.
//!
//! The [`RegionIndex`] promises two things the unit tests can only spot-check:
//!
//! 1. After *any* interleaving of appends, removals, and label flips, its
//!    maintained lattice counts and row buckets equal a from-scratch rebuild
//!    of the edited dataset.
//! 2. A remedy served by the index is **byte-identical** — persisted dataset
//!    and update records — to the per-node scan baseline it replaced, so
//!    pipeline caches written by the old code path replay unchanged.
//!
//! Both are exercised here with seeded randomness over the three synthetic
//! evaluation datasets. A `#[ignore]`d release-mode smoke check asserts the
//! incremental path is not slower than the scan baseline (run by
//! `scripts/verify.sh`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use remedy_core::{remedy_over_scan, remedy_over_with, RegionIndex, RemedyParams, Technique};
use remedy_dataset::persist::dataset_to_text;
use remedy_dataset::{synth, Dataset, RowEdit};
use remedy_obs::Scope as ObsScope;

/// Asserts the maintained index equals `RegionIndex::try_build_over` on the
/// current rows: totals, every node's region counts, and every region's
/// row bucket.
fn assert_matches_rebuild(index: &RegionIndex, d: &Dataset, protected: &[usize]) {
    let fresh = RegionIndex::try_build_over(d, protected).unwrap();
    assert_eq!(index.len(), d.len());
    let (h, f) = (index.hierarchy(), fresh.hierarchy());
    assert_eq!(h.totals(), f.totals());
    for (a, b) in h.nodes().iter().zip(f.nodes()) {
        assert_eq!(a.mask, b.mask);
        assert_eq!(a.regions, b.regions, "counts diverge at node {:#b}", a.mask);
        for &key in a.regions.keys() {
            assert_eq!(
                index.region_rows(a.mask, key),
                fresh.region_rows(a.mask, key),
                "bucket diverges at node {:#b} key {key:#x}",
                a.mask
            );
        }
    }
}

/// One random edit against the current dataset length. Removals draw a
/// small set of distinct rows, mirroring a remedy node's batched
/// `pending_removals`.
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

#[test]
fn random_edit_interleavings_match_rebuild() {
    for (name, data) in [
        ("compas", synth::compas_n(400, 11)),
        ("adult", synth::adult_n(400, 11)),
        ("law_school", synth::law_school_n(400, 11)),
    ] {
        let protected = data.schema().protected_indices();
        for seed in 0..4u64 {
            for batched in [false, true] {
                let mut rng = StdRng::seed_from_u64(0xC0DE ^ seed);
                let mut d = data.clone();
                let mut index = RegionIndex::try_build_over(&d, &protected).unwrap();
                if batched {
                    index.begin_deltas();
                }
                for step in 0..60 {
                    let edit = random_edit(&mut rng, d.len());
                    index.apply_edit(&edit);
                    d.apply_edit(&edit);
                    // rebuilding every step is O(n·2^p) — check at a
                    // stride, plus always at the end
                    if step % 10 == 9 {
                        index.flush_deltas();
                        assert_matches_rebuild(&index, &d, &protected);
                    }
                }
                index.flush_deltas();
                assert_matches_rebuild(&index, &d, &protected);
                assert!(
                    index.tally().node_updates > 0,
                    "{name}/{seed}/batched={batched}: edits produced no delta updates"
                );
            }
        }
    }
}

#[test]
fn remedy_via_index_is_byte_identical_to_scan() {
    for (name, data) in [
        ("compas", synth::compas_n(800, 7)),
        ("adult", synth::adult_n(800, 7)),
        ("law_school", synth::law_school_n(800, 7)),
    ] {
        let protected = data.schema().protected_indices();
        for technique in Technique::ALL {
            let params = RemedyParams::builder()
                .technique(technique)
                .build()
                .unwrap();
            let fast = remedy_over_with(&data, &protected, &params, &ObsScope::disabled());
            let scan = remedy_over_scan(&data, &protected, &params);
            assert_eq!(
                dataset_to_text(&fast.dataset),
                dataset_to_text(&scan.dataset),
                "{name}/{technique}: persisted datasets diverge"
            );
            assert_eq!(
                fast.updates, scan.updates,
                "{name}/{technique}: update records diverge"
            );
        }
    }
}

/// Release-mode timing smoke check: over a 5-attribute lattice (31 nodes)
/// the delta-maintained path must not lose to 31 full re-scans. Run via
/// `cargo test --release -p remedy-core --test counting_props -- --ignored`
/// (scripts/verify.sh does); debug-mode timings are too noisy to gate on.
#[test]
#[ignore = "timing-sensitive; run in release mode via scripts/verify.sh"]
fn incremental_remedy_is_not_slower_than_scan() {
    let data = synth::adult_n(30_000, 1);
    let cols: Vec<usize> = synth::ADULT_SCALABILITY_PROTECTED[..5]
        .iter()
        .map(|n| data.schema().require(n).unwrap())
        .collect();
    let params = RemedyParams::builder()
        .technique(Technique::Undersampling)
        .build()
        .unwrap();
    let best_of = |f: &dyn Fn() -> usize| {
        (0..3)
            .map(|_| {
                let t = std::time::Instant::now();
                let n = f();
                (t.elapsed(), n)
            })
            .min()
            .unwrap()
    };
    let (fast, n_fast) = best_of(&|| {
        remedy_over_with(&data, &cols, &params, &ObsScope::disabled())
            .dataset
            .len()
    });
    let (scan, n_scan) = best_of(&|| remedy_over_scan(&data, &cols, &params).dataset.len());
    assert_eq!(n_fast, n_scan);
    // 10% slack absorbs scheduler noise; the expected margin is several-fold
    assert!(
        fast <= scan + scan / 10,
        "incremental remedy ({fast:?}) slower than scan baseline ({scan:?})"
    );
}
