//! Property and differential tests for the incremental counting engine.
//!
//! The [`RegionIndex`] promises two things the unit tests can only spot-check:
//!
//! 1. After *any* interleaving of appends, removals, and label flips, its
//!    maintained leaf counts, the identify answers assembled from them, and
//!    its row buckets equal an independent rebuild of the edited dataset.
//! 2. A remedy served by the index is **byte-identical** — persisted dataset
//!    and update records — to golden outputs recorded when a per-node
//!    rescan implementation still shipped beside it and produced the same
//!    bytes, so pipeline caches written by either code path replay
//!    unchanged.
//!
//! Both are exercised here over the three synthetic evaluation datasets.
//! The independent check of the counts themselves against the paper's
//! definitions lives in `tests/oracle.rs`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use remedy_core::{
    remedy_over_with, stable_hash, try_identify_in_index_with, try_identify_over_with, Algorithm,
    Enumeration, IbsParams, NodeRows, RegionIndex, RemedyParams, ShardCounts, Technique,
};
use remedy_dataset::persist::dataset_to_text;
use remedy_dataset::{synth, Dataset, RowEdit};
use remedy_obs::Scope as ObsScope;
use std::collections::BTreeMap;

/// Asserts the maintained index equals an independent rebuild of the
/// current rows: its leaf counts equal [`ShardCounts::scan_over`], identify
/// through it equals [`try_identify_over_with`] under both enumerations,
/// and every flagged region's row bucket equals pattern matching on the
/// dataset.
fn assert_matches_rebuild(index: &RegionIndex, d: &Dataset, protected: &[usize]) {
    assert_eq!(index.len(), d.len());
    let fresh = ShardCounts::scan_over(d, protected, 0).unwrap();
    assert_eq!(index.counts(), &fresh, "leaf counts diverge");
    let off = ObsScope::disabled();
    for enumeration in [Enumeration::Dense, Enumeration::Pruned] {
        let mut params = IbsParams::builder()
            .tau_c(0.05)
            .min_size(5)
            .build()
            .unwrap();
        params.enumeration = enumeration;
        let live = try_identify_in_index_with(index, &params, Algorithm::Optimized, &off);
        let cold = try_identify_over_with(d, protected, &params, Algorithm::Optimized, &off);
        assert_eq!(live, cold, "{enumeration:?} identify diverges");
        // one gather per node serves all of its flagged regions
        let mut by_node: BTreeMap<u32, Vec<_>> = BTreeMap::new();
        for region in live.iter().flatten() {
            by_node.entry(region.mask).or_default().push(region);
        }
        let mut gathered = NodeRows::default();
        for (mask, mut regions) in by_node {
            regions.sort_by_key(|r| r.key);
            let keys: Vec<u128> = regions.iter().map(|r| r.key).collect();
            index.gather_rows(mask, &keys, &mut gathered);
            for (i, region) in regions.iter().enumerate() {
                let mut rows = gathered.region(i).to_vec();
                rows.sort_unstable();
                assert_eq!(
                    rows,
                    d.indices_matching(&region.pattern),
                    "bucket diverges at node {mask:#b} key {:#x}",
                    region.key
                );
            }
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
        // past 16 attributes the leaf keys switch to minimal widths
        ("wide18", synth::wide_n(400, 18, 11)),
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

/// Golden digests of `dataset text ‖ update records`, one per dataset ×
/// technique (in [`Technique::ALL`] order), recorded while the per-node
/// rescan implementation still shipped and produced the same bytes.
const GOLDEN: [(&str, [u128; 4]); 3] = [
    (
        "compas",
        [
            0xc41f4d8e0d5f17443212d14410fb93b6,
            0xe7c264339250f48887e40bd1d6823bad,
            0x1aaf0bc7994e4ac597ae748b6357c920,
            0x2060d7b9b897ab5ab8300a758993e307,
        ],
    ),
    (
        "adult",
        [
            0x2f41b211912570ecd2c8e4268c646903,
            0x2e804622ce4e8a8df1b6104a795e1274,
            0x870895f67c468f50d1cd7cecf61e2fed,
            0x1d085d00611a576e1d162ca5be9de27a,
        ],
    ),
    (
        "law_school",
        [
            0xf877510609fd8e1c0d0d3220b4f545e6,
            0xd95d605b7f9384ddbce822faacb4004f,
            0x978ac48989833f68bda00cd1c57e1a52,
            0x7472afe67fac034c8657893b27fb7a11,
        ],
    ),
];

#[test]
fn remedy_matches_golden_digests() {
    for (name, digests) in GOLDEN {
        let data = match name {
            "compas" => synth::compas_n(800, 7),
            "adult" => synth::adult_n(800, 7),
            _ => synth::law_school_n(800, 7),
        };
        let protected = data.schema().protected_indices();
        for (technique, golden) in Technique::ALL.into_iter().zip(digests) {
            let params = RemedyParams::builder()
                .technique(technique)
                .build()
                .unwrap();
            let outcome =
                remedy_over_with(&data, &protected, &params, &ObsScope::disabled()).unwrap();
            let text = dataset_to_text(&outcome.dataset);
            assert_eq!(
                stable_hash(format!("{text}\n{:?}", outcome.updates).as_bytes()),
                golden,
                "{name}/{technique}: remedy output drifted from its golden digest"
            );
        }
    }
}
