//! Property and differential tests for the incremental counting engine.
//!
//! The [`RegionIndex`] promises two things the unit tests can only spot-check:
//!
//! 1. After *any* interleaving of appends, removals, and label flips —
//!    named by row index or by slot — its maintained leaf counts, the
//!    identify answers assembled from them, and its per-class slot lists
//!    equal an independent rebuild of the edited dataset.
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
    Enumeration, IbsParams, NodeSlots, RegionIndex, RemedyParams, ShardCounts, Technique,
};
use remedy_dataset::persist::dataset_to_text;
use remedy_dataset::{synth, Dataset, RowEdit};
use remedy_obs::Scope as ObsScope;
use std::collections::BTreeMap;

/// The slots of the current rows, in row order, kept from the edits
/// alone: an append takes the next unused slot and a removal drops its
/// rows' slots. It models the index's slot space without reading it.
struct SlotMirror {
    slots: Vec<usize>,
    next: usize,
}

impl SlotMirror {
    fn new(rows: usize) -> SlotMirror {
        SlotMirror {
            slots: (0..rows).collect(),
            next: rows,
        }
    }

    fn apply(&mut self, edit: &RowEdit) {
        match edit {
            RowEdit::Duplicate { .. } => {
                self.slots.push(self.next);
                self.next += 1;
            }
            RowEdit::FlipLabel { .. } => {}
            RowEdit::Remove { rows } => {
                let mut row = 0;
                self.slots.retain(|_| {
                    row += 1;
                    !rows.contains(&(row - 1))
                });
            }
        }
    }

    /// The current row of a live slot.
    fn row_of(&self, slot: u32) -> usize {
        self.slots
            .binary_search(&(slot as usize))
            .expect("a gathered slot is live")
    }
}

/// Applies one row-indexed edit to the index through the slot methods,
/// naming each row by its slot in `mirror` (updated afterwards by the
/// caller).
fn apply_by_slot(index: &mut RegionIndex, mirror: &SlotMirror, edit: &RowEdit) {
    match edit {
        RowEdit::Duplicate { src } => {
            assert_eq!(index.duplicate_slot(mirror.slots[*src]), mirror.next);
        }
        RowEdit::FlipLabel { row } => index.flip_slot(mirror.slots[*row]),
        RowEdit::Remove { rows } => {
            let mut rows = rows.clone();
            rows.sort_unstable();
            rows.dedup();
            for row in rows {
                index.remove_slot(mirror.slots[row]);
            }
        }
    }
}

/// Asserts the maintained index equals an independent rebuild of the
/// current rows: its leaf counts equal [`ShardCounts::scan_over`], identify
/// through it equals [`try_identify_over_with`] under both enumerations,
/// and every flagged region's per-class gather — after both classes and
/// after one — names, in row order, exactly the rows a rebuilt index
/// gathers and pattern matching on the dataset finds.
fn assert_matches_rebuild(
    index: &mut RegionIndex,
    mirror: &SlotMirror,
    d: &Dataset,
    protected: &[usize],
) {
    assert_eq!(index.len(), d.len());
    assert_eq!(
        index.live_slots().map(|(slot, _)| slot).collect::<Vec<_>>(),
        mirror.slots
    );
    let fresh = ShardCounts::scan_over(d, protected, 0).unwrap();
    assert_eq!(index.counts(), &fresh, "leaf counts diverge");
    let mut rebuilt = RegionIndex::try_build_over(d, protected).unwrap();
    let off = ObsScope::disabled();
    let mut live_out = NodeSlots::default();
    let mut fresh_out = NodeSlots::default();
    let mut buf = Vec::new();
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
        for (mask, mut regions) in by_node {
            regions.sort_by_key(|r| r.key);
            // both classes of every region, then one class a region
            let both: Vec<(u128, [bool; 2])> = regions.iter().map(|r| (r.key, [true; 2])).collect();
            let one: Vec<(u128, [bool; 2])> = regions
                .iter()
                .enumerate()
                .map(|(i, r)| (r.key, [i % 2 == 0, i % 2 == 1]))
                .collect();
            let live_counts = index.node_counts(mask, &mut live_out);
            assert_eq!(live_counts, rebuilt.node_counts(mask, &mut fresh_out));
            for reads in [both, one] {
                index.gather(&reads, &mut live_out);
                rebuilt.gather(&reads, &mut fresh_out);
                for (i, region) in regions.iter().enumerate() {
                    let matching = d.indices_matching(&region.pattern);
                    for class in 0..2 {
                        let live_rows: Vec<usize> = live_out
                            .sorted_class_mut(i, class, &mut buf)
                            .iter()
                            .map(|&slot| mirror.row_of(slot))
                            .collect();
                        let fresh_rows: Vec<usize> = fresh_out
                            .sorted_class_mut(i, class, &mut buf)
                            .iter()
                            .map(|&slot| slot as usize)
                            .collect();
                        let expected: Vec<usize> = if reads[i].1[class] {
                            matching
                                .iter()
                                .copied()
                                .filter(|&row| usize::from(d.label(row) == 1) == class)
                                .collect()
                        } else {
                            Vec::new()
                        };
                        let at = format!("node {mask:#b} key {:#x} class {class}", region.key);
                        assert_eq!(live_rows, fresh_rows, "gather diverges at {at}");
                        assert_eq!(live_rows, expected, "gather misses rows at {at}");
                    }
                }
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
                let mut mirror = SlotMirror::new(d.len());
                let mut index = RegionIndex::try_build_over(&d, &protected).unwrap();
                if batched {
                    index.begin_deltas();
                }
                for step in 0..60 {
                    let edit = random_edit(&mut rng, d.len());
                    // row-indexed and slot-named edits, interleaved
                    if rng.gen_range(0..2u32) == 0 {
                        index.apply_edit(&edit);
                    } else {
                        apply_by_slot(&mut index, &mirror, &edit);
                    }
                    d.apply_edit(&edit);
                    mirror.apply(&edit);
                    // rebuilding every step is O(n·2^p) — check at a
                    // stride, plus always at the end
                    if step % 10 == 9 {
                        index.flush_deltas();
                        assert_matches_rebuild(&mut index, &mirror, &d, &protected);
                    }
                }
                index.flush_deltas();
                assert_matches_rebuild(&mut index, &mirror, &d, &protected);
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

/// Golden digests of `dataset text ‖ update records` at the scale the
/// `remedy_adult` criterion bench runs: the 70/30 training split (35 000
/// rows) of `adult_n(50 000, 2)` under the params a plan with default
/// knobs and `seed 2` gives each branch, in [`Technique::ALL`] order. At
/// 800 rows the edited buckets stay small; here every technique edits
/// tens of thousands of rows across large leaf buckets.
const GOLDEN_ADULT_35K: [u128; 4] = [
    0x73d98c67a46f777a59170a6564fcd92b,
    0xe9cd2525f823174fdfbf7bb5f64bba3e,
    0x2e116d34f98a08b08a10c8b14a920f70,
    0x51c27acc6c37e20abc3bfb7dfb479cf2,
];

#[test]
fn remedy_matches_golden_digests_at_bench_scale() {
    let data = synth::adult_n(50_000, 2);
    let (train, _) = remedy_dataset::split::train_test_split(&data, 0.7, 2).unwrap();
    assert_eq!(train.len(), 35_000);
    let protected = train.schema().protected_indices();
    for (technique, golden) in Technique::ALL.into_iter().zip(GOLDEN_ADULT_35K) {
        let params = RemedyParams::builder()
            .technique(technique)
            .seed(2)
            .build()
            .unwrap();
        let outcome = remedy_over_with(&train, &protected, &params, &ObsScope::disabled()).unwrap();
        let text = dataset_to_text(&outcome.dataset);
        assert_eq!(
            stable_hash(format!("{text}\n{:?}", outcome.updates).as_bytes()),
            golden,
            "adult 35k/{technique}: remedy output drifted from its golden digest"
        );
    }
}
