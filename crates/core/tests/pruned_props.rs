//! Property tests for the support-pruned enumeration (the "break the
//! lattice wall" mode).
//!
//! The headline invariant: **pruned ≡ dense, byte for byte.** Pruning at
//! `support = min_size` skips exactly the lattice nodes whose every
//! region the dense scan would reject, and surviving nodes carry
//! complete region maps — so the persisted `remedy-ibs v1` text of a
//! pruned identify equals the dense one on every dataset, parameter
//! draw, and algorithm, including through a delta-maintained index that
//! has absorbed random edits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use remedy_core::persist::regions_to_text;
use remedy_core::{
    try_identify_in_index_with, try_identify_over, Algorithm, BiasedRegion, CoreError, Enumeration,
    Hierarchy, IbsParams, RegionIndex,
};
use remedy_dataset::{synth, Dataset, RowEdit};
use remedy_obs::Scope as ObsScope;

fn study_datasets() -> Vec<(&'static str, Dataset)> {
    vec![
        ("compas", synth::compas_n(600, 13)),
        ("adult", synth::adult_n(600, 13)),
        ("law_school", synth::law_school_n(600, 13)),
    ]
}

fn in_index(index: &RegionIndex, params: &IbsParams) -> Result<Vec<BiasedRegion>, CoreError> {
    try_identify_in_index_with(index, params, Algorithm::Optimized, &ObsScope::disabled())
}

fn with_enumeration(params: &IbsParams, enumeration: Enumeration) -> IbsParams {
    let mut out = params.clone();
    out.enumeration = enumeration;
    out
}

/// Seeded random identification parameters: `k` spans "keep everything"
/// through "prune most of the lattice", `τ_c` spans strict to lax.
fn random_params(rng: &mut StdRng) -> IbsParams {
    IbsParams::builder()
        .tau_c(rng.gen_range(0.0..0.6))
        .min_size(rng.gen_range(1..120))
        .build()
        .unwrap()
}

#[test]
fn pruned_identify_is_byte_identical_across_random_params() {
    let mut rng = StdRng::seed_from_u64(0x9D_FACE);
    for (name, data) in study_datasets() {
        for _ in 0..6 {
            let dense = random_params(&mut rng);
            let pruned = with_enumeration(&dense, Enumeration::Pruned);
            for algorithm in [Algorithm::Naive, Algorithm::Optimized] {
                let a = regions_to_text(&remedy_core::identify(&data, &dense, algorithm));
                let b = regions_to_text(&remedy_core::identify(&data, &pruned, algorithm));
                assert_eq!(
                    a, b,
                    "{name}/{algorithm:?} τ={} k={}",
                    dense.tau_c, dense.min_size
                );
            }
        }
    }
}

/// Same distribution as the counting property harness: duplicates, flips
/// (twice as likely), and small distinct removal sets.
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

/// Pruned parity must hold against *maintained* indexes too: both the
/// dense index (which derives the sparse hierarchy from its leaf node)
/// and the leaf-only sparse index, after 50 random edits each.
#[test]
fn pruned_parity_survives_random_edits_through_maintained_indexes() {
    for (name, data) in study_datasets() {
        let mut rng = StdRng::seed_from_u64(0xED17);
        let mut d = data.clone();
        let mut dense_idx = RegionIndex::try_build(&d).unwrap();
        let mut sparse_idx = RegionIndex::try_build_sparse(&d).unwrap();
        dense_idx.begin_deltas();
        sparse_idx.begin_deltas();
        for _ in 0..50 {
            let edit = random_edit(&mut rng, d.len());
            dense_idx.apply_edit(&edit);
            sparse_idx.apply_edit(&edit);
            d.apply_edit(&edit);
        }
        dense_idx.flush_deltas();
        sparse_idx.flush_deltas();

        let dense = IbsParams::builder()
            .tau_c(0.05)
            .min_size(20)
            .build()
            .unwrap();
        let pruned = with_enumeration(&dense, Enumeration::Pruned);
        let want = regions_to_text(&remedy_core::identify(&d, &dense, Algorithm::Optimized));
        let live_dense = in_index(&dense_idx, &dense).unwrap();
        assert_eq!(regions_to_text(&live_dense), want, "{name}: dense index");
        let live_pruned = in_index(&dense_idx, &pruned).unwrap();
        assert_eq!(
            regions_to_text(&live_pruned),
            want,
            "{name}: pruned over the dense index"
        );
        let live_sparse = in_index(&sparse_idx, &pruned).unwrap();
        assert_eq!(
            regions_to_text(&live_sparse),
            want,
            "{name}: pruned over the sparse index"
        );
    }
}

/// Past the dense arity ceiling only the pruned mode answers; the dense
/// mode fails loudly with typed errors — in release builds too (this
/// suite runs under `--release` in scripts/verify.sh).
#[test]
fn wide_protected_sets_are_pruned_only() {
    let data = synth::wide_n(2_000, 20, 3);
    let protected = data.schema().protected_indices();
    assert_eq!(protected.len(), 20);

    let err = Hierarchy::try_build(&data).unwrap_err();
    assert_eq!(err, CoreError::TooManyProtected { got: 20, max: 16 });

    let dense = IbsParams::default();
    let err = try_identify_over(&data, &protected, &dense, Algorithm::Optimized).unwrap_err();
    assert_eq!(err, CoreError::TooManyProtected { got: 20, max: 16 });

    let pruned = with_enumeration(&dense, Enumeration::Pruned);
    let regions = try_identify_over(&data, &protected, &pruned, Algorithm::Optimized).unwrap();
    // the planted level-1 bump must surface
    assert!(
        !regions.is_empty(),
        "pruned identify found nothing over the wide dataset"
    );

    // a maintained index over the wide set is sparse-only
    let index = RegionIndex::try_build_auto(&data).unwrap();
    assert!(index.is_sparse());
    let err = in_index(&index, &dense).unwrap_err();
    assert_eq!(err, CoreError::DenseUnavailable { arity: 20 });
    let live = in_index(&index, &pruned).unwrap();
    assert_eq!(regions_to_text(&live), regions_to_text(&regions));
}

/// Release-mode timing smoke check: a pruned identify over 24 uniform
/// protected attributes — a lattice whose dense form would have 2^24 − 1
/// nodes and is refused outright — completes in well under a second.
/// Run via `cargo test --release -p remedy-core --test pruned_props --
/// --ignored` (scripts/verify.sh does); debug-mode timings are noisy.
#[test]
#[ignore = "timing-sensitive; run in release mode via scripts/verify.sh"]
fn pruned_identify_is_subsecond_at_p24() {
    let data = synth::wide_n(10_000, 24, 42);
    let protected = data.schema().protected_indices();
    let pruned = with_enumeration(&IbsParams::default(), Enumeration::Pruned);
    let start = std::time::Instant::now();
    let regions = try_identify_over(&data, &protected, &pruned, Algorithm::Optimized).unwrap();
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "pruned identify at p=24 took {elapsed:?}"
    );
    assert!(!regions.is_empty(), "planted bias must surface");
}
