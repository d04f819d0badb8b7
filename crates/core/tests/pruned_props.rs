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
    try_identify_in_index_with, try_identify_over, try_identify_over_with, Algorithm, BiasedRegion,
    CoreError, Enumeration, Hierarchy, IbsParams, RegionIndex, ShardCounts, SparseHierarchy,
};
use remedy_dataset::{synth, Dataset, RowEdit};
use remedy_obs::{Recorder, Scope as ObsScope};
use std::collections::{HashMap, HashSet};

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

/// Pruned parity must hold against a *maintained* index too: after 50
/// random edits its leaf counts equal an independent scan of the edited
/// rows, and identify through it equals identify over those rows under
/// both enumerations — at p ≤ 16 on the 8-bit layout and at p = 18, where
/// the keys switch to minimal widths and only the pruned mode answers.
#[test]
fn pruned_parity_survives_random_edits_through_maintained_indexes() {
    let mut datasets = study_datasets();
    datasets.push(("wide18", synth::wide_n(600, 18, 13)));
    for (name, data) in datasets {
        let mut rng = StdRng::seed_from_u64(0xED17);
        let mut d = data.clone();
        let mut index = RegionIndex::try_build(&d).unwrap();
        index.begin_deltas();
        for _ in 0..50 {
            let edit = random_edit(&mut rng, d.len());
            index.apply_edit(&edit);
            d.apply_edit(&edit);
        }
        index.flush_deltas();

        let protected = d.schema().protected_indices();
        let fresh = ShardCounts::scan_over(&d, &protected, 0).unwrap();
        assert_eq!(index.counts(), &fresh, "{name}: leaf counts");
        let dense = IbsParams::builder()
            .tau_c(0.05)
            .min_size(10)
            .build()
            .unwrap();
        let pruned = with_enumeration(&dense, Enumeration::Pruned);
        let off = ObsScope::disabled();
        let cold =
            |params| try_identify_over_with(&d, &protected, params, Algorithm::Optimized, &off);
        for params in [&dense, &pruned] {
            assert_eq!(
                in_index(&index, params),
                cold(params),
                "{name}: {:?} through the maintained index",
                params.enumeration
            );
        }
        let want = cold(&pruned).unwrap();
        if protected.len() <= 16 {
            assert_eq!(
                regions_to_text(&want),
                regions_to_text(&cold(&dense).unwrap()),
                "{name}: pruned text diverges from dense"
            );
        } else {
            assert!(!want.is_empty(), "{name}: planted bias must surface");
        }
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

    // a maintained index over the wide set answers pruned requests only
    let index = RegionIndex::try_build(&data).unwrap();
    let err = in_index(&index, &dense).unwrap_err();
    assert_eq!(err, CoreError::TooManyProtected { got: 20, max: 16 });
    let live = in_index(&index, &pruned).unwrap();
    assert_eq!(regions_to_text(&live), regions_to_text(&regions));
}

/// Level-3 cells [`planted_wide`] tops up, `(column, code)` terms: the
/// first to exactly the support, the second to one row past it.
const PLANTED: [[(usize, u32); 3]; 2] = [[(1, 4), (6, 8), (12, 10)], [(0, 3), (5, 7), (11, 9)]];

/// `wide_n` at 20 000 rows and p = 20 — where level-2 cells hold ~20
/// rows, so a few pass k = 30 and every level-2 node keeps a short hot
/// list, while level-3 cells hold ~0.6 — with the [`PLANTED`] cells
/// topped up to `support` and `support + 1` rows. The planted rows
/// spread their other columns, so no other level-3 cell gains more than
/// one row from them.
fn planted_wide(support: u64) -> Dataset {
    let mut data = synth::wide_n(20_000, 20, 5);
    for (cell, target) in PLANTED.iter().zip([support, support + 1]) {
        let in_cell = |data: &Dataset, row| cell.iter().all(|&(c, v)| data.value(row, c) == v);
        let have = (0..data.len()).filter(|&r| in_cell(&data, r)).count() as u64;
        for i in 0..target.checked_sub(have).expect("cell already past target") {
            let mut codes: Vec<u32> = (0..20)
                .map(|j| ((i as usize * 7 + j * 13) % 32) as u32)
                .collect();
            for &(c, v) in cell {
                codes[c] = v;
            }
            data.push_row(&codes, (i % 2) as u8).unwrap();
        }
    }
    data
}

/// Mask and region key (8 bits per attribute) of a planted cell.
fn planted_region(cell: &[(usize, u32)]) -> (u32, u128) {
    cell.iter()
        .enumerate()
        .fold((0, 0), |(mask, key), (slot, &(c, v))| {
            (mask | 1 << c, key | u128::from(v) << (8 * slot))
        })
}

/// Region key → `(pos, neg)` of one node, counted straight from the rows
/// (8 bits per attribute, in the node's attribute order).
fn direct_counts(
    data: &Dataset,
    protected: &[usize],
    attrs: &[usize],
) -> HashMap<u128, (u64, u64)> {
    let mut out: HashMap<u128, (u64, u64)> = HashMap::new();
    for row in 0..data.len() {
        let mut key = 0u128;
        for (slot, &j) in attrs.iter().enumerate() {
            key |= u128::from(data.value(row, protected[j])) << (8 * slot);
        }
        let entry = out.entry(key).or_default();
        if data.label(row) == 1 {
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
    }
    out
}

/// Rows in the largest region over `cols`, counted straight from the
/// columns into a flat array (the infrequent candidates are too many for
/// a map per candidate in debug builds).
fn largest_region(data: &Dataset, cols: &[usize]) -> u64 {
    let dims: Vec<usize> = cols
        .iter()
        .map(|&c| data.schema().attribute(c).cardinality())
        .collect();
    let mut cells = vec![0u64; dims.iter().product()];
    let columns: Vec<&[u32]> = cols.iter().map(|&c| data.column(c)).collect();
    for row in 0..data.len() {
        let mut idx = 0;
        for (col, &d) in columns.iter().zip(&dims) {
            idx = idx * d + col[row] as usize;
        }
        cells[idx] += 1;
    }
    cells.into_iter().max().unwrap_or(0)
}

/// Every Apriori candidate of the kept masks, by level: all single
/// attributes, then each kept mask extended by a higher attribute when
/// every one-removed sub-mask was kept.
fn candidates_of(kept: &HashSet<u32>, p: usize) -> Vec<Vec<u32>> {
    let mut levels = vec![(0..p as u32).map(|j| 1u32 << j).collect::<Vec<u32>>()];
    loop {
        let mut next = Vec::new();
        for &m in levels.last().unwrap().iter().filter(|m| kept.contains(m)) {
            for b in (32 - m.leading_zeros())..p as u32 {
                let cand = m | 1 << b;
                let closed = (0..p)
                    .filter(|j| cand >> j & 1 == 1)
                    .all(|j| kept.contains(&(cand & !(1 << j))));
                if closed {
                    next.push(cand);
                }
            }
        }
        if next.is_empty() {
            return levels;
        }
        levels.push(next);
    }
}

/// The hot-list gate decides frequency exactly: over a lattice whose
/// level-3 candidates are counted on their parents' hot lists first,
/// every kept node's map equals direct row counts, every candidate that
/// was not kept has no region above the support, and a planted cell of
/// `support` rows keeps nothing while one of `support + 1` keeps its
/// node. The counters show both gate outcomes ran: rejection on the list
/// alone, and a kept candidate completing its map past the list.
#[test]
fn hot_list_gate_keeps_exactly_the_frequent_nodes() {
    let support = 30u64;
    let data = planted_wide(support);
    let protected = data.schema().protected_indices();
    let lattice = SparseHierarchy::try_build_over(&data, &protected, support).unwrap();
    for node in lattice.nodes() {
        let want = direct_counts(&data, &protected, &node.attrs);
        let got: HashMap<u128, (u64, u64)> = node
            .regions
            .iter()
            .map(|(&k, c)| (k, (c.pos, c.neg)))
            .collect();
        assert_eq!(got, want, "node {:#x}", node.mask);
    }
    let kept: HashSet<u32> = lattice.nodes().iter().map(|n| n.mask).collect();
    let levels = candidates_of(&kept, protected.len());
    assert_eq!(levels.len(), 3, "the fixture must reach level-3 candidates");
    for &mask in levels.iter().flatten().filter(|m| !kept.contains(m)) {
        let cols: Vec<usize> = (0..protected.len())
            .filter(|j| mask >> j & 1 == 1)
            .map(|j| protected[j])
            .collect();
        let largest = largest_region(&data, &cols);
        assert!(largest <= support, "candidate {mask:#x} was frequent");
    }
    // the boundary: exactly `support` rows is not frequent
    let (at, _) = planted_region(&PLANTED[0]);
    assert!(levels[2].contains(&at) && !kept.contains(&at));
    let (past, key) = planted_region(&PLANTED[1]);
    let region = lattice
        .node(past)
        .expect("support + 1 rows keep the node")
        .regions[&key];
    assert_eq!(region.pos + region.neg, support + 1);

    let params = with_enumeration(
        &IbsParams::builder().min_size(support).build().unwrap(),
        Enumeration::Pruned,
    );
    let rec = Recorder::enabled();
    try_identify_over_with(
        &data,
        &protected,
        &params,
        Algorithm::Optimized,
        &rec.scope("id"),
    )
    .unwrap();
    let snap = rec.snapshot();
    let counter = |name| snap.counter("id", name).unwrap_or(0);
    let generated: usize = levels.iter().map(Vec::len).sum();
    assert_eq!(counter("candidates"), generated as u64);
    // every level-3 candidate but the planted one past the support was
    // rejected on its parent's list alone, so every level-2 parent keeps
    // a list; the kept node shares its parent {w00, w05} with rejected
    // siblings, so it too was counted on that list first and then
    // completed its map past it
    let kept_l3: Vec<u32> = levels[2]
        .iter()
        .copied()
        .filter(|m| kept.contains(m))
        .collect();
    assert_eq!(kept_l3, vec![past]);
    assert_eq!(counter("candidates_gated"), levels[2].len() as u64 - 1);
    let leaves = ShardCounts::scan_over(&data, &protected, 0).unwrap().len() as u64;
    assert!(
        counter("leaf_visits") < generated as u64 * leaves,
        "the gate saved no leaf visits"
    );
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
