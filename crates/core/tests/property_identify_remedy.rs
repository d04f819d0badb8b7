//! Seeded property-style tests: random small datasets — including cells
//! with zero negatives or zero positives, the sentinel-ratio edge, and
//! randomly ordered attributes — must satisfy the core invariants on
//! every draw:
//!
//! * identification agrees across Naive and Optimized, and across the
//!   dataset, merged-shard-counts, and maintained-index sources, under
//!   both enumerations, for Unit, Full, and OrderedRadius neighborhoods;
//! * remedy never emits an update whose `target_ratio` is negative (the
//!   −1 "undefined" sentinel must never leak into a target);
//! * ordered-radius remedy targets equal the ordered-neighbors ratios the
//!   identification side computes for the same regions.
//!
//! Each case is driven by the vendored seeded RNG, so failures reproduce
//! exactly from the printed seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use remedy_core::{
    identify, remedy, try_identify_counts_with, try_identify_in_index_with, Algorithm, Enumeration,
    Hierarchy, IbsParams, NeighborModel, NeighborTally, Neighborhood, RegionIndex, RemedyParams,
    Scope, ShardCounts, Technique,
};
use remedy_dataset::{Attribute, Dataset, Schema};
use remedy_obs::Scope as ObsScope;

/// A random dataset over 2–3 protected attributes with 2–3 values each;
/// each attribute is independently marked ordered with probability ½.
/// Roughly a quarter of the leaf cells are forced all-positive and another
/// quarter all-negative, so undefined imbalance ratios appear both in
/// regions and in their neighborhoods.
fn random_dataset(rng: &mut StdRng) -> Dataset {
    let n_attrs = rng.gen_range(2usize..=3);
    let cardinalities: Vec<usize> = (0..n_attrs).map(|_| rng.gen_range(2usize..=3)).collect();
    let attrs: Vec<Attribute> = cardinalities
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let values: Vec<String> = (0..c).map(|v| v.to_string()).collect();
            let refs: Vec<&str> = values.iter().map(String::as_str).collect();
            let attr = Attribute::from_strs(&format!("a{i}"), &refs).protected();
            if rng.gen_bool(0.5) {
                attr.ordered()
            } else {
                attr
            }
        })
        .collect();
    let mut data = Dataset::new(Schema::new(attrs, "y").into_shared());

    // enumerate every leaf cell and fill it with a random mix of labels
    let n_cells: usize = cardinalities.iter().product();
    for cell in 0..n_cells {
        let mut row = Vec::with_capacity(n_attrs);
        let mut rem = cell;
        for &c in &cardinalities {
            row.push((rem % c) as u32);
            rem /= c;
        }
        let rows = rng.gen_range(5usize..40);
        // 0 = mixed labels, 1 = all positive, 2 = all negative
        let kind = rng.gen_range(0usize..4).min(2);
        for _ in 0..rows {
            let label: u8 = match kind {
                1 => 1,
                2 => 0,
                _ => u8::from(rng.gen_bool(0.5)),
            };
            data.push_row(&row, label).unwrap();
        }
    }
    data
}

/// The three neighborhood shapes under test, with a random radius for the
/// ordered ball.
fn neighborhoods(rng: &mut StdRng) -> [Neighborhood; 3] {
    [
        Neighborhood::Unit,
        Neighborhood::Full,
        Neighborhood::OrderedRadius(rng.gen_range(0.5f64..2.5)),
    ]
}

#[test]
fn identification_agrees_across_algorithms_and_sources() {
    let off = ObsScope::disabled();
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = random_dataset(&mut rng);
        // a 2-way row split (even / odd rows): every cell holds ≥ 5 rows,
        // so both shards are non-empty
        let shards: Vec<ShardCounts> = (0..2)
            .map(|parity| {
                let rows: Vec<usize> = (parity..data.len()).step_by(2).collect();
                ShardCounts::scan(&data.subset(&rows), 1).unwrap()
            })
            .collect();
        let mut merged = shards[0].clone();
        merged.merge(&shards[1]).unwrap();
        let index = RegionIndex::try_build(&data).unwrap();
        for neighborhood in neighborhoods(&mut rng) {
            let dense = IbsParams::builder()
                .tau_c(rng.gen_range(0.05f64..0.5))
                .min_size(rng.gen_range(1u64..=10))
                .neighborhood(neighborhood)
                .scope(Scope::Lattice)
                .build()
                .unwrap();
            let naive = identify(&data, &dense, Algorithm::Naive);
            let mut pruned = dense.clone();
            pruned.enumeration = Enumeration::Pruned;
            for params in [&dense, &pruned] {
                let case = format!("seed {seed}, {neighborhood:?}, {:?}", params.enumeration);
                let optimized = identify(&data, params, Algorithm::Optimized);
                assert_eq!(naive, optimized, "{case}: Naive and Optimized disagree");
                let from_counts =
                    try_identify_counts_with(merged.clone(), params, Algorithm::Optimized, &off)
                        .unwrap();
                assert_eq!(
                    optimized, from_counts,
                    "{case}: merged shard counts disagree with the dataset"
                );
                let from_index =
                    try_identify_in_index_with(&index, params, Algorithm::Optimized, &off).unwrap();
                assert_eq!(
                    optimized, from_index,
                    "{case}: the region index disagrees with the dataset"
                );
            }
        }
    }
}

#[test]
fn remedy_targets_are_never_negative() {
    let techniques = [
        Technique::PreferentialSampling,
        Technique::Undersampling,
        Technique::Oversampling,
        Technique::Massaging,
    ];
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(1_000 + seed);
        let data = random_dataset(&mut rng);
        for neighborhood in neighborhoods(&mut rng) {
            let technique = techniques[rng.gen_range(0usize..techniques.len())];
            let params = RemedyParams::builder()
                .technique(technique)
                .tau_c(rng.gen_range(0.05f64..0.5))
                .min_size(rng.gen_range(1u64..=10))
                .neighborhood(neighborhood)
                .seed(seed)
                .build()
                .unwrap();
            let outcome = remedy(&data, &params);
            for update in &outcome.updates {
                assert!(
                    update.target_ratio >= 0.0,
                    "seed {seed}, {technique:?}, {neighborhood:?}: sentinel target leaked \
                     into {:?} (target_ratio = {})",
                    update.pattern,
                    update.target_ratio
                );
            }
            // the remedied dataset is still well-formed for another pass
            let ibs = params.ibs_params();
            let again = identify(&outcome.dataset, &ibs, Algorithm::Optimized);
            let naive = identify(&outcome.dataset, &ibs, Algorithm::Naive);
            assert_eq!(
                again, naive,
                "seed {seed}, {neighborhood:?}: post-remedy drivers disagree"
            );
        }
    }
}

/// Ordered-radius remedy targets must equal the `ordered_neighbors` ratios
/// the identification side computes for the same regions. With
/// `Scope::Leaf` the remedy's one node snapshot is exactly the original
/// dataset, so the equality is bit-for-bit, not approximate.
#[test]
fn ordered_remedy_targets_equal_ordered_neighbor_ratios() {
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(2_000 + seed);
        let data = random_dataset(&mut rng);
        let radius = rng.gen_range(0.5f64..2.5);
        let params = RemedyParams::builder()
            .technique(Technique::Massaging)
            .tau_c(rng.gen_range(0.05f64..0.5))
            .min_size(rng.gen_range(1u64..=10))
            .neighborhood(Neighborhood::OrderedRadius(radius))
            .scope(Scope::Leaf)
            .seed(seed)
            .build()
            .unwrap();
        let outcome = remedy(&data, &params);

        let hierarchy = Hierarchy::try_build(&data).unwrap();
        let leaf_mask = (1u32 << hierarchy.arity()) - 1;
        let leaf = hierarchy.node(leaf_mask);
        let model = NeighborModel::for_node(
            &hierarchy,
            leaf,
            Neighborhood::OrderedRadius(radius),
            Algorithm::Optimized,
        );
        assert!(
            outcome.updates.iter().all(|u| u.target_ratio >= 0.0),
            "seed {seed}: negative target"
        );
        for update in &outcome.updates {
            let (mask, key) = hierarchy
                .pack(&update.pattern)
                .expect("update pattern must pack into the hierarchy");
            assert_eq!(
                mask, leaf_mask,
                "seed {seed}: non-leaf update under Scope::Leaf"
            );
            let own = hierarchy.counts(mask, key);
            let expected = model
                .neighbor_counts(key, own, &mut NeighborTally::default())
                .imbalance();
            assert_eq!(
                update.target_ratio, expected,
                "seed {seed}: remedy target diverged from ordered_neighbors ratio for {:?}",
                update.pattern
            );
        }
    }
}
