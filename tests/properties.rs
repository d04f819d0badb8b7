//! Randomized property tests over the core invariants.
//!
//! Driven by a seeded [`SplitRng`] loop instead of an external
//! property-testing framework (the build environment is offline). Each
//! property runs against a fixed number of generated cases; failures print
//! the case seed so they can be replayed by hardcoding it below.

use remedy::core::Hierarchy;
use remedy::core::{
    identify, remedy as remedy_data, Algorithm, IbsParams, Neighborhood, RemedyParams, Scope,
    Technique,
};
use remedy::dataset::split::{train_test_split, SplitRng};
use remedy::dataset::{Attribute, Dataset, Pattern, Schema};
use remedy::fairness::{Explorer, Statistic};
use remedy_baselines::reweight;

const CASES: u64 = 40;

/// Arbitrary small dataset: 2 protected attributes (cards 2 and 3), one
/// feature attribute (card 2), 40–300 rows.
fn arb_dataset(rng: &mut SplitRng) -> Dataset {
    let schema = Schema::new(
        vec![
            Attribute::from_strs("a", &["0", "1"]).protected(),
            Attribute::from_strs("b", &["0", "1", "2"]).protected(),
            Attribute::from_strs("f", &["0", "1"]),
        ],
        "y",
    )
    .into_shared();
    let mut d = Dataset::new(schema);
    let rows = 40 + rng.below(260);
    for _ in 0..rows {
        let a = rng.below(2) as u32;
        let b = rng.below(3) as u32;
        let f = rng.below(2) as u32;
        let y = rng.below(2) as u8;
        d.push_row(&[a, b, f], y).unwrap();
    }
    d
}

/// Arbitrary pattern over columns 0..3 with values 0..2, 0–2 terms.
fn arb_pattern(rng: &mut SplitRng) -> Pattern {
    let terms = rng.below(3);
    Pattern::from_terms((0..terms).map(|_| (rng.below(3), rng.below(2) as u32)))
}

/// The optimized Algorithm 1 computes exactly what the naïve algorithm
/// computes, for every neighborhood setting and every scope.
#[test]
fn naive_equals_optimized() {
    for case in 0..CASES {
        let mut rng = SplitRng::new(case + 1);
        let data = arb_dataset(&mut rng);
        let tau = rng.unit();
        let k = 1 + rng.below(39) as u64;
        let radius = 0.5 + 2.0 * rng.unit();
        for neighborhood in [
            Neighborhood::Unit,
            Neighborhood::Full,
            Neighborhood::OrderedRadius(radius),
        ] {
            for scope in [Scope::Lattice, Scope::Leaf, Scope::Top] {
                let params = IbsParams::builder()
                    .tau_c(tau)
                    .min_size(k)
                    .neighborhood(neighborhood)
                    .scope(scope)
                    .build()
                    .unwrap();
                let naive = identify(&data, &params, Algorithm::Naive);
                let optimized = identify(&data, &params, Algorithm::Optimized);
                assert_eq!(naive, optimized, "case {case}");
            }
        }
    }
}

/// Hierarchy counts agree with direct pattern filtering for every
/// non-empty region, and each node's regions partition the dataset.
#[test]
fn hierarchy_counts_are_exact_and_partition() {
    for case in 0..CASES {
        let mut rng = SplitRng::new(case + 100);
        let data = arb_dataset(&mut rng);
        let h = Hierarchy::try_build(&data).unwrap();
        for node in h.nodes() {
            let mut total = 0u64;
            for (&key, &counts) in &node.regions {
                let pattern = h.pattern_of(node.mask, key);
                let (pos, neg) = data.class_counts(&pattern);
                assert_eq!(counts.pos, pos as u64, "case {case}");
                assert_eq!(counts.neg, neg as u64, "case {case}");
                total += counts.total();
            }
            assert_eq!(total, data.len() as u64, "case {case}: partition");
        }
    }
}

/// Dominance is reflexive and transitive; direct generalizations always
/// dominate; mutual dominance implies equality.
#[test]
fn dominance_laws() {
    for case in 0..400 {
        let mut rng = SplitRng::new(case + 200);
        let p = arb_pattern(&mut rng);
        let q = arb_pattern(&mut rng);
        let r = arb_pattern(&mut rng);
        assert!(p.is_dominated_by(&p));
        if p.is_dominated_by(&q) && q.is_dominated_by(&r) {
            assert!(p.is_dominated_by(&r), "case {case}: transitivity");
        }
        for g in p.direct_generalizations() {
            assert!(p.is_dominated_by(&g), "case {case}");
        }
        if p.is_dominated_by(&q) && q.is_dominated_by(&p) {
            assert_eq!(p, q, "case {case}: antisymmetry");
        }
    }
}

/// Remedy post-condition (Leaf scope, massaging): every updated region's
/// imbalance gap shrinks toward the target.
#[test]
fn remedy_moves_ratios_toward_target() {
    for case in 0..CASES {
        let mut rng = SplitRng::new(case + 300);
        let data = arb_dataset(&mut rng);
        let params = RemedyParams::builder()
            .technique(Technique::Massaging)
            .tau_c(0.2)
            .min_size(10)
            .scope(Scope::Leaf)
            .seed(case)
            .build()
            .unwrap();
        let outcome = remedy_data(&data, &params);
        for update in &outcome.updates {
            let (pos, neg) = outcome.dataset.class_counts(&update.pattern);
            // massaging keeps |r| constant; ratio must be defined or the
            // region emptied one side entirely
            if neg > 0 {
                let after = pos as f64 / neg as f64;
                let gap_before = (update.ratio_before - update.target_ratio).abs();
                let gap_after = (after - update.target_ratio).abs();
                // Definition 6 rounds the flip count to the nearest
                // integer, so the final ratio may sit up to half a flip
                // from the target: |d ratio / d flip| ≈ (|r⁺|+|r⁻|)/|r⁻|²
                let slack = 0.5 * (pos + neg) as f64 / (neg as f64 * neg as f64) + 1e-9;
                assert!(
                    gap_after <= gap_before.max(slack),
                    "case {case}: gap grew: {gap_before} -> {gap_after} \
                     (target {}, slack {slack})",
                    update.target_ratio
                );
            }
        }
    }
}

/// Oversampling only ever adds rows; undersampling only removes; massaging
/// preserves the row count.
#[test]
fn technique_size_invariants() {
    for case in 0..CASES {
        let mut rng = SplitRng::new(case + 400);
        let data = arb_dataset(&mut rng);
        let with_technique = |technique| {
            RemedyParams::builder()
                .technique(technique)
                .min_size(10)
                .tau_c(0.1)
                .seed(case)
                .build()
                .unwrap()
        };
        let over = remedy_data(&data, &with_technique(Technique::Oversampling));
        assert!(over.dataset.len() >= data.len(), "case {case}");
        let under = remedy_data(&data, &with_technique(Technique::Undersampling));
        assert!(under.dataset.len() <= data.len(), "case {case}");
        let massage = remedy_data(&data, &with_technique(Technique::Massaging));
        assert_eq!(massage.dataset.len(), data.len(), "case {case}");
    }
}

/// Splits partition the dataset: sizes add up and class counts are
/// preserved.
#[test]
fn split_partitions() {
    for case in 0..CASES {
        let mut rng = SplitRng::new(case + 500);
        let data = arb_dataset(&mut rng);
        let frac = 0.1 + 0.8 * rng.unit();
        let (train, test) = train_test_split(&data, frac, case).unwrap();
        assert_eq!(train.len() + test.len(), data.len(), "case {case}");
        assert_eq!(
            train.positives() + test.positives(),
            data.positives(),
            "case {case}"
        );
    }
}

/// Reweighting produces positive weights and, for every subgroup with both
/// classes present, equalizes the weighted class distribution to the
/// dataset's. (Total weight is preserved exactly only when every
/// (subgroup, label) cell is non-empty.)
#[test]
fn reweighting_invariants() {
    for case in 0..CASES {
        let mut rng = SplitRng::new(case + 600);
        let data = arb_dataset(&mut rng);
        let w = reweight(&data);
        assert!(w.weights().iter().all(|&x| x > 0.0), "case {case}");
        let protected = data.schema().protected_indices();
        let overall_pos = data.positives() as f64 / data.len() as f64;
        // group rows by protected value tuple
        let mut groups: std::collections::HashMap<Vec<u32>, Vec<usize>> =
            std::collections::HashMap::new();
        for i in 0..data.len() {
            let key: Vec<u32> = protected.iter().map(|&a| data.value(i, a)).collect();
            groups.entry(key).or_default().push(i);
        }
        for rows in groups.values() {
            let has_pos = rows.iter().any(|&i| data.label(i) == 1);
            let has_neg = rows.iter().any(|&i| data.label(i) == 0);
            if !(has_pos && has_neg) {
                continue;
            }
            let w_pos: f64 = rows
                .iter()
                .filter(|&&i| w.label(i) == 1)
                .map(|&i| w.weight(i))
                .sum();
            let w_all: f64 = rows.iter().map(|&i| w.weight(i)).sum();
            assert!(
                (w_pos / w_all - overall_pos).abs() < 1e-9,
                "case {case}: group class distribution {} != overall {overall_pos}",
                w_pos / w_all
            );
        }
    }
}

/// Explorer reports are internally consistent: support matches size,
/// divergence is within [0, 1], counts match direct filtering.
#[test]
fn explorer_reports_consistent() {
    for case in 0..CASES {
        let mut rng = SplitRng::new(case + 700);
        let data = arb_dataset(&mut rng);
        let preds_seed = rng.below(50) as u64;
        // pseudo-random predictions derived from the seed
        let preds: Vec<u8> = (0..data.len())
            .map(|i| u8::from((i as u64).wrapping_mul(preds_seed + 7).is_multiple_of(3)))
            .collect();
        let reports = Explorer::default().explore(&data, &preds, Statistic::Fpr);
        for r in &reports {
            assert!(
                (r.support - r.size as f64 / data.len() as f64).abs() < 1e-12,
                "case {case}"
            );
            assert!((0.0..=1.0).contains(&r.divergence), "case {case}");
            assert!((0.0..=1.0).contains(&r.p_value), "case {case}");
            let expected = data.indices_matching(&r.pattern).len();
            assert_eq!(r.size, expected, "case {case}");
        }
    }
}

/// The imbalance-score sentinel appears exactly when a region has no
/// negatives.
#[test]
fn imbalance_sentinel() {
    let mut rng = SplitRng::new(800);
    for case in 0..1000 {
        let pos = rng.below(1000) as u64;
        let neg = rng.below(1000) as u64;
        let score = remedy::core::imbalance(pos, neg);
        if neg == 0 {
            assert_eq!(score, -1.0, "case {case}");
        } else {
            assert!(
                (score - pos as f64 / neg as f64).abs() < 1e-12,
                "case {case}"
            );
        }
    }
    assert_eq!(remedy::core::imbalance(5, 0), -1.0);
}
