//! End-to-end tests of the alternative neighborhood settings (the Fig. 8
//! ablation) and the ordered-distance extension.

use remedy_core::identify::{identify, identify_in_with, try_identify_over};
use remedy_core::{remedy, Algorithm, Hierarchy, IbsParams, Neighborhood, RemedyParams, Technique};
use remedy_dataset::{synth, Attribute, Dataset, Schema};
use remedy_obs::Scope as ObsScope;

#[test]
fn full_neighborhood_remedy_works_end_to_end() {
    let data = synth::compas_n(4_000, 21);
    let params = RemedyParams::builder()
        .technique(Technique::PreferentialSampling)
        .neighborhood(Neighborhood::Full)
        .build()
        .unwrap();
    let outcome = remedy(&data, &params);
    assert!(!outcome.updates.is_empty());
    // the full-neighborhood IBS should shrink
    let ibs_params = params.ibs_params();
    let before = identify(&data, &ibs_params, Algorithm::Optimized).len();
    let after = identify(&outcome.dataset, &ibs_params, Algorithm::Optimized).len();
    assert!(after < before, "full-T remedy: {before} → {after}");
}

#[test]
fn unit_and_full_neighborhoods_find_different_sets() {
    let data = synth::compas_n(4_000, 22);
    let unit = identify(&data, &IbsParams::default(), Algorithm::Optimized);
    let full_params = IbsParams::builder()
        .neighborhood(Neighborhood::Full)
        .build()
        .unwrap();
    let full = identify(&data, &full_params, Algorithm::Optimized);
    assert!(!unit.is_empty() && !full.is_empty());
    // the two notions usually disagree somewhere; at minimum the
    // neighbor ratios differ for some shared region
    let differs = unit.iter().any(|u| {
        full.iter()
            .find(|f| f.pattern == u.pattern)
            .is_some_and(|f| (f.neighbor_ratio - u.neighbor_ratio).abs() > 1e-9)
    });
    assert!(differs || unit.len() != full.len());
}

/// Ordered-radius identification on a dataset where the bias sits between
/// adjacent buckets of an ordered attribute: a radius-1 ball sees only the
/// adjacent buckets, radius-2 widens the contrast set.
#[test]
fn ordered_radius_identification_end_to_end() {
    let schema = Schema::new(
        vec![Attribute::from_strs("age", &["0", "1", "2", "3", "4"])
            .protected()
            .ordered()],
        "y",
    )
    .into_shared();
    let mut d = Dataset::new(schema);
    // positives concentrate in bucket 0; buckets 1..4 balanced
    for (bucket, pos, neg) in [
        (0u32, 90, 30),
        (1, 60, 60),
        (2, 60, 60),
        (3, 60, 60),
        (4, 60, 60),
    ] {
        for _ in 0..pos {
            d.push_row(&[bucket], 1).unwrap();
        }
        for _ in 0..neg {
            d.push_row(&[bucket], 0).unwrap();
        }
    }
    for radius in [1.0, 4.0] {
        let params = IbsParams::builder()
            .tau_c(0.5)
            .min_size(30)
            .neighborhood(Neighborhood::OrderedRadius(radius))
            .build()
            .unwrap();
        let ibs = identify(&d, &params, Algorithm::Naive);
        assert!(
            ibs.iter().any(|r| r.pattern.get(0) == Some(0)),
            "radius {radius}: bucket 0 must be flagged, got {ibs:?}"
        );
        // the refined metric enumerates through the shared NeighborModel,
        // so the algorithm choice cannot matter
        assert_eq!(ibs, identify(&d, &params, Algorithm::Optimized));
    }
}

/// The Fig. 8 ablation's missing half: remedy under the *same*
/// ordered-radius neighborhood used to audit. Re-identifying the remedied
/// dataset with identical `OrderedRadius(T)` params must yield a strictly
/// smaller (here: empty) IBS.
#[test]
fn ordered_radius_remedy_end_to_end() {
    let schema = Schema::new(
        vec![Attribute::from_strs("age", &["0", "1", "2", "3", "4"])
            .protected()
            .ordered()],
        "y",
    )
    .into_shared();
    let mut d = Dataset::new(schema);
    for (bucket, pos, neg) in [
        (0u32, 110, 10),
        (1, 60, 60),
        (2, 60, 60),
        (3, 60, 60),
        (4, 60, 60),
    ] {
        for _ in 0..pos {
            d.push_row(&[bucket], 1).unwrap();
        }
        for _ in 0..neg {
            d.push_row(&[bucket], 0).unwrap();
        }
    }
    for technique in Technique::ALL {
        let params = RemedyParams::builder()
            .technique(technique)
            .tau_c(2.0)
            .neighborhood(Neighborhood::OrderedRadius(1.0))
            .build()
            .unwrap();
        let ibs_params = params.ibs_params();
        let before = identify(&d, &ibs_params, Algorithm::Optimized).len();
        assert!(before > 0, "fixture must start biased");
        let outcome = remedy(&d, &params);
        assert!(!outcome.updates.is_empty(), "{technique} made no updates");
        let after = identify(&outcome.dataset, &ibs_params, Algorithm::Optimized).len();
        assert!(
            after < before,
            "{technique}: ordered-radius IBS must shrink, {before} → {after}"
        );
    }
}

#[test]
fn identify_over_custom_columns_matches_reprotected_schema() {
    let data = synth::adult_n(3_000, 8);
    // protect only {race, gender} two ways: via try_identify_over and a
    // reprotected schema — results must agree
    let race = data.schema().require("race").unwrap();
    let gender = data.schema().require("gender").unwrap();
    let by_cols = try_identify_over(
        &data,
        &[race, gender],
        &IbsParams::default(),
        Algorithm::Optimized,
    )
    .unwrap();
    let reprotected = data
        .with_schema(
            data.schema()
                .with_protected(&["race", "gender"])
                .unwrap()
                .into_shared(),
        )
        .unwrap();
    let by_schema = identify(&reprotected, &IbsParams::default(), Algorithm::Optimized);
    assert_eq!(by_cols.len(), by_schema.len());
    for (a, b) in by_cols.iter().zip(&by_schema) {
        assert_eq!(a.pattern, b.pattern);
        assert_eq!(a.counts, b.counts);
    }
}

#[test]
fn prebuilt_hierarchy_reuse_is_consistent() {
    let data = synth::compas_n(2_000, 6);
    let h = Hierarchy::try_build(&data).unwrap();
    let params = IbsParams::default();
    let from_data = identify(&data, &params, Algorithm::Optimized);
    let from_hierarchy = identify_in_with(&h, &params, Algorithm::Optimized, &ObsScope::disabled());
    assert_eq!(from_data, from_hierarchy);
}
