//! Cross-crate integration tests: the full dataset → IBS → remedy →
//! classifier → fairness pipeline.

use remedy::classifiers::{accuracy, Model, ModelKind};
use remedy::core::{
    identify, remedy as remedy_data, Algorithm, Enumeration, IbsParams, RemedyParams, Scope,
    Technique,
};
use remedy::dataset::split::train_test_split;
use remedy::dataset::{synth, Dataset};
use remedy::fairness::{fairness_index, FairnessIndexParams, Statistic};
use std::collections::BTreeSet;

/// The paper's headline claim end-to-end: remedying the training data
/// lowers the subgroup fairness index of a downstream model without
/// destroying accuracy.
#[test]
fn remedy_mitigates_subgroup_unfairness() {
    let data = synth::compas(42);
    let (train_set, test_set) = train_test_split(&data, 0.7, 42).unwrap();
    let fi = FairnessIndexParams::default();

    let base_model = ModelKind::DecisionTree.fit(&train_set, 42);
    let base_preds = base_model.predict(&test_set);
    let base_fi_fpr = fairness_index(&test_set, &base_preds, Statistic::Fpr, &fi).unwrap();
    let base_fi_fnr = fairness_index(&test_set, &base_preds, Statistic::Fnr, &fi).unwrap();
    let base_acc = accuracy(&base_preds, test_set.labels());

    let outcome = remedy_data(&train_set, &RemedyParams::default());
    let model = ModelKind::DecisionTree.fit(&outcome.dataset, 42);
    let preds = model.predict(&test_set);
    let fi_fpr = fairness_index(&test_set, &preds, Statistic::Fpr, &fi).unwrap();
    let fi_fnr = fairness_index(&test_set, &preds, Statistic::Fnr, &fi).unwrap();
    let acc = accuracy(&preds, test_set.labels());

    assert!(
        fi_fpr < base_fi_fpr * 0.7,
        "FPR index should improve markedly: {base_fi_fpr} → {fi_fpr}"
    );
    // the paper: both statistics improve simultaneously (§V-B2)
    assert!(
        fi_fnr < base_fi_fnr,
        "FNR index should improve too: {base_fi_fnr} → {fi_fnr}"
    );
    assert!(
        base_acc - acc < 0.1,
        "accuracy drop must stay below 0.1: {base_acc} → {acc}"
    );
}

/// Remedying with each technique keeps datasets structurally valid.
#[test]
fn all_techniques_produce_valid_datasets() {
    let data = synth::compas_n(2_000, 5);
    for technique in Technique::ALL {
        let outcome = remedy_data(
            &data,
            &RemedyParams::builder()
                .technique(technique)
                .build()
                .unwrap(),
        );
        let d = &outcome.dataset;
        assert!(!d.is_empty(), "{technique}: dataset empty");
        for i in 0..d.len() {
            assert!(d.label(i) <= 1);
            for col in 0..d.schema().len() {
                assert!((d.value(i, col) as usize) < d.schema().attribute(col).cardinality());
            }
        }
        // massaging must preserve size exactly; undersampling never grows;
        // oversampling never shrinks
        match technique {
            Technique::Massaging => assert_eq!(d.len(), data.len()),
            Technique::Undersampling => assert!(d.len() <= data.len()),
            Technique::Oversampling => assert!(d.len() >= data.len()),
            Technique::PreferentialSampling => {}
        }
    }
}

/// The naïve and optimized identification algorithms agree on every
/// dataset and scope.
#[test]
fn identification_algorithms_agree_end_to_end() {
    for (name, data) in [
        ("compas", synth::compas_n(3_000, 1)),
        ("law", synth::law_school_n(2_000, 1)),
        ("adult", synth::adult_n(3_000, 1)),
    ] {
        for scope in [Scope::Lattice, Scope::Leaf, Scope::Top] {
            let params = IbsParams::builder().scope(scope).build().unwrap();
            let naive = identify(&data, &params, Algorithm::Naive);
            let optimized = identify(&data, &params, Algorithm::Optimized);
            assert_eq!(naive, optimized, "{name}/{scope:?}");
        }
    }
}

/// Lattice-scope identification finds at least as many biased regions as
/// either restricted scope.
#[test]
fn lattice_scope_subsumes_leaf_and_top() {
    let data = synth::compas_n(3_000, 9);
    let count = |scope| {
        identify(
            &data,
            &IbsParams::builder().scope(scope).build().unwrap(),
            Algorithm::Optimized,
        )
        .len()
    };
    let lattice = count(Scope::Lattice);
    assert!(lattice >= count(Scope::Leaf));
    assert!(lattice >= count(Scope::Top));
}

/// Fig. 7's shape: raising τ_c only removes regions from the IBS. Each
/// step's `(mask, key)` set is a subset of the previous step's, under
/// both enumerations (Definition 5 and the sentinel rules of `is_biased`
/// are monotone in τ_c).
#[test]
fn tau_sweep_only_shrinks_the_ibs() {
    for data in [synth::compas_n(3_000, 9), synth::adult_n(5_000, 9)] {
        for enumeration in [Enumeration::Dense, Enumeration::Pruned] {
            let ibs_at = |tau_c: f64| -> BTreeSet<(u32, u128)> {
                let params = IbsParams::builder()
                    .tau_c(tau_c)
                    .enumeration(enumeration)
                    .build()
                    .unwrap();
                identify(&data, &params, Algorithm::Optimized)
                    .iter()
                    .map(|r| (r.mask, r.key))
                    .collect()
            };
            let sweep: Vec<_> = (0..10).map(|i| ibs_at(f64::from(i) / 10.0)).collect();
            for (i, pair) in sweep.windows(2).enumerate() {
                assert!(
                    pair[1].is_subset(&pair[0]),
                    "{enumeration:?}: τ_c = 0.{} added regions",
                    i + 1
                );
            }
            assert!(sweep[9].len() < sweep[0].len(), "{enumeration:?}");
        }
    }
}

/// IBS size before and after one remedy, identified with the remedy's
/// own `τ_c` and scope (default `k` and neighborhood).
fn ibs_sizes(data: &Dataset, technique: Technique, scope: Scope, tau_c: f64) -> (usize, usize) {
    let ibs = IbsParams::builder()
        .tau_c(tau_c)
        .scope(scope)
        .build()
        .unwrap();
    let params = RemedyParams::builder()
        .technique(technique)
        .scope(scope)
        .tau_c(tau_c)
        .build()
        .unwrap();
    let remedied = remedy_data(data, &params).dataset;
    let size = |d: &Dataset| identify(d, &ibs, Algorithm::Optimized).len();
    (size(data), size(&remedied))
}

/// "Remedy never grows the IBS" does not hold: oversampling the whole
/// Adult lattice at the default `τ_c` = 0.1 grows this input from 5 000
/// to 55 467 rows and its IBS from 1 066 to 3 598 regions. At the
/// paper's Adult `τ_c` = 0.5 the same remedy shrinks the IBS (113 → 5).
#[test]
fn lattice_oversampling_grows_the_adult_ibs_at_low_tau() {
    let data = synth::adult_n(5_000, 7);
    let (before, after) = ibs_sizes(&data, Technique::Oversampling, Scope::Lattice, 0.1);
    assert!(after > before, "τ_c 0.1: {before} → {after}");
    let (before, after) = ibs_sizes(&data, Technique::Oversampling, Scope::Lattice, 0.5);
    assert!(after < before, "τ_c 0.5: {before} → {after}");
}

/// Every other technique × scope at `τ_c` = 0.1 shrinks the IBS or
/// leaves its size unchanged, on all three datasets.
#[test]
fn remedy_grows_the_ibs_only_under_lattice_oversampling() {
    for (name, data) in [
        ("compas", synth::compas_n(3_000, 7)),
        ("adult", synth::adult_n(5_000, 7)),
        ("law", synth::law_school_n(3_000, 7)),
    ] {
        for technique in Technique::ALL {
            for scope in [Scope::Lattice, Scope::Leaf, Scope::Top] {
                if (technique, scope) == (Technique::Oversampling, Scope::Lattice) {
                    continue;
                }
                let (before, after) = ibs_sizes(&data, technique, scope, 0.1);
                assert!(
                    after <= before,
                    "{name} {technique}/{scope:?}: {before} → {after}"
                );
            }
        }
    }
}

/// Seeds fully determine the pipeline: same inputs, same outputs.
#[test]
fn pipeline_is_reproducible() {
    let data = synth::law_school_n(1_500, 3);
    let params = RemedyParams::default();
    let o1 = remedy_data(&data, &params);
    let o2 = remedy_data(&data, &params);
    assert_eq!(o1.dataset, o2.dataset);
    let m1 = ModelKind::RandomForest.fit(&o1.dataset, 3);
    let m2 = ModelKind::RandomForest.fit(&o2.dataset, 3);
    assert_eq!(m1.predict(&data), m2.predict(&data));
}

/// Remedy never touches the test set: evaluation uses the untouched data.
#[test]
fn test_set_stays_untouched() {
    let data = synth::compas_n(2_000, 4);
    let (train_set, test_set) = train_test_split(&data, 0.7, 4).unwrap();
    let before = test_set.clone();
    let _ = remedy_data(&train_set, &RemedyParams::default());
    assert_eq!(test_set, before);
}
