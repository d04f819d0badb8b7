//! Cross-baseline behavioural tests on the synthetic COMPAS stand-in —
//! the qualitative claims of Table III, asserted in miniature.

use remedy_baselines::{
    coverage_augment, fair_smote, fairbalance_weights, reweight, CoverageParams, FairSmoteParams,
    GerryFair,
};
use remedy_classifiers::{accuracy, LogisticRegression, LogisticRegressionParams, Model};
use remedy_dataset::split::train_test_split;
use remedy_dataset::{synth, Dataset};
use remedy_fairness::{fairness_violation, Statistic};

fn lg(data: &Dataset) -> LogisticRegression {
    LogisticRegression::fit(data, &LogisticRegressionParams::default())
}

fn setup() -> (Dataset, Dataset, f64, f64) {
    let data = synth::compas_n(4_000, 13);
    let (train, test) = train_test_split(&data, 0.7, 13).unwrap();
    let base = lg(&train);
    let preds = base.predict(&test);
    let violation = fairness_violation(&test, &preds, Statistic::Fpr, 30).unwrap();
    let acc = accuracy(&preds, test.labels());
    (train, test, violation, acc)
}

#[test]
fn reweighting_reduces_violation() {
    let (train, test, base_violation, _) = setup();
    let model = lg(&reweight(&train));
    let v = fairness_violation(&test, &model.predict(&test), Statistic::Fpr, 30).unwrap();
    assert!(v < base_violation, "{v} !< {base_violation}");
}

#[test]
fn fairbalance_reduces_violation_but_costs_accuracy() {
    let (train, test, base_violation, base_acc) = setup();
    let model = lg(&fairbalance_weights(&train));
    let preds = model.predict(&test);
    let v = fairness_violation(&test, &preds, Statistic::Fpr, 30).unwrap();
    assert!(v < base_violation, "{v} !< {base_violation}");
    // the forced 1:1 balance on imbalanced data costs accuracy (Table III)
    let acc = accuracy(&preds, test.labels());
    assert!(acc <= base_acc + 0.01, "{acc} vs {base_acc}");
}

#[test]
fn fair_smote_reduces_violation() {
    let (train, test, base_violation, _) = setup();
    let smoted = fair_smote(
        &train,
        &FairSmoteParams {
            candidate_cap: 128,
            ..FairSmoteParams::default()
        },
    );
    let model = lg(&smoted);
    let v = fairness_violation(&test, &model.predict(&test), Statistic::Fpr, 30).unwrap();
    assert!(v < base_violation, "{v} !< {base_violation}");
}

#[test]
fn coverage_does_not_reduce_violation() {
    // Table III's observation: lack of *coverage* is not what drives the
    // subgroup divergence, so fixing it leaves the violation ~unchanged
    let (train, test, base_violation, _) = setup();
    let (covered, _) = coverage_augment(&train, &CoverageParams::default());
    let model = lg(&covered);
    let v = fairness_violation(&test, &model.predict(&test), Statistic::Fpr, 30).unwrap();
    // qualitative Table III claim: whatever incidental shift coverage
    // causes, it is far weaker than a method that targets class balance
    let v_rw = fairness_violation(
        &test,
        &lg(&reweight(&train)).predict(&test),
        Statistic::Fpr,
        30,
    )
    .unwrap();
    assert!(
        v > base_violation * 0.5,
        "coverage should not materially improve the violation: {v} vs {base_violation}"
    );
    assert!(
        base_violation - v < (base_violation - v_rw) * 0.8,
        "coverage ({v}) must improve much less than reweighting ({v_rw})"
    );
}

#[test]
fn gerryfair_reaches_lowest_violation() {
    let (train, test, base_violation, _) = setup();
    let gf = GerryFair::default().fit(&train);
    let v_gf = fairness_violation(&test, &gf.predict(&test), Statistic::Fpr, 30).unwrap();
    assert!(v_gf < base_violation, "{v_gf} !< {base_violation}");
    // and it should be competitive with reweighting, the best pre-processor
    let rw = lg(&reweight(&train));
    let v_rw = fairness_violation(&test, &rw.predict(&test), Statistic::Fpr, 30).unwrap();
    assert!(
        v_gf <= v_rw * 2.0,
        "gerryfair ({v_gf}) should be near the best pre-processor ({v_rw})"
    );
}

#[test]
fn all_preprocessors_keep_datasets_valid() {
    let (train, _, _, _) = setup();
    for data in [
        reweight(&train),
        fairbalance_weights(&train),
        coverage_augment(&train, &CoverageParams::default()).0,
        fair_smote(
            &train,
            &FairSmoteParams {
                candidate_cap: 64,
                ..FairSmoteParams::default()
            },
        ),
    ] {
        assert!(!data.is_empty());
        assert!(data.weights().iter().all(|&w| w > 0.0));
        for i in 0..data.len() {
            assert!(data.label(i) <= 1);
        }
    }
}
