//! Cross-model behavioural tests: weight sensitivity, generalization on
//! the synthetic study data, and the grid-search/CV plumbing working
//! together.

use remedy_classifiers::{
    accuracy, cost_proportionate, cross_validate, CostMatrix, GridSearch, Model, ModelKind,
    NeuralNetwork, NeuralNetworkParams, RandomForest, RandomForestParams,
};
use remedy_dataset::split::train_test_split;
use remedy_dataset::{synth, Attribute, Dataset, Schema};

#[test]
fn all_models_generalize_on_compas() {
    let data = synth::compas_n(4_000, 17);
    let (train_set, test_set) = train_test_split(&data, 0.7, 17).unwrap();
    for kind in ModelKind::ALL {
        let model = kind.fit(&train_set, 17);
        let acc = accuracy(&model.predict(&test_set), test_set.labels());
        // the generative process is noisy; anything well above the base
        // rate shows real learning
        let base_rate = test_set.prevalence().max(1.0 - test_set.prevalence());
        assert!(
            acc > base_rate - 0.02,
            "{kind}: accuracy {acc} vs base rate {base_rate}"
        );
        assert!(acc > 0.55, "{kind}: accuracy {acc}");
    }
}

#[test]
fn forest_weights_shift_predictions() {
    // identical features, weights decide the majority
    let schema = Schema::new(vec![Attribute::from_strs("a", &["0"])], "y").into_shared();
    let mut d = Dataset::new(schema);
    for _ in 0..50 {
        d.push_row_weighted(&[0], 1, 5.0).unwrap();
        d.push_row_weighted(&[0], 0, 1.0).unwrap();
    }
    let forest = RandomForest::fit(&d, &RandomForestParams::default(), 3);
    assert_eq!(forest.predict_row(&[0]), 1);
    let p = forest.predict_proba_row(&[0]);
    assert!(p > 0.7, "weighted bootstrap should favour positives: {p}");
}

#[test]
fn mlp_weights_shift_predictions() {
    let schema = Schema::new(vec![Attribute::from_strs("a", &["0"])], "y").into_shared();
    let mut d = Dataset::new(schema);
    for _ in 0..50 {
        d.push_row_weighted(&[0], 1, 6.0).unwrap();
        d.push_row_weighted(&[0], 0, 1.0).unwrap();
    }
    let nn = NeuralNetwork::fit(&d, &NeuralNetworkParams::default(), 3);
    assert_eq!(nn.predict_row(&[0]), 1);
}

#[test]
fn cost_weighting_moves_the_operating_point() {
    // on real-ish data, favoring recall must not decrease the number of
    // positive predictions
    let data = synth::compas_n(2_000, 19);
    let plain = ModelKind::DecisionTree.fit(&data, 19);
    let plain_positives: u32 = plain.predict(&data).iter().map(|&p| u32::from(p)).sum();
    let costed_data = cost_proportionate(&data, CostMatrix::favor_recall(4.0));
    let costed = ModelKind::DecisionTree.fit(&costed_data, 19);
    let costed_positives: u32 = costed.predict(&data).iter().map(|&p| u32::from(p)).sum();
    assert!(
        costed_positives >= plain_positives,
        "recall-favoring costs should predict at least as many positives: \
         {costed_positives} vs {plain_positives}"
    );
}

#[test]
fn grid_search_and_cv_agree_on_learnability() {
    let data = synth::compas_n(2_000, 23);
    let gs = GridSearch::new(ModelKind::DecisionTree).run(&data);
    let cv = cross_validate(&data, ModelKind::DecisionTree, 5, 23);
    // both estimates must be in the same ballpark (no train/test leakage
    // artifacts)
    assert!(
        (gs.validation_accuracy - cv.mean()).abs() < 0.1,
        "grid {} vs cv {}",
        gs.validation_accuracy,
        cv.mean()
    );
}

#[test]
fn predictions_are_deterministic_across_calls() {
    let data = synth::compas_n(1_000, 29);
    for kind in ModelKind::ALL {
        let model = kind.fit(&data, 29);
        assert_eq!(model.predict(&data), model.predict(&data), "{kind}");
    }
}
