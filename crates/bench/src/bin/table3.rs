//! Table III — comparison with subgroup-unfairness mitigation baselines.
//!
//! ```text
//! cargo run -p remedy-bench --bin table3 --release
//! ```
//!
//! Adult stand-in, protected set `X = {race, gender}` (as in FairBalance's
//! evaluation), logistic regression as the downstream model for all
//! pre-processing methods (linear, like the GerryFair learner). Reports
//! GerryFair's *fairness violation* metric (worst subgroup divergence ×
//! subgroup mass, γ = FPR), model accuracy, and the mitigation step's
//! wall-clock time.
//!
//! Expected shape (Table III): Coverage does not improve the violation but
//! helps accuracy; Reweighting and GerryFair reach the lowest violations;
//! FairBalance and Fair-SMOTE trade accuracy for fairness; Fair-SMOTE and
//! GerryFair are orders of magnitude slower than the rest; Remedy sits
//! near the best violations at a small accuracy cost.

use remedy_baselines::{
    coverage_augment, fair_smote, fairbalance_weights, reweight, CoverageParams, FairSmoteParams,
    GerryFair,
};
use remedy_bench::datasets::{load, DatasetSpec};
use remedy_bench::eval::paper_split;
use remedy_bench::table::{f3, f4, TsvWriter};
use remedy_bench::timing::time_it;
use remedy_classifiers::{accuracy, LogisticRegression, LogisticRegressionParams, Model};
use remedy_core::{remedy, RemedyParams, Technique};
use remedy_dataset::Dataset;
use remedy_fairness::{fairness_violation, Statistic};

fn main() {
    let seed = 42;
    let adult = load(DatasetSpec::Adult, seed);
    // X = {race, gender} as in the paper's §V-B4
    let schema = adult
        .schema()
        .with_protected(&["race", "gender"])
        .expect("attributes exist")
        .into_shared();
    let data = adult.with_schema(schema).expect("same layout");
    let (train_set, test_set) = paper_split(&data, seed);

    let mut table = TsvWriter::new(
        "table3_baselines",
        &["approach", "fairness violation", "accuracy", "time (s)"],
    );

    // Original
    let (model, _) = time_it(|| lg(&train_set));
    report(&mut table, "Original", &*model, &test_set, None);

    // Remedy (ours): τ_c = 0.1, T = 1, preferential sampling
    let (remedied, secs) = time_it(|| {
        remedy(
            &train_set,
            &RemedyParams::builder()
                .technique(Technique::PreferentialSampling)
                .tau_c(0.1)
                .build()
                .unwrap(),
        )
        .dataset
    });
    report(&mut table, "Remedy", &*lg(&remedied), &test_set, Some(secs));

    // Coverage
    let (covered, secs) = time_it(|| coverage_augment(&train_set, &CoverageParams::default()).0);
    report(
        &mut table,
        "Coverage",
        &*lg(&covered),
        &test_set,
        Some(secs),
    );

    // FairBalance
    let (balanced, secs) = time_it(|| fairbalance_weights(&train_set));
    report(
        &mut table,
        "FairBalance",
        &*lg(&balanced),
        &test_set,
        Some(secs),
    );

    // Fair-SMOTE (candidate pool capped; see module docs)
    let (smoted, secs) = time_it(|| {
        fair_smote(
            &train_set,
            &FairSmoteParams {
                candidate_cap: 512,
                ..FairSmoteParams::default()
            },
        )
    });
    report(
        &mut table,
        "Fair-SMOTE",
        &*lg(&smoted),
        &test_set,
        Some(secs),
    );

    // Reweighting
    let (reweighted, secs) = time_it(|| reweight(&train_set));
    report(
        &mut table,
        "Reweighting",
        &*lg(&reweighted),
        &test_set,
        Some(secs),
    );

    // GerryFair (in-processing: the time is the full training)
    let (gf, secs) = time_it(|| GerryFair::default().fit(&train_set));
    report(&mut table, "GerryFair", &gf, &test_set, Some(secs));

    table.finish();
}

fn lg(train_set: &Dataset) -> Box<LogisticRegression> {
    Box::new(LogisticRegression::fit(
        train_set,
        &LogisticRegressionParams::default(),
    ))
}

fn report(
    table: &mut TsvWriter,
    name: &str,
    model: &dyn Model,
    test_set: &Dataset,
    secs: Option<f64>,
) {
    let predictions = model.predict(test_set);
    let violation = fairness_violation(test_set, &predictions, Statistic::Fpr, 30).unwrap();
    let acc = accuracy(&predictions, test_set.labels());
    table.row(&[
        name.to_string(),
        f4(violation),
        f3(acc),
        secs.map(|s| format!("{s:.2}"))
            .unwrap_or_else(|| "-".into()),
    ]);
}
