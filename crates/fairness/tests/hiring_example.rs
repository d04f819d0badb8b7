//! The paper's §VI statistical-parity example, encoded as a test:
//!
//! > "in a hiring model that considers race and gender as protected
//! > attributes, the acceptance rate for green females and purple males is
//! > 50%, while it is 0% for green males and purple females. Analyzing
//! > each attribute independently would suggest fairness, but our method
//! > could detect representation bias in each subgroup."

use remedy_dataset::{Attribute, Dataset, Pattern, Schema};
use remedy_fairness::{Explorer, Statistic};

fn hiring_setup() -> (Dataset, Vec<u8>) {
    let schema = Schema::new(
        vec![
            Attribute::from_strs("race", &["green", "purple"]).protected(),
            Attribute::from_strs("gender", &["male", "female"]).protected(),
        ],
        "hired",
    )
    .into_shared();
    let mut d = Dataset::new(schema);
    let mut preds = Vec::new();
    for race in 0..2u32 {
        for gender in 0..2u32 {
            // 50% acceptance for (green, female) and (purple, male),
            // 0% for (green, male) and (purple, female)
            let favored = (race == 0 && gender == 1) || (race == 1 && gender == 0);
            for i in 0..100 {
                d.push_row(&[race, gender], 0).unwrap(); // labels irrelevant for parity
                preds.push(u8::from(favored && i % 2 == 0));
            }
        }
    }
    (d, preds)
}

#[test]
fn marginal_groups_look_fair() {
    let (d, preds) = hiring_setup();
    let reports = Explorer::default()
        .explore(&d, &preds, Statistic::SelectionRate)
        .unwrap();
    // every single-attribute group has selection rate 0.25 == overall
    for r in reports.iter().filter(|r| r.pattern.level() == 1) {
        assert!(
            r.divergence < 1e-12,
            "marginal group {} should look fair, divergence {}",
            r.pattern.display(d.schema()),
            r.divergence
        );
        assert!(!r.significant);
    }
}

#[test]
fn intersections_reveal_the_disparity() {
    let (d, preds) = hiring_setup();
    let reports = Explorer::default()
        .explore(&d, &preds, Statistic::SelectionRate)
        .unwrap();
    let gm = Pattern::from_names(d.schema(), &[("race", "green"), ("gender", "male")]).unwrap();
    let gf = Pattern::from_names(d.schema(), &[("race", "green"), ("gender", "female")]).unwrap();
    let report_gm = reports.iter().find(|r| r.pattern == gm).unwrap();
    let report_gf = reports.iter().find(|r| r.pattern == gf).unwrap();
    // green males: 0% acceptance vs 25% overall
    assert!((report_gm.gamma - 0.0).abs() < 1e-12);
    assert!((report_gm.divergence - 0.25).abs() < 1e-12);
    assert!(report_gm.significant);
    // green females: 50% acceptance vs 25% overall
    assert!((report_gf.gamma - 0.5).abs() < 1e-12);
    assert!((report_gf.divergence - 0.25).abs() < 1e-12);
    assert!(report_gf.significant);
}

#[test]
fn unfair_subgroups_are_exactly_the_four_intersections() {
    let (d, preds) = hiring_setup();
    let unfair = Explorer::default()
        .unfair_subgroups(&d, &preds, Statistic::SelectionRate, 0.1)
        .unwrap();
    assert_eq!(unfair.len(), 4, "{unfair:?}");
    assert!(unfair.iter().all(|r| r.pattern.level() == 2));
}
