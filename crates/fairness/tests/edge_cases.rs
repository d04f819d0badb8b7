//! Edge-case coverage for the fairness crate's public surface.

use remedy_dataset::{Attribute, Dataset, Schema};
use remedy_fairness::violation::fairness_violation_with_group;
use remedy_fairness::{
    audit, fairness_index, AuditConfig, Explorer, FairnessIndexParams, Statistic,
};

fn two_attr_setup() -> (Dataset, Vec<u8>) {
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
    let mut preds = Vec::new();
    for a in 0..2u32 {
        for b in 0..3u32 {
            for i in 0..40 {
                let y = u8::from(i % 2 == 0);
                d.push_row(&[a, b, (i % 2) as u32], y).unwrap();
                preds.push(u8::from(a == 1 && b == 2 || (y == 1 && i % 4 == 0)));
            }
        }
    }
    (d, preds)
}

#[test]
fn custom_columns_span_every_level() {
    let (d, preds) = two_attr_setup();
    let explorer = Explorer {
        columns: Some(vec![0, 1, 2]),
        ..Explorer::default()
    };
    let reports = explorer.explore(&d, &preds, Statistic::Fpr).unwrap();
    let level_one = reports.iter().filter(|r| r.pattern.level() == 1).count();
    // level-1 patterns over three columns with cards 2+3+2 = 7 patterns
    assert_eq!(level_one, 7);
    // every cell of the (2+1)(3+1)(2+1) − 1 lattice holds ≥ 20 rows
    assert_eq!(reports.len(), 35);
}

#[test]
fn explorer_results_sorted_by_divergence() {
    let (d, preds) = two_attr_setup();
    let reports = Explorer::default()
        .explore(&d, &preds, Statistic::Fpr)
        .unwrap();
    for w in reports.windows(2) {
        assert!(w[0].divergence >= w[1].divergence - 1e-12);
    }
}

#[test]
fn fairness_index_zero_for_perfect_predictions() {
    let (d, _) = two_attr_setup();
    let perfect: Vec<u8> = d.labels().to_vec();
    for stat in [Statistic::Fpr, Statistic::Fnr] {
        assert_eq!(
            fairness_index(&d, &perfect, stat, &FairnessIndexParams::default()).unwrap(),
            0.0
        );
    }
}

#[test]
fn violation_group_is_stable_given_ties() {
    // two symmetric groups with the same violation: the tie-break must be
    // deterministic across calls
    let schema = Schema::new(
        vec![Attribute::from_strs("g", &["a", "b"]).protected()],
        "y",
    )
    .into_shared();
    let mut d = Dataset::new(schema);
    let mut preds = Vec::new();
    for g in 0..2u32 {
        for i in 0..50 {
            d.push_row(&[g], 0).unwrap();
            preds.push(u8::from(g == 0 && i < 25)); // only group a gets FPs
        }
    }
    let (v1, g1) = fairness_violation_with_group(&d, &preds, Statistic::Fpr, 1).unwrap();
    let (v2, g2) = fairness_violation_with_group(&d, &preds, Statistic::Fpr, 1).unwrap();
    assert_eq!(v1, v2);
    assert_eq!(g1, g2);
    assert!(v1 > 0.0);
}

#[test]
fn audit_supports_custom_statistics() {
    let (d, preds) = two_attr_setup();
    let config = AuditConfig {
        statistics: vec![Statistic::SelectionRate, Statistic::Accuracy],
        ..AuditConfig::default()
    };
    let report = audit(&d, &preds, &config).unwrap();
    assert_eq!(report.sections.len(), 2);
    assert_eq!(report.sections[0].statistic, Statistic::SelectionRate);
    let text = report.to_string();
    assert!(text.contains("γ = SEL"));
    assert!(text.contains("γ = ACC"));
}

#[test]
fn audit_report_fields_are_consistent() {
    let (d, preds) = two_attr_setup();
    let report = audit(&d, &preds, &AuditConfig::default()).unwrap();
    assert_eq!(report.confusion.total(), d.len());
    for section in &report.sections {
        assert!(section.fairness_index >= 0.0);
        assert!(section.worst_violation >= 0.0);
        for sub in &section.unfair_subgroups {
            assert!(sub.divergence > 0.1, "τ_d filter must hold");
            assert!(sub.significant);
        }
    }
}
