//! Full model lifecycle: profile data → remedy → train → persist →
//! reload → audit.
//!
//! ```text
//! cargo run --example model_lifecycle --release
//! ```
//!
//! Demonstrates the production surface around the core pipeline: dataset
//! profiling, model persistence (versioned text format), the Markdown
//! audit report, and the classical two-group fairness metrics.

use remedy::classifiers::persist;
use remedy::classifiers::{Model, ModelKind};
use remedy::core::{remedy as remedy_data, RemedyParams};
use remedy::dataset::split::train_test_split;
use remedy::dataset::{profile, synth};
use remedy::fairness::group::group_fairness;
use remedy::fairness::{audit, AuditConfig};

fn main() {
    // 1. inspect the data
    let data = synth::compas(42);
    let prof = profile(&data);
    println!("=== dataset profile (excerpt) ===");
    for attr in prof.attributes.iter().filter(|a| a.protected) {
        println!(
            "{:<6} entropy {:.2}, label association V = {:.3}",
            attr.name, attr.entropy, attr.cramers_v
        );
    }

    // 2. remedy the training split and train
    let (train_set, test_set) = train_test_split(&data, 0.7, 42).unwrap();
    let remedied = remedy_data(&train_set, &RemedyParams::default()).dataset;
    let model = ModelKind::DecisionTree.fit(&remedied, 42);

    // 3. persist and reload
    let path = std::env::temp_dir().join("remedy_lifecycle_model.txt");
    persist::save_to_path(&model.to_text(), &path).unwrap();
    let loaded = persist::load_from_path(&path).unwrap();
    println!(
        "\nsaved and reloaded a {} from {}",
        loaded.kind(),
        path.display()
    );

    // 4. audit the reloaded model
    let predictions = loaded.predict(&test_set);
    let report = audit(&test_set, &predictions, &AuditConfig::default()).unwrap();
    println!("\n{report}");

    // 5. classical two-group metrics per protected attribute
    println!("=== classical group metrics ===");
    for name in ["race", "sex", "age"] {
        let g = group_fairness(&test_set, &predictions, name).unwrap();
        println!(
            "{name:<5} demographic parity Δ {:.3} · disparate impact {:.2} ({}) · eq. odds Δ {:.3}",
            g.demographic_parity_difference,
            g.disparate_impact_ratio,
            if g.passes_four_fifths() {
                "passes 80% rule"
            } else {
                "FAILS 80% rule"
            },
            g.equalized_odds_difference
        );
    }
}
