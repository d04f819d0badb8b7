//! Figures 4, 5, 6 — the fairness–accuracy trade-off.
//!
//! ```text
//! cargo run -p remedy-bench --bin fig456 --release -- <adult|law|compas>
//! ```
//!
//! Panels (a)–(c): IBS identification scopes — Original / Lattice / Leaf /
//! Top, all remedied with preferential sampling — reporting the fairness
//! index under FPR and FNR plus model accuracy, for DT/RF/LG/NN.
//!
//! Panel (d): pre-processing techniques — PS / US / DP (oversampling) /
//! Massaging — under the Lattice scope.
//!
//! Parameters follow §V-B2: `T = 1`; `τ_c = 0.5` for Adult, `0.1`
//! otherwise.

use remedy_bench::datasets::{load, DatasetSpec};
use remedy_bench::eval::{paper_split, run_pipeline, PipelineConfig};
use remedy_bench::table::{f3, TsvWriter};
use remedy_classifiers::ModelKind;
use remedy_core::{RemedyParams, Scope, Technique};

fn main() {
    let spec = std::env::args()
        .nth(1)
        .and_then(|a| DatasetSpec::parse(&a))
        .unwrap_or(DatasetSpec::Compas);
    let seed = 42;
    let tau_c = spec.default_tau_c();
    let data = load(spec, seed);
    let (train_set, test_set) = paper_split(&data, seed);
    println!(
        "dataset = {spec} ({} train / {} test), τ_c = {tau_c}, T = 1\n",
        train_set.len(),
        test_set.len()
    );

    // panels (a)-(c): identification scopes with preferential sampling
    let mut scopes_table = TsvWriter::new(
        &format!("fig456_{}_scopes", spec.slug()),
        &["method", "model", "FI(FPR)", "FI(FNR)", "accuracy"],
    );
    let scope_configs: Vec<(String, Option<RemedyParams>)> = vec![
        ("Original".to_string(), None),
        scope_config("Lattice", Scope::Lattice, tau_c),
        scope_config("Leaf", Scope::Leaf, tau_c),
        scope_config("Top", Scope::Top, tau_c),
    ];
    for (name, remedy) in &scope_configs {
        for kind in ModelKind::DOWNSTREAM {
            let eval = run_pipeline(
                &train_set,
                &test_set,
                &PipelineConfig {
                    model: kind,
                    remedy: remedy.clone(),
                    seed,
                },
            );
            scopes_table.row(&[
                name.clone(),
                kind.to_string(),
                f3(eval.fi_fpr),
                f3(eval.fi_fnr),
                f3(eval.accuracy),
            ]);
        }
    }
    scopes_table.finish();
    println!();

    // panel (d): pre-processing techniques under the Lattice scope
    let mut tech_table = TsvWriter::new(
        &format!("fig456_{}_techniques", spec.slug()),
        &["technique", "model", "FI(FPR)", "FI(FNR)", "accuracy"],
    );
    for technique in Technique::ALL {
        let remedy = RemedyParams::builder()
            .technique(technique)
            .tau_c(tau_c)
            .scope(Scope::Lattice)
            .build()
            .unwrap();
        for kind in ModelKind::DOWNSTREAM {
            let eval = run_pipeline(
                &train_set,
                &test_set,
                &PipelineConfig {
                    model: kind,
                    remedy: Some(remedy.clone()),
                    seed,
                },
            );
            tech_table.row(&[
                technique.label().to_string(),
                kind.to_string(),
                f3(eval.fi_fpr),
                f3(eval.fi_fnr),
                f3(eval.accuracy),
            ]);
        }
    }
    tech_table.finish();
}

fn scope_config(name: &str, scope: Scope, tau_c: f64) -> (String, Option<RemedyParams>) {
    (
        name.to_string(),
        Some(
            RemedyParams::builder()
                .technique(Technique::PreferentialSampling)
                .tau_c(tau_c)
                .scope(scope)
                .build()
                .unwrap(),
        ),
    )
}
