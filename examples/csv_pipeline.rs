//! Run the remedy pipeline on your own CSV file.
//!
//! ```text
//! cargo run --example csv_pipeline --release -- data.csv label_col prot1,prot2
//! ```
//!
//! With no arguments, the example writes a small demonstration CSV to a
//! temp directory and runs on that, so it always works out of the box.
//! The pipeline: load + bucketize → identify IBS → remedy (preferential
//! sampling) → write the remedied CSV next to the input.

use remedy::core::{identify, remedy as remedy_data, Algorithm, IbsParams, RemedyParams};
use remedy::dataset::synth;
use remedy::dataset::{csv, source};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path, label, protected) = if args.len() >= 3 {
        (
            std::path::PathBuf::from(&args[0]),
            args[1].clone(),
            args[2]
                .split(',')
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        )
    } else {
        // demo mode: serialize the COMPAS stand-in to CSV first
        let demo = std::env::temp_dir().join("remedy_demo_compas.csv");
        csv::write_path(&synth::compas_n(3_000, 11), &demo).expect("write demo csv");
        println!("(demo mode: using generated {})\n", demo.display());
        (
            demo,
            "recid".to_string(),
            vec!["age".to_string(), "race".to_string(), "sex".to_string()],
        )
    };

    // 1. load with schema inference (numeric columns are bucketized)
    let source = path.to_string_lossy();
    let request = source::Request {
        source: &source,
        format: source::FormatPolicy::Csv,
        rows: 0,
        seed: 0,
        arity: synth::WIDE_DEFAULT_ARITY,
        label: Some(label),
        protected,
        positive: None,
        bins: csv::DEFAULT_BINS,
    };
    let data = source::open(&request).expect("well-formed csv");
    println!(
        "loaded {} rows × {} attributes ({} protected) from {}",
        data.len(),
        data.schema().len(),
        data.schema().protected_len(),
        path.display()
    );

    // 2. identify biased regions
    let ibs = identify(&data, &IbsParams::default(), Algorithm::Optimized);
    println!("found {} biased regions; worst five:", ibs.len());
    let mut by_gap = ibs.clone();
    by_gap.sort_by(|a, b| b.gap().partial_cmp(&a.gap()).unwrap());
    for region in by_gap.iter().take(5) {
        println!(
            "  {}  |r| = {}, ratio_r = {:.2}, ratio_rn = {:.2}",
            region.pattern.display(data.schema()),
            region.counts.total(),
            region.ratio,
            region.neighbor_ratio
        );
    }

    // 3. remedy and write the result
    let outcome = remedy_data(&data, &RemedyParams::default());
    let out_path = path.with_extension("remedied.csv");
    csv::write_path(&outcome.dataset, &out_path).expect("writable output");
    println!(
        "\nremedied {} regions; {} → {} rows; wrote {}",
        outcome.updates.len(),
        data.len(),
        outcome.dataset.len(),
        out_path.display()
    );
}
