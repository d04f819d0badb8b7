//! Figure 9 — runtime scalability of IBS identification and remedy.
//!
//! ```text
//! cargo run -p remedy-bench --bin fig9 --release [-- <attrs|size|all>]
//! ```
//!
//! * `attrs` (9a/9b): the Adult stand-in's protected set is extended with
//!   `education` and `occupation` to sweep |X| = 2 … 8, timing the naïve
//!   vs. optimized identification algorithms and all remedy techniques.
//! * `size` (9c/9d): |X| = 8 fixed, data size swept from 5k to 45k rows.
//!
//! Expected shape: runtime grows exponentially with |X| (the region
//! lattice explodes); the optimized algorithm is a multiple faster than
//! the naïve one on the identification phase; remedy time tracks the
//! number of biased regions, and ranker-based techniques (PS, Massaging)
//! cost the most. As in the paper, *oversampling is excluded* from the
//! remedy sweeps: with thousands of biased regions it exceeds the memory
//! budget by duplicating instances compoundingly (§V-B5 reports the same
//! exclusion).

use remedy_bench::table::TsvWriter;
use remedy_bench::timing::time_it;
use remedy_core::{
    identify_in_with, remedy_over_with, Algorithm, Hierarchy, IbsParams, RemedyParams, Technique,
};
use remedy_dataset::synth::{self, ADULT_SCALABILITY_PROTECTED};
use remedy_dataset::Dataset;
use remedy_obs::Scope as ObsScope;

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if mode == "attrs" || mode == "all" {
        sweep_attrs();
    }
    if mode == "size" || mode == "all" {
        sweep_size();
    }
}

/// Column indices of the first `k` scalability protected attributes.
fn protected_cols(data: &Dataset, k: usize) -> Vec<usize> {
    ADULT_SCALABILITY_PROTECTED[..k]
        .iter()
        .map(|name| data.schema().require(name).expect("attribute exists"))
        .collect()
}

fn sweep_attrs() {
    let data = synth::adult(42);
    let params = IbsParams::default();

    let mut ident = TsvWriter::new(
        "fig9a_identify_attrs",
        &[
            "|X|",
            "hierarchy (s)",
            "naive (s)",
            "optimized (s)",
            "speedup",
            "IBS size",
        ],
    );
    for k in 2..=8 {
        let cols = protected_cols(&data, k);
        // hierarchy construction is shared by both algorithms; the
        // naive/optimized asymmetry is in the per-region neighbor work
        let (hierarchy, t_build) = time_it(|| Hierarchy::try_build_over(&data, &cols).unwrap());
        let (ibs_naive, t_naive) = time_it(|| {
            identify_in_with(&hierarchy, &params, Algorithm::Naive, &ObsScope::disabled())
        });
        let (ibs_opt, t_opt) = time_it(|| {
            identify_in_with(
                &hierarchy,
                &params,
                Algorithm::Optimized,
                &ObsScope::disabled(),
            )
        });
        assert_eq!(ibs_naive.len(), ibs_opt.len(), "algorithms must agree");
        ident.row(&[
            k.to_string(),
            format!("{t_build:.3}"),
            format!("{t_naive:.4}"),
            format!("{t_opt:.4}"),
            format!("{:.2}x", t_naive / t_opt.max(1e-9)),
            ibs_opt.len().to_string(),
        ]);
    }
    ident.finish();
    println!();

    // oversampling excluded, as in the paper (memory blow-up)
    let techniques = [
        Technique::PreferentialSampling,
        Technique::Undersampling,
        Technique::Massaging,
    ];
    let mut rem = TsvWriter::new(
        "fig9b_remedy_attrs",
        &["|X|", "PS (s)", "US (s)", "Massaging (s)"],
    );
    for k in 2..=8 {
        let cols = protected_cols(&data, k);
        let mut cells = vec![k.to_string()];
        for technique in techniques {
            let params = RemedyParams::builder()
                .technique(technique)
                .build()
                .unwrap();
            let (_, secs) =
                time_it(|| remedy_over_with(&data, &cols, &params, &ObsScope::disabled()).unwrap());
            cells.push(format!("{secs:.3}"));
        }
        rem.row(&cells);
    }
    rem.finish();
}

fn sweep_size() {
    let params = IbsParams::default();
    let techniques = [
        Technique::PreferentialSampling,
        Technique::Undersampling,
        Technique::Massaging,
    ];
    let mut ident = TsvWriter::new(
        "fig9c_identify_size",
        &[
            "rows",
            "hierarchy (s)",
            "naive (s)",
            "optimized (s)",
            "IBS size",
        ],
    );
    let mut rem = TsvWriter::new(
        "fig9d_remedy_size",
        &["rows", "PS (s)", "US (s)", "Massaging (s)"],
    );
    for n in [5_000usize, 15_000, 25_000, 35_000, 45_222] {
        let data = synth::adult_n(n, 42);
        let cols = protected_cols(&data, 8);
        let (hierarchy, t_build) = time_it(|| Hierarchy::try_build_over(&data, &cols).unwrap());
        let (ibs_naive, t_naive) = time_it(|| {
            identify_in_with(&hierarchy, &params, Algorithm::Naive, &ObsScope::disabled())
        });
        let (ibs_opt, t_opt) = time_it(|| {
            identify_in_with(
                &hierarchy,
                &params,
                Algorithm::Optimized,
                &ObsScope::disabled(),
            )
        });
        assert_eq!(ibs_naive.len(), ibs_opt.len());
        ident.row(&[
            n.to_string(),
            format!("{t_build:.3}"),
            format!("{t_naive:.4}"),
            format!("{t_opt:.4}"),
            ibs_opt.len().to_string(),
        ]);

        let mut cells = vec![n.to_string()];
        for technique in techniques {
            let rp = RemedyParams::builder()
                .technique(technique)
                .build()
                .unwrap();
            let (_, secs) =
                time_it(|| remedy_over_with(&data, &cols, &rp, &ObsScope::disabled()).unwrap());
            cells.push(format!("{secs:.3}"));
        }
        rem.row(&cells);
    }
    ident.finish();
    println!();
    rem.finish();
}
