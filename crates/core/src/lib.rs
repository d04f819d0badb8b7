//! # remedy-core
//!
//! The paper's primary contribution: identifying **Implicit Biased Sets
//! (IBS)** — intersectional regions whose class distribution diverges from
//! their neighborhood — and **remedying** the dataset so downstream
//! classifiers stop reproducing those biases.
//!
//! Pipeline (Definitions 3–6, Algorithms 1–2 of the paper):
//!
//! 1. [`score::imbalance`] — imbalance score `ratio_r = |r⁺|/|r⁻|`.
//! 2. [`hierarchy::Hierarchy`] — the lattice of regions over the protected
//!    attributes, with per-region class counts aggregated in one sweep.
//! 3. [`mod@identify`] — the naïve algorithm (§III-A) and the optimized
//!    Algorithm 1 (§III-B) locating all biased regions.
//! 4. [`mod@remedy`] — Algorithm 2: per-node re-identification plus one of four
//!    pre-processing techniques (oversampling, undersampling, preferential
//!    sampling, data massaging) that move each biased region's imbalance
//!    score to its neighborhood's.
//!
//! ```
//! use remedy_core::{identify, remedy, Algorithm, IbsParams, RemedyParams, Technique};
//! use remedy_dataset::synth;
//!
//! let data = synth::compas_n(2_000, 42);
//! let params = IbsParams::default();
//! let ibs = identify::identify(&data, &params, Algorithm::Optimized);
//! let remedied = remedy::remedy(&data, &RemedyParams::default()).dataset;
//! assert!(remedied.len() > 0);
//! # let _ = ibs;
//! ```

pub mod counting;
pub mod error;
pub mod hash;
pub mod hierarchy;
pub mod hypothesis;
pub mod identify;
pub mod iterative;
pub mod neighbor_model;
pub mod neighborhood;
pub mod params;
pub mod persist;
pub mod remedy;
pub mod scope;
pub mod score;
pub mod sparse;

pub use counting::{CountingTally, RegionIndex, ShardCounts};
pub use error::{CoreError, MAX_CARDINALITY, MAX_PROTECTED_SPARSE};
pub use hash::{stable_hash, StableHasher};
pub use hierarchy::Hierarchy;
pub use hypothesis::{validate_hypothesis, validate_on, HypothesisValidation, IbsMark};
pub use identify::{
    identify, identify_in_sparse_with, identify_in_with, try_identify_counts_with,
    try_identify_in_index_with, try_identify_over, try_identify_over_with, Algorithm, BiasedRegion,
    Enumeration, IbsParams,
};
pub use iterative::{remedy_iterative, IterativeOutcome, IterativeParams};
pub use neighbor_model::{NeighborModel, NeighborTally};
pub use neighborhood::Neighborhood;
pub use params::{IbsParamsBuilder, ParamError, RemedyParamsBuilder};
pub use remedy::{
    remedy, remedy_over_scan, remedy_over_with, remedy_with, RemedyOutcome, RemedyParams, Technique,
};
pub use scope::Scope;
pub use score::imbalance;
pub use sparse::SparseHierarchy;
