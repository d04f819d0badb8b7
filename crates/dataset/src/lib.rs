//! # remedy-dataset
//!
//! Tabular-data substrate for the `remedy` subgroup-fairness toolkit.
//!
//! The paper ("Mitigating Subgroup Unfairness in Machine Learning
//! Classifiers", ICDE 2024) operates on datasets whose attributes are
//! categorical or discretized, with a binary class label. This crate provides
//! everything needed to host such data:
//!
//! * [`Schema`] / [`Attribute`] — named categorical attributes with finite
//!   domains, a subset of which are marked *protected*.
//! * [`Dataset`] — a columnar store of category codes plus binary labels and
//!   optional per-instance weights.
//! * [`Pattern`] — a conjunction of `attribute = value` assignments (the
//!   paper's region/subgroup patterns), with dominance and distance helpers.
//! * [`csv`] — a dependency-free CSV reader/writer with schema inference.
//! * [`discretize`] — equal-width / quantile / explicit-cutpoint binning for
//!   continuous source columns.
//! * [`split`] — seeded (optionally stratified) train/test splitting.
//! * [`persist`] / [`store`] — dataset persistence: exact canonical text
//!   plus a binary columnar form with persisted packed region keys, both
//!   behind `store::open` / `store::save` with format autodetection.
//! * [`source`] — the one opener that resolves a built-in name, dataset
//!   artifact or CSV path into a dataset, shared by the CLI and serve.
//! * [`mod@format`] — the magic/version header, escaping, and content-digest
//!   helpers every `remedy-*` artifact family shares.
//! * [`vocab`] — the token-table parser behind every parameter type's
//!   `FromStr`, shared by the CLI, plan and serve front ends.
//! * [`synth`] — seeded synthetic generators mirroring the three evaluation
//!   datasets (Adult, ProPublica/COMPAS, Law School) with planted
//!   representation bias, used when the real CSVs are unavailable.

pub mod collapse;
pub mod csv;
pub mod dataset;
pub mod discretize;
pub mod error;
pub mod format;
pub mod pattern;
pub mod persist;
pub mod profile;
pub mod schema;
pub mod source;
pub mod split;
pub mod store;
pub mod synth;
pub mod vocab;

pub use collapse::collapse_rare;
pub use dataset::{Dataset, RowEdit};
pub use error::DatasetError;
pub use pattern::Pattern;
pub use profile::{profile, DatasetProfile};
pub use schema::{Attribute, Schema};
pub use store::{Format, PackedKeys, Stored};
