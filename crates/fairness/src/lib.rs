//! # remedy-fairness
//!
//! Fairness-measurement substrate for the `remedy` reproduction.
//!
//! * [`confusion`] — confusion counts and the model statistics the paper
//!   uses (`γ ∈ {FPR, FNR}`, plus accuracy and selection rate).
//! * [`measure`] — the [`measure::Statistic`] enum and subgroup
//!   divergence `Δγ_g = |γ_g − γ_d|` (Definition 1).
//! * [`explorer`] — a DivExplorer-style enumerator that scores every
//!   intersectional subgroup above a support floor, reporting support,
//!   divergence, and Welch-t significance; it counts through core's leaf
//!   scan and support-pruned lattice, once per audit.
//! * [`index`] — the paper's *Fairness Index*: the sum of divergences over
//!   significant unfair subgroups with support ≥ 0.1 (§V-A.d).
//! * [`violation`] — GerryFair's *fairness violation*: the maximum
//!   divergence × subgroup mass, used in the Table III baseline comparison.
//! * [`stats`] — self-contained statistics (Welch t-test, Student-t CDF via
//!   the regularized incomplete beta function).
//! * [`report`] — Markdown audit reports bundling all of the above.
//! * [`hypothesis`] — Hypothesis 1 validation (Fig. 3): unfair subgroups
//!   cross-referenced with the IBS that `remedy-core` identifies.

pub mod confusion;
pub mod explorer;
pub mod group;
pub mod hypothesis;
pub mod index;
pub mod measure;
pub mod report;
pub mod stats;
pub mod summary;
pub mod violation;

pub use confusion::ConfusionCounts;
pub use explorer::{Explorer, SubgroupReport};
pub use group::{group_fairness, GroupFairnessReport};
pub use hypothesis::{validate_hypothesis, validate_on_columns, HypothesisValidation, IbsMark};
pub use index::{fairness_index, index_of, FairnessIndexParams};
pub use measure::{divergence, statistic_of, Statistic};
pub use report::{audit, audit_score, AuditConfig, AuditReport, AuditScore};
pub use summary::MetricsSummary;
pub use violation::fairness_violation;
