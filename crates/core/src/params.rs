//! Validated construction of the core parameter types.
//!
//! [`crate::identify::IbsParams`] and [`crate::remedy::RemedyParams`]
//! are `#[non_exhaustive]`:
//! downstream crates obtain them from [`Default`] or from the builders
//! here, never from struct literals. The builders enforce the parameter
//! domain at construction time:
//!
//! * `τ_c` is finite and non-negative (a negative threshold would flag
//!   every region, a NaN none);
//! * the minimum region size `k` is at least 1 (the paper's statistical
//!   rule-of-thumb is `k = 30`; `k = 0` would score empty regions);
//! * an ordered-radius `T` is finite and strictly positive (a zero or
//!   negative ball contains nothing, so every score would be the
//!   undefined sentinel);
//! * technique/ranker coherence holds by construction: the remedy
//!   instantiates the Naïve Bayes borderline ranker exactly when
//!   [`Technique::needs_ranker`](crate::remedy::Technique::needs_ranker)
//!   says so, so no builder can produce a ranker-less preferential
//!   sampling or massaging run.

use crate::identify::{Enumeration, IbsParams};
use crate::neighborhood::Neighborhood;
use crate::remedy::{RemedyParams, Technique};
use crate::scope::Scope;

/// The master seed every front end defaults to: the CLI's `--seed`, the
/// plan's `seed` key and the serve requests' `"seed"` field.
pub const DEFAULT_SEED: u64 = 42;

/// Why a parameter set was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamError {
    /// `τ_c` is NaN, infinite, or negative.
    Tau(f64),
    /// The minimum region size `k` is zero.
    MinSize,
    /// An ordered-radius `T` is NaN, infinite, zero, or negative.
    Radius(f64),
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::Tau(t) => write!(f, "tau_c must be finite and >= 0, got {t}"),
            ParamError::MinSize => write!(f, "min_size (k) must be at least 1"),
            ParamError::Radius(t) => {
                write!(f, "ordered-radius T must be finite and > 0, got {t}")
            }
        }
    }
}

impl std::error::Error for ParamError {}

/// Shared domain checks of the identification-side fields.
pub(crate) fn validate_common(
    tau_c: f64,
    min_size: u64,
    neighborhood: Neighborhood,
) -> Result<(), ParamError> {
    if !tau_c.is_finite() || tau_c < 0.0 {
        return Err(ParamError::Tau(tau_c));
    }
    if min_size == 0 {
        return Err(ParamError::MinSize);
    }
    if let Neighborhood::OrderedRadius(t) = neighborhood {
        if !t.is_finite() || t <= 0.0 {
            return Err(ParamError::Radius(t));
        }
    }
    Ok(())
}

/// Builder for [`IbsParams`]; obtained from [`IbsParams::builder`].
///
/// Starts from [`IbsParams::default`] and validates on [`build`].
///
/// [`build`]: IbsParamsBuilder::build
#[derive(Debug, Clone, Default)]
pub struct IbsParamsBuilder {
    params: IbsParams,
}

impl IbsParamsBuilder {
    /// Sets the imbalance threshold `τ_c`.
    pub fn tau_c(mut self, tau_c: f64) -> Self {
        self.params.tau_c = tau_c;
        self
    }

    /// Sets the minimum region size `k`.
    pub fn min_size(mut self, min_size: u64) -> Self {
        self.params.min_size = min_size;
        self
    }

    /// Sets the neighboring-region specification.
    pub fn neighborhood(mut self, neighborhood: Neighborhood) -> Self {
        self.params.neighborhood = neighborhood;
        self
    }

    /// Sets the hierarchy levels to examine.
    pub fn scope(mut self, scope: Scope) -> Self {
        self.params.scope = scope;
        self
    }

    /// Sets the lattice enumeration strategy.
    pub fn enumeration(mut self, enumeration: Enumeration) -> Self {
        self.params.enumeration = enumeration;
        self
    }

    /// Validates and returns the parameters.
    pub fn build(self) -> Result<IbsParams, ParamError> {
        self.params.validate()?;
        Ok(self.params)
    }
}

/// Builder for [`RemedyParams`]; obtained from [`RemedyParams::builder`].
///
/// Starts from [`RemedyParams::default`] and validates on [`build`].
///
/// [`build`]: RemedyParamsBuilder::build
#[derive(Debug, Clone, Default)]
pub struct RemedyParamsBuilder {
    params: RemedyParams,
}

impl RemedyParamsBuilder {
    /// Sets the pre-processing technique.
    pub fn technique(mut self, technique: Technique) -> Self {
        self.params.technique = technique;
        self
    }

    /// Sets the imbalance threshold `τ_c`.
    pub fn tau_c(mut self, tau_c: f64) -> Self {
        self.params.tau_c = tau_c;
        self
    }

    /// Sets the minimum region size `k`.
    pub fn min_size(mut self, min_size: u64) -> Self {
        self.params.min_size = min_size;
        self
    }

    /// Sets the neighboring-region specification.
    pub fn neighborhood(mut self, neighborhood: Neighborhood) -> Self {
        self.params.neighborhood = neighborhood;
        self
    }

    /// Sets the hierarchy levels to remedy.
    pub fn scope(mut self, scope: Scope) -> Self {
        self.params.scope = scope;
        self
    }

    /// Sets the seed of the uniform sampling choices.
    pub fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self
    }

    /// Validates and returns the parameters.
    pub fn build(self) -> Result<RemedyParams, ParamError> {
        self.params.validate()?;
        Ok(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(IbsParams::default().validate().is_ok());
        assert!(RemedyParams::default().validate().is_ok());
        assert_eq!(IbsParams::builder().build().unwrap(), IbsParams::default());
        assert_eq!(
            RemedyParams::builder().build().unwrap(),
            RemedyParams::default()
        );
    }

    #[test]
    fn builders_set_every_field() {
        let ibs = IbsParams::builder()
            .tau_c(0.25)
            .min_size(12)
            .neighborhood(Neighborhood::Full)
            .scope(Scope::Leaf)
            .enumeration(Enumeration::Pruned)
            .build()
            .unwrap();
        assert_eq!(ibs.tau_c, 0.25);
        assert_eq!(ibs.min_size, 12);
        assert_eq!(ibs.neighborhood, Neighborhood::Full);
        assert_eq!(ibs.scope, Scope::Leaf);
        assert_eq!(ibs.enumeration, Enumeration::Pruned);

        let remedy = RemedyParams::builder()
            .technique(Technique::Massaging)
            .tau_c(0.3)
            .min_size(40)
            .neighborhood(Neighborhood::OrderedRadius(1.5))
            .scope(Scope::Top)
            .seed(9)
            .build()
            .unwrap();
        assert_eq!(remedy.technique, Technique::Massaging);
        assert_eq!(remedy.neighborhood, Neighborhood::OrderedRadius(1.5));
        assert_eq!(remedy.seed, 9);
    }

    #[test]
    fn invalid_tau_is_rejected() {
        for tau in [-0.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = IbsParams::builder().tau_c(tau).build().unwrap_err();
            assert!(matches!(err, ParamError::Tau(_)), "tau {tau}: {err}");
            assert!(RemedyParams::builder().tau_c(tau).build().is_err());
        }
        assert!(IbsParams::builder().tau_c(0.0).build().is_ok());
    }

    #[test]
    fn zero_min_size_is_rejected() {
        assert_eq!(
            IbsParams::builder().min_size(0).build().unwrap_err(),
            ParamError::MinSize
        );
        assert_eq!(
            RemedyParams::builder().min_size(0).build().unwrap_err(),
            ParamError::MinSize
        );
        assert!(IbsParams::builder().min_size(1).build().is_ok());
    }

    #[test]
    fn degenerate_radius_is_rejected() {
        for t in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = IbsParams::builder()
                .neighborhood(Neighborhood::OrderedRadius(t))
                .build()
                .unwrap_err();
            assert!(matches!(err, ParamError::Radius(_)), "radius {t}: {err}");
            assert!(RemedyParams::builder()
                .neighborhood(Neighborhood::OrderedRadius(t))
                .build()
                .is_err());
        }
        assert!(IbsParams::builder()
            .neighborhood(Neighborhood::OrderedRadius(0.5))
            .build()
            .is_ok());
    }

    #[test]
    fn errors_render_readably() {
        assert!(ParamError::Tau(-1.0).to_string().contains("tau_c"));
        assert!(ParamError::MinSize.to_string().contains("min_size"));
        assert!(ParamError::Radius(0.0).to_string().contains("radius"));
    }

    #[test]
    fn remedy_params_project_to_ibs_params() {
        let remedy = RemedyParams::builder()
            .tau_c(0.4)
            .min_size(7)
            .neighborhood(Neighborhood::OrderedRadius(2.0))
            .scope(Scope::Leaf)
            .build()
            .unwrap();
        let ibs = remedy.ibs_params();
        assert_eq!(ibs.tau_c, 0.4);
        assert_eq!(ibs.min_size, 7);
        assert_eq!(ibs.neighborhood, Neighborhood::OrderedRadius(2.0));
        assert_eq!(ibs.scope, Scope::Leaf);
        assert_eq!(ibs.enumeration, Enumeration::Dense);
    }
}
