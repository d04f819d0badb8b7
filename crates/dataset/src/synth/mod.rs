//! Seeded synthetic generators standing in for the paper's real datasets.
//!
//! The evaluation datasets (UCI *Adult*, ProPublica *COMPAS*, *Law School*)
//! are external downloads that may be unavailable. Since the method consumes
//! only the joint distribution of (attributes, label), we substitute seeded
//! generators that reproduce each dataset's schema, domains and size, and
//! *plant* representation bias: region-level bumps to the label logit that
//! create skewed class ratios in specific intersectional regions — exactly
//! the biased-sample-collection phenomenon the paper studies. Classifiers
//! trained on these datasets exhibit intersectional subgroup unfairness, and
//! the remedy pipeline mitigates it, preserving the paper's experimental
//! shape.
//!
//! Real CSVs remain supported through [`crate::csv`].

mod adult;
mod compas;
mod law;
mod wide;

pub use adult::{adult, adult_n, ADULT_PROTECTED, ADULT_SCALABILITY_PROTECTED, ADULT_SIZE};
pub use compas::{compas, compas_n, COMPAS_PROTECTED, COMPAS_SIZE};
pub use law::{law_school, law_school_n, LAW_PROTECTED, LAW_SIZE};
pub use wide::{wide_n, WIDE_CARDINALITY};

use crate::dataset::Dataset;
use crate::pattern::Pattern;
use crate::schema::Schema;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Protected-set width of `wide` when none is asked for.
pub const WIDE_DEFAULT_ARITY: usize = 20;

/// A `wide` protected-set width outside `1..=32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArityOutOfRange(pub usize);

impl std::fmt::Display for ArityOutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "arity must be in 1..=32, got {}", self.0)
    }
}

impl std::error::Error for ArityOutOfRange {}

/// Resolves a built-in generator by name, seeded by `seed`: one of
/// `adult`, `compas`, `law` or `wide`, or `Ok(None)` for any other name
/// (callers fall through to reading a file). `rows = 0` picks the
/// generator's default size — the paper's dataset size, or 10,000 rows
/// for `wide`. `arity` is the protected-set width of `wide` (ignored by
/// the others) and must lie in `1..=32`.
pub fn builtin(
    name: &str,
    rows: usize,
    seed: u64,
    arity: usize,
) -> Result<Option<Dataset>, ArityOutOfRange> {
    let data = match (name, rows) {
        ("adult", 0) => adult(seed),
        ("adult", n) => adult_n(n, seed),
        ("compas", 0) => compas(seed),
        ("compas", n) => compas_n(n, seed),
        ("law", 0) => law_school(seed),
        ("law", n) => law_school_n(n, seed),
        ("wide", n) => {
            if !(1..=32).contains(&arity) {
                return Err(ArityOutOfRange(arity));
            }
            wide_n(if n == 0 { 10_000 } else { n }, arity, seed)
        }
        _ => return Ok(None),
    };
    Ok(Some(data))
}

/// Declarative description of a synthetic population.
///
/// Attributes are sampled independently from categorical marginals; the
/// binary label follows a logistic model over per-value coefficients plus
/// region-level *bias bumps* — the planted representation bias.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Schema of the generated dataset.
    pub schema: Arc<Schema>,
    /// Per-attribute marginal distributions (must sum to ~1, one weight per
    /// domain value).
    pub marginals: Vec<Vec<f64>>,
    /// Intercept of the label logit.
    pub base_logit: f64,
    /// Additive logit contributions per `(attribute, value)`.
    pub coefficients: Vec<(usize, u32, f64)>,
    /// Region-level logit bumps `(pattern, delta)` planting biased class
    /// ratios in intersectional regions (the source of IBS).
    pub region_bumps: Vec<(Pattern, f64)>,
}

impl SyntheticSpec {
    /// Validates internal consistency (domains, probabilities).
    pub fn validate(&self) {
        assert_eq!(
            self.marginals.len(),
            self.schema.len(),
            "one marginal distribution per attribute"
        );
        for (i, m) in self.marginals.iter().enumerate() {
            assert_eq!(
                m.len(),
                self.schema.attribute(i).cardinality(),
                "marginal arity for attribute {i}"
            );
            let total: f64 = m.iter().sum();
            assert!(
                (total - 1.0).abs() < 1e-6,
                "marginal for attribute {i} sums to {total}"
            );
            assert!(m.iter().all(|&p| p >= 0.0), "negative probability");
        }
        for &(a, v, _) in &self.coefficients {
            assert!((v as usize) < self.schema.attribute(a).cardinality());
        }
    }

    /// Label logit for a row of category codes.
    pub fn logit(&self, row: &[u32]) -> f64 {
        let mut z = self.base_logit;
        for &(a, v, w) in &self.coefficients {
            if row[a] == v {
                z += w;
            }
        }
        for (p, w) in &self.region_bumps {
            if p.matches_row(row) {
                z += w;
            }
        }
        z
    }
}

/// Generates `n` rows from a spec with a fixed seed.
pub fn generate(spec: &SyntheticSpec, n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::with_capacity(Arc::clone(&spec.schema), n);
    let mut row = vec![0u32; spec.schema.len()];
    for _ in 0..n {
        for (col, marginal) in spec.marginals.iter().enumerate() {
            row[col] = sample_categorical(&mut rng, marginal);
        }
        let p = sigmoid(spec.logit(&row));
        let label = u8::from(rng.gen::<f64>() < p);
        data.push_row(&row, label).expect("spec-consistent row");
    }
    data
}

/// Numerically stable logistic function.
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

fn sample_categorical(rng: &mut StdRng, weights: &[f64]) -> u32 {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        if u < acc {
            return i as u32;
        }
    }
    (weights.len() - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn tiny_spec() -> SyntheticSpec {
        let schema = Schema::new(
            vec![
                Attribute::from_strs("g", &["a", "b"]).protected(),
                Attribute::from_strs("f", &["lo", "hi"]),
            ],
            "y",
        )
        .into_shared();
        SyntheticSpec {
            schema,
            marginals: vec![vec![0.5, 0.5], vec![0.7, 0.3]],
            base_logit: -0.5,
            coefficients: vec![(1, 1, 2.0)],
            region_bumps: vec![(Pattern::from_terms([(0usize, 1u32)]), 1.0)],
        }
    }

    #[test]
    fn spec_validates() {
        tiny_spec().validate();
    }

    #[test]
    fn builtin_resolves_names_rows_and_arity() {
        let sized = builtin("adult", 500, 7, 0).unwrap().unwrap();
        assert_eq!(sized, adult_n(500, 7));
        assert_eq!(builtin("law", 0, 7, 0).unwrap().unwrap().len(), LAW_SIZE);
        let wide = builtin("wide", 0, 7, 12).unwrap().unwrap();
        assert_eq!(
            (wide.len(), wide.schema().protected_indices().len()),
            (10_000, 12)
        );
        for arity in [0, 33] {
            assert_eq!(builtin("wide", 10, 7, arity), Err(ArityOutOfRange(arity)));
        }
        assert_eq!(builtin("data.csv", 10, 7, 0), Ok(None));
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = tiny_spec();
        let d1 = generate(&spec, 500, 9);
        let d2 = generate(&spec, 500, 9);
        assert_eq!(d1, d2);
        let d3 = generate(&spec, 500, 10);
        assert_ne!(d1, d3);
    }

    #[test]
    fn marginals_are_respected() {
        let spec = tiny_spec();
        let d = generate(&spec, 20_000, 3);
        let hi = d.column(1).iter().filter(|&&v| v == 1).count() as f64 / d.len() as f64;
        assert!((hi - 0.3).abs() < 0.02, "observed hi fraction {hi}");
    }

    #[test]
    fn coefficients_shift_prevalence() {
        let spec = tiny_spec();
        let d = generate(&spec, 20_000, 3);
        let mut pos_hi = 0usize;
        let mut n_hi = 0usize;
        let mut pos_lo = 0usize;
        let mut n_lo = 0usize;
        for i in 0..d.len() {
            if d.value(i, 1) == 1 {
                n_hi += 1;
                pos_hi += usize::from(d.label(i) == 1);
            } else {
                n_lo += 1;
                pos_lo += usize::from(d.label(i) == 1);
            }
        }
        let rate_hi = pos_hi as f64 / n_hi as f64;
        let rate_lo = pos_lo as f64 / n_lo as f64;
        assert!(
            rate_hi > rate_lo + 0.2,
            "coefficient should raise positives: {rate_hi} vs {rate_lo}"
        );
    }

    #[test]
    fn region_bump_skews_region_ratio() {
        let spec = tiny_spec();
        let d = generate(&spec, 20_000, 3);
        let in_region = Pattern::from_terms([(0usize, 1u32)]);
        let out_region = Pattern::from_terms([(0usize, 0u32)]);
        let (pi, ni) = d.class_counts(&in_region);
        let (po, no) = d.class_counts(&out_region);
        let ratio_in = pi as f64 / ni as f64;
        let ratio_out = po as f64 / no as f64;
        assert!(
            ratio_in > ratio_out * 1.5,
            "bump should skew ratio: {ratio_in} vs {ratio_out}"
        );
    }

    #[test]
    fn sigmoid_is_stable_and_bounded() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(100.0) <= 1.0 && sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) >= 0.0 && sigmoid(-100.0) < 1e-3);
        assert!(sigmoid(-1000.0).is_finite());
    }
}
