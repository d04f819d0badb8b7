//! Guard-rail tests: documented panics and boundary conditions of the core
//! crate.

use remedy_core::{
    identify, remedy, Algorithm, Hierarchy, IbsParams, Neighborhood, ParamError, RemedyParams,
};
use remedy_dataset::{Attribute, Dataset, Schema};

fn one_attr_dataset() -> Dataset {
    let schema = Schema::new(
        vec![Attribute::from_strs("a", &["0", "1"]).protected()],
        "y",
    )
    .into_shared();
    let mut d = Dataset::new(schema);
    for i in 0..100 {
        d.push_row(&[(i % 2) as u32], u8::from(i % 3 == 0)).unwrap();
    }
    d
}

#[test]
fn hierarchy_requires_protected_attributes() {
    let schema = Schema::new(vec![Attribute::from_strs("a", &["0"])], "y").into_shared();
    let d = Dataset::new(schema);
    let err = Hierarchy::try_build(&d).unwrap_err();
    assert!(
        err.to_string().contains("at least one protected attribute"),
        "{err}"
    );
}

#[test]
fn hierarchy_caps_protected_arity() {
    let attrs: Vec<Attribute> = (0..17)
        .map(|i| Attribute::from_strs(&format!("a{i}"), &["0", "1"]).protected())
        .collect();
    let schema = Schema::new(attrs, "y").into_shared();
    let mut d = Dataset::new(schema);
    d.push_row(&[0; 17], 1).unwrap();
    let err = Hierarchy::try_build(&d).unwrap_err();
    assert!(
        err.to_string().contains("at most 16 protected attributes"),
        "{err}"
    );
}

/// The remedy used to `unimplemented!` on the refined metric; it now runs
/// through the same `NeighborModel` seam as identification, so an
/// ordered-radius remedy over an *unordered* schema (every value one unit
/// apart) must simply complete.
#[test]
fn remedy_accepts_ordered_radius() {
    let d = one_attr_dataset();
    let params = RemedyParams::builder()
        .neighborhood(Neighborhood::OrderedRadius(1.0))
        .tau_c(0.0)
        .min_size(1)
        .build()
        .unwrap();
    let outcome = remedy(&d, &params);
    assert!(outcome.updates.iter().all(|u| u.target_ratio >= 0.0));
}

/// Builder validation is the public constructor's contract: the error
/// values must be observable (and readable) outside the crate.
#[test]
fn builders_reject_out_of_domain_parameters() {
    assert_eq!(
        IbsParams::builder().min_size(0).build().unwrap_err(),
        ParamError::MinSize
    );
    assert!(matches!(
        IbsParams::builder().tau_c(-0.5).build().unwrap_err(),
        ParamError::Tau(_)
    ));
    assert!(matches!(
        RemedyParams::builder()
            .neighborhood(Neighborhood::OrderedRadius(-2.0))
            .build()
            .unwrap_err(),
        ParamError::Radius(_)
    ));
    let msg = RemedyParams::builder()
        .neighborhood(Neighborhood::OrderedRadius(f64::NAN))
        .build()
        .unwrap_err()
        .to_string();
    assert!(msg.contains("radius"), "unhelpful error: {msg}");
}

#[test]
fn single_protected_attribute_works() {
    // |X| = 1: the lattice is one node; Unit and Full coincide there
    let d = one_attr_dataset();
    for neighborhood in [Neighborhood::Unit, Neighborhood::Full] {
        let params = IbsParams::builder()
            .tau_c(0.01)
            .min_size(10)
            .neighborhood(neighborhood)
            .build()
            .unwrap();
        let naive = identify(&d, &params, Algorithm::Naive);
        let optimized = identify(&d, &params, Algorithm::Optimized);
        assert_eq!(naive, optimized);
    }
}

#[test]
fn empty_and_tiny_datasets_are_safe() {
    let schema = Schema::new(
        vec![Attribute::from_strs("a", &["0", "1"]).protected()],
        "y",
    )
    .into_shared();
    let empty = Dataset::new(schema.clone());
    assert!(identify(&empty, &IbsParams::default(), Algorithm::Optimized).is_empty());
    let outcome = remedy(&empty, &RemedyParams::default());
    assert!(outcome.dataset.is_empty());
    assert!(outcome.updates.is_empty());

    let mut tiny = Dataset::new(schema);
    tiny.push_row(&[0], 1).unwrap();
    assert!(identify(&tiny, &IbsParams::default(), Algorithm::Optimized).is_empty());
}

#[test]
fn min_size_one_examines_every_multi_row_region() {
    // k = 1 is the smallest valid floor (k = 0 is rejected by the builder)
    let d = one_attr_dataset();
    let params = IbsParams::builder().tau_c(0.0).min_size(1).build().unwrap();
    let ibs = identify(&d, &params, Algorithm::Optimized);
    let h = Hierarchy::try_build(&d).unwrap();
    assert!(ibs.len() <= h.region_count());
}
