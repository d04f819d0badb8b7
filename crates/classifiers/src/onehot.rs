//! The one-hot feature layout that logistic regression and the MLP learn
//! weights over.
//!
//! Attribute `a` owns `cardinality(a)` consecutive features starting at
//! `offsets[a]`, so a row sets exactly one feature per attribute,
//! `offsets[a] + code`. Fitting and scoring walk those set features
//! alone and never build the dense indicator vectors.

use remedy_dataset::{Dataset, Schema};

/// Each attribute's first feature, and the number of features.
pub(crate) fn offsets(schema: &Schema) -> (Vec<usize>, usize) {
    let mut offsets = Vec::with_capacity(schema.len());
    let mut n_features = 0usize;
    for attr in schema.attributes() {
        offsets.push(n_features);
        n_features += attr.cardinality();
    }
    (offsets, n_features)
}

/// Each row's set feature per attribute, row-major: row `i` is
/// `[i * n_attrs, (i + 1) * n_attrs)`, ascending as `offsets` ascend.
pub(crate) fn set_features(data: &Dataset, offsets: &[usize]) -> Vec<usize> {
    let n_attrs = offsets.len();
    let mut set = vec![0usize; data.len() * n_attrs];
    for (attr, &offset) in offsets.iter().enumerate() {
        for (row, &code) in data.column(attr).iter().enumerate() {
            set[row * n_attrs + attr] = offset + code as usize;
        }
    }
    set
}

/// Checks a layout read from a model file: the offsets must ascend
/// strictly from 0 and each block must start inside the `n_features`
/// weights, or scoring a row would index past them.
pub(crate) fn check_offsets(offsets: &[usize], n_features: usize) -> Result<(), String> {
    let from_zero = offsets.first().is_none_or(|&first| first == 0);
    if !from_zero || offsets.windows(2).any(|w| w[0] >= w[1]) {
        return Err(format!("offsets {offsets:?} do not ascend strictly from 0"));
    }
    match offsets.last() {
        Some(&last) if last >= n_features => Err(format!(
            "offset {last} starts a block outside the {n_features} weights"
        )),
        _ => Ok(()),
    }
}

/// The dense indicator matrix, row-major: the input the sparse fits
/// replaced, kept for the reference fits they must match bit for bit.
#[cfg(test)]
pub(crate) fn dense(data: &Dataset) -> (Vec<f64>, usize) {
    let (offsets, n_features) = offsets(data.schema());
    let mut x = vec![0.0; data.len() * n_features];
    for (row, set) in set_features(data, &offsets)
        .chunks(offsets.len().max(1))
        .enumerate()
    {
        for &f in set {
            x[row * n_features + f] = 1.0;
        }
    }
    (x, n_features)
}

#[cfg(test)]
mod tests {
    use super::*;
    use remedy_dataset::Attribute;

    #[test]
    fn layout_and_set_features() {
        let schema = Schema::new(
            vec![
                Attribute::from_strs("a", &["x", "y"]),
                Attribute::from_strs("b", &["p", "q", "r"]),
            ],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        d.push_row(&[0, 2], 1).unwrap();
        d.push_row(&[1, 0], 0).unwrap();
        let (offsets, n_features) = offsets(d.schema());
        assert_eq!((offsets.as_slice(), n_features), (&[0, 2][..], 5));
        assert_eq!(set_features(&d, &offsets), [0, 4, 1, 2]);
        let (x, n) = dense(&d);
        assert_eq!(n, 5);
        assert_eq!(x, [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn decoded_offsets_are_checked() {
        assert!(check_offsets(&[0, 2], 5).is_ok());
        assert!(check_offsets(&[], 0).is_ok());
        for (offsets, n) in [
            (vec![0, 1], 1),
            (vec![0, 5], 2),
            (vec![1, 2], 5),
            (vec![0, 2, 2], 5),
        ] {
            assert!(check_offsets(&offsets, n).is_err(), "{offsets:?} over {n}");
        }
    }
}
