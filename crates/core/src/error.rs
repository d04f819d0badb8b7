//! Typed errors of the counting and enumeration layer.
//!
//! The packed-key representation has hard limits — at most
//! [`MAX_PROTECTED`] attributes in the dense lattice
//! ([`MAX_PROTECTED_SPARSE`] in the support-pruned one) and at most
//! [`MAX_CARDINALITY`] categories per protected column. These used to be
//! `debug_assert`s deep inside the key packing: a release build handed a
//! wider protected set or a higher-cardinality column silently wrapped
//! codes into colliding keys and produced wrong counts. Every build path
//! now funnels through the one leaf-layout check of
//! [`ShardCounts`](crate::ShardCounts), so both conditions fail loudly
//! with a typed [`CoreError`] in release builds too — either returned
//! from the `try_*` constructors or carried verbatim in the panic message
//! of the legacy infallible ones.

use crate::hierarchy::MAX_PROTECTED;

/// Most protected attributes the support-pruned (sparse) enumeration
/// supports: node masks are `u32` bitsets.
pub const MAX_PROTECTED_SPARSE: usize = 32;

/// Highest per-column cardinality either enumeration supports. Region
/// keys store one 8-bit code per attribute, so codes past a byte would
/// silently truncate; the dataset layer guarantees codes stay below the
/// declared cardinality, which makes this bound sufficient.
pub const MAX_CARDINALITY: usize = 255;

/// Why a counting structure could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// The protected-column set is empty.
    NoProtected,
    /// More protected columns than the requested enumeration supports.
    TooManyProtected {
        /// Columns requested.
        got: usize,
        /// Ceiling of the requested enumeration mode.
        max: usize,
    },
    /// A protected column has more categories than a key slot can hold.
    CardinalityOverflow {
        /// Name of the offending column.
        column: String,
        /// Its declared cardinality.
        cardinality: usize,
    },
    /// The sparse full-row key widths sum past the 128 bits available.
    KeyWidthOverflow {
        /// Total bits the protected set would need.
        bits: u32,
    },
    /// Support pruning kept a node deeper than a region key can address.
    NodeTooDeep {
        /// Level at which enumeration had to stop.
        level: usize,
    },
    /// Two counting structures were asked to merge but were not built
    /// over the same protected layout (columns, cardinalities, ordered
    /// flags — or, for pruned lattices, support threshold).
    MergeMismatch {
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// A per-row input (such as a model's predictions) does not have one
    /// entry per dataset row.
    RowCountMismatch {
        /// Rows in the dataset.
        rows: usize,
        /// Entries supplied.
        values: usize,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::NoProtected => write!(f, "need at least one protected attribute"),
            CoreError::TooManyProtected { got, max } => write!(
                f,
                "at most {max} protected attributes supported, got {got}{}",
                if *max == MAX_PROTECTED {
                    " (the support-pruned enumeration handles wider sets)"
                } else {
                    ""
                }
            ),
            CoreError::CardinalityOverflow {
                column,
                cardinality,
            } => write!(
                f,
                "protected column `{column}` has {cardinality} categories; \
                 region keys hold at most {MAX_CARDINALITY} per column"
            ),
            CoreError::KeyWidthOverflow { bits } => write!(
                f,
                "protected columns need {bits} key bits combined; at most 128 supported"
            ),
            CoreError::NodeTooDeep { level } => write!(
                f,
                "support pruning kept a frequent node at level {level}; \
                 region keys address at most {MAX_PROTECTED} attributes"
            ),
            CoreError::MergeMismatch { detail } => {
                write!(f, "cannot merge counting structures: {detail}")
            }
            CoreError::RowCountMismatch { rows, values } => {
                write!(f, "{values} per-row values for {rows} rows")
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// Refuses a protected set wider than the dense lattice carries
/// ([`MAX_PROTECTED`] attributes): the check the dense [`Hierarchy`]
/// and the remedy, which walks every lattice node, make on top of the
/// leaf layout.
///
/// [`Hierarchy`]: crate::Hierarchy
pub(crate) fn check_dense_arity(p: usize) -> Result<(), CoreError> {
    if p > MAX_PROTECTED {
        return Err(CoreError::TooManyProtected {
            got: p,
            max: MAX_PROTECTED,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_readably() {
        assert!(CoreError::NoProtected.to_string().contains("protected"));
        let e = CoreError::TooManyProtected { got: 17, max: 16 };
        assert!(e.to_string().contains("16"), "{e}");
        assert!(e.to_string().contains("support-pruned"), "{e}");
        let e = CoreError::TooManyProtected { got: 33, max: 32 };
        assert!(!e.to_string().contains("support-pruned"), "{e}");
        let e = CoreError::CardinalityOverflow {
            column: "zip".into(),
            cardinality: 300,
        };
        assert!(e.to_string().contains("zip") && e.to_string().contains("300"));
        assert!(CoreError::KeyWidthOverflow { bits: 130 }
            .to_string()
            .contains("130"));
        assert!(CoreError::NodeTooDeep { level: 17 }
            .to_string()
            .contains("17"));
        let e = CoreError::RowCountMismatch { rows: 4, values: 3 };
        assert_eq!(e.to_string(), "3 per-row values for 4 rows");
    }
}
