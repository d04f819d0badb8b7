//! Error type shared across the dataset crate.

use crate::format::DecodeError;
use std::fmt;

/// Errors raised while constructing, loading, or transforming datasets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// An attribute name was not found in the schema.
    UnknownAttribute(String),
    /// A category value was not found in an attribute's domain.
    UnknownValue {
        /// Attribute whose domain was searched.
        attribute: String,
        /// The value that failed to resolve.
        value: String,
    },
    /// A row had a different number of fields than the schema expects.
    ArityMismatch {
        /// Number of fields the schema expects.
        expected: usize,
        /// Number of fields actually provided.
        found: usize,
    },
    /// A label outside `{0, 1}` was provided.
    InvalidLabel(String),
    /// A row index referenced a removed or never-existing row.
    RowOutOfRange {
        /// The offending row index.
        row: usize,
        /// Current number of rows.
        len: usize,
    },
    /// The CSV input was structurally malformed.
    Csv {
        /// 1-based line where the problem was detected.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// An I/O failure while reading or writing data.
    Io(String),
    /// A request was inconsistent with the dataset (e.g. empty split).
    Invalid(String),
    /// A dataset artifact (`remedy-dataset v1` text or `remedy-columnar
    /// v1` binary) failed to decode.
    Decode(DecodeError),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::UnknownAttribute(name) => {
                write!(f, "unknown attribute `{name}`")
            }
            DatasetError::UnknownValue { attribute, value } => {
                write!(f, "value `{value}` is not in the domain of `{attribute}`")
            }
            DatasetError::ArityMismatch { expected, found } => {
                write!(f, "expected {expected} fields, found {found}")
            }
            DatasetError::InvalidLabel(v) => {
                write!(f, "label `{v}` is not binary (expected 0 or 1)")
            }
            DatasetError::RowOutOfRange { row, len } => {
                write!(f, "row {row} is out of range (dataset has {len} rows)")
            }
            DatasetError::Csv { line, message } => {
                write!(f, "csv parse error at line {line}: {message}")
            }
            DatasetError::Io(msg) => write!(f, "io error: {msg}"),
            DatasetError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            DatasetError::Decode(e) => write!(f, "malformed dataset artifact: {e}"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<DecodeError> for DatasetError {
    fn from(e: DecodeError) -> Self {
        DatasetError::Decode(e)
    }
}

impl From<std::io::Error> for DatasetError {
    fn from(e: std::io::Error) -> Self {
        DatasetError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = DatasetError::UnknownAttribute("race".into());
        assert!(e.to_string().contains("race"));
        let e = DatasetError::UnknownValue {
            attribute: "sex".into(),
            value: "Q".into(),
        };
        assert!(e.to_string().contains("sex") && e.to_string().contains('Q'));
        let e = DatasetError::ArityMismatch {
            expected: 3,
            found: 2,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('2'));
        let e = DatasetError::Csv {
            line: 7,
            message: "unterminated quote".into(),
        };
        assert!(e.to_string().contains("line 7"));
        let e = DatasetError::RowOutOfRange { row: 12, len: 10 };
        assert!(e.to_string().contains("12") && e.to_string().contains("10"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: DatasetError = io.into();
        assert!(matches!(e, DatasetError::Io(_)));
    }
}
