//! Dataset sources: the one rule that turns a source string — the CLI's
//! positional argument, serve's `load` `"source"` — into a dataset.
//!
//! [`open`] resolves, in order: a built-in generator name
//! ([`synth::builtin`]), else a file read once, decoded as a dataset
//! artifact when its magic line names one the [`FormatPolicy`] accepts,
//! else parsed as CSV. A binary artifact's packed-key sidecar is checked
//! for length but never widened: an index packs its keys from the
//! decoded columns.

use crate::csv::{LoadOptions, RawTable};
use crate::dataset::Dataset;
use crate::error::DatasetError;
use crate::store::{self, Format};
use crate::synth;
use crate::vocab::{self, Tokens};

/// How a file source's bytes are decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FormatPolicy {
    /// A dataset artifact when the magic line names one, else CSV.
    #[default]
    Auto,
    /// Demand an exact text artifact (`remedy-dataset v1`).
    Text,
    /// Demand a binary columnar artifact (`remedy-columnar v1`).
    Binary,
    /// Parse as CSV whatever the magic line says.
    Csv,
}

/// The accepted spelling of each policy.
const FORMAT_POLICY_TOKENS: &Tokens<FormatPolicy> = &[
    (FormatPolicy::Auto, &["auto"]),
    (FormatPolicy::Text, &["text"]),
    (FormatPolicy::Binary, &["binary"]),
    (FormatPolicy::Csv, &["csv"]),
];

impl std::str::FromStr for FormatPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<FormatPolicy, String> {
        vocab::parse(FORMAT_POLICY_TOKENS, s)
    }
}

/// One source to open, with every option some source kind uses.
#[derive(Debug, Clone)]
pub struct Request<'a> {
    /// A built-in generator name or a file path.
    pub source: &'a str,
    /// How a file source is decoded.
    pub format: FormatPolicy,
    /// Built-in row count (`0` = the generator's default size).
    pub rows: usize,
    /// Built-in generator seed.
    pub seed: u64,
    /// Protected-set width of the `wide` generator.
    pub arity: usize,
    /// CSV label column (required for CSV).
    pub label: Option<String>,
    /// CSV protected attribute names (required non-empty for CSV).
    pub protected: Vec<String>,
    /// CSV label value treated as positive (`None`: `1`/`true`/`yes`).
    pub positive: Option<String>,
    /// CSV quantile buckets for continuous columns.
    pub bins: usize,
}

/// Why a source did not open: the cause, and the name or path it
/// concerns (`Display` leads with it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceError {
    /// The built-in name or file path.
    pub path: String,
    /// The cause.
    pub error: DatasetError,
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.error)
    }
}

impl std::error::Error for SourceError {}

/// Opens `req.source` in the order the module documents.
pub fn open(req: &Request) -> Result<Dataset, SourceError> {
    let fail = |error| SourceError {
        path: req.source.to_string(),
        error,
    };
    let invalid = |msg: &str| fail(DatasetError::Invalid(msg.into()));
    match synth::builtin(req.source, req.rows, req.seed, req.arity) {
        Ok(Some(data)) => return Ok(data),
        Ok(None) => {}
        Err(e) => return Err(invalid(&e.to_string())),
    }
    let bytes = std::fs::read(req.source).map_err(|e| fail(e.into()))?;
    match (req.format, store::sniff(&bytes)) {
        (FormatPolicy::Binary, Some(Format::Binary))
        | (FormatPolicy::Text, Some(Format::Text))
        | (FormatPolicy::Auto, Some(_)) => {
            return store::from_bytes_unpacked(&bytes, 0)
                .map(|stored| stored.data)
                .map_err(fail)
        }
        (FormatPolicy::Binary, _) => {
            return Err(invalid("not a remedy-columnar artifact (format binary)"))
        }
        (FormatPolicy::Text, _) => {
            return Err(invalid("not a remedy-dataset text artifact (format text)"))
        }
        (FormatPolicy::Auto | FormatPolicy::Csv, _) => {}
    }
    let Some(label) = req.label.as_deref().filter(|label| !label.is_empty()) else {
        return Err(invalid("CSV input needs a `label`"));
    };
    if req.protected.is_empty() {
        return Err(invalid("CSV input needs a non-empty `protected` list"));
    }
    let text = std::str::from_utf8(&bytes).map_err(|_| invalid("not UTF-8 text"))?;
    let opts = LoadOptions {
        positive_value: req.positive.clone(),
        numeric_bins: req.bins,
        protected: req.protected.clone(),
        ..LoadOptions::new(label)
    };
    RawTable::parse_str(text)
        .and_then(|table| table.to_dataset(&opts))
        .map_err(fail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::content_digest;
    use crate::persist::dataset_to_text;

    fn request(source: &str, format: FormatPolicy) -> Request<'_> {
        Request {
            source,
            format,
            rows: 300,
            seed: 5,
            arity: synth::WIDE_DEFAULT_ARITY,
            label: Some("recid".into()),
            protected: vec!["age".into(), "race".into(), "sex".into()],
            positive: None,
            bins: crate::csv::DEFAULT_BINS,
        }
    }

    #[test]
    fn builtin_names_generate_without_reading_a_file() {
        let data = open(&request("compas", FormatPolicy::Binary)).unwrap();
        assert_eq!(data, synth::compas_n(300, 5));
        let mut wide = request("wide", FormatPolicy::Auto);
        wide.arity = 33;
        assert_eq!(
            open(&wide).unwrap_err().to_string(),
            "wide: invalid request: arity must be in 1..=32, got 33"
        );
    }

    #[test]
    fn csv_text_and_binary_sources_open_to_the_same_dataset() {
        let dir = std::env::temp_dir().join("remedy_source_formats");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // a CSV round trip re-infers domains, so the CSV-read dataset is
        // the one every encoding stores
        let csv_path = dir.join("compas.csv");
        crate::csv::write_path(&synth::compas_n(300, 5), &csv_path).unwrap();
        let csv_path = csv_path.to_string_lossy().into_owned();
        let data = open(&request(&csv_path, FormatPolicy::Csv)).unwrap();
        let want = content_digest(dataset_to_text(&data).as_bytes());
        let text_path = dir.join("compas.remedy").to_string_lossy().into_owned();
        let bin_path = dir.join("compas.bin").to_string_lossy().into_owned();
        store::save(&data, &text_path, Format::Text).unwrap();
        store::save(&data, &bin_path, Format::Binary).unwrap();

        use FormatPolicy::{Auto, Binary, Csv, Text};
        let accepting = [
            (&csv_path, vec![Auto, Csv]),
            (&text_path, vec![Auto, Text]),
            (&bin_path, vec![Auto, Binary]),
        ];
        for (path, policies) in accepting {
            for policy in policies {
                let data =
                    open(&request(path, policy)).unwrap_or_else(|e| panic!("{policy:?}: {e}"));
                let got = content_digest(dataset_to_text(&data).as_bytes());
                assert_eq!(got, want, "{path} under {policy:?}");
            }
        }

        // a demanded artifact must be that artifact
        let err = open(&request(&text_path, Binary)).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("{text_path}: invalid request: not a remedy-columnar artifact (format binary)")
        );
        for path in [&csv_path, &bin_path] {
            let err = open(&request(path, Text)).unwrap_err();
            assert!(
                err.to_string()
                    .contains("not a remedy-dataset text artifact"),
                "{err}"
            );
        }
        // under `csv` an artifact is parsed as CSV, and fails as one
        let err = open(&request(&bin_path, Csv)).unwrap_err();
        assert!(err.to_string().starts_with(&bin_path), "{err}");
    }

    #[test]
    fn errors_name_the_path() {
        let missing = "/nonexistent/remedy/input.csv";
        let err = open(&request(missing, FormatPolicy::Auto)).unwrap_err();
        assert!(
            err.to_string()
                .starts_with(&format!("{missing}: io error: ")),
            "{err}"
        );
        let dir = std::env::temp_dir().join("remedy_source_errors");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.csv");
        std::fs::write(&path, "a,recid\n1,0\n").unwrap();
        let path = path.to_string_lossy().into_owned();
        let mut req = request(&path, FormatPolicy::Auto);
        req.label = None;
        assert_eq!(
            open(&req).unwrap_err().to_string(),
            format!("{path}: invalid request: CSV input needs a `label`")
        );
        req.label = Some("recid".into());
        req.protected.clear();
        assert_eq!(
            open(&req).unwrap_err().to_string(),
            format!("{path}: invalid request: CSV input needs a non-empty `protected` list")
        );
        req.protected = vec!["a".into()];
        req.label = Some("y".into());
        assert_eq!(
            open(&req).unwrap_err().to_string(),
            format!("{path}: unknown attribute `y`")
        );
        std::fs::write(&path, b"a,recid\n\xff,0\n").unwrap();
        assert_eq!(
            open(&req).unwrap_err().to_string(),
            format!("{path}: invalid request: not UTF-8 text")
        );
    }

    #[test]
    fn format_policy_parses_from_its_token_table() {
        assert_eq!("csv".parse::<FormatPolicy>(), Ok(FormatPolicy::Csv));
        assert_eq!(
            "zz".parse::<FormatPolicy>().unwrap_err(),
            "`zz` is not auto|text|binary|csv"
        );
    }
}
