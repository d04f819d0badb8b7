//! Dataset registry for the experiment binaries.

use remedy_dataset::{store, synth, Dataset, Format};
use std::path::{Path, PathBuf};

/// The three evaluation datasets (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetSpec {
    /// UCI Adult stand-in: 45,222 rows, 6 protected attributes.
    Adult,
    /// ProPublica COMPAS stand-in: 6,172 rows, 3 protected attributes.
    Compas,
    /// Law School stand-in: 4,590 rows (balanced), 4 protected attributes.
    LawSchool,
}

impl DatasetSpec {
    /// All three datasets in the paper's order.
    pub const ALL: [DatasetSpec; 3] = [
        DatasetSpec::Adult,
        DatasetSpec::Compas,
        DatasetSpec::LawSchool,
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetSpec::Adult => "Adult",
            DatasetSpec::Compas => "ProPublica",
            DatasetSpec::LawSchool => "Law School",
        }
    }

    /// Parses a CLI argument.
    pub fn parse(arg: &str) -> Option<Self> {
        match arg.to_ascii_lowercase().as_str() {
            "adult" => Some(DatasetSpec::Adult),
            "compas" | "propublica" => Some(DatasetSpec::Compas),
            "law" | "lawschool" | "law-school" => Some(DatasetSpec::LawSchool),
            _ => None,
        }
    }

    /// The built-in generator name ([`synth::builtin`]).
    pub fn slug(self) -> &'static str {
        match self {
            DatasetSpec::Adult => "adult",
            DatasetSpec::Compas => "compas",
            DatasetSpec::LawSchool => "law",
        }
    }

    /// The τ_c the paper found optimal for this dataset (§V-B2).
    pub fn default_tau_c(self) -> f64 {
        match self {
            DatasetSpec::Adult => 0.5,
            DatasetSpec::Compas | DatasetSpec::LawSchool => 0.1,
        }
    }
}

impl std::fmt::Display for DatasetSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Materializes a dataset at full paper size.
pub fn load(spec: DatasetSpec, seed: u64) -> Dataset {
    load_n(spec, 0, seed)
}

/// Materializes a variant of `n` rows (`0` = the paper's size).
pub fn load_n(spec: DatasetSpec, n: usize, seed: u64) -> Dataset {
    synth::builtin(spec.slug(), n, seed, synth::WIDE_DEFAULT_ARITY)
        .ok()
        .flatten()
        .expect("a built-in generator name")
}

/// Writes `data` under `dir` in both persisted encodings and returns the
/// `(text, binary)` paths. Cold-load benchmarks and scripts use this to
/// stage identical inputs for the two decoders.
pub fn materialize(data: &Dataset, dir: &Path, stem: &str) -> std::io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let text = dir.join(format!("{stem}.remedy"));
    let binary = dir.join(format!("{stem}.bin"));
    store::save(data, &text, Format::Text).map_err(io_err)?;
    store::save(data, &binary, Format::Binary).map_err(io_err)?;
    Ok((text, binary))
}

fn io_err(e: remedy_dataset::DatasetError) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_paper_names() {
        assert_eq!(DatasetSpec::parse("Adult"), Some(DatasetSpec::Adult));
        assert_eq!(DatasetSpec::parse("propublica"), Some(DatasetSpec::Compas));
        assert_eq!(DatasetSpec::parse("law"), Some(DatasetSpec::LawSchool));
        assert_eq!(DatasetSpec::parse("mnist"), None);
    }

    #[test]
    fn tau_defaults_match_section_5b2() {
        assert_eq!(DatasetSpec::Adult.default_tau_c(), 0.5);
        assert_eq!(DatasetSpec::Compas.default_tau_c(), 0.1);
        assert_eq!(DatasetSpec::LawSchool.default_tau_c(), 0.1);
    }

    #[test]
    fn load_n_scales() {
        let d = load_n(DatasetSpec::Compas, 500, 1);
        assert_eq!(d.len(), 500);
    }
}
