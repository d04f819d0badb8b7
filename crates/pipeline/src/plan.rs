//! Declarative run plans.
//!
//! A plan is a line-oriented text file: `key value` settings followed by
//! one `branch` line per (remedy technique, model) combination to
//! evaluate. `#` starts a comment; blank lines are ignored.
//!
//! ```text
//! # compare preferential sampling against the unremedied baseline
//! dataset compas
//! rows 2000
//! seed 42
//! split 0.7
//! tau 0.1
//! branch base technique=none model=dt
//! branch ps-dt technique=ps model=dt
//! branch us-rf technique=us model=rf
//! ```
//!
//! Every branch shares the Load → Discretize → Identify prefix of the DAG;
//! branches themselves are independent and run in parallel.

use crate::error::PipelineError;
pub use remedy_classifiers::ModelKind;
use remedy_core::{Enumeration, IbsParams, Neighborhood, RemedyParams, Technique, DEFAULT_SEED};
use remedy_fairness::Statistic;
use std::path::Path;

/// How a file `dataset` source is decoded by the Load stage.
///
/// Whatever the on-disk form, the stage's artifact (and therefore its
/// cache key) is always the canonical text bytes, so converting a
/// source between text and binary never invalidates a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceFormat {
    /// Sniff the magic line: binary columnar, exact dataset text, else
    /// CSV. The default — existing plans behave identically.
    #[default]
    Auto,
    /// Decode as text (exact dataset text or CSV), never binary.
    Text,
    /// Require the binary columnar artifact format.
    Binary,
}

/// One leg of the fan-out: a remedy technique (or none) plus a model.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchSpec {
    /// Unique branch name; keys manifest entries.
    pub name: String,
    /// Remedy technique; `None` trains on the unremedied split.
    pub technique: Option<Technique>,
    /// Downstream model.
    pub model: ModelKind,
    /// Per-branch remedy neighborhood override (`neighborhood=`); `None`
    /// inherits the plan's shared setting. This is what lets one plan run
    /// the Fig. 8 Unit-vs-OrderedRadius ablation as a branch fan-out.
    pub neighborhood: Option<Neighborhood>,
}

/// A parsed pipeline plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Dataset source: `adult`, `compas`, `law`, or a CSV path.
    pub source: String,
    /// Synthetic row count; `0` uses the generator's paper-sized default.
    pub rows: usize,
    /// Master seed, threaded through generation, splitting, remedy
    /// sampling, and model training.
    pub seed: u64,
    /// Train fraction of the train/test split.
    pub split: f64,
    /// Label column (CSV sources only).
    pub label: Option<String>,
    /// Protected attribute names (CSV sources only).
    pub protected: Vec<String>,
    /// Positive label value (CSV sources only).
    pub positive: Option<String>,
    /// Quantile buckets for continuous CSV columns.
    pub bins: usize,
    /// On-disk format of a file source (`format text|binary`; defaults
    /// to autodetection).
    pub format: SourceFormat,
    /// Identification parameters shared by every branch.
    pub ibs: IbsParams,
    /// Audit statistic γ.
    pub stat: Statistic,
    /// Audit unfairness threshold `τ_d`.
    pub tau_d: f64,
    /// Minimum subgroup support in the audit.
    pub min_support: f64,
    /// The fan-out.
    pub branches: Vec<BranchSpec>,
}

impl Default for Plan {
    fn default() -> Self {
        Plan {
            source: String::new(),
            rows: 0,
            seed: DEFAULT_SEED,
            split: 0.7,
            label: None,
            protected: Vec::new(),
            positive: None,
            bins: 4,
            format: SourceFormat::Auto,
            ibs: IbsParams::default(),
            stat: Statistic::default(),
            tau_d: 0.1,
            min_support: 0.1,
            branches: Vec::new(),
        }
    }
}

impl Plan {
    /// Parses a plan from text.
    pub fn parse(text: &str) -> Result<Plan, PipelineError> {
        let mut plan = Plan::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once(char::is_whitespace)
                .ok_or_else(|| at(idx, format!("`{line}` has no value")))?;
            let value = value.trim();
            match key {
                "dataset" => plan.source = value.to_string(),
                "rows" => plan.rows = parse_value(idx, key, value)?,
                "seed" => plan.seed = parse_value(idx, key, value)?,
                "split" => plan.split = parse_value(idx, key, value)?,
                "label" => plan.label = Some(value.to_string()),
                "protected" => {
                    plan.protected = value.split(',').map(|s| s.trim().to_string()).collect()
                }
                "positive" => plan.positive = Some(value.to_string()),
                "bins" => plan.bins = parse_value(idx, key, value)?,
                "format" => plan.format = parse_format(idx, value)?,
                "tau" => plan.ibs.tau_c = parse_value(idx, key, value)?,
                "min-size" => plan.ibs.min_size = parse_value(idx, key, value)?,
                "neighborhood" => plan.ibs.neighborhood = parse_value(idx, key, value)?,
                "scope" => plan.ibs.scope = parse_value(idx, key, value)?,
                "enumeration" => plan.ibs.enumeration = parse_enumeration(idx, value)?,
                "stat" => plan.stat = parse_value(idx, key, value)?,
                "tau-d" => plan.tau_d = parse_value(idx, key, value)?,
                "min-support" => plan.min_support = parse_value(idx, key, value)?,
                "branch" => plan.branches.push(parse_branch(idx, value)?),
                other => return Err(at(idx, format!("unknown key `{other}`"))),
            }
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Reads and parses a plan file.
    pub fn from_path(path: impl AsRef<Path>) -> Result<Plan, PipelineError> {
        let text = std::fs::read_to_string(&path).map_err(|e| {
            PipelineError::fatal(format!("cannot read {}: {e}", path.as_ref().display()))
        })?;
        Plan::parse(&text)
    }

    /// The remedy parameters a branch runs with: identification settings
    /// come from the shared plan, the neighborhood honors the branch's
    /// override, and the seed is the master seed. Errors on a branch
    /// without a technique, or on parameters outside the builder's domain.
    pub fn remedy_params(&self, branch: &BranchSpec) -> Result<RemedyParams, PipelineError> {
        let technique = branch.technique.ok_or_else(|| {
            PipelineError::invalid_plan(format!("branch `{}` has no remedy technique", branch.name))
        })?;
        RemedyParams::builder()
            .technique(technique)
            .tau_c(self.ibs.tau_c)
            .min_size(self.ibs.min_size)
            .neighborhood(branch.neighborhood.unwrap_or(self.ibs.neighborhood))
            .scope(self.ibs.scope)
            .seed(self.seed)
            .build()
            .map_err(|e| PipelineError::invalid_plan(format!("branch `{}`: {e}", branch.name)))
    }

    /// Whether the source is a built-in synthetic generator. `wide` is
    /// not one here: the load key (name, rows, seed) has no arity.
    pub(crate) fn builtin_source(&self) -> bool {
        matches!(self.source.as_str(), "adult" | "compas" | "law")
    }

    fn validate(&self) -> Result<(), PipelineError> {
        if self.source.is_empty() {
            return Err(PipelineError::invalid_plan("plan needs a `dataset` line"));
        }
        // the parser mutates `ibs` field-by-field, so the builder's domain
        // checks are re-run here over the shared params and every branch
        // neighborhood override
        self.ibs
            .validate()
            .map_err(|e| PipelineError::invalid_plan(format!("plan ibs params: {e}")))?;
        for b in &self.branches {
            if let Some(n) = b.neighborhood {
                let mut probe = self.ibs.clone();
                probe.neighborhood = n;
                probe.validate().map_err(|e| {
                    PipelineError::invalid_plan(format!("branch `{}`: {e}", b.name))
                })?;
            }
        }
        if self.branches.is_empty() {
            return Err(PipelineError::invalid_plan(
                "plan needs at least one `branch` line",
            ));
        }
        if !(self.split > 0.0 && self.split < 1.0) {
            return Err(PipelineError::invalid_plan(format!(
                "split {} is not in (0, 1)",
                self.split
            )));
        }
        let mut names: Vec<&str> = self.branches.iter().map(|b| b.name.as_str()).collect();
        names.sort_unstable();
        if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(PipelineError::invalid_plan(format!(
                "duplicate branch name `{}`",
                w[0]
            )));
        }
        let is_builtin = self.builtin_source();
        if is_builtin && self.format == SourceFormat::Binary {
            return Err(PipelineError::invalid_plan(
                "`format binary` needs a file dataset source, not a builtin",
            ));
        }
        // a binary columnar artifact carries its own schema, so the
        // label/protected lines raw CSV needs are only enforced when the
        // source could be CSV (auto or text format)
        let schemaless = !is_builtin && self.format != SourceFormat::Binary;
        if schemaless && self.label.is_none() {
            return Err(PipelineError::invalid_plan(
                "CSV sources need a `label` line (and `protected`)",
            ));
        }
        if schemaless && self.protected.is_empty() {
            return Err(PipelineError::invalid_plan(
                "CSV sources need a `protected` line",
            ));
        }
        Ok(())
    }
}

fn at(idx: usize, msg: String) -> PipelineError {
    PipelineError::invalid_plan(format!("plan line {}: {msg}", idx + 1))
}

/// Parses one plan value through its type's `FromStr`; the error of a
/// paper parameter names the rejected token and the accepted ones.
fn parse_value<T>(idx: usize, key: &str, value: &str) -> Result<T, PipelineError>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| at(idx, format!("{key}: {e}")))
}

fn parse_enumeration(idx: usize, value: &str) -> Result<Enumeration, PipelineError> {
    match value {
        "dense" => Ok(Enumeration::Dense),
        "pruned" => Ok(Enumeration::Pruned),
        other => Err(at(
            idx,
            format!("enumeration `{other}` is not dense|pruned"),
        )),
    }
}

fn parse_format(idx: usize, value: &str) -> Result<SourceFormat, PipelineError> {
    match value {
        "auto" => Ok(SourceFormat::Auto),
        "text" => Ok(SourceFormat::Text),
        "binary" => Ok(SourceFormat::Binary),
        other => Err(at(idx, format!("format `{other}` is not auto|text|binary"))),
    }
}

fn parse_branch(idx: usize, value: &str) -> Result<BranchSpec, PipelineError> {
    let mut fields = value.split_whitespace();
    let name = fields
        .next()
        .ok_or_else(|| at(idx, "branch needs a name".into()))?
        .to_string();
    let mut technique = None;
    let mut model = None;
    let mut neighborhood = None;
    for field in fields {
        let (k, v) = field
            .split_once('=')
            .ok_or_else(|| at(idx, format!("branch option `{field}` is not key=value")))?;
        match k {
            "technique" if v == "none" => technique = Some(None),
            "technique" => technique = Some(Some(parse_value(idx, k, v)?)),
            "model" => model = Some(parse_value(idx, k, v)?),
            "neighborhood" => neighborhood = Some(parse_value(idx, k, v)?),
            other => return Err(at(idx, format!("unknown branch option `{other}`"))),
        }
    }
    Ok(BranchSpec {
        name,
        technique: technique
            .ok_or_else(|| at(idx, "branch needs technique=none|ps|us|dp|massage".into()))?,
        model: model.ok_or_else(|| at(idx, "branch needs model=dt|rf|lg|nn|nb".into()))?,
        neighborhood,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAN: &str = "\
# demo plan
dataset compas
rows 1500
seed 7
split 0.7
tau 0.15        # inline comment
branch base technique=none model=dt
branch ps technique=ps model=dt
";

    #[test]
    fn parses_a_full_plan() {
        let plan = Plan::parse(PLAN).unwrap();
        assert_eq!(plan.source, "compas");
        assert_eq!(plan.rows, 1500);
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.ibs.tau_c, 0.15);
        assert_eq!(plan.branches.len(), 2);
        assert_eq!(plan.branches[0].technique, None);
        assert_eq!(
            plan.branches[1].technique,
            Some(Technique::PreferentialSampling)
        );
        assert_eq!(plan.branches[1].model, ModelKind::DecisionTree);
    }

    #[test]
    fn rejects_bad_plans() {
        assert!(Plan::parse("dataset compas\n").is_err()); // no branch
        assert!(Plan::parse("branch a technique=ps model=dt\n").is_err()); // no dataset
        assert!(Plan::parse(
            "dataset compas\nbranch a technique=ps model=dt\nbranch a technique=us model=dt\n"
        )
        .is_err()); // duplicate name
        assert!(
            Plan::parse("dataset compas\nsplit 1.5\nbranch a technique=ps model=dt\n").is_err()
        );
        assert!(Plan::parse("dataset x.csv\nbranch a technique=ps model=dt\n").is_err()); // no label
        assert!(
            Plan::parse("dataset compas\nfrobnicate 3\nbranch a technique=ps model=dt\n").is_err()
        );
        assert!(Plan::parse("dataset compas\nbranch a technique=zz model=dt\n").is_err());
        assert!(Plan::parse("dataset compas\nbranch a technique=ps model=xx\n").is_err());
        let nn = Plan::parse("dataset compas\nbranch a technique=ps model=nn\n").unwrap();
        assert_eq!(nn.branches[0].model, ModelKind::NeuralNetwork);
    }

    #[test]
    fn remedy_params_inherit_shared_settings() {
        let plan = Plan::parse(PLAN).unwrap();
        let params = plan.remedy_params(&plan.branches[1]).unwrap();
        assert_eq!(params.tau_c, 0.15);
        assert_eq!(params.seed, 7);
        assert_eq!(params.technique, Technique::PreferentialSampling);
        assert_eq!(params.neighborhood, Neighborhood::Unit);
        // the technique-less baseline has no remedy params
        assert!(plan.remedy_params(&plan.branches[0]).is_err());
    }

    #[test]
    fn enumeration_key_selects_the_mode() {
        let plan = Plan::parse(
            "dataset compas\n\
             enumeration pruned\n\
             branch ps technique=ps model=dt\n",
        )
        .unwrap();
        assert_eq!(plan.ibs.enumeration, Enumeration::Pruned);
        // the remedy has one counting engine whatever the identify mode,
        // so its params (and cache key) equal the dense plan's
        let dense = Plan::parse("dataset compas\nbranch ps technique=ps model=dt\n").unwrap();
        let params = plan.remedy_params(&plan.branches[0]).unwrap();
        assert_eq!(params, dense.remedy_params(&dense.branches[0]).unwrap());
        // default stays dense, so existing plans hash identically
        assert_eq!(
            Plan::parse(PLAN).unwrap().ibs.enumeration,
            Enumeration::Dense
        );
        assert!(Plan::parse(
            "dataset compas\nenumeration frobnicated\nbranch a technique=ps model=dt\n"
        )
        .is_err());
    }

    #[test]
    fn format_key_selects_the_decoder() {
        // default stays Auto, so existing plans parse and hash identically
        assert_eq!(Plan::parse(PLAN).unwrap().format, SourceFormat::Auto);
        let plan = Plan::parse(
            "dataset data.bin\n\
             format binary\n\
             branch a technique=ps model=dt\n",
        )
        .unwrap();
        assert_eq!(plan.format, SourceFormat::Binary);
        // binary artifacts carry a schema: no label/protected lines needed
        assert_eq!(plan.label, None);
        // text/auto file sources still demand CSV schema lines
        assert!(
            Plan::parse("dataset data.csv\nformat text\nbranch a technique=ps model=dt\n").is_err()
        );
        // builtins never read a file, so `format binary` is a mistake
        assert!(
            Plan::parse("dataset compas\nformat binary\nbranch a technique=ps model=dt\n").is_err()
        );
        assert!(
            Plan::parse("dataset compas\nformat parquet\nbranch a technique=ps model=dt\n")
                .is_err()
        );
    }

    #[test]
    fn branch_neighborhood_overrides_shared_setting() {
        let plan = Plan::parse(
            "dataset compas\n\
             neighborhood unit\n\
             branch unit technique=ps model=dt\n\
             branch ordered technique=ps model=dt neighborhood=1.5\n\
             branch full technique=ps model=dt neighborhood=full\n",
        )
        .unwrap();
        assert_eq!(plan.branches[0].neighborhood, None);
        assert_eq!(
            plan.branches[1].neighborhood,
            Some(Neighborhood::OrderedRadius(1.5))
        );
        assert_eq!(plan.branches[2].neighborhood, Some(Neighborhood::Full));
        let unit = plan.remedy_params(&plan.branches[0]).unwrap();
        let ordered = plan.remedy_params(&plan.branches[1]).unwrap();
        assert_eq!(unit.neighborhood, Neighborhood::Unit);
        assert_eq!(ordered.neighborhood, Neighborhood::OrderedRadius(1.5));
        // distinct neighborhoods must produce distinct remedy cache keys
        assert_ne!(unit.stable_hash(), ordered.stable_hash());
    }

    #[test]
    fn out_of_domain_params_are_rejected_at_parse_time() {
        // zero radius fails the builder's domain check
        assert!(
            Plan::parse("dataset compas\nbranch a technique=ps model=dt neighborhood=0.0\n")
                .is_err()
        );
        assert!(
            Plan::parse("dataset compas\nneighborhood -1.5\nbranch a technique=ps model=dt\n")
                .is_err()
        );
        assert!(Plan::parse("dataset compas\ntau -0.2\nbranch a technique=ps model=dt\n").is_err());
        assert!(
            Plan::parse("dataset compas\nmin-size 0\nbranch a technique=ps model=dt\n").is_err()
        );
    }
}
