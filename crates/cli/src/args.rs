//! Minimal dependency-free argument parsing for the `remedy` CLI.
//!
//! Supports `--flag value`, `--flag=value`, and positional arguments; each
//! subcommand validates its own options and produces a typed config.

use std::collections::HashMap;

/// Parsed command line: positionals plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positionals: Vec<String>,
    options: HashMap<String, String>,
}

/// A CLI parsing/validation failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl Args {
    /// Parses raw arguments (excluding the program name and subcommand).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, CliError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(token) = iter.next() {
            if let Some(flag) = token.strip_prefix("--") {
                if flag.is_empty() {
                    return Err(CliError("stray `--`".into()));
                }
                if let Some((key, value)) = flag.split_once('=') {
                    args.options.insert(key.to_string(), value.to_string());
                } else {
                    // a flag followed by another option (or nothing) is
                    // boolean: stored with an empty value
                    let value = match iter.peek() {
                        Some(next) if !next.starts_with("--") => iter.next().unwrap(),
                        _ => String::new(),
                    };
                    args.options.insert(flag.to_string(), value);
                }
            } else {
                args.positionals.push(token);
            }
        }
        Ok(args)
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Number of positional arguments.
    pub fn positional_count(&self) -> usize {
        self.positionals.len()
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A required string option (boolean-style empty values are rejected).
    pub fn require(&self, key: &str) -> Result<&str, CliError> {
        match self.get(key) {
            Some(v) if !v.is_empty() => Ok(v),
            Some(_) => Err(CliError(format!("--{key} expects a value"))),
            None => Err(CliError(format!("missing required option --{key}"))),
        }
    }

    /// Whether a boolean flag was given (with or without a value).
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// A typed option with a default; a value its `FromStr` rejects is
    /// reported with that parser's error.
    pub fn get_parsed<T>(&self, key: &str, default: T) -> Result<T, CliError>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|e| CliError(format!("--{key}: {e}"))),
        }
    }

    /// A comma-separated list option.
    pub fn get_list(&self, key: &str) -> Vec<String> {
        self.get(key)
            .map(|v| v.split(',').map(|s| s.trim().to_string()).collect())
            .unwrap_or_default()
    }

    /// Rejects unknown options (typo protection).
    pub fn check_known(&self, known: &[&str]) -> Result<(), CliError> {
        for key in self.options.keys() {
            if !known.contains(&key.as_str()) {
                return Err(CliError(format!(
                    "unknown option --{key} (expected one of: {})",
                    known.join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn positional_and_options() {
        let a = parse(&["data.csv", "--label", "y", "--tau=0.2"]);
        assert_eq!(a.positional(0), Some("data.csv"));
        assert_eq!(a.positional_count(), 1);
        assert_eq!(a.get("label"), Some("y"));
        assert_eq!(a.get("tau"), Some("0.2"));
    }

    #[test]
    fn typed_and_list_options() {
        let a = parse(&["--tau", "0.25", "--protected", "race, sex"]);
        assert_eq!(a.get_parsed("tau", 0.1).unwrap(), 0.25);
        assert_eq!(a.get_parsed("k", 30usize).unwrap(), 30);
        assert_eq!(a.get_list("protected"), vec!["race", "sex"]);
        assert!(a.get_list("absent").is_empty());
    }

    #[test]
    fn boolean_flags() {
        let a = parse(&["--remedied", "--tau", "0.2"]);
        assert!(a.flag("remedied"));
        assert!(!a.flag("absent"));
        assert_eq!(a.get_parsed("tau", 0.1).unwrap(), 0.2);
        // trailing flag is boolean too
        let a = parse(&["--verbose"]);
        assert!(a.flag("verbose"));
        // but require() rejects empty values
        assert!(a.require("verbose").is_err());
    }

    #[test]
    fn errors() {
        assert!(Args::parse(["--".to_string()]).is_err());
        let a = parse(&["--tau", "abc"]);
        assert!(a.get_parsed("tau", 0.1f64).is_err());
        assert!(a.require("missing").is_err());
        assert!(a.check_known(&["label"]).is_err());
        assert!(a.check_known(&["tau"]).is_ok());
    }
}
