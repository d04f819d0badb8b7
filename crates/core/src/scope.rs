//! Identification scopes: which hierarchy levels are examined.
//!
//! The paper compares its full *Lattice* traversal against two ablations
//! (§V-B2): *Leaf*, which only inspects the fully-specified intersectional
//! regions, and *Top*, which only inspects the single-attribute groups at
//! level 1.

use remedy_dataset::vocab::{self, Tokens};

/// Which part of the hierarchy to search for biased regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scope {
    /// Every level of the lattice (the paper's method).
    #[default]
    Lattice,
    /// Only the leaf level (level `|X|`): fully-specified regions.
    Leaf,
    /// Only level 1: one deterministic attribute per pattern.
    Top,
}

impl Scope {
    /// Whether a node at `level` (number of deterministic attributes) is
    /// examined under this scope, given `total` protected attributes.
    pub fn includes(self, level: usize, total: usize) -> bool {
        match self {
            Scope::Lattice => level >= 1 && level <= total,
            Scope::Leaf => level == total,
            Scope::Top => level == 1,
        }
    }

    /// Display name used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            Scope::Lattice => "Lattice",
            Scope::Leaf => "Leaf",
            Scope::Top => "Top",
        }
    }
}

/// The accepted spellings of each scope.
const SCOPE_TOKENS: &Tokens<Scope> = &[
    (Scope::Lattice, &["lattice"]),
    (Scope::Leaf, &["leaf"]),
    (Scope::Top, &["top"]),
];

impl std::str::FromStr for Scope {
    type Err = String;
    fn from_str(s: &str) -> Result<Scope, String> {
        vocab::parse(SCOPE_TOKENS, s)
    }
}

impl std::fmt::Display for Scope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_spans_all_levels() {
        for level in 1..=4 {
            assert!(Scope::Lattice.includes(level, 4));
        }
        assert!(!Scope::Lattice.includes(0, 4));
        assert!(!Scope::Lattice.includes(5, 4));
    }

    #[test]
    fn leaf_and_top_are_single_levels() {
        assert!(Scope::Leaf.includes(3, 3));
        assert!(!Scope::Leaf.includes(2, 3));
        assert!(Scope::Top.includes(1, 3));
        assert!(!Scope::Top.includes(2, 3));
    }

    #[test]
    fn tokens_parse_and_reject() {
        assert_eq!("lattice".parse::<Scope>().unwrap(), Scope::Lattice);
        assert_eq!("leaf".parse::<Scope>().unwrap(), Scope::Leaf);
        assert_eq!("top".parse::<Scope>().unwrap(), Scope::Top);
        let err = "x".parse::<Scope>().unwrap_err();
        assert_eq!(err, "`x` is not lattice|leaf|top");
        for (scope, spellings) in SCOPE_TOKENS {
            assert!(err.contains(spellings[0]));
            for spelling in *spellings {
                assert_eq!(spelling.parse::<Scope>().unwrap(), *scope);
            }
        }
    }

    #[test]
    fn names() {
        assert_eq!(Scope::Lattice.to_string(), "Lattice");
        assert_eq!(Scope::default(), Scope::Lattice);
    }
}
