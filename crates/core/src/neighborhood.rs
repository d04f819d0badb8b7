//! Neighboring-region specifications (Definition 4).
//!
//! In the paper's basic setting every pair of distinct attribute values is
//! one unit apart, so with the default threshold `T = 1` the neighboring
//! region of `r` is the union of same-dimension regions that differ from
//! `r` in exactly one attribute value. With `T = |X|` the neighboring
//! region degenerates to *all* other regions with the same deterministic
//! attributes — i.e. the complement of `r` (§V-B3 evaluates both).
//!
//! The paper also notes that attributes with a natural order (age buckets,
//! income brackets) can refine the metric with their code distance; the
//! [`Neighborhood::OrderedRadius`] variant implements that extension.

use remedy_dataset::vocab::{self, Tokens};

/// How the neighboring region of a region is formed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Neighborhood {
    /// `T = 1` in the unit-distance setting: regions differing in exactly
    /// one attribute value (the paper's default).
    #[default]
    Unit,
    /// `T = |X|`: all other regions with the same deterministic attributes
    /// (the complement of `r` within its node).
    Full,
    /// Distance-`T` ball under the refined metric where
    /// [`ordered`](remedy_dataset::Attribute::is_ordered) attributes
    /// contribute `|code_a − code_b|` and unordered ones `0/1`. Both
    /// identification algorithms and the remedy evaluate it through the
    /// shared per-node enumeration in
    /// [`NeighborModel`](crate::neighbor_model::NeighborModel).
    OrderedRadius(f64),
}

impl Neighborhood {
    /// Display name used in figures.
    pub fn name(self) -> String {
        match self {
            Neighborhood::Unit => "T=1".to_string(),
            Neighborhood::Full => "T=|X|".to_string(),
            Neighborhood::OrderedRadius(t) => format!("T={t}(ordered)"),
        }
    }
}

/// The accepted spellings of the named neighborhoods; any other number
/// is an [`Neighborhood::OrderedRadius`].
const NEIGHBORHOOD_TOKENS: &Tokens<Neighborhood> = &[
    (Neighborhood::Unit, &["unit", "1"]),
    (Neighborhood::Full, &["full"]),
];

impl std::str::FromStr for Neighborhood {
    type Err = String;
    fn from_str(s: &str) -> Result<Neighborhood, String> {
        vocab::parse(NEIGHBORHOOD_TOKENS, s).or_else(|err| {
            s.parse()
                .map(Neighborhood::OrderedRadius)
                .map_err(|_| err + "|<radius>")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_parse_and_reject() {
        assert_eq!("unit".parse::<Neighborhood>().unwrap(), Neighborhood::Unit);
        assert_eq!("1".parse::<Neighborhood>().unwrap(), Neighborhood::Unit);
        assert_eq!("full".parse::<Neighborhood>().unwrap(), Neighborhood::Full);
        assert_eq!(
            "1.5".parse::<Neighborhood>().unwrap(),
            Neighborhood::OrderedRadius(1.5)
        );
        let err = "x".parse::<Neighborhood>().unwrap_err();
        assert_eq!(err, "`x` is not unit|full|<radius>");
        for (neighborhood, spellings) in NEIGHBORHOOD_TOKENS {
            assert!(err.contains(spellings[0]));
            for spelling in *spellings {
                assert_eq!(spelling.parse::<Neighborhood>().unwrap(), *neighborhood);
            }
        }
    }

    #[test]
    fn names() {
        assert_eq!(Neighborhood::Unit.name(), "T=1");
        assert_eq!(Neighborhood::Full.name(), "T=|X|");
        assert_eq!(Neighborhood::OrderedRadius(2.0).name(), "T=2(ordered)");
    }
}
