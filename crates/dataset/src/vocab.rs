//! Token tables for the paper's parameter axes.
//!
//! Each parameter type (neighborhood, scope, technique, model, statistic)
//! declares one table next to its definition and implements `FromStr`
//! through [`parse`]. The CLI flags, the plan keys and the serve request
//! fields all call that parser, so the spellings they accept and the list
//! an error advertises come from the same table.

/// Each value with its accepted spellings. The first spelling is the
/// canonical one; the others are aliases, which errors do not list.
pub type Tokens<T> = [(T, &'static [&'static str])];

/// The value `token` spells in `table`, or an error naming `token` and
/// the canonical spellings.
pub fn parse<T: Copy>(table: &Tokens<T>, token: &str) -> Result<T, String> {
    match table
        .iter()
        .find(|(_, spellings)| spellings.contains(&token))
    {
        Some(&(value, _)) => Ok(value),
        None => {
            let canonical: Vec<&str> = table.iter().map(|(_, spellings)| spellings[0]).collect();
            Err(format!("`{token}` is not {}", canonical.join("|")))
        }
    }
}
