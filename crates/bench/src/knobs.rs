//! The one reader of this crate's numeric `DHDL_*` environment knobs.

use std::str::FromStr;

/// Parse a knob's value; the error is the warning to print.
fn parse<T: FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("warning: {name}: `{value}` is not a valid number; using the default"))
}

/// The numeric knob `name`, or `None` (the caller's default applies)
/// when it is unset. A value that does not parse warns on stderr before
/// falling back: a typo'd `DHDL_T4_POINTS=3k` must not silently run the
/// default budget.
pub fn knob<T: FromStr>(name: &str) -> Option<T> {
    let value = std::env::var(name).ok()?;
    parse(name, &value).map_err(|w| eprintln!("{w}")).ok()
}

#[cfg(test)]
mod tests {
    use super::parse;

    #[test]
    fn a_typo_warns_with_the_variable_and_the_value() {
        assert_eq!(parse::<usize>("DHDL_T4_POINTS", "250"), Ok(250));
        let warning = parse::<usize>("DHDL_T4_POINTS", "3k").unwrap_err();
        assert!(
            warning.starts_with("warning: DHDL_T4_POINTS: `3k`"),
            "{warning}"
        );
        assert!(parse::<usize>("DHDL_T4_POINTS", "").is_err());
    }
}
