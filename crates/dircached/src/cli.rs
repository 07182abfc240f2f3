//! Flag-value parsing shared by the `dircached` and `dirload` binaries.

use std::str::FromStr;
use std::time::Duration;

/// Parses the value given to `flag`.
pub fn parse<T: FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

/// Parses a seconds flag into the `Duration` it names: NaN, negative,
/// infinite and out-of-range values are errors.
pub fn parse_secs(value: &str, flag: &str) -> Result<Duration, String> {
    Duration::try_from_secs_f64(parse(value, flag)?)
        .map_err(|_| format!("{flag}: {value:?} is not a number of seconds"))
}
