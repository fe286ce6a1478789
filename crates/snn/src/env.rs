//! Strict environment knobs.
//!
//! The workspace's `PHI_*` knobs (bench floors, run counts and worker
//! counts, `PHI_TILE_CACHE`, `PHI_SIMD`, the smoke and track switches)
//! read through [`read_env`]: an unset variable means the knob's default,
//! and a set value that does not parse stops the process with the
//! variable's name and value. A typo must never quietly run the default
//! instead of what was asked for. On/off switches parse as a [`Flag`].

use std::str::FromStr;

/// Parses env knob `name` from its raw value: `default` when unset
/// (`None`), the parsed value when set.
///
/// # Panics
///
/// Panics, naming the variable and the value, when a set value does not
/// parse.
pub fn parse_env<T: FromStr>(name: &str, value: Option<&str>, default: T) -> T {
    match value {
        None => default,
        Some(raw) => raw
            .parse()
            .unwrap_or_else(|_| panic!("{name}={raw:?} does not parse; unset it for the default")),
    }
}

/// Reads env knob `name` from the process environment and parses it
/// through [`parse_env`].
///
/// # Panics
///
/// Panics when the variable is set but does not parse.
pub fn read_env<T: FromStr>(name: &str, default: T) -> T {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_env(name, raw.as_deref(), default)
}

/// An on/off knob: exactly `0` (off) or `1` (on). Every other spelling
/// (`true`, `yes`, an empty value) is refused, so a switch can never read
/// as the opposite of what was meant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag(pub bool);

impl FromStr for Flag {
    type Err = ();

    fn from_str(raw: &str) -> Result<Self, ()> {
        match raw {
            "0" => Ok(Flag(false)),
            "1" => Ok(Flag(true)),
            _ => Err(()),
        }
    }
}

/// Reads on/off knob `name` through [`read_env`]; off when unset.
///
/// # Panics
///
/// Panics when the variable is set to anything but `0` or `1`.
pub fn read_flag(name: &str) -> bool {
    read_env(name, Flag(false)).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_values_parse_and_unset_means_default() {
        assert_eq!(parse_env("PHI_SERVER_MIN_SPEEDUP", None, 3.0), 3.0);
        assert_eq!(parse_env("PHI_SERVER_MIN_SPEEDUP", Some("0.5"), 3.0), 0.5);
        assert_eq!(parse_env("PHI_SERVER_MIN_SPEEDUP", Some("0"), 3.0), 0.0);
        assert_eq!(parse_env("PHI_BENCH_RUNS", Some("9"), 5usize), 9);
        assert_eq!(parse_env("PHI_BENCH_RUNS", None, 5usize), 5);
        assert_eq!(read_env("PHI_NO_SUCH_KNOB", 4.0), 4.0);
    }

    #[test]
    #[should_panic(expected = "PHI_SERVER_MIN_SPEEDUP=\"O.5\" does not parse")]
    fn malformed_float_is_refused() {
        parse_env("PHI_SERVER_MIN_SPEEDUP", Some("O.5"), 3.0);
    }

    #[test]
    fn flags_are_zero_or_one() {
        assert_eq!(parse_env("PHI_SMOKE", None, Flag(false)), Flag(false));
        assert_eq!(parse_env("PHI_SMOKE", Some("1"), Flag(false)), Flag(true));
        // `PHI_SMOKE=0` is off (it used to switch smoke on by presence).
        assert_eq!(parse_env("PHI_SMOKE", Some("0"), Flag(false)), Flag(false));
        assert!(!read_flag("PHI_NO_SUCH_FLAG"));
    }

    #[test]
    #[should_panic(expected = "PHI_SERVER_SMOKE=\"true\" does not parse")]
    fn flag_spelled_true_is_refused() {
        parse_env("PHI_SERVER_SMOKE", Some("true"), Flag(false));
    }

    #[test]
    #[should_panic(expected = "PHI_SMOKE=\"\" does not parse")]
    fn empty_flag_is_refused() {
        parse_env("PHI_SMOKE", Some(""), Flag(false));
    }

    #[test]
    #[should_panic(expected = "PHI_BENCH_RUNS=\"five\" does not parse")]
    fn malformed_count_is_refused() {
        parse_env("PHI_BENCH_RUNS", Some("five"), 5usize);
    }
}
