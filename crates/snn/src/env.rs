//! Strict environment knobs.
//!
//! The workspace's `PHI_*` knobs (bench floors, run counts,
//! `PHI_TILE_CACHE`, `PHI_SIMD`, the smoke and track switches) read
//! through [`read_env`]: an unset variable means the knob's default, and
//! a set value that does not parse stops the process with the variable's
//! name and value. A typo must never quietly run the default
//! instead of what was asked for — in the value or in the name: the
//! first knob read also checks every set `PHI_*` variable against
//! [`KNOBS`], and an unregistered one (`PHI_TILE_CAHCE=0`) stops the
//! process, naming it. On/off switches parse as a [`Flag`].

use std::str::FromStr;
use std::sync::Once;

/// Every `PHI_*` knob the workspace reads. A knob is added here when
/// it is added to the code; a set `PHI_*` variable outside this list is
/// a typo or a knob that no longer exists.
pub const KNOBS: &[&str] = &[
    "PHI_BENCH_RUNS",
    "PHI_PIPELINE_MAX_COLD_RATIO",
    "PHI_PIPELINE_MIN_SIMD_SPEEDUP",
    "PHI_SERVER_MIN_DRIFT_RECOVERY",
    "PHI_SERVER_MIN_SPEEDUP",
    "PHI_SERVER_MIN_STREAM_SPEEDUP",
    "PHI_SERVER_SMOKE",
    "PHI_SERVING_MIN_CPU_SPEEDUP",
    "PHI_SERVING_MIN_SPEEDUP",
    "PHI_SERVING_TRACKS",
    "PHI_SIMD",
    "PHI_SMOKE",
    "PHI_TILE_CACHE",
];

/// The `PHI_*` names among `names` that are not in [`KNOBS`], in order.
fn unknown_knobs<I, S>(names: I) -> Vec<String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    names
        .into_iter()
        .filter(|name| name.as_ref().starts_with("PHI_") && !KNOBS.contains(&name.as_ref()))
        .map(|name| name.as_ref().to_owned())
        .collect()
}

/// Scans the process environment once for unregistered `PHI_*` names.
///
/// # Panics
///
/// Panics, naming them, when any is set.
fn check_knob_names() {
    static SCAN: Once = Once::new();
    SCAN.call_once(|| {
        let unknown =
            unknown_knobs(std::env::vars_os().map(|(name, _)| name.to_string_lossy().into_owned()));
        assert!(
            unknown.is_empty(),
            "unknown knob {} is set; unset it (the known knobs are listed in snn_core::env::KNOBS)",
            unknown.join(", ")
        );
    });
}

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
/// through [`parse_env`]. The first call also checks every set `PHI_*`
/// name against [`KNOBS`].
///
/// # Panics
///
/// Panics when the variable is set but does not parse, or when an
/// unregistered `PHI_*` variable is set.
pub fn read_env<T: FromStr>(name: &str, default: T) -> T {
    check_knob_names();
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

    #[test]
    fn only_unregistered_phi_names_are_unknown() {
        // Spelled at run time, so the literal scan below does not flag
        // the deliberate typo.
        let typo = "PHI_TILE_CACHE".replace("CACHE", "CAHCE");
        let names =
            ["PATH", "PHI_SIMD", &typo, "HOME", "PHI_TILE_CACHE", "PHI_NO_SUCH_KNOB", "phi_x"];
        assert_eq!(unknown_knobs(names), vec![typo.as_str(), "PHI_NO_SUCH_KNOB"]);
        assert!(unknown_knobs(KNOBS.iter()).is_empty());
        assert!(unknown_knobs(Vec::<String>::new()).is_empty());
    }

    /// Collects the `"PHI_…"` string literals in the Rust sources under
    /// `dir` with their files (`PHI_NO_SUCH_*`, which tests read to get
    /// a default, excepted).
    fn phi_literals(dir: &std::path::Path, found: &mut Vec<(String, String)>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    phi_literals(&path, found);
                }
                continue;
            }
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable source");
            let quote = concat!("\"", "PHI_");
            for (at, _) in text.match_indices(quote) {
                let rest = &text[at + 1..];
                let end = rest
                    .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                    .unwrap_or(rest.len());
                let name = &rest[..end];
                // `"PHI_"` alone is the prefix, not a knob.
                let knob = end > quote.len() - 1 && rest[end..].starts_with('"');
                if knob && !name.starts_with("PHI_NO_SUCH_") {
                    found.push((name.to_owned(), path.display().to_string()));
                }
            }
        }
    }

    #[test]
    fn every_phi_literal_is_a_registered_knob() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut found = Vec::new();
        for dir in ["crates", "src", "tests", "examples", "phibench/src"] {
            phi_literals(&root.join(dir), &mut found);
        }
        assert!(found.iter().any(|(name, _)| name == "PHI_SIMD"), "the scan found no knob");
        for (name, file) in &found {
            assert!(KNOBS.contains(&name.as_str()), "{name} in {file} is not in KNOBS");
        }
    }
}
