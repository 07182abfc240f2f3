//! The one typed flag table behind every command-line front end of the
//! workspace (`dirsim`, `dircached`, `dirload`).
//!
//! A binary declares each flag once, as a [`FlagSpec`] of a [`Kind`]
//! with its bounds. [`Command::parse`] checks every value against them
//! before the program runs: unknown flags and malformed or out-of-range
//! values are errors, never silently defaulted or clamped, and
//! [`Command::parse_or_exit`] turns an error into exit status 2 with
//! the usage. The usage is rendered from the same table, bounds
//! included, so `--help` and the parser cannot disagree.

use std::collections::BTreeMap;
use std::time::Duration;

/// What a flag's value may be. [`Command::parse`] checks every value
/// against its flag's kind, and `--help` prints the bounds from here.
#[derive(Clone, Copy)]
pub enum Kind {
    /// No value: the flag is present or absent.
    Bool,
    /// An integer in `min..=max`.
    U64 { min: u64, max: u64 },
    /// A finite number in `[min, max]`; with `list`, a comma-separated
    /// list of them.
    F64 { min: f64, max: f64, list: bool },
    /// One of these words.
    Enum(&'static [&'static str]),
    /// Free text: a file path, an address, or a value its handler
    /// parses (`dirsim clients --churn`).
    Text,
}

/// One checked flag value.
enum Value {
    Present,
    U64(u64),
    F64(Vec<f64>),
    Text(String),
}

impl Kind {
    /// The bounds `--help` prints, if the kind has any.
    fn bounds(self) -> Option<String> {
        match self {
            Kind::Bool | Kind::Text => None,
            Kind::U64 { min, max: u64::MAX } => Some(format!("[≥ {min}]")),
            Kind::U64 { min, max } => Some(format!("[{min}, {max}]")),
            Kind::F64 { min, max, .. } => Some(format!("[{min}, {max}]")),
            Kind::Enum(words) => Some(format!("[{}]", words.join(" | "))),
        }
    }

    /// Checks one raw value of flag `name` against this kind.
    fn parse(self, name: &str, raw: &str) -> Result<Value, String> {
        let bounds = self.bounds().unwrap_or_default();
        match self {
            Kind::Bool => Ok(Value::Present),
            Kind::U64 { min, max } => match raw.parse() {
                Ok(value) if (min..=max).contains(&value) => Ok(Value::U64(value)),
                _ => Err(format!(
                    "{name} expects an integer in {bounds}, got {raw:?}"
                )),
            },
            // The closed range holds no NaN or infinity: nothing
            // downstream meets a non-finite quantity.
            Kind::F64 { min, max, list } => raw
                .split(',')
                .map(|part| part.trim().parse().ok().filter(|v| (min..=max).contains(v)))
                .collect::<Option<Vec<f64>>>()
                .filter(|values| list || values.len() == 1)
                .map(Value::F64)
                .ok_or_else(|| {
                    let numbers = if list { "numbers" } else { "a number" };
                    format!("{name} expects {numbers} in {bounds}, got {raw:?}")
                }),
            Kind::Enum(words) if words.contains(&raw) => Ok(Value::Text(raw.to_string())),
            Kind::Enum(_) => Err(format!("{name} expects one of {bounds}, got {raw:?}")),
            Kind::Text => Ok(Value::Text(raw.to_string())),
        }
    }

    /// Values to walk a numeric flag with, each marked with whether it
    /// is in bounds: the bounds themselves; just past each; the
    /// spellings no bound admits (NaN, infinity, a negative, 2⁶⁴); and
    /// 2⁶⁴ − 1 wherever it is past the maximum.
    fn walk_values(self) -> Vec<(String, bool)> {
        fn strings<T: ToString>(values: impl IntoIterator<Item = T>) -> Vec<String> {
            values.into_iter().map(|value| value.to_string()).collect()
        }
        let (bounds, mut past) = match self {
            Kind::U64 { min, max } => {
                let past = [max.checked_add(1), min.checked_sub(1), Some(u64::MAX)];
                let past = past.into_iter().flatten().filter(|&v| v < min || v > max);
                (strings([min, max]), strings(past))
            }
            Kind::F64 { min, max, .. } => {
                let past = [max + 1.0, min - 1.0, u64::MAX as f64, 0.0];
                let past = past.into_iter().filter(|&v| v < min || v > max);
                (strings([min, max]), strings(past))
            }
            Kind::Bool | Kind::Enum(_) | Kind::Text => return Vec::new(),
        };
        past.extend(strings(["nan", "inf", "-1", "18446744073709551616"]));
        let bounds = bounds.into_iter().map(|value| (value, true));
        bounds
            .chain(past.into_iter().map(|value| (value, false)))
            .collect()
    }
}

/// One flag a command accepts.
pub struct FlagSpec {
    /// Flag name, including the leading dashes, or [`POSITIONAL`].
    name: &'static str,
    /// Metavariable shown in usage ("" for a boolean flag).
    metavar: &'static str,
    kind: Kind,
    /// One-line description for `--help`.
    help: &'static str,
}

/// A `'static` string: every name, metavariable and help text.
type Str = &'static str;

pub const fn flag(name: Str, metavar: Str, kind: Kind, help: Str) -> FlagSpec {
    FlagSpec {
        name,
        metavar,
        kind,
        help,
    }
}

pub const fn int_flag(name: Str, metavar: Str, min: u64, max: u64, help: Str) -> FlagSpec {
    flag(name, metavar, Kind::U64 { min, max }, help)
}

pub const fn num_flag(name: Str, metavar: Str, min: f64, max: f64, help: Str) -> FlagSpec {
    let list = false;
    flag(name, metavar, Kind::F64 { min, max, list }, help)
}

pub const fn nums_flag(name: Str, metavar: Str, min: f64, max: f64, help: Str) -> FlagSpec {
    let list = true;
    flag(name, metavar, Kind::F64 { min, max, list }, help)
}

/// Longest seconds flag: one leap year, far below where a `Duration`
/// or an `Instant` deadline overflows.
pub const MAX_SECS: f64 = 366.0 * 86_400.0;

/// Most threads a thread-count flag may start: far above any core
/// count, far below a process's thread limit.
pub const MAX_THREADS: u64 = 1_024;

/// A seconds flag, read with [`Args::secs`]: at least `min`, at most
/// [`MAX_SECS`].
pub const fn secs_flag(name: Str, min: f64, help: Str) -> FlagSpec {
    num_flag(name, "SECS", min, MAX_SECS, help)
}

pub const fn text_flag(name: Str, metavar: Str, help: Str) -> FlagSpec {
    flag(name, metavar, Kind::Text, help)
}

pub const fn bool_flag(name: Str, help: Str) -> FlagSpec {
    flag(name, "", Kind::Bool, help)
}

/// Spec name of a command's one positional argument (`dirsim fig
/// <name>`); the token itself is stored as its value.
pub const POSITIONAL: &str = "<name>";

/// One `--help` line per flag, with the bounds its kind declares, then
/// the line of `--help` itself.
pub fn flag_help<'a>(flags: impl Iterator<Item = &'a FlagSpec>) -> String {
    let mut out = String::new();
    for flag in flags {
        let left = format!("{} {}", flag.name, flag.metavar);
        let bounds = flag
            .kind
            .bounds()
            .map_or(String::new(), |b| format!(" {b}"));
        out.push_str(&format!(
            "    {:<18} {}{bounds}\n",
            left.trim_end(),
            flag.help
        ));
    }
    out + "    -h, --help         show this help"
}

/// A command line: its name as typed (`dirsim run`, `dircached`), a
/// one-line description and the flag tables it accepts.
pub struct Command<'a> {
    pub name: &'a str,
    pub about: &'a str,
    pub tables: &'a [&'static [FlagSpec]],
}

impl Command<'_> {
    fn flags(&self) -> impl Iterator<Item = &'static FlagSpec> + Clone + '_ {
        self.tables.iter().flat_map(|table| table.iter())
    }

    /// The usage `--help` prints, rendered from the flag tables.
    pub fn usage(&self) -> String {
        let positional = self.flags().any(|f| f.name == POSITIONAL);
        let positional = if positional { " <name>" } else { "" };
        let (name, about, flags) = (self.name, self.about, flag_help(self.flags()));
        format!("usage: {name}{positional} [options]\n  {about}\n  options:\n{flags}")
    }

    /// Strictly parses `raw`: every token must be a known flag, with a
    /// value of the flag's kind if it takes one. `Ok(None)` means
    /// `-h`/`--help` was asked for.
    pub fn parse(&self, raw: &[String]) -> Result<Option<Args>, String> {
        let mut values = BTreeMap::new();
        let mut tokens = raw.iter();
        while let Some(token) = tokens.next() {
            if token == "-h" || token == "--help" {
                return Ok(None);
            }
            let positional = !token.starts_with('-') && !values.contains_key(POSITIONAL);
            let Some(flag) = self
                .flags()
                .find(|f| f.name == token.as_str() || (positional && f.name == POSITIONAL))
            else {
                return Err(format!("unknown argument {token:?}"));
            };
            let raw_value = match flag.kind {
                Kind::Bool => "",
                _ if flag.name == POSITIONAL => token,
                _ => match tokens.next() {
                    Some(v) if !v.starts_with("--") => v,
                    _ => return Err(format!("{} expects a value <{}>", flag.name, flag.metavar)),
                },
            };
            values.insert(flag.name, flag.kind.parse(flag.name, raw_value)?);
        }
        Ok(Some(Args { values }))
    }

    /// [`Command::parse`], printing the usage and exiting 0 on `--help`
    /// and failing through [`Command::fail`] on a bad argument.
    pub fn parse_or_exit(&self, raw: &[String]) -> Args {
        match self.parse(raw) {
            Ok(Some(args)) => args,
            Ok(None) => {
                use std::io::Write;
                // A reader that closed the pipe early (`--help | head`)
                // has had what it wanted.
                let _ = writeln!(std::io::stdout(), "{}", self.usage());
                std::process::exit(0);
            }
            Err(error) => self.fail(&error),
        }
    }

    /// Prints `error` and the usage to stderr and exits with status 2.
    pub fn fail(&self, error: &str) -> ! {
        eprintln!("{}: {error}\n{}", self.name, self.usage());
        std::process::exit(2);
    }

    /// Walks every numeric flag with values just past its bounds (and
    /// the spellings no bound admits), which [`Command::parse`] must
    /// reject, and with the bounds themselves, which it must accept.
    /// Returns each misjudged `flag value`; every binary's unit test
    /// asserts there is none. Parsing starts no thread and opens no
    /// socket, so out-of-range thread counts are safe to walk here.
    pub fn misjudged_values(&self) -> Vec<String> {
        let walk = self.flags().flat_map(|flag| {
            let values = flag.kind.walk_values().into_iter();
            values.map(move |(value, in_bounds)| (flag.name, value, in_bounds))
        });
        walk.filter(|(name, value, in_bounds)| {
            self.parse(&[name.to_string(), value.clone()]).is_ok() != *in_bounds
        })
        .map(|(name, value, _)| format!("{} {name} {value}", self.name))
        .collect()
    }
}

/// Parsed arguments of one command: flag name → checked value.
pub struct Args {
    values: BTreeMap<&'static str, Value>,
}

impl Args {
    pub fn present(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// An integer flag's value, or `default` when it is absent.
    pub fn u64(&self, name: &str, default: u64) -> u64 {
        match self.values.get(name) {
            None => default,
            Some(Value::U64(value)) => *value,
            Some(_) => unreachable!("{name} is not an integer flag"),
        }
    }

    /// A number list flag's values.
    pub fn f64s(&self, name: &str) -> Option<&[f64]> {
        match self.values.get(name) {
            None => None,
            Some(Value::F64(values)) => Some(values),
            Some(_) => unreachable!("{name} is not a number flag"),
        }
    }

    /// A number flag's value, or `default` when it is absent.
    pub fn f64(&self, name: &str, default: f64) -> f64 {
        self.f64s(name).map_or(default, |values| values[0])
    }

    /// A [`secs_flag`]'s value, or `default` when it is absent.
    pub fn secs(&self, name: &str, default: Duration) -> Duration {
        self.f64s(name)
            .map_or(default, |values| Duration::from_secs_f64(values[0]))
    }

    /// A word or text flag's value.
    pub fn text(&self, name: &str) -> Option<&str> {
        match self.values.get(name) {
            None => None,
            Some(Value::Text(value)) => Some(value),
            Some(_) => unreachable!("{name} is not a text flag"),
        }
    }

    /// Rejects `flag` where it would have no effect: unless one of
    /// `users` (a flag, or a value of the positional argument) was
    /// given too.
    pub fn applies_only_to(&self, flag: &str, users: &[&str]) -> Result<(), String> {
        let used = users
            .iter()
            .any(|user| self.present(user) || self.text(POSITIONAL) == Some(*user));
        if self.present(flag) && !used {
            return Err(format!("{flag} applies only to {}", users.join(", ")));
        }
        Ok(())
    }
}
