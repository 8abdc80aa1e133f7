//! A small, dependency-free `--flag value` argument parser.

use std::collections::HashMap;

/// CLI failure modes.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation; the message includes usage text.
    Usage(String),
    /// The command itself failed (I/O, bad data...).
    Runtime(String),
}

impl CliError {
    /// Usage error with the command's usage text appended.
    pub fn usage(msg: impl Into<String>, usage: &str) -> CliError {
        CliError::Usage(format!("{}\n\n{usage}", msg.into()))
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Runtime(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Runtime(e.to_string())
    }
}

/// Parsed `--key value` options (every option takes exactly one value;
/// `--help` is the single boolean flag, surfaced via [`Parsed::help`]).
#[derive(Debug, Clone)]
pub struct Parsed {
    opts: HashMap<String, String>,
    flags: Vec<String>,
    /// Whether `--help`/`-h` was present.
    pub help: bool,
}

/// Parse an argument list. `allowed` lists the permitted option names
/// (without the `--`); unknown options are usage errors.
pub fn parse(args: &[String], allowed: &[&str], usage: &str) -> Result<Parsed, CliError> {
    parse_with_flags(args, allowed, &[], usage)
}

/// Like [`parse`], but `flags` additionally lists boolean options that
/// take no value (surfaced via [`Parsed::has`]).
pub fn parse_with_flags(
    args: &[String],
    allowed: &[&str],
    flags: &[&str],
    usage: &str,
) -> Result<Parsed, CliError> {
    let mut opts = HashMap::new();
    let mut seen_flags = Vec::new();
    let mut help = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            help = true;
            continue;
        }
        let Some(key) = arg.strip_prefix("--") else {
            return Err(CliError::usage(
                format!("unexpected argument `{arg}`"),
                usage,
            ));
        };
        if flags.contains(&key) {
            if seen_flags.iter().any(|f| f == key) {
                return Err(CliError::usage(
                    format!("option `--{key}` given twice"),
                    usage,
                ));
            }
            seen_flags.push(key.to_string());
            continue;
        }
        if !allowed.contains(&key) {
            return Err(CliError::usage(format!("unknown option `--{key}`"), usage));
        }
        let Some(value) = it.next() else {
            return Err(CliError::usage(
                format!("option `--{key}` needs a value"),
                usage,
            ));
        };
        if opts.insert(key.to_string(), value.clone()).is_some() {
            return Err(CliError::usage(
                format!("option `--{key}` given twice"),
                usage,
            ));
        }
    }
    Ok(Parsed {
        opts,
        flags: seen_flags,
        help,
    })
}

impl Parsed {
    /// Raw string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }

    /// Was the boolean flag `key` present (see [`parse_with_flags`])?
    pub fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Required string option.
    pub fn require(&self, key: &str, usage: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::usage(format!("missing required option `--{key}`"), usage))
    }

    /// Typed option with a default.
    pub fn get_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        usage: &str,
    ) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                CliError::usage(format!("invalid value `{raw}` for `--{key}`"), usage)
            }),
        }
    }

    /// Finite `f64` option with a default: `NaN` and the infinities
    /// parse as `f64` but are usage errors here (an Equation 1 constant
    /// or a change threshold must be a number).
    pub fn get_finite(&self, key: &str, default: f64, usage: &str) -> Result<f64, CliError> {
        let v: f64 = self.get_or(key, default, usage)?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(CliError::usage(
                format!("`--{key}` must be finite, got `{v}`"),
                usage,
            ))
        }
    }
}

/// Write `lines` to `path`, or stdout when `path` is `None` or `-`.
pub fn write_output(path: Option<&str>, content: &str) -> Result<(), CliError> {
    match path {
        None | Some("-") => {
            print!("{content}");
            Ok(())
        }
        Some(p) => {
            std::fs::write(p, content)?;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_key_value_pairs() {
        let p = parse(
            &argv(&["--nodes", "100", "--out", "x.edges"]),
            &["nodes", "out"],
            "u",
        )
        .unwrap();
        assert_eq!(p.get("nodes"), Some("100"));
        assert_eq!(p.get_or("nodes", 0usize, "u").unwrap(), 100);
        assert_eq!(p.get_or("missing", 7usize, "u").unwrap(), 7);
        assert!(!p.help);
    }

    #[test]
    fn help_flag() {
        let p = parse(&argv(&["--help"]), &[], "u").unwrap();
        assert!(p.help);
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert!(matches!(
            parse(&argv(&["--bad", "1"]), &["good"], "u"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv(&["stray"]), &["good"], "u"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv(&["--good"]), &["good"], "u"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv(&["--good", "1", "--good", "2"]), &["good"], "u"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn typed_parse_errors_are_usage_errors() {
        let p = parse(&argv(&["--n", "abc"]), &["n"], "u").unwrap();
        assert!(matches!(
            p.get_or("n", 0usize, "u"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn require_reports_missing() {
        let p = parse(&[], &["x"], "usage text").unwrap();
        let err = p.require("x", "usage text").unwrap_err();
        assert!(err.to_string().contains("--x"));
        assert!(err.to_string().contains("usage text"));
    }
}
